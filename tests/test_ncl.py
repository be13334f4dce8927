"""Tests for non-crossing linked partitions and the Gamma polynomials.

The enumeration is checked against an independently written brute-force
generator and against the Motzkin-path card model, both kept here, so the
checks share no code paths with the package.  The gap sums ``gamma_poly``
and ``fbp_moment`` are checked against sums over the enumerated table,
also kept here (``table_gamma``, ``moment_via_ncl``).
"""

import gc
import hashlib
import itertools
import random
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freebeta.distributions import (
    FreeBetaPrime, fbp_t_params, moment_series, t_coeffs_of,
)
from freebeta.errors import FreeBetaError, SizeLimitExceeded
from freebeta.fock import fbp_operator, vacuum_moments
from freebeta.ncl import (
    NCL_SIZE_LIMIT,
    LinkedPartition,
    NclStatistics,
    _sweep,
    doubly_covered_types,
    enumerate_ncl,
    fbp_moment,
    gamma_poly,
    gamma_quadratic_residual,
    gamma_series,
    level_weights,
    ncl_table,
    statistics,
    validate_ncl,
)
from freebeta.series import PowerSeries, cf_expand
from freebeta.verification import _FBP_PARAMS, GAMMA_ROUTES, MOMENT_ROUTES

F = Fraction

SCHROEDER = [1, 2, 6, 22, 90, 394, 1806, 8558]

# sha256 of enumerate_ncl(n), one partition a line as "1,2|2,3|4", pinned
# from the first card-model implementation so that rewrites keep the order
ENUMERATION_DIGESTS = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "62b9118944f9577b5c49ef30d500705d802207f20280b7d0147c87128f3d52e7",
    3: "130eeb53d326763253d22d1c9a39713da6bb1add3d1be70c63b69c9f717d3556",
    4: "9f7f20d8696b9f87fd8c3934aed557363b44ab20150f107bc59bb6b39c14bfa8",
    5: "1a7bf4482f272581c0ce30a02df94cb97aedf173f30ae478702e5ecf9f4468ee",
    6: "c9e42b9285de9866730fd7d65fdae223d876b6728c57fddf6e83642b9106de2a",
    7: "65c5696ff5e73ae53f1bdc2e9894f8b98060622d4575477f41426d52327d192d",
    8: "b7198280c3020b55c76a2ea2cb3c6c35cebdeda75ef246cec50c8f26811673f6",
}

# sha256 of repr(ncl_table(n)), pinned from the pairwise validator so that
# every brute route reads bit-identical tables
TABLE_DIGESTS = {
    1: "bec1bb9c854c8f47e06c141deb2f69ac45230e0b838a0dffe55beb07f22986f9",
    2: "d85408681560346feb4ae0b6e1f116feebd4807fc16d8e86f56f7f94a3507042",
    3: "99deeebbd6f82a998ebe33aa03f20562f394777003e5d1cebb7520ef66fde772",
    4: "8fa7862eb5e3579dd6f0081a27a581d4af37901cac7b68ab22929cadfc515477",
    5: "9060613cf21b7b6e4f3133cc449d03f4e8bb2e09f5d868638563aef519c7f9a1",
    6: "500a78d5a1aa9787e945ae1dd6ff5d47a335af6d69a9831b9262ad37ba964b18",
    7: "ceeee37b569e36c2d4837db05d2f2949109bceca2449e8f5cdb65b8588e5d1f2",
    8: "14d0d07e622d00d80c5c37db5e4bdd992208c081f47e1a9eb8deadb533245061",
    9: "12580843ba17c37e645d614e9e219c5a26861028f1e821ec758e93a8501fc686",
}


# --- the pairwise specification of validate_ncl ---------------------------
# The O(blocks^2) check that validate_ncl replaced with one stack sweep; it
# stays here, verbatim, as the definition the sweep is tested against.

def _crosses(e: tuple[int, ...], f: tuple[int, ...]) -> bool:
    """True when some e1 < f1 < e2 < f2 interleaves the two sorted blocks.

    Shared elements belong to both blocks and may serve either role (the
    four positions in the pattern are distinct, so no double use occurs).
    """

    def directed(p, q) -> bool:
        # p1 < q1 < p2 < q2 exists iff it does for the widest window: q1
        # the least element of q above min p, and q2 = max q
        q1 = next((y for y in q if y > p[0]), None)
        return q1 is not None and any(q1 < x < q[-1] for x in p)

    return directed(e, f) or directed(f, e)


def _pair_ok(e: tuple[int, ...], f: tuple[int, ...]) -> bool:
    """Non-crossing and nearly disjoint for an (unordered) block pair."""
    shared = set(e) & set(f)
    if len(shared) > 1:
        return False
    if len(shared) == 1:
        k = shared.pop()
        is_min_e, is_min_f = k == e[0], k == f[0]
        if is_min_e == is_min_f:
            return False
        if (is_min_e and len(e) < 2) or (is_min_f and len(f) < 2):
            return False
    return not _crosses(e, f)


def _cover_counts(p: LinkedPartition) -> Counter:
    return Counter(x for block in p.blocks for x in block)


def pairwise_validate_ncl(p: LinkedPartition) -> bool:
    """Check all linked-partition invariants; False on any violation."""
    cover = _cover_counts(p)
    # every element lies in 1..n, so n distinct ones cover the ground set
    if len(cover) != p.n:
        return False
    if any(c > 2 for c in cover.values()):
        return False
    if cover[1] != 1 or cover[p.n] != 1:
        return False
    if len(set(p.blocks)) != len(p.blocks):
        return False
    blocks = p.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if not _pair_ok(blocks[i], blocks[j]):
                return False
    return True


def pairwise_statistics(p: LinkedPartition) -> NclStatistics:
    """statistics() as it read the cover off a Counter of the blocks."""
    assert pairwise_validate_ncl(p)
    cover = _cover_counts(p)
    dc = sum(1 for c in cover.values() if c == 2)
    sg = sum(1 for b in p.blocks if len(b) == 1)
    sc = sum(1 for b in p.blocks if len(b) >= 2 and cover[b[0]] == 1)
    return NclStatistics(dc=dc, sc=sc, sg=sg)


def sweep_statistics(p: LinkedPartition) -> NclStatistics:
    """statistics() as it read the triple off the sweep's cover in three
    passes, before the sweep counted it; kept as its oracle, with the cover
    (2 where an element opens one block and sits inside another) rebuilt
    from the sweep's ``first`` and ``inner``."""
    swept = _sweep(p)
    if swept is None:
        raise FreeBetaError("not a non-crossing linked partition")
    first, inner, _ = swept
    cover = [0] + [1 + (first[x] is not None and inner[x] is not None)
                   for x in range(1, p.n + 1)]
    dc = cover.count(2)
    sg = sum(1 for b in p.blocks if len(b) == 1)
    sc = sum(1 for b in p.blocks if len(b) >= 2 and cover[b[0]] == 1)
    return NclStatistics(dc=dc, sc=sc, sg=sg)


def pairwise_doubly_covered_types(p: LinkedPartition):
    """doubly_covered_types() as it read the cover off a Counter."""
    assert pairwise_validate_ncl(p)
    cover = _cover_counts(p)
    t1, t2 = [], []
    for x, c in cover.items():
        if c != 2:
            continue
        host = next(b for b in p.blocks if x in b and x != b[0])
        (t1 if x == host[-1] else t2).append(x)
    return tuple(sorted(t1)), tuple(sorted(t2))


def one_element_mutations(p: LinkedPartition):
    """Every partition one element away: x added to or removed from a block.

    Removing a block's only element drops the block.
    """
    for i, block in enumerate(p.blocks):
        for x in range(1, p.n + 1):
            if x not in block:
                changed = (block + (x,),)
            elif len(block) > 1:
                changed = (tuple(y for y in block if y != x),)
            else:
                changed = ()
            yield LinkedPartition(
                p.n, p.blocks[:i] + changed + p.blocks[i + 1:])


@hst.composite
def block_lists(draw):
    """A ground set n <= 8 and up to six random blocks over it."""
    n = draw(hst.integers(1, 8))
    block = hst.lists(hst.integers(1, n), min_size=1, max_size=n, unique=True)
    blocks = draw(hst.lists(block.map(tuple), max_size=6))
    return LinkedPartition(n, tuple(blocks))


# --- independent brute-force oracle ---------------------------------------

def _oracle_crossing(e, f):
    for a, c in itertools.combinations(e, 2):
        for b, d in itertools.combinations(f, 2):
            if a < b < c < d or b < a < d < c:
                return True
    return False


def _oracle_compatible(e, f):
    shared = set(e) & set(f)
    if len(shared) > 1:
        return False
    if shared:
        x = shared.pop()
        is_min_e, is_min_f = x == min(e), x == min(f)
        if is_min_e == is_min_f:
            return False
        host = e if is_min_e else f
        if len(host) < 2:
            return False
    return not _oracle_crossing(e, f)


def oracle_enumerate(n):
    """All non-crossing linked partitions of {1..n} by direct construction.

    Blocks are grown in order of their minima: each element is the minimum
    of at most one block, element 1 and element n must be singly covered,
    and every pair of chosen blocks must be compatible.
    """
    results = []

    def covered(blocks):
        counts = {}
        for b in blocks:
            for x in b:
                counts[x] = counts.get(x, 0) + 1
        return counts

    def rec(e, blocks):
        if e > n:
            counts = covered(blocks)
            if all(1 <= counts.get(x, 0) <= 2 for x in range(1, n + 1)):
                results.append(tuple(sorted(blocks)))
            return
        counts = covered(blocks)
        have = counts.get(e, 0)
        # options: skip (only if already covered), or start a block at e
        if have >= 1:
            rec(e + 1, blocks)
        if have >= 2:
            return
        for size in range(1, n - e + 2):
            for rest in itertools.combinations(range(e + 1, n + 1), size - 1):
                block = (e,) + rest
                if have == 1 and len(block) < 2:
                    continue  # a second cover must come from a linking block
                if any(counts.get(x, 0) >= 2 for x in rest):
                    continue
                if block.count(n) and counts.get(n, 0) >= 1:
                    continue
                if all(_oracle_compatible(block, b) for b in blocks):
                    new = blocks + [block]
                    new_counts = covered(new)
                    if new_counts.get(1, 0) <= 1 and new_counts.get(n, 0) <= 1:
                        rec(e + 1, new)

    rec(1, [])
    return set(results)


# --- sums over the enumerated table ---------------------------------------
# The per-size sums the package ran before the gap recursion replaced them;
# they stay here as the oracles gamma_poly and fbp_moment are tested against.

def table_gamma(n, alpha, beta, gamma):
    """Gamma_n as the table's sum of count * alpha^dc beta^sc gamma^sg."""
    return sum((count * alpha ** dc * beta ** sc * gamma ** sg
                for (dc, sc, sg, _), count in ncl_table(n)), F(0))


def moment_via_ncl(alphas: PowerSeries, n: int) -> Fraction:
    """m_n = sum over NCL(n) of alpha_0^{n - #blocks} prod_B alpha_{|B|-1}.

    ``alphas`` is the T-transform T(z) = 1/S(z) = sum alpha_k z^k.
    """
    if alphas[0] == 0:
        raise ValueError("T-transform needs alpha_0 != 0")
    if n == 0:
        return Fraction(1)
    if alphas.order < n - 1:
        raise ValueError("need alpha_k through k = n - 1")
    a0 = alphas[0]
    total = Fraction(0)
    for (*_, sizes), count in ncl_table(n):
        prod = count * a0 ** (n - len(sizes))
        for size in sizes:
            prod *= alphas[size - 1]
        total += prod
    return total


# --- the card model -------------------------------------------------------
# Chen, Wu & Yan (European J. Combin. 29, 2008): a linked partition of
# {1..n} is a Motzkin path of length n with one admissible card per step.
# No route of the package runs it; it is the check on enumerate_ncl.

# Cards, one per step: ``O`` opens a block (up step), ``U`` opens a block
# linked to the enclosing open one (up step at positive height only), ``C``
# closes a block (down step), ``I`` continues the enclosing block (flat step
# at positive height), ``S`` is a singleton (flat step), ``T`` ends the
# enclosing block while opening a linked successor (flat step at positive
# height).  Keyed by (step, height > 0); a step missing here leaves the path.
_RISE = {"u": 1, "t": 0, "d": -1}
_CARDS = {
    ("u", False): ("O",),
    ("u", True): ("O", "U"),
    ("t", False): ("S",),
    ("t", True): ("I", "S", "T"),
    ("d", True): ("C",),
}


def motzkin_paths(n):
    """All lattice paths of length n over {u, t, d} staying >= 0, ending at 0."""

    def rec(prefix, h, left):
        if left == 0:
            yield tuple(prefix)
            return
        for step, dh in _RISE.items():
            nh = h + dh
            if nh < 0 or nh > left - 1:
                continue
            prefix.append(step)
            yield from rec(prefix, nh, left - 1)
            prefix.pop()

    yield from rec([], 0, n)


def path_arrangements(path):
    """Admissible card sequences of a Motzkin path; ValueError on others."""
    options = []
    h = 0
    for step in path:
        options.append(_CARDS.get((step, h > 0)))  # None: leaves the path
        h += _RISE.get(step, 0)
    if h or None in options:
        raise ValueError(f"not a Motzkin path: {tuple(path)!r}")
    return itertools.product(*options)


def arrangement_to_partition(cards, n):
    """Convert a card sequence along positions 1..n into a partition.

    A stack tracks the currently open blocks, innermost on top; linked
    cards (``U``, ``T``) write the position into the enclosing block and
    open a new block starting at the same position.
    """
    stack = []
    done = []
    for j, card in enumerate(cards, start=1):
        if card == "O":
            stack.append([j])
        elif card == "U":
            stack[-1].append(j)
            stack.append([j])
        elif card == "I":
            stack[-1].append(j)
        elif card == "S":
            done.append((j,))
        elif card == "T":
            stack[-1].append(j)
            done.append(tuple(stack.pop()))
            stack.append([j])
        elif card == "C":
            stack[-1].append(j)
            done.append(tuple(stack.pop()))
        else:
            raise ValueError(f"unknown card {card!r}")
    if stack:
        raise ValueError("unbalanced card sequence")
    return LinkedPartition(n, tuple(done))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force_oracle(self, n):
        got = {p.blocks for p in enumerate_ncl(n)}
        assert got == oracle_enumerate(n)

    @pytest.mark.parametrize("n,count", list(enumerate(SCHROEDER, start=1)))
    def test_counts_are_large_schroeder(self, n, count):
        assert len(enumerate_ncl(n)) == count

    def test_no_duplicates(self):
        for n in range(1, 8):
            parts = enumerate_ncl(n)
            assert len({p.blocks for p in parts}) == len(parts)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded, match="capped at n = 10"):
            enumerate_ncl(13)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_ground_set_is_not_over_the_cap(self, n):
        with pytest.raises(FreeBetaError, match=f"got n = {n}$") as exc:
            enumerate_ncl(n)
        assert not isinstance(exc.value, SizeLimitExceeded)

    @pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
    def test_order_is_pinned(self, n):
        text = "\n".join("|".join(",".join(map(str, b)) for b in p.blocks)
                         for p in enumerate_ncl(n))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ENUMERATION_DIGESTS[n]

    def test_partitions_are_freed_with_the_list(self):
        # reference counting alone frees them: no cycle keeps them alive
        gc.disable()
        try:
            parts = enumerate_ncl(5)
            first = weakref.ref(parts[0])
            del parts
            assert first() is None
        finally:
            gc.enable()

    def test_all_enumerated_partitions_validate(self):
        # by the sweep and by the pairwise specification alike
        for n in range(1, 9):
            for p in enumerate_ncl(n):
                assert validate_ncl(p) and pairwise_validate_ncl(p)


class TestValidation:
    def test_crossing_pair_rejected(self):
        p = LinkedPartition(4, ((1, 3), (2, 4)))
        assert not validate_ncl(p)

    def test_linked_pair_accepted(self):
        p = LinkedPartition(3, ((1, 2), (2, 3)))
        assert validate_ncl(p)

    def test_shared_min_of_both_rejected(self):
        p = LinkedPartition(3, ((1, 2), (1, 3)))
        assert not validate_ncl(p)

    def test_uncovered_element_rejected(self):
        p = LinkedPartition(3, ((1, 2),))
        assert not validate_ncl(p)

    def test_uncovered_element_rejected_in_the_walk(self):
        # as many listed elements as n, so only the walk finds 4 uncovered
        p = LinkedPartition(4, ((1, 2), (2, 3)))
        assert not validate_ncl(p)

    def test_crosses_matches_the_four_position_definition(self):
        def brute(e, f):
            return any(e1 < f1 < e2 < f2
                       for p, q in ((e, f), (f, e))
                       for e1, e2 in itertools.combinations(p, 2)
                       for f1, f2 in itertools.combinations(q, 2))

        subsets = [c for k in range(1, 8)
                   for c in itertools.combinations(range(1, 8), k)]
        assert all(_crosses(e, f) == brute(e, f)
                   for e in subsets for f in subsets)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sweep_matches_pairwise_on_one_element_mutations(self, n):
        verdicts = Counter()
        for p in enumerate_ncl(n):
            for q in one_element_mutations(p):
                verdict = pairwise_validate_ncl(q)
                assert validate_ncl(q) == verdict, q
                verdicts[verdict] += 1
        # every mutation of NCL(2) is invalid; from n = 3 on some are valid
        assert verdicts[False] and (verdicts[True] or n == 2)

    @settings(max_examples=300, deadline=None)
    @given(block_lists())
    def test_sweep_matches_pairwise_on_random_block_lists(self, p):
        assert validate_ncl(p) == pairwise_validate_ncl(p)

    def test_sparse_partition_of_a_huge_ground_set(self):
        # the cover check is linear in the elements listed, not in n
        p = LinkedPartition(10**9, ((1, 10**9),))
        assert not validate_ncl(p)

    def test_public_constructor_canonicalizes(self):
        # the enumerator alone skips this, emitting canonical blocks
        assert LinkedPartition(3, ((3, 2), (1, 2))).blocks == ((1, 2), (2, 3))

    def test_malformed_inputs(self):
        with pytest.raises(FreeBetaError, match="outside the ground set"):
            LinkedPartition(3, ((1, 5),))
        with pytest.raises(FreeBetaError, match="repeated element"):
            LinkedPartition(3, ((1, 1, 2), (3,)))
        with pytest.raises(FreeBetaError, match="ground set must be nonempty"):
            LinkedPartition(0, ())


class TestPaths:
    def test_motzkin_path_counts(self):
        # paths of length n with the height-bound pruning applied
        motzkin = [1, 2, 4, 9, 21, 51, 127]
        for n, want in enumerate(motzkin, start=1):
            assert len(list(motzkin_paths(n))) == want

    def test_reference_path_expands_to_six(self):
        path = ("u", "u", "t", "d", "d")
        arrangements = list(path_arrangements(path))
        assert len(arrangements) == 6
        parts = {arrangement_to_partition(cards, 5).blocks
                 for cards in arrangements}
        assert len(parts) == 6

    def test_card_height_rules(self):
        # at height 0 an up-step must open a new block
        for cards in path_arrangements(("u", "d")):
            assert cards[0] == "O"
        # a t-step at height 0 is forced to be a singleton
        for cards in path_arrangements(("t",)):
            assert cards == ("S",)

    def test_arrangements_match_nested_loops(self):
        def oracle(path):
            seqs, h = [()], 0
            for step in path:
                if step == "u":
                    cards, h = ("OU" if h else "O"), h + 1
                elif step == "t":
                    cards = "IST" if h else "S"
                else:
                    cards, h = "C", h - 1
                seqs = [seq + (c,) for seq in seqs for c in cards]
            return seqs

        for n in range(1, 9):
            for path in motzkin_paths(n):
                assert list(path_arrangements(path)) == oracle(path)

    @pytest.mark.parametrize("path", [("d",), ("u", "d", "d", "u"),
                                      ("u", "x"), ("u",)])
    def test_non_motzkin_path_rejected(self, path):
        with pytest.raises(ValueError, match="not a Motzkin path"):
            path_arrangements(path)

    def test_expansion_covers_enumeration(self):
        # the card model checks the block recursion: the same partitions,
        # in the same order once sorted by blocks
        for n in range(1, 9):
            via_paths = sorted(
                (arrangement_to_partition(cards, n)
                 for path in motzkin_paths(n)
                 for cards in path_arrangements(path)),
                key=lambda p: p.blocks)
            assert via_paths == enumerate_ncl(n)


class TestStatistics:
    def test_reference_partition(self):
        p = LinkedPartition(
            10, ((1, 2, 7), (2, 4), (3,), (5, 6), (7, 8, 9), (9, 10))
        )
        st = statistics(p)
        assert st == NclStatistics(dc=3, sc=2, sg=1)

    def test_doubly_covered_types(self):
        p = LinkedPartition(
            10, ((1, 2, 7), (2, 4), (3,), (5, 6), (7, 8, 9), (9, 10))
        )
        type_one, type_two = doubly_covered_types(p)
        assert type_one == (7, 9)
        assert type_two == (2,)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unchanged_from_the_pairwise_cover(self, n):
        for p in enumerate_ncl(n):
            assert statistics(p) == pairwise_statistics(p)
            assert doubly_covered_types(p) == pairwise_doubly_covered_types(p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counted_in_the_sweep(self, n):
        for p in enumerate_ncl(n):
            assert statistics(p) == sweep_statistics(p)

    @pytest.mark.parametrize("blocks", [
        ((1, 3), (2, 4)),  # a crossing pair
        ((1, 2), (1, 3), (2,)),  # a second opener at 1
        ((1, 2), (2,), (3,)),  # a singleton shares 2
    ])
    def test_invalid_partitions_raise_in_both(self, blocks):
        p = LinkedPartition(max(map(max, blocks)), blocks)
        for stats in (statistics, sweep_statistics):
            with pytest.raises(FreeBetaError, match="not a non-crossing"):
                stats(p)

    def test_doubly_covered_types_are_linear_in_n(self):
        # the chain 1,2|2,3|...: every inner element is a host's maximum
        n = 10**5
        p = LinkedPartition(n, tuple((x, x + 1) for x in range(1, n)))
        start = time.perf_counter()
        type_one, type_two = doubly_covered_types(p)
        assert time.perf_counter() - start < 1.0
        assert type_one == tuple(range(2, n))
        assert type_two == ()

    def test_invalid_partition_raises(self):
        p = LinkedPartition(4, ((1, 3), (2, 4)))
        with pytest.raises(FreeBetaError, match="not a non-crossing linked"):
            statistics(p)
        with pytest.raises(FreeBetaError, match="not a non-crossing linked"):
            doubly_covered_types(p)

    def test_identities_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_ncl(n):
                st = statistics(p)
                assert st.dc + st.sc + st.sg == len(p.blocks)
                assert sum(len(b) for b in p.blocks) == n + st.dc


class TestGammaPolynomial:
    def test_unit_weights_count_partitions(self):
        cf = gamma_series(6, 1, 1, 1, route="cf")
        for n in range(1, 7):
            assert cf[n] == SCHROEDER[n - 1]

    def test_statistic_generating_polynomial(self):
        """Gamma_n(a,b,c) equals the brute sum over NCL(n) of a^dc b^sc c^sg."""
        alpha, beta, gamma = F(2), F(3, 2), F(5)
        cf = gamma_series(6, alpha, beta, gamma, route="cf")
        for n in range(1, 7):
            brute = sum(
                alpha ** statistics(p).dc
                * beta ** statistics(p).sc
                * gamma ** statistics(p).sg
                for p in enumerate_ncl(n)
            )
            assert cf[n] == brute

    def test_three_routes_agree_on_random_parameters(self):
        rng = random.Random(99)
        for _ in range(6):
            abc = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(3)]
            cf = gamma_series(6, *abc, route="cf")
            closed = gamma_series(6, *abc, route="closed")
            assert (gamma_poly(6, *abc) == cf.coefficients
                    == closed.coefficients)

    @pytest.mark.parametrize("abc", [(F(1, 3), F(-2), F(5)),
                                     (F(0), F(-1), F(1)),
                                     (F(2), F(-1, 2), F(-3))])
    def test_routes_agree_at_negative_beta(self, abc):
        # beta < 0 takes the negated square root in the closed route
        cf = gamma_series(7, *abc, route="cf")
        closed = gamma_series(7, *abc, route="closed")
        assert gamma_poly(7, *abc) == cf.coefficients == closed.coefficients
        res = gamma_quadratic_residual(closed, *abc)
        assert all(c == 0 for c in res.coefficients)

    def test_closed_form_satisfies_quadratic(self):
        for abc in [(F(1), F(1), F(1)), (F(2), F(1, 2), F(3)),
                    (F(0), F(1), F(1)), (F(1, 3), F(4), F(2, 5))]:
            g = gamma_series(8, *abc, route="closed")
            res = gamma_quadratic_residual(g, *abc)
            assert all(c == 0 for c in res.coefficients)

    def test_alpha_zero_gives_noncrossing_counts(self):
        # without doubly covered elements only ordinary NC partitions remain
        catalan = [1, 2, 5, 14, 42]
        closed = gamma_series(5, 0, 1, 1, route="closed")
        assert list(closed.coefficients[1:]) == catalan

    def test_beta_zero_closed_form(self):
        # no singly covered big blocks: only all-singleton partitions remain
        closed = gamma_series(5, 1, 0, F(3), route="closed")
        assert closed.coefficients == tuple(F(3) ** n for n in range(6))

    def test_scheme_weights(self):
        alpha, beta, gamma = F(2), F(3), F(5)
        flat, up = level_weights(alpha, beta, gamma, 4)
        assert flat == (gamma,) + (1 + alpha + gamma,) * 3
        assert up == (beta, alpha + beta, alpha + beta)
        assert level_weights(alpha, beta, gamma, 1) == ((gamma,), ())
        # third path sum: fff + fud + udf + ufd
        w3 = gamma ** 3 + 2 * beta * gamma + beta * (1 + alpha + gamma)
        assert w3 == gamma_series(3, alpha, beta, gamma, route="cf")[3]
        assert w3 == gamma_poly(3, alpha, beta, gamma)[3]


class TestMomentViaNcl:
    def test_fbp_t_params(self):
        a, b = F(2), F(3)
        s, t, u = fbp_t_params(a, b)
        assert (s, t, u) == (F(1), F(2), F(1, 2))

    def test_fbp_moments_reference(self):
        want = [F(1), F(2), F(11, 2), F(71, 4), F(503, 8)]
        assert fbp_moment(2, 3, 5) == (F(1), *want)

    def test_first_moment_is_mean(self):
        for a, b in [(F(2), F(3)), (F(1, 2), F(2)), (F(3), F(3, 2))]:
            assert fbp_moment(a, b, 1) == (1, a / (b - 1))

    def test_moment_via_ncl_partition_weights(self):
        # with alphas (1, x, x, ...) the sum counts blocks of size >= 2
        alphas = PowerSeries((F(1), F(3), F(3), F(3), F(3)))
        got = moment_via_ncl(alphas, 3)
        brute = sum(
            F(3) ** sum(1 for blk in p.blocks if len(blk) >= 2)
            for p in enumerate_ncl(3)
        )
        assert got == brute


class TestNclTable:
    TRIPLES = [
        (F(2), F(3, 2), F(5)),
        (F(1, 3), F(7, 2), F(2, 9)),
        (F(-1, 2), F(4), F(0)),
        (F(0), F(1), F(-3, 7)),
    ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_brute_gamma_equals_direct_sum(self, n):
        stats = [statistics(p) for p in enumerate_ncl(n)]
        for alpha, beta, gamma in self.TRIPLES:
            direct = sum(
                alpha ** st.dc * beta ** st.sc * gamma ** st.sg
                for st in stats
            )
            assert gamma_poly(n, alpha, beta, gamma)[n] == direct

    @pytest.mark.parametrize("a,b", _FBP_PARAMS)
    def test_fbp_moment_is_the_ncl_moment_sum(self, a, b):
        # to the enumeration's size cap, past which the table sum stops
        alphas = t_coeffs_of(FreeBetaPrime(a, b), NCL_SIZE_LIMIT)
        assert fbp_moment(a, b, NCL_SIZE_LIMIT) == tuple(
            moment_via_ncl(alphas, n) for n in range(NCL_SIZE_LIMIT + 1))

    @pytest.mark.parametrize("a,b", _FBP_PARAMS)
    def test_fbp_moment_is_the_scaled_gamma_polynomial(self, a, b):
        # the block-profile sum and the statistics sum read different
        # marginals of the one joint table
        s, t, u = fbp_t_params(a, b)
        gammas = gamma_poly(8, t / s, t / (s * u), 1 / u)
        assert fbp_moment(a, b, 8) == tuple((s * u) ** n * gamma
                                            for n, gamma in enumerate(gammas))

    def test_block_profiles_match_enumeration(self):
        # both marginals of the joint table against direct enumeration
        for n in range(1, 7):
            parts = enumerate_ncl(n)
            want_stats = Counter(
                (st.dc, st.sc, st.sg) for st in map(statistics, parts))
            want_profiles = Counter(
                tuple(sorted(len(b) for b in p.blocks)) for p in parts)
            got_stats, got_profiles = Counter(), Counter()
            for (dc, sc, sg, sizes), count in ncl_table(n):
                got_stats[dc, sc, sg] += count
                got_profiles[sizes] += count
            assert got_stats == want_stats
            assert got_profiles == want_profiles

    @pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
    def test_table_is_pinned(self, n):
        digest = hashlib.sha256(repr(ncl_table(n)).encode()).hexdigest()
        assert digest == TABLE_DIGESTS[n]

    def test_repeated_calls_agree(self):
        abc = (F(3, 4), F(5, 3), F(2))
        assert gamma_poly(7, *abc) == gamma_poly(7, *abc)
        assert fbp_moment(2, 3, 7) == fbp_moment(2, 3, 7)
        assert ncl_table(6) is ncl_table(6)

    def test_cached_table_is_immutable(self):
        table = ncl_table(4)
        snapshot = tuple(table)
        with pytest.raises(TypeError):
            table[0] = ((0, 0, 0, ()), 1)
        with pytest.raises(TypeError):
            table[0][1] += 1
        with pytest.raises(TypeError):
            table[0][0][3][0] = 5
        with pytest.raises(AttributeError):
            table.append(((0, 0, 0, ()), 1))
        assert ncl_table(4) == snapshot

    def test_negative_n_is_refused_by_every_sum(self):
        # n < 0 is malformed input, not over a cap; the sums have no cap on
        # n, and answer past the enumeration's
        for call in (lambda n: gamma_poly(n, 1, 1, 1),
                     lambda n: fbp_moment(2, 3, n)):
            with pytest.raises(FreeBetaError, match="n >= 0, got n = -1"
                               ) as exc:
                call(-1)
            assert not isinstance(exc.value, SizeLimitExceeded)
            assert len(call(0)) == 1
            assert len(call(NCL_SIZE_LIMIT + 1)) == NCL_SIZE_LIMIT + 2
        # so is it by every exact route, ahead of the route's cap, and by
        # the series and Fock layers under them
        fbp, abc = FreeBetaPrime(2, 3), (F(1), F(1), F(1))
        calls = [lambda n, fn=r.fn: fn(fbp, n) for r in MOMENT_ROUTES.values()]
        calls += [lambda n, fn=r.fn: fn(abc, n) for r in GAMMA_ROUTES.values()]
        calls += [lambda n: gamma_series(n, 1, 0, 1, route="closed"),
                  lambda n: moment_series(fbp, n),
                  lambda n: cf_expand(*level_weights(1, 1, 1, 2), n),
                  lambda n: vacuum_moments(fbp_operator(2, 3, 2), n)]
        for call in calls:
            for n in (-1, -3):
                with pytest.raises(FreeBetaError, match=f">= 0, got .* {n}$"
                                   ) as exc:
                    call(n)
                assert not isinstance(exc.value, SizeLimitExceeded)


def _random_triples(count, seed):
    """Signed rational triples, each entry zero about one time in five."""
    rng = random.Random(seed)
    return [tuple(F(0) if rng.random() < 0.2
                  else F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(3)) for _ in range(count)]


class TestGapSum:
    """gamma_poly against the table sum to the enumeration's size cap, and
    both gap sums against the other routes past it."""

    @pytest.mark.parametrize(
        "abc", TestNclTable.TRIPLES + _random_triples(16, 32))
    def test_equals_the_table_sum_to_the_size_cap(self, abc):
        want = tuple(table_gamma(n, *abc)
                     for n in range(1, NCL_SIZE_LIMIT + 1))
        assert gamma_poly(NCL_SIZE_LIMIT, *abc) == (1, *want)

    @pytest.mark.parametrize("abc", [(F(2, 3), F(5, 7), F(3, 2)),
                                     (F(0), F(-1), F(1)),
                                     (F(1, 3), F(-2), F(5)),
                                     *_random_triples(4, 64)])
    def test_equals_the_series_routes_to_order_64(self, abc):
        cf = gamma_series(64, *abc, route="cf").coefficients
        closed = gamma_series(64, *abc, route="closed").coefficients
        assert gamma_poly(64, *abc) == cf == closed

    @pytest.mark.parametrize("a,b", _FBP_PARAMS)
    def test_fbp_moment_equals_the_series_routes_to_order_64(self, a, b):
        s, t, u = fbp_t_params(a, b)
        cf = gamma_series(64, t / s, t / (s * u), 1 / u, route="cf")
        got = fbp_moment(a, b, 64)
        assert got == moment_series(FreeBetaPrime(a, b), 64).moments
        assert got == tuple((s * u) ** n * g
                            for n, g in enumerate(cf.coefficients))
