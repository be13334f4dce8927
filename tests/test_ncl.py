"""Tests for non-crossing linked partitions and the Gamma polynomials.

The enumeration is checked against an independently written brute-force
generator, so the two implementations share no code paths.
"""

import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freebeta.distributions import FreeBetaPrime, fbp_t_params, t_coeffs_of
from freebeta.errors import FreeBetaError, SizeLimitExceeded
from freebeta.ncl import (
    NCL_SIZE_LIMIT,
    LinkedPartition,
    NclStatistics,
    arrangement_to_partition,
    doubly_covered_types,
    enumerate_ncl,
    fbp_moment,
    gamma_poly,
    gamma_quadratic_residual,
    gamma_series,
    level_weights,
    moment_via_ncl,
    motzkin_paths,
    ncl_table,
    path_arrangements,
    statistics,
    validate_ncl,
)
from freebeta.series import PowerSeries
from freebeta.verification import _FBP_PARAMS

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
        n = 5
        via_paths = set()
        for path in motzkin_paths(n):
            for cards in path_arrangements(path):
                via_paths.add(arrangement_to_partition(cards, n).blocks)
        assert via_paths == {p.blocks for p in enumerate_ncl(n)}


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
                assert st.dc + st.sc + st.sg == len(p)
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
            for n in range(1, 7):
                assert gamma_poly(n, *abc) == cf[n] == closed[n]

    @pytest.mark.parametrize("abc", [(F(1, 3), F(-2), F(5)),
                                     (F(0), F(-1), F(1)),
                                     (F(2), F(-1, 2), F(-3))])
    def test_routes_agree_at_negative_beta(self, abc):
        # beta < 0 takes the negated square root in the closed route
        cf = gamma_series(7, *abc, route="cf")
        closed = gamma_series(7, *abc, route="closed")
        for n in range(1, 8):
            assert gamma_poly(n, *abc) == cf[n] == closed[n]
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
        assert w3 == gamma_poly(3, alpha, beta, gamma)


class TestMomentViaNcl:
    def test_fbp_t_params(self):
        a, b = F(2), F(3)
        s, t, u = fbp_t_params(a, b)
        assert (s, t, u) == (F(1), F(2), F(1, 2))

    def test_fbp_moments_reference(self):
        want = [F(1), F(2), F(11, 2), F(71, 4), F(503, 8)]
        assert [fbp_moment(2, 3, n) for n in range(1, 6)] == want

    def test_first_moment_is_mean(self):
        for a, b in [(F(2), F(3)), (F(1, 2), F(2)), (F(3), F(3, 2))]:
            assert fbp_moment(a, b, 1) == a / (b - 1)

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
            assert gamma_poly(n, alpha, beta, gamma) == direct

    @pytest.mark.parametrize("a,b", _FBP_PARAMS)
    def test_fbp_moment_is_the_ncl_moment_sum(self, a, b):
        alphas = t_coeffs_of(FreeBetaPrime(a, b), 8)
        for n in range(1, 9):
            assert fbp_moment(a, b, n) == moment_via_ncl(alphas, n)

    @pytest.mark.parametrize("a,b", _FBP_PARAMS)
    def test_fbp_moment_is_the_scaled_gamma_polynomial(self, a, b):
        # the block-profile sum and the statistics sum read different
        # marginals of the one joint table
        s, t, u = fbp_t_params(a, b)
        for n in range(1, 9):
            gamma = gamma_poly(n, t / s, t / (s * u), 1 / u)
            assert fbp_moment(a, b, n) == (s * u) ** n * gamma

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
        first = [gamma_poly(n, *abc) for n in range(1, 8)]
        again = [gamma_poly(n, *abc) for n in range(1, 8)]
        assert first == again
        assert [fbp_moment(2, 3, n) for n in range(1, 8)] == [
            fbp_moment(2, 3, n) for n in range(1, 8)
        ]
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

    def test_size_limit_applies_to_every_sum(self):
        n = NCL_SIZE_LIMIT + 1
        alphas = PowerSeries((F(1),) * n)
        with pytest.raises(SizeLimitExceeded):
            gamma_poly(n, 1, 1, 1)
        with pytest.raises(SizeLimitExceeded):
            moment_via_ncl(alphas, n)
        with pytest.raises(SizeLimitExceeded):
            fbp_moment(2, 3, n)
        # n < 1 is malformed input, not over the cap
        with pytest.raises(FreeBetaError, match="n >= 1, got n = -1") as exc:
            fbp_moment(2, 3, -1)
        assert not isinstance(exc.value, SizeLimitExceeded)
