"""Non-crossing linked partitions and their moment combinatorics.

A linked partition of {1..n} is a collection of blocks covering every
element once or twice, pairwise non-crossing, and "nearly disjoint": two
blocks may share at most one element, and a shared element must be the
minimum of exactly one of the two blocks (that block then has size >= 2).

Enumeration follows the card model: every partition corresponds to a
Motzkin path of length n decorated with one admissible card per step, and
expanding all paths yields each partition exactly once.  The statistic
triple (dc, sc, sg) — doubly covered elements, singly covered minima of
non-singleton blocks, singletons — drives the generating polynomial
``gamma_poly`` (the brute sum); ``gamma_series`` expands it by two more
independent routes that the tests pin against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .distributions import FreeBetaPrime, t_coeffs_of
from .errors import FreeBetaError, SizeLimitExceeded
from .series import PowerSeries, cf_expand, ps_sqrt
from .series import _poly
from .transforms import _frac

__all__ = [
    "LinkedPartition",
    "NclStatistics",
    "level_weights",
    "validate_ncl",
    "enumerate_ncl",
    "motzkin_paths",
    "path_arrangements",
    "arrangement_to_partition",
    "statistics",
    "ncl_table",
    "doubly_covered_types",
    "gamma_poly",
    "gamma_series",
    "gamma_quadratic_residual",
    "moment_via_ncl",
    "fbp_moment",
    "NCL_SIZE_LIMIT",
]

# Largest n with an exhaustive NCL(n).  One enumerate-and-validate pass
# takes ~1.0-1.3 s at n = 9 and ~6-7.5 s at n = 10 (Python 3.11, 2-vCPU
# x86_64); n = 11 has five times as many partitions, so ~5x the time
# (estimated, not run) and the memory to hold a million partitions.
NCL_SIZE_LIMIT = 10


@dataclass(frozen=True)
class LinkedPartition:
    """Blocks of a (candidate) linked partition in canonical order.

    Blocks are sorted by minimum element and each block's elements are
    sorted increasingly; construction canonicalizes, so equal partitions
    compare equal regardless of input order.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise FreeBetaError("ground set must be nonempty")
        canon = []
        for block in self.blocks:
            if len(block) == 0:
                raise FreeBetaError("empty block")
            b = tuple(sorted(block))
            if len(set(b)) != len(b):
                raise FreeBetaError("repeated element inside a block")
            if b[0] < 1 or b[-1] > self.n:
                raise FreeBetaError("element outside the ground set")
            canon.append(b)
        canon.sort()
        object.__setattr__(self, "blocks", tuple(canon))

    def __len__(self) -> int:
        return len(self.blocks)


def _sweep(p: LinkedPartition) -> tuple[list[int], dict] | None:
    """Cover counts (index x for element x) and ``inner``, or None.

    Blocks are filed under their minima and other elements under their
    blocks (``inner``), so structural faults fail before any walk over
    1..n.  The walk keeps the open blocks on a stack: the block holding x
    must be on top (it pops at its maximum), then a block opening at x is
    pushed.
    """
    first: dict[int, tuple[int, ...]] = {}
    inner: dict[int, tuple[int, ...]] = {}
    for b in p.blocks:
        if b[0] in first:
            return None  # a second opener, or a duplicate block
        first[b[0]] = b
        for x in b[1:]:
            if x in inner:
                return None  # a second non-minimum holder
            inner[x] = b
    # every element lies in 1..n, so n distinct ones cover the ground set
    if len(first.keys() | inner.keys()) != p.n:
        return None
    cover = [0] + [1] * p.n
    stack: list[tuple[int, ...]] = [()]  # the sentinel is never a host
    for x in range(1, p.n + 1):
        block, host = first.get(x), inner.get(x)
        if host is None:
            if len(block) > 1:
                stack.append(block)
            continue
        if stack[-1] is not host:
            return None
        if x == host[-1]:
            stack.pop()
        if block is not None:
            if len(block) == 1:
                return None  # a shared singleton
            cover[x] = 2
            stack.append(block)
    return cover, inner


def validate_ncl(p: LinkedPartition) -> bool:
    """Check all linked-partition invariants; False on any violation."""
    return _sweep(p) is not None


# --------------------------------------------------------------------------
# Motzkin paths and the card model
# --------------------------------------------------------------------------

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


def motzkin_paths(n: int) -> Iterator[tuple[str, ...]]:
    """All lattice paths of length n over {u, t, d} staying >= 0, ending at 0."""

    def rec(prefix: list[str], h: int, left: int) -> Iterator[tuple[str, ...]]:
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


def path_arrangements(path: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Admissible card sequences of a Motzkin path; ValueError on others."""
    options = []
    h = 0
    for step in path:
        options.append(_CARDS.get((step, h > 0)))  # None: leaves the path
        h += _RISE.get(step, 0)
    if h or None in options:
        raise ValueError(f"not a Motzkin path: {tuple(path)!r}")
    return product(*options)


def arrangement_to_partition(cards: Sequence[str], n: int) -> LinkedPartition:
    """Convert a card sequence along positions 1..n into a partition.

    A stack tracks the currently open blocks, innermost on top; linked
    cards (``U``, ``T``) write the position into the enclosing block and
    open a new block starting at the same position.
    """
    stack: list[list[int]] = []
    done: list[tuple[int, ...]] = []
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


def enumerate_ncl(n: int) -> list[LinkedPartition]:
    """All linked partitions of {1..n}, canonically ordered, duplicate-free."""
    if n < 1:
        raise FreeBetaError(f"NCL(n) needs n >= 1, got n = {n}")
    if n > NCL_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"exhaustive enumeration capped at n = {NCL_SIZE_LIMIT}"
        )
    out = []
    for path in motzkin_paths(n):
        for cards in path_arrangements(path):
            out.append(arrangement_to_partition(cards, n))
    out.sort(key=lambda p: p.blocks)
    return out


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NclStatistics:
    dc: int
    sc: int
    sg: int


def statistics(p: LinkedPartition) -> NclStatistics:
    """The (dc, sc, sg) statistic triple of a valid linked partition.

    Each block's minimum falls in exactly one class, so
    dc + sc + sg = number of blocks, and counting elements with
    multiplicity gives sum of block sizes = n + dc.
    """
    swept = _sweep(p)
    if swept is None:
        raise FreeBetaError("not a non-crossing linked partition")
    cover = swept[0]
    dc = cover.count(2)
    sg = sum(1 for b in p.blocks if len(b) == 1)
    sc = sum(1 for b in p.blocks if len(b) >= 2 and cover[b[0]] == 1)
    return NclStatistics(dc=dc, sc=sc, sg=sg)


# --------------------------------------------------------------------------
# Per-n tables: NCL(n) enumerated once per process
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)  # at most NCL_SIZE_LIMIT entries
def ncl_table(n: int) -> tuple[tuple[tuple, int], ...]:
    """NCL(n) counted as immutable ``((dc, sc, sg, sizes), count)`` pairs.

    One pass over :func:`enumerate_ncl`; each partition goes through the
    validating :func:`statistics`, so the triples come from the blocks and
    not from the cards.  ``sizes`` are the sorted block sizes.  Only the
    counts are kept, never the partitions.
    """
    counts: Counter = Counter()
    for p in enumerate_ncl(n):
        st = statistics(p)
        sizes = tuple(sorted(len(b) for b in p.blocks))
        counts[st.dc, st.sc, st.sg, sizes] += 1
    return tuple(counts.items())


def doubly_covered_types(
    p: LinkedPartition,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the doubly covered elements by how they sit in the host block.

    A doubly covered element opens one block and belongs to another (the
    host).  It is *type one* when it is the maximum of the host and *type
    two* otherwise; type one corresponds to flat-step linked cards, type
    two to up-step linked cards in the card model.
    """
    swept = _sweep(p)
    if swept is None:
        raise FreeBetaError("not a non-crossing linked partition")
    cover, host = swept
    t1, t2 = [], []
    for x, c in enumerate(cover):
        if c == 2:
            (t1 if x == host[x][-1] else t2).append(x)
    return tuple(t1), tuple(t2)


# --------------------------------------------------------------------------
# Jacobi weights and the Gamma generating polynomial
# --------------------------------------------------------------------------

def level_weights(alpha, beta, gamma, levels: int
                  ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The (flat, up) Jacobi weights of levels 0..levels-1 for NCL statistics.

    Up steps carry beta from the ground and alpha + beta above (the extra
    alpha is the linked-opening card); flat steps carry gamma on the ground
    and 1 + alpha + gamma above (continue, singleton, or linked split); down
    steps carry 1, so ``up[i]`` is also the weight of a matched up/down pair
    between levels i and i+1.  Path sums with these weights generate the
    linked-partition statistics.
    """
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    flat = tuple(gamma if i == 0 else 1 + alpha + gamma for i in range(levels))
    up = tuple(beta if i == 0 else alpha + beta for i in range(levels - 1))
    return flat, up


def gamma_series(order: int, alpha, beta, gamma,
                 route: str = "cf") -> PowerSeries:
    """The generating series sum_n Gamma_n z^n by the cf or closed route."""
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    if route == "cf":
        depth = (order + 1) // 2 + 1
        return cf_expand(*level_weights(alpha, beta, gamma, depth), order)
    if route == "closed":
        return _gamma_closed(order, alpha, beta, gamma)
    raise ValueError(f"unknown series route {route!r}")


def _gamma_quadratic(n: int, alpha: Fraction, beta: Fraction,
                     gamma: Fraction) -> tuple[PowerSeries, PowerSeries, PowerSeries]:
    """Series coefficients (A, B, C) of the quadratic A G^2 - B G + C = 0."""
    a_ser = _poly(n, 1, beta - gamma) * _poly(n, alpha, beta - alpha * gamma)
    b_ser = _poly(
        n,
        2 * alpha + beta,
        beta * (1 + alpha + gamma) - 2 * (alpha + beta) * gamma,
    )
    c_ser = _poly(n, alpha + beta)
    return a_ser, b_ser, c_ser


def _gamma_closed(order: int, alpha: Fraction, beta: Fraction,
                  gamma: Fraction) -> PowerSeries:
    """Expand the algebraic solution of the defining quadratic.

    The discriminant's constant term is beta^2, and the square root with
    value beta at z = 0 (ps_sqrt's root, negated when beta < 0) selects the
    solution with G(0) = 1.
    """
    n = order
    if beta == 0:
        # no weighted path ever leaves the ground: Gamma_n = gamma^n
        return PowerSeries(gamma ** k for k in range(n + 1))
    # one order more, so that a factor z can be cancelled when A(0) = 0
    a_ser, b_ser, c_ser = _gamma_quadratic(n + 1, alpha, beta, gamma)
    disc = b_ser * b_ser - (a_ser * c_ser).scale(4)
    root = ps_sqrt(disc)
    num = b_ser - root if beta > 0 else b_ser + root
    den = a_ser.scale(2)
    if alpha == 0:
        # A(0) = alpha = 0 and num(0) = B(0) - beta = 0: cancel one z
        num, den = num.shift_down(), den.shift_down()
    return (num / den).truncate(n)


def gamma_quadratic_residual(g: PowerSeries, alpha, beta, gamma) -> PowerSeries:
    """Plug a series into the defining quadratic; zero iff g solves it."""
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    n = g.order
    gp = g.pad(n + 1)
    a_ser, b_ser, c_ser = _gamma_quadratic(n + 1, alpha, beta, gamma)
    res = a_ser * gp * gp - b_ser * gp + c_ser
    return res.truncate(n)


def gamma_poly(n: int, alpha, beta, gamma) -> Fraction:
    """Gamma_n(alpha, beta, gamma) = sum over NCL(n) of alpha^dc beta^sc gamma^sg.

    The brute route: sums the tabulated statistics of the exhaustive
    enumeration (n <= NCL_SIZE_LIMIT).  The continued-fraction and closed
    routes give Gamma_n as ``gamma_series(n, ..., route=...)[n]``.
    """
    if n == 0:
        return Fraction(1)
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    return sum(
        (count * alpha ** dc * beta ** sc * gamma ** sg
         for (dc, sc, sg, _), count in ncl_table(n)),
        Fraction(0),
    )


# --------------------------------------------------------------------------
# Moment formulas
# --------------------------------------------------------------------------

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


def fbp_moment(a, b, n: int) -> Fraction:
    """n-th moment of the free beta prime law by the linked-partition sum.

    Evaluates :func:`moment_via_ncl` at the T-coefficients alpha_0 = s,
    alpha_k = t*u^k; this equals (su)^n * Gamma_n(t/s, t/(su), 1/u) with
    (s, t, u) from :func:`freebeta.distributions.fbp_t_params`.
    """
    alphas = t_coeffs_of(FreeBetaPrime(a, b), max(n - 1, 0))
    return moment_via_ncl(alphas, n)
