"""Non-crossing linked partitions and their moment combinatorics.

A linked partition of {1..n} is a collection of blocks covering every
element once or twice, pairwise non-crossing, and "nearly disjoint": two
blocks may share at most one element, and a shared element must be the
minimum of exactly one of the two blocks (that block then has size >= 2).

Enumeration is a block-recursive walk over the block that holds 1 and the
gaps it leaves (Dykema, Adv. Math. 208, 2007; Chen, Wu & Yan, European J.
Combin. 29, 2008).  The card model checks it from ``tests/test_ncl.py``:
every partition corresponds to a Motzkin path of length n decorated with
one admissible card per step, and expanding all paths yields each
partition exactly once.  The statistic triple (dc, sc, sg) — doubly
covered elements, singly covered minima of non-singleton blocks,
singletons — drives the generating polynomial Gamma_n.  A gap of the walk
fills alike wherever it sits, so ``gamma_poly`` sums the walk one gap
length at a time, at any n and without enumerating; ``gamma_series``
expands Gamma by two more independent routes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .distributions import fbp_t_params
from .errors import FreeBetaError, SizeLimitExceeded
from .series import PowerSeries, cf_expand
from .series import _poly, _quadratic_root, _truncation
from .transforms import _frac

__all__ = [
    "LinkedPartition",
    "NclStatistics",
    "level_weights",
    "validate_ncl",
    "enumerate_ncl",
    "statistics",
    "ncl_table",
    "doubly_covered_types",
    "gamma_poly",
    "gamma_series",
    "gamma_quadratic_residual",
    "fbp_moment",
    "NCL_SIZE_LIMIT",
]

# Largest n with an exhaustive NCL(n).  No route reads the enumeration, so
# this caps only it.  One enumerate-and-validate pass (``ncl_table``) takes
# ~0.4-0.6 s at n = 9 and ~2-3 s at n = 10 (Python 3.11, 2-vCPU x86_64,
# fresh processes); n = 11 has five times as many partitions, so ~5x the
# time (estimated, not run) and the memory to hold a million partitions.
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


def _canonical(n: int, blocks: tuple[tuple[int, ...], ...]) -> LinkedPartition:
    """A partition whose blocks are already canonical, built unchecked.

    For the enumerator, which emits sorted blocks in order of their minima;
    everything else goes through the canonicalizing constructor.
    """
    p = object.__new__(LinkedPartition)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "blocks", blocks)
    return p


def _sweep(p: LinkedPartition
           ) -> tuple[list, list, tuple[int, int, int]] | None:
    """``first``, ``inner`` (both indexed by element) and (dc, sc, sg).

    None when ``p`` is not a non-crossing linked partition.  Blocks are
    filed under their minima (``first``) and other elements under their
    blocks (``inner``), so a second opener or a second non-minimum holder
    fails before any walk over 1..n; an element with both is doubly
    covered.  The walk fails at an element nothing covers, and keeps the
    open blocks on a stack: the block holding x must be on top (it pops at
    its maximum), then a block opening at x is pushed.  It counts each
    opener once: with a host toward dc, host-free with more than one
    element toward sc, a host-free singleton toward sg.
    """
    n = p.n
    # fewer listed elements than n cannot cover 1..n; past this check the
    # tables are linear in the input, however large n is
    if sum(map(len, p.blocks)) < n:
        return None
    first: list = [None] * (n + 1)
    inner: list = [None] * (n + 1)
    for b in p.blocks:
        if first[b[0]] is not None:
            return None  # a second opener, or a duplicate block
        first[b[0]] = b
        for x in b[1:]:
            if inner[x] is not None:
                return None  # a second non-minimum holder
            inner[x] = b
    dc = sc = sg = 0
    stack: list[tuple[int, ...]] = [()]  # the sentinel is never a host
    for x in range(1, n + 1):
        block, host = first[x], inner[x]
        if host is None:
            if block is None:
                return None  # x is not covered
            if len(block) > 1:
                sc += 1
                stack.append(block)
            else:
                sg += 1
            continue
        if stack[-1] is not host:
            return None
        if x == host[-1]:
            stack.pop()
        if block is not None:
            if len(block) == 1:
                return None  # a shared singleton
            dc += 1
            stack.append(block)
    return first, inner, (dc, sc, sg)


def validate_ncl(p: LinkedPartition) -> bool:
    """Check all linked-partition invariants; False on any violation."""
    return _sweep(p) is not None


@lru_cache(maxsize=None)  # under 2 * NCL_SIZE_LIMIT**2 entries
def _openings(start: int, hi: int, least: int) -> tuple:
    """Blocks opening at ``start`` inside start..hi, with >= ``least`` members.

    In lexicographic order, each with the gaps it leaves, rightmost first:
    (b, c, linked) is to cover b+1..c, optionally starting with a linked
    block at b when ``linked`` (b is a non-minimum member).  A gap with no
    element inside has nothing to cover and no room for a linked block, so
    it is left out.
    """
    rest = range(start + 1, hi + 1)
    blocks = sorted((start,) + more for k in range(least - 1, len(rest) + 1)
                    for more in combinations(rest, k))
    out = []
    for block in blocks:
        gaps = [(block[-1], hi, len(block) > 1)] if block[-1] < hi else []
        for i in range(len(block) - 1, 0, -1):
            if block[i] - block[i - 1] > 1:
                gaps.append((block[i - 1], block[i] - 1, i > 1))
        out.append((block, tuple(gaps)))
    return tuple(out)


def _walk(n: int, out: list, blocks: list, todo: list) -> None:
    """Append to ``out`` every way to fill the gaps on ``todo``, in order."""
    if not todo:
        out.append(_canonical(n, tuple(blocks)))
        return
    gap = todo.pop()  # the leftmost
    b, hi, linked = gap
    depth = len(todo)
    # a linked block opens at b, so it sorts before any opening at b + 1
    for start, least in ((b, 2), (b + 1, 1)) if linked else ((b + 1, 1),):
        for block, gaps in _openings(start, hi, least):
            blocks.append(block)
            todo.extend(gaps)
            _walk(n, out, blocks, todo)
            del todo[depth:]
            blocks.pop()
    todo.append(gap)


def enumerate_ncl(n: int) -> list[LinkedPartition]:
    """All linked partitions of {1..n}, canonically ordered, duplicate-free.

    A block-recursive walk: the block that opens at the leftmost unfilled
    element is chosen in lexicographic order, then the gaps it leaves are
    filled left to right.  Blocks are appended as they open, in order of
    their minima, so each partition is canonical and the list comes out
    sorted by blocks.  The card model in ``tests/test_ncl.py`` is the check.
    """
    if n < 1:
        raise FreeBetaError(f"NCL(n) needs n >= 1, got n = {n}")
    if n > NCL_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"exhaustive enumeration capped at n = {NCL_SIZE_LIMIT}"
        )
    out: list[LinkedPartition] = []
    _walk(n, out, [], [(0, n, False)])
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
    multiplicity gives sum of block sizes = n + dc.  The public face of
    the sweep that :func:`ncl_table` reads directly.
    """
    swept = _sweep(p)
    if swept is None:
        raise FreeBetaError("not a non-crossing linked partition")
    return NclStatistics(*swept[2])


# --------------------------------------------------------------------------
# Per-n tables: NCL(n) enumerated once per process
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)  # at most NCL_SIZE_LIMIT entries
def ncl_table(n: int) -> tuple[tuple[tuple, int], ...]:
    """NCL(n) counted as immutable ``((dc, sc, sg, sizes), count)`` pairs.

    One pass over :func:`enumerate_ncl`; each partition goes through the
    validating sweep, so the triples come from the blocks and not from the
    walk, and a partition that fails it raises.  ``sizes`` are the sorted
    block sizes.  Only the counts are kept, never the partitions.
    """
    counts: Counter = Counter()
    for p in enumerate_ncl(n):
        swept = _sweep(p)
        if swept is None:
            raise FreeBetaError(
                f"NCL({n}) holds {p.blocks}, "
                "not a non-crossing linked partition")
        counts[(*swept[2], tuple(sorted(map(len, p.blocks))))] += 1
    return tuple(counts.items())


def doubly_covered_types(
    p: LinkedPartition,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the doubly covered elements by how they sit in the host block.

    A doubly covered element opens one block and belongs to another (the
    host).  It is *type one* when it is the maximum of the host and *type
    two* otherwise; type one corresponds to flat-step linked cards, type
    two to up-step linked cards in the card model (``tests/test_ncl.py``).
    """
    swept = _sweep(p)
    if swept is None:
        raise FreeBetaError("not a non-crossing linked partition")
    first, inner, _ = swept
    t1, t2 = [], []
    for x, (block, host) in enumerate(zip(first, inner)):
        if block is not None and host is not None:
            (t1 if x == host[-1] else t2).append(x)
    return tuple(t1), tuple(t2)


# --------------------------------------------------------------------------
# Jacobi weights, the Gamma generating polynomial and the fbp moments
# --------------------------------------------------------------------------

def level_weights(alpha, beta, gamma, levels: int
                  ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The (flat, up) Jacobi weights of levels 0..levels-1 for NCL statistics.

    Up steps carry beta from the ground and alpha + beta above (the extra
    alpha is the linked-opening card); flat steps carry gamma on the ground
    and 1 + alpha + gamma above (continue, singleton, or linked split); down
    steps carry 1, so ``up[i]`` is also the weight of a matched up/down pair
    between levels i and i+1.  Path sums with these weights generate the
    linked-partition statistics; the cards are those of the card model in
    ``tests/test_ncl.py``.
    """
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    flat = tuple(gamma if i == 0 else 1 + alpha + gamma for i in range(levels))
    up = tuple(beta if i == 0 else alpha + beta for i in range(levels - 1))
    return flat, up


def gamma_series(order: int, alpha, beta, gamma,
                 route: str = "cf") -> PowerSeries:
    """The generating series sum_n Gamma_n z^n by the cf or closed route.

    The closed route is the root with G(0) = 1 of the defining quadratic,
    whose term k is linear in Gamma_k with coefficient beta.
    """
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    if route == "cf":
        depth = _truncation(order) + 1
        return cf_expand(*level_weights(alpha, beta, gamma, depth), order)
    if route == "closed":
        if beta == 0:
            # no weighted path ever leaves the ground: Gamma_n = gamma^n
            return PowerSeries(gamma ** k for k in range(order + 1))
        return _quadratic_root(*_gamma_quadratic(alpha, beta, gamma), order)
    raise ValueError(f"unknown series route {route!r}")


def _gamma_quadratic(alpha: Fraction, beta: Fraction, gamma: Fraction
                     ) -> tuple[tuple, tuple, tuple]:
    """Coefficients, lowest first, of A, B, C in A G^2 - B G + C = 0."""
    u, v = beta - gamma, beta - alpha * gamma  # A = (1 + u z)(alpha + v z)
    return ((alpha, v + alpha * u, u * v),
            (2 * alpha + beta,
             beta * (1 + alpha + gamma) - 2 * (alpha + beta) * gamma),
            (alpha + beta,))


def gamma_quadratic_residual(g: PowerSeries, alpha, beta, gamma) -> PowerSeries:
    """Plug a series into the defining quadratic; zero iff g solves it."""
    alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
    n = g.order
    gp = g.pad(n + 1)
    a_ser, b_ser, c_ser = (_poly(n + 1, *c)
                           for c in _gamma_quadratic(alpha, beta, gamma))
    res = a_ser * gp * gp - b_ser * gp + c_ser
    return res.truncate(n)


def gamma_poly(n: int, alpha, beta, gamma) -> tuple[Fraction, ...]:
    """Gamma_0..Gamma_n; Gamma_k sums alpha^dc beta^sc gamma^sg over NCL(k).

    The walk of :func:`enumerate_ncl` summed bottom-up in O(n^2) products.
    A gap of L elements after x sums to free[L] when no linked block may
    open at x, to linked[L] when one may; a block at its minimum with more
    members to come sums to body[r], and one at a later member to chain[r],
    r the elements to its right.  With alpha, beta, gamma = a/D, b/D, c/D,
    the integers D^L free[L], D^L linked[L], D^L chain[L] and
    D^(r-1) body[r] are held instead.
    """
    if n < 0:
        raise FreeBetaError(f"Gamma_n needs n >= 0, got n = {n}")
    params = _frac(alpha), _frac(beta), _frac(gamma)
    den = lcm(*(x.denominator for x in params))
    a, b, c = (x.numerator * (den // x.denominator) for x in params)
    free, linked, chain, body = [1], [1], [1], [0]
    for k in range(1, n + 1):
        # x + 1 is a singleton or the minimum of a larger block
        free.append(c * free[k - 1] + b * den * body[k - 1])
        # its next member, at distance d, leaves a free inner gap
        body.append(sum(free[d - 1] * chain[k - d] for d in range(1, k + 1)))
        # or a linked block opens at x first
        linked.append(free[k] + a * body[k])
        # the block ends, leaving a linked tail, or goes on past a linked gap
        chain.append(linked[k] + den * sum(
            linked[d - 1] * chain[k - d] for d in range(1, k + 1)))
    return tuple(Fraction(x, den ** k) for k, x in enumerate(free))


def fbp_moment(a, b, n: int) -> tuple[Fraction, ...]:
    """m_0..m_n of the free beta prime law by the linked-partition sum.

    m_k sums alpha_0^{k - #blocks} prod_B alpha_{|B|-1} over NCL(k) at the
    T-coefficients alpha_0 = s, alpha_k = t*u^k, which is
    (su)^k * Gamma_k(t/s, t/(su), 1/u) for (s, t, u) from fbp_t_params.
    """
    s, t, u = fbp_t_params(a, b)
    c = s * u
    gammas = gamma_poly(n, t / s, t / c, 1 / u)
    return tuple(c ** k * g for k, g in enumerate(gammas))
