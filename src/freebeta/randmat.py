"""Monte Carlo check of the multivariate Fisher-matrix spectral limit.

For data dimensions p/n1 -> 1/a and p/n2 -> 1/b, the eigenvalues of
F = S1 S2^{-1} (two independent sample covariances) converge to the free F
law; this module samples such spectra reproducibly and measures the
Kolmogorov-Smirnov distance to the closed-form limit.  No data matrix is
drawn: the spectrum comes from the beta = 1 Jacobi matrix model, O(p)
Gamma variates and one tridiagonal eigensolve.

The RNG is Philox, a counter-based generator with a documented algorithm,
so seeds are portable; identical seeds give bit-identical spectra on one
platform (cross-platform agreement to ~1e-10 is a goal, not a guarantee,
since LAPACK builds differ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Family, FreeF, measure_of
from .errors import SizeLimitExceeded

__all__ = [
    "FisherSampleConfig",
    "sample_fisher_spectrum",
    "theoretical_cdf",
    "ks_distance",
    "histogram_rows",
    "median_ks",
]

# Trapezoid intervals of the theoretical CDF on the sin^2 grid.
_CDF_RESOLUTION = 4000

# Size guard of one sample.  Its cost is one dense p x p eigvalsh of the
# tridiagonal B B^T, O(p^3), and rests on p alone: in a fresh process
# p = 1000 at a = 2, b = 3 takes 0.11-0.12 s and 51 MB peak RSS, and
# p = 2000 0.56-0.89 s and 96-98 MB for any a and b tried up to a = 10^6,
# b = 1000 (2-vCPU x86_64); the cap admits p = 2000 there.
_MAX_P = 2000
# n1 and n2 set the Gamma shapes, up to (n1 + n2)/2.  numpy draws shape s as
# (s - 1/3)(1 + x / (3 sqrt s))^3, x normal, so it resolves the draw's
# spread in steps of ~7e-16 sqrt(s) standard deviations: ~2e-6 at this cap,
# and past s ~ 1e31 the draw is a constant.
_MAX_N = 2 ** 63 - 1


@dataclass(frozen=True)
class FisherSampleConfig:
    """Sampling plan: dimension p, target ratios a, b, and the RNG seed.

    The spectrum is that of two Gaussian sample covariances from p x n1 and
    p x n2 data matrices, n1 = round(a p) and n2 = round(b p).
    """

    p: int
    a: float
    b: float
    seed: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.a <= 0:
            raise ValueError("need a > 0")
        if self.n1 < 1:
            raise ValueError("need n1 = round(a * p) >= 1")
        if self.n2 <= self.p:
            raise ValueError("need n2 = round(b * p) > p")
        if self.n1 > _MAX_N:
            raise ValueError(f"need n1 = round(a * p) <= {_MAX_N}")
        if self.n2 > _MAX_N:
            raise ValueError(f"need n2 = round(b * p) <= {_MAX_N}")
        if self.p > _MAX_P:
            raise SizeLimitExceeded(f"need p <= {_MAX_P}")

    @property
    def n1(self) -> int:
        return round(self.a * self.p)

    @property
    def n2(self) -> int:
        return round(self.b * self.p)


def _jacobi_bidiagonal(rng: np.random.Generator, n: int, alpha: float,
                       beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of an n x n upper bidiagonal matrix B.

    This is the beta = 1 Jacobi matrix model (Edelman & Sutton, *Found.
    Comput. Math.* 8, 2008): the eigenvalues of B B^T are distributed as
    those of W1 (W1 + W2)^-1 for independent real Wishart matrices
    W1 ~ W_n(n + alpha, I) and W2 ~ W_n(n + beta, I).  With independent
    X_i ~ Gamma((alpha + i)/2), Y_i ~ Gamma((beta + i)/2) for i = n..1 and
    U_j ~ Gamma(j/2), V_j ~ Gamma((alpha + beta + 1 + j)/2) for j = n-1..1,
    c^2 = X/(X + Y), s^2 = Y/(X + Y), c'^2 = U/(U + V), s'^2 = V/(U + V),
    so neither a cosine nor a sine is a difference.  B has diagonal
    (c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal
    (-s_n c'_{n-1}, ..., -s_2 c'_1).  The shapes are float64: an integer
    alpha + beta + 1 + j would overflow numpy's int64 near the _MAX_N cap.
    """
    alpha, beta = float(alpha), float(beta)
    i = np.arange(n, 0, -1, dtype=float)
    j = i[1:]
    x = rng.standard_gamma((alpha + i) / 2)
    y = rng.standard_gamma((beta + i) / 2)
    u = rng.standard_gamma(j / 2)
    v = rng.standard_gamma((alpha + beta + 1 + j) / 2)
    c, s = np.sqrt(x / (x + y)), np.sqrt(y / (x + y))
    cp, sp = np.sqrt(u / (u + v)), np.sqrt(v / (u + v))
    return c * np.concatenate(([1.0], sp)), -s[:-1] * cp


def _gram_eigvalsh(diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Eigenvalues of B B^T, ascending, for B upper bidiagonal.

    B B^T is tridiagonal and is formed as a dense matrix for ``eigvalsh``.
    """
    k = np.arange(len(diag))
    t = np.zeros((len(diag), len(diag)))
    t[k, k] = diag * diag
    t[k[:-1], k[:-1]] += sup * sup
    t[k[1:], k[:-1]] = t[k[:-1], k[1:]] = sup * diag[1:]
    return np.linalg.eigvalsh(t)


def sample_fisher_spectrum(cfg: FisherSampleConfig) -> np.ndarray:
    """Eigenvalues of S1 S2^{-1}, ascending; deterministic given the seed.

    With A = n1 S1 and B = n2 S2, lambda = (n2/n1) mu / (1 - mu) for the
    eigenvalues mu of A (A + B)^-1, which have the real Jacobi (MANOVA) law
    (Muirhead, *Aspects of Multivariate Statistical Theory*, Thm 3.3.4).
    They are sampled by the bidiagonal model on one Philox stream keyed by
    the seed: O(p) Gamma variates and one p x p tridiagonal eigensolve.
    The smaller of n1 and n2 is put on the sampled side, so that 1 - mu
    does not cancel: when n1 > n2 the model samples nu = 1 - mu, the
    eigenvalues of B (A + B)^-1, and lambda = (n2/n1) (1 - nu) / nu.  When
    n1 < p, A has rank n1, and its p - n1 null directions give exact zeros.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    p, n1, n2 = cfg.p, cfg.n1, cfg.n2
    if n1 <= n2:
        n = min(p, n1)
        mu = _gram_eigvalsh(*_jacobi_bidiagonal(rng, n, abs(n1 - p), n2 - p))
        return np.concatenate((np.zeros(p - n), n2 / n1 * mu / (1 - mu)))
    mu = _gram_eigvalsh(*_jacobi_bidiagonal(rng, p, n2 - p, n1 - p))
    return np.sort(n2 / n1 * (1 - mu) / mu)


def theoretical_cdf(f: Family):
    """Callable CDF of the family: atoms + trapezoid-integrated density.

    The continuous part is accumulated on the sin^2 grid that absorbs the
    edge singularities, then interpolated.  ``cdf(x, left=True)`` is the
    left limit F(x-), which leaves out an atom at x.
    """
    spec = measure_of(f)
    lo, hi = spec.support
    width = hi - lo
    theta = np.linspace(0.0, np.pi / 2, _CDF_RESOLUTION + 1)
    xs = lo + width * np.sin(theta) ** 2
    # the density of Python floats is the same bits at half the cost
    integrand = np.array(
        [spec.density(x) for x in xs.tolist()]
    ) * width * np.sin(2 * theta)
    cont = np.concatenate(
        ([0.0], np.cumsum(np.diff(theta) * (integrand[1:] + integrand[:-1]) / 2))
    )

    atoms = sorted(spec.atoms)

    def cdf(x, left=False):
        x = np.asarray(x, dtype=float)
        base = np.interp(x, xs, cont, left=0.0, right=cont[-1])
        for loc, mass in atoms:
            base = base + mass * ((x > loc) if left else (x >= loc))
        return base

    return cdf


def _ks_to_cdf(eigs, cdf) -> float:
    """Two-sided sup distance between the empirical CDF and ``cdf``.

    Both CDFs are compared at each sample point x and just left of it,
    F_n(x) with F(x) and F_n(x-) with F(x-), so sample points repeated on an
    atom of the law are set against the atom's mass.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    n = len(eigs)
    if n == 0:
        raise ValueError("empty eigenvalue sample")
    at = np.searchsorted(eigs, eigs, "right") / n - cdf(eigs)
    before = np.searchsorted(eigs, eigs, "left") / n - cdf(eigs, left=True)
    return float(max(np.abs(at).max(), np.abs(before).max()))


def ks_distance(eigs, f: Family) -> float:
    """Two-sided sup distance between the empirical CDF and the family's."""
    return _ks_to_cdf(eigs, theoretical_cdf(f))


def histogram_rows(eigs, f: Family, bins: int):
    """(bin_left, bin_right, empirical_density, theoretical_density) rows."""
    eigs = np.asarray(eigs, dtype=float)
    counts, edges = np.histogram(eigs, bins=bins)
    widths = np.diff(edges)
    emp = counts / (len(eigs) * widths)
    spec = measure_of(f)
    mids = (edges[:-1] + edges[1:]) / 2
    theo = np.array([spec.density(x) for x in mids.tolist()])
    return [
        (float(edges[i]), float(edges[i + 1]), float(emp[i]), float(theo[i]))
        for i in range(bins)
    ]


def median_ks(p: int, a: float, b: float, seeds) -> float:
    """Median KS distance to FreeF(a, b) across seeds."""
    cdf = theoretical_cdf(FreeF(a, b))
    values = [
        _ks_to_cdf(sample_fisher_spectrum(
            FisherSampleConfig(p=p, a=a, b=b, seed=seed)), cdf)
        for seed in seeds
    ]
    return float(np.median(values))
