"""Monte Carlo check of the multivariate Fisher-matrix spectral limit.

For data dimensions p/n1 -> 1/a and p/n2 -> 1/b, the eigenvalues of
F = S1 S2^{-1} (two independent sample covariances) converge to the free F
law; this module samples such spectra reproducibly and measures the
Kolmogorov-Smirnov distance to the closed-form limit.

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

# Size guard of one sample.  Its Bartlett factors are p x min(p, n), so the
# cost rests on p alone: in a fresh process p = 1000 at a = 2, b = 3 takes
# 0.23-0.34 s and 81 MB peak RSS, and p = 2000 1.3-1.7 s and 202 MB for any
# a and b tried up to a = 50, b = 1000 (2-vCPU x86_64); the cap admits
# p = 2000 there.
_MAX_P = 2000
# numpy draws the chi^2 degrees of freedom, up to n1 and n2, as a C long.
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


# Diagonal blocks of at most this size are inverted directly.
_TRIL_BLOCK = 128


def _tril_inv(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, by recursive 2x2 blocking.

    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]: the off-diagonal
    block is two matmuls, so no general LU runs on the full matrix.
    """
    n = len(low)
    if n <= _TRIL_BLOCK:
        return np.linalg.inv(low)
    k = n // 2
    a_inv = _tril_inv(low[:k, :k])
    d_inv = _tril_inv(low[k:, k:])
    out = np.zeros_like(low)
    out[:k, :k] = a_inv
    out[k:, k:] = d_inv
    out[k:, :k] = -d_inv @ (low[k:, :k] @ a_inv)
    return out


def _bartlett_factor(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """Lower factor C, p x min(p, n), with C C^T distributed as X X^T.

    X is p x n with independent N(0, 1) entries.  Bartlett's decomposition
    (Muirhead, *Aspects of Multivariate Statistical Theory*, Thm 3.2.14):
    diagonal entry i (from 1) is chi with n - i + 1 degrees of freedom and
    the entries below the diagonal are N(0, 1).
    """
    k = min(p, n)
    c = np.tril(rng.standard_normal((p, k)), -1)
    c[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(n - np.arange(k)))
    return c


def sample_fisher_spectrum(cfg: FisherSampleConfig) -> np.ndarray:
    """Eigenvalues of S1 S2^{-1}, ascending; deterministic given the seed.

    S1 = C1 C1^T / n1 and S2 = L2 L2^T / n2 come from Bartlett factors
    drawn on one Philox stream keyed by the seed, with the law of two
    Gaussian sample covariances.  The eigenvalues are those of the symmetric
    Y Y^T, Y = (L2 / sqrt(n2))^-1 (C1 / sqrt(n1)), so all come out real; L2
    has a chi diagonal, so it is never singular.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    c1 = _bartlett_factor(rng, cfg.p, cfg.n1)
    l2 = _bartlett_factor(rng, cfg.p, cfg.n2)
    y = _tril_inv(l2) @ (c1 * np.sqrt(cfg.n2 / cfg.n1))
    return np.linalg.eigvalsh(y @ y.T)


def theoretical_cdf(f: Family):
    """Callable CDF of the family: atoms + trapezoid-integrated density.

    The continuous part is accumulated on the sin^2 grid that absorbs the
    edge singularities, then interpolated.
    """
    spec = measure_of(f)
    lo, hi = spec.support
    width = hi - lo
    theta = np.linspace(0.0, np.pi / 2, _CDF_RESOLUTION + 1)
    xs = lo + width * np.sin(theta) ** 2
    integrand = np.array(
        [spec.density(x) for x in xs]
    ) * width * np.sin(2 * theta)
    cont = np.concatenate(
        ([0.0], np.cumsum(np.diff(theta) * (integrand[1:] + integrand[:-1]) / 2))
    )

    atoms = sorted(spec.atoms)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        base = np.interp(x, xs, cont, left=0.0, right=cont[-1])
        for loc, mass in atoms:
            base = base + mass * (x >= loc)
        return base

    return cdf


def _ks_to_cdf(eigs, cdf) -> float:
    """Two-sided sup distance between the empirical CDF and ``cdf``."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    n = len(eigs)
    if n == 0:
        raise ValueError("empty eigenvalue sample")
    theo = cdf(eigs)
    upper = np.arange(1, n + 1) / n - theo
    lower = theo - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


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
    theo = np.array([spec.density(x) for x in mids])
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
