"""Tests for the Fisher-matrix Monte Carlo and KS comparison machinery."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from freebeta import randmat
from freebeta.distributions import (
    FreeF,
    FreePoisson,
    measure_of,
    moment_series,
)
from freebeta.errors import SizeLimitExceeded
from freebeta.randmat import (
    FisherSampleConfig,
    _gram_eigvalsh,
    _jacobi_bidiagonal,
    histogram_rows,
    ks_distance,
    median_ks,
    sample_fisher_spectrum,
    theoretical_cdf,
)
from freebeta.verification import _KS_GATE


class TestConfig:
    def test_dimension_ratios(self):
        cfg = FisherSampleConfig(p=500, a=2, b=3, seed=0)
        assert cfg.n1 == 1000 and cfg.n2 == 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            FisherSampleConfig(p=0, a=2, b=3, seed=0)
        with pytest.raises(ValueError):
            FisherSampleConfig(p=10, a=2, b=1, seed=0)
        with pytest.raises(ValueError):  # b > 1 but n2 = round(10.1) = p
            FisherSampleConfig(p=10, a=2, b=1.01, seed=0)

    # a sample draws O(p) Gamma variates and solves one p x p tridiagonal
    # eigenproblem: n1 and n2 add no cost, so any ratio is admitted up to
    # the largest p
    @pytest.mark.parametrize("p,a,b", [(1000, 2, 3), (500, 2, 3),
                                       (2, 5000, 5000), (2000, 2, 3),
                                       (1000, 1000000, 3), (2000, 2, 3.01),
                                       (2000, 2, 40), (2000, 50, 3)])
    def test_size_guard_admits_sizes_in_use(self, p, a, b):
        FisherSampleConfig(p=p, a=a, b=b, seed=0)

    @pytest.mark.parametrize("p,a,b", [(2001, 2, 3), (10**12, 2, 3)])
    def test_size_guard_rejects_oversized_samples(self, p, a, b):
        with pytest.raises(SizeLimitExceeded):
            FisherSampleConfig(p=p, a=a, b=b, seed=0)

    @pytest.mark.parametrize("a", [0, -1, 0.01])
    def test_rejects_empty_first_sample(self, a):
        # a <= 0, or n1 = round(a * p) = 0, would draw no usable samples
        with pytest.raises(ValueError):
            FisherSampleConfig(p=10, a=a, b=3, seed=0)


class TestSampling:
    def test_deterministic_given_seed(self):
        cfg = FisherSampleConfig(p=40, a=2, b=3, seed=123)
        first = sample_fisher_spectrum(cfg)
        second = sample_fisher_spectrum(cfg)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = sample_fisher_spectrum(FisherSampleConfig(p=40, a=2, b=3, seed=1))
        b = sample_fisher_spectrum(FisherSampleConfig(p=40, a=2, b=3, seed=2))
        assert not np.array_equal(a, b)

    def test_eigenvalues_real_positive_sorted(self):
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=60, a=2, b=3, seed=5)
        )
        assert eigs.dtype.kind == "f"
        assert len(eigs) == 60
        assert (eigs > 0).all()
        assert (np.diff(eigs) >= 0).all()

    def test_small_p_large_n_concentrates(self):
        """With p=2 and huge n both covariances are near identity."""
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=2, a=5000, b=5000, seed=9)
        )
        assert np.allclose(eigs, 1.0, atol=0.2)

    @pytest.mark.parametrize("p,a,b", [(2, 4.6e18, 4.6e18), (10, 9e17, 3),
                                       (10, 2, 9e17)])
    def test_extreme_ratios_give_finite_positive_sorted_spectra(self, p, a,
                                                                  b):
        # Gamma shapes up to (n1 + n2)/2 ~ 2^63, past an int64 sum
        eigs = sample_fisher_spectrum(FisherSampleConfig(p=p, a=a, b=b,
                                                         seed=0))
        assert len(eigs) == p
        assert np.isfinite(eigs).all() and (eigs > 0).all()
        assert (np.diff(eigs) >= 0).all()


def _dense_spectrum(cfg):
    """Sorted eigenvalues of S1 inv(S2) from two full Gaussian data matrices.

    The reference: the data matrices drawn in full on Philox key seed, and a
    general eigensolver on the explicit product.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    x1 = rng.standard_normal((cfg.p, cfg.n1))
    x2 = rng.standard_normal((cfg.p, cfg.n2))
    s1 = (x1 @ x1.T) / cfg.n1
    s2 = (x2 @ x2.T) / cfg.n2
    return np.sort(np.linalg.eigvals(s1 @ np.linalg.inv(s2)).real)


class TestEigensolver:
    def test_matches_dense_eigenvalues(self):
        """eigvalsh of the tridiagonal B B^T against the SVD of B itself."""
        rng = np.random.Generator(np.random.Philox(key=7))
        for n, alpha, beta in ((40, 40, 80), (40, 80, 40), (40, 0, 80)):
            diag, sup = _jacobi_bidiagonal(rng, n, alpha, beta)
            dense = np.diag(diag) + np.diag(sup, 1)
            want = np.sort(np.linalg.svd(dense, compute_uv=False) ** 2)
            got = _gram_eigvalsh(diag, sup)
            assert np.max(np.abs(got - want) / want) <= 1e-10


_LAW_P, _LAW_SEEDS = 8, range(4000)


@functools.cache
def _law_sample(sampler, a, b):
    """Spectra at p = 8 over seeds 0..3999, one row per seed."""
    return np.array([
        sampler(FisherSampleConfig(p=_LAW_P, a=a, b=b, seed=seed))
        for seed in _LAW_SEEDS])


def _within_4_se(values, exact):
    se = values.std(ddof=1) / math.sqrt(len(values))
    return abs(values.mean() - exact) <= 4 * se


def _digamma_half(k):
    """psi(k / 2) for a positive integer k, by the recurrence from 1 or 1/2."""
    euler = 0.5772156649015329
    m = k // 2
    if k % 2 == 0:
        return -euler + sum(1 / j for j in range(1, m))
    return -euler - 2 * math.log(2) + sum(2 / (2 * j - 1)
                                          for j in range(1, m + 1))


def _mean_square_trace(p, n1, n2):
    """E[tr F^2] / p, exact, for F = S1 inv(S2) at p, n1, n2.

    With V = inv(W2), W2 ~ W_p(n2, I), and E[W B W] = n(n+1) B + n tr(B) I
    for W ~ W_p(n, I): E tr F^2 = (n2/n1)^2 [n1(n1+1) E tr V^2 +
    n1 E (tr V)^2].  The inverse Wishart moments, with m = n2 and
    D = (m-p)(m-p-1)^2(m-p-3), are E tr V^2 = p/(m-p-1)^2 +
    [2p(m-p) + p(p-1)(m-p-1)]/D and E (tr V)^2 = p^2/(m-p-1)^2 +
    [2p(m-p) + 2p(p-1)]/D.
    """
    m = n2
    d = (m - p) * (m - p - 1) ** 2 * (m - p - 3)
    tr_v2 = (Fraction(p, (m - p - 1) ** 2)
             + Fraction(2 * p * (m - p) + p * (p - 1) * (m - p - 1), d))
    tr_v_sq = (Fraction(p * p, (m - p - 1) ** 2)
               + Fraction(2 * p * (m - p) + 2 * p * (p - 1), d))
    return (Fraction(n2, n1) ** 2
            * (n1 * (n1 + 1) * tr_v2 + n1 * tr_v_sq) / p)


def test_mean_square_trace_values():
    # p = 8 at (a, b) = (2, 3), (1/2, 3), (3, 2), and the free limit at
    # (2p, 3p): m_2(FreeF(2, 3)) = 9/2
    assert [_mean_square_trace(8, 16, 24), _mean_square_trace(8, 4, 24),
            _mean_square_trace(8, 24, 16)] == [
        Fraction(303, 52), Fraction(687, 65), Fraction(340, 21)]
    p = 10 ** 6
    limit = moment_series(FreeF(2, 3), 2)[2]
    assert abs(_mean_square_trace(p, 2 * p, 3 * p) - limit) < 10 / p


# (a, b) at p = 8, keyed by a alone where b = 3: both orientations of the
# sampler (n1 <= n2 and n1 > n2) and a rank-deficient S1 (n1 < p)
_LAW_AB = [pytest.param(2, 3, id="2"), pytest.param(0.5, 3, id="0.5"),
           pytest.param(3, 2, id="3-2")]


@pytest.mark.parametrize("sampler", [sample_fisher_spectrum, _dense_spectrum],
                         ids=["jacobi", "dense"])
class TestFiniteSampleLaw:
    """Exact finite-p laws of the spectrum, for the sampler and the oracle."""

    @pytest.mark.parametrize("a,b", _LAW_AB)
    def test_mean_trace(self, sampler, a, b):
        # E[S1] = I and E[S2^-1] = n2/(n2 - p - 1) I, independent
        n2 = round(b * _LAW_P)
        tr = _law_sample(sampler, a, b).mean(axis=1)
        assert _within_4_se(tr, n2 / (n2 - _LAW_P - 1))

    @pytest.mark.parametrize("a,b", _LAW_AB)
    def test_mean_square_trace(self, sampler, a, b):
        cfg = FisherSampleConfig(p=_LAW_P, a=a, b=b, seed=0)
        tr2 = (_law_sample(sampler, a, b) ** 2).mean(axis=1)
        assert _within_4_se(tr2, float(_mean_square_trace(_LAW_P, cfg.n1,
                                                          cfg.n2)))

    def test_mean_log_determinant(self, sampler):
        # det(X X^T) is a product of independent chi^2 with n, ..., n - p + 1
        # degrees of freedom, and E[log chi^2_k] = psi(k/2) + log 2
        for a, b in ((2, 3), (3, 2)):
            cfg = FisherSampleConfig(p=_LAW_P, a=a, b=b, seed=0)
            exact = _LAW_P * math.log(cfg.n2 / cfg.n1) + sum(
                _digamma_half(cfg.n1 - i) - _digamma_half(cfg.n2 - i)
                for i in range(_LAW_P))
            logdet = np.log(_law_sample(sampler, a, b)).sum(axis=1)
            assert _within_4_se(logdet, exact)

    def test_rank_deficient_first_sample(self, sampler):
        # n1 = 4 < p = 8: S1 has rank n1, so p - n1 eigenvalues vanish
        eigs = _law_sample(sampler, 0.5, 3)[:50]
        assert np.abs(eigs[:, :4]).max() <= 1e-10
        assert eigs[:, 4:].min() > 1e-3


class TestTheoreticalCdf:
    def test_monotone_zero_to_one(self):
        cdf = theoretical_cdf(FreeF(2, 3))
        xs = np.linspace(-1, 12, 400)
        vals = cdf(xs)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)
        assert (np.diff(vals) >= -1e-12).all()

    @pytest.mark.parametrize("a, b", [(2, 3), (Fraction(1, 2), 3),
                                      (2, 40), (40, 2)])
    def test_density_of_python_floats_has_the_numpy_scalars_bits(self, a,
                                                                 b):
        # the CDF and the histogram evaluate the density over tolist()
        spec = measure_of(FreeF(a, b))
        lo, hi = spec.support
        xs = np.linspace(lo - 1, hi + 1, 2001)
        assert np.array_equal([spec.density(x) for x in xs],
                              [spec.density(x) for x in xs.tolist()])

    def test_atom_jump(self):
        cdf = theoretical_cdf(FreePoisson(0.5))
        assert cdf(-1e-9) == 0.0
        assert cdf(1e-9) >= 0.5

    def test_ks_null_against_inverse_sampling(self):
        """Sampling from the law itself gives a small KS distance."""
        fam = FreeF(2, 3)
        cdf = theoretical_cdf(fam)
        lo, hi = 0.0, 12.0
        grid = np.linspace(lo, hi, 20001)
        cv = cdf(grid)
        rng = np.random.Generator(np.random.Philox(key=(7, 0)))
        u = rng.uniform(cv[0], cv[-1], size=4000)
        draws = np.interp(u, cv, grid)
        assert ks_distance(draws, fam) < 0.03


class TestKsDistance:
    def test_reference_monte_carlo(self):
        cfg = FisherSampleConfig(p=500, a=2, b=3, seed=42)
        eigs = sample_fisher_spectrum(cfg)
        assert ks_distance(eigs, FreeF(2, 3)) < 0.08

    def test_calibrated_gate_catches_wrong_ratio(self):
        """Sampling at a = 2.2, not 2, passes KS < 0.08 but not the gate."""
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=500, a=2.2, b=3, seed=42)
        )
        assert _KS_GATE < ks_distance(eigs, FreeF(2, 3)) < 0.08

    def test_atom_is_matched_by_repeated_points(self):
        """n/2 zeros on FreePoisson(1/2)'s atom, then quantiles of the rest."""
        n = 1000
        fam = FreePoisson(Fraction(1, 2))
        lo, hi = measure_of(fam).support
        grid = np.linspace(lo, hi, 20001)
        cont = np.interp((n / 2 + np.arange(n // 2) + 0.5) / n,
                         theoretical_cdf(fam)(grid), grid)
        draws = np.concatenate((np.zeros(n // 2), cont))
        assert ks_distance(draws, fam) <= 1 / n

    def test_median_with_an_atom_under_the_gate(self):
        # FreeF(1/2, 3) has mass 1/2 at 0: the p - n1 exact zeros
        assert median_ks(500, 0.5, 3, range(4)) < _KS_GATE

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), FreeF(2, 3))

    def test_convergence_trend(self):
        """Median KS over several seeds shrinks as p grows."""
        seeds = range(5)
        values = [median_ks(p, 2, 3, seeds) for p in (100, 250, 500)]
        assert values[0] > values[-1]
        assert values[-1] < 0.05

    def test_median_matches_per_seed_values(self):
        """median_ks is the median of the per-seed KS distances."""
        seeds = [4, 11, 23]
        sequential = [
            ks_distance(sample_fisher_spectrum(
                FisherSampleConfig(p=80, a=2, b=3, seed=s)), FreeF(2, 3))
            for s in seeds
        ]
        assert median_ks(80, 2, 3, seeds) == float(np.median(sequential))

    def test_median_builds_the_cdf_once(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return theoretical_cdf(f)

        monkeypatch.setattr(randmat, "theoretical_cdf", counted)
        median_ks(40, 2, 3, [1, 2, 3])
        assert len(calls) == 1

    def test_gross_mismatch_detected(self):
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=200, a=2, b=3, seed=3)
        )
        assert ks_distance(5.0 * eigs + 10.0, FreeF(2, 3)) > 0.5


class TestHistogram:
    def test_rows_shape_and_mass(self):
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=300, a=2, b=3, seed=8)
        )
        rows = histogram_rows(eigs, FreeF(2, 3), bins=30)
        assert len(rows) == 30
        mass = sum((r[1] - r[0]) * r[2] for r in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)
        # empirical and theoretical densities should be broadly close
        mid_rows = rows[5:25]
        for left, right, emp, theo in mid_rows:
            assert abs(emp - theo) < 0.25
