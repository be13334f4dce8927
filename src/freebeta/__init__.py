"""Computational free probability for the free beta prime family.

Moments of the free beta prime law (and its relatives: free F, free T,
free beta, free Poisson) are computed by three genuinely independent
routes — combinatorial sums over non-crossing linked partitions, series
expansion of the closed-form transforms, and truncated Fock-space operator
models — and the densities, score-function identities, Meixner
classification, and random-matrix limit are verified numerically.
"""

from . import analysis, distributions, fock, ncl, randmat, series, transforms
from .distributions import (
    Family,
    FreeBeta,
    FreeBetaPrime,
    FreeF,
    FreeMeixnerStd,
    FreePoisson,
    FreeT,
    InverseFreePoisson,
    MeasureSpec,
    cauchy_eval,
    measure_of,
    moment_series,
    support_of,
)
from .ncl import LinkedPartition, enumerate_ncl, fbp_moment, gamma_poly
from .series import PowerSeries
from .transforms import (
    MomentSequence,
    free_add_convolve,
    free_mult_convolve,
)

__version__ = "0.1.0"
