"""Numerical toolkit for pointwise convergence of trigonometric series.

The package builds piecewise-monotone functions on ``[-pi, pi]`` from a
small validated primitive set, forms their trigonometric series two
independent ways, and makes the classical convergence argument executable:
sign-block decompositions of oscillatory sine integrals, alternating-tail
bounds around ``pi/2``, high-frequency limits, jump-midpoint behaviour,
and a pair of probe series showing that term-ratio comparison cannot
decide convergence.
"""

from .counterexample import (KINDS, SeriesProbe, SeriesSummary,
                             divergence_witness, probe, summarize,
                             summarize_all)
from .errors import (CoverageError, DomainError, MonotonicityError,
                     QuadratureError, SpecSyntaxError, TrigconvError,
                     UnboundedError)
from .fourier import (FourierCoefficients, beta_split_points, coefficients,
                      convergence_report, partial_sum, partial_sum_kernel,
                      predicted_limit, split_integrals)
from .kernel import cosine_sum, dirichlet_kernel, kernel_mean
from .oscillatory import (AlternatingTail, ConvergenceReport,
                          SignBlockDecomposition, decompose, group_tail_bound,
                          limit_verify, sine_ratio, tail)
from .piecewise import (JumpPoint, MonotoneSegment, PiecewiseFunction,
                        load_spec, parse_spec)
from .quadrature import integrate, integrate_intervals

__version__ = "0.1.0"

__all__ = [
    "AlternatingTail",
    "ConvergenceReport",
    "CoverageError",
    "DomainError",
    "FourierCoefficients",
    "JumpPoint",
    "KINDS",
    "MonotoneSegment",
    "MonotonicityError",
    "PiecewiseFunction",
    "QuadratureError",
    "SeriesProbe",
    "SeriesSummary",
    "SignBlockDecomposition",
    "SpecSyntaxError",
    "TrigconvError",
    "UnboundedError",
    "beta_split_points",
    "coefficients",
    "convergence_report",
    "cosine_sum",
    "decompose",
    "dirichlet_kernel",
    "divergence_witness",
    "group_tail_bound",
    "integrate",
    "integrate_intervals",
    "kernel_mean",
    "limit_verify",
    "load_spec",
    "parse_spec",
    "partial_sum",
    "partial_sum_kernel",
    "predicted_limit",
    "probe",
    "sine_ratio",
    "split_integrals",
    "summarize",
    "summarize_all",
    "tail",
    "__version__",
]
