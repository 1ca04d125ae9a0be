"""Numerical toolkit for third-order weakly hyperbolic operators with
time-dependent coefficients: logarithmic/Levi condition evaluation, operator
factorization identities, energy weights, and Fourier-mode growth experiments.
"""

from .expr import Jet2, TimeFn, parse_timefn
from .operators import Operator2, Operator3

__version__ = "0.1.0"

__all__ = [
    "Jet2",
    "TimeFn",
    "Operator2",
    "Operator3",
    "parse_timefn",
    "__version__",
]
