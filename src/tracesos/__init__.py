"""Exact sum-of-squares certificates for trace-power coefficients.

The package constructs, over the rationals, the certificate decompositions
of the coefficient of t^r in trace((A+tB)^m) for symmetric A, B at
(m, r) = (4, 2) for every n, and at (8, 4) with diagonal A, verifies them
term-for-term against two independent oracles, certifies positive
semidefiniteness exactly, and exports feasibility problems for hunting
new certificates.
"""

from .poly import Polynomial, var
from .necklace import Necklace, TraceProblem

__all__ = [
    "Necklace",
    "Polynomial",
    "TraceProblem",
    "var",
]

__version__ = "0.1.0"
