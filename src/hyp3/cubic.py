"""Real-root cubic and quadratic algebra.

Monic cubics in the root variable whose coefficients carry time jets:
sorted real roots via the trigonometric three-real-root branch, the two
discriminants, the derivative quadratic, and root time-derivatives by
implicit differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HyperbolicityViolation, NearMultipleRoot
from .expr import Jet2

__all__ = [
    "CubicJet",
    "SortedRoots",
    "RootJet",
    "solve_cubic_real",
    "discriminant",
    "delta1",
    "derivative_quadratic",
    "root_jets",
]

#: tolerance band for weak hyperbolicity (relative to scale^4)
HYPERBOLICITY_TOL = 1e-9

#: pairwise gaps must exceed this times (1 + spectral radius) for root jets
SIMPLE_ROOT_REL_GAP = 1e-6

#: root-index pairs and triples in cyclic order, for symmetric sums over
#: root gaps and Lagrange denominators
_SS2 = ((0, 1), (1, 2), (2, 0))
_SS3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class CubicJet:
    """Monic real cubic r^3 + a1 r^2 + a2 r + a3 with time-jet coefficients.

    The jets may hold arrays (one entry per grid point, see
    :func:`hyp3.operators.symbol_grid`); every method then works pointwise.
    """

    a1: Jet2
    a2: Jet2
    a3: Jet2

    def coeff_scale(self) -> float:
        return 1.0 + np.maximum(np.maximum(abs(self.a1.v), abs(self.a2.v)), abs(self.a3.v))

    def value(self, r: float) -> float:
        return ((r + self.a1.v.real) * r + self.a2.v.real) * r + self.a3.v.real

    def dtau(self, r: float) -> float:
        return (3.0 * r + 2.0 * self.a1.v.real) * r + self.a2.v.real

    def dt(self, r: float) -> float:
        """Time derivative of the cubic at frozen root variable."""
        return (self.a1.d1.real * r + self.a2.d1.real) * r + self.a3.d1.real

    def dtt(self, r: float) -> float:
        return (self.a1.d2.real * r + self.a2.d2.real) * r + self.a3.d2.real


def cubic_from_floats(a1: float, a2: float, a3: float) -> CubicJet:
    """Constant-in-time cubic (zero derivative jets)."""
    z = lambda x: Jet2(float(x), 0.0, 0.0, 0.0)
    return CubicJet(z(a1), z(a2), z(a3))


@dataclass(frozen=True)
class SortedRoots:
    """Ascending real roots."""

    r: tuple[float, float, float]


@dataclass(frozen=True)
class RootJet:
    roots: SortedRoots
    d1: tuple[float, float, float]
    d2: tuple[float, float, float]


def discriminant(c: CubicJet) -> float:
    """Product of squared pairwise root differences, from the coefficients."""
    a1 = c.a1.v.real
    a2 = c.a2.v.real
    a3 = c.a3.v.real
    return (
        a1 * a1 * a2 * a2
        - 4.0 * a2 ** 3
        - 4.0 * a1 ** 3 * a3
        + 18.0 * a1 * a2 * a3
        - 27.0 * a3 * a3
    )


def discriminant_dt(c: CubicJet) -> float:
    """Time derivative of :func:`discriminant` via the coefficient jets."""
    a1, a2, a3 = c.a1.v.real, c.a2.v.real, c.a3.v.real
    d1, d2, d3 = c.a1.d1.real, c.a2.d1.real, c.a3.d1.real
    g1 = 2.0 * a1 * a2 * a2 - 12.0 * a1 * a1 * a3 + 18.0 * a2 * a3
    g2 = 2.0 * a1 * a1 * a2 - 12.0 * a2 * a2 + 18.0 * a1 * a3
    g3 = -4.0 * a1 ** 3 + 18.0 * a1 * a2 - 54.0 * a3
    return g1 * d1 + g2 * d2 + g3 * d3


def delta1(c: CubicJet) -> float:
    """Sum of the three squared pairwise root differences: 2*(a1^2 - 3*a2)."""
    a1 = c.a1.v.real
    a2 = c.a2.v.real
    return 2.0 * (a1 * a1 - 3.0 * a2)


def delta1_dt(c: CubicJet) -> float:
    return 4.0 * c.a1.v.real * c.a1.d1.real - 6.0 * c.a2.d1.real


def solve_cubic_real(c: CubicJet) -> SortedRoots:
    """All-real roots in ascending order.

    Uses the trigonometric branch with the cosine argument clamped to
    [-1, 1]; weak hyperbolicity forces this branch, and the clamp resolves
    near-double and near-triple configurations without complex round trips.

    Raises :class:`HyperbolicityViolation` when the discriminant falls below
    ``-HYPERBOLICITY_TOL * scale^4`` (scale = 1 + max |coefficient|).
    """
    a1 = c.a1.v.real
    a2 = c.a2.v.real
    a3 = c.a3.v.real
    scale = 1.0 + max(abs(a1), abs(a2), abs(a3))
    disc = discriminant(c)
    if disc < -HYPERBOLICITY_TOL * scale ** 4:
        raise HyperbolicityViolation(disc)

    # depressed form y^3 + p y + q, roots shifted by -a1/3
    shift = a1 / 3.0
    p = a2 - a1 * a1 / 3.0
    q = a1 * (2.0 * a1 * a1 / 27.0 - a2 / 3.0) + a3
    if p >= 0.0:
        # hyperbolicity forces p <= 0 up to rounding: (near-)triple root
        y = math.copysign(abs(q) ** (1.0 / 3.0), -q) if q != 0.0 else 0.0
        roots = sorted((y - shift, y - shift, y - shift))
    else:
        m = math.sqrt(-p / 3.0)
        cosarg = 3.0 * q / (2.0 * p * m)
        cosarg = max(-1.0, min(1.0, cosarg))
        phi = math.acos(cosarg)
        roots = sorted(2.0 * m * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift
                       for k in range(3))

    # one guarded Newton polish per root, away from multiple roots
    polished = []
    for r in roots:
        dp = c.dtau(r)
        if abs(dp) > 1e-3 * scale:
            r_new = r - c.value(r) / dp
            if abs(c.value(r_new)) <= abs(c.value(r)):
                r = r_new
        polished.append(r)
    polished.sort()
    return SortedRoots((polished[0], polished[1], polished[2]))


def derivative_quadratic(c: CubicJet):
    """Roots and discriminant data of d/dr of the cubic: 3r^2 + 2a1 r + a2.

    Returns ``(s1, s2, disc_b2_4ac, gap_sq)`` with s1 <= s2,
    ``disc_b2_4ac = 4a1^2 - 12a2`` and ``gap_sq = (s2-s1)^2 = disc/9``.
    """
    a1 = c.a1.v.real
    a2 = c.a2.v.real
    scale = 1.0 + max(abs(a1), abs(a2), abs(c.a3.v.real))
    disc = 4.0 * a1 * a1 - 12.0 * a2
    if disc < -HYPERBOLICITY_TOL * scale ** 2:
        raise HyperbolicityViolation(disc, "derivative quadratic")
    disc_c = max(disc, 0.0)
    half_gap = math.sqrt(disc_c) / 6.0
    center = -a1 / 3.0
    return center - half_gap, center + half_gap, disc, disc_c / 9.0


def quad_root_jets(c: CubicJet):
    """Derivative-quadratic roots with first time derivatives.

    Implicit differentiation of 3r^2 + 2a1 r + a2 = 0; requires the two
    roots to be separated (they are, for regularized cubics).
    """
    s1, s2, disc, _ = derivative_quadratic(c)
    out = []
    for s in (s1, s2):
        denom = 6.0 * s + 2.0 * c.a1.v.real
        if abs(denom) < 1e-12 * (1.0 + abs(s)):
            raise NearMultipleRoot(abs(s2 - s1), 1e-12 * (1.0 + abs(s)))
        num = 2.0 * c.a1.d1.real * s + c.a2.d1.real
        out.append(-num / denom)
    return (s1, s2), (out[0], out[1])


def _simple_root_gap(r):
    """Smallest gap of the ascending roots ``r`` and the simple-root
    threshold it must exceed for :func:`_root_derivatives` to be defined.
    ``r`` holds three floats, or three arrays (pointwise results)."""
    rstar = 1.0 + np.maximum(np.maximum(abs(r[0]), abs(r[1])), abs(r[2]))
    return np.minimum(r[1] - r[0], r[2] - r[1]), SIMPLE_ROOT_REL_GAP * rstar


def _root_derivatives(c: CubicJet, r):
    """First and second time derivatives of the simple root ``r`` of ``c``
    by implicit differentiation: d1 = -L_t / L_r and d2 = psi / L_r^3 with
    psi = 2 L_tr L_t L_r - L_rr L_t^2 - L_tt L_r^2, every coefficient
    derivative drawn from the stored jets. Works pointwise on arrays."""
    l_r = c.dtau(r)
    l_t = c.dt(r)
    l_tt = c.dtt(r)
    l_tr = 2.0 * c.a1.d1.real * r + c.a2.d1.real
    l_rr = 6.0 * r + 2.0 * c.a1.v.real
    psi = 2.0 * l_tr * l_t * l_r - l_rr * l_t * l_t - l_tt * l_r * l_r
    return -l_t / l_r, psi / l_r ** 3


def root_jets(c: CubicJet, roots: SortedRoots) -> RootJet:
    """First and second root time-derivatives (:func:`_root_derivatives`);
    only defined while all pairwise gaps exceed the simple-root threshold."""
    gap, thr = _simple_root_gap(roots.r)
    if gap <= thr:
        raise NearMultipleRoot(float(gap), float(thr))
    d1, d2 = zip(*(_root_derivatives(c, r) for r in roots.r))
    return RootJet(roots, d1, d2)
