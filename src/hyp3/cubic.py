"""Real-root cubic and quadratic algebra.

Cores on the real coefficients of a monic cubic in the root variable, at one
time or pointwise on a time grid: sorted real roots via the trigonometric
three-real-root branch, the two discriminants, the derivative quadratic, and
root time-derivatives by implicit differentiation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import HyperbolicityViolation, NearMultipleRoot, _check_points
from .expr import Jet2, _libm

__all__ = [
    "CubicJet",
    "SortedRoots",
    "solve_cubic_real",
    "discriminant",
    "delta1",
]

#: tolerance band for weak hyperbolicity (relative to root_scale^degree, see _check_band)
HYPERBOLICITY_TOL = 1e-9

#: pairwise gaps must exceed this times (1 + spectral radius) for root jets
SIMPLE_ROOT_REL_GAP = 1e-6

#: root-index pairs and triples in cyclic order, for symmetric sums over
#: root gaps and Lagrange denominators
_SS2 = ((0, 1), (1, 2), (2, 0))
_SS3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(slots=True)
class CubicJet:
    """Monic real cubic r^3 + a1 r^2 + a2 r + a3 with time-jet coefficients
    (arrays of them on a time grid), for :func:`solve_cubic_real`,
    :func:`discriminant` and :func:`delta1`."""

    a1: Jet2
    a2: Jet2
    a3: Jet2


def _coeff_scale(a1, a2, a3):
    return 1.0 + np.maximum(np.maximum(abs(a1), abs(a2)), abs(a3))


def cubic_from_floats(a1: float, a2: float, a3: float) -> CubicJet:
    """Constant-in-time cubic (zero derivative jets)."""
    z = lambda x: Jet2(float(x), 0.0, 0.0, 0.0)
    return CubicJet(z(a1), z(a2), z(a3))


@dataclass(slots=True)
class SortedRoots:
    """Ascending real roots."""

    r: tuple[float, float, float]


def discriminant(c: CubicJet) -> float:
    """Product of squared pairwise root differences, from the coefficients;
    NaN at a point where a power leaves the double range, as on a grid it is
    not finite there."""
    return _discriminant(c.a1.v.real, c.a2.v.real, c.a3.v.real)


def _discriminant(a1, a2, a3):
    try:
        return (
            a1 * a1 * a2 * a2
            - 4.0 * a2 ** 3
            - 4.0 * a1 ** 3 * a3
            + 18.0 * a1 * a2 * a3
            - 27.0 * a3 * a3
        )
    except OverflowError:
        return math.nan


def delta1(c: CubicJet) -> float:
    """Sum of the three squared pairwise root differences: 2*(a1^2 - 3*a2)."""
    return _delta1(c.a1.v.real, c.a2.v.real)


def _delta1(a1, a2):
    return 2.0 * (a1 * a1 - 3.0 * a2)


def _check_band(a1, a2, a3, disc, degree: int, *where) -> None:
    """Raise :class:`HyperbolicityViolation` where ``disc`` (degree ``degree`` in the roots)
    is below ``-HYPERBOLICITY_TOL * root_scale**degree``, root_scale = 1 + max(|a1|, |a2|^(1/2),
    |a3|^(1/3)): the size of the roots, so the band scales with |xi| as ``disc`` does. Also
    where ``disc`` is not finite: a coefficient, or a power of one, left the double range, so
    no test can be made. A band past that range is inf, at a point as on a grid."""
    grid = isinstance(disc, np.ndarray)
    if ((0.0 <= disc) & (disc < math.inf)).all() if grid else 0.0 <= disc < math.inf:
        return
    big, sqrt = (np.maximum, np.sqrt) if grid else (max, math.sqrt)  # a grid rounds like its points
    scale = 1.0 + big(big(abs(a1), sqrt(abs(a2))), _libm(lambda x: x ** (1.0 / 3.0), abs(a3)))
    with np.errstate(over="ignore"):
        try:
            band = HYPERBOLICITY_TOL * scale ** degree
        except OverflowError:
            band = math.inf
    ok = np.isfinite(disc) & (disc >= -band) if grid else math.isfinite(disc) and disc >= -band
    _check_points(~ok if grid else not ok, HyperbolicityViolation, disc, *where)


def _signed_cbrt(q: float) -> float:
    return math.copysign(abs(q) ** (1.0 / 3.0), -q) if q != 0.0 else 0.0


#: the least positive normal double: a smaller 2pm in the trigonometric branch
#: has underflowed (see _underflowed_cos_arg)
_NORMAL_MIN = sys.float_info.min


def _underflowed_cos_arg(q: float, p: float, m: float) -> float:
    """The cosine argument 3q / (2pm) of the trigonometric branch where 2pm
    underflows (|p| below about 1e-205): 3q / (2p) / m, which stays in range as
    the roots' own scale m does; and 0 where m = sqrt(-p/3) underflows to 0 as
    well, where every root is -a1/3 whatever the angle. The same rule serves
    a point and each such grid point, and no other point meets it."""
    return 3.0 * q / (2.0 * p) / m if m > 0.0 else 0.0


def solve_cubic_real(c: CubicJet) -> SortedRoots:
    """All-real roots in ascending order, at one time or pointwise on a
    time grid (coefficient arrays give a (3, N) root array).

    Uses the trigonometric branch with the cosine argument clamped to
    [-1, 1]; weak hyperbolicity forces this branch, and the clamp resolves
    near-double and near-triple configurations without complex round trips.

    Raises :class:`HyperbolicityViolation` when the discriminant falls below
    the tolerance band of :func:`_check_band`, ``-HYPERBOLICITY_TOL * root_scale^6``.
    """
    a1, a2, a3 = c.a1.v.real, c.a2.v.real, c.a3.v.real
    if isinstance(a1, np.ndarray):
        return SortedRoots(_solve_cubic_grid(a1, a2, a3))
    return SortedRoots(tuple(_real_roots(a1, a2, a3)))


def _real_roots(a1: float, a2: float, a3: float) -> list[float]:
    """:func:`solve_cubic_real` at one time, on the real coefficients."""
    scale = 1.0 + max(abs(a1), abs(a2), abs(a3))
    if not 0.0 <= (disc := _discriminant(a1, a2, a3)) < math.inf:
        _check_band(a1, a2, a3, disc, 6)

    # depressed form y^3 + p y + q, roots shifted by -a1/3
    shift = a1 / 3.0
    p = a2 - a1 * a1 / 3.0
    q = a1 * (2.0 * a1 * a1 / 27.0 - a2 / 3.0) + a3
    if p >= 0.0:
        # hyperbolicity forces p <= 0 up to rounding: (near-)triple root
        r = _signed_cbrt(q) - shift
        roots = [r, r, r]
    else:
        m = math.sqrt(-p / 3.0)
        den = 2.0 * p * m
        cosarg = _underflowed_cos_arg(q, p, m) if abs(den) < _NORMAL_MIN else 3.0 * q / den
        cosarg = cosarg if cosarg < 1.0 else 1.0  # clamped to [-1, 1], a NaN to 1.0
        phi = math.acos(cosarg if cosarg > -1.0 else -1.0)
        m2 = 2.0 * m
        # k = 0, 1, 2 in turn: the sort is stable, and 0.0 and -0.0 compare equal
        roots = [m2 * math.cos(phi / 3.0) - shift,
                 m2 * math.cos((phi - 2.0 * math.pi) / 3.0) - shift,
                 m2 * math.cos((phi - 4.0 * math.pi) / 3.0) - shift]
        roots.sort()

    # one guarded Newton polish per root, away from multiple roots: the grid's
    # derivative and value, operation for operation
    two_a1, thr = 2.0 * a1, 1e-3 * scale
    polished = []
    for r in roots:
        dp = (3.0 * r + two_a1) * r + a2
        if abs(dp) > thr:
            v = ((r + a1) * r + a2) * r + a3
            r_new = r - v / dp
            if abs(((r_new + a1) * r_new + a2) * r_new + a3) <= abs(v):
                r = r_new
        polished.append(r)
    polished.sort()
    return polished


def _solve_cubic_grid(a1, a2, a3) -> np.ndarray:
    """:func:`_real_roots` at every point of a time grid, step for step: a (3, N) array."""
    scale = _coeff_scale(a1, a2, a3)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_band names an overflow
        _check_band(a1, a2, a3, _discriminant(a1, a2, a3), 6)

    shift = a1 / 3.0
    p = a2 - a1 * a1 / 3.0
    q = a1 * (2.0 * a1 * a1 / 27.0 - a2 / 3.0) + a3
    roots = np.empty((3, len(a1)))
    triple = p >= 0.0
    roots[:, triple] = _libm(_signed_cbrt, q[triple]) - shift[triple]
    trig = ~triple
    qt, pt = q[trig], p[trig]
    m = np.sqrt(-pt / 3.0)
    den = 2.0 * pt * m
    low = abs(den) < _NORMAL_MIN
    cosarg = 3.0 * qt / np.where(low, 1.0, den)
    cosarg[low] = [_underflowed_cos_arg(*x) for x in zip(qt[low].tolist(), pt[low].tolist(),
                                                          m[low].tolist())]
    phi = _libm(math.acos, np.clip(cosarg, -1.0, 1.0))
    roots[:, trig] = [2.0 * m * np.cos((phi - 2.0 * math.pi * k) / 3.0) - shift[trig]
                      for k in range(3)]
    roots.sort(axis=0)

    dp = (3.0 * roots + 2.0 * a1) * roots + a2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = ((roots + a1) * roots + a2) * roots + a3
        r_new = roots - v / dp
        keep = (abs(dp) > 1e-3 * scale) & (abs(((r_new + a1) * r_new + a2) * r_new + a3) <= abs(v))
    roots = np.where(keep, r_new, roots)
    roots.sort(axis=0)
    return roots


def _critical_points(a1, a2, a3):
    """Roots and discriminant data of d/dr of the cubic, 3r^2 + 2a1 r + a2:
    ``(s1, s2, 4a1^2 - 12a2, (s2 - s1)^2)`` with s1 <= s2, the gap from the
    discriminant (its ninth), at one time or pointwise on a time grid."""
    disc = 4.0 * a1 * a1 - 12.0 * a2
    grid = isinstance(disc, np.ndarray)
    if grid or not 0.0 <= disc < math.inf:
        _check_band(a1, a2, a3, disc, 2, "derivative quadratic")
    disc_c = np.maximum(disc, 0.0) if grid else max(disc, 0.0)
    half_gap = (np.sqrt(disc_c) if grid else math.sqrt(disc_c)) / 6.0
    center = -a1 / 3.0
    return center - half_gap, center + half_gap, disc, disc_c / 9.0


def _critical_jets(a1, a2, a3, b1, b2):
    """The derivative-quadratic roots ``(s1, s2)`` and their first time
    derivatives, from the time derivatives ``b1``, ``b2`` of a1, a2, by implicit
    differentiation of 3r^2 + 2a1 r + a2 = 0: only defined while the two roots
    are separated (they are, for regularized cubics)."""
    s1, s2, disc, _ = _critical_points(a1, a2, a3)
    two_a1, two_b1 = 2.0 * a1, 2.0 * b1
    out = []
    for s in (s1, s2):
        denom = 6.0 * s + two_a1
        thr = 1e-12 * (1.0 + abs(s))
        _check_points(abs(denom) < thr, NearMultipleRoot, abs(s2 - s1), thr)
        out.append(-(two_b1 * s + b2) / denom)
    return (s1, s2), tuple(out)


def _simple_root_gap(r):
    """Smallest gap of the ascending roots ``r`` and the simple-root
    threshold it must exceed for :func:`_root_dt` to be defined.
    ``r`` holds three floats, or three arrays (pointwise results); finite floats
    take plain ``max``/``min``, which differ from numpy's only on NaN."""
    r0, r1, r2 = r
    if isinstance(r0, float) and math.isfinite(r0 + r1 + r2):
        return min(r1 - r0, r2 - r1), SIMPLE_ROOT_REL_GAP * (1.0 + max(abs(r0), abs(r1), abs(r2)))
    rstar = 1.0 + np.maximum(np.maximum(abs(r0), abs(r1)), abs(r2))
    return np.minimum(r1 - r0, r2 - r1), SIMPLE_ROOT_REL_GAP * rstar


def _root_dt(a1, a2, b1, b2, b3, e1, e2, e3, roots):
    """First and second time derivatives ``(d1, d2)`` of the simple roots
    ``roots`` of the cubic by implicit differentiation, from the first (b) and
    second (e) time derivatives of its coefficients: d1 = -L_t / L_r and
    d2 = psi / L_r^3 with psi = 2 L_tr L_t L_r - L_rr L_t^2 - L_tt L_r^2 (L_t and
    L_tt at the frozen root variable). Works pointwise on arrays."""
    two_a1, two_b1 = 2.0 * a1, 2.0 * b1
    d1, d2 = [], []
    for r in roots:
        l_r = (3.0 * r + two_a1) * r + a2
        l_t = (b1 * r + b2) * r + b3
        l_tt = (e1 * r + e2) * r + e3
        l_tr, l_rr = two_b1 * r + b2, 6.0 * r + two_a1
        psi = 2.0 * l_tr * l_t * l_r - l_rr * l_t * l_t - l_tt * l_r * l_r
        d1.append(-l_t / l_r)
        # l_r * l_r * l_r, not l_r ** 3: numpy's array power is not libm's pow,
        # and a grid must round exactly like its points
        d2.append(psi / (l_r * l_r * l_r))
    return tuple(d1), tuple(d2)
