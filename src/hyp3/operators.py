"""Third-order operator model and every derived symbol.

An operator is a coefficient table ``(j, alpha) -> TimeFn`` for the terms
``a_{j,alpha}(t) d_t^j d_x^alpha`` with ``j <= 2``, ``j + |alpha| <= 3`` and
an implicit monic ``d_t^3``. Symbols are stored in the real-monomial
convention (``xi^alpha`` real); the ``i^|alpha|`` Fourier factor is applied
once at mode-equation assembly (see :mod:`hyp3.modes`), which keeps the
principal cubic real as its root structure requires.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cubic import CubicJet, derivative_quadratic, quad_root_jets, root_jets, solve_cubic_real
from .errors import (ExprDomainError, HyperbolicityViolation, NearMultipleRoot,
                     OperatorSpecError, _clip, locate)
from .expr import Jet2, TimeFn

__all__ = [
    "Operator3",
    "Operator2",
    "TauPoly",
    "Symbols",
    "symbol_grid",
    "measure_separation",
]

_NAN = float("nan")

#: time samples of the validation grid on [0, horizon]
VALIDATION_T_SAMPLES = 256


# --------------------------------------------------------------------------
# Symbols as polynomials in the root variable with time-jet coefficients


@dataclass(slots=True)
class TauPoly:
    """Polynomial in the root variable, coefficients ascending, each a time
    jet. With array jets (a :func:`symbol_grid`) every method works
    pointwise."""

    coeffs: tuple[Jet2, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def values(self) -> tuple[complex, ...]:
        return tuple(c.v for c in self.coeffs)

    def at(self, tau: complex) -> tuple[complex, complex, complex]:
        """Value, time derivative and tau-derivative at ``tau``."""
        v = dt = dtau = 0.0
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            v = v * tau + c.v
            dt = dt * tau + c.d1
            if k >= 1:
                dtau = dtau * tau + k * c.v
        return v, dt, dtau

    def value_at(self, tau: complex) -> complex:
        v = 0.0
        for c in reversed(self.coeffs):
            v = v * tau + c.v
        return v

    def divide_linear(self, r: float) -> tuple[tuple[complex, ...], complex]:
        """Synthetic division of the value polynomial by (tau - r):
        returns (quotient coefficients ascending, remainder)."""
        vals = self.values()
        q: list[complex] = [0.0] * self.degree()
        acc = vals[-1]
        for k in range(self.degree() - 1, -1, -1):
            q[k] = acc
            acc = vals[k] + r * acc
        return tuple(q), acc


def regularized_cubic(c: CubicJet, e2: float) -> CubicJet:
    """Coefficient jets of the shifted cubic L - e2 * d_tau^2 L."""
    a1, a2, a3, s = c.a1, c.a2, c.a3, 2.0 * e2
    return CubicJet(a1, Jet2(a2.v + -6.0 * e2, a2.d1, a2.d2, a2.d3), Jet2(
        a3.v - s * a1.v, a3.d1 - s * a1.d1, a3.d2 - s * a1.d2, a3.d3 - s * a1.d3))


def _corrected(c: CubicJet, m: TauPoly, n: TauPoly) -> tuple[TauPoly, TauPoly]:
    """The order-2 symbol minus half the mixed (t, tau) derivative of the
    principal symbol, and the order-1 symbol corrected by the order-2 and
    principal drifts. Each jet is shifted to the jet of its time derivative;
    the second derivative of a1 would need a fourth-order jet and is never
    consumed, so the d2 of the corrected order-1 constant is NaN."""
    a1, a2 = c.a1, c.a2
    (m0, m1, m2), (n0, n1) = m.coeffs, n.coeffs
    sixth = 1.0 / 6.0
    mc = TauPoly((Jet2(m0.v - 0.5 * a2.d1, m0.d1 - 0.5 * a2.d2, m0.d2 - 0.5 * a2.d3),
                  Jet2(m1.v - a1.d1, m1.d1 - a1.d2, m1.d2 - a1.d3), m2))
    nc = TauPoly((Jet2(n0.v - 0.5 * m1.d1 + sixth * a1.d2,
                       n0.d1 - 0.5 * m1.d2 + sixth * a1.d3,
                       n0.d2 - 0.5 * m1.d3 + sixth * _NAN),
                  Jet2(n1.v - m2.d1, n1.d1 - m2.d2, n1.d2 - m2.d3)))
    return mc, nc


def _weight_overflow(xi) -> OperatorSpecError:
    return OperatorSpecError(f"frequency weight xi^alpha overflows the double range, at xi={xi}")


def _unit_regularized(c: CubicJet):
    """The unit-regularized cubic L - d_tau^2 L (eps |xi| = 1), its roots
    with their first two time derivatives, and its critical points with
    their first: ``(reg, lam, lam_d1, lam_d2, mu, mu_d1)``. Pairwise gaps
    are bounded below uniformly in (t, xi)."""
    reg = regularized_cubic(c, 1.0)
    lam = solve_cubic_real(reg)
    return (reg, lam.r) + root_jets(reg, lam) + quad_root_jets(reg)


# --------------------------------------------------------------------------
# Operator model


@dataclass(frozen=True)
class _Table:
    """A monic operator as its coefficient table; immutable after construction,
    and every evaluation is pure, so (t, xi) grids may be processed concurrently.

    Every symbol is a view of one walk over the table (:meth:`_sums`). A
    subclass names the slots (j, |alpha|) each view reads (``_VIEWS``), the jet
    order of a term by its total order j + |alpha| (``_JET_ORDER``), and the
    least total order whose coefficients must be real (``_REAL_FROM``)."""

    name: str
    dim: int
    horizon: float
    coeffs: Mapping[tuple[int, tuple[int, ...]], TimeFn]

    def __post_init__(self):
        max_order = len(self._JET_ORDER) - 1
        if self.dim < 1:
            raise OperatorSpecError("dimension must be >= 1")
        if not 0 < self.horizon < math.inf:
            raise OperatorSpecError("time horizon must be finite and positive")
        # each view's terms in table order: (slot, coefficient, the nonzero
        # (axis, power) pairs of alpha, jet order)
        walks = {name: [] for name in self._VIEWS}
        for key, fn in self.coeffs.items():
            try:
                j, alpha = key
            except (TypeError, ValueError):
                raise OperatorSpecError(f"bad coefficient key {_clip(repr(key))}")
            if not isinstance(fn, TimeFn):
                raise OperatorSpecError(f"coefficient {_clip(repr(key))} is not a TimeFn")
            if len(alpha) != self.dim or any((not isinstance(a, int)) or a < 0 for a in alpha):
                raise OperatorSpecError(f"bad multi-index {_clip(repr(alpha))} "
                                        f"for dimension {_clip(self.dim)}")
            if not (0 <= j < max_order):
                raise OperatorSpecError(f"time order {_clip(j)} out of range in {_clip(repr(key))}")
            if j + (k := sum(alpha)) > max_order:
                raise OperatorSpecError(f"total order of {_clip(repr(key))} exceeds {max_order}")
            powers = tuple((i, a) for i, a in enumerate(alpha) if a)
            for name, slots in self._VIEWS.items():
                if (j, k) in slots:
                    walks[name].append((slots.index((j, k)), fn, powers, self._JET_ORDER[j + k]))
        object.__setattr__(self, "_walks", {name: tuple(w) for name, w in walks.items()})
        for (j, alpha), fn in self.coeffs.items():
            if j + sum(alpha) >= self._REAL_FROM and fn.has_imag:
                raise OperatorSpecError(self._NOT_REAL.format(j=j, alpha=_clip(alpha)))

    _kept = None  # the jets a :meth:`_keeping_jets` copy keeps

    def is_constant(self) -> bool:
        return all(fn.is_constant for fn in self.coeffs.values())

    def _keeping_jets(self) -> "_Table":
        """A copy that keeps each jet :meth:`_sums` evaluates at one time, for
        as long as the copy lives: one ladder, whose cells meet the same times."""
        kept = copy.copy(self)
        object.__setattr__(kept, "_kept", {})
        return kept

    def _sums(self, view: str, t, xi: np.ndarray) -> list[Jet2]:
        """For each slot (j, |alpha|) of ``view``, the jet of the sum of
        a_{j,alpha}(t) xi^alpha, at one time or on a time grid: each sum starts
        from the zero jet of ``t`` (zero arrays on a grid, so that a sum of
        constant coefficients still has one entry per time) and adds its terms
        in table order, leaving out a term whose weight xi^alpha is zero. A
        weight past the double range is an input error. A :meth:`_keeping_jets`
        copy evaluates a term at a time (-0.0 apart from 0.0, as sin(-0.0) is
        -0.0) once it succeeds, and then serves its jet."""
        grid = isinstance(t, np.ndarray)
        z = np.zeros_like(t) if grid else 0.0
        acc = [Jet2(z, z, z, z)] * len(self._VIEWS[view])
        xs = np.asarray(xi, dtype=float).tolist()
        walk = self._walks[view]
        kept = [None] * len(walk) if grid or self._kept is None else self._kept.setdefault(
            (view, t, math.copysign(1.0, t)), [None] * len(walk))
        for n, (slot, fn, powers, order) in enumerate(walk):
            w = 1.0
            try:
                for i, a in powers:
                    w *= xs[i] ** a
            except OverflowError:
                w = math.inf
            if not math.isfinite(w):
                raise _weight_overflow(xi)
            if w != 0.0:
                if (jet := kept[n]) is None:
                    jet = kept[n] = fn.jet2(t, order)
                v, d1, d2, d3 = jet.v, jet.d1, jet.d2, jet.d3
                if powers:
                    v, d1, d2, d3 = w * v, w * d1, w * d2, None if d3 is None else w * d3
                s = acc[slot]
                acc[slot] = Jet2(s.v + v, s.d1 + d1, s.d2 + d2,
                                 None if s.d3 is None or d3 is None else s.d3 + d3)
        return acc


class Operator3(_Table):
    """Third-order operator with time-dependent coefficients: j <= 2 and
    j + |alpha| <= 3, monic in d_t^3."""

    _VIEWS = {"principal": ((2, 1), (1, 2), (0, 3)),
              "lower": ((0, 2), (1, 1), (2, 0), (0, 1), (1, 0), (0, 0))}
    # the order-2 and principal jets carry d3: the corrections shift them
    _JET_ORDER = (2, 2, 3, 3)
    _REAL_FROM = 3
    _NOT_REAL = "principal-part coefficient a[{j},{alpha}] must be real-valued"

    def principal(self, t, xi: np.ndarray) -> CubicJet:
        """Coefficient jets (a1, a2, a3) of the monic principal cubic, at one
        time or on a time grid; a_k multiplies the (3-k)-th power of the
        root variable."""
        return CubicJet(*self._sums("principal", t, xi))

    def lower_polys(self, t, xi: np.ndarray) -> tuple[TauPoly, TauPoly, Jet2]:
        """(order-2 symbol, order-1 symbol, zeroth coefficient jet), at one
        time or on a time grid."""
        m0, m1, m2, n0, n1, p = self._sums("lower", t, xi)
        return TauPoly((m0, m1, m2)), TauPoly((n0, n1)), p


# --------------------------------------------------------------------------
# Symbols on a time grid


@dataclass(slots=True)
class Symbols:
    """Every symbol the diagnostics read, at one frequency: at one time
    (scalar fields) or on a time grid (:func:`symbol_grid`: array fields,
    root fields of shape (k, N))."""

    t: float
    c: CubicJet          # principal cubic
    m: TauPoly           # order-2 symbol
    n: TauPoly           # order-1 symbol
    p: Jet2              # zeroth-order coefficient
    mc: TauPoly          # corrected order-2 symbol
    nc: TauPoly          # corrected order-1 symbol
    reg: CubicJet        # unit-regularized cubic
    tau: tuple           # sorted roots of c
    crit: tuple          # critical points s1 <= s2 of c
    crit_gap_sq: float   # (s2 - s1)^2, from the derivative discriminant
    lam: tuple           # sorted roots of reg and their first two time derivatives
    lam_d1: tuple
    lam_d2: tuple
    mu: tuple            # critical points of reg and their first time derivatives
    mu_d1: tuple


def _symbols_at(op: Operator3, t, xi: np.ndarray) -> Symbols:
    """The symbols at one time, or pointwise on a time-grid array: each
    coefficient jet is evaluated once, and the principal, lower, corrected
    and root data all derive from it. A numerical or domain failure names
    the point it happened at; on a grid, the first failing time."""
    try:
        c = op.principal(t, xi)
        m, n, p = op.lower_polys(t, xi)
        mc, nc = _corrected(c, m, n)
        # the plain cubic first: a non-hyperbolic time reports its discriminant
        tau = solve_cubic_real(c).r
        reg, lam, lam_d1, lam_d2, mu, mu_d1 = _unit_regularized(c)
        s1, s2, _, gap_sq = derivative_quadratic(c)
    except (HyperbolicityViolation, NearMultipleRoot, ExprDomainError) as exc:
        # a grid runs each step at every time before the next step, so the
        # failed step need not be the one that fails first in time
        locate(exc, t, xi, lambda tk: _symbols_at(op, tk, xi))
        raise
    return Symbols(t, c, m, n, p, mc, nc, reg, tau, (s1, s2), gap_sq,
                   lam, lam_d1, lam_d2, mu, mu_d1)


def symbol_grid(op: Operator3, ts, xi: np.ndarray) -> Symbols:
    """The symbols at every time of ``ts`` at frequency ``xi``: one
    :func:`_symbols_at` call on the time array, its root data stacked into
    (k, N) arrays."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise ValueError("symbol_grid needs at least one time")
    s = _symbols_at(op, ts, xi)
    for name in ("tau", "crit", "lam", "lam_d1", "lam_d2", "mu", "mu_d1"):
        setattr(s, name, np.array(getattr(s, name)))
    return s


# --------------------------------------------------------------------------
# Second-order operator model (for the dedicated second-order check)


class Operator2(_Table):
    """Monic second-order operator, same coefficient-table layout with
    j <= 1 and j + |alpha| <= 2."""

    _VIEWS = {"parts": ((1, 1), (0, 2), (1, 0), (0, 1), (0, 0))}
    _JET_ORDER = (2, 2, 2)
    _REAL_FROM = 0
    _NOT_REAL = "second-order model coefficients must be real"

    def symbol_parts(self, t, xi: np.ndarray):
        """Jets of (a, b, c0, c, d): principal tau-coefficient a(t, xi),
        principal constant b(t, xi), and the lower-order groups."""
        return tuple(self._sums("parts", t, xi))


# --------------------------------------------------------------------------
# Validation-grid helpers


def measure_separation(op: Operator3, ladder: Sequence[float],
                       nt: int = VALIDATION_T_SAMPLES):
    """Per-|xi| minimum pairwise gap of the unit-regularized roots and
    maximum shift from the plain roots (the empirical separation constants),
    along the diagonal direction."""
    d = np.ones(op.dim) / math.sqrt(op.dim)
    ts = np.linspace(0.0, op.horizon, nt)
    rows = []
    for mag in ladder:
        g = symbol_grid(op, ts, mag * d)
        rows.append({"xi": mag, "min_gap": float(np.min(np.diff(g.lam, axis=0))),
                     "max_shift": float(np.max(np.abs(g.lam - g.tau)))})
    return rows
