"""Third-order operator model and every derived symbol.

An operator is a coefficient table ``(j, alpha) -> TimeFn`` for the terms
``a_{j,alpha}(t) d_t^j d_x^alpha`` with ``j <= 2``, ``j + |alpha| <= 3`` and
an implicit monic ``d_t^3``. Symbols are stored in the real-monomial
convention (``xi^alpha`` real); the ``i^|alpha|`` Fourier factor is applied
once at mode-equation assembly (see :mod:`hyp3.modes`), which keeps the
principal cubic real as its root structure requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cubic import CubicJet, derivative_quadratic, quad_root_jets, root_jets, solve_cubic_real
from .errors import (ExprDomainError, HyperbolicityViolation, NearMultipleRoot,
                     OperatorSpecError, locate)
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


def _zero_jet(t) -> Jet2:
    """The zero jet at one time, or on the time grid ``t`` (zero arrays, so
    that a sum of constant coefficients still has one entry per time)."""
    z = np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0
    return Jet2(z, z, z, z)


def _xi_pow(xi: np.ndarray, alpha: tuple[int, ...]) -> float:
    out = 1.0
    for x, a in zip(xi.tolist(), alpha):
        if a:
            out *= float(x) ** a
    return out


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

    def along_root(self, r: float, r_d1: float) -> tuple[complex, complex]:
        """Value and total time derivative of t -> S(t, r(t))."""
        v, dt, dtau = self.at(r)
        return v, dt + dtau * r_d1

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


def _shift2_weak(j: Jet2) -> Jet2:
    """Jet of the second time derivative; its own second derivative would
    need a fourth-order jet and is never consumed, so it is NaN."""
    return Jet2(j.d2, j.d3 if j.d3 is not None else _NAN, _NAN, None)


def regularized_cubic(c: CubicJet, e2: float) -> CubicJet:
    """Coefficient jets of the shifted cubic L - e2 * d_tau^2 L."""
    return CubicJet(c.a1, c.a2.plus_const(-6.0 * e2), c.a3 - c.a1.scaled(2.0 * e2))


def _corrected(c: CubicJet, m: TauPoly, n: TauPoly) -> tuple[TauPoly, TauPoly]:
    """The order-2 symbol minus half the mixed (t, tau) derivative of the
    principal symbol, and the order-1 symbol corrected by the order-2 and
    principal drifts."""
    mc = TauPoly((m.coeffs[0] - c.a2.shifted().scaled(0.5),
                  m.coeffs[1] - c.a1.shifted(), m.coeffs[2]))
    nc = TauPoly((n.coeffs[0] - m.coeffs[1].shifted().scaled(0.5)
                  + _shift2_weak(c.a1).scaled(1.0 / 6.0),
                  n.coeffs[1] - m.coeffs[2].shifted()))
    return mc, nc


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


def _check_spec(op, max_order: int, max_dt: int):
    """Shared validation of an operator's dimension, horizon and table."""
    if op.dim < 1:
        raise OperatorSpecError("dimension must be >= 1")
    if not 0 < op.horizon < math.inf:
        raise OperatorSpecError("time horizon must be finite and positive")
    for key, fn in op.coeffs.items():
        try:
            j, alpha = key
        except (TypeError, ValueError):
            raise OperatorSpecError(f"bad coefficient key {key!r}")
        if not isinstance(fn, TimeFn):
            raise OperatorSpecError(f"coefficient {key!r} is not a TimeFn")
        if len(alpha) != op.dim or any((not isinstance(a, int)) or a < 0 for a in alpha):
            raise OperatorSpecError(f"bad multi-index {alpha!r} for dimension {op.dim}")
        if not (0 <= j <= max_dt):
            raise OperatorSpecError(f"time order {j} out of range in {key!r}")
        if j + sum(alpha) > max_order:
            raise OperatorSpecError(f"total order of {key!r} exceeds {max_order}")


@dataclass(frozen=True)
class Operator3:
    """Third-order operator with time-dependent coefficients.

    Immutable after construction; every evaluation is pure, so (t, xi)
    grids may be processed concurrently.
    """

    name: str
    dim: int
    horizon: float
    coeffs: Mapping[tuple[int, tuple[int, ...]], TimeFn]

    def __post_init__(self):
        _check_spec(self, 3, 2)
        for (j, alpha), fn in self.coeffs.items():
            if j + sum(alpha) == 3 and fn.has_imag:
                raise OperatorSpecError(
                    f"principal-part coefficient a[{j},{alpha}] must be real-valued")

    def is_constant(self) -> bool:
        return all(fn.is_constant for fn in self.coeffs.values())

    # -- principal symbol ---------------------------------------------------

    def principal(self, t, xi: np.ndarray) -> CubicJet:
        """Coefficient jets (a1, a2, a3) of the monic principal cubic, at one
        time or on a time grid; a_k multiplies the (3-k)-th power of the
        root variable."""
        acc = [_zero_jet(t)] * 3
        for (j, alpha), fn in self.coeffs.items():
            k = sum(alpha)
            if j + k != 3:
                continue
            w = _xi_pow(xi, alpha)
            if w == 0.0:
                continue
            jet = fn.jet2(t, order=3)
            acc[k - 1] = acc[k - 1] + jet.scaled(w)  # k = 3 - j
        return CubicJet(acc[0], acc[1], acc[2])

    # -- lower-order symbols -------------------------------------------------

    def lower_polys(self, t, xi: np.ndarray) -> tuple[TauPoly, TauPoly, Jet2]:
        """(order-2 symbol, order-1 symbol, zeroth coefficient jet), at one
        time or on a time grid."""
        zero = _zero_jet(t)
        m = [zero] * 3
        n = [zero] * 2
        p = zero
        for (j, alpha), fn in self.coeffs.items():
            k = sum(alpha)
            tot = j + k
            if tot == 3:
                continue
            w = _xi_pow(xi, alpha)
            if tot == 2:
                if w != 0.0:
                    m[j] = m[j] + fn.jet2(t, order=3).scaled(w)
            elif tot == 1:
                if w != 0.0:
                    n[j] = n[j] + fn.jet2(t, order=2).scaled(w)
            else:
                p = p + fn.jet2(t, order=2)
        return TauPoly(tuple(m)), TauPoly(tuple(n)), p


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


@dataclass(frozen=True)
class Operator2:
    """Monic second-order operator, same coefficient-table layout with
    j <= 1 and j + |alpha| <= 2."""

    name: str
    dim: int
    horizon: float
    coeffs: Mapping[tuple[int, tuple[int, ...]], TimeFn]

    def __post_init__(self):
        _check_spec(self, 2, 1)
        for (j, alpha), fn in self.coeffs.items():
            if fn.has_imag:
                raise OperatorSpecError("second-order model coefficients must be real")

    def symbol_parts(self, t: float, xi: np.ndarray):
        """Jets of (a, b, c0, c, d): principal tau-coefficient a(t, xi),
        principal constant b(t, xi), and the lower-order groups."""
        zero = Jet2(0.0, 0.0, 0.0, 0.0)
        a = b = c0 = cc = d = zero
        for (j, alpha), fn in self.coeffs.items():
            k = sum(alpha)
            w = _xi_pow(xi, alpha)
            jet = fn.jet2(t, order=2)
            if j == 1 and k == 1:
                a = a + jet.scaled(w)
            elif j == 0 and k == 2:
                b = b + jet.scaled(w)
            elif j == 1 and k == 0:
                c0 = c0 + jet
            elif j == 0 and k == 1:
                cc = cc + jet.scaled(w)
            else:
                d = d + jet
        return a, b, c0, cc, d


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
