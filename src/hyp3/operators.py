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

from .cubic import (HYPERBOLICITY_TOL, CubicJet, derivative_quadratic, discriminant,
                    quad_root_jets, root_jets, solve_cubic_real)
from .errors import ExprDomainError, HyperbolicityViolation, NearMultipleRoot, OperatorSpecError
from .expr import Jet2, TimeFn

__all__ = [
    "Operator3",
    "Operator2",
    "TauPoly",
    "SymbolJet",
    "Symbols",
    "symbol_grid",
    "hyperbolicity_scan",
    "measure_separation",
]

_NAN = float("nan")

#: time samples of the validation grid on [0, horizon]
VALIDATION_T_SAMPLES = 256


def _xi_pow(xi: np.ndarray, alpha: tuple[int, ...]) -> float:
    out = 1.0
    for x, a in zip(xi, alpha):
        if a:
            out *= float(x) ** a
    return out


# --------------------------------------------------------------------------
# Symbols as polynomials in the root variable with time-jet coefficients


@dataclass(frozen=True)
class SymbolJet:
    """A symbol frozen at one (t, tau, xi): value plus the derivatives the
    condition integrands consume."""

    value: complex
    d_t: complex
    d_tau: complex


@dataclass(frozen=True)
class TauPoly:
    """Polynomial in the root variable, coefficients ascending, each a time
    jet. With array jets (a :func:`symbol_grid`) every method works
    pointwise."""

    coeffs: tuple[Jet2, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def values(self) -> tuple[complex, ...]:
        return tuple(c.v for c in self.coeffs)

    def at(self, tau: complex) -> SymbolJet:
        v = dt = dtau = 0.0
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            v = v * tau + c.v
            dt = dt * tau + c.d1
            if k >= 1:
                dtau = dtau * tau + k * c.v
        return SymbolJet(v, dt, dtau)

    def value_at(self, tau: complex) -> complex:
        v = 0.0
        for k in range(self.degree(), -1, -1):
            v = v * tau + self.coeffs[k].v
        return v

    def along_root(self, r: float, r_d1: float) -> tuple[complex, complex]:
        """Value and total time derivative of t -> S(t, r(t))."""
        s = self.at(r)
        return s.value, s.d_t + s.d_tau * r_d1

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
    """The unit-regularized cubic L - d_tau^2 L (eps |xi| = 1), the jets of
    its roots, and its critical points with their first time derivatives.
    Pairwise gaps are bounded below uniformly in (t, xi)."""
    reg = regularized_cubic(c, 1.0)
    lam = root_jets(reg, solve_cubic_real(reg))
    mu, mu_d1 = quad_root_jets(reg)
    return reg, lam, mu, mu_d1


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

    def principal(self, t: float, xi: np.ndarray) -> CubicJet:
        """Coefficient jets (a1, a2, a3) of the monic principal cubic;
        a_k multiplies the (3-k)-th power of the root variable."""
        acc = [Jet2(0.0, 0.0, 0.0, 0.0)] * 3
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

    def lower_polys(self, t: float, xi: np.ndarray) -> tuple[TauPoly, TauPoly, Jet2]:
        """(order-2 symbol, order-1 symbol, zeroth coefficient jet)."""
        m = [Jet2(0.0, 0.0, 0.0, 0.0)] * 3
        n = [Jet2(0.0, 0.0, 0.0, 0.0)] * 2
        p = Jet2(0.0, 0.0, 0.0, 0.0)
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


@dataclass
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


def _symbols_at(op: Operator3, t: float, xi: np.ndarray) -> Symbols:
    """The symbols at one time: each coefficient jet is evaluated once, and
    the principal, lower, corrected and root data all derive from it. A
    numerical or domain failure names the point it happened at."""
    try:
        c = op.principal(t, xi)
        m, n, p = op.lower_polys(t, xi)
        mc, nc = _corrected(c, m, n)
        reg, lam, mu, mu_d1 = _unit_regularized(c)
        tau = solve_cubic_real(c).r
        s1, s2, _, gap_sq = derivative_quadratic(c)
    except (HyperbolicityViolation, NearMultipleRoot, ExprDomainError) as exc:
        exc.args = (f"{exc}, at t={t:.6g}, xi={xi}",)
        raise
    return Symbols(t, c, m, n, p, mc, nc, reg, tau, (s1, s2), gap_sq,
                   lam.roots.r, lam.d1, lam.d2, mu, mu_d1)


def _column(s: Symbols) -> list:
    """The scalars of one point's symbols, in :class:`Symbols` field order
    (each jet as value, d1, d2); :func:`_stacked` reads them back."""
    jets = (s.c.a1, s.c.a2, s.c.a3, *s.m.coeffs, *s.n.coeffs, s.p, *s.mc.coeffs,
            *s.nc.coeffs, s.reg.a1, s.reg.a2, s.reg.a3)
    return ([x for j in jets for x in (j.v, j.d1, j.d2)]
            + [*s.tau, *s.crit, s.crit_gap_sq, *s.lam, *s.lam_d1, *s.lam_d2, *s.mu, *s.mu_d1])


def _stacked(ts: np.ndarray, buf: np.ndarray) -> Symbols:
    """:class:`Symbols` over views of ``buf``, whose columns are
    :func:`_column` lists; a jet row that is real everywhere comes out real."""
    pos = 0

    def take(k):
        nonlocal pos
        pos += k
        return buf[pos - k:pos]

    def jets(k):
        return tuple(Jet2(*(r if r.imag.any() else r.real for r in take(3))) for _ in range(k))

    c = CubicJet(*jets(3))
    m, n, (p,) = TauPoly(jets(3)), TauPoly(jets(2)), jets(1)
    mc, nc = TauPoly(jets(3)), TauPoly(jets(2))
    reg = CubicJet(*jets(3))
    tau, crit, gap_sq = take(3).real, take(2).real, take(1)[0].real
    lam, lam_d1, lam_d2 = take(3).real, take(3).real, take(3).real
    mu, mu_d1 = take(2).real, take(2).real
    return Symbols(ts, c, m, n, p, mc, nc, reg, tau, crit, gap_sq,
                   lam, lam_d1, lam_d2, mu, mu_d1)


def symbol_grid(op: Operator3, ts, xi: np.ndarray) -> Symbols:
    """The symbols at every time of ``ts`` at frequency ``xi``: one
    :func:`_symbols_at` per point, its scalars written into one
    preallocated array as the loop runs."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise ValueError("symbol_grid needs at least one time")
    dtype = complex if any(fn.has_imag for fn in op.coeffs.values()) else float
    buf = None
    for i, t in enumerate(ts):
        col = _column(_symbols_at(op, float(t), xi))
        if buf is None:
            buf = np.empty((len(col), len(ts)), dtype=dtype)
        buf[:, i] = col
    return _stacked(ts, buf)


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


def hyperbolicity_scan(op: Operator3, ladder: Sequence[float], direction: np.ndarray) -> None:
    """Raise HyperbolicityViolation (annotated with the offending point) if
    the principal discriminant dips below the tolerance band anywhere on the
    validation grid at the frequencies ``mag * direction``."""
    ts = np.linspace(0.0, op.horizon, VALIDATION_T_SAMPLES)
    for mag in ladder:
        xi = mag * direction
        for t in ts:
            c = op.principal(float(t), xi)
            disc = discriminant(c)
            if disc < -HYPERBOLICITY_TOL * c.coeff_scale() ** 4:
                raise HyperbolicityViolation(disc, where=f"t={t:.6g}, xi={xi}")


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
