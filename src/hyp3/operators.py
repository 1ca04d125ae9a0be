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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cubic import CubicJet, RootJet, quad_root_jets, root_jets, solve_cubic_real
from .errors import HyperbolicityViolation, OperatorSpecError
from .expr import Jet2, TimeFn

__all__ = [
    "Operator3",
    "Operator2",
    "TauPoly",
    "SymbolJet",
    "RegularizedCubic",
    "AuxiliaryRoots",
    "validation_ladder",
    "directions",
    "measure_separation",
]

_NAN = float("nan")

#: validation grid defaults
VALIDATION_T_SAMPLES = 256
VALIDATION_LADDER_EXPONENTS = range(4, 17)


def validation_ladder() -> list[float]:
    return [float(2 ** k) for k in VALIDATION_LADDER_EXPONENTS]


def directions(dim: int, seed: int = 0) -> list[np.ndarray]:
    """+-coordinate axes; for dim >= 2 adds 8 seeded random unit vectors."""
    out = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        out.append(e.copy())
        out.append(-e)
    if dim >= 2:
        rng = np.random.default_rng(seed)
        for _ in range(8):
            v = rng.normal(size=dim)
            out.append(v / np.linalg.norm(v))
    return out


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
    jet; ``order`` is the homogeneous symbol order (tau-power j pairs with
    ``i^(order-j)`` on mode-equation assembly)."""

    coeffs: tuple[Jet2, ...]
    order: int

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


# --------------------------------------------------------------------------
# Operator model


def _check_table(coeffs, dim: int, max_order: int, max_dt: int):
    for key, fn in coeffs.items():
        try:
            j, alpha = key
        except (TypeError, ValueError):
            raise OperatorSpecError(f"bad coefficient key {key!r}")
        if not isinstance(fn, TimeFn):
            raise OperatorSpecError(f"coefficient {key!r} is not a TimeFn")
        if len(alpha) != dim or any((not isinstance(a, int)) or a < 0 for a in alpha):
            raise OperatorSpecError(f"bad multi-index {alpha!r} for dimension {dim}")
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
        if self.dim < 1:
            raise OperatorSpecError("dimension must be >= 1")
        if not (self.horizon > 0):
            raise OperatorSpecError("time horizon must be positive")
        _check_table(self.coeffs, self.dim, 3, 2)
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
        return TauPoly(tuple(m), 2), TauPoly(tuple(n), 1), p

    # -- corrected symbols ----------------------------------------------------

    def checked_m_poly(self, t: float, xi: np.ndarray,
                       principal: CubicJet | None = None,
                       lower: tuple[TauPoly, TauPoly, Jet2] | None = None) -> TauPoly:
        """Order-2 symbol minus half the mixed (t, tau) derivative of the
        principal symbol."""
        c = principal if principal is not None else self.principal(t, xi)
        m = (lower if lower is not None else self.lower_polys(t, xi))[0]
        c0 = m.coeffs[0] - c.a2.shifted().scaled(0.5)
        c1 = m.coeffs[1] - c.a1.shifted()
        return TauPoly((c0, c1, m.coeffs[2]), 2)

    def checked_n_poly(self, t: float, xi: np.ndarray,
                       principal: CubicJet | None = None,
                       lower: tuple[TauPoly, TauPoly, Jet2] | None = None) -> TauPoly:
        """Order-1 symbol corrected by the order-2 and principal drifts."""
        c = principal if principal is not None else self.principal(t, xi)
        m, n, _ = lower if lower is not None else self.lower_polys(t, xi)
        n0 = n.coeffs[0] - m.coeffs[1].shifted().scaled(0.5) \
            + _shift2_weak(c.a1).scaled(1.0 / 6.0)
        n1 = n.coeffs[1] - m.coeffs[2].shifted()
        return TauPoly((n0, n1), 1)

    # -- regularization --------------------------------------------------------

    def regularized(self, t: float, xi: np.ndarray, eps: float,
                    principal: CubicJet | None = None,
                    with_jets: bool = True) -> "RegularizedCubic":
        """Principal cubic minus (eps |xi|)^2 times its second root-variable
        derivative; roots are uniformly separated simple perturbations."""
        c = principal if principal is not None else self.principal(t, xi)
        e2 = (eps * float(np.linalg.norm(xi))) ** 2
        reg = regularized_cubic(c, e2)
        roots = solve_cubic_real(reg)
        if with_jets:
            jets = root_jets(reg, roots)
        else:
            jets = RootJet(roots, (_NAN,) * 3, (_NAN,) * 3)
        return RegularizedCubic(reg, jets)

    def auxiliary(self, t: float, xi: np.ndarray,
                  principal: CubicJet | None = None) -> "AuxiliaryRoots":
        """Roots of the unit-regularized cubic and of its derivative
        quadratic, with first (and for the cubic, second) time derivatives.
        Pairwise gaps are bounded below uniformly in (t, xi)."""
        eps = 1.0 / float(np.linalg.norm(xi))
        reg = self.regularized(t, xi, eps, principal=principal)
        mu, mu_d1 = quad_root_jets(reg.cubic)
        return AuxiliaryRoots(reg, reg.roots, mu, mu_d1)


@dataclass(frozen=True)
class RegularizedCubic:
    cubic: CubicJet
    roots: RootJet


@dataclass(frozen=True)
class AuxiliaryRoots:
    reg: RegularizedCubic
    lam: RootJet
    mu: tuple[float, float]
    mu_d1: tuple[float, float]


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
        if self.dim < 1:
            raise OperatorSpecError("dimension must be >= 1")
        if not (self.horizon > 0):
            raise OperatorSpecError("time horizon must be positive")
        _check_table(self.coeffs, self.dim, 2, 1)
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


def hyperbolicity_scan(op: Operator3, ladder: Sequence[float] | None = None,
                       nt: int = VALIDATION_T_SAMPLES, tol: float = 1e-9,
                       dirs: Iterable[np.ndarray] | None = None) -> None:
    """Raise HyperbolicityViolation (annotated with the offending point) if
    the principal discriminant dips below the tolerance band anywhere on the
    validation grid."""
    from .cubic import discriminant

    ladder = list(ladder) if ladder is not None else validation_ladder()
    dirs = list(dirs) if dirs is not None else directions(op.dim)
    ts = np.linspace(0.0, op.horizon, nt)
    for d in dirs:
        for mag in ladder:
            xi = mag * d
            for t in ts:
                c = op.principal(float(t), xi)
                disc = discriminant(c)
                scale = c.coeff_scale()
                if disc < -tol * scale ** 4:
                    raise HyperbolicityViolation(disc, where=f"t={t:.6g}, xi={xi}")


def measure_separation(op: Operator3, ladder: Sequence[float] | None = None,
                       nt: int = VALIDATION_T_SAMPLES,
                       direction: np.ndarray | None = None):
    """Per-|xi| minimum pairwise gap of the unit-regularized roots and
    maximum shift from the plain roots (the empirical separation constants)."""
    ladder = list(ladder) if ladder is not None else validation_ladder()
    d = direction if direction is not None else np.array([1.0] * op.dim) / math.sqrt(op.dim)
    ts = np.linspace(0.0, op.horizon, nt)
    rows = []
    for mag in ladder:
        xi = mag * d
        min_gap = math.inf
        max_shift = 0.0
        for t in ts:
            c = op.principal(float(t), xi)
            plain = solve_cubic_real(c)
            reg = op.regularized(float(t), xi, 1.0 / mag, principal=c, with_jets=False)
            rr = reg.roots.roots.r
            min_gap = min(min_gap, rr[1] - rr[0], rr[2] - rr[1])
            max_shift = max(max_shift, max(abs(a - b) for a, b in zip(rr, plain.r)))
        rows.append({"xi": mag, "min_gap": min_gap, "max_shift": max_shift})
    return rows
