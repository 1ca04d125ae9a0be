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
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cubic import (_critical_jets, _critical_points, _real_roots, _root_dt, _simple_root_gap,
                    _solve_cubic_grid)
from .errors import (ExprDomainError, HyperbolicityViolation, NearMultipleRoot,
                     OperatorSpecError, _check_points, _clip, locate)
from .expr import TimeFn

__all__ = [
    "Operator3",
    "Operator2",
    "Symbols",
    "symbol_grid",
    "measure_separation",
]

_NAN = float("nan")

#: time samples of the validation grid on [0, horizon]
VALIDATION_T_SAMPLES = 256


# --------------------------------------------------------------------------
# Symbol cores on plain jets


def _regularized(a1, a2, a3, e2: float):
    """The jets (v, d1, d2, d3) of the a2 and a3 of L - e2 * d_tau^2 L, from those of L."""
    s = 2.0 * e2
    return ((a2[0] + -6.0 * e2, a2[1], a2[2], a2[3]),
            (a3[0] - s * a1[0], a3[1] - s * a1[1], a3[2] - s * a1[2], a3[3] - s * a1[3]))


def _corrections(a1, a2, m0, m1, m2, n0, n1):
    """The order-2 symbol minus half the mixed (t, tau) derivative of the
    principal symbol, and the order-1 symbol corrected by the order-2 and
    principal drifts, as the jets (v, d1, d2) of m0, m1, n0 and n1 (m2 stays)
    from the coefficient jets (v, d1, d2, d3). Each jet is shifted to the jet
    of its time derivative; the second derivative of a1 would need a
    fourth-order jet and is never consumed, so the d2 of the corrected
    order-1 constant is NaN."""
    sixth = 1.0 / 6.0
    return ((m0[0] - 0.5 * a2[1], m0[1] - 0.5 * a2[2], m0[2] - 0.5 * a2[3]),
            (m1[0] - a1[1], m1[1] - a1[2], m1[2] - a1[3]),
            (n0[0] - 0.5 * m1[1] + sixth * a1[2], n0[1] - 0.5 * m1[2] + sixth * a1[3],
             n0[2] - 0.5 * m1[3] + sixth * _NAN),
            (n1[0] - m2[1], n1[1] - m2[2], n1[2] - m2[3]))


def _weight_overflow(xi) -> OperatorSpecError:
    return OperatorSpecError(f"frequency weight xi^alpha overflows the double range, at xi={xi}")


# --------------------------------------------------------------------------
# Operator model


@dataclass(frozen=True)
class _Table:
    """A monic operator as its coefficient table; immutable after construction,
    and every evaluation is pure, so (t, xi) grids may be processed concurrently.

    Every symbol is a view of one walk over the table (:meth:`_add`). A
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
        # each view's terms in table order: (slot, place in the table, coefficient,
        # the nonzero (axis, power) pairs of alpha, jet order)
        walks = {name: [] for name in self._VIEWS}
        for place, (key, fn) in enumerate(self.coeffs.items()):
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
                    walks[name].append((slots.index((j, k)), place, fn, powers,
                                        self._JET_ORDER[j + k]))
        object.__setattr__(self, "_walks", {name: tuple(w) for name, w in walks.items()})
        for (j, alpha), fn in self.coeffs.items():
            if j + sum(alpha) >= self._REAL_FROM and fn.has_imag:
                raise OperatorSpecError(self._NOT_REAL.format(j=j, alpha=_clip(alpha)))

    _kept = None  # the jets a :meth:`_keeping_jets` copy keeps

    def is_constant(self) -> bool:
        return all(fn.is_constant for fn in self.coeffs.values())

    def _keeping_jets(self) -> "_Table":
        """A copy that keeps each jet :meth:`_add` evaluates at one time, for
        as long as the copy lives: one ladder, whose cells meet the same times."""
        kept = copy.copy(self)
        object.__setattr__(kept, "_kept", {})
        return kept

    def _weights(self, xi: np.ndarray, *views: str) -> list[tuple]:
        """The terms of ``views`` at ``xi`` in table order, each view's slots after the last one's,
        as (slot, place in the table, coefficient, jet order, xi^alpha or None where alpha = 0),
        less those of weight zero; a weight past the double range is an input error."""
        xs = np.asarray(xi, dtype=float).tolist()
        terms, first = [], 0
        for view in views:
            for slot, place, fn, powers, order in self._walks[view]:
                w = 1.0
                try:
                    for i, a in powers:
                        w *= xs[i] ** a
                except OverflowError:
                    w = math.inf
                if not math.isfinite(w):
                    raise _weight_overflow(xi)
                if w != 0.0:
                    terms.append((first + slot, place, fn, order, w if powers else None))
            first += len(self._VIEWS[view])
        return terms

    def _add(self, terms: list[tuple], slots: int, t) -> list[tuple]:
        """For each slot, the jet (v, d1, d2, d3) of the sum of its ``terms`` (of :meth:`_weights`)
        at one time or on a time grid, from the zero jet of ``t`` (zero arrays on a grid) in table
        order. A :meth:`_keeping_jets` copy evaluates a term at a time (-0.0 apart from 0.0, as
        sin(-0.0) is -0.0) once it succeeds, and then serves its jet."""
        grid, kept = isinstance(t, np.ndarray), self._kept
        if grid or kept is None:
            jets = [None] * len(self.coeffs)
        elif (jets := kept.get(key := (t, math.copysign(1.0, t)))) is None:
            jets = kept[key] = [None] * len(self.coeffs)
        z = np.zeros_like(t) if grid else 0.0
        acc = [(z, z, z, z)] * slots
        for slot, place, fn, order, w in terms:
            if (jet := jets[place]) is None:
                jet = jets[place] = fn.jet2(t, order)
            v, d1, d2, d3 = jet.v, jet.d1, jet.d2, jet.d3
            if w is not None:
                v, d1, d2, d3 = w * v, w * d1, w * d2, None if d3 is None else w * d3
            s = acc[slot]
            acc[slot] = (s[0] + v, s[1] + d1, s[2] + d2,
                         None if s[3] is None or d3 is None else s[3] + d3)
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


# --------------------------------------------------------------------------
# Symbols at one time or on a time grid

#: Every symbol at one frequency, on a time grid (:func:`symbol_grid`): the jets
#: (v, d1, d2, d3) of the principal cubic's a1..a3 (a_k multiplies the (3-k)-th
#: power of the root variable), of the order-2 symbol's m0..m2 and the order-1
#: symbol's n0, n1 (ascending in the root variable) and of the zeroth coefficient
#: p; the value r2 of the a2 of the unit-regularized cubic L - d_tau^2 L; the
#: corrected order-2 and order-1 coefficients (v, d1, d2) mc0, mc1 (the third is
#: m2), nc0, nc1; and (k, N) arrays: the sorted roots tau, the critical points
#: s1 <= s2 with (s2 - s1)^2, the regularized roots lam with two time
#: derivatives, and the regularized critical points mu with one
Symbols = namedtuple("Symbols", "a1 a2 a3 m0 m1 m2 n0 n1 p r2 mc0 mc1 nc0 nc1 "
                                "tau crit crit_gap_sq lam lam_d1 lam_d2 mu mu_d1")


def _symbols(op: Operator3, terms: list[tuple], t, xi: np.ndarray) -> tuple:
    """The fields of :data:`Symbols` at one time, or pointwise on a time array, from the
    terms ``op._weights(xi, "principal", "lower")``: each coefficient jet is evaluated
    once, and the corrected and root data all derive from the sums. A numerical or
    domain failure names the point it happened at; on a grid, the first failing time."""
    roots = _solve_cubic_grid if isinstance(t, np.ndarray) else _real_roots
    try:
        a1, a2, a3, m0, m1, m2, n0, n1, p = op._add(terms, 9, t)  # a1..a3 real: no .real
        # the plain cubic first: a non-hyperbolic time reports its discriminant
        tau = roots(a1[0], a2[0], a3[0])
        r2, r3 = _regularized(a1, a2, a3, 1.0)  # the unit-regularized cubic
        lam = roots(a1[0], r2[0], r3[0])
        gap, thr = _simple_root_gap(lam)
        _check_points(gap <= thr, NearMultipleRoot, gap, thr)
        ld1, ld2 = _root_dt(a1[0], r2[0], a1[1], r2[1], r3[1], a1[2], r2[2], r3[2], lam)
        mu, mu_d1 = _critical_jets(a1[0], r2[0], r3[0], a1[1], r2[1])
        s1, s2, _, gap_sq = _critical_points(a1[0], a2[0], a3[0])
    except (HyperbolicityViolation, NearMultipleRoot, ExprDomainError) as exc:
        # a grid runs each step at every time before the next step, so the
        # failed step need not be the one that fails first in time
        locate(exc, t, xi, lambda tk: _symbols(op, terms, tk, xi))
        raise
    mc0, mc1, nc0, nc1 = _corrections(a1, a2, m0, m1, m2, n0, n1)
    return (a1, a2, a3, m0, m1, m2, n0, n1, p, r2[0], mc0, mc1, nc0, nc1, tau, (s1, s2), gap_sq,
            lam, ld1, ld2, mu, mu_d1)


def symbol_grid(op: Operator3, ts, xi: np.ndarray) -> Symbols:
    """The symbols at every time of ``ts`` at frequency ``xi``: one
    :func:`_symbols` call on the time array, its root data stacked into
    (k, N) arrays."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise ValueError("symbol_grid needs at least one time")
    s = _symbols(op, op._weights(xi, "principal", "lower"), ts, xi)
    return Symbols(*s[:14], *map(np.array, s[14:]))


# --------------------------------------------------------------------------
# Second-order operator model (for the dedicated second-order check)


class Operator2(_Table):
    """Monic second-order operator, same coefficient-table layout with
    j <= 1 and j + |alpha| <= 2."""

    _VIEWS = {"parts": ((1, 1), (0, 2), (1, 0), (0, 1), (0, 0))}
    _JET_ORDER = (2, 2, 2)
    _REAL_FROM = 0
    _NOT_REAL = "second-order model coefficients must be real"


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
