"""Logarithmic/Levi condition evaluation.

Evaluates, over a frequency ladder:

* the six primary time-integral conditions (root-separation drift, root
  velocity drift, drift and size of the corrected order-2 and order-1
  symbols along the uniformly separated auxiliary roots),
* their equivalent forms phrased through the plain roots, the critical
  points of the principal cubic, and the interchangeable denominators,
* pointwise bounds with the degeneracy-class split (generic / persistent
  double / persistent triple root),
* the constant-coefficient decomposition and forbidden-zone tests,
* the dedicated second-order operator condition,
* an oscillation-count diagnostic (extrema of symbol traces along root
  branches, which should not grow with frequency for closed-form
  coefficients).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cubic import (_SS2, _SS3, HYPERBOLICITY_TOL, _coeff_scale, _delta1, _discriminant,
                    cubic_from_floats, solve_cubic_real)
from .errors import HyperbolicityViolation, OperatorSpecError, _check_points, locate
from .operators import VALIDATION_T_SAMPLES, Operator2, Operator3, Symbols, _symbols, symbol_grid
from .quadrature import adaptive_gauss

__all__ = [
    "PRIMARY_KEYS",
    "ConditionCell",
    "ConditionReport",
    "LogFit",
    "CaseReport",
    "condition_integrals",
    "condition_report",
    "log_fit",
    "pointwise_levi",
    "constant_coeff_check",
    "second_order_check",
    "oscillation_count",
    "default_ladder",
]

#: refinement factor of the fine pointwise grid over the validation grid
FINE_GRID_FACTOR = 4

#: relative size below which a side of a pointwise ratio counts as vanishing
VANISH_REL = 1e-12

PRIMARY_KEYS = ("sep_drift", "vel_drift", "m_drift", "n_drift", "m_levi", "n_levi")

#: alternate-form keys: numerator source labels for the interchangeable
#: square-root family, and the denominators they may be paired with
_SQRT_N_SOURCES = ("crit", "auxcrit", "roots", "aux")
_SQRT_N_DENOMS = ("crit_gap_p1", "auxcrit_gap", "rms_gap_p1", "aux_rms_gap",
                  "span_p1", "aux_span")

ALTERNATE_KEYS = (
    "m_levi_roots",   # order-2 Levi over plain roots with +1 regularized gaps
    "dm_span",        # tau-derivative of corrected order-2 symbol over root span
    "dm_crit",        # same over the critical-point gap
    "n_levi_crit",    # order-1 Levi at principal critical points: sqrt_n[crit/crit_gap_p1]
) + tuple(f"sqrt_n[{s}/{d}]" for s in _SQRT_N_SOURCES for d in _SQRT_N_DENOMS)

#: which primary each alternate is banded against
ALTERNATE_PRIMARY = {k: ("n_levi" if k.startswith(("sqrt_n", "n_levi")) else
                         ("m_levi" if k == "m_levi_roots" else
                          ("dm_span" if k == "dm_crit" else "m_levi")))
                     for k in ALTERNATE_KEYS}


def default_ladder(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        return [float(lo)]
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    return [float(lo) * ratio ** k for k in range(steps)]


#: the ladder rule of each pass that reads a trend off the ladder, as (fewest
#: points, fewest doublings); the condition pass, either order, has log_fit's
LADDER_RULES = {"log_fit": (5, 3), "growth experiment": (6, 5)}


def check_ladder(xs: Sequence[float], what: str) -> None:
    """Pass ``what``'s ladder rule: at least its fewest points, strictly
    increasing, spanning at least its fewest doublings (a config error)."""
    points, doublings = LADDER_RULES[what]
    if len(xs) < points:
        raise OperatorSpecError(f"{what} needs at least {points} ladder points")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise OperatorSpecError(f"{what} needs a strictly increasing ladder")
    if max(xs) / min(xs) < 2.0 ** doublings * (1.0 - 1e-9):
        raise OperatorSpecError(f"{what} needs the ladder to span at least {doublings} doublings")


def _check_cell_xi(mag: float) -> None:
    if not mag >= 2.0:  # NaN too
        raise OperatorSpecError("condition integrals need |xi| >= 2")


def check_condition_ladder(ladder: Sequence[float]) -> None:
    """The rules of the condition pass, of either order, checked before any
    work: log_fit's, and |xi| >= 2 at every point, as each cell needs."""
    check_ladder(ladder, "log_fit")
    _check_cell_xi(min(ladder))


# --------------------------------------------------------------------------
# Per-cell integrand


def _primary_terms(s: Symbols):
    """:func:`_terms` of the symbols ``s`` on a grid."""
    return _terms(s.lam, s.lam_d1, s.lam_d2, s.mu, s.mu_d1, s.mc0, s.mc1, s.m2, s.nc0, s.nc1)


def _corrected(s: Symbols):
    """The values of the corrected order-2 and order-1 symbols' coefficients, ascending."""
    return (s.mc0[0], s.mc1[0], s.m2[0]), (s.nc0[0], s.nc1[0])


def _terms(lam, ld1, ld2, mu, mu_d1, m0, m1, m2, n0, n1):
    """The six primary integrands (in ``PRIMARY_KEYS`` order), at one time or
    pointwise on a grid, from the auxiliary roots with two time derivatives, the
    auxiliary critical points ``mu`` with one, and the corrected symbols'
    coefficients, each (value, time derivative, ...); also |corrected order-1
    symbol| at the two ``mu``, which the energy envelope reuses. A corrected
    symbol and its total time derivative along a root are written out by
    Horner's rule, as :func:`_horner` rounds them, with the ``k * c`` terms of
    the tau-derivative (``1 * z`` is not ``z`` for a complex z with an infinite
    part), less the leading ``0.0 * tau +``, which at a finite tau can change
    only the sign of a zero, and every use takes abs."""
    m0v, m1v, m2v, m0d, m1d, m2d = m0[0], m1[0], m2[0], m0[1], m1[1], m2[1]
    sep = vel = 0.0
    for j, k in _SS2:
        sep += abs(ld1[j] - ld1[k]) / abs(lam[j] - lam[k])
        vel += abs(ld2[j] - ld2[k]) / (abs(ld1[j] - ld1[k]) + 1.0)

    m_drift = m_levi = 0.0
    for j, k, l in _SS3:
        x = lam[j]
        mv = (m2v * x + m1v) * x + m0v
        mdot = (m2d * x + m1d) * x + m0d + (2 * m2v * x + 1 * m1v) * ld1[j]
        m_drift += abs(mdot) / (abs(mv) + 1.0)
        m_levi += abs(mv) / (abs(x - lam[k]) * abs(x - lam[l]))

    n0v, n1v, n0d, n1d = n0[0], n1[0], n0[1], n1[1]
    mu_gap = mu[1] - mu[0]
    sqrt = np.sqrt if isinstance(mu_gap, np.ndarray) else math.sqrt  # both round exactly
    n_drift = n_levi = 0.0
    n_abs = []
    for j in (0, 1):
        x = mu[j]
        nv = abs(n1v * x + n0v)
        n_drift += abs(n1d * x + n0d + 1 * n1v * mu_d1[j]) / (nv + 1.0)
        n_levi += sqrt(nv / mu_gap)
        n_abs.append(nv)
    return [sep, vel, m_drift, n_drift, m_levi, n_levi], n_abs


def _condition_node(op: Operator3, xi: np.ndarray):
    """The integrand of the cell at ``xi``, its weights xi^alpha taken once: ``node(t)``
    is every condition integrand, primary then alternate, from the plain-number
    symbols of :func:`~hyp3.operators._symbols` at ``t``, which raise its located
    errors; each sum is written out left to right."""
    terms = op._weights(xi, "principal", "lower")

    def node(t: float) -> list[float]:
        (a1, a2, _, _, _, m2, _, _, _, r2, mc0, mc1, nc0, nc1, tau, (s1, s2), _,
         lam, ld1, ld2, mu, mu_d1) = _symbols(op, terms, t, xi)
        out, n_auxcrit = _terms(lam, ld1, ld2, mu, mu_d1, mc0, mc1, m2, nc0, nc1)
        m0v, m1v, m2v, n0v, n1v = mc0[0], mc1[0], m2[0], nc0[0], nc1[0]
        span_p1 = tau[2] - tau[0] + 1.0
        crit_gap_p1 = s2 - s1 + 1.0
        denoms = (crit_gap_p1, mu[1] - mu[0], math.sqrt(max(_delta1(a1[0], a2[0]), 0.0)) + 1.0,
                  math.sqrt(max(_delta1(a1[0], r2), 0.0)), span_p1, lam[2] - lam[0])
        m_tau = [(m2v * x + m1v) * x + m0v for x in tau]
        m_levi_roots = 0.0
        for j, k, l in _SS3:
            m_levi_roots += abs(m_tau[j]) / (
                (abs(tau[j] - tau[k]) + 1.0) * (abs(tau[j] - tau[l]) + 1.0))
        dm = [abs(2 * m2v * x + 1 * m1v) for x in (tau[0], tau[2], s1, s2)]
        # the |order-1 symbol| sources of the sqrt_n family, in _SQRT_N_SOURCES order
        sqrt = math.sqrt
        n_crit = (abs(n1v * s1 + n0v), abs(n1v * s2 + n0v))
        roots = [abs(n1v * x + n0v) for x in tau]
        aux = [abs(n1v * x + n0v) for x in lam]
        sqrt_n = [sqrt(u / d) + sqrt(v / d) for u, v in (n_crit, n_auxcrit) for d in denoms]
        sqrt_n += [sqrt(u / d) + sqrt(v / d) + sqrt(w / d) for u, v, w in (roots, aux)
                   for d in denoms]
        out += [m_levi_roots, (dm[0] + dm[1]) / span_p1, (dm[2] + dm[3]) / crit_gap_p1, sqrt_n[0]]
        return out + sqrt_n
    return node


def _cell_integrals(op: Operator3 | Operator2, xi: np.ndarray, node):
    """|xi| and ``node(op, xi)`` integrated over [0, horizon], at an ``xi`` of
    |xi| >= 2. With every coefficient of ``op`` t-free, the first node's row
    serves every node; still one call per node, so node counts hold."""
    with np.errstate(over="ignore"):  # an infinite |xi| leaves the weights to name it
        mag = float(np.linalg.norm(xi))
    _check_cell_xi(mag)
    integrand = node(op, xi)
    rows = []

    def first_row(t: float) -> np.ndarray:
        if not rows:  # an array: a panel stacks 16 of them faster than 16 lists
            rows.append(np.array(integrand(t)))
        return rows[0]
    return mag, adaptive_gauss(first_row if op.is_constant() else integrand, 0.0, op.horizon)


@dataclass(frozen=True)
class ConditionCell:
    """All condition integrals at one frequency."""

    xi_mag: float
    direction: tuple[float, ...]
    values: dict[str, float]
    alternates: dict[str, float]
    panels: int
    rel_change: float


def condition_integrals(op: Operator3, xi: np.ndarray) -> ConditionCell:
    """Integrate every condition integrand, primary and alternate, over
    [0, horizon].

    All integrands share one symbol evaluation per quadrature node; the
    auxiliary-root denominators are bounded below uniformly, so the
    integrands are bounded (if steep near degeneracy times)."""
    mag, res = _cell_integrals(op, xi, _condition_node)
    vals = dict(zip(PRIMARY_KEYS, (float(x) for x in res.values[:len(PRIMARY_KEYS)])))
    alts = dict(zip(ALTERNATE_KEYS, (float(x) for x in res.values[len(PRIMARY_KEYS):])))
    return ConditionCell(mag, tuple(float(x) for x in np.atleast_1d(xi) / mag),
                         vals, alts, res.panels, res.rel_change)


# --------------------------------------------------------------------------
# Ladder fits and verdicts


@dataclass(frozen=True)
class LogFit:
    slope: float
    ratios: tuple[float, ...]
    verdict: str  # logarithmic | violated | inconclusive


def log_fit(rows: Sequence[tuple[float, float]]) -> LogFit:
    """Classify integral growth against log(1 + |xi|).

    violated: the last three ratios all exceed the first by a factor >= 2
    and increase monotonically. logarithmic: ratios vary by < 20%, or never
    rise above the first ratio by more than 20% (bounded integrals produce
    decaying ratio ladders). Anything else is inconclusive: finite ladders
    witness trends, not asymptotics. A non-finite ratio is inconclusive too:
    the band tests above cannot see it.
    """
    check_ladder([x for x, _ in rows], "log_fit")
    ratios = tuple(i / math.log1p(x) for x, i in rows)
    slope = float(np.max(ratios))  # NaN if any ratio is NaN
    if not all(math.isfinite(r) for r in ratios):
        return LogFit(slope, ratios, "inconclusive")
    if slope < 1e-9:
        return LogFit(slope, ratios, "logarithmic")
    last3 = ratios[-3:]
    if all(r >= 2.0 * ratios[0] for r in last3) and last3[0] < last3[1] < last3[2]:
        return LogFit(slope, ratios, "violated")
    if (max(ratios) - min(ratios)) <= 0.2 * max(ratios) or max(ratios) <= 1.2 * ratios[0]:
        return LogFit(slope, ratios, "logarithmic")
    return LogFit(slope, ratios, "inconclusive")


@dataclass
class ConditionReport:
    ladder: list[ConditionCell]
    fits: dict[str, LogFit]
    verdicts: dict[str, str]
    bands: dict[str, dict]


def _band(ratio_rows: list[float]) -> dict:
    finite = [r for r in ratio_rows if math.isfinite(r)]
    if not finite:
        return {"lo": math.inf, "hi": math.inf, "stable": False, "ratios": ratio_rows}
    lo, hi = min(finite), max(finite)
    med = sorted(finite)[len(finite) // 2]
    if med == 0.0:
        stable = hi == 0.0
    else:
        stable = len(finite) == len(ratio_rows) and hi <= 1.2 * med and lo >= 0.8 * med
    return {"lo": lo, "hi": hi, "stable": stable, "ratios": ratio_rows}


_worker_op = None  # a pool worker's operator, forked with it for its ladder


def _start_worker(op: Operator3) -> None:
    """Pool initializer: exit once the parent is gone (killed, say), rather
    than wait for a next cell for ever (EOF on the parent's sentinel pipe);
    then keep the operator the worker forked with, whose jets its cells share."""
    global _worker_op
    fd = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: (os.read(fd, 1), os._exit(1)), daemon=True).start()
    _worker_op = op


def _cell(xi: np.ndarray) -> ConditionCell:
    return condition_integrals(_worker_op, xi)


def _ladder_cells(op: Operator3, xis: list[np.ndarray]) -> list[ConditionCell]:
    """The cells at ``xis`` in order, a time-dependent operator's integrated in forked workers
    (one per usable CPU), the last and dearest first; the first failing cell's error is raised."""
    op = op._keeping_jets()  # in process or in each worker, the cells share their jets
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(xis), cpus or 1)
    if op.is_constant() or workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [condition_integrals(op, xi) for xi in xis]
    # forked, a worker gets ``initargs`` as the parent's own objects: nothing is pickled
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(op,))
    try:
        return [f.result() for f in [pool.submit(_cell, xi) for xi in xis[::-1]][::-1]]
    finally:
        pool.shutdown(cancel_futures=True)


def condition_report(op: Operator3, ladder: Sequence[float],
                     direction: np.ndarray) -> ConditionReport:
    check_condition_ladder(ladder)
    cells = _ladder_cells(op, [mag * direction for mag in ladder])
    fits = {key: log_fit([(c.xi_mag, c.values[key]) for c in cells]) for key in PRIMARY_KEYS}
    verdicts = {key: fits[key].verdict for key in PRIMARY_KEYS}
    bands = {}
    for key in ALTERNATE_KEYS:
        primary = ALTERNATE_PRIMARY[key]
        ratios = []
        for c in cells:
            p = c.values.get(primary, c.alternates.get(primary, 0.0))
            a = c.alternates[key]
            if p > 1e-9:
                ratios.append(a / p)
            else:
                ratios.append(1.0 if a <= 1e-9 else math.inf)
        bands[key] = {"primary": primary, **_band(ratios)}
    return ConditionReport(cells, fits, verdicts, bands)


# --------------------------------------------------------------------------
# Pointwise bounds with degeneracy-class split


@dataclass
class CaseReport:
    case: str                      # "I" | "II" | "III"
    ambiguous: bool
    disc_rel_max: float
    delta1_rel_max: float
    checks: dict[str, dict] = field(default_factory=dict)


def _horner(coeffs, tau):
    """The polynomial with ascending ``coeffs`` at ``tau``, by Horner's rule from 0.0."""
    v = 0.0
    for c in reversed(coeffs):
        v = v * tau + c
    return v


def _poly_scale(coeffs, tau: float) -> float:
    """Magnitude of the terms forming the polynomial with ascending ``coeffs``
    at tau: the natural scale for deciding whether its value is zero. Vanishing
    tests at (near-)multiple roots pass the root span as ``tau``, since such
    roots carry an intrinsic sqrt(eps)-level location error amplified by the span."""
    acc = 1.0
    w = 1.0 + abs(tau)
    for k, c in enumerate(coeffs):
        acc += abs(c) * w ** k
    return acc


def _guarded_ratio(num, den, tiny: float):
    """Pointwise num / den for num, den >= 0. Where den vanishes (<= tiny)
    the ratio is 0 if num vanishes too and +inf otherwise; a ratio past the
    double range is +inf too."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(den <= tiny, np.where(num <= tiny, 0.0, math.inf), num / den)


def _grid_sup(branches) -> float:
    """Supremum of num/den over grid points and branches, each branch a
    tuple (num, den, num scale, den scale) of arrays over the grid. Points
    where both sides vanish (``VANISH_REL`` times their scales) are skipped; a
    vanishing denominator against a live numerator makes the supremum +inf,
    and a NaN ratio makes it NaN."""
    sup = 0.0
    for num, den, nscale, dscale in branches:
        num, den, nscale, dscale = np.broadcast_arrays(num, den, nscale, dscale)
        dead = den <= VANISH_REL * dscale
        if np.any(dead & ~(num <= VANISH_REL * nscale)):
            return math.inf
        with np.errstate(invalid="ignore"):
            sup = np.max(num[~dead] / den[~dead], initial=sup)
    return float(sup)


def _sup_verdict(base_sups: list[float], fine_sups: list[float]) -> str:
    if any(math.isnan(s) for s in base_sups + fine_sups):
        return "inconclusive"
    if any(math.isinf(s) for s in base_sups + fine_sups):
        return "unbounded-trend"
    worst_ratio = max((f / b if b > 1e-12 else (math.inf if f > 1e-9 else 1.0))
                      for b, f in zip(base_sups, fine_sups))
    if worst_ratio > 1.5:
        return "unbounded-trend"
    lo = min(fine_sups)
    hi = max(fine_sups)
    n = len(fine_sups)
    increasing = n >= 3 and fine_sups[-3] < fine_sups[-2] < fine_sups[-1]
    if hi >= 4.0 * max(lo, 1e-9) and increasing and fine_sups[-1] == hi:
        return "unbounded-trend"
    return "bounded"


def _double_root(tau):
    """(double root, simple root) of a near-double root triple, pointwise:
    the closer pair is the double one."""
    first = tau[1] - tau[0] <= tau[2] - tau[1]
    return np.where(first, tau[0], tau[1]), np.where(first, tau[2], tau[0])


def _relative(x, scale, power: int):
    """|x| / scale^power, pointwise, in two steps where scale^power alone
    leaves the double range (a finite coefficient past 1e77 can do that)."""
    with np.errstate(over="ignore"):
        whole, half = scale ** power, scale ** (power // 2)
    return np.where(np.isinf(whole), abs(x) / half / half, abs(x) / whole)


def _sup_branches(case: str, g: Symbols, t: np.ndarray, one_dim: bool):
    """Yield (name, branches) for each grid-supremum check that applies to
    degeneracy case I or II on the symbol grid ``g`` at the times ``t``; a
    branch is a tuple (num, den, num scale, den scale) of arrays over the grid."""
    (a1, b1, *_), (a2, b2, *_), (a3, b3, *_) = g.a1, g.a2, g.a3  # values, time derivatives
    (mc, nc), tau = _corrected(g), g.tau
    s = _coeff_scale(a1, a2, a3)
    if case == "II":
        dbl, simple = _double_root(tau)
        q0 = mc[1] + dbl * mc[2]  # the quotient of the division by (tau - dbl) is q0 + m2 tau
        root_d1 = np.sqrt(np.maximum(_delta1(a1, a2), 0.0))
        rhs = root_d1 + _guarded_ratio(abs(4.0 * a1 * b1 - 6.0 * b2), 2.0 * root_d1, 0.0)
        yield "quotient_disc_bound", [(abs(q0 + mc[2] * r), rhs, _poly_scale(mc, r), s)
                                      for r in (dbl, simple)]
        return

    root_disc = np.sqrt(np.maximum(_discriminant(a1, a2, a3), 0.0))
    disc_dt = ((2.0 * a1 * a2 * a2 - 12.0 * a1 * a1 * a3 + 18.0 * a2 * a3) * b1
               + (2.0 * a1 * a1 * a2 - 12.0 * a2 * a2 + 18.0 * a1 * a3) * b2
               + (-4.0 * a1 ** 3 + 18.0 * a1 * a2 - 54.0 * a3) * b3)
    rhs_m = root_disc + _guarded_ratio(abs(disc_dt), 2.0 * root_disc, 0.0)
    yield "m_disc_bound", [(abs(tau[k] - tau[l]) * abs(_horner(mc, tau[j])), rhs_m,
                            (1.0 + abs(tau[k] - tau[l])) * _poly_scale(mc, tau[j]), s ** 2)
                           for j, k, l in _SS3]
    gap_sq = g.crit_gap_sq
    gap = np.sqrt(np.maximum(gap_sq, 0.0))
    dgap_sq = (8.0 / 9.0) * a1 * b1 - (4.0 / 3.0) * b2
    rhs_n = gap + _guarded_ratio(dgap_sq ** 2, gap_sq ** 1.5, 0.0)
    yield "n_disc_bound", [(abs(_horner(nc, x)), rhs_n, _poly_scale(nc, x), 1.0 + gap)
                           for x in g.crit]
    if one_dim:
        yield "m_bound_n1", [
            (abs(t) * abs(_horner(mc, tau[j])), abs(tau[j] - tau[k]) * abs(tau[j] - tau[l]),
             (1.0 + abs(t)) * _poly_scale(mc, tau[j]),
             (1.0 + abs(tau[j] - tau[k])) * (1.0 + abs(tau[j] - tau[l])))
            for j, k, l in _SS3]
        yield "n_bound_n1", [(t * t * abs(_horner(nc, x)), gap,
                              (1.0 + t * t) * _poly_scale(nc, x), 1.0 + gap)
                             for x in g.crit]


def pointwise_levi(op: Operator3, ladder: Sequence[float], direction: np.ndarray) -> CaseReport:
    """Build the validation grid at each ladder |xi| in order, which is the
    hyperbolicity scan (a failing time raises its own located error). Then, on
    every other grid of a ladder of over five points, classify the degeneracy
    case and take the pointwise bounds that apply as grid suprema there and on
    a grid ``FINE_GRID_FACTOR`` times finer (growing under refinement: unbounded trend)."""
    ts_base = np.linspace(0.0, op.horizon, VALIDATION_T_SAMPLES)
    ts_fine = np.linspace(0.0, op.horizon, VALIDATION_T_SAMPLES * FINE_GRID_FACTOR)
    step = 2 if len(ladder) > 5 else 1
    base = [symbol_grid(op, ts_base, mag * direction) for mag in ladder][::step]
    ladder = ladder[::step]

    # -- case classification: grid max of the two discriminants, relative to
    # their natural polynomial scales
    scales = [_coeff_scale(g.a1[0], g.a2[0], g.a3[0]) for g in base]
    disc_rel = max(float(np.max(_relative(_discriminant(g.a1[0], g.a2[0], g.a3[0]), s, 4)))
                   for g, s in zip(base, scales))
    d1_rel = max(float(np.max(_relative(_delta1(g.a1[0], g.a2[0]), s, 2)))
                 for g, s in zip(base, scales))
    dead_lo, dead_hi = 1e-10, 1e-7
    ambiguous = dead_lo <= disc_rel < dead_hi or dead_lo <= d1_rel < dead_hi
    disc_zero = disc_rel < dead_hi
    d1_zero = d1_rel < dead_hi
    case = "I" if not disc_zero else ("II" if not d1_zero else "III")
    report = CaseReport(case, ambiguous, disc_rel, d1_rel)

    if case == "III":  # a single clustered triple root everywhere
        parts = []
        for g, s in zip(base, scales):
            r1, (mc, nc) = -g.a1[0] / 3.0, _corrected(g)
            m_dtau = (0.0 * r1 + 2 * mc[2]) * r1 + 1 * mc[1]
            parts.append([float(np.max(abs(x) / s))
                          for x in (_horner(mc, r1), m_dtau, _horner(nc, r1))])
        for i, nm in enumerate(("m_at_root", "dm_at_root", "n_at_root")):
            vals = [row[i] for row in parts]
            report.checks[f"triple_root_compat/{nm}"] = {
                "max_rel": vals,
                "verdict": "satisfied" if max(vals) < 1e-8 else "violated",
            }
        return report

    if case == "II":
        # the order-2 symbol must vanish on the double root, and so must the
        # remainder of its division by (tau - double root)
        vanish, rems = [], []
        for g in base:
            dbl, _ = _double_root(g.tau)
            mc, _ = _corrected(g)
            scale = _poly_scale(mc, g.tau[2] - g.tau[0])
            vanish.append(float(np.max(abs(_horner(mc, dbl)) / scale)))
            # the remainder of the division by (tau - dbl), by synthetic division
            rems.append(float(np.max(abs(mc[0] + dbl * (mc[1] + dbl * mc[2])) / scale)))
        report.checks["m_vanishes_on_double"] = {
            "max_rel": vanish,
            "verdict": "satisfied" if max(vanish) < 1e-6 else "violated",
        }
        report.checks["division_remainder"] = {
            "max_rel": rems,
            "verdict": "bounded" if max(rems) < 1e-6 else "reported",
        }

    def grid_sups(grids, ts) -> dict[str, list[float]]:
        sups: dict[str, list[float]] = {}
        for g in grids:
            for name, branches in _sup_branches(case, g, ts, op.dim == 1):
                sups.setdefault(name, []).append(_grid_sup(branches))
        return sups

    sup_base = grid_sups(base, ts_base)
    del base  # each fine grid is built, used and dropped in turn
    sup_fine = grid_sups((symbol_grid(op, ts_fine, mag * direction) for mag in ladder), ts_fine)
    for name, b in sup_base.items():
        report.checks[name] = {
            "sup_base": b, "sup_fine": sup_fine[name],
            "verdict": _sup_verdict(b, sup_fine[name]),
        }
    return report


# --------------------------------------------------------------------------
# Constant-coefficient tests


def _roots_full_cubic(c2: complex, c1: complex, c0: complex) -> np.ndarray:
    """Roots of r^3 + c2 r^2 + c1 r + c0; exact-real fast path when the
    cubic is real and (weakly) hyperbolic so bounded cases report an exact
    zero imaginary part. A discriminant that overflows is raised, not taken
    for complex roots."""
    if c2.imag == 0.0 and c1.imag == 0.0 and c0.imag == 0.0:
        try:
            r = solve_cubic_real(cubic_from_floats(c2.real, c1.real, c0.real))
            return np.array(r.r, dtype=complex)
        except HyperbolicityViolation as exc:
            if not math.isfinite(exc.discriminant):
                raise
    return np.roots([1.0, c2, c1, c0])


def constant_coeff_check(op: Operator3, ladder: Sequence[float], direction: np.ndarray) -> dict:
    """Decomposition coefficients and forbidden-zone test for operators with
    constant coefficients (rejected otherwise).

    A vanishing root gap against a non-vanishing numerator is recorded as an
    immediately unbounded decomposition, not raised.
    """
    if not op.is_constant():
        raise OperatorSpecError("constant-coefficient check needs constant coefficients")
    t0 = 0.0

    rows = []
    for mag in ladder:
        g = symbol_grid(op, [t0], mag * direction)
        a1, a2, a3, m0, m1, m2, n0, n1, p = (x[0] for x in g[:9])
        tau, (s1, s2) = g.tau, g.crit
        tiny = 1e-12 * _coeff_scale(a1, a2, a3)
        ell = [_guarded_ratio(abs(_horner((m0, m1, m2), tau[j])),
                              abs((tau[j] - tau[k]) * (tau[j] - tau[l])), tiny) for j, k, l in _SS3]
        msplit = [_guarded_ratio(abs(_horner((n0, n1), sa)), abs(sa - sb), tiny)
                  for sa, sb in ((s1, s2), (s2, s1))]
        full = (a1 + m2, a2 + m1 + n1, a3 + m0 + n0 + p)
        try:
            roots = _roots_full_cubic(*(complex(x[0]) for x in full))
        except HyperbolicityViolation as exc:
            locate(exc, t0, mag * direction, None)
            raise
        rows.append({
            "xi": mag,
            "ell_max": float(np.max(ell)),
            "m_max": float(np.max(msplit)),
            "im_sup": float(np.max(np.abs(roots.imag))),
        })

    def trend(vals):
        if any(math.isinf(v) for v in vals):
            return "unbounded"
        lo = max(min(vals), 1e-9)
        if vals[-1] >= 4.0 * lo and vals[-3] < vals[-2] < vals[-1]:
            return "unbounded"
        return "bounded"

    ims = [r["im_sup"] for r in rows]
    grow_pts = [(math.log(r["xi"]), math.log(r["im_sup"])) for r in rows if r["im_sup"] > 1e-9]
    if len(grow_pts) >= 3:
        xs, ys = zip(*grow_pts)
        power = float(np.polyfit(xs, ys, 1)[0])
    else:
        power = 0.0
    return {
        "rows": rows,
        "decomposition_verdict": trend([max(r["ell_max"], r["m_max"]) for r in rows]),
        "im_verdict": "bounded" if max(ims) < 1e-6 or power < 0.05 else "unbounded-trend",
        "im_growth_power": power,
    }


# --------------------------------------------------------------------------
# Second-order operators


def _second_order_disc(a, b, t, xi: np.ndarray, at_point):
    """The principal discriminant a^2 - 4b at ``t``, one time or a time grid. Where it
    is below ``-HYPERBOLICITY_TOL * (1 + a^2 + 4|b|)``, or past the double range, it
    raises, located by :func:`~hyp3.errors.locate` (calling ``at_point`` on a grid):
    the band scales with the squared roots, as the discriminant does."""
    try:
        disc = a ** 2 - 4.0 * b
    except OverflowError:  # at a point: on a grid, a^2 is inf there
        disc = math.nan
    band = -HYPERBOLICITY_TOL * (1.0 + a * a + 4.0 * abs(b))
    grid = isinstance(disc, np.ndarray)
    ok = np.isfinite(disc) & (disc >= band) if grid else math.isfinite(disc) and disc >= band
    try:
        _check_points(~ok if grid else not ok, HyperbolicityViolation, disc)
    except HyperbolicityViolation as exc:
        locate(exc, t, xi, at_point)
        raise
    return disc


def _second_order_node(op2: Operator2, xi: np.ndarray):
    """The integrand of the second-order cell at ``xi``: ``node(t)`` is the
    principal-discriminant drift and the weighted lower-order combination over
    sqrt(disc + 1), as :func:`_condition_node` forms its integrand."""
    parts = op2._weights(xi, "parts")

    def node(t: float) -> list[float]:
        a, b, c0, cc, _ = op2._add(parts, 5, t)  # every jet real: no .real
        # negative within the tolerance band: weakly hyperbolic
        disc = max(_second_order_disc(a[0], b[0], t, xi, None), 0.0)
        disc_dt = 2.0 * a[0] * a[1] - 4.0 * b[1]
        ia = abs(disc_dt) / (disc + 1.0)
        num = -0.5 * c0[0] * a[0] + cc[0] - 0.5 * a[1]
        ib = abs(num) / math.sqrt(disc + 1.0)
        return [ia, ib]
    return node


def second_order_check(op2: Operator2, xi: np.ndarray):
    """The two second-order integrals: principal-discriminant drift and the
    weighted lower-order combination over sqrt(disc + 1)."""
    _, res = _cell_integrals(op2, xi, _second_order_node)
    return float(res.values[0]), float(res.values[1])


def second_order_report(op2: Operator2, ladder: Sequence[float], direction: np.ndarray) -> dict:
    check_condition_ladder(ladder)
    ts = np.linspace(0.0, op2.horizon, VALIDATION_T_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):  # _second_order_disc names an overflow
        for xi in (mag * direction for mag in ladder):  # the hyperbolicity scan, before any cell
            a, b, *_ = op2._add(op2._weights(xi, "parts"), 5, ts)  # every jet real: no .real
            # the first failing time raises its own error
            _second_order_disc(a[0], b[0], ts, xi, _second_order_node(op2, xi))
    keys = ("disc_drift", "lower_weighted")
    kept = op2._keeping_jets()  # the cells share their jets
    rows = [{"xi": mag, **dict(zip(keys, second_order_check(kept, mag * direction)))}
            for mag in ladder]
    fits = {k: log_fit([(r["xi"], r[k]) for r in rows]) for k in keys}
    return {"rows": rows, "fits": fits, "verdicts": {k: f.verdict for k, f in fits.items()}}


# --------------------------------------------------------------------------
# Oscillation counts


def _count_extrema(values: np.ndarray) -> int:
    floor = 1e-9 * (float(np.max(np.abs(values))) + 1.0)
    d = np.diff(values)
    rising = d[np.abs(d) >= floor] > 0  # floor > 0: a flat step or a NaN is no step
    return int(np.count_nonzero(rising[1:] != rising[:-1]))


def oscillation_count(op: Operator3, xi: np.ndarray, target: str = "gap",
                      nt: int = 4096) -> dict[str, int]:
    """Strict-local-extrema counts of a scalar trace along each root branch.

    Targets: ``gap`` (auxiliary-root separations), ``m_at_aux`` (corrected
    order-2 symbol modulus along auxiliary roots), ``n_at_auxcrit``
    (corrected order-1 symbol modulus along the auxiliary critical points).
    """
    if target not in ("gap", "m_at_aux", "n_at_auxcrit"):
        raise ValueError(f"unknown oscillation target {target!r}")
    g = symbol_grid(op, np.linspace(0.0, op.horizon, nt), xi)
    mc, nc = _corrected(g)
    if target == "gap":
        traces = {f"gap[{j}{k}]": abs(g.lam[j] - g.lam[k]) for j, k in _SS2}
    elif target == "m_at_aux":
        traces = {f"m_at_aux[{j}]": abs(_horner(mc, g.lam[j])) for j in range(3)}
    else:
        traces = {f"n_at_auxcrit[{j}]": abs(_horner(nc, g.mu[j])) for j in (0, 1)}
    return {name: _count_extrema(vals) for name, vals in traces.items()}
