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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cubic import _SS2, _SS3, delta1, delta1_dt, discriminant, discriminant_dt, solve_cubic_real
from .errors import OperatorSpecError
from .operators import (VALIDATION_T_SAMPLES, Operator2, Operator3, Symbols, TauPoly,
                        _symbols_at, symbol_grid)
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
    "n_levi_crit",    # order-1 Levi at principal critical points
) + tuple(f"sqrt_n[{s}/{d}]" for s in _SQRT_N_SOURCES for d in _SQRT_N_DENOMS)

#: which primary each alternate is banded against
ALTERNATE_PRIMARY = {k: ("n_levi" if k.startswith(("sqrt_n", "n_levi")) else
                         ("m_levi" if k == "m_levi_roots" else
                          ("dm_span" if k == "dm_crit" else "m_levi")))
                     for k in ALTERNATE_KEYS}


def default_ladder(lo: float = 2.0 ** 6, hi: float = 2.0 ** 14, steps: int = 9) -> list[float]:
    if steps < 2:
        return [float(lo)]
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    return [float(lo) * ratio ** k for k in range(steps)]


# --------------------------------------------------------------------------
# Per-cell integrand


def _primary_terms(s: Symbols):
    """The six primary integrands (in ``PRIMARY_KEYS`` order), at one time
    or pointwise on a grid, from the auxiliary roots with their first two
    time derivatives and the auxiliary critical points ``mu`` with their
    first; also returns |corrected order-1 symbol| at the two ``mu``, which
    the energy envelope reuses."""
    lam, ld1, ld2, mc, nc, mu, mu_d1 = s.lam, s.lam_d1, s.lam_d2, s.mc, s.nc, s.mu, s.mu_d1
    sep = vel = 0.0
    for j, k in _SS2:
        sep += abs(ld1[j] - ld1[k]) / abs(lam[j] - lam[k])
        vel += abs(ld2[j] - ld2[k]) / (abs(ld1[j] - ld1[k]) + 1.0)

    m_drift = m_levi = 0.0
    for j, k, l in _SS3:
        mv, mdot = mc.along_root(lam[j], ld1[j])
        m_drift += abs(mdot) / (abs(mv) + 1.0)
        m_levi += abs(mv) / (abs(lam[j] - lam[k]) * abs(lam[j] - lam[l]))

    mu_gap = mu[1] - mu[0]
    n_drift = n_levi = 0.0
    n_abs = []
    for j in (0, 1):
        nv, ndot = nc.along_root(mu[j], mu_d1[j])
        n_drift += abs(ndot) / (abs(nv) + 1.0)
        n_levi += np.sqrt(abs(nv) / mu_gap)
        n_abs.append(abs(nv))
    return [sep, vel, m_drift, n_drift, m_levi, n_levi], n_abs


def _integrand_values(op: Operator3, t: float, xi: np.ndarray) -> np.ndarray:
    """Every condition integrand, primary then alternate, at one time."""
    s = _symbols_at(op, t, xi)
    out, _ = _primary_terms(s)
    c, mc, nc, tau, lam, mu = s.c, s.mc, s.nc, s.tau, s.lam, s.mu
    s1, s2 = s.crit
    span_p1 = tau[2] - tau[0] + 1.0
    crit_gap_p1 = s2 - s1 + 1.0
    rms_p1 = math.sqrt(max(delta1(c), 0.0)) + 1.0
    aux_rms = math.sqrt(max(delta1(s.reg), 0.0))
    aux_span = lam[2] - lam[0]

    m_levi_roots = 0.0
    for j, k, l in _SS3:
        m_levi_roots += abs(mc.value_at(tau[j])) / (
            (abs(tau[j] - tau[k]) + 1.0) * (abs(tau[j] - tau[l]) + 1.0))
    dm_span = (abs(mc.at(tau[0]).d_tau) + abs(mc.at(tau[2]).d_tau)) / span_p1
    dm_crit = (abs(mc.at(s1).d_tau) + abs(mc.at(s2).d_tau)) / crit_gap_p1
    n_levi_crit = sum(math.sqrt(abs(nc.value_at(s)) / crit_gap_p1) for s in (s1, s2))
    out += [m_levi_roots, dm_span, dm_crit, n_levi_crit]

    sources = {
        "crit": (abs(nc.value_at(s1)), abs(nc.value_at(s2))),
        "auxcrit": (abs(nc.value_at(mu[0])), abs(nc.value_at(mu[1]))),
        "roots": tuple(abs(nc.value_at(x)) for x in tau),
        "aux": tuple(abs(nc.value_at(x)) for x in lam),
    }
    denoms = {
        "crit_gap_p1": crit_gap_p1,
        "auxcrit_gap": mu[1] - mu[0],
        "rms_gap_p1": rms_p1,
        "aux_rms_gap": aux_rms,
        "span_p1": span_p1,
        "aux_span": aux_span,
    }
    for s in _SQRT_N_SOURCES:
        for d in _SQRT_N_DENOMS:
            out.append(sum(math.sqrt(v / denoms[d]) for v in sources[s]))
    return np.array(out)


@dataclass(frozen=True)
class ConditionCell:
    """All condition integrals at one frequency."""

    xi_mag: float
    direction: tuple[float, ...]
    values: dict[str, float]
    alternates: dict[str, float]
    panels: int
    rel_change: float


def condition_integrals(op: Operator3, xi: np.ndarray, *, rel_tol: float = 1e-6) -> ConditionCell:
    """Integrate every condition integrand, primary and alternate, over
    [0, horizon].

    All integrands share one symbol evaluation per quadrature node; the
    auxiliary-root denominators are bounded below uniformly, so the
    integrands are bounded (if steep near degeneracy times).
    """
    mag = float(np.linalg.norm(xi))
    if mag < 2.0:
        raise OperatorSpecError("condition integrals need |xi| >= 2")
    res = adaptive_gauss(lambda t: _integrand_values(op, t, xi),
                         0.0, op.horizon, rel_tol=rel_tol)
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
    if len(rows) < 5:
        raise OperatorSpecError("log_fit needs at least 5 ladder points")
    xs = [x for x, _ in rows]
    if max(xs) / min(xs) < 8.0 * (1.0 - 1e-9):
        raise OperatorSpecError("log_fit needs the ladder to span at least 3 doublings")
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
    operator: str
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


def condition_report(op: Operator3, ladder: Sequence[float] | None = None,
                     direction: np.ndarray | None = None) -> ConditionReport:
    ladder = list(ladder) if ladder is not None else default_ladder()
    d = direction if direction is not None else np.eye(op.dim)[0]
    cells = [condition_integrals(op, mag * d) for mag in ladder]
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
    return ConditionReport(op.name, cells, fits, verdicts, bands)


# --------------------------------------------------------------------------
# Pointwise bounds with degeneracy-class split


@dataclass
class CaseReport:
    case: str                      # "I" | "II" | "III"
    ambiguous: bool
    disc_rel_max: float
    delta1_rel_max: float
    checks: dict[str, dict] = field(default_factory=dict)


def _poly_scale(poly: TauPoly, tau: float) -> float:
    """Magnitude of the terms forming the polynomial at tau: the natural
    scale for deciding whether its value is zero. Vanishing tests at
    (near-)multiple roots pass the root span as ``tau``, since such roots
    carry an intrinsic sqrt(eps)-level location error amplified by the span."""
    acc = 1.0
    w = 1.0 + abs(tau)
    for k, c in enumerate(poly.coeffs):
        acc += abs(c.v) * w ** k
    return acc


def _guarded_ratio(num, den, tiny: float):
    """Pointwise num / den for num, den >= 0. Where den vanishes (<= tiny)
    the ratio is 0 if num vanishes too and +inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _sup_branches(case: str, g: Symbols, one_dim: bool):
    """Yield (name, branches) for each grid-supremum check that applies to
    degeneracy case I or II on the symbol grid ``g``; a branch is a tuple
    (num, den, num scale, den scale) of arrays over the grid."""
    c, mc, nc, tau, t = g.c, g.mc, g.nc, g.tau, g.t
    s = c.coeff_scale()
    if case == "II":
        dbl, simple = _double_root(tau)
        q, _rem = mc.divide_linear(dbl)
        root_d1 = np.sqrt(np.maximum(delta1(c), 0.0))
        rhs = root_d1 + _guarded_ratio(abs(delta1_dt(c)), 2.0 * root_d1, 0.0)
        yield "quotient_disc_bound", [(abs(q[0] + q[1] * r), rhs, _poly_scale(mc, r), s)
                                      for r in (dbl, simple)]
        return

    root_disc = np.sqrt(np.maximum(discriminant(c), 0.0))
    rhs_m = root_disc + _guarded_ratio(abs(discriminant_dt(c)), 2.0 * root_disc, 0.0)
    yield "m_disc_bound", [(abs(tau[k] - tau[l]) * abs(mc.value_at(tau[j])), rhs_m,
                            (1.0 + abs(tau[k] - tau[l])) * _poly_scale(mc, tau[j]), s ** 2)
                           for j, k, l in _SS3]
    gap_sq = g.crit_gap_sq
    gap = np.sqrt(np.maximum(gap_sq, 0.0))
    dgap_sq = (8.0 / 9.0) * c.a1.v.real * c.a1.d1.real - (4.0 / 3.0) * c.a2.d1.real
    rhs_n = gap + _guarded_ratio(dgap_sq ** 2, gap_sq ** 1.5, 0.0)
    yield "n_disc_bound", [(abs(nc.value_at(x)), rhs_n, _poly_scale(nc, x), 1.0 + gap)
                           for x in g.crit]
    if one_dim:
        yield "m_bound_n1", [
            (abs(t) * abs(mc.value_at(tau[j])), abs(tau[j] - tau[k]) * abs(tau[j] - tau[l]),
             (1.0 + abs(t)) * _poly_scale(mc, tau[j]),
             (1.0 + abs(tau[j] - tau[k])) * (1.0 + abs(tau[j] - tau[l])))
            for j, k, l in _SS3]
        yield "n_bound_n1", [(t * t * abs(nc.value_at(x)), gap,
                              (1.0 + t * t) * _poly_scale(nc, x), 1.0 + gap)
                             for x in g.crit]


def pointwise_levi(op: Operator3, ladder: Sequence[float] | None = None,
                   direction: np.ndarray | None = None) -> CaseReport:
    """Classify the degeneracy case on the validation grid and evaluate the
    pointwise bounds that apply to it, as grid suprema on that grid and on
    one ``FINE_GRID_FACTOR`` times finer (a refinement-growing supremum is
    reported as an unbounded trend)."""
    ladder = list(ladder) if ladder is not None else default_ladder()
    d = direction if direction is not None else np.eye(op.dim)[0]
    ts_base = np.linspace(0.0, op.horizon, VALIDATION_T_SAMPLES)
    ts_fine = np.linspace(0.0, op.horizon, VALIDATION_T_SAMPLES * FINE_GRID_FACTOR)
    base = [symbol_grid(op, ts_base, mag * d) for mag in ladder]

    # -- case classification: grid max of the two discriminants, relative to
    # their natural polynomial scales
    disc_rel = max(float(np.max(abs(discriminant(g.c)) / g.c.coeff_scale() ** 4)) for g in base)
    d1_rel = max(float(np.max(abs(delta1(g.c)) / g.c.coeff_scale() ** 2)) for g in base)
    dead_lo, dead_hi = 1e-10, 1e-7
    ambiguous = dead_lo <= disc_rel < dead_hi or dead_lo <= d1_rel < dead_hi
    disc_zero = disc_rel < dead_hi
    d1_zero = d1_rel < dead_hi
    case = "I" if not disc_zero else ("II" if not d1_zero else "III")
    report = CaseReport(case, ambiguous, disc_rel, d1_rel)

    if case == "III":  # a single clustered triple root everywhere
        parts = []
        for g in base:
            r1 = -g.c.a1.v.real / 3.0
            s = g.c.coeff_scale()
            sj = g.mc.at(r1)
            parts.append([float(np.max(abs(x) / s))
                          for x in (sj.value, sj.d_tau, g.nc.value_at(r1))])
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
            scale = _poly_scale(g.mc, g.tau[2] - g.tau[0])
            vanish.append(float(np.max(abs(g.mc.value_at(dbl)) / scale)))
            rems.append(float(np.max(abs(g.mc.divide_linear(dbl)[1]) / scale)))
        report.checks["m_vanishes_on_double"] = {
            "max_rel": vanish,
            "verdict": "satisfied" if max(vanish) < 1e-6 else "violated",
        }
        report.checks["division_remainder"] = {
            "max_rel": rems,
            "verdict": "bounded" if max(rems) < 1e-6 else "reported",
        }

    def grid_sups(grids) -> dict[str, list[float]]:
        sups: dict[str, list[float]] = {}
        for g in grids:
            for name, branches in _sup_branches(case, g, op.dim == 1):
                sups.setdefault(name, []).append(_grid_sup(branches))
        return sups

    sup_base = grid_sups(base)
    del base  # each fine grid is built, used and dropped in turn
    sup_fine = grid_sups(symbol_grid(op, ts_fine, mag * d) for mag in ladder)
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
    zero imaginary part."""
    if c2.imag == 0.0 and c1.imag == 0.0 and c0.imag == 0.0:
        from .cubic import cubic_from_floats
        from .errors import HyperbolicityViolation
        try:
            r = solve_cubic_real(cubic_from_floats(c2.real, c1.real, c0.real))
            return np.array(r.r, dtype=complex)
        except HyperbolicityViolation:
            pass
    return np.roots([1.0, c2, c1, c0])


def constant_coeff_check(op: Operator3, ladder: Sequence[float] | None = None,
                         direction: np.ndarray | None = None) -> dict:
    """Decomposition coefficients and forbidden-zone test for operators with
    constant coefficients (rejected otherwise).

    A vanishing root gap against a non-vanishing numerator is recorded as an
    immediately unbounded decomposition, not raised.
    """
    if not op.is_constant():
        raise OperatorSpecError("constant-coefficient check needs constant coefficients")
    ladder = list(ladder) if ladder is not None else default_ladder()
    d = direction if direction is not None else np.eye(op.dim)[0]
    t0 = 0.0

    rows = []
    for mag in ladder:
        g = symbol_grid(op, [t0], mag * d)
        c, m, n, tau, (s1, s2) = g.c, g.m, g.n, g.tau, g.crit
        tiny = 1e-12 * c.coeff_scale()
        ell = [_guarded_ratio(abs(m.value_at(tau[j])), abs((tau[j] - tau[k]) * (tau[j] - tau[l])),
                              tiny) for j, k, l in _SS3]
        msplit = [_guarded_ratio(abs(n.value_at(sa)), abs(sa - sb), tiny)
                  for sa, sb in ((s1, s2), (s2, s1))]
        full = (c.a1.v + m.coeffs[2].v, c.a2.v + m.coeffs[1].v + n.coeffs[1].v,
                c.a3.v + m.coeffs[0].v + n.coeffs[0].v + g.p.v)
        roots = _roots_full_cubic(*(complex(x[0]) for x in full))
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


def second_order_check(op2: Operator2, xi: np.ndarray):
    """The two second-order integrals: principal-discriminant drift and the
    weighted lower-order combination over sqrt(disc + 1)."""
    def integrand(t: float) -> np.ndarray:
        a, b, c0, cc, _ = op2.symbol_parts(t, xi)
        disc = a.v.real ** 2 - 4.0 * b.v.real
        disc_dt = 2.0 * a.v.real * a.d1.real - 4.0 * b.d1.real
        ia = abs(disc_dt) / (disc + 1.0)
        num = -0.5 * c0.v.real * a.v.real + cc.v.real - 0.5 * a.d1.real
        ib = abs(num) / math.sqrt(disc + 1.0)
        return np.array([ia, ib])

    res = adaptive_gauss(integrand, 0.0, op2.horizon)
    return float(res.values[0]), float(res.values[1])


def second_order_report(op2: Operator2, ladder: Sequence[float] | None = None,
                        direction: np.ndarray | None = None) -> dict:
    ladder = list(ladder) if ladder is not None else default_ladder()
    d = direction if direction is not None else np.eye(op2.dim)[0]
    rows = [(mag,) + second_order_check(op2, mag * d) for mag in ladder]
    fit_a = log_fit([(r[0], r[1]) for r in rows])
    fit_b = log_fit([(r[0], r[2]) for r in rows])
    return {
        "rows": [{"xi": r[0], "disc_drift": r[1], "lower_weighted": r[2]} for r in rows],
        "fits": {"disc_drift": fit_a, "lower_weighted": fit_b},
        "verdicts": {"disc_drift": fit_a.verdict, "lower_weighted": fit_b.verdict},
    }


# --------------------------------------------------------------------------
# Oscillation counts


def _count_extrema(values: np.ndarray) -> int:
    floor = 1e-9 * (float(np.max(np.abs(values))) + 1.0)
    diffs = np.diff(values)
    signs = [1 if d > 0 else -1 for d in diffs if abs(d) >= floor]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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
    if target == "gap":
        traces = {f"gap[{j}{k}]": abs(g.lam[j] - g.lam[k]) for j, k in _SS2}
    elif target == "m_at_aux":
        traces = {f"m_at_aux[{j}]": abs(g.mc.value_at(g.lam[j])) for j in range(3)}
    else:
        traces = {f"n_at_auxcrit[{j}]": abs(g.nc.value_at(g.mu[j])) for j in (0, 1)}
    return {name: _count_extrema(vals) for name, vals in traces.items()}
