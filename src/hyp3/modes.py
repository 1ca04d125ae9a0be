"""Single Fourier modes of the full equation: integration, factorized
operators, the weighted energy, and growth-exponent experiments.

One mode is the time ODE obtained at fixed spatial frequency xi:
``v''' + sum a_{j,alpha}(t) (i xi)^alpha v^(j) = 0``. Factor operators are
first-order in d_t with the regularized roots as coefficients; their
compositions are evaluated by numerically differentiating the inner traces
(fourth-order central differences), so the operator identities are checked
through a route independent of the implicit root derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditions import _corrected, _primary_terms, check_ladder
from .cubic import _NORMAL_MIN, _SS2, _root_dt, _simple_root_gap
from .cubic import solve_cubic_real  # noqa: F401  (a binding perfbench/tests checks)
from .errors import (ExprDomainError, MagnusStepError, OperatorSpecError, _check_points,
                     _nonfinite, locate)
from .expr import _bind, _define, _emit
from .operators import Operator3, Symbols, _weight_overflow, symbol_grid

__all__ = [
    "ModeSolution",
    "FactorTraces",
    "EnergyTrace",
    "GrowthFit",
    "solve_mode",
    "factor_apply",
    "identity_residuals",
    "energy_trace",
    "calibrate_eta",
    "growth_experiment",
]

ETA_LADDER = tuple(2 ** k for k in range(11))

#: relative and absolute tolerances of the mode integrator
MODE_RTOL = 1e-10
MODE_ATOL = 1e-12


# --------------------------------------------------------------------------
# Mode integration


def solve_ivp(fun, y0, t_eval: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """DOP853 on three complex numbers from t_eval[0] to t_eval[-1], as
    scipy's ``solve_ivp(method="DOP853")`` at MODE_RTOL and MODE_ATOL: its
    tableau, initial step, step controller (safety 0.9, factors 0.2 to 10,
    exponent -1/8, a floor of ten spacings of the doubles at t) and dense
    output at each time of t_eval, step ends included, with the stages as
    straight-line code (``hyp3._dop853``, imported at the first solve).
    ``fun(t, y)`` takes and returns 3-tuples; returns the times of t_eval
    reached, the (3, len(t)) states there and nfev. A non-finite state raises
    nothing: its steps are rejected down to the floor, which ends the solve."""
    from ._dop853 import _first_step, attempt, dense
    ts = t_eval.tolist()
    t, t_end, i, out = ts[0], ts[-1], 0, []
    y0 = np.array(y0, dtype=complex)
    h_abs, f, nfev = _first_step(fun, t, y0, t_end)
    y, f = tuple(y0.tolist()), tuple(f.tolist())
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while h_abs >= min_step:  # a NaN step fails too: scipy loops for ever
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            error, y_new, stages = attempt(fun, t, h, y, f)
            nfev += 12
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        else:  # the step fell below its floor
            break
        if i < len(ts) and ts[i] <= t_new:  # the interpolant of the step
            poly = dense(fun, t, h, y, y_new, stages)
            nfev += 3
            while i < len(ts) and ts[i] <= t_new:  # the rows times x and 1 - x in turn
                x = (ts[i] - t) / h
                u = 1.0 - x
                out.append([(((((((p6 * x + p5) * u + p4) * x + p3) * u + p2) * x + p1) * u + p0)
                             * x + yj) for yj, p0, p1, p2, p3, p4, p5, p6 in poly])
                i += 1
        t, y, f = t_new, y_new, stages[12]
    return t_eval[:i], np.array(out, dtype=complex).reshape(i, 3).T, nfev


def _ode_coefficients(op: Operator3, xi: np.ndarray):
    """Complex coefficients g_j(t) of v''' = -(g2 v'' + g1 v' + g0 v), g_j collecting
    a_{j,alpha} (i xi)^alpha, at one time or at each time of an array, and rhs(t, y), straight-line
    code; a domain error or a non-finite value names its point (on an array, the first)."""
    terms: list[list] = [[], [], []]
    for (j, alpha), fn in op.coeffs.items():
        w = complex(1.0)
        try:
            for x, a in zip(xi, alpha):
                w *= (1j * float(x)) ** a
        except OverflowError:
            w = complex(math.inf)
        if not cmath.isfinite(w):
            raise _weight_overflow(xi)
        if w != 0:
            terms[j].append((w, fn))
    names, body = {"xi": xi, "locate": locate, "isfinite": cmath.isfinite}, []
    for j, tj in enumerate(terms):
        body.append(f"g{j} = {_bind(complex(0.0), names)}")
        for w, fn in tj:
            x = _emit(fn.ast, body, names)
            body.append(f"g{j} = g{j} + {_bind(w, names)} * {x}")
    body.append("if not isfinite(g0 + g1 + g2) and not (isfinite(g0) and isfinite(g1) and "
                "isfinite(g2)): raise ExprDomainError('non-finite coefficient value')")

    def coeffs_at(t):
        try:
            g = [sum((w * fn.value(t) for w, fn in tj), complex(0.0)) for tj in terms]
            _check_points(_nonfinite(g), ExprDomainError, "non-finite coefficient value")
        except ExprDomainError as exc:
            locate(exc, t, xi, coeffs_at)
            raise
        return g
    lines = ["t = float(t)", "try:", *(f"    {s}" for s in body),
             "except ExprDomainError as exc: locate(exc, t, xi, None); raise"]
    if all(fn.is_constant for tj in terms for _, fn in tj):  # (i xi)^alpha may drop t
        names.update(zip(("g0", "g1", "g2"), g := coeffs_at(0.0)))
        lines = []
    rhs = _define("rhs(t, y)", [*lines, "y0, y1, y2 = y",
                                "return y1, y2, -(g0 * y0 + g1 * y1 + g2 * y2)"], names)
    return (coeffs_at if lines else lambda _t: g), rhs


@dataclass
class ModeSolution:
    xi: np.ndarray
    t: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray          # from the equation itself
    nfev: int
    blowup: bool            # stopped short of the horizon, or overflowed

    def grid_step(self) -> float:
        return float(self.t[1] - self.t[0])

    def residual(self) -> float:
        """Relative residual of the full equation with v''' re-derived by
        fourth-order finite differences from the v'' trace."""
        res = _fd(self.v2, self.grid_step())[2:-2] - self.v3[2:-2]
        return float(np.max(np.abs(res)) / max(float(np.max(np.abs(self.v2))), 1e-300))


def _mode_grid(op: Operator3, xi: np.ndarray, grid_points: int):
    """The uniform output grid of a mode over [0, horizon], at a frequency
    whose |xi|^2 the doubles hold, neither 0 nor inf."""
    with np.errstate(over="ignore"):
        mag = np.linalg.norm(xi)
    if not 0.0 < mag < math.inf:
        raise OperatorSpecError(f"mode frequency |xi|^2 must be positive and finite in "
                                f"doubles, not at xi={xi}")
    if grid_points < 64:
        raise OperatorSpecError("grid_points must be >= 64")
    return np.linspace(0.0, float(op.horizon), grid_points)


def solve_mode(op: Operator3, xi: np.ndarray, init=(1.0, 0.0, 0.0),
               grid_points: int = 1024) -> ModeSolution:
    """Integrate one mode from the initial vector ``init = (v, v', v'')``
    with an adaptive high-order explicit scheme and dense uniform output.

    Step-size underflow or overflow of the state is not an error: the
    solution is truncated at the reached time and flagged (a data point for
    ill-posed operators in its own right).
    """
    t_eval = _mode_grid(op, xi, grid_points)
    y0 = np.array(init, dtype=complex)
    if y0.shape != (3,):
        raise ValueError("init must have shape (3,)")
    coeff, rhs = _ode_coefficients(op, xi)
    t, y, nfev = solve_ivp(rhs, y0, t_eval)
    blowup = len(t) < grid_points or not np.all(np.isfinite(y))
    t, (v, v1, v2) = (t, y) if len(t) else (t_eval[:1], y0[:, None])
    g0, g1, g2 = coeff(t)
    with np.errstate(over="ignore", invalid="ignore"):
        v3 = -(g0 * v + g1 * v1 + g2 * v2)
    return ModeSolution(np.asarray(xi, dtype=float), t, v, v1, v2, v3, nfev, blowup)


# --------------------------------------------------------------------------
# Factor operators on trajectories


def _fd(trace: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences along the last axis; the two points
    at each edge are NaN and excluded from residual norms."""
    out = np.full_like(trace, np.nan)
    out[..., 2:-2] = (-trace[..., 4:] + 8.0 * trace[..., 3:-1] - 8.0 * trace[..., 1:-3]
                      + trace[..., :-4]) / (12.0 * h)
    return out


@dataclass
class FactorTraces:
    """First-order factors, their symmetrized pair/triple combinations, and
    the symmetric-function data of the (regularized) roots on the grid."""

    tau: np.ndarray      # (3, N) regularized roots
    tau_d1: np.ndarray
    tau_d2: np.ndarray
    lv: np.ndarray       # (3, N) first-order factor traces
    pair: dict           # (j, h) -> plain pair trace
    pair_sym: dict       # (j, h) -> symmetrized pair trace
    triple: np.ndarray   # symmetrized triple trace
    mask: np.ndarray     # grid points with valid root jets


def factor_apply(op: Operator3, sol: ModeSolution) -> FactorTraces:
    """Apply the factor operators of the unit-regularized roots along the
    trajectory; those roots are uniformly separated, so the mask is
    everywhere true."""
    return _regularized_factors(symbol_grid(op, sol.t, sol.xi), sol)


def _regularized_factors(g: Symbols, sol: ModeSolution) -> FactorTraces:
    return _factor_traces(sol, g.lam, g.lam_d1, g.lam_d2, np.ones(len(sol.t), dtype=bool))


def _plain_factors(g: Symbols, sol: ModeSolution) -> FactorTraces:
    """Factor traces of the plain roots. Grid points where they nearly
    collide are masked out: their jets are not defined."""
    gap, thr = _simple_root_gap(g.tau)
    mask = ~(gap <= thr)
    a1, a2, a3 = g.a1, g.a2, g.a3
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1, d2 = (np.where(mask, np.array(d), np.nan) for d in _root_dt(
            a1[0], a2[0], a1[1], a2[1], a3[1], a1[2], a2[2], a3[2], g.tau))
    return _factor_traces(sol, g.tau, d1, d2, mask)


def _factor_traces(sol: ModeSolution, tau, d1, d2, mask) -> FactorTraces:
    v, v1, v2, v3 = sol.v, sol.v1, sol.v2, sol.v3
    lv = np.array([v1 - 1j * tau[j] * v for j in range(3)])
    pair = {}
    pair_sym = {}
    for j, h in _SS2:
        pjh = v2 - 1j * (tau[j] + tau[h]) * v1 - tau[j] * tau[h] * v
        pair[(j, h)] = pjh
        pair_sym[(j, h)] = pjh - 0.5j * (d1[j] + d1[h]) * v

    e1 = tau.sum(axis=0)
    e2 = tau[0] * tau[1] + tau[1] * tau[2] + tau[2] * tau[0]
    e3 = tau[0] * tau[1] * tau[2]
    e1_d1 = d1.sum(axis=0)
    e1_d2 = d2.sum(axis=0)
    e2_d1 = (d1[0] * tau[1] + tau[0] * d1[1] + d1[1] * tau[2] + tau[1] * d1[2]
             + d1[2] * tau[0] + tau[2] * d1[0])
    triple = (v3 - 1j * e1 * v2 - (e2 + 1j * e1_d1) * v1
              + (1j * e3 - 0.5 * e2_d1 - (1j / 3.0) * e1_d2) * v)
    return FactorTraces(tau, d1, d2, lv, pair, pair_sym, triple, mask)


def _compose_pair(ft: FactorTraces, sol: ModeSolution, j: int, h: int) -> np.ndarray:
    w = ft.lv[h]
    return _fd(w, sol.grid_step()) - 1j * ft.tau[j] * w


def _compose_triple(ft: FactorTraces, sol: ModeSolution, j: int, h: int, l: int) -> np.ndarray:
    h_step = sol.grid_step()
    w = ft.lv[l]
    u = _fd(w, h_step) - 1j * ft.tau[h] * w
    return _fd(u, h_step) - 1j * ft.tau[j] * u


def _apply_symbol(values, order: int, derivs) -> np.ndarray:
    """Mode application of a stored real-monomial symbol: the tau^k
    coefficient pairs with i^(order-k) and the k-th time derivative."""
    acc = 0.0
    for k, c in enumerate(values):
        acc = acc + (1j ** (order - k)) * c * derivs[k]
    return acc


def _rel_residual(res: np.ndarray, scale: np.ndarray, mask: np.ndarray) -> float:
    good = mask & np.isfinite(res)
    if not np.any(good):
        return math.nan
    return float(np.max(np.abs(res[good])) / max(float(np.max(np.abs(scale[good]))), 1e-300))


def identity_residuals(op: Operator3, sol: ModeSolution) -> dict[str, float]:
    """Relative residuals of the factorization identities along one
    trajectory; compositions go through finite differences, the right-hand
    sides through root jets and symbol jets (independent routes)."""
    g = symbol_grid(op, sol.t, sol.xi)
    ft = _regularized_factors(g, sol)
    ft0 = _plain_factors(g, sol)
    n = len(sol.t)
    interior = np.zeros(n, dtype=bool)
    interior[4:-4] = True  # two FD layers
    v, v1, v2, v3 = sol.v, sol.v1, sol.v2, sol.v3
    out = {}

    # pair commutator: composition minus symmetrized pair = (i/2)(tau_j'-tau_h') v
    worst = 0.0
    pair_scale = np.max(np.abs(np.array([ft.pair[p] for p in _SS2])), axis=0)
    for j, h in _SS2:
        lhs = _compose_pair(ft, sol, j, h) - ft.pair_sym[(j, h)]
        rhs = 0.5j * (ft.tau_d1[j] - ft.tau_d1[h]) * v
        worst = max(worst, _rel_residual(lhs - rhs, pair_scale, interior))
    out["pair_commutator"] = worst

    # triple commutator: ordered composition minus symmetrized triple
    lhs = _compose_triple(ft, sol, 0, 1, 2) - ft.triple
    rhs = (0.5j * (ft.tau_d1[0] - ft.tau_d1[1]) * ft.lv[2]
           + 0.5j * (ft.tau_d1[1] - ft.tau_d1[2]) * ft.lv[0]
           - 0.5j * (ft.tau_d1[2] - ft.tau_d1[0]) * ft.lv[1]
           - (1j / 3.0) * (2.0 * ft.tau_d2[2] - ft.tau_d2[0] - ft.tau_d2[1]) * v)
    out["triple_commutator"] = _rel_residual(lhs - rhs, ft.triple, interior)

    # regularized-shift identity: the eps-triple exceeds the plain triple by
    # exactly 2 eps^2 |xi|^2 (= 2 for the unit regularization) times the sum
    # of the eps-factors (the shift acts with a + in the factor-operator
    # world: substituting the imaginary root convention flips the sign of
    # the second root-variable derivative)
    shift = ft.triple - ft0.triple - 2.0 * ft.lv.sum(axis=0)
    scale = np.abs(ft.triple) + 2.0 * np.abs(ft.lv).sum(axis=0) + np.abs(ft0.triple)
    out["reg_vs_plain_factor"] = _rel_residual(shift, scale, interior & ft0.mask)

    # symmetrized plain triple vs the symbol route
    avg = np.zeros(n, dtype=complex)
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for p in perms:
        avg += _compose_triple(ft0, sol, *p)
    avg /= 6.0
    a1, a2, a3, (mc, nc) = g.a1, g.a2, g.a3, _corrected(g)
    derivs = (v, v1, v2, v3)
    sym = (_apply_symbol((a3[0], a2[0], a1[0], 1.0), 3, derivs)
           + 0.5 * _apply_symbol((a2[1], 2.0 * a1[1]), 2, derivs)
           + (1.0 / 6.0) * _apply_symbol((2.0 * a1[2],), 1, derivs))
    m_tilde = (_apply_symbol(mc, 2, derivs)
               + 0.5 * _apply_symbol((g.mc1[1], 2.0 * g.m2[1]), 1, derivs))
    n_check = _apply_symbol(nc, 1, derivs)
    raw = (_apply_symbol((a3[0], a2[0], a1[0], 1.0), 3, derivs)
           + _apply_symbol((g.m0[0], g.m1[0], g.m2[0]), 2, derivs)
           + _apply_symbol((g.n0[0], g.n1[0]), 1, derivs))
    pv = g.p[0] * v
    out["factor_avg_vs_symbols"] = _rel_residual(avg - sym, sym, interior & ft0.mask)

    # the assembled full operator may vanish identically (zero forcing, zero
    # zeroth coefficient), so residuals compare against the component sizes
    lhs_dec = ft0.triple + m_tilde + n_check
    dec_scale = np.abs(ft0.triple) + np.abs(m_tilde) + np.abs(n_check) + np.abs(raw)
    out["decomposition_vs_symbols"] = _rel_residual(lhs_dec - raw, dec_scale,
                                                    interior & ft0.mask)
    out["decomposition_vs_equation"] = _rel_residual(lhs_dec + pv, dec_scale,
                                                     interior & ft0.mask)
    return out


# --------------------------------------------------------------------------
# Energy


@dataclass
class EnergyTrace:
    t: np.ndarray
    E: np.ndarray
    K: np.ndarray
    H: np.ndarray
    k: np.ndarray
    logE: np.ndarray
    eta: float

    def dlogE(self) -> np.ndarray:
        """Window-averaged slope of log E (bounded by sup E'/E)."""
        h = float(self.t[1] - self.t[0])
        return (self.logE[2:] - self.logE[:-2]) / (2.0 * h)

    def growth_constant(self) -> float:
        """Empirical constant of the E' <= (C - eta) K E shape."""
        g = self.dlogE()
        return self.eta + float(np.max(g / self.K[1:-1]))


def _energy_weights(op: Operator3, sol: ModeSolution):
    """Per-grid-point weight integrand K, envelope H, and the unweighted
    energy q: the squared symmetrized pair traces plus H^2 times the squared
    first-order factor traces and |v|^2."""
    g = symbol_grid(op, sol.t, sol.xi)
    ft = _regularized_factors(g, sol)
    terms, n_abs = _primary_terms(g)
    sgap = g.mu[1] - g.mu[0]
    # K is the sum of the six condition integrands plus log|xi|
    K = sum(terms) + math.log(float(np.linalg.norm(sol.xi)))
    H = 1.0 + terms[0] + terms[4] + sum(np.sqrt((a + 1.0) / sgap) for a in n_abs)
    pair_sq = sum(np.abs(ft.pair_sym[p]) ** 2 for p in _SS2)
    factor_sq = sum(np.abs(ft.lv[j]) ** 2 for j in range(3))
    return K, H, pair_sq + H ** 2 * (factor_sq + np.abs(sol.v) ** 2)


def energy_trace(op: Operator3, sol: ModeSolution, eta: float) -> EnergyTrace:
    """Assemble the weighted energy along a trajectory.

    All denominators are bounded below by the regularized gaps or by +1
    terms. ``k`` may underflow for very large eta; ``logE`` is exact."""
    if not 0.0 <= eta < math.inf:
        raise OperatorSpecError(f"eta must be finite and >= 0, not {eta}")
    return _energy_from_weights(sol, *_energy_weights(op, sol), eta)


def _energy_from_weights(sol, K, H, q, eta: float) -> EnergyTrace:
    t = sol.t
    h = float(t[1] - t[0])
    cumK = np.concatenate([[0.0], np.cumsum(0.5 * (K[1:] + K[:-1]) * h)])
    with np.errstate(under="ignore"):
        k = np.exp(-eta * cumK)
        E = k * q
    logE = np.log(np.maximum(q, 1e-300)) - eta * cumK
    return EnergyTrace(t, E, K, H, k, logE, eta)


def calibrate_eta(op: Operator3, sol: ModeSolution) -> tuple[float, EnergyTrace]:
    """Smallest eta in {1, 2, 4, ..., 1024} whose slope of log E has no
    spike: max_t d/dt log E <= 2 median_t |d/dt log E|."""
    weights = _energy_weights(op, sol)
    last = None
    for eta in ETA_LADDER:
        tr = _energy_from_weights(sol, *weights, float(eta))
        g = tr.dlogE()
        last = tr
        if float(np.max(g)) <= 2.0 * float(np.median(np.abs(g))):
            return float(eta), tr
    return float(ETA_LADDER[-1]), last


# --------------------------------------------------------------------------
# Growth experiments


@dataclass
class GrowthFit:
    rows: list  # dicts: xi, amplification, log_amp, half_log_amp, blowup, reach_time
    model: str  # "polynomial" | "exp_power"
    kappa: float            # exponent of the winning model (poly degree for polynomial)
    poly_degree: float
    poly_residual: float
    exp_residual: float


#: Magnus substeps evaluated and exponentiated together (bounds the memory)
_MAGNUS_BLOCK = 1024

#: coefficients of the degree-13 Pade approximant to exp, and the 1-norm up to
#: which it is exact to double precision (Higham, SIAM J. Matrix Anal. Appl. 2005)
_PADE13 = [math.perm(26 - k, 13) / (math.perm(26, 13) * math.factorial(k)) for k in range(14)]
_THETA13 = 5.371920351148152


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix products entry by entry on the (3, 3, ...) layout: matmul on an
    (N, 3, 3) stack loops over its matrices one at a time."""
    return (x[:, :, None] * y[None]).sum(axis=1)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (3, 3, N) stack by Pade-13 scaling and squaring:
    matrix i is scaled by 2^-s_i, s_i = max(0, ceil(log2(|A_i|_1 / theta13))),
    and its approximant squared s_i times. A result depends on its own matrix
    alone, bit for bit; a non-finite 1-norm gives NaN."""
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=0).max(axis=0)
        finite = np.isfinite(norm)
        frac, s = np.frexp(np.where(finite, norm, 0.0) / _THETA13)
        s = np.maximum(s - (frac == 0.5), 0)  # frexp gives ceil(log2) exactly
        x = np.where(finite, a, 0.0) * np.ldexp(1.0, -s)
        x2 = _mul(x, x)
        x4 = _mul(x2, x2)
        x6 = _mul(x4, x2)
        ident = np.eye(3)[:, :, None]
        u = _mul(x, _mul(x6, b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
        v = (_mul(x6, b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
        # (v - u) r = v + u by the adjugate: c holds the cofactors of v - u
        m, p, q = v - u, [1, 2, 0], [2, 0, 1]
        c = m[p][:, p] * m[q][:, q] - m[p][:, q] * m[q][:, p]
        r = _mul(c.swapaxes(0, 1), v + u) / (m[0] * c[0]).sum(axis=0)
        for i in (np.flatnonzero(s > k) for k in range(s.max(initial=0))):
            r[..., i] = _mul(r[..., i], r[..., i])
    return np.where(finite, r, np.nan)


def _balanced_matrix(g, mag: float) -> np.ndarray:
    """The mode's matrix A on the balanced state (v, v'/|xi|, v''/|xi|^2),
    from the coefficients at one time (3, 3) or at N times (3, 3, N)."""
    g0, g1, g2 = g
    entries = np.broadcast_arrays(0j, mag, 0.0, 0.0, 0.0, mag, -g0 / mag ** 2, -g1 / mag, -g2)
    return np.stack(entries).reshape((3, 3) + entries[0].shape)


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _mul(x, y) - _mul(y, x)


def _magnus_steps(g, t: np.ndarray, mag: float) -> int:
    """Magnus steps per output interval, from the coefficients g on the grid.
    The steps are exact for constant coefficients, so their error grows with
    how far the mode turns and how much A changes in a step: a step turns at
    most a third of a radian at the largest of |xi| and the cubic's root
    scale (the largest of |g2|, |g1|^(1/2), |g0|^(1/3)), and spans at most an
    eighth of the coefficients' time scale (largest deviation from the mean
    over largest change per unit time, blind to changes the grid misses)."""
    h = float(t[1] - t[0])
    g = np.broadcast_arrays(*g)
    speed = max(mag, *(float(np.max(np.abs(gj))) ** (1.0 / (3 - j)) for j, gj in enumerate(g)))
    devs = [float(np.max(np.abs(gj - gj.mean()))) for gj in g]
    jumps = [float(np.max(np.abs(np.diff(gj)))) for gj in g]
    # h * rate, at most 2 as a jump is at most 2 d: jump / d where h or h * d is
    # subnormal, as jump / (h * d) may overflow there
    h_rate = max((h * (x / (h * d)) if min(h, h * d) >= _NORMAL_MIN else x / d
                  for x, d in zip(jumps, devs) if d > 0), default=0.0)
    try:
        steps = math.ceil(max(h * (3.0 * speed), 8.0 * h_rate))
    except OverflowError:  # the count is inf
        steps = math.inf
    if not steps * (len(t) - 1) < 2 ** 62:  # every step of the grid has an int64 index
        raise MagnusStepError(steps, mag)
    return steps


def _magnus_fundamental(coeff, t: np.ndarray, mag: float, steps: int) -> np.ndarray:
    """Phi on the uniform grid from sixth-order Magnus steps, ``steps`` per
    output interval, each from the coefficients at three Gauss-Legendre
    nodes. A block of at most _MAGNUS_BLOCK steps shares one coefficient
    evaluation and one stacked exponential; an interval with more steps is
    split into equal parts. The steps of a part are multiplied pairwise into
    one propagator, and a block's propagators by prefix products."""
    n = len(t) - 1
    parts = -(-steps // _MAGNUS_BLOCK)
    q = -(-steps // parts)  # steps per part
    h = (t[-1] - t[0]) / (n * parts * q)
    per_block = _MAGNUS_BLOCK // q
    gauss = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
    phi = np.empty((3, 3, len(t)), dtype=complex)
    phi[..., 0] = x = np.eye(3, dtype=complex)
    for u0 in range(0, n * parts, per_block):
        u1 = min(n * parts, u0 + per_block)
        nodes = t[0] + h * (np.arange(u0 * q, u1 * q)[:, None] + gauss)
        a = _balanced_matrix(coeff(nodes.ravel()), mag).reshape(3, 3, -1, 3)
        a1, a2, a3 = np.moveaxis(a, -1, 0)  # at the three nodes of each step
        b1 = h * a2
        b2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
        b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
        c1 = _commutator(b1, b2)
        c2 = -_commutator(b1, 2.0 * b3 + c1) / 60.0
        e = _expm(b1 + b3 / 12.0 + _commutator(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0)
        e = e.reshape(3, 3, u1 - u0, q)
        while e.shape[-1] > 1:  # later steps multiply from the left
            half = e.shape[-1] // 2
            e = np.concatenate([_mul(e[..., 1:2 * half:2], e[..., :2 * half:2]),
                                e[..., 2 * half:]], axis=-1)
        e = e[..., 0]
        d = 1
        while d < u1 - u0:  # e[..., k] becomes the product of parts u0..u0 + k
            e[..., d:] = _mul(e[..., d:], e[..., :-d])
            d *= 2
        e = _mul(e, x[:, :, None])
        done = np.arange(u0, u1) % parts == parts - 1
        phi[..., (u0 + 1 + np.flatnonzero(done)) // parts] = e[..., done]
        x = e[..., -1]
    return phi


def _amplification(op: Operator3, xi: np.ndarray,
                   grid_points: int) -> tuple[float, float, bool, float]:
    """Amplification over the full horizon and over its first half (the
    same trajectories serve both), maximized over the canonical bases: the
    largest column 1-norm of the fundamental matrix Phi on the balanced
    state (v, v'/|xi|, v''/|xi|^2), where every basis starts at norm 1.
    Phi is exact for constant coefficients and built from Magnus steps
    otherwise. A non-finite Phi is a blow-up: the amplification is infinite,
    the half amplification 1, and the reach the grid time before it."""
    t = _mode_grid(op, xi, grid_points)
    mag = float(np.linalg.norm(xi))
    coeff, _ = _ode_coefficients(op, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        # the grid goes first, so that a domain error names its first time
        g = coeff(t)
        a = _balanced_matrix(g, mag)
        if a.ndim == 2:  # exp(t A) by doubling: Phi[n:2n] = exp(t_n A) Phi[:n]
            steps = 2 ** np.arange(int(len(t) - 1).bit_length())
            phi = np.repeat(np.eye(3, dtype=complex)[:, :, None], len(t), axis=2)
            for n, e in zip(steps.tolist(), np.moveaxis(_expm(a[..., None] * t[steps]), -1, 0)):
                phi[..., n:2 * n] = _mul(e[..., None], phi[..., :min(n, len(t) - n)])
        else:
            phi = _magnus_fundamental(coeff, t, mag, _magnus_steps(g, t, mag))
        w = np.abs(phi).sum(axis=0)  # (basis, N)
    finite = np.isfinite(w).all(axis=0)
    if not finite.all():
        return math.inf, 1.0, True, float(t[int(finite.argmin()) - 1])
    return float(np.max(w)), float(np.max(w[:, : (len(t) + 1) // 2])), False, float(t[-1])


def growth_experiment(op: Operator3, ladder: Sequence[float], direction: np.ndarray,
                      grid_points: int = 1024) -> GrowthFit:
    """Amplification ladder and model fit.

    The super-polynomial exponent is extracted from the second-half
    log-amplification (log amp over [0,T] minus log amp over [0,T/2]): for
    exp(c |xi|^kappa t) growth that difference is c |xi|^kappa T/2 exactly,
    and every t-independent prefactor (mode coefficients, initial-value
    normalization) cancels. The exp_power verdict needs that rate to be
    substantial and growing over the last three doublings; otherwise the
    polynomial model (degree = slope of log amp against log |xi|) wins."""
    check_ladder(ladder, "growth experiment")
    rows = []
    for mag in ladder:
        amp, amp_half, blowup, reach = _amplification(op, mag * direction, grid_points)
        rows.append({"xi": float(mag), "amplification": amp,
                     "log_amp": math.log(amp) if math.isfinite(amp) and amp > 0 else math.inf,
                     "half_log_amp": math.log(max(amp_half, 1e-300)),
                     "blowup": blowup, "reach_time": reach})

    finite = [r for r in rows if math.isfinite(r["log_amp"])]
    if len(finite) < 2:
        # everything blew up: trivially super-polynomial, exponent unresolved
        return GrowthFit(rows, "exp_power", math.nan, math.inf, math.inf, math.inf)
    xs = np.array([math.log(r["xi"]) for r in finite])
    las = np.array([r["log_amp"] for r in finite])
    deg, c_poly = np.polyfit(xs, las, 1)
    poly_res = float(np.max(np.abs(las - (deg * xs + c_poly))))

    # second-half rates; blown-up rows count as unbounded rates
    rates = [(math.log(r["xi"]),
              math.inf if r["blowup"] else r["log_amp"] - r["half_log_amp"])
             for r in rows]
    grow = [(x, v) for x, v in rates if v > math.log(2.0)]
    exp_res = math.nan
    if len(grow) >= 4 and all(v > math.log(2.0) for _, v in rates[-3:]):
        tail = [v for _, v in rates[-3:]]
        head = max(next(v for _, v in rates if math.isfinite(v)), math.log(2.0))
        increasing = all(math.isinf(v) for v in tail) or tail[-1] >= 2.0 * head
        if increasing:
            pts = [(x, math.log(v)) for x, v in grow if math.isfinite(v)]
            if len(pts) >= 3:
                gx = np.array([x for x, _ in pts])
                gl = np.array([y for _, y in pts])
                kappa, c_exp = np.polyfit(gx, gl, 1)
                exp_res = float(np.max(np.abs(gl - (kappa * gx + c_exp))))
                return GrowthFit(rows, "exp_power", float(kappa), float(deg),
                                 poly_res, exp_res)
    return GrowthFit(rows, "polynomial", float(deg), float(deg), poly_res, exp_res)
