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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .conditions import _primary_terms
from .cubic import _SS2, _root_derivatives, _simple_root_gap
from .cubic import solve_cubic_real  # noqa: F401  (a binding perfbench/tests checks)
from .errors import OperatorSpecError
from .operators import Operator3, Symbols, symbol_grid

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

#: canonical initial-data bases for experiments
CANONICAL_INITS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

ETA_LADDER = tuple(2 ** k for k in range(11))

#: relative and absolute tolerances of the mode integrator
MODE_RTOL = 1e-10
MODE_ATOL = 1e-12


# --------------------------------------------------------------------------
# Mode integration


def _ode_coefficients(op: Operator3, xi: np.ndarray):
    """Complex coefficients g_j(t) of v''' = -(g2 v'' + g1 v' + g0 v):
    g_j collects a_{j,alpha} (i xi)^alpha over all alpha."""
    terms: list[list] = [[], [], []]
    for (j, alpha), fn in op.coeffs.items():
        w = complex(1.0)
        for x, a in zip(xi, alpha):
            w *= (1j * float(x)) ** a
        if w != 0:
            terms[j].append((w, fn))
    if op.is_constant():
        g = [sum((w * fn.value(0.0) for w, fn in terms[j]), complex(0.0)) for j in range(3)]

        def coeff_fn(_t: float):
            return g
    else:
        def coeff_fn(t: float):
            return [sum((w * fn.value(t) for w, fn in terms[j]), complex(0.0))
                    for j in range(3)]
    return coeff_fn


@dataclass
class ModeSolution:
    op: Operator3
    xi: np.ndarray
    t: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray          # from the equation itself
    nfev: int
    success: bool
    reach_time: float       # horizon actually integrated to
    blowup: bool

    def grid_step(self) -> float:
        return float(self.t[1] - self.t[0])

    def residual(self) -> float:
        """Relative residual of the full equation with v''' re-derived by
        fourth-order finite differences from the v'' trace; for a stacked
        solution, the largest over its columns."""
        res = _fd(self.v2, self.grid_step())[..., 2:-2] - self.v3[..., 2:-2]
        scale = np.maximum(np.max(np.abs(self.v2), axis=-1), 1e-300)
        return float(np.max(np.max(np.abs(res), axis=-1) / scale))


def solve_mode(op: Operator3, xi: np.ndarray, init=(1.0, 0.0, 0.0),
               grid_points: int = 1024, t_end: float | None = None) -> ModeSolution:
    """Integrate one mode with an adaptive high-order explicit scheme and
    dense uniform output.

    ``init`` is one initial vector ``(v, v', v'')`` or a ``(k, 3)`` stack of
    them. A stack is integrated as one ``3k``-dimensional system (the
    columns of a fundamental matrix share one step sequence), and every
    trace of the solution gains a leading ``k`` axis.

    Step-size underflow or overflow of the state is not an error: the
    solution is truncated at the reached time and flagged (a data point for
    ill-posed operators in its own right). A stack blows up as a whole.
    """
    if not np.linalg.norm(xi) > 0:
        raise ValueError("mode frequency must be nonzero")
    if grid_points < 64:
        raise OperatorSpecError("grid_points must be >= 64")
    y0 = np.array(init, dtype=complex)
    if y0.shape[-1:] != (3,) or y0.ndim > 2:
        raise ValueError("init must have shape (3,) or (k, 3)")
    horizon = float(t_end if t_end is not None else op.horizon)
    coeff = _ode_coefficients(op, xi)
    # state layout: the k values, then the k first and the k second derivatives
    k = len(y0) if y0.ndim == 2 else 1
    state0 = y0.T.ravel()

    def rhs(t, y):
        g0, g1, g2 = coeff(t)
        dy = np.empty_like(y)
        dy[:2 * k] = y[k:]
        for j in range(k):
            dy[2 * k + j] = -(g0 * y[j] + g1 * y[k + j] + g2 * y[2 * k + j])
        return dy

    t_eval = np.linspace(0.0, horizon, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, horizon), state0, method="DOP853",
                        rtol=MODE_RTOL, atol=MODE_ATOL, t_eval=t_eval)
    n = sol.y.shape[1] if sol.y.size else 0
    blowup = (not sol.success) or n < grid_points or not np.all(np.isfinite(sol.y))
    t = sol.t[:n] if n else np.array([0.0])
    v, v1, v2 = (sol.y[:, :n] if n else state0[:, None]).reshape(3, k, -1)
    if y0.ndim == 1:
        v, v1, v2 = v[0], v1[0], v2[0]
    g = np.array([coeff(float(tk)) for tk in t])
    v3 = -(g[:, 0] * v + g[:, 1] * v1 + g[:, 2] * v2)
    reach = float(t[-1]) if n else 0.0
    return ModeSolution(op, np.asarray(xi, dtype=float), t, v, v1, v2, v3,
                        int(sol.nfev), bool(sol.success) and not blowup, reach, blowup)


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1, d2 = (np.where(mask, np.array(d), np.nan)
                  for d in zip(*(_root_derivatives(g.c, r) for r in g.tau)))
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
    c, mc, nc = g.c, g.mc, g.nc
    derivs = (v, v1, v2, v3)
    sym = (_apply_symbol((c.a3.v, c.a2.v, c.a1.v, 1.0), 3, derivs)
           + 0.5 * _apply_symbol((c.a2.d1, 2.0 * c.a1.d1), 2, derivs)
           + (1.0 / 6.0) * _apply_symbol((2.0 * c.a1.d2,), 1, derivs))
    m_tilde = (_apply_symbol(mc.values(), 2, derivs)
               + 0.5 * _apply_symbol((mc.coeffs[1].d1, 2.0 * mc.coeffs[2].d1), 1, derivs))
    n_check = _apply_symbol(nc.values(), 1, derivs)
    raw = (_apply_symbol((c.a3.v, c.a2.v, c.a1.v, 1.0), 3, derivs)
           + _apply_symbol(g.m.values(), 2, derivs)
           + _apply_symbol(g.n.values(), 1, derivs))
    pv = g.p.v * v
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
    pair_sq: np.ndarray     # sum of squared symmetrized pair traces
    factor_sq: np.ndarray   # sum of squared first-order factor traces
    v_sq: np.ndarray

    def dlogE(self) -> np.ndarray:
        """Window-averaged slope of log E (bounded by sup E'/E)."""
        h = float(self.t[1] - self.t[0])
        return (self.logE[2:] - self.logE[:-2]) / (2.0 * h)

    def growth_constant(self) -> float:
        """Empirical constant of the E' <= (C - eta) K E shape."""
        g = self.dlogE()
        return self.eta + float(np.max(g / self.K[1:-1]))


def _energy_weights(op: Operator3, sol: ModeSolution):
    """Per-grid-point weight integrand K, envelope H, and the squared
    component groups of the energy."""
    g = symbol_grid(op, sol.t, sol.xi)
    ft = _regularized_factors(g, sol)
    terms, n_abs = _primary_terms(g)
    sgap = g.mu[1] - g.mu[0]
    # K is the sum of the six condition integrands plus log|xi|
    K = sum(terms) + math.log(float(np.linalg.norm(sol.xi)))
    H = 1.0 + terms[0] + terms[4] + sum(np.sqrt((a + 1.0) / sgap) for a in n_abs)
    pair_sq = sum(np.abs(ft.pair_sym[p]) ** 2 for p in _SS2)
    factor_sq = sum(np.abs(ft.lv[j]) ** 2 for j in range(3))
    return K, H, pair_sq, factor_sq


def energy_trace(op: Operator3, sol: ModeSolution, eta: float) -> EnergyTrace:
    """Assemble the weighted energy along a trajectory.

    All denominators are bounded below by the regularized gaps or by +1
    terms. ``k`` may underflow for very large eta; ``logE`` is exact."""
    K, H, pair_sq, factor_sq = _energy_weights(op, sol)
    return _energy_from_weights(sol, K, H, pair_sq, factor_sq, eta)


def _energy_from_weights(sol, K, H, pair_sq, factor_sq, eta: float) -> EnergyTrace:
    t = sol.t
    h = float(t[1] - t[0])
    v_sq = np.abs(sol.v) ** 2
    cumK = np.concatenate([[0.0], np.cumsum(0.5 * (K[1:] + K[:-1]) * h)])
    q = pair_sq + H ** 2 * (factor_sq + v_sq)
    with np.errstate(under="ignore"):
        k = np.exp(-eta * cumK)
        E = k * q
    logE = np.log(np.maximum(q, 1e-300)) - eta * cumK
    return EnergyTrace(t, E, K, H, k, logE, eta, pair_sq, factor_sq, v_sq)


def calibrate_eta(op: Operator3, sol: ModeSolution) -> tuple[float, EnergyTrace]:
    """Smallest eta in {1, 2, 4, ..., 1024} whose slope of log E has no
    spike: max_t d/dt log E <= 2 median_t |d/dt log E|."""
    K, H, pair_sq, factor_sq = _energy_weights(op, sol)
    last = None
    for eta in ETA_LADDER:
        tr = _energy_from_weights(sol, K, H, pair_sq, factor_sq, float(eta))
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


def _amplification(op: Operator3, xi: np.ndarray, grid_points: int,
                   t_end: float | None) -> tuple[float, float, bool, float]:
    """Amplification over the full horizon and over its first half (the
    same trajectories serve both), maximized over the canonical bases. The
    bases are integrated together as one fundamental-matrix solve; if it
    blows up, the amplification is infinite and the half amplification 1."""
    sol = solve_mode(op, xi, init=CANONICAL_INITS, grid_points=grid_points, t_end=t_end)
    if sol.blowup:
        return math.inf, 1.0, True, sol.reach_time
    mag = float(np.linalg.norm(xi))
    w = np.abs(sol.v) + np.abs(sol.v1) / mag + np.abs(sol.v2) / mag ** 2
    w0 = np.maximum(w[:, 0], 1e-300)
    amp = float(np.max(np.max(w, axis=1) / w0))
    amp_half = float(np.max(np.max(w[:, : (w.shape[1] + 1) // 2], axis=1) / w0))
    return amp, amp_half, False, sol.reach_time


def growth_experiment(op: Operator3, ladder, direction: np.ndarray | None = None,
                      grid_points: int = 1024, t_end: float | None = None) -> GrowthFit:
    """Amplification ladder and model fit.

    The super-polynomial exponent is extracted from the second-half
    log-amplification (log amp over [0,T] minus log amp over [0,T/2]): for
    exp(c |xi|^kappa t) growth that difference is c |xi|^kappa T/2 exactly,
    and every t-independent prefactor (mode coefficients, initial-value
    normalization) cancels. The exp_power verdict needs that rate to be
    substantial and growing over the last three doublings; otherwise the
    polynomial model (degree = slope of log amp against log |xi|) wins."""
    ladder = list(ladder)
    if len(ladder) < 6 or max(ladder) / min(ladder) < 2 ** 5 * (1 - 1e-9):
        raise OperatorSpecError("growth experiment needs at least 6 ladder points "
                                "spanning >= 5 doublings")
    d = direction if direction is not None else np.eye(op.dim)[0]
    rows = []
    for mag in ladder:
        amp, amp_half, blowup, reach = _amplification(op, mag * d, grid_points, t_end)
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
