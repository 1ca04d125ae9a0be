import math

import numpy as np
import pytest

from hyp3.battery import battery_member
from hyp3.expr import parse_timefn as P
from hyp3.modes import (
    CANONICAL_INITS,
    _amplification,
    calibrate_eta,
    energy_trace,
    factor_apply,
    growth_experiment,
    identity_residuals,
    solve_mode,
)
from hyp3.operators import Operator3


def _op(name, coeffs, horizon=1.0):
    return Operator3(name, 1, horizon, {k: P(v) for k, v in coeffs.items()})


TRIPLE = _op("triple_pure", {})
WAVE = _op("strict_const", {(1, (2,)): "-1"})
STRICT_SIN = battery_member("strict_sin").op


def test_solve_pure_triple_quadratic_solution():
    sol = solve_mode(TRIPLE, np.array([4.0]), init=(0, 0, 1), grid_points=128)
    assert np.allclose(sol.v, sol.t ** 2 / 2.0, atol=1e-12)
    assert sol.success and not sol.blowup


def test_solve_constant_solution():
    sol = solve_mode(WAVE, np.array([10.0]), init=(1, 0, 0), grid_points=128)
    assert np.max(np.abs(sol.v - 1.0)) < 1e-10


def test_solve_cube_root_growth_rate():
    xi = 512.0
    sol = solve_mode(_op("dx", {(0, (1,)): "1"}), np.array([xi]), init=(1, 0, 0),
                     grid_points=256)
    rate = (math.sqrt(3) / 2.0) * xi ** (1.0 / 3.0)
    # |v(T)| = exp(rate * T) up to the bounded mode-coefficient factor
    assert abs(math.log(abs(sol.v[-1])) - rate) < 2.0


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_mode(WAVE, np.array([0.0]))
    with pytest.raises(ValueError):
        solve_mode(WAVE, np.array([4.0]), grid_points=32)


def test_equation_residual_via_finite_differences():
    sol = solve_mode(STRICT_SIN, np.array([16.0]), init=(1, 0, 0), grid_points=4096)
    assert sol.residual() < 1e-6


def test_factor_commutation_constant_coefficients():
    # with constant coefficients the composition equals the symmetrized pair
    sol = solve_mode(WAVE, np.array([32.0]), init=(0, 1, 0), grid_points=4096)
    ft = factor_apply(WAVE, sol)
    from hyp3.modes import _compose_pair
    scale = max(np.max(np.abs(ft.pair[p])) for p in ((0, 1), (1, 2), (2, 0)))
    for j, h in ((0, 1), (1, 2), (2, 0)):
        res = _compose_pair(ft, sol, j, h) - ft.pair_sym[(j, h)]
        good = np.isfinite(res)
        assert np.max(np.abs(res[good])) <= 1e-7 * scale


def test_identity_residuals_time_dependent():
    sol = solve_mode(STRICT_SIN, np.array([64.0]), grid_points=4096)
    res = identity_residuals(STRICT_SIN, sol)
    for name, value in res.items():
        assert value < 1e-6, (name, value)


def test_energy_constant_strict_single_mode():
    xi = 32.0
    tau1 = -xi
    sol = solve_mode(WAVE, np.array([xi]), init=(1.0, 1j * tau1, -tau1 ** 2),
                     grid_points=1024)
    tr = energy_trace(WAVE, sol, eta=2.0)
    assert np.max(np.abs(tr.K - math.log(xi))) == 0.0
    q = tr.E / tr.k
    assert (np.max(q) - np.min(q)) <= 1e-8 * np.max(q)
    # weight is nonincreasing and energy positive
    assert np.all(np.diff(tr.k) <= 0)
    assert np.all(tr.E > 0)


def test_energy_weight_is_condition_integrand_sum_plus_log_xi():
    from hyp3.conditions import _integrand_values
    xi = 256.0
    sol = solve_mode(STRICT_SIN, np.array([xi]), grid_points=64)
    tr = energy_trace(STRICT_SIN, sol, eta=1.0)
    for t, k in zip(sol.t, tr.K):
        assert sum(_integrand_values(STRICT_SIN, float(t), sol.xi)[:6]) + math.log(xi) == k


def test_energy_zero_solution():
    sol = solve_mode(WAVE, np.array([8.0]), init=(1, 0, 0), grid_points=128)
    sol.v[:] = 0
    sol.v1[:] = 0
    sol.v2[:] = 0
    tr = energy_trace(WAVE, sol, eta=1.0)
    assert np.all(tr.E == 0.0)


def test_eta_calibration_and_growth_constant():
    sol = solve_mode(STRICT_SIN, np.array([64.0]), grid_points=2048)
    eta, tr = calibrate_eta(STRICT_SIN, sol)
    assert eta in {float(2 ** k) for k in range(11)}
    g = tr.dlogE()
    assert np.max(g) <= 2.0 * np.median(np.abs(g)) + 1e-12
    assert math.isfinite(tr.growth_constant())


def test_growth_doubling_horizon_doubles_log_amplification():
    op = _op("dx", {(0, (1,)): "1"})
    ladder = [2.0 ** k for k in range(6, 12)]
    fit1 = growth_experiment(op, ladder, grid_points=256, t_end=1.0)
    fit2 = growth_experiment(op, ladder, grid_points=256, t_end=2.0)
    assert fit1.model == fit2.model == "exp_power"
    r1 = fit1.rows[-1]["log_amp"] - fit1.rows[-1]["half_log_amp"]
    r2 = fit2.rows[-1]["log_amp"] - fit2.rows[-1]["half_log_amp"]
    assert abs(r2 / r1 - 2.0) < 0.2


def test_growth_requires_wide_ladder():
    with pytest.raises(ValueError):
        growth_experiment(WAVE, [64.0, 128.0, 256.0])


# --------------------------------------------------------------------------
# Stacked initial data: one fundamental-matrix solve per growth row

ILL_POSED = _op("ill_posed", {(1, (2,)): "1"})   # roots 0, +-i|xi|: growth e^{|xi| t}


def _three_solve_amplification(op, xi, grid_points):
    """The growth row as three single-vector solves, one per canonical
    basis, with the per-basis maxima taken one solve at a time."""
    mag = float(np.linalg.norm(xi))
    amp = amp_half = 0.0
    for init in CANONICAL_INITS:
        sol = solve_mode(op, xi, init=init, grid_points=grid_points)
        assert not sol.blowup
        w = np.abs(sol.v) + np.abs(sol.v1) / mag + np.abs(sol.v2) / mag ** 2
        w0 = max(float(w[0]), 1e-300)
        amp = max(amp, float(np.max(w)) / w0)
        amp_half = max(amp_half, float(np.max(w[: (len(w) + 1) // 2])) / w0)
    return amp, amp_half


@pytest.mark.parametrize("member,xi", [("strict_sin", 32.0), ("strict_sin", 128.0),
                                       ("triple_plus_dxx", 64.0), ("triple_plus_dxx", 512.0)])
def test_growth_row_matches_three_single_solves(member, xi):
    op = battery_member(member).op
    amp, amp_half, blowup, reach = _amplification(op, np.array([xi]), 1024, None)
    want, want_half = _three_solve_amplification(op, np.array([xi]), 1024)
    assert not blowup and reach == op.horizon
    assert abs(amp - want) <= 1e-8 * want
    assert abs(amp_half - want_half) <= 1e-8 * want_half


def test_stacked_solve_shapes_and_columns():
    xi = np.array([64.0])
    stack = solve_mode(STRICT_SIN, xi, init=CANONICAL_INITS, grid_points=256)
    assert stack.v.shape == stack.v1.shape == stack.v2.shape == stack.v3.shape == (3, 256)
    assert stack.t.shape == (256,) and stack.success and not stack.blowup
    residuals = []
    for j, init in enumerate(CANONICAL_INITS):
        one = solve_mode(STRICT_SIN, xi, init=init, grid_points=256)
        scale = np.max(np.abs(one.v))
        assert np.max(np.abs(stack.v[j] - one.v)) <= 1e-8 * scale
        residuals.append(one.residual())
    assert stack.residual() == pytest.approx(max(residuals), rel=1e-6)
    with pytest.raises(ValueError):
        solve_mode(STRICT_SIN, xi, init=np.zeros((2, 3, 3)))


def test_solve_mode_blowup_truncates_every_column():
    for init in ((0.0, 1.0, 0.0), CANONICAL_INITS):
        sol = solve_mode(ILL_POSED, np.array([1024.0]), init=init, grid_points=64)
        assert sol.blowup and not sol.success
        assert 0.0 < sol.reach_time < ILL_POSED.horizon
        assert sol.t[-1] == sol.reach_time and sol.v.shape[-1] == len(sol.t) < 64
        assert np.all(np.isfinite(sol.v))


def test_growth_row_of_a_blown_up_solve():
    fit = growth_experiment(ILL_POSED, [2.0 ** k for k in range(5, 11)], grid_points=64)
    *finite, last = fit.rows
    assert not any(r["blowup"] for r in finite)
    assert last["blowup"] and last["amplification"] == math.inf and last["log_amp"] == math.inf
    assert last["half_log_amp"] == 0.0
    assert 0.0 < last["reach_time"] < ILL_POSED.horizon
    assert fit.model == "exp_power" and abs(fit.kappa - 1.0) < 1e-6
