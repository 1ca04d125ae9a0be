import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp

from hyp3.battery import BATTERY, battery_member
from hyp3.cli import main
from hyp3.expr import parse_timefn as P
from hyp3 import _dop853, modes
from hyp3.errors import ExprDomainError
from hyp3.modes import (
    _amplification,
    calibrate_eta,
    energy_trace,
    factor_apply,
    growth_experiment,
    identity_residuals,
    solve_mode,
)
from hyp3.operators import Operator3
from hyp3.opfile import parse_operator_text


def _op(name, coeffs, horizon=1.0):
    return Operator3(name, 1, horizon, {k: P(v) for k, v in coeffs.items()})


TRIPLE = _op("triple_pure", {})
WAVE = _op("strict_const", {(1, (2,)): "-1"})
STRICT_SIN = battery_member("strict_sin").op


def test_solve_pure_triple_quadratic_solution():
    sol = solve_mode(TRIPLE, np.array([4.0]), init=(0, 0, 1), grid_points=128)
    assert np.allclose(sol.v, sol.t ** 2 / 2.0, atol=1e-12)
    assert not sol.blowup


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
    with pytest.raises(ValueError):
        solve_mode(WAVE, np.array([4.0]), init=np.eye(3))


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
    ladder = [2.0 ** k for k in range(6, 12)]
    fit1, fit2 = (growth_experiment(_op("dx", {(0, (1,)): "1"}, horizon), ladder, grid_points=256)
                  for horizon in (1.0, 2.0))
    assert fit1.model == fit2.model == "exp_power"
    r1 = fit1.rows[-1]["log_amp"] - fit1.rows[-1]["half_log_amp"]
    r2 = fit2.rows[-1]["log_amp"] - fit2.rows[-1]["half_log_amp"]
    assert abs(r2 / r1 - 2.0) < 0.2


def test_growth_requires_wide_ladder():
    with pytest.raises(ValueError):
        growth_experiment(WAVE, [64.0, 128.0, 256.0])


# --------------------------------------------------------------------------
# Growth rows: the fundamental matrix, exact or from Magnus steps

CANONICAL_INITS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
ILL_POSED = _op("ill_posed", {(1, (2,)): "1"})   # roots 0, +-i|xi|: growth e^{|xi| t}
ILL_POSED_SIN = _op("ill_posed_sin", {(1, (2,)): "1 + 0.1*sin(t)"})


def _three_solve_amplification(op, xi, grid_points):
    """The growth row as three single-vector DOP853 solves, one per
    canonical basis, with the per-basis maxima taken one solve at a time."""
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
                                       ("strict_sin", 1024.0),
                                       ("triple_plus_dxx", 64.0), ("triple_plus_dxx", 512.0),
                                       ("strict_const", 64.0), ("const_coeff_wellposed", 128.0),
                                       ("triple_plus_dx", 64.0), ("triple_pure", 256.0)])
def test_growth_row_matches_three_single_solves(member, xi):
    op = battery_member(member).op
    amp, amp_half, blowup, reach = _amplification(op, np.array([xi]), 1024)
    want, want_half = _three_solve_amplification(op, np.array([xi]), 1024)
    assert not blowup and reach == op.horizon
    assert abs(amp - want) <= 1e-8 * want
    assert abs(amp_half - want_half) <= 1e-8 * want_half


@pytest.mark.parametrize("xi", [64.0, 4096.0])
def test_exact_growth_row_of_strict_const_matches_closed_form(xi):
    # v''' + xi^2 v' = 0: the bases (1, 0, 0), (0, 1, 0), (0, 0, 1) give
    # v = 1, sin(xi t)/xi and (1 - cos xi t)/xi^2
    t = np.linspace(0.0, WAVE.horizon, 1024)
    s, c = np.abs(np.sin(xi * t)), np.abs(np.cos(xi * t))
    w = np.maximum.reduce([np.ones_like(t), 2.0 * s + c, (1.0 - np.cos(xi * t)) + s + c])
    amp, amp_half, blowup, reach = _amplification(WAVE, np.array([xi]), 1024)
    assert not blowup and reach == WAVE.horizon
    assert amp == pytest.approx(np.max(w), rel=1e-12, abs=0.0)
    assert amp_half == pytest.approx(np.max(w[:512]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("coeffs,dim,xi", [
    # root speed 10 |xi|: ten times the steps |xi| alone would take
    ({(1, (2,)): "-100*(1 + 0.1*sin(t))"}, 1, 32.0),
    # a coefficient that changes on a faster time scale than the mode turns
    ({(1, (2,)): "-(2 + sin(200*t))^2"}, 1, 8.0),
    # the time-dependent term has alpha along a zero component of xi
    ({(1, (2, 0)): "-1", (0, (0, 1)): "sin(t)"}, 2, 64.0),
])
def test_growth_row_off_the_battery_matches_three_single_solves(coeffs, dim, xi):
    op = Operator3("off_battery", dim, 1.0, {k: P(v) for k, v in coeffs.items()})
    xi = xi * np.eye(dim)[0]
    amp, amp_half, blowup, reach = _amplification(op, xi, 64)
    want, want_half = _three_solve_amplification(op, xi, 64)
    assert not blowup and reach == op.horizon
    assert abs(amp - want) <= 1e-8 * want
    assert abs(amp_half - want_half) <= 1e-8 * want_half


def test_magnus_blocks_split_long_intervals(monkeypatch):
    # 37 steps per interval; with blocks of 7 each interval takes 6 parts of
    # 7 steps, which changes the row only by the finer steps
    want = _amplification(STRICT_SIN, np.array([256.0]), 64)
    monkeypatch.setattr(modes, "_MAGNUS_BLOCK", 7)
    got = _amplification(STRICT_SIN, np.array([256.0]), 64)
    assert got[2:] == want[2:]
    assert got[:2] == pytest.approx(want[:2], rel=1e-10, abs=0.0)


def test_magnus_growth_row_memory_is_bounded():
    # the row takes 9 Magnus steps per output interval; they run in blocks,
    # so the transient memory does not grow with their number
    tracemalloc.start()
    try:
        _amplification(STRICT_SIN, np.array([1024.0]), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_growth_row_exponentiates_each_magnus_block_in_one_call(monkeypatch):
    # a per-matrix loop would make one call per step: 1023 * 9 of them
    calls = []
    expm = modes._expm
    monkeypatch.setattr(modes, "_expm", lambda a: calls.append(a.shape[-1]) or expm(a))
    _amplification(STRICT_SIN, np.array([1024.0]), 1024)
    steps = 9  # per output interval, as above; 113 intervals fill a block
    assert sum(calls) == 1023 * steps
    assert len(calls) == math.ceil(1023 / (modes._MAGNUS_BLOCK // steps)) == 10
    calls.clear()
    _amplification(WAVE, np.array([1024.0]), 1024)
    assert calls == [10]  # exp(t A) at t_1, t_2, t_4, ..., t_512, by doubling


# --------------------------------------------------------------------------
# The stacked exponential

UNIT_ROUNDOFF = 2.0 ** -53


def _norm1(m):
    return float(np.max(np.sum(np.abs(m), axis=-2)))


def _expm(stack):
    """``modes._expm`` on an (N, 3, 3) stack, through its (3, 3, N) layout."""
    return np.moveaxis(modes._expm(np.moveaxis(stack, 0, -1)), -1, 0)


def _mp_expm(a):
    """exp of one matrix at 50 digits, rounded to complex doubles."""
    with mpmath.workdps(50):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(e[i, j]) for j in range(3)] for i in range(3)])


def _scaled(m, norm):
    """``m`` scaled to the 1-norm ``norm``, then shifted so that its
    eigenvalues' largest real part is 0: exp neither overflows nor vanishes."""
    a = m * (norm / _norm1(m))
    return a - np.linalg.eigvals(a).real.max() * np.eye(3)


@st.composite
def _matrices(draw):
    """Complex 3x3 matrices with 1-norms from about 1e-8 to 1e4: general
    ones, and near-skew-Hermitian ones like a Magnus step's."""
    m = np.reshape(draw(st.lists(st.integers(-1000, 1000), min_size=18, max_size=18)),
                   (2, 3, 3)) / 1000.0
    m = m[0] + 1j * m[1]
    if draw(st.booleans()):
        m = 1j * (m + m.conj().T) + 1e-2 * m
    if not _norm1(m) > 0:
        m = np.eye(3)
    return _scaled(m, 10.0 ** draw(st.floats(-8.0, 4.0)))


_FIXED = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 2, 3, 3))


@settings(max_examples=40, deadline=None)
# squared 0 times, once and 11 times
@example([_scaled(m[0] + 1j * m[1], norm) for m, norm in zip(_FIXED, (1e-8, 8.0, 1e4))])
@given(st.lists(_matrices(), min_size=1, max_size=4))
def test_stacked_exponential_matches_mpmath(mats):
    # Pade-13 has backward error below the unit roundoff up to theta13, so
    # the forward error is that times the condition number of exp, about
    # |A|_1 for these matrices, plus the rounding of the evaluation
    stack = np.array(mats)
    got = _expm(stack)
    for a, e in zip(stack, got):
        want = _mp_expm(a)
        assert _norm1(e - want) <= 8.0 * UNIT_ROUNDOFF * (1.0 + _norm1(a)) * _norm1(want)
        # a stack's result is each matrix's own, so block sizes cannot move a bit
        assert _expm(a[None])[0].tobytes() == e.tobytes()


def test_stacked_exponential_of_zero_and_non_finite_matrices():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    stack[1] = 0.0
    stack[2, 0, 1] = np.inf
    stack[3, 2, 2] = np.nan
    stack[4, 1, 0] = complex(np.inf, np.nan)
    stack[5] *= 1e300  # finite, but its exponential overflows
    # no LinAlgError and no RuntimeWarning: neither under the errstate that
    # _amplification sets, nor under numpy's default, where pytest makes a
    # RuntimeWarning an error
    for state in ({"over": "ignore", "invalid": "ignore"}, {}):
        with warnings.catch_warnings(), np.errstate(**state):
            warnings.simplefilter("error")
            got = _expm(stack)
    assert got[1].tobytes() == np.eye(3, dtype=complex).tobytes()
    assert np.isfinite(got[:2]).all()
    assert np.isnan(got[2:5]).all()
    assert not np.isfinite(got[5]).all()
    assert got[0].tobytes() == _expm(stack[:1])[0].tobytes()


def test_solve_mode_blowup_truncates_every_column():
    sol = solve_mode(ILL_POSED, np.array([1024.0]), init=(0.0, 1.0, 0.0), grid_points=64)
    assert sol.blowup
    assert 0.0 < sol.t[-1] < ILL_POSED.horizon
    assert sol.v.shape[-1] == len(sol.t) < 64
    assert np.all(np.isfinite(sol.v))


@pytest.mark.parametrize("xi,t_end,points,nfev", [
    # the file T = 1, a[1,(2)] = 1: e^{|xi| t} overflows before T; scipy's
    # DOP853 gives the same figures
    (700.0, 0.9841269841269841, 63, 25223),
    (1024.0, 0.6666666666666666, 43, 25139),
    (4096.0, 0.15873015873015872, 11, 24959),
])
def test_solve_mode_overflow_raises_and_warns_nothing(xi, t_end, points, nfev):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_mode(ILL_POSED, np.array([xi]), init=(0.0, 1.0, 0.0), grid_points=64)
    assert sol.blowup
    assert (float(sol.t[-1]), len(sol.t), sol.nfev) == (t_end, points, nfev)


@pytest.mark.parametrize("init,points,nfev,blowup", [
    # |v| = 1.84e308 past the largest double, though each part is finite: a
    # constant solution, kept on the whole grid
    ((1.3e308 * (1 + 1j), 0.0, 0.0), 64, 95, False),
    # v' as large: every first step is rejected, and only t = 0 is reached
    ((0.0, 1.3e308 * (1 + 1j), 0.0), 1, 5474, True),
])
def test_solve_mode_of_a_state_past_the_largest_double(init, points, nfev, blowup):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_mode(ILL_POSED, np.array([32.0]), init=init, grid_points=64)
    assert (len(sol.t), sol.nfev, sol.blowup) == (points, nfev, blowup)
    assert sol.v[0] == init[0] and sol.v1[0] == init[1]


def test_growth_row_of_a_blown_up_solve():
    # the exact path, then the Magnus path
    for op, kappa_tol in ((ILL_POSED, 1e-6), (ILL_POSED_SIN, 1e-3)):
        fit = growth_experiment(op, [2.0 ** k for k in range(5, 11)], grid_points=64)
        *finite, last = fit.rows
        assert not any(r["blowup"] for r in finite)
        assert last["blowup"] and last["amplification"] == math.inf
        assert last["log_amp"] == math.inf and last["half_log_amp"] == 0.0
        assert 0.0 < last["reach_time"] < op.horizon
        assert fit.model == "exp_power" and abs(fit.kappa - 1.0) < kappa_tol


@pytest.mark.parametrize("op,xi,index", [
    # e^{|xi| t} reaches the largest double near t = 709.8 / |xi|; the
    # Magnus path, then the exact path, on the 1,024-point grid
    (ILL_POSED_SIN, 1024.0, 697), (ILL_POSED_SIN, 2048.0, 351),
    (ILL_POSED, 1024.0, 708), (ILL_POSED, 2048.0, 354),
])
def test_blown_up_growth_row_reaches_its_time(op, xi, index):
    amp, amp_half, blowup, reach = _amplification(op, np.array([xi]), 1024)
    assert blowup and amp == math.inf and amp_half == 1.0
    assert reach == np.linspace(0.0, op.horizon, 1024)[index]


@pytest.mark.parametrize("text,message", [
    # constant: the exact path and DOP853
    ("exp(700)*exp(700)", r"non-finite coefficient value, at t=0,"),
    # at t[0], the first time of the grid
    ("exp(700)*exp(700)*(1 + t)", r"non-finite coefficient value, at t=0,"),
    # on the output grid, through a product and through a power
    ("exp(700*t)*exp(700*t)", r"non-finite coefficient value, at t=0\.507"),
    ("exp(700*t)^2", r"\^2 overflows, at t=0\.507"),
])
def test_non_finite_mode_coefficient_is_a_located_domain_error(text, message):
    op = _op("overflow", {(1, (2,)): "-1", (0, (0,)): text})
    xi = np.array([32.0])
    calls = [lambda: _amplification(op, xi, 64)]
    if message.endswith("t=0,"):
        calls.append(lambda: solve_mode(op, xi, grid_points=64))
    for call in calls:
        with pytest.raises(ExprDomainError, match=message + r".* xi=\[32\.\]$"):
            call()


_STAGE_BASE = "order = 3\ndimension = 1\nT = 0.25\na[1,(2)] = -(1 + t)\na[0,(1)] = 1\n"


@pytest.fixture(scope="module")
def stage_time():
    """A time at which DOP853 evaluates the right-hand side of the _STAGE_BASE
    mode at |xi| = 1,024 on the 64-point grid, halfway through its evaluations."""
    times = []
    solve = modes.solve_ivp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modes, "solve_ivp", lambda f, *args, **kwargs: solve(
            lambda t, y: times.append(t) or f(t, y), *args, **kwargs))
        modes.solve_mode(parse_operator_text(_STAGE_BASE), np.array([1024.0]), grid_points=64)
    return repr(float(times[len(times) // 2]))


@pytest.mark.parametrize("term,message", [
    # zero times a term that raises, or is not finite, at that one time alone:
    # up to it the trajectory is the _STAGE_BASE mode's own
    ("0*(1/(t - {tau}))", "division by zero"),
    ("0*exp(1e-27/((t - {tau})^2 + 1e-30))", "exp of 1000.0 overflows"),
    ("0*(1e200/((t - {tau})^2 + 1e-200))", "non-finite coefficient value"),
])
def test_mode_right_hand_side_names_the_time_of_a_coefficient_error(tmp_path, capsys, stage_time,
                                                                     term, message):
    text = _STAGE_BASE + f"a[0,(0)] = {term.format(tau=stage_time)}\n"
    where = f", at t={float(stage_time):.6g}, xi=[1024.]"
    with pytest.raises(ExprDomainError) as exc:
        solve_mode(parse_operator_text(text), np.array([1024.0]), grid_points=64)
    assert str(exc.value) == message + where
    # the growth rows never meet that time; the solve for the mode table does
    p = tmp_path / "stage.op"
    p.write_text(text)
    assert main(["modes", "--config", str(p), "--xi-min", "32", "--xi-max", "1024",
                 "--xi-steps", "6", "--grid", "64", "--format", "tables",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"hyp3: config error: {message}{where}\n"


@pytest.mark.parametrize("name,nfev", [("strict_sin", 24770), ("oleinik_ok", 6650)])
def test_mode_right_hand_side_is_pythons_own_arithmetic(python_value, name, nfev):
    # hyp3's DOP853 with each g_j summed from Python's own evaluation of the
    # coefficients, in the order of op.coeffs: the same count and bitwise the
    # same trajectory as solve_mode at |xi| = 256 on the default grid
    op = battery_member(name).op
    sol = solve_mode(op, np.array([256.0]))
    terms = [[], [], []]
    for (j, alpha), fn in op.coeffs.items():
        w = complex(1.0)
        w *= (1j * 256.0) ** alpha[0]
        if w != 0:
            terms[j].append((w, python_value(fn)))

    def rhs(t, y):
        g0, g1, g2 = (sum((w * f(t) for w, f in tj), complex(0.0)) for tj in terms)
        return y[1], y[2], -(g0 * y[0] + g1 * y[1] + g2 * y[2])

    ref = modes.solve_ivp(rhs, (1.0, 0.0, 0.0), np.linspace(0.0, op.horizon, 1024))
    assert sol.nfev == ref.nfev == nfev
    for got, want in zip((sol.t, sol.v, sol.v1, sol.v2), (ref.t, *ref.y)):
        assert np.array_equal(got, want)


def _scipy_mode(op, xi, grid_points):
    """The mode solved by scipy's DOP853 at the mode tolerances, as
    solve_mode's blow-up flag reads it: (t, y, nfev, blowup)."""
    coeff = modes._ode_coefficients(op, xi)

    def rhs(t, y):
        g0, g1, g2 = coeff(t)
        return np.array([y[1], y[2], -(g0 * y[0] + g1 * y[1] + g2 * y[2])])

    t_eval = np.linspace(0.0, op.horizon, grid_points)
    ref = solve_ivp(rhs, (0.0, op.horizon), np.array([1.0, 0.0, 0.0], dtype=complex),
                    method="DOP853", rtol=modes.MODE_RTOL, atol=modes.MODE_ATOL, t_eval=t_eval)
    n = len(ref.t)
    blowup = not ref.success or n < grid_points or not np.all(np.isfinite(ref.y))
    return ref.t, ref.y, ref.nfev, blowup


@pytest.mark.parametrize("xi", [32.0, 512.0])
@pytest.mark.parametrize("name", [name for name, m in BATTERY.items()
                                  if isinstance(m.op, Operator3)])
def test_mode_kernel_matches_scipys_dop853(name, xi):
    # the same steps, so the same count and output times; the stage sums
    # round apart, so the trajectories agree to a tolerance
    op = battery_member(name).op
    sol = solve_mode(op, np.array([xi]))
    t, y, nfev, blowup = _scipy_mode(op, np.array([xi]), 1024)
    assert sol.nfev == nfev
    assert np.array_equal(sol.t, t)
    assert sol.blowup == blowup
    for got, want in zip((sol.v, sol.v1, sol.v2), y):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_dop853_tableau_is_scipys_bit_for_bit():
    # each row's nonzero entries in stage order, and no zero entry; nonzero
    # finite floats that compare equal have equal bits
    def rows(a):
        return [[(k, x) for k, x in enumerate(r) if x] for r in np.atleast_2d(a).tolist()]
    assert [list(r.items()) for r in _dop853.A] == rows(np.vstack([DOP853.A[1:], DOP853.B]))
    assert [list(_dop853.E5.items()), list(_dop853.E3.items())] == rows([DOP853.E5, DOP853.E3])
    assert [list(r.items()) for r in _dop853.A_EXTRA] == rows(DOP853.A_EXTRA)
    assert [list(r.items()) for r in _dop853.D] == rows(DOP853.D)
    assert list(_dop853.C) == [*DOP853.C[1:].tolist(), 1.0]
    assert list(_dop853.C_EXTRA) == DOP853.C_EXTRA.tolist()
    assert 0.0 not in _dop853.C + _dop853.C_EXTRA


NAN_STEP = _op("nan_step", {(0, (0,)): "1e300", (1, (0,)): "-1e300"})


def _assert_first_step_is_scipys(op, xi, init):
    coeff = modes._ode_coefficients(op, np.array([xi]))

    def rhs(t, y):
        g0, g1, g2 = coeff(t)
        return y[1], y[2], -(g0 * y[0] + g1 * y[1] + g2 * y[2])
    y0 = np.array(init, dtype=complex)
    with np.errstate(all="ignore"):
        ref = DOP853(lambda t, y: np.array(rhs(t, tuple(y.tolist()))), 0.0, y0, op.horizon,
                     rtol=modes.MODE_RTOL, atol=modes.MODE_ATOL)
    h_abs, f0, nfev = _dop853._first_step(rhs, 0.0, y0, float(op.horizon))
    assert np.float64(h_abs).tobytes() == np.float64(ref.h_abs).tobytes()
    assert f0.tobytes() == ref.f.tobytes()
    assert nfev == ref.nfev == 2


@pytest.mark.parametrize("xi", [32.0, 512.0])
@pytest.mark.parametrize("name", [name for name, m in BATTERY.items()
                                  if isinstance(m.op, Operator3)])
def test_first_step_is_scipys_select_initial_step(name, xi):
    _assert_first_step_is_scipys(battery_member(name).op, xi, (1.0, 0.0, 0.0))


@pytest.mark.parametrize("op,init", [
    (ILL_POSED, (1.3e308 * (1 + 1j), 0.0, 0.0)),
    (ILL_POSED, (0.0, 1.3e308 * (1 + 1j), 0.0)),
    (NAN_STEP, (1e10, 1e10, 0.0)),  # f0 holds a NaN, so the step is NaN
], ids=["v_past_the_largest_double", "v1_past_the_largest_double", "nan_step"])
def test_first_step_of_an_extreme_init_is_scipys(op, init):
    _assert_first_step_is_scipys(op, 32.0, init)


def test_a_nan_first_step_is_a_blowup_at_the_first_time():
    # scipy's step loop runs for ever on it
    sol = solve_mode(NAN_STEP, np.array([32.0]), init=(1e10, 1e10, 0.0), grid_points=64)
    assert (len(sol.t), sol.nfev, sol.blowup) == (1, 2, True)


@pytest.mark.parametrize("name", [name for name, m in BATTERY.items()
                                  if isinstance(m.op, Operator3) and not m.op.is_constant()])
def test_mode_coefficients_at_points_match_the_array_branch(name):
    op = battery_member(name).op
    coeff = modes._ode_coefficients(op, np.array([256.0]))
    t = np.linspace(0.0, op.horizon, 257)
    points = np.array([coeff(tk) for tk in t.tolist()]).T
    np.testing.assert_allclose(points, np.broadcast_arrays(*coeff(t)), rtol=1e-15, atol=0.0)
