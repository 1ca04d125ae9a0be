import math
import os
import pickle
import subprocess
import sys
import time
import warnings
import zlib

import numpy as np
import pytest

from hyp3 import errors, operators, quadrature
from hyp3.battery import BATTERY, battery_member, battery_names
from hyp3.conditions import (
    _count_extrema,
    _grid_sup,
    _integrand_values,
    _primary_terms,
    _sup_verdict,
    condition_integrals,
    condition_report,
    constant_coeff_check,
    default_ladder,
    log_fit,
    oscillation_count,
    pointwise_levi,
    second_order_check,
    second_order_report,
)
from hyp3.errors import HyperbolicityViolation, OperatorSpecError, QuadratureError
from hyp3.expr import TimeFn
from hyp3.expr import parse_timefn as P
from hyp3.operators import Operator2, Operator3, symbol_grid


def _op(name, coeffs, horizon=1.0):
    return Operator3(name, 1, horizon, {k: P(v) for k, v in coeffs.items()})


def _op2(name, coeffs, horizon=1.0):
    return Operator2(name, 1, horizon, {k: P(v) for k, v in coeffs.items()})


STRICT = _op("strict_const", {(1, (2,)): "-1"})
TRIPLE_DX = _op("triple_plus_dx", {(0, (1,)): "1"})
OLEINIK = _op("oleinik_ok", {(1, (2,)): "-t^2", (0, (2,)): "t"})


def test_constant_strict_operator_all_integrals_vanish():
    cell = condition_integrals(STRICT, np.array([128.0]))
    assert all(v == 0.0 for v in cell.values.values())
    assert all(v == 0.0 for v in cell.alternates.values())


@pytest.mark.parametrize("member,xi", [("triple_plus_dx", 256.0),
                                       ("const_coeff_wellposed", 4096.0)])
def test_constant_cell_evaluates_its_integrand_once(monkeypatch, member, xi):
    from hyp3 import conditions
    from hyp3.quadrature import adaptive_gauss
    op, xi = battery_member(member).op, np.array([xi])
    per_node = adaptive_gauss(lambda t: _integrand_values(op, t, xi), 0.0, op.horizon)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _integrand_values(*args)

    monkeypatch.setattr(conditions, "_integrand_values", counted)
    cell = condition_integrals(op, xi)
    first_node = 0.5 * op.horizon / 8 * (1.0 + np.polynomial.legendre.leggauss(16)[0][0])
    assert calls == [pytest.approx(first_node, rel=1e-12)]
    assert list(cell.values.values()) + list(cell.alternates.values()) == per_node.values.tolist()
    assert (cell.panels, cell.rel_change) == (per_node.panels, per_node.rel_change)


def _brute_force_n_levi(c_coef: float, xi: float, horizon: float) -> float:
    """Independent oracle for the order-1 condition on d_t^3 + c d_x:
    everything from first principles via numpy.roots and a dense trapezoid."""
    # unit-regularized cubic of tau^3 is tau^3 - 6 tau; its derivative has
    # roots +-sqrt(2); the corrected order-1 symbol equals c*xi (constant)
    mu = np.sort(np.roots([3.0, 0.0, -6.0]).real)
    gap = mu[1] - mu[0]
    ts = np.linspace(0.0, horizon, 10001)
    integrand = np.full_like(ts, 2.0 * math.sqrt(abs(c_coef) * xi / gap))
    return float(np.trapezoid(integrand, ts))


def test_triple_plus_dx_n_levi_matches_independent_oracle():
    xi = 256.0
    cell = condition_integrals(TRIPLE_DX, np.array([xi]))
    oracle = _brute_force_n_levi(1.0, xi, 1.0)
    frozen = 19.027313840043536  # 2*T*sqrt(xi / (2*sqrt(2))) at xi = 256, T = 1
    assert abs(cell.values["n_levi"] - oracle) <= 1e-6 * oracle
    assert abs(cell.values["n_levi"] - frozen) <= 1e-9 * frozen
    for key in ("sep_drift", "vel_drift", "m_drift", "n_drift", "m_levi"):
        assert cell.values[key] == 0.0


def _brute_force_m_levi(xi: float, horizon: float) -> float:
    """Independent oracle for the order-2 condition on the compatible
    oleinik operator: roots via numpy, drift correction via central
    differences of the derivative-polynomial coefficients."""
    def corrected_m(t):
        h = 1e-6
        # d_tau L = 3 tau^2 + 2 A1 tau + A2 with A1 = 0, A2 = -t^2 xi^2;
        # the (t, tau)-mixed derivative is d/dt A2 here (tau coefficient 0)
        a2 = lambda s: -s * s * xi * xi
        dA2 = (a2(t + h) - a2(t - h)) / (2 * h)
        return t * xi * xi - 0.5 * dA2  # M + correction, tau-independent

    ts = np.linspace(0.0, horizon, 20001)
    vals = []
    for t in ts:
        lam = np.sort(np.roots([1.0, 0.0, -(t * t * xi * xi + 6.0), 0.0]).real)
        mv = abs(corrected_m(t))
        acc = 0.0
        for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            acc += mv / (abs(lam[j] - lam[k]) * abs(lam[j] - lam[l]))
        vals.append(acc)
    return float(np.trapezoid(np.array(vals), ts))


@pytest.mark.parametrize("xi", [2.0 ** 6, 2.0 ** 10])
def test_oleinik_m_levi_matches_brute_force_quadrature(xi):
    cell = condition_integrals(OLEINIK, np.array([xi]))
    oracle = _brute_force_m_levi(xi, 1.0)
    closed_form = 2.0 * math.log((xi * xi + 6.0) / 6.0)
    assert abs(cell.values["m_levi"] - oracle) <= 2e-4 * oracle
    assert abs(cell.values["m_levi"] - closed_form) <= 1e-6 * closed_form


def test_condition_integrals_requires_moderate_frequency():
    with pytest.raises(OperatorSpecError):
        condition_integrals(STRICT, np.array([1.0]))


@pytest.mark.parametrize("name,xi", [("strict_sin", 0.5), ("wave2", 0.5), ("oleinik2_ok", 1.0)])
def test_a_cell_of_either_order_needs_xi_of_at_least_2(name, xi):
    op = battery_member(name).op
    cell = second_order_check if isinstance(op, Operator2) else condition_integrals
    with pytest.raises(OperatorSpecError, match=r"^condition integrals need \|xi\| >= 2$"):
        cell(op, np.array([xi]))


def test_quadrature_refinement_stability(monkeypatch):
    # tightening the tolerance tenfold moves every integral by < 1e-6 rel
    from hyp3 import quadrature
    a = condition_integrals(OLEINIK, np.array([512.0]))
    monkeypatch.setattr(quadrature, "REL_TOL", quadrature.REL_TOL / 10.0)
    b = condition_integrals(OLEINIK, np.array([512.0]))
    for key, va in a.values.items():
        vb = b.values[key]
        assert abs(va - vb) <= 1e-6 * max(abs(vb), 1e-9)


def test_quadrature_non_finite_integrand_is_an_error():
    from hyp3.quadrature import INITIAL_PANELS, adaptive_gauss
    with pytest.raises(QuadratureError, match=r"^non-finite integrand value on \[0, 0\.125\]") as exc:
        adaptive_gauss(lambda t: [math.nan if t < 0.5 else 1.0, 1.0], 0.0, 1.0)
    assert exc.value.panels == INITIAL_PANELS  # raised before any refinement
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no inf - inf on the way
        with pytest.raises(QuadratureError, match="^non-finite integrand value on "):
            adaptive_gauss(lambda t: [math.inf if t < 0.5 else 1.0, 1.0], 0.0, 1.0)


def test_quadrature_ends_at_a_noise_floor():
    # a noise floor of relative size 1e-4 keeps the summed error indicators
    # near 5e-6 however fine the panels: the doubling from 1024 to 2048 leaf
    # panels fails to halve them, and the run ends there, not at MAX_PANELS
    def noisy(t):
        return [1.0 + 1e-4 * (zlib.crc32(t.hex().encode()) / 2.0 ** 32 - 0.5)]
    with pytest.raises(QuadratureError, match=r"^quadrature stalled at relative change ") as exc:
        quadrature.adaptive_gauss(noisy, 0.0, 1.0)
    assert exc.value.panels == 2048


ERRORS = [
    (errors.ExprError, "bad expression"),
    (errors.ExprSyntaxError, 3, ("num", "ident")),
    (errors.UnknownIdentifierError, "x", 2),
    (errors.ExprDomainError, "log of non-positive value -0.5"),
    (errors.HyperbolicityViolation, -1e-3, "derivative quadratic"),
    (errors.NearMultipleRoot, 1e-9, 1e-7),
    (errors.QuadratureError, "stalled", 99),
    (errors.MagnusStepError, math.inf, 64.0),
    (errors.OperatorSpecError, "bad ladder"),
]


def test_every_error_class_has_a_round_trip_case():
    classes = {c for name, c in vars(errors).items()
               if isinstance(c, type) and issubclass(c, Exception) and not name.startswith("_")}
    assert {cls for cls, *_ in ERRORS} == classes


@pytest.mark.parametrize("located", [False, True])
@pytest.mark.parametrize("cls_args", ERRORS, ids=lambda case: case[0].__name__)
def test_errors_survive_a_pickle_round_trip(cls_args, located):
    # a worker process sends its error back to the parent as a pickle
    cls, *args = cls_args
    exc = cls(*args)
    if located:
        errors.locate(exc, 0.3, [64.0], None)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


FIVE = default_ladder(64.0, 1024.0, 5)


@pytest.mark.parametrize("member,affinity", [
    pytest.param("sin_gap", True, id="sin_gap"),
    pytest.param("strict_sin", True, id="strict_sin"),
    # where os.sched_getaffinity does not exist (macOS, Windows)
    pytest.param("sin_gap", False, id="sin_gap-no-sched_getaffinity"),
])
def test_parallel_ladder_cells_equal_in_process_cells(monkeypatch, member, affinity):
    if not affinity:
        monkeypatch.delattr(os, "sched_getaffinity")
    op = BATTERY[member].op
    cells = [condition_integrals(op, np.array([m])) for m in FIVE]
    ladder = condition_report(op, FIVE).ladder
    assert ladder == cells
    assert [_cell_bits(c) for c in ladder] == [_cell_bits(c) for c in cells]


def _cell_bits(cell):
    """A condition cell with every float as its ``float.hex`` text."""
    return (cell.xi_mag.hex(), [x.hex() for x in cell.direction],
            {k: v.hex() for k, v in cell.values.items()},
            {k: v.hex() for k, v in cell.alternates.items()}, cell.panels, cell.rel_change.hex())


def test_in_process_ladder_cells_keep_every_bit(monkeypatch):
    # one usable CPU: the ladder's cells run in this process, sharing their jets
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    op = BATTERY["strict_sin"].op
    cells = [condition_integrals(op, np.array([m])) for m in FIVE]
    assert [_cell_bits(c) for c in condition_report(op, FIVE).ladder] == [
        _cell_bits(c) for c in cells]


def test_second_order_report_rows_keep_every_bit():
    op2 = BATTERY["oleinik2_ok"].op
    rows = second_order_report(op2)["rows"]
    assert [(r["xi"], r["disc_drift"].hex(), r["lower_weighted"].hex()) for r in rows] == [
        (m, *(x.hex() for x in second_order_check(op2, np.array([m])))) for m in default_ladder()]


def test_a_second_order_report_evaluates_each_jet_once_per_time(monkeypatch):
    # the ladder's cells share their coefficient jets; the next report starts afresh
    calls, jet2 = [], TimeFn.jet2

    def counted(fn, t, order=2):
        if not isinstance(t, np.ndarray):
            calls.append((id(fn), order, t.hex()))
        return jet2(fn, t, order)
    monkeypatch.setattr(TimeFn, "jet2", counted)
    counts = []
    for _ in range(2):
        second_order_report(BATTERY["oleinik2_ok"].op)
        counts.append((len(calls), len(set(calls))))
        calls.clear()
    assert counts[0] == counts[1] and counts[0][0] == counts[0][1] > 0


def _first_failure(op):
    for m in FIVE:
        try:
            condition_integrals(op, np.array([m]))
        except QuadratureError as exc:
            return exc
    raise AssertionError("no cell failed")


def test_a_failing_worker_raises_the_first_failing_cells_error(monkeypatch):
    # forked workers inherit the patched cap
    monkeypatch.setattr(quadrature, "MAX_PANELS", 20)
    op = BATTERY["sin_gap"].op
    want = _first_failure(op)
    with pytest.raises(QuadratureError) as exc:
        condition_report(op, FIVE)
    assert str(exc.value) == str(want) and exc.value.panels == want.panels


KILLED_PARENT = """
import os, time
from hyp3 import conditions
from hyp3.battery import BATTERY

def cell(op, xi):
    os.write(1, b"%d\\n" % os.getpid())   # one write: the workers share the pipe
    time.sleep(60)

conditions.condition_integrals = cell
conditions.condition_report(BATTERY["sin_gap"].op, conditions.default_ladder(64.0, 1024.0, 5))
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or not os.path.isdir("/proc"),
                    reason="needs ladder workers and /proc")
def test_workers_exit_when_their_parent_is_killed():
    parent = subprocess.Popen([sys.executable, "-c", KILLED_PARENT], stdout=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    workers = [int(parent.stdout.readline()) for _ in range(2)]
    parent.kill()
    parent.wait()
    parent.stdout.close()
    try:
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, 9)


UNPICKLABLE_CALL = """
import dataclasses, multiprocessing
from collections.abc import Mapping
import numpy as np
from hyp3 import conditions
from hyp3.battery import BATTERY

class Coefficients(Mapping):
    def __init__(self, items): self._items = dict(items)
    def __getitem__(self, key): return self._items[key]
    def __iter__(self): return iter(self._items)
    def __len__(self): return len(self._items)
    def __reduce__(self): raise TypeError("these coefficients refuse to be pickled")

def bits(cell):
    return (cell.xi_mag.hex(), [x.hex() for x in cell.direction],
            {k: v.hex() for k, v in cell.values.items()},
            {k: v.hex() for k, v in cell.alternates.items()}, cell.panels, cell.rel_change.hex())

op = BATTERY["sin_gap"].op
op = dataclasses.replace(op, coeffs=Coefficients(op.coeffs))
ladder = conditions.default_ladder(64.0, 1024.0, 5)
pooled = conditions.condition_report(op, ladder).ladder
cells = [conditions.condition_integrals(op, np.array([m])) for m in ladder]
print(len(pooled), "cells,", "equal bit for bit:", list(map(bits, pooled)) == list(map(bits, cells)))
print(len(multiprocessing.active_children()), "workers left")
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs ladder workers")
def test_a_call_that_cannot_be_pickled_runs_in_the_workers():
    # forked workers get the operator itself; a subprocess, so that a pool
    # that waits for ever fails the test at the timeout instead of hanging the suite
    done = subprocess.run([sys.executable, "-c", UNPICKLABLE_CALL], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout == "5 cells, equal bit for bit: True\n0 workers left\n"


def test_scaling_covariance_of_levi_integrals():
    # constant principal part, time-dependent lower order: scaling the lower
    # order by kappa scales the order-2 integral by |kappa| and the order-1
    # integral by sqrt |kappa|
    base = _op("s1", {(1, (2,)): "-1", (0, (2,)): "sin(t)+2", (0, (1,)): "cos(t)"})
    scaled = _op("s3", {(1, (2,)): "-1", (0, (2,)): "3*(sin(t)+2)", (0, (1,)): "3*cos(t)"})
    xi = np.array([256.0])
    a = condition_integrals(base, xi)
    b = condition_integrals(scaled, xi)
    assert abs(b.values["m_levi"] - 3.0 * a.values["m_levi"]) <= 1e-9 * b.values["m_levi"]
    assert abs(b.values["n_levi"] - math.sqrt(3.0) * a.values["n_levi"]) \
        <= 1e-9 * b.values["n_levi"]


# ---------------------------------------------------------------------------
# log_fit


def test_log_fit_exact_logarithmic():
    rows = [(x, 5.0 * math.log1p(x)) for x in (64.0, 128.0, 256.0, 512.0, 1024.0)]
    fit = log_fit(rows)
    assert fit.verdict == "logarithmic"
    assert abs(fit.slope - 5.0) < 1e-12


def test_log_fit_sqrt_growth_is_violated():
    rows = [(2.0 ** k, math.sqrt(2.0 ** k)) for k in range(6, 15)]
    assert log_fit(rows).verdict == "violated"


def test_log_fit_zero_integral():
    rows = [(2.0 ** k, 0.0) for k in range(6, 12)]
    fit = log_fit(rows)
    assert fit.verdict == "logarithmic" and fit.slope == 0.0


def test_log_fit_bounded_integral_counts_as_logarithmic():
    rows = [(2.0 ** k, 3.0) for k in range(6, 15)]
    assert log_fit(rows).verdict == "logarithmic"


@pytest.mark.parametrize("cell, value", [(0, math.nan), (3, math.nan), (-1, math.inf)])
def test_log_fit_non_finite_cell_is_inconclusive(cell, value):
    rows = [(2.0 ** k, 5.0 * math.log1p(2.0 ** k)) for k in range(6, 15)]
    rows[cell] = (rows[cell][0], value)
    fit = log_fit(rows)
    assert fit.verdict == "inconclusive"
    # the slope does not depend on where the NaN sits
    assert math.isnan(fit.slope) if math.isnan(value) else fit.slope == value


def test_log_fit_insufficient_ladder():
    with pytest.raises(ValueError):
        log_fit([(64.0, 1.0)] * 4)
    with pytest.raises(ValueError):
        log_fit([(64.0, 1.0), (70.0, 1.0), (80.0, 1.0), (90.0, 1.0), (100.0, 1.0)])


# ---------------------------------------------------------------------------
# equivalent forms / bands


def test_equivalent_forms_zero_for_strict_constant():
    rep = condition_report(STRICT, ladder=[2.0 ** k for k in range(6, 12)])
    for cell in rep.ladder:
        assert all(v == 0.0 for v in cell.alternates.values())
    assert all(b["stable"] for b in rep.bands.values())


def test_equivalent_forms_surface():
    from hyp3.conditions import ALTERNATE_KEYS
    forms = condition_integrals(TRIPLE_DX, np.array([256.0])).alternates
    assert set(forms) == set(ALTERNATE_KEYS)
    assert forms["n_levi_crit"] > 0


def test_triple_dx_crit_form_same_power_as_primary():
    # denominator |sigma_2 - sigma_1| + 1 = 1 for the triple root
    xi = 1024.0
    cell = condition_integrals(TRIPLE_DX, np.array([xi]))
    assert abs(cell.alternates["n_levi_crit"] - 2.0 * math.sqrt(xi)) <= 1e-6 * math.sqrt(xi)
    ratio = cell.alternates["n_levi_crit"] / cell.values["n_levi"]
    assert abs(ratio - math.sqrt(2.0 * math.sqrt(2.0))) < 1e-9


def test_r33_denominator_family_bands_on_battery_member():
    rep = condition_report(battery_member("strict_sin").op,
                           ladder=[2.0 ** k for k in range(6, 12)])
    assert all(b["stable"] for b in rep.bands.values())


# ---------------------------------------------------------------------------
# pointwise checks


def test_pointwise_triple_root_compat():
    ladder = [2.0 ** k for k in range(6, 15, 2)]
    rep = pointwise_levi(_op("t3", {}), ladder=ladder)
    assert rep.case == "III" and not rep.ambiguous
    assert all(c["verdict"] == "satisfied" for c in rep.checks.values())

    rep = pointwise_levi(TRIPLE_DX, ladder=ladder)
    assert rep.case == "III"
    assert rep.checks["triple_root_compat/n_at_root"]["verdict"] == "violated"
    assert rep.checks["triple_root_compat/m_at_root"]["verdict"] == "satisfied"

    rep = pointwise_levi(_op("dxx", {(0, (2,)): "-1"}), ladder=ladder)
    assert rep.checks["triple_root_compat/m_at_root"]["verdict"] == "violated"


def test_pointwise_case_one_oleinik_pair():
    ladder = [2.0 ** k for k in range(6, 15, 2)]
    ok = pointwise_levi(OLEINIK, ladder=ladder)
    assert ok.case == "I"
    assert ok.checks["m_bound_n1"]["verdict"] == "bounded"
    assert ok.checks["m_disc_bound"]["verdict"] == "bounded"

    bad = pointwise_levi(_op("olk_bad", {(1, (2,)): "-t^2", (0, (2,)): "1"}), ladder=ladder)
    assert bad.case == "I"
    assert bad.checks["m_bound_n1"]["verdict"] == "unbounded-trend"


def test_pointwise_case_two_double_root():
    ladder = [2.0 ** k for k in range(6, 13, 2)]
    # persistent double root at 0, simple root (1+t) xi; no order-2 term:
    # the corrected symbol is xi * tau, which vanishes on the double root
    ok = _op("dbl_ok", {(2, (1,)): "-(1 + t)"})
    rep = pointwise_levi(ok, ladder=ladder)
    assert rep.case == "II" and not rep.ambiguous
    assert rep.checks["m_vanishes_on_double"]["verdict"] == "satisfied"
    assert rep.checks["quotient_disc_bound"]["verdict"] == "bounded"
    assert rep.checks["division_remainder"]["verdict"] == "bounded"

    # an order-2 term xi^2 leaves the corrected symbol alive on the double root
    bad = _op("dbl_bad", {(2, (1,)): "-(1 + t)", (0, (2,)): "1"})
    rep = pointwise_levi(bad, ladder=ladder)
    assert rep.case == "II"
    assert rep.checks["m_vanishes_on_double"]["verdict"] == "violated"


def test_nan_grid_ratio_is_inconclusive():
    num = np.array([1.0, math.nan, 2.0])
    sup = _grid_sup([(num, np.ones(3), 1.0, 1.0)])
    assert math.isnan(sup)
    assert _sup_verdict([sup] * 5, [sup] * 5) == "inconclusive"
    assert _sup_verdict([1.0] * 5, [1.0] * 4 + [math.nan]) == "inconclusive"


def test_pointwise_levi_evaluates_each_grid_point_once(monkeypatch):
    steps = []
    step = operators._symbols_at
    monkeypatch.setattr(operators, "_symbols_at",
                        lambda op, t, xi: steps.append(t) or step(op, t, xi))
    principal = Operator3.principal
    calls = []
    monkeypatch.setattr(Operator3, "principal",
                        lambda op, t, xi: calls.append(t) or principal(op, t, xi))
    ladder = default_ladder()[::2]
    rep = pointwise_levi(battery_member("sin_gap").op, ladder=ladder)
    assert rep.case == "I"
    # one array call per base grid (256 times) and per fine grid (1024 times)
    # of each |xi|: 10 calls over 6,400 points
    sizes = [len(t) for t in steps]
    assert sizes == [len(t) for t in calls] == [256] * len(ladder) + [1024] * len(ladder)
    assert sum(sizes) == 6400


@pytest.mark.parametrize("name", battery_names(order=3))
def test_grid_terms_match_integrand(name):
    op = BATTERY[name].op
    xi = np.array([256.0])
    ts = np.linspace(0.0, op.horizon, 64)
    terms, _ = _primary_terms(symbol_grid(op, ts, xi))
    for i, t in enumerate(ts):
        point = _integrand_values(op, float(t), xi)[:6]
        assert [float(v[i]) for v in terms] == [float(v) for v in point], (name, t)


# ---------------------------------------------------------------------------
# constant-coefficient checks


def test_constant_coeff_decomposition_wellposed():
    op = _op("ccwp", {(1, (2,)): "-1", (0, (2,)): "1"})
    rep = constant_coeff_check(op, ladder=[2.0 ** k for k in range(6, 15)])
    assert rep["decomposition_verdict"] == "bounded"
    assert rep["im_verdict"] == "bounded"
    # ell = (-1, 1/2, 1/2) at every frequency
    assert all(abs(r["ell_max"] - 1.0) < 1e-9 for r in rep["rows"])
    assert all(r["m_max"] == 0.0 for r in rep["rows"])
    assert all(r["im_sup"] == 0.0 for r in rep["rows"])


def test_constant_coeff_zero_gap_nonzero_numerator_is_unbounded():
    rep = constant_coeff_check(TRIPLE_DX, ladder=[2.0 ** k for k in range(6, 15)])
    assert rep["decomposition_verdict"] == "unbounded"
    assert math.isinf(rep["rows"][0]["m_max"])
    assert rep["im_verdict"] == "unbounded-trend"
    assert abs(rep["im_growth_power"] - 1.0 / 3.0) < 0.05


def test_constant_coeff_trivial_operator():
    rep = constant_coeff_check(_op("t3", {}), ladder=[2.0 ** k for k in range(6, 15)])
    assert rep["decomposition_verdict"] == "bounded"
    assert all(r["im_sup"] == 0.0 for r in rep["rows"])


def test_constant_coeff_rejects_time_dependence():
    with pytest.raises(OperatorSpecError):
        constant_coeff_check(OLEINIK)


# ---------------------------------------------------------------------------
# second-order model


def test_second_order_wave_operator_zero():
    op2 = _op2("wave2", {(0, (2,)): "-1"})
    ia, ib = second_order_check(op2, np.array([128.0]))
    assert ia == 0.0 and ib == 0.0


def test_second_order_oleinik_closed_form():
    op2 = _op2("olk2", {(0, (2,)): "-t^2", (0, (1,)): "1"})
    xi = 512.0
    ia, ib = second_order_check(op2, np.array([xi]))
    # asinh antiderivative of the weighted lower-order integrand
    closed = 0.5 * math.asinh(2.0 * xi)
    assert abs(ib - closed) <= 1e-6 * closed
    rep = second_order_report(op2)
    assert rep["verdicts"] == {"disc_drift": "logarithmic", "lower_weighted": "logarithmic"}


@pytest.mark.parametrize("xi", [64.0, 1024.0, 16384.0])
def test_second_order_mixed_and_lower_slots_closed_form(xi):
    # a = 2 t xi (d_t d_x), c0 = 1 (d_t), d = 5 (zeroth order): disc = 4 t^2 xi^2,
    # and the lower-order numerator is -xi (t + 1)
    op2 = _op2("mixed", {(1, (1,)): "2*t", (1, (0,)): "1", (0, (0,)): "5"})
    ia, ib = second_order_check(op2, np.array([xi]))
    r = math.sqrt(1.0 + 4.0 * xi * xi)
    assert ia == pytest.approx(math.log(r * r), rel=1e-9)
    assert ib == pytest.approx(0.5 * math.asinh(2.0 * xi) + (r - 1.0) / (4.0 * xi), rel=1e-9)


def test_second_order_degenerate_violating():
    op2 = _op2("flat", {(0, (1,)): "1"})
    xi = 256.0
    ia, ib = second_order_check(op2, np.array([xi]))
    assert ia == 0.0
    assert abs(ib - xi) <= 1e-9 * xi  # T |c1| |xi| with T = 1
    rep = second_order_report(op2)
    assert rep["verdicts"]["lower_weighted"] == "violated"


@pytest.mark.parametrize("b, xi, where", [("t - 0.5", 64.0, r"t=0\.5\d*, xi=\[64\.\]"),
                                          ("1", 2.0 ** 17, r"t=0\.00\d*, xi=\[131072\.\]")],
                         ids=["late", "everywhere"])
def test_second_order_integrand_names_a_non_hyperbolic_time(b, xi, where):
    # a^2 - 4b = -4 b xi^2 is negative where b is positive: beyond t = 1/2, or
    # everywhere, at any |xi| (a band of the size of b^2 would pass it here)
    with pytest.raises(HyperbolicityViolation, match=where + "$"):
        second_order_check(_op2("nonhyp2", {(0, (2,)): b}), np.array([xi]))


def test_second_order_discriminant_inside_the_tolerance_band_counts_as_zero():
    # a = 2 xi, b = (1 + 1e-10) xi^2: a^2 - 4b = -4e-10 xi^2, which is -1.7 at
    # |xi| = 2^16 but far inside the band, where only the clamp keeps sqrt(disc + 1) real
    op2 = _op2("weak2", {(1, (1,)): "2", (0, (2,)): "1.0000000001"})
    assert second_order_check(op2, np.array([2.0 ** 16])) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# oscillation counts


def test_oscillation_count_constant_operator():
    counts = oscillation_count(STRICT, np.array([256.0]), target="gap")
    assert all(v == 0 for v in counts.values())
    counts = oscillation_count(STRICT, np.array([256.0]), target="m_at_aux")
    assert all(v == 0 for v in counts.values())


def test_oscillation_count_sin_gap_stable_across_frequencies():
    op = _op("sin_gap", {(1, (2,)): "-sin(t)^2"}, horizon=3.0)
    per_xi = [oscillation_count(op, np.array([2.0 ** k]), target="gap")
              for k in (6, 8, 10, 12)]
    for branch in per_xi[0]:
        vals = {c[branch] for c in per_xi}
        assert len(vals) == 1, f"{branch}: {[c[branch] for c in per_xi]}"


def _count_extrema_loop(values):
    # the per-difference loop _count_extrema replaced, as the oracle
    floor = 1e-9 * (float(np.max(np.abs(values))) + 1.0)
    signs = [1 if d > 0 else -1 for d in np.diff(values) if abs(d) >= floor]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_count_extrema_on_arrays_counts_as_the_loop():
    rng = np.random.default_rng(11)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-12, 1e300])
    for trial in range(400):
        n = int(rng.integers(1, 60))
        values = np.round(rng.normal(size=n), int(rng.integers(0, 4)))  # ties
        values = np.repeat(values, rng.integers(1, 4, size=n))  # plateaus
        if trial % 2:
            at = rng.integers(0, len(values), size=int(rng.integers(1, 4)))
            values[at] = rng.choice(special, size=len(at))
        with np.errstate(invalid="ignore"):  # inf - inf in np.diff, on both paths
            assert _count_extrema(values) == _count_extrema_loop(values), values


def test_oscillation_count_unknown_target():
    with pytest.raises(ValueError):
        oscillation_count(STRICT, np.array([64.0]), target="nope")


# ---------------------------------------------------------------------------
# dimension >= 2


def test_conditions_two_space_dimensions():
    # d_t^3 - d_t Laplacian + t (d_x1^2 + d_x2^2): isotropic, so the ladder
    # along any unit direction reproduces the one-dimensional verdicts
    op = Operator3("iso2", 2, 1.0, {
        (1, (2, 0)): P("-1"), (1, (0, 2)): P("-1"),
        (0, (2, 0)): P("t"), (0, (0, 2)): P("t"),
    })
    d = np.array([0.6, 0.8])
    cell = condition_integrals(op, 256.0 * d)
    ref = condition_integrals(
        Operator3("iso1", 1, 1.0, {(1, (2,)): P("-1"), (0, (2,)): P("t")}),
        np.array([256.0]))
    for key in cell.values:
        assert abs(cell.values[key] - ref.values[key]) \
            <= 1e-9 * max(1.0, abs(ref.values[key]))
    rep = pointwise_levi(op, ladder=[2.0 ** k for k in range(6, 13, 2)], direction=d)
    assert rep.case == "I"
