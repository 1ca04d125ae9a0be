import math
import warnings

import numpy as np
import pytest

from hyp3 import operators
from hyp3.battery import BATTERY, battery_member, battery_names
from hyp3.conditions import (
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
from hyp3.errors import OperatorSpecError, QuadratureError
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


def test_quadrature_refinement_stability():
    # tightening the tolerance tenfold moves every integral by < 1e-6 rel
    a = condition_integrals(OLEINIK, np.array([512.0]), rel_tol=1e-6)
    b = condition_integrals(OLEINIK, np.array([512.0]), rel_tol=1e-7)
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
    # one base grid (256 points) and one fine grid (1024) per |xi|
    assert len(steps) == len(calls) == len(ladder) * (256 + 1024) == 6400


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


def test_second_order_degenerate_violating():
    op2 = _op2("flat", {(0, (1,)): "1"})
    xi = 256.0
    ia, ib = second_order_check(op2, np.array([xi]))
    assert ia == 0.0
    assert abs(ib - xi) <= 1e-9 * xi  # T |c1| |xi| with T = 1
    rep = second_order_report(op2)
    assert rep["verdicts"]["lower_weighted"] == "violated"


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
