"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Expensive artifacts
(growth fits, condition reports, energy ladders) are computed once per
session and shared.
"""

import math

import numpy as np
import pytest

from hyp3.battery import BATTERY, battery_member, battery_names
from hyp3.cli import main
from hyp3.conditions import (
    condition_report,
    constant_coeff_check,
    oscillation_count,
    pointwise_levi,
    second_order_check,
    second_order_report,
)
from hyp3.identities import ALGEBRAIC_TOLERANCES, run_algebraic_suite
from hyp3.modes import (
    calibrate_eta,
    energy_trace,
    growth_experiment,
    identity_residuals,
    solve_mode,
)
from hyp3.operators import measure_separation

LADDER = [2.0 ** k for k in range(6, 15)]          # 2^6 .. 2^14
WIDE_LADDER = [2.0 ** k for k in range(4, 17)]     # 2^4 .. 2^16
ENERGY_LADDER = [2.0 ** k for k in range(8, 13)]   # 2^8 .. 2^12

LEVI_MEMBERS = [n for n in battery_names(order=3) if BATTERY[n].levi_ok]
TIME_DEP_MEMBERS = [n for n in battery_names(order=3) if not BATTERY[n].op.is_constant()]
GROWTH_MEMBERS = ("strict_const", "triple_plus_dx", "triple_plus_dxx",
                  "const_coeff_wellposed", "triple_pure")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE-{num:02d} {name}: {status}{extra}")


@pytest.fixture(scope="session")
def condition_reports():
    return {name: condition_report(BATTERY[name].op, LADDER)
            for name in battery_names(order=3)}


@pytest.fixture(scope="session")
def growth_fits():
    return {name: growth_experiment(BATTERY[name].op, LADDER, grid_points=1024)
            for name in GROWTH_MEMBERS}


@pytest.fixture(scope="session")
def energy_ladders():
    out = {}
    for name in LEVI_MEMBERS:
        op = BATTERY[name].op
        sol0 = solve_mode(op, np.array([ENERGY_LADDER[0]]), grid_points=2048)
        eta, _ = calibrate_eta(op, sol0)
        rows = []
        sols = [sol0] + [solve_mode(op, np.array([mag]), grid_points=2048)
                         for mag in ENERGY_LADDER[1:]]  # the first rung is sol0
        for mag, sol in zip(ENERGY_LADDER, sols):
            tr = energy_trace(op, sol, eta)
            rows.append({"xi": mag, "c_emp": tr.growth_constant(),
                         "gmax": float(np.max(tr.dlogE()))})
        out[name] = {"eta": eta, "rows": rows}
    return out


def test_criterion_01_algebraic_identity_suite():
    results = run_algebraic_suite(10_000, seed=42)
    ok = all(r.passed for r in results)
    worst = max(results, key=lambda r: r.max_residual / r.tolerance)
    _report(1, "algebraic identities", ok,
            f"worst {worst.name} residual {worst.max_residual:.2e} vs {worst.tolerance:g}")
    for r in results:
        assert r.max_residual <= ALGEBRAIC_TOLERANCES[r.name], r.name
    assert ok


def test_criterion_02_regularized_root_separation():
    ok = True
    details = []
    for name in battery_names(order=3):
        rows = measure_separation(BATTERY[name].op, ladder=WIDE_LADDER, nt=128)
        gaps = [r["min_gap"] for r in rows]
        shifts = [r["max_shift"] for r in rows]
        member_ok = min(gaps) > 0.1
        # the separation constant must not degrade across doubling, and the
        # root shift must stay bounded (no growth trend)
        member_ok &= all(b >= 0.9 * a for a, b in zip(gaps, gaps[1:]))
        member_ok &= all(b <= 1.1 * a + 1e-9 for a, b in zip(shifts, shifts[1:]))
        details.append(f"{name}: gap>={min(gaps):.2f} shift<={max(shifts):.2f}")
        ok &= member_ok
    _report(2, "regularized root separation", ok, "; ".join(details[:3]) + " ...")
    assert ok


def test_criterion_03_operator_identities_on_trajectories():
    ok = True
    worst = ("", 0.0)
    for name in TIME_DEP_MEMBERS:
        op = BATTERY[name].op
        xi = 64.0
        sol = solve_mode(op, np.array([xi]), grid_points=4096)
        res = identity_residuals(op, sol)
        for key, val in res.items():
            if not val < 1e-6:
                ok = False
            if val > worst[1]:
                worst = (f"{name}/{key}", val)
    _report(3, "trajectory operator identities", ok,
            f"worst {worst[0]} = {worst[1]:.2e} (tol 1e-6)")
    assert ok


def test_criterion_04_growth_exponents(growth_fits):
    checks = {
        "triple_plus_dx": ("exp_power", 1.0 / 3.0),
        "triple_plus_dxx": ("exp_power", 2.0 / 3.0),
        "strict_const": ("polynomial", None),
        "const_coeff_wellposed": ("polynomial", None),
    }
    ok = True
    details = []
    for name, (model, kappa) in checks.items():
        fit = growth_fits[name]
        good = fit.model == model
        if kappa is not None:
            good &= abs(fit.kappa - kappa) <= 0.05
            details.append(f"{name}: kappa={fit.kappa:.3f}")
        else:
            good &= abs(fit.poly_degree) <= 0.05
            details.append(f"{name}: degree={fit.poly_degree:.3f}")
        ok &= good
    _report(4, "growth exponents", ok, "; ".join(details))
    for name, (model, kappa) in checks.items():
        fit = growth_fits[name]
        assert fit.model == model, name
        if kappa is not None:
            assert abs(fit.kappa - kappa) <= 0.05, name
        else:
            assert abs(fit.poly_degree) <= 0.05, name


def test_criterion_05_condition_verdicts_and_battery_gate(condition_reports, tmp_path):
    expect = {
        "strict_const": {"all": "logarithmic"},
        "oleinik_ok": {"all": "logarithmic"},
        "triple_plus_dx": {"n_levi": "violated"},
        "triple_plus_dxx": {"m_levi": "violated"},
        "oleinik_bad": {"m_levi": "violated"},
    }
    ok = True
    for name, want in expect.items():
        verd = condition_reports[name].verdicts
        for key, v in want.items():
            if key == "all":
                ok &= all(x == v for x in verd.values())
            else:
                ok &= verd[key] == v
    # the violating oleinik member also fails the weighted pointwise bound
    case = pointwise_levi(BATTERY["oleinik_bad"].op, ladder=LADDER[::2])
    ok &= case.checks["m_bound_n1"]["verdict"] == "unbounded-trend"

    rc = main(["battery", "--out", str(tmp_path)])
    gate_ok = rc == 0
    _report(5, "condition verdicts + battery gate", ok and gate_ok,
            f"gate exit {rc}")
    assert ok and gate_ok


def test_criterion_06_energy_estimate_witness(energy_ladders):
    ok = True
    details = []
    for name, data in energy_ladders.items():
        cs = [r["c_emp"] for r in data["rows"]]
        gmaxes = [r["gmax"] for r in data["rows"]]
        member_ok = max(gmaxes) <= 0.1
        for a, b in zip(cs, cs[1:]):
            member_ok &= abs(b - a) <= 0.1 * max(a, b, 0.25)
        details.append(f"{name}: eta={data['eta']:.0f} C={cs[-1]:.2f}")
        ok &= member_ok
    _report(6, "energy estimate witness", ok, "; ".join(details[:3]) + " ...")
    assert ok


def test_criterion_07_equivalence_bands(condition_reports):
    ok = True
    worst = ("", math.inf)
    for name, rep in condition_reports.items():
        for key, band in rep.bands.items():
            if not band["stable"]:
                ok = False
                worst = (f"{name}/{key}", band["hi"])
    _report(7, "equivalence bands", ok,
            "all alternates banded +-20%" if ok else f"unstable {worst[0]}")
    assert ok


def test_criterion_08_constant_coefficient_cross_validation(growth_fits):
    ok = True
    details = []
    for name in GROWTH_MEMBERS:
        member = BATTERY[name]
        cc = constant_coeff_check(member.op, LADDER)
        poly = growth_fits[name].model == "polynomial"
        bounded = cc["decomposition_verdict"] == "bounded"
        ok &= poly == bounded
        if name in ("strict_const", "triple_pure", "const_coeff_wellposed"):
            sup_im = max(r["im_sup"] for r in cc["rows"])
            ok &= sup_im == 0.0
            details.append(f"{name}: im=0")
        if name == "triple_plus_dx":
            ok &= abs(cc["im_growth_power"] - 1.0 / 3.0) <= 0.05
            details.append(f"dx im power {cc['im_growth_power']:.3f}")
    _report(8, "constant-coefficient cross-validation", ok, "; ".join(details))
    assert ok


def test_criterion_09_second_order_conditions():
    wave = battery_member("wave2").op
    ia, ib = second_order_check(wave, np.array([256.0]))
    ok = ia == 0.0 and ib == 0.0

    rep_ok = second_order_report(battery_member("oleinik2_ok").op, LADDER)
    ok &= rep_ok["verdicts"]["lower_weighted"] == "logarithmic"
    ratios = rep_ok["fits"]["lower_weighted"].ratios
    ok &= max(ratios) <= 1.2 * min(ratios)

    rep_bad = second_order_report(battery_member("oleinik2_bad").op, LADDER)
    ok &= rep_bad["verdicts"]["lower_weighted"] == "violated"
    _report(9, "second-order conditions", ok,
            f"compatible ratio band {min(ratios):.3f}..{max(ratios):.3f}")
    assert ok


def test_criterion_10_oscillation_counts():
    ok = True
    details = []
    mags = [2.0 ** k for k in (6, 8, 10, 12)]
    for name in battery_names(order=3):
        op = BATTERY[name].op
        for target in ("gap", "m_at_aux", "n_at_auxcrit"):
            per_xi = [oscillation_count(op, np.array([m]), target=target, nt=4096)
                      for m in mags]
            for branch in per_xi[0]:
                vals = {c[branch] for c in per_xi}
                if len(vals) != 1:
                    ok = False
                    details.append(f"{name}/{target}/{branch}: {sorted(vals)}")
    _report(10, "oscillation-count stability", ok,
            "; ".join(details) if details else "counts constant across doubling")
    assert ok
