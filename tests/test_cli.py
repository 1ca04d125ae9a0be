import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyp3 import cli, identities, modes, quadrature
from hyp3.cli import main
from hyp3.expr import MAX_DEPTH
from hyp3.opfile import load_operator


def _strict_loads(text):
    """json.loads that rejects the non-standard Infinity/NaN literals."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (_strict_loads(out) if out.strip() else None)


def test_identities_pass_and_report(capsys):
    rc, doc = _run(capsys, "identities", "--samples", "300", "--seed", "11")
    assert rc == 0
    assert doc["pass"] is True
    names = {r["name"] for r in doc["algebraic"]}
    assert "reg_disc_expansion" in names and "sumsq_vs_crit_gap" in names
    assert set(doc["trajectory"]) == {"strict_sin", "oleinik_ok"}
    for per_op in doc["trajectory"].values():
        assert all(v["pass"] for v in per_op.values())


def test_identities_zero_samples_trivial(capsys):
    rc, doc = _run(capsys, "identities", "--samples", "0")
    assert rc == 0 and doc["algebraic"] == [] and doc["pass"] is True


def test_identities_corrupted_formula_fails_and_names_it(capsys, monkeypatch):
    exact = identities.discriminant
    monkeypatch.setattr(identities, "discriminant", lambda c: exact(c) * (1.0 + 1e-5))
    rc, doc = _run(capsys, "identities", "--samples", "100")
    assert rc == 1
    assert doc["pass"] is False
    assert "disc_vs_root_products" in doc["failures"]


def test_identities_deterministic_documents(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["identities", "--samples", "200", "--seed", "3", "--out", str(a)]) == 0
    assert main(["identities", "--samples", "200", "--seed", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "identities.json").read_bytes() == (b / "identities.json").read_bytes()


def test_check_single_battery_member(capsys):
    rc, doc = _run(capsys, "check", "--battery", "triple_plus_dx",
                   "--xi-min", "64", "--xi-max", "16384", "--xi-steps", "9")
    assert rc == 0
    op = doc["operators"]["triple_plus_dx"]
    assert op["verdicts"]["n_levi"] == "violated"
    assert op["case_report"]["case"] == "III"
    assert op["constant_coeff"]["decomposition_verdict"] == "unbounded"
    assert doc["pass"] is True


def test_check_document_with_infinities_is_strict_json(tmp_path, capsys):
    main(["check", "--battery", "triple_plus_dx", "--xi-min", "64", "--xi-max", "2048",
          "--xi-steps", "6", "--out", str(tmp_path)])
    capsys.readouterr()
    doc = _strict_loads((tmp_path / "conditions.json").read_text())
    rows = doc["operators"]["triple_plus_dx"]["constant_coeff"]["rows"]
    assert [r["m_max"] for r in rows] == ["inf"] * 6


def test_battery_full_writes_one_modes_document(tmp_path, monkeypatch, capsys):
    from hyp3 import cli
    from hyp3.battery import battery_member, battery_names
    from hyp3.modes import GrowthFit

    def fake_growth(op, ladder, direction, grid_points):
        # every member meets its declaration except triple_plus_dxx
        m = battery_member(op.name)
        model = "polynomial" if op.name == "triple_plus_dxx" else m.expected_growth
        return GrowthFit([], model, m.expected_kappa or 1.0, 1.0, 0.0, math.nan)

    monkeypatch.setattr(cli, "cmd_check", lambda args, targets: cli.EXIT_OK)
    monkeypatch.setattr(cli, "growth_experiment", fake_growth)
    gated = {n for n in battery_names(order=3) if battery_member(n).expected_growth}
    assert len(gated) == 6
    assert main(["battery", "--full", "--out", str(tmp_path)]) == 1
    doc = _strict_loads((tmp_path / "modes.json").read_text())
    assert set(doc["operators"]) == gated
    # a member's mismatches are its own, even under a name it prefixes
    assert doc["operators"]["triple_plus_dx"]["mismatches"] == []
    assert len(doc["operators"]["triple_plus_dxx"]["mismatches"]) == 1
    rc, doc = _run(capsys, "battery", "--full")  # one document on stdout
    assert rc == 1 and set(doc["operators"]) == gated


def test_check_operator_file(tmp_path, capsys):
    p = tmp_path / "wave.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\nname = wave\na[1,(2)] = -1\n")
    rc, doc = _run(capsys, "check", "--config", str(p),
                   "--xi-min", "64", "--xi-max", "2048", "--xi-steps", "6")
    assert rc == 0
    assert doc["operators"]["wave"]["verdicts"]["m_levi"] == "logarithmic"


def test_check_second_order_file(tmp_path, capsys):
    p = tmp_path / "o2.op"
    p.write_text("order = 2\ndimension = 1\nT = 1.0\nname = o2\n"
                 "a[0,(2)] = -t^2\na[0,(1)] = 1\n")
    rc, doc = _run(capsys, "check", "--config", str(p))
    assert rc == 0
    assert doc["operators"]["o2"]["order"] == 2
    assert doc["operators"]["o2"]["verdicts"]["lower_weighted"] == "logarithmic"


def test_check_two_dimensional_operator_with_direction(tmp_path, capsys):
    p = tmp_path / "iso2.op"
    p.write_text("order = 3\ndimension = 2\nT = 1.0\nname = iso2\n"
                 "a[1,(2,0)] = -1\na[1,(0,2)] = -1\n")
    rc, doc = _run(capsys, "check", "--config", str(p), "--direction", "0.6,0.8",
                   "--xi-min", "64", "--xi-max", "2048", "--xi-steps", "6")
    assert rc == 0
    assert doc["operators"]["iso2"]["verdicts"]["m_levi"] == "logarithmic"
    rc, _ = _run(capsys, "check", "--config", str(p), "--direction", "1")
    assert rc == 2  # wrong component count


def test_check_usage_error_without_target(capsys):
    rc, _ = _run(capsys, "check")
    assert rc == 2


def test_check_nonexistent_file(capsys):
    rc, _ = _run(capsys, "check", "--config", "/no/such/file.op")
    assert rc == 2


def test_check_non_hyperbolic_operator_is_numerical_failure(tmp_path, capsys):
    p = tmp_path / "bad.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = 1\n")
    rc, _ = _run(capsys, "check", "--config", str(p))
    assert rc == 3


def test_check_names_the_discriminant_of_complex_roots_at_any_frequency(tmp_path, capsys):
    # tau^3 - 3 xi^2 tau + 3 xi^3: complex roots at every |xi|, not a double root
    p = tmp_path / "complex3.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = -3\na[0,(3)] = 3\n")
    assert main(["check", "--config", str(p)]) == 3
    assert capsys.readouterr().err == ("hyp3: numerical failure: discriminant -9.27713e+12 "
                                       "below the hyperbolicity tolerance, at t=0, xi=[64.]\n")


@pytest.mark.parametrize("b, where", [("1", "t=0"), ("t - 0.5", "t=0.501961")])
def test_check_non_hyperbolic_second_order_operator_is_numerical_failure(tmp_path, capsys,
                                                                          b, where):
    # the validation grid is scanned before any cell, as for order 3
    p = tmp_path / "bad2.op"
    p.write_text(f"order = 2\ndimension = 1\nT = 1.0\na[0,(2)] = {b}\n")
    assert main(["check", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hyp3: numerical failure: discriminant ")
    assert err.endswith(f"below the hyperbolicity tolerance, at {where}, xi=[64.]\n")
    assert err.count("\n") == 1


def test_check_names_the_point_of_a_failure_inside_the_quadrature(tmp_path, capsys):
    # hyperbolic everywhere, but the derivative quadratic's discriminant dips
    # below the tolerance near t = 0.3, which only the condition integrand sees
    p = tmp_path / "touch.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -(t - 0.3)^2 + 0.000000000001\n")
    assert main(["check", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hyp3: numerical failure: discriminant ")
    assert err.endswith("at derivative quadratic, at t=0.299999, xi=[64.]\n")


def test_check_names_the_first_non_hyperbolic_point(tmp_path, capsys):
    p = tmp_path / "late.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = t - 0.5\n")
    assert main(["check", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hyp3: numerical failure:") and "t=0.501961, xi=[64.]" in err


def test_check_reports_the_principal_discriminant_of_a_non_hyperbolic_time(tmp_path, capsys):
    # the validation grid solves the plain cubic before the regularized one
    p = tmp_path / "late.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = t - 0.5\n")
    assert main(["check", "--config", str(p)]) == 3
    assert capsys.readouterr().err == (
        "hyp3: numerical failure: discriminant -2072.19 below the hyperbolicity tolerance, "
        "at t=0.501961, xi=[64.]\n")


def test_check_stops_at_a_grid_error_before_the_condition_cells(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("condition cells ran before the validation grid")
    monkeypatch.setattr(cli, "condition_report", never)
    p = tmp_path / "logt.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -(2+sin(t))^2\na[0,(0)] = log(t)\n")
    assert main(["check", "--config", str(p)]) == 2
    assert capsys.readouterr().err == (
        "hyp3: config error: log of non-positive value 0.0, at t=0, xi=[64.]\n")


@pytest.mark.parametrize("line,message", [
    ("a[0,(0)] = t^" + "9" * 5000, "exponent too long at offset 2"),
    ("a[" + "9" * 5000 + ",(2)] = t", "time index too long"),
], ids=["exponent", "time_index"])
def test_check_rejects_an_integer_of_more_digits_than_python_converts(tmp_path, capsys,
                                                                       line, message):
    p = tmp_path / "long.op"
    p.write_text(f"order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = -1\n{line}\n")
    assert main(["check", "--config", str(p)]) == 2
    assert capsys.readouterr() == ("", f"hyp3: config error: {p}:5: {message}\n")


@pytest.mark.parametrize("coeffs", [
    "order = 3\na[1,(2)] = -1\na[0,(1)] = 1e300",   # the full cubic of the forbidden-zone test
    "order = 2\na[1,(1)] = 1e195\na[0,(0)] = 4e157",  # the second-order principal symbol
], ids=["order3", "order2"])
def test_check_names_a_discriminant_that_overflows(tmp_path, capsys, coeffs):
    # finite coefficients, but a discriminant past the double range at the
    # first |xi|: a named numerical failure, not a traceback
    p = tmp_path / "big.op"
    p.write_text(f"dimension = 1\nT = 1.0\n{coeffs}\n")
    assert main(["check", "--config", str(p), "--xi-steps", "5"]) == 3
    assert capsys.readouterr() == ("", "hyp3: numerical failure: discriminant overflows the "
                                       "double range, at t=0, xi=[64.]\n")


LONG_ECHOES = {
    "multi_index": "dimension = 1\na[0,(" + "9" * 5000 + ")] = 1",
    "total_order": "dimension = 1\na[0,(" + "9" * 4000 + ")] = 1",
    "exponent": "dimension = 1\na[0,(0)] = t^" + "9" * 400,
    "identifier": "dimension = 1\na[0,(0)] = " + "x" * 4000,
    "key": "dimension = 1\nb" + "x" * 4000 + " = 1",
    "header": "dimension = " + "x" * 4000,
}


@pytest.mark.parametrize("lines", LONG_ECHOES.values(), ids=LONG_ECHOES)
def test_a_config_error_echoes_a_short_piece_of_a_long_input(tmp_path, monkeypatch, capsys,
                                                             lines):
    monkeypatch.chdir(tmp_path)
    Path("long.op").write_text(f"order = 3\nT = 1.0\na[1,(2)] = -1\n{lines}\n")
    assert main(["check", "--config", "long.op", "--xi-steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("hyp3: config error: ") and err.count("\n") == 1
    assert len(err.rstrip("\n").encode()) <= 200 and "characters)" in err


_T_FREE_SLOTS = {order: [(j, a) for j in range(order) for a in range(order - j + 1)]
                 for order in (2, 3)}


@st.composite
def _t_free_operator_files(draw):
    """An operator file of order 2 or 3 in one dimension with 1-4 constant
    coefficients, each from the least subnormal 5e-324 to 1e300 in size, of
    either sign."""
    order = draw(st.sampled_from((2, 3)))
    lines = [f"order = {order}", "dimension = 1", "T = 1.0"]
    for j, a in draw(st.lists(st.sampled_from(_T_FREE_SLOTS[order]), min_size=1, max_size=4,
                              unique=True)):
        c = draw(st.floats(5e-324, 1e300)) * draw(st.sampled_from((1.0, -1.0)))
        lines.append(f"a[{j},({a})] = {c!r}")
    return "\n".join(lines) + "\n"


def test_t_free_operator_files_exit_with_at_most_one_short_named_line(tmp_path, monkeypatch):
    # in process, so a numpy RuntimeWarning fails the example as well
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=40, deadline=None)
    @example("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = -1\na[0,(1)] = 1e300\n")
    @example("order = 3\ndimension = 1\nT = 1.0\na[0,(" + "9" * 5000 + ")] = 1\n")
    @example("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = -1e75\n")  # coeff_scale^4 overflows
    @example("order = 3\ndimension = 1\nT = 1.0\na[1,(2)] = -1e-300\n")  # 2pm underflows
    # a pointwise bound whose ratio is past the double range
    @example("order = 3\ndimension = 1\nT = 1.0\na[2,(1)] = -1e-99\na[0,(2)] = -1e234\n")
    @given(_t_free_operator_files())
    def check(text):
        Path("f.op").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check", "--config", "f.op", "--xi-steps", "5"])
        assert rc in (0, 2, 3)
        if rc == 0:
            _strict_loads(out.getvalue())
        else:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            line = err.getvalue().rstrip("\n")
            assert line.startswith("hyp3: ") and len(line.encode()) <= 200
    check()


def _check_in_subprocess(path, timeout):
    """``hyp3 check`` on an operator file in a fresh interpreter, so that a
    hang fails the test on its timeout."""
    return subprocess.run(
        [sys.executable, "-m", "hyp3.cli", "check", "--config", str(path), "--xi-steps", "5"],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


DEEP_EXPRESSIONS = {
    "sum_of_400_terms": "+".join(["0.001*t"] * 400),
    "sum_of_3000_terms": "+".join(["0.001*t"] * 3000),
    "400_nested_parentheses": "(" * 400 + "t" + ")" * 400,
    "300_nested_sines": "sin(" * 300 + "t" + ")" * 300,
}


@pytest.mark.parametrize("name", DEEP_EXPRESSIONS)
def test_check_rejects_an_expression_nested_too_deep(tmp_path, name):
    p = tmp_path / "deep.op"
    p.write_text(f"order = 3\ndimension = 1\nT = 1.0\n"
                 f"a[1,(2)] = -1\na[0,(0)] = {DEEP_EXPRESSIONS[name]}\n")
    proc = _check_in_subprocess(p, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"hyp3: config error: {p}:5: "
                           f"expression nested deeper than {MAX_DEPTH} levels\n")


def test_check_runs_an_expression_at_the_depth_bound(tmp_path):
    # a time-dependent operator: its ladder cells run in the workers
    p = tmp_path / "bound.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = " + "+".join(["0.001*t"] * (MAX_DEPTH - 1)) + "\n")
    proc = _check_in_subprocess(p, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_check_takes_a_complex_log_lower_order_term(tmp_path, capsys):
    # lower-order terms may be complex and use log; the pointwise checks and
    # the integrand tables evaluate it on whole time grids
    p = tmp_path / "clog.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = log(t*t + i)\n")
    assert main(["check", "--config", str(p), "--xi-steps", "5", "--format", "both",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "integrands_clog.tsv").exists()


def test_modes_names_the_point_of_a_coefficient_domain_error(tmp_path, capsys):
    # log(t - 0.5) is undefined up to t = 0.5; the mode solve meets it in its
    # first right-hand side, at t = 0
    p = tmp_path / "log.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = log(t - 0.5)\n")
    assert main(["modes", "--config", str(p), "--xi-min", "32", "--xi-max", "1024",
                 "--xi-steps", "6", "--grid", "64", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "hyp3: config error: log of non-positive value -0.5, at t=0, xi=[32.]\n")


@pytest.mark.parametrize("horizon, coeffs, steps", [
    ("1.0", "a[1,(2)] = -1e100*(1+t)", "2.15e+50"),  # np.arange cannot index the steps
], ids=["unindexable_steps"])
def test_modes_names_a_magnus_step_count_past_the_index_range(tmp_path, capsys, horizon, coeffs,
                                                              steps):
    p = tmp_path / "steps.op"
    p.write_text(f"order = 3\ndimension = 1\nT = {horizon}\n{coeffs}\n")
    assert main(["modes", "--config", str(p), "--xi-min", "32", "--xi-max", "1024",
                 "--xi-steps", "6", "--grid", "64", "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (f"hyp3: numerical failure: Magnus step count {steps} per output "
                                 f"interval past the step index range, at |xi|=32\n")


@pytest.mark.parametrize("horizon, a0", [
    ("1e-300", "t"),  # h * d underflows to 0
    ("1e-309", "1e295*t"),  # h and h * d are subnormal, and jump / (h * d) overflows
], ids=["zero", "subnormal"])
def test_modes_counts_magnus_steps_where_step_times_deviation_underflows(tmp_path, capsys,
                                                                         horizon, a0):
    # the step h times the coefficient's deviation d underflows, while a
    # jump of the coefficient over d is at most 2: at most 16 steps
    p = tmp_path / "steps.op"
    p.write_text(f"order = 3\ndimension = 1\nT = {horizon}\na[1,(2)] = -1\na[0,(2)] = {a0}\n")
    assert main(["modes", "--config", str(p), "--xi-min", "32", "--xi-max", "1024",
                 "--xi-steps", "6", "--grid", "64", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "modes.json").read_text())["operators"]["steps"]["rows"]
    assert [r["xi"] for r in rows] == [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    assert all(r["amplification"] == 1.0 and not r["blowup"] for r in rows)
    op = load_operator(p)
    t = np.linspace(0.0, op.horizon, 64)
    for mag in (32.0, 1024.0):
        g = modes._ode_coefficients(op, np.array([mag]))(t)
        assert 1 <= modes._magnus_steps(g, t, mag) <= 16


@pytest.mark.parametrize("argv, err", [
    (["check", "--battery", "sin_gap", "--xi-min", "1e290", "--xi-max", "1e300",
      "--xi-steps", "5"],
     "frequency weight xi^alpha overflows the double range, at xi=[1.e+290]"),
    (["modes", "--battery", "strict_sin", "--xi-min", "1e290", "--xi-max", "1e300",
      "--xi-steps", "6", "--grid", "64"],
     "mode frequency |xi|^2 must be positive and finite in doubles, not at xi=[1.e+290]"),
    (["modes", "--battery", "strict_sin", "--xi-min", "1e-300", "--xi-max", "1e-290",
      "--xi-steps", "6", "--grid", "64"],
     "mode frequency |xi|^2 must be positive and finite in doubles, not at xi=[1.e-300]"),
], ids=["check-xi2-overflows", "modes-xi2-overflows", "modes-xi2-underflows"])
def test_a_frequency_past_the_double_range_is_a_config_error(capsys, argv, err):
    # xi^2 past the double range: one named line before any numpy warning
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"hyp3: config error: {err}\n")


def test_check_names_the_point_of_an_exp_overflow(tmp_path, capsys):
    # exp(1000 t) leaves the double range past t = 0.7098; the error names
    # the first grid time beyond it
    p = tmp_path / "exp.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = exp(1000*t)\n")
    assert main(["check", "--config", str(p), "--xi-steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"hyp3: config error: exp of \S+ overflows, at t=0\.709804, xi=\[64\.\]\n",
                        err), err


def test_modes_rejects_a_constant_coefficient_that_overflows(tmp_path, capsys):
    # exp(700)*exp(700) is inf: an input error, not a blown-up growth row
    p = tmp_path / "inf.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = exp(700)*exp(700)\n")
    assert main(["modes", "--config", str(p), "--xi-min", "32", "--xi-max", "1024",
                 "--xi-steps", "6", "--grid", "64", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "hyp3: config error: non-finite coefficient value, at t=0, xi=[32.]\n")


def test_check_names_the_point_of_a_power_overflow(tmp_path, capsys):
    # the jet of exp(700 t)^2 leaves the double range near t = 0.5
    p = tmp_path / "pow.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(1)] = exp(700*t)^2\n")
    assert main(["check", "--config", str(p), "--xi-steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"hyp3: config error: \S+\^2 overflows, at t=0\.49\d*, xi=\[\d+\.\]\n",
                        err), err


def test_check_names_the_point_of_a_product_overflow(tmp_path, capsys):
    # exp(700 t)^2 as a product leaves the double range near t = 0.507, with
    # no numpy warning on the symbol grids
    p = tmp_path / "prod.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = exp(700*t)*exp(700*t)\n")
    assert main(["check", "--config", str(p), "--xi-steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"hyp3: config error: exp\(700 \* t\) \* exp\(700 \* t\) overflows, "
                        r"at t=0\.50\d*, xi=\[\d+\.\]\n", err), err


def test_check_and_modes_name_the_point_of_a_sine_of_infinity(tmp_path, capsys):
    # the product inside sin overflows to inf near t = 0.507, at a point (a
    # mode right-hand side) and on the symbol grids alike
    p = tmp_path / "sininf.op"
    p.write_text("order = 3\ndimension = 1\nT = 1.0\n"
                 "a[1,(2)] = -1\na[0,(0)] = sin(exp(700*t)*exp(700*t))\n")
    for argv in (["check", "--xi-steps", "5"], ["modes", "--grid", "64"]):
        assert main(argv + ["--config", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"hyp3: config error: sin of infinite value inf, "
                            r"at t=0\.5\d*, xi=\[\d+\.\]\n", err), err


MODE_TABLES = ["modes", "--battery", "strict_const", "--xi-min", "32", "--xi-max", "1024",
               "--xi-steps", "6", "--grid", "64", "--format", "tables"]


@pytest.mark.parametrize("argv", [
    ["check", "--battery", "strict_const", "--xi-steps", "3"],   # log_fit ladder
    ["modes", "--battery", "triple_pure", "--xi-steps", "3"],    # growth ladder
    ["modes", "--battery", "triple_pure", "--grid", "32"],
    ["check", "--battery", "nosuch"],
    ["identities", "--samples", "-5"],
    ["check", "--battery", "oleinik_ok", "--direction", "inf"],
    ["check", "--battery", "oleinik_ok", "--xi-min", "nan"],
    ["check", "--battery", "oleinik_ok", "--xi-max", "inf"],
    ["modes", "--battery", "triple_pure", "--xi-min", "32", "--xi-max", "inf",
     "--xi-steps", "6"],
    ["modes", "--battery", "strict_const", "--eta", "nan"],
    ["modes", "--battery", "strict_const", "--eta", "inf"],
    # a descending ladder
    ["check", "--battery", "triple_plus_dx", "--xi-min", "16384", "--xi-max", "64"],
    ["modes", "--battery", "triple_plus_dx", "--xi-min", "1024", "--xi-max", "32",
     "--xi-steps", "6"],
    ["modes", "--battery", "wave2"],    # no third-order operator
    # an option the subcommand does not take
    ["identities", "--xi-min", "5"],
    ["identities", "--config", "x"],
    ["check", "--battery", "strict_const", "--eta", "1"],
    ["check", "--battery", "strict_const", "--seed", "1"],
    ["modes", "--battery", "strict_const", "--seed", "1"],
    ["battery", "--battery", "sin_gap"],
    ["battery", "--config", "x"],
    ["check", "--battery", "strict_const", "--xi-steps", "abc"],
    ["check", "--bogus"],
    [],                                 # no subcommand
    # tables with nowhere to go
    ["check", "--battery", "strict_const", "--format", "tables"],
    MODE_TABLES,
    ["battery", "--format", "both"],
    # numpy's default_rng takes no negative seed
    ["identities", "--seed", "-1"],
    # a negative energy weight exponent: exp(-eta cumK) overflows
    ["modes", "--battery", "strict_const", "--eta", "-1"],
])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hyp3: config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--battery", "sin_gap", "--xi-min", "16384", "--xi-max", "64"],
    ["check", "--battery", "all", "--xi-min", "64", "--xi-max", "64"],
    ["modes", "--battery", "strict_sin", "--xi-min", "1024", "--xi-max", "32",
     "--xi-steps", "6"],
    # a ladder that breaks the rule of a pass the command runs
    ["check", "--battery", "strict_sin", "--xi-min", "64", "--xi-max", "256"],  # 2 doublings
    ["check", "--battery", "strict_sin", "--xi-steps", "4"],                      # 4 points
    ["check", "--battery", "strict_sin", "--xi-min", "1", "--xi-max", "1024"],  # |xi| < 2
    ["battery", "--full", "--xi-steps", "5"],                # the growth rule, before the check
    ["check", "--battery", "wave2", "--xi-min", "0.5", "--xi-max", "512"],  # second order, too
])
def test_descending_ladder_is_rejected_before_any_work(monkeypatch, capsys, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started on a descending ladder")
    for name in ("pointwise_levi", "condition_report", "second_order_report",
                 "growth_experiment"):
        monkeypatch.setattr(cli, name, never)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hyp3: config error:") and err.count("\n") == 1


def test_check_exits_3_when_a_worker_cell_fails(monkeypatch, capsys):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 20)
    assert main(["check", "--battery", "sin_gap", "--xi-min", "64", "--xi-max", "1024",
                 "--xi-steps", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hyp3: numerical failure: quadrature stalled at relative change ")
    assert err.endswith("with 20 panels\n") and err.count("\n") == 1


def test_tables_emission(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["check", "--battery", "strict_const", "--format", "both",
               "--out", str(out), "--xi-min", "64", "--xi-max", "2048",
               "--xi-steps", "6", "--grid", "512"])
    capsys.readouterr()
    assert rc == 0
    table = (out / "integrands_strict_const.tsv").read_text().splitlines()
    assert table[0] == "xi\tcondition\tt\tvalue"
    assert len(table) > 100
    doc = json.loads((out / "conditions.json").read_text())
    assert doc["pass"] is True


def test_mode_tables_hold_plain_floats(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(MODE_TABLES + ["--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("mode_strict_const.tsv", "growth_strict_const.tsv"):
        header, *rows = (out / name).read_text().splitlines()
        assert len(rows) >= 6
        for row in rows:
            cells = row.split("\t")
            assert len(cells) == len(header.split("\t"))
            for cell in cells:
                float(cell)


def test_modes_battery_member(capsys):
    rc, doc = _run(capsys, "modes", "--battery", "triple_plus_dx",
                   "--grid", "256", "--xi-min", "64", "--xi-max", "16384")
    assert rc == 0
    fit = doc["operators"]["triple_plus_dx"]
    assert fit["model"] == "exp_power"
    assert abs(fit["kappa"] - 1.0 / 3.0) <= 0.05


def test_check_document_is_byte_deterministic(tmp_path, capsys):
    args = ["check", "--battery", "strict_const", "--xi-min", "64",
            "--xi-max", "2048", "--xi-steps", "6"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "conditions.json").read_bytes() == (b / "conditions.json").read_bytes()


def test_importing_the_cli_leaves_scipy_integrate_unloaded(tmp_path):
    # no scipy at all, even where a mode is solved; the DOP853 kernel loads at
    # the first solve (only identities and the mode tables solve one)
    code = ("import sys, hyp3.cli; loaded = lambda m: m in sys.modules; "
            "print(loaded('scipy.integrate'), loaded('hyp3._dop853')); "
            "hyp3.cli.main(sys.argv[1:]); "
            "print(loaded('hyp3._dop853'), [m for m in sys.modules if m.startswith('scipy')])")
    args = ["identities", "--samples", "200", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False False"
    assert proc.stdout.splitlines()[-1] == "True []"


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0


LADDER = {"--xi-min", "--xi-max", "--xi-steps", "--direction", "--grid", "--out", "--format"}
OPTIONS = {
    "check": LADDER | {"--config", "--battery"},
    "modes": LADDER | {"--config", "--battery", "--eta"},
    "identities": {"--samples", "--seed", "--out"},
    "battery": LADDER | {"--eta", "--full"},
}


def test_each_subcommand_takes_and_records_only_its_own_options(monkeypatch, capsys):
    import argparse

    from hyp3.modes import GrowthFit

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(OPTIONS)
    for name, p in sub.choices.items():
        assert {s for a in p._actions for s in a.option_strings} - {"-h", "--help"} \
            == OPTIONS[name], name

    # a document's config block is its subcommand's options, less --out
    monkeypatch.setattr(cli, "_conditions_doc_one", lambda op, member, args: ({}, []))
    monkeypatch.setattr(cli, "growth_experiment", lambda op, ladder, direction, grid_points:
                        GrowthFit([], "polynomial", 1.0, 1.0, 0.0, math.nan))
    for argv in (["check", "--battery", "strict_const"], ["modes", "--battery", "strict_const"],
                 ["identities", "--samples", "0"], ["battery"]):
        rc, doc = _run(capsys, *argv)
        assert rc == 0
        want = {o[2:].replace("-", "_") for o in OPTIONS[argv[0]] - {"--out"}}
        assert set(doc["config"]) == want, argv[0]


def test_battery_gate_compares_forbidden_zone_verdict():
    import argparse
    import dataclasses

    from hyp3.battery import BATTERY
    from hyp3.cli import _conditions_doc_one

    member = dataclasses.replace(BATTERY["triple_pure"], expected_im="unbounded-trend")
    args = argparse.Namespace(xi_min=64.0, xi_max=2048.0, xi_steps=6, direction=None)
    doc, mismatches = _conditions_doc_one(member.op, member, args)
    assert doc["constant_coeff"]["im_verdict"] == "bounded"
    assert mismatches == ["triple_pure: forbidden zone: expected unbounded-trend, got bounded"]
