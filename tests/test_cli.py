import json
import math

import pytest

from hyp3.cli import main


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


def test_identities_corrupted_formula_fails_and_names_it(capsys):
    rc, doc = _run(capsys, "identities", "--samples", "100",
                   "--corrupt", "reg_disc_expansion")
    assert rc == 1
    assert doc["pass"] is False
    assert "reg_disc_expansion" in doc["failures"]


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

    monkeypatch.setattr(cli, "cmd_check", lambda args: cli.EXIT_OK)
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
    MODE_TABLES + ["--eta", "nan"],
    MODE_TABLES + ["--eta", "inf"],
])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hyp3: config error:") and err.count("\n") == 1


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


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


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
