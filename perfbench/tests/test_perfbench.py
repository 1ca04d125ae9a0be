"""Tests of the benchmark itself: the tracer's counts, its clean removal,
document identity with tracing on, and that checks catch a wrong answer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from hyp3 import conditions, modes  # noqa: E402
from hyp3.battery import BATTERY  # noqa: E402
from tracer import INTEGRAND, RHS, Tracer  # noqa: E402

SMALL = (
    workloads.CheckWorkload("check-small", ("triple_pure", "triple_plus_dx", "wave2")),
    workloads.GrowthWorkload(("triple_pure", "triple_plus_dx")),
    workloads.GridDiagnostics(energy_members=("triple_pure",), oscillation_members=("sin_gap",)),
)


def _traced(call):
    """Run ``call()`` under a tracer; ``call`` must look hyp3 names up
    only when it runs, so that it sees the wrapped bindings."""
    tr = Tracer()
    tr.install()
    try:
        return tr, call()
    finally:
        tr.restore()


@pytest.mark.parametrize("member,xi", [("oleinik_ok", 64.0), ("sin_gap", 1024.0),
                                       ("triple_plus_dx", 256.0)])
def test_integrand_points_follow_panels(member, xi):
    tr, cell = _traced(lambda: conditions.condition_integrals(BATTERY[member].op,
                                                               np.array([xi])))
    assert tr.count("hyp3.quadrature.adaptive_gauss") == 1
    assert tr.panels == cell.panels
    assert tr.count(INTEGRAND) == 64 * cell.panels - 128


@pytest.mark.parametrize("xi", [64.0, 16384.0])
def test_second_order_cell_points_follow_panels(xi):
    tr, _ = _traced(lambda: conditions.second_order_check(BATTERY["oleinik2_ok"].op,
                                                           np.array([xi])))
    assert tr.count("hyp3.quadrature.adaptive_gauss") == 1
    assert tr.count(INTEGRAND) == 64 * tr.panels - 128


@pytest.mark.parametrize("member", ["strict_sin", "triple_plus_dx"])
def test_rhs_count_equals_nfev(member):
    tr, sol = _traced(lambda: modes.solve_mode(BATTERY[member].op, np.array([64.0])))
    assert tr.count("hyp3.modes.solve_mode") == 1
    assert sol.nfev > 0
    assert tr.count(RHS) == sol.nfev


def _bindings():
    """Every attribute of every hyp3 module and traced class, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "hyp3" or n.startswith("hyp3.")]
    owners += [sys.modules["hyp3.expr"].TimeFn, sys.modules["hyp3.operators"].Operator3,
               sys.modules["hyp3.operators"].Operator2]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_restore_puts_back_every_binding():
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        patched = tr.bindings()
        names = {(getattr(o, "__name__", ""), n) for o, n, _ in patched}
        # imported copies are wrapped too, not only the defining module
        assert ("hyp3.cli", "solve_mode") in names
        assert ("hyp3.conditions", "adaptive_gauss") in names
        assert ("hyp3.modes", "solve_cubic_real") in names
        assert ("TimeFn", "jet2") in names and ("TimeFn", "value") in names
        for owner, name, original in patched:
            assert getattr(owner, name) is not original
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """Each small workload run once untraced and once traced."""
    out = {}
    for wl in SMALL:
        plain = tmp_path_factory.mktemp(f"{wl.name}-plain")
        traced = tmp_path_factory.mktemp(f"{wl.name}-traced")
        state = wl.run(plain, 7)
        tr, _ = _traced(lambda: wl.run(traced, 7))
        out[wl.name] = (wl, plain, traced, state, tr)
    return out


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", [wl.name for wl in SMALL])
def test_traced_documents_are_byte_identical(rounds, name):
    wl, plain, traced, _, tr = rounds[name]
    assert tr.calls, "the tracer saw no call"
    plain_files = _files(plain)
    assert plain_files and plain_files == _files(traced)


@pytest.mark.parametrize("name", [wl.name for wl in SMALL])
def test_small_workloads_pass(rounds, name):
    wl, plain, _, state, _ = rounds[name]
    ops = wl.check(plain, 7, state)
    assert ops and all(op.ok for op in ops), [op for op in ops if not op.ok]


def test_wrong_expectation_fails_operations(rounds):
    wl, plain, _, state, _ = rounds["check-small"]
    battery = dict(BATTERY)
    battery["triple_pure"] = dataclasses.replace(BATTERY["triple_pure"], expected_case="I")
    ops = wl.check(plain, 7, state, battery=battery)
    bad = [op for op in ops if not op.ok]
    assert len(bad) == 9 and all(op.name.startswith("triple_pure@") for op in bad)
    assert not any(op.numerical for op in bad)

    wl, plain, _, state, _ = rounds["growth"]
    battery = dict(BATTERY)
    battery["triple_plus_dx"] = dataclasses.replace(BATTERY["triple_plus_dx"], expected_kappa=0.5)
    ops = wl.check(plain, 7, state, battery=battery)
    assert sum(not op.ok for op in ops) == 6


def test_wrong_output_fails_operations(rounds):
    wl, plain, _, state, _ = rounds["check-small"]
    doc_path = plain / "cli" / "triple_plus_dx" / "conditions.json"
    text = doc_path.read_text()
    doc = json.loads(text)
    doc["operators"]["triple_plus_dx"]["rows"][3]["values"]["n_levi"] *= 1.0 + 1e-5
    doc_path.write_text(json.dumps(doc))
    try:
        bad = [op.name for op in wl.check(plain, 7, state) if not op.ok]
    finally:
        doc_path.write_text(text)
    assert bad == ["triple_plus_dx@512"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check-const",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
