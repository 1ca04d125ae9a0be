"""Command-line harness: condition reports, mode experiments, identity
gates, and the battery acceptance gate.

Exit codes: 0 pass, 1 verdict mismatch or identity failure, 2 usage or
config error, 3 numerical failure (hyperbolicity, quadrature, root jets).
Machine-readable documents are JSON with sorted keys and contain no
wall-clock fields, so identical options reproduce them byte-identically;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .battery import battery_member, battery_names
from .conditions import (
    check_condition_ladder,
    check_ladder,
    condition_report,
    constant_coeff_check,
    default_ladder,
    pointwise_levi,
    second_order_report,
    PRIMARY_KEYS,
    _primary_terms,
)
from .errors import (
    ExprError,
    HyperbolicityViolation,
    MagnusStepError,
    NearMultipleRoot,
    OperatorSpecError,
    QuadratureError,
)
from .identities import run_algebraic_suite
from .modes import calibrate_eta, energy_trace, growth_experiment, identity_residuals, solve_mode
from .opfile import load_operator
from .operators import Operator2, Operator3, symbol_grid

TRAJECTORY_TOL = 1e-6
KAPPA_TOL = 0.05

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _jsonable(x):
    """Strict-JSON copy of a document, with each result object as the dict of
    its fields: non-finite floats become the strings "inf", "-inf" and "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    if dataclasses.is_dataclass(x):  # a result object: its fields
        return _jsonable(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(schema: str, body: dict, args) -> None:
    """Write document ``schema``: ``body`` and, as its ``config`` block, the
    options the subcommand took, less where its output goes."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    doc = {"schema": schema, "version": __version__, "config": config, **body}
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{schema.split('/')[0].split('.')[-1]}.json").write_text(text + "\n")
    else:
        print(text)


def _ladder_from_args(args) -> list[float]:
    if not (0 < args.xi_min < math.inf and 0 < args.xi_max < math.inf):
        raise OperatorSpecError("--xi-min and --xi-max must be finite and positive")
    if args.xi_steps > 1 and args.xi_min >= args.xi_max:
        raise OperatorSpecError("the ladder must strictly increase: --xi-min below --xi-max")
    return default_ladder(args.xi_min, args.xi_max, args.xi_steps)


def _direction_from_args(args, dim: int) -> np.ndarray:
    if args.direction is None:
        return np.eye(dim)[0]
    try:
        vec = np.array([float(s) for s in args.direction.split(",")], dtype=float)
    except ValueError:
        raise OperatorSpecError(f"bad --direction {args.direction!r}")
    if vec.shape != (dim,) or not 0 < np.linalg.norm(vec) < math.inf:
        raise OperatorSpecError(f"--direction needs {dim} finite components and nonzero length")
    return vec / np.linalg.norm(vec)


def _resolve_operators(args) -> list[tuple[Operator3 | Operator2, object]]:
    """(operator, battery member or None) pairs for the requested target."""
    if bool(args.config) == bool(args.battery):
        raise OperatorSpecError("exactly one of --config and --battery is required")
    if args.config:
        return [(load_operator(args.config), None)]
    if args.battery == "all":
        return [(m.op, m) for m in (battery_member(n) for n in battery_names())]
    m = battery_member(args.battery)
    return [(m.op, m)]


# --------------------------------------------------------------------------
# check


def _conditions_doc_one(op, member, args) -> tuple[dict, list[str]]:
    ladder = _ladder_from_args(args)
    direction = _direction_from_args(args, op.dim)
    if isinstance(op, Operator2):
        rep = second_order_report(op, ladder, direction)
        doc = {"order": 2, **rep}
    else:
        case = pointwise_levi(op, ladder, direction)
        rep = condition_report(op, ladder, direction)
        doc = {
            "order": 3,
            "rows": [{
                "xi": c.xi_mag,
                "direction": list(c.direction),
                "values": c.values,
                "alternates": c.alternates,
                "panels": c.panels,
            } for c in rep.ladder],
            "fits": rep.fits,
            "verdicts": rep.verdicts,
            "bands": rep.bands,
            "case_report": case,
        }
        if op.is_constant():
            doc["constant_coeff"] = constant_coeff_check(op, ladder, direction)
    mismatches: list[str] = []
    if member is not None:
        for key, want in member.expected_conditions.items():
            got = doc["verdicts"].get(key)
            if got != want:
                mismatches.append(f"{op.name}: {key}: expected {want}, got {got}")
    if member is not None and doc["order"] == 3:
        case = doc["case_report"].case
        if member.expected_case is not None and case != member.expected_case:
            mismatches.append(f"{op.name}: case: expected {member.expected_case}, got {case}")
        for label, key, want in (("decomposition", "decomposition_verdict",
                                  member.expected_decomposition),
                                 ("forbidden zone", "im_verdict", member.expected_im)):
            if want is not None and doc["constant_coeff"][key] != want:
                mismatches.append(f"{op.name}: {label}: expected {want}, "
                                  f"got {doc['constant_coeff'][key]}")
        band_fail = [k for k, b in doc["bands"].items() if not b["stable"]]
        if band_fail:
            mismatches.append(f"{op.name}: unstable equivalence bands: {', '.join(band_fail)}")
    doc["mismatches"] = mismatches
    return doc, mismatches


def _write_condition_tables(op, args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ladder = _ladder_from_args(args)
    direction = _direction_from_args(args, op.dim)
    nt = max(64, args.grid // 8)
    ts = np.linspace(0.0, op.horizon, nt)
    lines = ["xi\tcondition\tt\tvalue"]
    for mag in ladder:
        terms, _ = _primary_terms(symbol_grid(op, ts, mag * direction))
        for i, t in enumerate(ts):
            for key, v in zip(PRIMARY_KEYS, terms):
                lines.append(f"{mag!r}\t{key}\t{float(t)!r}\t{float(v[i])!r}")
    (out / f"integrands_{op.name}.tsv").write_text("\n".join(lines) + "\n")


def cmd_check(args, targets=None) -> int:
    """Condition reports for ``targets`` ((operator, member) pairs), or for
    the target the arguments name."""
    t0 = time.perf_counter()
    check_condition_ladder(_ladder_from_args(args))
    if targets is None:
        targets = _resolve_operators(args)
    docs = {}
    mismatches: list[str] = []
    for op, member in targets:
        doc, mm = _conditions_doc_one(op, member, args)
        docs[op.name] = doc
        mismatches += mm
        if args.format != "doc" and isinstance(op, Operator3):
            _write_condition_tables(op, args)
    _emit("hyp3.conditions/1", {"operators": docs, "pass": not mismatches}, args)
    print(f"check: {len(targets)} operator(s), {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


# --------------------------------------------------------------------------
# modes


def cmd_modes(args, targets=None) -> int:
    """Growth experiments for ``targets`` ((operator, member) pairs), or for
    the third-order operators of the target the arguments name."""
    t0 = time.perf_counter()
    check_ladder(_ladder_from_args(args), "growth experiment")
    if targets is None:
        targets = [(op, m) for op, m in _resolve_operators(args) if isinstance(op, Operator3)]
        if not targets:
            raise OperatorSpecError("modes needs a third-order operator")
    docs = {}
    mismatches: list[str] = []
    for op, member in targets:
        ladder = _ladder_from_args(args)
        direction = _direction_from_args(args, op.dim)
        fit = growth_experiment(op, ladder, direction, grid_points=args.grid)
        mm: list[str] = []
        if member is not None and member.expected_growth is not None:
            if fit.model != member.expected_growth:
                mm.append(f"{op.name}: growth model: expected "
                          f"{member.expected_growth}, got {fit.model}")
            elif member.expected_kappa is not None and \
                    abs(fit.kappa - member.expected_kappa) > KAPPA_TOL:
                mm.append(f"{op.name}: kappa: expected "
                          f"{member.expected_kappa:.4f}+-{KAPPA_TOL}, got {fit.kappa:.4f}")
        mismatches += mm
        docs[op.name] = {**dataclasses.asdict(fit), "mismatches": mm}
        if args.format != "doc":
            _write_mode_tables(op, args, fit)
    _emit("hyp3.modes/1", {"operators": docs, "pass": not mismatches}, args)
    print(f"modes: {len(docs)} operator(s), {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def _write_mode_tables(op, args, fit) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["xi\tamplification\tlog_amp\thalf_log_amp\tblowup\treach_time"]
    for r in fit.rows:
        lines.append(f"{r['xi']!r}\t{r['amplification']!r}\t{r['log_amp']!r}"
                     f"\t{r['half_log_amp']!r}\t{int(r['blowup'])}\t{r['reach_time']!r}")
    (out / f"growth_{op.name}.tsv").write_text("\n".join(lines) + "\n")

    xi = _ladder_from_args(args)[-1] * _direction_from_args(args, op.dim)
    sol = solve_mode(op, xi, grid_points=args.grid)
    if args.eta is not None:
        tr = energy_trace(op, sol, args.eta)
    else:
        _, tr = calibrate_eta(op, sol)
    lines = ["t\tre_v\tim_v\tE\tK\tH\tk"]
    for i, t in enumerate(sol.t):
        cells = (t, sol.v[i].real, sol.v[i].imag, tr.E[i], tr.K[i], tr.H[i], tr.k[i])
        lines.append("\t".join(repr(float(x)) for x in cells))
    (out / f"mode_{op.name}.tsv").write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# identities


def cmd_identities(args) -> int:
    t0 = time.perf_counter()
    if args.samples < 0:
        raise OperatorSpecError("--samples must be >= 0")
    if args.seed < 0:
        raise OperatorSpecError("--seed must be >= 0")
    results = run_algebraic_suite(args.samples, args.seed) if args.samples > 0 else []
    doc = {
        "algebraic": [{
            "name": r.name,
            "max_residual": r.max_residual,
            "tolerance": r.tolerance,
            "pass": r.passed,
        } for r in results],
        "trajectory": {},
    }
    failures = [r.name for r in results if not r.passed]
    if args.samples > 0:
        for name in ("strict_sin", "oleinik_ok"):
            member = battery_member(name)
            op = member.op
            xi = np.array([64.0] + [0.0] * (op.dim - 1))
            sol = solve_mode(op, xi, grid_points=4096)
            res = identity_residuals(op, sol)
            doc["trajectory"][name] = {
                k: {"max_residual": v, "tolerance": TRAJECTORY_TOL,
                    "pass": bool(v <= TRAJECTORY_TOL)}
                for k, v in res.items()
            }
            failures += [f"{name}/{k}" for k, v in res.items() if not v <= TRAJECTORY_TOL]
    doc["pass"] = not failures
    doc["failures"] = failures
    _emit("hyp3.identities/1", doc, args)
    print(f"identities: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_MISMATCH


# --------------------------------------------------------------------------
# battery gate


def cmd_battery(args) -> int:
    if args.full:  # the growth rule too, before the check pass
        check_ladder(_ladder_from_args(args), "growth experiment")
    members = [battery_member(name) for name in battery_names()]
    rc = cmd_check(args, [(m.op, m) for m in members])
    if rc == EXIT_OK and args.full:
        return cmd_modes(args, [(m.op, m) for m in members
                                if m.order == 3 and m.expected_growth is not None])
    return rc


# --------------------------------------------------------------------------
# entry point


def _finite(text: str) -> float:
    if not 0.0 <= (x := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, not {text}")
    return x


class _Parser(argparse.ArgumentParser):
    """Parse errors are config errors: one line and exit 2, no usage dump."""

    def error(self, message):
        raise OperatorSpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyp3",
        description="Condition checks, operator identities and Fourier-mode "
                    "experiments for third-order weakly hyperbolic operators.")
    parser.add_argument("--version", action="version", version=f"hyp3 {__version__}")
    sub = parser.add_subparsers(required=True)

    def add_options(p, target: bool, eta: bool):
        if target:
            p.add_argument("--config", help="operator table file")
            p.add_argument("--battery", help="built-in operator name, or 'all'")
        p.add_argument("--xi-min", type=float, default=2.0 ** 6)
        p.add_argument("--xi-max", type=float, default=2.0 ** 14)
        p.add_argument("--xi-steps", type=int, default=9)
        p.add_argument("--direction", help="comma-separated frequency direction")
        p.add_argument("--grid", type=int, default=1024, help="time-grid points")
        if eta:
            p.add_argument("--eta", type=_finite, help="energy weight exponent override")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("doc", "tables", "both"), default="doc")

    p_check = sub.add_parser("check", help="evaluate the condition ladder and verdicts")
    add_options(p_check, target=True, eta=False)
    p_check.set_defaults(func=cmd_check)

    p_modes = sub.add_parser("modes", help="growth-exponent experiments")
    add_options(p_modes, target=True, eta=True)
    p_modes.set_defaults(func=cmd_modes)

    p_id = sub.add_parser("identities", help="randomized identity suites")
    p_id.add_argument("--samples", type=int, default=10000)
    p_id.add_argument("--seed", type=int, default=42)
    p_id.add_argument("--out", help="output directory")
    p_id.set_defaults(func=cmd_identities)

    p_bat = sub.add_parser("battery", help="battery acceptance gate")
    add_options(p_bat, target=False, eta=True)
    p_bat.add_argument("--full", action="store_true",
                       help="also gate the growth models (slow)")
    p_bat.set_defaults(func=cmd_battery)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if vars(args).get("format", "doc") != "doc" and not args.out:
            raise OperatorSpecError(f"--format {args.format} needs --out")
        return args.func(args)
    except (OperatorSpecError, ExprError, FileNotFoundError) as exc:
        print(f"hyp3: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HyperbolicityViolation, QuadratureError, NearMultipleRoot, MagnusStepError) as exc:
        print(f"hyp3: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
