"""The four workloads: what one round runs through hyp3, and how its outputs
are checked against computations made apart from the program.

A round is split in two. :meth:`Workload.run` is the timed part: it runs
hyp3's subcommands and public functions and writes every document. The
untimed :meth:`Workload.check` reads those documents back and returns one
:class:`Op` per operation, failed when a hyp3 numerical failure stopped it
or when its output disagrees with a closed form, an independent solver, the
battery's declared expectation or a stated method property.

hyp3 is always reached through module attributes (``cli.main``,
``modes.solve_mode``), never through names imported into this module, so
that the tracer's wrapped bindings see every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from hyp3 import cli, conditions, cubic, modes
from hyp3.battery import BATTERY
from hyp3.errors import HyperbolicityViolation, NearMultipleRoot, QuadratureError

#: hyp3's named numerical failures (exit code 3 on the command line)
NUMERICAL_FAILURES = (HyperbolicityViolation, QuadratureError, NearMultipleRoot)

#: accuracy the program is asked for; closed forms must hold to this
QUAD_REL_TOL = 1e-6
#: mode amplification against the matrix exponential (DOP853 runs at rtol 1e-10)
EXPM_REL_TOL = 1e-6
#: trajectory identity gate, as in ``hyp3 identities``
TRAJECTORY_TOL = 1e-6
#: kappa tolerance of the battery's growth gate
KAPPA_TOL = 0.05

#: the seed of the identity suite is the program's default; the workload
#: seed picks which of its cubics are re-solved with mpmath
IDENTITY_SEED = 42
IDENTITY_SAMPLES = 10_000
MPMATH_SAMPLES = 64
#: the items of the identity gate
ALGEBRAIC_NAMES = ("disc_vs_root_products", "sumsq_vs_coeffs", "sumsq_vs_crit_gap",
                   "reg_disc_expansion", "reg_crit_disc_shift")
TRAJECTORY_MEMBERS = ("strict_sin", "oleinik_ok")
TRAJECTORY_KEYS = ("pair_commutator", "triple_commutator", "reg_vs_plain_factor",
                   "factor_avg_vs_symbols", "decomposition_vs_symbols",
                   "decomposition_vs_equation")


@dataclass
class Op:
    """One operation of a round. ``numerical`` marks a failure that hyp3
    raised as one of its named numerical failures rather than a wrong
    output."""

    name: str
    reasons: list[str] = field(default_factory=list)
    numerical: bool = False

    @property
    def ok(self) -> bool:
        return not self.reasons


def _shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _ladder(lo_exp: int, hi_exp: int) -> list[float]:
    return [2.0 ** k for k in range(lo_exp, hi_exp + 1)]


def _same_ladder(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))


def _command_failed(cells: list[Op], command: str, rc: int) -> None:
    for op in cells:
        op.reasons.append(f"hyp3 {command} exited {rc}")
        op.numerical = rc == cli.EXIT_NUMERICAL


# --------------------------------------------------------------------------
# closed forms of single condition integrals


def _m_levi_oleinik_ok(xi: float) -> float:
    return 2.0 * math.log((xi * xi + 6.0) / 6.0)


def _m_levi_sin_gap(xi: float) -> float:
    return (2.0 * math.log(xi * xi + 6.0) - math.log(6.0)
            - math.log(xi * xi * math.sin(3.0) ** 2 + 6.0))


def _n_levi_triple_plus_dx(xi: float) -> float:
    return 2.0 * math.sqrt(xi / (2.0 * math.sqrt(2.0)))


CLOSED_FORMS = {
    ("oleinik_ok", "m_levi"): _m_levi_oleinik_ok,
    ("sin_gap", "m_levi"): _m_levi_sin_gap,
    ("triple_plus_dx", "n_levi"): _n_levi_triple_plus_dx,
}

DRIFT_KEYS = ("sep_drift", "vel_drift", "m_drift", "n_drift")

#: constant-coefficient members as written in the battery table of the
#: README: (time order j, x-derivative order, coefficient) for each term of
#: d_t^3 + sum a_j d_t^j d_x^k; the mode ODE is v''' = -sum a_j (i xi)^k v^(j)
CONSTANT_TERMS = {
    "strict_const": ((1, 2, -1.0),),
    "triple_pure": (),
    "triple_plus_dx": ((0, 1, 1.0),),
    "triple_plus_dxx": ((0, 2, -1.0),),
    "const_coeff_wellposed": ((1, 2, -1.0), (0, 2, 1.0)),
}


def expm_amplification(name: str, xi: float, horizon: float, grid_points: int) -> float:
    """The quantity ``growth_experiment`` reports as amplification, from the
    matrix exponential of the 3x3 companion matrix on the same output grid:
    max over the canonical initial data e_k of max_t w(t) / w(0), with
    w = |v| + |v'|/xi + |v''|/xi^2."""
    g = [0j, 0j, 0j]
    for j, k, a in CONSTANT_TERMS[name]:
        g[j] += a * (1j * xi) ** k
    comp = np.array([[0, 1, 0], [0, 0, 1], [-g[0], -g[1], -g[2]]], dtype=complex)
    ts = np.linspace(0.0, horizon, grid_points)
    phi = scipy.linalg.expm(ts[:, None, None] * comp)        # (N, 3, 3)
    w = (np.abs(phi[:, 0, :]) + np.abs(phi[:, 1, :]) / xi
         + np.abs(phi[:, 2, :]) / xi ** 2)                    # (N, init)
    return float(np.max(np.max(w, axis=0) / w[0]))


# --------------------------------------------------------------------------
# workloads


class Workload:
    name: str

    def first_argv(self) -> list[str]:
        """The first hyp3 command line of a round (parsed during set-up)."""
        raise NotImplementedError

    def run(self, out: Path, seed: int) -> dict:
        """Timed part of a round: compute and write every document.
        Returns what the check needs beyond the documents."""
        raise NotImplementedError

    def check(self, out: Path, seed: int, state: dict, battery=BATTERY) -> list[Op]:
        """Untimed part: one :class:`Op` per operation of the round, judged
        against ``battery``'s declared expectations."""
        raise NotImplementedError


class PerMemberWorkload(Workload):
    """One hyp3 command per battery member, in an order the seed picks."""

    members: tuple[str, ...]

    def argv(self, member: str, out: Path) -> list[str]:
        raise NotImplementedError

    def first_argv(self) -> list[str]:
        return self.argv(self.members[0], Path("."))

    def run(self, out: Path, seed: int) -> dict:
        order = _shuffled(self.members, random.Random(seed))
        return {"rc": {m: cli.main(self.argv(m, out)) for m in order}}


class CheckWorkload(PerMemberWorkload):
    """``hyp3 check`` on each member at the default ladder (2^6..2^14, 9
    points); one operation per (member, |xi|) cell."""

    def __init__(self, name: str, members: tuple[str, ...]):
        self.name = name
        self.members = members
        self.ladder = _ladder(6, 14)

    def argv(self, member: str, out: Path) -> list[str]:
        return ["check", "--battery", member, "--out", str(out / "cli" / member)]

    def check(self, out: Path, seed: int, state: dict, battery=BATTERY) -> list[Op]:
        ops = []
        for member in self.members:
            cells = [Op(f"{member}@{xi:g}") for xi in self.ladder]
            rc = state["rc"][member]
            if rc != 0:
                _command_failed(cells, "check", rc)
            else:
                doc = _read(out / "cli" / member / "conditions.json")["operators"][member]
                expect = battery[member]
                check = _check_order3 if doc["order"] == 3 else _check_order2
                check(member, doc, expect, self.ladder, cells)
            ops += cells
        return ops


def _cell_rows(doc: dict, ladder: list[float], cells: list[Op]) -> list[dict]:
    rows = doc["rows"]
    if not _same_ladder([r["xi"] for r in rows], ladder):
        for op in cells:
            op.reasons.append("ladder differs from 2^6..2^14")
        return []
    return rows


def _check_order3(member: str, doc: dict, expect, ladder, cells: list[Op]) -> None:
    whole = []   # member-level findings fail every cell of the member
    if doc["verdicts"] != dict(expect.expected_conditions):
        whole.append(f"verdicts {doc['verdicts']} != declared {dict(expect.expected_conditions)}")
    if expect.expected_case is not None and doc["case_report"]["case"] != expect.expected_case:
        whole.append(f"case {doc['case_report']['case']} != {expect.expected_case}")
    unstable = sorted(k for k, b in doc["bands"].items() if not b["stable"])
    if unstable:
        whole.append(f"unstable equivalence bands {unstable}")
    cc = doc.get("constant_coeff")
    if expect.expected_decomposition is not None:
        got = cc and cc["decomposition_verdict"]
        if got != expect.expected_decomposition:
            whole.append(f"decomposition {got} != {expect.expected_decomposition}")
    if expect.expected_im is not None:
        got = cc and cc["im_verdict"]
        if got != expect.expected_im:
            whole.append(f"forbidden-zone verdict {got} != {expect.expected_im}")
    constant = member in CONSTANT_TERMS
    for op, row in zip(cells, _cell_rows(doc, ladder, cells)):
        op.reasons += whole
        vals = row["values"]
        if not all(isinstance(v, float) and math.isfinite(v) for v in vals.values()):
            op.reasons.append(f"non-finite integral in {vals}")
            continue
        for (name, key), form in CLOSED_FORMS.items():
            if name == member and _rel_err(vals[key], form(row["xi"])) > QUAD_REL_TOL:
                op.reasons.append(f"{key}={vals[key]!r}, closed form {form(row['xi'])!r}")
        if constant:
            nonzero = {k: vals[k] for k in DRIFT_KEYS if vals[k] != 0.0}
            if nonzero:
                op.reasons.append(f"constant-coefficient drifts not 0: {nonzero}")


def _check_order2(member: str, doc: dict, expect, ladder, cells: list[Op]) -> None:
    whole = []
    if doc["verdicts"] != dict(expect.expected_conditions):
        whole.append(f"verdicts {doc['verdicts']} != declared {dict(expect.expected_conditions)}")
    for op, row in zip(cells, _cell_rows(doc, ladder, cells)):
        op.reasons += whole
        pair = (row["disc_drift"], row["lower_weighted"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in pair):
            op.reasons.append(f"non-finite integral {pair}")
        elif member == "wave2" and pair != (0.0, 0.0):
            op.reasons.append(f"wave2 integrals {pair} are not exactly 0")


class GrowthWorkload(PerMemberWorkload):
    """``hyp3 modes`` on the growth-gated members over 2^5..2^10 (6
    points); one operation per (member, |xi|) cell."""

    name = "growth"

    def __init__(self, members: tuple[str, ...]):
        self.members = members
        self.ladder = _ladder(5, 10)
        self.grid = 1024

    def argv(self, member: str, out: Path) -> list[str]:
        return ["modes", "--battery", member, "--xi-min", "32", "--xi-max", "1024",
                "--xi-steps", "6", "--grid", str(self.grid), "--out", str(out / "cli" / member)]

    def check(self, out: Path, seed: int, state: dict, battery=BATTERY) -> list[Op]:
        expm_at = random.Random(seed).randrange(len(self.ladder))
        ops = []
        for member in self.members:
            cells = [Op(f"{member}@{xi:g}") for xi in self.ladder]
            ops += cells
            rc = state["rc"][member]
            if rc != 0:
                _command_failed(cells, "modes", rc)
                continue
            doc = _read(out / "cli" / member / "modes.json")["operators"][member]
            expect = battery[member]
            whole = []
            if doc["model"] != expect.expected_growth:
                whole.append(f"model {doc['model']} != {expect.expected_growth}")
            elif expect.expected_kappa is not None and \
                    not abs(doc["kappa"] - expect.expected_kappa) <= KAPPA_TOL:
                whole.append(f"kappa {doc['kappa']} != {expect.expected_kappa:.4f}+-{KAPPA_TOL}")
            rows = doc["rows"]
            if not _same_ladder([r["xi"] for r in rows], self.ladder):
                whole.append("ladder differs from 2^5..2^10")
                rows = [None] * len(cells)
            horizon = expect.op.horizon
            for k, (op, row) in enumerate(zip(cells, rows)):
                op.reasons += whole
                if row is None:
                    continue
                amp = row["amplification"]
                if row["blowup"] or row["reach_time"] != horizon:
                    op.reasons.append(f"blow-up, reached t={row['reach_time']}")
                elif not (isinstance(amp, float) and 1.0 <= amp < math.inf):
                    op.reasons.append(f"amplification {amp!r}")
                elif k == expm_at and member in CONSTANT_TERMS:
                    want = expm_amplification(member, row["xi"], horizon, self.grid)
                    if _rel_err(amp, want) > EXPM_REL_TOL:
                        op.reasons.append(f"amplification {amp!r}, expm gives {want!r}")
        return ops


class GridDiagnostics(Workload):
    """The identity gate, the energy witness and oscillation counts: the
    symbol layer on uniform time grids and mode trajectories."""

    name = "grid-diagnostics"

    def __init__(self, energy_members: tuple[str, ...], oscillation_members: tuple[str, ...]):
        self.energy_members = energy_members
        self.energy_ladder = _ladder(7, 9)
        self.energy_grid = 1024
        self.oscillation_members = oscillation_members
        self.oscillation_targets = ("gap", "m_at_aux", "n_at_auxcrit")
        self.oscillation_ladder = _ladder(6, 8)
        self.oscillation_nt = 1024

    def argv(self, out: Path) -> list[str]:
        return ["identities", "--samples", str(IDENTITY_SAMPLES),
                "--seed", str(IDENTITY_SEED), "--out", str(out / "cli" / "identities")]

    def first_argv(self) -> list[str]:
        return self.argv(Path("."))

    def run(self, out: Path, seed: int) -> dict:
        rng = random.Random(seed)
        rc = cli.main(self.argv(out))
        energy, failed = {}, {}
        for member in _shuffled(self.energy_members, rng):
            try:
                energy[member] = self._energy_ladder(member)
            except NUMERICAL_FAILURES as exc:
                failed[f"energy/{member}"] = repr(exc)
        _write(out / "lib" / "energy.json", energy)
        counts = {}
        for member in _shuffled(self.oscillation_members, rng):
            op = BATTERY[member].op
            for target in self.oscillation_targets:
                key = f"{member}/{target}"
                try:
                    counts[key] = [conditions.oscillation_count(
                        op, np.array([xi]), target=target, nt=self.oscillation_nt)
                        for xi in self.oscillation_ladder]
                except NUMERICAL_FAILURES as exc:
                    failed[f"oscillation/{key}"] = repr(exc)
        _write(out / "lib" / "oscillation.json", counts)
        return {"rc": rc, "failed": failed}

    def _energy_ladder(self, member: str) -> dict:
        """Criterion 6 of the acceptance tests on a shorter ladder: eta is
        calibrated at the first point and held over the ladder."""
        op = BATTERY[member].op
        sol0 = modes.solve_mode(op, np.array([self.energy_ladder[0]]), grid_points=self.energy_grid)
        eta, _ = modes.calibrate_eta(op, sol0)
        rows = []
        for xi in self.energy_ladder:
            sol = modes.solve_mode(op, np.array([xi]), grid_points=self.energy_grid)
            tr = modes.energy_trace(op, sol, eta)
            rows.append({"xi": xi, "c_emp": tr.growth_constant(),
                         "gmax": float(np.max(tr.dlogE()))})
        return {"eta": eta, "rows": rows}

    def check(self, out: Path, seed: int, state: dict, battery=BATTERY) -> list[Op]:
        return (self._check_identities(out, seed, state)
                + self._check_energy(out, state)
                + self._check_oscillation(out, state))

    def _check_identities(self, out: Path, seed: int, state: dict) -> list[Op]:
        ops = [Op(f"algebraic/{name}") for name in ALGEBRAIC_NAMES]
        ops += [Op(f"trajectory/{m}/{k}") for m in TRAJECTORY_MEMBERS for k in TRAJECTORY_KEYS]
        if state["rc"] not in (cli.EXIT_OK, cli.EXIT_MISMATCH):
            _command_failed(ops, "identities", state["rc"])
            return ops
        doc = _read(out / "cli" / "identities" / "identities.json")
        got = {f"algebraic/{r['name']}": r for r in doc["algebraic"]}
        for m, res in doc["trajectory"].items():
            got.update({f"trajectory/{m}/{k}": r for k, r in res.items()})
        for op in ops:
            r = got.get(op.name)
            if r is None:
                op.reasons.append("missing from the document")
                continue
            tol = r["tolerance"] if op.name.startswith("algebraic/") else TRAJECTORY_TOL
            if not (isinstance(r["max_residual"], float) and r["max_residual"] <= tol):
                op.reasons.append(f"residual {r['max_residual']!r} > {tol:g}")
        findings = mpmath_resolve(IDENTITY_SEED, IDENTITY_SAMPLES, MPMATH_SAMPLES,
                                  random.Random(seed))
        for op in ops:
            op.reasons += findings.get(op.name.split("/", 1)[1], [])
        return ops

    def _check_energy(self, out: Path, state: dict) -> list[Op]:
        doc = _read(out / "lib" / "energy.json")
        ops = []
        for member in self.energy_members:
            cells = [Op(f"energy/{member}@{xi:g}") for xi in self.energy_ladder]
            ops += cells
            data = doc.get(member)
            if data is None:
                for op in cells:
                    op.reasons.append(state["failed"].get(f"energy/{member}", "missing"))
                    op.numerical = f"energy/{member}" in state["failed"]
                continue
            prev = None
            for op, row in zip(cells, data["rows"]):
                if not row["gmax"] <= 0.1:
                    op.reasons.append(f"max d/dt log E = {row['gmax']!r} > 0.1")
                c = row["c_emp"]
                if prev is not None and not abs(c - prev) <= 0.1 * max(c, prev, 0.25):
                    op.reasons.append(f"growth constant moved {prev!r} -> {c!r}")
                prev = c
        return ops

    def _check_oscillation(self, out: Path, state: dict) -> list[Op]:
        doc = _read(out / "lib" / "oscillation.json")
        ops = []
        for member in self.oscillation_members:
            for target in self.oscillation_targets:
                key = f"{member}/{target}"
                cells = [Op(f"oscillation/{key}@{xi:g}") for xi in self.oscillation_ladder]
                ops += cells
                counts = doc.get(key)
                if counts is None:
                    for op in cells:
                        op.reasons.append(state["failed"].get(f"oscillation/{key}", "missing"))
                        op.numerical = f"oscillation/{key}" in state["failed"]
                    continue
                for op, c in zip(cells, counts):
                    if c != counts[0]:
                        op.reasons.append(f"counts {c} differ from {counts[0]} at the first |xi|")
        return ops


def suite_cubics(seed: int, samples: int) -> list[tuple[tuple, tuple]]:
    """The coefficient triples the algebraic suite draws, per sample: the
    well-separated cubic and the general one. The draws follow the suite's
    sampling (ascending roots uniform in [-5, 5], the first redrawn until
    both gaps exceed 1e-3, then one regularization draw)."""
    rng = np.random.default_rng(seed)

    def coeffs(r):
        return (-(r[0] + r[1] + r[2]), r[0] * r[1] + r[1] * r[2] + r[2] * r[0],
                -(r[0] * r[1] * r[2]))

    out = []
    for _ in range(samples):
        while True:
            r = [float(x) for x in np.sort(rng.uniform(-5.0, 5.0, size=3))]
            if r[1] - r[0] > 1e-3 and r[2] - r[1] > 1e-3:
                break
        sep = coeffs(r)
        r = [float(x) for x in np.sort(rng.uniform(-5.0, 5.0, size=3))]
        rng.uniform(math.log(0.3), math.log(3.0))
        out.append((sep, coeffs(r)))
    return out


def mpmath_resolve(suite_seed: int, samples: int, picks: int,
                   rng: random.Random) -> dict[str, list[str]]:
    """Re-solve ``picks`` of the suite's cubics with mpmath at 40 digits and
    compare hyp3's roots, discriminant and root-gap sum. Findings are keyed
    by the identity whose inputs they concern."""
    import mpmath

    findings: dict[str, list[str]] = {}
    cubics = suite_cubics(suite_seed, samples)
    with mpmath.workdps(40):
        for i in sorted(rng.sample(range(samples), picks)):
            sep, general = cubics[i]
            c = cubic.cubic_from_floats(*sep)
            ref = sorted(float(mpmath.re(x)) for x in
                         mpmath.polyroots([1, *map(mpmath.mpf, sep)], maxsteps=200, extraprec=80))
            got = cubic.solve_cubic_real(c).r
            scale = 1.0 + max(abs(x) for x in ref)
            if max(abs(a - b) for a, b in zip(got, ref)) > 1e-9 * scale:
                findings.setdefault("disc_vs_root_products", []).append(
                    f"cubic {i}: roots {got} vs mpmath {ref}")
            for key, poly, fn, tol in (
                    ("disc_vs_root_products", sep, cubic.discriminant, 1e-8),
                    ("sumsq_vs_coeffs", general, cubic.delta1, 1e-9)):
                r = mpmath.polyroots([1, *map(mpmath.mpf, poly)], maxsteps=200, extraprec=80)
                r = sorted((mpmath.re(x) for x in r))
                if key == "disc_vs_root_products":
                    want = ((r[0] - r[1]) * (r[1] - r[2]) * (r[2] - r[0])) ** 2
                else:
                    want = (r[0] - r[1]) ** 2 + (r[1] - r[2]) ** 2 + (r[2] - r[0]) ** 2
                have = fn(cubic.cubic_from_floats(*poly))
                err = abs(have - float(want)) / max(abs(have), abs(float(want)), 1.0)
                if err > tol:
                    findings.setdefault(key, []).append(
                        f"cubic {i}: {fn.__name__} {have!r} vs mpmath {float(want)!r}")
    return findings


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    CheckWorkload("check-timedep", ("oleinik_ok", "oleinik_bad", "sin_gap", "strict_sin")),
    CheckWorkload("check-const", ("strict_const", "triple_pure", "triple_plus_dx",
                                  "triple_plus_dxx", "const_coeff_wellposed",
                                  "wave2", "oleinik2_ok", "oleinik2_bad")),
    GrowthWorkload(("strict_const", "triple_pure", "triple_plus_dx", "triple_plus_dxx",
                    "strict_sin", "const_coeff_wellposed")),
    GridDiagnostics(energy_members=("strict_const", "triple_pure", "oleinik_ok", "sin_gap",
                                    "strict_sin", "const_coeff_wellposed"),
                    oscillation_members=("sin_gap", "strict_sin")),
)}
