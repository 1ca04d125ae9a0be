"""Call tracer for hyp3's public functions, installed from outside the package.

The tracer replaces every public function of every ``hyp3`` module at each
binding that holds it: the defining module, every module that imported it
with ``from .x import y``, and the package namespace. It also wraps the
methods of :data:`TRACED_CLASSES`, whose call sites go through the class.
Value classes (``Jet2``, ``TauPoly``, ``CubicJet``) are left alone: their
arithmetic runs inside the layers measured here and wrapping it would make
the tracer the dominant cost.

Every wrapped call adds to a per-function count, self time (its duration
minus the time of wrapped calls made inside it) and inclusive time. Calls
named in :data:`COARSE` also record a span ``(id, name, start, end,
parent)``. Three boundaries that are not hyp3 functions are counted too:
the integrand passed to ``adaptive_gauss``, the right-hand side passed to
``solve_ivp`` from ``hyp3.modes``, and the exceptions each call raised.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

#: classes whose methods are entry points of a layer
TRACED_CLASSES = ("hyp3.expr.TimeFn", "hyp3.operators.Operator3", "hyp3.operators.Operator2")

#: calls that get a span of their own; every other call is aggregated only
COARSE = frozenset({
    "hyp3.cli.main",
    "hyp3.cli.cmd_check",
    "hyp3.cli.cmd_modes",
    "hyp3.cli.cmd_identities",
    "hyp3.cli.cmd_battery",
    "hyp3.conditions.condition_report",
    "hyp3.conditions.condition_integrals",
    "hyp3.conditions.pointwise_levi",
    "hyp3.conditions.constant_coeff_check",
    "hyp3.conditions.second_order_report",
    "hyp3.conditions.second_order_check",
    "hyp3.conditions.oscillation_count",
    "hyp3.operators.hyperbolicity_scan",
    "hyp3.operators.measure_separation",
    "hyp3.quadrature.adaptive_gauss",
    "hyp3.modes.solve_mode",
    "hyp3.modes.growth_experiment",
    "hyp3.modes.factor_apply",
    "hyp3.modes.identity_residuals",
    "hyp3.modes.energy_trace",
    "hyp3.modes.calibrate_eta",
    "hyp3.identities.run_algebraic_suite",
})

INTEGRAND = "hyp3.quadrature.adaptive_gauss:integrand"
RHS = "hyp3.modes.solve_ivp:rhs"


def _hyp3_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyp3" or name.startswith("hyp3."))]


def _public_functions(modules) -> dict[int, tuple[str, object]]:
    """id(function) -> (qualified name, function) for every public
    module-level function defined in hyp3."""
    out = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    return out


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`restore`."""

    def __init__(self):
        self.calls: dict[str, list] = {}     # name -> [calls, self_s, incl_s]
        self.errors: Counter = Counter()     # (name, exception type) -> count
        self.spans: list[tuple] = []         # (id, name, start, end, parent)
        self.panels = 0
        self.blowups = 0
        self.samples = 0
        self._stack: list[list] = []         # [child_s, span id] per open call
        self._patched: list[tuple] = []      # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import hyp3.cli  # noqa: F401  (loads every hyp3 module, so that all get wrapped)

        modules = _hyp3_modules()
        wrappers = {}
        for fid, (key, fn) in _public_functions(modules).items():
            wrappers[fid] = self._wrap(key, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, name, w)
        modes = sys.modules["hyp3.modes"]
        self._patch(modes, "solve_ivp", self._wrap_solve_ivp(modes.solve_ivp))
        for qual in TRACED_CLASSES:
            mod_name, cls_name = qual.rsplit(".", 1)
            cls = getattr(sys.modules[mod_name], cls_name)
            for name, obj in list(vars(cls).items()):
                if not name.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, name, self._wrap(f"{qual}.{name}", obj))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def bindings(self) -> list[tuple]:
        """(owner, attribute, original) for every binding currently wrapped."""
        return list(self._patched)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers --------------------------------------------------------

    def _timed(self, key: str, fn, args, kwargs):
        stat = self.calls.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span = None
        if key in COARSE:
            span = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span if span is not None else parent]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[(key, type(exc).__name__)] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            elapsed = t1 - t0
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            stat[2] += elapsed
            if stack:
                stack[-1][0] += elapsed
            if span is not None:
                self.spans[span] = (span, key, t0, t1, parent)

    def _wrap(self, key: str, fn):
        if key == "hyp3.quadrature.adaptive_gauss":
            def wrapper(f, *args, **kwargs):
                res = self._timed(key, fn, (self._counted(INTEGRAND, f),) + args, kwargs)
                self.panels += res.panels
                return res
        elif key == "hyp3.modes.solve_mode":
            def wrapper(*args, **kwargs):
                sol = self._timed(key, fn, args, kwargs)
                self.blowups += bool(sol.blowup)
                return sol
        elif key == "hyp3.identities.run_algebraic_suite":
            def wrapper(*args, **kwargs):
                res = self._timed(key, fn, args, kwargs)
                self.samples += res[0].samples if res else 0
                return res
        else:
            def wrapper(*args, **kwargs):
                return self._timed(key, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _counted(self, key: str, f):
        def counted(*args, **kwargs):
            return self._timed(key, f, args, kwargs)
        return counted

    def _wrap_solve_ivp(self, solve_ivp):
        def wrapper(fun, *args, **kwargs):
            return solve_ivp(self._counted(RHS, fun), *args, **kwargs)
        return functools.wraps(solve_ivp)(wrapper)

    # -- results ---------------------------------------------------------

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(k, (0,))[0] for k in keys)

    def self_s(self, *keys: str) -> float:
        return sum(self.calls.get(k, (0, 0.0))[1] for k in keys)

    def incl_s(self, *keys: str) -> float:
        return sum(self.calls.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def raised(self, exc_name: str, *keys: str) -> int:
        return sum(self.errors[(k, exc_name)] for k in keys)

    def dump(self, path: Path) -> None:
        doc = {
            "calls": {k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]}
                      for k, v in sorted(self.calls.items())},
            "errors": [{"function": k, "exception": e, "count": n}
                       for (k, e), n in sorted(self.errors.items())],
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                      for s in self.spans if s is not None],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _o(name: str) -> str:
    return f"hyp3.operators.{name}"


SYMBOL_KEYS = tuple(_o(f"Operator3.{m}") for m in
                    ("principal", "lower_polys", "checked_m_poly", "checked_n_poly")) \
    + (_o("Operator2.symbol_parts"),)
REGULARIZED_KEYS = (_o("Operator3.regularized"), _o("Operator3.auxiliary"), _o("regularized_cubic"))
ROOT_JET_KEYS = ("hyp3.cubic.root_jets", "hyp3.cubic.quad_root_jets")
CMD_KEYS = tuple(f"hyp3.cli.cmd_{c}" for c in ("check", "modes", "identities", "battery"))


def _per_round(total, rounds: int):
    """Counts stay whole numbers: every round does the same work."""
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """The per-layer metrics, per round, of ``rounds`` traced rounds (see
    README.md); ratios are taken over all of them."""
    points = tr.count(INTEGRAND)
    cond = "hyp3.conditions."
    modes = "hyp3.modes."
    rhs_calls = tr.count(RHS)
    suite_s = tr.incl_s("hyp3.identities.run_algebraic_suite")
    totals = {
        "expr.jet_calls": tr.count("hyp3.expr.TimeFn.jet2", "hyp3.expr.TimeFn.jet"),
        "expr.jet_self_s": tr.self_s("hyp3.expr.TimeFn.jet2", "hyp3.expr.TimeFn.jet"),
        "expr.value_calls": tr.count("hyp3.expr.TimeFn.value"),
        "expr.value_self_s": tr.self_s("hyp3.expr.TimeFn.value"),
        "cubic.solve_calls": tr.count("hyp3.cubic.solve_cubic_real"),
        "cubic.solve_self_s": tr.self_s("hyp3.cubic.solve_cubic_real"),
        "cubic.root_jet_calls": tr.count(*ROOT_JET_KEYS),
        "cubic.root_jet_self_s": tr.self_s(*ROOT_JET_KEYS),
        "cubic.near_multiple_root": tr.raised("NearMultipleRoot", *ROOT_JET_KEYS),
        "operators.symbol_calls": tr.count(*SYMBOL_KEYS),
        "operators.symbol_self_s": tr.self_s(*SYMBOL_KEYS),
        "operators.regularized_calls": tr.count(*REGULARIZED_KEYS),
        "operators.regularized_self_s": tr.self_s(*REGULARIZED_KEYS),
        "operators.scan_s": tr.incl_s(_o("hyperbolicity_scan"), _o("measure_separation")),
        "quadrature.cells": tr.count("hyp3.quadrature.adaptive_gauss"),
        "quadrature.panels": tr.panels,
        "quadrature.integrand_points": points,
        "quadrature.self_s": tr.self_s("hyp3.quadrature.adaptive_gauss"),
        "quadrature.integrand_s": tr.incl_s(INTEGRAND),
        "quadrature.failures": tr.raised("QuadratureError", "hyp3.quadrature.adaptive_gauss"),
        "conditions.cell_s": tr.incl_s(cond + "condition_integrals"),
        "conditions.ladder_s": tr.incl_s(cond + "condition_report"),
        "conditions.pointwise_s": tr.incl_s(cond + "pointwise_levi"),
        "conditions.constant_coeff_s": tr.incl_s(cond + "constant_coeff_check"),
        "conditions.second_order_s": tr.incl_s(cond + "second_order_report"),
        "conditions.oscillation_s": tr.incl_s(cond + "oscillation_count"),
        "modes.solves": tr.count(modes + "solve_mode"),
        "modes.nfev": rhs_calls,
        "modes.solve_s": tr.incl_s(modes + "solve_mode"),
        "modes.blowups": tr.blowups,
        "modes.factor_s": tr.incl_s(modes + "factor_apply"),
        "modes.identity_s": tr.incl_s(modes + "identity_residuals"),
        "modes.energy_s": tr.incl_s(modes + "energy_trace", modes + "calibrate_eta"),
        "identities.samples": tr.samples,
        "cli.self_s": tr.self_s(*CMD_KEYS),
    }
    out = {k: _per_round(v, rounds) for k, v in totals.items()}
    out["quadrature.kept_point_ratio"] = (2 * 16 * tr.panels / points) if points else 0.0
    out["modes.us_per_rhs"] = (1e6 * tr.incl_s(RHS) / rhs_calls) if rhs_calls else 0.0
    out["identities.samples_per_s"] = (tr.samples / suite_s) if suite_s else 0.0
    return out
