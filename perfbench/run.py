"""Time-to-verdict benchmark for hyp3.

    python3 perfbench/run.py --workload check-timedep --seed 1 --seconds 10 --trace 0

Runs one workload (or ``all`` four in turn) in a fresh worker process and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
workloads, metrics and reference figures are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh interpreters started only to time set-up; with the worker's own
#: set-up this gives three samples, of which the median is reported
SETUP_SAMPLES = 2

#: a run must end within 180 s; the worker gets what set-up leaves of it
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 10


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    return env


def _spawn(args: list[str], timeout: float) -> dict:
    """Start a worker, wait for it, return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          env=_child_env(), cwd=ROOT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    res = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], WORKER_TIMEOUT_S)
    for line in res["reasons"]:
        print(f"{name}: FAILED {line}", file=sys.stderr)
    if trace:
        values = res["layers"]
    else:
        setups = [res["setup_s"]] + [_spawn(common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                                     for _ in range(SETUP_SAMPLES)]
        values = {"setup_s": statistics.median(setups),
                  "verdict_s": statistics.median(res["verdict_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    summary = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()
                        if not trace or k == "trace.verdict_s")
    print(f"{name}: rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']}  {summary}")
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())   # workloads, metric units
    workloads = tuple(w["name"] for w in spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hyp3" / "__init__.py").is_file():
        print(f"run.py: no hyp3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in workloads if args.workload == "all" else (args.workload,):
        print(json.dumps(run_workload(spec, name, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
