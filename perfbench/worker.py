"""One benchmark process: set hyp3 up, run whole rounds of one workload until
the run time is used, check every round, and print one JSON line.

``run.py`` starts this script in a fresh interpreter and passes the
monotonic time at which it did so; set-up time is measured from there to
the end of set-up, so it covers interpreter start, importing hyp3 with numpy
and scipy, building the battery and parsing the first command line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _setup(workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    import hyp3
    if Path(hyp3.__file__).resolve().parent != ROOT / "src" / "hyp3":
        raise SystemExit(f"hyp3 was imported from {hyp3.__file__}, not from {ROOT / 'src'}")
    import workloads   # imports every hyp3 module and builds the battery
    wl = workloads.WORKLOADS[workload]
    workloads.cli.build_parser().parse_args(wl.first_argv())
    return wl


def run_rounds(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` have passed; at least one."""
    tracer = Tracer() if trace else None
    out = OUT / wl.name
    verdicts, attempted, failed, wrong, doc_bytes = [], 0, 0, 0, 0
    reasons = []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.run(out, seed)
            verdicts.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.restore()
        ops = wl.check(out, seed, state)
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                wrong += not op.numerical
                reasons.append(f"{op.name}: {'; '.join(op.reasons)}")
        doc_bytes += sum(p.stat().st_size for p in (out / "cli").rglob("*") if p.is_file())
        if time.perf_counter() - start >= seconds:
            break
    result = {
        "rounds": len(verdicts),
        "verdict_s": verdicts,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        rounds = len(verdicts)
        layers = layer_metrics(tracer, rounds)
        layers["cli.doc_bytes"] = doc_bytes // rounds
        layers["trace.verdict_s"] = statistics.median(verdicts)
        result["layers"] = layers
        tracer.dump(OUT / f"trace-{wl.name}.json")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = _setup(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_rounds(wl, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
