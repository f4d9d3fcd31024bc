"""One workload in one fresh process; started by run.py, not by hand.

The worker imports orgminer from the checkout's ``src``, builds the
workload's inputs, prints ``READY`` (run.py times set-up up to that
line), then repeats the workload's operation until ``--seconds`` have
passed and at least ``MIN_REPS`` repetitions ran, checking every
repetition's outputs. Its last stdout line is a JSON summary.

With ``--trace 1`` repetitions alternate untraced and traced, so the
run measures its own tracing overhead; the per-layer figures are the
set-up spans plus the median over traced repetitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import LayerProbe, combine
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    probe = LayerProbe(tracer)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    with tracer.span("cli.import"):
        import orgminer
    if Path(orgminer.__file__).resolve().parent != src / "orgminer":
        print(f"orgminer imported from {orgminer.__file__}, not from {src}", file=sys.stderr)
        return 2
    # After orgminer, so that cli.import and set-up pay for nothing the
    # benchmark itself needs; checks.py loads its extra scipy modules lazily.
    from workloads import WORKLOADS

    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](orgminer, args.seed, args.work)
    if args.trace:
        probe.install(orgminer)
    workload.setup()
    tracer.unpatch()
    setup_layers = probe.collect(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    plain: list[float] = []
    traced: list[float] = []
    layer_reps: list[dict[str, float]] = []
    attempted = failed = wrong = 0
    started = time.perf_counter()
    rep = 0
    while True:
        tracing = args.trace == 1 and rep % 2 == 1
        first_span = len(tracer.spans)
        if tracing:
            probe.install(orgminer)
        t0 = time.perf_counter()
        try:
            outputs = workload.run(rep)
        except Exception:  # a failing operation is counted, and the run goes on
            seconds = None
            outcomes = [traceback.format_exc()] * len(workload.ops)
        else:
            seconds = time.perf_counter() - t0
        finally:
            tracer.unpatch()
        if tracing:
            layer_reps.append(probe.collect(first_span))
        if seconds is not None:
            outcomes = workload.check(outputs)
            outputs = None  # free them before the next repetition
            wrong += sum(o is not None for o in outcomes)
            (traced if tracing else plain).append(seconds)
        attempted += len(outcomes)
        failed += sum(o is not None for o in outcomes)
        for op, outcome in zip(workload.ops, outcomes):
            if outcome is not None:
                print(f"{args.workload} repetition {rep} {op} failed: {outcome}", file=sys.stderr)
        rep += 1
        elapsed = time.perf_counter() - started
        if rep >= MIN_REPS and elapsed >= args.seconds and rep % (1 + args.trace) == 0:
            break

    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    summary = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "repetitions": len(plain),
        "run_s": statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = combine(setup_layers, layer_reps)
        untraced, with_spans = statistics.median(plain), statistics.median(traced)
        layers["trace.overhead_pct"] = 100.0 * (with_spans / untraced - 1.0)
        summary["layers"] = layers
        summary["traced_run_s"] = with_spans
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
