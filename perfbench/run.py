"""orgminer benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload pipeline-600 --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports orgminer from ``src``
and exits with code 2 when that is missing. With ``--trace 0`` the last
stdout line holds the end-to-end metrics: ``run_s`` (median wall time
of one repetition of the workload's operation), ``setup_s`` (median of
``SETUPS`` fresh worker processes' time from spawn to inputs built) and
``peak_rss_mb`` (the measuring worker's peak resident memory). Half of
the set-up-only workers run before the measuring worker and half after
it, so the set-up samples span the run. With ``--trace 1`` one worker
alternates untraced and traced repetitions and the last line holds the
per-layer metrics; its spans go to ``.perfbench/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-600", "crawl-20k")
SETUPS = 5


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, work: Path, *extra: str) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its summary, if any."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), *extra,
    ]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest = proc.stdout.read()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def measure(args, work: Path) -> tuple[dict, dict]:
    if args.trace:
        spans = ROOT / ".perfbench" / "traces" / f"{args.workload}.seed{args.seed}.json"
        _, summary = start_worker(args, work / "traced", "--spans", str(spans))
        metrics = {
            name: {"value": summary["layers"][name], "unit": unit}
            for name, unit in METRICS.items()
        }
        print(
            f"trace overhead {summary['layers']['trace.overhead_pct']:+.1f} %: traced "
            f"repetition {summary['traced_run_s']:.4f} s, untraced {summary['run_s']:.4f} s"
        )
        return summary, metrics
    def setup_only(i: int) -> float:
        return start_worker(args, work / f"setup{i}", "--setup-only")[0]

    before = SETUPS // 2
    setups = [setup_only(i) for i in range(before)]
    setup, summary = start_worker(args, work / "measure")
    setups += [setup] + [setup_only(i) for i in range(before, SETUPS - 1)]
    metrics = {
        "run_s": {"value": summary["run_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }
    print(
        f"{args.workload} seed {args.seed}: {summary['repetitions']} repetitions, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    return summary, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "orgminer" / "__init__.py").is_file():
        print(f"no orgminer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        summary, metrics = measure(args, work)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
