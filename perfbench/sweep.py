"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/sweep.py --out .perfbench/results/base --seeds 1-10
    python3 perfbench/sweep.py --out DIR --seeds 1-5 --workloads crawl-20k

Each run is an untraced ``run.py`` with BENCHMARK.json's ``run_seconds``,
one after another. The last line of each run's output is saved as
``<out>/<workload>.seed<n>.json``; compare.py reads the set. Traced runs
are made with ``run.py --trace 1`` directly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took = time.perf_counter() - started
            last = done.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{workload} seed {seed}: exit {done.returncode} in {took:.1f} s {last[0]}", flush=True)
            if done.returncode != 0:
                return done.returncode
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{workload}.seed{seed}.json").write_text(last[0] + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
