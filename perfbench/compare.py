"""Summarise one set of benchmark results, or compare two, per workload.

    python3 perfbench/compare.py RESULTS            # medians and spreads
    python3 perfbench/compare.py BASE NEW           # NEW against BASE

A set is a directory of untraced result files, one per workload and
seed, as ``sweep.py`` writes them. For every workload and end-to-end
metric the table shows the median, the spread (distance between the
first and third quartile, as a share of the median) and, with two sets,
the change of the median, signed so that a positive change is worse. A
change worse than the metric's bound in BENCHMARK.json is a regression;
a spread wider than the bound makes the metric unresolved, for every
metric alike. The share of failed operations must be exactly equal
between the two sets. The exit code is 1 when a workload regresses, a
metric is unresolved or the failed shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.seed*.json")):
        workload = path.name.split(".seed")[0]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(runs: list[dict]) -> Fraction:
    return Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sets = [load(Path(a)) for a in argv]
    ok = True
    for workload in sorted(set().union(*sets)):
        present = [s.get(workload, []) for s in sets]
        cells = []
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in present]
            if any(len(v) < 2 for v in values):
                cells.append(f"{name} needs two runs per set")
                ok = False
                continue
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            cell = f"{name} {medians[0]:.4g}"
            verdict = ""
            if len(sets) == 2:
                sign = 1 if metric["better"] == "lower" else -1
                change = sign * (medians[1] / medians[0] - 1)
                cell += f" -> {medians[1]:.4g} ({change:+.1%})"
                if change > bound:
                    verdict = " REGRESSION"
            cell += " spread " + "/".join(f"{s:.1%}" for s in spreads) + f" bound {bound:.0%}"
            if any(s > bound for s in spreads):
                verdict += " UNRESOLVED"
            ok = ok and not verdict
            cells.append(cell + verdict)
        shares = [failed_share(runs) for runs in present if runs]
        share_cell = "failed " + " / ".join(f"{float(s):.3%}" for s in shares)
        if len(set(shares)) > 1:
            share_cell += " DIFFERENT"
            ok = False
        runs = "/".join(str(len(r)) for r in present)
        print(f"{workload} [{runs} runs] | " + " | ".join(cells) + f" | {share_cell}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
