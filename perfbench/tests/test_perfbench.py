"""Tests of the benchmark's own code on tiny worlds.

    python3 -m pytest perfbench/tests -q

Every output check passes on correct outputs and fails on a corrupted
copy, and the traced run yields every per-layer metric BENCHMARK.json
names.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import orgminer  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer, layer_self_seconds  # noqa: E402

TINY = {
    "pipeline-600": workloads.pipeline_spec(members=80, population=100),
    "crawl-20k": workloads.crawl_spec(members=60, population=400, communities=2),
}


def tiny(name: str, work: Path, seed: int = 3):
    workload = workloads.WORKLOADS[name](orgminer, seed, work, TINY[name])
    if name == "crawl-20k":
        workload.budgets = (15, 30, 45)
    workload.setup()
    return workload


# -- pipeline-600 ------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("pipeline")
    workload = tiny("pipeline-600", work)
    out = workload.run(0)
    reference = checks.check_pipeline_dir(out, None, 3)
    return workload, out, reference


def rewrite(src: Path, dst: Path, name: str, edit) -> Path:
    """Copy a run, edit one artifact and re-hash it in the manifest, so the
    check under test is the one that has to catch the change."""
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    manifest = json.loads((dst / "manifest.json").read_text())
    manifest["artifacts"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


def test_pipeline_checks_pass_and_rerun_is_identical(pipeline_run):
    workload, _, reference = pipeline_run
    workload.reference = reference
    assert workload.check(workload.run(1)) == [None]


def test_pipeline_hash_check_catches_an_edited_artifact(pipeline_run, tmp_path):
    _, out, _ = pipeline_run
    shutil.copytree(out, tmp_path / "run")
    with (tmp_path / "run" / "world_edges.txt").open("a") as fh:
        fh.write("\n")
    with pytest.raises(CheckFailed, match="sha256 differs"):
        checks.check_pipeline_dir(tmp_path / "run", None, 3)


def test_pipeline_rerun_check_catches_different_bytes(pipeline_run):
    _, out, reference = pipeline_run
    other = dict(reference, **{"report.txt": "0" * 64})
    with pytest.raises(CheckFailed, match="not byte-identical"):
        checks.check_pipeline_dir(out, other, 3)


@pytest.mark.parametrize(
    "name, pattern, replacement, message",
    [
        ("cv_report.csv", r"^(zero-r,[^,]*,[^,]*),0\.5,", r"\1,0.5000001,", "zero-r AUC"),
        ("cv_report.csv", r"^zero-r,", "zero-r,1", "zero-r accuracy"),
        ("ranking_report.csv", r"^dg,[^,]*,", "dg,0.125,", "precision@10 of dg"),
        ("report.txt", r" at Q=0\.", " at Q=0.0", "reported Q"),
    ],
)
def test_pipeline_checks_catch_corrupted_reports(pipeline_run, tmp_path, name, pattern, replacement, message):
    _, out, _ = pipeline_run

    def edit(text: str) -> str:
        changed, count = re.subn(pattern, replacement, text, count=1, flags=re.M)
        assert count == 1
        return changed

    corrupted = rewrite(out, tmp_path / "run", name, edit)
    with pytest.raises(CheckFailed, match=message):
        checks.check_pipeline_dir(corrupted, None, 3)


# -- analysis of the crawled graph -------------------------------------------------------


@pytest.fixture(scope="module")
def analysis(pipeline_run):
    """The analyzed graph, scores, partition and report of the pipeline run."""
    _, out, _ = pipeline_run
    table = {int(r["node"]): r for r in checks._csv_rows(out / "centrality.csv")}
    g = checks.GraphData(table, checks._edge_pairs(out / "crawled_edges.txt"))
    scores = {m: {v: float(r[m]) for v, r in table.items()} for m in checks.MEASURES}
    assignment = {int(r["node"]): int(r["community"]) for r in checks._csv_rows(out / "communities.csv")}
    labels = checks._csv_rows(out / "world_labels.csv")
    disclosed = {int(r["node"]) for r in labels if r["discloses_position"] == "true"} & set(table)
    rows = checks._csv_rows(out / "community_report.csv")
    return g, scores, assignment, disclosed, rows


def corrupt_scores(scores, measure, fn):
    changed = {m: dict(s) for m, s in scores.items()}
    nodes = sorted(changed[measure])
    values = fn(np.array([changed[measure][v] for v in nodes]))
    changed[measure] = dict(zip(nodes, (float(x) for x in values)))
    return changed


def bump_largest(x):
    x = x.copy()
    x[np.argmax(x)] *= 1.01
    return x


def shift_mass(x):
    x = x.copy()
    x[0] += 1e-4
    x[1] -= 1e-4
    return x


def flip_first(x):
    x = x.copy()
    x[0] = -x[0]
    return x


@pytest.mark.parametrize(
    "measure, fn, message",
    [
        ("dg", bump_largest, "dg differs"),
        ("cl", lambda x: x * 1.001, "cl differs"),
        ("bc", bump_largest, "sum of bc"),
        ("lc", bump_largest, "sum of lc"),
        ("cc", lambda x: x * 1.001, "cc differs"),
        ("pr", bump_largest, "sum of pr"),
        ("pr", shift_mass, "pr fixed-point"),
        ("ec", flip_first, "negative entry"),
        ("ec", lambda x: x * 1.01, "norm of ec"),
        ("hits", shift_mass, "hits differs"),
    ],
)
def test_centrality_checks_catch_corrupted_scores(analysis, measure, fn, message):
    g, scores, *_ = analysis
    with pytest.raises(CheckFailed, match=message):
        checks.check_centrality(g, corrupt_scores(scores, measure, fn), np.random.default_rng(0))


def test_ec_check_catches_a_vector_that_is_no_eigenvector(analysis):
    g, scores, *_ = analysis
    scores = corrupt_scores(scores, "ec", lambda x: np.full(len(x), 1 / np.sqrt(len(x))))
    with pytest.raises(CheckFailed, match="ec Rayleigh"):
        checks.check_centrality(g, scores, np.random.default_rng(0))


def test_partition_check_catches_an_unfinished_merge(analysis):
    g, _, assignment, *_ = analysis
    checks.check_partition(g, assignment)
    singletons = {v: i for i, v in enumerate(g.nodes)}
    with pytest.raises(CheckFailed, match="merge gain"):
        checks.check_partition(g, singletons)
    with pytest.raises(CheckFailed, match="does not cover"):
        checks.check_partition(g, dict(list(assignment.items())[1:]))


@pytest.mark.parametrize("column", ["size", "internal_links", "disclosed_positions"])
def test_report_check_catches_a_wrong_count(analysis, column):
    g, _, assignment, disclosed, rows = analysis
    checks.check_report(g, assignment, disclosed, rows)
    bad = [dict(rows[0], **{column: str(int(rows[0][column]) + 1)}), *rows[1:]]
    with pytest.raises(CheckFailed, match="report: community sizes"):
        checks.check_report(g, assignment, disclosed, bad)


# -- crawl-20k -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crawl_run(tmp_path_factory):
    workload = tiny("crawl-20k", tmp_path_factory.mktemp("crawl"))
    outputs = workload.run(0)
    assert workload.check(outputs) == [None] * 3
    return workload, outputs


def test_crawl_checks_catch_corruption(crawl_run):
    workload, (focused, fifo, resumed) = crawl_run
    truth = workload.truth
    edges = focused.graph.edges()
    fewer_edges = dataclasses.replace(
        focused, graph=orgminer.SocialGraph(focused.graph.nodes, edges[1:])
    )
    with pytest.raises(CheckFailed, match="kept edges differ"):
        checks.check_crawl(truth, fewer_edges, "focused crawl")

    missing = copy.deepcopy(fifo)
    missing.state.confirmed.discard(min(missing.state.confirmed))
    with pytest.raises(CheckFailed, match="confirmed set differs"):
        checks.check_crawl(truth, missing, "FIFO crawl")

    unfetched = copy.deepcopy(fifo)
    unfetched.state.crawled.discard(max(unfetched.state.crawled - unfetched.state.confirmed))
    with pytest.raises(CheckFailed, match="fetched set differs"):
        checks.check_crawl(truth, unfetched, "FIFO crawl")

    drifted = copy.deepcopy(resumed)
    drifted.state.window.append(1)
    with pytest.raises(CheckFailed, match="different state"):
        checks.check_same_state(drifted, focused)


# -- the traced run --------------------------------------------------------------------


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    untouched = orgminer.centrality.closeness_centrality
    workload = workloads.WORKLOADS[name](orgminer, 3, tmp_path, TINY[name])
    if name == "crawl-20k":
        workload.budgets = (15, 30, 45)
    probe.install(orgminer)
    workload.setup()
    outputs = workload.run(0)
    tracer.unpatch()
    assert orgminer.centrality.closeness_centrality is untouched
    assert all(o is None for o in workload.check(outputs))

    figures = layers.combine({}, [probe.collect(0)])
    assert set(figures) | {"trace.overhead_pct"} == set(layers.METRICS)
    busy = {
        "pipeline-600": ["pipeline.self_s", "classifiers.random-forest.fit_s", "leadership.cv_s",
                         "centrality.table_s", "centrality.table_cpu_s", "centrality.cc_s",
                         "centrality.pr_iterations", "community.detect_s", "community.roles_s",
                         "graph.export_s", "synthworld.generate_s", "crawler.crawl_s",
                         "synthworld.fetches"],
        "crawl-20k": ["crawler.bfs_crawl_s", "crawler.save_state_s", "crawler.resume_s",
                      "crawler.fetch_rate", "crawler.state_bytes"],
    }[name]
    assert all(figures[m] > 0 for m in busy), {m: figures[m] for m in busy}


def test_layer_self_time_excludes_nested_layers():
    tracer = Tracer()
    with tracer.span("pipeline.self"):
        with tracer.span("centrality.table"):
            with tracer.span("centrality.cl"):
                pass
        with tracer.span("graph.export"):
            pass
    selfs = layer_self_seconds(tracer.spans)
    outer, table, cl, export = tracer.spans
    assert selfs[0] == pytest.approx(outer.seconds - table.seconds - export.seconds)
    assert selfs[1] == table.seconds
    assert selfs[2] == cl.seconds


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_marks_a_wide_setup_spread_unresolved(tmp_path, capsys):
    import compare

    for seed, setup in enumerate((1.0, 1.0, 2.0, 2.0), start=1):
        result = {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {
                "run_s": {"value": 2.0, "unit": "s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": 100.0, "unit": "MB"},
            },
        }
        (tmp_path / f"crawl-20k.seed{seed}.json").write_text(json.dumps(result))
    assert compare.main([str(tmp_path)]) == 1
    assert "setup_s 1.5 spread 66.7% bound 25% UNRESOLVED" in capsys.readouterr().out
