"""End-to-end pipeline runs, manifest verification, and the CLI front end."""

from __future__ import annotations

import csv
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from orgminer import (
    AnalysisSettings,
    CentralityTable,
    ConfigError,
    CrawlSettings,
    PipelineConfig,
    PipelineError,
    cli,
    edge_list_bytes,
    generate_world,
    import_dataset,
    labels_to_csv_bytes,
    load_graph,
    load_labels,
    profiles_to_jsonl_bytes,
    run_pipeline,
    verify_manifest,
)

from orgminer.utils import content_hash, derive_seed, stable_json

from conftest import org_members, two_community_spec, write_half_then_fail
from test_community import MALFORMED_RULES
from test_graph import MALFORMED_PROFILES

GENERATE_ARTIFACTS = {
    "world_edges.txt",
    "world_profiles.jsonl",
    "world_labels.csv",
    "crawled_edges.txt",
    "crawled_profiles.jsonl",
    "crawl_stats.json",
    "centrality.csv",
    "ranking_report.csv",
    "hidden_managers.csv",
    "cv_report.csv",
    "communities.csv",
    "community_report.csv",
    "anonymized_graph.txt",
    "report.txt",
    "manifest.json",
}

UNSUPERVISED_IMPORT_ARTIFACTS = {
    "graph_edges.txt",
    "centrality.csv",
    "communities.csv",
    "community_report.csv",
    "anonymized_graph.txt",
    "report.txt",
    "manifest.json",
}


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    """One generated world, serialized every way the tools consume it."""
    root = tmp_path_factory.mktemp("world")
    spec = two_community_spec(3)
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    world = generate_world(spec)
    (root / "edges.txt").write_bytes(edge_list_bytes(world.graph))
    (root / "profiles.jsonl").write_bytes(
        profiles_to_jsonl_bytes(world.graph.profiles)
    )
    (root / "labels.csv").write_bytes(labels_to_csv_bytes(world.truth.label_rows()))
    return {
        "root": root,
        "spec": spec_path,
        "edges": root / "edges.txt",
        "profiles": root / "profiles.jsonl",
        "labels": root / "labels.csv",
        "world": world,
        "members": org_members(world),
    }


@pytest.fixture(scope="module")
def pipeline_run(world_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("run-a")
    cfg = PipelineConfig(
        out_dir=str(out),
        world_spec=str(world_files["spec"]),
        master_seed=7,
        crawl=CrawlSettings(max_fetches=300),
    )
    result = run_pipeline(cfg)
    return cfg, result


# -- config validation ---------------------------------------------------------


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one input source"):
        PipelineConfig(out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="exactly one input source"):
        PipelineConfig(
            out_dir=str(tmp_path), world_spec="spec.json", import_edges="edges.txt"
        )


def test_config_labels_need_edges(tmp_path):
    with pytest.raises(ConfigError, match="import_labels"):
        PipelineConfig(
            out_dir=str(tmp_path), world_spec="spec.json", import_labels="l.csv"
        )


def test_config_rejects_bad_export_format(tmp_path):
    with pytest.raises(ConfigError, match="export_format"):
        PipelineConfig(
            out_dir=str(tmp_path), world_spec="spec.json", export_format="xlsx"
        )


def test_from_dict_rejects_unknown_keys():
    base = {"out_dir": "o", "world_spec": "s.json"}
    with pytest.raises(ConfigError, match="unknown pipeline settings"):
        PipelineConfig.from_dict({**base, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown crawl settings"):
        PipelineConfig.from_dict({**base, "crawl": {"speed": 9}})
    with pytest.raises(ConfigError, match="unknown analysis settings"):
        PipelineConfig.from_dict({**base, "analysis": {"depth": 2}})


def test_from_dict_rejects_values_of_the_wrong_type():
    base = {"out_dir": "o", "world_spec": "s.json"}
    for bad, message in [
        ({"crawl": None}, "crawl settings must be an object"),
        ({"analysis": [1]}, "analysis settings must be an object"),
        ({"crawl": {"seeds": 5}}, "crawl setting 'seeds'"),
        ({"crawl": {"keywords": ["acme", 3]}}, "crawl setting 'keywords'"),
        ({"crawl": {"max_fetches": "5"}}, "crawl setting 'max_fetches'"),
        ({"analysis": {"folds": 2.5}}, "analysis setting 'folds'"),
        ({"analysis": {"tol": True}}, "analysis setting 'tol'"),
        ({"master_seed": "1"}, "pipeline setting 'master_seed'"),
        ({"out_dir": 7}, "pipeline setting 'out_dir'"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            PipelineConfig.from_dict({**base, **bad})
    with pytest.raises(ConfigError, match="pipeline settings must be an object"):
        PipelineConfig.from_dict(None)
    # JSON lists stand for tuples, ints for floats, null for an unset option
    cfg = PipelineConfig.from_dict({**base, "crawl": {"seeds": [1, 2], "max_fetches": None},
                                    "analysis": {"tol": 0, "ks": [5]}})
    assert (cfg.crawl.seeds, cfg.analysis.ks, cfg.analysis.tol) == ((1, 2), (5,), 0)


def test_int_and_float_settings_make_one_config_hash():
    base = {"out_dir": "o", "world_spec": "s.json"}
    as_int = PipelineConfig.from_dict({**base, "analysis": {"tol": 0, "folds": 5}})
    as_float = PipelineConfig.from_dict({**base, "analysis": {"tol": 0.0, "folds": 5}})
    assert as_int == as_float
    assert (type(as_int.analysis.tol), type(as_int.analysis.folds)) == (float, int)
    assert as_int.config_hash() == as_float.config_hash()


def test_from_dict_requires_out_dir():
    with pytest.raises(ConfigError, match="out_dir"):
        PipelineConfig.from_dict({"world_spec": "s.json"})


def test_config_round_trips_through_dict():
    cfg = PipelineConfig(
        out_dir="o",
        world_spec="s.json",
        master_seed=11,
        crawl=CrawlSettings(version="v2", max_fetches=50, seeds=(1, 2)),
        analysis=AnalysisSettings(folds=5, ks=(5,)),
        export_format="graphml",
    )
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_config_hash_ignores_out_dir_only():
    cfg = PipelineConfig(out_dir="a", world_spec="s.json", master_seed=1)
    assert cfg.config_hash() == replace(cfg, out_dir="b").config_hash()
    assert cfg.config_hash() != replace(cfg, master_seed=2).config_hash()


# -- dataset import ------------------------------------------------------------


def test_import_dataset_rejects_labels_for_unknown_nodes(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("node,is_manager\n0,true\n9,false\n")
    with pytest.raises(ConfigError, match="unknown nodes"):
        import_dataset(edges, labels)


def test_import_dataset_accepts_partial_labels(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("node,is_manager\n0,true\n")
    g, rows = import_dataset(edges, labels)
    assert g.num_nodes == 3
    assert set(rows) == {0}


# -- full pipeline runs ----------------------------------------------------------


def test_pipeline_generates_expected_artifacts(pipeline_run):
    cfg, result = pipeline_run
    assert set(result.artifacts) == GENERATE_ARTIFACTS
    assert result.notices == ()
    for name in result.artifacts:
        assert (result.out_dir / name).exists()
    assert verify_manifest(result.out_dir) == []


def test_pipeline_manifest_matches_result(pipeline_run):
    cfg, result = pipeline_run
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["config_hash"] == result.config_hash == cfg.config_hash()
    # the manifest cannot hash itself, everything else is recorded
    recorded = manifest["artifacts"]
    assert set(recorded) == GENERATE_ARTIFACTS - {"manifest.json"}
    for name, digest in recorded.items():
        assert result.artifacts[name] == digest
    assert manifest["notices"] == []


def test_pipeline_rerun_is_byte_identical(pipeline_run, tmp_path):
    """Same config into a fresh directory reproduces every artifact exactly."""
    cfg, first = pipeline_run
    rerun_cfg = replace(cfg, out_dir=str(tmp_path / "run-b"))
    second = run_pipeline(rerun_cfg)
    assert second.config_hash == first.config_hash
    assert set(second.artifacts) == set(first.artifacts)
    for name in first.artifacts:
        a = (first.out_dir / name).read_bytes()
        b = (second.out_dir / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_pipeline_import_without_labels_skips_supervised(world_files, tmp_path):
    cfg = PipelineConfig(
        out_dir=str(tmp_path / "out"),
        import_edges=str(world_files["edges"]),
    )
    result = run_pipeline(cfg)
    assert set(result.artifacts) == UNSUPERVISED_IMPORT_ARTIFACTS
    assert any("no labels" in n for n in result.notices)
    assert verify_manifest(result.out_dir) == []


def test_pipeline_import_with_full_labels_runs_supervised(world_files, tmp_path):
    cfg = PipelineConfig(
        out_dir=str(tmp_path / "out"),
        import_edges=str(world_files["edges"]),
        import_labels=str(world_files["labels"]),
    )
    result = run_pipeline(cfg)
    assert {"cv_report.csv", "ranking_report.csv", "hidden_managers.csv"} <= set(
        result.artifacts
    )
    assert result.notices == ()


def test_pipeline_import_with_partial_labels_notes_the_gap(world_files, tmp_path):
    # keep half the label rows; still a valid table, but coverage is broken
    rows = load_labels(world_files["labels"])
    kept = [rows[v] for v in sorted(rows)[: len(rows) // 2]]
    labels = tmp_path / "partial.csv"
    labels.write_bytes(labels_to_csv_bytes(kept))
    cfg = PipelineConfig(
        out_dir=str(tmp_path / "out"),
        import_edges=str(world_files["edges"]),
        import_labels=str(labels),
    )
    result = run_pipeline(cfg)
    assert "cv_report.csv" not in result.artifacts
    assert any("do not cover" in n for n in result.notices)


def test_cli_pipeline_names_the_line_of_a_bad_community_label(world_files, tmp_path, capsys):
    lines = world_files["labels"].read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("community")] = "x"
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    rc = cli.main(["pipeline", "--import-edges", str(world_files["edges"]),
                   "--import-labels", str(labels), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: stage 'import' failed: ")
    assert err[0].endswith(f"{labels}:2: community must be an integer, got 'x'")


def test_pipeline_failure_names_the_stage(tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text(json.dumps({"total_population": 5, "orgs": []}))
    cfg = PipelineConfig(out_dir=str(tmp_path / "out"), world_spec=str(spec))
    with pytest.raises(PipelineError, match="generate") as err:
        run_pipeline(cfg)
    assert err.value.stage == "generate"


def test_pipeline_import_failure_names_the_stage(tmp_path):
    cfg = PipelineConfig(
        out_dir=str(tmp_path / "out"), import_edges=str(tmp_path / "nope.txt")
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "import"


# -- manifest verification -------------------------------------------------------


def _copy_run(result, tmp_path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(result.out_dir, dst)
    return dst


def test_verify_manifest_detects_tampering(pipeline_run, tmp_path):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    with (run / "centrality.csv").open("ab") as fh:
        fh.write(b"tampered\n")
    assert verify_manifest(run) == ["centrality.csv: hash mismatch"]


def test_verify_manifest_detects_missing_artifact(pipeline_run, tmp_path):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    (run / "cv_report.csv").unlink()
    assert verify_manifest(run) == ["cv_report.csv: missing"]


def test_verify_manifest_without_manifest(tmp_path):
    assert verify_manifest(tmp_path) == ["manifest.json missing"]


def test_verify_manifest_with_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    problems = verify_manifest(tmp_path)
    assert len(problems) == 1 and "unreadable" in problems[0]


# -- CLI -------------------------------------------------------------------------


def test_cli_generate_writes_world_files(world_files, tmp_path, capsys):
    rc = cli.main(
        ["generate", "--spec", str(world_files["spec"]), "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    for name in ("world_edges.txt", "world_profiles.jsonl", "world_labels.csv"):
        assert (tmp_path / name).exists()
    census = (tmp_path / "census.csv").read_text().splitlines()
    assert census[0] == "org,members,links,disclosing,disclosing_pct"
    assert census[-1].startswith("TOTAL,")
    assert "world:" in capsys.readouterr().out


def test_cli_generate_quotes_an_org_name_that_holds_a_comma(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_org_spec(name_keywords=["acme, inc"])))
    assert cli.main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "census.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["org", "acme, inc", "TOTAL"]
    assert {len(row) for row in rows} == {5}


def test_cli_generate_honors_env_output_root(world_files, tmp_path, monkeypatch):
    monkeypatch.setenv("ORGMINER_OUT", str(tmp_path))
    assert cli.main(["generate", "--spec", str(world_files["spec"])]) == 0
    assert (tmp_path / "census.csv").exists()


_SPEC = {"total_population": 60, "orgs": [{"name_keywords": ["acme"], "size": 20}]}


def _org_spec(**org) -> dict:
    return {**_SPEC, "orgs": [{**_SPEC["orgs"][0], **org}]}


MALFORMED_SPECS = {
    "misspelled key": (
        _org_spec(manager_fracton=0.2), "unknown orgs[0] settings: ['manager_fracton']"),
    "orgs not a list": ({**_SPEC, "orgs": 5}, "world spec setting 'orgs' must be tuple["),
    "keywords a string": (
        _org_spec(name_keywords="acme"),
        "orgs[0] setting 'name_keywords' must be tuple[str, ...], got 'acme'"),
    "fractional size": (_org_spec(size=20.7), "orgs[0] setting 'size' must be int, got 20.7"),
    "population a string": (
        {**_SPEC, "total_population": "50"},
        "world spec setting 'total_population' must be int, got '50'"),
    "bool for an int": (
        _org_spec(community_count=True),
        "orgs[0] setting 'community_count' must be int, got True"),
    "missing size": (
        {**_SPEC, "orgs": [{"name_keywords": ["acme"]}]}, "missing orgs[0] settings: ['size']"),
}


@pytest.mark.parametrize("case", MALFORMED_SPECS)
def test_cli_generate_rejects_a_malformed_world_spec(tmp_path, capsys, case):
    spec, message = MALFORMED_SPECS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    rc = cli.main(["generate", "--spec", str(path), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("case", MALFORMED_SPECS)
def test_pipeline_reports_a_malformed_world_spec_from_generate(tmp_path, case):
    spec, message = MALFORMED_SPECS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    cfg = PipelineConfig(out_dir=str(tmp_path / "out"), world_spec=str(path))
    with pytest.raises(PipelineError, match="stage 'generate' failed") as info:
        run_pipeline(cfg)
    assert info.value.stage == "generate" and message in str(info.value)


@pytest.mark.parametrize("case", MALFORMED_PROFILES)
def test_cli_crawl_rejects_a_malformed_profile_line(world_files, tmp_path, capsys, case):
    record, message = MALFORMED_PROFILES[case]
    lines = world_files["profiles"].read_text().splitlines()
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
    out = tmp_path / "out"
    members = world_files["members"]
    rc = cli.main(["crawl", "--edges", str(world_files["edges"]), "--profiles", str(profiles),
                   "--keywords", "acme corp", "--seeds", str(members[0]), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{profiles}:{len(lines) + 1}: " in err[0] and err[0].endswith(message)
    assert not out.exists()


def test_cli_crawl_resume_matches_uninterrupted_run(world_files, tmp_path, capsys):
    """A budget-stopped crawl plus a resume lands on the uninterrupted result."""
    members = world_files["members"]
    base = [
        "--edges",
        str(world_files["edges"]),
        "--profiles",
        str(world_files["profiles"]),
        "--keywords",
        "acme corp",
        "--seeds",
        f"{members[0]},{members[1]}",
    ]
    part = tmp_path / "part"
    state = tmp_path / "state.json"
    rc = cli.main(
        ["crawl", *base, "--budget", "15", "--save-state", str(state), "--out-dir", str(part)]
    )
    assert rc == 0
    stats = json.loads((part / "crawl_stats.json").read_text())
    assert stats["stop_reason"] == "budget"
    assert stats["fetched"] == 15

    done = tmp_path / "done"
    rc = cli.main(["crawl", *base, "--resume", str(state), "--out-dir", str(done)])
    assert rc == 0

    fresh = tmp_path / "fresh"
    rc = cli.main(["crawl", *base, "--out-dir", str(fresh)])
    assert rc == 0
    for name in ("crawled_edges.txt", "crawled_profiles.jsonl", "crawl_stats.json"):
        assert (done / name).read_bytes() == (fresh / name).read_bytes()
    assert "crawl: fetched" in capsys.readouterr().out


@pytest.mark.parametrize("data", [b"\xff{}\n", b'{"format_version": 1, "fingerp'],
                         ids=["not-utf8", "truncated"])
def test_cli_crawl_resume_names_the_line_of_a_corrupt_state(world_files, tmp_path, capsys, data):
    state, out = tmp_path / "state.json", tmp_path / "out"
    state.write_bytes(data)
    rc = cli.main(["crawl", "--edges", str(world_files["edges"]),
                   "--profiles", str(world_files["profiles"]), "--keywords", "acme corp",
                   "--seeds", str(world_files["members"][0]), "--resume", str(state),
                   "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {state}:1: ")
    assert not out.exists()


def test_cli_crawl_fifo_strategy_runs(world_files, tmp_path):
    members = world_files["members"]
    rc = cli.main(
        [
            "crawl",
            "--edges",
            str(world_files["edges"]),
            "--profiles",
            str(world_files["profiles"]),
            "--keywords",
            "acme corp",
            "--seeds",
            str(members[0]),
            "--strategy",
            "fifo",
            "--budget",
            "30",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "crawled_edges.txt").exists()


def test_cli_centrality_on_a_path(tmp_path):
    edges = tmp_path / "p3.txt"
    edges.write_text("0 1\n1 2\n")
    out = tmp_path / "table.csv"
    rc = cli.main(["centrality", "--edges", str(edges), "--out", str(out)])
    assert rc == 0
    table = CentralityTable.from_csv_bytes(out.read_bytes())
    cl, bc = table.scores["cl"], table.scores["bc"]
    assert [cl[v] for v in (0, 1, 2)] == pytest.approx([2 / 3, 1.0, 2 / 3])
    assert [bc[v] for v in (0, 1, 2)] == pytest.approx([0.0, 1.0, 0.0])


def test_cli_centrality_measure_subset(tmp_path):
    edges = tmp_path / "p3.txt"
    edges.write_text("0 1\n1 2\n")
    out = tmp_path / "table.csv"
    rc = cli.main(
        ["centrality", "--edges", str(edges), "--out", str(out), "--measures", "dg,cl"]
    )
    assert rc == 0
    table = CentralityTable.from_csv_bytes(out.read_bytes())
    assert set(table.measures) == {"dg", "cl"}


@pytest.fixture(scope="module")
def world_table(world_files, tmp_path_factory):
    """Centrality table over the full world graph, built through the CLI."""
    out = tmp_path_factory.mktemp("table") / "centrality.csv"
    rc = cli.main(
        ["centrality", "--edges", str(world_files["edges"]), "--out", str(out)]
    )
    assert rc == 0
    return out


def test_cli_rank_reports_precision_and_hidden(world_files, world_table, tmp_path, capsys):
    rc = cli.main(
        [
            "rank",
            "--table",
            str(world_table),
            "--labels",
            str(world_files["labels"]),
            "--k",
            "5,10",
            "--hidden-k",
            "10",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = (tmp_path / "ranking_report.csv").read_text().splitlines()
    assert report[0] == "measure,p_at_5,p_at_10"
    assert (tmp_path / "hidden_managers.csv").exists()
    out = capsys.readouterr().out
    assert "hidden managers in cl top-10" in out


def test_cli_evaluate_writes_classifier_table(world_files, world_table, tmp_path, capsys):
    out = tmp_path / "cv.csv"
    rc = cli.main(
        [
            "evaluate",
            "--table",
            str(world_table),
            "--labels",
            str(world_files["labels"]),
            "--classifiers",
            "zero-r,one-r",
            "--folds",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "classifier,accuracy_pct,f_measure,auc,folds,fallback_folds"
    assert {ln.split(",")[0] for ln in lines[1:]} == {"zero-r", "one-r"}
    assert "zero-r: acc" in capsys.readouterr().out


def test_cli_evaluate_on_a_table_of_fewer_than_twenty_nodes(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {(i + 1) % 15}\n{i} {(i + 4) % 15}\n" for i in range(15)))
    labels = tmp_path / "labels.csv"
    rows = "".join(f"{v},{'true' if v % 3 == 0 else 'false'}\n" for v in range(15))
    labels.write_text("node,is_manager\n" + rows)
    table = tmp_path / "centrality.csv"
    assert cli.main(["centrality", "--edges", str(edges), "--out", str(table)]) == 0
    out = tmp_path / "cv_report.csv"
    args = ["evaluate", "--table", str(table), "--labels", str(labels)]
    assert cli.main(args + ["--folds", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 9


@pytest.mark.parametrize("command", ["rank", "evaluate"])
@pytest.mark.parametrize("row, problem", [
    ("1,x\n", ":4: bad score: could not convert string to float: 'x'"),
    ("x,0.5\n", ":4: node id must be an integer, got 'x'"),
    ("1\n", ":4: row has 1 cells, the header 2"),
], ids=["bad-float", "bad-node", "short-row"])
def test_cli_names_the_file_line_of_a_bad_table_cell(
    world_files, tmp_path, capsys, command, row, problem
):
    table = tmp_path / "centrality.csv"
    table.write_text("# written by hand\nnode,dg\n0,0.5\n" + row)
    out = ["--out-dir" if command == "rank" else "--out", str(tmp_path / "o")]
    rc = cli.main([command, "--table", str(table), "--labels", str(world_files["labels"]), *out])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {table}{problem}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, name", [
    (["rank", "--table", "{bad}", "--labels", "{labels}", "--out-dir", "{out}"], "bad_utf8.csv"),
    (["generate", "--spec", "{bad}", "--out-dir", "{out}"], "bad_utf8.json"),
], ids=["rank-table", "generate-spec"])
def test_cli_names_the_line_of_an_input_that_is_not_utf8(
    world_files, tmp_path, capsys, args, name
):
    bad, out = tmp_path / name, tmp_path / "out"
    table = name.endswith(".csv")
    bad.write_bytes(b"node,dg\n0,\xff\n" if table else b'{\n "orgs": "\xff"}\n')
    args = [a.format(bad=bad, labels=world_files["labels"], out=out) for a in args]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.splitlines()
    column = 3 if table else 11
    assert err == [f"error: {bad}:2: not UTF-8: invalid start byte at column {column}"]
    assert not out.exists()


def test_cli_rank_names_a_measure_the_table_lacks(world_files, tmp_path, capsys):
    table, out = tmp_path / "centrality.csv", tmp_path / "out"
    table.write_text("node,dg\n" + "".join(f"{v},{v / 30}\n" for v in range(30)))
    args = ["rank", "--table", str(table), "--labels", str(world_files["labels"])]
    assert cli.main(args + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: measure 'cl' not present in table"]
    assert not out.exists()


def test_cli_chain_writes_the_pipeline_artifacts(world_files, pipeline_run, tmp_path):
    """The subcommands, fed the run's seeds, write the pipeline's bytes
    minus the config trailer."""
    cfg, result = pipeline_run
    stats = json.loads((result.out_dir / "crawl_stats.json").read_text())
    d = str(tmp_path)
    edges, profiles = f"{d}/crawled_edges.txt", f"{d}/crawled_profiles.jsonl"
    table, labels = f"{d}/centrality.csv", f"{d}/world_labels.csv"
    chain = [
        ["generate", "--spec", str(world_files["spec"]), "--out-dir", d,
         "--seed", str(derive_seed(7, "world"))],
        ["crawl", "--edges", f"{d}/world_edges.txt",
         "--profiles", f"{d}/world_profiles.jsonl",
         "--keywords", ",".join(stats["keywords"]),
         "--seeds", ",".join(map(str, stats["seeds"])),
         "--budget", "300", "--out-dir", d],
        ["centrality", "--edges", edges, "--out", table],
        ["rank", "--table", table, "--labels", labels, "--out-dir", d],
        ["evaluate", "--table", table, "--labels", labels,
         "--seed", str(derive_seed(7, "evaluate")), "--out", f"{d}/cv_report.csv"],
        ["communities", "--edges", edges, "--profiles", profiles,
         "--out-partition", f"{d}/communities.csv",
         "--out-report", f"{d}/community_report.csv"],
    ]
    for argv in chain:
        assert cli.main(argv) == 0, argv
    trailer = f"# config: {result.config_hash}\n".encode()
    shared = GENERATE_ARTIFACTS - {"anonymized_graph.txt", "report.txt", "manifest.json"}
    assert len(shared) == 12
    for name in sorted(shared):
        piped = (result.out_dir / name).read_bytes()
        if name.endswith(".json"):
            payload = json.loads(piped)
            assert payload.pop("_config_hash") == result.config_hash
            expected = (stable_json(payload) + "\n").encode()
        else:
            assert piped.endswith(trailer), name
            expected = piped[: -len(trailer)]
        assert (tmp_path / name).read_bytes() == expected, name


def test_cli_communities_writes_partition_and_report(world_files, tmp_path, capsys):
    part = tmp_path / "partition.csv"
    report = tmp_path / "report.csv"
    rc = cli.main(
        [
            "communities",
            "--edges",
            str(world_files["edges"]),
            "--profiles",
            str(world_files["profiles"]),
            "--out-partition",
            str(part),
            "--out-report",
            str(report),
        ]
    )
    assert rc == 0
    assert part.read_text().splitlines()[0] == "node,community"
    assert report.read_text().splitlines()[0].startswith("community,size")
    assert "communities:" in capsys.readouterr().out


def test_cli_communities_counts_classified_positions_with_given_rules(
    world_files, tmp_path
):
    rules = tmp_path / "rules.json"
    rules.write_text(
        json.dumps({"rules": [{"category": "Nobody", "keywords": ["no such title"]}]})
    )
    report = tmp_path / "report.csv"
    args = ["communities", "--edges", str(world_files["edges"])]
    args += ["--profiles", str(world_files["profiles"])]
    args += ["--out-partition", str(tmp_path / "partition.csv")]
    args += ["--out-report", str(report)]
    assert cli.main(args + ["--rules", str(rules)]) == 0
    rows = [ln.split(",") for ln in report.read_text().splitlines()[1:]]
    assert sum(int(r[3]) for r in rows) > 0  # positions are disclosed
    assert all(int(r[4]) == 0 for r in rows)  # and the custom table classifies none
    assert cli.main(args) == 0
    rows = [ln.split(",") for ln in report.read_text().splitlines()[1:]]
    assert sum(int(r[4]) for r in rows) > 0  # the bundled table does


def test_cli_communities_quotes_a_category_that_holds_a_comma(world_files, tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{"category": "Staff, all", "keywords": ["a"]}]}))
    report = tmp_path / "report.csv"
    args = ["communities", "--edges", str(world_files["edges"])]
    args += ["--profiles", str(world_files["profiles"]), "--rules", str(rules)]
    args += ["--out-partition", str(tmp_path / "partition.csv"), "--out-report", str(report)]
    assert cli.main(args) == 0
    with open(report, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    descriptions = {row[-1] for row in rows}
    assert {"Staff, all / east", "Staff, all / west"} <= descriptions


@pytest.mark.parametrize("case", MALFORMED_RULES)
def test_cli_communities_rejects_a_malformed_rule_table(world_files, tmp_path, capsys, case):
    table, message = MALFORMED_RULES[case]
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(table))
    partition = tmp_path / "partition.csv"
    args = ["communities", "--edges", str(world_files["edges"]), "--rules", str(rules)]
    args += ["--out-partition", str(partition), "--out-report", str(tmp_path / "report.csv")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not partition.exists()


def test_cli_communities_failing_write_keeps_the_old_partition(
    world_files, tmp_path, monkeypatch, capsys
):
    part = tmp_path / "partition.csv"
    part.write_bytes(b"node,community\n1,0\n")
    monkeypatch.setattr(type(part), "write_bytes", write_half_then_fail)
    args = ["communities", "--edges", str(world_files["edges"])]
    args += ["--out-partition", str(part), "--out-report", str(tmp_path / "r.csv")]
    assert cli.main(args) == 1
    assert "disk full" in capsys.readouterr().err
    assert part.read_bytes() == b"node,community\n1,0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["partition.csv"]


def test_cli_report_verifies_manifest(pipeline_run, tmp_path, capsys):
    _, result = pipeline_run
    rc = cli.main(["report", "--dir", str(result.out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run summary" in out
    assert "manifest: all artifact hashes verified" in out


def test_cli_report_fails_on_tampering(pipeline_run, tmp_path, capsys):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    (run / "communities.csv").write_bytes(b"node,community\n")
    rc = cli.main(["report", "--dir", str(run)])
    assert rc == 1
    assert "manifest problem: communities.csv: hash mismatch" in capsys.readouterr().err


_BAD_ARTIFACTS = "manifest.json: artifacts must map file names to hashes"


@pytest.mark.parametrize("edit, problem", [
    (lambda m: [m], "manifest.json: not an object"),
    (lambda m: {**m, "artifacts": sorted(m["artifacts"])}, _BAD_ARTIFACTS),
    (lambda m: {**m, "artifacts": {**m["artifacts"], "report.txt": 7}}, _BAD_ARTIFACTS),
], ids=["list", "artifact-list", "non-string-hash"])
def test_cli_report_names_a_malformed_manifest(pipeline_run, tmp_path, capsys, edit, problem):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    manifest = json.loads((run / "manifest.json").read_text())
    (run / "manifest.json").write_text(json.dumps(edit(manifest)))
    assert cli.main(["report", "--dir", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"manifest problem: {problem}"]


@pytest.mark.parametrize("name", ["absolute", "../outside.txt", ".."])
def test_cli_report_hashes_no_file_outside_the_run(pipeline_run, tmp_path, capsys, name):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"outside the run\n")
    name = str(outside) if name == "absolute" else name
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["artifacts"][name] = content_hash(outside.read_bytes())
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["report", "--dir", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"manifest problem: {name}: not a file name in the run directory"
    ]


def test_cli_report_names_the_line_of_a_manifest_that_is_not_utf8(pipeline_run, tmp_path, capsys):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    (run / "manifest.json").write_bytes(b'{"artifacts": "\xff"}\n')
    assert cli.main(["report", "--dir", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"manifest problem: manifest.json unreadable: {run / 'manifest.json'}:1: "
        "not UTF-8: invalid start byte at column 16"
    ]


def test_cli_report_names_the_line_of_a_report_that_is_not_utf8(pipeline_run, tmp_path, capsys):
    _, result = pipeline_run
    run = _copy_run(result, tmp_path)
    (run / "report.txt").write_bytes(b"run summary\n\xff\n")
    assert cli.main(["report", "--dir", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {run / 'report.txt'}:2: not UTF-8: invalid start byte at column 1"
    ]


def test_cli_export_anonymized_with_communities(world_files, tmp_path):
    part = tmp_path / "partition.csv"
    rc = cli.main(
        [
            "communities",
            "--edges",
            str(world_files["edges"]),
            "--out-partition",
            str(part),
            "--out-report",
            str(tmp_path / "r.csv"),
        ]
    )
    assert rc == 0
    out = tmp_path / "anon.graphml"
    rc = cli.main(
        [
            "export",
            "--edges",
            str(world_files["edges"]),
            "--profiles",
            str(world_files["profiles"]),
            "--format",
            "graphml",
            "--anonymize",
            "--retain-labels",
            "--communities",
            str(part),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "community" in text
    # anonymized export keeps structure but must not leak profile text
    assert "acme" not in text.lower()


@pytest.mark.parametrize("anonymize", [[], ["--anonymize"]], ids=["plain", "anonymized"])
@pytest.mark.parametrize("rows, problem", [
    ("1,0\n3,x\n", ":3: community must be an integer, got 'x'"),
    ("1,0\n99,1\n", ": node 99 is not in the graph"),
    ("1,0\n2,0\n1,1\n", ":4: duplicate label row for 1"),
    ("1,0\n2,\n", ": node 2 has no community"),
], ids=["bad-cell", "unknown-node", "repeated-node", "empty-community"])
def test_cli_export_rejects_a_malformed_partition(tmp_path, capsys, rows, problem, anonymize):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n2 3\n3 4\n")
    part = tmp_path / "partition.csv"
    part.write_text("node,community\n" + rows)
    out = tmp_path / "graph.csv"
    rc = cli.main(["export", "--edges", str(edges), "--format", "csv",
                   "--communities", str(part), "--out", str(out), *anonymize])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {part}{problem}"]
    assert not out.exists()


def test_cli_pipeline_with_config_file_and_overrides(world_files, tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "world_spec": str(world_files["spec"]),
                "master_seed": 3,
                "crawl": {"max_fetches": 400},
            }
        )
    )
    monkeypatch.setenv("ORGMINER_OUT", str(tmp_path))
    rc = cli.main(["pipeline", "--config", str(config), "--budget", "120"])
    assert rc == 0
    out_dir = tmp_path / "pipeline-out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["crawl"]["max_fetches"] == 120
    assert "pipeline complete: 15 artifacts" in capsys.readouterr().out


def test_cli_pipeline_without_source_fails(tmp_path, capsys):
    rc = cli.main(["pipeline", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"world_spec": "x.json", "crawl": {"seeds": 5}}, "crawl setting 'seeds' must be tuple[int, ...], got 5"),
    ({"world_spec": "x.json", "crawl": None}, "crawl settings must be an object, got None"),
    ([1, 2], "a pipeline config must be a JSON object"),
])
@pytest.mark.parametrize("flags", [[], ["--budget", "10"]])
def test_cli_pipeline_rejects_a_config_of_the_wrong_shape(tmp_path, capsys, config, message, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "o"), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, prefix", [
    (["pipeline", "--config", "{bad}"], ""),
    (["pipeline", "--spec", "{bad}"], "stage 'generate' failed: "),
    (["generate", "--spec", "{bad}"], ""),
    (["communities", "--edges", "{edges}", "--rules", "{bad}",
      "--out-partition", "{out}/p.csv", "--out-report", "{out}/r.csv"], ""),
], ids=["pipeline-config", "pipeline-spec", "generate-spec", "communities-rules"])
def test_cli_names_a_json_input_that_does_not_parse(world_files, tmp_path, capsys, args, prefix):
    bad = tmp_path / "bad.json"
    bad.write_text('{"orgs": [\n  oops]}\n')
    out = tmp_path / "out"
    args = [a.format(bad=bad, edges=world_files["edges"], out=out) for a in args]
    if args[0] != "communities":
        args += ["--out-dir", str(out)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {prefix}{bad}:2: bad JSON: Expecting value at column 3"]
    if args[0] != "pipeline":
        assert not out.exists()


def test_cli_reports_missing_files_as_errors(tmp_path, capsys):
    rc = cli.main(
        ["centrality", "--edges", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_unknown_classifier(world_files, world_table, tmp_path, capsys):
    rc = cli.main(
        [
            "evaluate",
            "--table",
            str(world_table),
            "--labels",
            str(world_files["labels"]),
            "--classifiers",
            "svm",
            "--out",
            str(tmp_path / "cv.csv"),
        ]
    )
    assert rc == 1
    assert "unknown classifier" in capsys.readouterr().err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
