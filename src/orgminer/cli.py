"""Command-line front end.

One executable, subcommand per stage, plus `pipeline` to run everything
from a single config.  A stage subcommand writes the bytes of its
pipeline stage, minus the config trailer.  Every option of `pipeline`
can live in a JSON config file; command-line flags override file
values.  When an output location is omitted, the ORGMINER_OUT
environment variable (if set) supplies the root directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

from .centrality import MEASURES, CentralityConfig, CentralityTable, centrality_table
from .community import detect_communities, load_role_rules
from .crawler import CrawlConfig, CrawlError, bfs_crawl, crawl, resume, save_state
from .graph import (
    EXPORT_FORMATS,
    GraphError,
    GraphParseError,
    anonymize,
    edge_list_bytes,
    export_graph,
    load_graph,
    load_labels,
    profiles_to_jsonl_bytes,
    table_bytes,
)
from .leadership import classifier_table_bytes, cross_validate_all, ranking
from .pipeline import (
    AnalysisSettings,
    ConfigError,
    PipelineConfig,
    PipelineError,
    community_artifacts,
    crawl_artifacts,
    label_maps,
    ranking_artifacts,
    run_pipeline,
    verify_manifest,
    world_artifacts,
    write_artifacts,
)
from .synthworld import CensusRow, InMemorySource, WorldSpec, disclosure_census, generate_world
from .utils import content_hash, read_json, read_text, write_bytes_atomic


def _out_root(explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("ORGMINER_OUT")
    return Path(env) if env else Path(".")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _load_graph_args(args) -> "SocialGraph":
    return load_graph(args.edges, getattr(args, "profiles", None))


def _source_for(graph) -> InMemorySource:
    digest = content_hash(
        edge_list_bytes(graph) + profiles_to_jsonl_bytes(graph.profiles)
    )[:16]
    return InMemorySource(graph, digest)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = WorldSpec.from_json_file(args.spec)
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed)
    world = generate_world(spec)
    out = _out_root(args.out_dir)
    census = disclosure_census(world)
    header = [f.name for f in fields(CensusRow)] + ["disclosing_pct"]
    rows = ([*astuple(r), format(r.disclosing_pct, ".1f")] for r in (*census.rows, census.total))
    write_artifacts(out, {**world_artifacts(world), "census.csv": table_bytes(header, rows)})
    print(
        f"world: {world.graph.num_nodes} nodes, {world.graph.num_edges} edges "
        f"-> {out}"
    )
    return 0


def _cmd_crawl(args) -> int:
    graph = _load_graph_args(args)
    src = _source_for(graph)
    cfg = CrawlConfig(
        seeds=_int_list(args.seeds),
        keywords=_str_list(args.keywords),
        version=args.version,
        window_size=args.window,
        max_fetches=args.budget,
        concurrency_width=args.width,
    )
    state = None
    if args.resume:
        state = resume(args.resume, src)
    runner = bfs_crawl if args.strategy == "fifo" else crawl
    result = runner(src, cfg, state=state)
    out = _out_root(args.out_dir)
    write_artifacts(out, crawl_artifacts(result))
    stats = result.stats
    if args.save_state:
        save_state(result.state, args.save_state)
    print(
        f"crawl: fetched {stats.fetched}, confirmed {stats.confirmed}, "
        f"precision {stats.precision:.4f} ({stats.stop_reason}) -> {out}"
    )
    return 0


def _cmd_centrality(args) -> int:
    graph = _load_graph_args(args)
    config = CentralityConfig(tol=args.tol, max_iter=args.max_iter)
    measures = _str_list(args.measures) if args.measures != "all" else MEASURES
    table = centrality_table(graph, config, measures=measures)
    write_bytes_atomic(args.out, table.to_csv_bytes())
    failed = ", ".join(sorted(table.failures)) if table.failures else "none"
    print(f"centrality: {graph.num_nodes} nodes, failed measures: {failed}")
    return 0


def _cmd_rank(args) -> int:
    table = CentralityTable.from_csv_bytes(args.table)
    managers, disclosure = label_maps(load_labels(args.labels))
    precision, hidden = ranking(table, managers, disclosure, args.k, args.hidden_k)
    out = _out_root(args.out_dir)
    write_artifacts(out, ranking_artifacts(precision, hidden))
    for measure in sorted(precision):
        cells = ", ".join(f"p@{k}={v:.3f}" for k, v in sorted(precision[measure].items()))
        print(f"{measure}: {cells}")
    print(
        f"hidden managers in cl top-{hidden.k}: {hidden.hidden_count} "
        f"of {hidden.managers_in_top_k}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    table = CentralityTable.from_csv_bytes(args.table)
    managers, _ = label_maps(load_labels(args.labels))
    kinds = (AnalysisSettings.classifiers if args.classifiers == "all"
             else _str_list(args.classifiers))
    rows = cross_validate_all(table, managers, kinds, args.folds, args.seed)
    write_bytes_atomic(args.out, classifier_table_bytes(rows))
    for row in rows:
        print(
            f"{row.classifier}: acc {row.accuracy:.2f}%  f1 {row.f1:.3f}  "
            f"auc {row.auc:.3f}"
        )
    return 0


def _cmd_communities(args) -> int:
    graph = _load_graph_args(args)
    rules = load_role_rules(args.rules) if args.rules else None
    partition = detect_communities(graph)
    files = community_artifacts(graph, partition, rules)
    write_bytes_atomic(args.out_partition, files["communities.csv"])
    write_bytes_atomic(args.out_report, files["community_report.csv"])
    print(f"communities: {len(partition)} at Q={partition.q:.4f}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.dir)
    report = out / "report.txt"
    if report.exists():
        sys.stdout.write(read_text(report, GraphParseError)[1])
    problems = verify_manifest(out)
    if problems:
        for p in problems:
            print(f"manifest problem: {p}", file=sys.stderr)
        return 1
    print("manifest: all artifact hashes verified")
    return 0


def _cmd_export(args) -> int:
    graph = _load_graph_args(args)
    communities = None
    if args.communities:
        rows = load_labels(args.communities)
        for v, row in rows.items():
            if row.community is None:
                raise GraphError(f"{args.communities}: node {v} has no community")
            if not graph.has_node(v):
                raise GraphError(f"{args.communities}: node {v} is not in the graph")
        communities = {v: row.community for v, row in rows.items()}
    if args.anonymize:
        graph, id_map = anonymize(graph, seed=args.seed, retain_labels=args.retain_labels)
        if communities is not None:
            communities = {id_map[v]: c for v, c in communities.items()}
    payload = export_graph(graph, args.format, communities=communities)
    write_bytes_atomic(args.out, payload)
    print(f"export: {args.format} -> {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    data: dict = {}
    if args.config:
        data = read_json(args.config, ConfigError)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: a pipeline config must be a JSON object")
    crawl_over = {
        key: value
        for key, value in (
            ("max_fetches", args.budget),
            ("version", args.version),
            ("concurrency_width", args.width),
        )
        if value is not None
    }
    crawl = data.get("crawl", {})
    if crawl_over and isinstance(crawl, dict):  # any other section fails in from_dict
        data["crawl"] = {**crawl, **crawl_over}
    if args.spec is not None:
        data["world_spec"] = args.spec
    if args.import_edges is not None:
        data["import_edges"] = args.import_edges
    if args.import_labels is not None:
        data["import_labels"] = args.import_labels
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.export_format is not None:
        data["export_format"] = args.export_format
    if args.out_dir is not None:
        data["out_dir"] = args.out_dir
    elif "out_dir" not in data:
        data["out_dir"] = str(_out_root(None) / "pipeline-out")
    cfg = PipelineConfig.from_dict(data)
    result = run_pipeline(cfg, echo=print)
    print(f"pipeline complete: {len(result.artifacts)} artifacts in {result.out_dir}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orgminer",
        description="Mine organizational structure from social graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic world from a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("crawl", help="crawl a stored world's graph")
    p.add_argument("--edges", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--keywords", required=True, help="comma-separated")
    p.add_argument("--seeds", required=True, help="comma-separated node ids")
    p.add_argument("--version", choices=("v1", "v2"), default=CrawlConfig.version)
    p.add_argument("--window", type=int, default=CrawlConfig.window_size)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--width", type=int, default=CrawlConfig.concurrency_width)
    p.add_argument("--strategy", choices=("priority", "fifo"), default="priority")
    p.add_argument("--resume", default=None, help="crawl state file to continue")
    p.add_argument("--save-state", default=None, help="write final crawl state here")
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_crawl)

    p = sub.add_parser("centrality", help="compute the centrality table")
    p.add_argument("--edges", required=True)
    p.add_argument("--profiles")
    p.add_argument("--out", required=True)
    p.add_argument("--measures", default="all", help="comma-separated subset")
    p.add_argument("--tol", type=float, default=AnalysisSettings.tol)
    p.add_argument("--max-iter", type=int, default=AnalysisSettings.max_iter)
    p.set_defaults(fn=_cmd_centrality)

    p = sub.add_parser("rank", help="top-k precision and hidden-manager report")
    p.add_argument("--table", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=_int_list, default=AnalysisSettings.ks)
    p.add_argument("--hidden-k", type=int, default=AnalysisSettings.hidden_k)
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("evaluate", help="cross-validate the classifier suite")
    p.add_argument("--table", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--classifiers", default="all")
    p.add_argument("--folds", type=int, default=AnalysisSettings.folds)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("communities", help="detect communities and infer roles")
    p.add_argument("--edges", required=True)
    p.add_argument("--profiles")
    p.add_argument("--rules", help="alternative role-rule JSON file")
    p.add_argument("--out-partition", required=True)
    p.add_argument("--out-report", required=True)
    p.set_defaults(fn=_cmd_communities)

    p = sub.add_parser("report", help="print a run's report and verify its manifest")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("export", help="serialize a graph, optionally anonymized")
    p.add_argument("--edges", required=True)
    p.add_argument("--profiles")
    p.add_argument("--format", choices=EXPORT_FORMATS, default="edge-list")
    p.add_argument("--out", required=True)
    p.add_argument("--anonymize", action="store_true")
    p.add_argument("--retain-labels", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--communities", help="partition csv to embed")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("pipeline", help="run the whole flow from one config")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--spec")
    p.add_argument("--import-edges")
    p.add_argument("--import-labels")
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--version", choices=("v1", "v2"))
    p.add_argument("--width", type=int)
    p.add_argument("--export-format", choices=EXPORT_FORMATS)
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PipelineError, GraphError, CrawlError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
