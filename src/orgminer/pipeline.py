"""End-to-end orchestration: world, crawl, analysis, reports, manifest.

A pipeline run takes exactly one input source, a synthetic world spec
or an imported edge list (optionally with labels), and produces a flat
artifact directory:

    world_edges.txt / world_profiles.jsonl / world_labels.csv  (synthetic)
    graph_edges.txt                                            (imported)
    crawled_edges.txt, crawled_profiles.jsonl, crawl_stats.json
    centrality.csv
    ranking_report.csv, hidden_managers.csv, cv_report.csv     (labeled)
    communities.csv, community_report.csv
    anonymized_graph.<ext>
    report.txt
    manifest.json

All randomness fans out from one master seed by hashing stage names, so
a config plus a seed reproduces every byte.  Artifacts never embed the
output directory or wall-clock time; rerunning the same config into a
different directory yields identical files.  Text artifacts carry the
config hash in a trailing comment, JSON ones in a `_config_hash` key,
and the manifest records a sha256 per artifact, so any tampering is
detectable from the manifest alone.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy

from . import __version__
from .centrality import CentralityConfig, centrality_table
from .classifiers import CLASSIFIER_NAMES
from .community import (
    community_report,
    detect_communities,
    infer_roles,
    partition_table_bytes,
    report_table_bytes,
)
from .crawler import CrawlConfig, crawl
from .graph import (
    EXPORT_FORMATS,
    LabelRow,
    SocialGraph,
    anonymize,
    edge_list_bytes,
    export_graph,
    labels_to_csv_bytes,
    load_graph,
    load_labels,
    profiles_to_jsonl_bytes,
)
from .leadership import (
    classifier_table_bytes,
    evaluate,
    hidden_table_bytes,
    precision_table_bytes,
)
from .synthworld import WorldSpec, generate_world
from .utils import content_hash, derive_seed, stable_json, write_bytes_atomic

_EXPORT_EXTENSIONS = {
    "edge-list": "txt",
    "graphml": "graphml",
    "dot": "dot",
    "csv": "csv",
}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CrawlSettings:
    version: str = "v1"
    window_size: int = 1000
    max_fetches: int | None = None
    concurrency_width: int = 1
    seed_count: int = 3
    seeds: tuple[int, ...] = ()
    keywords: tuple[str, ...] = ()
    target_org: int = 0
    seed_priority: int = 1

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "keywords", tuple(self.keywords))

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "window_size": self.window_size,
            "max_fetches": self.max_fetches,
            "concurrency_width": self.concurrency_width,
            "seed_count": self.seed_count,
            "seeds": list(self.seeds),
            "keywords": list(self.keywords),
            "target_org": self.target_org,
            "seed_priority": self.seed_priority,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CrawlSettings":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown crawl settings: {sorted(unknown)}")
        return cls(**known)


@dataclass(frozen=True)
class AnalysisSettings:
    classifiers: tuple[str, ...] = CLASSIFIER_NAMES
    folds: int = 10
    ks: tuple[int, ...] = (10, 20)
    hidden_k: int = 20
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        object.__setattr__(self, "ks", tuple(self.ks))

    def to_dict(self) -> dict:
        return {
            "classifiers": list(self.classifiers),
            "folds": self.folds,
            "ks": list(self.ks),
            "hidden_k": self.hidden_k,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "AnalysisSettings":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown analysis settings: {sorted(unknown)}")
        return cls(**known)


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str
    world_spec: str | None = None
    import_edges: str | None = None
    import_labels: str | None = None
    master_seed: int = 0
    crawl: CrawlSettings = field(default_factory=CrawlSettings)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    export_format: str = "edge-list"

    def __post_init__(self):
        sources = [s for s in (self.world_spec, self.import_edges) if s]
        if len(sources) != 1:
            raise ConfigError(
                "exactly one input source required: world_spec or import_edges"
            )
        if self.import_labels and not self.import_edges:
            raise ConfigError("import_labels only makes sense with import_edges")
        if self.export_format not in EXPORT_FORMATS:
            raise ConfigError(
                f"export_format must be one of {EXPORT_FORMATS}, "
                f"got {self.export_format!r}"
            )

    def to_dict(self) -> dict:
        return {
            "out_dir": self.out_dir,
            "world_spec": self.world_spec,
            "import_edges": self.import_edges,
            "import_labels": self.import_labels,
            "master_seed": self.master_seed,
            "crawl": self.crawl.to_dict(),
            "analysis": self.analysis.to_dict(),
            "export_format": self.export_format,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PipelineConfig":
        data = dict(d)
        crawl_settings = CrawlSettings.from_dict(data.pop("crawl", {}))
        analysis = AnalysisSettings.from_dict(data.pop("analysis", {}))
        unknown = set(data) - {
            "out_dir",
            "world_spec",
            "import_edges",
            "import_labels",
            "master_seed",
            "export_format",
        }
        if unknown:
            raise ConfigError(f"unknown pipeline settings: {sorted(unknown)}")
        if "out_dir" not in data:
            raise ConfigError("out_dir is required")
        return cls(crawl=crawl_settings, analysis=analysis, **data)

    def config_hash(self) -> str:
        # out_dir excluded so identical runs into different directories
        # produce identical artifact bytes
        d = self.to_dict()
        del d["out_dir"]
        return content_hash(stable_json(d).encode("utf-8"))


def import_dataset(
    edge_path: str | Path, label_path: str | Path | None = None
) -> tuple[SocialGraph, dict[int, LabelRow] | None]:
    """Load an external edge list, optionally with a label table."""
    g = load_graph(edge_path)
    if label_path is None:
        return g, None
    rows = load_labels(label_path)
    unknown = sorted(v for v in rows if not g.has_node(v))
    if unknown:
        raise ConfigError(f"labels reference unknown nodes: {unknown[:5]}")
    return g, rows


@dataclass
class PipelineResult:
    out_dir: Path
    artifacts: dict[str, str]
    notices: tuple[str, ...]
    config_hash: str


def _csv_footer(body: bytes, config_hash: str) -> bytes:
    return body + f"# config: {config_hash}\n".encode("utf-8")


def _json_payload(obj: dict, config_hash: str) -> bytes:
    payload = dict(obj)
    payload["_config_hash"] = config_hash
    return (stable_json(payload) + "\n").encode("utf-8")


Echo = Callable[[str], None] | None


def run_pipeline(cfg: PipelineConfig, echo: Echo = None) -> PipelineResult:
    """Run every applicable stage, writing artifacts as they complete.

    A stage failure raises PipelineError naming the stage; artifacts
    from earlier stages stay on disk.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()
    artifacts: dict[str, str] = {}
    notices: list[str] = []
    stage_seeds = {
        name: derive_seed(cfg.master_seed, name)
        for name in ("world", "crawl-seeds", "evaluate", "anonymize")
    }

    def note(msg: str) -> None:
        notices.append(msg)
        if echo is not None:
            echo(msg)

    def emit(name: str, data: bytes) -> None:
        write_bytes_atomic(out / name, data)
        artifacts[name] = content_hash(data)

    def run_stage(name: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, exc) from exc

    world = None
    graph: SocialGraph | None = None
    manager_labels: dict[int, bool] | None = None
    disclosure: dict[int, bool] | None = None
    crawl_stats: dict | None = None

    if cfg.world_spec is not None:

        def stage_generate() -> None:
            nonlocal world, manager_labels, disclosure
            spec = WorldSpec.from_json_file(cfg.world_spec)
            # the master seed overrides the world file's own seed so one
            # number reproduces the entire run
            spec = replace(spec, rng_seed=stage_seeds["world"])
            world = generate_world(spec)
            emit("world_edges.txt", _csv_footer(edge_list_bytes(world.graph), chash))
            emit(
                "world_profiles.jsonl",
                _csv_footer(profiles_to_jsonl_bytes(world.graph.profiles), chash),
            )
            emit(
                "world_labels.csv",
                _csv_footer(labels_to_csv_bytes(world.truth.label_rows()), chash),
            )
            manager_labels = {
                v: (v in world.truth.managers) for v in world.truth.all_members()
            }
            disclosure = dict(world.truth.disclosure)

        def stage_crawl() -> None:
            nonlocal graph, crawl_stats
            assert world is not None
            if not 0 <= cfg.crawl.target_org < len(world.spec.orgs):
                raise ConfigError(f"target_org {cfg.crawl.target_org} out of range")
            members = world.truth.members[cfg.crawl.target_org]
            if cfg.crawl.seeds:
                seeds = cfg.crawl.seeds
                outside = [s for s in seeds if s not in members]
                if outside:
                    note(f"crawl seeds outside target org: {outside}")
            else:
                rng = np.random.default_rng(stage_seeds["crawl-seeds"])
                count = min(cfg.crawl.seed_count, len(members))
                seeds = tuple(
                    int(v)
                    for v in sorted(rng.choice(members, size=count, replace=False))
                )
            keywords = cfg.crawl.keywords
            if not keywords:
                keywords = world.spec.orgs[cfg.crawl.target_org].name_keywords
            crawl_cfg = CrawlConfig(
                seeds=seeds,
                keywords=keywords,
                version=cfg.crawl.version,
                window_size=cfg.crawl.window_size,
                max_fetches=cfg.crawl.max_fetches,
                concurrency_width=cfg.crawl.concurrency_width,
                seed_priority=cfg.crawl.seed_priority,
            )
            result = crawl(world.fresh_source(), crawl_cfg)
            graph = result.graph
            emit("crawled_edges.txt", _csv_footer(edge_list_bytes(graph), chash))
            emit(
                "crawled_profiles.jsonl",
                _csv_footer(profiles_to_jsonl_bytes(graph.profiles), chash),
            )
            crawl_stats = {
                **result.stats.to_dict(),
                "seeds": list(seeds),
                "keywords": list(keywords),
            }
            emit("crawl_stats.json", _json_payload(crawl_stats, chash))

        run_stage("generate", stage_generate)
        run_stage("crawl", stage_crawl)
    else:

        def stage_import() -> None:
            nonlocal graph, manager_labels, disclosure
            g, rows = import_dataset(cfg.import_edges, cfg.import_labels)
            graph = g
            emit("graph_edges.txt", _csv_footer(edge_list_bytes(g), chash))
            if rows is None:
                note("no labels provided; skipping supervised stages")
            else:
                manager_labels = {v: r.is_manager for v, r in rows.items()}
                disclosure = {v: r.discloses_position for v, r in rows.items()}

        run_stage("import", stage_import)

    assert graph is not None
    table = None

    def stage_centrality() -> None:
        nonlocal table
        config = CentralityConfig(
            tol=cfg.analysis.tol, max_iter=cfg.analysis.max_iter
        )
        table = centrality_table(graph, config)
        emit("centrality.csv", _csv_footer(table.to_csv_bytes(), chash))

    run_stage("centrality", stage_centrality)

    supervised = manager_labels is not None and all(
        v in manager_labels for v in graph.nodes
    )
    if manager_labels is not None and not supervised:
        note("labels do not cover every analyzed node; skipping supervised stages")

    eval_report = None
    if supervised:

        def stage_evaluate() -> None:
            nonlocal eval_report
            assert table is not None and manager_labels is not None
            eval_report = evaluate(
                table,
                manager_labels,
                disclosure or {},
                kinds=cfg.analysis.classifiers,
                folds=cfg.analysis.folds,
                seed=stage_seeds["evaluate"],
                ks=cfg.analysis.ks,
                hidden_k=cfg.analysis.hidden_k,
            )
            emit(
                "ranking_report.csv",
                _csv_footer(precision_table_bytes(eval_report.precision), chash),
            )
            emit(
                "hidden_managers.csv",
                _csv_footer(hidden_table_bytes(eval_report.hidden), chash),
            )
            emit(
                "cv_report.csv",
                _csv_footer(classifier_table_bytes(eval_report.classifier_rows), chash),
            )

        run_stage("evaluate", stage_evaluate)

    partition = None
    report_rows = None

    def stage_communities() -> None:
        nonlocal partition, report_rows
        partition = detect_communities(graph)
        roles = infer_roles(graph, partition, manager_labels)
        report_rows = community_report(graph, partition, roles)
        emit("communities.csv", _csv_footer(partition_table_bytes(partition), chash))
        emit(
            "community_report.csv",
            _csv_footer(report_table_bytes(report_rows), chash),
        )

    run_stage("communities", stage_communities)

    def stage_export() -> None:
        assert partition is not None
        anon, id_map = anonymize(graph, seed=stage_seeds["anonymize"])
        communities = {
            id_map[v]: c for v, c in partition.assignment.items()
        }
        payload = export_graph(anon, cfg.export_format, communities=communities)
        ext = _EXPORT_EXTENSIONS[cfg.export_format]
        name = f"anonymized_graph.{ext}"
        if cfg.export_format in ("edge-list", "csv"):
            payload = _csv_footer(payload, chash)
        emit(name, payload)

    run_stage("export", stage_export)

    def stage_report() -> None:
        lines = ["run summary", f"config: {chash}", ""]
        if world is not None:
            lines.append(
                f"world: {world.graph.num_nodes} nodes, "
                f"{world.graph.num_edges} edges, {len(world.spec.orgs)} org(s)"
            )
        if crawl_stats is not None:
            lines.append(
                "crawl: fetched {fetched}, confirmed {confirmed}, "
                "not found {not_found}, precision {precision:.4f}, "
                "stopped by {stop_reason}".format(**crawl_stats)
            )
        assert graph is not None
        lines.append(
            f"analyzed graph: {graph.num_nodes} nodes, {graph.num_edges} edges"
        )
        if eval_report is not None:
            for measure, per_k in eval_report.precision.items():
                cells = ", ".join(f"p@{k}={v:.3f}" for k, v in sorted(per_k.items()))
                lines.append(f"precision {measure}: {cells}")
            hidden = eval_report.hidden
            lines.append(
                f"hidden managers ({hidden.measure} top-{hidden.k}): "
                f"{hidden.hidden_count} of {hidden.managers_in_top_k}"
            )
            best = max(eval_report.classifier_rows, key=lambda r: r.auc)
            lines.append(
                f"best classifier by AUC: {best.classifier} "
                f"(acc {best.accuracy:.2f}%, f1 {best.f1:.3f}, auc {best.auc:.3f})"
            )
        assert partition is not None
        lines.append(f"communities: {len(partition)} at Q={partition.q:.4f}")
        for msg in notices:
            lines.append(f"notice: {msg}")
        body = ("\n".join(lines) + "\n").encode("utf-8")
        emit("report.txt", _csv_footer(body, chash))

    run_stage("report", stage_report)

    def stage_manifest() -> None:
        manifest = {
            "format_version": 1,
            "config_hash": chash,
            "config": {k: v for k, v in cfg.to_dict().items() if k != "out_dir"},
            "master_seed": cfg.master_seed,
            "stage_seeds": stage_seeds,
            "artifacts": dict(sorted(artifacts.items())),
            "notices": list(notices),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "orgminer": __version__,
            },
        }
        emit("manifest.json", (stable_json(manifest) + "\n").encode("utf-8"))

    run_stage("manifest", stage_manifest)

    return PipelineResult(
        out_dir=out,
        artifacts=dict(artifacts),
        notices=tuple(notices),
        config_hash=chash,
    )


def verify_manifest(out_dir: str | Path) -> list[str]:
    """Re-hash every artifact against the manifest; return mismatches."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    problems: list[str] = []
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return ["manifest.json missing"]
    except json.JSONDecodeError as exc:
        return [f"manifest.json unreadable: {exc}"]
    recorded = manifest.get("artifacts", {})
    for name, expected in sorted(recorded.items()):
        if name == "manifest.json":
            continue
        path = out / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        actual = content_hash(path.read_bytes())
        if actual != expected:
            problems.append(f"{name}: hash mismatch")
    return problems
