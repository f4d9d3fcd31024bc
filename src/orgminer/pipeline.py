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

A JSON config with an unknown or missing key or a mistyped value is a
ConfigError.  All randomness fans out from one master seed by hashing
stage names, so a config plus a seed reproduces every byte.  Artifacts
never embed the output directory or wall-clock time; rerunning the same
config into a different directory yields identical files.  The
manifest records a sha256 per artifact, so any tampering is detectable
from the manifest alone.

Each stage's files come from one function here, which the matching CLI
subcommand shares, and `write_artifacts` alone writes them.  Given the
config hash, as every file but the manifest is here, it adds a
`_config_hash` key to a JSON file, nothing to a .graphml or .dot file,
and a `# config: <hash>` last line to any other; the CLI gives no hash.

Once the graph exists its two analyses are independent, so where
`_two_lanes` holds, community detection and then the random forest's
cross-validation each run in a forked helper process beside the
centrality table and the other classifiers (`_helper`). This process
joins each job in its own stage and writes every file, so the bytes are
those of a run in one process.
"""

from __future__ import annotations

import os
import platform
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .centrality import CentralityConfig, centrality_table
from .classifiers import CLASSIFIER_NAMES
from .community import (
    Partition,
    RoleRule,
    community_report,
    detect_communities,
    infer_roles,
    partition_table_bytes,
    report_table_bytes,
)
from .crawler import CrawlConfig, CrawlResult, crawl
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
    HiddenManagerReport,
    classifier_table_bytes,
    evaluate,
    hidden_table_bytes,
    precision_table_bytes,
)
from .synthworld import World, WorldSpec, generate_world
from .utils import (
    content_hash,
    decode_dataclass,
    derive_seed,
    read_json,
    stable_json,
    write_bytes_atomic,
)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CrawlSettings:
    version: str = CrawlConfig.version
    window_size: int = CrawlConfig.window_size
    max_fetches: int | None = CrawlConfig.max_fetches
    concurrency_width: int = CrawlConfig.concurrency_width
    seed_count: int = 3
    seeds: tuple[int, ...] = ()
    keywords: tuple[str, ...] = ()
    target_org: int = 0
    seed_priority: int = CrawlConfig.seed_priority

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "keywords", tuple(self.keywords))


@dataclass(frozen=True)
class AnalysisSettings:
    classifiers: tuple[str, ...] = CLASSIFIER_NAMES
    folds: int = 10
    ks: tuple[int, ...] = (10, 20)
    hidden_k: int = 20
    tol: float = CentralityConfig.tol
    max_iter: int = CentralityConfig.max_iter

    def __post_init__(self):
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        object.__setattr__(self, "ks", tuple(self.ks))


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "PipelineConfig":
        """Strict decode by ``utils.decode_dataclass``; errors: ConfigError."""
        return decode_dataclass(cls, d, ConfigError, "pipeline")

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


# -- stage artifacts ----------------------------------------------------------------


def label_maps(
    rows: Mapping[int, LabelRow],
) -> tuple[dict[int, bool], dict[int, bool]]:
    """Manager and disclosure labels of a parsed label table."""
    managers = {v: r.is_manager for v, r in rows.items()}
    disclosure = {v: r.discloses_position for v, r in rows.items()}
    return managers, disclosure


def world_artifacts(world: World) -> dict[str, bytes]:
    return {
        "world_edges.txt": edge_list_bytes(world.graph),
        "world_profiles.jsonl": profiles_to_jsonl_bytes(world.graph.profiles),
        "world_labels.csv": labels_to_csv_bytes(world.truth.label_rows()),
    }


def crawl_artifacts(result: CrawlResult) -> dict[str, bytes | dict]:
    config = result.state.config
    seeds, keywords = list(config.seeds), list(config.keywords)
    return {
        "crawled_edges.txt": edge_list_bytes(result.graph),
        "crawled_profiles.jsonl": profiles_to_jsonl_bytes(result.graph.profiles),
        "crawl_stats.json": {**result.stats.to_dict(), "seeds": seeds, "keywords": keywords},
    }


def ranking_artifacts(
    precision: Mapping[str, Mapping[int, float]], hidden: HiddenManagerReport
) -> dict[str, bytes]:
    return {
        "ranking_report.csv": precision_table_bytes(precision),
        "hidden_managers.csv": hidden_table_bytes(hidden),
    }


def community_artifacts(
    graph: SocialGraph, rules: Sequence[RoleRule] | None = None
) -> tuple[Partition, dict[str, bytes]]:
    return _community_files(graph, detect_communities(graph), rules)


def _community_files(
    graph: SocialGraph, partition: Partition, rules: Sequence[RoleRule] | None = None
) -> tuple[Partition, dict[str, bytes]]:
    """``community_artifacts`` for a partition detected already."""
    rows = community_report(infer_roles(graph, partition, rules))
    return partition, {
        "communities.csv": partition_table_bytes(partition),
        "community_report.csv": report_table_bytes(rows),
    }


# -- the run ------------------------------------------------------------------------


@contextmanager
def _stage(name: str):
    """Report any failure inside the block as PipelineError naming `name`."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _two_lanes() -> bool:
    """Whether a forked helper process can run beside this one: at least
    two CPUs to run on, fork to start it with, and no other Python thread,
    whose held locks the helper would inherit with no thread to free them."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    import multiprocessing  # here, not at the top: the crawl path never needs it
    import threading

    return threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


_held = None  # in a helper process: the job it was forked to run


def _hold(fn, args) -> None:
    global _held
    _held = fn, args


def _run_held():
    fn, args = _held
    return fn(*args)


@contextmanager
def _helper():
    """Yield ``submit(fn, *args)``, which returns a call that gives
    ``fn(*args)`` or raises its error.

    With two lanes, each job starts at once in a forked helper process of
    its own. A job submitted while an earlier one runs first waits for it,
    so at most one helper runs and every fork copies a process of one
    thread. Elsewhere, where the fork fails, and where a caller has wrapped
    ``fn`` (``functools.wraps`` marks the wrapper with ``__wrapped__``),
    ``fn`` runs inline when its value is asked for: a wrapper that times or
    counts calls keeps its records in this process, and the helper's copy
    of them would be lost. A helper that dies fails its own job, and only
    that one, with BrokenProcessPool. Leaving the block waits for the job
    in flight and ends its helper.
    """
    if not _two_lanes():
        yield partial
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned helper would first import numpy, scipy and
    # the analysis modules again, about 0.25 s, as long as both jobs
    fork = multiprocessing.get_context("fork")
    pools = []

    def submit(fn, *args):
        if hasattr(fn, "__wrapped__"):
            return partial(fn, *args)
        if pools:
            pools[-1].shutdown()
        # the job reaches the helper in fork's copy of this process, not
        # through pickle, so any callable will do; only its value is pickled
        pools.append(
            ProcessPoolExecutor(1, mp_context=fork, initializer=_hold, initargs=(fn, args))
        )
        try:
            return pools[-1].submit(_run_held).result
        except OSError:  # the fork failed, so there is no helper to run it
            return partial(fn, *args)

    try:
        yield submit
    finally:
        for pool in pools:
            pool.shutdown()


def _forest_elsewhere(submit, fn, kind, *args):
    """``evaluate``'s submit: the random forest's cross-validation, the
    slowest kind's by far, goes to ``submit``; every other kind runs inline."""
    return (submit if kind == "random-forest" else partial)(fn, kind, *args)


def write_artifacts(
    out: Path, files: Mapping[str, bytes | dict], chash: str | None = None
) -> dict[str, str]:
    """Write each file into `out`, whole or not at all, a dict as stable
    JSON, stamped with `chash` as the module docstring says; return their
    hashes."""
    out.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, data in files.items():
        if isinstance(data, dict):
            if chash is not None:
                data = {**data, "_config_hash": chash}
            data = (stable_json(data) + "\n").encode("utf-8")
        elif chash is not None and not name.endswith((".graphml", ".dot")):
            data += f"# config: {chash}\n".encode("utf-8")
        write_bytes_atomic(out / name, data)
        hashes[name] = content_hash(data)
    return hashes


Echo = Callable[[str], None] | None


def _note(notices: list[str], echo: Echo, msg: str) -> None:
    notices.append(msg)
    if echo is not None:
        echo(msg)


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
    world = None
    crawl_stats: dict | None = None
    manager_labels: dict[int, bool] | None = None
    disclosure: dict[int, bool] | None = None

    if cfg.world_spec is not None:
        with _stage("generate"):
            spec = WorldSpec.from_json_file(cfg.world_spec)
            # the master seed overrides the world file's own seed so one
            # number reproduces the entire run
            spec = replace(spec, rng_seed=stage_seeds["world"])
            world = generate_world(spec)
            artifacts |= write_artifacts(out, world_artifacts(world), chash)
            rows = {r.node: r for r in world.truth.label_rows() if r.is_org_member}
            manager_labels, disclosure = label_maps(rows)

        with _stage("crawl"):
            if not 0 <= cfg.crawl.target_org < len(world.spec.orgs):
                raise ConfigError(f"target_org {cfg.crawl.target_org} out of range")
            members = world.truth.members[cfg.crawl.target_org]
            if cfg.crawl.seeds:
                seeds = cfg.crawl.seeds
                outside = [s for s in seeds if s not in members]
                if outside:
                    _note(notices, echo, f"crawl seeds outside target org: {outside}")
            else:
                rng = np.random.default_rng(stage_seeds["crawl-seeds"])
                count = min(cfg.crawl.seed_count, len(members))
                seeds = tuple(
                    int(v)
                    for v in sorted(rng.choice(members, size=count, replace=False))
                )
            keywords = cfg.crawl.keywords or world.spec.orgs[cfg.crawl.target_org].name_keywords
            settings = {f.name: getattr(cfg.crawl, f.name) for f in fields(CrawlConfig)}
            crawl_cfg = CrawlConfig(**{**settings, "seeds": seeds, "keywords": keywords})
            result = crawl(world.fresh_source(), crawl_cfg)
            artifacts |= write_artifacts(out, crawl_artifacts(result), chash)
            graph, crawl_stats = result.graph, result.stats.to_dict()
            del result  # the crawl state is not needed past this stage
    else:
        with _stage("import"):
            graph, rows = import_dataset(cfg.import_edges, cfg.import_labels)
            artifacts |= write_artifacts(out, {"graph_edges.txt": edge_list_bytes(graph)}, chash)
            if rows is None:
                _note(notices, echo, "no labels provided; skipping supervised stages")
            else:
                manager_labels, disclosure = label_maps(rows)

    with _helper() as submit:
        detection = submit(detect_communities, graph)

        with _stage("centrality"):
            config = CentralityConfig(tol=cfg.analysis.tol, max_iter=cfg.analysis.max_iter)
            table = centrality_table(graph, config)
            artifacts |= write_artifacts(out, {"centrality.csv": table.to_csv_bytes()}, chash)

        supervised = manager_labels is not None and all(
            v in manager_labels for v in graph.nodes
        )
        if manager_labels is not None and not supervised:
            msg = "labels do not cover every analyzed node; skipping supervised stages"
            _note(notices, echo, msg)

        eval_report = None
        if supervised:
            with _stage("evaluate"):
                eval_report = evaluate(
                    table,
                    manager_labels,
                    disclosure,
                    kinds=cfg.analysis.classifiers,
                    folds=cfg.analysis.folds,
                    seed=stage_seeds["evaluate"],
                    ks=cfg.analysis.ks,
                    hidden_k=cfg.analysis.hidden_k,
                    submit=partial(_forest_elsewhere, submit),
                )
                files = ranking_artifacts(eval_report.precision, eval_report.hidden)
                files["cv_report.csv"] = classifier_table_bytes(eval_report.classifier_rows)
                artifacts |= write_artifacts(out, files, chash)

        with _stage("communities"):
            partition, files = _community_files(graph, detection())
            artifacts |= write_artifacts(out, files, chash)

    with _stage("export"):
        anon, id_map = anonymize(graph, seed=stage_seeds["anonymize"])
        communities = {id_map[v]: c for v, c in partition.assignment.items()}
        payload = export_graph(anon, cfg.export_format, communities=communities)
        ext = "txt" if cfg.export_format == "edge-list" else cfg.export_format
        artifacts |= write_artifacts(out, {f"anonymized_graph.{ext}": payload}, chash)

    with _stage("report"):
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
        lines.append(f"communities: {len(partition)} at Q={partition.q:.4f}")
        lines += (f"notice: {msg}" for msg in notices)
        body = ("\n".join(lines) + "\n").encode("utf-8")
        artifacts |= write_artifacts(out, {"report.txt": body}, chash)

    with _stage("manifest"):
        import scipy  # here, not at the top: importing the CLI must not load scipy

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
        artifacts |= write_artifacts(out, {"manifest.json": manifest})

    return PipelineResult(
        out_dir=out,
        artifacts=dict(artifacts),
        notices=tuple(notices),
        config_hash=chash,
    )


def verify_manifest(out_dir: str | Path) -> list[str]:
    """Re-hash every artifact against the manifest; return mismatches. A
    manifest that is not UTF-8 JSON, not an object, or whose artifacts are
    not a map of plain file names to hashes is one problem naming why."""
    out = Path(out_dir)
    try:
        manifest = read_json(out / "manifest.json", ValueError)
    except FileNotFoundError:
        return ["manifest.json missing"]
    except ValueError as exc:
        return [f"manifest.json unreadable: {exc}"]
    if not isinstance(manifest, dict):
        return ["manifest.json: not an object"]
    recorded = manifest.get("artifacts", {})
    if not isinstance(recorded, dict) or not all(isinstance(h, str) for h in recorded.values()):
        return ["manifest.json: artifacts must map file names to hashes"]
    problems: list[str] = []
    for name, expected in sorted(recorded.items()):
        if name in ("", "..") or Path(name).name != name:
            problems.append(f"{name}: not a file name in the run directory")
            continue
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
