"""Mining organizational structure from social graphs.

The package covers the full workflow: generate a synthetic world with
planted organizations, crawl it with a keyword-guided prioritized
frontier, score nodes with eight centrality measures, detect leadership
by ranking and by classification, split the graph into communities with
greedy modularity maximization, and export anonymized artifacts, all
reproducible from a single seed.

``import orgminer`` loads only the crawl path: ``utils``, ``graph``,
``synthworld`` and ``crawler``. The analysis modules (``centrality``,
``classifiers``, ``community``, ``leadership`` and ``pipeline``) and the
names they export load on first use, so a process that only generates,
crawls or exports a world never pays for them.
"""

__version__ = "0.1.0"

from .crawler import (
    CrawlConfig,
    CrawlError,
    CrawlResult,
    CrawlState,
    CrawlStats,
    StateError,
    bfs_crawl,
    crawl,
    resume,
    save_state,
)
from .graph import (
    EXPORT_FORMATS,
    GraphError,
    GraphParseError,
    LabelRow,
    Profile,
    SocialGraph,
    anonymize,
    edge_list_bytes,
    export_graph,
    labels_to_csv_bytes,
    load_graph,
    load_labels,
    load_profiles,
    parse_edge_list,
    profiles_to_jsonl_bytes,
)
from .synthworld import (
    InMemorySource,
    OrgSpec,
    UnknownProfileError,
    World,
    WorldSpec,
    WorldSpecError,
    WorldTruth,
    disclosure_census,
    generate_world,
)

# Each analysis module and the names the package exports from it.
_ANALYSIS = {
    "centrality": (
        "MEASURES",
        "CentralityConfig",
        "CentralityError",
        "CentralityTable",
        "ConvergenceError",
        "betweenness_centrality",
        "centrality_table",
        "closeness_centrality",
        "communicability_centrality",
        "degree_centrality",
        "load_centrality",
    ),
    "classifiers": ("CLASSIFIER_NAMES", "make_classifier"),
    "community": (
        "CommunityReportRow",
        "CommunityRole",
        "Partition",
        "adjusted_rand_index",
        "community_report",
        "detect_communities",
        "infer_roles",
        "load_role_rules",
        "modularity",
        "normalize_position",
    ),
    "leadership": (
        "EvalReport",
        "HiddenManagerReport",
        "RankedList",
        "UnlabeledNodesError",
        "auc_rank_statistic",
        "build_instances",
        "cross_validate",
        "evaluate",
        "hidden_manager_report",
        "precision_at_k",
        "rank_nodes",
        "stratified_folds",
    ),
    "pipeline": (
        "AnalysisSettings",
        "ConfigError",
        "CrawlSettings",
        "PipelineConfig",
        "PipelineError",
        "PipelineResult",
        "import_dataset",
        "run_pipeline",
        "verify_manifest",
    ),
}

# name -> home module, for every name served on first use (PEP 562)
_LAZY = {name: module for module, names in _ANALYSIS.items() for name in (module, *names)}

# the crawl-path names above, utils (bound by importing graph) and the lazy ones
__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
