"""Mining organizational structure from social graphs.

The package covers the full workflow: generate a synthetic world with
planted organizations, crawl it with a keyword-guided prioritized
frontier, score nodes with eight centrality measures, detect leadership
by ranking and by classification, split the graph into communities with
greedy modularity maximization, and export anonymized artifacts, all
reproducible from a single seed.
"""

__version__ = "0.1.0"

from .centrality import (
    MEASURES,
    CentralityConfig,
    CentralityError,
    CentralityTable,
    ConvergenceError,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    communicability_centrality,
    degree_centrality,
    load_centrality,
)
from .classifiers import CLASSIFIER_NAMES, make_classifier
from .community import (
    CommunityReportRow,
    CommunityRole,
    Partition,
    adjusted_rand_index,
    community_report,
    detect_communities,
    infer_roles,
    load_role_rules,
    modularity,
    normalize_position,
)
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
from .leadership import (
    EvalReport,
    HiddenManagerReport,
    RankedList,
    UnlabeledNodesError,
    auc_rank_statistic,
    build_instances,
    cross_validate,
    evaluate,
    hidden_manager_report,
    precision_at_k,
    rank_nodes,
    stratified_folds,
)
from .pipeline import (
    AnalysisSettings,
    ConfigError,
    CrawlSettings,
    PipelineConfig,
    PipelineError,
    PipelineResult,
    import_dataset,
    run_pipeline,
    verify_manifest,
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

__all__ = [name for name in dir() if not name.startswith("_")]
