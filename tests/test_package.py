"""The package namespace: its exported names, and what ``import orgminer``
loads. The crawl path (utils, graph, synthworld, crawler) loads eagerly;
the analysis modules load on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orgminer

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = [
    'AnalysisSettings', 'CLASSIFIER_NAMES', 'CentralityConfig', 'CentralityError',
    'CentralityTable', 'CommunityReportRow', 'CommunityRole', 'ConfigError',
    'ConvergenceError', 'CrawlConfig', 'CrawlError', 'CrawlResult', 'CrawlSettings',
    'CrawlState', 'CrawlStats', 'EXPORT_FORMATS', 'EvalReport', 'GraphError',
    'GraphParseError', 'HiddenManagerReport', 'InMemorySource', 'LabelRow', 'MEASURES',
    'OrgSpec', 'Partition', 'PipelineConfig', 'PipelineError', 'PipelineResult', 'Profile',
    'RankedList', 'SocialGraph', 'StateError', 'UnknownProfileError',
    'UnlabeledNodesError', 'World', 'WorldSpec', 'WorldSpecError', 'WorldTruth',
    'adjusted_rand_index', 'anonymize', 'auc_rank_statistic', 'betweenness_centrality',
    'bfs_crawl', 'build_instances', 'centrality', 'centrality_table', 'classifiers',
    'closeness_centrality', 'communicability_centrality', 'community', 'community_report',
    'crawl', 'crawler', 'cross_validate', 'degree_centrality', 'detect_communities',
    'disclosure_census', 'edge_list_bytes', 'evaluate', 'export_graph', 'generate_world',
    'graph', 'hidden_manager_report', 'import_dataset', 'infer_roles',
    'labels_to_csv_bytes', 'leadership', 'load_centrality', 'load_graph', 'load_labels',
    'load_profiles', 'load_role_rules', 'make_classifier', 'modularity',
    'normalize_position', 'parse_edge_list', 'pipeline', 'precision_at_k',
    'profiles_to_jsonl_bytes', 'rank_nodes', 'resume', 'run_pipeline', 'save_state',
    'stratified_folds', 'synthworld', 'utils', 'verify_manifest',
]

SUBMODULES = ("centrality", "classifiers", "community", "crawler", "graph", "leadership",
              "pipeline", "synthworld", "utils")
ANALYSIS = ("centrality", "classifiers", "community", "leadership", "pipeline")
CONSTANT_HOMES = {"CLASSIFIER_NAMES": "classifiers", "EXPORT_FORMATS": "graph",
                  "MEASURES": "centrality"}


def _run(script: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return out.stdout.strip()


def _home(name: str, obj) -> str:
    if name in SUBMODULES:
        return f"orgminer.{name}"
    if name in CONSTANT_HOMES:
        return f"orgminer.{CONSTANT_HOMES[name]}"
    return obj.__module__


def test_all_is_the_frozen_name_set():
    assert sorted(orgminer.__all__) == EXPORTS
    assert len(set(orgminer.__all__)) == len(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_home_modules_object(name):
    obj = getattr(orgminer, name)
    home = importlib.import_module(_home(name, obj))
    assert home.__name__.startswith("orgminer.")
    assert obj is (home if name in SUBMODULES else getattr(home, name))


def test_dir_covers_every_exported_name():
    assert set(EXPORTS) <= set(dir(orgminer))


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from orgminer import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orgminer.no_such_name
    with pytest.raises(ImportError):
        exec("from orgminer import no_such_name", {})


def test_an_analysis_name_loads_only_its_home_module_on_first_use():
    script = (
        "import sys\n"
        "import orgminer\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('orgminer.'))\n"
        "print(loaded())\n"
        "print('dir' if 'make_classifier' in dir(orgminer) else 'missing')\n"
        "orgminer.make_classifier\n"
        "print(loaded())\n"
    )
    before, listed, after = _run(script).splitlines()
    crawl_path = ["orgminer.crawler", "orgminer.graph", "orgminer.synthworld", "orgminer.utils"]
    assert before == repr(crawl_path)
    assert listed == "dir"
    assert after == repr(sorted([*crawl_path, "orgminer.classifiers"]))


def test_a_crawl_loads_neither_the_analysis_layer_nor_its_heavy_imports(tmp_path):
    script = f"""
import sys
from dataclasses import replace
from pathlib import Path
import orgminer as om

spec = om.WorldSpec(
    total_population=300,
    orgs=(om.OrgSpec(name_keywords=("acme",), size=60, community_count=2,
                     intra_community_edge_prob=0.3, inter_community_edge_prob=0.02),),
    background_edge_prob=0.01, cross_boundary_edge_prob=0.01, rng_seed=3,
)
world = om.generate_world(spec)
cfg = om.CrawlConfig(seeds=world.truth.members[0][:2], keywords=("acme",), max_fetches=20)
source = world.fresh_source()
part = om.crawl(source, cfg)
path = Path({str(tmp_path)!r}) / "state.json"
om.save_state(part.state, path)
done = om.crawl(source, replace(cfg, max_fetches=None), om.resume(path, source))
fifo = om.bfs_crawl(world.fresh_source(), cfg)
assert part.stats.truncated and done.stats.confirmed > part.stats.confirmed, done.stats
for fmt in ("edge-list", "graphml"):
    assert om.export_graph(done.graph, fmt)
assert om.edge_list_bytes(world.graph)
heavy = ({", ".join(repr(f"orgminer.{m}") for m in ANALYSIS)},
         "concurrent.futures", "scipy.sparse")
print(sorted(m for m in heavy if m in sys.modules))
"""
    assert _run(script) == "[]"
