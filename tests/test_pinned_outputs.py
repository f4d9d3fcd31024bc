"""Pins of the crawl states and of every pipeline artifact's content.

Crawl states and the pipeline's world, crawl, anonymization and community
artifacts come from the RNG, integer work and plain IEEE float arithmetic
in Python, so their sha256 hashes hold on any machine. The centrality,
cross-validation and ranking artifacts pass through dense ``eigh``,
``np.linalg.solve`` and BLAS products, which may round differently on
another build, so they are pinned by value at stated tolerances. A change
to any of them fails here, whether the change means to make it or not.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from orgminer import CrawlConfig, WorldSpec, bfs_crawl, crawl, generate_world
from orgminer.centrality import CentralityTable
from orgminer.classifiers import make_classifier
from orgminer.community import detect_communities, partition_table_bytes
from orgminer.graph import load_labels
from orgminer.leadership import build_instances
from orgminer.pipeline import PipelineConfig, community_artifacts, run_pipeline
from orgminer.utils import derive_seed

KEYWORDS = ("acme corp", "acme")


def _org(size, communities, intra, inter, managers, locations) -> dict:
    return {
        "name_keywords": list(KEYWORDS),
        "size": size,
        "community_count": communities,
        "intra_community_edge_prob": intra,
        "inter_community_edge_prob": inter,
        "manager_fraction": managers,
        "manager_degree_boost": 3.0,
        "position_disclosure_rate": 0.6,
        "location_labels": list(locations),
    }


def crawl_spec(members: int, population: int) -> dict:
    """The benchmark's crawl world, at a given size."""
    return {
        "total_population": population,
        "orgs": [_org(members, 8, 0.04, 0.004, 0.05, ("HQ", "North", "South"))],
        "background_edge_prob": 0.0002,
        "cross_boundary_edge_prob": 0.001,
    }


def pipeline_spec(members: int = 600, population: int = 700) -> dict:
    """The benchmark's pipeline world; ``run_pipeline`` sets its seed."""
    return {
        "total_population": population,
        "orgs": [_org(members, 5, 0.1, 0.01, 0.15, ("east", "west"))],
        "background_edge_prob": 0.002,
        "cross_boundary_edge_prob": 0.01,
        "rng_seed": 0,
    }


def crawl_world(seed: int):
    """The 300-member crawl world of ``seed`` and its three lowest members."""
    world = generate_world(WorldSpec.from_dict({**crawl_spec(300, 3000), "rng_seed": seed}))
    return world, CrawlConfig(seeds=sorted(world.truth.members[0])[:3], keywords=KEYWORDS)


CRAWLS = {
    "focused": crawl,
    "fifo": bfs_crawl,
    "budget-700": lambda src, cfg: crawl(src, replace(cfg, max_fetches=700)),
    "v2": lambda src, cfg: crawl(src, replace(cfg, version="v2", window_size=200)),
    # window 200 never fires on these worlds; window 20 stops every one by the window
    "v2-window-20": lambda src, cfg: crawl(src, replace(cfg, version="v2", window_size=20)),
    "width-4": lambda src, cfg: crawl(src, replace(cfg, concurrency_width=4)),
}

PINNED_CRAWL_STATES = {
    (1, "focused"): "69bedad42d8906a330d1825a4a99da42a5371ce0f121eaf663f6ca2653c3d1a0",
    (1, "fifo"): "0a50d9504ce9e1b296a1e83a6c7ba51091f828a0ab9ab8a632ebbcc7d9106560",
    (1, "budget-700"): "85fb1370b517d57f0c8387b4613a4589b6d79d54c31022239799da8d2cec6ebb",
    (1, "v2"): "9ab3c579abf4cd888b54f6610d14de262ca594fe4b9238df740687c807408521",
    (1, "v2-window-20"): "38c9c97cd78a8d17f0e075a03de6587fa1bbb169385b741ccf23fc02f6d7ddab",
    (1, "width-4"): "c0938e425dd04dc68874cd37bdac4be19421699a2e4785004411e727efce5707",
    (2, "focused"): "927c0eab43a1100cb90138d1621e75fc76b765b1430ea3848e8945323e07704a",
    (2, "fifo"): "123f7fb595237b3b5e8247b0e0bc9a43e14ab39da3cb1ca3c2c196eaee182767",
    (2, "budget-700"): "e93ca6e8f9fbd06d0f6f106ff1632207def94482d58aa81a9add091c0fd3461b",
    (2, "v2"): "1e70c09fd119aebc06df743a62c275e094d8b8c8cd6fed924ab805b9afcdde7b",
    (2, "v2-window-20"): "d565b825a790808d33714596666a0216a0e4003f49ee43fc9bffc2c4e80bc8ff",
    (2, "width-4"): "8531b3d80e18172c706e002379465bc3cae3077508d9c5a4208aa9df261011f5",
    (3, "focused"): "3448ca1dc285fc178fdf0d72e0d4817ce2ab39c4ac68f6f57a6ed92cb208d645",
    (3, "fifo"): "a71d545be957cd6a6007f7e71934747a6e2c3c831d1546537fc6a6e39ce51338",
    (3, "budget-700"): "d858a8b91f4102a8921ea1cef7a5ed05b74631d67b60a48440a8d63a1e05ac68",
    (3, "v2"): "4549ae80d2ead4532615aa982fa02eb550321ee094f9cd03ccadb2a7c525c4fe",
    (3, "v2-window-20"): "82b250443106f6b3fb76b7998cd322bf7c51e905a62a5e96bd2b350fed88fbcf",
    (3, "width-4"): "b81669764cae10a7b75c66c75c0584b21b09c2dff180cd4fa0cf5bfa9602c9ab",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crawl_states_are_pinned(seed):
    world, cfg = crawl_world(seed)
    got = {
        name: hashlib.sha256(run(world.fresh_source(), cfg).state.to_json_bytes()).hexdigest()
        for name, run in CRAWLS.items()
    }
    assert got == {name: PINNED_CRAWL_STATES[seed, name] for name in CRAWLS}


PINNED_WORLD_COMMUNITIES = {
    (1, "communities.csv"): "d196ff05538643a93a65353ba06631db43c6751b28df498f91c34fc5878358e1",
    (1, "community_report.csv"): "0c3071607aed0d7dccfa2270bd82f397fdbfd99dbe2a317a9dc93869e3e2edb3",
    (2, "communities.csv"): "f7e6381802a66ef9a57790a36be7b8d642f003d109133488adfb4767446a09d6",
    (2, "community_report.csv"): "798219496153b53b8b2248ceaec6c8e9cfebc46501d0095700ce5799a5de8112",
    (3, "communities.csv"): "a59e8b8ab110b58aefb68102bde697eea5688a425619b7597bd58f6779b75572",
    (3, "community_report.csv"): "837c128f7a20d574bc56e6344b19f59cfa00988b3cd6ef3a9b2e3ed97ccd04c5",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_world_communities_are_pinned(seed):
    """The crawl world's whole graph: many small communities, so the role
    vote's thresholds and tie-breaks decide rows, which the pipeline world's
    large, well-labeled communities never exercise."""
    world, _ = crawl_world(seed)
    files = community_artifacts(world.graph, detect_communities(world.graph))
    got = {(seed, name): hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert got == {key: h for key, h in PINNED_WORLD_COMMUNITIES.items() if key[0] == seed}


# The member subgraph of a 1200-member pipeline world has m = 28,339 edges,
# so every merge of two singletons gains at most 1/m < 1e-4. The other
# pinned graphs have m < 10^4 and cannot tell such merges from larger ones.
PINNED_DENSE_PARTITION = "9ce589036e5c7f49395d23e20dfb0efe5c693d9e6b4248ec0b3049692a0e8b0d"


def test_dense_member_graph_partition_is_pinned():
    world = generate_world(WorldSpec.from_dict({**pipeline_spec(1200, 1300), "rng_seed": 1}))
    g = world.graph.subgraph(world.truth.members[0])
    assert (g.num_nodes, g.num_edges) == (1200, 28339)
    data = partition_table_bytes(detect_communities(g))
    assert hashlib.sha256(data).hexdigest() == PINNED_DENSE_PARTITION


PINNED_ARTIFACTS = (
    "world_edges.txt", "world_profiles.jsonl", "world_labels.csv",
    "crawled_edges.txt", "crawled_profiles.jsonl", "crawl_stats.json",
    "anonymized_graph.txt", "communities.csv", "community_report.csv",
)

PINNED_PIPELINES = {
    1: {
        "world_edges.txt": "e929af0702c6f4513b465cb1a9ff54bf6f9da550bcacc0975a67fa0887066935",
        "world_profiles.jsonl": "d4386d9fa44c2ef9c29a0ce9be9a3699d927aafcf3de5cc35158ece4f4ed31fc",
        "world_labels.csv": "8aeabfcb75dcb4ee884c70475f770c235eddc001ce4f468ee94f07145545d1f5",
        "crawled_edges.txt": "4b6a7f4424370f3b4c6c168e6b3bd00f30b8e624864eea16b4f9d735b4326568",
        "crawled_profiles.jsonl": "4a97bd63b474360010a14a855cd26b3daa5aa195a22664d3c0026f3099f7d5e7",
        "crawl_stats.json": "a27bdfe2c25b9be0b58f24355dbd882d47a112761bcdf95b9b3194cfc10661d9",
        "anonymized_graph.txt": "9cb9c8bb0539639b2bdcb55adfbe3108248706880daf2cf88d44c6419e3f16b5",
        "communities.csv": "827fbfeac456b4dc43049ab5e33f58842c74cac20d0b5aa7aacc675aa6b7cf43",
        "community_report.csv": "bc76891c91fa46ab3df6bbd7705a5a30f307bd7d56b17c3618473549993506d2",
    },
    2: {
        "world_edges.txt": "d522da5c8cd83b4eed1a10bc20e04831f7ed4a4210bccb6bd80b406282d00806",
        "world_profiles.jsonl": "b144549739f1fa45120117b5ee484945dd379fd85094b6df397106d0bb728a87",
        "world_labels.csv": "2eedceb3837ca0d09c2dcc345e327e22500d29e5a5af87f212323363d9303d64",
        "crawled_edges.txt": "28ceecf64450b0d0f8aca0b08898cc2e3dc6665657d020573c5db07e398b7f20",
        "crawled_profiles.jsonl": "4741821fa9be851f32c216db50eb1f522cda6da49937e3e0aeeb0069c7826f6c",
        "crawl_stats.json": "03aff3d7e456cf2e67ea0af47452c2b62fab5684de2fc892623db5c85c3a3b48",
        "anonymized_graph.txt": "0ab695131f99597e2c1d2b7df10ba2b44d6a3b4b600d8232ced353f05b10123b",
        "communities.csv": "5274f50608977703ecb0e74374af59e2efef94fe061433bdbd4f2f5e8ba7cb33",
        "community_report.csv": "89dc669b0c12289a5cf1aa971460b3205e882bad48648b76e8454a52efef70fb",
    },
    3: {
        "world_edges.txt": "94b8328973d7af0948b18322716f7c1e82182a844739c6f6396b2c24964b3732",
        "world_profiles.jsonl": "239909183d317955dd32be93a1cc05f38ec4831615277b65e7094d65d5fd5e1a",
        "world_labels.csv": "21e610520007098a1dfb0738ab819325f114752203e745a362ea626915f24913",
        "crawled_edges.txt": "c2f38b428d42cbe0001fac14f00f7b7d616b1cc36b3eb56c248f95ad2c350293",
        "crawled_profiles.jsonl": "5da78912f266ddb7eb65da6e1519880be2efa04f6d73c1b8d5801b04b81c5bb6",
        "crawl_stats.json": "16dd18cdb5f760941e785e15d6e21709db73d9a853ba79352e8ef218452999a1",
        "anonymized_graph.txt": "7ea13bad8d116b46a38a3b6bb81e6394dc4e4f49b2505a1e29250c0a25548c45",
        "communities.csv": "73f6bb78deefceb14c9ab2108c07e117a4e17c0a1ab718da7f7c9bfff6f03792",
        "community_report.csv": "dc0d035ccbd999d85826a5eea4e0bc2be1db5704ee305f78eceee833a32ecd0d",
    },
}


@pytest.fixture(scope="module", params=[1, 2, 3])
def pipeline_run(request, tmp_path_factory):
    """Master seed and output directory of one ``pipeline_spec`` run.

    The run starts in its working directory: the world spec's path is part
    of the config hash the artifacts carry, so it is given relative."""
    seed = request.param
    work = tmp_path_factory.mktemp(f"pipeline{seed}")
    (work / "world_spec.json").write_text(json.dumps(pipeline_spec()), encoding="utf-8")
    here = os.getcwd()
    os.chdir(work)
    try:
        run_pipeline(PipelineConfig(out_dir="run", world_spec="world_spec.json",
                                    master_seed=seed))
    finally:
        os.chdir(here)
    return seed, work / "run"


def test_pipeline_outputs_are_pinned(pipeline_run):
    seed, out = pipeline_run
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_ARTIFACTS}
    assert got == PINNED_PIPELINES[seed]


# Per centrality.csv column: the sum, and the sum weighted by the 1-based
# row number, which also sees values trading rows. Every value is
# nonnegative, so a relative error of at most 1e-9 in each value keeps both
# within relative 1e-9. The hits column is the ec column.
PINNED_CENTRALITY = {
    1: {
        "dg": (23.442404006677794, 7160.106844741233),
        "cl": (240.6437782814162, 72437.34612500305),
        "bc": (1.5022082512102108, 463.1608892747241),
        "hits": (23.073309814858867, 7055.463805194009),
        "pr": (1.0, 304.6168551597136),
        "ec": (23.073309814858867, 7055.463805194009),
        "cc": (322271351335.18555, 100411692913693.66),
        "lc": (1.502208251210211, 462.60881090608075),
    },
    2: {
        "dg": (23.73956594323873, 7039.711185308852),
        "cl": (240.58810565932174, 72225.3641108001),
        "bc": (1.502426005438272, 439.2695146210573),
        "hits": (22.996395124618108, 6837.001430136506),
        "pr": (1.0, 297.0461323329369),
        "ec": (22.996395124618108, 6837.001430136506),
        "cc": (455594941994.45026, 133507585781360.36),
        "lc": (1.5024260054382723, 439.5340210147449),
    },
    3: {
        "dg": (23.34557595993322, 7027.070116861434),
        "cl": (239.9988613241368, 72099.26754414759),
        "bc": (1.508506373498752, 451.17989827169106),
        "hits": (23.048527321114143, 6918.3405468147985),
        "pr": (1.0, 300.9501902822832),
        "ec": (23.048527321114143, 6918.3405468147985),
        "cc": (296358467977.4736, 88691940467206.0),
        "lc": (1.508506373498752, 451.1052664414721),
    },
}

# cv_report.csv rows: accuracy_pct, f_measure and auc to absolute 1e-9,
# folds and fallback_folds exact
_PERFECT = (100.0, 1.0, 1.0, 10, 0)
PINNED_CV = {
    1: {
        "zero-r": (85.0, 0.0, 0.5, 10, 0),
        "one-r": (96.0, 0.8461538461538461, 0.9916122004357298, 10, 0),
        "knn-1": _PERFECT,
        "knn-3": _PERFECT,
        "knn-10": (99.5, 0.9836065573770492, 1.0, 10, 0),
        "gaussian-nb": (98.83333333333333, 0.9625668449197861, 0.9986928104575163, 10, 0),
        "decision-tree": _PERFECT,
        "logistic": _PERFECT,
        "random-forest": _PERFECT,
    },
    2: {
        "zero-r": (85.0, 0.0, 0.5, 10, 0),
        "one-r": (96.16666666666667, 0.8535031847133758, 0.992483660130719, 10, 0),
        "knn-1": (99.83333333333333, 0.994475138121547, 0.9990196078431373, 10, 0),
        "knn-3": (99.83333333333333, 0.994475138121547, 1.0, 10, 0),
        "knn-10": (99.83333333333333, 0.994475138121547, 1.0, 10, 0),
        "gaussian-nb": (98.66666666666667, 0.956989247311828, 0.9982570806100218, 10, 0),
        "decision-tree": _PERFECT,
        "logistic": _PERFECT,
        "random-forest": _PERFECT,
    },
    3: {
        "zero-r": (85.0, 0.0, 0.5, 10, 0),
        "one-r": (95.66666666666667, 0.8311688311688312, 0.9884531590413944, 10, 0),
        "knn-1": _PERFECT,
        "knn-3": _PERFECT,
        "knn-10": (99.83333333333333, 0.994475138121547, 1.0, 10, 0),
        "gaussian-nb": (99.5, 0.9836065573770492, 0.9997821350762527, 10, 0),
        "decision-tree": _PERFECT,
        "logistic": _PERFECT,
        "random-forest": _PERFECT,
    },
}

# precision@k and hidden-manager counts are ratios of small integers that
# depend only on the rankings' order, so their files are pinned exactly
PINNED_RANKINGS = {
    1: {
        "ranking_report.csv": "5d8684ed60db066b7ecaa201012c0972778621d89c035b8db0db16af852cc547",
        "hidden_managers.csv": "8af4b7d4bd3584f1641d905b55ad66bcbb96124d9c6f728faea19c098e754d64",
    },
    2: {
        "ranking_report.csv": "6f39b3c19c3dcab43d28b744431d28264fd1a562f72dabf04590e0017ef85cd0",
        "hidden_managers.csv": "1258bb6b2f7dbc627dfc3d3e2eb2b7391cac648559cc6b807e48d4e9cc2995df",
    },
    3: {
        "ranking_report.csv": "d257956dec75c1334b76e3dfba1c9b40314da9670eb60bd42feaba1232733263",
        "hidden_managers.csv": "6319c86f4a62a761088d4f8055636ad7deff1bc155aaf2b534be05e75c070673",
    },
}

# The forest gets every held-out row right in all three runs, so cv_report
# cannot see how many trees it has. Its scores, fit and scored on all of a
# run's labeled rows with the evaluate stage's seed, are pinned by their sum
# to absolute 1e-9, which a forest of 99 or 101 trees misses.
PINNED_FOREST_SCORE_SUM = {1: 90.16, 2: 89.74000000000001, 3: 90.11}


def _csv_rows(data: bytes) -> list[list[str]]:
    """The cells of a CSV artifact, header first, its config line dropped."""
    return [ln.split(",") for ln in data.decode("utf-8").splitlines()
            if not ln.startswith("#")]


def test_pipeline_values_are_pinned(pipeline_run):
    seed, out = pipeline_run
    header, *rows = _csv_rows((out / "centrality.csv").read_bytes())
    values = np.array([[float(c) for c in row[1:]] for row in rows])
    weights = np.arange(1, values.shape[0] + 1)
    got = {h: (float(col.sum()), float(col @ weights)) for h, col in zip(header[1:], values.T)}
    pinned = PINNED_CENTRALITY[seed]
    assert got == {h: pytest.approx(v, rel=1e-9, abs=0) for h, v in pinned.items()}

    header, *rows = _csv_rows((out / "cv_report.csv").read_bytes())
    metrics = {row[0]: tuple(map(float, row[1:4])) for row in rows}
    counts = {row[0]: tuple(map(int, row[4:])) for row in rows}
    pinned = PINNED_CV[seed]
    assert metrics == {k: pytest.approx(v[:3], rel=0, abs=1e-9) for k, v in pinned.items()}
    assert counts == {k: v[3:] for k, v in pinned.items()}

    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_RANKINGS[seed]}
    assert got == PINNED_RANKINGS[seed]

    table = CentralityTable.from_csv_bytes((out / "centrality.csv").read_bytes())
    managers = {v: r.is_manager for v, r in load_labels(out / "world_labels.csv").items()
                if r.is_org_member}
    X, y = build_instances(table, managers)
    forest = make_classifier("random-forest", seed=derive_seed(seed, "evaluate")).fit(X, y)
    assert float(forest.scores(X).sum()) == pytest.approx(
        PINNED_FOREST_SCORE_SUM[seed], rel=0, abs=1e-9)
