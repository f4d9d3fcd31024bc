"""Exact pins of the outputs whose bits depend on no BLAS or LAPACK.

Crawl states and the pipeline's world, crawl, anonymization and community
artifacts come from the RNG, integer work and plain IEEE float arithmetic
in Python, so their sha256 hashes hold on any machine. A change to any of
them fails here, whether the change means to make it or not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from orgminer import CrawlConfig, WorldSpec, bfs_crawl, crawl, generate_world
from orgminer.pipeline import PipelineConfig, run_pipeline

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


def pipeline_spec() -> dict:
    """The benchmark's pipeline world; ``run_pipeline`` sets its seed."""
    return {
        "total_population": 700,
        "orgs": [_org(600, 5, 0.1, 0.01, 0.15, ("east", "west"))],
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
    "width-4": lambda src, cfg: crawl(src, replace(cfg, concurrency_width=4)),
}

PINNED_CRAWL_STATES = {
    (1, "focused"): "69bedad42d8906a330d1825a4a99da42a5371ce0f121eaf663f6ca2653c3d1a0",
    (1, "fifo"): "0a50d9504ce9e1b296a1e83a6c7ba51091f828a0ab9ab8a632ebbcc7d9106560",
    (1, "budget-700"): "85fb1370b517d57f0c8387b4613a4589b6d79d54c31022239799da8d2cec6ebb",
    (1, "v2"): "9ab3c579abf4cd888b54f6610d14de262ca594fe4b9238df740687c807408521",
    (1, "width-4"): "c0938e425dd04dc68874cd37bdac4be19421699a2e4785004411e727efce5707",
    (2, "focused"): "927c0eab43a1100cb90138d1621e75fc76b765b1430ea3848e8945323e07704a",
    (2, "fifo"): "123f7fb595237b3b5e8247b0e0bc9a43e14ab39da3cb1ca3c2c196eaee182767",
    (2, "budget-700"): "e93ca6e8f9fbd06d0f6f106ff1632207def94482d58aa81a9add091c0fd3461b",
    (2, "v2"): "1e70c09fd119aebc06df743a62c275e094d8b8c8cd6fed924ab805b9afcdde7b",
    (2, "width-4"): "8531b3d80e18172c706e002379465bc3cae3077508d9c5a4208aa9df261011f5",
    (3, "focused"): "3448ca1dc285fc178fdf0d72e0d4817ce2ab39c4ac68f6f57a6ed92cb208d645",
    (3, "fifo"): "a71d545be957cd6a6007f7e71934747a6e2c3c831d1546537fc6a6e39ce51338",
    (3, "budget-700"): "d858a8b91f4102a8921ea1cef7a5ed05b74631d67b60a48440a8d63a1e05ac68",
    (3, "v2"): "4549ae80d2ead4532615aa982fa02eb550321ee094f9cd03ccadb2a7c525c4fe",
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


def pipeline_hashes(seed: int, work) -> dict[str, str]:
    """sha256 of each BLAS-free artifact of a run at master seed ``seed``.

    ``work`` must be the working directory: the world spec's path is part of
    the config hash the artifacts carry, so it is given relative."""
    (work / "world_spec.json").write_text(json.dumps(pipeline_spec()), encoding="utf-8")
    out = work / f"run{seed}"
    run_pipeline(PipelineConfig(out_dir=str(out), world_spec="world_spec.json",
                                master_seed=seed))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_ARTIFACTS}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_outputs_are_pinned(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert pipeline_hashes(seed, tmp_path) == PINNED_PIPELINES[seed]
