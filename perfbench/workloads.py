"""The benchmark workloads: their inputs, their operation and checks.

A workload object builds its inputs once (``setup``), runs one
repetition of its operation (``run``) and checks that repetition's
outputs (``check``). ``check`` returns one entry per operation of the
repetition: ``None`` when it passed, else the reason it failed.

The benchmark's ``--seed`` picks the world every workload runs on; the
program sees only the generated inputs. Sizes are arguments so the
benchmark's own tests can run every workload on a tiny world.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks

KEYWORDS = ("acme corp", "acme")


def _org(size: int, communities: int, intra: float, inter: float, managers: float,
         locations: tuple[str, ...]) -> dict:
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


def pipeline_spec(members: int = 600, population: int = 700) -> dict:
    return {
        "total_population": population,
        "orgs": [_org(members, 5, 0.1, 0.01, 0.15, ("east", "west"))],
        "background_edge_prob": 0.002,
        "cross_boundary_edge_prob": 0.01,
        "rng_seed": 0,  # run_pipeline replaces it with a seed derived from master_seed
    }


def crawl_spec(members: int = 2000, population: int = 20000, communities: int = 8) -> dict:
    return {
        "total_population": population,
        "orgs": [_org(members, communities, 0.04, 0.004, 0.05, ("HQ", "North", "South"))],
        "background_edge_prob": 0.0002,
        "cross_boundary_edge_prob": 0.001,
    }


class Pipeline:
    """``run_pipeline`` on a world spec, into a fresh directory per repetition."""

    ops = ("run_pipeline",)

    def __init__(self, om, seed: int, work: Path, spec: dict | None = None):
        self.om = om
        self.seed = seed
        self.work = work
        self.spec = spec or pipeline_spec()
        self.reference: dict[str, str] | None = None

    def setup(self) -> None:
        self.spec_path = self.work / "world_spec.json"
        self.spec_path.write_text(json.dumps(self.spec), encoding="utf-8")

    def run(self, rep: int):
        out = self.work / f"rep{rep}"
        cfg = self.om.pipeline.PipelineConfig(
            out_dir=str(out), world_spec=str(self.spec_path), master_seed=self.seed
        )
        self.om.pipeline.run_pipeline(cfg)
        return out

    def check(self, out: Path) -> list[str | None]:
        try:
            self.reference = checks.check_pipeline_dir(out, self.reference, self.seed)
        except checks.CheckFailed as exc:
            return [str(exc)]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return [None]


class Crawl:
    """A focused crawl, a FIFO crawl, and a focused crawl checkpointed at a
    few fetch budgets and resumed, each to frontier exhaustion."""

    ops = ("crawl", "bfs_crawl", "checkpointed_crawl")
    budgets = (500, 1000, 1500)

    def __init__(self, om, seed: int, work: Path, spec: dict | None = None):
        self.om = om
        self.seed = seed
        self.work = work
        self.spec = spec or crawl_spec()
        self.truth: checks.CrawlTruth | None = None

    def setup(self) -> None:
        synthworld = self.om.synthworld
        spec = synthworld.WorldSpec.from_dict({**self.spec, "rng_seed": self.seed})
        self.world = synthworld.generate_world(spec)
        members = self.world.truth.members[0]
        rng = np.random.default_rng(self.seed)
        self.seeds = tuple(int(v) for v in sorted(rng.choice(members, size=3, replace=False)))
        self.state_path = self.work / "crawl_state.json"

    def run(self, rep: int):
        crawler, world = self.om.crawler, self.world
        cfg = crawler.CrawlConfig(seeds=self.seeds, keywords=KEYWORDS)
        focused = crawler.crawl(world.fresh_source(), cfg)
        fifo = crawler.bfs_crawl(world.fresh_source(), cfg)
        source = world.fresh_source()
        state = None
        for budget in self.budgets:
            stopped = crawler.crawl(
                source, crawler.CrawlConfig(self.seeds, KEYWORDS, max_fetches=budget), state
            )
            crawler.save_state(stopped.state, self.state_path)
            state = crawler.resume(self.state_path, source)
        resumed = crawler.crawl(source, cfg, state)
        return focused, fifo, resumed

    def check(self, outputs) -> list[str | None]:
        focused, fifo, resumed = outputs
        if self.truth is None:
            self.truth = checks.CrawlTruth(
                self.world.graph.edges(), self.world.truth.members[0], self.seeds
            )

        def resumed_check():
            checks.check_crawl(self.truth, resumed, "checkpointed crawl")
            checks.check_same_state(resumed, focused)

        return [
            _outcome(checks.check_crawl, self.truth, focused, "focused crawl"),
            _outcome(checks.check_crawl, self.truth, fifo, "FIFO crawl"),
            _outcome(resumed_check),
        ]


def _outcome(check, *args) -> str | None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        return str(exc)
    return None


WORKLOADS = {"pipeline-600": Pipeline, "crawl-20k": Crawl}
