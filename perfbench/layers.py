"""Which orgminer functions the traced run wraps, and the per-layer
metrics it derives from their spans.

Each layer is timed around calls into its module's functions, at the
names its callers look up: a function imported into ``orgminer.pipeline``
is wrapped there as well as in its own module. The centrality measures
are wrapped at the functions ``centrality_table`` calls, which for hits,
pr and ec are the private solvers that also return iteration counts.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter

from spans import Tracer, layer_self_seconds

CLASSIFIERS = (
    "zero-r", "one-r", "knn-1", "knn-3", "knn-10",
    "gaussian-nb", "decision-tree", "logistic", "random-forest",
)
MEASURE_FUNCTIONS = {
    "dg": "degree_centrality",
    "cl": "closeness_centrality",
    "bc": "betweenness_centrality",
    "hits": "_hits_vectors",
    "pr": "_pagerank_vector",
    "ec": "_eigenvector_vector",
    "cc": "communicability_centrality",
    "lc": "load_centrality",
}
ITERATIVE = ("hits", "pr", "ec")

# metric name -> unit, in the order BENCHMARK.json lists them
METRICS: dict[str, str] = {
    "cli.import_s": "s",
    "synthworld.generate_s": "s",
    "synthworld.fetches": "count",
    "crawler.crawl_s": "s",
    "crawler.bfs_crawl_s": "s",
    "crawler.save_state_s": "s",
    "crawler.resume_s": "s",
    "crawler.fetch_rate": "1/s",
    "crawler.state_bytes": "bytes",
    "graph.serialize_s": "s",
    "graph.export_s": "s",
    "centrality.table_s": "s",
    "centrality.table_cpu_s": "s",
    **{f"centrality.{m}_s": "s" for m in MEASURE_FUNCTIONS},
    **{f"centrality.{m}_iterations": "count" for m in ITERATIVE},
    "leadership.evaluate_s": "s",
    "leadership.rank_s": "s",
    "leadership.cv_s": "s",
    **{
        f"classifiers.{kind}.{call}_s": "s"
        for kind in CLASSIFIERS
        for call in ("fit", "predict", "scores")
    },
    "community.detect_s": "s",
    "community.roles_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_pct": "%",
}


class LayerProbe:
    """Installs the wrappers and turns one stretch of spans into metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter[str] = Counter()
        self.sources: list = []

    def install(self, om) -> None:
        t = self.tracer
        centrality, community, crawler = om.centrality, om.community, om.crawler
        leadership, pipeline, synthworld = om.leadership, om.pipeline, om.synthworld

        for owner in (synthworld, pipeline):
            t.patch(owner, "generate_world", "synthworld.generate")
        t.patch(synthworld.World, "fresh_source", "synthworld.fresh_source",
                on_result=lambda src, args, kwargs: self.sources.append(src))

        for owner in (crawler, pipeline):
            t.patch(owner, "crawl", "crawler.crawl")
        t.patch(crawler, "bfs_crawl", "crawler.bfs_crawl")
        t.patch(crawler, "save_state", "crawler.save_state", on_result=self._state_bytes)
        t.patch(crawler, "resume", "crawler.resume")

        for attr in ("edge_list_bytes", "profiles_to_jsonl_bytes", "labels_to_csv_bytes"):
            t.patch(pipeline, attr, "graph.serialize")
        for attr in ("anonymize", "export_graph"):
            t.patch(pipeline, attr, "graph.export")

        for owner in (centrality, pipeline):
            t.patch(owner, "centrality_table", "centrality.table")
        for measure, attr in MEASURE_FUNCTIONS.items():
            hook = self._iterations(measure) if measure in ITERATIVE else None
            t.patch(centrality, attr, f"centrality.{measure}", on_result=hook)

        for owner in (leadership, pipeline):
            t.patch(owner, "evaluate", "leadership.evaluate")
        for attr in ("rank_nodes", "precision_at_k", "hidden_manager_report"):
            t.patch(leadership, attr, "leadership.rank")
        t.patch(leadership, "cross_validate", "leadership.cv")
        t.replace(leadership, "make_classifier", self._traced_classifier(leadership.make_classifier))

        for owner in (community, pipeline):
            t.patch(owner, "detect_communities", "community.detect")
            t.patch(owner, "infer_roles", "community.roles")
            t.patch(owner, "community_report", "community.roles")

        t.patch(pipeline, "run_pipeline", "pipeline.self")

    def _state_bytes(self, result, args, kwargs) -> None:
        self.counts["crawler.state_bytes"] += os.path.getsize(args[1])

    def _iterations(self, measure: str):
        def record(result, args, kwargs) -> None:
            self.counts[f"centrality.{measure}_iterations"] += result[-1]

        return record

    def _traced_classifier(self, make_classifier):
        def make(kind, *args, **kwargs):
            model = make_classifier(kind, *args, **kwargs)
            for call in ("fit", "predict", "scores"):
                setattr(model, call, self.tracer.wrap(getattr(model, call), f"classifiers.{kind}.{call}"))
            return model

        return make

    def collect(self, first_span: int) -> dict[str, float]:
        """Metrics of the spans from ``first_span`` on, plus the counts and
        fetches recorded since the last call; resets both."""
        spans = self.tracer.spans
        out = {name: 0.0 for name, unit in METRICS.items() if unit == "s"}
        for i, seconds in layer_self_seconds(spans, first_span).items():
            key = f"{spans[i].name}_s"
            if key in out:
                out[key] += seconds
            if spans[i].name == "centrality.table":
                out["centrality.table_cpu_s"] += spans[i].cpu
        for name in ("crawler.state_bytes", *(f"centrality.{m}_iterations" for m in ITERATIVE)):
            out[name] = float(self.counts[name])
        out["synthworld.fetches"] = float(sum(src.fetch_count for src in self.sources))
        self.counts.clear()
        self.sources.clear()
        return out


def combine(setup: dict[str, float], reps: list[dict[str, float]]) -> dict[str, float]:
    """Set-up figures plus the median over repetitions, per metric."""
    out = {
        name: setup.get(name, 0.0) + statistics.median(r[name] for r in reps)
        for name in reps[0]
    }
    loop = out["crawler.crawl_s"] + out["crawler.bfs_crawl_s"]
    out["crawler.fetch_rate"] = out["synthworld.fetches"] / loop if loop > 0 else 0.0
    return out
