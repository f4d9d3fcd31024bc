"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as they
happen; without -s they still appear in captured output. Every numeric
threshold here is either hand-derivable, checked against an independent
brute-force oracle, or was measured once on the seeded worlds below and then
frozen (those spots say so).
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from orgminer import (
    CentralityConfig,
    CrawlConfig,
    CrawlSettings,
    OrgSpec,
    PipelineConfig,
    SocialGraph,
    WorldSpec,
    adjusted_rand_index,
    bfs_crawl,
    centrality_table,
    crawl,
    detect_communities,
    edge_list_bytes,
    generate_world,
    hidden_manager_report,
    infer_roles,
    modularity,
    precision_at_k,
    rank_nodes,
    run_pipeline,
)
from orgminer import bruteforce as bf
from orgminer.crawler import resume, save_state
from orgminer.leadership import (
    auc_rank_statistic,
    cross_validate,
    build_instances,
    stratified_folds,
)
from orgminer.utils import derive_seed

from conftest import (
    complete_graph,
    crawl_world_spec,
    leadership_world_spec,
    path_graph,
    random_graph,
    two_community_spec,
)

# solver settings for oracle comparisons: tight enough that iteration error
# is negligible against the 1e-8 acceptance tolerance
ORACLE_SOLVER = CentralityConfig(tol=1e-10, max_iter=500000)

# margin for the classifier-signal criterion, measured once on the ten seeded
# worlds below (observed minima: logistic 0.9994, random-forest 0.9984) and
# frozen well under them
FROZEN_AUC_MARGIN = 0.4


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"[{num:>2}] {'PASS' if ok else 'FAIL'} {label}{tail}"
    print(line)
    assert ok, line


def _corpus():
    """The 200-graph oracle corpus: sizes cycle 4..30, densities cycle too."""
    probs = (0.08, 0.15, 0.25, 0.4, 0.6)
    for i in range(200):
        yield random_graph(12345 + i, 4 + (i % 27), probs[i % 5])


def _cycle_graph(n: int) -> SocialGraph:
    return SocialGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def _circulant_graph(n: int, jumps: tuple[int, ...]) -> SocialGraph:
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return SocialGraph(range(n), sorted(edges))


# -- 1: centrality vs brute force --------------------------------------------------


def test_a01_all_measures_match_bruteforce_oracles():
    started = time.time()
    oracles = {
        "dg": bf.oracle_degree,
        "cl": bf.oracle_closeness,
        "bc": bf.oracle_betweenness,
        "lc": bf.oracle_load,
        "pr": bf.oracle_pagerank_power,
        "ec": bf.oracle_eigenvector,
        "cc": bf.oracle_communicability,
        "hits": lambda g: bf.oracle_hits(g)[0],
    }
    worst = 0.0
    graphs = 0
    for g in _corpus():
        graphs += 1
        table = centrality_table(g, ORACLE_SOLVER)
        assert not table.failures
        for measure, oracle in oracles.items():
            ref = oracle(g)
            for v in g.nodes:
                diff = abs(table.scores[measure][v] - float(ref[v]))
                # cc grows like e^lambda and leaves the range where 1e-8 is
                # even representable, so it is held to relative tolerance;
                # the seven bounded measures stay absolute
                if measure == "cc":
                    diff /= max(1.0, abs(float(ref[v])))
                worst = max(worst, diff)
                assert diff <= 1e-8, (measure, v)
    elapsed = time.time() - started
    _verdict(
        1,
        "eight measures vs brute-force oracles on 200 graphs <= 1e-8",
        graphs == 200 and worst <= 1e-8 and elapsed < 120,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


# -- 2: hand-computed anchors -------------------------------------------------------


def test_a02_hand_computed_anchors():
    table = centrality_table(path_graph(3), ORACLE_SOLVER)
    cl, bc = table.scores["cl"], table.scores["bc"]
    anchors_ok = (
        cl[1] == pytest.approx(1.0, abs=1e-12)
        and cl[0] == pytest.approx(2 / 3, abs=1e-12)
        and cl[2] == pytest.approx(2 / 3, abs=1e-12)
        and bc[0] == pytest.approx(0.0, abs=1e-12)
        and bc[1] == pytest.approx(1.0, abs=1e-12)
        and bc[2] == pytest.approx(0.0, abs=1e-12)
    )

    k2 = centrality_table(complete_graph(2), ORACLE_SOLVER)
    cosh_ok = all(
        abs(k2.scores["cc"][v] - math.cosh(1.0)) <= 1e-6 for v in (0, 1)
    )

    transitive = [
        _cycle_graph(5),
        _cycle_graph(8),
        complete_graph(4),
        complete_graph(7),
        _circulant_graph(10, (1, 3)),
    ]
    uniform_ok = True
    for g in transitive:
        pr = centrality_table(g, ORACLE_SOLVER, measures=("pr",)).scores["pr"]
        uniform_ok &= all(abs(pr[v] - 1 / g.num_nodes) <= 1e-9 for v in g.nodes)

    sums_ok = True
    for g in list(_corpus()) + transitive:
        pr = centrality_table(g, ORACLE_SOLVER, measures=("pr",)).scores["pr"]
        sums_ok &= abs(sum(pr.values()) - 1.0) <= 1e-9

    _verdict(
        2,
        "P3/K2 anchors, uniform PR on vertex-transitive graphs, PR sums to 1",
        anchors_ok and cosh_ok and uniform_ok and sums_ok,
    )


# -- 3: modularity anchors ----------------------------------------------------------


def test_a03_modularity_anchors_and_greedy_bound():
    one_ok = (
        modularity(complete_graph(5), {v: 0 for v in range(5)}) == 0.0
        and modularity(random_graph(4, 9, 0.5), {v: 0 for v in range(9)}) == 0.0
    )

    triangles = SocialGraph(
        range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    )
    part = detect_communities(triangles)
    two_ok = part.q == pytest.approx(0.5, abs=1e-12) and sorted(
        part.communities().values()
    ) == [(0, 1, 2), (3, 4, 5)]

    bound_ok = True
    for i in range(50):
        g = random_graph(1000 + i, 4 + (i % 7), (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5])
        greedy = detect_communities(g)
        best_q, _ = bf.best_partition_bruteforce(g)
        bound_ok &= greedy.q <= best_q + 1e-12

    _verdict(
        3,
        "Q=0 single community, Q=0.5 two triangles recovered, greedy <= exhaustive x50",
        one_ok and two_ok and bound_ok,
    )


# -- 4: crawler bookkeeping ---------------------------------------------------------


def test_a04_crawler_priorities_and_resume(tmp_path):
    violations: list = []
    for seed in range(20):
        world = generate_world(crawl_world_spec(seed))
        adj = {v: world.graph.neighbors(v) for v in world.graph.nodes}
        seeds = sorted(world.truth.all_members())[:3]
        cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
        fetched: list[int] = []

        def check(state, node, seed=seed, cfg=cfg, adj=adj, fetched=fetched):
            fetched.append(node)
            for cand, priority in state.frontier.items().items():
                expect = sum(1 for m in state.confirmed if m in adj[cand])
                if cand in cfg.seeds:
                    expect += cfg.seed_priority  # enqueue bonus persists
                if priority != expect:
                    violations.append((seed, cand, priority, expect))

        crawl(world.fresh_source(), cfg, audit_hook=check)
        if len(fetched) != len(set(fetched)):
            violations.append((seed, "double fetch"))

    world = generate_world(crawl_world_spec(7))
    seeds = sorted(world.truth.all_members())[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    full = crawl(world.fresh_source(), cfg)
    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=17))
    state_path = tmp_path / "state.json"
    save_state(part.state, state_path)
    done = crawl(src, cfg, state=resume(state_path, src))
    resume_ok = (
        edge_list_bytes(done.graph) == edge_list_bytes(full.graph)
        and done.state.to_json_bytes() == full.state.to_json_bytes()
    )

    _verdict(
        4,
        "priorities audited on 20 worlds, no double fetch, resume byte-identical",
        not violations and resume_ok,
        f"{len(violations)} violations",
    )


# -- 5: focused crawl beats BFS -----------------------------------------------------


def _standard_crawl_world(seed: int) -> WorldSpec:
    return WorldSpec(
        total_population=2000,
        orgs=(
            OrgSpec(
                name_keywords=("acme corp", "acme"),
                size=200,
                intra_community_edge_prob=0.2,
            ),
        ),
        background_edge_prob=0.002,
        cross_boundary_edge_prob=0.02,
        rng_seed=seed,
    )


def test_a05_homophily_crawl_beats_bfs():
    started = time.time()
    wins = 0
    for seed in range(20):
        world = generate_world(_standard_crawl_world(seed))
        members = sorted(world.truth.members[0])
        rng = np.random.default_rng(derive_seed(seed, "crawl-seeds"))
        picked = tuple(
            int(v) for v in sorted(rng.choice(members, size=3, replace=False))
        )
        cfg = CrawlConfig(
            seeds=picked, keywords=("acme corp", "acme"), max_fetches=600
        )
        v1 = crawl(world.fresh_source(), cfg).stats.precision
        bfs = bfs_crawl(world.fresh_source(), cfg).stats.precision
        wins += v1 > bfs
    elapsed = time.time() - started
    _verdict(
        5,
        "V1 precision beats BFS at budget 600 in >= 18/20 worlds",
        wins >= 18 and elapsed < 60,
        f"{wins}/20 wins, {elapsed:.1f}s",
    )


# -- 6 and 7: leadership ranking ----------------------------------------------------


@pytest.fixture(scope="module")
def closeness_rankings():
    """Closeness rankings over member subgraphs of 20 seeded boosted worlds."""
    out = []
    for seed in range(20):
        world = generate_world(leadership_world_spec(seed))
        members = sorted(world.truth.all_members())
        sub = world.graph.subgraph(members)
        table = centrality_table(
            sub, CentralityConfig(tol=1e-10, max_iter=100000), measures=("cl",)
        )
        labels = {v: v in world.truth.managers for v in members}
        disclosure = {v: world.truth.disclosure.get(v, False) for v in members}
        out.append((rank_nodes(table, "cl"), labels, disclosure))
    return out


def test_a06_central_nodes_are_managers(closeness_rankings):
    passes = 0
    worst = 1.0
    for ranked, labels, _ in closeness_rankings:
        base = sum(labels.values()) / len(labels)
        p20 = precision_at_k(ranked, labels, 20)
        worst = min(worst, p20)
        passes += p20 >= 2.0 * base
    _verdict(
        6,
        "closeness P@20 >= 2x manager base rate in >= 18/20 worlds",
        passes >= 18,
        f"{passes}/20, min P@20 {worst:.2f}",
    )


def test_a07_hidden_manager_bookkeeping_identity(closeness_rankings):
    exact = 0
    for ranked, labels, disclosure in closeness_rankings:
        report = hidden_manager_report(ranked, labels, disclosure, k=20)
        managers = [v for v in ranked.top(20) if labels[v]]
        if not managers:
            exact += report.hidden_fraction == 0.0
            continue
        disclosed = sum(disclosure[v] for v in managers)
        # exact rational identity: hidden fraction is 1 - observed disclosure
        identity = Fraction(report.hidden_count, report.managers_in_top_k) == (
            1 - Fraction(disclosed, len(managers))
        )
        consistent = (
            report.managers_in_top_k == len(managers)
            and report.hidden_count == len(managers) - disclosed
            and report.hidden_fraction
            == report.hidden_count / report.managers_in_top_k
        )
        exact += identity and consistent
    _verdict(
        7,
        "hidden fraction equals 1 - observed disclosure in every world",
        exact == len(closeness_rankings),
        f"{exact}/{len(closeness_rankings)} exact",
    )


# -- 8: evaluation protocol ---------------------------------------------------------


def test_a08_zero_r_baseline_and_metric_agreement():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(97, 8))
    y = np.zeros(97, dtype=int)
    y[:29] = 1
    rng.shuffle(y)
    row = cross_validate("zero-r", X, y, folds=10, seed=0)
    majority = max(np.mean(y), 1.0 - np.mean(y))
    zero_r_ok = (
        row.accuracy == 100.0 * majority
        and row.f1 == 0.0
        and abs(row.auc - 0.5) <= 1e-12
    )

    agree = 0.0
    for i in range(100):
        r = np.random.default_rng(i)
        n = int(r.integers(8, 60))
        scores = np.round(r.normal(size=n), 1)  # coarse grid forces ties
        labels = r.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        agree = max(
            agree, abs(auc_rank_statistic(scores, labels) - bf.auc_trapezoid(scores, labels))
        )

    stratified_ok = True
    for i in range(50):
        r = np.random.default_rng(100 + i)
        n = int(r.integers(20, 200))
        labels = (r.random(n) < r.uniform(0.1, 0.9)).astype(int)
        folds = int(r.integers(2, 11))
        ids = stratified_folds(labels, folds, seed=i)
        ratio = labels.mean()
        for f in range(folds):
            mask = ids == f
            stratified_ok &= abs(labels[mask].sum() - mask.sum() * ratio) <= 1.0

    _verdict(
        8,
        "zero-r exact baseline, rank AUC == trapezoid <= 1e-9, folds stratified",
        zero_r_ok and agree <= 1e-9 and stratified_ok,
        f"auc gap {agree:.1e}",
    )


# -- 9: classifiers find the signal -------------------------------------------------


def test_a09_trained_classifiers_beat_chance_by_frozen_margin():
    threshold = 0.5 + FROZEN_AUC_MARGIN
    mins = {"logistic": 1.0, "random-forest": 1.0}
    for seed in range(10):
        world = generate_world(leadership_world_spec(seed, size=500))
        members = sorted(world.truth.all_members())
        sub = world.graph.subgraph(members)
        table = centrality_table(sub, CentralityConfig(tol=1e-10, max_iter=100000))
        labels = {v: v in world.truth.managers for v in members}
        X, y = build_instances(table, labels)
        for kind in mins:
            row = cross_validate(kind, X, y, folds=10, seed=seed)
            mins[kind] = min(mins[kind], row.auc)
    _verdict(
        9,
        f"logistic and random-forest 10-fold AUC > {threshold:.2f} on 10 worlds",
        all(v > threshold for v in mins.values()),
        f"min logistic {mins['logistic']:.4f}, min rf {mins['random-forest']:.4f}",
    )


# -- 10: community recovery and roles -----------------------------------------------


def test_a10_planted_communities_and_roles_recovered():
    recovered = 0
    for seed in range(10):
        world = generate_world(two_community_spec(seed))
        members = sorted(world.truth.all_members())
        sub = world.graph.subgraph(members)
        part = detect_communities(sub)
        truth = {v: world.truth.node_community[v] for v in members}
        found = {v: part.community_of(v) for v in members}
        recovered += adjusted_rand_index(found, truth) > 0.8

    qualifying = hits = 0
    for seed in range(10):
        world = generate_world(two_community_spec(seed, disclosure=0.4))
        members = sorted(world.truth.all_members())
        sub = world.graph.subgraph(members)
        part = detect_communities(sub)
        groups = part.communities()
        for role in infer_roles(sub, part):
            if role.low_confidence or role.position is None:
                continue
            qualifying += 1
            planted = Counter(
                world.truth.node_community[v] for v in groups[role.community]
            ).most_common(1)[0][0]
            hits += role.position == world.truth.communities[planted].category

    _verdict(
        10,
        "ARI > 0.8 in >= 9/10 seeds, >= 80% of qualifying communities roled",
        recovered >= 9 and qualifying > 0 and hits >= 0.8 * qualifying,
        f"ARI ok {recovered}/10, roles {hits}/{qualifying}",
    )


# -- 11: end-to-end determinism -----------------------------------------------------


def test_a11_pipeline_rerun_is_byte_identical(tmp_path):
    started = time.time()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(two_community_spec(0).to_dict()))
    cfg = PipelineConfig(
        out_dir=str(tmp_path / "a"),
        world_spec=str(spec_path),
        master_seed=11,
        crawl=CrawlSettings(max_fetches=300),
    )
    first = run_pipeline(cfg)
    second = run_pipeline(
        PipelineConfig.from_dict({**cfg.to_dict(), "out_dir": str(tmp_path / "b")})
    )
    identical = set(first.artifacts) == set(second.artifacts) and all(
        (first.out_dir / name).read_bytes() == (second.out_dir / name).read_bytes()
        for name in first.artifacts
    )
    elapsed = time.time() - started
    _verdict(
        11,
        "pipeline rerun byte-identical across directories",
        identical and elapsed < 30,
        f"{len(first.artifacts)} artifacts, {elapsed:.1f}s",
    )
