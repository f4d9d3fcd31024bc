#!/usr/bin/env python3
"""Leadership detection on planted worlds with boosted managers.

For each world seed: build an org whose managers get a degree boost,
compute the centrality table over the member subgraph, report closeness
precision@k against the planted manager labels, and cross-validate the
classifier suite.  The printed AUC margins for logistic and
random-forest are what the acceptance test pins.
"""

from __future__ import annotations

import argparse

import numpy as np

from orgminer.centrality import CentralityConfig, centrality_table
from orgminer.leadership import (
    build_instances,
    cross_validate,
    precision_at_k,
    rank_nodes,
)
from orgminer.synthworld import OrgSpec, WorldSpec, generate_world


def boosted_world_spec(seed: int, size: int, boost: float) -> WorldSpec:
    return WorldSpec(
        total_population=size + 100,
        orgs=(
            OrgSpec(
                name_keywords=("acme",),
                size=size,
                community_count=5,
                intra_community_edge_prob=0.1,
                inter_community_edge_prob=0.01,
                manager_fraction=0.15,
                manager_degree_boost=boost,
                position_disclosure_rate=0.6,
                location_labels=("east", "west"),
            ),
        ),
        background_edge_prob=0.002,
        cross_boundary_edge_prob=0.01,
        rng_seed=seed,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--size", type=int, default=500)
    parser.add_argument("--boost", type=float, default=3.0)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument(
        "--classifiers", default="logistic,random-forest", help="comma-separated"
    )
    args = parser.parse_args()
    kinds = [k for k in args.classifiers.split(",") if k]

    print("seed,base_rate,p10_cl,p20_cl," + ",".join(f"auc_{k}" for k in kinds))
    p20s, aucs = [], {k: [] for k in kinds}
    for seed in range(args.seeds):
        world = generate_world(boosted_world_spec(seed, args.size, args.boost))
        members = world.truth.members[0]
        g = world.graph.subgraph(members)
        table = centrality_table(g, CentralityConfig(tol=1e-10, max_iter=100000))
        labels = {v: (v in world.truth.managers) for v in members}
        ranked = rank_nodes(table, "cl")
        p10 = precision_at_k(ranked, labels, 10)
        p20 = precision_at_k(ranked, labels, 20)
        p20s.append(p20)
        base = sum(labels.values()) / len(labels)
        X, y = build_instances(table, labels)
        cells = []
        for kind in kinds:
            row = cross_validate(kind, X, y, folds=args.folds, seed=seed)
            aucs[kind].append(row.auc)
            cells.append(f"{row.auc:.4f}")
        print(f"{seed},{base:.4f},{p10:.4f},{p20:.4f}," + ",".join(cells))
    print(f"# min p20 {min(p20s):.4f}")
    for kind in kinds:
        print(f"# auc_{kind}: min {min(aucs[kind]):.4f}, mean {np.mean(aucs[kind]):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
