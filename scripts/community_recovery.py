#!/usr/bin/env python3
"""Recovery of planted communities and their roles.

For each world seed: plant a two-community org, detect communities on
the member subgraph, score the partition against the planted one with
the adjusted Rand index, and check whether majority-vote role inference
recovers the planted category/location pair for qualifying communities.
"""

from __future__ import annotations

import argparse

from orgminer.community import adjusted_rand_index, detect_communities, infer_roles
from orgminer.synthworld import OrgSpec, WorldSpec, generate_world


def two_community_spec(seed: int, size: int, disclosure: float) -> WorldSpec:
    return WorldSpec(
        total_population=size + 20,
        orgs=(
            OrgSpec(
                name_keywords=("acme",),
                size=size,
                community_count=2,
                intra_community_edge_prob=0.5,
                inter_community_edge_prob=0.02,
                manager_fraction=0.1,
                position_disclosure_rate=disclosure,
                location_labels=("east", "west"),
            ),
        ),
        background_edge_prob=0.005,
        cross_boundary_edge_prob=0.005,
        rng_seed=seed,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--size", type=int, default=80)
    parser.add_argument("--disclosure", type=float, default=0.4)
    args = parser.parse_args()

    print("seed,communities,ari,qualifying,role_hits")
    good_ari = 0
    total_qualifying = total_hits = 0
    for seed in range(args.seeds):
        world = generate_world(two_community_spec(seed, args.size, args.disclosure))
        members = world.truth.members[0]
        g = world.graph.subgraph(members)
        partition = detect_communities(g)
        truth_assignment = {v: world.truth.node_community[v] for v in members}
        ari = adjusted_rand_index(partition.assignment, truth_assignment)
        good_ari += ari > 0.8
        roles = infer_roles(g, partition)
        planted = {
            info.community: (info.category, info.location)
            for info in world.truth.communities.values()
        }
        qualifying = hits = 0
        for role in roles:
            if role.low_confidence:
                continue
            qualifying += 1
            # which planted community does this detected one mostly cover?
            votes: dict[int, int] = {}
            for v, comm in partition.assignment.items():
                if comm == role.community:
                    planted_comm = world.truth.node_community[v]
                    votes[planted_comm] = votes.get(planted_comm, 0) + 1
            dominant = max(sorted(votes), key=lambda c: votes[c])
            if planted[dominant] == (role.position, role.location):
                hits += 1
        total_qualifying += qualifying
        total_hits += hits
        print(f"{seed},{len(partition)},{ari:.4f},{qualifying},{hits}")
    rate = total_hits / total_qualifying if total_qualifying else 0.0
    print(
        f"# ari>0.8 in {good_ari}/{args.seeds}; "
        f"role hits {total_hits}/{total_qualifying} ({rate:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
