import functools
import gc
import heapq
import itertools
import json
import re
import time
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from orgminer import (
    CrawlConfig,
    CrawlError,
    OrgSpec,
    Profile,
    StateError,
    WorldSpec,
    bfs_crawl,
    crawl,
    generate_world,
    resume,
    save_state,
)
from orgminer.crawler import CrawlState, Frontier, _matcher
from orgminer.synthworld import InMemorySource
from orgminer.graph import GraphError, SocialGraph
from orgminer.utils import normalize_text, stable_json

from conftest import crawl_world_spec, org_members, write_half_then_fail
from test_graph import MALFORMED_PROFILES
from test_pinned_outputs import crawl_world


def make_source(nodes, edges, employers):
    profiles = {
        v: Profile(node=v, employers=tuple(employers.get(v, ())))
        for v in nodes
    }
    g = SocialGraph(nodes, edges, profiles)
    return InMemorySource(g, fingerprint="test-src")


# -- keyword matching ---------------------------------------------------------


def test_keyword_match_case_and_whitespace_folding():
    p = Profile(node=0, employers=("BGU  ISE",))
    assert _matcher(["bgu ise"])(p)


def test_keyword_match_empty_employers():
    assert not _matcher(["anything"])(Profile(node=0))


def test_keyword_match_substring():
    p = Profile(node=0, employers=("works at AcmeCorp",))
    assert _matcher(["AcmeCorp"])(p)


def test_keyword_match_checks_position_and_name_too():
    p = Profile(node=0, name="Acme fan club", position="engineer at acme")
    assert _matcher(["acme"])(p)
    assert not _matcher(["globex"])(p)


# Reference implementations: a regex normalizer and a matcher that normalizes
# every field and keyword on each call. Keyword matching must agree with them.
_REF_WS = re.compile(r"\s+")


def ref_normalize(text):
    return _REF_WS.sub(" ", text.casefold()).strip()


def ref_keyword_match(profile, keywords):
    fields = [ref_normalize(t) for t in profile.text_fields()]
    for kw in keywords:
        needle = ref_normalize(kw)
        if needle and any(needle in f for f in fields):
            return True
    return False


def test_split_whitespace_is_regex_whitespace_on_every_code_point():
    every = "".join(map(chr, range(0x110000)))
    assert [c for c in every if c.isspace()] == re.findall(r"\s", every)


# Separators, Unicode spaces, and letters whose case folding changes length.
_TRICKY = st.lists(
    st.sampled_from(
        list("\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u00df\u0130\n\t")
        + ["  ", "   ", "a", "A", "c", "me", "ss", "i", "\u0307", " corp"]
    ),
    max_size=12,
).map("".join)


@given(
    employers=st.lists(_TRICKY, max_size=3),
    name=_TRICKY,
    position=_TRICKY,
    keywords=st.lists(st.one_of(_TRICKY, st.sampled_from(["", " ", "\u3000 \x85"])),
                      max_size=4),
)
def test_keyword_match_equals_the_regex_reference(employers, name, position, keywords):
    p = Profile(node=0, employers=tuple(employers), name=name, position=position)
    for text in (*employers, name, position, *keywords):
        assert normalize_text(text) == ref_normalize(text)
    assert _matcher(keywords)(p) == ref_keyword_match(p, keywords)


_GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\u3000", "\x85\xa0", "\u2028 "])


@given(
    words=st.lists(st.sampled_from(["acme", "Corp", "stra\u00dfe", "\u0130nc", "x"]),
                   min_size=1, max_size=3),
    gaps=st.lists(_GAPS, min_size=1, max_size=3),
    prefix=_TRICKY,
    suffix=_TRICKY,
)
def test_keyword_prefilter_keeps_every_case_and_whitespace_variant(words, gaps, prefix, suffix):
    # the keyword's words, case-swapped (so casefold changes length) and
    # split by other whitespace runs: a match once both sides are normalized
    cycle = itertools.cycle(gaps)
    text = prefix + " " + "".join(w.swapcase() + next(cycle) for w in words) + suffix
    p = Profile(node=0, employers=(text,), name=prefix)
    keyword = " ".join(words)
    assert _matcher([keyword])(p)
    assert ref_keyword_match(p, [keyword])


def test_keyword_match_ignores_empty_and_blank_keywords():
    p = Profile(node=0, employers=("acme",))
    assert not _matcher(["", "  ", "\u3000\x85"])(p)
    assert _matcher(["", " ACME "])(p)


def test_keyword_never_matches_across_two_fields():
    p = Profile(node=0, employers=("acme", "corp"))
    assert not _matcher(["acme corp"])(p)
    assert not _matcher(["acme\ncorp"])(p)


# -- frontier -----------------------------------------------------------------


class TupleFrontier:
    """Reference frontier on ``(-priority, seq, node)`` tuple rows."""

    def __init__(self):
        self._heap = []  # (-priority, seq, node)
        self._entries = {}  # node -> (priority, seq)
        self._next_seq = 0

    def __len__(self):
        return len(self._entries)

    def push(self, node, priority):
        if node in self._entries:
            raise CrawlError(f"node {node} already queued")
        seq = self._next_seq
        self._next_seq += 1
        self._entries[node] = (priority, seq)
        heapq.heappush(self._heap, (-priority, seq, node))

    def increase(self, node, by=1):
        priority, seq = self._entries[node]
        self._entries[node] = (priority + by, seq)
        heapq.heappush(self._heap, (-(priority + by), seq, node))

    def _clean_top(self):
        while self._heap:
            neg, seq, node = self._heap[0]
            if self._entries.get(node) == (-neg, seq):
                return
            heapq.heappop(self._heap)

    def pop(self):
        self._clean_top()
        if not self._heap:
            raise CrawlError("frontier is empty")
        neg, seq, node = heapq.heappop(self._heap)
        del self._entries[node]
        return node, -neg, seq

    def max_priority(self):
        self._clean_top()
        return -self._heap[0][0] if self._heap else None

    def items(self):
        return {node: prio for node, (prio, _) in self._entries.items()}

    def dump(self):
        rows = sorted((seq, node, prio) for node, (prio, seq) in self._entries.items())
        return {"next_seq": self._next_seq,
                "entries": [[node, prio, seq] for seq, node, prio in rows]}

    @classmethod
    def restore(cls, data):
        f = cls()
        for node, prio, seq in data["entries"]:
            f._entries[int(node)] = (int(prio), int(seq))
            heapq.heappush(f._heap, (-int(prio), int(seq), int(node)))
        f._next_seq = int(data["next_seq"])
        return f


_PRIORITY = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
_FRONTIER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5), _PRIORITY),
        st.tuples(st.just("increase"), st.integers(0, 5), st.one_of(
            st.integers(-2, 3), st.integers(-2**60, 2**60))),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(st.just("max"), st.just(0), st.just(0)),
        st.tuples(st.just("restore"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


def _outcome(call, *args):
    try:
        return call(*args)
    except (CrawlError, KeyError) as exc:
        return type(exc)


@given(_FRONTIER_OPS)
@settings(max_examples=200)
@example([("push", 0, 5), ("increase", 0, -3), ("pop", 0, 0)])
def test_frontier_equals_the_tuple_heap_reference(ops):
    f, ref = Frontier(), TupleFrontier()
    for op, node, value in ops:
        if op == "restore":
            f = Frontier.restore(json.loads(json.dumps(f.dump())))
            ref = TupleFrontier.restore(json.loads(json.dumps(ref.dump())))
        elif op in ("push", "increase"):
            assert _outcome(getattr(f, op), node, value) == _outcome(
                getattr(ref, op), node, value)
        elif op == "pop":
            assert _outcome(f.pop) == _outcome(ref.pop)
        else:
            assert f.max_priority() == ref.max_priority()
        assert len(f) == len(ref)
        assert f.items() == ref.items()
        assert f.dump() == ref.dump()
    assert [f.pop() for _ in range(len(f))] == [ref.pop() for _ in range(len(ref))]



def test_frontier_max_priority_then_fifo():
    f = Frontier()
    f.push(10, 1)
    f.push(11, 1)
    f.push(12, 3)
    f.increase(11)
    # 12 has priority 3; 11 was bumped to 2; 10 stays at 1
    assert f.pop() == (12, 3, 2)
    assert f.pop() == (11, 2, 1)
    assert f.pop() == (10, 1, 0)


def test_frontier_fifo_among_ties():
    f = Frontier()
    for v in (5, 3, 9):
        f.push(v, 1)
    assert [f.pop()[0] for _ in range(3)] == [5, 3, 9]


def test_frontier_single_entry_per_node():
    f = Frontier()
    f.push(1, 1)
    with pytest.raises(CrawlError):
        f.push(1, 1)  # re-push is a bug, not a no-op
    assert len(f) == 1
    f.increase(1)
    assert f.items() == {1: 2}
    assert f.pop() == (1, 2, 0)
    assert len(f) == 0


@pytest.mark.parametrize("node", [-(2**63) - 1, 2**63])
def test_frontier_rejects_node_ids_outside_the_key_range(node):
    f = Frontier()
    with pytest.raises(CrawlError):
        f.push(node, 1)
    assert len(f) == 0
    for v in (2**63 - 1, -(2**63), -1, 0):
        f.push(v, 1)
    assert [f.pop() for _ in range(4)] == [
        (2**63 - 1, 1, 0), (-(2**63), 1, 1), (-1, 1, 2), (0, 1, 3)]
    f = Frontier.restore(
        {"next_seq": 2, "entries": [[-(2**63), 3, 0], [2**63 - 1, 3, 1]]}
    )
    assert [f.pop() for _ in range(2)] == [(-(2**63), 3, 0), (2**63 - 1, 3, 1)]


def test_frontier_restore_takes_plain_ints_only():
    with pytest.raises(StateError):
        Frontier.restore({"next_seq": 3, "entries": [[5.7, 1, 0], ["7", True, 1], [9, 2.9, 2]]})
    for row in ([5.7, 1, 0], ["7", 1, 0], [7, True, 0], [9, 2.9, 0], [9, 1, False]):
        with pytest.raises(StateError):
            Frontier.restore({"next_seq": 3, "entries": [row]})
    for next_seq in (True, 3.0, "3", None):
        with pytest.raises(StateError):
            Frontier.restore({"next_seq": next_seq, "entries": []})


def test_frontier_restore_allocates_nothing_per_seq():
    tracemalloc.start()
    try:
        f = Frontier.restore({"next_seq": 2**48 - 1, "entries": [[1, 0, 0]]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert f.pop() == (1, 0, 0)
    assert f.dump() == {"next_seq": 2**48 - 1, "entries": []}


def test_crawl_and_resume_over_negative_node_ids(tmp_path):
    src = make_source([-5, -1, 3], [(-5, -1), (-5, 3), (-1, 3)],
                      {-5: ("acme",), -1: ("acme",), 3: ("acme",)})
    cfg = CrawlConfig(seeds=[-5], keywords=["acme"])
    full = crawl(src, cfg)
    assert full.graph.nodes == (-5, -1, 3)
    assert full.graph.num_edges == 3
    part = crawl(src, CrawlConfig(seeds=[-5], keywords=["acme"], max_fetches=1))
    assert part.stats.truncated
    path = tmp_path / "state.json"
    save_state(part.state, path)
    done = crawl(src, cfg, state=resume(path, src))
    assert done.state.to_json_bytes() == full.state.to_json_bytes()


# -- crawl basics -------------------------------------------------------------


def test_single_matching_seed_no_friends():
    src = make_source([0], [], {0: ("acme",)})
    res = crawl(src, CrawlConfig(seeds=[0], keywords=["acme"]))
    assert res.graph.nodes == (0,)
    assert res.graph.num_edges == 0
    assert res.stats.fetched == 1
    assert res.stats.confirmed == 1
    assert res.stats.precision == 1.0


def test_nonmatching_profiles_not_expanded():
    # 0 matches, 1 does not; 1's friend 2 must never be fetched.
    src = make_source([0, 1, 2], [(0, 1), (1, 2)], {0: ("acme",)})
    res = crawl(src, CrawlConfig(seeds=[0], keywords=["acme"]))
    assert res.stats.fetched == 2
    assert res.stats.confirmed == 1
    assert 2 not in res.state.crawled


def test_output_graph_only_confirmed_members_and_their_edges():
    employers = {0: ("acme",), 1: ("acme",), 3: ("acme",)}
    src = make_source([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)], employers)
    res = crawl(src, CrawlConfig(seeds=[0], keywords=["acme"]))
    assert set(res.graph.nodes) == {0, 1, 3}
    assert res.graph.edges() == [(0, 1), (1, 3)]  # 2 is not a member


def test_missing_profile_skipped_and_counted():
    g = SocialGraph([0, 1], [(0, 1)], {0: Profile(node=0, employers=("acme",))})
    src = InMemorySource(g, fingerprint="x")
    res = crawl(src, CrawlConfig(seeds=[0, 99], keywords=["acme"]))
    assert res.stats.not_found == 1
    assert res.stats.confirmed == 1


def test_budget_stop_sets_truncated():
    world = generate_world(crawl_world_spec(0))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=5)
    res = crawl(world.fresh_source(), cfg)
    assert res.stats.fetched == 5
    assert res.stats.truncated
    assert res.stats.stop_reason == "budget"


def test_no_node_fetched_twice():
    world = generate_world(crawl_world_spec(1))
    seeds = org_members(world)[:3]
    seen = []
    crawl(world.fresh_source(), CrawlConfig(seeds=seeds, keywords=["acme"]),
          audit_hook=lambda state, node: seen.append(node))
    assert len(seen) == len(set(seen))


def test_priority_equals_confirmed_neighbor_count():
    world = generate_world(crawl_world_spec(2))
    adj = {v: set(world.graph.sorted_neighbors(v)) for v in world.graph.nodes}
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])

    def check(state, node):
        for cand, pr in state.frontier.items().items():
            expect = sum(1 for m in state.confirmed if m in adj[cand])
            if cand in cfg.seeds:
                expect += cfg.seed_priority  # enqueue bonus persists
            assert pr == expect

    crawl(world.fresh_source(), cfg, audit_hook=check)


def test_width_one_determinism():
    world = generate_world(crawl_world_spec(3))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    a = crawl(world.fresh_source(), cfg)
    b = crawl(world.fresh_source(), cfg)
    assert a.graph == b.graph
    assert a.stats == b.stats


def test_wider_crawl_confirms_same_members_on_closed_world():
    # Org reachable only through members: concurrency cannot change the set.
    spec = WorldSpec(
        total_population=40,
        orgs=(OrgSpec(("acme",), size=40, intra_community_edge_prob=0.3),),
        rng_seed=4,
    )
    world = generate_world(spec)
    seeds = org_members(world)[:2]
    narrow = crawl(world.fresh_source(), CrawlConfig(seeds=seeds, keywords=["acme"]))
    wide = crawl(world.fresh_source(),
                 CrawlConfig(seeds=seeds, keywords=["acme"], concurrency_width=4))
    assert set(narrow.graph.nodes) == set(wide.graph.nodes)


@pytest.mark.parametrize("width", [1, 4])
def test_state_edges_hold_each_kept_edge_once_smaller_id_first(width):
    world = generate_world(crawl_world_spec(3))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], concurrency_width=width)
    part = crawl(world.fresh_source(), replace(cfg, max_fetches=40))
    state = CrawlState._read(part.state.to_json_bytes())
    for res in (crawl(world.fresh_source(), cfg), crawl(world.fresh_source(), cfg, state)):
        edges = res.state.edges
        assert isinstance(edges, array) and edges.typecode == "q"
        pairs = list(zip(edges[::2], edges[1::2]))
        assert all(u < v for u, v in pairs)
        assert sorted(pairs) == res.graph.edges() and len(pairs) > 50


class LastFirstSource:
    """Wraps a source so that, in each group of four fetches, the later a
    fetch starts the sooner it finishes."""

    def __init__(self, inner):
        self.inner = inner
        self.fingerprint = inner.fingerprint
        self._calls = itertools.count()

    @property
    def fetch_count(self) -> int:
        return self.inner.fetch_count

    def fetch_profile(self, node):
        time.sleep(0.01 * (3 - next(self._calls) % 4))
        return self.inner.fetch_profile(node)


class FailingSource:
    """Wraps a source so that its ``fail_at``-th fetch raises ConnectionError."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fingerprint = inner.fingerprint
        self.fail_at = fail_at
        self._calls = itertools.count(1)

    @property
    def fetch_count(self) -> int:
        return self.inner.fetch_count

    def fetch_profile(self, node):
        if next(self._calls) == self.fail_at:
            raise ConnectionError(f"fetch {self.fail_at} dropped")
        return self.inner.fetch_profile(node)


@pytest.mark.parametrize("width", [1, 4])
def test_interrupted_crawl_resumes_to_the_uninterrupted_bytes(tmp_path, width):
    world, cfg = crawl_world(1)
    cfg = replace(cfg, concurrency_width=width)
    full = crawl(world.fresh_source(), cfg)
    assert full.stats.fetched == 946
    path = tmp_path / "state.json"
    for k in (1, 2, 3, 4, 5, 199, 200, 613, 945, 946):
        src = FailingSource(world.fresh_source(), k)
        state = CrawlState.fresh(cfg, src.fingerprint)
        with pytest.raises(ConnectionError):
            crawl(src, cfg, state)
        # nothing of the failed batch is applied, nor is any of it crawled
        assert len(state.crawled) == state.fetch_count < k
        save_state(state, path)
        src = world.fresh_source()
        done = crawl(src, cfg, resume(path, src))
        assert done.state.to_json_bytes() == full.state.to_json_bytes(), k


@pytest.mark.parametrize("runner", [crawl, bfs_crawl])
def test_wide_crawl_applies_results_in_pop_order(runner):
    world = generate_world(crawl_world_spec(4))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=60,
                      concurrency_width=4)
    plain = runner(world.fresh_source(), cfg)
    shuffled = runner(LastFirstSource(world.fresh_source()), cfg)
    assert shuffled.state.to_json_bytes() == plain.state.to_json_bytes()


# -- bfs baseline -------------------------------------------------------------


def test_bfs_same_members_on_closed_clique_world():
    spec = WorldSpec(
        total_population=12,
        orgs=(OrgSpec(("acme",), size=12, intra_community_edge_prob=1.0),),
        rng_seed=0,
    )
    world = generate_world(spec)
    seeds = [world.truth.members[0][0]]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    a = crawl(world.fresh_source(), cfg)
    b = bfs_crawl(world.fresh_source(), cfg)
    assert set(a.graph.nodes) == set(b.graph.nodes) == set(world.truth.members[0])


def test_empty_friend_lists_fetch_only_seeds():
    src = make_source([0, 1, 2], [], {0: ("acme",), 1: ("acme",)})
    cfg = CrawlConfig(seeds=[0, 1], keywords=["acme"])
    res_v1 = crawl(src, cfg)
    assert res_v1.stats.fetched == 2
    src2 = make_source([0, 1, 2], [], {0: ("acme",), 1: ("acme",)})
    res_bfs = bfs_crawl(src2, cfg)
    assert res_bfs.stats.fetched == 2


def test_v1_beats_bfs_on_noisy_world():
    world = generate_world(crawl_world_spec(5))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=120)
    v1 = crawl(world.fresh_source(), cfg)
    bfs = bfs_crawl(world.fresh_source(), cfg)
    assert v1.stats.precision > bfs.stats.precision


# -- version 2 stopping -------------------------------------------------------


def test_v2_stops_on_sterile_window():
    world = generate_world(crawl_world_spec(6))
    seeds = org_members(world)[:3]
    v1 = crawl(world.fresh_source(),
               CrawlConfig(seeds=seeds, keywords=["acme"], version="v1"))
    v2 = crawl(world.fresh_source(),
               CrawlConfig(seeds=seeds, keywords=["acme"], version="v2",
                           window_size=40))
    assert v2.stats.stop_reason == "window-stop"
    assert v2.stats.fetched < v1.stats.fetched
    assert v2.state.confirmed == v1.state.confirmed  # stop is a pure suffix cut


def test_v2_stop_is_suffix_cut():
    world = generate_world(crawl_world_spec(7))
    seeds = org_members(world)[:3]
    v2 = crawl(world.fresh_source(),
               CrawlConfig(seeds=seeds, keywords=["acme"], version="v2",
                           window_size=30))
    replay = crawl(world.fresh_source(),
                   CrawlConfig(seeds=seeds, keywords=["acme"], version="v1",
                               max_fetches=v2.stats.fetched))
    assert v2.state.confirmed == replay.state.confirmed


def _sterile_window_crawl(runner, k=None, tmp_path=None):
    """A v2 crawl that stops by window, straight or checkpointed after ``k``.

    Returns the result and, per fetch, whether the sterile-window condition
    held, recomputed from the whole window."""
    world = generate_world(crawl_world_spec(6))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], version="v2", window_size=40)
    ready = []

    def audit(state, node):
        top = state.frontier.max_priority()
        ready.append(len(state.window) == 40 and not any(state.window)
                     and (top is None or top <= 1))

    src = world.fresh_source()
    state = None
    if k is not None:
        part = runner(src, replace(cfg, max_fetches=k), audit_hook=audit)
        save_state(part.state, tmp_path / "state.json")
        state = resume(tmp_path / "state.json", src)
    return runner(src, cfg, state=state, audit_hook=audit), ready


@pytest.mark.parametrize("runner", [crawl, bfs_crawl])
def test_v2_stops_at_the_first_sterile_window(runner):
    res, ready = _sterile_window_crawl(runner)
    assert res.stats.stop_reason == "window-stop"
    assert ready.index(True) == len(ready) - 1 == res.stats.fetched - 1


# On this world the FIFO crawl's last confirmation is 40 fetches before its
# stop, so its checkpoints resume with confirmations still in the window; the
# focused crawl's last one is 166 fetches before, inside ``back`` 170's window.
@pytest.mark.parametrize("back", [1, 20, 39, 45, 60, 170])
@pytest.mark.parametrize("runner", [crawl, bfs_crawl])
def test_v2_checkpoint_inside_the_window_resumes_to_the_same_bytes(
    tmp_path, runner, back
):
    straight, _ = _sterile_window_crawl(runner)
    resumed, ready = _sterile_window_crawl(runner, straight.stats.fetched - back, tmp_path)
    assert ready.index(True) == len(ready) - 1
    assert resumed.state.to_json_bytes() == straight.state.to_json_bytes()


# -- save / resume ------------------------------------------------------------


def test_save_at_zero_fetches_resumes_to_identical_run(tmp_path):
    world = generate_world(crawl_world_spec(8))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    fresh = crawl(world.fresh_source(), cfg)

    from orgminer.crawler import CrawlState
    src = world.fresh_source()
    state = CrawlState.fresh(cfg, src.fingerprint, strategy="priority")
    path = tmp_path / "state.json"
    save_state(state, path)
    resumed = crawl(src, cfg, state=resume(path, src))
    assert resumed.graph == fresh.graph


def test_save_state_failing_midway_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    world = generate_world(crawl_world_spec(8))
    seeds = org_members(world)[:3]
    src = world.fresh_source()
    first = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=3))
    path = tmp_path / "state.json"
    save_state(first.state, path)
    saved = path.read_bytes()
    later = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"]), state=first.state)
    assert later.state.to_json_bytes() != saved
    monkeypatch.setattr(type(path), "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_state(later.state, path)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


@pytest.mark.parametrize("k", [1, 9, 23])
def test_mid_crawl_resume_matches_uninterrupted(tmp_path, k):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    full = crawl(world.fresh_source(), cfg)

    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=k))
    assert part.stats.truncated
    path = tmp_path / "state.json"
    save_state(part.state, path)
    done = crawl(src, cfg, state=resume(path, src))
    assert done.state.confirmed == full.state.confirmed
    assert done.graph == full.graph


@pytest.mark.parametrize("k", [1, 9, 23])
def test_fifo_mid_crawl_resume_matches_uninterrupted(tmp_path, k):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    full = bfs_crawl(world.fresh_source(), cfg)

    src = world.fresh_source()
    part = bfs_crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=k))
    assert part.stats.truncated
    path = tmp_path / "state.json"
    save_state(part.state, path)
    done = bfs_crawl(src, cfg, state=resume(path, src))
    assert done.state.to_json_bytes() == full.state.to_json_bytes()


def test_fifo_resumes_from_renumbered_queue(tmp_path):
    # Older FIFO states number their queue 0..n-1 at priority 0 and set
    # next_seq to the queue length; they must resume in the same order.
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"])
    full = bfs_crawl(world.fresh_source(), cfg)

    src = world.fresh_source()
    part = bfs_crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=9))
    payload = json.loads(part.state.to_json_bytes())
    queue = [node for node, _prio, _seq in payload["frontier"]["entries"]]
    assert queue and min(s for _, _, s in payload["frontier"]["entries"]) > 0
    payload["frontier"] = {
        "entries": [[node, 0, i] for i, node in enumerate(queue)],
        "next_seq": len(queue),
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload, indent=1))
    done = bfs_crawl(src, cfg, state=resume(path, src))
    assert done.graph == full.graph
    assert done.state.crawled == full.state.crawled
    assert done.stats == full.stats


def _corrupt_duplicate_seq(frontier):
    frontier["entries"][1][2] = frontier["entries"][0][2]


def _corrupt_duplicate_node(frontier):
    frontier["entries"][1][0] = frontier["entries"][0][0]


def _corrupt_negative_seq(frontier):
    frontier["entries"][0][2] = -1


def _corrupt_seq_at_next_seq(frontier):
    frontier["entries"][-1][2] = frontier["next_seq"]


def _corrupt_huge_next_seq(frontier):
    frontier["next_seq"] = 2**48


def _corrupt_long_row(frontier):
    frontier["entries"][0].append(0)


def _corrupt_negative_node(frontier):
    frontier["entries"][0][0] = -(2**63) - 1


def _corrupt_huge_node(frontier):
    frontier["entries"][0][0] = 2**63


def _corrupt_float_node(frontier):
    frontier["entries"][0][0] += 0.5


def _corrupt_string_node(frontier):
    frontier["entries"][0][0] = str(frontier["entries"][0][0])


def _corrupt_bool_priority(frontier):
    frontier["entries"][0][1] = True


def _corrupt_float_priority(frontier):
    frontier["entries"][0][1] += 0.9


def _corrupt_float_seq(frontier):
    frontier["entries"][0][2] = float(frontier["entries"][0][2])


def _corrupt_string_next_seq(frontier):
    frontier["next_seq"] = str(frontier["next_seq"])


def _corrupt_float_next_seq(frontier):
    frontier["next_seq"] = float(frontier["next_seq"])


def _in_frontier(corrupt):
    """``corrupt`` applied to the frontier of a state payload."""
    @functools.wraps(corrupt)
    def on_payload(payload):
        corrupt(payload["frontier"])
    return on_payload


def _corrupt_float_crawled(payload):
    payload["crawled"][0] = float(payload["crawled"][0])


def _corrupt_string_confirmed(payload):
    payload["confirmed"][0] = str(payload["confirmed"][0])


def _corrupt_bool_edge(payload):
    payload["edges"][0][1] = True


def _corrupt_short_edge(payload):
    payload["edges"][0].pop()


def _corrupt_float_window(payload):
    payload["window"][0] = float(payload["window"][0])


def _corrupt_window_flag(payload):
    payload["window"][0] = 2


def _corrupt_string_fetch_count(payload):
    payload["fetch_count"] = str(payload["fetch_count"])


def _corrupt_bool_not_found(payload):
    payload["not_found"] = False


def _corrupt_float_not_found(payload):
    payload["not_found"] = 0.0


def _corrupt_confirmed_never_crawled(payload):
    payload["confirmed"].append(max(payload["crawled"]) + 1)


def _corrupt_edge_to_unknown_nodes(payload):
    payload["edges"].append([10**9, 10**9 + 1])


def _corrupt_reversed_edge(payload):
    payload["edges"][0].reverse()


def _corrupt_repeated_edge(payload):
    payload["edges"].append(list(payload["edges"][0]))


def _corrupt_profile_key(payload):
    key = next(iter(payload["profiles"]))
    payload["profiles"][f" +{key}"] = payload["profiles"].pop(key)


def _corrupt_profile_node(payload):
    next(iter(payload["profiles"].values()))["node"] += 1


def _corrupt_profile_of_unconfirmed_node(payload):
    node = max(payload["crawled"]) + 1
    payload["profiles"][str(node)] = {**next(iter(payload["profiles"].values())), "node": node}


def _corrupt_confirmed_node_without_profile(payload):
    payload["profiles"].pop(next(iter(payload["profiles"])))


def _corrupt_crawled_node_in_frontier(payload):
    payload["frontier"]["entries"][0][0] = payload["crawled"][0]


def _corrupt_fetch_count(payload):
    payload["fetch_count"] += 1


def _corrupt_window_longer_than_fetches(payload):
    payload["window"].append(0)


def _corrupt_int_fingerprint(payload):
    payload["fingerprint"] = 5


def _corrupt_list_fingerprint(payload):
    payload["fingerprint"] = ["x"]


@pytest.mark.parametrize("corrupt", [
    *map(_in_frontier, [
        _corrupt_duplicate_seq, _corrupt_duplicate_node, _corrupt_negative_seq,
        _corrupt_seq_at_next_seq, _corrupt_huge_next_seq, _corrupt_long_row,
        _corrupt_negative_node, _corrupt_huge_node, _corrupt_float_node,
        _corrupt_string_node, _corrupt_bool_priority, _corrupt_float_priority,
        _corrupt_float_seq, _corrupt_string_next_seq, _corrupt_float_next_seq,
    ]),
    _corrupt_float_crawled, _corrupt_string_confirmed, _corrupt_bool_edge,
    _corrupt_short_edge, _corrupt_float_window, _corrupt_window_flag,
    _corrupt_string_fetch_count, _corrupt_bool_not_found, _corrupt_float_not_found,
    _corrupt_confirmed_never_crawled, _corrupt_edge_to_unknown_nodes, _corrupt_reversed_edge,
    _corrupt_repeated_edge,
    _corrupt_profile_key, _corrupt_profile_node, _corrupt_int_fingerprint,
    _corrupt_list_fingerprint, _corrupt_profile_of_unconfirmed_node,
    _corrupt_confirmed_node_without_profile, _corrupt_crawled_node_in_frontier,
    _corrupt_fetch_count, _corrupt_window_longer_than_fetches,
])
def test_resume_rejects_a_malformed_frontier(tmp_path, corrupt):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=9))
    payload = json.loads(part.state.to_json_bytes())
    assert len(payload["frontier"]["entries"]) >= 2
    assert payload["edges"] and 1 in payload["window"] and payload["confirmed"]
    corrupt(payload)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError):  # the decode rejects it, before any fingerprint check
        CrawlState._read(path.read_bytes())
    with pytest.raises(StateError):
        resume(path, src)


def test_resume_rejects_other_strategy(tmp_path):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=4)
    src = world.fresh_source()
    path = tmp_path / "state.json"
    save_state(bfs_crawl(src, cfg).state, path)
    with pytest.raises(StateError):
        crawl(src, cfg, state=resume(path, src))


def test_resume_against_other_world_rejected(tmp_path):
    world_a = generate_world(crawl_world_spec(10))
    world_b = generate_world(crawl_world_spec(11))
    seeds = org_members(world_a)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=4)
    res = crawl(world_a.fresh_source(), cfg)
    path = tmp_path / "state.json"
    save_state(res.state, path)
    with pytest.raises(StateError):
        resume(path, world_b.fresh_source())


def test_resume_rejects_changed_fixed_config(tmp_path):
    world = generate_world(crawl_world_spec(12))
    seeds = org_members(world)[:3]
    res = crawl(world.fresh_source(),
                CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=4))
    path = tmp_path / "state.json"
    save_state(res.state, path)
    src = world.fresh_source()
    state = resume(path, src)
    with pytest.raises(StateError):
        crawl(src, CrawlConfig(seeds=seeds, keywords=["globex"]), state=state)
    # budget may change on resume
    state2 = resume(path, src)
    done = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=8),
                 state=state2)
    assert done.stats.fetched == 8


def test_corrupt_state_file_rejected(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes(b"{ not json")
    world = generate_world(crawl_world_spec(13))
    with pytest.raises(StateError):
        resume(path, world.fresh_source())
    path.write_bytes(b'{"format_version": 99}')
    with pytest.raises(StateError):
        resume(path, world.fresh_source())


@pytest.mark.parametrize("bad", ["not-utf8", "truncated"])
def test_resume_names_the_line_of_a_state_that_is_not_json(tmp_path, bad):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=9))
    data = part.state.to_json_bytes()
    if bad == "not-utf8":
        data, problem = b"\xff" + data, "not UTF-8: invalid start byte at column 1"
    else:
        data, problem = data[: len(data) // 2], "bad JSON: "
    path = tmp_path / "state.json"
    path.write_bytes(data)
    with pytest.raises(StateError, match=f"^{re.escape(f'{path}:1: {problem}')}"):
        resume(path, src)
    with pytest.raises(StateError, match=f"^<bytes>:1: {problem}"):
        CrawlState._read(data)


@pytest.mark.parametrize("config, message", [
    ({"seeds": "12"}, "crawl config setting 'seeds' must be tuple[int, ...], got '12'"),
    ({"speed": 3}, "unknown crawl config settings: ['speed']"),
])
def test_resume_rejects_a_malformed_config(tmp_path, config, message):
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=9))
    payload = json.loads(part.state.to_json_bytes())
    payload["config"].update(config)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError, match=re.escape(message)):
        resume(path, src)


@pytest.mark.parametrize("case", MALFORMED_PROFILES)
def test_resume_rejects_a_malformed_profile(tmp_path, case):
    record, message = MALFORMED_PROFILES[case]
    world = generate_world(crawl_world_spec(9))
    seeds = org_members(world)[:3]
    src = world.fresh_source()
    part = crawl(src, CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=9))
    payload = json.loads(part.state.to_json_bytes())
    payload["profiles"]["5"] = record
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError, match=re.escape(message)):
        resume(path, src)


def test_crawl_config_keeps_its_saved_form():
    # the config object of every crawl state file written so far
    saved = ('{"concurrency_width":1,"keywords":["acme"],"max_fetches":null,'
             '"seed_priority":1,"seeds":[5,2],"version":"v2","window_size":40}')
    cfg = CrawlConfig(seeds=(5, 2), keywords=("acme",), version="v2", window_size=40)
    assert stable_json(cfg.to_dict()) == saved
    assert CrawlConfig.from_dict(json.loads(saved)) == cfg


# -- cyclic GC pause ------------------------------------------------------------


def _collections_during(call):
    """``call()`` and the number of collections that started inside it.

    The count starts from an empty young generation with its threshold at
    20 containers, so a call that allocates hundreds with GC enabled
    starts over ten collections."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(20)
    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = call()
        count = len(started)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(hook)
    return result, count


def test_state_encode_and_decode_run_no_collection():
    world = generate_world(crawl_world_spec(8))
    seeds = org_members(world)[:3]
    state = crawl(world.fresh_source(), CrawlConfig(seeds=seeds, keywords=["acme"])).state
    data, encode_runs = _collections_during(state.to_json_bytes)
    decoded, decode_runs = _collections_during(lambda: CrawlState._read(data))
    assert (encode_runs, decode_runs) == (0, 0)
    assert decoded.to_json_bytes() == data
    # the bare decode of the same bytes, unpaused, starts over ten
    _, unpaused = _collections_during(lambda: json.loads(data))
    assert unpaused > 10


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_setting_survives_every_paused_call(enabled):
    world = generate_world(crawl_world_spec(8))
    seeds = org_members(world)[:3]
    cfg = CrawlConfig(seeds=seeds, keywords=["acme"], max_fetches=20)
    data = crawl(world.fresh_source(), cfg).state.to_json_bytes()
    corrupt_frontier = json.loads(data)
    _corrupt_duplicate_node(corrupt_frontier["frontier"])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        CrawlState._read(data).to_json_bytes()
        assert gc.isenabled() is enabled
        for corrupt in (b"{ not json", json.dumps(corrupt_frontier).encode()):
            with pytest.raises(StateError):
                CrawlState._read(corrupt)
            assert gc.isenabled() is enabled
        with pytest.raises(GraphError):
            SocialGraph([0, 1], [(0, 2)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_config_validation():
    with pytest.raises(CrawlError):
        CrawlConfig(seeds=[], keywords=["a"])
    with pytest.raises(CrawlError):
        CrawlConfig(seeds=[1], keywords=[])
    with pytest.raises(CrawlError):
        CrawlConfig(seeds=[1], keywords=["a"], window_size=0)
    with pytest.raises(CrawlError):
        CrawlConfig(seeds=[1], keywords=["a"], version="v3")


@pytest.mark.parametrize("keywords", [["  "], [""], ["acme", "\u3000\x85"]])
def test_config_rejects_a_keyword_that_normalizes_to_nothing(keywords):
    # such a keyword would match no profile: a crawl would confirm none of its seeds
    with pytest.raises(CrawlError, match="non-whitespace"):
        CrawlConfig(seeds=[1], keywords=keywords)
