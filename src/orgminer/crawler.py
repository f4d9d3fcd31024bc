"""Focused crawler that prioritizes candidates by confirmed-member friends.

The frontier is a max-priority queue over int heap keys. A candidate's
priority equals the number of already-confirmed members known to be its
friends, so the crawler fetches the most promising profiles first. Profiles
matching a keyword (normalized once per crawl) are confirmed and their
friend lists feed the frontier; the rest are counted but never expanded.

Stopping:

* ``v1`` stops when the frontier is empty (or the fetch budget runs out);
* ``v2`` additionally stops once every queued candidate has priority <= 1
  and the last ``window_size`` fetches produced no new member. The check
  runs after each completed fetch.

The FIFO baseline (``bfs_crawl``) queues every candidate at priority 0
and never raises it, so the same frontier pops in first-enqueue order.
Widths above 1 fetch a batch in parallel and apply it in pop order, so
every crawl is deterministic.

A state's config decodes as strictly as it was written: an unknown key or
a value of the wrong JSON type is a ``StateError``. Encoding and decoding
a crawl state run with cyclic GC paused (``utils.gc_paused``): the
payload is tens of thousands of acyclic lists and dicts, and without the
pause a checkpoint or resume pays for full collections over every object
of the world being crawled.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .graph import Profile, SocialGraph, profile_from_dict, profile_to_dict
from .synthworld import FetchSource, UnknownProfileError
from .utils import decode_dataclass, gc_paused, stable_json, write_bytes_atomic

STATE_FORMAT_VERSION = 1


class CrawlError(Exception):
    pass


class StateError(CrawlError):
    """A crawl state file is corrupt or belongs to a different world."""


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


def _matcher(keywords: Sequence[str]) -> Callable[[Profile], bool]:
    """``keyword_match`` with ``keywords`` normalized once. A normalized
    needle holds no newline, so no match spans two newline-joined fields."""
    needles = [n for n in map(_normalize, keywords) if n]

    def match(profile: Profile) -> bool:
        text = "\n".join(map(_normalize, profile.text_fields()))
        for needle in needles:
            if needle in text:
                return True
        return False

    return match


def keyword_match(profile: Profile, keywords: Sequence[str]) -> bool:
    """True when any normalized keyword is a substring of any normalized text
    field. Normalization case-folds and collapses whitespace."""
    return _matcher(keywords)(profile)


@dataclass(frozen=True)
class CrawlConfig:
    seeds: tuple[int, ...]
    keywords: tuple[str, ...]
    version: str = "v1"
    window_size: int = 1000
    max_fetches: int | None = None
    concurrency_width: int = 1
    seed_priority: int = 1

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.seeds:
            raise CrawlError("at least one seed is required")
        if not self.keywords:
            raise CrawlError("at least one keyword is required")
        if self.version not in ("v1", "v2"):
            raise CrawlError("version must be 'v1' or 'v2'")
        if self.window_size < 1:
            raise CrawlError("window_size must be positive")
        if self.max_fetches is not None and self.max_fetches < 0:
            raise CrawlError("max_fetches must be non-negative")
        if self.concurrency_width < 1:
            raise CrawlError("concurrency_width must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "CrawlConfig":
        """Strict decode by ``utils.decode_dataclass``; errors: StateError."""
        return decode_dataclass(cls, d, StateError, "crawl config")


_SEQ_MASK = (1 << 48) - 1  # seqs lie in [0, 2**48)
_NODE_MASK, _OFFSET = (1 << 64) - 1, 1 << 63  # the low 64 bits hold int64 id + 2**63
_PRIORITY_SHIFT = 48 + 64


def _key(priority: int, seq: int, node: int) -> int:
    """One int that sorts like ``(-priority, seq, node)`` for seq < 2**48, int64 node."""
    return (((-priority << 48) + seq) << 64) + node + _OFFSET


class Frontier:
    """Max-priority queue with FIFO tie-break by first enqueue order.

    Priority increases keep the original sequence number, so two
    candidates at equal priority dequeue in the order they first
    appeared. A heap row is the int ``_key(priority, seq, node)``; a row
    is live while it equals its node's entry, and other rows are discarded
    lazily. Node ids may be any int64.
    """

    def __init__(self):
        self._heap: list[int] = []
        self._entries: dict[int, int] = {}  # node -> its live heap key
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def push(self, node: int, priority: int) -> None:
        if node in self._entries:
            raise CrawlError(f"node {node} already queued")
        if not -_OFFSET <= node < _OFFSET:
            raise CrawlError(f"node id {node} is outside the int64 range")
        key = self._entries[node] = _key(priority, self._next_seq, node)
        self._next_seq += 1
        heapq.heappush(self._heap, key)

    def increase(self, node: int, by: int = 1) -> None:
        key = self._entries[node] = self._entries[node] - (by << _PRIORITY_SHIFT)
        heapq.heappush(self._heap, key)

    def pop(self) -> tuple[int, int]:
        while self._heap:
            key = heapq.heappop(self._heap)
            if self._entries.get(node := (key & _NODE_MASK) - _OFFSET) == key:
                del self._entries[node]
                return node, -(key >> _PRIORITY_SHIFT)
        raise CrawlError("frontier is empty")

    def max_priority(self) -> int | None:
        heap, entries = self._heap, self._entries
        while heap and entries.get((heap[0] & _NODE_MASK) - _OFFSET) != heap[0]:
            heapq.heappop(heap)
        return -(heap[0] >> _PRIORITY_SHIFT) if heap else None

    def items(self) -> dict[int, int]:
        return {node: -(key >> _PRIORITY_SHIFT) for node, key in self._entries.items()}

    # -- persistence ------------------------------------------------------

    def dump(self) -> dict:
        rows = sorted(
            ((key >> 64) & _SEQ_MASK, node, -(key >> _PRIORITY_SHIFT))
            for node, key in self._entries.items()
        )
        return {
            "next_seq": self._next_seq,
            "entries": [[node, prio, seq] for seq, node, prio in rows],
        }

    @classmethod
    def restore(cls, data: dict) -> "Frontier":
        """Rebuild a dumped frontier; a bad or repeated node or seq: StateError."""
        f = cls()
        f._next_seq = next_seq = int(data["next_seq"])
        entries, seqs = f._entries, set()
        for node, prio, seq in (map(int, row) for row in data["entries"]):
            if (node in entries or seq in seqs or not -_OFFSET <= node < _OFFSET
                    or not 0 <= seq < next_seq <= _SEQ_MASK):
                raise StateError(f"corrupt frontier: node {node} or seq {seq}")
            seqs.add(seq)
            entries[node] = _key(prio, seq, node)
        if not 0 <= next_seq <= _SEQ_MASK:
            raise StateError(f"corrupt frontier: next_seq {next_seq} out of range")
        f._heap = list(entries.values())
        heapq.heapify(f._heap)
        return f


@dataclass
class CrawlState:
    """Everything a crawl needs to continue exactly where it stopped."""

    config: CrawlConfig
    strategy: str  # "priority" | "fifo"
    frontier: Frontier
    crawled: set[int]
    confirmed: set[int]
    edges: set[tuple[int, int]]
    profiles: dict[int, Profile]
    window: deque
    fetch_count: int = 0
    not_found: int = 0
    fingerprint: str = ""

    @classmethod
    def fresh(
        cls, config: CrawlConfig, fingerprint: str, strategy: str = "priority"
    ) -> "CrawlState":
        frontier = Frontier()
        seed_priority = config.seed_priority if strategy == "priority" else 0
        for seed in config.seeds:
            if seed not in frontier:
                frontier.push(seed, seed_priority)
        return cls(
            config=config,
            strategy=strategy,
            frontier=frontier,
            crawled=set(),
            confirmed=set(),
            edges=set(),
            profiles={},
            window=deque(maxlen=config.window_size),
            fetch_count=0,
            not_found=0,
            fingerprint=fingerprint,
        )

    def to_json_bytes(self) -> bytes:
        with gc_paused():  # the payload is freed before GC comes back on
            return (stable_json(self._payload()) + "\n").encode("utf-8")

    def _payload(self) -> dict:
        return {
            "format_version": STATE_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "config": self.config.to_dict(),
            "frontier": self.frontier.dump(),
            "crawled": sorted(self.crawled),
            "confirmed": sorted(self.confirmed),
            "edges": sorted(self.edges),
            "profiles": {
                str(v): profile_to_dict(p) for v, p in sorted(self.profiles.items())
            },
            "window": list(self.window),
            "fetch_count": self.fetch_count,
            "not_found": self.not_found,
        }

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "CrawlState":
        with gc_paused():  # the decoded payload is freed before GC comes back on
            return cls._decode(data)

    @classmethod
    def _decode(cls, data: bytes) -> "CrawlState":
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StateError(f"corrupt crawl state: {exc}") from exc
        if not isinstance(payload, dict):
            raise StateError("corrupt crawl state: not an object")
        version = payload.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise StateError(f"unsupported state format version {version!r}")
        required = {
            "fingerprint", "strategy", "config", "frontier", "crawled",
            "confirmed", "edges", "profiles", "window", "fetch_count", "not_found",
        }
        missing = required - set(payload)
        if missing:
            raise StateError(f"corrupt crawl state: missing {sorted(missing)}")
        try:
            config = CrawlConfig.from_dict(payload["config"])
            strategy = payload["strategy"]
            if strategy not in ("priority", "fifo"):
                raise StateError(f"unknown strategy {strategy!r}")
            frontier = Frontier.restore(payload["frontier"])
            window: deque = deque(maxlen=config.window_size)
            window.extend(int(x) for x in payload["window"])
            state = cls(
                config=config,
                strategy=strategy,
                frontier=frontier,
                crawled=set(map(int, payload["crawled"])),
                confirmed=set(map(int, payload["confirmed"])),
                edges={(int(u), int(v)) for u, v in payload["edges"]},
                profiles={
                    int(v): profile_from_dict(d)
                    for v, d in payload["profiles"].items()
                },
                window=window,
                fetch_count=int(payload["fetch_count"]),
                not_found=int(payload["not_found"]),
                fingerprint=str(payload["fingerprint"]),
            )
        except StateError:
            raise
        except Exception as exc:  # malformed nested structure
            raise StateError(f"corrupt crawl state: {exc}") from exc
        return state


@dataclass(frozen=True)
class CrawlStats:
    fetched: int
    confirmed: int
    not_found: int
    truncated: bool
    stop_reason: str

    @property
    def precision(self) -> float:
        return self.confirmed / self.fetched if self.fetched else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "precision": self.precision}


@dataclass
class CrawlResult:
    graph: SocialGraph
    stats: CrawlStats
    state: CrawlState


def save_state(state: CrawlState, path: str | Path) -> None:
    """Write ``state`` to ``path``, replacing any earlier checkpoint whole."""
    write_bytes_atomic(path, state.to_json_bytes())


def resume(path: str | Path, src: FetchSource) -> CrawlState:
    """Load a crawl state and check it belongs to this fetch source."""
    state = CrawlState.from_json_bytes(Path(path).read_bytes())
    if state.fingerprint != src.fingerprint:
        raise StateError(
            f"state fingerprint {state.fingerprint} does not match "
            f"source fingerprint {src.fingerprint}"
        )
    return state


def _start(
    src: FetchSource, cfg: CrawlConfig, state: CrawlState | None, strategy: str
) -> CrawlState:
    """A fresh state, or ``state`` checked against ``cfg`` and ``strategy``.

    A resume takes only ``max_fetches`` and ``concurrency_width`` from ``cfg``."""
    if state is None:
        return CrawlState.fresh(cfg, src.fingerprint, strategy=strategy)
    for name in ("seeds", "keywords", "version", "window_size", "seed_priority"):
        if getattr(cfg, name) != getattr(state.config, name):
            raise StateError(
                f"config field {name!r} differs from the saved crawl; "
                "only max_fetches and concurrency_width may change on resume"
            )
    if state.strategy != strategy:
        raise StateError("saved state came from a different crawl strategy")
    state.config = replace(
        state.config,
        max_fetches=cfg.max_fetches,
        concurrency_width=cfg.concurrency_width,
    )
    return state


AuditHook = Callable[[CrawlState, int], None]


def crawl(
    src: FetchSource,
    cfg: CrawlConfig,
    state: CrawlState | None = None,
    audit_hook: AuditHook | None = None,
) -> CrawlResult:
    """Run (or continue) a prioritized crawl against ``src``.

    ``audit_hook(state, node)`` fires after each completed fetch, before
    the stopping check; tests use it to audit frontier invariants.
    """
    return _run(src, _start(src, cfg, state, "priority"), audit_hook)


def bfs_crawl(
    src: FetchSource,
    cfg: CrawlConfig,
    state: CrawlState | None = None,
    audit_hook: AuditHook | None = None,
) -> CrawlResult:
    """Baseline crawl: identical bookkeeping, FIFO frontier, no priorities.

    The ``v2`` priority condition is vacuous here, so ``v2`` reduces to
    the sterile-window test alone.
    """
    return _run(src, _start(src, cfg, state, "fifo"), audit_hook)


def _fetch_one(src: FetchSource, node: int):
    try:
        return node, src.fetch_profile(node)
    except (UnknownProfileError, KeyError):
        return node, None


def _run(
    src: FetchSource, state: CrawlState, audit_hook: AuditHook | None
) -> CrawlResult:
    cfg = state.config
    frontier, window = state.frontier, state.window
    focused = state.strategy == "priority"
    match = _matcher(cfg.keywords)
    budget = cfg.max_fetches
    stop_reason: str | None = None
    truncated = False
    hits = sum(window)  # confirmations among the last window_size fetches

    def window_stop_ready() -> bool:
        if cfg.version != "v2" or hits or len(window) < cfg.window_size:
            return False
        top = frontier.max_priority()
        return top is None or top <= 1

    if window_stop_ready() and len(frontier) > 0:
        stop_reason = "window-stop"

    executor = (
        ThreadPoolExecutor(max_workers=cfg.concurrency_width)
        if cfg.concurrency_width > 1
        else None
    )
    fetch = partial(_fetch_one, src)
    try:
        while stop_reason is None:
            if len(frontier) == 0:
                stop_reason = "frontier-exhausted"
                break
            if budget is not None and state.fetch_count >= budget:
                stop_reason = "budget"
                truncated = True
                break
            width = cfg.concurrency_width
            if budget is not None:
                width = min(width, budget - state.fetch_count)
            batch: list[int] = []
            while len(batch) < width and len(frontier) > 0:
                node, _priority = frontier.pop()
                state.crawled.add(node)
                batch.append(node)
            results = map(fetch, batch) if executor is None else executor.map(fetch, batch)
            for node, fetched in results:
                state.fetch_count += 1
                hit = 0
                if fetched is None:
                    state.not_found += 1
                else:
                    profile, friends = fetched
                    if match(profile):
                        hit = 1
                        state.confirmed.add(node)
                        state.profiles[node] = profile
                        for friend in friends:
                            if friend in state.confirmed:
                                key = (node, friend) if node < friend else (friend, node)
                                state.edges.add(key)
                        for friend in friends:
                            if friend == node or friend in state.crawled:
                                continue
                            if friend not in frontier:
                                frontier.push(friend, 1 if focused else 0)
                            elif focused:
                                frontier.increase(friend)
                if len(window) == window.maxlen:
                    hits -= window[0]
                window.append(hit)
                hits += hit
                if audit_hook is not None:
                    audit_hook(state, node)
                if stop_reason is None and window_stop_ready():
                    stop_reason = "window-stop"
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    graph = SocialGraph(state.confirmed, state.edges, dict(state.profiles))
    stats = CrawlStats(
        fetched=state.fetch_count,
        confirmed=len(state.confirmed),
        not_found=state.not_found,
        truncated=truncated,
        stop_reason=stop_reason or "frontier-exhausted",
    )
    return CrawlResult(graph=graph, stats=stats, state=state)
