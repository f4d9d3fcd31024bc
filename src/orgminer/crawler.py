"""Focused crawler that prioritizes candidates by confirmed-member friends.

The frontier is a max-priority queue of per-priority buckets of sequence
numbers. A candidate's priority equals the number of already-confirmed
members known to be its friends, so the crawler fetches the most promising
profiles first. Profiles matching a keyword (normalized once per crawl) are
confirmed and their friend lists feed the frontier; the rest are counted
but never expanded.

Stopping:

* ``v1`` stops when the frontier is empty (or the fetch budget runs out);
* ``v2`` additionally stops once every queued candidate has priority <= 1
  and the last ``window_size`` fetches produced no new member. The check
  runs after each completed fetch.

The FIFO baseline (``bfs_crawl``) queues every candidate at priority 0
and never raises it, so the same frontier pops in first-enqueue order.
Widths above 1 fetch a batch in parallel and apply it in pop order, so
every crawl is deterministic.

A state decodes as strictly as it was written: bytes that are not UTF-8
JSON (named by file and line through ``utils.read_json``), an unknown
config key, a value of the wrong JSON type, or a bool, float or string
where an integer belongs is a ``StateError``. Encoding and decoding a crawl state run
with cyclic GC paused (``utils.gc_paused``): the payload is tens of
thousands of acyclic lists and dicts, and without the pause a checkpoint
or resume pays for full collections over every object of the world being
crawled.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import Profile, SocialGraph, profile_from_dict, profile_to_dict
from .synthworld import FetchSource, UnknownProfileError
from .utils import decode_dataclass, gc_paused, read_json, stable_json, write_bytes_atomic

STATE_FORMAT_VERSION = 1


class CrawlError(Exception):
    pass


class StateError(CrawlError):
    """A crawl state file is corrupt or belongs to a different world."""


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


def _matcher(keywords: Sequence[str]) -> Callable[[Profile], bool]:
    """A test of whether any normalized keyword is a substring of any
    normalized text field of a profile. Normalization case-folds and
    collapses whitespace, and ``keywords`` are normalized once.

    A normalized needle holds no newline, so no match spans two
    newline-joined fields. A profile is normalized only once the longest
    word of some needle occurs in its case-folded raw text: ``casefold``
    maps one character at a time and normalizing only rewrites runs of
    whitespace, so every word of a matching needle occurs there too."""
    needles = [n for n in map(_normalize, keywords) if n]
    words = list(dict.fromkeys(max(n.split(" "), key=len) for n in needles))

    def match(profile: Profile) -> bool:
        fields = profile.text_fields()
        raw = "\n".join(fields).casefold()
        for word in words:
            if word in raw:
                text = "\n".join(map(_normalize, fields))
                for needle in needles:
                    if needle in text:
                        return True
                return False
        return False

    return match


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


_INT64 = 1 << 63  # node ids lie in [-2**63, 2**63)
_MAX_SEQ = (1 << 48) - 1  # a saved next_seq lies in [0, 2**48)


def _check_ints(values, what: str, low: int | None = None, high: int | None = None) -> None:
    """StateError unless every value is a plain int (not a bool, a float or
    a string) in ``[low, high]``. Each check is one bulk pass over the column."""
    if not set(map(type, values)) <= {int}:
        raise StateError(f"corrupt crawl state: {what} must hold integers only")
    if values and (low is not None and min(values) < low
                   or high is not None and max(values) > high):
        raise StateError(f"corrupt crawl state: {what} out of [{low}, {high}]")


class Frontier:
    """Max-priority queue with FIFO tie-break by first enqueue order.

    A push takes the next sequence number and a priority increase keeps
    it, so two candidates at equal priority dequeue in the order they first
    appeared. Each priority has a bucket, a min-heap of seqs, and the
    priorities with a bucket sit in a max-heap. A bucket row is live while
    ``_prios`` maps its seq to the bucket's priority; other rows are
    discarded lazily. ``_nodes`` and ``_prios`` hold live seqs only. Node
    ids may be any int64.
    """

    def __init__(self):
        self._entries: dict[int, int] = {}  # node -> seq
        self._nodes: dict[int, int] = {}  # seq -> node
        self._prios: dict[int, int] = {}  # seq -> priority
        self._buckets: dict[int, list[int]] = {}  # priority -> min-heap of seqs
        self._levels: list[int] = []  # the negated priorities of the buckets, a heap
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def _add_row(self, seq: int, priority: int) -> None:
        """Add a row for ``seq`` to the bucket of ``priority``; push and
        increase inline the common case, a bucket that exists."""
        bucket = self._buckets.get(priority)
        if bucket is None:
            self._buckets[priority] = [seq]
            heapq.heappush(self._levels, -priority)
        else:
            heapq.heappush(bucket, seq)

    def push(self, node: int, priority: int) -> None:
        if node in self._entries:
            raise CrawlError(f"node {node} already queued")
        if not -_INT64 <= node < _INT64:
            raise CrawlError(f"node id {node} is outside the int64 range")
        seq = self._entries[node] = self._next_seq
        self._next_seq = seq + 1
        self._nodes[seq] = node
        self._prios[seq] = priority
        bucket = self._buckets.get(priority)
        if bucket is None:
            self._add_row(seq, priority)
        else:
            bucket.append(seq)  # the largest seq yet, so the bucket stays a heap

    def increase(self, node: int, by: int = 1) -> None:
        seq = self._entries[node]
        priority = self._prios[seq] = self._prios[seq] + by
        bucket = self._buckets.get(priority)
        if bucket is None:
            self._add_row(seq, priority)
        else:
            heapq.heappush(bucket, seq)

    def max_priority(self) -> int | None:
        levels, buckets, prios = self._levels, self._buckets, self._prios
        while levels:
            priority = -levels[0]
            bucket = buckets[priority]
            while bucket:
                if prios.get(bucket[0]) == priority:
                    return priority
                heapq.heappop(bucket)
            heapq.heappop(levels)
            del buckets[priority]
        return None

    def pop(self) -> tuple[int, int, int]:
        """Pop the top row as ``(node, priority, seq)``."""
        priority = self.max_priority()
        if priority is None:
            raise CrawlError("frontier is empty")
        seq = heapq.heappop(self._buckets[priority])
        node = self._nodes.pop(seq)
        del self._prios[seq], self._entries[node]
        if not self._entries:  # an emptied dict keeps its table until cleared
            for live in (self._entries, self._nodes, self._prios):
                live.clear()
        return node, priority, seq

    def _put_back(self, rows: Sequence[tuple[int, int, int]]) -> None:
        """Undo the ``pop`` of each ``(node, priority, seq)`` row."""
        for node, priority, seq in rows:
            self._entries[node] = seq
            self._nodes[seq] = node
            self._prios[seq] = priority
            self._add_row(seq, priority)

    def items(self) -> dict[int, int]:
        prios = self._prios
        return {node: prios[seq] for node, seq in self._entries.items()}

    # -- persistence ------------------------------------------------------

    def dump(self) -> dict:
        nodes, prios = self._nodes, self._prios
        return {
            "next_seq": self._next_seq,
            "entries": [[nodes[seq], prios[seq], seq] for seq in sorted(nodes)],
        }

    @classmethod
    def restore(cls, data: dict) -> "Frontier":
        """Rebuild a dumped frontier. A row that is not three ints, a node
        outside int64, a repeated node or seq, or a seq outside
        ``[0, next_seq)``: StateError. Nothing is sized by ``next_seq``."""
        next_seq, rows = data["next_seq"], data["entries"]
        _check_ints([next_seq], "frontier next_seq", 0, _MAX_SEQ)
        if type(rows) is not list or not (
            set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
        ):
            raise StateError("corrupt crawl state: frontier rows must be [node, priority, seq]")
        f = cls()
        f._next_seq = next_seq
        if not rows:
            return f
        nodes, prios, seqs = zip(*rows)
        _check_ints(nodes, "frontier nodes", -_INT64, _INT64 - 1)
        _check_ints(prios, "frontier priorities")
        _check_ints(seqs, "frontier seqs", 0, next_seq - 1)
        f._entries = dict(zip(nodes, seqs))
        f._nodes = dict(zip(seqs, nodes))
        if len(f._entries) < len(rows) or len(f._nodes) < len(rows):
            raise StateError("corrupt crawl state: a frontier node or seq repeats")
        f._prios = dict(zip(seqs, prios))
        for seq, priority in f._prios.items():
            f._add_row(seq, priority)
        return f


def _sorted_pairs(edges: array) -> np.ndarray:
    """The ``(u, v)`` rows of a flat int64 pair array, ascending by u, then v."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@dataclass
class CrawlState:
    """Everything a crawl needs to continue exactly where it stopped.

    ``edges`` holds ``u, v`` for each kept edge, ``u < v``, flat in one
    int64 array: an edge is appended once, when the later of its two
    confirmed endpoints is applied."""

    config: CrawlConfig
    strategy: str  # "priority" | "fifo"
    frontier: Frontier
    crawled: set[int]
    confirmed: set[int]
    edges: array
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
            edges=array("q"),
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
            "edges": _sorted_pairs(self.edges).tolist(),
            "profiles": {
                str(v): profile_to_dict(p) for v, p in sorted(self.profiles.items())
            },
            "window": list(self.window),
            "fetch_count": self.fetch_count,
            "not_found": self.not_found,
        }

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "CrawlState":
        return cls._read(data)

    @classmethod
    def _read(cls, source: str | Path | bytes) -> "CrawlState":
        """The state in a file or a document's bytes; bytes that are not
        UTF-8 or JSON are a StateError naming the file and line."""
        with gc_paused():  # the decoded payload is freed before GC comes back on
            return cls._decode(read_json(source, StateError))

    @classmethod
    def _decode(cls, payload) -> "CrawlState":
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
            fingerprint = payload["fingerprint"]
            if not isinstance(fingerprint, str):
                raise StateError("corrupt crawl state: the fingerprint must be a string")
            frontier = Frontier.restore(payload["frontier"])
            crawled, confirmed, edges, window = (
                payload[k] for k in ("crawled", "confirmed", "edges", "window"))
            _check_ints(crawled, "crawled")
            _check_ints(confirmed, "confirmed")
            _check_ints(window, "window", 0, 1)
            _check_ints([payload["fetch_count"], payload["not_found"]], "counts", 0)
            if not set(map(type, edges)) <= {list} or not set(map(len, edges)) <= {2}:
                raise StateError("corrupt crawl state: edges must be [u, v] pairs")
            us, vs = tuple(zip(*edges)) or ((), ())
            _check_ints(us + vs, "edges", -_INT64, _INT64 - 1)
            crawled, confirmed = set(crawled), set(confirmed)
            if not confirmed <= crawled:
                raise StateError("corrupt crawl state: a confirmed node was never crawled")
            pairs = array("q", chain.from_iterable(edges))
            rows = _sorted_pairs(pairs)
            if not set(us).union(vs) <= confirmed or (rows[:, 0] >= rows[:, 1]).any():
                raise StateError(
                    "corrupt crawl state: an edge must join two confirmed nodes, smaller id first")
            if (rows[1:] == rows[:-1]).all(axis=1).any():
                raise StateError("corrupt crawl state: an edge is listed twice")
            records = payload["profiles"]
            profiles = [profile_from_dict(d) for d in records.values()]
            if [str(p.node) for p in profiles] != list(records):
                raise StateError("corrupt crawl state: a profile key is not its node id")
            state = cls(
                config=config,
                strategy=strategy,
                frontier=frontier,
                crawled=crawled,
                confirmed=confirmed,
                edges=pairs,
                profiles={p.node: p for p in profiles},
                window=deque(window, maxlen=config.window_size),
                fetch_count=payload["fetch_count"],
                not_found=payload["not_found"],
                fingerprint=fingerprint,
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
    state = CrawlState._read(path)
    if state.fingerprint != src.fingerprint:
        raise StateError(
            f"state fingerprint {state.fingerprint} does not match "
            f"source fingerprint {src.fingerprint}"
        )
    return state


_RESUMABLE = ("max_fetches", "concurrency_width")  # the config fields a resume may change


def _start(
    src: FetchSource, cfg: CrawlConfig, state: CrawlState | None, strategy: str
) -> CrawlState:
    """A fresh state, or ``state`` checked against ``cfg`` and ``strategy``.

    A resume takes only the ``_RESUMABLE`` fields from ``cfg``."""
    if state is None:
        return CrawlState.fresh(cfg, src.fingerprint, strategy=strategy)
    for f in fields(CrawlConfig):
        if f.name not in _RESUMABLE and getattr(cfg, f.name) != getattr(state.config, f.name):
            raise StateError(
                f"config field {f.name!r} differs from the saved crawl; "
                f"only {' and '.join(_RESUMABLE)} may change on resume"
            )
    if state.strategy != strategy:
        raise StateError("saved state came from a different crawl strategy")
    state.config = replace(state.config, **{name: getattr(cfg, name) for name in _RESUMABLE})
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
        return src.fetch_profile(node)
    except (UnknownProfileError, KeyError):
        return None


def _run(
    src: FetchSource, state: CrawlState, audit_hook: AuditHook | None
) -> CrawlResult:
    """Fetch batches of up to ``concurrency_width`` popped nodes. A batch is
    applied only once every fetch in it has returned, in pop order; when a
    fetch raises, its popped rows go back to the frontier as they were and
    the error propagates, so the state stays one that resumes exactly."""
    cfg = state.config
    frontier, window = state.frontier, state.window
    entries, pop = frontier._entries, frontier.pop
    push, increase = frontier.push, frontier.increase
    crawled, confirmed, edges = state.crawled, state.confirmed, state.edges
    focused = state.strategy == "priority"
    base = 1 if focused else 0
    match = _matcher(cfg.keywords)
    budget = cfg.max_fetches
    v2, window_size = cfg.version == "v2", cfg.window_size
    stop_reason: str | None = None
    truncated = False
    hits = sum(window)  # confirmations among the last window_size fetches

    def window_stop_ready() -> bool:
        if hits or len(window) < window_size:
            return False
        top = frontier.max_priority()
        return top is None or top <= 1

    if v2 and window_stop_ready() and entries:
        stop_reason = "window-stop"

    executor = None
    if cfg.concurrency_width > 1:
        # on first use: the pool module loads logging, and width 1 never needs it
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=cfg.concurrency_width)
    fetch = partial(_fetch_one, src)
    try:
        while stop_reason is None:
            if not entries:
                stop_reason = "frontier-exhausted"
                break
            if budget is not None and state.fetch_count >= budget:
                stop_reason = "budget"
                truncated = True
                break
            # width 1 fetches one row in this thread, with no batch lists: the
            # batch path alone ran crawl-20k at a 0.695 s run_s median against
            # 0.574 s (8 alternating benchmark pairs on 2 vCPUs)
            if executor is None:
                rows = (pop(),)
                batch = (rows[0][0],)
            else:
                width = cfg.concurrency_width
                if budget is not None:
                    width = min(width, budget - state.fetch_count)
                rows = [pop() for _ in range(min(width, len(entries)))]
                batch = [row[0] for row in rows]
            try:
                results = (
                    (fetch(batch[0]),) if executor is None else list(executor.map(fetch, batch)))
            except BaseException:
                frontier._put_back(rows)
                raise
            crawled.update(batch)
            for node, fetched in zip(batch, results):
                state.fetch_count += 1
                hit = 0
                if fetched is None:
                    state.not_found += 1
                else:
                    profile, friends = fetched
                    if match(profile):
                        hit = 1
                        confirmed.add(node)
                        state.profiles[node] = profile
                        # confirmed is a subset of crawled (decode checks
                        # it), so a crawled friend is an edge when confirmed
                        # and is never queued; a node is applied once, so
                        # each edge is added once, by its later endpoint
                        for friend in friends:
                            if friend in crawled:
                                if friend in confirmed:
                                    edges.extend((node, friend) if node < friend else (friend, node))
                            elif friend not in entries:
                                push(friend, base)
                            elif focused:
                                increase(friend)
                if len(window) == window_size:
                    hits -= window[0]
                window.append(hit)
                hits += hit
                if audit_hook is not None:
                    audit_hook(state, node)
                if v2 and stop_reason is None and window_stop_ready():
                    stop_reason = "window-stop"
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    # from a copy, so no view pins the array: a resumed crawl appends to it
    graph = SocialGraph(state.confirmed, np.array(state.edges), dict(state.profiles))
    stats = CrawlStats(
        fetched=state.fetch_count,
        confirmed=len(state.confirmed),
        not_found=state.not_found,
        truncated=truncated,
        stop_reason=stop_reason or "frontier-exhausted",
    )
    return CrawlResult(graph=graph, stats=stats, state=state)
