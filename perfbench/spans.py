"""In-memory spans recorded around calls into orgminer's layers.

A ``Tracer`` replaces a module or class attribute with a wrapper that
records one span per call: its name, start and end (wall clock), the
span that was open when it started, and the process CPU time it used.
Patches are undone by ``unpatch``, so the same process can alternate
traced and untraced repetitions. Nothing inside ``src/orgminer`` is
changed; every span is taken from outside, at a function boundary.

The layer of a span is the first dot-separated part of its name. A
span's *layer self time* is its wall time minus the time covered by
nested spans of other layers (nested spans of its own layer stay in).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cpu: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, 0.0)
        self.spans.append(record)
        self._open.append(index)
        cpu = time.process_time()
        try:
            yield
        finally:
            record.cpu = time.process_time() - cpu
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None):
        """``fn`` with a span around every call; ``on_result(result, args,
        kwargs)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result: Callable | None = None):
        """Trace every call of ``owner.attr`` (a module or class attribute)."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_self_seconds(spans: list[Span], first: int = 0) -> dict[int, float]:
    """Layer self time of every span from index ``first`` on.

    Spans nest strictly (one thread), so subtracting the durations of the
    outermost foreign descendants is exact.
    """
    children: dict[int, list[int]] = {}
    for i in range(first, len(spans)):
        parent = spans[i].parent
        if parent is not None and parent >= first:
            children.setdefault(parent, []).append(i)

    def foreign(i: int, layer: str) -> float:
        total = 0.0
        for c in children.get(i, ()):
            if spans[c].layer != layer:
                total += spans[c].seconds
            else:
                total += foreign(c, layer)
        return total

    return {
        i: spans[i].seconds - foreign(i, spans[i].layer)
        for i in range(first, len(spans))
    }
