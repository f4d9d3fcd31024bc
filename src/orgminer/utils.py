"""Small shared helpers: seed derivation, stable hashing, atomic writes,
apportionment, a sorted unique of int arrays, and a cyclic-GC pause for
bulk builds."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed fanned out from one master seed."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stable_json(obj) -> str:
    """Canonical JSON text: sorted keys, no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file beside it, so
    readers and killed runs see the old bytes or the new, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class gc_paused:
    """Context manager that holds off cyclic garbage collection in its block.

    For builders of many acyclic containers at once (a decoded JSON
    payload, a world's per-node dicts): each full collection walks every
    tracked object in the process, and such a build would otherwise
    trigger several. Reference counting still frees everything. At exit,
    exceptions included, GC is turned back on only if this block turned
    it off, so nested blocks and callers that disabled GC keep their
    setting. Turning it back on is the last thing the block does, so the
    collection it has held off runs at the caller's next allocation,
    after the builder has dropped its temporaries.
    """

    __slots__ = ("_owner",)

    def __enter__(self) -> None:
        self._owner = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            gc.enable()


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def short_hash(data: bytes, length: int = 16) -> str:
    return content_hash(data)[:length]


def apportion(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Floor-plus-largest-remainder: deterministic and the parts always sum
    to ``total``. Ties on the remainder go to the lower index.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must have positive sum")
    quotas = [total * w / wsum for w in weights]
    parts = [math.floor(q) for q in quotas]
    shortfall = total - sum(parts)
    by_remainder = sorted(range(len(weights)), key=lambda i: (parts[i] - quotas[i], i))
    for i in by_remainder[:shortfall]:
        parts[i] += 1
    return parts


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int array by one sort: several times faster than
    the hashing ``np.unique`` of numpy 2.3 and later."""
    x = np.sort(x)
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))
