"""Small shared helpers: seed derivation, stable hashing, atomic writes,
the position of a failed UTF-8 decode, the JSON document reader, the typed
decoder of settings dataclasses, apportionment, a sorted unique of int
arrays, and a cyclic-GC pause for bulk builds."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from dataclasses import MISSING, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

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


def utf8_error(data: bytes, exc: UnicodeDecodeError) -> tuple[int, str]:
    """The line of ``data`` that ``exc``, its failed UTF-8 decode, points
    at, and a message naming the column (both counted from 1, the column
    in bytes)."""
    line_start = data.rfind(b"\n", 0, exc.start) + 1
    column = exc.start - line_start + 1
    return data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason} at column {column}"


def read_json(source: str | Path | bytes, error: type[Exception]):
    """The JSON value in the file at ``source``, or in a document's bytes
    (named ``<bytes>``). Bytes that are not UTF-8 or text that does not
    parse raise ``error`` naming the file and line."""
    if isinstance(source, bytes):
        name, data = "<bytes>", source
    else:
        name, data = str(source), Path(source).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line, message = utf8_error(data, exc)
        raise error(f"{name}:{line}: {message}") from None
    except json.JSONDecodeError as exc:
        # some messages end in "at" already ("Unterminated string starting at")
        at = "" if exc.msg.endswith(" at") else " at"
        raise error(f"{name}:{exc.lineno}: bad JSON: {exc.msg}{at} column {exc.colno}") from None


def decode_dataclass(cls, data, error: type[Exception], what: str):
    """Build dataclass ``cls`` from JSON-shaped ``data`` checked against its
    type hints: objects stand for nested dataclasses, lists for tuples, ints
    for floats, and a bool is not a number. A non-object, an unknown or
    missing field or a value of the wrong type raises ``error`` naming
    ``what``. ``dataclasses.asdict`` is the inverse."""
    if not isinstance(data, Mapping):
        raise error(f"{what} settings must be an object, got {data!r}")
    known = cls.__dataclass_fields__
    unknown = set(data) - set(known)
    if unknown:
        raise error(f"unknown {what} settings: {sorted(unknown)}")
    missing = [
        name for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise error(f"missing {what} settings: {missing}")
    hints = get_type_hints(cls)
    values = dict(data)
    for name, value in data.items():
        hint = hints[name]
        item = get_args(hint)[0] if get_origin(hint) is tuple else None
        if is_dataclass(hint):
            values[name] = decode_dataclass(hint, value, error, name)
        elif is_dataclass(item) and isinstance(value, (list, tuple)):
            values[name] = tuple(
                decode_dataclass(item, v, error, f"{name}[{i}]") for i, v in enumerate(value)
            )
        elif not _has_type(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise error(f"{what} setting {name!r} must be {expected}, got {value!r}")
        elif isinstance(value, int) and float in (hint, *get_args(hint)):
            values[name] = float(value)  # 0 and 0.0 make one value, one hash
    return cls(**values)


def _has_type(value, hint) -> bool:
    """JSON-shaped check of ``value`` against a settings annotation."""
    args = get_args(hint)
    if isinstance(hint, UnionType):
        return any(_has_type(value, h) for h in args)
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


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
