import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orgminer.utils import (
    apportion,
    content_hash,
    derive_seed,
    gc_paused,
    read_json,
    stable_json,
    write_bytes_atomic,
)

from conftest import write_half_then_fail


class _SpecError(ValueError):
    pass


def test_read_json_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{\n  "name": "\xff"\n}\n')
    with pytest.raises(_SpecError) as info:
        read_json(path, _SpecError)
    assert str(info.value) == f"{path}:2: not UTF-8: invalid start byte at column 12"


@pytest.mark.parametrize("text, message", [
    ('{"orgs": "x', "Unterminated string starting at column 10"),
    ('{"orgs": "a\tb"}', "Invalid control character at column 12"),
    ('{"orgs": }', "Expecting value at column 10"),
])
def test_read_json_says_at_once_before_the_column(text, message):
    with pytest.raises(_SpecError) as info:
        read_json(text.encode("utf-8"), _SpecError)
    assert str(info.value) == f"<bytes>:1: bad JSON: {message}"


def test_derive_seed_deterministic_and_stage_sensitive():
    assert derive_seed(42, "world") == derive_seed(42, "world")
    assert derive_seed(42, "world") != derive_seed(42, "crawl-seeds")
    assert derive_seed(42, "world") != derive_seed(43, "world")


def test_derive_seed_fits_in_64_bits():
    assert 0 <= derive_seed(123456789, "anything") < 2**64


def test_stable_json_sorts_keys_and_strips_whitespace():
    a = stable_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert a == '{"a":[2,{"c":4,"d":3}],"b":1}'
    assert json.loads(a) == {"b": 1, "a": [2, {"d": 3, "c": 4}]}


def test_content_hash_is_sha256_hex():
    h = content_hash(b"abc")
    assert h == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_apportion_exact_split():
    assert apportion(10, [0.3, 0.7]) == [3, 7]
    assert apportion(10, [0.3]) == [10]  # weights are normalized internally
    assert apportion(3, [1.0, 1.0, 1.0]) == [1, 1, 1]


def test_apportion_remainder_ties_go_to_lower_index():
    assert apportion(7, [0.5, 0.5]) == [4, 3]
    assert apportion(10, [1, 1, 1]) == [4, 3, 3]


@given(
    total=st.integers(min_value=0, max_value=500),
    weights=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=8),
)
def test_apportion_always_sums_to_total(total, weights):
    shares = apportion(total, weights)
    assert sum(shares) == total
    assert all(s >= 0 for s in shares)


def test_write_bytes_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "artifact.csv"
    write_bytes_atomic(path, b"old\n")
    write_bytes_atomic(path, b"new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_write_bytes_atomic_failing_midway_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old contents\n")
    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_bytes_atomic(path, b"new contents that never land\n")
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_gc_paused_restores_only_what_it_changed():
    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():  # nested: nothing to do at either end
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert gc.isenabled()
    gc.disable()
    try:
        with gc_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()
