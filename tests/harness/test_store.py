"""Tests for the content-addressed sweep result store."""

import json

import pytest

from repro.harness.store import (
    DEFAULT_ROOT,
    ResultStore,
    STORE_VERSION,
    cell_key,
    describe_cell,
)
from repro.network.faults import FaultSpec

CELL = ("dirnnb", "ocean", "small", 1024, 7, 2)
ROW = {"system": "dirnnb", "application": "ocean", "dataset": "small",
       "cache": 1024, "seed": 7, "cycles": 26371, "refs": 6912.0,
       "remote_packets": 91.0}


def store(tmp_path, digest="d" * 16):
    return ResultStore(tmp_path / "store", digest=digest)


def test_put_get_roundtrip_is_bit_identical(tmp_path):
    s = store(tmp_path)
    s.put(CELL, ROW)
    row = s.get(CELL)
    assert row == ROW
    assert type(row["cycles"]) is int
    assert type(row["refs"]) is float


def test_absent_cell_is_a_miss(tmp_path):
    s = store(tmp_path)
    assert s.get(CELL) is None
    assert s.misses == 1
    assert s.hits == 0


def test_key_is_stable_and_digest_sensitive():
    assert cell_key(CELL, "aaaa") == cell_key(CELL, "aaaa")
    assert cell_key(CELL, "aaaa") != cell_key(CELL, "bbbb")
    other = ("dirnnb", "ocean", "small", 1024, 8, 2)
    assert cell_key(CELL, "aaaa") != cell_key(other, "aaaa")


def test_key_distinguishes_cell_arity():
    """A 6-tuple cell and its 7-tuple (faults=None) extension produce
    different rows (the latter has retry columns), so different keys."""
    assert cell_key(CELL, "aaaa") != cell_key(CELL + (None,), "aaaa")
    assert (cell_key(CELL + (None,), "aaaa")
            != cell_key(CELL + (None, False), "aaaa"))


def test_fault_axis_cells_key_by_spec_fields():
    lossy = FaultSpec(name="drop5", drop_pct=0.05)
    same = FaultSpec(name="drop5", drop_pct=0.05)
    other = FaultSpec(name="drop5", drop_pct=0.10)
    assert (cell_key(CELL + (lossy,), "aaaa")
            == cell_key(CELL + (same,), "aaaa"))
    assert (cell_key(CELL + (lossy,), "aaaa")
            != cell_key(CELL + (other,), "aaaa"))
    described = describe_cell(CELL + (lossy,))
    assert described["faults"]["drop_pct"] == 0.05


def test_code_fingerprint_invalidates(tmp_path):
    """An entry written under one source digest misses under another."""
    store(tmp_path, digest="aaaa").put(CELL, ROW)
    assert store(tmp_path, digest="aaaa").get(CELL) == ROW
    assert store(tmp_path, digest="bbbb").get(CELL) is None


def test_corrupted_entry_is_a_miss(tmp_path):
    s = store(tmp_path)
    key = s.put(CELL, ROW)
    path = s._object_path(key)
    path.write_text("{ truncated json", encoding="utf-8")
    assert s.get(CELL) is None


def test_wrong_schema_entry_is_a_miss(tmp_path):
    s = store(tmp_path)
    key = s.put(CELL, ROW)
    path = s._object_path(key)
    entry = json.loads(path.read_text())
    entry["version"] = STORE_VERSION + 1
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert s.get(CELL) is None


def test_missing_row_field_is_a_miss(tmp_path):
    s = store(tmp_path)
    key = s.put(CELL, ROW)
    path = s._object_path(key)
    path.write_text(json.dumps({"version": STORE_VERSION,
                                "digest": s.digest}), encoding="utf-8")
    assert s.get(CELL) is None


def test_gc_drops_foreign_digests_keeps_current(tmp_path):
    store(tmp_path, digest="old1").put(CELL, ROW)
    store(tmp_path, digest="old2").put(CELL, ROW)
    current = store(tmp_path, digest="new1")
    current.put(CELL, ROW)
    swept = current.gc()
    assert swept == {"removed": 2, "kept": 1, "skipped": 0}
    assert current.get(CELL) == ROW


def test_gc_drops_unreadable_entries(tmp_path):
    s = store(tmp_path)
    key = s.put(CELL, ROW)
    garbage = s._object_path(key).with_name("deadbeef.json")
    garbage.write_text("not json at all", encoding="utf-8")
    assert s.gc() == {"removed": 1, "kept": 1, "skipped": 0}


def test_gc_reports_unremovable_entries_as_skipped(tmp_path, monkeypatch):
    """A stale entry whose unlink fails is *still on disk*: gc must say
    so (``skipped``) rather than silently dropping it from every count
    — the latent bug where both counters missed it."""
    stale_store = store(tmp_path, digest="old1")
    stale_key = stale_store.put(CELL, ROW)
    s = store(tmp_path, digest="new1")
    s.put(CELL, ROW)
    locked = s._object_path(stale_key)
    real_unlink = type(locked).unlink

    def unlink(self, *args, **kwargs):
        if self == locked:
            raise PermissionError(f"unremovable: {self}")
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(type(locked), "unlink", unlink)
    assert s.gc() == {"removed": 0, "kept": 1, "skipped": 1}
    assert locked.exists()


def test_stats_reports_totals_and_staleness(tmp_path):
    store(tmp_path, digest="old1").put(CELL, ROW)
    s = store(tmp_path, digest="new1")
    s.put(CELL, ROW)
    s.get(CELL)
    s.get(("dirnnb", "ocean", "small", 1024, 99, 2))
    stats = s.stats()
    assert stats["entries"] == 2
    assert stats["stale"] == 1
    assert stats["bytes"] > 0
    assert stats["session_hits"] == 1
    assert stats["session_misses"] == 1
    assert stats["session_writes"] == 1


def test_default_digest_is_the_live_source_digest(tmp_path):
    import repro

    s = ResultStore(tmp_path / "store")
    assert s.digest == repro.__source_digest__


def test_resolve_env_and_explicit_forms(tmp_path, monkeypatch):
    assert ResultStore.resolve(None) is None
    assert ResultStore.resolve("off") is None
    ready = ResultStore(tmp_path / "store", digest="x")
    assert ResultStore.resolve(ready) is ready
    assert ResultStore.resolve(tmp_path / "other").root == \
        tmp_path / "other"

    monkeypatch.setenv("REPRO_STORE", "off")
    assert ResultStore.resolve("auto") is None
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
    assert ResultStore.resolve("auto").root == tmp_path / "env-store"
    monkeypatch.delenv("REPRO_STORE")
    assert str(ResultStore.resolve("auto").root) == DEFAULT_ROOT


def test_constructor_refuses_disabled_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", "off")
    with pytest.raises(ValueError):
        ResultStore()
    # An explicit root always wins over the environment switch.
    assert ResultStore(tmp_path / "forced", digest="x").root == \
        tmp_path / "forced"


def _digest_of_tree(tmp_path, monkeypatch):
    """Point the fingerprint module at a scratch package tree."""
    from repro import _fingerprint

    monkeypatch.setattr(_fingerprint, "__file__",
                        str(tmp_path / "pkg" / "__init__.py"))
    digest = _fingerprint.source_digest(refresh=True)
    monkeypatch.undo()
    _fingerprint.source_digest(refresh=True)
    return digest


def test_source_digest_changes_with_sources(tmp_path, monkeypatch):
    """The fingerprint covers file contents and relative paths."""
    (tmp_path / "pkg").mkdir()
    digests = []
    for content in ("x = 1\n", "x = 2\n"):
        (tmp_path / "pkg" / "a.py").write_text(content)
        digests.append(_digest_of_tree(tmp_path, monkeypatch))
    assert digests[0] != digests[1]


def test_source_digest_covers_package_data(tmp_path, monkeypatch):
    """Regression: the digest used to hash only ``*.py``, so editing a
    packaged non-Python input (a shipped table, a calibration file)
    never invalidated cached sweep rows."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "table.json").write_text('{"rows": 1}\n')
    before = _digest_of_tree(tmp_path, monkeypatch)
    (tmp_path / "pkg" / "table.json").write_text('{"rows": 2}\n')
    assert _digest_of_tree(tmp_path, monkeypatch) != before
    (tmp_path / "pkg" / "table.json").unlink()
    assert _digest_of_tree(tmp_path, monkeypatch) != before


def test_source_digest_ignores_interpreter_byproducts(tmp_path, monkeypatch):
    """``__pycache__`` and ``.pyc`` vary per interpreter with no
    semantic change; they must not perturb the fingerprint."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    before = _digest_of_tree(tmp_path, monkeypatch)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(
        b"\x00bytecode")
    (tmp_path / "pkg" / "a.pyc").write_bytes(b"\x00stale")
    assert _digest_of_tree(tmp_path, monkeypatch) == before
