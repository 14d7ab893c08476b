"""Content-addressed sweep result store.

Every sweep cell is a pure function of its axes — ``(system,
application, dataset, cache_bytes, seed, nodes[, faults[,
conformance]])`` — plus the code that runs it.  This module persists
each cell's result row under a key derived from exactly those inputs:

* the cell tuple, canonically JSON-encoded (``FaultSpec`` values are
  frozen dataclasses and serialise field-by-field), and
* the **code-version fingerprint** ``repro.__source_digest__`` — a hash
  of every file under the package, sources and package data alike
  (:mod:`repro._fingerprint`), so editing any packaged input turns
  every prior entry into a miss.

With the store in place, :meth:`repro.harness.sweep.Sweep.run`
partitions its cells into hits and misses and executes **only the
misses** — a repeated sweep over an unchanged tree executes zero cells
and returns rows bit-identical to the cold run (regression-tested in
``tests/harness/test_sweep.py``).  The ``python -m repro sweep run``
CLI is a thin front end over the same call.

Layout (one JSON document per cell, sharded by key prefix)::

    <root>/
      objects/<key[:2]>/<key>.json    cached cell rows

The root defaults to ``.repro-store/`` in the current directory and is
overridable with the ``REPRO_STORE`` environment variable; setting
``REPRO_STORE=off`` (or ``0``/``none``/``disabled``) disables caching
entirely, as does ``Sweep.run(store=None)``.

Corrupted, truncated, or foreign entries are never an error: anything
that does not load as a well-formed entry for the current code version
is treated as a miss (and cleaned up by :meth:`ResultStore.gc`).

See ``docs/sweeps.md`` for the manual.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any

#: Default store directory, relative to the current working directory.
DEFAULT_ROOT = ".repro-store"

#: Entry-format version; bumped on incompatible schema changes (old
#: entries then read as misses and are swept by ``gc``).
STORE_VERSION = 1

#: ``REPRO_STORE`` values that mean "no store at all".
_OFF_VALUES = ("off", "0", "none", "disabled", "no")


def describe_cell(cell: tuple) -> dict[str, Any]:
    """A human-readable, JSON-able description of one sweep cell.

    Mirrors the 6/7/8-tuple convention of
    :func:`repro.harness.sweep._run_cell`: a fault axis appends a
    ``FaultSpec`` (or None), a conformance axis appends a bool.
    """
    described: dict[str, Any] = {
        "system": cell[0],
        "application": cell[1],
        "dataset": cell[2],
        "cache": cell[3],
        "seed": cell[4],
        "nodes": cell[5],
    }
    if len(cell) >= 7:
        spec = cell[6]
        described["faults"] = (
            dataclasses.asdict(spec) if spec is not None else None
        )
    if len(cell) >= 8:
        described["conformance"] = bool(cell[7])
    return described


def cell_key(cell: tuple, digest: str) -> str:
    """The content address of one cell under one code version.

    The key material is the canonical JSON of the cell description plus
    the source digest and the ambient ``REPRO_CONFORMANCE`` switch
    (which changes what a machine checks, and therefore what the
    conformance columns report), so two processes agree on the key for
    a cell if and only if they would compute the same row for it.
    """
    material = {
        "version": STORE_VERSION,
        "digest": digest,
        "cell": describe_cell(cell),
        "arity": len(cell),
        "env_conformance": os.environ.get("REPRO_CONFORMANCE", "")
        not in ("", "0"),
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultStore:
    """On-disk content-addressed store of sweep result rows.

    ``root`` defaults to ``REPRO_STORE`` (when set to a path) or
    ``.repro-store/``; ``digest`` defaults to the live
    ``repro.__source_digest__`` and exists as a parameter so tests can
    simulate code-version changes without editing sources.

    The instance keeps session counters (``hits``/``misses``/
    ``writes``) that :meth:`stats` reports alongside the on-disk
    totals.
    """

    def __init__(self, root: str | Path | None = None,
                 digest: str | None = None) -> None:
        if root is None:
            env = os.environ.get("REPRO_STORE", "").strip()
            if env.lower() in _OFF_VALUES:
                raise ValueError(
                    "REPRO_STORE disables the store; construct "
                    "ResultStore with an explicit root to force one")
            root = env or DEFAULT_ROOT
        self.root = Path(root)
        if digest is None:
            from repro._fingerprint import source_digest

            digest = source_digest()
        self.digest = digest
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, store) -> "ResultStore | None":
        """Normalise ``Sweep.run``'s ``store`` argument.

        ``"auto"`` (the default) resolves through the environment:
        ``REPRO_STORE=off`` yields None (no caching), any other value
        is the store root, unset means ``.repro-store/``.  ``None`` or
        ``"off"`` disable caching outright; a path selects that root; a
        ready ``ResultStore`` passes through.
        """
        if store is None:
            return None
        if isinstance(store, ResultStore):
            return store
        if isinstance(store, str) and store.lower() in _OFF_VALUES:
            return None
        if store == "auto":
            env = os.environ.get("REPRO_STORE", "").strip()
            if env.lower() in _OFF_VALUES:
                return None
            return cls(env or DEFAULT_ROOT)
        return cls(store)

    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _object_files(self):
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        yield from sorted(objects.glob("*/*.json"))

    def key(self, cell: tuple) -> str:
        return cell_key(cell, self.digest)

    # ------------------------------------------------------------------
    def get(self, cell: tuple) -> dict[str, Any] | None:
        """The cached row for ``cell``, or None (a miss).

        Anything unreadable — missing file, truncated JSON, wrong
        schema version, foreign digest — is a miss, never an error:
        a damaged store costs recomputation, not correctness.
        """
        path = self._object_path(self.key(cell))
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if (entry["version"] != STORE_VERSION
                    or entry["digest"] != self.digest
                    or not isinstance(entry["row"], dict)):
                raise ValueError("stale or malformed entry")
            row = entry["row"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, cell: tuple, row: dict[str, Any]) -> str:
        """Persist ``row`` for ``cell``; returns the key.

        The write is atomic (temp file + rename), so concurrent pool
        workers and a half-written entry from a killed run both degrade
        to at worst a recomputed cell.
        """
        key = self.key(cell)
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": STORE_VERSION,
            "key": key,
            "digest": self.digest,
            "cell": describe_cell(cell),
            "row": row,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, path)
        self.writes += 1
        return key

    def gc(self) -> dict[str, int]:
        """Remove entries from other code versions (and unreadable ones).

        Returns ``{"removed": n, "kept": m, "skipped": s}`` — ``skipped``
        counts stale entries whose unlink failed (they are *still on
        disk*, so reporting them as removed would make ``repro sweep
        store gc`` lie about the store's contents).  Current-digest
        entries are never touched: the nightly full-matrix run gc's
        first, so the archived store holds exactly one code version.
        """
        removed = kept = skipped = 0
        for path in self._object_files():
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                stale = (entry["version"] != STORE_VERSION
                         or entry["digest"] != self.digest)
            except (OSError, ValueError, KeyError, TypeError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    skipped += 1
            else:
                kept += 1
        return {"removed": removed, "kept": kept, "skipped": skipped}

    def stats(self) -> dict[str, Any]:
        """On-disk totals plus this session's hit/miss/write counters."""
        entries = stale = size = 0
        for path in self._object_files():
            try:
                raw = path.read_text(encoding="utf-8")
                entry = json.loads(raw)
                current = (entry["version"] == STORE_VERSION
                           and entry["digest"] == self.digest)
            except (OSError, ValueError, KeyError, TypeError):
                current = False
                raw = ""
            entries += 1
            size += len(raw)
            stale += 0 if current else 1
        return {
            "root": str(self.root),
            "digest": self.digest,
            "entries": entries,
            "stale": stale,
            "bytes": size,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_writes": self.writes,
        }
