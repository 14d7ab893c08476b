"""Generic parameter sweeps: systems x workloads x configurations.

The figure runners in :mod:`repro.harness.experiments` are hand-shaped to
the paper's artifacts; this utility is the general tool behind ad-hoc
studies — run every combination of the axes you name, collect one row per
cell, render or export.

Example::

    from repro.harness.sweep import Sweep

    sweep = (
        Sweep()
        .systems("dirnnb", "typhoon-stache")
        .workloads(("ocean", "small"), ("em3d", "small"))
        .cache_sizes(512, 8192)
        .seeds(42, 43)
    )
    result = sweep.run(nodes=4, workers=4)
    print(result.to_text())
    open("sweep.csv", "w").write(result.to_csv())

Cells are independent simulations (each builds its own machine from its
seed), so ``run(workers=N)`` farms them out to a process pool.  Results
are merged back in deterministic cell order, so the output table is
byte-identical to a serial run.

Cells are also **pure functions** of their axes plus the code version,
so ``run()`` consults the content-addressed result store
(:mod:`repro.harness.store`) by default: cells whose rows are already
cached for the current ``repro.__source_digest__`` are *hits* and are
not executed; only misses run (serial or in the pool — pool workers
write their rows through to the store themselves).  A warm run returns
rows bit-identical to a cold run.  ``run(store=None)`` (or
``REPRO_STORE=off`` in the environment) restores the always-execute
behaviour; ``run(store=path_or_ResultStore)`` pins a specific store.
See ``docs/sweeps.md``.
"""

from __future__ import annotations

import inspect
import multiprocessing
from typing import Any

from repro.harness.report import ExperimentResult
from repro.harness.runner import run_application
from repro.harness.store import ResultStore
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig


def _run_cell(cell: tuple) -> dict[str, Any]:
    """Run one sweep cell and return its (picklable) result row.

    Module-level so :mod:`multiprocessing` can ship it to pool workers;
    the machine object itself never crosses the process boundary — only
    the scalar row values do.  Cells are 6-tuples; a sweep with a fault
    axis appends a FaultSpec (or None) as a seventh element, and its rows
    gain ``faults``/``retries``/``nacks`` columns.  A conformance axis
    appends a bool as an eighth element (the fault slot is then always
    present, None when no fault axis was set), and rows gain
    ``conformance``/``checks``/``violations`` columns.
    """
    faults = None
    conformance = False
    if len(cell) == 8:
        (system, app_name, dataset, cache_bytes, seed, nodes,
         faults, conformance) = cell
    elif len(cell) == 7:
        system, app_name, dataset, cache_bytes, seed, nodes, faults = cell
    else:
        system, app_name, dataset, cache_bytes, seed, nodes = cell
    config = MachineConfig(nodes=nodes, seed=seed).with_cache_size(cache_bytes)
    outcome = run_application(system, workload(app_name, dataset).build(),
                              config, faults=faults,
                              conformance=conformance)
    row = {
        "system": system,
        "application": app_name,
        "dataset": dataset,
        "cache": cache_bytes,
        "seed": seed,
        "cycles": outcome["execution_time"],
        "refs": outcome["refs"],
        "remote_packets": outcome["remote_packets"],
    }
    if len(cell) >= 7:
        stats = outcome["machine"].stats
        row["faults"] = faults.name if faults is not None else "none"
        row["retries"] = stats.get("tempest.retries")
        row["nacks"] = stats.get("tempest.nacks_sent")
    if len(cell) == 8:
        monitor = outcome["machine"].conformance
        row["conformance"] = "on" if conformance else "off"
        row["checks"] = monitor.checks if monitor is not None else 0
        row["violations"] = (
            len(monitor.violations) if monitor is not None else 0
        )
    return row


def _run_cell_store(task: tuple) -> dict[str, Any]:
    """Pool-worker entry: run one miss and write it through to the store.

    ``task`` is ``(cell, store_root, digest)`` — all picklable — so the
    worker opens its own view of the store and persists the row itself
    (atomic rename; see :meth:`ResultStore.put`).  The parent collects
    the returned row for the result table without re-reading the disk.
    """
    cell, root, digest = task
    row = _run_cell(cell)
    ResultStore(root, digest=digest).put(cell, row)
    return row


def _progress_callback(progress):
    """Adapt a user progress callback to the ``cached=`` flag.

    Callbacks that accept a ``cached`` keyword (or ``**kwargs``) are
    told whether each reported cell was a store hit; legacy two-argument
    callbacks keep working unchanged.
    """
    if progress is None:
        return lambda done, total, cached: None
    try:
        parameters = list(inspect.signature(progress).parameters.values())
    except (TypeError, ValueError):
        parameters = []
    kinds = inspect.Parameter
    for parameter in parameters:
        if parameter.name == "cached":
            if parameter.kind is kinds.POSITIONAL_ONLY:
                # ``def cb(done, total, cached, /)``: the name exists
                # but cannot be used as a keyword — calling with
                # ``cached=`` raises TypeError, so pass positionally.
                return lambda done, total, cached: progress(done, total,
                                                            cached)
            if parameter.kind in (kinds.POSITIONAL_OR_KEYWORD,
                                  kinds.KEYWORD_ONLY):
                return lambda done, total, cached: progress(
                    done, total, cached=cached)
    if any(p.kind is kinds.VAR_KEYWORD for p in parameters):
        return lambda done, total, cached: progress(done, total,
                                                    cached=cached)
    return lambda done, total, cached: progress(done, total)


class Sweep:
    """A cartesian sweep builder (fluent interface)."""

    def __init__(self) -> None:
        self._systems: list[str] = ["typhoon-stache"]
        self._workloads: list[tuple[str, str]] = [("ocean", "small")]
        self._cache_sizes: list[int] = [8192]
        self._seeds: list[int] = [42]
        #: Fault-matrix axis; None means "no axis" (6-tuple cells, no
        #: faults columns — the backward-compatible default).
        self._faults: list | None = None
        #: Conformance axis; None means "no axis" (no conformance
        #: columns).  With it set, cells become 8-tuples.
        self._conformance: list[bool] | None = None

    # ------------------------------------------------------------------
    def systems(self, *names: str) -> "Sweep":
        self._systems = list(names)
        return self

    def all_systems(self) -> "Sweep":
        """Sweep the full composable ``backend:protocol`` matrix.

        Sets the system axis to every canonical system in
        :func:`repro.backends.all_systems` — DirNNB plus every protocol
        on every Tempest backend.
        """
        from repro.backends import all_systems

        self._systems = list(all_systems())
        return self

    def workloads(self, *pairs: tuple[str, str]) -> "Sweep":
        self._workloads = [tuple(pair) for pair in pairs]
        return self

    def cache_sizes(self, *sizes: int) -> "Sweep":
        self._cache_sizes = list(sizes)
        return self

    def seeds(self, *seeds: int) -> "Sweep":
        self._seeds = list(seeds)
        return self

    def faults(self, *specs) -> "Sweep":
        """Add a fault-matrix axis: FaultSpec values (None = reliable).

        With this axis present, cells become 7-tuples and result rows
        gain ``faults`` (the spec's name), ``retries`` and ``nacks``
        columns — the shape ``run_reliability_ladder`` reports.
        """
        self._faults = list(specs) if specs else None
        return self

    def conformance(self, *flags: bool) -> "Sweep":
        """Add a conformance axis: run each cell with the monitor on/off.

        ``conformance(True)`` checks every cell; ``conformance(False,
        True)`` runs each combination both ways (e.g. to confirm the
        monitor is timing-passive).  With this axis present, cells
        become 8-tuples and rows gain ``conformance``/``checks``/
        ``violations`` columns.  Every composed system runs under its
        protocol's spec (em3d-update's is step-indexed).
        """
        self._conformance = list(flags) if flags else None
        return self

    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        return (len(self._systems) * len(self._workloads)
                * len(self._cache_sizes) * len(self._seeds)
                * (len(self._faults) if self._faults is not None else 1)
                * (len(self._conformance)
                   if self._conformance is not None else 1))

    def cell_list(self, nodes: int = 8) -> list[tuple]:
        """The sweep's cells in canonical order (workloads, cache, seed,
        [faults, conformance,] system)."""
        if self._faults is None and self._conformance is None:
            return [
                (system, app_name, dataset, cache_bytes, seed, nodes)
                for app_name, dataset in self._workloads
                for cache_bytes in self._cache_sizes
                for seed in self._seeds
                for system in self._systems
            ]
        if self._conformance is None:
            return [
                (system, app_name, dataset, cache_bytes, seed, nodes, spec)
                for app_name, dataset in self._workloads
                for cache_bytes in self._cache_sizes
                for seed in self._seeds
                for spec in self._faults
                for system in self._systems
            ]
        fault_axis = self._faults if self._faults is not None else [None]
        return [
            (system, app_name, dataset, cache_bytes, seed, nodes, spec, check)
            for app_name, dataset in self._workloads
            for cache_bytes in self._cache_sizes
            for seed in self._seeds
            for spec in fault_axis
            for check in self._conformance
            for system in self._systems
        ]

    def run(self, nodes: int = 8, progress=None, workers: int = 1,
            store="auto") -> ExperimentResult:
        """Run every cell; ``progress(done, total)`` is called per cell.

        ``workers > 1`` runs cells in a process pool.  Each cell is a
        self-contained simulation, so parallel execution changes nothing
        but wall-clock time: rows are collected in canonical cell order
        and match a serial run exactly.

        ``store`` selects the result store consulted before executing
        anything: ``"auto"`` (default) resolves via ``REPRO_STORE`` to
        ``.repro-store/``; ``None``/``"off"`` disables caching; a path
        or :class:`~repro.harness.store.ResultStore` pins one.  Cached
        cells are *hits* — returned without executing, bit-identical to
        a cold run — and only misses execute (pool workers write their
        rows through to the store).  ``progress`` fires for hits too,
        with ``cached=True`` when the callback accepts the keyword, so
        reporting stays monotone under warm stores.  The returned
        result carries a ``cache_stats`` attribute:
        ``{"hits", "executed", "cells", "store"}``.
        """
        columns = ["system", "application", "dataset", "cache", "seed",
                   "cycles", "refs", "remote_packets"]
        if self._faults is not None or self._conformance is not None:
            columns += ["faults", "retries", "nacks"]
        if self._conformance is not None:
            columns += ["conformance", "checks", "violations"]
        result = ExperimentResult(
            "sweep",
            f"{self.cells}-cell sweep at {nodes} nodes",
            columns,
        )
        cells = self.cell_list(nodes)
        resolved = ResultStore.resolve(store)
        notify = _progress_callback(progress)
        total = self.cells

        if resolved is None:
            rows: list[dict[str, Any] | None] = [None] * len(cells)
            if workers > 1 and len(cells) > 1:
                with multiprocessing.Pool(min(workers, len(cells))) as pool:
                    # imap (not imap_unordered): rows must land in cell
                    # order.
                    for done, row in enumerate(pool.imap(_run_cell, cells),
                                               1):
                        rows[done - 1] = row
                        notify(done, total, False)
            else:
                for done, cell in enumerate(cells, 1):
                    rows[done - 1] = _run_cell(cell)
                    notify(done, total, False)
            hits = 0
        else:
            rows = [resolved.get(cell) for cell in cells]
            miss_indices = [index for index, row in enumerate(rows)
                            if row is None]
            hits = len(cells) - len(miss_indices)
            if workers > 1 and len(miss_indices) > 1:
                # Hits are reported first (monotone, cached=True), then
                # misses as the pool completes them; workers persist
                # their own rows (write-through), the parent only
                # collects them for the table.
                done = 0
                for index, row in enumerate(rows):
                    if row is not None:
                        done += 1
                        notify(done, total, True)
                tasks = [(cells[index], str(resolved.root), resolved.digest)
                         for index in miss_indices]
                with multiprocessing.Pool(min(workers, len(tasks))) as pool:
                    for index, row in zip(miss_indices,
                                          pool.imap(_run_cell_store, tasks)):
                        rows[index] = row
                        done += 1
                        notify(done, total, False)
            else:
                for done, cell in enumerate(cells, 1):
                    cached = rows[done - 1] is not None
                    if not cached:
                        row = _run_cell(cell)
                        resolved.put(cell, row)
                        rows[done - 1] = row
                    notify(done, total, cached)

        for row in rows:
            result.add_row(**row)
        result.cache_stats = {
            "cells": len(cells),
            "hits": hits,
            "executed": len(cells) - hits,
            "store": str(resolved.root) if resolved is not None else None,
        }
        return result
