#!/usr/bin/env python
"""Performance regression gate against the committed benchmark baseline.

Compares a freshly measured ``BENCH_kernel.json`` (written by
``benchmarks/test_perf_kernel.py``) against the baseline committed at
``HEAD`` and fails on regression.  Two checks per workload cell, in
increasing strictness:

1. **Determinism** (exact, no tolerance): ``events_fired`` and
   ``simulated_cycles`` must equal the committed baseline.  These are
   properties of the simulated machine, not the host — any drift means
   the simulation's behaviour changed, and the PR must regenerate the
   baseline deliberately (re-run the benchmark and commit the new
   ``BENCH_kernel.json``) so the trajectory records it.

2. **Throughput** (tolerant): ``events_per_second`` must be at least
   ``(1 - tolerance)`` of the baseline.  Default tolerance 0.25 —
   the gate of CI's ``perf`` job — overridable with
   ``REPRO_PERF_TOLERANCE`` (e.g. ``0.5`` on very noisy hosts).

The batched-access-lane rows (the ``lanes`` payload section) get the
same determinism and throughput checks per lane cell, plus two of their
own: scalar and batched must agree exactly on ``simulated_cycles`` and
``events_fired`` (the lanes change wall-clock only), and the CPU-time
lane speedup must stay above its floor — ``REPRO_PERF_MIN_LANE_SPEEDUP``
(default 1.3) on the reference-intensity microbenchmark row, the row's
own recorded ``lane_floor`` on the application rows.

Usage::

    python tools/check_perf.py                   # fresh vs HEAD baseline
    python tools/check_perf.py --baseline B.json # explicit baseline
    python tools/check_perf.py --fresh F.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_kernel.json"


def load_baseline(path: str | None) -> dict:
    """The committed baseline: ``--baseline`` file or ``HEAD``'s copy."""
    if path is not None:
        return json.loads(Path(path).read_text())
    try:
        blob = subprocess.run(
            ["git", "show", "HEAD:BENCH_kernel.json"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except subprocess.CalledProcessError:
        print("no committed BENCH_kernel.json at HEAD and no --baseline "
              "given: nothing to compare against", file=sys.stderr)
        sys.exit(1)
    return json.loads(blob)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: HEAD's committed copy)")
    parser.add_argument("--fresh", default=str(BENCH),
                        help="freshly measured JSON (default: repo root)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_PERF_TOLERANCE", "0.25")),
                        help="allowed fractional events/s regression")
    parser.add_argument("--min-lane-speedup", type=float,
                        default=float(os.environ.get(
                            "REPRO_PERF_MIN_LANE_SPEEDUP", "1.3")),
                        help="floor on the microbenchmark's batched-vs-"
                             "scalar lane speedup")
    args = parser.parse_args(argv)

    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        print(f"{fresh_path} not found: run "
              f"'PYTHONPATH=src python -m pytest benchmarks/"
              f"test_perf_kernel.py -q -s' first", file=sys.stderr)
        return 1
    fresh = json.loads(fresh_path.read_text())
    baseline = load_baseline(args.baseline)

    failures: list[str] = []
    if fresh.get("nodes") != baseline.get("nodes"):
        print(f"configuration mismatch: fresh nodes={fresh.get('nodes')} "
              f"baseline nodes={baseline.get('nodes')}; not comparable",
              file=sys.stderr)
        return 1

    base_cells = baseline.get("workloads", {})
    for label, fresh_row in sorted(fresh.get("workloads", {}).items()):
        base_row = base_cells.get(label)
        if base_row is None:
            print(f"{label:>16}: new workload (no baseline) -- recorded")
            continue
        cell = fresh_row
        for field in ("events_fired", "simulated_cycles"):
            if cell[field] != base_row[field]:
                failures.append(
                    f"{label}: {field} changed "
                    f"{base_row[field]} -> {cell[field]} (simulated "
                    f"behaviour drifted; regenerate and commit "
                    f"BENCH_kernel.json in this PR)"
                )
        floor = base_row["events_per_second"] * (1 - args.tolerance)
        ok = cell["events_per_second"] >= floor
        print(f"{label:>16}: "
              f"{cell['events_per_second']:>10,.0f} events/s vs "
              f"baseline {base_row['events_per_second']:>10,.0f} "
              f"(floor {floor:,.0f}) {'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(
                f"{label}: events/s regressed more than "
                f"{args.tolerance:.0%}: {cell['events_per_second']:,.0f}"
                f" < {floor:,.0f}"
            )

    base_lanes = baseline.get("lanes", {})
    for label, fresh_row in sorted(fresh.get("lanes", {}).items()):
        base_row = base_lanes.get(label)
        cells = fresh_row.get("lanes", {})
        # The lane axis is wall-clock only: both lane modes must agree
        # exactly on the simulated outcome, baseline or not.
        for field in ("simulated_cycles", "events_fired"):
            values = {mode: cell[field] for mode, cell in cells.items()}
            if len(set(values.values())) > 1:
                failures.append(
                    f"{label}: scalar and batched lanes disagree on "
                    f"{field}: {values} (the lanes must not change "
                    f"simulated behaviour)"
                )
        for mode, cell in sorted(cells.items()):
            base = (base_row or {}).get("lanes", {}).get(mode)
            if base is None:
                print(f"{label:>16} [{mode}]: new lane cell -- recorded")
                continue
            for field in ("events_fired", "simulated_cycles"):
                if cell[field] != base[field]:
                    failures.append(
                        f"{label} [{mode}]: {field} changed "
                        f"{base[field]} -> {cell[field]} (simulated "
                        f"behaviour drifted; regenerate and commit "
                        f"BENCH_kernel.json in this PR)"
                    )
            floor = base["events_per_second"] * (1 - args.tolerance)
            ok = cell["events_per_second"] >= floor
            print(f"{label:>16} [{mode:>11}]: "
                  f"{cell['events_per_second']:>10,.0f} events/s vs "
                  f"baseline {base['events_per_second']:>10,.0f} "
                  f"(floor {floor:,.0f}) {'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{label} [{mode}]: events/s regressed more than "
                    f"{args.tolerance:.0%}: {cell['events_per_second']:,.0f}"
                    f" < {floor:,.0f}"
                )
        lane_speedup = fresh_row.get("lane_speedup")
        if fresh_row.get("microbenchmark"):
            lane_floor = args.min_lane_speedup
        else:
            lane_floor = fresh_row.get("lane_floor")
        if lane_speedup is not None and lane_floor is not None:
            ok = lane_speedup >= lane_floor
            print(f"{label:>16} [lane spdup ]: {lane_speedup:.2f}x "
                  f"(floor {lane_floor:.2f}x) {'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{label}: batched-vs-scalar lane speedup "
                    f"{lane_speedup:.2f}x fell below the "
                    f"{lane_floor:.2f}x floor"
                )

    if failures:
        print(f"\n{len(failures)} performance check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall performance checks passed "
          f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
