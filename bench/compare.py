"""Compare two ledger results: is B no worse than A, metric by metric?

    python bench/compare.py A.json B.json

For every (workload, end-to-end metric) pair it prints both sides' lower
quartile, median and interquartile range (IQR), the change of the
median, the change of the raw (unnormalised) median where the metric is
a host time, and a verdict on the normalised values:

* ``unresolved``: the IQR of either side, as a share of A's median, is
  wider than the metric's bound, so the runs cannot tell a change of
  that size from noise.  Every run of B reading better than every run
  of A still counts as ``better``.
* ``worse``: B's median is worse than A's by more than the bound.
* ``better``: B's median is better than A's by more than the bound.
* ``within bound``: otherwise.

The bound and direction are the ones A's ledger recorded.  Exits 1 when
any pair is ``worse`` or B's error rate is higher than A's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def verdict(a: dict, b: dict) -> str:
    """The verdict for one metric's summaries ``a`` (base) and ``b``."""
    base = a["median"]
    higher = a["better"] == "higher"
    gain = (b["median"] - base) / base * (1 if higher else -1)
    spread = max(_iqr(a), _iqr(b)) / base
    if spread > a["bound"]:
        if higher:
            every_run_better = min(b["values"]) > max(a["values"])
        else:
            every_run_better = max(b["values"]) < min(a["values"])
        return "better" if every_run_better else "unresolved"
    if gain < -a["bound"]:
        return "worse"
    if gain > a["bound"]:
        return "better"
    return "within bound"


def _iqr(summary: dict) -> float:
    return summary["q3"] - summary["q1"]


def _change(a: dict, b: dict) -> str:
    return f"{(b['median'] / a['median'] - 1) * 100:+.1f}%"


def _cells(a: dict, b: dict) -> str:
    raw = (_change(a["raw"], b["raw"]) if "raw" in a and "raw" in b
           else "-")
    return (f"{a['q1']:>10.4g} {a['median']:>10.4g} {_iqr(a):>9.3g} "
            f"{b['q1']:>10.4g} {b['median']:>10.4g} {_iqr(b):>9.3g} "
            f"{_change(a, b):>7s} {raw:>7s}")


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """The comparison's table lines, and whether B passes: nothing worse,
    nothing missing, no rise in the error rate."""
    lines = []
    ok = True
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        for metric, sa in base["end_to_end"].items():
            sb = other["end_to_end"].get(metric) if other else None
            if sb is None:
                result, cells = "missing in B", ""
            else:
                result, cells = verdict(sa, sb), _cells(sa, sb)
            ok &= result not in ("worse", "missing in B")
            lines.append(f"{name:16s} {metric:17s} {cells:78s}  {result}")
        if other is not None and other["error_rate"] > base["error_rate"]:
            ok = False
            lines.append(f"{name:16s} {'error_rate':17s} "
                         f"{base['error_rate']:.4g} -> "
                         f"{other['error_rate']:.4g}  worse")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="base ledger results JSON")
    parser.add_argument("b", type=Path, help="ledger results JSON to check")
    args = parser.parse_args(argv)
    lines, ok = compare(json.loads(args.a.read_text()),
                        json.loads(args.b.read_text()))
    print(f"{'workload':16s} {'metric':17s} {'A q1':>10s} {'A median':>10s} "
          f"{'A IQR':>9s} {'B q1':>10s} {'B median':>10s} {'B IQR':>9s} "
          f"{'change':>7s} {'raw':>7s}  verdict")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
