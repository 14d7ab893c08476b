"""The simulator's performance ledger: five workloads, end to end and per layer.

Full ledger (four minutes on a quiet 2-CPU box, up to seven on a busy
one)::

    python bench/run.py [--seed N] [--out FILE]

runs every workload nine times, interleaved round-robin (the order
reversed every other round), with a sampled run after every other one,
plus set-up-only and traced runs and the layer microbenchmarks.  It
prints every end-to-end metric with its unit, median, quartiles and
sample count, then the per-layer table, and writes everything to a
results JSON (``bench/results/`` by default) that ``bench/compare.py``
compares.

One workload per call, for a harness that times workloads one by one::

    python bench/run.py --workload mp3d-typhoon --seed 3 --seconds 20 --trace 0

measures for ``--seconds`` and prints, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Either way each run is a fresh ``python`` process (``child.py``) and only
one runs at a time: a closed loop with one client.  Every simulated
outcome is checked; any failure or mismatch makes the exit status 1.
Metric names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    OUTCOME_KEYS, PINNED, PINNED_SEED, WORKLOADS,
)

#: Seconds one child may take before it counts as failed.
CHILD_TIMEOUT_S = 150

#: Measured runs per workload in the full ledger.
LEDGER_ROUNDS = 9
#: The round of the full ledger that makes the traced run.
TRACE_ROUND = 4
#: Fewest measured runs per workload in a ``--seconds`` measurement.
MIN_RUNS = 3


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Same string hashes in every run, so dict layouts repeat.
    env["PYTHONHASHSEED"] = "0"
    # The ambient conformance switch would add monitoring to every run.
    env.pop("REPRO_CONFORMANCE", None)
    # Set-up imports modules lazily, so it is timed with the bytecode
    # cache a default interpreter keeps (the warm-up run fills it), and
    # with the sweep's value asserts in force.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONOPTIMIZE", None)
    return env


def run_child(spec: dict) -> dict:
    """Run ``child.py`` on ``spec``; returns its result or ``{"error"}``."""
    command = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()}"}
    if done.returncode != 0 and "error" not in result:
        result = {"error": f"exit {done.returncode}"}
    return result


class Samples:
    """Every child result for one workload, by mode."""

    def __init__(self, name: str):
        self.name = name
        self.by_mode: dict[str, list[dict]] = {
            "run": [], "setup": [], "trace": [], "sample": []}
        self.errors: list[str] = []
        #: (run result, sample result) pairs made back to back.
        self.pairs: list[tuple[dict, dict]] = []

    @property
    def attempted(self) -> int:
        return sum(map(len, self.by_mode.values())) + len(self.errors)

    @property
    def builds(self) -> list[dict]:
        """Results whose set-up was timed untraced (traced runs wrap
        handlers between the set-up steps)."""
        return (self.by_mode["run"] + self.by_mode["setup"]
                + self.by_mode["sample"])

    def take(self, mode: str, seed: int) -> dict | None:
        result = run_child({"workload": self.name, "seed": seed,
                            "mode": mode})
        if "error" in result:
            self.errors.append(f"{mode}: {result['error']}")
            return None
        self.by_mode[mode].append(result)
        return result

    def take_pair(self, seed: int) -> None:
        run = self.take("run", seed)
        sample = self.take("sample", seed)
        if run is not None and sample is not None:
            self.pairs.append((run, sample))


# ----------------------------------------------------------------------
# Statistics and metrics
# ----------------------------------------------------------------------
def summary(values: list[float]) -> dict:
    """Median, quartiles and count of a non-empty sample."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end_values(samples: Samples,
                      raw: bool = False) -> dict[str, list[float]]:
    """Every end-to-end metric's values, host time normalised to the
    reference host; with ``raw``, the host-time metrics as measured."""
    wall, setup = ("run_s", "setup_raw_s") if raw else ("wall_s", "setup_s")
    runs = samples.by_mode["run"]
    values = {
        "sim_cycles_per_s": [r["outcome"]["execution_time"] / r[wall]
                             for r in runs],
        "refs_per_s": [r["outcome"]["refs"] / r[wall] for r in runs],
        "wall_s": [r[wall] for r in runs],
        "setup_s": [r[setup] for r in samples.builds],
    }
    if not raw:
        values["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(samples: Samples, micro: dict | None) -> dict:
    """Per-layer metric -> value (None where the run to measure it failed)."""
    values: dict[str, float | None] = {}
    runs = samples.by_mode["run"]
    builds = samples.builds
    for part in ("build_s", "kernel_install_s", "app_setup_s"):
        values[f"harness.{part}"] = (statistics.median(
            r[part] for r in builds) if builds else None)
    base_wall = statistics.median(r["wall_s"] for r in runs) if runs else None
    if runs:
        first = runs[0]
        outcome = first["outcome"]
        values["sim.events_fired"] = first["events_fired"]
        values["network.sends"] = first["network_packets"]
        values["memory.refs"] = outcome["refs"]
        values["memory.block_faults"] = outcome["block_faults"]
        values["memory.page_faults"] = outcome["page_faults"]
        values["network.remote_packets"] = outcome["remote_packets"]
        values["network.words"] = outcome["network_words"]
    traces = samples.by_mode["trace"]
    if traces:
        trace = traces[0]["trace"]
        total = trace["total_s"]
        counts = trace["counts"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = trace["self_s"][layer]
            values[f"{layer}.share"] = _ratio(trace["self_s"][layer], total)
        values["apps.resumes"] = counts.get("apps.resumes", 0)
        values["memory.inline_hit_ratio"] = _ratio(
            counts.get("memory.inline_hits", 0),
            counts.get("memory.inline_attempts", 0))
        values["memory.lane_commit_ratio"] = _ratio(
            counts.get("memory.lane_committed", 0),
            counts.get("memory.lane_offered", 0))
        values["memory.miss_steps"] = counts.get("memory.miss_steps", 0)
        for name in ("typhoon.dispatches", "blizzard.services",
                     "decoupled.dispatches", "protocols.handler_calls",
                     "tempest.sends"):
            values[name] = counts.get(name, 0)
        wall = traces[0]["wall_s"]
        values["trace.sum_error"] = abs(total - wall) / wall
        if base_wall:
            values["trace.overhead"] = wall / base_wall - 1
    if samples.pairs:
        merged: dict[str, int] = {}
        for _run, sample in samples.pairs:
            for layer, count in sample["samples"].items():
                merged[layer] = merged.get(layer, 0) + count
        total = sum(merged.values())
        for layer in LAYERS + ("other",):
            values[f"{layer}.sample_share"] = _ratio(merged.get(layer, 0),
                                                     total)
        values["sampler.samples"] = total
        values["sampler.overhead"] = statistics.median(
            sample["wall_s"] / run["wall_s"] - 1
            for run, sample in samples.pairs)
        values["sampler.handler_share"] = statistics.median(
            sample["sampler_handler_share"] for _run, sample in samples.pairs)
    if micro:
        values.update(micro)
    return values


def check(samples: Samples, seed: int) -> list[str]:
    """Problems with the workload's simulated outcomes (empty: correct)."""
    problems = list(samples.errors)
    outcomes = [
        (mode, {key: r["outcome"][key] for key in OUTCOME_KEYS})
        for mode in ("run", "trace", "sample")
        for r in samples.by_mode[mode]
    ]
    if not samples.by_mode["run"]:
        problems.append("no measured run completed")
    if outcomes:
        reference = outcomes[0][1]
        for mode, outcome in outcomes[1:]:
            if outcome != reference:
                problems.append(f"{mode} outcome {outcome} differs from "
                                f"{reference}")
        pinned = PINNED.get(samples.name)
        if seed == PINNED_SEED and pinned is not None and reference != pinned:
            problems.append(f"outcome {reference} differs from the pinned "
                            f"{pinned}")
    for trace in samples.by_mode["trace"]:
        total, wall = trace["trace"]["total_s"], trace["wall_s"]
        if abs(total - wall) > 0.01 * wall:
            problems.append(f"layer self times sum to {total:.3f} s, the "
                            f"traced run took {wall:.3f} s")
    return problems


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_report(samples: Samples, seed: int, spec: dict,
                    micro: dict | None) -> dict:
    e2e_values = end_to_end_values(samples)
    raw_values = end_to_end_values(samples, raw=True)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = e2e_values[name]
        if values:
            end_to_end[name] = dict(
                unit=metric["unit"], better=metric["better"],
                bound=metric["bound"], **summary(values))
            if raw_values.get(name):
                end_to_end[name]["raw"] = summary(raw_values[name])
    layer_values = per_layer_values(samples, micro)
    per_layer = {
        metric["name"]: {"unit": metric["unit"],
                         "value": layer_values.get(metric["name"])}
        for metric in spec["per_layer"]
    }
    problems = check(samples, seed)
    failed = len(samples.errors)
    traces = samples.by_mode["trace"]
    runs = samples.by_mode["run"]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": samples.attempted,
        "failed": failed,
        "error_rate": _ratio(failed, samples.attempted),
        "kernel_installed": runs[0]["kernel_installed"] if runs else None,
        "outcome": runs[0]["outcome"] if runs else None,
        "run_s": [r["run_s"] for r in runs],
        "host_speed": [r["host_speed"] for r in runs],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "boundaries": ({key: traces[0]["trace"][key]
                        for key in ("found", "absent", "fused")}
                       if traces else None),
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def print_end_to_end(reports: dict) -> None:
    print(f"{'workload':16s} {'metric':18s} {'unit':9s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'n':>3s} {'raw median':>11s}")
    for name, report in reports.items():
        for metric, row in report["end_to_end"].items():
            raw = row.get("raw", {}).get("median")
            print(f"{name:16s} {metric:18s} {row['unit']:9s} "
                  f"{_fmt(row['median']):>11s} {_fmt(row['q1']):>11s} "
                  f"{_fmt(row['q3']):>11s} {row['n']:3d} {_fmt(raw):>11s}")
        print(f"{name:16s} {'error_rate':18s} {'fraction':9s} "
              f"{_fmt(report['error_rate']):>11s}")
        if report["host_speed"]:
            speed = summary(report["host_speed"])
            print(f"{name:16s} {'(host speed)':18s} {'x ref':9s} "
                  f"{_fmt(speed['median']):>11s} {_fmt(speed['q1']):>11s} "
                  f"{_fmt(speed['q3']):>11s} {speed['n']:3d}")


def print_per_layer(reports: dict) -> None:
    names = list(reports)
    print(f"{'per-layer metric':28s} " + " ".join(f"{n:>15s}" for n in names))
    metrics = next(iter(reports.values()))["per_layer"]
    for metric, row in metrics.items():
        cells = " ".join(f"{_fmt(reports[n]['per_layer'][metric]['value']):>15s}"
                         for n in names)
        print(f"{metric:28s} {cells}  {row['unit']}")
    for name, report in reports.items():
        boundaries = report["boundaries"]
        if boundaries and (boundaries["absent"] or boundaries["fused"]):
            print(f"{name}: absent {boundaries['absent']}, "
                  f"fused {boundaries['fused']}")


# ----------------------------------------------------------------------
# The two entry points
# ----------------------------------------------------------------------
def warm_up(name: str, seed: int) -> None:
    """One unrecorded set-up run: the first process in a fresh checkout
    compiles the bytecode and fills the page cache."""
    run_child({"workload": name, "seed": seed, "mode": "setup"})


def run_ledger(seed: int, out: Path | None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    samples = {name: Samples(name) for name in names}
    started = time.monotonic()
    warm_up(names[0], seed)
    for round_index in range(LEDGER_ROUNDS):
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            runs = samples[name]
            # Every other measured run is followed by a sampled one,
            # the five pairs of the sampler's overhead A/B.
            if round_index % 2 == 0:
                runs.take_pair(seed)
            else:
                runs.take("run", seed)
            runs.take("setup", seed)  # 23 untraced builds in all
            if round_index == TRACE_ROUND:
                runs.take("trace", seed)
        print(f"round {round_index + 1}/{LEDGER_ROUNDS} done "
              f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
    micro_result = run_child({"mode": "micro"})
    micro = micro_result.get("micro")
    reports = {name: workload_report(samples[name], seed, spec, micro)
               for name in names}
    print_end_to_end(reports)
    print()
    print_per_layer(reports)
    ledger = {
        "seed": seed,
        "elapsed_s": time.monotonic() - started,
        "micro_error": micro_result.get("error"),
        "workloads": reports,
    }
    if out is None:
        out = BENCH / "results" / (
            f"ledger-seed{seed}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nresults: {out}")
    ok = micro is not None and all(
        r["correct"] and not r["failed"] for r in reports.values())
    if micro is None:
        print(f"micro: {micro_result.get('error')}", file=sys.stderr)
    for name, report in reports.items():
        for problem in report["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
    return 0 if ok else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    samples = Samples(name)
    started = time.monotonic()
    deadline = started + seconds
    warm_up(name, seed)
    micro = None
    if trace:
        samples.take("run", seed)
        samples.take("trace", seed)
        samples.take_pair(seed)
        while time.monotonic() < deadline:
            samples.take_pair(seed)
        micro_result = run_child({"mode": "micro"})
        micro = micro_result.get("micro")
        if micro is None:
            samples.errors.append(f"micro: {micro_result.get('error')}")
    else:
        while (time.monotonic() < deadline
               or len(samples.by_mode["run"]) < MIN_RUNS):
            if samples.take("run", seed) is None and len(samples.errors) > 2:
                break
            samples.take("setup", seed)
    report = workload_report(samples, seed, spec, micro)
    for problem in report["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    if trace:
        metrics = {metric: {"value": row["value"] or 0, "unit": row["unit"]}
                   for metric, row in report["per_layer"].items()}
        print_per_layer({name: report})
    else:
        metrics = {metric: {"value": row["value"], "unit": row["unit"]}
                   for metric, row in report["end_to_end"].items()}
        print_end_to_end({name: report})
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["correct"] and not report["failed"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="results JSON of the full ledger")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_ledger(args.seed, args.out)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
