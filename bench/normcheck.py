"""Does host-speed normalisation keep a known slowdown at its true size?

    python bench/normcheck.py

Every host time in the ledger is rescaled by ``hostspeed.py`` to a
reference host, as ``run_s * speed ** speed_exponent``.  A ledger taken
on a slow moment of the host is then compared with one taken on a fast
moment.  This script checks that such a comparison reads a slowdown of
known size at that size.  For each workload it makes :data:`PAIRS`
back-to-back pairs of runs, each in a fresh process:

* a **base** run, and
* an **injected** run, in which every process resume
  (``Process._advance``, where the engine hands control to the
  application) first runs :func:`busy` ``(k)``: a fixed extra cost,
  sized to add about :data:`EXTRA` of the run's time.

Both runs go through the same counting wrapper, so only :func:`busy`
differs.  The two runs of a pair are seconds apart, so they see about
the same host speed: the median over the pairs of the injected run's
normalised ``wall_s`` over the base run's, minus 1, is the slowdown's
**true** size.

The host's speed wanders by itself, so the pairs are split by their
measured host speed into a slower and a faster half.  Then the ledger's
case is replayed both ways round: the injected runs of one half against
the base runs of the other, as medians.  Each such **cross** rise must
come within :data:`TOLERANCE` of the true one, and the base runs of the
two halves must agree within it too (**drift**).  A workload whose
``speed_exponent`` is wrong, or a slowdown whose code scales with the
host differently from the rest of the run, fails here.  The exit status
is 1 on such a failure or a failed run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import CHILD_TIMEOUT_S, ROOT, SRC, child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Pairs of runs per workload.
PAIRS = 8

#: The injected cost, as a share of a run: large against the few
#: percent of noise in one pair.
EXTRA = 0.25

#: How far a cross rise may be from the true one, and the two halves'
#: base times from each other, as a share of the base time: half the
#: ledger's 10% bound on host time.
TOLERANCE = 0.05


def busy(k: int) -> int:
    """The injected cost: integer arithmetic only.  It allocates no
    container, so it does not bring the cyclic garbage collector's passes
    over the simulator's objects forward."""
    total = 0
    for i in range(k):
        total += i * i % 7
    return total


def seconds_per_iteration() -> float:
    """Host seconds per iteration of :func:`busy`, on its own: the
    fastest of a few timings of 0.2 M iterations in short calls, as in a
    run."""
    timings = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(1000):
            busy(200)
        timings.append((perf_counter() - start) / 200_000)
    return min(timings)


def child(workload_name: str, k: int) -> dict:
    """One run with ``busy(k)`` before every resume, in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import child as bench_child
    from repro.sim.process import Process

    calls = [0]
    advance = Process._advance

    def injected(self, send_value):
        calls[0] += 1
        busy(k)
        return advance(self, send_value)

    Process._advance = injected
    try:
        result = bench_child.run(WORKLOADS[workload_name], 1, "run")
    finally:
        Process._advance = advance
    return {"wall_s": result["wall_s"], "run_s": result["run_s"],
            "host_speed": result["host_speed"], "calls": calls[0]}


def run_child(workload_name: str, k: int) -> dict:
    command = [sys.executable, __file__, "--child",
               json.dumps({"workload": workload_name, "k": k})]
    done = subprocess.run(command, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload_name} k={k}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _rise(injected: list[dict], base: list[dict]) -> float:
    return (statistics.median(r["wall_s"] for r in injected)
            / statistics.median(r["wall_s"] for r in base) - 1)


def check(workload_name: str) -> tuple[str, bool]:
    """The report line for one workload, and whether it holds."""
    probe = run_child(workload_name, 0)
    k = max(1, round(EXTRA * probe["run_s"] / probe["calls"]
                     / seconds_per_iteration()))
    runs = []
    for index in range(PAIRS):
        # Alternate which run goes first, so a drifting host favours
        # neither.
        if index % 2 == 0:
            base, injected = run_child(workload_name, 0), run_child(
                workload_name, k)
        else:
            injected, base = run_child(workload_name, k), run_child(
                workload_name, 0)
        runs.append((base, injected))
    true = statistics.median(injected["wall_s"] / base["wall_s"] - 1
                             for base, injected in runs)
    runs.sort(key=lambda pair: pair[0]["host_speed"] + pair[1]["host_speed"])
    slow, fast = runs[:len(runs) // 2], runs[len(runs) // 2:]

    def bases(half):
        return [base for base, _injected in half]

    def injecteds(half):
        return [injected for _base, injected in half]

    def speed(half):
        return statistics.fmean(r["host_speed"] for pair in half
                                for r in pair)

    slow_b = _rise(injecteds(slow), bases(fast))  # A fast, B slow
    fast_b = _rise(injecteds(fast), bases(slow))  # A slow, B fast
    drift = _rise(bases(slow), bases(fast))
    ok = (abs(slow_b - true) <= TOLERANCE and abs(fast_b - true) <= TOLERANCE
          and abs(drift) <= TOLERANCE)
    return (f"{workload_name:16s} {speed(slow):5.2f} {speed(fast):5.2f} "
            f"{true:+7.1%} {slow_b:+9.1%} {fast_b:+9.1%} {drift:+7.1%}  "
            f"{'ok' if ok else 'FAIL'}"), ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        spec = json.loads(args.child)
        print(json.dumps(child(spec["workload"], spec["k"])))
        return 0
    print(f"{'workload':16s} {'speed':>11s} {'true':>7s} {'B on slow':>9s} "
          f"{'B on fast':>9s} {'drift':>7s}")
    ok = True
    for name in WORKLOADS:
        try:
            line, held = check(name)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            line, held = f"{name}: {error}", False
        print(line, flush=True)
        ok &= held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
