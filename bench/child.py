"""One benchmark run, in the fresh process ``run.py`` starts for it.

    python bench/child.py '{"workload": "mp3d-typhoon", "seed": 1, "mode": "run"}'

Modes:

* ``setup``: build the machine, install the kernel, set up the app, and
  time those three steps cold (the first call of each in the process,
  imports excluded), which is what every simulator invocation pays.
* ``run``: ``setup``, then run the workload untraced and check it.
* ``trace``: ``run`` with the layer tracer's wrappers installed.
* ``sample``: ``run`` with the sampling profiler on.
* ``micro``: the layer microbenchmarks (no workload).

Prints one JSON object on the last line of standard output; on failure
it carries an ``error`` and the process exits with status 1.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hostspeed import timed_region  # noqa: E402
from sampler import LayerSampler  # noqa: E402
from tracer import LAYERS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, check_outputs, machine_config, make_app, outcome,
)

MODES = ("setup", "run", "trace", "sample", "micro")


def run(workload: Workload, seed: int, mode: str) -> dict:
    """Run one workload in this process; returns the measurements."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}: expected one of {MODES}")
    if mode == "micro":
        import micro

        return {"micro": micro.run_all()}
    from repro.apps.base import AppContext
    from repro.harness.runner import build_machine
    try:
        from repro.kernel import install_kernel
    except ImportError:  # a build without the compiled kernel
        install_kernel = None

    config = machine_config(workload, seed)
    app = make_app(workload, seed)
    # The sampler attributes by the tracer's boundaries, found but not
    # wrapped.
    tracer = (LayerTracer(wrap=mode == "trace")
              if mode in ("trace", "sample") else None)

    with timed_region() as build:
        machine, protocol = build_machine(workload.system, config)
    if tracer is not None:
        tracer.wrap_handlers(machine)
    with timed_region() as kernel:
        if install_kernel is not None:
            install_kernel(machine, "compiled")
    with timed_region() as setup:
        app.setup(machine, protocol)
    result = {
        "build_s": build.normalized_s,
        "kernel_install_s": kernel.normalized_s,
        "app_setup_s": setup.normalized_s,
        "kernel_installed": getattr(machine, "kernel_name", None) == "compiled",
    }
    result["setup_s"] = (result["build_s"] + result["kernel_install_s"]
                         + result["app_setup_s"])
    result["setup_raw_s"] = build.run_s + kernel.run_s + setup.run_s
    if mode == "setup":
        return result

    if tracer is not None:
        tracer.wrap_boundaries(machine)
    sampler = None
    if mode == "sample":
        sampler = LayerSampler(tracer.codes)
    exclude = tracer.exclude if mode == "trace" else None

    def worker(node_id):
        return app.worker(AppContext(machine, node_id))

    try:
        with timed_region(exclude) as region:
            if sampler is not None:
                sampler.start()
            try:
                machine.run_workers(worker)
            finally:
                if sampler is not None:
                    sampler.stop()
    finally:
        if tracer is not None:
            tracer.restore()
    check_outputs(workload, machine, app)

    # Normalise as the workload's run time scales with host speed (see
    # Workload.speed_exponent).
    scale = region.speed ** workload.speed_exponent
    result.update(
        outcome=outcome(machine),
        events_fired=machine.engine.events_fired,
        network_packets=machine.stats.get("network.packets"),
        wall_s=region.run_s * scale,
        run_s=region.run_s,
        host_speed=region.speed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if mode == "trace":
        result["trace"] = {
            "self_s": {layer: tracer.self_s[layer] * scale
                       for layer in LAYERS},
            "total_s": tracer.total_s() * scale,
            "counts": {name: count for name, count in tracer.counts.items()
                       if not name.startswith("_")},
            "found": sorted(tracer.found),
            "absent": sorted(tracer.absent),
            "fused": tracer.fused,
        }
    if sampler is not None:
        result["samples"] = dict(sampler.samples)
        result["sampler_handler_share"] = sampler.handler_s / region.run_s
    return result


def main(argv: list[str]) -> int:
    try:
        spec = json.loads(argv[1])
        workload = WORKLOADS.get(spec.get("workload"))
        result = run(workload, int(spec.get("seed", 1)), spec["mode"])
    except Exception:  # the parent records the failure and goes on
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
