"""Command-line front end: ``python -m repro <experiment> [options]``.

Lets a user regenerate any paper artifact without writing code::

    python -m repro list
    python -m repro table2
    python -m repro figure3 --nodes 8 --apps ocean,em3d
    python -m repro figure4 --nodes 32
    python -m repro messages
    python -m repro ablations

plus cached parameter sweeps (``docs/sweeps.md``) — run a sweep over
the content-addressed result store, where cells already in the store
are hits, and manage the store::

    python -m repro sweep run --systems dirnnb,typhoon:stache \\
        --workloads ocean:small --seeds 1,2 --nodes 2 --format csv
    python -m repro sweep store stats
    python -m repro sweep store gc
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import experiments
from repro.harness.workloads import APP_NAMES
from repro.sim.config import MAX_NODES, ConfigError


def _node_count(text: str) -> int:
    """``--nodes`` type: between one and ``MAX_NODES`` nodes."""
    try:
        nodes = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if nodes < 1:
        raise argparse.ArgumentTypeError(
            f"need at least one node, got {nodes}")
    if nodes > MAX_NODES:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_NODES} nodes, got {nodes}")
    return nodes


def _config_error(prog: str, error: ValueError) -> int:
    """Report a configuration the simulator cannot build, or a sweep
    argument naming nothing it has, as a one-line usage error."""
    print(f"{prog}: error: {error}", file=sys.stderr)
    return 2


#: experiment name -> (description, runner taking the parsed args)
_REGISTRY = {
    "table1": (
        "Table 1: the nine tagged-block operations, exercised live",
        lambda args: [experiments.run_table1()],
    ),
    "table2": (
        "Table 2: simulation parameters, configured vs. paper",
        lambda args: [experiments.run_table2()],
    ),
    "table3": (
        "Table 3: application data sets, paper vs. scaled",
        lambda args: [experiments.run_table3()],
    ),
    "figure3": (
        "Figure 3: Typhoon/Stache execution time relative to DirNNB",
        lambda args: [
            experiments.run_figure3(
                apps=args.app_list, nodes=args.nodes, seed=args.seed
            )
        ],
    ),
    "figure4": (
        "Figure 4: EM3D cycles/edge vs. % remote edges, three systems",
        lambda args: [
            experiments.run_figure4(nodes=args.nodes, seed=args.seed)
        ],
    ),
    "breakdown": (
        "Execution-time decomposition: compute / memory / barrier",
        lambda args: [
            experiments.run_time_breakdown(nodes=args.nodes, seed=args.seed)
        ],
    ),
    "granularity": (
        "Fine-grain (Stache) vs. page-grain (IVY) coherence",
        lambda args: [
            experiments.run_granularity(nodes=min(args.nodes, 4),
                                        seed=args.seed)
        ],
    ),
    "migratory": (
        "MP3D under Stache vs. the user-level migratory optimization",
        lambda args: [
            experiments.run_migratory_protocol(nodes=args.nodes,
                                               seed=args.seed)
        ],
    ),
    "software-tempest": (
        "The same Stache library on Typhoon vs. an all-software backend",
        lambda args: [
            experiments.run_software_tempest(nodes=args.nodes,
                                             seed=args.seed)
        ],
    ),
    "messages": (
        "Section 4's message-economy argument, measured",
        lambda args: [
            experiments.run_message_economy(nodes=args.nodes, seed=args.seed)
        ],
    ),
    "reliability": (
        "Protocol resilience ladder under injected network faults",
        lambda args: [
            experiments.run_reliability_ladder(nodes=min(args.nodes, 4),
                                               seed=args.seed)
        ],
    ),
    "conformance": (
        "Online protocol conformance: every transition checked, per system",
        lambda args: [
            experiments.run_conformance_matrix(nodes=min(args.nodes, 4),
                                               seed=args.seed)
        ],
    ),
    "systems": (
        "List every composable backend:protocol system, grouped by "
        "backend (with each backend's provides-set)",
        lambda args: [experiments.run_backends(), experiments.run_systems()],
    ),
    "cost-points": (
        "One protocol, one access trace, three Tempest cost points",
        lambda args: [
            experiments.run_cost_points(nodes=min(args.nodes, 4),
                                        seed=args.seed)
        ],
    ),
    "matrix": (
        "Smoke-run every registered system on a tiny shared workload",
        lambda args: [
            experiments.run_system_matrix(nodes=min(args.nodes, 4),
                                          seed=args.seed)
        ],
    ),
    "bench": (
        "Dispatch throughput on the protocol hot path",
        lambda args: [
            experiments.run_bench(nodes=args.nodes, seed=args.seed)
        ],
    ),
    "differential": (
        "Batched-vs-scalar lane differential over the matrix",
        lambda args: [
            experiments.run_differential(
                nodes=args.nodes if args.nodes_given else 4, seed=args.seed)
        ],
    ),
    "ablations": (
        "NP-speed, topology, contention, and first-touch ablations",
        lambda args: [
            experiments.run_ablation_np_speed(seed=args.seed),
            experiments.run_ablation_topology(nodes=args.nodes,
                                              seed=args.seed),
            experiments.run_ablation_contention(nodes=args.nodes,
                                                seed=args.seed),
            experiments.run_ablation_barrier(nodes=args.nodes,
                                             seed=args.seed),
            experiments.run_ablation_first_touch(nodes=args.nodes,
                                                 seed=args.seed),
        ],
    ),
}


# ----------------------------------------------------------------------
# Cached sweeps: python -m repro sweep <subcommand>
# ----------------------------------------------------------------------
def _parse_workloads(text: str) -> list[tuple[str, str]]:
    """``"ocean:small,em3d:small"`` -> [("ocean", "small"), ...]."""
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        app_name, _, dataset = item.partition(":")
        pairs.append((app_name, dataset or "small"))
    return pairs


class SweepArgumentError(ValueError):
    """A sweep argument names a system or workload that does not exist,
    or is not a list of integers."""


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise SweepArgumentError(
            f"{flag}: expected comma-separated integers, got {text!r}"
        ) from None


def _build_sweep(args):
    """The requested sweep, with every axis value checked before any
    cell runs."""
    from repro.backends import parse_system
    from repro.harness.sweep import Sweep
    from repro.harness.workloads import workload
    from repro.sim.config import MachineConfig

    systems = [name.strip() for name in args.systems.split(",")
               if name.strip()]
    for system in systems:
        try:
            parse_system(system)
        except ValueError as error:
            raise SweepArgumentError(f"--systems: {error}") from None
    workloads = _parse_workloads(args.workloads)
    for app_name, dataset in workloads:
        try:
            workload(app_name, dataset)
        except KeyError:
            raise SweepArgumentError(
                f"--workloads: no workload {app_name}:{dataset}") from None
    cache_sizes = _int_list("--cache-sizes", args.cache_sizes)
    for size in cache_sizes:
        MachineConfig().with_cache_size(size).cache.validate()
    return (
        Sweep()
        .systems(*systems)
        .workloads(*workloads)
        .cache_sizes(*cache_sizes)
        .seeds(*_int_list("--seeds", args.seeds))
    )


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run parameter sweeps through the content-addressed "
                    "result store, and maintain the store "
                    "(docs/sweeps.md).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", default=None,
                        help="store directory (default: $REPRO_STORE or "
                             ".repro-store)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", parents=[common],
        help="run a sweep; cells already in the store are hits")
    run.add_argument("--systems", default="dirnnb,typhoon:stache",
                     help="comma-separated system names")
    run.add_argument("--workloads", default="ocean:small",
                     help="comma-separated app:dataset pairs")
    run.add_argument("--cache-sizes", default="2048",
                     help="comma-separated cache sizes in bytes")
    run.add_argument("--seeds", default="42",
                     help="comma-separated RNG seeds")
    run.add_argument("--nodes", type=_node_count, default=8,
                     help="simulated processors per cell (default 8)")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool width for cell execution")
    run.add_argument("--format", choices=("text", "csv", "json"),
                     default="text", help="output format (default text)")

    store = sub.add_parser("store", help="store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_sub.add_parser("stats", parents=[common],
                         help="entry counts, bytes, staleness")
    store_sub.add_parser("gc", parents=[common],
                         help="drop entries from other code versions")
    return parser


def sweep_main(argv: list[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    try:
        return _sweep_command(args)
    except (ConfigError, SweepArgumentError) as error:
        return _config_error(parser.prog, error)


def _sweep_command(args) -> int:
    from repro.harness.store import DEFAULT_ROOT, ResultStore

    if args.command == "run":
        def progress(done, total, cached=False):
            tag = " (cached)" if cached else ""
            print(f"  cell {done}/{total}{tag}", file=sys.stderr)

        result = _build_sweep(args).run(
            nodes=args.nodes, progress=progress, workers=args.workers,
            store=args.store if args.store is not None else "auto")
        stats = result.cache_stats
        print(f"executed {stats['executed']} cells, {stats['hits']} hits",
              file=sys.stderr)
        _print_result(result, args.format)
        return 0

    assert args.command == "store"
    store = (ResultStore.resolve(args.store if args.store is not None
                                 else "auto")
             or ResultStore(DEFAULT_ROOT))
    if args.store_command == "stats":
        stats = store.stats()
        print(f"store {stats['root']} (code version {stats['digest']})")
        print(f"  entries: {stats['entries']} "
              f"({stats['stale']} stale, {stats['bytes']} bytes)")
        print(f"  session: {stats['session_hits']} hits, "
              f"{stats['session_misses']} misses, "
              f"{stats['session_writes']} writes")
    else:
        swept = store.gc()
        line = (f"gc: removed {swept['removed']} stale entries, "
                f"kept {swept['kept']}")
        if swept["skipped"]:
            line += f", skipped {swept['skipped']} unremovable"
        print(line)
    return 0


class _ExplicitNodes(argparse.Action):
    """Store ``--nodes`` and note that it was given (``nodes_given``)."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.nodes = values
        namespace.nodes_given = True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Tempest and "
                    "Typhoon: User-Level Shared Memory' (ISCA 1994).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_REGISTRY) + ["list", "all"],
        help="which artifact to regenerate ('list' to enumerate); "
             "'repro sweep ...' runs cached sweeps "
             "(docs/sweeps.md); 'repro litmus' regenerates the "
             "synthesized litmus corpus (docs/protocols.md)",
    )
    parser.add_argument("--nodes", type=_node_count, default=8,
                        action=_ExplicitNodes,
                        help="simulated processors (paper: 32; default 8, "
                             "differential 4)")
    parser.set_defaults(nodes_given=False)
    parser.add_argument("--seed", type=int, default=42,
                        help="master RNG seed (default 42)")
    parser.add_argument("--apps", type=str, default=",".join(APP_NAMES),
                        help="figure3 only: comma-separated app subset")
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format (default text)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "litmus":
        from repro.harness.litmus import main as litmus_main

        return litmus_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    args.app_list = tuple(
        name.strip() for name in args.apps.split(",") if name.strip()
    )
    unknown = [name for name in args.app_list if name not in APP_NAMES]
    if unknown:
        parser.error(f"unknown applications {unknown}; pick from {APP_NAMES}")

    if args.experiment == "list":
        width = max(len(name) for name in _REGISTRY)
        for name in sorted(_REGISTRY):
            print(f"{name:<{width}}  {_REGISTRY[name][0]}")
        return 0

    names = sorted(_REGISTRY) if args.experiment == "all" else [args.experiment]
    try:
        _run_experiments(names, args)
    except ConfigError as error:
        return _config_error(parser.prog, error)
    return 0


def _run_experiments(names: list[str], args) -> None:
    first = True
    for name in names:
        if not first:
            print()
        first = False
        _description, runner = _REGISTRY[name]
        for result in runner(args):
            _print_result(result, args.format)


def _print_result(result, output_format: str) -> None:
    if output_format == "csv":
        print(result.to_csv(), end="")
    elif output_format == "json":
        print(result.to_json())
    else:
        print(result.to_text())


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
