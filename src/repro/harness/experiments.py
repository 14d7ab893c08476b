"""The experiment registry: one entry per paper table/figure, plus ablations."""

from __future__ import annotations

from dataclasses import replace

from repro.harness.report import ExperimentResult
from repro.harness.runner import build_machine, run_application
from repro.harness.workloads import (
    APP_NAMES,
    PAPER_CACHE_SIZES,
    SCALED_CACHE_SIZES,
    figure3_configurations,
    workload,
)
from repro.apps.em3d import Em3dApplication
from repro.memory.address import SHARED_BASE
from repro.memory.tags import Tag
from repro.sim.config import DirNNBCosts, MachineConfig, TyphoonCosts


def _config(nodes: int, cache_bytes: int, seed: int = 42,
            **overrides) -> MachineConfig:
    config = MachineConfig(nodes=nodes, seed=seed, **overrides)
    return config.with_cache_size(cache_bytes)


# ----------------------------------------------------------------------
# Table 1: operations on tagged memory blocks
# ----------------------------------------------------------------------
def run_table1() -> ExperimentResult:
    """Exercise all nine Table 1 operations live and report the outcome."""
    from repro.typhoon.system import TyphoonMachine

    machine = TyphoonMachine(MachineConfig(nodes=1, seed=1))
    tempest = machine.tempests[0]
    tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
    addr = SHARED_BASE + 32

    result = ExperimentResult(
        "table1",
        "Operations on tagged memory blocks",
        ["operation", "description", "observed"],
    )

    fault = machine.nodes[0].tags.check(addr, is_write=False)
    result.add_row(
        operation="read",
        description="Load with tag check; fault suspends thread",
        observed=f"read of {fault.tag.value} block faults ({fault.kind})",
    )
    fault = machine.nodes[0].tags.check(addr, is_write=True)
    result.add_row(
        operation="write",
        description="Store with tag check; fault suspends thread",
        observed=f"write of {fault.tag.value} block faults ({fault.kind})",
    )
    value = tempest.force_read(addr)
    result.add_row(
        operation="force-read",
        description="Load without tag check",
        observed=f"reads {value!r} despite Invalid tag",
    )
    tempest.force_write(addr, 7)
    result.add_row(
        operation="force-write",
        description="Store without tag check",
        observed=f"stored despite Invalid tag; now reads {tempest.force_read(addr)!r}",
    )
    result.add_row(
        operation="read-tag",
        description="Return value of tag",
        observed=f"tag is {tempest.read_tag(addr).value}",
    )
    tempest.set_rw(addr)
    result.add_row(
        operation="set-RW",
        description="Set tag value to ReadWrite",
        observed=f"tag now {tempest.read_tag(addr).value}",
    )
    tempest.set_ro(addr)
    result.add_row(
        operation="set-RO",
        description="Set tag value to ReadOnly",
        observed=f"tag now {tempest.read_tag(addr).value}",
    )
    from repro.memory.cache import LineState

    machine.nodes[0].cache.insert(addr, LineState.SHARED)
    tempest.invalidate(addr)
    result.add_row(
        operation="invalidate",
        description="Set tag Invalid and invalidate local copies",
        observed=(
            f"tag now {tempest.read_tag(addr).value}; CPU copy present: "
            f"{machine.nodes[0].cache.contains(addr)}"
        ),
    )
    thread = machine.nodes[0].thread
    suspension = thread.suspend()
    tempest.resume()
    result.add_row(
        operation="resume",
        description="Resume suspended thread(s)",
        observed=f"suspended thread released: {suspension.done}",
    )
    return result


# ----------------------------------------------------------------------
# Table 2: simulation parameters
# ----------------------------------------------------------------------
def run_table2() -> ExperimentResult:
    """Report the configured parameters next to the paper's Table 2."""
    config = MachineConfig()
    dirnnb = DirNNBCosts()
    typhoon = TyphoonCosts()
    result = ExperimentResult(
        "table2",
        "Simulation parameters (configured vs. paper)",
        ["parameter", "paper", "configured", "match"],
    )

    def row(parameter, paper, configured):
        result.add_row(parameter=parameter, paper=str(paper),
                       configured=str(configured),
                       match="yes" if str(paper) == str(configured) else "NO")

    row("CPU cache assoc.", 4, config.cache.associativity)
    row("CPU cache repl.", "random", config.cache.replacement)
    row("Block size (bytes)", 32, config.block_size)
    row("CPU TLB entries", 64, config.tlb.entries)
    row("CPU TLB repl.", "fifo", config.tlb.replacement)
    row("Page size (bytes)", 4096, config.page_size)
    row("Local cache miss (cycles)", 29, config.local_miss_cycles)
    row("Local writeback (cycles)", 0, config.local_writeback_cycles)
    row("TLB miss (cycles)", 25, config.tlb.miss_cycles)
    row("Network latency (cycles)", 11, config.network.latency)
    row("Barrier latency (cycles)", 11, config.network.barrier_latency)
    row("DirNNB remote miss issue", 23, dirnnb.remote_miss_issue)
    row("DirNNB remote miss finish", 34, dirnnb.remote_miss_finish)
    row("DirNNB repl. shared", 5, dirnnb.replacement_shared)
    row("DirNNB repl. exclusive", 16, dirnnb.replacement_exclusive)
    row("DirNNB invalidate", 8, dirnnb.invalidate_base)
    row("Directory op", 16, dirnnb.directory_op)
    row("Directory block received", 11, dirnnb.directory_block_received)
    row("Directory per message", 5, dirnnb.directory_per_message)
    row("Directory block sent", 11, dirnnb.directory_block_sent)
    row("NP TLB / RTLB entries", 64, typhoon.rtlb_entries)
    row("(R)TLB miss (cycles)", 25, typhoon.rtlb_miss)
    row("NP D-cache (bytes)", 16384, typhoon.np_dcache_bytes)
    row("NP I-cache (bytes)", 8192, typhoon.np_icache_bytes)
    row("NP miss-request path (instr)", 14, typhoon.miss_request_instructions)
    row("NP home-response path (instr)", 30, typhoon.home_response_instructions)
    row("NP data-arrival path (instr)", 20, typhoon.data_arrival_instructions)
    return result


# ----------------------------------------------------------------------
# Table 3: application data sets
# ----------------------------------------------------------------------
def _describe(app) -> str:
    if isinstance(app, Em3dApplication):
        return (f"{app.nodes_per_proc} nodes/proc, degree {app.degree}, "
                f"{app.iterations} iters")
    from repro.apps.appbt import AppbtApplication
    from repro.apps.barnes import BarnesApplication
    from repro.apps.mp3d import Mp3dApplication
    from repro.apps.ocean import OceanApplication

    if isinstance(app, AppbtApplication):
        return f"{app.grid}x{app.grid}x{app.grid}, {app.iterations} iters"
    if isinstance(app, BarnesApplication):
        return f"{app.bodies} bodies, {app.iterations} iters"
    if isinstance(app, Mp3dApplication):
        return (f"{app.molecules} mols, {app.space_cells} cells, "
                f"{app.iterations} iters")
    if isinstance(app, OceanApplication):
        return f"{app.grid}x{app.grid} grid, {app.iterations} iters"
    return type(app).__name__


def run_table3() -> ExperimentResult:
    result = ExperimentResult(
        "table3",
        "Application data sets (paper vs. scaled)",
        ["application", "dataset", "paper", "scaled"],
    )
    for app_name in APP_NAMES:
        for dataset in ("small", "large"):
            entry = workload(app_name, dataset)
            result.add_row(
                application=app_name,
                dataset=dataset,
                paper=entry.paper_parameters,
                scaled=_describe(entry.build()),
            )
    result.notes.append(
        "scaled sets preserve working-set/cache ratios against the scaled "
        f"cache ladder {SCALED_CACHE_SIZES} (paper ladder {PAPER_CACHE_SIZES})"
    )
    return result


# ----------------------------------------------------------------------
# Figure 3: Typhoon/Stache vs. DirNNB
# ----------------------------------------------------------------------
def run_figure3(apps=APP_NAMES, nodes: int = 8, seed: int = 42,
                configurations=None) -> ExperimentResult:
    """Execution time of Typhoon/Stache relative to DirNNB.

    One row per (application, dataset/cache) bar of Figure 3; the
    ``relative`` column is the bar height (shorter/<1 = Stache faster).
    """
    if configurations is None:
        configurations = figure3_configurations()
    result = ExperimentResult(
        "figure3",
        "Typhoon/Stache execution time relative to DirNNB",
        ["application", "dataset", "cache", "paper_cache", "dirnnb_cycles",
         "stache_cycles", "relative"],
    )
    for app_name in apps:
        for dataset, cache_bytes, paper_cache in configurations:
            entry = workload(app_name, dataset)
            dirnnb = run_application(
                "dirnnb", entry.build(), _config(nodes, cache_bytes, seed)
            )
            stache = run_application(
                "typhoon-stache", entry.build(),
                _config(nodes, cache_bytes, seed),
            )
            result.add_row(
                application=app_name,
                dataset=dataset,
                cache=cache_bytes,
                paper_cache=f"{dataset}/{paper_cache // 1024}K",
                dirnnb_cycles=dirnnb["execution_time"],
                stache_cycles=stache["execution_time"],
                relative=stache["execution_time"] / dirnnb["execution_time"],
            )
    result.notes.append(
        "paper shape: relative <= ~1.3 when data fits the cache; "
        "relative < 1 when the working set exceeds the CPU cache"
    )
    return result


# ----------------------------------------------------------------------
# Figure 4: EM3D update-protocol sweep
# ----------------------------------------------------------------------
def run_figure4(nodes: int = 8, nodes_per_proc: int = 48, degree: int = 5,
                iterations: int = 3, cache_bytes: int = 8192,
                fractions=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                seed: int = 42) -> ExperimentResult:
    """EM3D cycles per edge vs. % non-local edges, three systems."""
    result = ExperimentResult(
        "figure4",
        "EM3D cycles/edge vs. % remote edges "
        "(DirNNB, Typhoon/Stache, Typhoon/Update)",
        ["remote_pct", "dirnnb", "typhoon_stache", "typhoon_update",
         "update_vs_dirnnb"],
    )
    systems = ("dirnnb", "typhoon-stache", "typhoon-update")
    for fraction in fractions:
        cycles = {}
        for system in systems:
            app = Em3dApplication(
                nodes_per_proc=nodes_per_proc, degree=degree,
                remote_fraction=fraction, iterations=iterations, seed=seed,
            )
            outcome = run_application(
                system, app, _config(nodes, cache_bytes, seed)
            )
            edges_per_proc = 2 * nodes_per_proc * degree * iterations
            cycles[system] = outcome["execution_time"] / edges_per_proc
        result.add_row(
            remote_pct=int(fraction * 100),
            dirnnb=cycles["dirnnb"],
            typhoon_stache=cycles["typhoon-stache"],
            typhoon_update=cycles["typhoon-update"],
            update_vs_dirnnb=cycles["typhoon-update"] / cycles["dirnnb"],
        )
    result.notes.append(
        "paper shape: all series grow with remote fraction; the update "
        "protocol is lowest with the flattest slope and beats DirNNB by "
        "~35% at 50% remote edges"
    )
    return result


# ----------------------------------------------------------------------
# Execution-time breakdown: where do the cycles go?
# ----------------------------------------------------------------------
def run_time_breakdown(nodes: int = 8, cache_bytes: int = 2048,
                       seed: int = 42,
                       apps=("ocean", "em3d", "mp3d")) -> ExperimentResult:
    """Decompose execution time into compute, memory stall, and barrier.

    The decomposition explains the figures: Stache wins where memory
    stall is capacity-dominated (local re-fetch beats remote re-fetch)
    and loses where it is protocol-dominated (software handlers beat no
    one).  Percentages are averaged over nodes.
    """
    result = ExperimentResult(
        "time-breakdown",
        "Per-system execution-time decomposition (% of cycles)",
        ["application", "system", "compute_pct", "memory_pct",
         "barrier_pct", "cycles"],
    )
    for app_name in apps:
        for system in ("dirnnb", "typhoon-stache"):
            outcome = run_application(
                system, workload(app_name, "small").build(),
                _config(nodes, cache_bytes, seed),
            )
            machine = outcome["machine"]
            exec_total = outcome["execution_time"] * nodes
            memory = machine.stats.total(".cpu.access_cycles")
            barrier = machine.stats.total(".cpu.barrier_cycles")
            compute = max(exec_total - memory - barrier, 0)
            result.add_row(
                application=app_name,
                system=system,
                compute_pct=100 * compute / exec_total,
                memory_pct=100 * memory / exec_total,
                barrier_pct=100 * barrier / exec_total,
                cycles=outcome["execution_time"],
            )
    return result


# ----------------------------------------------------------------------
# Coherence granularity: fine-grain blocks vs. IVY-style pages
# ----------------------------------------------------------------------
def run_granularity(nodes: int = 8, cache_bytes: int = 8192,
                    seed: int = 42) -> ExperimentResult:
    """Why fine-grain access control matters (Section 2.4), measured.

    The same applications run under Stache (32-byte coherence units) and
    under an IVY-style DSM built from Tempest's *coarse-grain* mechanisms
    only (4 KB pages moved by bulk transfer).  EM3D's interleaved graph
    and MP3D's scattered cells false-share pages heavily; Ocean's strip
    layout is page-friendly and shows the gap narrowing.
    """
    from repro.apps.base import run_app
    from repro.protocols.ivy import IvyProtocol
    from repro.protocols.stache import StacheProtocol
    from repro.typhoon.system import TyphoonMachine

    result = ExperimentResult(
        "granularity",
        "Fine-grain (Stache, 32 B) vs. page-grain (IVY, 4 KB) coherence",
        ["application", "stache_cycles", "ivy_cycles", "ivy_slowdown",
         "stache_packets", "ivy_packets"],
    )
    for app_name in ("ocean", "em3d", "mp3d"):
        measures = {}
        for label, protocol_cls in (("stache", StacheProtocol),
                                    ("ivy", IvyProtocol)):
            machine = TyphoonMachine(_config(nodes, cache_bytes, seed))
            protocol = protocol_cls()
            machine.install_protocol(protocol)
            app = workload(app_name, "small").build()
            cycles = run_app(machine, app, protocol)
            packets = (machine.stats.get("network.packets")
                       - machine.stats.get("network.local_packets"))
            measures[label] = (cycles, packets)
        result.add_row(
            application=app_name,
            stache_cycles=measures["stache"][0],
            ivy_cycles=measures["ivy"][0],
            ivy_slowdown=measures["ivy"][0] / measures["stache"][0],
            stache_packets=measures["stache"][1],
            ivy_packets=measures["ivy"][1],
        )
    result.notes.append(
        "Section 2.4: 'the coarse granularity of page-based mechanisms "
        "is a poor match for many applications' — the slowdown column is "
        "that mismatch, on identical Tempest mechanisms"
    )
    return result


# ----------------------------------------------------------------------
# A second custom protocol: migratory optimization on MP3D
# ----------------------------------------------------------------------
def run_migratory_protocol(nodes: int = 8, cache_bytes: int = 2048,
                           seed: int = 42) -> ExperimentResult:
    """MP3D under Stache vs. the user-level migratory optimization.

    Section 4's closing argument is that users will build protocols the
    system designer cannot anticipate; EM3D's delayed-update protocol is
    the paper's example.  This is a second one, for MP3D's read-modify-
    write ping-pong: detect migratory blocks at the home and grant reads
    exclusively, folding each migration's two transactions into one.
    """
    from repro.apps.mp3d import Mp3dApplication
    from repro.protocols.migratory import MigratoryProtocol
    from repro.protocols.stache import StacheProtocol
    from repro.typhoon.system import TyphoonMachine
    from repro.apps.base import run_app

    result = ExperimentResult(
        "migratory-protocol",
        "MP3D: transparent Stache vs. user-level migratory optimization",
        ["system", "cycles", "block_faults", "remote_packets",
         "vs_dirnnb"],
    )
    app_params = dict(molecules=8 * nodes * 4, space_cells=8,
                      iterations=3, seed=seed)
    dirnnb = run_application("dirnnb", Mp3dApplication(**app_params),
                             _config(nodes, cache_bytes, seed))
    result.add_row(
        system="dirnnb",
        cycles=dirnnb["execution_time"],
        block_faults=0,
        remote_packets=dirnnb["remote_packets"],
        vs_dirnnb=1.0,
    )
    for label, protocol_cls in (("typhoon-stache", StacheProtocol),
                                ("typhoon-migratory", MigratoryProtocol)):
        machine = TyphoonMachine(_config(nodes, cache_bytes, seed))
        protocol = protocol_cls()
        machine.install_protocol(protocol)
        cycles = run_app(machine, Mp3dApplication(**app_params), protocol)
        result.add_row(
            system=label,
            cycles=cycles,
            block_faults=machine.stats.total(".cpu.block_faults"),
            remote_packets=(machine.stats.get("network.packets")
                            - machine.stats.get("network.local_packets")),
            vs_dirnnb=cycles / dirnnb["execution_time"],
        )
    result.notes.append(
        "the migratory protocol folds each read-then-write migration "
        "into one transaction (fewer faults, fewer packets), narrowing "
        "Stache's gap to DirNNB on its worst-case application"
    )
    return result


# ----------------------------------------------------------------------
# Software vs. hardware Tempest: what does the NP buy?
# ----------------------------------------------------------------------
def run_software_tempest(nodes: int = 8, cache_bytes: int = 2048,
                         seed: int = 42) -> ExperimentResult:
    """Run the same Stache library on all three Tempest backends.

    Section 2: "Tempest can also be implemented in software for existing
    machines" (the CM-5-native direction).  The protocol code is
    *identical* on every system — the portability claim — and the cycle
    gaps locate each hardware feature's value: typhoon -> decoupled
    isolates the NP's hardware-assisted dispatch and RTLB checks
    (handlers stay offloaded, but on a commodity second CPU paying
    software polling + dispatch), and decoupled -> blizzard isolates the
    offload itself (handlers move onto the computation CPU).
    """
    result = ExperimentResult(
        "software-tempest",
        "The same Stache library on Typhoon vs. the software backends",
        ["application", "typhoon_cycles", "decoupled_cycles",
         "blizzard_cycles", "decoupled_slowdown", "blizzard_slowdown"],
    )
    for app_name in ("ocean", "em3d", "mp3d"):
        times = {}
        for system in ("typhoon-stache", "decoupled-stache",
                       "blizzard-stache"):
            app = workload(app_name, "small").build()
            outcome = run_application(system, app,
                                      _config(nodes, cache_bytes, seed))
            times[system] = outcome["execution_time"]
        result.add_row(
            application=app_name,
            typhoon_cycles=times["typhoon-stache"],
            decoupled_cycles=times["decoupled-stache"],
            blizzard_cycles=times["blizzard-stache"],
            decoupled_slowdown=times["decoupled-stache"]
            / times["typhoon-stache"],
            blizzard_slowdown=times["blizzard-stache"]
            / times["typhoon-stache"],
        )
    result.notes.append(
        "identical protocol code on all three systems; decoupled_slowdown "
        "is the cost of software dispatch on a dedicated second CPU, and "
        "blizzard_slowdown additionally moves the handlers onto the "
        "computation CPU (what the offload itself buys)"
    )
    return result


# ----------------------------------------------------------------------
# Three cost points: one protocol, one trace, three Tempest substrates
# ----------------------------------------------------------------------
def run_cost_points(nodes: int = 4, cache_bytes: int = 1024,
                    seed: int = 11) -> ExperimentResult:
    """Message economy and time breakdown across the three cost domains.

    Runs a lock-step producer/consumer phase pattern (barriers serialise
    every phase, so all three backends see the *same access trace* and
    make the same protocol decisions — message counts are identical)
    and reports where the cycles went on each substrate.  The
    ``dispatch_per_handler`` column is each backend's per-dispatch
    overhead from its cost domain: 0 for Typhoon's hardware capture,
    poll-notice + software dispatch for the decoupled second CPU, and
    the full software dispatch sequence on Blizzard's compute CPU —
    the typhoon < decoupled < blizzard ordering the cycles column shows.
    """
    from repro.apps.synthetic import ProducerConsumerApplication
    from repro.sim.config import MachineConfig

    config = MachineConfig(nodes=nodes, seed=seed)
    result = ExperimentResult(
        "cost-points",
        "One protocol, one access trace, three Tempest cost points",
        ["system", "cycles", "slowdown", "remote_packets", "network_words",
         "handler_cycles", "dispatch_per_handler"],
    )
    dispatch_overhead = {
        "typhoon:stache": 0,  # hardware-assisted capture
        "decoupled:stache": (config.decoupled.poll_notice_cycles
                             + config.decoupled.dispatch_cycles),
        "blizzard:stache": config.blizzard.software_dispatch_cycles,
    }
    baseline = None
    for system in ("typhoon:stache", "decoupled:stache", "blizzard:stache"):
        app = ProducerConsumerApplication(buffer_records=8, phases=3)
        outcome = run_application(system, app,
                                  _config(nodes, cache_bytes, seed))
        stats = outcome["machine"].stats
        cycles = outcome["execution_time"]
        if baseline is None:
            baseline = cycles
        result.add_row(
            system=system,
            cycles=round(cycles),
            slowdown=cycles / baseline,
            remote_packets=round(outcome["remote_packets"]),
            network_words=round(stats.get("network.words")),
            handler_cycles=round(stats.total(".handler_cycles")),
            dispatch_per_handler=dispatch_overhead[system],
        )
    result.notes.append(
        "lock-step phases make the message columns backend-invariant; on "
        "timing-sensitive workloads (mp3d) the backends' different costs "
        "change the interleaving and with it the message counts"
    )
    result.notes.append(
        "blizzard's handler_cycles reads 0 because its handlers run "
        "inline on the compute CPU: their time is inside access/barrier "
        "cycles, which is exactly what the other two backends avoid"
    )
    return result


# ----------------------------------------------------------------------
# Message economy: Section 4's four-messages-vs-one argument
# ----------------------------------------------------------------------
def run_message_economy(nodes: int = 8, nodes_per_proc: int = 24,
                        degree: int = 4, remote_fraction: float = 0.5,
                        iterations: int = 3, seed: int = 42,
                        cache_bytes: int = 8192) -> ExperimentResult:
    """Count coherence messages per remote datum per EM3D iteration.

    Section 4: under transparent shared memory "a remote e_node (or
    h_node) will be fetched, cached, and invalidated, which requires at
    least four messages (request, response, invalidate, and
    acknowledge)"; prefetching hides latency "but does not reduce the
    message traffic"; the custom protocol approaches the minimum of one.
    """
    result = ExperimentResult(
        "message-economy",
        "Remote packets per remote datum per iteration (EM3D, "
        f"{int(remote_fraction * 100)}% remote edges)",
        ["system", "remote_packets", "per_datum_per_iter", "cycles"],
    )
    variants = [
        ("typhoon-stache", "typhoon-stache", False),
        ("typhoon-stache+prefetch", "typhoon-stache", True),
        ("typhoon-update", "typhoon-update", False),
    ]
    for label, system, prefetch in variants:
        app = Em3dApplication(
            nodes_per_proc=nodes_per_proc, degree=degree,
            remote_fraction=remote_fraction, iterations=iterations,
            seed=seed, prefetch=prefetch,
        )
        outcome = run_application(system, app,
                                  _config(nodes, cache_bytes, seed))
        machine = outcome["machine"]
        # Distinct remote data items: stached blocks (counted once each).
        if system == "typhoon-update":
            remote_data = machine.stats.get("em3d.blocks_stached")
        else:
            # Under invalidation protocols each datum is re-fetched every
            # iteration; the distinct count is fetches per iteration.
            remote_data = machine.stats.get("stache.blocks_fetched") / iterations
        remote_data = max(remote_data, 1)
        result.add_row(
            system=label,
            remote_packets=outcome["remote_packets"],
            per_datum_per_iter=(
                outcome["remote_packets"] / (remote_data * iterations)
            ),
            cycles=outcome["execution_time"],
        )
    result.notes.append(
        "paper: invalidation protocols need >= 4 messages per remote datum "
        "per iteration; prefetch does not reduce traffic; the update "
        "protocol approaches the minimum of 1"
    )
    return result


# ----------------------------------------------------------------------
# Ablations (extensions beyond the paper; see DESIGN.md §6)
# ----------------------------------------------------------------------
def run_ablation_np_speed(nodes: int = 4, cache_bytes: int = 2048,
                          cpis=(1, 2, 4), seed: int = 42) -> ExperimentResult:
    """How sensitive is Typhoon/Stache to a slower NP?

    Section 5.1 argues a previous-generation integer core suffices; this
    sweep charges 1/2/4 cycles per NP instruction and reports EM3D
    execution time relative to DirNNB.
    """
    result = ExperimentResult(
        "ablation-np-speed",
        "Typhoon/Stache vs. DirNNB as the NP slows down",
        ["np_cpi", "stache_cycles", "dirnnb_cycles", "relative"],
    )
    dirnnb = run_application(
        "dirnnb", workload("em3d", "small").build(),
        _config(nodes, cache_bytes, seed),
    )
    for cpi in cpis:
        config = _config(nodes, cache_bytes, seed)
        config = replace(
            config, typhoon=replace(config.typhoon, cycles_per_instruction=cpi)
        )
        stache = run_application(
            "typhoon-stache", workload("em3d", "small").build(), config
        )
        result.add_row(
            np_cpi=cpi,
            stache_cycles=stache["execution_time"],
            dirnnb_cycles=dirnnb["execution_time"],
            relative=stache["execution_time"] / dirnnb["execution_time"],
        )
    return result


def run_ablation_topology(nodes: int = 8, cache_bytes: int = 2048,
                          seed: int = 42) -> ExperimentResult:
    """Would Figure 4's ordering survive a 2-D mesh instead of the flat
    11-cycle network?"""
    result = ExperimentResult(
        "ablation-topology",
        "EM3D on ideal vs. 2-D-mesh networks (cycles, all three systems)",
        ["topology", "dirnnb", "typhoon_stache", "typhoon_update"],
    )
    for topology in ("ideal", "mesh2d"):
        cycles = {}
        for system in ("dirnnb", "typhoon-stache", "typhoon-update"):
            app = Em3dApplication(nodes_per_proc=24, degree=4,
                                  remote_fraction=0.4, iterations=2, seed=seed)
            config = _config(nodes, cache_bytes, seed)
            config = replace(
                config, network=replace(config.network, topology=topology)
            )
            outcome = run_application(system, app, config)
            cycles[system] = outcome["execution_time"]
        result.add_row(
            topology=topology,
            dirnnb=cycles["dirnnb"],
            typhoon_stache=cycles["typhoon-stache"],
            typhoon_update=cycles["typhoon-update"],
        )
    return result


def run_ablation_contention(nodes: int = 8, cache_bytes: int = 2048,
                            seed: int = 42) -> ExperimentResult:
    """Does channel contention change the Figure 4 ordering?

    The paper admits its simulations "do not accurately model network and
    bus contention".  This ablation serializes every channel at one word
    per cycle — pessimistic for data-heavy protocols — and checks the
    conclusions survive.
    """
    result = ExperimentResult(
        "ablation-contention",
        "EM3D with and without channel contention (cycles, three systems)",
        ["contention", "dirnnb", "typhoon_stache", "typhoon_update"],
    )
    for contention in (False, True):
        cycles = {}
        for system in ("dirnnb", "typhoon-stache", "typhoon-update"):
            app = Em3dApplication(nodes_per_proc=24, degree=4,
                                  remote_fraction=0.4, iterations=2,
                                  seed=seed)
            config = _config(nodes, cache_bytes, seed)
            config = replace(
                config,
                network=replace(config.network, model_contention=contention),
            )
            outcome = run_application(system, app, config)
            cycles[system] = outcome["execution_time"]
        result.add_row(
            contention="on" if contention else "off",
            dirnnb=cycles["dirnnb"],
            typhoon_stache=cycles["typhoon-stache"],
            typhoon_update=cycles["typhoon-update"],
        )
    return result


def run_ablation_barrier(nodes: int = 8, cache_bytes: int = 2048,
                         seed: int = 42) -> ExperimentResult:
    """How much does Typhoon's hardware barrier network matter?

    Table 2 gives the CM-5-style barrier 11 cycles; a machine without one
    synthesizes barriers from messages.  Ocean (barrier per sweep) shows
    the cost.
    """
    from repro.apps.base import run_app
    from repro.apps.ocean import OceanApplication
    from repro.protocols.stache import StacheProtocol
    from repro.typhoon.system import TyphoonMachine

    result = ExperimentResult(
        "ablation-barrier",
        "Ocean on Typhoon/Stache: hardware vs. message-built barrier",
        ["barrier", "cycles", "barrier_cycles"],
    )
    for kind in ("hardware", "software"):
        machine = TyphoonMachine(_config(nodes, cache_bytes, seed))
        protocol = StacheProtocol()
        machine.install_protocol(protocol)
        if kind == "software":
            machine.use_software_barrier()
        cycles = run_app(machine,
                         OceanApplication(grid=26, iterations=2, seed=seed),
                         protocol)
        result.add_row(
            barrier=kind,
            cycles=cycles,
            barrier_cycles=machine.stats.total(".cpu.barrier_cycles"),
        )
    return result


def run_ablation_first_touch(nodes: int = 8, cache_bytes: int = 2048,
                             seed: int = 42) -> ExperimentResult:
    """Section 6 cites Stenstrom et al.: first-touch placement recovers
    much of DirNNB's disadvantage.  Measure it.

    The applications in this package already place data on its owner, so
    first-touch has nothing to fix there.  This ablation runs the case it
    was invented for: a program whose shared array is allocated round-
    robin while each node only ever works on its own slice (the paper's
    "careful data placement" discussion).
    """
    from repro.apps.base import Application, AppContext, SharedArray

    class PrivateSliceApplication(Application):
        name = "private-slice"

        def __init__(self, records_per_node: int = 128, sweeps: int = 3):
            # 128 records x 32 B = exactly one page per node, so pages and
            # slices align and first-touch can fully re-home each slice.
            self.records_per_node = records_per_node
            self.sweeps = sweeps
            self.array = None

        def setup(self, machine, protocol=None) -> None:
            total = self.records_per_node * machine.num_nodes
            # Shift the round-robin cursor so slice n is NOT homed on
            # node n — otherwise the naive layout is accidentally perfect.
            machine.heap.allocate(machine.config.page_size, label="shift")
            self.array = SharedArray(machine, protocol, total, 32,
                                     label="slice", striped=False)
            for index in range(total):
                self.poke(machine, self.array.addr(index), 0)

        def worker(self, ctx: AppContext):
            start = ctx.node_id * self.records_per_node
            for _sweep in range(self.sweeps):
                for index in range(start, start + self.records_per_node):
                    value = yield from ctx.read(self.array.addr(index))
                    yield from ctx.write(self.array.addr(index), value + 1)
                yield from ctx.barrier()

    result = ExperimentResult(
        "ablation-first-touch",
        "DirNNB page placement: round-robin vs. first-touch "
        "(private-slice workload)",
        ["placement", "dirnnb_cycles", "remote_packets"],
    )
    for placement in ("round_robin", "first_touch"):
        config = _config(nodes, cache_bytes, seed,
                         page_placement=placement)
        outcome = run_application("dirnnb", PrivateSliceApplication(), config)
        result.add_row(
            placement=placement,
            dirnnb_cycles=outcome["execution_time"],
            remote_packets=outcome["remote_packets"],
        )
    return result


# ----------------------------------------------------------------------
# Reliability ladder: protocol resilience under increasing fault load
# ----------------------------------------------------------------------
def run_reliability_ladder(nodes: int = 4, cache_bytes: int = 2048,
                           seed: int = 42,
                           systems: tuple[str, ...] = ("typhoon-stache",
                                                       "blizzard-stache"),
                           app: str = "mp3d",
                           dataset: str = "small") -> ExperimentResult:
    """Climb :data:`repro.network.faults.RELIABILITY_LADDER` per system.

    Each rung reruns the same workload under a progressively lossier
    deterministic fault plan; the table reports the slowdown relative to
    the reliable rung plus the recovery-machinery counters (retries,
    NACKs, duplicate suppressions).  The run itself is the correctness
    statement: protocols that lost a message or mis-ordered state would
    deadlock or crash the simulation.
    """
    from repro.network.faults import RELIABILITY_LADDER

    result = ExperimentResult(
        "reliability-ladder",
        f"Protocol resilience under injected faults ({app}/{dataset}, "
        f"{nodes} nodes)",
        ["system", "faults", "cycles", "slowdown", "retries", "nacks",
         "drops", "dups", "dup_suppressed"],
    )
    for system in systems:
        baseline = None
        for spec in RELIABILITY_LADDER:
            outcome = run_application(
                system, workload(app, dataset).build(),
                _config(nodes, cache_bytes, seed), faults=spec,
            )
            stats = outcome["machine"].stats
            cycles = round(outcome["execution_time"])
            if baseline is None:
                baseline = cycles
            result.add_row(
                system=system,
                faults=spec.name,
                cycles=cycles,
                slowdown=round(cycles / baseline, 3),
                retries=int(stats.get("tempest.retries")),
                nacks=int(stats.get("tempest.nacks_sent")),
                drops=int(stats.get("network.fault_drops")),
                dups=int(stats.get("network.fault_dups")),
                dup_suppressed=int(stats.get("tempest.duplicates_dropped")),
            )
    result.notes.append(
        "Fault plans are seeded and deterministic (docs/faults.md); the "
        "reliable rung is bit-identical to a run with no plan installed."
    )
    return result


# ----------------------------------------------------------------------
# Conformance matrix: every protocol transition checked, per system
# ----------------------------------------------------------------------
def run_conformance_matrix(nodes: int = 4, cache_bytes: int = 2048,
                           seed: int = 42,
                           systems: tuple[str, ...] = ("dirnnb",
                                                       "typhoon-stache",
                                                       "blizzard-stache"),
                           app: str = "mp3d",
                           dataset: str = "small") -> ExperimentResult:
    """Run each system with the online conformance monitor enabled.

    Every directory/tag transition and every grant/ack/writeback
    pairing is checked against the protocol's declarative specification
    (:mod:`repro.protocols.conformance`) — on a reliable network and
    again on the lossiest :data:`~repro.network.faults.RELIABILITY_LADDER`
    rung, where retransmissions and duplicate deliveries stress the
    causality checks hardest.  A run that completes *is* the result: the
    monitor raises at the first illegal transition.  The table reports
    how many checks each cell performed.
    """
    from repro.network.faults import RELIABILITY_LADDER

    result = ExperimentResult(
        "conformance-matrix",
        f"Online protocol conformance ({app}/{dataset}, {nodes} nodes)",
        ["system", "faults", "cycles", "checks", "violations"],
    )
    fault_rungs = [None, RELIABILITY_LADDER[-1]]
    for system in systems:
        for spec in fault_rungs:
            outcome = run_application(
                system, workload(app, dataset).build(),
                _config(nodes, cache_bytes, seed), faults=spec,
                conformance=True,
            )
            monitor = outcome["machine"].conformance
            result.add_row(
                system=system,
                faults=spec.name if spec is not None else "reliable",
                cycles=round(outcome["execution_time"]),
                checks=monitor.checks,
                violations=len(monitor.violations),
            )
    result.notes.append(
        "The monitor is passive: with it disabled the same seeds produce "
        "bit-identical runs (docs/observability.md)."
    )
    return result


# ----------------------------------------------------------------------
# The system registry: listing and full-matrix smoke run
# ----------------------------------------------------------------------
def run_backends() -> ExperimentResult:
    """List every registered backend and how many systems it runs.

    Every Tempest backend runs every registered protocol; DirNNB runs
    its hardwired one (``repro systems`` shows the resulting matrix,
    grouped under these backends).
    """
    from repro.backends import BACKENDS, all_systems

    result = ExperimentResult(
        "backends",
        "Registered backends",
        ["backend", "systems", "description"],
    )
    systems = all_systems()
    for backend in BACKENDS.values():
        mine = [s for s in systems
                if s == backend.name or s.startswith(f"{backend.name}:")]
        result.add_row(
            backend=backend.name,
            systems=len(mine),
            description=backend.description,
        )
    return result


def run_systems() -> ExperimentResult:
    """List every composable ``backend:protocol`` system, by backend.

    Pure registry introspection (no simulation): one row per system
    from :func:`repro.backends.describe_systems` — grouped by backend,
    in registry order — with its legacy aliases.  Pair with
    :func:`run_backends` (the ``systems`` CLI command prints both).
    """
    from repro.backends import describe_systems

    result = ExperimentResult(
        "systems",
        "Composable systems: every protocol on every Tempest backend, "
        "grouped by backend",
        ["system", "backend", "protocol", "aliases", "notes"],
    )
    for row in describe_systems():
        result.add_row(**row)
    return result


def run_system_matrix(nodes: int = 2, cache_bytes: int = 1024,
                      seed: int = 42) -> ExperimentResult:
    """Smoke-run every registered system on one tiny shared workload.

    The portability claim as a regression gate: the same
    producer/consumer application (striped writes, barrier, neighbour
    reads) runs end-to-end on every composable system, with the online
    conformance monitor enabled everywhere — every registered protocol
    has a spec (em3d-update's is step-indexed).  CI runs this on every
    push.
    """
    from repro.apps.synthetic import ProducerConsumerApplication
    from repro.backends import all_systems

    result = ExperimentResult(
        "system-matrix",
        f"Full backend:protocol matrix smoke run ({nodes} nodes)",
        ["system", "cycles", "refs", "remote_packets", "conformance",
         "checks"],
    )
    for system in all_systems():
        outcome = run_application(
            system, ProducerConsumerApplication(buffer_records=4, phases=2),
            _config(nodes, cache_bytes, seed), conformance=True,
        )
        result.add_row(
            system=system,
            cycles=round(outcome["execution_time"]),
            refs=outcome["refs"],
            remote_packets=outcome["remote_packets"],
            conformance="on",
            checks=outcome["machine"].conformance.checks,
        )
    result.notes.append(
        "every row is the same application binary; only the system "
        "composition string changed"
    )
    return result


# ----------------------------------------------------------------------
# The lane differential check
# ----------------------------------------------------------------------
def run_differential(nodes: int = 4, seed: int = 42,
                     cache_bytes: int = 2048, app: str = "mp3d",
                     dataset: str = "small") -> ExperimentResult:
    """The lane differential over the full system matrix.

    Every system (no exemptions — the lanes live in the node models)
    runs the same workload with batched and with scalar lanes, and the
    harness (:mod:`repro.harness.differential`) asserts bit-identical
    statistics, final memory images, and execution time.  A ``diffs``
    column that is not 0 is a lane bug.
    """
    from repro.harness.differential import run_lane_matrix

    result = ExperimentResult(
        "differential",
        f"Lane differential ({app}/{dataset}, {nodes} nodes)",
        ["axis", "system", "identical", "diffs", "cycles",
         "events_scalar", "events_batched"],
    )
    failures = 0
    for row in run_lane_matrix(app, dataset, nodes=nodes, seed=seed,
                               cache_bytes=cache_bytes):
        failures += 0 if row.identical else 1
        result.add_row(
            axis="lanes",
            system=row.system,
            identical="yes" if row.identical else "NO",
            diffs=len(row.diffs),
            cycles=round(row.execution_time),
            events_scalar=row.events_scalar,
            events_batched=row.events_batched,
        )
    if failures:
        raise AssertionError(
            f"differential check failed on {failures} row(s): the "
            f"batched lanes diverged from the scalar decomposition"
        )
    result.notes.append(
        "identical = statistics, memory images, and execution time all "
        "bit-equal across the axis (events_fired is engine bookkeeping "
        "and may legitimately differ)"
    )
    return result
