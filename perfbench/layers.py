"""Which public functions a traced run probes, and the per-layer metrics.

Layer names follow the program's modules.  Every probed function's self
time lands in one key; ``<key>.calls`` and ``<key>.host_s`` are reported
for each key, plus byte totals where the function moves memory.  The
probes are installed by ``install`` and removed by the ``Patcher`` that
installed them.
"""

from __future__ import annotations

from typing import Any, Dict, List

from probes import Patcher, Tracer

# Probe keys in report order.  Each yields <key>.calls and <key>.host_s.
KEYS = (
    "kernel.run",          # Kernel.run / run_for / run_until_idle: scheduler + syscalls
    "kernel.spawn",        # Kernel.spawn_process
    "kernel.fork",         # Kernel.do_fork / fork_for_restore
    "kernel.tree",         # Process.tree / descendants
    "mem.clone",           # AddressSpace.clone (fork's eager copy)
    "mem.map",             # AddressSpace.map (zero-filled mappings)
    "mem.region_alloc",    # RegionAllocator.alloc (first fit over regions)
    "mem.ptmalloc",        # PtMallocHeap.malloc / malloc_at / free / realloc
    "runtime.load",        # runtime.program.load_program
    "quiescence.wait",     # QuiescenceProtocol.wait
    "mcr.update",          # LiveUpdateController.run_update (its own code)
    "mcr.rollback",        # LiveUpdateController._rollback
    "tracing.build",       # GraphBuilder.build (graph + conservative scan)
    "tracing.transfer",    # StateTransfer.run
    "reinit.handle",       # ReplayEngine.handle (startup-replay syscalls)
    "reinit.finish",       # ReplayEngine.finish
    "faults.fingerprint",  # TreeFingerprint.capture
    "checkpoint.image",    # checkpoint_node / capture_quiesced
    "checkpoint.delta",    # capture_delta / capture_delta_locked
    "checkpoint.write",    # write_image
    "checkpoint.read",     # read_image
    "checkpoint.restore",  # restore_image (boot-and-graft)
    "standby.apply",       # WarmStandby.apply
    "standby.promote",     # WarmStandby.promote
    "fleet.boot",          # Node.boot
    "fleet.serve",         # Node.serve / drain / advance_to / run_for / settle
    "replay.record",       # TraceLog hooks in record mode
    "replay.verify",       # TraceLog hooks in replay (verify) mode
    "obs.emit",            # repro.obs.emit
)
BYTE_KEYS = ("mem.clone", "mem.map", "checkpoint.image", "checkpoint.delta")

# Per-layer numbers a workload reads from its own results (``Repetition.layer``);
# a workload that never reaches the layer reports zero.
FROM_RESULTS = (
    "kernel.steps",                    # scheduler steps, all kernels
    "kernel.processes_retained",       # exited processes left in Kernel.processes
    "mem.retained_bytes",              # mapping bytes those processes still hold
    "mcr.phase.quiescence_ms",         # virtual phase times of the committed update
    "mcr.phase.control_migration_ms",
    "mcr.phase.restore_ms",
    "mcr.phase.transfer_ms",
    "tracing.scan.words",              # obs counters scan.words / words_from_cache
    "tracing.scan.cache_hit_frac",
    "fleet.precopy_rounds",
    "fleet.precopy_converged",
    "replay.divergences",
)

# Keys whose probed functions must be called on a workload (the per-layer
# table in README.md); a zero there means a probe missed its callers.
EXPECTED_CALLS: Dict[str, List[str]] = {
    "prefork-rolling": [
        "kernel.fork", "kernel.tree", "mem.clone", "mem.region_alloc",
        "runtime.load", "quiescence.wait", "mcr.update", "tracing.build",
        "tracing.transfer", "reinit.handle", "reinit.finish",
    ],
    "session-fork-replay": [
        "kernel.fork", "mem.clone", "runtime.load", "mcr.update",
        "mcr.rollback", "faults.fingerprint", "replay.record", "replay.verify",
    ],
    "standby-handoff": [
        "kernel.spawn", "mem.map", "runtime.load", "faults.fingerprint",
        "checkpoint.image", "checkpoint.delta", "checkpoint.write",
        "checkpoint.read", "checkpoint.restore", "standby.apply",
        "standby.promote", "fleet.boot", "fleet.serve",
    ],
}
EXPECTED_EVERYWHERE = ["kernel.run", "mem.ptmalloc", "obs.emit"]
# Layers that must do no work at all on a workload.
EXPECTED_IDLE: Dict[str, List[str]] = {
    "prefork-rolling": [
        key for key in KEYS if key.split(".")[0] in ("checkpoint", "standby", "replay")
    ],
}


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every probed function (undone by ``patcher.restore()``)."""
    from repro import obs
    from repro.checkpoint import delta, image, restore
    from repro.checkpoint.standby import WarmStandby
    from repro.fleet.node import Node
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mcr.controller import LiveUpdateController
    from repro.mcr.faults import TreeFingerprint
    from repro.mcr.quiescence.detection import QuiescenceProtocol
    from repro.mcr.reinit.replay import ReplayEngine
    from repro.mcr.tracing.graph import GraphBuilder
    from repro.mcr.tracing.transfer import StateTransfer
    from repro.mem import regions
    from repro.mem.address_space import AddressSpace
    from repro.mem.ptmalloc import PtMallocHeap
    from repro.replay.trace import TraceLog
    from repro.runtime import program

    timed, wrap = tracer.timed, patcher.wrap
    probes: List[Any] = [
        (Kernel, ("run", "run_for", "run_until_idle"), timed("kernel.run")),
        (Kernel, ("spawn_process",), timed("kernel.spawn")),
        (Kernel, ("do_fork", "fork_for_restore"), timed("kernel.fork")),
        (Process, ("tree", "descendants"), timed("kernel.tree")),
        (AddressSpace, ("clone",), timed("mem.clone", lambda s: s.mapped_bytes())),
        (AddressSpace, ("map",), timed("mem.map", lambda m: m.size)),
        (regions.RegionAllocator, ("alloc",), timed("mem.region_alloc")),
        (regions._PoolRegionAllocator, ("alloc",), timed("mem.region_alloc")),
        (regions.Region, ("bump",), tracer.counted("mem.region_bump")),
        (PtMallocHeap, ("malloc", "malloc_at", "free", "realloc"), timed("mem.ptmalloc")),
        (program, ("load_program",), timed("runtime.load")),
        (QuiescenceProtocol, ("wait",), timed("quiescence.wait")),
        (LiveUpdateController, ("run_update",), timed("mcr.update")),
        (LiveUpdateController, ("_rollback",), timed("mcr.rollback")),
        (GraphBuilder, ("build",), timed("tracing.build")),
        (StateTransfer, ("run",), timed("tracing.transfer")),
        (ReplayEngine, ("handle",), tracer.timed_generator("reinit.handle")),
        (ReplayEngine, ("finish",), timed("reinit.finish")),
        (TreeFingerprint, ("capture",), timed("faults.fingerprint")),
        (
            image,
            ("checkpoint_node", "capture_quiesced"),
            timed("checkpoint.image", lambda i: i.total_bytes()),
        ),
        (
            delta,
            ("capture_delta", "capture_delta_locked"),
            timed("checkpoint.delta", lambda d: d.total_bytes()),
        ),
        (image, ("write_image",), timed("checkpoint.write")),
        (image, ("read_image",), timed("checkpoint.read")),
        (restore, ("restore_image",), timed("checkpoint.restore")),
        (WarmStandby, ("apply",), timed("standby.apply")),
        (WarmStandby, ("promote",), timed("standby.promote")),
        (Node, ("boot",), timed("fleet.boot")),
        (
            Node,
            ("serve", "drain", "advance_to", "run_for", "run_until_idle", "settle"),
            timed("fleet.serve"),
        ),
        (
            TraceLog,
            ("on_pick", "on_draw", "finish"),
            timed(lambda trace, *_: f"replay.{'verify' if trace.mode == 'replay' else 'record'}"),
        ),
        (TraceLog, ("on_pick",), tracer.counted("replay.picks")),
        (obs, ("emit",), timed("obs.emit")),
    ]
    for owner, names, make in probes:
        for name in names:
            wrap(owner, name, make)


def metrics(tracer: Tracer, layer: Dict[str, float]) -> Dict[str, float]:
    """Flatten one traced repetition into named per-layer numbers."""
    calls = tracer.calls
    out: Dict[str, float] = {}
    for key in KEYS:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.host_s"] = tracer.self_ns[key] / 1e9
    for key in BYTE_KEYS:
        out[f"{key}.bytes"] = tracer.bytes[key]
    allocs = calls["mem.region_alloc"]
    out["mem.region_bump_per_alloc"] = calls["mem.region_bump"] / allocs if allocs else 0.0
    image_bytes = tracer.bytes["checkpoint.image"]
    out["checkpoint.delta_to_image_ratio"] = (
        tracer.bytes["checkpoint.delta"] / image_bytes if image_bytes else 0.0
    )
    out["replay.picks"] = calls["replay.picks"]
    for name in FROM_RESULTS:
        out[name] = layer.get(name, 0)
    return out


def call_problems(workload: str, tracer: Tracer) -> List[str]:
    """Probes that saw no calls where the workload must make them, or the reverse."""
    problems = [
        f"{key}: no calls"
        for key in EXPECTED_EVERYWHERE + EXPECTED_CALLS[workload]
        if not tracer.calls[key]
    ]
    problems += [
        f"{key}: {tracer.calls[key]} calls, expected none"
        for key in EXPECTED_IDLE.get(workload, [])
        if tracer.calls[key]
    ]
    return problems
