"""The three benchmark workloads, one closed-loop repetition each.

Every workload builds its whole world from scratch inside the calling
process, drives it to the end, and returns a ``Repetition``: host
timings, the client request tally, the correctness checks, the virtual
metrics, and a ``digest`` of everything the simulation computed (virtual
clocks, update outcomes, fingerprints, replay CRCs).  Two repetitions of
one seed must produce equal digests, traced or not.

The seed generates the inputs; the program only sees what it generates:

* ``prefork-rolling`` -- each ApacheBench request is preceded by a think
  time drawn uniformly from 0..1 ms on the seeded ``workload.ab.jitter``
  stream;
* ``session-fork-replay`` -- the seed is the scenario's master seed and
  picks which hit of ``transfer.memory`` the armed fault fires on;
* ``standby-handoff`` -- the seed picks the window (16..24 of 40) in which
  the primary crashes.

Work that only serves the checks happens after the timed region; the
costly part, fingerprinting a final tree, waits for ``Repetition.finish``,
which runs after the probes are removed.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro import checkpoint, obs
from repro.bench.harness import boot_server
from repro.fleet import FailoverDrill, MigrationDrill
from repro.fleet.node import Node
from repro.kernel.kernel import Kernel
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan, TreeFingerprint
from repro.replay import rng as replay_rng
from repro.replay import scenario
from repro.replay.trace import TraceLog
from repro.servers import httpd
from repro.servers.common import ClientLatencyLog, ClientPerceived
from repro.workloads.ab import ApacheBench

from probes import Stopwatch

MS = 1_000_000  # ns per virtual millisecond

PARAMS: Dict[str, Dict[str, Any]] = {
    "prefork-rolling": {
        "server": "httpd",
        "workers": 256,
        "ab_requests": 240,
        "ab_concurrency": 4,
        "reconnect_stall_ms": 100,
        "think_time_max_ms": 1,
        "warm_responses": 8,
        "rolling_batch": 64,
    },
    "session-fork-replay": {
        "server": "vsftpd",
        "mode": "whole-tree",
        "users": 128,
        "retrievals": 4,
        "held_sessions": 2,
        "fault_site": "transfer.memory",
        "fault_hit": "1 + seed % 16",
    },
    "standby-handoff": {
        "server": "httpd",
        "windows": 40,
        "window_ms": 20,
        "requests_per_window": 6,
        "checkpoint_interval_ms": 20,
        "precopy_interval_ms": 20,
        "crash_window": "16 + seed % 9",
        "cold_cycles": 5,
        "cold_serve": 12,
    },
}


class Repetition:
    """What one repetition of a workload measured and checked."""

    def __init__(self, tracing: bool = False) -> None:
        self.host: Dict[str, float] = {}         # run_s, setup_s, update_s, replay_s
        self.requests = 0                        # client requests completed
        self.errors = 0                          # client requests lost or errored
        self.reconnects = 0
        self.operations = 0                      # checks made, one per checked operation
        self.failures: List[str] = []            # failed correctness checks
        self.virtual: Dict[str, float] = {}      # virtual-time metrics
        self.layer: Dict[str, float] = {}        # per-layer numbers read from results
        self.digest: Dict[str, Any] = {}
        self.tracing = tracing                   # traced run: note_world tallies
        self._finishers: List[Callable[[], None]] = []

    def check(self, ok: bool, what: str) -> None:
        self.operations += 1
        if not ok:
            self.failures.append(what)

    def note_world(self, kernel: Optional[Kernel]) -> None:
        """Tally one finished world's scheduler steps and retained memory.

        Exited processes stay in ``Kernel.processes`` with their mappings
        (each a host bytearray of its full size) until the kernel is freed.
        Only traced runs pay for this walk.
        """
        if not self.tracing or kernel is None:
            return
        exited = [p for p in kernel.processes.values() if p.exited]
        layer = self.layer
        layer["kernel.steps"] = layer.get("kernel.steps", 0) + kernel.steps_executed
        layer["kernel.processes_retained"] = (
            layer.get("kernel.processes_retained", 0) + len(exited)
        )
        layer["mem.retained_bytes"] = layer.get("mem.retained_bytes", 0) + sum(
            p.space.mapped_bytes() for p in exited
        )

    def later(self, fn: Callable[[], None]) -> None:
        self._finishers.append(fn)

    def finish(self) -> None:
        """Run the deferred, untimed checks and drop the worlds they held."""
        while self._finishers:
            self._finishers.pop(0)()
        self.digest["crc"] = zlib.crc32(
            json.dumps(self.digest, sort_keys=True, default=str).encode()
        )

    @property
    def attempted(self) -> int:
        return self.requests + self.errors + self.operations

    @property
    def failed(self) -> int:
        return self.errors + len(self.failures)


def percentile(values: List[int], pct: float) -> int:
    """Nearest-rank percentile of raw samples (not histogram buckets)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _client_metrics(it: Repetition, log: ClientLatencyLog) -> None:
    latencies = log.latencies_ns()
    it.virtual["client_p50_ms"] = percentile(latencies, 50) / MS
    it.virtual["client_p95_ms"] = percentile(latencies, 95) / MS
    it.virtual["client_samples"] = len(latencies)
    it.digest["latency_crc"] = zlib.crc32(json.dumps(log.samples).encode())
    it.check(len(latencies) >= 200, f"only {len(latencies)} latency samples (< 200)")


PHASES = ("quiescence", "control_migration", "restore", "transfer")


def _phases(it: Repetition, update: Dict[str, Any]) -> None:
    for field, ns in zip(PHASES, update["phases_ns"]):
        it.layer[f"mcr.phase.{field}_ms"] = ns / MS


def _scan_counters(it: Repetition, snapshots: List[Dict[str, Any]]) -> None:
    words = cached = 0
    for counters in snapshots:
        words += counters.get("scan.words", 0)
        cached += counters.get("scan.words_from_cache", 0)
    it.layer["tracing.scan.words"] = words
    it.layer["tracing.scan.cache_hit_frac"] = cached / words if words else 0.0


def _fingerprint_crc(kernel: Kernel, root) -> int:
    return zlib.crc32(
        json.dumps(TreeFingerprint.capture(kernel, root).to_dict(), sort_keys=True).encode()
    )


def _update_digest(result) -> Dict[str, Any]:
    return {
        "committed": bool(result.committed),
        "rolled_back": bool(result.rolled_back),
        "failure_site": result.failure_site,
        "rollback_verified": result.rollback_verified,
        "rollback_failed": bool(result.rollback_failed),
        "retries": result.retries,
        "total_ns": result.total_ns,
        "phases_ns": [getattr(result, f"{field}_ns") for field in PHASES],
        "rolling_batches": result.rolling_batches,
    }


# -- prefork-rolling ---------------------------------------------------------------


def prefork_rolling(
    seed: int, watch: Stopwatch, workdir: str, tracing: bool = False
) -> Repetition:
    p = PARAMS["prefork-rolling"]
    it = Repetition(tracing)

    def factory(version: int = 1, mcr_prepared: bool = True):
        return httpd.make_program(
            version, mcr_prepared, server_processes=p["workers"]
        )

    start = time.perf_counter()
    with replay_rng.scoped(replay_rng.RngRegistry(seed)):
        kernel = Kernel()
        world = boot_server("httpd", 1, None, kernel, factory)
        it.host["setup_s"] = time.perf_counter() - start
        ab = ApacheBench(
            world.port,
            requests=p["ab_requests"],
            concurrency=p["ab_concurrency"],
            reconnect_stall_ns=p["reconnect_stall_ms"] * MS,
            jitter_ns=p["think_time_max_ms"] * MS,
        )
        clients = ab(kernel)
        kernel.run(
            until=lambda: ab.latency.count >= p["warm_responses"],
            max_steps=4_000_000,
        )
        collector = obs.Collector(kernel.clock)
        config = MCRConfig(update_mode="rolling", rolling_batch=p["rolling_batch"])
        result = McrCtl(kernel, world.session).live_update(
            factory(2), config=config, collector=collector
        )
        kernel.run(until=lambda: all(c.exited for c in clients), max_steps=10_000_000)
    it.host["run_s"] = time.perf_counter() - start
    it.host["update_s"] = watch.seconds("update")

    it.note_world(kernel)
    it.requests, it.errors, it.reconnects = ab.completed, ab.errors, ab.reconnects
    it.check(result.committed, f"rolling update did not commit: {result.error!r}")
    it.check(
        all(c.exited for c in clients) and ab.completed == p["ab_requests"],
        f"ab completed {ab.completed}/{p['ab_requests']} requests",
    )
    perceived = ClientPerceived.measure(
        ab.latency, world.session.config.downtime_budget_ns
    )
    it.virtual["virtual_update_ms"] = result.total_ms()
    it.virtual["blackout_ms"] = perceived.blackout_ns / MS
    _client_metrics(it, ab.latency)
    update = _update_digest(result)
    _phases(it, update)
    _scan_counters(it, [collector.counters.snapshot()])
    it.digest.update(
        clock_ns=kernel.clock.now_ns,
        steps=kernel.steps_executed,
        update=update,
        blackout_ns=perceived.blackout_ns,
        ab=[ab.completed, ab.errors, ab.reconnects],
    )

    def fingerprint() -> None:
        it.digest["fingerprint_crc"] = _fingerprint_crc(kernel, result.new_root)

    it.later(fingerprint)
    return it


# -- session-fork-replay -----------------------------------------------------------


def session_fork_replay(
    seed: int, watch: Stopwatch, workdir: str, tracing: bool = False
) -> Repetition:
    p = PARAMS["session-fork-replay"]
    it = Repetition(tracing)
    load = {"users": p["users"], "retrievals": p["retrievals"]}
    spec = scenario.default_spec(
        p["server"], p["mode"], seed, workload=load, holders=p["held_sessions"]
    )
    faults = FaultPlan().at(p["fault_site"], nth=1 + seed % 16).to_spec()
    faulted_spec = scenario.default_spec(
        p["server"], p["mode"], seed, faults=faults, workload=load,
        holders=p["held_sessions"],
    )
    expected = p["users"] * p["retrievals"]

    start = time.perf_counter()
    record = TraceLog.record(spec)
    outcome = scenario.run_scenario(spec, trace=record)
    # Keep only numbers from each run, so its world can be freed before
    # the next one boots.
    clean = _update_digest(outcome.result)
    clean_error = repr(outcome.result.error)
    counters = [outcome.collector.counters.snapshot()]
    it.note_world(outcome.kernel)
    del outcome

    replay_start = time.perf_counter()
    verify = TraceLog.replay_of(record)
    watch.paused["update"] = True  # the replay's update is not an update attempt
    try:
        replayed = scenario.run_scenario(spec, trace=verify)
    finally:
        watch.paused["update"] = False
    it.host["replay_s"] = time.perf_counter() - replay_start
    it.note_world(replayed.kernel)
    del replayed

    faulted = scenario.run_scenario(faulted_spec)
    counters.append(faulted.collector.counters.snapshot())
    it.host["run_s"] = time.perf_counter() - start
    it.note_world(faulted.kernel)
    it.host["setup_s"] = watch.seconds("boot")
    it.host["update_s"] = watch.seconds("update")

    benches = watch.captured.pop("bench")
    bench = benches[0]
    probe = watch.captured.pop("probe")[0]
    it.requests = sum(b.latency.count for b in benches)
    it.errors = sum(b.errors for b in benches)
    for name, b in zip(("record", "replay", "fault"), benches):
        it.check(b.completed == expected, f"{name}: ftp completed {b.completed}/{expected}")
    it.check(clean["committed"], f"recorded update did not commit: {clean_error}")
    it.check(
        record.final.get("probe_completed", 0) >= 1 and not record.final["probe_errors"],
        "post-update probe failed on the recorded run",
    )
    it.check(verify.equivalent, f"replay diverged: {verify.divergences[:2]!r}")
    result = faulted.result
    it.check(
        result is not None and result.rolled_back and not result.committed,
        "fault-armed update did not roll back",
    )
    it.check(
        result is not None and result.rollback_verified is True,
        "rollback fingerprint was not verified",
    )
    it.check(
        result is not None and result.failure_site == p["fault_site"],
        f"rollback blamed {getattr(result, 'failure_site', None)}",
    )
    it.check(
        faulted.raised is None and faulted.probe_completed >= 1 and not faulted.probe_errors,
        "old version did not serve after the rollback",
    )

    # No client runs through a whole-tree update: the blackout is the gap
    # between the last pre-update FTP reply and the post-update probe's.
    around = ClientLatencyLog()
    around.samples = sorted(bench.latency.samples + probe.latency.samples)
    perceived = ClientPerceived.measure(around, MCRConfig().downtime_budget_ns)
    it.virtual["virtual_update_ms"] = clean["total_ns"] / MS
    it.virtual["blackout_ms"] = perceived.blackout_ns / MS
    _client_metrics(it, bench.latency)
    _phases(it, clean)
    _scan_counters(it, counters)
    it.layer["replay.divergences"] = len(verify.divergences)
    it.digest.update(
        recorded=record.final,
        replayed=verify.final,
        clean=clean,
        faulted=_update_digest(result) if result is not None else None,
        faulted_clock_ns=faulted.kernel.clock.now_ns,
        ftp=[[b.completed, b.errors, b.latency.count] for b in benches],
    )

    def fingerprint() -> None:
        nonlocal faulted
        it.digest["faulted_fingerprint_crc"] = _fingerprint_crc(
            faulted.kernel, faulted.world.root
        )
        faulted = None

    it.later(fingerprint)
    return it


# -- standby-handoff ---------------------------------------------------------------


def standby_handoff(
    seed: int, watch: Stopwatch, workdir: str, tracing: bool = False
) -> Repetition:
    p = PARAMS["standby-handoff"]
    it = Repetition(tracing)
    window_ns = p["window_ms"] * MS
    failover_config = MCRConfig(
        checkpoint_interval_ns=p["checkpoint_interval_ms"] * MS,
        checkpoint_path=os.path.join(workdir, "failover.img"),
    )
    migrate_config = MCRConfig(checkpoint_interval_ns=p["checkpoint_interval_ms"] * MS)
    cold_path = os.path.join(workdir, "cold.img")
    samples = ClientLatencyLog()

    start = time.perf_counter()
    failover = FailoverDrill(
        p["server"],
        config=failover_config,
        windows=p["windows"],
        window_ns=window_ns,
        requests_per_window=p["requests_per_window"],
        crash_window=16 + seed % 9,
    )
    crash = failover.run()
    nodes = [failover.primary, failover.standby.node if failover.standby else None]
    _tally_nodes(it, samples, nodes)
    del failover, nodes

    migration = MigrationDrill(
        p["server"],
        config=migrate_config,
        windows=p["windows"],
        window_ns=window_ns,
        requests_per_window=p["requests_per_window"],
        precopy_interval_ns=p["precopy_interval_ms"] * MS,
    )
    moved = migration.run()
    nodes = [migration.primary, migration.target.node if migration.target else None]
    _tally_nodes(it, samples, nodes)
    del migration, nodes

    cycles = []
    for cycle in range(p["cold_cycles"]):
        primary = Node.boot(p["server"], node_id=10 + cycle)
        primary.serve(p["cold_serve"])
        primary.drain()
        primary.settle(2 * MS)  # served-connection fds released before the cut
        # Called through the package so the traced run's probes see them.
        image = checkpoint.checkpoint_node(primary)
        checkpoint.write_image(image, cold_path)
        restored = checkpoint.restore_image(
            checkpoint.read_image(cold_path), node_id=20 + cycle
        )
        matches = restored.fingerprint().matches(image.fingerprint)
        checkpoint.resume_node(restored)
        restored.serve(p["cold_serve"])
        restored.drain()
        nodes = [primary, restored]
        it.requests += sum(node.completed for node in nodes)
        it.errors += sum(node.lost for node in nodes)
        _tally_nodes(it, samples, nodes)
        it.check(matches, f"cold cycle {cycle}: restored fingerprint mismatch")
        it.check(
            restored.completed == p["cold_serve"],
            f"cold cycle {cycle}: restored node served {restored.completed}/{p['cold_serve']}",
        )
        cycles.append(
            [image.image_id, image.total_bytes(), primary.now_ns, restored.now_ns]
        )
        primary.teardown()
        restored.teardown()
    it.host["run_s"] = time.perf_counter() - start
    it.host["setup_s"] = watch.seconds("boot")
    for path in (cold_path, failover_config.checkpoint_path):
        if os.path.exists(path):
            os.unlink(path)

    it.requests += crash.requests_completed + moved.requests_completed
    it.errors += crash.requests_lost + moved.requests_lost
    it.check(
        crash.crashed and crash.promoted and not crash.cold_restored and crash.error is None,
        f"failover drill did not promote the warm standby: {crash.error}",
    )
    it.check(crash.served_after, "promoted standby did not serve")
    it.check(
        moved.migrated and not moved.aborted and moved.error is None,
        f"migration drill did not cut over: {moved.abort_reason or moved.error}",
    )
    it.check(moved.served_after, "migration target did not serve")
    it.virtual["rto_ms"] = (crash.rto_ns or 0) / MS
    it.virtual["brownout_ms"] = (moved.brownout_ns or 0) / MS
    _client_metrics(it, samples)
    it.layer["fleet.precopy_rounds"] = moved.precopy_rounds
    it.layer["fleet.precopy_converged"] = int(moved.converged_precopy)
    it.digest.update(
        failover=crash.to_dict(),
        migration=moved.to_dict(),
        cold=cycles,
    )
    return it


def _tally_nodes(it: Repetition, log: ClientLatencyLog, nodes) -> None:
    """Fold drill or cycle nodes into the sample log and per-layer tallies."""
    for node in nodes:
        if node is not None:
            log.samples.extend(node.latency.samples)
            it.reconnects += node.reconnects
            it.note_world(node.kernel)
    log.samples.sort()


WORKLOADS: Dict[str, Callable[..., Repetition]] = {
    "prefork-rolling": prefork_rolling,
    "session-fork-replay": session_fork_replay,
    "standby-handoff": standby_handoff,
}


def install_stopwatch(patcher, watch: Stopwatch) -> None:
    """Harness hooks every run needs: boots, update attempts, FTP clients."""
    patcher.wrap(McrCtl, "live_update", watch.timing("update"))
    patcher.wrap(Node, "boot", watch.timing("boot"))
    patcher.wrap(scenario, "_boot", watch.timing("boot"))
    patcher.wrap(scenario, "_workload_for", watch.capturing("bench"))
    patcher.wrap(scenario, "_probe_for", watch.capturing("probe"))
