"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload prefork-rolling --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``; there
is nothing to build).  The workload is repeated for ``--seconds``
seconds, at least once, each repetition in a fresh Python process that
builds its simulated world from scratch with the same seed -- so every
repetition pays the same first-touch memory cost a user's process does,
and no heap state carries over.

* ``--trace 0``: untraced repetitions; the host end-to-end metrics are
  medians over them.
* ``--trace 1``: untraced and traced repetitions alternate; the per-layer
  metrics come from the traced repetition with the median wall time, and
  the ratio of the traced to the untraced median wall time, minus one, is
  the tracing overhead.

Every repetition is checked (see ``workloads.py``), and all repetitions
of a run must produce identical virtual outputs, traced or not.  The
report goes to standard output, ending with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
provenance, is written to ``perfbench/out/``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# A run must end within this many seconds: a repetition still going when
# it would pass is killed and counted as failed.
RUN_LIMIT_S = 170


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run exactly one repetition in this process and print it.
    parser.add_argument("--repetition", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one repetition (child process) --------------------------------------------------


def repetition(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """Run the workload once, probes installed only around the workload call."""
    import layers
    from probes import Patcher, Stopwatch, Tracer
    from workloads import WORKLOADS, install_stopwatch

    workdir = OUT_DIR / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    patcher, watch = Patcher(), Stopwatch()
    tracer = Tracer() if traced else None
    install_stopwatch(patcher, watch)
    if tracer is not None:
        layers.install(patcher, tracer)
    start = time.perf_counter()
    try:
        it = WORKLOADS[workload](seed, watch, str(workdir), tracing=traced)
    finally:
        wall_s = time.perf_counter() - start
        patcher.restore()
    it.finish()
    layer = None
    if tracer is not None:
        it.failures += layers.call_problems(workload, tracer)
        layer = layers.metrics(tracer, it.layer)
        layer["bench.traced_run_s"] = wall_s
        layer["bench.unattributed_s"] = wall_s - tracer.self_seconds()
        layer["workloads.requests"] = it.requests
        layer["workloads.errors"] = it.errors
        layer["workloads.reconnects"] = it.reconnects
    return {
        "traced": traced,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": it.host,
        "requests": it.requests,
        "attempted": it.attempted,
        "failed": it.failed,
        "failures": it.failures,
        "virtual": it.virtual,
        "digest": it.digest,
        "layer": layer,
    }


def spawn(args: argparse.Namespace, traced: bool, timeout_s: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; a crash becomes a failed repetition."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--repetition", str(int(traced)),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        reason = f"repetition killed after {timeout_s:.0f} s"
    else:
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        reason = f"repetition exited {done.returncode}: {tail}"
    return {"traced": traced, "crashed": reason}


def repeat(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Repeat until the next repetition would overrun ``--seconds``."""
    kinds = [False, True] if args.trace else [False]
    reps: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rep = spawn(args, kinds[len(reps) % len(kinds)], max(1.0, start + RUN_LIMIT_S - began))
        rep["elapsed_s"] = time.perf_counter() - began
        reps.append(rep)
        if "crashed" in rep:
            return reps
        if len(reps) < len(kinds):
            continue
        upcoming = kinds[len(reps) % len(kinds)]
        typical = statistics.median(r["elapsed_s"] for r in reps if r["traced"] == upcoming)
        if time.perf_counter() - start + typical > args.seconds:
            return reps


# -- aggregation ---------------------------------------------------------------------


def end_to_end(plain: List[Dict[str, Any]]) -> Dict[str, float]:
    """Host metrics as medians over untraced repetitions; virtual ones as computed."""
    median = statistics.median
    metrics: Dict[str, float] = {
        "setup_s": median(r["host"]["setup_s"] for r in plain),
        "run_s": median(r["host"]["run_s"] for r in plain),
        "requests_per_s": median(
            r["requests"] / (r["host"]["run_s"] - r["host"]["setup_s"]) for r in plain
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    for key in ("update_s", "replay_s"):
        if key in plain[0]["host"]:
            metrics[key] = median(r["host"][key] for r in plain)
    metrics.update(plain[0]["virtual"])
    metrics["failed_frac"] = sum(r["failed"] for r in plain) / sum(
        r["attempted"] for r in plain
    )
    return metrics


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """The median-wall traced repetition's layers, plus the tracing overhead."""
    ordered = sorted(traced, key=lambda r: r["wall_s"])
    metrics = dict(ordered[(len(ordered) - 1) // 2]["layer"])
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
        - 1.0
    )
    return metrics


def determinism_problems(reps: List[Dict[str, Any]]) -> List[str]:
    """Every repetition of one seed must compute the same virtual outputs."""
    first = reps[0]["digest"]
    problems = []
    for index, rep in enumerate(reps[1:], start=1):
        if rep["digest"] != first:
            differing = sorted(
                key for key in set(first) | set(rep["digest"])
                if first.get(key) != rep["digest"].get(key)
            )
            kind = "traced" if rep["traced"] else "untraced"
            problems.append(
                f"repetition {index} ({kind}) virtual outputs differ from "
                f"repetition 0: {', '.join(differing)}"
            )
    return problems


# -- provenance ----------------------------------------------------------------------


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and content: names the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.mem import scan_backend
    from workloads import PARAMS

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scan_backend": scan_backend.ACTIVE.name,
        "cpu_count": os.cpu_count(),
        "machine": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": PARAMS[args.workload],
    }


# -- report --------------------------------------------------------------------------

# Units of the report-only end-to-end metrics (not in BENCHMARK.json).
REPORT_UNITS = {
    "update_s": "s",
    "replay_s": "s",
    "virtual_update_ms": "ms (virtual)",
    "blackout_ms": "ms (virtual)",
    "client_p50_ms": "ms (virtual)",
    "client_p95_ms": "ms (virtual)",
    "client_samples": "count",
    "rto_ms": "ms (virtual)",
    "brownout_ms": "ms (virtual)",
    "failed_frac": "ratio",
}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.repetition is not None:
        print(json.dumps(repetition(args.workload, args.seed, bool(args.repetition)), default=str))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    reps = repeat(args)
    crashed = [r["crashed"] for r in reps if "crashed" in r]
    reps = [r for r in reps if "crashed" not in r]
    problems = determinism_problems(reps) if reps else []
    failures = crashed + [f for r in reps for f in r["failures"]] + problems
    attempted = sum(r["attempted"] for r in reps) + len(reps) + len(crashed)
    failed = sum(r["failed"] for r in reps) + len(problems) + len(crashed)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    e2e = end_to_end(plain) if plain else {}
    layer = per_layer(plain, traced) if plain and traced else {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        failures.append(f"metrics not produced: {', '.join(missing)}")
        failed += 1
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in source
    }

    record = {
        "provenance": provenance(args),
        "repetitions": [
            {key: r[key] for key in ("traced", "wall_s", "elapsed_s", "peak_rss_mb", "host")}
            for r in reps
        ],
        "end_to_end": e2e,
        "per_layer": layer,
        "virtual_digest_crc": reps[0]["digest"]["crc"] if reps else None,
        "failures": failures,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_UNITS)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), one process each")
    for name, value in sorted(e2e.items()) + sorted(layer.items()):
        print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    if reps:
        verdict = "identical" if not problems else "DIFFER"
        print(f"  virtual outputs across repetitions: {verdict} "
              f"(digest crc {reps[0]['digest']['crc']})")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
