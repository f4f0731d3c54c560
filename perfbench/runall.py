"""Every workload, one command: full reports, then a per-seed summary.

    python3 perfbench/runall.py [--seeds 0 7] [--seconds 20] [--trace 0]

Runs ``run.py`` for each workload and seed, one run at a time, and prints
each run's report: every end-to-end metric with its unit, the checks, and
the per-layer table when ``--trace 1``.  It then prints one summary line
per run with the virtual metrics.  Those must be identical within a seed.
They may differ between seeds, because the seed generates the inputs.

Give two seeds (the default 0 and a held-out one) for the second-seed
check.  Each repetition is a fresh process, so a run with two or more
repetitions also shows that the virtual outputs repeat across processes.
Exits non-zero if any run failed a check or had fewer than two
repetitions to compare.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
VIRTUAL = (
    "virtual_update_ms", "blackout_ms", "client_p50_ms", "client_p95_ms",
    "client_samples", "rto_ms", "brownout_ms",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary, ok = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            record_path = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            record_path.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            print(done.stdout, end="")
            print(done.stderr, end="", file=sys.stderr)
            if not record_path.exists():
                ok = False
                summary.append(f"{workload:<20} seed {seed:<4} FAIL no record written")
                continue
            record = json.loads(record_path.read_text())
            reps = len(record["repetitions"])
            passed = done.returncode == 0 and reps >= 2
            ok = ok and passed
            shown = {k: record["end_to_end"][k] for k in VIRTUAL if k in record["end_to_end"]}
            summary.append(
                f"{workload:<20} seed {seed:<4} {'ok  ' if passed else 'FAIL'} "
                f"{reps} reps, digest {record['virtual_digest_crc']} {shown}"
            )
    print("\n".join(["", "summary:"] + summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
