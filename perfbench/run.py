"""devlat benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload dev-wide --seed 1 --seconds 10 --trace 0

Times ``SETUP_PROBES`` fresh interpreters setting up, then runs the workload
in a fresh worker process (``worker.py``) with one BLAS thread, checks every
job against its oracle, and prints each metric by name with its unit. Times
are scaled to the machine speed of the moment (see ``scaled``). The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. Run records and span
files go to ``.perfbench_out/`` at the root of the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: fresh set-up probes per run; the worker's own set-up is one more sample
SETUP_PROBES = 6
#: time of the worker's reference block on the nominal machine that reported
#: times refer to; near the reference box's usual speed
REFERENCE_S = 2e-3
#: a job's machine speed is the median reference time of the jobs this many
#: places before and after it, and its own
SPEED_WINDOW = 2
#: the whole run ends within this many seconds
DEADLINE_S = 175.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
ENV = {**os.environ, **PINNED_ENV}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 has 10 samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def scaled(seconds: float, ref_s: float) -> float:
    """Wall time scaled to the nominal machine: ``seconds`` were measured
    while the reference block took ``ref_s``.

    The reference box's host shares its cores, and its speed switches
    between modes ~1.7x apart for seconds to minutes at a time. Jobs and the
    reference block slow down together, so the scaled time stays put.
    """
    return seconds * REFERENCE_S / ref_s


def spawn(args: list[str], deadline: float) -> str:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=ENV,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps the
    # worker or probe it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "devlat" / "__init__.py").is_file():
        print(f"error: no devlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_base = ROOT / ".perfbench_out"
    work = out_base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    def probe():
        start = time.monotonic()
        done = json.loads(spawn(["--probe", "--workload", args.workload], deadline))
        return done["ready"] - start, done["ref_s"]

    try:
        # half the probes before the worker and half after, so one slow
        # moment of a shared machine does not set the median
        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        start = time.monotonic()
        report = json.loads(spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)], deadline))
        setup.append((report["ready"] - start, report["ref_s"]))
        setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = report["records"]
    attempted = len(records)
    failures = [r for r in records if r["error"]]
    for r in failures[:5]:
        print(f"FAILED {r['key']}: {r['error']}", file=sys.stderr)
    refs = [r["ref_s"] for r in records]
    for i, r in enumerate(records):
        speed = statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        r["scaled_s"] = scaled(r["seconds"], speed)
    times = [r["scaled_s"] for r in records if not r["error"]]
    wall = [r["seconds"] for r in records if not r["error"]]
    if not times:
        print("error: no job completed", file=sys.stderr)
        return 1
    setup_s = [scaled(wall, ref_s) for wall, ref_s in setup]

    if args.trace == 0:
        metrics = {
            "jobs_per_s": (len(times) / sum(times), "1/s"),
            "job_s_p50": (statistics.median(times), "s"),
            "job_s_p90": (percentile(times, 90), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = report["layers"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": report["provenance"],
        "setup_samples": [{"wall_s": wall, "ref_s": ref_s, "scaled_s": sc}
                          for (wall, ref_s), sc in zip(setup, setup_s)],
        "job_samples": len(times),
        "unscaled": {"jobs_per_s": len(wall) / sum(wall),
                     "job_s_p50": statistics.median(wall),
                     "job_s_p90": percentile(wall, 90),
                     "setup_s": statistics.median(w for w, _ in setup)},
        "jobs_beyond_p90": sum(t > percentile(times, 90) for t in times),
        "failed": len(failures), "fail_ratio": len(failures) / attempted,
        "runtime_warnings": sum(r["warnings"] for r in records),
        "digest_mismatches": sum(r["mismatch"] for r in records),
        "layer_shares": report.get("layer_shares"), "spans_file": report.get("spans_file"),
        "metrics": metrics, "records": records,
    }
    record_path = out_base / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted}  "
          f"failed {len(failures)}  fail_ratio {len(failures) / attempted:.4g}  "
          f"digest mismatches {record['digest_mismatches']}  "
          f"runtime warnings {record['runtime_warnings']}")
    if report.get("layer_shares"):
        print("self-time share by layer "
              + "  ".join(f"{k} {v:.1%}" for k, v in report["layer_shares"].items()))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print("  unscaled wall clock: "
              + "  ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    # printed, not in the JSON: a metric that is 0 when all is well has no
    # median to compare a change against
    print(f"  {'fail_ratio':36s} {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    print(f"run record {record_path}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
