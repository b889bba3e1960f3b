"""Time whole benchmark jobs of two checkouts, their passes interleaved.

    python3 tools/bench_jobs.py PARENT CHANGE --workload W [--passes P] [--seed S]

``perfbench/run.py`` runs one checkout per process, so two runs of it made
one after the other can land in different speed modes of a shared machine
(on the 2-vCPU box these differ by about 1.7x), and a few percent between
two checkouts is lost in that spread. This tool runs one long-lived
subprocess per checkout, each with its own ``src`` and its own
``perfbench/workloads.py`` (read, never changed), one BLAS thread and no
bytecode written. The two take turns, one whole pool pass of the workload
each (every pool entry once, in the order ``workloads.schedule`` gives for
the seed), alternating which runs first, so a change in machine speed hits
both sides of a pair alike.

Each side first runs one pass unreported, which writes the inputs and checks
every job's output against the workload's oracle; a failing job stops the
tool. Each reported pass times only the ``devlat`` call of each job, as
``perfbench/worker.py`` does, without the reference block that scales those
times. Per pass it takes ``jobs_per_s`` (jobs over the summed job seconds)
and the median job time. It prints each side's median and quartiles of both
over the passes, and the change/parent ratio of each pair of passes: its
median and quartiles, and in how many pairs the change was faster. Jobs read
and write only under a temporary directory per side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def serve(checkout: Path, workload: str, seed: int, passes: int) -> None:
    """Answer each pass number read from stdin with one JSON line: the
    seconds of each job of that pass. The first line out says the checkout
    is ready, after a checked pass over every job."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads
    from worker import setup

    devlat, lat = setup(workload)
    pass_jobs = workloads.WORKLOADS[workload].pass_jobs
    jobs = workloads.schedule(workload, seed, pass_jobs * (passes + 1))
    with tempfile.TemporaryDirectory(prefix="bench_jobs_") as tmp:
        work = Path(tmp)
        prepared = {}

        def run(job, check: bool = False) -> float:
            """The seconds of the job's ``devlat`` call; with ``check``, its
            output must pass the workload's oracle."""
            if job.key not in prepared:
                out = work / "out" / job.kind
                out.mkdir(parents=True, exist_ok=True)
                prepared[job.key] = (workloads.prepare(job, work / "inputs", out), out)
            prep, out = prepared[job.key]
            result = None
            start = time.perf_counter()
            if prep.library is not None:
                result = prep.library(devlat, lat)
            elif (code := devlat.cli.main(prep.argv)) != 0:
                raise SystemExit(f"{checkout}: {job.key} exited {code}")
            seconds = time.perf_counter() - start
            if check and (error := prep.check(out if result is None else result)):
                raise SystemExit(f"{checkout}: {job.key}: {error}")
            return seconds

        (work / "inputs").mkdir()
        for job in jobs[:pass_jobs]:
            run(job, check=True)
        print(json.dumps({"ready": str(checkout), "pass_jobs": pass_jobs}), flush=True)
        for line in sys.stdin:
            k = int(line)
            print(json.dumps([run(job) for job in jobs[k * pass_jobs:(k + 1) * pass_jobs]]),
                  flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--serve":
        serve(Path(argv[1]).resolve(), argv[2], int(argv[3]), int(argv[4]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=30,
                        help="reported passes per checkout, taken in turns")
    parser.add_argument("--seed", type=int, default=0, help="the job order's seed")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    sides = [args.parent, args.change]
    workers = [subprocess.Popen(
        [sys.executable, __file__, "--serve", str(c.resolve()), args.workload,
         str(args.seed), str(args.passes)],
        env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for c in sides]
    try:
        ready = [w.stdout.readline() for w in workers]
        if not all(ready):
            return 1  # a side failed its checked pass; its error is on stderr
        pass_jobs = json.loads(ready[0])["pass_jobs"]
        runs: list[list[list[float]]] = [[], []]
        for k in range(1, args.passes + 1):
            for i in ((0, 1) if k % 2 else (1, 0)):
                workers[i].stdin.write(f"{k}\n")
                workers[i].stdin.flush()
                runs[i].append(json.loads(workers[i].stdout.readline()))
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    rates = [[len(p) / sum(p) for p in side] for side in runs]
    medians = [[statistics.median(p) for p in side] for side in runs]
    print(f"workload {args.workload}  seed {args.seed}  {args.passes} passes of "
          f"{pass_jobs} jobs per checkout, taken in turns")
    for label, checkout, rate, med in zip(("parent", "change"), sides, rates, medians):
        q1, m, q3 = quartiles(rate)
        p1, p, p3 = (v * 1e3 for v in quartiles(med))
        print(f"{label} {checkout}\n  jobs_per_s median {m:9.2f}  q1 {q1:9.2f}  q3 {q3:9.2f}"
              f"\n  job_s_p50  median {p:9.4f} ms  q1 {p1:9.4f}  q3 {p3:9.4f}")
    for name, (parent, change), higher in (("jobs_per_s", rates, True),
                                           ("job_s_p50", medians, False)):
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum((r > 1.0) if higher else (r < 1.0) for r in ratios)
        q1, m, q3 = quartiles(ratios)
        print(f"change/parent {name:<10} median {m:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"change better in {wins}/{args.passes} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
