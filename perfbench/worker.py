"""One fresh process per benchmark run: set up, run jobs in a closed loop.

``--probe`` only sets up (import ``devlat.cli`` and build the workload's
lattice) and prints one JSON object: the monotonic clock when done, so
``run.py`` can time a fresh interpreter's set-up, and the time of the
reference block just after. Without it the worker also runs the workload and
prints one JSON object with its job times, the reference time before each
job, failures and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: stop measuring at the first pass boundary after this long, to end within 180 s
MAX_LOOP_S = 120.0
#: reference blocks timed after set-up; their median scales the set-up time
SETUP_REFERENCES = 9


def setup(workload: str):
    """Import devlat.cli from the checkout and build the workload's lattice."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import devlat.cli
    if not Path(devlat.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"devlat was imported from {devlat.cli.__file__}, not {src}")
    import devlat
    from workloads import WORKLOADS

    spec = WORKLOADS[workload].lattice
    marks = tuple((mark,) for mark in spec.marks)
    lat = devlat.build_lattice(
        devlat.TimeGrid.uniform(spec.n, spec.horizon),
        devlat.NoiseModel(1, devlat.JumpMeasure(marks, spec.intensities)),
    )
    return devlat, lat


def reference_block() -> float:
    """Fixed work in the mix devlat's jobs run, timed just before each job to
    gauge the machine's speed at that moment. Returns seconds.

    The parts: small numpy calls, an interpreted loop, a sum over an array
    larger than a core's own caches, and indented JSON of small dicts, which
    runs the pure-Python encoder that ``canonical_json`` uses. Each kind of
    work slows down differently when the host's other tenants are busy, so
    the block holds all of them. It takes about 2 ms on the reference box.
    """
    import numpy as np

    global _SWEEP
    if _SWEEP is None:
        _SWEEP = np.ones(250_000)
    start = time.perf_counter()
    a = np.arange(64.0)
    s = float(_SWEEP.sum())
    for i in range(60):
        s += float(a @ a)
    k = 0
    for i in range(3000):
        k += i * i % 7
    json.dumps([{"leaf": i, "value": str(s + i)} for i in range(250)], indent=2)
    return time.perf_counter() - start


_SWEEP = None


class Runner:
    """Prepares, runs, checks and digests jobs of one workload."""

    def __init__(self, devlat, lat, workload: str, work: Path, reference: dict):
        import workloads

        self.devlat, self.lat, self.wl = devlat, lat, workloads
        self.reference = reference
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out = {}
        for kind in workloads.WORKLOADS[workload].kinds:
            self.out[kind] = work / "out" / kind
            self.out[kind].mkdir(parents=True, exist_ok=True)
        self._prepared = {}

    def run(self, job) -> dict:
        """Run one job; only the devlat call itself is timed, right after a
        reference block."""
        if job.key not in self._prepared:
            self._prepared[job.key] = self.wl.prepare(job, self.inputs, self.out[job.kind])
        prep = self._prepared[job.key]
        out_dir = self.out[job.kind]
        result, error = None, None
        ref_s = reference_block()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if prep.library is not None:
                    result = prep.library(self.devlat, self.lat)
                else:
                    code = self.devlat.cli.main(prep.argv)
                    if code != 0:
                        error = f"exit code {code}"
            except (Exception, SystemExit) as exc:
                error = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = prep.check(result if prep.library is not None else out_dir)
                digest = self.wl.digest(prep, out_dir, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        return {
            "key": job.key,
            "seconds": elapsed,
            "ref_s": ref_s,
            "error": error,
            "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
            "digest": None if error else digest,
            "mismatch": error is None and digest != self.reference.get(job.key),
        }


def measure(runner: Runner, jobs, seconds: float, pass_jobs: int) -> list[dict]:
    """Closed loop, one client: run whole passes over the pool until
    ``seconds`` have passed (or MAX_LOOP_S, for a very slow machine)."""
    records = []
    start = time.monotonic()
    for done, job in enumerate(jobs, 1):
        records.append(runner.run(job))
        if done % pass_jobs == 0 and time.monotonic() - start >= min(seconds, MAX_LOOP_S):
            break
    return records


def provenance(devlat, workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "devlat": devlat.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    args = ap.parse_args()

    devlat, lat = setup(args.workload)
    ready = time.monotonic()
    setup_ref = sorted(reference_block() for _ in range(SETUP_REFERENCES))
    setup_ref_s = setup_ref[SETUP_REFERENCES // 2]
    if args.probe:
        print(json.dumps({"ready": ready, "ref_s": setup_ref_s}))
        return 0

    import workloads
    from tracing import Tracer, layer_metrics

    reference = json.loads((HERE / "reference_digests.json").read_text())
    runner = Runner(devlat, lat, args.workload, args.work, reference)
    wl = workloads.WORKLOADS[args.workload]
    jobs = workloads.schedule(args.workload, args.seed, 100_000)
    for job in jobs[:len(wl.kinds)]:  # warm-up: one job of each kind, not reported
        runner.run(job)

    report = {"ready": ready, "ref_s": setup_ref_s,
              "provenance": provenance(devlat, args.workload, args.seed)}
    if args.trace == 0:
        # whole passes over the pool, so every run holds the same mix of jobs
        records = measure(runner, jobs, args.seconds, wl.pass_jobs)
    else:
        # each traced job runs next to an untraced twin, in alternating order,
        # so drift in machine speed cancels out of the overhead ratio
        tracer = Tracer()
        traced, twins = [], []
        for number, job in enumerate(jobs[:wl.trace_jobs]):
            if number % 2:
                twins.append(runner.run(job))
            tracer.job = number
            tracer.install()
            try:
                traced.append(runner.run(job))
            finally:
                tracer.uninstall()
            if not number % 2:
                twins.append(runner.run(job))
        overhead = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in twins)
        report["layers"], report["layer_shares"] = layer_metrics(
            tracer, len(traced), sum(r["warnings"] for r in traced),
            sum(r["mismatch"] for r in traced), overhead)
        spans_path = args.work.parent / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path)
        records = twins + traced
    report["records"] = records
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
