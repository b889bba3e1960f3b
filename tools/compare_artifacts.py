"""Compare the artifact digests of two checkouts over every benchmark pool job.

    python3 tools/compare_artifacts.py PARENT CHANGE

Each checkout runs every pool job of every workload in its own subprocess,
with its own ``src`` and its own ``perfbench`` harness, one BLAS thread and
no bytecode written. Jobs write only under a temporary directory; nothing is
written under either checkout, and no reference digest is read or recorded.
Prints the keys whose digests differ and the jobs that miss their oracle, and
exits 1 if there are any, else 0.

Each job kind reruns into one out directory, so the check covers artifacts
rewritten in place over the longer and shorter ones of earlier jobs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def collect(checkout: Path) -> dict:
    """``{"digests": {key: digest}, "failures": {key: error}}`` of every pool
    job, run in this process from ``checkout``."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads
    from worker import Runner, setup

    digests, failures = {}, {}
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        for name, wl in workloads.WORKLOADS.items():
            devlat, lat = setup(name)
            runner = Runner(devlat, lat, name, Path(tmp) / name, {})
            for kind in wl.kinds:
                for idx in range(wl.pool):
                    record = runner.run(workloads.Job(name, kind, idx))
                    if record["error"]:
                        failures[record["key"]] = record["error"]
                    else:
                        digests[record["key"]] = record["digest"]
    return {"digests": digests, "failures": failures}


def run_checkout(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--collect", str(checkout)],
                          env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: collecting digests failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        print(json.dumps(collect(Path(argv[1]).resolve())))
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (run_checkout(Path(arg).resolve()) for arg in argv)
    keys = sorted(parent["digests"].keys() | change["digests"].keys()
                  | parent["failures"].keys() | change["failures"].keys())
    differ = [key for key in keys
              if parent["digests"].get(key) != change["digests"].get(key)]
    for key in differ:
        print(f"DIFFERS {key}")
    for label, run in (("parent", parent), ("change", change)):
        for key, error in sorted(run["failures"].items()):
            print(f"FAILED {label} {key}: {error}")
    same = len(keys) - len(differ)
    failed = len(parent["failures"]) + len(change["failures"])
    print(f"{same}/{len(keys)} digests identical, {failed} oracle failures")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
