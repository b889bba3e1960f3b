"""Record the artifact digest of every pool job into reference_digests.json.

    python3 perfbench/record_digests.py

Runs each job of each workload's pool once, in one process with one BLAS
thread, and prints every job whose output misses its oracle. Re-record only
when a change is meant to alter the artifacts' bytes, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from worker import HERE, ROOT, Runner, setup  # noqa: E402


def main() -> int:
    import workloads

    digests, failed = {}, 0
    out_base = ROOT / ".perfbench_out"
    out_base.mkdir(exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        devlat, lat = setup(name)
        with tempfile.TemporaryDirectory(dir=out_base) as work:
            runner = Runner(devlat, lat, name, Path(work), {})
            for kind in wl.kinds:
                for idx in range(wl.pool):
                    record = runner.run(workloads.Job(name, kind, idx))
                    if record["error"]:
                        failed += 1
                        print(f"FAILED {record['key']}: {record['error']}")
                    else:
                        digests[record["key"]] = record["digest"]
    (HERE / "reference_digests.json").write_text(
        json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests, {failed} jobs failed their oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
