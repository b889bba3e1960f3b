"""A few ``share`` jobs of the benchmark workloads, run through the CLI and
checked by the benchmark's own oracles (``perfbench/workloads.py``, imported
as it is): a change the benchmark would reject fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

from devlat.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload, kind, idx", [
    ("share-closed", "quadratic", 0),
    ("share-closed", "common_base", 1),
    ("share-closed", "quadratic", 2),
    ("share-numeric", "norm_var", 0),
    ("share-numeric", "norm_norm", 1),
    ("share-numeric", "scaled_norm_var", 2),
])
def test_share_pool_entry_meets_the_benchmark_oracle(tmp_path, workload, kind, idx):
    wl = _workloads()
    out = tmp_path / "out"
    out.mkdir()
    prep = wl.prepare(wl.Job(workload, kind, idx), tmp_path, out)
    assert main(prep.argv) == 0
    assert prep.check(out) is None
