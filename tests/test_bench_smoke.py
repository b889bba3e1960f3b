"""A few jobs of the benchmark workloads, run through the CLI (or, for
``permute_law``, the library call) and checked by the benchmark's own oracles
(``perfbench/workloads.py``, imported as it is) and, byte for byte, against
``perfbench/reference_digests.json`` or, where that digest predates the
closed-form projector, against ``PROJECTOR_DIGESTS``: a change the benchmark
would reject fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import devlat
from devlat.cli import _compile_expression, _expression_namespace, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(stem):
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def _workloads():
    return _perfbench("workloads")


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


@pytest.mark.parametrize("kind, idx", [
    ("cvar_deviation", 0),
    ("axioms", 1),
    ("law_probe", 2),
    ("check_driver", 3),
])
def test_jump_probes_pool_entry_meets_the_benchmark_oracle(tmp_path, kind, idx):
    wl = _workloads()
    out = tmp_path / "out"
    out.mkdir()
    prep = wl.prepare(wl.Job("jump-probes", kind, idx), tmp_path, out)
    assert main(prep.argv) == 0
    assert prep.check(out) is None


#: the digests of the entries whose last bits the closed-form least-squares
#: projector moved (``Lattice.step_basis``), in place of the benchmark's
#: reference until ``perfbench/reference_digests.json`` is recorded again
PROJECTOR_DIGESTS = {
    "dev-wide/variance/0": "61f5eaf50e77376db8ce75d3e9b641d7636d02c897c56ab24551bd06a0c2aa2f",
    "dev-wide/variance/17": "5bf38d8c1465ffedf0ad488b23016036d35ac9f928607d77826312bfdb505ae0",
    "dev-wide/norm_cd/3": "acd1f4d934e9b4997ff2b1cecb2bd6a7466103713ef2bd4053401009fa47d82f",
    "dev-wide/norm_cd/42": "4d7f0712443186ffd01e404b2f53567c3dd37b45b1bbc3dc2f0c333bb4ed7ab7",
    "jump-probes/cvar_deviation/11":
        "cc5d2fa38a787e1ca851abaedeea1f8cf71ee5b96f726267cb4f59f8a4f0f821",
}


@pytest.mark.parametrize("workload, kind, idx", [
    ("dev-wide", "variance", 0),
    ("dev-wide", "variance", 17),
    ("dev-wide", "norm_cd", 3),
    ("dev-wide", "norm_cd", 42),
    ("jump-probes", "cvar_deviation", 5),
    ("jump-probes", "cvar_deviation", 11),
    ("jump-probes", "axioms", 2),
    ("jump-probes", "axioms", 13),
])
def test_pool_entry_artifacts_match_the_reference_digest(tmp_path, workload, kind, idx):
    """The bytes of ``deviation.csv``, ``integrands.json`` and the summary
    against the benchmark's recorded digest, or the current one where the
    projector moved them."""
    wl = _workloads()
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text())
    job = wl.Job(workload, kind, idx)
    out = tmp_path / "out"
    out.mkdir()
    prep = wl.prepare(job, tmp_path, out)
    assert main(prep.argv) == 0
    assert prep.check(out) is None
    assert wl.digest(prep, out, None) == PROJECTOR_DIGESTS.get(job.key, reference[job.key])


def _lattice(spec):
    marks = tuple((mark,) for mark in spec.marks)
    return devlat.build_lattice(
        devlat.TimeGrid.uniform(spec.n, spec.horizon),
        devlat.NoiseModel(1, devlat.JumpMeasure(marks, spec.intensities)),
    )


def test_permute_law_pool_entry_meets_the_benchmark_oracle(tmp_path):
    wl = _workloads()
    prep = wl.prepare(wl.Job("jump-probes", "permute_law", 4), tmp_path, tmp_path)
    result = prep.library(devlat, _lattice(wl.WORKLOADS["jump-probes"].lattice))
    assert prep.check(result) is None


@pytest.mark.parametrize("workload", ["dev-wide", "jump-probes"])
def test_pool_expressions_evaluate_as_before(tmp_path, workload):
    """Every expression payoff of the pool gives the values of evaluating the
    raw string under empty builtins, the former path, bit for bit."""
    wl = _workloads()
    spec = wl.WORKLOADS[workload]
    ns = _expression_namespace(_lattice(spec.lattice))
    seen = 0
    for kind in spec.kinds:
        for idx in range(spec.pool):
            prep = wl.prepare(wl.Job(workload, kind, idx), tmp_path, tmp_path)
            if prep.argv is None:
                continue
            cfg = json.loads(Path(prep.argv[prep.argv.index("--config") + 1]).read_text())
            for payoff in cfg.get("payoffs", {}).values():
                expr = payoff["expr"]
                got = eval(_compile_expression(expr, ns), {"__builtins__": {}}, dict(ns))
                want = eval(expr, {"__builtins__": {}}, dict(ns))
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), expr
                seen += 1
    assert seen >= spec.pool


def test_tracer_hooks_exist_and_uninstall_restores_them():
    """The benchmark's tracer wraps every function and driver method it names
    (a deleted or renamed hook fails ``install``), and ``uninstall`` puts
    every original back."""
    tracing = _perfbench("tracing")
    modules = {k: m for k, m in sys.modules.items()
               if m is not None and (k == "devlat" or k.startswith("devlat."))}
    methods = [*(t for targets in tracing.METHODS.values() for t in targets),
               *tracing.SCALAR_METHODS]
    classes = {(module, cls) for module, cls, _ in methods}

    def snapshot():
        attrs = {(k, key): v for k, m in modules.items() for key, v in vars(m).items()}
        attrs.update({(module, cls, key): v for module, cls in classes
                      for key, v in vars(getattr(sys.modules[module], cls)).items()})
        return attrs

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {k for k, v in snapshot().items() if before.get(k) is not v}
    finally:
        tracer.uninstall()
    hooks = {t for targets in tracing.FUNCTIONS.values() for t in targets}
    assert hooks | set(methods) <= patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
