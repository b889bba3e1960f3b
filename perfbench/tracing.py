"""Outside-in span tracing of devlat's public functions.

``Tracer.install`` replaces each traced function in every ``devlat`` module
that binds it (``devlat.cli.represent``, ``devlat.sharing.minimize``, ...) and
each traced driver method on its class; ``uninstall`` puts the originals back.
Nothing inside the package is changed on disk. Spans (name, start, end, parent
span, job id) stay in memory until ``write``; self times are derived from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

#: span name -> (module, attribute) functions it wraps
FUNCTIONS = {
    "lattice.build": [("devlat.lattice", "build_lattice")],
    "lattice.martingale": [("devlat.lattice", "martingale")],
    "lattice.law": [("devlat.lattice", "law"), ("devlat.lattice", "law_distance")],
    "lattice.permute": [("devlat.lattice", "permute_paths")],
    "representation.represent": [("devlat.representation", "represent")],
    "representation.assemble": [("devlat.representation", "assemble")],
    "drivers.check": [("devlat.drivers", "check_driver")],
    "deviation.evaluate": [("devlat.deviation", "evaluate")],
    "deviation.recursive": [("devlat.deviation", "evaluate_recursive")],
    "deviation.axioms": [("devlat.deviation", "axiom_report")],
    "deviation.law_probe": [("devlat.deviation", "law_probe")],
    "optim.minimize": [("devlat.optim", "minimize")],
    "sharing.solve": [("devlat.sharing", "solve_sharing")],
    "sharing.infconv": [("devlat.sharing", "infconv_value")],
    "jsonio.json": [("devlat.jsonio", "canonical_json")],
    "jsonio.pair_to_dict": [("devlat.jsonio", "pair_to_dict")],
    "jsonio.csv": [("devlat.jsonio", "write_process_csv"),
                   ("devlat.jsonio", "write_payoff_csv"),
                   ("devlat.jsonio", "load_payoff_csv")],
    "cli.main": [("devlat.cli", "main")],
}

DRIVER_KINDS = {"Variance": "variance", "NormCD": "norm_cd", "CVaRJump": "cvar_jump",
                "Scaled": "scaled", "InfConv": "infconv"}

#: span name -> (module, class, method) methods it wraps
METHODS = {
    "lattice.paths": [("devlat.lattice", "Lattice", "brownian_states"),
                      ("devlat.lattice", "Lattice", "jump_counts")],
    **{f"drivers.value_batch.{kind}": [("devlat.drivers", cls, "value_batch")]
       for cls, kind in DRIVER_KINDS.items()},
}

#: per-point driver calls, counted without spans
SCALAR_METHODS = [("devlat.drivers", cls, name)
                  for cls in (*DRIVER_KINDS, "Custom") for name in ("value", "subgradient")]

#: layers whose share of traced self time is printed; a span belongs to the
#: layer named by its first dotted part
LAYERS = ("lattice", "representation", "drivers", "deviation", "optim", "sharing",
          "jsonio", "cli")


class Tracer:
    def __init__(self):
        #: [name, start_ns, end_ns, parent index or -1, job id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["drivers.scalar_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, name):
        counts = self.counts
        if name == "optim.minimize":
            def after(args, result):
                counts["optim.iterations"] += result.iterations
                counts["optim.converged"] += bool(result.converged)
        elif name == "representation.represent":
            def after(args, result):
                lat = args[0]
                counts["representation.nodes"] += sum(
                    lat.num_nodes(i) for i in range(lat.n_steps))
        elif name == "jsonio.json":
            def after(args, result):
                counts["jsonio.bytes_out"] += len(result.encode())
        elif name == "jsonio.csv":
            def after(args, result):
                if result is None:  # a writer; the loader returns the payoff
                    counts["jsonio.bytes_out"] += os.path.getsize(args[0])
        else:
            after = None
        return after

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "devlat" or k.startswith("devlat."))]
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(name, original, self._after(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
        for name, targets in METHODS.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
        for module, cls_name, attr in SCALAR_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._count(original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self seconds, and the number of spans.

        Spans nest strictly (one thread, stack discipline), so a span's self
        time is its duration minus the summed durations of its direct children.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, parent, job), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) / 1e9
            calls[name] += 1
        return totals, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def layer_metrics(tracer: Tracer, jobs: int, warnings: int, mismatches: int,
                  overhead_ratio: float) -> tuple[dict, dict]:
    """Per-layer metrics per traced job (see README.md), and each layer's
    share of the total traced self time."""
    totals, calls = tracer.self_times()
    counts = tracer.counts

    def s(*names):
        return sum(totals.get(n, 0.0) for n in names) / jobs

    def per_job(value):
        return value / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    represent_s = totals.get("representation.represent", 0.0)
    jsonio_s = sum(totals.get(n, 0.0) for n in ("jsonio.json", "jsonio.pair_to_dict", "jsonio.csv"))
    m = {
        "lattice.build_s": (s("lattice.build"), "s/job"),
        "lattice.martingale_s": (s("lattice.martingale"), "s/job"),
        "lattice.paths_s": (s("lattice.paths"), "s/job"),
        "lattice.law_s": (s("lattice.law"), "s/job"),
        "lattice.permute_s": (s("lattice.permute"), "s/job"),
        "representation.represent_s": (s("representation.represent"), "s/job"),
        "representation.represent_calls": (per_job(calls["representation.represent"]), "1/job"),
        "representation.assemble_s": (s("representation.assemble"), "s/job"),
        "representation.nodes_per_s": (ratio(counts["representation.nodes"], represent_s), "1/s"),
        **{f"drivers.value_batch_s.{kind}": (s(f"drivers.value_batch.{kind}"), "s/job")
           for kind in DRIVER_KINDS.values()},
        "drivers.scalar_calls": (per_job(counts["drivers.scalar_calls"]), "1/job"),
        "drivers.check_s": (s("drivers.check"), "s/job"),
        "deviation.evaluate_s": (s("deviation.evaluate"), "s/job"),
        "deviation.evaluate_calls": (per_job(calls["deviation.evaluate"]), "1/job"),
        "deviation.recursive_s": (s("deviation.recursive"), "s/job"),
        "deviation.axioms_s": (s("deviation.axioms"), "s/job"),
        "deviation.law_probe_s": (s("deviation.law_probe"), "s/job"),
        "optim.minimize_s": (s("optim.minimize"), "s/job"),
        "optim.minimize_calls": (per_job(calls["optim.minimize"]), "1/job"),
        "optim.iterations": (per_job(counts["optim.iterations"]), "1/job"),
        "optim.converged_ratio": (ratio(counts["optim.converged"], calls["optim.minimize"]), "ratio"),
        "optim.overflow_warnings": (per_job(warnings), "1/job"),
        "sharing.solve_s": (s("sharing.solve"), "s/job"),
        "sharing.infconv_s": (s("sharing.infconv"), "s/job"),
        "sharing.infconv_calls": (per_job(calls["sharing.infconv"]), "1/job"),
        "sharing.numeric_ratio": (ratio(calls["optim.minimize"], calls["sharing.infconv"]), "ratio"),
        "jsonio.json_s": (s("jsonio.json"), "s/job"),
        "jsonio.pair_to_dict_s": (s("jsonio.pair_to_dict"), "s/job"),
        "jsonio.csv_s": (s("jsonio.csv"), "s/job"),
        "jsonio.bytes_out": (per_job(counts["jsonio.bytes_out"]), "B/job"),
        "jsonio.mb_per_s": (ratio(counts["jsonio.bytes_out"] / 1e6, jsonio_s), "MB/s"),
        "cli.self_s": (s("cli.main"), "s/job"),
        "cli.artifact_digest_mismatches": (mismatches, "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.jobs": (jobs, "count"),
    }
    layer_s = {layer: sum(v for k, v in totals.items() if k.split(".")[0] == layer)
               for layer in LAYERS}
    whole = sum(layer_s.values()) or 1.0
    shares = {layer: round(v / whole, 4) for layer, v in layer_s.items()}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, shares
