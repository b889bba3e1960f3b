"""Time devlat's file boundaries: artifact text, its writes, the payoff loader.

    python3 tools/bench_io.py                    # this checkout
    python3 tools/bench_io.py PARENT CHANGE      # before/after, interleaved

``perfbench`` times whole CLI jobs and cannot show these layers on their own
(it counts the CSV render in ``cli.self_s``), so this tool times them
directly. It uses only the standard library and numpy, and writes only under
a temporary directory.

1. **Write protocol** (no devlat code). Each round rewrites one existing file
   per strategy with the same bytes, timing open, write and close:
   ``replace`` (unlink, then exclusive create), ``in place`` (open without
   truncation, write from offset 0, ``ftruncate`` to length) and ``O_TRUNC``
   (open truncating to zero, then write). 60 rounds per file size (700 KB and
   400 B), with a 10 ms and a 0 ms gap after each write; the strategies take
   turns in a rotating order.
2. **Each checkout's own code**, in one long-lived subprocess per checkout;
   the checkouts take turns batch by batch (``--rounds`` batches each,
   alternating which runs first), so a drift in machine speed hits both
   alike. ``load_payoff_csv`` on a 1,024-leaf binomial payoff file written
   as the benchmark writes them, once with a pool-style payoff (a function of
   the terminal Brownian state ``W_T``, so 11 distinct values) and once with
   all values distinct; and the pool payoff twice more, with its rows
   shuffled (the leaf lookup path) and with four blank lines (the filtered
   split), which no benchmark file has; and a 36-leaf payoff of the
   ``share-numeric`` jump lattice, where a load is mostly fixed cost; 10
   loads per batch; ``write_artifacts`` rerunning one 700 KB and one 400 B
   artifact into the same path, and a ``dev-wide`` job's set of three
   (700 KB, 163 KB and 300 B) into the same paths, 3 reruns per batch with
   a 10 ms gap; and the render of the text
   of a ``dev-wide`` job (binomial n = 12, a ``Variance`` deviation of a function of ``W_T``:
   ``process_csv`` of its values and ``canonical_json(pair_to_dict(...))``
   of its integrands), of the same CSV and integrands with every value
   distinct (no pool artifact is like them, but the render pays per distinct
   value; the two JSONs sit on either side of ``_fill``'s choice between one
   join per literal and pattern and one join per cell), and of a
   ``share-closed`` job's argmins CSV (binomial n = 10, two scaled
   ``Variance`` drivers) and of a ``share-numeric`` job's (7 rows, 3
   columns: ``NormCD`` against ``Variance`` on the jump lattice), 10
   renders per batch; and the ``dev-wide`` job's two texts rendered afresh
   and written with a small summary into the same paths, 10 per batch.
   Rewriting fixed texts faults no page however they are encoded; rendering
   each text afresh, as a job does, is what shows the faults that a bytes
   copy of a whole artifact brings.
3. **First renders**, each in a fresh subprocess per checkout (``FIRST_ROUNDS``
   rounds, the checkouts taking turns as above): the first call of the
   ``deviation.csv``, ``integrands.json`` and ``share_argmins.csv`` renders
   after the process set up its inputs, which builds the texts the renderer
   keeps per layout. A one-shot ``devlat`` run pays this cost, never the
   repeat render's.

Every line prints the median and the quartiles of the per-call times in ms,
and the median of the minor page faults per call (``ru_minflt``), which
the allocator's returning freed memory to the OS shows up as. Given two
checkouts, it also prints in how many batches the second one's
median beats the first one's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: rounds of the write protocol per gap and file size
PROTOCOL_ROUNDS = 60
SIZES = {"700KB": 700_000, "400B": 400}
#: the artifacts of one ``dev-wide`` job, by size in bytes
DEV_WIDE_SET = {"integrands.json": 700_000, "deviation.csv": 163_000, "summary.json": 300}
GAPS = {"10ms": 0.010, "0ms": 0.0}
#: calls per batch: loads of one payoff file, reruns of one artifact
LOADS = 10
REWRITES = 3
RENDERS = 10
#: fresh processes per checkout for each first render
FIRST_ROUNDS = 10
LEAVES_N = 10  # binomial n = 10: 1,024 leaves, the share-closed lattice
DEV_N = 12  # binomial n = 12: the dev-wide lattice
JUMP_N = 2  # two steps with two jump marks: the share-numeric lattice, 36 leaves


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _replace(path: str, data: bytes) -> None:
    os.unlink(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)


def _in_place(path: str, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_NOFOLLOW)
    try:
        _write_all(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _truncate(path: str, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)


STRATEGIES = {"replace": _replace, "in place": _in_place, "O_TRUNC": _truncate}


def _text(size: int) -> str:
    """An ASCII artifact text of ``size`` characters."""
    return ("0123456789," * (size // 11 + 1))[:size]


def summary(samples: list[float]) -> str:
    """Median and quartiles of ``samples`` (seconds) in ms."""
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"median {med * 1e3:8.3f} ms   q1 {q1 * 1e3:8.3f}   q3 {q3 * 1e3:8.3f}"


def write_protocol(tmp: Path) -> None:
    names = list(STRATEGIES)
    for gap_name, gap in GAPS.items():
        for size_name, size in SIZES.items():
            data = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
            paths = {}
            for k, name in enumerate(names):
                paths[name] = str(tmp / f"write{k}.bin")
                Path(paths[name]).write_bytes(data)
            times: dict = {name: [] for name in names}
            for r in range(PROTOCOL_ROUNDS):
                for name in names[r % len(names):] + names[:r % len(names)]:
                    t0 = time.perf_counter()
                    STRATEGIES[name](paths[name], data)
                    times[name].append(time.perf_counter() - t0)
                    time.sleep(gap)
            for name in names:
                print(f"write  gap {gap_name:>4}  {size_name:>5}  {name:<9} "
                      f"{summary(times[name])}")


class Worker:
    """One checkout's loader, writer and renderers, set up once; ``run(key)``
    times one batch of calls and returns the per-call seconds. With ``warm``,
    every call is made once at set-up."""

    def __init__(self, checkout: Path, tmp: Path, warm: bool = True):
        sys.path.insert(0, str(checkout / "src"))
        import numpy as np
        from devlat import JumpMeasure, NoiseModel, NormCD, RandomVariable, \
            RepresentingPair, Scaled, SharingProblem, TimeGrid, Variance, build_lattice, \
            evaluate, represent, solve_sharing, terminal_brownian
        from devlat.jsonio import canonical_json, load_payoff_csv, pair_to_dict, \
            process_csv, write_artifacts

        lat = build_lattice(TimeGrid.uniform(LEAVES_N, 1.0), NoiseModel.brownian(1))
        ups = np.array([bin(leaf).count("1") for leaf in range(2 ** LEAVES_N)])
        w = (2 * ups - LEAVES_N) / np.sqrt(LEAVES_N)  # the terminal state W_T per leaf
        payoffs = {"pool": 0.37 * w - 0.12 * w ** 2 + 0.8 * np.maximum(w - 0.1, 0),
                   "distinct": np.random.default_rng(11).normal(size=len(w))}
        order = np.random.default_rng(13).permutation(len(w)).tolist()
        blanks = set(range(0, len(w), len(w) // 4))  # a blank line before these rows
        # the share-numeric lattice: binomial steps with two jump marks, 36 leaves
        jump_lat = build_lattice(TimeGrid.uniform(JUMP_N, 1.0), NoiseModel(
            1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
        w_j = terminal_brownian(jump_lat).values
        n1, n2 = jump_lat.jump_counts(JUMP_N).T
        jump_payoffs = (0.62 * w_j - 0.35 * n1 + 0.81 * n2 - 0.27 * w_j ** 2,
                        -0.44 * w_j + 0.58 * n1 - 0.19 * n2 + 0.33 * w_j * n2)
        files = {"pool": (payoffs["pool"], range(len(w)), (), lat),
                 "distinct": (payoffs["distinct"], range(len(w)), (), lat),
                 "pool shuffled": (payoffs["pool"], order, (), lat),
                 "pool blank lines": (payoffs["pool"], range(len(w)), blanks, lat),
                 f"jump n={JUMP_N}": (jump_payoffs[0], range(len(w_j)), (), jump_lat)}
        self.calls = {}
        for name, (values, leaves, blank, on) in files.items():
            path = tmp / f"{name.replace(' ', '_')}.csv"
            cells = values.tolist()
            with open(path, "w", newline="") as fh:
                fh.write("leaf,value\r\n" + "".join(
                    "\r\n" * (leaf in blank) + f"{leaf},{cells[leaf]!r}\r\n"
                    for leaf in leaves))
            distinct = len(set(cells))
            self.calls[f"load {name} ({len(cells)} leaves, {distinct} distinct)"] = (
                lambda path=path, on=on: load_payoff_csv(path, on), LOADS, 0.0)
        for size_name, size in SIZES.items():
            artifact = [(tmp / f"artifact_{size_name}.csv", _text(size))]
            self.calls[f"write_artifacts {size_name} rerun"] = (
                lambda artifact=artifact: write_artifacts(artifact), REWRITES, GAPS["10ms"])
        dev_set = [(tmp / name, _text(size)) for name, size in DEV_WIDE_SET.items()]
        self.calls["write_artifacts dev-wide set rerun"] = (
            lambda: write_artifacts(dev_set), REWRITES, GAPS["10ms"])
        dev_lat = build_lattice(TimeGrid.uniform(DEV_N, 1.0), NoiseModel.brownian(1))
        w_dev = terminal_brownian(dev_lat).values
        pair = represent(dev_lat, RandomVariable(
            0.37 * w_dev - 0.12 * w_dev ** 2 + 0.8 * np.maximum(w_dev - 0.1, 0), DEV_N))
        dev = evaluate(dev_lat, Variance(1.3), pair)
        self.calls[f"render deviation.csv n={DEV_N}"] = (
            lambda: process_csv(dev.values), RENDERS, 0.0)
        self.calls[f"render integrands.json n={DEV_N}"] = (
            lambda: canonical_json(pair_to_dict(pair)), RENDERS, 0.0)
        rng = np.random.default_rng(12)
        distinct = [rng.normal(size=len(v)) for v in dev.values]
        self.calls[f"render distinct csv n={DEV_N}"] = (
            lambda: process_csv(distinct), RENDERS, 0.0)
        distinct_pair = RepresentingPair(
            pair.mean, tuple(rng.normal(size=h.shape) for h in pair.H), pair.Htilde,
            tuple(np.abs(rng.normal(size=r.shape)) for r in pair.residuals))
        self.calls[f"render distinct integrands.json n={DEV_N}"] = (
            lambda: canonical_json(pair_to_dict(distinct_pair)), RENDERS, 0.0)
        self.calls[f"render and write dev-wide n={DEV_N}"] = (
            lambda: write_artifacts([
                (tmp / "job_integrands.json", canonical_json(pair_to_dict(pair))),
                (tmp / "job_deviation.csv", process_csv(dev.values)),
                (tmp / "job_summary.json", canonical_json({"D0": dev.values[0][0]}))]),
            RENDERS, 0.0)
        sol = solve_sharing(lat, SharingProblem(
            x_a=RandomVariable(0.4 * w - 0.2 * w ** 2 + 0.6 * np.maximum(w, 0), LEAVES_N),
            x_b=RandomVariable(-0.3 * w + 0.2 * np.abs(w) + 0.1 * w ** 3, LEAVES_N),
            driver_a=Scaled(1.7, Variance(0.9)), driver_b=Scaled(0.8, Variance(1.4))))
        argmins = [np.hstack([h, ht]) for h, ht in zip(sol.argmin_H, sol.argmin_Ht)]
        self.calls[f"render share_argmins.csv n={LEAVES_N}"] = (
            lambda: process_csv(argmins, columns=("z1",)), RENDERS, 0.0)
        x_a, x_b = (RandomVariable(x, JUMP_N) for x in jump_payoffs)
        sol = solve_sharing(jump_lat, SharingProblem(x_a=x_a, x_b=x_b, driver_a=NormCD(0.9, 1.1),
                                                     driver_b=Variance(1.2)))
        jump_argmins = [np.hstack([h, ht]) for h, ht in zip(sol.argmin_H, sol.argmin_Ht)]
        self.calls[f"render share_argmins.csv jump n={JUMP_N}"] = (
            lambda: process_csv(jump_argmins, columns=("z1", "ztilde1", "ztilde2")),
            RENDERS, 0.0)
        for call, _, _ in self.calls.values() if warm else ():
            call()  # warm-up; each artifact now exists

    def time(self, key: str) -> list:
        """One call's seconds and minor page faults."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        self.calls[key][0]()
        seconds = time.perf_counter() - t0
        return [seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults]

    def run(self, key: str) -> list[list]:
        """Per call: its seconds and its minor page faults."""
        _, count, gap = self.calls[key]
        samples = []
        for _ in range(count):
            samples.append(self.time(key))
            time.sleep(gap)
        return samples


#: the renders timed as a fresh process's first call
FIRST_RENDERS = (f"render deviation.csv n={DEV_N}", f"render integrands.json n={DEV_N}",
                 f"render share_argmins.csv n={LEAVES_N}")


def serve(checkout: Path) -> None:
    """Answer each key read from stdin with one JSON line of per-call times;
    the first line out lists the keys."""
    with tempfile.TemporaryDirectory(prefix="bench_io_") as tmp:
        worker = Worker(checkout, Path(tmp))
        print(json.dumps(list(worker.calls)), flush=True)
        for line in sys.stdin:
            print(json.dumps(worker.run(line.strip())), flush=True)


def first(checkout: Path, key: str) -> None:
    """Print one JSON line: the seconds and faults of ``key``'s first call."""
    with tempfile.TemporaryDirectory(prefix="bench_io_") as tmp:
        print(json.dumps(Worker(checkout, Path(tmp), warm=False).time(key)))


def _report(label: str, checkouts: list, batches: list, keys, rounds: int) -> None:
    """Print each checkout's per-call summary of ``keys`` and, for two
    checkouts, in how many of ``rounds`` batches the second one's median
    beats the first one's."""
    for checkout, by_key in zip(checkouts, batches):
        print(f"\n{checkout}")
        for key in keys:
            samples = [s for batch in by_key[key] for s in batch]
            faults = statistics.median(f for _, f in samples)
            print(f"  {label}{key:<52} {summary([t for t, _ in samples])}   minflt {faults:6.1f}")
    if len(batches) == 2:
        print(f"\nbatches where {checkouts[1]} is faster than {checkouts[0]}")
        for key in keys:
            wins = sum(statistics.median(t for t, _ in b) > statistics.median(t for t, _ in a)
                       for b, a in zip(batches[0][key], batches[1][key]))
            print(f"  {label}{key:<52} {wins}/{rounds}")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--serve":
        serve(Path(argv[1]).resolve())
        return 0
    if len(argv) == 3 and argv[0] == "--first":
        first(Path(argv[1]).resolve(), argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--rounds", type=int, default=30,
                        help="batches per checkout and timing, alternating which runs first")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_io_") as tmp:
        write_protocol(Path(tmp))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    workers = [subprocess.Popen([sys.executable, __file__, "--serve", str(c.resolve())],
                                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True) for c in args.checkouts]
    try:
        keys = [json.loads(w.stdout.readline()) for w in workers][0]
        batches = [{key: [] for key in keys} for _ in workers]
        for r in range(args.rounds):
            for key in keys:
                for i in (range(len(workers)) if r % 2 == 0 else reversed(range(len(workers)))):
                    workers[i].stdin.write(key + "\n")
                    workers[i].stdin.flush()
                    batches[i][key].append(json.loads(workers[i].stdout.readline()))
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    _report("", args.checkouts, batches, keys, args.rounds)
    firsts = [{key: [] for key in FIRST_RENDERS} for _ in args.checkouts]
    for r in range(FIRST_ROUNDS):
        for key in FIRST_RENDERS:
            sides = range(len(args.checkouts))
            for i in (sides if r % 2 == 0 else reversed(sides)):
                proc = subprocess.run([sys.executable, __file__, "--first",
                                       str(args.checkouts[i].resolve()), key],
                                      env=env, capture_output=True, text=True, check=True)
                firsts[i][key].append([json.loads(proc.stdout)])
    _report("first ", args.checkouts, firsts, FIRST_RENDERS, FIRST_ROUNDS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
