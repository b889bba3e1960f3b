"""Finite filtered event lattices driven by Bernoulli sign noise and sparse jumps.

A lattice is a non-recombining event tree over a strictly increasing time grid.
Each step branches over the joint draw of a sign vector (one +/-1 per Brownian
component, realising increments of +/- sqrt(dt)) and a jump label (0 = no jump,
j >= 1 = one jump of mark j with probability intensity_j * dt). Trees are
immutable after construction and all queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

__all__ = [
    "TimeGrid",
    "JumpMeasure",
    "NoiseModel",
    "Lattice",
    "LatticeBuildError",
    "RandomVariable",
    "AdaptedProcess",
    "Distribution",
    "build_lattice",
    "finite_number",
    "martingale",
    "law",
    "law_distance",
    "permute_paths",
    "terminal_brownian",
]

#: child probabilities of every node must sum to one within this tolerance
PROB_SUM_TOL = 1e-12

#: per-step jump mass cap; keeps the no-jump probability at or above one half
MAX_JUMP_MASS_PER_STEP = 0.5

DEFAULT_MAX_NODES = 1_000_000


def _check_finite(what: str, values) -> None:
    """Refuse NaN and infinities, which would pass the range checks after it."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")


def finite_number(v) -> bool:
    """Whether ``v`` is an int or float, not a bool, that converts to a finite
    float: the one rule for a number read from JSON."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _check_positive(what: str, *values: float) -> None:
    """Refuse numbers that are not all positive and finite, NaN included."""
    if not all(0 < v < math.inf for v in values):
        _check_finite(what, values)
        raise ValueError(f"{what} must be positive")


class LatticeBuildError(ValueError):
    """A lattice request violates a build-time budget or probability bound."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_n."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise ValueError("time grid needs at least one step")
        _check_finite("time grid times", times)
        if times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ValueError("time grid must be strictly increasing")

    @classmethod
    def uniform(cls, n_steps: int, horizon: float) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        _check_positive("horizon", horizon)
        return cls(tuple(horizon * i / n_steps for i in range(n_steps + 1)))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))


@dataclass(frozen=True)
class JumpMeasure:
    """Finite jump-mark measure: distinct nonzero marks with positive intensities."""

    marks: tuple[tuple[float, ...], ...]
    intensities: tuple[float, ...]

    def __post_init__(self):
        marks = tuple(
            (float(x),) if np.isscalar(x) else tuple(float(c) for c in x)
            for x in self.marks
        )
        intens = tuple(float(v) for v in self.intensities)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "intensities", intens)
        if len(marks) != len(intens):
            raise ValueError("marks and intensities must have equal length")
        _check_positive("intensities", *intens)
        _check_finite("marks", [c for x in marks for c in x])
        dims = {len(x) for x in marks}
        if len(dims) > 1:
            raise ValueError("marks must share one dimension")
        if any(all(c == 0.0 for c in x) for x in marks):
            raise ValueError("marks must be nonzero")
        if len(set(marks)) != len(marks):
            raise ValueError("marks must be pairwise distinct")
        array = np.array(intens, dtype=float)  # not a field: equality and hash keep to the tuples
        array.flags.writeable = False
        object.__setattr__(self, "_intensity_array", array)

    @classmethod
    def empty(cls) -> "JumpMeasure":
        return cls((), ())

    @property
    def m(self) -> int:
        return len(self.marks)

    @property
    def total_intensity(self) -> float:
        return float(sum(self.intensities))

    @property
    def intensity_array(self) -> np.ndarray:
        return self._intensity_array


@dataclass(frozen=True)
class NoiseModel:
    """Brownian dimension plus a finite jump measure; at least one noise source."""

    d: int
    jumps: JumpMeasure

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.d + self.jumps.m < 1:
            raise ValueError("need at least one noise source (d + m >= 1)")

    @classmethod
    def brownian(cls, d: int = 1) -> "NoiseModel":
        return cls(d, JumpMeasure.empty())

    @property
    def branching(self) -> int:
        """Outcomes per step: ``2^d`` sign vectors times ``m + 1`` jump labels."""
        return (2 ** self.d) * (self.jumps.m + 1)

    def check_budget(self, n_steps: int, max_nodes: int) -> None:
        """Refuse ``n_steps`` steps whose ``branching ** n_steps`` leaves
        exceed ``max_nodes``, without forming that power for a large
        ``n_steps``, nor ``2 ** d`` for a large Brownian dimension ``d``."""
        # 2 ** cap > max_nodes, and every step has at least 2 ** d outcomes
        cap = int(max_nodes).bit_length()
        if self.d > cap:
            raise LatticeBuildError(
                f"Brownian dimension d={self.d} gives at least 2^{self.d} "
                f"leaves, over the max_nodes budget {max_nodes}"
            )
        b = self.branching
        # b >= 2, so b ** cap > max_nodes already
        if b ** min(n_steps, cap) > max_nodes:
            raise LatticeBuildError(
                f"lattice would have {b}^{n_steps} leaves, over the "
                f"max_nodes budget {max_nodes}"
            )


class Lattice:
    """Non-recombining event tree with homogeneous per-level branching.

    Level ``i`` holds ``branching ** i`` nodes indexed ``0 .. branching**i - 1``;
    the child of node ``v`` under outcome ``o`` is ``v * branching + o`` at
    level ``i + 1``. Outcome tables (Brownian increments, jump label and
    probability per outcome) are shared by all nodes of a level, so the tree is
    stored implicitly and queries vectorise over whole levels. Other modules
    reach the layout only through the level operators (``children``,
    ``spread``, ``expect``, ``extend``); these act on the last axis and keep
    payoffs laid side by side, payoff k's node v at ``k * nodes + v``, apart.
    """

    def __init__(self, grid: TimeGrid, noise: NoiseModel,
                 max_nodes: int = DEFAULT_MAX_NODES):
        self.grid = grid
        self.noise = noise
        d, m = noise.d, noise.jumps.m
        steps = grid.steps

        max_dt = max(steps)
        jump_mass = noise.jumps.total_intensity * max_dt
        if m > 0 and jump_mass > MAX_JUMP_MASS_PER_STEP + 1e-15:
            raise LatticeBuildError(
                f"per-step jump mass {jump_mass:.6g} exceeds the "
                f"{MAX_JUMP_MASS_PER_STEP} bound; shrink the steps or intensities"
            )
        noise.check_budget(grid.n_steps, max_nodes)
        self.max_nodes = max_nodes  # the node budget, which also bounds the CLI's probes

        self.branching = branching = noise.branching
        # outcome o = sign_index * (m + 1) + jump_label
        sign_index, labels = np.divmod(np.arange(branching, dtype=np.int64), m + 1)
        signs = np.where((sign_index[:, None] >> np.arange(d)) & 1, 1.0, -1.0)
        self.outcome_labels = labels

        nu = noise.jumps.intensity_array
        self._onehot = np.eye(m + 1)[labels][:, 1:]
        labels.flags.writeable = self._onehot.flags.writeable = False
        jump_proj = (self._onehot - (labels == 0)[:, None]) / 2 ** d
        # one read-only set of step tables per distinct step length
        tables: dict[float, tuple] = {}
        for dt in steps:
            if dt in tables:
                continue
            dw = signs * math.sqrt(dt)
            pj = np.concatenate(([1.0 - float(nu.sum()) * dt], nu * dt))
            probs = np.tile(pj, 2 ** d) / (2 ** d)
            if not np.all(probs > 0.0):
                raise LatticeBuildError("nonpositive outcome probability")
            if not abs(probs.sum() - 1.0) <= PROB_SUM_TOL:
                raise LatticeBuildError("outcome probabilities do not sum to 1")
            phi = np.hstack([dw, self._onehot - nu * dt])
            basis = (phi, np.hstack([probs[:, None] * dw / dt, jump_proj]))
            for a in (dw, probs, *basis):
                a.flags.writeable = False
            tables[dt] = (dw, probs, basis)
        self._dt = steps
        self._dw = [tables[dt][0] for dt in steps]
        self._probs = [tables[dt][1] for dt in steps]
        self._basis = [tables[dt][2] for dt in steps]
        #: (path functional, level) -> its read-only per-node table
        self._leaf_tables: dict[tuple[str, int], np.ndarray] = {}
        self._rows: tuple | None = None  # ``_level_rows``, once formed

    # -- structure -----------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def times(self) -> tuple[float, ...]:
        return self.grid.times

    def num_nodes(self, level: int) -> int:
        self._check_level(level)
        return self.branching ** level

    def step_dw(self, level: int) -> np.ndarray:
        """Brownian increment per outcome at the given step, shape (b, d)."""
        return self._dw[level]

    def step_probs(self, level: int) -> np.ndarray:
        return self._probs[level]

    def step_dt(self, level: int) -> float:
        return self._dt[level]

    def step_basis(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The step's noise basis ``phi`` (b, d+m) and its least-squares
        projector ``P = diag(p) phi G^-1``, ``G = phi.T diag(p) phi``.

        ``phi`` is ``[dW^1..dW^d | Ntilde_1..Ntilde_m]`` per outcome, with
        ``Ntilde_j(o) = 1{jump label of o == j} - intensity_j * dt``; every
        column has zero mean under the outcome probabilities. Signs and labels
        are independent, so ``G = dt I_d (+) (diag(q) - q q^T)``, ``q =
        intensity * dt``, and Sherman-Morrison gives ``P = [p dW / dt |
        2^-d (1{label == j} - 1{label == 0})]``, finite as every ``p > 0``.
        Built once per step length at construction; the arrays are read-only.
        """
        return self._basis[level]

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.n_steps:
            raise ValueError(f"level {level} outside 0..{self.n_steps}")

    def children(self, values: np.ndarray, span: int = 1) -> np.ndarray:
        """The values ``span`` levels below their ancestors, one row per ancestor."""
        return values.reshape(-1, self.branching ** span)

    def spread(self, values: np.ndarray, span: int = 1) -> np.ndarray:
        """Each value repeated for its descendants ``span`` levels below."""
        return np.repeat(values, self.branching ** span, axis=-1)

    def expect(self, level: int, values: np.ndarray) -> np.ndarray:
        """E[values | F_level] of values measurable at ``level + 1``."""
        return self.children(values) @ self._probs[level]

    def extend(self, parents: np.ndarray, outcomes: np.ndarray, op=np.add) -> np.ndarray:
        """Values one level forward: ``op(parent, outcome)`` per child, where
        ``outcomes`` broadcasts to (parents, branching, ...)."""
        # the explicit row count keeps zero-width rows (d = 0) reshapeable
        return op(parents[:, None], outcomes).reshape(
            len(parents) * self.branching, *parents.shape[1:])

    # -- path functionals ----------------------------------------------------

    def node_probabilities(self, level: int) -> np.ndarray:
        return self._leaf_table("probabilities", level, lambda i: self._probs[i],
                                np.multiply, 1.0)

    def _path_sum(self, level: int, rows, op=np.add, start: float = 0.0) -> np.ndarray:
        """Per node of ``level``, the forward fold ``op`` from ``start`` along
        its path of the per-step outcome rows ``rows(i)``, shape (branching, ...)."""
        self._check_level(level)
        total = np.full((1, *rows(0).shape[1:]), start)
        for i in range(level):
            total = self.extend(total, rows(i), op)
        return total

    def _leaf_table(self, name: str, level: int, *fold) -> np.ndarray:
        """``_path_sum(level, *fold)``, formed on the first request for
        ``(name, level)`` and then kept on the lattice, read-only."""
        table = self._leaf_tables.get((name, level))
        if table is None:
            table = self._path_sum(level, *fold)
            table.flags.writeable = False
            self._leaf_tables[name, level] = table
        return table

    def _level_rows(self) -> tuple:
        """The nodes of levels ``0..n-1`` stacked as the rows of one array in
        level order, as the share solve lays them out: ``(times, bounds,
        zeros)``, each row's time, each level's ``(lo, hi)`` rows and each
        level's zero per node. Formed on the first request and then kept on
        the lattice, read-only."""
        if self._rows is None:
            sizes = [self.branching ** i for i in range(self.n_steps)]
            times, zeros = np.repeat(self.times[:-1], sizes), np.zeros(sizes[-1])
            times.flags.writeable = zeros.flags.writeable = False
            self._rows = (times, tuple(pairwise(accumulate(sizes, initial=0))),
                          tuple(zeros[:k] for k in sizes))
        return self._rows

    def brownian_states(self, level: int) -> np.ndarray:
        """Accumulated Brownian state per node, shape (nodes, d)."""
        return self._leaf_table("brownian", level, lambda i: self._dw[i])

    def jump_counts(self, level: int) -> np.ndarray:
        """Number of jumps per mark along the path, shape (nodes, m)."""
        return self._leaf_table("jumps", level, lambda i: self._onehot)

    def compensated_counts(self, level: int) -> np.ndarray:
        """Compensated jump counts per mark along the path, shape (nodes, m):
        the sums of the step basis's jump columns ``Ntilde_j``."""
        return self._leaf_table("compensated", level,
                                lambda i: self._basis[i][0][:, self.noise.d:])


#: the latest ``build_lattice`` call: (its arguments' key, its lattice)
_latest: tuple | None = None


def _build_key(grid: TimeGrid, noise: NoiseModel, max_nodes: int) -> tuple:
    """The arguments of a build to the bit: ``float.hex`` tells ``-0.0`` from
    ``0.0``, which equal floats (and so equal dataclasses) do not."""
    jumps = noise.jumps
    return (tuple(map(float.hex, grid.times)), noise.d,
            tuple(tuple(map(float.hex, x)) for x in jumps.marks),
            tuple(map(float.hex, jumps.intensities)), max_nodes)


def build_lattice(grid: TimeGrid, noise: NoiseModel,
                  max_nodes: int = DEFAULT_MAX_NODES) -> Lattice:
    """Build the event tree for a grid and noise model, within a node budget.

    A call with the bit-identical arguments of the previous one returns that
    call's lattice, leaf tables included; the module keeps that one only."""
    global _latest
    key = _build_key(grid, noise, max_nodes)
    if _latest is None or _latest[0] != key:
        _latest = (key, Lattice(grid, noise, max_nodes=max_nodes))
    return _latest[1]


# -- random variables and adapted processes ----------------------------------


@dataclass(frozen=True)
class RandomVariable:
    """A variable measurable at ``level``: one value per node of that level."""

    values: np.ndarray
    level: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        _check_finite("values", vals)
        object.__setattr__(self, "values", vals)

    def _binop(self, other, op):
        if isinstance(other, RandomVariable):
            if other.level != self.level:
                raise ValueError("level mismatch in random-variable arithmetic")
            return RandomVariable(op(self.values, other.values), self.level)
        return RandomVariable(op(self.values, float(other)), self.level)

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return RandomVariable(float(other) - self.values, self.level)

    def __mul__(self, scalar):
        return RandomVariable(self.values * float(scalar), self.level)

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(-self.values, self.level)


@dataclass(frozen=True)
class AdaptedProcess:
    """One value per node at every level 0..n.

    ``measurable_level``, when set, records the smallest level at which the
    underlying variable is measurable (values at later levels are subtree
    constants broadcast from it).
    """

    values: tuple[np.ndarray, ...]
    measurable_level: int | None = None

    def at(self, level: int) -> np.ndarray:
        return self.values[level]

    @property
    def d0(self) -> float:
        """The value at the root."""
        return float(self.values[0][0])

    def as_random_variable(self) -> RandomVariable:
        if self.measurable_level is None:
            raise ValueError("process has no recorded measurability level")
        lvl = self.measurable_level
        return RandomVariable(self.values[lvl], lvl)


def _check_rv(lat: Lattice, x: RandomVariable) -> None:
    if x.values.shape[0] != lat.num_nodes(x.level):
        raise ValueError(
            f"payoff has {x.values.shape[0]} values but level {x.level} "
            f"holds {lat.num_nodes(x.level)} nodes"
        )


def martingale(lat: Lattice, x: RandomVariable) -> AdaptedProcess:
    """The process E[x | F_i] for all levels; broadcast above x's own level."""
    _check_rv(lat, x)
    return AdaptedProcess(_martingale_levels(lat, x.values, x.level),
                          measurable_level=x.level)


def _martingale_levels(lat: Lattice, values: np.ndarray, level: int, lo: int = 0) -> tuple:
    """Per-level arrays of E[x | F_i] for values measurable at ``level``, on
    levels ``lo..n``; the levels below both ``lo`` and ``level`` are None.

    ``values`` may also hold K payoffs side by side; level 0 then holds K means.
    """
    vals: list[np.ndarray | None] = [None] * (lat.n_steps + 1)
    vals[level] = values
    for i in range(level, lat.n_steps):
        vals[i + 1] = lat.spread(vals[i])
    for i in range(level - 1, lo - 1, -1):
        vals[i] = lat.expect(i, vals[i + 1])
    return tuple(vals)


# -- laws ----------------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Sorted atoms (value, probability) of a lattice payoff's law."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "probs", p)
        if a.shape != p.shape or a.ndim != 1:
            raise ValueError("atoms/probs must be matching vectors")
        _check_finite("atoms", a)
        _check_positive("atom probabilities", *p)
        if not abs(p.sum() - 1.0) <= PROB_SUM_TOL:
            raise ValueError("atom probabilities must sum to 1")
        if not np.all(np.diff(a) > 0):
            raise ValueError("atoms must be strictly increasing")


def law(lat: Lattice, x: RandomVariable, merge_tol: float | None = None) -> Distribution:
    """Distribution of a payoff: sorted atoms with near-equal values merged.

    ``merge_tol`` defaults to 1e-9 times the value range; merged atoms take the
    probability-weighted mean of their group.
    """
    _check_rv(lat, x)
    if merge_tol is not None and not merge_tol >= 0:
        raise ValueError("merge_tol must be >= 0")
    p = lat.node_probabilities(x.level)
    order = np.argsort(x.values, kind="stable")
    v, w = x.values[order], p[order]
    if merge_tol is None:
        merge_tol = 1e-9 * float(v[-1] - v[0])
    # an atom closes wherever the next sorted value is more than merge_tol away
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(v) > merge_tol) + 1, [len(v)]))
    atoms, probs = [], []
    for i, j in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        mass = float(w[i:j].sum())
        atoms.append(float(np.dot(v[i:j], w[i:j]) / mass))
        probs.append(mass)
    return Distribution(np.array(atoms), np.array(probs))


def law_distance(a: Distribution, b: Distribution) -> float:
    """Atom-wise distance between two laws; inf when the atom counts differ.

    Distance is the max over matched atoms of |value gap| and |probability gap|,
    suitable for deciding near-equality of merged lattice laws.
    """
    if len(a.atoms) != len(b.atoms):
        return math.inf
    return float(
        max(np.max(np.abs(a.atoms - b.atoms)), np.max(np.abs(a.probs - b.probs)))
    )


def permute_paths(lat: Lattice, x: RandomVariable, rng: np.random.Generator) -> RandomVariable:
    """Compose a terminal payoff with a random probability-preserving tree map.

    At every node, outcomes are permuted only within groups of equal edge
    probability, so the result has the same law as ``x`` by construction.
    Each level draws one ``rng.random((nodes, branching))`` block of sort keys.
    """
    _check_rv(lat, x)
    if x.level != lat.n_steps:
        raise ValueError("permute_paths expects a terminal payoff")
    b = lat.branching
    sigma = np.zeros(1, dtype=np.int64)
    for i in range(lat.n_steps):
        # outcome slots sorted by group; each node fills them with its own
        # outcomes sorted by (group, random key), so every outcome lands on a
        # slot of its own probability group
        group = np.unique(lat.step_probs(i), return_inverse=True)[1]
        slots = np.argsort(group, kind="stable")
        keys = rng.random((len(sigma), b))
        pi = np.empty((len(sigma), b), dtype=np.int64)
        pi[:, slots] = np.lexsort((keys, np.broadcast_to(group, keys.shape)), axis=-1)
        sigma = (sigma[:, None] * b + pi).ravel()
    return RandomVariable(x.values[sigma], x.level)


# -- payoff helpers ------------------------------------------------------------


def terminal_brownian(lat: Lattice, component: int = 0) -> RandomVariable:
    """The terminal Brownian state of one component as a payoff."""
    if not 0 <= component < lat.noise.d:
        raise ValueError("component outside Brownian dimension")
    return RandomVariable(lat.brownian_states(lat.n_steps)[:, component], lat.n_steps)

