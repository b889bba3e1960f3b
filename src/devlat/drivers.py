"""Driver functions: convex penalties on representation integrands.

A valid driver is nonnegative, vanishes exactly at the origin and is convex in
(h, htilde); it turns a payoff's integrands into a deviation process via
backward accumulation. Besides the quadratic and norm families this module
ships the jump-tail CVaR driver, scaling and inf-convolution combinators, a
user-supplied oracle wrapper, and a sampled validity checker that reports
witnesses instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import JumpMeasure, _check_finite, _check_positive, finite_number
from .optim import SolverConfig

__all__ = [
    "Variance",
    "NormCD",
    "CVaRJump",
    "Scaled",
    "InfConv",
    "Custom",
    "DriverSpec",
    "eval_driver",
    "subgradient",
    "var_nu",
    "cvar_nu",
    "check_driver",
    "probe_count",
    "CheckOutcome",
    "ValidityReport",
    "driver_to_dict",
    "driver_from_dict",
]


def _as_vec(v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError("expected a vector")
    return arr


def _row_times(t: float | np.ndarray, rows: int) -> list:
    """Each row's time: a scalar ``t`` holds for every row, a (rows,) array
    gives row i the time ``t[i]``."""
    return [t] * rows if np.ndim(t) == 0 else np.asarray(t, dtype=float).tolist()


def _jump_vec(htilde, nu: JumpMeasure) -> np.ndarray:
    """``htilde`` as a vector of one entry per mark: every one-point call's check."""
    ht = _as_vec(htilde)
    if ht.shape[0] != nu.m:
        raise ValueError(
            f"htilde has {ht.shape[0]} entries but the jump measure has {nu.m} marks"
        )
    return ht


# -- quantiles of jump integrands under the intensity measure ------------------


def _check_level_a(a: float, nu: JumpMeasure) -> None:
    if not 0.0 < a < nu.total_intensity:
        raise ValueError(
            f"level a={a} must lie strictly inside (0, {nu.total_intensity})"
        )


def _loss_groups(a: float, Ht, nu: JumpMeasure) -> list[tuple]:
    """Each row's jump losses ``-Ht`` from the largest down, one sorted
    column at a time, with equal losses merged into one atom as ``np.unique``
    merges them.

    Returns ``(end, loss, above, upper)`` per column, each of shape (rows,):
    ``end`` marks the rows whose atom closes at this column, ``loss`` is the
    atom's value, ``above`` and ``upper`` the intensity mass strictly above
    the atom and including it. Tied masses are summed in mark order and the
    tail masses atom by atom (the order of a ``bincount`` over ``np.unique``),
    so one-row and level-wide calls give the same bits.
    """
    Ht = np.asarray(Ht, dtype=float)
    if Ht.ndim != 2 or Ht.shape[1] != nu.m:
        raise ValueError(f"jump integrands must have shape (rows, {nu.m})")
    _check_level_a(a, nu)
    m, rows = nu.m, Ht.shape[0]
    # ascending htilde is descending loss; a stable sort keeps ties in mark order
    order = np.argsort(Ht, axis=1, kind="stable")
    loss = -Ht[np.arange(rows)[:, None], order]
    mass = nu.intensity_array[order]
    columns = []
    above, group = np.zeros(rows), mass[:, 0]
    for k in range(m):
        end = loss[:, k] != loss[:, k + 1] if k + 1 < m else np.ones(rows, dtype=bool)
        upper = above + group
        columns.append((end, loss[:, k], above, upper))
        if k + 1 < m:
            above = np.where(end, upper, above)
            group = np.where(end, mass[:, k + 1], group + mass[:, k + 1])
    return columns


def _var_rows(a: float, Ht, nu: JumpMeasure) -> np.ndarray:
    columns = _loss_groups(a, Ht, nu)
    q = columns[0][1]
    for end, loss, above, _ in columns:
        q = np.where(end & (above <= a), loss, q)
    return q


def _cvar_rows(a: float, Ht, nu: JumpMeasure) -> np.ndarray:
    columns = _loss_groups(a, Ht, nu)
    acc = np.zeros(len(columns[0][1]))
    for end, loss, above, upper in columns:
        width = np.minimum(upper, a) - above
        # atoms with no width inside the tail add nothing (acc is never -0.0)
        acc = acc + np.multiply(loss, width, out=np.zeros(len(acc)),
                                where=end & (width > 0))
    return acc / a


def var_nu(a: float, htilde, nu: JumpMeasure) -> float:
    """Left quantile of the loss -htilde under the intensity measure.

    Returns the smallest y whose strict upper tail mass
    nu({j : htilde_j < -y}) is at most ``a``.
    """
    return float(_var_rows(a, _jump_vec(htilde, nu)[None, :], nu)[0])


def cvar_nu(a: float, htilde, nu: JumpMeasure) -> float:
    """Tail average (1/a) * integral_0^a of the loss quantile, level by level.

    Computed exactly as a weighted sum over the quantile's step structure,
    not by numeric quadrature.
    """
    return float(_cvar_rows(a, _jump_vec(htilde, nu)[None, :], nu)[0])


# -- driver kinds ----------------------------------------------------------------
#
# Each built-in kind writes its formula once, as ``value_batch`` and
# ``subgradient_batch`` over rows ``(H, Ht)``; its ``value`` and
# ``subgradient`` are that formula on one row.


def _one_row_value(self, t, h, htilde, nu):
    """The kind's ``value_batch`` on the one row ``(h, htilde)``."""
    return float(self.value_batch(t, h[None, :], htilde[None, :], nu)[0])


def _one_row_subgradient(self, t, h, htilde, nu):
    """The kind's ``subgradient_batch`` on the one row ``(h, htilde)``."""
    return self.subgradient_batch(t, h[None, :], htilde[None, :], nu)[0]


@dataclass(frozen=True)
class Variance:
    """Quadratic driver alpha * (|h|^2 + sum_j htilde_j^2 nu_j)."""

    alpha: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    value, subgradient = _one_row_value, _one_row_subgradient

    def value_batch(self, t, H, Ht, nu):
        return self.alpha * (np.add.reduce(H * H, axis=1) + (Ht * Ht) @ nu.intensity_array)

    def subgradient_batch(self, t, H, Ht, nu):
        two_alpha = 2.0 * self.alpha
        return np.concatenate([two_alpha * H, two_alpha * nu.intensity_array * Ht], axis=1)


@dataclass(frozen=True)
class NormCD:
    """Positively homogeneous driver c*|h| + d*sqrt(sum_j htilde_j^2 nu_j)."""

    c: float
    d: float

    def __post_init__(self):
        _check_finite("c and d", (self.c, self.d))
        if self.c < 0 or self.d < 0 or (self.c == 0 and self.d == 0):
            raise ValueError("need c >= 0, d >= 0 and not both zero")

    value, subgradient = _one_row_value, _one_row_subgradient

    def value_batch(self, t, H, Ht, nu):
        return (self.c * np.sqrt(np.add.reduce(H * H, axis=1))
                + self.d * np.sqrt((Ht * Ht) @ nu.intensity_array))

    def subgradient_batch(self, t, H, Ht, nu):
        # at either kink the zero element of the subdifferential is returned
        hn = np.sqrt(np.add.reduce(H * H, axis=1))[:, None]
        wj = nu.intensity_array
        jn = np.sqrt((Ht * Ht) @ wj)[:, None]
        gh = np.divide(self.c * H, hn, out=np.zeros_like(H), where=hn > 0)
        gj = np.divide(self.d * wj * Ht, jn, out=np.zeros_like(Ht), where=jn > 0)
        return np.concatenate([gh, gj], axis=1)


@dataclass(frozen=True)
class CVaRJump:
    """Tail-average driver CVaR of the jump integrand losses at level a.

    Implemented exactly as displayed: it ignores h, can be negative, and thus
    fails the validity requirements off the origin; ``check_driver`` surfaces
    this instead of clamping.
    """

    a: float

    def __post_init__(self):
        _check_positive("a", self.a)

    value, subgradient = _one_row_value, _one_row_subgradient

    def value_batch(self, t, H, Ht, nu):
        return _cvar_rows(self.a, Ht, nu)

    def subgradient_batch(self, t, H, Ht, nu):
        # tail-indicator weights: full mass strictly beyond the quantile, the
        # remaining level mass spread over the boundary atoms
        masses = nu.intensity_array
        W = -Ht
        q = _var_rows(self.a, Ht, nu)[:, None]
        tail = np.where([W > q, W == q], masses, 0.0)  # strict, boundary
        # each row's masses summed in mark order by one running sum, the
        # order of the reference formula's sum over the selected marks
        above, bmass = np.cumsum(tail, axis=2)[:, :, -1]
        lam = np.divide(self.a - above, bmass, out=np.zeros(len(W)), where=bmass > 0)
        weights = tail[0] + tail[1] * lam[:, None]
        return np.concatenate([np.zeros_like(H), -weights / self.a], axis=1)


@dataclass(frozen=True)
class Scaled:
    """Risk-tolerance scaling gamma * base((h, htilde) / gamma)."""

    gamma: float
    base: "DriverSpec"

    def __post_init__(self):
        _check_positive("gamma", self.gamma)

    value, subgradient = _one_row_value, _one_row_subgradient

    def value_batch(self, t, H, Ht, nu):
        return self.gamma * self.base.value_batch(t, H / self.gamma, Ht / self.gamma, nu)

    def subgradient_batch(self, t, H, Ht, nu):
        # chain rule: the outer factor cancels the inner 1/gamma
        return self.base.subgradient_batch(t, H / self.gamma, Ht / self.gamma, nu)


@dataclass(frozen=True)
class InfConv:
    """Pointwise inf-convolution of two drivers: the optimal-split penalty,
    the pair's objective at ``infconv_split``'s split of each row. A split
    that pools this node into an enclosing pair uses the outermost call's
    ``SolverConfig``; ``solver`` serves when this node is the pair."""

    a: "DriverSpec"
    b: "DriverSpec"
    solver: SolverConfig = SolverConfig()

    value, subgradient = _one_row_value, _one_row_subgradient

    def value_batch(self, t, H, Ht, nu):
        from .sharing import _split_objective, infconv_split

        Z, Zt = infconv_split(self.a, self.b, t, H, Ht, nu, self.solver)
        return _split_objective(self.a, self.b, t, H, Ht, Z, Zt, nu)

    def subgradient_batch(self, t, H, Ht, nu):
        # at an optimal split the two subdifferentials intersect; a selection
        # sitting at a kink returns the zero element there, so on every
        # coordinate the larger-magnitude entry of the two selections is the
        # one coming from the smooth side of the split
        from .sharing import infconv_split

        Z, Zt = infconv_split(self.a, self.b, t, H, Ht, nu, self.solver)
        sa = self.a.subgradient_batch(t, H - Z, Ht - Zt, nu)
        sb = self.b.subgradient_batch(t, Z, Zt, nu)
        return np.where(np.abs(sa) >= np.abs(sb), sa, sb)


@dataclass(frozen=True)
class Custom:
    """User-supplied oracles; equality/hash by oracle identity. The batch
    methods call the oracles row by row, at ``t`` or, for a (rows,) array
    ``t``, at row i's time ``t[i]``."""

    value_fn: Callable
    subgradient_fn: Callable | None = None
    name: str = "custom"

    def value(self, t, h, htilde, nu):
        return float(self.value_fn(t, h, htilde, nu))

    def value_batch(self, t, H, Ht, nu):
        times = _row_times(t, len(H))
        return np.array([self.value(times[i], H[i], Ht[i], nu) for i in range(len(H))])

    def subgradient(self, t, h, htilde, nu):
        if self.subgradient_fn is None:
            raise ValueError(f"driver {self.name!r} has no subgradient oracle")
        return np.asarray(self.subgradient_fn(t, h, htilde, nu), dtype=float)

    def subgradient_batch(self, t, H, Ht, nu):
        times = _row_times(t, len(H))
        rows = [self.subgradient(times[i], H[i], Ht[i], nu) for i in range(len(H))]
        return np.array(rows, dtype=float).reshape(len(H), H.shape[1] + Ht.shape[1])


DriverSpec = Variance | NormCD | CVaRJump | Scaled | InfConv | Custom


def eval_driver(spec: DriverSpec, t: float, h, htilde, nu: JumpMeasure) -> float:
    """Evaluate a driver at integrands (h, htilde) under the jump measure."""
    hv, ht = _as_vec(h), _jump_vec(htilde, nu)
    return float(spec.value(t, hv, ht, nu))


def subgradient(spec: DriverSpec, t: float, h, htilde, nu: JumpMeasure) -> np.ndarray:
    """An element of the driver's subdifferential at (h, htilde), length d+m."""
    hv, ht = _as_vec(h), _jump_vec(htilde, nu)
    return np.asarray(spec.subgradient(t, hv, ht, nu), dtype=float)


# -- sampled validity checking ---------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    """One sampled check's verdict. ``witness`` holds the first violation
    found; a ``vacuous`` pass had nothing to test."""

    passed: bool
    witness: dict | tuple | None = None
    vacuous: bool = False
    detail: str = ""


def _all_passed(report) -> bool:
    """Whether every ``CheckOutcome`` field of a report passed; a vacuous pass
    is a pass. The ``all_passed`` of every report."""
    return all(v.passed for v in vars(report).values() if isinstance(v, CheckOutcome))


def _first_violation(violated, witness, detail: str = "") -> tuple[CheckOutcome, int | None]:
    """The verdict of sampled tests flagged ``violated`` in draw order, and the
    first failing index k (None on a pass): a pass, or a failure whose witness
    is ``witness(k)``. Every first-violation verdict of both reports."""
    if not np.any(violated):
        return CheckOutcome(True), None
    k = int(np.argmax(violated))
    return CheckOutcome(False, witness(k), detail=detail), k


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the sampled driver-validity tests, with reproducible witnesses."""

    nonnegativity: CheckOutcome
    zero_at_zero: CheckOutcome
    zero_only_at_zero: CheckOutcome
    convexity: CheckOutcome
    subgradient_consistency: CheckOutcome
    samples_used: int

    all_passed = _all_passed


def probe_count(nu: JumpMeasure, d: int, samples: int) -> int:
    """The cells, rows x ``d + m`` columns, of ``check_driver``'s probe block
    of ``samples`` draws (``_probe_points``); refuses no draws, a negative
    ``d`` and a block of the origin alone."""
    if samples < 1:
        raise ValueError(f"'samples' must be >= 1, got {samples}")
    if d < 0:
        raise ValueError(f"'d' must be >= 0, got {d}")
    if d == 0 and nu.m == 0:
        raise ValueError("'d' = 0 on a lattice without jumps probes only the origin")
    marks = len(nu.marks[0]) if nu.m else 0
    return (2 * d + 2 * nu.m + marks + samples) * (d + nu.m)


def _probe_points(nu: JumpMeasure, d: int, sample_count: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The ``probe_count`` block as rows of ``(H (N, d), Ht (N, m))``: each
    Brownian and jump axis both ways, each mark coordinate across the marks,
    then ``sample_count`` draws of N(0, 2^2) per coordinate (h before htilde,
    as one draw per point would take them)."""
    probe_count(nu, d, sample_count)
    m = nu.m

    def axes(k):
        out = np.empty((2 * k, k))
        out[0::2], out[1::2] = np.eye(k), -np.eye(k)
        return out

    marks = np.asarray(nu.marks, dtype=float).T if m else np.empty((0, 0))
    draws = rng.normal(scale=2.0, size=(sample_count, d + m))
    H = np.concatenate([axes(d), np.zeros((2 * m + len(marks), d)), draws[:, :d]])
    Ht = np.concatenate([np.zeros((2 * d, m)), axes(m), marks, draws[:, d:]])
    return H, Ht


def _subgradient_prefix(spec: DriverSpec, t: float, H: np.ndarray, Ht: np.ndarray,
                        nu: JumpMeasure) -> tuple[np.ndarray, ValueError | None]:
    """Subgradient rows of the longest leading run of rows whose oracle calls
    succeed, and the ``ValueError`` of the first row that fails (None if
    none). After a failing batch the rows are tried one at a time, in order,
    up to the first that raises, as a row-at-a-time loop meets it; the run
    before it is then taken in one batch call."""
    try:
        return spec.subgradient_batch(t, H, Ht, nu), None
    except ValueError as exc:
        error = exc
    for k in range(len(H)):
        try:
            spec.subgradient_batch(t, H[k:k + 1], Ht[k:k + 1], nu)
        except ValueError as exc:
            error = exc
            break
    return spec.subgradient_batch(t, H[:k], Ht[:k], nu), error


def check_driver(spec: DriverSpec, nu: JumpMeasure, sample_count: int = 200,
                 seed: int = 0, d: int = 1) -> ValidityReport:
    """Sampled validity tests: sign, origin normalisation, convexity and
    subgradient inequality. Failures are reported with witnesses, not raised.

    ``d`` fixes the Brownian-integrand dimension probed; deterministic probes
    (axes and the jump marks themselves) are included before random sampling,
    in the block that ``probe_count`` counts and refuses.
    Every probe point and every midpoint is evaluated through
    ``value_batch``, and every sampled pair's subgradient through one
    ``subgradient_batch`` call. Random draws, verdicts and witness points are
    those of testing one point or pair at a time and stopping at the first
    violation; the subgradient witness's gap is that pair's scalar formula.
    """
    rng = np.random.default_rng(seed)
    t = 0.0
    H, Ht = _probe_points(nu, d, sample_count, rng)
    count = len(H)

    def point(k):
        return (H[k].copy(), Ht[k].copy())

    zero = (np.zeros(d), np.zeros(nu.m))
    v0 = eval_driver(spec, t, zero[0], zero[1], nu)
    zero_at_zero = CheckOutcome(v0 == 0.0, None if v0 == 0.0 else (zero, v0))

    vals = np.asarray(spec.value_batch(t, H, Ht, nu), dtype=float)

    def valued(k):
        return (point(k), float(vals[k]))

    nonneg, _ = _first_violation(vals < 0, valued, "negative value off the origin")
    norms = np.linalg.norm(np.hstack([H, Ht]), axis=1)
    zero_only, _ = _first_violation((norms >= 1e-6) & (vals <= 1e-15), valued,
                                    "vanishes away from the origin")

    # one (S, 2) draw gives the numbers of S draws of size 2, in order
    state = rng.bit_generator.state
    x, y = rng.integers(0, count, size=(sample_count, 2)).T
    lhs = np.asarray(spec.value_batch(t, (H[x] + H[y]) / 2.0, (Ht[x] + Ht[y]) / 2.0, nu),
                     dtype=float)
    rhs = 0.5 * (vals[x] + vals[y])
    convexity, k = _first_violation(
        lhs > rhs + 1e-10 * np.maximum(1.0, np.abs(rhs)),
        lambda k: (point(x[k]), point(y[k]), float(lhs[k]), float(rhs[k])),
        "midpoint rule violated")
    if k is not None:
        # replay the draws up to the violation, where one-pair-at-a-time stops
        rng.bit_generator.state = state
        rng.integers(0, count, size=(k + 1, 2))

    i, j = rng.integers(0, count, size=(sample_count, 2)).T
    G, error = _subgradient_prefix(spec, t, H[i], Ht[i], nu)
    i, j = i[:len(G)], j[:len(G)]
    steps = np.hstack([H[j] - H[i], Ht[j] - Ht[i]])
    gaps = vals[j] - vals[i] - np.einsum("ij,ij->i", G, steps)
    subgrad, k = _first_violation(
        gaps < -1e-8,
        lambda k: (point(i[k]), point(j[k]),
                   float(vals[j[k]]) - float(vals[i[k]]) - float(G[k] @ steps[k])),
        "subgradient inequality violated")
    if k is None and error is not None:
        subgrad = CheckOutcome(True, vacuous=True, detail=f"skipped: {error}")

    return ValidityReport(
        nonnegativity=nonneg,
        zero_at_zero=zero_at_zero,
        zero_only_at_zero=zero_only,
        convexity=convexity,
        subgradient_consistency=subgrad,
        samples_used=count,
    )


# -- JSON mapping ------------------------------------------------------------------


#: each leaf kind's class and number fields by JSON name; nesting kinds map by hand
_LEAF_KINDS = {"variance": (Variance, ("alpha",)), "norm_cd": (NormCD, ("c", "d")),
               "cvar_jump": (CVaRJump, ("a",))}


def driver_to_dict(spec: DriverSpec) -> dict:
    for kind, (cls, fields) in _LEAF_KINDS.items():
        if isinstance(spec, cls):
            return {"kind": kind, **{key: getattr(spec, key) for key in fields}}
    if isinstance(spec, Scaled):
        return {"kind": "scaled", "gamma": spec.gamma, "base": driver_to_dict(spec.base)}
    if isinstance(spec, InfConv):
        return {"kind": "infconv", "a": driver_to_dict(spec.a), "b": driver_to_dict(spec.b)}
    raise ValueError(f"driver kind {type(spec).__name__!r} has no JSON form")


def driver_from_dict(obj: dict, solver: SolverConfig | None = None) -> DriverSpec:
    """The driver of a JSON spec; a malformed spec raises ``ValueError``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("driver spec must be an object with a 'kind' field")
    kind = obj["kind"]

    def number(key):
        value = obj.get(key)
        if not finite_number(value):
            raise ValueError(f"{kind} driver: {key!r} must be a finite number")
        return float(value)

    if isinstance(kind, str) and kind in _LEAF_KINDS:
        cls, fields = _LEAF_KINDS[kind]
        return cls(*map(number, fields))
    if kind == "scaled":
        return Scaled(number("gamma"), driver_from_dict(obj.get("base"), solver))
    if kind == "infconv":
        return InfConv(
            driver_from_dict(obj.get("a"), solver),
            driver_from_dict(obj.get("b"), solver),
            solver or SolverConfig(),
        )
    raise ValueError(f"unknown driver kind {kind!r}")
