import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devlat
from devlat import (
    AdaptedProcess,
    CVaRJump,
    Distribution,
    JumpMeasure,
    LatticeBuildError,
    NoiseModel,
    NormCD,
    RandomVariable,
    Scaled,
    TimeGrid,
    Variance,
    build_lattice,
    law,
    law_distance,
    martingale,
    permute_paths,
    terminal_brownian,
)

from oracles import cond_exp, conditional_mean_by_paths, expectation_by_paths, law_by_paths


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid((0.5, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((0.0,))
    g = TimeGrid.uniform(4, 1.0)
    assert g.steps == (0.25, 0.25, 0.25, 0.25)
    assert g.horizon == 1.0


def test_jump_measure_validation():
    with pytest.raises(ValueError):
        JumpMeasure(((1.0,),), (0.0,))
    with pytest.raises(ValueError):
        JumpMeasure(((0.0,),), (1.0,))
    with pytest.raises(ValueError):
        JumpMeasure(((1.0,), (1.0,)), (0.5, 0.5))
    with pytest.raises(ValueError):
        NoiseModel(0, JumpMeasure.empty())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, message", [
    (lambda: Variance(NAN), "alpha must be finite"),
    (lambda: Variance(INF), "alpha must be finite"),
    (lambda: NormCD(NAN, 1.0), "c and d must be finite"),
    (lambda: NormCD(1.0, INF), "c and d must be finite"),
    (lambda: CVaRJump(NAN), "a must be finite"),
    (lambda: Scaled(NAN, Variance(1.0)), "gamma must be finite"),
    (lambda: TimeGrid((0.0, NAN, 1.0)), "time grid times must be finite"),
    (lambda: TimeGrid((0.0, 1.0, INF)), "time grid times must be finite"),
    (lambda: TimeGrid.uniform(3, NAN), "horizon must be finite"),
    (lambda: TimeGrid.uniform(3, INF), "horizon must be finite"),
    (lambda: JumpMeasure(((1.0,),), (NAN,)), "intensities must be finite"),
    (lambda: JumpMeasure(((1.0,),), (INF,)), "intensities must be finite"),
    (lambda: JumpMeasure(((NAN,),), (0.5,)), "marks must be finite"),
    (lambda: JumpMeasure(((1.0, INF),), (0.5,)), "marks must be finite"),
    (lambda: build_lattice(TimeGrid.uniform(2, 1.0),
                           NoiseModel(1, JumpMeasure(((1.0,),), (NAN,)))),
     "intensities must be finite"),
    (lambda: Distribution([NAN], [1.0]), "atoms must be finite"),
    (lambda: Distribution([0.0, NAN], [0.5, 0.5]), "atoms must be finite"),
    (lambda: Distribution([0.0, 1.0], [NAN, NAN]), "atom probabilities must be finite"),
])
def test_constructors_refuse_nan_and_infinity(make, message):
    """A NaN passes every ``<=`` range check, so each constructor checks
    finiteness itself."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Variance(0.0), "alpha must be positive"),
    (lambda: Scaled(-1.0, Variance(1.0)), "gamma must be positive"),
    (lambda: TimeGrid.uniform(3, 0.0), "horizon must be positive"),
    (lambda: JumpMeasure(((1.0,),), (0.0,)), "intensities must be positive"),
])
def test_finite_values_out_of_range_keep_their_messages(make, message):
    """The finiteness checks leave the messages of finite values as they were."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("call, message", [
    (lambda lat: Distribution([0.0, 1.0], [1.0]), "atoms/probs must be matching vectors"),
    (lambda lat: Distribution([0.0, 1.0], [1.5, -0.5]), "atom probabilities must be positive"),
    (lambda lat: Distribution([0.0, 1.0], [0.5, 0.6]), "atom probabilities must sum to 1"),
    (lambda lat: Distribution([1.0, 0.0], [0.5, 0.5]), "atoms must be strictly increasing"),
    (lambda lat: law(lat, terminal_brownian(lat), merge_tol=-1e-9), "merge_tol must be >= 0"),
    (lambda lat: law(lat, terminal_brownian(lat), merge_tol=NAN), "merge_tol must be >= 0"),
    (lambda lat: permute_paths(lat, RandomVariable(np.zeros(2), 1), np.random.default_rng(0)),
     "permute_paths expects a terminal payoff"),
    (lambda lat: terminal_brownian(lat, 1), "component outside Brownian dimension"),
    (lambda lat: AdaptedProcess(martingale(lat, terminal_brownian(lat)).values)
     .as_random_variable(), "process has no recorded measurability level"),
    (lambda lat: lat.num_nodes(5), "level 5 outside 0..4"),
    (lambda lat: NoiseModel(-1, JumpMeasure.empty()), "d must be >= 0"),
    (lambda lat: JumpMeasure(((1.0,), (1.0, 2.0)), (0.1, 0.1)), "marks must share one dimension"),
    (lambda lat: RandomVariable(np.zeros((2, 2)), 1), "values must be one-dimensional"),
    (lambda lat: RandomVariable(np.zeros(2), 1) + RandomVariable(np.zeros(4), 2),
     "level mismatch in random-variable arithmetic"),
    (lambda lat: martingale(lat, RandomVariable(np.zeros(3), 1)),
     "payoff has 3 values but level 1 holds 2 nodes"),
])
def test_lattice_refusals_name_their_cause(binomial4, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(binomial4)


def test_reflected_subtraction_and_negation_keep_the_level():
    x = RandomVariable(np.array([1.0, -2.0, 0.0, 0.5]), 2)
    for got, want in ((3.0 - x, [2.0, 5.0, 3.0, 2.5]), (-x, [-1.0, 2.0, -0.0, -0.5])):
        assert got.level == 2
        assert got.values.tobytes() == np.array(want).tobytes()


def test_law_distance_is_infinite_for_unequal_atom_counts(binomial2):
    x = terminal_brownian(binomial2)
    assert law_distance(law(binomial2, x), law(binomial2, x)) == 0.0
    assert law_distance(law(binomial2, x), Distribution([0.0], [1.0])) == math.inf


@pytest.mark.parametrize("marks, intensities", [
    (((-1.0,), (2.0,)), (0.25, 0.5)), ((), ()), (((1.0, -1.0),), (0.1 + 0.2,)),
])
def test_intensity_array_is_built_once_and_read_only(marks, intensities):
    nu = JumpMeasure(marks, intensities)
    first = nu.intensity_array
    assert nu.intensity_array is first
    assert not first.flags.writeable
    assert first.dtype == np.float64
    assert first.tobytes() == np.asarray(nu.intensities, dtype=float).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        first[...] = 1.0
    # not a field: equality, hashing and repr still read the tuples alone
    twin = JumpMeasure(marks, intensities)
    assert twin == nu and hash(twin) == hash(nu) and twin.intensity_array is not first
    assert "intensity_array" not in repr(nu)


def test_symmetric_bernoulli_single_step():
    lat = build_lattice(TimeGrid.uniform(1, 1.0), NoiseModel.brownian(1))
    assert lat.branching == 2
    assert lat.num_nodes(1) == 2
    np.testing.assert_allclose(lat.step_probs(0), [0.5, 0.5])
    np.testing.assert_array_equal(np.sort(lat.step_dw(0).ravel()), [-1.0, 1.0])


def test_jump_step_probability():
    noise = NoiseModel(1, JumpMeasure(((1.0,),), (0.5,)))
    lat = build_lattice(TimeGrid.uniform(2, 1.0), noise)
    assert lat.branching == 4
    # per-step jump probability = intensity * dt = 0.5 * 0.5
    probs = lat.step_probs(0)
    jump_mass = probs[lat.outcome_labels == 1].sum()
    assert jump_mass == pytest.approx(0.25, abs=1e-15)


def test_node_budget_exceeded():
    with pytest.raises(LatticeBuildError):
        build_lattice(TimeGrid.uniform(10, 1.0), NoiseModel.brownian(2),
                      max_nodes=10 ** 4)


def test_intensity_step_bound():
    noise = NoiseModel(1, JumpMeasure(((1.0,),), (2.0,)))
    with pytest.raises(LatticeBuildError):
        build_lattice(TimeGrid.uniform(2, 1.0), noise)


def test_child_probabilities_sum_to_one(jump_lattice):
    for i in range(jump_lattice.n_steps):
        p = jump_lattice.step_probs(i)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)


def test_brownian_increment_square_is_dt():
    for n in (4, 8, 16):
        lat = build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel.brownian(1))
        for i in range(lat.n_steps):
            dw = lat.step_dw(i)
            np.testing.assert_allclose(dw * dw, lat.step_dt(i), rtol=4e-16)
    # power-of-four steps make the square exact
    lat = build_lattice(TimeGrid.uniform(4, 1.0), NoiseModel.brownian(1))
    assert np.all(lat.step_dw(0) ** 2 == lat.step_dt(0))


def test_cond_exp_of_constant(binomial4):
    x = RandomVariable(np.full(16, 3.25), 4)
    proc = cond_exp(binomial4, x, 2)
    for i in range(5):
        np.testing.assert_array_equal(proc.at(i), 3.25)


def test_cond_exp_zero_mean_increment():
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    first_step = martingale(lat, terminal_brownian(lat)).at(1)
    x = RandomVariable(np.repeat(first_step, lat.branching), 2)
    assert cond_exp(lat, x, 0).at(0)[0] == pytest.approx(0.0, abs=1e-15)


def test_cond_exp_squared_brownian(binomial4):
    w = terminal_brownian(binomial4)
    x = RandomVariable(w.values ** 2, 4)
    for level in range(5):
        got = cond_exp(binomial4, x, level).at(level)
        states = binomial4.brownian_states(level)[:, 0]
        want = states ** 2 + (1.0 - binomial4.times[level])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_cond_exp_matches_path_enumeration(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    proc = cond_exp(jump_lattice, x, 2)
    for node in range(jump_lattice.num_nodes(2)):
        want = conditional_mean_by_paths(jump_lattice, x.values, 2, node)
        assert proc.at(2)[node] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_tower_property_exact(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    for t, s in [(0, 2), (1, 3), (2, 4), (0, 4)]:
        inner = cond_exp(jump_lattice, x, s).as_random_variable()
        outer = cond_exp(jump_lattice, inner, t)
        direct = cond_exp(jump_lattice, x, t)
        assert np.array_equal(outer.at(t), direct.at(t))


def test_law_of_constant(binomial2):
    dist = law(binomial2, RandomVariable(np.full(4, 5.0), 2))
    np.testing.assert_array_equal(dist.atoms, [5.0])
    np.testing.assert_array_equal(dist.probs, [1.0])


def test_law_of_terminal_brownian(binomial2):
    dist = law(binomial2, terminal_brownian(binomial2))
    np.testing.assert_allclose(dist.atoms, [-math.sqrt(2), 0.0, math.sqrt(2)],
                               atol=1e-15)
    np.testing.assert_allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-15)


def test_law_matches_path_enumeration(jump_lattice, rng):
    values = rng.integers(-3, 4, size=jump_lattice.num_nodes(4)).astype(float)
    dist = law(jump_lattice, RandomVariable(values, 4))
    want = law_by_paths(jump_lattice, values)
    assert len(dist.atoms) == len(want)
    for atom, prob in zip(dist.atoms, dist.probs):
        assert prob == pytest.approx(want[round(float(atom), 9)], rel=1e-12)


def test_permutation_preserves_law(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    for _ in range(3):
        permuted = permute_paths(jump_lattice, x, rng)
        assert law_distance(law(jump_lattice, x), law(jump_lattice, permuted)) <= 1e-12


def test_permutation_mean_is_invariant(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    permuted = permute_paths(jump_lattice, x, rng)
    m0 = expectation_by_paths(jump_lattice, x.values)
    m1 = expectation_by_paths(jump_lattice, permuted.values)
    assert m0 == pytest.approx(m1, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=6))
def test_node_probabilities_sum_to_one(n_steps, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(0, 3))
    m = int(rng.integers(0 if d else 1, 3))
    marks = tuple((float(k + 1),) for k in range(m))
    intens = tuple(float(v) for v in rng.uniform(0.02, 0.15, size=m))
    lat = build_lattice(
        TimeGrid.uniform(n_steps, 1.0),
        NoiseModel(d, JumpMeasure(marks, intens)),
    )
    for level in range(n_steps + 1):
        assert lat.node_probabilities(level).sum() == pytest.approx(1.0, abs=1e-12)
    for i in range(n_steps):
        probs = lat.step_probs(i)
        for j, nu_j in enumerate(intens, start=1):
            mass = probs[lat.outcome_labels == j].sum()
            assert mass == pytest.approx(nu_j * lat.step_dt(i), abs=1e-14)


def _layout_reads(tree: ast.AST, exempt: set) -> list[int]:
    """Lines that read ``.branching`` or call a ``repeat`` attribute."""
    return [node.lineno for node in ast.walk(tree) if id(node) not in exempt and (
        (isinstance(node, ast.Attribute) and node.attr == "branching")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "repeat"))]


def test_only_the_lattice_module_reads_the_tree_layout():
    """Outside ``lattice.py`` the child layout is reached through the level
    operators only; the one exemption is the ``"branching"`` entry that
    ``jsonio.lattice_to_dict`` writes out."""
    leaks = {}
    for path in sorted(Path(devlat.__file__).parent.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "jsonio.py":
            (fn,) = [f for f in tree.body
                     if isinstance(f, ast.FunctionDef) and f.name == "lattice_to_dict"]
            exempt = {id(value) for node in ast.walk(fn) if isinstance(node, ast.Dict)
                      for key, value in zip(node.keys, node.values)
                      if isinstance(key, ast.Constant) and key.value == "branching"}
        if lines := _layout_reads(tree, exempt):
            leaks[path.name] = lines
    assert leaks == {}


_LINEAR_SOLVES = {"solve", "lstsq", "inv"}


def test_no_module_solves_a_linear_system():
    """The lattice builds its least-squares projector in closed form, so no
    module solves normal equations or inverts a matrix."""
    found = {}
    for path in sorted(Path(devlat.__file__).parent.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if (
            isinstance(node, ast.Attribute) and node.attr in _LINEAR_SOLVES
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
            and any(alias.name in _LINEAR_SOLVES for alias in node.names))]
        if lines:
            found[path.name] = lines
    assert found == {}


_CLASS_CACHES = {"cache", "lru_cache", "cached_property"}


def _decorator_name(dec: ast.expr) -> str | None:
    """``cache`` for ``@cache``, ``@functools.cache`` and ``@lru_cache(...)`` alike."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)


def _method_caches(tree: ast.AST) -> list[int]:
    """Lines of methods decorated by a ``functools`` cache."""
    return [fn.lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            if any(_decorator_name(dec) in _CLASS_CACHES for dec in fn.decorator_list)]


def test_no_method_has_a_class_level_cache():
    """A cache on a method holds every instance it saw, such as each lattice
    a property test builds, for the life of the process; caches live on
    the instance instead."""
    found = {}
    for path in sorted(Path(devlat.__file__).parent.glob("*.py")):
        if lines := _method_caches(ast.parse(path.read_text())):
            found[path.name] = lines
    assert found == {}


@pytest.mark.parametrize("decorator, caches", [
    ("functools.cache", True), ("cache", True), ("functools.lru_cache(maxsize=8)", True),
    ("lru_cache()", True), ("functools.cached_property", True), ("cached_property", True),
    ("property", False), ("staticmethod", False), ("functools.wraps(f)", False),
])
def test_the_method_cache_guard_sees_every_cache(decorator, caches):
    source = f"class A:\n    @{decorator}\n    def f(self):\n        pass\n"
    assert bool(_method_caches(ast.parse(source))) == caches
    # a module-level function is not a method
    assert _method_caches(ast.parse(f"@{decorator}\ndef f():\n    pass\n")) == []


def _signed_zero_builds():
    """Arguments that equal floats cannot tell apart: a grid starting at
    ``0.0`` or ``-0.0``, and a mark whose first component is either."""
    return [(TimeGrid((t0, 0.5, 1.0)), NoiseModel(1, JumpMeasure(((c0, 1.0),), (0.5,))))
            for t0 in (0.0, -0.0) for c0 in (0.0, -0.0)]


@pytest.mark.parametrize("order", [1, -1])
def test_build_lattice_reuses_only_the_bit_identical_latest_build(order):
    builds = _signed_zero_builds()[::order]
    seen = []
    for grid, noise in builds:
        lat = build_lattice(grid, noise)
        assert build_lattice(TimeGrid(grid.times), NoiseModel(noise.d, noise.jumps)) is lat
        assert all(lat is not other for other in seen)
        assert math.copysign(1.0, lat.times[0]) == math.copysign(1.0, grid.times[0])
        mark = lat.noise.jumps.marks[0][0]
        assert math.copysign(1.0, mark) == math.copysign(1.0, noise.jumps.marks[0][0])
        seen.append(lat)
    # one entry only: the first build was evicted and is built afresh
    again = build_lattice(*builds[0])
    assert again is not seen[0] and again.times == seen[0].times


def test_build_lattice_keys_on_the_node_budget():
    grid, noise = TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1)
    assert build_lattice(grid, noise).max_nodes == 1_000_000
    assert build_lattice(grid, noise, max_nodes=4).max_nodes == 4
    with pytest.raises(LatticeBuildError):
        build_lattice(grid, noise, max_nodes=3)


def _uncached_tables(lat, level):
    """Each leaf table of ``level`` by an uncached path sum of the public step tables."""
    d, m = lat.noise.d, lat.noise.jumps.m
    onehot = np.eye(m + 1)[lat.outcome_labels][:, 1:]
    return {
        "brownian_states": lat._path_sum(level, lat.step_dw),
        "jump_counts": lat._path_sum(level, lambda i: onehot),
        "compensated_counts": lat._path_sum(level, lambda i: lat.step_basis(i)[0][:, d:]),
        "node_probabilities": lat._path_sum(level, lat.step_probs, np.multiply, 1.0),
    }


@pytest.mark.parametrize("d, m", [(1, 0), (2, 2), (0, 2)])
def test_leaf_tables_are_read_only_path_sums_kept_on_the_lattice(d, m):
    jumps = JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5)) if m else JumpMeasure.empty()
    lat = build_lattice(TimeGrid((0.0, 0.1, 0.35, 1.0)), NoiseModel(d, jumps))
    for _ in range(2):  # formed, then read back
        for level in range(lat.n_steps + 1):
            for name, want in _uncached_tables(lat, level).items():
                got = getattr(lat, name)(level)
                assert got is getattr(lat, name)(level), name
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), (name, level)
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0.0
    for table in (lat.outcome_labels, lat.step_dw(0), lat.step_probs(0),
                  *lat.step_basis(0)):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
