"""Sample generation, violation estimation, and the budget-sweep harness."""

import filecmp
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from scipy.stats import truncnorm

from msdro_opf import evaluation, lp, opf_model
from msdro_opf.dro_core import MultiDataset
from msdro_opf.errors import InputError
from msdro_opf.evaluation import (DEFAULT_GRID, S_FRACTION, SweepConfig,
                                  derive_seed, empirical_violation,
                                  oos_matrix, out_of_sample, run_sweep,
                                  s_pert, training_matrix, violation_rate,
                                  write_sweep_csvs)
from msdro_opf.lp import SolverError
from msdro_opf.network import (Generator, Line, Network, Resource,
                               build_joint_support)

from oracles import bits, truncnorm_draws
from test_readme import run_fresh

RESOURCE = Resource(2, 1.0, 0.0, 2.0, 0.6)

SWEEP_FILES = ["cost_components.csv", "dispatch.csv", "lambdas.csv",
               "objectives.csv", "oos.csv", "plotdata_data_value.csv",
               "plotdata_forecast_value.csv"]


def undersized_network():
    """Feasible on sampled errors, infeasible once budgets reach the corner."""
    return Network(buses=[1, 2], lines=[Line(1, 2, 0.1, 50.0)],
                   generators=[Generator(1, 0.0, 2.5, 10.0, 1.0, 20.0)],
                   loads={2: 3.0}, resources=[RESOURCE], slack_bus=1)


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(1, "train") == derive_seed(1, "train")
    assert derive_seed(1, "train") != derive_seed(2, "train")
    assert derive_seed(1, "train") != derive_seed(1, "oos")
    assert derive_seed(1, 1.0, 0.1) != derive_seed(1, 0.1, 1.0)


def test_s_pert_solves_mean_absolute_deviation():
    assert s_pert(0.0) == 0.0
    assert s_pert(0.1) == pytest.approx(0.1 * math.sqrt(math.pi / 2))
    rng = np.random.default_rng(5)
    draws = rng.normal(scale=s_pert(0.1), size=1_000_000)
    se = np.abs(draws).std(ddof=1) / 1000.0
    assert abs(np.abs(draws).mean() - 0.1) <= 3 * se


def one_resource_draws(n: int, seed: int, error_mean: str = "zero",
                       epsilon: float | None = None) -> np.ndarray:
    """``RESOURCE``'s training row, or with ``epsilon`` its out-of-sample
    column, in a network where it is the only resource."""
    net = undersized_network()
    if epsilon is None:
        return training_matrix(net, n, seed, error_mean)[0]
    return oos_matrix(net, [epsilon], n, seed)[:, 0]


def test_training_samples_inside_support_and_deterministic():
    box = build_joint_support(undersized_network())
    xs = one_resource_draws(500, seed=9)
    assert xs.min() >= box.lower[0] - 1e-12
    assert xs.max() <= box.upper[0] + 1e-12
    np.testing.assert_array_equal(xs, one_resource_draws(500, seed=9))
    assert not np.array_equal(xs, one_resource_draws(500, seed=10))


def test_training_sample_mean_is_near_zero():
    n = 4000
    xs = one_resource_draws(n, seed=11)
    s = S_FRACTION * RESOURCE.u
    assert abs(xs.mean()) <= 3 * s / math.sqrt(n)


def test_training_forecast_shift_mode():
    n = 4000
    xs = one_resource_draws(n, seed=11, error_mean="forecast-shift")
    # Draws centered on u but truncated to the error support pile up near
    # the upper end; compare against the analytic truncated-normal mean.
    box = build_joint_support(undersized_network())
    s = S_FRACTION * RESOURCE.u
    a = (box.lower[0] - RESOURCE.u) / s
    b = (box.upper[0] - RESOURCE.u) / s
    expect = truncnorm.mean(a, b, loc=RESOURCE.u, scale=s)
    spread = truncnorm.std(a, b, loc=RESOURCE.u, scale=s)
    assert abs(xs.mean() - expect) <= 3 * spread / math.sqrt(n)
    assert xs.max() <= box.upper[0] + 1e-12
    with pytest.raises(InputError):
        training_matrix(undersized_network(), 10, 1, error_mean="bogus")


@pytest.mark.parametrize("error_mean", ["zero", "forecast-shift"])
def test_matrices_are_truncnorm_at_the_joint_support(case5, error_mean):
    """Each training row and out-of-sample column is ``truncnorm.rvs``'s
    floats between its resource's joint-support bounds, with its derived
    seed: the training spread around 0 (u for ``forecast-shift``), the
    out-of-sample spread widened by the budget around 0."""
    box = build_joint_support(case5)
    train = training_matrix(case5, 300, 5, error_mean)
    cell = (0.1, 0.005)
    oos = oos_matrix(case5, cell, 300, 5)
    for j, r in enumerate(case5.resources):
        lo, up, s = box.lower[j], box.upper[j], S_FRACTION * r.u
        loc = r.u if error_mean == "forecast-shift" else 0.0
        rng = np.random.default_rng(derive_seed(5, "train", j))
        assert bits(train[j]) == bits(truncnorm_draws(lo, up, loc, s, 300,
                                                      rng))
        rng = np.random.default_rng(derive_seed(5, "oos", cell, j))
        assert bits(oos[:, j]) == bits(truncnorm_draws(
            lo, up, 0.0, s + s_pert(cell[j]), 300, rng))


def random_truncation(rng, kind: str) -> tuple:
    """(lo, up, loc, scale) whose standardized bounds a = (lo - loc) / scale
    and b = (up - loc) / scale fall in one case of truncnorm's inverse CDF:
    the Gaussian mass left of 0 (b <= 0), right of 0 (a > 0), around 0, a
    bound on loc (a = 0 or b = 0), or both bounds in one far tail."""
    loc, scale = rng.normal(0.0, 2.0), rng.uniform(1e-3, 5.0)
    width = rng.uniform(1e-3, 4.0)
    if kind == "left":
        b = -rng.uniform(0.0, 4.0)
        a = b - width
    elif kind == "right":
        a = rng.uniform(1e-9, 4.0)
        b = a + width
    elif kind == "central":
        a, b = -rng.uniform(1e-9, 6.0), rng.uniform(1e-9, 6.0)
    elif kind == "on-bound":
        a, b = (0.0, width) if rng.random() < 0.5 else (-width, 0.0)
    else:  # far tail
        a = rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 38.0)
        b = a + rng.uniform(1e-3, 5.0)
    return loc + a * scale, loc + b * scale, loc, scale


@pytest.mark.parametrize("kind", ["left", "right", "central", "on-bound",
                                  "far-tail"])
def test_draws_are_scipys_truncnorm_bit_for_bit(kind):
    """The package's truncated normal draws are ``truncnorm.rvs``'s floats
    on random bounds, locations, scales, sizes and seeds."""
    rng = np.random.default_rng(["left", "right", "central", "on-bound",
                                 "far-tail"].index(kind))
    for _ in range(40):
        lo, up, loc, scale = random_truncation(rng, kind)
        n, seed = int(rng.integers(0, 1500)), int(rng.integers(2**63))
        got = evaluation._draw_between(lo, up, loc, scale, n, seed)
        want = truncnorm_draws(lo, up, loc, scale, n,
                               np.random.default_rng(seed))
        assert bits(got) == bits(want), (lo, up, loc, scale, n, seed)


class FixedUniform(np.random.Generator):
    """A generator whose ``uniform`` returns the given values."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = np.asarray(values, dtype=float)

    def uniform(self, size=None):
        return self.values.copy()


def test_draws_at_the_ends_of_the_unit_interval(monkeypatch):
    """Uniforms of 0 (the draw is the lower bound), the smallest ones and
    the largest below 1 give truncnorm's floats in every case."""
    q = [0.0, 5e-324, 1e-300, 1e-17, 0.5, 1 - 2**-53, np.nextafter(1, 0)]
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: FixedUniform(q))
    for a, b in ((-2.0, 3.0), (-40.0, -30.0), (30.0, 40.0), (0.0, 2.0),
                 (-2.0, 0.0), (-1e-3, 1e-3), (-38.0, -37.999), (5.0, 5.0001)):
        lo, up = 0.3 + 2.0 * a, 0.3 + 2.0 * b
        got = evaluation._draw_between(lo, up, 0.3, 2.0, len(q), 0)
        assert bits(got) == bits(truncnorm_draws(lo, up, 0.3, 2.0, len(q),
                                                 FixedUniform(q))), (a, b)
        assert got[0] == pytest.approx(lo, abs=1e-12)


def test_oos_samples_zero_budget_uses_training_spread():
    box = build_joint_support(undersized_network())
    xs = one_resource_draws(40_000, seed=13, epsilon=0.0)
    assert xs.min() >= box.lower[0] and xs.max() <= box.upper[0]
    s = S_FRACTION * RESOURCE.u
    a, b = box.lower[0] / s, box.upper[0] / s
    expect = truncnorm.std(a, b, scale=s)
    assert xs.std() == pytest.approx(expect, rel=0.02)


def test_oos_samples_widen_with_budget():
    narrow = one_resource_draws(20_000, seed=17, epsilon=0.0)
    wide = one_resource_draws(20_000, seed=17, epsilon=0.2)
    assert wide.std() > narrow.std()


@pytest.mark.parametrize("epsilons", [[0.1], [0.1, 0.1, 0.5]])
def test_oos_matrix_needs_one_budget_per_resource(case5, epsilons):
    """Too few budgets used to raise ``IndexError``; an extra one used to
    enter the seeds and change every draw."""
    with pytest.raises(InputError, match=f"^got {len(epsilons)} budgets for "
                       "2 uncertain resources$"):
        oos_matrix(case5, epsilons, 10, 1)


def test_out_of_sample_refuses_a_solution_that_is_not_optimal():
    """An infeasible solve has no decision to check."""
    net = undersized_network()
    data = MultiDataset.from_matrix(training_matrix(net, 20, 1), [1.0])
    sol = opf_model.solve_msdro_opf(net, data, 0.05)
    assert sol.status == "infeasible"
    with pytest.raises(SolverError, match="^solution status is infeasible$"):
        out_of_sample(sol, 10, 1)


def test_violation_rate_against_truncated_normal_tail():
    cut = 0.25
    n = 50_000
    xs = one_resource_draws(n, seed=19, epsilon=0.05)
    a = np.array([[1.0]])
    b = np.array([-cut])
    got = violation_rate(a, b, xs[:, None])
    s = S_FRACTION * RESOURCE.u + s_pert(0.05)
    box = build_joint_support(undersized_network())
    analytic = truncnorm.sf(cut, box.lower[0] / s, box.upper[0] / s, scale=s)
    se = math.sqrt(analytic * (1 - analytic) / n)
    assert abs(got - analytic) <= 3 * se


def test_violation_rate_tolerance_ignores_roundoff():
    a = np.array([[1.0]])
    b = np.array([0.0])
    samples = np.array([[1e-12], [-1.0]])
    assert violation_rate(a, b, samples) == 0.0
    assert violation_rate(a, b, np.array([[1e-6]])) == 1.0


def test_violation_rate_of_no_samples_is_nan():
    a, b = np.array([[1.0]]), np.array([0.0])
    assert math.isnan(violation_rate(a, b, np.zeros((0, 1))))
    # No features but some samples: the rows are fixed numbers.
    assert violation_rate(np.zeros((1, 0)), b + 1.0, np.zeros((3, 0))) == 1.0


def test_robust_decision_never_violates(case5, robust_sol):
    xs = oos_matrix(case5, np.array([1.0, 1.0]), 2000, seed=23)
    assert empirical_violation(robust_sol.decision, xs, case5) == 0.0


def test_solved_cells_have_zero_in_sample_violation(case5, train20, solve_cell):
    for eps in ((0.1, 0.1), (0.005, 0.005)):
        dec = solve_cell(*eps).decision
        assert empirical_violation(dec, train20.T, case5) == 0.0


def test_sweep_config_validation():
    assert SweepConfig().grid == DEFAULT_GRID
    assert len(list(SweepConfig().cells(2))) == 16
    assert len(list(SweepConfig().oos_cells(2))) == 25
    with pytest.raises(InputError):
        SweepConfig(grid=(-0.1,))
    with pytest.raises(InputError):
        SweepConfig(n_samples=0)
    with pytest.raises(InputError, match="distinct"):
        SweepConfig(grid=(0.1, 0.1))
    with pytest.raises(InputError, match="at least one value"):
        SweepConfig(grid=())


@pytest.mark.parametrize("field", ["n_samples", "oos_samples"])
@pytest.mark.parametrize("count", [2.5, True, 20.0, "20"])
def test_sweep_config_refuses_a_count_that_is_not_an_integer(field, count):
    with pytest.raises(InputError, match=f"^{field} must be an integer, got "):
        SweepConfig(**{field: count})
    assert getattr(SweepConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", True, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    ("grid", (True, 0.1), "a grid value must be a number, got True"),
    ("grid", ("a",), "a grid value must be a number, got 'a'"),
    ("grid", (None,), "a grid value must be a number, got None"),
    ("grid", (10**400, 0.1), "a grid value is an integer too large"),
    ("grid", 0.1, "grid must be a tuple of at least one value, got 0.1"),
    ("grid", [1.0, 0.1], "grid must be a tuple"),
    ("gamma", None, "gamma must be a number, got None"),
    ("gamma", "0.05", "gamma must be a number"),
    ("error_mean", "x", "unknown error-mean mode 'x'"),
    ("oos_include_zero", 1, "oos_include_zero must be True or False, got 1"),
])
def test_sweep_config_refuses_values_of_the_wrong_type(field, value, message):
    """Each field is checked where the configuration is made, not when a
    sweep first reads it (``seed=1.5`` drew as seed 1)."""
    with pytest.raises(InputError, match=message):
        SweepConfig(**{field: value})
    cfg = SweepConfig(seed=np.int64(7), gamma=np.float32(0.25), grid=(1, 0.5))
    assert (cfg.seed, cfg.grid) == (7, (1, 0.5))


def test_oos_cells_include_zero_only_when_asked():
    cfg = SweepConfig(grid=(1.0, 0.1), oos_include_zero=False)
    assert len(list(cfg.oos_cells(2))) == 4
    cfg = SweepConfig(grid=(1.0, 0.1), oos_include_zero=True)
    budgets = {e for cell in cfg.oos_cells(2) for e in cell}
    assert budgets == {0.0, 0.1, 1.0}


def test_run_sweep_outputs_and_determinism(tmp_path, case5):
    cfg = SweepConfig(grid=(1.0, 0.1), oos_samples=100)
    res = run_sweep(case5, cfg)
    assert [c.epsilons for c in res.cells] == sorted(
        c.epsilons for c in res.cells)
    assert all(c.status == "optimal" for c in res.cells)
    assert all(0.0 <= o.violation <= 1.0 for o in res.oos)
    by_eps = {c.epsilons: c.objective for c in res.cells}
    assert by_eps[(0.1, 0.1)] <= by_eps[(1.0, 0.1)] + 1e-8
    assert by_eps[(0.1, 0.1)] <= by_eps[(0.1, 1.0)] + 1e-8
    for c in res.cells:
        assert c.objective_tightened <= c.objective + 1e-6

    files = write_sweep_csvs(res, tmp_path / "a")
    assert sorted(f.name for f in files) == SWEEP_FILES
    again = write_sweep_csvs(run_sweep(case5, cfg), tmp_path / "b")
    for fa, fb in zip(sorted(files), sorted(again)):
        assert filecmp.cmp(fa, fb, shallow=False)


def test_run_sweep_jobs_parity(tmp_path, case5):
    """Cells solved on 2, 3 or 4 threads give the serial sweep's CSVs, at
    two seeds and in both error-mean modes."""
    for seed, error_mean in product((1, 9), evaluation.ERROR_MEANS):
        cfg = SweepConfig(grid=(1.0, 0.005), oos_samples=60, seed=seed,
                          error_mean=error_mean)
        out = tmp_path / f"{seed}-{error_mean}"
        serial = write_sweep_csvs(run_sweep(case5, cfg), out / "s")
        for jobs in (2, 3, 4):
            threaded = write_sweep_csvs(run_sweep(case5, cfg, jobs=jobs),
                                        out / f"j{jobs}")
            for fa, fb in zip(sorted(serial), sorted(threaded)):
                assert filecmp.cmp(fa, fb, shallow=False), (cfg, jobs, fb.name)


def test_a_fresh_process_solving_on_threads_first_writes_the_serial_bytes(
        tmp_path):
    """HiGHS's first runs in a process are concurrent ones, and the CSVs
    are still the serial sweep's."""
    result = run_fresh(f"""
        import filecmp, json
        from pathlib import Path
        from msdro_opf.evaluation import SweepConfig, run_sweep, write_sweep_csvs
        from msdro_opf.network import bundled_network
        net, out = bundled_network(), Path({str(tmp_path)!r})
        cfg = SweepConfig(grid=(1.0, 0.1, 0.005), n_samples=10, oos_samples=50)
        threaded = write_sweep_csvs(run_sweep(net, cfg, jobs=2), out / "p")
        serial = write_sweep_csvs(run_sweep(net, cfg), out / "s")
        print(json.dumps([b.name for a, b in zip(sorted(threaded), sorted(serial))
                          if not filecmp.cmp(a, b, shallow=False)]))
    """)
    assert result == []


def test_threads_only_read_the_sweep_model(case5, monkeypatch):
    """The row layout and column structure the sweep's one model shares
    with its cells are made before the threads start and never replaced;
    the zero-column cells' edited models make their own."""
    made = []
    build = opf_model.build_msdro_opf

    def recording(*args):
        built = build(*args)
        made.append((built.model, dict(built.model._cache)))
        return built

    monkeypatch.setattr(opf_model, "build_msdro_opf", recording)
    run_sweep(case5, SweepConfig(grid=(1.0, 0.1), n_samples=5,
                                 oos_samples=20), jobs=2)
    [(model, before)] = made
    assert sorted(before) == ["columns", "layout"]
    assert model._cache.keys() == before.keys()
    assert all(model._cache[key] is value for key, value in before.items())


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_builds_one_model(case5, monkeypatch, jobs):
    """The default grid with its zero column is one build and one flow-map
    computation; each zero budget is an edit of that model."""
    calls = {"build": 0, "flow_maps": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(opf_model, "build_msdro_opf",
                        counting("build", opf_model.build_msdro_opf))
    monkeypatch.setattr(opf_model, "compute_flow_maps",
                        counting("flow_maps", opf_model.compute_flow_maps))
    cfg = SweepConfig(oos_samples=50)
    res = run_sweep(case5, cfg, jobs=jobs)
    assert len(res.oos) == 25 and all(c.optimal for c in res.oos)
    assert calls == {"build": 1, "flow_maps": 1}


def test_run_sweep_starts_no_more_workers_than_cells(case5, monkeypatch):
    """``jobs`` above the cell count asks the pool for one worker thread
    per cell; one job asks for no pool."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", Recording)
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=20)
    cells = len(cfg.oos_cells(2))  # the grid's 4 cells and the zero cells
    run_sweep(case5, cfg)
    assert sizes == []  # one job solves in the calling thread
    for jobs, want in ((2, 2), (cells, cells), (10**6, cells)):
        run_sweep(case5, cfg, jobs=jobs)
        assert sizes.pop() == want, jobs


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2", None])
def test_run_sweep_refuses_a_job_count_that_is_not_a_positive_integer(
        case5, monkeypatch, jobs):
    """``0``, ``-3`` and ``True`` used to run the sweep serially, ``2.5``
    was taken and ``"2"`` and ``None`` raised ``TypeError``. The count is
    refused before any draw, build or thread."""
    made = []
    monkeypatch.setattr(evaluation, "ThreadPoolExecutor",
                        lambda *args, **kwargs: made.append("pool"))
    monkeypatch.setattr(evaluation, "training_matrix",
                        lambda *args, **kwargs: made.append("draw"))
    monkeypatch.setattr(opf_model, "build_msdro_opf",
                        lambda *args, **kwargs: made.append("build"))
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    with pytest.raises(InputError, match=r"^jobs must be an integer >= 1, "
                       rf"got {re.escape(repr(jobs))}$"):
        run_sweep(case5, cfg, jobs=jobs)
    assert made == []


def test_an_interrupt_in_a_cell_leaves_run_sweep_and_cancels_the_rest(
        case5, monkeypatch):
    """A ``KeyboardInterrupt`` in the first cell leaves ``run_sweep`` as
    raised, and the cells queued behind those already running never start.
    The other running cells wait until the pool is shut down, so the two
    threads start at most the first three cells."""
    shut = threading.Event()
    started = []

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            shut.set()
            super().shutdown(wait=wait)

    def cell(models, eps, config):
        started.append(eps)
        if eps == (1.0, 1.0):
            raise KeyboardInterrupt
        assert shut.wait(timeout=60)
        return evaluation.CellResult(eps, "optimal")

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(evaluation, "_solve_cell", cell)
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(case5, cfg, jobs=2)
    assert (1.0, 1.0) in started
    assert set(started) <= set(cfg.cells(2)[:3])
    assert len(started) == len(set(started))


def test_run_sweep_records_per_cell_failures():
    cfg = SweepConfig(grid=(1.0, 0.005), oos_samples=50)
    res = run_sweep(undersized_network(), cfg)
    status = {c.epsilons: c.status for c in res.cells}
    assert status[(0.005,)] == "optimal"
    assert status[(1.0,)] == "infeasible"
    bad = next(c for c in res.cells if c.status == "infeasible")
    assert math.isnan(bad.objective)
    oos_status = {o.epsilons: o.status for o in res.oos}
    assert oos_status[(1.0,)] == "infeasible"
    assert oos_status[(0.0,)] == "optimal"
    # One record per cell: the grid's list and the oos list share it.
    assert next(o for o in res.oos if o.epsilons == (1.0,)) is bad
    assert math.isnan(bad.violation)
    assert bad.n_samples == 0


def test_sweep_tables_leave_failed_cell_values_empty(tmp_path):
    """A failed cell's NaN values are empty cells in the sweep tables."""
    cfg = SweepConfig(grid=(1.0, 0.005), oos_samples=50)
    write_sweep_csvs(run_sweep(undersized_network(), cfg), tmp_path)
    rows = (tmp_path / "objectives.csv").read_text().splitlines()
    assert rows[0] == "eps1,objective,objective_tightened,phi,status"
    assert rows[2:] == ["1,,,,infeasible"]
    assert "1,,0,infeasible" in (tmp_path / "oos.csv").read_text().splitlines()


def test_run_sweep_failing_cell_fails_alone(case5, monkeypatch):
    """A solver error in one cell's re-run, warm and then cold, is
    recorded; the sweep goes on."""
    calls = []
    run_highs = lp._run_highs

    def flaky(highs, model):
        calls.append(model.num_constraints)
        if len(calls) in (2, 3):  # the first cell's tightening re-run
            raise SolverError("highs failed: injected")
        return run_highs(highs, model)

    monkeypatch.setattr(lp, "_run_highs", flaky)
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=50)
    res = run_sweep(case5, cfg)
    assert calls[1] < calls[0]  # the re-run drops the idle balancers' rows
    status = {c.epsilons: c.status for c in res.cells}
    assert status.pop((1.0, 1.0)) == "error"
    assert set(status.values()) == {"optimal"}
    failed = next(c for c in res.cells if c.epsilons == (1.0, 1.0))
    assert "SolverError" in failed.message
    oos_status = {o.epsilons: o.status for o in res.oos}
    assert oos_status.pop((1.0, 1.0)) == "error"
    assert set(oos_status.values()) == {"optimal"}


def test_a_build_error_leaves_run_sweep(case5, monkeypatch):
    """Every cell edits the sweep's one model, so a build error is the
    sweep's: it leaves ``run_sweep`` as raised, before any cell is
    solved."""
    solved = []

    def failing(network, data, gamma):
        raise InputError("no model here")

    monkeypatch.setattr(opf_model, "build_msdro_opf", failing)
    monkeypatch.setattr(evaluation, "_solve_cell",
                        lambda *args: solved.append(args))
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    with pytest.raises(InputError, match="^no model here$"):
        run_sweep(case5, cfg)
    assert solved == []


def cell_values(cell) -> list:
    """A cell's numbers: objectives, phi, out-of-sample rate, dispatch and
    transport multipliers."""
    dec, value = cell.decision, cell.data_value
    return [cell.objective, cell.objective_tightened, cell.phi,
            cell.violation, cell.n_samples,
            *([] if dec is None else [dec.p, dec.r_plus, dec.r_minus, dec.alpha]),
            *([] if value is None else [value.lambda_co, value.lambda_cc])]


def test_a_cell_that_raises_on_a_thread_fails_alone(case5, monkeypatch):
    """A solver error in one cell, found by its budgets since the threads'
    solves interleave, fails that cell as ``error``; every other cell is
    the serial sweep's, bit for bit."""
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    serial = {c.epsilons: c for c in run_sweep(case5, cfg).oos}
    solve = opf_model.solve

    def failing(built):
        if tuple(built.data.epsilons.tolist()) == (0.1, 0.1):
            raise SolverError("highs failed: injected")
        return solve(built)

    monkeypatch.setattr(opf_model, "solve", failing)
    res = run_sweep(case5, cfg, jobs=2)
    assert [c.epsilons for c in res.oos] == sorted(serial)
    for cell in res.oos:
        if cell.epsilons == (0.1, 0.1):
            assert cell.status == "error"
            assert cell.message == "SolverError: highs failed: injected"
            continue
        want = cell_values(serial[cell.epsilons])
        got = cell_values(cell)
        assert cell.status == "optimal"
        assert len(got) == len(want)
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got, want)), cell.epsilons


def test_training_matrix_shape_and_oos_orientation(case5):
    train = training_matrix(case5, 20, seed=3)
    assert train.shape == (case5.num_resources, 20)
    oos = oos_matrix(case5, np.array([0.1, 0.1]), 50, seed=3)
    assert oos.shape == (50, case5.num_resources)
