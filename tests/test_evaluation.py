"""Sample generation, violation estimation, and the budget-sweep harness."""

import filecmp
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.stats import truncnorm

from msdro_opf import evaluation, lp
from msdro_opf.errors import InputError
from msdro_opf.evaluation import (DEFAULT_GRID, S_FRACTION, SweepConfig,
                                  derive_seed, empirical_violation,
                                  generate_oos_samples,
                                  generate_training_samples, oos_matrix,
                                  run_sweep, s_pert, training_matrix,
                                  violation_rate, write_sweep_csvs)
from msdro_opf.lp import SolverError
from msdro_opf.network import (Generator, Line, Network, Resource,
                               build_support)

from oracles import bits, truncnorm_draws

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


def test_training_samples_inside_support_and_deterministic():
    box = build_support(RESOURCE)
    xs = generate_training_samples(RESOURCE, 500, seed=9)
    assert xs.min() >= box.lower[0] - 1e-12
    assert xs.max() <= box.upper[0] + 1e-12
    np.testing.assert_array_equal(
        xs, generate_training_samples(RESOURCE, 500, seed=9))
    assert not np.array_equal(
        xs, generate_training_samples(RESOURCE, 500, seed=10))


def test_training_sample_mean_is_near_zero():
    n = 4000
    xs = generate_training_samples(RESOURCE, n, seed=11)
    s = S_FRACTION * RESOURCE.u
    assert abs(xs.mean()) <= 3 * s / math.sqrt(n)


def test_training_forecast_shift_mode():
    n = 4000
    xs = generate_training_samples(RESOURCE, n, seed=11,
                                   error_mean="forecast-shift")
    # Draws centered on u but truncated to the error support pile up near
    # the upper end; compare against the analytic truncated-normal mean.
    box = build_support(RESOURCE)
    s = S_FRACTION * RESOURCE.u
    a = (box.lower[0] - RESOURCE.u) / s
    b = (box.upper[0] - RESOURCE.u) / s
    expect = truncnorm.mean(a, b, loc=RESOURCE.u, scale=s)
    spread = truncnorm.std(a, b, loc=RESOURCE.u, scale=s)
    assert abs(xs.mean() - expect) <= 3 * spread / math.sqrt(n)
    assert xs.max() <= box.upper[0] + 1e-12
    with pytest.raises(InputError):
        generate_training_samples(RESOURCE, 10, seed=1, error_mean="bogus")


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
    box = build_support(RESOURCE)
    xs = generate_oos_samples(RESOURCE, 0.0, 40_000, seed=13)
    assert xs.min() >= box.lower[0] and xs.max() <= box.upper[0]
    s = S_FRACTION * RESOURCE.u
    a, b = box.lower[0] / s, box.upper[0] / s
    expect = truncnorm.std(a, b, scale=s)
    assert xs.std() == pytest.approx(expect, rel=0.02)


def test_oos_samples_widen_with_budget():
    narrow = generate_oos_samples(RESOURCE, 0.0, 20_000, seed=17)
    wide = generate_oos_samples(RESOURCE, 0.2, 20_000, seed=17)
    assert wide.std() > narrow.std()


def test_violation_rate_against_truncated_normal_tail():
    cut = 0.25
    n = 50_000
    xs = generate_oos_samples(RESOURCE, 0.05, n, seed=19)
    a = np.array([[1.0]])
    b = np.array([-cut])
    got = violation_rate(a, b, xs[:, None])
    s = S_FRACTION * RESOURCE.u + s_pert(0.05)
    box = build_support(RESOURCE)
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
    cfg = SweepConfig(grid=(1.0, 0.005), oos_samples=60)
    serial = write_sweep_csvs(run_sweep(case5, cfg, jobs=1), tmp_path / "s")
    parallel = write_sweep_csvs(run_sweep(case5, cfg, jobs=2), tmp_path / "p")
    for fa, fb in zip(sorted(serial), sorted(parallel)):
        assert filecmp.cmp(fa, fb, shallow=False)


def test_run_sweep_starts_no_more_workers_than_cells(case5, monkeypatch):
    """``jobs`` above the cell count asks the pool for one worker per cell.
    The pool is replaced by one that runs its initializer and each cell in
    this process and records its size, so no worker process is started."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=20)
    cells = len(cfg.oos_cells(2))  # the grid's 4 cells and the zero cells
    for jobs, want in ((2, 2), (cells, cells), (10**6, cells)):
        run_sweep(case5, cfg, jobs=jobs)
        assert sizes.pop() == want, jobs


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
    """A solver error in one cell's re-run is recorded; the sweep goes on."""
    calls = []
    run_highs = lp._run_highs

    def flaky(highs, model):
        calls.append(model.num_constraints)
        if len(calls) == 2:  # the first cell's tightening re-run
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


def test_a_pattern_that_fails_to_build_fails_its_cells(case5, monkeypatch):
    """Cells share one build per zero pattern, so a build error is recorded
    on every cell of its pattern, and only there."""
    from msdro_opf import opf_model

    build = opf_model.build_msdro_opf

    def failing(network, data, gamma):
        if data.epsilons[0] == 0.0 and data.epsilons[1] > 0.0:
            raise InputError("no model here")
        return build(network, data, gamma)

    monkeypatch.setattr(opf_model, "build_msdro_opf", failing)
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    res = run_sweep(case5, cfg)
    for cell in res.oos:
        if cell.epsilons[0] == 0.0 and cell.epsilons[1] > 0.0:
            assert (cell.status, cell.message) == ("error",
                                                   "InputError: no model here")
        else:
            assert cell.optimal, cell.epsilons
    assert sum(c.status == "error" for c in res.oos) == 2


_solve_cell = evaluation._solve_cell


def _die_at_cell(models, eps, config, oos_only=False):
    """``_solve_cell``, except that its process dies at cell (0.1, 0.1)."""
    if tuple(eps) == (0.1, 0.1):
        os._exit(9)
    return _solve_cell(models, eps, config, oos_only)


def cell_values(cell) -> list:
    """A cell's numbers: objectives, phi, out-of-sample rate, dispatch and
    transport multipliers."""
    dec, value = cell.decision, cell.data_value
    return [cell.objective, cell.objective_tightened, cell.phi,
            cell.violation, cell.n_samples,
            *([] if dec is None else [dec.p, dec.r_plus, dec.r_minus, dec.alpha]),
            *([] if value is None else [value.lambda_co, value.lambda_cc])]


def test_run_sweep_survives_a_worker_that_dies(case5, monkeypatch):
    """A worker killed mid-cell fails its cell, and any other the pool had
    not finished, as ``error``; the cells that finished are the serial
    sweep's."""
    cfg = SweepConfig(grid=(1.0, 0.1), n_samples=5, oos_samples=10)
    serial = {c.epsilons: c for c in run_sweep(case5, cfg).oos}
    monkeypatch.setattr(evaluation, "_solve_cell", _die_at_cell)
    res = run_sweep(case5, cfg, jobs=2)
    assert [c.epsilons for c in res.oos] == sorted(serial)
    killed = next(c for c in res.oos if c.epsilons == (0.1, 0.1))
    assert killed.status == "error"
    assert killed.message.startswith("worker process died: ")
    assert any(c.optimal for c in res.oos)  # the first two cells come first
    for cell in res.oos:
        if cell.status == "error":
            assert cell.message == killed.message
            continue
        want = cell_values(serial[cell.epsilons])
        got = cell_values(cell)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got, want)), cell.epsilons


def test_training_matrix_shape_and_oos_orientation(case5):
    train = training_matrix(case5, 20, seed=3)
    assert train.shape == (case5.num_resources, 20)
    oos = oos_matrix(case5, np.array([0.1, 0.1]), 50, seed=3)
    assert oos.shape == (50, case5.num_resources)
