"""Experiment harness: sample generation, epsilon sweeps, out-of-sample checks.

A sweep solves the model on every cell of an epsilon grid with one shared
training dataset, re-runs each cell with idle balancers pinned, extracts
the valuation reports, and measures the empirical violation rate of the
joint constraint set on fresh out-of-sample draws whose spread widens
with the claimed budget (S_oos = S + S_pert(eps), E|X|_1 = eps for
X ~ N(0, S_pert)).  Everything is seeded; identical configuration gives
byte-identical CSV files.

Training data is drawn once per sweep (not per cell) so that objective
values are comparable across cells; out-of-sample draws are per cell.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import opf_model
from .data_quality import write_csv
from .dro_core import MultiDataset
from .errors import InputError
from .network import Network, build_support
from .opf_model import (OpfDecision, cvar_tightening_rerun,
                        joint_constraint_rows, risk_level, with_budgets)
from .valuation import (DATA_VALUE_COLUMNS, FORECAST_VALUE_COLUMNS,
                        DataValueReport, ForecastValueReport, data_value_rows,
                        forecast_value_decomposition, forecast_value_rows,
                        marginal_data_value)

S_FRACTION = 0.15
VIOLATION_TOL = 1e-9
DEFAULT_GRID = (1.0, 0.1, 0.005, 0.001)
#: Columns of ``oos.csv`` after the budgets, in ``msdro oos`` and the sweep.
OOS_COLUMNS = ["violation_probability", "n_samples", "status"]


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed from a master seed and any hashable labels."""
    digest = hashlib.sha256(repr((int(master),) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def s_pert(epsilon: float) -> float:
    """Standard deviation with E|X|_1 = epsilon for X ~ N(0, s)."""
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    return epsilon * math.sqrt(math.pi / 2.0)


def _log_sum(x, y):
    """log(exp(x) + exp(y)) for real x, y, as
    ``scipy.special.logsumexp([x, y], axis=0)`` computes it:
    log1p(exp(min - max)) + max (log(2) + max on a tie, the same float),
    and log(exp(x) + exp(y)) where that is not finite."""
    hi = np.maximum(x, y)
    with np.errstate(invalid="ignore"):
        out = np.log1p(np.exp(np.minimum(x, y) - hi)) + hi
    odd = ~np.isfinite(out)
    if odd.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.exp(x) + np.exp(y))
        out[odd] = np.broadcast_to(direct, out.shape)[odd]
    return out


def _log_diff(x: float, y: float) -> float:
    """log(exp(x) - exp(y)) for x >= y, as ``scipy.stats.truncnorm``
    computes it: the real part of ``logsumexp([x, y + pi i])``, whose
    larger term (the last one on a tie) is factored out."""
    big, small = complex(x, 0.0), complex(y, math.pi)
    if y >= x:
        big, small = small, big
    big, small = np.complex128(big), np.complex128(small)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log1p(np.exp(small - big)) + big
        if not np.isfinite(out):
            out = np.log(np.exp(big) + np.exp(small))
    return float(out.real)


def _log_gauss_mass(a: float, b: float) -> float:
    """Log of the standard normal mass on [a, b], a < b, by truncnorm's
    three cases: all left of 0, all right of 0 (mirrored), or around 0."""
    from scipy.special import log1p, log_ndtr, ndtr

    if b <= 0:
        return _log_diff(log_ndtr(b), log_ndtr(a))
    if a > 0:
        return _log_diff(log_ndtr(-a), log_ndtr(-b))
    return float(log1p(-ndtr(a) - ndtr(-b)))


def _truncated_draw(resource, loc: float, scale: float, n: int,
                    seed: int) -> np.ndarray:
    """Normal draws around ``loc`` truncated to the resource's error support."""
    sup = build_support(resource)
    return _draw_between(float(sup.lower[0]), float(sup.upper[0]), loc, scale,
                         n, seed)


def _draw_between(lo: float, up: float, loc: float, scale: float, n: int,
                  seed: int) -> np.ndarray:
    """Normal draws around ``loc`` truncated to [lo, up].

    The same floats as ``scipy.stats.truncnorm.rvs(a, b, loc, scale, n,
    rng)``: its inverse CDF (the form from the left for a < 0, the mirrored
    one otherwise) at ``rng.uniform(size=n)``, scaled and shifted.
    """
    if up - lo <= 0:
        return np.zeros(n)
    if scale <= 0:
        point = min(max(loc, lo), up)
        return np.full(n, point)
    from scipy.special import log_ndtr, ndtri_exp  # slow to load

    q = np.random.default_rng(seed).uniform(size=n)
    a, b = (lo - loc) / scale, (up - loc) / scale
    mass = _log_gauss_mass(a, b)
    with np.errstate(divide="ignore"):  # q = 0 draws the bound itself
        if a < 0:
            x = ndtri_exp(_log_sum(log_ndtr(a), np.log(q) + mass))
        else:
            x = -ndtri_exp(_log_sum(log_ndtr(-b), np.log1p(-q) + mass))
    return x * scale + loc


def generate_training_samples(resource, n: int, seed: int,
                              error_mean: str = "zero") -> np.ndarray:
    """Forecast-error draws for one resource, inside its support interval.

    ``zero`` centers the error distribution at zero (injections drawn
    around the forecast, then shifted back); ``forecast-shift`` keeps the
    raw injection magnitudes as errors, truncated to the same support.
    """
    if error_mean == "zero":
        loc = 0.0
    elif error_mean == "forecast-shift":
        loc = resource.u
    else:
        raise InputError(f"unknown error-mean mode {error_mean!r}")
    return _truncated_draw(resource, loc, S_FRACTION * resource.u, n, seed)


def generate_oos_samples(resource, epsilon: float, n: int,
                         seed: int) -> np.ndarray:
    """Zero-mean out-of-sample errors with spread widened by epsilon."""
    scale = S_FRACTION * resource.u + s_pert(epsilon)
    return _truncated_draw(resource, 0.0, scale, n, seed)


def training_matrix(network: Network, n: int, seed: int,
                    error_mean: str = "zero") -> np.ndarray:
    """D x n standardized error samples, one row per resource."""
    rows = [generate_training_samples(r, n, derive_seed(seed, "train", j),
                                      error_mean)
            for j, r in enumerate(network.resources)]
    return np.vstack(rows) if rows else np.zeros((0, n))


def oos_matrix(network: Network, epsilons, n: int, seed: int) -> np.ndarray:
    """n x D out-of-sample error vectors for a given budget vector."""
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    cell = tuple(float(e) for e in epsilons)
    cols = [generate_oos_samples(r, epsilons[j], n,
                                 derive_seed(seed, "oos", cell, j))
            for j, r in enumerate(network.resources)]
    return np.column_stack(cols) if cols else np.zeros((n, 0))


def violation_rate(a: np.ndarray, b: np.ndarray, samples: np.ndarray) -> float:
    """Fraction of sample vectors violating any row a_k.xi + b_k <= 0;
    NaN when there are no sample vectors, as a rate of nothing is unknown."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) == 0:
        return math.nan
    # One row per constraint, so any() runs down columns, not along short
    # rows; each entry is the same dot product as in samples @ a.T.
    lhs = a @ samples.T + b[:, None]
    return float(np.mean(np.any(lhs > VIOLATION_TOL, axis=0)))


def empirical_violation(decision: OpfDecision, samples: np.ndarray,
                        network: Network, flow_maps: tuple | None = None) -> float:
    """Empirical joint violation probability of a decision on samples.

    ``flow_maps`` is (B_G, B_W) of ``network``, such as the maps a built
    model stores; they are computed from the network when omitted.
    """
    if flow_maps is None:
        from .network import compute_flow_maps
        flow_maps = compute_flow_maps(network)[:2]
    a, b = joint_constraint_rows(decision, *flow_maps)
    return violation_rate(a, b, samples)


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple = DEFAULT_GRID
    n_samples: int = 20
    seed: int = 1
    gamma: float = 0.05
    oos_samples: int = 1000
    error_mean: str = "zero"
    tighten: bool = True
    oos_include_zero: bool = True

    def __post_init__(self):
        risk_level(self.gamma)  # InputError unless 0 <= gamma < 1
        if not self.grid:
            raise InputError("grid needs at least one value")
        if not all(0 <= v < math.inf for v in self.grid):
            raise InputError("grid values must be finite and >= 0, got "
                             f"{list(self.grid)}")
        if len(set(self.grid)) != len(self.grid):
            raise InputError("grid values must be distinct, got "
                             f"{list(self.grid)}")
        if self.n_samples < 1:
            raise InputError("need at least one training sample")
        if self.oos_samples < 0:
            raise InputError("out-of-sample count must be >= 0, got "
                             f"{self.oos_samples}")

    def cells(self, dimension: int) -> list:
        return [cell for cell in product(self.grid, repeat=dimension)]

    def oos_cells(self, dimension: int) -> list:
        grid = self.grid + ((0.0,) if self.oos_include_zero
                            and 0.0 not in self.grid else ())
        return [cell for cell in product(grid, repeat=dimension)]


@dataclass
class CellResult:
    """One swept cell: its solve, valuation and out-of-sample row."""

    epsilons: tuple
    status: str
    message: str = ""
    objective: float = math.nan
    objective_tightened: float = math.nan
    phi: float = math.nan
    data_value: DataValueReport | None = None
    forecast_value: ForecastValueReport | None = None
    activation_price: np.ndarray | None = None
    forecast: np.ndarray | None = None
    decision: OpfDecision | None = None
    violation: float = math.nan
    n_samples: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class SweepResult:
    """Every swept cell in ``oos``, sorted by budgets; ``cells`` holds the
    same records for the cells on the grid."""

    config: SweepConfig
    cells: list
    oos: list


def _pattern_models(network: Network, xs: np.ndarray, cells,
                    gamma: float) -> dict:
    """One built model per zero pattern of the cells' budgets (which
    budgets are positive), built at the first cell with that pattern. A
    pattern whose build fails maps to the error's text instead, which each
    of its cells records."""
    models = {}
    for cell in cells:
        pattern = tuple(e > 0.0 for e in cell)
        if pattern not in models:
            try:
                models[pattern] = opf_model.build_msdro_opf(
                    network, MultiDataset.from_matrix(xs, list(cell)), gamma)
            except Exception as exc:  # recorded by each cell of the pattern
                models[pattern] = f"{type(exc).__name__}: {exc}"
    return models


def _solve_cell(models: dict, eps, config: SweepConfig,
                oos_only: bool = False) -> CellResult:
    """One cell: base solve, tighten, valuation, out-of-sample.

    The cell's LP is its pattern's model from ``_pattern_models`` with the
    cell's budgets written in. With ``oos_only`` (cells outside the main
    grid, zero budgets) the re-run and the valuation are skipped. Any
    failure is recorded in the cell's status, so one cell cannot stop the
    sweep.
    """
    cell = tuple(float(e) for e in eps)
    built = models[tuple(e > 0.0 for e in cell)]
    if isinstance(built, str):
        return CellResult(cell, "error", message=built)
    try:
        base = opf_model.solve(with_budgets(built, cell))
        if not base.optimal:
            return CellResult(cell, base.status)
        samples = oos_matrix(built.network, cell, config.oos_samples,
                             config.seed)
        rate = empirical_violation(base.decision, samples, built.network,
                                   flow_maps=(built.b_g, built.b_w))
        result = (CellResult(cell, "optimal") if oos_only
                  else _cell_result(base, config))
        result.violation, result.n_samples = rate, config.oos_samples
        return result
    except Exception as exc:  # recorded, sweep continues
        return CellResult(cell, "error", message=f"{type(exc).__name__}: {exc}")


def _cell_result(base, config: SweepConfig) -> CellResult:
    """Tightening re-run and valuation of an optimal base solve."""
    tightened = cvar_tightening_rerun(first=base) if config.tighten else base
    network = base.built.network
    c_act = np.array([g.c_A for g in network.generators])
    data_value = marginal_data_value(base)
    return CellResult(
        tuple(base.built.data.epsilons.tolist()), "optimal",
        objective=base.objective,
        objective_tightened=tightened.objective,
        phi=data_value.phi,
        data_value=data_value,
        forecast_value=forecast_value_decomposition(base),
        activation_price=c_act @ base.decision.alpha,
        forecast=network.forecast_vector(),
        decision=base.decision,
    )


def _pooled_result(future, eps) -> CellResult:
    """A worker's cell, or an ``error`` cell when a worker process died
    before it finished; such a cell is not solved again here."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return CellResult(tuple(float(e) for e in eps), "error",
                          message=f"worker process died: {exc}")


#: The sweep's per-pattern models in a worker process, set once by
#: ``_start_worker`` and read by every cell the worker solves.
_worker_models: dict = {}


def _start_worker(models: dict) -> None:
    """Pool initializer: keep the models for the worker's cells."""
    global _worker_models
    _worker_models = models


def _solve_pooled(eps, config: SweepConfig, oos_only: bool) -> CellResult:
    """``_solve_cell`` on the models the worker was started with."""
    return _solve_cell(_worker_models, eps, config, oos_only)


def run_sweep(network: Network, config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Solve every grid cell on one shared training dataset, in up to
    ``jobs`` worker processes (one per cell at most).

    One model is built per zero pattern of the budgets, here, and each cell
    writes its budgets into its pattern's model; workers get the models
    once, when they start.
    """
    dim = network.num_resources
    if dim == 0:
        raise InputError("sweep needs at least one uncertain resource")
    xs = training_matrix(network, config.n_samples,
                         derive_seed(config.seed, "train"),
                         config.error_mean)
    main_cells = config.cells(dim)
    on_grid = set(main_cells)
    tasks = [(c, False) for c in main_cells] + [
        (c, True) for c in config.oos_cells(dim) if c not in on_grid]
    models = _pattern_models(network, xs, [c for c, _ in tasks], config.gamma)

    if jobs > 1:
        # No more workers than cells: the pool may start all of them at once.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_start_worker,
                                 initargs=(models,)) as pool:
            futures = [pool.submit(_solve_pooled, c, config, oos_only)
                       for c, oos_only in tasks]
            results = [_pooled_result(f, c) for f, (c, _) in zip(futures, tasks)]
    else:
        results = [_solve_cell(models, c, config, oos_only)
                   for c, oos_only in tasks]

    results.sort(key=lambda c: c.epsilons)
    return SweepResult(config, [c for c in results if c.epsilons in on_grid],
                       results)


def write_sweep_csvs(result: SweepResult, outdir) -> list:
    """Emit the five table analogues plus plot data; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dim = len(result.cells[0].epsilons)
    solved = [c for c in result.cells if c.optimal]
    written = []

    def emit(name: str, header: list, rows) -> None:
        """One CSV: the cell's budgets, then the row's values."""
        path = outdir / name
        write_csv(path, [f"eps{j + 1}" for j in range(dim)] + header,
                  (eps + tuple(values) for eps, values in rows), nan="")
        written.append(path)

    def per_feature(values) -> list:
        return [(c.epsilons, [j + 1] + values(c, j))
                for c in solved for j in range(dim)]

    emit("objectives.csv", ["objective", "objective_tightened", "phi", "status"],
         [(c.epsilons, [c.objective, c.objective_tightened, c.phi, c.status])
          for c in result.cells])
    emit("lambdas.csv", ["feature", "lambda_co", "lambda_cc"],
         per_feature(lambda c, j: [c.data_value.lambda_co[j],
                                   c.data_value.lambda_cc[j]]))
    emit("dispatch.csv", ["generator", "p", "r_plus", "r_minus"]
         + [f"alpha_{j + 1}" for j in range(dim)],
         [(c.epsilons,
           [g + 1, dec.p[g], dec.r_plus[g], dec.r_minus[g], *dec.alpha[g]])
          for c in solved for dec in [c.decision] for g in range(len(dec.p))])
    emit("cost_components.csv",
         ["feature", "activation_price", "u_balancing", "eps_lambda_co",
          "u_reserve", "eps_phi_lambda_cc"],
         per_feature(lambda c, j: [
             c.activation_price[j],
             c.forecast[j] * c.forecast_value.balancing_term[j],
             c.epsilons[j] * c.data_value.lambda_co[j],
             c.forecast[j] * c.forecast_value.reserve_term[j],
             c.epsilons[j] * c.phi * c.data_value.lambda_cc[j]]))
    emit("oos.csv", OOS_COLUMNS,
         [(r.epsilons, [r.violation, r.n_samples, r.status])
          for r in result.oos])
    emit("plotdata_data_value.csv", DATA_VALUE_COLUMNS,
         [(c.epsilons, row) for c in solved
          for row in data_value_rows(c.data_value)])
    emit("plotdata_forecast_value.csv", FORECAST_VALUE_COLUMNS,
         [(c.epsilons, row) for c in solved
          for row in forecast_value_rows(c.forecast_value)])
    return written
