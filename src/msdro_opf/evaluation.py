"""Experiment harness: error draws, epsilon sweeps, out-of-sample checks.

Every error sample is a truncated normal draw by ``_draw_between``, one
call per resource, between that resource's bounds in the network's joint
support (``build_joint_support``). Training errors have spread
S = S_FRACTION u around 0 (around u with ``forecast-shift``);
out-of-sample errors are centred at 0 with the spread widened by the
claimed budget (S_oos = S + S_pert(eps), E|X|_1 = eps for X ~ N(0, S_pert)).

A sweep builds the model once, on one shared training dataset, solves it
on every cell of an epsilon grid with the cell's budgets written in,
extracts the valuation reports from that solve, re-runs each cell with
idle balancers pinned for its objective only, and measures the empirical
violation rate of the joint constraint set on the cell's out-of-sample
draws (``out_of_sample``, which ``msdro oos`` calls too). Cells of the
added zero column get the solve and that check only. A failed solve
fails its cell; a failed build fails the sweep. Everything
is seeded; identical configuration gives byte-identical CSV files, also
when ``jobs`` threads solve the cells at once (HiGHS releases the GIL
while it runs).

Training data is drawn once per sweep (not per cell) so that objective
values are comparable across cells; out-of-sample draws are per cell.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import opf_model
from .data_quality import write_csv
from .dro_core import MultiDataset
from .errors import InputError, is_integer, real
from .network import Network, build_joint_support
from .opf_model import (OpfDecision, SolutionWithDuals, cvar_tightening_rerun,
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
#: Where training errors are centred (``training_matrix``).
ERROR_MEANS = ("zero", "forecast-shift")


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


def training_matrix(network: Network, n: int, seed: int,
                    error_mean: str = "zero") -> np.ndarray:
    """D x n training errors, one row per resource, inside its support.

    ``zero`` centers the error distribution at zero (injections drawn
    around the forecast, then shifted back); ``forecast-shift`` keeps the
    raw injection magnitudes as errors, truncated to the same support.
    """
    if error_mean not in ERROR_MEANS:
        raise InputError(f"unknown error-mean mode {error_mean!r}")
    support = build_joint_support(network)
    rows = [_draw_between(support.lower[j], support.upper[j],
                          r.u if error_mean == "forecast-shift" else 0.0,
                          S_FRACTION * r.u, n, derive_seed(seed, "train", j))
            for j, r in enumerate(network.resources)]
    return np.vstack(rows) if rows else np.zeros((0, n))


#: How ``oos_matrix`` seeds the draws of each feature of a cell.
OOS_SEED_SCHEME = "sha256(seed,'oos',cell,feature)"


def oos_matrix(network: Network, epsilons, n: int, seed: int) -> np.ndarray:
    """n x D zero-mean out-of-sample errors for a budget vector, inside the
    support, with each spread widened by its budget."""
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if len(epsilons) != network.num_resources:
        raise InputError(f"got {len(epsilons)} budgets for "
                         f"{network.num_resources} uncertain resources")
    cell = tuple(float(e) for e in epsilons)
    support = build_joint_support(network)
    cols = [_draw_between(support.lower[j], support.upper[j], 0.0,
                          S_FRACTION * r.u + s_pert(epsilons[j]), n,
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


def out_of_sample(sol: SolutionWithDuals, n: int, seed: int) -> float:
    """Empirical joint violation rate of an optimal solution's decision on
    ``n`` out-of-sample draws (``oos_matrix``) at its budgets, against the
    flow maps its model was built with; ``SolverError`` unless optimal."""
    sol.require_optimal()
    built = sol.built
    samples = oos_matrix(built.network, built.data.epsilons, n, seed)
    return empirical_violation(sol.decision, samples, built.network,
                               flow_maps=(built.b_g, built.b_w))


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple = DEFAULT_GRID
    n_samples: int = 20
    seed: int = 1
    gamma: float = 0.05
    oos_samples: int = 1000
    error_mean: str = "zero"
    oos_include_zero: bool = True

    def __post_init__(self):
        risk_level(self.gamma)  # InputError unless 0 <= gamma < 1
        if not isinstance(self.grid, tuple) or not self.grid:
            raise InputError(f"grid must be a tuple of at least one value, "
                             f"got {self.grid!r}")
        grid = [real("a grid value", v) for v in self.grid]
        if not all(0 <= v < math.inf for v in grid) or len(set(grid)) < len(grid):
            raise InputError("grid values must be finite, >= 0 and distinct, "
                             f"got {list(self.grid)}")
        for name in ("n_samples", "oos_samples", "seed"):
            if not is_integer(value := getattr(self, name)):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.oos_include_zero, bool):
            raise InputError("oos_include_zero must be True or False, got "
                             f"{self.oos_include_zero!r}")
        if self.error_mean not in ERROR_MEANS:
            raise InputError(f"unknown error-mean mode {self.error_mean!r}")
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


def _solve_cell(built, eps, config: SweepConfig) -> CellResult:
    """One cell: base solve, tighten, valuation, out-of-sample.

    The cell's LP is the sweep's one model with the cell's budgets written
    in (``with_budgets``; a zero budget leaves its feature's rows out). A
    cell with a budget off ``config.grid`` (in the added zero column) skips
    the re-run and the valuation. Any failure is recorded in the cell's
    status, so one cell cannot stop the sweep.
    """
    cell = tuple(float(e) for e in eps)
    try:
        base = opf_model.solve(with_budgets(built, cell))
        if not base.optimal:
            return CellResult(cell, base.status)
        rate = out_of_sample(base, config.oos_samples, config.seed)
        result = (_cell_result(base)
                  if all(e in config.grid for e in cell)
                  else CellResult(cell, "optimal"))
        result.violation, result.n_samples = rate, config.oos_samples
        return result
    except Exception as exc:  # recorded, sweep continues
        return CellResult(cell, "error", message=f"{type(exc).__name__}: {exc}")


def _cell_result(base) -> CellResult:
    """Valuation and tightened objective of an optimal base solve."""
    tightened = cvar_tightening_rerun(first=base)
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


def run_sweep(network: Network, config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Solve every grid cell on one shared training dataset, on up to
    ``jobs`` threads (an integer >= 1; one per cell at most).

    One model is built here, at positive budgets so that it has every
    feature's rows, with the row layout and column structure the positive
    cells share; each cell writes its budgets into a copy (``with_budgets``),
    so threads never write to the model. A build error leaves the sweep, as
    does an exception that leaves a cell, such as ``KeyboardInterrupt``;
    the cells not yet started never run.
    """
    if not (is_integer(jobs) and jobs >= 1):
        raise InputError(f"jobs must be an integer >= 1, got {jobs!r}")
    dim = network.num_resources
    xs = training_matrix(network, config.n_samples,
                         derive_seed(config.seed, "train"),
                         config.error_mean)
    # Grid cells first, then the zero column: the order the threads start them.
    grid_cells = config.cells(dim)
    on_grid = set(grid_cells)
    tasks = grid_cells + [c for c in config.oos_cells(dim) if c not in on_grid]
    built = opf_model.build_msdro_opf(
        network, MultiDataset.from_matrix(xs, [1.0] * dim), config.gamma)

    if jobs > 1:
        pool = ThreadPoolExecutor(max_workers=min(jobs, len(tasks)))
        try:
            results = list(pool.map(_solve_cell, repeat(built), tasks,
                                    repeat(config)))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [_solve_cell(built, c, config) for c in tasks]

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
