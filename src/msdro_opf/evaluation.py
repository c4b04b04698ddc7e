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
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .dro_core import MultiDataset
from .errors import InputError
from .network import Network, build_support
from .opf_model import (OpfDecision, cvar_tightening_rerun,
                        joint_constraint_rows, risk_level, solve_msdro_opf)
from .valuation import (DATA_VALUE_COLUMNS, FORECAST_VALUE_COLUMNS,
                        DataValueReport, ForecastValueReport, data_value_rows,
                        forecast_value_decomposition, forecast_value_rows,
                        marginal_data_value, write_csv)

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


def _truncated_draw(resource, loc: float, scale: float, n: int,
                    seed: int) -> np.ndarray:
    """Normal draws around ``loc`` truncated to the resource's error support."""
    sup = build_support(resource)
    lo, up = float(sup.lower[0]), float(sup.upper[0])
    if up - lo <= 0:
        return np.zeros(n)
    if scale <= 0:
        point = min(max(loc, lo), up)
        return np.full(n, point)
    from scipy.stats import truncnorm  # imported here: it is slow to load

    rng = np.random.default_rng(seed)
    a, b = (lo - loc) / scale, (up - loc) / scale
    return truncnorm.rvs(a, b, loc=loc, scale=scale, size=n, random_state=rng)


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
    lhs = samples @ a.T + b
    return float(np.mean(np.any(lhs > VIOLATION_TOL, axis=1)))


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


def _solve_cell(network: Network, xs: np.ndarray, eps, config: SweepConfig,
                oos_only: bool = False) -> CellResult:
    """One cell: base solve, tighten, valuation, out-of-sample.

    With ``oos_only`` (cells outside the main grid, zero budgets) the
    re-run and the valuation are skipped. Any failure is recorded in the
    cell's status, so one cell cannot stop the sweep.
    """
    cell = tuple(float(e) for e in eps)
    try:
        data = MultiDataset.from_matrix(xs, list(cell))
        base = solve_msdro_opf(network, data, config.gamma)
        if not base.optimal:
            return CellResult(cell, base.status)
        samples = oos_matrix(network, cell, config.oos_samples, config.seed)
        rate = empirical_violation(base.decision, samples, network,
                                   flow_maps=(base.built.b_g, base.built.b_w))
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


def run_sweep(network: Network, config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Solve every grid cell on one shared training dataset, in up to
    ``jobs`` worker processes (one per cell at most)."""
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

    if jobs > 1:
        # No more workers than cells: the pool may start all of them at once.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(_solve_cell, network, xs, c, config, oos_only)
                       for c, oos_only in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_solve_cell(network, xs, c, config, oos_only)
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
