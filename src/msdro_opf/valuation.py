"""Dual-based data valuation for the robust OPF solution.

Everything in this module is post-processing: given an optimal solution
with named duals, it reads off the marginal value of data quality

    dL/deps_j = lambda_co_j + phi * lambda_cc_j,

classifies each feature's regime, predicts the lambda_co dichotomy
offline from the samples alone, and decomposes the marginal value of the
forecast u_j into the locational price minus the balancing and reserve
contributions.  The decomposition follows the price convention of the
model's dual layer: equality duals are taken as written (rhs
sensitivities), inequality duals as nonnegative multipliers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dro_core import (DEGENERACY_BAND, BoxSupport, MultiDataset,
                       mean_transport_room)
from .errors import ExtractionError, InputError
from .network import Network
from .opf_model import SolutionWithDuals, solve_msdro_opf

REGIME_TOL = 1e-6

ROBUST_IGNORED = "robust-ignored"
DATA_INFORMED = "data-informed"
MIXED = "mixed/degenerate"


@dataclass(frozen=True)
class DataValueReport:
    """Per-feature marginal value of data quality at an optimum."""

    epsilons: np.ndarray
    lambda_co: np.ndarray
    lambda_cc: np.ndarray
    phi: float
    marginal_value: np.ndarray
    threshold: np.ndarray
    regime: tuple

    @property
    def dimension(self) -> int:
        return len(self.lambda_co)


@dataclass(frozen=True)
class ForecastValueReport:
    """Decomposition of the forecast value u_j and its remuneration."""

    lmp_term: np.ndarray
    balancing_term: np.ndarray
    reserve_term: np.ndarray
    pi_f: np.ndarray
    pi_d: np.ndarray
    remuneration: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.pi_f)


@dataclass(frozen=True)
class OfflinePrediction:
    """Offline usefulness prediction from thresholds, one entry per feature."""

    threshold: np.ndarray
    predicted_lambda_co: np.ndarray


@dataclass(frozen=True)
class EnvelopeCheck:
    finite_difference: float
    analytic: float
    degenerate: bool


def _require_duals(sol: SolutionWithDuals) -> None:
    if not sol.optimal:
        raise ExtractionError(f"solution status is {sol.status}")


def classify_regime(lambda_co: float, lambda_cc: float) -> str:
    if lambda_co <= REGIME_TOL and lambda_cc <= REGIME_TOL:
        return ROBUST_IGNORED
    if lambda_co > REGIME_TOL and lambda_cc > REGIME_TOL:
        return DATA_INFORMED
    return MIXED


def offline_thresholds(data: MultiDataset, support: BoxSupport) -> np.ndarray:
    """Average distance of each feature's samples to its worst corner, the
    lower end (activation slopes -sum_g c_A_g alpha_gj are not positive)."""
    return mean_transport_room(data, support)[:, 1]


def prop3_offline_check(data: MultiDataset, support: BoxSupport,
                        activation_cost) -> OfflinePrediction:
    """Predict the lambda_co dichotomy before solving anything.

    activation_cost is the per-feature total activation price sum_g
    c_g^A alpha_gj the prediction should snap to on the informative side.
    The threshold is the sample mean distance to the lower support corner;
    budgets at or above it buy nothing beyond the known support.
    """
    thresholds = offline_thresholds(data, support)
    cost = np.atleast_1d(np.asarray(activation_cost, dtype=float))
    if len(cost) != data.dimension:
        raise InputError("need one activation cost per feature")
    predicted = np.where(data.epsilons >= thresholds, 0.0, cost)
    return OfflinePrediction(thresholds, predicted)


def marginal_data_value(sol: SolutionWithDuals) -> DataValueReport:
    """Read dL/deps_j = lambda_co_j + phi lambda_cc_j off the duals.

    ``phi`` is the ``cvar_budget`` multiplier. Where ``lambda_cc`` is zero
    on every feature it is a degenerate dual, not a price: the objective
    does not depend on it, its value follows the LP's formulation and the
    solver's path, and the marginal value is ``lambda_co`` alone.
    """
    _require_duals(sol)
    built = sol.built
    phi = sol.duals.phi
    lam_co = sol.lambda_co.copy()
    lam_cc = sol.lambda_cc.copy()
    marginal = lam_co + phi * lam_cc
    thresholds = offline_thresholds(built.data, built.support)
    regimes = tuple(classify_regime(lam_co[j], lam_cc[j])
                    for j in range(len(lam_co)))
    return DataValueReport(
        epsilons=built.data.epsilons.copy(),
        lambda_co=lam_co,
        lambda_cc=lam_cc,
        phi=phi,
        marginal_value=marginal,
        threshold=thresholds,
        regime=regimes,
    )


def forecast_value_decomposition(sol: SolutionWithDuals, network: Network,
                                 data: MultiDataset) -> ForecastValueReport:
    """Split dL/du_j into price, balancing, and reserve contributions.

    Term (a) is the LMP at the resource bus: the balance dual plus the
    congestion component through the flow sensitivities.  Terms (b) and
    (c) come from the support ends, which move by -kappa_j per unit of u_j:
    the objective weighs the activation block's positive parts p, q by the
    mean distances to the upper and lower end, and each CVaR row (i, k)
    weighs those of the chance-constraint block by the same distances for
    sample i, priced at eta_ik.  The reserve sum runs over the physical
    rows only; the augmented zero row carries no a'_k.
    """
    _require_duals(sol)
    duals = sol.duals
    built = sol.built
    kappa = np.array([r.kappa for r in network.resources])
    u = np.array([r.u for r in network.resources])

    x, idx = sol.lp_solution.x, built.idx
    lmp = duals.pi + built.b_w.T @ (duals.beta_up - duals.beta_lo)
    balancing = kappa * (x[idx["q_co"]] - x[idx["p_co"]])
    k_phys = built.num_cc_rows
    shift = x[idx["q_cc"]] - x[idx["p_cc"]]
    reserve = kappa * (shift[:, :k_phys] @ duals.eta[:, :k_phys].sum(axis=0))

    pi_f = lmp - balancing - reserve
    pi_d = sol.lambda_co + duals.phi * sol.lambda_cc
    remuneration = u * pi_f - data.epsilons * pi_d
    return ForecastValueReport(
        lmp_term=lmp,
        balancing_term=balancing,
        reserve_term=reserve,
        pi_f=pi_f,
        pi_d=pi_d,
        remuneration=remuneration,
    )


def _active_set_signature(sol: SolutionWithDuals):
    alpha_rows = np.all(np.abs(sol.decision.alpha) <= REGIME_TOL, axis=1)
    return (tuple(sol.lambda_co > REGIME_TOL),
            tuple(sol.lambda_cc > REGIME_TOL), tuple(alpha_rows))


def envelope_check(network: Network, data: MultiDataset, gamma: float,
                   j: int, delta: float | None = None) -> EnvelopeCheck:
    """Compare the analytic sensitivity in eps_j against a finite difference.

    Central difference where eps_j - delta stays nonnegative, forward
    difference otherwise.  The check is flagged degenerate (and should not
    be asserted against) when eps_j sits on the offline threshold or when
    the two perturbed solves disagree on the active-set signature.
    """
    if not 0 <= j < data.dimension:
        raise InputError(f"feature index {j} out of range")
    eps = data.epsilons
    if delta is None:
        delta = 1e-5 * eps[j] if eps[j] > 0 else 1e-8
    if delta <= 0:
        raise InputError("delta must be > 0")

    base = solve_msdro_opf(network, data, gamma)
    _require_duals(base)
    analytic = float(base.lambda_co[j] + base.duals.phi * base.lambda_cc[j])
    threshold = offline_thresholds(base.built.data, base.built.support)[j]
    degenerate = abs(eps[j] - threshold) < DEGENERACY_BAND

    def solve_at(value: float) -> SolutionWithDuals:
        shifted = eps.copy()
        shifted[j] = value
        moved = MultiDataset(data.samples, shifted)
        out = solve_msdro_opf(network, moved, gamma)
        _require_duals(out)
        return out

    hi = solve_at(eps[j] + delta)
    if eps[j] - delta >= 0:
        lo = solve_at(eps[j] - delta)
        fd = (hi.objective - lo.objective) / (2 * delta)
    else:
        lo = base
        fd = (hi.objective - base.objective) / delta
    if _active_set_signature(hi) != _active_set_signature(lo):
        degenerate = True
    return EnvelopeCheck(finite_difference=float(fd), analytic=analytic,
                         degenerate=degenerate)


DATA_VALUE_COLUMNS = ["feature", "lambda_co", "lambda_cc", "phi",
                      "marginal_value", "threshold", "regime"]
FORECAST_VALUE_COLUMNS = ["feature", "lmp_term", "balancing_term",
                          "reserve_term", "pi_F", "pi_D", "remuneration"]


def fmt(x, nan: str = "nan") -> str:
    """A float with ten significant digits (``nan`` for NaN, ``0`` for
    -0.0), anything else with ``str``: how the CSVs and the CLI print
    values."""
    if not isinstance(x, float):
        return str(x)
    return nan if math.isnan(x) else f"{x + 0.0:.10g}"  # -0.0 + 0.0 is 0.0


def write_csv(path, header, rows, nan: str = "nan") -> None:
    """Write one result table: the header, then every row's cells through
    ``fmt``. The solve tables keep the default ``nan``; the sweep tables
    pass ``nan=""`` so a failed cell's values are empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v, nan) for v in row] for row in rows)


def data_value_rows(report: DataValueReport) -> list:
    """One row per feature under ``DATA_VALUE_COLUMNS``, values unformatted."""
    return [[j + 1, report.lambda_co[j], report.lambda_cc[j], report.phi,
             report.marginal_value[j], report.threshold[j], report.regime[j]]
            for j in range(report.dimension)]


def forecast_value_rows(report: ForecastValueReport) -> list:
    """One row per feature under ``FORECAST_VALUE_COLUMNS``, unformatted."""
    return [[j + 1, report.lmp_term[j], report.balancing_term[j],
             report.reserve_term[j], report.pi_f[j], report.pi_d[j],
             report.remuneration[j]]
            for j in range(report.dimension)]


def write_data_value_csv(path, report: DataValueReport) -> None:
    write_csv(path, DATA_VALUE_COLUMNS, data_value_rows(report))


def write_forecast_value_csv(path, report: ForecastValueReport) -> None:
    write_csv(path, FORECAST_VALUE_COLUMNS, forecast_value_rows(report))
