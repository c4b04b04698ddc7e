"""Dual-based data valuation for the robust OPF solution.

Everything in this module is post-processing: given an optimal solution,
it reads the duals it prices off the solution's LP, by family, and
computes the marginal value of data quality

    dL/deps_j = lambda_co_j + phi * lambda_cc_j

once, in ``marginal_data_value``; the forecast value's pi_D and the
envelope check take it from there. It classifies each feature's regime
against the offline threshold and decomposes the marginal value of the
forecast u_j into the locational price minus the balancing and reserve
contributions.  The decomposition follows the price convention of the
model's dual layer: equality duals are taken as written (rhs
sensitivities), inequality duals as nonnegative multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dro_core import (DEGENERACY_BAND, BoxSupport, MultiDataset,
                       mean_transport_room)
from .errors import InputError
from .network import Network
from .opf_model import SolutionWithDuals, solve_msdro_opf

REGIME_TOL = 1e-6

ROBUST_IGNORED = "robust-ignored"
DATA_INFORMED = "data-informed"
MIXED = "mixed/degenerate"


@dataclass(frozen=True)
class DataValueReport:
    """Per-feature marginal value of data quality at an optimum."""

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
class EnvelopeCheck:
    finite_difference: float
    analytic: float
    degenerate: bool


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


def marginal_data_value(sol: SolutionWithDuals) -> DataValueReport:
    """Read dL/deps_j = lambda_co_j + phi lambda_cc_j off the duals.

    ``phi`` is the ``cvar_budget`` multiplier. Where ``lambda_cc`` is zero
    on every feature it is a degenerate dual, not a price: the objective
    does not depend on it, its value follows the LP's formulation and the
    solver's path, and the marginal value is ``lambda_co`` alone. A
    feature with ``eps_j == 0`` is ``mixed/degenerate``: the zero budget
    fixes its multipliers at 0, so they do not price the budget there.
    """
    sol.require_optimal()
    built = sol.built
    phi = float(sol.lp_solution.family_multipliers("cvar_budget"))
    lambda_co = sol.lambda_co.copy()
    lambda_cc = sol.lambda_cc.copy()
    marginal = lambda_co + phi * lambda_cc
    thresholds = offline_thresholds(built.data, built.support)
    eps = built.data.epsilons
    regimes = tuple(MIXED if eps[j] == 0 else
                    classify_regime(lambda_co[j], lambda_cc[j])
                    for j in range(len(lambda_co)))
    return DataValueReport(
        lambda_co=lambda_co,
        lambda_cc=lambda_cc,
        phi=phi,
        marginal_value=marginal,
        threshold=thresholds,
        regime=regimes,
    )


def forecast_value_decomposition(sol: SolutionWithDuals) -> ForecastValueReport:
    """Split dL/du_j into price, balancing, and reserve contributions, on
    the instance ``sol`` was solved for.

    Term (a) is the LMP at the resource bus: the balance dual plus the
    congestion component through the flow sensitivities.  Terms (b) and
    (c) come from the support ends, which move by -kappa_j per unit of u_j:
    the objective weighs the activation block's positive parts p, q by the
    mean distances to the upper and lower end, and each CVaR row (i, k)
    weighs those of the chance-constraint block by the same distances for
    sample i, priced at eta_ik.  The reserve sum runs over the physical
    rows only; the augmented zero row carries no a'_k, and a pinned
    generator's rows read zero. pi_D is ``marginal_data_value``'s.
    """
    pi_d = marginal_data_value(sol).marginal_value
    built, lps = sol.built, sol.lp_solution
    resources = built.network.resources
    kappa = np.array([r.kappa for r in resources])
    u = np.array([r.u for r in resources])

    x, idx = lps.x, built.idx
    beta = lps.family_duals("lineup") - lps.family_duals("linelo")
    lmp = float(lps.family_duals("bal")) + built.b_w.T @ beta
    balancing = kappa * (x[idx["q_co"]] - x[idx["p_co"]])
    shift = x[idx["q_cc"]] - x[idx["p_cc"]]
    eta = lps.family_multipliers("cc_main")
    reserve = kappa * (shift[:, :-1] @ eta[:, :-1].sum(axis=0))

    pi_f = lmp - balancing - reserve
    remuneration = u * pi_f - built.data.epsilons * pi_d
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
                   j: int) -> EnvelopeCheck:
    """Compare the analytic sensitivity in eps_j against a finite difference.

    The step is delta = 1e-5 eps_j (1e-8 where that is 0): a central
    difference where eps_j - delta stays nonnegative, forward otherwise.
    The check is flagged degenerate (and should not be asserted against)
    when eps_j sits on the offline threshold or when the two perturbed
    solves disagree on the active-set signature.
    """
    if not 0 <= j < data.dimension:
        raise InputError(f"feature index {j} out of range")
    eps = data.epsilons
    delta = 1e-5 * eps[j] or 1e-8

    base = solve_msdro_opf(network, data, gamma)
    report = marginal_data_value(base)
    analytic = float(report.marginal_value[j])
    degenerate = abs(eps[j] - report.threshold[j]) < DEGENERACY_BAND

    def solve_at(value: float) -> SolutionWithDuals:
        shifted = eps.copy()
        shifted[j] = value
        moved = MultiDataset(data.samples, shifted)
        out = solve_msdro_opf(network, moved, gamma)
        out.require_optimal()
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
