"""Chance-constrained DC-OPF over the multi-source Wasserstein ambiguity set.

The model decides setpoints p, participation factors A (response to forecast
errors is p(xi) = p - A xi), reserve capacities r+/r- and remaining line
margins f_RAM+/f_RAM-. The objective carries the exact worst-case expected
reserve activation cost (separable reformulation). The joint chance
constraint on reserves and line margins is replaced by its CVaR inner
approximation at level gamma, whose worst-case expectation uses the
standardized (shared sample index) reformulation with one augmented
all-zero row capturing the positive part. Both blocks are
``dro_core.wasserstein_block``s, one column pair per (feature, row).

Duals are read per constraint family, as arrays. Sign convention: equality
duals are shadow prices d(objective)/d(rhs) with constraints oriented as
documented on each row below; inequality duals are nonnegative KKT
multipliers. This is the convention under which the forecast-value
decomposition identities of the valuation module hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dro_core import (BoxSupport, MultiDataset, sample_worst_case,
                       transport_room, wasserstein_block)
from .errors import InputError, real
from .lp import EQ, GE, INFINITY, LE, LpSolution, Model, SolverError, family
from .network import Network, build_joint_support, compute_flow_maps

#: Participation below this is treated as zero when picking re-run candidates.
PARTICIPATION_TOL = 1e-9


def risk_level(gamma) -> float:
    """The joint chance constraint's violation budget as a float;
    ``InputError`` unless it is a number with 0 <= gamma < 1."""
    gamma = real("gamma", gamma)
    if not 0.0 <= gamma < 1.0:
        raise InputError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma


@dataclass
class OpfDecision:
    p: np.ndarray
    alpha: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    f_ram_plus: np.ndarray
    f_ram_minus: np.ndarray


@dataclass
class OpfModel:
    """A built (not yet solved) instance plus the index bookkeeping;
    ``fixed_zero_participation`` holds the generators the tightening re-run
    pinned out of the CVaR."""

    model: Model
    network: Network
    data: MultiDataset
    support: BoxSupport
    b_g: np.ndarray
    b_w: np.ndarray
    idx: dict
    fixed_zero_participation: frozenset = frozenset()


@dataclass
class SolutionWithDuals:
    """The LP solution of ``built`` and what is read off it once: the
    decision, both blocks' multipliers and the activation block's worst
    case per sample, each ``None`` unless the solve ended optimal. Duals
    are read from ``lp_solution`` by family (signs in the module
    docstring)."""

    built: OpfModel
    lp_solution: LpSolution
    decision: OpfDecision | None = None
    lambda_co: np.ndarray | None = None
    lambda_cc: np.ndarray | None = None
    s_co: np.ndarray | None = None

    @property
    def status(self) -> str:
        return self.lp_solution.status

    @property
    def objective(self) -> float:
        """The LP's objective; NaN unless optimal."""
        return self.lp_solution.objective

    @property
    def optimal(self) -> bool:
        return self.lp_solution.optimal

    def require_optimal(self) -> None:
        """``SolverError`` unless the solve ended optimal."""
        if not self.optimal:
            raise SolverError(f"solution status is {self.status}")

    def activation_cost_block(self) -> float:
        """Worst-case expected activation cost term of the objective."""
        eps = self.built.data.epsilons
        return (float(eps @ self.lambda_co)
                + float(np.sum(self.s_co) / self.s_co.shape[1]))

    def cc_a_matrix(self) -> np.ndarray:
        """Row vectors a'_k at the optimal decision, augmented row last."""
        return joint_constraint_rows(self.decision, self.built.b_g,
                                     self.built.b_w)[0]


def _joint_layout(b_g: np.ndarray, b_w: np.ndarray, margins) -> tuple:
    """Joint-constraint rows [-A; A; B_W - B_G A; -(B_W - B_G A)], then the
    CVaR's augmented zero row: a_k = const[k] + coef[k] @ A, b_k = -margin[k]
    for ``margins`` (r+, r-, f_RAM+, f_RAM-), as values or LP columns."""
    n_g, d = b_g.shape[1], b_w.shape[1]
    coef = np.vstack([-np.eye(n_g), np.eye(n_g), -b_g, b_g, np.zeros((1, n_g))])
    const = np.vstack([np.zeros((2 * n_g, d)), b_w, -b_w, np.zeros((1, d))])
    return coef, const, np.append(np.concatenate(margins), 0)


def joint_constraint_rows(decision: OpfDecision, b_g: np.ndarray,
                          b_w: np.ndarray) -> tuple:
    """Rows (a_k, b_k) of a_k . xi + b_k <= 0 at a fixed decision, in the
    order of ``_joint_layout``: the augmented row (a = 0, b = 0) last, which
    no sample violates."""
    dec = decision
    coef, const, margin = _joint_layout(
        b_g, b_w, (dec.r_plus, dec.r_minus, dec.f_ram_plus, dec.f_ram_minus))
    return const + coef @ dec.alpha, -margin


def build_msdro_opf(network: Network, data: MultiDataset, gamma) -> OpfModel:
    """Assemble the complete LP for one data-quality vector.

    Requires at least one uncertain resource and standardized data (one
    sample column per shared index). The LP is built with every feature's
    ``co``/``cc`` rows and multiplier columns, and the budgets are then
    written in by ``with_budgets``.
    """
    gamma = risk_level(gamma)
    if data.dimension != network.num_resources:
        raise InputError(
            f"dataset has {data.dimension} features, network has "
            f"{network.num_resources} uncertain resources"
        )
    if data.dimension == 0:
        raise InputError("OPF model needs at least one uncertain resource")
    if not data.is_standardized:
        raise InputError("OPF model needs standardized data (equal sample counts)")
    support = build_joint_support(network)
    data.validate_within(support)
    n_g = network.num_generators

    b_g_map, b_w_map, b_b_map = compute_flow_maps(network)
    n_l = network.num_lines
    d = data.dimension
    n = int(data.counts[0])
    xi_hat = data.matrix()
    # Distances of every sample to its feature's upper and lower end, (d, n).
    up_room, lo_room = transport_room(xi_hat, support.lower[:, None],
                                      support.upper[:, None])
    gens = network.generators
    c_a = np.array([g.c_A for g in gens])
    d_vec = network.load_vector()
    u_vec = network.forecast_vector()
    f_max = np.array([ln.f_max for ln in network.lines])

    k_aug = 2 * n_g + 2 * n_l  # index of the augmented all-zero row

    m = Model("msdro-opf")
    p = m.add_vars(n_g, obj=np.array([g.c_E for g in gens]))
    # The activation cost's sample term, -mean_i (c_A . alpha_j) xi_ji.
    alpha = m.add_vars((n_g, d), obj=-c_a[:, None] * xi_hat.mean(axis=1)[None, :])
    c_r = np.array([g.c_R for g in gens])
    rp = m.add_vars(n_g, obj=c_r)
    rm = m.add_vars(n_g, obj=c_r)
    framp = m.add_vars(n_l)
    framm = m.add_vars(n_l)
    lam_co = m.add_vars(d)  # its costs are the budgets (with_budgets)
    tau = m.add_var(lb=-INFINITY, ub=0.0)
    nu = m.add_var(lb=-INFINITY)
    lam_cc = m.add_vars(d)
    s_cc = m.add_vars(n, lb=-INFINITY)

    # (pi) energy balance: <1,p> = <1,d> - <1,u>
    m.add(family("bal", (), [(p, 1.0)], EQ, float(np.sum(d_vec) - np.sum(u_vec))))
    # (chi_j) participation balance: column sums of A are one
    m.add(family("chi", d, [(alpha.T, 1.0)], EQ, 1.0))
    # (sigma) generator limits, one gmax/gmin pair per generator
    m.add(family("gmax", n_g, [(p, 1.0), (rp, 1.0)], LE,
                 [g.p_max for g in gens]),
          family("gmin", n_g, [(p, 1.0), (rm, -1.0)], GE,
                 [g.p_min for g in gens]))
    # (beta) line margins: B_G p + f_RAM+ = f_max - B_W u + B_B d (and mirror)
    flow_const = b_w_map @ u_vec - b_b_map @ d_vec
    m.add(family("lineup", n_l, [(p[None, :], b_g_map), (framp, 1.0)], EQ,
                 f_max - flow_const),
          family("linelo", n_l, [(p[None, :], -b_g_map), (framm, 1.0)], EQ,
                 f_max + flow_const))

    # (mu) worst-case expected activation cost: feature j's slope is
    # -sum_g c_A_g alpha_gj; its positive parts enter the objective with the
    # mean distances to the support ends.
    p_co, q_co = wasserstein_block(
        m, "co", d, lam_co, cols=alpha.T, coefs=-c_a[None, :],
        obj=(up_room.mean(axis=1), lo_room.mean(axis=1)))

    # CVaR scaffolding: tau + nu <= 0 and the budget row carrying (phi),
    # whose lam_cc coefficients are the budgets (with_budgets; a 1 here
    # holds each one's place).
    m.add(family("cvar_pair", (), [(tau, 1.0), (nu, 1.0)], LE, 0.0))
    m.add(family("cvar_budget", (),
                 [(lam_cc, 1.0), (s_cc, 1.0 / n), (nu, -gamma)], LE, 0.0))

    # (rho) positive parts per (feature, row), the augmented one included;
    # row k's coefficients of xi are const[k] + coef[k] @ A.
    coef, const, b_cols = _joint_layout(b_g_map, b_w_map, (rp, rm, framp, framm))
    p_cc, q_cc = wasserstein_block(
        m, "cc", (d, k_aug + 1), lam_cc, const=const.T,
        cols=alpha.T[:, None, :], coefs=coef[None, :, :])

    # (eta) s_cc_i >= b'_k + sum_j (a'_kj xi_ji + up_ji p_jk + lo_ji q_jk),
    # with b'_k = b_k - tau for the physical rows and b'_{K+1} = 0 for the
    # augmented row (whose b-column and tau coefficients are zero and so
    # dropped).
    physical = np.append(np.ones(k_aug), 0.0)
    m.add(family("cc_main", (n, k_aug + 1),
                 [(s_cc, 1.0), (b_cols[None, :], physical[None, :]),
                  (tau, physical[None, :]),
                  (p_cc.T[None], -up_room.T[:, None, :]),
                  (q_cc.T[None], -lo_room.T[:, None, :]),
                  (alpha[None, None], -coef[None, :, :, None]
                   * xi_hat.T[:, None, None, :])],
                 GE, xi_hat.T @ const.T))

    idx = {"p": p, "alpha": alpha, "rp": rp, "rm": rm, "framp": framp,
           "framm": framm, "lam_co": lam_co, "p_co": p_co, "q_co": q_co,
           "lam_cc": lam_cc, "p_cc": p_cc, "q_cc": q_cc}
    return with_budgets(OpfModel(model=m, network=network, data=data,
                                 support=support, b_g=b_g_map, b_w=b_w_map,
                                 idx=idx), data.epsilons)


def with_budgets(built: OpfModel, epsilons) -> OpfModel:
    """``built`` with the budgets ``epsilons`` written into its LP.

    A budget is the cost of its ``lam_co`` column and its ``lam_cc``
    coefficient in ``cvar_budget`` (``lp.Model.with_values``, which leaves a
    zero out); the copy shares the rest with ``built.model``. A zero budget
    shrinks its feature's ball onto the samples, so the feature bypasses its
    multiplier machinery: its ``co``/``cc`` rows are left out and its lambda
    and positive-part columns fixed at zero (``_fixed_at_zero``), which
    recovers the plain sample average. A positive budget where ``built``
    left the rows out is an ``InputError``.
    """
    data = built.data.with_epsilons(epsilons)
    eps, m, idx = data.epsilons, built.model, built.idx
    kept = m.families["co_up"].present
    if np.any((eps > 0.0) & ~kept):
        raise InputError(f"budgets {eps.tolist()} are positive where the "
                         f"model's, {built.data.epsilons.tolist()}, are zero")
    zero = kept & (eps == 0.0)
    if zero.any():
        m = m.without(*_fixed_at_zero(
            m, [(name, zero) for name in ("co_up", "co_lo", "cc_up", "cc_lo")],
            [idx[name][zero] for name in ("lam_co", "lam_cc", "p_co", "q_co",
                                          "p_cc", "q_cc")]))
    obj = m.obj.copy()
    obj[idx["lam_co"]] = eps
    m = m.with_values(obj, "cvar_budget", idx["lam_cc"], eps)
    return replace(built, model=m, data=data)


def solve(built: OpfModel) -> SolutionWithDuals:
    """Solve a built model and read its primal values off the solution."""
    return _extract(built, built.model.solve())


def _extract(built: OpfModel, sol: LpSolution) -> SolutionWithDuals:
    """Primal values of ``built`` read off its LP solution."""
    if not sol.optimal:
        return SolutionWithDuals(built, sol)

    idx, x = built.idx, sol.x
    decision = OpfDecision(
        p=x[idx["p"]], alpha=x[idx["alpha"]], r_plus=x[idx["rp"]],
        r_minus=x[idx["rm"]], f_ram_plus=x[idx["framp"]],
        f_ram_minus=x[idx["framm"]],
    )
    slope = -(np.array([g.c_A for g in built.network.generators])
              @ decision.alpha)
    s_co = sample_worst_case(
        slope[:, None], x[idx["p_co"]][:, None], x[idx["q_co"]][:, None],
        built.data.matrix(),
        built.support.lower[:, None], built.support.upper[:, None])
    return SolutionWithDuals(built, sol, decision, x[idx["lam_co"]],
                             x[idx["lam_cc"]], s_co)


def solve_msdro_opf(network: Network, data: MultiDataset,
                    gamma) -> SolutionWithDuals:
    """Build and solve in one step."""
    return solve(build_msdro_opf(network, data, gamma))


def idle_balancers(sol: SolutionWithDuals) -> frozenset:
    """Generators whose participation row is numerically zero."""
    sol.require_optimal()
    idle = np.all(np.abs(sol.decision.alpha) <= PARTICIPATION_TOL, axis=1)
    return frozenset(np.flatnonzero(idle).tolist())


def _fixed_at_zero(m, rows, cols) -> tuple:
    """(drop, ub) for ``Model.without`` and ``LpSolution.resolve``: the rows
    of ``m`` at ``rows`` (pairs of a family's name and an index into its
    shape) marked to drop, and upper bounds fixing ``cols`` at zero."""
    drop = np.zeros(m.num_constraints, dtype=bool)
    for name, at in rows:
        fam = m.families[name]
        at = fam.index.reshape(fam.shape)[at]
        drop[at[at >= 0]] = True
    ub = m.ub.copy()
    for c in cols:
        ub[c] = 0.0
    return drop, ub


def _pin(built: OpfModel, generators) -> tuple:
    """The edit of ``built.model`` that pins ``generators`` out of the CVaR:
    alpha = r+ = r- = 0 for each of them, and their two reserve rows of the
    joint layout leave the CVaR max: their ``cc_up``, ``cc_lo`` and
    ``cc_main`` rows are dropped and their p_cc/q_cc columns fixed to zero
    (``_fixed_at_zero``).
    """
    pinned = sorted(generators)
    n_g, idx = built.network.num_generators, built.idx
    gone = np.zeros(idx["p_cc"].shape[1], dtype=bool)
    gone[pinned + [n_g + g for g in pinned]] = True
    return _fixed_at_zero(
        built.model,
        [(name, (slice(None), gone)) for name in ("cc_up", "cc_lo", "cc_main")],
        [idx["alpha"][pinned], idx["rp"][pinned], idx["rm"][pinned],
         idx["p_cc"][:, gone], idx["q_cc"][:, gone]])


def cvar_tightening_rerun(first: SolutionWithDuals) -> SolutionWithDuals:
    """Re-solve ``first``'s instance with non-participating generators
    pinned out of the CVaR.

    Generators with an all-zero participation row never activate, so their
    reserve rows inside the CVaR max only slacken the approximation. The
    re-run fixes r+ = r- = 0 for those generators and leaves their two rows
    out of the CVaR (``_pin``). HiGHS edits the LP it solved accordingly and
    restarts from its basis (``LpSolution.resolve``); the pinned instance
    keeps the first build's network, data, support and flow maps.
    Returns the first solution unchanged when there is nothing to pin or
    the re-run does not end optimal; solver exceptions propagate.
    """
    if not first.optimal:
        raise SolverError(f"first solve ended {first.status}")
    built = first.built
    already = built.fixed_zero_participation
    target = idle_balancers(first) | already
    if target == already:
        return first
    sol = first.lp_solution.resolve(*_pin(built, target))
    rerun = _extract(replace(built, model=sol.model,
                             fixed_zero_participation=target), sol)
    return rerun if rerun.optimal else first
