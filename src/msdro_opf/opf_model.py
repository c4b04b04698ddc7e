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

from dataclasses import dataclass

import numpy as np

from .dro_core import (BoxSupport, MultiDataset, sample_worst_case,
                       transport_room, wasserstein_block)
from .errors import ExtractionError, InputError, ModeError
from .lp import EQ, GE, INFINITY, LE, LpSolution, Model, family
from .network import Network, build_joint_support, compute_flow_maps

#: Participation below this is treated as zero when picking re-run candidates.
PARTICIPATION_TOL = 1e-9


@dataclass(frozen=True)
class RiskLevel:
    """Joint chance constraint violation budget, 0 <= gamma < 1."""

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise InputError(f"gamma must lie in [0, 1), got {self.gamma}")


@dataclass
class OpfDecision:
    p: np.ndarray
    alpha: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    f_ram_plus: np.ndarray
    f_ram_minus: np.ndarray


@dataclass
class DualValues:
    """The duals the valuation reads (see module docstring for signs):
    ``beta_*`` per line, ``eta`` per (sample, CVaR row). Every other family
    is read from ``lp_solution.family_duals`` / ``family_multipliers``."""

    pi: float
    beta_up: np.ndarray
    beta_lo: np.ndarray
    phi: float
    eta: np.ndarray


@dataclass
class OpfModel:
    """A built (not yet solved) instance plus the index bookkeeping."""

    model: Model
    network: Network
    data: MultiDataset
    support: BoxSupport
    gamma: float
    b_g: np.ndarray
    b_w: np.ndarray
    b_b: np.ndarray
    cc_rows: np.ndarray
    fixed_zero_participation: frozenset
    idx: dict

    @property
    def num_cc_rows(self) -> int:
        """Rows inside the CVaR max, excluding the augmented zero row."""
        return len(self.cc_rows)


@dataclass
class SolutionWithDuals:
    status: str
    objective: float
    decision: OpfDecision | None
    lambda_co: np.ndarray | None
    lambda_cc: np.ndarray | None
    s_co: np.ndarray | None
    duals: DualValues | None
    built: OpfModel
    lp_solution: LpSolution | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def duality_gap(self) -> float:
        """Relative gap between primal objective and the dual bound."""
        if not self.optimal:
            raise ExtractionError(f"solution status is {self.status}")
        dual_obj = self.lp_solution.dual_objective()
        return abs(self.objective - dual_obj) / max(1.0, abs(self.objective))

    def activation_cost_block(self) -> float:
        """Worst-case expected activation cost term of the objective."""
        eps = self.built.data.epsilons
        n = self.s_co.shape[1] if self.s_co.size else 0
        value = float(eps @ self.lambda_co)
        if n:
            value += float(np.sum(self.s_co) / n)
        return value

    def cc_a_matrix(self) -> np.ndarray:
        """Row vectors a'_k at the optimal decision, augmented row last."""
        a, _ = joint_constraint_rows(self.decision, self.built.b_g, self.built.b_w)
        return np.vstack([a[self.built.cc_rows], np.zeros((1, a.shape[1]))])

    def cc_b_vector(self) -> np.ndarray:
        """Intercepts b_k at the optimal decision, augmented row last (0)."""
        _, b = joint_constraint_rows(self.decision, self.built.b_g, self.built.b_w)
        return np.append(b[self.built.cc_rows], 0.0)


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
    order of ``_joint_layout`` without the augmented row."""
    dec = decision
    coef, const, margin = _joint_layout(
        b_g, b_w, (dec.r_plus, dec.r_minus, dec.f_ram_plus, dec.f_ram_minus))
    return (const + coef @ decision.alpha)[:-1], -margin[:-1]


def _cc_row_layout(network: Network, skip_gens: frozenset) -> np.ndarray:
    """Joint-constraint rows inside the CVaR, as indices into _joint_layout.

    Generators with participation fixed to zero contribute no rows (their
    reserve constraints hold trivially and are left outside the CVaR).
    """
    n_g = network.num_generators
    gens = [g for g in range(n_g) if g not in skip_gens]
    lines = list(range(2 * n_g, 2 * n_g + 2 * network.num_lines))
    return np.array(gens + [n_g + g for g in gens] + lines, dtype=int)


def build_msdro_opf(network: Network, data: MultiDataset, gamma,
                    fixed_zero_participation=frozenset()) -> OpfModel:
    """Assemble the complete LP for one data-quality vector.

    Requires standardized data (one sample column per shared index).
    Features with epsilon_j = 0 bypass their multiplier machinery: lambda_j
    and the positive parts are fixed to zero, which recovers the plain
    sample average for that feature.
    """
    return _build(network, data, gamma, fixed_zero_participation)


def _build(network: Network, data: MultiDataset, gamma,
           fixed_zero_participation, reuse: OpfModel | None = None) -> OpfModel:
    """``build_msdro_opf``; the support and flow maps come from ``reuse``."""
    if isinstance(gamma, RiskLevel):
        gamma = gamma.gamma
    gamma = RiskLevel(float(gamma)).gamma
    if data.dimension != network.num_resources:
        raise InputError(
            f"dataset has {data.dimension} features, network has "
            f"{network.num_resources} uncertain resources"
        )
    if data.dimension and not data.is_standardized:
        raise ModeError("OPF model needs standardized data (equal sample counts)")
    support = reuse.support if reuse else build_joint_support(network)
    if data.dimension:
        data.validate_within(support)
    skip = frozenset(fixed_zero_participation)
    bad = [g for g in skip if not (0 <= g < network.num_generators)]
    if bad:
        raise InputError(f"unknown generator indices {bad}")

    b_g_map, b_w_map, b_b_map = ((reuse.b_g, reuse.b_w, reuse.b_b) if reuse
                                 else compute_flow_maps(network))
    n_g = network.num_generators
    n_l = network.num_lines
    d = data.dimension
    n = int(data.counts[0]) if d else 0
    eps = data.epsilons
    xi_hat = data.matrix() if d else np.zeros((0, 0))
    # Distances of every sample to its feature's upper and lower end, (d, n).
    up_room, lo_room = transport_room(xi_hat, support.lower[:, None],
                                      support.upper[:, None])
    gens = network.generators
    c_a = np.array([g.c_A for g in gens])
    d_vec = network.load_vector()
    u_vec = network.forecast_vector()
    f_max = np.array([ln.f_max for ln in network.lines])

    cc_rows = _cc_row_layout(network, skip)
    k_aug = len(cc_rows)  # index of the augmented all-zero row

    m = Model("msdro-opf")
    p = m.add_vars(n_g, obj=np.array([g.c_E for g in gens]))
    # The activation cost's sample term, -mean_i (c_A . alpha_j) xi_ji.
    alpha = m.add_vars((n_g, d), obj=(-c_a[:, None] * xi_hat.mean(axis=1)[None, :]
                                      if n else 0.0))
    c_r = np.array([g.c_R for g in gens])
    rp = m.add_vars(n_g, obj=c_r)
    rm = m.add_vars(n_g, obj=c_r)
    framp = m.add_vars(n_l)
    framm = m.add_vars(n_l)
    lam_co = m.add_vars(d, obj=eps)
    has_cc = d > 0
    if has_cc:
        tau = m.add_var(lb=-INFINITY, ub=0.0)
        nu = m.add_var(lb=-INFINITY)
        lam_cc = m.add_vars(d)
        s_cc = m.add_vars(n, lb=-INFINITY)
    else:
        lam_cc = np.zeros((0,), dtype=int)

    pinned = sorted(skip)
    for cols in (alpha[pinned], rp[pinned], rm[pinned], lam_co[eps == 0.0],
                 lam_cc[eps == 0.0]):
        m.fix_var(cols, 0.0)

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
    flow_const = b_w_map @ u_vec - b_b_map @ d_vec if d else -(b_b_map @ d_vec)
    m.add(family("lineup", n_l, [(p[None, :], b_g_map), (framp, 1.0)], EQ,
                 f_max - flow_const),
          family("linelo", n_l, [(p[None, :], -b_g_map), (framm, 1.0)], EQ,
                 f_max + flow_const))

    # (mu) worst-case expected activation cost: feature j's slope is
    # -sum_g c_A_g alpha_gj; its positive parts enter the objective with the
    # mean distances to the support ends.
    p_co, q_co = wasserstein_block(
        m, "co", d, lam_co, cols=alpha.T, coefs=-c_a[None, :],
        where=eps > 0.0, obj=(up_room.mean(axis=1) if n else 0.0,
                              lo_room.mean(axis=1) if n else 0.0))
    p_cc = q_cc = np.zeros((0, k_aug + 1), dtype=int)

    if has_cc:
        # CVaR scaffolding: tau + nu <= 0 and the budget row carrying (phi).
        m.add(family("cvar_pair", (), [(tau, 1.0), (nu, 1.0)], LE, 0.0))
        m.add(family("cvar_budget", (),
                     [(lam_cc, eps), (s_cc, 1.0 / n), (nu, -gamma)], LE, 0.0))

        # (rho) positive parts per (feature, row), the augmented one
        # included; row k's coefficients of xi are const[k] + coef[k] @ A.
        coef, const, b_cols = (v[np.append(cc_rows, -1)] for v in _joint_layout(
            b_g_map, b_w_map, (rp, rm, framp, framm)))
        p_cc, q_cc = wasserstein_block(
            m, "cc", (d, k_aug + 1), lam_cc, const=const.T,
            cols=alpha.T[:, None, :], coefs=coef[None, :, :], where=eps > 0.0)

        # (eta) s_cc_i >= b'_k + sum_j (a'_kj xi_ji + up_ji p_jk + lo_ji q_jk),
        # with b'_k = b_k - tau for the physical rows and b'_{K+1} = 0 for
        # the augmented row (whose b-column and tau coefficients are zero
        # and so dropped).
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
    return OpfModel(model=m, network=network, data=data, support=support,
                    gamma=gamma, b_g=b_g_map, b_w=b_w_map, b_b=b_b_map,
                    cc_rows=cc_rows, fixed_zero_participation=skip, idx=idx)


def solve(built: OpfModel) -> SolutionWithDuals:
    """Solve a built model and extract primal values and family duals."""
    sol = built.model.solve()
    if not sol.optimal:
        return SolutionWithDuals(
            status=sol.status, objective=float("nan"), decision=None,
            lambda_co=None, lambda_cc=None, s_co=None, duals=None,
            built=built, lp_solution=sol,
        )

    idx, x = built.idx, sol.x
    d = built.data.dimension
    decision = OpfDecision(
        p=x[idx["p"]], alpha=x[idx["alpha"]], r_plus=x[idx["rp"]],
        r_minus=x[idx["rm"]], f_ram_plus=x[idx["framp"]],
        f_ram_minus=x[idx["framm"]],
    )

    mult = sol.family_multipliers
    duals = DualValues(
        pi=float(sol.family_duals("bal")),
        beta_up=sol.family_duals("lineup"),
        beta_lo=sol.family_duals("linelo"),
        phi=float(mult("cvar_budget")) if d else 0.0,
        eta=(mult("cc_main") if d
             else np.zeros((0, len(built.cc_rows) + 1))),
    )

    slope = -(np.array([g.c_A for g in built.network.generators])
              @ decision.alpha)
    s_co = sample_worst_case(
        slope[:, None], x[idx["p_co"]][:, None], x[idx["q_co"]][:, None],
        built.data.matrix() if d else np.zeros((0, 0)),
        built.support.lower[:, None], built.support.upper[:, None])

    return SolutionWithDuals(
        status="optimal",
        objective=float(sol.objective),
        decision=decision,
        lambda_co=x[idx["lam_co"]],
        lambda_cc=x[idx["lam_cc"]],
        s_co=s_co,
        duals=duals,
        built=built,
        lp_solution=sol,
    )


def solve_msdro_opf(network: Network, data: MultiDataset, gamma,
                    fixed_zero_participation=frozenset()) -> SolutionWithDuals:
    """Build and solve in one step."""
    return solve(build_msdro_opf(network, data, gamma,
                                 fixed_zero_participation))


def idle_balancers(sol: SolutionWithDuals) -> frozenset:
    """Generators whose participation row is numerically zero."""
    if not sol.optimal:
        raise ExtractionError(f"solution status is {sol.status}")
    alpha = sol.decision.alpha
    if alpha.size == 0:
        return frozenset()
    idle = np.all(np.abs(alpha) <= PARTICIPATION_TOL, axis=1)
    return frozenset(np.flatnonzero(idle).tolist())


def cvar_tightening_rerun(network: Network, data: MultiDataset, gamma,
                          first: SolutionWithDuals) -> SolutionWithDuals:
    """Re-solve with non-participating generators pinned out of the CVaR.

    Generators with an all-zero participation row never activate, so their
    reserve rows inside the CVaR max only slacken the approximation. The
    re-run fixes r+ = r- = 0 for those generators and drops their two rows
    from the joint constraint. Returns the first solution unchanged when
    there is nothing to pin or the re-run does not end optimal; solver
    exceptions propagate.
    """
    if not first.optimal:
        raise ExtractionError(f"first solve ended {first.status}")
    idle = idle_balancers(first)
    already = first.built.fixed_zero_participation
    target = frozenset(idle | already)
    if not target or target == already:
        return first
    # The network data of the first build (support, flow maps) carries over.
    reuse = first.built if network is first.built.network else None
    rerun = solve(_build(network, data, gamma, target, reuse))
    return rerun if rerun.optimal else first
