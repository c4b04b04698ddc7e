"""Full dispatch LP: feasibility blocks, objective blocks, duals, reruns."""

import itertools

import numpy as np
import pytest

from msdro_opf import MultiDataset, lp, solve_msdro_opf
from msdro_opf.dro_core import SeparableAffineCost, wc_expectation_separable
from msdro_opf.errors import InputError
from msdro_opf.evaluation import (DEFAULT_GRID, derive_seed,
                                  empirical_violation, training_matrix)
from msdro_opf.network import (Generator, Line, Network, Resource,
                               build_joint_support, compute_flow_maps)
from msdro_opf.opf_model import (build_msdro_opf, cvar_tightening_rerun,
                                 idle_balancers, joint_constraint_rows,
                                 risk_level, with_budgets)

from msdro_opf.valuation import (envelope_check,
                                 forecast_value_decomposition,
                                 marginal_data_value)

from oracles import (bits, linprog_solve, optimality_faults, ring_instances,
                     ring_network, robust_corner_objective, row_dual,
                     row_multiplier, saa_cvar_objective, three_cut_opf)

DIAGONAL = [(0.001, 0.001), (0.005, 0.005), (0.01, 0.01), (0.1, 0.1),
            (1.0, 1.0)]


def cc_rows(built) -> int:
    """Rows inside the CVaR max, the augmented zero row left out: the
    present ``cc_main`` rows of sample 0, minus one."""
    fam = built.model.families["cc_main"]
    return int(np.count_nonzero(fam.present.reshape(fam.shape)[0])) - 1


def support_corners(network):
    box = build_joint_support(network)
    return np.array(list(itertools.product(*zip(box.lower, box.upper))))


def test_robust_cell_multipliers_vanish(robust_sol):
    assert robust_sol.optimal
    assert np.allclose(robust_sol.lambda_co, 0.0, atol=1e-8)
    assert np.allclose(robust_sol.lambda_cc, 0.0, atol=1e-8)


def test_decision_feasibility_blocks(case5, solve_cell):
    for eps in ((1.0, 1.0), (0.1, 0.1), (0.005, 0.001)):
        dec = solve_cell(*eps).decision
        for arr in (dec.p, dec.alpha, dec.r_plus, dec.r_minus,
                    dec.f_ram_plus, dec.f_ram_minus):
            assert np.min(arr) >= -1e-9
        np.testing.assert_allclose(dec.alpha.sum(axis=0), 1.0, atol=1e-9)
        total_load = sum(case5.loads.values())
        total_forecast = sum(r.u for r in case5.resources)
        assert dec.p.sum() == pytest.approx(total_load - total_forecast,
                                            abs=1e-9)
        for g, gen in enumerate(case5.generators):
            assert dec.p[g] <= gen.p_max - dec.r_plus[g] + 1e-9
            assert dec.p[g] >= gen.p_min + dec.r_minus[g] - 1e-9


def test_line_margins_match_flows(case5, solve_cell):
    dec = solve_cell(0.1, 0.1).decision
    b_g, b_w, b_b = compute_flow_maps(case5)
    flow = b_g @ dec.p + b_w @ case5.forecast_vector() - b_b @ case5.load_vector()
    f_max = np.array([ln.f_max for ln in case5.lines])
    np.testing.assert_allclose(dec.f_ram_plus, f_max - flow, atol=1e-9)
    np.testing.assert_allclose(dec.f_ram_minus, f_max + flow, atol=1e-9)
    assert np.all(dec.f_ram_plus <= 2 * f_max + 1e-9)
    assert np.all(dec.f_ram_minus <= 2 * f_max + 1e-9)


def test_zero_budget_equals_direct_saa_assembly(case5, train20, solve_cell):
    sol = solve_cell(0.0, 0.0)
    direct = saa_cvar_objective(case5, train20, 0.05)
    assert sol.objective == pytest.approx(direct, rel=1e-6)


def test_saturated_budget_equals_corner_assembly(case5, robust_sol):
    direct = robust_corner_objective(case5)
    assert robust_sol.objective == pytest.approx(direct, rel=1e-6)


def test_risk_free_and_saturated_solves_agree(case5, train20, robust_sol):
    """With saturated budgets the CVaR slack is already exhausted."""
    data = MultiDataset.from_matrix(train20, np.array([1.0, 1.0]))
    hard = solve_msdro_opf(case5, data, 0.0)
    assert hard.objective == pytest.approx(robust_sol.objective, rel=1e-8)


def test_gamma_zero_enforces_rows_over_support(case5, train20):
    data = MultiDataset.from_matrix(train20, np.array([0.1, 0.1]))
    sol = solve_msdro_opf(case5, data, 0.0)
    b_g, b_w, _ = compute_flow_maps(case5)
    a, b = joint_constraint_rows(sol.decision, b_g, b_w)
    worst = (a @ support_corners(case5).T + b[:, None]).max()
    assert worst <= 1e-7
    assert empirical_violation(sol.decision, support_corners(case5),
                               case5) == 0.0


def test_objective_monotone_along_diagonal(solve_cell):
    values = [solve_cell(*eps).objective for eps in DIAGONAL]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-8


def test_strong_duality_each_cell(solve_cell):
    for eps in ((0.0, 0.0), (0.005, 0.1), (1.0, 1.0)):
        sol = solve_cell(*eps)
        assert optimality_faults(sol.lp_solution, tol=1e-6) == []


def test_activation_block_matches_separable_route(case5, train20, solve_cell):
    c_a = np.array([g.c_A for g in case5.generators])
    box = build_joint_support(case5)
    for eps in ((0.1, 0.1), (0.005, 0.1), (1.0, 1.0)):
        sol = solve_cell(*eps)
        cost = SeparableAffineCost(-(c_a @ sol.decision.alpha))
        data = MultiDataset.from_matrix(train20, np.array(eps))
        ref = wc_expectation_separable(cost, data, box)
        assert sol.activation_cost_block() == pytest.approx(
            ref.value, rel=1e-6, abs=1e-6)


def test_tightening_rerun_drops_idle_rows(solve_cell, monkeypatch):
    """The re-run pins the idle balancers and keeps the first build's
    support and flow maps."""
    from msdro_opf import opf_model

    calls = []
    monkeypatch.setattr(opf_model, "compute_flow_maps",
                        lambda *a: calls.append(a) or compute_flow_maps(*a))
    for eps in ((1.0, 1.0), (0.1, 0.1)):
        sol = solve_cell(*eps)
        idle = idle_balancers(sol)
        assert idle
        calls.clear()
        second = cvar_tightening_rerun(sol)
        assert calls == []
        assert second.built.b_g is sol.built.b_g
        assert second.built.support is sol.built.support
        assert second.objective <= sol.objective + 1e-6
        assert cc_rows(second.built) == cc_rows(sol.built) - 2 * len(idle)
        for g in idle:
            assert second.decision.r_plus[g] == pytest.approx(0.0, abs=1e-9)
            assert second.decision.r_minus[g] == pytest.approx(0.0, abs=1e-9)


def test_tightening_rerun_without_idle_balancers_is_identity(solve_cell):
    sol = solve_cell(0.005, 0.005)
    assert idle_balancers(sol) == frozenset()
    assert cvar_tightening_rerun(sol) is sol


def test_tightening_rerun_keeps_first_solve_when_not_optimal(
        case5, train20, monkeypatch):
    """A warm re-run that ends infeasible falls back to the first solve."""
    def infeasible(highs, model):
        return lp.LpSolution("infeasible", float("nan"),
                             np.zeros(model.num_vars),
                             np.zeros(model.num_constraints), model)

    data = MultiDataset.from_matrix(train20, np.array([1.0, 1.0]))
    sol = solve_msdro_opf(case5, data, 0.05)
    assert idle_balancers(sol)
    monkeypatch.setattr(lp, "_run_highs", infeasible)
    assert cvar_tightening_rerun(sol) is sol
    assert sol.lp_solution._highs is None  # the re-run took the warm path


def test_second_tightening_rerun_solves_from_scratch(case5, train20):
    """The first re-run takes the first solve's HiGHS object; a second one
    on the same solution derives the same pinned model and solves it cold,
    to the same optimum."""
    data = MultiDataset.from_matrix(train20, np.array([1.0, 1.0]))
    first = solve_msdro_opf(case5, data, 0.05)
    warm = cvar_tightening_rerun(first)
    assert warm is not first and first.lp_solution._highs is None
    cold = cvar_tightening_rerun(first)
    assert cold.built.fixed_zero_participation == \
        warm.built.fixed_zero_participation
    assert cold.objective == pytest.approx(warm.objective, rel=1e-9)
    assert cold.built.network is first.built.network
    assert cold.built.data is first.built.data


def test_cc_row_geometry(case5, solve_cell):
    sol = solve_cell(0.1, 0.1)
    k = 2 * case5.num_generators + 2 * case5.num_lines
    assert cc_rows(sol.built) == k
    a, b = joint_constraint_rows(sol.decision, sol.built.b_g, sol.built.b_w)
    assert a.shape == (k + 1, case5.num_resources)
    np.testing.assert_allclose(a[-1], 0.0)
    assert b[-1] == 0.0
    # Reserve rows carry +-alpha, line rows the participation-shifted maps.
    dec = sol.decision
    np.testing.assert_allclose(a[0], -dec.alpha[0], atol=1e-12)
    np.testing.assert_allclose(b[0], -dec.r_plus[0], atol=1e-12)


def test_no_uncertain_resources_is_an_input_error(case5):
    """The model prices data from at least one dataset; an empty one is
    rejected before the standardized-data check could misname it."""
    bare = Network(buses=case5.buses, lines=case5.lines,
                   generators=case5.generators, loads=case5.loads,
                   resources=[], slack_bus=case5.slack_bus)
    data = MultiDataset(np.zeros((0, 5)), np.zeros(0))
    with pytest.raises(InputError, match="at least one uncertain resource"):
        solve_msdro_opf(bare, data, 0.05)


def test_undersized_network_reports_infeasible():
    bad = Network(buses=[1, 2], lines=[Line(1, 2, 0.1, 5.0)],
                  generators=[Generator(1, 0.0, 0.5, 10.0, 1.0, 20.0)],
                  loads={2: 3.0},
                  resources=[Resource(2, 0.5, 0.0, 1.0, 0.5)],
                  slack_bus=1)
    data = MultiDataset(np.zeros((1, 4)), np.array([0.1]))
    sol = solve_msdro_opf(bad, data, 0.05)
    assert sol.status == "infeasible" and not sol.optimal
    assert np.isnan(sol.objective)
    assert sol.decision is None and sol.lambda_co is None
    with pytest.raises(lp.SolverError, match="solution status is infeasible"):
        idle_balancers(sol)


def test_input_validation(case5):
    with pytest.raises(InputError):
        solve_msdro_opf(case5, MultiDataset(np.zeros((3, 4)),
                                            np.array([0.1] * 3)), 0.05)
    with pytest.raises(InputError, match="OPF model needs standardized data"):
        solve_msdro_opf(case5, MultiDataset([np.zeros(3), np.zeros(2)],
                                            np.array([0.1, 0.1])), 0.05)


def test_pinned_build_is_the_first_with_rows_deleted(case5, train20):
    """Pinning the idle balancers leaves out their two reserve rows of the
    joint layout, in cc_up, cc_lo and cc_main, and fixes their p_cc/q_cc
    columns (and alpha, r+, r-) to zero; families, shapes and columns stay,
    and the row names are the first build's without the deleted ones, in
    order, so cc_main[i,k] names the same joint row in both LPs."""
    data = MultiDataset.from_matrix(train20, np.array([0.1, 0.1]))
    n_g, n = case5.num_generators, 20
    first = solve_msdro_opf(case5, data, 0.05)
    full = first.built
    idle = sorted(idle_balancers(first))
    assert idle
    pinned = cvar_tightening_rerun(first).built
    assert pinned.fixed_zero_participation == set(idle)
    assert cc_rows(pinned) == cc_rows(full) - 2 * len(idle)
    fams = full.model.families
    assert list(pinned.model.families) == list(fams)
    for name, fam in pinned.model.families.items():
        assert fam.shape == fams[name].shape
    assert pinned.idx is full.idx
    np.testing.assert_array_equal(pinned.model.obj, full.model.obj)

    gone = idle + [n_g + g for g in idle]
    idx = pinned.idx
    fixed = np.concatenate([idx["p_cc"][:, gone].ravel(),
                            idx["q_cc"][:, gone].ravel(),
                            idx["alpha"][idle].ravel(), idx["rp"][idle],
                            idx["rm"][idle]])
    moved = np.flatnonzero((pinned.model.lb != full.model.lb)
                           | (pinned.model.ub != full.model.ub))
    np.testing.assert_array_equal(moved, np.sort(fixed))
    assert np.all(pinned.model.ub[fixed] == 0.0)

    deleted = {f"cc_{c}[{j},{k}]" for c in ("up", "lo") for j in range(2)
               for k in gone} | {f"cc_main[{i},{k}]" for i in range(n)
                                 for k in gone}
    names = full.model.row_names()
    assert deleted <= set(names)
    assert pinned.model.row_names() == [r for r in names if r not in deleted]


def test_risk_level_bounds():
    assert risk_level(0.0) == 0.0
    with pytest.raises(InputError):
        risk_level(-0.1)
    with pytest.raises(InputError):
        risk_level(1.0)


def test_family_duals_match_named_lookups(case5):
    """The array read-out equals the row-by-row lookups by row name.

    The compact block has one co_up/co_lo row per feature and one
    cc_up/cc_lo row per (feature, CVaR row); a feature with eps = 0 has
    none of them and reads zero multipliers.
    """
    from msdro_opf.evaluation import training_matrix

    eps = np.array([0.1, 0.0])  # eps_2 = 0 drops feature 2's block rows
    data = MultiDataset.from_matrix(training_matrix(case5, 3, seed=5), eps)
    sol = solve_msdro_opf(case5, data, 0.05)
    lps = sol.lp_solution
    d, n, k = 2, 3, cc_rows(sol.built) + 1
    names = set(sol.built.model.row_names())

    def dual(name):
        return row_dual(lps, name)

    def mult(name):
        return row_multiplier(lps, name)

    mu = {c: np.zeros(d) for c in ("up", "lo")}
    rho = {c: np.zeros((d, k)) for c in ("up", "lo")}
    for c, j in itertools.product(("up", "lo"), range(d)):
        if eps[j] > 0.0:
            mu[c][j] = mult(f"co_{c}[{j}]")
            rho[c][j] = [mult(f"cc_{c}[{j},{kk}]") for kk in range(k)]
        else:
            assert f"co_{c}[{j}]" not in names
            assert not any(f"cc_{c}[{j},{kk}]" in names for kk in range(k))
    eta = np.array([[mult(f"cc_main[{i},{kk}]") for kk in range(k)]
                    for i in range(n)])
    for c in ("up", "lo"):
        np.testing.assert_array_equal(lps.family_multipliers(f"co_{c}"), mu[c])
        np.testing.assert_array_equal(lps.family_multipliers(f"cc_{c}"), rho[c])
    np.testing.assert_array_equal(lps.family_multipliers("cc_main"), eta)
    assert lps.family_duals("bal") == dual("bal")
    assert lps.family_multipliers("cvar_budget") == mult("cvar_budget")
    np.testing.assert_array_equal(lps.family_duals("chi"),
                                  [dual(f"chi[{j}]") for j in range(d)])
    g_range, l_range = range(case5.num_generators), range(case5.num_lines)
    np.testing.assert_array_equal(lps.family_multipliers("gmax"),
                                  [mult(f"gmax[{g}]") for g in g_range])
    np.testing.assert_array_equal(lps.family_multipliers("gmin"),
                                  [mult(f"gmin[{g}]") for g in g_range])
    np.testing.assert_array_equal(lps.family_duals("lineup"),
                                  [dual(f"lineup[{l}]") for l in l_range])
    np.testing.assert_array_equal(lps.family_duals("linelo"),
                                  [dual(f"linelo[{l}]") for l in l_range])


GRID5 = (1.0, 0.1, 0.005, 0.001, 0.0)


def assert_matches_three_cut(sol, network, data, pinned=(), gamma=0.05):
    """Objective to 1e-9 relative, decision, prices and terms to 1e-6."""
    ref = three_cut_opf(network, data, gamma, pinned)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    fv = forecast_value_decomposition(sol)
    mv = marginal_data_value(sol).marginal_value
    dec = sol.decision
    for got, want in ((dec.alpha, ref.alpha), (dec.p, ref.p),
                      (dec.r_plus, ref.r_plus), (dec.r_minus, ref.r_minus),
                      (sol.lambda_co, ref.lambda_co),
                      (sol.lambda_cc, ref.lambda_cc), (mv, ref.marginal_value),
                      (fv.balancing_term, ref.balancing),
                      (fv.reserve_term, ref.reserve), (fv.pi_f, ref.pi_f)):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
    assert sol.built.model.num_constraints < ref.rows


def test_compact_block_matches_three_cut_lp_on_default_grid(case5, train20,
                                                            solve_cell):
    """Every default-grid cell with the 0.0 column, base and re-run."""
    for eps in itertools.product(GRID5, repeat=2):
        data = MultiDataset.from_matrix(train20, np.array(eps))
        base = solve_cell(*eps)
        assert_matches_three_cut(base, case5, data)
        rerun = cvar_tightening_rerun(base)
        if rerun is not base:
            assert_matches_three_cut(rerun, case5, data,
                                     rerun.built.fixed_zero_participation)


def test_compact_block_matches_three_cut_lp_at_100_samples(case5):
    from msdro_opf.evaluation import derive_seed, training_matrix

    xs = training_matrix(case5, 100, derive_seed(1, "train"))
    data = MultiDataset.from_matrix(xs, np.array([0.1, 0.005]))
    assert_matches_three_cut(solve_msdro_opf(case5, data, 0.05), case5, data)


def test_random_networks_match_three_cut_lp():
    """Seeded ring-plus-chords networks beyond case5: 1-3 features, 2-4
    generators, N' = 3-11, some zero budgets and three risk levels. The
    decision, prices and forecast-value terms match the three-cut LP, and
    the marginal value of every positive budget matches a finite difference
    wherever the envelope check does not flag the cell degenerate."""
    checked = 0
    assert ring_network(0, 4, 3, 2, 1).num_lines == 6  # chords capped at 2
    for k, (net, data, gamma) in enumerate(ring_instances()):
        base = solve_msdro_opf(net, data, gamma)
        assert base.optimal, base.status
        assert_matches_three_cut(base, net, data, gamma=gamma)
        assert optimality_faults(base.lp_solution, tol=1e-9) == []
        rerun = cvar_tightening_rerun(base)
        assert rerun.objective <= base.objective + 1e-9 * abs(base.objective)
        for j in np.flatnonzero(data.epsilons > 0):
            chk = envelope_check(net, data, gamma, int(j))
            if not chk.degenerate:
                checked += 1
                assert abs(chk.finite_difference - chk.analytic) <= 1e-3 * max(
                    1.0, abs(chk.analytic)), (k, j, chk)
    assert checked >= 40  # of 48 positive budgets; none was degenerate


def parity_instances(case5, train20):
    """The 16 default grid cells on case5 at N' = 20, then the 30 ring
    instances; yields (network, data, gamma)."""
    for cell in itertools.product(DEFAULT_GRID, repeat=2):
        yield case5, MultiDataset.from_matrix(train20, list(cell)), 0.05
    yield from ring_instances()


def test_direct_highs_matches_linprog_bit_for_bit(case5, train20):
    """``Model.solve`` hands HiGHS the LP and options ``linprog`` would: x,
    duals and objective are the same floats as through ``linprog``."""
    for net, data, gamma in parity_instances(case5, train20):
        model = build_msdro_opf(net, data, gamma).model
        direct, oracle = model.solve(), linprog_solve(model)
        assert direct.optimal and oracle.optimal
        assert direct.objective == oracle.objective
        assert bits(direct.x) == bits(oracle.x)
        assert bits(direct.duals) == bits(oracle.duals)


def test_warm_rerun_is_the_pinned_model_solved(case5, train20):
    """The re-run edits the first solve's HiGHS LP into exactly the LP a
    fresh HiGHS object holds once the pinned model is loaded into it, and
    its optimum is a cold solve's, with a zero duality gap on its own
    model."""
    warm = 0
    for net, data, gamma in parity_instances(case5, train20):
        first = solve_msdro_opf(net, data, gamma)
        rerun = cvar_tightening_rerun(first)
        if rerun is first:
            continue
        warm += 1
        assert first.lp_solution._highs is None
        got = rerun.lp_solution._highs.getLp()
        fresh = lp._Highs()
        rerun.built.model._load(fresh)
        want = fresh.getLp()
        for part in ("col_cost_", "col_lower_", "col_upper_", "row_lower_",
                     "row_upper_"):
            assert bits(getattr(got, part)) == bits(getattr(want, part)), part
        for part in ("start_", "index_", "value_"):
            assert np.array_equal(getattr(got.a_matrix_, part),
                                  getattr(want.a_matrix_, part)), part
        assert bits(got.a_matrix_.value_) == bits(want.a_matrix_.value_)
        cold = rerun.built.model.solve()
        assert rerun.objective == pytest.approx(cold.objective, rel=1e-9)
        assert optimality_faults(rerun.lp_solution, tol=1e-9) == []
    assert warm >= 25  # 28 of the 46 instances pin some generator


@pytest.mark.parametrize("seed", [1, 7])
def test_with_budgets_is_the_build_bit_for_bit(case5, seed):
    """On every cell of the default grid and the zero column, the model
    built at the first cell of the cell's zero pattern, with the cell's
    budgets written in, is the model built at the cell: the same costs,
    column bounds, row bounds and column arrays HiGHS receives."""
    xs = training_matrix(case5, 20, derive_seed(seed, "train"))
    patterns = {}
    for cell in itertools.product(DEFAULT_GRID + (0.0,), repeat=2):
        data = MultiDataset.from_matrix(xs, list(cell))
        want = build_msdro_opf(case5, data, 0.05)
        base = patterns.setdefault(tuple(e > 0 for e in cell), want)
        got = with_budgets(base, cell)
        assert got.data.epsilons.tolist() == list(cell)
        assert got.data.samples is base.data.samples
        for part in ("obj", "lb", "ub"):
            assert bits(getattr(got.model, part)) == \
                bits(getattr(want.model, part)), (cell, part)
        for g, w in zip(got.model._layout() + got.model._csc(),
                        want.model._layout() + want.model._csc()):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), cell
        assert got.model.num_constraints == want.model.num_constraints
    assert len(patterns) == 4


def test_with_budgets_refuses_another_zero_pattern(case5, train20):
    built = build_msdro_opf(
        case5, MultiDataset.from_matrix(train20, [0.1, 0.0]), 0.05)
    for eps in ((0.1, 0.1), (0.0, 0.0), (0.0, 0.1)):
        with pytest.raises(InputError, match="zero in other places"):
            with_budgets(built, eps)
    with pytest.raises(InputError, match="one epsilon per feature"):
        with_budgets(built, (0.1,))
    assert with_budgets(built, (2.0, 0.0)).data.epsilons.tolist() == [2.0, 0.0]
    assert built.data.epsilons.tolist() == [0.1, 0.0]
