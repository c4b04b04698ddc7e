"""Dual-based data valuation, offline predictions, forecast decomposition."""

import numpy as np
import pytest

from msdro_opf import MultiDataset, solve_msdro_opf
from msdro_opf.data_quality import fmt
from msdro_opf.lp import SolverError
from msdro_opf.network import (Generator, Line, Network, Resource,
                               build_joint_support)
from msdro_opf.valuation import (DATA_VALUE_COLUMNS, FORECAST_VALUE_COLUMNS,
                                 MIXED, classify_regime, data_value_rows,
                                 envelope_check, forecast_value_decomposition,
                                 forecast_value_rows, marginal_data_value,
                                 offline_thresholds,
                                 write_data_value_csv,
                                 write_forecast_value_csv)

from oracles import bits, prop3_offline_check


def activation_cost_sums(case5, sol):
    c_a = np.array([g.c_A for g in case5.generators])
    return c_a @ sol.decision.alpha


def test_fmt_prints_signed_zero_as_zero():
    """A multiplier or flow of -0.0 prints as 0, like +0.0; every other
    value keeps its sign and ten significant digits."""
    assert fmt(-0.0) == fmt(0.0) == fmt(np.float64(-0.0)) == "0"
    assert fmt(-1e-300) == "-1e-300"
    assert fmt(-2721.4710654321) == "-2721.471065"
    assert fmt(float("nan")) == "nan" and fmt(float("nan"), nan="") == ""
    assert fmt(3) == "3" and fmt("optimal") == "optimal"


def test_classify_regime_labels():
    assert classify_regime(0.0, 0.0) == "robust-ignored"
    assert classify_regime(1e-9, -1e-9) == "robust-ignored"
    assert classify_regime(1500.0, 1.0) == "data-informed"
    assert classify_regime(1500.0, 0.0) == "mixed/degenerate"
    assert classify_regime(0.0, 1.0) == "mixed/degenerate"


def test_robust_cell_has_zero_marginal_value(robust_sol):
    rep = marginal_data_value(robust_sol)
    np.testing.assert_allclose(rep.marginal_value, 0.0, atol=1e-8)
    assert rep.regime == ("robust-ignored", "robust-ignored")


def test_marginal_value_combines_both_blocks(solve_cell):
    for eps in ((0.1, 0.1), (1.0, 0.001)):
        sol = solve_cell(*eps)
        rep = marginal_data_value(sol)
        expect = sol.lambda_co + rep.phi * sol.lambda_cc
        np.testing.assert_allclose(rep.marginal_value, expect,
                                   rtol=1e-9, atol=1e-9)
        assert np.min(rep.marginal_value) >= -1e-8


def test_marginal_value_ignores_phi_where_lambda_cc_is_zero(solve_cell):
    """Where lambda_cc is zero on every feature, phi is a degenerate dual
    (its value depends on the LP's formulation and the solver's path) and
    the marginal value of data is lambda_co alone."""
    for eps in ((0.1, 0.1), (1.0, 0.1), (0.1, 1.0)):
        sol = solve_cell(*eps)
        rep = marginal_data_value(sol)
        np.testing.assert_allclose(rep.lambda_cc, 0.0, atol=1e-12)
        np.testing.assert_allclose(rep.marginal_value, sol.lambda_co,
                                   rtol=1e-12, atol=1e-9)


def test_phi_matches_eta_row_sums(solve_cell):
    for eps in ((0.1, 0.1), (1.0, 0.001), (0.005, 0.005)):
        sol = solve_cell(*eps)
        rep = marginal_data_value(sol)
        n = sol.built.data.counts[0]
        eta = sol.lp_solution.family_multipliers("cc_main")
        per_sample = n * eta.sum(axis=1)
        np.testing.assert_allclose(per_sample, rep.phi,
                                   atol=1e-6 * max(1.0, abs(rep.phi)))


def test_lambda_co_dichotomy(case5, solve_cell):
    for eps in ((0.1, 0.1), (0.005, 0.1), (1.0, 0.001), (0.005, 0.005)):
        sol = solve_cell(*eps)
        sums = activation_cost_sums(case5, sol)
        for j in range(case5.num_resources):
            lam = sol.lambda_co[j]
            assert lam <= 1e-6 or abs(lam - sums[j]) <= 1e-6 * sums[j]


def test_lambda_cc_matches_some_row_magnitude(solve_cell):
    for eps in ((1.0, 0.001), (0.005, 0.005), (0.1, 0.005)):
        sol = solve_cell(*eps)
        magnitudes = np.abs(sol.cc_a_matrix())
        for j, lam in enumerate(sol.lambda_cc):
            if abs(lam) <= 1e-6:
                continue
            assert np.min(np.abs(magnitudes[:, j] - lam)) <= 1e-6 * max(1, lam)


def test_offline_thresholds_are_mean_distance_to_lower_end(case5, train20):
    box = build_joint_support(case5)
    data = MultiDataset.from_matrix(train20, np.array([0.1, 0.1]))
    thr = offline_thresholds(data, box)
    expect = train20.mean(axis=1) - box.lower
    np.testing.assert_allclose(thr, expect, atol=1e-12)


def test_prop3_prediction_against_solved_cells(case5, train20, solve_cell):
    box = build_joint_support(case5)
    for eps in ((1.0, 1.0), (0.1, 0.1), (0.005, 0.1)):
        sol = solve_cell(*eps)
        data = MultiDataset.from_matrix(train20, np.array(eps))
        pred = prop3_offline_check(data, box, activation_cost_sums(case5, sol))
        for j in range(case5.num_resources):
            if abs(eps[j] - pred.threshold[j]) < 1e-9:
                continue
            assert sol.lambda_co[j] == pytest.approx(
                pred.predicted_lambda_co[j], rel=1e-6, abs=1e-6)


def test_prop3_worst_corner_data_is_worthless(case5):
    box = build_joint_support(case5)
    corner = np.tile(box.lower[:, None], (1, 6))
    data = MultiDataset(corner, np.array([0.3, 0.3]))
    pred = prop3_offline_check(data, box, np.array([3000.0, 2000.0]))
    np.testing.assert_allclose(pred.threshold, 0.0, atol=1e-12)
    np.testing.assert_allclose(pred.predicted_lambda_co, 0.0)


def test_envelope_robust_cell_is_flat(case5, train20):
    data = MultiDataset.from_matrix(train20, np.array([1.0, 1.0]))
    chk = envelope_check(case5, data, 0.05, 0)
    assert not chk.degenerate
    assert chk.analytic == pytest.approx(0.0, abs=1e-8)
    assert chk.finite_difference == pytest.approx(0.0, abs=1e-4)


def test_envelope_data_informed_cells(case5, train20):
    for eps, j in (((0.1, 0.1), 0), ((0.1, 0.1), 1), ((0.005, 0.1), 0)):
        data = MultiDataset.from_matrix(train20, np.array(eps))
        chk = envelope_check(case5, data, 0.05, j)
        if chk.degenerate:
            continue
        assert abs(chk.finite_difference - chk.analytic) <= 1e-3 * max(
            1.0, abs(chk.analytic))


def test_envelope_flags_threshold_kink(case5, train20):
    box = build_joint_support(case5)
    data = MultiDataset.from_matrix(train20, np.array([1.0, 1.0]))
    thr = offline_thresholds(data, box)
    kinked = MultiDataset.from_matrix(train20, np.array([float(thr[0]), 0.1]))
    chk = envelope_check(case5, kinked, 0.05, 0)
    assert chk.degenerate


def test_zero_budget_feature_is_degenerate(case5, train20, solve_cell):
    """At eps_1 = 0 feature 1's multipliers are fixed at 0: they do not
    price the budget, which the forward difference shows."""
    report = marginal_data_value(solve_cell(0.0, 0.1))
    assert report.regime[0] == MIXED
    assert report.marginal_value[0] == 0.0
    data = MultiDataset.from_matrix(train20, np.array([0.0, 0.1]))
    chk = envelope_check(case5, data, 0.05, 0)
    assert chk.degenerate
    assert chk.analytic == 0.0
    assert chk.finite_difference > 1e3


def test_pi_f_is_forecast_shadow_price(case5, train20, solve_cell):
    """Each pi_F_j reproduces -d(objective)/d(u_j) by central differences."""
    eps = (0.1, 0.1)
    sol = solve_cell(*eps)
    data = MultiDataset.from_matrix(train20, np.array(eps))
    fv = forecast_value_decomposition(sol)
    delta = 1e-5
    for j in range(case5.num_resources):
        objs = []
        for sign in (+1, -1):
            resources = list(case5.resources)
            r = resources[j]
            resources[j] = Resource(r.bus, r.u + sign * delta, r.u_min,
                                    r.u_max, r.kappa)
            pert = Network(buses=case5.buses, lines=case5.lines,
                           generators=case5.generators, loads=case5.loads,
                           resources=resources, slack_bus=case5.slack_bus)
            objs.append(solve_msdro_opf(pert, data, 0.05).objective)
        fd = -(objs[0] - objs[1]) / (2 * delta)
        assert fv.pi_f[j] == pytest.approx(fd, rel=1e-5, abs=1e-3)


def test_pi_d_is_the_marginal_value_bit_for_bit(solve_cell):
    """pi_D of the forecast decomposition is the marginal value of data,
    read from the same formula, not a second one."""
    for eps in ((1.0, 1.0), (0.1, 0.1), (1.0, 0.001), (0.0, 0.1)):
        sol = solve_cell(*eps)
        pi_d = forecast_value_decomposition(sol).pi_d
        assert bits(pi_d) == bits(marginal_data_value(sol).marginal_value), eps


def test_decomposition_terms_at_saturated_budgets(case5, robust_sol):
    fv = forecast_value_decomposition(robust_sol)
    u = case5.forecast_vector()
    np.testing.assert_allclose(fv.pi_f,
                               fv.lmp_term - fv.balancing_term
                               - fv.reserve_term, atol=1e-9)
    assert u[0] * fv.balancing_term[0] == pytest.approx(900.0, rel=1e-6)
    assert u[1] * fv.balancing_term[1] == pytest.approx(1875.3495, rel=1e-4)
    np.testing.assert_allclose(fv.remuneration, u * fv.pi_f, atol=1e-8)


def test_zero_kappa_collapses_to_lmp(case5):
    pinned = [Resource(r.bus, r.u, r.u_min, r.u_max, 0.0)
              for r in case5.resources]
    net = Network(buses=case5.buses, lines=case5.lines,
                  generators=case5.generators, loads=case5.loads,
                  resources=pinned, slack_bus=case5.slack_bus)
    data = MultiDataset(np.zeros((2, 20)), np.zeros(2))
    sol = solve_msdro_opf(net, data, 0.05)
    fv = forecast_value_decomposition(sol)
    np.testing.assert_allclose(fv.balancing_term, 0.0, atol=1e-9)
    np.testing.assert_allclose(fv.reserve_term, 0.0, atol=1e-9)
    np.testing.assert_allclose(fv.pi_f, fv.lmp_term, atol=1e-9)
    np.testing.assert_allclose(fv.remuneration,
                               net.forecast_vector() * fv.lmp_term, atol=1e-8)


def test_reports_require_optimal_solution():
    bad = Network(buses=[1, 2], lines=[Line(1, 2, 0.1, 5.0)],
                  generators=[Generator(1, 0.0, 0.5, 10.0, 1.0, 20.0)],
                  loads={2: 3.0},
                  resources=[Resource(2, 0.5, 0.0, 1.0, 0.5)],
                  slack_bus=1)
    data = MultiDataset(np.zeros((1, 4)), np.array([0.1]))
    sol = solve_msdro_opf(bad, data, 0.05)
    with pytest.raises(SolverError, match="solution status is infeasible"):
        marginal_data_value(sol)
    with pytest.raises(SolverError, match="solution status is infeasible"):
        forecast_value_decomposition(sol)


def test_csv_outputs(tmp_path, case5, solve_cell):
    sol = solve_cell(0.1, 0.1)
    dv_path = tmp_path / "data_value.csv"
    write_data_value_csv(dv_path, marginal_data_value(sol))
    lines = dv_path.read_text().splitlines()
    assert lines[0] == ",".join(DATA_VALUE_COLUMNS)
    assert len(lines) == 1 + case5.num_resources

    fv_path = tmp_path / "forecast_value.csv"
    write_forecast_value_csv(fv_path,
                             forecast_value_decomposition(sol))
    flines = fv_path.read_text().splitlines()
    assert flines[0] == ",".join(FORECAST_VALUE_COLUMNS)
    assert flines[0].split(",") == ["feature", "lmp_term", "balancing_term",
                                    "reserve_term", "pi_F", "pi_D",
                                    "remuneration"]
    rows = data_value_rows(marginal_data_value(sol))
    assert [r[0] for r in rows] == [1, 2]
    frows = forecast_value_rows(forecast_value_decomposition(sol))
    assert len(frows) == case5.num_resources
