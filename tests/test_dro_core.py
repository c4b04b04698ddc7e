"""Worst-case expectation routes, cross-checked against direct LP assemblies.

The package computes three reformulations (separable, shared-index,
exponential product form). Each is pinned here to an independently assembled
scipy LP over the same anchor measure, and bounded by the joint-coupling
grid oracle, which is the one route that never factors through an anchor.
"""

import itertools
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdro_opf import dro_core
from msdro_opf.dro_core import (BoxSupport, MultiDataset, PiecewiseMaxAffine,
                                SeparableAffineCost, mean_transport_room,
                                robust_value, sample_average,
                                separable_thresholds, transport_room,
                                wasserstein_block, wc_expectation_general,
                                wc_expectation_separable,
                                wc_expectation_single_budget,
                                wc_expectation_standardized)
from msdro_opf.errors import InputError
from msdro_opf.lp import Model, SolverError
from msdro_opf.opf_model import solve_msdro_opf

from oracles import (anchored_dual_value, grid_sup_affine, linprog_solve,
                     multi_marginal_value, per_piece_anchored_lp, separable_lp,
                     sup_affine_minus_l1)

BOX11 = BoxSupport([-1.0], [1.0])


def random_instance(rng, d=None, n=None, k=None, eps_hi=0.5):
    d = d or int(rng.integers(1, 4))
    n = n or int(rng.integers(1, 5))
    k = k or int(rng.integers(1, 5))
    lo = -rng.uniform(0.5, 2.0, d)
    up = rng.uniform(0.5, 2.0, d)
    xs = np.vstack([rng.uniform(lo[j], up[j], n) for j in range(d)])
    data = MultiDataset(xs, rng.uniform(0.0, eps_hi, d))
    cost = PiecewiseMaxAffine(rng.normal(size=(k, d)), rng.normal(size=k))
    return cost, data, BoxSupport(lo, up)


def product_anchor(data):
    atoms = np.array([[data.samples[j][m[j]] for j in range(data.dimension)]
                      for m in itertools.product(*map(range, data.counts))])
    return atoms, np.full(len(atoms), 1.0 / len(atoms))


# --- inner sup ---------------------------------------------------------------

def test_sup_free_transport_reaches_corner():
    assert sup_affine_minus_l1([1.0], [0.0], [0.0], BOX11) == pytest.approx(1.0)


def test_sup_dominating_penalty_stays_at_sample():
    assert sup_affine_minus_l1([1.0], [1.0], [0.2], BOX11) == pytest.approx(0.2)


def test_sup_partial_pull_toward_corner():
    assert sup_affine_minus_l1([2.0], [1.0], [0.0], BOX11) == pytest.approx(1.0)


def test_sup_matches_grid_search():
    """Closed form and the LP block's optimum against a dense grid.

    Some sample coordinates sit exactly on a support end, where one of the
    two distances in the closed form is zero.
    """
    rng = np.random.default_rng(43)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        lo = -rng.uniform(0.1, 2.0, d)
        up = rng.uniform(0.1, 2.0, d)
        xhat = rng.uniform(lo, up)
        at_end = rng.integers(0, 3, d)
        xhat = np.where(at_end == 1, lo, np.where(at_end == 2, up, xhat))
        a = rng.normal(size=d)
        lam = rng.uniform(0.0, 2.0, d)
        box = BoxSupport(lo, up)
        ref = grid_sup_affine(a, lam, xhat, lo, up)
        assert sup_affine_minus_l1(a, lam, xhat, box) == pytest.approx(
            ref, abs=1e-12)
        model = Model()
        lam_cols = model.add_vars(d, lb=lam, ub=lam)
        wasserstein_block(model, "w", d, lam_cols, const=a,
                          obj=transport_room(xhat, lo, up))
        assert model.solve().objective + a @ xhat == pytest.approx(
            ref, abs=1e-9)


def test_sup_rejects_negative_lambda_and_outside_sample():
    with pytest.raises(InputError):
        sup_affine_minus_l1([1.0], [-0.1], [0.0], BOX11)
    with pytest.raises(InputError):
        sup_affine_minus_l1([1.0], [0.5], [1.5], BOX11)


@settings(max_examples=80)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=-1, max_value=1),
)
def test_sup_dominates_sample_value(a, lam, xhat):
    got = sup_affine_minus_l1([a], [lam], [xhat], BOX11)
    assert got >= a * xhat - 1e-12
    if lam >= abs(a):
        assert got == pytest.approx(a * xhat, abs=1e-12)


# --- separable route ---------------------------------------------------------

def test_separable_small_budget_shifts_linearly():
    data = MultiDataset([np.array([0.0])], [0.1])
    res = wc_expectation_separable(SeparableAffineCost([-1.0]), data, BOX11)
    assert res.value == pytest.approx(0.1)
    assert res.lam[0] == pytest.approx(1.0)


def test_separable_zero_budget_is_sample_average():
    data = MultiDataset([np.array([0.0])], [0.0])
    res = wc_expectation_separable(SeparableAffineCost([-1.0]), data, BOX11)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_separable_saturated_budget_hits_corner():
    data = MultiDataset([np.array([0.0])], [1.5])
    res = wc_expectation_separable(SeparableAffineCost([-1.0]), data, BOX11)
    assert res.value == pytest.approx(1.0)
    assert res.lam[0] == pytest.approx(0.0, abs=1e-9)


def test_separable_threshold_is_mean_distance_to_worst_corner():
    data = MultiDataset([np.array([-0.2, 0.6]), np.array([0.1])], [0.1, 0.1])
    box = BoxSupport([-1.0, -0.5], [1.0, 1.5])
    thr = separable_thresholds(SeparableAffineCost([-2.0, 3.0]), data, box)
    # c_1 < 0 pulls to the lower end, c_2 > 0 to the upper end.
    assert thr[0] == pytest.approx(np.mean([0.8, 1.6]))
    assert thr[1] == pytest.approx(1.4)


def test_separable_flags_degenerate_budget():
    data = MultiDataset([np.array([0.0])], [1.0])
    res = wc_expectation_separable(SeparableAffineCost([-1.0]), data, BOX11)
    assert res.thresholds[0] == pytest.approx(1.0)
    assert res.degenerate[0]
    assert res.value == pytest.approx(1.0)


def test_separable_closed_form_matches_lp():
    """The closed form against the LP it replaced, on random instances with
    zero slopes, zero budgets and samples on the support ends."""
    rng = np.random.default_rng(67)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        lo = -rng.uniform(0.1, 2.0, d)
        up = rng.uniform(0.1, 2.0, d)
        xs = []
        for j in range(d):
            x = rng.uniform(lo[j], up[j], int(rng.integers(1, 8)))
            end = rng.integers(0, 4, len(x))
            xs.append(np.where(end == 1, lo[j], np.where(end == 2, up[j], x)))
        cost = SeparableAffineCost(np.where(rng.random(d) < 0.2, 0.0,
                                            rng.normal(size=d)))
        eps = np.where(rng.random(d) < 0.25, 0.0, rng.uniform(0.0, 2.0, d))
        data, box = MultiDataset(xs, eps), BoxSupport(lo, up)
        got = wc_expectation_separable(cost, data, box)
        ref = separable_lp(cost, data, box)
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
        off = ~got.degenerate
        np.testing.assert_array_equal(got.lam[off], ref.lam[off])
        for j in np.flatnonzero(off):
            np.testing.assert_allclose(got.s[j], ref.s[j], rtol=1e-9, atol=1e-9)


def test_mean_transport_room_checks_dimensions():
    data = MultiDataset([np.array([-0.5, 0.5]), np.array([0.25])], [0.1, 0.1])
    room = mean_transport_room(data, BoxSupport([-1.0, -1.0], [1.0, 2.0]))
    np.testing.assert_allclose(room, [[1.0, 1.0], [1.75, 1.25]])
    with pytest.raises(InputError):
        mean_transport_room(data, BOX11)


def test_separable_lambda_dichotomy():
    rng = np.random.default_rng(47)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        lo = -rng.uniform(0.5, 2.0, d)
        up = rng.uniform(0.5, 2.0, d)
        xs = [rng.uniform(lo[j], up[j], int(rng.integers(1, 5)))
              for j in range(d)]
        c = -rng.uniform(0.2, 3.0, d)
        data = MultiDataset(xs, rng.uniform(0.0, 2.0, d))
        res = wc_expectation_separable(SeparableAffineCost(c), data,
                                       BoxSupport(lo, up))
        for j in range(d):
            if res.degenerate[j]:
                continue
            near_zero = abs(res.lam[j]) < 1e-6
            near_coef = abs(res.lam[j] - abs(c[j])) < 1e-6
            assert near_zero or near_coef


def test_separable_equals_sum_of_single_feature_problems():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        lo = -rng.uniform(0.5, 2.0, d)
        up = rng.uniform(0.5, 2.0, d)
        xs = [rng.uniform(lo[j], up[j], int(rng.integers(1, 5)))
              for j in range(d)]
        eps = rng.uniform(0.0, 0.5, d)
        c = rng.normal(size=d)
        data = MultiDataset(xs, eps)
        box = BoxSupport(lo, up)
        whole = wc_expectation_separable(SeparableAffineCost(c), data, box)
        parts = sum(
            wc_expectation_general(
                PiecewiseMaxAffine([[c[j]]], [0.0]),
                MultiDataset([xs[j]], [eps[j]]),
                BoxSupport([lo[j]], [up[j]]))
            for j in range(d))
        assert whole.value == pytest.approx(parts, rel=1e-6, abs=1e-9)


def test_single_piece_cost_agrees_across_routes():
    rng = np.random.default_rng(59)
    for _ in range(10):
        cost, data, box = random_instance(rng, k=1)
        c = cost.a[0]
        sep = wc_expectation_separable(SeparableAffineCost(c), data, box)
        gen = wc_expectation_general(cost, data, box)
        assert gen == pytest.approx(sep.value + cost.b[0], rel=1e-7, abs=1e-8)


# --- product-form route ------------------------------------------------------

def test_general_matches_direct_product_assembly():
    rng = np.random.default_rng(61)
    for _ in range(12):
        cost, data, box = random_instance(rng)
        atoms, weights = product_anchor(data)
        direct = anchored_dual_value(cost.a, cost.b, atoms, weights,
                                     data.epsilons, box.lower, box.upper)
        assert wc_expectation_general(cost, data, box) == pytest.approx(
            direct, rel=1e-9, abs=1e-9)


def test_general_zero_budget_is_product_average():
    rng = np.random.default_rng(67)
    for _ in range(6):
        cost, data, box = random_instance(rng, eps_hi=0.0)
        assert wc_expectation_general(cost, data, box) == pytest.approx(
            sample_average(cost, data), rel=1e-8, abs=1e-9)


def test_general_saturated_budget_is_robust_value():
    rng = np.random.default_rng(71)
    for _ in range(6):
        cost, data, box = random_instance(rng, k=1)
        # Budget >= mean distance to the maximizing corner frees every atom.
        corner = np.where(cost.a[0] >= 0, box.upper, box.lower)
        eps = np.array([np.mean(np.abs(data.samples[j] - corner[j])) + 0.01
                        for j in range(data.dimension)])
        rich = MultiDataset(list(data.samples), eps)
        assert wc_expectation_general(cost, rich, box) == pytest.approx(
            robust_value(cost, box), rel=1e-8)


def test_general_product_cap(monkeypatch):
    xs = [np.linspace(-0.9, 0.9, 400), np.linspace(-0.9, 0.9, 400)]
    data = MultiDataset(xs, [0.1, 0.1])
    box = BoxSupport([-1, -1], [1, 1])
    with pytest.raises(InputError, match="index product 160000 exceeds cap "
                                         "100000"):
        wc_expectation_general(PiecewiseMaxAffine([[1.0, 1.0]], [0.0]),
                               data, box)
    monkeypatch.setattr(dro_core, "INDEX_CAP", 200_000)
    assert wc_expectation_general(PiecewiseMaxAffine([[1.0, 1.0]], [0.0]),
                                  data, box) > 0


def test_general_rejects_dimension_mismatch():
    data = MultiDataset([np.array([0.0])], [0.1])
    with pytest.raises(InputError):
        wc_expectation_general(PiecewiseMaxAffine([[1.0, 0.0]], [0.0]),
                               data, BOX11)


# --- shared-index route ------------------------------------------------------

def test_standardized_matches_direct_shared_index_assembly():
    rng = np.random.default_rng(73)
    for _ in range(12):
        cost, data, box = random_instance(rng)
        direct = anchored_dual_value(cost.a, cost.b, data.matrix().T,
                                     np.full(data.counts[0],
                                             1.0 / data.counts[0]),
                                     data.epsilons, box.lower, box.upper)
        got = wc_expectation_standardized(cost, data, box)
        assert got.value == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_standardized_zero_budget_is_shared_index_average():
    rng = np.random.default_rng(79)
    cost, data, box = random_instance(rng, d=2, n=4, eps_hi=0.0)
    anchor = float(np.mean(cost.evaluate(data.matrix())))
    got = wc_expectation_standardized(cost, data, box)
    assert got.value == pytest.approx(anchor, rel=1e-8, abs=1e-9)


def test_standardized_requires_equal_counts():
    data = MultiDataset([np.array([0.1, 0.2]), np.array([0.0])], [0.1, 0.1])
    box = BoxSupport([-1, -1], [1, 1])
    with pytest.raises(InputError, match="standardized reformulation needs "
                                         "equal sample counts"):
        wc_expectation_standardized(PiecewiseMaxAffine([[1.0, 1.0]], [0.0]),
                                    data, box)


def test_one_feature_routes_all_coincide():
    rng = np.random.default_rng(83)
    for _ in range(8):
        cost, data, box = random_instance(rng, d=1, k=1)
        gen = wc_expectation_general(cost, data, box)
        std = wc_expectation_standardized(cost, data, box).value
        sep = wc_expectation_separable(
            SeparableAffineCost(cost.a[0]), data, box).value + cost.b[0]
        pooled = wc_expectation_single_budget(cost, data, box,
                                              float(data.epsilons[0]))
        assert std == pytest.approx(gen, rel=1e-8, abs=1e-9)
        assert sep == pytest.approx(gen, rel=1e-8, abs=1e-9)
        assert pooled == pytest.approx(gen, rel=1e-8, abs=1e-9)


def test_standardized_never_exceeds_pooled_budget_comparator():
    rng = np.random.default_rng(89)
    for _ in range(10):
        cost, data, box = random_instance(rng)
        std = wc_expectation_standardized(cost, data, box).value
        pooled = wc_expectation_single_budget(
            cost, data, box, float(np.sum(data.epsilons)))
        assert std <= pooled + 1e-7 * (1 + abs(pooled))


# --- anchored epigraph against the per-piece LP ------------------------------

def oracle_instance(rng, equal_counts):
    """d = 1-4 features, K = 1-4 pieces; some samples exactly on a support
    end, some budgets zero, and some pieces tied at the first anchor (by
    an intercept shift or a duplicated piece)."""
    d, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    lo, up = -rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)
    n_max = 4 if d <= 2 else 3 if d == 3 else 2
    counts = (np.full(d, rng.integers(1, 6)) if equal_counts
              else rng.integers(1, n_max + 1, d))
    samples = []
    for j, n in enumerate(counts):
        xs = rng.uniform(lo[j], up[j], n)
        end = rng.integers(0, 4, n)
        samples.append(np.where(end == 1, lo[j], np.where(end == 2, up[j], xs)))
    eps = np.where(rng.random(d) < 0.3, 0.0, rng.uniform(0.0, 0.5, d))
    a, b = rng.normal(size=(k, d)), rng.normal(size=k)
    if k > 1:
        first = np.array([s[0] for s in samples])
        tie = rng.integers(0, 3)
        if tie == 1:
            b[1] = b[0] + (a[0] - a[1]) @ first
        elif tie == 2:
            a[1], b[1] = a[0], b[0]
    return PiecewiseMaxAffine(a, b), MultiDataset(samples, eps), BoxSupport(lo, up)


def test_general_matches_per_piece_lp():
    rng = np.random.default_rng(109)
    for _ in range(40):
        cost, data, box = oracle_instance(rng, equal_counts=False)
        ref = per_piece_anchored_lp(cost, product_anchor(data)[0],
                                    data.epsilons, box)
        assert wc_expectation_general(cost, data, box) == pytest.approx(
            ref.value, rel=1e-9, abs=1e-9)


def test_standardized_matches_per_piece_lp_with_consistent_epigraph():
    """Same value as the per-piece LP; eps . lam + mean(s) is the value and
    each s_t is the largest piece's worst case at anchor t under lam."""
    rng = np.random.default_rng(113)
    for _ in range(40):
        cost, data, box = oracle_instance(rng, equal_counts=True)
        points = data.matrix().T
        ref = per_piece_anchored_lp(cost, points, data.epsilons, box)
        got = wc_expectation_standardized(cost, data, box)
        assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
        assert data.epsilons @ got.lam + np.mean(got.s) == pytest.approx(
            got.value, rel=1e-9, abs=1e-9)
        tops = [max(b_k + sup_affine_minus_l1(a_k, got.lam, x_t, box)
                    for a_k, b_k in zip(cost.a, cost.b)) for x_t in points]
        np.testing.assert_allclose(got.s, tops, rtol=1e-9, atol=1e-9)


def test_single_budget_matches_per_piece_lp():
    rng = np.random.default_rng(127)
    for _ in range(40):
        cost, data, box = oracle_instance(rng, equal_counts=True)
        pooled = float(np.sum(data.epsilons))
        ref = per_piece_anchored_lp(cost, data.matrix().T, data.epsilons,
                                    box, pooled=pooled)
        got = wc_expectation_single_budget(cost, data, box, pooled)
        assert got == pytest.approx(ref.value, rel=1e-9, abs=1e-9)


#: Budget scales from nearly the sample average to saturated budgets.
BUDGET_SCALES = (0.01, 0.1, 1.0, 3.0, 10.0, 30.0)


def anchored_routes(rng):
    """The three anchored routes on clipped normal samples in [-1, 1]:
    (name, call, oracle) with ``call(scale)`` the route's value and
    ``oracle(scale)`` the per-piece LP's, budgets scaled by ``scale``."""
    box = BoxSupport(-np.ones(3), np.ones(3))
    eps = np.array([0.05, 0.02, 0.1])

    def samples(*counts):
        return [np.clip(rng.normal(0.0, 0.35, n), -1.0, 1.0) for n in counts]

    def cost(k):
        return PiecewiseMaxAffine(rng.normal(size=(k, 3)),
                                  0.1 * rng.normal(size=k))

    prod_cost, prod_xs = cost(3), samples(6, 5, 4)
    std_cost, std_xs = cost(4), samples(30, 30, 30)
    std_points = np.column_stack(std_xs)

    def general(scale):
        return wc_expectation_general(
            prod_cost, MultiDataset(prod_xs, scale * eps), box)

    def general_ref(scale):
        atoms = product_anchor(MultiDataset(prod_xs, scale * eps))[0]
        return per_piece_anchored_lp(prod_cost, atoms, scale * eps, box).value

    def standardized(scale):
        return wc_expectation_standardized(
            std_cost, MultiDataset(std_xs, scale * eps), box).value

    def standardized_ref(scale):
        return per_piece_anchored_lp(std_cost, std_points, scale * eps,
                                     box).value

    def single_budget(scale):
        return wc_expectation_single_budget(
            std_cost, MultiDataset(std_xs, scale * eps), box,
            scale * eps.sum())

    def single_budget_ref(scale):
        return per_piece_anchored_lp(std_cost, std_points, scale * eps, box,
                                     pooled=scale * eps.sum()).value

    return [("general", general, general_ref),
            ("standardized", standardized, standardized_ref),
            ("single_budget", single_budget, single_budget_ref)]


@pytest.fixture
def anchored_solves(monkeypatch):
    """Every ``Model.solve`` call's LP solution, in call order."""
    seen = []
    solve = Model.solve

    def spy(self):
        sol = solve(self)
        seen.append(sol)
        return sol

    monkeypatch.setattr(Model, "solve", spy)
    return seen


def test_anchored_routes_without_presolve_match_presolved_and_per_piece_lp(
        anchored_solves):
    """Solving the anchored LPs from their slack basis without presolve
    changes no value, from near-zero to saturated budgets: each round's
    LP optimum equals the same LP presolved by ``linprog``, and each
    route's value the per-piece LP's."""
    for name, route, oracle in anchored_routes(np.random.default_rng(23)):
        for scale in BUDGET_SCALES:
            anchored_solves.clear()
            value = route(scale)
            assert anchored_solves, (name, scale)
            for sol in anchored_solves:
                presolved = linprog_solve(sol.model)
                assert presolved.objective == pytest.approx(
                    sol.objective, rel=1e-9, abs=1e-9), (name, scale)
            assert value == pytest.approx(oracle(scale), rel=1e-9,
                                          abs=1e-9), (name, scale)


def test_anchored_routes_solve_without_presolve(anchored_solves, case5,
                                                train20):
    """Every round's anchored LP has presolve off in its HiGHS object; the
    OPF LP, with free columns and negative costs, keeps ``linprog``'s
    presolve."""
    for name, route, _ in anchored_routes(np.random.default_rng(29)):
        anchored_solves.clear()
        route(1.0)
        assert anchored_solves, name
        for sol in anchored_solves:
            assert sol._highs.getOptionValue("presolve")[1] == "off", name
    anchored_solves.clear()
    solve_msdro_opf(case5, MultiDataset.from_matrix(train20, [0.1, 0.1]), 0.05)
    (opf,) = anchored_solves
    assert opf._highs.getOptionValue("presolve")[1] == "on"


def spy_on_anchored(monkeypatch) -> list:
    """Every ``dro_core._solve_anchored`` call from here on, in call order:
    its cost, anchors, support, the number of columns before its own (the
    multipliers) and the LP solution it returns."""
    seen = []
    solve_anchored = dro_core._solve_anchored

    def spy(model, lam, cost, points, support):
        n_lam = model.num_vars
        out = solve_anchored(model, lam, cost, points, support)
        seen.append(SimpleNamespace(cost=cost, points=points, support=support,
                                    n_lam=n_lam, sol=out[1]))
        return out

    monkeypatch.setattr(dro_core, "_solve_anchored", spy)
    return seen


@pytest.fixture
def anchored_calls(monkeypatch):
    return spy_on_anchored(monkeypatch)


def anchored_row_faults(call, tol=1e-9) -> list:
    """The anchored rows sigma_t >= row(t, k) - row(t, k0), k != k0(t),
    that the returned solution misses by more than tol (1 + |rhs|), as
    (t, k, rhs - lhs). All n_t (K - 1) rows are computed here from the
    instance: the columns after the multipliers are sigma (one per anchor)
    and p and q (feature by piece), in that order."""
    cost, points, support = call.cost, call.points, call.support
    n_t, d = points.shape
    k_pieces = cost.num_pieces
    x = call.sol.x[call.n_lam:]
    sigma, x = x[:n_t], x[n_t:]
    p, q = x.reshape(2, d, k_pieces)
    heights = cost.b + points @ cost.a.T
    k0 = np.argmax(heights, axis=1)
    up, lo = transport_room(points, support.lower, support.upper)
    spread = up @ p + lo @ q
    t = np.arange(n_t)
    rhs = heights - heights[t, k0][:, None]
    lhs = sigma[:, None] - spread + spread[t, k0][:, None]
    bad = ((lhs < rhs - tol * (1.0 + np.abs(rhs)))
           & (np.arange(k_pieces) != k0[:, None]))
    return [(int(i), int(k), float(rhs[i, k] - lhs[i, k]))
            for i, k in zip(*np.nonzero(bad))]


def test_generated_lp_answer_meets_every_anchored_row(anchored_calls):
    """Each route's returned solution meets all n_t (K - 1) anchored rows,
    also those its last LP left out, and some LP left rows out."""
    left_out = 0
    for name, route, _ in anchored_routes(np.random.default_rng(37)):
        for scale in BUDGET_SCALES:
            anchored_calls.clear()
            route(scale)
            (call,) = anchored_calls
            assert anchored_row_faults(call) == [], (name, scale)
            n_t, k_pieces = len(call.points), call.cost.num_pieces
            idx = call.sol.model.families["idx"]
            left_out += n_t * (k_pieces - 1) - int(np.count_nonzero(idx.present))
    assert left_out > 0


@st.composite
def small_instances(draw):
    """As ``oracle_instance`` draws them, smaller: d <= 3 features, K <= 4
    pieces, 1-4 samples per feature (equal counts or not), some on a
    support end, some budgets zero, and some pieces tied at the first
    anchor (by an intercept shift or a duplicated piece)."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def floats(lo, up, n):
        return np.array(draw(st.lists(st.floats(lo, up), min_size=n, max_size=n)))

    lo, up = -floats(0.5, 2.0, d), floats(0.5, 2.0, d)
    counts = (draw(st.integers(1, 4)),) * d if draw(st.booleans()) else \
        draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    samples = [np.array(draw(st.lists(
        st.sampled_from([lo[j], up[j]]) | st.floats(lo[j], up[j]),
        min_size=n, max_size=n))) for j, n in enumerate(counts)]
    eps = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 0.5),
                                 min_size=d, max_size=d)))
    eighths = st.integers(-24, 24).map(lambda v: v / 8)
    a = np.array(draw(st.lists(eighths, min_size=k * d,
                               max_size=k * d))).reshape(k, d)
    b = np.array(draw(st.lists(eighths, min_size=k, max_size=k)))
    if k > 1:
        tie = draw(st.integers(0, 2))
        if tie == 1:
            b[1] = b[0] + (a[0] - a[1]) @ np.array([s[0] for s in samples])
        elif tie == 2:
            a[1], b[1] = a[0], b[0]
    return PiecewiseMaxAffine(a, b), MultiDataset(samples, eps), BoxSupport(lo, up)


@settings(max_examples=60, deadline=None)
@given(instance=small_instances())
def test_generated_lp_answer_meets_every_anchored_row_on_small_instances(
        instance):
    """On every anchored route a small instance admits, the returned
    solution meets all anchored rows and the value is the per-piece LP's."""
    cost, data, box = instance
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_on_anchored(monkeypatch)
        routes = [(wc_expectation_general(cost, data, box),
                   product_anchor(data)[0], None)]
        if data.is_standardized:
            pooled = float(np.sum(data.epsilons))
            routes += [
                (wc_expectation_standardized(cost, data, box).value,
                 data.matrix().T, None),
                (wc_expectation_single_budget(cost, data, box, pooled),
                 data.matrix().T, pooled)]
    assert len(calls) == len(routes)
    for call, (value, points, pooled) in zip(calls, routes):
        assert anchored_row_faults(call) == []
        ref = per_piece_anchored_lp(cost, points, data.epsilons, box,
                                    pooled=pooled)
        assert value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)


def test_product_route_ends_in_few_anchored_rows(anchored_calls):
    """A product the size of the benchmark's (2 features, 60 x 50 samples,
    3 pieces: 6 000 anchored rows) ends in an LP with fewer than half of
    them, at the per-piece LP's value. (Seeds 30-59 end with 0 rows in 27
    cases and at most 2 406; this seed ends with 1 375.)"""
    rng = np.random.default_rng(41)
    xs = [np.clip(rng.normal(0.0, 0.35, n), -1.0, 1.0) for n in (60, 50)]
    cost = PiecewiseMaxAffine(rng.normal(size=(3, 2)), 0.1 * rng.normal(size=3))
    data, box = MultiDataset(xs, [0.05, 0.1]), BoxSupport(-np.ones(2), np.ones(2))
    value = wc_expectation_general(cost, data, box)
    (call,) = anchored_calls
    assert int(np.count_nonzero(call.sol.model.families["idx"].present)) < 3_000
    assert anchored_row_faults(call) == []
    ref = per_piece_anchored_lp(cost, product_anchor(data)[0], data.epsilons, box)
    assert value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)


def test_anchored_routes_raise_solver_error_when_the_lp_is_not_optimal(
        monkeypatch):
    """A route whose epigraph LP does not end optimal raises ``SolverError``
    (the CLI's exit 4), naming the LP and the status it ended in."""
    solve = Model.solve

    def unbounded(self, **options):
        return replace(solve(self, **options), status="unbounded")

    monkeypatch.setattr(Model, "solve", unbounded)
    for name, route, _ in anchored_routes(np.random.default_rng(31)):
        lp_name = "wc-" + name.replace("_", "-")
        with pytest.raises(SolverError, match=f"^{lp_name} LP ended unbounded$"):
            route(1.0)


# --- cross-route structure ---------------------------------------------------

def test_routes_are_inner_bounds_of_joint_coupling_oracle():
    """Both anchored reformulations stay below the marginal-constrained sup.

    The joint-coupling grid LP optimizes over every joint measure whose
    per-feature transport distance to each dataset is within budget; the
    anchored forms restrict attention to couplings against one fixed anchor
    measure, so they can only come out lower.
    """
    rng = np.random.default_rng(97)
    for _ in range(8):
        cost, data, box = random_instance(rng, d=2, n=3, k=3, eps_hi=0.4)
        mm = multi_marginal_value(cost.a, cost.b, list(data.samples),
                                  data.epsilons, box.lower, box.upper)
        gen = wc_expectation_general(cost, data, box)
        std = wc_expectation_standardized(cost, data, box).value
        assert gen <= mm + 1e-7 * (1 + abs(mm))
        assert std <= mm + 1e-7 * (1 + abs(mm))


def test_single_piece_routes_attain_joint_coupling_oracle():
    rng = np.random.default_rng(101)
    for _ in range(6):
        cost, data, box = random_instance(rng, d=2, n=3, k=1, eps_hi=0.4)
        mm = multi_marginal_value(cost.a, cost.b, list(data.samples),
                                  data.epsilons, box.lower, box.upper)
        gen = wc_expectation_general(cost, data, box)
        std = wc_expectation_standardized(cost, data, box).value
        assert gen == pytest.approx(mm, rel=1e-7, abs=1e-8)
        assert std == pytest.approx(mm, rel=1e-7, abs=1e-8)


def test_monotone_in_budgets():
    rng = np.random.default_rng(103)
    for _ in range(6):
        cost, data, box = random_instance(rng, eps_hi=0.3)
        bigger = MultiDataset(list(data.samples),
                              data.epsilons + rng.uniform(0.0, 0.3,
                                                          data.dimension))
        lo_g = wc_expectation_general(cost, data, box)
        hi_g = wc_expectation_general(cost, bigger, box)
        assert lo_g <= hi_g + 1e-8 * (1 + abs(hi_g))
        lo_s = wc_expectation_standardized(cost, data, box).value
        hi_s = wc_expectation_standardized(cost, bigger, box).value
        assert lo_s <= hi_s + 1e-8 * (1 + abs(hi_s))


def test_values_between_anchor_average_and_robust():
    rng = np.random.default_rng(107)
    for _ in range(10):
        cost, data, box = random_instance(rng)
        rob = robust_value(cost, box)
        gen = wc_expectation_general(cost, data, box)
        assert sample_average(cost, data) - 1e-8 <= gen <= rob + 1e-8
        std = wc_expectation_standardized(cost, data, box)
        diag = float(np.mean(cost.evaluate(data.matrix())))
        assert diag - 1e-8 <= std.value <= rob + 1e-8


# --- input validation --------------------------------------------------------

def test_routes_reject_dataset_without_features():
    empty, box = MultiDataset([], []), BoxSupport([], [])
    flat = PiecewiseMaxAffine(np.zeros((1, 0)), [0.0])
    routes = (
        lambda: wc_expectation_separable(SeparableAffineCost([]), empty, box),
        lambda: wc_expectation_general(flat, empty, box),
        lambda: wc_expectation_standardized(flat, empty, box),
        lambda: wc_expectation_single_budget(flat, empty, box, 0.1),
    )
    for route in routes:
        with pytest.raises(InputError, match="no features"):
            route()


def test_box_support_validation():
    with pytest.raises(InputError):
        BoxSupport([0.5], [1.0])
    with pytest.raises(InputError):
        BoxSupport([-1.0], [-0.2])
    with pytest.raises(InputError):
        BoxSupport([1.0], [0.5])
    for lower, upper in (([np.nan], [1.0]), ([-np.inf], [1.0]), ([-1.0], [np.inf])):
        with pytest.raises(InputError):
            BoxSupport(lower, upper)


@pytest.mark.parametrize("make, message", [
    (lambda: BoxSupport("a", "b"), "support bounds must be numbers"),
    (lambda: BoxSupport([-1.0], [[1.0], 2.0]), "support bounds must be numbers"),
    (lambda: MultiDataset([[1.0, "a"]], [0.1]), "samples must be numbers"),
    (lambda: MultiDataset(None, [0.1]), "samples must be a list, got None"),
    (lambda: MultiDataset([[1.0]], "x"), "epsilons must be numbers"),
    (lambda: MultiDataset([[[1.0, 2.0]]], [0.1]), "must be one vector"),
    (lambda: MultiDataset([[1.0]], [[0.1]]), "one epsilon per feature"),
], ids=["text bounds", "ragged bound", "text sample", "no samples",
        "text budget", "matrix feature", "budget matrix"])
def test_dataset_and_support_refuse_what_is_not_numbers(make, message):
    with pytest.raises(InputError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: SeparableAffineCost([np.nan, 1.0]), "cost coefficients must be finite"),
    (lambda: SeparableAffineCost([1.0, -np.inf]), "cost coefficients must be finite"),
    (lambda: SeparableAffineCost(["a", 1.0]), "cost coefficients must be numbers"),
    (lambda: SeparableAffineCost([[1.0, 2.0]]), "cost coefficients must be a vector"),
    (lambda: PiecewiseMaxAffine([[np.nan, 0.0]], [0.0]), "cost slopes must be finite"),
    (lambda: PiecewiseMaxAffine([[1.0, np.inf]], [0.0]), "cost slopes must be finite"),
    (lambda: PiecewiseMaxAffine([[1.0, 0.0]], [np.nan]), "cost intercepts must be finite"),
    (lambda: PiecewiseMaxAffine([[1.0, "a"]], [0.0]), "cost slopes must be numbers"),
    (lambda: PiecewiseMaxAffine([[1.0, 0.0]], None), "cost intercepts must be finite"),
    (lambda: PiecewiseMaxAffine([1.0, 0.0], [0.0]), "a K x d matrix"),
    (lambda: PiecewiseMaxAffine([[1.0, 0.0]], [[0.0]]), "a K x d matrix"),
    (lambda: PiecewiseMaxAffine([[1.0, 0.0]], [0.0, 1.0]), "one intercept per"),
], ids=["nan coefficient", "infinite coefficient", "text coefficient",
        "coefficient matrix", "nan slope", "infinite slope", "nan intercept",
        "text slope", "no intercepts", "slope vector", "intercept matrix",
        "intercept count"])
def test_costs_refuse_coefficients_that_are_not_finite_numbers(make, message):
    """A NaN coefficient used to come out of the routes as a NaN value or
    a HiGHS rejection; it ends in ``InputError`` at construction now."""
    with pytest.raises(InputError, match=message):
        make()


@pytest.mark.parametrize("epsilon, message", [
    (np.nan, "epsilon must be finite and >= 0, got nan"),
    (np.inf, "epsilon must be finite and >= 0, got inf"),
    (-0.1, "epsilon must be finite and >= 0, got -0.1"),
    ("0.3", "epsilon must be a number, got '0.3'"),
    (None, "epsilon must be a number, got None"),
    (True, "epsilon must be a number, got True"),
])
def test_single_budget_refuses_a_budget_that_is_not_a_finite_number(
        epsilon, message):
    cost = PiecewiseMaxAffine([[1.0, -1.0], [0.5, 0.5]], [0.0, 0.1])
    data = MultiDataset([[0.1, -0.2], [0.0, 0.3]], [0.1, 0.1])
    box = BoxSupport(-np.ones(2), np.ones(2))
    with pytest.raises(InputError, match=re.escape(message)):
        wc_expectation_single_budget(cost, data, box, epsilon)
    for zero in (0, np.float64(0.0)):
        assert wc_expectation_single_budget(cost, data, box, zero) == \
            pytest.approx(np.mean(cost.evaluate(data.matrix())), abs=1e-12)


def test_dataset_validation():
    with pytest.raises(InputError):
        MultiDataset([np.array([0.0])], [-0.1])
    for samples, eps in (([np.array([0.0, np.nan])], [0.1]),
                         ([np.array([np.inf])], [0.1]),
                         ([np.array([0.0])], [np.nan]),
                         ([np.array([0.0])], [np.inf])):
        with pytest.raises(InputError):
            MultiDataset(samples, eps)
    with pytest.raises(InputError):
        MultiDataset([np.array([2.0])], [0.1]).validate_within(BOX11)
    # Features count from 1 in messages, as everywhere else.
    with pytest.raises(InputError, match=r"features \[2\] have non-finite"):
        MultiDataset([np.zeros(2), np.array([0.0, np.nan])], [0.1, 0.1])
