"""Metamorphic relations: relabelling or rescaling an instance moves the
solution in a known way, so each relation checks the whole pipeline (flow
maps, LP, HiGHS, dual extraction, valuation) without a second
implementation.

Every relation runs on case5 (two training seeds, four budget cells, N' =
20) and on the seeded ring networks of ``oracles.ring_instances``, within
1e-9 relative. Where a feature's regime is ``mixed/degenerate`` the duals
need not be unique, so only objectives and dispatch are compared there.
"""

import dataclasses

import numpy as np

from msdro_opf import MultiDataset, solve_msdro_opf
from msdro_opf.evaluation import derive_seed, training_matrix
from msdro_opf.opf_model import cvar_tightening_rerun
from msdro_opf.valuation import MIXED, REGIME_TOL, marginal_data_value
from oracles import ring_instances

RTOL = 1e-9
CELLS = [(1.0, 1.0), (0.1, 0.005), (0.005, 0.1), (0.001, 0.001)]


def instances(case5):
    """(label, network, data, gamma): case5 cells, then 10 ring instances."""
    for seed in (1, 2):
        xs = training_matrix(case5, 20, derive_seed(seed, "train"))
        for cell in CELLS:
            yield (f"case5 seed {seed} {cell}", case5,
                   MultiDataset.from_matrix(xs, list(cell)), 0.05)
    for k, (net, data, gamma) in enumerate(ring_instances(10)):
        yield f"ring {k}", net, data, gamma


def assert_close(got, want, label):
    """Equal within RTOL of the larger of 1 and the reference's magnitude."""
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * scale,
                               err_msg=label)


def priced(report) -> bool:
    """The duals are unique prices: no feature is ``mixed/degenerate``."""
    return MIXED not in report.regime


def test_permuting_the_shared_sample_index_changes_nothing(case5):
    rng = np.random.default_rng(5)
    duals = 0
    for label, net, data, gamma in instances(case5):
        xs = data.matrix()
        shuffled = MultiDataset.from_matrix(
            xs[:, rng.permutation(xs.shape[1])], data.epsilons)
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(net, shuffled, gamma)
        assert base.optimal and moved.optimal, label
        assert_close(moved.objective, base.objective, label)
        assert_close(cvar_tightening_rerun(first=moved).objective,
                     cvar_tightening_rerun(first=base).objective, label)
        report, got = marginal_data_value(base), marginal_data_value(moved)
        if priced(report):
            duals += 1
            assert_close(got.lambda_co, report.lambda_co, label)
            assert_close(got.lambda_cc, report.lambda_cc, label)
    assert duals >= 6  # of the 18 instances


def test_permuting_the_generators_permutes_dispatch(case5):
    rng = np.random.default_rng(7)
    alphas = 0
    for label, net, data, gamma in instances(case5):
        order = rng.permutation(net.num_generators)
        # The slack bus stays where it was: flows do not depend on it, but
        # its default follows the generator order on ties.
        shuffled = dataclasses.replace(
            net, generators=[net.generators[g] for g in order])
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(shuffled, data, gamma)
        assert base.optimal and moved.optimal, label
        assert_close(moved.objective, base.objective, label)
        assert_close(moved.decision.p, base.decision.p[order], label)
        if priced(marginal_data_value(base)):
            alphas += 1
            assert_close(moved.decision.alpha, base.decision.alpha[order],
                         label)
    assert alphas >= 6


def test_doubling_every_cost_doubles_the_prices(case5):
    """``lambda_cc`` multiplies the chance constraint's reformulation, not
    a cost, so it stays; ``phi`` is a price only where some ``lambda_cc``
    is nonzero."""
    duals = phis = 0
    for label, net, data, gamma in instances(case5):
        doubled = dataclasses.replace(net, generators=[
            dataclasses.replace(g, c_E=2 * g.c_E, c_R=2 * g.c_R,
                                c_A=2 * g.c_A) for g in net.generators])
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(doubled, data, gamma)
        assert base.optimal and moved.optimal, label
        assert_close(moved.objective, 2 * base.objective, label)
        assert_close(moved.decision.p, base.decision.p, label)
        report, got = marginal_data_value(base), marginal_data_value(moved)
        if not priced(report):
            continue
        duals += 1
        assert_close(got.lambda_co, 2 * report.lambda_co, label)
        assert_close(got.lambda_cc, report.lambda_cc, label)
        assert_close(got.marginal_value, 2 * report.marginal_value, label)
        if np.any(report.lambda_cc > REGIME_TOL):
            phis += 1
            assert_close(got.phi, 2 * report.phi, label)
    assert duals >= 6 and phis >= 3
