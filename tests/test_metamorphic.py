"""Metamorphic relations: relabelling or rescaling an instance moves the
solution in a known way, so each relation checks the whole pipeline (flow
maps, LP, HiGHS, dual extraction, valuation) without a second
implementation.

Every library relation runs on case5 (two training seeds, four budget
cells, N' = 20) and on the seeded ring networks of
``oracles.ring_instances``, within 1e-9 relative. Where a feature's regime
is ``mixed/degenerate`` the duals need not be unique, so only objectives
and dispatch are compared there. The two command-line relations run
``msdro solve`` on case5.
"""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

import msdro_opf
from msdro_opf import MultiDataset, solve_msdro_opf
from msdro_opf.cli import main
from msdro_opf.data_quality import write_samples_csv
from msdro_opf.evaluation import derive_seed, training_matrix
from msdro_opf.network import bundled_network
from msdro_opf.opf_model import cvar_tightening_rerun
from msdro_opf.valuation import MIXED, REGIME_TOL, marginal_data_value
from oracles import bits, ring_instances

RTOL = 1e-9
CASE5_FILE = Path(msdro_opf.__file__).parent / "data" / "case5.json"
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


def test_reversing_the_features_reverses_their_prices(case5):
    """Resources and sample rows in reverse order: the same instance, with
    every per-feature output reversed."""
    duals = 0
    for label, net, data, gamma in instances(case5):
        flipped = dataclasses.replace(net, resources=net.resources[::-1])
        reversed_data = MultiDataset.from_matrix(data.matrix()[::-1],
                                                 data.epsilons[::-1])
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(flipped, reversed_data, gamma)
        assert base.optimal and moved.optimal, label
        assert_close(moved.objective, base.objective, label)
        assert_close(cvar_tightening_rerun(moved).objective,
                     cvar_tightening_rerun(base).objective, label)
        assert_close(moved.decision.p, base.decision.p, label)
        report, got = marginal_data_value(base), marginal_data_value(moved)
        if priced(report):
            duals += 1
            assert_close(got.lambda_co, report.lambda_co[::-1], label)
            assert_close(got.lambda_cc, report.lambda_cc[::-1], label)
            assert_close(moved.decision.alpha, base.decision.alpha[:, ::-1],
                         label)
    assert duals >= 6


def test_permuting_the_lines_permutes_their_margins(case5):
    rng = np.random.default_rng(11)
    for label, net, data, gamma in instances(case5):
        order = rng.permutation(net.num_lines)
        shuffled = dataclasses.replace(net,
                                       lines=[net.lines[l] for l in order])
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(shuffled, data, gamma)
        assert base.optimal and moved.optimal, label
        assert_close(moved.objective, base.objective, label)
        assert_close(cvar_tightening_rerun(moved).objective,
                     cvar_tightening_rerun(base).objective, label)
        assert_close(moved.decision.p, base.decision.p, label)
        assert_close(moved.decision.f_ram_plus,
                     base.decision.f_ram_plus[order], label)
        assert_close(moved.decision.f_ram_minus,
                     base.decision.f_ram_minus[order], label)


def rename_buses(net, name):
    """``net`` with bus ``b`` called ``name[b]`` everywhere, in the same
    order."""
    rep = dataclasses.replace
    return dataclasses.replace(
        net, buses=[name[b] for b in net.buses],
        lines=[rep(ln, from_bus=name[ln.from_bus], to_bus=name[ln.to_bus])
               for ln in net.lines],
        generators=[rep(g, bus=name[g.bus]) for g in net.generators],
        loads={name[b]: d for b, d in net.loads.items()},
        resources=[rep(r, bus=name[r.bus]) for r in net.resources],
        slack_bus=name[net.slack_bus])


def test_renaming_every_bus_changes_nothing(case5):
    """Bus ids are labels only: the LP, and so every float of the
    solution, is the same."""
    rng = np.random.default_rng(13)
    for label, net, data, gamma in instances(case5):
        ids = 100 + 7 * rng.permutation(net.num_buses)
        renamed = rename_buses(net, dict(zip(net.buses, ids.tolist())))
        base = solve_msdro_opf(net, data, gamma)
        moved = solve_msdro_opf(renamed, data, gamma)
        assert base.optimal and moved.optimal, label
        assert moved.objective == base.objective, label
        assert bits(moved.lp_solution.x) == bits(base.lp_solution.x), label
        assert bits(moved.lp_solution.duals) == bits(base.lp_solution.duals)
        assert cvar_tightening_rerun(moved).objective == \
            cvar_tightening_rerun(base).objective, label


def printed_objectives(out: str) -> list:
    """The objective lines ``msdro solve`` prints, as floats."""
    return [float(line.rpartition(": ")[2]) for line in out.splitlines()
            if line.startswith("objective")]


def test_cli_solve_with_shuffled_data_rows_prints_the_same_objective(
        tmp_path, capsys):
    """``--data`` rows are samples; their order is not part of the data."""
    xs = training_matrix(bundled_network(), 20, derive_seed(3, "train"))
    rng = np.random.default_rng(17)
    printed = []
    for k, samples in enumerate((xs, xs[:, rng.permutation(xs.shape[1])])):
        path = tmp_path / f"d{k}.csv"
        write_samples_csv(path, samples)
        assert main(["solve", "--data", str(path), "--eps", "1.0", "0.1",
                     "--out", str(tmp_path / f"run{k}")]) == 0
        printed.append(printed_objectives(capsys.readouterr().out))
    assert len(printed[0]) == 2  # the re-run pins a generator here
    assert_close(printed[1], printed[0], "shuffled --data rows")


def test_cli_reordering_network_generators_permutes_solution_rows(tmp_path):
    raw = json.loads(CASE5_FILE.read_text())
    order = [3, 0, 4, 2, 1]
    rows = []
    for k, gens in enumerate((raw["generators"],
                              [raw["generators"][g] for g in order])):
        path = tmp_path / f"net{k}.json"
        path.write_text(json.dumps(dict(raw, generators=gens)))
        out = tmp_path / f"run{k}"
        assert main(["solve", "--network", str(path), "--eps", "0.1", "0.1",
                     "--out", str(out)]) == 0
        with open(out / "solution.csv", newline="") as fh:
            header, *body = csv.reader(fh)
        assert header[:2] == ["generator", "bus"]
        assert [int(r[0]) for r in body] == list(range(1, len(gens) + 1))
        rows.append(np.array([[float(v) for v in r[1:]] for r in body]))
    assert_close(rows[1], rows[0][order], "reordered generators")
