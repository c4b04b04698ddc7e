"""End-to-end runs of the ``msdro`` command line through ``main(argv)``."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import msdro_opf
from msdro_opf import errors
from msdro_opf.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_SOLVER,
                           main)
from msdro_opf.data_quality import write_quality_csv, write_samples_csv
from msdro_opf.evaluation import derive_seed, training_matrix

CASE5 = Path(msdro_opf.__file__).parent / "data" / "case5.json"

SOLVE_FILES = ["solution.csv", "duals.csv", "valuation.csv",
               "forecast_value.csv", "samples.csv", "manifest.json"]

UNDERSIZED_NET = {
    "buses": [1, 2],
    "lines": [{"from": 1, "to": 2, "reactance": 0.1, "f_max": 50.0}],
    "generators": [{"bus": 1, "p_min": 0.0, "p_max": 2.5,
                    "c_E": 10.0, "c_R": 1.0, "c_A": 20.0}],
    "loads": [{"bus": 2, "d": 3.0}],
    "resources": [{"bus": 2, "u": 1.0, "u_min": 0.0, "u_max": 2.0,
                   "kappa": 0.6}],
    "slack_bus": 1,
}


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- quality

def test_quality_laplace_analytic(capsys):
    assert run("quality", "--noise", "laplace:0.05") == EXIT_OK
    out = capsys.readouterr().out
    # E|Laplace(theta)| = theta, so the order-1 budget echoes the scale.
    assert "xi_1: epsilon = 0.05 (p=1)" in out


def test_quality_gaussian_order_2_sums_variances(capsys):
    assert run("quality", "--noise", "gaussian:0.2", "--p", "2",
               "--dimension", "3") == EXIT_OK
    # E||Z||_2^2 = 3 * 0.2**2 for three iid N(0, 0.2) coordinates.
    assert "xi_1: epsilon = 0.12 (p=2)" in capsys.readouterr().out


def test_quality_identical_files_give_zero(tmp_path, capsys):
    xs = np.array([[0.1, -0.2, 0.3, 0.0], [0.5, 0.4, -0.1, 0.2]])
    write_samples_csv(tmp_path / "orig.csv", xs)
    write_samples_csv(tmp_path / "pub.csv", xs)
    outdir = tmp_path / "q"
    assert run("quality", "--original", tmp_path / "orig.csv",
               "--published", tmp_path / "pub.csv", "--out", outdir) == EXIT_OK
    rows = read_rows(outdir / "quality.csv")
    assert rows[0] == ["feature", "epsilon"]
    assert [r[0] for r in rows[1:]] == ["xi_1", "xi_2"]
    assert all(float(r[1]) == 0.0 for r in rows[1:])
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "quality"
    assert manifest["outputs"] == ["quality.csv"]


def test_quality_pairs_columns_by_name(tmp_path, capsys):
    """The same data under swapped headers is the same data: budget 0."""
    original, published = tmp_path / "a.csv", tmp_path / "b.csv"
    original.write_text("xi_1,xi_2\n0.1,5.0\n0.3,6.0\n0.2,7.5\n")
    published.write_text("xi_2,xi_1\n5.0,0.1\n6.0,0.3\n7.5,0.2\n")
    assert run("quality", "--original", original,
               "--published", published) == EXIT_OK
    out = capsys.readouterr().out
    assert "xi_1: epsilon = 0 (p=1)" in out
    assert "xi_2: epsilon = 0 (p=1)" in out


def test_quality_rejects_different_column_names(tmp_path, capsys):
    original, published = tmp_path / "a.csv", tmp_path / "b.csv"
    original.write_text("xi_1,xi_2\n0.1,0.2\n")
    published.write_text("xi_1,xi_3\n0.1,0.2\n")
    assert run("quality", "--original", original,
               "--published", published) == EXIT_INPUT
    assert "['xi_1', 'xi_3']" in capsys.readouterr().err


def test_quality_rejects_bad_noise_spec(capsys):
    assert run("quality", "--noise", "cauchy:0.1") == EXIT_INPUT
    assert run("quality", "--noise", "laplace") == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert run("quality", "--noise", "laplace:wide") == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: --noise: could not convert string to float: 'wide'\n")


@pytest.mark.parametrize("spec", ["laplace:nan", "laplace:inf",
                                  "gaussian:nan", "gaussian:inf"])
def test_quality_rejects_non_finite_noise_parameter(spec, capsys):
    assert run("quality", "--noise", spec) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["laplace:1e200", "gaussian:1e200"])
def test_quality_rejects_an_overflowing_p2_bound(spec, capsys):
    assert run("quality", "--noise", spec, "--p", "2") == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: epsilon must be finite and >= 0, got inf" in err
    assert "Traceback" not in err


def test_quality_rejects_conflicting_sources(tmp_path):
    write_samples_csv(tmp_path / "a.csv", np.array([[0.1, 0.2]]))
    assert run("quality", "--noise", "laplace:0.1",
               "--original", tmp_path / "a.csv") == EXIT_INPUT
    assert run("quality", "--noise", "laplace:0.1",
               "--published", tmp_path / "a.csv") == EXIT_INPUT
    # --original without --published is also incomplete.
    assert run("quality", "--original", tmp_path / "a.csv") == EXIT_INPUT


def test_quality_rejects_malformed_samples_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("first,second\n0.1,0.2\n")
    assert run("quality", "--original", bad, "--published", bad) == EXIT_INPUT


def test_quality_rejects_repeated_sample_header(tmp_path, capsys):
    """Two columns named xi_1 would share one budget; the file is refused."""
    original, published = tmp_path / "a.csv", tmp_path / "b.csv"
    original.write_text("xi_1,xi_1\n0.1,0.2\n0.3,0.4\n")
    published.write_text("xi_1,xi_1\n0.1,0.3\n0.2,0.4\n")
    assert run("quality", "--original", original, "--published", published,
               "--out", tmp_path / "q") == EXIT_INPUT
    assert f"{original}:1: column 'xi_1' repeated" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


# ------------------------------------------------------------------ solve

def test_solve_writes_outputs_and_manifest(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run("solve", "--eps", "0.1", "0.1", "--out", outdir) == EXIT_OK
    for name in SOLVE_FILES:
        assert (outdir / name).exists()

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["network"] == "bundled:case5"
    assert manifest["epsilons"] == [0.1, 0.1]
    assert manifest["gamma"] == 0.05
    assert manifest["tighten"] is True
    assert manifest["version"] == msdro_opf.__version__
    assert sorted(manifest["outputs"]) == sorted(SOLVE_FILES[:-1])

    rows = read_rows(outdir / "solution.csv")
    assert rows[0] == ["generator", "bus", "p", "r_plus", "r_minus",
                       "alpha_1", "alpha_2"]
    assert len(rows) == 1 + 5
    # Participation columns of each feature sum to one across generators.
    for col in (5, 6):
        assert math.fsum(float(r[col]) for r in rows[1:]) == pytest.approx(1.0)

    out = capsys.readouterr().out
    assert "status: optimal" in out
    assert "objective:" in out
    assert "feature 1:" in out and "feature 2:" in out


def test_solve_accepts_quality_csv_budgets(tmp_path):
    write_quality_csv(tmp_path / "q.csv", {"xi_1": 0.1, "xi_2": 0.05})
    outdir = tmp_path / "run"
    assert run("solve", "--quality", tmp_path / "q.csv",
               "--out", outdir) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["epsilons"] == [0.1, 0.05]


def test_solve_rejects_repeated_quality_feature(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("feature,epsilon\nxi_1,0.1\nxi_1,0.2\nxi_2,0.3\n")
    assert run("solve", "--quality", path,
               "--out", tmp_path / "run") == EXIT_INPUT
    assert f"{path}:3: feature 'xi_1' repeated" in capsys.readouterr().err


def test_solve_gives_quality_budgets_by_name(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("feature,epsilon\nxi_2,0.3\nxi_1,0.1\n")
    by_name, by_eps = tmp_path / "q_run", tmp_path / "eps_run"
    assert run("solve", "--quality", path, "--out", by_name) == EXIT_OK
    assert run("solve", "--eps", "0.1", "0.3", "--out", by_eps) == EXIT_OK
    for name in SOLVE_FILES:
        assert (by_name / name).read_bytes() == (by_eps / name).read_bytes()


def test_solve_rejects_unknown_quality_feature(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("feature,epsilon\nwind,0.1\nsolar,0.2\n")
    assert run("solve", "--quality", path,
               "--out", tmp_path / "run") == EXIT_INPUT
    assert (f"{path}:2: feature 'wind' is not one of xi_1, xi_2"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_solve_accepts_training_data_csv(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.1, 0.1, size=(2, 12))
    write_samples_csv(tmp_path / "train.csv", xs)
    outdir = tmp_path / "run"
    assert run("solve", "--data", tmp_path / "train.csv",
               "--eps", "0.1", "0.1", "--out", outdir) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["data"] == str(tmp_path / "train.csv")
    # The echoed sample file round-trips the training matrix.
    echoed = read_rows(outdir / "samples.csv")
    assert echoed[0] == ["xi_1", "xi_2"]
    assert len(echoed) == 1 + 12


def test_solve_matches_training_data_columns_by_name(tmp_path, capsys):
    """The same samples under swapped headers solve the same LP."""
    xs = training_matrix(msdro_opf.bundled_network(), 20,
                         derive_seed(1, "train"))
    in_order, swapped = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(in_order, xs)
    write_samples_csv(swapped, xs[::-1])
    swapped.write_text(swapped.read_text().replace("xi_1,xi_2", "xi_2,xi_1", 1))
    objectives = []
    for path in (in_order, swapped):
        assert run("solve", "--data", path, "--eps", "0.1", "0.3", "--no-tighten",
                   "--out", tmp_path / path.stem) == EXIT_OK
        objectives.append(capsys.readouterr().out.splitlines()[1])
    assert objectives[0].startswith("objective: ")
    assert objectives[0] == objectives[1]
    assert (read_rows(tmp_path / "a" / "samples.csv")
            == read_rows(tmp_path / "b" / "samples.csv"))


def test_solve_rejects_training_data_with_other_names(tmp_path, capsys):
    path = tmp_path / "train.csv"
    path.write_text("xi_a,xi_b\n0.01,0.02\n")
    assert run("solve", "--data", path, "--eps", "0.1", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    err = capsys.readouterr().err
    assert (f"{path}:1: expected header columns xi_1,...,xi_2 in any order, "
            "got ['xi_a', 'xi_b']") in err
    assert "Traceback" not in err


def test_solve_rejects_training_data_of_other_width(tmp_path, capsys):
    path = tmp_path / "train.csv"
    write_samples_csv(path, np.zeros((3, 4)))
    assert run("solve", "--data", path, "--eps", "0.1", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    assert (f"{path}: 3 feature columns for 2 resources"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_solve_rejects_wrong_budget_count(tmp_path, capsys):
    assert run("solve", "--eps", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    assert "2" in capsys.readouterr().err


def test_solve_requires_some_budget_source(tmp_path):
    assert run("solve", "--out", tmp_path / "run") == EXIT_INPUT


def test_solve_infeasible_network_reports_diagnostics(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(UNDERSIZED_NET))
    for command in ("solve", "oos"):
        code = run(command, "--network", net_path, "--eps", "1.0",
                   "--out", tmp_path / command)
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "infeasible" in err
        # The note names constraint families so the user can find the
        # binding set.
        assert "rows in families" in err
        assert not (tmp_path / command).exists()


def test_solve_rejects_network_without_buses(tmp_path, capsys):
    net_path = tmp_path / "empty.json"
    net_path.write_text(json.dumps({"buses": [], "lines": [], "generators": [],
                                    "loads": [], "resources": []}))
    assert run("solve", "--network", net_path, "--eps", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: network has no buses" in err
    assert "Traceback" not in err


def test_solve_rejects_a_repeated_load_bus(tmp_path, capsys):
    raw = json.loads(CASE5.read_text())
    raw["loads"].append({"bus": 2, "d": 3.0})
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(raw))
    assert run("solve", "--network", net_path, "--eps", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {net_path}: more than one load at bus 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["lines"].append(
        {"from": 2, "to": 2, "reactance": 0.01, "f_max": 0.5}),
     "has both ends at bus 2"),
    (lambda raw: raw["generators"][0].update(bus=1.7),
     "generators[0].bus is 1.7, not a whole bus id"),
    (lambda raw: raw["generators"][0].update(p_max=True),
     "generators[0].p_max is True, not a number"),
    (lambda raw: raw["generators"][0].update(bus=" 1 "),
     "generators[0].bus is ' 1 ', not a whole bus id"),
    (lambda raw: raw["generators"][0].update(p_max="0.4"),
     "generators[0].p_max is '0.4', not a number"),
    (lambda raw: raw["generators"][2].update(p_max=10**400),
     "generators[2].p_max is an integer too large for a float"),
    (lambda raw: raw["resources"][0].update(u_max=10**400),
     "resources[0].u_max is an integer too large for a float"),
    (lambda raw: raw["generators"][0].update(c_A=-1e15),
     "generators[0].c_A is -1e+15, not below 1e15 in magnitude"),
    (lambda raw: raw["generators"][0].update(c_E=1e19),
     "generators[0].c_E is 1e+19, not below 1e15 in magnitude")],
    ids=["self-loop", "bus", "p_max", "bus-text", "p_max-text", "p_max-huge",
         "u_max-huge", "c_A-beyond-highs", "c_E-beyond-highs"])
def test_solve_rejects_a_network_file_it_used_to_bend(tmp_path, capsys, edit,
                                                      message):
    """A line from bus 2 to itself got a made-up flow (exit 3, infeasible);
    bus 1.7, p_max true and the texts " 1 " and "0.4" solved as bus 1 and
    p_max 1.0 or 0.4 (exit 0); a 401-digit integer ended in an
    ``OverflowError`` traceback (exit 1); c_A = -1e15 and c_E = 1e19 ended
    in HiGHS errors (exit 4)."""
    raw = json.loads(CASE5.read_text())
    edit(raw)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(raw))
    assert run("solve", "--network", net_path, "--eps", 0.1, 0.1,
               "--out", tmp_path / "run") == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_solve_takes_a_network_cost_just_below_the_limit(tmp_path):
    """The 1e15 bound refuses only what HiGHS could not take: c_A = -5e14
    solves."""
    raw = json.loads(CASE5.read_text())
    raw["generators"][0]["c_A"] = -5e14
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(raw))
    assert run("solve", "--network", net_path, "--train", 5, "--eps", 0.1,
               0.1, "--out", tmp_path / "run") == EXIT_OK


def test_solve_rejects_non_finite_training_data(tmp_path, capsys):
    path = tmp_path / "train.csv"
    path.write_text("xi_1,xi_2\n0.01,0.02\nnan,0.01\n")
    assert run("solve", "--data", path, "--eps", "0.1", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err
    assert run("solve", "--eps", "nan", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT


def test_solve_names_features_from_1(tmp_path, capsys):
    """Feature 1 is the first sample column, as in the xi_1 header."""
    path = tmp_path / "train.csv"
    path.write_text("xi_1,xi_2\n5.0,0.0\n0.0,0.0\n")
    assert run("solve", "--data", path, "--eps", "0.1", "0.1",
               "--out", tmp_path / "run") == EXIT_INPUT
    assert ("error: feature 1 has samples outside the support"
            in capsys.readouterr().err)


def test_solve_rejects_non_finite_network_numbers(tmp_path, capsys):
    for section, key in (("lines", "reactance"), ("lines", "f_max"),
                         ("generators", "c_E"), ("resources", "u_max")):
        net = json.loads(json.dumps(UNDERSIZED_NET))
        net[section][0][key] = float("nan")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))  # writes the NaN literal
        assert run("solve", "--network", net_path, "--eps", "0.1",
                   "--out", tmp_path / "run") == EXIT_INPUT
        assert "not a finite number" in capsys.readouterr().err


def test_solve_reports_solver_failure_with_model_context(tmp_path, monkeypatch,
                                                        capsys):
    """HiGHS status 4 ends in exit 4 with the model's sizes on stderr."""
    from scipy.optimize._highspy._core import HighsModelStatus

    from msdro_opf import lp
    from msdro_opf.evaluation import derive_seed, training_matrix
    from msdro_opf.opf_model import build_msdro_opf

    class Failing(lp._Highs):
        def getModelStatus(self):
            return HighsModelStatus.kSolveError

        def modelStatusToString(self, status):
            return "Numerical difficulties encountered"

    net = msdro_opf.bundled_network()
    data = msdro_opf.MultiDataset.from_matrix(
        training_matrix(net, 20, derive_seed(1, "train")), [0.1, 0.1])
    summary = build_msdro_opf(net, data, 0.05).model.summary()
    monkeypatch.setattr(lp, "_Highs", Failing)
    code = run("solve", "--eps", 0.1, 0.1, "--out", tmp_path / "run")
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: HiGHS status 4 (Numerical difficulties")
    assert "Traceback" not in err
    assert summary in err
    for field in ("'msdro-opf'", " rows, ", " columns, ", " nonzeros; ",
                  "cc_main(", "co_up(2)"):
        assert field in summary


def test_solve_reports_unbounded_lp_as_solver_failure(tmp_path, monkeypatch,
                                                      capsys):
    from scipy.optimize._highspy._core import HighsModelStatus

    from msdro_opf import lp

    class Unbounded(lp._Highs):
        def getModelStatus(self):
            return HighsModelStatus.kUnbounded

    monkeypatch.setattr(lp, "_Highs", Unbounded)
    assert run("solve", "--eps", 0.1, 0.1,
               "--out", tmp_path / "run") == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "solver failed: status unbounded\n"
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------------ sweep

def test_sweep_single_cell_grid(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    assert run("sweep", "--grid", "1.0", "--oos-samples", "200",
               "--out", outdir) == EXIT_OK
    # One budget value and two features: a single cell, no 0.0 augmentation.
    assert len(read_rows(outdir / "objectives.csv")) == 1 + 1
    assert len(read_rows(outdir / "oos.csv")) == 1 + 1
    # Generators and features count from 1, like the eps1/alpha_1 headers.
    assert [r[2] for r in read_rows(outdir / "dispatch.csv")[1:]] == \
        ["1", "2", "3", "4", "5"]
    for name in ("lambdas.csv", "cost_components.csv",
                 "plotdata_data_value.csv", "plotdata_forecast_value.csv"):
        assert [r[2] for r in read_rows(outdir / name)[1:]] == ["1", "2"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["grid"] == [1.0]
    assert "1/1 cells solved" in capsys.readouterr().out


def test_sweep_default_grid(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    assert run("sweep", "--oos-samples", "100", "--out", outdir) == EXIT_OK
    assert len(read_rows(outdir / "objectives.csv")) == 1 + 16
    # Out-of-sample adds the 0.0 column for the sample-average comparison.
    assert len(read_rows(outdir / "oos.csv")) == 1 + 25
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert sorted(manifest["grid"]) == sorted(DEFAULT_GRID_VALUES)
    assert "16/16 cells solved" in capsys.readouterr().out


DEFAULT_GRID_VALUES = [1.0, 0.1, 0.005, 0.001]


def test_sweep_where_every_cell_fails_exits_4(tmp_path, capsys):
    """Ten times case5's loads exceed every generator's capacity: each cell
    is reported infeasible and nothing is written."""
    net = json.loads(CASE5.read_text())
    for load in net["loads"]:
        load["d"] *= 10
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    assert run("sweep", "--network", net_path, "--grid", "1.0", "0.1",
               "--oos-samples", "10", "--out", tmp_path / "out") == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if ": infeasible" in line]) == 4
    assert err[-1] == "every sweep cell failed"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("resource", [{"kappa": 0.0},
                                      {"u": 0.0, "u_min": 0.0}])
def test_sweep_draws_a_constant_for_a_pinned_resource(tmp_path, monkeypatch,
                                                       capsys, resource):
    """A support of zero width (kappa = 0) or a zero training spread
    (u = u_min = 0) draws the same value for every sample."""
    from msdro_opf import evaluation

    net = json.loads(CASE5.read_text())
    net["resources"][0].update(resource)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    draws, draw = [], evaluation._truncated_draw

    def recorded(res, *args):
        draws.append((res.bus, draw(res, *args)))
        return draws[-1][1]

    monkeypatch.setattr(evaluation, "_truncated_draw", recorded)
    assert run("sweep", "--network", net_path, "--grid", 0.1, 0.001,
               "--oos-samples", 50, "--out", tmp_path / "out") == EXIT_OK
    assert "4/4 cells solved" in capsys.readouterr().out
    pinned = net["resources"][0]["bus"]
    training = [d for bus, d in draws if bus == pinned and len(d) == 20]
    assert len(training) == 1 and np.ptp(training[0]) == 0.0
    if resource.get("kappa") == 0.0:
        assert all(np.ptp(d) == 0.0 for bus, d in draws if bus == pinned)
    assert all(np.ptp(d) > 0 for bus, d in draws if bus != pinned)


def test_sweep_without_uncertain_resources_exits_2(tmp_path, capsys):
    """A network with no uncertain resources has no budgets to sweep."""
    net = json.loads(CASE5.read_text())
    net["resources"] = []
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    assert run("sweep", "--network", net_path,
               "--out", tmp_path / "out") == EXIT_INPUT
    assert "at least one uncertain resource" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- oos

def test_oos_robust_budget_never_violates(tmp_path, capsys):
    outdir = tmp_path / "oos"
    assert run("oos", "--eps", "1.0", "1.0", "--oos-samples", "400",
               "--out", outdir) == EXIT_OK
    out = capsys.readouterr().out
    assert "violation: 0 over 400 samples" in out
    rows = read_rows(outdir / "oos.csv")
    assert rows[0] == ["eps1", "eps2", "violation_probability",
                       "n_samples", "status"]
    assert rows[1] == ["1", "1", "0", "400", "optimal"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "oos"
    assert manifest["oos_samples"] == 400


def test_oos_writes_the_sweep_oos_row(tmp_path):
    """``msdro oos`` at a grid cell writes the sweep's header and row."""
    assert run("oos", "--eps", 0.1, 0.1, "--out", tmp_path / "o") == EXIT_OK
    assert run("sweep", "--grid", 0.1, "--out", tmp_path / "s") == EXIT_OK
    rows = read_rows(tmp_path / "o" / "oos.csv")
    assert rows == read_rows(tmp_path / "s" / "oos.csv")
    assert rows[1] == ["0.1", "0.1", "0", "1000", "optimal"]


def test_oos_with_no_samples_reports_no_rate(tmp_path, capsys):
    """A rate over zero samples is unknown: empty in ``oos.csv``, as the
    sweep writes it, and ``nan`` on stdout."""
    assert run("oos", "--eps", 0.1, 0.1, "--oos-samples", 0,
               "--out", tmp_path / "o") == EXIT_OK
    assert "violation: nan over 0 samples" in capsys.readouterr().out
    assert run("sweep", "--grid", 0.1, "--oos-samples", 0,
               "--out", tmp_path / "s") == EXIT_OK
    rows = read_rows(tmp_path / "o" / "oos.csv")
    assert rows == read_rows(tmp_path / "s" / "oos.csv")
    assert rows[1] == ["0.1", "0.1", "", "0", "optimal"]


def test_oos_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("oos", "--eps", "1.0", "1.0", "--oos-samples", "50") == EXIT_OK
    assert list(tmp_path.iterdir()) == []
    assert "violation:" in capsys.readouterr().out


# ------------------------------------------------------------------- misc

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert msdro_opf.__version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


BAD_INPUT = [
    ["sweep", "--gamma", "1.5"],
    ["sweep", "--grid", "nan"],
    ["sweep", "--grid", "inf"],
    ["sweep", "--grid", "0.1", "0.1"],
    ["sweep", "--oos-samples", "-5"],
    ["sweep", "--jobs", "0"],
    ["sweep", "--jobs", "-1"],
    ["solve", "--eps", "0.1", "0.1", "--train", "-3"],
    ["oos", "--eps", "0.1", "0.1", "--oos-samples", "-5"],
    ["quality", "--noise", "laplace:0.05", "--dimension", "0"],
    ["quality", "--noise", "uniform:1"],
    ["solve", "--eps", "0.1", "0.1", "--quality", "q.csv"],
    ["oos", "--eps", "0.1", "0.1", "--quality", "q.csv"],
    ["solve", "--data", "d.csv", "--train", "50", "--eps", "0.1", "0.1"],
    ["oos", "--data", "d.csv", "--train", "50", "--eps", "0.1", "0.1"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_before_any_solve(argv, tmp_path, capsys,
                                            monkeypatch):
    """Each value is checked where it enters, before any LP is solved. The
    files named exist and are valid, so only the flags can be at fault."""
    from msdro_opf import lp

    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp.Model, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    write_quality_csv("q.csv", {"xi_1": 1.0, "xi_2": 1.0})
    write_samples_csv("d.csv", np.zeros((2, 3)))
    try:
        code = run(*argv, "--out", tmp_path / "out")
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "oos"])
@pytest.mark.parametrize("pair", [["--eps", "0.1", "0.1", "--quality", "q.csv"],
                                  ["--data", "d.csv", "--train", "50"]],
                         ids=["eps-quality", "data-train"])
def test_second_source_names_both_flags(command, pair, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, *pair)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert pair[0] in err and pair[-2] in err


def test_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    """Spreadsheet "CSV UTF-8" exports start with a BOM; it is skipped."""
    plain = {"network": tmp_path / "net.json", "data": tmp_path / "d.csv",
             "quality": tmp_path / "q.csv"}
    plain["network"].write_bytes(CASE5.read_bytes())
    write_samples_csv(plain["data"], training_matrix(
        msdro_opf.bundled_network(), 20, derive_seed(1, "train")))
    write_quality_csv(plain["quality"], {"xi_1": 0.1, "xi_2": 0.05})
    objectives = []
    for marked in (False, True):
        args = []
        for flag, path in plain.items():
            if marked:
                path = path.with_name("bom_" + path.name)
                path.write_bytes(b"\xef\xbb\xbf" + plain[flag].read_bytes())
            args += [f"--{flag}", path]
        assert run("solve", *args, "--no-tighten",
                   "--out", tmp_path / f"out{marked:d}") == EXIT_OK
        objectives.append(capsys.readouterr().out.splitlines()[1])
    assert objectives[0].startswith("objective: ")
    assert objectives[0] == objectives[1]


@pytest.mark.parametrize("argv", [
    ["solve", "--network", "BIN", "--eps", "0.1", "0.1"],
    ["solve", "--data", "BIN", "--eps", "0.1", "0.1"],
    ["solve", "--quality", "BIN"],
    ["quality", "--original", "BIN", "--published", "BIN"],
], ids=["network", "data", "quality", "samples"])
def test_non_utf8_file_exits_2_naming_it(argv, tmp_path, capsys):
    path = tmp_path / "bin.dat"
    path.write_bytes(b"\xff\xfe")
    argv = [path if arg == "BIN" else arg for arg in argv]
    assert run(*argv, "--out", tmp_path / "out") == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--eps", "0.1", "0.1", "--out", "FILE"],
    ["oos", "--eps", "0.1", "0.1", "--out", "FILE"],
    ["sweep", "--grid", "1.0", "--out", "FILE/x"],
    ["quality", "--noise", "laplace:0.1", "--out", "FILE"],
], ids=" ".join)
def test_out_naming_a_file_exits_2_before_any_solve(argv, tmp_path, capsys,
                                                    monkeypatch):
    from msdro_opf import lp

    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp.Model, "solve", no_solve)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        run(*(arg.replace("FILE", str(afile)) for arg in argv))
    assert exc.value.code == EXIT_INPUT
    assert f"{afile} is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_errors_defines_only_input_error():
    """One error type per exit code: ``InputError`` (2) lives in ``errors``,
    ``lp.SolverError`` (4) in ``lp``."""
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)}
    assert classes == {errors.InputError}


def test_solve_duals_csv_row_names_and_order(tmp_path):
    """duals.csv lists every row once, in model order, named name[i,j,k].

    The Wasserstein blocks have one co_up/co_lo pair per feature and one
    cc_up/cc_lo pair per (feature, CVaR row), present only where eps > 0;
    cc_main has one row per (sample, CVaR row), the augmented one included.
    """
    out = tmp_path / "s"
    assert run("solve", "--train", 3, "--eps", 0.1, 0.0, "--no-tighten",
               "--out", out) == EXIT_OK
    net = msdro_opf.bundled_network()
    n_g, n_l, d, n = net.num_generators, net.num_lines, 2, 3
    k = 2 * n_g + 2 * n_l + 1
    block = [0]  # eps_2 = 0 drops feature 2's block rows
    expect = ["bal"] + [f"chi[{j}]" for j in range(d)]
    expect += [f"{c}[{g}]" for g in range(n_g) for c in ("gmax", "gmin")]
    expect += [f"{c}[{l}]" for l in range(n_l) for c in ("lineup", "linelo")]
    expect += [f"co_{c}[{j}]" for j in block for c in ("up", "lo")]
    expect += ["cvar_pair", "cvar_budget"]
    expect += [f"cc_{c}[{j},{kk}]" for j in block for kk in range(k)
               for c in ("up", "lo")]
    expect += [f"cc_main[{i},{kk}]" for i in range(n) for kk in range(k)]
    rows = read_rows(out / "duals.csv")
    assert rows[0] == ["constraint", "dual"]
    assert [r[0] for r in rows[1:]] == expect
    assert "cc_up[0,4]" in expect
    assert all(math.isfinite(float(r[1])) for r in rows[1:])
