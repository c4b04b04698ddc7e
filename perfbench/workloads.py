"""The benchmark's workloads: inputs from a seed, timed rounds, checks.

A workload is built in three steps. ``setup`` makes the inputs and loads
them into the program; it is what ``setup_s`` times. ``prepare`` checks the
inputs before timing starts. ``run_round`` then runs one round of the
workload's fixed batch. Only the calls into the program run inside
``timed``, which records one lap per region; checks run outside it. Every
round of a workload times the same regions in the same order. A round
returns how many operations it attempted and how many failed.

Problems found by a check are collected in ``problems``; a failed operation
that a known fault of the program explains is counted in ``failed`` and
described in ``notes`` instead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import checks
import synthetic
from checks import CheckFailed, close, require
from tracing import Patches


def sub_seed(seed, *labels) -> int:
    """A stable integer seed derived from the run seed and labels."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    #: Untraced rounds cycle through this many input sets made from the seed.
    input_sets = 1

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.problems = []
        self.notes = []
        self.laps = []
        self.tracer = None

    @contextlib.contextmanager
    def timed(self):
        """One timed region: calls into the program and nothing else.

        Its duration is appended to ``laps``. Under tracing, each timed
        region is a root span named ``round``.
        """
        if self.tracer is not None:
            self.tracer.open("round")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.laps.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.close()

    def check(self, label, fn, *args):
        """Run one check; a failure is recorded, not raised."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(f"{label}: {exc}")

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        pass

    def run_round(self, data_index: int, check: bool):
        """One round on input set ``data_index``; checks when ``check``."""
        raise NotImplementedError

    def finish(self):
        """Checks that need every round done; run after timing."""


class Sweep(Workload):
    """The default ``msdro sweep`` through ``run_sweep`` and ``write_sweep_csvs``.

    Each round is one sweep on the training set numbered ``data_index``;
    untraced runs cycle through four, so one run's median covers several
    draws of the 20 training samples.
    """

    input_sets = 4

    def __init__(self, *args, jobs: int):
        super().__init__(*args)
        self.jobs = jobs
        self.name = "sweep-serial" if jobs == 1 else "sweep-parallel"
        self.digests = {}
        self.repeated = False

    def config(self, data_index):
        from msdro_opf import evaluation
        seed = sub_seed(self.seed, 1, data_index)
        if self.smoke:
            return evaluation.SweepConfig(grid=(1.0, 0.1), n_samples=5,
                                          oos_samples=100, seed=seed)
        return evaluation.SweepConfig(seed=seed)

    def training(self, cfg):
        from msdro_opf import evaluation
        return evaluation.training_matrix(
            self.net, cfg.n_samples, evaluation.derive_seed(cfg.seed, "train"),
            cfg.error_mean)

    def setup(self):
        from msdro_opf import network
        self.net = network.bundled_network()
        self.training(self.config(0))

    def sweep(self, cfg, jobs, timed):
        from msdro_opf import evaluation
        out = self.work / f"sweep-jobs{jobs}"
        with timed():
            result = evaluation.run_sweep(self.net, cfg, jobs=jobs)
            evaluation.write_sweep_csvs(result, out)
        return result, digest(out)

    def run_round(self, data_index, check):
        cfg = self.config(data_index)
        result, dig = self.sweep(cfg, self.jobs, self.timed)
        failed = sum(r.status != "optimal" for r in result.oos)
        if failed:
            self.notes.append(f"training set {data_index}: {failed} cells "
                              "did not solve to optimality")
        if data_index in self.digests:
            self.repeated = True
            if self.digests[data_index] != dig:
                self.problems.append(f"training set {data_index}: sweep "
                                     "CSVs differ between repeats")
        self.digests.setdefault(data_index, dig)
        if check:
            self.check_sweep(cfg, result, dig)
        return len(result.oos), failed

    def finish(self):
        """Repeat training set 0 if no round did, to compare the CSVs."""
        if not self.repeated:
            self.run_round(0, check=False)

    def check_sweep(self, cfg, result, dig):
        cells = {c.epsilons: (c.objective, c.objective_tightened)
                 for c in result.cells}
        self.check("grid", checks.sweep_grid_checks, cells)
        if self.jobs > 1:
            # The parallel CSVs must match a serial sweep byte for byte.
            _, serial = self.sweep(cfg, 1, contextlib.nullcontext)
            if serial != dig:
                self.problems.append("sweep CSVs differ between jobs=1 and "
                                     f"jobs={self.jobs}")
            return
        from msdro_opf import dro_core, opf_model
        xs = self.training(cfg)
        for cell in result.cells:
            data = dro_core.MultiDataset.from_matrix(xs, list(cell.epsilons))
            sol = opf_model.solve_msdro_opf(self.net, data, cfg.gamma)
            label = f"cell {cell.epsilons}"
            self.check(label, checks.opf_checks, sol, self.net)
            self.check(label, lambda: require(
                close(sol.objective, cell.objective, rtol=1e-9),
                f"objective {sol.objective} on re-solve, {cell.objective} "
                "in the sweep"))
        self.check("marginal value", self.check_marginal_value, cfg, result, xs)

    def check_marginal_value(self, cfg, result, xs):
        """dL/deps_j against a central difference, on a non-degenerate cell.

        A cell is degenerate in eps_j when the one-sided differences
        disagree (the objective has a kink there); such cells are skipped.
        """
        from msdro_opf import dro_core, opf_model

        def objective(eps):
            data = dro_core.MultiDataset.from_matrix(xs, list(eps))
            sol = opf_model.solve_msdro_opf(self.net, data, cfg.gamma)
            require(sol.optimal, f"solve at {eps} ended {sol.status}")
            return sol.objective

        order = sorted(result.cells, key=lambda c: -min(c.epsilons))
        for cell in order:
            for j, eps_j in enumerate(cell.epsilons):
                value = cell.data_value.marginal_value[j]
                if value == 0.0:
                    continue
                delta = 1e-3 * eps_j
                moved = [list(cell.epsilons), list(cell.epsilons)]
                moved[0][j] -= delta
                moved[1][j] += delta
                lo, hi = objective(moved[0]), objective(moved[1])
                left = (cell.objective - lo) / delta
                right = (hi - cell.objective) / delta
                if not close(left, right, rtol=1e-3):
                    continue
                central = (hi - lo) / (2 * delta)
                require(close(central, value, rtol=1e-3),
                        f"marginal value {value} at {cell.epsilons}, feature "
                        f"{j}, but finite difference {central}")
                self.notes.append(
                    f"marginal value at {cell.epsilons} feature {j}: "
                    f"{value:.6g}, finite difference {central:.6g}")
                return
        raise CheckFailed("no cell with a nonzero, non-degenerate marginal "
                          "value to check")


class SolveLarge(Workload):
    """``msdro solve`` through ``cli.main`` on a fixed set of large instances."""

    name = "solve-large"
    RING_SEED = 7   # the synthetic network is fixed, like the bundled case
    input_sets = 3

    def setup(self):
        from msdro_opf import network
        bundled = json.loads(
            (self.root / "src/msdro_opf/data/case5.json").read_text())
        if self.smoke:
            n_bundled, n_ring, ring = 5, 5, dict(buses=8, chords=2,
                                                 generators=3, resources=2)
        else:
            n_bundled, n_ring, ring = 200, 30, dict(buses=14, chords=6,
                                                    generators=6, resources=3)
        ring_net = synthetic.ring_network(self.RING_SEED, **ring)
        ring_path = self.work / "ring.json"
        synthetic.write_network(ring_path, ring_net)
        self.ring = network.load_network(ring_path)
        network.bundled_network()
        self.instances = []
        for k in range(self.input_sets):
            paths = {}
            for label, net, n, part in (("bundled", bundled, n_bundled, 1),
                                        ("ring", ring_net, n_ring, 2)):
                xs = synthetic.stratified_errors(
                    net, n, sub_seed(self.seed, part, k))
                paths[label] = self.work / f"{label}-samples-{k}.csv"
                synthetic.write_samples(paths[label], xs)
            self.instances.append([
                ("bundled eps=0.1", [], paths["bundled"], [0.1, 0.1]),
                ("bundled eps=0.001", [], paths["bundled"], [0.001, 0.001]),
                ("ring eps=0.05", ["--network", str(ring_path)],
                 paths["ring"], [0.05] * len(ring_net["resources"])),
            ])
        self.digests = {}

    def prepare(self):
        """The synthetic instance must solve to optimality before timing."""
        from msdro_opf import cli, dro_core, opf_model
        _, _, path, eps = self.instances[0][2]
        _, xs = cli.read_samples_csv(path)
        sol = opf_model.solve_msdro_opf(
            self.ring, dro_core.MultiDataset.from_matrix(xs, eps), 0.05)
        if not sol.optimal:
            raise SystemExit(f"synthetic instance ended {sol.status}")

    def run_round(self, data_index, check):
        from msdro_opf import cli
        failed = 0
        instances = self.instances[data_index]
        for k, (label, net_args, path, eps) in enumerate(instances):
            out = self.work / f"solve-{k}"
            argv = ["solve", *net_args, "--data", str(path),
                    "--eps", *map(str, eps), "--out", str(out)]
            captured = {}
            patches = Patches()
            if check:
                for attr in ("solve_msdro_opf", "cvar_tightening_rerun"):
                    patches.replace(cli, attr, _capture(captured, attr))
            try:
                with contextlib.redirect_stdout(io.StringIO()), self.timed():
                    code = cli.main(argv)
            finally:
                patches.restore()
            if code != 0:
                failed += 1
                self.notes.append(f"{label}: msdro solve exited {code}")
                continue
            dig = digest(out)
            if dig != self.digests.setdefault((data_index, k), dig):
                self.problems.append(f"{label}: outputs differ between rounds")
            if check:
                self.check(label, self.check_instance, captured, out)
        return len(instances), failed

    def check_instance(self, captured, out):
        base = captured["solve_msdro_opf"]
        final = captured.get("cvar_tightening_rerun", base)
        net = base.built.network
        checks.opf_checks(base, net)
        if final is not base:
            checks.opf_checks(final, net)
            require(final.objective <= base.objective
                    + 1e-9 * max(1.0, abs(base.objective)),
                    f"tightened objective {final.objective} above base "
                    f"{base.objective}")
        with open(out / "duals.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        model = base.built.model
        require(len(rows) == model.num_constraints,
                f"duals.csv has {len(rows)} rows for "
                f"{model.num_constraints} constraints")
        written = np.array([float(v) for _, v in rows])
        require(np.allclose(written, base.lp_solution.duals, rtol=1e-9,
                            atol=1e-12), "duals.csv disagrees with the duals")


def _capture(store, attr):
    def make(original):
        def call(*args, **kwargs):
            store[attr] = original(*args, **kwargs)
            return store[attr]
        return call
    return make


class RoutesQuality(Workload):
    """The ``dro_core`` routes and ``msdro quality`` on unequal sample counts."""

    name = "routes-quality"
    #: (original rows, published rows, features) of the ``quality`` pairs.
    #: Unequal pairs use fixed data: they hit the known W1 fault on every run.
    QUALITY_FIXED = ((100, 30, 2), (1000, 700, 1), (1000, 999, 1),
                     (20000, 15001, 1))
    QUALITY_SEEDED = ((500, 500, 2),)
    W1_FAULT = ("data_quality.empirical_wasserstein_1d evaluates "
                "ceil(q * n) at merged breakpoints such as q = 7/100, where "
                "0.07 * 100 = 7.000000000000001 ceils to 8 and the segment "
                "reads the next order statistic")

    def setup(self):
        from msdro_opf import dro_core
        rng = np.random.default_rng([self.seed, 0x0707])
        s = 0.2 if self.smoke else 1.0

        def samples(*counts):
            return [np.clip(rng.normal(0.0, 0.35, max(2, int(c * s))), -1, 1)
                    for c in counts]

        def piecewise(d, k):
            return dro_core.PiecewiseMaxAffine(rng.normal(size=(k, d)),
                                               0.1 * rng.normal(size=k))

        def separable(d):
            return dro_core.SeparableAffineCost(rng.normal(size=d))

        data = dro_core.MultiDataset

        std = samples(300, 300, 300)
        std_piecewise = (piecewise(3, 4), data(std, [0.05, 0.02, 0.1]))
        std_separable = (separable(3), data(std, [0.3, 0.02, 0.1]))
        self.routes = [
            ("general", piecewise(2, 3), data(samples(60, 50), [0.05, 0.1])),
            ("general", piecewise(3, 3), data(samples(16, 15, 14),
                                              [0.05, 0.02, 0.1])),
            ("general", separable(2), data(samples(40, 30), [0.1, 0.05])),
            ("standardized", *std_piecewise),
            ("standardized", *std_separable),
            ("single_budget", *std_piecewise),
            ("single_budget", *std_separable),
            ("separable", separable(4), data(samples(500, 400, 300, 200),
                                             [0.1, 0.5, 0.01, 0.2])),
        ]
        self.quality = []
        fixed = np.random.default_rng(20230503)
        for k, (n, m, d) in enumerate(self.QUALITY_FIXED
                                      + self.QUALITY_SEEDED):
            src = fixed if k < len(self.QUALITY_FIXED) else rng
            if self.smoke:
                n, m = max(3, n // 20), max(2, m // 20)
            a = src.normal(0.0, 1.0, size=(d, n))
            b = src.normal(0.1, 1.2, size=(d, m))
            paths = []
            for tag, arr in (("original", a), ("published", b)):
                path = self.work / f"q{k}-{tag}.csv"
                synthetic.write_samples(path, arr)
                paths.append(path)
            self.quality.append((paths, a, b))
        self.values = None

    def prepare(self):
        self.w1_ref = [[checks.w1_reference(a[j], b[j]) for j in range(len(a))]
                       for _, a, b in self.quality]

    def call_route(self, kind, cost, data, sup):
        from msdro_opf import dro_core
        if kind == "general":
            return dro_core.wc_expectation_general(cost, data, sup)
        if kind == "standardized":
            return dro_core.wc_expectation_standardized(cost, data, sup).value
        if kind == "separable":
            return dro_core.wc_expectation_separable(cost, data, sup).value
        return dro_core.wc_expectation_single_budget(
            cost, data, sup, float(np.sum(data.epsilons)))

    def run_round(self, data_index, check):
        from msdro_opf import cli, dro_core
        values = []
        attempted = 0
        failed = 0
        for kind, cost, data in self.routes:
            bounds = (kind == "general"
                      and not isinstance(cost, dro_core.SeparableAffineCost))
            sup = dro_core.BoxSupport(-np.ones(data.dimension),
                                      np.ones(data.dimension))
            with self.timed():
                values.append(self.call_route(kind, cost, data, sup))
                if bounds:
                    values.append((dro_core.sample_average(cost, data),
                                   dro_core.robust_value(cost, sup)))
            attempted += 3 if bounds else 1
        for k, (paths, a, b) in enumerate(self.quality):
            out = self.work / f"quality-{k}"
            argv = ["quality", "--original", str(paths[0]), "--published",
                    str(paths[1]), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()), self.timed():
                code = cli.main(argv)
            attempted += 1
            if code != 0:
                failed += 1
                self.notes.append(f"quality pair {k}: exit code {code}")
                continue
            got = checks.read_quality(out / "quality.csv")
            bad = [(f"xi_{j + 1}", got[f"xi_{j + 1}"], ref)
                   for j, ref in enumerate(self.w1_ref[k])
                   if not close(got[f"xi_{j + 1}"], ref, rtol=1e-9, atol=1e-12)]
            if bad:
                failed += 1
                if check:
                    self.report_w1(k, a.shape[1], b.shape[1], bad)
        if self.values is None:
            self.values = values
        elif values != self.values:
            self.problems.append("route values differ between rounds")
        if check:
            self.check_routes(values)
        return attempted, failed

    def report_w1(self, k, n, m, bad):
        name, got, ref = bad[0]
        line = (f"quality pair {k} ({n} vs {m} samples), {name}: "
                f"epsilon {got:.9g}, scipy.stats.wasserstein_distance "
                f"{ref:.9g}")
        if n != m:
            self.notes.append(f"failed operation, known fault: {line}; "
                              f"{self.W1_FAULT}")
        else:
            self.problems.append(line)

    def check_routes(self, values):
        from msdro_opf import dro_core
        it = iter(values)
        standardized = {}
        for kind, cost, data in self.routes:
            value = next(it)
            d = data.dimension
            lower, upper = -np.ones(d), np.ones(d)
            means = np.array([np.mean(s) for s in data.samples])
            label = f"{kind} route (d={d}, counts {data.counts.tolist()})"
            if isinstance(cost, dro_core.SeparableAffineCost):
                if kind == "single_budget":
                    expect = checks.single_budget_linear(
                        cost.c, means, lower, upper, float(np.sum(data.epsilons)))
                    self.check(label, lambda: require(
                        value >= standardized[id(cost)] - 1e-6 * abs(value),
                        "single budget below the standardized value"))
                else:
                    expect = sum(checks.worst_case_linear(
                        cost.c[j], means[j], lower[j], upper[j],
                        data.epsilons[j]) for j in range(d))
                self.check(label, lambda: require(
                    close(value, expect), f"value {value}, closed form {expect}"))
                lo = float(cost.c @ means)
                hi = float(np.sum(np.abs(cost.c)))
            else:
                hi = checks.box_maximum(cost.a, cost.b, lower, upper)
                if kind == "general":
                    lo = checks.product_average(cost.a, cost.b, data.samples)
                    avg, robust = next(it)
                    self.check(label, lambda: require(
                        close(avg, lo) and close(robust, hi),
                        f"sample_average {avg} / robust_value {robust}, "
                        f"expected {lo} / {hi}"))
                else:
                    pts = data.matrix()
                    lo = float(np.mean(np.max(cost.a @ pts + cost.b[:, None],
                                              axis=0)))
                if kind == "single_budget":
                    self.check(label, lambda: require(
                        value >= standardized[id(cost)] - 1e-6 * abs(value),
                        "single budget below the standardized value"))
            if kind == "standardized":
                standardized[id(cost)] = value
            tol = 1e-6 * max(1.0, abs(value))
            self.check(label, lambda: require(
                lo - tol <= value <= hi + tol,
                f"value {value} outside [sample average {lo}, robust {hi}]"))


WORKLOADS = {
    "sweep-serial": lambda *a: Sweep(*a, jobs=1),
    "sweep-parallel": lambda *a: Sweep(*a, jobs=2),
    "solve-large": SolveLarge,
    "routes-quality": RoutesQuality,
}
