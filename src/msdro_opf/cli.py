"""Command-line entry point.

Subcommands
-----------
quality   derive per-feature Wasserstein budgets from noise descriptions
          or from original/published sample files
solve     solve one instance, write solution/dual/valuation CSVs
sweep     grid sweep over budgets, write the table CSVs
oos       out-of-sample violation check for one budget vector

Every table and printed feature line is read off a budget cell's first
solve, the LP whose duals price the data; the tightening re-run reports
only ``objective_tightened`` and the generators it pinned.

Exit codes: 0 success, 2 input error, 3 infeasible model, 4 solver
failure.  Every file-producing run writes a ``manifest.json`` echoing the
resolved parameters and derived seeds next to its outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .data_quality import (NoiseModel, additive_noise_bound,
                           aggregation_protocol_bound, fmt, parse_float,
                           read_quality_csv, read_samples_csv, write_csv,
                           write_quality_csv, write_samples_csv)
from .dro_core import MultiDataset
from .errors import InputError
from .evaluation import (DEFAULT_GRID, ERROR_MEANS, OOS_COLUMNS,
                         OOS_SEED_SCHEME, SweepConfig, derive_seed,
                         out_of_sample, run_sweep, training_matrix,
                         write_sweep_csvs)
from .lp import SolverError
from .network import bundled_network, load_network
from .opf_model import cvar_tightening_rerun, solve_msdro_opf
from .valuation import (DATA_VALUE_COLUMNS, FORECAST_VALUE_COLUMNS,
                        data_value_rows, forecast_value_decomposition,
                        forecast_value_rows, marginal_data_value)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

_INPUT_ERRORS = (InputError, FileNotFoundError, IsADirectoryError)


def _load_net(args):
    if args.network is None:
        return bundled_network(), "bundled:case5"
    return load_network(args.network), str(args.network)


def _resolve_epsilons(args, dim: int) -> list:
    if args.eps is not None:
        eps = args.eps
    elif args.quality is not None:
        names = [f"xi_{j + 1}" for j in range(dim)]
        budgets = read_quality_csv(args.quality, names)
        eps = [budgets[name] for name in names if name in budgets]
    else:
        raise InputError("need --eps values or a --quality file")
    if len(eps) != dim:
        raise InputError(f"got {len(eps)} budgets for {dim} uncertain "
                         "resources")
    return eps


def _resolve_samples(args, network) -> tuple:
    """Training data: from a CSV or generated; returns (matrix, source)."""
    if args.data is not None:
        names, xs = read_samples_csv(args.data)
        if xs.shape[0] != len(network.resources):
            raise InputError(f"{args.data}: {xs.shape[0]} feature columns "
                             f"for {len(network.resources)} resources")
        return xs, str(args.data)
    n = 20 if args.train is None else args.train
    seed = derive_seed(args.seed, "train")
    xs = training_matrix(network, n, seed, args.error_mean)
    return xs, f"generated:n={n},seed={seed}"


def _write_manifest(outdir: Path, payload: dict) -> Path:
    path = outdir / "manifest.json"
    payload = dict(payload, version=__version__)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_quality(args) -> int:
    if args.noise is not None and (args.original or args.published):
        raise InputError("--noise excludes --original and --published")
    qualities: dict[str, float] = {}
    if args.noise is not None:
        kind, sep, value = args.noise.partition(":")
        if not sep:
            raise InputError("--noise expects KIND:PARAM, e.g. laplace:0.05")
        model = NoiseModel(kind, parse_float("--noise", value), args.dimension)
        norm = "l1" if args.p == 1 else "l2"
        signal = additive_noise_bound(model, p=args.p, norm=norm)
        qualities["xi_1"] = signal.epsilon
    elif args.original is not None:
        if args.published is None:
            raise InputError("--original requires --published")
        names_a, xa = read_samples_csv(args.original)
        names_b, xb = read_samples_csv(args.published)
        if names_a != names_b:
            raise InputError(f"{args.original} has columns {names_a} but "
                             f"{args.published} has {names_b}")
        for name, original, published in zip(names_a, xa, xb):
            signal = aggregation_protocol_bound(original, published, p=args.p)
            qualities[name] = signal.epsilon
    else:
        raise InputError("need --noise KIND:PARAM or --original/--published")

    for name, eps in qualities.items():
        print(f"{name}: epsilon = {fmt(eps)} (p={args.p})")
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_quality_csv(outdir / "quality.csv", qualities)
        _write_manifest(outdir, {
            "command": "quality", "noise": args.noise,
            "original": args.original and str(args.original),
            "published": args.published and str(args.published),
            "p": args.p, "outputs": ["quality.csv"],
        })
        print(f"wrote {outdir / 'quality.csv'}")
    return EXIT_OK


def _solve_instance(args):
    """Load inputs and solve once; returns the solution with the network's
    and the data's source labels, or an exit code."""
    network, net_src = _load_net(args)
    xs, data_src = _resolve_samples(args, network)
    eps = _resolve_epsilons(args, len(network.resources))
    sol = solve_msdro_opf(network, MultiDataset.from_matrix(xs, eps),
                          args.gamma)
    if sol.status == "infeasible":
        print(f"model is infeasible: {sol.built.model.summary()}; check line "
              "limits, generator capacity against loads, and the support "
              "width", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not sol.optimal:
        print(f"solver failed: status {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    return sol, net_src, data_src


def cmd_solve(args) -> int:
    solved = _solve_instance(args)
    if isinstance(solved, int):
        return solved
    sol, net_src, data_src = solved
    network, data = sol.built.network, sol.built.data
    eps = data.epsilons.tolist()

    tightened = cvar_tightening_rerun(first=sol)
    report = marginal_data_value(sol)
    forecast = forecast_value_decomposition(sol)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dec = sol.decision
    write_csv(outdir / "solution.csv",
              ["generator", "bus", "p", "r_plus", "r_minus"]
              + [f"alpha_{j + 1}" for j in range(data.dimension)],
              ([g + 1, gen.bus, dec.p[g], dec.r_plus[g], dec.r_minus[g],
                *dec.alpha[g]] for g, gen in enumerate(network.generators)))
    duals = sol.lp_solution.duals
    write_csv(outdir / "duals.csv", ["constraint", "dual"],
              zip(sol.built.model.row_names(), duals.tolist()))

    write_csv(outdir / "valuation.csv", DATA_VALUE_COLUMNS,
              data_value_rows(report))
    write_csv(outdir / "forecast_value.csv", FORECAST_VALUE_COLUMNS,
              forecast_value_rows(forecast))
    outputs = ["solution.csv", "duals.csv", "valuation.csv",
               "forecast_value.csv", "samples.csv"]
    write_samples_csv(outdir / "samples.csv", data.matrix())
    _write_manifest(outdir, {
        "command": "solve", "network": net_src, "data": data_src,
        "epsilons": eps, "gamma": args.gamma, "seed": args.seed,
        "train_seed": derive_seed(args.seed, "train"),
        "error_mean": args.error_mean, "outputs": outputs,
        "pinned_generators": [g + 1 for g in sorted(
            tightened.built.fixed_zero_participation)],
        # As printed: ten significant digits.
        "objective": float(fmt(sol.objective)),
        "objective_tightened": float(fmt(tightened.objective)),
    })

    print("status: optimal")
    print(f"objective: {fmt(sol.objective)}")
    if tightened is not sol:
        print(f"objective after tightening re-run: {fmt(tightened.objective)}")
    for j in range(data.dimension):
        print(f"feature {j + 1}: eps={fmt(eps[j])} "
              f"lambda_co={fmt(report.lambda_co[j])} "
              f"lambda_cc={fmt(report.lambda_cc[j])} "
              f"marginal_value={fmt(report.marginal_value[j])} "
              f"[{report.regime[j]}]")
    print(f"wrote {len(outputs)} files to {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    network, net_src = _load_net(args)
    config = SweepConfig(
        grid=DEFAULT_GRID if args.grid is None else tuple(args.grid),
        n_samples=args.n_samples,
        seed=args.seed,
        gamma=args.gamma,
        oos_samples=args.oos_samples,
        error_mean=args.error_mean,
        # The default grid gets the extra 0.0 out-of-sample column for the
        # SAA comparison; an explicit --grid is swept exactly as given.
        oos_include_zero=args.grid is None,
    )
    result = run_sweep(network, config, jobs=args.jobs)
    failed = [c for c in result.cells if not c.optimal]
    for cell in failed:
        print(f"cell {cell.epsilons}: {cell.status} {cell.message}",
              file=sys.stderr)
    if len(failed) == len(result.cells):
        print("every sweep cell failed", file=sys.stderr)
        return EXIT_SOLVER

    outdir = Path(args.out)
    paths = write_sweep_csvs(result, outdir)
    _write_manifest(outdir, {
        "command": "sweep", "network": net_src,
        "grid": list(config.grid), "n_samples": config.n_samples,
        "gamma": config.gamma, "seed": config.seed,
        "train_seed": derive_seed(config.seed, "train"),
        "oos_samples": config.oos_samples,
        "oos_seed_scheme": OOS_SEED_SCHEME,
        "error_mean": config.error_mean, "jobs": args.jobs,
        "outputs": [p.name for p in paths],
    })
    print(f"{len(result.cells) - len(failed)}/{len(result.cells)} cells "
          f"solved; wrote {len(paths)} files to {outdir}")
    return EXIT_OK


def cmd_oos(args) -> int:
    solved = _solve_instance(args)
    if isinstance(solved, int):
        return solved
    sol, net_src, data_src = solved
    eps = sol.built.data.epsilons.tolist()
    rate = out_of_sample(sol, args.oos_samples, args.seed)
    print(f"objective: {fmt(sol.objective)}")
    print(f"violation: {fmt(rate)} over {args.oos_samples} samples "
          f"(gamma = {fmt(args.gamma)})")
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "oos.csv",
                  [f"eps{j + 1}" for j in range(len(eps))] + OOS_COLUMNS,
                  [eps + [rate, args.oos_samples, "optimal"]], nan="")
        _write_manifest(outdir, {
            "command": "oos", "network": net_src, "data": data_src,
            "epsilons": eps, "gamma": args.gamma, "seed": args.seed,
            "oos_samples": args.oos_samples,
            "oos_seed_scheme": OOS_SEED_SCHEME,
            "error_mean": args.error_mean,
            "outputs": ["oos.csv"],
        })
    return EXIT_OK


def _float(text: str) -> float:
    """argparse type: a float in the number grammar of the input files
    (``parse_float``)."""
    try:
        return parse_float("", text)
    except InputError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _out_dir(text: str) -> Path:
    """argparse type: an output directory, refused where a file stands at
    it or at an ancestor. The directory is made only when outputs are
    written, so a run that fails leaves none behind."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} is not a directory")
    return path


def _add_common_model_flags(sub) -> None:
    sub.add_argument("--network", type=Path, default=None,
                     help="network JSON file (default: bundled case5)")
    sub.add_argument("--gamma", type=_float, default=0.05,
                     help="joint chance-constraint risk level")
    sub.add_argument("--seed", type=int, default=1, help="master seed")
    sub.add_argument("--error-mean", choices=ERROR_MEANS,
                     default="zero",
                     help="training error centering convention")


def _add_data_flags(sub) -> None:
    # argparse rejects a second data or budget source (exit 2) before any
    # file is read. A value equal to the default would not count: hence None.
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--data", type=Path, default=None,
                        help="training sample CSV (xi_1,...,xi_D header)")
    source.add_argument("--train", type=_at_least(1), default=None,
                        help="generate this many training samples instead "
                             "(default 20)")
    budgets = sub.add_mutually_exclusive_group()
    budgets.add_argument("--eps", type=_float, nargs="+", default=None,
                         help="per-feature Wasserstein budgets")
    budgets.add_argument("--quality", type=Path, default=None,
                         help="feature,epsilon CSV instead of --eps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msdro",
        description="Multi-source Wasserstein DRO for chance-constrained "
                    "DC-OPF with data valuation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    q = subs.add_parser("quality", help="derive Wasserstein budgets")
    q.add_argument("--noise", default=None,
                   help="analytic noise bound, KIND:PARAM "
                        "(laplace:SCALE or gaussian:STDDEV)")
    q.add_argument("--original", type=Path, default=None,
                   help="original samples CSV for the empirical bound")
    q.add_argument("--published", type=Path, default=None,
                   help="published samples CSV for the empirical bound")
    q.add_argument("--p", type=int, choices=[1, 2], default=1,
                   help="Wasserstein order")
    q.add_argument("--dimension", type=_at_least(1), default=1,
                   help="feature dimension for analytic bounds")
    q.add_argument("--out", type=_out_dir, default=None)

    s = subs.add_parser("solve", help="solve one instance")
    _add_common_model_flags(s)
    _add_data_flags(s)
    s.add_argument("--out", type=_out_dir, default="msdro_out")

    w = subs.add_parser("sweep", help="grid sweep over budgets")
    _add_common_model_flags(w)
    w.add_argument("--grid", type=_float, nargs="+", default=None,
                   help="budget grid applied to every feature "
                        "(default: 1.0 0.1 0.005 0.001)")
    w.add_argument("--n-samples", type=int, default=20)
    w.add_argument("--oos-samples", type=int, default=1000)
    w.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel worker processes for sweep cells")
    w.add_argument("--out", type=_out_dir, default="msdro_out")

    o = subs.add_parser("oos", help="out-of-sample violation check")
    _add_common_model_flags(o)
    _add_data_flags(o)
    o.add_argument("--oos-samples", type=_at_least(0), default=1000)
    o.add_argument("--out", type=_out_dir, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it as it
    was, and ``main`` looks each command's handler up when it runs, so a
    ``cmd_*`` replaced after the build is the one that runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return {"quality": cmd_quality, "solve": cmd_solve, "sweep": cmd_sweep,
                "oos": cmd_oos}[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
