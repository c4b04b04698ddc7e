"""Which calls into the program are layer boundaries, and their metrics.

Each entry names the module attribute a caller looks up and the span that
records it. Where a function is imported into several modules, each copy
is wrapped under the same span name. Per-layer times are self times (the
span minus its child spans), except ``opf_model.rerun_s``, which covers
the whole tightening re-run (its build, assembly and HiGHS time).
"""

from __future__ import annotations

from collections import Counter

from tracing import durations, self_times, subtree

RERUN_RTOL = 1e-9

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "network.flow_maps": "network.flow_maps_s",
    "opf_model.build": "opf_model.build_s",
    "opf_model.solve": "opf_model.extract_s",
    "lp.model_solve": "lp.assemble_s",
    "lp.highs": "lp.highs_s",
    "valuation": "valuation.s",
    "evaluation.training": "evaluation.training_s",
    "evaluation.oos": "evaluation.oos_s",
    "evaluation.csv": "evaluation.csv_s",
    "evaluation.run_sweep": "evaluation.run_sweep_self_s",
    "cli.inputs": "cli.inputs_s",
    "cli.outputs": "cli.outputs_s",
    "dro_core.general": "dro_core.general_s",
    "dro_core.standardized": "dro_core.standardized_s",
    "dro_core.separable": "dro_core.separable_s",
    "dro_core.single_budget": "dro_core.single_budget_s",
    "dro_core.bounds": "dro_core.bounds_s",
    "data_quality.w1": "data_quality.w1_s",
}

COUNT_METRICS = ("network.flow_maps_calls", "opf_model.reruns",
                 "opf_model.reruns_changed", "lp.rows", "lp.cols", "lp.nnz",
                 "lp.solves", "lp.highs_iterations")

#: Every per-layer metric and its unit, in report order.
PER_LAYER = (
    [(m, "s") for m in SELF_TIME_METRICS.values()]
    + [("opf_model.rerun_s", "s"), ("setup.import_s", "s")]
    + [(m, "count") for m in COUNT_METRICS]
    + [("opf_model.reruns_changed_ratio", "ratio"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
       ("trace.layer_sum_s", "s"), ("trace.untraced_batch_s", "s"),
       ("trace.spans", "count")]
)


def _count_lp(counts, result, args, kwargs):
    model = args[0]
    counts["lp.solves"] += 1
    counts["lp.rows"] += model.num_constraints
    counts["lp.cols"] += model.num_vars
    counts["lp.nnz"] += sum(len(c.cols) for c in model.constraints)


def _count_highs(counts, result, args, kwargs):
    counts["lp.highs_iterations"] += int(getattr(result, "nit", 0))


def _count_flow_maps(counts, result, args, kwargs):
    counts["network.flow_maps_calls"] += 1


def _count_rerun(counts, result, args, kwargs):
    first = args[3] if len(args) > 3 else kwargs["first"]
    counts["opf_model.reruns"] += 1
    if result.optimal and abs(result.objective - first.objective) > \
            RERUN_RTOL * max(1.0, abs(first.objective)):
        counts["opf_model.reruns_changed"] += 1


def instrument(tracer):
    """Wrap every layer boundary of the program in a span."""
    from msdro_opf import (cli, data_quality, dro_core, evaluation, lp,
                           network, opf_model)

    w = tracer.wrap
    w(opf_model, "compute_flow_maps", "network.flow_maps", _count_flow_maps)
    w(network, "compute_flow_maps", "network.flow_maps", _count_flow_maps)
    w(opf_model, "build_msdro_opf", "opf_model.build")
    w(opf_model, "solve", "opf_model.solve")
    w(lp.Model, "solve", "lp.model_solve", _count_lp)
    w(lp, "linprog", "lp.highs", _count_highs)
    for mod in (evaluation, cli):
        w(mod, "cvar_tightening_rerun", "opf_model.rerun", _count_rerun)
        w(mod, "marginal_data_value", "valuation")
        w(mod, "forecast_value_decomposition", "valuation")
        w(mod, "training_matrix", "evaluation.training")
    w(evaluation, "oos_matrix", "evaluation.oos")
    w(evaluation, "empirical_violation", "evaluation.oos")
    w(evaluation, "write_sweep_csvs", "evaluation.csv")
    w(evaluation, "run_sweep", "evaluation.run_sweep")
    for attr in ("read_samples_csv", "load_network", "bundled_network"):
        w(cli, attr, "cli.inputs")
    w(cli, "cmd_solve", "cli.outputs")
    w(cli, "cmd_quality", "cli.outputs")
    w(dro_core, "wc_expectation_general", "dro_core.general")
    w(dro_core, "wc_expectation_standardized", "dro_core.standardized")
    w(dro_core, "wc_expectation_separable", "dro_core.separable")
    w(dro_core, "wc_expectation_single_budget", "dro_core.single_budget")
    w(dro_core, "sample_average", "dro_core.bounds")
    w(dro_core, "robust_value", "dro_core.bounds")
    w(data_quality, "empirical_wasserstein_1d", "data_quality.w1")


def round_layers(spans, roots, counts: Counter) -> dict:
    """Per-layer values of one traced round made of the root spans ``roots``.

    ``counts`` holds the counters recorded during the round.
    """
    own = Counter()
    for root in roots:
        own.update(self_times(spans, root))
    out = {metric: own.get(span, 0.0)
           for span, metric in SELF_TIME_METRICS.items()}
    out["opf_model.rerun_s"] = sum(durations(spans, root, "opf_model.rerun")
                                   for root in roots)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    reruns = out["opf_model.reruns"]
    out["opf_model.reruns_changed_ratio"] = (
        out["opf_model.reruns_changed"] / reruns if reruns else 0.0)
    out["trace.unattributed_s"] = own.get("round", 0.0)
    out["trace.layer_sum_s"] = sum(own.values()) - out["trace.unattributed_s"]
    out["trace.spans"] = sum(len(subtree(spans, root)) - 1 for root in roots)
    return out


def record_lp_status(patches, statuses: Counter):
    """Count HiGHS exit codes of every LP solved in this process."""
    from msdro_opf import lp

    def make(original):
        def linprog(*args, **kwargs):
            res = original(*args, **kwargs)
            statuses[int(res.status)] += 1
            return res
        return linprog

    patches.replace(lp, "linprog", make)
