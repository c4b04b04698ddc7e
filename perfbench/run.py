"""Benchmark of the msdro-opf pipeline: end-to-end figures or per-layer times.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke

The program is imported from ``src/`` of the checkout, never from an
installed copy. One run repeats whole rounds of the workload's fixed batch
until the timed calls add up to ``--seconds``. With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds on the same inputs and prints the per-layer metrics, the
tracing overhead, and writes the spans to ``.perfbench_out/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sweep-serial", "sweep-parallel", "solve-large", "routes-quality")
#: Fresh interpreters timed for ``setup_s`` besides the run's own.
SETUP_PROBES = 2
#: What ``batch_s`` is called on each workload in the printed summary.
BATCH_NAME = {"sweep-serial": "sweep_s", "sweep-parallel": "sweep_s",
              "solve-large": "solve_s", "routes-quality": "routes_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes: every workload and check in seconds")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import the checkout's msdro_opf; returns the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import msdro_opf.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(msdro_opf.__file__).resolve().parent != src / "msdro_opf":
        raise SystemExit(f"error: msdro_opf imported from {msdro_opf.__file__}")
    return import_s


def make_workload(args, work):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](ROOT, work, args.seed, args.smoke)
    wl.setup()
    return wl


def probe_setup(args):
    """Time set-up in a fresh interpreter, the same way this run did."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def batch_time(rounds):
    """Sum over a round's timed regions of each region's median lap."""
    return sum(statistics.median(laps) for laps in zip(*rounds))


def run_rounds(wl, args, tracer):
    """Repeat whole rounds until the timed calls reach ``--seconds``.

    Untraced: each round moves to the workload's next input set. Traced:
    untraced and traced rounds alternate on one input, so the difference
    of their batch times is the tracing overhead. Returns the laps of the
    untraced and of the traced rounds.
    """
    import layers

    plain, traced, per_layer = [], [], []
    attempted = failed = 0
    total = 0.0
    r = 0
    while True:
        trace_this = tracer is not None and r % 2 == 1
        data_index = r % wl.input_sets if tracer is None else 0
        wl.tracer = tracer if trace_this else None
        first_span = len(tracer.spans) if trace_this else 0
        counts_before = tracer.counts.copy() if trace_this else None
        wl.laps = []
        att, fl = wl.run_round(data_index, check=(r == 0))
        attempted += att
        failed += fl
        total += sum(wl.laps)
        (traced if trace_this else plain).append(wl.laps)
        if trace_this:
            counts = tracer.counts - counts_before
            roots = [i for i in range(first_span, len(tracer.spans))
                     if tracer.spans[i][3] == -1]
            rnd = layers.round_layers(tracer.spans, roots, counts)
            per_layer.append(rnd)
        r += 1
        if total >= args.seconds and (tracer is None or traced):
            break
    wl.tracer = None
    return plain, traced, per_layer, attempted, failed


def run_workload(args, work):
    import_s = load_program()
    wl = make_workload(args, work)
    setups = [time.perf_counter() - T0]
    setups += [probe_setup(args) for _ in range(0 if args.smoke else SETUP_PROBES)]
    wl.prepare()

    import layers
    from tracing import Patches, Tracer
    statuses = Counter()
    patches = Patches()
    layers.record_lp_status(patches, statuses)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    try:
        plain, traced, per_layer, attempted, failed = run_rounds(wl, args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()
    wl.finish()
    patches.restore()
    if any(code != 0 for code in statuses):
        wl.problems.append(f"HiGHS exit codes {dict(statuses)}; every LP "
                           "must end optimal (0)")

    lines = [f"workload {wl.name}, seed {args.seed}: {len(plain) + len(traced)} "
             f"rounds, {attempted} operations attempted, {failed} failed, "
             f"{sum(statuses.values())} LPs solved in this process"]
    if args.trace:
        metrics = trace_metrics(wl, args, tracer, plain, traced, per_layer,
                                import_s, lines)
    else:
        batch = batch_time(plain)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "batch_s": metric(batch, "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
        lines.append(f"  {BATCH_NAME[wl.name]} = {batch:.4f} s "
                     f"(batch_s, summed medians over {len(plain)} rounds)")
        lines.append(f"  setup_s = {metrics['setup_s']['value']:.4f} s "
                     f"(median over {len(setups)} fresh interpreters)")
        lines.append(f"  peak_rss_mb = {rss:.1f} MB")
    lines += [f"  note: {n}" for n in dict.fromkeys(wl.notes)]
    lines += [f"  PROBLEM: {p}" for p in dict.fromkeys(wl.problems)]
    print("\n".join(lines))
    return {"correct": not wl.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def trace_metrics(wl, args, tracer, plain, traced, per_layer, import_s, lines):
    import layers
    values = {name: statistics.median(r[name] for r in per_layer)
              for name, _ in layers.PER_LAYER if name in per_layer[0]}
    values["setup.import_s"] = import_s
    untraced = batch_time(plain)
    values["trace.untraced_batch_s"] = untraced
    values["trace.overhead_s"] = batch_time(traced) - untraced
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
    note = ""
    if wl.name == "sweep-parallel":
        note = ("worker processes are not traced: layers that run inside "
                "the pool read 0, and evaluation.run_sweep_self_s holds the "
                "time the parent waits for the pool")
        lines.append(f"  note: {note}")
    tracer.dump(path, workload=wl.name, seed=args.seed, note=note)
    lines.append(
        f"  layer self times sum to {values['trace.layer_sum_s']:.4f} s per "
        f"round; untraced round {untraced:.4f} s; tracing overhead "
        f"{values['trace.overhead_s']:+.4f} s; unattributed "
        f"{values['trace.unattributed_s']:.4f} s; spans in {path.name}")
    return {name: metric(values[name], unit) for name, unit in layers.PER_LAYER}


def run_all(args):
    """Each workload in its own process; prints a summary table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        text = out.stdout.strip().splitlines()
        print("\n".join(text[:-1]))
        if out.returncode != 0 or not text:
            print(out.stderr, file=sys.stderr)
            raise SystemExit(f"error: workload {name} exited {out.returncode}")
        results[name] = json.loads(text[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "msdro_opf" / "__init__.py").is_file():
        raise SystemExit(f"error: no msdro_opf sources under {ROOT / 'src'}")
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        if args.setup_probe:
            load_program()
            make_workload(args, work)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
