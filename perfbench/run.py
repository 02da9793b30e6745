"""cslbounds benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cslbounds checkout (it imports ``src/cslbounds``
and reads ``configs/``).  Workloads: scan_1d, scan_3d, lattice_pairs, cli
(see workloads.py and BENCHMARK.json for why each exists).

It times the set-up in fresh interpreters, then repeats rounds of the
workload's ops for about S seconds (at least MIN_ROUNDS; an op that
failed is not repeated where ops are separate calls), checks every op
against the stored reference, and prints a report followed by one JSON
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
Every timing is scaled to a nominal machine speed by the calibration
kernel run between timed units (speed.py): the shared vCPUs this was
tuned on change speed by up to a factor of two within a minute.  Each
op's latency is the median of its scaled latencies over the run's
rounds; wall_s is a round's time made of those medians; setup_s is the
median of SETUP_SAMPLES scaled set-up times.  The report also prints the
measured (unscaled) figures and the calibration kernel's median time.
With --trace 1 the same untraced rounds run first, then one more round
under the span tracer; the metrics are the per-layer ones, including the
tracing overhead (the traced round minus wall_s).  The spans are written
to perfbench/.work/traces/.

Every process runs numerical libraries on one thread (PINNED below) and
on one CPU (speed.Speed pins the runner, and its children inherit it);
the only parallel op is the cli ``exclusion --threads 2`` command, whose
two worker processes may use every CPU.
"""

import os
import sys

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1"}
os.environ.update(PINNED)       # before numpy is imported anywhere

import argparse               # noqa: E402
import collections            # noqa: E402
import json                   # noqa: E402
import resource               # noqa: E402
import shutil                 # noqa: E402
import statistics             # noqa: E402
import subprocess             # noqa: E402
import time                   # noqa: E402

import clirun                 # noqa: E402
import gate                   # noqa: E402
import speed as speedmod      # noqa: E402
import tracer as tracing      # noqa: E402
import workloads as wl        # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
# an op's latency is a median over rounds, so every workload runs two
# rounds at least; scan_3d's later rounds skip its failed points and are
# short, so it takes three
MIN_ROUNDS = {"scan_1d": 2, "scan_3d": 3, "lattice_pairs": 2, "cli": 2}
# workloads whose ops stream over arrays larger than a core's caches;
# their calibration kernel streams too (speed.py)
STREAMING = ("scan_3d", "lattice_pairs")
# p99.9 is left out: whether a run gets the 10,000 samples it needs would
# depend on machine speed, and the metric would change meaning between runs
TAIL_LADDER = (99.0, 90.0, 50.0)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


def checkout_root():
    """The cslbounds checkout this runs in, or None."""
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "cslbounds", "__init__.py")) \
            and os.path.isdir(os.path.join(root, "configs")):
        return root
    return None


def build(workload, variant, root, workdir):
    if workload == "cli":
        return wl.write_cli_configs(variant, root, workdir)
    return getattr(wl, "build_" + workload)(variant, root)


def run_round(workload, inputs, root, workdir, speed, tracer=None):
    if workload == "scan_1d":
        return wl.run_scan_1d(inputs, speed)
    if workload == "scan_3d":
        return wl.run_scan_3d(inputs, speed, tracer)
    if workload == "lattice_pairs":
        return wl.run_lattice_pairs(inputs, speed, tracer)
    return clirun.run_round(inputs, workdir, root, speed)


def load_reference(workload, variant):
    path = os.path.join(HERE, "reference", workload + ".json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ref = dict(data.get("shared", {}))
    ref.update(data["variants"].get(str(variant), {}))
    return ref


def verdict(workload, res, ref):
    if workload == "cli":
        return clirun.judge(res, ref.get(clirun.ref_key(res["op"])))
    entry = ref.get(res["op"])
    if entry is None:
        return gate.UNCHECKED, "no reference"
    return gate.judge(res["status"], res["value"], res["error"], entry,
                      res["rel_tol"])


def time_setup(args, root, speed):
    """(start, wall time) of one fresh interpreter that sets the workload
    up; the speed is sampled after it."""
    if args.workload == "cli":
        argv = [sys.executable, "-c", "import cslbounds"]
    else:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds", "0",
                "--trace", "0", "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(argv, env=wl.child_env(root), cwd=root, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    latency = time.perf_counter() - t0
    speed.tick()
    return t0, latency


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 20."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            q = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"p{p:g}", q[int(round(p * 10)) - 1]
    return "max", max(latencies)


def peak_rss_mb(workload):
    """(peak resident MB, whose): this process, or on cli the largest
    child."""
    if workload == "cli":
        return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0, "largest child")
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "benchmark process")


def cli_times(per_op):
    """Per-command wall time: the median over a command group of each
    command's median scaled latency."""
    groups = {"cli_spectrum_s": "spectrum", "cli_exclusion_s": "exclusion:",
              "cli_exclusion_threads2_s": "exclusion_threads2:",
              "cli_simulate_s": "simulate", "cli_pointcheck_s": "pointcheck"}
    out = {}
    for name, prefix in groups.items():
        lat = [v for op, v in per_op.items() if op.startswith(prefix)]
        out[name] = (statistics.median(lat), len(lat)) if lat else (0.0, 0)
    return out


def traced_cli_layers(trace_dir):
    """Merge the per-command span files and add the pool overhead."""
    spans, counts, maxima = [], {}, {}
    for name in sorted(os.listdir(trace_dir)):
        s, c, m = tracing.load(os.path.join(trace_dir, name))
        base = len(spans)
        spans += [[n, a, b, p + base if p >= 0 else -1, op]
                  for n, a, b, p, op in s]
        for k, v in c.items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in m.items():
            maxima[k] = max(maxima.get(k, 0.0), v)
    layers = tracing.per_layer(spans, counts, maxima)
    # wall of the 2-worker scan minus half the summed point time of the
    # same scan run serially
    scan2 = sum(b - a for n, a, b, _, op in spans
                if n == "exclusion.exclusion_scan"
                and op == "exclusion_threads2:cylinder_rotational")
    points1 = sum(b - a for n, a, b, _, op in spans
                  if n == "exclusion.lambda_upper_bound"
                  and op == "exclusion:cylinder_rotational")
    layers["exclusion.pool_overhead_s"] = scan2 - points1 / 2.0
    return spans, counts, maxima, layers


def traced_round(args, root, workdir, variant, speed):
    """One round under the tracer; returns (results, layers)."""
    trace_out = os.path.join(HERE, ".work", "traces")
    os.makedirs(trace_out, exist_ok=True)
    out_path = os.path.join(trace_out,
                            f"{args.workload}-seed{args.seed}.json.gz")
    if args.workload == "cli":
        trace_dir = os.path.join(workdir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        paths = build("cli", variant, root, workdir)
        results = clirun.run_round(paths, workdir, root, speed, trace_dir)
        spans, counts, maxima, layers = traced_cli_layers(trace_dir)
        tracing.dump(out_path, spans, counts, maxima)
        return results, layers
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.op = "setup"
        inputs = build(args.workload, variant, root, workdir)
        tr.op = None
        results = run_round(args.workload, inputs, root, workdir, speed,
                            tracer=tr)
    finally:
        tr.uninstall()
    tr.dump(out_path)
    return results, tracing.per_layer(tr.spans, tr.counts, tr.maxima)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = checkout_root()
    if root is None:
        print("error: run from the root of a cslbounds checkout "
              "(src/cslbounds and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    variant = wl.variant_of(args.seed)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            build(args.workload, variant, root, workdir)
            return 0
        return measure(args, root, workdir, variant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_rounds(args, root, workdir, inputs, speed):
    """Untraced rounds: at least MIN_ROUNDS, then more while another
    round as long as the last one still ends within args.seconds.  On the
    workloads made of independent op calls an op that failed is not
    attempted again, so later rounds repeat only the ops that
    completed."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(args.workload, inputs, root, workdir,
                                speed))
        now = time.perf_counter()
        elapsed, last = now - start, now - t0
        if len(rounds) >= MIN_ROUNDS[args.workload] \
                and elapsed + last > args.seconds:
            break
        if args.workload in ("scan_3d", "lattice_pairs"):
            failed = {r["op"] for r in rounds[-1]
                      if gate.is_failure(r["status"])}
            inputs = [op for op in inputs if op[0] not in failed]
            if not inputs:
                break
    return rounds


def set_scales(speed, results):
    """Give every result the factor that scales its latency to the
    nominal machine speed."""
    for r in results:
        r["scale"] = speed.factor(r["start"], r["start"] + r["latency"],
                                  r.get("wide", False))


def latencies(rounds, scaled=True):
    """{op: [latency per round]}, scaled to the nominal machine speed or
    as measured."""
    out = collections.defaultdict(list)
    for results in rounds:
        for r in results:
            out[r["op"]].append(r["latency"] * (r["scale"] if scaled
                                                else 1.0))
    return out


def round_time(rounds, scaled=True):
    """(time of one round, {op: median latency}): every op's median
    latency over its runs, times the runs it makes in the first round."""
    per_op = {op: statistics.median(v)
              for op, v in latencies(rounds, scaled).items()}
    runs = collections.Counter(r["op"] for r in rounds[0])
    return sum(per_op[op] * runs[op] for op in per_op), per_op


def end_to_end(rounds, setup, peak):
    """End-to-end metrics as (value, note).  Each op's latency is the
    median of its scaled latencies.  wall_s is a round's time made of
    those medians; the latency percentiles cover the ops that completed
    (failures are counted in failed_frac, and their time to fail is no
    latency)."""
    wall, per_op = round_time(rounds)
    completed = {r["op"] for results in rounds for r in results
                 if not gate.is_failure(r["status"])}
    # a run whose every op failed still reports the failures' latencies
    lat = [per_op[op] for op in completed] or list(per_op.values())
    done = statistics.mean(sum(not gate.is_failure(r["status"])
                               for r in results) for results in rounds)
    tail_name, tail_value = tail(lat)
    n = f"{len(lat)} completed ops, median of {len(rounds)} rounds"
    return per_op, {
        "setup_s": (statistics.median(setup), f"median of {len(setup)}"),
        "wall_s": (wall, f"{len(per_op)} ops, medians of "
                         f"{len(rounds)} rounds"),
        "ops_per_s": (done / wall, f"{done:g} completed ops per round"),
        "op_p50_ms": (1e3 * statistics.median(lat), n),
        "op_tail_ms": (1e3 * tail_value, f"{tail_name}, {n}"),
        "peak_rss_mb": peak,
    }


def measure(args, root, workdir, variant):
    speed = speedmod.Speed(stream=args.workload in STREAMING)
    speed.tick()
    timed_setup = [time_setup(args, root, speed)
                   for _ in range(SETUP_SAMPLES)]
    inputs = build(args.workload, variant, root, workdir)
    ref = load_reference(args.workload, variant)
    rounds = measure_rounds(args, root, workdir, inputs, speed)
    peak = peak_rss_mb(args.workload)
    for results in rounds:
        set_scales(speed, results)
    setup = [t * speed.factor(t0, t0 + t) for t0, t in timed_setup]
    per_op, e2e = end_to_end(rounds, setup, peak)
    measured = round_time(rounds, scaled=False)[0]

    layers = traced_wall = None
    all_rounds = list(rounds)
    if args.trace:
        traced, layers = traced_round(args, root, workdir, variant, speed)
        set_scales(speed, traced)
        all_rounds.append(traced)
        traced_wall = sum(r["latency"] * r["scale"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        layers.update(tracing.import_times(sys.executable,
                                           wl.child_env(root)))
    if args.workload == "cli":
        clirun.mark_determinism(all_rounds)

    results = [r for rs in all_rounds for r in rs]
    verdicts = [verdict(args.workload, r, ref) for r in results]
    bad = (gate.WRONG, gate.FAILED)
    failed = sum(v in bad + (gate.KNOWN_FAILURE,) for v, _ in verdicts)
    correct = not any(v in bad for v, _ in verdicts)
    unchecked = sum(v == gate.UNCHECKED for v, _ in verdicts)
    cli = cli_times(per_op) if args.workload == "cli" else {}

    print(f"workload {args.workload}  seed {args.seed}  variant {variant}  "
          f"trace {args.trace}")
    print(f"  timings scaled to a {speed.nominal:g} s calibration kernel; "
          f"its median here {speed.median():.4f} s over "
          f"{len(speed.samples[speed.home])} samples; unscaled: setup_s "
          f"{statistics.median(t for _, t in timed_setup):.4f} s, wall_s "
          f"{measured:.4f} s")
    for name, unit in END_TO_END:
        value, note = e2e[name]
        print(f"  {name:<26} {value:14.6g} {unit:<5} ({note})")
    for name, (value, n) in cli.items():
        print(f"  {name:<26} {value:14.6g} {'s':<5} (median of {n} "
              f"commands, each its median)")
    print(f"  {'failed_frac':<26} {failed / len(results):14.6g} {'':<5} "
          f"({failed} failed of {len(results)} attempted; "
          f"{unchecked} unchecked)")
    notes = collections.Counter((v, r["op"], why)
                                for (v, why), r in zip(verdicts, results)
                                if v != gate.OK)
    for (v, op, why), count in notes.items():
        print(f"    {v:<14} {op} ({count}x): {why}")
    if layers is not None:
        layers.update({k: v for k, (v, _) in cli.items()})
        print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s "
              f"(traced round {traced_wall:.4f} s minus wall_s)")
        for name, unit in tracing.PER_LAYER:
            print(f"  {name:<56} {layers[name]:14.6g} {unit}")
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": float(e2e[name][0]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
