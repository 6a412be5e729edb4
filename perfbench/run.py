"""Benchmark for the emergent-irq package.

Usage (from the repository root):

    python3 perfbench/run.py --workload group-batch --seed 0 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``group-batch``: in-process CLI cells on the batched group carriers;
* ``nonlinear-deep``: in-process CLI cells on perturbed and hyperbolic;
* ``pointwise``: single-point library calls on five carriers.

One single-threaded caller runs each workload closed-loop: an untimed
warm-up pass, then at least three timed passes, and more until
``--seconds`` is used up.  Set-up is timed in fresh processes.  Once per
invocation, outside the timed passes, the six hyperbolic cells run at the
CLI defaults as a probe.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of one untraced and two traced passes.  The traced run
also checks that the reports are byte-identical to the untraced pass and
that every count repeats between the two traced passes.  The lines before
the JSON summarise the run for a reader, including the failure fraction
that the JSON carries as ``failed`` over ``attempted``.

Exit status is 0 when the run completed, whatever the gate found, and
non-zero when the benchmark could not run (for example without the
package sources under ``src/``).
"""

import os

# One BLAS thread, fixed here so that every commit is measured alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
TRACE_SETUP_REPEATS = 3
MIN_PASSES = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(values):
    """Highest listed percentile with at least ten samples above its rank."""
    n = len(values)
    for q in PERCENTILES:
        if n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q, percentile(values, q)
    return None, None


def measure_setup(workload, repeats):
    """Median import and build times over fresh processes."""
    cmd = [sys.executable, str(HERE / "setup_child.py"),
           json.dumps(workload.setup_spec())]
    totals, builds = [], []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        totals.append(rec["import_s"] + rec["build_s"])
        builds.append(rec["build_s"])
    return statistics.median(totals), statistics.median(builds)


def judged(workload, result, prepared):
    """Apply the gate to a pass and drop its raw outputs, so that memory
    does not grow with the number of passes."""
    workload.judge(result, prepared)
    result.raw = None
    return result


def timed_passes(workload, prepared, seconds):
    """At least MIN_PASSES passes, then more while the next one, taken to
    last the median pass so far, would end within ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(judged(workload, workload.run_pass(prepared), prepared))
        expected = statistics.median(p.wall_s for p in passes)
        if (len(passes) >= MIN_PASSES
                and perf_counter() - start + expected > seconds):
            return passes


def probe_hyperbolic_defaults(workloads, seed):
    probe = workloads.HYPERBOLIC_DEFAULTS
    cells = probe.prepare(seed)
    return judged(probe, probe.run_pass(cells), cells)


def call_latencies(passes):
    """Latency of each call in a pass, as its median over the passes.

    Every pass repeats the same calls, so a burst of host noise during one
    pass moves no call's latency.
    """
    return [statistics.median(times)
            for times in zip(*(p.latencies for p in passes))]


def end_to_end(passes, setup_s):
    latencies = call_latencies(passes)
    pass_s = statistics.median(p.wall_s for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "calls_per_s": len(latencies) / pass_s,
        "call_ms_p50": 1e3 * percentile(latencies, 50.0),
        "call_ms_p99": 1e3 * percentile(latencies, 99.0),
        "ops_failed_frac": failed / attempted,
        "residual_ratio_max": max(p.ratio for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def describe(metrics, units, passes, probe):
    """Human-readable lines printed ahead of the JSON result."""
    walls = [p.wall_s for p in passes]
    latencies = call_latencies(passes)
    lines = []
    for name, value in metrics.items():
        lines.append(f"  {name:<22} {value:<14.6g} {units.get(name, '')}")
    q, v = tail(walls)
    lines.append(f"  pass_s: median of {len(walls)} passes"
                 + (f", p{q:g} {v:.6g} s" if q else
                    "; no percentile has 10 samples beyond it"))
    q, v = tail(latencies)
    lines.append(f"  calls: {len(latencies)} per pass, each timed as its "
                 f"median over {len(walls)} passes"
                 + (f", p{q:g} {1e3 * v:.6g} ms" if q else ""))
    lines.append(f"  failed {sum(p.failed for p in passes)} of "
                 f"{sum(p.attempted for p in passes)} operations")
    for what in sorted(set(passes[0].failures)):
        lines.append(f"    failed: {what}")
    lines.append(f"  cli.hyperbolic_defaults.rows_failed {probe.failed} "
                 "(untimed probe at CLI defaults)")
    for what in probe.failures:
        lines.append(f"    probe: {what}")
    return lines


def run_traced(workload, seed, untraced):
    """Two traced passes compared with ``untraced``.

    Returns the per-layer metrics, the traced passes, the self-test
    problems found and the wrapped names the package no longer has (their
    metrics read 0).
    """
    from tracing import Tracer
    from workloads import EXPERIMENTS

    tracer = Tracer()
    tracer.install()
    try:
        traced, counts = [], []
        for _ in range(2):
            # Carriers built before install() stay untraced: build afresh.
            prepared = workload.prepare(seed)
            tracer.reset()
            result = workload.run_pass(prepared)
            metrics = tracer.layer_metrics()
            counts.append(tracer.counted_calls())
            traced.append(judged(workload, result, prepared))
    finally:
        tracer.uninstall()
    problems = []
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"counts differ between traced passes: {diff}")
    for i, result in enumerate(traced, 1):
        if result.outputs != untraced.outputs:
            problems.append(f"traced pass {i}: outputs differ from the "
                            "untraced pass")
    for experiment in EXPERIMENTS:
        metrics[f"cli.{experiment}.wall_s"] = traced[-1].cell_wall.get(
            experiment, 0.0)
    traced_s = statistics.median(r.wall_s for r in traced)
    metrics["trace.pass_s_untraced"] = untraced.wall_s
    metrics["trace.pass_s_traced"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced.wall_s
    return metrics, traced, problems, tracer.missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "emergent_irq" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'emergent_irq'}",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    # ops_failed_frac is printed but not listed: it is 0 on two workloads.
    units = {"ops_failed_frac": "ratio",
             **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}

    setup_s, build_s = measure_setup(
        workload, TRACE_SETUP_REPEATS if args.trace else SETUP_REPEATS)
    probe = probe_hyperbolic_defaults(workloads, args.seed)
    prepared = workload.prepare(args.seed)
    workload.run_pass(prepared)  # warm-up, untimed

    problems, missing = [], []
    if args.trace:
        untraced = judged(workload, workload.run_pass(prepared), prepared)
        metrics, passes, problems, missing = run_traced(workload, args.seed,
                                                        untraced)
        metrics["carriers.build_s"] = build_s
        metrics["cli.hyperbolic_defaults.rows_failed"] = probe.failed
    else:
        passes = timed_passes(workload, prepared, args.seconds)
        metrics = end_to_end(passes, setup_s)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes after one untimed warm-up")
    for line in describe(metrics, units, passes, probe):
        print(line)
    for problem in problems:
        print(f"  self-test: {problem}")
    for name in missing:
        print(f"  tracer: {name} not found; its metrics read 0")

    wrong = sum(p.wrong for p in passes)
    result = {
        "correct": wrong == 0 and not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
