"""contagionfit benchmark: one workload per run, checked, with metrics as JSON.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload selection|coverage|analysis \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is installed.
An untraced run (``--trace 0``) runs the whole number of rounds of the
workload whose timed work comes nearest to ``--seconds`` (at least two),
checks every output and prints the end-to-end metrics.  A traced run
(``--trace 1``) runs the first round twice on the same inputs, first
untraced and then traced, and prints the per-layer metrics with the
tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Human-readable notes go to standard error; the result and the
spans of a traced run are also written under ``bench/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# set-up is repeated this many times and reported as the median
SETUP_REPEATS = 3
# an untraced run times at least this many rounds, so that no figure rests on
# a single sample of a machine whose speed swings within seconds
MIN_ROUNDS = 2
# a traced run times this many rounds untraced, then the same rounds traced
TRACE_ROUNDS = 1

END_TO_END_UNITS = {"datasets_per_s": "datasets/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("selection", "coverage", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import contagionfit from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "contagionfit", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/contagionfit")
    sys.path.insert(0, SRC)
    import contagionfit

    where = os.path.dirname(os.path.abspath(contagionfit.__file__))
    if where != os.path.join(SRC, "contagionfit"):
        raise SystemExit(f"error: contagionfit was imported from {where}, not {SRC}")


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program and the
    benchmark's modules and exits: the import part of one set-up."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, BENCH])}
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tracing, workloads"], env=env, check=True)
    return time.perf_counter() - t


def run_rounds(workload, rounds, seconds):
    """Run rounds 0, 1, ...: exactly ``rounds`` of them, or else the whole
    number of rounds whose timed work comes nearest to ``seconds`` (at
    least ``MIN_ROUNDS``).  Returns the outputs and the time of each round."""
    outputs, times = [], []
    while True:
        t = time.perf_counter()
        outputs.append(workload.run_round(len(outputs)))
        times.append(time.perf_counter() - t)
        if rounds is not None:
            if len(outputs) >= rounds:
                return outputs, times
        elif len(outputs) >= MIN_ROUNDS and sum(times) >= seconds - 0.5 * sum(times) / len(times):
            return outputs, times


def check_all(workload, outputs):
    attempted = failed = 0
    op_problems, problems = [], []
    for out in outputs:
        a, f, ops, probs = workload.check(out)
        attempted += a
        failed += f
        op_problems += ops
        problems += probs
    return attempted, failed, op_problems, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import reference
    import tracing
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        reference.self_check()
        metrics = {}
        problems = []
        if args.trace:
            workload.prepare()
            plain_out, plain_times = run_rounds(workload, TRACE_ROUNDS, None)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced_out, traced_times = run_rounds(workload, TRACE_ROUNDS, None)
            finally:
                tracer.uninstall()
            outputs = plain_out + traced_out
            missing = workload.expected_spans - tracer.fired()
            if missing:
                problems.append(f"expected spans never fired: {sorted(missing)}")
            datasets = TRACE_ROUNDS * workload.datasets_per_round
            plain_rate = datasets / sum(plain_times)
            traced_rate = datasets / sum(traced_times)
            metrics.update(tracing.layer_metrics(tracer))
            metrics["trace.datasets_per_s"] = traced_rate
            metrics["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
            units = tracing.LAYER_METRICS
            tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl.gz"))
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                imports = fresh_import_seconds()
                t = time.perf_counter()
                workload.prepare()
                setups.append(imports + time.perf_counter() - t)
            outputs, times = run_rounds(workload, None, args.seconds)
            metrics["datasets_per_s"] = len(outputs) * workload.datasets_per_round / sum(times)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS

        attempted, failed, op_problems, workload_problems = check_all(workload, outputs)
        problems += workload_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in op_problems:
        print(f"failed operation: {note}", file=sys.stderr)
    for note in problems:
        print(f"check failed: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"rounds {len(outputs)}, attempted {attempted}, failed {failed}", file=sys.stderr)
    if not args.trace:
        print("round seconds: " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
