"""Span tracer for the benchmark's traced run.

The traced run replaces public functions of the program's modules with
wrappers that record a span (name, start, end, parent) per call and bump
counters at the same boundary.  Where one module calls another through a
name it imported (``experiments`` -> ``fit_oada``, ``cli`` -> ``profile_ci``,
``profile_ci`` -> ``minimize_multistart``), the name is replaced inside the
calling module.  Nothing is replaced outside a traced run, and `uninstall`
puts every original back.

Rules keep the rate kernel they were built with, so rules must be built
after `install` for their kernel calls to be traced; the workloads build
their rules inside each round.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "rules.kernel_s": "s",
    "rules.kernel_calls": "calls",
    "rules.kernel_slots": "slots",
    "rules.kernel_slots_per_s": "slots/s",
    "oada.build_table_s": "s",
    "oada.build_table_calls": "calls",
    "oada.table_slots": "slots",
    "oada.table_bytes": "bytes",
    "fit.s": "s",
    "fit.calls": "calls",
    "fit.nll_evals": "evals",
    "fit.evals_per_fit": "evals/fit",
    "fit.hessian_s": "s",
    "profile_ci.s": "s",
    "profile_ci.calls": "calls",
    "profile_ci.points": "points",
    "profile_ci.inner_fits": "fits",
    "profile_ci.nll_evals": "evals",
    "profile_ci.evals_per_point": "evals/point",
    "simulate.s": "s",
    "simulate.calls": "calls",
    "simulate.events": "events",
    "network.generate_s": "s",
    "network.generate_calls": "calls",
    "network.load_s": "s",
    "cli.s": "s",
    "experiments.s": "s",
    "experiments.replicates": "replicates",
    "trace.datasets_per_s": "datasets/s",
    "trace.overhead_pct": "%",
}

# the span names behind the "<layer>.s"-style self-time metrics
SELF_TIME_METRICS = {
    "rules.kernel_s": "rules.kernel",
    "oada.build_table_s": "oada.build_table",
    "fit.s": "fit",
    "fit.hessian_s": "fit.hessian",
    "profile_ci.s": "profile_ci",
    "simulate.s": "simulate",
    "network.generate_s": "network.generate",
    "network.load_s": "network.load",
    "cli.s": "cli",
    "experiments.s": "experiments",
}

KERNELS = ("_asocial_sums", "_simple_sums", "_proportional_sums", "_freqdep_sums", "_threshold_sums")


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest strictly."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether an open span of this name encloses the current call."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, owner, attr: str, span: str | None, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper.  ``span`` names the span
        (None: count only); ``count(counts, result, args)`` runs after the
        call returns."""
        original = getattr(owner, attr)
        tracer = self

        def wrapped(*args, **kwargs):
            rec = tracer._open(span) if span else None
            try:
                result = original(*args, **kwargs)
            finally:
                if rec is not None:
                    tracer._close(rec)
            if count is not None:
                count(tracer.counts, result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def fired(self) -> set[str]:
        return {rec[0] for rec in self.spans}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import contagionfit

    # contagionfit.profile_ci is the function; the module comes from import_module
    cli, experiments, fit, profile_mod, rules = (
        importlib.import_module(f"contagionfit.{name}")
        for name in ("cli", "experiments", "fit", "profile_ci", "rules")
    )

    def kernel_count(counts, result, args):
        counts["rules.kernel_calls"] += 1
        counts["rules.kernel_slots"] += getattr(args[1], "size", 1)
        if tracer.inside("profile_ci"):
            counts["profile_ci.nll_evals"] += 1

    for name in KERNELS:
        tracer.wrap(rules, name, "rules.kernel", kernel_count)

    def table_count(counts, table, args):
        counts["oada.build_table_calls"] += 1
        counts["oada.table_slots"] += table.naive_flat.size
        counts["oada.table_bytes"] += sum(
            a.nbytes
            for a in (table.naive_flat, table.w_informed_flat, table.total_flat,
                      table.flat_start, table.acquirer_slot)
        )

    for owner in (contagionfit, fit, profile_mod, experiments):
        tracer.wrap(owner, "build_event_table", "oada.build_table", table_count)

    def fit_count(counts, res, args):
        counts["fit.calls"] += 1
        counts["fit.nll_evals"] += res.n_evals

    for owner in (contagionfit, experiments, cli):
        tracer.wrap(owner, "fit_oada", "fit", fit_count)
    tracer.wrap(fit, "hessian_standard_errors", "fit.hessian")

    def profile_count(counts, ci, args):
        counts["profile_ci.calls"] += 1
        counts["profile_ci.points"] += len(ci.profile_points)

    for owner in (contagionfit, cli):
        tracer.wrap(owner, "profile_ci", "profile_ci", profile_count)

    def inner_count(counts, ms, args):
        counts["profile_ci.inner_fits"] += 1

    tracer.wrap(profile_mod, "minimize_multistart", None, inner_count)

    def sim_count(counts, result, args):
        counts["simulate.calls"] += 1
        counts["simulate.events"] += result[0].n_events

    for owner in (contagionfit, experiments, cli):
        tracer.wrap(owner, "simulate_diffusion", "simulate", sim_count)

    def gen_count(counts, net, args):
        counts["network.generate_calls"] += 1

    for owner in (contagionfit, experiments, cli):
        tracer.wrap(owner, "generate_network", "network.generate", gen_count)
    tracer.wrap(cli, "load_network_csv", "network.load")

    tracer.wrap(cli, "main", "cli")

    def exp_count(counts, result, args):
        counts["experiments.replicates"] += result.config.reps * len(result.config.grid)

    tracer.wrap(contagionfit, "run_selection_experiment", "experiments", exp_count)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced pass;
    layers the pass never reached read 0."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    selfs = tracer.self_times()
    for metric, span in SELF_TIME_METRICS.items():
        m[metric] = selfs.get(span, 0.0)
    m.update(tracer.counts)
    if m["rules.kernel_s"] > 0:
        m["rules.kernel_slots_per_s"] = m["rules.kernel_slots"] / m["rules.kernel_s"]
    if m["fit.calls"]:
        m["fit.evals_per_fit"] = m["fit.nll_evals"] / m["fit.calls"]
    if m["profile_ci.points"]:
        m["profile_ci.evals_per_point"] = m["profile_ci.nll_evals"] / m["profile_ci.points"]
    return m
