"""Monte-Carlo experiment harness: model-selection power, CI coverage, and
parametric-bootstrap CI calibration.

Reproducibility contract: every replicate's randomness derives from
``SeedSequence([base_seed, cell_index, replicate_index, stream])`` with one
stream each for network generation, diffusion simulation and optimizer
jitter.  Aggregation is by replicate index, so runs are bit-identical
whether replicates execute serially or across worker processes.

Selection and coverage run through one per-cell tally, `_tally`: a
replicate worker scores each replicate 0/1 per label of its cell (a
candidate rule, or an identified parameter), and each row counts the 1s of
one label.  Replicates whose model fits raise one of `FIT_ERRORS` score
None instead; they are counted as failures and excluded from the cell's
tallies, and the counts appear in every result row.  Any other exception is
a bug and propagates.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .fit import FitConfig, FitResult, fit_oada
from .network import GeneratorConfig, generate_network
from .oada import DiffusionData, build_event_table
from .profile_ci import DEFAULT_CUTOFF, ProfileCI, ProfileConfig, profile_ci, profile_nll
from .rules import TransmissionRule
from .simulate import simulate_diffusion

__all__ = [
    "ExperimentConfig",
    "SelectionRow",
    "SelectionResult",
    "CoverageRow",
    "CoverageResult",
    "CalibrationResult",
    "CalibrationError",
    "expand_grid",
    "run_selection_experiment",
    "run_coverage_experiment",
    "calibrate_ci",
    "write_selection_csv",
    "write_coverage_csv",
    "run_manifest",
]

Z_95 = 1.959963984540054  # normal 0.975 quantile for binomial half-widths
# what a fit on unlucky data may raise (numpy's LinAlgError is a ValueError);
# TypeError, IndexError and the like are bugs and must propagate
FIT_ERRORS = (ValueError, ArithmeticError, RuntimeError)


class CalibrationError(RuntimeError):
    """Raised when too many bootstrap replicates fail to fit."""


@dataclass
class ExperimentConfig:
    """Shared settings for selection and coverage experiments.

    ``grid`` is a list of cells, each mapping every parameter name of the
    true rule to its generating value (see `expand_grid` for building one
    from per-parameter axes).  A fresh network is generated for every
    replicate.
    """

    generator: GeneratorConfig
    true_rule: TransmissionRule
    grid: Sequence[Mapping[str, float]]
    candidates: Sequence[TransmissionRule] = ()
    reps: int = 100
    base_seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.grid:
            raise ValueError("grid must contain at least one cell")
        names = set(self.true_rule.param_names)
        for cell in self.grid:
            if set(cell) != names:
                raise ValueError(
                    f"grid cell {dict(cell)} must set exactly the true rule's "
                    f"parameters {sorted(names)}"
                )
        kinds = [r.kind for r in self.candidates]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate candidate rules: {kinds}")


def expand_grid(
    true_rule: TransmissionRule, axes: Mapping[str, Sequence[float]]
) -> list[dict[str, float]]:
    """Cross-product of per-parameter value axes, in parameter order.

    Cells where the rule's size parameter is 0 are collapsed into a single
    cell (the remaining parameters are non-identified there, so running
    several such cells would duplicate work).
    """
    names = true_rule.param_names
    for name in axes:
        if name not in names:
            raise ValueError(f"axis {name!r} is not a parameter of {true_rule.kind!r}")
    for name in names:
        if name not in axes:
            raise ValueError(f"missing axis for parameter {name!r}")
    cells: list[dict[str, float]] = []
    seen_null = False
    for combo in itertools.product(*(axes[name] for name in names)):
        cell = {name: float(v) for name, v in zip(names, combo)}
        if _identified(true_rule, cell)[0]:
            if seen_null:
                continue
            seen_null = True
        cells.append(cell)
    return cells


def _identified(rule: TransmissionRule, cell: Mapping[str, float]) -> tuple[bool, tuple[str, ...]]:
    """(whether ``cell`` is a null cell, one where the rule's size parameter
    is truly 0; the parameters the cell identifies: only the size parameter
    in a null cell, all of them otherwise)."""
    null = rule.size_param is not None and cell.get(rule.size_param) == 0.0
    return null, (rule.size_param,) if null else rule.param_names


def _derived_seed_int(base: int, *path: int) -> int:
    """Stable 63-bit integer seed derived from a seed path."""
    ss = np.random.SeedSequence([int(base), *[int(p) for p in path]])
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0] >> 1)


def _replicate_data(config: ExperimentConfig, cell_idx: int, rep: int) -> DiffusionData:
    cell = config.grid[cell_idx]
    params = [cell[name] for name in config.true_rule.param_names]
    net_seed = np.random.SeedSequence([config.base_seed, cell_idx, rep, 0])
    sim_seed = np.random.SeedSequence([config.base_seed, cell_idx, rep, 1])
    net = generate_network(replace(config.generator, seed=net_seed))
    data, _ = simulate_diffusion(net, config.true_rule, params, seed=sim_seed)
    return data


def _selection_replicate(args) -> tuple[int, ...] | None:
    """One-hot vector of the AICc winner among the candidates; None when any
    fit fails."""
    config, cell_idx, rep = args
    try:
        data = _replicate_data(config, cell_idx, rep)
        table = build_event_table(data)
        keys = []  # the winner has the least (aicc, k, index)
        for c_idx, rule in enumerate(config.candidates):
            fit_cfg = replace(
                config.fit, seed=_derived_seed_int(config.base_seed, cell_idx, rep, 2, c_idx)
            )
            res = fit_oada(table, rule, fit_cfg)
            keys.append((res.aicc, res.k, c_idx))
    except FIT_ERRORS:
        return None
    best = min(keys)[2]
    return tuple(int(key[2] == best) for key in keys)


def _coverage_replicate(args) -> tuple[int, ...] | None:
    """Per identified parameter: 1 contained, 0 not; None when the fit fails."""
    config, cell_idx, rep = args
    rule = config.true_rule
    cell = config.grid[cell_idx]
    try:
        data = _replicate_data(config, cell_idx, rep)
        fit_cfg = replace(
            config.fit, seed=_derived_seed_int(config.base_seed, cell_idx, rep, 2)
        )
        res = fit_oada(data, rule, fit_cfg)
        prof_cfg = replace(
            config.profile, seed=_derived_seed_int(config.base_seed, cell_idx, rep, 3)
        )
        out = []
        for name in _identified(rule, cell)[1]:
            ci = profile_ci(res, rule.param_names.index(name), config=prof_cfg)
            out.append(1 if ci.contains(cell[name]) else 0)
        return tuple(out)
    except FIT_ERRORS:
        return None


def _map_tasks(worker, tasks, threads: int):
    if threads <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(tasks) // (threads * 8))
        return list(pool.map(worker, tasks, chunksize=chunk))


def _half_width(p: float, n: int) -> float:
    if n <= 0:
        return math.nan
    return Z_95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _tally(config: ExperimentConfig, worker, labels, row_type, threads: int) -> tuple:
    """One ``row_type`` row per grid cell and label of ``labels(cell)``.

    ``worker((config, cell_idx, rep))`` scores one replicate: a 0/1 per label
    of its cell, or None when a fit failed.  A row counts the replicates that
    scored 1 for its label among those that did not fail."""
    rows = []
    for cell_idx, cell in enumerate(config.grid):
        tasks = [(config, cell_idx, rep) for rep in range(config.reps)]
        scores = [s for s in _map_tasks(worker, tasks, threads) if s is not None]
        n_ok = len(scores)
        for j, label in enumerate(labels(cell)):
            count = sum(s[j] for s in scores)
            share = count / n_ok if n_ok else math.nan
            rows.append(row_type(dict(cell), label, count, n_ok, config.reps - n_ok,
                                 share, _half_width(share, n_ok)))
    return tuple(rows)


# SelectionRow and CoverageRow share one field layout, which `_tally` builds
# and `_write_rows_csv` reads by position: the true cell, the row's label,
# its count, the replicate tallies, the share of n_ok and its half width.

@dataclass(frozen=True)
class SelectionRow:
    cell: dict
    rule_kind: str
    favored_count: int
    n_ok: int
    n_failed: int
    proportion: float
    ci_half_width: float


@dataclass(frozen=True)
class SelectionResult:
    rows: tuple[SelectionRow, ...]
    config: ExperimentConfig
    runtime_s: float


def run_selection_experiment(
    config: ExperimentConfig, threads: int = 1
) -> SelectionResult:
    """For each grid cell, the proportion of replicates in which each
    candidate rule attains the strictly lowest AICc (ties to fewer
    parameters, then declaration order)."""
    if not config.candidates:
        raise ValueError("selection experiments need candidate rules")
    t0 = time.perf_counter()
    kinds = [rule.kind for rule in config.candidates]
    rows = _tally(config, _selection_replicate, lambda cell: kinds, SelectionRow, threads)
    return SelectionResult(rows, config, time.perf_counter() - t0)


@dataclass(frozen=True)
class CoverageRow:
    cell: dict
    param_name: str
    contained_count: int
    n_ok: int
    n_failed: int
    coverage: float
    ci_half_width: float


@dataclass(frozen=True)
class CoverageResult:
    rows: tuple[CoverageRow, ...]
    skipped: tuple[dict, ...]  # non-identified (cell, param) records
    config: ExperimentConfig
    runtime_s: float


def run_coverage_experiment(
    config: ExperimentConfig, threads: int = 1
) -> CoverageResult:
    """Fraction of replicates whose profile CI contains the generating value,
    per grid cell and identified parameter.

    In cells where the true size parameter is 0 the remaining parameters are
    non-identified: they get no row and are listed in ``skipped`` instead.
    """
    if config.candidates and config.true_rule.kind not in {
        r.kind for r in config.candidates
    }:
        raise ValueError("coverage experiments require the true rule among candidates")
    t0 = time.perf_counter()
    rule = config.true_rule
    skipped = tuple(
        {"cell": dict(cell), "param": name,
         "reason": f"non-identified when {rule.size_param} = 0"}
        for cell in config.grid
        for name in rule.param_names
        if name not in _identified(rule, cell)[1]
    )
    rows = _tally(config, _coverage_replicate, lambda cell: _identified(rule, cell)[1],
                  CoverageRow, threads)
    return CoverageResult(rows, skipped, config, time.perf_counter() - t0)


@dataclass(frozen=True)
class CalibrationResult:
    """Bootstrap-calibrated interval next to its asymptotic counterpart."""

    param_index: int
    param_name: str
    unadjusted: ProfileCI
    adjusted: ProfileCI
    cutoff: float
    lr_stats: tuple[float, ...]
    reps: int
    n_failed: int

    def report_dict(self) -> dict:
        return {
            "param": self.param_name,
            "cutoff_default": DEFAULT_CUTOFF,
            "cutoff_adjusted": float(self.cutoff),
            "unadjusted": self.unadjusted.report_dict(),
            "adjusted": self.adjusted.report_dict(),
            "bootstrap_reps": self.reps,
            "bootstrap_failures": self.n_failed,
        }


def calibrated_cutoff(lr_stats: Sequence[float]) -> float:
    """Half the 95th percentile of bootstrap LR statistics, floored at the
    asymptotic cutoff so calibration can only widen intervals."""
    if len(lr_stats) == 0:
        raise ValueError("no LR statistics to calibrate from")
    q95 = float(np.quantile(np.asarray(lr_stats, dtype=float), 0.95))
    return max(DEFAULT_CUTOFF, 0.5 * q95)


def calibrate_ci(
    fit: FitResult,
    param_index: int,
    reps: int = 200,
    seed: int = 0,
    profile_config: ProfileConfig | None = None,
    fit_config: FitConfig | None = None,
    max_failure_frac: float = 0.2,
) -> CalibrationResult:
    """Parametric-bootstrap calibration of one parameter's profile CI.

    Simulates ``reps`` datasets on the fitted network at the fitted MLE,
    refits each, and records the likelihood-ratio statistic of the
    generating parameter value.  The adjusted cutoff is half the 95th
    percentile of those statistics (never below the asymptotic 1.92), and
    the adjusted interval is forced to contain the unadjusted one.

    Raises `CalibrationError` when more than ``max_failure_frac`` of the
    bootstrap replicates fail to fit.
    """
    rule = fit.rule
    if rule.n_params == 0:
        raise ValueError("cannot calibrate the asocial rule (no parameters)")
    if not 0 <= param_index < rule.n_params:
        raise ValueError(f"param_index {param_index} out of range")
    if reps < 20:
        raise ValueError("calibration needs at least 20 bootstrap replicates")
    prof_cfg = profile_config or ProfileConfig()
    base_fit_cfg = fit_config or fit.config or FitConfig()
    gen_value = float(fit.mle[param_index])

    lr_stats: list[float] = []
    n_failed = 0
    for rep in range(reps):
        try:
            data, _ = simulate_diffusion(
                fit.data.network,
                rule,
                fit.mle,
                seed=np.random.SeedSequence([seed, rep, 0]),
                stop_after=fit.table.n_events,
            )
            table = build_event_table(data)
            rep_cfg = replace(base_fit_cfg, seed=_derived_seed_int(seed, rep, 1))
            rep_fit = fit_oada(table, rule, rep_cfg)
            pnll = profile_nll(
                table, rule, param_index, gen_value, fit=rep_fit, config=prof_cfg
            )
            lr = 2.0 * (pnll - rep_fit.nll)
        except FIT_ERRORS:
            n_failed += 1
            continue
        if not math.isfinite(lr):
            n_failed += 1
            continue
        lr_stats.append(max(lr, 0.0))
    if n_failed > max_failure_frac * reps:
        raise CalibrationError(
            f"{n_failed}/{reps} bootstrap replicates failed to fit; "
            "the model may be unstable at the fitted parameters"
        )

    cutoff = calibrated_cutoff(lr_stats)
    unadjusted = profile_ci(fit, param_index, config=prof_cfg)
    adjusted = profile_ci(fit, param_index, cutoff=cutoff, config=prof_cfg)
    # containment guarantee: bisection noise must never shrink the interval
    merged_lower = min(adjusted.lower, unadjusted.lower)
    merged_upper = max(adjusted.upper, unadjusted.upper)
    adjusted = replace(
        adjusted,
        lower=merged_lower,
        upper=merged_upper,
        lower_open=adjusted.lower_open or unadjusted.lower_open,
        upper_open=adjusted.upper_open or unadjusted.upper_open,
    )
    return CalibrationResult(
        param_index=param_index,
        param_name=rule.param_names[param_index],
        unadjusted=unadjusted,
        adjusted=adjusted,
        cutoff=cutoff,
        lr_stats=tuple(lr_stats),
        reps=reps,
        n_failed=n_failed,
    )


# --- tabular output ---

def _write_rows_csv(path: str, rows, columns: Sequence[str]) -> None:
    """One line per result row: the true cell values, then the row's label,
    count and share (named by ``columns``) around the replicate tallies."""
    label, count, share = columns
    cell_cols = list(dict.fromkeys(name for row in rows for name in row.cell))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"true_{c}" for c in cell_cols]
            + [label, count, "n_ok", "n_failed", share, "ci_half_width"]
        )
        for row in rows:
            cell, label_value, count_value, n_ok, n_failed, share_value, half = astuple(row)
            writer.writerow(
                [repr(float(cell[c])) for c in cell_cols]
                + [label_value, count_value, n_ok, n_failed,
                   repr(float(share_value)), repr(float(half))]
            )


def write_selection_csv(result: SelectionResult, path: str) -> None:
    _write_rows_csv(path, result.rows, ("rule", "favored_count", "proportion"))


def write_coverage_csv(result: CoverageResult, path: str) -> None:
    _write_rows_csv(path, result.rows, ("param", "contained_count", "coverage"))


def _rule_settings(rule: TransmissionRule) -> dict:
    """A rule's constants and box, with infinite bounds written as strings."""
    settings = {"kind": rule.kind, "param_names": list(rule.param_names),
                "fixed": {k: float(v) for k, v in rule.fixed.items()}}
    for side, bounds in (("lower", rule.lower), ("upper", rule.upper)):
        settings[side] = [float(v) if math.isfinite(v) else repr(float(v)) for v in bounds]
    return settings


def run_manifest(
    config: ExperimentConfig,
    kind: str,
    runtime_s: float,
    threads: int = 1,
    include_timestamp: bool = True,
    extra: Mapping | None = None,
) -> dict:
    """Reproducibility record written alongside experiment tables.

    ``include_timestamp=False`` also leaves out ``runtime_s``, so that reruns
    write identical bytes.
    """
    import scipy

    manifest = {
        "kind": kind,
        "base_seed": config.base_seed,
        "reps": config.reps,
        "cells": [dict(c) for c in config.grid],
        "true_rule": config.true_rule.kind,
        "candidates": [r.kind for r in config.candidates],
        "rule_settings": {
            "true_rule": _rule_settings(config.true_rule),
            "candidates": [_rule_settings(r) for r in config.candidates],
        },
        "generator": {
            "n": config.generator.n,
            "sparsity_threshold": config.generator.sparsity_threshold,
            "multiplier_max": config.generator.multiplier_max,
        },
        "fit": {
            "restarts": config.fit.restarts,
            "tolerance": config.fit.tolerance,
            "max_evals": config.fit.max_evals,
        },
        "profile": {
            "cutoff": config.profile.cutoff,
            "rel_tol": config.profile.rel_tol,
            "inner_restarts": config.profile.inner_restarts,
            "inner_max_evals": config.profile.inner_max_evals,
        },
        "threads": threads,
        "versions": {
            "contagionfit": _pkg_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if include_timestamp:
        manifest["runtime_s"] = round(runtime_s, 3)
        manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    if extra:
        manifest.update(dict(extra))
    return manifest
