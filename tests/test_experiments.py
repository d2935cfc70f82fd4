import json
import math
from pathlib import Path

import numpy as np
import pytest

import contagionfit.experiments as exp_mod
from contagionfit import (
    CalibrationError,
    DEFAULT_CUTOFF,
    DiffusionData,
    ExperimentConfig,
    FitConfig,
    GeneratorConfig,
    ProfileConfig,
    asocial_rule,
    build_event_table,
    calibrate_ci,
    expand_grid,
    fit_oada,
    frequency_dependent_rule,
    generate_network,
    load_network_csv,
    load_order_file,
    run_coverage_experiment,
    run_manifest,
    run_selection_experiment,
    simple_rule,
    simulate_diffusion,
    threshold_rule,
    write_coverage_csv,
    write_selection_csv,
)
from contagionfit.experiments import calibrated_cutoff

CHI2_CUTOFF_TOL = 0.15
DEMO_DATA = Path(__file__).resolve().parents[1] / "docs" / "experiment-specs" / "data"


# -------------------------------------------------------------- expand_grid

def test_expand_grid_order_and_values():
    cells = expand_grid(frequency_dependent_rule(), {"s": [1.0, 2.0], "f": [3.0, 4.0]})
    assert cells == [
        {"s": 1.0, "f": 3.0},
        {"s": 1.0, "f": 4.0},
        {"s": 2.0, "f": 3.0},
        {"s": 2.0, "f": 4.0},
    ]


def test_expand_grid_collapses_null_cells():
    cells = expand_grid(frequency_dependent_rule(), {"s": [0.0, 5.0], "f": [1.0, 3.0]})
    # s = 0 makes f non-identified, so only one null cell survives
    null_cells = [c for c in cells if c["s"] == 0.0]
    assert len(null_cells) == 1
    assert {"s": 5.0, "f": 1.0} in cells and {"s": 5.0, "f": 3.0} in cells
    assert len(cells) == 3


def test_expand_grid_validates_axes():
    with pytest.raises(ValueError, match="not a parameter"):
        expand_grid(simple_rule(), {"s": [1.0], "zz": [2.0]})
    with pytest.raises(ValueError, match="missing axis"):
        expand_grid(frequency_dependent_rule(), {"s": [1.0]})


# ----------------------------------------------------------- config checks

def test_experiment_config_validation():
    gen = GeneratorConfig(n=20)
    grid = [{"s": 1.0}]
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(gen, simple_rule(), grid, reps=0)
    with pytest.raises(ValueError, match="exactly"):
        ExperimentConfig(gen, simple_rule(), [{"q": 1.0}])
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig(
            gen, simple_rule(), grid, candidates=(simple_rule(), simple_rule())
        )
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(gen, simple_rule(), [])


# ------------------------------------------------------------ selection runs

def _mini_selection_config(reps=6, seed=0):
    return ExperimentConfig(
        generator=GeneratorConfig(n=20),
        true_rule=simple_rule(),
        grid=[{"s": 0.0}, {"s": 0.5}],
        candidates=(asocial_rule(), simple_rule()),
        reps=reps,
        base_seed=seed,
        fit=FitConfig(restarts=2),
    )


def test_selection_counts_and_reproducibility():
    cfg = _mini_selection_config()
    a = run_selection_experiment(cfg)
    b = run_selection_experiment(cfg)
    assert len(a.rows) == 4  # 2 cells x 2 candidates
    for ra, rb in zip(a.rows, b.rows):
        assert ra.cell == rb.cell
        assert ra.rule_kind == rb.rule_kind
        assert ra.favored_count == rb.favored_count
        assert ra.n_ok == rb.n_ok
    # per cell, every successful replicate crowned exactly one candidate
    for cell_val in (0.0, 0.5):
        cell_rows = [r for r in a.rows if r.cell == {"s": cell_val}]
        assert sum(r.favored_count for r in cell_rows) == cell_rows[0].n_ok


def test_selection_seed_changes_results():
    a = run_selection_experiment(_mini_selection_config(reps=12, seed=0))
    b = run_selection_experiment(_mini_selection_config(reps=12, seed=999))
    assert any(
        ra.favored_count != rb.favored_count for ra, rb in zip(a.rows, b.rows)
    )


def test_selection_threads_equivalent():
    cfg = _mini_selection_config(reps=4)
    serial = run_selection_experiment(cfg, threads=1)
    parallel = run_selection_experiment(cfg, threads=2)
    for rs, rp in zip(serial.rows, parallel.rows):
        assert rs.favored_count == rp.favored_count
        assert rs.n_ok == rp.n_ok


def test_selection_requires_candidates():
    cfg = _mini_selection_config()
    cfg.candidates = ()
    with pytest.raises(ValueError, match="candidate"):
        run_selection_experiment(cfg)


def test_selection_failure_accounting(monkeypatch):
    cfg = _mini_selection_config(reps=3)

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fit failure")

    monkeypatch.setattr(exp_mod, "fit_oada", boom)
    result = run_selection_experiment(cfg)
    for row in result.rows:
        assert row.n_failed == 3
        assert row.n_ok == 0
        assert math.isnan(row.proportion)


def test_bug_exceptions_propagate(monkeypatch, quick_fit):
    # a TypeError is a bug in the program, not an unlucky replicate
    def broken(*args, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(exp_mod, "fit_oada", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_selection_experiment(_mini_selection_config(reps=3))
    with pytest.raises(TypeError, match="synthetic bug"):
        calibrate_ci(quick_fit, 0, reps=20, seed=5)


def test_selection_csv_output(tmp_path):
    result = run_selection_experiment(_mini_selection_config(reps=3))
    path = tmp_path / "selection.csv"
    write_selection_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "true_s,rule,favored_count,n_ok,n_failed,proportion,ci_half_width"
    assert len(lines) == 5


# ------------------------------------------------------------ coverage runs

def _mini_coverage_config(reps=5):
    return ExperimentConfig(
        generator=GeneratorConfig(n=20),
        true_rule=frequency_dependent_rule(),
        grid=expand_grid(
            frequency_dependent_rule(), {"s": [0.0, 20.0], "f": [4.0]}
        ),
        reps=reps,
        base_seed=3,
        fit=FitConfig(restarts=2),
    )


def test_coverage_rows_and_skipped():
    result = run_coverage_experiment(_mini_coverage_config())
    # null cell contributes only its size parameter; f is skipped there
    assert len(result.skipped) == 1
    assert result.skipped[0]["param"] == "f"
    assert "non-identified" in result.skipped[0]["reason"]
    keys = {(tuple(sorted(r.cell.items())), r.param_name) for r in result.rows}
    assert (tuple(sorted({"s": 0.0, "f": 4.0}.items())), "s") in keys
    assert (tuple(sorted({"s": 20.0, "f": 4.0}.items())), "f") in keys
    for row in result.rows:
        assert 0 <= row.contained_count <= row.n_ok
        if row.n_ok:
            assert row.coverage == row.contained_count / row.n_ok


def test_coverage_reproducible():
    a = run_coverage_experiment(_mini_coverage_config())
    b = run_coverage_experiment(_mini_coverage_config())
    for ra, rb in zip(a.rows, b.rows):
        assert ra.contained_count == rb.contained_count


def test_coverage_threads_equivalent():
    cfg = _mini_coverage_config(reps=3)
    serial = run_coverage_experiment(cfg, threads=1)
    parallel = run_coverage_experiment(cfg, threads=2)
    assert serial.rows == parallel.rows
    assert serial.skipped == parallel.skipped


def test_coverage_failure_accounting(monkeypatch):
    cfg = _mini_coverage_config(reps=3)

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fit failure")

    monkeypatch.setattr(exp_mod, "fit_oada", boom)
    result = run_coverage_experiment(cfg)
    assert len(result.rows) == 3  # s in the null cell, s and f in the other
    for row in result.rows:
        assert row.n_failed == 3
        assert row.n_ok == 0
        assert math.isnan(row.coverage)


def test_coverage_csv_output(tmp_path):
    result = run_coverage_experiment(_mini_coverage_config(reps=3))
    path = tmp_path / "coverage.csv"
    write_coverage_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("true_s,true_f,param,")
    assert len(lines) == 1 + len(result.rows)


def test_coverage_requires_true_rule_among_candidates():
    cfg = _mini_coverage_config()
    cfg.candidates = (asocial_rule(),)
    with pytest.raises(ValueError, match="true rule"):
        run_coverage_experiment(cfg)


# ------------------------------------------------------------- calibration

def test_calibrated_cutoff_matches_chi2():
    # LR statistics that truly follow chi-square(1) should calibrate to
    # (about) the asymptotic cutoff
    rng = np.random.default_rng(8)
    stats = rng.chisquare(1.0, size=20000)
    cut = calibrated_cutoff(stats)
    assert cut == pytest.approx(DEFAULT_CUTOFF, abs=CHI2_CUTOFF_TOL)
    # inflated statistics raise it; deflated ones are floored
    assert calibrated_cutoff(2.5 * stats) > 2.0
    assert calibrated_cutoff(0.1 * stats) == DEFAULT_CUTOFF
    with pytest.raises(ValueError):
        calibrated_cutoff([])


@pytest.fixture(scope="module")
def quick_fit():
    net = generate_network(GeneratorConfig(n=25, seed=14))
    data, _ = simulate_diffusion(net, simple_rule(), [0.3], seed=15)
    return fit_oada(build_event_table(data), simple_rule(), FitConfig(restarts=3))


def test_calibrate_ci_basics(quick_fit):
    result = calibrate_ci(quick_fit, 0, reps=25, seed=5)
    assert result.cutoff >= DEFAULT_CUTOFF
    assert all(lr >= 0 for lr in result.lr_stats)
    assert len(result.lr_stats) + result.n_failed == 25
    # adjusted interval always contains the unadjusted one
    assert result.adjusted.lower <= result.unadjusted.lower
    assert result.adjusted.upper >= result.unadjusted.upper
    json.dumps(result.report_dict())


def test_calibrate_ci_stays_inside_fit_box():
    # the demo's unbounded interval for s is about [0.25, 9.26]
    net = load_network_csv(str(DEMO_DATA / "demo_network.csv"))
    data = DiffusionData(net, load_order_file(str(DEMO_DATA / "demo_order.txt")))
    fit = fit_oada(data, simple_rule(), FitConfig(restarts=3, upper=(2.0,)))
    result = calibrate_ci(fit, 0, reps=20, seed=5)
    assert result.unadjusted.upper <= 2.0
    assert result.adjusted.upper <= 2.0
    assert result.adjusted.at_upper_bound


def test_calibrate_ci_simulates_in_a_fit_box_wider_than_the_rule():
    # FitConfig(lower=(0, 0)) reaches past the rule's f >= 0.05, and the MLE
    # f = 3.7e-9 lies outside the rule's own box: the bootstrap simulates in
    # the fit's box rather than fail every replicate
    rule = frequency_dependent_rule(f_lower=0.05)
    net = generate_network(GeneratorConfig(n=30, seed=5))
    data, _ = simulate_diffusion(net, rule, [5.0, 0.1], seed=105)
    fit = fit_oada(data, rule, FitConfig(lower=(0.0, 0.0), restarts=2))
    assert fit.mle[1] < rule.lower[1]
    result = calibrate_ci(fit, 0, reps=20)
    assert result.n_failed == 0 and len(result.lr_stats) == 20


def test_calibrate_ci_reproducible(quick_fit):
    a = calibrate_ci(quick_fit, 0, reps=20, seed=5)
    b = calibrate_ci(quick_fit, 0, reps=20, seed=5)
    assert a.lr_stats == b.lr_stats
    assert a.cutoff == b.cutoff


def test_calibrate_ci_failure_threshold(quick_fit, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic refit failure")

    monkeypatch.setattr(exp_mod, "fit_oada", boom)
    with pytest.raises(CalibrationError, match="failed"):
        calibrate_ci(quick_fit, 0, reps=20, seed=5)


def test_calibrate_ci_validation(quick_fit):
    with pytest.raises(ValueError, match="out of range"):
        calibrate_ci(quick_fit, 3, reps=20)
    with pytest.raises(ValueError, match="at least 20"):
        calibrate_ci(quick_fit, 0, reps=5)


# ---------------------------------------------------------------- manifests

def test_run_manifest_contents():
    cfg = _mini_selection_config()
    manifest = run_manifest(cfg, "selection", runtime_s=1.234, threads=2)
    assert manifest["kind"] == "selection"
    assert manifest["reps"] == cfg.reps
    assert manifest["true_rule"] == "simple"
    assert manifest["candidates"] == ["asocial", "simple"]
    assert manifest["threads"] == 2
    assert "numpy" in manifest["versions"]
    assert "timestamp" in manifest
    json.dumps(manifest)


def test_run_manifest_records_rule_settings_and_profile():
    def manifest(sharpness, inner_restarts):
        rule = threshold_rule(sharpness=sharpness)
        cfg = ExperimentConfig(
            generator=GeneratorConfig(n=20),
            true_rule=rule,
            grid=[{"a": 1.0, "c": 0.0}],
            candidates=(asocial_rule(), rule),
            reps=2,
            profile=ProfileConfig(inner_restarts=inner_restarts),
        )
        return run_manifest(cfg, "selection", 0.0, include_timestamp=False)

    a, b = manifest(3.0, 2), manifest(5.0, 5)
    # the sharpness is a constant of the rule, not a grid parameter
    assert a["cells"] == b["cells"] and a["true_rule"] == b["true_rule"]
    assert a["rule_settings"]["true_rule"] == {
        "kind": "threshold", "param_names": ["a", "c"], "fixed": {"b": 3.0},
        "lower": [0.0, 0.0], "upper": ["inf", "inf"],
    }
    assert b["rule_settings"]["true_rule"]["fixed"] == {"b": 5.0}
    assert [r["kind"] for r in b["rule_settings"]["candidates"]] == ["asocial", "threshold"]
    assert b["rule_settings"]["candidates"][1]["fixed"] == {"b": 5.0}
    assert (a["profile"]["inner_restarts"], b["profile"]["inner_restarts"]) == (2, 5)
    assert a["profile"]["inner_max_evals"] == ProfileConfig().inner_max_evals
    json.dumps(b)


def test_run_manifest_timestamp_optional():
    cfg = _mini_selection_config()
    manifest = run_manifest(cfg, "coverage", 0.5, include_timestamp=False)
    assert "timestamp" not in manifest
    assert "runtime_s" not in manifest
