"""End-to-end acceptance checks for the whole pipeline.

Each test covers one numbered acceptance criterion and prints a single
``criterion NN: PASS/FAIL`` line with the measured quantities, so the
run log doubles as a scorecard.  Monte-Carlo scenarios use frozen seeds;
the expected proportions and their tolerance bands are listed next to
each scenario.  Runtime budgets are asserted alongside the numerics.
"""

import itertools
import math
import time

import numpy as np
import pytest

from contagionfit import (
    CalibrationError,
    DiffusionData,
    ExperimentConfig,
    FitConfig,
    GeneratorConfig,
    asocial_rule,
    build_event_table,
    calibrate_ci,
    expand_grid,
    fit_oada,
    frequency_dependent_rule,
    generate_network,
    negative_log_likelihood,
    profile_interval,
    proportional_rule,
    rate_threshold,
    run_coverage_experiment,
    run_selection_experiment,
    simple_rule,
    simulate_diffusion,
    threshold_rule,
)

pytestmark = pytest.mark.acceptance

AICC_TOL = 1e-3
REDUCTION_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
SATURATION_TOL = 1e-9
QUAD_ENDPOINT_TOL = 1e-3

# Null-model selection rates and coverage: expected value +- band half-width,
# bands sized for the frozen rep counts below.
ASOCIAL_NULL_BAND = (0.785, 0.865)  # 82.5% +- 4 pp at 500 reps
THRESHOLD_NULL_BAND = (0.811, 0.891)  # 85.1% +- 4 pp at 500 reps
F_COVERAGE_BAND = (0.885, 0.985)  # 93.5% +- 5 pp at 200 reps
S_COVERAGE_BAND = (0.766, 0.886)  # 82.6% +- 6 pp at 200 reps
SELF_COVERAGE_BAND = (0.92, 0.98)  # 95% +- 3 pp at 200 meta-replicates

BASE_SEED = 7
# Single-start fits for the null/power scenarios: restarts jitter the
# start point and inflate the win rate of rules with a scanned location
# parameter on null data, so the selection studies fit each candidate
# once from its default start.  Coverage keeps the multi-start default.
SINGLE_START = FitConfig(restarts=0)

BASE_GEN = GeneratorConfig(n=100, sparsity_threshold=0.7, multiplier_max=3.0)
NO_MULT_GEN = GeneratorConfig(n=100, sparsity_threshold=0.7, multiplier_max=0.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_asocial_closed_form():
    t0 = time.perf_counter()
    net = generate_network(GeneratorConfig(n=100, seed=1))
    data = DiffusionData(net, np.arange(100))
    fit = fit_oada(data, asocial_rule())
    elapsed = time.perf_counter() - t0
    nll_expected = math.lgamma(101)  # ln(100!)
    ok = (
        abs(fit.nll - nll_expected) <= AICC_TOL
        and abs(fit.aicc - 727.4788) <= AICC_TOL
        and elapsed < 1.0
    )
    _report(1, ok, f"nll {fit.nll:.6f} aicc {fit.aicc:.4f} ({elapsed:.2f}s)")


def test_criterion_02_freqdep_reduces_to_proportional():
    t0 = time.perf_counter()
    freqdep = frequency_dependent_rule()
    prop = proportional_rule()
    worst = 0.0
    for k in range(100):
        net = generate_network(GeneratorConfig(n=30, seed=k))
        data, _ = simulate_diffusion(net, prop, [2.0], seed=10_000 + k)
        table = build_event_table(data)
        for s in (0.5, 2.0, 10.0):
            diff = abs(
                negative_log_likelihood(freqdep, [s, 1.0], table)
                - negative_log_likelihood(prop, [s], table)
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= REDUCTION_TOL and elapsed < 10.0
    _report(2, ok, f"max |nll diff| {worst:.2e} over 100 datasets ({elapsed:.1f}s)")


def test_criterion_03_order_probabilities_sum_to_one():
    t0 = time.perf_counter()
    rules = [
        (asocial_rule(), []),
        (simple_rule(), [1.3]),
        (proportional_rule(), [2.0]),
        (frequency_dependent_rule(), [3.0, 2.5]),
        (threshold_rule(), [1.0, 4.0]),
    ]
    worst = 0.0
    for seed in range(20):
        net = generate_network(
            GeneratorConfig(n=5, sparsity_threshold=0.5, multiplier_max=2.0, seed=seed)
        )
        tables = [
            build_event_table(DiffusionData(net, np.array(perm)))
            for perm in itertools.permutations(range(5))
        ]
        for rule, params in rules:
            total = sum(
                math.exp(-negative_log_likelihood(rule, params, t)) for t in tables
            )
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= COMPLETENESS_TOL and elapsed < 30.0
    _report(3, ok, f"max |sum - 1| {worst:.2e} over 20 networks x 5 rules ({elapsed:.1f}s)")


def test_criterion_04_simulator_matches_likelihood():
    t0 = time.perf_counter()
    n_sims = 200_000
    net = generate_network(
        GeneratorConfig(n=5, sparsity_threshold=0.5, multiplier_max=2.0, seed=11)
    )
    rule = frequency_dependent_rule()
    params = [3.0, 2.0]
    perms = list(itertools.permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    probs = np.array(
        [
            math.exp(
                -negative_log_likelihood(
                    rule, params, build_event_table(DiffusionData(net, np.array(p)))
                )
            )
            for p in perms
        ]
    )
    counts = np.zeros(len(perms))
    rng = np.random.default_rng(2024)
    for _ in range(n_sims):
        data, _ = simulate_diffusion(net, rule, params, seed=rng)
        counts[index[tuple(data.order)]] += 1
    freq = counts / n_sims
    se = np.sqrt(probs * (1.0 - probs) / n_sims)
    within = np.abs(freq - probs) <= 3.0 * se
    frac = within.mean()
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 120.0
    _report(
        4,
        ok,
        f"{within.sum()}/{len(perms)} orders within 3 MC SE "
        f"({frac:.1%}, {n_sims} sims, {elapsed:.1f}s)",
    )


def test_criterion_05_threshold_closed_forms():
    a, c, b = 10.0, 4.0, 3.0
    eps = 1.0 / (1.0 + math.exp(b * a))

    def rate_at(total_informed: float) -> float:
        # one naive individual with a single informed neighbour of the
        # given weight: W_informed = total_informed
        conn = np.array([total_informed, 0.0])
        status = np.array([1, 0])
        return rate_threshold(a, c, conn, status, sharpness=b)

    at_zero = rate_at(0.0)
    midpoint = rate_at(a)
    midpoint_expected = (c / (1.0 - eps)) * (0.5 - eps)
    saturated = rate_at(a + 30.0 / b)
    ok = (
        at_zero == 0.0
        and abs(midpoint - midpoint_expected) <= 1e-12
        and abs(saturated - c) <= SATURATION_TOL
    )
    _report(
        5,
        ok,
        f"rate(0) {at_zero}  rate(a) err {abs(midpoint - midpoint_expected):.2e}  "
        f"saturation err {abs(saturated - c):.2e}",
    )


def test_criterion_06_asocial_favored_on_null_data():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        generator=BASE_GEN,
        true_rule=simple_rule(),
        grid=[{"s": 0.0}],
        candidates=(
            asocial_rule(),
            simple_rule(),
            proportional_rule(),
            frequency_dependent_rule(),
        ),
        reps=500,
        base_seed=BASE_SEED,
        fit=SINGLE_START,
    )
    res = run_selection_experiment(cfg)
    row = next(r for r in res.rows if r.rule_kind == "asocial")
    elapsed = time.perf_counter() - t0
    lo, hi = ASOCIAL_NULL_BAND
    ok = lo <= row.proportion <= hi and row.n_failed == 0 and elapsed < 900.0
    _report(
        6,
        ok,
        f"asocial favored {row.proportion:.3f} of {row.n_ok} "
        f"(band [{lo}, {hi}], {elapsed:.0f}s)",
    )


def test_criterion_07_asocial_favored_on_threshold_null():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        generator=NO_MULT_GEN,
        true_rule=threshold_rule(),
        grid=[{"a": 1.0, "c": 0.0}],
        candidates=(asocial_rule(), simple_rule(), threshold_rule()),
        reps=500,
        base_seed=BASE_SEED,
        fit=SINGLE_START,
    )
    res = run_selection_experiment(cfg)
    row = next(r for r in res.rows if r.rule_kind == "asocial")
    elapsed = time.perf_counter() - t0
    lo, hi = THRESHOLD_NULL_BAND
    ok = lo <= row.proportion <= hi and row.n_failed == 0 and elapsed < 1200.0
    _report(
        7,
        ok,
        f"asocial favored {row.proportion:.3f} of {row.n_ok} "
        f"(band [{lo}, {hi}], {elapsed:.0f}s)",
    )


def test_criterion_08_power_increases_with_effect_size():
    t0 = time.perf_counter()
    rule = frequency_dependent_rule()
    cfg = ExperimentConfig(
        generator=BASE_GEN,
        true_rule=rule,
        grid=expand_grid(rule, {"s": [0.0, 5.0, 10.0, 30.0], "f": [3.0]}),
        candidates=(
            asocial_rule(),
            simple_rule(),
            proportional_rule(),
            frequency_dependent_rule(),
        ),
        reps=200,
        base_seed=BASE_SEED,
        fit=SINGLE_START,
    )
    res = run_selection_experiment(cfg)
    rows = [r for r in res.rows if r.rule_kind == "freqdep"]
    rows.sort(key=lambda r: r.cell["s"])
    props = [r.proportion for r in rows]
    n = rows[0].n_ok
    monotone = True
    for p_prev, p_next in zip(props, props[1:]):
        noise = 2.0 * math.sqrt(
            p_prev * (1.0 - p_prev) / n + p_next * (1.0 - p_next) / n
        )
        if p_next < p_prev - noise:
            monotone = False
    elapsed = time.perf_counter() - t0
    ok = monotone and elapsed < 1800.0
    _report(
        8,
        ok,
        "freqdep favored " + " -> ".join(f"{p:.3f}" for p in props) + f" ({elapsed:.0f}s)",
    )


def test_criterion_09_coverage_direction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        generator=BASE_GEN,
        true_rule=frequency_dependent_rule(),
        grid=[{"s": 10.0, "f": 3.0}],
        reps=200,
        base_seed=BASE_SEED,
    )
    res = run_coverage_experiment(cfg)
    cov = {r.param_name: r.coverage for r in res.rows}
    elapsed = time.perf_counter() - t0
    f_lo, f_hi = F_COVERAGE_BAND
    s_lo, s_hi = S_COVERAGE_BAND
    f_ok = f_lo <= cov["f"] <= f_hi
    s_ok = cov["s"] < 0.90 and s_lo <= cov["s"] <= s_hi
    ok = f_ok and s_ok and elapsed < 1800.0
    _report(
        9,
        ok,
        f"coverage f {cov['f']:.3f} (band [{f_lo}, {f_hi}]), "
        f"s {cov['s']:.3f} (need < 0.90 and in [{s_lo}, {s_hi}]) ({elapsed:.0f}s)",
    )


def test_criterion_10_calibrated_interval_self_coverage():
    t0 = time.perf_counter()
    true_s = 1.0
    rule = simple_rule()
    meta = 200
    adj_hit = unadj_hit = widened_ok = n_ok = 0
    for child in np.random.SeedSequence(2026).spawn(meta):
        seeds = child.generate_state(4)
        net = generate_network(GeneratorConfig(n=25, seed=int(seeds[0])))
        data, _ = simulate_diffusion(net, rule, [true_s], seed=int(seeds[1]))
        fit = fit_oada(data, rule, FitConfig(restarts=4, seed=int(seeds[2])))
        try:
            cal = calibrate_ci(
                fit, 0, reps=80, seed=int(seeds[3]), fit_config=FitConfig(restarts=2)
            )
        except CalibrationError:
            continue
        n_ok += 1
        adj_hit += cal.adjusted.contains(true_s)
        unadj_hit += cal.unadjusted.contains(true_s)
        widened_ok += (
            cal.adjusted.lower <= cal.unadjusted.lower + 1e-9
            and cal.adjusted.upper >= cal.unadjusted.upper - 1e-9
        )
    coverage = adj_hit / n_ok
    elapsed = time.perf_counter() - t0
    lo, hi = SELF_COVERAGE_BAND
    ok = (
        lo <= coverage <= hi
        and widened_ok == n_ok
        and n_ok >= 0.9 * meta
        and elapsed < 1800.0
    )
    _report(
        10,
        ok,
        f"adjusted coverage {coverage:.3f} (band [{lo}, {hi}]), "
        f"unadjusted {unadj_hit / n_ok:.3f}, never narrower {widened_ok}/{n_ok} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_11_quadratic_profile_endpoints():
    h, m = 2.0, 3.0
    ci = profile_interval(
        lambda v: 0.5 * h * (v - m) ** 2,
        mle_value=m,
        nll_min=0.0,
        lower_bound=-math.inf,
        upper_bound=math.inf,
    )
    half = math.sqrt(2.0 * ci.cutoff / h)
    err = max(abs(ci.lower - (m - half)), abs(ci.upper - (m + half)))
    ok = err <= QUAD_ENDPOINT_TOL
    _report(11, ok, f"endpoint err {err:.2e} vs mle +- sqrt(2 * {ci.cutoff} / h)")
