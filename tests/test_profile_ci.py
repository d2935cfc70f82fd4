import functools
import gc
import importlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import contagionfit
from contagionfit import (
    DEFAULT_CUTOFF,
    DiffusionData,
    FitConfig,
    GeneratorConfig,
    ProfileConfig,
    build_event_table,
    fit_oada,
    frequency_dependent_rule,
    generate_network,
    negative_log_likelihood,
    profile_ci,
    profile_interval,
    profile_nll,
    simple_rule,
    simulate_diffusion,
    threshold_rule,
)
from contagionfit import oada
from contagionfit.profile_ci import FIRST_OFFSET_FLOOR, FIRST_OFFSET_FRAC

profile_ci_module = importlib.import_module("contagionfit.profile_ci")

QUAD_ENDPOINT_TOL = 1e-3
ENDPOINT_TARGET_RTOL = 2e-4
# slack on a dense-grid profile value at an interval endpoint
DENSE_PROFILE_TOL = 0.02
# how far the inner search may sit above the dense-grid minimum
INNER_SEARCH_TOL = 1e-6


def quad_pnll(m, h):
    """Exact quadratic profile: 0.5 * h * (x - m)^2 above the minimum."""
    return lambda x: 0.5 * h * (x - m) ** 2


def quad_endpoints(m, h, cutoff=DEFAULT_CUTOFF):
    half = math.sqrt(2.0 * cutoff / h)
    return m - half, m + half


# ------------------------------------------------------------- quadratics

def test_quadratic_interval_endpoints():
    for m, h in [(3.0, 2.0), (-1.5, 0.7), (100.0, 25.0)]:
        ci = profile_interval(quad_pnll(m, h), m, 0.0)
        lo, hi = quad_endpoints(m, h)
        assert ci.lower == pytest.approx(lo, abs=QUAD_ENDPOINT_TOL * max(1, abs(lo)))
        assert ci.upper == pytest.approx(hi, abs=QUAD_ENDPOINT_TOL * max(1, abs(hi)))
        assert not ci.lower_open and not ci.upper_open
        assert not ci.at_lower_bound and not ci.at_upper_bound


@pytest.mark.parametrize("rel_tol", [1e-15, 1e-20])
def test_quadratic_endpoints_at_a_tolerance_below_float_precision(rel_tol):
    # below four machine epsilons the root tolerance's relative part stops at
    # that floor (ROOT_MIN_RTOL), and each endpoint lands within an ulp of the
    # root 1 -+ sqrt(1.92)
    ci = profile_interval(quad_pnll(1.0, 2.0), 1.0, 0.0, config=ProfileConfig(rel_tol=rel_tol))
    assert (ci.lower, ci.upper) == (-0.3856406460551018, 2.385640646055102)
    assert len(ci.profile_points) == 18


def test_quadratic_custom_cutoff_nesting():
    m, h = 2.0, 1.3
    narrow = profile_interval(quad_pnll(m, h), m, 0.0, cutoff=1.0)
    default = profile_interval(quad_pnll(m, h), m, 0.0)
    wide = profile_interval(quad_pnll(m, h), m, 0.0, cutoff=3.0)
    assert narrow.cutoff == 1.0
    assert default.cutoff == DEFAULT_CUTOFF
    assert wide.lower < default.lower < narrow.lower < m
    assert m < narrow.upper < default.upper < wide.upper


def test_quadratic_endpoint_hits_target_level():
    m, h = 5.0, 0.9
    pnll = quad_pnll(m, h)
    ci = profile_interval(pnll, m, 0.0)
    for endpoint in (ci.lower, ci.upper):
        assert pnll(endpoint) == pytest.approx(DEFAULT_CUTOFF, rel=ENDPOINT_TARGET_RTOL)


def test_quadratic_nonzero_minimum_level():
    # the cutoff is measured relative to the minimum NLL, not zero
    m, h, base = 1.0, 2.0, 57.0
    ci = profile_interval(lambda x: base + quad_pnll(m, h)(x), m, base)
    lo, hi = quad_endpoints(m, h)
    assert ci.lower == pytest.approx(lo, abs=QUAD_ENDPOINT_TOL)
    assert ci.upper == pytest.approx(hi, abs=QUAD_ENDPOINT_TOL)


def test_interval_truncates_at_box_bound():
    # minimum close to the lower box bound: the crossing lies outside
    m, h = 0.5, 2.0
    ci = profile_interval(quad_pnll(m, h), m, 0.0, lower_bound=0.0)
    assert ci.lower == 0.0
    assert ci.at_lower_bound
    assert not ci.lower_open
    assert ci.contains(0.0)
    # upper side unaffected
    assert ci.upper == pytest.approx(quad_endpoints(m, h)[1], abs=QUAD_ENDPOINT_TOL)


def test_interval_open_when_profile_flattens():
    # profile rises then flattens below the cutoff: no upper crossing
    def flat_above(x):
        return min(quad_pnll(0.0, 2.0)(x), 1.5) if x >= 0 else quad_pnll(0.0, 2.0)(x)

    ci = profile_interval(flat_above, 0.0, 0.0)
    assert ci.upper_open
    assert math.isinf(ci.upper) or ci.upper > 1e5
    assert ci.contains(1e300)
    # the bounded side still closes normally
    assert not ci.lower_open


def test_contains_semantics():
    ci = profile_interval(quad_pnll(0.0, 2.0), 0.0, 0.0)
    assert ci.contains(0.0)
    assert ci.contains(ci.lower) and ci.contains(ci.upper)
    assert not ci.contains(ci.upper + 1.0)
    assert not ci.contains(ci.lower - 1.0)


def test_lower_nll_than_fit_is_reported():
    # the claimed optimum 0.5 is not the profile's minimum, which sits at 1.0
    pnll = quad_pnll(1.0, 2.0)
    ci = profile_interval(pnll, 0.5, pnll(0.5))
    assert any("lower NLL than the fit" in d for d in ci.diagnostics)
    assert profile_interval(pnll, 1.0, 0.0).diagnostics == ()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_profile_counts_as_outside(bad):
    # quadratic up to x = 1, inside the cutoff there, and nan or inf past it:
    # the upper endpoint is the edge of the finite part.  Every pin is
    # evaluated once; the root search reuses its bracket's values.
    def tail(value):
        return lambda x: quad_pnll(0.0, 2.0)(x) if x <= 1.0 else value

    ci = profile_interval(tail(bad), 0.0, 0.0)
    assert not ci.upper_open
    assert ci.upper == pytest.approx(1.0, abs=QUAD_ENDPOINT_TOL)
    assert ci.lower == pytest.approx(quad_endpoints(0.0, 2.0)[0], abs=QUAD_ENDPOINT_TOL)
    pins = [x for x, _ in ci.profile_points]
    assert len(set(pins)) == len(pins)
    # nan is recorded as +inf, so it ends the bracket scan as +inf does and
    # both tails evaluate the same pins
    assert ci.profile_points == profile_interval(tail(math.inf), 0.0, 0.0).profile_points


def test_second_exit_after_a_reentry_gives_the_outermost_crossing():
    # the step profile leaves the region at 1, comes back in on [1.5, 3] and
    # leaves again at 3: the lookahead pin finds the re-entry, and the
    # crossing is found again where the search leaves the region the second time
    def steps(x):
        return 0.0 if x <= 1.0 or 1.5 <= x <= 3.0 else 5.0

    cfg = ProfileConfig()
    ci = profile_interval(steps, 0.0, 0.0, lower_bound=-10.0, config=cfg)
    assert abs(ci.upper - 3.0) <= cfg.rel_tol / 4 * (1 + 3.0)
    assert not ci.upper_open and not ci.at_upper_bound
    assert "non-monotone profile on the upper side; outermost crossing used" in ci.diagnostics
    assert ci.lower == -10.0 and ci.at_lower_bound and not ci.lower_open


def test_mle_always_inside():
    for m, h in [(0.0, 5.0), (42.0, 0.01)]:
        ci = profile_interval(quad_pnll(m, h), m, 0.0)
        assert ci.contains(m)
        assert ci.lower < m < ci.upper


# --------------------------------------------------- fitted-model profiles

@pytest.fixture(scope="module")
def freqdep_fit():
    net = generate_network(GeneratorConfig(n=100, seed=31))
    data, _ = simulate_diffusion(
        net, frequency_dependent_rule(), [30.0, 4.0], seed=1031
    )
    return fit_oada(data, frequency_dependent_rule())


def test_profile_nll_at_mle_matches_fit(freqdep_fit):
    fit = freqdep_fit
    for idx in (0, 1):
        pinned = profile_nll(fit.table, fit.rule, idx, float(fit.mle[idx]), fit=fit)
        # profiling at the MLE re-minimizes the free parameter: same optimum
        assert pinned == pytest.approx(fit.nll, abs=1e-6)


def test_profile_nll_rises_away_from_mle(freqdep_fit):
    fit = freqdep_fit
    f_hat = float(fit.mle[1])
    for value in (f_hat * 0.5, f_hat * 2.0):
        assert profile_nll(fit.table, fit.rule, 1, value, fit=fit) > fit.nll


def test_profile_nll_validates_pin(freqdep_fit):
    fit = freqdep_fit
    with pytest.raises(ValueError, match="outside bounds"):
        profile_nll(fit.table, fit.rule, 0, -1.0, fit=fit)
    with pytest.raises(ValueError, match="out of range"):
        profile_nll(fit.table, fit.rule, 5, 1.0, fit=fit)


def test_profile_nll_without_a_fit_takes_the_rules_box(freqdep_fit):
    # with no fit, the box and the start are the rule's own: a pin of the
    # one simple parameter is the NLL there, and f has the rule's f_lower
    table, rule = freqdep_fit.table, simple_rule()
    for value in (0.0, 0.7, 30.0):
        assert profile_nll(table, rule, 0, value) == negative_log_likelihood(rule, [value], table)
    with pytest.raises(ValueError, match=r"outside bounds \[0\.2, inf\] for f"):
        profile_nll(table, frequency_dependent_rule(), 1, 0.1)


def test_profile_ci_on_fitted_model(freqdep_fit):
    fit = freqdep_fit
    ci_f = profile_ci(fit, 1)
    assert ci_f.param_name == "f"
    assert ci_f.contains(float(fit.mle[1]))
    assert ci_f.lower < fit.mle[1] < ci_f.upper
    # the endpoint profile values sit at nll_min + cutoff
    for endpoint in (ci_f.lower, ci_f.upper):
        pinned = profile_nll(fit.table, fit.rule, 1, endpoint, fit=fit)
        assert pinned == pytest.approx(fit.nll + DEFAULT_CUTOFF, abs=2e-3)


def test_first_pin_on_each_side_matches_profile_nll(freqdep_fit):
    # each side of the search starts from the MLE, as a lone profile_nll
    # does: the upper side inherits no warm start from the lower side
    fit = freqdep_fit
    for idx in (0, 1):
        ci = profile_ci(fit, idx)
        mle = float(fit.mle[idx])
        step = max(FIRST_OFFSET_FRAC * abs(mle), FIRST_OFFSET_FLOOR)
        pinned = dict(ci.profile_points)
        for value in (mle - step, mle + step):
            assert pinned[value] == profile_nll(fit.table, fit.rule, idx, value, fit=fit)


def test_profile_ci_matches_two_param_quadratic():
    # analytic check: on an exact quadratic in 2 params, the profile
    # curvature of x0 is the Schur complement h00 - h01^2 / h11
    h = np.array([[3.0, 0.8], [0.8, 1.5]])
    m = np.array([2.0, -1.0])

    def pnll(v):
        # exact inner minimization over x1 with x0 pinned at v
        x1 = m[1] - h[0, 1] * (v - m[0]) / h[1, 1]
        d = np.array([v, x1]) - m
        return 0.5 * float(d @ h @ d)

    h_eff = h[0, 0] - h[0, 1] ** 2 / h[1, 1]
    ci = profile_interval(pnll, m[0], 0.0)
    lo, hi = quad_endpoints(m[0], h_eff)
    assert ci.lower == pytest.approx(lo, abs=1e-4)
    assert ci.upper == pytest.approx(hi, abs=1e-4)


def test_profile_ci_open_upper_on_divergent_fit(toy_data):
    # the toy order is perfectly social: s runs away and the upper side
    # never crosses the cutoff
    fit = fit_oada(toy_data, simple_rule())
    ci = profile_ci(fit, 0)
    assert ci.upper_open
    assert not ci.lower_open
    assert ci.contains(1e12)


def test_profile_ci_lower_bound_truncation():
    # nearly-asocial data: the MLE is interior but tiny, and the interval
    # runs into the s >= 0 box bound before crossing the cutoff
    net = generate_network(GeneratorConfig(n=40, seed=83))
    data_order = np.random.default_rng(4).permutation(40)
    fit = fit_oada(DiffusionData(net, data_order), simple_rule())
    assert fit.boundary_flags == (False,)
    ci = profile_ci(fit, 0)
    assert ci.at_lower_bound
    assert ci.lower == 0.0
    assert not ci.lower_open
    assert ci.contains(0.0)


def test_profile_respects_fit_box(freqdep_fit):
    # refit inside a box that cuts through both intervals of the free fit
    free = freqdep_fit
    ci_s, ci_f = profile_ci(free, 0), profile_ci(free, 1)
    upper = (0.5 * (free.mle[0] + ci_s.upper), 0.5 * (free.mle[1] + ci_f.upper))
    fit = fit_oada(free.table, free.rule, FitConfig(upper=upper))
    for i in range(2):
        ci = profile_ci(fit, i)
        assert ci.upper <= upper[i]
        assert ci.at_upper_bound
        assert all(x <= upper[i] for x, _ in ci.profile_points)
    with pytest.raises(ValueError, match="outside bounds"):
        profile_nll(fit.table, fit.rule, 0, 1.01 * upper[0], fit=fit)


def test_profile_of_f_pins_zero_in_a_box_reaching_it():
    # under FitConfig(lower=(0, 0)) f = 0 is a valid pin, where -0 * inf
    # would be nan: the rate there is s/2 for mixed runs, s for saturated
    # runs and 0 without informed weight.  Recorded values; the endpoints
    # are also checked against the dense-grid profile.  The lower search
    # closes its endpoint from inside, and its lookahead pin is f = 0; the
    # test pins it with profile_nll as well.
    net = generate_network(GeneratorConfig(
        n=20, sparsity_threshold=0.5, multiplier_max=3.0, seed=18))
    data, _ = simulate_diffusion(net, frequency_dependent_rule(), [5.0, 1.0], seed=118)
    fit = fit_oada(data, frequency_dependent_rule(), FitConfig(lower=(0.0, 0.0)))
    assert profile_nll(fit.table, fit.rule, 1, 0.0, fit=fit) == pytest.approx(
        42.46695246281445, rel=1e-12)
    ci = profile_ci(fit, 1)
    assert (ci.lower, ci.upper) == pytest.approx(
        (0.10168162785603374, 47.71778482557004), rel=1e-12)
    for endpoint in (ci.lower, ci.upper):
        at_endpoint = dense_profile(fit.table, frequency_dependent_rule(f_lower=0.0), 1, endpoint)
        assert at_endpoint == pytest.approx(fit.nll + ci.cutoff, abs=DENSE_PROFILE_TOL)


def test_fit_and_profile_prepare_the_rule_once(freqdep_fit):
    # the parameter-free run pieces are built once per objective, not once
    # per NLL evaluation
    calls = []
    prepare = frequency_dependent_rule().prepare

    def counting(w, tot):
        calls.append(w.size)
        return prepare(w, tot)

    rule = replace(frequency_dependent_rule(), prepare=counting)
    fit = fit_oada(freqdep_fit.table, rule)
    assert len(calls) == 1 < fit.n_evals
    ci = profile_ci(fit, 1)
    assert len(calls) == 2 < len(ci.profile_points)


def test_profile_is_freed_when_its_interval_is_done(freqdep_fit):
    # the profile, with its objective and the event sums it caches, must be
    # freed when profile_ci returns, not at the next cyclic garbage
    # collection
    gc.collect()
    gc.disable()
    try:
        profile_ci(freqdep_fit, 0)
        left = [o for o in gc.get_objects() if isinstance(o, profile_ci_module._Profile)]
    finally:
        gc.enable()
    assert left == []


def test_profile_ci_rejects_bad_index(freqdep_fit):
    with pytest.raises(ValueError, match="out of range"):
        profile_ci(freqdep_fit, 2)


def test_profile_ci_asocial_rejected(toy_data):
    from contagionfit import asocial_rule

    fit = fit_oada(toy_data, asocial_rule())
    with pytest.raises(ValueError, match="no parameters"):
        profile_ci(fit, 0)


def test_profile_config_validation():
    with pytest.raises(ValueError):
        ProfileConfig(cutoff=0.0)
    with pytest.raises(ValueError):
        ProfileConfig(rel_tol=0.0)
    with pytest.raises(ValueError, match="inner_restarts"):
        ProfileConfig(inner_restarts=-1)
    with pytest.raises(ValueError, match="inner_max_evals"):
        ProfileConfig(inner_max_evals=9)


def test_report_dict_serializable(freqdep_fit):
    import json

    ci = profile_ci(freqdep_fit, 0)
    report = ci.report_dict()
    json.dumps(report)
    assert report["param"] == "s"
    assert report["cutoff"] == DEFAULT_CUTOFF


# ------------------------------------------ two-parameter nuisance search

def dense_profile(table, rule, index, value):
    """Profile NLL of a two-parameter rule by brute force: a dense log grid
    over the distance of the other parameter from its lower bound (1e-6 to
    1e6), then bounded Brent between the best grid point's neighbours."""
    other = 1 - index
    lo = rule.lower[other]

    def nll(z):
        p = [0.0, 0.0]
        p[index], p[other] = value, lo + math.exp(z)
        return negative_log_likelihood(rule, p, table)

    zs = np.linspace(math.log(1e-6), math.log(1e6), 241)
    fs = [nll(z) for z in zs]
    i = int(np.argmin(fs))
    res = minimize_scalar(nll, bounds=(zs[max(i - 1, 0)], zs[min(i + 1, zs.size - 1)]),
                          method="bounded", options={"xatol": 1e-9})
    return min(fs[i], float(res.fun))


def coverage_cell_fit(k):
    """Replicate k of the freqdep coverage cell (n = 100, s = 10, f = 3)."""
    rule = frequency_dependent_rule()
    net = generate_network(GeneratorConfig(
        n=100, sparsity_threshold=0.7, multiplier_max=3.0, seed=1000 + k))
    data, _ = simulate_diffusion(net, rule, [10.0, 3.0], seed=2000 + k)
    return fit_oada(data, rule)


@functools.lru_cache(maxsize=None)
def threshold_fit(k):
    """Threshold fit k of a seeded panel: network seed 500 + k (n = 60,
    sparsity 0.7, no row multiplier), simulation seed 900 + k, truth a = 1,
    c = 4.  The threshold rule has no gradient, so its pins polish on
    central differences and its profile slopes are differenced."""
    rule = threshold_rule()
    net = generate_network(GeneratorConfig(
        n=60, sparsity_threshold=0.7, multiplier_max=0.0, seed=500 + k))
    data, _ = simulate_diffusion(net, rule, [1.0, 4.0], seed=900 + k)
    return fit_oada(data, rule)


def test_fit_finds_the_far_basin_of_pair_1010():
    # the NLL has a basin near f = 3.35 (363.534) and a lower one at
    # f ~ 2e4 (362.691) that Nelder-Mead multistart missed
    assert coverage_cell_fit(10).nll <= 362.70


# evaluation counts do not depend on the hardware: on the coverage panel
# (k < 5) the gradient fits took 107-129 evaluations each, against 903-1019
# for Nelder-Mead, and the ten intervals 252 profile points in all with
# bracket and brentq endpoints, against 382 with bisection; the 15 sides
# that close inside the box took 167 of them.  The pins of those points
# took 3 966 evaluations with the Newton polish of the one-coordinate
# search, against 6 573 with bounded Brent.  The fits and intervals made
# 1 571 O(runs) passes (`oada._run_pieces`) in all, against 1 849 with
# bounded Brent and 7 103 when every evaluation made one.  Endpoints found
# on the profile's slope take 198 points, 113 of them on the closed sides;
# their pins take 3 135 evaluations, and fits and intervals 1 399 passes.
# A lookahead pin after a tangent that lands on the crossing adds one of
# each: 199 points, 114 on the closed sides, 3 152 evaluations, 1 400 passes
# (1 310 passes at the commit that stops later multistart starts in a known
# basin).  Pins of s that polish f on central differences rather than on
# exact derivatives along f take 3 573 evaluations and 1 129 passes, on the
# same 199 points
PANEL_EVALS_PER_FIT = 200
PANEL_PROFILE_POINTS = 300
PANEL_CLOSED_SIDE_POINTS = 125
PANEL_PIN_EVALS = 4500
PANEL_PIECES_PASSES = 2500


def test_coverage_panel_evaluation_counts(monkeypatch):
    passes = []
    run_pieces = oada._run_pieces
    monkeypatch.setattr(oada, "_run_pieces", lambda *args: passes.append(1) or run_pieces(*args))
    pin_evals = []
    minimize = profile_ci_module.minimize_multistart

    def counted(*args, **kwargs):
        result = minimize(*args, **kwargs)
        pin_evals.append(result.n_evals)
        return result

    monkeypatch.setattr(profile_ci_module, "minimize_multistart", counted)
    points = closed_side_points = 0
    for k in range(5):
        fit = coverage_cell_fit(k)
        assert fit.n_evals < PANEL_EVALS_PER_FIT, k
        for i in range(2):
            ci = profile_ci(fit, i)
            pins = [x for x, _ in ci.profile_points]
            assert len(set(pins)) == len(pins), (k, i)  # no pin evaluated twice
            points += len(pins)
            if not (ci.lower_open or ci.at_lower_bound):
                closed_side_points += sum(x < fit.mle[i] for x in pins)
            if not (ci.upper_open or ci.at_upper_bound):
                closed_side_points += sum(x > fit.mle[i] for x in pins)
    assert points < PANEL_PROFILE_POINTS
    assert closed_side_points <= PANEL_CLOSED_SIDE_POINTS
    assert sum(pin_evals) < PANEL_PIN_EVALS
    assert len(passes) < PANEL_PIECES_PASSES


# the slope a profile pin returns with its value, the NLL's derivative in
# the pinned parameter at the inner optimum (the envelope theorem), against
# central differences of profile_nll with steps of SLOPE_STEP times the pin;
# on the coverage panel they agreed within 7e-6 of max(1, |slope|)
SLOPE_STEP = 1e-4
SLOPE_TOL = 1e-4


def slope_pins():
    """(fit, index, pinned value): one pin on each side of each coverage
    panel MLE, and one threshold pin, whose slope is a central difference
    of the NLL at the inner optimum."""
    for k in range(5):
        fit = coverage_cell_fit(k)
        for i in range(2):
            for value in (0.7 * fit.mle[i], 1.3 * fit.mle[i]):
                yield fit, i, value
    fit = threshold_fit(0)
    yield fit, 1, 1.3 * fit.mle[1]


def test_pinned_slope_matches_central_differences_of_the_profile():
    for fit, i, value in slope_pins():
        lower, upper = fit.box
        profile = profile_ci_module._Profile(fit.table, fit.rule, i, lower, upper,
                                             fit.mle, value, ProfileConfig())
        pinned, slope = profile.value_and_slope(value)
        assert pinned == profile_nll(fit.table, fit.rule, i, value, fit=fit)
        h = SLOPE_STEP * value
        central = (profile_nll(fit.table, fit.rule, i, value + h, fit=fit)
                   - profile_nll(fit.table, fit.rule, i, value - h, fit=fit)) / (2 * h)
        assert slope == pytest.approx(central, rel=SLOPE_TOL, abs=SLOPE_TOL), \
            (fit.rule.kind, i, value)


@pytest.mark.parametrize("k, index", [
    (2, 1),  # the lower f bracket reaches f's bound, where the inner optimum has s ~ 0
    (3, 0),  # at small pinned s the profile over f falls towards f -> infinity
])
def test_lower_endpoint_sits_on_dense_profile(k, index):
    fit = coverage_cell_fit(k)
    ci = profile_ci(fit, index)
    assert not (ci.lower_open or ci.at_lower_bound)
    at_endpoint = dense_profile(fit.table, fit.rule, index, ci.lower)
    assert at_endpoint == pytest.approx(fit.nll + ci.cutoff, abs=DENSE_PROFILE_TOL)


# closed sides of the threshold panel that end short of the dense
# profile's crossing: the pins' one-coordinate scan misses a far basin of
# the nuisance a that the dense grid finds, because the fit's a ran off
# towards 0 (k = 6, 16, 17) or the basin is a dip narrower than the scan
# spacing (k = 3).  See the FOUND entries on the nuisance search in
# CHANGES.md.
THRESHOLD_SHORT_SIDES = {(3, 1, "upper"), (6, 1, "lower"), (16, 1, "lower"), (17, 1, "upper")}


def test_threshold_profile_endpoints_sit_on_dense_profile():
    rule = threshold_rule()
    for k in range(20):
        fit = threshold_fit(k)
        for i in range(2):
            ci = profile_ci(fit, i)
            target = fit.nll + ci.cutoff
            for side, end, is_open, at_bound in (
                    ("lower", ci.lower, ci.lower_open, ci.at_lower_bound),
                    ("upper", ci.upper, ci.upper_open, ci.at_upper_bound)):
                if is_open:
                    far = dense_profile(fit.table, rule, i, 1e3 * fit.mle[i])
                    assert far < target, (k, i, side)
                elif not at_bound:
                    gap = dense_profile(fit.table, rule, i, end) - target
                    if (k, i, side) in THRESHOLD_SHORT_SIDES:
                        assert gap < -DENSE_PROFILE_TOL, (k, i, side)
                    else:
                        assert abs(gap) <= DENSE_PROFILE_TOL, (k, i, side, gap)


def test_lookahead_pin_follows_a_tangent_that_lands_on_the_crossing():
    # on the lower a side of threshold fit 4 a tangent step lands on a
    # crossing at a = 1.957 from inside; the profile comes back into the
    # region towards a = 0, where the dense grid reads 1.756 above the
    # minimum, and the lookahead pin after that exit reaches the bound
    fit = threshold_fit(4)
    ci = profile_ci(fit, 0)
    assert ci.lower == 0.0 and ci.at_lower_bound
    assert "non-monotone profile on the lower side; outermost crossing used" in ci.diagnostics
    assert dense_profile(fit.table, fit.rule, 0, 0.0) < fit.nll + ci.cutoff


@st.composite
def freqdep_fits(draw):
    """A freqdep fit to a diffusion drawn like the coverage cell's, at n = 60
    to 100.  On much smaller networks (n <= 40) the profile over the
    nuisance can have dips narrower than the scan spacing, or the MLE runs
    away onto a plateau; there neither the scan nor Nelder-Mead multistart
    finds the global minimum every time (see the FOUND entry on the
    one-coordinate scan, `fit._scan_and_polish`, in CHANGES.md)."""
    n = draw(st.integers(60, 100))
    net = generate_network(GeneratorConfig(
        n=n, sparsity_threshold=0.7, multiplier_max=3.0, seed=draw(st.integers(0, 2**32 - 1))))
    rule = frequency_dependent_rule()
    params = [draw(st.floats(2.0, 30.0)), draw(st.floats(1.0, 5.0))]
    data, _ = simulate_diffusion(net, rule, params, seed=draw(st.integers(0, 2**32 - 1)))
    return fit_oada(data, rule, FitConfig(restarts=2))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(freqdep_fits(), st.sampled_from([0, 1]), st.floats(-2.0, 2.0))
def test_nuisance_search_reaches_dense_grid_minimum(fit, index, log_ratio):
    # pins spread over e^-2 to e^2 times the MLE's distance from the bound
    lo = fit.rule.lower[index]
    value = lo + (fit.mle[index] - lo) * math.exp(log_ratio)
    got = profile_nll(fit.table, fit.rule, index, value, fit=fit)
    assert got <= dense_profile(fit.table, fit.rule, index, value) + INNER_SEARCH_TOL


# ------------------------------------------ the benchmark's traced run

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_profile_counts_one_inner_fit_per_point(freqdep_fit, monkeypatch):
    # bench/tracing.py wraps the names the traced run relies on, among them
    # profile_ci.minimize_multistart, and raises if one is missing; every
    # profile point must be one call of that minimizer
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        ci = contagionfit.profile_ci(freqdep_fit, 1)
    finally:
        tracer.uninstall()
    assert tracer.counts["profile_ci.points"] == len(ci.profile_points) > 0
    assert tracer.counts["profile_ci.inner_fits"] == tracer.counts["profile_ci.points"]
