import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagionfit import (
    DiffusionData,
    FitConfig,
    GeneratorConfig,
    Network,
    asocial_rule,
    generate_network,
    build_event_table,
    compare_models,
    custom_rule,
    fit_oada,
    frequency_dependent_rule,
    hessian_standard_errors,
    minimize_multistart,
    negative_log_likelihood,
    profile_nll,
    proportional_rule,
    simple_rule,
    simulate_diffusion,
    threshold_rule,
)
from contagionfit import fit as fit_module
from contagionfit import oada
from contagionfit.fit import BoxTransform, nll_objective

GRID_ARGMIN_TOL = 0.002     # two grid steps
GOLDEN_TOL = 1e-3
SE_ORACLE_RTOL = 1e-4
LN_120 = math.log(120.0)


# ------------------------------------------------------------ BoxTransform

def test_box_transform_round_trips():
    lower = [0.0, -np.inf, 0.2, -1.0]
    upper = [np.inf, np.inf, np.inf, 1.0]
    tr = BoxTransform(lower, upper)
    x = np.array([2.5, -3.0, 0.9, 0.25])
    assert np.allclose(tr.to_external(tr.to_internal(x)), x, atol=1e-9)
    z = np.array([0.3, -1.2, 2.0, -0.5])
    assert np.allclose(tr.to_internal(tr.to_external(z)), z, atol=1e-9)


def test_box_transform_respects_bounds():
    tr = BoxTransform([0.0, -1.0], [np.inf, 1.0])
    for z in ([-50.0, -50.0], [50.0, 50.0], [0.0, 0.0]):
        x = tr.to_external(np.array(z))
        assert x[0] >= 0.0
        assert -1.0 <= x[1] <= 1.0


def test_box_transform_nudge_inside():
    tr = BoxTransform([0.0, 0.0], [np.inf, 10.0])
    x = tr.nudge_inside(np.array([0.0, 10.0]))
    assert x[0] > 0.0
    assert x[1] < 10.0
    # interior points pass through untouched
    y = tr.nudge_inside(np.array([1.0, 5.0]))
    assert np.array_equal(y, [1.0, 5.0])


def test_box_transform_derivatives_match_differences():
    # first and second derivatives of to_external for all four bound kinds
    tr = BoxTransform([0.0, -np.inf, -np.inf, -1.0], [np.inf, 2.0, np.inf, 3.0])
    z, h = np.array([0.7, -0.4, 1.3, 0.9]), 1e-5
    first = (tr.to_external(z + h) - tr.to_external(z - h)) / (2 * h)
    second = (tr.dx_dz(z + h) - tr.dx_dz(z - h)) / (2 * h)
    assert np.allclose(tr.dx_dz(z), first, rtol=1e-8, atol=1e-10)
    assert np.allclose(tr.d2x_dz2(z), second, rtol=1e-8, atol=1e-10)


def test_box_transform_validates():
    with pytest.raises(ValueError):
        BoxTransform([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        BoxTransform([2.0], [1.0])


# -------------------------------------------------------------- optimizer

def _simple_dataset(seed, s=0.2, n=100):
    """Simple-rule diffusion on a generated network: interior 1-d MLE."""
    net = generate_network(GeneratorConfig(n=n, seed=seed))
    data, _ = simulate_diffusion(net, simple_rule(), [s], seed=seed + 1000)
    return build_event_table(data)


def _freqdep_dataset(seed, s=30.0, f=4.0, n=100):
    """Strong-conformity diffusion: both parameters identified."""
    net = generate_network(GeneratorConfig(n=n, seed=seed))
    data, _ = simulate_diffusion(net, frequency_dependent_rule(), [s, f], seed=seed + 1000)
    return build_event_table(data)


def test_fit_matches_dense_grid():
    table = _simple_dataset(seed=11)
    fit = fit_oada(table, simple_rule())
    grid = np.arange(0.001, 2.0, 0.001)
    obj = nll_objective(simple_rule(), table)
    vals = np.array([obj(np.array([g])) for g in grid])
    g_best = grid[vals.argmin()]
    assert fit.nll <= vals.min() + 1e-9
    assert abs(fit.mle[0] - g_best) <= GRID_ARGMIN_TOL


def test_fit_matches_golden_section():
    # independent 1-d minimizer on the same objective
    table = _simple_dataset(seed=23)
    obj = nll_objective(simple_rule(), table)

    def golden(lo, hi, iters=200):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = obj(np.array([c])), obj(np.array([d]))
        for _ in range(iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = obj(np.array([c]))
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = obj(np.array([d]))
        return (a + b) / 2.0

    oracle = golden(1e-6, 50.0)
    fit = fit_oada(table, simple_rule())
    assert fit.mle[0] == pytest.approx(oracle, abs=GOLDEN_TOL * max(1.0, oracle))
    assert fit.nll == pytest.approx(obj(np.array([oracle])), abs=1e-6)


def test_fit_asocial_closed_form(toy_data):
    fit = fit_oada(toy_data, asocial_rule())
    assert fit.nll == pytest.approx(LN_120, abs=1e-12)
    assert fit.aicc == pytest.approx(2 * LN_120, abs=1e-12)
    assert fit.k == 0
    assert fit.converged
    assert fit.n_evals == 1


def test_fit_reproducible():
    table = _freqdep_dataset(seed=31)
    rule = frequency_dependent_rule()
    a = fit_oada(table, rule, FitConfig(seed=4))
    b = fit_oada(table, rule, FitConfig(seed=4))
    assert np.array_equal(a.mle, b.mle)
    assert a.nll == b.nll
    assert a.n_evals == b.n_evals


def test_fit_recovers_from_bad_start():
    table = _simple_dataset(seed=47)
    good = fit_oada(table, simple_rule())
    bad = fit_oada(table, simple_rule(), FitConfig(start=(1e5,)))
    # multistart must not get stuck near the absurd start
    assert bad.nll == pytest.approx(good.nll, abs=1e-4)


def test_multistart_never_worse_than_start():
    # pathological objective that explodes away from a narrow valley
    def obj(x):
        return float((x[0] - 3.0) ** 2 + 0.001 * x[0] ** 4)

    res = minimize_multistart(obj, start=[50.0], lower=[0.0], upper=[np.inf], seed=1)
    assert res.fun <= obj(np.array([50.0])) + 1e-12


def test_multistart_keeps_start_when_no_run_is_finite():
    res = minimize_multistart(lambda x: math.inf, start=[2.0, 3.0], lower=[0.0, 0.0],
                              upper=[np.inf, np.inf], restarts=2, max_evals=100)
    assert res.fun == math.inf and not res.converged
    assert np.allclose(res.x, [2.0, 3.0])


def test_multistart_result_equality_is_a_bool():
    # == on results compares identity, not their arrays as a tuple, which
    # would raise "truth value of an array ... is ambiguous"
    runs = [minimize_multistart(lambda x: float((x[0] - 1.0) ** 2 + x[1] ** 2), start=[2.0, 3.0],
                                lower=[-5.0, -5.0], upper=[5.0, 5.0], restarts=0)
            for _ in range(2)]
    assert (runs[0] == runs[0]) is True
    assert (runs[0] == runs[1]) is False


def test_gradient_multistart_backs_off_where_the_objective_raises():
    # BFGS runs when the objective carries value_and_grad; past x0 = 4 the
    # objective raises, which the line search must treat as +inf
    m = np.array([3.0, 0.5])

    def objective(x):
        if x[0] > 4.0:
            raise ValueError("invalid rate")
        return float((x - m) @ (x - m))

    objective.value_and_grad = lambda x: (objective(x), 2.0 * (x - m))
    res = minimize_multistart(objective, start=[1.0, 1.0], lower=[0.0, 0.0],
                              upper=[np.inf, np.inf], seed=1)
    assert res.converged
    assert np.allclose(res.x, m, atol=1e-6)
    assert res.n_evals < 200  # Nelder-Mead spends about 900 here
    # and with no finite value anywhere the start is kept, as Nelder-Mead does
    objective.value_and_grad = lambda x: (math.inf, np.zeros(2))
    res = minimize_multistart(objective, start=[2.0, 3.0], lower=[0.0, 0.0],
                              upper=[np.inf, np.inf], restarts=2)
    assert res.fun == math.inf and not res.converged
    assert np.allclose(res.x, [2.0, 3.0])


@pytest.mark.parametrize("rate", ["sums_rate", "full_rate"])
def test_two_parameter_fit_without_finite_likelihood_raises(toy_data, rate, monkeypatch):
    # the rate is negative at every point of the box.  With the default
    # config each Nelder-Mead start ends once its all-inf simplex has shrunk
    # to xatol (1 + 3 + 18 halvings of 4 evaluations: 684 for the 9 starts)
    # instead of running to max_evals
    rule = custom_rule("shifted", ["s", "t"], upper=[10.0, 10.0], **{
        "sums_rate": {"sums_rate": lambda p, w, tot: p[0] * w + p[1] - 5e9},
        "full_rate": {"rate": lambda p, a, z: p[0] * (a @ z) + p[1] - 5e9},
    }[rate])
    evals = []
    nll = oada._Objective.__call__
    monkeypatch.setattr(oada._Objective, "__call__", lambda *args: evals.append(1) or nll(*args))
    with pytest.raises(ValueError, match="'shifted'.*no finite likelihood"):
        fit_oada(toy_data, rule)
    assert 0 < len(evals) < 1000


def test_mle_beats_true_params():
    # basic MLE property: fitted nll <= nll at the generating parameters
    true = np.array([30.0, 4.0])
    table = _freqdep_dataset(seed=60, s=true[0], f=true[1])
    fit = fit_oada(table, frequency_dependent_rule())
    assert fit.converged
    assert fit.nll <= negative_log_likelihood(frequency_dependent_rule(), true, table) + 1e-9


def test_one_parameter_fit_follows_profile_past_a_rise():
    # the NLL has a local minimum at s ~ 1.79, rises to ~363.955 at s = 30
    # and falls again to ~363.66128 as s -> infinity
    net = generate_network(GeneratorConfig(
        n=100, sparsity_threshold=0.7, multiplier_max=3.0, seed=21))
    data, _ = simulate_diffusion(net, simple_rule(), [1.0], seed=521)
    fit = fit_oada(build_event_table(data), proportional_rule())
    assert fit.nll <= 363.662


def test_custom_one_parameter_rules_fit_like_the_simple_rule():
    # s * w_informed as a custom sums rate and as a custom full rate: neither
    # has derivatives, so the polish runs on central differences of the NLL
    by_sums = custom_rule("sums", ["s"], sums_rate=lambda p, w, tot: p[0] * w,
                          default_start=(1.0,))
    by_full = custom_rule("full", ["s"], rate=lambda p, a, z: p[0] * float(a @ z),
                          default_start=(1.0,))
    for seed in range(5):
        table = _simple_dataset(seed=300 + seed, s=0.5 * (seed + 1), n=30)
        want = fit_oada(table, simple_rule()).nll
        for rule in (by_sums, by_full):
            fit = fit_oada(table, rule)
            assert fit.nll == pytest.approx(want, abs=1e-9), (seed, rule.kind)


def dense_grid_nll(rule, table):
    """Minimum NLL of a one-parameter rule over s = 0 and 401 log-spaced
    values of s from 1e-8 to 1e12, and the NLL at s = 0."""
    obj = nll_objective(rule, table)
    at_zero = obj(np.array([0.0]))
    grid = min(obj(np.array([s])) for s in np.logspace(-8, 12, 401))
    return min(grid, at_zero), at_zero


@st.composite
def one_parameter_fits(draw):
    """A simple or proportional fit to a simple or proportional diffusion
    with s in [0, 5] on a coverage-cell-like network of n = 60 to 100."""
    n = draw(st.integers(60, 100))
    net = generate_network(GeneratorConfig(
        n=n, sparsity_threshold=0.7, multiplier_max=3.0, seed=draw(st.integers(0, 2**32 - 1))))
    sim_rule = draw(st.sampled_from([simple_rule(), proportional_rule()]))
    data, _ = simulate_diffusion(net, sim_rule, [draw(st.floats(0.0, 5.0))],
                                 seed=draw(st.integers(0, 2**32 - 1)))
    fit_rule = draw(st.sampled_from([simple_rule(), proportional_rule()]))
    return fit_oada(build_event_table(data), fit_rule)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(one_parameter_fits())
def test_one_parameter_fit_reaches_dense_grid_minimum(fit):
    grid_min, at_zero = dense_grid_nll(fit.rule, fit.table)
    assert fit.nll <= grid_min + 1e-9
    if at_zero == grid_min:  # the s = 0 bound is the MLE
        assert fit.boundary_flags == (True,)


def record_polish_points(monkeypatch) -> list[float]:
    """Record the (one-coordinate) point of every Newton polish evaluation."""
    points = []
    polish = fit_module._newton_polish

    def recording(along, *args):
        return polish(lambda x, j: points.append(float(x[0])) or along(x, j), *args)

    monkeypatch.setattr(fit_module, "_newton_polish", recording)
    return points


def test_newton_polish_in_a_two_sided_box_reaches_dense_grid_minimum(monkeypatch):
    # a simple fit in s in [0, 2]
    points = record_polish_points(monkeypatch)
    table = _simple_dataset(seed=11)
    fit = fit_oada(table, simple_rule(), FitConfig(upper=(2.0,)))
    obj = nll_objective(simple_rule(), table)
    assert points and all(0.0 < x < 2.0 for x in points)
    assert fit.nll <= min(obj(np.array([s])) for s in np.linspace(0.0, 2.0, 20001)) + 1e-9
    # s-profile pins of a freqdep fit with f in [0, 3]: the polish runs over f
    rule = frequency_dependent_rule(f_lower=0.0)
    net = generate_network(GeneratorConfig(n=60, seed=8))
    data, _ = simulate_diffusion(net, rule, [10.0, 2.0], seed=1008)
    table = build_event_table(data)
    fit = fit_oada(table, rule, FitConfig(upper=(np.inf, 3.0)))
    obj = nll_objective(rule, table)
    for ratio in (0.5, 2.0):
        points.clear()
        s = ratio * fit.mle[0]
        got = profile_nll(table, rule, 0, s, fit=fit)
        assert points and all(0.0 < f < 3.0 for f in points)
        assert got <= min(obj(np.array([s, f])) for f in np.linspace(0.0, 3.0, 30001)) + 1e-9


# ---------------------------------------------------------- standard errors

def test_hessian_se_quadratic_oracle():
    h = np.array([[2.0, 0.3], [0.3, 0.5]])
    m = np.array([1.5, 4.0])

    def quad(x):
        d = np.asarray(x) - m
        return 0.5 * float(d @ h @ d)

    se = hessian_standard_errors(quad, m)
    oracle = np.sqrt(np.diag(np.linalg.inv(h)))
    assert se is not None
    assert np.allclose(se, oracle, rtol=SE_ORACLE_RTOL)


def test_hessian_se_unavailable_for_a_runaway_parameter():
    # a step of 1e-4 * 1e300 squared to inf, with a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hessian_standard_errors(lambda p: float(np.log(p[0])), [1e300]) is None


def test_hessian_se_rejects_non_pd():
    def saddle(x):
        return float(x[0] ** 2 - x[1] ** 2)

    assert hessian_standard_errors(saddle, np.zeros(2)) is None


def test_fit_se_close_to_hessian_oracle():
    table = _simple_dataset(seed=71)
    fit = fit_oada(table, simple_rule())
    assert fit.se is not None
    oracle = hessian_standard_errors(
        nll_objective(simple_rule(), table), fit.mle
    )
    assert np.allclose(fit.se, oracle, rtol=1e-6)


def test_boundary_fit_flags_and_no_se():
    # hub network where the hub acquires last: every event penalizes s,
    # so the social-effect MLE sits on the s = 0 bound
    w = np.zeros((4, 4))
    w[0, 1:] = 1.0
    w[1:, 0] = 0.01  # leaves see the hub faintly so the network validates
    net = Network(w)
    data = DiffusionData(net, np.array([1, 2, 3, 0]))
    fit = fit_oada(data, simple_rule())
    assert fit.mle[0] == pytest.approx(0.0, abs=1e-6)
    assert fit.boundary_flags == (True,)
    assert fit.se is None
    assert any("bound" in note for note in fit.notes)


def test_divergent_fit_notes(toy_data):
    # perfectly component-respecting order: likelihood keeps improving as
    # s grows, so the fit reports an extremely large value plus a note
    fit = fit_oada(toy_data, simple_rule())
    assert fit.mle[0] > 1e8
    assert any("extremely large" in note for note in fit.notes)


# ------------------------------------------------------------- model ranks

def test_compare_models_ordering_and_favored():
    table = _freqdep_dataset(seed=83)
    fits = [
        fit_oada(table, asocial_rule()),
        fit_oada(table, simple_rule()),
        fit_oada(table, proportional_rule()),
        fit_oada(table, frequency_dependent_rule()),
    ]
    rows = compare_models(fits)
    assert len(rows) == 4
    aiccs = [r.aicc_value for r in rows]
    assert aiccs == sorted(aiccs)
    assert rows[0].delta_aicc == 0.0
    assert [r.favored for r in rows] == [True, False, False, False]
    # deltas measured from the winner
    for r in rows[1:]:
        assert r.delta_aicc == pytest.approx(r.aicc_value - rows[0].aicc_value)
    # data generated from the conformity rule with a strong effect: it wins
    assert rows[0].rule_kind == "freqdep"


def test_compare_models_tie_prefers_fewer_params(toy_data):
    table = build_event_table(toy_data)
    # freqdep at f = 1 can exactly match proportional, but pays k = 2
    prop = fit_oada(table, proportional_rule())
    freq = fit_oada(table, frequency_dependent_rule())
    rows = compare_models([freq, prop])
    assert rows[0].rule_kind == "proportional" or rows[0].aicc_value < rows[1].aicc_value


def test_compare_models_rejects_mixed_data(toy_data):
    other = DiffusionData(toy_data.network, np.array([0, 1, 2, 3, 4]))
    f1 = fit_oada(toy_data, asocial_rule())
    f2 = fit_oada(other, asocial_rule())
    with pytest.raises(ValueError, match="same"):
        compare_models([f1, f2])
    with pytest.raises(ValueError):
        compare_models([])


# ---------------------------------------------------------------- reporting

def test_report_dict_serializes(toy_data):
    fit = fit_oada(toy_data, threshold_rule(), FitConfig(restarts=2))
    report = fit.report_dict()
    text = json.dumps(report)
    back = json.loads(text)
    assert back["rule"] == "threshold"
    assert back["param_names"] == ["a", "c"]
    assert len(back["mle"]) == 2
    assert back["n_events"] == 5


def test_report_dict_infinite_aicc():
    # two events cannot support a 1-parameter model under AICc
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    data = DiffusionData(Network(w), np.array([0, 1]))
    fit = fit_oada(data, simple_rule())
    assert math.isinf(fit.aicc)
    assert fit.report_dict()["aicc"] == "inf"
    json.dumps(fit.report_dict())


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=-1)
    with pytest.raises(ValueError):
        FitConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        FitConfig(max_evals=0)
    table = _simple_dataset(seed=90)
    with pytest.raises(ValueError, match="entries"):
        fit_oada(table, simple_rule(), FitConfig(start=(1.0, 2.0)))
