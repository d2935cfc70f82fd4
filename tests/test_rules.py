import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from contagionfit import (
    BUILTIN_RULE_NAMES,
    DEFAULT_SHARPNESS,
    asocial_rule,
    custom_rule,
    eval_rate,
    frequency_dependent_rule,
    proportional_rule,
    rate_frequency_dependent,
    rate_proportional,
    rate_simple,
    rate_threshold,
    rule_from_name,
    simple_rule,
    threshold_rule,
)

EXACT = 1e-12
FREQ_MATCH_TOL = 1e-10
THRESHOLD_LIMIT_TOL = 1e-9


def _vectors(w_informed, w_uninformed):
    """Two-neighbour connection/status vectors with the given split."""
    connections = np.array([w_informed, w_uninformed])
    status = np.array([1.0, 0.0])
    return connections, status


# ---------------------------------------------------------------- wrappers

def test_rate_simple_example():
    conn, status = _vectors(0.5, 1.5)
    # 2.0 * 0.5 informed connection; uninformed weight is irrelevant
    assert rate_simple(2.0, conn, status) == pytest.approx(1.0, abs=EXACT)


def test_rate_proportional_example():
    conn, status = _vectors(1.0, 1.0)
    assert rate_proportional(3.0, conn, status) == pytest.approx(1.5, abs=EXACT)
    # isolated individual: zero rate, not 0/0
    conn0 = np.zeros(3)
    assert rate_proportional(3.0, conn0, np.array([1.0, 0.0, 0.0])) == 0.0


def test_rate_frequency_dependent_examples():
    # all connections informed: rate saturates at s
    conn = np.array([2.0, 3.0])
    status = np.array([1.0, 1.0])
    assert rate_frequency_dependent(9.0, 2.0, conn, status) == pytest.approx(9.0, abs=EXACT)
    # f = 1 reduces to the proportional rule
    conn, status = _vectors(1.0, 3.0)
    assert rate_frequency_dependent(6.0, 1.0, conn, status) == pytest.approx(
        rate_proportional(6.0, conn, status), abs=FREQ_MATCH_TOL
    )
    # no informed connections: exactly zero
    conn, status = _vectors(0.0, 7.0)
    assert rate_frequency_dependent(9.0, 2.0, conn, status) == 0.0
    with pytest.raises(ValueError):
        rate_frequency_dependent(-1.0, 2.0, conn, status)
    with pytest.raises(ValueError):
        rate_frequency_dependent(1.0, 0.0, conn, status)


def test_rate_threshold_boundaries():
    a, c, b = 2.0, 5.0, DEFAULT_SHARPNESS
    eps = expit(-b * a)
    # exactly zero with no informed connections
    conn, status = _vectors(0.0, 4.0)
    assert rate_threshold(a, c, conn, status) == 0.0
    # midpoint value at w_informed == a
    conn, status = _vectors(a, 1.0)
    expected_mid = c / (1.0 - eps) * (0.5 - eps)
    assert rate_threshold(a, c, conn, status) == pytest.approx(expected_mid, abs=EXACT)
    # saturates at c far above the location
    conn, status = _vectors(a + 30.0 / b, 1.0)
    assert abs(rate_threshold(a, c, conn, status) - c) < THRESHOLD_LIMIT_TOL


def test_rate_threshold_custom_sharpness():
    a, c, b = 1.0, 2.0, 10.0
    eps = expit(-b * a)
    conn, status = _vectors(1.5, 0.5)
    got = rate_threshold(a, c, conn, status, sharpness=b)
    expected = c / (1.0 - eps) * (expit(b * 0.5) - eps)
    assert got == pytest.approx(expected, abs=EXACT)


# ------------------------------------------------------------ rule objects

def test_builtin_names_and_alias():
    assert set(BUILTIN_RULE_NAMES) == {
        "asocial",
        "simple",
        "proportional",
        "freqdep",
        "threshold",
    }
    assert rule_from_name("standard").kind == "simple"
    with pytest.raises(ValueError, match="unknown rule"):
        rule_from_name("nope")


def test_rule_shapes():
    assert asocial_rule().param_names == ()
    assert simple_rule().param_names == ("s",)
    assert proportional_rule().param_names == ("s",)
    assert frequency_dependent_rule().param_names == ("s", "f")
    assert threshold_rule().param_names == ("a", "c")
    assert threshold_rule().fixed == {"b": DEFAULT_SHARPNESS}
    assert threshold_rule(estimate_sharpness=True).param_names == ("a", "c", "b")


def test_size_param_marks_social_scale():
    assert simple_rule().size_param == "s"
    assert proportional_rule().size_param == "s"
    assert frequency_dependent_rule().size_param == "s"
    assert threshold_rule().size_param == "c"
    assert asocial_rule().size_param is None


def test_freqdep_lower_bound_configurable():
    rule = frequency_dependent_rule(f_lower=0.5)
    assert rule.lower[1] == 0.5
    with pytest.raises(ValueError):
        rule.check_params(np.array([1.0, 0.3]))


def test_eval_rate_matches_wrappers(toy_network):
    # individual 0 has no ties into the informed pair {4, 5}
    status = np.zeros(5)
    status[[3, 4]] = 1.0
    conn = toy_network.weights[0]
    assert eval_rate(simple_rule(), np.array([2.0]), conn, status) == 0.0
    # individual 5 sees only its informed partner 4 (weight 0.8)
    status2 = np.zeros(5)
    status2[3] = 1.0
    conn = toy_network.weights[4]
    got = eval_rate(simple_rule(), np.array([2.0]), conn, status2)
    assert got == pytest.approx(rate_simple(2.0, conn, status2), abs=EXACT)
    assert got == pytest.approx(1.6, abs=EXACT)
    got = eval_rate(proportional_rule(), np.array([2.0]), conn, status2)
    assert got == pytest.approx(2.0, abs=EXACT)


def test_eval_rate_validation(toy_network):
    status = np.zeros(5)
    conn = toy_network.weights[0]
    with pytest.raises(ValueError, match="takes 1 parameter"):
        eval_rate(simple_rule(), np.array([1.0, 2.0]), conn, status)
    with pytest.raises(ValueError):
        eval_rate(simple_rule(), np.array([-1.0]), conn, status)
    with pytest.raises(ValueError):
        eval_rate(simple_rule(), np.array([1.0]), conn, np.zeros(4))
    with pytest.raises(ValueError, match="status"):
        eval_rate(simple_rule(), np.array([1.0]), conn, np.full(5, 0.5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    s=st.floats(0.0, 50.0),
    w=st.floats(0.0, 40.0),
    extra=st.floats(0.0, 40.0),
)
def test_freqdep_f1_equals_proportional(s, w, extra):
    conn = np.array([w, extra])
    status = np.array([1.0, 0.0])
    got = rate_frequency_dependent(s, 1.0, conn, status)
    want = rate_proportional(s, conn, status)
    assert abs(got - want) <= FREQ_MATCH_TOL * max(1.0, abs(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    s=st.floats(0.01, 50.0),
    f=st.floats(0.2, 60.0),
    w=st.floats(0.0, 40.0),
    extra=st.floats(0.0, 40.0),
)
def test_freqdep_rate_within_bounds(s, f, w, extra):
    conn = np.array([w, extra])
    status = np.array([1.0, 0.0])
    r = rate_frequency_dependent(s, f, conn, status)
    assert 0.0 <= r <= s + 1e-12


def test_freqdep_monotone_in_informed_weight():
    s, f, tot = 4.0, 3.0, 10.0
    rates = []
    for w in np.linspace(0.0, tot, 60):
        conn = np.array([w, tot - w])
        rates.append(rate_frequency_dependent(s, f, conn, np.array([1.0, 0.0])))
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_threshold_monotone_and_bounded():
    a, c = 3.0, 7.0
    rates = []
    for w in np.linspace(0.0, 30.0, 80):
        conn, status = _vectors(w, 2.0)
        rates.append(rate_threshold(a, c, conn, status))
    assert all(b >= a_ - 1e-12 for a_, b in zip(rates, rates[1:]))
    assert all(0.0 <= r <= c + 1e-12 for r in rates)


def test_ratio_rules_scale_invariant():
    # proportional and freqdep depend only on the informed fraction
    base_conn = np.array([1.0, 3.0])
    status = np.array([1.0, 0.0])
    for mult in (0.5, 3.0, 11.0):
        conn = mult * base_conn
        assert rate_proportional(2.0, conn, status) == pytest.approx(
            rate_proportional(2.0, base_conn, status), abs=EXACT
        )
        assert rate_frequency_dependent(2.0, 5.0, conn, status) == pytest.approx(
            rate_frequency_dependent(2.0, 5.0, base_conn, status), abs=FREQ_MATCH_TOL
        )


def test_simple_rule_scales_linearly():
    status = np.array([1.0, 0.0])
    one = rate_simple(2.0, np.array([1.0, 0.5]), status)
    three = rate_simple(2.0, np.array([3.0, 0.5]), status)
    assert three == pytest.approx(3.0 * one, abs=EXACT)


def test_asocial_rate_is_zero(toy_network):
    status = np.zeros(5)
    status[0] = 1.0
    conn = toy_network.weights[1]
    assert eval_rate(asocial_rule(), np.zeros(0), conn, status) == 0.0


def test_rules_pickle_round_trip():
    for name in BUILTIN_RULE_NAMES:
        rule = rule_from_name(name)
        back = pickle.loads(pickle.dumps(rule))
        assert back.kind == rule.kind
        assert back.param_names == rule.param_names
    rule = threshold_rule(sharpness=5.0)
    back = pickle.loads(pickle.dumps(rule))
    p = np.array([2.0, 3.0])
    assert np.allclose(
        back.sums_rate(p, np.array([1.5]), np.array([4.0])),
        rule.sums_rate(p, np.array([1.5]), np.array([4.0])),
        atol=EXACT,
    )


def test_custom_rule_full_rate(toy_network):
    # rate = s * number of informed neighbours with any tie
    def count_rate(params, connections, status):
        return params[0] * float(np.count_nonzero(connections * status))

    rule = custom_rule(
        kind="count",
        param_names=("s",),
        rate=count_rate,
        lower=(0.0,),
        size_param="s",
    )
    status = np.zeros(5)
    status[[1, 2]] = 1.0
    got = eval_rate(rule, np.array([2.0]), toy_network.weights[0], status)
    assert got == pytest.approx(4.0, abs=EXACT)


def test_check_params_rejects_bad_shapes():
    rule = frequency_dependent_rule()
    with pytest.raises(ValueError):
        rule.check_params(np.array([1.0]))
    with pytest.raises(ValueError):
        rule.check_params(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        rule.check_params(np.array([-0.5, 1.0]))


def test_threshold_sharpness_positive():
    with pytest.raises(ValueError):
        threshold_rule(sharpness=0.0)
    conn, status = _vectors(1.0, 1.0)
    with pytest.raises(ValueError):
        rate_threshold(1.0, 1.0, conn, status, sharpness=-2.0)
