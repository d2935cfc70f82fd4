"""Property tests of the run-based event table against event-by-event twins.

The twins recompute every event from the weight matrix and the order: the
naive set, each naive individual's weight to informed individuals and its
weight to naive individuals, the latter summed directly rather than taken
as ``total - w_informed``.  They share no code with `build_event_table`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from contagionfit import (
    DiffusionData,
    FitConfig,
    GeneratorConfig,
    Network,
    ProfileConfig,
    build_event_table,
    fit_oada,
    frequency_dependent_rule,
    generate_network,
    negative_log_likelihood,
    profile_ci,
    rule_from_name,
    simulate_diffusion,
)
from contagionfit.fit import nll_objective
from contagionfit.oada import PIECES_CACHE_SIZE

NLL_RTOL = 1e-10
# central differences of the twin NLL: relative step, and agreement
GRAD_STEP = 1e-6
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-7
# second differences of the twin NLL: relative step, and agreement (the
# difference's round-off is about 4e-16 * |NLL| / step^2, under 1e-5 here)
CURV_STEP = 1e-4
CURV_RTOL = 1e-4
CURV_ATOL = 1e-5
SATURATION_RTOL = 1e-12
PROB_SUM_TOL = 1e-10
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def twin_rates(kind, params, w_inf, w_naive):
    """Social rates from the rule formulas, given both weights directly."""
    if kind == "asocial":
        return np.zeros_like(w_inf)
    if kind == "simple":
        return params[0] * w_inf
    total = w_inf + w_naive
    if kind == "proportional":
        return params[0] * np.divide(w_inf, total, out=np.zeros_like(w_inf), where=total > 0)
    if kind == "freqdep":
        s, f = params
        out = np.zeros_like(w_inf)
        out[(w_inf > 0) & (w_naive == 0)] = s
        mixed = (w_inf > 0) & (w_naive > 0)
        out[mixed] = s * expit(-f * (np.log(w_naive[mixed]) - np.log(w_inf[mixed])))
        return out
    if kind == "threshold":
        a, c = params
        eps = expit(-3.0 * a)
        return (c / (1.0 - eps)) * (expit(3.0 * (w_inf - a)) - eps)
    raise AssertionError(kind)


def twin_nll(kind, params, weights, order):
    informed = np.zeros(weights.shape[0])
    nll = 0.0
    for acq in order:
        naive = np.flatnonzero(informed == 0)
        w_inf = weights[naive] @ informed
        w_naive = weights[naive] @ (1.0 - informed)
        r = 1.0 + twin_rates(kind, params, w_inf, w_naive)
        nll += math.log(r.sum()) - math.log(r[np.searchsorted(naive, acq)])
        informed[acq] = 1.0
    return nll


def dense_layout(weights, order):
    """One slot per (event, naive individual), built the way the flat table
    always was, with the weight to informed individuals set to exactly the
    total once no in-neighbour is naive."""
    n = weights.shape[0]
    totals = weights.sum(axis=1)
    w_informed = np.zeros(n)
    naive_mask = np.ones(n, dtype=bool)
    naive, w_inf, tot, starts, acq_slot = [], [], [], [0], []
    for acq in order:
        idx = np.flatnonzero(naive_mask)
        links_left = ((weights[idx] > 0) & naive_mask).sum(axis=1)
        acq_slot.append(starts[-1] + int(np.searchsorted(idx, acq)))
        naive.append(idx)
        w_inf.append(np.where(links_left == 0, totals[idx], w_informed[idx]))
        tot.append(totals[idx])
        starts.append(starts[-1] + idx.size)
        naive_mask[acq] = False
        w_informed += weights[:, acq]
    return (np.concatenate(naive), np.concatenate(w_inf), np.concatenate(tot),
            np.array(starts), np.array(acq_slot))


@st.composite
def diffusions(draw, max_n=8):
    """Asymmetric weights with zero rows and isolated individuals, and an
    order that may stop before everyone acquires."""
    n = draw(st.integers(2, max_n))
    w = draw(arrays(np.float64, (n, n), elements=st.floats(0.05, 5.0)))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    links = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n)) < density
    w[~links] = 0.0
    np.fill_diagonal(w, 0.0)
    zero_rows = draw(st.lists(st.integers(0, n - 1), max_size=2))
    w[zero_rows, :] = 0.0
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=2))
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    order = draw(st.permutations(range(n)))
    d = draw(st.integers(1, n))
    return w, np.array(order[:d])


def builtin_params(rate=st.one_of(st.floats(0.0, 10.0), st.floats(10.0, 1e6)),
                   f=st.floats(0.2, 20.0)):
    """In-box parameters for every built-in rule, rates up to 1e6 by default."""
    return st.fixed_dictionaries({
        "asocial": st.just(()),
        "simple": st.tuples(rate),
        "proportional": st.tuples(rate),
        "freqdep": st.tuples(rate, f),
        "threshold": st.tuples(st.floats(0.0, 5.0), rate),
    })


@PROPERTY_SETTINGS
@given(diffusions(), builtin_params())
def test_run_nll_matches_event_by_event_twin(diffusion, params):
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    for kind, p in params.items():
        got = negative_log_likelihood(rule_from_name(kind), list(p), table)
        want = twin_nll(kind, p, w, order)
        assert got == pytest.approx(want, rel=NLL_RTOL, abs=NLL_RTOL), kind


@PROPERTY_SETTINGS
@given(diffusions(),
       builtin_params(rate=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e6)),
                      f=st.one_of(st.just(0.0), st.just(0.2), st.floats(0.2, 20.0),
                                  st.floats(20.0, 1e6))))
def test_prepared_run_rates_match_sums_rate(diffusion, params):
    # the rates an objective prepares once equal sums_rate on the same runs
    # (freqdep: and the formula on both weights, f = 0 included), and an
    # objective's NLL equals negative_log_likelihood exactly
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    for kind, p in params.items():
        rule = frequency_dependent_rule(f_lower=0.0) if kind == "freqdep" else rule_from_name(kind)
        p = np.array(p, dtype=float)
        got = rule.run_rates(table.run_w, table.run_total)(p)
        assert np.array_equal(got, rule.sums_rate(p, table.run_w, table.run_total)), kind
        if kind == "freqdep":
            want = twin_rates(kind, p, table.run_w, table.run_total - table.run_w)
            assert np.array_equal(got, want), p
        assert nll_objective(rule, table)(p) == negative_log_likelihood(rule, p, table), kind


@PROPERTY_SETTINGS
@given(diffusions(),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e3)),
       st.one_of(st.just(0.2), st.floats(0.2, 20.0), st.floats(20.0, 1e6)))
def test_freqdep_gradient_matches_central_differences(diffusion, s, f):
    # the objective's gradient (the prefix sum's adjoint times the rates'
    # Jacobian) against central differences of the event-by-event twin,
    # which also takes s < 0; its value is the plain NLL, bit for bit
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    rule = frequency_dependent_rule()
    value, grad = nll_objective(rule, table).value_and_grad(np.array([s, f]))
    assert value == negative_log_likelihood(rule, [s, f], table)
    for i, x in enumerate((s, f)):
        h = GRAD_STEP * max(1.0, x)
        up, down = [s, f], [s, f]
        up[i] += h
        down[i] -= h
        central = (twin_nll("freqdep", up, w, order) - twin_nll("freqdep", down, w, order)) / (2 * h)
        assert grad[i] == pytest.approx(central, rel=GRAD_RTOL, abs=GRAD_ATOL), i


@PROPERTY_SETTINGS
@given(diffusions(),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e3)),
       st.one_of(st.just(0.0), st.just(0.2), st.floats(0.2, 20.0)))
def test_one_coordinate_derivatives_match_central_differences(diffusion, s, f):
    # the objective's value and its first and second derivatives along s
    # (simple, proportional and freqdep) against the event-by-event twin and
    # its central and second differences; the value is the plain NLL, bit
    # for bit
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    for kind, params in (("simple", [s]), ("proportional", [s]), ("freqdep", [s, f])):
        rule = frequency_dependent_rule(f_lower=0.0) if kind == "freqdep" else rule_from_name(kind)
        value, first, second = nll_objective(rule, table).along(np.array(params))
        assert value == negative_log_likelihood(rule, params, table)

        def twin(shift):
            return twin_nll(kind, [params[0] + shift] + params[1:], w, order)

        x = params[0]
        h = GRAD_STEP * max(1.0, x)
        central = (twin(h) - twin(-h)) / (2 * h)
        assert first == pytest.approx(central, rel=GRAD_RTOL, abs=GRAD_ATOL), kind
        h = CURV_STEP * max(1.0, x)
        central = (twin(h) - 2.0 * twin(0.0) + twin(-h)) / (h * h)
        assert second == pytest.approx(central, rel=CURV_RTOL, abs=CURV_ATOL), kind


@PROPERTY_SETTINGS
@given(diffusions(),
       builtin_params(rate=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e6)),
                      f=st.one_of(st.just(0.0), st.just(0.2), st.floats(0.2, 20.0),
                                  st.floats(20.0, 1e6))),
       st.integers(0, 2**32 - 1))
def test_scaled_nll_is_one_value_whatever_the_cache_holds(diffusion, params, seed):
    # an objective keeps the event sums of each shape it meets (rates s * x,
    # x fixed by the parameters other than s): its value, the value of its
    # value_and_grad and negative_log_likelihood are one number, bit for bit,
    # whichever path filled the cache and whatever else the cache held
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    rng = np.random.default_rng(seed)
    for kind in ("simple", "proportional", "freqdep"):
        rule = frequency_dependent_rule(f_lower=0.0) if kind == "freqdep" else rule_from_name(kind)
        p = np.array(params[kind], dtype=float)
        want = negative_log_likelihood(rule, p, table)
        assert want == pytest.approx(twin_nll(kind, p, w, order), rel=NLL_RTOL, abs=NLL_RTOL), kind
        value_first, gradient_first = nll_objective(rule, table), nll_objective(rule, table)
        assert value_first(p) == value_first.value_and_grad(p)[0] == want, kind
        assert gradient_first.value_and_grad(p)[0] == gradient_first(p) == want, kind
        # a walk over more shapes than the cache keeps, starting elsewhere,
        # with every fourth point at the shape of p, by both paths
        walked = nll_objective(rule, table)
        for i in range(PIECES_CACHE_SIZE + 16):
            q = rng.uniform(0.0, 2.0 * p + 1.0)
            if i % 4 == 3:
                q[1:] = p[1:]
            (walked.value_and_grad if rng.random() < 0.5 else walked)(q)
        assert walked(p) == walked.value_and_grad(p)[0] == want, kind


@PROPERTY_SETTINGS
@given(diffusions())
def test_flat_views_reproduce_dense_layout(diffusion):
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    views = (table.naive_flat, table.w_informed_flat, table.total_flat,
             table.flat_start, table.acquirer_slot)
    for got, want in zip(views, dense_layout(w, order)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@PROPERTY_SETTINGS
@given(diffusions(max_n=6), builtin_params())
def test_next_event_probabilities_sum_to_one(diffusion, params):
    w, order = diffusion
    net = Network(w)
    prefix = order[:-1]
    naive = np.setdiff1d(np.arange(net.n), prefix)
    for kind, p in params.items():
        rule = rule_from_name(kind)

        def nll(o):
            return negative_log_likelihood(rule, list(p), build_event_table(DiffusionData(net, o)))

        base = nll(prefix) if prefix.size else 0.0
        total = sum(math.exp(base - nll(np.append(prefix, i))) for i in naive)
        assert total == pytest.approx(1.0, abs=PROB_SUM_TOL), kind


@settings(max_examples=5, deadline=None, derandomize=True)
@given(diffusions(), st.sampled_from(["simple", "proportional", "freqdep", "threshold"]))
def test_fit_and_profile_leave_flat_views_unbuilt(diffusion, kind):
    w, order = diffusion
    table = build_event_table(DiffusionData(Network(w), order))
    rule = rule_from_name(kind)
    fit = fit_oada(table, rule, FitConfig(restarts=1))
    for i in range(rule.n_params):
        profile_ci(fit, i, config=ProfileConfig(inner_restarts=0))
    assert "_flat" not in vars(table)


def test_saturated_individuals_have_exactly_zero_naive_weight():
    # the freqdep fit of this replicate sits at f's lower bound, where a
    # rounding residue in total - w_informed used to shift the NLL by 9e-4
    net = generate_network(GeneratorConfig(
        n=100, sparsity_threshold=0.7, multiplier_max=3.0,
        seed=np.random.SeedSequence([23, 1, 4, 0]),
    ))
    rule = frequency_dependent_rule()
    data, _ = simulate_diffusion(net, rule, [10.0, 3.0], seed=np.random.SeedSequence([23, 1, 4, 1]))
    got = negative_log_likelihood(rule, [10.0, 0.2], build_event_table(data))
    want = twin_nll("freqdep", (10.0, 0.2), net.weights, data.order)
    assert got == pytest.approx(want, rel=SATURATION_RTOL)


def trace_nll(data, trace):
    return -float(np.log(trace.probabilities[np.arange(data.n_events), data.order]).sum())


def random_networks(max_n=16):
    """Networks drawn from a seeded generator rather than by hypothesis, so
    that row sums carry rounding residues."""
    def build(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_n + 1))
        w = rng.uniform(0.05, 5.0, (n, n)) * (rng.random((n, n)) < rng.choice([0.2, 0.4, 0.7]))
        np.fill_diagonal(w, 0.0)
        return Network(w)
    return st.integers(0, 2**32 - 1).map(build)


# 300 examples: small f, a large enough s and a saturated naive individual
# meet in only a few percent of them
@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_networks(),
       builtin_params(rate=st.floats(0.0, 100.0),
                      f=st.one_of(st.floats(0.2, 0.5), st.floats(0.5, 20.0))),
       st.integers(0, 2**32 - 1))
def test_simulated_trace_scores_like_the_likelihood(net, params, seed):
    # the simulator's per-event probabilities are the likelihood's, saturated
    # individuals included (their rates are where the two used to differ).
    # Rates stay below 100: on simulated orders, where large rates leave the
    # naive set first, the run-based sum's round-off (see `EventTable`)
    # reaches 2e-10 relative at rates near 2e5.
    for kind, p in params.items():
        rule = rule_from_name(kind)
        data, trace = simulate_diffusion(net, rule, list(p), seed=seed)
        want = negative_log_likelihood(rule, list(p), build_event_table(data))
        assert trace_nll(data, trace) == pytest.approx(want, rel=NLL_RTOL, abs=NLL_RTOL), kind


def test_simulated_trace_of_saturated_replicate_scores_like_the_likelihood():
    # coverage-cell replicate 38 at f = 0.2: 27 of its events used to differ
    net = generate_network(GeneratorConfig(
        n=100, sparsity_threshold=0.7, multiplier_max=3.0, seed=1038,
    ))
    rule = frequency_dependent_rule()
    data, trace = simulate_diffusion(net, rule, [10.0, 0.2], seed=2038)
    want = negative_log_likelihood(rule, [10.0, 0.2], build_event_table(data))
    assert trace_nll(data, trace) == pytest.approx(want, rel=NLL_RTOL)


def twin_runs(weights, order):
    """The runs of an event-by-event walk: after every event but the last,
    each naive individual linked to the acquirer starts a run, with
    ``w_informed`` summed one event at a time and set to the row total once
    every linked in-neighbour is informed."""
    n, d = weights.shape[0], len(order)
    totals = weights.sum(axis=1)
    linked = weights > 0
    naive_links = linked.sum(axis=1)
    w_informed = np.zeros(n)
    naive = np.ones(n, dtype=bool)
    current = list(range(n))
    who, run_w, start, prev = list(range(n)), [0.0] * n, [0] * n, [-1] * n
    acquirer_run = []
    for k, acq in enumerate(order):
        acquirer_run.append(current[acq])
        naive[acq] = False
        w_informed += weights[:, acq]
        naive_links -= linked[:, acq]
        w_informed[naive_links == 0] = totals[naive_links == 0]
        if k + 1 == d:
            break
        for i in range(n):
            if naive[i] and linked[i, acq]:
                who.append(i)
                run_w.append(w_informed[i])
                start.append(k + 1)
                prev.append(current[i])
                current[i] = len(who) - 1
    end = [d] * len(who)
    for k, r in enumerate(acquirer_run):
        end[r] = k + 1
    for r in range(n, len(who)):
        end[prev[r]] = start[r]
    ints = dict(run_individual=who, run_start=start, run_end=end, run_prev=prev,
                acquirer_run=acquirer_run, n_naive=[n - k for k in range(d)])
    return {**{name: np.array(v, dtype=np.int64) for name, v in ints.items()},
            "run_w": np.array(run_w), "run_total": totals[who]}


def twin_case(seed):
    """A seeded network and order: n in 2..150 (mostly small), density 0..1,
    with some zero rows, isolated individuals, partial orders and D = 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 151)) if seed % 25 == 0 else int(rng.integers(2, 21))
    density = rng.choice([0.0, 0.05, 0.2, 0.5, 0.8, 1.0])
    w = rng.uniform(0.01, 5.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(w, 0.0)
    if rng.random() < 0.3:
        w[rng.integers(n)] = 0.0
    if rng.random() < 0.3:
        i = rng.integers(n)
        w[i] = 0.0
        w[:, i] = 0.0
    d = (n, 1, int(rng.integers(1, n + 1)))[seed % 3]
    return w, rng.permutation(n)[:d]


RUN_ARRAYS = ("run_individual", "run_w", "run_total", "run_start", "run_end", "run_prev",
              "acquirer_run", "n_naive")


@pytest.mark.parametrize("seed", range(0, 200, 25))
def test_event_table_matches_event_by_event_twin(seed):
    # 25 cases per parameter, from fixed numpy seeds; each array must be
    # equal to the bit, dtype included
    for case in range(seed, seed + 25):
        w, order = twin_case(case)
        table = build_event_table(DiffusionData(Network(w), order))
        want = twin_runs(w, order)
        for name in RUN_ARRAYS:
            got = getattr(table, name)
            assert got.dtype == want[name].dtype, (case, name)
            assert np.array_equal(got, want[name]), (case, name)
