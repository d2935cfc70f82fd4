import itertools
import math

import numpy as np
import pytest

from contagionfit import (
    DiffusionData,
    GeneratorConfig,
    Network,
    aicc,
    asocial_nll,
    asocial_rule,
    build_event_table,
    custom_rule,
    fit_oada,
    frequency_dependent_rule,
    generate_network,
    load_order_file,
    negative_log_likelihood,
    parse_order_text,
    proportional_rule,
    rule_from_name,
    simple_rule,
    threshold_rule,
    write_order_file,
)

EXACT = 1e-12
COMPLETENESS_TOL = 1e-10
LN_120 = math.log(120.0)                    # ln(5!)
LN_100_FACT = math.lgamma(101.0)            # ln(100!)
AICC_ASOCIAL_100 = 2.0 * LN_100_FACT        # k = 0, so AICc = 2 * nll


def test_event_table_toy(toy_data):
    table = build_event_table(toy_data)
    # five events over five individuals; naive sets shrink 5,4,3,2,1
    assert table.n_events == 5
    assert np.array_equal(np.diff(table.flat_start), [5, 4, 3, 2, 1])
    # third event: informed = {4, 5}, naive = {1, 2, 3} (1-based)
    start, stop = table.flat_start[2], table.flat_start[3]
    assert np.array_equal(table.naive_flat[start:stop], [0, 1, 2])
    # triangle members have no ties to the informed pair
    assert np.allclose(table.w_informed_flat[start:stop], 0.0)
    assert np.allclose(table.total_flat[start:stop], 1.0)
    # acquirer of event 3 is individual 2 (0-based 1)
    assert table.naive_flat[table.acquirer_slot[2]] == 1


def test_event_table_informed_sums(toy_data):
    table = build_event_table(toy_data)
    # second event: only individual 4 informed; 5 has the 0.8 tie to it
    start, stop = table.flat_start[1], table.flat_start[2]
    naive = table.naive_flat[start:stop]
    w = dict(zip(naive.tolist(), table.w_informed_flat[start:stop].tolist()))
    assert w[4] == pytest.approx(0.8, abs=EXACT)
    assert w[0] == w[1] == w[2] == 0.0


def test_asocial_nll_toy(toy_data):
    table = build_event_table(toy_data)
    assert asocial_nll(table) == pytest.approx(LN_120, abs=EXACT)
    # s = 0 social rules collapse to the asocial likelihood
    for rule, params in [
        (simple_rule(), [0.0]),
        (proportional_rule(), [0.0]),
        (frequency_dependent_rule(), [0.0, 1.0]),
        (threshold_rule(), [1.0, 0.0]),
    ]:
        nll = negative_log_likelihood(rule, params, table)
        assert nll == pytest.approx(LN_120, abs=COMPLETENESS_TOL)


def test_asocial_nll_100():
    net = generate_network(GeneratorConfig(n=100, seed=5))
    order = np.random.default_rng(5).permutation(100)
    table = build_event_table(DiffusionData(net, order))
    nll = asocial_nll(table)
    assert nll == pytest.approx(LN_100_FACT, abs=1e-9)
    assert nll == pytest.approx(363.7393756, abs=1e-6)
    assert aicc(nll, 0, 100) == pytest.approx(727.4788, abs=1e-3)


def test_nll_depends_on_order(toy_data):
    table = build_event_table(toy_data)
    rule = simple_rule()
    social = negative_log_likelihood(rule, [5.0], table)
    # the toy order spreads within components, so it should beat asocial
    assert social < asocial_nll(table)


def test_permutation_completeness_small():
    # exp(-NLL) over all orderings of a 4-node network must sum to 1
    rng = np.random.default_rng(77)
    w = rng.uniform(0.2, 1.0, size=(4, 4))
    np.fill_diagonal(w, 0.0)
    net = Network(w)
    cases = [
        (asocial_rule(), []),
        (simple_rule(), [3.0]),
        (proportional_rule(), [3.0]),
        (frequency_dependent_rule(), [3.0, 2.5]),
        (threshold_rule(), [0.8, 4.0]),
    ]
    for rule, params in cases:
        total = 0.0
        for order in itertools.permutations(range(4)):
            table = build_event_table(DiffusionData(net, np.array(order)))
            total += math.exp(-negative_log_likelihood(rule, params, table))
        assert total == pytest.approx(1.0, abs=COMPLETENESS_TOL)


def test_partial_diffusion_prefix(toy_network):
    # conditioning on the first three acquisitions only
    data = DiffusionData(toy_network, np.array([3, 4, 0]))
    table = build_event_table(data)
    assert asocial_nll(table) == pytest.approx(math.log(5 * 4 * 3), abs=EXACT)


def test_weight_scaling_invariance():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 2.0, size=(6, 6))
    np.fill_diagonal(w, 0.0)
    order = rng.permutation(6)
    scale = 7.5
    t1 = build_event_table(DiffusionData(Network(w), order))
    t2 = build_event_table(DiffusionData(Network(scale * w), order))
    # ratio rules are invariant to a global rescaling of the weights
    for rule, params in [
        (proportional_rule(), [2.0]),
        (frequency_dependent_rule(), [2.0, 3.0]),
    ]:
        a = negative_log_likelihood(rule, params, t1)
        b = negative_log_likelihood(rule, params, t2)
        assert a == pytest.approx(b, abs=1e-10)
    # the simple rule absorbs the rescaling into s
    a = negative_log_likelihood(simple_rule(), [2.0], t1)
    b = negative_log_likelihood(simple_rule(), [2.0 / scale], t2)
    assert a == pytest.approx(b, abs=1e-10)


def test_generic_path_matches_sums_path(toy_data):
    table = build_event_table(toy_data)
    for name, params in [
        ("simple", [2.5]),
        ("proportional", [2.5]),
        ("freqdep", [2.5, 4.0]),
        ("threshold", [0.6, 3.0]),
    ]:
        fast = rule_from_name(name)
        # same kernel, but exposed as a generic full rate: forces the slow path
        kernel = fast.sums_rate

        def full(p, connections, status, _kernel=kernel):
            w = float(connections @ status)
            tot = float(connections.sum())
            return float(np.asarray(_kernel(p, w, tot)).ravel()[0])

        slow = custom_rule(
            kind=f"{name}-generic",
            param_names=fast.param_names,
            rate=full,
            lower=fast.lower,
            upper=fast.upper,
        )
        a = negative_log_likelihood(fast, params, table)
        b = negative_log_likelihood(slow, params, table)
        assert a == pytest.approx(b, abs=1e-10)


def test_order_validation(toy_network):
    with pytest.raises(ValueError, match=r"individual 6 \(1-based\)"):
        DiffusionData(toy_network, np.array([0, 5]))
    with pytest.raises(ValueError, match="more than once"):
        DiffusionData(toy_network, np.array([1, 1]))
    with pytest.raises(ValueError, match="non-empty"):
        DiffusionData(toy_network, np.array([], dtype=int))


def test_nll_rejects_invalid_params(toy_data):
    table = build_event_table(toy_data)
    with pytest.raises(ValueError):
        negative_log_likelihood(simple_rule(), [-1.0], table)
    with pytest.raises(ValueError):
        negative_log_likelihood(simple_rule(), [np.nan], table)


def test_nll_rejects_negative_rate_of_generic_rule(toy_data):
    table = build_event_table(toy_data)
    # the same rate through the generic walk and through the per-run sums
    for rule in (
        custom_rule("offset", ["s"], rate=lambda p, a, z: p[0] * (a @ z) - 0.5),
        custom_rule("offset", ["s"], sums_rate=lambda p, w, tot: p[0] * w - 0.5),
    ):
        with pytest.raises(ValueError, match="invalid rate"):
            negative_log_likelihood(rule, [1.0], table)
        fit = fit_oada(table, rule)  # every evaluation is refused
        assert fit.nll == math.inf and not fit.converged


def test_aicc_values():
    # frozen spot check: nll 100, k 2, 100 events
    assert aicc(100.0, 2, 100) == pytest.approx(204.0 + 12.0 / 97.0, abs=EXACT)
    assert aicc(100.0, 0, 100) == pytest.approx(200.0, abs=EXACT)
    # correction blows up when events <= k + 1
    assert aicc(10.0, 2, 3) == math.inf
    assert aicc(10.0, 2, 2) == math.inf
    with pytest.raises(ValueError):
        aicc(10.0, -1, 5)
    with pytest.raises(ValueError):
        aicc(10.0, 0, 0)


def test_parse_order_text_variants():
    assert np.array_equal(parse_order_text("4,5,2,3,1"), [3, 4, 1, 2, 0])
    assert np.array_equal(parse_order_text("4\n5\n2\n3\n1\n"), [3, 4, 1, 2, 0])
    assert np.array_equal(parse_order_text("4,5\n\n2,3\n1"), [3, 4, 1, 2, 0])
    with pytest.raises(ValueError, match="not an integer"):
        parse_order_text("1,two,3")
    with pytest.raises(ValueError, match="1-based"):
        parse_order_text("0,1,2")
    with pytest.raises(ValueError, match="empty"):
        parse_order_text("\n \n")


def test_order_file_round_trip(tmp_path):
    order = np.array([3, 4, 1, 2, 0])
    path = tmp_path / "order.txt"
    write_order_file(order, str(path))
    assert path.read_text() == "4\n5\n2\n3\n1\n"
    assert np.array_equal(load_order_file(str(path)), order)


def test_diffusion_data_equality(toy_network, toy_data):
    same = DiffusionData(toy_network, np.array([3, 4, 1, 2, 0]))
    assert same == toy_data
    assert hash(same) == hash(toy_data)
    different = DiffusionData(toy_network, np.array([0, 1, 2, 3, 4]))
    assert different != toy_data
