import hashlib
import math

import numpy as np
import pytest

from contagionfit import (
    DiffusionData,
    GeneratorConfig,
    Network,
    build_event_table,
    custom_rule,
    frequency_dependent_rule,
    generate_network,
    negative_log_likelihood,
    proportional_rule,
    rule_from_name,
    simple_rule,
    simulate_diffusion,
    write_trace_csv,
)

FIRST_EVENT_TOL = 0.01       # 50k draws, binomial SE ~ 0.0018
CONDITIONED_TOL = 0.01
MINI_CONSISTENCY_SIGMA = 4.0


def test_simulation_deterministic(toy_network):
    a, ta = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=12)
    b, tb = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=12)
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(ta.probabilities, tb.probabilities, equal_nan=True)
    c, _ = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=13)
    # different stream; orders may coincide by chance on 5 nodes, so compare
    # the underlying probability draws via a bigger network instead
    big = np.random.default_rng(0).uniform(0.1, 1.0, size=(30, 30))
    np.fill_diagonal(big, 0.0)
    net = Network(big)
    d1, _ = simulate_diffusion(net, simple_rule(), [2.0], seed=12)
    d2, _ = simulate_diffusion(net, simple_rule(), [2.0], seed=13)
    assert not np.array_equal(d1.order, d2.order)


def test_trace_equality_is_a_bool(toy_network):
    # == on traces compares identity, not their arrays as a tuple, which
    # would raise "truth value of an array ... is ambiguous"
    _, ta = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=12)
    _, tb = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=12)
    assert (ta == ta) is True
    assert (ta == tb) is False


def test_simulation_is_complete_permutation(toy_network):
    data, trace = simulate_diffusion(toy_network, proportional_rule(), [3.0], seed=5)
    assert sorted(data.order.tolist()) == [0, 1, 2, 3, 4]
    assert trace.n_events == 5
    assert trace.probabilities.shape == (5, 5)


def test_stop_after_is_prefix(toy_network):
    full, _ = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=9)
    part, trace = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=9, stop_after=3)
    assert np.array_equal(part.order, full.order[:3])
    assert trace.probabilities.shape == (3, 5)


def test_trace_probabilities_rows(toy_network):
    data, trace = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=21)
    informed = set()
    for k in range(trace.n_events):
        row = trace.probabilities[k]
        naive = [i for i in range(5) if i not in informed]
        # naive entries form a probability distribution
        assert np.nansum(row) == pytest.approx(1.0, abs=1e-12)
        assert all(row[i] >= 0 for i in naive)
        # informed entries are blanked out
        for i in informed:
            assert math.isnan(row[i])
        informed.add(int(data.order[k]))


def test_trace_first_event_uniform(toy_network):
    # nobody informed yet: every start is equally likely under any rule
    _, trace = simulate_diffusion(toy_network, simple_rule(), [7.0], seed=2)
    assert np.allclose(trace.probabilities[0], 0.2)


def test_first_acquirer_frequencies(toy_network):
    counts = np.zeros(5)
    rng = np.random.default_rng(1234)
    for _ in range(20000):
        data, _ = simulate_diffusion(
            toy_network, simple_rule(), [2.0], seed=rng, stop_after=1
        )
        counts[data.order[0]] += 1
    freq = counts / counts.sum()
    assert np.allclose(freq, 0.2, atol=FIRST_EVENT_TOL)


def test_conditioned_second_event(toy_network):
    # individual 4 informed (0-based 3): with the simple rule at s = 10,
    # individual 5 gets rate 10 * 0.8 = 8 while 1-3 have no ties to 4,
    # so P(next = 5) = (1 + 8) / ((1 + 8) + 1 + 1 + 1) = 0.75
    counts = 0
    n_draws = 20000
    rng = np.random.default_rng(77)
    for _ in range(n_draws):
        data, _ = simulate_diffusion(
            toy_network,
            simple_rule(),
            [10.0],
            seed=rng,
            stop_after=1,
            initially_informed=[3],
        )
        counts += data.order[0] == 4
    expected = 9.0 / 12.0
    assert counts / n_draws == pytest.approx(expected, abs=CONDITIONED_TOL)


def test_initially_informed_excluded(toy_network):
    data, trace = simulate_diffusion(
        toy_network, simple_rule(), [2.0], seed=3, initially_informed=[0, 3]
    )
    assert sorted(data.order.tolist()) == [1, 2, 4]
    # seeded individuals stay blank in every trace row
    assert np.isnan(trace.probabilities[:, 0]).all()
    assert np.isnan(trace.probabilities[:, 3]).all()


def test_simulator_matches_likelihood_small():
    # empirical order frequencies on a 4-node network vs exp(-NLL)
    rng = np.random.default_rng(99)
    w = rng.uniform(0.2, 1.0, size=(4, 4))
    np.fill_diagonal(w, 0.0)
    net = Network(w)
    rule = rule_from_name("freqdep")
    params = [3.0, 2.0]

    n_sims = 30000
    counts: dict[tuple, int] = {}
    sim_rng = np.random.default_rng(7)
    for _ in range(n_sims):
        data, _ = simulate_diffusion(net, rule, params, seed=sim_rng)
        key = tuple(data.order.tolist())
        counts[key] = counts.get(key, 0) + 1

    # every observed order's frequency sits near its exact probability
    for order, count in counts.items():
        table = build_event_table(DiffusionData(net, np.array(order)))
        p = math.exp(-negative_log_likelihood(rule, params, table))
        se = math.sqrt(p * (1 - p) / n_sims)
        assert abs(count / n_sims - p) <= MINI_CONSISTENCY_SIGMA * max(se, 1e-4)


def test_seed_types_equivalent(toy_network):
    a, _ = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=42)
    b, _ = simulate_diffusion(
        toy_network, simple_rule(), [2.0], seed=np.random.SeedSequence(42)
    )
    c, _ = simulate_diffusion(
        toy_network, simple_rule(), [2.0], seed=np.random.default_rng(42)
    )
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.order, c.order)


def test_simulate_validation(toy_network):
    with pytest.raises(ValueError):
        simulate_diffusion(toy_network, simple_rule(), [-1.0])
    with pytest.raises(ValueError):
        simulate_diffusion(toy_network, simple_rule(), [1.0], stop_after=0)
    with pytest.raises(ValueError):
        simulate_diffusion(toy_network, simple_rule(), [1.0], stop_after=6)
    with pytest.raises(ValueError):
        simulate_diffusion(toy_network, simple_rule(), [1.0], initially_informed=[9])
    bad = Network(np.full((3, 3), -1.0) + np.eye(3))
    with pytest.raises(ValueError):
        simulate_diffusion(bad, simple_rule(), [1.0])


def test_trace_csv_round_trip(tmp_path, toy_network):
    data, trace = simulate_diffusion(toy_network, simple_rule(), [2.0], seed=4)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "event,acquirer,prob_1,prob_2,prob_3,prob_4,prob_5"
    assert len(lines) == 6
    first = lines[1].split(",")
    # first event: 1-based acquirer, uniform probabilities
    assert first[0] == "1"
    assert int(first[1]) == data.order[0] + 1
    assert all(float(x) == pytest.approx(0.2) for x in first[2:])
    # NaN cells written as empty strings in later events
    last = lines[-1].split(",")
    assert "" in last[2:]


def pinned_network(n, seed, density):
    """Random weights with a zero row (1), an individual nobody attends to
    (2) and an isolated individual (3)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 5.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(w, 0.0)
    w[1] = 0.0
    w[:, 2] = 0.0
    w[3] = 0.0
    w[:, 3] = 0.0
    return Network(w)


def linked_informed_count(params, a, z):
    return params[0] * float(np.count_nonzero(a * z))


# (network, rule, params, seed, options) -> the order and the SHA-256 of
# trace.probabilities.tobytes() recorded from the event-by-event simulator
# that re-rated every naive individual at every event
PINNED_DRAWS = {
    "asocial": (
        (12, 1, 0.4), "asocial", [], 11, {},
        [1, 6, 8, 0, 3, 11, 2, 4, 10, 7, 5, 9],
        "d3660d1409b3f3a817b7467ab5bdcb941d6a0f4254571b12fef37c0b3c08f963"),
    "simple": (
        (12, 2, 0.4), "simple", [2.0], 12, {},
        [3, 11, 4, 0, 5, 8, 9, 2, 10, 7, 1, 6],
        "0cd8fd87a2472df8570100dd83feda2dc073791593cb1b43108a4844cf4276e6"),
    "proportional": (
        (12, 3, 0.4), "proportional", [3.0], 13, {},
        [10, 9, 7, 3, 1, 11, 6, 0, 8, 5, 2, 4],
        "d5d2f61a36dcd9cb07552d5b564d8f3724054b8da3c80795b782de966abd6e7c"),
    "freqdep": (
        (12, 4, 0.4), "freqdep", [3.0, 2.0], 14, {},
        [9, 4, 10, 8, 5, 6, 7, 3, 2, 11, 0, 1],
        "726fc3bff1ebae37f03f5752a956fd3acebed194ee77eeb059fe5fdfbb20b983"),
    "threshold": (
        (12, 5, 0.4), "threshold", [2.0, 6.0], 15, {},
        [8, 7, 4, 1, 6, 2, 10, 5, 9, 11, 0, 3],
        "b3df12f79b9e5d9ff1ed227c8c52df141ba4805dc0c868fab1e9fa850cd14e2a"),
    "freqdep_f_0.2": (
        (12, 6, 0.7), "freqdep", [10.0, 0.2], 16, {},
        [6, 5, 0, 7, 9, 1, 11, 10, 2, 8, 4, 3],
        "4757cffbb6b235e569e57686e3fb981031988ef01e33a74795d819560a14d99e"),
    "freqdep_s_1e6": (
        (12, 7, 0.4), "freqdep", [1e6, 3.0], 17, {},
        [10, 8, 5, 6, 0, 4, 9, 7, 11, 2, 1, 3],
        "b910a9daa3056c82f05721fd0e26220eadc78bd9b2ad1170054677b05b6084c6"),
    "stop_after": (
        (40, 8, 0.2), "simple", [1.5], 18, {"stop_after": 9},
        [15, 30, 16, 7, 39, 27, 28, 25, 20],
        "177d1563708775f6ecdcd19a4ee855115acaee0f06022d0c96c2e0f9f8275ab0"),
    "initially_informed": (
        (12, 9, 0.4), "freqdep", [4.0, 1.5], 19, {"initially_informed": (0, 5, 7)},
        [6, 11, 4, 2, 8, 10, 9, 3, 1],
        "c4cef111ff677c956aef2f45db6641222ebb30b7c583da5b1f055e27c47611ad"),
    "full_rate": (
        (12, 10, 0.4), None, [1.0], 20, {},
        [3, 6, 0, 7, 4, 2, 5, 11, 10, 8, 9, 1],
        "5e5082a053e33673c813b6ca27c31f707754648c135bb216468d826c86fe4da9"),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRAWS))
def test_pinned_draws(case):
    net_args, kind, params, seed, options, order, digest = PINNED_DRAWS[case]
    rule = (rule_from_name(kind) if kind else
            custom_rule("count", ["s"], rate=linked_informed_count))
    data, trace = simulate_diffusion(pinned_network(*net_args), rule, params, seed=seed, **options)
    assert data.order.tolist() == order
    assert "probabilities" not in vars(trace)  # built on first access only
    assert hashlib.sha256(trace.probabilities.tobytes()).hexdigest() == digest


def test_pinned_draws_from_one_shared_generator():
    # criterion 04's network and parameters: 50 diffusions read one stream
    net = generate_network(
        GeneratorConfig(n=5, sparsity_threshold=0.5, multiplier_max=2.0, seed=11)
    )
    rng = np.random.default_rng(2024)
    orders, traces = [], hashlib.sha256()
    for _ in range(50):
        data, trace = simulate_diffusion(net, frequency_dependent_rule(), [3.0, 2.0], seed=rng)
        orders.append(data.order.tolist())
        traces.update(trace.probabilities.tobytes())
    assert orders[:5] == [[3, 1, 2, 4, 0], [0, 1, 2, 3, 4], [2, 1, 0, 4, 3],
                          [2, 4, 3, 1, 0], [1, 2, 0, 4, 3]]
    assert hashlib.sha256(repr(orders).encode()).hexdigest() == (
        "7af3bc3b4f0982accd1c4ce849568fdde0dd793328e62dc44a2ed735cd20cb27")
    assert traces.hexdigest() == (
        "29de896edc681e9c5064aae3525b5be9feacca01ec3c788d730c817a552cc532")
