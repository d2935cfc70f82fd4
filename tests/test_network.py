import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contagionfit import (
    GeneratorConfig,
    Network,
    NetworkFormatError,
    generate_network,
    load_network_csv,
    total_connection,
    validate,
    write_network_csv,
)
from contagionfit import network as network_module

# generated-network row-sum moments (with and without the row multiplier)
EXPECTED_MEAN_WITH_MULT = 38.0
EXPECTED_SD_WITH_MULT = 23.0
EXPECTED_MEAN_NO_MULT = 25.0
EXPECTED_SD_NO_MULT = 4.0
MOMENT_RTOL = 0.15


def test_total_connection_examples(toy_network):
    assert total_connection(toy_network, 0) == pytest.approx(1.0)
    assert total_connection(toy_network, 3) == pytest.approx(0.8)


def test_total_connection_zero_row():
    w = np.zeros((3, 3))
    w[0, 1] = 2.0
    assert total_connection(Network(w), 2) == 0.0


def test_total_connection_index_error(toy_network):
    with pytest.raises(IndexError):
        total_connection(toy_network, 5)


def test_validate_clean(toy_network):
    assert validate(toy_network) == []


def test_validate_reports_violations():
    w = np.array([[0.0, -1.0], [np.nan, 0.5]])
    problems = validate(Network(w))
    text = " ".join(problems)
    assert any("negative" in p for p in problems)
    assert any("non-finite" in p for p in problems)
    assert any("diagonal" in p for p in problems)
    # indices are reported 1-based
    assert "row 1, column 2" in text


def test_validate_counts_a_nan_diagonal_as_nonzero():
    w = np.array([[np.nan, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    problems = validate(Network(w))
    assert problems[-1] == "nonzero diagonal (self-connection) for individual 1 (2 entries affected)"


def test_require_valid_checks_a_network_once(toy_network, monkeypatch):
    calls = []
    monkeypatch.setattr(network_module, "validate", lambda net: calls.append(net) or [])
    for _ in range(3):
        network_module.require_valid(toy_network)
    assert calls == [toy_network]


def test_network_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        Network(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        Network(np.zeros((1, 1)))


def test_network_weights_are_read_only(toy_network):
    with pytest.raises(ValueError):
        toy_network.weights[0, 1] = 9.0


def test_network_equality(toy_network):
    other = Network(toy_network.weights.copy())
    assert other == toy_network
    perturbed = toy_network.weights.copy()
    perturbed[0, 1] += 1e-9
    assert Network(perturbed) != toy_network


def test_generator_deterministic():
    cfg = GeneratorConfig(n=30, seed=42)
    a = generate_network(cfg)
    b = generate_network(cfg)
    assert np.array_equal(a.weights, b.weights)
    c = generate_network(GeneratorConfig(n=30, seed=43))
    assert not np.array_equal(a.weights, c.weights)


def test_generator_all_zero_at_threshold_one():
    net = generate_network(GeneratorConfig(n=25, sparsity_threshold=1.0, seed=1))
    assert np.all(net.weights == 0.0)


def test_generator_weight_range_without_multiplier():
    net = generate_network(
        GeneratorConfig(n=40, sparsity_threshold=0.7, multiplier_max=0.0, seed=7)
    )
    w = net.weights
    off = w[~np.eye(40, dtype=bool)]
    nz = off[off > 0]
    assert nz.min() >= 0.7 and nz.max() < 1.0
    assert np.all(np.diagonal(w) == 0.0)
    assert validate(net) == []


def test_generator_zero_fraction_matches_threshold():
    threshold = 0.7
    net = generate_network(GeneratorConfig(n=100, sparsity_threshold=threshold, seed=3))
    off = net.weights[~np.eye(100, dtype=bool)]
    frac = np.mean(off == 0.0)
    n = off.size
    # binomial 4-sigma band around the removal probability
    assert abs(frac - threshold) < 4 * math.sqrt(threshold * (1 - threshold) / n)


def test_generator_row_sum_moments_with_multiplier():
    sums = []
    for seed in range(12):
        net = generate_network(
            GeneratorConfig(n=100, sparsity_threshold=0.7, multiplier_max=3.0, seed=seed)
        )
        sums.append(net.weights.sum(axis=1))
    sums = np.concatenate(sums)
    assert sums.mean() == pytest.approx(EXPECTED_MEAN_WITH_MULT, rel=MOMENT_RTOL)
    assert sums.std() == pytest.approx(EXPECTED_SD_WITH_MULT, rel=MOMENT_RTOL)


def test_generator_row_sum_moments_without_multiplier():
    sums = []
    for seed in range(12):
        net = generate_network(
            GeneratorConfig(n=100, sparsity_threshold=0.7, multiplier_max=0.0, seed=seed)
        )
        sums.append(net.weights.sum(axis=1))
    sums = np.concatenate(sums)
    assert sums.mean() == pytest.approx(EXPECTED_MEAN_NO_MULT, rel=MOMENT_RTOL)
    assert sums.std() == pytest.approx(EXPECTED_SD_NO_MULT, rel=MOMENT_RTOL)


def test_generator_multiplier_scales_rows():
    base = generate_network(
        GeneratorConfig(n=50, sparsity_threshold=0.7, multiplier_max=0.0, seed=9)
    )
    scaled = generate_network(
        GeneratorConfig(n=50, sparsity_threshold=0.7, multiplier_max=3.0, seed=9)
    )
    # same uniform draws, so each row of the scaled net is a multiple of the
    # unscaled row wherever that row is nonzero
    for i in range(50):
        nz = base.weights[i] > 0
        if nz.any():
            ratios = scaled.weights[i, nz] / base.weights[i, nz]
            assert np.allclose(ratios, ratios[0])
            assert 0.0 <= ratios[0] <= 3.0


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=10, sparsity_threshold=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig(n=10, multiplier_max=-1.0)


def test_csv_round_trip(tmp_path, toy_network):
    path = tmp_path / "net.csv"
    write_network_csv(toy_network, str(path))
    back = load_network_csv(str(path))
    assert np.array_equal(back.weights, toy_network.weights)
    assert not back.weights.flags.writeable


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(0.0, 1e300))
))
def test_csv_round_trip_is_exact(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("net") / "net.csv"
    write_network_csv(Network(weights), str(path))
    assert np.array_equal(load_network_csv(str(path)).weights, weights)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(
           lambda n: arrays(np.float64, (n, n), elements=st.floats(0.0, 1e300))),
       st.sampled_from(["{!r}", "{:.17g}", "{:.17e}"]),
       st.sampled_from(["\n", "\r\n"]),
       st.booleans(),
       st.lists(st.integers(0, 6), max_size=3))
def test_csv_fast_path_matches_line_scan(tmp_path_factory, weights, fmt, newline, header,
                                         blank_after):
    # numpy.loadtxt reads a file of plain numbers (17 significant digits, CRLF
    # line ends, blank lines, a header row), and the cell-by-cell read the same
    # file with every cell quoted, into the same matrix
    lines = [",".join(fmt.format(float(v)) for v in row) for row in weights]
    for i in sorted(blank_after, reverse=True):
        lines.insert(min(i, len(lines)), "")
    if header:
        lines.insert(0, ",".join(f"v{j}" for j in range(weights.shape[0])))
    quoted = [",".join(f'"{c}"' for c in line.split(",")) if line else "" for line in lines]
    for text in (lines, quoted):
        path = tmp_path_factory.mktemp("net") / "net.csv"
        path.write_bytes((newline.join(text) + newline).encode())
        if weights.shape[0] < 2:
            with pytest.raises(ValueError, match="at least 2 individuals"):
                load_network_csv(str(path), header=header)
        else:
            assert np.array_equal(load_network_csv(str(path), header=header).weights, weights)


def test_csv_header_flag(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("a,b\n0,1\n2,0\n")
    net = load_network_csv(str(path), header=True)
    assert net.weights[1, 0] == 2.0
    with pytest.raises(NetworkFormatError):
        load_network_csv(str(path), header=False)


def test_csv_quoted_cells(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text('"0","1.5"\n2, 0\n\n')
    assert np.array_equal(load_network_csv(str(path)).weights, [[0.0, 1.5], [2.0, 0.0]])


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1,2\n3,0\n4,5,0\n")
    with pytest.raises(NetworkFormatError, match="line 2"):
        load_network_csv(str(path))


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1\nx,0\n")
    with pytest.raises(NetworkFormatError, match="line 2"):
        load_network_csv(str(path))


def test_csv_non_square(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1,2\n3,0,4\n")
    with pytest.raises(NetworkFormatError, match="square"):
        load_network_csv(str(path))
    # rows past the first row's width are counted, not stored
    path.write_text("0,1\n2,0\n3,4\n")
    with pytest.raises(NetworkFormatError, match="matrix is 3x2, expected square"):
        load_network_csv(str(path))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("\n\n")
    with pytest.raises(NetworkFormatError, match="no data"):
        load_network_csv(str(path))


def test_csv_lines_past_the_first_block(tmp_path):
    # line numbers count every line of the file, blank or not, whichever
    # reader took its block: numpy.loadtxt or the cell-by-cell read
    b = network_module.CSV_BLOCK_ROWS
    path = tmp_path / "net.csv"

    def load(lines, end="\n", header=False):
        path.write_bytes((end.join(lines) + end).encode())
        return load_network_csv(str(path), header=header).weights

    def matrix(n_rows, width):
        return [",".join(f"{i}.{j}" for j in range(width)) for i in range(n_rows)]

    n = b + 6
    plain = matrix(n, n)
    expected = np.array([[float(c) for c in line.split(",")] for line in plain])
    assert np.array_equal(load(plain), expected)
    assert np.array_equal(load(plain, "\r"), expected)
    assert np.array_equal(load(plain[:b + 2] + ["   ", "\t"] + plain[b + 2:]), expected)
    quoted = [",".join(f'"{c}"' for c in line.split(",")) for line in plain]
    assert np.array_equal(load(plain[:b + 2] + quoted[b + 2:]), expected)

    bad = "x" + plain[-1][plain[-1].index(","):]
    with pytest.raises(NetworkFormatError, match=f"line {n}: 'x' is not a number"):
        load(plain[:-1] + [bad])
    # the same line after two whitespace-only lines of its own block
    with pytest.raises(NetworkFormatError, match=f"line {n}: 'x' is not a number"):
        load(plain[:b + 2] + ["   ", "\t"] + plain[b + 2:-3] + [bad])
    short = plain[b].rsplit(",", 1)[0]
    ragged = f"line {b + 1}: row has {n - 1} entries, expected {n}"
    with pytest.raises(NetworkFormatError, match=ragged):
        load(plain[:b] + [short] + plain[b + 1:])
    with pytest.raises(NetworkFormatError, match=ragged):  # after a blank line
        load(plain[:b - 1] + ["", short] + plain[b + 1:])
    with pytest.raises(NetworkFormatError, match=ragged):  # after a header line
        load(["h"] + plain[:b - 1] + [short] + plain[b:], header=True)
    with pytest.raises(NetworkFormatError, match=f"line {b + 1}: row has 4 entries, expected 3"):
        load(matrix(b, 3) + matrix(n, 4)[b:])

    wide = matrix(2 * b + 22, 2 * b + 22)
    wide[2 * b] = ",".join(f'"{c}"' for c in wide[2 * b].split(","))
    wide[2 * b + 2] += ",1"
    with pytest.raises(NetworkFormatError,
                       match=f"line {2 * b + 3}: row has {2 * b + 23} entries, expected"):
        load(wide)
    with pytest.raises(NetworkFormatError, match="matrix is 151x150, expected square"):
        load(matrix(151, 150))
