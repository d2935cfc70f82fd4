"""Weighted directed social networks: container, validation, random generator.

Connection weights are held as a dense (n, n) float array.  ``weights[i, j]``
is the strength of the connection *from j to i*, i.e. how strongly individual
``i`` attends to ``j``.  Row ``i`` therefore collects everything that can
influence ``i``.  All indices in this package are 0-based; file formats and
the command line use 1-based labels (see `load_network_csv` / the CLI docs).

Networks are immutable once constructed: the weight array is a private
copy (the CSV loader hands over the one array it parsed into) marked
read-only, so one network can safely be shared across fits, simulator runs
and worker processes, and `require_valid` checks it once.
`load_network_csv` is the one file reader: `numpy.loadtxt` reads the file
`CSV_BLOCK_ROWS` lines at a time, and only a block it refuses is read again
cell by cell, to accept quoted cells or name the bad line.
"""

from __future__ import annotations

import csv
import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Network",
    "GeneratorConfig",
    "NetworkFormatError",
    "validate",
    "total_connection",
    "generate_network",
    "load_network_csv",
    "write_network_csv",
]


# lines `load_network_csv` hands to numpy.loadtxt at a time
CSV_BLOCK_ROWS = 64


class NetworkFormatError(ValueError):
    """Raised when a network file cannot be parsed; carries the line number."""


@dataclass(frozen=True)
class Network:
    """A weighted directed network on ``n`` individuals.

    Parameters
    ----------
    weights : array-like, shape (n, n)
        Non-negative connection strengths, zero diagonal.  Asymmetry is
        allowed and meaningful.
    label : str
        Free-form name used in reports.
    """

    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_square(np.array(self.weights, dtype=float)))

    @classmethod
    def _adopt(cls, weights: np.ndarray, label: str) -> "Network":
        """A network holding ``weights`` itself, not a copy: for a float
        array that nothing else references, such as a freshly parsed file."""
        net = cls.__new__(cls)
        object.__setattr__(net, "weights", _frozen_square(weights))
        object.__setattr__(net, "label", label)
        return net

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @functools.cached_property
    def _problems(self) -> list[str]:
        """`validate`'s list for these weights, which never change."""
        return validate(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(
            np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.weights.shape, self.weights.tobytes()))


def _frozen_square(w: np.ndarray) -> np.ndarray:
    """``w``, marked read-only, after checking it is square with n >= 2."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weights must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise ValueError("a network needs at least 2 individuals")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for `generate_network`.

    ``sparsity_threshold`` is the probability mass removed: uniform draws
    below it become zero, so the expected fraction of absent connections
    equals the threshold.  ``multiplier_max`` scales whole rows by one
    uniform draw from [0, multiplier_max] per row, giving individuals
    heterogeneous overall connectedness; 0 disables the multiplier stage.
    """

    n: int = 100
    sparsity_threshold: float = 0.7
    multiplier_max: float = 3.0
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0.0 <= self.sparsity_threshold <= 1.0:
            raise ValueError("sparsity_threshold must lie in [0, 1]")
        if self.multiplier_max < 0:
            raise ValueError("multiplier_max must be >= 0")


def validate(network: Network) -> list[str]:
    """Check network invariants and return human-readable violations.

    Returns an empty list when the network is valid.  Each violation names
    the offending entries (1-based, as a user would see them in a file).
    """
    w = network.weights
    problems: list[str] = []
    bad = ~np.isfinite(w)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(
            f"non-finite weight at row {i + 1}, column {j + 1} "
            f"({np.count_nonzero(bad)} entries affected)"
        )
    neg = w < 0
    if neg.any():
        i, j = np.argwhere(neg)[0]
        problems.append(
            f"negative weight at row {i + 1}, column {j + 1} "
            f"({np.count_nonzero(neg)} entries affected)"
        )
    diag = np.diagonal(w)
    nz = np.flatnonzero(diag != 0.0)  # a NaN counts: nan != 0.0
    if nz.size:
        problems.append(
            f"nonzero diagonal (self-connection) for individual {nz[0] + 1} "
            f"({nz.size} entries affected)"
        )
    return problems


def require_valid(network: Network) -> None:
    """Raise ValueError listing all invariant violations, if any.  A
    network's weights are read-only, so it is validated once."""
    problems = network._problems
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))


def total_connection(network: Network, i: int) -> float:
    """Total incoming connection strength of individual ``i`` (0-based)."""
    if not 0 <= i < network.n:
        raise IndexError(f"individual index {i} out of range for n={network.n}")
    return float(network.weights[i].sum())


def generate_network(config: GeneratorConfig) -> Network:
    """Draw a random weighted directed network.

    Construction: every off-diagonal entry is uniform on [0, 1); entries
    below ``sparsity_threshold`` are set to zero; when ``multiplier_max > 0``
    each row is then scaled by its own uniform draw from
    [0, multiplier_max].  The diagonal is exactly zero.  Deterministic for
    a given ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w[w < config.sparsity_threshold] = 0.0
    if config.multiplier_max > 0:
        # one draw per row: heterogeneous overall connectedness
        row_scale = rng.uniform(0.0, config.multiplier_max, size=n)
        w *= row_scale[:, None]
    np.fill_diagonal(w, 0.0)
    return Network(w, label=f"generated(n={n}, seed={config.seed})")


def load_network_csv(path: str, header: bool = False) -> Network:
    """Read a square comma-separated weight matrix, labelled with ``path``.

    Parameters
    ----------
    path : str
        CSV file in UTF-8 (a leading byte-order mark is skipped), one row
        per line, with LF, CRLF or CR line ends.  Blank lines are ignored;
        cells may be quoted.
    header : bool
        Skip a single leading header row.

    Raises
    ------
    NetworkFormatError
        Naming the 1-based line of an empty or non-numeric cell or of a row
        whose width differs from the first row's; or for no data rows or a
        non-square result.
    """
    weights = None  # allocated from the first row's width
    n_rows = 0  # rows past the first row's width are counted, not stored
    line_no = 2 if header else 1  # of the next line read
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines
        if header:
            next(fh, None)
        while lines := list(itertools.islice(fh, CSV_BLOCK_ROWS)):
            block = _read_block(lines, line_no, path, None if weights is None else weights.shape[1])
            line_no += len(lines)
            if block.size == 0:
                continue
            if weights is None:
                weights = np.empty((block.shape[1], block.shape[1]))
            stored = block[:max(weights.shape[0] - n_rows, 0)]
            weights[n_rows:n_rows + stored.shape[0]] = stored
            n_rows += block.shape[0]
    if weights is None:
        raise NetworkFormatError(f"{path}: no data rows")
    if n_rows != weights.shape[1]:
        raise NetworkFormatError(
            f"{path}: matrix is {n_rows}x{weights.shape[1]}, expected square"
        )
    return Network._adopt(weights, label=path)


def _read_block(lines: list[str], line_no: int, path: str, width: int | None) -> np.ndarray:
    """The rows of ``lines``, the first of which is line ``line_no``, each
    ``width`` values wide (None: as wide as the first).  `numpy.loadtxt` reads
    a block of plain numbers; a block it refuses or of another width is read
    line by line as CSV cells, raising a NetworkFormatError naming the line."""
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if block.size == 0 or block.shape[1] == (width or block.shape[1]):
            return block
    except ValueError:
        pass
    rows = []
    for line_no, line in enumerate(lines, start=line_no):
        cells = [c.strip() for c in next(csv.reader([line]), [])]
        if not any(cells):
            continue
        if "" in cells:
            raise NetworkFormatError(f"{path}, line {line_no}: empty cell in matrix row")
        row = []
        for c in cells:
            try:
                row.append(float(c))
            except ValueError:
                raise NetworkFormatError(f"{path}, line {line_no}: {c!r} is not a number") from None
        width = width or len(row)
        if len(row) != width:
            raise NetworkFormatError(
                f"{path}, line {line_no}: row has {len(row)} entries, expected {width}"
            )
        rows.append(row)
    return np.array(rows, ndmin=2)


def write_network_csv(network: Network, path: str) -> None:
    """Write the weight matrix as plain CSV (no header)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in network.weights:
            writer.writerow([repr(float(v)) for v in row])
