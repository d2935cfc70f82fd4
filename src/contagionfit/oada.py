"""Order-of-acquisition likelihood for contagion spread on a network.

Only the *order* in which individuals acquire the behaviour enters the
likelihood, so any shared time-varying baseline rate cancels.  At the k-th
acquisition event the probability that naive individual ``i`` is the one
acquiring is::

    P(i | history) = R_i / sum_{j naive} R_j,     R_j = T_j + 1

where ``T_j`` is the social transmission rate of rule under evaluation and
the constant 1 is the normalized asocial baseline.  The negative
log-likelihood is the sum of ``-log P`` over observed events.

Partial diffusions (fewer events than individuals) are handled by plain
conditioning: the likelihood is the product over observed events only, with
no censoring term for individuals that never acquired.

`EventTable` stores the diffusion as *runs*.  A naive individual's sums
``(w_informed, total)`` change only when one of its in-neighbours acquires,
so each individual's time as a naive individual splits into a few stretches
of events with constant sums, and every built-in rate is constant along a
stretch.  One evaluation calls the rule's ``sums_rate`` once per run and
forms the D event denominators from one prefix sum of rate changes: a run
adds its rate minus the rate of the run it replaces, and an acquirer's
rate leaves after its event.  It costs O(runs + D), where D is the number of
events and runs <= n + the number of edges whose source acquires before
its target: about 11 000 runs for n = 1000 at 2 % density, against the
500 500 (event, naive individual) slots of a complete diffusion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .network import Network, require_valid
from .rules import TransmissionRule, _check_rates

__all__ = [
    "DiffusionData",
    "EventTable",
    "build_event_table",
    "negative_log_likelihood",
    "asocial_nll",
    "aicc",
    "parse_order_text",
    "load_order_file",
    "write_order_file",
]


@dataclass(frozen=True)
class DiffusionData:
    """A network plus the observed acquisition order (0-based indices)."""

    network: Network
    order: np.ndarray
    label: str = ""

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64).copy()
        if order.ndim != 1 or order.size < 1:
            raise ValueError("order must be a non-empty 1-d index sequence")
        n = self.network.n
        if order.min() < 0 or order.max() >= n:
            bad = order[(order < 0) | (order >= n)][0]
            raise ValueError(
                f"order references individual {bad + 1} (1-based) but the "
                f"network has {n} individuals"
            )
        uniq, counts = np.unique(order, return_counts=True)
        if (counts > 1).any():
            dup = uniq[counts > 1][0]
            raise ValueError(
                f"individual {dup + 1} (1-based) appears more than once in order"
            )
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    @property
    def n_events(self) -> int:
        return self.order.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffusionData):
            return NotImplemented
        return bool(np.array_equal(self.order, other.order)) and self.network == other.network

    def __hash__(self):
        return hash((self.network, self.order.tobytes()))


@dataclass(frozen=True)
class EventTable:
    """Per-run likelihood ingredients of one diffusion.

    Run ``r`` is a stretch of events ``run_start[r] <= k < run_end[r]``
    during which individual ``run_individual[r]`` is naive and its sums
    ``run_w[r]`` (connection to informed individuals) and ``run_total[r]``
    (total connection) stay constant.  A run starts at event 0 or right
    after an in-neighbour acquires; it ends when the next in-neighbour
    acquires or the individual itself acquires.  ``run_prev[r]`` is the run
    of the same individual that ``r`` replaces (-1 for the runs starting at
    event 0, which are runs ``0..n-1`` of individuals ``0..n-1``); runs are
    numbered in order of ``run_start``.  The sums are recorded from the
    naive-set state the simulator also steps (``_NaiveSums``): once every
    in-neighbour is informed, ``run_w`` is exactly ``run_total``, so the
    weight to naive individuals ``run_total - run_w`` is exactly 0, with no
    summation residue.  ``acquirer_run[k]`` is the run of event k's
    acquirer and ``n_naive[k]`` the size of the naive set just before
    event k.

    Event k's denominator is ``n_naive[k] + S_k``, where ``S_k`` sums the
    rates of the runs present at k.  The likelihood forms every ``S_k`` as
    one prefix sum: a run adds its rate minus the rate of the run it
    replaces at its start, and an acquirer's rate leaves after its event.
    With ε = 2**-53 the absolute round-off error of ``S_k`` is of order
    ε·(R_k + k)·M_k, where R_k is the number of runs started by event k and
    M_k the largest rate, rate change or ``S`` met up to k; a direct sum over
    the naive set has ε·n·S_k.  The difference matters only where very
    large rates left the naive set before a small denominator.  Measured:
    the NLL agrees with an event-by-event sum to 1e-10 relative for rates
    up to 1e6 on random small networks, and to 3e-15 at threshold c = 1e8
    and simple s = 1e6 on 1000-individual networks at 2 % density.

    The dense layout, one slot per (event, naive individual), is available
    as read-only views derived on first access: ``naive_flat``,
    ``w_informed_flat``, ``total_flat``, ``flat_start`` (block offsets: event
    k spans ``flat_start[k]:flat_start[k+1]``, naive individuals in
    ascending order) and ``acquirer_slot``.  The likelihood never reads them.
    """

    data: DiffusionData
    run_individual: np.ndarray  # (R,) individual of each run
    run_w: np.ndarray           # (R,) sum of connections to informed
    run_total: np.ndarray       # (R,) total connection strength
    run_start: np.ndarray       # (R,) first event of the run, non-decreasing
    run_end: np.ndarray         # (R,) one past the last event of the run
    run_prev: np.ndarray        # (R,) run replaced at run_start, -1 if none
    acquirer_run: np.ndarray    # (D,) run of each event's acquirer
    n_naive: np.ndarray         # (D,) naive-set size before each event

    @property
    def n_events(self) -> int:
        return self.data.n_events

    @property
    def n_runs(self) -> int:
        return self.run_w.size

    @functools.cached_property
    def _flow_index(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(first replacing run, start offset of each event's runs, events
        where no run starts), for `_nll_from_rates`."""
        first = self.data.network.n
        bounds = np.searchsorted(self.run_start, np.arange(self.n_events + 1))
        empty = np.flatnonzero(bounds[:-1] == bounds[1:])
        return first, bounds[:-1], empty

    @functools.cached_property
    def _flat(self) -> tuple[np.ndarray, ...]:
        span = self.run_end - self.run_start
        run = np.repeat(np.arange(self.n_runs), span)
        event = self.run_start[run] + np.arange(run.size) - np.repeat(np.cumsum(span) - span, span)
        run = run[np.lexsort((self.run_individual[run], event))]
        starts = np.zeros(self.n_events + 1, dtype=np.int64)
        np.cumsum(self.n_naive, out=starts[1:])
        event = np.repeat(np.arange(self.n_events), self.n_naive)
        acq_slot = np.flatnonzero(run == self.acquirer_run[event])
        views = (self.run_individual[run], self.run_w[run], self.run_total[run],
                 starts, acq_slot)
        for arr in views:
            arr.setflags(write=False)
        return views

    @property
    def naive_flat(self) -> np.ndarray:
        return self._flat[0]

    @property
    def w_informed_flat(self) -> np.ndarray:
        return self._flat[1]

    @property
    def total_flat(self) -> np.ndarray:
        return self._flat[2]

    @property
    def flat_start(self) -> np.ndarray:
        return self._flat[3]

    @property
    def acquirer_slot(self) -> np.ndarray:
        return self._flat[4]


class _NaiveSums:
    """The naive mask, and each naive individual's ``w_informed`` and
    ``totals``, stepped one acquisition at a time by the event table, the
    generic likelihood and the simulator alike.  Naive in-neighbours are
    counted, and ``w_informed`` snaps to ``totals`` when the count reaches
    0, so saturation is exact."""

    def __init__(self, network: Network, informed=()):
        self.weights = network.weights
        self.totals = self.weights.sum(axis=1)
        self.w_informed = np.zeros(network.n)
        self.naive = np.ones(network.n, dtype=bool)
        self._linked = self.weights > 0
        self._naive_links = self._linked.sum(axis=1)
        for i in dict.fromkeys(informed):
            self.step(i)

    def step(self, acq: int) -> np.ndarray:
        """Inform ``acq``; return the mask of the naive individuals whose
        sums changed, those ``i`` with ``a_{i,acq} > 0``."""
        self.naive[acq] = False
        linked = self._linked[:, acq]
        # every row is updated (informed rows are never read): fewer array
        # calls than indexing the changed rows, and adding 0.0 is exact
        self.w_informed += self.weights[:, acq]
        self._naive_links -= linked
        np.copyto(self.w_informed, self.totals, where=self._naive_links == 0)
        return linked & self.naive


def _naive_rates(rule: TransmissionRule, params, sums: _NaiveSums) -> tuple[np.ndarray, np.ndarray]:
    """(naive individuals in ascending order, their validated social rates)."""
    naive = sums.naive.nonzero()[0]
    if rule.sums_rate is not None:
        t = rule.sums_rate(params, sums.w_informed[naive], sums.totals[naive])
    else:
        z = (~sums.naive).astype(float)
        t = [rule.full_rate(params, sums.weights[i], z) for i in naive]
    return naive, _check_rates(rule, t)


def build_event_table(data: DiffusionData) -> EventTable:
    """Step the naive-set state through the events and record each naive
    individual's runs."""
    require_valid(data.network)
    n = data.network.n
    order = data.order
    d = order.size

    sums = _NaiveSums(data.network)
    current = np.arange(n)            # open run of each individual
    # run chunks in order of their start; runs 0..n-1 open at event 0
    who, run_w = [np.arange(n)], [np.zeros(n)]
    start, prev = [np.zeros(n, dtype=np.int64)], [np.full(n, -1)]
    acq_run = np.empty(d, dtype=np.int64)
    n_runs = n

    for k, acq in enumerate(order):
        acq_run[k] = current[acq]
        nbrs = sums.step(acq).nonzero()[0]
        if k + 1 == d or nbrs.size == 0:
            continue
        who.append(nbrs)
        run_w.append(sums.w_informed[nbrs])
        start.append(np.full(nbrs.size, k + 1, dtype=np.int64))
        prev.append(current[nbrs])
        current[nbrs] = np.arange(n_runs, n_runs + nbrs.size)
        n_runs += nbrs.size

    who, run_w, start, prev = (np.concatenate(c) for c in (who, run_w, start, prev))
    end = np.full(n_runs, d, dtype=np.int64)
    end[acq_run] = np.arange(1, d + 1)
    end[prev[n:]] = start[n:]
    arrays = dict(
        run_individual=who, run_w=run_w, run_total=sums.totals[who], run_start=start,
        run_end=end, run_prev=prev, acquirer_run=acq_run, n_naive=n - np.arange(d),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return EventTable(data=data, **arrays)


def _nll_from_rates(t: np.ndarray, table: EventTable) -> float:
    """NLL from one social rate per run.

    Returns +inf instead of nan when rates overflow, so optimizers always
    see an ordered objective.
    """
    first, groups, empty = table._flow_index
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        change = np.append(t, 0.0)  # the pad lets trailing empty groups index R
        change[first:-1] -= t[table.run_prev[first:]]
        flow = np.add.reduceat(change, groups)
        flow[empty] = 0.0
        t_acq = t[table.acquirer_run]
        flow[1:] -= t_acq[:-1]
        denom = table.n_naive + np.cumsum(flow)
        val = float(np.log(denom).sum() - np.log1p(t_acq).sum())
    return val if math.isfinite(val) else math.inf


def _nll_generic(rule: TransmissionRule, params: np.ndarray, table: EventTable) -> float:
    """General path for rules that need the full (connections, status) view."""
    sums = _NaiveSums(table.data.network)
    nll = 0.0
    for acq in table.data.order:
        naive, t = _naive_rates(rule, params, sums)
        r = t + 1.0
        nll += math.log(r.sum()) - math.log(r[np.searchsorted(naive, acq)])
        sums.step(acq)
    return nll


def _nll(rule: TransmissionRule, params: np.ndarray, table: EventTable) -> float:
    """NLL by the rule's one path, with every rate checked: the generic walk
    for rules without ``sums_rate``, else one rate per run."""
    if rule.sums_rate is None:
        return _nll_generic(rule, params, table)
    t = rule.sums_rate(params, table.run_w, table.run_total)
    return _nll_from_rates(_check_rates(rule, t), table)


def negative_log_likelihood(rule: TransmissionRule, params, table: EventTable) -> float:
    """Exact NLL of the observed acquisition order under ``rule``.

    Parameters are validated against the rule's box bounds.  Raises
    ValueError if the rule produces a non-finite or negative rate anywhere
    in the table, or a non-finite likelihood.
    """
    nll = _nll(rule, rule.check_params(params), table)
    if not np.isfinite(nll):
        raise ValueError(f"rule {rule.kind!r} produced a non-finite likelihood")
    return nll


def asocial_nll(table: EventTable) -> float:
    """Closed form: sum of log naive-set sizes.

    Equals log(n!) for a complete diffusion on n individuals.
    """
    return float(np.log(table.n_naive.astype(float)).sum())


def aicc(nll: float, k: int, n_events: int) -> float:
    """Small-sample-corrected AIC; sample size is the event count.

    Returns ``+inf`` when the correction denominator ``n - k - 1`` is not
    positive (too few events to score a model with k parameters).
    """
    if k < 0 or n_events < 1:
        raise ValueError("need k >= 0 and n_events >= 1")
    if n_events - k - 1 <= 0:
        return math.inf
    return 2.0 * k + 2.0 * nll + 2.0 * k * (k + 1) / (n_events - k - 1)


# --- order-file I/O (1-based on disk, 0-based in memory) ---

def parse_order_text(text: str) -> np.ndarray:
    """Parse 1-based acquisition order: comma-separated and/or one per line."""
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        tokens.extend(tok.strip() for tok in line.split(",") if tok.strip())
    if not tokens:
        raise ValueError("order is empty")
    values = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"order entry {tok!r} is not an integer") from None
        if v < 1:
            raise ValueError(f"order entry {v} must be a 1-based index (>= 1)")
        values.append(v - 1)
    return np.asarray(values, dtype=np.int64)


def load_order_file(path: str) -> np.ndarray:
    with open(path) as fh:
        return parse_order_text(fh.read())


def write_order_file(order: np.ndarray, path: str) -> None:
    """Write one 1-based index per line."""
    with open(path, "w") as fh:
        for i in np.asarray(order, dtype=np.int64):
            fh.write(f"{int(i) + 1}\n")
