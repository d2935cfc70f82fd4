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
stretch.  An objective asks the rule once for ``params -> run rates`` on
the table's run sums (`TransmissionRule.run_rates`: built-in rules other
than asocial and threshold prepare their parameter-free pieces there,
other rules go through ``sums_rate``).  Runs number at most n + the number
of edges whose source acquires before its target: about 11 000 for
n = 1000 at 2 % density, against the 500 500 (event, naive individual)
slots of a complete diffusion.  Rules with only ``full_rate`` walk the
events one by one.

An evaluation has two halves.  The *pieces* (`_run_pieces`, O(runs)) take
one value per run, ``x``, and give ``C_k``, the sum of ``x`` over the runs
present at event k (one prefix sum of changes: a run adds its value minus
the value of the run it replaces, and an acquirer's value leaves after its
event), and ``a_k``, the value at event k's acquirer.  The *value*
(`_scaled_nll`, O(D), D the number of events) is
``Σ_k log(n_naive_k + s·C_k) − Σ_k log1p(s·a_k)``: the NLL of the rates
``s·x``.  In the simple, proportional and freqdep rules the strength s
only scales a *shape* ``x``, the rate at s = 1, which depends on the other
parameters alone; an objective keeps the pieces of the shapes it met, so
an evaluation that moves only s (a simple or proportional fit, every pin
of an f interval, the nuisance grid each pin of an s interval scans
again) costs O(D), and one that moves f costs O(runs + D).  Other rules
pass their rates as ``x`` with s = 1, an O(runs + D) evaluation.  The
gradient comes from the same halves: in s it is O(D), in the shape's
parameters it is the adjoint of the prefix sum, O(runs + D) more, and fits
use it (`fit.nll_objective`).  So does the first and second derivative
along one parameter (`_nll_along`), which one-coordinate searches use: O(D)
along s, two more O(runs) passes along a shape parameter.
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

# shapes whose pieces one objective keeps (`_shape_pieces`), each 2·D + 2
# floats: 1 MB at D = 1000; enough for the nuisance grid an s-profile pin
# scans again (`fit.SCAN_POINTS`) plus the points one pin adds
PIECES_CACHE_SIZE = 64


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
    rates of the runs present at k.  The run rates come from the rule's
    ``run_rates`` on ``(run_w, run_total)``, prepared once per objective;
    the table caches nothing per rule, which would hold memory for as long
    as the table lives.  The likelihood forms every ``S_k`` as one prefix
    sum over runs (`_run_pieces`): a run adds its rate minus the rate of the
    run it replaces at its start, and an acquirer's rate leaves after its
    event.  For a rule whose rates are ``s`` times a shape, the prefix sum
    runs over the shape, once per shape, and ``S_k`` is ``s`` times its
    result (`_scaled_nll`), so the objective that keeps those sums pays
    O(D) for a new ``s``.
    With ε = 2**-53 the absolute round-off error of ``S_k`` is of order
    ε·(R_k + k)·M_k, where R_k is the number of runs started by event k and
    M_k the largest rate, rate change or ``S`` met up to k; a direct sum over
    the naive set has ε·n·S_k.  The difference matters only where very
    large rates left the naive set before a small denominator.  Measured
    against an event-by-event sum: on simulated orders, where that happens,
    the error reaches 2e-10 relative near simple s = 2e5 (a 5-node network,
    simulation seed 0); it is 3e-15 at threshold c = 1e8 and simple s = 1e6
    on 1000-individual networks at 2 % density.

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
    def _flow_index(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None]:
        """(first replacing run, the runs those replace, start offset of
        each event's runs, events where no run starts or None if there are
        none), for `_run_pieces`; rule-independent, so built once per
        table while every objective evaluation reuses it."""
        first = self.data.network.n
        bounds = np.searchsorted(self.run_start, np.arange(self.n_events + 1))
        empty = np.flatnonzero(bounds[:-1] == bounds[1:])
        return first, self.run_prev[first:], bounds[:-1], empty if empty.size else None

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


def _run_pieces(x: np.ndarray, table: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """The O(runs) half of the NLL, for one value per run ``x`` (rates, or
    a rule's shape): ``(C, a)``, where ``C[k]`` sums ``x`` over the runs
    present at event k and ``a[k]`` is ``x`` at event k's acquirer.

    ``C`` is one prefix sum: a run adds its value minus the value of the
    run it replaces, and an acquirer's value leaves after its event.
    """
    first, replaced, groups, empty = table._flow_index
    with np.errstate(invalid="ignore", over="ignore"):
        change = np.empty(x.size + 1)  # the pad lets trailing empty groups index R
        change[:-1] = x
        change[-1] = 0.0
        change[first:-1] -= x[replaced]
        flow = np.add.reduceat(change, groups)
        if empty is not None:
            flow[empty] = 0.0
        a = x[table.acquirer_run]
        flow[1:] -= a[:-1]
        return np.cumsum(flow), a


def _scaled_nll(s: float, pieces, table: EventTable) -> tuple[float, np.ndarray]:
    """The O(D) half: ``(NLL, event denominators)`` for the rates ``s * x``,
    from the `_run_pieces` of ``x``, ``Σ log(n_naive + s·C) − Σ log1p(s·a)``.

    The NLL is +inf instead of nan when rates overflow, so optimizers
    always see an ordered objective.
    """
    c, a = pieces
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = table.n_naive + s * c
        val = float(np.log(denom).sum() - np.log1p(s * a).sum())
    return (val if math.isfinite(val) else math.inf), denom


def _shape_pieces(rule: TransmissionRule, rest: np.ndarray, table: EventTable, run_rates,
                  cache: dict, shape: np.ndarray | None = None):
    """``(pieces, smallest, largest)`` of the shape at ``rest``, checked
    once and kept in ``cache`` (least recently used out beyond
    `PIECES_CACHE_SIZE` entries); ``shape`` is the shape at ``rest`` when
    the caller has it already."""
    key = rest.tobytes()
    entry = cache.pop(key, None)
    if entry is None:
        x = np.asarray(run_rates.shape(rest) if shape is None else shape, dtype=float)
        smallest, largest = x.min(), x.max()
        _check_scale(rule, 1.0, smallest, largest)  # the shape is the rates at s = 1
        entry = (_run_pieces(x, table), smallest, largest)
        if len(cache) >= PIECES_CACHE_SIZE:
            del cache[next(iter(cache))]
    cache[key] = entry
    return entry


def _check_scale(rule: TransmissionRule, s: float, smallest: float, largest: float) -> None:
    """Check the rates ``s * x`` of a checked shape: every rate lies between
    ``s * smallest`` and ``s * largest``, so those two decide."""
    for t in (s * smallest, s * largest):
        if not 0 <= t < math.inf:  # a NaN fails
            raise ValueError(f"rule {rule.kind!r} produced invalid rate {t}")


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


def _nll(rule: TransmissionRule, params: np.ndarray, table: EventTable, run_rates,
         cache: dict) -> float:
    """NLL by the rule's one path, with every rate checked: the generic walk
    for rules without ``sums_rate``, else from the `_run_pieces` of
    ``run_rates``, the rule's `TransmissionRule.run_rates` on the table's
    ``(run_w, run_total)``, which the caller prepares once per objective.
    When those rates have a ``shape``, the pieces of the shape at
    ``params[1:]`` come from ``cache`` and only the scale ``params[0]``
    is applied here, in O(D); other rates are their own shape at scale 1."""
    if run_rates is None:
        return _nll_generic(rule, params, table)
    if not hasattr(run_rates, "shape"):
        return _scaled_nll(1.0, _run_pieces(_check_rates(rule, run_rates(params)), table), table)[0]
    pieces, smallest, largest = _shape_pieces(rule, params[1:], table, run_rates, cache)
    _check_scale(rule, params[0], smallest, largest)
    return _scaled_nll(params[0], pieces, table)[0]


def _nll_and_gradient(rule: TransmissionRule, params: np.ndarray, table: EventTable,
                      run_rates, cache: dict) -> tuple[float, np.ndarray]:
    """NLL and its gradient in the parameters, for rates ``s * x`` whose
    ``run_rates`` has a ``shape_jacobian``.  The NLL is the one `_nll`
    returns, from the same cache, with the same checks.

    The derivative in s is ``Σ C/denom − Σ a/(1 + s·a)``, O(D).  The
    derivatives in the shape's parameters are ``s`` times the NLL's
    gradient in the run values, the adjoint of the prefix sum: run r is
    present at events ``run_start[r] <= k < run_end[r]``, so it gets the
    sum of ``1/denom_k`` over those events, less ``1/(1 + s·a_k)`` where
    its individual acquires at k; times the shape's Jacobian.
    """
    s, rest = params[0], params[1:]
    x, dx = run_rates.shape_jacobian(rest)
    (c, a), smallest, largest = _shape_pieces(rule, rest, table, run_rates, cache, shape=x)
    _check_scale(rule, s, smallest, largest)
    val, denom = _scaled_nll(s, (c, a), table)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_denom = 1.0 / denom
        inv_acq = 1.0 / (1.0 + s * a)
        grad = np.empty(params.size)
        grad[0] = inv_denom @ c - inv_acq @ a
        if rest.size:
            inv_cumsum = np.zeros(denom.size + 1)
            np.cumsum(inv_denom, out=inv_cumsum[1:])
            adjoint = inv_cumsum[table.run_end] - inv_cumsum[table.run_start]
            adjoint[table.acquirer_run] -= inv_acq
            grad[1:] = s * (adjoint @ dx)
    return val, grad


def _nll_along(rule: TransmissionRule, params: np.ndarray, index: int, table: EventTable,
               run_rates, cache: dict) -> tuple[float, float, float]:
    """NLL with its first and second derivatives along parameter ``index``,
    for rates ``s * x`` whose ``run_rates`` has a ``shape`` (and, for
    ``index > 0``, a ``shape_along``).  The NLL is the one `_nll` returns,
    from the same cache, with the same checks.

    Along s it is O(D): ``Σ C/denom − Σ a/(1 + s·a)`` and
    ``Σ a²/(1 + s·a)² − Σ C²/denom²``.  Along a shape parameter it costs
    two more `_run_pieces` passes, over the shape's first and second
    derivatives: with ``C' = s·pieces(x')`` and ``a' = s·x'`` at the
    acquirer (likewise ``''``), the derivatives are
    ``Σ C'/denom − Σ a'/(1 + s·a)`` and
    ``Σ C''/denom − Σ (C'/denom)² − Σ a''/(1 + s·a) + Σ (a'/(1 + s·a))²``.
    """
    s, rest = params[0], params[1:]
    if index == 0:
        (c, a), smallest, largest = _shape_pieces(rule, rest, table, run_rates, cache)
    else:
        x, dx, d2x = run_rates.shape_along(rest, index - 1)
        (c, a), smallest, largest = _shape_pieces(rule, rest, table, run_rates, cache, shape=x)
    _check_scale(rule, s, smallest, largest)
    val, denom = _scaled_nll(s, (c, a), table)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        acq_denom = 1.0 + s * a
        if index == 0:
            u, v = c / denom, a / acq_denom
            return val, float(u.sum() - v.sum()), float(v @ v - u @ u)
        c1, a1 = _run_pieces(dx, table)
        c2, a2 = _run_pieces(d2x, table)
        u, v = s * c1 / denom, s * a1 / acq_denom
        first = float(u.sum() - v.sum())
        second = float((s * c2 / denom).sum() - u @ u - (s * a2 / acq_denom).sum() + v @ v)
    return val, first, second


def negative_log_likelihood(rule: TransmissionRule, params, table: EventTable) -> float:
    """Exact NLL of the observed acquisition order under ``rule``.

    Parameters are validated against the rule's box bounds.  Raises
    ValueError if the rule produces a non-finite or negative rate anywhere
    in the table, or a non-finite likelihood.
    """
    p = rule.check_params(params)
    nll = _nll(rule, p, table, rule.run_rates(table.run_w, table.run_total), {})
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
