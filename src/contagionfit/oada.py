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
stretch.  `build_event_table` finds the stretches without stepping through
the events: each individual's linked in-neighbours, sorted by acquisition
time, start its runs, and one cumulative sum along their weights gives the
same sequential sums as the simulator's event-by-event walk.  An objective
evaluates the rule on the table's run sums: the simple, proportional and
freqdep rules prepare their shape there once (`TransmissionRule.prepare`),
other rules go through ``sums_rate``.  Runs number at most n + the number
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
use it.  The first and second derivatives along s, which one-coordinate
searches in s use, are O(D) as well; a one-coordinate search in a shape
parameter differences the values instead.  One objective object
(`nll_objective`) holds the prepared shape and the cached pieces and gives
all of these on full parameter vectors.  A profile's inner fit minimizes
that same objective in a box whose two bounds on the pinned parameter are
equal (`fit.BoxTransform`), and its derivative in the pinned parameter at
the inner optimum is the profile's slope.
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

_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")  # once per evaluation

# shapes whose pieces one objective keeps (`_ShapeObjective`), each 2·D + 2
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
        repeated = np.flatnonzero(np.bincount(order, minlength=n) > 1)
        if repeated.size:
            dup = repeated[0]
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


@dataclass(frozen=True, eq=False)
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
    numbered in order of ``run_start`` and then of individual.  The runs
    are built from each individual's linked in-neighbours sorted by
    acquisition time, and ``run_w`` is the sequential sum of their weights
    in that order, bit for bit the sum of the naive-set state the simulator
    steps event by event (``_NaiveSums``): once every in-neighbour is
    informed, ``run_w`` is exactly ``run_total``, so the weight to naive
    individuals ``run_total - run_w`` is exactly 0, with no summation
    residue.  ``acquirer_run[k]`` is the run of event k's acquirer and
    ``n_naive[k]`` the size of the naive set just before event k.

    Event k's denominator is ``n_naive[k] + S_k``, where ``S_k`` sums the
    rates of the runs present at k.  The run rates come from the rule on
    ``(run_w, run_total)``: its ``sums_rate``, or ``s`` times the shape it
    prepares once per objective; the table caches nothing per rule, which
    would hold memory for as long as the table lives.  The likelihood forms
    every ``S_k`` as one prefix sum over runs (`_run_pieces`): a run adds
    its rate minus the rate of the run it replaces at its start, and an
    acquirer's rate leaves after its event.  For a rule whose rates are
    ``s`` times a shape, the prefix sum runs over the shape, once per
    shape, and ``S_k`` is ``s`` times its result (`_scaled_nll`), so the
    objective that keeps those sums pays O(D) for a new ``s``.
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
    ``totals``, stepped one acquisition at a time by the simulator, its
    trace and the generic likelihood alike.  Naive in-neighbours are
    counted, and ``w_informed`` snaps to ``totals`` when the count reaches
    0, so saturation is exact; `build_event_table` forms the same sums."""

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
    """Record each naive individual's runs from the nonzero weights.

    Individual i gets a new run right after each linked in-neighbour
    acquires, while i is naive and events remain.  Its ``w_informed`` there
    is the sequential sum of its linked in-neighbours' weights in order of
    acquisition, one ``cumsum`` along each row of a zero-padded array of
    those weights: the sum an event-by-event walk forms (adding the 0.0 of
    the others is exact), snapped to ``totals`` at the last linked
    in-neighbour.
    """
    require_valid(data.network)
    weights = data.network.weights
    n = data.network.n
    order = data.order
    d = order.size
    totals = weights.sum(axis=1)
    linked = weights > 0
    acquired_at = np.full(n, d)
    acquired_at[order] = np.arange(d)

    # (individual, event) where a linked in-neighbour acquires while the
    # individual is naive, before the last event; by individual, then event
    # (with D = 1 there are none, and the divisor only has to be nonzero)
    starts = linked[:, order[:-1]] & (np.arange(d - 1) < acquired_at[:, None])
    who, event = np.divmod(np.flatnonzero(starts), max(d - 1, 1))
    per_row = np.bincount(who, minlength=n)
    rank = np.arange(who.size) - (np.cumsum(per_row) - per_row)[who]
    padded = np.zeros((n, per_row.max(initial=0)))
    padded[who, rank] = weights.take(who * n + order[event])
    w_informed = np.cumsum(padded, axis=1)[who, rank]
    saturated = rank == np.count_nonzero(linked, axis=1)[who] - 1
    w_informed[saturated] = totals[who[saturated]]

    # runs 0..n-1 start at event 0; the others follow by (start, individual):
    # a stable sort by event, which numpy does by radix on 16-bit keys
    m = who.size
    by_start = np.argsort(event.astype(np.uint16) if d <= 2**16 else event, kind="stable")
    run_of = np.empty(m, dtype=np.int64)
    run_of[by_start] = np.arange(n, n + m)
    # each run replaces its individual's previous one, or its run at event 0
    first = np.ones(m, dtype=bool)
    first[1:] = who[1:] != who[:-1]
    replaced = np.where(first, who, np.roll(run_of, 1))

    run_individual = np.concatenate((np.arange(n), who[by_start]))
    start = np.concatenate((np.zeros(n, dtype=np.int64), event[by_start] + 1))
    prev = np.concatenate((np.full(n, -1), replaced[by_start]))
    end = np.minimum(acquired_at + 1, d)[run_individual]
    end[prev[n:]] = start[n:]
    latest = np.ones(n + m, dtype=bool)
    latest[prev[n:]] = False
    last_run = np.empty(n, dtype=np.int64)
    last_run[run_individual[latest]] = np.flatnonzero(latest)
    arrays = dict(
        run_individual=run_individual,
        run_w=np.concatenate((np.zeros(n), w_informed[by_start])),
        run_total=totals[run_individual], run_start=start, run_end=end, run_prev=prev,
        acquirer_run=last_run[order], n_naive=n - np.arange(d),
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
    always see an ordered objective (under `_QUIET`, which callers enter).
    """
    c, a = pieces
    denom = table.n_naive + s * c
    val = float(np.log(denom).sum() - np.log1p(s * a).sum())
    return (val if math.isfinite(val) else math.inf), denom


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


def nll_objective(rule: TransmissionRule, table: EventTable) -> _Objective:
    """The NLL of ``rule`` on ``table`` as one objective object (no bounds
    checks; an invalid rate raises ValueError).  A rule that ``prepare``s a
    shape (the built-in simple, proportional and freqdep rules) prepares it
    here, once, for every evaluation, and the objective also gives the
    NLL's gradient and its derivatives along s (`_ShapeObjective`); other
    rules give the value alone (`_Objective`)."""
    if rule.prepare is not None:
        return _ShapeObjective(rule, table, rule.prepare(table.run_w, table.run_total))
    return _Objective(rule, table)


class _Objective:
    """params -> NLL, by the rule's one path, with every rate checked: the
    generic walk for rules without ``sums_rate``, else the `_run_pieces` of
    its ``sums_rate`` on the table's ``(run_w, run_total)`` at scale 1.
    ``value_and_grad`` and ``along`` are None: the one-coordinate polish and
    the profile's slope difference the values instead, and two or more
    coordinates run Nelder-Mead."""

    value_and_grad = None
    along = None

    def __init__(self, rule: TransmissionRule, table: EventTable):
        self.rule = rule
        self.table = table

    def __call__(self, params) -> float:
        params, table = np.asarray(params, dtype=float), self.table
        if self.rule.sums_rate is None:
            return _nll_generic(self.rule, params, table)
        rates = _check_rates(self.rule, self.rule.sums_rate(params, table.run_w, table.run_total))
        with np.errstate(**_QUIET):
            return _scaled_nll(1.0, _run_pieces(rates, table), table)[0]


class _ShapeObjective(_Objective):
    """The NLL for rates ``s * x``, where the shape ``x`` depends on the
    parameters after s alone.  The objective keeps the `_run_pieces` of the
    shapes it met (least recently used out beyond `PIECES_CACHE_SIZE`), so
    an evaluation that moves only s costs O(D), and every evaluation, with
    or without derivatives, gives the one NLL of `_scaled`."""

    def __init__(self, rule: TransmissionRule, table: EventTable, prepared):
        super().__init__(rule, table)
        self.prepared = prepared  # the rule's shape on the table's run sums
        self.cache: dict = {}

    def _scaled(self, params: np.ndarray, shape: np.ndarray | None = None):
        """``(NLL, C, a, event denominators)`` at ``params``: the pieces of
        the shape at ``params[1:]`` (checked once, when first met), and the
        checked scale ``params[0]`` applied in O(D); ``shape`` is the shape
        at ``params[1:]`` when the caller has it already."""
        key = params[1:].tobytes()
        entry = self.cache.pop(key, None)
        if entry is None:
            x = np.asarray(self.prepared.shape(params[1:]) if shape is None else shape,
                           dtype=float)
            smallest, largest = x.min(), x.max()
            _check_scale(self.rule, 1.0, smallest, largest)  # the shape is the rates at s = 1
            entry = (_run_pieces(x, self.table), smallest, largest)
            if len(self.cache) >= PIECES_CACHE_SIZE:
                del self.cache[next(iter(self.cache))]
        self.cache[key] = entry
        (c, a), smallest, largest = entry
        _check_scale(self.rule, params[0], smallest, largest)
        val, denom = _scaled_nll(params[0], (c, a), self.table)
        return val, c, a, denom

    def __call__(self, params) -> float:
        with np.errstate(**_QUIET):
            return self._scaled(np.asarray(params, dtype=float))[0]

    def value_and_grad(self, params) -> tuple[float, np.ndarray]:
        """NLL and its gradient in the parameters.

        The derivative in s is ``Σ C/denom − Σ a/(1 + s·a)``, O(D).  The
        derivatives in the shape's parameters are ``s`` times the NLL's
        gradient in the run values, the adjoint of the prefix sum: run r is
        present at events ``run_start[r] <= k < run_end[r]``, so it gets the
        sum of ``1/denom_k`` over those events, less ``1/(1 + s·a_k)`` where
        its individual acquires at k; times the shape's Jacobian.
        """
        params = np.asarray(params, dtype=float)
        s, rest = params[0], params[1:]
        x, dx = self.prepared.shape_jacobian(rest)
        table = self.table
        with np.errstate(**_QUIET):
            val, c, a, denom = self._scaled(params, shape=x)
            inv_denom = 1.0 / denom
            inv_acq = 1.0 / (1.0 + s * a)
            grad = np.empty(params.size)
            grad[0] = inv_denom @ c - inv_acq @ a
            if rest.size:
                inv_cumsum = np.zeros(denom.size + 1)
                np.cumsum(inv_denom, out=inv_cumsum[1:])
                adjoint = inv_cumsum[table.run_end] - inv_cumsum[table.run_start]
                adjoint[table.acquirer_run] -= inv_acq
                # einsum, not BLAS: OpenBLAS splits a product over about 10 000
                # runs (n = 1000) across threads that then spin on the other
                # cores, so a fit's time would follow whatever else runs there
                grad[1:] = s * np.einsum("r,rk->k", adjoint, dx)
        return val, grad

    def along(self, params) -> tuple[float, float, float]:
        """NLL with its first and second derivatives along s, O(D):
        ``Σ C/denom − Σ a/(1 + s·a)`` and ``Σ a²/(1 + s·a)² − Σ C²/denom²``."""
        params = np.asarray(params, dtype=float)
        with np.errstate(**_QUIET):
            val, c, a, denom = self._scaled(params)
            u, v = c / denom, a / (1.0 + params[0] * a)
            return val, float(u.sum() - v.sum()), float(v @ v - u @ u)


def negative_log_likelihood(rule: TransmissionRule, params, table: EventTable) -> float:
    """Exact NLL of the observed acquisition order under ``rule``.

    Parameters are validated against the rule's box bounds.  Raises
    ValueError if the rule produces a non-finite or negative rate anywhere
    in the table, or a non-finite likelihood.
    """
    nll = nll_objective(rule, table)(rule.check_params(params))
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
    """Read a 1-based order file (`parse_order_text`), UTF-8 with or
    without a byte-order mark."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_order_text(fh.read())


def write_order_file(order: np.ndarray, path: str) -> None:
    """Write one 1-based index per line."""
    with open(path, "w") as fh:
        for i in np.asarray(order, dtype=np.int64):
            fh.write(f"{int(i) + 1}\n")
