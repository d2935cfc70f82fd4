"""Forward simulation of spread through a network.

The simulator draws acquisition events one at a time: at each step every
naive individual ``i`` has relative rate ``R_i = T_i + 1`` and acquires next
with probability ``R_i / sum_naive R_j``.  That is exactly the per-event
probability the order-of-acquisition likelihood assigns, and the simulator
steps the likelihood's own naive-set state and rate evaluator, so simulated
orders and fitted likelihoods agree by construction.

The relative rates live in one vector over all individuals, exactly 0 for
the informed.  An event changes the sums of its acquirer's out-neighbours
only, so for a rule with ``sums_rate`` the simulator re-evaluates the rates
of those naive individuals alone; rules with only ``full_rate`` may read
the whole status vector and are re-rated in full at every event.  The
draw is a cumulative sum over the whole vector: adding the informed
individuals' 0.0 is exact, so it picks the individual a sum over the naive
set alone would pick.

`simulate_diffusion` returns the dataset (network + order) together with a
trace whose full selection-probability vector of every event, for plotting
or audit, is computed on first access by replaying the order.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .network import Network, require_valid
from .oada import DiffusionData, _NaiveSums, _naive_rates
from .rules import TransmissionRule, _check_rates

__all__ = ["SimulationTrace", "simulate_diffusion", "write_trace_csv"]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-event selection probabilities.

    ``probabilities[k, i]`` is the chance individual ``i`` was the k-th
    acquirer, given the history before that event; NaN marks individuals
    already informed at that point (they were not in the draw).  The
    (D, n) array is built on first access, by replaying the acquisitions
    with the simulation's rule and parameters, so a caller that only keeps
    the dataset never pays for it.
    """

    acquirers: np.ndarray      # (D,) 0-based
    _network: Network = field(repr=False)
    _rule: TransmissionRule = field(repr=False)
    _params: np.ndarray = field(repr=False)
    _informed: tuple[int, ...] = field(repr=False)

    @property
    def n_events(self) -> int:
        return self.acquirers.size

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """(D, n); NaN for already-informed individuals."""
        probs = np.full((self.n_events, self._network.n), np.nan)
        sums = _NaiveSums(self._network, self._informed)
        for k, acq in enumerate(self.acquirers):
            idx, t = _naive_rates(self._rule, self._params, sums)
            r = t + 1.0
            probs[k, idx] = r / np.cumsum(r)[-1]
            sums.step(int(acq))
        return probs


def simulate_diffusion(
    network: Network,
    rule: TransmissionRule,
    params,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    stop_after: int | None = None,
    initially_informed=(),
    label: str = "",
) -> tuple[DiffusionData, SimulationTrace]:
    """Simulate one diffusion under a transmission rule.

    Parameters
    ----------
    stop_after : int, optional
        Number of acquisition events to draw; default runs until everyone
        is informed.
    initially_informed : sequence of int
        0-based individuals informed before the first event.  They never
        appear in the returned order; note the plain likelihood in `oada`
        assumes an all-naive start, so datasets with seeded individuals are
        meant for visualization rather than refitting.
    seed : int, SeedSequence or Generator
        Randomness source; identical seeds give identical diffusions.  One
        uniform is drawn per event, all at the start.
    """
    require_valid(network)
    params = rule.check_params(params)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    n = network.n
    for i in initially_informed:
        if not 0 <= int(i) < n:
            raise ValueError(f"initially_informed index {i} out of range")
    informed = tuple(int(i) for i in initially_informed)
    sums = _NaiveSums(network, informed)
    n_naive = int(sums.naive.sum())
    if n_naive == 0:
        raise ValueError("everyone is already informed; nothing to simulate")
    d = n_naive if stop_after is None else int(stop_after)
    if not 1 <= d <= n_naive:
        raise ValueError(f"stop_after must be in [1, {n_naive}]")

    order = np.empty(d, dtype=np.int64)
    uniforms = rng.random(d)
    rates = np.zeros(n)  # relative rates T + 1; exactly 0 once informed
    naive, t = _naive_rates(rule, params, sums)
    rates[naive] = t + 1.0
    for k in range(d):
        cum = rates.cumsum()
        acq = int(cum.searchsorted(uniforms[k] * cum[-1], side="right"))
        if acq == n:  # the u == total edge: the last naive individual
            acq = int(sums.naive.nonzero()[0][-1])
        order[k] = acq
        changed = sums.step(acq)
        rates[acq] = 0.0
        if k + 1 == d:
            break
        if rule.sums_rate is None:
            naive, t = _naive_rates(rule, params, sums)
            rates[naive] = t + 1.0
        elif (idx := changed.nonzero()[0]).size:
            t = rule.sums_rate(params, sums.w_informed[idx], sums.totals[idx])
            rates[idx] = _check_rates(rule, t) + 1.0

    data = DiffusionData(network=network, order=order, label=label)
    trace = SimulationTrace(order.copy(), network, rule, params, informed)
    return data, trace


def write_trace_csv(trace: SimulationTrace, path: str) -> None:
    """Event-by-event trace: 1-based acquirer plus one probability column
    per individual (blank when that individual was already informed)."""
    d, n = trace.probabilities.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "acquirer"] + [f"prob_{i + 1}" for i in range(n)])
        for k in range(d):
            row: list[str] = [str(k + 1), str(int(trace.acquirers[k]) + 1)]
            for i in range(n):
                p = trace.probabilities[k, i]
                row.append("" if np.isnan(p) else repr(float(p)))
            writer.writerow(row)
