"""Forward simulation of spread through a network.

The simulator draws acquisition events one at a time: at each step every
naive individual ``i`` has relative rate ``R_i = T_i + 1`` and acquires next
with probability ``R_i / sum_naive R_j``.  That is exactly the per-event
probability the order-of-acquisition likelihood assigns, and the simulator
steps the likelihood's own naive-set state and rate evaluator, so simulated
orders and fitted likelihoods agree by construction.

`simulate_diffusion` returns the dataset (network + order) together with a
step-by-step trace holding the full selection-probability vector of every
event, for plotting or audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import csv

import numpy as np

from .network import Network, require_valid
from .oada import DiffusionData, _NaiveSums, _naive_rates
from .rules import TransmissionRule

__all__ = ["SimulationTrace", "simulate_diffusion", "write_trace_csv"]


@dataclass(frozen=True)
class SimulationTrace:
    """Per-event selection probabilities.

    ``probabilities[k, i]`` is the chance individual ``i`` was the k-th
    acquirer, given the history before that event; NaN marks individuals
    already informed at that point (they were not in the draw).
    """

    acquirers: np.ndarray      # (D,) 0-based
    probabilities: np.ndarray  # (D, n); NaN for already-informed

    @property
    def n_events(self) -> int:
        return self.acquirers.size


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
        Randomness source; identical seeds give identical diffusions.
    """
    require_valid(network)
    params = rule.check_params(params)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    n = network.n
    for i in initially_informed:
        if not 0 <= int(i) < n:
            raise ValueError(f"initially_informed index {i} out of range")
    sums = _NaiveSums(network, [int(i) for i in initially_informed])
    n_naive = int(sums.naive.sum())
    if n_naive == 0:
        raise ValueError("everyone is already informed; nothing to simulate")
    d = n_naive if stop_after is None else int(stop_after)
    if not 1 <= d <= n_naive:
        raise ValueError(f"stop_after must be in [1, {n_naive}]")

    order = np.empty(d, dtype=np.int64)
    probs = np.full((d, n), np.nan)
    for k in range(d):
        idx, t = _naive_rates(rule, params, sums)
        r = t + 1.0
        cum = np.cumsum(r)
        u = rng.random() * cum[-1]
        pick = int(np.searchsorted(cum, u, side="right"))
        pick = min(pick, idx.size - 1)  # guards the u == total edge
        acq = int(idx[pick])

        probs[k, idx] = r / cum[-1]
        order[k] = acq
        sums.step(acq)

    data = DiffusionData(network=network, order=order, label=label)
    trace = SimulationTrace(acquirers=order.copy(), probabilities=probs)
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
