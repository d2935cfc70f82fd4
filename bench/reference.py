"""Reference order-of-acquisition likelihood, written from the formulas.

This module is the benchmark's yardstick for the program's numbers.  It
does not import ``contagionfit``: it walks the acquisition events one at a
time, recomputes every naive individual's connection strength to informed
and to naive individuals from the weight matrix at each event, and scores
the observed acquirer.  Each
naive individual ``i`` has relative rate ``R_i = 1 + T_i`` and the event
contributes ``log(sum_naive R) - log(R_acquirer)`` to the NLL.

Social terms ``T`` (``w`` = weight to informed individuals, ``u`` = weight
to naive individuals):

* asocial: ``0``
* simple: ``s * w``
* proportional: ``s * w / (w + u)`` (``0`` when ``w + u = 0``)
* freqdep: ``s * w^f / (w^f + u^f)`` (``0`` when ``w = 0``, ``s`` when ``u = 0``)
* threshold: ``c * (g(b (w - a)) - g(-b a)) / (1 - g(-b a))`` with the
  logistic ``g``; ``a`` is the location, ``c`` the asymptote and ``b`` the
  sharpness (3 unless given as a third parameter)

`self_check` tests the walker against closed forms before it is trusted.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

SHARPNESS = 3.0

# parameter boxes of the built-in rules (lower bounds; all uppers are +inf)
LOWER = {
    "asocial": (),
    "simple": (0.0,),
    "proportional": (0.0,),
    "freqdep": (0.0, 0.2),
    "threshold": (0.0, 0.0),
}
N_PARAMS = {kind: len(lo) for kind, lo in LOWER.items()}


def _logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def social_term(kind: str, params, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Social transmission term of each naive individual under a rule, from
    its weights to informed (``w``) and to naive (``u``) individuals."""
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float)
    if kind == "asocial":
        return np.zeros_like(w)
    if kind == "simple":
        return params[0] * w
    if kind == "proportional":
        total = w + u
        share = np.zeros_like(w)
        np.divide(w, total, out=share, where=total > 0)
        return params[0] * share
    if kind == "freqdep":
        s, f = params
        out = np.zeros_like(w)
        out[(w > 0) & (u <= 0)] = s
        mixed = (w > 0) & (u > 0)
        fw = f * np.log(w[mixed])
        fu = f * np.log(u[mixed])
        # w^f / (w^f + u^f) in log space, so huge f cannot overflow
        out[mixed] = s * np.exp(fw - np.logaddexp(fw, fu))
        return out
    if kind == "threshold":
        a, c = params[0], params[1]
        b = params[2] if len(params) > 2 else SHARPNESS
        floor = _logistic(-b * a)
        return c * (_logistic(b * (w - a)) - floor) / (1.0 - floor)
    raise ValueError(f"no reference formula for rule {kind!r}")


class ReferenceLikelihood:
    """Event-by-event NLL of one acquisition order on one weight matrix.

    ``weights[i, j]`` is how strongly ``i`` attends to ``j``; ``order`` holds
    0-based acquirers.  At every event the naive set and each naive
    individual's weights to informed and to naive individuals are
    recomputed from scratch (two matrix-vector products), so they share
    nothing with the program's incremental tables, and an individual whose
    connections are all informed has a naive weight of exactly 0.
    """

    def __init__(self, weights, order):
        w = np.asarray(weights, dtype=float)
        order = [int(i) for i in order]
        n = w.shape[0]
        informed = np.zeros(n)
        self.events = []  # (w_informed, w_naive, acquirer position) per event
        for acq in order:
            naive = np.flatnonzero(informed == 0)
            pos = int(np.flatnonzero(naive == acq)[0])
            self.events.append(((w @ informed)[naive], (w @ (1.0 - informed))[naive], pos))
            informed[acq] = 1.0
        self.n = n
        self.n_events = len(order)
        self.naive_sizes = [ev[0].size for ev in self.events]

    def nll(self, kind: str, params=()) -> float:
        total_nll = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for w_inf, w_naive, pos in self.events:
                r = 1.0 + social_term(kind, params, w_inf, w_naive)
                total_nll += math.log(r.sum()) - math.log(r[pos])
        return total_nll if math.isfinite(total_nll) else math.inf

    def asocial_closed_form(self) -> float:
        """Sum of log naive-set sizes: log n! for a complete diffusion."""
        return float(sum(math.log(m) for m in self.naive_sizes))

    def min_1d(self, fn, lower: float, grid) -> tuple[float, float]:
        """Minimise ``fn`` over [lower, inf): wide grid, then bounded refine.

        ``grid`` is an increasing positive grid; ``lower`` joins it when it
        sits below the grid.  The refine works in log space between the two
        grid neighbours of the best grid point.  Returns (argmin, min).
        """
        xs = ([lower] if lower < grid[0] else []) + [float(g) for g in grid if g >= lower]
        fs = [fn(x) for x in xs]
        i = int(np.argmin(fs))
        best_x, best_f = xs[i], fs[i]
        lo_x = xs[max(i - 1, 0)]
        hi_x = xs[min(i + 1, len(xs) - 1)]
        if lo_x > 0:
            res = minimize_scalar(
                lambda z: fn(math.exp(z)),
                bounds=(math.log(lo_x), math.log(hi_x)),
                method="bounded",
                options={"xatol": 1e-9},
            )
            if res.fun < best_f:
                best_x, best_f = math.exp(res.x), float(res.fun)
        elif hi_x > lo_x:
            res = minimize_scalar(
                fn, bounds=(lo_x, hi_x), method="bounded", options={"xatol": 1e-12}
            )
            if res.fun < best_f:
                best_x, best_f = float(res.x), float(res.fun)
        return best_x, best_f

    def profile(self, kind: str, index: int, value: float) -> float:
        """Reference profile NLL of a two-parameter rule: NLL minimised over
        the parameter that is not pinned, by the grid-and-refine search."""
        if N_PARAMS[kind] != 2:
            raise ValueError("reference profiles cover two-parameter rules")
        other = 1 - index
        grid = np.geomspace(1e-4, 1e5, 46) if LOWER[kind][other] == 0.0 else (
            np.geomspace(LOWER[kind][other], 1e4, 46)
        )

        def at(x):
            p = [0.0, 0.0]
            p[index], p[other] = value, x
            return self.nll(kind, p)

        return self.min_1d(at, LOWER[kind][other], grid)[1]


def _check(ok: bool) -> None:
    if not ok:
        raise RuntimeError("reference likelihood failed its closed-form self-check")


def self_check() -> None:
    """Check the walker against closed forms; raise RuntimeError if not."""
    rng = np.random.default_rng(12345)
    n = 7
    w = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) > 0.3)
    np.fill_diagonal(w, 0.0)
    order = rng.permutation(n)
    ref = ReferenceLikelihood(w, order)
    # asocial: every naive individual equally likely, so log n! in total
    _check(abs(ref.nll("asocial") - math.lgamma(n + 1)) < 1e-12)
    _check(abs(ref.asocial_closed_form() - math.lgamma(n + 1)) < 1e-12)
    # a partial diffusion scores only its observed events
    part = ReferenceLikelihood(w, order[:3])
    _check(abs(part.nll("asocial") - math.log(7 * 6 * 5)) < 1e-12)
    # freqdep at f = 1 is the proportional rule
    for s in (0.3, 4.0):
        _check(abs(ref.nll("freqdep", (s, 1.0)) - ref.nll("proportional", (s,))) < 1e-9)
    # threshold: exactly 0 at w = 0, half of the way to c at w = a for large b
    _check(social_term("threshold", (1.0, 2.0), np.array([0.0]), np.array([1.0]))[0] == 0.0)
    half = social_term("threshold", (50.0, 2.0, 1.0), np.array([50.0]), np.array([10.0]))[0]
    _check(abs(half - 1.0) < 1e-12)

    # three individuals by hand: 2 and 3 attend to 1 (weights 1 and 2), 3
    # attends to 2 (weight 1); order 1, 3, 2 under simple with s
    w3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    three = ReferenceLikelihood(w3, [0, 2, 1])
    s = 0.5
    # event 1: all rates 1 -> log 3; event 2: naive {2, 3} rates 1+s, 1+2s,
    # acquirer 3; event 3: only 2 left -> log 1 = 0
    expect = math.log(3.0) + math.log((1 + s) + (1 + 2 * s)) - math.log(1 + 2 * s)
    _check(abs(three.nll("simple", (s,)) - expect) < 1e-12)
    # proportional: 3's share is 2/3 at event 2, 2's share is 1
    expect_p = math.log(3.0) + math.log((1 + s) + (1 + s * 2 / 3)) - math.log(1 + s * 2 / 3)
    _check(abs(three.nll("proportional", (s,)) - expect_p) < 1e-12)
    # freqdep: 2 is fully informed (rate s); 3 has w=2, u=1 -> s 2^f/(2^f+1)
    f = 2.0
    t3 = s * 2**f / (2**f + 1)
    expect_f = math.log(3.0) + math.log((1 + s) + (1 + t3)) - math.log(1 + t3)
    _check(abs(three.nll("freqdep", (s, f)) - expect_f) < 1e-12)
