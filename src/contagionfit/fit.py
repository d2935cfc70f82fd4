"""Maximum-likelihood fitting of transmission rules to acquisition orders.

`minimize_multistart` is the package's one box minimizer; every fit and
every profile pin (a box whose two bounds on the pinned parameter are
equal) goes through it.  It works on a smooth reparameterization of the
box: one-sided bounds map through log, two-sided bounds through a scaled
logit, unbounded coordinates pass through, and a pinned coordinate has
none.  The number of free coordinates picks the method:

- none (the asocial rule, or a pin of a one-parameter rule): one evaluation;
- one (simple, proportional, the nuisance of a two-parameter profile): a
  fixed scan of 11 points over +-10 internal units around the start, stepped
  outward while the best point is at the edge, then a polish of each local
  minimum of the scan between its neighbours by safeguarded Newton steps,
  on the exact first and second derivatives along s that the objective
  carries when s is the free coordinate (the built-in simple and
  proportional rules, and a freqdep pin of f, see `nll_objective`), else on
  central differences of its values (along f, and for threshold, custom
  and ``full_rate`` rules);
- two or more: a local search from the start plus ``restarts`` jittered
  restarts; the best end point wins, with ties broken toward the earlier
  start so results are reproducible.  The search is BFGS when the objective
  carries its gradient (the built-in freqdep rule, see `nll_objective`),
  else derivative-free Nelder-Mead (threshold, custom and ``full_rate``
  rules).  A later start stops once its iterate comes within
  `KNOWN_BASIN_RADIUS` of the end point of an earlier start that converged
  to a finite value, and offers no end point: it would only find that
  minimum again (the rule of multi-level single linkage, Rinnooy Kan &
  Timmer 1987, Math. Programming 39:57-78).

Standard errors come from a central finite-difference Hessian of the NLL at
the MLE and are reported only when that Hessian is positive definite and no
parameter sits on a bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from .oada import DiffusionData, EventTable, aicc, build_event_table, nll_objective
from .rules import TransmissionRule

__all__ = [
    "FitConfig",
    "FitResult",
    "fit_oada",
    "compare_models",
    "ComparisonRow",
    "hessian_standard_errors",
    "minimize_multistart",
    "MultistartResult",
    "BoxTransform",
    "nll_objective",
]

# unbounded parameters larger than this get a diagnostic note on the fit
CEILING_NOTE_AT = 1e8
# relative closeness to a finite bound that counts as "at the bound"
BOUND_TOL = 1e-7
# one-coordinate search (`_scan_and_polish`), in the internal coordinate
SCAN_HALF_WIDTH = 10.0
SCAN_POINTS = 11
SCAN_MAX_STEPS = 30  # outward steps of the grid spacing past the grid's edge
POLISH_XATOL = 1e-5
# Newton polish (`_newton_polish`): it stops once it can gain less than
# POLISH_RTOL * max(1, |value|), or after POLISH_MAX_STEPS steps; without
# derivatives it takes central differences with step POLISH_DIFF_STEP
POLISH_RTOL = 1e-12
POLISH_MAX_STEPS = 60
POLISH_DIFF_STEP = 1e-4  # in the internal coordinate
# a later multistart start stops once its iterate comes this close (inf-norm,
# internal coordinates) to the end point of an earlier start that converged
KNOWN_BASIN_RADIUS = 1e-2
# finite-difference Hessian step: relative to each coordinate, with a floor
HESSIAN_REL_STEP = 1e-4
HESSIAN_ABS_FLOOR = 1e-6
# what the local searches see for +inf: scipy's Nelder-Mead convergence test
# reads an all-inf simplex's spread inf - inf as nan and never stops, while
# an equal finite stand-in lets the shrinking simplex meet xatol; every
# comparison is kept, and BFGS's line search backs off from it
_NM_INF = sys.float_info.max
_SCAN_OFFSETS = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    ``start``/``lower``/``upper`` default to the rule's own values; for a
    one-parameter rule ``start`` is the centre of the scan, whose Newton
    polish takes no setting.  ``restarts`` and ``seed`` set the multistart
    and so act only on rules with two or more parameters: BFGS for the
    freqdep rule, Nelder-Mead for the others; a restart that reaches the
    basin of an earlier converged start stops there (`minimize_multistart`).
    ``tolerance`` and ``max_evals`` act on Nelder-Mead only; BFGS stops at
    scipy's gradient tolerance.  The jitter applied to restarts is
    multiplicative U[0.25, 4] on the distance from one-sided bounds
    (additive in the transformed space) and is drawn from a generator
    seeded by ``seed``, so a fit is a pure function of (data, rule,
    config).
    """

    start: tuple[float, ...] | None = None
    lower: tuple[float, ...] | None = None
    upper: tuple[float, ...] | None = None
    restarts: int = 8
    tolerance: float = 1e-8
    max_evals: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_evals < 10:
            raise ValueError("max_evals must be >= 10")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    rule: TransmissionRule
    table: EventTable
    mle: np.ndarray
    nll: float
    se: np.ndarray | None
    aicc: float
    converged: bool
    n_evals: int
    boundary_flags: tuple[bool, ...]
    notes: tuple[str, ...] = ()
    config: FitConfig | None = None

    @property
    def data(self) -> DiffusionData:
        return self.table.data

    @property
    def k(self) -> int:
        return self.rule.n_params

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.rule.param_names

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lower, upper) parameter box the fit searched."""
        return _resolve_bounds(self.rule, self.config or FitConfig())

    def report_dict(self) -> dict:
        """JSON-ready summary (used by the CLI fit report)."""
        return {
            "rule": self.rule.kind,
            "param_names": list(self.param_names),
            "mle": [float(v) for v in self.mle],
            "se": None if self.se is None else [float(v) for v in self.se],
            "nll": float(self.nll),
            "aicc": float(self.aicc) if math.isfinite(self.aicc) else "inf",
            "n_params": self.k,
            "n_events": self.table.n_events,
            "converged": bool(self.converged),
            "boundary_flags": [bool(b) for b in self.boundary_flags],
            "n_evals": int(self.n_evals),
            "fixed": {k: float(v) for k, v in self.rule.fixed.items()},
            "notes": list(self.notes),
        }


class BoxTransform:
    """Smooth bijection between a box and all of R^k (per coordinate).

    A coordinate with one finite bound is ``anchor + sign * exp(z)``: the
    anchor is that bound, and the sign is +1 above a lower bound, -1 below
    an upper one.  A two-sided coordinate is a scaled logit, a coordinate
    with no bound passes through.  A coordinate whose two bounds are equal
    is *pinned*: it has no internal coordinate and reads its bound.  ``free``
    lists the other coordinates, and ``k`` counts them."""

    _UNBOUNDED, _ONE_SIDED, _BOTH, _PINNED = range(4)

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound length mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("each lower bound must not be above its upper bound")
        self.kinds, self.anchors, self.signs = [], [], []
        for lo, hi in zip(self.lower, self.upper):
            lo_f, hi_f = math.isfinite(lo), math.isfinite(hi)
            self.kinds.append(self._PINNED if lo == hi
                              else self._BOTH if lo_f and hi_f
                              else self._ONE_SIDED if lo_f or hi_f
                              else self._UNBOUNDED)
            self.anchors.append(lo if lo_f else hi)
            self.signs.append(1.0 if lo_f else -1.0)
        self.free = [i for i, kind in enumerate(self.kinds) if kind != self._PINNED]

    @property
    def k(self) -> int:
        return len(self.free)

    def to_internal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.empty(self.k)
        for j, i in enumerate(self.free):
            kind = self.kinds[i]
            if kind == self._UNBOUNDED:
                z[j] = x[i]
            elif kind == self._ONE_SIDED:
                z[j] = math.log(max(self.signs[i] * (x[i] - self.anchors[i]), 1e-300))
            else:
                lo, hi = self.lower[i], self.upper[i]
                p = min(max((x[i] - lo) / (hi - lo), 1e-12), 1.0 - 1e-12)
                z[j] = logit(p)
        return z

    def to_external(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x = self.lower.copy()  # a pinned coordinate reads its bound
        for j, i in enumerate(self.free):
            kind = self.kinds[i]
            if kind == self._UNBOUNDED:
                x[i] = z[j]
            elif kind == self._ONE_SIDED:
                x[i] = self.anchors[i] + self.signs[i] * math.exp(min(z[j], 700.0))
            else:
                lo, hi = self.lower[i], self.upper[i]
                x[i] = lo + (hi - lo) * expit(z[j])
        return x

    def dx_dz(self, z) -> np.ndarray:
        """Derivative of `to_external` at ``z``, per free coordinate."""
        z = np.asarray(z, dtype=float)
        d = np.empty_like(z)
        for j, i in enumerate(self.free):
            kind = self.kinds[i]
            if kind == self._UNBOUNDED:
                d[j] = 1.0
            elif kind == self._ONE_SIDED:
                d[j] = self.signs[i] * (math.exp(z[j]) if z[j] < 700.0 else 0.0)
            else:
                p = expit(z[j])
                d[j] = (self.upper[i] - self.lower[i]) * p * (1.0 - p)
        return d

    def d2x_dz2(self, z) -> np.ndarray:
        """Second derivative of `to_external` at ``z``, per free coordinate."""
        z = np.asarray(z, dtype=float)
        d = np.empty_like(z)
        for j, i in enumerate(self.free):
            kind = self.kinds[i]
            if kind == self._UNBOUNDED:
                d[j] = 0.0
            elif kind == self._ONE_SIDED:
                d[j] = self.signs[i] * (math.exp(z[j]) if z[j] < 700.0 else 0.0)
            else:
                p = expit(z[j])
                d[j] = (self.upper[i] - self.lower[i]) * p * (1.0 - p) * (1.0 - 2.0 * p)
        return d

    def nudge_inside(self, x) -> np.ndarray:
        """Move points sitting on (or outside) a bound strictly inside; a
        pinned coordinate is left alone."""
        x = np.asarray(x, dtype=float).copy()
        for i, kind in enumerate(self.kinds):
            if kind == self._ONE_SIDED:
                anchor, sign = self.anchors[i], self.signs[i]
                if sign * (x[i] - anchor) <= 0:
                    x[i] = anchor + sign * 1e-3
            elif kind == self._BOTH:
                lo, hi = self.lower[i], self.upper[i]
                if x[i] <= lo:
                    x[i] = lo + 1e-3 * (hi - lo)
                if x[i] >= hi:
                    x[i] = hi - 1e-3 * (hi - lo)
        return x


@dataclass(frozen=True, eq=False)
class MultistartResult:
    x: np.ndarray  # the full point, pinned coordinates included
    fun: float
    converged: bool
    n_evals: int


# what an objective may raise at a point where its rates are invalid
_OBJECTIVE_ERRORS = (ValueError, FloatingPointError, OverflowError, ZeroDivisionError)


def _safe(objective: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
    def wrapped(x):
        try:
            v = float(objective(x))
        except _OBJECTIVE_ERRORS:
            return math.inf
        return v if not math.isnan(v) else math.inf
    return wrapped


class _InBox:
    """``objective`` on the internal coordinates of ``transform``: the one
    way `minimize_multistart` evaluates it.  Every evaluation goes through
    `_external`, which counts it in ``n_evals``; a point where the objective
    raises one of `_OBJECTIVE_ERRORS` or gives nan reads +inf (`_safe`);
    derivatives are chained through the transform on its free coordinates.
    The objective's ``along`` differentiates in s, the first parameter, so
    it is used only when s is the one free coordinate."""

    def __init__(self, objective: Callable[[np.ndarray], float], transform: BoxTransform):
        self.transform = transform
        self.value = _safe(objective)
        self.gradient = getattr(objective, "value_and_grad", None)
        self.along = getattr(objective, "along", None) if transform.free == [0] else None
        self.n_evals = 0

    def _external(self, z) -> np.ndarray:
        self.n_evals += 1
        return self.transform.to_external(z)

    def __call__(self, z) -> float:
        return self.value(self._external(z))

    def value_and_grad(self, z) -> tuple[float, np.ndarray]:
        """Value and gradient in ``z``, from the objective's
        ``value_and_grad``; `_NM_INF` with a zero gradient where the value
        is not finite, so a line search backs off from it."""
        try:
            f, g = self.gradient(self._external(z))
            f = float(f)
        except _OBJECTIVE_ERRORS:
            f = math.inf
        if not f < math.inf:  # +inf or nan
            return _NM_INF, np.zeros_like(z)
        return f, np.asarray(g, dtype=float)[self.transform.free] * self.transform.dx_dz(z)

    def derivatives(self, z: float) -> tuple[float, float, float]:
        """Value with its first and second derivatives in the one internal
        coordinate ``z``: from the objective's ``along`` (params -> (value,
        first, second) in the parameter), else from central differences
        with step `POLISH_DIFF_STEP`, three evaluations; the internal
        coordinate has no bound, so every step stays in the box."""
        if self.along is None:
            step = POLISH_DIFF_STEP
            value, up, down = self([z]), self([z + step]), self([z - step])
            return value, (up - down) / (2.0 * step), (up - 2.0 * value + down) / (step * step)
        try:
            value, first, second = self.along(self._external([z]))
        except _OBJECTIVE_ERRORS:
            return math.inf, math.nan, math.nan
        slope, bend = float(self.transform.dx_dz([z])[0]), float(self.transform.d2x_dz2([z])[0])
        return value, first * slope, second * slope * slope + first * bend


def minimize_multistart(
    objective: Callable[[np.ndarray], float],
    start,
    lower,
    upper,
    restarts: int = FitConfig.restarts,
    tolerance: float = FitConfig.tolerance,
    max_evals: int = FitConfig.max_evals,
    seed: int | Sequence[int] | np.random.SeedSequence = FitConfig.seed,
    centre=None,
) -> MultistartResult:
    """Minimize ``objective`` over the box [``lower``, ``upper``] from ``start``.

    A coordinate whose two bounds are equal is pinned there (`BoxTransform`),
    as a profile pins a parameter; ``x`` is always the full point.  The
    number of free coordinates picks the method.  With none the objective
    is evaluated once.  With one, `_scan_and_polish` scans a grid around
    ``centre`` (default ``start``) plus ``start`` itself and polishes the
    best point by Newton steps, on ``objective.along`` (params -> (value,
    first and second derivative) in s, as `nll_objective` gives) when it
    has one and s is the free coordinate, else on central differences;
    ``restarts``, ``tolerance``, ``max_evals`` and ``seed`` are not used.
    With two or more, `_local_search` runs from ``start`` plus ``restarts``
    jittered restarts, all on the transformed space: BFGS when
    ``objective`` carries ``value_and_grad`` (params -> (value, gradient),
    as `nll_objective` gives for the freqdep rule), else Nelder-Mead, which
    alone uses ``tolerance`` and ``max_evals``.  Each run after the first
    stops once its iterate (BFGS's iterate, or Nelder-Mead's best vertex)
    is within `KNOWN_BASIN_RADIUS` in the inf-norm of the transformed space
    of the end point of an earlier run that converged to a finite value; a
    stopped run offers no end point.  ``n_evals`` counts objective calls,
    stopped runs' included, a value-and-gradient or a value-and-derivatives
    call as one, so a differenced pair of derivatives counts three.

    The answer never has a higher objective than the start point, which is
    kept when a run goes astray or none finds a finite value; the winner is
    the lowest final value of the runs not stopped, earliest start on exact
    ties.
    """
    transform = BoxTransform(lower, upper)
    view = _InBox(objective, transform)
    z0 = transform.to_internal(transform.nudge_inside(np.asarray(start, dtype=float)))
    k = z0.size
    if k == 0:
        return MultistartResult(transform.to_external(z0), view(z0), True, view.n_evals)
    if k == 1:
        zc = z0 if centre is None else transform.to_internal(
            transform.nudge_inside(np.asarray(centre, dtype=float)))
        z_best, f_best = _scan_and_polish(view, float(z0[0]), float(zc[0]))
        return MultistartResult(transform.to_external([z_best]), f_best, math.isfinite(f_best),
                                view.n_evals)

    rng = np.random.default_rng(seed)
    z_starts = [z0]
    if restarts > 0:
        jitter = np.log(rng.uniform(0.25, 4.0, size=(restarts, k)))
        z_starts.extend(z0 + jitter[r] for r in range(restarts))

    best_x, best_f, best_ok = transform.to_external(z0), math.inf, False
    known_ends = []  # internal end points of the starts that converged to a finite value

    def stop_in_known_basin(zk):
        # scipy (>= 1.11) passes the current iterate and ends the search,
        # as unsuccessful, on StopIteration
        nonlocal stopped
        if np.abs(np.asarray(known_ends) - zk).max(axis=1).min() <= KNOWN_BASIN_RADIUS:
            stopped = True
            raise StopIteration

    for z_init in z_starts:
        stopped = False
        callback = stop_in_known_basin if known_ends else None
        f_init, z_end, f_end, cand_ok = _local_search(view, z_init, tolerance, max_evals, callback)
        if stopped:  # it would only find a known minimum again
            continue
        cand_x = transform.to_external(z_end)
        cand_f = f_end if f_end < _NM_INF else math.inf
        if cand_f > f_init:  # keep the monotone-improvement guarantee
            cand_x, cand_f, cand_ok = transform.to_external(z_init), f_init, False
        if cand_ok and cand_f < math.inf:
            known_ends.append(z_end)
        if cand_f < best_f:
            best_x, best_f, best_ok = cand_x, cand_f, cand_ok
    return MultistartResult(best_x, best_f, best_ok, view.n_evals)


def _local_search(view: _InBox, z_init, tolerance: float, max_evals: int, callback=None):
    """One local search from ``z_init``, passing ``callback`` to scipy:
    (value at ``z_init``, end point, its value (`_NM_INF` for +inf),
    success).  BFGS when the objective has a gradient, else Nelder-Mead
    from a simplex whose first vertex is ``z_init``.  The start's value is
    reused rather than evaluated again, and +inf reads `_NM_INF`."""
    gradient = view.gradient is not None
    if gradient:
        evaluate, method, options = view.value_and_grad, "BFGS", {}
    else:
        def evaluate(z):
            return min(view(z), _NM_INF)
        k = z_init.size
        simplex = np.vstack([z_init] + [z_init + 0.25 * np.eye(k)[i] for i in range(k)])
        method = "Nelder-Mead"
        options = {"fatol": tolerance, "xatol": 1e-6, "maxfev": max_evals,
                   "initial_simplex": simplex}
    at_start = evaluate(z_init)
    res = minimize(
        lambda z: at_start if np.array_equal(z, z_init) else evaluate(z),
        z_init,
        jac=gradient,
        method=method,
        callback=callback,
        options=options,
    )
    f_init = at_start[0] if gradient else at_start
    return (f_init if f_init < _NM_INF else math.inf), res.x, float(res.fun), bool(res.success)


def _scan_and_polish(view: _InBox, z_start: float, z_centre: float) -> tuple[float, float]:
    """One-coordinate minimization in the internal coordinate: scan, then
    polish; (point, value).

    Scans `SCAN_POINTS` points over +-`SCAN_HALF_WIDTH` around ``z_centre``
    plus ``z_start``, steps outward by the grid spacing while the strictly
    best point sits at the edge of the scanned points (at most
    `SCAN_MAX_STEPS` times), so an objective that falls towards a limit (a
    bound, or a parameter running off to infinity) is followed rather than
    stopped in a shallow local minimum.  Each local minimum of the scanned
    values, the best point first, is then polished between its two
    neighbours, so a basin whose scanned points all lie above a far plateau
    is still searched by `_newton_polish`.  The lowest polished value wins,
    the best point's on ties; it is never worse than the best scanned
    point, hence never worse than the start.
    """
    grid = z_centre + _SCAN_OFFSETS
    zs = sorted({*map(float, grid), z_start})
    fs = [view([z]) for z in zs]
    spacing = grid[1] - grid[0]
    for _ in range(SCAN_MAX_STEPS):
        if fs[0] < min(fs[1:]):
            zs.insert(0, zs[0] - spacing)
            fs.insert(0, view([zs[0]]))
        elif fs[-1] < min(fs[:-1]):
            zs.append(zs[-1] + spacing)
            fs.append(view([zs[-1]]))
        else:
            break
    best = int(np.argmin(fs))
    z_best, f_best = zs[best], fs[best]
    if math.isfinite(f_best):
        last = len(zs) - 1
        dips = [best] + [i for i in range(len(zs)) if i != best
                         and (i == 0 or fs[i] < fs[i - 1]) and (i == last or fs[i] < fs[i + 1])]
        for i in dips:
            bracket = zs[max(i - 1, 0)], zs[min(i + 1, last)]
            z, f = _newton_polish(view, *bracket, zs[i], fs[i])
            if f < f_best:
                z_best, f_best = z, f
    return z_best, f_best


def _newton_polish(view: _InBox, lo: float, hi: float, z: float, f: float):
    """Safeguarded Newton minimization in the internal coordinate, from the
    scanned point ``z`` (value ``f``) inside the bracket [``lo``, ``hi``],
    whose ends are no lower: (point, value).

    The first and second derivatives come from `_InBox.derivatives`.  The
    sign of the derivative at ``z`` rules out the part of the bracket
    behind it, so Newton steps (`_newton_steps`) descend into the other
    part.  A basin behind a rise can hide in the part ruled out, so its
    midpoint is probed; when it is lower than ``f``, that part is polished
    from there as well, and the lower end point wins.  The value never
    rises above ``f``.
    """
    _, g, h = view.derivatives(z)
    z_end, f_end = _newton_steps(view.derivatives, lo, hi, z, f, g, h)
    behind = (lo, z) if g < 0 else (z, hi) if g > 0 else None
    if behind is not None and behind[1] - behind[0] >= POLISH_XATOL:
        mid = 0.5 * (behind[0] + behind[1])
        f_mid = view([mid])
        if f_mid < f:
            _, g_mid, h_mid = view.derivatives(mid)
            z_other, f_other = _newton_steps(view.derivatives, *behind, mid, f_mid, g_mid, h_mid)
            if f_other < f_end:
                z_end, f_end = z_other, f_other
    return z_end, f_end


def _newton_steps(derivatives, lo: float, hi: float, z: float, f: float, g: float, h: float):
    """Newton steps from ``z`` (value ``f``, first and second derivatives
    ``g`` and ``h``) inside [``lo``, ``hi``]: (point, value).

    The sign of the derivative at the best point moves the bracket's end
    behind it to that point, so the best point is an end of the bracket,
    the objective falls from it into the bracket, and the other end is no
    lower: a local minimum lies inside.  A Newton step that leaves the
    bracket, or meets non-positive curvature, bisects instead; a point no
    better than the best becomes the end on its side.  It stops once the
    bracket is narrower than `POLISH_XATOL`, or once neither the Newton
    decrement ``g**2 / (2h)`` nor, on a monotone plateau, ``|g|`` times the
    bracket width promises a gain of `POLISH_RTOL` relative to the value.
    Only better points are taken, so the value never rises above ``f``.
    """
    for _ in range(POLISH_MAX_STEPS):
        if g > 0:
            hi = z
        elif g < 0:
            lo = z
        else:  # zero or nan
            break
        width = hi - lo
        tol = POLISH_RTOL * max(1.0, abs(f))
        if width < POLISH_XATOL or abs(g) * width < tol:
            break
        if h > 0:
            if g * g < 2.0 * h * tol:
                break
            z_new = z - g / h
            if not lo < z_new < hi:
                z_new = 0.5 * (lo + hi)
        else:
            z_new = 0.5 * (lo + hi)
        f_new, g_new, h_new = derivatives(z_new)
        if f_new < f:
            z, f, g, h = z_new, f_new, g_new, h_new
        elif z_new > z:
            hi = z_new
        else:
            lo = z_new
    return z, f


def hessian_standard_errors(
    objective: Callable[[np.ndarray], float],
    x,
    lower=None,
    upper=None,
) -> np.ndarray | None:
    """SEs from a central finite-difference Hessian; None when unusable.

    Unusable means: a difference step would leave the feasible box, the
    Hessian is not positive definite, or the resulting variances are not
    finite and positive.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    if k == 0:
        return np.zeros(0)
    h = np.maximum(HESSIAN_REL_STEP * np.abs(x), HESSIAN_ABS_FLOOR)
    if lower is not None and np.any(x - h < np.asarray(lower, dtype=float)):
        return None
    if upper is not None and np.any(x + h > np.asarray(upper, dtype=float)):
        return None

    obj = _safe(objective)
    f0 = obj(x)
    hess = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        # divided by each step in turn: the square of a step past 1e154
        # would overflow, where the quotient only underflows
        hess[i, i] = (obj(x + ei) - 2.0 * f0 + obj(x - ei)) / h[i] / h[i]
    for i in range(k):
        for j in range(i + 1, k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h[i]
            ej[j] = h[j]
            fpp = obj(x + ei + ej)
            fpm = obj(x + ei - ej)
            fmp = obj(x - ei + ej)
            fmm = obj(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i]) / h[j]
    if not np.isfinite(hess).all():
        return None
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    cov = np.linalg.inv(hess)
    var = np.diagonal(cov)
    if np.any(var <= 0) or not np.isfinite(var).all():
        return None
    return np.sqrt(var)


def _resolve_bounds(rule: TransmissionRule, cfg: FitConfig):
    lower = tuple(cfg.lower) if cfg.lower is not None else rule.lower
    upper = tuple(cfg.upper) if cfg.upper is not None else rule.upper
    k = rule.n_params
    if len(lower) != k or len(upper) != k:
        raise ValueError(f"bounds must have {k} entries for rule {rule.kind!r}")
    if any(lo >= hi for lo, hi in zip(lower, upper)):  # no pin: AICc counts every parameter
        raise ValueError("each lower bound must be strictly below its upper bound")
    return np.asarray(lower, float), np.asarray(upper, float)


def _resolve_box(rule: TransmissionRule, cfg: FitConfig):
    lower, upper = _resolve_bounds(rule, cfg)
    start = tuple(cfg.start) if cfg.start is not None else rule.default_start
    k = rule.n_params
    if len(start) != k:
        raise ValueError(f"start must have {k} entries for rule {rule.kind!r}")
    return np.asarray(start, float), lower, upper


def fit_oada(
    data: DiffusionData | EventTable,
    rule: TransmissionRule,
    config: FitConfig | None = None,
) -> FitResult:
    """Maximum-likelihood fit of ``rule`` to an observed acquisition order.

    Accepts a `DiffusionData` or a prebuilt `EventTable`.  Deterministic for
    fixed inputs and config.  ``n_evals`` counts every NLL evaluation: the
    one of a rule with no free parameters, scan plus polish for one
    parameter, all starts for more, where a BFGS evaluation of the NLL and
    its gradient, or a Newton evaluation of the NLL and its first and
    second derivatives, counts as one, and their central differences (a
    rule without derivatives) as three.  Raises ValueError when no point the
    search visited gives a finite NLL (the rule's rate is invalid there).
    """
    table = data if isinstance(data, EventTable) else build_event_table(data)
    cfg = config or FitConfig()
    d = table.n_events

    start, lower, upper = _resolve_box(rule, cfg)
    objective = nll_objective(rule, table)
    ms = minimize_multistart(
        objective,
        start,
        lower,
        upper,
        restarts=cfg.restarts,
        tolerance=cfg.tolerance,
        max_evals=cfg.max_evals,
        seed=np.random.SeedSequence([cfg.seed]),
    )
    if not math.isfinite(ms.fun):
        raise ValueError(f"rule {rule.kind!r}: no finite likelihood where the fit searched")
    mle = ms.x
    flags = []
    notes = []
    for i, name in enumerate(rule.param_names):
        lo, hi = lower[i], upper[i]
        at_lo = math.isfinite(lo) and (mle[i] - lo) <= BOUND_TOL * max(1.0, abs(lo), abs(mle[i]))
        at_hi = math.isfinite(hi) and (hi - mle[i]) <= BOUND_TOL * max(1.0, abs(hi), abs(mle[i]))
        flags.append(bool(at_lo or at_hi))
        if not math.isfinite(hi) and mle[i] > CEILING_NOTE_AT:
            notes.append(
                f"{name} is extremely large ({mle[i]:.4g}); the likelihood is "
                "likely flat in that direction"
            )
    se = None
    if not any(flags):
        se = hessian_standard_errors(objective, mle, lower, upper)
    if se is None and not any(flags):
        notes.append("standard errors unavailable (Hessian not positive definite)")
    elif any(flags):
        notes.append("standard errors unavailable (MLE at a parameter bound)")

    return FitResult(
        rule=rule,
        table=table,
        mle=mle,
        nll=ms.fun,
        se=se,
        aicc=aicc(ms.fun, rule.n_params, d),
        converged=ms.converged,
        n_evals=ms.n_evals,
        boundary_flags=tuple(flags),
        notes=tuple(notes),
        config=cfg,
    )


@dataclass(frozen=True)
class ComparisonRow:
    rule_kind: str
    k: int
    nll: float
    aicc_value: float
    delta_aicc: float
    favored: bool


def compare_models(fits: Sequence[FitResult]) -> list[ComparisonRow]:
    """Rank fits of different rules to the *same* data by AICc.

    Rows come back sorted by ascending AICc.  Exactly one row is favored:
    the strictly lowest AICc, with exact ties broken by fewer parameters
    and then by the order the fits were passed in.  A row whose AICc equals
    the best, an infinite one included, has ``delta_aicc`` 0.0.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("compare_models needs at least one fit")
    first = fits[0].data
    for f in fits[1:]:
        if not (f.data is first or f.data == first):
            raise ValueError("all fits must be on the same diffusion data")

    order = sorted(range(len(fits)), key=lambda i: (fits[i].aicc, fits[i].k, i))
    winner = order[0]
    best = fits[winner].aicc
    rows = []
    for i in order:
        f = fits[i]
        rows.append(
            ComparisonRow(
                rule_kind=f.rule.kind,
                k=f.k,
                nll=f.nll,
                aicc_value=f.aicc,
                delta_aicc=0.0 if f.aicc == best else f.aicc - best,  # inf - inf is nan
                favored=(i == winner),
            )
        )
    return rows
