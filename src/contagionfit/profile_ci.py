"""Profile-likelihood confidence intervals.

The interval for one parameter is the set of pinned values whose profile
NLL (NLL minimized over all other parameters) stays within ``cutoff`` of the
fit NLL.  The default cutoff 1.92 is half the 0.95 quantile of a chi-square
with one degree of freedom, giving asymptotic 95% intervals; `experiments`
can replace it with a bootstrap-calibrated value.

Endpoint search: pins step away from the MLE (first offset 10% of |MLE|
with a 1e-3 floor), each at most twice as far from it as the last, until
one lies outside the region, plus one lookahead pin at twice that offset,
so that a profile that comes back into the region is followed to its
outermost crossing (a diagnostic records the non-monotone profile).  The
search follows the profile's slope, which at a pin is the NLL's
derivative in the pinned parameter at the inner optimum (the envelope
theorem): exact for the built-in simple, proportional and freqdep rules
(O(D) along s, one adjoint pass along f), and a central difference of the
NLL in the pinned parameter at the inner optimum for the other rules (two
evaluations, no inner fit); a plain callable passed to `profile_interval`
is differenced itself.  A pin inside steps to where the tangent meets the
cutoff (in the log of the distance to a lower bound), when that is nearer
than doubling and the straight tangent stays inside the box; a tangent
that lands on the crossing counts as the exit that the lookahead pin
follows.  Safeguarded Newton steps on ``pnll - target`` find the crossing
(Venzon & Moolgavkar 1988, Appl. Statist. 37:87-94), bisecting when a step
leaves the bracket or a slope disagrees with the values around it.  The
root search stops once the endpoint is known to within
``rel_tol / 4 * (1 + |estimate|)``: relative to the estimate, not to the
bracket, which for a runaway MLE spans many orders of magnitude.  A
profile value that is nan counts as +inf, so outside.  A side that
reaches the fit's box bound while still inside the region is truncated
there and flagged ``at_*_bound``; a side that reaches the search ceiling
(1e6 x max(1, |MLE|)) without crossing is reported as *open*.

Inner fit: each pinned value re-minimizes the NLL over the other
parameters with one `fit.minimize_multistart` call, so the number of free
parameters picks the method.  A one-parameter rule's profile is its NLL at
the pin.  A two-parameter rule scans its one nuisance, centred on the fit
MLE's value, from the warm start of this side of the MLE, and polishes with
safeguarded Newton steps on the NLL's first and second derivatives along
the nuisance (each pin passes on the objective's ``along`` for its free
coordinate; central differences stand in for a rule without it); the
outward steps of the scan follow a profile that falls towards a limit
(f -> infinity, a step rule).  Rules with three or more parameters run
Nelder-Mead multistart (`ProfileConfig.inner_restarts`, `inner_max_evals`
and `seed` act only on them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fit import FitResult, _safe, minimize_multistart, nll_objective
from .oada import DiffusionData, EventTable, build_event_table
from .rules import TransmissionRule

__all__ = [
    "ProfileCI",
    "ProfileConfig",
    "profile_nll",
    "profile_ci",
    "profile_interval",
    "DEFAULT_CUTOFF",
]

DEFAULT_CUTOFF = 1.92
FIRST_OFFSET_FRAC = 0.1
FIRST_OFFSET_FLOOR = 1e-3
BRACKET_FACTOR = 2.0
CEILING_SCALE = 1e6
INNER_TOLERANCE = 1e-8
ROOT_MIN_RTOL = 4 * np.finfo(float).eps  # floor of the root tolerance's relative part
ROOT_MAX_PINS = 100  # pins one root search may take
# central-difference step of a slope without a gradient, times 1 + |x|
SLOPE_DIFF_STEP = 1e-5
# a pin's slope is trusted when the secant from the pin before it lies
# between the two pins' slopes, give or take this share of the larger one
SLOPE_SLACK = 0.1


@dataclass(frozen=True)
class ProfileConfig:
    """Profile-interval settings.

    ``cutoff`` and ``rel_tol`` drive the endpoint search: the root search
    stops once an endpoint is known to within ``rel_tol / 4`` times
    ``1 + |endpoint|``.
    ``inner_restarts``, ``inner_max_evals`` and ``seed`` set the Nelder-Mead
    multistart of the inner fit, which only rules with three or more
    parameters use; two-parameter rules minimize their one nuisance by a
    fixed scan and a Newton polish, which take no setting (see the module
    docstring).
    """

    cutoff: float = DEFAULT_CUTOFF
    rel_tol: float = 1e-4
    inner_restarts: int = 2
    inner_max_evals: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be > 0")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.inner_restarts < 0:
            raise ValueError("inner_restarts must be >= 0")
        if self.inner_max_evals < 10:
            raise ValueError("inner_max_evals must be >= 10")


@dataclass(frozen=True, eq=False)
class ProfileCI:
    """One parameter's profile-likelihood interval.

    ``lower_open``/``upper_open`` mean the search hit its ceiling without
    leaving the confidence region, so that side is effectively unbounded.
    ``at_lower_bound``/``at_upper_bound`` mean the region is truncated at
    the parameter's box bound (the bound itself is included).
    ``profile_points`` records every (value, profile NLL) the search
    evaluated, for plotting and debugging; a nan profile value is recorded
    as +inf.
    """

    param_index: int
    param_name: str
    mle_value: float
    lower: float
    upper: float
    lower_open: bool
    upper_open: bool
    at_lower_bound: bool
    at_upper_bound: bool
    cutoff: float
    profile_points: tuple[tuple[float, float], ...]
    diagnostics: tuple[str, ...] = ()

    def contains(self, value: float) -> bool:
        """Open sides count as unbounded; bound-truncated sides include the bound."""
        lo_ok = True if self.lower_open else value >= self.lower
        hi_ok = True if self.upper_open else value <= self.upper
        return bool(lo_ok and hi_ok)

    @property
    def width(self) -> float:
        if self.lower_open or self.upper_open:
            return math.inf
        return self.upper - self.lower

    def report_dict(self) -> dict:
        return {
            "param": self.param_name,
            "mle": float(self.mle_value),
            "lower": float(self.lower),
            "upper": float(self.upper),
            "lower_open": self.lower_open,
            "upper_open": self.upper_open,
            "at_lower_bound": self.at_lower_bound,
            "at_upper_bound": self.at_upper_bound,
            "cutoff": float(self.cutoff),
            "diagnostics": list(self.diagnostics),
        }


class _Profile:
    """Profile NLL of one parameter: the module's only inner fit.

    Pins parameter ``index`` (the objective's pinned view,
    `oada._Objective.pin`) and minimizes the NLL over the others in the box
    [``lower``, ``upper``] with one `minimize_multistart` call per pin, from
    a warm start: the free part of ``start`` (which also centres a
    one-nuisance scan) at the first pin on each side of ``centre``, then
    the optimum of the side's last pin, so one instance serves both
    directions of an interval search and neither inherits the other's
    optimum.  A pinned view carries the objective's ``along`` for its free
    coordinates, when the objective has it, so a one-nuisance search ends
    in a Newton polish.  ``value_and_slope`` gives the profile value with
    its slope.
    """

    def __init__(self, table, rule, index, lower, upper, start, centre, cfg):
        self.objective = nll_objective(rule, table)
        self.index = index
        self.centre = centre
        self.cfg = cfg
        self.free_start = np.delete(np.asarray(start, dtype=float), index)
        self.bounds = lower[index], upper[index]
        self.lower = np.delete(lower, index)
        self.upper = np.delete(upper, index)
        self.side = None
        self.warm = self.free_start

    def _pin(self, value: float):
        """(pinned view, `minimize_multistart` result) at ``value``."""
        side = value > self.centre
        if side != self.side:
            self.side, self.warm = side, self.free_start
        view = self.objective.pin(self.index, value)
        ms = minimize_multistart(
            view,
            self.warm,
            self.lower,
            self.upper,
            restarts=self.cfg.inner_restarts,
            tolerance=INNER_TOLERANCE,
            max_evals=self.cfg.inner_max_evals,
            seed=(self.cfg.seed, self.index),
            centre=self.free_start,
        )
        if math.isfinite(ms.fun):
            self.warm = ms.x
        return view, ms

    def __call__(self, value: float) -> float:
        return self._pin(value)[1].fun

    def value_and_slope(self, value: float) -> tuple[float, float]:
        """(profile NLL, its slope) at ``value``.  By the envelope theorem
        the slope is the NLL's derivative in the pinned parameter at the
        inner optimum: `oada._Pinned.slope` when the objective has a
        gradient, else a central difference of the NLL at the inner
        optimum's free parameters, two evaluations and no inner fit."""
        view, ms = self._pin(value)
        if not math.isfinite(ms.fun):
            return ms.fun, math.nan
        if self.objective.value_and_grad is not None:
            return ms.fun, view.slope(ms.x)
        return ms.fun, _difference_slope(
            lambda v: _safe(self.objective.pin(self.index, v))(ms.x), value, ms.fun, *self.bounds)


def _difference_slope(value_at, x: float, f: float, lower: float, upper: float) -> float:
    """Slope of ``value_at`` at ``x`` (value ``f``) by a central difference
    with step `SLOPE_DIFF_STEP` times ``1 + |x|``, one-sided where a step
    would leave [``lower``, ``upper``]; nan when both would."""
    h = SLOPE_DIFF_STEP * (1.0 + abs(x))
    hi = x + h if x + h <= upper else x
    lo = x - h if x - h >= lower else x
    if hi == lo:
        return math.nan
    return ((value_at(hi) if hi != x else f) - (value_at(lo) if lo != x else f)) / (hi - lo)


def profile_nll(
    data: DiffusionData | EventTable,
    rule: TransmissionRule,
    param_index: int,
    value: float,
    fit: FitResult | None = None,
    config: ProfileConfig | None = None,
) -> float:
    """NLL minimized over all parameters except the pinned one.

    For single-parameter rules this is just the NLL at the pinned value.
    The inner search starts from the fit MLE's free components (the rule's
    default start without a fit): a scan and a Newton polish of the nuisance
    for two-parameter rules, Nelder-Mead multistart for larger ones.  Pins
    outside the parameter box raise ValueError.  The box is the one ``fit``
    searched (`FitResult.box`) when a fit is given, else the rule's own.
    """
    table = data if isinstance(data, EventTable) else build_event_table(data)
    k = rule.n_params
    if not 0 <= param_index < k:
        raise ValueError(f"param_index {param_index} out of range for k={k}")
    if fit is not None:
        (box_lower, box_upper), start = fit.box, fit.mle
    else:
        box_lower, box_upper, start = rule.lower, rule.upper, rule.default_start
    lo, hi = box_lower[param_index], box_upper[param_index]
    if not (lo <= value <= hi):
        raise ValueError(
            f"pinned value {value} outside bounds [{lo}, {hi}] "
            f"for {rule.param_names[param_index]}"
        )
    pnll = _Profile(table, rule, param_index, box_lower, box_upper, start, value,
                    config or ProfileConfig())
    return pnll(value)


def _search_side(
    pin: Callable[[float], tuple[float, float]],
    direction: int,
    mle: float,
    nll_min: float,
    bound: float,
    base: float,
    cfg: ProfileConfig,
    diagnostics: list[str],
):
    """Find one interval endpoint.  Returns (endpoint, open_flag, at_bound).

    ``pin(x)`` gives the profile value at ``x``, never nan
    (`profile_interval` records nan as +inf), and its slope (nan where
    unknown).  Pins step away from the MLE, each at most twice as far from
    it as the last, until the region has been left twice or the limit (box
    bound or ceiling) is pinned: one lookahead pin follows the first exit,
    so a profile that comes back into the region (a non-monotone one) is
    followed to its outermost crossing.  A pin inside whose slope is
    `_trusted` and points outward steps to where the profile's tangent
    meets the target (`_tangent_root`, in ``log(x - base)`` when ``base``,
    the parameter's lower bound, is finite) instead of doubling, when that
    is nearer and the straight tangent does not pass the box bound.  A step
    within `_root_tol` of its estimated crossing (`_newton_error`) is an
    exit and ends there; otherwise `_slope_root` finds the crossing after
    the last pin inside.
    """
    target = nll_min + cfg.cutoff
    ceiling_span = CEILING_SCALE * max(1.0, abs(mle))
    limit = mle + direction * ceiling_span
    limited_by_bound = False
    if direction > 0 and bound < limit:
        limit, limited_by_bound = bound, True
    if direction < 0 and bound > limit:
        limit, limited_by_bound = bound, True

    if direction * (limit - mle) <= 0:  # MLE already sits on the bound
        return limit, False, True

    offset = max(FIRST_OFFSET_FRAC * abs(mle), FIRST_OFFSET_FLOOR)
    pins = [(mle, nll_min, 0.0)]  # (x, value, slope); the fit's MLE is a stationary point
    exits = crossings = 0  # odd crossings: the last pin or tangent is outside
    root = None  # (index of the last pin inside, the crossing after it)
    x = mle + direction * offset
    while True:
        if direction * (x - limit) >= 0:
            x = limit
        pins.append((x, *pin(x)))
        _, f, g = pins[-1]
        crossings += (f > target) != (crossings % 2 == 1)
        if x == limit:
            break
        if f > target:
            exits += 1
            if exits >= 2:  # one lookahead point past the first exit
                break
            # found now, so that none of its pins starts from the lookahead's optimum
            root = len(pins) - 2, _slope_root(pin, pins[-2], pins[-1], target, base, cfg)
        offset *= BRACKET_FACTOR
        x = mle + direction * offset
        if f <= target and direction * g > 0 and _trusted(pins[-2], pins[-1]):
            tangent = _tangent_root(*pins[-1], target, base)
            # a tangent in log(x - base) never reaches a box bound: where the
            # straight one passes the bound, the doubling goes on to pin it
            straight = pins[-1][0] + (target - f) / g
            past_bound = limited_by_bound and direction * (straight - limit) >= 0
            if direction * (x - tangent) > 0 and not past_bound:  # nearer than doubling
                x, offset = tangent, direction * (tangent - mle)
                if (direction * (limit - x) > 0
                        and _newton_error(pins[-2], pins[-1], x, base) <= _root_tol(x, cfg)):
                    # tangents reached the crossing from inside: an exit
                    root = len(pins) - 1, x
                    crossings += 1
                    exits += 1
                    if exits >= 2:
                        break
                    offset *= BRACKET_FACTOR
                    x = mle + direction * offset

    if crossings > 1:
        diagnostics.append(
            f"non-monotone profile on the {'upper' if direction > 0 else 'lower'} "
            f"side; outermost crossing used"
        )
    if crossings % 2 == 0:
        # the scan ended (at the box bound or the ceiling) still inside the
        # confidence region
        if limited_by_bound:
            return limit, False, True  # truncated at the box bound
        return limit, True, False  # open: ceiling reached inside the region

    # the side ended outside, so a crossing follows the last pin inside
    last_in = max(i for i, (_, f, _) in enumerate(pins) if f <= target)
    if root is None or root[0] != last_in:
        root = last_in, _slope_root(pin, pins[last_in], pins[last_in + 1], target, base, cfg)
    return root[1], False, False


def _root_tol(x: float, cfg: ProfileConfig) -> float:
    """How near ``x`` a root search stops: ``rel_tol / 4 * (1 + |x|)``,
    with a relative part no finer than `ROOT_MIN_RTOL`."""
    return cfg.rel_tol / 4.0 + max(cfg.rel_tol / 4.0, ROOT_MIN_RTOL) * abs(x)


def _tangent_root(x: float, f: float, g: float, target: float, base: float) -> float:
    """Where the profile's tangent at ``x`` (value ``f``, slope ``g``) meets
    ``target``: a Newton step in ``log(x - base)`` when ``base`` is finite
    and below ``x``, else in ``x``; nan when the slope is unusable."""
    if not (math.isfinite(f) and math.isfinite(g)) or g == 0.0:
        return math.nan
    if -math.inf < base < x < math.inf:
        scale = x - base
        return base + math.exp(min(math.log(scale) + (target - f) / (g * scale), 700.0))
    return x + (target - f) / g


def _trusted(before: tuple[float, float, float], pin: tuple[float, float, float]) -> bool:
    """Whether ``pin``'s slope agrees with the profile values: the secant
    from the pin ``before`` it lies between the two pins' slopes (the mean
    value theorem for a profile whose slope is monotone between them), give
    or take `SLOPE_SLACK` of the larger slope.  A slope read at an inner
    optimum that is not stationary (a nuisance running off to a limit) or
    across a jump between inner basins fails it."""
    (x0, f0, g0), (x1, f1, g1) = before, pin
    secant = (f1 - f0) / (x1 - x0)
    slack = SLOPE_SLACK * max(abs(g0), abs(g1))
    return min(g0, g1) - slack <= secant <= max(g0, g1) + slack


def _newton_error(before, pin, new: float, base: float) -> float:
    """How far the Newton point ``new`` from ``pin`` may lie from the
    crossing.  When the slopes at ``before`` and ``pin`` are within a
    factor 2 of each other, so that they describe one bend of the profile,
    four times the step's second-order term: the bend between them, and in
    ``log(x - base)`` that coordinate's own; else the whole step."""
    (x0, _, g0), (x1, _, g1) = before, pin
    step = new - x1
    if not 0.5 <= g0 / g1 <= 2.0:
        return abs(step)
    bend = abs((g1 - g0) / (x1 - x0) / g1)
    if -math.inf < base < x1:
        bend += 1.0 / (x1 - base)
    return 4.0 * step * step * bend


def _slope_root(pin, inside: tuple[float, float, float], outside: tuple[float, float, float],
                target: float, base: float, cfg: ProfileConfig) -> float:
    """The crossing of ``target`` between the pins ``inside`` and
    ``outside``, each ``(x, value, slope)``, ``outside`` pinned last.

    Newton steps on ``pnll - target`` from the latest pin, safeguarded as
    in Numerical Recipes' ``rtsafe``: a step that leaves the bracket, is
    more than half the step before last, or starts from a slope that is
    not `_trusted`, bisects (geometrically about ``base`` when it is
    finite).  Each pin replaces the bracket end on its side.  It stops once
    the bracket, or a Newton step's estimated error (`_newton_error`), is
    within `_root_tol`, and returns the last step's end point, which it
    does not pin."""
    (a, *_), (b, *_) = inside, outside
    before, latest = inside, outside
    last = half = abs(b - a)
    for _ in range(ROOT_MAX_PINS):
        lo, hi = min(a, b), max(a, b)
        x = latest[0]
        new = _tangent_root(*latest, target, base)
        newton = lo < new < hi and abs(new - x) <= half and _trusted(before, latest)
        if not newton and -math.inf < base < lo:
            new = base + math.sqrt((lo - base) * (hi - base))
        elif not newton:
            new = 0.5 * (lo + hi)
        tol = _root_tol(new, cfg)
        if (newton and _newton_error(before, latest, new, base) <= tol) or hi - lo <= tol:
            break
        half, last = 0.5 * last, abs(new - x)
        before, latest = latest, (new, *pin(new))
        if latest[1] > target:
            b = new
        else:
            a = new
    return new


def profile_interval(
    pnll: Callable[[float], float],
    mle_value: float,
    nll_min: float,
    lower_bound: float = -math.inf,
    upper_bound: float = math.inf,
    cutoff: float | None = None,
    config: ProfileConfig | None = None,
    param_index: int = 0,
    param_name: str = "x",
) -> ProfileCI:
    """Interval machinery over an arbitrary profile-NLL callable.

    This is the engine behind `profile_ci`; it is exposed so synthetic
    objectives (e.g. exact quadratics) can exercise the search directly.
    The endpoint search follows the profile's slope: ``pnll``'s
    ``value_and_slope`` (value -> (profile NLL, its slope), as
    `profile_ci`'s profiles have), else a central difference of ``pnll``
    (`_difference_slope`), whose two extra values are not recorded as
    pins.  A profile value below ``nll_min`` is reported as a diagnostic:
    the optimum ``nll_min`` came from was not the global one.
    """
    cfg = config or ProfileConfig()
    if cutoff is not None:
        cfg = replace(cfg, cutoff=cutoff)
    points: list[tuple[float, float]] = []
    value_and_slope = getattr(pnll, "value_and_slope", None)

    def pin(v):
        if value_and_slope is None:
            f = float(pnll(v))
            g = _difference_slope(lambda u: float(pnll(u)), v, f, lower_bound, upper_bound)
        else:
            f, g = value_and_slope(v)
        f = float(f)
        if math.isnan(f):
            f = math.inf  # outside the region, for the scan and the root search
        points.append((float(v), f))
        return f, float(g)

    diagnostics: list[str] = []
    lo, lo_open, lo_at_bound = _search_side(
        pin, -1, mle_value, nll_min, lower_bound, lower_bound, cfg, diagnostics
    )
    hi, hi_open, hi_at_bound = _search_side(
        pin, +1, mle_value, nll_min, upper_bound, lower_bound, cfg, diagnostics
    )
    points.sort()
    observed = [f for _, f in points if math.isfinite(f)]
    if observed and min(observed) < nll_min - 1e-6:
        diagnostics.append(
            "profile found a lower NLL than the fit; the fit may not be the "
            "global optimum"
        )
    return ProfileCI(
        param_index=param_index,
        param_name=param_name,
        mle_value=float(mle_value),
        lower=float(lo),
        upper=float(hi),
        lower_open=lo_open,
        upper_open=hi_open,
        at_lower_bound=lo_at_bound,
        at_upper_bound=hi_at_bound,
        cutoff=cfg.cutoff,
        profile_points=tuple(points),
        diagnostics=tuple(diagnostics),
    )


def profile_ci(
    fit: FitResult,
    param_index: int,
    cutoff: float | None = None,
    config: ProfileConfig | None = None,
) -> ProfileCI:
    """Profile-likelihood interval for one parameter of a fitted rule."""
    rule = fit.rule
    k = rule.n_params
    if k == 0:
        raise ValueError("the asocial rule has no parameters to profile")
    if not 0 <= param_index < k:
        raise ValueError(f"param_index {param_index} out of range for k={k}")
    cfg = config or ProfileConfig()
    lower, upper = fit.box
    mle_value = float(fit.mle[param_index])
    return profile_interval(
        _Profile(fit.table, rule, param_index, lower, upper, fit.mle, mle_value, cfg),
        mle_value,
        fit.nll,
        lower_bound=lower[param_index],
        upper_bound=upper[param_index],
        cutoff=cutoff,
        config=cfg,
        param_index=param_index,
        param_name=rule.param_names[param_index],
    )
