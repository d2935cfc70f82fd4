"""Profile-likelihood confidence intervals.

The interval for one parameter is the set of pinned values whose profile
NLL (NLL minimized over all other parameters) stays within ``cutoff`` of the
fit NLL.  The default cutoff 1.92 is half the 0.95 quantile of a chi-square
with one degree of freedom, giving asymptotic 95% intervals; `experiments`
can replace it with a bootstrap-calibrated value.

Endpoint search: geometric bracket expansion away from the MLE (factor 2,
initial offset 10% of |MLE| with a 1e-3 floor), then scipy's `brentq` for
the crossing between the last pin inside and the first pin outside,
started from the values already known there.  It stops once the bracket is
narrower than ``rel_tol / 4 * (1 + |estimate|)``: relative to the
estimate, not to the bracket, which for a runaway MLE spans many orders of
magnitude.  A profile value that is nan counts as +inf, so outside.  A side
that reaches the fit's box bound while still inside the region is
truncated there and flagged ``at_*_bound``; a side that reaches the search
ceiling (1e6 x max(1, |MLE|)) without crossing is reported as *open*.  If the scan sees several sign
changes (a non-monotone profile), the outermost crossing wins and a
diagnostic records it.

Inner fit: each pinned value re-minimizes the NLL over the other
parameters with one `fit.minimize_multistart` call, so the number of free
parameters picks the method.  A one-parameter rule's profile is its NLL at
the pin.  A two-parameter rule scans its one nuisance, centred on the fit
MLE's value, from the warm start of this side of the MLE, and polishes with
bounded Brent; the outward steps of the scan follow a profile that falls
towards a limit (f -> infinity, a step rule).  Rules with three or more
parameters run Nelder-Mead multistart (`ProfileConfig.inner_restarts`,
`inner_max_evals` and `seed` act only on them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .fit import FitResult, minimize_multistart, nll_objective
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
BRENTQ_MIN_RTOL = 4 * np.finfo(float).eps  # scipy's brentq refuses a smaller rtol


@dataclass(frozen=True)
class ProfileConfig:
    """Profile-interval settings.

    ``cutoff`` and ``rel_tol`` drive the endpoint search: the root search
    stops once an endpoint is known to within ``rel_tol / 4`` times
    ``1 + |endpoint|``.
    ``inner_restarts``, ``inner_max_evals`` and ``seed`` set the Nelder-Mead
    multistart of the inner fit, which only rules with three or more
    parameters use; two-parameter rules minimize their one nuisance by a
    fixed scan and a bounded Brent polish (see the module docstring).
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

    Pins parameter ``index`` and minimizes the NLL over the others in the box
    [``lower``, ``upper``] with one `minimize_multistart` call per pin, from
    the free part of ``start``, which also centres a one-nuisance scan.  Pins
    on each side of ``centre`` keep their own warm start, so one instance
    serves both directions of an interval search and neither inherits the
    other's optimum.
    """

    def __init__(self, table, rule, index, lower, upper, start, centre, cfg):
        self.objective = nll_objective(rule, table)
        self.index = index
        self.centre = centre
        self.cfg = cfg
        self.free_start = np.delete(np.asarray(start, dtype=float), index)
        self.starts = {False: self.free_start, True: self.free_start}
        self.lower = np.delete(lower, index)
        self.upper = np.delete(upper, index)

    def __call__(self, value: float) -> float:
        side = value > self.centre
        i = self.index

        def pinned(free):
            return self.objective(np.concatenate((free[:i], [value], free[i:])))

        ms = minimize_multistart(
            pinned,
            self.starts[side],
            self.lower,
            self.upper,
            restarts=self.cfg.inner_restarts,
            tolerance=INNER_TOLERANCE,
            max_evals=self.cfg.inner_max_evals,
            seed=(self.cfg.seed, i),
            centre=self.free_start,
        )
        if math.isfinite(ms.fun):
            self.starts[side] = ms.x
        return ms.fun


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
    default start without a fit): a scan and Brent polish of the nuisance
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
    pnll: Callable[[float], float],
    direction: int,
    mle: float,
    nll_min: float,
    bound: float,
    cfg: ProfileConfig,
    diagnostics: list[str],
):
    """Find one interval endpoint.  Returns (endpoint, open_flag, at_bound).

    ``pnll`` never returns nan (`profile_interval` records nan as +inf).
    Geometric bracket scan away from the MLE, then scipy's `brentq` between
    the last pin inside and the first pin outside, started from their known
    values so that no pin is evaluated twice.
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

    step = max(FIRST_OFFSET_FRAC * abs(mle), FIRST_OFFSET_FLOOR)
    xs = [mle]
    fs = [nll_min]
    exits = 0
    x = mle + direction * step
    while True:
        if direction * (x - limit) >= 0:
            x = limit
        fs.append(pnll(x))
        xs.append(x)
        if x == limit:
            break
        if fs[-1] > target:
            exits += 1
            if exits >= 2:  # one lookahead point past the first exit
                break
        step *= BRACKET_FACTOR
        x = mle + direction * step

    inside = [f <= target for f in fs]
    crossings = sum(1 for a, b in zip(inside, inside[1:]) if a != b)
    if crossings > 1:
        diagnostics.append(
            f"non-monotone profile on the {'upper' if direction > 0 else 'lower'} "
            f"side; outermost crossing used"
        )
    if inside[-1]:
        # the scan ended (at the box bound or the ceiling) still inside the
        # confidence region
        if limited_by_bound:
            return limit, False, True  # truncated at the box bound
        return limit, True, False  # open: ceiling reached inside the region

    # the scan's last pin is outside, so the pin after the last one inside is
    # outside too
    last_in = max(i for i, ok in enumerate(inside) if ok)
    a, b = xs[last_in], xs[last_in + 1]
    known = {a: fs[last_in], b: fs[last_in + 1]}
    # the profile goes in as args: scipy wraps the callable in a function
    # that refers to itself, a reference cycle that would keep a closure
    # over ``pnll`` (its objective and cached event sums) alive until the
    # next cyclic garbage collection
    endpoint = brentq(
        _above_target, a, b, args=(pnll, known, target),
        xtol=cfg.rel_tol / 4.0, rtol=max(cfg.rel_tol / 4.0, BRENTQ_MIN_RTOL),
    )
    return endpoint, False, False


def _above_target(x, pnll, known, target):
    """Profile value at ``x`` above ``target``, read from ``known`` when the
    bracket scan evaluated ``x`` already."""
    return (known[x] if x in known else pnll(x)) - target


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
    A profile value below ``nll_min`` is reported as a diagnostic: the
    optimum ``nll_min`` came from was not the global one.
    """
    cfg = config or ProfileConfig()
    if cutoff is not None:
        cfg = replace(cfg, cutoff=cutoff)
    points: list[tuple[float, float]] = []

    def recorded(v):
        f = float(pnll(v))
        if math.isnan(f):
            f = math.inf  # outside the region, for the scan and the root search
        points.append((float(v), f))
        return f

    diagnostics: list[str] = []
    lo, lo_open, lo_at_bound = _search_side(
        recorded, -1, mle_value, nll_min, lower_bound, cfg, diagnostics
    )
    hi, hi_open, hi_at_bound = _search_side(
        recorded, +1, mle_value, nll_min, upper_bound, cfg, diagnostics
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
