"""Transmission rules: how a naive individual's social rate depends on its
informed neighbours.

A rule maps (parameters, connection row ``a_i``, status vector ``z``) to a
non-negative social transmission rate ``T``.  The acquisition likelihood and
the simulator both use the relative rate ``T + 1`` (the baseline asocial
hazard is normalized to 1 and cancels from order-of-acquisition
probabilities).

Every built-in rule depends on the connections only through two sums:
``w_informed = sum_j a_ij z_j`` (connection to informed individuals) and
``total = sum_j a_ij``.  Such rules carry a vectorized, elementwise
``sums_rate(params, w_informed, total)``, which the simulator calls on the
individuals whose sums an event changed, and `eval_rate` on one pair.  The
likelihood evaluates one table's fixed sums many times, so it asks the rule
once per objective for ``params -> rates`` on those sums
(`TransmissionRule.run_rates`): the simple, proportional and freqdep rules
``prepare`` their parameter-free pieces there (the informed weight, an
informed fraction, a log ratio), and every other rule, custom rules
included, goes through ``sums_rate``.  In those three rules the learning
strength s only scales a *shape*, the rate at s = 1: ``T = s * x``, where
x depends on the other parameters alone (none, or f).  Their prepared rates
give that shape and its derivatives, so the likelihood can keep a shape's
event sums and re-evaluate a new s in O(events) (see `oada`).  Custom
rules may instead supply a plain per-individual ``full_rate(params, a_i, z)``.

Built-ins
---------
asocial        T = 0
simple         T = s * w_informed                      (standard linear rate)
proportional   T = s * w_informed / total              (0 when total = 0)
freqdep        T = s * w_inf^f / (w_inf^f + w_uninf^f) (0 when total = 0,
               s when all connections informed; f = 1 recovers proportional)
threshold      sigmoid in w_informed, exactly 0 at w_informed = 0, upper
               asymptote c, half-rise near the location parameter a,
               sharpness b (fixed at 3.0 unless estimated)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import expit

__all__ = [
    "TransmissionRule",
    "asocial_rule",
    "simple_rule",
    "proportional_rule",
    "frequency_dependent_rule",
    "threshold_rule",
    "custom_rule",
    "rule_from_name",
    "eval_rate",
    "rate_simple",
    "rate_proportional",
    "rate_frequency_dependent",
    "rate_threshold",
    "BUILTIN_RULE_NAMES",
    "DEFAULT_SHARPNESS",
]

DEFAULT_SHARPNESS = 3.0

# (params, w_informed, total) -> rates; must accept ndarrays elementwise
SumsRate = Callable[..., np.ndarray]
# (params, connections, status) -> scalar rate
FullRate = Callable[[np.ndarray, np.ndarray, np.ndarray], float]
# (w_informed, total) -> (params -> rates on those sums)
Prepare = Callable[..., Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class TransmissionRule:
    """A named transmission rule with parameter box constraints.

    Fields
    ------
    kind : canonical rule name (appears in reports and tables)
    param_names : free parameter names, in the order params vectors use
    lower, upper : box bounds, one entry per free parameter
    fixed : name -> value for constants baked into the rule (e.g. b)
    sums_rate : vectorized fast path, present when the rate depends on the
        connections only through (w_informed, total); it must be
        elementwise, each rate a function of its own pair of sums alone,
        because the simulator evaluates it on the subset of individuals
        whose sums changed and keeps the other rates
    prepare : optional ``(w_informed, total) -> (params -> rates)`` that
        computes the parameter-free pieces of ``sums_rate`` once for fixed
        sums, giving the same rates; `run_rates` falls back to
        ``sums_rate`` without it.  When the first parameter only scales the
        rates, ``rates(params) == params[0] * x`` with ``x`` independent of
        ``params[0]``, the callable may also have the methods
        ``shape(rest) -> x`` and ``shape_jacobian(rest) -> (x, (R, k - 1)
        derivatives of x in rest)``, where ``rest = params[1:]``; the
        likelihood then caches each shape's event sums and gives fits a
        gradient, and the first and second derivatives along s (the
        built-in simple, proportional and freqdep rules)
    full_rate : general evaluator used when no fast path exists
    size_param : name of the parameter that switches social learning off at
        0; other parameters are non-identifiable when it is truly 0
    default_start : optimizer starting point used when the caller gives none
    """

    kind: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    fixed: Mapping[str, float] = field(default_factory=dict)
    sums_rate: SumsRate | None = None
    prepare: Prepare | None = None
    full_rate: FullRate | None = None
    size_param: str | None = None
    default_start: tuple[float, ...] = ()

    def __post_init__(self):
        k = len(self.param_names)
        if len(self.lower) != k or len(self.upper) != k:
            raise ValueError("lower/upper must match param_names in length")
        if self.sums_rate is None and self.full_rate is None:
            raise ValueError("a rule needs sums_rate or full_rate")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bound above upper bound")
        if not self.default_start:
            object.__setattr__(
                self,
                "default_start",
                tuple(min(max(1.0, lo), hi) for lo, hi in zip(self.lower, self.upper)),
            )

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def run_rates(self, w_informed, total) -> Callable[[np.ndarray], np.ndarray] | None:
        """``params -> rates`` on the fixed sums ``(w_informed, total)``, with
        the parameter-free pieces computed here, once: ``prepare``, else
        ``sums_rate`` on the sums; None for a rule with only ``full_rate``."""
        if self.prepare is not None:
            return self.prepare(w_informed, total)
        if self.sums_rate is None:
            return None
        sums_rate = self.sums_rate
        return lambda params: sums_rate(params, w_informed, total)

    def check_params(self, params) -> np.ndarray:
        p = np.atleast_1d(np.asarray(params, dtype=float))
        if p.shape != (self.n_params,):
            raise ValueError(
                f"rule {self.kind!r} takes {self.n_params} parameter(s) "
                f"{self.param_names}, got {p.size}"
            )
        for name, v, lo, hi in zip(self.param_names, p, self.lower, self.upper):
            if not np.isfinite(v) or v < lo or v > hi:
                raise ValueError(
                    f"parameter {name}={v} outside bounds [{lo}, {hi}]"
                )
        return p


# --- built-in rate kernels (module-level so rules pickle cleanly) ---

def _asocial_sums(params, w, tot):
    return np.zeros_like(np.asarray(w, dtype=float))


def _simple_sums(params, w, tot):
    return _simple_prepare(w, tot)(params)


def _simple_prepare(w, tot):
    return _FixedShape(np.asarray(w, dtype=float))


class _FixedShape:
    """Rates ``s * x`` on fixed sums, for a shape ``x`` with no parameter
    (simple: ``w_informed``; proportional: the informed fraction)."""

    def __init__(self, x):
        self.x = x

    def __call__(self, params):
        return params[0] * self.x

    def shape(self, rest):
        return self.x

    def shape_jacobian(self, rest):
        return self.x, np.empty((self.x.size, 0))


def _proportional_prepare(w, tot):
    w = np.asarray(w, dtype=float)
    tot = np.asarray(tot, dtype=float)
    frac = np.zeros(np.broadcast(w, tot).shape)
    np.divide(w, tot, out=frac, where=tot > 0)
    return _FixedShape(frac)


def _proportional_sums(params, w, tot):
    return _proportional_prepare(w, tot)(params)


def _log_ratio(w, tot):
    """log(w_un / w) with w_un = tot - w: +inf without informed weight
    (rate 0), -inf when saturated (rate s)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    w_un = np.asarray(tot, dtype=float) - w
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(w_un) - np.log(w)
    log_ratio[w_un <= 0] = -np.inf
    log_ratio[w <= 0] = np.inf
    return log_ratio


def _share(f, log_ratio):
    """The informed share 1 / (1 + (w_un/w)^f), through expit to survive
    huge f."""
    if f > 0:
        return expit(-f * log_ratio)
    # -0 * inf is nan: the infinite ratios keep their shares 0 and 1
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(log_ratio), log_ratio < 0, expit(-f * log_ratio))


def _freqdep_prepare(w, tot):
    return _FreqdepRates(_log_ratio(w, tot))


class _FreqdepRates:
    """Freqdep rates ``s * x`` on fixed sums, from their prepared log ratio:
    the shape ``x`` is the informed share, a function of f alone, and its
    derivative in f comes from the same log ratio."""

    def __init__(self, log_ratio):
        self.log_ratio = log_ratio

    @functools.cached_property
    def _finite_ratio(self):
        # the f-derivative is 0 where the ratio is infinite (rate 0 or s)
        return np.where(np.isfinite(self.log_ratio), self.log_ratio, 0.0)

    def __call__(self, params):
        s, f = params
        return s * _share(f, self.log_ratio)

    def shape(self, rest):
        return _share(rest[0], self.log_ratio)

    def shape_jacobian(self, rest):
        share = _share(rest[0], self.log_ratio)
        return share, (-self._finite_ratio * share * (1.0 - share))[:, None]


def _freqdep_sums(params, w, tot):
    s, f = params
    return s * _share(f, _log_ratio(w, tot))


def _threshold_sums(params, w, tot, *, sharpness=None):
    if sharpness is None:
        a, c, b = params
    else:
        a, c = params
        b = sharpness
    w = np.asarray(w, dtype=float)
    # eps anchors the curve so the rate is exactly 0 at w = 0
    eps = expit(-b * a)
    return (c / (1.0 - eps)) * (expit(b * (w - a)) - eps)


def asocial_rule() -> TransmissionRule:
    """No social transmission; every naive individual has relative rate 1."""
    return TransmissionRule(
        kind="asocial",
        param_names=(),
        lower=(),
        upper=(),
        sums_rate=_asocial_sums,
        default_start=(),
    )


def simple_rule() -> TransmissionRule:
    """Linear in connection to informed individuals (the standard rate)."""
    return TransmissionRule(
        kind="simple",
        param_names=("s",),
        lower=(0.0,),
        upper=(np.inf,),
        sums_rate=_simple_sums,
        prepare=_simple_prepare,
        size_param="s",
        default_start=(1.0,),
    )


def proportional_rule() -> TransmissionRule:
    """Linear in the informed *fraction* of total connection strength."""
    return TransmissionRule(
        kind="proportional",
        param_names=("s",),
        lower=(0.0,),
        upper=(np.inf,),
        sums_rate=_proportional_sums,
        prepare=_proportional_prepare,
        size_param="s",
        default_start=(1.0,),
    )


def frequency_dependent_rule(f_lower: float = 0.2) -> TransmissionRule:
    """Conformity-weighted fraction: f > 1 overweights the local majority,
    f < 1 overweights the minority, f = 1 recovers the proportional rule."""
    return TransmissionRule(
        kind="freqdep",
        param_names=("s", "f"),
        lower=(0.0, f_lower),
        upper=(np.inf, np.inf),
        sums_rate=_freqdep_sums,
        prepare=_freqdep_prepare,
        size_param="s",
        default_start=(1.0, 1.0),
    )


def threshold_rule(
    sharpness: float = DEFAULT_SHARPNESS, estimate_sharpness: bool = False
) -> TransmissionRule:
    """Sigmoid threshold on absolute informed connection strength.

    The rate rises from exactly 0 (at w_informed = 0) towards the asymptote
    ``c``, with the steep part centred near ``a``.  ``sharpness`` (b) is a
    fixed constant by default; pass ``estimate_sharpness=True`` to fit it as
    a third free parameter.
    """
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    if estimate_sharpness:
        return TransmissionRule(
            kind="threshold",
            param_names=("a", "c", "b"),
            lower=(0.0, 0.0, 0.0),
            upper=(np.inf, np.inf, np.inf),
            sums_rate=_threshold_sums,
            size_param="c",
            default_start=(1.0, 1.0, sharpness),
        )
    return TransmissionRule(
        kind="threshold",
        param_names=("a", "c"),
        lower=(0.0, 0.0),
        upper=(np.inf, np.inf),
        fixed={"b": sharpness},
        sums_rate=functools.partial(_threshold_sums, sharpness=sharpness),
        size_param="c",
        default_start=(1.0, 1.0),
    )


def custom_rule(
    kind: str,
    param_names,
    rate: FullRate | None = None,
    sums_rate: SumsRate | None = None,
    lower=None,
    upper=None,
    fixed: Mapping[str, float] | None = None,
    size_param: str | None = None,
    default_start=None,
) -> TransmissionRule:
    """Wrap a user-supplied rate function as a rule usable everywhere.

    Provide ``sums_rate(params, w_informed, total)`` when the rate depends
    on the connections only through those sums (the likelihood then
    evaluates one rate per run of the event table), else
    ``rate(params, connections, status)``.  ``sums_rate`` must work
    elementwise on arrays, giving each individual's rate from its own sums
    whatever else is in the arrays: the simulator evaluates it only on the
    individuals an event touched.
    """
    names = tuple(param_names)
    k = len(names)
    lo = tuple(float(x) for x in (lower if lower is not None else (0.0,) * k))
    hi = tuple(float(x) for x in (upper if upper is not None else (np.inf,) * k))
    return TransmissionRule(
        kind=kind,
        param_names=names,
        lower=lo,
        upper=hi,
        fixed=dict(fixed or {}),
        sums_rate=sums_rate,
        full_rate=rate,
        size_param=size_param,
        default_start=tuple(default_start) if default_start is not None else (),
    )


# CLI / config names.  "standard" is a common alias for the simple rule.
BUILTIN_RULE_NAMES = ("asocial", "simple", "proportional", "freqdep", "threshold")

_FACTORIES: dict[str, Callable[..., TransmissionRule]] = {
    "asocial": asocial_rule,
    "simple": simple_rule,
    "standard": simple_rule,
    "proportional": proportional_rule,
    "freqdep": frequency_dependent_rule,
    "threshold": threshold_rule,
}


def rule_from_name(name: str, **kwargs) -> TransmissionRule:
    """Build a built-in rule from its CLI name (or the alias 'standard')."""
    try:
        factory = _FACTORIES[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown rule {name!r}; known rules: {known}") from None
    return factory(**kwargs)


def eval_rate(rule: TransmissionRule, params, connections, status) -> float:
    """Validated single-individual rate evaluation.

    Checks parameter arity and bounds, array lengths, and that ``status``
    is a 0/1 vector; raises ValueError on any violation, including a
    non-finite or negative rate coming back from a custom rule.
    """
    p = rule.check_params(params)
    a = np.asarray(connections, dtype=float)
    z = np.asarray(status, dtype=float)
    if a.ndim != 1 or z.shape != a.shape:
        raise ValueError(
            f"connections and status must be equal-length vectors, "
            f"got shapes {a.shape} and {z.shape}"
        )
    if not np.isin(z, (0.0, 1.0)).all():
        raise ValueError("status entries must be 0 or 1")
    if rule.sums_rate is not None:
        r = np.asarray(rule.sums_rate(p, float(a @ z), float(a.sum()))).ravel()[0]
    else:
        r = rule.full_rate(p, a, z)
    return float(_check_rates(rule, r))


def _check_rates(rule: TransmissionRule, rates) -> np.ndarray:
    """``rates`` as a float array; ValueError if any is non-finite or negative."""
    t = np.asarray(rates, dtype=float)
    if not (t.min() >= 0 and t.max() < np.inf):  # a NaN fails both
        bad = t[~((t >= 0) & (t < np.inf))][0]
        raise ValueError(f"rule {rule.kind!r} produced invalid rate {bad}")
    return t


# --- spec-level convenience wrappers with explicit signatures ---

def rate_simple(s: float, connections, status) -> float:
    return eval_rate(simple_rule(), [s], connections, status)


def rate_proportional(s: float, connections, status) -> float:
    return eval_rate(proportional_rule(), [s], connections, status)


def rate_frequency_dependent(s: float, f: float, connections, status) -> float:
    # f below the fitting box (but > 0) is still a valid rate
    if f <= 0:
        raise ValueError(f"requires f > 0, got {f}")
    return eval_rate(frequency_dependent_rule(f_lower=f), [s, f], connections, status)


def rate_threshold(
    a_loc: float, c_max: float, connections, status, sharpness: float = DEFAULT_SHARPNESS
) -> float:
    return eval_rate(threshold_rule(sharpness), [a_loc, c_max], connections, status)
