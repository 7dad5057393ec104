"""Fuzzy operator catalog: values plus analytic partial derivatives.

Each operator is defined once, as an array kernel returning
``(value, partials)`` where ``partials[i]`` is the derivative of the
value with respect to input i.  Binary kernels (t-norms, t-conorms,
implications) broadcast their two inputs and their partials broadcast
against the value; aggregators reduce the first axis of one array and
return one partial per input.  ``tnorm_array`` and its siblings run a
kernel on checked arrays, ``OperatorConfig.arrays`` binds a
configuration's kernels once for the valuation engine, and the scalar
API (``tnorm``, ``tnorm_kernel``, ``OperatorDescriptor.kernel`` and so
on) runs the same kernel at one point and returns floats.  The property
audits draw many points and check each law with one array call.

Inputs must already lie in [0, 1]; nothing is clamped here (the
valuation layer clamps model outputs before they reach a kernel).  Every
entry point checks the operator name, then its parameters, then its
inputs, and raises ``OperatorError`` for the first that is bad.

Subgradient convention at ties: min/max assign the whole partial to the
FIRST argument when arguments are equal, and piecewise kernels keep the
boundary in the branch listed first below.  These choices only matter on
measure-zero sets; finite-difference checks skip a neighbourhood of each
kernel's declared nondifferentiable locus (see ``near_locus``).

Known singular partials (Goguen as a -> 0, Yager-style kernels as the
radicand -> 0 with p > 1) are computed as written; they can be huge or
infinite.  Recording an infinite partial on a tape raises, which is the
intended failure mode for un-clamped boundary inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "OperatorError",
    "ConfigError",
    "OperatorDescriptor",
    "OperatorConfig",
    "ArrayKernels",
    "negation",
    "negation_kernel",
    "tnorm",
    "tnorm_kernel",
    "tconorm",
    "tconorm_kernel",
    "aggregate",
    "aggregate_kernel",
    "implication",
    "implication_kernel",
    "sigmoidal_implication",
    "sigmoidal_kernel",
    "tnorm_array",
    "tconorm_array",
    "aggregate_array",
    "implication_array",
    "d_Ic",
    "d_Inot_a",
    "tnorm_duality_check",
    "property_audit",
    "parse_operator_config",
    "catalog",
    "TNORM_NAMES",
    "TCONORM_NAMES",
    "AGGREGATOR_NAMES",
    "IMPLICATION_NAMES",
]


class OperatorError(ValueError):
    """Unknown operator, bad parameter, or input outside [0, 1]."""


class ConfigError(ValueError):
    """Malformed operator-config assignment."""


def _check_unit(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise OperatorError(f"input must be in [0, 1], got {x!r}")
    return x


def _pow(base: float, exp: float) -> float:
    # 0 ** negative is a genuine singularity; surface it as inf so the
    # tape rejects it instead of raising ZeroDivisionError mid-kernel.
    if base == 0.0 and exp < 0.0:
        return math.inf
    return base ** exp


# ---------------------------------------------------------------------------
# kernels
#
# Every branch is computed everywhere and ``_pick`` selects them in order,
# so masked branches may hold inf or nan; callers run kernels under
# ``np.errstate(all="ignore")``.  A binary kernel's results may differ in
# the last digit between an array call, where numpy's vectorised
# pow/log/exp round, and a call at one point, which computes on numpy
# scalars and rounds like the C library.

def _unit_array(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0).all() or not (x <= 1.0).all():
        bad = x[~((x >= 0.0) & (x <= 1.0))][0]
        raise OperatorError(f"input must be in [0, 1], got {float(bad)!r}")
    return x


def _pick(conds, branches, default):
    """Select (value, partial, partial) branch by branch: the first true
    condition wins, like an if-chain."""
    value, da, db = default
    for cond, (v, a, b) in zip(reversed(conds), reversed(branches)):
        value = np.where(cond, v, value)
        da = np.where(cond, a, da)
        db = np.where(cond, b, db)
    return value, (da, db)


def _negation(a, p=None):
    return 1.0 - a, (np.full(np.shape(a), -1.0),)


# t-norms

def _ta_godel(a, b, p):
    return _pick([a <= b], [(a, 1.0, 0.0)], (b, 0.0, 1.0))


def _ta_product(a, b, p):
    return a * b, (b, a)


def _ta_lukasiewicz(a, b, p):
    # the neutral edges are kept exact; they match the generic branch
    s = a + b - 1.0
    return _pick([a == 1.0, b == 1.0, s >= 0.0],
                 [(b, 1.0, 1.0), (a, 1.0, 1.0), (s, 1.0, 1.0)],
                 (0.0, 0.0, 0.0))


def _ta_drastic(a, b, p):
    # at a = b = 1 the min tie goes to the first argument
    return _pick([b == 1.0, a == 1.0], [(a, 1.0, 0.0), (b, 0.0, 1.0)],
                 (0.0, 0.0, 0.0))


def _ta_nilpotent(a, b, p):
    return _pick([a + b <= 1.0, a <= b], [(0.0, 0.0, 0.0), (a, 1.0, 0.0)],
                 (b, 0.0, 1.0))


def _ta_yager(a, b, p):
    # neutral edges kept exact; the corner a = b = 1 takes the declared
    # subgradient, the diagonal limit
    flat = 0.0 if p > 1.0 else 1.0
    d = _pow(2.0, 1.0 / p - 1.0)
    s = (1.0 - a) ** p + (1.0 - b) ** p
    scale = s ** (1.0 / p - 1.0)
    return _pick([(a == 1.0) & (b != 1.0), (b == 1.0) & (a != 1.0),
                  s == 0.0, s <= 1.0],
                 [(b, flat, 1.0), (a, 1.0, flat), (1.0, d, d),
                  (1.0 - s ** (1.0 / p), scale * (1.0 - a) ** (p - 1.0),
                   scale * (1.0 - b) ** (p - 1.0))],
                 (0.0, 0.0, 0.0))


# t-conorms (N_C-duals of the t-norms above)

def _sa_godel(a, b, p):
    return _pick([a >= b], [(a, 1.0, 0.0)], (b, 0.0, 1.0))


def _sa_product(a, b, p):
    return a + b - a * b, (1.0 - b, 1.0 - a)


def _sa_lukasiewicz(a, b, p):
    s = a + b
    return _pick([a == 0.0, b == 0.0, s <= 1.0],
                 [(b, 1.0, 1.0), (a, 1.0, 1.0), (s, 1.0, 1.0)],
                 (1.0, 0.0, 0.0))


def _sa_drastic(a, b, p):
    return _pick([b == 0.0, a == 0.0], [(a, 1.0, 0.0), (b, 0.0, 1.0)],
                 (1.0, 0.0, 0.0))


def _sa_nilpotent(a, b, p):
    return _pick([a + b >= 1.0, a >= b], [(1.0, 0.0, 0.0), (a, 1.0, 0.0)],
                 (b, 0.0, 1.0))


def _sa_yager(a, b, p):
    flat = 0.0 if p > 1.0 else 1.0
    d = _pow(2.0, 1.0 / p - 1.0)
    s = a ** p + b ** p
    scale = s ** (1.0 / p - 1.0)
    return _pick([(a == 0.0) & (b != 0.0), (b == 0.0) & (a != 0.0),
                  s == 0.0, s <= 1.0],
                 [(b, flat, 1.0), (a, 1.0, flat), (0.0, d, d),
                  (s ** (1.0 / p), scale * a ** (p - 1.0),
                   scale * b ** (p - 1.0))],
                 (1.0, 0.0, 0.0))


# aggregators over the first axis

def _one_hot(X, i):
    """Partials 1.0 at index i of the aggregated axis, else 0.0."""
    at = np.arange(len(X)).reshape((-1,) + (1,) * (X.ndim - 1))
    return (at == i) * 1.0


def _spread(live, X):
    """Equal partials 1.0 where ``live``, else 0.0."""
    return np.broadcast_to(live * 1.0, X.shape)


def _aa_min(X, p):
    return X.min(axis=0), _one_hot(X, X.argmin(axis=0))


def _aa_max(X, p):
    return X.max(axis=0), _one_hot(X, X.argmax(axis=0))


def _aa_product(X, p):
    # sequential prefix/suffix products keep partials exact when some x is 0
    before = [np.ones(X.shape[1:])]
    for x in X[:-1]:
        before.append(before[-1] * x)
    after = [np.ones(X.shape[1:])]
    for x in X[:0:-1]:
        after.append(after[-1] * x)
    after.reverse()
    return before[-1] * X[-1], np.stack([b * a for b, a in zip(before, after)])


def _aa_log_product(X, p):
    if (X <= 0.0).any():
        raise OperatorError("log_product is undefined at 0; clamp inputs first")
    return np.log(X).sum(axis=0), 1.0 / X


def _aa_lukasiewicz(X, p):
    s = X.sum(axis=0) - (len(X) - 1)
    live = s >= 0.0
    return np.where(live, s, 0.0), _spread(live, X)


def _aa_bounded_sum(X, p):
    s = X.sum(axis=0)
    live = s <= 1.0
    return np.where(live, s, 1.0), _spread(live, X)


def _aa_prob_sum(X, p):
    prod, partials = _aa_product(1.0 - X, p)
    return 1.0 - prod, partials


def _aa_yager(X, p):
    # the all-ones corner takes the declared subgradient, the diagonal limit
    q = 1.0 - X
    s = (q ** p).sum(axis=0)
    corner, live = s == 0.0, s <= 1.0
    d = _pow(float(len(X)), 1.0 / p - 1.0)
    value = np.where(corner, 1.0, np.where(live, 1.0 - s ** (1.0 / p), 0.0))
    partials = np.where(corner, d, np.where(
        live, s ** (1.0 / p - 1.0) * q ** (p - 1.0), 0.0))
    return value, partials


def _aa_nilpotent(X, p):
    if len(X) == 1:
        return X[0], np.ones(X.shape)
    partials = _one_hot(X, X.argmin(axis=0))
    lo = X.min(axis=0)
    second = np.where(partials == 1.0, np.inf, X).min(axis=0)
    live = lo + second > 1.0
    return np.where(live, lo, 0.0), partials * live


def _aa_pmean(X, p):
    # the all-zeros corner takes the declared subgradient, the diagonal limit
    n = len(X)
    m = (X ** p).sum(axis=0) / n
    corner = m == 0.0
    return (np.where(corner, 0.0, m ** (1.0 / p)),
            np.where(corner, 1.0 / n, m ** (1.0 / p - 1.0) / n * X ** (p - 1.0)))


def _aa_pme(X, p):
    # 1 - pmean(1 - x): the same partials, and the all-ones corner
    value, partials = _aa_pmean(1.0 - X, p)
    return 1.0 - value, partials


# implications: (value, (dI/da, dI/dc)); the derivative with respect to
# the negated antecedent is d_Inot_a = -dI/da

def _ia_kleene_dienes(a, c, p):
    return _pick([1.0 - a >= c], [(1.0 - a, -1.0, 0.0)], (c, 0.0, 1.0))


def _ia_reichenbach(a, c, p):
    return (1.0 - a) + a * c, (c - 1.0, a)


def _ia_lukasiewicz(a, c, p):
    # the left-neutral edge is kept exact; it matches the generic branch
    u = 1.0 - a + c
    return _pick([a == 1.0, u <= 1.0], [(c, -1.0, 1.0), (u, -1.0, 1.0)],
                 (1.0, 0.0, 0.0))


def _ia_dubois_prade(a, c, p):
    # branch order fixes the corner (1, 0) subgradient: a = 1 wins, so at
    # most one partial is ever live and the kernel stays single-passing
    return _pick([a == 1.0, c == 0.0], [(c, 0.0, 1.0), (1.0 - a, -1.0, 0.0)],
                 (1.0, 0.0, 0.0))


def _ia_fodor(a, c, p):
    return _pick([a <= c, 1.0 - a >= c], [(1.0, 0.0, 0.0), (1.0 - a, -1.0, 0.0)],
                 (c, 0.0, 1.0))


def _ia_godel(a, c, p):
    return _pick([a <= c], [(1.0, 0.0, 0.0)], (c, 0.0, 1.0))


def _ia_goguen(a, c, p):
    return _pick([a <= c], [(1.0, 0.0, 0.0)], (c / a, -c / (a * a), 1.0 / a))


def _ia_weber(a, c, p):
    return _pick([a < 1.0], [(1.0, 0.0, 0.0)], (c, 0.0, 1.0))


def _ia_yager_s(a, c, p):
    # the corner (1, 0) takes the declared subgradient, the diagonal limit;
    # the left-neutral edge is kept exact
    d = _pow(2.0, 1.0 / p - 1.0)
    u = (1.0 - a) ** p + c ** p
    scale = u ** (1.0 / p - 1.0)
    return _pick([(a == 1.0) & (c == 0.0), a == 1.0, u <= 1.0],
                 [(0.0, -d, d), (c, -1.0 if p == 1.0 else 0.0, 1.0),
                  (u ** (1.0 / p), -scale * (1.0 - a) ** (p - 1.0),
                   scale * c ** (p - 1.0))],
                 (1.0, 0.0, 0.0))


def _ia_yager_r(a, c, p):
    u = (1.0 - c) ** p - (1.0 - a) ** p
    scale = u ** (1.0 / p - 1.0)
    return _pick([a <= c], [(1.0, 0.0, 0.0)],
                 (1.0 - u ** (1.0 / p), -scale * (1.0 - a) ** (p - 1.0),
                  scale * (1.0 - c) ** (p - 1.0)))


_TNORMS = {"godel": _ta_godel, "product": _ta_product,
           "lukasiewicz": _ta_lukasiewicz, "drastic": _ta_drastic,
           "nilpotent": _ta_nilpotent, "yager": _ta_yager}
_TCONORMS = {"godel": _sa_godel, "product": _sa_product,
             "lukasiewicz": _sa_lukasiewicz, "drastic": _sa_drastic,
             "nilpotent": _sa_nilpotent, "yager": _sa_yager}
# name -> (kernel, parameter rule): None takes no p, "yager" needs p >= 1,
# "positive" needs p > 0 and a number is the fixed p of an alias
_AGGREGATORS = {
    "min": (_aa_min, None),
    "max": (_aa_max, None),
    "product": (_aa_product, None),
    "log_product": (_aa_log_product, None),
    "lukasiewicz": (_aa_lukasiewicz, None),
    "bounded_sum": (_aa_bounded_sum, None),
    "prob_sum": (_aa_prob_sum, None),
    "yager": (_aa_yager, "yager"),
    "nilpotent": (_aa_nilpotent, None),
    "pme": (_aa_pme, "positive"),
    "pmean": (_aa_pmean, "positive"),
    "mae": (_aa_pme, 1.0),
    "rmse": (_aa_pme, 2.0),
}
# name -> (kernel, whether it needs p >= 1)
_IMPLICATIONS = {
    "kleene_dienes": (_ia_kleene_dienes, False),
    "reichenbach": (_ia_reichenbach, False),
    "lukasiewicz": (_ia_lukasiewicz, False),
    "dubois_prade": (_ia_dubois_prade, False),
    "fodor": (_ia_fodor, False),
    "godel": (_ia_godel, False),
    "goguen": (_ia_goguen, False),
    "weber": (_ia_weber, False),
    "yager_s": (_ia_yager_s, True),
    "yager_r": (_ia_yager_r, True),
}

TNORM_NAMES = tuple(_TNORMS)
TCONORM_NAMES = tuple(_TCONORMS)
AGGREGATOR_NAMES = tuple(_AGGREGATORS)
IMPLICATION_NAMES = tuple(_IMPLICATIONS) + ("sigmoidal",)


# ---------------------------------------------------------------------------
# names and parameters

def _lookup(table: dict, kind: str, name: str):
    entry = table.get(name)
    if entry is None:
        raise OperatorError(f"unknown {kind} {name!r}")
    return entry


def _need_p(name: str, p):
    if p is None:
        raise OperatorError(f"{name} requires parameter p")
    p = float(p)
    if p < 1.0:
        raise OperatorError(f"{name} requires p >= 1, got {p}")
    return p


def _norm_p(kind: str, name: str, p):
    """The parameter a t-norm or t-conorm runs with (only Yager takes one)."""
    if name == "yager":
        return _need_p(f"yager {kind}", p)
    if p is not None:
        raise OperatorError(f"{kind} {name} takes no parameter p")
    return None


def _aggregator_p(name: str, p_rule, p):
    """The parameter an aggregator runs with, by its rule in _AGGREGATORS."""
    if p_rule is None:
        if p is not None:
            raise OperatorError(f"{name} takes no parameter p")
        return None
    if p_rule == "yager":
        return _need_p("yager aggregator", p)
    if p_rule == "positive":
        if p is None:
            raise OperatorError(f"{name} requires parameter p")
        p = float(p)
        if p <= 0.0:
            raise OperatorError(f"{name} requires p > 0, got {p}")
        return p
    if p is not None:  # fixed-p alias (mae/rmse)
        raise OperatorError(f"{name} takes no parameter p")
    return p_rule


def _implication_p(name: str, needs_p: bool, p):
    if needs_p:
        return _need_p(name, p)
    if p is not None:
        raise OperatorError(f"implication {name} takes no parameter p")
    return None


def _sigmoidal_scaling(base, s, b0):
    """Checked (s, b0, d, h) of the sigmoidal warp around ``base``."""
    if base is None:
        raise OperatorError("sigmoidal implication requires a base implication")
    if base == "sigmoidal":
        raise OperatorError("sigmoidal base cannot itself be sigmoidal")
    if s is None or float(s) <= 0.0:
        raise OperatorError(f"sigmoidal implication requires s > 0, got {s!r}")
    s = float(s)
    b0 = -0.5 if b0 is None else float(b0)
    try:
        e_top = math.exp(-s * (1.0 + b0))
        e_bot = math.exp(-s * b0)
    except OverflowError as exc:
        raise OperatorError(f"sigmoidal parameters overflow: s={s}, b0={b0}") from exc
    denom = e_bot - e_top
    if denom <= 0.0:
        raise OperatorError(f"degenerate sigmoidal scaling for s={s}, b0={b0}")
    return s, b0, (1.0 + e_top) / denom, 1.0 + e_bot


# ---------------------------------------------------------------------------
# binding

class ArrayKernels(NamedTuple):
    """Array kernels with their operators and parameters resolved, and
    without input checks: callers pass values already in [0, 1] and run
    them under ``np.errstate(all="ignore")``."""

    tnorm: Callable
    tconorm: Callable
    implication: Callable
    aggregate: Callable


def _bind(fn, p):
    return lambda *xs: fn(*xs, p)


def _bind_tnorm(name: str, p) -> Callable:
    return _bind(_lookup(_TNORMS, "t-norm", name), _norm_p("t-norm", name, p))


def _bind_tconorm(name: str, p) -> Callable:
    return _bind(_lookup(_TCONORMS, "t-conorm", name),
                 _norm_p("t-conorm", name, p))


def _bind_aggregator(name: str, p) -> Callable:
    fn, p_rule = _lookup(_AGGREGATORS, "aggregator", name)
    return _bind(fn, _aggregator_p(name, p_rule, p))


def _bind_implication(name: str, p=None, s=None, b0=None, base=None) -> Callable:
    if name == "sigmoidal":
        return _bind_sigmoidal(base, s, b0, p)
    fn, needs_p = _lookup(_IMPLICATIONS, "implication", name)
    return _bind(fn, _implication_p(name, needs_p, p))


def _bind_sigmoidal(base, s, b0, p) -> Callable:
    """Sigmoid-warped implication; keeps the base's 0/1 level sets.

    value = d * ((1 + e^(-b0 s)) * sigmoid(s (I + b0)) - 1)
    with d = (1 + e^(-s (1 + b0))) / (e^(-b0 s) - e^(-s (1 + b0))),
    an increasing map sending I=0 to 0 and I=1 to 1.
    """
    s, b0, d, h = _sigmoidal_scaling(base, s, b0)
    base_fn = _bind_implication(base, p=p)

    def kernel(a, c):
        iv, (dia, dic) = base_fn(a, c)
        x = s * (iv + b0)
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        # float dust can push the 0/1 level sets a few ulps outside [0, 1]
        value = np.minimum(np.maximum(d * (h * y - 1.0), 0.0), 1.0)
        dvdi = d * h * s * y * (1.0 - y)
        return value, (dvdi * dia, dvdi * dic)

    return kernel


# ---------------------------------------------------------------------------
# array entry points

def _run_checked(kernel, *xs):
    xs = [_unit_array(x) for x in xs]
    with np.errstate(all="ignore"):
        return kernel(*xs)


def tnorm_array(name: str, a, b, p: float | None = None):
    return _run_checked(_bind_tnorm(name, p), a, b)


def tconorm_array(name: str, a, b, p: float | None = None):
    return _run_checked(_bind_tconorm(name, p), a, b)


def aggregate_array(name: str, X, p: float | None = None):
    """Aggregate over the first axis of ``X``."""
    kernel = _bind_aggregator(name, p)
    if np.ndim(X) == 0 or len(X) == 0:
        raise OperatorError("aggregate requires at least one input")
    return _run_checked(kernel, X)


def implication_array(name: str, a, c, p: float | None = None,
                      s: float | None = None, b0: float | None = None,
                      base: str | None = None):
    return _run_checked(_bind_implication(name, p, s, b0, base), a, c)


# ---------------------------------------------------------------------------
# scalar API: the same kernels at one point, as floats

def _unit(x) -> np.float64:
    return np.float64(_check_unit(x))


def _scalar(kernel, *xs):
    """``kernel``'s value and partials at one point, as floats."""
    with np.errstate(all="ignore"):
        value, partials = kernel(*xs)
    return float(value), tuple(map(float, partials))


def negation_kernel(a: float):
    return _scalar(_negation, _unit(a))


def negation(a: float) -> float:
    return negation_kernel(a)[0]


def tnorm_kernel(name: str, a: float, b: float, p: float | None = None):
    return _scalar(_bind_tnorm(name, p), _unit(a), _unit(b))


def tnorm(name: str, a: float, b: float, p: float | None = None) -> float:
    return tnorm_kernel(name, a, b, p)[0]


def tconorm_kernel(name: str, a: float, b: float, p: float | None = None):
    return _scalar(_bind_tconorm(name, p), _unit(a), _unit(b))


def tconorm(name: str, a: float, b: float, p: float | None = None) -> float:
    return tconorm_kernel(name, a, b, p)[0]


def aggregate_kernel(name: str, xs: Sequence[float], p: float | None = None):
    kernel = _bind_aggregator(name, p)
    X = np.array([_check_unit(x) for x in xs])
    if not len(X):
        raise OperatorError("aggregate requires at least one input")
    value, partials = _scalar(kernel, X)
    return value, list(partials)


def aggregate(name: str, xs: Sequence[float], p: float | None = None) -> float:
    return aggregate_kernel(name, xs, p)[0]


def implication_kernel(name: str, a: float, c: float, p: float | None = None,
                       s: float | None = None, b0: float | None = None,
                       base: str | None = None):
    return _scalar(_bind_implication(name, p, s, b0, base), _unit(a), _unit(c))


def implication(name: str, a: float, c: float, p: float | None = None,
                s: float | None = None, b0: float | None = None,
                base: str | None = None) -> float:
    return implication_kernel(name, a, c, p=p, s=s, b0=b0, base=base)[0]


def d_Ic(name: str, a: float, c: float, **kw) -> float:
    """Derivative of the implication with respect to the consequent."""
    return implication_kernel(name, a, c, **kw)[1][1]


def d_Inot_a(name: str, a: float, c: float, **kw) -> float:
    """Derivative with respect to the negated antecedent (= -dI/da)."""
    return -implication_kernel(name, a, c, **kw)[1][0]


def sigmoidal_kernel(base: str | None, s: float, b0: float, a: float, c: float,
                     p: float | None = None):
    """Sigmoid-warped implication of ``base`` (see ``_bind_sigmoidal``)."""
    return _scalar(_bind_sigmoidal(base, s, b0, p), _unit(a), _unit(c))


def sigmoidal_implication(base: str, s: float, b0: float, a: float, c: float,
                          p: float | None = None) -> float:
    return sigmoidal_kernel(base, s, b0, a, c, p=p)[0]


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class OperatorDescriptor:
    """Catalog entry: family, name, parameters, declared properties and
    the locus finite differences must stay away from."""

    family: str
    name: str
    params: tuple = ()
    properties: frozenset = frozenset()
    locus: str = "none"
    near_locus: Callable = field(default=lambda xs, margin: False, repr=False)

    @property
    def p(self):
        return dict(self.params).get("p")

    def label(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in self.params)
            return f"{self.name}({inner})"
        return self.name

    def kernel(self, *xs):
        kw = dict(self.params)
        if self.family == "negation":
            return negation_kernel(*xs)
        if self.family == "tnorm":
            return tnorm_kernel(self.name, xs[0], xs[1], kw.get("p"))
        if self.family == "tconorm":
            return tconorm_kernel(self.name, xs[0], xs[1], kw.get("p"))
        if self.family == "aggregator":
            return aggregate_kernel(self.name, xs, kw.get("p"))
        if self.family == "implication":
            return implication_kernel(self.name, xs[0], xs[1], **kw)
        raise OperatorError(f"unknown family {self.family!r}")

    def array_kernel(self, *xs):
        """``kernel`` over arrays: binary kernels take two broadcastable
        arrays, aggregators one array reduced over its first axis."""
        kw = dict(self.params)
        if self.family == "negation":
            return _run_checked(_negation, xs[0])
        if self.family == "tnorm":
            return tnorm_array(self.name, xs[0], xs[1], kw.get("p"))
        if self.family == "tconorm":
            return tconorm_array(self.name, xs[0], xs[1], kw.get("p"))
        if self.family == "aggregator":
            return aggregate_array(self.name, xs[0], kw.get("p"))
        if self.family == "implication":
            return implication_array(self.name, xs[0], xs[1], **kw)
        raise OperatorError(f"unknown family {self.family!r}")

    def value(self, *xs) -> float:
        return self.kernel(*xs)[0]

    def live_partials(self, X) -> np.ndarray:
        """Per row of the (m, n) point array ``X``, how many partials of
        the array kernel exceed 1e-12 in magnitude."""
        columns = np.ascontiguousarray(np.asarray(X).T)  # one row per input
        if self.family == "aggregator":
            _, partials = self.array_kernel(columns)
        else:
            _, partials = self.array_kernel(*columns)
        live = np.zeros(len(X), dtype=int)
        for partial in partials:
            live += np.abs(partial) > 1e-12
        return live


def _near(u, margin):
    return abs(u) < margin


def _mk_locus(kind: str, p=None):
    # Each predicate answers: is this point too close to a kink or a
    # derivative singularity for a central-difference check at h=1e-5?
    # Steepness guards (for 1/a-style partials) use a fixed 0.05 band.
    guard = 0.05
    if kind == "tie":
        return lambda xs, m: _near(xs[0] - xs[1], m)
    if kind == "sum1":
        return lambda xs, m: _near(math.fsum(xs) - 1.0, m)
    if kind == "luk-agg":
        return lambda xs, m: _near(math.fsum(xs) - (len(xs) - 1), m)
    if kind == "tie-or-sum1":
        return lambda xs, m: _near(xs[0] - xs[1], m) or _near(math.fsum(xs) - 1.0, m)
    if kind == "nilp-agg":
        def pred(xs, m):
            ys = sorted(xs)
            return _near(ys[0] + ys[1] - 1.0, m) or (
                len(ys) > 1 and _near(ys[0] - ys[1], m))
        return pred
    if kind == "min-tie":
        def pred(xs, m):
            ys = sorted(xs)
            return len(ys) > 1 and _near(ys[0] - ys[1], m)
        return pred
    if kind == "max-tie":
        def pred(xs, m):
            ys = sorted(xs)
            return len(ys) > 1 and _near(ys[-1] - ys[-2], m)
        return pred
    if kind == "drastic-t":
        return lambda xs, m: xs[0] > 1.0 - m or xs[1] > 1.0 - m
    if kind == "drastic-s":
        return lambda xs, m: xs[0] < m or xs[1] < m
    if kind == "yager-t":
        def pred(xs, m):
            srad = math.fsum((1.0 - x) ** p for x in xs)
            return _near(srad - 1.0, m) or srad < guard
        return pred
    if kind == "yager-s":
        def pred(xs, m):
            srad = math.fsum(x ** p for x in xs)
            return _near(srad - 1.0, m) or srad < guard
        return pred
    if kind == "pme":
        def pred(xs, m):
            srad = math.fsum((1.0 - x) ** p for x in xs)
            if p > 1.0 and srad / len(xs) < guard:
                return True
            if p < 1.0 and any(x > 1.0 - guard for x in xs):
                return True
            return False
        return pred
    if kind == "pmean":
        def pred(xs, m):
            srad = math.fsum(x ** p for x in xs)
            if p > 1.0 and srad / len(xs) < guard:
                return True
            if p < 1.0 and any(x < guard for x in xs):
                return True
            return False
        return pred
    if kind == "kd":
        return lambda xs, m: _near(1.0 - xs[0] - xs[1], m)
    if kind == "a=c":
        return lambda xs, m: _near(xs[0] - xs[1], m)
    if kind == "fodor":
        return lambda xs, m: _near(xs[0] - xs[1], m) or _near(1.0 - xs[0] - xs[1], m)
    if kind == "goguen":
        # 1/a and c/a^2 partials: third derivatives defeat h=1e-5
        # central differences once a is small
        return lambda xs, m: _near(xs[0] - xs[1], m) or xs[0] < 0.15
    if kind == "yager-rimpl":
        def pred(xs, m):
            a, c = xs
            if _near(a - c, m):
                return True
            u = (1.0 - c) ** p - (1.0 - a) ** p
            return a > c and abs(u) < guard
        return pred
    if kind == "yager-simpl":
        def pred(xs, m):
            a, c = xs
            u = (1.0 - a) ** p + c ** p
            return _near(u - 1.0, m) or u < guard
        return pred
    if kind == "weber":
        return lambda xs, m: xs[0] > 1.0 - m
    if kind == "dubois":
        return lambda xs, m: xs[0] > 1.0 - m or xs[1] < m
    if kind == "log-product":
        return lambda xs, m: any(x < guard for x in xs)
    if kind == "none":
        return lambda xs, m: False
    raise ValueError(kind)


_T_DEFINITIONAL = frozenset({"commutative", "associative", "neutral", "monotone"})
_I_DEFINITIONAL = frozenset({"boundary", "monotone"})


def _norm_descriptor(family, name, p=None):
    """A t-norm or its dual t-conorm: they share their properties, except
    that only t-norms are declared left-continuous, and their loci are
    mirrored where the kernels are not self-dual."""
    extra = {
        "godel": {"idempotent", "continuous", "left-continuous", "single-passing"},
        "product": {"strict", "continuous", "left-continuous"},
        "lukasiewicz": {"continuous", "left-continuous"},
        "drastic": {"single-passing"},
        "nilpotent": {"left-continuous", "single-passing"},
        "yager": {"continuous", "left-continuous"},
    }[name]
    if family == "tconorm":
        extra = extra - {"left-continuous"}
    locus = {
        "godel": ("a = b", _mk_locus("tie")),
        "product": ("none", _mk_locus("none")),
        "lukasiewicz": ("a + b = 1", _mk_locus("sum1")),
        "drastic": (("a = 1 or b = 1", _mk_locus("drastic-t")) if family == "tnorm"
                    else ("a = 0 or b = 0", _mk_locus("drastic-s"))),
        "nilpotent": ("a + b = 1 or a = b", _mk_locus("tie-or-sum1")),
        "yager": (("(1-a)^p + (1-b)^p = 1, or -> 0", _mk_locus("yager-t", p))
                  if family == "tnorm"
                  else ("a^p + b^p = 1, or -> 0", _mk_locus("yager-s", p))),
    }[name]
    params = (("p", p),) if name == "yager" else ()
    return OperatorDescriptor(family, name, params,
                              _T_DEFINITIONAL | frozenset(extra),
                              locus[0], locus[1])


def _aggregator_descriptor(name, p=None):
    extra = {
        "min": {"idempotent", "single-passing"},
        "max": {"idempotent", "single-passing"},
        "product": set(),
        "log_product": set(),
        "lukasiewicz": set(),
        "bounded_sum": set(),
        "prob_sum": set(),
        "yager": set(),
        "nilpotent": {"single-passing"},
        "pme": {"idempotent"},
        "pmean": {"idempotent"},
        "mae": {"idempotent"},
        "rmse": {"idempotent"},
    }[name]
    locus = {
        "min": ("tie of two smallest", _mk_locus("min-tie")),
        "max": ("tie of two largest", _mk_locus("max-tie")),
        "product": ("none", _mk_locus("none")),
        "log_product": ("x = 0 (singular 1/x partials)", _mk_locus("log-product")),
        "lukasiewicz": ("sum = n-1", _mk_locus("luk-agg")),
        "bounded_sum": ("sum = 1", _mk_locus("sum1")),
        "prob_sum": ("none", _mk_locus("none")),
        "yager": ("sum (1-x)^p = 1, or -> 0", _mk_locus("yager-t", p)),
        "nilpotent": ("two smallest sum to 1, or tie", _mk_locus("nilp-agg")),
        "pme": ("radicand -> 0", _mk_locus("pme", p)),
        "pmean": ("radicand -> 0", _mk_locus("pmean", p)),
        "mae": ("none", _mk_locus("none")),
        "rmse": ("radicand -> 0", _mk_locus("pme", 2.0)),
    }[name]
    params = (("p", p),) if p is not None else ()
    base_props = {"symmetric", "monotone"}
    if name != "log_product":
        base_props.add("boundary")
    return OperatorDescriptor("aggregator", name, params,
                              frozenset(base_props) | frozenset(extra),
                              locus[0], locus[1])


def _implication_descriptor(name, p=None, s=None, b0=None, base=None):
    extra = {
        "kleene_dienes": {"LN", "EP", "CP", "single-passing"},
        "reichenbach": {"LN", "EP", "CP"},
        "lukasiewicz": {"LN", "EP", "IP", "CP"},
        "dubois_prade": {"LN", "EP", "IP", "CP", "single-passing"},
        "fodor": {"LN", "EP", "IP", "CP", "single-passing"},
        "godel": {"LN", "EP", "IP", "single-passing"},
        "goguen": {"LN", "EP", "IP"},
        "weber": {"LN", "EP", "IP", "single-passing"},
        "yager_s": {"LN", "EP", "CP"},
        "yager_r": {"LN", "EP", "IP"},
        "sigmoidal": set(),
    }[name]
    if name == "yager_s" and p is not None and p <= 1.0:
        extra = extra | {"IP"}
    if name == "yager_r" and p == 1.0:
        extra = extra | {"CP"}
    locus = {
        "kleene_dienes": ("1 - a = c", _mk_locus("kd")),
        "reichenbach": ("none", _mk_locus("none")),
        "lukasiewicz": ("a = c", _mk_locus("a=c")),
        "dubois_prade": ("a = 1 or c = 0", _mk_locus("dubois")),
        "fodor": ("a = c or 1 - a = c", _mk_locus("fodor")),
        "godel": ("a = c", _mk_locus("a=c")),
        "goguen": ("a = c, singular a -> 0", _mk_locus("goguen")),
        "weber": ("a = 1", _mk_locus("weber")),
        "yager_s": ("(1-a)^p + c^p = 1, or -> 0", _mk_locus("yager-simpl", p)),
        "yager_r": ("a = c (singular for p > 1)", _mk_locus("yager-rimpl", p)),
    }
    if name == "sigmoidal":
        base_desc = _implication_descriptor(base, p=p)
        loc = (base_desc.locus, base_desc.near_locus)
        params = (("base", base), ("s", s), ("b0", b0)) + (
            (("p", p),) if p is not None else ())
        if "CP" in base_desc.properties:
            extra = {"CP"}
        if "IP" in base_desc.properties:
            extra = set(extra) | {"IP"}
    else:
        loc = locus[name]
        params = (("p", p),) if p is not None else ()
    return OperatorDescriptor("implication", name, params,
                              _I_DEFINITIONAL | frozenset(extra), loc[0], loc[1])


def descriptor(family: str, name: str, **params) -> OperatorDescriptor:
    if family == "negation":
        return OperatorDescriptor("negation", "classic", (),
                                  frozenset({"strict", "strong", "boundary",
                                             "single-passing"}),
                                  "none", _mk_locus("none"))
    if family in ("tnorm", "tconorm"):
        return _norm_descriptor(family, name, params.get("p"))
    if family == "aggregator":
        return _aggregator_descriptor(name, params.get("p"))
    if family == "implication":
        return _implication_descriptor(name, **params)
    raise OperatorError(f"unknown family {family!r}")


def catalog(yager_ps=(1.0, 2.0, 5.0), pme_ps=(0.5, 1.0, 2.0)) -> list:
    """Every catalog operator at representative parameter values."""
    ps = {"yager": yager_ps, "yager_s": yager_ps, "yager_r": yager_ps,
          "pme": pme_ps, "pmean": pme_ps}
    out = [descriptor("negation", "classic")]
    for family, names in [("tnorm", TNORM_NAMES), ("tconorm", TCONORM_NAMES),
                          ("aggregator", AGGREGATOR_NAMES),
                          ("implication", tuple(_IMPLICATIONS))]:
        for name in names:
            if name in ps:
                out += [descriptor(family, name, p=p) for p in ps[name]]
            else:
                out.append(descriptor(family, name))
    for s in (0.01, 9.0, 20.0):
        out.append(descriptor("implication", "sigmoidal",
                              base="reichenbach", s=s, b0=-0.5))
    return out


# ---------------------------------------------------------------------------
# duality

_DUALITY_EXCLUDE = {
    "godel": _mk_locus("tie"),
    "product": _mk_locus("none"),
    "lukasiewicz": _mk_locus("sum1"),
    "drastic": lambda xs, m: min(xs) < m or max(xs) > 1.0 - m,
    "nilpotent": _mk_locus("tie-or-sum1"),
    "yager": None,  # filled per-p below
}


def tnorm_duality_check(name: str, samples: int = 10_000, p: float | None = None,
                        seed: int = 0) -> float:
    """Max abs error of S(a,b) = 1 - T(1-a, 1-b) and d_S(a,b) = d_T(1-a, 1-b)
    over uniform samples, skipping subgradient tie loci."""
    if name not in _TNORMS:
        raise OperatorError(f"unknown t-norm {name!r}")
    exclude = _DUALITY_EXCLUDE[name]
    if name == "yager":
        p = _need_p("yager", p)
        yag_t = _mk_locus("yager-t", p)
        yag_s = _mk_locus("yager-s", p)
        exclude = lambda xs, m: yag_t([1 - xs[0], 1 - xs[1]], m) or yag_s(xs, m)
    rng = random.Random(seed)
    points = []
    while len(points) < samples:
        a, b = rng.random(), rng.random()
        if not exclude((a, b), 1e-9):
            points.append((a, b))
    a, b = np.array(points).reshape(-1, 2).T
    sv, (dsa, _) = tconorm_array(name, a, b, p)
    tv, (dta, _) = tnorm_array(name, 1.0 - a, 1.0 - b, p)
    return max(float(np.max(np.abs(sv - (1.0 - tv)), initial=0.0)),
               float(np.max(np.abs(dsa - dta), initial=0.0)))


# ---------------------------------------------------------------------------
# property audit
#
# Points are drawn as arrays from one ``np.random.default_rng(seed)``, law
# by law in report order, the single-passing probe last.  A norm law and
# the probe draw ``random(samples * arity)``; an implication law draws
# ``r``, then ``u``, as long, and a coordinate is 0 where r < 0.15, 1
# where r < 0.30, else u.  An aggregator law draws ``X = random((samples,
# 5))`` (0.05 + 0.9 X for log_product) and ``n = integers(2, 6, samples)``;
# then symmetric permutes each point by the stable sort of its keys
# ``random((samples, 5))``, monotone raises entry ``integers(0, n)`` by
# ``random(samples)`` of its distance to 1, and idempotent repeats
# ``X[i, 0]``.  Each law makes one array call per input length.

def _excess(err):
    """``err`` where positive, else 0 (nan included), as ``max(0, err)``."""
    return np.where(err > 0.0, err, 0.0)


def _verdict(prop, err, tol, witness):
    """(prop, passed, witness): the law fails when its largest error
    exceeds ``tol``, and the witness is ``witness(i)`` for the first
    sampled point i with that error."""
    err = _excess(err)
    worst = int(np.argmax(err))
    if err[worst] <= tol:
        return (prop, True, None)
    return (prop, False, witness(worst))


def _law(prop, draw, arity, samples, expr, tol):
    """Check a law at ``samples`` points of ``arity`` coordinates drawn by
    ``draw(k)``; ``expr`` maps the coordinate arrays to errors."""
    points = draw(samples * arity).reshape(samples, arity)
    return _verdict(prop, expr(*points.T), tol,
                    lambda i: tuple(points[i].tolist()))


def _values(desc: OperatorDescriptor):
    return lambda *xs: desc.array_kernel(*xs)[0]


def _row_values(val, X, n):
    """``val`` of each row ``X[i, :n[i]]``, one array call per length."""
    out = np.empty(len(X))
    for k in np.unique(n):
        at = np.flatnonzero(n == k)
        out[at] = val(X[at, :k].T)
    return out


def _audit_binary(desc: OperatorDescriptor, rng, samples, tol):
    """Battery for t-norms / t-conorms."""
    val = _values(desc)
    neutral = 1.0 if desc.family == "tnorm" else 0.0
    u = rng.random

    def mono_err(a, b1, b2):
        return val(a, np.minimum(b1, b2)) - val(a, np.maximum(b1, b2))

    return [
        _law("commutative", u, 2, samples,
             lambda a, b: abs(val(a, b) - val(b, a)), tol),
        _law("associative", u, 3, samples,
             lambda a, b, c: abs(val(val(a, b), c) - val(a, val(b, c))), tol),
        _law("neutral", u, 1, samples, lambda a: abs(val(neutral, a) - a), tol),
        _law("idempotent", u, 1, samples, lambda a: abs(val(a, a) - a), tol),
        _law("monotone", u, 3, samples, mono_err, tol),
    ]


def _audit_aggregator(desc: OperatorDescriptor, rng, samples, tol):
    val = _values(desc)
    log = desc.name == "log_product"

    def rows():  # point i is X[i, :n[i]]
        X = rng.random((samples, 5))
        return (0.05 + 0.9 * X if log else X), rng.integers(2, 6, samples)

    def law(prop, X, n, err):
        return _verdict(prop, err, tol, lambda i: X[i, :n[i]].tolist())

    X, n = rows()
    keys = np.where(np.arange(5) < n[:, None], rng.random((samples, 5)), 1.0)
    Y = np.take_along_axis(X, np.argsort(keys, axis=1, kind="stable"), axis=1)
    checks = [law("symmetric", X, n,
                  abs(_row_values(val, X, n) - _row_values(val, Y, n)))]

    X, n = rows()
    hit = np.arange(5) == rng.integers(0, n)[:, None]
    bump = rng.random((samples, 1))
    Y = np.where(hit, np.minimum(1.0, X + bump * (1.0 - X)), X)
    checks.append(law("monotone", X, n,
                      _row_values(val, X, n) - _row_values(val, Y, n)))
    if not log:
        X, n = rows()
        X = np.repeat(X[:, :1], 5, axis=1)
        checks.append(law("idempotent", X, n,
                          abs(_row_values(val, X, n) - X[:, 0])))
        corners = val(np.array([[0.0, 1.0]] * 3))
        checks.append(("boundary",
                       bool(corners[0] == 0.0 and corners[1] == 1.0), None))
    return checks


def _audit_implication(desc: OperatorDescriptor, rng, samples, tol):
    val = _values(desc)

    def draw(k):
        # mix exact endpoints in: several table properties only fail on
        # the boundary lines (e.g. Weber's CP at a = 1)
        r, u = rng.random(k), rng.random(k)
        return np.where(r < 0.15, 0.0, np.where(r < 0.30, 1.0, u))

    def mono_err(a1, a2, c1, c2):
        alo, ahi = np.minimum(a1, a2), np.maximum(a1, a2)
        clo, chi = np.minimum(c1, c2), np.maximum(c1, c2)
        err_a = _excess(val(ahi, c1) - val(alo, c1))  # decreasing in a
        err_c = _excess(val(a1, clo) - val(a1, chi))  # increasing in c
        return np.maximum(err_a, err_c)

    corners = val(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    return [
        ("boundary", bool(abs(corners[0] - 1.0) <= tol
                          and abs(corners[1] - 1.0) <= tol
                          and abs(corners[2]) <= tol), None),
        _law("LN", draw, 1, samples, lambda c: abs(val(1.0, c) - c), tol),
        _law("EP", draw, 3, samples,
             lambda a, b, c: abs(val(a, val(b, c)) - val(b, val(a, c))), tol),
        _law("IP", draw, 1, samples, lambda a: abs(val(a, a) - 1.0), tol),
        _law("CP", draw, 2, samples,
             lambda a, c: abs(val(a, c) - val(1.0 - c, 1.0 - a)), tol),
        _law("monotone", draw, 4, samples, mono_err, tol),
    ]


def _audit_single_passing(desc: OperatorDescriptor, rng, samples):
    arity = {"negation": 1, "tnorm": 2, "tconorm": 2, "implication": 2}.get(
        desc.family, 3)
    points = rng.random(samples * arity).reshape(samples, arity)
    violations = np.flatnonzero(desc.live_partials(points) > 1)
    if len(violations):
        return ("single-passing", False, tuple(points[violations[0]].tolist()))
    return ("single-passing", True, None)


def property_audit(desc: OperatorDescriptor, samples: int = 2000, seed: int = 0,
                   tol: float = 1e-9) -> list:
    """Statistically test the audit battery on uniform samples.

    Returns [(property, passed, witness-or-None), ...] covering
    commutativity/associativity/neutrality/idempotency/monotonicity for
    norms, symmetry/monotonicity/idempotency/boundary for aggregators,
    and boundary/LN/EP/IP/CP/monotonicity for implications, plus a
    single-passing probe everywhere.  A failure carries the worst
    sampled counterexample as witness (a list for aggregators).  Points
    come from ``np.random.default_rng(seed)``, seed >= 0: ``samples`` >= 1
    per law in report order, then ``min(samples, 2000)`` for the probe.
    """
    if samples < 1 or seed < 0:
        raise ValueError("property audits need samples >= 1 and seed >= 0, "
                         f"got samples={samples}, seed={seed}")
    rng = np.random.default_rng(seed)
    if desc.family in ("tnorm", "tconorm"):
        checks = _audit_binary(desc, rng, samples, tol)
    elif desc.family == "aggregator":
        checks = _audit_aggregator(desc, rng, samples, tol)
    elif desc.family == "implication":
        checks = _audit_implication(desc, rng, samples, tol)
    elif desc.family == "negation":
        checks = [("boundary", negation(0.0) == 1.0 and negation(1.0) == 0.0, None)]
    else:
        raise OperatorError(f"unknown family {desc.family!r}")
    if desc.name != "log_product":
        checks.append(_audit_single_passing(desc, rng, min(samples, 2000)))
    return checks


# ---------------------------------------------------------------------------
# operator configuration grammar
#
#   tnorm=yager:p=2
#   implication=sigmoidal:base=reichenbach,s=9,b0=-0.5
#   aggregator=log_product

_CONFIG_KEYS = ("tnorm", "tconorm", "implication", "aggregator", "negation")


@dataclass(frozen=True)
class OperatorConfig:
    """The (N, T, S, I, A) selection with parameters."""

    tnorm: str = "product"
    tnorm_p: float | None = None
    tconorm: str = "product"
    tconorm_p: float | None = None
    implication: str = "reichenbach"
    implication_p: float | None = None
    sigmoid_base: str | None = None
    sigmoid_s: float | None = None
    sigmoid_b0: float | None = None
    aggregator: str = "product"
    aggregator_p: float | None = None

    def tnorm_kernel(self, a, b):
        return tnorm_kernel(self.tnorm, a, b, self.tnorm_p)

    def tconorm_kernel(self, a, b):
        return tconorm_kernel(self.tconorm, a, b, self.tconorm_p)

    def implication_kernel(self, a, c):
        return implication_kernel(self.implication, a, c, p=self.implication_p,
                                  s=self.sigmoid_s, b0=self.sigmoid_b0,
                                  base=self.sigmoid_base)

    def aggregate_kernel(self, xs):
        return aggregate_kernel(self.aggregator, xs, self.aggregator_p)

    @cached_property
    def arrays(self) -> ArrayKernels:
        """This configuration's array kernels, bound once."""
        return ArrayKernels(
            _bind_tnorm(self.tnorm, self.tnorm_p),
            _bind_tconorm(self.tconorm, self.tconorm_p),
            _bind_implication(self.implication, self.implication_p,
                              self.sigmoid_s, self.sigmoid_b0,
                              self.sigmoid_base),
            _bind_aggregator(self.aggregator, self.aggregator_p))

    def describe(self) -> str:
        parts = [f"tnorm={self.tnorm}" + (f":p={self.tnorm_p}" if self.tnorm_p else ""),
                 f"tconorm={self.tconorm}" + (f":p={self.tconorm_p}" if self.tconorm_p else "")]
        if self.implication == "sigmoidal":
            parts.append(f"implication=sigmoidal:base={self.sigmoid_base},"
                         f"s={self.sigmoid_s},b0={self.sigmoid_b0}")
        else:
            parts.append(f"implication={self.implication}"
                         + (f":p={self.implication_p}" if self.implication_p else ""))
        parts.append(f"aggregator={self.aggregator}"
                     + (f":p={self.aggregator_p}" if self.aggregator_p else ""))
        return " ".join(parts)

    def validate(self) -> "OperatorConfig":
        self.arrays  # binding checks every name and parameter
        return self


def _parse_params(text: str, where: str) -> dict:
    params = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ConfigError(f"{where}: expected key=value, got {piece!r}")
        key, _, raw = piece.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "base":
            params[key] = raw
        elif key in ("p", "s", "b0"):
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{where}: bad number {raw!r} for {key}") from None
        else:
            raise ConfigError(f"{where}: unknown parameter key {key!r}")
    return params


_CONFIG_NAMES = {"tnorm": (_TNORMS, "t-norm"), "tconorm": (_TCONORMS, "t-conorm"),
                 "aggregator": (_AGGREGATORS, "aggregator"),
                 "implication": (_IMPLICATIONS, "implication")}


def _config_name(key: str, name: str):
    try:
        _lookup(*_CONFIG_NAMES[key], name)
    except OperatorError as exc:
        raise ConfigError(str(exc)) from None


def parse_operator_config(text: str, base: OperatorConfig | None = None) -> OperatorConfig:
    """Parse assignments like ``tnorm=yager:p=2``.

    Assignments are separated by whitespace, semicolons or newlines.
    Unknown keys are errors.
    """
    cfg = dict(
        tnorm=(base.tnorm if base else "product", base.tnorm_p if base else None),
        tconorm=(base.tconorm if base else "product", base.tconorm_p if base else None),
        aggregator=(base.aggregator if base else "product",
                    base.aggregator_p if base else None),
    )
    impl = dict(name=base.implication if base else "reichenbach",
                p=base.implication_p if base else None,
                s=base.sigmoid_s if base else None,
                b0=base.sigmoid_b0 if base else None,
                base=base.sigmoid_base if base else None)
    tokens = text.replace(";", " ").split()
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, _, rest = token.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown operator key {key!r}")
        name, _, param_text = rest.partition(":")
        name = name.strip()
        params = _parse_params(param_text, token) if param_text else {}
        if key == "negation":
            if name != "classic":
                raise ConfigError(f"unknown negation {name!r} (only 'classic')")
            continue
        # names are checked per token, parameters once ``validate`` binds
        if key in cfg:
            _config_name(key, name)
            cfg[key] = (name, params.get("p"))
        elif key == "implication":
            if name == "sigmoidal":
                impl.update(name=name, p=params.get("p", impl["p"]),
                            s=params.get("s"), b0=params.get("b0", -0.5),
                            base=params.get("base"))
                if impl["base"] is None:
                    raise ConfigError("sigmoidal implication needs base=<name>")
                if impl["base"] not in _IMPLICATIONS:
                    raise ConfigError(f"unknown sigmoidal base {impl['base']!r}")
                if impl["s"] is None:
                    raise ConfigError("sigmoidal implication needs s=<positive>")
            else:
                _config_name(key, name)
                impl.update(name=name, p=params.get("p"), s=None, b0=None, base=None)
        if key != "implication":
            for pk in params:
                if pk != "p":
                    raise ConfigError(f"{token!r}: parameter {pk!r} not valid here")
    out = OperatorConfig(
        tnorm=cfg["tnorm"][0], tnorm_p=cfg["tnorm"][1],
        tconorm=cfg["tconorm"][0], tconorm_p=cfg["tconorm"][1],
        implication=impl["name"], implication_p=impl["p"],
        sigmoid_base=impl["base"], sigmoid_s=impl["s"], sigmoid_b0=impl["b0"],
        aggregator=cfg["aggregator"][0], aggregator_p=cfg["aggregator"][1],
    )
    try:
        return out.validate()
    except OperatorError as exc:
        raise ConfigError(str(exc)) from None
