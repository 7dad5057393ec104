"""Fuzzy operator catalog: values plus analytic partial derivatives.

Each operator is one row of ``_REGISTRY``, keyed by (family, name): its
array kernel, its parameter rule, its declared properties and its
nondifferentiable locus, as text and as a predicate.  A kernel returns
``(value, partials)`` where ``partials[i]`` is the derivative of the
value with respect to input i.  Binary kernels (t-norms, t-conorms,
implications) broadcast their two inputs and their partials broadcast
against the value; aggregators reduce the first axis of one array and
return one partial per input.

Everything else reads the rows.  ``_bind`` checks a name and its
parameter and binds the kernel; the sigmoidal implication, which warps
a base implication, is the one operator without a row.  ``descriptor``
is the one way to call an operator: its ``array_kernel`` runs the kernel
on checked arrays, and its ``kernel`` and ``value`` run it at one point
and return floats.  ``catalog`` lists the descriptors, and
``OperatorConfig.arrays`` binds a configuration's kernels once for the
valuation engine.  The property audits draw many points and check each
law with one array call.

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
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "OperatorError",
    "ConfigError",
    "OperatorDescriptor",
    "OperatorConfig",
    "ArrayKernels",
    "descriptor",
    "tnorm_duality_check",
    "property_audit",
    "parse_operator_config",
    "catalog",
    "TNORM_NAMES",
    "TCONORM_NAMES",
    "AGGREGATOR_NAMES",
    "IMPLICATION_NAMES",
    "lukasiewicz_fraction",
    "nilpotent_fraction",
    "yager_tnorm_fraction",
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
    # two reductions, which propagate nan; the entry-by-entry search runs
    # only to name the first bad entry
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
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
# the negated antecedent is -dI/da

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


# ---------------------------------------------------------------------------
# loci
#
# A row's ``near(xs, margin, p)`` answers: is this point too close to a
# kink or a derivative singularity for a central-difference check at
# h=1e-5?  Steepness guards (for 1/x-style partials) use a fixed band.
# Loci that several rows share, or that take more than one expression,
# are the ``_l_*`` functions below; the rest are written in their row.

_GUARD = 0.05


def _near(u, margin):
    return abs(u) < margin


def _l_none(xs, m, p):
    return False


def _l_tie(xs, m, p):
    return _near(xs[0] - xs[1], m)


def _l_sum1(xs, m, p):
    return _near(math.fsum(xs) - 1.0, m)


def _l_tie_or_sum1(xs, m, p):
    return _near(xs[0] - xs[1], m) or _near(math.fsum(xs) - 1.0, m)


def _l_yager_t(xs, m, p):
    srad = math.fsum((1.0 - x) ** p for x in xs)
    return _near(srad - 1.0, m) or srad < _GUARD


def _l_yager_s(xs, m, p):
    srad = math.fsum(x ** p for x in xs)
    return _near(srad - 1.0, m) or srad < _GUARD


def _l_min_tie(xs, m, p):
    ys = sorted(xs)
    return len(ys) > 1 and _near(ys[0] - ys[1], m)


def _l_max_tie(xs, m, p):
    ys = sorted(xs)
    return len(ys) > 1 and _near(ys[-1] - ys[-2], m)


def _l_nilpotent_agg(xs, m, p):
    ys = sorted(xs)
    return len(ys) > 1 and (_near(ys[0] + ys[1] - 1.0, m)
                            or _near(ys[0] - ys[1], m))


def _l_pme(xs, m, p):
    srad = math.fsum((1.0 - x) ** p for x in xs)
    if p > 1.0 and srad / len(xs) < _GUARD:
        return True
    if p < 1.0 and any(x > 1.0 - _GUARD for x in xs):
        return True
    return False


def _l_pmean(xs, m, p):
    srad = math.fsum(x ** p for x in xs)
    if p > 1.0 and srad / len(xs) < _GUARD:
        return True
    if p < 1.0 and any(x < _GUARD for x in xs):
        return True
    return False


def _l_yager_s_impl(xs, m, p):
    a, c = xs
    u = (1.0 - a) ** p + c ** p
    return _near(u - 1.0, m) or u < _GUARD


def _l_yager_r_impl(xs, m, p):
    a, c = xs
    if _near(a - c, m):
        return True
    u = (1.0 - c) ** p - (1.0 - a) ** p
    return a > c and abs(u) < _GUARD


# ---------------------------------------------------------------------------
# closed forms of the nonvanishing-derivative fraction

def lukasiewicz_fraction(n: int) -> float:
    return 1.0 / math.factorial(n)


def nilpotent_fraction(n: int) -> float:
    return 1.0 / 2 ** (n - 1)


def yager_tnorm_fraction(p: float) -> float:
    """Fraction of the unit square where the Yager t-norm derivative is
    nonvanishing: sqrt(pi) 4^(-1/p) Gamma(1/p) / (p Gamma(1/2 + 1/p))."""
    return (math.sqrt(math.pi) * 4.0 ** (-1.0 / p) * math.gamma(1.0 / p)
            / (p * math.gamma(0.5 + 1.0 / p)))


def _fixed(x: float) -> Callable:
    """A fraction that depends on neither n nor p."""
    return lambda n, p: x


_ALL, _HALF, _NIL = _fixed(1.0), _fixed(0.5), _fixed(0.0)


def _yager_fraction(n, p):
    return yager_tnorm_fraction(p)


# ---------------------------------------------------------------------------
# the registry: one row per catalog operator

class _Row(NamedTuple):
    """One operator.  ``kernel(*xs, p)`` is its array kernel.  ``rule`` is
    its parameter: None takes no p, ">= 1" and "> 0" require such a p, and
    a number is the fixed p of an alias.  ``properties`` are its declared
    properties, and ``at_p1`` the ones it has only at p = 1, where the
    Yager implications are Lukasiewicz's.  ``locus`` is where finite
    differences must stay away from, and ``near`` its predicate.
    ``fraction(n, p)`` is the closed form of the fraction of [0, 1]^n on
    which a partial is nonvanishing, or None where the paper gives none."""

    kernel: Callable
    rule: object
    properties: str
    locus: str
    near: Callable
    fraction: Callable | None = None
    at_p1: str = ""


# the properties every member of a family has by definition
_NORM = "commutative associative neutral monotone "
_AGG = "symmetric monotone boundary "
_IMPL = "boundary monotone "

# a t-conorm shares its t-norm's properties except left-continuity, and
# its locus where the kernels are self-dual
_REGISTRY = {
    ("negation", "classic"): _Row(
        _negation, None, "strict strong boundary single-passing", "none",
        _l_none),
    ("tnorm", "godel"): _Row(
        _ta_godel, None,
        _NORM + "idempotent continuous left-continuous single-passing",
        "a = b", _l_tie, _ALL),
    ("tnorm", "product"): _Row(
        _ta_product, None, _NORM + "strict continuous left-continuous",
        "none", _l_none, _ALL),
    ("tnorm", "lukasiewicz"): _Row(
        _ta_lukasiewicz, None, _NORM + "continuous left-continuous",
        "a + b = 1", _l_sum1, _HALF),
    ("tnorm", "drastic"): _Row(
        _ta_drastic, None, _NORM + "single-passing", "a = 1 or b = 1",
        lambda xs, m, p: xs[0] > 1.0 - m or xs[1] > 1.0 - m, _NIL),
    ("tnorm", "nilpotent"): _Row(
        _ta_nilpotent, None, _NORM + "left-continuous single-passing",
        "a + b = 1 or a = b", _l_tie_or_sum1, _HALF),
    ("tnorm", "yager"): _Row(
        _ta_yager, ">= 1", _NORM + "continuous left-continuous",
        "(1-a)^p + (1-b)^p = 1, or -> 0", _l_yager_t, _yager_fraction),
    ("tconorm", "godel"): _Row(
        _sa_godel, None, _NORM + "idempotent continuous single-passing",
        "a = b", _l_tie, _ALL),
    ("tconorm", "product"): _Row(
        _sa_product, None, _NORM + "strict continuous", "none", _l_none,
        _ALL),
    ("tconorm", "lukasiewicz"): _Row(
        _sa_lukasiewicz, None, _NORM + "continuous", "a + b = 1", _l_sum1,
        _HALF),
    ("tconorm", "drastic"): _Row(
        _sa_drastic, None, _NORM + "single-passing", "a = 0 or b = 0",
        lambda xs, m, p: xs[0] < m or xs[1] < m, _NIL),
    ("tconorm", "nilpotent"): _Row(
        _sa_nilpotent, None, _NORM + "single-passing", "a + b = 1 or a = b",
        _l_tie_or_sum1, _HALF),
    ("tconorm", "yager"): _Row(
        _sa_yager, ">= 1", _NORM + "continuous", "a^p + b^p = 1, or -> 0",
        _l_yager_s, _yager_fraction),
    ("aggregator", "min"): _Row(
        _aa_min, None, _AGG + "idempotent single-passing",
        "tie of two smallest", _l_min_tie, _ALL),
    ("aggregator", "max"): _Row(
        _aa_max, None, _AGG + "idempotent single-passing",
        "tie of two largest", _l_max_tie, _ALL),
    ("aggregator", "product"): _Row(
        _aa_product, None, _AGG, "none", _l_none, _ALL),
    ("aggregator", "log_product"): _Row(
        _aa_log_product, None, "symmetric monotone",
        "x = 0 (singular 1/x partials)",
        lambda xs, m, p: any(x < _GUARD for x in xs), _ALL),
    ("aggregator", "lukasiewicz"): _Row(
        _aa_lukasiewicz, None, _AGG, "sum = n-1",
        lambda xs, m, p: _near(math.fsum(xs) - (len(xs) - 1), m),
        lambda n, p: lukasiewicz_fraction(n)),
    ("aggregator", "bounded_sum"): _Row(
        _aa_bounded_sum, None, _AGG, "sum = 1", _l_sum1),
    ("aggregator", "prob_sum"): _Row(
        _aa_prob_sum, None, _AGG, "none", _l_none, _ALL),
    ("aggregator", "yager"): _Row(
        _aa_yager, ">= 1", _AGG, "sum (1-x)^p = 1, or -> 0", _l_yager_t,
        lambda n, p: yager_tnorm_fraction(p) if n == 2 else None),
    ("aggregator", "nilpotent"): _Row(
        _aa_nilpotent, None, _AGG + "single-passing",
        "two smallest sum to 1, or tie", _l_nilpotent_agg,
        lambda n, p: nilpotent_fraction(n)),
    ("aggregator", "pme"): _Row(
        _aa_pme, "> 0", _AGG + "idempotent", "radicand -> 0", _l_pme, _ALL),
    ("aggregator", "pmean"): _Row(
        _aa_pmean, "> 0", _AGG + "idempotent", "radicand -> 0", _l_pmean,
        _ALL),
    ("aggregator", "mae"): _Row(
        _aa_pme, 1.0, _AGG + "idempotent", "none", _l_none, _ALL),
    ("aggregator", "rmse"): _Row(
        _aa_pme, 2.0, _AGG + "idempotent", "radicand -> 0", _l_pme, _ALL),
    ("implication", "kleene_dienes"): _Row(
        _ia_kleene_dienes, None, _IMPL + "LN EP CP single-passing",
        "1 - a = c", lambda xs, m, p: _near(1.0 - xs[0] - xs[1], m), _ALL),
    ("implication", "reichenbach"): _Row(
        _ia_reichenbach, None, _IMPL + "LN EP CP", "none", _l_none, _ALL),
    ("implication", "lukasiewicz"): _Row(
        _ia_lukasiewicz, None, _IMPL + "LN EP IP CP", "a = c", _l_tie, _HALF),
    ("implication", "dubois_prade"): _Row(
        _ia_dubois_prade, None, _IMPL + "LN EP IP CP single-passing",
        "a = 1 or c = 0", lambda xs, m, p: xs[0] > 1.0 - m or xs[1] < m,
        _NIL),
    ("implication", "fodor"): _Row(
        _ia_fodor, None, _IMPL + "LN EP IP CP single-passing",
        "a = c or 1 - a = c",
        lambda xs, m, p: (_near(xs[0] - xs[1], m)
                          or _near(1.0 - xs[0] - xs[1], m)), _HALF),
    ("implication", "godel"): _Row(
        _ia_godel, None, _IMPL + "LN EP IP single-passing", "a = c", _l_tie,
        _HALF),
    ("implication", "goguen"): _Row(
        _ia_goguen, None, _IMPL + "LN EP IP", "a = c, singular a -> 0",
        # 1/a and c/a^2 partials: third derivatives defeat h=1e-5
        # central differences once a is small
        lambda xs, m, p: _near(xs[0] - xs[1], m) or xs[0] < 0.15, _HALF),
    ("implication", "weber"): _Row(
        _ia_weber, None, _IMPL + "LN EP IP single-passing", "a = 1",
        lambda xs, m, p: xs[0] > 1.0 - m, _NIL),
    ("implication", "yager_s"): _Row(
        _ia_yager_s, ">= 1", _IMPL + "LN EP CP",
        "(1-a)^p + c^p = 1, or -> 0", _l_yager_s_impl, _yager_fraction,
        at_p1="IP"),
    ("implication", "yager_r"): _Row(
        _ia_yager_r, ">= 1", _IMPL + "LN EP IP",
        "a = c (singular for p > 1)", _l_yager_r_impl, _HALF, at_p1="CP"),
}

_KINDS = {"negation": "negation", "tnorm": "t-norm", "tconorm": "t-conorm",
          "aggregator": "aggregator", "implication": "implication"}


def _names(family: str) -> tuple:
    return tuple(name for fam, name in _REGISTRY if fam == family)


TNORM_NAMES = _names("tnorm")
TCONORM_NAMES = _names("tconorm")
AGGREGATOR_NAMES = _names("aggregator")
IMPLICATION_NAMES = _names("implication") + ("sigmoidal",)


# ---------------------------------------------------------------------------
# names, parameters and binding

def _row(family: str, name: str) -> _Row:
    row = _REGISTRY.get((family, name))
    if row is None:
        if family not in _KINDS:
            raise OperatorError(f"unknown family {family!r}")
        raise OperatorError(f"unknown {_KINDS[family]} {name!r}")
    return row


def _no_parameter(family: str, name: str, key: str) -> OperatorError:
    who = name if family == "aggregator" else f"{_KINDS[family]} {name}"
    return OperatorError(f"{who} takes no parameter {key}")


def _checked_p(family: str, name: str, p):
    """The parameter (family, name) runs with, by its row's rule; the name
    is checked first.  Messages keep the config grammar's words."""
    rule = _row(family, name).rule
    if rule is None or isinstance(rule, float):
        if p is not None:
            raise _no_parameter(family, name, "p")
        return rule
    who = f"yager {_KINDS[family]}" if name == "yager" else name
    if p is None:
        raise OperatorError(f"{who} requires parameter p")
    p = float(p)
    if p < 1.0 if rule == ">= 1" else p <= 0.0:
        raise OperatorError(f"{who} requires p {rule}, got {p}")
    return p


# the sigmoidal implication's b0 when none is given
SIGMOID_B0 = -0.5


def _sigmoidal_scaling(base, s, b0):
    """Checked (s, b0, d, h) of the sigmoidal warp around ``base``."""
    if base is None:
        raise OperatorError("sigmoidal implication requires a base implication")
    if base == "sigmoidal":
        raise OperatorError("sigmoidal base cannot itself be sigmoidal")
    if s is None or float(s) <= 0.0:
        raise OperatorError(f"sigmoidal implication requires s > 0, got {s!r}")
    s = float(s)
    b0 = SIGMOID_B0 if b0 is None else float(b0)
    try:
        e_top = math.exp(-s * (1.0 + b0))
        e_bot = math.exp(-s * b0)
    except OverflowError as exc:
        raise OperatorError(f"sigmoidal parameters overflow: s={s}, b0={b0}") from exc
    denom = e_bot - e_top
    if denom <= 0.0:
        raise OperatorError(f"degenerate sigmoidal scaling for s={s}, b0={b0}")
    return s, b0, (1.0 + e_top) / denom, 1.0 + e_bot


class ArrayKernels(NamedTuple):
    """Array kernels with their operators and parameters resolved, and
    without input checks: callers pass values already in [0, 1] and run
    them under ``np.errstate(all="ignore")``."""

    tnorm: Callable
    tconorm: Callable
    implication: Callable
    aggregate: Callable


def _bind(family: str, name: str, p=None, s=None, b0=None,
          base=None) -> Callable:
    """The array kernel of (family, name) with its name, then its
    parameters checked and bound.  The sigmoidal implication has no row:
    it warps the kernel of its base, and it alone takes s, b0 and base."""
    if (family, name) == ("implication", "sigmoidal"):
        return _bind_sigmoidal(base, s, b0, p)
    kernel = _row(family, name).kernel
    for key, value in (("s", s), ("b0", b0), ("base", base)):
        if value is not None:
            raise _no_parameter(family, name, key)
    p = _checked_p(family, name, p)
    return lambda *xs: kernel(*xs, p)


def _bind_sigmoidal(base, s, b0, p) -> Callable:
    """Sigmoid-warped implication; keeps the base's 0/1 level sets.

    value = d * ((1 + e^(-b0 s)) * sigmoid(s (I + b0)) - 1)
    with d = (1 + e^(-s (1 + b0))) / (e^(-b0 s) - e^(-s (1 + b0))),
    an increasing map sending I=0 to 0 and I=1 to 1.
    """
    s, b0, d, h = _sigmoidal_scaling(base, s, b0)
    base_fn = _bind("implication", base, p)

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
# descriptors

# inputs per call; an aggregator takes any n >= 1
_ARITY = {"negation": 1, "tnorm": 2, "tconorm": 2, "implication": 2}


def _arity_error(family: str, n: int) -> str | None:
    """Why a kernel of ``family`` cannot take ``n`` inputs, or None:
    t-norms, t-conorms and implications are binary, the negation unary,
    and an aggregator takes n >= 1 inputs."""
    arity = _ARITY.get(family)
    if arity is None:
        return None if n >= 1 else f"aggregator kernels need n >= 1; got n={n}"
    if n == arity:
        return None
    return (f"{family} kernels are {'unary' if arity == 1 else 'binary'}; "
            f"got n={n}")


@dataclass(frozen=True)
class OperatorDescriptor:
    """Catalog entry: family, name, parameters, declared properties, the
    locus finite differences must stay away from, the bound array kernel
    and ``fraction(n)``, its row's closed-form nonvanishing fraction at n
    inputs (None without one).  Build one with ``descriptor``; two
    compare equal when their family, name, parameters, properties and
    locus do."""

    family: str
    name: str
    params: tuple = ()
    properties: frozenset = frozenset()
    locus: str = "none"
    near_locus: Callable = field(default=lambda xs, margin: False, repr=False,
                                 compare=False)
    bound: Callable | None = field(default=None, repr=False, compare=False)
    fraction: Callable = field(default=lambda n: None, repr=False,
                               compare=False)

    @property
    def p(self):
        return dict(self.params).get("p")

    def label(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in self.params)
            return f"{self.name}({inner})"
        return self.name

    def check_arity(self, n: int):
        """Refuse ``n`` inputs when the kernel cannot take them."""
        error = _arity_error(self.family, n)
        if error:
            raise OperatorError(error)

    def kernel(self, *xs):
        """(value, partials) at the point ``xs``, as floats; an
        aggregator's partials are a list."""
        self.check_arity(len(xs))
        xs = [np.float64(_check_unit(x)) for x in xs]
        with np.errstate(all="ignore"):
            if self.family == "aggregator":
                value, partials = self.bound(np.array(xs))
                return float(value), [float(d) for d in partials]
            value, partials = self.bound(*xs)
        return float(value), tuple(map(float, partials))

    def array_kernel(self, *xs):
        """``kernel`` over arrays: binary kernels take two broadcastable
        arrays, aggregators one array reduced over its first axis."""
        if self.family != "aggregator":
            self.check_arity(len(xs))
        elif len(xs) != 1:
            raise OperatorError("aggregator array kernels take one array of "
                                f"n >= 1 inputs; got {len(xs)} arrays")
        elif np.ndim(xs[0]) == 0 or len(xs[0]) == 0:
            raise OperatorError("aggregate requires at least one input")
        xs = [_unit_array(x) for x in xs]
        with np.errstate(all="ignore"):
            return self.bound(*xs)

    def value(self, *xs) -> float:
        return self.kernel(*xs)[0]

    def on_columns(self, columns):
        """``array_kernel`` of the inputs ``columns``, one row per input."""
        if self.family == "aggregator":
            return self.array_kernel(columns)
        return self.array_kernel(*columns)

    def live_partials(self, X) -> np.ndarray:
        """Per row of the (m, n) point array ``X``, how many partials of
        the array kernel exceed 1e-12 in magnitude."""
        _, partials = self.on_columns(np.ascontiguousarray(np.asarray(X).T))
        return _count_live(partials, len(X))


def _count_live(partials, m: int) -> np.ndarray:
    """Per point of ``m``, how many of ``partials`` exceed 1e-12 in
    magnitude."""
    live = np.zeros(m, dtype=int)
    for partial in partials:
        live += np.abs(partial) > 1e-12
    return live


def descriptor(family: str, name: str, p=None, s=None, b0=None,
               base=None) -> OperatorDescriptor:
    """The catalog entry of (family, name) at these parameters, read from
    its registry row; an unknown name or a bad parameter raises
    ``OperatorError`` as binding the kernel does.  A sigmoidal
    implication records the b0 it runs with, and keeps its base's locus
    and its CP and IP."""
    bound = _bind(family, name, p, s, b0, base)
    p_param = (("p", p),) if p is not None else ()
    if name == "sigmoidal":
        inner = descriptor(family, base, p)
        b0 = SIGMOID_B0 if b0 is None else b0
        return OperatorDescriptor(
            family, name, (("base", base), ("s", s), ("b0", b0)) + p_param,
            frozenset(_IMPL.split()) | (inner.properties & {"CP", "IP"}),
            inner.locus, inner.near_locus, bound)
    row = _REGISTRY[family, name]
    p = _checked_p(family, name, p)
    properties = row.properties + " " + (row.at_p1 if p == 1.0 else "")
    return OperatorDescriptor(
        family, name, p_param, frozenset(properties.split()), row.locus,
        partial(row.near, p=p), bound,
        partial(row.fraction or (lambda n, p: None), p=p))


def catalog(yager_ps=(1.0, 2.0, 5.0), pme_ps=(0.5, 1.0, 2.0)) -> list:
    """Every registry row, at ``yager_ps`` where its rule is p >= 1 and
    at ``pme_ps`` where it is p > 0, then the sigmoidal warp of
    Reichenbach at three steepnesses."""
    ps = {">= 1": yager_ps, "> 0": pme_ps}
    out = [descriptor(family, name, p=p)
           for (family, name), row in _REGISTRY.items()
           for p in ps.get(row.rule, (None,))]
    for s in (0.01, 9.0, 20.0):
        out.append(descriptor("implication", "sigmoidal",
                              base="reichenbach", s=s, b0=-0.5))
    return out


# ---------------------------------------------------------------------------
# duality

def tnorm_duality_check(name: str, samples: int = 10_000, p: float | None = None,
                        seed: int = 0) -> float:
    """Max abs error of S(a,b) = 1 - T(1-a, 1-b) and d_S(a,b) = d_T(1-a, 1-b)
    over uniform samples, skipping points near the t-norm's locus at
    (1-a, 1-b) or the t-conorm's at (a, b)."""
    t, s = descriptor("tnorm", name, p=p), descriptor("tconorm", name, p=p)
    rng = random.Random(seed)
    points = []
    while len(points) < samples:
        a, b = rng.random(), rng.random()
        if not (t.near_locus((1.0 - a, 1.0 - b), 1e-9)
                or s.near_locus((a, b), 1e-9)):
            points.append((a, b))
    a, b = np.array(points).reshape(-1, 2).T
    sv, (dsa, _) = s.array_kernel(a, b)
    tv, (dta, _) = t.array_kernel(1.0 - a, 1.0 - b)
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
    arity = _ARITY.get(desc.family, 3)
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
        checks = [("boundary",
                   desc.value(0.0) == 1.0 and desc.value(1.0) == 0.0, None)]
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

    # each scalar kernel binds its own operator only, so a bad entry
    # elsewhere in the configuration does not fail it
    def tnorm_kernel(self, a, b):
        return descriptor("tnorm", self.tnorm, self.tnorm_p).kernel(a, b)

    def tconorm_kernel(self, a, b):
        return descriptor("tconorm", self.tconorm, self.tconorm_p).kernel(a, b)

    def implication_kernel(self, a, c):
        return descriptor("implication", self.implication, self.implication_p,
                          self.sigmoid_s, self.sigmoid_b0,
                          self.sigmoid_base).kernel(a, c)

    def aggregate_kernel(self, xs):
        return descriptor("aggregator", self.aggregator,
                          self.aggregator_p).kernel(*xs)

    @cached_property
    def arrays(self) -> ArrayKernels:
        """This configuration's array kernels, bound once."""
        return ArrayKernels(
            _bind("tnorm", self.tnorm, self.tnorm_p),
            _bind("tconorm", self.tconorm, self.tconorm_p),
            _bind("implication", self.implication, self.implication_p,
                  self.sigmoid_s, self.sigmoid_b0, self.sigmoid_base),
            _bind("aggregator", self.aggregator, self.aggregator_p))

    def describe(self) -> str:
        """This configuration in the grammar ``parse_operator_config`` reads."""
        sigmoid = ((("base", self.sigmoid_base), ("s", self.sigmoid_s),
                    ("b0", self.sigmoid_b0))
                   if self.implication == "sigmoidal" else ())
        parts = []
        for key, params in [("tnorm", ()), ("tconorm", ()),
                            ("implication", sigmoid), ("aggregator", ())]:
            params += (("p", getattr(self, f"{key}_p")),)
            text = ",".join(f"{k}={v}" for k, v in params if v is not None)
            parts.append(f"{key}={getattr(self, key)}" + (f":{text}" if text else ""))
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


def parse_operator_config(text: str, base: OperatorConfig | None = None) -> OperatorConfig:
    """Parse assignments like ``tnorm=yager:p=2``.

    Assignments are separated by whitespace, semicolons or newlines.
    Unknown keys are errors.
    """
    cfg = asdict(base or OperatorConfig())
    tokens = text.replace(";", " ").split()
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, _, rest = token.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ConfigError(f"unknown operator key {key!r}")
        name, _, param_text = rest.partition(":")
        name = name.strip()
        params = _parse_params(param_text, token) if param_text else {}
        if key == "negation":
            if name != "classic":
                raise ConfigError(f"unknown negation {name!r} (only 'classic')")
            if params:
                raise ConfigError(f"{token!r}: parameter "
                                  f"{next(iter(params))!r} not valid here")
            continue
        # names and parameter keys are checked per token, parameter values
        # once ``validate`` binds
        sigmoidal = (key, name) == ("implication", "sigmoidal")
        if not sigmoidal:
            try:
                _row(key, name)
            except OperatorError as exc:
                raise ConfigError(str(exc)) from None
            for pk in params:
                if pk != "p":
                    raise ConfigError(f"{token!r}: parameter {pk!r} not valid here")
        if sigmoidal:
            cfg.update(implication=name,
                       implication_p=params.get("p", cfg["implication_p"]),
                       sigmoid_s=params.get("s"),
                       sigmoid_b0=params.get("b0", SIGMOID_B0),
                       sigmoid_base=params.get("base"))
            if cfg["sigmoid_base"] is None:
                raise ConfigError("sigmoidal implication needs base=<name>")
            if ("implication", cfg["sigmoid_base"]) not in _REGISTRY:
                raise ConfigError(f"unknown sigmoidal base {cfg['sigmoid_base']!r}")
            if cfg["sigmoid_s"] is None:
                raise ConfigError("sigmoidal implication needs s=<positive>")
            continue
        if key == "implication":
            cfg.update(sigmoid_s=None, sigmoid_b0=None, sigmoid_base=None)
        cfg.update({key: name, f"{key}_p": params.get("p")})
    try:
        return OperatorConfig(**cfg).validate()
    except OperatorError as exc:
        raise ConfigError(str(exc)) from None
