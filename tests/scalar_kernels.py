"""The scalar operator kernels, kept as the reference that the array
kernels in ``dfl.operators`` are tested against.

Each kernel takes Python floats and returns ``(value, partials)``: an
if-chain per operator, written independently of the array kernels, with
aggregator sums taken by ``math.fsum``.  The per-point loop versions of
``property_audit``, ``tnorm_duality_check`` and
``analysis.single_passing_audit`` below run over these kernels, so the
shipped array versions can be checked against them report for report.
Parameter rules and the catalog's loci are the library's own.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from dfl.operators import (OperatorDescriptor, OperatorError, _check_unit,
                           _checked_p, _pow, _sigmoidal_scaling, descriptor)


# ---------------------------------------------------------------------------
# negation

def negation_kernel(a: float):
    return 1.0 - a, (-1.0,)


def negation(a: float) -> float:
    _check_unit(a)
    return 1.0 - a


# ---------------------------------------------------------------------------
# t-norms

def _t_godel(a, b, p=None):
    if a <= b:
        return a, (1.0, 0.0)
    return b, (0.0, 1.0)


def _t_product(a, b, p=None):
    return a * b, (b, a)


def _t_lukasiewicz(a, b, p=None):
    if a == 1.0:  # neutral element, kept exact; matches the generic branch
        return b, (1.0, 1.0)
    if b == 1.0:
        return a, (1.0, 1.0)
    s = a + b - 1.0
    if s >= 0.0:
        return s, (1.0, 1.0)
    return 0.0, (0.0, 0.0)


def _t_drastic(a, b, p=None):
    if a == 1.0 or b == 1.0:
        v, _ = _t_godel(a, b)
        da = 1.0 if b == 1.0 and a < 1.0 else 0.0
        db = 1.0 if a == 1.0 and b < 1.0 else 0.0
        if a == 1.0 and b == 1.0:
            da = 1.0  # min tie goes to the first argument
        return v, (da, db)
    return 0.0, (0.0, 0.0)


def _t_nilpotent(a, b, p=None):
    if a + b > 1.0:
        return _t_godel(a, b)
    return 0.0, (0.0, 0.0)


def _t_yager(a, b, p):
    if a == 1.0 and b != 1.0:  # neutral element, kept exact
        return b, (0.0 if p > 1.0 else 1.0, 1.0)
    if b == 1.0 and a != 1.0:
        return a, (1.0, 0.0 if p > 1.0 else 1.0)
    s = (1.0 - a) ** p + (1.0 - b) ** p
    if s == 0.0:
        # corner a = b = 1: declared subgradient, the diagonal limit
        d = _pow(2.0, 1.0 / p - 1.0)
        return 1.0, (d, d)
    if s <= 1.0:
        scale = _pow(s, 1.0 / p - 1.0)
        return (1.0 - _pow(s, 1.0 / p),
                (scale * _pow(1.0 - a, p - 1.0), scale * _pow(1.0 - b, p - 1.0)))
    return 0.0, (0.0, 0.0)


_TNORMS = {
    "godel": _t_godel,
    "product": _t_product,
    "lukasiewicz": _t_lukasiewicz,
    "drastic": _t_drastic,
    "nilpotent": _t_nilpotent,
    "yager": _t_yager,
}


def tnorm_kernel(name: str, a: float, b: float, p: float | None = None):
    fn = _TNORMS.get(name)
    if fn is None:
        raise OperatorError(f"unknown t-norm {name!r}")
    _check_unit(a)
    _check_unit(b)
    return fn(a, b, _checked_p("tnorm", name, p))


def tnorm(name: str, a: float, b: float, p: float | None = None) -> float:
    return tnorm_kernel(name, a, b, p)[0]


# ---------------------------------------------------------------------------
# t-conorms (N_C-duals of the t-norms above)

def _s_godel(a, b, p=None):
    if a >= b:
        return a, (1.0, 0.0)
    return b, (0.0, 1.0)


def _s_product(a, b, p=None):
    return a + b - a * b, (1.0 - b, 1.0 - a)


def _s_lukasiewicz(a, b, p=None):
    if a == 0.0:  # neutral element, kept exact; matches the generic branch
        return b, (1.0, 1.0)
    if b == 0.0:
        return a, (1.0, 1.0)
    s = a + b
    if s <= 1.0:
        return s, (1.0, 1.0)
    return 1.0, (0.0, 0.0)


def _s_drastic(a, b, p=None):
    if a == 0.0 or b == 0.0:
        v, _ = _s_godel(a, b)
        da = 1.0 if b == 0.0 and a > 0.0 else 0.0
        db = 1.0 if a == 0.0 and b > 0.0 else 0.0
        if a == 0.0 and b == 0.0:
            da = 1.0
        return v, (da, db)
    return 1.0, (0.0, 0.0)


def _s_nilpotent(a, b, p=None):
    if a + b < 1.0:
        return _s_godel(a, b)
    return 1.0, (0.0, 0.0)


def _s_yager(a, b, p):
    if a == 0.0 and b != 0.0:  # neutral element, kept exact
        return b, (0.0 if p > 1.0 else 1.0, 1.0)
    if b == 0.0 and a != 0.0:
        return a, (1.0, 0.0 if p > 1.0 else 1.0)
    s = a ** p + b ** p
    if s == 0.0:
        # corner a = b = 0: declared subgradient, the diagonal limit
        d = _pow(2.0, 1.0 / p - 1.0)
        return 0.0, (d, d)
    if s <= 1.0:
        scale = _pow(s, 1.0 / p - 1.0)
        return _pow(s, 1.0 / p), (scale * _pow(a, p - 1.0), scale * _pow(b, p - 1.0))
    return 1.0, (0.0, 0.0)


_TCONORMS = {
    "godel": _s_godel,
    "product": _s_product,
    "lukasiewicz": _s_lukasiewicz,
    "drastic": _s_drastic,
    "nilpotent": _s_nilpotent,
    "yager": _s_yager,
}


def tconorm_kernel(name: str, a: float, b: float, p: float | None = None):
    fn = _TCONORMS.get(name)
    if fn is None:
        raise OperatorError(f"unknown t-conorm {name!r}")
    _check_unit(a)
    _check_unit(b)
    return fn(a, b, _checked_p("tconorm", name, p))


def tconorm(name: str, a: float, b: float, p: float | None = None) -> float:
    return tconorm_kernel(name, a, b, p)[0]


# ---------------------------------------------------------------------------
# aggregators

def _argmin_first(xs):
    best = 0
    for i in range(1, len(xs)):
        if xs[i] < xs[best]:
            best = i
    return best


def _argmax_first(xs):
    best = 0
    for i in range(1, len(xs)):
        if xs[i] > xs[best]:
            best = i
    return best


def _a_min(xs, p=None):
    i = _argmin_first(xs)
    partials = [0.0] * len(xs)
    partials[i] = 1.0
    return xs[i], partials


def _a_max(xs, p=None):
    i = _argmax_first(xs)
    partials = [0.0] * len(xs)
    partials[i] = 1.0
    return xs[i], partials


def _a_product(xs, p=None):
    n = len(xs)
    # prefix/suffix products keep partials exact when some x is 0
    prefix = [1.0] * (n + 1)
    for i, x in enumerate(xs):
        prefix[i + 1] = prefix[i] * x
    suffix = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * xs[i]
    partials = [prefix[i] * suffix[i + 1] for i in range(n)]
    return prefix[n], partials


def _a_log_product(xs, p=None):
    for x in xs:
        if x <= 0.0:
            raise OperatorError("log_product is undefined at 0; clamp inputs first")
    return math.fsum(math.log(x) for x in xs), [1.0 / x for x in xs]


def _a_lukasiewicz(xs, p=None):
    n = len(xs)
    s = math.fsum(xs) - (n - 1)
    if s >= 0.0:
        return s, [1.0] * n
    return 0.0, [0.0] * n


def _a_bounded_sum(xs, p=None):
    s = math.fsum(xs)
    if s <= 1.0:
        return s, [1.0] * len(xs)
    return 1.0, [0.0] * len(xs)


def _a_prob_sum(xs, p=None):
    ones = [1.0 - x for x in xs]
    prod, partials = _a_product(ones)
    return 1.0 - prod, partials


def _a_yager(xs, p):
    s = math.fsum((1.0 - x) ** p for x in xs)
    if s == 0.0:
        # all-ones corner: declared subgradient, the diagonal limit
        d = _pow(float(len(xs)), 1.0 / p - 1.0)
        return 1.0, [d] * len(xs)
    if s <= 1.0:
        scale = _pow(s, 1.0 / p - 1.0)
        return (1.0 - _pow(s, 1.0 / p),
                [scale * _pow(1.0 - x, p - 1.0) for x in xs])
    return 0.0, [0.0] * len(xs)


def _a_nilpotent(xs, p=None):
    n = len(xs)
    if n == 1:
        return xs[0], [1.0]
    lo = _argmin_first(xs)
    second = None
    for i in range(n):
        if i == lo:
            continue
        if second is None or xs[i] < xs[second]:
            second = i
    if xs[lo] + xs[second] > 1.0:
        partials = [0.0] * n
        partials[lo] = 1.0
        return xs[lo], partials
    return 0.0, [0.0] * n


def _a_pme(xs, p):
    n = len(xs)
    s = math.fsum((1.0 - x) ** p for x in xs)
    if s == 0.0:
        # all-ones corner: declared subgradient, the diagonal limit
        return 1.0, [1.0 / n] * n
    v = 1.0 - _pow(s / n, 1.0 / p)
    scale = _pow(s / n, 1.0 / p - 1.0) / n
    return v, [scale * _pow(1.0 - x, p - 1.0) for x in xs]


def _a_pmean(xs, p):
    n = len(xs)
    s = math.fsum(x ** p for x in xs)
    if s == 0.0:
        # all-zeros corner: declared subgradient, the diagonal limit
        return 0.0, [1.0 / n] * n
    v = _pow(s / n, 1.0 / p)
    scale = _pow(s / n, 1.0 / p - 1.0) / n
    return v, [scale * _pow(x, p - 1.0) for x in xs]


_AGGREGATORS = {
    "min": _a_min,
    "max": _a_max,
    "product": _a_product,
    "log_product": _a_log_product,
    "lukasiewicz": _a_lukasiewicz,
    "bounded_sum": _a_bounded_sum,
    "prob_sum": _a_prob_sum,
    "yager": _a_yager,
    "nilpotent": _a_nilpotent,
    "pme": _a_pme,
    "pmean": _a_pmean,
    "mae": _a_pme,  # the library's rule fixes p = 1
    "rmse": _a_pme,  # and p = 2
}


def aggregate_kernel(name: str, xs: Sequence[float], p: float | None = None):
    fn = _AGGREGATORS.get(name)
    if fn is None:
        raise OperatorError(f"unknown aggregator {name!r}")
    xs = [float(x) for x in xs]
    if not xs:
        raise OperatorError("aggregate requires at least one input")
    for x in xs:
        _check_unit(x)
    return fn(xs, _checked_p("aggregator", name, p))


def aggregate(name: str, xs: Sequence[float], p: float | None = None) -> float:
    return aggregate_kernel(name, xs, p)[0]


# ---------------------------------------------------------------------------
# implications
#
# Kernels return (value, (dI/da, dI/dc)).  The derivative with respect to
# the negated antecedent is d_Inot_a = -dI/da.

def _i_kleene_dienes(a, c, p=None):
    na = 1.0 - a
    if na >= c:
        return na, (-1.0, 0.0)
    return c, (0.0, 1.0)


def _i_reichenbach(a, c, p=None):
    return (1.0 - a) + a * c, (c - 1.0, a)


def _i_lukasiewicz(a, c, p=None):
    if a == 1.0:  # left-neutral edge, kept exact; matches the generic branch
        return c, (-1.0, 1.0)
    u = 1.0 - a + c
    if u <= 1.0:
        return u, (-1.0, 1.0)
    return 1.0, (0.0, 0.0)


def _i_dubois_prade(a, c, p=None):
    # branch order fixes the corner (1, 0) subgradient: a = 1 wins, so at
    # most one partial is ever live and the kernel stays single-passing
    if a == 1.0:
        return c, (0.0, 1.0)
    if c == 0.0:
        return 1.0 - a, (-1.0, 0.0)
    return 1.0, (0.0, 0.0)


def _i_fodor(a, c, p=None):
    if a <= c:
        return 1.0, (0.0, 0.0)
    return _i_kleene_dienes(a, c)


def _i_godel(a, c, p=None):
    if a <= c:
        return 1.0, (0.0, 0.0)
    return c, (0.0, 1.0)


def _i_goguen(a, c, p=None):
    if a <= c:
        return 1.0, (0.0, 0.0)
    return c / a, (-c / (a * a), 1.0 / a)


def _i_weber(a, c, p=None):
    if a < 1.0:
        return 1.0, (0.0, 0.0)
    return c, (0.0, 1.0)


def _i_yager_s(a, c, p):
    if a == 1.0 and c == 0.0:
        # corner: declared subgradient, the diagonal limit
        d = _pow(2.0, 1.0 / p - 1.0)
        return 0.0, (-d, d)
    if a == 1.0:  # left-neutral edge, kept exact
        return c, (-1.0 if p == 1.0 else 0.0, 1.0)
    u = (1.0 - a) ** p + c ** p
    if u <= 1.0:
        scale = _pow(u, 1.0 / p - 1.0)
        return (_pow(u, 1.0 / p),
                (-scale * _pow(1.0 - a, p - 1.0), scale * _pow(c, p - 1.0)))
    return 1.0, (0.0, 0.0)


def _i_yager_r(a, c, p):
    if a <= c:
        return 1.0, (0.0, 0.0)
    u = (1.0 - c) ** p - (1.0 - a) ** p
    v = 1.0 - _pow(u, 1.0 / p)
    scale = _pow(u, 1.0 / p - 1.0)
    return v, (-scale * _pow(1.0 - a, p - 1.0), scale * _pow(1.0 - c, p - 1.0))


_IMPLICATIONS = {
    "kleene_dienes": _i_kleene_dienes,
    "reichenbach": _i_reichenbach,
    "lukasiewicz": _i_lukasiewicz,
    "dubois_prade": _i_dubois_prade,
    "fodor": _i_fodor,
    "godel": _i_godel,
    "goguen": _i_goguen,
    "weber": _i_weber,
    "yager_s": _i_yager_s,
    "yager_r": _i_yager_r,
}


def implication_kernel(name: str, a: float, c: float, p: float | None = None,
                       s: float | None = None, b0: float | None = None,
                       base: str | None = None):
    if name == "sigmoidal":
        return sigmoidal_kernel(base, s, b0, a, c, p=p)
    fn = _IMPLICATIONS.get(name)
    if fn is None:
        raise OperatorError(f"unknown implication {name!r}")
    _check_unit(a)
    _check_unit(c)
    return fn(a, c, _checked_p("implication", name, p))


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


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoidal_kernel(base: str | None, s: float, b0: float, a: float, c: float,
                     p: float | None = None):
    """Sigmoid-warped implication; keeps the base's 0/1 level sets.

    value = d * ((1 + e^(-b0 s)) * sigmoid(s (I + b0)) - 1)
    with d = (1 + e^(-s (1 + b0))) / (e^(-b0 s) - e^(-s (1 + b0))),
    an increasing map sending I=0 to 0 and I=1 to 1.
    """
    return _warp(lambda a, c: implication_kernel(base, a, c, p=p),
                 *_sigmoidal_scaling(base, s, b0))(a, c)


def _warp(base_kernel, s, b0, d, h):
    """The sigmoidal warp of ``base_kernel`` with checked (s, b0, d, h)."""
    def kernel(a, c):
        iv, (dia, dic) = base_kernel(a, c)
        y = _sigmoid(s * (iv + b0))
        value = d * (h * y - 1.0)
        # float dust can push the 0/1 level sets a few ulps outside [0, 1]
        value = min(max(value, 0.0), 1.0)
        dvdi = d * h * s * y * (1.0 - y)
        return value, (dvdi * dia, dvdi * dic)

    return kernel


def sigmoidal_implication(base: str, s: float, b0: float, a: float, c: float,
                          p: float | None = None) -> float:
    return sigmoidal_kernel(base, s, b0, a, c, p=p)[0]


# ---------------------------------------------------------------------------
# descriptors and the loop audits


def kernel(desc, *xs):
    """``OperatorDescriptor.kernel`` over these scalar kernels."""
    kw = dict(desc.params)
    if desc.family == "negation":
        return negation_kernel(*xs)
    if desc.family == "tnorm":
        return tnorm_kernel(desc.name, xs[0], xs[1], kw.get("p"))
    if desc.family == "tconorm":
        return tconorm_kernel(desc.name, xs[0], xs[1], kw.get("p"))
    if desc.family == "aggregator":
        return aggregate_kernel(desc.name, xs, kw.get("p"))
    if desc.family == "implication":
        return implication_kernel(desc.name, xs[0], xs[1], **kw)
    raise OperatorError(f"unknown family {desc.family!r}")


def bind(desc):
    """``kernel`` of one descriptor with its operator and parameters
    resolved once, for the loops below: inputs are not checked."""
    kw = dict(desc.params)
    if desc.family == "negation":
        return negation_kernel
    if desc.family == "aggregator":
        agg = _AGGREGATORS[desc.name]
        p = _checked_p("aggregator", desc.name, kw.get("p"))
        return lambda *xs: agg(xs, p)
    if desc.family == "implication":
        name = kw["base"] if desc.name == "sigmoidal" else desc.name
        fn = _IMPLICATIONS[name]
        p = _checked_p("implication", name, kw.get("p"))
        if desc.name == "sigmoidal":
            return _warp(lambda a, c: fn(a, c, p),
                         *_sigmoidal_scaling(name, kw["s"], kw["b0"]))
    else:
        fn = (_TNORMS if desc.family == "tnorm" else _TCONORMS)[desc.name]
        p = _checked_p(desc.family, desc.name, kw.get("p"))
    return lambda a, b: fn(a, b, p)


def _value(desc):
    fn = bind(desc)
    return lambda *xs: fn(*xs)[0]


def tnorm_duality_check(name: str, samples: int = 10_000, p: float | None = None,
                        seed: int = 0) -> float:
    """Max abs error of S(a,b) = 1 - T(1-a, 1-b) and d_S(a,b) = d_T(1-a, 1-b)
    over uniform samples, skipping points near the library's t-norm locus
    at (1-a, 1-b) or its t-conorm locus at (a, b)."""
    if name not in _TNORMS:
        raise OperatorError(f"unknown t-norm {name!r}")
    t_locus = descriptor("tnorm", name, p=p).near_locus
    s_locus = descriptor("tconorm", name, p=p).near_locus
    rng = random.Random(seed)
    worst = 0.0
    taken = 0
    while taken < samples:
        a, b = rng.random(), rng.random()
        if t_locus((1.0 - a, 1.0 - b), 1e-9) or s_locus((a, b), 1e-9):
            continue
        taken += 1
        sv, (dsa, _) = tconorm_kernel(name, a, b, p)
        tv, (dta, _) = tnorm_kernel(name, 1.0 - a, 1.0 - b, p)
        worst = max(worst, abs(sv - (1.0 - tv)), abs(dsa - dta))
    return worst


# ---------------------------------------------------------------------------
# property audit

def _run(checks, prop, points, expr, tol, *extra):
    """Append ``prop``'s verdict over ``points``, each paired with its
    entries of the ``extra`` lists: the first point with the largest
    ``expr`` is the witness."""
    worst, witness = 0.0, None
    for point, *more in zip(points, *extra):
        err = expr(point, *more)
        if err > worst:
            worst, witness = err, point
    checks.append((prop, worst <= tol, None if worst <= tol else witness))


def _tuples(xs, arity):
    return [tuple(xs[i:i + arity]) for i in range(0, len(xs), arity)]


def _audit_binary(desc: OperatorDescriptor, rng, samples, tol):
    """Battery for t-norms / t-conorms."""
    val = _value(desc)
    neutral = 1.0 if desc.family == "tnorm" else 0.0
    checks = []

    def run(prop, arity, expr):
        points = _tuples(rng.random(samples * arity).tolist(), arity)
        _run(checks, prop, points, lambda point: expr(*point), tol)

    run("commutative", 2, lambda a, b: abs(val(a, b) - val(b, a)))
    run("associative", 3,
        lambda a, b, c: abs(val(val(a, b), c) - val(a, val(b, c))))
    run("neutral", 1, lambda a: abs(val(neutral, a) - a))
    run("idempotent", 1, lambda a: abs(val(a, a) - a))

    def mono_err(a, b1, b2):
        lo, hi = (b1, b2) if b1 <= b2 else (b2, b1)
        return max(0.0, val(a, lo) - val(a, hi))

    run("monotone", 3, mono_err)
    return checks


def _audit_aggregator(desc: OperatorDescriptor, rng, samples, tol):
    val = _value(desc)
    checks = []
    log = desc.name == "log_product"

    def rows():
        X = rng.random((samples, 5)).tolist()
        n = rng.integers(2, 6, samples).tolist()
        if log:
            X = [[0.05 + 0.9 * x for x in row] for row in X]
        return [row[:k] for row, k in zip(X, n)]

    def perm_err(xs, keys):
        order = sorted(range(len(xs)), key=keys.__getitem__)
        return abs(val(*xs) - val(*[xs[i] for i in order]))

    points = rows()
    _run(checks, "symmetric", points, perm_err, tol,
         rng.random((samples, 5)).tolist())

    def mono_err(xs, i, u):
        bumped = list(xs)
        bumped[i] = min(1.0, xs[i] + u * (1.0 - xs[i]))
        return max(0.0, val(*xs) - val(*bumped))

    points = rows()
    at = rng.integers(0, [len(xs) for xs in points]).tolist()
    _run(checks, "monotone", points, mono_err, tol, at,
         rng.random(samples).tolist())
    if not log:
        points = [[xs[0]] * len(xs) for xs in rows()]
        _run(checks, "idempotent", points, lambda xs: abs(val(*xs) - xs[0]),
             tol)
        checks.append(("boundary",
                       val(0.0, 0.0, 0.0) == 0.0 and val(1.0, 1.0, 1.0) == 1.0,
                       None))
    return checks


def _audit_implication(desc: OperatorDescriptor, rng, samples, tol):
    val = _value(desc)
    checks = []

    def run(prop, arity, expr):
        # mix exact endpoints in: several table properties only fail on
        # the boundary lines (e.g. Weber's CP at a = 1)
        r = rng.random(samples * arity).tolist()
        u = rng.random(samples * arity).tolist()
        xs = [0.0 if ri < 0.15 else 1.0 if ri < 0.30 else ui
              for ri, ui in zip(r, u)]
        _run(checks, prop, _tuples(xs, arity), lambda point: expr(*point), tol)

    checks.append(("boundary",
                   abs(val(0.0, 0.0) - 1.0) <= tol
                   and abs(val(1.0, 1.0) - 1.0) <= tol
                   and abs(val(1.0, 0.0)) <= tol, None))
    run("LN", 1, lambda c: abs(val(1.0, c) - c))
    run("EP", 3, lambda a, b, c: abs(val(a, val(b, c)) - val(b, val(a, c))))
    run("IP", 1, lambda a: abs(val(a, a) - 1.0))
    run("CP", 2, lambda a, c: abs(val(a, c) - val(1.0 - c, 1.0 - a)))

    def mono_err(a1, a2, c1, c2):
        alo, ahi = (a1, a2) if a1 <= a2 else (a2, a1)
        clo, chi = (c1, c2) if c1 <= c2 else (c2, c1)
        err_a = max(0.0, val(ahi, c1) - val(alo, c1))  # decreasing in a
        err_c = max(0.0, val(a1, clo) - val(a1, chi))  # increasing in c
        return max(err_a, err_c)

    run("monotone", 4, mono_err)
    return checks


def _audit_single_passing(desc: OperatorDescriptor, rng, samples, tol):
    arity = {"negation": 1, "tnorm": 2, "tconorm": 2, "implication": 2}.get(
        desc.family, 3)
    fn = bind(desc)
    for xs in _tuples(rng.random(samples * arity).tolist(), arity):
        _, partials = fn(*xs)
        live = sum(1 for d in partials if abs(d) > 1e-12)
        if live > 1:
            return ("single-passing", False, xs)
    return ("single-passing", True, None)


def property_audit(desc: OperatorDescriptor, samples: int = 2000, seed: int = 0,
                   tol: float = 1e-9) -> list:
    """Statistically test the audit battery on uniform samples.

    Returns [(property, passed, witness-or-None), ...] covering
    commutativity/associativity/neutrality/idempotency/monotonicity for
    norms, symmetry/monotonicity/idempotency/boundary for aggregators,
    and boundary/LN/EP/IP/CP/monotonicity for implications, plus a
    single-passing probe everywhere.  A failure carries the worst
    sampled counterexample as witness.

    The points come from ``np.random.default_rng(seed)`` in the order
    ``dfl.operators`` documents for its property audit, drawn as arrays
    and then read one point at a time as Python floats.
    """
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
        checks.append(_audit_single_passing(desc, rng, min(samples, 2000), tol))
    return checks


def single_passing_audit(desc, n: int, samples: int = 10_000, seed: int = 0):
    """``analysis.single_passing_audit`` of a descriptor, one point at a
    time."""
    rng = np.random.default_rng(seed)
    fn = bind(desc)
    for _ in range(samples):
        xs = rng.random(n).tolist()
        _, partials = fn(*xs)
        live = sum(1 for d in partials if abs(d) > 1e-12)
        if live > 1:
            return False, tuple(xs)
    return True, None
