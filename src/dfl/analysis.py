"""Empirical verification of operator derivative behaviour.

Monte-Carlo estimates of the fraction of the unit hypercube on which a
kernel has a nonvanishing derivative (checked against closed forms where
known), single-passing audits, derivative surfaces for implications, and
the consequent/antecedent gradient-quality metrics used by the training
harness.

Fractions are computed from integer hit counts so that estimates are
reduction-order independent and bit-reproducible under a fixed seed
(PCG64 via numpy's default generator).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .operators import (OperatorConfig, OperatorDescriptor, OperatorError,
                        _arity_error, _count_live, descriptor,
                        lukasiewicz_fraction, nilpotent_fraction,
                        yager_tnorm_fraction)
from .valuation import (CLAMP_EPS, GroundingTable, _gathers, _plan_for,
                        _valuate, classical_values)

__all__ = [
    "AnalysisCapError", "SAMPLE_CAP", "SURFACE_CELL_CAP",
    "FractionEstimate", "GradientQuality",
    "estimate_nonvanishing_fraction", "single_passing_audit", "composed",
    "gradient_quality", "labeling_from_atoms",
    "derivative_surface", "yager_tnorm_fraction_check",
    "implication_aggregator_interaction",
    "lukasiewicz_fraction", "nilpotent_fraction", "yager_tnorm_fraction",
    "yager_p2_fraction_candidates",
]

# float64 values one Monte-Carlo audit may draw, samples x point dimension
SAMPLE_CAP = 10 ** 9
# cells of one surface grid: step 0.001 (1001**2 cells) is admitted
SURFACE_CELL_CAP = 2 ** 20


class AnalysisCapError(ValueError):
    """An analysis would draw more values, or evaluate more grid cells,
    than its cap."""


# ---------------------------------------------------------------------------
# closed forms

def yager_p2_fraction_candidates(n: int) -> dict:
    """Both closed-form candidates for the p=2 Yager aggregator fraction.

    The orthant volume of the unit n-ball is pi^(n/2) / (2^n Gamma(n/2+1));
    a Gamma(n/2 + 1/2) variant also circulates.  At n=2 they differ
    (pi/4 vs ~0.886) and Monte Carlo arbitrates.
    """
    top = math.pi ** (n / 2.0) / 2 ** n
    return {
        "gamma(n/2+1)": top / math.gamma(n / 2.0 + 1.0),
        "gamma(n/2+1/2)": top / math.gamma(n / 2.0 + 0.5),
    }


# ---------------------------------------------------------------------------
# nonvanishing-derivative regions

@dataclass
class FractionEstimate:
    """Monte-Carlo estimate of the nonvanishing-derivative fraction."""

    operator: str
    n: int
    samples: int
    estimate: float
    std_error: float
    closed_form: float | None = None
    candidates: dict = field(default_factory=dict)
    supported: str | None = None

    @property
    def z_score(self):
        if self.closed_form is None:
            return None
        se = max(self.std_error, 1e-15)
        return (self.estimate - self.closed_form) / se


# float64 values per chunk of points.  A chunk of n-coordinate points is
# POINT_CHUNK // n rows, so the points and every kernel temporary derived
# from them stay under 112 KiB whatever n is: below glibc's default
# 128 KiB mmap and trim thresholds, so the allocator reuses their memory
# from chunk to chunk instead of mapping it afresh.  At 20,000 rows a
# chunk (160 KB a column) the audit workload took about 1,500 minor page
# faults per op; at this budget it takes about none.
POINT_CHUNK = 14_336


def _point_chunks(rng, samples: int, n: int):
    """``samples`` uniform points of [0,1)^n, ``max(1, POINT_CHUNK // n)``
    rows at a time (at most ``max(POINT_CHUNK, n)`` values a chunk): the
    same stream as one ``rng.random((samples, n))`` call, in bounded
    memory."""
    rows = max(1, POINT_CHUNK // n)
    for start in range(0, samples, rows):
        yield rng.random((min(rows, samples - start), n))


def _check_samples(samples: int, n: int):
    """Refuse, before any draw, ``samples`` points of ``n`` coordinates
    past ``SAMPLE_CAP`` values."""
    if samples * n > SAMPLE_CAP:
        raise AnalysisCapError(f"{samples} samples x {n} inputs exceed the "
                               f"{SAMPLE_CAP}-value sampling cap")


def _generator(seed: int, what: str):
    """numpy's PCG64 generator for ``seed``, refusing a negative seed by
    name before any draw."""
    if seed < 0:
        raise ValueError(f"{what} need seed >= 0, got seed={seed}")
    return np.random.default_rng(seed)


def estimate_nonvanishing_fraction(desc: OperatorDescriptor, n: int,
                                   samples: int, seed: int) -> FractionEstimate:
    """Draw uniform points from [0,1]^n and count where at least one
    partial is nonzero (threshold 1e-12)."""
    if samples < 10_000:
        raise ValueError("fraction estimates need samples >= 10_000")
    desc.check_arity(n)
    _check_samples(samples, n)
    rng = _generator(seed, "fraction estimates")
    hits = sum(int(np.count_nonzero(desc.live_partials(X)))
               for X in _point_chunks(rng, samples, n))
    estimate = hits / samples
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / samples)
    out = FractionEstimate(f"{desc.family}:{desc.label()}", n, samples,
                           estimate, std_error, desc.fraction(n))
    if desc.family == "aggregator" and desc.name == "yager" and desc.p == 2.0:
        out.candidates = yager_p2_fraction_candidates(n)
        se = max(std_error, 1e-15)
        out.supported = min(out.candidates,
                            key=lambda k: abs(estimate - out.candidates[k]) / se)
        out.closed_form = out.candidates[out.supported]
    return out


# ---------------------------------------------------------------------------
# single-passing

def composed(outer: OperatorDescriptor, inners: list):
    """Point function for outer(inner_1(xs_1), ..., inner_k(xs_k)): the n
    inputs split into k equal parts, in order, one per inner operator.
    Its ``live_partials(X)`` counts the chained partials of each point."""
    outer.check_arity(len(inners))
    k = len(inners)

    def check_arity(n: int):
        if n % k or any(_arity_error(inner.family, n // k) for inner in inners):
            raise OperatorError(f"n does not split into {k} equal parts "
                                f"that the inner operators take; got n={n}")

    def live_partials(X) -> np.ndarray:
        columns = np.ascontiguousarray(np.asarray(X).T)  # one row per input
        per = len(columns) // k
        runs = [inner.on_columns(columns[i * per:(i + 1) * per])
                for i, inner in enumerate(inners)]
        _, partials = outer.on_columns(np.array([value for value, _ in runs]))
        return _count_live([d_outer * d for d_outer, (_, ds)
                            in zip(partials, runs) for d in ds], len(X))

    return SimpleNamespace(check_arity=check_arity,
                           live_partials=live_partials)


def single_passing_audit(op, n: int, samples: int = 10_000, seed: int = 0):
    """True iff at most one input of ``op``, a descriptor or ``composed``,
    has |partial| > 1e-12 at every sampled point; otherwise returns the
    first violating point as witness."""
    if samples < 10_000:
        raise ValueError("single-passing audits need samples >= 10_000")
    rng = _generator(seed, "single-passing audits")
    op.check_arity(n)
    _check_samples(samples, n)
    for X in _point_chunks(rng, samples, n):
        violations = np.flatnonzero(op.live_partials(X) > 1)
        if len(violations):
            return False, tuple(X[violations[0]].tolist())
    return True, None


# ---------------------------------------------------------------------------
# gradient quality

def labeling_from_atoms(atom_fn):
    """The labels ``gradient_quality`` takes: the data truth
    ``atom_fn(pred, objs) -> {0,1}`` of each ground atom, which it lifts
    to subformula instances classically over each compiled program."""
    return SimpleNamespace(atom_fn=atom_fn)


@dataclass
class GradientQuality:
    """Consequent/antecedent derivative magnitudes and ratios."""

    cons_magnitude: float
    ant_magnitude: float
    cons_pct: float
    cu_cons_pct: float
    cu_ant_pct: float
    formulas_used: int
    formulas_skipped: int


def gradient_quality(kb, g: GroundingTable, ops: OperatorConfig,
                     labels) -> GradientQuality:
    """Per-step |cons|, |ant| and the cons%/cu_cons%/cu_ant% ratios.

    ``labels`` gives the {0,1} data truth of every ground atom (see
    ``labeling_from_atoms``), asked once per atom of each predicate that
    an implication-bodied formula reads, into one boolean vector laid
    out like ``g.values``, once the knowledge base's plan admits it
    (``valuation.Plan``); the truth of each antecedent and consequent
    instance follows from it over the compiled programs, one stack of
    programs of one shape at a time (``classical_values``).  Each
    instance's antecedent and consequent derivatives come from the
    stack's backward pass on ``g``: the valuation kept on ``g`` when it is
    of the same plan under ``ops``, or else one new valuation of the
    stack.  Each formula's totals are sums over its own
    instances, added in knowledge-base order.  Formulas whose quantifier
    body is not an implication are skipped.  Ratios with a zero
    denominator are returned as nan.
    """
    formulas = kb.formulas()
    plan = _plan_for(formulas, g, ops)
    used = [program.instrs[program.body].op == "implies"
            for program in plan.programs]
    truth = _atom_truth([p for p, u in zip(plan.programs, used) if u], g,
                        labels.atom_fn)
    sums = [None] * len(formulas)  # per formula: cons, ant, cu_cons, cu_ant
    for j, stack in enumerate(plan.stacks(ops)):
        if not used[stack.members[0]]:  # one shape, so one body, per stack
            continue
        adj, (da, dc) = _stack_derivatives(plan, j, formulas, g, ops)
        program = stack.programs[0]
        ante, cons = program.instrs[program.body].args
        holds = classical_values(program, truth, _gathers(stack, g))
        d_cons, d_ant = adj * dc, -(adj * da)
        rows = [_row_sums(x) for x in (d_cons, d_ant, holds[cons] * d_cons,
                                       ~holds[ante] * d_ant)]
        for f, k in enumerate(stack.members):
            sums[k] = [row[f] for row in rows]
    total_cons = total_ant = total_cu_cons = total_cu_ant = 0.0
    for cons_k, ant_k, cu_cons_k, cu_ant_k in filter(None, sums):
        total_cons += cons_k
        total_ant += ant_k
        total_cu_cons += cu_cons_k
        total_cu_ant += cu_ant_k
    denom = total_cons + total_ant
    return GradientQuality(
        cons_magnitude=total_cons,
        ant_magnitude=total_ant,
        cons_pct=total_cons / denom if denom > 0 else float("nan"),
        cu_cons_pct=total_cu_cons / total_cons if total_cons > 0 else float("nan"),
        cu_ant_pct=total_cu_ant / total_ant if total_ant > 0 else float("nan"),
        formulas_used=sum(used),
        formulas_skipped=len(used) - sum(used),
    )


def _stack_derivatives(plan, j: int, formulas: list, g: GroundingTable,
                       ops: OperatorConfig) -> tuple:
    """(d(value)/d(body), (dI/da, dI/dc)) per ground instance of stack
    ``j`` of ``plan``, implication-bodied formulas of one shape, each on
    a leading formula axis: read from the valuation kept on ``g`` when it
    is of ``plan`` under ``ops``, else from one new valuation of the
    stack's ``formulas``."""
    kept = g.kept
    if kept is None or kept[0] is not plan or kept[1] != ops:
        _valuate([formulas[k] for k in plan.stacks(ops)[j].members], g, ops)
        kept, j = g.kept, 0
    return kept[2][j]


def _row_sums(x: np.ndarray) -> list:
    """The sum of each formula's instances of a stack array, as floats,
    each taken in the memory order of the formula's slice, as ``sum``
    of that slice alone takes it."""
    order = sorted(range(1, x.ndim), key=lambda k: -abs(x.strides[k]))
    return x.transpose([0] + order).reshape(len(x), -1).sum(axis=1).tolist()


def _atom_truth(programs, g: GroundingTable, atom_fn) -> np.ndarray:
    """Data labels over ``g``'s atom vector of every atom of each
    predicate that ``programs`` read, in the order they first read them;
    False elsewhere."""
    truth = np.zeros(g.layout.size, dtype=bool)
    seen = set()
    for program in programs:
        for instr in program.instrs:
            if instr.op != "atom" or instr.atom.pred in seen:
                continue
            pred = instr.atom.pred
            seen.add(pred)
            if pred not in g.layout.preds:  # the gather names it
                continue
            offset, arity = g.layout.preds[pred]
            truth[offset:offset + len(g.batch) ** arity] = [
                bool(atom_fn(pred, objs))
                for objs in itertools.product(g.batch, repeat=arity)]
    return truth


# ---------------------------------------------------------------------------
# derivative surfaces

def _grid(step: float):
    """The (a, c) points of a grid of ``step`` over the unit square, ``a``
    varying slowest; a step that is not a positive number, or a grid past
    ``SURFACE_CELL_CAP`` cells, is refused before any work."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be a positive number, got {step!r}")
    count = 1.0 / step  # inf for a subnormal step
    if count >= 2 ** 31 or (round(count) + 1) ** 2 > SURFACE_CELL_CAP:
        raise AnalysisCapError(f"a grid of step {step!r} has more than "
                               f"{SURFACE_CELL_CAP} cells, the surface cap")
    count = round(count)
    if abs(count * step - 1.0) > 1e-9:
        raise ValueError(f"grid step {step} does not divide 1")
    axis = [i * step for i in range(count + 1)]
    a, c = np.meshgrid(axis, axis, indexing="ij")
    return a.ravel(), c.ravel()


def derivative_surface(name: str, step: float, p: float | None = None,
                       s: float | None = None, b0: float | None = None,
                       base: str | None = None) -> list:
    """Dense (a, c, dI/dc, -dI/da) table for an implication kernel: the
    derivatives with respect to the consequent and the negated antecedent."""
    a, c = _grid(step)
    _, (dia, dic) = descriptor("implication", name, p, s, b0,
                               base).array_kernel(a, c)
    dia, dic = np.broadcast_to(dia, a.shape), np.broadcast_to(dic, a.shape)
    return list(zip(a.tolist(), c.tolist(), dic.tolist(), (-dia).tolist()))


def yager_tnorm_fraction_check(p: float, samples: int, seed: int):
    """(MC estimate, closed form, z-score) for the Yager t-norm fraction."""
    desc = descriptor("tnorm", "yager", p=p)
    est = estimate_nonvanishing_fraction(desc, 2, samples, seed)
    cf = yager_tnorm_fraction(p)
    se = max(est.std_error, 1e-15)
    return est.estimate, cf, (est.estimate - cf) / se


def implication_aggregator_interaction(agg: str, impl: str, step: float,
                                       p: float | None = None) -> list:
    """Composite d(aggregated value)/d(negated antecedent) over a grid.

    Two instances feed the aggregator: the probed (a, c) and a fixed
    companion with 1 - I_RC = sqrt(0.9) (so its squared error is 0.9,
    the plotting convention for the n=2 rmse surface).  Grid inputs are
    clamped like grounding atoms, so corner rows show the engine's real
    (finite) behaviour.
    """
    if agg not in ("log_product", "rmse"):
        raise ValueError("interaction surfaces are defined for log_product/rmse")
    a, c = _grid(step)
    companion = descriptor("implication", "reichenbach").value(
        math.sqrt(0.9), 0.0)
    probed, (dia, _) = descriptor("implication", impl, p=p).array_kernel(
        np.clip(a, CLAMP_EPS, 1.0 - CLAMP_EPS),
        np.clip(c, CLAMP_EPS, 1.0 - CLAMP_EPS))
    _, partials = descriptor("aggregator", agg).array_kernel(
        np.stack([np.full(a.shape, companion), probed]))
    # the chain rule in the tape's order: adjoints accumulate from 0.0
    d_ante = 0.0 + partials[1] * dia
    return list(zip(a.tolist(), c.tolist(), (-d_ante).tolist()))
