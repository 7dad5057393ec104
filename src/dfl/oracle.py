"""Exact Semantic Loss by world enumeration, and the equivalence check
against the product-configuration fuzzy valuation.

A world assigns {0,1} to every ground atom that each formula's compiled
program reads over its b**d instances; other atoms marginalize out.
Atoms are numbered in first-appearance order and worlds in
``itertools.product`` order, the first atom being the most significant
bit of a world's number.

The work splits in two.  A knowledge base's *plan* over a batch does not
depend on the probabilities: the census of its ground atoms with their
occurrence counts, the atom and instance counts the caps use, and the
satisfying worlds as one boolean mask over all 2**n worlds.  The mask
comes from evaluating the programs classically
(``valuation.classical_values``) with a leading world axis, over
``WORLD_CHUNK`` worlds at a time and at most ``INSTANCE_CAP``
world-instance pairs per chunk, so memory stays bounded.  A few plans
are cached, keyed on the identity of the compiled programs and on the
batch: a knowledge base that gains a formula, or is parsed again, gets
a new plan.  Every call then checks the caps and the probabilities and
runs a *weight pass* over blocks of at most ``WORLD_CHUNK`` worlds,
skipping blocks with no satisfying world.  A world's weight multiplies
its atoms' factors (p or 1 - p) in atom order; a block's weights are
built as a Kronecker product in that order, which makes the same
multiplications, so they equal a per-world loop's bit for bit.
The satisfying weights are summed exactly (``_exact_sum``): each splits
into an integer mantissa and an exponent, the mantissas add up per
exponent in float64 without rounding, the bins carry over blocks as one
Python integer, and a single integer division rounds the total
correctly.  The result is the float ``math.fsum`` returns, and depends
on neither order nor blocking.

The 20-atom cap (about a million worlds) keeps the oracle exact rather
than sampled, and ``WORLD_INSTANCE_CAP`` bounds its work; a grounding
past either cap is rejected before its instances are walked or any
world is built.  A probability that is not a number in [0, 1] is
rejected, naming its atom, before any world is weighted.

The fuzzy side of the comparison uses product t-norm/t-conorm, the
Reichenbach implication and the log-product aggregator, exponentiated
back into probability space; it needs the formula values only, so it
runs the valuation's forward pass alone.  When every ground atom occurs at most
once in the grounded knowledge base the two sides agree; repeated atoms
make the fuzzy side drift (the P AND NOT(P AND Q) example).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .logic import KnowledgeBase, compile_formula
from .operators import OperatorConfig
from .valuation import (INSTANCE_CAP, Domain, LookupInterpretation,
                        SemanticError, _atom_text, _forward_values,
                        build_grounding, check_instance_cap,
                        classical_values)

__all__ = [
    "WorldCapError", "AtomOccurrence", "EquivalenceReport",
    "WORLD_ATOM_CAP", "WORLD_INSTANCE_CAP", "WORLD_CHUNK", "DPFL_CONFIG",
    "occurrence_census", "semantic_probability",
    "semantic_loss", "dpfl_valuation", "equivalence_report", "world_table",
]

WORLD_ATOM_CAP = 20
# world-instance pairs (2**atoms x ground instances) one enumeration may
# evaluate; a short formula takes about 0.5 s per 10**9 pairs
WORLD_INSTANCE_CAP = 2 ** 32
WORLD_CHUNK = 2 ** 14  # most worlds per array pass

DPFL_CONFIG = OperatorConfig(tnorm="product", tconorm="product",
                             implication="reichenbach",
                             aggregator="log_product")


class WorldCapError(ValueError):
    """Grounded knowledge base exceeds an exact-enumeration cap."""


def _assignments(terms: tuple, batch: tuple):
    """Every assignment of batch objects to the axes ``terms`` names, as
    a dict from axis to object."""
    axes = sorted(set(terms))
    return (dict(zip(axes, combo))
            for combo in itertools.product(batch, repeat=len(axes)))


def _world_bits(start: int, stop: int, n: int) -> np.ndarray:
    """The boolean (world x atom) matrix of worlds start..stop-1."""
    index = np.arange(start, stop)
    bits = np.empty((len(index), n), dtype=bool)
    for j in range(n):
        bits[:, j] = (index >> (n - 1 - j)) & 1
    return bits


class _Plan:
    """What the oracle knows of ``programs`` over ``batch`` before it sees
    a probability.  Everything but ``instances`` is worked out on first
    use and kept.  One object per programs and batch (``_plan``)."""

    def __init__(self, programs: tuple, batch: tuple):
        check_instance_cap(programs, len(batch))
        self.programs, self.batch = programs, batch
        self.instances = sum(len(batch) ** p.n_axes for p in programs)

    @functools.cached_property
    def n_atoms(self) -> int:
        """The number of ground atoms, counted over each atom step's own
        variables only, so that the caps can be checked before
        ``counts`` walks every instance."""
        return len({(instr.atom.pred, tuple(combo[t] for t in instr.terms))
                    for program in self.programs for instr in program.instrs
                    if instr.op == "atom"
                    for combo in _assignments(instr.terms, self.batch)})

    @functools.cached_property
    def counts(self) -> dict:
        """Occurrences of each ground atom (pred, objs), in first-appearance
        order: formulas in KB order, then their instances in lexicographic
        batch order, then atom steps in program order.  An atom that
        ignores a quantified variable occurs once per value of it.
        Callers copy it before handing it out."""
        counts: dict = {}
        for program in self.programs:
            steps = [(instr.atom.pred, instr.terms) for instr in program.instrs
                     if instr.op == "atom"]
            for combo in itertools.product(self.batch, repeat=program.n_axes):
                for pred, terms in steps:
                    key = (pred, tuple(combo[axis] for axis in terms))
                    counts[key] = counts.get(key, 0) + 1
        return counts

    @functools.cached_property
    def satisfied(self) -> np.ndarray:
        """Whether each world satisfies every program, as a boolean mask
        over the 2**n worlds, evaluated a chunk of worlds at a time."""
        column = {atom: j for j, atom in enumerate(self.counts)}
        n, b = len(column), len(self.batch)
        arities = {instr.atom.pred: len(instr.terms)
                   for program in self.programs for instr in program.instrs
                   if instr.op == "atom"}
        # per predicate, the world column of each ground atom over batch
        # positions; atoms no instance reads get column 0
        columns = {pred: np.array([column.get((pred, objs), 0) for objs in
                                   itertools.product(self.batch, repeat=arity)],
                                  dtype=np.intp).reshape((b,) * arity)
                   for pred, arity in arities.items()}
        chunk = max(1, min(WORLD_CHUNK, INSTANCE_CAP // max(self.instances, 1)))
        satisfied = np.ones(2 ** n, dtype=bool)
        for start in range(0, 2 ** n, chunk):
            worlds = _world_bits(start, min(start + chunk, 2 ** n), n)
            truth = {pred: worlds[:, cols] for pred, cols in columns.items()}
            ok = satisfied[start:start + len(worlds)]
            for program in self.programs:
                ok &= classical_values(program, b, truth)[-1].reshape(-1)
        return satisfied


# each entry holds a mask of up to 2**WORLD_ATOM_CAP bytes
_plan = functools.lru_cache(maxsize=8)(_Plan)


def _plan_of(kb: KnowledgeBase, batch: list) -> _Plan:
    return _plan(tuple(compile_formula(f) for f in kb.formulas()),
                 tuple(batch))


@dataclass
class AtomOccurrence:
    """Occurrence count of each ground atom within the grounded KB."""

    counts: dict
    single_occurrence: bool

    def __getitem__(self, key):
        return self.counts[key]


def occurrence_census(kb: KnowledgeBase, batch: list) -> AtomOccurrence:
    counts = dict(_plan_of(kb, batch).counts)
    return AtomOccurrence(counts, all(v <= 1 for v in counts.values()))


def _prob_lookup(probs):
    return (LookupInterpretation(probs) if isinstance(probs, dict)
            else probs).score


def _weighing(kb: KnowledgeBase, probs, batch: list):
    """(plan, p): the KB's plan, refused past ``WORLD_ATOM_CAP`` atoms or
    ``WORLD_INSTANCE_CAP`` world-instance pairs before its census walks
    the instances, and the probability of each of its atoms, refused
    unless a number in [0, 1]."""
    plan = _plan_of(kb, batch)
    n = plan.n_atoms
    if n > WORLD_ATOM_CAP:
        raise WorldCapError(f"{n} ground atoms exceed the {WORLD_ATOM_CAP}-"
                            f"atom world-enumeration cap")
    if 2 ** n * plan.instances > WORLD_INSTANCE_CAP:
        raise WorldCapError(
            f"2**{n} worlds x {plan.instances} ground instances exceed the "
            f"{WORLD_INSTANCE_CAP}-pair world-enumeration cap")
    score = _prob_lookup(probs)
    p = []
    for pred, objs in plan.counts:
        value = float(score(pred, objs))
        if not 0.0 <= value <= 1.0:  # NaN included
            raise SemanticError(
                f"probability {value!r} for ground atom "
                f"{_atom_text(pred, objs, getattr(probs, 'names', None))} "
                f"is not in [0, 1]")
        p.append(value)
    return plan, p


def _blocks(p: list, satisfied: np.ndarray, live_only: bool):
    """(start, weight, satisfied) per block of 2**k <= ``WORLD_CHUNK``
    consecutive worlds, skipping blocks with no satisfying world when
    ``live_only``.  A world's weight is 1.0 times the factor of each atom
    in atom order, p_j where atom j holds and 1 - p_j where it does not:
    a block multiplies its leading atoms' factors once, as Python floats,
    then the rest as a Kronecker product, which makes the same
    multiplications in the same order for every world."""
    n = len(p)
    k = min(n, WORLD_CHUNK.bit_length() - 1)
    for block in range(2 ** (n - k)):
        start = block << k
        ok = satisfied[start:start + 2 ** k]
        if live_only and not ok.any():
            continue
        head = 1.0
        for j, pj in enumerate(p[:n - k]):
            head *= pj if (block >> (n - k - 1 - j)) & 1 else 1.0 - pj
        weight = np.array([head])
        for pj in p[n - k:]:
            # world 2i + bit extends world i; strided writes beat a
            # broadcast (i, 2) product about fourfold
            grown = np.empty(2 * len(weight))
            np.multiply(weight, 1.0 - pj, out=grown[0::2])
            np.multiply(weight, pj, out=grown[1::2])
            weight = grown
        yield start, weight, ok


# a part's mantissas are added as two halves below 2**27 each, per
# exponent; over at most 2**14 values every bin stays below 2**42, and
# 11 adjacent bins weighed by powers of two below 2**53, so float64 adds
# them exactly
_SUM_CHUNK = 2 ** 14
_GROUP = 11
_PLACES = 2.0 ** np.arange(_GROUP)
# 2**-1126 is a unit of every float: the least mantissa bit of the
# smallest subnormal, 2**-1074, sits at 2**(-1073 - 53) after frexp
_ULP_SHIFT = 1073
_ULP_SCALE = 1 << (_ULP_SHIFT + 53)


def _exact_sum(parts) -> float:
    """The correctly rounded sum of every value in ``parts``, an iterable
    of 1-d arrays of finite non-negative floats: the float ``math.fsum``
    returns for them.  Each value is m * 2**(e - 53) with an integer
    mantissa m < 2**53 (``np.frexp``); the mantissas add up per exponent,
    as a high and a low half, through ``np.bincount``, the bins carry
    into one Python integer in units of 2**-1126, and one integer
    division rounds it."""
    total = 0
    for values in parts:
        for start in range(0, len(values), _SUM_CHUNK):
            m, e = np.frexp(values[start:start + _SUM_CHUNK])
            m *= 2.0 ** 53
            hi = np.floor(m * 2.0 ** -26)
            lo = m - hi * 2.0 ** 26
            base = int(e.min())
            e -= base
            size = int(e.max()) + 27
            size += -size % _GROUP
            # bit j of the part's integer, less its lowest exponent
            bits = np.bincount(e, lo, minlength=size)
            bits[26:] += np.bincount(e, hi, minlength=size - 26)
            groups = (bits.reshape(-1, _GROUP) @ _PLACES).tolist()
            part = 0
            for group in reversed(groups):
                part = (part << _GROUP) + int(group)
            total += part << (base + _ULP_SHIFT)
    return total / _ULP_SCALE


def world_table(kb: KnowledgeBase, probs, batch: list):
    """(atoms, rows) where rows yields (bits, satisfied, probability) per
    world, one block of worlds at a time."""
    plan, p = _weighing(kb, probs, batch)
    satisfied = plan.satisfied

    def rows():
        for start, weight, ok in _blocks(p, satisfied, live_only=False):
            bits = _world_bits(start, start + len(weight), len(p))
            yield from zip(map(tuple, bits.astype(np.uint8).tolist()),
                           ok.tolist(), weight.tolist())

    return list(plan.counts), rows()


def semantic_probability(kb: KnowledgeBase, probs, batch: list) -> float:
    """Probability of sampling a world consistent with the grounded KB
    under independent atom probabilities."""
    plan, p = _weighing(kb, probs, batch)
    return _exact_sum(weight.compress(ok) for _, weight, ok
                      in _blocks(p, plan.satisfied, live_only=True))


def semantic_loss(kb: KnowledgeBase, probs, batch: list) -> float:
    """-log of the consistent-world probability (inf when unsatisfiable)."""
    prob = semantic_probability(kb, probs, batch)
    if prob <= 0.0:
        return math.inf
    return -math.log(prob)


def dpfl_valuation(kb: KnowledgeBase, probs, batch: list) -> float:
    """Product-config valuation of the KB, exponentiated back to
    probability space.  Formula weights are ignored: the comparison is
    between probabilities, not losses."""
    appearing = _plan_of(kb, batch).counts
    score = _prob_lookup(probs)
    # grounding slots the KB never reads get a placeholder value
    table = {(pred, objs): score(pred, objs) if (pred, objs) in appearing
             else 0.5
             for pred in sorted(kb.signature)
             for objs in itertools.product(batch, repeat=kb.signature[pred])}
    domain = Domain([f"o{i}" for i in range(max(batch) + 1)])
    g = build_grounding(LookupInterpretation(table), domain, kb.signature,
                        batch)
    log_total = 0.0
    for value in _forward_values(kb.formulas(), g, DPFL_CONFIG):
        log_total += value
    return math.exp(log_total)


@dataclass
class EquivalenceReport:
    exact: float
    dpfl: float
    gap: float
    single_occurrence: bool


def equivalence_report(kb: KnowledgeBase, probs, batch: list) -> EquivalenceReport:
    exact = semantic_probability(kb, probs, batch)
    fuzzy = dpfl_valuation(kb, probs, batch)
    census = occurrence_census(kb, batch)
    return EquivalenceReport(exact, fuzzy, abs(exact - fuzzy),
                             census.single_occurrence)
