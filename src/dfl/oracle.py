"""Exact Semantic Loss by world enumeration, and the equivalence check
against the product-configuration fuzzy valuation.

A world assigns {0,1} to every ground atom that each formula's compiled
program reads over its b**d instances; other atoms marginalize out.
Worlds are a leading array axis: the programs are evaluated classically
(``valuation.classical_values``) over ``WORLD_CHUNK`` worlds at a time,
in ``itertools.product`` order with the first atom as the most
significant bit.  A world's weight multiplies its atoms' probabilities
in atom order, and ``math.fsum`` (exactly rounded) sums the satisfying
weights, so the result depends on neither order nor chunking.  A chunk
holds at most ``INSTANCE_CAP`` world-instance pairs, so memory stays
bounded.  The 20-atom cap (about a million worlds) keeps the oracle
exact rather than sampled, and ``WORLD_INSTANCE_CAP`` bounds its work;
groundings past either cap are rejected before any world is built.

The fuzzy side of the comparison uses product t-norm/t-conorm, the
Reichenbach implication and the log-product aggregator, exponentiated
back into probability space.  When every ground atom occurs at most
once in the grounded knowledge base the two sides agree; repeated atoms
make the fuzzy side drift (the P AND NOT(P AND Q) example).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .logic import KnowledgeBase, compile_formula
from .operators import OperatorConfig
from .valuation import (INSTANCE_CAP, Domain, LookupInterpretation,
                        build_grounding, check_instance_cap, classical_values,
                        formula_pass)

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


def _census(kb: KnowledgeBase, batch: list) -> dict:
    """Occurrences of each ground atom (pred, objs) of the grounded KB, in
    first-appearance order: formulas in KB order, then their instances in
    lexicographic batch order, then atom steps in program order.  An atom
    that ignores a quantified variable occurs once per value of it."""
    programs = [compile_formula(f) for f in kb.formulas()]
    check_instance_cap(programs, len(batch))
    counts: dict = {}
    for program in programs:
        steps = [(instr.atom.pred, instr.terms) for instr in program.instrs
                 if instr.op == "atom"]
        for combo in itertools.product(batch, repeat=program.n_axes):
            for pred, terms in steps:
                key = (pred, tuple(combo[axis] for axis in terms))
                counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass
class AtomOccurrence:
    """Occurrence count of each ground atom within the grounded KB."""

    counts: dict
    single_occurrence: bool

    def __getitem__(self, key):
        return self.counts[key]


def occurrence_census(kb: KnowledgeBase, batch: list) -> AtomOccurrence:
    counts = _census(kb, batch)
    return AtomOccurrence(counts, all(v <= 1 for v in counts.values()))


def _assignments(terms: tuple, batch: list):
    """Every assignment of batch objects to the axes ``terms`` names, as
    a dict from axis to object."""
    axes = sorted(set(terms))
    return (dict(zip(axes, combo))
            for combo in itertools.product(batch, repeat=len(axes)))


def _prob_lookup(probs):
    return (LookupInterpretation(probs) if isinstance(probs, dict)
            else probs).score


def _worlds(kb: KnowledgeBase, probs, batch: list):
    """(atoms, chunks): the appearing atoms, which are the columns of a
    world matrix, and an iterator of (worlds, satisfied, weight) arrays
    per chunk of worlds, worlds being the chunk's boolean (world x atom)
    matrix.  Refuses more than ``WORLD_ATOM_CAP`` atoms, or more than
    ``WORLD_INSTANCE_CAP`` world-instance pairs, before the census walks
    the instances."""
    programs = [compile_formula(f) for f in kb.formulas()]
    check_instance_cap(programs, len(batch))
    instances = sum(len(batch) ** program.n_axes for program in programs)
    n = len({(instr.atom.pred, tuple(combo[t] for t in instr.terms))
             for program in programs for instr in program.instrs
             if instr.op == "atom"  # over the step's own variables only
             for combo in _assignments(instr.terms, batch)})
    if n > WORLD_ATOM_CAP:
        raise WorldCapError(f"{n} ground atoms exceed the {WORLD_ATOM_CAP}-"
                            f"atom world-enumeration cap")
    if 2 ** n * instances > WORLD_INSTANCE_CAP:
        raise WorldCapError(
            f"2**{n} worlds x {instances} ground instances exceed the "
            f"{WORLD_INSTANCE_CAP}-pair world-enumeration cap")
    chunk = max(1, min(WORLD_CHUNK, INSTANCE_CAP // max(instances, 1)))
    atoms = list(_census(kb, batch))
    score = _prob_lookup(probs)
    p = [float(score(pred, objs)) for pred, objs in atoms]
    b, n = len(batch), len(atoms)
    # per predicate, the world-matrix column of each ground atom over
    # batch positions; atoms no instance reads get column 0
    column = {atom: j for j, atom in enumerate(atoms)}
    columns = {pred: np.array([column.get((pred, objs), 0) for objs in
                               itertools.product(batch, repeat=arity)],
                              dtype=np.intp).reshape((b,) * arity)
               for pred, arity in kb.signature.items()}

    def chunks():
        for start in range(0, 2 ** n, chunk):
            index = np.arange(start, min(start + chunk, 2 ** n))
            worlds = np.empty((len(index), n), dtype=bool)
            weight = np.ones(len(index))
            for j, pj in enumerate(p):
                worlds[:, j] = bit = ((index >> (n - 1 - j)) & 1).astype(bool)
                weight *= np.where(bit, pj, 1.0 - pj)
            truth = {pred: worlds[:, cols] for pred, cols in columns.items()}
            satisfied = np.ones(len(index), dtype=bool)
            for program in programs:
                root = classical_values(program, b, truth)[-1]
                satisfied &= root.reshape(-1)
            yield worlds, satisfied, weight

    return atoms, chunks()


def world_table(kb: KnowledgeBase, probs, batch: list):
    """(atoms, rows) where rows yields (bits, satisfied, probability) per
    world, building one chunk of worlds at a time."""
    atoms, chunks = _worlds(kb, probs, batch)
    return atoms, (row for worlds, ok, weight in chunks
                   for row in zip(map(tuple, worlds.astype(np.uint8).tolist()),
                                  ok.tolist(), weight.tolist()))


def semantic_probability(kb: KnowledgeBase, probs, batch: list) -> float:
    """Probability of sampling a world consistent with the grounded KB
    under independent atom probabilities."""
    _, chunks = _worlds(kb, probs, batch)
    return math.fsum(itertools.chain.from_iterable(
        weight[ok].tolist() for _, ok, weight in chunks))


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
    appearing = _census(kb, batch)
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
    for formula, _ in kb.entries:
        log_total += formula_pass(formula, g, DPFL_CONFIG).value
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
