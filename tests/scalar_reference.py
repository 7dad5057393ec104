"""The recursive scalar valuation engine, kept as the reference that the
array engine in ``dfl.valuation`` is tested against.

It walks the formula tree once per ground instance and records every
connective and aggregation as its own node on the grounding's tape,
calling the scalar reference kernels (``scalar_kernels``) that ``ops``
selects.  With ``instances=[]`` it appends one InstanceRecord per
instance of a quantifier block whose body is an implication; the
antecedent and consequent are pass-through slots, so their adjoints are
exactly the per-instance derivatives even when a ground atom is shared
between slots.

It also keeps the oracle's per-world enumeration, which the array
enumeration in ``dfl.oracle`` is tested against: one dict per world and
one recursive ``classical_truth`` call per world and ground instance,
over the whole knowledge base or over each independent component
(``factored_probability``); and the oracle's fuzzy side valuated one
formula at a time, which the stacked ``dfl.oracle.dpfl_valuation`` is
tested against.
``classical_truth`` is also the per-instance reference for the labels
that ``dfl.analysis.gradient_quality`` derives over compiled programs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from dfl.autodiff import Node
from dfl.logic import And, Atom, ForAll, Implies, Not, Or
from dfl.oracle import DPFL_CONFIG, WORLD_ATOM_CAP, WorldCapError
from dfl.valuation import (Domain, LookupInterpretation, SemanticError,
                           _valuate, build_grounding)
from scalar_kernels import (aggregate_kernel, implication_kernel, tconorm_kernel,
                            tnorm_kernel)


@dataclass
class InstanceRecord:
    """One quantifier instance of a formula whose body is an implication."""

    assignment: dict
    antecedent: Node
    consequent: Node
    antecedent_formula: object
    consequent_formula: object


def valuate(f, g, ops, mu=None, instances=None) -> Node:
    """Fuzzy truth value of ``f`` as a node on ``g.tape``."""
    return _eval(f, g, ops, dict(mu or {}), instances, at_root=True)


def _implication(ops, a, c):
    return implication_kernel(ops.implication.name, a, c,
                              **dict(ops.implication.params))


def _collapse_forall(f: ForAll):
    vars_ = []
    node = f
    while isinstance(node, ForAll):
        vars_.extend(node.vars)
        node = node.body
    return tuple(vars_), node


def classical_truth(formula, assignment: dict, atom_fn) -> bool:
    """Boolean truth of a quantifier-free subformula under data labels."""
    if isinstance(formula, Atom):
        objs = tuple(assignment[a] for a in formula.args)
        return bool(atom_fn(formula.pred, objs))
    if isinstance(formula, Not):
        return not classical_truth(formula.child, assignment, atom_fn)
    if isinstance(formula, And):
        return (classical_truth(formula.lhs, assignment, atom_fn)
                and classical_truth(formula.rhs, assignment, atom_fn))
    if isinstance(formula, Or):
        return (classical_truth(formula.lhs, assignment, atom_fn)
                or classical_truth(formula.rhs, assignment, atom_fn))
    if isinstance(formula, Implies):
        return (not classical_truth(formula.lhs, assignment, atom_fn)
                or classical_truth(formula.rhs, assignment, atom_fn))
    raise ValueError(f"not a quantifier-free formula: {formula!r}")


def _eval(node, g, ops, mu, instances, at_root=False):
    tape = g.tape
    if isinstance(node, Atom):
        try:
            objs = tuple(mu[a] for a in node.args)
        except KeyError as exc:
            raise SemanticError(f"unbound variable {exc} in {node}") from None
        return g.node(node.pred, objs)
    if isinstance(node, Not):
        child = _eval(node.child, g, ops, mu, instances)
        return tape.record("N_C", [child], 1.0 - child.value, [-1.0])
    if isinstance(node, And):
        lhs = _eval(node.lhs, g, ops, mu, instances)
        rhs = _eval(node.rhs, g, ops, mu, instances)
        v, partials = tnorm_kernel(ops.tnorm.name, lhs.value, rhs.value,
                                   ops.tnorm.p)
        return tape.record(f"T_{ops.tnorm.name}", [lhs, rhs], v, partials)
    if isinstance(node, Or):
        lhs = _eval(node.lhs, g, ops, mu, instances)
        rhs = _eval(node.rhs, g, ops, mu, instances)
        v, partials = tconorm_kernel(ops.tconorm.name, lhs.value, rhs.value,
                                     ops.tconorm.p)
        return tape.record(f"S_{ops.tconorm.name}", [lhs, rhs], v, partials)
    if isinstance(node, Implies):
        lhs = _eval(node.lhs, g, ops, mu, instances)
        rhs = _eval(node.rhs, g, ops, mu, instances)
        v, partials = _implication(ops, lhs.value, rhs.value)
        return tape.record(f"I_{ops.implication.name}", [lhs, rhs], v,
                           partials)
    if isinstance(node, ForAll):
        if ops.aggregator.name == "log_product" and not at_root:
            raise SemanticError(
                "log_product produces a log-space truth value; it may only "
                "appear as the outermost quantifier of a prenex formula")
        vars_, body = _collapse_forall(node)
        return _eval_quantifier(vars_, body, g, ops, mu, instances)
    raise SemanticError(f"cannot valuate node {node!r}")


def _eval_body(body, g, ops, mu, instances):
    if instances is not None and isinstance(body, Implies):
        ante = _eval(body.lhs, g, ops, mu, instances)
        cons = _eval(body.rhs, g, ops, mu, instances)
        ante_slot = g.tape.record("ante", [ante], ante.value, [1.0])
        cons_slot = g.tape.record("cons", [cons], cons.value, [1.0])
        v, partials = _implication(ops, ante_slot.value, cons_slot.value)
        out = g.tape.record(f"I_{ops.implication.name}", [ante_slot, cons_slot],
                            v, partials)
        instances.append(InstanceRecord(dict(mu), ante_slot, cons_slot,
                                        body.lhs, body.rhs))
        return out
    return _eval(body, g, ops, mu, instances)


def _eval_quantifier(vars_, body, g, ops, mu, instances):
    tape = g.tape
    batch = g.batch
    if ops.aggregator.name == "log_product":
        values = []
        for combo in itertools.product(batch, repeat=len(vars_)):
            mu.update(zip(vars_, combo))
            values.append(_eval_body(body, g, ops, mu, instances))
        for var in vars_:
            mu.pop(var, None)
        v, partials = aggregate_kernel(ops.aggregator.name,
                                       [n.value for n in values],
                                       ops.aggregator.p)
        return tape.record("A_log_product", values, v, partials)

    def agg_over(remaining):
        if not remaining:
            return _eval_body(body, g, ops, mu, instances)
        var = remaining[0]
        children = []
        for idx in batch:
            mu[var] = idx
            children.append(agg_over(remaining[1:]))
        del mu[var]
        v, partials = aggregate_kernel(ops.aggregator.name,
                                       [n.value for n in children],
                                       ops.aggregator.p)
        return tape.record(f"A_{ops.aggregator.name}", children, v, partials)

    return agg_over(list(vars_))


# ---------------------------------------------------------------------------
# the oracle, one world at a time

def _collapse(formula: ForAll):
    vars_ = []
    node = formula
    while isinstance(node, ForAll):
        vars_.extend(node.vars)
        node = node.body
    return tuple(vars_), node


def ground_instances(kb, batch: list):
    """All (body, assignment) instances of every formula, in knowledge-base
    order then lexicographic object order."""
    out = []
    for formula, _ in kb.entries:
        vars_, body = _collapse(formula)
        for combo in itertools.product(batch, repeat=len(vars_)):
            out.append((body, dict(zip(vars_, combo))))
    return out


def _read_atoms(node, mu) -> list:
    """The ground atoms one instance of a body reads, in step order."""
    if isinstance(node, Atom):
        return [(node.pred, tuple(mu[a] for a in node.args))]
    if isinstance(node, Not):
        return _read_atoms(node.child, mu)
    return _read_atoms(node.lhs, mu) + _read_atoms(node.rhs, mu)


def _appearing_atoms(kb, batch: list):
    """Ground atoms of the grounded KB in first-appearance order, plus
    per-atom occurrence counts."""
    order: list = []
    counts: dict = {}

    def walk(node, mu):
        if isinstance(node, Atom):
            key = (node.pred, tuple(mu[a] for a in node.args))
            if key not in counts:
                counts[key] = 0
                order.append(key)
            counts[key] += 1
        elif isinstance(node, Not):
            walk(node.child, mu)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.lhs, mu)
            walk(node.rhs, mu)

    for body, mu in ground_instances(kb, batch):
        walk(body, mu)
    return order, counts


def occurrence_counts(kb, batch: list) -> dict:
    _, counts = _appearing_atoms(kb, batch)
    return counts


def _prob_lookup(probs):
    if isinstance(probs, dict):
        return LookupInterpretation(probs).score
    return probs.score


def _worlds(atoms: list, p: list, instances: list):
    """(bits, satisfied, weight) of every world over ``atoms``, whose
    probabilities are ``p``: one dict per world and one
    ``classical_truth`` call per instance."""
    for bits in itertools.product((0, 1), repeat=len(atoms)):
        world = dict(zip(atoms, bits))
        atom_fn = lambda pred, objs: world[(pred, objs)]
        satisfied = all(classical_truth(body, mu, atom_fn)
                        for body, mu in instances)
        weight = 1.0
        for pi, bit in zip(p, bits):
            weight *= pi if bit else (1.0 - pi)
        yield bits, satisfied, weight


def _enumerate_worlds(kb, probs, batch: list):
    atoms, _ = _appearing_atoms(kb, batch)
    if len(atoms) > WORLD_ATOM_CAP:
        raise WorldCapError(
            f"{len(atoms)} ground atoms exceed the {WORLD_ATOM_CAP}-atom "
            f"world-enumeration cap")
    score = _prob_lookup(probs)
    p = [float(score(pred, objs)) for pred, objs in atoms]
    return _worlds(atoms, p, ground_instances(kb, batch))


def world_table(kb, probs, batch: list):
    """(atoms, rows) where each row is (bits, satisfied, probability)."""
    atoms, _ = _appearing_atoms(kb, batch)
    return atoms, list(_enumerate_worlds(kb, probs, batch))


def semantic_probability(kb, probs, batch: list) -> float:
    """Probability of sampling a world consistent with the grounded KB
    under independent atom probabilities."""
    return math.fsum(weight for _, ok, weight
                     in _enumerate_worlds(kb, probs, batch) if ok)


def components(kb, batch: list) -> list:
    """(atoms, instances) of each connected component of the graph that
    joins every ground instance to the atoms it reads, found by a
    union-find over the instances one at a time.  Components are ordered
    by their first atom in first-appearance order, and list their atoms
    in that order."""
    atoms, _ = _appearing_atoms(kb, batch)
    parent = {atom: atom for atom in atoms}

    def find(atom):
        while parent[atom] != atom:
            atom = parent[atom]
        return atom

    instances = [(body, mu, _read_atoms(body, mu))
                 for body, mu in ground_instances(kb, batch)]
    for _, _, read in instances:
        for atom in read[1:]:
            root = find(atom)
            if root != find(read[0]):
                parent[root] = find(read[0])
    parts: dict = {}  # root -> (atoms, instances), in first-atom order
    for atom in atoms:
        parts.setdefault(find(atom), ([], []))[0].append(atom)
    for body, mu, read in instances:
        parts[find(read[0])][1].append((body, mu))
    return list(parts.values())


def factored_probability(kb, probs, batch: list) -> float:
    """1.0 times, in component order, each component's ``math.fsum`` of
    the weights of its satisfying worlds, enumerated one at a time."""
    score = _prob_lookup(probs)
    prob = 1.0
    for atoms, instances in components(kb, batch):
        p = [float(score(pred, objs)) for pred, objs in atoms]
        prob *= math.fsum(weight for _, ok, weight
                          in _worlds(atoms, p, instances) if ok)
    return prob


def dpfl_valuation(kb, probs, batch: list) -> float:
    """Product-config valuation of the KB, a ``_valuate`` of each formula
    alone, exponentiated back to probability space."""
    appearing = occurrence_counts(kb, batch)
    score = _prob_lookup(probs)
    table = {(pred, objs): score(pred, objs) if (pred, objs) in appearing
             else 0.5
             for pred in sorted(kb.signature)
             for objs in itertools.product(batch, repeat=kb.signature[pred])}
    domain = Domain([f"o{i}" for i in range(max(batch) + 1)])
    g = build_grounding(LookupInterpretation(table), domain, kb.signature,
                        batch)
    log_total = 0.0
    for formula, _ in kb.entries:
        log_total += _valuate([formula], g, DPFL_CONFIG, None)[0]
    return math.exp(log_total)
