"""Independent references for the benchmark's output checks.

Nothing here calls dfl's operators, valuation or oracle: the digit
knowledge-base loss is re-derived in numpy from the operator
definitions, and the exact oracle probability from a world enumeration
over numpy arrays.  Both only read dfl's parsed formula trees.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dfl.logic import And, Atom, ForAll, Implies, Not, Or

# name -> (dfl operator-config text, t-norm, implication, aggregator)
DIGIT_CONFIGS = {
    "smooth": ("tnorm=product tconorm=product implication=reichenbach "
               "aggregator=log_product", "product", "reichenbach", "log_sum"),
    "piecewise": ("tnorm=godel tconorm=godel implication=kleene_dienes "
                  "aggregator=min", "min", "kleene_dienes", "min"),
    "yager2": ("tnorm=yager:p=2 tconorm=yager:p=2 implication=reichenbach "
               "aggregator=log_product", "yager2", "reichenbach", "log_sum"),
}


def _tnorm(name, a, b):
    if name == "product":
        return a * b
    if name == "min":
        return np.minimum(a, b)
    s = (1.0 - a) ** 2 + (1.0 - b) ** 2
    return np.where(s <= 1.0, 1.0 - np.sqrt(np.minimum(s, 1.0)), 0.0)


def _implication(name, a, c):
    if name == "reichenbach":
        return 1.0 - a + a * c
    return np.maximum(1.0 - a, c)


def digit_kb_loss(P, S, config: str) -> float:
    """Loss -sum of valuations of the 21-formula digit knowledge base (unit
    weights) over all b*b instances; P[x, d] is digit d of object x and
    S[x, y] is same(x, y)."""
    _, tnorm, implication, aggregator = DIGIT_CONFIGS[config]
    Px, Py, Sxy = P[:, None, :], P[None, :, :], S[:, :, None]
    shape1 = _implication(implication, _tnorm(tnorm, Px, Py), Sxy)
    shape2 = _implication(implication, _tnorm(tnorm, Px, Sxy), Py)
    shape3 = _implication(implication, S, S.T)[:, :, None]
    values = np.concatenate([shape1, shape2, shape3], axis=2)
    if aggregator == "min":
        per_formula = values.min(axis=(0, 1))
    else:
        per_formula = np.log(values).sum(axis=(0, 1))
    return -math.fsum(per_formula)


def _prenex(formula):
    vars_ = []
    while isinstance(formula, ForAll):
        vars_.extend(formula.vars)
        formula = formula.body
    return vars_, formula


def ground_bodies(kb, batch):
    """Every (body, assignment) instance of the knowledge base."""
    for formula in kb.formulas():
        vars_, body = _prenex(formula)
        for combo in itertools.product(batch, repeat=len(vars_)):
            yield body, dict(zip(vars_, combo))


def atom_occurrences(kb, batch) -> dict:
    """Occurrence count of each ground atom in the grounded knowledge base."""
    counts: dict = {}

    def walk(node, mu):
        if isinstance(node, Atom):
            key = (node.pred, tuple(mu[a] for a in node.args))
            counts[key] = counts.get(key, 0) + 1
        elif isinstance(node, Not):
            walk(node.child, mu)
        else:
            walk(node.lhs, mu)
            walk(node.rhs, mu)

    for body, mu in ground_bodies(kb, batch):
        walk(body, mu)
    return counts


def exact_probability(kb, probs: dict, batch) -> float:
    """P(grounded KB holds) with independent atoms, by enumerating all
    worlds of the appearing atoms as rows of a boolean matrix."""
    atoms = sorted(atom_occurrences(kb, batch))
    column = {atom: i for i, atom in enumerate(atoms)}
    n = len(atoms)
    worlds = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)

    def truth(node, mu):
        if isinstance(node, Atom):
            return worlds[:, column[(node.pred, tuple(mu[a] for a in node.args))]]
        if isinstance(node, Not):
            return ~truth(node.child, mu)
        lhs, rhs = truth(node.lhs, mu), truth(node.rhs, mu)
        if isinstance(node, And):
            return lhs & rhs
        if isinstance(node, Or):
            return lhs | rhs
        if isinstance(node, Implies):
            return ~lhs | rhs
        raise ValueError(f"unexpected node {node!r}")

    holds = np.ones(2 ** n, dtype=bool)
    for body, mu in ground_bodies(kb, batch):
        holds &= truth(body, mu)
    p = np.array([probs[atom] for atom in atoms])
    weights = np.where(worlds, p, 1.0 - p).prod(axis=1)
    return math.fsum(weights[holds])
