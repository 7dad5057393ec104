"""Exact Semantic Loss by world enumeration, and the equivalence check
against the product-configuration fuzzy valuation.

A world assigns {0,1} to every ground atom that each formula's compiled
program reads over its b**d instances; other atoms marginalize out.
Atoms are numbered in first-appearance order (the *census*) and worlds
in ``itertools.product`` order, the first atom being the most
significant bit of a world's number.

Ground instances that share no atom are independent, so the knowledge
base's probability is the product of the probabilities of the connected
components of the graph that joins each instance to the atoms it reads
(exact weighted model counting, as in Semantic Loss, Xu et al. 2018).
Components are ordered by their first atom in the census and keep
census order within; a connected knowledge base is the one-component
case.

The work splits in two.  A knowledge base's *plan* over a batch does not
depend on the probabilities.  It holds the census, with occurrence
counts, and the components with their atom and instance counts, all
found with array operations over the positions the compiled programs'
gather indices read (the valuation plan's): a union-find over
those positions, with no Python step per ground instance.  It holds,
per component, the satisfying worlds as one boolean mask over its 2**k
worlds, from evaluating the programs classically
(``valuation.classical_values``) with a leading world axis over the
component's instances, ``WORLD_CHUNK`` worlds at a time and at most
``INSTANCE_CAP`` world-instance pairs per chunk, so memory stays
bounded.  A few plans are cached, keyed on the identity of the compiled
programs and on the batch: a knowledge base that gains a formula, or is
parsed again, gets a new plan.  It extends the valuation's plan.

Every call then checks the caps and the probabilities and runs a
*weight pass* per component over blocks of at most ``WORLD_CHUNK``
worlds, skipping blocks with no satisfying world.  A world's weight
multiplies its atoms' factors (p or 1 - p) in atom order; a block's
weights are built as a Kronecker product in that order, which makes the
same multiplications, so they equal a per-world loop's bit for bit.
The satisfying weights are summed exactly (``_exact_sum``): each splits
into an integer mantissa and an exponent, the mantissas add up per
exponent in float64 without rounding, the bins carry over blocks as one
Python integer, and a single integer division rounds the total
correctly.  The result is the float ``math.fsum`` returns, and depends
on neither order nor blocking.  A component of fewer than 64 worlds is
weighed in Python floats and summed with ``math.fsum``, which gives the
same float without numpy's per-call cost.  The probability is 1.0 times
each component's sum, in component order.  On a connected knowledge
base that is the exact sum over all worlds; otherwise it differs from
that sum by a few roundings (under 1e-15 relative on the tested
knowledge bases).

The caps bound the worlds a plan stores, not the atoms: the components'
2**k summed must stay within 2**``WORLD_ATOM_CAP`` (about a million
worlds, which keeps the oracle exact rather than sampled), and their
2**k x instances summed within ``WORLD_INSTANCE_CAP``, which bounds the
work.  A grounding past either cap is rejected before any world is
built.  ``world_table`` lists every world of the knowledge base, so it
applies both caps to the whole of it, as to one component.  A
probability that is not a number in [0, 1] is rejected, naming its atom,
before any world is weighted.

The fuzzy side of the comparison uses product t-norm/t-conorm, the
Reichenbach implication and the log-product aggregator, exponentiated
back into probability space; it needs the formula values only, so it
runs the valuation's forward pass alone, on the plan, over the plan's
atom vector with the checked probabilities at the census positions.
When every ground atom occurs at most once in the
grounded knowledge base the two sides agree; repeated atoms make the
fuzzy side drift (the P AND NOT(P AND Q) example).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .logic import KnowledgeBase, compile_formula
from .operators import OperatorConfig, descriptor
from .valuation import (INSTANCE_CAP, GroundingTable, LookupInterpretation,
                        Plan, SemanticError, _atom_key, _atom_text,
                        _check_batch, _forward_values, _index, _layout,
                        _missing, check_instance_cap, classical_values)

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

DPFL_CONFIG = OperatorConfig(descriptor("tnorm", "product"),
                             descriptor("tconorm", "product"),
                             descriptor("implication", "reichenbach"),
                             descriptor("aggregator", "log_product"))


class WorldCapError(ValueError):
    """Grounded knowledge base exceeds an exact-enumeration cap."""


def _world_bits(start: int, stop: int, n: int) -> np.ndarray:
    """The boolean (world x atom) matrix of worlds start..stop-1."""
    index = np.arange(start, stop)
    bits = np.empty((len(index), n), dtype=bool)
    for j in range(n):
        bits[:, j] = (index >> (n - 1 - j)) & 1
    return bits


def _restrict(array: np.ndarray, grid: tuple) -> np.ndarray:
    """``array``, with a leading formula axis of 1 and then one axis of 1
    or b batch positions per quantified variable, at the positions
    ``grid`` lists per variable."""
    zero = np.zeros(1, dtype=np.intp)
    return array[np.ix_(zero, *(positions if size > 1 else zero for size,
                                positions in zip(array.shape[1:], grid)))]


def _union(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's component over the edges (u, v), named by its smallest
    node: larger roots are hooked under smaller ones and every node is
    pointed at its root, until no edge joins two roots."""
    while True:
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        # a root that several edges hook takes any one of them; the rest
        # join it on a later round
        lu, lv = lu[apart], lv[apart]
        label[np.maximum(lu, lv)] = np.minimum(lu, lv)


class _Plan(Plan):
    """What the oracle knows of ``programs`` over ``batch`` before it sees
    a probability, starting from their valuation plan under
    ``DPFL_CONFIG`` on the atom vector of every predicate they read,
    which refuses the programs the valuation engine refuses.  What is
    not a valuation plan's is worked out on first use and kept, but
    ``instances``.  One object per programs and batch (``_plan``)."""

    def __init__(self, programs: tuple, batch: tuple):
        _check_batch(batch)
        check_instance_cap(programs, len(batch))
        arities = {instr.atom.pred: len(instr.terms)
                   for program in programs for instr in program.instrs
                   if instr.op == "atom"}
        super().__init__(programs, _layout(len(batch), tuple(sorted(
            arities.items()))))
        for _, stacked, index in self.shapes:
            if isinstance(index, tuple):  # a predicate read at two arities
                instr = stacked[index[1]].instrs[index[0]]
                raise _missing(instr.atom.pred, [batch[0]] * len(instr.terms))
        self.batch = batch
        self.instances = sum(len(batch) ** p.n_axes for p in programs)

    @functools.cached_property
    def gathers(self) -> list:
        """Per program, (step, positions) of each atom step in program
        order: where in ``layout``'s vector the step reads each instance,
        on a leading formula axis of 1 and one axis per variable, of size
        1 where the step does not depend on it: the program's row of its
        stack's gather index."""
        gathers: list = [None] * len(self.programs)
        for members, _, index in self.shapes:
            for f, k in enumerate(members):
                gathers[k] = [(i, gather[f:f + 1])
                              for i, (gather, _) in index.items()]
        return gathers

    @functools.cached_property
    def _census(self) -> tuple:
        """(atoms, counts): the vector position of every ground atom the
        programs read, in first-appearance order, and its occurrences.
        Reads are numbered by formula, then instance in lexicographic
        batch order, then step; a step first reads each of its atoms
        where every variable it ignores is at position 0, and an atom's
        least number places it."""
        b, size = len(self.batch), self.layout.size
        first = np.full(size, np.iinfo(np.int64).max)
        counts = np.zeros(size, dtype=np.int64)
        base = 0
        for program, steps in zip(self.programs, self.gathers):
            n = program.n_axes
            for j, (_, gather) in enumerate(steps):
                number = sum(ix * b ** (n - 1 - k) for k, ix
                             in enumerate(_index(b, n, tuple(range(n))))
                             if gather.shape[k + 1] > 1)
                # each entry is one atom, read once per value of the
                # variables the step ignores
                at = gather.ravel()
                first[at] = np.minimum(first[at], (base + j + len(steps) * (
                    np.broadcast_to(number, gather.shape[1:]))).ravel())
                counts[at] += b ** n // gather.size
            base += b ** n * len(steps)
        atoms = np.flatnonzero(counts)
        # sorted in Python: numpy's sort kernels would add their code to
        # the process's memory for a one-off sort of the atoms
        atoms = atoms[sorted(range(len(atoms)),
                             key=first[atoms].tolist().__getitem__)]
        return atoms, counts[atoms]

    @functools.cached_property
    def counts(self) -> dict:
        """Occurrences of each ground atom (pred, objs), in first-appearance
        order: formulas in KB order, then their instances in lexicographic
        batch order, then atom steps in program order.  An atom that
        ignores a quantified variable occurs once per value of it.
        Callers copy it before handing it out."""
        atoms, counts = self._census
        return {_atom_key(self.layout, self.batch, k): count for k, count
                in zip(atoms.tolist(), counts.tolist())}

    @property
    def n_atoms(self) -> int:
        return len(self._census[0])

    @functools.cached_property
    def _components(self) -> tuple:
        """(parts, where, instances): the atoms of each connected component
        of the atom-instance graph, as positions in the census; the
        component of each vector position (-1 where no program reads);
        and the ground instances of each component.  Every atom an
        instance reads is joined to the instance's first; components are
        ordered by their first atom in the census, and keep census order
        within."""
        atoms = self._census[0]
        label = np.arange(self.layout.size)
        for steps in self.gathers:  # one atom step's edges at a time
            for _, gather in steps[1:]:
                u, v = np.broadcast_arrays(steps[0][1], gather)
                label = _union(label, u.ravel(), v.ravel())
        rank: dict = {}
        part = [rank.setdefault(root, len(rank))
                for root in label[atoms].tolist()]
        parts: list = [[] for _ in rank]
        for j, c in enumerate(part):
            parts[c].append(j)
        where = np.full(self.layout.size, -1)
        where[atoms] = part
        b, instances = len(self.batch), np.zeros(len(parts), dtype=np.int64)
        for program, steps in zip(self.programs, self.gathers):
            head = steps[0][1]
            instances += (np.bincount(where[head.ravel()], minlength=len(parts))
                          * (b ** program.n_axes // head.size))
        return parts, where, instances.tolist()

    @functools.cached_property
    def masks(self) -> list:
        """Per component, whether each of its 2**k worlds satisfies every
        ground instance in it, as a boolean mask.  Each program that has
        instances in the component is evaluated (``classical_values``)
        with a leading world axis, over the grid of the batch positions
        that those instances take per variable, and holds where every one
        of them in the grid does; the grid's other instances read only
        other components' atoms, whose columns are arbitrary.  Worlds go
        ``WORLD_CHUNK`` at a time, fewer when the grids hold more than
        ``INSTANCE_CAP`` world-instance pairs per chunk."""
        parts, where, _ = self._components
        atoms, b = self._census[0], len(self.batch)
        column = np.zeros(self.layout.size, dtype=np.intp)
        for part in parts:
            column[atoms[part]] = np.arange(len(part))
        # per program, the entries of its first atom step that each
        # component's instances read (None: all of them)
        groups = []
        for steps in self.gathers:
            part = where[steps[0][1].ravel()]
            members: dict = {int(part[0]): None}
            if not (part == part[0]).all():
                members = {}
                for e, c in enumerate(part.tolist()):
                    members.setdefault(c, []).append(e)
            groups.append(members)
        everywhere = np.arange(b)
        masks = []
        for c, part in enumerate(parts):
            runs, cells = [], 0
            for program, steps, members in zip(self.programs, self.gathers,
                                               groups):
                if c not in members:
                    continue
                head = steps[0][1]
                grid = (everywhere,) * program.n_axes
                if members[c] is not None:
                    at = np.unravel_index(members[c], head.shape)
                    grid = tuple(
                        np.flatnonzero(np.bincount(at[k + 1], minlength=b))
                        if head.shape[k + 1] > 1 else everywhere
                        for k in range(program.n_axes))
                cells += math.prod(map(len, grid))
                index = {i: ((Ellipsis, column[_restrict(gather, grid)]),)
                         for i, gather in steps}
                inside = where[_restrict(head, grid)] == c
                runs.append((program, index,
                             None if inside.all() else inside[None]))
            worlds = 2 ** len(part)
            chunk = max(1, min(WORLD_CHUNK, INSTANCE_CAP // max(cells, 1)))
            mask = np.ones(worlds, dtype=bool)
            for start in range(0, worlds, chunk):
                truth = _world_bits(start, min(start + chunk, worlds),
                                    len(part))
                ok = mask[start:start + len(truth)]
                for program, index, inside in runs:
                    values = classical_values(program, truth, index)
                    if inside is None:
                        ok &= values[-1].reshape(-1)
                    else:
                        fails = ~values[program.body] & inside
                        ok &= ~fails.any(axis=tuple(range(1, fails.ndim)))
            masks.append(mask)
        return masks

    @functools.cached_property
    def holds(self) -> list:
        """Each mask of fewer than ``_SMALL`` worlds as a list, else None."""
        return [mask.tolist() if len(mask) < _SMALL else None
                for mask in self.masks]


# each entry holds masks of up to 2**WORLD_ATOM_CAP bytes in all
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


def _check_caps(atoms: list, instances: list):
    """Refuse, before any world is built, independent parts of ``atoms``
    ground atoms and ``instances`` ground instances each whose worlds sum
    past 2**``WORLD_ATOM_CAP``, or whose world-instance pairs sum past
    ``WORLD_INSTANCE_CAP``."""
    worlds = sum(2 ** k for k in atoms)
    if worlds > 2 ** WORLD_ATOM_CAP:
        if len(atoms) == 1:
            raise WorldCapError(f"{atoms[0]} ground atoms exceed the "
                                f"{WORLD_ATOM_CAP}-atom world-enumeration cap")
        raise WorldCapError(
            f"{len(atoms)} independent components of {sum(atoms)} ground "
            f"atoms have {worlds} worlds, past the 2**{WORLD_ATOM_CAP}-world "
            f"enumeration cap")
    pairs = sum(2 ** k * m for k, m in zip(atoms, instances))
    if pairs > WORLD_INSTANCE_CAP:
        if len(atoms) == 1:
            raise WorldCapError(
                f"2**{atoms[0]} worlds x {instances[0]} ground instances "
                f"exceed the {WORLD_INSTANCE_CAP}-pair world-enumeration cap")
        raise WorldCapError(
            f"{pairs} world-instance pairs over {len(atoms)} independent "
            f"components exceed the {WORLD_INSTANCE_CAP}-pair "
            f"world-enumeration cap")


def _weighing(plan: _Plan, probs) -> list:
    """The probability of each atom of the census, refused unless a
    number in [0, 1]."""
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
    return p


def _blocks(p: list, live: np.ndarray | None = None):
    """(start, weight) per block of 2**k <= ``WORLD_CHUNK`` consecutive
    worlds, skipping blocks in which the mask ``live`` holds nowhere.  A
    world's weight is 1.0 times the factor of each atom in atom order,
    p_j where atom j holds and 1 - p_j where it does not: a block
    multiplies its leading atoms' factors once, as Python floats, then
    the rest as a Kronecker product, which makes the same multiplications
    in the same order for every world."""
    n = len(p)
    k = min(n, WORLD_CHUNK.bit_length() - 1)
    for block in range(2 ** (n - k)):
        start = block << k
        if live is not None and not live[start:start + 2 ** k].any():
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
        yield start, weight


# a component of fewer worlds is weighed in Python floats and summed with
# math.fsum: numpy's per-call cost would exceed the work
_SMALL = 64


def _satisfying_sum(p: list, mask: np.ndarray, holds: list | None) -> float:
    """The exact sum of the weights of the worlds ``mask`` marks, the
    worlds of atoms with probabilities ``p``; ``holds`` is the mask as a
    list when it is small."""
    if holds is None:
        return _exact_sum(weight.compress(mask[start:start + len(weight)])
                          for start, weight in _blocks(p, mask))
    weights = [1.0]
    for pj in p:  # the multiplications ``_blocks`` makes
        qj = 1.0 - pj
        weights = [x for w in weights for x in (w * qj, w * pj)]
    return math.fsum(itertools.compress(weights, holds))


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
    world, one block of worlds at a time.  It lists every world of the
    knowledge base, so the caps apply to the whole of it."""
    plan = _plan_of(kb, batch)
    _check_caps([plan.n_atoms], [plan.instances])
    p = _weighing(plan, probs)
    masks = list(zip(plan._components[0], plan.masks))

    def rows():
        for start, weight in _blocks(p):
            bits = _world_bits(start, start + len(weight), len(p))
            ok = np.ones(len(weight), dtype=bool)
            for part, mask in masks:
                ok &= mask[bits[:, part] @ (1 << np.arange(len(part))[::-1])]
            yield from zip(map(tuple, bits.astype(np.uint8).tolist()),
                           ok.tolist(), weight.tolist())

    return list(plan.counts), rows()


def semantic_probability(kb: KnowledgeBase, probs, batch: list) -> float:
    """Probability of sampling a world consistent with the grounded KB
    under independent atom probabilities: the product, in component
    order, of each component's exact sum of satisfying weights."""
    plan = _plan_of(kb, batch)
    parts, _, instances = plan._components
    _check_caps(list(map(len, parts)), instances)
    p = _weighing(plan, probs)
    prob = 1.0
    for part, mask, holds in zip(parts, plan.masks, plan.holds):
        prob *= _satisfying_sum([p[j] for j in part], mask, holds)
    return prob


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
    plan = _plan_of(kb, batch)
    raw = np.full(plan.layout.size, 0.5)  # slots the KB never reads
    raw[plan._census[0]] = _weighing(plan, probs)
    g = GroundingTable(batch, plan.layout, None)._score(raw)
    log_total = 0.0
    for value in _forward_values(kb.formulas(), g, DPFL_CONFIG, plan=plan):
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
