"""Valuation engine: grounding construction, array valuation of compiled
formulas with its backward pass, and the weighted knowledge-base loss.

Each formula is compiled once (``logic.compile_formula``, cached per
formula object) into a flat postorder program.  Every quantified
variable gets its own array axis, so over a batch of b objects a formula
with d quantified variables is valuated as numpy arrays of b**d ground
instances, with one array kernel call per connective and per quantified
variable.  Instances are enumerated in lexicographic batch order.
Nested quantifier variables aggregate innermost-first, i.e.
``forall x, y`` becomes A_x(A_y(...)).  The log-product aggregator is
the one exception: its output lives in (-inf, 0] and may not feed
another connective, so the whole quantifier block collapses into a
single flat aggregation over all b**d instances (the two shapes agree
exactly because log turns the nested product into a sum).

The backward pass runs over the same program in reverse, summing each
adjoint over the axes its operand was broadcast along, and yields
d(valuation)/d(atom) for every ground atom.  The formula's valuation is
then recorded on the grounding's tape as one fused node whose parents
are the atom leaves, so ``Tape.backward`` from the loss reaches every
atom.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, Tape
from .logic import Instr, KnowledgeBase, ParseError, Program, compile_formula
from .operators import OperatorConfig

__all__ = [
    "SemanticError", "Domain", "LookupInterpretation", "GroundingTable",
    "InstanceCapError", "FormulaPass", "formula_pass", "check_instance_cap",
    "classical_values", "build_grounding", "valuate",
    "dfl_loss", "atom_gradients", "parse_grounding", "CLAMP_EPS",
    "INSTANCE_CAP",
]

CLAMP_EPS = 1e-7
# ground instances (b**d for d quantified variables over b objects) summed
# over the formulas of one valuation; each costs a few float64 per step
INSTANCE_CAP = 1_000_000


class SemanticError(ValueError):
    """Well-formed input that cannot be valuated (unresolvable atom,
    log-product output consumed by a connective, scorer out of range)."""


class InstanceCapError(ValueError):
    """A valuation would build more ground instances than INSTANCE_CAP."""


def check_instance_cap(programs, b: int):
    """Refuse ``programs`` over ``b`` objects, before any array is built,
    when their ground instances sum past ``INSTANCE_CAP``."""
    total = sum(b ** program.n_axes for program in programs)
    if total > INSTANCE_CAP:
        raise InstanceCapError(f"{total} ground instances exceed the "
                               f"{INSTANCE_CAP}-instance cap")


@dataclass
class Domain:
    """Finite support of the object distribution.

    ``points`` optionally carries one embedding vector per object (any
    sequence indexed like ``names``); lookup-table interpretations leave
    it as None.
    """

    names: list
    points: object = None

    def __len__(self):
        return len(self.names)


class LookupInterpretation:
    """Interpretation backed by a fixed table of atom probabilities;
    ``names`` optionally names the objects in error messages."""

    def __init__(self, table: dict, names: list | None = None):
        # keys: (pred, tuple of object indices) -> probability
        self.table = dict(table)
        self.names = names

    def score(self, pred: str, objs: tuple) -> float:
        try:
            return self.table[(pred, objs)]
        except KeyError:
            atom = f"{pred}{objs}"
            if self.names is not None and all(0 <= i < len(self.names)
                                              for i in objs):
                atom = f"{pred}({','.join(self.names[i] for i in objs)})"
            raise SemanticError(
                f"no probability for ground atom {atom}") from None


@dataclass
class GroundingTable:
    """Tape-backed truth values for every ground atom over a batch.

    ``tensor(pred)`` views a predicate's atoms as arrays over batch
    positions.  ``passes`` keeps the latest forward/backward pass of each
    formula valuated on this grounding (see ``formula_pass``).
    """

    nodes: dict
    batch: list
    tape: Tape
    raw: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict, init=False, repr=False)
    _tensors: dict = field(default_factory=dict, init=False, repr=False)
    _positions: dict | None = field(default=None, init=False, repr=False)

    def __len__(self):
        return len(self.nodes)

    def node(self, pred: str, objs: tuple) -> Node:
        try:
            return self.nodes[(pred, tuple(objs))]
        except KeyError:
            raise _missing(pred, objs) from None

    def atoms(self):
        return list(self.nodes)

    def tensor(self, pred: str):
        """(values, tape indices) of ``pred``'s atoms as arrays with one
        axis of batch positions per argument, or None when the grounding
        has no atom of ``pred``."""
        if not self._tensors:
            arities = {p: len(objs) for p, objs in self.nodes}
            for p, arity in arities.items():
                self._tensors[p] = self._tensor(p, arity)
        return self._tensors.get(pred)

    def _tensor(self, pred: str, arity: int):
        shape = (len(self.batch),) * arity
        try:
            nodes = [self.nodes[(pred, objs)] for objs in
                     itertools.product(self.batch, repeat=arity)]
        except KeyError:
            return None  # the grounding lacks some atom of pred
        return (np.array([n.value for n in nodes]).reshape(shape),
                np.array([n.idx for n in nodes]).reshape(shape))

    def position(self, obj: int):
        """Batch position of object ``obj``, or None outside the batch."""
        if self._positions is None:
            self._positions = {o: i for i, o in enumerate(self.batch)}
        return self._positions.get(obj)


def _missing(pred, objs) -> SemanticError:
    return SemanticError(f"ground atom {pred}{tuple(objs)} missing from "
                         f"grounding (signature mismatch?)")


def build_grounding(interp, domain: Domain, signature: dict, batch: list,
                    tape: Tape | None = None,
                    clamp_eps: float = CLAMP_EPS) -> GroundingTable:
    """Score every ground atom over the batch and record it as a tape leaf.

    Raw scores may stray 1e-6 outside [0, 1] (model arithmetic); anything
    worse is an error.  Stored values are clamped to [eps, 1-eps], which
    keeps log-product and Goguen kernels finite.
    """
    if not batch:
        raise SemanticError("batch must be non-empty")
    if len(set(batch)) != len(batch):
        raise SemanticError(f"batch objects must be distinct, got {batch}")
    tape = tape if tape is not None else Tape()
    nodes = {}
    raw_values = {}
    for pred in sorted(signature):
        arity = signature[pred]
        for objs in itertools.product(batch, repeat=arity):
            raw = float(interp.score(pred, objs))
            if raw < -1e-6 or raw > 1.0 + 1e-6:
                raise SemanticError(
                    f"scorer output {raw!r} for {pred}{objs} is outside [0, 1]")
            clamped = min(max(raw, clamp_eps), 1.0 - clamp_eps)
            key = (pred, objs)
            nodes[key] = tape.leaf(clamped, label=f"{pred}{objs}")
            raw_values[key] = raw
    return GroundingTable(nodes, list(batch), tape, raw_values)


# ---------------------------------------------------------------------------
# array valuation

@dataclass
class FormulaPass:
    """Forward and backward pass of one formula over one grounding.

    ``leaves`` are the tape indices of the ground atoms the formula reads
    and ``partials`` d(value)/d(atom) for each.  ``instance_adjoint`` is
    d(value)/d(body) per ground instance of the root quantifier block,
    and ``body_partials`` the body's own local partials when it is a
    binary connective (dI/da and dI/dc for an implication); both
    broadcast to one axis per quantified variable.  ``node`` is the fused
    tape node of the valuation.
    """

    value: float
    leaves: list
    partials: list
    instance_adjoint: np.ndarray | None = None
    body_partials: tuple | None = None
    node: Node | None = None


def _term_index(instr: Instr, g: GroundingTable, n_axes: int, mu: dict):
    """Index arrays into the atom's predicate tensor, one per argument,
    each with ``n_axes`` axes, that gather the atom's instances."""
    positions = []
    for term in instr.terms:
        if not isinstance(term, int):
            if term not in mu:
                raise SemanticError(f"unbound variable {term!r} in {instr.atom}")
            if g.position(mu[term]) is None:
                raise _missing(instr.atom.pred, _example(instr, g, mu))
            term = -1 - g.position(mu[term])
        positions.append(term)
    return _index(len(g.batch), n_axes, tuple(positions))


def _atom_table(instr: Instr, g: GroundingTable, mu: dict) -> np.ndarray:
    """The values of the atom's predicate over the batch."""
    tensor = g.tensor(instr.atom.pred)
    if tensor is None or tensor[0].ndim != len(instr.terms):
        raise _missing(instr.atom.pred, _example(instr, g, mu))
    return tensor[0]


def _example(instr: Instr, g: GroundingTable, mu: dict) -> list:
    """Objects of one instance of the atom, for error messages."""
    return [g.batch[0] if isinstance(t, int) else mu[t] for t in instr.terms]


@functools.lru_cache(maxsize=1024)
def _index(b: int, n_axes: int, terms: tuple) -> tuple:
    """Index arrays with ``n_axes`` axes, one per term: 0..b-1 laid along
    axis k for a term k >= 0, the fixed position -1 - k for k < 0."""
    index = []
    for term in terms:
        shape = [1] * n_axes
        if term >= 0:
            shape[term] = b
            index.append(np.arange(b).reshape(shape))
        else:
            index.append(np.full(shape, -1 - term))
    return tuple(index)


_OPERATOR_FIELDS = {"and": ("T", "tnorm"), "or": ("S", "tconorm"),
                    "implies": ("I", "implication"), "forall": ("A", "aggregator")}


def _non_finite(ops: OperatorConfig, op: str, what: str, x) -> ValueError:
    """The tape's error for a non-finite value or partial, labelled with
    the operator as a tape node would be."""
    prefix, attr = _OPERATOR_FIELDS[op]
    return ValueError(f"{prefix}_{getattr(ops, attr)}: non-finite {what} "
                      f"{float(x)!r}")


def _check_finite(ops: OperatorConfig, op: str, value, partials):
    for what, arr in [("value", value)] + [("partial", p) for p in partials]:
        finite = np.isfinite(arr)
        if not finite.all():
            raise _non_finite(ops, op, what, np.asarray(arr)[~finite][0])


def _move(x: np.ndarray, source: tuple, destination: tuple) -> np.ndarray:
    return x if source == destination else np.moveaxis(x, source, destination)


def _reduce_to(adjoint: np.ndarray, shape) -> np.ndarray:
    """Sum ``adjoint`` over the axes an operand of ``shape`` was broadcast
    along, except the leading formula axis: each formula of a stack keeps
    its own adjoint."""
    axes = tuple(k for k, (n, m) in enumerate(zip(adjoint.shape, shape))
                 if k and m == 1 and n != 1)
    return adjoint.sum(axis=axes, keepdims=True) if axes else adjoint


def _row(x: np.ndarray, f: int) -> np.ndarray:
    """Formula f's slice of a stacked array (size 1 broadcasts)."""
    return x[f if len(x) > 1 else 0]


def _log_product_error() -> SemanticError:
    return SemanticError(
        "log_product produces a log-space truth value; it may only "
        "appear as the outermost quantifier of a prenex formula")


def _stacked_atom(slot: list, g: GroundingTable, n_axes: int, mu: dict):
    """(index, stacked tensors) for one atom step of a stack of programs:
    the tensors of each program's predicate, stacked along a leading
    formula axis, and index arrays that gather the atom's instances."""
    index = _term_index(slot[0], g, n_axes, mu)  # the same terms throughout
    tables = {}
    for instr in slot:
        if instr.atom.pred not in tables:
            tables[instr.atom.pred] = _atom_table(instr, g, mu)
    stacked = np.stack([tables[instr.atom.pred] for instr in slot])
    formula = np.arange(len(slot)).reshape((-1,) + (1,) * n_axes)
    return (formula,) + tuple(ix[None] for ix in index), stacked


def _stack_pass(programs: list, g, ops, mu) -> list:
    """Forward and backward pass of programs of one shape as a stack:
    every array has a leading formula axis, then one axis per quantified
    variable."""
    b, n_axes, F = len(g.batch), programs[0].n_axes, len(programs)
    instrs = programs[0].instrs
    values: list = [None] * len(instrs)
    local: list = [None] * len(instrs)  # local partials, or forall levels
    kernels = ops.arrays
    binary = {"and": kernels.tnorm, "or": kernels.tconorm,
              "implies": kernels.implication}
    log_space = ops.aggregator == "log_product"
    for i, instr in enumerate(instrs):
        op = instr.op
        if op == "atom":
            index, stacked = _stacked_atom([p.instrs[i] for p in programs], g,
                                           n_axes, mu)
            local[i] = (index, stacked.shape)
            values[i] = stacked[index]
        elif op == "not":
            values[i] = 1.0 - values[instr.args[0]]
        elif op == "forall":
            if log_space and not instr.root:
                raise _log_product_error()
            axes = tuple(k + 1 for k in instr.axes)
            body = values[instr.args[0]]
            shape = list(body.shape)
            for k in axes:
                shape[k] = b
            X = np.broadcast_to(body, shape)
            if log_space:
                # one flat aggregation over every instance of the block
                head = tuple(range(len(axes)))
                moved = _move(X, axes, head)
                v, P = kernels.aggregate(
                    moved.reshape((-1,) + moved.shape[len(axes):]))
                _check_finite(ops, op, v, [P])
                levels = [_move(P.reshape(moved.shape), head, axes)]
                for k in axes:
                    shape[k] = 1
                v = v.reshape(shape)
            else:
                levels = []
                v = X
                for k in reversed(axes):  # innermost first
                    agg, P = kernels.aggregate(_move(v, (k,), (0,)))
                    _check_finite(ops, op, agg, [P])
                    levels.append(_move(P, (0,), (k,)))
                    v = np.expand_dims(agg, k)
                levels.reverse()
            local[i] = levels
            values[i] = v
        else:
            v, partials = binary[op](values[instr.args[0]],
                                     values[instr.args[1]])
            _check_finite(ops, op, v, partials)
            local[i] = partials
            values[i] = v
    root = len(instrs) - 1
    grads: list = [{} for _ in programs]  # per formula: predicate -> array
    adjoints: list = [None] * len(instrs)
    adjoints[root] = np.ones(values[root].shape)
    outs = [FormulaPass(float(v), [], []) for v in values[root].reshape(F, -1)[:, 0]]
    for i in range(root, -1, -1):
        instr, adj = instrs[i], adjoints[i]
        op = instr.op
        if op == "atom":
            index, shape = local[i]
            grad = np.zeros(shape)
            grad[index] += adj
            for f, p in enumerate(programs):
                pred = p.instrs[i].atom.pred
                grads[f][pred] = grads[f].get(pred, 0.0) + grad[f]
        elif op == "not":
            adjoints[instr.args[0]] = -adj
        elif op == "forall":
            for P in local[i]:  # outermost first
                adj = adj * P
            body = instr.args[0]
            if instr.root:
                for f, out in enumerate(outs):
                    out.instance_adjoint = adj[f]
                    if instrs[body].op in binary:
                        out.body_partials = tuple(_row(d, f)
                                                  for d in local[body])
            adjoints[body] = _reduce_to(adj, values[body].shape)
        else:
            for arg, partial in zip(instr.args, local[i]):
                adjoints[arg] = _reduce_to(adj * partial, values[arg].shape)
    for out, pred_grads in zip(outs, grads):
        for pred in sorted(pred_grads):
            out.leaves.extend(g.tensor(pred)[1].ravel().tolist())
            out.partials.extend(pred_grads[pred].ravel().tolist())
    return outs


def formula_pass(f, g: GroundingTable, ops: OperatorConfig) -> FormulaPass:
    """The pass an earlier valuation of ``f`` under ``ops`` left on ``g``,
    or else a new valuation, recorded on ``g``'s tape."""
    hit = g.passes.get(id(f))
    if hit is not None and hit[0] is f and hit[1] == ops:
        return hit[2]
    return _valuate([f], g, ops, None)[0]


def _valuate(formulas: list, g: GroundingTable, ops: OperatorConfig,
             mu) -> list:
    """Valuate ``formulas``, one stack per program shape, and record each
    on the tape in the given order."""
    mu = dict(mu) if mu else {}
    programs = [compile_formula(f) for f in formulas]
    check_instance_cap(programs, len(g.batch))
    stacks: dict = {}
    for k, program in enumerate(programs):
        stacks.setdefault(program.shape, []).append(k)
    passes = [None] * len(formulas)
    for members in stacks.values():
        with np.errstate(all="ignore"):
            stack = _stack_pass([programs[k] for k in members], g, ops, mu)
        for k, out in zip(members, stack):
            passes[k] = out
    for f, out in zip(formulas, passes):
        out.node = g.tape.record_fused("valuation", out.leaves, out.value,
                                       out.partials)
        if not mu:
            g.passes[id(f)] = (f, ops, out)
    return passes


def valuate(f, g: GroundingTable, ops: OperatorConfig,
            mu: dict | None = None) -> Node:
    """Fuzzy truth value of ``f`` under grounding ``g`` and operators ``ops``.

    ``mu`` maps variables that ``f`` leaves free to object indices.  The
    returned tape node's parents are the ground atoms of every predicate
    ``f`` uses, with d(value)/d(atom) as partials.
    """
    return _valuate([f], g, ops, mu)[0].node


def classical_values(program: Program, b: int, truth: dict) -> list:
    """Boolean truth of every step of ``program`` over a batch of ``b``
    objects: ``truth`` maps each predicate to a boolean array whose last
    axes are batch positions, like ``GroundingTable.tensor``.  Any leading
    axes (a world axis, say) are kept in front of the program's own.
    Quantifiers hold where every instance holds."""
    n_axes = program.n_axes
    out: list = []
    for instr in program.instrs:
        args = [out[k] for k in instr.args]
        if instr.op == "atom":
            if not all(isinstance(t, int) for t in instr.terms):
                raise SemanticError(f"unbound variable in {instr.atom}")
            value = truth[instr.atom.pred][
                (Ellipsis,) + _index(b, n_axes, instr.terms)]
            if not instr.terms:  # a nullary atom: size 1 on every axis
                value = value.reshape(value.shape + (1,) * n_axes)
        elif instr.op == "not":
            value = ~args[0]
        elif instr.op == "and":
            value = args[0] & args[1]
        elif instr.op == "or":
            value = args[0] | args[1]
        elif instr.op == "implies":
            value = ~args[0] | args[1]
        else:
            # an axis the body does not depend on has size 1, and every
            # instance along it holds alike
            value = args[0].all(axis=tuple(k - n_axes for k in instr.axes),
                                keepdims=True)
        out.append(value)
    return out


def dfl_loss(kb: KnowledgeBase, g: GroundingTable,
             ops: OperatorConfig) -> Node:
    """L = -sum over formulas of weight * valuation; root of the tape.

    The loss node's parents are the formula valuations, in knowledge-base
    order."""
    tape = g.tape
    if not kb.entries:
        return tape.leaf(0.0, label="loss")
    vals = [out.node for out in _valuate(kb.formulas(), g, ops, None)]
    weights = [weight for _, weight in kb.entries]
    total = -sum(w * n.value for w, n in zip(weights, vals))
    return tape.record("loss", vals, total, [-w for w in weights])


def atom_gradients(kb: KnowledgeBase, g: GroundingTable,
                   ops: OperatorConfig) -> dict:
    """dL/datom for every grounding entry (Example-2 style table).

    The returned sign convention is the loss gradient for plain descent:
    L = -sum w * valuation, so a NEGATIVE entry means descent increases
    that atom.  d(valuation-sum)/datom is the negation of each entry.
    """
    loss = dfl_loss(kb, g, ops)
    grads = g.tape.backward(loss)
    return {key: grads[node] for key, node in g.nodes.items()}


_GROUNDING_LINE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\(([^)]*)\)\s*=\s*([0-9.eE+-]+)$")


def parse_grounding(text: str):
    """Parse lookup-table grounding lines ``pred(o1,o2)=0.95``.

    Object names are declared implicitly, ordered by first appearance.
    Returns (domain, interpretation, signature).
    """
    names: list = []
    table = {}
    signature: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _GROUNDING_LINE.match(line)
        if not match:
            raise ParseError(f"bad grounding line {line!r}", lineno)
        pred, arg_text, value_text = match.groups()
        args = [a.strip() for a in arg_text.split(",") if a.strip()]
        if not args:
            raise ParseError(f"atom {pred}() needs at least one object", lineno)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"bad probability {value_text!r}", lineno) from None
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"probability {value} outside [0, 1]", lineno)
        arity = signature.setdefault(pred, len(args))
        if arity != len(args):
            raise ParseError(
                f"arity conflict for {pred!r}: {len(args)} vs {arity}", lineno)
        for name in args:
            if name not in names:
                names.append(name)
        key = (pred, tuple(names.index(a) for a in args))
        if key in table:
            raise ParseError(f"duplicate grounding entry for {line!r}", lineno)
        table[key] = value
    return Domain(names), LookupInterpretation(table, names), signature
