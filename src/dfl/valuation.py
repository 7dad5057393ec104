"""Valuation engine: groundings as flat atom vectors, array valuation of
compiled formulas with its backward pass, and the weighted
knowledge-base loss with its gradient.

A grounding holds the clamped truth value of every ground atom in one
float64 vector: predicates in sorted order, each predicate's atoms in
``itertools.product(batch, repeat=arity)`` order.  Each formula is
compiled once (``logic.compile_formula``) into a postorder program with
one array axis per quantified variable, so over b objects a formula with
d quantified variables is valuated as arrays of b**d ground instances.
Programs of one shape run as one stack with a leading formula axis; each
atom step gathers its instances from the atom vector with one flat index
array, cached per stack, layout and bound positions.  Nested quantifier
variables aggregate innermost-first (``forall x, y`` is A_x(A_y(...))),
except under log-product, whose output lives in (-inf, 0] and may not
feed another connective: its whole quantifier block is one flat
aggregation over all b**d instances (equal, as log turns the nested
product into a sum).

The backward pass runs over the same program in reverse, summing each
adjoint over the axes its operand was broadcast along, and scatters each
atom step's adjoint into the formula's gradient row, d(valuation)/d(atom)
over the atom vector.  ``loss_gradient`` sums the rows times -weight in
reverse knowledge-base order, the order in which ``Tape.backward`` from
``dfl_loss`` accumulates them, so the two agree bit for bit.  Only
callers that ask for nodes use the scalar tape: ``valuate`` and
``dfl_loss`` record each formula as one fused node over the atom leaves,
which a grounding records when ``nodes``, ``tape`` or ``node()`` is
first read.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .logic import KnowledgeBase, ParseError, Program, compile_formula
from .operators import OperatorConfig

__all__ = [
    "SemanticError", "Domain", "LookupInterpretation", "GroundingTable",
    "InstanceCapError", "FormulaPass", "formula_pass", "check_instance_cap",
    "classical_values", "build_grounding", "valuate", "loss_gradient",
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


def check_instance_cap(programs, b: int, atoms: int = 0):
    """Refuse ``programs`` over ``b`` objects, before any array is built,
    when their ground instances sum past ``INSTANCE_CAP``, or when their
    gradient rows (one entry per formula and each of ``atoms`` ground
    atoms) do."""
    total = sum(b ** program.n_axes for program in programs)
    if total > INSTANCE_CAP:
        raise InstanceCapError(f"{total} ground instances exceed the "
                               f"{INSTANCE_CAP}-instance cap")
    if len(programs) * atoms > INSTANCE_CAP:
        raise InstanceCapError(f"{len(programs)} formulas x {atoms} ground "
                               f"atoms exceed the {INSTANCE_CAP}-instance cap")


def _atom_text(pred: str, objs, names=None) -> str:
    """``pred(a,b)``, naming the objects when ``names`` covers them."""
    if names is not None and all(0 <= i < len(names) for i in objs):
        objs = [names[i] for i in objs]
    return f"{pred}({','.join(map(str, objs))})"


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
            raise SemanticError(f"no probability for ground atom "
                                f"{_atom_text(pred, objs, self.names)}") from None


class _Layout:
    """Where each predicate's atoms sit in an atom vector: ``preds`` maps a
    predicate to (offset, arity) in sorted order, ``size`` is the length.
    One object per batch size and signature (``_layout``), so caches key
    on it by identity."""

    def __init__(self, b: int, arities: tuple):
        self.b, self.preds, self.size = b, {}, 0
        for pred, arity in arities:
            self.preds[pred] = (self.size, arity)
            self.size += b ** arity


_layout = functools.lru_cache(maxsize=64)(_Layout)


class GroundingTable:
    """Truth values of every ground atom over a batch.

    ``values`` is the atom vector (clamped) and ``raw_values`` the scores
    before clamping, both laid out by ``layout``; ``keys()`` lists the
    atoms in that order.  Tape leaves are recorded only when ``nodes``,
    ``tape`` or ``node()`` is first read.  A table built by hand,
    ``GroundingTable(nodes, batch, tape)``, takes its values from the
    given leaves and leaves out of its vector any predicate that lacks an
    atom over the batch.  ``passes`` keeps the latest forward/backward
    pass of each formula valuated on this grounding (see
    ``formula_pass``).
    """

    def __init__(self, nodes: dict, batch: list, tape: Tape,
                 raw: dict | None = None):
        arities: dict = {}
        for pred, objs in nodes:
            arities.setdefault(pred, len(objs))
        complete = tuple((pred, arity) for pred, arity in sorted(arities.items())
                         if all((pred, objs) in nodes for objs in
                                itertools.product(batch, repeat=arity)))
        self._setup(batch, _layout(len(batch), complete), None)
        leaves = [nodes[key] for key in self.keys()]
        self.values = self.raw_values = np.array([n.value for n in leaves],
                                                 dtype=float)
        self._nodes, self._tape, self._raw = nodes, tape, dict(raw or {})
        self._leaf_idx = np.array([n.idx for n in leaves], dtype=np.intp)

    def _setup(self, batch, layout: _Layout, names):
        self.batch, self.layout, self.names = list(batch), layout, names
        self.passes: dict = {}
        self._nodes = self._tape = self._raw = self._leaf_idx = self._keys = None
        self._positions = {obj: i for i, obj in enumerate(self.batch)}

    def __len__(self):
        return len(self._nodes) if self._nodes is not None else self.layout.size

    def keys(self) -> list:
        """Every atom (pred, objs) of the vector, in vector order."""
        if self._keys is None:
            self._keys = [(pred, objs) for pred, (_, arity)
                          in self.layout.preds.items()
                          for objs in itertools.product(self.batch, repeat=arity)]
        return self._keys

    def atoms(self):
        return list(self._nodes if self._nodes is not None else self.keys())

    @property
    def nodes(self) -> dict:
        """The tape leaf of every atom, recorded on first read."""
        if self._nodes is None:
            if self._tape is None:
                self._tape = Tape()
            base = len(self._tape)
            self._nodes = dict(zip(self.keys(), self._tape.leaves(
                self.values, [f"{pred}{objs}" for pred, objs in self.keys()])))
            self._leaf_idx = np.arange(base, len(self._tape))
        return self._nodes

    @property
    def tape(self) -> Tape:
        self.nodes  # the leaves come first on the tape
        return self._tape

    @property
    def raw(self) -> dict:
        """The score of every atom before clamping."""
        if self._raw is None:
            self._raw = dict(zip(self.keys(), self.raw_values.tolist()))
        return self._raw

    def node(self, pred: str, objs: tuple) -> Node:
        try:
            return self.nodes[(pred, tuple(objs))]
        except KeyError:
            raise _missing(pred, objs, self.names) from None

    def tensor(self, pred: str, vector: np.ndarray | None = None):
        """``pred``'s slice of the atom vector, or of ``vector`` laid out
        alike, with one axis of batch positions per argument; None when
        the vector has no atom of ``pred``."""
        if pred not in self.layout.preds:
            return None
        offset, arity = self.layout.preds[pred]
        b = len(self.batch)
        vector = self.values if vector is None else vector
        return vector[offset:offset + b ** arity].reshape((b,) * arity)

    def position(self, obj: int):
        """Batch position of object ``obj``, or None outside the batch."""
        return self._positions.get(obj)


def _missing(pred, objs, names=None) -> SemanticError:
    return SemanticError(f"ground atom {_atom_text(pred, objs, names)} missing "
                         f"from grounding (signature mismatch?)")


@functools.lru_cache(maxsize=64)
def _batch_index(batch: tuple, arity: int) -> tuple:
    return np.ix_(*(np.array(batch),) * arity)


def build_grounding(interp, domain: Domain, signature: dict, batch: list,
                    tape: Tape | None = None,
                    clamp_eps: float = CLAMP_EPS) -> GroundingTable:
    """Score every ground atom over the batch into the atom vector.

    An interpretation that offers ``truth_table(pred)``, the truth values
    of ``pred`` with one axis of objects per argument, is sliced by the
    batch, one array expression per predicate; any other is asked for
    each atom's ``score(pred, objs)``.  Raw scores may stray 1e-6 outside
    [0, 1] (model arithmetic); anything worse, NaN included, is an error
    that names the atom.  Stored values are clamped to [eps, 1-eps], which
    keeps log-product and Goguen kernels finite.  Leaves go on ``tape``
    when they are first needed.
    """
    if not batch:
        raise SemanticError("batch must be non-empty")
    if len(set(batch)) != len(batch):
        raise SemanticError(f"batch objects must be distinct, got {batch}")
    g = GroundingTable.__new__(GroundingTable)
    g._setup(batch, _layout(len(batch), tuple(sorted(signature.items()))),
             domain.names)
    g._tape = tape
    table = getattr(interp, "truth_table", None)
    if table is not None:
        objs = tuple(batch)
        raw = np.concatenate([np.zeros(0)] + [  # no signature, no table
            np.asarray(table(pred), dtype=float)[_batch_index(objs, arity)].ravel()
            for pred, (_, arity) in g.layout.preds.items()])
    else:
        raw = np.array([float(interp.score(pred, objs))
                        for pred, objs in g.keys()], dtype=float)
    bad = ~((raw >= -1e-6) & (raw <= 1.0 + 1e-6))
    if bad.any():
        k = int(bad.argmax())
        raise SemanticError(f"scorer output {float(raw[k])!r} for "
                            f"{_atom_text(*g.keys()[k], g.names)} is outside "
                            f"[0, 1]")
    g.raw_values = raw
    g.values = np.minimum(np.maximum(raw, clamp_eps), 1.0 - clamp_eps)
    return g


# ---------------------------------------------------------------------------
# array valuation

@dataclass
class FormulaPass:
    """Forward and backward pass of one formula over one grounding.

    ``row`` is d(value)/d(atom) over the grounding's atom vector.  The
    pass ran in a stack of formulas, at position ``f``:
    ``stack_adjoint[f]`` is d(value)/d(body) per ground instance of the
    root quantifier block, and when the body is a binary connective
    ``stack_partials`` holds its local partials (dI/da and dI/dc for an
    implication), each of size F or 1 on the formula axis, then one axis
    per quantified variable.
    """

    value: float
    row: np.ndarray
    f: int = 0
    stack_adjoint: np.ndarray | None = None
    stack_partials: tuple | None = None


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


# each entry keeps its programs alive: room for a few knowledge bases
@functools.lru_cache(maxsize=32)
def _gather_index(programs: tuple, layout: _Layout, fixed: tuple):
    """Per atom step of a stack of programs, (gather, scatter): the
    positions in the atom vector of every instance the step reads, with a
    leading formula axis, and the same positions in the stack's flattened
    (formula x atom) gradient rows.  ``fixed`` pairs each variable that
    ``mu`` binds with its batch position (None outside the batch).  The
    first step that cannot gather is returned instead, as (step, formula,
    its unbound variable or None)."""
    b, n_axes = layout.b, programs[0].n_axes
    bound = dict(fixed)
    rows = np.arange(len(programs)).reshape((-1,) + (1,) * n_axes) * layout.size
    out = {}
    for i, instr in enumerate(programs[0].instrs):  # the same terms throughout
        if instr.op != "atom":
            continue
        terms = []
        for term in instr.terms:
            if not isinstance(term, int):
                if bound.get(term) is None:
                    return i, 0, None if term in bound else term
                term = -1 - bound[term]
            terms.append(term)
        offsets = []
        for f, program in enumerate(programs):
            offset, arity = layout.preds.get(program.instrs[i].atom.pred,
                                             (0, None))
            if arity != len(terms):
                return i, f, None
            offsets.append(offset)
        position = 0
        for ix in _index(b, n_axes, tuple(terms)):
            position = position * b + ix
        gather = np.reshape(offsets, rows.shape) + position
        out[i] = gather, gather + rows
    return out


@functools.lru_cache(maxsize=16)
def _stacks(programs: tuple) -> list:
    """The positions of the programs of each shape, in first-seen order."""
    stacks: dict = {}
    for k, program in enumerate(programs):
        stacks.setdefault(program.shape, []).append(k)
    return list(stacks.values())


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
        if math.isfinite(np.sum(arr)):  # else a non-finite entry, or overflow
            continue
        finite = np.isfinite(arr)
        if not finite.all():
            raise _non_finite(ops, op, what, np.asarray(arr)[~finite][0])


def _move(x: np.ndarray, source: tuple, destination: tuple) -> np.ndarray:
    """``np.moveaxis`` for non-negative axes, without its axis checks."""
    if source == destination:
        return x
    order = [k for k in range(x.ndim) if k not in source]
    for dest, src in sorted(zip(destination, source)):
        order.insert(dest, src)
    return x.transpose(order)


def _reduce_to(adjoint: np.ndarray, shape) -> np.ndarray:
    """Sum ``adjoint`` over the axes an operand of ``shape`` was broadcast
    along, except the leading formula axis: each formula of a stack keeps
    its own adjoint."""
    axes = tuple(k for k, (n, m) in enumerate(zip(adjoint.shape, shape))
                 if k and m == 1 and n != 1)
    return adjoint.sum(axis=axes, keepdims=True) if axes else adjoint


def _log_product_error() -> SemanticError:
    return SemanticError(
        "log_product produces a log-space truth value; it may only "
        "appear as the outermost quantifier of a prenex formula")


def _stack_pass(programs: tuple, g, ops, mu) -> list:
    """Forward and backward pass of programs of one shape as a stack:
    every array has a leading formula axis, then one axis per quantified
    variable."""
    b, F = len(g.batch), len(programs)
    fixed = tuple((var, g.position(obj)) for var, obj in sorted(mu.items()))
    index = _gather_index(programs, g.layout, fixed)
    if isinstance(index, tuple):
        i, f, unbound = index
        instr = programs[f].instrs[i]
        if unbound is not None:
            raise SemanticError(f"unbound variable {unbound!r} in {instr.atom}")
        example = [g.batch[0] if isinstance(t, int) else mu[t]
                   for t in instr.terms]  # the objects of one instance
        raise _missing(instr.atom.pred, example, g.names)
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
            values[i] = g.values[index[i][0]]
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
    rows = np.zeros((F, g.layout.size))
    flat_rows = rows.reshape(-1)
    adjoints: list = [None] * len(instrs)
    adjoints[root] = np.ones(values[root].shape)
    outs = [FormulaPass(v, rows[f], f) for f, v in
            enumerate(values[root].reshape(F, -1)[:, 0].tolist())]
    for i in range(root, -1, -1):
        instr, adj = instrs[i], adjoints[i]
        op = instr.op
        if op == "atom":
            # a step reads each atom at most once per formula
            flat_rows[index[i][1]] += adj
        elif op == "not":
            adjoints[instr.args[0]] = -adj
        elif op == "forall":
            for P in local[i]:  # outermost first
                adj = adj * P
            body = instr.args[0]
            if instr.root:
                partials = local[body] if instrs[body].op in binary else None
                for out in outs:
                    out.stack_adjoint, out.stack_partials = adj, partials
            adjoints[body] = _reduce_to(adj, values[body].shape)
        else:
            for arg, partial in zip(instr.args, local[i]):
                adjoints[arg] = _reduce_to(adj * partial, values[arg].shape)
    return outs


def formula_pass(f, g: GroundingTable, ops: OperatorConfig) -> FormulaPass:
    """The pass an earlier valuation of ``f`` under ``ops`` left on ``g``,
    or else a new one."""
    hit = g.passes.get(id(f))
    if hit is not None and hit[0] is f and hit[1] == ops:
        return hit[2]
    return _valuate([f], g, ops, None)[0]


def _valuate(formulas: list, g: GroundingTable, ops: OperatorConfig,
             mu) -> list:
    """Passes of ``formulas``, one stack per program shape; without ``mu``
    each is kept on ``g.passes``."""
    mu = dict(mu) if mu else {}
    programs = tuple(compile_formula(f) for f in formulas)
    check_instance_cap(programs, len(g.batch), g.layout.size)
    passes = [None] * len(formulas)
    for members in _stacks(programs):
        with np.errstate(all="ignore"):
            stack = _stack_pass(tuple(programs[k] for k in members), g, ops, mu)
        for k, out in zip(members, stack):
            passes[k] = out
    if not mu:
        for f, out in zip(formulas, passes):
            g.passes[id(f)] = (f, ops, out)
    return passes


def _record(g: GroundingTable, formula, out: FormulaPass) -> Node:
    """``out`` as one fused node on ``g``'s tape whose parents are the
    leaves of every atom of the predicates ``formula`` reads."""
    preds = sorted({instr.atom.pred for instr in compile_formula(formula).instrs
                    if instr.op == "atom"})
    at = np.concatenate([np.arange(offset, offset + len(g.batch) ** arity)
                         for offset, arity in map(g.layout.preds.get, preds)])
    tape = g.tape  # records the leaves, and their indices, first
    return tape.record_fused("valuation", g._leaf_idx[at], out.value,
                             out.row[at])


def valuate(f, g: GroundingTable, ops: OperatorConfig,
            mu: dict | None = None) -> Node:
    """Fuzzy truth value of ``f`` under grounding ``g`` and operators ``ops``.

    ``mu`` maps variables that ``f`` leaves free to object indices.  The
    returned tape node's parents are the ground atoms of every predicate
    ``f`` uses, with d(value)/d(atom) as partials.
    """
    return _record(g, f, _valuate([f], g, ops, mu)[0])


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


def loss_gradient(kb: KnowledgeBase, g: GroundingTable,
                  ops: OperatorConfig) -> tuple:
    """(L, dL/datom over ``g``'s atom vector) for L = -sum over formulas
    of weight * valuation.

    The weighted rows are summed in reverse knowledge-base order, the
    order in which ``Tape.backward`` from ``dfl_loss`` accumulates them,
    so both give the same gradient bit for bit."""
    grad = np.zeros(g.layout.size)
    if not kb.entries:
        return 0.0, grad
    passes = _valuate(kb.formulas(), g, ops, None)
    loss = -sum(w * out.value for (_, w), out in zip(kb.entries, passes))
    if not math.isfinite(loss):
        raise ValueError(f"loss: non-finite value {loss!r}")
    for (_, w), out in zip(reversed(kb.entries), reversed(passes)):
        grad += -w * out.row
    return loss, grad


def dfl_loss(kb: KnowledgeBase, g: GroundingTable,
             ops: OperatorConfig) -> Node:
    """The loss of ``loss_gradient`` as the root of ``g``'s tape.

    The loss node's parents are the formula valuations, in knowledge-base
    order, each one fused node over the atom leaves."""
    tape = g.tape
    if not kb.entries:
        return tape.leaf(0.0, label="loss")
    passes = _valuate(kb.formulas(), g, ops, None)
    vals = [_record(g, f, out) for f, out in zip(kb.formulas(), passes)]
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
    grads = dict(zip(g.keys(), loss_gradient(kb, g, ops)[1].tolist()))
    return {key: grads.get(key, 0.0) for key in g.atoms()}


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
