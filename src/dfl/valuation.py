"""Valuation engine: groundings as flat atom vectors, array valuation of
compiled formulas with its backward pass, and the weighted
knowledge-base loss with its gradient.

A grounding holds the clamped truth value of every ground atom in one
float64 vector: predicates in sorted order, each predicate's atoms in
``itertools.product(batch, repeat=arity)`` order.  Each formula is
compiled once (``logic.compile_formula``) into a postorder program with
one array axis per quantified variable, so over b objects a formula with
d quantified variables is valuated as arrays of b**d ground instances.
Nested quantifier variables aggregate innermost-first (``forall x, y``
is A_x(A_y(...))), except under log-product, whose output lives in
(-inf, 0] and may not feed another connective: its whole quantifier
block is one flat aggregation over all b**d instances.

What no truth value changes is compiled once per tuple of programs and
layout into a cached ``Plan``: programs of one shape form a stack, run
as one pass with a leading formula axis, with one gather index (the
flat atom-vector position of every instance each atom step reads, and
its position in the stack's gradient rows) or the error of the first
step that cannot gather.  Per log-space flag, each stack also holds
every step's array shape, the transposes of each aggregation and the
axes each adjoint sums over; the stacks of both flags read the same
gather index.  The plan also holds each formula's atom slice.  Only a
valuation under ``mu`` gathers afresh.
The instance cap is checked on every call, before the plan is sought.

The forward pass (``_forward``) computes every step's array and local
partials, checking that each is finite; the backward pass (``_backward``)
runs in reverse, summing each adjoint over the axes its operand was
broadcast along, and scatters each atom step's adjoint into the
formula's gradient row, d(valuation)/d(atom).  A valuation without
``mu`` leaves on the grounding, as ``kept``, its plan, its ops and per
stack the root quantifier body's adjoint and partials, which the
gradient diagnostics read.  ``_forward_values`` (the oracle's and
``dfl eval``'s) stops after the forward pass.  ``loss_gradient`` adds the rows
times -weight in reverse knowledge-base order, the order in which
``Tape.backward`` from ``dfl_loss`` accumulates them, so the two agree
bit for bit.  Only ``valuate`` and ``dfl_loss`` use the scalar tape,
recording each formula as one fused node over the atom leaves, which a
grounding records in bulk when ``tape`` is first read; Node handles are
built when ``nodes`` or ``node()`` is first read, each label when the
tape first reads it.
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
    "InstanceCapError", "check_instance_cap",
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


def _check_batch(batch):
    """Refuse an empty batch or one that repeats an object."""
    if not batch:
        raise SemanticError("batch must be non-empty")
    if len(set(batch)) != len(batch):
        raise SemanticError(f"batch objects must be distinct, got {batch}")


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
    One object per batch size and signature (``_layout``), so plans key
    on it by identity."""

    def __init__(self, b: int, arities: tuple):
        self.b, self.preds, self.size = b, {}, 0
        for pred, arity in arities:
            self.preds[pred] = (self.size, arity)
            self.size += b ** arity
        self._lookup = (None, None)

    def lookup_keys(self, batch: tuple) -> tuple:
        """The table keys of every atom over ``batch`` in vector order, kept
        for the last batch: for lookups alone, as equal objects share them."""
        if self._lookup[0] != batch:
            self._lookup = batch, tuple(
                (pred, objs) for pred, (_, arity) in self.preds.items()
                for objs in itertools.product(batch, repeat=arity))
        return self._lookup[1]


_layout = functools.lru_cache(maxsize=64)(_Layout)


class GroundingTable:
    """Truth values of every ground atom over a batch.

    ``values`` is the atom vector (clamped) and ``raw_values`` the scores
    before clamping, both laid out by ``layout`` and filled by ``_score``;
    ``keys()`` lists the atoms in that order.  Tape leaves are recorded
    only when ``tape`` is first read (``nodes`` and ``node()`` read it),
    as one bulk block of the atom vector; ``_leaf_idx`` holds their tape
    indices.  Their Node handles are built on the first read of ``nodes``
    or ``node()`` and kept, and each label, ``f"{pred}{objs}"``, is made
    when the tape first reads it.  ``kept`` is the latest valuation
    without ``mu`` on this grounding: (its plan, its ops, per stack of the
    plan the root quantifier body's adjoint and its local partials; see
    ``_backward``), or None.
    """

    def __init__(self, batch, layout: _Layout, names, tape: Tape | None = None):
        self.batch, self.layout, self.names = list(batch), layout, names
        self.kept, self._tape = None, tape
        self._nodes = self._raw = self._leaf_idx = self._keys = None
        self._positions = {obj: i for i, obj in enumerate(self.batch)}

    def _score(self, raw: np.ndarray, clamp_eps: float = CLAMP_EPS):
        """Take ``raw`` as the scores of the atom vector and store them
        clamped to [eps, 1-eps]."""
        self.raw_values = raw
        self.values = np.minimum(np.maximum(raw, clamp_eps), 1.0 - clamp_eps)
        return self

    def __len__(self):
        return self.layout.size

    def keys(self) -> list:
        """Every atom (pred, objs) of the vector, in vector order."""
        if self._keys is None:
            self._keys = [(pred, objs) for pred, (_, arity)
                          in self.layout.preds.items()
                          for objs in itertools.product(self.batch, repeat=arity)]
        return self._keys

    @property
    def nodes(self) -> dict:
        """The tape leaf of every atom; the handles are built on first read."""
        if self._nodes is None:
            tape = self.tape
            self._nodes = dict(zip(self.keys(), [
                Node(tape, idx) for idx in self._leaf_idx.tolist()]))
        return self._nodes

    @property
    def tape(self) -> Tape:
        """The tape, with the atom vector recorded on it as leaves, in
        bulk and without Node handles, on first read."""
        if self._leaf_idx is None:
            if self._tape is None:
                self._tape = Tape()
            # the labeller holds no reference to the table, so the table
            # and its tape form no cycle
            leaves = self._tape.leaf_range(self.values, functools.partial(
                _atom_label, self.layout, self.batch))
            self._leaf_idx = np.arange(leaves.start, leaves.stop)
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


def _atom_key(layout: _Layout, batch, k: int) -> tuple:
    """(pred, objs) of atom ``k`` of an atom vector laid out by ``layout``
    over ``batch``."""
    for pred, (offset, arity) in layout.preds.items():
        if k < offset + layout.b ** arity:
            break
    k -= offset
    objs = []
    for _ in range(arity):
        k, position = divmod(k, layout.b)
        objs.append(batch[position])
    return pred, tuple(reversed(objs))


def _atom_label(layout: _Layout, batch: list, k: int) -> str:
    """``f"{pred}{objs}"`` of atom ``k``: the tape label of its leaf."""
    pred, objs = _atom_key(layout, batch, k)
    return f"{pred}{objs}"


def _missing(pred, objs, names=None) -> SemanticError:
    return SemanticError(f"ground atom {_atom_text(pred, objs, names)} missing "
                         f"from grounding (signature mismatch?)")


def build_grounding(interp, domain: Domain, signature: dict, batch: list,
                    tape: Tape | None = None,
                    clamp_eps: float = CLAMP_EPS) -> GroundingTable:
    """Score every ground atom over the batch into the atom vector.

    An interpretation that offers ``truth_table(pred)``, the truth values
    of ``pred`` with one axis of objects per argument, is sliced by the
    batch, one array expression per predicate (none when the batch is
    ``range(b)`` and the table has b objects per axis); a
    ``LookupInterpretation``
    is read from its table in one pass; any other is asked for each
    atom's ``score(pred, objs)``.  Raw scores may stray 1e-6 outside
    [0, 1] (model arithmetic); anything worse, NaN included, is an error
    that names the atom.  Stored values are clamped to [eps, 1-eps], which
    keeps log-product and Goguen kernels finite.  Leaves go on ``tape``
    when they are first needed.
    """
    _check_batch(batch)
    g = GroundingTable(batch, _layout(len(batch),
                                      tuple(sorted(signature.items()))),
                       domain.names, tape)
    table = getattr(interp, "truth_table", None)
    raw = None
    if table is not None:
        b = len(batch)
        whole = batch == list(range(b))
        parts = [np.zeros(0)]  # no signature, no table
        for pred, (_, arity) in g.layout.preds.items():
            part = np.asarray(table(pred), dtype=float)
            if not (whole and part.shape == (b,) * arity):
                part = part[np.ix_(*(np.array(batch),) * arity)]
            parts.append(part.reshape(-1))
        raw = np.concatenate(parts)
    elif getattr(type(interp), "score", None) is LookupInterpretation.score:
        try:
            raw = np.fromiter(map(interp.table.__getitem__,
                                  g.layout.lookup_keys(tuple(batch))),
                              dtype=float, count=g.layout.size)
        except KeyError:  # score names the first missing atom
            pass
    if raw is None:
        raw = np.array([float(interp.score(pred, objs))
                        for pred, objs in g.keys()], dtype=float)
    # two reductions, which propagate NaN; the search runs on a failure
    if raw.size and not (raw.min() >= -1e-6 and raw.max() <= 1.0 + 1e-6):
        k = int((~((raw >= -1e-6) & (raw <= 1.0 + 1e-6))).argmax())
        raise SemanticError(f"scorer output {float(raw[k])!r} for "
                            f"{_atom_text(*g.keys()[k], g.names)} is outside "
                            f"[0, 1]")
    return g._score(raw, clamp_eps)


# ---------------------------------------------------------------------------
# array valuation

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


_OPERATOR_FIELDS = {"and": ("T", "tnorm"), "or": ("S", "tconorm"),
                    "implies": ("I", "implication"), "forall": ("A", "aggregator")}


def _non_finite(ops: OperatorConfig, op: str, what: str, x) -> ValueError:
    """The tape's error for a non-finite value or partial, labelled with
    the operator as a tape node would be."""
    prefix, attr = _OPERATOR_FIELDS[op]
    return ValueError(f"{prefix}_{getattr(ops, attr)}: non-finite {what} "
                      f"{float(x)!r}")


def _check_finite(ops: OperatorConfig, op: str, value, partials):
    """Raise the tape's error for the first non-finite entry of ``value``,
    then of each partial.  One sum over them all is finite when every
    entry is; only when it is not (a non-finite entry, or overflow) are
    the arrays searched one by one."""
    total = np.add.reduce(value, axis=None)
    for partial in partials:
        total += np.add.reduce(partial, axis=None)
    if math.isfinite(total):
        return
    for what, arr in [("value", value)] + [("partial", p) for p in partials]:
        finite = np.isfinite(arr)
        if not finite.all():
            raise _non_finite(ops, op, what, np.asarray(arr)[~finite][0])


def _order(ndim: int, source: tuple, destination: tuple) -> tuple:
    """The transpose order of ``np.moveaxis(x, source, destination)`` for
    an ``x`` of ``ndim`` axes and non-negative axes."""
    order = [k for k in range(ndim) if k not in source]
    for dest, src in sorted(zip(destination, source)):
        order.insert(dest, src)
    return tuple(order)


def _spread_axes(shape: tuple, wide: tuple) -> tuple:
    """The axes, past the leading formula axis, along which an operand
    of ``shape`` is broadcast to ``wide``: its adjoint sums over them, as
    each formula of a stack keeps its own."""
    return tuple(k for k in range(1, len(wide)) if shape[k] == 1 != wide[k])


def _sum_over(adjoint: np.ndarray, axes: tuple) -> np.ndarray:
    return np.add.reduce(adjoint, axis=axes, keepdims=True) if axes else adjoint


def _log_product_error() -> SemanticError:
    return SemanticError(
        "log_product produces a log-space truth value; it may only "
        "appear as the outermost quantifier of a prenex formula")


_CONNECTIVES = ("and", "or", "implies")


class _Stack:
    """The programs of one shape in a plan (``members``: their positions
    among the plan's programs, also as the index array ``rows``) and what
    a pass over them does that no value changes: its ``_gather_index``
    without ``mu`` (``index``, the same object under both log-space
    flags); every step's array shape (``shapes``); per quantifier step the
    shape its body is broadcast to (``spread``, None when the body has it)
    and the transposes and shapes of its aggregation (``moves``); per
    connective and quantifier step the axes along which each operand's
    adjoint sums (``sums``).  ``log_error`` is the first quantifier step
    whose log-product output would feed a connective, or None."""

    def __init__(self, members: list, programs: tuple, index,
                 layout: _Layout, log_space: bool):
        self.members, self.programs, self.layout = members, programs, layout
        self.rows = np.array(members, dtype=np.intp)
        self.index = index
        instrs, b, ndim = programs[0].instrs, layout.b, 1 + programs[0].n_axes
        self.log_space, self.log_error = log_space, None
        self.shapes: list = []
        self.spread, self.moves, self.sums = ([None] * len(instrs)
                                              for _ in range(3))
        for i, instr in enumerate(instrs):
            args = [self.shapes[k] for k in instr.args]
            if instr.op == "atom":
                axes = {t + 1 for t in instr.terms if isinstance(t, int)}
                shape = (len(programs),) + tuple(
                    b if k in axes else 1 for k in range(1, ndim))
            elif instr.op == "not":
                shape = args[0]
            elif instr.op == "forall":
                if log_space and not instr.root and self.log_error is None:
                    self.log_error = i
                axes = tuple(k + 1 for k in instr.axes)
                full = tuple(b if k in axes else n
                             for k, n in enumerate(args[0]))
                shape = tuple(1 if k in axes else n for k, n in enumerate(full))
                self.spread[i] = None if full == args[0] else full
                self.sums[i] = (_spread_axes(args[0], full),)
                if log_space:
                    # one flat aggregation over every instance of the block
                    head = tuple(range(len(axes)))
                    order = _order(ndim, axes, head)
                    moved = tuple(full[k] for k in order)
                    self.moves[i] = (order, (-1,) + moved[len(axes):], moved,
                                     _order(ndim, head, axes))
                else:
                    levels, level = [], list(full)
                    for k in reversed(axes):  # innermost first
                        level[k] = 1
                        levels.append((_order(ndim, (k,), (0,)),
                                       _order(ndim, (0,), (k,)), tuple(level)))
                    self.moves[i] = levels
            else:
                shape = np.broadcast_shapes(*args)
                self.sums[i] = tuple(_spread_axes(arg, shape) for arg in args)
            self.shapes.append(shape)


class Plan:
    """What valuating ``programs`` on atom vectors laid out by ``layout``
    needs that no truth value changes: per shape, in first-seen order,
    the positions and programs of that shape and their gather index; the
    stacks of each log-space flag, built from them on first use; and each
    program's atom slice.  One object per programs and layout
    (``_plan``), built only after the instance cap admits the programs."""

    def __init__(self, programs: tuple, layout: _Layout):
        self.programs, self.layout = programs, layout
        shapes: dict = {}
        for k, program in enumerate(programs):
            shapes.setdefault(program.shape, []).append(k)
        self.shapes = []  # (members, their programs, their gather index)
        for members in shapes.values():
            stacked = tuple(programs[k] for k in members)
            self.shapes.append((members, stacked,
                                _gather_index(stacked, layout, ())))
        self._stacks: dict = {}

    def stacks(self, ops: OperatorConfig) -> list:
        """The stacks under ``ops``'s log-space flag, one per shape."""
        log_space = ops.aggregator == "log_product"
        if log_space not in self._stacks:
            self._stacks[log_space] = [_Stack(*shape, self.layout, log_space)
                                       for shape in self.shapes]
        return self._stacks[log_space]

    @functools.cached_property
    def slices(self) -> list:
        """Per program, the atom-vector positions of every atom of the
        predicates it reads: the parents of its fused tape node."""
        spans = {pred: np.arange(offset, offset + self.layout.b ** arity)
                 for pred, (offset, arity) in self.layout.preds.items()}
        return [np.concatenate([spans[pred] for pred in sorted(
            {instr.atom.pred for instr in p.instrs if instr.op == "atom"})])
            for p in self.programs]


# each entry keeps its programs alive: room for a few knowledge bases
_plan = functools.lru_cache(maxsize=16)(Plan)


def _plan_for(formulas: list, g: GroundingTable, ops: OperatorConfig,
              plan: Plan | None = None) -> Plan:
    """The plan of ``formulas`` on ``g`` under ``ops`` (``plan``, when the
    caller has it), after the instance cap is checked."""
    programs = plan.programs if plan else tuple(map(compile_formula, formulas))
    check_instance_cap(programs, len(g.batch), g.layout.size)
    return plan or _plan(programs, g.layout)


def _gathers(stack: _Stack, g: GroundingTable, mu):
    """The gather index of ``stack`` on ``g`` under ``mu``, or the
    SemanticError of the first step that cannot gather."""
    index = stack.index if not mu else _gather_index(
        stack.programs, g.layout,
        tuple((var, g.position(obj)) for var, obj in sorted(mu.items())))
    if isinstance(index, tuple):
        i, f, unbound = index
        instr = stack.programs[f].instrs[i]
        if unbound is not None:
            raise SemanticError(f"unbound variable {unbound!r} in {instr.atom}")
        example = [g.batch[0] if isinstance(t, int) else mu[t]
                   for t in instr.terms]  # the objects of one instance
        raise _missing(instr.atom.pred, example, g.names)
    return index


def _forward(stack: _Stack, g: GroundingTable, ops, index: dict) -> tuple:
    """(values, local) of a stack of programs of one shape: every step's
    array, with a leading formula axis and then one axis per quantified
    variable, and per connective its local partials, per quantifier its
    aggregation partials (outermost first)."""
    instrs = stack.programs[0].instrs
    values: list = [None] * len(instrs)
    local: list = [None] * len(instrs)
    kernels = ops.arrays
    binary = {"and": kernels.tnorm, "or": kernels.tconorm,
              "implies": kernels.implication}
    for i, instr in enumerate(instrs):
        op = instr.op
        if op == "atom":
            values[i] = g.values[index[i][0]]
        elif op == "not":
            values[i] = 1.0 - values[instr.args[0]]
        elif op == "forall":
            if i == stack.log_error:
                raise _log_product_error()
            X = values[instr.args[0]]
            if stack.spread[i] is not None:
                X = np.broadcast_to(X, stack.spread[i])
            if stack.log_space:
                order, flat, moved, back = stack.moves[i]
                v, P = kernels.aggregate(X.transpose(order).reshape(flat))
                _check_finite(ops, op, v, [P])
                levels = [P.reshape(moved).transpose(back)]
                v = v.reshape(stack.shapes[i])
            else:
                levels = []
                v = X
                for front, back, shape in stack.moves[i]:
                    agg, P = kernels.aggregate(v.transpose(front))
                    _check_finite(ops, op, agg, [P])
                    levels.append(P.transpose(back))
                    v = agg.reshape(shape)
                levels.reverse()
            local[i] = levels
            values[i] = v
        else:
            a, c = values[instr.args[0]], values[instr.args[1]]
            v, partials = binary[op](a, c)
            # a partial that is an operand (the product t-norm's, say) was
            # checked as a value: it is finite, so the first error is the same
            _check_finite(ops, op, v, [d for d in partials
                                       if d is not a and d is not c])
            local[i] = partials
            values[i] = v
    return values, local


def _root_values(stack: _Stack, values: list, out: list):
    """Each formula's value, as a Python float, from a stack's arrays,
    into ``out`` at the formula's position."""
    roots = values[-1].reshape(len(stack.members), -1)[:, 0].tolist()
    for k, value in zip(stack.members, roots):
        out[k] = value


def _backward(stack: _Stack, g: GroundingTable, index: dict, values: list,
              local: list) -> tuple:
    """The backward pass over a stack's forward arrays, in reverse
    program order: (the gradient rows, formulas x atoms; d(value)/d(body)
    per ground instance of the root quantifier block; when that body is a
    binary connective, its local partials, dI/da and dI/dc for an
    implication, each of size F or 1 on the formula axis, then one axis
    per quantified variable).  Without a root quantifier the last two
    are None, and so is the last without a connective body."""
    instrs = stack.programs[0].instrs
    root = len(instrs) - 1
    rows = np.zeros((len(stack.programs), g.layout.size))
    flat_rows = rows.reshape(-1)
    adjoints: list = [None] * len(instrs)
    adjoints[root] = np.ones(stack.shapes[root])
    body_adjoint = body_partials = None
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
                body_adjoint = adj
                if instrs[body].op in _CONNECTIVES:
                    body_partials = local[body]
            adjoints[body] = _sum_over(adj, stack.sums[i][0])
        else:
            for arg, partial, axes in zip(instr.args, local[i], stack.sums[i]):
                adjoints[arg] = _sum_over(adj * partial, axes)
    return rows, body_adjoint, body_partials


def _valuate(formulas: list, g: GroundingTable, ops: OperatorConfig,
             mu, plan: Plan | None = None, rows=None) -> list:
    """The value of each of ``formulas``, with a forward and a backward
    pass per stack of programs of one shape; ``rows(stack, its gradient
    rows)`` is called per stack.  Without ``mu`` the valuation is kept as
    ``g.kept``.  ``plan`` is theirs, when given."""
    plan = _plan_for(formulas, g, ops, plan)
    values, bodies = [None] * len(formulas), []
    with np.errstate(all="ignore"):
        for stack in plan.stacks(ops):
            index = _gathers(stack, g, mu)
            forward = _forward(stack, g, ops, index)
            stack_rows, *body = _backward(stack, g, index, *forward)
            if rows is not None:
                rows(stack, stack_rows)
            bodies.append(body)
            _root_values(stack, forward[0], values)
    if not mu:
        g.kept = plan, ops, bodies
    return values


def _forward_values(formulas: list, g: GroundingTable, ops: OperatorConfig,
                    mu: dict | None = None, plan: Plan | None = None) -> list:
    """The value of each of ``formulas`` under ``g``, ``ops`` and ``mu``,
    as ``_valuate`` finds it, from the forward pass alone: no gradient
    row or adjoint is built, and nothing is kept.  ``plan`` is theirs,
    when given."""
    out = [None] * len(formulas)
    with np.errstate(all="ignore"):
        for stack in _plan_for(formulas, g, ops, plan).stacks(ops):
            values, _ = _forward(stack, g, ops, _gathers(stack, g, mu))
            _root_values(stack, values, out)
    return out


def _recorded(formulas: list, g: GroundingTable, ops: OperatorConfig,
              mu) -> list:
    """Each of ``formulas`` as one fused node on ``g``'s tape whose
    parents are the leaves of the atoms of its atom slice, with its
    gradient row there as partials."""
    plan = _plan_for(formulas, g, ops)
    rows: list = [None] * len(formulas)

    def keep(stack, stack_rows):
        for k, row in zip(stack.members, stack_rows):
            rows[k] = row

    values = _valuate(formulas, g, ops, mu, plan, keep)
    tape = g.tape  # records the leaves, and their indices, first
    return [tape.record_fused("valuation", g._leaf_idx[at], value, row[at])
            for at, value, row in zip(plan.slices, values, rows)]


def valuate(f, g: GroundingTable, ops: OperatorConfig,
            mu: dict | None = None) -> Node:
    """Fuzzy truth value of ``f`` under grounding ``g`` and operators ``ops``.

    ``mu`` maps variables that ``f`` leaves free to object indices.  The
    returned tape node's parents are the ground atoms of every predicate
    ``f`` uses, with d(value)/d(atom) as partials.
    """
    return _recorded([f], g, ops, mu)[0]


def classical_values(program: Program, b: int, truth,
                     index: dict | None = None) -> list:
    """Boolean truth of every step of ``program`` over a batch of ``b``
    objects: ``truth`` maps each predicate to a boolean array whose last
    axes are batch positions, like ``GroundingTable.tensor``.  Any leading
    axes (a world axis, say) are kept in front of the program's own.
    With ``index``, each atom step ``i`` reads ``truth[index[i][0]]``
    instead: for the ``_gather_index`` of a stack of programs shaped like
    ``program`` on a grounding, ``truth`` is one boolean vector laid out
    like the grounding's atom vector, and each atom step gathers every
    formula of the stack from it, on a leading formula axis; an index
    ``(Ellipsis, columns)`` reads columns of a ``truth`` matrix and keeps
    its leading axes.  Quantifiers hold where every instance holds."""
    n_axes = program.n_axes
    out: list = []
    for i, instr in enumerate(program.instrs):
        args = [out[k] for k in instr.args]
        if index is not None and instr.op == "atom":
            value = truth[index[i][0]]
        elif instr.op == "atom":
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

    The weighted rows are summed one after another onto zeros, in
    reverse knowledge-base order, the order in which ``Tape.backward``
    from ``dfl_loss`` accumulates them, so both give the same gradient
    bit for bit."""
    if not kb.entries:
        return 0.0, np.zeros(g.layout.size)
    n = len(kb.entries)
    weights = np.array([-w for _, w in kb.entries])
    terms = np.zeros((n + 1, g.layout.size))  # formula k's row at n - k

    def weigh(stack, rows):
        terms[n - stack.rows] = weights[stack.rows, None] * rows

    values = _valuate(kb.formulas(), g, ops, None, rows=weigh)
    loss = -sum(w * value for (_, w), value in zip(kb.entries, values))
    if not math.isfinite(loss):
        raise ValueError(f"loss: non-finite value {loss!r}")
    # accumulate adds down the rows in order; np.add.reduce and np.sum
    # would add them pairwise, which rounds differently
    return loss, np.add.accumulate(terms, axis=0)[-1]


def dfl_loss(kb: KnowledgeBase, g: GroundingTable,
             ops: OperatorConfig) -> Node:
    """The loss of ``loss_gradient`` as the root of ``g``'s tape.

    The loss node's parents are the formula valuations, in knowledge-base
    order, each one fused node over the atom leaves."""
    tape = g.tape
    if not kb.entries:
        return tape.leaf(0.0, label="loss")
    vals = _recorded(kb.formulas(), g, ops, None)
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
    return dict(zip(g.keys(), loss_gradient(kb, g, ops)[1].tolist()))


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
