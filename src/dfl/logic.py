"""Function-free prenex first-order formulas, their compiled programs and
weighted knowledge bases.

Surface syntax (ASCII, line oriented):

    formula := "forall" ident ("," ident)* ":" expr
    expr    := or ("->" expr)?          # right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | atom | "(" expr ")"
    atom    := ident "(" ident ("," ident)* ")"

Precedence: ~ binds tightest, then &, then |, then ->.  Quantifiers are
prenex only; `exists` is reserved and rejected.  A knowledge-base file
(`.dfl`) holds one `[weight] formula` per line, `#` comments, weight
defaulting to 1.0.

The grammar has no nesting limit: parsing, printing, equality, hashing
and ``repr`` run over explicit stacks, not Python recursion.  Each
formula is compiled once (``compile_formula``) into a flat postorder
``Program``, which validation, ``free_and_bound``, ``quantifier_rank``,
the valuation engine, gradient-quality analysis and the oracle read.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "Atom", "Not", "And", "Or", "Implies", "ForAll", "Formula",
    "ParseError", "KnowledgeBase", "Instr", "Program", "compile_formula",
    "parse_formula", "parse_kb", "print_formula",
    "free_and_bound", "quantifier_rank", "validate_formula",
]


def _preorder(root) -> list:
    """The type and the non-formula fields of every node of ``root``, in
    preorder with children right to left.  Each node type has a fixed
    number of fields, so the list identifies the tree."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(type(node))
        for name in node.__slots__:
            value = getattr(node, name)
            (stack if isinstance(value, _Node) else out).append(value)
    return out


def _join(root, expand) -> str:
    """The text of ``root``: ``expand`` turns an item into its fragments
    in order, strings as they are and other items to expand in turn.
    The fragments are joined once, at the end."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(expand(item)))
    return "".join(out)


class _Node:
    """Structural equality, hashing and the dataclass ``repr`` of formula
    trees, computed without recursion."""

    __slots__ = ("__weakref__",)  # compile_formula refers to formulas weakly

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        def expand(node):
            items = [f"{type(node).__name__}("]
            for k, name in enumerate(node.__slots__):
                value = getattr(node, name)
                items += [f"{', ' if k else ''}{name}=",
                          value if isinstance(value, _Node) else repr(value)]
            return items + [")"]
        return _join(self, expand)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Atom(_Node):
    pred: str
    args: tuple

    def __str__(self):
        return f"{self.pred}({', '.join(self.args)})"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class And(_Node):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Or(_Node):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Implies(_Node):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ForAll(_Node):
    vars: tuple
    body: "Formula"


Formula = Atom | Not | And | Or | Implies | ForAll

# connective token -> (node type, precedence); ~ binds tightest
_CONNECTIVES = {"->": (Implies, 1), "|": (Or, 2), "&": (And, 3), "~": (Not, 4)}


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"->|[()~&|,:]|[A-Za-z_][A-Za-z0-9_]*|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Parser:
    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [None]  # None ends the input
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos]

    def loc(self):
        """(line, column) of the current token, or just past the last."""
        cols = [match.start() + 1 for match in _TOKEN_RE.finditer(self.text)]
        if self.pos < len(cols):
            return self.line, cols[self.pos]
        return self.line, cols[-1] + 1 if cols else 1

    def error(self, message):
        line, col = self.loc()
        raise ParseError(message, line, col)

    def take(self, expected=None):
        token = self.peek()
        if token is None:
            self.error("unexpected end of input"
                       + (f" (expected {expected!r})" if expected else ""))
        if expected is not None and token != expected:
            self.error(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def ident(self, what):
        token = self.peek()
        if token is None or not _IDENT_RE.fullmatch(token):
            self.error(f"expected {what}, got {token!r}")
        if token in ("forall", "exists"):
            self.error(f"keyword {token!r} cannot be used as {what}")
        self.pos += 1
        return token

    def parse_formula(self):
        if self.peek() == "exists":
            self.error("existential quantifiers are not supported; "
                       "only universally quantified prenex formulas are accepted")
        self.take("forall")
        vars_ = [self.ident("a variable")]
        while self.peek() == ",":
            self.take(",")
            vars_.append(self.ident("a variable"))
        if len(set(vars_)) != len(vars_):
            self.error(f"duplicate quantifier variable in {vars_}")
        self.take(":")
        body = self.parse_expr()
        if self.peek() is not None:
            self.error(f"unexpected trailing token {self.peek()!r}")
        return ForAll(tuple(vars_), body)

    def parse_expr(self):
        """Precedence climbing over explicit stacks: ``operands`` holds
        finished subformulas and ``pending`` the prefix ``~``, open
        parentheses and binary connectives not yet applied."""
        operands, pending = [], []
        while True:
            while self.peek() in ("~", "("):
                pending.append(self.take())
            operands.append(self.parse_atom())
            while True:
                token = self.peek()
                binary = token in _CONNECTIVES and token != "~"
                prec = _CONNECTIVES[token][1] if binary else 0
                # apply what binds tighter; -> groups to the right
                while pending and pending[-1] != "(" and (
                        _CONNECTIVES[pending[-1]][1] > prec
                        or _CONNECTIVES[pending[-1]][1] == prec
                        and token != "->"):
                    op, rhs = pending.pop(), operands.pop()
                    operands.append(Not(rhs) if op == "~" else
                                    _CONNECTIVES[op][0](operands.pop(), rhs))
                if binary:
                    pending.append(self.take())
                    break
                if not pending:
                    return operands.pop()
                self.take(")")
                pending.pop()

    def parse_atom(self):
        token = self.peek()
        if token in ("forall", "exists"):
            if token == "exists":
                self.error("existential quantifiers are not supported")
            self.error("quantifiers must be prenex (a single leading "
                       "'forall' chain)")
        pred = self.ident("a predicate")
        self.take("(")
        args = [self.ident("a variable")]
        while self.peek() == ",":
            self.take(",")
            args.append(self.ident("a variable"))
        self.take(")")
        return Atom(pred, tuple(args))


# ---------------------------------------------------------------------------
# compilation

class Instr(NamedTuple):
    """One step of a compiled formula.

    ``op`` is atom, not, and, or, implies or forall; ``args`` are the
    operand steps.  An atom step keeps its ``atom``, and its ``terms``
    hold, per argument, the axis of its quantified variable or, for a
    variable no quantifier binds, its name.  A forall lists its ``vars``
    and their ``axes`` outermost first.  Steps hold no reference to the
    formula itself, so a cached program does not keep its formula alive.
    """

    op: str
    atom: Atom | None = None
    args: tuple = ()
    terms: tuple = ()
    vars: tuple = ()
    axes: tuple = ()


@dataclass(frozen=True, eq=False)
class Program:
    """A formula as postorder steps; every step's value is an array with
    one axis per quantified variable (size 1 where it does not depend on
    that variable), and the last step is the formula.  Programs with the
    same ``shape`` differ only in their predicates and run as one stack
    of formulas.  ``fault`` says why the formula is outside the language
    the grammar admits, or is None; only a program without one is
    valuated.  Programs compare and hash by identity, so caches can key
    on them cheaply."""

    instrs: tuple
    n_axes: int
    shape: tuple
    fault: str | None

    @property
    def body(self) -> int:
        """Index of the body of the root quantifier block."""
        return self.instrs[-1].args[0]


_BINARY = {And: "and", Or: "or", Implies: "implies"}
# id(formula) -> (weak reference to the formula, its program); an entry
# leaves the cache when its formula is freed
_PROGRAMS: dict = {}


def compile_formula(formula) -> Program:
    """The postorder program of ``formula``, compiled once per formula
    object."""
    key = id(formula)
    hit = _PROGRAMS.get(key)
    if hit is not None and hit[0]() is formula:
        return hit[1]
    program = _compile(formula)
    _PROGRAMS[key] = (weakref.ref(formula, lambda _: _PROGRAMS.pop(key, None)),
                      program)
    return program


def _compile(formula) -> Program:
    instrs: list = []
    done: list = []  # step indices of finished operands
    n_axes = 0
    # (node, variable -> axis, operand count once its operands are queued);
    # a quantifier block is queued to finish as its tuple of variables
    stack = [(formula, {}, None)]
    while stack:
        node, env, arity = stack.pop()
        if arity is not None:
            args = tuple(done[-arity:])
            del done[-arity:]
            if isinstance(node, tuple):
                instr = Instr("forall", args=args, vars=node,
                              axes=tuple(env[v] for v in node))
            else:
                instr = Instr("not" if isinstance(node, Not)
                              else _BINARY[type(node)], args=args)
            done.append(len(instrs))
            instrs.append(instr)
        elif isinstance(node, Atom):
            done.append(len(instrs))
            instrs.append(Instr("atom", node,
                                terms=tuple(env.get(a, a) for a in node.args)))
        elif isinstance(node, ForAll):
            vars_ = []
            while isinstance(node, ForAll):
                vars_.extend(node.vars)
                node = node.body
            inner = dict(env)
            for var in vars_:
                inner[var] = n_axes
                n_axes += 1
            stack.append((tuple(vars_), inner, 1))
            stack.append((node, inner, None))
        elif isinstance(node, Not):
            stack.append((node, env, 1))
            stack.append((node.child, env, None))
        elif type(node) in _BINARY:
            stack.append((node, env, 2))
            stack.append((node.rhs, env, None))
            stack.append((node.lhs, env, None))
        else:
            raise ParseError(f"unknown node {node!r}")
    shape = tuple((i.op, i.args, i.terms, i.axes) for i in instrs)
    return Program(tuple(instrs), n_axes, shape, _fault(instrs))


def _fault(instrs: list) -> str | None:
    """Why the steps are outside the language the grammar admits (closed
    prenex formulas over atoms of at least one variable), or None."""
    if instrs[-1].op != "forall":
        return "formula must be universally quantified"
    for instr in instrs[:-1]:  # the root block is the last step
        free = [term for term in instr.terms if not isinstance(term, int)]
        if instr.op == "forall":
            return "quantifiers must be prenex"
        if instr.op == "atom" and not instr.terms:
            return f"atom {instr.atom} needs at least one variable"
        if free:
            return f"unbound variable {free[0]!r} in {instr.atom}"
    return None


def validate_formula(f: ForAll, signature: dict | None = None,
                     line: int = 1) -> dict:
    """Check that ``f`` is in the language (``Program.fault``), that its
    quantifier block is one ``forall`` chain, and arity consistency;
    returns the (possibly updated) predicate signature table."""
    program = compile_formula(f)
    if program.fault is not None:
        raise ParseError(program.fault, line)
    # a root block longer than f.vars is a ForAll directly under f
    if program.instrs[-1].vars != f.vars:
        raise ParseError("quantifiers must be prenex", line)
    signature = dict(signature or {})
    for instr in program.instrs:
        if instr.op != "atom":
            continue
        atom = instr.atom
        arity = signature.setdefault(atom.pred, len(atom.args))
        if arity != len(atom.args):
            raise ParseError(f"arity conflict for {atom.pred!r}: "
                             f"{len(atom.args)} vs {arity}", line)
    return signature


def parse_formula(text: str, line: int = 1) -> ForAll:
    formula = _Parser(text, line).parse_formula()
    validate_formula(formula, line=line)
    return formula


_PREC = {cls: prec for cls, prec in _CONNECTIVES.values()}
_SYMBOL = {cls: f" {token} " for token, (cls, _) in _CONNECTIVES.items()}


def _fragments(item) -> list:
    """The fragments of ``(node, outer)``, where ``outer`` is the
    precedence below which the context needs ``node`` parenthesized."""
    node, outer = item
    if isinstance(node, Atom):
        return [str(node)]
    prec = _PREC[type(node)]
    if isinstance(node, Not):
        return ["~", (node.child, prec)]
    # & and | group to the left and -> to the right: the operand on the
    # other side needs parentheses at equal precedence
    right = isinstance(node, Implies)
    parts = [(node.lhs, prec + right), _SYMBOL[type(node)],
             (node.rhs, prec + (not right))]
    return ["(", *parts, ")"] if prec < outer else parts


def print_formula(f: ForAll) -> str:
    """Canonical text; ``parse_formula(print_formula(f)) == f``."""
    return f"forall {', '.join(f.vars)}: {_join((f.body, 0), _fragments)}"


def free_and_bound(f: ForAll):
    """Quantifier variables in declaration order plus all atoms in
    left-to-right order."""
    instrs = compile_formula(f).instrs
    return instrs[-1].vars, [i.atom for i in instrs if i.op == "atom"]


def quantifier_rank(f: Formula) -> int:
    """Number of quantified variables (the d in the b**d grounding cost)."""
    return compile_formula(f).n_axes


@dataclass
class KnowledgeBase:
    entries: list = field(default_factory=list)  # (formula, weight) pairs
    signature: dict = field(default_factory=dict)  # predicate -> arity

    def __len__(self):
        return len(self.entries)

    def formulas(self):
        return [f for f, _ in self.entries]

    def add(self, formula: ForAll, weight: float = 1.0, line: int = 1):
        weight = float(weight)
        if not math.isfinite(weight) or weight <= 0.0:
            raise ParseError(f"formula weight must be positive and finite, "
                             f"got {weight!r}", line)
        self.signature = validate_formula(formula, self.signature, line)
        self.entries.append((formula, weight))
        return self


_WEIGHT_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|"
                        r"-[0-9.][0-9.eE+-]*)\s+(.*)$")


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base file: `[weight] formula` lines, `#` comments."""
    kb = KnowledgeBase()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        weight = 1.0
        match = _WEIGHT_RE.match(line)
        if match:
            try:
                weight = float(match.group(1))
            except ValueError:  # the negative branch admits "-1.2.3"
                raise ParseError(f"bad formula weight {match.group(1)!r}",
                                 lineno) from None
            line = match.group(2)
        formula = _Parser(line, lineno).parse_formula()
        kb.add(formula, weight, lineno)
    return kb
