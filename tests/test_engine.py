"""The array valuation engine against the recursive scalar reference
(tests/scalar_reference.py): formula values, every atom gradient and the
gradient-quality metrics agree to 1e-12 under every operator, and both
raise the same exceptions."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

import scalar_reference
from scalar_reference import classical_truth
from dfl.analysis import GradientQuality, gradient_quality, labeling_from_atoms
from dfl.autodiff import Node
from dfl.logic import (And, Atom, ForAll, Implies, KnowledgeBase, Not, Or,
                       compile_formula, parse_formula)
from dfl.operators import (AGGREGATOR_NAMES, IMPLICATION_NAMES, TCONORM_NAMES,
                           TNORM_NAMES, parse_operator_config)
from dfl.valuation import (Domain, LookupInterpretation, SemanticError,
                           _forward_values, _gather_index, _valuate,
                           build_grounding, classical_values, dfl_loss,
                           loss_gradient, valuate)

BASE = "tnorm=product tconorm=product implication=reichenbach aggregator=product"


def _overrides():
    """One config per catalog operator, each varying one family of BASE."""
    out = []
    for name in TNORM_NAMES:
        out.append(f"tnorm={name}" + (":p=2" if name == "yager" else ""))
    for name in TCONORM_NAMES:
        out.append(f"tconorm={name}" + (":p=2" if name == "yager" else ""))
    for name in IMPLICATION_NAMES:
        if name == "sigmoidal":
            out.append("implication=sigmoidal:base=kleene_dienes,s=9,b0=-0.5")
        elif name in ("yager_s", "yager_r"):
            out.append(f"implication={name}:p=2")
        else:
            out.append(f"implication={name}")
    for name in AGGREGATOR_NAMES:
        params = {"yager": [":p=2"], "pme": [":p=0.5", ":p=2"],
                  "pmean": [":p=0.5", ":p=2"]}.get(name, [""])
        out += [f"aggregator={name}{p}" for p in params]
    return out


CONFIGS = _overrides()
SIGNATURE = {"p": 1, "q": 1, "r": 2}


def _tree(rng, vars_, depth):
    """Random quantifier-free body over p/1, q/1 and r/2; atoms repeat
    (shared atoms) and r may repeat a variable (r(x, x))."""
    if depth == 0 or rng.random() < 0.3:
        pred = rng.choice(["p", "q", "r"])
        return Atom(pred, tuple(rng.choice(vars_)
                                for _ in range(SIGNATURE[pred])))
    kind = rng.choice(["and", "or", "implies", "not", "shared"])
    if kind == "not":
        return Not(_tree(rng, vars_, depth - 1))
    if kind == "shared":
        sub = _tree(rng, vars_, depth - 1)
        return And(sub, Or(sub, Not(sub)))
    cls = {"and": And, "or": Or, "implies": Implies}[kind]
    return cls(_tree(rng, vars_, depth - 1), _tree(rng, vars_, depth - 1))


def _random_formulas(rng):
    """Prenex formulas, a nested quantifier under a connective, and one
    formula with a variable z left free; the engine refuses the last
    two."""
    prenex = [ForAll(("x", "y"), Implies(_tree(rng, ["x", "y"], 2),
                                         _tree(rng, ["x", "y"], 2))),
              ForAll(("x",), ForAll(("y",), _tree(rng, ["x", "y"], 3)))]
    nested = ForAll(("x",), And(_tree(rng, ["x"], 1),
                                ForAll(("y",), _tree(rng, ["x", "y"], 2))))
    free = ForAll(("x",), Or(_tree(rng, ["x", "z"], 2), Atom("r", ("z", "x"))))
    return prenex, nested, free


def _grounding(table, batch):
    domain = Domain([f"o{i}" for i in range(3)])
    return build_grounding(LookupInterpretation(table), domain, SIGNATURE, batch)


def _table(rng, ties=False):
    """Random atom values; with ``ties``, values from {1/4, 1/2, 3/4}, whose
    sums and products are exact, so ties and branch boundaries such as
    a + b = 1 occur and the conventions there are compared too."""
    table = {}
    for pred, arity in SIGNATURE.items():
        objs = [(i,) for i in range(3)] if arity == 1 else \
            [(i, j) for i in range(3) for j in range(3)]
        for o in objs:
            table[(pred, o)] = rng.choice([0.25, 0.5, 0.75]) if ties \
                else rng.random()
    return table


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _engine_valuate(formula, g, ops):
    """The engine's value of ``formula`` as a tape node whose adjoints are
    d(value)/datom: the loss of a one-formula knowledge base of weight 1,
    -value, negated.  Its value is ``valuate``'s, bit for bit."""
    loss = dfl_loss(KnowledgeBase([(formula, 1.0)]), g, ops)
    node = g.tape.record("value", [loss], -loss.value, [-1.0])
    assert valuate(formula, g, ops) == node.value
    return node


def _gradients(valuate_fn, formula, table, batch, ops):
    g = _grounding(table, batch)
    node = valuate_fn(formula, g, ops)
    grads = g.tape.backward(node)
    return node.value, {key: grads[leaf] for key, leaf in g.nodes.items()}


def _outcome(valuate_fn, formula, table, batch, ops):
    try:
        return _gradients(valuate_fn, formula, table, batch, ops)
    except (SemanticError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("override", CONFIGS)
def test_engine_matches_scalar_reference(override):
    ops = parse_operator_config(f"{BASE} {override}")
    rng = random.Random(override)
    for trial in range(6):
        table = _table(rng, ties=trial % 2 == 1)
        prenex, nested, free = _random_formulas(rng)
        batch = [[0], [0, 2], [0, 1, 2]][trial % 3]
        for formula in (nested, free):
            assert _outcome(_engine_valuate, formula, table, batch,
                            ops) is SemanticError
        for formula in prenex:
            got = _outcome(_engine_valuate, formula, table, batch, ops)
            want = _outcome(scalar_reference.valuate, formula, table, batch,
                            ops)
            if isinstance(want, type):
                assert got is want, (override, formula)
                continue
            assert _close(got[0], want[0]), (override, formula, got[0], want[0])
            for key, grad in want[1].items():
                assert _close(got[1][key], grad), (override, formula, key)


def _values_or_error(fn, formulas, table, batch, ops):
    try:
        return [value.hex() for value in fn(formulas, _grounding(table, batch),
                                            ops)]
    except (SemanticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("override", CONFIGS)
def test_forward_values_are_the_pass_values_bit_for_bit(override):
    ops = parse_operator_config(f"{BASE} {override}")
    rng = random.Random(f"forward {override}")
    for trial in range(6):
        table = _table(rng, ties=trial % 2 == 1)
        prenex, nested, free = _random_formulas(rng)
        batch = [[0], [0, 2], [0, 1, 2]][trial % 3]
        # prenex twice stacks formulas of one shape; nested and free are
        # refused by both
        cases = [prenex, prenex + prenex[::-1], [nested], [free] + prenex]
        for formulas in cases:
            want = _values_or_error(_valuate, formulas, table, batch, ops)
            got = _values_or_error(_forward_values, formulas, table, batch,
                                   ops)
            assert got == want, (override, formulas)


@pytest.mark.parametrize("batch", [[0], [0, 1]])
def test_unbound_variable_and_missing_atom_raise_semantic_error(batch):
    ops = parse_operator_config(BASE)
    table = _table(random.Random(3))
    unbound = ForAll(("x",), And(Atom("p", ("x",)), Atom("q", ("z",))))
    missing = ForAll(("x",), Atom("s", ("x",)))
    for valuate_fn in (valuate, scalar_reference.valuate):
        with pytest.raises(SemanticError, match="unbound variable 'z'"):
            valuate_fn(unbound, _grounding(table, batch), ops)
        with pytest.raises(SemanticError, match="missing"):
            valuate_fn(missing, _grounding(table, batch), ops)


@pytest.mark.parametrize("config, q, batch", [
    # Goguen gives 0 at a = 1, c = 0, and log_product rejects the 0
    ("implication=goguen aggregator=log_product", [0.0, 0.0], [0]),
    ("implication=goguen aggregator=log_product", [0.0, 0.0], [0, 1]),
    # pme with p < 1 has an infinite partial at an instance valued 1
    ("aggregator=pme:p=0.5", [1.0, 0.5], [0, 1]),
])
def test_non_finite_valuations_raise_value_error(config, q, batch):
    ops = parse_operator_config(config)
    formula = ForAll(("x",), Implies(Atom("p", ("x",)), Atom("q", ("x",))))
    table = {("p", (0,)): 1.0, ("p", (1,)): 1.0,
             ("q", (0,)): q[0], ("q", (1,)): q[1]}
    domain = Domain(["o0", "o1"])
    for valuate_fn in (valuate, scalar_reference.valuate):
        g = build_grounding(LookupInterpretation(table), domain,
                            {"p": 1, "q": 1}, batch, clamp_eps=0.0)
        with pytest.raises(ValueError) as raised:
            valuate_fn(formula, g, ops)
        if valuate_fn is valuate:
            message = str(raised.value)
    # the forward pass alone raises the same error
    g = build_grounding(LookupInterpretation(table), domain,
                        {"p": 1, "q": 1}, batch, clamp_eps=0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _forward_values([formula], g, ops)


def _reference_quality(kb, g, ops, atom_fn):
    """cons%, cu_cons% and cu_ant% from the reference's per-instance
    pass-through slots and per-instance classical truth."""
    cons = ant = cu_cons = cu_ant = 0.0
    for formula, _ in kb.entries:
        instances = []
        root = scalar_reference.valuate(formula, g, ops, instances=instances)
        grads = g.tape.backward(root)
        for rec in instances:
            d_cons, d_ant = grads[rec.consequent], -grads[rec.antecedent]
            cons += d_cons
            ant += d_ant
            cu_cons += classical_truth(rec.consequent_formula, rec.assignment,
                                       atom_fn) * d_cons
            cu_ant += classical_truth(Not(rec.antecedent_formula),
                                      rec.assignment, atom_fn) * d_ant
    return cons, ant, cu_cons / cons, cu_ant / ant


@pytest.mark.parametrize("override", [
    "", "implication=kleene_dienes tnorm=godel", "aggregator=log_product",
    "implication=sigmoidal:base=reichenbach,s=9,b0=-0.5 aggregator=log_product",
    "implication=lukasiewicz aggregator=mae"])
@pytest.mark.parametrize("batch", [[0], [0, 1, 2]])
def test_gradient_quality_matches_per_instance_reference(override, batch):
    ops = parse_operator_config(f"{BASE} {override}")
    rng = random.Random(f"{override}{batch}")
    kb = KnowledgeBase()
    for _ in range(3):
        kb.add(_random_formulas(rng)[0][0])
    table = _table(rng)
    labels = {key: rng.random() < 0.5 for key in table}

    def atom_fn(pred, objs):
        return labels[(pred, objs)]

    g = _grounding(table, batch)
    dfl_loss(kb, g, ops)  # gradient_quality reuses this valuation
    got = gradient_quality(kb, g, ops, labeling_from_atoms(atom_fn))
    cons, ant, cu_cons, cu_ant = _reference_quality(
        kb, _grounding(table, batch), ops, atom_fn)
    assert _close(got.cons_magnitude, cons) and _close(got.ant_magnitude, ant)
    assert _close(got.cu_cons_pct, cu_cons) and _close(got.cu_ant_pct, cu_ant)


def _per_formula_quality(kb, g, ops, labels):
    """``gradient_quality`` one formula at a time: each formula's own
    one-formula valuation (kept on ``g``), the label of every atom lifted
    over its program alone, and its sums taken one formula at a time."""
    truth = np.array([bool(labels.atom_fn(pred, objs))
                      for pred, objs in g.keys()])
    total_cons = total_ant = total_cu_cons = total_cu_ant = 0.0
    used = skipped = 0
    b = len(g.batch)
    for formula, _ in kb.entries:
        program = compile_formula(formula)
        body = program.body
        if program.instrs[body].op != "implies":
            skipped += 1
            continue
        used += 1
        _valuate([formula], g, ops)
        adj, partials = g.kept[2][0]  # the one stack, of one formula
        adj = adj[0]
        da, dc = (d[0] for d in partials)
        shape = [1] * program.n_axes
        for axis in program.instrs[-1].axes:
            shape[axis] = b
        d_cons = np.broadcast_to(adj * dc, tuple(shape))
        d_ant = np.broadcast_to(-(adj * da), tuple(shape))
        ante, cons = program.instrs[body].args
        holds = classical_values(program, truth,
                                 _gather_index((program,), g.layout))
        cons_true, ante_false = holds[cons][0], ~holds[ante][0]
        total_cons += float(d_cons.sum())
        total_ant += float(d_ant.sum())
        total_cu_cons += float((cons_true * d_cons).sum())
        total_cu_ant += float((ante_false * d_ant).sum())
    denom = total_cons + total_ant
    nan = float("nan")
    return GradientQuality(
        total_cons, total_ant, total_cons / denom if denom > 0 else nan,
        total_cu_cons / total_cons if total_cons > 0 else nan,
        total_cu_ant / total_ant if total_ant > 0 else nan, used, skipped)


_SAME_SHAPE = ["forall x, y: p(x) & r(x, y) -> q(y)",
               "forall x, y: q(x) & r(x, y) -> p(y)",
               "forall x, y: p(x) & r(x, y) -> p(y)",
               "forall x: p(x) -> q(x)", "forall x: q(x) -> q(x)",
               "forall x: p(x) -> ~q(x)",
               "forall x, y: p(x) | q(y)", "forall x, y: q(x) | p(y)"]


def _quality_kb(rng):
    """``_random_kb`` (mixed shapes, non-implication bodies and a formula
    object added twice) with stacks of several implication-bodied
    formulas of one shape interleaved."""
    kb = _random_kb(rng)
    for text in _SAME_SHAPE:
        kb.entries.insert(rng.randrange(len(kb.entries) + 1),
                          (parse_formula(text), rng.uniform(0.1, 4.0)))
    return kb


def _fields(quality):
    return [("nan" if isinstance(v, float) and math.isnan(v) else v)
            for v in dataclasses.astuple(quality)]


def _valuate_first(how, kb, g, ops, other):
    if how == "dfl_loss":
        dfl_loss(kb, g, ops)
    elif how == "loss_gradient":
        loss_gradient(kb, g, ops)
    elif how == "singly":
        for f in kb.formulas():
            _valuate([f], g, ops)
    elif how == "other ops":
        dfl_loss(kb, g, other)
    elif how == "some":  # a subset of one stack, then the rest singly
        _valuate(kb.formulas()[::2], g, ops)
        _valuate([kb.formulas()[1]], g, ops)


@pytest.mark.parametrize("override", CONFIGS)
@pytest.mark.parametrize("batch", [[0], [0, 1, 2]])
def test_gradient_quality_is_the_per_formula_quality_bit_for_bit(override,
                                                                 batch):
    ops = parse_operator_config(f"{BASE} {override}")
    other = parse_operator_config("implication=godel aggregator=min")
    rng = random.Random(f"quality {override} {batch}")
    for trial in range(2):
        kb = _quality_kb(rng)
        table = _table(rng, ties=trial == 1)
        labels = {key: rng.random() < 0.5 for key in table}
        labeling = labeling_from_atoms(lambda pred, objs: labels[(pred, objs)])
        try:
            want = _fields(_per_formula_quality(kb, _grounding(table, batch),
                                                ops, labeling))
        except (SemanticError, ValueError) as exc:
            want = type(exc), str(exc)
        for how in ("none", "dfl_loss", "loss_gradient", "singly",
                    "other ops", "some"):
            g = _grounding(table, batch)
            try:
                _valuate_first(how, kb, g, ops, other)
                got = _fields(gradient_quality(kb, g, ops, labeling))
            except (SemanticError, ValueError) as exc:
                got = type(exc), str(exc)
            assert got == want, (how, override)


def test_gradient_quality_reads_the_kept_valuation(monkeypatch):
    import dfl.analysis
    ops = parse_operator_config(BASE)
    other = parse_operator_config("implication=godel aggregator=min")
    rng = random.Random(11)
    kb, table = _quality_kb(rng), _table(rng)
    labeling = labeling_from_atoms(lambda p, o: 1)
    calls = []
    original = dfl.analysis._valuate

    def counted(formulas, *args):
        calls.append(len(formulas))
        return original(formulas, *args)

    monkeypatch.setattr(dfl.analysis, "_valuate", counted)
    g = _grounding(table, [0, 1, 2])
    loss_gradient(kb, g, ops)
    kept = g.kept
    gradient_quality(kb, g, ops, labeling)
    assert calls == [] and g.kept is kept
    # a valuation under other operators is not read: each stack of
    # implication-bodied formulas is valuated anew
    loss_gradient(kb, g, other)
    gradient_quality(kb, g, ops, labeling)
    assert calls and sum(calls) <= len(kb)


def test_gradient_quality_builds_no_leaf_nodes(monkeypatch):
    ops = parse_operator_config(BASE)
    rng = random.Random(7)
    kb, table = _quality_kb(rng), _table(rng)
    g = _grounding(table, [0, 1, 2])
    built = []
    original = Node.__init__

    def counted(self, tape, idx):
        built.append(idx)
        original(self, tape, idx)

    monkeypatch.setattr(Node, "__init__", counted)
    loss = dfl_loss(kb, g, ops)
    nodes = len(g.tape)
    grads = g.tape.backward(loss)
    gradient_quality(kb, g, ops, labeling_from_atoms(lambda p, o: 1))
    monkeypatch.undo()
    # one fused loss node; no leaf handle, no label
    assert sorted(built) == list(range(len(g), nodes))
    assert nodes == len(g) + 1 == loss.idx + 1
    assert g.tape._labels[:len(g)] == [None] * len(g)
    assert [grads[g.nodes[key]] for key in g.keys()] == list(
        _tape_loss_gradient(kb, _grounding(table, [0, 1, 2]), ops)[1])


def test_formulas_compile_once_into_postorder_programs():
    formula = ForAll(("x", "y"), Implies(And(Atom("p", ("x",)),
                                             Atom("r", ("x", "x"))),
                                         Atom("q", ("y",))))
    program = compile_formula(formula)
    assert compile_formula(formula) is program
    assert [s.op for s in program.instrs] == ["atom", "atom", "and", "atom",
                                              "implies", "forall"]
    assert program.n_axes == 2 and program.instrs[1].terms == (0, 0)
    assert program.body == 4


def test_valuate_is_the_forward_value_and_records_nothing():
    ops = parse_operator_config(BASE)
    table = _table(random.Random(5))
    formula = _random_formulas(random.Random(6))[0][0]
    g = _grounding(table, [0, 1, 2])
    value = valuate(formula, g, ops)
    assert type(value) is float
    assert g._tape is None and g.kept is None
    assert value == _valuate([formula], _grounding(table, [0, 1, 2]), ops)[0]


def test_loss_is_one_fused_node_over_the_atom_leaves():
    ops = parse_operator_config(BASE)
    rng = random.Random(6)
    kb = _random_kb(rng)
    g = _grounding(_table(rng), [0, 1, 2])
    loss = dfl_loss(kb, g, ops)
    assert len(g.tape) == len(g) + 1 == loss.idx + 1
    parents = g.tape.parents[loss.idx]
    assert [idx for idx, _ in parents] == [leaf.idx for leaf in g.nodes.values()]
    assert [d for _, d in parents] == loss_gradient(kb, g, ops)[1].tolist()


def _random_kb(rng):
    """Weighted prenex formulas with repeated variables, negations and
    shared subformulas; one formula appears twice with two weights."""
    kb = KnowledgeBase(signature=dict(SIGNATURE))
    for _ in range(3):
        kb.entries += [(f, rng.uniform(0.1, 4.0)) for f in _random_formulas(rng)[0]]
    kb.entries.append((kb.entries[0][0], 0.5))
    return kb


def _tape_loss_gradient(kb, g, ops):
    """(L, dL/datom in vector order) through dfl_loss and Tape.backward."""
    loss = dfl_loss(kb, g, ops)
    grads = g.tape.backward(loss)
    return loss.value, np.array([grads[g.nodes[key]] for key in g.keys()])


@pytest.mark.parametrize("override", [
    "", "aggregator=log_product",
    "tnorm=godel tconorm=godel implication=kleene_dienes aggregator=min",
    "tnorm=lukasiewicz implication=lukasiewicz aggregator=mae",
    "implication=sigmoidal:base=reichenbach,s=9,b0=-0.5 aggregator=log_product",
    "tnorm=yager:p=2 aggregator=pme:p=2"])
def test_loss_gradient_is_the_tape_gradient_bit_for_bit(override):
    ops = parse_operator_config(f"{BASE} {override}")
    rng = random.Random(f"loss_gradient {override}")
    for trial in range(6):
        kb = _random_kb(rng)
        table = _table(rng, ties=trial % 2 == 1)
        batch = [[0], [0, 2], [0, 1, 2]][trial % 3]
        g = _grounding(table, batch)
        loss, grad = loss_gradient(kb, g, ops)
        assert len(g.tape) == len(g)  # the tape holds only the leaves
        tape_loss, tape_grad = _tape_loss_gradient(kb, _grounding(table, batch),
                                                   ops)
        assert loss == tape_loss
        assert grad.tobytes() == tape_grad.tobytes()  # -0.0 differs here
        g = _grounding(table, batch)
        nodes = [scalar_reference.valuate(f, g, ops) for f in kb.formulas()]
        weights = [w for _, w in kb.entries]
        root = g.tape.record("loss", nodes,
                             -sum(w * n.value for w, n in zip(weights, nodes)),
                             [-w for w in weights])
        adjoints = g.tape.backward(root)
        assert _close(loss, root.value)
        for key, d in zip(g.keys(), grad.tolist()):
            assert _close(d, adjoints[g.nodes[key]]), (override, key)


@pytest.mark.parametrize("override", ["", "tnorm=godel aggregator=min"])
def test_loss_gradient_adds_many_rows_in_tape_order(override):
    # with one atom every row is one column, where np.sum and np.add.reduce
    # would add the rows pairwise; 12 formulas and spread weights make
    # pairwise and in-order sums differ
    ops = parse_operator_config(f"{BASE} {override}")
    rng = random.Random(f"one atom {override}")
    bodies = [Atom("p", ("x",)), Not(Atom("p", ("x",))),
              Or(Atom("p", ("x",)), Not(Atom("p", ("x",)))),
              Implies(Atom("p", ("x",)), And(Atom("p", ("x",)),
                                             Atom("p", ("x",))))]
    for trial in range(20):
        kb = KnowledgeBase(signature={"p": 1})
        kb.entries = [(ForAll(("x",), rng.choice(bodies)),
                       rng.choice([1.0, 1e-3, 7.0]) * rng.uniform(0.1, 9.0))
                      for _ in range(12)]
        table = {("p", (0,)): rng.random()}

        def grounding():
            return build_grounding(LookupInterpretation(table), Domain(["a"]),
                                   {"p": 1}, [0])

        g = grounding()
        loss, grad = loss_gradient(kb, g, ops)
        assert len(grad) == 1
        tape_loss, tape_grad = _tape_loss_gradient(kb, grounding(), ops)
        assert loss == tape_loss
        assert grad.tobytes() == tape_grad.tobytes()
