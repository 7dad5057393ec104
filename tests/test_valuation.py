import itertools
import math
import random
import re
import sys

import numpy as np
import pytest

from dfl.logic import (And, Atom, ForAll, KnowledgeBase, Not, ParseError,
                       parse_formula, parse_kb)
from dfl.operators import OperatorConfig, parse_operator_config
from dfl import valuation
from dfl.valuation import (
    Domain, InstanceCapError, LookupInterpretation,
    SemanticError, atom_gradients, build_grounding, dfl_loss, parse_grounding,
    valuate,
)
from conftest import SCENE_VALUATION, SCENE_VALUATION_GRADIENTS
import scalar_reference

PRODUCT = OperatorConfig()  # T_P, S_P, I_RC, A_TP


def _uniform_domain(n):
    return Domain([f"o{i+1}" for i in range(n)])


def _const_interp(signature, value):
    table = {}
    for pred, arity in signature.items():
        for objs in itertools.product(range(10), repeat=arity):
            table[(pred, objs)] = value
    return LookupInterpretation(table)


# ---------------------------------------------------------------------------
# grounding construction

def test_grounding_counts_unary():
    domain = _uniform_domain(3)
    g = build_grounding(_const_interp({"p": 1}, 0.5), domain, {"p": 1}, [0, 1, 2])
    assert len(g) == 3


def test_grounding_counts_binary():
    domain = _uniform_domain(3)
    g = build_grounding(_const_interp({"r": 2}, 0.5), domain, {"r": 2}, [0, 1, 2])
    assert len(g) == 9


def test_grounding_scene_matches_table(scene):
    _, g = scene
    assert len(g) == 10
    assert g.node("chair", (0,)).value == pytest.approx(0.9)
    assert g.node("partOf", (1, 0)).value == pytest.approx(0.95)


def test_grounding_rejects_out_of_range_scorer():
    domain = _uniform_domain(2)
    with pytest.raises(SemanticError):
        build_grounding(_const_interp({"p": 1}, 1.5), domain, {"p": 1}, [0, 1])


def test_grounding_rejects_repeated_batch_objects():
    domain = _uniform_domain(2)
    with pytest.raises(SemanticError, match="distinct"):
        build_grounding(_const_interp({"p": 1}, 0.5), domain, {"p": 1}, [0, 0])


def test_grounding_leaves_match_per_leaf_recording():
    from dfl.autodiff import Tape
    rng = random.Random(5)
    signature, batch = {"p": 1, "r": 2, "s": 3}, [3, 0, 2]
    table = {(pred, objs): rng.random() for pred, arity in signature.items()
             for objs in itertools.product(range(4), repeat=arity)}
    interp = LookupInterpretation(table)
    g = build_grounding(interp, _uniform_domain(4), signature, batch)
    tape = g.tape
    reference = Tape()
    expected = {key: reference.leaf(v, label=f"{key[0]}{key[1]}")
                for key, v in zip(g.keys(), g.values.tolist())}
    assert list(g.nodes) == list(expected) == g.keys()
    assert [n.idx for n in g.nodes.values()] == [
        n.idx for n in expected.values()] == list(range(len(tape)))
    assert all(n.tape is tape for n in g.nodes.values())
    assert tape.values == reference.values
    assert tape.labels == reference.labels
    assert tape.parents == reference.parents
    assert g.tape is tape
    loss = dfl_loss(parse_kb("forall x, y: p(x) -> r(x, y)"), g, PRODUCT)
    assert [idx for idx, _ in tape.parents[loss.idx]] == [
        g.nodes[key].idx for key in g.keys()]


class _Tables:
    """An interpretation that offers truth tables instead of scores."""

    def __init__(self, tables):
        self.tables = tables

    def truth_table(self, pred):
        return self.tables[pred]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 1.5, -0.01])
def test_scorer_errors_name_the_atom_on_both_paths(bad):
    domain = Domain(["a", "b", "c"])
    table = {("p", (i,)): 0.5 for i in range(3)}
    table.update({("r", (i, j)): 0.5 for i in range(3) for j in range(3)})
    table[("r", (2, 0))] = bad
    signature = {"p": 1, "r": 2}
    message = rf"scorer output {bad!r} for r\(c,a\) is outside \[0, 1\]"
    with pytest.raises(SemanticError, match=message):
        build_grounding(LookupInterpretation(table), domain, signature,
                        [0, 1, 2])
    r = np.full((3, 3), 0.5)
    r[2, 0] = bad
    tables = _Tables({"p": np.full(3, 0.5), "r": r})
    with pytest.raises(SemanticError, match=message):
        build_grounding(tables, domain, signature, [0, 1, 2])
    # the batch slices the tables: r(c,a) is outside the batch [1, 0]
    g = build_grounding(tables, domain, signature, [1, 0])
    assert g.tensor("r").tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_truth_tables_and_scores_build_the_same_vector():
    rng = np.random.default_rng(3)
    tables = {"p": rng.random(4), "r": rng.random((4, 4))}
    table = {("p", (i,)): float(tables["p"][i]) for i in range(4)}
    table.update({("r", (i, j)): float(tables["r"][i, j])
                  for i in range(4) for j in range(4)})
    signature, batch = {"r": 2, "p": 1}, [3, 0, 2]
    built = build_grounding(_Tables(tables), _uniform_domain(4), signature, batch)
    scored = build_grounding(LookupInterpretation(table), _uniform_domain(4),
                             signature, batch)
    assert built.values.tobytes() == scored.values.tobytes()
    assert built.keys() == scored.keys() == [
        (pred, objs) for pred in ("p", "r")
        for objs in itertools.product(batch, repeat=signature[pred])]
    assert built.tensor("r")[0, 1] == max(table[("r", (3, 0))], 1e-7)


class _Scorer:
    """A table asked one atom at a time."""

    def __init__(self, interp):
        self.score = interp.score


def test_lookup_table_is_read_like_one_score_per_atom():
    rng = random.Random(11)
    signature, batch = {"r": 2, "p": 1}, [3, 0, 2]
    table = {(pred, objs): rng.random() for pred, arity in signature.items()
             for objs in itertools.product(range(4), repeat=arity)}
    table[("p", (0,))] = 1  # an int, read as 1.0 either way
    names = [f"o{i}" for i in range(4)]
    for interp in (LookupInterpretation(table, names),
                   _Scorer(LookupInterpretation(table, names))):
        g = build_grounding(interp, _uniform_domain(4), signature, batch)
        assert g.raw_values.tolist() == [float(table[key]) for key in g.keys()]
    # a missing atom falls back to the per-atom path, which names it
    for missing in [("r", (0, 2)), ("p", (2,))]:
        partial = {k: v for k, v in table.items() if k != missing}
        messages = set()
        for interp in (LookupInterpretation(partial, names),
                       _Scorer(LookupInterpretation(partial, names))):
            with pytest.raises(SemanticError) as excinfo:
                build_grounding(interp, _uniform_domain(4), signature, batch)
            messages.add(str(excinfo.value))
        pred, objs = missing
        assert messages == {f"no probability for ground atom "
                            f"{pred}({','.join(names[i] for i in objs)})"}


def test_missing_atom_names_objects():
    g = build_grounding(_const_interp({"p": 1}, 0.5), Domain(["a", "b"]),
                        {"p": 1}, [0, 1])
    with pytest.raises(SemanticError, match=r"ground atom q\(a\) missing"):
        valuate(parse_formula("forall x: p(x) -> q(x)"), g, PRODUCT)
    with pytest.raises(SemanticError, match=r"ground atom q\(b\) missing"):
        g.node("q", (1,))


def test_grounding_clamps():
    domain = _uniform_domain(1)
    g = build_grounding(_const_interp({"p": 1}, 1.0), domain, {"p": 1}, [0])
    assert g.node("p", (0,)).value == 1.0 - 1e-7
    assert g.raw[("p", (0,))] == 1.0


# ---------------------------------------------------------------------------
# valuation

def test_example_scene_valuation(scene):
    kb, g = scene
    value = valuate(kb.formulas()[0], g, PRODUCT)
    assert value == pytest.approx(SCENE_VALUATION, abs=5e-4)


def test_all_true_kb_for_every_aggregator():
    kb = parse_kb("forall x: p(x)")
    domain = _uniform_domain(3)
    for agg, p in [("min", None), ("max", None), ("product", None),
                   ("lukasiewicz", None), ("bounded_sum", None),
                   ("prob_sum", None), ("yager", 2.0), ("nilpotent", None),
                   ("pme", 2.0), ("pmean", 2.0), ("mae", None), ("rmse", None)]:
        ops = parse_operator_config(f"aggregator={agg}"
                                    + (f":p={p}" if p else ""))
        g = build_grounding(_const_interp({"p": 1}, 1.0), domain, {"p": 1},
                            [0, 1, 2])
        assert valuate(kb.formulas()[0], g, ops) == pytest.approx(1.0, abs=1e-6)
    g = build_grounding(_const_interp({"p": 1}, 1.0), domain, {"p": 1}, [0, 1, 2])
    ops = parse_operator_config("aggregator=log_product")
    assert valuate(kb.formulas()[0], g, ops) == pytest.approx(0.0, abs=1e-6)


def test_single_instance_conjunction_godel():
    kb = parse_kb("forall x: p(x) & q(x)")
    domain = _uniform_domain(1)
    table = {("p", (0,)): 0.5, ("q", (0,)): 0.4}
    g = build_grounding(LookupInterpretation(table), domain, {"p": 1, "q": 1}, [0])
    ops = parse_operator_config("tnorm=godel tconorm=godel aggregator=min")
    assert valuate(kb.formulas()[0], g, ops) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# loss and gradients

def test_dfl_loss_scene(scene):
    kb, g = scene
    assert dfl_loss(kb, g, PRODUCT).value == pytest.approx(-SCENE_VALUATION, abs=5e-4)


def test_dfl_loss_weight_scaling(scene_kb_text, scene_grounding_text):
    kb = parse_kb("10.0 " + scene_kb_text)
    domain, interp, signature = parse_grounding(scene_grounding_text)
    g = build_grounding(interp, domain, signature, list(range(2)))
    assert dfl_loss(kb, g, PRODUCT).value == pytest.approx(-6.12, abs=5e-3)


def test_dfl_loss_empty_kb():
    domain = _uniform_domain(2)
    g = build_grounding(_const_interp({"p": 1}, 0.5), domain, {"p": 1}, [0, 1])
    assert dfl_loss(KnowledgeBase(), g, PRODUCT).value == 0.0


def test_example_scene_gradient_table(scene):
    kb, g = scene
    grads = atom_gradients(kb, g, PRODUCT)
    assert len(grads) == 10
    for key, printed in SCENE_VALUATION_GRADIENTS.items():
        # printed table is d(valuation)/datom; our convention is dL/datom
        assert -grads[key] == pytest.approx(printed, abs=1e-3), key
    class_grads = {k: abs(v) for k, v in grads.items()
                   if k[0] in ("chair", "cushion", "armRest")}
    assert max(class_grads, key=class_grads.get) == ("cushion", (1,))
    assert abs(grads[("cushion", (1,))]) == pytest.approx(0.7662, abs=1e-3)


def test_gradients_zero_at_satisfied_optimum():
    # a fully satisfied implication with interior-clamped truth 1 has
    # vanishing gradients under the product config
    kb = parse_kb("forall x: p(x) -> q(x)")
    domain = _uniform_domain(1)
    table = {("p", (0,)): 0.5, ("q", (0,)): 1.0}
    g = build_grounding(LookupInterpretation(table), domain, {"p": 1, "q": 1}, [0])
    grads = atom_gradients(kb, g, PRODUCT)
    # dI_RC/dc = a = 0.5 exactly at the consequent; antecedent derivative
    # is -(1-c) ~ 0 once c is clamped to 1-1e-7
    assert grads[("p", (0,))] == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# quantifier semantics

def test_quantifier_instance_count_is_b_to_the_d():
    kb = parse_kb("forall x, y: p(x) -> q(y)")
    domain = _uniform_domain(4)
    for b in (2, 3, 4):
        g = build_grounding(_const_interp({"p": 1, "q": 1}, 0.5), domain,
                            {"p": 1, "q": 1}, list(range(b)))
        instances = []
        scalar_reference.valuate(kb.formulas()[0], g, PRODUCT,
                                 instances=instances)
        assert len(instances) == b ** 2


def test_nested_aggregation_matches_flat_for_product():
    kb = parse_kb("forall x, y: p(x, y)")
    domain = _uniform_domain(3)
    table = {("p", (i, j)): 0.3 + 0.07 * i + 0.11 * j for i in range(3)
             for j in range(3)}
    g = build_grounding(LookupInterpretation(table), domain, {"p": 2}, [0, 1, 2])
    nested = valuate(kb.formulas()[0], g, PRODUCT)
    flat = math.prod(min(max(v, 1e-7), 1 - 1e-7) for v in table.values())
    assert nested == pytest.approx(flat, rel=1e-12)


def test_log_product_flattens_quantifier_block():
    kb = parse_kb("forall x, y: p(x, y)")
    domain = _uniform_domain(2)
    table = {("p", (i, j)): 0.2 + 0.2 * i + 0.1 * j for i in range(2)
             for j in range(2)}
    g = build_grounding(LookupInterpretation(table), domain, {"p": 2}, [0, 1])
    ops = parse_operator_config("aggregator=log_product")
    value = valuate(kb.formulas()[0], g, ops)
    assert value == pytest.approx(sum(math.log(v) for v in table.values()),
                                  rel=1e-12)


_OUTSIDE_THE_LANGUAGE = [
    (ForAll(("x",), And(Atom("p", ("x",)), Atom("q", ("z",)))),
     "unbound variable 'z' in q(z)"),
    (ForAll(("x",), And(Atom("p", ("x",)), ForAll(("y",), Atom("q", ("y",))))),
     "quantifiers must be prenex"),
    (Not(ForAll(("x",), Atom("p", ("x",)))),
     "formula must be universally quantified"),
    (ForAll(("x",), And(Atom("p", ("x",)), Atom("q", ()))),
     "atom q() needs at least one variable"),
]


@pytest.mark.parametrize("formula, message", _OUTSIDE_THE_LANGUAGE)
def test_every_entry_point_refuses_what_the_grammar_refuses(monkeypatch,
                                                            formula, message):
    from dfl import oracle
    from dfl.analysis import gradient_quality, labeling_from_atoms
    with pytest.raises(ParseError, match=re.escape(message)):
        KnowledgeBase().add(formula)
    # a hand-built knowledge base skips that check; every valuation and
    # the oracle refuse it before a gather index or a world is built
    kb = KnowledgeBase([(parse_formula("forall x: p(x) -> q(x)"), 1.0),
                        (formula, 2.0)], {"p": 1, "q": 1})
    probs = {(pred, (i,)): 0.5 for pred in "pq" for i in range(2)}

    def build_nothing(*args):
        raise AssertionError("an array was built")

    monkeypatch.setattr(valuation, "_gather_index", build_nothing)
    monkeypatch.setattr(oracle, "_world_bits", build_nothing)
    g = build_grounding(LookupInterpretation(probs), _uniform_domain(2),
                        kb.signature, [0, 1])
    calls = [
        lambda: valuate(formula, g, PRODUCT),
        lambda: valuation.loss_gradient(kb, g, PRODUCT),
        lambda: dfl_loss(kb, g, PRODUCT),
        lambda: valuation._forward_values(kb.formulas(), g, PRODUCT),
        lambda: gradient_quality(kb, g, PRODUCT,
                                 labeling_from_atoms(lambda p, o: 1)),
        lambda: oracle.semantic_probability(kb, probs, [0, 1]),
        lambda: oracle.dpfl_valuation(kb, probs, [0, 1]),
        lambda: oracle.world_table(kb, probs, [0, 1]),
    ]
    for call in calls:
        with pytest.raises(SemanticError, match=f"^{re.escape(message)}$"):
            call()
    assert g._tape is None and g.kept is None


def test_commutativity_and_associativity_preserved_product_config():
    rng = random.Random(17)
    domain = _uniform_domain(2)
    for _ in range(50):
        table = {(pred, (i,)): rng.random() for pred in ("p", "q", "r")
                 for i in range(2)}
        g = build_grounding(LookupInterpretation(table), domain,
                            {"p": 1, "q": 1, "r": 1}, [0, 1])
        pairs = [
            ("forall x: p(x) & q(x)", "forall x: q(x) & p(x)"),
            ("forall x: (p(x) & q(x)) & r(x)", "forall x: p(x) & (q(x) & r(x))"),
            ("forall x: p(x) | q(x)", "forall x: q(x) | p(x)"),
        ]
        for left, right in pairs:
            lv = valuate(parse_formula(left), g, PRODUCT)
            rv = valuate(parse_formula(right), g, PRODUCT)
            assert lv == pytest.approx(rv, abs=1e-12)


def test_relaxed_equals_full_when_batch_is_domain():
    kb = parse_kb("forall x, y: p(x) -> q(y)")
    domain = _uniform_domain(3)
    rng = random.Random(23)
    table = {(pred, (i,)): rng.random() for pred in ("p", "q") for i in range(3)}
    interp = LookupInterpretation(table)
    g_full = build_grounding(interp, domain, {"p": 1, "q": 1}, [0, 1, 2])
    # the whole domain as a batch, as a uniform sample of 3 of 3 objects is
    g_rel = build_grounding(interp, domain, {"p": 1, "q": 1}, [0, 1, 2])
    full = valuate(kb.formulas()[0], g_full, PRODUCT)
    relaxed = valuate(kb.formulas()[0], g_rel, PRODUCT)
    assert full == relaxed


def test_deep_formulas_valuate():
    limit = sys.getrecursionlimit()
    n = 10 ** 4
    kb = parse_kb(f"forall x: {'~' * n}p(x)\n"
                  f"forall x: {' & '.join(['p(x)'] * n)}")
    g = build_grounding(LookupInterpretation({("p", (0,)): 0.25}),
                        _uniform_domain(1), kb.signature, [0])
    ops = parse_operator_config("tnorm=godel aggregator=min")
    loss = dfl_loss(kb, g, ops)
    assert loss.value == -0.5
    assert g.tape.backward(loss)[g.nodes[("p", (0,))]] == -2.0
    assert sys.getrecursionlimit() == limit


def test_both_log_space_flags_share_one_gather_index():
    kb = parse_kb("forall x, y: p(x) & r(x, y) -> p(y)\n"
                  "forall x, y: q(x) & r(x, y) -> q(y)\n"
                  "forall x: p(x) | ~q(x)")
    g = build_grounding(_const_interp({"p": 1, "q": 1, "r": 2}, 0.5),
                        _uniform_domain(3), kb.signature, [0, 1, 2])
    log = parse_operator_config("aggregator=log_product")
    loss_log, grad_log = valuation.loss_gradient(kb, g, log)
    loss_min, grad_min = valuation.loss_gradient(kb, g, PRODUCT)
    plan = valuation._plan_for(kb.formulas(), g, PRODUCT)
    assert plan is valuation._plan_for(kb.formulas(), g, log)
    pairs = list(zip(plan.stacks(log), plan.stacks(PRODUCT)))
    assert len(pairs) == 2
    for with_log, without in pairs:
        assert with_log is not without
        assert with_log.log_space and not without.log_space
        assert with_log.index is without.index
    # alternating the flag reads the shared arrays and changes none of them
    for ops, loss, grad in ((log, loss_log, grad_log),
                            (PRODUCT, loss_min, grad_min)) * 2:
        again = valuation.loss_gradient(kb, g, ops)
        assert again[0] == loss and np.array_equal(again[1], grad)


def test_instance_cap_counts_every_formula(monkeypatch):
    kb = parse_kb("forall x, y, z: p(x) & p(y) & p(z)\nforall x: p(x)")
    g = build_grounding(_const_interp({"p": 1}, 0.5), _uniform_domain(2),
                        kb.signature, [0, 1])
    monkeypatch.setattr(valuation, "INSTANCE_CAP", 10)  # 2**3 + 2 instances
    dfl_loss(kb, g, PRODUCT)
    monkeypatch.setattr(valuation, "INSTANCE_CAP", 9)
    with pytest.raises(InstanceCapError, match="10 ground instances exceed"):
        dfl_loss(kb, g, PRODUCT)


# ---------------------------------------------------------------------------
# gradient consistency against forward finite differences

def _fd_atom_gradient(kb, domain, table, signature, ops, key, h=1e-6):
    def run(tbl):
        g = build_grounding(LookupInterpretation(tbl), domain, signature,
                            list(range(len(domain))))
        return dfl_loss(kb, g, ops).value

    up = dict(table)
    up[key] = table[key] + h
    down = dict(table)
    down[key] = table[key] - h
    return (run(up) - run(down)) / (2 * h)


@pytest.mark.parametrize("config_text", [
    "tnorm=product tconorm=product implication=reichenbach aggregator=product",
    "tnorm=product tconorm=product implication=reichenbach aggregator=log_product",
    "tnorm=godel tconorm=godel implication=kleene_dienes aggregator=min",
    "tnorm=lukasiewicz tconorm=lukasiewicz implication=lukasiewicz aggregator=mae",
    "tnorm=yager:p=2 tconorm=yager:p=2 implication=yager_s:p=2 aggregator=rmse",
    "implication=sigmoidal:base=reichenbach,s=9,b0=-0.5 aggregator=log_product",
    "implication=goguen aggregator=pme:p=2",
])
def test_atom_gradients_match_finite_differences(config_text,
                                                 scene_grounding_text):
    ops = parse_operator_config(config_text)
    kb = parse_kb(
        "forall x, y: chair(x) & partOf(y, x) -> cushion(y) | armRest(y)")
    domain, interp, signature = parse_grounding(scene_grounding_text)
    table = dict(interp.table)
    g = build_grounding(interp, domain, signature, [0, 1])
    grads = atom_gradients(kb, g, ops)
    for key, analytic in grads.items():
        numeric = _fd_atom_gradient(kb, domain, table, signature, ops, key)
        assert analytic == pytest.approx(numeric, abs=1e-4), (config_text, key)


# ---------------------------------------------------------------------------
# grounding file parsing

def test_parse_grounding_scene(scene_grounding_text):
    domain, interp, signature = parse_grounding(scene_grounding_text)
    assert domain.names == ["o1", "o2"]
    assert signature == {"chair": 1, "cushion": 1, "armRest": 1, "partOf": 2}
    assert interp.score("partOf", (1, 0)) == 0.95


def test_parse_grounding_errors():
    with pytest.raises(ParseError):
        parse_grounding("p(o1)=1.5")
    with pytest.raises(ParseError):
        parse_grounding("p(o1)=0.5\np(o1)=0.6")
    with pytest.raises(ParseError):
        parse_grounding("p(o1)=0.5\np(o1,o2)=0.5")
    with pytest.raises(ParseError):
        parse_grounding("p(o1=0.5")
    with pytest.raises(SemanticError):
        _, interp, _ = parse_grounding("p(o1)=0.5")
        interp.score("q", (0,))
