import random
import sys

import pytest

from dfl.logic import (
    And, Atom, ForAll, Implies, Not, Or,
    KnowledgeBase, ParseError, compile_formula,
    free_and_bound, parse_formula, parse_kb, print_formula, quantifier_rank,
)

RECURSION_LIMIT = sys.getrecursionlimit()
DEEP = 10 ** 5

EXAMPLE = "forall x, y: chair(x) & partOf(y, x) -> cushion(y) | armRest(y)"


def test_parse_example_formula():
    f = parse_formula(EXAMPLE)
    assert f == ForAll(
        ("x", "y"),
        Implies(
            And(Atom("chair", ("x",)), Atom("partOf", ("y", "x"))),
            Or(Atom("cushion", ("y",)), Atom("armRest", ("y",))),
        ),
    )


def test_parse_symmetry_formula():
    f = parse_formula("forall x, y: same(x, y) -> same(y, x)")
    assert f == ForAll(("x", "y"),
                       Implies(Atom("same", ("x", "y")), Atom("same", ("y", "x"))))


def test_non_prenex_rejected():
    with pytest.raises(ParseError):
        parse_formula("forall x: p(x) & forall y: q(y)")


def test_exists_rejected_with_pointed_message():
    with pytest.raises(ParseError, match="existential"):
        parse_formula("exists x: p(x)")
    with pytest.raises(ParseError, match="existential"):
        parse_formula("forall x: p(x) & exists y: q(y)")


def test_unbound_variable_rejected():
    with pytest.raises(ParseError, match="unbound"):
        parse_formula("forall x: p(y)")


def test_arity_conflict_rejected():
    with pytest.raises(ParseError, match="arity"):
        parse_formula("forall x, y: p(x, y) & p(x)")


def test_duplicate_quantifier_variable_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_formula("forall x, x: p(x)")


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_formula("forall x: p(x) &")
    assert err.value.line == 1 and err.value.col >= 16


def test_precedence():
    f = parse_formula("forall x: ~p(x) & q(x) | r(x) -> s(x)")
    assert isinstance(f.body, Implies)
    assert isinstance(f.body.lhs, Or)
    assert isinstance(f.body.lhs.lhs, And)
    assert isinstance(f.body.lhs.lhs.lhs, Not)


def test_implication_right_associative():
    f = parse_formula("forall x: p(x) -> q(x) -> r(x)")
    assert isinstance(f.body, Implies)
    assert isinstance(f.body.rhs, Implies)
    g = parse_formula("forall x: (p(x) -> q(x)) -> r(x)")
    assert isinstance(g.body.lhs, Implies)
    assert f != g


def test_nested_implications_allowed():
    f = parse_formula("forall x: (p(x) -> q(x)) & (q(x) -> p(x))")
    assert isinstance(f.body, And)
    assert isinstance(f.body.lhs, Implies)


def test_free_and_bound():
    vars_, atoms = free_and_bound(parse_formula(EXAMPLE))
    assert vars_ == ("x", "y")
    assert [str(a) for a in atoms] == [
        "chair(x)", "partOf(y, x)", "cushion(y)", "armRest(y)"]

    vars_, atoms = free_and_bound(parse_formula("forall x: ~p(x)"))
    assert vars_ == ("x",)
    assert [str(a) for a in atoms] == ["p(x)"]

    vars_, atoms = free_and_bound(parse_formula("forall x: p(x)"))
    assert vars_ == ("x",) and len(atoms) == 1


def test_quantifier_rank():
    assert quantifier_rank(parse_formula(EXAMPLE)) == 2
    f = parse_formula("forall x, y, z: q(x, z) & r(z, y) -> p(x, y)")
    assert quantifier_rank(f) == 3
    assert quantifier_rank(parse_formula("forall x: p(x)")) == 1


def test_parse_kb_two_lines():
    kb = parse_kb("""
# a comment
1.0 forall x: p(x)
10.0 forall x, y: p(x) & q(x, y) -> p(y)
""")
    assert len(kb) == 2
    assert kb.entries[0][1] == 1.0
    assert kb.entries[1][1] == 10.0
    assert kb.signature == {"p": 1, "q": 2}


def test_parse_kb_default_weight():
    kb = parse_kb("forall x: p(x)")
    assert kb.entries[0][1] == 1.0


def test_parse_kb_arity_conflict_across_lines():
    with pytest.raises(ParseError, match="arity"):
        parse_kb("forall x, y: p(x, y)\nforall x: p(x)")


def test_parse_kb_rejects_nonpositive_weight():
    with pytest.raises(ParseError):
        parse_kb("-1.0 forall x: p(x)")
    with pytest.raises(ParseError):
        parse_kb("0 forall x: p(x)")


def test_digit_relation_kb():
    digits = ["zero", "one", "two", "three", "four",
              "five", "six", "seven", "eight", "nine"]
    lines = [f"forall x, y: {d}(x) & {d}(y) -> same(x, y)" for d in digits]
    lines += [f"forall x, y: {d}(x) & same(x, y) -> {d}(y)" for d in digits]
    lines += ["forall x, y: same(x, y) -> same(y, x)"]
    kb = parse_kb("\n".join(lines))
    assert len(kb) == 21
    assert kb.signature["same"] == 2
    assert kb.signature["zero"] == 1


def _random_formula(rng, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        arity = rng.randint(1, 2)
        pred = rng.choice(["p", "q", "r"]) + str(arity)
        return Atom(pred, tuple(rng.choice(variables) for _ in range(arity)))
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return Not(_random_formula(rng, variables, depth - 1))
    lhs = _random_formula(rng, variables, depth - 1)
    rhs = _random_formula(rng, variables, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[kind](lhs, rhs)


def _deep_formulas():
    """(formula, program length) for DEEP nested negations, DEEP-atom &
    and -> chains (nested to the left and to the right) and a conjunction
    under DEEP parentheses, each far past the interpreter's recursion
    limit; one at a time, so that only one is alive."""
    p, q = Atom("p", ("x",)), Atom("q", ("x",))
    chain = p
    for _ in range(DEEP):
        chain = Not(chain)
    assert ForAll(("x",), chain) != ForAll(("x",), Not(chain))
    yield ForAll(("x",), chain), DEEP + 2
    for binary in (lambda f: And(f, p), lambda f: Implies(p, f)):
        chain = p
        for _ in range(DEEP - 1):
            chain = binary(chain)
        yield ForAll(("x",), chain), 2 * DEEP
    chain = None
    parenthesized = parse_formula("forall x: " + "(" * DEEP + "p(x) & q(x)"
                                  + ")" * DEEP)
    assert parenthesized == ForAll(("x",), And(p, q))
    yield parenthesized, 4


def test_print_parse_roundtrip_on_random_asts():
    rng = random.Random(99)
    for _ in range(1000):
        variables = ["x", "y", "z"][: rng.randint(1, 3)]
        f = ForAll(tuple(variables),
                   _random_formula(rng, variables, rng.randint(0, 5)))
        text = print_formula(f)
        assert parse_formula(text) == f, text
    for f, steps in _deep_formulas():
        parsed = parse_formula(print_formula(f))
        assert parsed == f and hash(parsed) == hash(f)
        assert len(compile_formula(parsed).instrs) == steps
        assert quantifier_rank(parsed) == 1
    assert sys.getrecursionlimit() == RECURSION_LIMIT


def _dataclass_eq(a, b):
    """Equality as the dataclass-generated ``__eq__`` defines it: the
    same class and equal fields, compared recursively."""
    if type(a) is not type(b):
        return False
    fields = type(a).__dataclass_fields__
    return all(_dataclass_eq(getattr(a, name), getattr(b, name))
               if hasattr(getattr(a, name), "__dataclass_fields__")
               else getattr(a, name) == getattr(b, name) for name in fields)


def test_equality_and_hash_agree_with_dataclass_equality():
    rng = random.Random(7)
    x, y = Atom("p", ("x",)), Atom("p", ("y",))
    # nested quantifier chains are distinct trees, as for the dataclasses
    trees = [ForAll(("x", "y"), x), ForAll(("x",), ForAll(("y",), x)),
             ForAll(("x",), ForAll(("y",), x)), ForAll(("y",), ForAll(("x",), x)),
             And(x, y), And(y, x), Or(x, y), Implies(x, y), Not(x), x, y]
    trees += [_random_formula(rng, ["x", "y"], rng.randint(0, 2))
              for _ in range(300)]
    for a in trees:
        for b in trees[:40]:
            assert (a == b) is _dataclass_eq(a, b), (a, b)
            if a == b:
                assert hash(a) == hash(b)
    assert repr(And(x, Not(y))) == ("And(lhs=Atom(pred='p', args=('x',)), "
                                    "rhs=Not(child=Atom(pred='p', args=('y',))))")


def test_rejection_set_mutations_fail_cleanly():
    # every mutation must raise ParseError, never crash differently
    corpus = EXAMPLE
    mutations = [
        corpus.replace("->", "-> ->"),
        corpus.replace("forall", ""),
        corpus.replace("(", "", 1),
        corpus.replace(")", "", 1),
        corpus.replace("&", "&&"),
        corpus.replace("chair(x)", "chair(x"),
        corpus.replace("x, y", "x y"),
        corpus + " |",
        corpus.replace("cushion(y)", "cushion()"),
        "forall : " + corpus.split(": ")[1],
        corpus.replace("partOf(y, x)", "partOf(y, x, z)"),
        corpus.replace("|", "@"),
        "42 " + corpus,
        corpus.replace("y:", "y"),
    ]
    for bad in mutations:
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_kb_add_validates():
    kb = KnowledgeBase()
    with pytest.raises(ParseError):
        kb.add(parse_formula("forall x: p(x)"), weight=-2.0)
