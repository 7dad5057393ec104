import math
import random
import tracemalloc

import numpy as np
import pytest

import dfl.oracle as oracle
import scalar_reference as reference
from dfl.logic import (And, Atom, ForAll, Implies, Not, Or, KnowledgeBase,
                       compile_formula, parse_formula, parse_kb)
from dfl.oracle import (
    WorldCapError,
    dpfl_valuation,
    equivalence_report,
    occurrence_census,
    semantic_loss,
    semantic_probability,
    world_table,
)
from dfl.valuation import InstanceCapError, LookupInterpretation, SemanticError


def test_single_atom_cross_entropy():
    kb = parse_kb("forall x: p(x)")
    probs = {("p", (0,)): 0.7}
    assert semantic_loss(kb, probs, [0]) == pytest.approx(-math.log(0.7))
    assert dpfl_valuation(kb, probs, [0]) == pytest.approx(0.7)


def test_tautology_zero_loss():
    kb = parse_kb("forall x: p(x) | ~p(x)")
    probs = {("p", (0,)): 0.5}
    assert semantic_loss(kb, probs, [0]) == pytest.approx(0.0)
    assert semantic_probability(kb, probs, [0]) == pytest.approx(1.0)


def test_unsatisfiable_infinite_loss():
    kb = parse_kb("forall x: p(x) & ~p(x)")
    probs = {("p", (0,)): 0.5}
    assert semantic_loss(kb, probs, [0]) == math.inf


def test_raven_black_equivalence():
    kb = parse_kb("forall x: raven(x) -> black(x)")
    probs = {("raven", (0,)): 0.8, ("raven", (1,)): 0.3,
             ("black", (0,)): 0.6, ("black", (1,)): 0.9}
    report = equivalence_report(kb, probs, [0, 1])
    assert report.single_occurrence
    assert report.gap < 1e-9
    expected = (1 - 0.8 * 0.4) * (1 - 0.3 * 0.1)
    assert report.exact == pytest.approx(expected)
    assert semantic_loss(kb, probs, [0, 1]) == pytest.approx(
        -math.log(dpfl_valuation(kb, probs, [0, 1])), abs=1e-9)


def test_repeated_atom_counterexample():
    # P & ~(P & Q) over one object: fuzzy side 0.375, exact side 0.25
    kb = parse_kb("forall x: p(x) & ~(p(x) & q(x))")
    probs = {("p", (0,)): 0.5, ("q", (0,)): 0.5}
    report = equivalence_report(kb, probs, [0])
    assert not report.single_occurrence
    assert report.exact == pytest.approx(0.25, abs=1e-9)
    assert report.dpfl == pytest.approx(0.375, abs=1e-9)
    assert report.gap == pytest.approx(0.125, abs=1e-9)


def test_occurrence_census():
    kb = parse_kb("forall x: p(x) & ~(p(x) & q(x))")
    census = occurrence_census(kb, [0])
    assert census[("p", (0,))] == 2
    assert census[("q", (0,))] == 1
    assert not census.single_occurrence

    kb = parse_kb("forall x: raven(x) -> black(x)")
    census = occurrence_census(kb, [0, 1])
    assert all(v == 1 for v in census.counts.values())
    assert census.single_occurrence

    kb = parse_kb("forall x, y: same(x, y) -> same(y, x)")
    census = occurrence_census(kb, [0])
    assert census[("same", (0, 0))] == 2


def test_world_count_is_two_to_the_atoms():
    kb = parse_kb("forall x, y: raven(x) -> black(y)")
    probs = {("raven", (i,)): 0.5 for i in range(2)}
    probs.update({("black", (i,)): 0.5 for i in range(2)})
    atoms, rows = world_table(kb, probs, [0, 1])
    rows = list(rows)
    assert len(atoms) == 4
    assert len(rows) == 2 ** 4
    assert math.fsum(w for _, _, w in rows) == pytest.approx(1.0)


def test_world_cap():
    # one instance reads all 21 atoms: one component past the cap
    kb = parse_kb("forall x: " + " | ".join(f"p{i}(x)" for i in range(21)))
    probs = {(f"p{i}", (0,)): 0.5 for i in range(21)}
    with pytest.raises(WorldCapError, match="21 ground atoms exceed"):
        semantic_loss(kb, probs, [0])
    # 21 independent atoms are 21 components of 2 worlds each, but the
    # world table lists all 2**21 worlds of the knowledge base
    independent = parse_kb("\n".join(f"forall x: p{i}(x)" for i in range(21)))
    assert semantic_probability(independent, probs, [0]) == 0.5 ** 21
    with pytest.raises(WorldCapError, match="21 ground atoms exceed"):
        world_table(independent, probs, [0])


def test_monotone_kbs():
    kb = parse_kb("forall x: p(x)")
    last = -1.0
    for value in (0.1, 0.4, 0.8, 0.99):
        prob = semantic_probability(kb, {("p", (0,)): value}, [0])
        assert 0.0 <= prob <= 1.0
        assert prob > last
        last = prob

    kb = parse_kb("forall x: p(x) | q(x)")
    base = semantic_probability(kb, {("p", (0,)): 0.3, ("q", (0,)): 0.4}, [0])
    bumped = semantic_probability(kb, {("p", (0,)): 0.5, ("q", (0,)): 0.4}, [0])
    assert bumped > base


def _random_single_occurrence_kb(rng, max_atoms=10):
    """Random connective trees whose leaves are fresh unary predicates, so
    every ground atom occurs exactly once in the grounded KB."""
    counter = [0]

    def leaf():
        counter[0] += 1
        return Atom(f"p{counter[0]}", ("x",))

    def tree(budget):
        if budget <= 1 or rng.random() < 0.35:
            return leaf()
        kind = rng.choice(["and", "or", "implies", "not"])
        if kind == "not":
            return Not(tree(budget - 1))
        left = tree(budget // 2)
        right = tree(budget - budget // 2)
        return {"and": And, "or": Or, "implies": Implies}[kind](left, right)

    kb = KnowledgeBase()
    for _ in range(rng.randint(1, 3)):
        remaining = max_atoms - counter[0]
        if remaining < 1:
            break
        kb.add(ForAll(("x",), tree(rng.randint(1, max(1, remaining)))))
    probs = {(f"p{i}", (0,)): rng.uniform(0.05, 0.95)
             for i in range(1, counter[0] + 1)}
    return kb, probs


def test_prop_single_occurrence_equivalence_randomized():
    rng = random.Random(31)
    for _ in range(100):
        kb, probs = _random_single_occurrence_kb(rng)
        report = equivalence_report(kb, probs, [0])
        assert report.single_occurrence
        assert report.gap < 1e-9, (kb.formulas(), report)


def test_semantic_loss_equals_dpfl_loss_for_single_occurrence():
    # L_S = -e under the product config with log aggregation
    kb = parse_kb("forall x: raven(x) -> black(x)")
    probs = {("raven", (0,)): 0.8, ("black", (0,)): 0.6}
    loss = semantic_loss(kb, probs, [0])
    assert loss == pytest.approx(-math.log(1 - 0.8 * 0.4), abs=1e-12)


# ---------------------------------------------------------------------------
# the array enumeration against the per-world loop

# the benchmark's knowledge bases: a connected one in which atoms repeat
# and p(x)/q(y) ignore one quantified variable, and one that splits into
# per-object components with every atom occurring once
CONNECTED = ("forall x, y: p(x) & r(x, y) -> q(y)\n"
             "forall x, y: r(x, y) -> t(y, x) | ~s(x)\n"
             "forall x, y: q(x) & t(x, y) -> p(y) | s(y)\n")
COMPONENTS = ("forall x: a(x) & b(x) -> c(x) | ~d(x)\n"
              "forall x: e(x) | f(x) -> ~g(x)\n")


def _seeded_probs(kb, batch, seed):
    rng = random.Random(seed)
    return {atom: rng.uniform(0.05, 0.95)
            for atom in sorted(reference.occurrence_counts(kb, batch))}


def _assert_matches_loop(kb, probs, batch):
    counts = reference.occurrence_counts(kb, batch)
    census = occurrence_census(kb, batch).counts
    assert list(census.items()) == list(counts.items())
    ref_atoms, ref_rows = reference.world_table(kb, probs, batch)
    got = semantic_probability(kb, probs, batch)
    assert got == reference.factored_probability(kb, probs, batch)
    # reference.semantic_probability, without enumerating the worlds twice
    exact = math.fsum(weight for _, ok, weight in ref_rows if ok)
    if len(reference.components(kb, batch)) == 1:
        assert got == exact
    else:
        # a product of rounded sums against one rounded sum of rounded
        # products: over n <= 20 atoms each side rounds about 2n times,
        # each by at most 2**-53 relative
        assert abs(got - exact) <= 1e-13 * exact, (got, exact)
    atoms, rows = world_table(kb, probs, batch)
    rows = list(rows)
    assert atoms == ref_atoms
    assert rows == ref_rows
    for bits, satisfied, weight in rows:
        assert type(bits) is tuple and all(type(bit) is int for bit in bits)
        assert type(satisfied) is bool
        assert type(weight) is float
    # the stacked valuation against one valuation per formula
    assert dpfl_valuation(kb, probs, batch) == reference.dpfl_valuation(
        kb, probs, batch)


@pytest.mark.parametrize("text", [CONNECTED, COMPONENTS],
                         ids=["connected", "components"])
def test_benchmark_kbs_match_loop(text):
    kb = parse_kb(text)
    _assert_matches_loop(kb, _seeded_probs(kb, [0, 1], 1), [0, 1])


def test_random_single_occurrence_kbs_match_loop():
    rng = random.Random(61)  # criterion 6's knowledge bases
    for _ in range(100):
        kb, probs = _random_single_occurrence_kb(rng, max_atoms=10)
        _assert_matches_loop(kb, probs, [0])


@pytest.mark.parametrize("text", [
    "forall x, y: same(x, y) -> same(y, x)",
    "forall x: r(x, x)",
    "forall x: r(x, x) | ~r(x, x)\nforall x, y: r(x, y) -> r(y, x)",
    # p ignores y and z, q ignores x and y: each occurs once per value
    "forall x, y, z: p(x) -> q(z)",
    "forall x, y: p(x) & ~(p(x) & q(y))",
])
def test_small_kbs_match_loop(text):
    kb = parse_kb(text)
    _assert_matches_loop(kb, _seeded_probs(kb, [0, 1], 3), [0, 1])
    # a batch of objects that are not positions 0..b-1
    _assert_matches_loop(kb, _seeded_probs(kb, [2, 5], 4), [2, 5])


def test_ignored_variable_occurs_once_per_value():
    kb = parse_kb("forall x, y, z: p(x) -> q(z)")
    census = occurrence_census(kb, [0, 1, 2])
    assert census[("p", (0,))] == 9
    assert census[("q", (2,))] == 9
    assert list(census.counts) == [("p", (0,)), ("q", (0,)), ("q", (1,)),
                                   ("q", (2,)), ("p", (1,)), ("p", (2,))]


def _evaluate_no_program(monkeypatch):
    def evaluate_nothing(*args, **kwargs):
        raise AssertionError("a program was evaluated again")

    monkeypatch.setattr(oracle, "classical_values", evaluate_nothing)


@pytest.mark.parametrize("chunk", [1, 5, 7, 64])
def test_chunks_match_loop(monkeypatch, chunk):
    # 2**9 = 512 and 2**7 = 128 worlds: chunks of 5 and of 7 end in a
    # partial chunk, chunks of 64 divide both evenly
    cases = [("forall x, y: same(x, y) -> same(y, x)", [0, 1, 2]),
             (COMPONENTS, [0])]
    cached = [parse_kb(text) for text, _ in cases]
    for kb, (_, batch) in zip(cached, cases):  # plans in chunks of 2**14
        semantic_probability(kb, _seeded_probs(kb, batch, 5), batch)
    monkeypatch.setattr(oracle, "WORLD_CHUNK", chunk)
    for text, batch in cases:
        kb = parse_kb(text)
        _assert_matches_loop(kb, _seeded_probs(kb, batch, 5), batch)
    # plans built at another chunk size give the same results
    _evaluate_no_program(monkeypatch)
    for kb, (_, batch) in zip(cached, cases):
        _assert_matches_loop(kb, _seeded_probs(kb, batch, 6), batch)


@pytest.mark.parametrize("text", [CONNECTED, COMPONENTS],
                         ids=["connected", "components"])
def test_new_table_evaluates_no_program(monkeypatch, text):
    kb = parse_kb(text)
    batch = [0, 1]
    semantic_probability(kb, _seeded_probs(kb, batch, 1), batch)
    _evaluate_no_program(monkeypatch)
    for seed in (2, 3):
        probs = _seeded_probs(kb, batch, seed)
        exact = reference.factored_probability(kb, probs, batch)
        assert semantic_probability(kb, probs, batch) == exact
        assert equivalence_report(kb, probs, batch).exact == exact


def test_added_formula_misses_the_cache():
    kb = parse_kb("forall x: p(x) | q(x)")
    probs = {("p", (0,)): 0.3, ("q", (0,)): 0.6, ("r", (0,)): 0.9}
    assert semantic_probability(kb, probs, [0]) == pytest.approx(0.72)
    kb.add(parse_formula("forall x: ~p(x) | r(x)"))
    exact = reference.semantic_probability(kb, probs, [0])
    assert semantic_probability(kb, probs, [0]) == exact
    assert list(occurrence_census(kb, [0]).counts) == [
        ("p", (0,)), ("q", (0,)), ("r", (0,))]


def test_census_copies_leave_the_plan_alone():
    kb = parse_kb("forall x: p(x) & ~(p(x) & q(x))")
    probs = {("p", (0,)): 0.5, ("q", (0,)): 0.5}
    census = occurrence_census(kb, [0])
    census.counts[("p", (0,))] = 1
    census.counts.pop(("q", (0,)))
    atoms, _ = world_table(kb, probs, [0])
    atoms.reverse()
    census = occurrence_census(kb, [0])
    assert list(census.counts.items()) == [(("p", (0,)), 2), (("q", (0,)), 1)]
    assert not census.single_occurrence
    assert world_table(kb, probs, [0])[0] == [("p", (0,)), ("q", (0,))]


@pytest.mark.parametrize("value", [math.nan, 1.5, -0.2, math.inf])
@pytest.mark.parametrize("fn", [semantic_probability, semantic_loss,
                                world_table, dpfl_valuation,
                                equivalence_report])
def test_invalid_probability_names_its_atom(monkeypatch, fn, value):
    def weigh_nothing(*args, **kwargs):
        raise AssertionError("worlds weighted with an invalid probability")

    monkeypatch.setattr(oracle, "_blocks", weigh_nothing)
    kb = parse_kb("forall x: raven(x) -> black(x)")
    probs = {("raven", (0,)): 0.8, ("black", (0,)): value}
    with pytest.raises(SemanticError, match=r"for ground atom black\(0\) "):
        fn(kb, probs, [0])
    with pytest.raises(SemanticError, match=r"for ground atom black\(a\) "):
        fn(kb, LookupInterpretation(probs, ["a"]), [0])


def test_world_cap_before_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("worlds enumerated past the atom cap")

    monkeypatch.setattr(oracle, "classical_values", enumerate_nothing)
    kb = parse_kb("forall x, y: p(x) & q(y)")  # 2 * 11 = 22 atoms
    probs = {(pred, (i,)): 0.5 for pred in "pq" for i in range(11)}
    wide = parse_kb("forall a, b, c, d, e, f, g: p(a)")  # 8**7 instances
    for _ in range(2):  # a refusal is not cached: the next call refuses too
        with pytest.raises(WorldCapError):
            semantic_probability(kb, probs, list(range(11)))
        with pytest.raises(WorldCapError):
            world_table(kb, probs, list(range(11)))
        with pytest.raises(InstanceCapError):
            semantic_probability(wide, probs, list(range(8)))
        with pytest.raises(InstanceCapError):
            occurrence_census(wide, list(range(8)))


def test_independent_components_multiply():
    # 20 objects, each the one component of its 10 atoms: 200 atoms
    body = ("(p0(x) | p1(x)) & (p2(x) -> p3(x)) & ~(p4(x) & p5(x)) & "
            "(p6(x) | p7(x) | ~p8(x) | p9(x))")
    kb = parse_kb(f"forall x: {body}")
    batch = list(range(20))
    probs = _seeded_probs(kb, batch, 8)
    assert len(occurrence_census(kb, batch).counts) == 200
    parts = reference.components(kb, batch)
    assert [len(atoms) for atoms, _ in parts] == [10] * 20
    got = semantic_probability(kb, probs, batch)
    assert got == reference.factored_probability(kb, probs, batch)
    assert 0.0 < got < 1.0


def test_stored_world_cap_before_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("worlds enumerated past the stored-world cap")

    monkeypatch.setattr(oracle, "classical_values", enumerate_nothing)
    # two components of 20 atoms: 2 * 2**20 worlds to store
    body = " & ".join(f"p{i}(x)" for i in range(20))
    kb = parse_kb(f"forall x: {body}")
    probs = {(f"p{i}", (o,)): 0.5 for i in range(20) for o in (0, 1)}
    with pytest.raises(WorldCapError, match="2 independent components of 40 "
                                           "ground atoms have 2097152 worlds"):
        semantic_probability(kb, probs, [0, 1])
    # two components of 19 atoms read by 2**13 instances each, as 13
    # variables go unread: 2**20 worlds, but 2**33 world-instance pairs
    quantifier = "forall x, " + ", ".join(f"v{i}" for i in range(13))
    body = " & ".join(f"p{i}(x)" for i in range(19))
    kb = parse_kb(f"{quantifier}: {body}")
    with pytest.raises(WorldCapError, match="8589934592 world-instance pairs "
                                           "over 2 independent components"):
        semantic_probability(kb, probs, [0, 1])


def test_batch_objects_must_be_distinct():
    kb = parse_kb("forall x: p(x)")
    probs = {("p", (0,)): 0.5}
    for fn in (semantic_probability, dpfl_valuation, world_table):
        with pytest.raises(SemanticError, match="distinct"):
            fn(kb, probs, [0, 0])
    with pytest.raises(SemanticError, match="distinct"):
        occurrence_census(kb, [0, 0])


def test_world_arrays_stay_bounded_at_seven_objects():
    # 14 atoms and 7**4 instances: a chunk of 2**14 worlds would hold
    # 2**14 x 7**4 entries per step
    kb = parse_kb("forall a, b, c, d: p(a) & q(b) -> p(c) | q(d)")
    batch = list(range(7))
    rng = random.Random(9)
    probs = {(pred, (i,)): rng.uniform(0.05, 0.95) for pred in "pq"
             for i in batch}
    tracemalloc.start()
    try:
        exact = semantic_probability(kb, probs, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def mixed(pred):  # some atom of pred holds and some does not
        ps = [probs[(pred, (i,))] for i in batch]
        return 1.0 - math.prod(ps) - math.prod(1.0 - p for p in ps)

    # the KB fails exactly where both p and q are mixed
    assert exact == pytest.approx(1.0 - mixed("p") * mixed("q"), abs=1e-12)
    assert peak < 8 * 2 ** 20, peak  # about 1 MB; 43 MB in chunks of 2**14


def test_cached_plan_at_the_atom_cap_stays_small():
    # 20 atoms over 10 objects: the plan's mask has 2**20 worlds
    kb = parse_kb("forall x, y: p(x) & q(y) -> p(y)")
    batch = list(range(10))
    probs = {(pred, (i,)): 0.5 for pred in "pq" for i in batch}
    for formula in kb.formulas():
        compile_formula(formula)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        semantic_probability(kb, probs, batch)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * 2 ** 20, held
    # so the cache holds at most about 9 MB
    assert oracle._plan.cache_info().maxsize <= 8


def _fsum(parts):
    return math.fsum(x for part in parts for x in part.tolist())


@pytest.mark.parametrize("parts", [
    [np.zeros(7)],  # every world weighs 0 at p in {0, 1}
    [np.array([0.0, 1.0, 0.0, 1.0, 1.0])],
    [np.array([5e-324])],
    [np.full(3, 5e-324), np.array([2.2250738585072014e-308, 0.0])],
    [np.array([1.0, 5e-324, 1e-300, 2.0 ** -1022])],  # 1074 binades
    [np.array([2.0 ** -k for k in range(0, 1075, 7)])],
    [np.array([1.0] + [2.0 ** -60] * 3 + [2.0 ** -53])],  # ties to even
    [np.full(2 ** 14, 0.1), np.array([0.7])],  # 2**14 + 1 over two blocks
    [np.full(2 ** 14, 1.0 - 2.0 ** -53)],  # every mantissa bit set
    [np.full(2 ** 14 + 1, 5e-324)],  # past one bincount part
    [np.full(1000, 0.3)],
    [np.array([0.123456789])],
    [],
    [np.zeros(0), np.zeros(0)],
], ids=["zeros", "zeros-ones", "subnormal", "subnormals", "spread",
        "spread-every-7", "ties", "two-blocks", "full-mantissas",
        "long-subnormal", "all-equal", "one", "no-parts", "no-values"])
def test_exact_sum_is_fsum_bit_for_bit(parts):
    got = oracle._exact_sum(iter(parts))
    assert type(got) is float
    assert got.hex() == _fsum(parts).hex()


def test_exact_sum_is_fsum_on_random_weights():
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(1, 3000))
        kind = trial % 4
        if kind == 0:  # products of 14 factors, as world weights are
            values = rng.uniform(0.05, 0.95, (n, 14)).prod(axis=1)
        elif kind == 1:
            values = rng.random(n) ** int(rng.integers(1, 80))
        elif kind == 2:  # any binade, subnormals included
            values = np.ldexp(rng.random(n), -rng.integers(0, 1075, n))
        else:
            values = np.where(rng.random(n) < 0.4, 0.0, rng.random(n))
        parts = np.array_split(values, int(rng.integers(1, 5)))
        assert oracle._exact_sum(parts) == _fsum(parts), trial


def test_probabilities_zero_and_one_match_loop():
    kb = parse_kb("forall x: p(x) | q(x) -> r(x)")
    batch = [0, 1]
    for values in [(0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1e-300, 1.0 - 1e-16)]:
        rng = random.Random(str(values))
        probs = {atom: rng.choice(values + (0.5,))
                 for atom in reference.occurrence_counts(kb, batch)}
        _assert_matches_loop(kb, probs, batch)
