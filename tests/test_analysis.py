import itertools
import math

import numpy as np
import pytest

from dfl.analysis import (
    FractionEstimate,
    composed,
    derivative_surface,
    estimate_nonvanishing_fraction,
    gradient_quality,
    implication_aggregator_interaction,
    labeling_from_atoms,
    lukasiewicz_fraction,
    nilpotent_fraction,
    single_passing_audit,
    yager_p2_fraction_candidates,
    yager_tnorm_fraction,
    yager_tnorm_fraction_check,
)
from dfl.logic import parse_formula, parse_kb
from dfl.operators import (OperatorConfig, OperatorError, catalog, descriptor,
                           parse_operator_config)
from dfl.valuation import LookupInterpretation, Domain, build_grounding

import scalar_kernels
from scalar_reference import classical_truth
from dfl import analysis

SAMPLES = 40_000


def _estimate(family, name, n, p=None, seed=42):
    return estimate_nonvanishing_fraction(descriptor(family, name, p=p),
                                          n, SAMPLES, seed)


def _assert_within(est, target, sigmas=4):
    se = max(est.std_error, 1e-12)
    assert abs(est.estimate - target) <= sigmas * se, (est, target)


# ---------------------------------------------------------------------------
# fraction estimates vs closed forms

def test_lukasiewicz_aggregator_fractions():
    for n in (2, 3, 5):
        est = _estimate("aggregator", "lukasiewicz", n)
        _assert_within(est, lukasiewicz_fraction(n))
    assert lukasiewicz_fraction(3) == pytest.approx(1 / 6)


def test_nilpotent_aggregator_fractions():
    for n in (2, 3, 4):
        est = _estimate("aggregator", "nilpotent", n)
        _assert_within(est, nilpotent_fraction(n))
    assert nilpotent_fraction(2) == 0.5


def test_yager_aggregator_p2_resolves_gamma_candidates():
    est = _estimate("aggregator", "yager", 2, p=2.0)
    cands = yager_p2_fraction_candidates(2)
    assert cands["gamma(n/2+1)"] == pytest.approx(math.pi / 4)
    assert est.supported == "gamma(n/2+1)"
    _assert_within(est, math.pi / 4)


def test_yager_aggregator_p2_n3_ball_volume():
    est = _estimate("aggregator", "yager", 3, p=2.0)
    _assert_within(est, yager_p2_fraction_candidates(3)["gamma(n/2+1)"])


def test_yager_tnorm_fraction_closed_form_values():
    assert yager_tnorm_fraction(1.0) == pytest.approx(0.5)
    assert yager_tnorm_fraction(2.0) == pytest.approx(math.pi / 4)
    # Dirichlet form of the same orthant volume
    for p in (1.0, 2.0, 5.0, 20.0):
        dirichlet = math.gamma(1 / p + 1) ** 2 / math.gamma(2 / p + 1)
        assert yager_tnorm_fraction(p) == pytest.approx(dirichlet, rel=1e-12)


def test_yager_tnorm_fraction_check():
    est, cf, z = yager_tnorm_fraction_check(1.0, SAMPLES, seed=3)
    assert cf == pytest.approx(0.5)
    assert abs(z) < 4
    est, cf, z = yager_tnorm_fraction_check(2.0, SAMPLES, seed=4)
    assert cf == pytest.approx(math.pi / 4)
    assert abs(z) < 4
    est, cf, z = yager_tnorm_fraction_check(20.0, SAMPLES, seed=5)
    assert est > 0.95


def test_drastic_family_fractions_are_zero():
    assert _estimate("tnorm", "drastic", 2).estimate == 0.0
    assert _estimate("tconorm", "drastic", 2).estimate == 0.0
    assert _estimate("implication", "weber", 2).estimate == 0.0
    assert _estimate("implication", "dubois_prade", 2).estimate == 0.0


def test_lukasiewicz_tnorm_fraction_half():
    _assert_within(_estimate("tnorm", "lukasiewicz", 2), 0.5)
    _assert_within(_estimate("tconorm", "lukasiewicz", 2), 0.5)


def test_fraction_estimate_requires_enough_samples():
    with pytest.raises(ValueError):
        estimate_nonvanishing_fraction(descriptor("tnorm", "product"), 2, 100, 0)


@pytest.mark.parametrize("call", [
    lambda seed: estimate_nonvanishing_fraction(
        descriptor("tnorm", "product"), 2, 10_000, seed),
    lambda seed: single_passing_audit(descriptor("tnorm", "product"), 2,
                                      seed=seed),
    lambda seed: single_passing_audit(
        composed(descriptor("tnorm", "godel"),
                 [descriptor("tnorm", "godel")] * 2), 4, seed=seed),
], ids=["fraction", "single_passing", "single_passing_callable"])
def test_negative_seed_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"need seed >= 0, got seed=-1$"):
        call(-1)
    call(0)  # the smallest seed still runs


def test_fraction_estimate_reproducible():
    a = _estimate("aggregator", "lukasiewicz", 3, seed=7)
    b = _estimate("aggregator", "lukasiewicz", 3, seed=7)
    assert a.estimate == b.estimate


def test_std_error_formula():
    est = _estimate("tnorm", "lukasiewicz", 2)
    assert est.std_error == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.samples))


# ---------------------------------------------------------------------------
# the array kernels (and the masks derived from them) agree with the
# scalar reference kernels

BOUNDARY = [0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0]

# scalar kernels that call pow/exp/log, where numpy's vectorised routines
# may round the last digit differently from the C library
TRANSCENDENTAL = {("tnorm", "yager"), ("tconorm", "yager"),
                  ("implication", "yager_s"), ("implication", "yager_r"),
                  ("implication", "sigmoidal"), ("aggregator", "log_product"),
                  ("aggregator", "yager"), ("aggregator", "pme"),
                  ("aggregator", "pmean"), ("aggregator", "mae"),
                  ("aggregator", "rmse")}
# aggregators whose scalar kernels sum with math.fsum (arrays: plain sums,
# which round alike for two inputs but not always for three)
FSUM = {"lukasiewicz", "bounded_sum", "log_product", "yager", "pme", "pmean",
        "mae", "rmse"}


def _kernel_columns(desc, points):
    """Per point, (value, partials) from the array kernel, from the
    shipped scalar API and from the scalar reference kernel."""
    points = np.asarray(points, dtype=float)
    if desc.family == "aggregator":
        value, partials = desc.array_kernel(points.T)
    else:
        value, partials = desc.array_kernel(*points.T)
        partials = [np.broadcast_to(d, value.shape) for d in partials]
    array = [(value[i], [d[i] for d in partials]) for i in range(len(points))]
    rows = points.tolist()
    return (array, [desc.kernel(*x) for x in rows],
            [scalar_kernels.kernel(desc, *x) for x in rows])


def _agree(desc, points, exact, tol):
    array, shipped, reference = _kernel_columns(desc, points)
    for x, (av, ap), (kv, kp), (sv, sp) in zip(points, array, shipped, reference):
        # the scalar API returns floats
        assert all(type(k) is float for k in [kv, *kp]), (desc.label(), x)
        for a, k, s in zip([av, *ap], [kv, *kp], [sv, *sp], strict=True):
            for got in (a, k):
                # the branch taken: zero partials and live partials coincide
                assert (got == 0.0) == (s == 0.0), (desc.label(), x, got, s)
                assert (abs(got) > 1e-12) == (abs(s) > 1e-12), (desc.label(), x)
                if exact or math.isinf(s):
                    assert got == s, (desc.label(), x, got, s)
                else:
                    assert abs(got - s) <= tol * max(1.0, abs(s)), (desc.label(), x)


@pytest.mark.parametrize("desc", [d for d in catalog() if d.family != "negation"],
                         ids=lambda d: f"{d.family}:{d.label()}")
def test_mask_matches_scalar_kernels(desc):
    rng = np.random.default_rng(abs(hash(desc.label())) % 10_000)
    transcendental = (desc.family, desc.name) in TRANSCENDENTAL
    for n in ((2, 3) if desc.family == "aggregator" else (2,)):
        grid = [x for x in itertools.product(BOUNDARY, repeat=n)
                if desc.name != "log_product" or 0.0 not in x]
        plain_sum = n > 2 and desc.family == "aggregator" and desc.name in FSUM
        _agree(desc, grid, exact=not (transcendental or plain_sum), tol=1e-15)
        X = rng.random((400, n))
        _agree(desc, X, exact=False, tol=1e-12)
        mask = desc.live_partials(X) > 0
        for i in range(len(X)):
            _, partials = scalar_kernels.kernel(desc, *X[i].tolist())
            scalar = any(abs(d) > 1e-12 for d in partials)
            assert scalar == bool(mask[i]), (desc.label(), X[i])


def test_array_kernels_make_the_scalar_checks():
    with pytest.raises(OperatorError, match="log_product is undefined"):
        descriptor("aggregator", "log_product").array_kernel(np.array([[0.5], [0.0]]))
    with pytest.raises(OperatorError, match="in \\[0, 1\\]"):
        descriptor("tnorm", "product").array_kernel(np.array([0.5]), np.array([1.5]))
    with pytest.raises(OperatorError, match="requires parameter p"):
        descriptor("tnorm", "yager").array_kernel(np.array([0.5]), np.array([0.5]))
    with pytest.raises(OperatorError, match="at least one input"):
        descriptor("aggregator", "min").array_kernel(np.zeros((0, 3)))
    value, (partial,) = descriptor("negation", "classic").array_kernel(
        np.array(BOUNDARY))
    assert value.tolist() == [1.0 - x for x in BOUNDARY]
    assert partial.tolist() == [-1.0] * len(BOUNDARY)


# ---------------------------------------------------------------------------
# single-passing

def test_min_aggregator_single_passing():
    ok, witness = single_passing_audit(descriptor("aggregator", "min"), 4)
    assert ok and witness is None


def test_product_aggregator_not_single_passing():
    ok, witness = single_passing_audit(descriptor("aggregator", "product"), 2)
    assert not ok
    assert witness is not None and all(0 <= x <= 1 for x in witness)


def test_composition_of_single_passing_is_single_passing():
    godel = descriptor("tnorm", "godel")
    fn = composed(godel, [godel, godel])
    ok, _ = single_passing_audit(fn, 4)
    assert ok


def test_composition_with_product_is_not_single_passing():
    product = descriptor("tnorm", "product")
    godel = descriptor("tnorm", "godel")
    fn = composed(product, [godel, godel])
    ok, _ = single_passing_audit(fn, 4)
    assert not ok


@pytest.mark.parametrize("n", [3, -1, 2, 5])
def test_composed_refuses_n_that_does_not_split_into_the_inner_arities(
        monkeypatch, n):
    def no_draw(*args):
        raise AssertionError("points drawn before the arity check")

    monkeypatch.setattr(analysis, "_point_chunks", no_draw)
    product = descriptor("tnorm", "product")
    with pytest.raises(ValueError, match=(
            "^n does not split into 2 equal parts that the inner operators "
            f"take; got n={n}$")):
        single_passing_audit(composed(product, [product, product]), n)


def test_composed_refuses_an_outer_operator_of_another_arity():
    godel = descriptor("tnorm", "godel")
    with pytest.raises(OperatorError, match="^tnorm kernels are binary; got n=3$"):
        composed(godel, [godel] * 3)
    ok, _ = single_passing_audit(
        composed(descriptor("aggregator", "min"), [godel] * 3), 6)
    assert ok


def test_godel_implication_single_passing():
    ok, _ = single_passing_audit(descriptor("implication", "godel"), 2)
    assert ok


@pytest.mark.parametrize("desc", catalog(), ids=lambda d: f"{d.family}:{d.label()}")
def test_single_passing_audit_matches_loop(desc):
    # the same verdict and witness as one scalar kernel call per point
    n = {"negation": 1, "tnorm": 2, "tconorm": 2, "implication": 2}.get(
        desc.family, 3)
    assert single_passing_audit(desc, n, 10_000, seed=5) == \
        scalar_kernels.single_passing_audit(desc, n, 10_000, seed=5)


@pytest.mark.parametrize("family, name, params, n", [
    ("tnorm", "godel", {}, 2),
    ("aggregator", "min", {}, 3),
    ("tnorm", "lukasiewicz", {}, 2),
    ("aggregator", "lukasiewicz", {}, 3),
])
def test_single_passing_audit_chunks_match_loop(monkeypatch, family, name,
                                                params, n):
    # over several chunks the points, verdict and witness stay the loop's:
    # 45k samples span several chunks, and at 7 values a chunk (2 rows at
    # n=3) the Lukasiewicz aggregator's first violation (row 23 at seed 3)
    # lies in the twelfth
    desc = descriptor(family, name, **params)
    expected = scalar_kernels.single_passing_audit(desc, n, 45_000, seed=3)
    assert single_passing_audit(desc, n, 45_000, seed=3) == expected
    monkeypatch.setattr(analysis, "POINT_CHUNK", 7)
    assert single_passing_audit(desc, n, 45_000, seed=3) == expected


@pytest.mark.parametrize("family, name, params, n, seed", [
    # the first violating rows: 5, 23, 189 and 11, past the first chunk
    # of a 7-value budget
    ("tnorm", "lukasiewicz", {}, 2, 29),
    ("aggregator", "lukasiewicz", {}, 3, 3),
    ("aggregator", "lukasiewicz", {}, 5, 5),
    ("aggregator", "yager", {"p": 2.0}, 5, 5),
    ("aggregator", "min", {}, 5, 5),
])
def test_audits_do_not_depend_on_the_chunk_size(monkeypatch, family, name,
                                                params, n, seed):
    desc = descriptor(family, name, **params)

    def audits():
        return (estimate_nonvanishing_fraction(desc, n, 10_000, seed),
                single_passing_audit(desc, n, 10_000, seed))

    expected = audits()
    assert expected[1][0] == (name == "min")
    for chunk in (7, 10 ** 7):
        monkeypatch.setattr(analysis, "POINT_CHUNK", chunk)
        assert audits() == expected, chunk


@pytest.mark.parametrize("chunk, n", [
    (7, 1), (7, 3), (7, 9), (analysis.POINT_CHUNK, 2),
    (analysis.POINT_CHUNK, 5), (10 ** 7, 3)])
def test_point_chunks_keep_the_value_budget_and_the_stream(monkeypatch,
                                                           chunk, n):
    monkeypatch.setattr(analysis, "POINT_CHUNK", chunk)
    chunks = list(analysis._point_chunks(np.random.default_rng(4), 30_001, n))
    rows = max(1, chunk // n)
    assert [len(X) for X in chunks[:-1]] == [rows] * (len(chunks) - 1)
    assert all(X.size <= max(chunk, n) for X in chunks)
    assert np.array_equal(np.concatenate(chunks),
                          np.random.default_rng(4).random((30_001, n)))


@pytest.mark.parametrize("family, name, n, message", [
    ("implication", "reichenbach", 3, "implication kernels are binary; got n=3"),
    ("tnorm", "product", 1, "tnorm kernels are binary; got n=1"),
    ("tconorm", "godel", -1, "tconorm kernels are binary; got n=-1"),
    ("negation", "classic", 2, "negation kernels are unary; got n=2"),
    ("aggregator", "lukasiewicz", 0, "aggregator kernels need n >= 1; got n=0"),
    ("aggregator", "min", -1, "aggregator kernels need n >= 1; got n=-1"),
])
def test_audits_refuse_a_dimension_the_kernel_cannot_take(monkeypatch, family,
                                                          name, n, message):
    def no_draw(*args):
        raise AssertionError("points drawn before the arity check")

    monkeypatch.setattr(analysis, "_point_chunks", no_draw)
    desc = descriptor(family, name)
    for audit in (estimate_nonvanishing_fraction, single_passing_audit):
        with pytest.raises(ValueError, match=f"^{message}$"):
            audit(desc, n, 10_000, 0)


# ---------------------------------------------------------------------------
# gradient quality

def _single_instance_setup(a, b):
    kb = parse_kb("forall x: p(x) -> q(x)")
    domain = Domain(["o1"])
    table = {("p", (0,)): a, ("q", (0,)): b}
    g = build_grounding(LookupInterpretation(table), domain,
                        {"p": 1, "q": 1}, [0])
    return kb, g


def test_quality_lukasiewicz_balanced():
    kb, g = _single_instance_setup(0.8, 0.3)
    ops = parse_operator_config(
        "tnorm=lukasiewicz tconorm=lukasiewicz implication=lukasiewicz "
        "aggregator=mae")
    q = gradient_quality(kb, g, ops, labeling_from_atoms(lambda p, o: 1))
    assert q.cons_magnitude == pytest.approx(q.ant_magnitude)
    assert q.cons_pct == pytest.approx(0.5)


def test_quality_godel_no_antecedent():
    kb, g = _single_instance_setup(0.8, 0.3)
    ops = parse_operator_config("implication=godel aggregator=min")
    q = gradient_quality(kb, g, ops, labeling_from_atoms(lambda p, o: 1))
    assert q.ant_magnitude == 0.0
    assert q.cons_pct == pytest.approx(1.0)
    assert math.isnan(q.cu_ant_pct)


def test_quality_all_true_consequents():
    kb, g = _single_instance_setup(0.9, 0.2)
    ops = OperatorConfig()  # product config
    q = gradient_quality(kb, g, ops, labeling_from_atoms(lambda p, o: 1))
    assert q.cu_cons_pct == pytest.approx(1.0)


def test_quality_skips_non_implication_formulas():
    kb = parse_kb("forall x: p(x) -> q(x)\nforall x: p(x) & q(x)")
    domain = Domain(["o1"])
    table = {("p", (0,)): 0.8, ("q", (0,)): 0.3}
    g = build_grounding(LookupInterpretation(table), domain,
                        {"p": 1, "q": 1}, [0])
    q = gradient_quality(kb, g, OperatorConfig(),
                         labeling_from_atoms(lambda p, o: 1))
    assert q.formulas_used == 1 and q.formulas_skipped == 1


def test_quality_shared_atom_instances_stay_separate():
    # symmetry formula: same(x,y) -> same(y,x); with x=y the same ground
    # atom is antecedent and consequent of one instance
    kb = parse_kb("forall x, y: same(x, y) -> same(y, x)")
    domain = Domain(["o1", "o2"])
    table = {("same", (0, 0)): 0.3, ("same", (0, 1)): 0.9,
             ("same", (1, 0)): 0.2, ("same", (1, 1)): 0.4}
    g = build_grounding(LookupInterpretation(table), domain, {"same": 2},
                        [0, 1])
    ops = parse_operator_config("aggregator=log_product")
    q = gradient_quality(kb, g, ops, labeling_from_atoms(lambda p, o: 1))
    # all four instances contribute a consequent derivative a/I > 0
    assert q.cons_magnitude > 0
    assert q.cu_cons_pct == pytest.approx(1.0)


def test_classical_truth():
    f = parse_formula("forall x, y: p(x) & ~q(y) -> r(x, y)")
    atom_fn = lambda pred, objs: {"p": 1, "q": 0, "r": 0}[pred]
    body = f.body
    mu = {"x": 0, "y": 1}
    assert classical_truth(body.lhs, mu, atom_fn) is True
    assert classical_truth(body, mu, atom_fn) is False


# ---------------------------------------------------------------------------
# derivative surfaces

def test_surface_reichenbach():
    rows = derivative_surface("reichenbach", 0.25)
    assert len(rows) == 25
    for a, c, dic, dnota in rows:
        assert dic == pytest.approx(a)
        assert dnota == pytest.approx(1 - c)


def test_surface_godel_antecedent_zero():
    rows = derivative_surface("godel", 0.25)
    assert all(row[3] == 0.0 for row in rows)


def test_surface_kleene_dienes_case():
    rows = derivative_surface("kleene_dienes", 0.1)
    lookup = {(round(a, 10), round(c, 10)): (dic, dnota)
              for a, c, dic, dnota in rows}
    dic, dnota = lookup[(0.3, 0.8)]
    assert dic == 1.0 and dnota == 0.0


def test_surface_step_must_divide_one():
    with pytest.raises(ValueError):
        derivative_surface("reichenbach", 0.3)


# ---------------------------------------------------------------------------
# implication-aggregator interaction

def test_interaction_log_product_corner():
    rows = implication_aggregator_interaction("log_product", "reichenbach", 0.25)
    at = {(a, c): d for a, c, d in rows}
    assert at[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-6)


def test_interaction_rmse_corner():
    rows = implication_aggregator_interaction("rmse", "reichenbach", 0.25)
    at = {(a, c): d for a, c, d in rows}
    assert at[(0.0, 0.0)] == pytest.approx(0.0, abs=1e-6)


def test_interaction_log_product_formula():
    # d(log-aggregated)/d(neg antecedent) = (1-c) / (1 - a + a c)
    rows = implication_aggregator_interaction("log_product", "reichenbach", 0.125)
    for a, c, d in rows:
        if 0 < a < 1 and 0 < c < 1:
            expected = (1 - c) / (1 - a + a * c)
            assert d == pytest.approx(expected, abs=1e-9)


def test_interaction_rmse_formula():
    # (1-c)(a - a c) / sqrt(n sum_j (a_j - a_j c_j)^2) with companion 0.9
    rows = implication_aggregator_interaction("rmse", "reichenbach", 0.125)
    for a, c, d in rows:
        if 0 < a < 1 and 0 < c < 1:
            err = a - a * c
            expected = (1 - c) * err / math.sqrt(2 * (err ** 2 + 0.9))
            assert d == pytest.approx(expected, abs=1e-9)


def test_interaction_rejects_other_aggregators():
    with pytest.raises(ValueError):
        implication_aggregator_interaction("min", "reichenbach", 0.25)
