import math
import random
import re

import numpy as np
import pytest

from dfl import operators
from dfl.autodiff import finite_difference_check
from dfl.operators import (
    OperatorConfig,
    OperatorError,
    ConfigError,
    aggregate,
    aggregate_array,
    aggregate_kernel,
    catalog,
    d_Ic,
    d_Inot_a,
    descriptor,
    implication,
    implication_array,
    implication_kernel,
    negation,
    parse_operator_config,
    property_audit,
    sigmoidal_implication,
    sigmoidal_kernel,
    tconorm,
    tconorm_kernel,
    tnorm,
    tnorm_array,
    tnorm_kernel,
    tnorm_duality_check,
    TNORM_NAMES,
)

import scalar_kernels


def kernel_fn(desc):
    def f(tape, leaves):
        xs = [n.value for n in leaves]
        v, partials = desc.kernel(*xs)
        return tape.record(desc.label(), leaves, v, partials)
    return f


# ---------------------------------------------------------------------------
# values

def test_negation_values():
    assert negation(0.0) == 1.0
    assert negation(1.0) == 0.0
    assert negation(0.3) == pytest.approx(0.7)
    with pytest.raises(OperatorError):
        negation(1.2)


def test_tnorm_values():
    assert tnorm("lukasiewicz", 0.7, 0.5) == pytest.approx(0.2)
    assert tnorm("nilpotent", 0.4, 0.5) == 0.0
    assert tnorm("godel", 0.5, 0.4) == 0.4
    assert tnorm("product", 0.5, 0.4) == pytest.approx(0.2)
    assert tnorm("drastic", 0.5, 0.4) == 0.0
    assert tnorm("drastic", 1.0, 0.4) == 0.4
    assert tnorm("yager", 0.5, 0.5, p=2.0) == pytest.approx(1 - math.sqrt(0.5))


def test_tnorm_neutrality_exact():
    rng = random.Random(0)
    for name in TNORM_NAMES:
        p = 2.0 if name == "yager" else None
        for _ in range(50):
            a = rng.random()
            assert tnorm(name, 1.0, a, p) == a, name
            assert tnorm(name, a, 1.0, p) == a, name


def test_tconorm_values():
    assert tconorm("product", 0.3, 0.5) == pytest.approx(0.65)
    assert tconorm("yager", 0.6, 0.8, p=2.0) == 1.0
    assert tconorm("godel", 0.3, 0.5) == 0.5
    assert tconorm("lukasiewicz", 0.3, 0.5) == pytest.approx(0.8)
    assert tconorm("nilpotent", 0.3, 0.5) == 0.5
    assert tconorm("nilpotent", 0.6, 0.5) == 1.0
    assert tconorm("drastic", 0.0, 0.5) == 0.5
    assert tconorm("drastic", 0.1, 0.5) == 1.0


def test_tconorm_neutrality_exact():
    rng = random.Random(1)
    for name in TNORM_NAMES:
        p = 2.0 if name == "yager" else None
        for _ in range(50):
            a = rng.random()
            assert tconorm(name, 0.0, a, p) == a, name
            assert tconorm(name, a, 0.0, p) == a, name


def test_unknown_names_raise():
    with pytest.raises(OperatorError):
        tnorm("frobnicate", 0.5, 0.5)
    with pytest.raises(OperatorError):
        tconorm("frobnicate", 0.5, 0.5)
    with pytest.raises(OperatorError):
        aggregate("frobnicate", [0.5])
    with pytest.raises(OperatorError):
        implication("frobnicate", 0.5, 0.5)
    with pytest.raises(OperatorError):
        tnorm("yager", 0.5, 0.5, p=0.5)


def test_aggregate_values():
    assert aggregate("mae", [0.2, 0.4, 0.6]) == pytest.approx(0.4)
    assert aggregate("nilpotent", [0.6, 0.7, 0.9]) == pytest.approx(0.6)
    assert aggregate("lukasiewicz", [0.9, 0.95, 0.97]) == pytest.approx(0.82)
    assert aggregate("min", [0.3, 0.2, 0.9]) == 0.2
    assert aggregate("max", [0.3, 0.2, 0.9]) == 0.9
    assert aggregate("product", [0.5, 0.5]) == 0.25
    assert aggregate("prob_sum", [0.5, 0.5]) == 0.75
    assert aggregate("bounded_sum", [0.5, 0.3]) == pytest.approx(0.8)
    assert aggregate("rmse", [0.8, 0.6]) == pytest.approx(
        1 - math.sqrt((0.04 + 0.16) / 2))
    assert aggregate("pmean", [0.5, 0.7], p=1.0) == pytest.approx(0.6)


def test_aggregate_all_ones_boundary_exact():
    for name in ("min", "max", "product", "lukasiewicz", "bounded_sum",
                 "prob_sum", "nilpotent", "mae", "rmse"):
        assert aggregate(name, [1.0] * 4) == 1.0, name
        assert aggregate(name, [0.0] * 4) == 0.0, name
    assert aggregate("yager", [1.0] * 4, p=2.0) == 1.0
    assert aggregate("yager", [0.0] * 4, p=2.0) == 0.0
    assert aggregate("pme", [1.0] * 4, p=0.5) == 1.0
    assert aggregate("pmean", [1.0] * 4, p=2.0) == 1.0
    assert aggregate("log_product", [1.0] * 4) == 0.0


def test_aggregate_errors():
    with pytest.raises(OperatorError):
        aggregate("product", [])
    with pytest.raises(OperatorError):
        aggregate("log_product", [0.5, 0.0])
    with pytest.raises(OperatorError):
        aggregate("pme", [0.5], p=0.0)
    with pytest.raises(OperatorError):
        aggregate("mae", [0.5], p=3.0)
    with pytest.raises(OperatorError):
        aggregate("min", [0.5], p=3.0)


def test_log_product_codomain():
    v = aggregate("log_product", [0.5, 0.25])
    assert v == pytest.approx(math.log(0.125))
    assert v <= 0.0


def test_implication_values():
    assert implication("reichenbach", 0.9, 0.4) == pytest.approx(0.46)
    assert implication("goguen", 0.8, 0.4) == pytest.approx(0.5)
    assert implication("goguen", 0.3, 0.4) == 1.0
    assert implication("yager_r", 0.8, 0.4, p=2.0) == pytest.approx(
        1 - math.sqrt(0.36 - 0.04))
    assert implication("kleene_dienes", 0.3, 0.5) == 0.7
    assert implication("lukasiewicz", 0.7, 0.5) == pytest.approx(0.8)
    assert implication("godel", 0.7, 0.5) == 0.5
    assert implication("weber", 0.7, 0.5) == 1.0
    assert implication("fodor", 0.7, 0.5) == 0.5
    assert implication("fodor", 0.9, 0.05) == pytest.approx(0.1)
    assert implication("dubois_prade", 0.7, 0.5) == 1.0
    assert implication("dubois_prade", 1.0, 0.5) == 0.5
    assert implication("dubois_prade", 0.7, 0.0) == pytest.approx(0.3)


def test_implication_boundary_exact():
    names = ["kleene_dienes", "reichenbach", "lukasiewicz", "dubois_prade",
             "fodor", "godel", "goguen", "weber"]
    cases = [(n, None) for n in names] + [("yager_s", p) for p in (1.0, 2.0, 5.0)]
    cases += [("yager_r", p) for p in (1.0, 2.0, 5.0)]
    for name, p in cases:
        assert implication(name, 0.0, 0.0, p=p) == 1.0, name
        assert implication(name, 1.0, 1.0, p=p) == 1.0, name
        assert implication(name, 1.0, 0.0, p=p) == 0.0, name
        assert implication(name, 0.0, 1.0, p=p) == 1.0, name


def test_left_neutrality_derivative_is_one():
    # left-neutral implications have consequent derivative 1 at a=1
    rng = random.Random(3)
    cases = [("kleene_dienes", None), ("reichenbach", None), ("lukasiewicz", None),
             ("fodor", None), ("godel", None), ("goguen", None), ("weber", None),
             ("yager_s", 2.0), ("yager_r", 2.0)]
    for name, p in cases:
        for _ in range(25):
            c = rng.uniform(0.01, 0.99)
            assert d_Ic(name, 1.0, c, p=p) == pytest.approx(1.0, abs=1e-9), name


def test_godel_antecedent_derivative_vanishes():
    rng = random.Random(4)
    for _ in range(200):
        a, c = rng.random(), rng.random()
        assert d_Inot_a("godel", a, c) == 0.0


def test_contrapositive_differentiable_symmetry_s_implications():
    rng = random.Random(5)
    cases = [("kleene_dienes", None), ("reichenbach", None), ("lukasiewicz", None),
             ("yager_s", 2.0), ("fodor", None)]
    for name, p in cases:
        desc = descriptor("implication", name, p=p)
        taken = 0
        while taken < 2000:
            a, c = rng.random(), rng.random()
            if desc.near_locus((a, c), 1e-6) or desc.near_locus((1 - c, 1 - a), 1e-6):
                continue
            taken += 1
            assert d_Ic(name, a, c, p=p) == pytest.approx(
                d_Inot_a(name, 1.0 - c, 1.0 - a, p=p), abs=1e-9), name


# ---------------------------------------------------------------------------
# sigmoidal implications

def test_sigmoidal_small_s_matches_base():
    for i in range(11):
        for j in range(11):
            a, c = i / 10, j / 10
            base = implication("reichenbach", a, c)
            warped = sigmoidal_implication("reichenbach", 0.01, -0.5, a, c)
            assert warped == pytest.approx(base, abs=2e-3)


def test_sigmoidal_boundaries():
    for s in (0.01, 1.0, 9.0, 20.0):
        for b0 in (-0.5, -0.2, 0.0, -1.0):
            assert sigmoidal_implication("reichenbach", s, b0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
            assert sigmoidal_implication("reichenbach", s, b0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
            assert sigmoidal_implication("reichenbach", s, b0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_sigmoidal_level_sets():
    # sigma_I hits 0/1 exactly where the base does, and only there
    rng = random.Random(6)
    for _ in range(200):
        a, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        base = implication("reichenbach", a, c)
        warped = sigmoidal_implication("reichenbach", 9.0, -0.5, a, c)
        if 0.0 < base < 1.0:
            assert 0.0 < warped < 1.0


def test_sigmoidal_b0_half_simplification():
    # general form must agree with the closed form for b0 = -1/2
    rng = random.Random(7)
    for s in (0.5, 3.0, 9.0, 20.0):
        front = 1.0 / (math.exp(s / 2) - 1.0)
        for _ in range(200):
            a, c = rng.random(), rng.random()
            iv = implication("reichenbach", a, c)
            sig = 1.0 / (1.0 + math.exp(-s * (iv - 0.5)))
            simple = front * ((1.0 + math.exp(s / 2)) * sig - 1.0)
            general = sigmoidal_implication("reichenbach", s, -0.5, a, c)
            assert general == pytest.approx(simple, abs=1e-12)


def test_sigmoidal_keeps_contrapositive_symmetry():
    rng = random.Random(8)
    for _ in range(500):
        a, c = rng.random(), rng.random()
        lhs = sigmoidal_implication("reichenbach", 9.0, -0.5, a, c)
        rhs = sigmoidal_implication("reichenbach", 9.0, -0.5, 1 - c, 1 - a)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sigmoidal_requires_positive_s():
    with pytest.raises(OperatorError):
        sigmoidal_implication("reichenbach", 0.0, -0.5, 0.5, 0.5)
    with pytest.raises(OperatorError):
        sigmoidal_implication("reichenbach", -1.0, -0.5, 0.5, 0.5)


def test_sigmoidal_vanishes_only_with_base():
    # derivative factor is strictly positive, so partials vanish exactly
    # where the base partials vanish
    rng = random.Random(9)
    for _ in range(200):
        a, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        _, (bda, bdc) = implication_kernel("godel", a, c)
        _, (sda, sdc) = sigmoidal_kernel("godel", 9.0, -0.5, a, c)
        assert (bda == 0.0) == (sda == 0.0)
        assert (bdc == 0.0) == (sdc == 0.0)


# ---------------------------------------------------------------------------
# derivative correctness (finite differences); full scale in acceptance

@pytest.mark.parametrize("desc", catalog(), ids=lambda d: f"{d.family}:{d.label()}")
def test_finite_difference_sample(desc):
    rng = random.Random(hash((desc.family, desc.label())) & 0xFFFF)
    arity = {"negation": 1, "tnorm": 2, "tconorm": 2, "implication": 2}.get(
        desc.family, 4)
    f = kernel_fn(desc)
    taken = 0
    while taken < 120:
        xs = [rng.uniform(0.002, 0.998) for _ in range(arity)]
        if desc.near_locus(xs, 1e-3):
            continue
        taken += 1
        err = finite_difference_check(f, xs, h=1e-5)
        assert err < 1e-5, (desc.label(), xs, err)


# ---------------------------------------------------------------------------
# duality

@pytest.mark.parametrize("name", TNORM_NAMES)
def test_duality(name):
    p = 2.0 if name == "yager" else None
    assert tnorm_duality_check(name, samples=10_000, p=p, seed=11) < 1e-12


# ---------------------------------------------------------------------------
# recursive t-norm extension vs closed-form aggregator

def _extend_tnorm(name, xs, p=None):
    acc = xs[-1]
    for x in reversed(xs[:-1]):
        acc = tnorm(name, x, acc, p)
    return acc


@pytest.mark.parametrize("tname,aname", [
    ("product", "product"),
    ("godel", "min"),
    ("lukasiewicz", "lukasiewicz"),
    ("nilpotent", "nilpotent"),
])
def test_recursive_extension_matches_aggregator(tname, aname):
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randint(1, 8)
        xs = [rng.random() for _ in range(n)]
        assert _extend_tnorm(tname, xs) == pytest.approx(
            aggregate(aname, xs), abs=1e-12)


# ---------------------------------------------------------------------------
# R-implications vs sup-search oracle

def _r_implication_oracle(tname, a, c, p=None, coarse=10_000, fine=200):
    # sup{b : T(a, b) <= c} by coarse scan plus local refinement;
    # T is increasing in b, so take the largest grid point that passes.
    grid = np.arange(coarse + 1) / coarse
    passing = np.flatnonzero(tnorm_array(tname, a, grid, p)[0] <= c)
    if not len(passing):
        return 0.0
    best = float(grid[passing[-1]])
    lo, hi = best, min(1.0, best + 1.0 / coarse)
    for _ in range(fine):
        mid = 0.5 * (lo + hi)
        if tnorm(tname, a, mid, p) <= c:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("tname,iname,p", [
    ("godel", "godel", None),
    ("product", "goguen", None),
    ("lukasiewicz", "lukasiewicz", None),
    ("drastic", "weber", None),
    ("nilpotent", "fodor", None),
    ("yager", "yager_r", 2.0),
])
def test_r_implication_closed_form_sample(tname, iname, p):
    rng = random.Random(13)
    for _ in range(60):
        a, c = rng.random(), rng.random()
        expected = _r_implication_oracle(tname, a, c, p)
        assert implication(iname, a, c, p=p) == pytest.approx(expected, abs=1e-3)


# ---------------------------------------------------------------------------
# property audit

def _report(desc, **kw):
    return dict((prop, (ok, wit)) for prop, ok, wit in property_audit(desc, **kw))


def test_audit_godel_tnorm_idempotent():
    report = _report(descriptor("tnorm", "godel"))
    assert report["idempotent"][0]
    assert report["commutative"][0]
    assert report["associative"][0]
    assert report["neutral"][0]
    assert report["single-passing"][0]


def test_audit_product_tnorm_not_idempotent_not_single_passing():
    report = _report(descriptor("tnorm", "product"))
    assert not report["idempotent"][0]
    assert report["idempotent"][1] is not None
    assert not report["single-passing"][0]


def test_audit_reichenbach():
    report = _report(descriptor("implication", "reichenbach"))
    assert report["CP"][0]
    assert report["LN"][0]
    assert report["EP"][0]
    assert not report["IP"][0]
    witness = report["IP"][1]
    a = witness[0]
    assert implication("reichenbach", a, a) != pytest.approx(1.0, abs=1e-9)


def test_audit_lukasiewicz_implication_all():
    report = _report(descriptor("implication", "lukasiewicz"))
    for prop in ("LN", "EP", "IP", "CP", "boundary", "monotone"):
        assert report[prop][0], prop


def test_audit_godel_implication():
    report = _report(descriptor("implication", "godel"))
    assert report["LN"][0] and report["EP"][0] and report["IP"][0]
    assert not report["CP"][0]
    assert report["single-passing"][0]


def test_audit_matches_declared_for_catalog():
    testable = {"commutative", "associative", "neutral", "idempotent",
                "LN", "EP", "IP", "CP", "boundary", "monotone",
                "symmetric", "single-passing"}
    for desc in catalog():
        if desc.name == "sigmoidal":
            continue  # audited separately; LN/boundary only hold in the limit
        report = _report(desc, samples=400, seed=21)
        for prop, (ok, witness) in report.items():
            if prop not in testable:
                continue
            declared = prop in desc.properties
            assert ok == declared, (desc.family, desc.label(), prop, witness)


@pytest.mark.parametrize("seed", range(5))
def test_audit_verdicts_match_declared_at_benchmark_samples(seed):
    # the audit benchmark's check: every verdict of every descriptor,
    # sigmoidal included, at its sample count
    for desc in catalog():
        for prop, ok, witness in property_audit(desc, samples=2000, seed=seed):
            assert ok == (prop in desc.properties), \
                (desc.family, desc.label(), prop, witness)


def test_audit_reproducible_per_seed():
    for desc in catalog():
        assert property_audit(desc, samples=300, seed=9) == \
            property_audit(desc, samples=300, seed=9), desc.label()


@pytest.mark.parametrize("kw,text", [(dict(samples=0), "got samples=0,"),
                                     (dict(seed=-3), "seed=-3")])
def test_audit_refuses_bad_samples_and_seed(kw, text):
    with pytest.raises(ValueError, match=text):
        property_audit(descriptor("tnorm", "product"), **kw)


# ---------------------------------------------------------------------------
# the array audits return the reports of their per-point loops over the
# scalar reference kernels: the same verdicts and the same witnesses

@pytest.mark.parametrize("desc", catalog(), ids=lambda d: f"{d.family}:{d.label()}")
def test_property_audit_matches_loop(desc):
    # five seeds, at the benchmark's sample count (2000) and at the
    # acceptance audit's (3000, seed 51)
    for samples, seed in [(2000, 21), (3000, 51), (2000, 1), (2000, 2),
                          (2000, 3)]:
        assert property_audit(desc, samples=samples, seed=seed) == \
            scalar_kernels.property_audit(desc, samples=samples,
                                          seed=seed), (samples, seed)


@pytest.mark.parametrize("name,p", [(name, p) for name in TNORM_NAMES for p in (
    (1.0, 2.0, 5.0) if name == "yager" else (None,))])
def test_duality_check_matches_loop(name, p):
    assert tnorm_duality_check(name, 10_000, p, seed=52) == \
        scalar_kernels.tnorm_duality_check(name, 10_000, p, seed=52)


# ---------------------------------------------------------------------------
# config grammar

def test_parse_operator_config():
    cfg = parse_operator_config(
        "tnorm=yager:p=2 implication=sigmoidal:base=reichenbach,s=9,b0=-0.5 "
        "aggregator=log_product")
    assert cfg.tnorm == "yager" and cfg.tnorm_p == 2.0
    assert cfg.implication == "sigmoidal"
    assert cfg.sigmoid_base == "reichenbach"
    assert cfg.sigmoid_s == 9.0 and cfg.sigmoid_b0 == -0.5
    assert cfg.aggregator == "log_product"
    assert cfg.tconorm == "product"


def test_parse_operator_config_errors():
    with pytest.raises(ConfigError):
        parse_operator_config("frobnicate=product")
    with pytest.raises(ConfigError):
        parse_operator_config("tnorm=unknown_norm")
    with pytest.raises(ConfigError):
        parse_operator_config("tnorm=yager:q=2")
    with pytest.raises(ConfigError):
        parse_operator_config("implication=sigmoidal:s=9")
    with pytest.raises(ConfigError):
        parse_operator_config("aggregator=pme")  # pme needs p
    # every token's name is checked, not only the one that ends up in force
    for text, message in [
            ("tnorm=prodct tnorm=godel", "unknown t-norm 'prodct'"),
            ("tconorm=nope tconorm=godel", "unknown t-conorm 'nope'"),
            ("aggregator=avg aggregator=min", "unknown aggregator 'avg'"),
            ("implication=kd implication=godel", "unknown implication 'kd'")]:
        with pytest.raises(ConfigError, match=message):
            parse_operator_config(text)
    # parameters a non-sigmoidal implication does not take are refused,
    # not dropped
    with pytest.raises(ConfigError, match="parameter 's' not valid here"):
        parse_operator_config("implication=reichenbach:s=3,base=godel")
    with pytest.raises(ConfigError, match=re.escape(
            "'negation=classic:p=2': parameter 'p' not valid here")):
        parse_operator_config("negation=classic:p=2")


def test_config_describe_roundtrip():
    texts = ["tnorm=godel tconorm=godel implication=kleene_dienes "
             "aggregator=pme:p=2",
             "implication=sigmoidal:base=yager_s,s=9,p=2"]
    # every catalog operator the grammar names, at its catalog parameters
    for desc in catalog():
        if desc.family != "negation":
            params = ",".join(f"{k}={v}" for k, v in desc.params)
            texts.append(f"{desc.family}={desc.name}"
                         + (f":{params}" if params else ""))
    for text in texts:
        cfg = parse_operator_config(text)
        assert parse_operator_config(cfg.describe()) == cfg, text


# ---------------------------------------------------------------------------
# the registry

def test_every_registry_row_is_in_the_catalog():
    listed = {(desc.family, desc.name) for desc in catalog()}
    assert listed == set(operators._REGISTRY) | {("implication", "sigmoidal")}


@pytest.mark.parametrize("family,name,kw,message", [
    ("aggregator", "foo", {}, "unknown aggregator 'foo'"),
    ("tnorm", "foo", {}, "unknown t-norm 'foo'"),
    ("tconorm", "foo", {}, "unknown t-conorm 'foo'"),
    ("implication", "foo", {}, "unknown implication 'foo'"),
    ("negation", "foo", {}, "unknown negation 'foo'"),
    ("foo", "product", {}, "unknown family 'foo'"),
    ("implication", "sigmoidal", {}, "requires a base implication"),
    ("implication", "sigmoidal", dict(base="foo", s=9.0),
     "unknown implication 'foo'"),
    ("tnorm", "godel", dict(p=2.0), "t-norm godel takes no parameter p"),
    ("tnorm", "yager", {}, "yager t-norm requires parameter p"),
    ("aggregator", "mae", dict(p=1.0), "mae takes no parameter p"),
    ("aggregator", "pme", dict(p=0.0), "pme requires p > 0, got 0.0"),
    ("implication", "yager_r", dict(p=0.5), "yager_r requires p >= 1, got 0.5"),
    ("implication", "godel", dict(s=9.0, base="lukasiewicz"),
     "implication godel takes no parameter s"),
    ("implication", "reichenbach", dict(b0=-0.5),
     "implication reichenbach takes no parameter b0"),
    ("implication", "yager_s", dict(p=2.0, base="godel"),
     "implication yager_s takes no parameter base"),
    ("tnorm", "product", dict(s=9.0), "t-norm product takes no parameter s"),
    ("aggregator", "mae", dict(base="godel"), "mae takes no parameter base"),
])
def test_descriptor_refuses_unknown_names_and_bad_parameters(family, name, kw,
                                                             message):
    with pytest.raises(OperatorError, match=re.escape(message)):
        descriptor(family, name, **kw)


@pytest.mark.parametrize("kw", [dict(s=9.0), dict(b0=-0.5),
                                dict(base="lukasiewicz")])
def test_only_the_sigmoidal_implication_takes_s_b0_and_base(kw):
    key = next(iter(kw))
    message = f"implication godel takes no parameter {key}"
    for call in (lambda: implication_kernel("godel", 0.3, 0.6, **kw),
                 lambda: implication_array("godel", np.array([0.3]),
                                           np.array([0.6]), **kw)):
        with pytest.raises(OperatorError, match=re.escape(message)):
            call()
    with pytest.raises(OperatorError, match=re.escape(message)):
        OperatorConfig(implication="godel", **{
            {"s": "sigmoid_s", "b0": "sigmoid_b0",
             "base": "sigmoid_base"}[key]: kw[key]}).validate()


# ---------------------------------------------------------------------------
# the array entry points refuse inputs outside [0, 1] by their first bad
# entry in C order

# (entry point, takes scalar and 0-d inputs): each calls one kernel on the
# array ``x``, with 0.5 as a binary kernel's other operand
ARRAY_ENTRIES = {
    "tnorm_array": (lambda x: tnorm_array("product", x, 0.5), True),
    "tnorm_array_second": (lambda x: tnorm_array("product", 0.5, x), True),
    "aggregate_array": (lambda x: aggregate_array("min", x), False),
    "descriptor_implication": (lambda x: descriptor(
        "implication", "reichenbach").array_kernel(x, 0.5), True),
    "descriptor_negation": (lambda x: descriptor(
        "negation", "classic").array_kernel(x), True),
    "descriptor_aggregator": (lambda x: descriptor(
        "aggregator", "lukasiewicz").array_kernel(x), False),
}


def _shaped(bad):
    """``bad`` alone, as a scalar and in 0-d, 1-d and 2-d arrays, paired
    with whether an aggregator can take that shape."""
    return [(bad, False), (np.array(bad), False),
            (np.array([0.5, bad, 0.25]), True),
            (np.array([[0.5, 0.25], [bad, 0.75]]), True)]


@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3,
                                 1.0 + 1e-3])
def test_array_entries_refuse_inputs_outside_the_unit_interval(entry, bad):
    call, scalars = ARRAY_ENTRIES[entry]
    message = f"input must be in [0, 1], got {bad!r}"
    for x, reducible in _shaped(bad):
        if scalars or reducible:
            with pytest.raises(OperatorError, match=re.escape(message)):
                call(x)


@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entries_name_the_first_bad_entry_in_c_order(entry):
    call, _ = ARRAY_ENTRIES[entry]
    # column-major order would meet -0.5 and 2.0 first
    for x, first in ((np.array([[0.5, 1.5], [-0.5, 0.25]]), 1.5),
                     (np.array([[0.5, math.nan], [2.0, 0.0]]), math.nan),
                     (np.array([[0.0, 1.0], [-math.inf, 2.0]]), -math.inf)):
        with pytest.raises(OperatorError,
                           match=re.escape(f"got {first!r}") + "$"):
            call(x)


@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entries_take_signed_zero_and_the_unit_bounds(entry):
    call, scalars = ARRAY_ENTRIES[entry]
    for x, reducible in _shaped(-0.0) + _shaped(0.0) + _shaped(1.0):
        if scalars or reducible:
            call(x)
    call(np.array([[-0.0, 0.0], [1.0, 0.5]]))


def test_array_entries_on_empty_inputs():
    value, partials = tnorm_array("product", np.zeros((0, 3)),
                                  np.zeros((0, 3)))
    assert value.shape == (0, 3)
    assert [d.shape for d in partials] == [(0, 3), (0, 3)]
    value, (da, db) = tnorm_array("product", [], 0.5)
    assert value.shape == db.shape == (0,) and float(da) == 0.5
    value, (d,) = descriptor("negation", "classic").array_kernel([])
    assert value.shape == d.shape == (0,)
    value, partials = aggregate_array("lukasiewicz", np.zeros((2, 0)))
    assert value.shape == (0,)
    assert [d.shape for d in partials] == [(0,), (0,)]
    for X in ([], np.zeros((0, 3))):  # no input to aggregate
        with pytest.raises(OperatorError, match="at least one input"):
            aggregate_array("min", X)
