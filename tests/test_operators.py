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
    catalog,
    descriptor,
    parse_operator_config,
    property_audit,
    tnorm_duality_check,
    TNORM_NAMES,
)

import scalar_kernels
from conftest import op


def kernel_fn(desc):
    def f(tape, leaves):
        xs = [n.value for n in leaves]
        v, partials = desc.kernel(*xs)
        return tape.record(desc.label(), leaves, v, partials)
    return f


# ---------------------------------------------------------------------------
# values

def test_negation_values():
    assert op("negation", "classic").value(0.0) == 1.0
    assert op("negation", "classic").value(1.0) == 0.0
    assert op("negation", "classic").value(0.3) == pytest.approx(0.7)
    with pytest.raises(OperatorError):
        op("negation", "classic").value(1.2)


def test_tnorm_values():
    assert op("tnorm", "lukasiewicz").value(0.7, 0.5) == pytest.approx(0.2)
    assert op("tnorm", "nilpotent").value(0.4, 0.5) == 0.0
    assert op("tnorm", "godel").value(0.5, 0.4) == 0.4
    assert op("tnorm", "product").value(0.5, 0.4) == pytest.approx(0.2)
    assert op("tnorm", "drastic").value(0.5, 0.4) == 0.0
    assert op("tnorm", "drastic").value(1.0, 0.4) == 0.4
    assert op("tnorm", "yager", p=2.0).value(0.5, 0.5) == pytest.approx(
        1 - math.sqrt(0.5))


def test_tnorm_neutrality_exact():
    rng = random.Random(0)
    for name in TNORM_NAMES:
        p = 2.0 if name == "yager" else None
        for _ in range(50):
            a = rng.random()
            assert op("tnorm", name, p).value(1.0, a) == a, name
            assert op("tnorm", name, p).value(a, 1.0) == a, name


def test_tconorm_values():
    assert op("tconorm", "product").value(0.3, 0.5) == pytest.approx(0.65)
    assert op("tconorm", "yager", p=2.0).value(0.6, 0.8) == 1.0
    assert op("tconorm", "godel").value(0.3, 0.5) == 0.5
    assert op("tconorm", "lukasiewicz").value(0.3, 0.5) == pytest.approx(0.8)
    assert op("tconorm", "nilpotent").value(0.3, 0.5) == 0.5
    assert op("tconorm", "nilpotent").value(0.6, 0.5) == 1.0
    assert op("tconorm", "drastic").value(0.0, 0.5) == 0.5
    assert op("tconorm", "drastic").value(0.1, 0.5) == 1.0


def test_tconorm_neutrality_exact():
    rng = random.Random(1)
    for name in TNORM_NAMES:
        p = 2.0 if name == "yager" else None
        for _ in range(50):
            a = rng.random()
            assert op("tconorm", name, p).value(0.0, a) == a, name
            assert op("tconorm", name, p).value(a, 0.0) == a, name


def test_unknown_names_raise():
    with pytest.raises(OperatorError):
        op("tnorm", "frobnicate").value(0.5, 0.5)
    with pytest.raises(OperatorError):
        op("tconorm", "frobnicate").value(0.5, 0.5)
    with pytest.raises(OperatorError):
        op("aggregator", "frobnicate").value(0.5)
    with pytest.raises(OperatorError):
        op("implication", "frobnicate").value(0.5, 0.5)
    with pytest.raises(OperatorError):
        op("tnorm", "yager", p=0.5).value(0.5, 0.5)


def test_aggregate_values():
    assert op("aggregator", "mae").value(0.2, 0.4, 0.6) == pytest.approx(0.4)
    assert op("aggregator", "nilpotent").value(0.6, 0.7, 0.9) == pytest.approx(0.6)
    assert op("aggregator", "lukasiewicz").value(0.9, 0.95, 0.97) == \
        pytest.approx(0.82)
    assert op("aggregator", "min").value(0.3, 0.2, 0.9) == 0.2
    assert op("aggregator", "max").value(0.3, 0.2, 0.9) == 0.9
    assert op("aggregator", "product").value(0.5, 0.5) == 0.25
    assert op("aggregator", "prob_sum").value(0.5, 0.5) == 0.75
    assert op("aggregator", "bounded_sum").value(0.5, 0.3) == pytest.approx(0.8)
    assert op("aggregator", "rmse").value(0.8, 0.6) == pytest.approx(
        1 - math.sqrt((0.04 + 0.16) / 2))
    assert op("aggregator", "pmean", p=1.0).value(0.5, 0.7) == pytest.approx(0.6)


def test_aggregate_all_ones_boundary_exact():
    for name in ("min", "max", "product", "lukasiewicz", "bounded_sum",
                 "prob_sum", "nilpotent", "mae", "rmse"):
        assert op("aggregator", name).value(*[1.0] * 4) == 1.0, name
        assert op("aggregator", name).value(*[0.0] * 4) == 0.0, name
    assert op("aggregator", "yager", p=2.0).value(*[1.0] * 4) == 1.0
    assert op("aggregator", "yager", p=2.0).value(*[0.0] * 4) == 0.0
    assert op("aggregator", "pme", p=0.5).value(*[1.0] * 4) == 1.0
    assert op("aggregator", "pmean", p=2.0).value(*[1.0] * 4) == 1.0
    assert op("aggregator", "log_product").value(*[1.0] * 4) == 0.0


def test_aggregate_errors():
    with pytest.raises(OperatorError):
        op("aggregator", "product").value()
    with pytest.raises(OperatorError):
        op("aggregator", "log_product").value(0.5, 0.0)
    with pytest.raises(OperatorError):
        op("aggregator", "pme", p=0.0).value(0.5)
    with pytest.raises(OperatorError):
        op("aggregator", "mae", p=3.0).value(0.5)
    with pytest.raises(OperatorError):
        op("aggregator", "min", p=3.0).value(0.5)


def test_log_product_codomain():
    v = op("aggregator", "log_product").value(0.5, 0.25)
    assert v == pytest.approx(math.log(0.125))
    assert v <= 0.0


def test_implication_values():
    assert op("implication", "reichenbach").value(0.9, 0.4) == pytest.approx(0.46)
    assert op("implication", "goguen").value(0.8, 0.4) == pytest.approx(0.5)
    assert op("implication", "goguen").value(0.3, 0.4) == 1.0
    assert op("implication", "yager_r", p=2.0).value(0.8, 0.4) == pytest.approx(
        1 - math.sqrt(0.36 - 0.04))
    assert op("implication", "kleene_dienes").value(0.3, 0.5) == 0.7
    assert op("implication", "lukasiewicz").value(0.7, 0.5) == pytest.approx(0.8)
    assert op("implication", "godel").value(0.7, 0.5) == 0.5
    assert op("implication", "weber").value(0.7, 0.5) == 1.0
    assert op("implication", "fodor").value(0.7, 0.5) == 0.5
    assert op("implication", "fodor").value(0.9, 0.05) == pytest.approx(0.1)
    assert op("implication", "dubois_prade").value(0.7, 0.5) == 1.0
    assert op("implication", "dubois_prade").value(1.0, 0.5) == 0.5
    assert op("implication", "dubois_prade").value(0.7, 0.0) == pytest.approx(0.3)


def test_implication_boundary_exact():
    names = ["kleene_dienes", "reichenbach", "lukasiewicz", "dubois_prade",
             "fodor", "godel", "goguen", "weber"]
    cases = [(n, None) for n in names] + [("yager_s", p) for p in (1.0, 2.0, 5.0)]
    cases += [("yager_r", p) for p in (1.0, 2.0, 5.0)]
    for name, p in cases:
        assert op("implication", name, p=p).value(0.0, 0.0) == 1.0, name
        assert op("implication", name, p=p).value(1.0, 1.0) == 1.0, name
        assert op("implication", name, p=p).value(1.0, 0.0) == 0.0, name
        assert op("implication", name, p=p).value(0.0, 1.0) == 1.0, name


def test_left_neutrality_derivative_is_one():
    # left-neutral implications have consequent derivative 1 at a=1
    rng = random.Random(3)
    cases = [("kleene_dienes", None), ("reichenbach", None), ("lukasiewicz", None),
             ("fodor", None), ("godel", None), ("goguen", None), ("weber", None),
             ("yager_s", 2.0), ("yager_r", 2.0)]
    for name, p in cases:
        impl = op("implication", name, p=p)
        for _ in range(25):
            c = rng.uniform(0.01, 0.99)
            assert impl.kernel(1.0, c)[1][1] == pytest.approx(1.0, abs=1e-9), name


def test_godel_antecedent_derivative_vanishes():
    rng = random.Random(4)
    for _ in range(200):
        a, c = rng.random(), rng.random()
        assert -op("implication", "godel").kernel(a, c)[1][0] == 0.0


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
            assert desc.kernel(a, c)[1][1] == pytest.approx(
                -desc.kernel(1.0 - c, 1.0 - a)[1][0], abs=1e-9), name


# ---------------------------------------------------------------------------
# sigmoidal implications

def test_sigmoidal_small_s_matches_base():
    for i in range(11):
        for j in range(11):
            a, c = i / 10, j / 10
            base = op("implication", "reichenbach").value(a, c)
            warped = op("implication", "sigmoidal", s=0.01, b0=-0.5,
                        base="reichenbach").value(a, c)
            assert warped == pytest.approx(base, abs=2e-3)


def test_sigmoidal_boundaries():
    for s in (0.01, 1.0, 9.0, 20.0):
        for b0 in (-0.5, -0.2, 0.0, -1.0):
            sig = op("implication", "sigmoidal", s=s, b0=b0, base="reichenbach")
            assert sig.value(0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
            assert sig.value(1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
            assert sig.value(1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_sigmoidal_level_sets():
    # sigma_I hits 0/1 exactly where the base does, and only there
    rng = random.Random(6)
    for _ in range(200):
        a, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        base = op("implication", "reichenbach").value(a, c)
        warped = op("implication", "sigmoidal", s=9.0, b0=-0.5,
                    base="reichenbach").value(a, c)
        if 0.0 < base < 1.0:
            assert 0.0 < warped < 1.0


def test_sigmoidal_b0_half_simplification():
    # general form must agree with the closed form for b0 = -1/2
    rng = random.Random(7)
    for s in (0.5, 3.0, 9.0, 20.0):
        front = 1.0 / (math.exp(s / 2) - 1.0)
        for _ in range(200):
            a, c = rng.random(), rng.random()
            iv = op("implication", "reichenbach").value(a, c)
            sig = 1.0 / (1.0 + math.exp(-s * (iv - 0.5)))
            simple = front * ((1.0 + math.exp(s / 2)) * sig - 1.0)
            general = op("implication", "sigmoidal", s=s, b0=-0.5,
                         base="reichenbach").value(a, c)
            assert general == pytest.approx(simple, abs=1e-12)


def test_sigmoidal_keeps_contrapositive_symmetry():
    rng = random.Random(8)
    sig = op("implication", "sigmoidal", s=9.0, b0=-0.5, base="reichenbach")
    for _ in range(500):
        a, c = rng.random(), rng.random()
        lhs = sig.value(a, c)
        rhs = sig.value(1 - c, 1 - a)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sigmoidal_requires_positive_s():
    with pytest.raises(OperatorError):
        op("implication", "sigmoidal", s=0.0, b0=-0.5,
           base="reichenbach").value(0.5, 0.5)
    with pytest.raises(OperatorError):
        op("implication", "sigmoidal", s=-1.0, b0=-0.5,
           base="reichenbach").value(0.5, 0.5)


def test_sigmoidal_vanishes_only_with_base():
    # derivative factor is strictly positive, so partials vanish exactly
    # where the base partials vanish
    rng = random.Random(9)
    for _ in range(200):
        a, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        _, (bda, bdc) = op("implication", "godel").kernel(a, c)
        _, (sda, sdc) = op("implication", "sigmoidal", s=9.0, b0=-0.5,
                           base="godel").kernel(a, c)
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


def test_near_locus_takes_every_input_count_its_kernel_takes():
    rng = random.Random(29)
    for desc in catalog():
        counts = {"negation": [1], "aggregator": range(1, 6)}.get(
            desc.family, [2])
        for n in counts:
            for _ in range(50):
                xs = [rng.choice([0.0, 0.5, 1.0, rng.random()])
                      for _ in range(n)]
                assert desc.near_locus(xs, 1e-3) in (True, False), (
                    desc.label(), xs)


def test_closed_form_fraction_is_none_where_the_paper_gives_none():
    assert descriptor("aggregator", "nilpotent").fraction(3) == 0.25
    assert descriptor("aggregator", "yager", p=2.0).fraction(3) is None
    for desc in (descriptor("negation", "classic"),
                 descriptor("aggregator", "bounded_sum"),
                 descriptor("implication", "sigmoidal", base="reichenbach",
                            s=9.0)):
        assert desc.fraction(2) is None, desc.label()


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
        acc = op("tnorm", name, p).value(x, acc)
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
            op("aggregator", aname).value(*xs), abs=1e-12)


# ---------------------------------------------------------------------------
# R-implications vs sup-search oracle

def _r_implication_oracle(tname, a, c, p=None, coarse=10_000, fine=200):
    # sup{b : T(a, b) <= c} by coarse scan plus local refinement;
    # T is increasing in b, so take the largest grid point that passes.
    grid = np.arange(coarse + 1) / coarse
    passing = np.flatnonzero(
        op("tnorm", tname, p).array_kernel(a, grid)[0] <= c)
    if not len(passing):
        return 0.0
    best = float(grid[passing[-1]])
    lo, hi = best, min(1.0, best + 1.0 / coarse)
    for _ in range(fine):
        mid = 0.5 * (lo + hi)
        if op("tnorm", tname, p).value(a, mid) <= c:
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
        assert op("implication", iname, p=p).value(a, c) == pytest.approx(
            expected, abs=1e-3)


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
    assert op("implication", "reichenbach").value(a, a) != pytest.approx(
        1.0, abs=1e-9)


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
    assert cfg.tnorm.name == "yager" and cfg.tnorm.p == 2.0
    assert cfg.implication.name == "sigmoidal"
    params = dict(cfg.implication.params)
    assert params["base"] == "reichenbach"
    assert params["s"] == 9.0 and params["b0"] == -0.5
    assert cfg.aggregator.name == "log_product"
    assert cfg.tconorm.name == "product"
    # a sigmoidal token without p keeps the implication's p
    carried = parse_operator_config(
        "implication=yager_s:p=2 implication=sigmoidal:base=yager_s,s=9")
    assert carried.implication == descriptor("implication", "sigmoidal",
                                             base="yager_s", s=9.0, p=2.0)


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
    # a parameter given twice is refused, not overwritten
    for text, key in [("tnorm=yager:p=2,p=3", "p"),
                      ("implication=sigmoidal:base=reichenbach,s=9,"
                       "base=godel,s=1", "base")]:
        with pytest.raises(ConfigError, match=re.escape(
                f"{text}: parameter {key!r} given twice")):
            parse_operator_config(text)
    # every token's parameters are checked too, as its name is
    with pytest.raises(ConfigError,
                       match="yager t-norm requires parameter p"):
        parse_operator_config("tnorm=yager tnorm=godel")


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
     "unknown sigmoidal base 'foo'"),
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


@pytest.mark.parametrize("family, name, counts, message", [
    ("tnorm", "product", (1, 3), "tnorm kernels are binary; got n={n}"),
    ("tconorm", "godel", (0, 3), "tconorm kernels are binary; got n={n}"),
    ("implication", "reichenbach", (1, 3),
     "implication kernels are binary; got n={n}"),
    ("negation", "classic", (0, 2), "negation kernels are unary; got n={n}"),
])
def test_descriptors_refuse_a_wrong_input_count(family, name, counts,
                                                message):
    desc = descriptor(family, name)
    for n in counts:
        for call in (desc.kernel, desc.array_kernel):
            with pytest.raises(OperatorError,
                               match=f"^{message.format(n=n)}$"):
                call(*[0.5] * n)


def test_aggregator_descriptors_refuse_a_wrong_input_count():
    desc = descriptor("aggregator", "min")
    with pytest.raises(OperatorError,
                       match="^aggregator kernels need n >= 1; got n=0$"):
        desc.kernel()
    for xs in ((), (np.array([0.5]), np.array([0.5]))):
        with pytest.raises(OperatorError, match=(
                "^aggregator array kernels take one array of n >= 1 "
                f"inputs; got {len(xs)} arrays$")):
            desc.array_kernel(*xs)
    assert desc.kernel(0.5) == (0.5, [1.0])


def test_sigmoidal_descriptor_records_the_b0_it_runs_with():
    implicit = descriptor("implication", "sigmoidal", base="reichenbach", s=9)
    explicit = descriptor("implication", "sigmoidal", base="reichenbach", s=9,
                          b0=-0.5)
    assert implicit.params == explicit.params == (
        ("base", "reichenbach"), ("s", 9), ("b0", -0.5))
    assert implicit.label() == "sigmoidal(base=reichenbach,s=9,b0=-0.5)"
    assert implicit == explicit
    assert implicit.kernel(0.3, 0.6) == explicit.kernel(0.3, 0.6)
    assert implicit != descriptor("implication", "sigmoidal",
                                  base="reichenbach", s=9, b0=-0.2)


def test_dfl_exports_descriptor_and_not_the_removed_functions():
    import dfl
    assert dfl.descriptor is descriptor
    for name in ("negation", "tnorm", "tconorm", "aggregate", "implication",
                 "sigmoidal_implication", "tnorm_kernel", "tnorm_array",
                 "implication_array", "d_Ic", "d_Inot_a", "sigmoidal_kernel"):
        assert not hasattr(dfl, name) and not hasattr(operators, name), name


@pytest.mark.parametrize("kw", [dict(s=9.0), dict(b0=-0.5),
                                dict(base="lukasiewicz")])
def test_only_the_sigmoidal_implication_takes_s_b0_and_base(kw):
    key = next(iter(kw))
    message = f"implication godel takes no parameter {key}"
    for call in (lambda: op("implication", "godel", **kw).kernel(0.3, 0.6),
                 lambda: op("implication", "godel", **kw).array_kernel(
                     np.array([0.3]), np.array([0.6]))):
        with pytest.raises(OperatorError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family,name,kw,key", [
    ("tnorm", "yager", {}, "p"),
    ("aggregator", "pme", {}, "p"),
    ("implication", "yager_s", {}, "p"),
    ("implication", "sigmoidal", dict(base="yager_s", s=9.0), "p"),
    ("implication", "sigmoidal", dict(base="reichenbach"), "s"),
    ("implication", "sigmoidal", dict(base="reichenbach", s=9.0), "b0"),
])
def test_descriptor_refuses_non_finite_parameters(family, name, kw, key, x):
    with pytest.raises(OperatorError, match=f"finite|{key} > 0|{key} >= 1"):
        descriptor(family, name, **kw, **{key: x})


def test_operator_config_holds_one_descriptor_per_family():
    cfg = OperatorConfig()
    assert [d.family for d in vars(cfg).values()] == [
        "tnorm", "tconorm", "implication", "aggregator"]
    assert cfg.describe() == ("tnorm=product tconorm=product "
                              "implication=reichenbach aggregator=product")
    with pytest.raises(OperatorError, match=re.escape(
            "OperatorConfig.tnorm must be an OperatorDescriptor of family "
            "'tnorm', got 'godel'")):
        OperatorConfig(tnorm="godel")
    with pytest.raises(OperatorError, match=re.escape(
            "OperatorConfig.aggregator must be an OperatorDescriptor of "
            "family 'aggregator'")):
        OperatorConfig(aggregator=descriptor("tnorm", "product"))


# ---------------------------------------------------------------------------
# the array entry points refuse inputs outside [0, 1] by their first bad
# entry in C order

# (entry point, takes scalar and 0-d inputs): each calls one kernel on the
# array ``x``, with 0.5 as a binary kernel's other operand
ARRAY_ENTRIES = {
    "tnorm_array": (lambda x: op("tnorm", "product").array_kernel(x, 0.5),
                    True),
    "tnorm_array_second": (
        lambda x: op("tnorm", "product").array_kernel(0.5, x), True),
    "aggregate_array": (lambda x: op("aggregator", "min").array_kernel(x),
                        False),
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
    value, partials = op("tnorm", "product").array_kernel(np.zeros((0, 3)),
                                                          np.zeros((0, 3)))
    assert value.shape == (0, 3)
    assert [d.shape for d in partials] == [(0, 3), (0, 3)]
    value, (da, db) = op("tnorm", "product").array_kernel([], 0.5)
    assert value.shape == db.shape == (0,) and float(da) == 0.5
    value, (d,) = descriptor("negation", "classic").array_kernel([])
    assert value.shape == d.shape == (0,)
    value, partials = op("aggregator", "lukasiewicz").array_kernel(np.zeros((2, 0)))
    assert value.shape == (0,)
    assert [d.shape for d in partials] == [(0,), (0,)]
    for X in ([], np.zeros((0, 3))):  # no input to aggregate
        with pytest.raises(OperatorError, match="at least one input"):
            op("aggregator", "min").array_kernel(X)
