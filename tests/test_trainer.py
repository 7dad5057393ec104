import math
import re

import numpy as np
import pytest

from dfl import trainer
from dfl.analysis import gradient_quality, labeling_from_atoms
from dfl.logic import Not, parse_formula, parse_kb
from dfl.operators import OperatorConfig, parse_operator_config
from dfl.trainer import (
    DIGITS,
    MetricsRecord,
    TinyModel,
    TrainConfig,
    _BatchInterpretation,
    _atom_adjoints,
    _batch_frame,
    _ce_gradients,
    _dfl_gradients,
    _pair_pool,
    _same_bce_gradients,
    _same_pairs,
    config_sweep,
    digit_kb,
    evaluate,
    fuzzy_max_sat,
    make_task,
    parse_train_config,
    semi_supervised_train,
    toy_optimization_rate,
)
from dfl.valuation import (Domain, SemanticError, build_grounding, dfl_loss,
                           loss_gradient)
import scalar_reference
from scalar_reference import classical_truth

GODEL = parse_operator_config(
    "tnorm=godel tconorm=godel implication=kleene_dienes aggregator=min")
LUK = parse_operator_config(
    "tnorm=lukasiewicz tconorm=lukasiewicz implication=lukasiewicz "
    "aggregator=lukasiewicz")

TOY = "forall x: (a(x) & b(x)) | (c(x) & ~a(x))"

FAST = dict(steps=40, eval_interval=20, n_points=600, test_n=200, dfl_batch=4)


# ---------------------------------------------------------------------------
# fuzzy maximum satisfiability

def test_single_atom_converges():
    kb = parse_kb("forall x: p(x)")
    for ops in (OperatorConfig(), GODEL, LUK):
        result = fuzzy_max_sat(kb, ops, seed=1, eps=0.1, steps=500)
        assert result.reached_optimum
        assert result.assignment[("p", (0,))] >= 0.99
        assert result.trajectory[-1] >= 0.99


def test_max_sat_trajectory_monotone_for_godel():
    kb = parse_kb(TOY)
    result = fuzzy_max_sat(kb, GODEL, seed=3, steps=200)
    traj = result.trajectory
    assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))


def test_max_sat_nonconvergent_flagged_not_raised():
    # drastic operators have no interior gradient: descent cannot move
    kb = parse_kb("forall x: p(x) & q(x)")
    ops = parse_operator_config("tnorm=drastic tconorm=drastic")
    result = fuzzy_max_sat(kb, ops, seed=5, steps=20)
    assert not result.reached_optimum
    assert len(result.trajectory) >= 1


def test_toy_rates_lukasiewicz():
    rate = toy_optimization_rate(TOY, LUK, inits=300, seed=11)
    assert rate == pytest.approx(0.835, abs=0.06)


def test_toy_rates_godel_always_converges():
    # Subgradient coordinate dynamics for this formula are monotone under
    # the Godel pair: whichever disjunct is active only ever improves.
    rate = toy_optimization_rate(TOY, GODEL, inits=200, seed=12)
    assert rate >= 0.99


# ---------------------------------------------------------------------------
# synthetic task

def test_make_task_splits():
    task = make_task(0, n=2000, labeled_fraction=0.01)
    assert set(task.labeled_idx).isdisjoint(task.unlabeled_idx)
    assert len(task.labeled_idx) + len(task.unlabeled_idx) == 2000
    assert abs(len(task.labeled_idx) - 20) <= 1
    assert set(task.y[task.labeled_idx]) == set(range(10))
    assert task.X.shape == (2000, 16)


def test_untrained_model_near_chance():
    accs = []
    for seed in range(3):
        task = make_task(seed, n=600, test_n=500)
        model = TinyModel(task.dim, 32, 10, seed=seed)
        accs.append(evaluate(model, task))
    assert np.mean(accs) == pytest.approx(0.1, abs=0.05)


def test_memorizes_labeled_set():
    task = make_task(1, n=600, test_n=100)
    config = TrainConfig(w_dfl=0.0, seed=1, steps=1500, lr=0.01,
                         n_points=600, test_n=100)
    model, _ = semi_supervised_train(task, config)
    P = model.class_probs(task.X[task.labeled_idx])
    train_acc = (P.argmax(axis=1) == task.y[task.labeled_idx]).mean()
    assert train_acc == 1.0


# ---------------------------------------------------------------------------
# training mechanics

def test_determinism():
    task = make_task(4, n=600, test_n=200)
    config = TrainConfig(seed=4, **FAST)
    _, m1 = semi_supervised_train(task, config)
    _, m2 = semi_supervised_train(task, config)
    assert [repr(m.row()) for m in m1] == [repr(m.row()) for m in m2]



def test_second_run_hits_the_valuation_caches():
    from dfl import valuation
    task = make_task(4, n=600, test_n=200)
    for formulas in [(1, 2, 3), (2,)]:
        config = TrainConfig(seed=4, formulas=formulas, **FAST)
        _, m1 = semi_supervised_train(task, config)
        before = valuation._plan.cache_info().misses
        _, m2 = semi_supervised_train(task, config)
        assert valuation._plan.cache_info().misses == before
        assert [repr(m.row()) for m in m1] == [repr(m.row()) for m in m2]
    assert digit_kb() is not digit_kb()  # the public parse stays fresh


def test_train_run_builds_one_plan_and_reuses_it():
    from dfl import valuation
    task = make_task(12, n=600, test_n=200)
    config = TrainConfig(seed=12, steps=20, eval_interval=10, n_points=600,
                         test_n=200, dfl_batch=5)
    valuation._plan.cache_clear()
    semi_supervised_train(task, config)
    info = valuation._plan.cache_info()
    # the first step builds the plan; the other 19 steps and both quality
    # evaluations reuse it
    assert (info.misses, info.hits, info.currsize) == (1, 21, 1)
    # a knowledge base that gains a formula gets a plan of its own
    kb = parse_kb("forall x, y: one(x) & same(x, y) -> one(y)")
    P = np.full((3, 10), 0.1)
    S = np.full((3, 3), 0.5)

    def misses():
        g = build_grounding(_BatchInterpretation(P, S),
                            Domain(["b0", "b1", "b2"]), kb.signature,
                            [0, 1, 2])
        loss_gradient(kb, g, parse_operator_config("aggregator=log_product"))
        return valuation._plan.cache_info().misses

    assert misses() == misses() == 2
    kb.add(parse_formula("forall x, y: same(x, y) -> same(y, x)"))
    assert misses() == 3


def test_w_dfl_zero_is_supervised_baseline():
    task = make_task(5, n=600, test_n=200)
    _, base = semi_supervised_train(task, TrainConfig(w_dfl=0.0, seed=5, **FAST))
    _, again = semi_supervised_train(task, TrainConfig(w_dfl=0.0, seed=5, **FAST))
    assert [repr(m.row()) for m in base] == [repr(m.row()) for m in again]
    assert base[-1].loss_dfl == 0.0
    assert math.isnan(base[-1].cons_pct)


def test_gradient_step_identity():
    # one step must equal -lr * (g_sup + g_same + w_dfl * g_dfl)
    task = make_task(6, n=400, test_n=100)
    model = TinyModel(task.dim, 16, 10, seed=6)
    kb = digit_kb()
    rng = np.random.default_rng(0)
    sup_idx = task.labeled_idx[:10]
    X_sup, y_sup = task.X[sup_idx], task.y[sup_idx]
    batch = task.unlabeled_idx[:4]
    w_dfl = 10.0
    H_sup = model.hidden(X_sup)

    g_sup = model.zero_grads()
    _ce_gradients(model, X_sup, H_sup, y_sup, g_sup)
    g_same = model.zero_grads()
    pos, neg = _same_pairs(rng, y_sup)
    _same_bce_gradients(model, X_sup, H_sup, pos, neg, g_same)
    g_dfl = model.zero_grads()
    frame = _batch_frame(len(batch), kb)
    _dfl_gradients(model, task.X[batch], kb, parse_operator_config(
        "aggregator=log_product"), 1.0, g_dfl, frame)

    combined = model.zero_grads()
    _ce_gradients(model, X_sup, H_sup, y_sup, combined)
    _same_bce_gradients(model, X_sup, H_sup, pos, neg, combined)
    _dfl_gradients(model, task.X[batch], kb, parse_operator_config(
        "aggregator=log_product"), w_dfl, combined, frame)

    before = model.get_flat()
    model.apply_step(combined, lr=0.01)
    after = model.get_flat()
    expected = np.concatenate([
        (g_sup[k] + g_same[k] + w_dfl * g_dfl[k]).ravel()
        for k in model.PARAMS])
    np.testing.assert_allclose(after, before - 0.01 * expected,
                               rtol=1e-9, atol=1e-12)


def test_dfl_gradients_match_finite_differences():
    # fuzzy loss chained through softmax/bilinear heads vs central
    # differences on the full parameter vector (spot-checked coords)
    task = make_task(7, n=200, test_n=50)
    model = TinyModel(task.dim, 8, 10, seed=7)
    kb = digit_kb()
    ops = parse_operator_config("aggregator=log_product")
    batch = task.unlabeled_idx[:3]
    X = task.X[batch]
    grads = model.zero_grads()
    frame = _batch_frame(len(X), kb)
    _dfl_gradients(model, X, kb, ops, 1.0, grads, frame)
    flat_grad = np.concatenate([grads[k].ravel() for k in model.PARAMS])

    def loss_at(flat):
        probe = TinyModel(task.dim, 8, 10, seed=7)
        probe.set_flat(flat)
        g = probe.zero_grads()
        value, _ = _dfl_gradients(probe, X, kb, ops, 1.0, g, frame)
        return value

    theta = model.get_flat()
    rng = np.random.default_rng(3)
    for idx in rng.choice(theta.size, size=25, replace=False):
        h = 1e-5
        up, down = theta.copy(), theta.copy()
        up[idx] += h
        down[idx] -= h
        numeric = (loss_at(up) - loss_at(down)) / (2 * h)
        assert flat_grad[idx] == pytest.approx(numeric, abs=2e-4), idx


def test_class_probs_sum_to_one():
    task = make_task(8, n=100, test_n=10)
    model = TinyModel(task.dim, 16, 10, seed=8)
    P = model.class_probs(task.X[:32])
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
    S = model.same_probs(model.hidden(task.X[:8]))
    assert np.all((S > 0) & (S < 1))


def test_same_pairs_undersampling():
    rng = np.random.default_rng(1)
    y = np.array([0, 0, 1, 2, 3, 4, 5, 6])
    pos, neg = _same_pairs(rng, y)
    assert len(neg) == len(pos)
    assert all(y[i] == y[j] for i, j in pos)
    assert all(y[i] != y[j] for i, j in neg)


@pytest.mark.parametrize("labels", [
    "task", [0, 0, 1, 2, 3, 4, 5, 6], [0, 0, 0, 0], [0, 1, 2, 3]])
def test_same_pairs_from_a_pool_match_pairs_from_scratch(labels):
    task = make_task(0)
    y = task.y[task.labeled_idx] if labels == "task" else np.array(labels)
    pool = _pair_pool(y)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3):  # the pool is reused, not used up
        pooled, fresh = _same_pairs(rng_a, y, pool), _same_pairs(rng_b, y)
        for got, want in zip(pooled, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _loop_same_pairs(rng, y_batch):
    # the per-pair loop version of _same_pairs
    n = len(y_batch)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    pos = [(i, j) for i, j in pairs if y_batch[i] == y_batch[j]]
    neg = [(i, j) for i, j in pairs if y_batch[i] != y_batch[j]]
    if len(neg) > len(pos):
        idx = rng.choice(len(neg), size=len(pos), replace=False)
        neg = [neg[k] for k in idx]
    return pos, neg


def _loop_same_bce_gradients(model, X, pos, neg, grads):
    # the per-pair loop version of _same_bce_gradients
    from dfl.trainer import _sigmoid
    H = model.hidden(X)
    Z = model.same_logits(H)
    S = _sigmoid(Z)
    pairs = [(i, j, 1.0) for i, j in pos] + [(i, j, 0.0) for i, j in neg]
    if not pairs:
        return 0.0
    dZ = np.zeros_like(Z)
    loss = 0.0
    for i, j, t in pairs:
        s = min(max(S[i, j], 1e-12), 1 - 1e-12)
        loss -= t * math.log(s) + (1 - t) * math.log(1 - s)
        dZ[i, j] += s - t
    model.same_backward(X, H, dZ, grads)
    return loss


@pytest.mark.parametrize("labels", [
    "task", [0, 0, 0, 0], [0, 1, 2, 3], [3, 3, 1, 2, 1, 3, 0]])
def test_same_pairs_and_bce_match_loop_version(labels):
    task = make_task(0)
    y = task.y[task.labeled_idx] if labels == "task" else np.array(labels)
    X = task.X[task.labeled_idx[:len(y)]]
    model = TinyModel(task.dim, 32, 10, seed=3)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    pos, neg = _same_pairs(rng_a, y)
    loop_pos, loop_neg = _loop_same_pairs(rng_b, y)
    assert [tuple(p) for p in pos.tolist()] == loop_pos
    assert [tuple(p) for p in neg.tolist()] == loop_neg
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    grads, loop_grads = model.zero_grads(), model.zero_grads()
    loss = _same_bce_gradients(model, X, model.hidden(X), pos, neg, grads)
    loop_loss = _loop_same_bce_gradients(model, X, loop_pos, loop_neg,
                                         loop_grads)
    assert loss == loop_loss
    for key in model.PARAMS:
        assert np.array_equal(grads[key], loop_grads[key]), key
    # steps that record no loss add the same gradient
    quiet = model.zero_grads()
    assert _same_bce_gradients(model, X, model.hidden(X), pos, neg, quiet,
                               loss=False) is None
    for key in model.PARAMS:
        assert np.array_equal(quiet[key], grads[key]), key


# ---------------------------------------------------------------------------
# gradient quality during training

def _readback_loop(g, loss, P, S, w_dfl):
    """dP and dZ as the trainer read them back from the tape before
    ``loss_gradient``: one Python step per atom."""
    adjoints = g.tape.backward(loss)
    dP = np.zeros_like(P)
    dZ = np.zeros_like(S)
    for (pred, objs), node in g.nodes.items():
        a = adjoints[node] * w_dfl
        if a == 0.0:
            continue
        if pred == "same":
            i, j = objs
            dZ[i, j] += a * S[i, j] * (1.0 - S[i, j])
        else:
            dP[objs[0], DIGITS.index(pred)] += a
    return dP, dZ


@pytest.mark.parametrize("ops", [parse_operator_config("aggregator=log_product"),
                                 GODEL, LUK], ids=["log_product", "godel",
                                                   "lukasiewicz"])
def test_atom_adjoints_equal_the_readback_loop(ops):
    rng = np.random.default_rng(4)
    for formulas, b, w_dfl in [((1, 2, 3), 4, 10.0), ((1, 2, 3), 5, 0.3),
                               ((3,), 3, 1.0), ((2,), 4, 2.5)]:
        P = rng.dirichlet(np.ones(10), size=b)
        S = rng.uniform(0.0, 1.0, size=(b, b))
        S[0, -1] = 1.0  # a saturated pair: 1 - S is exactly 0
        kb = digit_kb(formulas)
        domain = Domain([f"b{i}" for i in range(b)])

        def grounding():
            return build_grounding(_BatchInterpretation(P, S), domain,
                                   kb.signature, list(range(b)))

        g = grounding()
        _, grad = loss_gradient(kb, g, ops)
        dP, dZ = _atom_adjoints(g, grad * w_dfl, P, S,
                                _batch_frame(b, kb)[2])
        g = grounding()
        want_dP, want_dZ = _readback_loop(g, dfl_loss(kb, g, ops), P, S, w_dfl)
        assert dP.tobytes() == want_dP.tobytes(), formulas
        assert dZ.tobytes() == want_dZ.tobytes(), formulas


def test_batch_interpretation_rejects_non_finite_scores():
    P = np.full((2, 10), 0.1)
    P[1, DIGITS.index("three")] = np.nan
    S = np.full((2, 2), 0.5)
    kb = digit_kb()
    with pytest.raises(SemanticError, match=r"nan for three\(b1\) is outside"):
        build_grounding(_BatchInterpretation(P, S), Domain(["b0", "b1"]),
                        kb.signature, [0, 1])


def test_godel_config_cons_pct_one():
    task = make_task(9, n=600, test_n=100)
    ops = parse_operator_config("implication=godel aggregator=log_product")
    _, metrics = semi_supervised_train(task, TrainConfig(ops=ops, seed=9, **FAST))
    for record in metrics:
        assert record.cons_pct == pytest.approx(1.0)


def test_cu_ant_under_shuffled_labels_matches_counting_oracle():
    # with shuffled labels, cu_ant% must land within 3 sigma of the
    # label-marginal expectation computed by brute-force counting
    task = make_task(10, n=1000, test_n=100)
    rng = np.random.default_rng(10)
    shuffled = rng.permutation(task.y)
    marginal = np.bincount(shuffled, minlength=10) / len(shuffled)
    model = TinyModel(task.dim, 16, 10, seed=10)
    kb = digit_kb()
    ops = parse_operator_config("aggregator=log_product")
    batch = task.unlabeled_idx[:6]

    from dfl.trainer import _softmax
    H = model.hidden(task.X[batch])
    P = _softmax(H @ model.theta["W2"] + model.theta["b2"])
    S = model.same_probs(H)
    interp = _BatchInterpretation(P, S)
    domain = Domain([f"b{i}" for i in range(len(batch))])
    g = build_grounding(interp, domain, kb.signature, list(range(len(batch))))

    def shuffled_atom(pred, objs):
        if pred == "same":
            return int(shuffled[batch[objs[0]]] == shuffled[batch[objs[1]]])
        return int(shuffled[batch[objs[0]]] == DIGITS.index(pred))

    quality = gradient_quality(kb, g, ops, labeling_from_atoms(shuffled_atom))
    assert quality.cu_ant_pct <= 1.0 + 1e-12

    # counting oracle: per instance, probability that the negated
    # antecedent holds under labels drawn iid from the shuffled marginal
    total_w = total_wq = var = 0.0
    for formula, _ in kb.entries:
        instances = []
        root = scalar_reference.valuate(formula, g, ops, instances=instances)
        grads = g.tape.backward(root)
        for rec in instances:
            w = -grads[rec.antecedent]
            variables = sorted(set(rec.assignment))
            q = 0.0
            combos = [(a,) for a in range(10)] if len(variables) == 1 else [
                (a, b) for a in range(10) for b in range(10)]
            for combo in combos:
                labels = dict(zip(variables, combo))
                prob = 1.0
                for var_, cls in labels.items():
                    prob *= marginal[cls]

                def atom_fn(pred, objs, labels=labels, rec=rec):
                    rev = {v: k for k, v in rec.assignment.items()}
                    if pred == "same":
                        return int(labels[rev[objs[0]]] == labels[rev[objs[1]]])
                    return int(labels[rev[objs[0]]] == DIGITS.index(pred))

                truth = classical_truth(Not(rec.antecedent_formula),
                                        rec.assignment, atom_fn)
                q += prob * truth
            total_w += w
            total_wq += w * q
            var += w * w * q * (1.0 - q)
    expected = total_wq / total_w
    sigma = math.sqrt(var) / total_w
    assert abs(quality.cu_ant_pct - expected) <= 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# sweeps and config files

SWEEP_FAST = dict(steps=10, eval_interval=10, n_points=300, test_n=50,
                  dfl_batch=3)


def test_sweep_w_dfl_axis():
    base = TrainConfig(seed=1, **SWEEP_FAST)
    rows, means = config_sweep(base, "w_dfl", [1.0, 10.0])
    assert len(rows) == 2 and len(means) == 2
    assert all(r["error"] == "" for r in rows)


def test_sweep_formula_subsets():
    base = TrainConfig(seed=1, **SWEEP_FAST)
    subsets = ["1,2", "2,3", "1,3", "1", "2", "3"]
    rows, means = config_sweep(base, "formula-subset", subsets)
    assert len(rows) == 6
    assert [m["value"] for m in means] == subsets


def test_sweep_s_axis_requires_sigmoidal():
    base = TrainConfig(seed=1, **SWEEP_FAST)
    with pytest.raises(ValueError):
        config_sweep(base, "s", [9.0])
    ops = parse_operator_config(
        "implication=sigmoidal:base=reichenbach,s=1,b0=-0.5 "
        "aggregator=log_product")
    rows, means = config_sweep(TrainConfig(ops=ops, seed=1, **SWEEP_FAST),
                               "s", [0.01, 9.0])
    assert len(rows) == 2


def test_sweep_refuses_bad_seed_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(trainer, "semi_supervised_train",
                        lambda *args: runs.append(args))
    base = TrainConfig(seed=1, **SWEEP_FAST)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        config_sweep(base, "w_dfl", [1.0], [5, -1])
    assert runs == []


@pytest.mark.parametrize("axis,values,message", [
    ("s", [9.0, -1.0], "sigmoidal implication requires s > 0, got -1.0"),
    ("b0", [-0.5, float("nan")], "requires finite s and b0, got s=9.0, b0=nan"),
])
def test_sweep_checks_s_and_b0_before_any_run(monkeypatch, axis, values,
                                              message):
    runs = []
    monkeypatch.setattr(trainer, "semi_supervised_train",
                        lambda *args: runs.append(args))
    base = TrainConfig(seed=1, ops=parse_operator_config(
        "implication=sigmoidal:base=reichenbach,s=9"), **SWEEP_FAST)
    with pytest.raises(ValueError, match=re.escape(message)):
        config_sweep(base, axis, values)
    assert runs == []


def test_sweep_continues_after_per_run_failure():
    # every point labeled: a run with w_dfl > 0 has no DFL batch
    base = TrainConfig(seed=1, labeled_fraction=1.0, **SWEEP_FAST)
    rows, means = config_sweep(base, "w_dfl", [1.0, 0.0])
    assert "no unlabeled point" in rows[0]["error"]
    assert rows[1]["error"] == ""
    assert len(means) == 1


def test_parse_train_config():
    config = parse_train_config("""
# comment
implication=sigmoidal:base=reichenbach,s=9,b0=-0.5
aggregator=log_product
w_dfl=10
lr=0.001
steps=50
seed=3
labeled_fraction=0.02
formulas=1,3
""")
    assert config.ops.implication.name == "sigmoidal"
    assert dict(config.ops.implication.params)["s"] == 9.0
    assert config.w_dfl == 10.0
    assert config.steps == 50
    assert config.formulas == (1, 3)
    assert config.labeled_fraction == 0.02


def test_parse_train_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_train_config("frobnicate=1")
    with pytest.raises(ValueError):
        parse_train_config("steps")


def test_digit_kb_sizes():
    assert len(digit_kb((1, 2, 3))) == 21
    assert len(digit_kb((1,))) == 10
    assert len(digit_kb((3,))) == 1
    with pytest.raises(ValueError):
        digit_kb(())
