"""Gradient-descent fuzzy maximum satisfiability and a desk-scale
semi-supervised harness on synthetic point clouds.

The model is intentionally tiny: a two-layer perceptron classifier over
10 Gaussian blobs plus a bilinear same-class scorer on the hidden
embeddings, all trained with plain gradient descent.  The fuzzy loss is
backpropagated by the valuation engine down to ground-atom truth values;
the chain into model parameters (softmax/bilinear backward) is ordinary
numpy.  One training run stays well under a minute.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import gradient_quality, labeling_from_atoms
from .logic import KnowledgeBase, parse_kb
from .operators import OperatorConfig, descriptor, parse_operator_config
from .valuation import Domain, LookupInterpretation, _layout, \
    build_grounding, loss_gradient

__all__ = [
    "DIGITS", "TinyModel", "TrainConfig", "SyntheticTask", "MetricsRecord",
    "MaxSatResult", "digit_kb", "make_task", "fuzzy_max_sat",
    "toy_optimization_rate", "semi_supervised_train", "evaluate",
    "config_sweep", "parse_train_config",
]

DIGITS = ["zero", "one", "two", "three", "four",
          "five", "six", "seven", "eight", "nine"]


def digit_kb(formulas=(1, 2, 3)) -> KnowledgeBase:
    """The 21-formula digit knowledge base (10 of shape 1, 10 of shape 2,
    one symmetry formula); ``formulas`` selects a subset of the shapes."""
    lines = []
    if 1 in formulas:
        lines += [f"forall x, y: {d}(x) & {d}(y) -> same(x, y)" for d in DIGITS]
    if 2 in formulas:
        lines += [f"forall x, y: {d}(x) & same(x, y) -> {d}(y)" for d in DIGITS]
    if 3 in formulas:
        lines += ["forall x, y: same(x, y) -> same(y, x)"]
    if not lines:
        raise ValueError(f"empty formula subset {formulas!r}")
    return parse_kb("\n".join(lines))


# parsed once per subset: valuation plans key on program identity
_digit_kb = functools.lru_cache(maxsize=8)(digit_kb)


# ---------------------------------------------------------------------------
# fuzzy maximum satisfiability over a lookup table

@dataclass
class MaxSatResult:
    assignment: dict
    trajectory: list
    reached_optimum: bool


def fuzzy_max_sat(kb: KnowledgeBase, ops: OperatorConfig, *,
                  domain_size: int = 1, init: dict | None = None,
                  seed: int | None = None, eps: float = 0.1,
                  steps: int = 500, tol: float = 1e-6) -> MaxSatResult:
    """Plain projected gradient descent on the KB loss over free truth
    values.

    Atom truth values are free parameters; each step moves them by
    -eps * dL/datom and projects back onto [0, 1].  Non-convergent runs
    return their trajectory with ``reached_optimum`` False rather than
    raising.
    """
    domain = Domain([f"o{i+1}" for i in range(domain_size)])
    batch = list(range(domain_size))
    atom_keys = [(pred, objs) for pred in sorted(kb.signature)
                 for objs in itertools.product(batch, repeat=kb.signature[pred])]
    if init is None:
        rng = np.random.default_rng(seed)
        values = {k: float(rng.random()) for k in atom_keys}
    else:
        values = {k: float(init[k]) for k in atom_keys}

    best = 0.0 if ops.aggregator.name == "log_product" else 1.0
    target = -sum(w * best for _, w in kb.entries)
    trajectory = []
    for step in range(steps + 1):  # the last valuation takes no step
        g = build_grounding(LookupInterpretation(values), domain,
                            kb.signature, batch)
        loss, grad = loss_gradient(kb, g, ops)
        trajectory.append(-loss)
        reached = loss <= target + tol
        if reached or step == steps:
            break
        for key, d in zip(atom_keys, grad.tolist()):
            values[key] = min(max(values[key] - eps * d, 0.0), 1.0)
    return MaxSatResult(values, trajectory, reached)


def toy_optimization_rate(kb_text: str, ops: OperatorConfig, inits: int,
                          seed: int, eps: float = 0.1,
                          steps: int = 400) -> float:
    """Fraction of uniform initializations from which descent reaches a
    global optimum (valuation 1) of the single-formula KB."""
    kb = parse_kb(kb_text)
    rng = np.random.default_rng(seed)
    atom_keys = [(p, (0,)) for p in sorted(kb.signature)]
    wins = 0
    for _ in range(inits):
        init = {k: float(rng.random()) for k in atom_keys}
        result = fuzzy_max_sat(kb, ops, init=init, eps=eps, steps=steps)
        if result.reached_optimum:
            wins += 1
    return wins / inits


# ---------------------------------------------------------------------------
# synthetic task

@dataclass
class SyntheticTask:
    X: np.ndarray
    y: np.ndarray
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def dim(self):
        return self.X.shape[1]


def make_task(seed: int, n: int = 5000, dim: int = 16, classes: int = 10,
              labeled_fraction: float = 0.01, test_n: int = 1000,
              center_scale: float = 1.0, noise: float = 1.05) -> SyntheticTask:
    """Gaussian blobs, one per class, with a small labeled split.

    The default noise level leaves the classes overlapping enough that
    fifty labeled points do not saturate the classifier.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, dim)) * center_scale
    y = rng.integers(0, classes, size=n)
    drawn = np.bincount(y, minlength=classes)
    if not drawn.all():
        raise ValueError(f"n_points={n} draws no point of class "
                         f"{int(drawn.argmin())}; raise n_points")
    X = centers[y] + rng.normal(size=(n, dim)) * noise
    y_test = rng.integers(0, classes, size=test_n)
    X_test = centers[y_test] + rng.normal(size=(test_n, dim)) * noise
    n_labeled = max(classes, round(n * labeled_fraction))
    perm = rng.permutation(n)
    labeled = list(perm[:n_labeled])
    # guarantee every class appears: swap members out of over-represented
    # classes for members of missing ones
    for cls in range(classes):
        if not np.any(y[labeled] == cls):
            counts = {c: int(np.sum(y[labeled] == c)) for c in range(classes)}
            rich = max(counts, key=counts.get)
            drop = next(i for i in labeled if y[i] == rich)
            candidates = np.where(y == cls)[0]
            labeled.remove(drop)
            labeled.append(int(candidates[rng.integers(len(candidates))]))
    labeled = np.unique(labeled)
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    return SyntheticTask(X, y, labeled, np.where(mask)[0], X_test, y_test)


# ---------------------------------------------------------------------------
# model

def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class TinyModel:
    """Two-layer softmax classifier plus a bilinear same-scorer on the
    hidden embeddings."""

    PARAMS = ("W1", "b1", "W2", "b2", "M", "u", "c0")

    def __init__(self, dim: int, hidden: int, classes: int, seed: int):
        rng = np.random.default_rng(seed)
        s1 = 1.0 / math.sqrt(dim)
        s2 = 1.0 / math.sqrt(hidden)
        self.theta = {
            "W1": rng.normal(size=(dim, hidden)) * s1,
            "b1": np.zeros(hidden),
            "W2": rng.normal(size=(hidden, classes)) * s2,
            "b2": np.zeros(classes),
            "M": rng.normal(size=(hidden, hidden)) * s2,
            "u": rng.normal(size=2 * hidden) * s2,
            "c0": np.zeros(()),
        }
        self.hidden_dim = hidden
        self.classes = classes

    # forward ---------------------------------------------------------
    def hidden(self, X):
        return np.tanh(X @ self.theta["W1"] + self.theta["b1"])

    def class_probs(self, X):
        return _softmax(self.hidden(X) @ self.theta["W2"] + self.theta["b2"])

    def same_logits(self, H):
        h = self.hidden_dim
        u_a, u_b = self.theta["u"][:h], self.theta["u"][h:]
        return (H @ self.theta["M"] @ H.T + (H @ u_a)[:, None]
                + (H @ u_b)[None, :] + self.theta["c0"])

    def same_probs(self, H):
        return _sigmoid(self.same_logits(H))

    # flat parameter vector (for the gradient-step identity) -----------
    def get_flat(self):
        return np.concatenate([self.theta[k].ravel() for k in self.PARAMS])

    def set_flat(self, flat):
        pos = 0
        for k in self.PARAMS:
            size = self.theta[k].size
            self.theta[k] = flat[pos:pos + size].reshape(self.theta[k].shape).copy()
            pos += size

    def zero_grads(self):
        return {k: np.zeros(self.theta[k].shape) for k in self.PARAMS}

    # backward helpers --------------------------------------------------
    def _back_through_hidden(self, X, H, dH, grads):
        dZ1 = dH * (1.0 - H * H)
        grads["W1"] += X.T @ dZ1
        grads["b1"] += dZ1.sum(axis=0)

    def class_backward(self, X, H, P, dP, grads):
        """Accumulate d(loss)/dtheta given d(loss)/dP (softmax probs)."""
        inner = (dP * P).sum(axis=1, keepdims=True)
        dlogits = P * (dP - inner)
        grads["W2"] += H.T @ dlogits
        grads["b2"] += dlogits.sum(axis=0)
        self._back_through_hidden(X, H, dlogits @ self.theta["W2"].T, grads)

    def same_backward(self, X, H, dZ, grads):
        """Accumulate gradients given d(loss)/dz for the pair logit matrix."""
        h = self.hidden_dim
        u_a, u_b = self.theta["u"][:h], self.theta["u"][h:]
        grads["M"] += H.T @ dZ @ H
        grads["u"][:h] += H.T @ dZ.sum(axis=1)
        grads["u"][h:] += H.T @ dZ.sum(axis=0)
        grads["c0"] += dZ.sum()
        dH = dZ @ (H @ self.theta["M"].T) + dZ.sum(axis=1)[:, None] * u_a
        dH += dZ.T @ (H @ self.theta["M"]) + dZ.sum(axis=0)[:, None] * u_b
        self._back_through_hidden(X, H, dH, grads)

    def apply_step(self, grads, lr):
        for k in self.PARAMS:
            self.theta[k] = self.theta[k] - lr * grads[k]


# ---------------------------------------------------------------------------
# training

# the operators of a run that names none
_DEFAULT_OPS = OperatorConfig(
    aggregator=descriptor("aggregator", "log_product"))


@dataclass(frozen=True)
class TrainConfig:
    ops: OperatorConfig = _DEFAULT_OPS
    w_dfl: float = 10.0
    labeled_fraction: float = 0.01
    sup_batch: int = 64
    dfl_batch: int = 4
    lr: float = 0.0005
    steps: int = 800
    seed: int = 0
    formulas: tuple = (1, 2, 3)
    eval_interval: int = 100
    hidden: int = 32
    n_points: int = 5000
    dim: int = 16
    classes: int = 10
    noise: float = 1.05
    test_n: int = 1000

    def __post_init__(self):
        for key in ("lr", "w_dfl", "noise", "labeled_fraction"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number, got "
                                 f"{getattr(self, key)!r}")
        if self.w_dfl < 0 or self.lr <= 0:
            raise ValueError("w_dfl must be >= 0 and lr positive")
        if not 0 < self.labeled_fraction <= 1:
            raise ValueError("labeled_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for key in ("steps", "sup_batch", "dfl_batch", "eval_interval",
                    "hidden", "n_points", "dim", "test_n"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got "
                                 f"{getattr(self, key)}")
        if self.classes < len(DIGITS):
            raise ValueError(f"classes must be >= {len(DIGITS)}, one per "
                             f"digit predicate, got {self.classes}")
        if not self.formulas or not set(self.formulas) <= {1, 2, 3}:
            raise ValueError(f"formulas must be a non-empty subset of "
                             f"1,2,3, got {self.formulas!r}")


@dataclass
class MetricsRecord:
    step: int
    loss_sup: float
    loss_dfl: float
    accuracy: float
    cons_pct: float
    cu_cons_pct: float
    cu_ant_pct: float

    CSV_FIELDS = ("step", "loss_sup", "loss_dfl", "accuracy",
                  "cons_pct", "cu_cons_pct", "cu_ant_pct")

    def row(self):
        return [self.step, self.loss_sup, self.loss_dfl, self.accuracy,
                self.cons_pct, self.cu_cons_pct, self.cu_ant_pct]


class _BatchInterpretation:
    """Truth tables of the ground atoms over the current DFL batch (local
    indices), sliced from precomputed class/same probability blocks."""

    def __init__(self, P, S):
        self.P = P
        self.S = S

    def truth_table(self, pred):
        return self.S if pred == "same" else self.P[:, DIGITS.index(pred)]


def _ce_gradients(model, X, H, y, grads):
    # summed (not averaged) cross entropy, matching the summed fuzzy loss;
    # H is model.hidden(X)
    P = _softmax(H @ model.theta["W2"] + model.theta["b2"])
    n = len(y)
    picked = np.clip(P[np.arange(n), y], 1e-12, None)
    loss = -float(np.log(picked).sum())
    dP = np.zeros(P.shape)
    dP[np.arange(n), y] = -1.0 / picked
    model.class_backward(X, H, P, dP, grads)
    return loss


def _pair_pool(y_batch) -> tuple:
    """Every ordered labeled pair as (k, 2) index arrays in row-major
    order: (same-class pairs, different-class pairs)."""
    y = np.asarray(y_batch)
    same = y[:, None] == y[None, :]
    return np.argwhere(same), np.argwhere(~same)


def _same_pairs(rng, y_batch, pool=None):
    """Ordered labeled pairs as (k, 2) index arrays in row-major order,
    with negatives undersampled 1:1; ``pool`` is ``_pair_pool(y_batch)``
    when the caller keeps it."""
    pos, neg = _pair_pool(y_batch) if pool is None else pool
    if len(neg) > len(pos):
        neg = neg[rng.choice(len(neg), size=len(pos), replace=False)]
    return pos, neg


def _same_bce_gradients(model, X, H, pos, neg, grads, loss=True):
    """Add the same-pair BCE gradient to ``grads``, H being
    model.hidden(X); return the loss, or None unless ``loss``."""
    Z = model.same_logits(H)
    pairs = np.concatenate([np.reshape(pos, (-1, 2)), np.reshape(neg, (-1, 2))])
    if not len(pairs):
        return 0.0 if loss else None
    positive = np.arange(len(pairs)) < len(pos)
    s = np.clip(_sigmoid(Z[pairs[:, 0], pairs[:, 1]]), 1e-12, 1 - 1e-12)
    dZ = np.zeros(Z.shape)
    dZ[pairs[:, 0], pairs[:, 1]] = s - positive
    model.same_backward(X, H, dZ, grads)
    if not loss:
        return None
    # math.log and an in-order cumulative sum keep the loss bit-identical
    # to summing the pair terms one by one
    terms = list(map(math.log, np.where(positive, s, 1 - s).tolist()))
    return -float(np.cumsum(terms)[-1])


def _batch_frame(b: int, kb) -> tuple:
    """The Domain, batch list and ``_class_atoms`` of a DFL batch of ``b``
    objects under ``kb``."""
    return (Domain([f"b{i}" for i in range(b)]), list(range(b)),
            _class_atoms(_layout(b, tuple(sorted(kb.signature.items())))))


def _dfl_gradients(model, X_batch, kb, ops, w_dfl, grads, frame):
    """Fuzzy loss and its gradient w.r.t. each atom (``loss_gradient``),
    chained into model parameters; ``frame`` is the batch's
    ``_batch_frame``."""
    H = model.hidden(X_batch)
    P = _softmax(H @ model.theta["W2"] + model.theta["b2"])
    Z = model.same_logits(H)
    S = _sigmoid(Z)
    domain, batch, classes = frame
    g = build_grounding(_BatchInterpretation(P, S), domain, kb.signature,
                        batch)
    loss, grad = loss_gradient(kb, g, ops)
    dP, dZ = _atom_adjoints(g, grad * w_dfl, P, S, classes)
    model.class_backward(X_batch, H, P, dP, grads)
    model.same_backward(X_batch, H, dZ, grads)
    return loss, g


def _class_atoms(layout) -> tuple:
    """The columns of P that have atoms in ``layout``, and the position of
    each (batch position, column) atom in the atom vector."""
    digits = [d for d in DIGITS if d in layout.preds]
    at = [[layout.preds[d][0] + i for d in digits] for i in range(layout.b)]
    return ([DIGITS.index(d) for d in digits],
            np.array(at, dtype=np.intp).reshape(layout.b, len(digits)))


def _atom_adjoints(g, a, P, S, classes):
    """dL/dP and dL/dZ, Z the pair logits, from dL/datom ``a`` over
    ``g``'s atoms; ``classes`` is ``_class_atoms(g.layout)``.  ``0.0 +``
    starts each entry as the tape does."""
    columns, at = classes
    dP = np.zeros(P.shape)
    dP[:, columns] = 0.0 + a[at]
    same = g.tensor("same", a)
    dZ = np.zeros(S.shape) if same is None else 0.0 + same * S * (1.0 - S)
    return dP, dZ


def evaluate(model: TinyModel, task: SyntheticTask) -> float:
    """Argmax-class accuracy on the held-out test split."""
    P = model.class_probs(task.X_test)
    return float((P.argmax(axis=1) == task.y_test).mean())


def _quality_labels(task, batch_global):
    def atom_fn(pred, objs):
        if pred == "same":
            return int(task.y[batch_global[objs[0]]]
                       == task.y[batch_global[objs[1]]])
        return int(task.y[batch_global[objs[0]]] == DIGITS.index(pred))
    return labeling_from_atoms(atom_fn)


def semi_supervised_train(task: SyntheticTask, config: TrainConfig):
    """Cross-entropy + w_dfl * fuzzy loss + same-pair BCE, plain gradient
    descent.  Returns the trained model and the metrics series."""
    if config.w_dfl > 0 and not len(task.unlabeled_idx):
        raise ValueError(f"labeled_fraction={config.labeled_fraction} labels "
                         f"all {len(task.y)} points: no unlabeled point is "
                         f"left for w_dfl={config.w_dfl} > 0")
    rng = np.random.default_rng(config.seed)
    model = TinyModel(task.dim, config.hidden, config.classes,
                      seed=config.seed + 7919)
    kb = _digit_kb(tuple(config.formulas))
    metrics: list = []
    labeled = task.labeled_idx
    unlabeled = task.unlabeled_idx
    pool = None  # the pairs of the labeled set, when it is every batch
    if len(labeled) <= config.sup_batch:
        X_sup, y_sup = task.X[labeled], task.y[labeled]
        pool = _pair_pool(y_sup)
    frame = _batch_frame(min(config.dfl_batch, len(unlabeled)), kb)
    for step in range(1, config.steps + 1):
        if pool is None:
            sup_idx = labeled[rng.choice(len(labeled), size=config.sup_batch,
                                         replace=False)]
            X_sup, y_sup = task.X[sup_idx], task.y[sup_idx]
        record = step % config.eval_interval == 0 or step == config.steps
        grads = model.zero_grads()
        H_sup = model.hidden(X_sup)
        loss_sup = _ce_gradients(model, X_sup, H_sup, y_sup, grads)
        pos, neg = _same_pairs(rng, y_sup, pool)
        # the pair loss is only reported, on recording steps
        loss_bce = _same_bce_gradients(model, X_sup, H_sup, pos, neg, grads,
                                       loss=record)
        if record:
            loss_sup += loss_bce
        loss_dfl = 0.0
        batch_global = None
        grounding = None
        if config.w_dfl > 0:
            pick = rng.choice(len(unlabeled), size=min(config.dfl_batch,
                                                       len(unlabeled)),
                              replace=False)
            batch_global = unlabeled[np.sort(pick)]
            loss_dfl, grounding = _dfl_gradients(
                model, task.X[batch_global], kb, config.ops, config.w_dfl,
                grads, frame)
        model.apply_step(grads, config.lr)
        if record:
            if grounding is not None:
                quality = gradient_quality(kb, grounding, config.ops,
                                           _quality_labels(task, batch_global))
                q = (quality.cons_pct, quality.cu_cons_pct, quality.cu_ant_pct)
            else:
                q = (float("nan"),) * 3
            metrics.append(MetricsRecord(step, loss_sup, loss_dfl,
                                         evaluate(model, task), *q))
    return model, metrics


def config_sweep(base: TrainConfig, axis: str, values, seeds=None):
    """One full run per (value, seed); returns per-run rows plus per-value
    means.  Run failures are recorded and the sweep continues."""
    seeds = list(seeds) if seeds is not None else [base.seed]
    # build, and so check, every run's config before the first run
    configs = [[_apply_axis(base, axis, v, s) for s in seeds] for v in values]
    rows = []
    means = []
    for value, value_configs in zip(values, configs):
        accs = []
        for seed, config in zip(seeds, value_configs):
            try:
                task = make_task(seed, n=config.n_points, dim=config.dim,
                                 classes=config.classes,
                                 labeled_fraction=config.labeled_fraction,
                                 test_n=config.test_n, noise=config.noise)
                _, metrics = semi_supervised_train(task, config)
                final = metrics[-1]
                rows.append({"axis": axis, "value": str(value), "seed": seed,
                             "error": "", **{f: getattr(final, f)
                                             for f in MetricsRecord.CSV_FIELDS}})
                accs.append(final.accuracy)
            except Exception as exc:  # sweep keeps going per-run
                rows.append({"axis": axis, "value": str(value), "seed": seed,
                             "error": f"{type(exc).__name__}: {exc}"})
        if accs:
            means.append({"axis": axis, "value": str(value),
                          "runs": len(accs),
                          "mean_accuracy": sum(accs) / len(accs)})
    return rows, means


def _apply_axis(base: TrainConfig, axis: str, value, seed: int) -> TrainConfig:
    if axis == "w_dfl":
        return replace(base, w_dfl=float(value), seed=seed)
    if axis == "formula-subset":
        if isinstance(value, str):
            subset = tuple(int(v) for v in value.split(",") if v)
        else:
            subset = tuple(value)
        return replace(base, formulas=subset, seed=seed)
    if axis in ("tnorm", "tconorm", "aggregator", "implication"):
        ops = parse_operator_config(f"{axis}={value}", base=base.ops)
        return replace(base, ops=ops, seed=seed)
    if axis in ("s", "b0"):
        if base.ops.implication.name != "sigmoidal":
            raise ValueError(f"axis {axis!r} needs a sigmoidal implication")
        params = dict(base.ops.implication.params)
        implication = descriptor("implication", "sigmoidal",
                                 **{**params, axis: float(value)})
        return replace(base, ops=replace(base.ops, implication=implication),
                       seed=seed)
    raise ValueError(f"unknown sweep axis {axis!r}")


# ---------------------------------------------------------------------------
# flat key=value config files

_CONFIG_DEFAULTS = {
    "w_dfl": float, "labeled_fraction": float, "lr": float, "noise": float,
    "steps": int, "seed": int, "sup_batch": int, "dfl_batch": int,
    "eval_interval": int, "hidden": int, "n_points": int, "dim": int,
    "classes": int, "test_n": int,
}


def parse_train_config(text: str) -> TrainConfig:
    """Flat ``key=value`` lines; operator keys use the operator grammar,
    ``formulas=1,2,3`` selects the formula subset."""
    kwargs = {}
    op_parts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        if key in ("tnorm", "tconorm", "implication", "aggregator", "negation"):
            op_parts.append(f"{key}={value}")
        elif key == "formulas":
            kwargs["formulas"] = tuple(int(v) for v in value.split(",") if v)
        elif key in _CONFIG_DEFAULTS:
            kwargs[key] = _CONFIG_DEFAULTS[key](value)
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
    kwargs["ops"] = parse_operator_config(" ".join(op_parts), base=_DEFAULT_OPS)
    return TrainConfig(**kwargs)
