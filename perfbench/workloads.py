"""The four benchmark workloads.

Each workload generates its inputs from the workload seed in its
constructor (that is set-up), runs one op per ``op(i)`` call through
dfl's public functions (that is the timed part), and checks the op's
output in ``check(i, out)``, which returns None or a failure message.
Every call into dfl goes through a module attribute, so the traced run
sees it.

The seed draws input values, not input shapes: an op's cost does not
depend on the seed, so runs with different seeds measure the same work.
Within train, valuate_wide and oracle every op costs about the same;
audit ops differ by descriptor, and a run covers the catalog many times.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random

import numpy as np

import dfl.analysis as analysis
import dfl.cli as cli
import dfl.logic as logic
import dfl.operators as operators
import dfl.oracle as oracle
import dfl.trainer as trainer
import dfl.valuation as valuation

import reference


class Train:
    """One op is one ``dfl train --config ... --csv ...`` run through
    ``dfl.cli.main`` with the shipped TrainConfig defaults except for the
    step count; ops cycle over a few config seeds, so every CSV after a
    seed's first is checked byte for byte against that first one."""

    name = "train"
    work_unit = "steps"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        self.config_seeds = rng.sample(range(100_000), 3)
        self.input_seeds = {"config_seeds": self.config_seeds}
        # 100 steps keeps the default 1 evaluation per 100 steps while an op
        # stays under a second; the defaults' 800 steps take 5-7 s.
        body = ("steps=4\neval_interval=2\nn_points=200\ntest_n=50\n" if tiny
                else "steps=100\n")
        self.steps = 4 if tiny else 100
        self.rows = 2 if tiny else 1
        self.configs, self.csvs = [], []
        for k, config_seed in enumerate(self.config_seeds):
            path = os.path.join(workdir, f"train-{k}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"seed={config_seed}\n{body}")
            self.configs.append(path)
            self.csvs.append(os.path.join(workdir, f"train-{k}.csv"))
        self.first_csv: dict = {}

    def work(self, i: int) -> float:
        return self.steps

    def op(self, i: int):
        k = i % len(self.configs)
        argv = ["train", "--config", self.configs[k], "--csv", self.csvs[k]]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, exit_code):
        if exit_code != 0:
            return f"dfl train exited with {exit_code}"
        k = i % len(self.configs)
        with open(self.csvs[k], "rb") as fh:
            data = fh.read()
        if k in self.first_csv:
            if data != self.first_csv[k]:
                return f"CSV of config seed {self.config_seeds[k]} changed on rerun"
            return None
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if tuple(rows[0]) != trainer.MetricsRecord.CSV_FIELDS:
            return f"unexpected CSV header {rows[0]}"
        if len(rows) != 1 + self.rows:
            return f"expected {self.rows} CSV rows, got {len(rows) - 1}"
        for row in rows[1:]:
            if not all(math.isfinite(float(v)) for v in row):
                return f"non-finite CSV row {row}"
        self.first_csv[k] = data
        return None


class ValuateWide:
    """One op is build_grounding + dfl_loss + Tape.backward +
    gradient_quality on the digit knowledge base over a lookup table at
    b=32 (21 formulas x 32^2 = 21,504 ground instances).  Ops cycle over
    a smooth, a piecewise and a parameterised operator config."""

    name = "valuate_wide"
    work_unit = "instances"
    CONFIGS = ("smooth", "piecewise", "yager2")
    TABLES = 3

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.b = 4 if tiny else 32
        self.seed = seed
        self.input_seeds = {"table_seed": seed}
        self.kb = trainer.digit_kb()
        rng = np.random.default_rng(seed)
        digits = trainer.DIGITS
        self.tables = []
        for _ in range(self.TABLES):
            # kept inside [0.01, 0.99], so the 1e-7 clamp never applies
            P = rng.uniform(0.01, 0.99, size=(self.b, len(digits)))
            S = rng.uniform(0.01, 0.99, size=(self.b, self.b))
            table = {(d, (x,)): float(P[x, j])
                     for x in range(self.b) for j, d in enumerate(digits)}
            table.update({("same", (x, y)): float(S[x, y])
                          for x in range(self.b) for y in range(self.b)})
            self.tables.append((P, S, valuation.LookupInterpretation(table)))
        y = rng.integers(0, len(digits), size=self.b)

        def atom_fn(pred, objs):
            if pred == "same":
                return int(y[objs[0]] == y[objs[1]])
            return int(y[objs[0]] == digits.index(pred))

        self.labels = analysis.labeling_from_atoms(atom_fn)
        self.domain = valuation.Domain([f"o{x}" for x in range(self.b)])
        self.batch = list(range(self.b))
        self.ops = {name: operators.parse_operator_config(
            reference.DIGIT_CONFIGS[name][0]) for name in self.CONFIGS}
        self.reference = {(t, name): reference.digit_kb_loss(P, S, name)
                          for t, (P, S, _) in enumerate(self.tables)
                          for name in self.CONFIGS}
        self.instances = sum(self.b ** logic.quantifier_rank(f)
                             for f in self.kb.formulas())

    def _pick(self, i: int):
        return (i // len(self.CONFIGS)) % self.TABLES, self.CONFIGS[
            i % len(self.CONFIGS)]

    def work(self, i: int) -> float:
        return self.instances

    def op(self, i: int):
        t, config = self._pick(i)
        ops = self.ops[config]
        g = valuation.build_grounding(self.tables[t][2], self.domain,
                                      self.kb.signature, self.batch)
        loss = valuation.dfl_loss(self.kb, g, ops)
        grads = g.tape.backward(loss)
        quality = analysis.gradient_quality(self.kb, g, ops, self.labels)
        return g, loss.value, grads, quality

    def check(self, i: int, out):
        g, loss, grads, quality = out
        t, config = self._pick(i)
        expected = self.reference[(t, config)]
        if not abs(loss - expected) <= 1e-12 + 1e-9 * abs(expected):
            return f"loss {loss!r} != reference {expected!r} ({config})"
        if quality.formulas_used != len(self.kb) or quality.formulas_skipped:
            return f"gradient_quality used {quality.formulas_used} formulas"
        if not 0.0 <= quality.cons_pct <= 1.0:
            return f"cons_pct {quality.cons_pct!r} outside [0, 1]"
        # central differences of the reference loss at two atoms: the one
        # with the largest |dL/datom| and one drawn from the seed
        keys = list(g.nodes)
        largest = max(keys, key=lambda key: abs(grads[g.nodes[key]]))
        drawn = keys[random.Random(self.seed * 1_000_003 + i).randrange(len(keys))]
        P, S, _ = self.tables[t]
        for key in (largest, drawn):
            numeric = _central_difference(P, S, config, key)
            analytic = grads[g.nodes[key]]
            if not abs(numeric - analytic) <= 1e-4 + 1e-5 * abs(analytic):
                return (f"dL/d{key[0]}{key[1]} = {analytic!r} but central "
                        f"difference gives {numeric!r} ({config})")
        return None


def _central_difference(P, S, config, key, h=1e-6):
    pred, objs = key
    values = []
    for step in (h, -h):
        P2, S2 = P.copy(), S.copy()
        if pred == "same":
            S2[objs] += step
        else:
            P2[objs[0], trainer.DIGITS.index(pred)] += step
        values.append(reference.digit_kb_loss(P2, S2, config))
    return (values[0] - values[1]) / (2.0 * h)


class Oracle:
    """One op is equivalence_report on a connected knowledge base (a binary
    relation links the objects and atoms repeat) and on one that splits
    into independent per-object components with every atom occurring
    once; each has 14 ground atoms.  Ops cycle over seeded probability
    tables."""

    name = "oracle"
    work_unit = "worlds"
    CONNECTED = ("forall x, y: p(x) & r(x, y) -> q(y)\n"
                 "forall x, y: r(x, y) -> t(y, x) | ~s(x)\n"
                 "forall x, y: q(x) & t(x, y) -> p(y) | s(y)\n")
    COMPONENTS = ("forall x: a(x) & b(x) -> c(x) | ~d(x)\n"
                  "forall x: e(x) | f(x) -> ~g(x)\n")
    TABLES = 4

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.batch = [0] if tiny else [0, 1]
        self.input_seeds = {"probability_seed": seed}
        rng = random.Random(seed)
        self.cases = []  # per table: [(kb, probs, exact, single), ...]
        kbs = [logic.parse_kb(self.CONNECTED), logic.parse_kb(self.COMPONENTS)]
        for _ in range(self.TABLES):
            pair = []
            for kb in kbs:
                counts = reference.atom_occurrences(kb, self.batch)
                probs = {atom: rng.uniform(0.05, 0.95) for atom in sorted(counts)}
                pair.append((kb, probs,
                             reference.exact_probability(kb, probs, self.batch),
                             all(c == 1 for c in counts.values())))
            self.cases.append(pair)
        self.worlds = sum(2 ** len(case[1]) for case in self.cases[0])

    def work(self, i: int) -> float:
        return self.worlds

    def op(self, i: int):
        return [oracle.equivalence_report(kb, probs, self.batch)
                for kb, probs, _, _ in self.cases[i % self.TABLES]]

    def check(self, i: int, reports):
        for report, (_, _, exact, single) in zip(reports,
                                                 self.cases[i % self.TABLES]):
            if not abs(report.exact - exact) <= 1e-12 + 1e-9 * exact:
                return f"exact {report.exact!r} != reference {exact!r}"
            if report.single_occurrence != single:
                return f"single_occurrence {report.single_occurrence} != {single}"
            if single and not report.gap < 1e-9:
                return f"gap {report.gap!r} on a single-occurrence KB"
            if not 0.0 <= report.dpfl <= 1.0:
                return f"dpfl valuation {report.dpfl!r} outside [0, 1]"
        return None


class Audit:
    """One op runs property_audit, single_passing_audit and
    estimate_nonvanishing_fraction on one catalog() descriptor; ops walk
    the catalog in a seeded order.

    Audit seeds come from the workload seed.  Each descriptor's fraction
    estimate uses a fixed seed of its own, so the z < 4 check against the
    closed form is the same test on every run instead of a fresh 6e-5
    chance of a false alarm per op."""

    name = "audit"
    work_unit = "samples"
    PROPERTY_SAMPLES = 2000
    SINGLE_PASSING_SAMPLES = 10_000
    FRACTION_SAMPLES = 100_000

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.catalog = operators.catalog()
        if tiny:
            self.catalog = self.catalog[:3]
        self.order = list(range(len(self.catalog)))
        random.Random(seed).shuffle(self.order)
        self.seed_base = random.Random(seed + 1).randrange(2 ** 31)
        self.input_seeds = {"order_seed": seed, "audit_seed_base": self.seed_base,
                            "fraction_seed": "7919 * (catalog index + 1)"}

    def _desc(self, i: int):
        idx = self.order[i % len(self.order)]
        desc = self.catalog[idx]
        n = {"negation": 1, "tnorm": 2, "tconorm": 2,
             "implication": 2}.get(desc.family, 3)
        return idx, desc, n

    def work(self, i: int) -> float:
        _, desc, _ = self._desc(i)
        fractions = 0 if desc.family == "negation" else self.FRACTION_SAMPLES
        return self.PROPERTY_SAMPLES + self.SINGLE_PASSING_SAMPLES + fractions

    def op(self, i: int):
        idx, desc, n = self._desc(i)
        seed = self.seed_base + i
        props = operators.property_audit(desc, samples=self.PROPERTY_SAMPLES,
                                         seed=seed)
        single = analysis.single_passing_audit(
            desc, n, samples=self.SINGLE_PASSING_SAMPLES, seed=seed)
        fraction = None
        if desc.family != "negation":  # no derivative region to estimate
            fraction = analysis.estimate_nonvanishing_fraction(
                desc, n, self.FRACTION_SAMPLES, 7919 * (idx + 1))
        return props, single, fraction

    def check(self, i: int, out):
        props, (single_ok, _), fraction = out
        _, desc, _ = self._desc(i)
        for prop, ok, _ in props:
            if ok != (prop in desc.properties):
                return f"{desc.family}:{desc.label()} {prop} audited {ok}"
        if single_ok != ("single-passing" in desc.properties):
            return f"{desc.family}:{desc.label()} single-passing audited {single_ok}"
        if fraction is not None and fraction.z_score is not None:
            if not abs(fraction.z_score) < 4.0:
                return (f"{desc.family}:{desc.label()} fraction z-score "
                        f"{fraction.z_score:.2f}")
        return None


WORKLOADS = {cls.name: cls for cls in (Train, ValuateWide, Oracle, Audit)}
