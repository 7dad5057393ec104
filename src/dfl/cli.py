"""Command-line entry point: eval, analyze, train, sweep, oracle.

Standard output is data; diagnostics go to standard error (set
DFL_LOG=info or DFL_LOG=debug).  Every CSV is accompanied by a
``<csv>.manifest.json`` recording the command line, a content hash of
all inputs, the seed, the tool version and wall-clock time; rerunning a
command with identical inputs and seed reproduces the CSV byte for
byte (wall clock lives only in the manifest).

Exit codes: 0 success, 2 input error, 3 semantic/config error,
4 resource cap exceeded (world atoms, ground instances, Monte-Carlo
samples or surface grid cells).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time

from . import __version__
from .logic import ParseError, parse_kb
from .operators import (ConfigError, OperatorError, _parse_params, descriptor,
                        parse_operator_config)
from .valuation import (InstanceCapError, SemanticError, _forward_values,
                        build_grounding, loss_gradient, parse_grounding)

log = logging.getLogger("dfl")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_CAP = 4


class InputError(Exception):
    """A file the command cannot read as UTF-8 text."""


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("DFL_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from None


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _config_hash(argv, input_texts) -> str:
    h = hashlib.sha256()
    for part in argv:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    for text in input_texts:
        h.update(text.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


def _write_manifest(csv_path, argv, input_texts, seed, t0, outputs):
    manifest = {
        "command": list(argv),
        "config_hash": _config_hash(argv, input_texts),
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(time.time() - t0, 6),
        "outputs": list(outputs),
    }
    path = csv_path + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("manifest written to %s", path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, argv) -> int:
    t0 = time.time()
    kb_text = _read(args.kb)
    grounding_text = _read(args.grounding)
    kb = parse_kb(kb_text)
    domain, interp, g_signature = parse_grounding(grounding_text)
    for pred, arity in kb.signature.items():
        if g_signature.get(pred) not in (None, arity):
            raise SemanticError(f"arity mismatch for {pred!r} between "
                                f"knowledge base and grounding")
    ops = parse_operator_config(args.ops or "")
    grounding = build_grounding(interp, domain, kb.signature,
                                list(range(len(domain))))
    loss, gradient = loss_gradient(kb, grounding, ops)
    values = _forward_values(kb.formulas(), grounding, ops)
    for i, ((formula, weight), value) in enumerate(zip(kb.entries, values), 1):
        print(f"formula {i}: weight={_fmt(weight)} valuation={_fmt(value)}")
    print(f"total_valuation {_fmt(sum(values))}")
    print(f"dfl_loss {_fmt(loss)}")
    print("gradients (dL/datom; dVal/datom is the negation):")
    rows = []
    for (pred, objs), grad in sorted(zip(grounding.keys(), gradient.tolist())):
        names = " ".join(domain.names[i] for i in objs)
        print(f"  {pred}({names}) dL={_fmt(grad)} dVal={_fmt(-grad)}")
        rows.append([pred, names, _fmt(grad), _fmt(-grad)])
    if args.csv:
        _write_csv(args.csv, ["predicate", "args", "dL_datom", "dVal_datom"],
                   rows)
        _write_manifest(args.csv, argv, [kb_text, grounding_text], None, t0,
                        [args.csv])
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

_OP_SUFFIXES = (("_agg", "aggregator"), ("_aggregator", "aggregator"),
                ("_tnorm", "tnorm"), ("_tconorm", "tconorm"),
                ("_impl", "implication"), ("_implication", "implication"))


def _resolve_operator(name: str, p):
    from .operators import AGGREGATOR_NAMES, IMPLICATION_NAMES, TNORM_NAMES
    for suffix, family in _OP_SUFFIXES:
        if name.endswith(suffix):
            return descriptor(family, name[: -len(suffix)], p=p)
    if name in AGGREGATOR_NAMES:
        return descriptor("aggregator", name, p=p)
    if name in TNORM_NAMES:
        return descriptor("tnorm", name, p=p)
    if name in IMPLICATION_NAMES:
        return descriptor("implication", name, p=p)
    raise OperatorError(f"unknown operator {name!r}; use e.g. "
                        f"'lukasiewicz_agg', 'yager_tnorm' or 'reichenbach'")


def cmd_analyze(args, argv) -> int:
    t0 = time.time()
    if args.mode == "fractions":
        from .analysis import estimate_nonvanishing_fraction
        desc = _resolve_operator(args.op, args.p)
        est = estimate_nonvanishing_fraction(desc, args.n, args.samples,
                                             args.seed)
        header = ["operator", "n", "samples", "seed", "estimate", "std_error",
                  "closed_form", "z_score"]
        row = [est.operator, est.n, est.samples, args.seed, _fmt(est.estimate),
               _fmt(est.std_error),
               "" if est.closed_form is None else _fmt(est.closed_form),
               "" if est.z_score is None else _fmt(est.z_score)]
        print(" ".join(f"{k}={v}" for k, v in zip(header, row)))
        if est.candidates:
            print(f"candidates={est.candidates} supported={est.supported}")
        rows = [row]
    elif args.mode == "single-passing":
        from .analysis import single_passing_audit
        desc = _resolve_operator(args.op, args.p)
        ok, witness = single_passing_audit(desc, args.n, args.samples,
                                           args.seed)
        print("true" if ok else "false")
        if witness:
            print(f"witness {' '.join(_fmt(x) for x in witness)}")
        header = ["operator", "n", "samples", "seed", "single_passing",
                  "witness"]
        rows = [[desc.label(), args.n, args.samples, args.seed,
                 str(ok).lower(),
                 "" if witness is None else " ".join(map(_fmt, witness))]]
    elif args.mode == "surface":
        from .analysis import derivative_surface
        kw = dict(p=args.p)
        if args.op.startswith("sigmoidal:"):
            params = _parse_params(args.op.partition(":")[2],
                                   f"implication={args.op}")
            if args.p is not None and "p" in params:
                print(f"error: p is given twice: in --op {args.op} and as "
                      f"--p {args.p!r}", file=sys.stderr)
                return EXIT_INPUT
            # --p is the base's p: a yager base is checked with it
            kw.update(params)
            name = "sigmoidal"
        else:
            name = args.op
        surf = derivative_surface(name, args.step, **kw)
        header = ["a", "c", "d_Ic", "d_Inot_a"]
        rows = [[_fmt(a), _fmt(c), _fmt(dic), _fmt(dna)]
                for a, c, dic, dna in surf]
        print(f"rows {len(rows)}")
    elif args.mode == "quality":
        from .analysis import gradient_quality
        kb_text = _read(args.kb)
        grounding_text = _read(args.grounding)
        labels_text = _read(args.labels)
        kb = parse_kb(kb_text)
        domain, interp, _ = parse_grounding(grounding_text)
        labels_domain, labels_interp, _ = parse_grounding(labels_text)
        ops = parse_operator_config(args.ops or "")
        grounding = build_grounding(interp, domain, kb.signature,
                                    list(range(len(domain))))

        from .analysis import labeling_from_atoms
        position = {name: i for i, name in enumerate(labels_domain.names)}

        def atom_fn(pred, objs):
            names = [domain.names[i] for i in objs]
            key = (pred, tuple(position.get(name) for name in names))
            if key not in labels_interp.table:
                raise SemanticError(f"no label for ground atom "
                                    f"{pred}({','.join(names)})")
            return int(round(labels_interp.table[key]))

        q = gradient_quality(kb, grounding, ops, labeling_from_atoms(atom_fn))
        header = ["cons_magnitude", "ant_magnitude", "cons_pct",
                  "cu_cons_pct", "cu_ant_pct", "formulas_used",
                  "formulas_skipped"]
        rows = [[_fmt(q.cons_magnitude), _fmt(q.ant_magnitude),
                 _fmt(q.cons_pct), _fmt(q.cu_cons_pct), _fmt(q.cu_ant_pct),
                 q.formulas_used, q.formulas_skipped]]
        for key, value in zip(header, rows[0]):
            print(f"{key} {value}")
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown analyze mode {args.mode!r}")
    if args.csv:
        _write_csv(args.csv, header, rows)
        inputs = []
        if args.mode == "quality":
            inputs = [kb_text, grounding_text, labels_text]
        _write_manifest(args.csv, argv, inputs, getattr(args, "seed", None),
                        t0, [args.csv])
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / sweep

def _require_seed_in_config(text: str):
    keys = {line.split("=", 1)[0].strip()
            for line in text.splitlines()
            if "=" in line.split("#", 1)[0]}
    if "seed" not in keys:
        raise ConfigError("stochastic command: config file must set seed=")


def cmd_train(args, argv) -> int:
    from .trainer import (MetricsRecord, make_task, parse_train_config,
                          semi_supervised_train)
    t0 = time.time()
    text = _read(args.config)
    _require_seed_in_config(text)
    try:
        config = parse_train_config(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    log.info("training: %s", config)
    task = make_task(config.seed, n=config.n_points, dim=config.dim,
                     classes=config.classes,
                     labeled_fraction=config.labeled_fraction,
                     test_n=config.test_n, noise=config.noise)
    _, metrics = semi_supervised_train(task, config)
    rows = [[_fmt(v) for v in m.row()] for m in metrics]
    for row in rows:
        print(" ".join(row))
    final = metrics[-1]
    print(f"final step={final.step} accuracy={_fmt(final.accuracy)} "
          f"loss_sup={_fmt(final.loss_sup)} loss_dfl={_fmt(final.loss_dfl)}")
    if args.csv:
        _write_csv(args.csv, MetricsRecord.CSV_FIELDS, rows)
        _write_manifest(args.csv, argv, [text], config.seed, t0, [args.csv])
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    from .trainer import MetricsRecord, config_sweep, parse_train_config
    t0 = time.time()
    text = _read(args.config)
    _require_seed_in_config(text)
    try:
        base = parse_train_config(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    values = [v for v in args.values.split(",") if v != ""]
    if args.axis == "formula-subset":
        values = [v.replace(":", ",") for v in values]
    seeds = args.seeds or [base.seed]
    try:
        rows, means = config_sweep(base, args.axis, values, seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ok_runs = [r for r in rows if not r.get("error")]
    header = (["axis", "value", "seed", "error"]
              + list(MetricsRecord.CSV_FIELDS))
    csv_rows = []
    for r in rows:
        csv_rows.append([r.get("axis"), r.get("value"), r.get("seed"),
                         r.get("error", "")]
                        + [_fmt(r[f]) if f in r else "" for f in
                           MetricsRecord.CSV_FIELDS])
    for m in means:
        print(f"value={m['value']} runs={m['runs']} "
              f"mean_accuracy={_fmt(m['mean_accuracy'])}")
    for r in rows:
        if r.get("error"):
            print(f"run axis={r['axis']} value={r['value']} seed={r['seed']} "
                  f"failed: {r['error']}", file=sys.stderr)
    if args.csv:
        _write_csv(args.csv, header, csv_rows)
        _write_manifest(args.csv, argv, [text], seeds[0], t0, [args.csv])
    return EXIT_OK if ok_runs else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args, argv) -> int:
    from .oracle import equivalence_report, world_table
    kb_text = _read(args.kb)
    grounding_text = _read(args.grounding)
    kb = parse_kb(kb_text)
    domain, interp, _ = parse_grounding(grounding_text)
    batch = list(range(len(domain)))
    if args.dump_worlds:  # refused past the caps before anything prints
        atoms, rows = world_table(kb, interp, batch)
    report = equivalence_report(kb, interp, batch)
    print(f"exact={_fmt(report.exact)} dpfl={_fmt(report.dpfl)} "
          f"gap={_fmt(report.gap)} "
          f"single_occurrence={str(report.single_occurrence).lower()}")
    if args.dump_worlds:
        names = [f"{p}({','.join(domain.names[i] for i in objs)})"
                 for p, objs in atoms]
        print("worlds " + " ".join(names))
        for bits, satisfied, weight in rows:
            print(f"{''.join(map(str, bits))} {int(satisfied)} {_fmt(weight)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _step(text: str) -> float:
    step = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(step) and step > 0.0):
        raise argparse.ArgumentTypeError(
            f"step must be a positive number, got {text!r}")
    return step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfl",
        description="differentiable fuzzy logic: valuation, analysis, "
                    "training and oracle checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="valuate a knowledge base over a "
                                         "lookup-table grounding")
    p_eval.add_argument("--kb", required=True)
    p_eval.add_argument("--grounding", required=True)
    p_eval.add_argument("--ops", default="",
                        help="operator config, e.g. 'tnorm=yager:p=2 "
                             "aggregator=log_product'")
    p_eval.add_argument("--csv")

    p_an = sub.add_parser("analyze", help="derivative analyses")
    an_sub = p_an.add_subparsers(dest="mode", required=True)

    p_fr = an_sub.add_parser("fractions")
    p_fr.add_argument("--op", required=True)
    p_fr.add_argument("--n", type=int, default=2)
    p_fr.add_argument("--p", type=float)
    p_fr.add_argument("--samples", type=int, default=1_000_000)
    p_fr.add_argument("--seed", type=_seed, required=True)
    p_fr.add_argument("--csv")

    p_sp = an_sub.add_parser("single-passing")
    p_sp.add_argument("--op", required=True)
    p_sp.add_argument("--n", type=int, default=2)
    p_sp.add_argument("--p", type=float)
    p_sp.add_argument("--samples", type=int, default=10_000)
    p_sp.add_argument("--seed", type=_seed, required=True)
    p_sp.add_argument("--csv")

    p_su = an_sub.add_parser("surface")
    p_su.add_argument("--op", required=True)
    p_su.add_argument("--p", type=float)
    p_su.add_argument("--step", type=_step, default=0.25)
    p_su.add_argument("--csv")

    p_qu = an_sub.add_parser("quality")
    p_qu.add_argument("--kb", required=True)
    p_qu.add_argument("--grounding", required=True)
    p_qu.add_argument("--labels", required=True)
    p_qu.add_argument("--ops", default="")
    p_qu.add_argument("--csv")

    p_tr = sub.add_parser("train", help="semi-supervised run on the "
                                        "synthetic task")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--csv")

    p_sw = sub.add_parser("sweep", help="axis sweep of training runs")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--axis", required=True,
                      choices=["tnorm", "tconorm", "aggregator", "implication",
                               "s", "b0", "w_dfl", "formula-subset"])
    p_sw.add_argument("--values", required=True,
                      help="comma-separated; for formula-subset use ':' "
                           "inside a value, e.g. 1:2,2:3")
    p_sw.add_argument("--seeds", help="comma-separated seed list",
                      type=lambda text: [_seed(s) for s in text.split(",")])
    p_sw.add_argument("--csv")

    p_or = sub.add_parser("oracle", help="exact semantic-loss comparison")
    or_sub = p_or.add_subparsers(dest="mode", required=True)
    p_cmp = or_sub.add_parser("compare")
    p_cmp.add_argument("--kb", required=True)
    p_cmp.add_argument("--grounding", required=True)
    p_cmp.add_argument("--dump-worlds", action="store_true")

    return parser


# built on the first call of ``main`` and reused: parsing keeps no state
# in the parser, and no action has a mutable default
_parser = None


def main(argv=None) -> int:
    global _parser
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    from .analysis import AnalysisCapError
    from .oracle import WorldCapError
    try:
        if args.command == "eval":
            return cmd_eval(args, argv)
        if args.command == "analyze":
            return cmd_analyze(args, argv)
        if args.command == "train":
            return cmd_train(args, argv)
        if args.command == "sweep":
            return cmd_sweep(args, argv)
        if args.command == "oracle":
            return cmd_oracle(args, argv)
        _parser.error(f"unknown command {args.command!r}")
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (WorldCapError, InstanceCapError, AnalysisCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SemanticError, OperatorError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
