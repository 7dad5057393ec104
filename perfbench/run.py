"""dfl benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dfl source tree.  It sets up the workload's
inputs from the seed, runs ops for S seconds in one process (a closed
loop: the next op starts when the previous one ends), checks every op's
output, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a full record: environment, seeds, op counts and op times, and
every end-to-end metric with its unit -- setup_s, op_p50_s, op_tail_s
(with the percentile it stands for), work_per_s, error_rate and
peak_rss_mb.

With ``--trace 0`` the last line carries the end-to-end metrics that
BENCHMARK.json bounds.  With ``--trace 1`` ops alternate between
untraced and traced; the metrics are the per-layer ones from the traced
ops, plus the traced-over-untraced median op time as
``trace.overhead_frac``.  Spans go to ``.perfbench_out/`` in the source
tree.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere (on a 2-core VM a
# default train run is 10-20% slower with BLAS threads than without).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
TAIL_BEYOND = 10


def _load_dfl():
    """Import dfl from this source tree, never from an installed copy."""
    sys.path[:0] = [SRC, HERE]
    import dfl
    if os.path.dirname(os.path.abspath(dfl.__file__)) != os.path.join(SRC, "dfl"):
        raise ImportError(f"dfl imported from {dfl.__file__}, not from {SRC}")
    import numpy
    import workloads
    return numpy, workloads


def tail(times):
    """(value, percentile) of the op time at the highest percentile that
    still has at least TAIL_BEYOND ops beyond it; the maximum when there
    are too few ops."""
    ordered = sorted(times)
    j = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        j -= TAIL_BEYOND
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def run_ops(workload, seconds, tracer=None):
    """Closed loop of ops for ``seconds``; ops are timed one by one and
    checked after the clock stops.  With a tracer, odd ops run traced.
    Returns the untraced and traced op times, the work of the untraced
    ops and the failure messages."""
    untraced, traced, work, errors = [], [], 0.0, []
    min_ops = 2 if tracer is not None else 1
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.op = i
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.op(i)
            failure = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, failure = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if trace_this:
            tracer.uninstall()
        if failure is None:
            try:
                failure = workload.check(i, out)
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
        if trace_this:
            traced.append(elapsed)
        else:
            untraced.append(elapsed)
            work += workload.work(i)
        if failure is not None:
            errors.append(f"op {i}: {failure}")
        i += 1
    return untraced, traced, work, errors


def setup_probe(args):
    """Child process: import and build the inputs, then report the seconds
    since the parent launched it (the wall clock is shared)."""
    _, workloads = _load_dfl()
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(time.time() - args.setup_probe)


def measure_setup(args, workdir):
    """Median of SETUP_PROBES fresh processes, each timed from its launch
    to the point where its first op could start."""
    values = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", workdir, "--setup-probe", repr(time.time())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


def environment(numpy):
    head = None
    git_head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(git_head):
        with open(git_head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        head = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    head = fh.read().strip()
    digest = hashlib.sha256()
    src_dir = os.path.join(SRC, "dfl")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": head,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "valuate_wide", "oracle", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    t_start = time.perf_counter()
    try:
        numpy, workloads = _load_dfl()
    except ImportError as exc:
        print(f"error: cannot import dfl from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.uninstall()
            tracer.counts.clear()
        setup_in_process = time.perf_counter() - t_start
        setup_s, probes = measure_setup(args, scratch)
        untraced, traced, work, errors = run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = untraced + traced
    attempted = len(times)
    tail_s, tail_pct = tail(untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(numpy),
        "input_seeds": workload.input_seeds,
        "ops": attempted,
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "op_tail_percentile": tail_pct,
        "op_times_s": untraced,
        "work_unit": workload.work_unit,
        "error_rate": len(errors) / attempted,
        "errors": errors[:5],
        "setup_in_process_s": setup_in_process,
        "setup_probes_s": probes,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(untraced), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "work_per_s": {"value": work / sum(untraced), "unit": "work/s"},
            "error_rate": {"value": len(errors) / attempted, "unit": "1"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        },
    }
    if tracer:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics = tracing.layer_metrics(tracer, len(traced), overhead)
        record["layer_metrics"] = metrics
        tracer.write(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["end_to_end"]]
        metrics = {name: record["metrics"][name] for name in names}
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
