"""Tests of the benchmark itself:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("a.child", 1.5, 2.0, 1, 0),
        ("b", 2.0, 4.0, 0, 0),  # overlaps a: the union [1, 4] is covered once
        ("c", 6.0, 7.0, 0, 0),
        ("d", 9.5, 11.0, 0, 0),  # only [9.5, 10] lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 1.0 - 0.5, 1.5, 0.5, 2.0, 1.0, 1.5])


def test_layer_metrics_are_per_traced_op():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("logic.parse_kb", 0.0, 0.25, -1, -1),
        ("trainer.semi_supervised_train", 1.0, 5.0, -1, 1),
        ("trainer.class_backward", 2.0, 3.0, 1, 1),
        ("valuation.dfl_loss", 3.0, 4.0, 1, 1),
        ("trainer.semi_supervised_train", 6.0, 8.0, -1, 3),
    ]
    tracer.counts["instances"] = 4000
    metrics = tracing.layer_metrics(tracer, traced_ops=2, overhead_frac=0.05)
    assert [name for name, _, _, _ in tracing.LAYER_METRICS] == list(metrics)
    assert metrics["trainer.step_self_s"]["value"] == pytest.approx(2.0)
    assert metrics["trainer.model_backward_s"]["value"] == pytest.approx(0.5)
    assert metrics["valuation.instances"]["value"] == 2000
    assert metrics["valuation.forward_us_per_instance"]["value"] == \
        pytest.approx(250.0)
    assert metrics["logic.parse_kb_s"]["value"] == pytest.approx(0.25)
    assert metrics["trace.overhead_frac"]["value"] == 0.05


def test_tail_keeps_ten_ops_beyond_it():
    value, pct = run.tail([float(t) for t in range(30, 0, -1)])
    assert (value, pct) == (20.0, pytest.approx(100.0 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_tiny_and_checks_clean(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, str(tmp_path), tiny=True)
    untraced, traced, work, errors = run.run_ops(workload, 0.0)
    assert errors == []
    assert len(untraced) == 1 and traced == [] and work > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_record_spans_and_restore_the_program(name, tmp_path):
    import dfl.autodiff
    import dfl.valuation
    originals = (dfl.valuation.build_grounding, dfl.autodiff.Tape.backward)
    workload = workloads.WORKLOADS[name](5, str(tmp_path), tiny=True)
    tracer = tracing.Tracer()
    untraced, traced, _, errors = run.run_ops(workload, 0.0, tracer)
    assert errors == [] and len(untraced) == 1 and len(traced) == 1
    assert tracer.spans and all(span[4] == 1 for span in tracer.spans)
    assert (dfl.valuation.build_grounding, dfl.autodiff.Tape.backward) == originals


def _corrupt_train(workload):
    workload.op(0)
    workload.check(0, 0)
    workload.first_csv[0] += b"\n"


def _corrupt_valuate_wide(workload):
    key = (0, workload.CONFIGS[0])
    workload.reference[key] *= 1.0 + 1e-6


def _corrupt_oracle(workload):
    kb, probs, exact, single = workload.cases[0][0]
    workload.cases[0][0] = (kb, probs, exact * (1.0 + 1e-6), single)


def _corrupt_audit(workload):
    idx = workload.order[0]
    desc = workload.catalog[idx]
    workload.catalog[idx] = dataclasses.replace(
        desc, properties=desc.properties ^ {"single-passing"})


@pytest.mark.parametrize("name, corrupt", [
    ("train", _corrupt_train),
    ("valuate_wide", _corrupt_valuate_wide),
    ("oracle", _corrupt_oracle),
    ("audit", _corrupt_audit),
])
def test_wrong_reference_counts_as_failed_op(name, corrupt, tmp_path):
    workload = workloads.WORKLOADS[name](5, str(tmp_path), tiny=True)
    corrupt(workload)
    _, _, _, errors = run.run_ops(workload, 0.0)
    assert len(errors) == 1, errors


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_result_line_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "audit", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
