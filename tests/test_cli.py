import json
import os
import random
import time

import pytest

from dfl.analysis import derivative_surface
from dfl.cli import main

SCENE_LABELS = """\
chair(o1)=1
chair(o2)=0
cushion(o1)=0
cushion(o2)=1
armRest(o1)=0
armRest(o2)=0
partOf(o1,o1)=0
partOf(o1,o2)=0
partOf(o2,o1)=1
partOf(o2,o2)=0
"""


@pytest.fixture
def scene_files(tmp_path, scene_kb_text, scene_grounding_text):
    kb = tmp_path / "scene.dfl"
    kb.write_text(scene_kb_text)
    grounding = tmp_path / "scene.grounding"
    grounding.write_text(scene_grounding_text)
    return str(kb), str(grounding)


def test_eval_scene(capsys, scene_files, tmp_path):
    kb, grounding = scene_files
    out_csv = str(tmp_path / "grads.csv")
    code = main(["eval", "--kb", kb, "--grounding", grounding,
                 "--csv", out_csv])
    captured = capsys.readouterr()
    assert code == 0
    assert "total_valuation 0.612" in captured.out
    assert "dfl_loss -0.612" in captured.out
    assert "cushion(o2)" in captured.out
    body = open(out_csv).read()
    assert body.splitlines()[0] == "predicate,args,dL_datom,dVal_datom"
    assert len(body.splitlines()) == 11  # header + 10 atoms
    manifest = json.load(open(out_csv + ".manifest.json"))
    assert manifest["version"]
    assert manifest["outputs"] == [out_csv]


def test_eval_missing_file(capsys, tmp_path):
    code = main(["eval", "--kb", str(tmp_path / "absent.dfl"),
                 "--grounding", str(tmp_path / "absent.grounding")])
    assert code == 2
    assert "absent.dfl" in capsys.readouterr().err


def test_eval_parse_error(capsys, tmp_path, scene_grounding_text):
    bad = tmp_path / "bad.dfl"
    bad.write_text("forall x: chair(x) &\n")
    grounding = tmp_path / "scene.grounding"
    grounding.write_text(scene_grounding_text)
    code = main(["eval", "--kb", str(bad), "--grounding", str(grounding)])
    assert code == 2


@pytest.mark.parametrize("weight", ["-1.2.3", "-1e", "-."])
def test_eval_malformed_negative_weight_exit_2(capsys, tmp_path, weight):
    kb = tmp_path / "kb.dfl"
    kb.write_text(f"forall x: p(x)\n{weight} forall x: p(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(o1)=0.5\n")
    code = main(["eval", "--kb", str(kb), "--grounding", str(grounding)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"line 2, col 1: bad formula weight {weight!r}" in captured.err
    assert "Traceback" not in captured.err


def test_eval_semantic_error_exit_3(capsys, tmp_path):
    # well-formed files, bad operator config (pme without p)
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(o1)=0.5\n")
    code = main(["eval", "--kb", str(kb), "--grounding", str(grounding),
                 "--ops", "aggregator=pme"])
    assert code == 3


def test_eval_deterministic_csv(scene_files, tmp_path):
    kb, grounding = scene_files
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["eval", "--kb", kb, "--grounding", grounding, "--csv", a]) == 0
    assert main(["eval", "--kb", kb, "--grounding", grounding, "--csv", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_analyze_fractions(capsys, tmp_path):
    out = str(tmp_path / "fr.csv")
    code = main(["analyze", "fractions", "--op", "lukasiewicz_agg", "--n", "3",
                 "--samples", "40000", "--seed", "7", "--csv", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "estimate=" in text
    body = open(out).read().splitlines()
    assert body[0].startswith("operator,n,samples,seed,estimate")
    estimate = float(body[1].split(",")[4])
    assert abs(estimate - 1 / 6) < 0.01


def test_analyze_fractions_requires_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "fractions", "--op", "lukasiewicz_agg",
              "--samples", "40000"])
    assert exc.value.code == 2


def test_analyze_fractions_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["analyze", "fractions", "--op", "yager_agg", "--p", "2", "--n",
            "2", "--samples", "40000", "--seed", "3"]
    assert main(argv + ["--csv", a]) == 0
    assert main(argv + ["--csv", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_analyze_single_passing(capsys):
    code = main(["analyze", "single-passing", "--op", "min", "--n", "4",
                 "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"
    code = main(["analyze", "single-passing", "--op", "product_agg", "--n",
                 "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "false"
    assert out[1].startswith("witness")


def test_analyze_surface(capsys, tmp_path):
    out = str(tmp_path / "surface.csv")
    code = main(["analyze", "surface", "--op", "reichenbach", "--step",
                 "0.25", "--csv", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "a,c,d_Ic,d_Inot_a"
    assert len(lines) == 26  # header + 25 grid rows


def test_analyze_surface_reads_p_from_the_sigmoidal_op(capsys, tmp_path):
    out = str(tmp_path / "surface.csv")
    op = "sigmoidal:base=yager_s,s=9,p=2"
    assert main(["analyze", "surface", "--op", op, "--step", "0.25",
                 "--csv", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    expected = derivative_surface("sigmoidal", 0.25, p=2.0, s=9.0, b0=-0.5,
                                  base="yager_s")
    assert rows == [[repr(x) for x in row] for row in expected]
    # --p gives the yager base its p
    assert main(["analyze", "surface", "--op", "sigmoidal:base=yager_s,s=9",
                 "--p", "2", "--step", "0.25", "--csv", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert rows == [[repr(x) for x in row] for row in expected]
    capsys.readouterr()
    assert main(["analyze", "surface", "--op", op, "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: p is given twice: in --op {op} and as "
                            f"--p 3.0\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["fractions", "--op", "foo_agg"], "unknown aggregator 'foo'"),
    (["fractions", "--op", "foo_tnorm"], "unknown t-norm 'foo'"),
    (["fractions", "--op", "sigmoidal"],
     "sigmoidal implication requires a base implication"),
    (["fractions", "--op", "sigmoidal_impl"],
     "sigmoidal implication requires a base implication"),
    (["fractions", "--op", "godel_tnorm", "--p", "2"],
     "t-norm godel takes no parameter p"),
    (["single-passing", "--op", "foo_impl"], "unknown implication 'foo'"),
    (["single-passing", "--op", "yager_tnorm"],
     "yager t-norm requires parameter p"),
    (["single-passing", "--op", "reichenbach", "--n", "3"],
     "implication kernels are binary; got n=3"),
    (["fractions", "--op", "lukasiewicz_agg", "--n", "0"],
     "aggregator kernels need n >= 1; got n=0"),
    (["fractions", "--op", "product_tnorm", "--n", "-1"],
     "tnorm kernels are binary; got n=-1"),
    (["surface", "--op", "foo_impl"], "unknown implication 'foo_impl'"),
    (["surface", "--op", "sigmoidal"],
     "sigmoidal implication requires a base implication"),
    (["surface", "--op", "godel", "--p", "2"],
     "implication godel takes no parameter p"),
])
def test_analyze_bad_operator_exit_3(capsys, argv, message):
    seed = [] if argv[0] == "surface" else ["--seed", "1"]
    assert main(["analyze"] + argv + seed) == 3
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_analyze_quality(capsys, tmp_path, scene_files):
    kb, grounding = scene_files
    labels = tmp_path / "labels.grounding"
    labels.write_text(SCENE_LABELS)
    code = main(["analyze", "quality", "--kb", kb, "--grounding", grounding,
                 "--labels", str(labels), "--ops", "aggregator=log_product"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cons_pct" in out and "cu_ant_pct" in out


@pytest.mark.parametrize("labels, atom", [("p(a)=1\nq(a)=1\n", "p(b)"),
                                          ("p(a)=1\np(b)=0\nq(a)=1\n", "q(b)")])
def test_analyze_quality_names_an_unlabelled_atom(tmp_path, capsys, labels,
                                                   atom):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x) -> q(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(a)=0.5\np(b)=0.5\nq(a)=0.5\nq(b)=0.5\n")
    labels_file = tmp_path / "labels.grounding"
    labels_file.write_text(labels)
    code = main(["analyze", "quality", "--kb", str(kb), "--grounding",
                 str(grounding), "--labels", str(labels_file)])
    assert code == 3
    assert f"error: no label for ground atom {atom}" in capsys.readouterr().err


def test_train_and_determinism(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("""
seed=3
steps=20
eval_interval=10
n_points=300
test_n=50
dfl_batch=3
w_dfl=10
aggregator=log_product
""")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["train", "--config", str(config), "--csv", a]) == 0
    out = capsys.readouterr().out
    assert "final step=20" in out
    assert main(["train", "--config", str(config), "--csv", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    header = open(a).read().splitlines()[0]
    assert header == "step,loss_sup,loss_dfl,accuracy,cons_pct,cu_cons_pct,cu_ant_pct"


def test_train_refuses_a_negation_parameter(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("seed=3\nsteps=5\nnegation=classic:p=2\n")
    assert main(["train", "--config", str(config)]) == 3
    assert ("error: 'negation=classic:p=2': parameter 'p' not valid here"
            in capsys.readouterr().err)


def test_train_requires_seed(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("steps=5\n")
    assert main(["train", "--config", str(config)]) == 3


@pytest.mark.parametrize("command", [
    ["analyze", "fractions", "--op", "lukasiewicz_agg", "--samples", "40000",
     "--seed", "-1"],
    ["analyze", "single-passing", "--op", "min", "--seed", "-1"],
    ["sweep", "--axis", "w_dfl", "--values", "1", "--seeds", "5,-1"],
    ["sweep", "--axis", "w_dfl", "--values", "1", "--seeds", "a"],
])
def test_bad_seed_flag_exit_2_before_any_run(tmp_path, capsys, command):
    config = tmp_path / "sweep.cfg"
    config.write_text("seed=1\nsteps=10\neval_interval=10\nn_points=300\n"
                      "test_n=50\n")
    out = tmp_path / "out.csv"
    if command[0] == "sweep":
        command = command + ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--csv", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    bad = command[command.index("--seeds" if "--seeds" in command
                                else "--seed") + 1].split(",")[-1]
    assert f"seed must be a non-negative integer, got '{bad}'" in captured.err
    assert captured.out == "" and not out.exists()


_KB = b"forall x: p(x)\n"
_GROUNDING = b"p(a)=0.5\n"
_NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("argv, files, code, message", [
    (["analyze", "surface", "--op", "reichenbach", "--step", "0"], {}, 2,
     "step must be a positive number, got '0'"),
    (["analyze", "surface", "--op", "reichenbach", "--step", "-0.25"], {}, 2,
     "step must be a positive number, got '-0.25'"),
    (["analyze", "surface", "--op", "reichenbach", "--step", "nan"], {}, 2,
     "step must be a positive number, got 'nan'"),
    (["analyze", "surface", "--op", "reichenbach", "--step", "inf"], {}, 2,
     "step must be a positive number, got 'inf'"),
    (["analyze", "surface", "--op", "reichenbach", "--step", "1e-9"], {}, 4,
     "a grid of step 1e-09 has more than 1048576 cells"),
    (["analyze", "surface", "--op", "reichenbach", "--step", "1e-320"], {}, 4,
     "a grid of step 1e-320 has more than 1048576 cells"),
    (["analyze", "fractions", "--op", "reichenbach", "--samples",
      "100000000000000", "--seed", "1"], {}, 4,
     "100000000000000 samples x 2 inputs exceed the 1000000000-value"),
    (["analyze", "single-passing", "--op", "min", "--n", "4", "--samples",
      "300000000", "--seed", "1"], {}, 4,
     "300000000 samples x 4 inputs exceed the 1000000000-value"),
    (["train", "--config", "{cfg}"], {"cfg": b"seed=1\nlr=nan\n"}, 3,
     "lr must be a finite number, got nan"),
    (["train", "--config", "{cfg}"], {"cfg": b"seed=1\nw_dfl=inf\n"}, 3,
     "w_dfl must be a finite number, got inf"),
    (["train", "--config", "{cfg}"], {"cfg": b"seed=1\nnoise=nan\n"}, 3,
     "noise must be a finite number, got nan"),
    (["train", "--config", "{cfg}"],
     {"cfg": b"seed=1\nlabeled_fraction=nan\n"}, 3,
     "labeled_fraction must be a finite number, got nan"),
    (["sweep", "--config", "{cfg}", "--axis", "w_dfl", "--values", "1,-inf"],
     {"cfg": b"seed=1\n"}, 3, "w_dfl must be a finite number, got -inf"),
    (["eval", "--kb", "{kb}", "--grounding", "{g}", "--ops",
      "tnorm=yager:p=nan"], {"kb": _KB, "g": _GROUNDING}, 3,
     "yager t-norm requires a finite p, got nan"),
    (["eval", "--kb", "{kb}", "--grounding", "{g}", "--ops",
      "tnorm=yager:p=inf"], {"kb": _KB, "g": _GROUNDING}, 3,
     "yager t-norm requires a finite p, got inf"),
    (["analyze", "fractions", "--op", "yager_tnorm", "--p", "nan", "--seed",
      "1"], {}, 3, "yager t-norm requires a finite p, got nan"),
    (["train", "--config", "{cfg}"],
     {"cfg": b"seed=1\nimplication=sigmoidal:base=reichenbach,s=nan\n"}, 3,
     "sigmoidal implication requires finite s and b0, got s=nan, b0=-0.5"),
    (["sweep", "--config", "{cfg}", "--axis", "s", "--values=-1,9"],
     {"cfg": b"seed=1\nimplication=sigmoidal:base=reichenbach,s=9\n"}, 3,
     "sigmoidal implication requires s > 0, got -1.0"),
    (["train", "--config", "{cfg}"], {"cfg": b"seed=1\n" + _NOT_UTF8}, 2,
     "not UTF-8 text"),
    (["eval", "--kb", "{kb}", "--grounding", "{g}"],
     {"kb": _KB + _NOT_UTF8, "g": _GROUNDING}, 2, "not UTF-8 text"),
    (["eval", "--kb", "{kb}", "--grounding", "{g}"],
     {"kb": _KB, "g": _NOT_UTF8 + _GROUNDING}, 2, "not UTF-8 text"),
    (["analyze", "quality", "--kb", "{kb}", "--grounding", "{g}", "--labels",
      "{labels}"], {"kb": _KB, "g": _GROUNDING, "labels": _NOT_UTF8}, 2,
     "not UTF-8 text"),
    (["oracle", "compare", "--kb", "{kb}", "--grounding", "{g}"],
     {"kb": _NOT_UTF8, "g": _GROUNDING}, 2, "not UTF-8 text"),
])
def test_refusals_exit_with_their_code_before_any_output(tmp_path, capsys,
                                                         argv, files, code,
                                                         message):
    paths = {}
    for name, data in files.items():
        path = tmp_path / name
        path.write_bytes(data)
        paths[name] = str(path)
    out = tmp_path / "out.csv"
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] != "oracle":  # the one command without a CSV
        argv += ["--csv", str(out)]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse refuses a flag
        got = exc.code
    captured = capsys.readouterr()
    assert got == code, captured.err
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_sampling_and_surface_caps_refuse_before_any_work(monkeypatch):
    from dfl import analysis
    from dfl.operators import descriptor

    def no_draw(*args):
        raise AssertionError("points were drawn")

    monkeypatch.setattr(analysis, "SAMPLE_CAP", 20_000)
    desc = descriptor("tnorm", "product")
    analysis.estimate_nonvanishing_fraction(desc, 2, 10_000, 1)
    analysis.single_passing_audit(desc, 2, 10_000, 1)
    monkeypatch.setattr(analysis, "_point_chunks", no_draw)
    for audit in (analysis.estimate_nonvanishing_fraction,
                  analysis.single_passing_audit):
        with pytest.raises(analysis.AnalysisCapError,
                           match="10001 samples x 2 inputs"):
            audit(desc, 2, 10_001, 1)
    monkeypatch.setattr(analysis, "SURFACE_CELL_CAP", 25)
    assert len(derivative_surface("reichenbach", 0.25)) == 25
    with pytest.raises(analysis.AnalysisCapError, match="more than 25 cells"):
        derivative_surface("reichenbach", 0.2)
    for step in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="grid step must be a positive"):
            derivative_surface("reichenbach", step)


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_config_seed_exit_3(tmp_path, capsys, command):
    config = tmp_path / "train.cfg"
    config.write_text("seed=-1\nsteps=10\neval_interval=10\nn_points=300\n"
                      "test_n=50\n")
    extra = ["--axis", "w_dfl", "--values", "1"] if command == "sweep" else []
    assert main([command, "--config", str(config)] + extra) == 3
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_sweep(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("seed=1\nsteps=10\neval_interval=10\nn_points=300\n"
                      "test_n=50\ndfl_batch=3\n")
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", str(config), "--axis", "w_dfl",
                 "--values", "1,10", "--csv", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 3
    assert "mean_accuracy=" in capsys.readouterr().out


def test_sweep_continues_and_exit_code(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("seed=1\nsteps=10\neval_interval=10\nn_points=300\n"
                      "test_n=50\ndfl_batch=3\n")
    code = main(["sweep", "--config", str(config), "--axis", "formula-subset",
                 "--values", "9,1"])
    assert code == 0  # one run failed (unknown formula 9), one succeeded


def test_oracle_compare(tmp_path, capsys):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x) & ~(p(x) & q(x))\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(o1)=0.5\nq(o1)=0.5\n")
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding)])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact=0.25" in out
    assert "dpfl=0.375" in out
    assert "gap=0.125" in out
    assert "single_occurrence=false" in out


def test_oracle_world_cap_exit_4(tmp_path, capsys):
    # one instance reads all 21 atoms: one component past the cap
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: " + " | ".join(f"p{i}(x)" for i in range(21)))
    grounding = tmp_path / "g.grounding"
    grounding.write_text("\n".join(f"p{i}(o1)=0.5" for i in range(21)))
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding)])
    assert code == 4


def test_oracle_dump_worlds_keeps_the_whole_cap(tmp_path, capsys):
    # 21 independent atoms: the probability multiplies 21 components, but
    # the dump would list 2**21 worlds
    kb = tmp_path / "kb.dfl"
    kb.write_text("\n".join(f"forall x: p{i}(x)" for i in range(21)))
    grounding = tmp_path / "g.grounding"
    grounding.write_text("\n".join(f"p{i}(o1)=0.5" for i in range(21)))
    argv = ["oracle", "compare", "--kb", str(kb), "--grounding", str(grounding)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"exact={0.5 ** 21!r} ")
    assert main(argv + ["--dump-worlds"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "21 ground atoms exceed the 20-atom" in captured.err


def test_python_m_dfl_runs_the_command_line(tmp_path):
    import subprocess
    import sys

    import dfl

    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x) | q(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(a)=0.5\nq(a)=0.5\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dfl.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "dfl", "oracle", "compare", "--kb", str(kb),
         "--grounding", str(grounding)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("exact=0.75 dpfl=0.75 ")


# the whole `dfl oracle compare --dump-worlds` output for a two-object KB;
# its components are {same(a,a)}, {same(a,b), same(b,a)} and {same(b,b)},
# and exact is 1.0 * 1.0 * fsum(0.7 * 0.4, 0.3 * 0.6) * 1.0
EXPECTED_SAME_WORLDS = (
    "exact=0.45999999999999996 dpfl=0.39014976 gap=0.06985023999999995 "
    "single_occurrence=false\n"
    "worlds same(a,a) same(a,b) same(b,a) same(b,b)\n"
    "0000 1 0.022399999999999996\n"
    "0001 1 0.005599999999999999\n"
    "0010 0 0.03359999999999999\n"
    "0011 0 0.008399999999999998\n"
    "0100 0 0.009599999999999997\n"
    "0101 0 0.0023999999999999994\n"
    "0110 1 0.014399999999999996\n"
    "0111 1 0.003599999999999999\n"
    "1000 1 0.2016\n"
    "1001 1 0.0504\n"
    "1010 0 0.3024\n"
    "1011 0 0.0756\n"
    "1100 0 0.08640000000000002\n"
    "1101 0 0.021600000000000005\n"
    "1110 1 0.12960000000000002\n"
    "1111 1 0.032400000000000005\n"
)


def test_oracle_dump_worlds(tmp_path, capsys):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: raven(x) -> black(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("raven(o1)=0.8\nblack(o1)=0.6\n")
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding), "--dump-worlds"])
    assert code == 0
    assert capsys.readouterr().out == (
        "exact=0.6799999999999999 dpfl=0.6799999999999999 gap=0.0 "
        "single_occurrence=true\n"
        "worlds raven(o1) black(o1)\n"
        "00 1 0.07999999999999999\n"
        "01 1 0.11999999999999997\n"
        "10 0 0.32000000000000006\n"
        "11 1 0.48\n")


def test_oracle_dump_worlds_two_objects(tmp_path, capsys):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x, y: same(x, y) -> same(y, x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("same(a,a)=0.9\nsame(a,b)=0.3\n"
                         "same(b,a)=0.6\nsame(b,b)=0.2\n")
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding), "--dump-worlds"])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED_SAME_WORLDS


def test_oracle_dump_worlds_evaluates_each_chunk_once(tmp_path, capsys,
                                                      monkeypatch):
    import dfl.oracle as oracle

    calls = []
    evaluate = oracle.classical_values

    def counted(program, b, truth, index):
        calls.append(program)
        return evaluate(program, b, truth, index)

    monkeypatch.setattr(oracle, "classical_values", counted)
    monkeypatch.setattr(oracle, "WORLD_CHUNK", 4)  # 16 worlds in 4 chunks
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x, y: same(x, y) -> same(y, x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("same(a,a)=0.9\nsame(a,b)=0.3\n"
                         "same(b,a)=0.6\nsame(b,b)=0.2\n")
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding), "--dump-worlds"])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED_SAME_WORLDS
    # the report and the dump share one evaluation of the program: one
    # chunk for each of the 2, 4 and 2 worlds of the three components
    assert len(calls) == 3 and len(set(map(id, calls))) == 1


def test_oracle_world_cap_before_enumeration(tmp_path, capsys):
    # 7 predicates over 3 objects are 21 atoms; 2 * 3**8 = 13,122 instances
    body = " | ".join(f"p{i % 7}(v{i})" for i in range(8))
    quantifier = "forall " + ", ".join(f"v{i}" for i in range(8))
    kb = tmp_path / "kb.dfl"
    kb.write_text(f"{quantifier}: {body}\n{quantifier}: ~({body})\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("\n".join(f"p{i}({o})=0.5" for i in range(7)
                                   for o in ("a", "b", "c")))
    start = time.perf_counter()
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding), "--dump-worlds"])
    elapsed = time.perf_counter() - start
    assert code == 4
    assert "21 ground atoms exceed the 20-atom" in capsys.readouterr().err
    # enumerating 2**21 worlds would take seconds
    assert elapsed < 1.0, elapsed


def test_oracle_world_instance_cap_exit_4(tmp_path, capsys):
    # 20 atoms are within the atom cap, but 2**20 worlds x 10**6
    # instances are past the world-instance cap; walking the 10**6
    # instances in Python would take seconds
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall a, b, c, d, e, f: "
                  "p(a) & q(b) -> p(c) | q(d) | p(e) | q(f)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("\n".join(f"{pred}(o{i})=0.5" for pred in "pq"
                                   for i in range(10)))
    start = time.perf_counter()
    code = main(["oracle", "compare", "--kb", str(kb), "--grounding",
                 str(grounding)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 4
    assert "2**20 worlds x 1000000 ground instances exceed" in err
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


def test_eval_prints_positive_zero_gradients(tmp_path, capsys):
    # under min, p(b) is not the minimum: every partial of p(b) is zero
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(a)=0.3\np(b)=0.6\n")
    code = main(["eval", "--kb", str(kb), "--grounding", str(grounding),
                 "--ops", "aggregator=min"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  p(a) dL=-1.0 dVal=1.0\n" in out
    assert "  p(b) dL=0.0 dVal=-0.0\n" in out
    assert "dL=-0.0" not in out


@pytest.mark.parametrize("command", [["eval"], ["oracle", "compare"]])
def test_missing_probability_names_objects(tmp_path, capsys, command):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: p(x) -> q(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(a)=0.5\np(b)=0.5\nq(a)=0.5\n")
    code = main(command + ["--kb", str(kb), "--grounding", str(grounding)])
    assert code == 3
    err = capsys.readouterr().err
    assert "no probability for ground atom q(b)" in err


@pytest.mark.parametrize("command", [["eval"], ["oracle", "compare"],
                                     ["analyze", "quality"]])
def test_instance_cap_exit_4_before_any_array(tmp_path, capsys, command):
    # 40**8 ground instances
    variables = "abcdefgh"
    kb = tmp_path / "kb.dfl"
    kb.write_text(f"forall {', '.join(variables)}: "
                  + " & ".join(f"p({v})" for v in variables[:-1])
                  + f" -> p({variables[-1]})\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("\n".join(f"p(o{i})=0.5" for i in range(40)))
    if command[0] == "analyze":
        command = command + ["--labels", str(grounding)]
    start = time.perf_counter()
    code = main(command + ["--kb", str(kb), "--grounding", str(grounding)])
    assert code == 4
    assert "6553600000000 ground instances exceed" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_eval_deep_negation_chain(tmp_path, capsys):
    kb = tmp_path / "kb.dfl"
    kb.write_text("forall x: " + "~" * 10 ** 5 + "p(x)\n")
    grounding = tmp_path / "g.grounding"
    grounding.write_text("p(a)=0.25\n")
    code = main(["eval", "--kb", str(kb), "--grounding", str(grounding)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "formula 1: weight=1.0 valuation=0.25" in captured.out


FUZZ_PIECES = ["(", ")", "~", "&", "|", "->", ",", ":", "=", "#", "\n", "x",
               "y", "z", "o1", "forall ", "exists ", "chair(x)", "partOf(y)",
               "q(x, y)", "0.5 ", "-1 ", "1e999 ", "1.5", "nan", "0"]


def _mutate(rng, text):
    """``text`` after one to four random deletions, insertions of grammar
    pieces and repetitions of a span."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 8))
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + text[j:]
        elif kind == 1:
            text = text[:i] + rng.choice(FUZZ_PIECES) + text[i:]
        else:
            text = text[:i] + text[i:j] * rng.randint(2, 3) + text[j:]
    return text


def test_fuzzed_inputs_exit_with_documented_codes(tmp_path, capsys,
                                                  scene_kb_text,
                                                  scene_grounding_text):
    """Mutated knowledge bases, groundings and labels, deep and wide
    formulas among them, end in exit 0, 2, 3 or 4 and never a
    traceback."""
    rng = random.Random(8)
    kbs = [scene_kb_text,
           "forall x: " + "~" * 1500 + "chair(x)\n",
           "forall x, y: " + " & ".join(["chair(x)", "partOf(y, x)"] * 750)
           + " -> cushion(y) | armRest(y)\n"]
    ops = ["", "aggregator=log_product", "tnorm=yager:p=2", "aggregator=pme"]
    kb, grounding, labels = (tmp_path / name for name in
                             ("kb.dfl", "g.grounding", "labels.grounding"))
    codes = set()
    for trial in range(60):
        kb.write_text(_mutate(rng, rng.choice(kbs)))
        grounding.write_text(_mutate(rng, scene_grounding_text)
                             if trial % 3 == 0 else scene_grounding_text)
        labels.write_text(_mutate(rng, SCENE_LABELS)
                          if trial % 3 == 1 else SCENE_LABELS)
        command = (["eval"] if trial % 2 else
                   ["analyze", "quality", "--labels", str(labels)])
        code = main(command + ["--kb", str(kb), "--grounding", str(grounding),
                               "--ops", rng.choice(ops)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (trial, err)
        codes.add(code)
    assert {0, 2, 3} <= codes
