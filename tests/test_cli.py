import os
import subprocess
import sys

import pytest

from nn2logic import analysis, cli, mlp, pipeline
from nn2logic.aig import AigGraph, _is_positive, _ripple_add, read_aiger, simulate_aig, write_aiger
from nn2logic.datasets import make_overlapping_gaussians, read_dataset
from nn2logic.fixedpoint import FixedPointFormat

from oracles import write_csv


@pytest.fixture
def decision_aiger(tmp_path):
    """Two 2-bit inputs; outputs the word a + b, then the decision a > b last."""
    g = AigGraph()
    a = [g.add_input(f"a[{j}]") for j in range(2)]
    b = [g.add_input(f"b[{j}]") for j in range(2)]
    for j, literal in enumerate(_ripple_add(g, a, b)):
        g.add_output(literal, f"sum[{j}]")
    g.add_output(_is_positive(g, a, b), "argmax")
    path = tmp_path / "tiny.aag"
    write_aiger(g, path)
    return g, str(path)


def test_sat_defaults_to_the_decision_output(decision_aiger, capsys):
    g, path = decision_aiger
    assert cli.main(["sat", path]) == 0
    witness = [int(c) for c in capsys.readouterr().out.strip()]
    assert len(witness) == len(g.inputs)
    assert simulate_aig(g, witness)[-1] == 1


def test_sat_output_index_out_of_range(decision_aiger, capsys):
    g, path = decision_aiger
    assert cli.main(["sat", path, "--output-index", str(len(g.outputs))]) == 2
    assert "output index" in capsys.readouterr().err


def test_equiv_of_a_file_with_itself(decision_aiger, capsys):
    _, path = decision_aiger
    assert cli.main(["equiv", path, path]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"


def test_evaluate_requires_the_weights_file(decision_aiger, tmp_path, capsys):
    # Compiled circuits read min-max scaled features, and the scaler is in
    # the weights file: without it evaluate would score unscaled inputs.
    _, path = decision_aiger
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["evaluate", path, str(tmp_path / "data.csv")])
    assert exit_info.value.code == 2
    assert "weights" in capsys.readouterr().err


# -- train -> compile -> evaluate -> report -> sat -> equiv on a tiny CSV -----

TINY_CONFIG = """\
hidden_nodes=3
epochs=60
total_bits=6
fractional_bits=4
rf_estimators=2
rf_max_depth=3
lgn_depth=1
lgn_width=4
lgn_lut_size=2
"""

TINY_GRID = """\
pipelines=direct,rf,logicnet
rf_estimators=1,2
rf_max_depth=2
lgn_depth=1
lgn_width=4
lgn_lut_size=2
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A CSV, a config file and the `train` outputs for them."""
    d = tmp_path_factory.mktemp("cli")
    csv = str(d / "data.csv")
    write_csv(make_overlapping_gaussians(200, 4, seed=1), csv)
    cfg = d / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = str(d / "out")
    assert cli.main(["train", csv, "--config", str(cfg), "--out", out]) == 0
    return dict(
        csv=csv,
        cfg=str(cfg),
        out=out,
        weights=os.path.join(out, "weights.txt"),
        split=os.path.join(out, "split.txt"),
    )


def _in_memory_compile(run, flow):
    """What `compile` should have written, built by calling the library.

    Returns the swept AIG and, for a distilled flow, the models keyed by
    (layer, node).
    """
    cfg = pipeline.parse_config(run["cfg"], {"pipeline": flow})
    net = mlp.load_weights(run["weights"])
    data = read_dataset(run["csv"])
    train_idx, _ = pipeline.read_split_manifest(run["split"], len(data))
    sets = mlp.extract_distillation_sets(net, data.subset(train_idx), cfg.fmt)
    return pipeline.compile_pipeline(
        flow, net, sets, cfg.fmt, cfg.params, cfg.seed, data.feature_names
    )


def _test_rows_report(run, graph, fmt, flow):
    """``analysis.evaluate`` of ``graph`` on the split's test rows, in ``fmt``."""
    data = read_dataset(run["csv"])
    _, test_idx = pipeline.read_split_manifest(run["split"], len(data))
    scaler = mlp.load_weights(run["weights"]).scaler
    return analysis.evaluate(graph, data.subset(test_idx), fmt, scaler, pipeline=flow)


@pytest.mark.parametrize("flow", ["direct", "rf", "logicnet"])
def test_cli_flow_end_to_end(trained, flow, capsys):
    run = trained
    common = ["--config", run["cfg"], "--pipeline", flow]
    assert cli.main(["compile", run["csv"], run["weights"], "--split", run["split"], *common,
                     "--out", run["out"]]) == 0
    aag = os.path.join(run["out"], f"{flow}.aag")
    got = read_aiger(aag)
    want, modules = _in_memory_compile(run, flow)
    assert (got.fanin0, got.fanin1, got.outputs) == (want.fanin0, want.fanin1, want.outputs)
    cfg = pipeline.parse_config(run["cfg"])
    m = cfg.total_bits

    models_path = os.path.join(run["out"], f"{flow}_models.txt")
    if flow == "direct":
        assert not os.path.exists(models_path)
    else:
        to_text = pipeline.DISTILLERS[flow].to_text
        blocks = [
            f"module {l} {n}\n" + "".join(to_text(model) for model in modules[(l, n)])
            for l, n in sorted(modules)
        ]
        with open(models_path) as fh:
            assert fh.read() == "\n".join(blocks) + "\n"
        assert sorted(modules) == [(1, n) for n in range(3)] + [(2, 0), (2, 1)]
        assert all(len(models) == m for models in modules.values())
    capsys.readouterr()

    assert cli.main(["evaluate", aag, run["csv"], run["weights"], "--split", run["split"],
                     "--config", run["cfg"]]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    report = _test_rows_report(run, want, cfg.fmt, flow)
    assert (header, row) == (analysis.RESULTS_HEADER, report.csv_row())

    assert cli.main(["report", aag, "--names", "f0,f1,f2,f3", "--title", flow,
                     "--out", run["out"]]) == 0
    names = [f"f{k}[{j}]" for k in range(4) for j in range(m)]
    with open(os.path.join(run["out"], f"{flow}.report.txt")) as fh:
        assert fh.read() == analysis.emit_equations(got, names, title=flow).render()
    capsys.readouterr()

    assert cli.main(["sat", aag]) == 0
    witness = capsys.readouterr().out.strip()
    if witness != "unsatisfiable":
        assert simulate_aig(got, [int(c) for c in witness])[-1] == 1

    assert cli.main(["equiv", aag, aag]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"


@pytest.fixture
def rf_6_4(trained, tmp_path, capsys):
    """An rf circuit compiled at 6 bits, 4 of them fractional, and its AIGER lines."""
    out = str(tmp_path / "rf64")
    assert cli.main(["compile", trained["csv"], trained["weights"], "--split", trained["split"],
                     "--config", trained["cfg"], "--pipeline", "rf", "--bits", "6",
                     "--frac", "4", "--out", out]) == 0
    capsys.readouterr()
    aag = os.path.join(out, "rf.aag")
    with open(aag) as fh:
        return aag, fh.read().splitlines()


@pytest.mark.parametrize("config_text", [None, TINY_CONFIG,
                                         "total_bits=8\nfractional_bits=6\npipeline=direct\n"],
                         ids=["no-config", "tiny", "says-8-6-direct"])
def test_evaluate_reads_the_format_compile_recorded(trained, rf_6_4, tmp_path, config_text,
                                                    capsys):
    aag, lines = rf_6_4
    assert lines[-2:] == ["c", "nn2logic pipeline=rf total_bits=6 fractional_bits=4"]
    args = ["evaluate", aag, trained["csv"], trained["weights"], "--split", trained["split"]]
    if config_text is not None:
        (tmp_path / "eval.cfg").write_text(config_text)
        args += ["--config", str(tmp_path / "eval.cfg")]
    assert cli.main(args) == 0
    row = capsys.readouterr().out.splitlines()[1]
    want, _ = _in_memory_compile(trained, "rf")
    report = _test_rows_report(trained, want, FixedPointFormat(6, 4), "rf")
    assert row == report.csv_row() and row.startswith("rf,")


def test_evaluate_takes_an_unrecorded_format_from_the_config(trained, rf_6_4, tmp_path, capsys):
    """Without its comment section the circuit is scored as --config says, here at 6.3."""
    aag, lines = rf_6_4
    bare = tmp_path / "bare.aag"
    bare.write_text("\n".join(lines[:-2]) + "\n")
    assert read_aiger(bare).comments == []
    cfg = tmp_path / "six3.cfg"
    cfg.write_text("total_bits=6\nfractional_bits=3\npipeline=logicnet\n")
    assert cli.main(["evaluate", str(bare), trained["csv"], trained["weights"],
                     "--split", trained["split"], "--config", str(cfg)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    report = _test_rows_report(trained, read_aiger(bare), FixedPointFormat(6, 3), "logicnet")
    assert row == report.csv_row()


@pytest.mark.parametrize(
    "record, message",
    [
        ("nn2logic pipeline=rf total_bits=0 fractional_bits=4",
         "total_bits: expected an integer in 1..64, got 0"),
        ("nn2logic pipeline=rf total_bits=6 fractional_bits=6",
         "fractional_bits: expected an integer in 0..5 for 6 total bits, got 6"),
        ("nn2logic pipeline=rff total_bits=6 fractional_bits=4",
         "pipeline: expected one of direct, rf, logicnet, got 'rff'"),
        ("nn2logic pipeline=rf total_bits=6 fractional_bits=4 seed=3",
         "format record 'nn2logic pipeline=rf total_bits=6 fractional_bits=4 seed=3': "
         "expected pipeline=<value> total_bits=<value> fractional_bits=<value>"),
        ("nn2logic pipeline=rf total_bits=6",
         "format record 'nn2logic pipeline=rf total_bits=6': "
         "expected pipeline=<value> total_bits=<value> fractional_bits=<value>"),
        ("nn2logic pipeline=rf total_bits=6 fractional_bits=4\n"
         "nn2logic pipeline=rf total_bits=6 fractional_bits=4",
         "the format is recorded more than once"),
    ],
    ids=["bits-out-of-range", "frac-out-of-range", "unknown-pipeline", "unknown-key",
         "missing-key", "recorded-twice"],
)
def test_evaluate_rejects_a_bad_format_record_at_its_line(trained, rf_6_4, tmp_path, record,
                                                          message, capsys):
    aag, lines = rf_6_4
    bad = tmp_path / "bad.aag"
    bad.write_text("\n".join(lines[:-1] + [record, "a comment after it"]) + "\n")
    line = len(lines) + record.count("\n")
    assert cli.main(["evaluate", str(bad), trained["csv"], trained["weights"],
                     "--config", trained["cfg"]]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"


def test_equiv_compares_circuits_of_one_recorded_format(trained, rf_6_4, tmp_path, capsys):
    """Equal records, or a circuit with none, are compared as they stand."""
    aag, lines = rf_6_4
    bare = tmp_path / "bare.aag"
    bare.write_text("\n".join(lines[:-2]) + "\n")
    assert cli.main(["equiv", aag, str(bare)]) == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"
    out = str(tmp_path / "lgn64")
    assert cli.main(["compile", trained["csv"], trained["weights"], "--split", trained["split"],
                     "--config", trained["cfg"], "--pipeline", "logicnet", "--bits", "6",
                     "--frac", "4", "--out", out]) == 0
    capsys.readouterr()
    other = os.path.join(out, "logicnet.aag")
    assert cli.main(["equiv", aag, other]) == 1
    witness = [int(c) for c in capsys.readouterr().out.split()[1]]
    assert simulate_aig(read_aiger(aag), witness) != simulate_aig(read_aiger(other), witness)


@pytest.mark.parametrize("case", ["fractional-bits", "input-count"])
def test_equiv_rejects_circuits_it_cannot_compare(rf_6_4, decision_aiger, tmp_path, case, capsys):
    """Other fixed-point formats give equal input bits other feature values; exit 2."""
    aag, lines = rf_6_4
    if case == "fractional-bits":
        other = str(tmp_path / "six3.aag")
        with open(other, "w") as fh:
            fh.write("\n".join(lines[:-1] + ["nn2logic pipeline=rf total_bits=6 fractional_bits=3"])
                     + "\n")
        message = (f"{aag} records total_bits=6 fractional_bits=4, "
                   f"but {other} records total_bits=6 fractional_bits=3")
    else:
        other = decision_aiger[1]
        message = (f"{aag} and {other}: graphs must agree on input and output counts, "
                   "not 24 and 4 inputs, 13 and 3 outputs")
    assert cli.main(["equiv", aag, other]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["evaluate", "{}", "data.csv", "weights.txt"], ["sat", "{}"],
                                     ["equiv", "{}", "{}"]],
                         ids=["evaluate", "sat", "equiv"])
def test_a_circuit_with_no_outputs_is_rejected(tmp_path, command, capsys):
    path = tmp_path / "none.aag"
    path.write_text("aag 40 40 0 0 0\n" + "".join(f"{2 * v}\n" for v in range(1, 41)))
    assert cli.main([arg.format(path) for arg in command]) == 2
    assert capsys.readouterr().err == f"error: {path}: the circuit has no outputs\n"


@pytest.mark.parametrize("flow", ["direct", "rf", "logicnet"])
def test_compiled_aag_names_class_words_and_argmax(trained, flow, tmp_path):
    out = str(tmp_path / "out8")
    assert cli.main(["compile", trained["csv"], trained["weights"], "--split", trained["split"],
                     "--config", trained["cfg"], "--pipeline", flow, "--bits", "8",
                     "--frac", "6", "--out", out]) == 0
    g = read_aiger(os.path.join(out, f"{flow}.aag"))
    words = [f"class{c}[{j}]" for c in (0, 1) for j in range(8)]
    assert g.output_names == words + ["argmax"]
    assert g.input_names == [f"f{k}[{j}]" for k in range(4) for j in range(8)]


def test_sweep_grid_matches_the_library(trained, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NN2LOGIC_THREADS", "1")
    grid_path = tmp_path / "tiny.grid"
    grid_path.write_text(TINY_GRID)
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", trained["csv"], "--grid", str(grid_path),
                     "--config", trained["cfg"], "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        table = fh.read()
    cfg = pipeline.parse_config(trained["cfg"], {"dataset": trained["csv"]})
    grid = pipeline.parse_grid(str(grid_path), cfg)
    want = analysis.results_table(
        pipeline.sweep_experiments(read_dataset(trained["csv"]), cfg, grid)
    )
    assert table == want
    assert len(table.splitlines()) == 1 + 1 + 2 + 1
    assert "estimators=2 max_depth=2" in table


def test_sweep_rejects_an_unknown_pipeline_at_its_line(tmp_path, capsys):
    grid_path = tmp_path / "bad.grid"
    grid_path.write_text("pipelines=direct,rff\n")
    assert cli.main(["sweep", str(tmp_path / "absent.csv"), "--grid", str(grid_path)]) == 2
    assert (f"{grid_path}:1: pipelines: expected one of direct, rf, logicnet, got 'rff'"
            in capsys.readouterr().err)


def test_sweep_has_no_pipeline_flag(tmp_path, capsys):
    """The grid's pipelines key chooses a sweep's pipelines; a --pipeline would be ignored."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", str(tmp_path / "absent.csv"), "--pipeline", "rf"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --pipeline rf" in capsys.readouterr().err


def test_sweep_grid_axes_left_out_take_the_config_value(trained, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("NN2LOGIC_THREADS", "1")
    grid_path = tmp_path / "est.grid"
    grid_path.write_text("pipelines=rf\nrf_estimators=2\n")
    assert cli.main(["sweep", trained["csv"], "--grid", str(grid_path),
                     "--config", trained["cfg"]]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.startswith("rf,estimators=2 max_depth=3,")


def test_sweep_without_a_grid_runs_each_pipeline_once_at_the_config_values(trained, monkeypatch,
                                                                         capsys):
    monkeypatch.setenv("NN2LOGIC_THREADS", "1")
    assert cli.main(["sweep", trained["csv"], "--config", trained["cfg"]]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == analysis.RESULTS_HEADER
    assert [row.split(",")[:2] for row in rows] == [
        ["direct", "-"],
        ["rf", "estimators=2 max_depth=3"],
        ["logicnet", "depth=1 width=4 lut_size=2"],
    ]


def test_sweep_without_a_dataset_says_where_one_comes_from(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert ("no dataset given: name a CSV on the command line or set dataset= in the config"
            in capsys.readouterr().err)


def test_sweep_writes_into_the_config_files_out_dir(trained, tmp_path, monkeypatch, capsys):
    """Without --out, sweep.csv goes to the config's out_dir, and nowhere if it names none."""
    monkeypatch.setenv("NN2LOGIC_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "est.grid").write_text("pipelines=rf\nrf_estimators=2\n")
    (tmp_path / "out.cfg").write_text(TINY_CONFIG + "out_dir=cfgout\n")
    sweep = ["sweep", trained["csv"], "--grid", "est.grid", "--config"]
    assert cli.main(sweep + [trained["cfg"]]) == 0
    table = capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["est.grid", "out.cfg"]
    assert cli.main(sweep + ["out.cfg"]) == 0
    wrote, *printed = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {os.path.join('cfgout', 'sweep.csv')}\n"
    assert "".join(printed) == table
    assert (tmp_path / "cfgout" / "sweep.csv").read_text() == table


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "data.csv", "--bits", "6"],
        ["train", "data.csv", "--frac", "4"],
        ["train", "data.csv", "--pipeline", "rf"],
        ["evaluate", "c.aag", "data.csv", "weights.txt", "--seed", "3"],
        ["evaluate", "c.aag", "data.csv", "weights.txt", "--out", "out"],
        ["evaluate", "c.aag", "data.csv", "weights.txt", "--bits", "6"],
        ["evaluate", "c.aag", "data.csv", "weights.txt", "--frac", "3"],
        ["evaluate", "c.aag", "data.csv", "weights.txt", "--pipeline", "rf"],
    ],
    ids=["train-bits", "train-frac", "train-pipeline", "evaluate-seed", "evaluate-out",
         "evaluate-bits", "evaluate-frac", "evaluate-pipeline"],
)
def test_commands_take_only_the_flags_they_read(argv, capsys):
    """A flag a command would ignore is a usage error, not a quiet no-op."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_train_rejects_an_out_of_range_config_value_at_its_line(tmp_path, capsys):
    csv = str(tmp_path / "data.csv")
    write_csv(make_overlapping_gaussians(40, 5, seed=2), csv)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs=3\nlearning_rate=nan\n")
    out = tmp_path / "out"
    assert cli.main(["train", csv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: learning_rate: expected a finite number > 0, got nan" in err
    assert not out.exists()


@pytest.mark.parametrize("fraction, part", [("0.01", "test"), ("0.99", "train")])
def test_train_rejects_a_split_with_an_empty_part(tmp_path, fraction, part, capsys):
    """Each class's share of 40 rows rounds to 0 test rows, or to no train rows."""
    csv = str(tmp_path / "data.csv")
    write_csv(make_overlapping_gaussians(40, 5, seed=2), csv)
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"epochs=3\ntest_fraction={fraction}\n")
    out = tmp_path / "out"
    assert cli.main(["train", csv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: test_fraction={fraction} leaves no {part} rows of 40\n"
    assert not (out / "weights.txt").exists() and not (out / "split.txt").exists()


def test_train_rejects_a_csv_with_no_feature_column(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("label\n" + "".join(f"{k % 2}\n" for k in range(20)))
    out = tmp_path / "out"
    assert cli.main(["train", str(path), "--out", str(out)]) == 2
    assert f"{path}:1: no feature column before the label column" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_label_other_than_0_or_1_at_its_line(tmp_path, capsys):
    path = tmp_path / "data.csv"
    rows = [f"{k / 60},{(k * 7 % 60) / 60},{-(k % 2)}" for k in range(60)]
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["train", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: label -1 is not 0 or 1\n"
    assert not out.exists()


def test_compile_rejects_a_nan_weight_at_its_line(tmp_path, capsys):
    csv = str(tmp_path / "data.csv")
    write_csv(make_overlapping_gaussians(40, 5, seed=2), csv)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    rows = [" ".join(["0.5"] * 5 + ["0.0"])] * 5 + [" ".join(["0.25"] * 5 + ["0.0"])] * 2
    good = ["mlp 2", "layer 5 5 relu", *rows[:5], "layer 5 2 identity", *rows[5:]]
    bad = list(good)
    bad[3] = "0.5 0.5 nan 0.5 0.5 0.0"
    out = str(tmp_path / "out")
    common = ["--config", str(cfg), "--pipeline", "logicnet", "--out", out]
    for name, lines in (("good.txt", good), ("bad.txt", bad)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert cli.main(["compile", csv, str(tmp_path / "good.txt"), *common]) == 0
    os.remove(os.path.join(out, "logicnet.aag"))
    capsys.readouterr()
    assert cli.main(["compile", csv, str(tmp_path / "bad.txt"), *common]) == 2
    assert f"{tmp_path / 'bad.txt'}:4: non-finite weight" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "logicnet.aag"))


def test_compile_reports_a_short_weights_row_at_its_line(trained, tmp_path, capsys):
    weights = tmp_path / "short.txt"
    weights.write_text("mlp 1\nlayer 2 1 relu\n1.0 1.0\n")
    args = ["compile", trained["csv"], str(weights), "--config", trained["cfg"],
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {weights}:3: expected 3 values, got 2\n"


def test_compile_rejects_a_split_that_leaks_test_rows(trained, tmp_path, capsys):
    with open(trained["split"]) as fh:
        train_line, test_line = fh.read().splitlines()
    leaked = train_line.split()[1]
    split = tmp_path / "leak.txt"
    split.write_text(f"{train_line}\n{test_line} {leaked}\n")
    out = str(tmp_path / "out")
    args = ["compile", trained["csv"], trained["weights"], "--split", str(split),
            "--config", trained["cfg"], "--pipeline", "rf", "--out", out]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {split}:2: row {leaked} is already listed on line 1\n"
    )
    assert not os.path.exists(os.path.join(out, "rf.aag"))


@pytest.mark.parametrize("flow", ["direct", "rf", "logicnet"])
def test_compile_rejects_a_dataset_narrower_than_the_weights(trained, tmp_path, flow, capsys):
    csv = str(tmp_path / "narrow.csv")
    write_csv(make_overlapping_gaussians(60, 3, seed=1), csv)
    out = tmp_path / "out"
    args = ["compile", csv, trained["weights"], "--config", trained["cfg"],
            "--pipeline", flow, "--out", str(out)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}:1: 3 feature columns, but {trained['weights']} declares 4 inputs\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("n_features", [3, 5])
def test_evaluate_rejects_a_dataset_of_another_width(trained, decision_aiger, tmp_path,
                                                       n_features, capsys):
    _, aag = decision_aiger
    csv = str(tmp_path / "other.csv")
    write_csv(make_overlapping_gaussians(60, n_features, seed=1), csv)
    assert cli.main(["evaluate", aag, csv, trained["weights"], "--config", trained["cfg"]]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}:1: {n_features} feature columns, "
        f"but {trained['weights']} declares 4 inputs\n"
    )


BLAS_PROBE = """
import os, sys
KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
seen = {}

class Spy:  # records the environment at the moment NumPy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((k, os.environ.get(k)) for k in KEYS)

sys.meta_path.insert(0, Spy())
import nn2logic.cli
print(" ".join(str(seen[k]) for k in KEYS))
"""


@pytest.mark.parametrize("preset, want", [(None, "1 1"), ("3", "3 3")])
def test_cli_pins_blas_threads_before_numpy_loads(preset, want):
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in keys}
    if preset is not None:
        env.update(dict.fromkeys(keys, preset))
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    run = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == want.split()


def test_package_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    probe = "import nn2logic, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
