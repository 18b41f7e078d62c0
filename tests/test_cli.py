import os
import subprocess
import sys

import pytest

from nn2logic import analysis, cli, mlp, pipeline
from nn2logic.aig import lower_netlist, read_aiger, simulate_aig, write_aiger
from nn2logic.datasets import make_overlapping_gaussians, read_dataset
from nn2logic.netlist import Netlist

from oracles import write_csv


@pytest.fixture
def decision_aiger(tmp_path):
    """Two 2-bit inputs; outputs the word a + b, then the decision a > b last."""
    net = Netlist()
    a = net.add_input(2, "a")
    b = net.add_input(2, "b")
    net.set_output(net.add_gate("ADD", (a, b)))
    net.set_output(net.add_gate("GT", (a, b), name="argmax"))
    g = lower_netlist(net)
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
    if flow == "direct":
        return pipeline.compile_direct(net, cfg.fmt, data.feature_names), None
    sets = mlp.extract_distillation_sets(net, data.subset(train_idx), cfg.fmt)
    distiller = pipeline.DISTILLERS[flow]
    params = {label: getattr(cfg, key) for key, label in distiller.params}
    return pipeline.compile_distilled(
        flow, net, sets, cfg.fmt, params, cfg.seed, data.feature_names
    )


@pytest.mark.parametrize("flow", ["direct", "rf", "logicnet"])
def test_cli_flow_end_to_end(trained, flow, capsys):
    run = trained
    common = ["--config", run["cfg"], "--pipeline", flow, "--out", run["out"]]
    assert cli.main(["compile", run["csv"], run["weights"], "--split", run["split"], *common]) == 0
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
                     *common]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    data = read_dataset(run["csv"])
    _, test_idx = pipeline.read_split_manifest(run["split"], len(data))
    test_data = data.subset(test_idx)
    scaler = mlp.load_weights(run["weights"]).scaler
    report = analysis.evaluate(want, test_data, cfg.fmt, scaler, pipeline=flow)
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
    grid = pipeline.parse_grid(str(grid_path))
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
    assert f"{grid_path}:1: unknown pipeline 'rff'" in capsys.readouterr().err


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
