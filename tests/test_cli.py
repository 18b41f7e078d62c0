import os

import numpy as np
import pytest

from nn2logic import analysis, cli, mlp, pipeline
from nn2logic.aig import lower_netlist, read_aiger, simulate_aig, write_aiger
from nn2logic.datasets import make_overlapping_gaussians, read_dataset, write_dataset
from nn2logic.forest import forest_from_text, predict_forest
from nn2logic.lutnet import eval_logicnet_batch, logicnet_from_text
from nn2logic.netlist import Netlist


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
    write_dataset(make_overlapping_gaussians(200, 4, seed=1), csv)
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
    """What `compile` should have written, built by calling the library."""
    cfg = pipeline.parse_config(run["cfg"], {"pipeline": flow})
    net = mlp.load_weights(run["weights"])
    data = read_dataset(run["csv"])
    train_idx, _ = pipeline.read_split_manifest(run["split"])
    if flow == "direct":
        return pipeline.compile_direct(net, cfg.fmt, data.feature_names), None, None
    sets = mlp.extract_distillation_sets(net, data.subset(train_idx), cfg.fmt)
    if flow == "rf":
        graph, modules = pipeline.compile_rf(
            net, sets, cfg.fmt, cfg.rf_estimators, cfg.rf_max_depth, cfg.seed,
            data.feature_names,
        )
    else:
        graph, modules = pipeline.compile_logicnet(
            net, sets, cfg.fmt, cfg.lgn_depth, cfg.lgn_width, cfg.lgn_lut_size,
            cfg.seed, data.feature_names,
        )
    return graph, modules, sets


def _parse_model_dump(text: str, header: str, from_text) -> dict:
    """`module l n` blocks, each a run of dumps that start with ``header``."""
    modules: dict = {}
    key = None
    for line in text.splitlines():
        if line.startswith("module "):
            _, l, n = line.split()
            key = (int(l), int(n))
            modules[key] = []
        elif line.startswith(header + " "):
            modules[key].append([line])
        elif line.strip():
            modules[key][-1].append(line)
    return {k: [from_text("\n".join(d) + "\n") for d in dumps] for k, dumps in modules.items()}


@pytest.mark.parametrize("flow", ["direct", "rf", "logicnet"])
def test_cli_flow_end_to_end(trained, flow, capsys):
    run = trained
    common = ["--config", run["cfg"], "--pipeline", flow, "--out", run["out"]]
    assert cli.main(["compile", run["csv"], run["weights"], "--split", run["split"], *common]) == 0
    aag = os.path.join(run["out"], f"{flow}.aag")
    got = read_aiger(aag)
    want, modules, sets = _in_memory_compile(run, flow)
    assert (got.fanin0, got.fanin1, got.outputs) == (want.fanin0, want.fanin1, want.outputs)

    models_path = os.path.join(run["out"], f"{flow}_models.txt")
    if flow == "direct":
        assert not os.path.exists(models_path)
    else:
        with open(models_path) as fh:
            text = fh.read()
        if flow == "rf":
            back = _parse_model_dump(text, "forest", forest_from_text)
        else:
            back = _parse_model_dump(text, "logicnet", logicnet_from_text)
        assert sorted(back) == sorted(modules)
        for z in sets:
            key = (z.layer_index, z.node_index)
            assert len(back[key]) == len(modules[key]) == z.fmt.total_bits
            for loaded, model in zip(back[key], modules[key]):
                if flow == "rf":
                    for row in z.feature_bits:
                        assert predict_forest(loaded, row) == predict_forest(model, row)
                else:
                    assert np.array_equal(
                        eval_logicnet_batch(loaded, z.feature_bits),
                        eval_logicnet_batch(model, z.feature_bits),
                    )
    capsys.readouterr()

    assert cli.main(["evaluate", aag, run["csv"], "--split", run["split"],
                     "--weights", run["weights"], *common]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cfg = pipeline.parse_config(run["cfg"])
    _, test_idx = pipeline.read_split_manifest(run["split"])
    test_data = read_dataset(run["csv"]).subset(test_idx)
    scaler = mlp.load_weights(run["weights"]).scaler
    report = analysis.evaluate(want, test_data, cfg.fmt, scaler, pipeline=flow)
    assert (header, row) == (analysis.RESULTS_HEADER, report.csv_row())

    assert cli.main(["report", aag, "--names", "f0,f1,f2,f3", "--title", flow,
                     "--out", run["out"]]) == 0
    names = [f"f{k}[{j}]" for k in range(4) for j in range(cfg.total_bits)]
    with open(os.path.join(run["out"], f"{flow}.report.txt")) as fh:
        assert fh.read() == analysis.emit_equations(got, names, title=flow).render()
    capsys.readouterr()

    assert cli.main(["sat", aag]) == 0
    witness = capsys.readouterr().out.strip()
    if witness != "unsatisfiable":
        assert simulate_aig(got, [int(c) for c in witness])[-1] == 1

    assert cli.main(["equiv", aag, aag]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"


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


def test_compile_rejects_a_nan_weight_at_its_line(tmp_path, capsys):
    csv = str(tmp_path / "data.csv")
    write_dataset(make_overlapping_gaussians(40, 5, seed=2), csv)
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
