import dataclasses
import hashlib

import numpy as np
import pytest

from nn2logic import pipeline
from nn2logic.datasets import LabeledDataset
from nn2logic.fixedpoint import FixedPointFormat
from nn2logic.forest import forest_to_text
from nn2logic.mlp import DenseLayer, Mlp, extract_distillation_sets

from oracles import forest_reference


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_file_and_overrides(tmp_path):
    path = _write(tmp_path, "run.cfg", "# tiny run\nepochs=7\n\nlearning_rate=0.5  # fast\n")
    cfg = pipeline.parse_config(path, {"pipeline": "rf", "seed": None})
    assert (cfg.epochs, cfg.learning_rate, cfg.pipeline, cfg.seed) == (7, 0.5, "rf", 0)


def test_config_line_without_equals(tmp_path):
    path = _write(tmp_path, "run.cfg", "epochs=3\nhidden_nodes\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: expected key=value"):
        pipeline.parse_config(path)


def test_config_non_integer_value_names_line_and_key(tmp_path):
    path = _write(tmp_path, "run.cfg", "seed=1\nepochs=abc\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: epochs: expected int, got 'abc'"):
        pipeline.parse_config(path)


def test_config_unknown_key_names_line(tmp_path):
    path = _write(tmp_path, "run.cfg", "epoch=3\n")
    with pytest.raises(ValueError, match=r"run\.cfg:1: unknown config key 'epoch'"):
        pipeline.parse_config(path)


def test_config_unknown_pipeline_names_line(tmp_path):
    path = _write(tmp_path, "run.cfg", "seed=2\n\npipeline=rff\n")
    with pytest.raises(ValueError, match=r"run\.cfg:3: pipeline: expected one of direct, rf, "
                                         r"logicnet, got 'rff'$"):
        pipeline.parse_config(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("seed=-1\n", r"run\.cfg:1: seed: expected an integer >= 0, got -1$"),
        ("seed=1\nsplit_seed=-2\n", r"run\.cfg:2: split_seed: expected an integer >= 0, got -2$"),
        ("hidden_nodes=5\nepochs=-3\n", r"run\.cfg:2: epochs: expected an integer >= 1, got -3$"),
        ("hidden_nodes=0\n", r"run\.cfg:1: hidden_nodes: expected an integer >= 1, got 0$"),
        ("learning_rate=nan\n", r"run\.cfg:1: learning_rate: expected a finite number > 0, "
                                r"got nan$"),
        ("learning_rate=inf\n", r"run\.cfg:1: learning_rate: .* got inf$"),
        ("learning_rate=0\n", r"run\.cfg:1: learning_rate: .* got 0\.0$"),
        ("test_fraction=0\n", r"run\.cfg:1: test_fraction: expected a number strictly between 0 "
                              r"and 1, got 0\.0$"),
        ("test_fraction=1.5\n", r"run\.cfg:1: test_fraction: .* got 1\.5$"),
        ("total_bits=0\n", r"run\.cfg:1: total_bits: expected an integer in 1\.\.64, got 0$"),
        ("total_bits=65\n", r"run\.cfg:1: total_bits: expected an integer in 1\.\.64, got 65$"),
        ("total_bits=4\n", r"run\.cfg:1: fractional_bits: expected an integer in 0\.\.3 for 4 "
                           r"total bits, got 6$"),
        ("seed=8\ntotal_bits=16\nfractional_bits=-1\n",
         r"run\.cfg:3: fractional_bits: expected an integer in 0\.\.15 for 16 total bits, got -1$"),
        ("rf_estimators=0\n", r"run\.cfg:1: rf_estimators: expected an integer >= 1, got 0$"),
        ("rf_max_depth=-1\n", r"run\.cfg:1: rf_max_depth: expected an integer >= 0, got -1$"),
        ("lgn_depth=-1\n", r"run\.cfg:1: lgn_depth: expected an integer >= 0, got -1$"),
        ("lgn_width=0\n", r"run\.cfg:1: lgn_width: expected an integer >= 1, got 0$"),
        ("lgn_lut_size=0\n", r"run\.cfg:1: lgn_lut_size: expected an integer >= 1, got 0$"),
    ],
    ids=["seed", "split-seed", "epochs", "hidden-nodes", "nan-rate", "inf-rate", "zero-rate",
         "no-test-rows", "fraction-above-1", "no-bits", "65-bits", "default-frac-too-wide",
         "negative-frac", "no-estimators", "negative-max-depth", "negative-lgn-depth",
         "no-lgn-width", "no-lut-inputs"],
)
def test_config_value_out_of_range_names_line_and_key(tmp_path, text, match):
    path = _write(tmp_path, "run.cfg", text)
    with pytest.raises(ValueError, match=match):
        pipeline.parse_config(path)


def test_config_key_set_twice_names_both_lines(tmp_path):
    path = _write(tmp_path, "run.cfg", "rf_max_depth=2\nseed=1\nrf_max_depth=3\n")
    with pytest.raises(ValueError, match=r"run\.cfg:3: rf_max_depth: already set on line 1$"):
        pipeline.parse_config(path)
    # a flag still overrides the file's one value
    path = _write(tmp_path, "one.cfg", "rf_max_depth=2\n")
    assert pipeline.parse_config(path, {"rf_max_depth": "3"}).rf_max_depth == 3


def test_config_accepts_the_edge_values(tmp_path):
    text = ("seed=0\nepochs=1\nhidden_nodes=1\ntest_fraction=0.01\ntotal_bits=1\n"
            "fractional_bits=0\nrf_max_depth=0\nlgn_depth=0\nlearning_rate=1e-9\n")
    cfg = pipeline.parse_config(_write(tmp_path, "run.cfg", text))
    assert (cfg.fmt.total_bits, cfg.fmt.fractional_bits, cfg.lgn_depth) == (1, 0, 0)


def test_flag_values_name_the_key():
    with pytest.raises(ValueError, match=r"^epochs: expected int, got 'abc'$"):
        pipeline.parse_config(None, {"epochs": "abc"})
    with pytest.raises(ValueError, match=r"^pipeline: expected one of direct, rf, logicnet, "
                                         r"got 'rff'$"):
        pipeline.parse_config(None, {"pipeline": "rff"})


def test_grid_points_order_and_labels(tmp_path):
    path = _write(
        tmp_path,
        "g.grid",
        "pipelines=logicnet,rf,direct\nrf_estimators=2,3\nrf_max_depth=4\n"
        "lgn_depth=1\nlgn_width=8,16\nlgn_lut_size=2\n",
    )
    assert pipeline.parse_grid(path, pipeline.PipelineConfig()).points() == [
        ("direct", {}),
        ("rf", {"estimators": 2, "max_depth": 4}),
        ("rf", {"estimators": 3, "max_depth": 4}),
        ("logicnet", {"depth": 1, "width": 8, "lut_size": 2}),
        ("logicnet", {"depth": 1, "width": 16, "lut_size": 2}),
    ]


def test_grid_axes_left_out_take_the_config_value(tmp_path):
    cfg = pipeline.PipelineConfig(rf_estimators=7, rf_max_depth=3, lgn_depth=1, lgn_lut_size=2)
    path = _write(tmp_path, "g.grid", "pipelines=rf,logicnet\nrf_estimators=2,3\nlgn_width=8\n")
    assert pipeline.parse_grid(path, cfg).points() == [
        ("rf", {"estimators": 2, "max_depth": 3}),
        ("rf", {"estimators": 3, "max_depth": 3}),
        ("logicnet", {"depth": 1, "width": 8, "lut_size": 2}),
    ]
    # a grid without a pipelines key still runs every pipeline
    path = _write(tmp_path, "e.grid", "rf_estimators=2\n")
    assert pipeline.parse_grid(path, cfg).points() == [
        ("direct", {}),
        ("rf", {"estimators": 2, "max_depth": 3}),
        ("logicnet", {"depth": 1, "width": 50, "lut_size": 2}),
    ]


def test_grid_without_a_file_runs_each_pipeline_once_at_the_config_values():
    cfg = pipeline.PipelineConfig(rf_estimators=7, rf_max_depth=3, lgn_depth=1, lgn_lut_size=2)
    assert pipeline.parse_grid(None, cfg).points() == [
        ("direct", {}),
        ("rf", {"estimators": 7, "max_depth": 3}),
        ("logicnet", {"depth": 1, "width": 50, "lut_size": 2}),
    ]


def test_grid_key_set_twice_names_both_lines(tmp_path):
    path = _write(tmp_path, "g.grid", "rf_estimators=1\nrf_estimators=2\n")
    with pytest.raises(ValueError, match=r"g\.grid:2: rf_estimators: already set on line 1$"):
        pipeline.parse_grid(path, pipeline.PipelineConfig())


def test_grid_unknown_pipeline_names_line(tmp_path):
    path = _write(tmp_path, "g.grid", "rf_estimators=2\npipelines=direct,rff\n")
    with pytest.raises(ValueError, match=r"g\.grid:2: pipelines: expected one of direct, rf, "
                                         r"logicnet, got 'rff'$"):
        pipeline.parse_grid(path, pipeline.PipelineConfig())


def test_grid_non_integer_value_names_line_and_key(tmp_path):
    path = _write(tmp_path, "g.grid", "rf_estimators=2,x\n")
    with pytest.raises(ValueError, match=r"g\.grid:1: rf_estimators: expected int, got 'x'"):
        pipeline.parse_grid(path, pipeline.PipelineConfig())


def test_grid_unknown_key_names_line(tmp_path):
    path = _write(tmp_path, "g.grid", "pipelines=direct\npoints=1\n")
    with pytest.raises(ValueError, match=r"g\.grid:2: unknown grid key 'points'"):
        pipeline.parse_grid(path, pipeline.PipelineConfig())


@pytest.mark.parametrize(
    "text, match",
    [
        ("rf_estimators=2,0\n", r"g\.grid:1: rf_estimators: expected an integer >= 1, got 0$"),
        ("pipelines=rf\nrf_max_depth=5,-1\n",
         r"g\.grid:2: rf_max_depth: expected an integer >= 0, got -1$"),
        ("lgn_depth=-2\n", r"g\.grid:1: lgn_depth: expected an integer >= 0, got -2$"),
        ("lgn_width=0,50\n", r"g\.grid:1: lgn_width: expected an integer >= 1, got 0$"),
        ("lgn_lut_size=4,-4\n", r"g\.grid:1: lgn_lut_size: expected an integer >= 1, got -4$"),
        # an axis with no values would drop its pipeline's points, or every point
        ("rf_estimators=\n", r"g\.grid:1: rf_estimators: expected at least one value$"),
        ("pipelines=rf\nlgn_width= , \n", r"g\.grid:2: lgn_width: expected at least one value$"),
        ("pipelines=\n", r"g\.grid:1: pipelines: expected at least one value$"),
    ],
    ids=["no-estimators", "negative-max-depth", "negative-lgn-depth", "no-lgn-width",
         "negative-lut-size", "empty-estimators", "blank-widths", "empty-pipelines"],
)
def test_grid_value_out_of_range_names_line_and_key(tmp_path, text, match):
    path = _write(tmp_path, "g.grid", text)
    with pytest.raises(ValueError, match=match):
        pipeline.parse_grid(path, pipeline.PipelineConfig())


def test_worker_count_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("NN2LOGIC_THREADS", "two")
    with pytest.raises(ValueError, match=r"NN2LOGIC_THREADS: expected int, got 'two'"):
        pipeline.worker_count()
    monkeypatch.setenv("NN2LOGIC_THREADS", "0")
    assert pipeline.worker_count() == 1


def test_split_manifest_round_trip(tmp_path):
    path = str(tmp_path / "split.txt")
    pipeline.write_split_manifest(path, np.array([0, 2, 3]), np.array([1, 4]))
    train, test = pipeline.read_split_manifest(path, 5)
    assert train.tolist() == [0, 2, 3] and test.tolist() == [1, 4]


@pytest.mark.parametrize(
    "text, match",
    [
        ("train 0 1 2 -1\ntest 3\n", r"m\.txt:1: train: row -1 is not in 0\.\.9$"),
        ("train 0 1\ntest 2 10\n", r"m\.txt:2: test: row 10 is not in 0\.\.9$"),
        ("train 0 1 2\ntest 3 2\n", r"m\.txt:2: row 2 is already listed on line 1$"),
        ("train 0 1 1\ntest 3\n", r"m\.txt:1: row 1 is already listed on line 1$"),
        ("train 0 1.5\ntest 3\n", r"m\.txt:1: train: expected int, got '1\.5'$"),
        ("train 0 1\n\ntest 3\n", r"m\.txt:2: expected one 'train' and one 'test' line, got ''$"),
        ("train 0\ntrain 1\ntest 3\n", r"m\.txt:2: expected one 'train' and one 'test' line"),
        ("train 0 1\n", r"m\.txt: manifest needs 'train' and 'test' lines$"),
        ("train\ntest 3\n", r"m\.txt:1: train: expected at least one row$"),
        ("train 0 1\ntest  \n", r"m\.txt:2: test: expected at least one row$"),
    ],
    ids=["negative", "out-of-range", "in-train-and-test", "repeated", "non-integer", "blank-line",
         "second-train-line", "no-test-line", "no-train-rows", "no-test-rows"],
)
def test_split_manifest_rejects_bad_rows_at_their_line(tmp_path, text, match):
    path = _write(tmp_path, "m.txt", text)
    with pytest.raises(ValueError, match=match):
        pipeline.read_split_manifest(path, 10)


def _seeded_net_and_sets():
    """A seeded 4-3-2 MLP and its distillation sets at (4, 2): 3 + 2 nodes of 4 bits."""
    rng = np.random.default_rng(6)
    net = Mlp([
        DenseLayer(rng.normal(0.0, 0.8, size=(3, 4)), rng.normal(0.0, 0.3, size=3), "relu"),
        DenseLayer(rng.normal(0.0, 0.8, size=(2, 3)), rng.normal(0.0, 0.3, size=2), "identity"),
    ])
    data = LabeledDataset(rng.uniform(-1.0, 1.0, size=(70, 4)), rng.integers(0, 2, size=70))
    return net, extract_distillation_sets(net, data, FixedPointFormat(4, 2))


def test_compile_pipeline_lowers_direct_without_sets_or_models():
    rng = np.random.default_rng(3)
    net = Mlp([
        DenseLayer(rng.normal(0.0, 0.8, size=(3, 2)), rng.normal(0.0, 0.3, size=3), "relu"),
        DenseLayer(rng.normal(0.0, 0.8, size=(2, 3)), rng.normal(0.0, 0.3, size=2), "identity"),
    ])
    fmt = FixedPointFormat(4, 2)
    want = pipeline.compile_direct(net, fmt, ["a", "b"])
    got, models = pipeline.compile_pipeline("direct", net, None, fmt, {}, 0, ["a", "b"])
    assert models is None
    assert (got.fanin0, got.fanin1, got.outputs, got.input_names, got.output_names) == (
        want.fanin0, want.fanin1, want.outputs, want.input_names, want.output_names
    )


def test_distillation_layers_keep_the_per_node_bits():
    """Per layer, the features and then every node's label bits side by side in node order."""
    h = hashlib.sha256()
    _, sets = _seeded_net_and_sets()
    for z in sets:
        h.update(np.ascontiguousarray(z.feature_bits, dtype=np.uint8).tobytes())
        h.update(np.ascontiguousarray(z.label_bits, dtype=np.uint8).tobytes())
    assert h.hexdigest() == "4f9fae427132af7a57a913e4a27edad3a645bb91fe5d15eefdd61149d9b7edcb"


def test_layer_training_gives_each_bit_its_own_forest():
    """Trained a layer at a time, each (layer, node, bit) still gets its labels and seed."""
    _, sets = _seeded_net_and_sets()
    models = pipeline.train_rf_modules(sets, 2, 3, seed=9)
    keys = [(z.index, n) for z in sets for n in range(z.label_bits.shape[1] // 4)]
    assert keys == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert list(models) == keys
    for z in sets:
        for n in range(z.label_bits.shape[1] // 4):
            assert len(models[(z.index, n)]) == 4
            for j, model in enumerate(models[(z.index, n)]):
                seed = pipeline._bit_seed(9, z.index, n, j)
                want = forest_reference(z.feature_bits, z.label_bits[:, 4 * n + j], 2, 3, seed)
                assert forest_to_text(model) == forest_to_text(want)

def test_compile_pipeline_hands_each_setting_to_its_keyword(monkeypatch):
    """No code depends on the order of a distiller's parameters."""
    got = {}

    def train(sets, seed, max_depth, estimators):
        got.update(seed=seed, max_depth=max_depth, estimators=estimators)
        return pipeline.train_rf_modules(sets, estimators, max_depth, seed)

    rf = pipeline.DISTILLERS["rf"]
    monkeypatch.setitem(pipeline.DISTILLERS, "rf", dataclasses.replace(rf, train=train))
    net, sets = _seeded_net_and_sets()
    params = {"estimators": 2, "max_depth": 3}
    pipeline.compile_pipeline("rf", net, sets, FixedPointFormat(4, 2), params, 9)
    assert got == {"seed": 9, "max_depth": 3, "estimators": 2}
