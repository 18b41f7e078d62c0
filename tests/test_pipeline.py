import pytest

from nn2logic import pipeline


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
    with pytest.raises(ValueError, match=r"run\.cfg:3: unknown pipeline 'rff'"):
        pipeline.parse_config(path)


def test_flag_values_name_the_key():
    with pytest.raises(ValueError, match=r"^epochs: expected int, got 'abc'$"):
        pipeline.parse_config(None, {"epochs": "abc"})
    with pytest.raises(ValueError, match=r"^unknown pipeline 'rff'$"):
        pipeline.parse_config(None, {"pipeline": "rff"})


def test_grid_points_order_and_labels(tmp_path):
    path = _write(
        tmp_path,
        "g.grid",
        "pipelines=logicnet,rf,direct\nrf_estimators=2,3\nrf_max_depth=4\n"
        "lgn_depth=1\nlgn_width=8,16\nlgn_lut_size=2\n",
    )
    assert pipeline.parse_grid(path).points() == [
        ("direct", {}),
        ("rf", {"estimators": 2, "max_depth": 4}),
        ("rf", {"estimators": 3, "max_depth": 4}),
        ("logicnet", {"depth": 1, "width": 8, "lut_size": 2}),
        ("logicnet", {"depth": 1, "width": 16, "lut_size": 2}),
    ]


def test_grid_unknown_pipeline_names_line(tmp_path):
    path = _write(tmp_path, "g.grid", "rf_estimators=2\npipelines=direct,rff\n")
    with pytest.raises(ValueError, match=r"g\.grid:2: unknown pipeline 'rff'"):
        pipeline.parse_grid(path)


def test_grid_non_integer_value_names_line_and_key(tmp_path):
    path = _write(tmp_path, "g.grid", "rf_estimators=2,x\n")
    with pytest.raises(ValueError, match=r"g\.grid:1: rf_estimators: expected int, got 'x'"):
        pipeline.parse_grid(path)


def test_grid_unknown_key_names_line(tmp_path):
    path = _write(tmp_path, "g.grid", "pipelines=direct\npoints=1\n")
    with pytest.raises(ValueError, match=r"g\.grid:2: unknown grid key 'points'"):
        pipeline.parse_grid(path)


def test_worker_count_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("NN2LOGIC_THREADS", "two")
    with pytest.raises(ValueError, match=r"NN2LOGIC_THREADS: expected int, got 'two'"):
        pipeline.worker_count()
    monkeypatch.setenv("NN2LOGIC_THREADS", "0")
    assert pipeline.worker_count() == 1
