import numpy as np
import pytest

from nn2logic.aig import AigGraph, lower_netlist, simulate_aig, sweep
from nn2logic.analysis import (
    RESULTS_HEADER,
    dataset_input_words,
    emit_equations,
    evaluate,
    results_table,
)
from nn2logic.datasets import LabeledDataset, make_overlapping_gaussians
from nn2logic.fixedpoint import FixedPointFormat, quantize_int
from nn2logic.mlp import quantized_forward, train
from nn2logic.netlist import build_network_direct, build_neuron

from oracles import parse_equations, signed

FMT = FixedPointFormat(8, 6)


def constant_zero_graph(n_inputs: int) -> AigGraph:
    g = AigGraph()
    for k in range(n_inputs):
        g.add_input(f"x0[{k}]")
    g.add_output(0, "argmax")
    return g


def test_evaluate_constant_circuit_balanced():
    data = LabeledDataset(
        np.zeros((10, 1)), np.array([0, 1] * 5), feature_names=["x0"]
    )
    report = evaluate(constant_zero_graph(8), data, FMT)
    assert report.accuracy == 0.5
    assert report.correct == 5 and report.total == 10


def test_evaluate_empty_dataset_rejected():
    data = LabeledDataset(np.zeros((0, 1)), np.zeros(0), feature_names=["x0"])
    with pytest.raises(ValueError):
        evaluate(constant_zero_graph(8), data, FMT)


@pytest.mark.parametrize("m, i", [(56, 54), (64, 62)])
def test_dataset_input_words_saturate_wide_formats(m, i):
    """Out-of-range features give quantize_int's words, lsb-first, at wide formats."""
    fmt = FixedPointFormat(m, i)
    x = np.array([[3.0, -3.0], [1e308, -1e308], [0.5, -2.0]])
    words, n = dataset_input_words(x, fmt)
    assert n == 3 and len(words) == 2 * m
    got = [
        [signed(sum(((words[k * m + j] >> s) & 1) << j for j in range(m)), m) for k in range(2)]
        for s in range(n)
    ]
    want = [[quantize_int(v, fmt) for v in row] for row in x.tolist()]
    assert want[0] == [(1 << (m - 1)) - 1, -(1 << (m - 1))]
    assert got == want


def test_evaluate_matches_quantized_forward():
    data = make_overlapping_gaussians(150, 5, seed=1)
    net = train(data, hidden_nodes=4, epochs=150, seed=0)
    graph = sweep(lower_netlist(build_network_direct(net, FMT)))
    report = evaluate(graph, data, FMT, scaler=net.scaler)
    _, preds = quantized_forward(net, data.features, FMT)
    assert report.accuracy == float(np.mean(preds == data.labels))
    assert report.aig_nodes > 0 and report.aig_levels > 0


def test_emit_equations_roundtrip():
    names = ["age", "bmi", "pulse", "glucose"]
    net = build_neuron(((4, -3, 2, 1), 0, 2, True), 4)  # 1.0, -0.75, 0.5, 0.25 at (4, 2)
    for sid, name in zip(net.inputs, names):
        net.names[sid] = name
    g = sweep(lower_netlist(net))
    report = emit_equations(g, title="module")
    assert report.inputs == names
    parsed = parse_equations(report.lines, [n or "" for n in g.input_names])
    assert len(parsed.outputs) == len(g.outputs)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        bits = [int(b) for b in rng.integers(0, 2, size=len(g.inputs))]
        assert simulate_aig(parsed, bits) == simulate_aig(g, bits)


def test_emit_equations_grammar():
    g = AigGraph()
    a = g.add_input("a[0]")
    b = g.add_input("a[1]")
    g.add_output(g.and2(a, b ^ 1), "out")
    report = emit_equations(g)
    assert report.lines == ["out = a[0] AND NOT a[1];"]
    text = report.render()
    assert text.startswith("Logic Report: ")
    assert "Input 0:\ta" in text


def test_results_table_layout():
    data = LabeledDataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), feature_names=["x0"])
    direct = evaluate(constant_zero_graph(8), data, FMT, pipeline="direct")
    rf = evaluate(
        constant_zero_graph(8), data, FMT, pipeline="rf", config={"estimators": 2, "max_depth": 5}
    )
    lines = results_table([direct, rf]).splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[1] == "direct,-,0,0,0.5000"
    assert lines[2] == "rf,estimators=2 max_depth=5,0,0,0.5000"
