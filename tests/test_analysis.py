import numpy as np
import pytest

from nn2logic.aig import AigGraph, lower_netlist, simulate_aig, sweep
from nn2logic.analysis import (
    RESULTS_HEADER,
    dataset_input_words,
    emit_equations,
    evaluate,
    evaluate_packed,
    results_table,
    unpack_lanes,
)
from nn2logic.datasets import LabeledDataset, make_overlapping_gaussians
from nn2logic.fixedpoint import FixedPointFormat, quantize_int
from nn2logic.mlp import quantized_forward, train
from nn2logic.netlist import build_network_direct, build_neuron

from oracles import module_netlist, parse_equations, signed

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


@pytest.mark.parametrize("n", [1, 7, 13, 1001])
def test_unpack_lanes_matches_the_per_row_shift(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        word = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        want = [(word >> s) & 1 for s in range(n)]
        assert unpack_lanes(word, n).tolist() == want
        # the decision word of a one-input graph is its input word
        g = AigGraph()
        g.add_output(g.add_input("x0[0]"), "argmax")
        labels = rng.integers(0, 2, size=n)
        report = evaluate_packed(g, [word], labels, n)
        assert report.correct == sum(int(w == y) for w, y in zip(want, labels.tolist()))


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
    # weights 1.0, -0.75, 0.5, 0.25 at (4, 2)
    net = module_netlist(build_neuron(((4, -3, 2, 1), 0, 2, True)), 4, 4)
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


def test_emit_equations_inlines_only_an_unshared_output_and():
    """An output AND that another AND reads, or that two outputs name, gets its own line."""
    g = AigGraph()
    a, b, c = g.add_input("a"), g.add_input("b"), g.add_input("c")
    ab = g.and2(a, b)
    ac = g.and2(a, c)
    for name, literal in [("y0", ab), ("y1", g.and2(ab, c)), ("y2", ac), ("y3", ac)]:
        g.add_output(literal, name)
    assert emit_equations(g).lines == [
        "n4 = a AND b;", "n5 = a AND c;", "y0 = n4;", "y1 = c AND n4;", "y2 = n5;", "y3 = n5;",
    ]


def test_results_table_layout():
    words, n = dataset_input_words(np.zeros((4, 1)), FMT)
    labels = np.array([0, 1, 0, 1])
    direct = evaluate_packed(constant_zero_graph(8), words, labels, n, pipeline="direct")
    rf = evaluate_packed(
        constant_zero_graph(8), words, labels, n, pipeline="rf",
        config={"estimators": 2, "max_depth": 5},
    )
    lines = results_table([direct, rf]).splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[1] == "direct,-,0,0,0.5000"
    assert lines[2] == "rf,estimators=2 max_depth=5,0,0,0.5000"
