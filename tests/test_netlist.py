import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nn2logic import netlist
from nn2logic.aig import lower_netlist, simulate_batch
from nn2logic.datasets import LabeledDataset, make_overlapping_gaussians
from nn2logic.fixedpoint import FixedPointFormat, from_int, quantize
from nn2logic.forest import forest_module
from nn2logic.lutnet import logicnet_module
from nn2logic.mlp import (
    DenseLayer,
    Mlp,
    extract_distillation_sets,
    quantize_layers,
    quantized_forward,
    train,
)
from nn2logic.netlist import (
    Netlist,
    build_network_direct,
    build_neuron,
    cascade_modules,
    simulate_netlist,
)
from nn2logic.pipeline import train_lgn_modules, train_rf_modules

from oracles import merge_into_reference, neuron_reference, signed

FMT = FixedPointFormat(4, 2)


def test_const_netlist():
    net = Netlist()
    net.set_output(net.add_const("1010"))
    assert simulate_netlist(net, []) == ["1010"]


def test_gate_width_rules():
    net = Netlist()
    a = net.add_input(4)
    b = net.add_input(4)
    assert net.widths[net.add_gate("NEURON", (a, b), ((-8, 7), 1000, 0, False))] == 4
    assert net.widths[net.add_gate("NEURON", (a,), ((0,), 0, 8, True))] == 4
    assert net.widths[net.add_gate("ADD", (a, b))] == 4
    assert net.widths[net.add_gate("GT", (a, b))] == 1
    c = net.add_input(2)
    with pytest.raises(ValueError):
        net.add_gate("ADD", (a, c))
    with pytest.raises(ValueError):
        net.add_gate("MUX", (a, a, b))
    for operands, weights in [((a, c), (1, 1)), ((a, b), (1,)), ((a,), (8,)), ((a,), (-9,))]:
        with pytest.raises(ValueError, match="NEURON needs words of one width m"):
            net.add_gate("NEURON", operands, (weights, 0, 0, False))
    with pytest.raises(ValueError, match="NEURON needs words of one width m"):
        net.add_gate("NEURON", (), ((), 3, 0, False))
    # at least m bits of the 3m-bit sum remain after the shift
    for shift in (-1, 9):
        with pytest.raises(ValueError, match=r"NEURON shift must be in 0\.\.2m"):
            net.add_gate("NEURON", (a,), ((1,), 0, shift, False))
    for relu in (1, None, "yes", np.bool_(True)):
        with pytest.raises(ValueError, match="NEURON relu must be a bool"):
            net.add_gate("NEURON", (a,), ((1,), 0, 2, relu))


@pytest.mark.parametrize(
    "weights, bias", [((1.0, 2), 0), ((1, 2), 0.5), ((1, 2), 64.0), ((1, "2"), 0), ((1, 2), None)]
)
def test_wsum_rejects_non_integer_params(weights, bias):
    """A NEURON's weighted sum takes integers only; so does its shift."""
    net = Netlist()
    a = net.add_input(4)
    b = net.add_input(4)
    message = "NEURON weights, bias and shift must be integers"
    with pytest.raises(ValueError, match=message):
        net.add_gate("NEURON", (a, b), (weights, bias, 0, False))
    with pytest.raises(ValueError, match=message):
        net.add_gate("NEURON", (a, b), ((1, 2), 0, 1.0, False))
    assert net.gates == []
    net.add_gate("NEURON", (a, b), ((np.int64(-8), True), np.int64(640), np.int64(2), False))


@given(
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(-8, 7),
    st.integers(-8, 7),
    st.integers(-3000, 3000),
    st.integers(0, 8),
    st.booleans(),
)
def test_arith_gates_match_integers(a, b, wa, wb, bias, shift, relu):
    net = Netlist()
    sa = net.add_input(4)
    sb = net.add_input(4)
    net.set_output(net.add_gate("NEURON", (sa, sb), ((wa, wb), bias, shift, relu)))
    for kind in ("ADD", "GT"):
        net.set_output(net.add_gate(kind, (sa, sb)))
    out = simulate_netlist(net, [a, b])
    sa_, sb_ = signed(a, 4), signed(b, 4)
    acc = signed((wa * sa_ + wb * sb_ + bias) & 0xFFF, 12)  # wrapped to 3m = 12 bits
    if relu:
        acc = max(acc, 0)
    assert signed(int(out[0], 2), 4) == max(-8, min(7, acc >> shift))
    assert int(out[1], 2) == (a + b) % 16
    assert out[2] == str(int(sa_ > sb_))


@given(st.integers(0, 255))
def test_shift_slice_clip_gates(v):
    """A NEURON's arithmetic shift, ReLU and clip on one word, and SLICE."""
    net = Netlist()
    s = net.add_input(8)
    net.set_output(net.add_gate("NEURON", (s,), ((1,), 0, 3, False)))
    net.set_output(net.add_gate("NEURON", (s,), ((1,), 0, 3, True)))
    net.set_output(net.add_gate("SLICE", (s,), (2, 5)))
    net.set_output(net.add_gate("NEURON", (s,), ((-3,), 5, 0, False)))
    net.set_output(net.add_gate("NEURON", (s,), ((1,), 0, 0, False)))
    out = simulate_netlist(net, [v])
    sv = signed(v, 8)
    assert signed(int(out[0], 2), 8) == sv >> 3
    assert int(out[1], 2) == max(sv, 0) >> 3
    assert int(out[2], 2) == (v >> 2) & 0xF
    assert signed(int(out[3], 2), 8) == max(-128, min(127, 5 - 3 * sv))
    assert out[4] == from_int(v, 8)


def test_concat_msb_first():
    net = Netlist()
    a = net.add_input(2)
    b = net.add_input(3)
    net.set_output(net.add_gate("CONCAT", (a, b)))
    assert simulate_netlist(net, ["10", "011"]) == ["10011"]


def test_mux_select():
    net = Netlist()
    s = net.add_input(1)
    a = net.add_input(4)
    b = net.add_input(4)
    net.set_output(net.add_gate("MUX", (s, a, b)))
    assert simulate_netlist(net, [1, 5, 9]) == ["0101"]
    assert simulate_netlist(net, [0, 5, 9]) == ["1001"]


def test_neuron_identity_product():
    net = build_neuron(((4,), 0, 2, True), 4)
    assert simulate_netlist(net, ["0100"]) == ["0100"]


def test_neuron_relu_kills_negative():
    net = build_neuron(((-2,), 0, 2, True), 4)
    assert simulate_netlist(net, ["0100"]) == ["0000"]


def test_neuron_zero_weights():
    net = build_neuron(((0, 0), 0, 2, True), 4)
    assert simulate_netlist(net, ["0111", "1000"]) == ["0000"]


def test_neuron_empty_weights_rejected():
    with pytest.raises(ValueError):
        build_neuron(((), 0, 2, True), 4)


def test_neuron_weight_width_mismatch():
    """A weight that needs more than the m input bits is rejected."""
    for weight in (8, -9):
        with pytest.raises(ValueError, match="one signed m-bit weight per word"):
            build_neuron(((4, weight), 0, 2, True), 4)


@given(st.data())
def test_neuron_matches_integer_oracle(data):
    n_inputs = data.draw(st.integers(1, 3))
    weights = data.draw(
        st.lists(st.integers(-8, 7), min_size=n_inputs, max_size=n_inputs)
    )
    xs = data.draw(st.lists(st.integers(-8, 7), min_size=n_inputs, max_size=n_inputs))
    bias = data.draw(st.one_of(st.none(), st.integers(-8, 7)))
    has_relu = data.draw(st.booleans())
    net = build_neuron((tuple(weights), (bias or 0) * 4, 2, has_relu), 4)  # q(1.0) = 4
    got = simulate_netlist(net, [from_int(x, 4) for x in xs])[0]
    want = neuron_reference(weights, xs, bias, has_relu, 4, 2)
    assert int(got, 2) == want


@pytest.mark.parametrize(
    "weights",
    [[-8], [0], [5], [-8, 3], [0, -1], [-8, 0, 7], [-3, -8, 2]],
    ids=lambda weights: "w=" + ",".join(map(str, weights)),
)
def test_neuron_lowering_exhaustive_m4(weights):
    """Every input of 1-3-input neurons: AIG, netlist simulation and the oracle agree."""
    n, m, i = len(weights), 4, 2
    xs = [[(v >> (m * k)) & 15 for k in range(n)] for v in range(1 << (m * n))]
    lanes = [sum(((row[k] >> j) & 1) << s for s, row in enumerate(xs))
             for k in range(n) for j in range(m)]
    for bias in (None, -8, 6):
        for has_relu in (True, False):
            net = build_neuron((tuple(weights), (bias or 0) * 4, i, has_relu), m)  # q(1.0) = 4
            out = simulate_batch(lower_netlist(net), lanes, len(xs))
            for s, row in enumerate(xs):
                want = neuron_reference(
                    weights, [signed(x, m) for x in row], bias, has_relu, m, i
                )
                got = sum(((out[j] >> s) & 1) << j for j in range(m))
                assert got == want
                assert simulate_netlist(net, row) == [from_int(want, m)]


def test_neuron_oracle_random_m8():
    rng = np.random.default_rng(0)
    fmt = FixedPointFormat(8, 4)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        weights = [int(v) for v in rng.integers(-128, 128, size=n)]
        net = build_neuron((tuple(weights), 0, 4, True), 8)
        for _ in range(20):
            xs = [int(v) for v in rng.integers(-128, 128, size=n)]
            got = simulate_netlist(net, [from_int(x, 8) for x in xs])[0]
            assert int(got, 2) == neuron_reference(weights, xs, None, True, 8, 4)


def test_direct_network_matches_quantized_forward():
    data = make_overlapping_gaussians(120, 5, seed=3)
    mlp_net = train(data, hidden_nodes=4, epochs=120, seed=0)
    fmt = FixedPointFormat(8, 6)
    circuit = build_network_direct(mlp_net, fmt)
    acts, preds = quantized_forward(mlp_net, data.features[:40], fmt)
    for x, final, pred in zip(data.features[:40], acts[-1].tolist(), preds):
        inputs = [quantize(float(v), fmt) for v in mlp_net.scale(x)]
        out = simulate_netlist(circuit, inputs)
        assert [signed(int(w, 2), 8) for w in out[:2]] == final
        assert out[2] == str(pred)


def test_cascade_preserves_module_simulation():
    fmt = FMT
    mods = [
        [
            build_neuron(((4, 2), 4, 2, True), 4),
            build_neuron(((-2, 4), 0, 2, True), 4),
        ],
        [
            build_neuron(((4, 0), 0, 2, False), 4),
            build_neuron(((0, 4), 0, 2, False), 4),
        ],
    ]
    net = cascade_modules(mods, [2, 2, 2], fmt)
    rng = np.random.default_rng(2)
    for _ in range(50):
        xs = [from_int(int(v), 4) for v in rng.integers(-8, 8, size=2)]
        hidden = [simulate_netlist(m, xs)[0] for m in mods[0]]
        final = [simulate_netlist(m, hidden)[0] for m in mods[1]]
        got = simulate_netlist(net, xs)
        assert got[:2] == final
        assert got[2] == str(int(signed(int(final[1], 2), 4) > signed(int(final[0], 2), 4)))


def test_direct_network_emits_one_neuron_gate_per_neuron():
    rng = np.random.default_rng(1)
    mlp_net = Mlp([
        DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), "relu"),
        DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2), "identity"),
    ])
    net = build_network_direct(mlp_net, FixedPointFormat(8, 6))
    assert [g.kind for g in net.gates] == ["NEURON"] * 5 + ["GT"]
    # (shift, relu): the 6 fractional bits go, and only the hidden layer has a ReLU
    assert [g.params[2:] for g in net.gates[:5]] == [(6, True)] * 3 + [(6, False)] * 2


def _seeded_module_rows(flow: str) -> list[list[Netlist]]:
    """Per-node modules of a seeded 4-3-2 MLP: direct neurons or distilled bits."""
    rng = np.random.default_rng(21)
    mlp_net = Mlp([
        DenseLayer(rng.normal(0.0, 0.8, size=(3, 4)), rng.normal(0.0, 0.3, size=3), "relu"),
        DenseLayer(rng.normal(0.0, 0.8, size=(2, 3)), rng.normal(0.0, 0.3, size=2), "identity"),
    ])
    if flow == "direct":
        return [[build_neuron(p, FMT.total_bits) for p in layer]
                for layer in quantize_layers(mlp_net, FMT)]
    data = LabeledDataset(rng.uniform(-1.0, 1.0, size=(80, 4)), rng.integers(0, 2, size=80))
    sets = extract_distillation_sets(mlp_net, data, FMT)
    if flow == "logicnet":
        models, module = train_lgn_modules(sets, 2, 6, 3, seed=4), logicnet_module
    else:
        models, module = train_rf_modules(sets, int(flow[-1]), 3, seed=4), forest_module
    return [[module(models[(l, n)], FMT.total_bits) for n in range(size)]
            for l, size in enumerate([3, 2], start=1)]


@pytest.mark.parametrize("flow", ["direct", "rf-2", "rf-3", "logicnet"])
def test_cascade_copies_gates_as_add_gate_would(flow, monkeypatch):
    rows = _seeded_module_rows(flow)
    net = cascade_modules(rows, [4, 3, 2], FMT)
    monkeypatch.setattr(netlist, "merge_into", merge_into_reference)
    want = cascade_modules(rows, [4, 3, 2], FMT)
    assert net.gates == want.gates
    assert net.widths == want.widths
    assert net.names == want.names
    assert (net.inputs, net.outputs) == (want.inputs, want.outputs)


GATE_KINDS = {"NEURON", "ADD", "GT", "MUX", "CONST", "SLICE", "CONCAT", "LUT"}


def test_builders_emit_exactly_the_documented_gate_kinds():
    """The kinds the module docstring lists are the ones the three flows emit, cascaded."""
    bullets = [line for line in netlist.__doc__.splitlines() if line.startswith("* ")]
    assert {kind for line in bullets for kind in re.findall(r"\b[A-Z]{2,}\b", line)} == GATE_KINDS
    emitted = set()
    for flow in ("direct", "rf-2", "rf-3", "logicnet"):
        net = cascade_modules(_seeded_module_rows(flow), [4, 3, 2], FMT)
        emitted |= {g.kind for g in net.gates}
    assert emitted == GATE_KINDS


def test_unknown_gate_kinds_are_rejected():
    """The kinds the NEURON gate replaced are unknown to building, simulation and lowering."""
    for kind in ("WSUM", "SHR", "CLIP"):
        net = Netlist()
        a = net.add_input(4)
        with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
            net.add_gate(kind, (a,), (2,))
        net.set_output(net._new_signal(4))
        net.gates.append(netlist.Gate(kind, (a,), net.outputs[0], (2,)))
        with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
            simulate_netlist(net, [0])
        with pytest.raises(ValueError, match=f"cannot lower gate kind '{kind}'"):
            lower_netlist(net)


def test_merge_into_rejects_a_width_mismatch():
    module = build_neuron(((4, 2), 0, 2, True), 4)
    dst = Netlist()
    words = [dst.add_input(4), dst.add_input(3)]
    with pytest.raises(ValueError, match="width mismatch binding module input 1"):
        netlist.merge_into(dst, module, dict(zip(module.inputs, words)))
