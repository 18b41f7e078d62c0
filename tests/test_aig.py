import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nn2logic.aig import (
    AigGraph,
    _and_all,
    _shannon_orders,
    import_graph,
    lower_netlist,
    read_aiger,
    simulate_aig,
    simulate_batch,
    stats,
    sweep,
    write_aiger,
)
from nn2logic.datasets import LabeledDataset
from nn2logic.fixedpoint import FixedPointFormat
from nn2logic.mlp import DenseLayer, Mlp, extract_distillation_sets
from nn2logic.netlist import Netlist, build_network_direct, build_neuron, simulate_netlist
from nn2logic.pipeline import compile_logicnet, compile_rf

from oracles import (
    best_shannon_order_reference,
    levels_reference,
    lut_cofactor_reference,
    permute_table_reference,
    shannon_cost_reference,
    signed,
    sweep_reference,
)


def two_input_netlist(kind, width=4, params=()):
    net = Netlist()
    a = net.add_input(width, "a")
    b = net.add_input(width, "b")
    net.set_output(net.add_gate(kind, (a, b), params))
    return net


def feed(value, width):
    return [(value >> j) & 1 for j in range(width)]


def read_word(bits):
    return sum(b << j for j, b in enumerate(bits))


def test_and2_folds():
    g = AigGraph()
    x = g.add_input("x")
    assert g.and2(x, x ^ 1) == 0
    assert g.and2(x, 1) == x
    assert g.and2(x, 0) == 0
    assert g.and2(x, x) == x


def test_and2_strash_hit():
    g = AigGraph()
    x = g.add_input()
    y = g.add_input()
    first = g.and2(x, y)
    n = g.and_count()
    assert g.and2(y, x) == first
    assert g.and_count() == n


def test_stats_wire_and_tree():
    g = AigGraph()
    x = g.add_input()
    g.add_output(x)
    assert stats(g) == (0, 0)

    g2 = AigGraph()
    ins = [g2.add_input() for _ in range(4)]
    left = g2.and2(ins[0], ins[1])
    right = g2.and2(ins[2], ins[3])
    g2.add_output(g2.and2(left, right))
    assert stats(g2) == (3, 2)

    g3 = AigGraph()
    a = g3.add_input()
    b = g3.add_input()
    g3.add_output(g3.and2(a, b))
    assert stats(g3) == (1, 1)


def test_mux_lowering_exhaustive_and_small():
    net = Netlist()
    s = net.add_input(1, "s")
    a = net.add_input(1, "a")
    b = net.add_input(1, "b")
    net.set_output(net.add_gate("MUX", (s, a, b)))
    g = lower_netlist(net)
    assert g.and_count() <= 7
    for sv in (0, 1):
        for av in (0, 1):
            for bv in (0, 1):
                want = av if sv else bv
                assert simulate_aig(g, [sv, av, bv]) == [want]
    # a constant-1 child costs one AND: mux(s, 1, b) is s | b, mux(s, a, 1) is ~s | a
    for a_is_one in (True, False):
        g = AigGraph()
        s, a, b = g.add_input(), g.add_input(), g.add_input()
        g.add_output(g.mux(s, 1, b) if a_is_one else g.mux(s, a, 1))
        assert g.and_count() == 1
        for sv in (0, 1):
            for av in (0, 1):
                for bv in (0, 1):
                    want = (1 if a_is_one else av) if sv else (bv if a_is_one else 1)
                    assert simulate_aig(g, [sv, av, bv]) == [want]


NEURON_PARAMS = ((-8, 5), 37, 2, False)  # weights on a and b, bias, shift, relu


@pytest.mark.parametrize("kind", ["ADD", "NEURON", "GT"])
def test_lowering_exhaustive_width4(kind):
    net = two_input_netlist(kind, params=NEURON_PARAMS if kind == "NEURON" else ())
    g = lower_netlist(net)
    out_width = net.widths[net.outputs[0]]
    for a in range(16):
        for b in range(16):
            bits = feed(a, 4) + feed(b, 4)
            got = read_word(simulate_aig(g, bits))
            sa, sb = signed(a, 4), signed(b, 4)
            if kind == "ADD":
                want = (a + b) % 16
            elif kind == "NEURON":
                (wa, wb), bias, shift, _ = NEURON_PARAMS
                want = max(-8, min(7, (wa * sa + wb * sb + bias) >> shift)) % 16
            else:
                want = int(sa > sb)
            assert got == want, (kind, a, b)
            assert out_width == len(g.outputs)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 9])
def test_and_all_joins_n_inputs_in_log_depth(n):
    """All 2**n input rows; n level-0 bits join in ceil(log2 n) levels, not n - 1."""
    g = AigGraph()
    xs = [g.add_input() for _ in range(n)]
    g.add_output(_and_all(g, xs))
    lanes = 1 << n
    words = [sum(((s >> k) & 1) << s for s in range(lanes)) for k in range(n)]
    assert simulate_batch(g, words, lanes) == [1 << (lanes - 1)]
    assert stats(g) == (max(n - 1, 0), (n - 1).bit_length() if n else 0)


def test_clip_lowering_exhaustive():
    """A NEURON at shift 0 saturates its sum to m signed bits: every pair of 4-bit words."""
    net = two_input_netlist("NEURON", params=((7, -8), 3, 0, False))
    g = lower_netlist(net)
    for a in range(16):
        for b in range(16):
            got = read_word(simulate_aig(g, feed(a, 4) + feed(b, 4)))
            sa, sb = signed(a, 4), signed(b, 4)
            assert got == max(-8, min(7, 7 * sa - 8 * sb + 3)) & 15, (a, b)


def test_lut_gate_lowering_exhaustive():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 4):
        table = int(rng.integers(0, 1 << (1 << k)))
        net = Netlist()
        sels = [net.add_input(1) for _ in range(k)]
        net.set_output(net.add_gate("LUT", sels, (table, k)))
        g = lower_netlist(net)
        for p in range(1 << k):
            got = simulate_aig(g, feed(p, k))
            assert got == [(table >> p) & 1]


def lowered_lut(table, k, lower=None):
    """A k-input graph of one LUT: ``lower_netlist``'s, or ``lower`` of the table as given."""
    if lower is None:
        net = Netlist()
        sels = [net.add_input(1) for _ in range(k)]
        net.set_output(net.add_gate("LUT", sels, (table, k)))
        return lower_netlist(net)
    g = AigGraph()
    sels = [g.add_input() for _ in range(k)]
    g.add_output(lower(g, table, sels, {}))
    return g


def check_lut_orders(tables, k):
    """The order program against the k! brute force, and each lowered LUT on every row."""
    permuted, perm = _shannon_orders(tables, k)
    rows = [sum(((p >> j) & 1) << p for p in range(1 << k)) for j in range(k)]
    for table, new, order in zip(tables, permuted, perm.tolist()):
        top_first = tuple(reversed(order))
        assert new == permute_table_reference(table, top_first)
        cost, best = best_shannon_order_reference(table, k)
        assert shannon_cost_reference(new, k) == cost
        assert top_first == best  # the first minimum: lowest top select, then the next
        assert simulate_batch(lowered_lut(table, k), rows, 1 << k) == [table]


def test_lut_orders_all_three_input_tables():
    check_lut_orders(list(range(256)), 3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 4, 5]).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, (1 << (1 << k)) - 1), min_size=1, max_size=4, unique=True),
        )
    )
)
def test_lut_orders_match_brute_force(case):
    """Tables of up to five inputs, a few per batch, as `lower_netlist` batches them."""
    k, tables = case
    check_lut_orders(tables, k)


def test_lut_orders_shrink_random_tables_in_total():
    """Real AND counts, summed over 300 random tables of four and of five inputs.

    The cost model ignores structural-hash sharing inside a table's tree, so
    a few tables come out larger than under the fixed order; only the totals
    are bounded.
    """
    rng = np.random.default_rng(0)
    for k in (4, 5):
        tables = [int(t) for t in rng.integers(0, 1 << (1 << k), size=300)]
        ordered = sum(lowered_lut(t, k).and_count() for t in tables)
        fixed = sum(lowered_lut(t, k, lut_cofactor_reference).and_count() for t in tables)
        assert ordered < 0.8 * fixed


def test_netlist_vs_aig_on_neuron():
    rng = np.random.default_rng(1)
    for _ in range(5):
        weights = tuple(int(w) for w in rng.integers(-8, 8, size=2))
        net = build_neuron((weights, 0, 2, True), 4)
        g = lower_netlist(net)
        for a in range(16):
            for b in range(16):
                want = simulate_netlist(net, [a, b])[0]
                got = read_word(simulate_aig(g, feed(a, 4) + feed(b, 4)))
                assert got == int(want, 2)


# -- NEURON lowering against simulate_netlist and the integer formula --------


def neuron_shifts(m):
    """Shifts 0, i = m - 2 (the fractional bits of the (8, 6) format at m = 8), m and 2m.

    The shifts m and 2m bring the middle and top bits of the 3m-bit sum into
    the m-bit output.
    """
    return sorted({0, max(m - 2, 0), m, 2 * m})


def wsum_netlist(m, weights, bias):
    """One NEURON per (shift, relu) over the same inputs; they share one weighted sum."""
    net = Netlist()
    xs = [net.add_input(m, f"x{k}") for k in range(len(weights))]
    for shift in neuron_shifts(m):
        for relu in (False, True):
            net.set_output(net.add_gate("NEURON", xs, (tuple(weights), bias, shift, relu)))
    return net


def lane_words(columns, m):
    """Input words whose lane s holds the unsigned words ``columns[k][s]``."""
    words = []
    for col in columns:
        for j in range(m):
            bits = ((col >> j) & 1).astype(np.uint8)
            words.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return words


def lane_values(outs, n):
    """Unsigned output word of each of ``n`` lanes; ``outs[j]`` holds bit j."""
    size = (n + 7) // 8
    raw = np.frombuffer(b"".join(o.to_bytes(size, "little") for o in outs), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(outs), size), axis=1, bitorder="little")[:, :n]
    return (1 << np.arange(len(outs), dtype=np.int64)) @ bits.astype(np.int64)


def wsum_reference(m, weights, bias, columns):
    acc = np.full(len(columns[0]), bias, dtype=np.int64)
    for w, col in zip(weights, columns):
        acc += w * np.where(col >= 1 << (m - 1), col - (1 << m), col)
    return acc % (1 << (3 * m))


def requantize_reference(m, acc, shift, relu):
    """Straight-line ReLU, shift and saturation of the wrapped 3m-bit sums ``acc``."""
    acc = np.where(acc >= 1 << (3 * m - 1), acc - (1 << (3 * m)), acc)
    if relu:
        acc = np.maximum(acc, 0)
    return np.clip(acc >> shift, -(1 << (m - 1)), (1 << (m - 1)) - 1) % (1 << m)


def check_neuron_words(net, outs, acc, lanes):
    """Each NEURON's output words in ``outs`` against the wrapped sums ``acc``.

    ``lanes`` lists (lane number, input words) for a check of ``simulate_netlist``.
    """
    m = net.widths[net.inputs[0]]
    want = []
    for k, gate in enumerate(net.gates):
        want.append(requantize_reference(m, acc, *gate.params[2:]))
        assert outs[k * m : (k + 1) * m] == lane_words([want[-1]], m), gate.params
    for s, row in lanes:
        got = [int(w, 2) for w in simulate_netlist(net, row)]
        assert got == [int(word[s]) for word in want], (net.gates[0].params[:2], row)


def check_wsum_lanes(net, g, columns, netlist_stride=1):
    """Simulate ``g`` on the lanes ``columns``; check it and ``simulate_netlist`` on the formula."""
    m = net.widths[net.inputs[0]]
    n = len(columns[0])
    weights, bias = net.gates[0].params[:2]
    lanes = [(s, [int(col[s]) for col in columns]) for s in range(0, n, netlist_stride)]
    outs = simulate_batch(g, lane_words(columns, m), n)
    check_neuron_words(net, outs, wsum_reference(m, weights, bias, columns), lanes)


EDGE_WEIGHTS = (-128, 127, 0, 1, -1, 2, 64, -64, 85, -86)


def edge_biases(m, weights):
    """Biases that put the interval's ends on, or one past, the 3m-bit signed range."""
    half = 1 << (m - 1)
    low = sum(min(-w * half, w * (half - 1)) for w in weights)
    high = sum(max(-w * half, w * (half - 1)) for w in weights)
    top = 1 << (3 * m - 1)
    return (0, 1, -half * 64, (half - 1) * 64, top - 1 - high, -top - low, top - high)


@pytest.mark.parametrize("w", EDGE_WEIGHTS)
def test_wsum_exhaustive_one_input(w):
    values = np.arange(256, dtype=np.int64)
    for bias in edge_biases(8, [w]):
        net = wsum_netlist(8, [w], bias)
        check_wsum_lanes(net, lower_netlist(net), [values])


@pytest.mark.parametrize(
    "weights", [(-128, 127), (85, -86), (0, 1), (-1, 64), (127, 127), (-128, -128), (-64, 2)]
)
def test_wsum_exhaustive_two_inputs(weights):
    lanes = np.arange(1 << 16, dtype=np.int64)
    columns = [lanes & 255, lanes >> 8]
    for bias in edge_biases(8, weights):
        net = wsum_netlist(8, weights, bias)
        check_wsum_lanes(net, lower_netlist(net), columns, netlist_stride=251)


# edge_biases entry 2 is the lowest bias -128 * 64; entry 4 puts the interval's top on 2**23 - 1
@pytest.mark.parametrize("weights, entry", [((-128, 85, 127), 2), ((-86, 64, -1), 4)])
def test_wsum_exhaustive_three_inputs(weights, entry):
    """All 2**24 inputs, one 2**16-lane batch per value of the third input."""
    bias = edge_biases(8, weights)[entry]
    net = wsum_netlist(8, weights, bias)
    g = lower_netlist(net)
    lanes = np.arange(1 << 16, dtype=np.int64)
    low_columns = [lanes & 255, lanes >> 8]
    low_words = lane_words(low_columns, 8)
    partial = wsum_reference(8, weights[:2], bias, low_columns)
    full = (1 << (1 << 16)) - 1
    for third in range(256):
        words = low_words + [full if (third >> j) & 1 else 0 for j in range(8)]
        acc = (partial + weights[2] * signed(third, 8)) % (1 << 24)
        lanes = [(s, [s & 255, s >> 8, third]) for s in range(third, 1 << 16, 1 << 14)]
        check_neuron_words(net, simulate_batch(g, words, 1 << 16), acc, lanes)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wsum_wide_neurons_match_netlist(data):
    n = data.draw(st.integers(1, 40), label="n")
    m = data.draw(st.integers(2, 8), label="m")
    half = 1 << (m - 1)
    weights = data.draw(st.lists(st.integers(-half, half - 1), min_size=n, max_size=n))
    bias = data.draw(st.integers(-(1 << (3 * m + 2)), 1 << (3 * m + 2)), label="bias")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    columns = list(rng.integers(0, 1 << m, size=(n, 256)))
    net = wsum_netlist(m, weights, bias)
    check_wsum_lanes(net, lower_netlist(net), columns)


def test_wsum_wraps_when_interval_exceeds_3m_bits():
    # 40 * (-8) * [-8, 7] spans -2240..2560, wider than 12 signed bits
    net = wsum_netlist(4, [-8] * 40, 0)
    rng = np.random.default_rng(5)
    columns = list(rng.integers(0, 16, size=(40, 256)))
    for col in columns:
        col[:2] = (8, 7)  # lane 0 at the top of the interval, lane 1 at the bottom
    g = lower_netlist(net)
    check_wsum_lanes(net, g, columns)
    outs = simulate_batch(g, lane_words(columns, 4), 2)
    top = [k for k, gate in enumerate(net.gates) if gate.params[2] == 8]  # the sum's top 4 bits
    got = [list(lane_values(outs[4 * k : 4 * k + 4], 2)) for k in top]
    # wrapped to -1536 and 1856, then shifted by 8, without and with the ReLU
    assert got == [[-6 % 16, 7], [0, 7]]


def test_wsum_zero_weights_zero_bias_is_constant_zero():
    net = wsum_netlist(8, [0, 0, 0], 0)
    g = lower_netlist(net)
    assert g.and_count() == 0
    assert g.outputs == [0] * (8 * len(net.gates))


def seeded_direct_mlp(hidden_activation):
    """The seeded 4-3-2 MLP of the direct digests; the weights do not depend on the activation."""
    rng = np.random.default_rng(11)
    return Mlp([
        DenseLayer(rng.normal(0.0, 0.8, size=(3, 4)), rng.normal(0.0, 0.3, size=3),
                   hidden_activation),
        DenseLayer(rng.normal(0.0, 0.8, size=(2, 3)), rng.normal(0.0, 0.3, size=2), "identity"),
    ])


def check_direct_digests(mlp_net, tmp_path, and_count, unswept_digest, header, body_digest):
    """The lowered graph node for node, and the swept AIGER file up to its symbol table."""
    lowered = lower_netlist(build_network_direct(mlp_net, FixedPointFormat(8, 6)))
    assert lowered.and_count() == and_count
    unswept = repr((lowered.fanin0, lowered.fanin1, lowered.outputs)).encode()
    assert hashlib.sha256(unswept).hexdigest() == unswept_digest
    path = tmp_path / "direct.aag"
    write_aiger(sweep(lowered), path)
    lines = path.read_text().splitlines()
    assert lines[0] == header
    _, _, n_in, _, n_out, n_and = header.split()
    body = "\n".join(lines[: 1 + int(n_in) + int(n_out) + int(n_and)]) + "\n"
    assert hashlib.sha256(body.encode()).hexdigest() == body_digest


def test_direct_aiger_matches_golden_digest(tmp_path):
    """The direct flow's AIG of a seeded 4-3-2 MLP, node for node.

    The digests pin the NEURON lowering: canonical signed digit rows,
    level-ordered carry-save columns and one ripple adder; the saturation,
    whose fits test joins its bits lowest level first; the ReLU as one AND
    per bit with the saturated word's inverted sign; and the argmax GT, whose
    nonzero test does the same.  This circuit (2,744 lowered, 2,659 swept
    nodes, 91 levels) gave the same outputs on 20,000 seeded random input
    rows as the earlier chain of a weighted-sum gate, a GT and MUX ReLU on
    the 3m-bit sum, a shift and a clip (2,845 lowered, 2,788 swept nodes, 92
    levels).  That chain in turn matched the binary shift-and-add lowering
    (11,506 nodes) and the serial OR and AND chains on 120,000 rows.
    """
    check_direct_digests(
        seeded_direct_mlp("relu"), tmp_path, 2744,
        "4cb5e1eafc889ac8a4c012339065f39099f88dc77df6511c4ce54f085c60275b",
        "aag 2691 32 0 17 2659",
        "4287a55dddb1f4ee4e37c6a0097f25a081ce4e1f370a7856e388821389094792",
    )


def test_identity_network_lowers_as_the_shift_and_clip_chain(tmp_path):
    """The same MLP with no ReLU: every NEURON lowers node for node as before.

    The digests were taken from the earlier chain of a weighted-sum gate, an
    arithmetic shift and a clip; without a ReLU the NEURON lowering makes
    the same calls in the same order.
    """
    check_direct_digests(
        seeded_direct_mlp("identity"), tmp_path, 2800,
        "8a514d922d524b0548199f28e9281851314f50a178620c3853d1fcc6bd88c405",
        "aag 2747 32 0 17 2715",
        "842312d9337a05c354b366cae9c16596e1f0be1be185d889b2b88120a629a0a8",
    )


def test_rf_aiger_matches_golden_digest(tmp_path):
    """The rf flow's AIGER file for a seeded 4-3-2 MLP and data set.

    Weights and inputs are multiples of 1/64, so every activation is exact in
    floating point and the distillation sets do not depend on the BLAS.  The
    digest was computed with one signed vote word per tree and the one-AND
    MUX with a constant child; the circuit (8,388 AND nodes) gave the same
    outputs as with the two-AND MUX (8,593) on 20,000 seeded random input rows.
    """
    rng = np.random.default_rng(12)

    def dyadic(*shape):
        return rng.integers(-48, 48, size=shape) / 64

    mlp_net = Mlp([
        DenseLayer(dyadic(3, 4), dyadic(3), "relu"),
        DenseLayer(dyadic(2, 3), dyadic(2), "identity"),
    ])
    fmt = FixedPointFormat(8, 6)
    data = LabeledDataset(dyadic(120, 4), rng.integers(0, 2, size=120))
    sets = extract_distillation_sets(mlp_net, data, fmt)
    graph, _ = compile_rf(mlp_net, sets, fmt, 3, 3, seed=5)
    path = tmp_path / "rf.aag"
    write_aiger(graph, path)
    text = path.read_text()
    assert text.splitlines()[0] == "aag 8420 32 0 17 8388"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "25727e515b6e361c1c6e65b3933aff9fa23a887e8c27407befb84e5898888eea"
    )


def test_two_tree_rf_aiger_matches_golden_digest(tmp_path):
    """The rf AIGER file of the same MLP and data set with two trees per bit.

    Two-tree forests lower as threshold decision diagrams.  The circuit with
    the two-AND constant-child MUX (915 AND nodes) gave the same outputs as
    the two trees' summed vote words (4,567 nodes) on 20,000 seeded random
    input rows, and so did this one (879 nodes) with the one-AND MUX.
    """
    rng = np.random.default_rng(12)

    def dyadic(*shape):
        return rng.integers(-48, 48, size=shape) / 64

    mlp_net = Mlp([
        DenseLayer(dyadic(3, 4), dyadic(3), "relu"),
        DenseLayer(dyadic(2, 3), dyadic(2), "identity"),
    ])
    fmt = FixedPointFormat(8, 6)
    data = LabeledDataset(dyadic(120, 4), rng.integers(0, 2, size=120))
    sets = extract_distillation_sets(mlp_net, data, fmt)
    graph, _ = compile_rf(mlp_net, sets, fmt, 2, 3, seed=5)
    path = tmp_path / "rf.aag"
    write_aiger(graph, path)
    text = path.read_text()
    assert text.splitlines()[0] == "aag 911 32 0 17 879"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "70694bea53b46929dab7196f9b9e63369fbdec17987ffaf67d0de9836f92a8e7"
    )


def test_logicnet_aiger_matches_golden_digest(tmp_path):
    """The logicnet AIGER file of the same MLP and data set, K = 4.

    It pins the LUT lowering: each distinct table split in its cheapest
    order, a table and its complement sharing one cone, and the one-AND MUX
    with a constant child.  This circuit (2,123 AND nodes, 50 levels) gave
    the same outputs as the fixed-order lowering (2,816 nodes, 56 levels) on
    20,000 seeded random input rows.
    """
    rng = np.random.default_rng(12)

    def dyadic(*shape):
        return rng.integers(-48, 48, size=shape) / 64

    mlp_net = Mlp([
        DenseLayer(dyadic(3, 4), dyadic(3), "relu"),
        DenseLayer(dyadic(2, 3), dyadic(2), "identity"),
    ])
    fmt = FixedPointFormat(8, 6)
    data = LabeledDataset(dyadic(120, 4), rng.integers(0, 2, size=120))
    sets = extract_distillation_sets(mlp_net, data, fmt)
    graph, _ = compile_logicnet(mlp_net, sets, fmt, 2, 8, 4, seed=5)
    path = tmp_path / "logicnet.aag"
    write_aiger(graph, path)
    text = path.read_text()
    assert text.splitlines()[0] == "aag 2155 32 0 17 2123"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7ad6d2b55e7125620911e7123982f497e285747d0c547837a1d19f7739bc53b8"
    )


def test_strash_idempotent_double_lowering():
    net = build_neuron(((4, -2), 0, 2, True), 4)
    g = lower_netlist(net)
    before = g.num_nodes
    import_graph(g, lower_netlist(net), [node << 1 for node in g.inputs])
    assert g.num_nodes == before


def test_sweep_preserves_function_and_shrinks():
    net = two_input_netlist("NEURON", params=((-3, 7), -5, 2, True))
    g = lower_netlist(net)
    # keep only output bit 1 so the other bits' saturation and ReLU go dead
    keep = g.outputs[1]
    g.outputs, g.output_names = [keep], [g.output_names[1]]
    swept = sweep(g)
    n0, l0 = stats(g)
    n1, l1 = stats(swept)
    assert n1 <= n0 and l1 <= l0
    for a in range(16):
        for b in range(16):
            bits = feed(a, 4) + feed(b, 4)
            assert simulate_aig(g, bits) == simulate_aig(swept, bits)


def test_simulate_batch_matches_single():
    net = two_input_netlist("ADD")
    g = lower_netlist(net)
    rng = np.random.default_rng(2)
    rows = [[int(v) for v in rng.integers(0, 2, size=8)] for _ in range(100)]
    words = [sum(row[k] << s for s, row in enumerate(rows)) for k in range(8)]
    batch = simulate_batch(g, words, len(rows))
    for s, row in enumerate(rows):
        single = simulate_aig(g, row)
        assert [(w >> s) & 1 for w in batch] == single


def test_import_graph_shares_structure():
    g1 = AigGraph()
    a = g1.add_input()
    b = g1.add_input()
    g1.add_output(g1.and2(a, b))
    dst = AigGraph()
    x = dst.add_input()
    y = dst.add_input()
    first = import_graph(dst, g1, [x, y])
    n = dst.and_count()
    second = import_graph(dst, g1, [x, y])
    assert first == second
    assert dst.and_count() == n


def neuron_aiger(tmp_path):
    g = lower_netlist(build_neuron(((4, -3), 8, 2, True), 4))  # bias 2 on q(1.0) = 4
    path = tmp_path / "n.aag"
    write_aiger(g, path)
    return g, path, path.read_text().splitlines()


def test_aiger_roundtrip(tmp_path):
    g, path, _ = neuron_aiger(tmp_path)
    back = read_aiger(path)
    assert len(back.inputs) == len(g.inputs)
    assert len(back.outputs) == len(g.outputs)
    assert back.and_count() == g.and_count()
    assert back.input_names == g.input_names
    rng = np.random.default_rng(3)
    for _ in range(200):
        bits = list(rng.integers(0, 2, size=8))
        assert simulate_aig(g, bits) == simulate_aig(back, bits)


def test_aiger_rejects_latches(tmp_path):
    path = tmp_path / "bad.aag"
    path.write_text("aag 1 0 1 0 0\n2 3\n")
    with pytest.raises(ValueError):
        read_aiger(path)


def test_aiger_truncated_file_names_the_line(tmp_path):
    _, path, lines = neuron_aiger(tmp_path)
    n_and = int(lines[0].split()[5])
    cut = lines[: len(lines) - n_and // 2 - 2]  # drop the symbols and half the ANDs
    path.write_text("\n".join(cut) + "\n")
    where = rf"^{re.escape(str(path))}:{len(cut) + 1}: "
    with pytest.raises(ValueError, match=where + f"file ends after {len(cut)} lines"):
        read_aiger(path)


def test_aiger_out_of_order_ands(tmp_path):
    g, path, lines = neuron_aiger(tmp_path)
    _, _, n_in, _, n_out, n_and = lines[0].split()
    first = 1 + int(n_in) + int(n_out)
    last = first + int(n_and)
    path.write_text("\n".join(lines[:first] + lines[first:last][::-1] + lines[last:]) + "\n")
    back = read_aiger(path)
    assert back.and_count() == g.and_count()
    assert back.input_names == g.input_names
    rng = np.random.default_rng(4)
    words = [int(w) for w in rng.integers(0, 2**62, size=len(g.inputs))]
    assert simulate_batch(back, words, 62) == simulate_batch(g, words, 62)


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n", 5, "invalid literal"),
        ("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n", 5, "AND literal 7"),
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n", 5, "out of range"),
        ("aag 4 1 0 1 2\n2\n8\n6 2 8\n8 6 2\n", 5, "cycle"),
        ("aag 4 1 0 1 2\n2\n6\n6 2 8\n4 2 3\n", 4, "undefined variable 4"),
        ("aag 4 2 0 1 1\n2\n4\n8\n6 2 4\n", 4, "undefined variable 4"),
        ("aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n", 1, "inconsistent header"),
    ],
)
def test_aiger_malformed_body_names_the_line(tmp_path, body, line, message):
    path = tmp_path / "bad.aag"
    path.write_text(body)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: .*{message}"):
        read_aiger(path)


# -- per-node bookkeeping on random graphs -------------------------------------


@st.composite
def random_aigs(draw):
    """Inputs and ANDs of earlier literals or constants, in any interleaving.

    Outputs may be constants, complemented or repeated, and ANDs that no
    output reaches stay in the graph as dead nodes.
    """
    g = AigGraph()
    lits = [0]
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 3)) == 0:
            lits.append(g.add_input(f"x{len(g.inputs)}"))
        else:
            a = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
            b = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
            lits.append(g.and2(a, b))
    for k in range(draw(st.integers(0, 4))):
        g.add_output(draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1)), f"y{k}")
    return g


def check_bookkeeping(g):
    levels = levels_reference(g)
    assert list(g.levels) == levels
    assert g.and_count() == sum(1 for f in g.fanin0 if f >= 0)
    assert stats(g) == (g.and_count(), max((levels[o >> 1] for o in g.outputs), default=0))


@settings(max_examples=200, deadline=None)
@given(random_aigs())
def test_levels_and_counts_match_the_oracle(g):
    check_bookkeeping(g)


@settings(max_examples=100, deadline=None)
@given(random_aigs(), st.data())
def test_import_graph_keeps_levels(g, data):
    dst = AigGraph()
    x, y = dst.add_input(), dst.add_input()
    pool = [0, x, y, dst.and2(x, y), dst.and2(dst.and2(x, y ^ 1), x ^ 1)]
    bound = [data.draw(st.sampled_from(pool)) ^ data.draw(st.integers(0, 1)) for _ in g.inputs]
    outs = import_graph(dst, g, bound)
    check_bookkeeping(dst)
    assert len(outs) == len(g.outputs)


@settings(max_examples=200, deadline=None)
@given(random_aigs())
def test_sweep_matches_the_oracle(g):
    got, want = sweep(g), sweep_reference(g)
    assert (got.fanin0, got.fanin1, got.inputs, got.outputs) == (
        want.fanin0, want.fanin1, want.inputs, want.outputs
    )
    assert (got.input_names, got.output_names) == (want.input_names, want.output_names)
    check_bookkeeping(got)


# every example writes the same file, so sharing tmp_path is safe
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(random_aigs(), st.data())
def test_read_aiger_with_shuffled_ands_keeps_levels(tmp_path, g, data):
    path = tmp_path / "shuffled.aag"
    write_aiger(g, path)
    lines = path.read_text().splitlines()
    _, _, n_in, _, n_out, n_and = lines[0].split()
    first = 1 + int(n_in) + int(n_out)
    last = first + int(n_and)
    ands = data.draw(st.permutations(lines[first:last]))
    path.write_text("\n".join(lines[:first] + ands + lines[last:]) + "\n")
    back = read_aiger(path)
    check_bookkeeping(back)
    assert stats(back) == stats(g)
