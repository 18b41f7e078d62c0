import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn2logic import lutnet
from nn2logic.aig import lower_netlist, simulate_batch
from nn2logic.lutnet import (
    Lut,
    LutNetwork,
    eval_logicnet_batch,
    logicnet_module,
    logicnet_to_text,
    train_logicnet,
)
from nn2logic.netlist import simulate_netlist

from oracles import lut_counts_reference, lut_output_reference


def rows_to_words(rows: np.ndarray, m: int) -> list[int]:
    """Pack msb-first feature columns into the AIG's lsb-first input lanes."""
    words = []
    for k in range(rows.shape[1] // m):
        for j in range(m):
            col = rows[:, k * m + (m - 1 - j)]
            words.append(int(sum(int(b) << s for s, b in enumerate(col))))
    return words


def test_all_one_labels():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(40, 6)).astype(np.uint8)
    net = train_logicnet(x, np.ones(40, dtype=int), depth=2, width=4, lut_size=2, seed=1)
    assert eval_logicnet_batch(net, x).tolist() == [1] * len(x)


def test_xor_single_lut():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    y = (x[:, 0] ^ x[:, 1]).astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    assert net.layers[0][0].inputs == (0, 1)
    assert eval_logicnet_batch(net, x).tolist() == (x[:, 0] ^ x[:, 1]).tolist()
    table = net.layers[0][0].table
    assert list(table) == [0, 1, 1, 0]


def test_unseen_pattern_defaults_zero():
    x = np.array([[0, 0]], dtype=np.uint8)
    y = np.array([1])
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    assert eval_logicnet_batch(net, [[0, 0], [1, 1]]).tolist() == [1, 0]


def test_lut_size_too_large_rejected():
    x = np.zeros((5, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        train_logicnet(x, np.zeros(5, dtype=int), depth=1, width=4, lut_size=4, seed=0)
    with pytest.raises(ValueError):
        train_logicnet(x, np.zeros(5, dtype=int), depth=2, width=2, lut_size=3, seed=0)


@pytest.mark.parametrize(
    "depth, width, lut_size, match",
    [
        (1, 2, 0, "lut_size must be at least 1, got 0"),
        (1, 0, 2, "width must be at least 1, got 0"),
        (-1, 2, 2, "depth must be at least 0, got -1"),
    ],
    ids=["lut_size-0", "width-0", "depth-negative"],
)
def test_rejects_out_of_range_arguments(depth, width, lut_size, match):
    x = np.zeros((5, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match=match):
        train_logicnet(x, np.zeros(5, dtype=int), depth=depth, width=width, lut_size=lut_size)


def test_determinism():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, size=(60, 8)).astype(np.uint8)
    y = rng.integers(0, 2, size=60)
    a = train_logicnet(x, y, depth=3, width=6, lut_size=3, seed=5)
    b = train_logicnet(x, y, depth=3, width=6, lut_size=3, seed=5)
    assert logicnet_to_text(a) == logicnet_to_text(b)


def test_memorization_with_full_width_lut():
    rng = np.random.default_rng(3)
    x = np.unique(rng.integers(0, 2, size=(64, 4)), axis=0).astype(np.uint8)
    y = rng.integers(0, 2, size=len(x))
    net = train_logicnet(x, y, depth=1, width=1, lut_size=4, seed=0)
    acc = np.mean(eval_logicnet_batch(net, x) == y)
    assert acc == 1.0


def test_logicnet_to_text_golden():
    def lut(inputs, table):
        return Lut(inputs, np.zeros((len(table), 2), dtype=np.int64), np.array(table, np.uint8))

    net = LutNetwork(depth=2, width=2, lut_size=2, seed=9, n_features=3)
    net.layers = [
        [lut((0, 2), [0, 1, 1, 0]), lut((1, 2), [1, 0, 0, 0])],
        [lut((0, 1), [0, 0, 0, 1]), lut((0, 1), [1, 1, 1, 0])],
    ]
    net.output = lut((1,), [1, 0])
    assert logicnet_to_text(net) == (
        "logicnet 2 2 2 9 3\n"
        "lut0 0,2 0110\n"
        "lut0 1,2 1000\n"
        "lut1 0,1 0001\n"
        "lut1 0,1 1110\n"
        "out 1 10\n"
    )


def test_module_passes_bit_through():
    # a 1-deep, 1-wide identity chain over a single word bit
    x = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    y = x[:, 0].astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    module = logicnet_module([net], word_width=2)
    for row, want in zip(x, eval_logicnet_batch(net, x)):
        word = f"{row[0]}{row[1]}"
        assert simulate_netlist(module, [word]) == [str(want)]


def test_module_realizes_xor():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    y = (x[:, 0] ^ x[:, 1]).astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    module = logicnet_module([net], word_width=2)
    for row in x:
        word = f"{row[0]}{row[1]}"
        assert simulate_netlist(module, [word]) == [str(row[0] ^ row[1])]


def test_module_cross_simulation_m4():
    rng = np.random.default_rng(5)
    m, n_words = 4, 2
    x = rng.integers(0, 2, size=(80, m * n_words)).astype(np.uint8)
    nets = [
        train_logicnet(x, rng.integers(0, 2, size=80), depth=2, width=6, lut_size=3, seed=j)
        for j in range(m)
    ]
    module = logicnet_module(nets)
    g = lower_netlist(module)
    rows = np.vstack([x, rng.integers(0, 2, size=(1000, m * n_words)).astype(np.uint8)])
    out = simulate_batch(g, rows_to_words(rows, m), len(rows))
    for j, net in enumerate(nets):
        want = eval_logicnet_batch(net, rows)
        got = np.array([(out[m - 1 - j] >> s) & 1 for s in range(len(rows))])
        assert np.array_equal(got, want)


def test_output_stage_shrinks_to_pool():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3, dtype=np.uint8)
    y = (x[:, 0] & x[:, 1]).astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    assert len(net.output.inputs) == 1
    assert eval_logicnet_batch(net, x).tolist() == (x[:, 0] & x[:, 1]).tolist()


@pytest.mark.parametrize(
    "x, y, match",
    [
        ([[0, 1], [2, 0]], [0, 1], "feature value 2 at row 1, column 0"),
        ([[0, 1], [1, 0]], [0, 2], "label value 2 at row 1"),
        ([[0, 1], [1, 0]], [0, 1, 1], "row mismatch: 2 feature rows"),
    ],
    ids=["feature-2", "label-2", "row-mismatch"],
)
def test_rejects_bad_training_input(x, y, match):
    with pytest.raises(ValueError, match=match):
        train_logicnet(np.array(x), np.array(y), depth=1, width=2, lut_size=2)


def _unpack(words: np.ndarray, n: int) -> list[list[int]]:
    """Packed (W, words) LUT outputs back to n rows of W bits."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")
    return bits.T.tolist()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 127, 200]),
    depth=st.integers(0, 3),
    lut_size=st.integers(1, 8),
    spare=st.integers(0, 3),
    labels=st.sampled_from(["random", "all-0", "all-1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_tables_and_outputs_match_per_sample_oracle(
    n, depth, lut_size, spare, labels, seed
):
    rng = np.random.default_rng(seed)
    width = lut_size + spare
    x = rng.integers(0, 2, size=(n, lut_size + spare)).astype(np.uint8)
    y = {
        "random": rng.integers(0, 2, size=n),
        "all-0": np.zeros(n, dtype=int),
        "all-1": np.ones(n, dtype=int),
    }[labels]
    trained_outputs = []
    train_layer = lutnet._train_layer

    def recording(*args):
        result = train_layer(*args)
        trained_outputs.append(result[2])
        return result

    with mock.patch.object(lutnet, "_train_layer", recording):
        net = train_logicnet(x, y, depth, width, lut_size, seed=seed % 1000)

    rows = x.tolist()
    for luts, packed in zip(net.layers + [[net.output]], trained_outputs):
        for lut in luts:
            want = np.array(lut_counts_reference(rows, lut.inputs, y), dtype=np.int64)
            assert lut.counts.dtype == want.dtype and lut.counts.shape == want.shape
            assert np.array_equal(lut.counts, want)
            assert lut.table.dtype == np.uint8
            assert lut.table.tolist() == [int(c1 > c0) for c0, c1 in want.tolist()]
        outs = [lut_output_reference(rows, lut.inputs, lut.table) for lut in luts]
        rows = [list(r) for r in zip(*outs)]
        assert _unpack(packed, n) == rows
    assert eval_logicnet_batch(net, x).tolist() == [r[0] for r in rows]


# sha256 of the dumps and counters below, computed before training moved
# to packed columns; packing must not change a single count
GOLDEN_DIGEST = "e22edb27e34d3e7eb7200387b9cb070c629a3305e0feeb05434f17b583c2673b"


def test_dumps_and_counts_match_golden_digest():
    rng = np.random.default_rng(2020)
    x = rng.integers(0, 2, size=(300, 24)).astype(np.uint8)
    y = (x[:, 0] ^ (x[:, 3] & x[:, 7]) ^ (rng.random(300) < 0.1)).astype(int)
    digest = hashlib.sha256()
    for depth, width, lut_size in ((0, 1, 5), (1, 8, 3), (2, 16, 4), (3, 12, 6)):
        net = train_logicnet(x, y, depth, width, lut_size, seed=depth)
        digest.update(logicnet_to_text(net).encode())
        for lut in [l for layer in net.layers for l in layer] + [net.output]:
            digest.update(lut.counts.astype("<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_DIGEST
