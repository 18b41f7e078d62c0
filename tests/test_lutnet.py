import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn2logic import lutnet
from nn2logic.aig import lower_netlist, simulate_batch
from nn2logic.datasets import sorted_choices
from nn2logic.lutnet import (
    LutNetwork,
    eval_logicnet_batch,
    logicnet_module,
    logicnet_to_text,
    lut_layer,
    train_logicnets,
)
from nn2logic.netlist import Netlist

from oracles import (
    live_cone_reference,
    logicnet_lut_gates_reference,
    lut_counts_reference,
    lut_output_reference,
    module_netlist,
    simulate_netlist,
)


def train_logicnet(x, y, depth: int, width: int, lut_size: int, seed: int = 0) -> LutNetwork:
    """The LUT network of one label vector ``y``."""
    (net,) = train_logicnets(x, np.asarray(y)[:, None], [seed], depth, width, lut_size)
    return net


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
    assert net.layers[0][0].inputs.tolist() == [0, 1]
    assert eval_logicnet_batch(net, x).tolist() == (x[:, 0] ^ x[:, 1]).tolist()
    assert net.layers[0][0].table.tolist() == [0, 1, 1, 0]


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
    layers = [
        lut_layer([(0, 2), (1, 2)], [[0, 1, 1, 0], [1, 0, 0, 0]]),
        lut_layer([(0, 1), (0, 1)], [[0, 0, 0, 1], [1, 1, 1, 0]]),
    ]
    output = lut_layer([(1,)], [[1, 0]])[0]
    net = LutNetwork(depth=2, width=2, lut_size=2, seed=9, n_features=3, layers=layers, output=output)
    assert logicnet_to_text(net) == (
        "logicnet 2 2 2 9 3\n"
        "lut0 0,2 0110\n"
        "lut0 1,2 1000\n"
        "lut1 0,1 0001\n"
        "lut1 0,1 1110\n"
        "out 1 10\n"
    )


def test_layers_read_as_per_lut_vectors():
    """Row j of a layer reads as one LUT, as code that walks LUTs one by one expects."""
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(90, 7)).astype(np.uint8)
    net = train_logicnet(x, rng.integers(0, 2, size=90), depth=2, width=5, lut_size=3, seed=2)
    for luts in net.layers:
        assert luts.inputs.shape == (5, 3) and luts.table.shape == (5, 8)
        for j, lut in enumerate(luts):
            assert lut.inputs.dtype == np.int64 and lut.inputs.shape == (3,)
            assert lut.table.dtype == np.uint8 and lut.table.shape == (8,)
            assert luts[j].inputs.tolist() == luts.inputs[j].tolist()
            assert luts[j].table.tolist() == luts.table[j].tolist()
    assert net.output.inputs.shape == (3,) and net.output.table.shape == (8,)
    assert net.output.table.dtype == np.uint8


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(0, 3),
    width=st.integers(1, 6),
    lut_size=st.integers(1, 4),
    n_features=st.integers(4, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_live_cone_matches_set_walk(depth, width, lut_size, n_features, seed):
    """The array cone picks the LUTs the set walk picks, in ascending order."""
    rng = np.random.default_rng(seed)
    layers, pool = [], n_features
    for _ in range(depth):
        wiring = [np.sort(rng.choice(pool, size=min(lut_size, pool), replace=False))
                  for _ in range(width)]
        layers.append(lut_layer(wiring, np.zeros((width, 1 << len(wiring[0])), np.uint8)))
        pool = width
    k = min(lut_size, pool)
    output = lut_layer([np.sort(rng.choice(pool, size=k, replace=False))], [[0] * (1 << k)])[0]
    net = LutNetwork(depth, width, lut_size, seed, n_features, layers, output)
    got = [live.tolist() for live in lutnet._live_cone(net)]
    assert got == [sorted(live) for live in live_cone_reference(net)]


def test_module_passes_bit_through():
    # a 1-deep, 1-wide identity chain over a single word bit
    x = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    y = x[:, 0].astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    module = module_netlist(logicnet_module([net], word_width=2), 1, 2)
    for row, want in zip(x, eval_logicnet_batch(net, x)):
        word = f"{row[0]}{row[1]}"
        assert simulate_netlist(module, [word]) == [str(want)]


def test_module_realizes_xor():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    y = (x[:, 0] ^ x[:, 1]).astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    module = module_netlist(logicnet_module([net], word_width=2), 1, 2)
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
    module = module_netlist(logicnet_module(nets, m), n_words, m)
    g = lower_netlist(module)
    rows = np.vstack([x, rng.integers(0, 2, size=(1000, m * n_words)).astype(np.uint8)])
    out = simulate_batch(g, rows_to_words(rows, m), len(rows))
    for j, net in enumerate(nets):
        want = eval_logicnet_batch(net, rows)
        got = np.array([(out[m - 1 - j] >> s) & 1 for s in range(len(rows))])
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    lut_size=st.integers(1, 8),
    depth=st.integers(0, 2),
    spare=st.integers(0, 2),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_module_luts_match_per_record_walk(lut_size, depth, spare, m, seed):
    """Each LUT gate's code, operands and signal equal the per-record walk's, K = 1..8."""
    rng = np.random.default_rng(seed)
    n_words = -(-lut_size // m)
    n_features, width = n_words * m, lut_size + spare
    nets = []
    for _ in range(m):
        layers, pool = [], n_features
        for _ in range(depth):
            tables = rng.integers(0, 2, size=(width, 1 << lut_size), dtype=np.uint8)
            layers.append(lut_layer(sorted_choices(rng, pool, lut_size, width), tables))
            pool = width
        k = min(lut_size, pool)
        tables = rng.integers(0, 2, size=(1, 1 << k), dtype=np.uint8)
        output = lut_layer(sorted_choices(rng, pool, k, 1), tables)[0]
        nets.append(LutNetwork(depth, width, lut_size, seed, n_features, layers, output))
    net = Netlist()
    words = [net.add_input(m) for _ in range(n_words)]
    feature_sids = [net.bit(word, m - 1 - j) for word in words for j in range(m)]
    want, next_sid = [], len(net.widths)
    for lgn in nets:
        gates, next_sid = logicnet_lut_gates_reference(lgn, feature_sids, next_sid)
        want += gates
    logicnet_module(nets, m)(net, words)
    assert [(g.operands, g.params) for g in net.gates if g.kind == "LUT"] == want


def test_output_stage_shrinks_to_pool():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3, dtype=np.uint8)
    y = (x[:, 0] & x[:, 1]).astype(int)
    net = train_logicnet(x, y, depth=1, width=1, lut_size=2, seed=0)
    assert len(net.output.inputs) == 1
    assert eval_logicnet_batch(net, x).tolist() == (x[:, 0] & x[:, 1]).tolist()


@pytest.mark.parametrize(
    "x, y, seeds, match",
    [
        ([[0, 1], [2, 0]], [[0], [1]], [0], "feature value 2 at row 1, column 0"),
        ([[0, 1], [1, 0]], [[0], [2]], [0], "label value 2 at row 1, column 0"),
        ([[0, 1], [1, 0]], [[0], [1], [1]], [0], "row mismatch: 2 feature rows"),
        ([[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 3]], [0, 1, 2], "label value 3 at row 1, column 2"),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]], [0], "2 label columns need as many seeds, got 1"),
    ],
    ids=["feature-2", "label-2", "row-mismatch", "later-label-3", "seeds-short"],
)
def test_rejects_bad_training_input(x, y, seeds, match):
    with pytest.raises(ValueError, match=match):
        train_logicnets(np.array(x), np.array(y), seeds, depth=1, width=2, lut_size=2)


def test_layer_networks_match_per_column_training():
    """Each column's network equals the one trained on that column alone."""
    rng = np.random.default_rng(21)
    x = rng.integers(0, 2, size=(130, 10)).astype(np.uint8)
    y = np.stack([x[:, 0] ^ x[:, 4], np.zeros(130, dtype=np.uint8), rng.integers(0, 2, 130)],
                 axis=1)
    seeds = [7, 8, 9]
    nets = train_logicnets(x, y, seeds, depth=2, width=6, lut_size=3)
    for j, net in enumerate(nets):
        alone = train_logicnet(x, y[:, j], depth=2, width=6, lut_size=3, seed=seeds[j])
        assert logicnet_to_text(net) == logicnet_to_text(alone)


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
def test_tables_and_outputs_match_per_sample_oracle(
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
        trained_outputs.append(result[1])
        return result

    with mock.patch.object(lutnet, "_train_layer", recording):
        net = train_logicnet(x, y, depth, width, lut_size, seed=seed % 1000)

    rows = x.tolist()
    for luts, packed in zip(net.layers + [[net.output]], trained_outputs):
        for lut in luts:
            counts = lut_counts_reference(rows, lut.inputs, y)
            assert lut.table.dtype == np.uint8
            assert lut.table.tolist() == [int(c1 > c0) for c0, c1 in counts]
        outs = [lut_output_reference(rows, lut.inputs, lut.table) for lut in luts]
        rows = [list(r) for r in zip(*outs)]
        assert _unpack(packed, n) == rows
        # no output column holds a padding bit past sample n - 1
        assert not np.unpackbits(packed.view(np.uint8), axis=-1, bitorder="little")[:, n:].any()
    assert eval_logicnet_batch(net, x).tolist() == [r[0] for r in rows]


# sha256 of the dumps below, taken with the trainer that still kept each
# LUT's per-pattern counters; dropping them must not change a single wiring
# or table bit
GOLDEN_DIGEST = "77e8d1991592310c37bf8257602b05ad12442636c00dd0bd6ca98d2daa7bba21"


def test_dumps_match_golden_digest():
    rng = np.random.default_rng(2020)
    x = rng.integers(0, 2, size=(300, 24)).astype(np.uint8)
    y = (x[:, 0] ^ (x[:, 3] & x[:, 7]) ^ (rng.random(300) < 0.1)).astype(int)
    digest = hashlib.sha256()
    for depth, width, lut_size in ((0, 1, 5), (1, 8, 3), (2, 16, 4), (3, 12, 6)):
        net = train_logicnet(x, y, depth, width, lut_size, seed=depth)
        digest.update(logicnet_to_text(net).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
