import re

import numpy as np
import pytest

from nn2logic.datasets import (
    LabeledDataset,
    make_overlapping_gaussians,
    read_dataset,
    stratified_split,
)
from nn2logic.fixedpoint import FixedPointFormat, quantize_int
from nn2logic.mlp import (
    DenseLayer,
    Mlp,
    MlpStructureError,
    WeightsParseError,
    extract_distillation_sets,
    forward_batch,
    load_weights,
    loss_and_grad,
    predict_batch,
    quantize_layers,
    quantize_to_bits,
    save_weights,
    train,
)

from oracles import (
    from_int,
    loss_and_grad_reference,
    quantize_reference,
    signed,
    train_reference,
    write_csv,
)


def identity_net(n: int) -> Mlp:
    return Mlp([DenseLayer(np.eye(n), np.zeros(n), "identity")])


def test_forward_capture_zero_net():
    net = Mlp([DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")])
    acts = forward_batch(net, [[1.0, 2.0]])
    assert len(acts) == 1
    assert np.all(acts[0] == 0.0)


def test_forward_capture_identity():
    acts = forward_batch(identity_net(3), [[1.5, -2.0, 0.25]])
    assert np.allclose(acts[-1], [[1.5, -2.0, 0.25]])


def test_forward_capture_relu_kills_negative():
    net = Mlp([DenseLayer(np.array([[1.0, -1.0]]), np.zeros(1), "relu")])
    acts = forward_batch(net, [[2.0, 3.0]])
    assert np.allclose(acts[0], [[0.0]])


def test_forward_capture_width_mismatch():
    with pytest.raises(ValueError):
        forward_batch(identity_net(3), [[1.0, 2.0]])


def test_predict_tie_breaks_low():
    net = Mlp([DenseLayer(np.zeros((2, 2)), np.zeros(2), "identity")])
    assert predict_batch(net, [[1.0, -1.0]]).tolist() == [0]


def test_structure_validation():
    with pytest.raises(MlpStructureError):
        Mlp([])
    with pytest.raises(MlpStructureError):
        Mlp(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu"),
                DenseLayer(np.zeros((1, 4)), np.zeros(1), "identity"),
            ]
        )


def test_weights_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    net = Mlp(
        [
            DenseLayer(rng.normal(size=(20, 27)), rng.normal(size=20), "relu"),
            DenseLayer(rng.normal(size=(2, 20)), rng.normal(size=2), "identity"),
        ],
        scaler=None,
    )
    path = tmp_path / "w.txt"
    save_weights(net, path)
    loaded = load_weights(path)
    x = rng.normal(size=(100, 27))
    assert np.allclose(forward_batch(net, x)[-1], forward_batch(loaded, x)[-1])
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_weights_roundtrip_with_scaler(tmp_path):
    data = make_overlapping_gaussians(60, 4, seed=3)
    net = train(data, hidden_nodes=3, epochs=20, seed=0)
    path = tmp_path / "w.txt"
    save_weights(net, path)
    loaded = load_weights(path)
    assert np.array_equal(loaded.scaler.minimum, net.scaler.minimum)
    assert np.array_equal(loaded.scaler.maximum, net.scaler.maximum)
    x = data.features[:1]
    assert np.allclose(forward_batch(net, x)[-1], forward_batch(loaded, x)[-1])


def test_load_rejects_empty_network(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("mlp 0\n")
    with pytest.raises(MlpStructureError):
        load_weights(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("mlp 1\nlayer 2 1 relu\n1.0 1.0\n")
    with pytest.raises(WeightsParseError, match=r"w\.txt:3: expected 3 values, got 2"):
        load_weights(path)


@pytest.mark.parametrize(
    "text, error, where",
    [
        ("mlp\n", WeightsParseError, "1: expected 'mlp <num_layers>'"),
        ("mlp x\n", WeightsParseError, "1: layer count is not an integer"),
        ("mlp 0\n", MlpStructureError, "1: network must declare at least one layer"),
        ("mlp 1\n", WeightsParseError, "2: expected 'layer <in> <out> <activation>', got end"),
        ("mlp 1\nlayer 2\n", WeightsParseError, "2: expected 'layer <in> <out>"),
        ("mlp 1\nlayer 2 x relu\n", WeightsParseError, "2: layer dimensions are not integers"),
        ("mlp 1\nlayer 2 1 tanh\n", WeightsParseError, "2: unknown activation 'tanh'"),
        ("mlp 1\nlayer 0 1 relu\n", MlpStructureError, "2: layer dimensions must be positive"),
        ("mlp 1\n\nlayer 2 1 relu\n1 x 0\n", WeightsParseError, "4: non-numeric weight"),
        (
            "mlp 2\nlayer 2 1 relu\n1 1 0\nlayer 3 1 identity\n1 1 1 0\n",
            MlpStructureError,
            "4: layer widths do not chain: 1 -> 3",
        ),
        ("mlp 1\nlayer 1 1 relu\n1 0\nscale 0 1\n", WeightsParseError, "4: expected 'scaler'"),
        ("mlp 1\nlayer 1 1 relu\n1 0\nscaler 0\n", WeightsParseError, "4: scaler needs"),
        ("mlp 1\nlayer 1 1 relu\n1 0\nscaler 0 y\n", WeightsParseError, "4: non-numeric"),
        ("mlp 1\nlayer 1 1 relu\n1 0\nscaler 0 1\nmore\n", WeightsParseError, "5: trailing"),
    ],
    ids=[
        "header", "layer-count", "no-layers", "end-of-file", "layer-header", "dimensions",
        "activation", "zero-width", "weight", "chain", "scaler-tag", "scaler-count",
        "scaler-value", "trailing",
    ],
)
def test_load_errors_name_path_and_line(tmp_path, text, error, where):
    path = tmp_path / "w.txt"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_weights(path)
    assert str(info.value).startswith(f"{path}:{where}")


@pytest.mark.parametrize(
    "text, line",
    [
        ("mlp 1\nlayer 2 1 identity\n1.0 nan 0.0\n", 3),
        ("mlp 1\nlayer 2 1 identity\n1.0 1.0 -inf\n", 3),
        ("mlp 1\nlayer 2 1 identity\n1.0 1.0 0.0\nscaler 0 1 0 inf\n", 4),
    ],
    ids=["nan-weight", "inf-bias", "inf-scaler"],
)
def test_load_rejects_non_finite_values_at_their_line(tmp_path, text, line):
    path = tmp_path / "w.txt"
    path.write_text(text)
    with pytest.raises(WeightsParseError, match=rf"w\.txt:{line}: non-finite"):
        load_weights(path)


def test_load_simple_sum_net(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("mlp 1\nlayer 2 1 identity\n1.0 1.0 0.0\n")
    net = load_weights(path)
    assert np.allclose(forward_batch(net, [[2.0, 3.5]])[-1], [[5.5]])


def test_train_linearly_separable():
    data = make_overlapping_gaussians(200, 2, seed=1, separation=8.0)
    net = train(data, hidden_nodes=8, epochs=300, seed=0)
    acc = float(np.mean(predict_batch(net, data.features) == data.labels))
    assert acc >= 0.95


def test_train_single_class_warns():
    data = LabeledDataset(np.random.default_rng(0).normal(size=(30, 3)), np.zeros(30))
    with pytest.warns(UserWarning):
        net = train(data, hidden_nodes=4, epochs=200, seed=0)
    assert np.all(predict_batch(net, data.features) == 0)


def test_train_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    data = LabeledDataset(np.tile(x, (10, 1)), np.tile(y, 10))
    net = train(data, hidden_nodes=20, epochs=2000, seed=0)
    assert np.array_equal(predict_batch(net, x), y)


def test_train_determinism():
    data = make_overlapping_gaussians(100, 5, seed=2)
    a = train(data, hidden_nodes=6, epochs=50, seed=9)
    b = train(data, hidden_nodes=6, epochs=50, seed=9)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_gradient_check_against_finite_differences():
    rng = np.random.default_rng(0)
    layers = [
        DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=4), "relu"),
        DenseLayer(rng.normal(size=(2, 4)), rng.normal(size=2), "identity"),
    ]
    x = rng.normal(size=(12, 3))
    y = np.eye(2)[rng.integers(0, 2, size=12)]
    _, grads = loss_and_grad(layers, x, y)
    h = 1e-5
    for li, layer in enumerate(layers):
        for arr, g in ((layer.weights, grads[li][0]), (layer.bias, grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = loss_and_grad(layers, x, y)
                arr[idx] = orig - h
                dn, _ = loss_and_grad(layers, x, y)
                arr[idx] = orig
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(g[idx]), 1e-8)
                assert abs(num - g[idx]) / denom < 1e-4


def assert_same_bytes(got: Mlp, want: Mlp) -> None:
    for a, b in zip(got.layers, want.layers, strict=True):
        assert a.weights.flags.c_contiguous and a.bias.flags.c_contiguous
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.activation == b.activation


@pytest.mark.parametrize(
    "hidden, learning_rate", [(8, 0.01), (8, 0.5), (1, 0.01)], ids=["lr0.01", "lr0.5", "one-unit"]
)
def test_train_matches_the_reference_byte_for_byte(hidden, learning_rate):
    data = make_overlapping_gaussians(300, 9, seed=1)
    got = train(data, hidden, 200, learning_rate, seed=0)
    assert_same_bytes(got, train_reference(data, hidden, 200, learning_rate, seed=0))
    if learning_rate == 0.5:  # every ReLU unit dies, so every hidden delta is masked
        assert not forward_batch(got, data.features)[0].any()


def test_train_matches_the_reference_on_a_single_class():
    data = LabeledDataset(np.random.default_rng(4).normal(size=(40, 3)), np.ones(40))
    with pytest.warns(UserWarning, match="single class"):
        got = train(data, 5, 100, 0.05, seed=3)
    with pytest.warns(UserWarning, match="single class"):
        want = train_reference(data, 5, 100, 0.05, seed=3)
    assert_same_bytes(got, want)


@pytest.mark.parametrize("seed, dead", [(0, False), (1, False), (2, False), (3, True), (4, True)])
def test_loss_and_grad_gradients_match_the_reference(seed, dead):
    """With every hidden unit dead, every hidden delta is masked to a zero."""
    rng = np.random.default_rng(seed)
    n, n_in, hidden = rng.integers(1, 40), rng.integers(1, 12), rng.integers(1, 10)
    bias = np.full(hidden, -100.0) if dead else rng.normal(size=hidden)
    layers = [
        DenseLayer(rng.normal(size=(hidden, n_in)), bias, "relu"),
        DenseLayer(rng.normal(size=(2, hidden)), rng.normal(size=2), "identity"),
    ]
    x = rng.normal(size=(n, n_in)) * 3
    y = rng.integers(0, 2, size=n)
    loss, grads = loss_and_grad(layers, x, np.eye(2)[y])
    want_loss, want = loss_and_grad_reference(layers, x, y)
    assert loss == want_loss
    for (dw, db), (want_dw, want_db) in zip(grads, want, strict=True):
        assert dw.tobytes() == want_dw.tobytes()
        assert db.tobytes() == want_db.tobytes()


@pytest.mark.parametrize(
    "hidden, epochs, learning_rate, message",
    [
        (0, 10, 0.01, "hidden_nodes must be at least 1, got 0"),
        (4, 0, 0.01, "epochs must be at least 1, got 0"),
        (4, 10, float("nan"), "learning_rate must be a finite number > 0, got nan"),
        (4, 10, float("inf"), "learning_rate must be a finite number > 0, got inf"),
        (4, 10, 0.0, "learning_rate must be a finite number > 0, got 0.0"),
    ],
    ids=["no-hidden-node", "no-epoch", "nan-rate", "inf-rate", "zero-rate"],
)
def test_train_rejects_bad_arguments(hidden, epochs, learning_rate, message):
    data = make_overlapping_gaussians(20, 2, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(data, hidden, epochs, learning_rate)


FMT = FixedPointFormat(4, 2)


def test_quantize_to_bits_matches_scalar():
    vals = np.array([[0.0, 1.0], [-0.5, 10.0]])
    bits = quantize_to_bits(vals, FMT)
    expect = [from_int(quantize_int(v, FMT), 4) for v in (0.0, 1.0, -0.5, 10.0)]
    got = "".join(str(b) for b in bits.reshape(-1))
    assert got == "".join(expect)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quantize_to_bits_rejects_non_finite_values(value):
    vals = np.array([[0.0, 1.0], [-0.5, value]])
    with pytest.raises(ValueError, match=f"non-finite value {value!r} at row 1, column 1"):
        quantize_to_bits(vals, FMT)


@pytest.mark.parametrize("m, i", [(8, 6), (4, 3), (12, 5), (64, 63)])
def test_quantize_layers_matches_reference(m, i):
    """Per neuron: the oracle's weights, q(b) * q(1.0), shift i and the layer's ReLU."""
    rng = np.random.default_rng(7)
    net = Mlp([
        DenseLayer(rng.normal(0.0, 1.5, size=(3, 4)), rng.normal(0.0, 1.0, size=3), "relu"),
        DenseLayer(rng.normal(0.0, 1.5, size=(2, 3)), rng.normal(0.0, 1.0, size=2), "identity"),
    ])

    def q(x):
        return quantize_reference(float(x), m, i)

    one = q(1.0)
    if i == m - 1:
        assert one == (1 << (m - 1)) - 1  # 1.0 saturates
    layers = quantize_layers(net, FixedPointFormat(m, i))
    assert [len(neurons) for neurons in layers] == [3, 2]
    for layer, neurons in zip(net.layers, layers):
        for row, b, (weights, bias, shift, relu) in zip(layer.weights, layer.bias, neurons):
            assert weights == tuple(q(w) for w in row)
            assert bias == q(b) * one
            assert (shift, relu) == (i, layer.activation == "relu")
            assert all(type(c) is int for c in (*weights, bias))


def _msb_first_words(bits: np.ndarray, m: int) -> list[list[int]]:
    """(n, k*m) MSB-first bit columns back to n rows of k signed words."""
    words = [[int("".join(map(str, row[k : k + m])), 2) for k in range(0, len(row), m)]
             for row in bits.tolist()]
    return [[signed(w, m) for w in row] for row in words]


@pytest.mark.parametrize("m, i", [(56, 54), (64, 62)])
def test_distillation_sets_saturate_wide_formats(m, i):
    """Out-of-range inputs and activations give quantize_int's words at wide formats."""
    fmt = FixedPointFormat(m, i)
    x = np.array([[3.0, -3.0], [1e308, -1e308], [0.5, -2.0]])
    data = LabeledDataset(x, np.array([0, 1, 0]))
    sets = extract_distillation_sets(identity_net(2), data, fmt)
    want = [[quantize_int(v, fmt) for v in row] for row in x.tolist()]
    assert want[0] == [(1 << (m - 1)) - 1, -(1 << (m - 1))]
    assert _msb_first_words(sets[0].feature_bits, m) == want
    assert _msb_first_words(np.hstack([s.label_bits for s in sets]), m) == want


def test_distillation_set_count_and_shapes():
    rng = np.random.default_rng(4)
    net = Mlp(
        [
            DenseLayer(rng.normal(size=(20, 27)), np.zeros(20), "relu"),
            DenseLayer(rng.normal(size=(2, 20)), np.zeros(2), "identity"),
        ]
    )
    data = LabeledDataset(rng.normal(size=(5, 27)), rng.integers(0, 2, size=5))
    first, last = extract_distillation_sets(net, data, FMT)
    assert (first.index, first.fmt) == (1, FMT)
    assert first.feature_bits.shape == (5, 27 * 4)
    assert first.label_bits.shape == (5, 20 * 4)
    assert last.index == 2
    assert last.feature_bits.shape == (5, 20 * 4)
    assert last.label_bits.shape == (5, 2 * 4)
    assert np.array_equal(last.feature_bits, first.label_bits)


def test_distillation_zero_net_all_zero_labels():
    net = Mlp([DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")])
    data = LabeledDataset(np.zeros((4, 2)), np.zeros(4))
    sets = extract_distillation_sets(net, data, FMT)
    for s in sets:
        assert np.all(s.label_bits == 0)


def test_distillation_single_sample():
    net = Mlp([DenseLayer(np.ones((1, 2)), np.zeros(1), "relu")])
    data = LabeledDataset(np.array([[0.5, 0.25]]), np.array([1]))
    sets = extract_distillation_sets(net, data, FMT)
    assert all(s.label_bits.shape == (1, 4) for s in sets)


def test_distillation_labels_requantize():
    """Each node's m label columns are the quantized word of its activation."""
    data = make_overlapping_gaussians(40, 6, seed=5)
    net = train(data, hidden_nodes=4, epochs=30, seed=1)
    fmt = FixedPointFormat(8, 6)
    m = fmt.total_bits
    acts = forward_batch(net, data.features)
    for s in extract_distillation_sets(net, data, fmt):
        assert s.label_bits.shape == (len(data), acts[s.index - 1].shape[1] * m)
        for row, act_row in zip(s.label_bits, acts[s.index - 1]):
            for n, act in enumerate(act_row):
                word = signed(int("".join(str(b) for b in row[n * m : (n + 1) * m]), 2), m)
                assert word == quantize_int(act, fmt)
                assert quantize_int(word / (1 << fmt.fractional_bits), fmt) == word


def test_dataset_csv_roundtrip(tmp_path):
    data = make_overlapping_gaussians(25, 3, seed=6)
    path = tmp_path / "d.csv"
    write_csv(data, path)
    back = read_dataset(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert back.feature_names == data.feature_names


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_dataset_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,b,label\n0.5,1.0,0\n0.25,{cell},1\n")
    with pytest.raises(ValueError, match=rf"d\.csv:3: non-finite value in column 'b'"):
        read_dataset(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("a,b,label\n0.5,1.0,0\n0.25,0.5,-1\n", r"d\.csv:3: label -1 is not 0 or 1"),
        ("a,b,label\n0.5,1.0,2\n0.25,0.5,1\n", r"d\.csv:2: label 2 is not 0 or 1"),
        ("a,a,label\n0.5,1.0,0\n0.25,0.5,1\n", r"d\.csv:1: column name 'a' is repeated"),
        ("label\n0\n1\n", r"d\.csv:1: no feature column before the label column"),
    ],
    ids=["negative-label", "label-two", "repeated-name", "no-feature-column"],
)
def test_read_dataset_rejects_bad_labels_and_names_at_their_line(tmp_path, text, match):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_dataset(path)


@pytest.mark.parametrize(
    "labels, match",
    [([0, 1, 0.5, 1], "label 0.5 at row 2"), ([0, -1, 0, -1], "label -1 at row 1"),
     ([1, 0, 1, 2], "label 2 at row 3")],
    ids=["half", "negative", "two"],
)
def test_dataset_built_in_code_rejects_labels_other_than_0_and_1(labels, match):
    x = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(ValueError, match=f"{match} is not 0 or 1"):
        train(LabeledDataset(x, np.array(labels)), 4, 20, 0.01, 0)


def test_train_rejects_a_dataset_with_no_feature_columns():
    data = LabeledDataset(np.zeros((4, 0)), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="cannot train on a dataset with no feature columns"):
        train(data, 4, 20, 0.01, 0)


def test_stratified_split_deterministic_and_disjoint():
    data = make_overlapping_gaussians(100, 3, seed=7)
    tr1, te1 = stratified_split(data, 0.2, seed=11)
    tr2, te2 = stratified_split(data, 0.2, seed=11)
    assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
    assert len(set(tr1) & set(te1)) == 0
    assert len(tr1) + len(te1) == 100
    labels = data.labels[te1]
    assert abs(labels.mean() - 0.5) < 0.2


def test_from_int_helper():
    assert from_int(-2, 4) == "1110"
    assert from_int(4, 4) == "0100"
