"""Desk-scale MLP: training, weight I/O, activation capture, distillation sets.

Networks are a chain of dense layers; hidden layers use ReLU and the final
layer stays identity with the class decided by argmax, so the whole forward
pass lowers to one weighted sum per neuron (constant-weight products and
adders) and comparators.  Inputs are min-max scaled to [-1, 1] before
training and quantization so they stay inside the representable fixed-point
range; the scaler travels with the weights file.

Distillation sets come one per layer (``DistillationLayer``): the previous
layer's quantized words as bit columns in, this layer's words out, one
group of m label columns per node, so a distiller trains all of a layer's
bits over one feature matrix.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from nn2logic.fixedpoint import FixedPointFormat, quantize_array, quantize_int

ACTIVATIONS = ("relu", "identity")


class WeightsParseError(ValueError):
    """Malformed weights file; the message starts with ``path:line``."""


class MlpStructureError(ValueError):
    """Layer dimensions do not chain or the network is empty."""


@dataclass
class FeatureScaler:
    minimum: np.ndarray
    maximum: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        span = self.maximum - self.minimum
        span = np.where(span == 0, 1.0, span)
        return 2.0 * (np.asarray(x, dtype=float) - self.minimum) / span - 1.0


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise MlpStructureError("weights must be (out, in) with a bias per row")
        if self.activation not in ACTIVATIONS:
            raise MlpStructureError(f"unknown activation {self.activation!r}")


@dataclass
class Mlp:
    layers: list[DenseLayer]
    scaler: FeatureScaler | None = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise MlpStructureError("network has no layers")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise MlpStructureError(
                    f"layer widths do not chain: {prev.weights.shape[0]} -> "
                    f"{nxt.weights.shape[1]}"
                )

    @property
    def input_width(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_width] + [l.weights.shape[0] for l in self.layers]

    def scale(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.scaler.transform(x) if self.scaler is not None else x


def _activations(layers: list[DenseLayer], a: np.ndarray) -> list[np.ndarray]:
    """Each layer's output for the batch ``a`` of scaled inputs."""
    captured = []
    for layer in layers:
        a = a @ layer.weights.T
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        captured.append(a)
    return captured


def forward_batch(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer activations for a batch; entry l has shape (n, N_l)."""
    return _activations(net.layers, net.scale(np.asarray(x, dtype=float)))


def predict_batch(net: Mlp, x: np.ndarray) -> np.ndarray:
    return np.argmax(forward_batch(net, x)[-1], axis=1)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, reduced over the class columns one ufunc call per column.

    A maximum is exact however it is taken, and NumPy sums fewer than 8
    values in sequence, so these equal ``z.max(axis=1)`` and ``e.sum(axis=1)``
    bit for bit at a fraction of the cost of a reduction over a short axis.
    """
    e = z - functools.reduce(np.maximum, z.T)[:, None]
    np.exp(e, out=e)
    e /= functools.reduce(np.add, e.T)[:, None]
    return e


def loss_and_grad(layers: list[DenseLayer], x: np.ndarray, targets: np.ndarray):
    """Mean softmax cross-entropy and its gradients w.r.t. every parameter.

    ``targets`` is the (n, classes) one-hot matrix of the labels.  The
    softmax lives only inside the loss; the stored final layer remains
    identity.  Returns (loss, [(dW, db), ...]) matching ``layers``.
    """
    n = len(x)
    x = np.asarray(x, dtype=float)
    acts = [x, *_activations(layers, x)]
    probs = _softmax(acts[-1])
    loss = -np.mean(np.log(functools.reduce(np.add, (probs * targets).T) + 1e-12))
    delta = probs - targets
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for idx in range(len(layers) - 1, -1, -1):
        layer = layers[idx]
        grads.append((delta.T @ acts[idx], delta.sum(axis=0)))
        if idx > 0:
            delta = delta @ layer.weights
            if layers[idx - 1].activation == "relu":
                delta *= acts[idx] > 0
    grads.reverse()
    return loss, grads


def train(
    data,
    hidden_nodes: int = 20,
    epochs: int = 1500,
    learning_rate: float = 0.01,
    seed: int = 0,
) -> Mlp:
    """Train a 1-hidden-layer ReLU net with full-batch Adam; seeded, deterministic.

    The weights are a pure function of the arguments, bit for bit: every
    matrix product keeps its operands and their memory layouts (``a @ W.T``,
    ``delta.T @ acts``, ``delta @ W``), since BLAS rounding depends on them,
    and reductions over the class axis are elementwise calls, one per class
    column.  The four parameters are views into one flat buffer, so Adam
    updates its moments and every parameter in one pass per step.
    """
    for name, value in (("hidden_nodes", hidden_nodes), ("epochs", epochs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be a finite number > 0, got {learning_rate}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if data.features.shape[1] == 0:
        raise ValueError("cannot train on a dataset with no feature columns")
    if len(np.unique(data.labels)) < 2:
        warnings.warn("training data contains a single class", stacklevel=2)
    scaler = FeatureScaler(data.features.min(axis=0), data.features.max(axis=0))
    x = scaler.transform(data.features)
    targets = np.eye(2)[data.labels]
    n_in = x.shape[1]
    shapes = [(hidden_nodes, n_in), (hidden_nodes,), (2, hidden_nodes), (2,)]
    sizes = [math.prod(shape) for shape in shapes]
    theta = np.zeros(sum(sizes))
    w1, b1, w2, b2 = (
        chunk.reshape(shape)
        for chunk, shape in zip(np.split(theta, np.cumsum(sizes)[:-1]), shapes)
    )
    rng = np.random.default_rng(seed)
    w1[...] = rng.normal(0.0, np.sqrt(2.0 / n_in), size=w1.shape)
    w2[...] = rng.normal(0.0, np.sqrt(1.0 / hidden_nodes), size=w2.shape)
    layers = [DenseLayer(w1, b1, "relu"), DenseLayer(w2, b2, "identity")]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_state, v_state = np.zeros_like(theta), np.zeros_like(theta)
    for step in range(1, epochs + 1):
        _, grads = loss_and_grad(layers, x, targets)
        grad = np.concatenate([g.ravel() for pair in grads for g in pair])
        m_state *= beta1
        m_state += (1 - beta1) * grad
        v_state *= beta2
        v_state += (1 - beta2) * grad * grad
        m_hat = m_state / (1 - beta1**step)
        v_hat = v_state / (1 - beta2**step)
        theta -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return Mlp([DenseLayer(l.weights.copy(), l.bias.copy(), l.activation) for l in layers], scaler)


def save_weights(net: Mlp, path) -> None:
    lines = [f"mlp {len(net.layers)}"]
    for layer in net.layers:
        out, n_in = layer.weights.shape
        lines.append(f"layer {n_in} {out} {layer.activation}")
        for row, b in zip(layer.weights, layer.bias):
            lines.append(" ".join(repr(float(v)) for v in row) + " " + repr(float(b)))
    if net.scaler is not None:
        pairs = []
        for mn, mx in zip(net.scaler.minimum, net.scaler.maximum):
            pairs.append(repr(float(mn)))
            pairs.append(repr(float(mx)))
        lines.append("scaler " + " ".join(pairs))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> Mlp:
    """Read a ``save_weights`` file; every error message starts with ``path:line``."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(no, ln.strip()) for no, ln in enumerate(raw, start=1) if ln.strip()]
    pos = 0

    def take(expected: str):
        nonlocal pos
        if pos >= len(lines):
            raise WeightsParseError(f"{path}:{len(raw) + 1}: expected {expected}, got end of file")
        no, ln = lines[pos]
        pos += 1
        return no, ln.split()

    no, header = take("'mlp <num_layers>' header")
    if len(header) != 2 or header[0] != "mlp":
        raise WeightsParseError(f"{path}:{no}: expected 'mlp <num_layers>' header")
    try:
        num_layers = int(header[1])
    except ValueError:
        raise WeightsParseError(f"{path}:{no}: layer count is not an integer") from None
    if num_layers <= 0:
        raise MlpStructureError(f"{path}:{no}: network must declare at least one layer")

    layers = []
    for _ in range(num_layers):
        no, hdr = take("'layer <in> <out> <activation>'")
        if len(hdr) != 4 or hdr[0] != "layer":
            raise WeightsParseError(f"{path}:{no}: expected 'layer <in> <out> <activation>'")
        try:
            n_in, n_out = int(hdr[1]), int(hdr[2])
        except ValueError:
            raise WeightsParseError(f"{path}:{no}: layer dimensions are not integers") from None
        act = hdr[3]
        if act not in ACTIVATIONS:
            raise WeightsParseError(f"{path}:{no}: unknown activation {act!r}")
        if n_in <= 0 or n_out <= 0:
            raise MlpStructureError(f"{path}:{no}: layer dimensions must be positive")
        if layers and n_in != len(layers[-1].bias):
            raise MlpStructureError(
                f"{path}:{no}: layer widths do not chain: {len(layers[-1].bias)} -> {n_in}"
            )
        weights = np.empty((n_out, n_in))
        bias = np.empty(n_out)
        for r in range(n_out):
            no, vals = take(f"{n_in + 1} decimals")
            if len(vals) != n_in + 1:
                raise WeightsParseError(
                    f"{path}:{no}: expected {n_in + 1} values, got {len(vals)}"
                )
            try:
                weights[r] = [float(v) for v in vals[:-1]]
                bias[r] = float(vals[-1])
            except ValueError:
                raise WeightsParseError(f"{path}:{no}: non-numeric weight") from None
            if not (np.isfinite(weights[r]).all() and np.isfinite(bias[r])):
                raise WeightsParseError(f"{path}:{no}: non-finite weight")
        layers.append(DenseLayer(weights, bias, act))

    scaler = None
    if pos < len(lines):
        no, vals = take("'scaler' line")
        if vals[0] != "scaler":
            raise WeightsParseError(f"{path}:{no}: expected 'scaler' line")
        nums = vals[1:]
        if len(nums) != 2 * layers[0].weights.shape[1] or len(nums) % 2:
            raise WeightsParseError(f"{path}:{no}: scaler needs a min and max per feature")
        try:
            flat = np.array([float(v) for v in nums])
        except ValueError:
            raise WeightsParseError(f"{path}:{no}: non-numeric scaler value") from None
        if not np.isfinite(flat).all():
            raise WeightsParseError(f"{path}:{no}: non-finite scaler value")
        scaler = FeatureScaler(flat[0::2], flat[1::2])
    if pos < len(lines):
        no, _ = lines[pos]
        raise WeightsParseError(f"{path}:{no}: trailing content after network definition")
    return Mlp(layers, scaler)


def quantize_layers(net: Mlp, fmt: FixedPointFormat) -> list[list[tuple]]:
    """Each neuron's ``NEURON`` gate params ``(weights, bias, shift, relu)``, by layer.

    ``weights`` are the neuron's quantized weights, ``bias`` is its quantized
    bias times the quantized 1.0, ``shift`` drops the i extra fractional bits
    of the products, and ``relu`` is the layer's activation.  This is the one
    quantized form of the network that the circuit and the reference share.
    """
    one = quantize_int(1.0, fmt)
    layers = []
    for layer in net.layers:
        relu = layer.activation == "relu"
        rows = quantize_array(np.column_stack([layer.weights, layer.bias]), fmt).tolist()
        layers.append([(tuple(r[:-1]), r[-1] * one, fmt.fractional_bits, relu) for r in rows])
    return layers


def quantized_forward(
    net: Mlp, x, fmt: FixedPointFormat
) -> tuple[list[np.ndarray], np.ndarray]:
    """Fixed-point reference forward pass over a batch, with the circuit semantics.

    Each layer applies its ``quantize_layers`` params on signed integers:
    exact products, a 3m-bit wrapping accumulator, ReLU, arithmetic right
    shift and a saturating clip back to m bits.  Arithmetic is on Python
    ints, so it is exact for every m.  Returns ([per-layer (n, N_l) signed
    activations], (n,) predicted classes, 1 where class 1's word exceeds
    class 0's).
    """
    m = fmt.total_bits
    wrap, half = 1 << (3 * m), 1 << (3 * m - 1)
    a = quantize_array(net.scale(x), fmt).astype(object)
    per_layer = []
    for neurons in quantize_layers(net, fmt):
        weights = np.array([p[0] for p in neurons], dtype=object)
        bias = np.array([p[1] for p in neurons], dtype=object)
        acc = (a @ weights.T + bias + half) % wrap - half
        _, _, shift, relu = neurons[0]
        if relu:
            acc = np.maximum(acc, 0)
        a = np.clip(acc >> shift, fmt.min_int, fmt.max_int)
        per_layer.append(a.astype(np.int64))
    return per_layer, (per_layer[-1][:, 1] > per_layer[-1][:, 0]).astype(int)


@dataclass
class DistillationLayer:
    """One layer's distillation set: previous-layer bits in, this layer's bits out.

    ``feature_bits`` holds the m-bit words of every node of the previous
    layer in node order, most significant bit first inside each word;
    ``label_bits`` holds this layer's words the same way, so node n's label
    bits are columns n*m .. n*m + m - 1.
    """

    index: int  # 1 for the first hidden layer
    fmt: FixedPointFormat
    feature_bits: np.ndarray  # (n, N_prev * m) uint8
    label_bits: np.ndarray  # (n, N * m) uint8


def quantize_to_bits(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """(n, k) floats to (n, k*m) bit columns, most significant bit first per word."""
    m = fmt.total_bits
    words = quantize_array(values, fmt)
    n, k = words.shape
    bits = np.zeros((n, k * m), dtype=np.uint8)
    for j in range(m):  # column j is the MSB-first j-th bit of each word
        bits[:, j::m] = (words >> (m - 1 - j)) & 1
    return bits


def extract_distillation_sets(net: Mlp, data, fmt: FixedPointFormat) -> list[DistillationLayer]:
    """One distillation set per non-input layer, in layer order."""
    levels = [net.scale(data.features)] + forward_batch(net, data.features)
    level_bits = [quantize_to_bits(level, fmt) for level in levels]
    return [
        DistillationLayer(l, fmt, level_bits[l - 1], level_bits[l])
        for l in range(1, len(levels))
    ]
