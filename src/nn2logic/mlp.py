"""Desk-scale MLP: training, weight I/O, activation capture, distillation sets.

Networks are a chain of dense layers; hidden layers use ReLU and the final
layer stays identity with the class decided by argmax, so the whole forward
pass lowers to one weighted sum per neuron (constant-weight products and
adders) and comparators.  Inputs are min-max scaled to [-1, 1] before
training and quantization so they stay inside the representable fixed-point
range; the scaler travels with the weights file.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from nn2logic.fixedpoint import FixedPointFormat, quantize_int

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
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        captured.append(a)
    return captured


def forward_batch(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer activations for a batch; entry l has shape (n, N_l)."""
    return _activations(net.layers, net.scale(np.asarray(x, dtype=float)))


def predict_batch(net: Mlp, x: np.ndarray) -> np.ndarray:
    return np.argmax(forward_batch(net, x)[-1], axis=1)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(layers: list[DenseLayer], x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and its gradients w.r.t. every parameter.

    The softmax lives only inside the loss; the stored final layer remains
    identity.  Returns (loss, [(dW, db), ...]) matching ``layers``.
    """
    n = len(x)
    x = np.asarray(x, dtype=float)
    acts = [x, *_activations(layers, x)]
    probs = _softmax(acts[-1])
    eps = 1e-12
    loss = -np.mean(np.log(probs[np.arange(n), y] + eps))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for idx in range(len(layers) - 1, -1, -1):
        layer = layers[idx]
        grads.append((delta.T @ acts[idx], delta.sum(axis=0)))
        if idx > 0:
            delta = delta @ layer.weights
            if layers[idx - 1].activation == "relu":
                delta = delta * (acts[idx] > 0)
    grads.reverse()
    return loss, grads


def train(
    data,
    hidden_nodes: int = 20,
    epochs: int = 1500,
    learning_rate: float = 0.01,
    seed: int = 0,
) -> Mlp:
    """Train a 1-hidden-layer ReLU net with full-batch Adam; seeded, deterministic."""
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(np.unique(data.labels)) < 2:
        warnings.warn("training data contains a single class", stacklevel=2)
    scaler = FeatureScaler(data.features.min(axis=0), data.features.max(axis=0))
    x = scaler.transform(data.features)
    y = data.labels
    n_in = x.shape[1]
    rng = np.random.default_rng(seed)
    layers = [
        DenseLayer(
            rng.normal(0.0, np.sqrt(2.0 / n_in), size=(hidden_nodes, n_in)),
            np.zeros(hidden_nodes),
            "relu",
        ),
        DenseLayer(
            rng.normal(0.0, np.sqrt(1.0 / hidden_nodes), size=(2, hidden_nodes)),
            np.zeros(2),
            "identity",
        ),
    ]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = [p for l in layers for p in (l.weights, l.bias)]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    for step in range(1, epochs + 1):
        _, grads = loss_and_grad(layers, x, y)
        flat = [g for pair in grads for g in pair]
        for k, (p, g) in enumerate(zip(params, flat)):
            m_state[k] = beta1 * m_state[k] + (1 - beta1) * g
            v_state[k] = beta2 * v_state[k] + (1 - beta2) * g * g
            m_hat = m_state[k] / (1 - beta1**step)
            v_hat = v_state[k] / (1 - beta2**step)
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return Mlp(layers, scaler)


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


def quantized_forward(
    net: Mlp, x, fmt: FixedPointFormat
) -> tuple[list[list[int]], int]:
    """Fixed-point reference forward pass with the arithmetic-circuit semantics.

    Works on signed integer representations throughout: exact 2m-bit
    products, 3m-bit wrapping accumulation with the bias folded in as an
    extra weight on a constant quantized 1.0, compare/mux ReLU, arithmetic
    right shift by the fractional bit count, and a saturating clip back to m
    bits.  Returns ([per-layer signed activation ints], predicted class).
    """
    m, i = fmt.total_bits, fmt.fractional_bits
    mask3 = (1 << (3 * m)) - 1
    sign3 = 1 << (3 * m - 1)
    one = quantize_int(1.0, fmt)
    acts = [quantize_int(float(v), fmt) for v in net.scale(np.asarray(x, dtype=float))]
    per_layer = []
    for layer in net.layers:
        wq = [[quantize_int(float(w), fmt) for w in row] for row in layer.weights]
        bq = [quantize_int(float(b), fmt) for b in layer.bias]
        outs = []
        for row, b in zip(wq, bq):
            acc = sum(w * a for w, a in zip(row, acts)) + b * one
            acc &= mask3
            if acc & sign3:
                acc -= mask3 + 1
            if layer.activation == "relu" and acc <= 0:
                acc = 0
            v = acc >> i
            outs.append(max(fmt.min_int, min(fmt.max_int, v)))
        acts = outs
        per_layer.append(outs)
    pred = 1 if per_layer[-1][1] > per_layer[-1][0] else 0
    return per_layer, pred


@dataclass
class QuantizedActivationDataset:
    """Per-node distillation set: previous-layer bits in, activation bits out.

    Feature columns concatenate the m-bit words of every node of the previous
    layer in node order, most significant bit first inside each word; label
    columns are the m bits of this node's quantized activation.
    """

    layer_index: int
    node_index: int
    fmt: FixedPointFormat
    feature_bits: np.ndarray  # (n, N_prev * m) uint8
    label_bits: np.ndarray  # (n, m) uint8

    def __post_init__(self) -> None:
        if self.label_bits.shape[1] != self.fmt.total_bits:
            raise ValueError("label width must equal the format's total bits")
        if len(self.feature_bits) != len(self.label_bits):
            raise ValueError("feature and label row counts differ")
        if self.feature_bits.shape[1] % self.fmt.total_bits:
            raise ValueError("feature width must be a multiple of the word width")


def quantize_to_bits(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Vectorized quantization of (n, k) floats to (n, k*m) bit columns."""
    m, i = fmt.total_bits, fmt.fractional_bits
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(
            f"cannot quantize non-finite value {values[r, c].item()!r} at row {r}, column {c}"
        )
    scaled = np.trunc(values * float(1 << i))
    ints = np.clip(scaled, fmt.min_int, fmt.max_int).astype(np.int64)
    words = ints & ((1 << m) - 1)
    n, k = words.shape
    bits = np.zeros((n, k * m), dtype=np.uint8)
    for j in range(m):  # column j is the MSB-first j-th bit of each word
        bits[:, j::m] = (words >> (m - 1 - j)) & 1
    return bits


def extract_distillation_sets(
    net: Mlp, data, fmt: FixedPointFormat
) -> list[QuantizedActivationDataset]:
    """One dataset per node of every non-input layer, in (layer, node) order."""
    acts = forward_batch(net, data.features)
    levels = [net.scale(data.features)] + acts
    level_bits = [quantize_to_bits(level, fmt) for level in levels]
    m = fmt.total_bits
    sets = []
    for l in range(1, len(levels)):
        features = level_bits[l - 1]
        for n in range(levels[l].shape[1]):
            sets.append(
                QuantizedActivationDataset(
                    layer_index=l,
                    node_index=n,
                    fmt=fmt,
                    feature_bits=features,
                    label_bits=level_bits[l][:, n * m : (n + 1) * m],
                )
            )
    return sets
