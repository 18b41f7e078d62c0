"""Reference semantics the benchmark checks every circuit against.

This module imports nothing from ``nn2logic``.  It reads the trained models
only as data (weight arrays, tree nodes, LUT wirings and tables) and
recomputes, row-parallel with NumPy, what each compiled circuit must output:

* quantization truncates toward zero, then saturates to the signed m-bit
  range;
* the direct flow is the integer fixed-point forward pass: exact products,
  a 3m-bit wrapping accumulator with the bias weighted by a quantized 1.0,
  ReLU on hidden layers, an arithmetic shift by the fractional bits and a
  saturating clip back to m bits;
* the rf flow replaces every neuron by one forest per output bit, voting
  with leaf probabilities rounded to 8 fractional bits;
* the logicnet flow replaces every neuron by one LUT network per output bit.

Every flow cascades layer by layer and decides class 1 when the signed final
word of class 1 exceeds that of class 0.  A row of the circuit's input is a
vector of signed m-bit integers, one per feature.
"""

from __future__ import annotations

import numpy as np

PROB_BITS = 8  # leaf probabilities are unsigned fixed point with 8 fraction bits


def quantize(values, m: int, i: int) -> np.ndarray:
    """Truncate ``values * 2**i`` toward zero, then saturate to m signed bits."""
    scaled = np.trunc(np.asarray(values, dtype=float) * float(1 << i))
    lo, hi = -(1 << (m - 1)), (1 << (m - 1)) - 1
    return np.clip(scaled, lo, hi).astype(np.int64)


def scale_features(x, minimum, maximum) -> np.ndarray:
    """Min-max scaling of raw features to [-1, 1]; constant columns keep span 1."""
    x = np.asarray(x, dtype=float)
    span = np.asarray(maximum, dtype=float) - np.asarray(minimum, dtype=float)
    span = np.where(span == 0, 1.0, span)
    return 2.0 * (x - minimum) / span - 1.0


def input_rows(x, minimum, maximum, m: int, i: int) -> np.ndarray:
    """Raw feature rows to the signed integer words the circuit reads."""
    return quantize(scale_features(x, minimum, maximum), m, i)


def words_to_bits(words: np.ndarray, m: int) -> np.ndarray:
    """(n, k) signed words to (n, k*m) bit columns, most significant bit first."""
    u = np.asarray(words, dtype=np.int64) & ((1 << m) - 1)
    n, k = u.shape
    bits = np.empty((n, k * m), dtype=np.uint8)
    for j in range(m):
        bits[:, j::m] = (u >> (m - 1 - j)) & 1
    return bits


def bits_to_word(bits: np.ndarray) -> np.ndarray:
    """(n, m) bit columns, most significant first, to signed m-bit integers."""
    m = bits.shape[1]
    u = np.zeros(len(bits), dtype=np.int64)
    for j in range(m):
        u = (u << 1) | bits[:, j].astype(np.int64)
    return np.where(u >= 1 << (m - 1), u - (1 << m), u)


def decide(final: np.ndarray) -> np.ndarray:
    """Class 1 when the class-1 word exceeds the class-0 word; ties give 0."""
    return (final[:, 1] > final[:, 0]).astype(np.uint8)


# -- direct flow -------------------------------------------------------------


def direct_forward(layers, rows: np.ndarray, m: int, i: int) -> list[np.ndarray]:
    """Integer forward pass; ``layers`` is a list of (weights, bias, relu).

    Returns the (n, N_l) signed output words of every layer.
    """
    width = 3 * m
    mask = (1 << width) - 1
    one = min(1 << i, (1 << (m - 1)) - 1)
    acts = np.asarray(rows, dtype=np.int64)
    out = []
    for weights, bias, relu in layers:
        wq = quantize(weights, m, i)  # (N_l, N_{l-1})
        bq = quantize(bias, m, i)
        acc = acts @ wq.T + bq * one  # exact: |terms| < 2**(2m), few terms
        acc &= mask
        acc = np.where(acc >= 1 << (width - 1), acc - (1 << width), acc)
        if relu:
            acc = np.where(acc > 0, acc, 0)
        acc >>= i  # arithmetic shift: floor division by 2**i
        acts = np.clip(acc, -(1 << (m - 1)), (1 << (m - 1)) - 1)
        out.append(acts)
    return out


# -- rf flow -----------------------------------------------------------------


def prob_weight(p: float) -> int:
    """Leaf probability as an unsigned vote weight, ties rounded to even."""
    return min(1 << PROB_BITS, round(p * (1 << PROB_BITS)))


def _tree_votes(node, bits: np.ndarray, rows: np.ndarray, s0, s1) -> None:
    """Add the leaf vote weights of ``rows`` (indices into ``bits``) to s0, s1."""
    if node.feature is None:
        s0[rows] += prob_weight(node.p0)
        s1[rows] += prob_weight(node.p1)
        return
    taken = bits[rows, node.feature].astype(bool)
    if (~taken).any():
        _tree_votes(node.left, bits, rows[~taken], s0, s1)
    if taken.any():
        _tree_votes(node.right, bits, rows[taken], s0, s1)


def forest_bit(model, bits: np.ndarray) -> np.ndarray:
    """Majority of quantized vote sums over a forest's trees; ties give 0."""
    n = len(bits)
    s0 = np.zeros(n, dtype=np.int64)
    s1 = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    for tree in model.trees:
        _tree_votes(tree.root, bits, rows, s0, s1)
    return (s1 > s0).astype(np.uint8)


# -- logicnet flow -----------------------------------------------------------


def _lut(lut, prev: np.ndarray) -> np.ndarray:
    pattern = np.zeros(len(prev), dtype=np.int64)
    for q, src in enumerate(lut.inputs):
        pattern |= prev[:, src].astype(np.int64) << q
    return np.asarray(lut.table, dtype=np.uint8)[pattern]


def lutnet_bit(net, bits: np.ndarray) -> np.ndarray:
    """Evaluate every LUT layer in turn, then the output LUT."""
    prev = bits
    for layer in net.layers:
        prev = np.stack([_lut(lut, prev) for lut in layer], axis=1)
    return _lut(net.output, prev)


# -- distilled cascades ------------------------------------------------------


def distilled_forward(per_node, layer_sizes, rows: np.ndarray, m: int, bit_fn):
    """Cascade of per-node, per-bit models; ``per_node[(l, n)][j]`` gives bit j.

    Bit j is the j-th most significant bit of node n's word; a model of layer
    l reads the bits of every word of layer l-1, word by word.
    """
    acts = np.asarray(rows, dtype=np.int64)
    out = []
    for l in range(1, len(layer_sizes)):
        bits = words_to_bits(acts, m)
        words = []
        for n in range(layer_sizes[l]):
            models = per_node[(l, n)]
            col = np.stack([bit_fn(model, bits) for model in models], axis=1)
            words.append(bits_to_word(col))
        acts = np.stack(words, axis=1)
        out.append(acts)
    return out
