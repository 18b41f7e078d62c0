"""Randomly wired LUT networks trained by pattern counting, plus lowering.

Each LUT draws K distinct inputs from the previous layer (raw feature bits
for the first layer); input j is bit j of the LUT's pattern index.  A
layer's W wirings are drawn as one block (``datasets.sorted_choices``): one
generator call gives the sorted rows, and leaves the generator state, that
W successive ``choice`` calls would.

Training is one counting sweep per layer: each pattern's entry of the
truth table is the majority label of the samples showing that pattern;
ties and never-seen patterns give 0; the counts are dropped once the
table is formed.  Later layers train on the table outputs of earlier ones,
and a final K-input LUT wired into the last hidden layer emits the bit.

A trained layer is one record array (``lut_layer``): its ``inputs`` field
is the (W, K) wiring and its ``table`` field the (W, 2**K) truth tables,
so whole-layer code indexes two arrays, while one LUT, a row, still reads
as ``lut.inputs`` and ``lut.table`` for code that walks LUTs one by one.

Training counts on sample-packed columns.  Every feature bit, label and LUT
output is a row of uint64 words in which sample i is bit i % 64 of word
i // 64.  A layer expands its LUTs' inputs into one minterm-major block,
(2**K, W, words): minterm 0 starts as the ``valid`` mask of the n samples,
and each of K steps splits all minterms so far on one input of all W LUTs
by one AND and one AND-NOT.  No minterm holds a padding bit, so table[p] is
1 when the popcount of minterm p ANDed with the labels' ``ones`` mask
exceeds half the popcount of minterm p.  Word sums are float64 products
with a ones vector, exact while a count stays below 2**53.  A LUT's output
column, whose padding bits are 0, is the OR of the minterms its table maps
to 1.  ``train_logicnets`` trains every bit of one MLP layer and packs
their shared feature columns once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nn2logic import netlist as nl
from nn2logic.datasets import bit_training_set, pack_bits, sorted_choices


def lut_layer(inputs, tables) -> np.recarray:
    """One record per LUT: ``inputs`` (K,) int64 wiring and ``table`` (2**K,) uint8."""
    dtype = [("inputs", np.int64, np.shape(inputs)[1:]), ("table", np.uint8, np.shape(tables)[1:])]
    return np.rec.fromarrays([inputs, tables], dtype=dtype)


@dataclass
class LutNetwork:
    """One bit's LUT network: a ``lut_layer`` per hidden layer, then ``output``.

    ``output`` is row 0 of a one-record layer.  Records, not bare arrays, so
    that one LUT reads as ``lut.inputs`` / ``lut.table`` (``bench/reference.py``).
    """

    depth: int
    width: int
    lut_size: int
    seed: int
    n_features: int
    layers: list[np.recarray]
    output: np.record


def _train_layer(cols: np.ndarray, wiring: np.ndarray, ones: np.ndarray, valid: np.ndarray):
    """Tables (W, 2**K) and packed outputs (W, words) of a (W, K) wiring; no counts are kept."""
    w, k = wiring.shape
    minterms = np.empty((1 << k, w, cols.shape[1]), dtype=cols.dtype)  # minterm-major
    minterms[0] = valid
    for j in range(k):  # minterm p + 2**j is minterm p with input j at 1
        col = cols[wiring[:, j]]
        low = minterms[: 1 << j]
        np.bitwise_and(low, col, out=minterms[1 << j : 2 << j])
        low &= ~col
    word_sum = np.ones(cols.shape[1])
    seen = np.bitwise_count(minterms) @ word_sum
    tables = (2 * (np.bitwise_count(minterms & ones) @ word_sum) > seen).astype(cols.dtype)
    minterms &= -tables[..., None]
    return tables.T.astype(np.uint8), np.bitwise_or.reduce(minterms, axis=0)


def train_logicnets(
    features, labels, seeds, depth: int, width: int, lut_size: int
) -> list[LutNetwork]:
    """One LUT network per label column over one shared feature matrix.

    Network j trains on ``labels[:, j]`` and draws its wiring from
    ``default_rng(seeds[j])``.  The feature columns are packed once for all.
    """
    for name, value, least in (("depth", depth, 0), ("width", width, 1), ("lut_size", lut_size, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    x, y = bit_training_set(features, labels, seeds)
    n_features = x.shape[1]
    if lut_size > n_features:
        raise ValueError(f"lut_size {lut_size} exceeds the {n_features} feature bits")
    if depth >= 2 and lut_size > width:
        raise ValueError(f"lut_size {lut_size} exceeds the layer width {width}")
    cols, valid = pack_bits(x.T), pack_bits(np.ones(len(x), dtype=np.uint8))
    return [_train_net(cols, ones, valid, depth, width, lut_size, seed)
            for ones, seed in zip(pack_bits(y.T), seeds)]


def _train_net(cols, ones, valid, depth: int, width: int, lut_size: int, seed: int) -> LutNetwork:
    n_features = len(cols)
    rng = np.random.default_rng(seed)
    # wiring is sampled up front so it does not depend on the training data
    wirings, pool = [], n_features
    for _ in range(depth):
        wirings.append(sorted_choices(rng, pool, lut_size, width))
        pool = width
    wirings.append(sorted_choices(rng, pool, min(lut_size, pool), 1))
    layers = []
    for wiring in wirings:
        tables, cols = _train_layer(cols, wiring, ones, valid)
        layers.append(lut_layer(wiring, tables))
    return LutNetwork(depth, width, lut_size, seed, n_features, layers[:-1], layers[-1][0])


def eval_logicnet_batch(net: LutNetwork, rows) -> np.ndarray:
    """Output bit per row: each layer maps (n, ·) bits to (n, W), the output LUT to (n,)."""
    bits = np.asarray(rows, dtype=np.uint8)
    for luts in (*net.layers, net.output):
        pow2 = 1 << np.arange(luts.inputs.shape[-1], dtype=np.int64)
        patterns = bits[:, luts.inputs].astype(np.int64) @ pow2
        bits = np.take_along_axis(luts.table, patterns.T, axis=-1).T
    return bits


def _live_cone(net: LutNetwork) -> list[np.ndarray]:
    """Per layer, the ascending indices of the LUTs the output stage reaches backward."""
    live, frontier = [], net.output.inputs
    for luts in reversed(net.layers):
        frontier = np.unique(frontier)
        live.append(frontier)
        frontier = luts.inputs[frontier]
    return live[::-1]


def _emit_logicnet_bit(net: nl.Netlist, feature_sids: list[int], lgn: LutNetwork) -> int:
    """LUT gates of the output cone, layer by layer, then the output LUT; code bit p is table[p]."""
    stages = [(live.tolist(), luts.inputs[live], luts.table[live])
              for luts, live in zip(lgn.layers, _live_cone(lgn))]
    stages.append(([0], lgn.output.inputs[None], lgn.output.table[None]))
    prev = feature_sids
    for live, inputs, tables in stages:
        codes = np.packbits(tables, axis=1, bitorder="little").tolist()
        prev = {j: net.add_gate("LUT", [prev[q] for q in wiring],
                                (int.from_bytes(bytes(code), "little"), len(wiring)))
                for j, wiring, code in zip(live, inputs.tolist(), codes)}
    return prev[0]


def logicnet_module(nets: list[LutNetwork], word_width: int):
    """One node's module: its per-bit LUT networks, concatenated into its word.

    ``nets[j]`` yields bit j of the output word; see ``netlist.bit_module``.
    Only LUTs inside the output cone are emitted; dropped LUTs cannot affect
    the module's function.
    """
    return nl.bit_module(nets, word_width, _emit_logicnet_bit)


def logicnet_to_text(net: LutNetwork) -> str:
    lines = [f"logicnet {net.depth} {net.width} {net.lut_size} {net.seed} {net.n_features}"]
    rows = [(f"lut{i}", luts.inputs, luts.table) for i, luts in enumerate(net.layers)]
    rows.append(("out", net.output.inputs[None], net.output.table[None]))
    for tag, wirings, tables in rows:
        for wiring, table in zip(wirings.tolist(), tables.tolist()):
            lines.append(f"{tag} {','.join(map(str, wiring))} {''.join(map(str, table))}")
    return "\n".join(lines) + "\n"
