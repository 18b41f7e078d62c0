"""Randomly wired LUT networks trained by pattern counting, plus lowering.

Each LUT draws K distinct inputs from the previous layer (raw feature bits
for the first layer); input j is bit j of the LUT's pattern index.
Training is one counting sweep per layer: each pattern's entry of the
truth table is the majority label of the samples showing that pattern;
ties and never-seen patterns give 0.  A trained LUT keeps only its inputs
and its table; the counts are dropped once the table is formed.  Later
layers train on the table outputs of earlier ones, and a final K-input LUT
wired into the last hidden layer emits the bit.

Training counts on sample-packed columns.  Every feature bit, label and LUT
output is a row of uint64 words in which sample i is bit i % 64 of word
i // 64.  A layer expands each LUT's K input columns into its 2**K minterm
masks, one per pattern, by K AND / AND-NOT steps; table[p] is 1 when the
popcount of minterm p ANDed with the ``ones`` mask of the labels exceeds
its popcount ANDed with ``zeros = valid & ~ones``.  The padding bits past
sample n - 1 in the last word are set in some minterms, but ``valid``
keeps them out of both masks, so they are never counted.  A LUT's output
column is the OR of the minterms its table maps to 1, so each layer forms
its patterns once.  ``train_logicnets`` trains every bit of one MLP layer
and packs their shared feature columns once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nn2logic import netlist as nl
from nn2logic.datasets import bit_training_set, pack_bits


@dataclass
class Lut:
    inputs: tuple[int, ...]
    table: np.ndarray  # (2**K,) uint8 output bit per pattern

    def table_int(self) -> int:
        return sum(int(bit) << p for p, bit in enumerate(self.table))


@dataclass
class LutNetwork:
    depth: int
    width: int
    lut_size: int
    seed: int
    n_features: int
    layers: list[list[Lut]] = field(default_factory=list)
    output: Lut | None = None


def _sample_wiring(rng, pool: int, k: int) -> tuple[int, ...]:
    return tuple(np.sort(rng.choice(pool, size=k, replace=False)).tolist())


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _train_layer(cols: np.ndarray, wirings, ones: np.ndarray, zeros: np.ndarray):
    """Tables (W, 2**K) and packed outputs (W, words) of one layer; no counts are kept."""
    inputs = cols[np.asarray(wirings)]  # (W, K, words)
    w, k, n_words = inputs.shape
    minterms = np.empty((w, 1 << k, n_words), dtype=cols.dtype)
    minterms[:, 0] = ~np.uint64(0)
    for j in range(k):  # minterm p + 2**j is minterm p with input j at 1
        col = inputs[:, j, None, :]
        low = minterms[:, : 1 << j]
        np.bitwise_and(low, col, out=minterms[:, 1 << j : 2 << j])
        low &= ~col
    tables = (_popcount(minterms & ones) > _popcount(minterms & zeros)).astype(np.uint8)
    minterms[tables == 0] = 0
    return tables, np.bitwise_or.reduce(minterms, axis=1)


def _layer_outputs(prev_bits: np.ndarray, luts: list[Lut]) -> np.ndarray:
    pow2 = 1 << np.arange(len(luts[0].inputs), dtype=np.int64)
    wiring = np.array([l.inputs for l in luts])
    patterns = prev_bits[:, wiring].astype(np.int64) @ pow2
    tables = np.stack([l.table for l in luts])
    return tables[np.arange(len(luts)), patterns].astype(np.uint8)


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
    cols = pack_bits(x.T)
    valid = pack_bits(np.ones(len(x), dtype=np.uint8))
    return [
        _train_net(cols, ones, valid & ~ones, depth, width, lut_size, seed)
        for ones, seed in zip(pack_bits(y.T), seeds)
    ]


def _train_net(cols, ones, zeros, depth: int, width: int, lut_size: int, seed: int) -> LutNetwork:
    n_features = len(cols)
    rng = np.random.default_rng(seed)
    net = LutNetwork(depth, width, lut_size, seed, n_features)
    # wiring is sampled up front so it does not depend on the training data
    layer_wirings = []
    for layer in range(depth):
        pool = n_features if layer == 0 else width
        layer_wirings.append([_sample_wiring(rng, pool, lut_size) for _ in range(width)])
    out_pool = width if depth else n_features
    out_wiring = _sample_wiring(rng, out_pool, min(lut_size, out_pool))

    for wirings in layer_wirings + [[out_wiring]]:
        tables, cols = _train_layer(cols, wirings, ones, zeros)
        net.layers.append([Lut(wire, table) for wire, table in zip(wirings, tables)])
    (net.output,) = net.layers.pop()
    return net


def eval_logicnet_batch(net: LutNetwork, rows) -> np.ndarray:
    prev = np.asarray(rows, dtype=np.uint8)
    for luts in net.layers:
        prev = _layer_outputs(prev, luts)
    return _layer_outputs(prev, [net.output])[:, 0]


def _live_cone(net: LutNetwork) -> list[set[int]]:
    """Per-layer LUT indices reachable backward from the output stage."""
    live: list[set[int]] = [set() for _ in net.layers]
    frontier = set(net.output.inputs)
    for layer in range(len(net.layers) - 1, -1, -1):
        live[layer] = frontier
        frontier = set()
        for j in live[layer]:
            frontier.update(net.layers[layer][j].inputs)
    return live


def _emit_lut(net: nl.Netlist, lut: Lut, prev) -> int:
    """One LUT gate; ``prev[q]`` is the signal of the previous layer's q-th bit."""
    return net.add_gate("LUT", [prev[q] for q in lut.inputs], (lut.table_int(), len(lut.inputs)))


def _emit_logicnet_bit(net: nl.Netlist, feature_sids: list[int], lgn: LutNetwork) -> int:
    """LUT gates of the output cone, layer by layer, then the output LUT."""
    prev = feature_sids
    for luts, live in zip(lgn.layers, _live_cone(lgn)):
        prev = {j: _emit_lut(net, luts[j], prev) for j in sorted(live)}
    return _emit_lut(net, lgn.output, prev)


def logicnet_module(nets: list[LutNetwork], word_width: int | None = None):
    """One node's module: its per-bit LUT networks, concatenated into its word.

    ``nets[j]`` yields bit j of the output word; see ``netlist.bit_module``.
    Only LUTs inside the output cone are emitted; dropped LUTs cannot affect
    the module's function.
    """
    return nl.bit_module(nets, word_width, _emit_logicnet_bit)


def logicnet_to_text(net: LutNetwork) -> str:
    lines = [
        f"logicnet {net.depth} {net.width} {net.lut_size} {net.seed} {net.n_features}"
    ]

    def emit(tag: str, lut: Lut) -> None:
        wiring = ",".join(str(v) for v in lut.inputs)
        table = "".join(str(int(b)) for b in lut.table)
        lines.append(f"{tag} {wiring} {table}")

    for layer, luts in enumerate(net.layers):
        for lut in luts:
            emit(f"lut{layer}", lut)
    emit("out", net.output)
    return "\n".join(lines) + "\n"
