"""Randomly wired LUT networks trained by pattern counting, plus lowering.

Each LUT draws K distinct inputs from the previous layer (raw feature bits
for the first layer).  Training is one counting sweep per layer: every
sample bumps counter[pattern][label], after which the LUT freezes to the
majority label per pattern; ties and never-seen patterns freeze to 0.
Later layers train on the frozen outputs of earlier ones, and a final
K-input LUT wired into the last hidden layer emits the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nn2logic import netlist as nl


@dataclass
class Lut:
    inputs: tuple[int, ...]
    counts: np.ndarray  # (2**K, 2) pattern-by-label counters
    table: np.ndarray  # (2**K,) frozen output bits

    def table_int(self) -> int:
        acc = 0
        for p, bit in enumerate(self.table):
            acc |= int(bit) << p
        return acc


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
    return tuple(int(v) for v in np.sort(rng.choice(pool, size=k, replace=False)))


def _freeze(counts: np.ndarray) -> np.ndarray:
    return (counts[:, 1] > counts[:, 0]).astype(np.uint8)


def _count_layer(prev_bits: np.ndarray, wirings, k: int, labels: np.ndarray):
    """Counters and frozen tables for one layer, all LUTs at once."""
    pow2 = 1 << np.arange(k, dtype=np.int64)
    gathered = prev_bits[:, np.asarray(wirings)]  # (n, W, K)
    patterns = gathered.astype(np.int64) @ pow2  # (n, W)
    w = len(wirings)
    flat = (np.arange(w, dtype=np.int64) << (k + 1)) + patterns * 2 + labels[:, None]
    counts = np.bincount(flat.ravel(), minlength=w << (k + 1)).reshape(w, 1 << k, 2)
    return counts


def _layer_outputs(prev_bits: np.ndarray, luts: list[Lut]) -> np.ndarray:
    pow2 = 1 << np.arange(len(luts[0].inputs), dtype=np.int64)
    wiring = np.array([l.inputs for l in luts])
    patterns = prev_bits[:, wiring].astype(np.int64) @ pow2
    tables = np.stack([l.table for l in luts])
    return tables[np.arange(len(luts)), patterns].astype(np.uint8)


def train_logicnet(
    features, labels, depth: int, width: int, lut_size: int, seed: int = 0
) -> LutNetwork:
    x = np.asarray(features, dtype=np.uint8)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("features must be a non-empty bit matrix")
    n_features = x.shape[1]
    if lut_size > n_features:
        raise ValueError(f"lut_size {lut_size} exceeds the {n_features} feature bits")
    if depth >= 2 and lut_size > width:
        raise ValueError(f"lut_size {lut_size} exceeds the layer width {width}")
    rng = np.random.default_rng(seed)
    net = LutNetwork(depth, width, lut_size, seed, n_features)
    # wiring is sampled up front so it does not depend on the training data
    layer_wirings = []
    for layer in range(depth):
        pool = n_features if layer == 0 else width
        layer_wirings.append([_sample_wiring(rng, pool, lut_size) for _ in range(width)])
    out_pool = width if depth else n_features
    out_wiring = _sample_wiring(rng, out_pool, min(lut_size, out_pool))

    prev = x
    for wirings in layer_wirings:
        counts = _count_layer(prev, wirings, lut_size, y)
        luts = [Lut(wire, counts[j], _freeze(counts[j])) for j, wire in enumerate(wirings)]
        net.layers.append(luts)
        prev = _layer_outputs(prev, luts)
    counts = _count_layer(prev, [out_wiring], len(out_wiring), y)
    net.output = Lut(out_wiring, counts[0], _freeze(counts[0]))
    return net


def eval_logicnet(net: LutNetwork, feature_row) -> int:
    row = np.asarray(feature_row).astype(np.uint8)
    return int(eval_logicnet_batch(net, row[None, :])[0])


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
    """Concatenate per-bit LUT networks into one word-level module.

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


def logicnet_from_text(text: str) -> LutNetwork:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "logicnet":
        raise ValueError("not a logicnet dump")
    depth, width, lut_size, seed, n_features = (int(v) for v in lines[0][1:])
    net = LutNetwork(depth, width, lut_size, seed, n_features)
    net.layers = [[] for _ in range(depth)]

    def parse(entry) -> Lut:
        wiring = tuple(int(v) for v in entry[1].split(","))
        table = np.array([int(c) for c in entry[2]], dtype=np.uint8)
        counts = np.zeros((len(table), 2), dtype=np.int64)  # counters not persisted
        return Lut(wiring, counts, table)

    for entry in lines[1:]:
        if entry[0] == "out":
            net.output = parse(entry)
        else:
            net.layers[int(entry[0][3:])].append(parse(entry))
    if net.output is None or any(len(l) != width for l in net.layers):
        raise ValueError("dump does not match its header")
    return net
