"""Word-level combinational IR, the direct builder and the module scaffolding.

Gates are appended in topological order by construction; a completed netlist
is treated as immutable.  Values are unsigned words at the declared widths,
bit 0 least significant.  The gate kinds, all emitted by some builder:

* NEURON(x_1..x_n), params ``(weights, bias, shift, relu)`` as
  ``mlp.quantize_layers`` gives them for one neuron: one step of
  ``mlp.quantized_forward`` over signed m-bit words with signed m-bit integer
  weights and an integer bias.  ``acc = bias + sum(weights[k] * x_k)``
  wrapped to 3m-bit signed, then 0 if ``relu`` and ``acc < 0``, then
  ``acc >> shift`` saturated to m-bit signed,
* ADD (wrapping) and GT (signed) on two equal-width words,
* MUX(sel, a, b) yields ``a`` when sel is 1,
* CONST, SLICE,
* CONCAT lists its operands most significant first,
* LUT select operand q carries pattern weight 2**q.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from nn2logic.fixedpoint import FixedPointFormat, from_int, signed_value
from nn2logic.mlp import quantize_layers


@dataclass(frozen=True)
class Gate:
    kind: str
    operands: tuple[int, ...]
    output: int
    params: tuple = ()


@dataclass
class Netlist:
    widths: list[int] = field(default_factory=list)
    names: list = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)

    def _new_signal(self, width: int, name=None) -> int:
        if width <= 0:
            raise ValueError("signal width must be positive")
        self.widths.append(width)
        self.names.append(name)
        return len(self.widths) - 1

    def add_input(self, width: int, name=None) -> int:
        sid = self._new_signal(width, name)
        self.inputs.append(sid)
        return sid

    def add_const(self, bits: str, name=None) -> int:
        sid = self._new_signal(len(bits), name)
        self.gates.append(Gate("CONST", (), sid, (bits,)))
        return sid

    def set_output(self, sid: int) -> None:
        self.outputs.append(sid)

    def add_gate(self, kind: str, operands, params=(), name=None) -> int:
        operands = tuple(operands)
        for op in operands:
            if not 0 <= op < len(self.widths):
                raise ValueError(f"{kind}: operand signal {op} is not defined")
        width = self._infer_width(kind, operands, params)
        sid = self._new_signal(width, name)
        self.gates.append(Gate(kind, operands, sid, tuple(params)))
        return sid

    def _infer_width(self, kind: str, operands, params) -> int:
        w = [self.widths[o] for o in operands]
        if kind == "NEURON":
            weights, bias, shift, relu = params
            self._need(
                all(_is_integer(c) for c in (*weights, bias, shift)),
                "NEURON weights, bias and shift must be integers",
            )
            limit = 1 << (w[0] - 1) if w else 0
            self._need(
                len(w) == len(weights) >= 1
                and len(set(w)) == 1
                and all(-limit <= c < limit for c in weights),
                "NEURON needs words of one width m and one signed m-bit weight per word",
            )
            self._need(0 <= shift <= 2 * w[0], "NEURON shift must be in 0..2m")
            self._need(isinstance(relu, bool), "NEURON relu must be a bool")
            return w[0]
        if kind == "ADD":
            self._need(len(w) == 2 and w[0] == w[1], "ADD needs two equal-width operands")
            return w[0]
        if kind == "GT":
            self._need(len(w) == 2 and w[0] == w[1], "GT needs two equal-width operands")
            return 1
        if kind == "MUX":
            self._need(
                len(w) == 3 and w[0] == 1 and w[1] == w[2],
                "MUX needs a 1-bit select and two equal-width data operands",
            )
            return w[1]
        if kind == "SLICE":
            lo, hi = params
            self._need(len(w) == 1 and 0 <= lo <= hi < w[0], "SLICE range out of bounds")
            return hi - lo + 1
        if kind == "CONCAT":
            self._need(len(w) >= 1, "CONCAT needs at least one operand")
            return sum(w)
        if kind == "LUT":
            table, k = params
            self._need(
                len(w) == k and all(x == 1 for x in w) and 0 <= table < (1 << (1 << k)),
                "LUT needs k 1-bit selects and a 2**k-entry table",
            )
            return 1
        raise ValueError(f"unknown gate kind {kind!r}")

    @staticmethod
    def _need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(msg)


def _is_integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def simulate_netlist(net: Netlist, input_bits) -> list[str]:
    """Topological evaluation; returns one bit string per output."""
    if len(input_bits) != len(net.inputs):
        raise ValueError(f"expected {len(net.inputs)} inputs, got {len(input_bits)}")
    values: dict[int, int] = {}
    for sid, given in zip(net.inputs, input_bits):
        w = net.widths[sid]
        v = int(given, 2) if isinstance(given, str) else int(given)
        if isinstance(given, str) and len(given) != w:
            raise ValueError(f"input width mismatch on signal {sid}")
        values[sid] = v & ((1 << w) - 1)
    for g in net.gates:
        values[g.output] = _eval_gate(net, g, values)
    return [from_int(values[o], net.widths[o]) for o in net.outputs]


def _eval_gate(net: Netlist, g: Gate, values: dict[int, int]) -> int:
    ops = [values[o] for o in g.operands]
    w = [net.widths[o] for o in g.operands]
    kind = g.kind
    if kind == "CONST":
        return int(g.params[0], 2)
    if kind == "NEURON":
        weights, bias, shift, relu = g.params
        m = w[0]
        acc = bias + sum(c * signed_value(v, m) for c, v in zip(weights, ops))
        acc = signed_value(acc & ((1 << 3 * m) - 1), 3 * m)
        if relu and acc < 0:
            acc = 0
        hi = (1 << (m - 1)) - 1
        return max(-hi - 1, min(hi, acc >> shift)) & ((1 << m) - 1)
    if kind == "ADD":
        return (ops[0] + ops[1]) & ((1 << w[0]) - 1)
    if kind == "GT":
        return int(signed_value(ops[0], w[0]) > signed_value(ops[1], w[1]))
    if kind == "MUX":
        return ops[1] if ops[0] else ops[2]
    if kind == "SLICE":
        lo, hi = g.params
        return (ops[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind == "CONCAT":
        acc = 0
        for v, width in zip(ops, w):  # first operand is most significant
            acc = (acc << width) | v
        return acc
    if kind == "LUT":
        table, _k = g.params
        pattern = 0
        for q, v in enumerate(ops):
            pattern |= (v & 1) << q
        return (table >> pattern) & 1
    raise ValueError(f"unknown gate kind {kind!r}")


def merge_into(dst: Netlist, src: Netlist, input_map: dict[int, int]) -> dict[int, int]:
    """Inline ``src`` into ``dst`` with its inputs bound per ``input_map``.

    Each gate is copied as it stands, with its operands mapped: ``src``'s
    own ``add_gate`` already inferred and checked its width.  Copied signals
    are unnamed.  Returns the full signal-id mapping; ``src`` is left
    untouched.
    """
    mapping = dict(input_map)
    for sid in src.inputs:
        if dst.widths[mapping[sid]] != src.widths[sid]:
            raise ValueError(f"width mismatch binding module input {sid}")
    widths, names, gates = dst.widths, dst.names, dst.gates
    for g in src.gates:
        sid = mapping[g.output] = len(widths)
        widths.append(src.widths[g.output])
        names.append(None)
        gates.append(Gate(g.kind, tuple([mapping[o] for o in g.operands]), sid, g.params))
    return mapping


def build_neuron(params: tuple, m: int) -> Netlist:
    """Single-neuron module: one NEURON gate with ``params`` over m-bit inputs.

    ``params`` is one neuron's ``(weights, bias, shift, relu)`` record from
    ``mlp.quantize_layers``; ``add_gate`` checks it against the width m.
    """
    net = Netlist()
    net.set_output(net.add_gate("NEURON", [net.add_input(m) for _ in params[0]], params))
    return net


def cascade_modules(
    per_node_modules: list[list[Netlist]],
    layer_sizes: list[int],
    fmt: FixedPointFormat,
    input_names: list[str] | None = None,
) -> Netlist:
    """Wire per-node modules into the full network topology plus argmax.

    Layer l's modules each consume all of layer l-1's word outputs; the final
    layer must have exactly two nodes, and a signed comparator emits the
    predicted-class bit (out1 > out0, ties toward class 0).  The outputs are
    the words ``class0`` and ``class1``, then that bit, ``argmax``.
    """
    if len(per_node_modules) != len(layer_sizes) - 1:
        raise ValueError("one module row per non-input layer required")
    m = fmt.total_bits
    net = Netlist()
    words = [
        net.add_input(m, input_names[k] if input_names else f"x{k}")
        for k in range(layer_sizes[0])
    ]
    for l, row in enumerate(per_node_modules, start=1):
        if len(row) != layer_sizes[l]:
            raise ValueError(f"layer {l}: expected {layer_sizes[l]} modules")
        new_words = []
        for module in row:
            if len(module.inputs) != len(words):
                raise ValueError(f"layer {l}: module input count mismatch")
            if len(module.outputs) != 1 or module.widths[module.outputs[0]] != m:
                raise ValueError(f"layer {l}: module must output one {m}-bit word")
            mapping = merge_into(net, module, dict(zip(module.inputs, words)))
            new_words.append(mapping[module.outputs[0]])
        words = new_words
    if len(words) != 2:
        raise ValueError("cascade expects a 2-node final layer for the argmax bit")
    for c, w in enumerate(words):
        net.names[w] = f"class{c}"
        net.set_output(w)
    net.set_output(net.add_gate("GT", (words[1], words[0]), name="argmax"))
    return net


def build_network_direct(net_mlp, fmt: FixedPointFormat, input_names=None) -> Netlist:
    """Direct arithmetic lowering of a trained network, one NEURON gate per neuron."""
    modules = [
        [build_neuron(params, fmt.total_bits) for params in layer]
        for layer in quantize_layers(net_mlp, fmt)
    ]
    return cascade_modules(modules, net_mlp.layer_sizes, fmt, input_names)


def bit_module(models, word_width: int | None, emit_bit) -> Netlist:
    """One word-level module from per-bit models over the previous layer's bits.

    ``models[j]`` predicts bit j of the output word, most significant first,
    and ``emit_bit(net, feature_sids, model)`` emits one of them into ``net``,
    returning its 1-bit signal.  Inputs are the previous layer's m-bit words;
    feature column k*m + j is the j-th most significant bit of word k.
    """
    m = word_width if word_width is not None else len(models)
    total = models[0].n_features
    if any(model.n_features != total for model in models):
        raise ValueError("per-bit models must share one feature space")
    if total % m:
        raise ValueError("feature count is not a whole number of words")
    net = Netlist()
    words = [net.add_input(m, f"x{k}") for k in range(total // m)]
    feature_sids = [
        net.add_gate("SLICE", (word,), (m - 1 - j, m - 1 - j)) for word in words for j in range(m)
    ]
    bit_outs = [emit_bit(net, feature_sids, model) for model in models]
    out = bit_outs[0] if len(bit_outs) == 1 else net.add_gate("CONCAT", tuple(bit_outs))
    net.set_output(out)
    return net
