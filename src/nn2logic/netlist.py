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
* GT (signed) on two equal-width words,
* SLICE, and CONCAT, which lists its operands most significant first,
* LUT select operand q carries pattern weight 2**q,
* MODEL, params ``(emit, model)``: one distilled bit over 1-bit feature
  operands, one per ``model.n_features``; ``aig.lower_netlist`` emits it
  as ``emit(g, feature_literals, model)``.  A forest bit is one, so the
  netlist never holds a forest's mux trees, adders or constants.

A module is one network node: ``module(net, words)`` emits the node's gates
into the network netlist ``net`` over the previous layer's m-bit words and
returns the node's m-bit word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from nn2logic.fixedpoint import FixedPointFormat
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
    _bits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def set_output(self, sid: int) -> None:
        self.outputs.append(sid)

    def bit(self, word: int, j: int) -> int:
        """Bit j of ``word`` as a 1-bit SLICE, emitted on the first call only."""
        if (word, j) not in self._bits:
            self._bits[word, j] = self.add_gate("SLICE", (word,), (j, j))
        return self._bits[word, j]

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
        if kind == "GT":
            self._need(len(w) == 2 and w[0] == w[1], "GT needs two equal-width operands")
            return 1
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
        if kind == "MODEL":
            emit, model = params
            self._need(
                callable(emit) and len(w) == model.n_features and all(x == 1 for x in w),
                "MODEL needs an emitter and one 1-bit operand per model feature",
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


def build_neuron(params: tuple):
    """Single-neuron module: one NEURON gate with ``params`` over the layer's words.

    ``params`` is one neuron's ``(weights, bias, shift, relu)`` record from
    ``mlp.quantize_layers``; ``add_gate`` checks it against the words' width.
    """
    return lambda net, words: net.add_gate("NEURON", words, params)


def cascade_modules(
    per_node_modules: list[list],
    layer_sizes: list[int],
    fmt: FixedPointFormat,
    input_names: list[str] | None = None,
) -> Netlist:
    """Wire per-node modules into the full network topology plus argmax.

    Layer l's modules are each called on all of layer l-1's words; the final
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
        new_words = [module(net, words) for module in row]
        if any(net.widths[w] != m for w in new_words):
            raise ValueError(f"layer {l}: module must output one {m}-bit word")
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
    modules = [list(map(build_neuron, layer)) for layer in quantize_layers(net_mlp, fmt)]
    return cascade_modules(modules, net_mlp.layer_sizes, fmt, input_names)


def bit_module(models, word_width: int, emit_bit):
    """One node's module from per-bit models over the previous layer's bits.

    ``models[j]`` predicts bit j of the output word, most significant first,
    and ``emit_bit(net, feature_sids, model)`` emits one of them into ``net``,
    returning its 1-bit signal.  The module reads the previous layer's m-bit
    words; feature column k*m + j is the j-th most significant bit of word k,
    sliced once per netlist by ``Netlist.bit``.
    """
    m = word_width

    def module(net: Netlist, words: list[int]) -> int:
        for model in models:
            if model.n_features != len(words) * m:
                raise ValueError(
                    f"a per-bit model reads {model.n_features} features, "
                    f"not {len(words)} words of {m} bits"
                )
        feature_sids = [net.bit(word, m - 1 - j) for word in words for j in range(m)]
        bit_outs = [emit_bit(net, feature_sids, model) for model in models]
        return bit_outs[0] if len(bit_outs) == 1 else net.add_gate("CONCAT", bit_outs)

    return module
