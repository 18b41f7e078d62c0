"""Circuit evaluation and equation reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nn2logic.aig import AigGraph, live_nodes, simulate_batch, stats
from nn2logic.fixedpoint import FixedPointFormat, quantize_array


@dataclass
class EvaluationReport:
    accuracy: float
    correct: int
    total: int
    aig_nodes: int
    aig_levels: int
    pipeline: str
    config: dict = field(default_factory=dict)

    def settings_text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.config.items()) or "-"

    def csv_row(self) -> str:
        return (
            f"{self.pipeline},{self.settings_text()},{self.aig_nodes},"
            f"{self.aig_levels},{self.accuracy:.4f}"
        )


RESULTS_HEADER = "pipeline,settings,aig_nodes,aig_levels,accuracy"


def results_table(reports: list[EvaluationReport]) -> str:
    return "\n".join([RESULTS_HEADER] + [r.csv_row() for r in reports]) + "\n"


def dataset_input_words(features: np.ndarray, fmt: FixedPointFormat, scaler=None):
    """Quantized samples as bit-parallel AIG input words.

    Word k*m + j holds bit j, least significant first, of feature k's m-bit
    word; bit s of it belongs to sample s.  Returns (words, sample count).
    """
    x = np.asarray(features, dtype=float)
    if scaler is not None:
        x = scaler.transform(x)
    ints = quantize_array(x, fmt)
    bits = ((ints[:, :, None] >> np.arange(fmt.total_bits)) & 1).astype(np.uint8)
    packed = np.packbits(bits.reshape(len(ints), -1), axis=0, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed.T], len(ints)


def evaluate(
    g: AigGraph,
    data,
    fmt: FixedPointFormat,
    scaler=None,
    pipeline: str = "direct",
    config: dict | None = None,
) -> EvaluationReport:
    """Quantize every sample, simulate, and score the argmax output bit.

    The predicted class is the graph's final output; samples are evaluated
    bit-parallel in one pass.
    """
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    words, n = dataset_input_words(data.features, fmt, scaler)
    return evaluate_packed(g, words, data.labels, n, pipeline, config)


def evaluate_packed(
    g: AigGraph,
    words: list[int],
    labels: np.ndarray,
    n: int,
    pipeline: str = "direct",
    config: dict | None = None,
) -> EvaluationReport:
    if len(words) != len(g.inputs):
        raise ValueError(
            f"graph expects {len(g.inputs)} input bits, dataset provides {len(words)}"
        )
    pred_word = simulate_batch(g, words, n)[-1]
    preds = np.array([(pred_word >> s) & 1 for s in range(n)])
    correct = int((preds == np.asarray(labels)).sum())
    nodes, levels = stats(g)
    return EvaluationReport(
        accuracy=correct / n,
        correct=correct,
        total=n,
        aig_nodes=nodes,
        aig_levels=levels,
        pipeline=pipeline,
        config=dict(config or {}),
    )


@dataclass
class EquationReport:
    title: str
    inputs: list[str]  # word-level names, in first-appearance order
    outputs: list[str]
    lines: list[str]  # ordered `lhs = rhs;` equations

    def render(self) -> str:
        rule = "-" * 60
        parts = [f"Logic Report: {self.title}", rule, "", "Inputs:", rule, ""]
        parts += [f"Input {k}:\t{name}" for k, name in enumerate(self.inputs)]
        parts += ["", "Outputs:", rule, ""]
        parts += [f"Output:\t{name}" for name in self.outputs]
        parts += ["", "Equations:", rule, ""]
        parts += self.lines
        return "\n".join(parts) + "\n"


def emit_equations(
    g: AigGraph, input_names: list[str] | None = None, title: str = "circuit"
) -> EquationReport:
    """Appendix-style equation listing of the live AND cone.

    One ``nK = [NOT] a AND [NOT] b;`` line per live AND node, with inputs
    rendered as ``name[bit]``.  An output whose literal is an uncomplemented
    AND node is written as a final AND assignment line; other outputs become
    copy lines ``out = [NOT] nK;``.  Net numbering starts right after the
    input bits.
    """
    in_names = list(input_names or [n or f"i{k}" for k, n in enumerate(g.input_names)])
    out_names = [n or f"o{k}" for k, n in enumerate(g.output_names)]
    f0, f1 = g.fanin0, g.fanin1
    flags = live_nodes(g)
    live = [node for node in range(1, len(f0)) if flags[node] and f0[node] >= 0]

    refs: dict[int, int] = {}
    for node in live:
        for fanin in (f0[node], f1[node]):
            refs[fanin >> 1] = refs.get(fanin >> 1, 0) + 1
    out_nodes: dict[int, int] = {}
    for o in g.outputs:
        out_nodes[o >> 1] = out_nodes.get(o >> 1, 0) + 1

    inline: set[int] = set()
    for o in g.outputs:
        node = o >> 1
        if (o & 1) == 0 and f0[node] >= 0 and refs.get(node, 0) == 0 and out_nodes[node] == 1:
            inline.add(node)

    name_of: dict[int, str] = dict(zip(g.inputs, in_names))
    counter = len(g.inputs) + 1
    lines: list[str] = []

    def ref(literal: int) -> str:
        node = literal >> 1
        text = name_of[node] if node else "0"
        return f"NOT {text}" if literal & 1 else text

    for node in live:
        if node in inline:
            continue
        name_of[node] = f"n{counter}"
        counter += 1
        lines.append(f"{name_of[node]} = {ref(f0[node])} AND {ref(f1[node])};")
    for o, out_name in zip(g.outputs, out_names):
        node = o >> 1
        if node in inline:
            lines.append(f"{out_name} = {ref(f0[node])} AND {ref(f1[node])};")
        elif node == 0:
            lines.append(f"{out_name} = {int(o == 1)};")
        else:
            lines.append(f"{out_name} = {ref(o)};")

    in_words = list(dict.fromkeys(name.split("[")[0] for name in in_names))
    out_words = list(dict.fromkeys(name.split("[")[0] for name in out_names))
    return EquationReport(title, in_words, out_words, lines)
