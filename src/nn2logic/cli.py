"""Command-line interface wiring the full pipeline together."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

# one BLAS thread unless the user chose otherwise: two threads on a busy
# 2-CPU machine slow mlp.train tenfold; this must run before NumPy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from nn2logic import aig, analysis, mlp, pipeline, sat
from nn2logic.datasets import read_dataset


# config flag -> its argparse keywords; dest is the config key it overrides
_CONFIG_FLAGS = {
    "--seed": dict(dest="seed", type=int),
    "--bits": dict(dest="total_bits", type=int, help="total quantization bits"),
    "--frac": dict(dest="fractional_bits", type=int, help="fractional quantization bits"),
    "--pipeline": dict(dest="pipeline", choices=pipeline.PIPELINES),
    "--out": dict(dest="out_dir", help="output directory"),
}


def _common_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """``--config`` and the config flags ``flags``, the ones the command reads."""
    p.add_argument("--config", help="flat key=value config file")
    for flag in flags:
        p.add_argument(flag, **_CONFIG_FLAGS[flag])


def _config_from(args, **defaults) -> pipeline.PipelineConfig:
    """The ``--config`` file, with every parsed value named after a config key on top.

    ``defaults`` replace the built-in values of keys that neither sets.
    """
    keys = {f.name for f in fields(pipeline.PipelineConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    return pipeline.parse_config(args.config, overrides, defaults)


# the config keys of a circuit's format: `compile` records them in one AIGER
# comment line, `nn2logic pipeline=rf total_bits=8 fractional_bits=6`
_FORMAT_KEYS = ("pipeline", "total_bits", "fractional_bits")


def _recorded_format(path: str, graph: aig.AigGraph) -> dict:
    """The format keys of ``graph``'s ``nn2logic`` comment, {} if it has none.

    The record must set each of ``_FORMAT_KEYS`` once, to values that make a
    format on their own; otherwise ValueError names its ``path:line``.
    """
    found = [j for j, line in enumerate(graph.comments) if line.split(" ")[0] == "nn2logic"]
    if not found:
        return {}
    j = found[-1]
    items = [item.partition("=") for item in graph.comments[j].split()[1:]]
    record = {key: val for key, _, val in items}
    try:
        if len(found) > 1:
            raise ValueError("the format is recorded more than once")
        if sorted(key for key, _, _ in items) != sorted(_FORMAT_KEYS):
            raise ValueError(f"format record {graph.comments[j]!r}: expected "
                             + " ".join(f"{key}=<value>" for key in _FORMAT_KEYS))
        pipeline.parse_config(None, record)
    except ValueError as exc:
        with open(path) as fh:  # the comment section runs to the end of the file
            line = len(fh.read().splitlines()) - len(graph.comments) + j + 1
        raise ValueError(f"{path}:{line}: {exc}") from None
    return record


def _read_circuit(path: str) -> aig.AigGraph:
    """The AIG of ``path``; it must have an output, as its last output is the decision."""
    graph = aig.read_aiger(path)
    if not graph.outputs:
        raise ValueError(f"{path}: the circuit has no outputs")
    return graph


def _weights_for(data, data_path: str, weights_path: str) -> mlp.Mlp:
    """The MLP of ``weights_path``, which must read as many features as ``data`` has."""
    net = mlp.load_weights(weights_path)
    if len(data.feature_names) != net.input_width:
        raise ValueError(f"{data_path}:1: {len(data.feature_names)} feature columns, "
                         f"but {weights_path} declares {net.input_width} inputs")
    return net


def cmd_train(args) -> int:
    cfg = _config_from(args)
    data, train_idx, test_idx = pipeline.load_split(cfg)
    net = mlp.train(
        data.subset(train_idx), cfg.hidden_nodes, cfg.epochs, cfg.learning_rate, cfg.seed
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    weights_path = os.path.join(cfg.out_dir, "weights.txt")
    split_path = os.path.join(cfg.out_dir, "split.txt")
    mlp.save_weights(net, weights_path)
    pipeline.write_split_manifest(split_path, train_idx, test_idx)
    train_acc, test_acc = (np.mean(mlp.predict_batch(net, data.features[i]) == data.labels[i])
                           for i in (train_idx, test_idx))
    print(f"wrote {weights_path} and {split_path}")
    print(f"train accuracy {train_acc:.4f}, test accuracy {test_acc:.4f}")
    return 0


def cmd_compile(args) -> int:
    cfg = _config_from(args)
    data, train_idx, _ = pipeline.load_split(cfg)
    net = _weights_for(data, cfg.dataset, args.weights)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if args.split:
        train_idx, _ = pipeline.read_split_manifest(args.split, len(data))
    sets = mlp.extract_distillation_sets(net, data.subset(train_idx), cfg.fmt)
    graph, modules = pipeline.compile_pipeline(cfg.pipeline, net, sets, cfg.fmt, cfg.params,
                                               cfg.seed, data.feature_names)
    if modules is not None:
        distiller = pipeline.DISTILLERS[cfg.pipeline]
        dump = "\n".join(
            f"module {l} {n}\n" + "".join(distiller.to_text(m) for m in models)
            for (l, n), models in sorted(modules.items())
        )
        with open(os.path.join(cfg.out_dir, f"{cfg.pipeline}_models.txt"), "w") as fh:
            fh.write(dump + "\n")
    aig_path = os.path.join(cfg.out_dir, f"{cfg.pipeline}.aag")
    graph.comments.append("nn2logic " + " ".join(f"{k}={getattr(cfg, k)}" for k in _FORMAT_KEYS))
    aig.write_aiger(graph, aig_path)
    nodes, levels = aig.stats(graph)
    print(f"wrote {aig_path}: {nodes} nodes, {levels} levels")
    return 0


def cmd_evaluate(args) -> int:
    graph = _read_circuit(args.aig)
    cfg = pipeline.parse_config(args.config, _recorded_format(args.aig, graph))
    data = read_dataset(args.dataset)
    if args.split:
        _, test_idx = pipeline.read_split_manifest(args.split, len(data))
        data = data.subset(test_idx)
    scaler = _weights_for(data, args.dataset, args.weights).scaler
    report = analysis.evaluate(graph, data, cfg.fmt, scaler, pipeline=cfg.pipeline)
    print(analysis.RESULTS_HEADER)
    print(report.csv_row())
    return 0


def cmd_report(args) -> int:
    graph = aig.read_aiger(args.aig)
    input_names = None
    if args.names:
        words = [w.strip() for w in args.names.split(",")]
        per_word = len(graph.inputs) // len(words)
        if per_word * len(words) != len(graph.inputs):
            raise ValueError(
                f"{len(graph.inputs)} input bits do not divide into {len(words)} words"
            )
        input_names = [f"{w}[{j}]" for w in words for j in range(per_word)]
    report = analysis.emit_equations(graph, input_names, title=args.title)
    text = report.render()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.title}.report.txt")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return 0


def cmd_sat(args) -> int:
    graph = _read_circuit(args.aig)
    last = len(graph.outputs) - 1
    index = last if args.output_index is None else args.output_index
    if not 0 <= index <= last:
        raise ValueError(f"{args.aig}: output index {index} is not in 0..{last}")
    vector = sat.find_onset_vector(graph, index)
    if vector is None:
        print("unsatisfiable")
    else:
        print("".join(str(b) for b in vector))
    return 0


def cmd_equiv(args) -> int:
    paths = args.aig_a, args.aig_b
    graphs = [_read_circuit(path) for path in paths]
    # equal input bits mean equal feature values only in one fixed-point format
    fmts = [pipeline.parse_config(None, r).fmt for r in map(_recorded_format, paths, graphs) if r]
    if len(fmts) == 2 and fmts[0] != fmts[1]:
        a, b = (f"total_bits={f.total_bits} fractional_bits={f.fractional_bits}" for f in fmts)
        raise ValueError(f"{paths[0]} records {a}, but {paths[1]} records {b}")
    try:
        counterexample = sat.check_equivalence(*graphs)
    except ValueError as exc:
        raise ValueError(f"{paths[0]} and {paths[1]}: {exc}") from None
    if counterexample is None:
        print("EQUIVALENT")
        return 0
    print("counterexample " + "".join(str(b) for b in counterexample))
    return 1


def cmd_sweep(args) -> int:
    cfg = _config_from(args, out_dir="")  # no sweep.csv unless --out or the config names an out_dir
    if not cfg.dataset:
        raise ValueError("no dataset given: name a CSV on the command line "
                         "or set dataset= in the config")
    grid = pipeline.parse_grid(args.grid, cfg)
    data = read_dataset(cfg.dataset)
    reports = pipeline.sweep_experiments(data, cfg, grid)
    table = analysis.results_table(reports)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "sweep.csv")
        with open(path, "w") as fh:
            fh.write(table)
        print(f"wrote {path}")
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nn2logic",
        description="Compile trained MLP classifiers into And-Inverter logic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an MLP and write weights plus split")
    p.add_argument("dataset")
    _common_flags(p, "--seed", "--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compile", help="compile a pipeline into an AIGER file")
    p.add_argument("dataset")
    p.add_argument("weights")
    p.add_argument("--split", help="split manifest restricting distillation rows")
    _common_flags(p, "--seed", "--bits", "--frac", "--pipeline", "--out")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "evaluate", help="score a compiled AIG on a dataset",
        description="Score a compiled AIG on a dataset. The circuit's pipeline, total_bits "
        "and fractional_bits come from the comment line `compile` writes into the AIGER "
        "file; a circuit without one takes them from --config.",
    )
    p.add_argument("aig")
    p.add_argument("dataset")
    p.add_argument("weights", help="weights file providing the feature scaler")
    p.add_argument("--split", help="split manifest selecting the test rows")
    _common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="emit an equation report for an AIG")
    p.add_argument("aig")
    p.add_argument("--names", help="comma-separated input word names")
    p.add_argument("--title", default="circuit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sat", help="find an input vector driving an output to 1")
    p.add_argument("aig")
    p.add_argument(
        "--output-index",
        type=int,
        help="output to drive to 1 (default: the last output, the argmax decision)",
    )
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("equiv", help="check two AIGs for equivalence")
    p.add_argument("aig_a")
    p.add_argument("aig_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("sweep", help="run the pipeline/parameter grid")
    p.add_argument("dataset", nargs="?", default=None, help="CSV (default: the config's dataset)")
    p.add_argument("--grid", help="grid file with comma-separated values; its pipelines key "
                   "chooses the pipelines (all by default), and a parameter axis it leaves "
                   "out takes the config's value; without it, sweep runs each pipeline once, "
                   "at the config's values")
    _common_flags(p, "--seed", "--bits", "--frac", "--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
