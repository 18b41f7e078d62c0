"""End-to-end pipeline orchestration: train, distill, compile, sweep.

``DISTILLERS`` is the one place a per-bit distiller is registered: its
training of one layer's bits at a time, its word-level module, its model
dump and its parameters.
Compiling, sweeping and the CLI all dispatch through it.
Grid sweeps fan out over processes; NN2LOGIC_THREADS caps the worker count.
All randomness is derived from the config seeds, so reruns are byte-stable.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from nn2logic import aig, analysis, forest, lutnet, mlp, netlist
from nn2logic.datasets import LabeledDataset, read_dataset, stratified_split
from nn2logic.fixedpoint import FixedPointFormat


@dataclass
class PipelineConfig:
    dataset: str = ""
    out_dir: str = "out"
    pipeline: str = "direct"
    total_bits: int = 8
    fractional_bits: int = 6
    seed: int = 0
    split_seed: int = 0
    test_fraction: float = 0.2
    hidden_nodes: int = 20
    epochs: int = 1500
    learning_rate: float = 0.01
    rf_estimators: int = 3
    rf_max_depth: int = 5
    lgn_depth: int = 2
    lgn_width: int = 50
    lgn_lut_size: int = 4

    @property
    def fmt(self) -> FixedPointFormat:
        return FixedPointFormat(self.total_bits, self.fractional_bits)


def _error(where: str, msg: str) -> ValueError:
    """``msg`` prefixed with the ``path:line`` it comes from, if it has one."""
    return ValueError(f"{where}: {msg}" if where else msg)


def _read_key_values(path) -> list[tuple[str, str, str]]:
    """``(key, value, "path:line")`` per ``key=value`` line; ``#`` starts a comment."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            entries.append((key.strip(), val.strip(), f"{path}:{lineno}"))
    return entries


_NON_NEGATIVE = (lambda v: v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: v >= 1, "an integer >= 1")
# config and grid key -> (test, what it admits): the values the trainers take
# without failing or quietly training on nothing; depth 0 grows one leaf or LUT
_RANGES = {
    "seed": _NON_NEGATIVE,
    "split_seed": _NON_NEGATIVE,
    "total_bits": (lambda v: 1 <= v <= 64, "an integer in 1..64"),
    "test_fraction": (lambda v: 0 < v < 1, "a number strictly between 0 and 1"),
    "hidden_nodes": _POSITIVE,
    "epochs": _POSITIVE,
    "learning_rate": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "rf_estimators": _POSITIVE,
    "rf_max_depth": _NON_NEGATIVE,
    "lgn_depth": _NON_NEGATIVE,
    "lgn_width": _POSITIVE,
    "lgn_lut_size": _POSITIVE,
}


def _convert(cast, key: str, val, where: str):
    """``cast(val)``, in the range ``_RANGES`` gives for ``key`` if it gives one."""
    try:
        value = cast(val)
    except ValueError:
        raise _error(where, f"{key}: expected {cast.__name__}, got {val!r}") from None
    rule = _RANGES.get(key)
    if rule and not rule[0](value):
        raise _error(where, f"{key}: expected {rule[1]}, got {value!r}")
    return value


def _check_pipeline(name: str, where: str) -> None:
    if name not in PIPELINES:
        raise _error(where, f"unknown pipeline {name!r}")


def parse_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Flat key=value config file, then flag overrides on top."""
    entries = _read_key_values(path) if path else []
    entries += [(k, v, "") for k, v in (overrides or {}).items() if v is not None]
    cfg = PipelineConfig()
    casts = {f.name: type(getattr(cfg, f.name)) for f in fields(PipelineConfig)}
    set_at = {}
    for key, val, where in entries:
        if key not in casts:
            raise _error(where, f"unknown config key {key!r}")
        if key == "pipeline":
            _check_pipeline(val, where)
        setattr(cfg, key, _convert(casts[key], key, val, where))
        set_at[key] = where
    m, i = cfg.total_bits, cfg.fractional_bits
    if not 0 <= i < m:  # as FixedPointFormat requires
        where = set_at.get("fractional_bits", set_at.get("total_bits", ""))
        raise _error(where, f"fractional_bits: expected an integer in 0..{m - 1} "
                            f"for {m} total bits, got {i}")
    return cfg


def load_split(cfg: PipelineConfig) -> tuple[LabeledDataset, np.ndarray, np.ndarray]:
    data = read_dataset(cfg.dataset)
    train_idx, test_idx = stratified_split(data, cfg.test_fraction, cfg.split_seed)
    return data, train_idx, test_idx


def write_split_manifest(path, train_idx, test_idx) -> None:
    with open(path, "w") as fh:
        fh.write("train " + " ".join(str(i) for i in train_idx) + "\n")
        fh.write("test " + " ".join(str(i) for i in test_idx) + "\n")


def read_split_manifest(path, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``train`` and ``test`` row indices, each in 0..n_rows-1 and listed once in the file.

    Bad input raises ValueError at ``path:line``.
    """
    parts: dict[str, np.ndarray] = {}
    first_seen: dict[int, int] = {}  # row index -> line it is listed on
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            tag, *values = line.split() or [""]
            if tag not in ("train", "test") or tag in parts:
                raise _error(where, f"expected one 'train' and one 'test' line, got {tag!r}")
            rows = [_convert(int, tag, v, where) for v in values]
            for row in rows:
                if not 0 <= row < n_rows:
                    raise _error(where, f"{tag}: row {row} is not in 0..{n_rows - 1}")
                if row in first_seen:
                    raise _error(where, f"row {row} is already listed on line {first_seen[row]}")
                first_seen[row] = lineno
            parts[tag] = np.array(rows, dtype=np.int64)
    if len(parts) != 2:
        raise ValueError(f"{path}: manifest needs 'train' and 'test' lines")
    return parts["train"], parts["test"]


def _bit_seed(base: int, layer: int, node: int, bit: int) -> int:
    return int(np.random.SeedSequence((base, layer, node, bit)).generate_state(1)[0])


def compile_direct(net_mlp: mlp.Mlp, fmt: FixedPointFormat, input_names=None) -> aig.AigGraph:
    word_net = netlist.build_network_direct(net_mlp, fmt, input_names)
    return aig.sweep(aig.lower_netlist(word_net))


def _train_modules(sets: list[mlp.DistillationLayer], train_layer, seed: int) -> dict:
    """One model per (layer, node, bit), keyed by (layer, node).

    Each layer is one call ``train_layer(feature_bits, label_bits, seeds)``,
    with ``seeds[j]`` the ``_bit_seed`` of label column j.  It returns one
    model per column; node n's are columns n*m .. n*m + m - 1.
    """
    modules = {}
    for z in sets:
        m = z.fmt.total_bits
        nodes = range(z.label_bits.shape[1] // m)
        seeds = [_bit_seed(seed, z.index, n, j) for n in nodes for j in range(m)]
        models = train_layer(z.feature_bits, z.label_bits, seeds)
        for n in nodes:
            modules[(z.index, n)] = models[n * m : (n + 1) * m]
    return modules


def train_rf_modules(
    sets: list[mlp.DistillationLayer],
    n_estimators: int,
    max_depth: int,
    seed: int,
) -> dict[tuple[int, int], list[forest.RandomForestModel]]:
    train_layer = partial(forest.train_forests, n_estimators=n_estimators, max_depth=max_depth)
    return _train_modules(sets, train_layer, seed)


def train_lgn_modules(
    sets: list[mlp.DistillationLayer],
    depth: int,
    width: int,
    lut_size: int,
    seed: int,
) -> dict[tuple[int, int], list[lutnet.LutNetwork]]:
    train_layer = partial(lutnet.train_logicnets, depth=depth, width=width, lut_size=lut_size)
    return _train_modules(sets, train_layer, seed)


@dataclass(frozen=True)
class Distiller:
    """A per-bit model family that stands in for each MLP neuron."""

    train: Callable  # (sets, *parameter values, seed) -> models keyed by (layer, node)
    module: Callable  # (per-bit models, word width) -> word-level Netlist
    to_text: Callable  # one model -> its text dump
    params: tuple[tuple[str, str], ...]  # (config and grid key, report label)


DISTILLERS = {
    "rf": Distiller(
        train_rf_modules,
        forest.forest_module,
        forest.forest_to_text,
        (("rf_estimators", "estimators"), ("rf_max_depth", "max_depth")),
    ),
    "logicnet": Distiller(
        train_lgn_modules,
        lutnet.logicnet_module,
        lutnet.logicnet_to_text,
        (("lgn_depth", "depth"), ("lgn_width", "width"), ("lgn_lut_size", "lut_size")),
    ),
}
PIPELINES = ("direct", *DISTILLERS)


def compile_distilled(
    name: str,
    net_mlp: mlp.Mlp,
    sets,
    fmt: FixedPointFormat,
    params: dict,
    seed: int,
    input_names=None,
):
    """Distil every neuron with ``DISTILLERS[name]``, cascade, lower and sweep.

    ``params`` maps each of the distiller's report labels to its value.
    Returns the swept AIG and the trained models keyed by (layer, node).
    """
    distiller = DISTILLERS[name]
    modules = distiller.train(sets, *(params[label] for _, label in distiller.params), seed)
    sizes = net_mlp.layer_sizes
    rows = [
        [distiller.module(modules[(l, n)], fmt.total_bits) for n in range(sizes[l])]
        for l in range(1, len(sizes))
    ]
    word_net = netlist.cascade_modules(rows, sizes, fmt, input_names)
    return aig.sweep(aig.lower_netlist(word_net)), modules


def compile_rf(
    net_mlp: mlp.Mlp,
    sets,
    fmt: FixedPointFormat,
    n_estimators: int,
    max_depth: int,
    seed: int,
    input_names=None,
):
    """``compile_distilled("rf", ...)``; only the benchmark and tests call it."""
    params = {"estimators": n_estimators, "max_depth": max_depth}
    return compile_distilled("rf", net_mlp, sets, fmt, params, seed, input_names)


def compile_logicnet(
    net_mlp: mlp.Mlp,
    sets,
    fmt: FixedPointFormat,
    depth: int,
    width: int,
    lut_size: int,
    seed: int,
    input_names=None,
):
    """``compile_distilled("logicnet", ...)``; only the benchmark and tests call it."""
    params = {"depth": depth, "width": width, "lut_size": lut_size}
    return compile_distilled("logicnet", net_mlp, sets, fmt, params, seed, input_names)


def worker_count() -> int:
    cap = os.environ.get("NN2LOGIC_THREADS")
    if cap:
        return max(1, _convert(int, "NN2LOGIC_THREADS", cap, ""))
    return max(1, os.cpu_count() or 1)


@dataclass
class SweepGrid:
    pipelines: list[str] = field(default_factory=lambda: list(PIPELINES))
    rf_estimators: list[int] = field(default_factory=lambda: [2, 3, 4])
    rf_max_depth: list[int] = field(default_factory=lambda: [5, 10, 15])
    lgn_depth: list[int] = field(default_factory=lambda: [2, 3, 4])
    lgn_width: list[int] = field(default_factory=lambda: [50, 100, 200])
    lgn_lut_size: list[int] = field(default_factory=lambda: [4, 6, 8])

    def points(self) -> list[tuple[str, dict]]:
        """Direct first, then each distiller's parameter product in table order."""
        pts: list[tuple[str, dict]] = [("direct", {})] if "direct" in self.pipelines else []
        for name, distiller in DISTILLERS.items():
            if name not in self.pipelines:
                continue
            labels = [label for _, label in distiller.params]
            axes = [getattr(self, key) for key, _ in distiller.params]
            pts += [(name, dict(zip(labels, values))) for values in itertools.product(*axes)]
        return pts


def parse_grid(path) -> SweepGrid:
    """key=value lines of comma-separated values, one line per grid axis."""
    grid = SweepGrid()
    axes = {f.name for f in fields(SweepGrid)}
    for key, val, where in _read_key_values(path):
        items = [v.strip() for v in val.split(",") if v.strip()]
        if key not in axes:
            raise _error(where, f"unknown grid key {key!r}")
        if key == "pipelines":
            for name in items:
                _check_pipeline(name, where)
            grid.pipelines = items
        else:
            setattr(grid, key, [_convert(int, key, v, where) for v in items])
    return grid


_SWEEP_STATE: dict = {}


def _sweep_point(task):
    """Worker body; reads the per-process state installed by the initializer."""
    pipeline, params = task
    st = _SWEEP_STATE
    fmt, net_mlp, sets, seed = st["fmt"], st["mlp"], st["sets"], st["seed"]
    if pipeline == "direct":
        graph = compile_direct(net_mlp, fmt)
    else:
        graph, _ = compile_distilled(pipeline, net_mlp, sets, fmt, params, seed)
    report = analysis.evaluate_packed(
        graph,
        st["words"],
        st["labels"],
        st["n_test"],
        pipeline=pipeline,
        config=params,
    )
    return report


def _init_sweep(state):
    _SWEEP_STATE.update(state)


def sweep_experiments(
    data: LabeledDataset,
    cfg: PipelineConfig,
    grid: SweepGrid,
    workers: int | None = None,
) -> list[analysis.EvaluationReport]:
    """Run every grid point of every pipeline; reports in grid order.

    The MLP and the distillation sets are shared across grid points; each
    point trains its own distilled models, compiles, and evaluates on the
    held-out test rows.
    """
    train_idx, test_idx = stratified_split(data, cfg.test_fraction, cfg.split_seed)
    train_data = data.subset(train_idx)
    test_data = data.subset(test_idx)
    net_mlp = mlp.train(
        train_data, cfg.hidden_nodes, cfg.epochs, cfg.learning_rate, cfg.seed
    )
    fmt = cfg.fmt
    sets = mlp.extract_distillation_sets(net_mlp, train_data, fmt)
    words, n_test = analysis.dataset_input_words(test_data.features, fmt, net_mlp.scaler)
    state = {
        "fmt": fmt,
        "mlp": net_mlp,
        "sets": sets,
        "seed": cfg.seed,
        "words": words,
        "labels": test_data.labels,
        "n_test": n_test,
    }
    tasks = grid.points()
    n_workers = min(workers if workers is not None else worker_count(), len(tasks))
    if n_workers <= 1:
        _init_sweep(state)
        return [_sweep_point(t) for t in tasks]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(n_workers, initializer=_init_sweep, initargs=(state,)) as pool:
        return pool.map(_sweep_point, tasks)
