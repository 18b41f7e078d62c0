"""Benchmark of nn2logic: compile time, circuit size, accuracy and SAT work.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-flows --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md):

* ``paper-flows``: compile the direct, rf and logicnet flows at the paper's
  points, round-trip each circuit through AIGER, score it and emit its
  equation report;
* ``large-flows``: the direct flow plus one rf and one logicnet point
  several times larger than the paper's, compiled and scored with the calls
  ``nn2logic sweep`` makes, run serially;
* ``verify``: SAT queries with known satisfiable answers on the paper-flows
  circuits, which the set-up builds.

Every workload trains the same MLP on data set W1 during set-up.  The
``--seed`` draws random probe rows that every circuit is simulated on next
to the test rows and checked against ``bench/reference.py``.  The timed part
repeats whole rounds of operations until ``--seconds`` have passed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from in-memory spans with ``--trace 1``.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, extra threads only contend for
# the CPU, and results then do not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import reference as ref  # noqa: E402
from gauge import SpeedGauge  # noqa: E402
from tracing import Tracer  # noqa: E402

FLOWS = ("direct", "rf", "logicnet")
LAYERS = ("mlp", "forest", "lutnet", "netlist", "aig", "analysis", "sat", "pipeline")
OUT_DIR = ".bench_out"


@dataclass
class Scale:
    """Everything that sizes a workload; ``W1`` is the benchmark's data set."""

    n_samples: int = 3000
    n_features: int = 27
    data_seed: int = 0
    split_seed: int = 0
    test_fraction: float = 0.2
    hidden: int = 20
    epochs: int = 1500
    learning_rate: float = 0.01
    mlp_seed: int = 0
    distill_seed: int = 0
    total_bits: int = 8
    fractional_bits: int = 6
    probe_rows: int = 424
    setups: dict = field(default_factory=lambda: {"paper-flows": 2, "large-flows": 2, "verify": 1})
    # the timed part runs at least this many rounds, then until --seconds pass
    min_rounds: dict = field(
        default_factory=lambda: {"paper-flows": 1, "large-flows": 1, "verify": 2}
    )
    paper: dict = field(
        default_factory=lambda: {
            "direct": {},
            "rf": {"estimators": 3, "max_depth": 5},
            "logicnet": {"depth": 2, "width": 50, "lut_size": 4},
        }
    )
    large: dict = field(
        default_factory=lambda: {
            "direct": {},
            "rf": {"estimators": 2, "max_depth": 7},
            "logicnet": {"depth": 2, "width": 100, "lut_size": 5},
        }
    )
    # name -> (flow, decision demanded) for onset queries, (flow_a, flow_b) for miters
    queries: dict = field(
        default_factory=lambda: {
            "logicnet.onset1": ("logicnet", 1),
            "logicnet.onset0": ("logicnet", 0),
            "rf-logicnet.miter": ("rf", "logicnet"),
        }
    )


W1 = Scale()
WORKLOADS = ("paper-flows", "large-flows", "verify")


def load_program(root: str):
    """Import nn2logic from ``root/src``; fail when it is absent."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "nn2logic", "__init__.py")):
        raise SystemExit(f"bench: no nn2logic sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    from nn2logic import aig, analysis, datasets, forest, lutnet, mlp, netlist, pipeline, sat
    from nn2logic.fixedpoint import FixedPointFormat

    return dict(
        aig=aig, analysis=analysis, datasets=datasets, forest=forest, lutnet=lutnet,
        mlp=mlp, netlist=netlist, pipeline=pipeline, sat=sat, Fmt=FixedPointFormat,
    )


# -- lane packing: one sample per bit of a Python int -------------------------


def pack_lanes(rows: np.ndarray, m: int) -> list[int]:
    """Input words of the circuit: word k's bit j (lsb first) across all rows."""
    u = np.asarray(rows, dtype=np.int64) & ((1 << m) - 1)
    words = []
    for k in range(u.shape[1]):
        for j in range(m):
            col = ((u[:, k] >> j) & 1).astype(np.uint8)
            words.append(int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little"))
    return words


def unpack_lanes(word: int, n: int) -> np.ndarray:
    raw = np.frombuffer(word.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def circuit_words(outs: list[int], n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) signed class words and the n decisions from simulated outputs."""
    if len(outs) != 2 * m + 1:
        raise ValueError(f"expected {2 * m + 1} outputs, got {len(outs)}")
    final = np.zeros((n, 2), dtype=np.int64)
    for c in range(2):
        for j in range(m):
            final[:, c] |= unpack_lanes(outs[c * m + j], n).astype(np.int64) << j
    final = np.where(final >= 1 << (m - 1), final - (1 << m), final)
    return final, unpack_lanes(outs[2 * m], n)


# -- the benchmark state --------------------------------------------------------


class Bench:
    def __init__(self, P: dict, scale: Scale, seed: int, tracer: Tracer, workdir: str):
        self.P = P
        self.scale = scale
        self.seed = seed
        self.tr = tracer
        self.workdir = workdir
        self.fmt = P["Fmt"](scale.total_bits, scale.fractional_bits)
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []

    # set-up -------------------------------------------------------------------

    def set_up(self) -> None:
        """Data set W1, its split, the trained MLP and the scoring lanes."""
        P, s, tr = self.P, self.scale, self.tr
        data = P["datasets"].make_overlapping_gaussians(s.n_samples, s.n_features, seed=s.data_seed)
        train_idx, test_idx = P["datasets"].stratified_split(data, s.test_fraction, s.split_seed)
        self.train_data = data.subset(train_idx)
        self.test_data = data.subset(test_idx)
        with tr.span("mlp.train"):
            self.net = P["mlp"].train(
                self.train_data, s.hidden, s.epochs, s.learning_rate, s.mlp_seed
            )
        self.test_words, self.n_test = P["analysis"].dataset_input_words(
            self.test_data.features, self.fmt, self.net.scaler
        )
        rng = np.random.default_rng(self.seed)
        m = s.total_bits
        self.probe = rng.integers(-(1 << (m - 1)), 1 << (m - 1), size=(s.probe_rows, s.n_features))
        probe_words = pack_lanes(self.probe, m)
        self.lane_words = [
            t | (p << self.n_test) for t, p in zip(self.test_words, probe_words)
        ]
        self.n_lanes = self.n_test + s.probe_rows

    # compile ------------------------------------------------------------------

    def compile_flows(self, points: dict, ops: "Op | None" = None) -> dict:
        """Trained MLP to swept AIG for every flow; each flow is one operation.

        Returns flow -> (graph, models), or flow -> None for a compile that
        raised under ``ops``; without ``ops`` errors propagate.
        """
        with self.tr.span("mlp.distill_sets"):
            sets = self.P["mlp"].extract_distillation_sets(self.net, self.train_data, self.fmt)
        call = ops.run if ops is not None else (lambda fn, *args: fn(*args))
        return {flow: call(self.compile_flow, flow, p, sets) for flow, p in points.items()}

    def compile_flow(self, flow: str, p: dict, sets) -> tuple:
        """The calls pipeline.compile_direct/compile_rf/compile_logicnet make."""
        P, tr, fmt = self.P, self.tr, self.fmt
        m = fmt.total_bits
        seed = self.scale.distill_seed
        models = None
        with tr.span(f"{flow}.pipeline.compile"):
            if flow == "direct":
                with tr.span("direct.netlist.build"):
                    word_net = P["netlist"].build_network_direct(self.net, fmt)
            elif flow == "rf":
                with tr.span("rf.forest.train"):
                    models = P["pipeline"].train_rf_modules(
                        sets, p["estimators"], p["max_depth"], seed
                    )
                with tr.span("rf.netlist.build"):
                    word_net = self._cascade(models, lambda ms: P["forest"].forest_module(ms, m))
            else:
                with tr.span("logicnet.lutnet.train"):
                    models = P["pipeline"].train_lgn_modules(
                        sets, p["depth"], p["width"], p["lut_size"], seed
                    )
                with tr.span("logicnet.netlist.build"):
                    word_net = self._cascade(models, lambda ns: P["lutnet"].logicnet_module(ns, m))
            with tr.span(f"{flow}.aig.lower"):
                lowered = P["aig"].lower_netlist(word_net)
            with tr.span(f"{flow}.aig.sweep"):
                graph = P["aig"].sweep(lowered)
        if tr.enabled:
            c = self.counts
            c[f"{flow}.netlist.gates"] = len(word_net.gates)
            c[f"{flow}.aig.lowered_nodes"] = lowered.and_count()
            c[f"{flow}.aig.live_ratio"] = graph.and_count() / max(1, lowered.and_count())
            if flow == "rf":
                c["rf.forest.leaves"] = sum(
                    _leaves(t.root) for ms in models.values() for f in ms for t in f.trees
                )
            if flow == "logicnet":
                c["logicnet.lutnet.live_luts"] = sum(1 for g in word_net.gates if g.kind == "LUT")
        return graph, models

    def _cascade(self, models: dict, build):
        sizes = self.net.layer_sizes
        rows = [[build(models[(l, n)]) for n in range(sizes[l])] for l in range(1, len(sizes))]
        return self.P["netlist"].cascade_modules(rows, sizes, self.fmt)

    # expected outputs -------------------------------------------------------------

    def lane_rows(self) -> np.ndarray:
        s = self.scale
        test_rows = ref.input_rows(
            self.test_data.features, self.net.scaler.minimum, self.net.scaler.maximum,
            s.total_bits, s.fractional_bits,
        )
        return np.vstack([test_rows, self.probe])

    def expected(self, flow: str, models, rows: np.ndarray) -> np.ndarray:
        """Reference final words (n, 2) of one flow on integer input rows."""
        s = self.scale
        m, i = s.total_bits, s.fractional_bits
        if flow == "direct":
            layers = [(l.weights, l.bias, l.activation == "relu") for l in self.net.layers]
            return ref.direct_forward(layers, rows, m, i)[-1]
        bit_fn = ref.forest_bit if flow == "rf" else ref.lutnet_bit
        return ref.distilled_forward(models, self.net.layer_sizes, rows, m, bit_fn)[-1]


def _leaves(node) -> int:
    return 1 if node.feature is None else _leaves(node.left) + _leaves(node.right)


# -- checks (outside the timed part) ---------------------------------------------


def check_flow(outs: list[int], expected_final: np.ndarray, m: int) -> list[str]:
    """Circuit class words and decisions must equal the reference on every lane."""
    n = len(expected_final)
    final, decision = circuit_words(outs, n, m)
    problems = []
    want = ref.decide(expected_final)
    if not np.array_equal(decision, want):
        problems.append(f"decision differs on {int((decision != want).sum())} of {n} rows")
    for c in range(2):
        bad = int((final[:, c] != expected_final[:, c]).sum())
        if bad:
            problems.append(f"class-{c} word differs on {bad} of {n} rows")
    return problems


def check_witness(bits: list[int], finals: list, want: int | None, m: int) -> list[str]:
    """Decode a SAT witness into input words and judge it by the reference.

    ``finals`` maps one input row to the reference final words of each flow
    involved.  An onset witness must give decision ``want``; a miter witness
    (``want`` None) must make the two flows decide differently.
    """
    n_words = len(bits) // m
    row = np.zeros((1, n_words), dtype=np.int64)
    for k in range(n_words):
        for j in range(m):
            row[0, k] |= int(bits[k * m + j]) << j
    row = np.where(row >= 1 << (m - 1), row - (1 << m), row)
    decisions = [int(ref.decide(f(row))[0]) for f in finals]
    if want is None:
        return [] if decisions[0] != decisions[1] else [f"miter witness: both decide {decisions[0]}"]
    return [] if decisions[0] == want else [f"onset witness decides {decisions[0]}, want {want}"]


# -- workloads -------------------------------------------------------------------


class Op:
    """Attempted/failed bookkeeping: an operation fails when it raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def flows_round(b: Bench, points: dict, ops: Op, with_io: bool) -> dict:
    """One timed round of paper-flows (``with_io``) or large-flows."""
    P, tr = b.P, b.tr
    t0 = time.perf_counter()
    built = b.compile_flows(points, ops)
    t_compile = time.perf_counter() - t0
    out = {}
    for flow, compiled in built.items():
        graph, models = compiled if compiled is not None else (None, None)
        circuit = graph
        if with_io:
            path = os.path.join(b.workdir, f"{flow}.aag")

            def round_trip(g=graph, flow=flow, path=path):
                with tr.span(f"{flow}.aig.write"):
                    P["aig"].write_aiger(g, path)
                with tr.span(f"{flow}.aig.read"):
                    back = P["aig"].read_aiger(path)
                if tr.enabled:
                    b.counts[f"{flow}.aig.aiger_mb"] = os.path.getsize(path) / 2**20
                return back

            circuit = ops.run(round_trip) if graph is not None else ops.run(_missing, flow)

        def score(g=circuit, flow=flow):
            with tr.span(f"{flow}.aig.simulate"):
                outs = P["aig"].simulate_batch(g, b.lane_words, b.n_lanes)
            with tr.span(f"{flow}.analysis.evaluate"):
                rep = P["analysis"].evaluate_packed(
                    g, b.test_words, b.test_data.labels, b.n_test, pipeline=flow
                )
            return outs, rep

        scored = ops.run(score) if circuit is not None else ops.run(_missing, flow)
        report = None
        if with_io:

            def equations(g=circuit, flow=flow):
                with tr.span(f"{flow}.analysis.report"):
                    rep = P["analysis"].emit_equations(g, title=flow)
                    text = rep.render()
                if tr.enabled:
                    b.counts[f"{flow}.analysis.report_lines"] = len(rep.lines)
                return text

            report = ops.run(equations) if circuit is not None else ops.run(_missing, flow)
        out[flow] = dict(graph=graph, models=models, circuit=circuit, scored=scored, report=report)
    return dict(run_s=time.perf_counter() - t0, compile_s=t_compile, flows=out)


def _missing(flow):
    raise RuntimeError(f"{flow}: no circuit to work on")


def check_flows(b: Bench, result: dict, ops: Op) -> dict:
    """Judge a flows round; failed checks count the operation as failed."""
    P, m = b.P, b.scale.total_bits
    rows = b.lane_rows()
    figures = {}
    for flow, r in result["flows"].items():
        if r["scored"] is None:
            continue
        outs, rep = r["scored"]
        expected = b.expected(flow, r["models"], rows)
        problems = check_flow(outs, expected, m)
        if r["circuit"] is not r["graph"] and r["circuit"] is not None:
            same = P["aig"].stats(r["graph"]) == P["aig"].stats(r["circuit"])
            sim = P["aig"].simulate_batch(r["graph"], b.lane_words, b.n_lanes) == outs
            if not (same and sim):
                problems.append("AIGER read-back differs from the written circuit")
        if r["report"] is not None:
            and_lines = sum(1 for ln in r["report"].splitlines() if " AND " in ln)
            if and_lines != r["circuit"].and_count():
                problems.append(f"report has {and_lines} AND lines for {r['circuit'].and_count()} nodes")
        labels = np.asarray(b.test_data.labels)
        want_acc = float(np.mean(ref.decide(expected[: b.n_test]) == labels))
        if abs(rep.accuracy - want_acc) > 1e-12:
            problems.append(f"accuracy {rep.accuracy} differs from the reference's {want_acc}")
        if problems:
            ops.failed += 1
            b.problems += [f"{flow}: {p}" for p in problems]
        nodes, levels = P["aig"].stats(r["circuit"])
        figures[flow] = dict(and_nodes=nodes, levels=levels, test_acc=rep.accuracy)
    return figures


def query_graph(b: Bench, circuits: dict, spec) -> object:
    A = b.P["aig"]
    first = circuits[spec[0]]
    h = A.AigGraph()
    ins = [h.add_input(name) for name in first.input_names]
    if isinstance(spec[1], str):
        d0 = A.import_graph(h, circuits[spec[0]], ins)[-1]
        d1 = A.import_graph(h, circuits[spec[1]], ins)[-1]
        h.add_output(h.xor2(d0, d1), "miter")
    else:
        d = A.import_graph(h, first, ins)[-1]
        h.add_output(d if spec[1] else d ^ 1, "onset")
    return h


def verify_round(b: Bench, circuits: dict, ops: Op) -> dict:
    S, tr = b.P["sat"], b.tr
    t0 = time.perf_counter()
    witnesses = {}
    for q, spec in b.scale.queries.items():

        def query(q=q, spec=spec):
            with tr.span(f"{q}.aig.miter"):
                h = query_graph(b, circuits, spec)
            with tr.span(f"{q}.sat.tseitin"):
                formula, input_map = S.tseitin(h, 0)
            with tr.span(f"{q}.sat.solve"):
                model = S.solve(formula)
            if tr.enabled:
                b.counts[f"{q}.sat.cnf_vars"] = formula.num_vars
                b.counts[f"{q}.sat.cnf_clauses"] = len(formula.clauses)
                b.counts[f"{q}.sat.miter_nodes"] = h.and_count()
            if model is None:
                return []  # unsatisfiable
            return [int(model[input_map[p]]) for p in range(len(h.inputs))]

        witnesses[q] = ops.run(query)
    return dict(run_s=time.perf_counter() - t0, witnesses=witnesses)


def check_verify(b: Bench, built: dict, result: dict, ops: Op) -> None:
    m = b.scale.total_bits
    for q, spec in b.scale.queries.items():
        bits = result["witnesses"][q]
        if bits is None:
            continue  # raised: already counted as failed
        flows = spec if isinstance(spec[1], str) else (spec[0],)
        finals = [lambda row, f=f: b.expected(f, built[f][1], row) for f in flows]
        want = None if isinstance(spec[1], str) else spec[1]
        if bits:
            problems = check_witness(bits, finals, want, m)
        else:
            problems = ["unsatisfiable, yet the test rows show a witness"]
        if problems:
            ops.failed += 1
            b.problems += [f"{q}: {p}" for p in problems]


def run(
    workload: str, seed: int, seconds: float, trace: bool, scale: Scale = W1, root: str = "."
) -> dict:
    """Run one workload on the checkout at ``root``; returns the result object.

    Scratch files and the trace go to ``root/.bench_out``.
    """
    if workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; choose from {WORKLOADS}")
    P = load_program(root)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    b = Bench(P, scale, seed, Tracer(trace), workdir)
    try:
        result = _run(b, workload, seconds, trace)
        if trace:
            b.tr.write(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(b: Bench, workload: str, seconds: float, trace: bool) -> dict:
    """Set up, run timed rounds and check them, reading the gauge in between."""
    tracer, scale = b.tr, b.scale
    gauge = SpeedGauge()
    wall: dict[str, list[float]] = {"setup_s": [], "compile_s": [], "run_s": [], "traced_s": []}
    built = None
    gauge.read()
    for _ in range(scale.setups[workload]):
        built = None  # free the previous set-up's circuits before building anew
        t0 = time.perf_counter()
        with tracer.span("setup"):
            b.set_up()
            if workload == "verify":
                t1 = time.perf_counter()
                built = b.compile_flows(scale.paper)
                wall["compile_s"].append(time.perf_counter() - t1)
        wall["setup_s"].append(time.perf_counter() - t0)
        gauge.read()

    ops = Op()
    figures: dict = {}
    circuits = {f: g for f, (g, _) in built.items()} if built else None
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for traced in ((False, True) if trace else (False,)):
            tracer.enabled = traced
            with tracer.span("round"):
                if workload == "verify":
                    result = verify_round(b, circuits, ops)
                else:
                    points = scale.paper if workload == "paper-flows" else scale.large
                    result = flows_round(b, points, ops, with_io=workload == "paper-flows")
            tracer.enabled = False
            gauge.read()
            wall["traced_s" if traced else "run_s"].append(result["run_s"])
            if workload == "verify":
                check_verify(b, built, result, ops)
            else:
                if not traced:
                    wall["compile_s"].append(result["compile_s"])
                figures = check_flows(b, result, ops)
            del result
            gauge.read()
        if rounds >= scale.min_rounds[workload] and time.perf_counter() - start >= seconds:
            break
    median_wall = {k: round(statistics.median(v), 4) for k, v in wall.items() if v}
    print(f"bench: wall seconds {median_wall}, gauge factor {gauge.factor():.4f}",
          file=sys.stderr)
    if workload == "verify":
        figures = verify_figures(b, built)

    if trace:
        metrics = per_layer_metrics(b, wall)
    else:
        factor = gauge.factor()
        metrics = {
            k: (statistics.median(wall[k]) * factor, "s") for k in ("setup_s", "run_s", "compile_s")
        }
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        for flow in FLOWS:
            f = figures.get(flow)
            if f is None:
                continue
            metrics[f"{flow}.and_nodes"] = (f["and_nodes"], "count")
            metrics[f"{flow}.levels"] = (f["levels"], "count")
            metrics[f"{flow}.test_acc"] = (f["test_acc"], "ratio")
    for p in b.problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not b.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def verify_figures(b: Bench, built: dict) -> dict:
    """Size and test accuracy of the set-up's circuits, checked like paper-flows.

    Also confirms that the test rows hold a witness for every query, which
    is why an unsatisfiable answer counts as a failed check.
    """
    P, m = b.P, b.scale.total_bits
    rows = b.lane_rows()
    figures, decisions = {}, {}
    for flow, (graph, models) in built.items():
        expected = b.expected(flow, models, rows)
        decisions[flow] = ref.decide(expected[: b.n_test])
        outs = P["aig"].simulate_batch(graph, b.lane_words, b.n_lanes)
        b.problems += [f"{flow}: {p}" for p in check_flow(outs, expected, m)]
        rep = P["analysis"].evaluate_packed(graph, b.test_words, b.test_data.labels, b.n_test)
        nodes, levels = P["aig"].stats(graph)
        figures[flow] = dict(and_nodes=nodes, levels=levels, test_acc=rep.accuracy)
    for q, (first, second) in b.scale.queries.items():
        if isinstance(second, str):
            found = (decisions[first] != decisions[second]).any()
        else:
            found = (decisions[first] == second).any()
        if not found:
            b.problems.append(f"{q}: no test row is a witness; choose another query")
    return figures


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer_names(scale: Scale = W1) -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [("mlp.train_s", "s"), ("mlp.distill_sets_s", "s"),
             ("rf.forest.train_s", "s"), ("rf.forest.leaves", "count"),
             ("logicnet.lutnet.train_s", "s"), ("logicnet.lutnet.live_luts", "count")]
    for flow in FLOWS:
        names += [
            (f"{flow}.netlist.build_s", "s"), (f"{flow}.netlist.gates", "count"),
            (f"{flow}.aig.lower_s", "s"), (f"{flow}.aig.lowered_nodes", "count"),
            (f"{flow}.aig.sweep_s", "s"), (f"{flow}.aig.live_ratio", "ratio"),
            (f"{flow}.aig.write_s", "s"), (f"{flow}.aig.read_s", "s"),
            (f"{flow}.aig.aiger_mb", "MB"), (f"{flow}.aig.simulate_s", "s"),
            (f"{flow}.analysis.evaluate_s", "s"), (f"{flow}.analysis.report_s", "s"),
            (f"{flow}.analysis.report_lines", "count"),
            (f"{flow}.pipeline.compile_s", "s"),
        ]
    for q in scale.queries:
        names += [
            (f"{q}.sat.tseitin_s", "s"), (f"{q}.sat.cnf_vars", "count"),
            (f"{q}.sat.cnf_clauses", "count"), (f"{q}.sat.solve_s", "s"),
            (f"{q}.sat.miter_nodes", "count"),
        ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names.append(("trace.overhead_s", "s"))
    return names


def per_layer_metrics(b: Bench, wall: dict) -> dict:
    """Span medians and counts; a layer a workload does not call reads 0."""
    spans = b.tr.medians()
    selfs = b.tr.self_times("round")
    out = {}
    for name, unit in per_layer_names(b.scale):
        if name == "trace.overhead_s":
            value = statistics.median(wall["traced_s"]) - statistics.median(wall["run_s"])
        elif name.endswith(".self_s"):
            value = selfs.get(name[: -len(".self_s")], 0.0)
        elif unit == "s":
            value = spans.get(name[: -len("_s")], 0.0)
        else:
            value = b.counts.get(name, 0)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
