"""Smoke test of the benchmark: tiny workloads, and checks that catch faults.

Runs in a few seconds under ``python -m pytest bench``.  The tiny scale
keeps the workloads' structure (three flows, AIGER, reports, SAT queries)
at a size where everything finishes at once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import run as bench  # noqa: E402

TINY = bench.Scale(
    n_samples=400,
    n_features=5,
    hidden=4,
    epochs=300,
    total_bits=6,
    fractional_bits=4,
    probe_rows=60,
    setups={"paper-flows": 1, "large-flows": 1, "verify": 1},
    min_rounds={"paper-flows": 1, "large-flows": 1, "verify": 1},
    paper={
        "direct": {},
        "rf": {"estimators": 2, "max_depth": 3},
        "logicnet": {"depth": 2, "width": 8, "lut_size": 3},
    },
    large={
        "direct": {},
        "rf": {"estimators": 2, "max_depth": 4},
        "logicnet": {"depth": 2, "width": 12, "lut_size": 3},
    },
)


def _tiny_bench(seed: int = 5) -> bench.Bench:
    b = bench.Bench(bench.load_program(ROOT), TINY, seed, bench.Tracer(False), "")
    b.set_up()
    return b


def _names(entries) -> list[str]:
    return [e["name"] for e in entries]


def test_workloads_run_clean_and_report_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = set(_names(spec["end_to_end"]))
    for workload in bench.WORKLOADS:
        result = bench.run(workload, 3, 0, False, TINY, ROOT)
        assert result["correct"] and result["failed"] == 0, result
        assert set(result["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in result["metrics"].values())
        traced = bench.run(workload, 3, 0, True, TINY, ROOT)
        assert traced["correct"] and traced["failed"] == 0
        assert set(traced["metrics"]) == {n for n, _ in bench.per_layer_names(TINY)}
    assert _names(spec["per_layer"]) == [n for n, _ in bench.per_layer_names()]


def test_composition_matches_pipeline_compile():
    b = _tiny_bench()
    P = b.P
    sets = P["mlp"].extract_distillation_sets(b.net, b.train_data, b.fmt)
    rf, lg = TINY.paper["rf"], TINY.paper["logicnet"]
    seed = TINY.distill_seed
    theirs = {
        "direct": P["pipeline"].compile_direct(b.net, b.fmt),
        "rf": P["pipeline"].compile_rf(
            b.net, sets, b.fmt, rf["estimators"], rf["max_depth"], seed
        )[0],
        "logicnet": P["pipeline"].compile_logicnet(
            b.net, sets, b.fmt, lg["depth"], lg["width"], lg["lut_size"], seed
        )[0],
    }
    for flow, (graph, _) in b.compile_flows(TINY.paper).items():
        other = theirs[flow]
        assert (graph.fanin0, graph.fanin1, graph.outputs) == (
            other.fanin0,
            other.fanin1,
            other.outputs,
        )


def test_flow_check_catches_flipped_decision_and_swapped_words():
    b = _tiny_bench()
    m = TINY.total_bits
    rows = b.lane_rows()
    A = b.P["aig"]
    for flow, (graph, models) in b.compile_flows(TINY.paper).items():
        expected = b.expected(flow, models, rows)
        outs = A.simulate_batch(graph, b.lane_words, b.n_lanes)
        assert bench.check_flow(outs, expected, m) == []
        graph.outputs[-1] ^= 1  # flipped decision literal
        flipped = A.simulate_batch(graph, b.lane_words, b.n_lanes)
        assert any("decision" in p for p in bench.check_flow(flipped, expected, m))
        graph.outputs[-1] ^= 1
        graph.outputs[:m], graph.outputs[m : 2 * m] = graph.outputs[m : 2 * m], graph.outputs[:m]
        swapped = A.simulate_batch(graph, b.lane_words, b.n_lanes)
        assert any("word" in p for p in bench.check_flow(swapped, expected, m)), flow


def test_witness_check_catches_a_decision_changing_flip():
    b = _tiny_bench()
    m = TINY.total_bits
    built = b.compile_flows(TINY.paper)
    circuits = {f: g for f, (g, _) in built.items()}
    ops = bench.Op()
    result = bench.verify_round(b, circuits, ops)
    assert ops.failed == 0
    bench.check_verify(b, built, result, ops)
    assert ops.failed == 0 and not b.problems
    simulate = b.P["aig"].simulate_aig
    caught = 0
    for q, spec in TINY.queries.items():
        bits = result["witnesses"][q]
        flows = spec if isinstance(spec[1], str) else (spec[0],)
        finals = [lambda row, f=f: b.expected(f, built[f][1], row) for f in flows]
        want = None if isinstance(spec[1], str) else spec[1]
        assert bench.check_witness(bits, finals, want, m) == []
        for k in range(len(bits)):
            corrupt = list(bits)
            corrupt[k] ^= 1
            decisions = [simulate(circuits[f], corrupt)[-1] for f in flows]
            bad = decisions[0] == decisions[1] if want is None else decisions[0] != want
            if bad:  # the circuit says this flip breaks the witness
                assert bench.check_witness(corrupt, finals, want, m), (q, k)
                caught += 1
                break
    assert caught >= 2


def test_reference_rejects_a_quantization_off_by_one():
    b = _tiny_bench()
    m, i = TINY.total_bits, TINY.fractional_bits
    rows = b.lane_rows()
    layers = [(l.weights, l.bias, l.activation == "relu") for l in b.net.layers]
    good = ref.direct_forward(layers, rows, m, i)[-1]
    graph, _ = b.compile_flows({"direct": {}})["direct"]
    outs = b.P["aig"].simulate_batch(graph, b.lane_words, b.n_lanes)
    assert bench.check_flow(outs, good, m) == []
    bumped = [(w + 2.0**-i, bias, relu) for w, bias, relu in layers]  # one LSB more
    assert bench.check_flow(outs, ref.direct_forward(bumped, rows, m, i)[-1], m)


def test_sweep_reports_identical_at_one_and_two_workers():
    P = bench.load_program(ROOT)
    data = P["datasets"].make_overlapping_gaussians(200, 4, seed=1)
    cfg = P["pipeline"].PipelineConfig(hidden_nodes=3, epochs=60, total_bits=6, fractional_bits=4)
    grid = P["pipeline"].SweepGrid(
        rf_estimators=[1, 2], rf_max_depth=[2], lgn_depth=[1], lgn_width=[4], lgn_lut_size=[2]
    )
    tables = [
        P["analysis"].results_table(P["pipeline"].sweep_experiments(data, cfg, grid, workers=w))
        for w in (1, 2)
    ]
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 1 + len(grid.points())


def test_fails_without_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_out").exists()
