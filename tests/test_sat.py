import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import propagate_reference, solver_load_reference, tseitin_reference

from nn2logic.aig import AigGraph, import_graph, lower_netlist, simulate_aig
from nn2logic.netlist import Netlist, build_neuron
from nn2logic.sat import (
    CnfFormula,
    _Cdcl,
    check_equivalence,
    find_onset_vector,
    solve,
    tseitin,
)


def brute_force_sat(num_vars: int, clauses) -> bool:
    """Bitset enumeration over all 2**num_vars assignments."""
    n = 1 << num_vars
    idx = np.arange(n, dtype=np.uint64)
    var_bits = [((idx >> np.uint64(v)) & np.uint64(1)).astype(bool) for v in range(num_vars)]
    ok = np.ones(n, dtype=bool)
    for cl in clauses:
        cl_sat = np.zeros(n, dtype=bool)
        for d in cl:
            bits = var_bits[abs(d) - 1]
            cl_sat |= bits if d > 0 else ~bits
        ok &= cl_sat
    return bool(ok.any())


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(vs, signs)])
    return clauses


def test_simple_sat():
    f = CnfFormula(2, [[1, 2], [-1]])
    model = solve(f)
    assert model is not None
    assert model[1] is False and model[2] is True


def test_simple_unsat():
    assert solve(CnfFormula(1, [[1], [-1]])) is None


def test_empty_clause_unsat():
    assert solve(CnfFormula(1, [[]])) is None


def test_no_clauses_sat():
    assert solve(CnfFormula(3, [])) is not None


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, [[0]])
    with pytest.raises(ValueError):
        CnfFormula(2, [[3]])
    with pytest.raises(ValueError, match="literal 3 out of range for 2 vars"):
        CnfFormula(2, [[1, 3], [0], [-4]])
    with pytest.raises(ValueError, match=f"literal {-2**70} out of range"):
        CnfFormula(2, [[1], [-2**70]])
    with pytest.raises(ValueError, match="starts"):
        CnfFormula.from_arrays(2, [1, 2], [0, 3])
    with pytest.raises(ValueError, match="num_vars"):
        CnfFormula(-1, [])


@pytest.mark.parametrize("literal", [1.5, "1", None, 2.0, np.float64(1)])
def test_formula_rejects_non_integer_literals(literal):
    message = f"literal {literal!r} in clause 1 is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        CnfFormula(2, [[1, -2], [2, literal]])


def test_formula_accepts_integer_types():
    f = CnfFormula(2, [[np.int64(1), True], (-2,)])
    assert f.lits.dtype == np.int64 and f.lits.tolist() == [1, 1, -2]
    assert f.starts.tolist() == [0, 2, 3]
    assert solve(f) == [False, True, False]


def test_clauses_is_a_read_only_view():
    f = CnfFormula(3, [[1, -2], [], [3]])
    assert len(f.clauses) == 3
    assert list(f.clauses) == [[1, -2], [], [3]]
    assert f.clauses[-1] == [3]
    with pytest.raises(IndexError):
        f.clauses[3]
    with pytest.raises(TypeError):
        f.clauses[0] = [1]
    with pytest.raises(ValueError):
        f.lits[0] = 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_3cnf_matches_brute_force(data):
    num_vars = data.draw(st.integers(3, 12))
    num_clauses = data.draw(st.integers(1, 5 * num_vars))
    clauses = random_3cnf(num_vars, num_clauses, data.draw(st.integers(0, 2**31)))
    f = CnfFormula(num_vars, clauses)
    model = solve(f)
    assert (model is not None) == brute_force_sat(num_vars, clauses)


def test_tseitin_assignment_matches_simulation():
    g = AigGraph()
    a = g.add_input("a")
    b = g.add_input("b")
    c = g.add_input("c")
    g.add_output(g.and2(g.xor2(a, b), c))
    formula, input_map = tseitin(g, 0)
    model = solve(formula)
    assert model is not None
    bits = [int(model[input_map[k]]) for k in range(3)]
    assert simulate_aig(g, bits) == [1]


def test_find_onset_vector_constant_false():
    g = AigGraph()
    g.add_input("a")
    g.add_output(0)
    assert find_onset_vector(g, 0) is None


def test_find_onset_vector_on_neurons():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(10):
        weights = tuple(int(w) for w in rng.integers(-8, 8, size=2))
        g = lower_netlist(build_neuron((weights, 0, 2, True), 4))
        for out_idx in range(len(g.outputs)):
            vec = find_onset_vector(g, out_idx)
            if vec is not None:
                assert simulate_aig(g, vec)[out_idx] == 1
                found += 1
    assert found > 0


def test_equivalence_self():
    g = AigGraph()
    a = g.add_input()
    b = g.add_input()
    g.add_output(g.or2(a, b))
    assert check_equivalence(g, g) is None


def test_equivalence_detects_complement():
    g = AigGraph()
    a = g.add_input()
    b = g.add_input()
    g.add_output(g.and2(a, b))
    h = AigGraph()
    a2 = h.add_input()
    b2 = h.add_input()
    h.add_output(h.and2(a2, b2) ^ 1)
    vec = check_equivalence(g, h)
    assert vec is not None
    assert simulate_aig(g, vec) != simulate_aig(h, vec)


def hand_adder(width: int) -> AigGraph:
    g = AigGraph()
    a = [g.add_input(f"a[{j}]") for j in range(width)]
    b = [g.add_input(f"b[{j}]") for j in range(width)]
    carry = 0
    for x, y in zip(a, b):
        axy = g.xor2(x, y)
        g.add_output(g.xor2(axy, carry))
        # majority via a different decomposition than the production lowering
        carry = g.or2(g.or2(g.and2(x, y), g.and2(x, carry)), g.and2(y, carry))
    return g


def test_netlist_adder_equivalent_to_hand_adder():
    net = Netlist()
    a = net.add_input(4, "a")
    b = net.add_input(4, "b")
    net.set_output(net.add_gate("ADD", (a, b)))
    lowered = lower_netlist(net)
    assert check_equivalence(lowered, hand_adder(4)) is None


def test_mismatched_interfaces_rejected():
    g = AigGraph()
    g.add_input()
    g.add_output(0)
    h = AigGraph()
    h.add_input()
    h.add_input()
    h.add_output(0)
    with pytest.raises(ValueError):
        check_equivalence(g, h)


class ScanCdcl(_Cdcl):
    """Oracle: the solver with a linear scan over all variables in ``decide``."""

    def decide(self) -> bool:
        best = -1
        best_act = -1.0
        for v in range(self.nv):
            if self.assigns[v] < 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        if best < 0:
            return False
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self.enqueue(2 * best + (0 if self.phase[best] else 1), -1)
        return True


def assert_heap_valid(s: _Cdcl) -> None:
    """Heap order (activity descending, index ascending), ``pos`` and membership."""
    def key(v):
        return (-s.activity[v], v)

    for i, v in enumerate(s.heap):
        assert s.pos[v] == i
        if i:
            assert key(s.heap[(i - 1) >> 1]) < key(v)
    in_heap = set(s.heap)
    for v in range(s.nv):
        if v not in in_heap:
            assert s.pos[v] == -1
            assert s.assigns[v] >= 0, f"unassigned variable {v} missing from the heap"


def assert_same_search(formula: CnfFormula, var_inc: float = 1.0, solver=_Cdcl) -> _Cdcl:
    heap_solver = solver(formula)
    scan_solver = ScanCdcl(formula)
    heap_solver.var_inc = scan_solver.var_inc = var_inc
    model = heap_solver.solve()
    assert model == scan_solver.solve()
    assert heap_solver.decisions == scan_solver.decisions
    assert heap_solver.conflicts == scan_solver.conflicts
    assert heap_solver.activity == scan_solver.activity
    assert_heap_valid(heap_solver)
    return heap_solver


@settings(max_examples=30, deadline=None)
@given(st.integers(80, 110), st.floats(4.0, 4.5), st.integers(0, 2**31))
def test_heap_search_matches_scan_on_random_3cnf(num_vars, ratio, seed):
    # Near the 3-SAT threshold most of these take over 100 conflicts, the
    # first restart.
    assert_same_search(CnfFormula(num_vars, random_3cnf(num_vars, int(ratio * num_vars), seed)))


def test_random_3cnf_at_threshold_restarts():
    s = assert_same_search(CnfFormula(100, random_3cnf(100, 426, 7)))
    assert s.conflicts > 250  # past the first two restarts (100, then 150)


def test_heap_search_matches_scan_on_neuron_queries():
    rng = np.random.default_rng(11)
    graphs = []
    for _ in range(4):
        weights = tuple(int(w) for w in rng.integers(-8, 8, size=3))
        g = lower_netlist(build_neuron((weights, 0, 2, True), 4))
        graphs.append(g)
        for out_idx in range(len(g.outputs)):
            formula, _ = tseitin(g, out_idx)
            assert_same_search(formula)
    for g1, g2 in zip(graphs, graphs[1:]):
        miter = AigGraph()
        ins = [miter.add_input() for _ in g1.inputs]
        diff = 0
        for a, b in zip(import_graph(miter, g1, ins), import_graph(miter, g2, ins)):
            diff = miter.or2(diff, miter.xor2(a, b))
        miter.add_output(diff)
        formula, _ = tseitin(miter, 0)
        assert_same_search(formula)


class ReferencePropagateCdcl(_Cdcl):
    """Oracle: the solver propagating through per-literal value and enqueue helpers."""

    propagate = propagate_reference


def assert_same_propagation(formula: CnfFormula) -> _Cdcl:
    """Inlined and reference propagation take the same search to the same model."""
    fast, slow = _Cdcl(formula), ReferencePropagateCdcl(formula)
    assert fast.solve() == slow.solve()
    assert (fast.decisions, fast.conflicts) == (slow.decisions, slow.conflicts)
    assert fast.activity == slow.activity
    assert fast.clauses == slow.clauses  # literal order, learnt clauses included
    assert fast.watches == slow.watches
    assert (fast.trail, fast.level, fast.reason) == (slow.trail, slow.level, slow.reason)
    return fast


@settings(max_examples=30, deadline=None)
@given(st.integers(20, 110), st.floats(3.0, 5.0), st.integers(0, 2**31))
def test_propagate_matches_reference_on_random_3cnf(num_vars, ratio, seed):
    clauses = random_3cnf(num_vars, int(ratio * num_vars), seed)
    assert_same_propagation(CnfFormula(num_vars, clauses))


def test_propagate_matches_reference_past_restarts():
    assert assert_same_propagation(CnfFormula(100, random_3cnf(100, 426, 7))).conflicts > 250


def test_propagate_matches_reference_on_neuron_queries():
    rng = np.random.default_rng(13)
    graphs = [
        lower_netlist(build_neuron((tuple(rng.integers(-8, 8, size=3).tolist()), 0, 2, True), 4))
        for _ in range(4)
    ]
    for g in graphs:
        for out_idx in range(len(g.outputs)):
            assert_same_propagation(tseitin(g, out_idx)[0])
    for g1, g2 in zip(graphs, graphs[1:]):
        miter = AigGraph()
        ins = [miter.add_input() for _ in g1.inputs]
        diff = 0
        for a, b in zip(import_graph(miter, g1, ins), import_graph(miter, g2, ins)):
            diff = miter.or2(diff, miter.xor2(a, b))
        miter.add_output(diff)
        assert_same_propagation(tseitin(miter, 0)[0])


class RescaleCheckedCdcl(_Cdcl):
    """Checks the heap right after each activity rescale."""

    rescales = 0

    def bump(self, var: int) -> None:
        before = self.var_inc
        super().bump(var)
        if self.var_inc < before:
            self.rescales += 1
            assert_heap_valid(self)


def test_heap_survives_activity_rescale_mid_search():
    s = assert_same_search(
        CnfFormula(100, random_3cnf(100, 426, 7)), var_inc=1e99, solver=RescaleCheckedCdcl
    )
    assert s.rescales >= 1 and s.conflicts > s.rescales


def test_rescale_rounding_tie_reorders_heap():
    # Two activities one ulp apart that the 1e-100 rescale rounds to the same
    # value: the lower index must then come first.
    low, high = 7.493860291067043e99, 7.493860291067044e99
    assert low < high and low * 1e-100 == high * 1e-100
    s = _Cdcl(CnfFormula(3, []))
    s.activity[:2] = [low, high]
    s._sift_up(s.pos[1])
    assert s.heap[0] == 1
    s.var_inc = 1.5e100
    s.bump(2)
    assert s.heap == [2, 0, 1]
    assert_heap_valid(s)


@st.composite
def messy_cnf(draw):
    """Clauses with repeated literals, tautologies, units and empty clauses."""
    n = draw(st.integers(1, 6))
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=6), max_size=30))
    for extra in draw(st.lists(st.sampled_from(["unit", "repeated unit", "empty"]), max_size=4)):
        d = draw(literal)
        clause = {"unit": [d], "repeated unit": [d, d], "empty": []}[extra]
        clauses.insert(draw(st.integers(0, len(clauses))), clause)
    return n, clauses


@settings(max_examples=300, deadline=None)
@given(messy_cnf())
def test_bulk_load_matches_clause_by_clause_reference(cnf):
    num_vars, clauses = cnf
    ok, stored, watches, trail = solver_load_reference(num_vars, clauses)
    s = _Cdcl(CnfFormula(num_vars, clauses))
    assert s.ok == ok
    if ok:
        assert s.clauses == stored
        assert s.watches == watches
        assert s.trail == trail
        on_trail = {e >> 1: (e & 1) ^ 1 for e in trail}
        assert s.assigns == [on_trail.get(v, -1) for v in range(num_vars)]
        assert (s.solve() is not None) == brute_force_sat(num_vars, clauses)


def random_aig(rng, n_inputs: int, n_ands: int) -> AigGraph:
    g = AigGraph()
    lits = [g.add_input() for _ in range(n_inputs)]
    for _ in range(n_ands):
        a, b = rng.choice(lits, size=2)
        lits.append(g.and2(int(a) ^ int(rng.integers(2)), int(b) ^ int(rng.integers(2))))
    for literal in (0, 1, lits[-1], lits[-1] ^ 1, int(rng.choice(lits)) ^ 1, lits[0]):
        g.add_output(literal)
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**31))
def test_tseitin_matches_node_by_node_reference(n_inputs, n_ands, seed):
    g = random_aig(np.random.default_rng(seed), n_inputs, n_ands)
    for k in range(len(g.outputs)):
        num_vars, clauses = tseitin_reference(g, k)
        f, input_map = tseitin(g, k)
        assert f.num_vars == num_vars
        assert f.lits.tolist() == [d for clause in clauses for d in clause]
        assert f.starts.tolist() == np.cumsum([0] + [len(c) for c in clauses]).tolist()
        assert input_map == dict(enumerate(g.inputs))


def test_solve_rejects_a_non_satisfying_model(monkeypatch):
    monkeypatch.setattr(_Cdcl, "solve", lambda self: [False, False, True])
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        solve(CnfFormula(2, [[1, -2], [2, -1], [1]]))
    monkeypatch.setattr(_Cdcl, "solve", lambda self: [False, True])
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        solve(CnfFormula(1, [[1], []]))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_solve_leaves_the_collector_as_found(monkeypatch, enabled, raises):
    seen = []

    def search(self):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("search failed")
        return [False, True]

    monkeypatch.setattr(_Cdcl, "solve", search)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if raises:
            with pytest.raises(RuntimeError, match="search failed"):
                solve(CnfFormula(1, [[1]]))
        else:
            assert solve(CnfFormula(1, [[1]])) == [False, True]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]  # paused during the search
