"""CNF engine: Tseitin encoding, CDCL solver, onset vectors, miter checks.

Clauses use the DIMACS convention (signed 1-based variable indices).  The
solver is deterministic: it decides on the unassigned variable of highest
activity, ties broken toward the lowest variable index, taken from a binary
heap in O(log n), and saved phases start at False.
"""

from __future__ import annotations

from dataclasses import dataclass

from nn2logic.aig import AigGraph, import_graph, simulate_aig


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]]

    def __post_init__(self) -> None:
        for cl in self.clauses:
            for d in cl:
                if d == 0 or abs(d) > self.num_vars:
                    raise ValueError(f"literal {d} out of range for {self.num_vars} vars")


def tseitin(g: AigGraph, output_index: int = 0) -> tuple[CnfFormula, dict[int, int]]:
    """One variable per AIG node; the chosen output is asserted true.

    Returns the formula and a map from input position to DIMACS variable.
    Satisfying assignments restricted to the input variables are exactly the
    vectors driving the output to 1.
    """
    num_vars = g.num_nodes - 1
    clauses: list[list[int]] = []

    def dim(literal: int) -> int:
        node = literal >> 1
        return -node if literal & 1 else node

    f0, f1 = g.fanin0, g.fanin1
    for node in range(1, len(f0)):
        if f0[node] < 0:
            continue
        a, b = dim(f0[node]), dim(f1[node])
        clauses.append([-node, a])
        clauses.append([-node, b])
        clauses.append([node, -a, -b])
    out = g.outputs[output_index]
    if out == 0:
        clauses.append([])  # constant-false output: unsatisfiable
    elif out != 1:
        clauses.append([dim(out)])
    input_map = {pos: node for pos, node in enumerate(g.inputs)}
    return CnfFormula(num_vars, clauses), input_map


class _Cdcl:
    """Conflict-driven clause learning with two watched literals.

    Internal literals are ``2*var + sign`` with 0-based vars; sign 1 means
    negated.  First-UIP learning, activity decay 0.95, geometric restarts.

    Decisions come from an indexed binary max-heap of variables (VSIDS as in
    MiniSat, Eén & Sörensson 2003): ``heap`` holds variables ordered by
    activity descending, then variable index ascending, and ``pos[v]`` is the
    slot of ``v`` in ``heap`` or -1.  That order is total, so the root is the
    same variable a scan of all unassigned variables would pick.  Every
    unassigned variable is in the heap; assigned ones leave it lazily when
    ``decide`` pops them and return when ``backjump`` unassigns them.
    ``decisions`` and ``conflicts`` count the search steps.
    """

    def __init__(self, num_vars: int, clauses: list[list[int]]):
        self.nv = num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
        self.assigns = [-1] * num_vars
        self.level = [0] * num_vars
        self.reason = [-1] * num_vars
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * num_vars
        self.var_inc = 1.0
        self.phase = [False] * num_vars
        # All activities are 0, so ascending index order is already a heap.
        self.heap = list(range(num_vars))
        self.pos = self.heap[:]
        self.decisions = 0
        self.conflicts = 0
        self.ok = True
        for cl in clauses:
            self._add_initial(cl)

    def _add_initial(self, dimacs: list[int]) -> None:
        if not self.ok:
            return
        seen = {}
        lits = []
        for d in dimacs:
            e = 2 * (abs(d) - 1) + (1 if d < 0 else 0)
            if e in seen:
                continue
            if e ^ 1 in seen:
                return  # tautology
            seen[e] = True
            lits.append(e)
        if not lits:
            self.ok = False
            return
        if len(lits) == 1:
            if self.value(lits[0]) == 0:
                self.ok = False
            elif self.value(lits[0]) == -1:
                self.enqueue(lits[0], -1)
            return
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)

    def value(self, e: int) -> int:
        a = self.assigns[e >> 1]
        if a < 0:
            return -1
        return a ^ (e & 1)

    def enqueue(self, e: int, reason: int) -> None:
        var = e >> 1
        self.assigns[var] = (e & 1) ^ 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(e)

    def propagate(self) -> int:
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            neg = p ^ 1
            ws = self.watches[neg]
            kept: list[int] = []
            conflict = -1
            for idx, ci in enumerate(ws):
                cl = self.clauses[ci]
                if cl[0] == neg:
                    cl[0] = cl[1]
                    cl[1] = neg
                first = cl[0]
                if self.value(first) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) != 0:
                        cl[1] = cl[k]
                        cl[k] = neg
                        self.watches[cl[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self.value(first) == 0:
                    kept.extend(ws[idx + 1 :])
                    conflict = ci
                    break
                self.enqueue(first, ci)
            self.watches[neg] = kept
            if conflict >= 0:
                return conflict
        return -1

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            p = heap[parent]
            ap = act[p]
            if ap > a or (ap == a and p < v):
                break
            heap[i] = p
            pos[p] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            c = heap[child]
            ac = act[c]
            if child + 1 < n:
                r = heap[child + 1]
                ar = act[r]
                if ar > ac or (ar == ac and r < c):
                    child, c, ac = child + 1, r, ar
            if a > ac or (a == ac and v < c):
                break
            heap[i] = c
            pos[c] = i
            i = child
        heap[i] = v
        pos[v] = i

    def bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(self.nv):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            # Rounding can make two activities equal, which may flip their
            # order under the index tie-break: rebuild the heap.
            for i in range(len(self.heap) // 2 - 1, -1, -1):
                self._sift_down(i)
        elif self.pos[var] >= 0:
            self._sift_up(self.pos[var])

    def analyze(self, conflict: int) -> tuple[list[int], int]:
        current = len(self.trail_lim)
        seen = bytearray(self.nv)
        learnt: list[int] = []
        btlevel = 0
        counter = 0
        p = -1
        ci = conflict
        index = len(self.trail) - 1
        while True:
            cl = self.clauses[ci]
            for q in cl if p == -1 else cl[1:]:
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self.bump(v)
                    if self.level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
                        if self.level[v] > btlevel:
                            btlevel = self.level[v]
            while True:
                p = self.trail[index]
                index -= 1
                if seen[p >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[p >> 1]
        learnt.insert(0, p ^ 1)
        return learnt, btlevel

    def backjump(self, level: int) -> None:
        limit = self.trail_lim[level] if level < len(self.trail_lim) else len(self.trail)
        heap, pos = self.heap, self.pos
        while len(self.trail) > limit:
            e = self.trail.pop()
            var = e >> 1
            self.phase[var] = self.assigns[var] == 1
            self.assigns[var] = -1
            self.reason[var] = -1
            if pos[var] < 0:
                pos[var] = len(heap)
                heap.append(var)
                self._sift_up(pos[var])
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def record(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self.enqueue(learnt[0], -1)
            return
        best = max(range(1, len(learnt)), key=lambda k: self.level[learnt[k] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        ci = len(self.clauses)
        self.clauses.append(learnt)
        self.watches[learnt[0]].append(ci)
        self.watches[learnt[1]].append(ci)
        self.enqueue(learnt[0], ci)

    def decide(self) -> bool:
        heap, pos, assigns = self.heap, self.pos, self.assigns
        while heap:
            best = heap[0]
            last = heap.pop()
            pos[best] = -1
            if heap:
                heap[0] = last
                pos[last] = 0
                self._sift_down(0)
            if assigns[best] < 0:
                break
        else:
            return False
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self.enqueue(2 * best + (0 if self.phase[best] else 1), -1)
        return True

    def solve(self) -> list[bool] | None:
        if not self.ok:
            return None
        restart_budget = 100.0
        conflicts_since = 0
        while True:
            ci = self.propagate()
            if ci >= 0:
                self.conflicts += 1
                if not self.trail_lim:
                    return None
                learnt, btlevel = self.analyze(ci)
                self.backjump(btlevel)
                self.record(learnt)
                self.var_inc /= 0.95
                conflicts_since += 1
                if conflicts_since >= restart_budget:
                    restart_budget *= 1.5
                    conflicts_since = 0
                    self.backjump(0)
            else:
                if len(self.trail) == self.nv:
                    return [False] + [a == 1 for a in self.assigns]
                self.decide()


def solve(f: CnfFormula) -> list[bool] | None:
    """Complete CDCL search; an assignment (1-indexed) or None for UNSAT.

    Every returned assignment is re-checked against the formula.
    """
    model = _Cdcl(f.num_vars, f.clauses).solve()
    if model is not None:
        for cl in f.clauses:
            if not any(model[abs(d)] == (d > 0) for d in cl):
                raise AssertionError("solver produced a non-satisfying assignment")
    return model


def find_onset_vector(g: AigGraph, output_index: int = 0) -> list[int] | None:
    """An input vector driving the chosen output to 1, or None if constant 0."""
    formula, input_map = tseitin(g, output_index)
    model = solve(formula)
    if model is None:
        return None
    bits = [int(model[input_map[pos]]) for pos in range(len(g.inputs))]
    if simulate_aig(g, bits)[output_index] != 1:
        raise AssertionError("onset vector failed re-simulation")
    return bits


def check_equivalence(g1: AigGraph, g2: AigGraph) -> list[int] | None:
    """Miter-based equivalence: None if equivalent, else a verified witness."""
    if len(g1.inputs) != len(g2.inputs) or len(g1.outputs) != len(g2.outputs):
        raise ValueError("graphs must agree on input and output counts")
    miter = AigGraph()
    ins = [miter.add_input(name) for name in g1.input_names]
    outs1 = import_graph(miter, g1, ins)
    outs2 = import_graph(miter, g2, ins)
    diff = 0
    for a, b in zip(outs1, outs2):
        diff = miter.or2(diff, miter.xor2(a, b))
    miter.add_output(diff, "miter")
    if diff == 0:
        return None
    vector = find_onset_vector(miter, 0)
    if vector is None:
        return None
    if simulate_aig(g1, vector) == simulate_aig(g2, vector):
        raise AssertionError("miter witness does not distinguish the graphs")
    return vector
