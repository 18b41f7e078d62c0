"""CNF engine: Tseitin encoding, CDCL solver, onset vectors, miter checks.

Clauses use the DIMACS convention (signed 1-based variable indices) and are
stored flat, as MiniSat (Eén & Sörensson 2003) keeps its clause arena:
``CnfFormula.lits`` is one int64 array of all literals and ``starts`` holds
the offset of every clause in it plus one past the end, so clause ``i`` is
``lits[starts[i]:starts[i + 1]]``.  ``tseitin`` fills both arrays with NumPy,
the solver is built from them with array operations, and ``solve`` checks
its model against them with one gather.

The solver's clauses and watch lists are Python lists of ints, about a
million of them on a large miter.  They hold no reference cycles, yet
CPython's cyclic collector would walk them over and over while they are
built and searched, which once took more time than the search itself.  So
``solve`` pauses the collector and restores the caller's setting on return.

The solver is deterministic: it decides on the unassigned variable of highest
activity, ties broken toward the lowest variable index, popped from a
``heapq`` list of ``(-activity, var)`` entries, and saved phases start at
False.
"""

from __future__ import annotations

import gc
import operator
from collections.abc import Iterator
from heapq import heapify, heappop, heappush

import numpy as np

from nn2logic.aig import AigGraph, import_graph, simulate_aig


class CnfFormula:
    """``num_vars`` variables; clause ``i`` is ``lits[starts[i]:starts[i + 1]]``.

    Every literal and start must be an integer (anything ``operator.index``
    accepts), every literal non-zero and at most ``num_vars`` in magnitude;
    both arrays are kept as read-only int64 arrays.
    """

    def __init__(self, num_vars: int, lits, starts) -> None:
        n = operator.index(num_vars)
        if n < 0:
            raise ValueError(f"num_vars must be >= 0, got {n}")
        starts = _integers(starts, lambda k, v: f"clause start {v!r} at {k} is not an integer")
        if not (starts.ndim == 1 and len(starts) and starts[0] == 0
                and starts[-1] == len(lits) and (np.diff(starts) >= 0).all()):
            raise ValueError("clause starts must rise from 0 to the number of literals")
        lits = _integers(lits, lambda k, v: f"literal {v!r} in clause "
                         f"{np.searchsorted(starts, k, 'right') - 1} is not an integer")
        bad = np.flatnonzero((lits == 0) | (lits < -n) | (lits > n))
        if len(bad):
            raise ValueError(f"literal {int(lits[bad[0]])} out of range for {n} vars")
        lits.flags.writeable = starts.flags.writeable = False
        self.num_vars, self.lits, self.starts = n, lits, starts

    @property
    def clauses(self) -> _ClauseView:
        """Read-only view of the clauses, each read as a list of DIMACS literals."""
        return _ClauseView(self.lits, self.starts)


class _ClauseView:
    def __init__(self, lits: np.ndarray, starts: np.ndarray) -> None:
        self._lits, self._starts = lits, starts

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, i: int) -> list[int]:
        i = range(len(self))[operator.index(i)]
        return self._lits[self._starts[i] : self._starts[i + 1]].tolist()

    def __iter__(self) -> Iterator[list[int]]:
        return map(self.__getitem__, range(len(self)))


def _integers(values, not_an_integer) -> np.ndarray:
    """The sequence ``values`` as an int64 array, or an object array if one is beyond int64.

    The first value ``v`` that is not an integer, at position ``k``, raises
    ``ValueError(not_an_integer(k, v))``.
    """
    array = np.asarray(values)
    if array.dtype.kind in "ib" and array.ndim == 1:
        return array.astype(np.int64, copy=False)
    ints = []
    for k, v in enumerate(values):
        try:
            ints.append(operator.index(v))
        except TypeError:
            raise ValueError(not_an_integer(k, v)) from None
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:  # out of range, as the caller's range check will say
        return np.array(ints, dtype=object)


def _dimacs(literals: np.ndarray) -> np.ndarray:
    """AIG literals ``2 * node + complement`` as DIMACS literals."""
    return np.where(literals & 1, -(literals >> 1), literals >> 1)


def tseitin(g: AigGraph, output_index: int = 0) -> tuple[CnfFormula, dict[int, int]]:
    """One variable per AIG node; the chosen output is asserted true.

    Each AND node ``n = a & b`` gives the clauses ``[-n, a]``, ``[-n, b]`` and
    ``[n, -a, -b]`` in node order; then comes the output as a unit clause,
    the empty clause for constant false, or nothing for constant true.
    Returns the formula and a map from input position to DIMACS variable.
    Satisfying assignments restricted to the input variables are exactly the
    vectors driving the output to 1.
    """
    f0, f1 = g.fanin_arrays()
    nodes = np.flatnonzero(f0 >= 0)
    a = _dimacs(f0[nodes])
    b = _dimacs(f1[nodes])
    body = np.empty((len(nodes), 7), dtype=np.int64)
    body[:, 0] = body[:, 2] = -nodes
    body[:, 1] = a
    body[:, 3] = b
    body[:, 4] = nodes
    body[:, 5] = -a
    body[:, 6] = -b
    out = g.outputs[output_index]
    tail = [] if out in (0, 1) else [-(out >> 1) if out & 1 else out >> 1]
    ends = [body.size] if out == 1 else [body.size, body.size + len(tail)]
    starts = np.concatenate(
        [((7 * np.arange(len(nodes), dtype=np.int64))[:, None] + (0, 2, 4)).ravel(), ends]
    )
    lits = np.concatenate([body.ravel(), np.array(tail, dtype=np.int64)])
    input_map = {pos: node for pos, node in enumerate(g.inputs)}
    return CnfFormula(g.num_nodes - 1, lits, starts), input_map


class _Cdcl:
    """Conflict-driven clause learning with two watched literals.

    Internal literals are ``2*var + sign`` with 0-based vars; sign 1 means
    negated.  First-UIP learning, activity decay 0.95, geometric restarts.

    The initial clauses are loaded in bulk as if added one at a time in
    order: repeated literals are dropped, tautologies skipped, units put on
    the trail at level 0 in order of first appearance, an empty clause or two
    opposite units make ``ok`` false, and every other clause is stored and
    watched on its first two literals.

    Decisions pop a ``heapq`` list of ``(-activity, var)`` entries (VSIDS as
    in MiniSat, Eén & Sörensson 2003), a total order, so the first unassigned
    variable popped is the one a scan would pick.  ``bump`` pushes a fresh
    entry and leaves the stale one behind; ``queued[v]`` is 1 while ``v`` has
    a current entry, which every unassigned variable has: ``decide`` pops
    assigned ones and ``backjump`` re-pushes them once unassigned.
    ``decisions`` and ``conflicts`` count the search steps.

    Every variable starts with a ``(0.0, var)`` entry.  Those not yet popped
    stay implicit, as the variables from ``fresh`` on in index order, since
    a search often decides few of them; ``decide`` pops ``(0.0, fresh)``
    whenever it comes before the top of ``heap``, and ``_rebuild_heap``
    makes every entry explicit.  Decisions are the same as with all entries
    in ``heap``.
    """

    def __init__(self, f: CnfFormula):
        num_vars = self.nv = f.num_vars
        self.level = [0] * num_vars
        self.reason = [-1] * num_vars
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * num_vars
        self.var_inc = 1.0
        self.phase = [False] * num_vars
        self.heap: list[tuple[float, int]] = []
        self.fresh = 0
        self.queued = bytearray(b"\x01" * num_vars)
        self.decisions = 0
        self.conflicts = 0
        self.assigns = [-1] * num_vars
        self.trail: list[int] = []
        self.ok = self._load(f.lits, f.starts)
        if not self.ok:
            self.clauses: list[list[int]] = []
            self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]

    def _load(self, lits: np.ndarray, starts: np.ndarray) -> bool:
        """Fill ``clauses``, ``watches``, ``trail`` and ``assigns``; False if UNSAT."""
        size = np.diff(starts)
        if (size == 0).any():
            return False  # an empty clause
        cid = np.repeat(np.arange(len(size), dtype=np.int64), size)
        e = 2 * (np.abs(lits) - 1) + (lits < 0)
        # One stable sort by (clause, variable) puts the copies of a variable
        # in a clause side by side, first appearance first: a later copy of
        # the same sign repeats a literal, one of the other sign makes the
        # clause a tautology.
        key = cid * self.nv + (e >> 1)
        order = np.argsort(key, kind="stable")
        key = key[order]
        again = key[1:] == key[:-1]
        copy, prev = order[1:][again], order[:-1][again]
        del key, order, again
        if len(copy):
            live = np.ones(len(size), dtype=bool)
            live[cid[copy[e[copy] != e[prev]]]] = False
            keep = live[cid]
            keep[copy] = False
            e = e[keep]
            size = np.bincount(cid[keep], minlength=len(size))  # 0 for a tautology
        del cid
        start = np.cumsum(size) - size

        units = e[start[size == 1]]
        first = np.unique(units, return_index=True)[1]
        trail = units[np.sort(first)]
        if len(np.unique(trail >> 1)) < len(trail):
            return False  # opposite units
        assigns = np.full(self.nv, -1, dtype=np.int64)
        assigns[trail >> 1] = (trail & 1) ^ 1
        self.assigns = assigns.tolist()
        self.trail = trail.tolist()

        # Stored clauses keep their order; each length is one 2-D block.
        stored = size >= 2
        rank = np.cumsum(stored) - 1
        clauses: list = [None] * int(stored.sum())
        for n in np.unique(size[stored]).tolist():
            rows = np.flatnonzero(size == n)
            block = e[start[rows, None] + np.arange(n)].tolist()
            for ci, clause in zip(rank[rows].tolist(), block):
                clauses[ci] = clause
        self.clauses = clauses

        # Clause ci watches its first two literals; a stable sort of those
        # lists the watchers of each literal in clause order.
        first = start[stored]
        watched = np.stack((e[first], e[first + 1]), axis=1).ravel()
        del e, start, stored, rank, first
        watchers = (np.argsort(watched, kind="stable") >> 1).tolist()
        b = [0, *np.cumsum(np.bincount(watched, minlength=2 * self.nv)).tolist()]
        del watched
        self.watches = [watchers[lo:hi] for lo, hi in zip(b, b[1:])]
        return True

    def enqueue(self, e: int, reason: int) -> None:
        var = e >> 1
        self.assigns[var] = (e & 1) ^ 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(e)

    def propagate(self) -> int:
        """Unit propagation from ``qhead``; the conflicting clause, or -1.

        ``assigns[e >> 1] ^ (e & 1)`` is literal ``e``'s value: 1 true, 0
        false, negative unassigned.  Enqueueing is inlined at the current
        decision level.
        """
        trail, clauses, watches = self.trail, self.clauses, self.watches
        assigns, level, reason = self.assigns, self.level, self.reason
        depth = len(self.trail_lim)
        while self.qhead < len(trail):
            neg = trail[self.qhead] ^ 1
            self.qhead += 1
            ws = watches[neg]
            kept: list[int] = []
            conflict = -1
            for idx, ci in enumerate(ws):
                cl = clauses[ci]
                if cl[0] == neg:
                    cl[0] = cl[1]
                    cl[1] = neg
                first = cl[0]
                value = assigns[first >> 1] ^ (first & 1)
                if value == 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(cl)):
                    e = cl[k]
                    if assigns[e >> 1] ^ (e & 1):  # not false
                        cl[1] = e
                        cl[k] = neg
                        watches[e].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value == 0:
                        kept.extend(ws[idx + 1 :])
                        conflict = ci
                        break
                    var = first >> 1
                    assigns[var] = (first & 1) ^ 1
                    level[var] = depth
                    reason[var] = ci
                    trail.append(first)
            watches[neg] = kept
            if conflict >= 0:
                return conflict
        return -1

    def _rebuild_heap(self) -> None:
        """One current entry per queued variable; also compacts the list."""
        act = self.activity
        self.heap = [(-act[v], v) for v in range(self.nv) if self.queued[v]]
        heapify(self.heap)
        self.fresh = self.nv

    def bump(self, var: int) -> None:
        act = self.activity
        act[var] += self.var_inc
        if act[var] > 1e100:
            for v in range(self.nv):
                act[v] *= 1e-100
            self.var_inc *= 1e-100
            # Rounding can make two activities equal, which may flip their
            # order under the index tie-break; every entry is stale anyway.
            self._rebuild_heap()
        elif self.queued[var]:
            heappush(self.heap, (-act[var], var))
            if len(self.heap) - self.fresh > self.nv:  # over 2 * nv with the implicit ones
                self._rebuild_heap()

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
        heap, queued, act = self.heap, self.queued, self.activity
        while len(self.trail) > limit:
            e = self.trail.pop()
            var = e >> 1
            self.phase[var] = self.assigns[var] == 1
            self.assigns[var] = -1
            self.reason[var] = -1
            if not queued[var]:
                queued[var] = 1
                heappush(heap, (-act[var], var))
        if len(heap) - self.fresh > self.nv:
            self._rebuild_heap()
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
        heap, queued, assigns, nv = self.heap, self.queued, self.assigns, self.nv
        # Activities only grow between rebuilds, so a variable's stale entries
        # pop after its current one, hence only while it is assigned.
        while True:
            best = self.fresh
            if best < nv and (not heap or (0.0, best) < heap[0]):
                self.fresh += 1
            elif heap:
                best = heappop(heap)[1]
            else:
                return False
            queued[best] = 0
            if assigns[best] < 0:
                break
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

    The cyclic garbage collector is paused while the solver is built and
    searches, and left as the caller had it.  Every returned assignment is
    re-checked against the formula.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        model = _Cdcl(f).solve()
    finally:
        if collecting:
            gc.enable()
    if model is not None and not _satisfies(f, model):
        raise AssertionError("solver produced a non-satisfying assignment")
    return model


def _satisfies(f: CnfFormula, model: list[bool]) -> bool:
    """Every clause of ``f`` has a literal that ``model`` makes true."""
    if len(f.lits) == 0 or (np.diff(f.starts) == 0).any():
        return len(f.starts) == 1  # no clauses, or an empty one
    true = np.asarray(model, dtype=bool)[np.abs(f.lits)] == (f.lits > 0)
    return bool(np.logical_or.reduceat(true, f.starts[:-1]).all())


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
        raise ValueError(f"graphs must agree on input and output counts, not {len(g1.inputs)} "
                         f"and {len(g2.inputs)} inputs, {len(g1.outputs)} and "
                         f"{len(g2.outputs)} outputs")
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
