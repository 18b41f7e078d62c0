"""Independent reference implementations the test suite checks against.

Everything in here is deliberately written straight-line and separate from
the package internals so that it can serve as an oracle.  The last few
helpers are test fixtures: a CSV writer, a tree-depth measure, a netlist of
one module alone and a formula from a list of clauses.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

from nn2logic.aig import AigGraph
from nn2logic.forest import DecisionTree, RandomForestModel, TreeNode
from nn2logic.mlp import DenseLayer, FeatureScaler, Mlp
from nn2logic.netlist import Gate, Netlist
from nn2logic.sat import CnfFormula


def quantize_reference(x: float, m: int, i: int) -> int:
    """Straight-line reference for the quantization scheme, in exact rationals."""
    x_int = int((1 << i) * Fraction(x))  # truncation toward zero
    largest_signed_int = (1 << (m - 1)) - 1
    x_int = min(largest_signed_int, x_int)
    smallest_signed_int = -(1 << (m - 1))
    return max(smallest_signed_int, x_int)


def signed(word: int, width: int) -> int:
    """Reinterpret an unsigned ``width``-bit word as a signed integer."""
    if word & (1 << (width - 1)):
        word -= 1 << width
    return word


def from_int(value: int, width: int) -> str:
    """Two's-complement bit string of ``value`` at the given width, most significant first."""
    return format(value & ((1 << width) - 1), "b").zfill(width)


def neuron_reference(weights: list[int], x: list[int], bias: int | None,
                     has_relu: bool, m: int, i: int) -> int:
    """Integer semantics of the single-neuron arithmetic circuit.

    ``weights``/``x``/``bias`` are signed m-bit integers.  Products are exact
    (they fit in 2m bits), accumulation wraps at 3m bits, the ReLU zeroes a
    sum that is not positive, the shift drops the extra i fractional bits,
    and the final clip saturates to the m-bit signed range.  Returns the
    m-bit output as an unsigned word.
    """
    acc = 0
    for w, v in zip(weights, x):
        acc += w * v
    if bias is not None:
        one = min((1 << (m - 1)) - 1, 1 << i)
        acc += bias * one
    acc &= (1 << (3 * m)) - 1
    acc = signed(acc, 3 * m)
    if has_relu and acc <= 0:
        acc = 0
    v = acc >> i  # arithmetic shift: floor division by 2**i
    hi = (1 << (m - 1)) - 1
    lo = -(1 << (m - 1))
    v = max(lo, min(hi, v))
    return v & ((1 << m) - 1)


def exact_vote_sums(model, feature_row) -> tuple[float, float]:
    """Unquantized per-class leaf-probability sums of a random forest."""
    s0 = s1 = 0.0
    for tree in model.trees:
        leaf = tree.leaf_for([int(b) for b in feature_row])
        s0 += leaf.p0
        s1 += leaf.p1
    return s0, s1


def _gini_best_split_reference(x, y, candidates):
    """Lowest-impurity valid split among candidate columns, or None, one column at a time."""
    n = len(y)
    ones = int(y.sum())
    sub = x[:, candidates]
    right_n = sub.sum(axis=0)
    right_ones = y @ sub
    best_feature = -1
    best_impurity = float("inf")
    for k in range(len(candidates)):  # ascending feature order; ties stay low
        rn = int(right_n[k])
        if rn == 0 or rn == n:
            continue
        ro = int(right_ones[k])
        ln, lo = n - rn, ones - ro
        gl = 1.0 - (lo / ln) ** 2 - ((ln - lo) / ln) ** 2
        gr = 1.0 - (ro / rn) ** 2 - ((rn - ro) / rn) ** 2
        impurity = (ln * gl + rn * gr) / n
        if impurity < best_impurity - 1e-12:
            best_impurity = impurity
            best_feature = int(candidates[k])
    return best_feature if best_feature >= 0 else None


def grow_reference(x, y, depth, max_depth, n_candidates, rng):
    """One CART tree by recursion on row copies: the left child gets the rows with the split bit 0.

    ``x`` is an (n, F) uint8 matrix and ``y`` an (n,) int64 vector.
    """
    n = len(y)
    ones = int(y.sum())
    node = TreeNode(p0=(n - ones) / n, p1=ones / n)
    if depth >= max_depth or ones == 0 or ones == n:
        return node
    n_features = x.shape[1]
    if n_candidates >= n_features:
        candidates = np.arange(n_features)
    else:
        candidates = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
    feature = _gini_best_split_reference(x, y, candidates)
    if feature is None:
        return node
    mask = x[:, feature].astype(bool)
    node.feature = feature
    node.left = grow_reference(x[~mask], y[~mask], depth + 1, max_depth, n_candidates, rng)
    node.right = grow_reference(x[mask], y[mask], depth + 1, max_depth, n_candidates, rng)
    return node


def forest_reference(x, y, n_estimators: int, max_depth: int, seed: int):
    """One bit's random forest, grown tree by tree on copied bootstrap rows.

    The generator draws the bootstrap rows at each tree's start and
    ceil(sqrt(F)) sorted candidate columns at each impure node above
    ``max_depth``, none when that covers every column.
    """
    x, y = np.asarray(x, dtype=np.uint8), np.asarray(y, dtype=np.int64)
    n, f = x.shape
    n_candidates = math.ceil(math.sqrt(f))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        rows = rng.integers(0, n, size=n)
        root = grow_reference(x[rows], y[rows], 0, max_depth, n_candidates, rng)
        trees.append(DecisionTree(root))
    return RandomForestModel(trees, n_estimators, max_depth, seed, f)


def lut_counts_reference(rows, inputs, labels) -> list[list[int]]:
    """counts[pattern][label] of one LUT, bumped one sample at a time.

    ``rows[s][q]`` is bit q of the LUT's input layer for sample s; input j
    of the LUT (``inputs[j]``) is bit j of the pattern.
    """
    counts = [[0, 0] for _ in range(1 << len(inputs))]
    for row, label in zip(rows, labels):
        pattern = 0
        for j, q in enumerate(inputs):
            pattern |= int(row[q]) << j
        counts[pattern][int(label)] += 1
    return counts


def lut_output_reference(rows, inputs, table) -> list[int]:
    """Per-sample output bit of one LUT with the given truth table."""
    out = []
    for row in rows:
        pattern = 0
        for j, q in enumerate(inputs):
            pattern |= int(row[q]) << j
        out.append(int(table[pattern]))
    return out


def live_cone_reference(net) -> list[set[int]]:
    """Per-layer LUT indices reachable backward from a LUT network's output, as sets."""
    live: list[set[int]] = [set() for _ in net.layers]
    frontier = set(net.output.inputs.tolist())
    for layer in range(len(net.layers) - 1, -1, -1):
        live[layer] = frontier
        frontier = set()
        for j in live[layer]:
            frontier.update(net.layers[layer][j].inputs.tolist())
    return live


def logicnet_lut_gates_reference(lgn, feature_sids: list[int], next_sid: int):
    """The LUT gates one LUT network emits into a netlist, walked one record at a time.

    Returns ``(gates, next_sid)``.  A gate is ``(operands, (code, k))``: code bit
    p is ``table[p]``, and operand j is the signal of the LUT's input j, a
    feature bit (``feature_sids[q]``) or a live LUT of the layer before.  The
    live LUTs of each layer, in ascending order, then the output LUT, take the
    signal ids from ``next_sid`` on.
    """
    stages = [[(j, layer[j]) for j in sorted(live)]
              for layer, live in zip(lgn.layers, live_cone_reference(lgn))]
    stages.append([(0, lgn.output)])
    gates = []
    prev = dict(enumerate(feature_sids))
    for stage in stages:
        sids = {}
        for j, lut in stage:
            code = 0
            for p, bit in enumerate(lut.table.tolist()):
                code |= bit << p
            operands = tuple(prev[q] for q in lut.inputs.tolist())
            gates.append((operands, (code, len(operands))))
            sids[j] = next_sid
            next_sid += 1
        prev = sids
    return gates, next_sid


def lut_cofactor_reference(g: AigGraph, table: int, sels: list[int], memo: dict) -> int:
    """The fixed-order LUT lowering: a Shannon mux tree split on ``sels[-1]`` first.

    A table and its complement are separate cones here, and every mux is two
    ANDs and an OR, even with a constant child.
    """
    k = len(sels)
    if k == 0:
        return table & 1
    full = (1 << (1 << k)) - 1
    if table == 0:
        return 0
    if table == full:
        return 1
    key = (k, table)
    cached = memo.get(key)
    if cached is not None:
        return cached
    half = 1 << (k - 1)
    lo = table & ((1 << half) - 1)
    hi = table >> half
    if lo == hi:
        res = lut_cofactor_reference(g, lo, sels[:-1], memo)
    else:
        f0 = lut_cofactor_reference(g, lo, sels[:-1], memo)
        f1 = lut_cofactor_reference(g, hi, sels[:-1], memo)
        res = g.or2(g.and2(sels[-1], f1), g.and2(sels[-1] ^ 1, f0))
    memo[key] = res
    return res


def permute_table_reference(table: int, order) -> int:
    """``table`` with its selects reordered so that ``order[0]`` is split first.

    ``order`` lists the old select indices top first; new select k - 1 - i
    is old select ``order[i]``.
    """
    k = len(order)
    out = 0
    for new_pattern in range(1 << k):
        old_pattern = 0
        for i, old in enumerate(order):
            old_pattern |= ((new_pattern >> (k - 1 - i)) & 1) << old
        out |= ((table >> old_pattern) & 1) << new_pattern
    return out


def shannon_cost_reference(table: int, k: int) -> int:
    """Model AND cost of the Shannon tree split on the highest select first.

    One mux per distinct subfunction, up to complement, that depends on its
    split select: 1 AND if a cofactor is constant, else 3.
    """
    seen = set()

    def walk(t: int, k: int) -> int:
        if k == 0:
            return 0
        if t & 1:
            t ^= (1 << (1 << k)) - 1
        if t == 0 or (k, t) in seen:
            return 0
        seen.add((k, t))
        half = 1 << (k - 1)
        ones = (1 << half) - 1
        lo, hi = t & ones, t >> half
        if lo == hi:
            return walk(lo, k - 1)
        own = 1 if lo in (0, ones) or hi in (0, ones) else 3
        return own + walk(lo, k - 1) + walk(hi, k - 1)

    return walk(table, k)


def best_shannon_order_reference(table: int, k: int) -> tuple[int, tuple[int, ...]]:
    """(least model cost, order) over all k! split orders, top first.

    Orders go in lexicographic order and the first minimum is kept, so ties
    go to the order with the lowest top select, then the lowest next one.
    """
    best = None
    for order in itertools.permutations(range(k)):
        cost = shannon_cost_reference(permute_table_reference(table, order), k)
        if best is None or cost < best[0]:
            best = (cost, order)
    return best


def tseitin_reference(g: AigGraph, output_index: int = 0) -> tuple[int, list[list[int]]]:
    """Node by node, the Tseitin clauses ``sat.tseitin`` must emit, in order."""
    def dim(literal: int) -> int:
        node = literal >> 1
        return -node if literal & 1 else node

    clauses = []
    for node in range(1, len(g.fanin0)):
        if g.fanin0[node] < 0:
            continue  # an input
        a, b = dim(g.fanin0[node]), dim(g.fanin1[node])
        clauses.append([-node, a])
        clauses.append([-node, b])
        clauses.append([node, -a, -b])
    out = g.outputs[output_index]
    if out == 0:
        clauses.append([])  # constant-false output: unsatisfiable
    elif out != 1:
        clauses.append([dim(out)])
    return len(g.fanin0) - 1, clauses


def levels_reference(g: AigGraph) -> list[int]:
    """Per node, the longest path from an input in AND nodes, in one ascending pass."""
    levels = []
    for node in range(len(g.fanin0)):
        if g.fanin0[node] < 0:
            levels.append(0)  # the constant or an input
        else:
            levels.append(1 + max(levels[g.fanin0[node] >> 1], levels[g.fanin1[node] >> 1]))
    return levels


def live_reference(g: AigGraph) -> set[int]:
    """The nodes the outputs reach, by a depth-first walk."""
    live = set()
    stack = [o >> 1 for o in g.outputs]
    while stack:
        node = stack.pop()
        if node in live:
            continue
        live.add(node)
        if g.fanin0[node] >= 0:
            stack += [g.fanin0[node] >> 1, g.fanin1[node] >> 1]
    return live


def sweep_reference(g: AigGraph) -> AigGraph:
    """``sweep`` by a depth-first walk from the outputs, then one copy of the live ANDs."""
    live = live_reference(g)
    out = AigGraph()
    remap = {0: 0}
    for node, name in zip(g.inputs, g.input_names):
        remap[node] = out.add_input(name)
    for node in sorted(live):
        a, b = g.fanin0[node], g.fanin1[node]
        if a >= 0:
            remap[node] = out.and2(remap[a >> 1] ^ (a & 1), remap[b >> 1] ^ (b & 1))
    for o, name in zip(g.outputs, g.output_names):
        out.add_output(remap[o >> 1] ^ (o & 1), name)
    return out


def import_graph_reference(dst: AigGraph, src: AigGraph, input_lits: list[int]) -> list[int]:
    """``import_graph`` one AND at a time through ``dst.and2``."""
    if len(input_lits) != len(src.inputs):
        raise ValueError("input binding count mismatch")
    remap = [0] * len(src.fanin0)
    for node, bound in zip(src.inputs, input_lits):
        remap[node] = bound
    f0, f1 = src.fanin0, src.fanin1
    and2 = dst.and2
    for node in range(1, len(f0)):
        a = f0[node]
        if a < 0:
            continue
        b = f1[node]
        remap[node] = and2(remap[a >> 1] ^ (a & 1), remap[b >> 1] ^ (b & 1))
    return [remap[o >> 1] ^ (o & 1) for o in src.outputs]


def equation_lines_reference(g: AigGraph, in_names: list, out_names: list) -> list[str]:
    """``emit_equations``'s lines, one live AND at a time in node order.

    An output that is the only reference to an uncomplemented AND is written
    as that AND; every other live AND gets the next name ``nK``, counting on
    from the inputs.
    """
    ands = [node for node in sorted(live_reference(g)) if g.fanin0[node] >= 0]
    refs = collections.Counter(f >> 1 for node in ands for f in (g.fanin0[node], g.fanin1[node]))
    uses = collections.Counter(o >> 1 for o in g.outputs)
    inline = {
        o >> 1
        for o in g.outputs
        if not o & 1 and g.fanin0[o >> 1] >= 0 and not refs[o >> 1] and uses[o >> 1] == 1
    }
    name = dict(zip(g.inputs, in_names))

    def ref(literal: int) -> str:
        return ("NOT " if literal & 1 else "") + name[literal >> 1]

    lines = []
    for node in ands:
        if node not in inline:
            name[node] = f"n{len(g.inputs) + 1 + len(lines)}"
            lines.append(f"{name[node]} = {ref(g.fanin0[node])} AND {ref(g.fanin1[node])};")
    for o, out in zip(g.outputs, out_names):
        if o >> 1 in inline:
            lines.append(f"{out} = {ref(g.fanin0[o >> 1])} AND {ref(g.fanin1[o >> 1])};")
        else:
            lines.append(f"{out} = {o};" if o < 2 else f"{out} = {ref(o)};")
    return lines


def write_aiger_reference(g: AigGraph, path) -> None:
    """``write_aiger`` one line at a time: inputs at 1..I in input order, then the ANDs."""
    order: list[int] = list(g.inputs)
    f0, f1 = g.fanin0, g.fanin1
    ands = [n for n in range(1, len(f0)) if f0[n] >= 0]
    new_index = [0] * len(f0)
    for pos, node in enumerate(order + ands, start=1):
        new_index[node] = pos

    def ren(literal: int) -> int:
        return (new_index[literal >> 1] << 1) | (literal & 1)

    lines = [f"aag {len(order) + len(ands)} {len(order)} 0 {len(g.outputs)} {len(ands)}"]
    for node in order:
        lines.append(str(new_index[node] << 1))
    for o in g.outputs:
        lines.append(str(ren(o)))
    for node in ands:
        lines.append(f"{new_index[node] << 1} {ren(f0[node])} {ren(f1[node])}")
    for pos, name in enumerate(g.input_names):
        if name:
            lines.append(f"i{pos} {name}")
    for pos, name in enumerate(g.output_names):
        if name:
            lines.append(f"o{pos} {name}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_aiger_reference(path) -> AigGraph:
    """``read_aiger`` one line at a time: every AND goes through ``and2``.

    An AND is built as soon as its line is read if both fanins are already
    defined; the remaining ANDs are resolved afterwards in ascending
    variable order.  Bad input raises ValueError at ``path:line``.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    k = 0  # index of the line being read, for error messages
    try:
        if not lines or not lines[0].startswith("aag "):
            raise ValueError("not an ASCII AIGER file")
        fields = lines[0].split()
        if len(fields) != 6:
            raise ValueError("malformed header")
        m, n_in, n_latch, n_out, n_and = (int(v) for v in fields[1:])
        if n_latch:
            raise ValueError("latches are not supported")
        if min(n_in, n_out, n_and) < 0 or n_in + n_and > m:
            raise ValueError(f"inconsistent header counts {lines[0]!r}")
        end = 1 + n_in + n_out + n_and
        if len(lines) < end:
            k = len(lines)
            raise ValueError(
                f"file ends after {len(lines)} lines; the header declares {n_in} inputs, "
                f"{n_out} outputs and {n_and} ANDs ({end} lines)"
            )
        max_lit = 2 * m + 1
        g = AigGraph()
        var_lit = {0: 0}  # AIGER variable -> literal in g
        for k in range(1, 1 + n_in):
            declared = int(lines[k])
            if declared & 1 or not 0 < declared <= max_lit or declared >> 1 in var_lit:
                raise ValueError(f"invalid input literal {declared}")
            var_lit[declared >> 1] = g.add_input()
        out_specs = []
        for k in range(1 + n_in, 1 + n_in + n_out):
            spec = int(lines[k])
            if not 0 <= spec <= max_lit:
                raise ValueError(f"output literal {spec} out of range 0..{max_lit}")
            out_specs.append((k, spec))
        and2 = g.and2
        pending: dict[int, tuple[int, int, int]] = {}  # AND var -> (rhs0, rhs1, line)
        for k in range(1 + n_in + n_out, end):
            lhs, r0, r1 = map(int, lines[k].split())
            var = lhs >> 1
            if lhs & 1 or not 0 < lhs <= max_lit or var in var_lit or var in pending:
                raise ValueError(f"AND literal {lhs} must be even, in range and new")
            if not (0 <= r0 <= max_lit and 0 <= r1 <= max_lit):
                raise ValueError(f"AND fanin out of range 0..{max_lit}")
            try:
                var_lit[var] = and2(var_lit[r0 >> 1] ^ (r0 & 1), var_lit[r1 >> 1] ^ (r1 & 1))
            except KeyError:  # a fanin defined further down
                pending[var] = (r0, r1, k)
        expanded: set[int] = set()
        for root in sorted(pending):
            todo = [root]
            while todo:
                var = todo[-1]
                if var in var_lit:
                    todo.pop()
                    continue
                r0, r1, k = pending[var]
                expanded.add(var)
                missing = [x >> 1 for x in (r0, r1) if x >> 1 not in var_lit]
                for x in missing:
                    if x not in pending:
                        raise ValueError(f"undefined variable {x}")
                    if x in expanded:
                        raise ValueError(f"combinational cycle through variable {x}")
                if missing:
                    todo.extend(missing)
                    continue
                var_lit[var] = and2(var_lit[r0 >> 1] ^ (r0 & 1), var_lit[r1 >> 1] ^ (r1 & 1))
                todo.pop()
        for k, spec in out_specs:
            if spec >> 1 not in var_lit:
                raise ValueError(f"undefined variable {spec >> 1}")
            g.add_output(var_lit[spec >> 1] ^ (spec & 1))
        named: set[tuple[str, int]] = set()
        for k in range(end, len(lines)):
            if lines[k] == "c":
                g.comments = lines[k + 1 :]
                break
            tag, space, name = lines[k].partition(" ")
            if tag[:1] not in ("i", "o") or not space or not tag[1:].removeprefix("-").isdecimal():
                raise ValueError(f"stray line {lines[k]!r}: expected i<k> <name>, o<k> <name> or c")
            names = g.input_names if tag[0] == "i" else g.output_names
            pos = -1 if tag[1] == "-" else int(tag[1:])  # "i-0" names no input either
            if not 0 <= pos < len(names):
                raise ValueError(f"symbol position {tag!r} out of range: {len(names)} declared")
            if not name:
                raise ValueError(f"symbol {tag!r} has an empty name")
            if (tag[0], pos) in named:
                raise ValueError(f"symbol position {tag!r} named twice")
            named.add((tag[0], pos))
            names[pos] = name
    except ValueError as exc:
        raise ValueError(f"{path}:{k + 1}: {exc}") from None
    return g


def solver_load_reference(num_vars: int, clauses) -> tuple[bool, list, list, list]:
    """Clause by clause, the solver's start state: ``(ok, clauses, watches, trail)``.

    Literals become ``2 * var + sign`` (0-based var, sign 1 for negated).
    Repeated literals are dropped and tautologies skipped; a unit is put on
    the trail unless already true; an empty clause or a unit already false
    stops the load with ``ok`` false.  Every other clause is stored and
    watched on its first two literals.
    """
    assigns = [-1] * num_vars
    stored: list[list[int]] = []
    watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
    trail: list[int] = []
    for dimacs in clauses:
        seen: set[int] = set()
        lits: list[int] = []
        tautology = False
        for d in dimacs:
            e = 2 * (abs(d) - 1) + (1 if d < 0 else 0)
            if e in seen:
                continue
            if e ^ 1 in seen:
                tautology = True
                break
            seen.add(e)
            lits.append(e)
        if tautology:
            continue
        if not lits:
            return False, stored, watches, trail
        if len(lits) == 1:
            e = lits[0]
            if assigns[e >> 1] < 0:
                assigns[e >> 1] = (e & 1) ^ 1
                trail.append(e)
            elif assigns[e >> 1] == e & 1:
                return False, stored, watches, trail
            continue
        watches[lits[0]].append(len(stored))
        watches[lits[1]].append(len(stored))
        stored.append(lits)
    return True, stored, watches, trail


def propagate_reference(s) -> int:
    """``_Cdcl.propagate`` through per-literal value and enqueue helpers.

    Two watched literals: a watcher of the falsified literal moves its watch
    to the first non-false literal from position 2 on, else stays and makes
    its other watched literal a unit, or the conflict.  Returns the
    conflicting clause index, or -1.
    """
    def value(e: int) -> int:
        a = s.assigns[e >> 1]
        if a < 0:
            return -1
        return a ^ (e & 1)

    def enqueue(e: int, reason: int) -> None:
        var = e >> 1
        s.assigns[var] = (e & 1) ^ 1
        s.level[var] = len(s.trail_lim)
        s.reason[var] = reason
        s.trail.append(e)

    while s.qhead < len(s.trail):
        p = s.trail[s.qhead]
        s.qhead += 1
        neg = p ^ 1
        ws = s.watches[neg]
        kept: list[int] = []
        conflict = -1
        for idx, ci in enumerate(ws):
            cl = s.clauses[ci]
            if cl[0] == neg:
                cl[0] = cl[1]
                cl[1] = neg
            first = cl[0]
            if value(first) == 1:
                kept.append(ci)
                continue
            moved = False
            for k in range(2, len(cl)):
                if value(cl[k]) != 0:
                    cl[1] = cl[k]
                    cl[k] = neg
                    s.watches[cl[1]].append(ci)
                    moved = True
                    break
            if moved:
                continue
            kept.append(ci)
            if value(first) == 0:
                kept.extend(ws[idx + 1 :])
                conflict = ci
                break
            enqueue(first, ci)
        s.watches[neg] = kept
        if conflict >= 0:
            return conflict
    return -1


def _activations_reference(layers: list[DenseLayer], a: np.ndarray) -> list[np.ndarray]:
    captured = []
    for layer in layers:
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        captured.append(a)
    return captured


def _softmax_reference(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad_reference(layers: list[DenseLayer], x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and its gradients, one allocation per step."""
    n = len(x)
    x = np.asarray(x, dtype=float)
    acts = [x, *_activations_reference(layers, x)]
    probs = _softmax_reference(acts[-1])
    eps = 1e-12
    loss = -np.mean(np.log(probs[np.arange(n), y] + eps))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for idx in range(len(layers) - 1, -1, -1):
        layer = layers[idx]
        grads.append((delta.T @ acts[idx], delta.sum(axis=0)))
        if idx > 0:
            delta = delta @ layer.weights
            if layers[idx - 1].activation == "relu":
                delta = delta * (acts[idx] > 0)
    grads.reverse()
    return loss, grads


def train_reference(
    data,
    hidden_nodes: int = 20,
    epochs: int = 1500,
    learning_rate: float = 0.01,
    seed: int = 0,
) -> Mlp:
    """``mlp.train`` with per-parameter Adam state and row-wise softmax reductions."""
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(np.unique(data.labels)) < 2:
        warnings.warn("training data contains a single class", stacklevel=2)
    scaler = FeatureScaler(data.features.min(axis=0), data.features.max(axis=0))
    x = scaler.transform(data.features)
    y = data.labels
    n_in = x.shape[1]
    rng = np.random.default_rng(seed)
    layers = [
        DenseLayer(
            rng.normal(0.0, np.sqrt(2.0 / n_in), size=(hidden_nodes, n_in)),
            np.zeros(hidden_nodes),
            "relu",
        ),
        DenseLayer(
            rng.normal(0.0, np.sqrt(1.0 / hidden_nodes), size=(2, hidden_nodes)),
            np.zeros(2),
            "identity",
        ),
    ]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = [p for l in layers for p in (l.weights, l.bias)]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    for step in range(1, epochs + 1):
        _, grads = loss_and_grad_reference(layers, x, y)
        flat = [g for pair in grads for g in pair]
        for k, (p, g) in enumerate(zip(params, flat)):
            m_state[k] = beta1 * m_state[k] + (1 - beta1) * g
            v_state[k] = beta2 * v_state[k] + (1 - beta2) * g * g
            m_hat = m_state[k] / (1 - beta1**step)
            v_hat = v_state[k] / (1 - beta2**step)
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return Mlp(layers, scaler)


def parse_equations(text_or_lines, input_names: list[str]) -> AigGraph:
    """Rebuild a graph from equation lines for round-trip simulation."""
    if isinstance(text_or_lines, str):
        lines = [
            ln.strip()
            for ln in text_or_lines.splitlines()
            if "=" in ln and ln.strip().endswith(";")
        ]
    else:
        lines = list(text_or_lines)
    g = AigGraph()
    env: dict[str, int] = {}
    for name in input_names:
        env[name] = g.add_input(name)

    def operand(token: str) -> int:
        token = token.strip()
        comp = 0
        if token.startswith("NOT "):
            comp = 1
            token = token[4:].strip()
        if token == "0":
            return comp
        if token == "1":
            return comp ^ 1
        if token not in env:
            raise ValueError(f"equation references undefined net {token!r}")
        return env[token] ^ comp

    outputs: list[tuple[str, int]] = []
    for ln in lines:
        lhs, rhs = ln[:-1].split("=", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if " AND " in rhs:
            a, b = rhs.split(" AND ", 1)
            literal = g.and2(operand(a), operand(b))
        else:
            literal = operand(rhs)
        env[lhs] = literal
        if not (lhs.startswith("n") and lhs[1:].isdigit()):
            outputs.append((lhs, literal))
    for name, literal in outputs:
        g.add_output(literal, name)
    return g


def simulate_netlist(net: Netlist, input_bits) -> list[str]:
    """Gate-by-gate evaluation of a netlist; returns one bit string per output.

    Inputs are bit strings of their signal's width or integers.  Each gate
    kind is evaluated from its definition in ``nn2logic.netlist``, except
    MODEL: its function is its model's own (``predict_forest``), so the
    forest tests check the lowered AIG against that instead.
    """
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
    if kind == "NEURON":
        weights, bias, shift, relu = g.params
        m = w[0]
        acc = bias + sum(c * signed(v, m) for c, v in zip(weights, ops))
        acc = signed(acc & ((1 << 3 * m) - 1), 3 * m)
        if relu and acc < 0:
            acc = 0
        hi = (1 << (m - 1)) - 1
        return max(-hi - 1, min(hi, acc >> shift)) & ((1 << m) - 1)
    if kind == "GT":
        return int(signed(ops[0], w[0]) > signed(ops[1], w[1]))
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


def write_csv(data, path) -> None:
    """Write a LabeledDataset as the CSV ``read_dataset`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + ["label"])
        for row, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(y)])


def tree_depth(node) -> int:
    """Edges on the longest root-to-leaf path of a forest tree."""
    if node.feature is None:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def module_netlist(module, n_words: int, m: int) -> Netlist:
    """A netlist of ``module`` alone: n_words m-bit inputs, one call, its word as the output."""
    net = Netlist()
    net.set_output(module(net, [net.add_input(m) for _ in range(n_words)]))
    return net


def cnf_formula(num_vars: int, clauses) -> CnfFormula:
    """The formula of a list of DIMACS clauses, flattened as ``CnfFormula`` takes them."""
    lits: list = []
    starts = [0]
    for clause in clauses:
        lits.extend(clause)
        starts.append(len(lits))
    return CnfFormula(num_vars, lits, starts)
