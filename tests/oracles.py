"""Independent reference implementations the test suite checks against.

Everything in here is deliberately written straight-line and separate from
the package internals so that it can serve as an oracle.  The last few
helpers are test fixtures: a CSV writer and a tree-depth measure.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from nn2logic.aig import AigGraph
from nn2logic.forest import DecisionTree, RandomForestModel, TreeNode


def quantize_reference(x: float, m: int, i: int) -> str:
    """Straight-line reference for the quantization scheme, in exact rationals."""
    x_int = int((1 << i) * Fraction(x))  # truncation toward zero
    largest_signed_int = (1 << (m - 1)) - 1
    x_int = min(largest_signed_int, x_int)
    smallest_signed_int = -(1 << (m - 1))
    x_int = max(smallest_signed_int, x_int)
    largest_unsigned_int = (1 << m) - 1
    x_int = x_int & largest_unsigned_int
    return format(x_int, "b").zfill(m)


def signed(word: int, width: int) -> int:
    if word & (1 << (width - 1)):
        word -= 1 << width
    return word


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


def sweep_reference(g: AigGraph) -> AigGraph:
    """``sweep`` by a depth-first walk from the outputs, then one copy of the live ANDs."""
    live = set()
    stack = [o >> 1 for o in g.outputs]
    while stack:
        node = stack.pop()
        if node in live:
            continue
        live.add(node)
        if g.fanin0[node] >= 0:
            stack += [g.fanin0[node] >> 1, g.fanin1[node] >> 1]
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


def merge_into_reference(dst, src, input_map: dict[int, int]) -> dict[int, int]:
    """``netlist.merge_into`` re-adding every gate through ``add_const``/``add_gate``."""
    mapping = dict(input_map)
    for sid in src.inputs:
        if dst.widths[mapping[sid]] != src.widths[sid]:
            raise ValueError(f"width mismatch binding module input {sid}")
    for g in src.gates:
        if g.kind == "CONST":
            mapping[g.output] = dst.add_const(g.params[0])
        else:
            mapping[g.output] = dst.add_gate(
                g.kind, tuple(mapping[o] for o in g.operands), g.params
            )
    return mapping


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
