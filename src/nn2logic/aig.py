"""And-Inverter Graph with complemented edges and structural hashing.

A literal is an int ``2 * node + complement``; node 0 is constant FALSE, so
literal 0 is FALSE and literal 1 is TRUE.  AND nodes are append-only with
both fanins created earlier, which keeps every traversal a single pass over
the node ids.  Each node carries its level, the longest path from an input in
AND nodes, set when the node is created.  Batch simulation packs one sample
per bit of a Python int, so a full pass evaluates every sample at once.

A node is stored as three 32-bit ints, as ABC's compact AIG keeps it: its
two fanin literals (``fanin0``, ``fanin1``) and its level, each in an
``array("i")``.  The structural hash ``_strash`` maps each AND's fanin pair
to its node, and only ``and2`` reads it.  A fresh graph starts with an empty
one, which ``and2`` keeps up to date.  The bulk appends of ``sweep``,
``import_graph`` and ``read_aiger`` drop it (``None``), and the first
``and2`` on such a graph rebuilds it from the fanins in one pass, so a graph
that is only swept, read or written never holds one.

Every AND node is canonical, as ``and2`` builds it: fanin0 < fanin1, neither
fanin is a constant, the two fanins are neither equal nor complementary, and
each (fanin0, fanin1) pair belongs to one node only.  So a one-to-one
renumbering of nodes that keeps complement bits maps canonical ANDs to
canonical ANDs, once each pair is put back in ascending order; the
whole-graph passes (``sweep``, AIGER I/O, the equation report) rely on it
and run on NumPy arrays of the fanins.

A LUT gate lowers as a Shannon mux tree.  Before lowering, one pass gives
each distinct table of the netlist the select order of least model cost
(`_shannon_orders`, an exact program over subsets of the selects); a table
and its complement share one cone through an inverted edge, and a mux with
a constant child costs one AND.

A MODEL gate is one distilled bit: ``lower_netlist`` hands its emitter the
graph and the bit's feature literals, so a forest bit's mux trees, ripple
adders and compare with zero (``forest._emit_forest_bit``) are written
straight into the graph.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from nn2logic.netlist import Netlist

_INPUT = -1
_CONST = -2


class AigGraph:
    def __init__(self) -> None:
        # per node; 32 bits suffice, as the structural-hash key already limits
        # literals to 32 bits.  Inputs and the constant have level 0.
        self.fanin0 = array("i", [_CONST])
        self.fanin1 = array("i", [_CONST])
        self.levels = array("i", [0])
        self.inputs: list[int] = []  # node ids in input order
        self.outputs: list[int] = []  # literals
        self.input_names: list = []
        self.output_names: list = []
        self.comments: list[str] = []  # AIGER comment lines, written after a ``c`` line
        self._strash: dict[int, int] | None = {}  # (fanin0 << 32 | fanin1) -> node

    # -- construction ----------------------------------------------------

    def add_input(self, name=None) -> int:
        """Create a primary input; returns its (uncomplemented) literal."""
        self.fanin0.append(_INPUT)
        self.fanin1.append(_INPUT)
        self.levels.append(0)
        self.inputs.append(len(self.fanin0) - 1)
        self.input_names.append(name)
        return (len(self.fanin0) - 1) << 1

    def add_output(self, literal: int, name=None) -> None:
        self.outputs.append(literal)
        self.output_names.append(name)

    def and2(self, a: int, b: int) -> int:
        if a == 1:
            return b
        if b == 1:
            return a
        if a == 0 or b == 0:
            return 0
        if a == b:
            return a
        if a ^ b == 1:
            return 0
        if a > b:
            a, b = b, a
        key = (a << 32) | b
        strash = self._strash
        if strash is None:
            strash = self._structural_hash()
        node = strash.get(key)
        if node is None:
            self.fanin0.append(a)
            self.fanin1.append(b)
            la = self.levels[a >> 1]
            lb = self.levels[b >> 1]
            self.levels.append((la if la >= lb else lb) + 1)
            node = len(self.fanin0) - 1
            strash[key] = node
        return node << 1

    def or2(self, a: int, b: int) -> int:
        return self.and2(a ^ 1, b ^ 1) ^ 1

    def xor2(self, a: int, b: int) -> int:
        return self.or2(self.and2(a, b ^ 1), self.and2(a ^ 1, b))

    def mux(self, sel: int, a: int, b: int) -> int:
        """``a`` when sel is 1, else ``b``; one AND when a child is constant."""
        if a == 1:
            return self.or2(sel, b)
        if b == 1:
            return self.or2(sel ^ 1, a)
        return self.or2(self.and2(sel, a), self.and2(sel ^ 1, b))

    # -- queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.fanin0)

    def and_count(self) -> int:
        return len(self.fanin0) - 1 - len(self.inputs)

    def fanin_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``fanin0`` and ``fanin1`` as int32 arrays, for the whole-graph passes.

        Each is one copy of the buffer; a view would stop the graph growing.
        """
        return np.array(self.fanin0, dtype=np.int32), np.array(self.fanin1, dtype=np.int32)

    def _structural_hash(self) -> dict[int, int]:
        """``_strash``, rebuilt from the fanins if a bulk append dropped it."""
        if self._strash is None:
            f0, f1 = self.fanin_arrays()
            ands = np.flatnonzero(f0 >= 0)
            keys = (f0[ands].astype(np.int64) << 32) | f1[ands]
            self._strash = dict(zip(keys.tolist(), ands.tolist()))
        return self._strash


def simulate_batch(g: AigGraph, input_words: list[int], n_lanes: int) -> list[int]:
    """Evaluate all lanes at once; lane s of word k is sample s's bit for input k."""
    if len(input_words) != len(g.inputs):
        raise ValueError(f"expected {len(g.inputs)} input words, got {len(input_words)}")
    mask = (1 << n_lanes) - 1
    f0, f1 = g.fanin0.tolist(), g.fanin1.tolist()
    values = [0] * len(f0)
    for node, word in zip(g.inputs, input_words):
        values[node] = word & mask
    for node in range(1, len(f0)):
        a = f0[node]
        if a < 0:
            continue
        b = f1[node]
        va = values[a >> 1]
        if a & 1:
            va ^= mask
        vb = values[b >> 1]
        if b & 1:
            vb ^= mask
        values[node] = va & vb
    outs = []
    for o in g.outputs:
        v = values[o >> 1]
        outs.append((v ^ mask) if o & 1 else v)
    return outs


def simulate_aig(g: AigGraph, input_bits) -> list[int]:
    """Single-vector simulation; returns one bit per output."""
    words = [int(b) & 1 for b in input_bits]
    return [v & 1 for v in simulate_batch(g, words, 1)]


def stats(g: AigGraph) -> tuple[int, int]:
    """(AND-node count, longest input-to-output path in AND nodes)."""
    return g.and_count(), max((g.levels[o >> 1] for o in g.outputs), default=0)


def live_nodes(g: AigGraph) -> np.ndarray:
    """One bool per node: True for the nodes the outputs reach.

    Live flags pass down one level at a time, from the top level to level 1;
    a node's fanins are on lower levels, so each level is final when reached.
    """
    f0, f1 = g.fanin_arrays()
    levels = np.array(g.levels)
    live = np.zeros(len(f0), dtype=bool)
    live[np.asarray(g.outputs, dtype=np.int64) >> 1] = True
    by_level = np.argsort(levels, kind="stable")
    ends = np.cumsum(np.bincount(levels))
    for level in range(len(ends) - 1, 0, -1):
        nodes = by_level[ends[level - 1] : ends[level]]
        nodes = nodes[live[nodes]]
        live[f0[nodes] >> 1] = True
        live[f1[nodes] >> 1] = True
    return live


def _renumbering(g: AigGraph, ands: np.ndarray, input_nodes, first: int):
    """Literal map sending ``g``'s inputs to ``input_nodes`` and ``ands`` to ``first`` on."""
    new_index = np.zeros(g.num_nodes, dtype=np.int64)
    new_index[np.asarray(g.inputs, dtype=np.int64)] = input_nodes
    new_index[ands] = np.arange(first, first + len(ands))
    return lambda literals: (new_index[literals >> 1] << 1) | (literals & 1)


def _append_ands(dst: AigGraph, a: np.ndarray, b: np.ndarray, levels: np.ndarray) -> None:
    """Append ANDs of fanin literals ``a`` and ``b`` at ``levels`` to ``dst``, in order.

    Each pair, once sorted, must be a canonical AND whose pair no AND of
    ``dst`` has yet: then no ``and2`` rule or structural-hash hit could fire,
    and the result is what ``and2`` builds.  Copies of a graph's ANDs are
    such pairs when the renumbering is one-to-one, keeps complement bits and
    maps the ANDs to ``dst.num_nodes`` onwards in order (see the module
    docstring); so are the AND lines ``read_aiger`` reads in bulk.  The
    structural hash is dropped, for the next ``and2`` to rebuild.
    """
    # inputs interleaved with ANDs can move in front of them, which swaps a pair
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    dst.fanin0.frombytes(lo.astype(np.int32).tobytes())
    dst.fanin1.frombytes(hi.astype(np.int32).tobytes())
    dst.levels.frombytes(levels.astype(np.int32).tobytes())
    dst._strash = None


def sweep(g: AigGraph) -> AigGraph:
    """Drop AND nodes unreachable from the outputs, renumbering the rest.

    Primary inputs are all kept, as nodes 1..I in input order, so input
    counts and positions are stable; the live ANDs follow in their current
    order, copied as ``_append_ands`` does, so the result is the graph a
    rebuild through ``and2`` gives.
    """
    f0, f1 = g.fanin_arrays()
    ands = np.flatnonzero(live_nodes(g) & (f0 >= 0))
    n_in = len(g.inputs)
    ren = _renumbering(g, ands, np.arange(1, n_in + 1), n_in + 1)
    out = AigGraph()
    for name in g.input_names:
        out.add_input(name)
    _append_ands(out, ren(f0[ands]), ren(f1[ands]), np.array(g.levels)[ands])
    out.outputs = ren(np.asarray(g.outputs, dtype=np.int64)).tolist()
    out.output_names = list(g.output_names)
    return out


def import_graph(dst: AigGraph, src: AigGraph, input_lits: list[int]) -> list[int]:
    """Copy ``src`` into ``dst`` with its inputs bound; returns output literals.

    When ``dst`` holds only inputs and the bindings are distinct
    uncomplemented inputs of it, as for the first circuit of a miter or an
    onset query, the copy is a one-to-one renumbering and every AND is
    appended in bulk (``_append_ands``).  Otherwise every AND goes through
    ``dst.and2``: constant, complemented or repeated bindings and ``dst``'s
    own ANDs can make a copied AND fold or hit the structural hash, as when
    a miter joins two circuits over one set of inputs.
    """
    if len(input_lits) != len(src.inputs):
        raise ValueError("input binding count mismatch")
    bound = np.asarray(input_lits, dtype=np.int64)
    if (
        dst.and_count() == 0  # so every node but the constant is an input
        and not (bound & 1).any()
        and ((bound >= 2) & (bound < 2 * dst.num_nodes)).all()
        and len(np.unique(bound)) == len(bound)
    ):
        f0, f1 = src.fanin_arrays()
        ands = np.flatnonzero(f0 >= 0)
        ren = _renumbering(src, ands, bound >> 1, dst.num_nodes)
        _append_ands(dst, ren(f0[ands]), ren(f1[ands]), np.array(src.levels)[ands])
        return ren(np.asarray(src.outputs, dtype=np.int64)).tolist()
    f0, f1 = src.fanin0.tolist(), src.fanin1.tolist()
    remap = [0] * len(f0)
    for node, lit in zip(src.inputs, input_lits):
        remap[node] = lit
    and2 = dst.and2
    for node in range(1, len(f0)):
        a = f0[node]
        if a < 0:
            continue
        b = f1[node]
        remap[node] = and2(remap[a >> 1] ^ (a & 1), remap[b >> 1] ^ (b & 1))
    return [remap[o >> 1] ^ (o & 1) for o in src.outputs]


# -- word-level lowering ---------------------------------------------------


def _ripple_add(g: AigGraph, a: list[int], b: list[int], carry: int = 0) -> list[int]:
    out = []
    for x, y in zip(a, b):
        xy = g.xor2(x, y)
        out.append(g.xor2(xy, carry))
        carry = g.or2(g.and2(x, y), g.and2(carry, xy))
    return out


def _and_all(g: AigGraph, lits: list[int]) -> int:
    """AND of ``lits``, always joining the two of lowest level (TRUE when empty)."""
    levels = g.levels
    heap = [(levels[lit >> 1], lit) for lit in lits]
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)[1]
        b = heapq.heappop(heap)[1]
        ab = g.and2(a, b)
        heapq.heappush(heap, (levels[ab >> 1], ab))
    return heap[0][1] if heap else 1


def _is_positive(g: AigGraph, a: list[int], b: list[int]) -> int:
    """1 iff signed a > signed b, via a sign-extended subtraction: sign clear and result nonzero."""
    aa = a + [a[-1]]
    bb = [x ^ 1 for x in b] + [b[-1] ^ 1]
    diff = _ripple_add(g, aa, bb, 1)
    nonzero = _and_all(g, [bit ^ 1 for bit in diff]) ^ 1
    return g.and2(diff[-1] ^ 1, nonzero)


def _csd_digits(w: int) -> list[tuple[int, int]]:
    """Canonical signed digits of ``w`` as (shift, +1 or -1), no two adjacent."""
    digits = []
    shift = 0
    while w:
        if w & 1:
            d = 2 - (w & 3)  # +1 when w = 1 mod 4, else -1
            digits.append((shift, d))
            w -= d
        w >>= 1
        shift += 1
    return digits


def _weighted_sum(g: AigGraph, xs: list[list[int]], weights, bias: int) -> list[int]:
    """``bias + sum(weights[k] * xs[k])`` over signed m-bit words, wrapped to 3m bits.

    Each weight is recoded in canonical signed digits, and each non-zero
    digit at shift s adds one row, +x or -x, into per-column bit heaps.  A +x
    row puts x_0..x_{m-2} and ~x_{m-1} into columns s..s+m-1 and adds the
    constant -2**(s+m-1); a -x row puts ~x_0..~x_{m-2} and x_{m-1} and adds
    2**s - 2**(s+m-1).  Those constants and the bias fold into one constant
    whose 1 bits join the heaps.  The sum is formed at W bits, the signed
    width of the interval ``bias + sum(min(w*lo, w*hi)) .. bias +
    sum(max(w*lo, w*hi))`` over the input range lo..hi, capped at 3m, and
    sign-extended to 3m bits, which gives the 3m-bit wrap in every case.
    Full adders reduce each column to at most two bits, lowest column first,
    always taking the three bits of lowest AIG level, and one ripple adder
    adds the two rows that remain.
    """
    m = len(xs[0])
    lo, hi = -(1 << (m - 1)), (1 << (m - 1)) - 1
    low = high = bias
    for w in weights:
        low += min(w * lo, w * hi)
        high += max(w * lo, w * hi)
    width = min(3 * m, max((v if v >= 0 else ~v).bit_length() for v in (low, high)) + 1)
    columns: list[list[int]] = [[] for _ in range(width)]
    const = bias
    for x, w in zip(xs, weights):
        for shift, d in _csd_digits(w):
            flip = 1 if d < 0 else 0
            for j in range(min(m, width - shift)):
                columns[shift + j].append(x[j] ^ flip ^ (j == m - 1))
            const -= 1 << (shift + m - 1)
            if flip:
                const += 1 << shift
    for j in range(width):
        if (const >> j) & 1:
            columns[j].append(1)
    levels = g.levels
    first: list[int] = []
    second: list[int] = []
    for j, column in enumerate(columns):
        heap = [(levels[lit >> 1], lit) for lit in column]
        heapq.heapify(heap)
        while len(heap) > 2:
            a = heapq.heappop(heap)[1]
            b = heapq.heappop(heap)[1]
            c = heapq.heappop(heap)[1]
            ab = g.xor2(a, b)
            total = g.xor2(ab, c)
            heapq.heappush(heap, (levels[total >> 1], total))
            if j + 1 < width:
                columns[j + 1].append(g.or2(g.and2(a, b), g.and2(c, ab)))
        pair = [lit for _, lit in heap] + [0, 0]
        first.append(pair[0])
        second.append(pair[1])
    word = _ripple_add(g, first, second)
    return word + [word[-1]] * (3 * m - width)


def _lut_cofactor(g: AigGraph, table: int, sels: list[int], memo: dict) -> int:
    """Shannon mux tree of ``table`` over ``sels``, splitting on ``sels[-1]`` first.

    A table and its complement share one cone: a table whose entry 0 is 1 is
    lowered complemented and its literal inverted.
    """
    k = len(sels)
    if k == 0:
        return table & 1
    full = (1 << (1 << k)) - 1
    if table & 1:
        return _lut_cofactor(g, table ^ full, sels, memo) ^ 1
    if table == 0:
        return 0
    key = (k, table)
    cached = memo.get(key)
    if cached is not None:
        return cached
    half = 1 << (k - 1)
    lo = table & ((1 << half) - 1)
    hi = table >> half
    if lo == hi:
        res = _lut_cofactor(g, lo, sels[:-1], memo)
    else:
        f0 = _lut_cofactor(g, lo, sels[:-1], memo)
        f1 = _lut_cofactor(g, hi, sels[:-1], memo)
        res = g.mux(sels[-1], f1, f0)
    memo[key] = res
    return res


def _shannon_orders(tables: list[int], k: int) -> tuple[list[int], np.ndarray]:
    """Cheapest Shannon split order of each k-input table, and the table permuted to it.

    Returns the permuted tables and an (n, k) array ``perm``: new select j is
    old select ``perm[:, j]``, so ``perm[:, k - 1]`` is split first.  The
    order minimises the model cost of `_lut_cofactor`'s tree by the subset
    program of Friedman and Supowit (1990): ``best[S]`` is the cheapest
    bottom part over the variables in S, ``best[S] = min over v in S of
    best[S - v] + cost(S, v)``, where cost(S, v) counts the distinct
    subfunctions on S (the variables outside S fixed every way), up to
    complement, that depend on v: 1 AND if a v-cofactor is constant, else 3.
    For each v, the program reads the v-cofactors of a subfunction on S as
    two subfunctions on S - v, whose truth tables the subsets of one size
    fewer hold.  Every table of the batch runs through each step at once.
    Taking a subset's variables in ascending order and keeping the first
    minimum makes a tie put the lowest variable on top of S.
    """
    n, size = len(tables), 1 << k
    nbytes = max(1, size // 8)
    raw = np.frombuffer(b"".join(t.to_bytes(nbytes, "little") for t in tables), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(n, nbytes), axis=1, bitorder="little")[:, :size]

    def cofactor(per_subfunction: np.ndarray, v: int, value: int) -> np.ndarray:
        return per_subfunction[(slice(None),) * (k - v) + (slice(value, value + 1),)]

    # subset S -> (the truth table of each subfunction on S, whether it is
    # constant); entry bits in ascending variable order, axis k - i holds
    # variable i, of length 1 in S
    codes = {0: (bits.reshape((n,) + (2,) * k).astype(np.uint64), np.ones((n,) + (2,) * k, bool))}
    best = np.full((n, size), np.iinfo(np.int64).max)
    best[:, 0] = 0
    choice = np.zeros((n, size), dtype=np.int64)
    for s in range(1, k + 1):
        half = 1 << (s - 1)  # entries of a cofactor
        smaller, codes = codes, {}
        for subset in [x for x in range(1, size) if x.bit_count() == s]:
            top = subset.bit_length() - 1
            rest = smaller[subset ^ (1 << top)][0]
            if half == 64:
                rest = rest.astype(object)  # Python ints past 64 entries
            code = cofactor(rest, top, 0) | (cofactor(rest, top, 1) << half)
            ones = (1 << 2 * half) - 1
            codes[subset] = code, (code == 0) | (code == ones)
            # flag one of each set of subfunctions equal up to complement
            ids = (code ^ (code & 1) * ones).reshape(n, -1)
            by_id = np.argsort(ids, axis=1)
            sorted_ids = np.take_along_axis(ids, by_id, axis=1)
            new_id = np.ones(ids.shape, dtype=bool)
            new_id[:, 1:] = sorted_ids[:, 1:] != sorted_ids[:, :-1]
            first = np.empty_like(new_id)
            np.put_along_axis(first, by_id, new_id, axis=1)
            for v in [v for v in range(k) if subset >> v & 1]:
                lower, const = smaller[subset ^ (1 << v)]
                depends = (cofactor(lower, v, 0) != cofactor(lower, v, 1)).reshape(n, -1) & first
                one_and = depends & (cofactor(const, v, 0) | cofactor(const, v, 1)).reshape(n, -1)
                cost = 3 * np.count_nonzero(depends, axis=1) - 2 * np.count_nonzero(one_and, axis=1)
                cand = best[:, subset ^ (1 << v)] + cost
                better = cand < best[:, subset]
                best[:, subset] = np.where(better, cand, best[:, subset])
                choice[:, subset] = np.where(better, v, choice[:, subset])
    rows = np.arange(n)
    perm = np.zeros((n, k), dtype=np.int64)
    left = np.full(n, size - 1)
    for j in range(k - 1, -1, -1):
        perm[:, j] = choice[rows, left]
        left ^= 1 << perm[:, j]
    pattern = np.arange(size)
    index = np.zeros((n, size), dtype=np.int64)
    for j in range(k):
        index |= ((pattern >> j) & 1)[None, :] << perm[:, j : j + 1]
    packed = np.packbits(np.take_along_axis(bits, index, axis=1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed], perm


def _lut_orders(net: Netlist) -> dict[tuple[int, int], tuple[int, list[int]]]:
    """(table, k) -> (permuted table, select order) for each distinct LUT of ``net``."""
    by_k: dict[int, dict[int, None]] = {}
    for gate in net.gates:
        if gate.kind == "LUT":
            table, k = gate.params
            by_k.setdefault(k, {})[int(table)] = None
    orders = {}
    for k, distinct in by_k.items():
        tables = list(distinct)
        for start in range(0, len(tables), 1024):  # bounds the program's arrays at large k
            batch = tables[start : start + 1024]
            permuted, perm = _shannon_orders(batch, k)
            for table, new, order in zip(batch, permuted, perm.tolist()):
                orders[(table, k)] = (new, order)
    return orders


def lower_netlist(net: Netlist) -> AigGraph:
    """Bit-blast a word-level netlist into AND/NOT structure.

    Output literals correspond positionally to the netlist outputs, each word
    expanded least significant bit first.
    """
    g = AigGraph()
    lut_orders = _lut_orders(net)
    bits: dict[int, list[int]] = {}
    for sid in net.inputs:
        name = net.names[sid] or f"x{sid}"
        bits[sid] = [g.add_input(f"{name}[{j}]") for j in range(net.widths[sid])]

    for gate in net.gates:
        ops = [bits[o] for o in gate.operands]
        kind = gate.kind
        if kind == "NEURON":
            weights, bias, shift, relu = gate.params
            m = len(ops[0])
            # shift, saturate, then the ReLU: saturating first gives the same
            # word, and the ReLU's AND with the inverted sign makes the sign 0
            src = _weighted_sum(g, ops, weights, bias)[shift:]
            sign = src[-1]
            fits = _and_all(g, [g.xor2(src[j], sign) ^ 1 for j in range(m - 1, len(src) - 1)])
            word = [g.mux(fits, src[j], sign if j == m - 1 else sign ^ 1) for j in range(m)]
            if relu:
                word = [g.and2(bit, word[-1] ^ 1) for bit in word]
        elif kind == "GT":
            word = [_is_positive(g, ops[0], ops[1])]
        elif kind == "SLICE":
            lo, hi = gate.params
            word = ops[0][lo : hi + 1]
        elif kind == "CONCAT":
            word = []
            for op in reversed(ops):  # last operand holds the low bits
                word.extend(op)
        elif kind == "LUT":
            table, order = lut_orders[gate.params]
            word = [_lut_cofactor(g, table, [ops[i][0] for i in order], {})]
        elif kind == "MODEL":
            emit, model = gate.params
            word = [emit(g, [op[0] for op in ops], model)]
        else:
            raise ValueError(f"cannot lower gate kind {kind!r}")
        bits[gate.output] = word

    for sid in net.outputs:
        name = net.names[sid] or f"y{sid}"
        word = bits[sid]
        for j, literal in enumerate(word):
            g.add_output(literal, f"{name}[{j}]" if len(word) > 1 else name)
    return g


# -- AIGER I/O --------------------------------------------------------------


def write_aiger(g: AigGraph, path) -> None:
    """ASCII AIGER (`aag M I L O A`, combinational: L = 0).

    Inputs are variables 1..I in input order and the ANDs follow in node
    order, so every AND line comes after the lines of its fanins.  The
    comment section is written only when ``g.comments`` holds a line.
    """
    f0, f1 = g.fanin_arrays()
    ands = np.flatnonzero(f0 >= 0)
    n_in, n_and = len(g.inputs), len(ands)
    ren = _renumbering(g, ands, np.arange(1, n_in + 1), n_in + 1)
    body = np.stack([ren(ands << 1), ren(f0[ands]), ren(f1[ands])], axis=1)
    lines = [f"aag {n_in + n_and} {n_in} 0 {len(g.outputs)} {n_and}"]
    lines += map(str, range(2, 2 * n_in + 1, 2))
    lines += map(str, ren(np.asarray(g.outputs, dtype=np.int64)).tolist())
    lines += [f"i{pos} {name}" for pos, name in enumerate(g.input_names) if name]
    lines += [f"o{pos} {name}" for pos, name in enumerate(g.output_names) if name]
    if g.comments:
        lines += ["c", *g.comments]
    head = 1 + n_in + len(g.outputs)
    with open(path, "w") as fh:
        fh.write("".join(f"{line}\n" for line in lines[:head]))
        fh.write(("%d %d %d\n" * n_and) % tuple(body.ravel().tolist()))
        fh.write("".join(f"{line}\n" for line in lines[head:]))


def _plain_ands(section: list[str]) -> np.ndarray | None:
    """The (A, 3) values of AND lines that are all plain, else None.

    A plain line is three tokens of 1 to 18 ASCII digits, one space apart.
    On such lines ``int`` and NumPy's text parser read the same values, and
    none can overflow int64, so one parse stands for every line's.
    """
    text = "\n".join(section)
    if not section or not text.isascii():
        return None
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    seps = np.flatnonzero((raw < ord("0")) | (raw > ord("9")))
    if len(seps) != 3 * len(section) - 1:
        return None
    pattern = np.tile(np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8), len(section))
    widths = np.diff(seps, prepend=-1, append=len(raw)) - 1
    if not ((raw[seps] == pattern[:-1]).all() and (widths >= 1).all() and (widths <= 18).all()):
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 3)


def _canonical_as_numbered(n_in: int, ands: np.ndarray) -> bool:
    """Whether every AND line is a canonical AND as numbered.

    ``ands`` are the section's (lhs, rhs0, rhs1) rows of a file whose inputs
    are variables 1..I in order.  Line j qualifies when its lhs is
    2 * (I + 1 + j), both its fanins are variables 1..I + j (inputs or
    earlier lines, so neither is a constant), the two differ, and no other
    line has the same sorted pair.  Such a line passes every check of the
    reader, since the header's M is at least I + A, and ``and2`` would
    create node I + 1 + j from it with the file's literals unchanged.
    """
    own = n_in + 1 + np.arange(len(ands))
    fanin_vars = ands[:, 1:] >> 1
    if not (
        (ands[:, 0] == 2 * own).all()
        and (fanin_vars >= 1).all()
        and (fanin_vars < own[:, None]).all()
        and (fanin_vars[:, 0] != fanin_vars[:, 1]).all()
    ):
        return False
    key = np.sort((ands[:, 1:].min(axis=1) << 32) | ands[:, 1:].max(axis=1))
    return bool((key[1:] != key[:-1]).all())


def read_aiger(path) -> AigGraph:
    """Read a combinational ASCII AIGER file; bad input raises ValueError at ``path:line``.

    When the inputs are variables 1..I in order and every AND line is plain
    (``_plain_ands``) and a canonical AND as numbered
    (``_canonical_as_numbered``), as in every file `write_aiger` emits, the
    AND section is parsed in one step and appended in bulk.  Otherwise each
    line is checked and built with ``and2`` as soon as both fanins are
    defined, and the ANDs left waiting are resolved afterwards in ascending
    variable order.  The lines after a ``c`` line, to the end of the file,
    are the graph's ``comments``.
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
        first = 1 + n_in + n_out
        ands = _plain_ands(lines[first:end])
        # when the inputs are variables 1..I in order, variable v is node v
        in_order = ands is not None and list(var_lit) == list(range(n_in + 1))
        if in_order and _canonical_as_numbered(n_in, ands):
            levels = g.levels.tolist()
            for a, b in zip((ands[:, 1] >> 1).tolist(), (ands[:, 2] >> 1).tolist()):
                la, lb = levels[a], levels[b]
                levels.append((la if la >= lb else lb) + 1)
            _append_ands(g, ands[:, 1], ands[:, 2], np.array(levels[n_in + 1 :]))
            var_lit.update((v, v << 1) for v in range(n_in + 1, g.num_nodes))
            first = end
        and2 = g.and2
        pending: dict[int, tuple[int, int, int]] = {}  # AND var -> (rhs0, rhs1, line)
        for k in range(first, end):
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
