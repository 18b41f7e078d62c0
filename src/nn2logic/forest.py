"""Per-bit random forests over binary features and their circuit modules.

Features and labels are bits, so every split threshold is 0.5 and a CART
split is just a choice of feature column.  Trees grow on bootstrap samples
with ceil(sqrt(F)) candidate features per split; leaves keep the empirical
class frequencies.

Training counts on packed columns (``datasets.pack_bits``): sample i is bit
i % 64 of word i // 64.  A tree holds its bootstrap as bit planes of the row
multiplicities, plane b holding bit b of each row's draw count, with as many
planes as the largest count needs, plus the same planes ANDed with the
packed labels.  A node is both sets of planes masked to its rows; its
weighted row and one counts are popcounts weighted by 2**b.  A candidate's
counts on its 1 side are the popcounts of the node's planes ANDed with the
candidate's column; a split's right child takes them and its left child the
parent's counts minus them, so no child is counted again.

Each forest is one generator, ``_grow_forest``, that grows its trees depth
first from its own seed and yields every node it can split.  All forests of
one MLP layer grow over one feature matrix: each step counts the candidates
of every forest's pending node with one ``bitwise_count``, scores them with
one Gini expression and sends each forest its split, so a forest does not
depend on the others it grows beside.

A forest bit votes ``sum(q(p1) - q(p0)) > 0`` over its trees' leaves, with
``q`` the 8-bit quantized probability.  It lowers in one of two forms, chosen
by the tree count T: at T <= 2 a reduced threshold decision diagram of 1-bit
MUXes (tree 0's leaf with vote v selects tree 1's leaf vote above -v), at
T >= 3 one signed vote word per tree, summed and compared with zero.  On the
benchmark's distillation sets (176 forests per point) the diagram took
22-85% fewer AND nodes than the vote words at T <= 2 and about two to three
times as many at T = 3 and 4.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from nn2logic import netlist as nl
from nn2logic.datasets import bit_training_set, pack_bits
from nn2logic.fixedpoint import from_int

PROB_FRAC_BITS = 8  # leaf class probabilities as unsigned fixed point


@dataclass
class TreeNode:
    feature: int | None = None  # None marks a leaf
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    p0: float = 0.0
    p1: float = 0.0


@dataclass
class DecisionTree:
    root: TreeNode

    def leaf_for(self, row) -> TreeNode:
        node = self.root
        while node.feature is not None:
            node = node.right if row[node.feature] else node.left
        return node

@dataclass
class RandomForestModel:
    trees: list[DecisionTree] = field(default_factory=list)
    n_estimators: int = 0
    max_depth: int = 0
    seed: int = 0
    n_features: int = 0


def _best_splits(rows: np.ndarray, ones: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per node, the candidate index of its lowest-impurity valid split, or -1.

    ``rows`` and ``ones`` are (A,) weighted counts of A nodes, ``right`` the
    (A, C, 2) rows and ones on the 1 side of each node's C candidates in
    ascending feature order.  A split is valid when both sides are non-empty;
    zero-gain splits of impure nodes are allowed (parity-style targets such as
    XOR have no single informative bit, yet the children become separable).
    A later candidate wins only below the best so far minus 1e-12, so ties
    keep the lowest feature.
    """
    rows, ones = rows[:, None], ones[:, None]
    rn, ro = right[..., 0], right[..., 1]
    valid = (rn > 0) & (rn < rows)
    ln = np.where(valid, rows - rn, 1)
    rn = np.where(valid, rn, 1)
    lo = ones - ro
    gl = 1.0 - (lo / ln) ** 2 - ((ln - lo) / ln) ** 2
    gr = 1.0 - (ro / rn) ** 2 - ((rn - ro) / rn) ** 2
    impurity = np.where(valid, (ln * gl + rn * gr) / rows, np.inf)
    best = np.full(len(rows), np.inf)
    best_k = np.full(len(rows), -1)
    for k in range(impurity.shape[1]):
        better = impurity[:, k] < best - 1e-12
        best = np.where(better, impurity[:, k], best)
        best_k = np.where(better, k, best_k)
    return best_k


def _multiplicity_planes(draws: np.ndarray, n: int) -> np.ndarray:
    """(P, words) planes of a bootstrap: plane b holds bit b of each row's draw count.

    P is the bit length of the largest count, so a row drawn 8 times gets a
    fourth plane.
    """
    counts = np.bincount(draws, minlength=n)
    bits = counts >> np.arange(int(counts.max()).bit_length())[:, None]
    return pack_bits((bits & 1).astype(np.uint8))


def _grow_forest(model: RandomForestModel, labels, packed_labels, cols):
    """Grow ``model``'s trees depth first, left child first, as a generator of split requests.

    Draws come from ``default_rng(model.seed)``: a tree's bootstrap rows at
    its start, then ceil(sqrt(F)) sorted candidate columns (all F, undrawn,
    when that is F or more) at each node that can split, i.e. is impure
    above ``max_depth``.  At each such node it
    yields ``(planes, rows, ones, candidates)``, ``planes`` being the
    (2, P, words) rows and ones planes masked to the node, and receives
    ``(feature, right rows, right ones)``, or None to leave the node a leaf.
    """
    rng = np.random.default_rng(model.seed)
    n, f = len(labels), model.n_features
    n_candidates = math.ceil(math.sqrt(f))
    stack: list[tuple] = []

    def node(planes, mask, rows: int, ones: int, depth: int) -> TreeNode:
        """A node with its class frequencies, stacked with its planes if it can split."""
        tree_node = TreeNode(p0=(rows - ones) / rows, p1=ones / rows)
        if depth < model.max_depth and 0 < ones < rows:
            stack.append((tree_node, planes & mask, rows, ones, depth))
        return tree_node

    for _ in range(model.n_estimators):
        draws = rng.integers(0, n, size=n)
        planes = _multiplicity_planes(draws, n)
        planes = np.stack([planes, planes & packed_labels])
        root = node(planes, ~np.uint64(0), n, int(labels[draws].sum()), 0)
        model.trees.append(DecisionTree(root))
        while stack:
            parent, planes, rows, ones, depth = stack.pop()
            if n_candidates >= f:
                candidates = np.arange(f)
            else:
                candidates = np.sort(rng.choice(f, size=n_candidates, replace=False))
            split = yield planes, rows, ones, candidates
            if split is not None:
                feature, rn, ro = split
                parent.feature = feature
                parent.right = node(planes, cols[feature], rn, ro, depth + 1)
                parent.left = node(planes, ~cols[feature], rows - rn, ones - ro, depth + 1)


def _count_right(cols: np.ndarray, planes: tuple, candidates: tuple) -> np.ndarray:
    """(A, C, 2) weighted rows and ones on the 1 side of each node's candidates.

    ``planes[i]`` and ``candidates[i]`` are node i's (2, P_i, words) planes
    and its C candidate columns.  One ``bitwise_count`` covers every
    candidate of every node; each node's planes are padded with zero planes
    to the largest plane count.
    """
    n_planes = max(p.shape[1] for p in planes)
    padded = np.zeros((len(planes), 2, n_planes, cols.shape[1]), dtype=cols.dtype)
    for i, p in enumerate(planes):
        padded[i, :, : p.shape[1]] = p
    hits = padded[:, None] & cols[np.array(candidates)][:, :, None, None, :]
    counts = np.bitwise_count(hits).sum(axis=-1, dtype=np.int64)  # (A, C, 2, P)
    return counts @ (1 << np.arange(n_planes, dtype=np.int64))


def train_forests(
    features, labels, seeds, n_estimators: int, max_depth: int
) -> list[RandomForestModel]:
    """One forest per label column over one shared feature matrix.

    Forest j trains on ``labels[:, j]`` from ``seeds[j]``.  Each forest is
    one ``_grow_forest`` generator.  Each step counts every pending split
    request with one ``_count_right``, scores them with one ``_best_splits``
    and sends each forest its split, so forest j is the one column j would
    grow alone.
    """
    x, y = bit_training_set(features, labels, seeds)
    if n_estimators < 1:
        raise ValueError("need at least one estimator")
    if max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    f = x.shape[1]
    cols = pack_bits(x.T)
    models = [RandomForestModel([], n_estimators, max_depth, seed, f) for seed in seeds]
    sends = [
        (_grow_forest(model, y[:, j], packed, cols), None)
        for j, (model, packed) in enumerate(zip(models, pack_bits(y.T)))
    ]
    while True:
        pending = []
        for g, split in sends:
            try:
                pending.append((g, g.send(split)))
            except StopIteration:
                pass
        if not pending:
            return models
        live, requests = zip(*pending)
        planes, rows, ones, candidates = zip(*requests)
        right = _count_right(cols, planes, candidates)
        best = _best_splits(np.array(rows), np.array(ones), right).tolist()
        chosen = right[np.arange(len(best)), best].tolist()
        sends = [
            (g, (int(c[k]), *counts) if k >= 0 else None)
            for g, c, k, counts in zip(live, candidates, best, chosen)
        ]


def quantize_prob(p: float) -> int:
    """Unsigned integer vote weight of a leaf probability."""
    return min(1 << PROB_FRAC_BITS, int(round(p * (1 << PROB_FRAC_BITS))))


def predict_forest(model: RandomForestModel, feature_row) -> int:
    """Argmax of the quantized vote sums; ties give 0.

    This is the vote circuit's function, computed apart from it.  The circuit
    never forms two class sums: for one or two trees it is a decision diagram
    on ``v0 + v1 > 0``, and for three or more it sums the per-tree
    differences ``v = q(p1) - q(p0)`` in one signed word.
    """
    row = np.asarray(feature_row).astype(np.uint8)
    s0 = s1 = 0
    for tree in model.trees:
        leaf = tree.leaf_for(row)
        s0 += quantize_prob(leaf.p0)
        s1 += quantize_prob(leaf.p1)
    return int(s1 > s0)


def vote_width(n_trees: int) -> int:
    """Signed width at which a sum of ``n_trees`` leaf votes never wraps.

    Each vote ``q(p1) - q(p0)`` lies in ±2**PROB_FRAC_BITS, so |sum| < 2**(width - 1).
    """
    return PROB_FRAC_BITS + 2 + math.ceil(math.log2(n_trees))


def _leaf_vote(leaf: TreeNode) -> int:
    return quantize_prob(leaf.p1) - quantize_prob(leaf.p0)


def _emit_tree(net: nl.Netlist, feature_sids: list[int], node, width: int) -> int:
    """Mux tree of one tree; returns its signed vote word ``q(p1) - q(p0)``.

    Each leaf is one constant and each internal node one MUX selected by its
    1-bit feature signal, the right subtree taken when the bit is 1.
    """
    if node.feature is None:
        return net.add_const(from_int(_leaf_vote(node), width))
    left = _emit_tree(net, feature_sids, node.left, width)
    right = _emit_tree(net, feature_sids, node.right, width)
    return net.add_gate("MUX", (feature_sids[node.feature], right, left))


def _emit_threshold_diagram(
    net: nl.Netlist, feature_sids: list[int], trees: list[DecisionTree]
) -> int:
    """Reduced decision diagram of ``v0 + v1 > 0`` over one or two trees.

    ``above(node, t)`` is the bit ``v > t``, where ``v`` is the vote of the
    leaf the input reaches in ``node``'s subtree.  Thresholds of the same
    rank among the node's sorted distinct leaf votes give the same bit, so
    each (node, rank) is emitted once, a subtree whose leaves all agree is a
    shared constant, and a MUX whose two children are one signal is left out
    (Bryant's two reductions).  One tree gives ``above(root, 0)``; with two,
    tree 0's MUX tree selects ``above(root1, -v0)`` at each of its leaves.
    """
    consts: dict[int, int] = {}
    votes: dict[int, list[int]] = {}
    shared: dict[tuple[int, int], int] = {}

    def const(bit: int) -> int:
        if bit not in consts:
            consts[bit] = net.add_const(str(bit))
        return consts[bit]

    def mux(node: TreeNode, right: int, left: int) -> int:
        if right == left:
            return left
        return net.add_gate("MUX", (feature_sids[node.feature], right, left))

    def leaf_votes(node: TreeNode) -> list[int]:
        if id(node) not in votes:
            if node.feature is None:
                votes[id(node)] = [_leaf_vote(node)]
            else:
                both = leaf_votes(node.left) + leaf_votes(node.right)
                votes[id(node)] = sorted(set(both))
        return votes[id(node)]

    def above(node: TreeNode, t: int) -> int:
        vs = leaf_votes(node)
        rank = bisect.bisect_right(vs, t)  # leaf votes at or below t
        if rank == 0 or rank == len(vs):
            return const(int(rank == 0))
        key = (id(node), rank)
        if key not in shared:
            left = above(node.left, t)
            shared[key] = mux(node, above(node.right, t), left)
        return shared[key]

    def select(node: TreeNode) -> int:
        if node.feature is None:
            return above(trees[1].root, -_leaf_vote(node))
        left = select(node.left)
        return mux(node, select(node.right), left)

    return above(trees[0].root, 0) if len(trees) == 1 else select(trees[0].root)


def _emit_forest_bit(net: nl.Netlist, feature_sids: list[int], model: RandomForestModel) -> int:
    """Vote circuit of one forest bit, ``sum(q1 - q0) > 0`` over its trees.

    ``sum(q1) > sum(q0)`` exactly when ``sum(q1 - q0) > 0``, so the bit is
    the function ``predict_forest`` computes.  One or two trees lower as a
    threshold decision diagram (``_emit_threshold_diagram``); three or more
    sum the trees' vote words in one ADD chain and compare with one GT.  On
    the benchmark's distillation sets the diagram never lost to the vote
    words at T <= 2 by more than one node in total, and the rule reads only
    T: extended to three and four trees, where each tree multiplies the
    partial sums to carry, it was larger in 148 and 149 of 176 forests and
    about two and three times as large in total.
    """
    trees = model.trees
    if len(trees) <= 2:
        return _emit_threshold_diagram(net, feature_sids, trees)
    width = vote_width(len(trees))
    total = _emit_tree(net, feature_sids, trees[0].root, width)
    for tree in trees[1:]:
        total = net.add_gate("ADD", (total, _emit_tree(net, feature_sids, tree.root, width)))
    return net.add_gate("GT", (total, net.add_const("0" * width)))


def forest_module(models: list[RandomForestModel], word_width: int | None = None):
    """Concatenate per-bit forests into one module with word-level I/O.

    ``models[j]`` predicts bit j of the output word; see ``netlist.bit_module``.
    """
    return nl.bit_module(models, word_width, _emit_forest_bit)


def forest_to_text(model: RandomForestModel) -> str:
    lines = [
        f"forest {model.n_estimators} {model.max_depth} {model.seed} {model.n_features}"
    ]

    def walk(node: TreeNode) -> None:
        if node.feature is None:
            lines.append(f"leaf {node.p0!r} {node.p1!r}")
        else:
            lines.append(f"node {node.feature}")
            walk(node.left)
            walk(node.right)

    for tree in model.trees:
        lines.append("tree")
        walk(tree.root)
    return "\n".join(lines) + "\n"
