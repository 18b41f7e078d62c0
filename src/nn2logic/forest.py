"""Per-bit random forests over binary features and their circuit modules.

Features and labels are bits, so every split threshold is 0.5 and a CART
split is just a choice of feature column.  Trees grow on bootstrap samples
with ceil(sqrt(F)) candidate features per split; leaves keep the empirical
class frequencies.

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
from nn2logic.datasets import bit_training_set
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
    max_depth: int
    n_features: int

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


def _gini_best_split(x: np.ndarray, y: np.ndarray, candidates: np.ndarray):
    """Lowest-impurity valid split among candidate columns, or None.

    Zero-gain splits of impure nodes are allowed (parity-style targets such
    as XOR have no single informative bit, yet the children become
    separable); both children must be non-empty, so recursion terminates.
    """
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


def _grow(x, y, depth, max_depth, n_candidates, rng) -> TreeNode:
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
    feature = _gini_best_split(x, y, candidates)
    if feature is None:
        return node
    mask = x[:, feature].astype(bool)
    node.feature = feature
    node.left = _grow(x[~mask], y[~mask], depth + 1, max_depth, n_candidates, rng)
    node.right = _grow(x[mask], y[mask], depth + 1, max_depth, n_candidates, rng)
    return node


def train_forest(
    features, labels, n_estimators: int, max_depth: int, seed: int = 0
) -> RandomForestModel:
    x, y = bit_training_set(features, labels)
    if n_estimators < 1:
        raise ValueError("need at least one estimator")
    n, f = x.shape
    n_candidates = math.ceil(math.sqrt(f))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        rows = rng.integers(0, n, size=n)
        root = _grow(x[rows], y[rows], 0, max_depth, n_candidates, rng)
        trees.append(DecisionTree(root, max_depth, f))
    return RandomForestModel(trees, n_estimators, max_depth, seed, f)


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
