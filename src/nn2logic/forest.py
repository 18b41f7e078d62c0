"""Per-bit random forests over binary features and their circuit modules.

Features and labels are bits, so every split threshold is 0.5 and a CART
split is just a choice of feature column.  Trees grow on bootstrap samples
with ceil(sqrt(F)) candidate features per split by default; leaves keep the
empirical class frequencies.
"""

from __future__ import annotations

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
    features,
    labels,
    n_estimators: int,
    max_depth: int,
    seed: int = 0,
    bootstrap: bool = True,
    feature_subsample: bool = True,
) -> RandomForestModel:
    x, y = bit_training_set(features, labels)
    if n_estimators < 1:
        raise ValueError("need at least one estimator")
    n, f = x.shape
    n_candidates = math.ceil(math.sqrt(f)) if feature_subsample else f
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        root = _grow(x[rows], y[rows], 0, max_depth, n_candidates, rng)
        trees.append(DecisionTree(root, max_depth, f))
    return RandomForestModel(trees, n_estimators, max_depth, seed, f)


def quantize_prob(p: float) -> int:
    """Unsigned integer vote weight of a leaf probability."""
    return min(1 << PROB_FRAC_BITS, int(round(p * (1 << PROB_FRAC_BITS))))


def predict_forest(model: RandomForestModel, feature_row) -> int:
    """Argmax of the quantized vote sums; ties give 0.

    This is the vote circuit's function, computed apart from it: the circuit
    sums the per-tree differences ``q(p1) - q(p0)`` instead of two class sums.
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


def _emit_tree(net: nl.Netlist, feature_sids: list[int], node, width: int) -> int:
    """Mux tree of one tree; returns its signed vote word ``q(p1) - q(p0)``.

    Each leaf is one constant and each internal node one MUX selected by its
    1-bit feature signal, the right subtree taken when the bit is 1.
    """
    if node.feature is None:
        return net.add_const(from_int(quantize_prob(node.p1) - quantize_prob(node.p0), width))
    left = _emit_tree(net, feature_sids, node.left, width)
    right = _emit_tree(net, feature_sids, node.right, width)
    return net.add_gate("MUX", (feature_sids[node.feature], right, left))


def _emit_forest_bit(net: nl.Netlist, feature_sids: list[int], model: RandomForestModel) -> int:
    """Vote circuit: the trees' vote words summed, then compared above zero.

    ``sum(q1) > sum(q0)`` exactly when ``sum(q1 - q0) > 0``, so the bit is
    the function ``predict_forest`` computes.
    """
    width = vote_width(len(model.trees))
    total = _emit_tree(net, feature_sids, model.trees[0].root, width)
    for tree in model.trees[1:]:
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
