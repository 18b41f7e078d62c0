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
``q`` the 8-bit quantized probability.  In the word netlist it is one MODEL
gate over the module's feature bits; ``aig.lower_netlist`` calls
``_emit_forest_bit``, which writes the bit straight into the AIG, so no mux,
adder or constant of a forest is ever a netlist gate.  The bit takes one of
two forms, chosen by the tree count T: at T <= 2 a reduced threshold
decision diagram of 1-bit muxes (tree 0's leaf with vote v selects tree 1's
leaf vote above -v), at T >= 3 one signed vote word per tree, summed and
compared with zero.  On the benchmark's distillation sets (176 forests per
point) the diagram took 22-85% fewer AND nodes than the vote words at T <= 2
and about two to three times as many at T = 3 and 4.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from nn2logic import netlist as nl
from nn2logic.aig import AigGraph, _is_positive, _ripple_add
from nn2logic.datasets import bit_training_set, pack_bits, sorted_choices

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

    Draws come from ``default_rng(model.seed)``, in the order of one
    ``integers`` call for a tree's bootstrap rows at its start, then one
    ``np.sort(rng.choice(F, ceil(sqrt(F)), replace=False))`` per node that
    can split, i.e. is impure above ``max_depth`` (all F columns, undrawn,
    when ceil(sqrt(F)) >= F).  The per-node rows come in blocks: at the
    first such node, and whenever a block runs out, the generator state is
    saved and one ``sorted_choices`` call draws the next
    min(2**max_depth - 1, 255) rows.  A tree that leaves rows unused, with a
    tree after it, restores the last saved state and redraws just the rows
    it used, so the next bootstrap starts where per-node draws would have
    left it.

    At each node that can split it yields ``(planes, rows, ones,
    candidates)``, ``planes`` being the (2, P, words) rows and ones planes
    masked to the node, and receives ``(feature, right rows, right ones)``,
    or None to leave the node a leaf.
    """
    rng = np.random.default_rng(model.seed)
    n, f = len(labels), model.n_features
    n_candidates = math.ceil(math.sqrt(f))
    block = min((1 << model.max_depth) - 1, 255)
    stack: list[tuple] = []

    def node(planes, mask, rows: int, ones: int, depth: int) -> TreeNode:
        """A node with its class frequencies, stacked with its planes if it can split."""
        tree_node = TreeNode(p0=(rows - ones) / rows, p1=ones / rows)
        if depth < model.max_depth and 0 < ones < rows:
            stack.append((tree_node, planes & mask, rows, ones, depth))
        return tree_node

    for t in range(model.n_estimators):
        draws = rng.integers(0, n, size=n)
        planes = _multiplicity_planes(draws, n)
        planes = np.stack([planes, planes & packed_labels])
        root = node(planes, ~np.uint64(0), n, int(labels[draws].sum()), 0)
        model.trees.append(DecisionTree(root))
        drawn, used = (), 0
        while stack:
            parent, planes, rows, ones, depth = stack.pop()
            if n_candidates >= f:
                candidates = np.arange(f)
            else:
                if used == len(drawn):
                    saved = rng.bit_generator.state
                    drawn, used = sorted_choices(rng, f, n_candidates, block), 0
                candidates = drawn[used]
                used += 1
            split = yield planes, rows, ones, candidates
            if split is not None:
                feature, rn, ro = split
                parent.feature = feature
                parent.right = node(planes, cols[feature], rn, ro, depth + 1)
                parent.left = node(planes, ~cols[feature], rows - rn, ones - ro, depth + 1)
        if used < len(drawn) and t + 1 < model.n_estimators:
            rng.bit_generator.state = saved
            sorted_choices(rng, f, n_candidates, used)


def _count_right(cols: np.ndarray, planes: tuple, candidates: tuple) -> np.ndarray:
    """(A, C, 2) weighted rows and ones on the 1 side of each node's candidates.

    ``planes[i]`` and ``candidates[i]`` are node i's (2, P_i, words) planes
    and its C candidate columns.  Nodes with the same plane count P are
    counted together, with one ``bitwise_count`` over all their candidates.
    """
    n_planes = np.array([p.shape[1] for p in planes])
    candidates = np.array(candidates)
    right = np.empty((len(planes), candidates.shape[1], 2), dtype=np.int64)
    for p in np.unique(n_planes).tolist():
        group = np.flatnonzero(n_planes == p)
        stacked = np.stack([planes[i] for i in group.tolist()])
        hits = stacked[:, None] & cols[candidates[group]][:, :, None, None, :]
        counts = np.bitwise_count(hits).sum(axis=-1, dtype=np.int64)  # (G, C, 2, P)
        right[group] = counts @ (1 << np.arange(p, dtype=np.int64))
    return right


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


def _emit_tree(g: AigGraph, features: list[int], node: TreeNode, width: int) -> list[int]:
    """Mux tree of one tree; returns its signed vote word ``q(p1) - q(p0)``.

    Each leaf is its vote as constant literals and each internal node one
    mux per bit, selected by its feature literal, the right subtree taken
    when the bit is 1.
    """
    if node.feature is None:
        vote = _leaf_vote(node)
        return [(vote >> j) & 1 for j in range(width)]
    left = _emit_tree(g, features, node.left, width)
    right = _emit_tree(g, features, node.right, width)
    sel = features[node.feature]
    return [g.mux(sel, a, b) for a, b in zip(right, left)]


def _leaf_votes(node: TreeNode, votes: dict) -> list[int]:
    """Sorted distinct leaf votes of ``node``'s subtree, memoised in ``votes`` by node id."""
    key = id(node)
    if key not in votes:
        if node.feature is None:
            votes[key] = [_leaf_vote(node)]
        else:
            both = _leaf_votes(node.left, votes) + _leaf_votes(node.right, votes)
            votes[key] = sorted(set(both))
    return votes[key]


def _diagram_mux(g: AigGraph, sel: int, right: int, left: int) -> int:
    """A mux of two diagram nodes, left out when both are one literal."""
    return left if right == left else g.mux(sel, right, left)


def _above(
    g: AigGraph, features: list[int], node: TreeNode, t: int, votes: dict, shared: dict
) -> int:
    """The literal of ``v > t``, ``v`` the vote of the leaf the input reaches under ``node``."""
    vs = _leaf_votes(node, votes)
    rank = bisect.bisect_right(vs, t)  # leaf votes at or below t
    if rank == 0 or rank == len(vs):
        return int(rank == 0)
    key = (id(node), rank)
    if key not in shared:
        left = _above(g, features, node.left, t, votes, shared)
        right = _above(g, features, node.right, t, votes, shared)
        shared[key] = _diagram_mux(g, features[node.feature], right, left)
    return shared[key]


def _select(
    g: AigGraph, features: list[int], node: TreeNode, root1: TreeNode, votes: dict, shared: dict
) -> int:
    """Tree 0's mux tree over ``node``, each leaf with vote v selecting ``v1 > -v``."""
    if node.feature is None:
        return _above(g, features, root1, -_leaf_vote(node), votes, shared)
    left = _select(g, features, node.left, root1, votes, shared)
    right = _select(g, features, node.right, root1, votes, shared)
    return _diagram_mux(g, features[node.feature], right, left)


def _emit_threshold_diagram(g: AigGraph, features: list[int], trees: list[DecisionTree]) -> int:
    """Reduced decision diagram of ``v0 + v1 > 0`` over one or two trees.

    ``_above(node, t)`` is the bit ``v > t``, where ``v`` is the vote of the
    leaf the input reaches in ``node``'s subtree.  Thresholds of the same
    rank among the node's sorted distinct leaf votes give the same bit, so
    each (node, rank) is emitted once, a subtree whose leaves all agree is a
    constant literal, and a mux whose two children are one literal is left
    out (Bryant's two reductions).  One tree gives ``_above(root, 0)``; with
    two, tree 0's mux tree selects ``_above(root1, -v0)`` at each of its
    leaves.  The memo dicts live only for this call, and the recursion is
    module functions, not closures, so the bit leaves no reference cycle.
    """
    votes: dict[int, list[int]] = {}
    shared: dict[tuple[int, int], int] = {}
    if len(trees) == 1:
        return _above(g, features, trees[0].root, 0, votes, shared)
    return _select(g, features, trees[0].root, trees[1].root, votes, shared)


def _emit_forest_bit(g: AigGraph, features: list[int], model: RandomForestModel) -> int:
    """Vote circuit of one forest bit, ``sum(q1 - q0) > 0`` over its trees, as a literal.

    ``features`` holds the literal of each feature bit.  ``sum(q1) > sum(q0)``
    exactly when ``sum(q1 - q0) > 0``, so the bit is the function
    ``predict_forest`` computes.  One or two trees lower as a threshold
    decision diagram (``_emit_threshold_diagram``); three or more sum the
    trees' vote words with ripple adders and compare the total with zero.
    On the benchmark's distillation sets the diagram never lost to the vote
    words at T <= 2 by more than one node in total, and the rule reads only
    T: extended to three and four trees, where each tree multiplies the
    partial sums to carry, it was larger in 148 and 149 of 176 forests and
    about two and three times as large in total.
    """
    trees = model.trees
    if len(trees) <= 2:
        return _emit_threshold_diagram(g, features, trees)
    width = vote_width(len(trees))
    total = _emit_tree(g, features, trees[0].root, width)
    for tree in trees[1:]:
        total = _ripple_add(g, total, _emit_tree(g, features, tree.root, width))
    return _is_positive(g, total, [0] * width)


def _forest_gate(net: nl.Netlist, feature_sids: list[int], model: RandomForestModel) -> int:
    """A forest bit as one MODEL gate, lowered by ``_emit_forest_bit``."""
    return net.add_gate("MODEL", feature_sids, (_emit_forest_bit, model))


def forest_module(models: list[RandomForestModel], word_width: int):
    """One node's module: its per-bit forests, concatenated into its word.

    ``models[j]`` predicts bit j of the output word; see ``netlist.bit_module``.
    """
    return nl.bit_module(models, word_width, _forest_gate)


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
