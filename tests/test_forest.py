import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nn2logic import forest
from nn2logic.aig import lower_netlist, simulate_batch
from nn2logic.forest import (
    PROB_FRAC_BITS,
    DecisionTree,
    RandomForestModel,
    TreeNode,
    forest_module,
    forest_to_text,
    predict_forest,
    quantize_prob,
    train_forests,
)
from nn2logic.netlist import simulate_netlist

from oracles import exact_vote_sums, forest_reference, grow_reference, tree_depth


def rows_to_words(rows: np.ndarray, m: int) -> list[int]:
    """Pack msb-first feature columns into the AIG's lsb-first input lanes."""
    words = []
    for k in range(rows.shape[1] // m):
        for j in range(m):  # AIG input j of word k is the word's bit j (lsb)
            col = rows[:, k * m + (m - 1 - j)]
            words.append(int(sum(int(b) << s for s, b in enumerate(col))))
    return words


def train_forest(x, y, n_estimators: int, max_depth: int, seed: int = 0) -> RandomForestModel:
    """The forest of one label vector ``y``."""
    (model,) = train_forests(x, np.asarray(y)[:, None], [seed], n_estimators, max_depth)
    return model


def full_data_forest(x, y, n_trees: int, max_depth: int) -> RandomForestModel:
    """Trees grown on every row with every feature a candidate at each split."""
    x, y = np.asarray(x, dtype=np.uint8), np.asarray(y, dtype=np.int64)
    f = x.shape[1]
    rng = np.random.default_rng(0)  # unused when every feature is a candidate
    trees = [DecisionTree(grow_reference(x, y, 0, max_depth, f, rng)) for _ in range(n_trees)]
    return RandomForestModel(trees, n_trees, max_depth, 0, f)


def test_all_zero_labels_single_leaf():
    x = np.random.default_rng(0).integers(0, 2, size=(50, 6))
    model = train_forest(x, np.zeros(50, dtype=int), 3, 4, seed=1)
    for tree in model.trees:
        assert tree.root.feature is None
        assert tree.root.p0 == 1.0 and tree.root.p1 == 0.0
    assert predict_forest(model, x[0]) == 0


def test_label_equals_feature_three():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=(200, 8)).astype(np.uint8)
    y = x[:, 3]
    model = full_data_forest(x, y, 1, 1)
    assert model.trees[0].root.feature == 3
    assert all(predict_forest(model, row) == row[3] for row in x)


def test_xor_exhaustive():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    y = (x[:, 0] ^ x[:, 1]).astype(int)
    model = full_data_forest(x, y, 1, 2)
    assert all(predict_forest(model, row) == (row[0] ^ row[1]) for row in x)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_forest(np.zeros((0, 3)), np.zeros(0), 1, 2)


@pytest.mark.parametrize(
    "n_estimators, max_depth, match",
    [(0, 2, "need at least one estimator"), (1, -3, "max_depth must be at least 0, got -3")],
    ids=["estimators-0", "max_depth-negative"],
)
def test_rejects_out_of_range_arguments(n_estimators, max_depth, match):
    x, y = np.zeros((4, 3), dtype=np.uint8), np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match=match):
        train_forest(x, y, n_estimators, max_depth)


def test_determinism():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(80, 10))
    y = rng.integers(0, 2, size=80)
    a = train_forest(x, y, 3, 5, seed=9)
    b = train_forest(x, y, 3, 5, seed=9)
    assert forest_to_text(a) == forest_to_text(b)


def test_trained_forest_matches_golden_digest():
    """Bootstrap rows and ceil(sqrt(F)) candidate features, as every forest is trained.

    The digest was taken when both were still options, on by default.
    """
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, size=(300, 24))
    y = (x[:, 0] ^ x[:, 5]) | (rng.random(300) < 0.1)
    text = forest_to_text(train_forest(x, y, 4, 4, seed=3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c5b1821833cd79967902b1a97347ecd15421fad68854a447c6e8b9911b35f1ed"
    )


def test_max_depth_respected():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(300, 12))
    y = rng.integers(0, 2, size=300)
    model = train_forest(x, y, 2, 3, seed=0)
    assert all(tree_depth(t.root) <= 3 for t in model.trees)


def test_forest_to_text_golden():
    # tree 0 splits on feature 2, then on feature 0 on its right; tree 1 is a leaf
    leaf = TreeNode(p0=0.75, p1=0.25)
    inner = TreeNode(feature=0, left=TreeNode(p0=0.0, p1=1.0), right=TreeNode(p0=1 / 3, p1=2 / 3))
    root = TreeNode(feature=2, left=leaf, right=inner)
    trees = [DecisionTree(root), DecisionTree(TreeNode(p0=0.5, p1=0.5))]
    model = RandomForestModel(trees, n_estimators=2, max_depth=3, seed=17, n_features=5)
    assert forest_to_text(model) == (
        "forest 2 3 17 5\n"
        "tree\n"
        "node 2\n"
        "leaf 0.75 0.25\n"
        "node 0\n"
        "leaf 0.0 1.0\n"
        "leaf 0.3333333333333333 0.6666666666666666\n"
        "tree\n"
        "leaf 0.5 0.5\n"
    )


def test_tree_circuit_shape_depth2():
    x = np.array(
        [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]] * 4, dtype=np.uint8
    )
    y = np.array([0, 1, 1, 0] * 4)
    model = full_data_forest(x, y, 1, 2)
    tree = model.trees[0]
    assert tree_depth(tree.root) == 2
    net = forest_module([model], word_width=1)
    kinds = [g.kind for g in net.gates]
    assert kinds.count("MUX") == 3  # one per internal node, selected by its feature bit
    assert "GT" not in kinds and "ADD" not in kinds  # each leaf is its constant vote bit
    assert "GTU" not in kinds


def test_three_tree_circuit_shape_depth2():
    """From three trees on, the trees' vote words are summed and compared with zero."""
    x = np.array(
        [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]] * 4, dtype=np.uint8
    )
    y = np.array([0, 1, 1, 0] * 4)
    model = full_data_forest(x, y, 3, 2)
    assert [tree_depth(tree.root) for tree in model.trees] == [2, 2, 2]
    net = forest_module([model], word_width=1)
    kinds = [g.kind for g in net.gates]
    assert kinds.count("MUX") == 9  # a vote-word mux tree per tree
    assert kinds.count("ADD") == 2 and kinds.count("GT") == 1
    (gt,) = [g for g in net.gates if g.kind == "GT"]
    assert net.widths[gt.operands[0]] == forest.vote_width(3)


def test_stump_selects_right_leaf():
    x = np.array([[0], [1]] * 10, dtype=np.uint8)
    y = np.array([0, 1] * 10)
    model = full_data_forest(x, y, 1, 1)
    net = forest_module([model], word_width=1)
    assert simulate_netlist(net, ["1"]) == ["1"]
    assert simulate_netlist(net, ["0"]) == ["0"]


def test_forest_bit_netlist_matches_software():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, size=(100, 6)).astype(np.uint8)
    y = rng.integers(0, 2, size=100)
    model = train_forest(x, y, 3, 3, seed=8)
    net = forest_module([model], word_width=1)
    for row in x[:50]:
        got = simulate_netlist(net, [str(int(b)) for b in row])[0]
        assert int(got) == predict_forest(model, row)


def test_forest_module_cross_simulation():
    rng = np.random.default_rng(9)
    m, n_words = 4, 2
    x = rng.integers(0, 2, size=(120, m * n_words)).astype(np.uint8)
    models = [
        train_forest(x, rng.integers(0, 2, size=120), 2, 3, seed=10 + j)
        for j in range(m)
    ]
    net = forest_module(models)
    g = lower_netlist(net)
    rows = np.vstack([x, rng.integers(0, 2, size=(1000, m * n_words)).astype(np.uint8)])
    out = simulate_batch(g, rows_to_words(rows, m), len(rows))
    for j, model in enumerate(models):
        want = np.array([predict_forest(model, row) for row in rows])
        # output word bit j (msb-first) is AIG output index m-1-j (lsb-first)
        got = np.array([(out[m - 1 - j] >> s) & 1 for s in range(len(rows))])
        assert np.array_equal(got, want)


def test_constant_forest_module():
    x = np.zeros((10, 4), dtype=np.uint8)
    models = [train_forest(x, np.zeros(10, dtype=int), 2, 2, seed=j) for j in range(2)]
    net = forest_module(models)
    assert simulate_netlist(net, ["00", "11"]) == ["00"]


def test_probability_quantization_soundness():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2, size=(150, 5)).astype(np.uint8)
    y = rng.integers(0, 2, size=150)
    for t in (2, 3, 4):
        model = train_forest(x, y, t, 4, seed=t)
        margin = 2 * t * 2.0**-PROB_FRAC_BITS
        for row in x:
            s0, s1 = exact_vote_sums(model, row)
            if abs(s1 - s0) > margin:
                assert predict_forest(model, row) == int(s1 > s0)


LEAF_PROBS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _hand_tree(rng, n_features: int, depth: int, all_p1: bool) -> TreeNode:
    """A full tree over random features; leaf p1 drawn from LEAF_PROBS, or all 1."""
    if depth == 0:
        p1 = 1.0 if all_p1 else float(rng.choice(LEAF_PROBS))
        return TreeNode(p0=1.0 - p1, p1=p1)
    return TreeNode(
        feature=int(rng.integers(n_features)),
        left=_hand_tree(rng, n_features, depth - 1, all_p1),
        right=_hand_tree(rng, n_features, depth - 1, all_p1),
    )


def _hand_forest(n_trees: int, all_p1: bool):
    """``n_trees`` depth-3 trees over 10 feature bits."""
    rng = np.random.default_rng(n_trees)
    trees = [DecisionTree(_hand_tree(rng, 10, 3, all_p1)) for _ in range(n_trees)]
    return RandomForestModel(trees, n_trees, 3, 0, 10)


def _vote_bits_on_every_input(model):
    """Rows of all inputs, with the lowered AIG's and the netlist's vote bit on each."""
    f = model.n_features
    rows = ((np.arange(1 << f)[:, None] >> np.arange(f)) & 1).astype(np.uint8)
    net = forest_module([model], word_width=1)
    (word,) = simulate_batch(lower_netlist(net), rows_to_words(rows, 1), len(rows))
    aig_bits = [(word >> s) & 1 for s in range(len(rows))]
    net_bits = [int(simulate_netlist(net, [int(b) for b in row])[0]) for row in rows]
    return rows, aig_bits, net_bits


def _vote_sum(model, row) -> int:
    """Sum over trees of q(p1) - q(p0) at the leaf ``row`` reaches."""
    leaves = [tree.leaf_for(row) for tree in model.trees]
    return sum(quantize_prob(leaf.p1) - quantize_prob(leaf.p0) for leaf in leaves)


@pytest.mark.parametrize("all_p1", [False, True], ids=["mixed", "all-p1"])
@pytest.mark.parametrize("n_trees", [1, 2, 3, 4])
def test_vote_bit_exhaustive(n_trees, all_p1):
    model = _hand_forest(n_trees, all_p1)
    rows, aig_bits, net_bits = _vote_bits_on_every_input(model)
    assert aig_bits == net_bits == [predict_forest(model, row) for row in rows]
    sums = {_vote_sum(model, row) for row in rows}
    if all_p1:
        assert sums == {(1 << PROB_FRAC_BITS) * n_trees}  # the largest sum T trees can reach
    else:
        assert 0 in sums and min(sums) < 0 < max(sums)  # ties, losses and wins all occur


def _leaf(p1: float) -> TreeNode:
    return TreeNode(p0=1.0 - p1, p1=p1)


@st.composite
def drawn_trees(draw, depth: int):
    """A tree of depth at most ``depth`` over 10 feature bits; leaf p1 from LEAF_PROBS."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw(st.sampled_from(LEAF_PROBS)))
    return TreeNode(
        feature=draw(st.integers(0, 9)),
        left=draw(drawn_trees(depth - 1)),
        right=draw(drawn_trees(depth - 1)),
    )


@st.composite
def diagram_forests(draw):
    """One or two trees of depth 0-4: the forests lowered as threshold diagrams."""
    n_trees = draw(st.integers(1, 2))
    trees = [DecisionTree(draw(drawn_trees(draw(st.integers(0, 4))))) for _ in range(n_trees)]
    return RandomForestModel(trees, n_trees, 4, 0, 10)


def _forest_of(*roots: TreeNode) -> RandomForestModel:
    return RandomForestModel([DecisionTree(r) for r in roots], len(roots), 4, 0, 10)


@settings(max_examples=60, deadline=None)
@given(diagram_forests())
@example(_forest_of(_leaf(0.5)))  # one root-only tree tied at 0
@example(_forest_of(_leaf(0.25), _leaf(0.75)))  # two root-only trees summing to 0
@example(_forest_of(_leaf(0.25), TreeNode(feature=3, left=_leaf(0.75), right=_leaf(1.0))))
def test_diagram_bit_exhaustive(model):
    """AIG, netlist and ``predict_forest`` agree on every input of a 1- or 2-tree forest."""
    rows, aig_bits, net_bits = _vote_bits_on_every_input(model)
    assert aig_bits == net_bits == [predict_forest(model, row) for row in rows]


@pytest.mark.parametrize("n_trees", [4, 8])
def test_vote_width_one_bit_narrower_wraps(n_trees, monkeypatch):
    """At a power-of-two tree count the all-p1 sum needs every bit of ``vote_width``.

    One bit less and 2**PROB_FRAC_BITS * T wraps to a negative word, so the
    circuit votes 0 where ``predict_forest`` votes 1.  (At T = 3 the rounded-up
    log2 leaves a spare bit; at T <= 2 no vote word is built.)
    """
    model = _hand_forest(n_trees, all_p1=True)
    width = forest.vote_width
    monkeypatch.setattr(forest, "vote_width", lambda t: width(t) - 1)
    rows, aig_bits, net_bits = _vote_bits_on_every_input(model)
    assert {predict_forest(model, row) for row in rows} == {1}
    assert set(aig_bits) == set(net_bits) == {0}


@pytest.mark.parametrize(
    "x, y, seeds, match",
    [
        ([[0, 1], [2, 0]], [[0], [1]], [0], "feature value 2 at row 1, column 0"),
        ([[0, 1], [1, 0]], [[0], [2]], [0], "label value 2 at row 1, column 0"),
        ([[0, 1], [1, 0]], [[0], [1], [1]], [0], "row mismatch: 2 feature rows"),
        ([[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 3]], [0, 1, 2], "label value 3 at row 1, column 2"),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]], [0], "2 label columns need as many seeds, got 1"),
    ],
    ids=["feature-2", "label-2", "row-mismatch", "later-label-3", "seeds-short"],
)
def test_rejects_bad_training_input(x, y, seeds, match):
    with pytest.raises(ValueError, match=match):
        train_forests(np.array(x), np.array(y), seeds, 1, 2)


@st.composite
def forest_layers(draw):
    """A bit matrix, a few label columns of varied kinds, seeds and forest sizes."""
    n = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 130]))
    f = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 2, size=(n, f)).astype(np.uint8)
    kinds = draw(st.lists(st.sampled_from(["random", "zeros", "ones", "feature", "xor"]),
                          min_size=1, max_size=4))
    columns = {
        "random": lambda: rng.integers(0, 2, size=n),
        "zeros": lambda: np.zeros(n, dtype=int),
        "ones": lambda: np.ones(n, dtype=int),
        "feature": lambda: x[:, f - 1],
        "xor": lambda: x[:, 0] ^ x[:, f // 2] ^ (rng.random(n) < 0.1),
    }
    y = np.stack([columns[kind]() for kind in kinds], axis=1).astype(np.uint8)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(kinds), max_size=len(kinds)))
    return x, y, seeds, draw(st.integers(1, 3)), draw(st.integers(0, 4))


def _layer(n, f, y_kind, n_estimators, max_depth, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, f)).astype(np.uint8)
    y = {"random": rng.integers(0, 2, size=(n, 2)), "zeros": np.zeros((n, 1), dtype=int)}[y_kind]
    return x, y.astype(np.uint8), list(range(seed, seed + y.shape[1])), n_estimators, max_depth


@settings(max_examples=80, deadline=None)
@given(forest_layers())
@example(_layer(70, 1, "random", 2, 3))  # one column: no candidate draw
@example(_layer(70, 2, "random", 3, 4))  # two columns: ceil(sqrt(2)) = 2, no draw
@example(_layer(65, 9, "random", 2, 0))  # max_depth 0: one leaf per tree
@example(_layer(100, 6, "zeros", 1, 3))  # one constant label column
def test_layer_forests_match_the_recursive_reference(layer):
    """Each column's forest equals the one grown alone on copied rows."""
    x, y, seeds, n_estimators, max_depth = layer
    models = train_forests(x, y, seeds, n_estimators, max_depth)
    assert len(models) == y.shape[1]
    for j, model in enumerate(models):
        want = forest_reference(x, y[:, j], n_estimators, max_depth, seeds[j])
        assert forest_to_text(model) == forest_to_text(want)


# sha256 of the forest_to_text dumps of the 16 forests below, computed with
# the per-bit trainer that grew one forest at a time on copied rows
LAYER_DIGESTS = {
    (3, 5): "1e7e20d284ec582788474bfe041c232f7cea6c7891b501b95e5525448c1c4e10",
    (2, 7): "05b4affead5826ca9d8401d1a700b4b438f4a80a89dcdc0f23ea1feaf5f82b3c",
}


@pytest.mark.parametrize("n_estimators, max_depth", list(LAYER_DIGESTS))
def test_layer_scale_forests_match_golden_digest(n_estimators, max_depth):
    """A layer the size of the benchmark's first: 2400 rows, 216 feature bits, 16 labels."""
    rng = np.random.default_rng(19)
    x = rng.integers(0, 2, size=(2400, 216), dtype=np.uint8)
    noise = rng.random((2400, 16)) < 0.1
    y = np.stack([(x[:, 3 * j] & x[:, 3 * j + 1]) ^ x[:, 7 * j + 2] for j in range(16)], axis=1)
    seeds = [1900 + j for j in range(16)]
    # a first bootstrap draws some row 8 or more times, so its counts need four bit planes
    first_draws = [np.random.default_rng(s).integers(0, 2400, size=2400) for s in seeds]
    assert max(np.bincount(d).max() for d in first_draws) >= 8
    models = train_forests(x, y ^ noise, seeds, n_estimators, max_depth)
    text = "".join(forest_to_text(m) for m in models)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYER_DIGESTS[(n_estimators, max_depth)]
