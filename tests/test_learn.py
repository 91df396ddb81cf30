import base64
import dataclasses
import hashlib
import itertools
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domaintriage import learn, selection
from domaintriage.learn import (
    DEFAULT_MODELS,
    MEMBERS,
    ConstantColumn,
    CorruptPayload,
    EmptyData,
    EmptyTrainSet,
    EmptyVotes,
    FeatureDimensionMismatch,
    InvalidHyperparameter,
    LogisticModel,
    NearestNeighbors,
    NonFiniteLoss,
    Standardizer,
    Tree,
    VersionMismatch,
    deserialize_model,
    ensemble_predict,
    ensemble_scores,
    forest_predict_proba,
    knn_scores,
    lr_gradient,
    lr_loss,
    majority_vote,
    serialize_model,
    train_decision_tree,
    train_ensemble,
    train_logistic_regression,
    train_random_forest,
    votes,
)
from domaintriage.model import DomainTriageError, UsageError
from domaintriage.synthetic import make_benchmark
from oracles import forest_recursive, forest_score_recursive, knn_score_bruteforce


# --- standardizer -----------------------------------------------------------

def test_standardizer_unit_example():
    s = Standardizer.fit([[1.0], [2.0], [3.0]])
    out = s.transform([[1.0], [2.0], [3.0]])
    assert out[0, 0] == pytest.approx(-1.224744871, abs=1e-9)
    assert out[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert out[2, 0] == pytest.approx(1.224744871, abs=1e-9)


def test_standardizer_population_std():
    s = Standardizer.fit([[1.0], [2.0], [3.0]])
    assert s.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert s.means[0] == 2.0


def test_standardizer_imputes_before_stats():
    s = Standardizer.fit([[1.0], [np.nan], [3.0]])
    # median of observed {1,3} is 2; stats over the filled column [1,2,3]
    assert s.medians[0] == 2.0
    assert s.means[0] == 2.0
    assert s.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    out = s.transform([[np.nan]])
    assert out[0, 0] == 0.0


def test_standardizer_rejects_degenerate_columns():
    with pytest.raises(ConstantColumn):
        Standardizer.fit([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(ConstantColumn):
        Standardizer.fit([[7.0, 1.0], [7.0, 2.0]])
    with pytest.raises(EmptyData):
        Standardizer.fit([[1.0, 2.0]])


def test_standardizer_transform_checks_width():
    s = Standardizer.fit([[1.0, 0.0], [2.0, 1.0], [3.0, 0.5]])
    with pytest.raises(FeatureDimensionMismatch):
        s.transform([[1.0]])
    one = s.transform([2.0, 0.5])
    assert one.shape == (1, 2)


# --- decision tree ----------------------------------------------------------

def _oracle_best_split(x, y, min_leaf):
    """Brute-force weighted-Gini search, plain loops, same tie-breaks:
    earlier feature wins, then lower threshold, strictly-lower cost only."""
    n, p = x.shape
    best = None
    for f in range(p):
        sv = sorted(x[:, f])
        seen = set()
        for a, b in zip(sv, sv[1:]):
            if a == b:
                continue
            t = (a + b) / 2.0
            if not (a < t < b) or t in seen:
                continue
            seen.add(t)
            ln = int(sum(1 for v in x[:, f] if v <= t))
            rn = n - ln
            if ln < min_leaf or rn < min_leaf:
                continue
            lp = int(sum(1 for v, lab in zip(x[:, f], y) if v <= t and lab == 1))
            rp = int(sum(y)) - lp
            gl = 1.0 - (lp * lp + (ln - lp) * (ln - lp)) / (ln * ln)
            gr = 1.0 - (rp * rp + (rn - rp) * (rn - rp)) / (rn * rn)
            cost = (ln * gl + rn * gr) / n
            if best is None or cost < best[0]:
                best = (cost, f, t)
    return best


def test_root_split_matches_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 5))
        min_leaf = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            x = rng.normal(size=(n, p))
        else:
            x = rng.integers(0, 4, size=(n, p)).astype(float)  # heavy ties
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        want = _oracle_best_split(x, y, min_leaf)
        tree = train_decision_tree(x, y, max_depth=1, min_leaf=min_leaf)
        if want is None:
            assert tree.feature[0] == -1, trial
        elif n < 2 * min_leaf:
            assert tree.feature[0] == -1, trial
        else:
            assert tree.feature[0] != -1, trial
            assert tree.feature[0] == want[1], trial
            assert tree.value[0] == want[2], trial


def test_tree_pure_node_is_leaf():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = train_decision_tree(x, np.array([1, 1, 1, 1]), min_leaf=1)
    assert tree.feature.tolist() == [-1]
    assert tree.value[0] == 1.0


def test_tree_separable_data_perfect_on_train():
    rng = np.random.default_rng(24)
    x = np.vstack([rng.normal(0, 0.3, size=(30, 2)), rng.normal(5, 0.3, size=(30, 2))])
    y = np.array([0] * 30 + [1] * 30)
    tree = train_decision_tree(x, y, min_leaf=1)
    proba = forest_predict_proba([tree], x)
    assert ((proba > 0.5).astype(int) == y).all()


def _check_tree(tree, node, depth, max_depth, min_leaf, x, y, idx):
    n = len(idx)
    if tree.feature[node] == -1:
        assert 0.0 <= tree.value[node] <= 1.0
        assert tree.value[node] == y[idx].sum() / n
        return
    assert depth < max_depth
    mask = x[idx, tree.feature[node]] <= tree.value[node]
    left, right = idx[mask], idx[~mask]
    assert len(left) >= min_leaf and len(right) >= min_leaf
    _check_tree(tree, node + 1, depth + 1, max_depth, min_leaf, x, y, left)
    _check_tree(tree, tree.right[node], depth + 1, max_depth, min_leaf, x, y, right)


def test_tree_structural_invariants():
    rng = np.random.default_rng(25)
    for _ in range(10):
        x = rng.normal(size=(80, 4))
        y = (x[:, 0] + rng.normal(scale=0.8, size=80) > 0).astype(int)
        max_depth = int(rng.integers(2, 8))
        min_leaf = int(rng.integers(1, 6))
        tree = train_decision_tree(x, y, max_depth=max_depth, min_leaf=min_leaf)
        _check_tree(tree, 0, 0, max_depth, min_leaf, x, y, np.arange(80))


def test_tree_monotone_rescaling_keeps_predictions():
    rng = np.random.default_rng(26)
    x = rng.uniform(-3, 3, size=(60, 3))
    y = (x[:, 1] > 0.4).astype(int)
    q = rng.uniform(-3, 3, size=(25, 3))
    base = forest_predict_proba([train_decision_tree(x, y)], q)
    scale = np.array([2.0, 0.5, 4.0])
    shift = np.array([-1.0, 3.0, 0.25])
    scaled = forest_predict_proba([train_decision_tree(x * scale + shift, y)], q * scale + shift)
    assert (base == scaled).all()


def test_tree_rejects_empty():
    with pytest.raises(EmptyData):
        train_decision_tree(np.empty((0, 3)), np.empty(0, dtype=int))


def test_tree_rejects_labels_other_than_0_and_1():
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_decision_tree(np.arange(6.0).reshape(3, 2), np.array([0, 2, 1]))


# --- random forest ----------------------------------------------------------

def _blobs(n=120, p=5, seed=30, spread=2.5):
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    x = rng.normal(size=(n, p)) + y[:, None] * spread
    return x, y


def test_forest_deterministic_per_seed():
    x, y = _blobs()
    a = train_random_forest(x, y, n_trees=12, seed=9)
    b = train_random_forest(x, y, n_trees=12, seed=9)
    assert [t.to_payload() for t in a] == [t.to_payload() for t in b]
    c = train_random_forest(x, y, n_trees=12, seed=10)
    assert [t.to_payload() for t in a] != [t.to_payload() for t in c]


def test_forest_parallel_equals_serial():
    x, y = _blobs(seed=31)
    serial = train_random_forest(x, y, n_trees=16, seed=3, n_jobs=1)
    parallel = train_random_forest(x, y, n_trees=16, seed=3, n_jobs=4)
    assert [t.to_payload() for t in serial] == [t.to_payload() for t in parallel]
    q = np.random.default_rng(0).normal(size=(40, 5)) + 1.0
    assert (forest_predict_proba(serial, q) == forest_predict_proba(parallel, q)).all()


def test_forest_mean_of_trees():
    x, y = _blobs(seed=32)
    trees = train_random_forest(x, y, n_trees=7, seed=1)
    q = x[:20]
    per_tree = np.stack([forest_predict_proba([t], q) for t in trees])
    assert forest_predict_proba(trees, q) == pytest.approx(per_tree.mean(axis=0), abs=1e-15)


def test_forest_row_blocks_consistent(monkeypatch):
    x, y = _blobs(seed=42)
    trees = train_random_forest(x, y, n_trees=7, seed=2)
    whole = forest_predict_proba(trees, x)
    monkeypatch.setattr(learn, "_MAX_PAIRS", 50)  # blocks of 7 rows
    assert (forest_predict_proba(trees, x) == whole).all()


def test_degenerate_forest_equals_single_tree():
    x, y = _blobs(n=200, seed=33)
    forest = train_random_forest(x, y, n_trees=1, bootstrap=False,
                                 max_features=x.shape[1], seed=0)
    tree = train_decision_tree(x, y)
    q = np.random.default_rng(4).normal(size=(200, 5)) + 1.2
    assert (forest_predict_proba(forest, q) == forest_predict_proba([tree], q)).all()
    assert forest[0].to_payload() == tree.to_payload()


def test_forest_split_chunks_consistent(monkeypatch):
    x, y = _blobs(seed=43)
    x[:, 1] = np.round(x[:, 1])  # ties
    whole = train_random_forest(x, y, n_trees=9, seed=4, min_leaf=2)
    monkeypatch.setattr(learn, "_SPLIT_KEYS", 16)  # a node or two per chunk
    chunked = train_random_forest(x, y, n_trees=9, seed=4, min_leaf=2)
    assert [t.to_payload() for t in chunked] == [t.to_payload() for t in whole]


def test_forest_bytes_are_pinned():
    # a seeded, standardized benchmark matrix with 10 % of its labels
    # flipped, so the trees grow deep; any change to the grower that
    # moves one tree column fails here, not only in the benchmark
    x, y = make_benchmark(2000, seed=11).feature_matrix()
    y = y ^ (np.random.default_rng(11).random(len(y)) < 0.1)
    kept = selection.prune(selection.correlation_matrix(x), 0.60)
    x = Standardizer.fit(x[:, kept]).transform(x[:, kept])
    digest = hashlib.sha256()
    for tree in train_random_forest(x, y, n_trees=100, seed=0):
        for column, dtype in ((tree.feature, "<i4"), (tree.right, "<i4"), (tree.value, "<f8")):
            digest.update(column.astype(dtype).tobytes())
    assert digest.hexdigest() == "863472f40ac06b0d66fb5d582bbd01da70454cc84f68ca22be07729127175c43"


def _noisy_matrix():
    """8,000 seeded rows of 10 features with 1,427, 303, 32, 2, 13 and
    five times 2 distinct values, labelled by a noisy sum of the first
    two, so a forest grows deep trees."""
    rng = np.random.default_rng(8000)
    z = rng.normal(size=(8000, 3))
    x = np.column_stack([np.round(z * [300, 50, 4]), rng.integers(0, 2, size=8000),
                         rng.integers(0, 13, size=8000), rng.integers(0, 2, size=(8000, 5))])
    return x.astype(float), (z[:, 0] + z[:, 1] > 0).astype(int)


def test_forest_training_peak_memory():
    x, y = _noisy_matrix()
    train_random_forest(x[:50], y[:50], n_trees=2)  # import-time and first-call allocations
    tracemalloc.start()
    try:
        train_random_forest(x, y, n_trees=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grower that kept every drawn row peaked at 10.02 MB here (its
    # node tables were Python lists), the weighted one at 8.05 MB; the
    # bound is the former plus 10 %
    assert peak < 11.0e6


def _tree_bits(tree: Tree) -> list[bytes]:
    return [tree.feature.tobytes(), tree.right.tobytes(), tree.value.tobytes()]


def _oracle_bits(columns: dict) -> list[bytes]:
    """The oracle's four columns as a Tree's three: ``value`` is the
    threshold at a split and the probability at a leaf."""
    feature = columns["feature"]
    value = np.where(feature >= 0, columns["threshold"], columns["prob"])
    return [feature.tobytes(), columns["right"].tobytes(), value.tobytes()]


# values where the midpoint rule and the ordering are easy to get wrong
_SPLIT_VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1.5e308, 1.0000000000000002]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lockstep_forest_equals_recursive_grower(data):
    # n and min_leaf large enough that bootstrap duplicates cross the
    # min_leaf bounds, where a node's weight and its distinct rows differ
    n = data.draw(st.integers(1, 80))
    p = data.draw(st.integers(1, 4))
    x = np.array(data.draw(st.lists(_SPLIT_VALUES, min_size=n * p, max_size=n * p))).reshape(n, p)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    params = dict(
        n_trees=data.draw(st.integers(1, 5)), max_features=data.draw(st.integers(1, p)),
        bootstrap=data.draw(st.booleans()), seed=data.draw(st.integers(0, 2**16)),
        max_depth=data.draw(st.integers(0, 7)), min_leaf=data.draw(st.integers(1, 8)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        want = forest_recursive(x, y, **params)
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):
            patch.setattr(learn, "_SPLIT_KEYS", 16)
        got = train_random_forest(x, y, **params)
    assert [_tree_bits(t) for t in got] == [_oracle_bits(t) for t in want]


def test_forest_counts_bootstrap_duplicates_as_rows():
    x = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    # the one tree of seed 2 draws rows 0, 2, 3 and 6 twice each: four
    # distinct rows, fewer than 2 * min_leaf = 6, but a weight of 8
    assert sorted(np.random.default_rng(2).integers(0, 8, size=8).tolist()) == [0, 0, 2, 2, 3, 3, 6, 6]
    params = dict(n_trees=1, max_features=1, bootstrap=True, seed=2, max_depth=12, min_leaf=3)
    (want,) = forest_recursive(x, y, **params)
    (got,) = train_random_forest(x, y, **params)
    assert _tree_bits(got) == _oracle_bits(want)
    # each side holds two distinct rows, fewer than min_leaf, of weight 4
    assert got.feature.tolist() == [0, -1, -1] and got.value.tolist() == [2.5, 0.0, 1.0]


def test_decision_tree_equals_recursive_grower():
    rng = np.random.default_rng(44)
    x = rng.integers(0, 6, size=(300, 4)).astype(float)
    x[:, 2] += rng.normal(size=300)
    y = (x[:, 0] + x[:, 2] + rng.normal(size=300) > 4).astype(int)
    (want,) = forest_recursive(x, y, n_trees=1, max_features=4, bootstrap=False, seed=0,
                               max_depth=12, min_leaf=3)
    assert _tree_bits(train_decision_tree(x, y, max_depth=12, min_leaf=3)) == _oracle_bits(want)


def test_lockstep_forest_equals_recursive_walk():
    rng = np.random.default_rng(41)
    for trial in range(6):
        n, p = 150, int(rng.integers(2, 6))
        x = rng.integers(0, 4, size=(n, p)).astype(float)  # heavy ties
        x[: n // 2] += rng.normal(scale=0.3, size=(n // 2, p))
        y = (x[:, 0] + rng.normal(scale=1.0, size=n) > 1.5).astype(int)
        trees = train_random_forest(x, y, n_trees=int(rng.integers(1, 12)), seed=trial,
                                    min_leaf=int(rng.integers(1, 4)))
        # the oracle walk reads ``threshold`` only at splits and ``prob``
        # only at leaves, so both can be the tree's ``value``
        tables = [{"feature": t.feature.tolist(), "right": t.right.tolist(),
                   "threshold": t.value.tolist(), "prob": t.value.tolist()} for t in trees]
        q = rng.integers(-1, 5, size=(60, p)).astype(float)
        # put queries exactly on split thresholds, where <= decides the side
        splits = [(f, t) for tree in tables
                  for f, t in zip(tree["feature"], tree["threshold"]) if f >= 0]
        for row in q[:40]:
            for f, t in (splits[int(i)] for i in rng.integers(0, len(splits), size=2)):
                row[f] = t
        got = forest_predict_proba(trees, q)
        want = [forest_score_recursive(tables, row.tolist()) for row in q]
        assert got.tolist() == want, trial


# --- logistic regression ----------------------------------------------------

def test_lr_initial_loss_is_log2():
    x, y = _blobs(seed=34)
    model = train_logistic_regression(x, y, epochs=3)
    assert model.losses[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert len(model.losses) == 4


def test_lr_loss_non_increasing():
    x, y = _blobs(seed=35)
    s = Standardizer.fit(x)
    model = train_logistic_regression(s.transform(x), y, epochs=500)
    diffs = np.diff(model.losses)
    assert (diffs <= 1e-12).all()
    assert model.final_loss == model.losses[-1]


def test_lr_gradient_matches_finite_differences():
    rng = np.random.default_rng(36)
    x = rng.normal(size=(50, 8))
    y = rng.integers(0, 2, size=50).astype(float)
    l2 = 1e-4
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        w = rng.normal(size=8)
        b = float(rng.normal())
        grad_w, grad_b = lr_gradient(w, b, x, y, l2)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            num = (lr_loss(w + e, b, x, y, l2) - lr_loss(w - e, b, x, y, l2)) / (2 * h)
            rel = abs(num - grad_w[i]) / max(abs(num), abs(grad_w[i]), 1e-12)
            worst = max(worst, rel)
        num_b = (lr_loss(w, b + h, x, y, l2) - lr_loss(w, b - h, x, y, l2)) / (2 * h)
        rel_b = abs(num_b - grad_b) / max(abs(num_b), abs(grad_b), 1e-12)
        worst = max(worst, rel_b)
    assert worst <= 1e-4


def test_lr_separates_blobs():
    x, y = _blobs(seed=37)
    s = Standardizer.fit(x)
    xs = s.transform(x)
    model = train_logistic_regression(xs, y)
    pred = (model.scores(xs) > 0.5).astype(int)
    assert (pred == y).mean() >= 0.95


def test_lr_divergence_raises():
    x, y = _blobs(seed=38)
    # columns strongly correlated with y make the first step so large
    # that z overflows, and the loss is nan (0 * inf and inf - inf)
    rng = np.random.default_rng(0)
    y2 = rng.integers(0, 2, size=200)
    x2 = np.stack([y2 + 0.3 * rng.normal(size=200) for _ in range(10)], axis=1)
    x2 = (x2 - x2.mean(axis=0)) / x2.std(axis=0)
    # NonFiniteLoss is the only report: no numpy warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xs, ys, lr in ((x, y, 1e12), (x2, y2, 1e308)):
            with pytest.raises(NonFiniteLoss):
                train_logistic_regression(xs, ys, lr=lr, epochs=500)


def test_lr_bias_not_penalized():
    # two loss evaluations differing only in bias must differ only
    # through the data term, not the l2 term
    x = np.zeros((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    w = np.zeros(2)
    base = lr_loss(w, 0.0, x, y, l2=1000.0)
    moved = lr_loss(w, 0.5, x, y, l2=1000.0)
    assert base == pytest.approx(math.log(2.0), abs=1e-15)
    assert moved != base
    assert moved < 10  # a penalized bias would explode with l2=1000


# --- k nearest neighbors ----------------------------------------------------

def _knn_oracle_scores(train_x, train_y, queries, k):
    return [knn_score_bruteforce(train_x.tolist(), train_y.tolist(), q, k)
            for q in queries.tolist()]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(39)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        train_x = rng.integers(0, 4, size=(n, p)).astype(float)  # ties frequent
        train_y = rng.integers(0, 2, size=n)
        queries = rng.integers(0, 4, size=(10, p)).astype(float)
        got = knn_scores(train_x, train_y, queries, k)
        assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, k), (n, p, k)


def test_knn_bit_equal_on_grids_and_training_rows():
    rng = np.random.default_rng(43)
    for trial in range(8):
        n, p = int(rng.integers(50, 400)), int(rng.integers(1, 8))
        k = int(rng.integers(1, 12))
        if trial % 2:
            train_x = rng.integers(0, 3, size=(n, p)).astype(float)  # {0,1,2} grid
            queries = rng.integers(0, 3, size=(60, p)).astype(float)
        else:
            train_x = np.round(rng.normal(size=(n, p)), 1)
            queries = np.vstack([train_x[rng.integers(0, n, size=40)],
                                 np.round(rng.normal(size=(20, p)), 1)])
        train_y = rng.integers(0, 2, size=n)
        got = knn_scores(train_x, train_y, queries, k)
        assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, k), trial


@pytest.mark.parametrize("rows_per_block", [1, 7, 61])  # 61 = n + 1
def test_knn_block_boundaries(monkeypatch, rows_per_block):
    rng = np.random.default_rng(44)
    n = 60
    train_x = rng.integers(0, 3, size=(n, 3)).astype(float)
    train_y = rng.integers(0, 2, size=n)
    queries = np.vstack([train_x[:20], rng.integers(0, 3, size=(47, 3)).astype(float)])
    monkeypatch.setattr(learn, "_KNN_BLOCK", rows_per_block * n)
    got = knn_scores(train_x, train_y, queries, k=7)
    assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, 7)


@pytest.mark.parametrize("offset", [1e3, 1e6])
def test_knn_large_common_offset(offset):
    # |q|² + |x|² − 2q·x cancels almost every digit here, so a rounding
    # bound that is too tight drops true neighbours
    rng = np.random.default_rng(45)
    train_x = offset + 1e-4 * rng.integers(0, 6, size=(400, 3))
    train_y = rng.integers(0, 2, size=400)
    queries = offset + 1e-4 * rng.integers(0, 6, size=(300, 3))
    got = knn_scores(train_x, train_y, queries, k=5)
    assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, 5)


def test_knn_overflow_takes_exact_scan():
    rng = np.random.default_rng(46)
    train_x = rng.integers(0, 3, size=(80, 2)).astype(float)
    train_y = rng.integers(0, 2, size=80)
    queries = rng.integers(0, 3, size=(30, 2)).astype(float)
    queries[[3, 17], 0] = 1e200  # |q|² overflows for these two only
    got = knn_scores(train_x, train_y, queries, k=5)
    assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, 5)
    train_x[::9, 0] = 1e200  # max |x|² overflows: every query is scanned
    got = knn_scores(train_x, train_y, queries, k=5)
    assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, 5)


def test_knn_tie_score_is_benign():
    member = NearestNeighbors(np.array([[0.0], [2.0]]), np.array([1, 0]), k=2)
    score = member.scores(np.array([[1.0]]))[0]
    label = votes(member.scores(np.array([[1.0]])))[0]
    assert score == 0.5
    assert label == 0


def test_knn_equidistant_prefers_lower_row():
    member = NearestNeighbors(np.array([[1.0], [1.0], [1.0]]), np.array([1, 0, 0]), k=1)
    score = member.scores(np.array([[1.0]]))[0]
    label = votes(member.scores(np.array([[1.0]])))[0]
    assert (label, score) == (1, 1.0)


def test_knn_validation():
    with pytest.raises(EmptyTrainSet):
        knn_scores(np.empty((0, 2)), np.empty(0, dtype=int), [[0.0, 0.0]])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1])
    with pytest.raises(ValueError):
        knn_scores(x, y, [[0.0, 0.0]], k=3)
    with pytest.raises(ValueError):
        knn_scores(x, y, [[0.0, 0.0]], k=0)
    with pytest.raises(FeatureDimensionMismatch):
        knn_scores(x, y, [[0.0, 0.0, 0.0]], k=1)


@pytest.mark.parametrize("labels", [[0, 1, 1, 1, 1], [7, 7, 7], [1]],
                         ids=["extra labels", "label of 7", "one label"])
def test_knn_rejects_labels_that_do_not_fit(labels):
    x = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(EmptyTrainSet):
        knn_scores(x, np.array(labels), [[0.5]], k=3)


def test_knn_chunked_batches_consistent():
    rng = np.random.default_rng(40)
    train_x = rng.normal(size=(50, 3))
    train_y = rng.integers(0, 2, size=50)
    queries = rng.normal(size=(200, 3))
    whole = knn_scores(train_x, train_y, queries, k=5)
    single = np.array([knn_scores(train_x, train_y, q.reshape(1, -1), k=5)[0]
                       for q in queries])
    assert (whole == single).all()


# a small grid gives many exact ties; the rest overflow, cancel to NaN
# or are NaN
_KNN_GRID = st.integers(-2, 2).map(float)
_KNN_SPECIAL = st.one_of(_KNN_GRID, st.sampled_from([0.5, math.nan, math.inf, -math.inf, 1e200, -1e200]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_knn_equals_stable_sort_oracle(data):
    n = data.draw(st.integers(1, 40))
    p = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    values = _KNN_SPECIAL if data.draw(st.booleans()) else _KNN_GRID
    row = st.lists(values, min_size=p, max_size=p)
    # rows drawn from a small pool, so many are duplicates
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    train_x = np.array(data.draw(st.lists(st.sampled_from(pool) | row, min_size=n, max_size=n)))
    train_y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    queries = np.array(data.draw(st.lists(st.sampled_from(pool) | st.sampled_from(train_x.tolist()) | row,
                                          min_size=1, max_size=12)))
    # a common offset cancels almost every digit of |q|² + |x|² − 2q·x
    shift = data.draw(st.sampled_from([0.0, 1e3, 1e6]))
    if shift:
        train_x, queries = shift + 1e-4 * train_x, shift + 1e-4 * queries
    with pytest.MonkeyPatch.context() as patch:
        # 0 spare rows send every query to the mask or full-scan fallback
        patch.setattr(learn, "_KNN_SPARE", data.draw(st.sampled_from([0, 1, 3, 27])))
        patch.setattr(learn, "_KNN_BLOCK", n * data.draw(st.sampled_from([1, 3, 1 << 20])))
        got = knn_scores(train_x, train_y, queries, k)
    assert got.tolist() == _knn_oracle_scores(train_x, train_y, queries, k)


# --- majority vote ----------------------------------------------------------

def test_majority_vote_exhaustive():
    for k in range(1, 6):
        for votes in itertools.product([0, 1], repeat=k):
            expected = 1 if sum(votes) > k / 2 else 0
            assert majority_vote(list(votes)) == expected


def test_majority_vote_tie_is_benign():
    assert majority_vote([1, 1, 0, 0]) == 0
    assert majority_vote([1, 0]) == 0


def test_majority_vote_validation():
    with pytest.raises(EmptyVotes):
        majority_vote([])
    with pytest.raises(ValueError):
        majority_vote([0, 2])
    with pytest.raises(ValueError):
        majority_vote([0.5, 1])


# --- ensemble ---------------------------------------------------------------

def _raw17(n=160, seed=50):
    """A 17-column matrix with signal in a few columns and NaN holes in
    column 0, labels balanced."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    x = rng.normal(size=(n, 17))
    x[:, 0] += y * 3.0
    x[:, 4] += y * 2.0
    x[:, 9] -= y * 2.0
    holes = rng.random(n) < 0.1
    x[holes, 0] = np.nan
    return x, y


def test_train_ensemble_members_and_order():
    x, y = _raw17()
    model = train_ensemble(x, y, [0, 4, 9, 13], seed=1, n_trees=10)
    assert [m.kind for m in model.members] == ["rf", "dt", "knn", "lr"]
    assert len(model.members) == 4
    assert model.selected_features == [0, 4, 9, 13]
    assert model.params["n_trees"] == 10


def test_ensemble_vote_aggregation_consistent():
    x, y = _raw17(seed=51)
    model = train_ensemble(x, y, [0, 4, 9], seed=2, n_trees=8)
    labels, scores = ensemble_scores(model, x)
    xs = model.standardizer.transform(x[:, model.selected_features])
    vote_sum = sum(votes(m.scores(xs)) for m in model.members)
    assert (scores == vote_sum / len(model.members)).all()
    assert (labels == (vote_sum > len(model.members) / 2).astype(int)).all()
    for i in range(0, len(x), 37):
        row_votes = [int(votes(m.scores(xs[i:i + 1]))[0]) for m in model.members]
        assert labels[i] == majority_vote(row_votes)


def test_ensemble_learns_separable_data():
    x, y = _raw17(seed=52)
    model = train_ensemble(x, y, [0, 4, 9], seed=0, n_trees=20)
    labels, _ = ensemble_scores(model, x)
    assert (labels == y).mean() >= 0.95


def test_ensemble_subset_of_models():
    x, y = _raw17(seed=53)
    model = train_ensemble(x, y, [4, 9], models=("dt", "lr", "knn"), seed=0)
    assert [m.kind for m in model.members] == ["dt", "lr", "knn"]
    assert len(model.members) == 3


def test_ensemble_predict_single_vector():
    x, y = _raw17(seed=54)
    model = train_ensemble(x, y, [0, 4, 9], seed=0, n_trees=8)
    label, score = ensemble_predict(model, x[3].tolist())
    assert label in (0, 1)
    assert 0.0 <= score <= 1.0
    # absent entries are allowed in the raw vector
    row = x[3].tolist()
    row[0] = None
    label2, _ = ensemble_predict(model, row)
    assert label2 in (0, 1)


def test_ensemble_predict_rejects_wrong_width():
    x, y = _raw17(seed=55)
    model = train_ensemble(x, y, [0, 4], seed=0, n_trees=4)
    with pytest.raises(FeatureDimensionMismatch):
        ensemble_predict(model, [0.0] * 16)


def test_member_table_covers_the_default_models():
    assert set(MEMBERS) == set(DEFAULT_MODELS)
    assert all(MEMBERS[kind].kind == kind for kind in MEMBERS)


@pytest.mark.parametrize("kind", list(MEMBERS))
def test_member_payload_round_trip_scores_bit_equal(kind):
    x, y = _raw17(seed=63)
    xs = Standardizer.fit(x[:, [0, 4, 9]]).transform(x[:, [0, 4, 9]])
    member = MEMBERS[kind].fit(xs, y, dict(learn.DEFAULT_PARAMS, n_trees=5), 3)
    assert member.kind == kind
    payload = json.loads(json.dumps(member.to_payload()))
    clone = MEMBERS[kind].from_payload(payload, width=3)
    assert clone.scores(xs).tolist() == member.scores(xs).tolist()


def test_train_ensemble_checks_kinds_before_training(monkeypatch):
    x, y = _raw17(seed=64)

    def trained(*args, **kwargs):
        raise AssertionError("a member was trained before the kinds were checked")

    monkeypatch.setattr(learn, "train_random_forest", trained)
    with pytest.raises(ValueError, match="alien"):
        train_ensemble(x, y, [0, 4], models=("rf", "alien"), n_trees=2)


def test_train_ensemble_validation():
    x, y = _raw17(seed=56)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [0, 4], models=("rf", "mystery"), n_trees=2)
    # a repeated kind would vote twice with the same scores
    with pytest.raises(ValueError, match="'rf' given more than once"):
        train_ensemble(x, y, [0, 4], models=("rf", "rf", "dt"), n_trees=2)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [], n_trees=2)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [0, 0], n_trees=2)
    with pytest.raises(FeatureDimensionMismatch):
        train_ensemble(x, y, [0, 17], n_trees=2)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [0, 4], bad_param=3)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [0, 4], knn_k=10_000)
    with pytest.raises(EmptyData):
        train_ensemble(np.empty((0, 17)), np.empty(0, dtype=int), [0])


# --- serialization ----------------------------------------------------------

def test_serialize_round_trip_predictions():
    x, y = _raw17(seed=57)
    model = train_ensemble(x, y, [0, 4, 9], seed=5, n_trees=6)
    blob = serialize_model(model)
    clone = deserialize_model(blob)
    la, sa = ensemble_scores(model, x)
    lb, sb = ensemble_scores(clone, x)
    assert (la == lb).all()
    assert (sa == sb).all()
    assert clone.selected_features == model.selected_features
    assert clone.seed == model.seed
    assert clone.params == model.params


def test_serialize_is_deterministic():
    x, y = _raw17(seed=58)
    model = train_ensemble(x, y, [0, 4], seed=5, n_trees=4)
    blob = serialize_model(model)
    assert blob == serialize_model(model)
    assert blob == serialize_model(deserialize_model(blob))
    payload = json.loads(blob)
    assert payload["format_version"] == 3


# a dt + knn model on one feature, as the format-2 code wrote it
_V2_FILE = (
    b'{"format_version":2,"members":[{"kind":"dt","tree":{"feature":[0,-1,-1],'
    b'"prob":[0.0,0.0,1.0],"right":[2,0,0],"threshold":[0.0,0.0,0.0]}},{"k":3,'
    b'"kind":"knn","x":[[-1.5932550136313832],[-1.3035722838802226],'
    b'[-1.013889554129062],[-0.7242068243779014],[-0.43452409462674085],'
    b'[-0.14484136487558028],[0.14484136487558028],[0.43452409462674085],'
    b'[0.7242068243779014],[1.013889554129062],[1.3035722838802226],'
    b'[1.5932550136313832]],"y":[0,0,0,0,0,0,1,1,1,1,1,1]}],"params":{"knn_k":3,'
    b'"l2":0.0001,"lr_epochs":500,"lr_rate":0.1,"max_depth":12,"min_leaf":5,'
    b'"n_trees":100},"seed":0,"selected_features":[4],"standardizer":{"means":[5.5],'
    b'"medians":[5.5],"stds":[3.452052529534663]}}'
)


def test_deserialize_version_mismatch():
    x, y = _raw17(seed=59)
    model = train_ensemble(x, y, [4], models=("dt",))
    payload = json.loads(serialize_model(model))
    payload["format_version"] = 99
    with pytest.raises(VersionMismatch):
        deserialize_model(json.dumps(payload).encode())
    # version is checked even when the rest is mangled
    with pytest.raises(VersionMismatch):
        deserialize_model(b'{"format_version": 1}')
    # a v1 file, whose trees were nested node objects, is rejected
    payload["format_version"] = 1
    payload["members"][0]["tree"] = {"f": 0, "t": 0.5, "l": {"p": 0.0}, "r": {"p": 1.0}}
    with pytest.raises(VersionMismatch):
        deserialize_model(json.dumps(payload).encode())
    # so is a v2 file, whose arrays were JSON number lists
    with pytest.raises(VersionMismatch, match="format_version 2, expected 3"):
        deserialize_model(_V2_FILE)


def test_deserialize_corrupt_payloads():
    with pytest.raises(CorruptPayload):
        deserialize_model(b"not json at all")
    with pytest.raises(CorruptPayload):
        deserialize_model(b"[1, 2, 3]")
    with pytest.raises(CorruptPayload):
        deserialize_model(b'{"format_version": 3}')
    x, y = _raw17(seed=60)
    model = train_ensemble(x, y, [4], models=("dt",))
    payload = json.loads(serialize_model(model))
    del payload["standardizer"]
    with pytest.raises(CorruptPayload):
        deserialize_model(json.dumps(payload).encode())
    payload2 = json.loads(serialize_model(model))
    payload2["members"][0]["kind"] = "alien"
    with pytest.raises(CorruptPayload):
        deserialize_model(json.dumps(payload2).encode())


def _tree(feature, right, value) -> Tree:
    return Tree(feature=np.array(feature), right=np.array(right),
                value=np.array(value, dtype=float))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def test_tree_node_dict_round_trip():
    leaf = _tree([-1], [0], [0.25])
    assert leaf.to_payload() == {
        "feature": {"dtype": "<i4", "shape": [1], "b64": _b64(struct.pack("<i", -1))},
        "right": {"dtype": "<i4", "shape": [1], "b64": _b64(struct.pack("<i", 0))},
        "value": {"dtype": "<f8", "shape": [1], "b64": _b64(struct.pack("<d", 0.25))},
    }
    # value: the threshold at the split, the probabilities at the leaves
    split = _tree([2, -1, -1], [2, 0, 0], [0.5, 0.0, 1.0])
    assert split.to_payload()["value"]["b64"] == _b64(struct.pack("<3d", 0.5, 0.0, 1.0))
    again = Tree.from_payload(split.to_payload(), width=3)
    assert again.to_payload() == split.to_payload()
    for key in ("feature", "right", "value"):
        assert getattr(again, key).tolist() == getattr(split, key).tolist(), key
    assert split.feature[0] != -1 and leaf.feature[0] == -1


def test_tree_fields_are_the_payload_columns():
    tree = train_decision_tree(*_blobs(seed=45))
    assert [f.name for f in dataclasses.fields(Tree)] == list(tree.to_payload())


def _trees(member) -> list[Tree]:
    return member.trees


def test_noisy_forest_trees_round_trip_bit_equal():
    x, y = _raw17(n=400, seed=65)
    y = np.where(np.random.default_rng(65).random(len(y)) < 0.2, 1 - y, y)  # deep, many leaves
    model = train_ensemble(x, y, [0, 4, 9, 13], models=("rf", "dt"), seed=0, n_trees=10)
    clone = deserialize_model(serialize_model(model))
    for member, again in zip(model.members, clone.members):
        for tree, loaded in zip(_trees(member), _trees(again), strict=True):
            assert len(tree.feature) > 15
            for key in ("feature", "right", "value"):
                want, got = getattr(tree, key), getattr(loaded, key)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), key


# The payload tests below edit a "plain" view of a format-3 payload, in
# which every packed array is a list, and pack the lists again before
# loading.  A list is packed with its field's dtype when it holds only
# values of that type, as "<f8" (a dtype the loader rejects for an
# integer field) when numpy reads it as floats, and else left a bare
# list (which the loader rejects too).

_ARRAY_DTYPES = {"feature": "<i4", "right": "<i4", "value": "<f8", "x": "<f8", "y": "|u1"}
_INT_RANGES = {"<i4": (-2**31, 2**31), "|u1": (0, 256)}


def _decoded(obj) -> list:
    raw = base64.b64decode(obj["b64"])
    return np.frombuffer(raw, dtype=obj["dtype"]).reshape(obj["shape"]).tolist()


def _packed_like(value, dtype):
    if not isinstance(value, list):
        return value
    if dtype in _INT_RANGES:
        lo, hi = _INT_RANGES[dtype]
        if not all(type(v) is int and lo <= v < hi for v in value):
            dtype = "<f8"
    try:
        arr = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return value
    return {"dtype": dtype, "shape": list(arr.shape), "b64": _b64(arr.tobytes())}


def _array_holders(payload):
    """The objects of a payload that hold packed arrays: each tree and
    the knn member."""
    for member in payload["members"]:
        if member.get("kind") == "rf" and isinstance(member.get("trees"), list):
            yield from member["trees"]
        elif member.get("kind") == "dt":
            yield member.get("tree")
        elif member.get("kind") == "knn":
            yield member


def _plain(payload) -> dict:
    """A copy of ``payload`` with every packed array as a list."""
    payload = json.loads(json.dumps(payload))
    for holder in _array_holders(payload):
        for key in _ARRAY_DTYPES.keys() & holder.keys():
            holder[key] = _decoded(holder[key])
    return payload


def _repacked(plain) -> bytes:
    """Model bytes for a plain view, each list packed again."""
    payload = json.loads(json.dumps(plain))
    for holder in _array_holders(payload):
        if isinstance(holder, dict):
            for key in _ARRAY_DTYPES.keys() & holder.keys():
                holder[key] = _packed_like(holder[key], _ARRAY_DTYPES[key])
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def tree_payload_model():
    """A serialized rf + dt model as a payload dict, and rows to score."""
    x, y = _raw17(seed=61)
    model = train_ensemble(x, y, [0, 4, 9], models=("rf", "dt"), seed=0, n_trees=3)
    return json.loads(serialize_model(model)), x


@pytest.mark.parametrize("edit", [
    lambda t: t.update(feature=t["feature"][:-1]),
    lambda t: t.update(feature=[], value=[], right=[]),
    lambda t: t.pop("right"),
    lambda t: t.update(feature=[3] + t["feature"][1:]),
    lambda t: t.update(feature=[-2] + t["feature"][1:]),
    lambda t: t.update(feature=[0.5] + t["feature"][1:]),
    lambda t: t.update(right=[1] + t["right"][1:]),
    lambda t: t.update(right=[0] + t["right"][1:]),
    lambda t: t.update(right=[len(t["right"])] + t["right"][1:]),
    # the root is a split, so value[0] is a threshold
    lambda t: t.update(value=[float("nan")] + t["value"][1:]),
    lambda t: t.update(value=[float("inf")] + t["value"][1:]),
    # the last node in preorder is a leaf, so value[-1] is a probability
    lambda t: t.update(value=t["value"][:-1] + [1.5]),
    lambda t: t.update(value=t["value"][:-1] + [-0.25]),
    lambda t: t.update(value=t["value"][:-1] + [float("nan")]),
    lambda t: t.update(feature="0"),
])
def test_deserialize_rejects_corrupt_tree(tree_payload_model, edit):
    payload, _ = tree_payload_model
    for member, pick in ((0, lambda m: m["trees"][1]), (1, lambda m: m["tree"])):
        bad = _plain(payload)
        tree = pick(bad["members"][member])
        assert tree["feature"][0] >= 0  # the root is a split
        edit(tree)
        with pytest.raises(CorruptPayload):
            deserialize_model(_repacked(bad))


def test_deserialize_rejects_empty_forest_and_deep_nesting(tree_payload_model):
    payload = json.loads(json.dumps(tree_payload_model[0]))
    payload["members"][0]["trees"] = []
    with pytest.raises(CorruptPayload):
        deserialize_model(json.dumps(payload).encode())
    # a nested v1-style tree too deep for a recursive loader
    depth = 100_000
    deep = '{"f":0,"t":0.5,"l":{"p":0.0},"r":' * depth + '{"p":0.5}' + "}" * depth
    payload["members"][0]["trees"] = ["@"]
    blob = json.dumps(payload).replace('"@"', deep).encode()
    with pytest.raises(CorruptPayload):
        deserialize_model(blob)


_JSON_VALUES = st.one_of(
    st.integers(-3, 40), st.integers(), st.floats(), st.none(), st.booleans(),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _mutate(data, holder, key) -> None:
    """One random edit of ``holder[key]``: set, cut or extend a list,
    or replace or delete the value."""
    value = holder[key]
    ops = ["replace", "delete"]
    if isinstance(value, list) and value:
        ops += ["set", "truncate", "append"]
    op = data.draw(st.sampled_from(ops))
    if op == "set":
        value[data.draw(st.integers(0, len(value) - 1))] = data.draw(_JSON_VALUES)
    elif op == "truncate":
        del value[data.draw(st.integers(0, len(value) - 1)):]
    elif op == "append":
        value.append(data.draw(_JSON_VALUES))
    elif op == "replace":
        holder[key] = data.draw(_JSON_VALUES)
    else:
        del holder[key]


def _loads_and_scores_or_raises(blob: bytes, x) -> None:
    """A model that loads scores in [0, 1] and can be written again."""
    try:
        model = deserialize_model(blob)
    except DomainTriageError:
        return
    serialize_model(model)
    labels, scores = ensemble_scores(model, x)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    for member_scores in model.member_scores(x):
        assert ((member_scores >= 0.0) & (member_scores <= 1.0)).all()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_tree_payload_loads_and_scores_or_raises(tree_payload_model, data):
    payload, x = tree_payload_model
    payload = _plain(payload)
    member = data.draw(st.sampled_from(payload["members"]))
    if member["kind"] == "rf":
        holder, slot = member["trees"], data.draw(st.integers(0, len(member["trees"]) - 1))
    else:
        holder, slot = member, "tree"
    if data.draw(st.integers(0, 5)) == 0:
        holder[slot] = data.draw(_JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(["feature", "right", "value"]))
        _mutate(data, holder[slot], key)
    _loads_and_scores_or_raises(_repacked(payload), x)


@pytest.fixture(scope="module")
def full_payload_model():
    """A serialized model with all four members as a payload dict, and
    rows to score."""
    x, y = _raw17(seed=62)
    model = train_ensemble(x, y, [0, 4, 9], seed=0, n_trees=3)
    return json.loads(serialize_model(model)), x


def _member_of(payload, kind) -> dict:
    return next(m for m in payload["members"] if m["kind"] == kind)


_CORRUPT_FIELDS = {
    "stds zero": lambda p: p["standardizer"]["stds"].__setitem__(1, 0.0),
    "stds negative": lambda p: p["standardizer"]["stds"].__setitem__(1, -1.0),
    "selected above 16": lambda p: p.update(selected_features=[0, 4, 17]),
    "selected negative": lambda p: p.update(selected_features=[-1, 4, 9]),
    "selected duplicated": lambda p: p.update(selected_features=[0, 4, 4]),
    "selected not an integer": lambda p: p.update(selected_features=[0, 4.5, 9]),
    "no members": lambda p: p.update(members=[]),
    "medians too short": lambda p: p["standardizer"]["medians"].pop(),
    "means too long": lambda p: p["standardizer"]["means"].append(0.0),
    "stds too short": lambda p: p["standardizer"]["stds"].pop(),
    "knn x empty": lambda p: _member_of(p, "knn").update(x=[]),
    "knn x too narrow": lambda p: _member_of(p, "knn").update(
        x=[row[:-1] for row in _member_of(p, "knn")["x"]]),
    "knn x one row": lambda p: _member_of(p, "knn").update(x=_member_of(p, "knn")["x"][0]),
    "knn x ragged": lambda p: _member_of(p, "knn")["x"][5].pop(),
    "knn x infinite": lambda p: _member_of(p, "knn")["x"][5].__setitem__(0, float("inf")),
    "knn x nan": lambda p: _member_of(p, "knn")["x"][5].__setitem__(0, float("nan")),
    "knn y too short": lambda p: _member_of(p, "knn")["y"].pop(),
    "knn y of 7": lambda p: _member_of(p, "knn")["y"].__setitem__(0, 7),
    "knn y of 0.5": lambda p: _member_of(p, "knn")["y"].__setitem__(0, 0.5),
    "knn k zero": lambda p: _member_of(p, "knn").update(k=0),
    "knn k above n": lambda p: _member_of(p, "knn").update(k=len(_member_of(p, "knn")["y"]) + 1),
    "knn k fractional": lambda p: _member_of(p, "knn").update(k=2.5),
    "lr weights too short": lambda p: _member_of(p, "lr")["weights"].pop(),
    "lr weight nan": lambda p: _member_of(p, "lr")["weights"].__setitem__(0, float("nan")),
    "lr bias infinite": lambda p: _member_of(p, "lr").update(bias=float("inf")),
    "lr final_loss a string": lambda p: _member_of(p, "lr").update(final_loss="nan"),
    "lr final_loss nan": lambda p: _member_of(p, "lr").update(final_loss=float("nan")),
    "lr final_loss a bool": lambda p: _member_of(p, "lr").update(final_loss=True),
    "seed a string": lambda p: p.update(seed="7"),
    "seed fractional": lambda p: p.update(seed=1.9),
    "seed a bool": lambda p: p.update(seed=True),
    "params a list of pairs": lambda p: p.update(params=[["x", 1]]),
    "medians a numeric string": lambda p: p["standardizer"]["medians"].__setitem__(0, "1"),
    "means a bool": lambda p: p["standardizer"]["means"].__setitem__(1, True),
    "stds nested": lambda p: p["standardizer"]["stds"].__setitem__(1, [1.0]),
    "lr weight a bool": lambda p: _member_of(p, "lr")["weights"].__setitem__(0, False),
    "lr bias a numeric string": lambda p: _member_of(p, "lr").update(bias="0.5"),
    "lr bias a bool": lambda p: _member_of(p, "lr").update(bias=True),
    "params empty": lambda p: p.update(params={}),
    "params n_trees nan": lambda p: p["params"].update(n_trees=float("nan")),
    "params max_depth a bool": lambda p: p["params"].update(max_depth=True),
    "params knn_k fractional": lambda p: p["params"].update(knn_k=5.0),
    "params l2 a string": lambda p: p["params"].update(l2="0.0001"),
    "params missing l2": lambda p: p["params"].pop("l2"),
    "params an extra key": lambda p: p["params"].update(n_jobs=1),
    "params min_leaf below 1": lambda p: p["params"].update(min_leaf=0),
    "params l2 negative": lambda p: p["params"].update(l2=-1e-4),
    "params lr_rate infinite": lambda p: p["params"].update(lr_rate=float("inf")),
    "members a repeated kind": lambda p: p["members"].append(_member_of(p, "rf")),
}


@pytest.mark.parametrize("override", [
    {"max_depth": 3.5}, {"min_leaf": True}, {"knn_k": 3.0}, {"l2": "0.1"}, {"lr_rate": False},
])
def test_train_rejects_hyperparameters_the_loader_refuses(override):
    # the loader and train_ensemble check params with the same rules, so
    # every model train_ensemble returns can be written and read back
    x, y = _raw17(seed=62)
    with pytest.raises(InvalidHyperparameter):
        train_ensemble(x, y, [0, 4, 9], seed=0, n_trees=3, **override)


@pytest.mark.parametrize("override", [
    {"selected_features": [True, 3]}, {"selected_features": [0, 4.0]},
    {"selected_features": [0, np.bool_(True)]}, {"seed": True}, {"seed": 1.5},
    {"seed": -1}, {"seed": np.float64(2.0)},
])
def test_train_rejects_indices_and_seeds_the_loader_refuses(override, monkeypatch):
    # a model with any of these would fail to load, to be written or (a
    # negative seed) to grow its trees, so none reaches a member's fit
    def trained(*args, **kwargs):
        raise AssertionError("a member was trained before the seed and indices were checked")

    monkeypatch.setattr(learn, "train_logistic_regression", trained)
    x, y = _raw17(n=80, seed=62)
    kwargs = {"selected_features": [0, 4, 9], "seed": 0, **override}
    with pytest.raises(UsageError):
        train_ensemble(x, y, models=("lr",), **kwargs)


def test_model_trained_with_numpy_integers_round_trips():
    x, y = _raw17(n=80, seed=62)
    model = train_ensemble(x, y, [np.int64(0), np.int32(4)], seed=np.int64(3), n_trees=3)
    assert model.selected_features == [0, 4] and type(model.seed) is int
    blob = serialize_model(model)
    assert serialize_model(deserialize_model(blob)) == blob
    assert blob == serialize_model(train_ensemble(x, y, [0, 4], seed=3, n_trees=3))


@pytest.mark.parametrize("edit", _CORRUPT_FIELDS.values(), ids=_CORRUPT_FIELDS.keys())
def test_deserialize_rejects_corrupt_fields(full_payload_model, edit):
    payload = _plain(full_payload_model[0])
    # the unedited view packs to the same payload, which loads
    assert json.loads(_repacked(payload)) == full_payload_model[0]
    deserialize_model(_repacked(payload))
    edit(payload)
    with pytest.raises(CorruptPayload):
        deserialize_model(_repacked(payload))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_payload_fields_load_and_score_or_raise(full_payload_model, data):
    payload, x = full_payload_model
    payload = _plain(payload)
    owner, key = data.draw(st.sampled_from([
        ("knn", "x"), ("knn", "y"), ("knn", "k"), ("lr", "weights"), ("lr", "bias"),
        ("lr", "final_loss"), ("standardizer", "medians"), ("standardizer", "means"),
        ("standardizer", "stds"), ("model", "selected_features"), ("model", "seed"),
        ("model", "params"),
    ]))
    if owner == "model":
        holder = payload
    elif owner == "standardizer":
        holder = payload["standardizer"]
    else:
        holder = _member_of(payload, owner)
    if key == "x" and data.draw(st.booleans()):
        holder, key = holder["x"], data.draw(st.integers(0, len(holder["x"]) - 1))
    _mutate(data, holder, key)
    _loads_and_scores_or_raises(_repacked(payload), x)


# --- the array encoding itself ----------------------------------------------

def _array_slots(payload) -> list:
    """(holder, key) of one packed array of each dtype and shape: a
    forest tree's value, the dt feature column, knn x and knn y."""
    knn = _member_of(payload, "knn")
    return [(_member_of(payload, "rf")["trees"][1], "value"),
            (_member_of(payload, "dt")["tree"], "feature"), (knn, "x"), (knn, "y")]


def _swapped_to_big_endian(obj) -> None:
    values = np.frombuffer(base64.b64decode(obj["b64"]), dtype=obj["dtype"])
    obj["dtype"] = ">" + obj["dtype"][1:]
    obj["b64"] = _b64(values.astype(obj["dtype"]).tobytes())


def _cut_one_byte(obj) -> None:
    obj["b64"] = _b64(base64.b64decode(obj["b64"])[:-1])


# a dtype of the same item size as the stored one, so only the name differs
_SAME_SIZE_DTYPE = {"<f8": "<i8", "<i4": "<f4", "|u1": "|i1"}

_DTYPE, _SHAPE, _STR, _B64, _FIT = ("of dtype", "shape must be", "b64 must be a string",
                                    "is not base64", "do not fit shape")

# each edit and the start of the loader's message for it
_CORRUPT_ENCODINGS = {
    "dtype of another type": (lambda o: o.update(dtype=_SAME_SIZE_DTYPE[o["dtype"]]), _DTYPE),
    "dtype big-endian": (_swapped_to_big_endian, _DTYPE),
    "dtype object": (lambda o: o.update(dtype="O"), _DTYPE),
    "dtype a numpy alias": (lambda o: o.update(dtype=np.dtype(o["dtype"]).name), _DTYPE),
    "dtype not a string": (lambda o: o.update(dtype=8), _DTYPE),
    "dtype missing": (lambda o: o.pop("dtype"), _DTYPE),
    "shape negative": (lambda o: o.update(shape=[-d for d in o["shape"]]), _SHAPE),
    "shape of floats": (lambda o: o.update(shape=[float(d) for d in o["shape"]]), _SHAPE),
    "shape of bools": (lambda o: o.update(shape=[True] * len(o["shape"])), _SHAPE),
    "shape a number": (lambda o: o.update(shape=o["shape"][0]), _SHAPE),
    "shape an extra axis": (lambda o: o.update(shape=o["shape"] + [1]), _SHAPE),
    "shape missing": (lambda o: o.pop("shape"), _SHAPE),
    "shape too long for the bytes": (lambda o: o["shape"].__setitem__(0, o["shape"][0] + 1), _FIT),
    "shape too short for the bytes": (lambda o: o["shape"].__setitem__(0, o["shape"][0] - 1), _FIT),
    "bytes one short": (_cut_one_byte, _FIT),
    "b64 not base64": (lambda o: o.update(b64="!!!!"), _B64),
    "b64 truncated text": (lambda o: o.update(b64=o["b64"][:-1]), _B64),
    "b64 with a newline": (lambda o: o.update(b64=o["b64"][:4] + "\n" + o["b64"][4:]), _B64),
    "b64 not ascii": (lambda o: o.update(b64="é" + o["b64"][1:]), _B64),
    "b64 a number": (lambda o: o.update(b64=5), _STR),
    "b64 null": (lambda o: o.update(b64=None), _STR),
    "b64 a list": (lambda o: o.update(b64=[o["b64"]]), _STR),
    "b64 missing": (lambda o: o.pop("b64"), _STR),
}


@pytest.mark.parametrize("edit, message", _CORRUPT_ENCODINGS.values(), ids=_CORRUPT_ENCODINGS.keys())
def test_deserialize_rejects_corrupt_array_encoding(full_payload_model, edit, message):
    for slot in range(4):
        payload = json.loads(json.dumps(full_payload_model[0]))
        holder, key = _array_slots(payload)[slot]
        edit(holder[key])
        with pytest.raises(CorruptPayload, match=message):
            deserialize_model(json.dumps(payload).encode())


@pytest.mark.parametrize("replacement", [[0.5, 1.0], None, "AAAA", 3],
                         ids=["a v2 number list", "null", "a string", "a number"])
def test_deserialize_rejects_array_that_is_not_an_object(full_payload_model, replacement):
    for slot in range(4):
        payload = json.loads(json.dumps(full_payload_model[0]))
        holder, key = _array_slots(payload)[slot]
        holder[key] = replacement
        with pytest.raises(CorruptPayload):
            deserialize_model(json.dumps(payload).encode())


_DTYPE_TEXT = st.sampled_from(["<f8", "<i4", "|u1", ">f8", ">i4", "<f4", "<i8", "|i1",
                               "O", "f8", "float64", "int32", "<U2", "V8", "|b1"])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_array_encoding_loads_and_scores_or_raises(full_payload_model, data):
    payload, x = full_payload_model
    payload = json.loads(json.dumps(payload))
    holder, key = data.draw(st.sampled_from(_array_slots(payload)))
    obj = holder[key]
    field = data.draw(st.sampled_from(["dtype", "shape", "b64"]))
    if data.draw(st.integers(0, 9)) == 0:
        del obj[field]
    elif field == "dtype":
        obj["dtype"] = data.draw(st.one_of(_DTYPE_TEXT, _JSON_VALUES))
    elif field == "shape":
        obj["shape"] = data.draw(st.one_of(st.lists(st.integers(-3, 40), max_size=3),
                                           _JSON_VALUES))
    elif data.draw(st.booleans()):
        # overwritten bytes keep the envelope well formed and test what
        # the loader checks of the values
        raw = bytearray(base64.b64decode(obj["b64"]))
        for at, byte in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                     st.integers(0, 255)), min_size=1, max_size=8)):
            raw[at] = byte
        obj["b64"] = _b64(bytes(raw))
    else:
        obj["b64"] = data.draw(st.one_of(st.binary(max_size=64).map(_b64), st.text(max_size=8),
                                         _JSON_VALUES))
    _loads_and_scores_or_raises(json.dumps(payload).encode(), x)
