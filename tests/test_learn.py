import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domaintriage import learn
from domaintriage.learn import (
    ConstantColumn,
    CorruptPayload,
    EmptyData,
    EmptyTrainSet,
    EmptyVotes,
    FeatureDimensionMismatch,
    LogisticModel,
    Member,
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
)
from domaintriage.model import DomainTriageError
from oracles import forest_score_recursive, knn_score_bruteforce


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
            assert tree.threshold[0] == want[2], trial


def test_tree_pure_node_is_leaf():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = train_decision_tree(x, np.array([1, 1, 1, 1]), min_leaf=1)
    assert tree.feature.tolist() == [-1]
    assert tree.prob[0] == 1.0


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
        assert 0.0 <= tree.prob[node] <= 1.0
        assert tree.prob[node] == y[idx].sum() / n
        return
    assert depth < max_depth
    mask = x[idx, tree.feature[node]] <= tree.threshold[node]
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


def test_lockstep_forest_equals_recursive_walk():
    rng = np.random.default_rng(41)
    for trial in range(6):
        n, p = 150, int(rng.integers(2, 6))
        x = rng.integers(0, 4, size=(n, p)).astype(float)  # heavy ties
        x[: n // 2] += rng.normal(scale=0.3, size=(n // 2, p))
        y = (x[:, 0] + rng.normal(scale=1.0, size=n) > 1.5).astype(int)
        trees = train_random_forest(x, y, n_trees=int(rng.integers(1, 12)), seed=trial,
                                    min_leaf=int(rng.integers(1, 4)))
        payloads = [t.to_payload() for t in trees]
        q = rng.integers(-1, 5, size=(60, p)).astype(float)
        # put queries exactly on split thresholds, where <= decides the side
        splits = [(f, t) for tree in payloads
                  for f, t in zip(tree["feature"], tree["threshold"]) if f >= 0]
        for row in q[:40]:
            for f, t in (splits[int(i)] for i in rng.integers(0, len(splits), size=2)):
                row[f] = t
        got = forest_predict_proba(trees, q)
        want = [forest_score_recursive(payloads, row.tolist()) for row in q]
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
    with pytest.raises(NonFiniteLoss):
        train_logistic_regression(x, y, lr=1e12, epochs=500)


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


def _knn_member(train_x, train_y, k):
    return Member(kind="knn", knn_x=train_x, knn_y=train_y, knn_k=k)


def test_knn_tie_score_is_benign():
    member = _knn_member(np.array([[0.0], [2.0]]), np.array([1, 0]), k=2)
    score = member.scores(np.array([[1.0]]))[0]
    label = member.votes(np.array([[1.0]]))[0]
    assert score == 0.5
    assert label == 0


def test_knn_equidistant_prefers_lower_row():
    member = _knn_member(np.array([[1.0], [1.0], [1.0]]), np.array([1, 0, 0]), k=1)
    score = member.scores(np.array([[1.0]]))[0]
    label = member.votes(np.array([[1.0]]))[0]
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


def test_knn_chunked_batches_consistent():
    rng = np.random.default_rng(40)
    train_x = rng.normal(size=(50, 3))
    train_y = rng.integers(0, 2, size=50)
    queries = rng.normal(size=(200, 3))
    whole = knn_scores(train_x, train_y, queries, k=5)
    single = np.array([knn_scores(train_x, train_y, q.reshape(1, -1), k=5)[0]
                       for q in queries])
    assert (whole == single).all()


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
    assert model.k == 4
    assert model.selected_features == [0, 4, 9, 13]
    assert model.params["n_trees"] == 10


def test_ensemble_vote_aggregation_consistent():
    x, y = _raw17(seed=51)
    model = train_ensemble(x, y, [0, 4, 9], seed=2, n_trees=8)
    labels, scores = ensemble_scores(model, x)
    xs = model.standardizer.transform(x[:, model.selected_features])
    vote_sum = sum(m.votes(xs) for m in model.members)
    assert (scores == vote_sum / model.k).all()
    assert (labels == (vote_sum > model.k / 2).astype(int)).all()
    for i in range(0, len(x), 37):
        votes = [int(m.votes(xs[i:i + 1])[0]) for m in model.members]
        assert labels[i] == majority_vote(votes)


def test_ensemble_learns_separable_data():
    x, y = _raw17(seed=52)
    model = train_ensemble(x, y, [0, 4, 9], seed=0, n_trees=20)
    labels, _ = ensemble_scores(model, x)
    assert (labels == y).mean() >= 0.95


def test_ensemble_subset_of_models():
    x, y = _raw17(seed=53)
    model = train_ensemble(x, y, [4, 9], models=("dt", "lr", "knn"), seed=0)
    assert [m.kind for m in model.members] == ["dt", "lr", "knn"]
    assert model.k == 3


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


def test_train_ensemble_validation():
    x, y = _raw17(seed=56)
    with pytest.raises(ValueError):
        train_ensemble(x, y, [0, 4], models=("rf", "mystery"), n_trees=2)
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
    assert payload["format_version"] == 2


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


def test_deserialize_corrupt_payloads():
    with pytest.raises(CorruptPayload):
        deserialize_model(b"not json at all")
    with pytest.raises(CorruptPayload):
        deserialize_model(b"[1, 2, 3]")
    with pytest.raises(CorruptPayload):
        deserialize_model(b'{"format_version": 2}')
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


def _tree(feature, threshold, right, prob) -> Tree:
    return Tree(feature=np.array(feature), threshold=np.array(threshold, dtype=float),
                right=np.array(right), prob=np.array(prob, dtype=float))


def test_tree_node_dict_round_trip():
    leaf = _tree([-1], [0.0], [0], [0.25])
    assert leaf.to_payload() == {"feature": [-1], "threshold": [0.0], "right": [0],
                                 "prob": [0.25]}
    split = _tree([2, -1, -1], [0.5, 0.0, 0.0], [2, 0, 0], [0.0, 0.0, 1.0])
    again = Tree.from_payload(split.to_payload(), width=3)
    assert again.to_payload() == split.to_payload()
    assert split.feature[0] != -1 and leaf.feature[0] == -1


@pytest.fixture(scope="module")
def tree_payload_model():
    """A serialized rf + dt model as a payload dict, and rows to score."""
    x, y = _raw17(seed=61)
    model = train_ensemble(x, y, [0, 4, 9], models=("rf", "dt"), seed=0, n_trees=3)
    return json.loads(serialize_model(model)), x


@pytest.mark.parametrize("edit", [
    lambda t: t.update(feature=t["feature"][:-1]),
    lambda t: t.update(feature=[], threshold=[], right=[], prob=[]),
    lambda t: t.pop("right"),
    lambda t: t.update(feature=[3] + t["feature"][1:]),
    lambda t: t.update(feature=[-2] + t["feature"][1:]),
    lambda t: t.update(feature=[0.5] + t["feature"][1:]),
    lambda t: t.update(right=[1] + t["right"][1:]),
    lambda t: t.update(right=[0] + t["right"][1:]),
    lambda t: t.update(right=[len(t["right"])] + t["right"][1:]),
    lambda t: t.update(threshold=[float("nan")] + t["threshold"][1:]),
    lambda t: t.update(threshold=[float("inf")] + t["threshold"][1:]),
    lambda t: t.update(prob=t["prob"][:-1] + [1.5]),
    lambda t: t.update(prob=t["prob"][:-1] + [-0.25]),
    lambda t: t.update(prob=t["prob"][:-1] + [float("nan")]),
    lambda t: t.update(feature="0"),
])
def test_deserialize_rejects_corrupt_tree(tree_payload_model, edit):
    payload, _ = tree_payload_model
    for member, pick in ((0, lambda m: m["trees"][1]), (1, lambda m: m["tree"])):
        bad = json.loads(json.dumps(payload))
        tree = pick(bad["members"][member])
        assert tree["feature"][0] >= 0  # the root is a split
        edit(tree)
        with pytest.raises(CorruptPayload):
            deserialize_model(json.dumps(bad).encode())


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


def _loads_and_scores_or_raises(payload, x) -> None:
    try:
        model = deserialize_model(json.dumps(payload).encode())
    except DomainTriageError:
        return
    labels, scores = ensemble_scores(model, x)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    xs = model.standardizer.transform(x[:, model.selected_features])
    for m in model.members:
        member_scores = m.scores(xs)
        assert ((member_scores >= 0.0) & (member_scores <= 1.0)).all()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_tree_payload_loads_and_scores_or_raises(tree_payload_model, data):
    payload, x = tree_payload_model
    payload = json.loads(json.dumps(payload))
    member = data.draw(st.sampled_from(payload["members"]))
    if member["kind"] == "rf":
        holder, slot = member["trees"], data.draw(st.integers(0, len(member["trees"]) - 1))
    else:
        holder, slot = member, "tree"
    if data.draw(st.integers(0, 5)) == 0:
        holder[slot] = data.draw(_JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(["feature", "threshold", "right", "prob"]))
        _mutate(data, holder[slot], key)
    _loads_and_scores_or_raises(payload, x)


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
}


@pytest.mark.parametrize("edit", _CORRUPT_FIELDS.values(), ids=_CORRUPT_FIELDS.keys())
def test_deserialize_rejects_corrupt_fields(full_payload_model, edit):
    payload = json.loads(json.dumps(full_payload_model[0]))
    deserialize_model(json.dumps(payload).encode())  # the unedited payload loads
    edit(payload)
    with pytest.raises(CorruptPayload):
        deserialize_model(json.dumps(payload).encode())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_payload_fields_load_and_score_or_raise(full_payload_model, data):
    payload, x = full_payload_model
    payload = json.loads(json.dumps(payload))
    owner, key = data.draw(st.sampled_from([
        ("knn", "x"), ("knn", "y"), ("knn", "k"), ("lr", "weights"), ("lr", "bias"),
        ("standardizer", "medians"), ("standardizer", "means"), ("standardizer", "stds"),
        ("model", "selected_features"),
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
    _loads_and_scores_or_raises(payload, x)
