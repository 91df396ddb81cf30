"""The four member classifiers and the majority-vote ensemble.

Everything here is written against plain numpy arrays: X is (n, p)
float64, y is (n,) int with labels in {0, 1}.  Matrices fed to the
trainers must already be standardized (see :class:`Standardizer`,
which also owns median imputation of absent values).  Training is
fully deterministic given the seed; forests derive one child seed per
tree (seed + tree index), which is what makes parallel and serial
training produce identical models.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from domaintriage.model import FEATURE_NAMES, DomainTriageError, FeatureVector

FORMAT_VERSION = 2


class EmptyData(DomainTriageError):
    """A trainer received no rows."""


class ConstantColumn(DomainTriageError):
    """A column with no variance (or no observed values) cannot be
    standardized; prune it first."""


class NonFiniteLoss(DomainTriageError):
    """Gradient descent diverged."""


class EmptyTrainSet(DomainTriageError):
    """kNN has no rows to look up neighbors in."""


class EmptyVotes(DomainTriageError):
    """Majority vote over zero votes is undefined."""


class FeatureDimensionMismatch(DomainTriageError):
    """A vector's width does not match what the model was trained on."""


class VersionMismatch(DomainTriageError):
    """Serialized model from an unknown format version."""


class CorruptPayload(DomainTriageError):
    """Serialized model bytes that cannot be decoded."""


# --- standardization ------------------------------------------------------

@dataclass
class Standardizer:
    """Median imputation followed by z-scoring, with statistics frozen
    at fit time.

    Absent entries (NaN) are replaced by the training median of their
    column *before* the mean/stddev are computed, so the recorded
    statistics describe exactly the matrix the trainers will see.
    Stddev is the population form (divide by n).
    """

    medians: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, x) -> "Standardizer":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 2:
            raise EmptyData("standardizer needs a matrix with at least 2 rows")
        all_absent = np.isnan(x).all(axis=0)
        if all_absent.any():
            cols = np.flatnonzero(all_absent).tolist()
            raise ConstantColumn(f"columns {cols} have no observed values")
        medians = np.nanmedian(x, axis=0)
        filled = np.where(np.isnan(x), medians, x)
        means = filled.mean(axis=0)
        stds = filled.std(axis=0)
        if (stds <= 0).any() or not np.isfinite(stds).all():
            cols = np.flatnonzero(~(stds > 0)).tolist()
            raise ConstantColumn(f"columns {cols} are constant")
        return cls(medians=medians, means=means, stds=stds)

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.means.shape[0]:
            raise FeatureDimensionMismatch(
                f"expected {self.means.shape[0]} columns, got {x.shape[1]}"
            )
        filled = np.where(np.isnan(x), self.medians, x)
        return (filled - self.means) / self.stds


# --- decision trees and forests -------------------------------------------

_TREE_FIELDS = ("feature", "threshold", "right", "prob")


@dataclass
class Tree:
    """One decision tree as a flat preorder node table.

    Node 0 is the root.  A split node i sends a row to node i + 1 when
    its value of ``feature[i]`` is <= ``threshold[i]`` and to node
    ``right[i]`` otherwise.  A leaf has ``feature == -1`` and holds the
    probability of label 1 in ``prob``; the fields a node does not use
    hold 0.  Children always come after their parent, so every walk ends
    within len(feature) steps.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    prob: np.ndarray

    def to_payload(self) -> dict:
        return {key: getattr(self, key).tolist() for key in _TREE_FIELDS}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "Tree":
        """Load and validate one tree whose splits may use features
        0..width-1; anything else raises CorruptPayload."""
        arrays = [np.asarray(obj[key], dtype=float) for key in _TREE_FIELDS]
        feature, threshold, right, prob = arrays
        n = len(feature) if feature.ndim == 1 else 0
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise CorruptPayload("tree arrays must be non-empty and of equal length")
        if not np.isfinite(threshold).all():
            raise CorruptPayload("tree threshold is not finite")
        if not ((prob >= 0.0) & (prob <= 1.0)).all():
            raise CorruptPayload("tree probability outside [0, 1]")
        if not ((feature == np.floor(feature)) & (right == np.floor(right))).all():
            raise CorruptPayload("tree node indices must be whole numbers")
        split = feature >= 0
        if not ((feature == -1) | (split & (feature < width))).all():
            raise CorruptPayload(f"tree feature index outside -1..{width - 1}")
        if not ((right >= 0) & (right < n) & (~split | (right > np.arange(n) + 1))).all():
            raise CorruptPayload("tree child index does not follow its parent")
        return cls(feature=feature.astype(np.intp), threshold=threshold,
                   right=right.astype(np.intp), prob=prob)


def _best_split(x, y, idx, feat_ids, min_leaf):
    """Exhaustive best (feature, threshold) by weighted Gini.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values; both sides must keep at least min_leaf rows.  Lower
    cost wins; ties go to the earlier feature, then lower threshold.
    Returns (cost, feature, threshold) or None.
    """
    n = len(idx)
    best = None
    for f in feat_ids:
        col = x[idx, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = y[idx][order]
        pos_cum = np.cumsum(sy)
        total_pos = int(pos_cum[-1])
        # boundary after sorted position i: left block is 0..i
        i = np.arange(min_leaf - 1, n - min_leaf)
        if len(i) == 0:
            continue
        distinct = sv[i] != sv[i + 1]
        i = i[distinct]
        if len(i) == 0:
            continue
        thresholds = (sv[i] + sv[i + 1]) / 2.0
        # adjacent representable floats: midpoint cannot separate them
        usable = (sv[i] < thresholds) & (thresholds < sv[i + 1])
        i, thresholds = i[usable], thresholds[usable]
        if len(i) == 0:
            continue
        ln = i + 1
        rn = n - ln
        lp = pos_cum[i]
        rp = total_pos - lp
        gini_l = 1.0 - (lp * lp + (ln - lp) * (ln - lp)) / (ln * ln)
        gini_r = 1.0 - (rp * rp + (rn - rp) * (rn - rp)) / (rn * rn)
        cost = (ln * gini_l + rn * gini_r) / n
        k = int(np.argmin(cost))
        if best is None or cost[k] < best[0]:
            best = (float(cost[k]), int(f), float(thresholds[k]))
    return best


def train_decision_tree(
    x,
    y,
    max_depth: int = 12,
    min_leaf: int = 5,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Greedy CART-style tree on Gini impurity.

    ``max_features``/``rng`` are for forest use: when set, every split
    considers a fresh random feature subset.  Without them the tree is
    fully deterministic.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) == 0:
        raise EmptyData("no rows to train on")
    if len(x) != len(y):
        raise EmptyData(f"{len(x)} rows but {len(y)} labels")
    p = x.shape[1]
    subset = max_features is not None and max_features < p
    nodes: list[list] = []  # [feature, threshold, right, prob] in preorder

    def grow(idx: np.ndarray, depth: int) -> None:
        pos = int(y[idx].sum())
        n = len(idx)
        node = [-1, 0.0, 0, pos / n]
        nodes.append(node)
        if pos == 0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
            return
        if subset:
            feat_ids = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feat_ids = range(p)
        found = _best_split(x, y, idx, feat_ids, min_leaf)
        if found is None:
            return
        _, f, t = found
        node[:] = [f, t, 0, 0.0]
        mask = x[idx, f] <= t
        grow(idx[mask], depth + 1)
        node[2] = len(nodes)
        grow(idx[~mask], depth + 1)

    grow(np.arange(len(x)), 0)
    feature, threshold, right, prob = np.array(nodes, dtype=float).T.copy()
    return Tree(feature=feature.astype(np.intp), threshold=threshold,
                right=right.astype(np.intp), prob=prob)


def train_random_forest(
    x,
    y,
    n_trees: int = 100,
    max_features: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
    max_depth: int = 12,
    min_leaf: int = 5,
    n_jobs: int = 1,
) -> list[Tree]:
    """Bagged trees with per-split random feature subsets.

    ``max_features`` defaults to ceil(sqrt(p)).  Tree i draws all its
    randomness from seed + i, so the result does not depend on whether
    trees were built serially or in parallel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) == 0:
        raise EmptyData("no rows to train on")
    n, p = x.shape
    mf = max_features if max_features is not None else math.ceil(math.sqrt(p))

    def build(i: int) -> Tree:
        rng = np.random.default_rng(seed + i)
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            xs, ys = x[sample], y[sample]
        else:
            xs, ys = x, y
        return train_decision_tree(
            xs, ys, max_depth=max_depth, min_leaf=min_leaf,
            max_features=mf if mf < p else None, rng=rng,
        )

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(build, range(n_trees)))
    return [build(i) for i in range(n_trees)]


# (row, tree) pairs walked at once, which bounds the walk's index
# arrays whatever the batch size
_MAX_PAIRS = 1 << 20


def forest_predict_proba(trees: list[Tree], x) -> np.ndarray:
    """Mean of member-tree leaf probabilities.

    The trees are joined into one node table and every (row, tree) pair
    walks it in lockstep, one numpy step per level.  The leaf
    probabilities are then added tree by tree, in tree order, so each
    score is the same sum a tree-at-a-time loop would give.
    """
    x = np.asarray(x, dtype=float)
    roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    right = np.concatenate([t.right + root for t, root in zip(trees, roots)])
    prob = np.concatenate([t.prob for t in trees])
    acc = np.zeros(len(x), dtype=float)
    chunk = max(1, _MAX_PAIRS // len(trees))
    for start in range(0, len(x), chunk):
        block = x[start:start + chunk]
        n = len(block)
        rows = np.tile(np.arange(n), len(trees))
        node = np.repeat(roots, n)
        live = np.flatnonzero(feature[node] >= 0)
        while len(live):
            at = node[live]
            go_left = block[rows[live], feature[at]] <= threshold[at]
            at = np.where(go_left, at + 1, right[at])
            node[live] = at
            live = live[feature[at] >= 0]
        for leaf_probs in prob[node].reshape(len(trees), n):
            acc[start:start + n] += leaf_probs
    return acc / len(trees)


# --- logistic regression ---------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_loss(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean log-loss plus l2*||w||^2/2 (bias unpenalized)."""
    # overflow here means divergence, reported as NonFiniteLoss by the
    # trainer rather than as a numpy warning
    with np.errstate(over="ignore"):
        z = x @ w + b
        per_row = np.logaddexp(0.0, z) - y * z
        return float(per_row.mean() + 0.5 * l2 * (w @ w))


def lr_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    z = x @ w + b
    residual = _sigmoid(z) - y
    grad_w = x.T @ residual / len(x) + l2 * w
    grad_b = float(residual.mean())
    return grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    final_loss: float
    losses: list[float] = field(default_factory=list, repr=False)

    def scores(self, x) -> np.ndarray:
        return _sigmoid(np.asarray(x, dtype=float) @ self.weights + self.bias)


def train_logistic_regression(
    x,
    y,
    l2: float = 1e-4,
    lr: float = 0.1,
    epochs: int = 500,
) -> LogisticModel:
    """Full-batch gradient descent from zero weights.

    Records the loss before every update plus the final loss; aborts
    with NonFiniteLoss if the loss ever stops being finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise EmptyData("no rows to train on")
    w = np.zeros(x.shape[1], dtype=float)
    b = 0.0
    losses = []
    for _ in range(epochs):
        loss = lr_loss(w, b, x, y, l2)
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"loss became {loss} during training")
        losses.append(loss)
        grad_w, grad_b = lr_gradient(w, b, x, y, l2)
        w = w - lr * grad_w
        b = b - lr * grad_b
    final = lr_loss(w, b, x, y, l2)
    if not math.isfinite(final):
        raise NonFiniteLoss(f"loss became {final} during training")
    losses.append(final)
    return LogisticModel(weights=w, bias=b, final_loss=final, losses=losses)


# --- k nearest neighbors ----------------------------------------------------

# doubles in one block of approximate distances (16 MB); a block holds
# _KNN_BLOCK // n queries, at least one
_KNN_BLOCK = 1 << 21


def knn_scores(train_x, train_y, queries, k: int = 5) -> np.ndarray:
    """Positive fraction of the k nearest training rows of each query.

    Distance is the squared Euclidean ``E = ((q - x) ** 2).sum(axis=-1)``
    and equidistant points at the boundary are taken in row order, so
    the neighbours are the first k rows of a stable sort by E.

    Queries go in blocks.  One matmul gives every approximate distance
    ``A = |q|² + |x|² − 2·q·xᵀ`` of a block, and ``np.partition`` gives
    T, each query's k-th smallest A.  With u = eps/2 and S = |q|² +
    max|x|², the standard bounds for sums and dot products give
    ``|A − D| ≤ (2p + 4)·u·S`` (the three length-p reductions and the
    two additions) and ``|E − D| ≤ (p + 2)·u·D ≤ (2p + 4)·u·S`` (a
    rounded difference, a rounded square and p − 1 additions, and D ≤
    2S) around the true distance D, so ``|A − E| ≤ δ = (2p + 4)·eps·S``
    up to O(u²) terms.  Each product that underflows adds at most half
    the smallest subnormal, hence an absolute term of the same form.

    The k rows with A ≤ T have E ≤ T + δ, so the k-th smallest E is at
    most T + δ, and any row with E at most that k-th smallest E has
    A ≤ T + 2δ.  The rows kept, those with A ≤ T + 2δ where 2δ is taken
    as ``4(p + 3)·(eps·S + 2^-1074)`` (the slack absorbs the rounding of
    T + 2δ and the O(u²) terms), therefore include every row that can
    be among the k nearest.  Their E is recomputed with the same
    last-axis reduction as a full scan, so the values are bit-equal,
    and the first k by (E, row) are exactly the stable sort's first k.
    A query whose T + 2δ is not finite (an overflow or a NaN) keeps
    every row, which is the exact full scan.
    """
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=int)
    queries = np.asarray(queries, dtype=float)
    n = len(train_x)
    if n == 0:
        raise EmptyTrainSet("no training rows")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.shape[1] != train_x.shape[1]:
        raise FeatureDimensionMismatch(
            f"train has {train_x.shape[1]} columns, query has {queries.shape[1]}"
        )
    out = np.empty(len(queries), dtype=float)
    p = train_x.shape[1]
    chunk = max(1, _KNN_BLOCK // n)
    # a non-finite value only sends a query to the full scan
    with np.errstate(over="ignore", invalid="ignore"):
        xx = (train_x * train_x).sum(axis=1)
        xx_max = xx.max()
        for start in range(0, len(queries), chunk):
            q = queries[start:start + chunk]
            qq = (q * q).sum(axis=1)
            approx = q @ train_x.T
            approx *= -2.0
            approx += qq[:, None]
            approx += xx
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            limit = kth + 4 * (p + 3) * (np.finfo(float).eps * (qq + xx_max)
                                         + np.finfo(float).smallest_subnormal)
            keep = approx <= limit[:, None]
            keep[~np.isfinite(limit)] = True
            qi, ri = np.nonzero(keep)
            exact = ((q[qi] - train_x[ri]) ** 2).sum(axis=-1)
            order = np.lexsort((ri, exact, qi))
            # candidates come grouped by query; a group's first k are its nearest
            counts = np.bincount(qi, minlength=len(q))
            first = np.cumsum(counts) - counts
            nearest = ri[order[first[:, None] + np.arange(k)]]
            out[start:start + len(q)] = train_y[nearest].sum(axis=1) / k
    return out


# --- ensemble ---------------------------------------------------------------

def majority_vote(votes) -> int:
    """Label 1 iff strictly more than half the votes are 1; a tie on an
    even vote count is benign (0).  This is :func:`combine_votes` on
    one row, with one member per vote."""
    votes = list(votes)
    if not votes:
        raise EmptyVotes("no votes to aggregate")
    for v in votes:
        if v not in (0, 1):
            raise ValueError(f"votes must be 0 or 1, got {v!r}")
    labels, _ = combine_votes(np.asarray(votes, dtype=float)[:, None])
    return int(labels[0])


@dataclass
class Member:
    """One trained classifier inside the ensemble: a kind tag plus the
    model object it wraps."""

    kind: str
    trees: list[Tree] | None = None
    logistic: LogisticModel | None = None
    knn_x: np.ndarray | None = None
    knn_y: np.ndarray | None = None
    knn_k: int = 5

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Score in [0,1] per row of (already standardized) ``x``."""
        if self.kind in ("rf", "dt"):
            return forest_predict_proba(self.trees, x)
        if self.kind == "lr":
            return self.logistic.scores(x)
        if self.kind == "knn":
            return knn_scores(self.knn_x, self.knn_y, x, self.knn_k)
        raise ValueError(f"unknown member kind {self.kind!r}")

    def votes(self, x: np.ndarray) -> np.ndarray:
        return (self.scores(x) > 0.5).astype(int)


DEFAULT_MODELS = ("rf", "dt", "knn", "lr")

DEFAULT_PARAMS = {
    "n_trees": 100,
    "max_depth": 12,
    "min_leaf": 5,
    "knn_k": 5,
    "l2": 1e-4,
    "lr_rate": 0.1,
    "lr_epochs": 500,
}


@dataclass
class EnsembleModel:
    """Trained members plus everything needed to score a raw
    17-feature vector: the selected feature indices and the fitted
    standardizer."""

    members: list[Member]
    selected_features: list[int]
    standardizer: Standardizer
    seed: int
    params: dict

    @property
    def k(self) -> int:
        return len(self.members)


def train_ensemble(
    x17,
    y,
    selected_features: list[int],
    models: tuple[str, ...] = DEFAULT_MODELS,
    seed: int = 0,
    n_jobs: int = 1,
    **overrides,
) -> EnsembleModel:
    """Standardize the selected columns and train each requested member.

    ``x17`` is the raw (n, 17) matrix with NaN for absent entries.
    Hyperparameter overrides: n_trees, max_depth, min_leaf, knn_k, l2,
    lr_rate, lr_epochs.
    """
    params = dict(DEFAULT_PARAMS)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
    params.update(overrides)
    if not models:
        raise ValueError("need at least one member model")
    x17 = np.asarray(x17, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(x17) == 0:
        raise EmptyData("no rows to train on")
    sel = list(selected_features)
    if not sel or len(set(sel)) != len(sel):
        raise ValueError("selected_features must be non-empty and unique")
    if min(sel) < 0 or max(sel) >= x17.shape[1]:
        raise FeatureDimensionMismatch(
            f"selected feature index out of range for {x17.shape[1]} columns"
        )
    standardizer = Standardizer.fit(x17[:, sel])
    xs = standardizer.transform(x17[:, sel])

    members = []
    for kind in models:
        if kind == "rf":
            trees = train_random_forest(
                xs, y, n_trees=params["n_trees"], seed=seed,
                max_depth=params["max_depth"], min_leaf=params["min_leaf"],
                n_jobs=n_jobs,
            )
            members.append(Member(kind="rf", trees=trees))
        elif kind == "dt":
            # scored as a one-tree forest
            tree = train_decision_tree(
                xs, y, max_depth=params["max_depth"], min_leaf=params["min_leaf"]
            )
            members.append(Member(kind="dt", trees=[tree]))
        elif kind == "knn":
            if not (1 <= params["knn_k"] <= len(xs)):
                raise ValueError(f"knn_k must be in 1..{len(xs)}")
            members.append(Member(kind="knn", knn_x=xs.copy(), knn_y=y.copy(),
                                  knn_k=params["knn_k"]))
        elif kind == "lr":
            logistic = train_logistic_regression(
                xs, y, l2=params["l2"], lr=params["lr_rate"],
                epochs=params["lr_epochs"],
            )
            members.append(Member(kind="lr", logistic=logistic))
        else:
            raise ValueError(f"unknown model kind {kind!r}")
    return EnsembleModel(
        members=members,
        selected_features=sel,
        standardizer=standardizer,
        seed=seed,
        params=params,
    )


def _raw_row(features) -> np.ndarray:
    if isinstance(features, FeatureVector):
        row = features.to_row()
    else:
        row = list(features)
    return np.array([np.nan if v is None else float(v) for v in row], dtype=float)


def combine_votes(member_scores: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Majority-vote labels and vote fractions from each member's
    scores; a member votes 1 where its score is above 0.5."""
    vote_sum = np.zeros(len(member_scores[0]), dtype=int)
    for scores in member_scores:
        vote_sum += (scores > 0.5).astype(int)
    k = len(member_scores)
    return (vote_sum > k / 2).astype(int), vote_sum / k


def ensemble_scores(model: EnsembleModel, x17) -> tuple[np.ndarray, np.ndarray]:
    """Batch scoring: returns (labels, vote-fraction scores) for an
    (n, 17) raw feature matrix."""
    x17 = np.asarray(x17, dtype=float)
    if x17.ndim == 1:
        x17 = x17.reshape(1, -1)
    xs = model.standardizer.transform(x17[:, model.selected_features])
    return combine_votes([member.scores(xs) for member in model.members])


def ensemble_predict(model: EnsembleModel, features) -> tuple[int, float]:
    """Score one domain: majority-vote label plus the vote fraction
    (the fraction is only a ranking statistic for ROC purposes)."""
    row = _raw_row(features)
    if row.shape[0] != 17:
        raise FeatureDimensionMismatch(f"expected 17 features, got {row.shape[0]}")
    labels, scores = ensemble_scores(model, row.reshape(1, -1))
    return int(labels[0]), float(scores[0])


# --- serialization ----------------------------------------------------------

def _member_payload(member: Member) -> dict:
    if member.kind == "dt":
        return {"kind": "dt", "tree": member.trees[0].to_payload()}
    if member.kind == "rf":
        return {"kind": "rf", "trees": [t.to_payload() for t in member.trees]}
    if member.kind == "lr":
        return {
            "kind": "lr",
            "weights": member.logistic.weights.tolist(),
            "bias": member.logistic.bias,
            "final_loss": member.logistic.final_loss,
        }
    if member.kind == "knn":
        return {
            "kind": "knn",
            "x": member.knn_x.tolist(),
            "y": member.knn_y.tolist(),
            "k": member.knn_k,
        }
    raise ValueError(f"unknown member kind {member.kind!r}")


def _finite(value, what: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, in which None
    stands for any length of at least 1; otherwise CorruptPayload."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != len(shape) or any(
        got < 1 if want is None else got != want for got, want in zip(arr.shape, shape)
    ):
        raise CorruptPayload(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CorruptPayload(f"{what} is not finite")
    return arr


def _member_from_payload(obj: dict, width: int) -> Member:
    kind = obj["kind"]
    if kind == "dt":
        return Member(kind="dt", trees=[Tree.from_payload(obj["tree"], width)])
    if kind == "rf":
        trees = [Tree.from_payload(t, width) for t in obj["trees"]]
        if not trees:
            raise CorruptPayload("a forest needs at least one tree")
        return Member(kind="rf", trees=trees)
    if kind == "lr":
        return Member(
            kind="lr",
            logistic=LogisticModel(
                weights=_finite(obj["weights"], "lr weights", (width,)),
                bias=float(_finite(obj["bias"], "lr bias", ())),
                final_loss=float(obj["final_loss"]),
            ),
        )
    if kind == "knn":
        x = _finite(obj["x"], "knn x", (None, width))
        y = _finite(obj["y"], "knn y", (len(x),))
        k = obj["k"]
        if not ((y == 0) | (y == 1)).all():
            raise CorruptPayload("knn labels must be 0 or 1")
        if type(k) is not int or not 1 <= k <= len(x):
            raise CorruptPayload(f"knn k must be an integer in 1..{len(x)}, got {k!r}")
        return Member(kind="knn", knn_x=x, knn_y=y.astype(int), knn_k=k)
    raise CorruptPayload(f"unknown member kind {kind!r}")


def serialize_model(model: EnsembleModel) -> bytes:
    """Deterministic JSON bytes: same model → same bytes."""
    payload = {
        "format_version": FORMAT_VERSION,
        "seed": model.seed,
        "params": model.params,
        "selected_features": list(model.selected_features),
        "standardizer": {
            "medians": model.standardizer.medians.tolist(),
            "means": model.standardizer.means.tolist(),
            "stds": model.standardizer.stds.tolist(),
        },
        "members": [_member_payload(m) for m in model.members],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("ascii")


def deserialize_model(data: bytes) -> EnsembleModel:
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CorruptPayload(f"not valid model JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptPayload("model payload is not an object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r}, expected {FORMAT_VERSION}")
    try:
        selected = payload["selected_features"]
        if not (isinstance(selected, list) and selected
                and all(type(i) is int and 0 <= i < len(FEATURE_NAMES) for i in selected)
                and len(set(selected)) == len(selected)):
            raise CorruptPayload(
                f"selected_features must be distinct indices in 0..{len(FEATURE_NAMES) - 1}")
        width = len(selected)
        std = {key: _finite(payload["standardizer"][key], f"standardizer {key}", (width,))
               for key in ("medians", "means", "stds")}
        if not (std["stds"] > 0).all():
            raise CorruptPayload("standardizer stds must be positive")
        members = [_member_from_payload(m, width) for m in payload["members"]]
        if not members:
            raise CorruptPayload("a model needs at least one member")
        return EnsembleModel(
            members=members,
            selected_features=selected,
            standardizer=Standardizer(**std),
            seed=int(payload["seed"]),
            params=dict(payload["params"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptPayload(f"model payload missing or malformed field: {exc}") from exc
