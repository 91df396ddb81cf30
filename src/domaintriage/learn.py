"""The four member classifiers and the majority-vote ensemble.

Everything here is written against plain numpy arrays: X is (n, p)
float64, y is (n,) int with labels in {0, 1}.  Matrices fed to the
trainers must already be standardized (see :class:`Standardizer`,
which also owns median imputation of absent values).  Training is
fully deterministic given the seed and runs in one thread: a forest's
trees grow in lockstep (see :func:`train_random_forest`), each from its
own child seed (seed + tree index).

``MEMBERS`` maps each member kind ("rf", "dt", "knn", "lr") to its
class and is the one place that knows the kinds.  Each class has a
class attribute ``kind``, a ``fit(x, y, params, seed)``
classmethod, ``scores(x)`` on a standardized matrix, and
``to_payload()`` with a ``from_payload(obj, width)`` classmethod for
the member's fields in the model file, which validates what it loads.

The model file is JSON (format 3).  The members' arrays (tree columns,
kNN rows and labels) are stored as ``{"dtype", "shape", "b64"}``
objects: the array's little-endian bytes, base64-encoded (see
:func:`_pack`); the standardizer, the ``lr`` weights and the scalars
are plain JSON.
"""

from __future__ import annotations

import base64
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from domaintriage.model import FEATURE_NAMES, DomainTriageError, FeatureVector, UsageError

FORMAT_VERSION = 3


class EmptyData(DomainTriageError):
    """A trainer received no rows."""


class ConstantColumn(DomainTriageError):
    """A column with no variance (or no observed values) cannot be
    standardized; prune it first."""


class NonFiniteLoss(DomainTriageError):
    """Gradient descent diverged."""


class EmptyTrainSet(DomainTriageError):
    """kNN has no usable training set: no rows, or labels that are not
    one 0 or 1 per row."""


class EmptyVotes(DomainTriageError):
    """Majority vote over zero votes is undefined."""


class FeatureDimensionMismatch(DomainTriageError):
    """A vector's width does not match what the model was trained on."""


class VersionMismatch(DomainTriageError):
    """Serialized model from an unknown format version."""


class CorruptPayload(DomainTriageError):
    """Serialized model bytes that cannot be decoded."""


class InvalidHyperparameter(UsageError):
    """A training hyperparameter of the wrong type or out of its usable
    range."""


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

@dataclass
class Tree:
    """One decision tree as a flat preorder node table, in the three
    columns of the model file.

    Node 0 is the root.  A split node i sends a row to node i + 1 when
    its value of ``feature[i]`` is <= ``value[i]`` and to node
    ``right[i]`` otherwise.  A leaf has ``feature == -1``, holds 0 in
    ``right`` and the probability of label 1 in ``value``.  Children
    always come after their parent, so every walk ends within
    len(feature) steps.

    Trees come from the one grower behind :func:`train_random_forest`
    (the ``dt`` member is its one-tree case), which writes each tree's
    nodes in this preorder while it grows all of a forest's trees in
    lockstep.
    """

    feature: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def to_payload(self) -> dict:
        """The three columns: ``feature`` and ``right`` as int32, and
        ``value`` as float64."""
        return {"feature": _pack(self.feature, "<i4"), "right": _pack(self.right, "<i4"),
                "value": _pack(self.value, "<f8")}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "Tree":
        """Load and validate one tree whose splits may use features
        0..width-1; anything else raises CorruptPayload."""
        feature = _unpack(obj["feature"], "<i4", 1, "tree feature").astype(np.intp)
        right = _unpack(obj["right"], "<i4", 1, "tree right").astype(np.intp)
        value = _unpack(obj["value"], "<f8", 1, "tree value")
        n = len(feature)
        if n == 0 or right.shape != (n,) or value.shape != (n,):
            raise CorruptPayload("tree arrays must be non-empty and of equal length")
        if not np.isfinite(value).all():
            raise CorruptPayload("tree value is not finite")
        split = feature >= 0
        if not (split | ((value >= 0.0) & (value <= 1.0))).all():
            raise CorruptPayload("tree probability outside [0, 1]")
        if not ((feature == -1) | (split & (feature < width))).all():
            raise CorruptPayload(f"tree feature index outside -1..{width - 1}")
        if not ((right >= 0) & (right < n) & (~split | (right > np.arange(n) + 1))).all():
            raise CorruptPayload("tree child index does not follow its parent")
        return cls(feature=feature, right=right, value=value)


# (distinct row, drawn feature) keys, and count bins, in one chunk of
# the split search.  Each chunk pays a fixed cost in numpy calls, so
# fewer, larger chunks are faster; these bounds keep a chunk's
# temporaries to a few MB (while counting, 16 bytes per key and per
# bin) whatever the forest size
_SPLIT_KEYS = 1 << 16
_SPLIT_BINS = 4 * _SPLIT_KEYS


def train_decision_tree(x, y, max_depth: int = 12, min_leaf: int = 5) -> Tree:
    """Greedy CART-style tree on Gini impurity over every feature: the
    one-tree forest of :func:`train_random_forest` without bootstrap or
    feature draws, so it is fully deterministic."""
    x = np.asarray(x, dtype=float)
    return train_random_forest(x, y, n_trees=1, max_features=x.shape[-1], bootstrap=False,
                               max_depth=max_depth, min_leaf=min_leaf)[0]


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
    """Bagged greedy trees on Gini impurity, with per-split random
    feature subsets.

    ``max_features`` defaults to ceil(sqrt(p)); it must be an integer
    (numpy ones too, bools not) of at least 0, or InvalidHyperparameter
    is raised before anything is drawn.  Tree i draws all its
    randomness from ``default_rng(seed + i)``: first its bootstrap
    sample of n rows, then, at each node it tries to split, in preorder,
    a sorted subset of ``max_features`` features (every feature, with no
    draw, when ``max_features >= p``).  Each subset is exactly
    ``np.sort(rng.choice(p, max_features, replace=False))``, worked out
    from blocks of the tree's 32-bit words (:class:`_FeatureDraws`), so
    a numpy whose ``Generator`` streams change would change every forest;
    ``tests/test_feature_draws.py`` flags that.  A row drawn several
    times counts that many times.  A node stays a leaf when it is pure, at
    ``max_depth``, or has fewer than ``2 * min_leaf`` rows.  Otherwise
    its split is the (feature, threshold) of least weighted Gini
    impurity, where a threshold is the midpoint between two consecutive
    distinct values of the node's rows that keeps at least ``min_leaf``
    rows on each side; ties go to the earlier feature, then the lower
    threshold.

    Each tree keeps its sample as its distinct rows, each with its
    multiplicity (the number of times it was drawn), so the split
    search handles about 63 % of n rows per tree; every count it makes
    is a sum of multiplicities, the same count as over the drawn rows.
    All trees grow in lockstep, in one thread: at each step every tree
    takes its next preorder node that needs a split search, and one
    vectorised search (:func:`_split_chunk`) serves all of them.  So
    each tree is exactly the one a recursive tree-at-a-time grower
    builds on the drawn rows, and the result does not depend on
    ``n_jobs``, which is kept for callers and ignored.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) == 0:
        raise EmptyData("no rows to train on")
    if len(x) != len(y):
        raise EmptyData(f"{len(x)} rows but {len(y)} labels")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if max_features is not None and (isinstance(max_features, bool)
                                     or not isinstance(max_features, (int, np.integer))
                                     or max_features < 0):
        raise InvalidHyperparameter(f"max_features must be an integer of at least 0, got {max_features!r}")
    n, p = x.shape
    mf = int(max_features) if max_features is not None else math.ceil(math.sqrt(p))
    rngs = [np.random.default_rng(seed + i) for i in range(n_trees)]
    rows, weights, bounds = _samples(rngs, n, bootstrap)
    draws = [_FeatureDraws(rng, p, mf) for rng in rngs] if mf < p else None
    return _grow_forest(x, y, rows, weights, bounds, draws, max_depth=max_depth, min_leaf=min_leaf)


def _samples(rngs, n, bootstrap):
    """Each tree's sample, drawn from its generator as ``integers(0, n,
    size=n)`` (all n rows once without ``bootstrap``), as its distinct
    rows in ascending order with their multiplicities: the flat int32
    ``rows`` and ``weights`` of all trees, tree after tree, and the
    ``bounds`` of tree t's segment, ``bounds[t]:bounds[t + 1]``."""
    rows, weights = [], []
    for rng in rngs:
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n) if bootstrap else np.ones(n, int)
        distinct = np.flatnonzero(drawn)
        rows.append(distinct.astype(np.int32))
        weights.append(drawn[distinct].astype(np.int32))
    bounds = np.cumsum([0] + [len(r) for r in rows])
    # one flat array at a time, each list dropped once joined, so the
    # per-tree arrays and the flat ones never all coexist
    rows = np.concatenate(rows)
    return rows, np.concatenate(weights), bounds


# calls' worth of 32-bit words a tree's feature draws read from its
# generator at a time.  Each block pays a fixed cost in numpy calls and
# a tree that searches few nodes leaves most of its block unread; 128
# takes a noisy tree's few hundred draws in two or three blocks, and a
# larger block saves no more time than it costs a shallow tree
_DRAW_BLOCK = 128
# the most features a block draws per call: working out Floyd's rule
# over a block costs about mf**2 / 2 comparisons per call, and above 64
# a call costs more than ``rng.choice`` itself
_BLOCK_MAX_FEATURES = 64


class _FeatureDraws:
    """One tree's feature subsets: call after call, exactly
    ``np.sort(rng.choice(p, mf, replace=False))``, for 0 <= mf < p.

    For such a call numpy runs Floyd's algorithm (Bentley and Floyd,
    CACM 1987): for j = p - mf .. p - 1 it draws v on [0, j] and keeps
    v, or j when v is already kept.  Then it shuffles the values, which
    a sorted draw ignores.  Every value is Lemire's bounded integer
    (Lemire, ACM TOMACS 2019) on the generator's 32-bit stream: with
    r = j + 1, word w gives ``(w * r) >> 32``, unless ``(w * r) mod 2**32
    < 2**32 mod r``, when w is rejected and the next word is tried.  The
    shuffle's mf - 1 values have r = mf .. 2.  So a call without a
    rejected word reads exactly 2 * mf - 1 words.

    The generator is read in blocks of ``_DRAW_BLOCK`` calls' worth of
    words, ``rng.integers(0, 2**32, ..., dtype=np.uint32)``, and each
    block's draws are worked out with array operations.  A rejected
    word has a probability below p / 2**32; from the first one on, the
    draws follow numpy's steps word by word (:meth:`_replica`), over
    the rest of the block and then over fresh blocks.  Reading ahead is
    exact because nothing reads a tree's generator after its tree.

    Draws of 0 or more than ``_BLOCK_MAX_FEATURES`` features are left
    to ``rng.choice``.  That also covers the only draws where numpy
    does not use Floyd, a tail shuffle when p > 10000 and mf > p // 50,
    which needs mf > 200.
    """

    def __init__(self, rng, p: int, mf: int):
        self.rng, self.p, self.mf = rng, p, mf
        self.blocks = 0 < mf <= _BLOCK_MAX_FEATURES
        # each word's r, a call's Floyd columns and then its shuffle's
        self.r = np.concatenate([np.arange(p - mf + 1, p + 1), np.arange(mf, 1, -1)]).astype(np.uint64)
        self.threshold = (1 << 32) % self.r  # a word is rejected below this
        self.drawn = np.empty((0, mf), dtype=np.intp)  # the current block's sorted draws
        self.at = 0  # the next of them
        self.words = None  # after a rejected word: the words not yet read, and where the next is
        self.next_word = 0

    def __call__(self) -> np.ndarray:
        if not self.blocks:
            return np.sort(self.rng.choice(self.p, self.mf, replace=False))
        if self.at == len(self.drawn) and self.words is None:
            self._block()
        if self.at < len(self.drawn):
            self.at += 1
            return self.drawn[self.at - 1]
        return self._replica()

    def _read(self) -> np.ndarray:
        return self.rng.integers(0, 2**32, size=_DRAW_BLOCK * len(self.r), dtype=np.uint32)

    def _block(self) -> None:
        """The next block's draws, up to its first call with a rejected
        word, whose words and the rest are kept for :meth:`_replica`."""
        mf, width = self.mf, len(self.r)
        words = self._read()
        m = words.reshape(_DRAW_BLOCK, width) * self.r
        rejected = ((m & 0xFFFFFFFF) < self.threshold).any(axis=1)
        good = int(rejected.argmax()) if rejected.any() else _DRAW_BLOCK
        drawn = (m[:good, :mf] >> 32).astype(np.intp)
        for c in range(1, mf):
            taken = (drawn[:, :c] == drawn[:, c, None]).any(axis=1)
            drawn[taken, c] = self.p - mf + c
        drawn.sort(axis=1)
        self.drawn, self.at = drawn, 0
        if good < _DRAW_BLOCK:
            self.words, self.next_word = words[good * width:].tolist(), 0

    def _bounded(self, r: int) -> int:
        threshold = (1 << 32) % r
        while True:
            if self.next_word == len(self.words):
                self.words, self.next_word = self._read().tolist(), 0
            m = self.words[self.next_word] * r
            self.next_word += 1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def _replica(self) -> np.ndarray:
        """One call of numpy's steps, word by word."""
        kept = []
        for j in range(self.p - self.mf, self.p):
            v = self._bounded(j + 1)
            kept.append(j if v in kept else v)
        for r in range(self.mf, 1, -1):
            self._bounded(r)
        return np.array(sorted(kept), dtype=np.intp)


def _grow_forest(x, y, rows, weights, bounds, draws, max_depth, min_leaf) -> list[Tree]:
    """Grow one tree per segment ``bounds[t]:bounds[t + 1]`` of
    ``rows`` (each tree's distinct training rows) and ``weights``
    (their multiplicities), in lockstep.  ``draws`` holds each tree's
    :class:`_FeatureDraws`, called once per node searched, in the
    tree's preorder, for that node's sorted feature subset: exactly the
    draws of ``rng.choice`` on the tree's generator, read from blocks of
    its 32-bit words.  Or it is None to try every feature at every node.

    Each tree keeps its own preorder with an explicit stack.  A node is
    a contiguous segment of ``rows`` and ``weights``, which a split
    partitions into left | right, and carries its weight (the sum of
    its multiplicities) and its weighted positives; its leaf value is
    their ratio.  The right child is pushed first, and a node's
    ``right`` is set when its right child is popped.
    """
    p = x.shape[1]
    ranks = _Ranks.of(x, y)
    all_features = np.arange(p)
    # per tree, its feature, right and value columns in preorder
    tables = [(array("i"), array("i"), array("d")) for _ in range(len(bounds) - 1)]
    # (start, stop, depth, weight, positives, parent whose right child this is, or -1);
    # a root weighs n, the size of every tree's sample
    stacks = [[(start, stop, 0, len(x), int(weights[start:stop] @ y[rows[start:stop]]), -1)]
              for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    while True:
        batch = []  # each tree's next node to search: (tree, start, stop, depth, weight, positives, features)
        for t, (stack, (feature, right, value)) in enumerate(zip(stacks, tables)):
            while stack:
                start, stop, depth, weight, pos, parent = stack.pop()
                if parent >= 0:
                    right[parent] = len(feature)
                feature.append(-1)
                right.append(0)
                value.append(pos / weight)
                if pos == 0 or pos == weight or depth >= max_depth or weight < 2 * min_leaf:
                    continue
                feats = all_features if draws is None else draws[t]()
                batch.append((t, start, stop, depth, weight, pos, feats))
                break
        if not batch:
            break
        for chunk in _chunks(batch, ranks.widths):
            for (t, start, stop, depth, weight, pos, _), split in zip(
                    chunk, _split_chunk(chunk, rows, weights, ranks, min_leaf)):
                if split is None:
                    continue
                f, threshold, left_rows, lw, lp = split
                feature, _, value = tables[t]
                at = len(feature) - 1  # the node just searched is its tree's last
                feature[at] = f
                value[at] = threshold
                stacks[t] += [(start + left_rows, stop, depth + 1, weight - lw, pos - lp, at),
                              (start, start + left_rows, depth + 1, lw, lp, -1)]
    return [Tree(feature=np.array(feature, dtype=np.intp), right=np.array(right, dtype=np.intp),
                 value=np.array(value, dtype=float)) for feature, right, value in tables]


@dataclass
class _Ranks:
    """Each feature's sorted distinct values (NaNs count as one, last),
    and each row's code ``2 * rank + label``, where rank is the index of
    its value among them."""

    codes: np.ndarray    # the code of row r in feature f, at f * n + r
    values: np.ndarray   # the distinct values, feature after feature
    offsets: np.ndarray  # where each feature's values start in ``values``
    widths: np.ndarray   # how many distinct values each feature has
    n: int

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "_Ranks":
        n, p = x.shape
        codes = np.empty((p, n), dtype=np.int64)
        values = []
        for f in range(p):
            distinct, rank = np.unique(x[:, f], return_inverse=True)
            codes[f] = 2 * rank + y
            values.append(distinct)
        widths = np.array([len(v) for v in values])
        return cls(codes.ravel(), np.concatenate(values), np.cumsum(widths) - widths, widths, n)


def _chunks(batch, widths):
    """``batch`` cut into runs of nodes whose (distinct row, drawn
    feature) keys and count bins stay within _SPLIT_KEYS and
    _SPLIT_BINS; a node too big for either is a run of its own."""
    feats = np.array([node[6] for node in batch])
    node_keys = [(node[2] - node[1]) * feats.shape[1] for node in batch]
    chunk, keys, bins = [], 0, 0
    for node, k, b in zip(batch, node_keys, widths[feats].sum(axis=1).tolist()):
        if chunk and (keys + k > _SPLIT_KEYS or bins + b > _SPLIT_BINS):
            yield chunk
            chunk, keys, bins = [], 0, 0
        chunk.append(node)
        keys += k
        bins += b
    yield chunk


def _split_chunk(chunk, rows, weights, ranks: _Ranks, min_leaf) -> list:
    """The best split of each node of ``chunk``, as (feature, threshold,
    left distinct rows, left weight, left weighted positives), or None
    where no threshold keeps a weight of ``min_leaf`` on both sides.
    Each split node's segment of ``rows`` and ``weights`` is
    partitioned into left | right, stably.
    """
    n = ranks.n
    sizes = np.array([node[2] - node[1] for node in chunk])
    feats = np.array([node[6] for node in chunk])
    m, k = feats.shape
    if k == 0:
        return [None] * m
    # the flat positions of the chunk's rows, node after node
    before = np.cumsum(sizes) - sizes
    shift = np.repeat(np.array([node[1] for node in chunk]) - before, sizes)
    r = rows[shift + np.arange(len(shift))]
    w = weights[shift + np.arange(len(shift))]
    split, feature, threshold, bound, lw, lp = _best_splits(
        ranks, r, w, sizes, np.array([node[4] for node in chunk], dtype=float),
        np.array([node[5] for node in chunk], dtype=float), feats, min_leaf)
    # partition by code: a value is <= the threshold exactly when its
    # rank is at most the boundary's, that is its code at most
    # 2 * rank + 1; a node without a split keeps its rows where they are
    node_feature = np.zeros(m, dtype=np.int64)
    node_feature[split] = feature
    node_bound = np.full(m, 2 * n, dtype=np.int64)
    node_bound[split] = 2 * bound + 1
    node = np.repeat(np.arange(m), sizes)
    left = np.take(ranks.codes, node_feature[node] * n + r) <= node_bound[node]
    # a left row goes after its node's earlier left rows, a right row
    # after all its node's left rows and its earlier right rows
    left_upto = np.cumsum(left)  # left rows up to each row, over the chunk
    left_end = left_upto[before + sizes - 1]
    n_left = np.diff(left_end, prepend=0)
    dest = np.where(left, left_upto - 1 - (left_end - n_left - before)[node],
                    np.arange(len(r)) - left_upto + left_end[node])
    dest += shift
    rows[dest] = r
    weights[dest] = w
    out = [None] * m
    for s, *found in zip(split.tolist(), feature.tolist(), threshold.tolist(),
                         n_left[split].tolist(), lw.tolist(), lp.tolist()):
        out[s] = tuple(found)
    return out


def _best_splits(ranks: _Ranks, r, w, sizes, weight, pos, feats, min_leaf):
    """For the nodes of a chunk, given as the distinct rows ``r`` and
    their multiplicities ``w``, node after node (node j has ``sizes[j]``
    of them, weighing ``weight[j]`` with ``pos[j]`` positives, and draws
    the features ``feats[j]``): the nodes that split, in order, and each
    one's feature, threshold, boundary rank, left weight and left
    weighted positives.

    A split's cost depends only on the weighted label counts on each
    side of a boundary between consecutive distinct values, so row
    order inside a node never matters.  One weighted bincount over the
    keys ``2 * bin + label``, with a run of bins per (node, drawn
    feature) pair and one bin per distinct value, gives every pair's
    counts per value at once; a segmented cumsum over the values present
    gives the left-side counts at every boundary.  The counts are
    float64 sums of integers far below 2**53, so they are exact, and
    every cost and tie is the one integer counts give.  This search
    holds the chunk's largest temporaries; they are dropped once used,
    and all of them before the caller partitions.
    """
    n = ranks.n
    m, k = feats.shape
    # pair j (node j // k, its (j % k)-th feature) counts value v in bin base[j] + rank(v)
    width = ranks.widths[feats].ravel()
    base = np.cumsum(width) - width
    key = np.repeat(feats * n, sizes, axis=0)
    key += r[:, None]
    key = np.take(ranks.codes, key)
    key += np.repeat(2 * base.reshape(m, k), sizes, axis=0)
    counts = np.bincount(key.ravel(), weights=np.repeat(w.astype(float), k),
                         minlength=2 * width.sum()).reshape(-1, 2)
    del key
    counts[:, 0] += counts[:, 1]  # from here on, each value's weight and weighted positives
    present = np.flatnonzero(counts[:, 0] > 0)  # a bool scan is several times faster
    cum_n = np.cumsum(counts[present, 0])
    cum_p = np.cumsum(counts[present, 1])
    del counts
    pair = np.searchsorted(base, present, side="right") - 1
    # a boundary follows present value c when the next one is of the same pair
    c = np.flatnonzero(pair[1:] == pair[:-1])
    pc = pair[c]
    # weight and positives of the pairs before pc: each pair covers its node once
    pair_n, pair_p = np.repeat(weight, k), np.repeat(pos, k)
    ln = cum_n[c] - (np.cumsum(pair_n) - pair_n)[pc]
    nn = pair_n[pc]
    keep = (ln >= min_leaf) & (nn - ln >= min_leaf)
    c, pc, ln, nn = c[keep], pc[keep], ln[keep], nn[keep]
    offset = (ranks.offsets[feats].ravel() - base)[pc]
    lo = ranks.values[present[c] + offset]
    hi = ranks.values[present[c + 1] + offset]
    with np.errstate(over="ignore", invalid="ignore"):
        threshold = (lo + hi) / 2.0
        # adjacent representable floats: the midpoint cannot separate them
        keep = (lo < threshold) & (threshold < hi)
    c, pc, ln, nn, threshold = c[keep], pc[keep], ln[keep], nn[keep], threshold[keep]
    lp = cum_p[c] - (np.cumsum(pair_p) - pair_p)[pc]
    rn, rp = nn - ln, pair_p[pc] - lp
    gini_l = 1.0 - (lp * lp + (ln - lp) * (ln - lp)) / (ln * ln)
    gini_r = 1.0 - (rp * rp + (rn - rp) * (rn - rp)) / (rn * rn)
    cost = (ln * gini_l + rn * gini_r) / nn
    # candidates come in (node, feature, threshold) order: a node's best
    # is its first candidate at its least cost, so the earliest feature,
    # then the lowest threshold
    node_c = pc // k
    first = np.flatnonzero(np.diff(node_c, prepend=-1))
    least = np.minimum.reduceat(cost, first) if len(cost) else cost  # reduceat needs one
    hit = np.flatnonzero(cost == np.repeat(least, np.diff(first, append=len(cost))))
    best = hit[np.flatnonzero(np.diff(node_c[hit], prepend=-1))]
    pb = pc[best]
    return (node_c[best], feats.ravel()[pb], threshold[best], present[c[best]] - base[pb],
            ln[best].astype(np.int64), lp[best].astype(np.int64))


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
    right = np.concatenate([t.right + root for t, root in zip(trees, roots)])
    value = np.concatenate([t.value for t in trees])
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
            go_left = block[rows[live], feature[at]] <= value[at]
            at = np.where(go_left, at + 1, right[at])
            node[live] = at
            live = live[feature[at] >= 0]
        for leaf_probs in value[node].reshape(len(trees), n):
            acc[start:start + n] += leaf_probs
    return acc / len(trees)


@dataclass
class RandomForest:
    """The ``rf`` member: bagged trees, scored by mean leaf probability."""

    kind = "rf"
    trees: list[Tree]

    @classmethod
    def fit(cls, x, y, params: dict, seed: int) -> "RandomForest":
        return cls(train_random_forest(
            x, y, n_trees=params["n_trees"], seed=seed, max_depth=params["max_depth"],
            min_leaf=params["min_leaf"],
        ))

    def scores(self, x) -> np.ndarray:
        return forest_predict_proba(self.trees, x)

    def to_payload(self) -> dict:
        return {"trees": [t.to_payload() for t in self.trees]}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "RandomForest":
        trees = [Tree.from_payload(t, width) for t in obj["trees"]]
        if not trees:
            raise CorruptPayload("a forest needs at least one tree")
        return cls(trees)


class DecisionTree(RandomForest):
    """The ``dt`` member: the one-tree forest of :func:`train_decision_tree`,
    scored as a forest; its model-file entry holds the tree under ``"tree"``."""

    kind = "dt"

    @classmethod
    def fit(cls, x, y, params: dict, seed: int) -> "DecisionTree":
        return cls([train_decision_tree(x, y, max_depth=params["max_depth"],
                                        min_leaf=params["min_leaf"])])

    def to_payload(self) -> dict:
        return {"tree": self.trees[0].to_payload()}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "DecisionTree":
        return cls([Tree.from_payload(obj["tree"], width)])


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
    # overflow or inf - inf here means divergence, reported as
    # NonFiniteLoss by the trainer rather than as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
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
    """The ``lr`` member: a logistic regression."""

    kind = "lr"
    weights: np.ndarray
    bias: float
    final_loss: float
    losses: list[float] = field(default_factory=list, repr=False)

    @classmethod
    def fit(cls, x, y, params: dict, seed: int) -> "LogisticModel":
        return train_logistic_regression(x, y, l2=params["l2"], lr=params["lr_rate"],
                                         epochs=params["lr_epochs"])

    def scores(self, x) -> np.ndarray:
        return _sigmoid(np.asarray(x, dtype=float) @ self.weights + self.bias)

    def to_payload(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias,
                "final_loss": self.final_loss}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "LogisticModel":
        loss = obj["final_loss"]
        if not (_is_number(loss) and math.isfinite(loss)):
            raise CorruptPayload(f"lr final_loss must be a finite number, got {loss!r}")
        return cls(
            weights=_finite(obj["weights"], "lr weights", (width,)),
            bias=float(_finite(obj["bias"], "lr bias", ())),
            final_loss=float(loss),
        )


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
        # a step that overflows shows as a non-finite loss next
        with np.errstate(over="ignore", invalid="ignore"):
            grad_w, grad_b = lr_gradient(w, b, x, y, l2)
            w = w - lr * grad_w
            b = b - lr * grad_b
    final = lr_loss(w, b, x, y, l2)
    if not math.isfinite(final):
        raise NonFiniteLoss(f"loss became {final} during training")
    losses.append(final)
    return LogisticModel(weights=w, bias=b, final_loss=final, losses=losses)


# --- k nearest neighbors ----------------------------------------------------

# doubles in one block of approximate distances (8 MB, and as much again
# for argpartition's row indices); a block holds _KNN_BLOCK // n queries,
# at least one
_KNN_BLOCK = 1 << 20
# rows kept per query beyond the k nearest by approximate distance
_KNN_SPARE = 27


def knn_scores(train_x, train_y, queries, k: int = 5) -> np.ndarray:
    """Positive fraction of the k nearest training rows of each query.

    Distance is the squared Euclidean ``E = ((q - x) ** 2).sum(axis=-1)``
    and equidistant points at the boundary are taken in row order, so
    the neighbours are the first k rows of a stable sort by E.

    Queries go in blocks, all held in one buffer.  One matmul gives
    ``(−2·q)·xᵀ`` for a block, and adding |x|² makes ``A′``; the
    approximate distance is ``A = A′ + |q|²``.  Scaling by 2 is exact,
    so this is the usual expansion in another summation order.  With
    u = eps/2 and S = |q|² + max|x|², the standard bounds for sums and
    dot products give ``|A − D| ≤ (2p + 4)·u·S`` in any summation order
    (the three length-p reductions and the two additions) and ``|E − D|
    ≤ (p + 2)·u·D ≤ (2p + 4)·u·S`` (a rounded difference, a rounded
    square and p − 1 additions, and D ≤ 2S) around the true distance
    D, so ``|A − E| ≤ δ = (2p + 4)·eps·S`` up to O(u²) terms.  Each
    product that underflows adds at most half the smallest subnormal,
    hence an absolute term of the same form.

    Let T be a query's k-th smallest A.  The k rows with A ≤ T have E ≤
    T + δ, so the k-th smallest E is at most T + δ, and any row with E
    at most that k-th smallest E has A ≤ T + 2δ.  The rows with A ≤ T
    + 2δ, where 2δ is taken as ``4(p + 3)·(eps·S + 2^-1074)`` (the slack
    absorbs the rounding of T + 2δ and the O(u²) terms), therefore
    include every row that can be among the k nearest.

    ``np.argpartition`` keeps the K = min(k + _KNN_SPARE, n) rows of
    smallest A′ per query.  A rounded addition of the same |q|² is
    monotone, so they are also K rows of smallest A, T is the k-th of
    their sorted A, and every other row has A at least the K-th.  When
    that K-th A is above T + 2δ (or K = n), the K rows hold every
    candidate; their E is computed with the same last-axis reduction as
    a full scan, so the values are bit-equal, and the first k by (E,
    row) are exactly the stable sort's first k.  Any other query keeps
    every row with A ≤ T + 2δ instead, and a query whose T + 2δ is not
    finite (an overflow or a NaN) keeps every row, which is the exact
    full scan.
    """
    return _knn_scores(*_knn_train(train_x, train_y, k), queries, k)


def _knn_train(train_x, train_y, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training rows as floats, their labels as ints and each row's
    |x|², for :func:`_knn_scores`; EmptyTrainSet when there are no rows
    or the labels are not one 0 or 1 per row, ValueError for a k that
    is not in 1..n."""
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y)
    n = len(train_x)
    if n == 0:
        raise EmptyTrainSet("no training rows")
    if train_y.shape != (n,) or not ((train_y == 0) | (train_y == 1)).all():
        raise EmptyTrainSet(f"{n} training rows need {n} labels of 0 or 1, got {train_y.shape}")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        xx = (train_x * train_x).sum(axis=1)
    return train_x, train_y.astype(int), xx


def _knn_scores(train_x, train_y, xx, queries, k: int) -> np.ndarray:
    """:func:`knn_scores` over the output of :func:`_knn_train`."""
    queries = np.asarray(queries, dtype=float)
    n = len(train_x)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.shape[1] != train_x.shape[1]:
        raise FeatureDimensionMismatch(
            f"train has {train_x.shape[1]} columns, query has {queries.shape[1]}"
        )
    out = np.empty(len(queries), dtype=float)
    p = train_x.shape[1]
    chunk = max(1, _KNN_BLOCK // n)
    kept = min(k + _KNN_SPARE, n)
    buf = np.empty((min(chunk, len(queries)), n))
    # a non-finite value only sends a query to the full scan
    with np.errstate(over="ignore", invalid="ignore"):
        xx_max = xx.max()
        for start in range(0, len(queries), chunk):
            q = queries[start:start + chunk]
            qq = (q * q).sum(axis=1)
            approx = np.matmul(-2.0 * q, train_x.T, out=buf[:len(q)])
            approx += xx
            rows = np.argpartition(approx, kept - 1, axis=1)[:, :kept]
            near = np.sort(np.take_along_axis(approx, rows, axis=1) + qq[:, None], axis=1)
            limit = near[:, k - 1] + 4 * (p + 3) * (np.finfo(float).eps * (qq + xx_max)
                                                    + np.finfo(float).smallest_subnormal)
            held = (near[:, -1] > limit) | (kept == n)
            rows = rows[held]
            exact = ((q[held, None, :] - train_x[rows]) ** 2).sum(axis=-1)
            order = np.lexsort((rows, exact), axis=1)[:, :k]
            nearest = np.take_along_axis(rows, order, axis=1)
            out[start + np.flatnonzero(held)] = train_y[nearest].sum(axis=1) / k
            rest = np.flatnonzero(~held)
            if len(rest):
                keep = approx[rest] + qq[rest, None] <= limit[rest, None]
                keep[~np.isfinite(limit[rest])] = True
                qi, ri = np.nonzero(keep)
                exact = ((q[rest[qi]] - train_x[ri]) ** 2).sum(axis=-1)
                order = np.lexsort((ri, exact, qi))
                # candidates come grouped by query; a group's first k are its nearest
                counts = np.bincount(qi, minlength=len(rest))
                first = np.cumsum(counts) - counts
                nearest = ri[order[first[:, None] + np.arange(k)]]
                out[start + rest] = train_y[nearest].sum(axis=1) / k
    return out


@dataclass
class NearestNeighbors:
    """The ``knn`` member: training rows and labels, scored by :func:`knn_scores`."""

    kind = "knn"
    x: np.ndarray
    y: np.ndarray
    k: int

    @classmethod
    def fit(cls, x, y, params: dict, seed: int) -> "NearestNeighbors":
        if not (1 <= params["knn_k"] <= len(x)):
            raise UsageError(f"knn_k must be in 1..{len(x)}")
        return cls(x.copy(), y.copy(), params["knn_k"])

    def __post_init__(self):
        # checked and |x|² taken once, when fitted or loaded, not per call
        self._train = _knn_train(self.x, self.y, self.k)

    def scores(self, x) -> np.ndarray:
        return _knn_scores(*self._train, x, self.k)

    def to_payload(self) -> dict:
        return {"x": _pack(self.x, "<f8"), "y": _pack(self.y, "|u1"), "k": self.k}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "NearestNeighbors":
        x = _finite(_unpack(obj["x"], "<f8", 2, "knn x"), "knn x", (None, width))
        y = _finite(_unpack(obj["y"], "|u1", 1, "knn y"), "knn y", (len(x),))
        k = obj["k"]
        if not ((y == 0) | (y == 1)).all():
            raise CorruptPayload("knn labels must be 0 or 1")
        if type(k) is not int or not 1 <= k <= len(x):
            raise CorruptPayload(f"knn k must be an integer in 1..{len(x)}, got {k!r}")
        return cls(x, y.astype(int), k)


# --- ensemble ---------------------------------------------------------------

MEMBERS = {cls.kind: cls for cls in (RandomForest, DecisionTree, NearestNeighbors, LogisticModel)}


def votes(scores) -> np.ndarray:
    """A member's vote per row: 1 (malicious) where its score is above
    0.5, else 0."""
    return (np.asarray(scores) > 0.5).astype(int)


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


DEFAULT_MODELS = tuple(MEMBERS)

DEFAULT_PARAMS = {
    "n_trees": 100,
    "max_depth": 12,
    "min_leaf": 5,
    "knn_k": 5,
    "l2": 1e-4,
    "lr_rate": 0.1,
    "lr_epochs": 500,
}

# the least usable value of each integer hyperparameter
_PARAM_MINIMUMS = {"n_trees": 1, "max_depth": 0, "min_leaf": 1, "knn_k": 1, "lr_epochs": 0}


def _is_number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _param_error(params: dict) -> str | None:
    """Why a set of hyperparameters is unusable, or None.  It must have
    the keys of ``DEFAULT_PARAMS``; the integer ones must be ints at or
    above their least usable value, and l2 and lr_rate finite numbers in
    range."""
    if params.keys() != DEFAULT_PARAMS.keys():
        return f"hyperparameters must be {sorted(DEFAULT_PARAMS)}, got {sorted(params)}"
    for name, least in _PARAM_MINIMUMS.items():
        value = params[name]
        if not (_is_number(value) and isinstance(value, int)):
            return f"{name} must be an integer, got {value!r}"
        if value < least:
            return f"{name} must be at least {least}, got {value}"
    l2, rate = params["l2"], params["lr_rate"]
    if not (_is_number(l2) and math.isfinite(l2) and l2 >= 0):
        return f"l2 must be finite and at least 0, got {l2!r}"
    if not (_is_number(rate) and math.isfinite(rate) and rate > 0):
        return f"lr_rate must be finite and above 0, got {rate!r}"
    return None


@dataclass
class EnsembleModel:
    """Trained members (instances of the classes in :data:`MEMBERS`)
    plus everything needed to score a raw 17-feature vector: the
    selected feature indices and the fitted standardizer."""

    members: list
    selected_features: list[int]
    standardizer: Standardizer
    seed: int
    params: dict

    def member_scores(self, x17) -> list[np.ndarray]:
        """Each member's scores, in member order, for the rows of the
        raw (n, 17) feature matrix ``x17``, or for one raw row."""
        x17 = np.asarray(x17, dtype=float)
        xs = self.standardizer.transform(x17[..., self.selected_features])
        return [member.scores(xs) for member in self.members]


def train_ensemble(
    x17,
    y,
    selected_features: list[int],
    models: tuple[str, ...] = DEFAULT_MODELS,
    seed: int = 0,
    **overrides,
) -> EnsembleModel:
    """Standardize the selected columns and train each requested member.

    ``x17`` is the raw (n, 17) matrix with NaN for absent entries.
    Hyperparameter overrides: n_trees, max_depth, min_leaf, knn_k, l2,
    lr_rate, lr_epochs.  ``seed`` and the indices must be integers (numpy
    ones are taken as ``int``, bools refused), and ``seed`` at least 0.
    """
    params = {**DEFAULT_PARAMS, **overrides}
    error = _param_error(params)
    if error:
        raise InvalidHyperparameter(error)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise UsageError(f"seed must be an integer of at least 0, got {seed!r}")
    seed = int(seed)
    if not models:
        raise UsageError("need at least one member model")
    for i, kind in enumerate(models):
        if kind not in MEMBERS:
            raise UsageError(f"unknown model kind {kind!r}")
        if kind in models[:i]:
            raise UsageError(f"model kind {kind!r} given more than once")
    x17 = np.asarray(x17, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(x17) == 0:
        raise EmptyData("no rows to train on")
    sel = list(selected_features)
    if not (sel and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                        for i in sel) and len(set(sel)) == len(sel)):
        raise UsageError(f"selected_features must be non-empty, unique integers, got {sel!r}")
    sel = [int(i) for i in sel]
    if min(sel) < 0 or max(sel) >= x17.shape[1]:
        raise FeatureDimensionMismatch(
            f"selected feature index out of range for {x17.shape[1]} columns"
        )
    standardizer = Standardizer.fit(x17[:, sel])
    xs = standardizer.transform(x17[:, sel])

    return EnsembleModel(
        members=[MEMBERS[kind].fit(xs, y, params, seed) for kind in models],
        selected_features=sel,
        standardizer=standardizer,
        seed=seed,
        params=params,
    )


def _raw_row(features) -> np.ndarray:
    row = features.to_row() if isinstance(features, FeatureVector) else list(features)
    return np.array(row, dtype=float)  # None, an absent value, converts to NaN


def combine_votes(member_scores: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Majority-vote labels and vote fractions from each member's
    scores, which vote as :func:`votes` says."""
    vote_sum = sum(votes(scores) for scores in member_scores)
    k = len(member_scores)
    return (vote_sum > k / 2).astype(int), vote_sum / k


def ensemble_scores(model: EnsembleModel, x17) -> tuple[np.ndarray, np.ndarray]:
    """Batch scoring: returns (labels, vote-fraction scores) for an
    (n, 17) raw feature matrix."""
    return combine_votes(model.member_scores(x17))


def ensemble_predict(model: EnsembleModel, features) -> tuple[int, float]:
    """Score one domain: majority-vote label plus the vote fraction
    (the fraction is only a ranking statistic for ROC purposes)."""
    row = _raw_row(features)
    if row.shape != (len(FEATURE_NAMES),):
        raise FeatureDimensionMismatch(
            f"expected {len(FEATURE_NAMES)} features, got an array of shape {row.shape}")
    labels, scores = ensemble_scores(model, row)
    return int(labels[0]), float(scores[0])


# --- serialization ----------------------------------------------------------

def _pack(arr, dtype: str) -> dict:
    """``arr`` as ``dtype`` (a little-endian or one-byte numpy type
    string) in a JSON object: its dtype, its shape and its bytes in
    base64."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return {"dtype": dtype, "shape": list(arr.shape),
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unpack(obj, dtype: str, ndim: int, what: str) -> np.ndarray:
    """The read-only array that :func:`_pack` stored as ``obj``.  Its
    stored dtype must equal ``dtype`` (which is never built from the
    file), its shape must be ``ndim`` non-negative integers, and its
    base64 must decode to exactly the bytes of that shape; anything
    else raises CorruptPayload."""
    if not isinstance(obj, dict) or obj.get("dtype") != dtype:
        raise CorruptPayload(f"{what} must be an array object of dtype {dtype}")
    shape, text = obj.get("shape"), obj.get("b64")
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(d) is int and d >= 0 for d in shape)):
        raise CorruptPayload(f"{what} shape must be {ndim} non-negative integers, got {shape!r}")
    if not isinstance(text, str):
        raise CorruptPayload(f"{what} b64 must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise CorruptPayload(f"{what} is not base64: {exc}") from exc
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise CorruptPayload(f"{what} holds {len(raw)} bytes, which do not fit shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _finite(value, what: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, in which None
    stands for any length of at least 1; otherwise CorruptPayload.
    Unless ``value`` is already an array, it must be a JSON number or a
    list of them."""
    if not isinstance(value, np.ndarray) and not (
            _is_number(value) or (isinstance(value, list) and all(map(_is_number, value)))):
        raise CorruptPayload(f"{what} must be JSON numbers")
    arr = np.asarray(value, dtype=float)
    if arr.ndim != len(shape) or any(
        got < 1 if want is None else got != want for got, want in zip(arr.shape, shape)
    ):
        raise CorruptPayload(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CorruptPayload(f"{what} is not finite")
    return arr


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
        "members": [{"kind": m.kind, **m.to_payload()} for m in model.members],
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
        members = []
        for obj in payload["members"]:
            # train_ensemble's rule: known kinds, each at most once
            if obj["kind"] not in MEMBERS or any(m.kind == obj["kind"] for m in members):
                raise CorruptPayload(f"unknown or repeated member kind {obj['kind']!r}")
            members.append(MEMBERS[obj["kind"]].from_payload(obj, width))
        if not members:
            raise CorruptPayload("a model needs at least one member")
        seed, params = payload["seed"], payload["params"]
        if type(seed) is not int:
            raise CorruptPayload(f"seed must be an integer, got {seed!r}")
        if not isinstance(params, dict):
            raise CorruptPayload(f"params must be an object, got {params!r}")
        error = _param_error(params)
        if error:
            raise CorruptPayload(f"params: {error}")
        return EnsembleModel(
            members=members,
            selected_features=selected,
            standardizer=Standardizer(**std),
            seed=seed,
            params=params,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptPayload(f"model payload missing or malformed field: {exc}") from exc
