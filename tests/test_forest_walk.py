"""The forest's scoring walk on its joined node table, against a
recursive walk, and the one-pass check of a forest's trees at load,
against a loader that checks one tree at a time."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domaintriage import learn
from domaintriage.learn import (
    CorruptPayload,
    DecisionTree,
    RandomForest,
    Tree,
    deserialize_model,
    forest_predict_proba,
    serialize_model,
    train_ensemble,
)
from oracles import forest_score_recursive

_THRESHOLDS = [-1.5, 0.0, 0.25, 2.0]


def _random_tree(rng, depth: int, p: int, deep: bool) -> Tree:
    """Preorder columns of a tree that splits on features 0..p-1 at one
    of ``_THRESHOLDS``, with leaf probabilities in quarters.  When
    ``deep``, one path of splits runs ``depth`` levels down; every other
    node above ``depth`` splits with probability 1/2."""
    feature, right, value = [], [], []

    def grow(d, spine):
        node = len(feature)
        if d == 0 or not (spine or rng.random() < 0.5):
            feature.append(-1)
            right.append(node)
            value.append(int(rng.integers(0, 5)) / 4)
            return
        feature.append(int(rng.integers(0, p)))
        right.append(-1)
        value.append(float(rng.choice(_THRESHOLDS)))
        spine_left = bool(rng.integers(0, 2))
        grow(d - 1, spine and spine_left)
        right[node] = len(feature)
        grow(d - 1, spine and not spine_left)

    grow(depth, deep)
    return Tree(feature=np.array(feature, dtype=np.intp), right=np.array(right, dtype=np.intp),
                value=np.array(value))


def _oracle_tables(trees) -> list[dict]:
    # the oracle walk reads ``threshold`` only at splits and ``prob``
    # only at leaves, so both can be the tree's ``value``
    return [{"feature": t.feature.tolist(), "right": t.right.tolist(),
             "threshold": t.value.tolist(), "prob": t.value.tolist()} for t in trees]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 30), n_deep=st.integers(1, 4),
       max_pairs=st.sampled_from([1, 7, learn._MAX_PAIRS]))
@example(seed=0, n_rows=0, n_deep=2, max_pairs=learn._MAX_PAIRS)
@example(seed=1, n_rows=1, n_deep=1, max_pairs=7)
@example(seed=2, n_rows=1, n_deep=3, max_pairs=1)
def test_walk_equals_recursive_walk(seed, n_rows, n_deep, max_pairs):
    # a single-leaf tree, trees whose deepest path is 12 levels and
    # shallower random ones, in a random order: the pairs of each tree
    # reach their leaves at different levels, so the live share falls
    # below half at different steps
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    trees = ([_random_tree(rng, 0, p, False)]
             + [_random_tree(rng, 12, p, True) for _ in range(n_deep)]
             + [_random_tree(rng, int(rng.integers(1, 6)), p, False) for _ in range(2)])
    trees = [trees[i] for i in rng.permutation(len(trees))]
    # values on the thresholds, either side of them, NaN and +-inf
    values = np.array(_THRESHOLDS + [-2.0, 0.1, 3.0, np.nan, np.inf, -np.inf])
    x = rng.choice(values, size=(n_rows, p))
    want = [forest_score_recursive(_oracle_tables(trees), row.tolist()) for row in x]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_MAX_PAIRS", max_pairs)
        assert forest_predict_proba(trees, x).tolist() == want
        assert RandomForest(trees).scores(x).tolist() == want


@pytest.fixture(scope="module")
def tree_members():
    """A model with an rf and a dt member, its bytes, and rows to score
    (NaN holes included)."""
    rng = np.random.default_rng(71)
    y = np.array([0, 1] * 60)
    x = rng.normal(size=(120, 17))
    x[:, 2] += y * 1.5
    x[:, 5] -= y
    x[rng.random(120) < 0.15, 2] = np.nan
    model = train_ensemble(x, y, [2, 5, 11], models=("rf", "dt"), seed=3, n_trees=9)
    return model, serialize_model(model), model.standardizer.transform(x[:, [2, 5, 11]])


def test_tree_members_score_as_forest_predict_proba(tree_members):
    model, blob, q = tree_members
    for members in (model.members, deserialize_model(blob).members):
        assert [type(m) for m in members] == [RandomForest, DecisionTree]
        for member in members:
            assert member.scores(q).tolist() == forest_predict_proba(member.trees, q).tolist()
        fresh = [RandomForest(members[0].trees), DecisionTree(members[1].trees)]
        for member, again in zip(members, fresh):
            assert again.scores(q).tolist() == member.scores(q).tolist()


def test_a_member_joins_its_node_table_once(tree_members, monkeypatch):
    model, blob, q = tree_members
    built = []
    join = learn._NodeTable.__init__

    def counted(self, *args):
        built.append(self)
        join(self, *args)

    monkeypatch.setattr(learn._NodeTable, "__init__", counted)
    fitted = [RandomForest(model.members[0].trees), DecisionTree(model.members[1].trees)]
    for member in fitted:  # built on the first scores call
        before = len(built)
        first = member.scores(q)
        assert len(built) == before + 1
        assert (member.scores(q) == first).all() and len(built) == before + 1
    loaded = deserialize_model(blob).members  # built by the loader, from the checked columns
    assert len(built) == 4
    for member in loaded:
        member.scores(q)
        member.scores(q[:1])
    assert len(built) == 4


# --- a forest with two bad trees -------------------------------------------

_COLUMNS = {"feature": "<i4", "right": "<i4", "value": "<f8"}


def _load_tree_by_tree(cls, obj: dict, width: int) -> RandomForest:
    """The forest loader that decodes and checks one tree at a time: the
    first bad tree, in tree order, raises for its first failed check."""
    trees = []
    for t in obj["trees"]:
        feature = learn._unpack(t["feature"], "<i4", 1, "tree feature").astype(np.intp)
        right = learn._unpack(t["right"], "<i4", 1, "tree right").astype(np.intp)
        value = learn._unpack(t["value"], "<f8", 1, "tree value")
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
        trees.append(Tree(feature=feature, right=right, value=value))
    if not trees:
        raise CorruptPayload("a forest needs at least one tree")
    return cls(trees)


def _with_columns(tree: dict, edit) -> None:
    """Apply ``edit`` to the decoded columns of ``tree`` and pack them again."""
    columns = {k: learn._unpack(tree[k], dtype, 1, k).copy() for k, dtype in _COLUMNS.items()}
    edit(columns)
    tree.update((k, learn._pack(columns[k], dtype)) for k, dtype in _COLUMNS.items())


def _set(column: str, index: int, number):
    return lambda c: c[column].__setitem__(index, number)


# value checks, each with the start of its message; the root is a split
# and the last node in preorder a leaf
_VALUE_ERRORS = {
    "value not finite": (_set("value", 0, np.nan), "tree value is not finite"),
    "probability": (_set("value", -1, 1.5), "tree probability outside"),
    "feature": (_set("feature", 0, 3), "tree feature index outside"),
    "child": (_set("right", 0, 0), "tree child index does not follow"),
}

# columns that do not decode, or do not match
_DECODE_ERRORS = {
    "not base64": lambda t: t["feature"].update(b64="!!!!"),
    "column missing": lambda t: t.pop("right"),
    "not an array object": lambda t: t.update(value=None),
    "unequal lengths": lambda t: _with_columns(t, lambda c: c.update(value=c["value"][:-1])),
}


def _load_message(blob: bytes) -> str:
    with pytest.raises(CorruptPayload) as raised:
        deserialize_model(blob)
    return str(raised.value)


def _tree_by_tree_message(blob: bytes) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RandomForest, "from_payload", classmethod(_load_tree_by_tree))
        return _load_message(blob)


@pytest.mark.parametrize("value_error", _VALUE_ERRORS, ids=list(_VALUE_ERRORS))
@pytest.mark.parametrize("decode_error", _DECODE_ERRORS, ids=list(_DECODE_ERRORS))
@pytest.mark.parametrize("value_first", [True, False], ids=["value first", "decode first"])
def test_forest_with_two_bad_trees_reports_the_first(tree_members, value_error, decode_error,
                                                     value_first):
    payload = json.loads(tree_members[1])
    trees = payload["members"][0]["trees"]
    edit, value_message = _VALUE_ERRORS[value_error]
    value_tree, decode_tree = (1, 6) if value_first else (6, 1)
    assert trees[value_tree] != trees[decode_tree]
    _with_columns(trees[value_tree], edit)
    _DECODE_ERRORS[decode_error](trees[decode_tree])
    blob = json.dumps(payload).encode()
    want = _tree_by_tree_message(blob)
    assert (value_message in want) == value_first
    assert _load_message(blob) == want


@pytest.mark.parametrize("first, second", [
    ("probability", "value not finite"), ("child", "feature"), ("feature", "probability"),
    ("value not finite", "child"),
])
def test_forest_with_two_bad_values_reports_the_first_tree(tree_members, first, second):
    # the later tree fails a check that comes earlier in a tree's order
    payload = json.loads(tree_members[1])
    trees = payload["members"][0]["trees"]
    _with_columns(trees[2], _VALUE_ERRORS[first][0])
    _with_columns(trees[3], _VALUE_ERRORS[second][0])
    blob = json.dumps(payload).encode()
    assert _load_message(blob) == _tree_by_tree_message(blob)
    assert _load_message(blob).startswith(_VALUE_ERRORS[first][1])
