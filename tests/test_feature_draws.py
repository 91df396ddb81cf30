"""A forest's feature draws against numpy's ``Generator.choice``, which
they replace call for call, and the checks on ``max_features`` and the
forest's other hyperparameters.

numpy does not promise the same ``Generator`` stream across versions
(NEP 19), so these tests are what flags a numpy that draws differently;
such a numpy would change every forest."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domaintriage import learn
from domaintriage.learn import InvalidHyperparameter, _feature_draws, train_random_forest
from domaintriage.model import UsageError
from oracles import floyd_choices_from_words


def _pair(seed: int, bootstrap: int):
    """Two generators of one seed, each after the same bootstrap draw of
    ``bootstrap`` rows."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        if bootstrap:
            rng.integers(0, bootstrap, size=bootstrap)
    return rngs


def _assert_draws_equal_choice(rng, twin, p, mf, calls):
    draws = _feature_draws(rng, p, mf)
    for _ in range(calls):
        want = np.sort(twin.choice(p, mf, replace=False))
        got = next(draws)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def draw_cases(draw):
    p = draw(st.one_of(st.integers(1, 64), st.sampled_from([10000, 10001])))
    # small subsets, any subset, and the sizes either side of numpy's
    # switch from Floyd to a tail shuffle (mf > p // 50 when p > 10000)
    mf = draw(st.one_of(st.integers(0, min(p - 1, 70)), st.integers(0, p - 1),
                        st.sampled_from([p // 50, p // 50 + 1]).filter(lambda m: m < p)))
    block = draw(st.sampled_from([1, 3, 7, learn._DRAW_BLOCK]))
    return (draw(st.integers(0, 2**32)), p, mf, draw(st.integers(0, 300)), block,
            draw(st.integers(1, 2 * block + 3)))


@settings(max_examples=300, deadline=None)
@given(draw_cases())
@example((0, 10001, 200, 7, 3, 5))  # Floyd
@example((0, 10001, 201, 7, 3, 5))  # a tail shuffle
@example((1, 10000, 64, 0, learn._DRAW_BLOCK, 130))
def test_draws_equal_numpy_choice(case):
    seed, p, mf, bootstrap, block, calls = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_DRAW_BLOCK", block)
        _assert_draws_equal_choice(*_pair(seed, bootstrap), p, mf, calls)


def test_draws_equal_numpy_choice_for_every_subset_size():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_DRAW_BLOCK", 2)
        for p in range(1, 65):
            for mf in range(p):
                _assert_draws_equal_choice(*_pair(p * 100 + mf, 2 * p + 1), p, mf, calls=5)


def test_oracle_equals_numpy_choice():
    for p, mf, seed in ((2, 1, 0), (17, 5, 1), (64, 63, 2), (10001, 200, 3)):
        rng, twin = _pair(seed, 9)
        words = twin.integers(0, 2**32, size=40 * (2 * mf - 1), dtype=np.uint32).tolist()
        for got in floyd_choices_from_words(words, p, mf):
            assert got == np.sort(rng.choice(p, mf, replace=False)).tolist()


# numpy's PCG64: a 128-bit LCG state, stepped before each 64-bit output,
# which is XSL-RR of the new state; a 32-bit word is the output's low
# half, then its high half
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = (1 << 64) - 1


def _plant(rng, q: int, word: int) -> None:
    """Set ``rng``'s state so that the q-th 32-bit word it gives next
    (from 0) is ``word``."""
    state = rng.bit_generator.state
    k = q - state["has_uint32"]  # a buffered high half comes first
    if k < 0:
        state["uinteger"] = word
    else:
        outputs, high = divmod(k, 2)
        out = (word << 32 | 0x9E3779B9) if high else (0x7F4A7C15 << 32 | word)
        hi = 0x5851F42D4C957F2D
        rot = hi >> 58
        s = hi << 64 | (hi ^ ((out << rot | out >> (64 - rot)) & _M64))
        inc = state["state"]["inc"]
        for _ in range(outputs + 1):
            s = (s - inc) * pow(_MULT, -1, 1 << 128) % (1 << 128)
        state["state"]["state"] = s
    rng.bit_generator.state = state


def test_plant_puts_the_word_in_the_stream():
    for bootstrap in (0, 1, 2):
        for q in range(5):
            (rng, _) = _pair(3, bootstrap)
            _plant(rng, q, 0xDEADBEEF)
            assert rng.integers(0, 2**32, size=q + 1, dtype=np.uint32)[q] == 0xDEADBEEF


@pytest.mark.parametrize("column", [1, 7], ids=["floyd-column", "shuffle-column"])
@pytest.mark.parametrize("call", [0, 61, learn._DRAW_BLOCK - 1, learn._DRAW_BLOCK + 5],
                         ids=["first-call", "middle-call", "last-call", "later-block"])
def test_rejected_word_falls_back_to_numpys_steps(column, call):
    # p = 17, mf = 5: a call reads 9 words, Floyd's with r = 13..17 and
    # then the shuffle's with r = 5..2.  Word 0 is rejected for any r
    # that is not a power of two, here r = 14 (Floyd) or 3 (shuffle)
    p, mf = 17, 5
    r = [13, 14, 15, 16, 17, 5, 4, 3, 2][column]
    assert (0 * r) & 0xFFFFFFFF < (1 << 32) % r
    rng, twin = _pair(7, 101)
    _plant(rng, call * (2 * mf - 1) + column, 0)
    twin.bit_generator.state = rng.bit_generator.state
    words = np.random.Generator(np.random.PCG64())
    words.bit_generator.state = rng.bit_generator.state
    replica = floyd_choices_from_words(words.integers(0, 2**32, size=10_000, dtype=np.uint32).tolist(), p, mf)
    draws = _feature_draws(rng, p, mf)
    for _ in range(call + 2 * learn._DRAW_BLOCK + 10):  # on past two more blocks' worth
        got = next(draws).tolist()
        assert got == next(replica) == np.sort(twin.choice(p, mf, replace=False)).tolist()
    # from the rejected word on, the tree's generator is read as numpy's
    # own calls read it: no word read ahead, none skipped
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("bad", [True, 2.5, -1, np.float64(2.0), "2"])
def test_max_features_is_checked_before_any_draw(bad):
    x = np.arange(20, dtype=float).reshape(10, 2)
    y = np.ones(10, dtype=int)  # every root is pure, so no node is searched
    with pytest.raises(InvalidHyperparameter, match="max_features") as raised:
        train_random_forest(x, y, n_trees=3, max_features=bad)
    assert isinstance(raised.value, UsageError)


@pytest.mark.parametrize("bad", [
    {"n_trees": 0}, {"n_trees": 2.5}, {"n_trees": True}, {"seed": -1}, {"seed": 1.5},
    {"seed": np.bool_(False)}, {"min_leaf": 0}, {"max_depth": -1},
], ids=lambda bad: "%s=%r" % next(iter(bad.items())))
def test_forest_hyperparameters_are_checked_before_any_draw(bad, monkeypatch):
    def drawn(*args):
        raise AssertionError("a bootstrap was drawn before the hyperparameters were checked")

    monkeypatch.setattr(learn, "_samples", drawn)
    x = np.arange(20, dtype=float).reshape(10, 2)
    y = np.array([0, 1] * 5)
    (name, _), = bad.items()
    with pytest.raises(InvalidHyperparameter, match=name):
        train_random_forest(x, y, **{"n_trees": 3, **bad})


def test_forest_hyperparameters_take_numpy_integers():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 4))
    y = (x[:, 1] + rng.normal(size=80) > 0).astype(int)
    params = {"n_trees": 4, "seed": 2, "max_depth": 3, "min_leaf": 2}
    want = train_random_forest(x, y, **params)
    got = train_random_forest(x, y, **{k: np.int32(v) for k, v in params.items()})
    assert [t.to_payload() for t in got] == [t.to_payload() for t in want]


def test_max_features_takes_numpy_integers():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 6))
    y = (x[:, 0] + rng.normal(size=120) > 0).astype(int)
    want = train_random_forest(x, y, n_trees=6, max_features=2, seed=3)
    got = train_random_forest(x, y, n_trees=6, max_features=np.int64(2), seed=3)
    assert [t.to_payload() for t in got] == [t.to_payload() for t in want]


def test_max_features_zero_keeps_root_leaves():
    # no feature to split on: each tree is its root, a leaf holding its
    # bootstrap sample's share of positives
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 3))
    y = (x[:, 0] > 0).astype(int)
    trees = train_random_forest(x, y, n_trees=4, max_features=0, seed=11)
    for i, tree in enumerate(trees):
        drawn = np.random.default_rng(11 + i).integers(0, 50, size=50)
        assert tree.feature.tolist() == [-1] and tree.right.tolist() == [0]
        assert tree.value.tolist() == [y[drawn].sum() / 50]
