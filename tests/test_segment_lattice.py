"""The word-lattice segmentation against the tuple DP it replaced, and
the word-list parsing rules."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domaintriage.model import UsageError
from domaintriage.segment import LanguageModel, _read_words, segment_keywords
from oracles import segment_chunk_tuples

PACKAGED = LanguageModel.default()
PACKAGED_WORDS = PACKAGED.boosted + PACKAGED.words


def _tuple_dp(label: str, model) -> list[str]:
    return [w for chunk in re.split(r"[.-]", label) if chunk
            for w in segment_chunk_tuples(chunk, model)]


@st.composite
def small_cases(draw):
    """Up to 6 words of 1-3 letters over a two- or three-letter alphabet,
    a boosted subset, and a label over those letters (plus a letter in
    no word and a separator for the larger alphabet): splits of equal
    cost and count are common, so the tie rules decide many of them."""
    letters, alphabet = draw(st.sampled_from([("ab", "ab"), ("abc", "abcd-")]))
    words = draw(st.lists(st.text(letters, min_size=1, max_size=3), max_size=6, unique=True))
    boosted = draw(st.lists(st.sampled_from(words), unique=True)) if words else []
    label = draw(st.text(alphabet, max_size=14))
    return LanguageModel(words=words, boosted=boosted), label


@settings(max_examples=600, deadline=None)
@given(small_cases())
@example((LanguageModel(words=[]), "abab-ba"))
@example((LanguageModel(words=["ab"]), "abaabbab"))
@example((LanguageModel(words=["a"]), "aabaaba-ab"))
def test_small_vocabularies_equal_tuple_dp(case):
    model, label = case
    assert segment_keywords(label, model) == _tuple_dp(label, model)


@pytest.mark.parametrize("word, labels", [
    ("ab", ["abxab", "xxabab", "ab" * 40 + "x", "x" * 30 + "ab"]),
    # a tie that a split starting with an unknown run wins, found only
    # past an end whose run alone costs more than the best so far
    ("aa", ["aaa", "xaaaaa"]),
    ("aba", ["ababa"]),
])
def test_one_word_vocabulary_costs_less_than_zero(word, labels):
    # the case where an unknown run alone does not bound the total
    model = LanguageModel(words=[word])
    assert model.word_cost(word) < 0
    for label in labels:
        assert segment_keywords(label, model) == _tuple_dp(label, model)


_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(_ALNUM, max_size=30),
    st.lists(st.one_of(st.sampled_from(PACKAGED_WORDS), st.text(_ALNUM + "-.", max_size=3)),
             max_size=8).map("".join).filter(lambda s: len(s) <= 30),
))
def test_packaged_vocabulary_equals_tuple_dp(label):
    assert segment_keywords(label, PACKAGED) == _tuple_dp(label, PACKAGED)


def test_long_label_equals_tuple_dp():
    rng = random.Random(25)
    parts = []
    while sum(map(len, parts)) < 1000:
        if rng.random() < 0.7:
            parts.append(rng.choice(PACKAGED_WORDS))
        else:
            parts.append("".join(rng.choice(_ALNUM) for _ in range(rng.randint(1, 6))))
    label = "".join(parts)[:1000]
    assert segment_keywords(label, PACKAGED) == _tuple_dp(label, PACKAGED)


def test_word_with_trailing_newline_is_rejected():
    with pytest.raises(UsageError):
        LanguageModel(words=["mask\n", "covid"])
    with pytest.raises(UsageError):
        LanguageModel(words=["covid"], boosted=["mask\n"])


def test_word_lines_end_at_newline_only():
    assert _read_words("ab\r\ncd\n\n  ef \n") == ["ab", "cd", "ef"]
    for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        with pytest.raises(UsageError, match="^line 2: "):
            _read_words(f"ab\ncd{sep}ef\n")
