"""Split run-together domain labels into dictionary words.

Cost model over a frequency-ranked vocabulary: a word at rank r (1 =
most frequent, counted after boost words are injected at the front)
costs ln(r * ln(N + 1)) where N is the vocabulary size, and a maximal
run of L characters matching no word costs L * (10 + ln(N + 1)), which
is expensive enough that any in-vocabulary split beats leaving
characters unmatched.  Dots and hyphens are hard separators: each part
between them is segmented on its own.

The segmentation minimizes total cost; ties go to fewer words, then to
the lexicographically smaller word sequence.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from domaintriage.model import UsageError

_WORD_RE = re.compile(r"^[a-z]+$")
_SEPARATORS = re.compile(r"[.-]")


def _read_words(text: str) -> list[str]:
    words = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        word = line.strip()
        if not word:
            continue
        if not _WORD_RE.match(word):
            raise UsageError(f"line {lineno}: {word!r} is not lowercase a-z")
        if word in seen:
            raise UsageError(f"line {lineno}: duplicate word {word!r}")
        seen.add(word)
        words.append(word)
    return words


def _read_word_file(path: str) -> list[str]:
    """:func:`_read_words` of the UTF-8 file at ``path``; a file that is
    not UTF-8 or holds a bad word raises a UsageError naming ``path``."""
    try:
        return _read_words(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, UsageError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


@dataclass
class LanguageModel:
    """A ranked wordlist with theme words boosted to the front.

    ``words`` is the base list in ascending rank order; ``boosted``
    words get ranks 1..B and any base occurrence of them is dropped,
    so ranks stay unique.
    """

    words: list[str]
    boosted: list[str] = field(default_factory=list)

    def __post_init__(self):
        boost_set = set(self.boosted)
        if len(boost_set) != len(self.boosted):
            raise UsageError("duplicate words in boost list")
        vocab = list(self.boosted) + [w for w in self.words if w not in boost_set]
        if len(set(vocab)) != len(vocab):
            raise UsageError("duplicate words in base list")
        for w in vocab:
            if not _WORD_RE.match(w):
                raise UsageError(f"{w!r} is not lowercase a-z")
        n = len(vocab)
        scale = math.log(n + 1)
        self._cost = {w: math.log(rank * scale) for rank, w in enumerate(vocab, start=1)}
        self._oov_char_cost = 10.0 + scale
        self._max_len = max((len(w) for w in vocab), default=0)
        self._size = n

    @property
    def size(self) -> int:
        return self._size

    def word_cost(self, word: str) -> float | None:
        """Cost of ``word``, or ``None`` when out of vocabulary."""
        return self._cost.get(word)

    def oov_cost(self, length: int) -> float:
        return length * self._oov_char_cost

    @classmethod
    def from_files(cls, wordlist_path: str, boost_path: str | None = None) -> "LanguageModel":
        words = _read_word_file(wordlist_path)
        boosted = _read_word_file(boost_path) if boost_path else []
        return cls(words=words, boosted=boosted)

    @classmethod
    def default(cls) -> "LanguageModel":
        base = resources.files("domaintriage.data").joinpath("wordlist.txt").read_text("utf-8")
        boost = resources.files("domaintriage.data").joinpath("boost.txt").read_text("utf-8")
        return cls(words=_read_words(base), boosted=_read_words(boost))


# a segmentation candidate: total cost, word count, then the words
# themselves, so tuple comparison is exactly the tie-break order
_Entry = tuple[float, int, tuple[str, ...]]


def _segment_chunk(chunk: str, model: LanguageModel) -> list[str]:
    """Minimum-cost split of one separator-free chunk.

    Suffix DP with two states per position: the best completion
    starting anywhere (``best_any``) and the best completion whose
    first piece is a vocabulary word (``best_voc``).  An OOV run may
    only be followed by a vocabulary word or the end of the string,
    which is what makes OOV runs maximal.
    """
    n = len(chunk)
    empty: _Entry = (0.0, 0, ())
    best_any: list[_Entry | None] = [None] * (n + 1)
    best_voc: list[_Entry | None] = [None] * (n + 1)
    best_any[n] = best_voc[n] = empty

    for i in range(n - 1, -1, -1):
        voc: _Entry | None = None
        limit = min(n, i + model._max_len)
        for j in range(i + 1, limit + 1):
            piece = chunk[i:j]
            cost = model.word_cost(piece)
            if cost is None:
                continue
            tail = best_any[j]
            if tail is None:
                continue
            cand = (cost + tail[0], 1 + tail[1], (piece,) + tail[2])
            if voc is None or cand < voc:
                voc = cand
        best_voc[i] = voc
        best = voc
        for j in range(i + 1, n + 1):
            piece = chunk[i:j]
            if model.word_cost(piece) is not None:
                continue
            tail = best_voc[j]
            if tail is None:
                continue
            cand = (model.oov_cost(j - i) + tail[0], 1 + tail[1], (piece,) + tail[2])
            if best is None or cand < best:
                best = cand
        best_any[i] = best

    result = best_any[0]
    assert result is not None  # an all-OOV run is always available
    return list(result[2])


def segment_keywords(label_part: str, model: LanguageModel | None = None) -> list[str]:
    """Split a domain label into its most plausible word sequence.

    Parts between dots or hyphens never merge into one word; the
    returned list is the concatenation of each part's split.
    """
    if model is None:
        model = LanguageModel.default()
    words: list[str] = []
    for chunk in _SEPARATORS.split(label_part):
        if chunk:
            words.extend(_segment_chunk(chunk, model))
    return words
