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

The search runs over the word lattice of each part, whose nodes are
the cuts where a word can start.  The scan for words at a cut ends at
the first piece that no word starts with (a table holds every prefix
of every word).  An unknown run ends where a word starts or at the end
of the part, and the scan over those ends stops once the run alone
costs more than the best split found so far.  That stop is exact when
no word costs less than 0, which holds for every vocabulary of two or
more words; a one-word vocabulary, whose word costs ln(ln 2) < 0,
scans every end.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from domaintriage.model import UsageError

_WORD_RE = re.compile(r"[a-z]+")
_SEPARATORS = re.compile(r"[.-]")


def _read_words(text: str) -> list[str]:
    """The words of ``text``, one per line; lines end at ``\n`` only."""
    words = []
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        word = line.strip()
        if not word:
            continue
        if not _WORD_RE.fullmatch(word):
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


def _packaged_words(name: str) -> list[str]:
    return _read_words(resources.files("domaintriage.data").joinpath(name).read_text("utf-8"))


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
        # one pass over all the letters; the regex only names the bad word
        letters = "".join(vocab)
        if vocab and not (all(vocab) and letters.isascii() and letters.isalpha()
                          and letters.islower()):
            bad = next(w for w in vocab if not _WORD_RE.fullmatch(w))
            raise UsageError(f"{bad!r} is not lowercase a-z")
        n = len(vocab)
        scale = math.log(n + 1)
        costs = [math.log(rank * scale) for rank in range(1, n + 1)]
        # every proper prefix of a word maps to None, every word to its
        # cost; a key's shorter prefixes are always keys too
        table: dict[str, float | None] = {}
        for w in vocab:
            for k in range(len(w) - 1, 0, -1):
                if w[:k] in table:
                    break
                table[w[:k]] = None
        table.update(zip(vocab, costs))
        self._cost = table
        self._oov_char_cost = 10.0 + scale
        # the unknown-run bound in _segment_chunk needs word costs >= 0
        self._bounded = min(costs, default=0.0) >= 0.0
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
    def from_files(cls, wordlist_path: str | None, boost_path: str | None = None) -> "LanguageModel":
        """The wordlist at ``wordlist_path`` (the packaged one when it is
        None) with the words at ``boost_path``, if any, boosted."""
        words = _read_word_file(wordlist_path) if wordlist_path else _packaged_words("wordlist.txt")
        boosted = _read_word_file(boost_path) if boost_path else []
        return cls(words=words, boosted=boosted)

    @classmethod
    def default(cls) -> "LanguageModel":
        return cls(words=_packaged_words("wordlist.txt"), boosted=_packaged_words("boost.txt"))


def _segment_chunk(chunk: str, model: LanguageModel) -> list[str]:
    """Minimum-cost split of one separator-free chunk.

    Suffix DP over the word lattice, with two states per position i:
    the best split of ``chunk[i:]`` (``any``) and the best whose first
    piece is a vocabulary word (``voc``).  An unknown run may only be
    followed by a word or the end, which keeps unknown runs maximal.
    Each state is a cost, a word count and the cut after its first
    piece; the words are read back along the cuts at the end.

    Costs are ``word_cost + tail`` and ``oov_cost(j - i) + tail``, so
    totals are bit-equal to folding the pieces from the right.  Every
    candidate at i starts with a different prefix of ``chunk[i:]``,
    and the shorter of two prefixes is the smaller string, so on equal
    (cost, count) the word-tuple order prefers the nearer cut.
    """
    n = len(chunk)
    table = model._cost
    per_char = model._oov_char_cost
    bounded = model._bounded
    any_cost, any_count, any_cut = [0.0] * (n + 1), [0] * (n + 1), [n] * (n + 1)
    voc_cost, voc_count, voc_cut = [0.0] * (n + 1), [0] * (n + 1), [n] * (n + 1)
    # positions where a word starts, and n, in descending order
    starts = [n]
    for i in range(n - 1, -1, -1):
        best = None
        ends = []
        for j in range(i + 1, n + 1):
            cost = table.get(chunk[i:j], False)
            if cost is False:  # no word starts with this piece
                break
            if cost is None:
                continue
            ends.append(j)
            total = cost + any_cost[j]
            count = any_count[j] + 1
            if best is None or total < best or (total == best and count < best_count):
                best, best_count, best_cut = total, count, j
        if ends:
            voc_cost[i], voc_count[i], voc_cut[i] = best, best_count, best_cut
        for j in reversed(starts):
            if j in ends:
                continue
            run = (j - i) * per_char
            # with every tail cost >= 0, fl(run + tail) >= run, and run
            # only grows with j: no later cut can reach the best
            if bounded and best is not None and run > best:
                break
            total = run + voc_cost[j]
            count = voc_count[j] + 1
            if best is None or total < best or (total == best and (
                    count < best_count or (count == best_count and j < best_cut))):
                best, best_count, best_cut = total, count, j
        any_cost[i], any_count[i], any_cut[i] = best, best_count, best_cut
        if ends:
            starts.append(i)

    words = []
    i = 0
    while i < n:
        j = any_cut[i]
        words.append(chunk[i:j])
        if j < n and table.get(words[-1]) is None:  # an unknown run: a word follows
            words.append(chunk[j:voc_cut[j]])
            j = voc_cut[j]
        i = j
    return words


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
