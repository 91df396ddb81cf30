"""The 17 per-domain features.

Lexical features (f4..f11) come straight off the normalized name.
WHOIS day-count features (f1..f3) are measured against an explicit
reference date so extraction is reproducible; they are absent, not
zero, when WHOIS data is missing.  TLD category (f12..f14) and
registrar category (f15..f17) are one-hot encodings against the lists
packaged as ``data/tlds.json`` and ``data/registrars.json``.

:func:`extract_matrix` computes the features of many domains at once;
the lexical ones come from one numpy pass per block of names, equal bit
for bit to the per-name formulas.  :func:`extract_all` is its one-row
case.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from domaintriage.model import (
    FEATURE_NAMES,
    Domain,
    EmptyInput,
    FeatureVector,
    WhoisRecord,
)

VOWELS = frozenset("aeiou")

# corporate suffix tokens dropped from registrar names before matching
_CORP_SUFFIXES = frozenset({"inc", "llc", "ltd", "corp", "co", "gmbh", "sarl"})

# names per block of the lexical kernel: a block is one row per name,
# as wide as its longest name
_LEX_BLOCK = 1024

# distinct raw registrar names one RegistrarLists remembers the
# canonical form of
_REGISTRAR_MEMO = 4096


@dataclass(frozen=True)
class TldLists:
    """Generic vs. abused TLD membership lists."""

    generic: frozenset[str]
    abused: frozenset[str]

    def __post_init__(self):
        overlap = self.generic & self.abused
        if overlap:
            raise ValueError(f"TLDs in both lists: {sorted(overlap)}")


@dataclass(frozen=True)
class RegistrarLists:
    """Popular vs. bad registrar lists plus the name-canonicalization map.

    ``canonical_map`` maps a lowercase name prefix to the canonical
    registrar name used in the membership lists.
    """

    popular: frozenset[str]
    bad: frozenset[str]
    canonical_map: Mapping[str, str] = field(default_factory=dict)
    # the map's keys, longest first, and canonical names already worked
    # out by raw name; the map is read-only, so neither goes stale
    _keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _canonical: dict[str, str] = field(init=False, repr=False, compare=False,
                                       default_factory=dict)

    def __post_init__(self):
        overlap = self.popular & self.bad
        if overlap:
            raise ValueError(f"registrars in both lists: {sorted(overlap)}")
        mapping = MappingProxyType(dict(self.canonical_map))
        object.__setattr__(self, "canonical_map", mapping)
        object.__setattr__(self, "_keys", tuple(sorted(mapping, key=len, reverse=True)))


def _load_packaged(name: str) -> str:
    return resources.files("domaintriage.data").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def default_tld_lists() -> TldLists:
    data = json.loads(_load_packaged("tlds.json"))
    return TldLists(generic=frozenset(data["generic"]), abused=frozenset(data["abused"]))


@lru_cache(maxsize=1)
def default_registrar_lists() -> RegistrarLists:
    data = json.loads(_load_packaged("registrars.json"))
    return RegistrarLists(
        popular=frozenset(data["popular"]),
        bad=frozenset(data["bad"]),
        canonical_map=dict(data["canonical_map"]),
    )


def _lexical_block(names: list[str], lengths: np.ndarray) -> np.ndarray:
    """f4..f11 of a block of names of the given lengths, one row each.

    The names are a matrix of code points, padded with 0; each code is
    shifted up by one first, so a NUL in a name stays apart from the
    padding.  A stable sort of each row brings every distinct character's
    run together, with its first position, so each entropy term
    ``(c/n)·log2(c/n)`` can sit at that position in a row of zeros.  A
    cumulative sum along that row then adds the terms left to right in
    first-occurrence order, as ``sum`` over a ``Counter`` does; ``log2``
    comes from ``math.log2``, because numpy's may differ in the last bit.
    """
    width = int(lengths.max())
    codes = np.array(names, dtype=f"<U{width}").view(np.uint32).reshape(len(names), width)
    keys = np.where(np.arange(width) < lengths[:, None], codes + 1, 0)
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=1)
    first = ranked != 0
    first[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
    rows, cols = np.nonzero(first)
    # padding sorts first, so each row's last run ends at the row's end
    ends = np.where(np.append(rows[1:] == rows[:-1], False), np.append(cols[1:], width), width)
    share = (ends - cols) / lengths[rows]
    distinct, which = np.unique(share, return_inverse=True)
    log2 = np.array([math.log2(p) for p in distinct.tolist()])
    terms = np.zeros(keys.shape)
    terms[rows, order[rows, cols]] = share * log2[which]
    digits = ((codes >= ord("0")) & (codes <= ord("9"))).sum(axis=1)
    # ``ranked`` holds shifted codes: "0" is ord("0") + 1
    alnum = (((ranked > ord("0")) & (ranked <= ord("9") + 1))
             | ((ranked > ord("a")) & (ranked <= ord("z") + 1)))
    return np.column_stack([
        (codes == ord(".")).sum(axis=1),
        -np.cumsum(terms, axis=1, out=terms)[:, -1],
        lengths,
        digits,
        (codes == ord("-")).sum(axis=1),
        np.isin(codes, [ord(ch) for ch in VOWELS]).sum(axis=1),
        digits / lengths,
        (first & alnum).sum(axis=1),
    ])


def _lexical_matrix(names: Sequence[str]) -> np.ndarray:
    """The (n, 8) float array of f4..f11 of ``names``, in blocks of at
    most ``_LEX_BLOCK`` names of similar length, so that a long name
    widens only its own block."""
    lengths = np.fromiter(map(len, names), dtype=np.intp, count=len(names))
    if not lengths.all():
        raise EmptyInput("cannot take entropy of empty text")
    out = np.empty((len(names), 8))
    by_length = np.argsort(lengths, kind="stable")
    for start in range(0, len(names), _LEX_BLOCK):
        block = by_length[start:start + _LEX_BLOCK]
        out[block] = _lexical_block([names[i] for i in block.tolist()], lengths[block])
    return out


def shannon_entropy(text: str) -> float:
    """Shannon entropy in bits over the frequencies of every character
    of ``text``, dots included."""
    return float(_lexical_matrix([text])[0, 1])


def tld_features(domain: Domain) -> tuple[int, int, int]:
    """One-hot TLD category: (generic, unknown, abused)."""
    lists = default_tld_lists()
    if domain.tld in lists.generic:
        return (1, 0, 0)
    if domain.tld in lists.abused:
        return (0, 0, 1)
    return (0, 1, 0)


def canonicalize_registrar(raw: str, lists: RegistrarLists | None = None) -> str:
    """Normalize a registrar name so differently-written entries for the
    same company compare equal.

    Lowercases, drops trailing corporate suffix tokens (inc, llc, ltd,
    corp, co, gmbh, sarl) and trailing punctuation, collapses runs of
    whitespace, then looks for the longest ``canonical_map`` prefix that
    ends on a word boundary.  Names matching no prefix pass through
    cleaned.
    """
    lists = lists or default_registrar_lists()
    canonical = lists._canonical.get(raw)
    if canonical is None:
        canonical = _canonicalize(raw, lists)
        if len(lists._canonical) < _REGISTRAR_MEMO:
            lists._canonical[raw] = canonical
    return canonical


def _canonicalize(raw: str, lists: RegistrarLists) -> str:
    tokens = raw.lower().split()
    while tokens and tokens[-1].strip(".,;:") in _CORP_SUFFIXES:
        tokens.pop()
    cleaned = " ".join(tokens).rstrip(".,;: ")
    if not cleaned:
        return raw.lower().strip()
    for key in lists._keys:
        if cleaned == key:
            return lists.canonical_map[key]
        if cleaned.startswith(key) and not cleaned[len(key)].isalnum():
            return lists.canonical_map[key]
    return cleaned


def registrar_features(record: WhoisRecord | None) -> tuple[int, int, int]:
    """One-hot registrar category of ``record.registrar_canonical``:
    (popular, not-popular, bad).

    The name was canonicalized when the record was made; this only looks
    it up in the popular and bad lists.  All three are zero when the
    registrar is unknown; an unknown registrar is missing data, not
    evidence of a category.
    """
    if record is None or not record.registrar_canonical:
        return (0, 0, 0)
    lists = default_registrar_lists()
    if record.registrar_canonical in lists.popular:
        return (1, 0, 0)
    if record.registrar_canonical in lists.bad:
        return (0, 0, 1)
    return (0, 1, 0)


def whois_age_features(
    record: WhoisRecord | None, reference_date: dt.date
) -> tuple[int | None, int | None, int | None]:
    """Day counts against the reference date: (age, days-to-expiry,
    days-since-update).

    A created/updated date after the reference date, or an expiry
    before it, yields absent rather than a negative count.
    """
    if record is None:
        return (None, None, None)
    f1 = f2 = f3 = None
    if record.created is not None and record.created <= reference_date:
        f1 = (reference_date - record.created).days
    if record.expires is not None and record.expires >= reference_date:
        f2 = (record.expires - reference_date).days
    if record.updated is not None and record.updated <= reference_date:
        f3 = (reference_date - record.updated).days
    return (f1, f2, f3)


def extract_matrix(
    domains: Sequence[Domain],
    records: Iterable[WhoisRecord | None],
    reference_date: dt.date,
) -> np.ndarray:
    """The (n, 17) float array of the features of ``domains``, f1..f17 in
    columns, with NaN where a feature is absent.

    ``records`` holds the WHOIS record of each domain in turn, or
    ``None`` where there is none; it is read once, so it may be a
    generator that parses each record only when it is needed.  Day
    counts are taken against ``reference_date``.
    """
    def whois_values():
        for record in records:
            for v in (whois_age_features(record, reference_date)
                      + registrar_features(record)):
                yield math.nan if v is None else v

    n = len(domains)
    # the records first, so that what they hold can be freed before the
    # lexical pass
    whois = np.fromiter(whois_values(), dtype=float)
    if whois.size != 6 * n:
        raise ValueError(f"{n} domains need {n} WHOIS records (or None), "
                         f"got {whois.size // 6}")
    x = np.empty((n, len(FEATURE_NAMES)))
    if n:
        x[:, [0, 1, 2, 14, 15, 16]] = whois.reshape(n, 6)
        x[:, 3:11] = _lexical_matrix([domain.raw for domain in domains])
        x[:, 11:14] = [tld_features(domain) for domain in domains]
    return x


def extract_all(
    domain: Domain,
    whois_record: WhoisRecord | None = None,
    reference_date: dt.date | None = None,
) -> FeatureVector:
    """Assemble the full 17-feature vector for one domain: the one-row
    case of :func:`extract_matrix`.

    ``reference_date`` defaults to today; pass a fixed date to make
    extraction reproducible.
    """
    if reference_date is None:
        reference_date = dt.date.today()
    row = extract_matrix([domain], [whois_record], reference_date)
    return FeatureVector.from_row(row[0].tolist())
