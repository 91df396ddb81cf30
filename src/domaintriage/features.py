"""The 17 per-domain features.

Lexical features (f4..f11) come straight off the normalized name.
WHOIS day-count features (f1..f3) are measured against an explicit
reference date so extraction is reproducible; they are absent, not
zero, when WHOIS data is missing.  TLD category (f12..f14) and
registrar category (f15..f17) are one-hot encodings against editable
lists shipped as JSON defaults.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from domaintriage.model import Domain, EmptyInput, FeatureVector, WhoisRecord

VOWELS = frozenset("aeiou")
_ALNUM = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")

# corporate suffix tokens dropped from registrar names before matching
_CORP_SUFFIXES = frozenset({"inc", "llc", "ltd", "corp", "co", "gmbh", "sarl"})


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
    canonical_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        overlap = self.popular & self.bad
        if overlap:
            raise ValueError(f"registrars in both lists: {sorted(overlap)}")


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


def shannon_entropy(text: str) -> float:
    """Shannon entropy in bits over the frequencies of every character
    of ``text``, dots included."""
    if not text:
        raise EmptyInput("cannot take entropy of empty text")
    counts = Counter(text)
    n = len(text)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def lexical_features(domain: Domain) -> dict[str, float]:
    """Compute f4..f11 from the full normalized name."""
    raw = domain.raw
    f7 = sum("0" <= ch <= "9" for ch in raw)
    return {
        "f4": raw.count("."),
        "f5": shannon_entropy(raw),
        "f6": len(raw),
        "f7": f7,
        "f8": raw.count("-"),
        "f9": sum(ch in VOWELS for ch in raw),
        "f10": f7 / len(raw),
        "f11": len({ch for ch in raw if ch in _ALNUM}),
    }


def tld_features(domain: Domain, lists: TldLists | None = None) -> tuple[int, int, int]:
    """One-hot TLD category: (generic, unknown, abused)."""
    lists = lists or default_tld_lists()
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
    tokens = raw.lower().split()
    while tokens and tokens[-1].strip(".,;:") in _CORP_SUFFIXES:
        tokens.pop()
    cleaned = " ".join(tokens).rstrip(".,;: ")
    if not cleaned:
        return raw.lower().strip()
    for key in sorted(lists.canonical_map, key=len, reverse=True):
        if cleaned == key:
            return lists.canonical_map[key]
        if cleaned.startswith(key) and not cleaned[len(key)].isalnum():
            return lists.canonical_map[key]
    return cleaned


def registrar_features(
    record: WhoisRecord | None, lists: RegistrarLists | None = None
) -> tuple[int, int, int]:
    """One-hot registrar category of ``record.registrar_canonical``:
    (popular, not-popular, bad).

    The name was canonicalized when the record was made; ``lists`` only
    supplies the popular and bad lists.  All three are zero when the
    registrar is unknown; an unknown registrar is missing data, not
    evidence of a category.
    """
    if record is None or not record.registrar_canonical:
        return (0, 0, 0)
    lists = lists or default_registrar_lists()
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


def extract_all(
    domain: Domain,
    whois_record: WhoisRecord | None = None,
    tld_lists: TldLists | None = None,
    registrar_lists: RegistrarLists | None = None,
    reference_date: dt.date | None = None,
) -> FeatureVector:
    """Assemble the full 17-feature vector for one domain.

    ``reference_date`` defaults to today; pass a fixed date to make
    extraction reproducible.
    """
    if reference_date is None:
        reference_date = dt.date.today()
    f1, f2, f3 = whois_age_features(whois_record, reference_date)
    lex = lexical_features(domain)
    f12, f13, f14 = tld_features(domain, tld_lists)
    f15, f16, f17 = registrar_features(whois_record, registrar_lists)
    return FeatureVector(
        f1_reg_age_days=f1,
        f2_expiry_days=f2,
        f3_update_age_days=f3,
        f4_dots=int(lex["f4"]),
        f5_entropy=float(lex["f5"]),
        f6_length=int(lex["f6"]),
        f7_digits=int(lex["f7"]),
        f8_hyphens=int(lex["f8"]),
        f9_vowels=int(lex["f9"]),
        f10_digit_pct=float(lex["f10"]),
        f11_unique_alnum=int(lex["f11"]),
        f12_tld_generic=f12,
        f13_tld_unknown=f13,
        f14_tld_abused=f14,
        f15_reg_popular=f15,
        f16_reg_not_popular=f16,
        f17_reg_bad=f17,
    )
