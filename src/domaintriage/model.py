"""Core data types shared by every stage of the pipeline.

A *domain* here is always the registrable name as it appeared in a feed,
normalized just enough to compare entries across feeds: lowercased, with
any URL scheme and path stripped.  Labels are integers throughout:
1 = malicious, 0 = benign.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field


class DomainTriageError(Exception):
    """Base class for every error raised by this package.  ``exit_code``
    is the command line's exit status for it: 1, a runtime failure."""

    exit_code = 1


class UsageError(DomainTriageError, ValueError):
    """An option, or a file that one names, is unusable (exit code 2).
    It is also a ``ValueError``, so a library caller's ``except
    ValueError`` catches it."""

    exit_code = 2


class EmptyInput(DomainTriageError):
    """Raised when an operation received an empty string where text is required."""


class IllegalCharacter(DomainTriageError):
    """Raised when a domain string still contains whitespace or control characters."""


_SCHEMES = ("http://", "https://")

# whitespace (``str.isspace``), C0 controls and DEL
_illegal_char = re.compile(r"[\s\x00-\x1f\x7f]").search


def normalize_domain(raw: str) -> str:
    """The normalized name :func:`parse_domain` returns as ``Domain.raw``.

    Normalization: surrounding whitespace is trimmed, the string is
    lowercased, a leading ``http://`` / ``https://`` is removed, and
    anything from the first ``/`` onward is dropped.  What is left must
    be non-empty and free of whitespace and control characters.
    """
    text = raw.strip()
    if not text:
        raise EmptyInput("domain string is empty")
    text = text.lower()
    for scheme in _SCHEMES:
        if text.startswith(scheme):
            text = text[len(scheme):]
            break
    slash = text.find("/")
    if slash != -1:
        text = text[:slash]
    if not text:
        raise EmptyInput(f"nothing left of {raw!r} after stripping scheme and path")
    bad = _illegal_char(text)
    if bad:
        raise IllegalCharacter(f"illegal character {bad.group()!r} in {raw!r}")
    return text


def parse_domain(raw: str) -> "Domain":
    """Normalize ``raw`` (see :func:`normalize_domain`) into a :class:`Domain`.

    The normalized name is split at its *last* dot into label part and
    TLD; a dotless name (``localhost``) keeps everything in the label
    part and gets an empty TLD.  Parsing an already-parsed
    ``Domain.raw`` is a no-op.
    """
    text = normalize_domain(raw)
    dot = text.rfind(".")
    if dot == -1:
        return Domain(raw=text, label_part=text, tld="")
    return Domain(raw=text, label_part=text[:dot], tld=text[dot + 1:])


@dataclass(frozen=True)
class Domain:
    """A normalized domain name.

    ``raw`` is the full normalized name; ``label_part`` is everything
    before the last dot and ``tld`` everything after it, so for a
    dotted name ``raw == label_part + "." + tld`` holds.
    """

    raw: str
    label_part: str
    tld: str


@dataclass(frozen=True)
class WhoisRecord:
    """Dates and registrar pulled out of one WHOIS response.

    Date and registrar fields may be ``None``: absent means the response
    did not carry a parseable value, and downstream features must treat
    that as missing rather than substituting a sentinel number.
    """

    domain: Domain
    fetched_on: dt.date
    created: dt.date | None = None
    expires: dt.date | None = None
    updated: dt.date | None = None
    registrar_raw: str | None = None
    registrar_canonical: str | None = None

    def __post_init__(self):
        if self.created is not None and self.expires is not None:
            if self.created > self.expires:
                raise ValueError(
                    f"{self.domain.raw}: created {self.created} after expiry {self.expires}"
                )
        if (self.registrar_raw is None) != (self.registrar_canonical is None):
            raise ValueError("registrar_raw and registrar_canonical must be set together")


#: Column names used for the 17-feature vector in CSV files, in order.
FEATURE_NAMES = tuple(f"f{i}" for i in range(1, 18))


@dataclass(frozen=True)
class FeatureVector:
    """The 17 per-domain features, in their fixed order.

    f1..f3 are day counts relative to a reference date and are ``None``
    when WHOIS data was unavailable; everything else is always present.
    f12..f14 one-hot encode the TLD category and f15..f17 the registrar
    category (all three zero when the registrar is unknown).
    """

    f1_reg_age_days: int | None
    f2_expiry_days: int | None
    f3_update_age_days: int | None
    f4_dots: int
    f5_entropy: float
    f6_length: int
    f7_digits: int
    f8_hyphens: int
    f9_vowels: int
    f10_digit_pct: float
    f11_unique_alnum: int
    f12_tld_generic: int
    f13_tld_unknown: int
    f14_tld_abused: int
    f15_reg_popular: int
    f16_reg_not_popular: int
    f17_reg_bad: int

    @classmethod
    def from_row(cls, row: list[float]) -> "FeatureVector":
        """The vector of 17 floats in f1..f17 order, NaN marking an absent
        f1..f3: the inverse of a row of ``LabeledDataset.feature_matrix``."""
        return cls(*(v if j in (4, 9) else None if v != v else int(v)
                     for j, v in enumerate(row)))

    def to_row(self) -> list[float | None]:
        """Return the features as a 17-element list in f1..f17 order."""
        return [
            self.f1_reg_age_days,
            self.f2_expiry_days,
            self.f3_update_age_days,
            self.f4_dots,
            self.f5_entropy,
            self.f6_length,
            self.f7_digits,
            self.f8_hyphens,
            self.f9_vowels,
            self.f10_digit_pct,
            self.f11_unique_alnum,
            self.f12_tld_generic,
            self.f13_tld_unknown,
            self.f14_tld_abused,
            self.f15_reg_popular,
            self.f16_reg_not_popular,
            self.f17_reg_bad,
        ]


@dataclass(frozen=True)
class DatasetRow:
    """One labeled domain, optionally carrying its feature vector."""

    domain: Domain
    label: int
    source: str = ""
    first_seen: dt.date | None = None
    features: FeatureVector | None = None


@dataclass
class LabeledDataset:
    """An ordered collection of labeled rows."""

    rows: list[DatasetRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def labels(self) -> list[int]:
        return [r.label for r in self.rows]

    def feature_matrix(self):
        """Return ``(X, y)`` where X is an (n, 17) float array with NaN
        marking absent values, and y is the int label vector.

        Requires every row to carry features.
        """
        import numpy as np

        n = len(self.rows)
        x = np.empty((n, len(FEATURE_NAMES)), dtype=float)
        y = np.empty(n, dtype=int)
        for i, row in enumerate(self.rows):
            if row.features is None:
                raise ValueError(f"row {i} ({row.domain.raw}) has no features")
            vals = row.features.to_row()
            x[i] = [np.nan if v is None else float(v) for v in vals]
            y[i] = row.label
        return x, y
