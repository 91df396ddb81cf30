"""Seeded benchmark generator.

Builds a labeled dataset whose two classes mimic the shape of real
feed data: malicious domains are young registrations (WHOIS lifetime
1-60 days) with random-looking high-entropy names and a 50% chance of
an abused TLD; benign domains are old registrations (700-5000 days)
with dictionary-word names and a 90% chance of a generic TLD.  Every
row goes through the real feature extractor, so the benchmark
exercises the same code path as production data.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from domaintriage.features import (
    RegistrarLists,
    TldLists,
    canonicalize_registrar,
    default_registrar_lists,
    default_tld_lists,
    extract_matrix,
)
from domaintriage.model import (
    DatasetRow,
    Domain,
    FeatureVector,
    LabeledDataset,
    WhoisRecord,
    parse_domain,
)
from domaintriage.segment import LanguageModel

DEFAULT_SEED = 20200516
DEFAULT_REFERENCE_DATE = dt.date(2020, 5, 16)

_UNKNOWN_TLDS = ("io", "dev", "app", "co", "me", "biz", "us", "ca", "de", "nl")

_POPULAR_REGISTRARS = (
    "GoDaddy.com, LLC",
    "NameCheap, Inc.",
    "Google LLC",
    "MarkMonitor Inc.",
    "Network Solutions, LLC",
    "OVH sas",
    "Hostinger, UAB",
)

_BAD_REGISTRARS = (
    "NameSilo, LLC",
    "Dynadot LLC",
    "GMO Internet, Inc.",
    "Eranet International Limited",
    "Shinjiru Technology Sdn Bhd",
)

_OTHER_REGISTRARS = (
    "Tucows Domains Inc.",
    "Wild West Domains, LLC",
    "eNom, LLC",
    "PDR Ltd. d/b/a PublicDomainRegistry.com",
    "Gandi SAS",
)

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def _random_label(rng: np.random.Generator) -> str:
    """A DGA-style random string, occasionally hyphenated."""
    length = int(rng.integers(10, 26))
    chars = [_ALNUM[i] for i in rng.integers(0, len(_ALNUM), size=length)]
    if length > 6 and rng.random() < 0.15:
        cut = int(rng.integers(2, length - 2))
        chars[cut] = "-"
    label = "".join(chars).strip("-")
    return label or "x"


def _word_label(rng: np.random.Generator, words: list[str]) -> str:
    """One or two dictionary words, like an ordinary site name."""
    k = 1 if rng.random() < 0.4 else 2
    picks = [words[int(i)] for i in rng.integers(0, len(words), size=k)]
    sep = "-" if rng.random() < 0.1 else ""
    label = sep.join(picks)
    if rng.random() < 0.08:
        label += str(int(rng.integers(1, 100)))
    return label


def _pick(rng: np.random.Generator, options: tuple[str, ...]) -> str:
    return options[int(rng.integers(0, len(options)))]


def make_benchmark(
    n_rows: int = 5000,
    seed: int = DEFAULT_SEED,
    reference_date: dt.date = DEFAULT_REFERENCE_DATE,
    malicious_fraction: float = 0.5,
    tld_lists: TldLists | None = None,
    registrar_lists: RegistrarLists | None = None,
) -> LabeledDataset:
    """Generate the seeded labeled benchmark dataset.

    Deterministic for a given (n_rows, seed, reference_date); all rows
    carry complete WHOIS-derived features.
    """
    tld_lists = tld_lists or default_tld_lists()
    registrar_lists = registrar_lists or default_registrar_lists()
    generic = tuple(sorted(tld_lists.generic))
    abused = tuple(sorted(tld_lists.abused))
    words = LanguageModel.default().words[:800]

    rng = np.random.default_rng(seed)
    n_malicious = round(n_rows * malicious_fraction)
    labeled: list[tuple[Domain, int, WhoisRecord]] = []
    taken: set[str] = set()

    for i in range(n_rows):
        label = 1 if i < n_malicious else 0
        for _ in range(100):
            if label == 1:
                name = _random_label(rng)
                if rng.random() < 0.5:
                    tld = _pick(rng, abused)
                elif rng.random() < 0.5:
                    tld = _pick(rng, generic)
                else:
                    tld = _pick(rng, _UNKNOWN_TLDS)
                lifetime = int(rng.integers(1, 61))
            else:
                name = _word_label(rng, words)
                tld = _pick(rng, generic) if rng.random() < 0.9 else _pick(rng, _UNKNOWN_TLDS)
                lifetime = int(rng.integers(700, 5001))
            raw = f"{name}.{tld}"
            if raw not in taken:
                taken.add(raw)
                break
        else:
            raise RuntimeError("could not generate a unique domain name")

        domain = parse_domain(raw)
        roll = rng.random()
        if label == 1:
            if roll < 0.35:
                registrar = _pick(rng, _BAD_REGISTRARS)
            elif roll < 0.55:
                registrar = _pick(rng, _OTHER_REGISTRARS)
            elif roll < 0.65:
                registrar = _pick(rng, _POPULAR_REGISTRARS)
            else:
                registrar = None
        else:
            if roll < 0.60:
                registrar = _pick(rng, _POPULAR_REGISTRARS)
            elif roll < 0.90:
                registrar = _pick(rng, _OTHER_REGISTRARS)
            else:
                registrar = None

        created = reference_date - dt.timedelta(days=lifetime)
        expires = reference_date + dt.timedelta(days=int(rng.integers(30, 731)))
        updated = created + dt.timedelta(days=int(rng.integers(0, lifetime + 1)))
        record = WhoisRecord(
            domain=domain,
            fetched_on=reference_date,
            created=created,
            expires=expires,
            updated=updated,
            registrar_raw=registrar,
            registrar_canonical=(
                canonicalize_registrar(registrar, registrar_lists)
                if registrar is not None else None
            ),
        )
        labeled.append((domain, label, record))

    domains, labels, records = zip(*labeled) if labeled else ((), (), ())
    x = extract_matrix(domains, records, reference_date, tld_lists, registrar_lists)
    return LabeledDataset(rows=[
        DatasetRow(domain=domain, label=label, source="synthetic",
                   features=FeatureVector.from_row(row))
        for domain, label, row in zip(domains, labels, x.tolist())
    ])
