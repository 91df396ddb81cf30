"""Input generator for the benchmark workloads.

    python3 gen.py --workload clean-cold --seed 3 --out DIR

writes every file the program is given, plus what the benchmark needs to
check the program's outputs:

* ``feed_malicious.csv`` (``domain,first_seen`` with a header) and
  ``feed_benign.csv`` (headerless ``rank,domain``): the labelled feeds;
* ``new_domains.txt``: the domains to triage, one per line;
* ``whois_records.json``: domain -> raw WHOIS text, served by the stub;
* ``warm_cache.jsonl``: the pre-filled WHOIS cache (``noisy-warm`` only);
* ``expected.json``: dataset size and, per domain, the dates the WHOIS
  record carries (``null`` where it carries none).

``clean-cold`` is the acceptance-gate set, ``make_benchmark`` at its
default seed, plus a seeded stream of COVID-themed new domains.
``noisy-warm`` draws ``make_benchmark`` rows from the seed and then
flips labels, makes the classes overlap in registration age, and strips
the dates from a share of WHOIS records.  The program's own generator is
only used for names, labels and dates; layouts and noise are applied here.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys

REFERENCE_DATE = dt.date(2020, 5, 16)
FEED_FROM = dt.date(2020, 3, 1)
FEED_TO = dt.date(2020, 7, 31)

# dataset rows and new domains per workload; the noise shares apply to
# noisy-warm only
SIZES = {"clean-cold": (5000, 400), "noisy-warm": (10000, 160)}
LABEL_FLIP = 0.06
OVERLAP = 0.10
WHOIS_GAPS = 0.10

REGISTRARS = {
    "popular": ("GoDaddy.com, LLC", "NameCheap, Inc.", "Google LLC", "MarkMonitor Inc."),
    "other": ("Tucows Domains Inc.", "Gandi SAS", "eNom, LLC", "Wild West Domains, LLC"),
    "bad": ("NameSilo, LLC", "Dynadot LLC", "Eranet International Limited"),
}

# registry layout per TLD; any TLD not listed uses the ISO layout
LAYOUT_BY_TLD = {
    **dict.fromkeys(("uk", "fr", "it", "tk", "gq", "cf", "ml", "ca", "de", "nl"), "dmy"),
    **dict.fromkeys(("ru", "wang"), "paid-till"),
}

ABUSED = ("live", "buzz", "gq", "tk", "fit", "cf", "ml", "wang", "top", "rest", "work")
GENERIC = ("com", "net", "org", "xyz", "ru", "uk", "fr", "it", "info")


def _iso(day: dt.date, rng) -> str:
    secs = int(rng.integers(0, 86400))
    return f"{day.isoformat()}T{secs // 3600:02d}:{secs // 60 % 60:02d}:{secs % 60:02d}Z"


def render_whois(domain: str, dates, registrar: str | None, layout: str, rng) -> str:
    """Raw WHOIS text for one domain in one registry layout.

    ``dates`` is (created, expires, updated), each a date or None; a
    None is written as a redacted value that carries no date.  The
    ``paid-till`` layout has no update field at all.
    """
    created, expires, updated = dates
    if layout == "no-match":
        return f'No match for "{domain.upper()}".\r\n'
    if layout == "iso":
        def fmt(day):
            return "REDACTED FOR PRIVACY" if day is None else _iso(day, rng)
        lines = [f"   Domain Name: {domain.upper()}",
                 "   Registry Domain ID: 2517399012_DOMAIN_COM-VRSN",
                 "   Registrar WHOIS Server: whois.example-registrar.com"]
        if registrar:
            lines.append(f"   Registrar: {registrar}")
        lines += [f"   Updated Date: {fmt(updated)}",
                  f"   Creation Date: {fmt(created)}",
                  f"   Registry Expiry Date: {fmt(expires)}",
                  "   Domain Status: clientTransferProhibited",
                  ">>> Last update of whois database: 2020-05-16T04:12:09Z <<<"]
    elif layout == "dmy":
        def fmt(day):
            return "redacted" if day is None else day.strftime("%d-%b-%Y")
        lines = [f"Domain name: {domain}"]
        if registrar:
            lines.append(f"Registrar: {registrar}")
        lines += [f"Registered on: {fmt(created)}",
                  f"Expiration Date: {fmt(expires)}",
                  f"Last-Update: {fmt(updated)}",
                  "Status: active"]
    elif layout == "paid-till":
        def fmt(day):
            return "hidden" if day is None else day.strftime("%Y.%m.%d")
        lines = ["% TCI Whois Service. Terms of use:",
                 "% https://tcinet.ru/documents/whois_ru_rf.pdf", "",
                 f"domain:        {domain.upper()}",
                 "state:         REGISTERED, DELEGATED, UNVERIFIED"]
        if registrar:
            lines.append(f"registrar:     {registrar}")
        lines += [f"created:       {fmt(created)}",
                  f"paid-till:     {fmt(expires)}",
                  "source:        TCI"]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return "\r\n".join(lines) + "\r\n"


def served_dates(dates, layout: str):
    """The dates a record in ``layout`` actually carries."""
    if layout == "no-match":
        return (None, None, None)
    if layout == "paid-till":
        return (dates[0], dates[1], None)
    return dates


def _registrar(category: str | None, rng) -> str | None:
    if category is None:
        return None
    names = REGISTRARS[category]
    return names[int(rng.integers(0, len(names)))]


def _category(features) -> str | None:
    if features.f15_reg_popular:
        return "popular"
    if features.f17_reg_bad:
        return "bad"
    if features.f16_reg_not_popular:
        return "other"
    return None


def _dates_from_features(features):
    ref = REFERENCE_DATE
    return (ref - dt.timedelta(days=features.f1_reg_age_days),
            ref + dt.timedelta(days=features.f2_expiry_days),
            ref - dt.timedelta(days=features.f3_update_age_days))


def _themed_names(n: int, taken: set[str], rng, boost: list[str], words: list[str]) -> list[str]:
    """COVID-themed new registrations: a boost word joined with wordlist
    words, sometimes hyphenated or numbered, over abused and generic TLDs."""
    out = []
    while len(out) < n:
        theme = boost[int(rng.integers(0, len(boost)))]
        picks = [words[int(i)] for i in rng.integers(0, len(words), size=2)]
        style = rng.random()
        if style < 0.35:
            label = theme + picks[0]
        elif style < 0.6:
            label = "-".join([theme] + picks)
        elif style < 0.8:
            label = picks[0] + theme
        else:
            label = theme + picks[0] + picks[1]
        if rng.random() < 0.1:
            label += "19"
        pool = ABUSED if rng.random() < 0.6 else GENERIC
        name = f"{label}.{pool[int(rng.integers(0, len(pool)))]}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def generate(workload: str, seed: int, out: str) -> None:
    import numpy as np

    from domaintriage.segment import LanguageModel
    from domaintriage.synthetic import make_benchmark

    n_rows, n_new = SIZES[workload]
    rng = np.random.default_rng([seed, 20200516])
    # one entry per domain: label (None for new domains), dates, registrar, layout
    entries: dict[str, dict] = {}

    if workload == "clean-cold":
        rows = make_benchmark(n_rows).rows
        for row in rows:
            layout = LAYOUT_BY_TLD.get(row.domain.tld, "iso")
            entries[row.domain.raw] = dict(
                label=row.label, dates=_dates_from_features(row.features),
                registrar=_registrar(_category(row.features), rng), layout=layout)
        lm = LanguageModel.default()
        words = [w for w in lm.words[:800] if len(w) >= 3]
        for name in _themed_names(n_new, set(entries), rng, lm.boosted, words):
            age = int(rng.integers(1, 41))
            created = REFERENCE_DATE - dt.timedelta(days=age)
            dates = (created,
                     created + dt.timedelta(days=int(rng.integers(365, 731))),
                     created + dt.timedelta(days=int(rng.integers(0, age + 1))))
            roll = rng.random()
            category = ("bad" if roll < 0.4 else "other" if roll < 0.7
                        else "popular" if roll < 0.9 else None)
            layout = "no-match" if rng.random() < 0.12 else LAYOUT_BY_TLD.get(name.rsplit(".", 1)[1], "iso")
            entries[name] = dict(label=None, dates=dates,
                                 registrar=_registrar(category, rng), layout=layout)
    else:
        rows = make_benchmark(n_rows + n_new, seed=seed).rows
        new_idx = set(rng.choice(len(rows), size=n_new, replace=False).tolist())
        for i, row in enumerate(rows):
            created, expires, updated = _dates_from_features(row.features)
            label = None if i in new_idx else row.label
            if label is not None and rng.random() < LABEL_FLIP:
                label = 1 - label
            if rng.random() < OVERLAP:
                age = int(rng.integers(20, 1501))
                created = REFERENCE_DATE - dt.timedelta(days=age)
                updated = created + dt.timedelta(days=int(rng.integers(0, age + 1)))
            dates = (created, expires, updated)
            layout = LAYOUT_BY_TLD.get(row.domain.tld, "iso")
            if rng.random() < WHOIS_GAPS:
                if rng.random() < 0.5:
                    layout = "no-match"
                else:
                    dates, layout = (None, None, None), "iso"
            entries[row.domain.raw] = dict(
                label=label, dates=dates,
                registrar=_registrar(_category(row.features), rng), layout=layout)

    os.makedirs(out, exist_ok=True)
    records = {}
    served = {}
    for name, e in entries.items():
        records[name] = render_whois(name, e["dates"], e["registrar"], e["layout"], rng)
        served[name] = [None if d is None else d.isoformat()
                        for d in served_dates(e["dates"], e["layout"])]

    malicious = [n for n, e in entries.items() if e["label"] == 1]
    benign = [n for n, e in entries.items() if e["label"] == 0]
    new = [n for n, e in entries.items() if e["label"] is None]
    span = (REFERENCE_DATE - FEED_FROM).days
    with open(os.path.join(out, "feed_malicious.csv"), "w", encoding="utf-8") as fh:
        fh.write("domain,first_seen\n")
        for name in malicious:
            seen = FEED_FROM + dt.timedelta(days=int(rng.integers(0, span)))
            fh.write(f"{name},{seen.isoformat()}\n")
    with open(os.path.join(out, "feed_benign.csv"), "w", encoding="utf-8") as fh:
        for rank, name in enumerate(benign, start=1):
            fh.write(f"{rank},{name}\n")
    with open(os.path.join(out, "new_domains.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{name}\n" for name in new))
    with open(os.path.join(out, "whois_records.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    if workload == "noisy-warm":
        with open(os.path.join(out, "warm_cache.jsonl"), "w", encoding="utf-8") as fh:
            for name, raw in records.items():
                fh.write(json.dumps({"domain": name, "fetched_on": REFERENCE_DATE.isoformat(),
                                     "raw": raw}, ensure_ascii=True) + "\n")
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"rows": len(malicious) + len(benign), "new": new, "served": served}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's input files.")
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
