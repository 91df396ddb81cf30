"""Checks of the program's outputs against computations made here.

Each check appends a message to ``errors`` for every mismatch it finds.
Nothing here calls the program's feature, metric or search code: day
counts use civil-calendar arithmetic, lexical features are recounted,
AUC is the Mann-Whitney rank statistic, and segmentations are compared
with an exhaustive search over every cut.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter

_SEP = re.compile(r"[.-]")
_ALNUM = set("abcdefghijklmnopqrstuvwxyz0123456789")


def days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 in the proleptic Gregorian calendar."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    mp = month + (-3 if month > 2 else 9)
    doy = (153 * mp + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _day(iso: str) -> int:
    y, m, d = (int(p) for p in iso.split("-"))
    return days_from_civil(y, m, d)


def read_features_csv(path: str):
    """(reference date, rows) with rows as (domain, label, 17 cells)."""
    ref = None
    with open(path, newline="", encoding="utf-8") as fh:
        lines = []
        for line in fh:
            if line.startswith("# reference_date="):
                ref = line.split("=", 1)[1].strip()
            elif not line.startswith("#"):
                lines.append(line)
    reader = csv.reader(lines)
    next(reader)
    return ref, [(r[0], int(r[1]), r[2:]) for r in reader if r]


def matrix(rows):
    """Raw 17-column float rows, NaN for blank cells."""
    return [[float(c) if c else math.nan for c in cells] for _, _, cells in rows]


def check_features(path: str, served: dict, tlds: dict, errors: list) -> None:
    """f1-f3 against the served dates, f4-f11 recounted from the name,
    f12-f14 against the packaged TLD lists."""
    ref_iso, rows = read_features_csv(path)
    ref = _day(ref_iso)
    generic, abused = set(tlds["generic"]), set(tlds["abused"])
    bad = 0
    for domain, _, cells in rows:
        created, expires, updated = served[domain]
        want = [None if created is None else ref - _day(created),
                None if expires is None else _day(expires) - ref,
                None if updated is None else ref - _day(updated)]
        got = [None if c == "" else float(c) for c in cells[:3]]
        n = len(domain)
        counts = Counter(domain)
        digits = sum(ch.isdigit() for ch in domain)
        lexical = [domain.count("."),
                   -math.fsum(c / n * math.log2(c / n) for c in counts.values()),
                   n, digits, domain.count("-"), sum(ch in "aeiou" for ch in domain),
                   digits / n, len(set(domain) & _ALNUM)]
        tld = domain.rsplit(".", 1)[-1]
        onehot = [float(tld in generic), float(tld not in generic and tld not in abused),
                  float(tld in abused)]
        values = [float(c) for c in cells[3:14]]
        ok = (got == want
              and all(math.isclose(a, b, rel_tol=0, abs_tol=1e-9)
                      for a, b in zip(values[:8], lexical))
              and values[8:] == onehot)
        if not ok:
            bad += 1
            if bad <= 3:
                errors.append(f"extract: {domain}: f1-f3 {got} vs served {want}, "
                              f"f4-f14 {values} vs {lexical + onehot}")
    if bad:
        errors.append(f"extract: {bad} of {len(rows)} rows disagree")


def mann_whitney_auc(scores, labels) -> float:
    """P(score of a positive > score of a negative), ties counting half,
    from average ranks."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    rank_sum = math.fsum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def tallies(labels, predicted):
    tp = sum(1 for y, p in zip(labels, predicted) if y == 1 and p == 1)
    tn = sum(1 for y, p in zip(labels, predicted) if y == 0 and p == 0)
    fp = sum(1 for y, p in zip(labels, predicted) if y == 0 and p == 1)
    fn = sum(1 for y, p in zip(labels, predicted) if y == 1 and p == 0)
    return ((tp + tn) / len(labels),
            fp / (fp + tn) if fp + tn else None,
            fn / (fn + tp) if fn + tp else None)


def _close(a, b, tol):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def check_report(report: dict, labels, scores_by_member: dict, errors: list) -> None:
    """Every report row against tallies and the Mann-Whitney AUC of the
    scores it was computed from (member scores, and for the ensemble
    the vote fraction)."""
    for row in report["reports"]:
        name = row["classifier"]
        scores = scores_by_member[name]
        # for the ensemble, a vote fraction above 0.5 is a strict majority
        predicted = [1 if s > 0.5 else 0 for s in scores]
        acc, fpr, fnr = tallies(labels, predicted)
        auc = mann_whitney_auc(scores, labels)
        for what, got, want, tol in (("acc", row["acc"], acc, 1e-12), ("fpr", row["fpr"], fpr, 1e-12),
                                     ("fnr", row["fnr"], fnr, 1e-12), ("auc", row["auc"], auc, 1e-9)):
            if not _close(got, want, tol):
                errors.append(f"evaluate: {name} {what} {got} but recomputed {want}")


def check_predictions(lines: list[dict], domains: list[str], k: int, errors: list) -> None:
    """Batch output: one line per input domain in order, label 1 iff the
    score is above 0.5, scores multiples of 1/k."""
    if [line["domain"] for line in lines] != domains:
        errors.append(f"predict: {len(lines)} output lines do not match {len(domains)} input domains")
        return
    for line in lines:
        score = line["score"]
        if line["label"] != (1 if score > 0.5 else 0) or abs(score * k - round(score * k)) > 1e-12:
            errors.append(f"predict: {line}")
            return


def check_segmentation(label: str, words: list[str], model, exhaustive: bool, errors: list) -> None:
    if "".join(words) != _SEP.sub("", label):
        errors.append(f"segment: {label!r} -> {words} does not concatenate back")
        return
    if exhaustive:
        want = []
        for chunk in _SEP.split(label):
            if chunk:
                want.extend(exhaustive_segment(chunk, model))
        if want != words:
            errors.append(f"segment: {label!r} -> {words}, exhaustive search gives {want}")


def exhaustive_segment(chunk: str, model) -> list[str]:
    """Minimum-cost split over every cut mask, priced with the model's
    word and out-of-vocabulary costs; two unknown pieces never sit side
    by side (an unknown run is one piece).  Costs are folded from the
    right and ties go to fewer words, then the smaller word tuple."""
    n = len(chunk)
    best = None
    for mask in range(1 << (n - 1)):
        pieces, start = [], 0
        for i in range(n - 1):
            if mask >> i & 1:
                pieces.append(chunk[start:i + 1])
                start = i + 1
        pieces.append(chunk[start:])
        costs = [model.word_cost(p) for p in pieces]
        if any(a is None and b is None for a, b in zip(costs, costs[1:])):
            continue
        total = 0.0
        for piece, cost in zip(reversed(pieces), reversed(costs)):
            total = (cost if cost is not None else model.oov_cost(len(piece))) + total
        candidate = (total, len(pieces), tuple(pieces))
        if best is None or candidate < best:
            best = candidate
    return list(best[2])
