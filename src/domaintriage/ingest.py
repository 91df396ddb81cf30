"""Feed ingestion: read labeled domain feeds and produce one clean dataset.

Three feed layouts are recognized automatically:

* CSV with a header row naming a ``domain`` column (a ``first_seen`` or
  ``date`` column is picked up when present),
* headerless two-column ``rank,domain`` lists as published by the big
  popularity rankings,
* plain one-domain-per-line text.

Every feed carries a single label (1 malicious, 0 benign) supplied by the
caller, not read from the file.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from domaintriage.model import (
    DatasetRow,
    Domain,
    DomainTriageError,
    FeatureVector,
    LabeledDataset,
    FEATURE_NAMES,
    parse_domain,
)


class SchemaMismatch(DomainTriageError):
    """A file does not have the layout its reader requires."""


class InvalidRange(DomainTriageError):
    """A date window whose lower bound is after its upper bound."""


DATASET_HEADER = ("domain", "label", "source", "first_seen")
FEATURES_HEADER = ("domain", "label") + FEATURE_NAMES

# feed columns accepted as the first-seen date, in preference order
_DATE_COLUMNS = ("first_seen", "date", "dateadded", "listingdate")


@dataclass(frozen=True)
class FeedSpec:
    """Where one feed lives and how its rows are labeled."""

    path: str
    label: int
    source: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class LoadedFeed:
    spec: FeedSpec
    rows: list[DatasetRow] = field(default_factory=list)
    skipped: int = 0


@dataclass
class MergeStats:
    total_in: int = 0
    kept: int = 0
    dedup_drops: int = 0
    label_conflicts: int = 0


def _parse_date(text: str) -> dt.date | None:
    text = text.strip()
    if not text:
        return None
    try:
        return dt.date.fromisoformat(text[:10])
    except ValueError:
        return None


def load_feed(spec: FeedSpec) -> LoadedFeed:
    """Read one feed from disk.

    Rows whose domain does not parse are skipped and counted in
    ``LoadedFeed.skipped`` rather than aborting the load; blank lines
    are ignored outright.
    """
    path = Path(spec.path)
    with open(path, newline="", encoding="utf-8") as fh:
        raw_rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not raw_rows:
        raise SchemaMismatch(f"{path}: feed is empty")

    loaded = LoadedFeed(spec=spec)
    first = [c.strip().lower() for c in raw_rows[0]]
    if "domain" in first:
        dom_idx = first.index("domain")
        date_idx = None
        for name in _DATE_COLUMNS:
            if name in first:
                date_idx = first.index(name)
                break
        body = raw_rows[1:]
    elif len(raw_rows[0]) >= 2 and raw_rows[0][0].strip().isdigit():
        # rank,domain layout: the rank is discarded
        dom_idx, date_idx, body = 1, None, raw_rows
    else:
        dom_idx, date_idx, body = 0, None, raw_rows

    for row in body:
        if dom_idx >= len(row):
            loaded.skipped += 1
            continue
        try:
            domain = parse_domain(row[dom_idx])
        except DomainTriageError:
            loaded.skipped += 1
            continue
        first_seen = None
        if date_idx is not None and date_idx < len(row):
            first_seen = _parse_date(row[date_idx])
        loaded.rows.append(
            DatasetRow(domain=domain, label=spec.label, source=spec.source,
                       first_seen=first_seen)
        )
    return loaded


def merge_dedup(feeds: Iterable[LoadedFeed]) -> tuple[LabeledDataset, MergeStats]:
    """Union all feeds into one dataset with unique domains.

    Duplicate rules: when the same domain appears with conflicting
    labels, the malicious row wins and the conflict is counted; among
    rows with the same label, the earliest known ``first_seen`` wins
    (a dated row beats an undated one, ties keep the first seen feed).
    Output order is first-encounter order.
    """
    stats = MergeStats()
    kept: dict[str, DatasetRow] = {}
    for feed in feeds:
        for row in feed.rows:
            stats.total_in += 1
            key = row.domain.raw
            old = kept.get(key)
            if old is None:
                kept[key] = row
                continue
            stats.dedup_drops += 1
            if old.label != row.label:
                stats.label_conflicts += 1
                if row.label == 1:
                    kept[key] = row
            elif row.first_seen is not None and (
                old.first_seen is None or row.first_seen < old.first_seen
            ):
                kept[key] = row
    stats.kept = len(kept)
    return LabeledDataset(rows=list(kept.values())), stats


def filter_by_date(
    dataset: LabeledDataset,
    date_from: dt.date | None = None,
    date_to: dt.date | None = None,
) -> LabeledDataset:
    """Keep rows whose ``first_seen`` falls inside the window (inclusive
    on both ends).  Rows without a date are always kept."""
    if date_from is not None and date_to is not None and date_from > date_to:
        raise InvalidRange(f"window starts {date_from} after it ends {date_to}")
    out = []
    for row in dataset.rows:
        if row.first_seen is None:
            out.append(row)
            continue
        if date_from is not None and row.first_seen < date_from:
            continue
        if date_to is not None and row.first_seen > date_to:
            continue
        out.append(row)
    return LabeledDataset(rows=out)


def write_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write the canonical ``domain,label,source,first_seen`` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for row in dataset.rows:
            writer.writerow([
                row.domain.raw,
                row.label,
                row.source,
                row.first_seen.isoformat() if row.first_seen else "",
            ])


def read_dataset(path: str) -> LabeledDataset:
    """Read a canonical dataset CSV back; inverse of :func:`write_dataset`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{path}: file is empty") from None
        if tuple(c.strip().lower() for c in header) != DATASET_HEADER:
            raise SchemaMismatch(
                f"{path}: expected header {','.join(DATASET_HEADER)}, got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(c.strip() for c in row):
                continue
            if len(row) != len(DATASET_HEADER):
                raise SchemaMismatch(f"{path}:{lineno}: expected {len(DATASET_HEADER)} columns")
            if row[1] not in ("0", "1"):
                raise SchemaMismatch(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
            try:
                domain = parse_domain(row[0])
            except DomainTriageError as exc:
                raise SchemaMismatch(f"{path}:{lineno}: bad domain {row[0]!r}") from exc
            rows.append(DatasetRow(
                domain=domain,
                label=int(row[1]),
                source=row[2],
                first_seen=_parse_date(row[3]),
            ))
    return LabeledDataset(rows=rows)


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_features(
    dataset: LabeledDataset, path: str, reference_date: dt.date | None = None
) -> None:
    """Write the feature CSV: ``domain,label,f1..f17`` with empty cells
    for absent values, preceded by a comment noting the reference date
    the day-count features were computed against."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if reference_date is not None:
            fh.write(f"# reference_date={reference_date.isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for row in dataset.rows:
            if row.features is None:
                raise ValueError(f"{row.domain.raw} has no features")
            writer.writerow(
                [row.domain.raw, row.label]
                + [_format_cell(v) for v in row.features.to_row()]
            )


def read_features(path: str) -> tuple[LabeledDataset, dt.date | None]:
    """Read a feature CSV; returns the dataset and the reference date
    recorded in its comment header (``None`` when absent)."""
    reference_date = None
    with open(path, newline="", encoding="utf-8") as fh:
        lines = []
        for line in fh:
            if line.startswith("#"):
                text = line[1:].strip()
                if text.startswith("reference_date="):
                    reference_date = _parse_date(text.split("=", 1)[1])
                continue
            lines.append(line)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"{path}: file is empty") from None
    if tuple(c.strip().lower() for c in header) != FEATURES_HEADER:
        raise SchemaMismatch(f"{path}: unexpected feature header")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or not any(c.strip() for c in row):
            continue
        if len(row) != len(FEATURES_HEADER):
            raise SchemaMismatch(f"{path}:{lineno}: expected {len(FEATURES_HEADER)} columns")
        if row[1] not in ("0", "1"):
            raise SchemaMismatch(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
        values: list[float | None] = []
        for pos, cell in enumerate(row[2:]):
            cell = cell.strip()
            if not cell:
                if pos > 2:
                    raise SchemaMismatch(
                        f"{path}:{lineno}: only f1..f3 may be blank, {FEATURES_HEADER[pos + 2]} is not"
                    )
                values.append(None)
            else:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SchemaMismatch(f"{path}:{lineno}: bad number {cell!r}") from None
        try:
            domain = parse_domain(row[0])
        except DomainTriageError as exc:
            raise SchemaMismatch(f"{path}:{lineno}: bad domain {row[0]!r}") from exc
        rows.append(DatasetRow(
            domain=domain,
            label=int(row[1]),
            features=FeatureVector.from_row(values),
        ))
    return LabeledDataset(rows=rows), reference_date
