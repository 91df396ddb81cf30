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
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from domaintriage.atomic import atomic_write
from domaintriage.model import (
    DatasetRow,
    DomainTriageError,
    UsageError,
    LabeledDataset,
    FEATURE_NAMES,
    normalize_domain,
    parse_domain,
)


class SchemaMismatch(UsageError):
    """A file does not have the layout its reader requires."""


class InvalidRange(UsageError):
    """A date window whose lower bound is after its upper bound."""


DATASET_HEADER = ("domain", "label", "source", "first_seen")
FEATURES_HEADER = ("domain", "label") + FEATURE_NAMES

# feed columns accepted as the first-seen date, in preference order
_DATE_COLUMNS = ("first_seen", "date", "dateadded", "listingdate")

# features CSV columns: f1..f3 may be blank (no WHOIS data), f5 and f10
# are fractions, every other feature is an integer
_BLANK_OK = np.array([name in ("f1", "f2", "f3") for name in FEATURE_NAMES])
_FRACTIONAL = np.array([name in ("f5", "f10") for name in FEATURE_NAMES])


@contextmanager
def _readable(path):
    """Turn a CSV the ``csv`` module or the UTF-8 decoder cannot read
    (a field over ``csv.field_size_limit()``, bytes that are not UTF-8)
    into a :class:`SchemaMismatch` naming ``path``."""
    try:
        yield
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"{path}: unreadable CSV: {exc}") from exc


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
    with _readable(path), open(path, newline="", encoding="utf-8") as fh:
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
    with atomic_write(path, newline="", encoding="utf-8") as fh:
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
    with _readable(path), open(path, newline="", encoding="utf-8") as fh:
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


@dataclass(frozen=True)
class FeatureTable:
    """The features CSV in memory, one numeric table.

    ``x`` is the (n, 17) float array of f1..f17 with NaN for a blank
    f1..f3 cell, ``y`` the int label vector, and ``domains`` the n
    normalized names, in file order.
    """

    domains: list[str]
    x: np.ndarray
    y: np.ndarray
    reference_date: dt.date | None = None

    def __len__(self) -> int:
        return len(self.domains)

    def take(self, idx) -> "FeatureTable":
        """The rows at ``idx``, in that order."""
        idx = np.asarray(idx, dtype=int)
        return FeatureTable([self.domains[i] for i in idx.tolist()], self.x[idx],
                            self.y[idx], self.reference_date)

    @classmethod
    def from_dataset(cls, dataset: LabeledDataset) -> "FeatureTable":
        """The table of a dataset whose rows all carry features."""
        x, y = dataset.feature_matrix()
        return cls([row.domain.raw for row in dataset.rows], x, y)


def _bad_cell(x: np.ndarray, blank: np.ndarray) -> tuple[int, int, str] | None:
    """The first (row, column, reason) of ``x`` outside a blank cell
    that is not finite, or not an integer in an integer column."""
    with np.errstate(invalid="ignore"):
        ok = blank | (np.isfinite(x) & (_FRACTIONAL | (x == np.trunc(x))))
    rows, cols = np.nonzero(~ok)
    if not len(rows):
        return None
    i, j = int(rows[0]), int(cols[0])
    return i, j, "is not finite" if not math.isfinite(x[i, j]) else "is not an integer"


def write_features(table: FeatureTable | LabeledDataset, path: str,
                   reference_date: dt.date | None = None) -> None:
    """Write the feature CSV: ``domain,label,f1..f17`` with empty cells
    for blank f1..f3, preceded by a comment noting the reference date
    the day-count features were computed against (``reference_date``,
    else the table's; none when both are ``None``).

    Integer features are written as integers and f5, f10 with ``repr``,
    so :func:`read_features` gives back the same table bit for bit.  A
    :class:`LabeledDataset` is written as its :meth:`FeatureTable.from_dataset`.
    """
    if isinstance(table, LabeledDataset):
        table = FeatureTable.from_dataset(table)
    reference_date = reference_date or table.reference_date
    x = table.x
    if x.shape != (len(table), len(FEATURE_NAMES)) or table.y.shape != (len(table),):
        raise ValueError(f"{len(table)} domains need a ({len(table)}, {len(FEATURE_NAMES)}) "
                         f"feature array and {len(table)} labels, "
                         f"got {x.shape} and {table.y.shape}")
    if not np.isin(table.y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    blank = np.isnan(x) & _BLANK_OK
    bad = _bad_cell(x, blank)
    if bad is not None:
        i, j, reason = bad
        raise ValueError(f"{table.domains[i]}: {FEATURE_NAMES[j]} {reason} ({x[i, j]!r})")
    columns = []
    for j, fractional in enumerate(_FRACTIONAL):
        values = x[:, j].tolist()
        if fractional:
            columns.append(list(map(repr, values)))
        elif blank[:, j].any():
            columns.append(["" if v != v else str(int(v)) for v in values])
        else:
            columns.append(list(map(str, map(int, values))))
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        if reference_date is not None:
            fh.write(f"# reference_date={reference_date.isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        writer.writerows(zip(table.domains, table.y.tolist(), *columns))


def _cells_with_blanks(path, lineno: int, row: list[str]) -> tuple[list[float], list[int]]:
    """f1..f17 of a row that has a cell ``float`` rejects: the values,
    NaN for a blank cell, and the columns that were blank."""
    values, blank = [], []
    for j, cell in enumerate(row[2:]):
        cell = cell.strip()
        if not cell:
            if not _BLANK_OK[j]:
                raise SchemaMismatch(
                    f"{path}:{lineno}: only f1..f3 may be blank, {FEATURE_NAMES[j]} is not"
                )
            values.append(math.nan)
            blank.append(j)
            continue
        try:
            values.append(float(cell))
        except ValueError:
            raise SchemaMismatch(f"{path}:{lineno}: bad number {cell!r}") from None
    return values, blank


def read_features(path: str) -> FeatureTable:
    """Read a feature CSV into one :class:`FeatureTable`; its
    ``reference_date`` is the one recorded in the comment header
    (``None`` when absent).

    Lines starting with ``#`` before the header are comments (so a row
    whose domain starts with ``#`` is still a row), and blank rows are
    skipped.  Every other row needs a domain that :func:`parse_domain`
    accepts, a 0/1 label and 17 finite numbers, integers except f5 and
    f10; only f1..f3 may be blank.  Any breach raises
    :class:`SchemaMismatch` naming ``path:lineno``.
    """
    reference_date = None
    width = len(FEATURES_HEADER)
    domains, labels, values, row_lines, blank_cells = [], [], [], [], []
    with _readable(path), open(path, newline="", encoding="utf-8") as fh:
        comments = 0
        line = fh.readline()
        while line.startswith("#"):
            text = line[1:].strip()
            if text.startswith("reference_date="):
                reference_date = _parse_date(text.split("=", 1)[1])
            comments += 1
            line = fh.readline()
        if not line:
            raise SchemaMismatch(f"{path}: file is empty")
        reader = csv.reader(itertools.chain([line], fh))
        header = next(reader)
        if tuple(c.strip().lower() for c in header) != FEATURES_HEADER:
            raise SchemaMismatch(f"{path}: unexpected feature header")
        for row in reader:
            lineno = comments + reader.line_num
            if len(row) != width or row[1] not in ("0", "1"):
                if not any(c.strip() for c in row):
                    continue
                if len(row) != width:
                    raise SchemaMismatch(f"{path}:{lineno}: expected {width} columns")
                raise SchemaMismatch(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
            start = len(values)
            try:
                values.extend(map(float, row[2:]))
            except ValueError:
                del values[start:]
                cells, blank = _cells_with_blanks(path, lineno, row)
                values.extend(cells)
                blank_cells.extend((len(domains), j) for j in blank)
            try:
                domains.append(normalize_domain(row[0]))
            except DomainTriageError as exc:
                raise SchemaMismatch(f"{path}:{lineno}: bad domain {row[0]!r}") from exc
            labels.append(row[1] == "1")
            row_lines.append(lineno)
    x = np.array(values, dtype=float).reshape(-1, len(FEATURE_NAMES))
    x[:, ~_FRACTIONAL] += 0.0  # an integer cell "-0" reads as 0, not -0.0
    blank = np.zeros(x.shape, dtype=bool)
    if blank_cells:
        blank[tuple(np.array(blank_cells).T)] = True
    bad = _bad_cell(x, blank)
    if bad is not None:
        i, j, reason = bad
        raise SchemaMismatch(f"{path}:{row_lines[i]}: {FEATURE_NAMES[j]} {reason} ({x[i, j]!r})")
    return FeatureTable(domains, x, np.array(labels, dtype=int), reference_date)
