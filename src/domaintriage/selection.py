"""Correlation-based feature selection.

Highly correlated features carry redundant signal, so the pipeline
computes the pairwise-complete Pearson matrix and greedily drops any feature
whose |r| against an already-kept feature exceeds the threshold
(default 0.60).  Two named presets reproduce the published reference
feature sets for WHOIS-complete and WHOIS-missing data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from domaintriage.atomic import atomic_write
from domaintriage.model import DomainTriageError, UsageError


class LengthMismatch(DomainTriageError):
    """Paired columns must have the same number of rows."""


class TooFewSamples(DomainTriageError):
    """A correlation needs at least two rows."""


# 0-based indices into the 17-feature vector
PRESETS: dict[str, tuple[int, ...]] = {
    # f1,f2,f3,f5,f8,f10,f11,f12,f14,f15,f17
    "paper-d1": (0, 1, 2, 4, 7, 9, 10, 11, 13, 14, 16),
    # same minus f1, for data where registration age is unavailable
    "paper-d2": (1, 2, 4, 7, 9, 10, 11, 13, 14, 16),
}


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Two-pass Pearson r of two float columns of equal length (at least
    two rows), clamped to [-1, 1]; ``None`` when either column is
    constant, or so spread or so tight that its sum of squares leaves
    the float range."""
    if x.min() == x.max() or y.min() == y.max():
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    den = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if not 0.0 < den < math.inf:
        return None
    # rounding can put |r| of an exactly linear pair just above 1, and a
    # threshold of 1.0 must never drop such a column
    return min(max(float(dx @ dy) / den, -1.0), 1.0)


def pearson(x, y) -> float | None:
    """Sample Pearson correlation of two columns, clamped to [-1, 1].

    Returns ``None`` (undefined) when either column is constant, since
    the coefficient has a zero denominator there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise LengthMismatch(f"columns have {len(x)} vs {len(y)} rows")
    n = len(x)
    if n < 2:
        raise TooFewSamples(f"need at least 2 rows, got {n}")
    return _pearson(x, y)


@dataclass
class CorrelationMatrix:
    """Symmetric Pearson matrix; ``None`` cells are undefined (constant
    column or not enough pairwise-present rows)."""

    size: int
    values: list[list[float | None]]


def correlation_matrix(x) -> CorrelationMatrix:
    """Pairwise-complete Pearson matrix of the columns of ``x``.

    ``x`` is an (n, p) array where NaN marks absent values; for each
    pair of columns, rows absent in either column are dropped before
    the coefficient is computed, so each pair is centred on its own
    means.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, p = x.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 rows, got {n}")
    columns = np.ascontiguousarray(x.T)
    present = ~np.isnan(columns)
    values: list[list[float | None]] = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            mask = present[i] & present[j]
            if np.count_nonzero(mask) < 2:
                r = None
            else:
                r = _pearson(columns[i][mask], columns[j][mask])
            values[i][j] = r
            values[j][i] = r
    return CorrelationMatrix(size=p, values=values)


def prune(matrix: CorrelationMatrix, threshold: float = 0.60) -> list[int]:
    """Greedy correlation pruning: the column positions kept.

    Scans columns in ascending position order and drops one iff |r| with
    some already-kept feature exceeds ``threshold``.  Constant columns
    (undefined diagonal) are always dropped; undefined off-diagonal
    cells are treated as uncorrelated.
    """
    if not (0.0 < threshold <= 1.0):
        raise UsageError(f"threshold must be in (0, 1], got {threshold}")
    kept: list[int] = []
    for pos in range(matrix.size):
        if matrix.values[pos][pos] is None:
            continue
        correlated = False
        for other in kept:
            r = matrix.values[pos][other]
            if r is not None and abs(r) > threshold:
                correlated = True
                break
        if not correlated:
            kept.append(pos)
    return kept


def write_matrix_csv(matrix: CorrelationMatrix, path: str) -> None:
    """Export the matrix for external heat-map plotting, its columns
    named f1..fp; undefined cells are left empty."""
    names = [f"f{i + 1}" for i in range(matrix.size)]
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + names)
        for name, row in zip(names, matrix.values):
            writer.writerow([name] + ["" if v is None else repr(v) for v in row])
