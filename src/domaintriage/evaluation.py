"""Train/test splitting, confusion metrics, ROC/AUC, and reports.

The positive class is always 1 (malicious), so FPR reads as "benign
domains flagged malicious" and FNR as "malicious domains missed".
Rates with an empty denominator are reported as ``None`` (undefined)
rather than faked with a zero.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from domaintriage.atomic import atomic_write
from domaintriage.learn import EnsembleModel, combine_votes, votes
from domaintriage.model import DatasetRow, DomainTriageError, LabeledDataset, UsageError
from domaintriage.selection import LengthMismatch


class ClassTooSmall(DomainTriageError):
    """Stratified splitting needs at least 2 rows of each class."""


class EmptyCounts(DomainTriageError):
    """Metrics over zero evaluated rows are undefined."""


class SingleClass(DomainTriageError):
    """A ROC curve needs at least one positive and one negative."""


#: Results reported for this detection approach by its originating
#: study, on 2020 feed data that is not redistributable; shipped for
#: context only and never used as a regression target.
REFERENCE_RESULTS = {
    "rf": {"acc": 0.9770, "fpr": 0.0401, "fnr": 0.0084, "auc": 0.988},
    "dt": {"acc": 0.9682, "fpr": 0.0380, "fnr": 0.0265, "auc": 0.976},
    "knn": {"acc": 0.9724, "fpr": 0.0531, "fnr": 0.0058, "auc": 0.983},
    "lr": {"acc": 0.9751, "fpr": 0.054, "fnr": 0.0, "auc": 0.981},
    "ensemble": {"acc": 0.9769, "fpr": 0.0403, "fnr": 0.0084, "auc": 0.976},
}


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts cannot be negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class EvalReport:
    classifier_name: str
    counts: ConfusionCounts
    acc: float
    fpr: float | None
    fnr: float | None
    auc: float
    roc_points: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "classifier": self.classifier_name,
            "counts": {"tp": self.counts.tp, "tn": self.counts.tn,
                       "fp": self.counts.fp, "fn": self.counts.fn},
            "acc": self.acc,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "auc": self.auc,
            "roc_points": [[fpr, tpr] for fpr, tpr in self.roc_points],
        }


def split_indices(
    labels,
    train_fraction: float = 0.8,
    seed: int = 0,
    stratified: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/test index split; indices come back in ascending
    order so partitions keep the input's row order."""
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if n < 2:
        raise ClassTooSmall(f"need at least 2 rows, got {n}")
    if not (0.0 < train_fraction < 1.0):
        raise UsageError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    if not stratified:
        perm = rng.permutation(n)
        cut = math.floor(train_fraction * n)
        return np.sort(perm[:cut]), np.sort(perm[cut:])
    train_parts, test_parts = [], []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(labels == cls)
        if len(cls_idx) < 2:
            raise ClassTooSmall(f"class {cls} has only {len(cls_idx)} rows")
        perm = rng.permutation(cls_idx)
        cut = math.floor(train_fraction * len(cls_idx))
        train_parts.append(perm[:cut])
        test_parts.append(perm[cut:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def split_dataset(
    dataset: LabeledDataset,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    train_idx, test_idx = split_indices(dataset.labels(), train_fraction, seed)

    def take(idx: np.ndarray) -> LabeledDataset:
        rows: list[DatasetRow] = [dataset.rows[i] for i in idx]
        return LabeledDataset(rows=rows)

    return take(train_idx), take(test_idx)


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Tally against positive class 1."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true labels vs {len(y_pred)} predictions")
    if len(y_true) == 0:
        raise EmptyCounts("no rows to tally")
    _binary(y_true, "labels")
    _binary(y_pred, "predictions")
    return ConfusionCounts(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def _binary(values: np.ndarray, what: str) -> None:
    if not ((values == 0) | (values == 1)).all():
        raise UsageError(f"{what} must be 0 or 1")


def metrics(counts: ConfusionCounts) -> tuple[float, float | None, float | None]:
    """(accuracy, FPR, FNR); a rate whose denominator is zero comes
    back as ``None``."""
    if counts.total == 0:
        raise EmptyCounts("no rows were evaluated")
    acc = (counts.tp + counts.tn) / counts.total
    fpr = counts.fp / (counts.fp + counts.tn) if counts.fp + counts.tn > 0 else None
    fnr = counts.fn / (counts.fn + counts.tp) if counts.fn + counts.tp > 0 else None
    return acc, fpr, fnr


def roc_curve(scores, labels) -> list[tuple[float, float]]:
    """Threshold sweep at every unique score (prediction = score >=
    threshold), deduplicated, anchored at (0,0) and (1,1), sorted by
    (fpr, tpr).

    One sort per class: at threshold t, tp and fp count the scores of
    each class at or above t.  A NaN score is never at or above a
    threshold, and a NaN threshold predicts nothing, which is (0,0).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    _binary(labels, "labels")
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"need both classes, got {n_pos} positive / {n_neg} negative")
    ranked = ~np.isnan(scores)
    pos = np.sort(scores[ranked & (labels == 1)])
    neg = np.sort(scores[ranked & (labels == 0)])
    # descending thresholds, so tp and fp only grow along the sweep
    thresholds = np.unique(scores[ranked])[::-1]
    tp = np.concatenate(([0], len(pos) - np.searchsorted(pos, thresholds, "left"), [n_pos]))
    fp = np.concatenate(([0], len(neg) - np.searchsorted(neg, thresholds, "left"), [n_neg]))
    new = np.ones(len(tp), dtype=bool)
    new[1:] = (tp[1:] != tp[:-1]) | (fp[1:] != fp[:-1])
    # int / int true division is correctly rounded, as in Python
    return list(zip((fp[new] / n_neg).tolist(), (tp[new] / n_pos).tolist()))


def auc(roc_points: list[tuple[float, float]]) -> float:
    """Trapezoidal area under the (fpr, tpr) polyline."""
    if len(roc_points) < 2:
        raise ValueError("need at least 2 ROC points")
    area = 0.0
    for (x0, y0), (x1, y1) in zip(roc_points, roc_points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def evaluate_predictions(name: str, y_true, pred_labels, scores) -> EvalReport:
    """Assemble one report row from labels plus ranking scores."""
    counts = confusion(y_true, pred_labels)
    acc, fpr, fnr = metrics(counts)
    points = roc_curve(scores, y_true)
    return EvalReport(
        classifier_name=name,
        counts=counts,
        acc=acc,
        fpr=fpr,
        fnr=fnr,
        auc=auc(points),
        roc_points=points,
    )


def full_report(model: EnsembleModel, x17, y) -> list[EvalReport]:
    """One report per member plus the ensemble, on the same test set."""
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise EmptyCounts("empty test set")
    member_scores = model.member_scores(x17)
    reports = [
        evaluate_predictions(member.kind, y, votes(scores), scores)
        for member, scores in zip(model.members, member_scores)
    ]
    reports.append(evaluate_predictions("ensemble", y, *combine_votes(member_scores)))
    return reports


def write_report_json(reports: list[EvalReport], path: str) -> None:
    """Write the bytes of ``json.dump({"reports": [r.to_dict() for r in
    reports]}, fh, indent=2)`` and a newline.

    json's indenting encoder is pure Python, and the ROC points are
    nearly all of the file, so each report's ``roc_points`` (the last
    field of :meth:`EvalReport.to_dict`) is written in one join by
    :func:`_roc_points_json`.  The other fields still go through
    ``json.dumps(indent=2)``; a report sits at depth 2 of the file, so
    each line of its own dump gains two indents.
    """
    texts = []
    for r in reports:
        fields = r.to_dict()
        points = _roc_points_json(fields.pop("roc_points"))
        head = json.dumps(fields, indent=2)[:-2].replace("\n", "\n    ")  # less its "\n}"
        texts.append(f'{head},\n      "roc_points": {points}\n    }}')
    listed = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(f'{{\n  "reports": {listed}\n}}\n')


# one [fpr, tpr] point of a report's roc_points, which sit at depth 3 of
# the report file: the point's brackets at depth 4, its numbers at 5
_POINT_JSON = "        [\n          %s,\n          %s\n        ]"


def _roc_points_json(points) -> str:
    """``points`` as ``json.dump(..., indent=2)`` writes a report's
    ``roc_points`` in the report file.  Pairs of finite floats (numpy
    ones too) are written with ``float.__repr__``, as json's encoder
    writes them; anything else (no points, NaN, an infinity, another
    type or length) goes through ``json.dumps``."""
    try:
        text = ",\n".join([_POINT_JSON % (float.__repr__(fpr), float.__repr__(tpr))
                           for fpr, tpr in points])
    except (TypeError, ValueError):
        text = ""
    if not text or "n" in text:  # the repr of a finite float has no "n"
        return json.dumps(points, indent=2).replace("\n", "\n      ")
    return "[\n" + text + "\n      ]"


def write_report_csv(reports: list[EvalReport], path: str) -> None:
    """Summary table: classifier, ACC, FPR, FNR, AUC."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", "acc", "fpr", "fnr", "auc"])
        for r in reports:
            writer.writerow([
                r.classifier_name,
                f"{r.acc:.6f}",
                "" if r.fpr is None else f"{r.fpr:.6f}",
                "" if r.fnr is None else f"{r.fnr:.6f}",
                f"{r.auc:.6f}",
            ])


def write_roc_csv(points: list[tuple[float, float]], path: str) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in points:
            writer.writerow([repr(fpr), repr(tpr)])
