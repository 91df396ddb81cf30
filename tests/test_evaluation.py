import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domaintriage import evaluation
from domaintriage.evaluation import (
    REFERENCE_RESULTS,
    ClassTooSmall,
    ConfusionCounts,
    EmptyCounts,
    EvalReport,
    SingleClass,
    auc,
    confusion,
    evaluate_predictions,
    full_report,
    metrics,
    roc_curve,
    split_dataset,
    split_indices,
    write_report_csv,
    write_report_json,
    write_roc_csv,
)
from domaintriage.learn import train_ensemble
from domaintriage.model import DatasetRow, LabeledDataset, UsageError, parse_domain
from domaintriage.selection import LengthMismatch
from oracles import mann_whitney_auc, roc_per_threshold


# --- splitting --------------------------------------------------------------

def test_split_partitions_all_rows():
    labels = [0] * 40 + [1] * 20
    train, test = split_indices(labels, 0.8, seed=1)
    merged = np.sort(np.concatenate([train, test]))
    assert (merged == np.arange(60)).all()
    assert (np.diff(train) > 0).all()
    assert (np.diff(test) > 0).all()


def test_split_stratified_counts():
    labels = np.array([0] * 50 + [1] * 30)
    train, test = split_indices(labels, 0.8, seed=2)
    train_labels = labels[train]
    assert (train_labels == 0).sum() == 40  # floor(0.8 * 50)
    assert (train_labels == 1).sum() == 24  # floor(0.8 * 30)
    assert len(test) == 16


def test_split_deterministic_per_seed():
    labels = [0, 1] * 25
    a = split_indices(labels, 0.7, seed=9)
    b = split_indices(labels, 0.7, seed=9)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    c = split_indices(labels, 0.7, seed=10)
    assert not (a[0] == c[0]).all()


@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "plain"])
def test_split_rejects_labels_other_than_0_and_1(stratified):
    # a row labelled 2 would otherwise land in neither part
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        split_indices([0, 0, 1, 1, 2, 2, 0, 1], 0.5, seed=0, stratified=stratified)


def test_split_plain_variant():
    labels = [0] * 19 + [1]
    # stratified would refuse a 1-row class; plain split works
    with pytest.raises(ClassTooSmall):
        split_indices(labels, 0.8, seed=0)
    train, test = split_indices(labels, 0.8, seed=0, stratified=False)
    assert len(train) == 16 and len(test) == 4


def test_split_validation():
    with pytest.raises(ClassTooSmall):
        split_indices([1], 0.8)
    with pytest.raises(ValueError):
        split_indices([0, 1, 0, 1], 0.0)
    with pytest.raises(ValueError):
        split_indices([0, 1, 0, 1], 1.0)


def test_split_dataset_carries_rows_and_flag():
    rows = [
        DatasetRow(domain=parse_domain(f"d{i}.com"), label=i % 2)
        for i in range(20)
    ]
    ds = LabeledDataset(rows=rows)
    train, test = split_dataset(ds, 0.8, seed=3)
    assert len(train) == 16 and len(test) == 4
    got = sorted(r.domain.raw for r in list(train) + list(test))
    assert got == sorted(r.domain.raw for r in rows)


# --- confusion and metrics --------------------------------------------------

def test_confusion_hand_case():
    y_true = [1, 1, 0, 0, 1, 0]
    y_pred = [1, 0, 0, 1, 1, 0]
    c = confusion(y_true, y_pred)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 1, 1)
    assert c.total == 6


def test_confusion_validation():
    with pytest.raises(LengthMismatch):
        confusion([1, 0], [1])
    with pytest.raises(EmptyCounts):
        confusion([], [])
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


@pytest.mark.parametrize("y_true, y_pred", [([0, 1, 2], [0, 1, 1]), ([0, 1, 1], [0, 1, -1])],
                         ids=["label of 2", "prediction of -1"])
def test_confusion_rejects_values_that_are_not_0_or_1(y_true, y_pred):
    # a row of neither class used to drop out of every count
    with pytest.raises(UsageError, match="must be 0 or 1"):
        confusion(y_true, y_pred)


def test_metrics_worked_case():
    acc, fpr, fnr = metrics(ConfusionCounts(tp=8, tn=90, fp=1, fn=1))
    assert acc == 0.98
    assert fpr == 1 / 91
    assert fnr == 1 / 9


def test_metrics_match_rational_arithmetic():
    rng = random.Random(77)
    for _ in range(100):
        tp, tn, fp, fn = (rng.randint(0, 10_000) for _ in range(4))
        if tp + tn + fp + fn == 0:
            tp = 1
        c = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        acc, fpr, fnr = metrics(c)
        # a single integer division is the correctly rounded float of
        # the exact rational, so equality here is exact
        assert acc == float(Fraction(tp + tn, c.total))
        if fp + tn > 0:
            assert fpr == float(Fraction(fp, fp + tn))
        else:
            assert fpr is None
        if fn + tp > 0:
            assert fnr == float(Fraction(fn, fn + tp))
        else:
            assert fnr is None


def test_metrics_undefined_rates():
    acc, fpr, fnr = metrics(ConfusionCounts(tp=5, tn=0, fp=0, fn=1))
    assert fpr is None
    assert fnr == 1 / 6
    acc, fpr, fnr = metrics(ConfusionCounts(tp=0, tn=5, fp=1, fn=0))
    assert fnr is None
    assert fpr == 1 / 6


# --- ROC and AUC ------------------------------------------------------------

def test_roc_perfect_ranking():
    points = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    assert (0.0, 1.0) in points
    assert auc(points) == 1.0


def test_roc_single_threshold_is_half():
    points = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert auc(points) == 0.5


def test_roc_reversed_ranking():
    points = roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert auc(points) == 0.0


def test_roc_monotone_non_decreasing():
    rng = np.random.default_rng(78)
    scores = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    points = roc_curve(scores, labels)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    assert xs == sorted(xs)
    assert all(b >= a for a, b in zip(ys, ys[1:]))


def test_roc_requires_both_classes():
    with pytest.raises(SingleClass):
        roc_curve([0.1, 0.9], [1, 1])
    with pytest.raises(LengthMismatch):
        roc_curve([0.1], [1, 0])


def test_roc_rejects_labels_that_are_not_0_or_1():
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        roc_curve([0.1, 0.2, 0.3], [0, 1, 2])


# ties, both zeros, the infinities, NaN and any other float
_ROC_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_roc_and_auc_equal_per_threshold_sweep(data):
    n = data.draw(st.integers(2, 40))
    scores = data.draw(st.lists(_ROC_SCORES, min_size=n, max_size=n))
    labels = [0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    want_points, want_area = roc_per_threshold(scores, labels)
    points = roc_curve(scores, labels)
    assert points == want_points
    assert all(type(x) is float and type(y) is float for x, y in points)
    assert auc(points) == want_area


def test_auc_matches_mann_whitney():
    rng = random.Random(79)
    for trial in range(200):
        n = rng.randint(2, 50)
        # coarse score grid so ties are common
        scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        got = auc(roc_curve(scores, labels))
        want = mann_whitney_auc(scores, labels)
        assert abs(got - want) <= 1e-9, trial


def test_auc_validation():
    with pytest.raises(ValueError):
        auc([(0.0, 0.0)])


# --- report assembly --------------------------------------------------------

def _trained():
    rng = np.random.default_rng(80)
    n = 120
    y = np.array([0, 1] * (n // 2))
    x = rng.normal(size=(n, 17))
    x[:, 4] += y * 2.5
    x[:, 9] -= y * 2.0
    model = train_ensemble(x, y, [4, 9], seed=0, n_trees=10)
    return model, x, y


def test_evaluate_and_full_report():
    model, x, y = _trained()
    reports = full_report(model, x, y)
    report = reports[-1]
    assert report.classifier_name == "ensemble"
    assert report.acc >= 0.9
    assert report.counts.total == len(y)
    assert [r.classifier_name for r in reports] == ["rf", "dt", "knn", "lr", "ensemble"]
    for r in reports:
        assert 0.0 <= r.auc <= 1.0
    with pytest.raises(EmptyCounts):
        full_report(model, x[:0], y[:0])


def test_evaluate_predictions_report_fields():
    r = evaluate_predictions("toy", [1, 0, 1, 0], [1, 0, 0, 0], [0.9, 0.1, 0.4, 0.2])
    assert r.counts.tp == 1 and r.counts.fn == 1
    assert r.acc == 0.75
    d = r.to_dict()
    assert d["classifier"] == "toy"
    assert d["counts"] == {"tp": 1, "tn": 2, "fp": 0, "fn": 1}
    assert isinstance(d["roc_points"][0], list)


_ROC_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, 1 / 3, 1e-05, 5e-324, -0.0, 2 / 3 - 1e-17]),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64), st.floats(), st.integers(0, 3),
)
_RATES = st.one_of(st.none(), st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64))
_REPORTS = st.builds(
    EvalReport,
    classifier_name=st.one_of(st.sampled_from(["rf", "ensemble", "", 'a"b\\c', "\n\t", "Ä\u2028💥"]),
                              st.text(max_size=8)),
    counts=st.builds(ConfusionCounts, *[st.integers(0, 10**6)] * 4),
    acc=st.floats(0.0, 1.0),
    fpr=_RATES,
    fnr=_RATES,
    auc=st.one_of(st.floats(0.0, 1.0), st.just(float("nan"))),
    roc_points=st.lists(st.tuples(_ROC_NUMBERS, _ROC_NUMBERS), max_size=50),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reports=st.lists(_REPORTS, max_size=4))
def test_report_json_is_the_indenting_encoders_bytes(reports, tmp_path):
    path = tmp_path / "report.json"
    write_report_json(reports, str(path))
    want = json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2) + "\n"
    assert path.read_bytes() == want.encode()


def test_report_writers(tmp_path):
    model, x, y = _trained()
    reports = full_report(model, x, y)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    rpath = tmp_path / "roc.csv"
    write_report_json(reports, str(jpath))
    write_report_csv(reports, str(cpath))
    write_roc_csv(reports[-1].roc_points, str(rpath))
    payload = json.loads(jpath.read_text())
    assert len(payload["reports"]) == 5
    assert payload["reports"][0]["classifier"] == "rf"
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["classifier", "acc", "fpr", "fnr", "auc"]
    assert len(rows) == 6
    with open(rpath, newline="") as fh:
        roc_rows = list(csv.reader(fh))
    assert roc_rows[0] == ["fpr", "tpr"]
    assert float(roc_rows[1][0]) == 0.0


def test_report_csv_blank_for_undefined_rate(tmp_path):
    r = evaluate_predictions("toy", [1, 1, 0], [1, 1, 0], [0.9, 0.8, 0.1])
    # force an undefined FPR by evaluating a positives-only tally
    r.fpr = None
    path = tmp_path / "t.csv"
    write_report_csv([r], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == ""


def test_reference_results_content():
    assert REFERENCE_RESULTS["rf"] == {"acc": 0.9770, "fpr": 0.0401,
                                       "fnr": 0.0084, "auc": 0.988}
    assert REFERENCE_RESULTS["ensemble"]["acc"] == 0.9769
    assert set(REFERENCE_RESULTS) == {"rf", "dt", "knn", "lr", "ensemble"}
    # documentation only: nothing in the package reads these numbers
    import domaintriage.evaluation as ev
    source = Path(ev.__file__).read_text(encoding="utf-8")
    assert source.count("REFERENCE_RESULTS") == 1
