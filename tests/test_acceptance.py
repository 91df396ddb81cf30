"""Acceptance gate: one test per shipped claim about the toolkit.

Each numbered test states the claim it guards and checks it against an
independent oracle (hand formulas, exhaustive enumeration, rational
arithmetic, or a second implementation) rather than against the code
under test.  A printed PASS line per criterion makes the gate easy to
audit in captured output.
"""

import datetime as dt
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from domaintriage import cli, evaluation, ingest, learn, selection
from domaintriage.evaluation import REFERENCE_RESULTS, ConfusionCounts
from domaintriage.features import (
    default_registrar_lists,
    extract_all,
    shannon_entropy,
)
from domaintriage.model import WhoisRecord, parse_domain
from domaintriage.segment import LanguageModel, segment_keywords
from domaintriage.synthetic import make_benchmark
from oracles import (
    day_diff,
    mann_whitney_auc,
    oracle_segment,
    pearson_definitional,
)


def _passed(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


# -- 1: published results are context, not a regression target ---------------

def test_c01_reference_results_are_context_only():
    # The feeds behind the published numbers are not redistributable, so
    # the package ships the reported table verbatim for context and must
    # never compute against it.
    assert REFERENCE_RESULTS["rf"] == {
        "acc": 0.9770, "fpr": 0.0401, "fnr": 0.0084, "auc": 0.988,
    }
    assert REFERENCE_RESULTS["ensemble"]["acc"] == 0.9769
    assert set(REFERENCE_RESULTS) == {"rf", "dt", "knn", "lr", "ensemble"}
    import domaintriage
    pkg_dir = domaintriage.__path__[0]
    import pathlib
    uses = []
    for py in pathlib.Path(pkg_dir).rglob("*.py"):
        count = py.read_text("utf-8").count("REFERENCE_RESULTS")
        if count:
            uses.append((py.name, count))
    # exactly one mention in the whole package: its own definition
    assert uses == [("evaluation.py", 1)]
    _passed(1, "reported results shipped verbatim and read by no code path")


# -- 2: synthetic benchmark reaches the bar fast ------------------------------

def test_c02_synthetic_benchmark_accuracy_and_runtime():
    started = time.monotonic()
    ds = make_benchmark(5000)
    train_ds, test_ds = evaluation.split_dataset(ds, train_fraction=0.8, seed=0)
    x_train, y_train = train_ds.feature_matrix()
    x_test, y_test = test_ds.feature_matrix()
    assert len(x_test) == 1000
    kept = selection.prune(selection.correlation_matrix(x_train), 0.60)
    model = learn.train_ensemble(x_train, y_train, kept, seed=0)
    reports = {r.classifier_name: r for r in evaluation.full_report(model, x_test, y_test)}
    elapsed = time.monotonic() - started
    for name in ("rf", "ensemble"):
        assert reports[name].acc >= 0.95, (name, reports[name].acc)
        assert reports[name].auc >= 0.98, (name, reports[name].auc)
    assert elapsed <= 60.0, f"benchmark run took {elapsed:.1f}s"
    _passed(2, f"5000-row benchmark: rf acc={reports['rf'].acc:.3f} "
               f"ensemble acc={reports['ensemble'].acc:.3f} in {elapsed:.1f}s")


# -- 3: majority vote equals exhaustive enumeration ---------------------------

def test_c03_majority_vote_exhaustive():
    checked = 0
    for k in range(1, 6):
        for bits in range(2 ** k):
            votes = [(bits >> i) & 1 for i in range(k)]
            expected = 1 if sum(votes) > k / 2 else 0
            assert learn.majority_vote(votes) == expected, votes
            checked += 1
    assert checked == 62
    assert learn.majority_vote([1, 1, 0, 0]) == 0
    _passed(3, "majority vote matches enumeration for all 62 vote patterns, ties benign")


# -- 4: accuracy and error rates in exact rational arithmetic -----------------

def test_c04_metrics_match_rational_arithmetic():
    rng = random.Random(4)
    for _ in range(100):
        tp = rng.randint(1, 10_000)
        tn = rng.randint(1, 10_000)
        fp = rng.randint(0, 10_000)
        fn = rng.randint(0, 10_000)
        counts = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        acc, fpr, fnr = evaluation.metrics(counts)
        assert acc == float(Fraction(tp + tn, tp + tn + fp + fn))
        assert fpr == float(Fraction(fp, fp + tn))
        assert fnr == float(Fraction(fn, fn + tp))
    acc, fpr, fnr = evaluation.metrics(ConfusionCounts(tp=8, tn=90, fp=1, fn=1))
    assert acc == 0.98
    assert fpr == 1 / 91
    assert fnr == 1 / 9
    _passed(4, "acc/fpr/fnr equal exact rationals on 100 random tallies and the worked case")


# -- 5: trapezoid AUC equals the rank statistic --------------------------------

def test_c05_auc_equals_mann_whitney():
    rng = random.Random(5)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(200):
        n = rng.randint(2, 50)
        labels = [rng.randint(0, 1) for _ in range(n)]
        labels[0], labels[1] = 0, 1  # both classes present
        scores = [rng.choice(grid) for _ in range(n)]  # coarse grid forces ties
        points = evaluation.roc_curve(scores, labels)
        assert abs(evaluation.auc(points) - mann_whitney_auc(scores, labels)) <= 1e-9
    perfect = evaluation.roc_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert evaluation.auc(perfect) == 1.0
    flat = evaluation.roc_curve([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])
    assert evaluation.auc(flat) == 0.5
    _passed(5, "trapezoid AUC within 1e-9 of the rank statistic on 200 tied instances")


# -- 6: correlation matches the definitional formula, pruning respects it -----

def test_c06_pearson_and_pruning():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = selection.pearson(x, y)
        want = pearson_definitional(list(x), list(y))
        assert got is not None and want is not None
        assert abs(got - want) <= 1e-9
    x = rng.normal(size=25)
    assert selection.pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert selection.pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)
    for trial in range(20):
        data = rng.normal(size=(60, 9))
        data[:, 3] = data[:, 0] * 2.0 + rng.normal(scale=0.01, size=60)
        data[:, 7] = -data[:, 1] + rng.normal(scale=0.01, size=60)
        kept = selection.prune(selection.correlation_matrix(data), 0.60)
        sub = selection.correlation_matrix(data[:, kept])
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                r = sub.values[i][j]
                assert r is not None and abs(r) <= 0.60, (trial, kept, i, j, r)
    _passed(6, "pearson within 1e-9 of two-pass formula; pruning leaves no pair above 0.60")


# -- 7: feature extraction hand cases and calendar oracle ----------------------

def test_c07_feature_hand_cases_and_dates():
    fv = extract_all(parse_domain("any.com"))
    assert fv.f4_dots == 1
    assert fv.f6_length == 7
    assert abs(fv.f5_entropy - math.log2(7)) <= 1e-9

    fv = extract_all(parse_domain("covid19.com"))
    assert fv.f7_digits == 2
    assert fv.f10_digit_pct == 2 / 11
    assert fv.f11_unique_alnum == 8
    assert abs(fv.f5_entropy - 3.095795255000933) <= 1e-6
    assert abs(shannon_entropy("covid19.com") - 3.095795255000933) <= 1e-12

    one_hot = lambda f: (f.f12_tld_generic, f.f13_tld_unknown, f.f14_tld_abused)
    assert one_hot(extract_all(parse_domain("x.com"))) == (1, 0, 0)
    assert one_hot(extract_all(parse_domain("x.tk"))) == (0, 0, 1)
    assert one_hot(extract_all(parse_domain("x.io"))) == (0, 1, 0)

    lists = default_registrar_lists()
    domain = parse_domain("x.com")
    fetched = dt.date(2020, 5, 16)

    def reg_one_hot(name):
        from domaintriage.features import canonicalize_registrar
        rec = WhoisRecord(domain=domain, fetched_on=fetched, registrar_raw=name,
                          registrar_canonical=canonicalize_registrar(name, lists))
        f = extract_all(domain, rec, reference_date=fetched)
        return (f.f15_reg_popular, f.f16_reg_not_popular, f.f17_reg_bad)

    assert reg_one_hot("NameCheap, Inc.") == (1, 0, 0)
    assert reg_one_hot("Dynadot LLC") == (0, 0, 1)
    assert reg_one_hot("Tucows Domains Inc.") == (0, 1, 0)

    rng = random.Random(7)
    lo = dt.date(1995, 1, 1).toordinal()
    hi = dt.date(2035, 12, 31).toordinal()  # spans leap years incl. 2000 and 2032
    for _ in range(1000):
        a, b, c, d = sorted(rng.randint(lo, hi) for _ in range(4))
        created = dt.date.fromordinal(a)
        updated = dt.date.fromordinal(b)
        reference = dt.date.fromordinal(c)
        expires = dt.date.fromordinal(d)
        rec = WhoisRecord(domain=domain, fetched_on=reference, created=created,
                          expires=expires, updated=updated)
        f = extract_all(domain, rec, reference_date=reference)
        assert f.f1_reg_age_days == day_diff(created, reference)
        assert f.f2_expiry_days == day_diff(reference, expires)
        assert f.f3_update_age_days == day_diff(updated, reference)
    _passed(7, "hand-checked lexical/one-hot values; 1000 date pairs match the calendar oracle")


# -- 8: segmentation equals exhaustive search over a fixed vocabulary ---------

ACCEPT_VOCAB = [
    "the", "of", "and", "to", "in", "is", "for", "on", "at", "by",
    "shop", "store", "online", "buy", "sale", "best", "new", "free", "home", "web",
    "mask", "test", "virus", "covid", "corona", "care", "cure", "safe", "stay", "help",
    "san", "antonio", "news", "info", "site", "net", "world", "health", "med", "a",
    "cat", "cats", "catalog", "log", "dog", "house", "work", "live", "one", "art",
]


def test_c08_segmentation_matches_exhaustive_search():
    model = LanguageModel(words=list(ACCEPT_VOCAB))
    assert len(ACCEPT_VOCAB) == 50
    assert segment_keywords("mask", model) == ["mask"]

    rng = random.Random(8)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    cases = set()
    while len(cases) < 6000:
        s = "".join(rng.choice(ACCEPT_VOCAB) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.4:
            pos = rng.randint(0, len(s))
            noise = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            s = s[:pos] + noise + s[pos:]
        if 0 < len(s) <= 12:
            cases.add(s)
    while len(cases) < 10_000:
        cases.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))))
    for s in sorted(cases):
        assert segment_keywords(s, model) == oracle_segment(s, model), s

    expected = ["coronavirus", "prevention", "san", "antonio"]
    for _ in range(3):
        fresh = LanguageModel.default()
        assert segment_keywords("coronaviruspreventionsanantonio", fresh) == expected
    _passed(8, "10000 strings segment identically to exhaustive search; boosted split stable")


# -- 9: logistic gradient against central differences --------------------------

def test_c09_lr_gradient_and_descent():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 8))
    y = (rng.random(50) < 0.5).astype(float)
    l2 = 0.01
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        w = rng.normal(size=8)
        b = float(rng.normal())
        grad_w, grad_b = learn.lr_gradient(w, b, x, y, l2)
        for j in range(8):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            num = (learn.lr_loss(wp, b, x, y, l2) - learn.lr_loss(wm, b, x, y, l2)) / (2 * h)
            rel = abs(grad_w[j] - num) / max(abs(num), 1e-8)
            worst = max(worst, rel)
        num_b = (learn.lr_loss(w, b + h, x, y, l2) - learn.lr_loss(w, b - h, x, y, l2)) / (2 * h)
        worst = max(worst, abs(grad_b - num_b) / max(abs(num_b), 1e-8))
    assert worst <= 1e-4, worst

    blob_x = np.vstack([rng.normal(loc=-1.5, size=(40, 4)), rng.normal(loc=1.5, size=(40, 4))])
    blob_y = np.array([0] * 40 + [1] * 40, dtype=float)
    fitted = learn.train_logistic_regression(blob_x, blob_y, epochs=500)
    diffs = np.diff(fitted.losses)
    assert len(fitted.losses) == 501
    assert np.all(diffs <= 1e-12), diffs.max()
    _passed(9, f"gradient rel err {worst:.2e} <= 1e-4; loss non-increasing over 500 epochs")


# -- 10: training is deterministic, parallel equals serial ---------------------

def test_c10_train_determinism(tmp_path):
    ds = make_benchmark(600, seed=7)
    features = str(tmp_path / "features.csv")
    ingest.write_features(ds, features, dt.date(2020, 5, 16))
    sel = str(tmp_path / "selection.json")
    assert cli.main(["select", "--in", features, "--out", sel]) == 0
    model_a = str(tmp_path / "a.json")
    model_b = str(tmp_path / "b.json")
    argv = ["train", "--in", features, "--selection", sel,
            "--seed", "5", "--trees", "15"]
    assert cli.main(argv + ["--out", model_a]) == 0
    assert cli.main(argv + ["--out", model_b]) == 0
    blob_a = Path(model_a).read_bytes()
    assert blob_a == Path(model_b).read_bytes()
    assert len(blob_a) > 100
    assert json.loads(blob_a)["format_version"] == 3

    rng = np.random.default_rng(10)
    x = rng.normal(size=(300, 6))
    y = (x[:, 0] + x[:, 3] > 0).astype(int)
    serial = learn.train_random_forest(x, y, n_trees=24, seed=3, n_jobs=1)
    parallel = learn.train_random_forest(x, y, n_trees=24, seed=3, n_jobs=4)
    assert [t.to_payload() for t in serial] == [t.to_payload() for t in parallel]
    queries = rng.normal(size=(80, 6))
    assert np.array_equal(
        learn.forest_predict_proba(serial, queries),
        learn.forest_predict_proba(parallel, queries),
    )
    _passed(10, "same seed gives byte-identical model files; parallel forest equals serial")


# -- 11: a degenerate forest is exactly its single tree ------------------------

def test_c11_degenerate_forest_equals_tree():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 5))
    y = ((x[:, 1] > 0.2) | (x[:, 4] < -0.5)).astype(int)
    tree = learn.train_decision_tree(x, y, max_depth=12, min_leaf=5)
    forest = learn.train_random_forest(
        x, y, n_trees=1, bootstrap=False, max_features=x.shape[1],
        seed=0, max_depth=12, min_leaf=5,
    )
    assert len(forest) == 1
    assert forest[0].to_payload() == tree.to_payload()
    tree_p = learn.forest_predict_proba([tree], x)
    forest_p = learn.forest_predict_proba(forest, x)
    assert np.array_equal(tree_p, forest_p)
    assert np.array_equal(tree_p > 0.5, forest_p > 0.5)
    _passed(11, "one-tree forest without bagging reproduces the plain tree on all 200 rows")
