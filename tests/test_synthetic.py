import numpy as np

from domaintriage.synthetic import (
    DEFAULT_REFERENCE_DATE,
    DEFAULT_SEED,
    make_benchmark,
)


def test_benchmark_shape_and_balance():
    ds = make_benchmark(n_rows=400, seed=1)
    assert len(ds) == 400
    labels = ds.labels()
    assert sum(labels) == 200


def test_benchmark_deterministic():
    a = make_benchmark(n_rows=300, seed=7)
    b = make_benchmark(n_rows=300, seed=7)
    assert [r.domain.raw for r in a.rows] == [r.domain.raw for r in b.rows]
    xa, ya = a.feature_matrix()
    xb, yb = b.feature_matrix()
    assert (ya == yb).all()
    assert np.array_equal(xa, xb, equal_nan=True)
    c = make_benchmark(n_rows=300, seed=8)
    assert [r.domain.raw for r in a.rows] != [r.domain.raw for r in c.rows]


def test_benchmark_domains_unique():
    ds = make_benchmark(n_rows=1000, seed=2)
    names = [r.domain.raw for r in ds.rows]
    assert len(set(names)) == len(names)


def test_benchmark_whois_features_complete():
    ds = make_benchmark(n_rows=200, seed=3)
    x, _ = ds.feature_matrix()
    # f1 and f2 are present on every row (f3 may be absent only if the
    # update date landed after the reference date, which the generator
    # never does)
    assert not np.isnan(x[:, 0]).any()
    assert not np.isnan(x[:, 1]).any()


def test_benchmark_class_signal():
    ds = make_benchmark(n_rows=1000, seed=4)
    x, y = ds.feature_matrix()
    age = x[:, 0]
    # malicious registrations are fresh, benign ones old
    assert age[y == 1].max() <= 60
    assert age[y == 0].min() >= 700
    # abused TLDs concentrate in the malicious class
    abused_rate_mal = x[y == 1, 13].mean()
    abused_rate_ben = x[y == 0, 13].mean()
    assert abused_rate_mal > 0.35
    assert abused_rate_ben < 0.05


def test_benchmark_default_parameters():
    assert DEFAULT_SEED == 20200516
    assert DEFAULT_REFERENCE_DATE.isoformat() == "2020-05-16"
    ds = make_benchmark(n_rows=100)
    assert ds.labels() == [1] * 50 + [0] * 50
