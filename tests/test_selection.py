import csv
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domaintriage.selection import (
    PRESETS,
    LengthMismatch,
    TooFewSamples,
    correlation_matrix,
    pearson,
    prune,
    write_matrix_csv,
)
from oracles import pearson_definitional


def test_pearson_hand_values():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_constant_column_undefined():
    assert pearson([5, 5, 5], [1, 2, 3]) is None
    assert pearson([1, 2, 3], [7, 7, 7]) is None
    assert pearson([0, 0], [0, 0]) is None


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(TooFewSamples):
        pearson([1], [2])


def test_pearson_matches_stdlib():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(3, 60)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        got = pearson(xs, ys)
        assert got == pytest.approx(statistics.correlation(xs, ys), abs=1e-9)
        assert got == pytest.approx(pearson_definitional(xs, ys), abs=1e-12)


def test_pearson_integer_columns():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(3, 30)
        xs = [rng.randint(0, 9) for _ in range(n)]
        ys = [rng.randint(0, 9) for _ in range(n)]
        got = pearson(xs, ys)
        want = pearson_definitional(xs, ys)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_matrix_symmetric_unit_diagonal():
    rng = random.Random(15)
    x = np.array([[rng.uniform(0, 10) for _ in range(5)] for _ in range(40)])
    m = correlation_matrix(x)
    assert m.size == 5
    for i in range(5):
        assert m.values[i][i] == pytest.approx(1.0, abs=1e-12)
        for j in range(5):
            assert m.values[i][j] == m.values[j][i]


def test_matrix_handles_nan_pairwise():
    x = np.array([
        [1.0, 1.0, np.nan],
        [2.0, 2.0, 5.0],
        [3.0, 3.0, 6.0],
        [4.0, 4.0, 4.0],
    ])
    m = correlation_matrix(x)
    # column 2 correlations use only the 3 complete rows
    expected = pearson([2, 3, 4], [5, 6, 4])
    assert m.values[0][2] == pytest.approx(expected, abs=1e-12)
    assert m.values[0][1] == pytest.approx(1.0, abs=1e-12)


def test_matrix_too_few_pairwise_rows_undefined():
    x = np.array([
        [1.0, np.nan],
        [2.0, 5.0],
        [3.0, np.nan],
    ])
    m = correlation_matrix(x)
    assert m.values[0][1] is None
    assert m.values[1][1] is None  # single present value: constant


def test_matrix_constant_column_none_diagonal():
    x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    m = correlation_matrix(x)
    assert m.values[1][1] is None
    assert m.values[0][1] is None


def test_prune_drops_correlated_keeps_first():
    # col1 duplicates col0; col2 independent
    rng = random.Random(16)
    base = [rng.uniform(0, 1) for _ in range(50)]
    other = [rng.uniform(0, 1) for _ in range(50)]
    x = np.array([[b, 2 * b + 1, o] for b, o in zip(base, other)])
    kept = prune(correlation_matrix(x), 0.60)
    assert kept == [0, 2]


def test_prune_drops_constant_columns():
    x = np.array([[1.0, 7.0, 0.5], [2.0, 7.0, 0.1], [3.0, 7.0, 0.9]])
    m = correlation_matrix(x)
    kept = prune(m, 0.60)
    assert 1 not in kept
    assert 0 in kept


def test_prune_threshold_boundary_is_strict():
    # |r| exactly at the threshold is kept; only greater is dropped
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    m = correlation_matrix(x)
    assert prune(m, 1.0) == [0, 1]


def test_prune_at_one_keeps_exact_linear_copies():
    # rounding can put |r| of an exact affine copy just above 1, and at a
    # threshold of 1.0 no non-constant column may be dropped
    rng = np.random.default_rng(21)
    for scale in (1e-3, 1e-1, 1.0, 1e2, 1e5):
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(3, 300))) * scale
            m = correlation_matrix(np.column_stack([a, 3.7 * a + 1, -a]))
            assert prune(m, 1.0) == [0, 1, 2]
            assert all(abs(r) <= 1.0 for row in m.values for r in row)
    assert prune(correlation_matrix(np.column_stack([a, a * 0 + 2, -a])), 1.0) == [0, 2]


def _column(kind, n, base, draw):
    if kind == "constant":
        return [float(draw(st.integers(-3, 3)))] * n
    if kind == "copy":  # an exact affine copy of the first column
        return [3.7 * v + 1 for v in base]
    scale = draw(st.sampled_from((1e-3, 1.0, 1e5)))
    return [draw(st.integers(-50, 50)) * scale for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matrix_matches_definitional_pearson(data):
    draw = data.draw
    n = draw(st.integers(2, 12))
    base = _column("random", n, None, draw)
    kinds = st.sampled_from(("random", "random", "constant", "copy"))
    x = np.array([base] + [_column(draw(kinds), n, base, draw)
                           for _ in range(draw(st.integers(0, 4)))]).T
    p = x.shape[1]
    if draw(st.booleans()):
        # NaN gaps, dense enough that some pairs share fewer than two rows
        gaps = draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
        x[np.array(gaps).reshape(n, p)] = np.nan
    m = correlation_matrix(x)
    for i in range(p):
        for j in range(p):
            both = ~np.isnan(x[:, i]) & ~np.isnan(x[:, j])
            want = None if both.sum() < 2 else pearson_definitional(
                list(x[both, i]), list(x[both, j]))
            got = m.values[i][j]
            if want is None:
                assert got is None
            else:
                assert got is not None and abs(got - want) <= 1e-12
                assert abs(got) <= 1.0


def test_prune_threshold_validation():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = correlation_matrix(x)
    with pytest.raises(ValueError):
        prune(m, 0.0)
    with pytest.raises(ValueError):
        prune(m, 1.5)


def test_post_prune_no_kept_pair_exceeds_threshold():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, p = 60, 8
        x = rng.normal(size=(n, p))
        # make some columns near-duplicates
        x[:, 3] = x[:, 0] * 1.5 + rng.normal(scale=0.01, size=n)
        x[:, 5] = -x[:, 1] + rng.normal(scale=0.01, size=n)
        m = correlation_matrix(x)
        kept = prune(m, 0.60)
        for a in kept:
            for b in kept:
                if a < b:
                    r = m.values[a][b]
                    assert r is not None and abs(r) <= 0.60


def test_presets():
    assert PRESETS["paper-d1"] == (0, 1, 2, 4, 7, 9, 10, 11, 13, 14, 16)
    assert PRESETS["paper-d2"] == (1, 2, 4, 7, 9, 10, 11, 13, 14, 16)
    assert set(PRESETS["paper-d2"]) == set(PRESETS["paper-d1"]) - {0}


def test_write_matrix_csv(tmp_path):
    x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    m = correlation_matrix(x)
    out = tmp_path / "matrix.csv"
    write_matrix_csv(m, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["", "f1", "f2"]
    assert rows[1][0] == "f1"
    assert float(rows[1][1]) == 1.0
    assert rows[2][2] == ""  # undefined cell stays empty
