import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domaintriage import ingest
from domaintriage.cli import main
from domaintriage.features import extract_all
from domaintriage.ingest import (
    FEATURES_HEADER,
    FeatureTable,
    FeedSpec,
    InvalidRange,
    SchemaMismatch,
    filter_by_date,
    load_feed,
    merge_dedup,
    read_dataset,
    read_features,
    write_dataset,
    write_features,
)
from domaintriage.model import (
    DatasetRow,
    DomainTriageError,
    LabeledDataset,
    normalize_domain,
    parse_domain,
)

REF = dt.date(2020, 5, 16)


def _feed_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _row(raw, label=0, source="t", first_seen=None, with_features=False):
    domain = parse_domain(raw)
    features = extract_all(domain, None, reference_date=REF) if with_features else None
    return DatasetRow(domain=domain, label=label, source=source,
                      first_seen=first_seen, features=features)


# --- feed loading -----------------------------------------------------------

def test_load_feed_with_header(tmp_path):
    path = _feed_file(tmp_path, "feed.csv",
                      "id,dateadded,domain,tag\n"
                      "1,2020-04-02,EVIL.example.COM,x\n"
                      "2,2020-04-03,http://second.net/p,y\n")
    feed = load_feed(FeedSpec(path=path, label=1, source="abuse"))
    assert [r.domain.raw for r in feed.rows] == ["evil.example.com", "second.net"]
    assert feed.rows[0].first_seen == dt.date(2020, 4, 2)
    assert feed.rows[0].label == 1
    assert feed.rows[0].source == "abuse"
    assert feed.skipped == 0


def test_load_feed_rank_domain(tmp_path):
    path = _feed_file(tmp_path, "top.csv", "1,one.com\n2,two.org\n3,three.net\n")
    feed = load_feed(FeedSpec(path=path, label=0, source="top"))
    assert [r.domain.raw for r in feed.rows] == ["one.com", "two.org", "three.net"]
    assert all(r.first_seen is None for r in feed.rows)


def test_load_feed_plain_column(tmp_path):
    path = _feed_file(tmp_path, "plain.csv", "alpha.com\nbeta.net\n\ngamma.org\n")
    feed = load_feed(FeedSpec(path=path, label=0, source="plain"))
    assert len(feed.rows) == 3


def test_load_feed_skips_bad_domains(tmp_path):
    path = _feed_file(tmp_path, "feed.csv",
                      "domain,date\nok.com,2020-01-01\nbad domain,2020-01-02\nfine.net,\n")
    feed = load_feed(FeedSpec(path=path, label=1, source="s"))
    assert [r.domain.raw for r in feed.rows] == ["ok.com", "fine.net"]
    assert feed.skipped == 1
    assert feed.rows[1].first_seen is None


def test_load_feed_empty_raises(tmp_path):
    path = _feed_file(tmp_path, "empty.csv", "\n\n")
    with pytest.raises(SchemaMismatch):
        load_feed(FeedSpec(path=path, label=0, source="s"))


def test_feed_spec_label_validation():
    with pytest.raises(ValueError):
        FeedSpec(path="x.csv", label=2, source="s")


# --- merge and dedup --------------------------------------------------------

def _loaded(source, rows, label):
    feed = ingest.LoadedFeed(spec=FeedSpec(path="mem", label=label, source=source))
    feed.rows = rows
    return feed


def test_merge_label_conflict_malicious_wins():
    benign = _loaded("b", [_row("shared.com", 0, "b")], 0)
    malicious = _loaded("m", [_row("shared.com", 1, "m")], 1)
    merged, stats = merge_dedup([benign, malicious])
    assert len(merged) == 1
    assert merged.rows[0].label == 1
    assert stats.label_conflicts == 1
    assert stats.dedup_drops == 1
    assert stats.total_in == 2
    # conflicting order reversed: malicious still wins
    merged2, _ = merge_dedup([malicious, benign])
    assert merged2.rows[0].label == 1


def test_merge_same_label_earliest_date_wins():
    a = _row("dup.com", 1, "a", dt.date(2020, 4, 10))
    b = _row("dup.com", 1, "b", dt.date(2020, 4, 2))
    merged, stats = merge_dedup([_loaded("a", [a], 1), _loaded("b", [b], 1)])
    assert merged.rows[0].first_seen == dt.date(2020, 4, 2)
    assert merged.rows[0].source == "b"
    assert stats.dedup_drops == 1
    assert stats.label_conflicts == 0


def test_merge_dated_beats_undated():
    a = _row("dup.com", 1, "a", None)
    b = _row("dup.com", 1, "b", dt.date(2020, 4, 2))
    merged, _ = merge_dedup([_loaded("a", [a], 1), _loaded("b", [b], 1)])
    assert merged.rows[0].first_seen == dt.date(2020, 4, 2)
    # but an undated row never displaces a dated one
    merged2, _ = merge_dedup([_loaded("b", [b], 1), _loaded("a", [a], 1)])
    assert merged2.rows[0].first_seen == dt.date(2020, 4, 2)


def test_merge_keeps_first_encounter_order():
    f1 = _loaded("one", [_row("a.com"), _row("b.com")], 0)
    f2 = _loaded("two", [_row("c.com"), _row("a.com")], 0)
    merged, stats = merge_dedup([f1, f2])
    assert [r.domain.raw for r in merged.rows] == ["a.com", "b.com", "c.com"]
    assert stats.kept == 3


# --- date filtering ---------------------------------------------------------

def test_filter_by_date_inclusive_window():
    rows = [
        _row("a.com", first_seen=dt.date(2020, 4, 1)),
        _row("b.com", first_seen=dt.date(2020, 4, 15)),
        _row("c.com", first_seen=dt.date(2020, 4, 30)),
        _row("d.com", first_seen=None),
    ]
    ds = LabeledDataset(rows=rows)
    out = filter_by_date(ds, dt.date(2020, 4, 15), dt.date(2020, 4, 30))
    assert [r.domain.raw for r in out.rows] == ["b.com", "c.com", "d.com"]
    out2 = filter_by_date(ds, None, dt.date(2020, 4, 14))
    assert [r.domain.raw for r in out2.rows] == ["a.com", "d.com"]


def test_filter_by_date_bad_window():
    ds = LabeledDataset(rows=[_row("a.com")])
    with pytest.raises(InvalidRange):
        filter_by_date(ds, dt.date(2020, 5, 1), dt.date(2020, 4, 1))


# --- dataset CSV ------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    rows = [
        _row("evil.top", 1, "feedx", dt.date(2020, 4, 2)),
        _row("fine.com", 0, "feedy", None),
    ]
    path = tmp_path / "dataset.csv"
    write_dataset(LabeledDataset(rows=rows), str(path))
    back = read_dataset(str(path))
    assert len(back) == 2
    assert back.rows[0].domain.raw == "evil.top"
    assert back.rows[0].label == 1
    assert back.rows[0].source == "feedx"
    assert back.rows[0].first_seen == dt.date(2020, 4, 2)
    assert back.rows[1].first_seen is None


def test_read_dataset_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope,header\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_dataset(str(p))
    p.write_text("domain,label,source,first_seen\nx.com,7,s,\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_dataset(str(p))
    p.write_text("domain,label,source,first_seen\nx.com,1\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_dataset(str(p))
    p.write_text("domain,label,source,first_seen\nbad domain,1,s,\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_dataset(str(p))
    p.write_text("", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_dataset(str(p))


# --- features CSV -----------------------------------------------------------

def test_features_round_trip(tmp_path):
    rows = [
        _row("covid-mask.buzz", 1, with_features=True),
        _row("garden.com", 0, with_features=True),
    ]
    path = tmp_path / "features.csv"
    write_features(LabeledDataset(rows=rows), str(path), reference_date=REF)
    back = read_features(str(path))
    assert back.reference_date == REF
    assert len(back) == 2
    assert back.domains == ["covid-mask.buzz", "garden.com"]
    orig = rows[0].features
    got = back.x[0]
    assert math.isnan(got[0])  # no WHOIS: absent survives the trip
    assert got[4] == orig.f5_entropy  # repr() keeps floats exact
    assert got[5] == orig.f6_length
    assert got[13] == 1  # f14_tld_abused
    assert back.y[0] == 1


def test_features_file_reference_comment(tmp_path):
    path = tmp_path / "f.csv"
    write_features(LabeledDataset(rows=[_row("a.com", with_features=True)]),
                   str(path), reference_date=REF)
    first = path.read_text().splitlines()[0]
    assert first == "# reference_date=2020-05-16"
    assert read_features(str(path)).reference_date == REF


def test_features_without_reference_date(tmp_path):
    path = tmp_path / "f.csv"
    write_features(LabeledDataset(rows=[_row("a.com", with_features=True)]), str(path))
    assert read_features(str(path)).reference_date is None


def test_read_features_schema_errors(tmp_path):
    p = tmp_path / "f.csv"
    header = "domain,label," + ",".join(f"f{i}" for i in range(1, 18))
    ok_vals = ",".join(["1"] * 14)
    # blank in a non-f1..f3 column
    p.write_text(f"{header}\nx.com,1,,,,{ok_vals[2:]},\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_features(str(p))
    # non-numeric cell
    p.write_text(f"{header}\nx.com,1,1,2,3,hello,{ok_vals[:-2]}\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_features(str(p))
    # wrong header
    p.write_text("domain,label,f1\nx.com,1,2\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_features(str(p))


def test_read_features_blank_whois_cells_ok(tmp_path):
    p = tmp_path / "f.csv"
    header = "domain,label," + ",".join(f"f{i}" for i in range(1, 18))
    vals = ",,," + ",".join(["1"] * 14)
    p.write_text(f"{header}\nx.com,0,{vals}\n", encoding="utf-8")
    x = read_features(str(p)).x
    assert math.isnan(x[0, 0])
    assert math.isnan(x[0, 1])
    assert math.isnan(x[0, 2])
    assert x[0, 3] == 1


def _features_file(tmp_path, *rows, comment=True):
    path = tmp_path / "f.csv"
    head = "# reference_date=2020-05-16\n" if comment else ""
    path.write_text(head + ",".join(FEATURES_HEADER) + "\n"
                    + "".join(row + "\n" for row in rows), encoding="utf-8")
    return str(path)


def _cells(**cells):
    """A features row for x.com, label 1: every feature 1 unless given."""
    return "x.com,1," + ",".join(cells.get(f"f{i}", "1") for i in range(1, 18))


@pytest.mark.parametrize("column, cell, reason", [
    ("f1", "inf", "is not finite"),
    ("f1", "1e400", "is not finite"),
    ("f1", "nan", "is not finite"),
    ("f6", "-inf", "is not finite"),
    ("f5", "inf", "is not finite"),
    ("f10", "NaN", "is not finite"),
    ("f4", "3.7", "is not an integer"),
    ("f1", "3.7", "is not an integer"),
    ("f17", "1e-300", "is not an integer"),
])
def test_read_features_rejects_non_finite_and_fractional(tmp_path, capsys, column, cell, reason):
    path = _features_file(tmp_path, _cells(), _cells(**{column: cell}))
    with pytest.raises(SchemaMismatch) as exc:
        read_features(path)
    # line 1 is the comment, line 2 the header, line 4 the bad row
    assert str(exc.value).startswith(f"{path}:4: {column} {reason}")
    assert main(["select", "--in", path, "--out", str(tmp_path / "s.json")]) == 2
    assert f"error: {path}:4: {column} {reason}" in capsys.readouterr().err


def test_read_features_rejects_nan_cell_in_a_row_with_blanks(tmp_path):
    path = _features_file(tmp_path, _cells(f1="", f2="nan", f3=""), comment=False)
    with pytest.raises(SchemaMismatch, match=r":2: f2 is not finite"):
        read_features(path)


def test_read_features_integral_cells(tmp_path):
    path = _features_file(tmp_path, _cells(f4="3.0", f6="-0", f7="1e2", f5="-0.0"))
    x = read_features(path).x
    assert x[0, 3] == 3 and x[0, 6] == 100
    assert math.copysign(1.0, x[0, 5]) == 1.0  # "-0" in an integer column is 0
    assert math.copysign(1.0, x[0, 4]) == -1.0  # f5 keeps its sign


def test_read_features_error_names_the_physical_line(tmp_path):
    path = _features_file(tmp_path, _cells(), "", _cells(f8=""))
    with pytest.raises(SchemaMismatch, match=r":5: only f1..f3 may be blank, f8 is not"):
        read_features(path)


def test_read_features_comments_only_before_the_header(tmp_path):
    path = _features_file(tmp_path, _cells(), "#tag.com" + _cells()[5:])
    table = read_features(path)
    assert table.domains == ["x.com", "#tag.com"]
    assert table.reference_date == REF


def test_feature_table_take_keeps_order_and_reference_date():
    table = FeatureTable(["a.com", "b.com", "c.com"], np.arange(51.0).reshape(3, 17),
                         np.array([0, 1, 0]), REF)
    part = table.take(np.array([2, 0]))
    assert part.domains == ["c.com", "a.com"]
    assert part.x.tolist() == [table.x[2].tolist(), table.x[0].tolist()]
    assert part.y.tolist() == [0, 0]
    assert part.reference_date == REF
    assert len(part) == 2


@pytest.mark.parametrize("column, value", [
    (4, math.inf), (4, math.nan), (3, math.nan), (0, math.inf), (5, 3.5),
])
def test_write_features_rejects_what_read_features_would(tmp_path, column, value):
    x = np.ones((2, 17))
    x[1, column] = value
    table = FeatureTable(["a.com", "b.com"], x, np.array([0, 1]))
    with pytest.raises(ValueError, match=rf"^b\.com: {FEATURES_HEADER[column + 2]} is not"):
        write_features(table, str(tmp_path / "f.csv"))


def test_write_features_rejects_bad_shapes_and_labels(tmp_path):
    path = str(tmp_path / "f.csv")
    with pytest.raises(ValueError):
        write_features(FeatureTable(["a.com"], np.ones((1, 16)), np.array([0])), path)
    with pytest.raises(ValueError):
        write_features(FeatureTable(["a.com"], np.ones((1, 17)), np.array([0, 1])), path)
    with pytest.raises(ValueError):
        write_features(FeatureTable(["a.com"], np.ones((1, 17)), np.array([2])), path)


# --- files the csv module or the decoder cannot read -----------------------

_OVERSIZED = "a" * 200_000 + ".com"


@pytest.mark.parametrize("content", [
    f"domain,date\n{_OVERSIZED},2020-01-01\n".encode(),
    b"domain,date\nok.com,2020-01-01\n\xff\xfe.com,2020-01-02\n",
], ids=["oversized field", "not utf-8"])
def test_load_feed_unreadable_csv(tmp_path, content):
    path = tmp_path / "feed.csv"
    path.write_bytes(content)
    with pytest.raises(SchemaMismatch, match=f"^{path}: unreadable CSV"):
        load_feed(FeedSpec(path=str(path), label=1, source="s"))


@pytest.mark.parametrize("content", [
    f"domain,label,source,first_seen\n{_OVERSIZED},1,s,\n".encode(),
    b"domain,label,source,first_seen\n\xffx.com,1,s,\n",
], ids=["oversized field", "not utf-8"])
def test_read_dataset_unreadable_csv(tmp_path, content):
    path = tmp_path / "dataset.csv"
    path.write_bytes(content)
    with pytest.raises(SchemaMismatch, match=f"^{path}: unreadable CSV"):
        read_dataset(str(path))


@pytest.mark.parametrize("content", [
    (",".join(FEATURES_HEADER) + f"\n{_OVERSIZED},1," + ",".join(["1"] * 17) + "\n").encode(),
    b"# reference_date=2020-05-16\n\xff\n",
], ids=["oversized field", "not utf-8"])
def test_read_features_unreadable_csv(tmp_path, content):
    path = tmp_path / "f.csv"
    path.write_bytes(content)
    with pytest.raises(SchemaMismatch, match=f"^{path}: unreadable CSV"):
        read_features(str(path))


@pytest.mark.parametrize("command", ["ingest", "whois-fetch", "extract"])
def test_cli_unreadable_csv_exits_2(tmp_path, capsys, command):
    path = tmp_path / "in.csv"
    path.write_text(f"domain,label,source,first_seen\n{_OVERSIZED},1,s,\n", encoding="utf-8")
    out = str(tmp_path / "out.csv")
    argv = {
        "ingest": ["ingest", "--feed", f"{path}:1:s", "--out", out],
        "whois-fetch": ["whois-fetch", "--in", str(path), "--cache", str(tmp_path / "c.jsonl")],
        "extract": ["extract", "--in", str(path), "--out", out],
    }[command]
    assert main(argv) == 2
    assert f"error: {path}: unreadable CSV" in capsys.readouterr().err


# --- properties -------------------------------------------------------------

_CELL = st.one_of(
    st.sampled_from(["", " ", "0", "1", "-0", "3.7", "1e400", "nan", "inf", "-inf", "1_0",
                     "x", '"', '"a,b"', "a.com", "HTTP://A.com/x", "/", "\x00", "\r", "é"]),
    st.text(max_size=4),
    st.integers().map(str),
    st.floats().map(repr),
)
_FEATURE_ROW = st.tuples(_CELL, st.sampled_from(["0", "1", "2", ""]),
                         st.lists(_CELL, min_size=16, max_size=18)).map(
    lambda t: ",".join([t[0], t[1], *t[2]]))
_ROWS = st.lists(st.one_of(_FEATURE_ROW, st.lists(_CELL, max_size=5).map(",".join)),
                 max_size=5).map("\n".join)
_ANY_CSV = st.one_of(
    st.text(),
    st.binary().map(lambda b: b.decode("latin-1")),
    _ROWS,
    st.tuples(st.sampled_from(["", "# reference_date=2020-05-16\n", "#x\n"]),
              st.sampled_from([",".join(FEATURES_HEADER), "domain,label,source,first_seen",
                               "domain,date", "1,a.com"]),
              _ROWS).map(lambda t: f"{t[0]}{t[1]}\n{t[2]}"),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_ANY_CSV, raw=st.binary(max_size=40))
def test_readers_return_or_raise_domain_error(tmp_path, text, raw):
    path = tmp_path / "any.csv"
    for content in (text.encode("utf-8", "surrogatepass"), raw):
        path.write_bytes(content)
        for read in (read_features, read_dataset,
                     lambda p: load_feed(FeedSpec(path=p, label=0, source="s"))):
            try:
                read(str(path))
            except DomainTriageError:
                pass


def _is_normalized(text):
    try:
        return normalize_domain(text) == text
    except DomainTriageError:
        return False


# text a UTF-8 file can hold; characters that mean something to the CSV
# layer come up often
_DOMAIN = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from('#,"\'.-')),
                  min_size=1, max_size=12).filter(_is_normalized)
_INTEGRAL = st.one_of(st.integers(-2**53, 2**53).map(float),
                      st.floats(allow_nan=False, allow_infinity=False).map(
                          lambda v: float(math.trunc(v))))
_FRACTION = st.floats(allow_nan=False, allow_infinity=False)


_FEATURE_VALUES = st.tuples(*[
    _FRACTION if name in ("f5", "f10")
    else st.one_of(_INTEGRAL, st.just(math.nan)) if name in ("f1", "f2", "f3")
    else _INTEGRAL
    for name in FEATURES_HEADER[2:]
])


@st.composite
def _tables(draw):
    rows = draw(st.lists(st.tuples(_DOMAIN, st.sampled_from([0, 1]), _FEATURE_VALUES),
                         max_size=6))
    return FeatureTable([d for d, _, _ in rows],
                        np.array([v for _, _, v in rows], dtype=float).reshape(-1, 17),
                        np.array([y for _, y, _ in rows], dtype=int),
                        draw(st.none() | st.dates()))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_write_then_read_features_is_bit_exact(tmp_path, table):
    path = str(tmp_path / "f.csv")
    write_features(table, path)
    back = read_features(path)
    assert back.domains == table.domains
    assert back.y.tolist() == table.y.tolist()
    assert back.reference_date == table.reference_date
    assert back.x.shape == table.x.shape
    assert back.x.view(np.uint64).tolist() == table.x.view(np.uint64).tolist()
