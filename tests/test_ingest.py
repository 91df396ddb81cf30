import datetime as dt

import pytest

from domaintriage import ingest
from domaintriage.features import extract_all
from domaintriage.ingest import (
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
from domaintriage.model import DatasetRow, LabeledDataset, parse_domain

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
    back, ref = read_features(str(path))
    assert ref == REF
    assert len(back) == 2
    orig = rows[0].features
    got = back.rows[0].features
    assert got.f1_reg_age_days is None  # no WHOIS: absent survives the trip
    assert got.f5_entropy == orig.f5_entropy  # repr() keeps floats exact
    assert got.f6_length == orig.f6_length
    assert got.f14_tld_abused == 1
    assert back.rows[0].label == 1


def test_features_file_reference_comment(tmp_path):
    path = tmp_path / "f.csv"
    write_features(LabeledDataset(rows=[_row("a.com", with_features=True)]),
                   str(path), reference_date=REF)
    first = path.read_text().splitlines()[0]
    assert first == "# reference_date=2020-05-16"
    _, ref = read_features(str(path))
    assert ref == REF


def test_features_without_reference_date(tmp_path):
    path = tmp_path / "f.csv"
    write_features(LabeledDataset(rows=[_row("a.com", with_features=True)]), str(path))
    _, ref = read_features(str(path))
    assert ref is None


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
    ds, _ = read_features(str(p))
    fv = ds.rows[0].features
    assert fv.f1_reg_age_days is None
    assert fv.f2_expiry_days is None
    assert fv.f3_update_age_days is None
    assert fv.f4_dots == 1
