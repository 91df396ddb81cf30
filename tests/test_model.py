import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domaintriage.ingest import read_features, write_features
from domaintriage.model import (
    FEATURE_NAMES,
    DatasetRow,
    Domain,
    DomainTriageError,
    EmptyInput,
    FeatureVector,
    IllegalCharacter,
    LabeledDataset,
    WhoisRecord,
    _illegal_char,
    parse_domain,
)


def test_parse_domain_basic():
    d = parse_domain("example.com")
    assert d.raw == "example.com"
    assert d.label_part == "example"
    assert d.tld == "com"


def test_parse_domain_normalizes_case_scheme_path():
    d = parse_domain("  HTTPS://Covid-Masks.BUZZ/shop?q=1  ")
    assert d.raw == "covid-masks.buzz"
    assert d.label_part == "covid-masks"
    assert d.tld == "buzz"
    d = parse_domain("http://example.org/")
    assert d.raw == "example.org"


def test_parse_domain_splits_at_last_dot():
    d = parse_domain("shop.example.co.uk")
    assert d.label_part == "shop.example.co"
    assert d.tld == "uk"


def test_parse_domain_dotless():
    d = parse_domain("localhost")
    assert d.label_part == "localhost"
    assert d.tld == ""


def test_parse_domain_is_idempotent():
    for raw in ("a.com", "HTTP://B.net/x", "no-dots", "x.y.z.info"):
        once = parse_domain(raw)
        twice = parse_domain(once.raw)
        assert once == twice


@settings(max_examples=500, deadline=None)
@given(st.tuples(st.sampled_from(["", " ", "http://", "HTTPS://", "https://http://", "hTTp://"]),
                 st.text(), st.sampled_from(["", "/", "/x y", " ", ".com", "\n"])).map("".join))
def test_parse_domain_returns_a_domain_or_raises_and_is_idempotent(raw):
    try:
        once = parse_domain(raw)
    except DomainTriageError:
        return
    assert isinstance(once, Domain) and once.raw
    assert parse_domain(once.raw) == once


def test_parse_domain_rejects_empty_and_illegal():
    with pytest.raises(EmptyInput):
        parse_domain("   ")
    with pytest.raises(EmptyInput):
        parse_domain("https:///path/only")
    with pytest.raises(IllegalCharacter):
        parse_domain("bad domain.com")
    with pytest.raises(IllegalCharacter):
        parse_domain("tab\t.com")
    with pytest.raises(IllegalCharacter):
        parse_domain("ctrl\x01.com")


def test_parse_domain_reconstructs_raw():
    for raw in ("example.com", "a.b.c.net", "single"):
        d = parse_domain(raw)
        if d.tld:
            assert d.raw == d.label_part + "." + d.tld
        else:
            assert d.raw == d.label_part


def test_whois_record_rejects_created_after_expires():
    d = parse_domain("x.com")
    with pytest.raises(ValueError):
        WhoisRecord(
            domain=d,
            fetched_on=dt.date(2020, 5, 16),
            created=dt.date(2021, 1, 1),
            expires=dt.date(2020, 1, 1),
        )


def test_whois_record_registrar_fields_set_together():
    d = parse_domain("x.com")
    with pytest.raises(ValueError):
        WhoisRecord(domain=d, fetched_on=dt.date(2020, 5, 16), registrar_raw="GoDaddy")
    with pytest.raises(ValueError):
        WhoisRecord(domain=d, fetched_on=dt.date(2020, 5, 16), registrar_canonical="godaddy")
    rec = WhoisRecord(
        domain=d,
        fetched_on=dt.date(2020, 5, 16),
        registrar_raw="GoDaddy.com, LLC",
        registrar_canonical="godaddy",
    )
    assert rec.registrar_canonical == "godaddy"


def test_feature_names_fixed_order():
    assert FEATURE_NAMES == tuple(f"f{i}" for i in range(1, 18))


def _vector(**overrides):
    base = dict(
        f1_reg_age_days=10,
        f2_expiry_days=355,
        f3_update_age_days=4,
        f4_dots=1,
        f5_entropy=2.5,
        f6_length=9,
        f7_digits=0,
        f8_hyphens=0,
        f9_vowels=3,
        f10_digit_pct=0.0,
        f11_unique_alnum=6,
        f12_tld_generic=1,
        f13_tld_unknown=0,
        f14_tld_abused=0,
        f15_reg_popular=0,
        f16_reg_not_popular=1,
        f17_reg_bad=0,
    )
    base.update(overrides)
    return FeatureVector(**base)


def test_feature_vector_row_round_trip(tmp_path):
    fv = _vector()
    row = fv.to_row()
    assert len(row) == 17
    fv2 = _vector(f1_reg_age_days=None, f2_expiry_days=None, f3_update_age_days=None)
    row2 = fv2.to_row()
    assert row2[:3] == [None, None, None]
    d = parse_domain("x.com")
    path = str(tmp_path / "f.csv")
    write_features(LabeledDataset(rows=[DatasetRow(domain=d, label=1, features=fv),
                                        DatasetRow(domain=d, label=0, features=fv2)]), path)
    x = read_features(path).x
    assert x[0].tolist() == row
    assert np.isnan(x[1, :3]).all() and x[1, 3:].tolist() == row2[3:]


def test_feature_matrix_shapes_and_nan():
    d = parse_domain("x.com")
    rows = [
        DatasetRow(domain=d, label=1, features=_vector()),
        DatasetRow(domain=d, label=0, features=_vector(f1_reg_age_days=None)),
    ]
    ds = LabeledDataset(rows=rows)
    x, y = ds.feature_matrix()
    assert x.shape == (2, 17)
    assert y.tolist() == [1, 0]
    assert math.isnan(x[1, 0])
    assert not np.isnan(x[0]).any()
    assert ds.labels() == [1, 0]
    assert len(ds) == 2


def test_feature_matrix_requires_features():
    ds = LabeledDataset(rows=[DatasetRow(domain=parse_domain("x.com"), label=0)])
    with pytest.raises(ValueError):
        ds.feature_matrix()


def test_illegal_character_check_equals_the_per_character_rule():
    # the rule parse_domain applied character by character before it
    # used one regular expression, on every code point
    every = "".join(map(chr, range(0x110000)))
    old = [ch for ch in every if ch.isspace() or ord(ch) < 0x20 or ord(ch) == 0x7F]
    new = [ch for ch in every if _illegal_char(ch)]
    assert new == old
    assert "".join(old) == "".join(re.findall(_illegal_char.__self__, every))
