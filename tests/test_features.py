import datetime as dt
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domaintriage import features
from domaintriage.features import (
    RegistrarLists,
    TldLists,
    canonicalize_registrar,
    default_registrar_lists,
    default_tld_lists,
    extract_all,
    extract_matrix,
    lexical_features,
    registrar_features,
    shannon_entropy,
    tld_features,
    whois_age_features,
)
from domaintriage.model import EmptyInput, WhoisRecord, parse_domain
from oracles import day_diff, entropy_counter_sum, entropy_definitional, lexical_per_name

REF = dt.date(2020, 5, 16)


def _record(created=None, expires=None, updated=None, registrar=None, domain="x.com"):
    d = parse_domain(domain)
    canonical = canonicalize_registrar(registrar) if registrar else None
    return WhoisRecord(
        domain=d, fetched_on=REF, created=created, expires=expires,
        updated=updated, registrar_raw=registrar, registrar_canonical=canonical,
    )


def test_entropy_uniform_characters():
    # seven distinct characters, each once
    assert math.isclose(shannon_entropy("any.com"), math.log2(7), abs_tol=1e-12)
    assert shannon_entropy("aaaa") == 0.0


def test_entropy_known_value():
    assert abs(shannon_entropy("covid19.com") - 3.095795255000933) < 1e-9


def test_entropy_empty_raises():
    with pytest.raises(EmptyInput):
        shannon_entropy("")


def test_entropy_matches_definition_on_random_strings():
    rng = random.Random(41)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        assert abs(shannon_entropy(text) - entropy_definitional(text)) < 1e-12


def test_lexical_features_hand_case():
    feats = lexical_features(parse_domain("covid19.com"))
    assert feats["f4"] == 1
    assert feats["f6"] == 11
    assert feats["f7"] == 2
    assert feats["f8"] == 0
    assert feats["f9"] == 3  # o, i, o
    assert feats["f10"] == 2 / 11
    assert feats["f11"] == 8  # c o v i d 1 9 m


def test_lexical_features_hyphens_and_dots():
    feats = lexical_features(parse_domain("a-b-c.co.uk"))
    assert feats["f4"] == 2
    assert feats["f8"] == 2
    assert feats["f6"] == 11
    assert feats["f7"] == 0
    assert feats["f10"] == 0.0


def test_lexical_features_random_recount():
    rng = random.Random(42)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
    for _ in range(200):
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25))).strip("-")
        if not label:
            continue
        raw = label + "." + rng.choice(["com", "top", "io"])
        feats = lexical_features(parse_domain(raw))
        assert feats["f4"] == raw.count(".")
        assert feats["f6"] == len(raw)
        assert feats["f7"] == sum(raw.count(c) for c in "0123456789")
        assert feats["f8"] == raw.count("-")
        assert feats["f9"] == sum(raw.count(c) for c in "aeiou")
        assert feats["f10"] == feats["f7"] / len(raw)
        assert feats["f11"] == len(set(raw) - {".", "-"})


def test_tld_one_hot():
    assert tld_features(parse_domain("x.com")) == (1, 0, 0)
    assert tld_features(parse_domain("x.tk")) == (0, 0, 1)
    assert tld_features(parse_domain("x.io")) == (0, 1, 0)
    assert tld_features(parse_domain("dotless")) == (0, 1, 0)


def test_tld_lists_reject_overlap():
    with pytest.raises(ValueError):
        TldLists(generic=frozenset({"com"}), abused=frozenset({"com", "tk"}))


def test_registrar_lists_reject_overlap():
    with pytest.raises(ValueError):
        RegistrarLists(popular=frozenset({"godaddy"}), bad=frozenset({"godaddy"}))


def test_canonicalize_drops_corporate_suffixes():
    assert canonicalize_registrar("GoDaddy.com, LLC") == "godaddy"
    assert canonicalize_registrar("NameCheap, Inc.") == "namecheap"
    assert canonicalize_registrar("Dynadot LLC") == "dynadot"
    assert canonicalize_registrar("NameSilo, LLC") == "namesilo"


def test_canonicalize_prefix_requires_word_boundary():
    # "godaddyish" must not match the "godaddy" prefix
    assert canonicalize_registrar("godaddyish registry") == "godaddyish registry"
    assert canonicalize_registrar("GoDaddy Operating Company") == "godaddy"


def test_canonicalize_unmapped_passes_through_cleaned():
    assert canonicalize_registrar("Totally New Registrar Ltd.") == "totally new registrar"


def test_registrar_one_hot():
    assert registrar_features(None) == (0, 0, 0)
    assert registrar_features(_record()) == (0, 0, 0)
    assert registrar_features(_record(registrar="NameCheap, Inc.")) == (1, 0, 0)
    assert registrar_features(_record(registrar="Dynadot LLC")) == (0, 0, 1)
    assert registrar_features(_record(registrar="Tucows Domains Inc.")) == (0, 1, 0)


def test_default_lists_disjoint():
    tl = default_tld_lists()
    assert not tl.generic & tl.abused
    rl = default_registrar_lists()
    assert not rl.popular & rl.bad
    for target in rl.canonical_map.values():
        assert target == target.lower()


def test_whois_age_features_day_counts():
    rec = _record(
        created=dt.date(2020, 2, 1),
        expires=dt.date(2021, 2, 1),
        updated=dt.date(2020, 5, 1),
    )
    f1, f2, f3 = whois_age_features(rec, REF)
    assert f1 == 105
    assert f2 == 261
    assert f3 == 15


def test_whois_age_features_absent_rules():
    assert whois_age_features(None, REF) == (None, None, None)
    # created after the reference date: age is absent, not negative
    rec = _record(created=dt.date(2020, 6, 1))
    assert whois_age_features(rec, REF)[0] is None
    # expiry before the reference date: days-to-expiry absent
    rec = _record(created=dt.date(2019, 1, 1), expires=dt.date(2020, 1, 1))
    assert whois_age_features(rec, REF)[1] is None
    # updated after the reference date: absent
    rec = _record(updated=dt.date(2020, 6, 1))
    assert whois_age_features(rec, REF)[2] is None
    # boundary: same day counts as zero, not absent
    rec = _record(created=REF, expires=REF, updated=REF)
    assert whois_age_features(rec, REF) == (0, 0, 0)


def test_day_counts_match_calendar_oracle():
    rng = random.Random(2020)
    for _ in range(1000):
        base = dt.date(rng.randint(1995, 2031), rng.randint(1, 12), rng.randint(1, 28))
        ref = base + dt.timedelta(days=rng.randint(0, 4000))
        rec = _record(created=base, updated=base)
        f1, _, f3 = whois_age_features(rec, ref)
        expected = day_diff(base, ref)
        assert f1 == expected
        assert f3 == expected
        rec2 = _record(expires=ref + dt.timedelta(days=0))
        exp = ref + dt.timedelta(days=rng.randint(0, 1500))
        rec2 = _record(expires=exp)
        assert whois_age_features(rec2, ref)[1] == day_diff(ref, exp)


def test_day_counts_span_leap_years():
    rec = _record(created=dt.date(2020, 2, 28))
    assert whois_age_features(rec, dt.date(2020, 3, 1))[0] == 2  # 2020 is a leap year
    rec = _record(created=dt.date(2019, 2, 28))
    assert whois_age_features(rec, dt.date(2019, 3, 1))[0] == 1
    rec = _record(created=dt.date(2000, 2, 28))  # century leap year
    assert whois_age_features(rec, dt.date(2000, 3, 1))[0] == 2


def test_extract_all_composition():
    d = parse_domain("covid-masks.buzz")
    rec = WhoisRecord(
        domain=d, fetched_on=REF,
        created=dt.date(2020, 4, 1), expires=dt.date(2021, 4, 1),
        updated=dt.date(2020, 4, 2),
        registrar_raw="NameSilo, LLC", registrar_canonical="namesilo",
    )
    fv = extract_all(d, rec, reference_date=REF)
    assert fv.f1_reg_age_days == 45
    assert fv.f2_expiry_days == 320
    assert fv.f3_update_age_days == 44
    assert fv.f4_dots == 1
    assert fv.f6_length == 16
    assert fv.f8_hyphens == 1
    assert (fv.f12_tld_generic, fv.f13_tld_unknown, fv.f14_tld_abused) == (0, 0, 1)
    assert (fv.f15_reg_popular, fv.f16_reg_not_popular, fv.f17_reg_bad) == (0, 0, 1)


def test_extract_all_without_whois():
    fv = extract_all(parse_domain("example.com"), None, reference_date=REF)
    assert fv.f1_reg_age_days is None
    assert fv.f2_expiry_days is None
    assert fv.f3_update_age_days is None
    assert (fv.f15_reg_popular, fv.f16_reg_not_popular, fv.f17_reg_bad) == (0, 0, 0)
    assert fv.f12_tld_generic == 1


def test_one_hot_groups_sum():
    rng = random.Random(7)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    tlds = ["com", "tk", "io", "buzz", "xyz", "dev", ""]
    for _ in range(100):
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
        tld = rng.choice(tlds)
        raw = label + ("." + tld if tld else "")
        fv = extract_all(parse_domain(raw), None, reference_date=REF)
        assert fv.f12_tld_generic + fv.f13_tld_unknown + fv.f14_tld_abused == 1
        assert fv.f15_reg_popular + fv.f16_reg_not_popular + fv.f17_reg_bad == 0


# --- the columnar kernel ------------------------------------------------------

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_entropy_of_one_repeated_character_is_negative_zero():
    assert math.copysign(1.0, shannon_entropy("aaaa")) == -1.0
    assert _bits([shannon_entropy("x")]) == _bits([entropy_counter_sum("x")])


# names the per-name formulas see as any other text: non-ASCII letters,
# digits of other scripts, NUL and a lone surrogate among them
_name = st.text(alphabet=st.one_of(st.sampled_from("abcdeiou0123456789.-"),
                                   st.sampled_from("ÄéΩ٣\x00\ud800𝔸"),
                                   st.characters()),
                min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.one_of(_name, st.builds(lambda ch, k: ch * k, _name, st.integers(1, 60))),
                      min_size=1, max_size=30),
       block=st.integers(1, 8))
def test_kernel_equals_per_name_formulas_bit_for_bit(names, block):
    # a block of at most ``block`` names, so most lists span several
    with mock.patch.object(features, "_LEX_BLOCK", block):
        got = features._lexical_matrix(names)
    assert _bits(got) == _bits([lexical_per_name(name) for name in names])


def test_kernel_equals_per_name_formulas_on_every_two_character_split():
    # every share c/n with n <= 160: numpy's own log2 rounds some of them
    # differently from math.log2
    names = ["a" * c + "-" * (n - c) for n in range(1, 161) for c in range(1, n + 1)]
    assert _bits(features._lexical_matrix(names)) == _bits([lexical_per_name(s) for s in names])


def test_kernel_rejects_an_empty_name():
    with pytest.raises(EmptyInput):
        features._lexical_matrix(["a.com", ""])


def test_extract_matrix_rows_equal_extract_all():
    rng = random.Random(16)
    domains = [parse_domain("".join(rng.choice("abcz019-") for _ in range(rng.randint(1, 20)))
                            + rng.choice([".com", ".tk", ".io", ""]))
               for _ in range(300)]
    registrars = ["NameCheap, Inc.", "Dynadot LLC", "Tucows Domains Inc.", None]
    records = [None if i % 4 == 0 else _record(
        created=REF - dt.timedelta(days=rng.randint(-5, 900)),
        expires=REF + dt.timedelta(days=rng.randint(-5, 900)),
        updated=REF - dt.timedelta(days=rng.randint(-5, 50)),
        registrar=registrars[i % 4], domain=d.raw) for i, d in enumerate(domains)]
    x = extract_matrix(domains, iter(records), REF)
    rows = [[math.nan if v is None else v for v in extract_all(d, r, reference_date=REF).to_row()]
            for d, r in zip(domains, records)]
    assert _bits(x) == _bits(rows)


def test_extract_matrix_needs_one_record_per_domain():
    domains = [parse_domain("a.com"), parse_domain("b.com")]
    assert extract_matrix([], [], REF).shape == (0, 17)
    for records in ([None], [None, None, None]):
        with pytest.raises(ValueError, match="2 domains need 2 WHOIS records"):
            extract_matrix(domains, records, REF)


def test_registrar_lists_keep_a_read_only_copy_of_the_map():
    mapping = {"go": "short", "godaddy": "godaddy"}
    lists = RegistrarLists(popular=frozenset({"godaddy"}), bad=frozenset(), canonical_map=mapping)
    mapping["godaddy"] = "changed"  # the lists keep their own copy
    with pytest.raises(TypeError):
        lists.canonical_map["go"] = "x"
    assert lists == RegistrarLists(popular=frozenset({"godaddy"}), bad=frozenset(),
                                   canonical_map={"go": "short", "godaddy": "godaddy"})
    # the longer key wins, however often the same raw name comes back
    for _ in range(3):
        assert canonicalize_registrar("GoDaddy LLC", lists) == "godaddy"
        assert canonicalize_registrar("go daddy", lists) == "short"
