import csv
import datetime as dt
import json
import random
from pathlib import Path

import pytest

from domaintriage.cli import main
from domaintriage.whois import WhoisCache

REF = "2020-05-16"


def _write_feeds(tmp_path):
    rng = random.Random(99)
    mal = tmp_path / "mal.csv"
    with open(mal, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "dateadded", "domain", "threat"])
        for i in range(60):
            name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                           for _ in range(rng.randint(10, 20)))
            w.writerow([i, f"2020-04-{(i % 28) + 1:02d}", name + ".top", "phish"])
        w.writerow([98, "2020-04-02", "covid-masks-sale.buzz", "phish"])
        w.writerow([99, "2020-03-01", "tooold.example.top", "phish"])
    ben = tmp_path / "ben.csv"
    words = ["travel", "garden", "health", "market", "school", "river",
             "mountain", "bridge", "castle", "forest", "meadow", "harbor"]
    with open(ben, "w", newline="") as fh:
        w = csv.writer(fh)
        for i in range(60):
            name = rng.choice(words) + rng.choice(words) + str(rng.randint(1, 99))
            w.writerow([i + 1, name + ".com"])
    return str(mal), str(ben)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(l) for l in out.splitlines()] if out else []
    return code, lines


@pytest.fixture
def pipeline(tmp_path, capsys):
    """Run ingest + extract once and hand back the file paths."""
    mal, ben = _write_feeds(tmp_path)
    dataset = str(tmp_path / "dataset.csv")
    features = str(tmp_path / "features.csv")
    code, (summary,) = _run(
        capsys, "ingest",
        "--feed", f"{mal}:1:abuse", "--feed", f"{ben}:0:top",
        "--from", "2020-04-01", "--out", dataset,
    )
    assert code == 0
    code, _ = _run(capsys, "extract", "--in", dataset,
                   "--reference-date", REF, "--out", features)
    assert code == 0
    return {"dataset": dataset, "features": features, "tmp": tmp_path,
            "ingest_summary": summary}


def test_ingest_summary(pipeline):
    s = pipeline["ingest_summary"]
    assert s["per_feed"]["abuse"]["rows"] == 62
    assert s["per_feed"]["top"]["rows"] == 60
    assert s["date_filtered"] == 1  # the 2020-03-01 row fell outside --from
    assert s["rows"] == s["per_feed"]["abuse"]["rows"] + s["per_feed"]["top"]["rows"] \
        - s["dedup_drops"] - s["date_filtered"]
    with open(pipeline["dataset"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["domain", "label", "source", "first_seen"]
    assert len(rows) - 1 == s["rows"]


def test_extract_echoes_reference_date(pipeline, capsys):
    features2 = str(pipeline["tmp"] / "f2.csv")
    code, (summary,) = _run(capsys, "extract", "--in", pipeline["dataset"],
                            "--reference-date", REF, "--out", features2)
    assert code == 0
    assert summary["reference_date"] == REF
    assert summary["whois_missing"] == summary["rows"]
    first_line = Path(features2).read_text().splitlines()[0].strip()
    assert first_line == f"# reference_date={REF}"


def test_select_threshold_and_matrix(pipeline, capsys):
    sel = str(pipeline["tmp"] / "selection.json")
    matrix = str(pipeline["tmp"] / "matrix.csv")
    code, (summary,) = _run(capsys, "select", "--in", pipeline["features"],
                            "--threshold", "0.60", "--out", sel,
                            "--matrix-out", matrix)
    assert code == 0
    payload = json.loads(Path(sel).read_text())
    assert payload == summary
    assert payload["method"] == "correlation"
    assert payload["threshold"] == 0.60
    assert payload["indices"]
    assert payload["names"] == [f"f{i + 1}" for i in payload["indices"]]
    with open(matrix, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "" and len(header) == 18


def test_select_preset(pipeline, capsys):
    sel = str(pipeline["tmp"] / "preset.json")
    code, (summary,) = _run(capsys, "select", "--preset", "paper-d1", "--out", sel)
    assert code == 0
    assert summary["indices"] == [0, 1, 2, 4, 7, 9, 10, 11, 13, 14, 16]
    assert summary["method"] == "preset:paper-d1"
    assert summary["threshold"] is None


def test_select_requires_input_without_preset(tmp_path, capsys):
    code = main(["select", "--out", str(tmp_path / "s.json")])
    assert code == 2


def _train(pipeline, capsys, **flags):
    sel = str(pipeline["tmp"] / "selection.json")
    if not (pipeline["tmp"] / "selection.json").exists():
        _run(capsys, "select", "--in", pipeline["features"], "--out", sel)
    model = str(pipeline["tmp"] / "model.json")
    test_csv = str(pipeline["tmp"] / "test.csv")
    argv = ["train", "--in", pipeline["features"], "--selection", sel,
            "--seed", "3", "--trees", "20", "--out", model,
            "--test-out", test_csv]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    code, (summary,) = _run(capsys, *argv)
    assert code == 0
    return model, test_csv, summary


def test_train_and_evaluate(pipeline, capsys):
    model, test_csv, summary = _train(pipeline, capsys)
    assert summary["models"] == ["rf", "dt", "knn", "lr"]
    with open(pipeline["features"]) as fh:
        data_rows = sum(1 for line in fh if line.strip()) - 2  # comment + header
    assert summary["train_rows"] + summary["test_rows"] == data_rows
    assert summary["test_rows"] >= 1
    report = str(pipeline["tmp"] / "report.json")
    table = str(pipeline["tmp"] / "table.csv")
    roc = str(pipeline["tmp"] / "roc.csv")
    code, (summary2,) = _run(capsys, "evaluate", "--model", model,
                             "--in", test_csv, "--out", report,
                             "--table", table, "--roc", roc)
    assert code == 0
    names = [r["classifier"] for r in summary2["reports"]]
    assert names == ["rf", "dt", "knn", "lr", "ensemble"]
    for r in summary2["reports"]:
        assert r["acc"] >= 0.7
    payload = json.loads(Path(report).read_text())
    assert payload["reports"][0]["roc_points"][0] == [0.0, 0.0]
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["classifier", "acc", "fpr", "fnr", "auc"]
    assert len(rows) == 6
    with open(roc, newline="") as fh:
        assert next(csv.reader(fh)) == ["fpr", "tpr"]


def test_train_deterministic_model_files(pipeline, capsys):
    model_a, _, _ = _train(pipeline, capsys)
    blob_a = Path(model_a).read_bytes()
    model_b = str(pipeline["tmp"] / "model_b.json")
    sel = str(pipeline["tmp"] / "selection.json")
    code, _ = _run(capsys, "train", "--in", pipeline["features"],
                   "--selection", sel, "--seed", "3", "--trees", "20", "--jobs", "3",
                   "--out", model_b, "--test-out",
                   str(pipeline["tmp"] / "tb.csv"))
    assert code == 0
    assert blob_a == Path(model_b).read_bytes()


@pytest.mark.parametrize("flag,value,name", [
    ("trees", 0, "n_trees"), ("trees", -3, "n_trees"), ("min-leaf", 0, "min_leaf"),
    ("max-depth", -1, "max_depth"), ("knn-k", 0, "knn_k"), ("lr-epochs", -1, "lr_epochs"),
])
def test_train_rejects_bad_hyperparameter(pipeline, capsys, flag, value, name):
    sel = str(pipeline["tmp"] / "selection.json")
    _run(capsys, "select", "--in", pipeline["features"], "--out", sel)
    model = pipeline["tmp"] / "model.json"
    code = main(["train", "--in", pipeline["features"], "--selection", sel,
                 "--out", str(model), f"--{flag}", str(value)])
    assert code == 2
    assert f"{name} must be at least" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("flag,value,name", [
    ("l2", "-1", "l2"), ("l2", "nan", "l2"), ("l2", "inf", "l2"),
    ("lr-rate", "0", "lr_rate"), ("lr-rate", "-0.1", "lr_rate"), ("lr-rate", "nan", "lr_rate"),
])
def test_train_rejects_bad_float_hyperparameter(pipeline, capsys, flag, value, name):
    sel = str(pipeline["tmp"] / "selection.json")
    _run(capsys, "select", "--in", pipeline["features"], "--out", sel)
    model = pipeline["tmp"] / "model.json"
    code = main(["train", "--in", pipeline["features"], "--selection", sel,
                 "--out", str(model), f"--{flag}", value])
    assert code == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not model.exists()


def test_predict_single_and_batch(pipeline, capsys):
    model, _, _ = _train(pipeline, capsys)
    code, rows = _run(capsys, "predict", "--model", model,
                      "--domain", "x9k2q8w7e6r5t4y3.top",
                      "--reference-date", REF)
    assert code == 0
    assert rows[0]["domain"] == "x9k2q8w7e6r5t4y3.top"
    assert rows[0]["label"] in (0, 1)
    assert 0.0 <= rows[0]["score"] <= 1.0
    batch = pipeline["tmp"] / "batch.csv"
    batch.write_text("calmgarden.com\nzz91x8v7c6b5n4m3.top\n")
    code, rows = _run(capsys, "predict", "--model", model,
                      "--in", str(batch), "--reference-date", REF)
    assert code == 0
    assert [r["domain"] for r in rows] == ["calmgarden.com", "zz91x8v7c6b5n4m3.top"]


def test_whois_fetch_counts_cache_hits(pipeline, capsys, tmp_path):
    cache_path = str(tmp_path / "cache.jsonl")
    cache = WhoisCache(cache_path)
    # pre-seed every domain so the command never touches the network
    with open(pipeline["dataset"], newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        domains = [row[0] for row in reader]
    for d in domains:
        cache.put(d, f"Creation Date: 2020-04-01\nRegistrar: NameSilo, LLC\n",
                  dt.date(2020, 5, 16))
    code, (summary,) = _run(capsys, "whois-fetch", "--in", pipeline["dataset"],
                            "--cache", cache_path, "--rate", "0")
    assert code == 0
    assert summary["cache_hits"] == len(domains)
    assert summary["fetched"] == 0 and summary["failures"] == 0


def test_extract_uses_cache(pipeline, capsys, tmp_path):
    cache_path = str(tmp_path / "cache.jsonl")
    cache = WhoisCache(cache_path)
    with open(pipeline["dataset"], newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        domains = [row[0] for row in reader]
    for d in domains:
        cache.put(d, "Creation Date: 2020-04-01\nRegistry Expiry Date: 2021-04-01\n",
                  dt.date(2020, 5, 16))
    out = str(tmp_path / "fx.csv")
    code, (summary,) = _run(capsys, "extract", "--in", pipeline["dataset"],
                            "--cache", cache_path, "--reference-date", REF,
                            "--out", out)
    assert code == 0
    assert summary["whois_present"] == len(domains)
    with open(out) as fh:
        fh.readline()  # comment
        fh.readline()  # header
        first = fh.readline().split(",")
    assert first[2] == "45"  # f1: 2020-04-01 to 2020-05-16


@pytest.mark.parametrize("line", [
    "[1]",
    '{"domain": "garden.com", "fetched_on": "2020-05-01", "raw": 5}',
], ids=["not an object", "raw not a string"])
def test_extract_rejects_malformed_cache_line(pipeline, capsys, tmp_path, line):
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text(line + "\n", encoding="utf-8")
    code = main(["extract", "--in", pipeline["dataset"], "--cache", str(cache_path),
                 "--reference-date", REF, "--out", str(tmp_path / "fx.csv")])
    assert code == 1
    assert f"error: {cache_path}:1: bad cache line" in capsys.readouterr().err


def test_predict_rejects_cache_line_that_is_not_utf8(pipeline, capsys, tmp_path):
    sel, model = str(tmp_path / "sel.json"), str(tmp_path / "m.json")
    assert main(["select", "--in", pipeline["features"], "--out", sel]) == 0
    assert main(["train", "--in", pipeline["features"], "--selection", sel,
                 "--trees", "3", "--out", model]) == 0
    cache_path = tmp_path / "cache.jsonl"
    good = b'{"domain": "garden.com", "fetched_on": "2020-05-01", "raw": "ok"}\n'
    cache_path.write_bytes(good + b"\xff\xfe\n" + good)
    capsys.readouterr()
    code = main(["predict", "--model", model, "--domain", "garden.com",
                 "--cache", str(cache_path), "--reference-date", REF])
    assert code == 1
    assert f"error: {cache_path}:2: bad cache line" in capsys.readouterr().err


def test_out_of_range_whois_date_in_cache(pipeline, capsys, tmp_path):
    sel, model = str(tmp_path / "sel.json"), str(tmp_path / "m.json")
    assert main(["select", "--in", pipeline["features"], "--out", sel]) == 0
    assert main(["train", "--in", pipeline["features"], "--selection", sel,
                 "--trees", "3", "--out", model]) == 0
    capsys.readouterr()
    cache_path = str(tmp_path / "cache.jsonl")
    cache = WhoisCache(cache_path)
    cache.put("covid-masks-sale.buzz", "Creation Date: 0001-01-01T00:00:00+01:00\n"
              "Registry Expiry Date: 9999-12-31T23:59:59-01:00\n", dt.date(2020, 5, 16))
    out = str(tmp_path / "fx.csv")
    code, (summary,) = _run(capsys, "extract", "--in", pipeline["dataset"],
                            "--cache", cache_path, "--reference-date", REF, "--out", out)
    assert code == 0
    assert summary["whois_present"] == 0
    code, (line,) = _run(capsys, "predict", "--model", model, "--domain",
                         "covid-masks-sale.buzz", "--cache", cache_path,
                         "--reference-date", REF)
    assert code == 0
    assert line["domain"] == "covid-masks-sale.buzz"


def test_segment_command(capsys):
    code, (out,) = _run(capsys, "segment", "--word", "coronaviruspreventionsanantonio")
    assert code == 0
    assert out["keywords"] == ["coronavirus", "prevention", "san", "antonio"]
    code, (out,) = _run(capsys, "segment", "--word", "Covid-Test")
    assert code == 0
    assert out["keywords"] == ["covid", "test"]


def test_segment_custom_wordlist(tmp_path, capsys):
    wl = tmp_path / "words.txt"
    wl.write_text("alpha\nbeta\n")
    code, (out,) = _run(capsys, "segment", "--word", "alphabeta",
                        "--wordlist", str(wl))
    assert code == 0
    assert out["keywords"] == ["alpha", "beta"]


def test_exit_codes(tmp_path, capsys):
    # missing file: 2
    assert main(["extract", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    # schema mismatch: 2
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["extract", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    # malformed feed spec: 2 (argparse exits via SystemExit)
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--feed", "only-a-path", "--out", str(tmp_path / "d.csv")])
    assert exc.value.code == 2
    # unknown command: argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_whois_fetch_offline_failures_still_exit_zero(pipeline, capsys, tmp_path, monkeypatch):
    # point every query at localhost (nothing listens on port 43 here) so
    # the command stays offline and every fetch fails fast
    from domaintriage import whois as whois_mod
    monkeypatch.setattr(whois_mod, "DEFAULT_SERVERS", {"com": "127.0.0.1"})

    small = tmp_path / "small.csv"
    small.write_text("domain,label,source,first_seen\nx.com,0,t,\ny.com,1,t,\n")
    cache_path = str(tmp_path / "cc.jsonl")
    code, (summary,) = _run(capsys, "whois-fetch", "--in", str(small),
                            "--cache", cache_path, "--rate", "0",
                            "--timeout", "0.4")
    assert code == 0
    assert summary["failures"] == 2
    assert summary["fetched"] == 0


def test_predict_batch_lines_equal_single_lines(pipeline, capsys, tmp_path):
    with open(pipeline["dataset"], newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        labeled = [(row[0], int(row[1])) for row in reader]
    rng = random.Random(7)
    ref = dt.date(2020, 5, 16)
    cache_path = str(tmp_path / "cache.jsonl")
    cache = WhoisCache(cache_path)
    for domain, label in labeled:
        created = ref - dt.timedelta(days=rng.randint(1, 60) if label else rng.randint(300, 3000))
        expires = created + dt.timedelta(days=rng.randint(365, 730))
        updated = created + dt.timedelta(days=rng.randint(0, (ref - created).days))
        cache.put(domain, f"Creation Date: {created}\nRegistry Expiry Date: {expires}\n"
                          f"Updated Date: {updated}\n", ref)
    features = str(tmp_path / "fw.csv")
    code, _ = _run(capsys, "extract", "--in", pipeline["dataset"], "--cache", cache_path,
                   "--reference-date", REF, "--out", features)
    assert code == 0
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"indices": [0, 1, 2, 4, 5, 9]}))
    model = str(tmp_path / "mw.json")
    code, _ = _run(capsys, "train", "--in", features, "--selection", str(sel),
                   "--seed", "1", "--trees", "10", "--out", model)
    assert code == 0
    # the last domain is not in the cache, so its WHOIS features are imputed
    domains = [d for d, _ in labeled[::9]] + ["uncached-covid-relief.top"]
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(d + "\n" for d in domains))
    code, lines = _run(capsys, "predict", "--model", model, "--in", str(batch),
                       "--cache", cache_path, "--reference-date", REF)
    assert code == 0
    assert [line["domain"] for line in lines] == domains
    for line in lines:
        code, (single,) = _run(capsys, "predict", "--model", model, "--domain",
                               line["domain"], "--cache", cache_path, "--reference-date", REF)
        assert code == 0
        assert single == line


@pytest.mark.parametrize("text,why", [
    ('{"indices": ' + "[" * 100_000 + "]" * 100_000 + "}", "bad selection file"),
    ('{"indices": [1e400]}', "must be JSON integers"),
    ('{"indices": [1.5]}', "must be JSON integers"),
    ('{"indices": [true]}', "must be JSON integers"),
    ('{"indices": [0, "1"]}', "must be JSON integers"),
    ('{"indices": "12"}', "must be JSON integers"),
    ('{"indices": 3}', "bad selection file"),
    ('[0, 1]', "bad selection file"),
    ('{"indices": []}', "out of range"),
    ('{"indices": [17]}', "out of range"),
], ids=["nested", "overflow", "fraction", "bool", "string", "string-list", "scalar",
        "not-an-object", "empty", "past-the-end"])
def test_train_rejects_bad_selection_file(pipeline, capsys, text, why):
    sel = pipeline["tmp"] / "bad_selection.json"
    sel.write_text(text, encoding="utf-8")
    code = main(["train", "--in", pipeline["features"], "--selection", str(sel),
                 "--out", str(pipeline["tmp"] / "never.json")])
    assert code == 2
    assert why in capsys.readouterr().err
    assert not (pipeline["tmp"] / "never.json").exists()


@pytest.mark.parametrize("command", ["predict", "extract", "whois-fetch"])
def test_cache_line_nested_too_deep_exits_1(pipeline, capsys, tmp_path, command):
    cache = tmp_path / "deep.jsonl"
    cache.write_bytes(b'{"domain": "a.com", "fetched_on": "2020-05-01", "raw": "ok"}\n'
                      + b"[" * 200_000 + b"\n")
    if command == "predict":
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"indices": [4, 5, 9]}))
        model = str(tmp_path / "m.json")
        assert main(["train", "--in", pipeline["features"], "--selection", str(sel),
                     "--trees", "5", "--out", model]) == 0
        argv = ["predict", "--model", model, "--domain", "a.com"]
    elif command == "extract":
        argv = ["extract", "--in", pipeline["dataset"], "--out", str(tmp_path / "f.csv")]
    else:
        argv = ["whois-fetch", "--in", pipeline["dataset"]]
    capsys.readouterr()
    assert main(argv + ["--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {cache}:2: bad cache line" in captured.err
