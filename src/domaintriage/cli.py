"""Command-line front end.

Pipeline stages communicate through files so every intermediate is
auditable: ingest → whois-fetch → extract → select → train →
evaluate/predict, plus segment for keyword splitting.  Summaries go to
stdout as JSON.  The exit code is 0 on success, and otherwise the
``exit_code`` of the DomainTriageError raised (2 for a UsageError, 1
for any other), or 2 for a path that cannot be opened.  Any other
exception is a bug, and ends in a traceback.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys

import numpy as np

from domaintriage import evaluation, ingest, learn, selection, whois
from domaintriage.atomic import atomic_write
# extract_all is not called here; perfbench/run.py traces it by this name
from domaintriage.features import extract_all, extract_matrix  # noqa: F401
from domaintriage.model import (
    FEATURE_NAMES,
    DomainTriageError,
    UsageError,
    parse_domain,
)
from domaintriage.segment import LanguageModel, segment_keywords

CACHE_ENV_VAR = "DOMAINTRIAGE_CACHE"


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date (YYYY-MM-DD): {text!r}")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _parse_feed(text: str) -> ingest.FeedSpec:
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"feed must be path:label:source, got {text!r}"
        )
    path, label, source = parts
    if label not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"feed label must be 0 or 1, got {label!r}")
    if not source:
        raise argparse.ArgumentTypeError("feed source must be non-empty")
    return ingest.FeedSpec(path=path, label=int(label), source=source)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_ingest(args) -> int:
    loaded = [ingest.load_feed(spec) for spec in args.feed]
    merged, stats = ingest.merge_dedup(loaded)
    filtered = ingest.filter_by_date(merged, args.date_from, args.date_to)
    ingest.write_dataset(filtered, args.out)
    _emit({
        "rows": len(filtered),
        "per_feed": {
            feed.spec.source: {"rows": len(feed.rows), "skipped": feed.skipped}
            for feed in loaded
        },
        "dedup_drops": stats.dedup_drops,
        "label_conflicts": stats.label_conflicts,
        "date_filtered": len(merged) - len(filtered),
        "out": args.out,
    })
    return 0


def _cmd_whois_fetch(args) -> int:
    client = whois.WhoisClient(timeout=args.timeout, min_interval=args.rate)
    dataset = ingest.read_dataset(args.infile)
    cache = whois.WhoisCache(args.cache)
    fetched = hits = failures = 0
    by_class: dict[str, int] = {}
    for row in dataset.rows:
        if row.domain.raw in cache:
            hits += 1
            continue
        try:
            cache.put(row.domain.raw, client.query(row.domain), dt.date.today())
            fetched += 1
        except whois.WhoisError as exc:
            failures += 1
            by_class[exc.kind] = by_class.get(exc.kind, 0) + 1
            print(f"{row.domain.raw}: {exc}", file=sys.stderr)
    _emit({"fetched": fetched, "cache_hits": hits, "failures": failures,
           "failures_by_class": by_class, "cache": args.cache})
    return 0


def _extract_features(domains, cache_path, reference_date) -> tuple[np.ndarray, int]:
    """The (n, 17) feature array of the domains, NaN where a feature is
    absent, with WHOIS data from the cache at ``cache_path`` (if given)
    wherever it holds the domain; and how many domains it holds."""
    found = 0

    def records(cache):
        nonlocal found
        for domain in domains:
            hit = cache.get(domain.raw) if cache is not None else None
            found += hit is not None
            # looked up on the module each call, so that a tracer's hook sees it
            yield None if hit is None else whois.parse_whois(hit[0], domain, hit[1])

    # the generator holds the only reference to the cache, so the cache
    # is freed once extract_matrix has read every record
    x = extract_matrix(
        domains, records(whois.WhoisCache(cache_path) if cache_path else None), reference_date)
    return x, found


def _cmd_extract(args) -> int:
    dataset = ingest.read_dataset(args.infile)
    reference_date = args.reference_date or dt.date.today()
    x, with_whois = _extract_features([row.domain for row in dataset.rows], args.cache, reference_date)
    table = ingest.FeatureTable(
        domains=[row.domain.raw for row in dataset.rows],
        x=x,
        y=np.array(dataset.labels(), dtype=int),
        reference_date=reference_date,
    )
    ingest.write_features(table, args.out)
    _emit({
        "rows": len(table),
        "whois_present": with_whois,
        "whois_missing": len(table) - with_whois,
        "reference_date": reference_date.isoformat(),
        "out": args.out,
    })
    return 0


def _cmd_select(args) -> int:
    if args.preset:
        indices = list(selection.PRESETS[args.preset])
        method = f"preset:{args.preset}"
        threshold = None
    else:
        if not args.infile:
            raise UsageError("--in is required unless --preset is given")
        matrix = selection.correlation_matrix(ingest.read_features(args.infile).x)
        if args.matrix_out:
            selection.write_matrix_csv(matrix, args.matrix_out)
        indices = selection.prune(matrix, args.threshold)
        method = "correlation"
        threshold = args.threshold
    payload = {
        "indices": indices,
        "names": [FEATURE_NAMES[i] for i in indices],
        "method": method,
        "threshold": threshold,
    }
    with atomic_write(args.out, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _emit(payload)
    return 0


def _read_selection(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        try:
            indices = list(json.load(fh)["indices"])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ingest.SchemaMismatch(f"{path}: bad selection file: {exc}") from exc
    if not all(type(i) is int for i in indices):
        raise ingest.SchemaMismatch(f"{path}: selection indices must be JSON integers")
    if not indices or any(i < 0 or i >= len(FEATURE_NAMES) for i in indices):
        raise ingest.SchemaMismatch(f"{path}: selection indices out of range")
    if len(set(indices)) != len(indices):
        raise ingest.SchemaMismatch(f"{path}: selection indices repeat")
    return indices


def _cmd_train(args) -> int:
    table = ingest.read_features(args.infile)
    indices = _read_selection(args.selection)
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    train_idx, test_idx = evaluation.split_indices(
        table.y, train_fraction=args.split, seed=args.seed,
        stratified=not args.no_stratify,
    )
    train = table.take(train_idx)
    model = learn.train_ensemble(
        train.x, train.y, indices, models=models, seed=args.seed,
        n_trees=args.trees, max_depth=args.max_depth, min_leaf=args.min_leaf,
        knn_k=args.knn_k, l2=args.l2, lr_rate=args.lr_rate,
        lr_epochs=args.lr_epochs,
    )
    with atomic_write(args.out, "wb") as fh:
        fh.write(learn.serialize_model(model))
    if args.test_out:
        ingest.write_features(table.take(test_idx), args.test_out)
    _emit({
        "train_rows": len(train_idx),
        "test_rows": len(test_idx),
        "models": list(models),
        "seed": args.seed,
        "selected_features": [FEATURE_NAMES[i] for i in indices],
        "out": args.out,
        "test_out": args.test_out,
    })
    return 0


def _load_model(path: str) -> learn.EnsembleModel:
    with open(path, "rb") as fh:
        return learn.deserialize_model(fh.read())


def _cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    table = ingest.read_features(args.infile)
    reports = evaluation.full_report(model, table.x, table.y)
    if args.out:
        evaluation.write_report_json(reports, args.out)
    if args.table:
        evaluation.write_report_csv(reports, args.table)
    if args.roc:
        evaluation.write_roc_csv(reports[-1].roc_points, args.roc)
    _emit({
        "rows": len(table),
        "reports": [
            {"classifier": r.classifier_name, "acc": r.acc, "fpr": r.fpr,
             "fnr": r.fnr, "auc": r.auc}
            for r in reports
        ],
    })
    return 0


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    reference_date = args.reference_date or dt.date.today()
    if args.domain is not None:
        try:
            domains = [parse_domain(args.domain)]
        except DomainTriageError as exc:
            raise UsageError(f"--domain: {exc}") from exc
    else:
        feed = ingest.load_feed(ingest.FeedSpec(path=args.infile, label=0, source="predict"))
        if feed.skipped:
            print(f"warning: {args.infile}: skipped {feed.skipped} rows whose domain does not parse",
                  file=sys.stderr)
        domains = [row.domain for row in feed.rows]
    x17, _ = _extract_features(domains, args.cache, reference_date)
    labels, scores = learn.ensemble_scores(model, x17)
    for domain, label, score in zip(domains, labels.tolist(), scores.tolist()):
        print(json.dumps({"domain": domain.raw, "label": label, "score": score},
                         sort_keys=True))
    return 0


def _cmd_segment(args) -> int:
    if args.wordlist or args.boost:
        model = LanguageModel.from_files(args.wordlist, args.boost)
    else:
        model = LanguageModel.default()
    words = segment_keywords(args.word.strip().lower(), model)
    _emit({"word": args.word, "keywords": words})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domaintriage",
        description="Detect themed malicious domains: ingest feeds, enrich with "
                    "WHOIS, extract features, select, train, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="merge labeled feeds into one dataset CSV")
    p.add_argument("--feed", type=_parse_feed, action="append", required=True,
                   metavar="PATH:LABEL:SOURCE",
                   help="feed file with its label (1 malicious, 0 benign) and source tag; repeatable")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--from", dest="date_from", type=_parse_date, default=None,
                   metavar="DATE", help="keep rows first seen on or after this date")
    p.add_argument("--to", dest="date_to", type=_parse_date, default=None,
                   metavar="DATE", help="keep rows first seen on or before this date")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("whois-fetch", help="populate the WHOIS cache for a dataset")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--cache", default=os.environ.get(CACHE_ENV_VAR, "whois_cache.jsonl"),
                   help="JSONL cache path (env %s)" % CACHE_ENV_VAR)
    p.add_argument("--timeout", "--whois-timeout", dest="timeout", type=float,
                   default=10.0,
                   help="seconds each exchange with a WHOIS server may take in all, "
                        "from connect to the last byte; finite and above 0")
    p.add_argument("--rate", type=float, default=1.0,
                   help="minimum seconds between queries to the same server; "
                        "finite and at least 0")
    p.set_defaults(func=_cmd_whois_fetch)

    p = sub.add_parser("extract", help="compute the 17 features for every domain")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--cache", default=None, help="WHOIS cache JSONL (omit to skip WHOIS features)")
    p.add_argument("--reference-date", type=_parse_date, default=None,
                   help="anchor date for day-count features (default: today)")
    p.add_argument("--out", required=True, help="output features CSV")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("select", help="choose features by correlation pruning or preset")
    p.add_argument("--in", dest="infile", default=None, help="features CSV")
    p.add_argument("--threshold", type=float, default=0.60,
                   help="drop a feature when |r| with a kept one exceeds this")
    p.add_argument("--preset", choices=sorted(selection.PRESETS), default=None,
                   help="use a published reference feature set instead of computing")
    p.add_argument("--matrix-out", default=None, help="also write the correlation matrix CSV")
    p.add_argument("--out", required=True, help="output selection JSON")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("train", help="train the majority-vote ensemble")
    p.add_argument("--in", dest="infile", required=True, help="features CSV (full dataset)")
    p.add_argument("--selection", required=True, help="selection JSON from `select`")
    p.add_argument("--models", default=",".join(learn.DEFAULT_MODELS),
                   help="comma list from rf,dt,knn,lr")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--split", type=float, default=0.8, help="training fraction")
    p.add_argument("--no-stratify", action="store_true",
                   help="plain random split instead of per-class")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the forest's trees grow in lockstep in one "
                        "thread, and the model never depends on this flag")
    p.add_argument("--trees", type=int, default=learn.DEFAULT_PARAMS["n_trees"])
    p.add_argument("--max-depth", type=int, default=learn.DEFAULT_PARAMS["max_depth"])
    p.add_argument("--min-leaf", type=int, default=learn.DEFAULT_PARAMS["min_leaf"])
    p.add_argument("--knn-k", type=int, default=learn.DEFAULT_PARAMS["knn_k"])
    p.add_argument("--l2", type=float, default=learn.DEFAULT_PARAMS["l2"])
    p.add_argument("--lr-rate", type=float, default=learn.DEFAULT_PARAMS["lr_rate"])
    p.add_argument("--lr-epochs", type=int, default=learn.DEFAULT_PARAMS["lr_epochs"])
    p.add_argument("--test-out", default=None, help="write the held-out rows to this features CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a test set and report ACC/FPR/FNR/AUC")
    p.add_argument("--model", required=True, help="model JSON from `train`")
    p.add_argument("--in", dest="infile", required=True, help="test features CSV")
    p.add_argument("--out", default=None, help="full report JSON (with ROC points)")
    p.add_argument("--table", default=None, help="summary CSV (classifier, acc, fpr, fnr, auc)")
    p.add_argument("--roc", default=None, help="ensemble ROC points CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="score one domain or a batch")
    p.add_argument("--model", required=True, help="model JSON from `train`")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--domain", default=None, help="single domain to score")
    group.add_argument("--in", dest="infile", default=None, help="CSV or list of domains")
    p.add_argument("--cache", default=os.environ.get(CACHE_ENV_VAR) or None,
                   help="WHOIS cache JSONL for day-count features")
    p.add_argument("--reference-date", type=_parse_date, default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("segment", help="split a label into dictionary words")
    p.add_argument("--word", required=True, help="text to segment (e.g. a domain label)")
    p.add_argument("--wordlist", "--model", dest="wordlist", default=None,
                   help="ranked wordlist file (default: built-in)")
    p.add_argument("--boost", default=None,
                   help="boost wordlist file (boosts the built-in wordlist without --wordlist)")
    p.set_defaults(func=_cmd_segment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainTriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a path that cannot be opened; an OSError that names no file is
        # not about an argument, so it stays a traceback
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
