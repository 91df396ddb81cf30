"""Independent reference implementations used to check the package.

Everything here is written from the defining formula, not by calling
back into the package, so a bug in the implementation cannot hide
behind the same bug in its test.
"""

import datetime as dt
import math
from collections import Counter

import numpy as np


def days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 for a proleptic Gregorian date.

    Classic era-based civil calendar arithmetic; shares no code with
    datetime, which makes it a genuine cross-check for day-count
    features.
    """
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    mp = month + (-3 if month > 2 else 9)
    doy = (153 * mp + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def day_diff(a, b) -> int:
    """Whole days from date ``a`` to date ``b``."""
    return days_from_civil(b.year, b.month, b.day) - days_from_civil(a.year, a.month, a.day)


def mann_whitney_auc(scores, labels) -> float:
    """Pairwise ranking statistic: P(score_pos > score_neg) + 0.5 P(equal)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def pearson_definitional(xs, ys):
    """Two-pass Pearson r straight from the definition, or None when
    either side is constant."""
    n = len(xs)
    if min(xs) == max(xs) or min(ys) == max(ys):
        return None
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


WHOIS_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%d-%b-%Y",
    "%d.%m.%Y",
    "%Y.%m.%d",
    "%Y/%m/%d",
    "%d-%m-%Y",
)


def whois_date_every_format(text: str):
    """A WHOIS date value parsed the plain way: ``fromisoformat``, then
    every format against each of the whole value, its first word and
    that word title-cased, first success wins; None if nothing parses."""
    text = text.strip()
    if not text:
        return None
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        parsed = dt.datetime.fromisoformat(iso)
        if parsed.tzinfo is not None:
            parsed = parsed.astimezone(dt.timezone.utc)
        return parsed.date()
    except ValueError:
        pass
    except OverflowError:  # the UTC instant is outside datetime's range
        return None
    for candidate in (text, text.split()[0], text.split()[0].title()):
        for fmt in WHOIS_DATE_FORMATS:
            try:
                return dt.datetime.strptime(candidate, fmt).date()
            except ValueError:
                continue
    return None


def entropy_definitional(text: str) -> float:
    """-sum p log2 p over character frequencies."""
    n = len(text)
    freq = {}
    for ch in text:
        freq[ch] = freq.get(ch, 0) + 1
    return -math.fsum((c / n) * math.log2(c / n) for c in freq.values())


def entropy_counter_sum(text: str) -> float:
    """Entropy as the per-name formula writes it: the terms in
    first-occurrence order, added left to right by ``sum``."""
    n = len(text)
    return -sum((c / n) * math.log2(c / n) for c in Counter(text).values())


def lexical_per_name(raw: str) -> list[float]:
    """f4..f11 of one name, each by its own formula: dots, entropy,
    length, ASCII digits, hyphens, vowels, digit share, distinct
    lower-case ASCII letters and digits."""
    digits = sum("0" <= ch <= "9" for ch in raw)
    return [raw.count("."), entropy_counter_sum(raw), len(raw), digits, raw.count("-"),
            sum(ch in "aeiou" for ch in raw), digits / len(raw),
            len({ch for ch in raw if ch in "abcdefghijklmnopqrstuvwxyz0123456789"})]


def oracle_segment(chunk: str, model):
    """Exhaustive minimum-cost segmentation of a separator-free chunk.

    Enumerates every cut mask, prices pieces with the model's own cost
    functions, skips non-canonical splits where two unknown pieces sit
    side by side (the DP always keeps unknown runs maximal), folds the
    cost right to left exactly like the DP, and breaks ties by fewest
    words then lexicographically smallest word tuple.
    """
    length = len(chunk)
    best = None
    for mask in range(1 << max(length - 1, 0)):
        pieces = []
        start = 0
        for i in range(length - 1):
            if mask >> i & 1:
                pieces.append(chunk[start:i + 1])
                start = i + 1
        pieces.append(chunk[start:])
        costs = [model.word_cost(p) for p in pieces]
        known = [c is not None for c in costs]
        if any(not known[j] and not known[j + 1] for j in range(len(pieces) - 1)):
            continue
        total = 0.0
        for piece, cost in zip(reversed(pieces), reversed(costs)):
            piece_cost = cost if cost is not None else model.oov_cost(len(piece))
            total = piece_cost + total
        candidate = (total, len(pieces), tuple(pieces))
        if best is None or candidate < best:
            best = candidate
    return list(best[2])


def _best_split_recursive(x, y, idx, feat_ids, min_leaf):
    """Exhaustive best (feature, threshold) by weighted Gini.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values; both sides must keep at least min_leaf rows.  Lower
    cost wins; ties go to the earlier feature, then lower threshold.
    Returns (cost, feature, threshold) or None.
    """
    n = len(idx)
    best = None
    for f in feat_ids:
        col = x[idx, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = y[idx][order]
        pos_cum = np.cumsum(sy)
        total_pos = int(pos_cum[-1])
        # boundary after sorted position i: left block is 0..i
        i = np.arange(min_leaf - 1, n - min_leaf)
        if len(i) == 0:
            continue
        distinct = sv[i] != sv[i + 1]
        i = i[distinct]
        if len(i) == 0:
            continue
        thresholds = (sv[i] + sv[i + 1]) / 2.0
        # adjacent representable floats: midpoint cannot separate them
        usable = (sv[i] < thresholds) & (thresholds < sv[i + 1])
        i, thresholds = i[usable], thresholds[usable]
        if len(i) == 0:
            continue
        ln = i + 1
        rn = n - ln
        lp = pos_cum[i]
        rp = total_pos - lp
        gini_l = 1.0 - (lp * lp + (ln - lp) * (ln - lp)) / (ln * ln)
        gini_r = 1.0 - (rp * rp + (rn - rp) * (rn - rp)) / (rn * rn)
        cost = (ln * gini_l + rn * gini_r) / n
        k = int(np.argmin(cost))
        if best is None or cost[k] < best[0]:
            best = (float(cost[k]), int(f), float(thresholds[k]))
    return best


def tree_recursive(x, y, max_depth, min_leaf, max_features=None, rng=None) -> dict:
    """Greedy CART-style tree on Gini impurity, grown depth first by
    recursion, one node and one feature at a time: the columns
    ``feature``, ``threshold``, ``right`` and ``prob`` of a
    ``learn.Tree`` as numpy arrays.  With ``max_features`` < p, each
    node that is not a leaf by the stop test draws a sorted subset of
    that many features from ``rng``, in preorder."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    p = x.shape[1]
    subset = max_features is not None and max_features < p
    nodes = []  # [feature, threshold, right, prob] in preorder

    def grow(idx, depth):
        pos = int(y[idx].sum())
        n = len(idx)
        node = [-1, 0.0, 0, pos / n]
        nodes.append(node)
        if pos == 0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
            return
        if subset:
            feat_ids = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feat_ids = range(p)
        found = _best_split_recursive(x, y, idx, feat_ids, min_leaf)
        if found is None:
            return
        _, f, t = found
        node[:] = [f, t, 0, 0.0]
        mask = x[idx, f] <= t
        grow(idx[mask], depth + 1)
        node[2] = len(nodes)
        grow(idx[~mask], depth + 1)

    grow(np.arange(len(x)), 0)
    feature, threshold, right, prob = np.array(nodes, dtype=float).T.copy()
    return {"feature": feature.astype(np.intp), "threshold": threshold,
            "right": right.astype(np.intp), "prob": prob}


def forest_recursive(x, y, n_trees, max_features, bootstrap, seed, max_depth, min_leaf) -> list:
    """Bagged trees one at a time: tree i takes ``default_rng(seed +
    i)``, draws its bootstrap sample from it (when ``bootstrap``), and
    grows :func:`tree_recursive` on the sampled rows with that same
    generator for its feature draws."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n, p = x.shape
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(seed + i)
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(tree_recursive(x[sample], y[sample], max_depth, min_leaf,
                                    max_features if max_features < p else None, rng))
    return trees


def forest_score_recursive(trees, row) -> float:
    """Mean leaf probability of one row over trees given as dicts of
    plain lists ``feature``, ``threshold``, ``right`` and ``prob``, the
    columns of a ``learn.Tree``: a split node i sends the row to node
    i + 1 when ``row[feature[i]] <= threshold[i]`` and to ``right[i]``
    otherwise; a leaf has feature -1.  The trees' leaf values are added
    in tree order, then divided by the tree count."""
    def walk(tree, i):
        if tree["feature"][i] == -1:
            return tree["prob"][i]
        if row[tree["feature"][i]] <= tree["threshold"][i]:
            return walk(tree, i + 1)
        return walk(tree, tree["right"][i])

    total = 0.0
    for tree in trees:
        total += walk(tree, 0)
    return total / len(trees)


def knn_score_bruteforce(train_x, train_y, query, k: int) -> float:
    """Positive fraction of the k nearest training rows of one query.

    Every squared distance is summed left to right, which is also the
    order numpy sums a row of fewer than 8 values in, and the rows are
    fully sorted by (distance, row index), so equidistant rows at the
    boundary are taken in row order.
    """
    d2 = []
    for row in train_x:
        total = 0.0
        for a, b in zip(row, query):
            d = a - b
            total += d * d
        d2.append(total)
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))
    return sum(train_y[i] for i in order[:k]) / k
