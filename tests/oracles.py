"""Independent reference implementations used to check the package.

Everything here is written from the defining formula, not by calling
back into the package, so a bug in the implementation cannot hide
behind the same bug in its test.
"""

import math


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


def entropy_definitional(text: str) -> float:
    """-sum p log2 p over character frequencies."""
    n = len(text)
    freq = {}
    for ch in text:
        freq[ch] = freq.get(ch, 0) + 1
    return -math.fsum((c / n) * math.log2(c / n) for c in freq.values())


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


def forest_score_recursive(trees, row) -> float:
    """Mean leaf probability of one row over trees given as format-2
    payload dicts of plain lists: a split node i sends the row to node
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
