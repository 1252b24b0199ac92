"""Brute-force reference implementations shared across test modules.

These enumerate every monotonic segmentation of m frames into n contiguous
nonempty phoneme runs, so they are exact (and exponentially slow): keep n and
m small.
"""

import itertools

import numpy as np


def all_paths(n, m):
    for cuts in itertools.combinations(range(1, m), n - 1):
        bounds = (0,) + cuts + (m,)
        labels = np.empty(m, dtype=np.int64)
        for i in range(n):
            labels[bounds[i] : bounds[i + 1]] = i
        yield bounds, labels


def enumerate_paths_logsumexp(logp):
    """(loss, posterior) by summing every monotonic path in log space."""
    n, m = logp.shape
    assert m >= n
    scores = []
    paths = []
    for _, labels in all_paths(n, m):
        scores.append(logp[labels, np.arange(m)].sum())
        paths.append(labels)
    scores = np.array(scores)
    hi = scores.max()
    logz = hi + np.log(np.exp(scores - hi).sum())
    post = np.zeros_like(logp)
    for weight, labels in zip(np.exp(scores - logz), paths):
        post[labels, np.arange(m)] += weight
    return -logz, post


def best_path_durations(logp):
    n, m = logp.shape
    best = None
    best_score = -np.inf
    for bounds, labels in all_paths(n, m):
        score = logp[labels, np.arange(m)].sum()
        if score > best_score + 1e-12:
            best_score = score
            best = np.diff(bounds)
    return np.asarray(best, dtype=np.int64)


def random_grids(count, seed, n_max=6, m_max=10):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(n, m_max + 1))
        yield rng.standard_normal((n, m)) * 2.0


def dtw_reference(cost):
    """(accumulated table, path) by the cell-by-cell DTW loop: steps (1,0),
    (0,1), (1,1); the backtrack prefers the diagonal, then up, on ties."""
    a, b = cost.shape
    acc = np.empty((a, b), dtype=cost.dtype)
    acc[0, 0] = cost[0, 0]
    for j in range(1, b):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, a):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        row = acc[i]
        prow = acc[i - 1]
        for j in range(1, b):
            best = prow[j - 1]
            if prow[j] < best:
                best = prow[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = cost[i, j] + best
    path = []
    i, j = a - 1, b - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
    path.reverse()
    return acc, np.asarray(path, dtype=np.int64)
