"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

The jitted path is used when numba imports cleanly unless the environment
variable ``HYPERADAPT_NO_NUMBA`` is set to a non-empty value other than "0".
``ACTIVE_BACKEND`` reports which path is live. Both paths are always defined
(``*_np`` / ``*_nb`` suffixes) so benchmarks/bench_kernels.py can time them
side by side in one process.

Kernels here are the inner loops that dominate runtime: 1D convolution
forward/backward, the monotonic forward-sum DP and its posterior gradient,
Viterbi path extraction, and DTW frame pairing.

The numpy twins keep Python work per call small: the conv builds its im2col
matrix from K shifted slices of the padded input (a K=1 conv is a plain
matmul), the alignment DPs write each frame's row of their tables in place
with no per-frame allocation, and DTW fills its accumulated-cost table one
anti-diagonal at a time (a few vector ops per diagonal, bit-identical to the
cell-by-cell recurrence, same tie rule on the way back).
"""

import os

import numpy as np

_NEG_INF = -np.inf

_disabled = os.environ.get("HYPERADAPT_NO_NUMBA", "") not in ("", "0")
if _disabled:
    _HAS_NUMBA = False
else:
    try:
        from numba import njit

        _HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _HAS_NUMBA = False

ACTIVE_BACKEND = "numba" if _HAS_NUMBA else "numpy"


# -----------------------------------------------------------------------------
# 1D convolution over a padded sequence.
# xp: (T + K - 1, Cin) already zero-padded; w: (K, Cin, Cout) -> out: (T, Cout)
# -----------------------------------------------------------------------------


def _im2col(xp, k, t):
    """(T, K * Cin) columns: row i holds xp[i : i + K] flattened tap-major,
    copied from K shifted slices."""
    cin = xp.shape[1]
    cols = np.empty((t, k * cin), dtype=xp.dtype)
    for kk in range(k):
        cols[:, kk * cin : (kk + 1) * cin] = xp[kk : kk + t]
    return cols


def conv1d_forward_np(xp, w):
    k, cin, cout = w.shape
    if k == 1:
        return xp @ w[0]
    t = xp.shape[0] - k + 1
    return _im2col(xp, k, t) @ w.reshape(k * cin, cout)


def conv1d_backward_np(xp, w, gout):
    k, cin, cout = w.shape
    if k == 1:
        return gout @ w[0].T, (xp.T @ gout).reshape(1, cin, cout)
    t = gout.shape[0]
    gw = (_im2col(xp, k, t).T @ gout).reshape(k, cin, cout)
    tmp = (gout @ w.reshape(k * cin, cout).T).reshape(t, k, cin)
    gxp = np.zeros_like(xp)
    for kk in range(k):
        gxp[kk : kk + t] += tmp[:, kk, :]
    return gxp, gw


# -----------------------------------------------------------------------------
# Monotonic alignment DPs on an (n, m) log-probability grid.
# Paths assign one phoneme per frame, start at phoneme 0, end at phoneme n-1,
# and advance by 0 or 1 phonemes per frame. Tables are (m, n), one row per
# frame, and each frame's row is written in place from the previous one;
# phoneme 0 can only stay (and phoneme n-1, going backwards, only be stayed
# on), which is the -inf edge the shifted operand would otherwise carry.
# -----------------------------------------------------------------------------


def forward_sum_np(logp):
    """Return (-log total path probability, gradient wrt logp)."""
    n, m = logp.shape
    lp = np.ascontiguousarray(logp.T)  # (m, n): frame rows
    alpha = np.full((m, n), _NEG_INF, dtype=logp.dtype)
    alpha[0, 0] = lp[0, 0]
    for t in range(1, m):
        prev, row = alpha[t - 1], alpha[t]
        row[0] = prev[0]
        np.logaddexp(prev[1:], prev[:-1], out=row[1:])
        row += lp[t]
    log_z = alpha[m - 1, n - 1]
    beta = np.full((m, n), _NEG_INF, dtype=logp.dtype)
    beta[m - 1, n - 1] = 0.0
    nxt = np.empty(n, dtype=logp.dtype)
    for t in range(m - 2, -1, -1):
        np.add(beta[t + 1], lp[t + 1], out=nxt)
        row = beta[t]
        np.logaddexp(nxt[:-1], nxt[1:], out=row[:-1])
        row[-1] = nxt[-1]
    with np.errstate(invalid="ignore"):
        post = np.exp(alpha + beta - log_z)
    grad = -np.nan_to_num(post.T, nan=0.0, posinf=0.0, neginf=0.0)
    return -log_z, grad


def viterbi_np(logp):
    """Durations along the highest-likelihood monotonic path; ties stay."""
    n, m = logp.shape
    lp = np.ascontiguousarray(logp.T)
    v = np.full((m, n), _NEG_INF, dtype=logp.dtype)
    move = np.zeros((m, n), dtype=bool)  # True = advanced from i-1
    v[0, 0] = lp[0, 0]
    for t in range(1, m):
        prev, row = v[t - 1], v[t]
        np.greater(prev[:-1], prev[1:], out=move[t, 1:])  # strict: tie prefers staying
        row[0] = prev[0]
        np.maximum(prev[1:], prev[:-1], out=row[1:])
        row += lp[t]
    durs = np.zeros(n, dtype=np.int64)
    i = n - 1
    for t in range(m - 1, 0, -1):
        durs[i] += 1
        if move[t, i]:
            i -= 1
    durs[i] += 1
    return durs


# -----------------------------------------------------------------------------
# DTW pairing of two frame sequences given a pairwise cost matrix.
# Steps (1,0), (0,1), (1,1); ties prefer the diagonal.
# -----------------------------------------------------------------------------


def dtw_accumulate_np(cost):
    """Accumulated-cost table, acc[i, j] = cost[i, j] + min(acc[i-1, j-1],
    acc[i-1, j], acc[i, j-1]), filled one anti-diagonal at a time.

    Cells on one anti-diagonal depend only on the two before it, so each is
    a few vector ops. The diagonals live in a skewed table, row d + 1 for
    i + j == d and column i + 1, padded with +inf so the first row and column
    of acc take their single predecessor without a special case.
    """
    a, b = cost.shape
    n_diag = a + b - 1
    i = np.arange(a)
    j = np.arange(n_diag)[:, None] - i  # (n_diag, a): column of cell (d, i)
    valid = (j >= 0) & (j < b)
    skew_cost = np.where(valid, cost[i, np.clip(j, 0, b - 1)], np.inf).astype(cost.dtype, copy=False)
    skew = np.full((n_diag + 1, a + 1), np.inf, dtype=cost.dtype)
    skew[1, 1] = cost[0, 0]
    best = np.empty(a, dtype=cost.dtype)
    for d in range(1, n_diag):
        lo, hi = max(0, d - b + 1), min(a, d + 1)
        w = best[: hi - lo]
        # diagonal, up and left predecessors of cells (i, d - i), lo <= i < hi
        np.minimum(skew[d - 1, lo:hi], skew[d, lo:hi], out=w)
        np.minimum(w, skew[d, lo + 1 : hi + 1], out=w)
        np.add(skew_cost[d, lo:hi], w, out=skew[d + 1, lo + 1 : hi + 1])
    return skew[i[:, None] + np.arange(b) + 1, i[:, None] + 1]


def dtw_path_np(cost):
    return _dtw_backtrack(dtw_accumulate_np(cost))


def _dtw_backtrack(acc):
    a, b = acc.shape
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
    return np.asarray(path, dtype=np.int64)


# -----------------------------------------------------------------------------
# numba twins
# -----------------------------------------------------------------------------

if _HAS_NUMBA:

    @njit(cache=True)
    def _lae(a, b):
        # logaddexp that tolerates -inf on either or both sides
        if a < b:
            a, b = b, a
        if a == _NEG_INF:
            return _NEG_INF
        return a + np.log1p(np.exp(b - a))

    @njit(cache=True)
    def _conv1d_forward_nb(xp, w):
        # one (T, Cin) @ (Cin, Cout) matmul per tap; numba routes np.dot to BLAS
        k, cin, cout = w.shape
        t = xp.shape[0] - k + 1
        out = np.zeros((t, cout), dtype=xp.dtype)
        for kk in range(k):
            out += np.dot(xp[kk:kk + t], w[kk])
        return out

    @njit(cache=True)
    def _conv1d_backward_nb(xp, w, gout):
        k, cin, cout = w.shape
        t = gout.shape[0]
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for kk in range(k):
            xs = xp[kk:kk + t]
            gw[kk] = np.dot(xs.T, gout)
            gxp[kk:kk + t] += np.dot(gout, w[kk].T)
        return gxp, gw

    @njit(cache=True)
    def _forward_sum_nb(logp):
        n, m = logp.shape
        alpha = np.full((m, n), _NEG_INF, dtype=logp.dtype)
        alpha[0, 0] = logp[0, 0]
        for t in range(1, m):
            for i in range(n):
                stay = alpha[t - 1, i]
                adv = alpha[t - 1, i - 1] if i > 0 else _NEG_INF
                alpha[t, i] = logp[i, t] + _lae(stay, adv)
        log_z = alpha[m - 1, n - 1]
        beta = np.full((m, n), _NEG_INF, dtype=logp.dtype)
        beta[m - 1, n - 1] = 0.0
        for t in range(m - 2, -1, -1):
            for i in range(n):
                stay = beta[t + 1, i] + logp[i, t + 1]
                adv = beta[t + 1, i + 1] + logp[i + 1, t + 1] if i + 1 < n else _NEG_INF
                beta[t, i] = _lae(stay, adv)
        grad = np.zeros((n, m), dtype=logp.dtype)
        for t in range(m):
            for i in range(n):
                e = alpha[t, i] + beta[t, i] - log_z
                if e > -60.0:
                    grad[i, t] = -np.exp(e)
        return -log_z, grad

    @njit(cache=True)
    def _viterbi_nb(logp):
        n, m = logp.shape
        v = np.full((m, n), _NEG_INF, dtype=logp.dtype)
        move = np.zeros((m, n), dtype=np.uint8)
        v[0, 0] = logp[0, 0]
        for t in range(1, m):
            for i in range(n):
                stay = v[t - 1, i]
                adv = v[t - 1, i - 1] if i > 0 else _NEG_INF
                if adv > stay:
                    move[t, i] = 1
                    v[t, i] = logp[i, t] + adv
                else:
                    v[t, i] = logp[i, t] + stay
        durs = np.zeros(n, dtype=np.int64)
        i = n - 1
        for t in range(m - 1, -1, -1):
            durs[i] += 1
            if t > 0 and move[t, i] == 1:
                i -= 1
        return durs

    @njit(cache=True)
    def _dtw_acc_nb(cost):
        a, b = cost.shape
        acc = np.empty((a, b), dtype=cost.dtype)
        acc[0, 0] = cost[0, 0]
        for j in range(1, b):
            acc[0, j] = acc[0, j - 1] + cost[0, j]
        for i in range(1, a):
            acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
            for j in range(1, b):
                best = acc[i - 1, j - 1]
                if acc[i - 1, j] < best:
                    best = acc[i - 1, j]
                if acc[i, j - 1] < best:
                    best = acc[i, j - 1]
                acc[i, j] = cost[i, j] + best
        return acc

    def conv1d_forward_nb(xp, w):
        return _conv1d_forward_nb(xp, w)

    def conv1d_backward_nb(xp, w, gout):
        return _conv1d_backward_nb(xp, w, np.ascontiguousarray(gout))

    def forward_sum_nb(logp):
        loss, grad = _forward_sum_nb(np.ascontiguousarray(logp))
        return loss, grad

    def viterbi_nb(logp):
        return _viterbi_nb(np.ascontiguousarray(logp))

    def dtw_path_nb(cost):
        return _dtw_backtrack(_dtw_acc_nb(np.ascontiguousarray(cost)))

    conv1d_forward = conv1d_forward_nb
    conv1d_backward = conv1d_backward_nb
    forward_sum = forward_sum_nb
    viterbi = viterbi_nb
    dtw_path = dtw_path_nb
else:
    conv1d_forward = conv1d_forward_np
    conv1d_backward = conv1d_backward_np
    forward_sum = forward_sum_np
    viterbi = viterbi_np
    dtw_path = dtw_path_np
