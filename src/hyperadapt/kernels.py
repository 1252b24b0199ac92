"""Hot numeric kernels in numpy: 1D convolution forward/backward, the
monotonic forward-sum DP and its posterior gradient, Viterbi durations, and
DTW frame pairing.

Each keeps Python work per call small: the conv builds its im2col matrix
as one copy of an overlapping view of the padded input (a K=1 conv is a
plain matmul),
and the alignment DPs run a whole batch of maps through one frame recursion
and write each frame's slab of their tables in place with no per-frame
allocation. DTW likewise pairs a whole batch of cost maps in one sweep: the
costs are written in place into one skewed table that lays the maps side by
side, so each anti-diagonal of every map advances in three full-width vector
ops (bit-identical to the cell-by-cell recurrence) and a reset of the
sentinels between maps, and each path is then walked back on that table by a
scalar walk with the cell loop's tie rule.
"""

import numpy as np

from .errors import InputError

_NEG_INF = -np.inf

ACTIVE_BACKEND = "numpy"  # the only backend; reported by the benchmark


# -----------------------------------------------------------------------------
# 1D convolution over a padded sequence.
# xp: (T + K - 1, Cin) already zero-padded; w: (K, Cin, Cout) -> out: (T, Cout)
# -----------------------------------------------------------------------------


def _im2col(xp, k, t):
    """(T, K * Cin) columns: row i holds xp[i : i + K] flattened tap-major.
    In a C-contiguous xp those K rows are K * Cin consecutive entries, so
    the columns are one copy of a view whose rows overlap."""
    xp = np.ascontiguousarray(xp)
    return np.ndarray((t, k * xp.shape[1]), xp.dtype, xp, 0, xp.strides).copy()


def conv1d_forward_np(xp, w):
    k, cin, cout = w.shape
    if k == 1:
        return xp @ w[0]
    t = xp.shape[0] - k + 1
    return _im2col(xp, k, t) @ w.reshape(k * cin, cout)


def conv1d_backward_np(xp, w, gout, need_w=True):
    """(gradient wrt xp, gradient wrt w); the weight gradient (and the im2col
    matrix it needs) is skipped and returned as None when need_w is False."""
    k, cin, cout = w.shape
    if k == 1:
        return gout @ w[0].T, (xp.T @ gout).reshape(1, cin, cout) if need_w else None
    t = gout.shape[0]
    gw = (_im2col(xp, k, t).T @ gout).reshape(k, cin, cout) if need_w else None
    tmp = (gout @ w.reshape(k * cin, cout).T).reshape(t, k, cin)
    gxp = np.zeros_like(xp)
    for kk in range(k):
        gxp[kk : kk + t] += tmp[:, kk, :]
    return gxp, gw


# -----------------------------------------------------------------------------
# Monotonic alignment DPs over a batch of (n, m) log-probability grids.
# Paths assign one phoneme per frame, start at phoneme 0, end at phoneme
# n_b - 1 on frame m_b - 1, and advance by 0 or 1 phonemes per frame.
# Tables hold one row per frame; a frame row lays the B maps side by side,
# each behind one -inf sentinel cell, so one shifted vector op advances every
# map at once and a map's first phoneme reads the sentinel as its (absent)
# predecessor. Each frame row is written in place from the previous one, so
# one pass over the longest map serves the whole batch. Entries past a map's
# counts are -inf and never reach a valid cell, so each map's results are bit
# for bit what it gets alone.
# -----------------------------------------------------------------------------


def _counts(shape, n_len, m_len):
    """Each map's counts along the two axes of a (B, n, m) batch as int64
    arrays (the full grid when None), checked to lie inside the grid."""
    b, n, m = shape
    n_len = np.full(b, n, dtype=np.int64) if n_len is None else np.asarray(n_len, dtype=np.int64)
    m_len = np.full(b, m, dtype=np.int64) if m_len is None else np.asarray(m_len, dtype=np.int64)
    if n_len.shape != (b,) or m_len.shape != (b,):
        raise InputError(f"need {b} counts along each axis, "
                         f"got shapes {n_len.shape} and {m_len.shape}")
    if (n_len < 1).any() or (n_len > n).any() or (m_len < 1).any() or (m_len > m).any():
        raise InputError(f"counts outside the ({n}, {m}) grid: {n_len}, {m_len}")
    return n_len, m_len


def _frame_rows(logp, n_len, m_len):
    """(m, B * (n + 1)) frame rows of a (B, n, m) batch, each map behind a
    -inf sentinel and -inf past its counts, plus the counts as _counts
    gives them."""
    b, n, m = logp.shape
    n_len, m_len = _counts(logp.shape, n_len, m_len)
    lp = np.full((m, b, n + 1), _NEG_INF, dtype=logp.dtype)
    valid = (np.arange(m)[:, None, None] < m_len[:, None]) & (np.arange(n) < n_len[:, None])
    np.copyto(lp[:, :, 1:], logp.transpose(2, 0, 1), where=valid)
    return lp.reshape(m, b * (n + 1)), n_len, m_len


def forward_sum_np(logp, n_len=None, m_len=None):
    """(-log total path probability, gradient wrt logp) of each map.

    logp is one (n, m) map, giving a scalar loss and an (n, m) gradient, or a
    (B, n, m) batch whose map b spans [:n_len[b], :m_len[b]] (all of it when
    the counts are None), giving (B,) losses and a (B, n, m) gradient that is
    zero past each map's counts.
    """
    if logp.ndim == 2:
        loss, grad = forward_sum_np(logp[None])
        return loss[0], grad[0]
    b, n, m = logp.shape
    lp, n_len, m_len = _frame_rows(logp, n_len, m_len)
    first = np.arange(b) * (n + 1) + 1  # each map's phoneme 0
    last = first + n_len - 1
    alpha = np.full_like(lp, _NEG_INF)
    alpha[0, first] = lp[0, first]
    for t in range(1, m):
        prev, row = alpha[t - 1], alpha[t]
        np.logaddexp(prev[1:], prev[:-1], out=row[1:])
        row += lp[t]
    log_z = alpha[m_len - 1, last]
    # each map's backward recursion starts from a one-hot on its own last frame
    ends = {}
    for r in range(b):
        ends.setdefault(int(m_len[r]) - 1, []).append(last[r])
    beta = np.full_like(lp, _NEG_INF)
    nxt = np.empty_like(lp[0])
    for t in range(m - 1, -1, -1):
        row = beta[t]
        if t < m - 1:
            np.add(beta[t + 1], lp[t + 1], out=nxt)
            np.logaddexp(nxt[:-1], nxt[1:], out=row[:-1])
            row[-1] = nxt[-1]
        if t in ends:
            row[ends[t]] = 0.0
    # the posterior, formed in place in alpha's table
    alpha += beta
    del beta, lp
    post = alpha.reshape(m, b, n + 1)[:, :, 1:]
    post -= log_z[:, None]
    with np.errstate(invalid="ignore"):
        np.exp(post, out=post)
    grad = np.negative(post.transpose(1, 2, 0))
    return -log_z, np.nan_to_num(grad, copy=False, nan=0.0, posinf=0.0, neginf=0.0)


def viterbi_np(logp, n_len=None, m_len=None):
    """Durations along each map's highest-likelihood monotonic path; ties
    stay. Shapes and counts as in forward_sum_np: (n,) durations for one map,
    (B, n) for a batch, zero past each map's phoneme count."""
    if logp.ndim == 2:
        return viterbi_np(logp[None])[0]
    b, n, m = logp.shape
    lp, n_len, m_len = _frame_rows(logp, n_len, m_len)
    first = np.arange(b) * (n + 1) + 1
    v = np.full_like(lp, _NEG_INF)
    move = np.zeros(lp.shape, dtype=bool)  # True = advanced from i-1
    v[0, first] = lp[0, first]
    for t in range(1, m):
        prev, row = v[t - 1], v[t]
        np.greater(prev[:-1], prev[1:], out=move[t, 1:])  # strict: tie prefers staying
        np.maximum(prev[1:], prev[:-1], out=row[1:])
        row += lp[t]
    durs = np.zeros((b, n), dtype=np.int64)
    for r in range(b):
        # walk map r back from its own last frame; a scalar walk beats a
        # vectorised one, which would pay a few numpy calls per frame
        counts, cells, i = durs[r], move[:, first[r] : first[r] + n], int(n_len[r]) - 1
        for t in range(int(m_len[r]) - 1, 0, -1):
            counts[i] += 1
            if cells[t, i]:
                i -= 1
        counts[i] += 1
    return durs


# -----------------------------------------------------------------------------
# DTW pairing of two frame sequences over a batch of (a, b) pairwise cost
# maps: acc[i, j] = cost[i, j] + min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1]),
# and on the way back ties prefer the diagonal, then up. Cells on one
# anti-diagonal depend only on the two before it, so the accumulated costs
# live in one skewed table: map r's cell (i, j) sits at row i + j + 1, column
# off[r] + 1 + i, the maps side by side, each behind a +inf sentinel column,
# with an all-+inf row 0. A cell's diagonal, up and left predecessors are
# then at (row - 2, col - 1), (row - 1, col - 1) and (row - 1, col), so a
# full-width min, min and add per row advance every map's anti-diagonal at
# once, bit for bit as the cell loop would.
# -----------------------------------------------------------------------------


def _dtw_table(cost, a_len, b_len):
    """(skewed accumulated-cost table, each map's sentinel column) of a
    (B, a, b) batch whose map r spans [:a_len[r], :b_len[r]]."""
    off = np.concatenate(([0], np.cumsum(a_len[:-1] + 1)))
    table = np.full((int((a_len + b_len).max()), int((a_len + 1).sum())), np.inf,
                    dtype=cost.dtype)
    rs, cs = table.strides
    for r in range(cost.shape[0]):
        # the costs, written in place through a view that puts (i, j) at
        # (i + j + 1, off + 1 + i); cells past a map's counts stay +inf
        cells = np.lib.stride_tricks.as_strided(table[1:, off[r] + 1 :],
                                                (a_len[r], b_len[r]), (rs + cs, rs))
        cells[...] = cost[r, : a_len[r], : b_len[r]]
    sentinels = off[1:]
    best = np.empty(table.shape[1] - 1, dtype=cost.dtype)
    for row in range(2, table.shape[0]):  # row 1 holds each map's cell (0, 0)
        np.minimum(table[row - 2, :-1], table[row - 1, :-1], out=best)
        np.minimum(best, table[row - 1, 1:], out=best)
        np.add(table[row, 1:], best, out=table[row, 1:])
        # a NaN or -inf on a map's last column must not reach the next map
        table[row].put(sentinels, np.inf)
    return table, off


def dtw_path_np(cost, a_len=None, b_len=None):
    """Cheapest DTW path through each cost map as an (L, 2) int64 array of
    (i, j) cells from (0, 0) to the map's last cell. cost is one (a, b) map,
    giving one path, or a (B, a, b) batch whose map r spans
    [:a_len[r], :b_len[r]] (all of it when the counts are None), giving a
    list of B paths; each is bit for bit what its map gets alone."""
    if cost.ndim == 2:
        return dtw_path_np(cost[None])[0]
    a_len, b_len = _counts(cost.shape, a_len, b_len)
    table, off = _dtw_table(cost, a_len, b_len)
    acc, paths = table.item, []
    for r in range(cost.shape[0]):
        # walk map r back from its last cell, holding (i, j) and the cell's
        # table row d and column c; a scalar walk on Python floats beats a
        # vectorised one
        i, j = int(a_len[r]) - 1, int(b_len[r]) - 1
        d, c = i + j + 1, int(off[r]) + 1 + i
        ii, jj = [i], [j]
        while i or j:
            if i == 0:
                j, d = j - 1, d - 1
            elif j == 0:
                i, d, c = i - 1, d - 1, c - 1
            else:
                diag, up, left = acc(d - 2, c - 1), acc(d - 1, c - 1), acc(d - 1, c)
                if diag <= up and diag <= left:
                    i, j, d, c = i - 1, j - 1, d - 2, c - 1
                elif up <= left:
                    i, d, c = i - 1, d - 1, c - 1
                else:
                    j, d = j - 1, d - 1
            ii.append(i)
            jj.append(j)
        paths.append(np.array((ii, jj), dtype=np.int64).T[::-1])
    return paths


# the call sites: the alignment losses and metrics look these names up at call
# time, so a tracer can wrap them
conv1d_forward = conv1d_forward_np
conv1d_backward = conv1d_backward_np
forward_sum = forward_sum_np
viterbi = viterbi_np
dtw_path = dtw_path_np
