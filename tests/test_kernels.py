"""Kernel correctness against brute-force oracles; batched alignment DPs
against the same kernels run one map at a time."""

import numpy as np
import pytest

from hyperadapt import kernels
from hyperadapt.errors import InputError

from oracles import best_path_durations, dtw_reference, enumerate_paths_logsumexp, random_grids


class TestForwardSum:
    def test_matches_path_enumeration(self):
        checked = 0
        for logp in random_grids(120, seed=11):
            loss, grad = kernels.forward_sum(logp)
            want_loss, post = enumerate_paths_logsumexp(logp)
            assert loss == pytest.approx(want_loss, abs=1e-9)
            np.testing.assert_allclose(grad, -post, atol=1e-9)
            checked += 1
        assert checked == 120

    def test_gradient_columns_sum_to_minus_one(self):
        for logp in random_grids(20, seed=5):
            _, grad = kernels.forward_sum(logp)
            np.testing.assert_allclose(grad.sum(axis=0), -1.0, atol=1e-9)

    def test_single_phoneme(self):
        logp = np.log(np.full((1, 4), 0.25))
        loss, grad = kernels.forward_sum(logp)
        assert loss == pytest.approx(4 * np.log(4.0), abs=1e-12)
        np.testing.assert_allclose(grad, -1.0, atol=1e-12)

    def test_square_grid_has_single_path(self):
        logp = np.log(np.random.default_rng(3).dirichlet(np.ones(5), size=5).T + 1e-9)
        loss, grad = kernels.forward_sum(logp)
        # n == m forces the diagonal path
        assert loss == pytest.approx(-np.trace(logp), abs=1e-9)
        np.testing.assert_allclose(np.diag(grad), -1.0, atol=1e-9)


class TestViterbi:
    def test_matches_enumeration(self):
        for logp in random_grids(120, seed=23):
            durs = kernels.viterbi(logp)
            want = best_path_durations(logp)
            np.testing.assert_array_equal(durs, want)

    def test_durations_partition_frames(self):
        for logp in random_grids(40, seed=29):
            durs = kernels.viterbi(logp)
            assert durs.sum() == logp.shape[1]
            assert durs.min() >= 1


def random_batches(count, seed, ties=False):
    """(batch, n_len, m_len) of padded (B, n, m) batches whose maps differ in
    both counts, with finite junk past each map's counts; with `ties`, every
    third batch holds small integers, so equal paths show."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        b = int(rng.integers(1, 6))
        n_len = rng.integers(1, 6, size=b)
        m_len = np.array([int(rng.integers(n, 10)) for n in n_len])
        shape = (b, n_len.max() + int(rng.integers(0, 2)), m_len.max() + int(rng.integers(0, 2)))
        if ties and trial % 3 == 2:
            batch = rng.integers(-2, 1, size=shape).astype(np.float64)
        else:
            batch = rng.standard_normal(shape) * 2.0
        yield batch, n_len, m_len


class TestBatchedDPs:
    def test_each_map_equals_the_kernel_run_on_it_alone_bit_for_bit(self):
        for batch, n_len, m_len in random_batches(150, seed=41, ties=True):
            losses, grads = kernels.forward_sum(batch, n_len, m_len)
            durations = kernels.viterbi(batch, n_len, m_len)
            for b, (n, m) in enumerate(zip(n_len, m_len)):
                alone = np.ascontiguousarray(batch[b, :n, :m])
                loss, grad = kernels.forward_sum(alone)
                assert losses[b].tobytes() == loss.tobytes()
                assert np.ascontiguousarray(grads[b, :n, :m]).tobytes() == grad.tobytes()
                np.testing.assert_array_equal(durations[b, :n], kernels.viterbi(alone))
                # nothing past a map's counts
                assert not grads[b, n:].any() and not grads[b, :, m:].any()
                assert not durations[b, n:].any()

    def test_each_map_matches_path_enumeration(self):
        for batch, n_len, m_len in random_batches(90, seed=43):
            losses, grads = kernels.forward_sum(batch, n_len, m_len)
            durations = kernels.viterbi(batch, n_len, m_len)
            for b, (n, m) in enumerate(zip(n_len, m_len)):
                logp = batch[b, :n, :m]
                want_loss, post = enumerate_paths_logsumexp(logp)
                assert losses[b] == pytest.approx(want_loss, abs=1e-9)
                np.testing.assert_allclose(grads[b, :n, :m], -post, atol=1e-9)
                np.testing.assert_array_equal(durations[b, :n], best_path_durations(logp))

    def test_counts_must_fit_the_grid(self):
        with pytest.raises(InputError):
            kernels.forward_sum(np.zeros((2, 3, 4)), [3, 4], [4, 4])
        with pytest.raises(InputError):
            kernels.viterbi(np.zeros((2, 3, 4)), [3], [4])
        with pytest.raises(InputError):
            kernels.dtw_path(np.zeros((2, 3, 4)), [3, 0], [4, 4])


class TestConv1d:
    def _oracle(self, xp, w):
        t = xp.shape[0] - w.shape[0] + 1
        k, cin, cout = w.shape
        out = np.zeros((t, cout), dtype=xp.dtype)
        for i in range(t):
            for dk in range(k):
                out[i] += xp[i + dk] @ w[dk]
        return out

    def test_forward_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.choice([1, 3, 5, 9]))
            cin = int(rng.integers(1, 6))
            cout = int(rng.integers(1, 6))
            t = int(rng.integers(1, 12))
            xp = rng.standard_normal((t + k - 1, cin))
            w = rng.standard_normal((k, cin, cout))
            np.testing.assert_allclose(kernels.conv1d_forward(xp, w), self._oracle(xp, w), atol=1e-12)

    def test_backward_matches_oracle_gradients(self):
        # <gout, conv(xp, w)> is linear in xp and in w, so its gradients are
        # the oracle applied to unit inputs
        rng = np.random.default_rng(6)
        for k in (1, 3, 9):
            xp = rng.standard_normal((7 + k - 1, 3))
            w = rng.standard_normal((k, 3, 4))
            g = rng.standard_normal((7, 4))
            gxp, gw = kernels.conv1d_backward(xp, w, g)
            want_gxp = np.zeros_like(xp)
            for idx in np.ndindex(*xp.shape):
                unit = np.zeros_like(xp)
                unit[idx] = 1.0
                want_gxp[idx] = (self._oracle(unit, w) * g).sum()
            want_gw = np.zeros_like(w)
            for idx in np.ndindex(*w.shape):
                unit = np.zeros_like(w)
                unit[idx] = 1.0
                want_gw[idx] = (self._oracle(xp, unit) * g).sum()
            np.testing.assert_allclose(gxp, want_gxp, atol=1e-12)
            np.testing.assert_allclose(gw, want_gw, atol=1e-12)
            # a frozen weight asks for no gradient; the input's is unchanged
            gxp_only, none = kernels.conv1d_backward(xp, w, g, need_w=False)
            assert none is None
            np.testing.assert_array_equal(gxp_only, gxp)


def dtw_batch(rng, dtype, ties):
    """A (B, a, b) batch of mixed shapes (1x1, 1xn, nx1 among them) with
    NaN past each map's counts, which no map may read. With ties, the costs
    are small integers, so equal predecessors and every tie rule show."""
    shapes = [(1, 1), (1, int(rng.integers(2, 9))), (int(rng.integers(2, 9)), 1)]
    shapes += [(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
               for _ in range(int(rng.integers(0, 5)))]
    shapes = [shapes[k] for k in rng.permutation(len(shapes))]
    a_len, b_len = np.array(shapes).T
    batch = np.full((len(shapes), a_len.max(), b_len.max()), np.nan, dtype=dtype)
    for r, (a, b) in enumerate(shapes):
        batch[r, :a, :b] = rng.integers(0, 3, size=(a, b)) if ties else rng.random((a, b))
    return batch, a_len, b_len


class TestDtw:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wavefront_matches_cell_loop_bit_for_bit(self, dtype):
        # each map's accumulated costs, read off the skewed table, and its
        # path equal the cell loop's; the 2-D form equals the batch of one
        rng = np.random.default_rng(17)
        for trial in range(40):
            batch, a_len, b_len = dtw_batch(rng, dtype, ties=trial % 2 == 1)
            table, off = kernels._dtw_table(batch, a_len, b_len)
            assert table.dtype == batch.dtype
            paths = kernels.dtw_path(batch, a_len, b_len)
            assert len(paths) == len(batch)
            for r, (a, b) in enumerate(zip(a_len, b_len)):
                cost = np.ascontiguousarray(batch[r, :a, :b])
                want_acc, want_path = dtw_reference(cost)
                i = np.arange(a)[:, None]
                acc = table[i + np.arange(b) + 1, off[r] + 1 + i]
                assert acc.tobytes() == want_acc.tobytes()
                np.testing.assert_array_equal(paths[r], want_path)
                np.testing.assert_array_equal(kernels.dtw_path_np(cost), want_path)
                np.testing.assert_array_equal(kernels.dtw_path(cost[None])[0], want_path)

    def test_non_finite_costs_stay_in_their_map(self):
        # NaN and -inf spread through their own map's table, reaching its last
        # column within a few rows, but the sentinel column after it keeps
        # them from the next map
        rng = np.random.default_rng(23)
        shapes = ((7, 12), (4, 12), (9, 12))
        for bad in (np.nan, -np.inf):
            batch = rng.random((3, 9, 12))
            batch[1, 1, 0] = bad
            with np.errstate(invalid="ignore"):  # inf + -inf inside map 1
                paths = kernels.dtw_path(batch, *zip(*shapes))
                for r, (a, b) in enumerate(shapes):
                    cost = np.ascontiguousarray(batch[r, :a, :b])
                    np.testing.assert_array_equal(paths[r], kernels.dtw_path(cost))
                    if r != 1:
                        np.testing.assert_array_equal(paths[r], dtw_reference(cost)[1])

    def test_identical_sequences_walk_diagonal(self):
        cost = np.abs(np.arange(6)[:, None] - np.arange(6)[None, :]).astype(np.float64)
        path = kernels.dtw_path(cost)
        np.testing.assert_array_equal(path, np.stack([np.arange(6), np.arange(6)], axis=1))

    def test_path_is_monotonic_and_complete(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cost = rng.random((int(rng.integers(2, 15)), int(rng.integers(2, 15))))
            path = kernels.dtw_path(cost)
            assert tuple(path[0]) == (0, 0)
            assert tuple(path[-1]) == (cost.shape[0] - 1, cost.shape[1] - 1)
            steps = np.diff(path, axis=0)
            assert set(map(tuple, steps)) <= {(1, 0), (0, 1), (1, 1)}

    def test_total_cost_matches_dp_table(self):
        rng = np.random.default_rng(13)
        cost = rng.random((8, 11))
        acc = np.full((8, 11), np.inf)
        acc[0, 0] = cost[0, 0]
        for i in range(8):
            for j in range(11):
                if i == 0 and j == 0:
                    continue
                prev = min(
                    acc[i - 1, j] if i else np.inf,
                    acc[i, j - 1] if j else np.inf,
                    acc[i - 1, j - 1] if i and j else np.inf,
                )
                acc[i, j] = cost[i, j] + prev
        path = kernels.dtw_path(cost)
        assert cost[path[:, 0], path[:, 1]].sum() == pytest.approx(acc[-1, -1], abs=1e-12)


def test_backend_report():
    assert kernels.ACTIVE_BACKEND == "numpy"
