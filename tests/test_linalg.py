import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp, norm

from relurand import linalg
from relurand.linalg import (
    LazyGaussian,
    _distinct_columns,
    _gram_factor,
    _openblas_thread_calls,
    gaussian_matrix,
    gaussian_spectral_norm,
    gaussian_times,
    gaussian_times_apply,
    gaussian_times_factor,
    ks_critical_value,
    ks_two_sample,
    one_blas_thread,
    spectral_norm,
)
from relurand.rng import RngStream


class TestGaussianMatrix:
    def test_zero_scale(self):
        M = gaussian_matrix(2, 3, 0.0, RngStream(123))
        assert M.shape == (2, 3)
        assert np.all(M == 0.0)

    def test_sample_mean_clt(self):
        # 10^6 iid N(0,1): sample mean has sd 1e-3, assert within 5 sd
        M = gaussian_matrix(1000, 1000, 1.0, RngStream(7))
        assert abs(M.mean()) < 0.005

    def test_determinism(self):
        a = gaussian_matrix(10, 10, 1.0, RngStream(42))
        b = gaussian_matrix(10, 10, 1.0, RngStream(42))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_matrix(10, 10, 1.0, RngStream(42, 0))
        b = gaussian_matrix(10, 10, 1.0, RngStream(42, 1))
        assert not np.array_equal(a, b)

    def test_holds_one_matrix(self):
        # the normals are scaled in place, with no second matrix at the peak;
        # a numpy scalar std, as init_std gives, times a temporary array
        # makes a new array, where a python float's product may reuse it
        std, rng = np.float64(0.05), RngStream(43)
        tracemalloc.start()
        try:
            M = gaussian_matrix(300, 400, std, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M.nbytes, peak


class TestGaussianTimes:
    def test_equal_columns_get_equal_images(self):
        x = RngStream(1).normal(50)
        y = RngStream(2).normal(50)
        Z = gaussian_times(np.stack([x, y, x, x], axis=1), 300, 1.0, RngStream(3))
        assert np.array_equal(Z[:, 0], Z[:, 2]) and np.array_equal(Z[:, 0], Z[:, 3])
        assert not np.array_equal(Z[:, 0], Z[:, 1])

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_zero_column_stays_zero(self, where):
        M = RngStream(4).normal((20, 3))
        M[:, where] = 0.0
        Z = gaussian_times(M, 100, 2.0, RngStream(5))
        assert np.all(Z[:, where] == 0.0)
        assert np.all(np.delete(Z, where, axis=1) != 0.0)

    @pytest.mark.parametrize("M", [
        np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]),           # antipodal
        RngStream(6).normal((4, 10)),                               # wide
        np.outer(RngStream(7).normal(30), [1.0, 2.0, -3.0, 0.5]),   # rank 1
    ], ids=["antipodal", "wide", "rank1"])
    def test_degenerate_shapes(self, M):
        Z = gaussian_times(M, 17, 1.0, RngStream(8))
        assert Z.shape == (17, M.shape[1])
        assert np.all(np.isfinite(Z))

    def test_determinism(self):
        M = RngStream(9).normal((40, 6))
        a = gaussian_times(M, 25, 1.0, RngStream(42, 3))
        b = gaussian_times(M, 25, 1.0, RngStream(42, 3))
        assert np.array_equal(a, b)

    def test_row_covariance_matches_gram(self):
        # rows of W @ M are iid N(0, std^2 M^T M); the mean-zero sample
        # covariance entry (i, j) has standard error
        # sqrt((S_ii S_jj + S_ij^2) / n)
        rng = RngStream(10)
        M = rng.normal((200, 3)) / np.sqrt(200)
        M[:, 2] = 0.6 * M[:, 0] - 0.8 * M[:, 2]
        std, n = 0.7, 200_000
        Z = gaussian_times(M, n, std, RngStream(11))
        S = std ** 2 * (M.T @ M)
        C = Z.T @ Z / n
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S ** 2) / n)
        assert np.all(np.abs(C - S) <= 3 * se)


def _bytes_dedup(M):
    """First-occurrence dedup by a dict keyed on each column's bytes."""
    slot, keep = {}, []
    inverse = []
    for j, col in enumerate(np.ascontiguousarray(M.T)):
        inverse.append(slot.setdefault(col.tobytes(), len(slot)))
        if inverse[-1] == len(keep):
            keep.append(j)
    return keep, inverse


class TestDistinctColumns:
    @staticmethod
    def _repeated(seed=20):
        rng = RngStream(seed)
        base = rng.normal((30, 5))
        return np.asfortranarray(base[:, [3, 0, 3, 1, 4, 0, 2, 2, 1, 3]])

    def test_first_occurrence_order(self):
        M = self._repeated()
        keep, inverse = _distinct_columns(M)
        assert keep.tolist() == [0, 1, 3, 4, 6] and inverse.tolist() == [0, 1, 0, 2, 3, 1, 4, 4, 2, 0]
        assert (keep.tolist(), inverse.tolist()) == _bytes_dedup(M)

    def test_signed_zeros_are_distinct(self):
        M = np.zeros((4, 4))
        M[2, 1] = M[2, 3] = -0.0
        keep, inverse = _distinct_columns(M)
        assert keep.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0, 1]
        assert (keep.tolist(), inverse.tolist()) == _bytes_dedup(M)

    def test_hash_tie_falls_back_to_bytes(self, monkeypatch):
        M = self._repeated()
        M[:, 9] = -M[:, 9]
        expected = _bytes_dedup(M)
        monkeypatch.setattr(linalg, "_hash_weights", lambda n: np.zeros(n, dtype=np.uint64))
        keep, inverse = _distinct_columns(M)
        assert (keep.tolist(), inverse.tolist()) == expected and len(keep) == 6

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_bytes_dict(self, order):
        pool = np.hstack([RngStream(21).normal((8, 2)), np.zeros((8, 1)), -np.zeros((8, 1))])
        keep, inverse = _distinct_columns(pool[:, order])
        assert (keep.tolist(), inverse.tolist()) == _bytes_dedup(pool[:, order])


class TestFactorApply:
    @pytest.mark.parametrize("M", [
        RngStream(22).normal((40, 6)),
        np.stack([np.ones(9), np.zeros(9), np.ones(9)], axis=1),
        RngStream(23).normal((3, 8)),
    ], ids=["distinct", "repeated", "wide"])
    def test_steps_give_gaussian_times(self, M):
        Z = gaussian_times(M, 50, 0.5, RngStream(24))
        R, inverse = gaussian_times_factor(M)
        G = RngStream(24).normal((50, R.shape[0]))
        out = np.empty((50, M.shape[1]), order="F")
        assert gaussian_times_apply(G, R, inverse, 0.5, out=out) is out
        assert Z.flags.f_contiguous and Z.tobytes() == out.tobytes()


def _householder(U):
    R = np.linalg.qr(U, mode="r")
    return R * np.where(np.diag(R) < 0.0, -1.0, 1.0)[:, None]


def _collinear(eps, seed=2):
    """2000 x 100 relu images of one shared column plus eps times
    independent ones: min/max of the Cholesky diagonal is about 0.8 eps."""
    base = np.maximum(RngStream(seed).normal((2000, 1)), 0.0)
    return base + eps * np.maximum(RngStream(seed + 1).normal((2000, 100)), 0.0)


class TestGramFactor:
    @pytest.mark.parametrize("U", [
        np.maximum(RngStream(12).normal((2000, 100)), 0.0),
        _collinear(1e-3),
    ], ids=["relu_gaussian", "nearly_collinear"])
    def test_cholesky_gram_matches_householder(self, U, monkeypatch):
        H = _householder(U)
        def no_householder(*args, **kwargs):
            raise AssertionError("fell back to Householder")
        monkeypatch.setattr(np.linalg, "qr", no_householder)
        R = _gram_factor(U)
        assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0.0)
        assert np.linalg.norm(R.T @ R - H.T @ H) <= 1e-13 * np.linalg.norm(H.T @ H)

    @pytest.mark.parametrize("U", [
        _collinear(1e-7),                                           # cond 1.5e8
        np.hstack([RngStream(13).normal((50, 4)), np.zeros((50, 1))]),
        np.hstack([RngStream(13).normal((50, 4)), 2.0 * RngStream(13).normal((50, 4))[:, :1]]),
    ], ids=["ill_conditioned", "zero_column", "rank_deficient"])
    def test_near_singular_falls_back_to_householder(self, U):
        assert np.linalg.cond(U) >= 1e8
        assert np.array_equal(_gram_factor(U), _householder(U))

    def test_bits_independent_of_blas_threads(self):
        """With no pin held by the caller, R and the spectral norms of a
        wide and a tall matrix have the same bytes at 2 OpenBLAS threads as
        at 1, and the caller's count is restored.  The 64-wide Grams and
        their eigvalsh give the same bits at 1 and 2 threads even unpinned;
        the 256 x 256 Gram's eigvalsh does not."""
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS found in /proc/self/maps")
        get, put = calls
        U = np.asfortranarray(np.maximum(RngStream(12).normal((2000, 100)), 0.0))
        M = gaussian_matrix(64, 256, 1.0, RngStream(16))
        wide = gaussian_matrix(256, 1024, 1.0, RngStream(17))
        before = get()
        results = []
        try:
            for threads in (2, 1):
                put(threads)
                results.append((_gram_factor(U).tobytes(), spectral_norm(M), spectral_norm(M.T),
                                spectral_norm(wide)))
                assert get() == threads
        finally:
            put(before)
        assert results[0] == results[1]

    def test_fallback_keeps_equal_and_zero_columns_exact(self):
        U = _collinear(1e-7)[:, :6]
        M = np.hstack([U, U[:, :1], np.zeros((len(U), 1)), U[:, 1:2] * 0.5])
        Z = gaussian_times(M, 300, 1.0, RngStream(14))
        assert np.all(np.isfinite(Z))
        assert np.array_equal(Z[:, 0], Z[:, 6]) and np.all(Z[:, 7] == 0.0)
        assert np.all(np.delete(Z, 7, axis=1) != 0.0)


class _CountingStream(RngStream):
    """An RngStream that counts the normals and the chi variates drawn
    from it."""

    draws = 0
    chis = 0

    def normal(self, size=None):
        self.draws += int(np.prod(size))
        return super().normal(size)

    def chi(self, df, size=None):
        self.chis += int(np.prod(np.shape(df) if size is None else size))
        return super().chi(df, size)


def _mixed_queries(W, seed, n=12):
    """Alternate n right and left queries of fresh random vectors on W."""
    rng = RngStream(seed)
    rows, cols = W.shape
    for k in range(n):
        if k % 2:
            rng.normal(rows) @ W
        else:
            W @ rng.normal((cols, 1 + k % 3))


class TestLazyGaussian:
    @pytest.mark.parametrize("shape", [(40, 40), (30, 70), (70, 30)])
    def test_bilinear_form_agrees_from_both_sides(self, shape):
        W = LazyGaussian(*shape, 0.3, RngStream(1))
        _mixed_queries(W, 2)
        rng = RngStream(3)
        for _ in range(20):
            u, v = rng.normal(shape[0]), rng.normal(shape[1])
            Wv, uW = W @ v, u @ W
            scale = np.linalg.norm(u) * np.linalg.norm(Wv) + np.linalg.norm(uW) * np.linalg.norm(v)
            assert abs(u @ Wv - uW @ v) <= 1e-12 * scale

    def test_column_is_product_with_unit_vector(self):
        W = LazyGaussian(25, 15, 1.0, RngStream(4))
        _mixed_queries(W, 5, n=4)
        for i in (0, 7, 14):
            e = np.zeros(15)
            e[i] = 1.0
            assert np.allclose(W[:, i], W @ e, rtol=0.0, atol=1e-14)
        with pytest.raises(IndexError):
            W[0, 1]

    def test_column_skips_its_product_to_the_bit(self):
        # one copy asks W[:, i] where the other asks W @ e_i, amid the same
        # right and left queries: the same answers, reveals, flops and
        # draws, before completion and after it
        copies = []
        for column in (True, False):
            rng = _CountingStream(17)
            W = LazyGaussian(60, 50, 0.7, rng)
            q = RngStream(18)
            steps = []
            for k in range(36):
                if k % 3 == 0:
                    i = 7 * k % 50
                    if column:
                        answer = W[:, i]
                    else:
                        e = np.zeros(50)
                        e[i] = 1.0
                        answer = W @ e
                elif k % 3 == 1:
                    answer = W @ q.normal((50, 2))
                else:
                    answer = q.normal(60) @ W
                steps.append((answer.tobytes(), W.revealed, W._spent, rng.draws, W.completed))
            copies.append(steps)
        assert copies[0] == copies[1]
        assert not copies[0][15][-1] and copies[0][16][-1]   # the 17th query completes W

    @pytest.mark.parametrize("complete", [False, True], ids=["lazy", "completed"])
    @pytest.mark.parametrize("key", [
        3, np.int64(3), (slice(None), slice(1, 3)), (slice(None), [1, 2]), (slice(None), 1.0),
        (slice(None), True), (slice(1, None), 1), (0, 1), (slice(None),), (slice(None), 1, 0),
    ], ids=["row", "np-row", "column-slice", "column-list", "float", "bool", "row-slice",
            "entry", "rows-only", "three-axes"])
    def test_only_an_integer_column_indexes(self, key, complete):
        W = LazyGaussian(6, 5, 1.0, RngStream(19))
        if complete:
            _mixed_queries(W, 20, n=12)
            assert W.completed
        with pytest.raises(IndexError, match=r"W\[:, i\] with an integer i only"):
            W[key]
        assert W[:, 2].shape == W[:, np.int64(2)].shape == (6,)

    def test_revealed_span_and_zero_draw_nothing(self):
        rng = _CountingStream(6)
        W = LazyGaussian(30, 20, 1.0, rng)
        V = RngStream(7).normal((20, 3))
        W @ V
        f = RngStream(8).normal(30)
        f @ W
        drawn, revealed = rng.draws, W.revealed
        assert drawn == 3 * 30 + 20 and revealed == (3, 1)
        W @ (V @ [0.5, -2.0, 1.0])
        (3.0 * f) @ W
        zeros = W @ np.zeros((20, 2)), np.zeros(30) @ W
        assert rng.draws == drawn and W.revealed == revealed
        assert all(np.all(z == 0.0) for z in zeros)

    def test_same_stream_same_bits(self):
        outs = []
        for _ in range(2):
            W = LazyGaussian(30, 20, 0.5, RngStream(9, 2))
            _mixed_queries(W, 10)
            outs.append((W @ np.arange(20.0), np.arange(30.0) @ W, W[:, 3]))
        assert all(np.array_equal(a, b) for a, b in zip(*outs))

    @pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4)])
    def test_each_side_stays_within_its_dimension(self, shape):
        # once Q spans R^cols or U spans R^rows, W is determined
        rng = _CountingStream(11)
        W = LazyGaussian(*shape, 1.0, rng)
        _mixed_queries(W, 12, n=30)
        right, left = W.revealed
        assert right <= shape[1] and left <= shape[0]
        assert right == shape[1] or left == shape[0]
        drawn = rng.draws
        _mixed_queries(W, 13, n=10)
        assert rng.draws == drawn and W.revealed == (right, left)

    def test_adaptive_queries_match_dense_moments(self):
        # W[:, i] queried after W @ x and (W @ x) @ W, i.e. after queries
        # chosen from W itself, still has iid N(0, std^2) entries
        std, n = 0.5, 4000
        cols = []
        for k in range(n):
            W = LazyGaussian(3, 4, std, RngStream(14, k))
            Wx = W @ np.ones(4)
            Wx @ W
            cols.append(W[:, 1])
        C = np.array(cols)
        cov = C.T @ C / n
        se = std ** 2 * np.sqrt(2.0 / n)
        assert np.all(np.abs(cov - std ** 2 * np.eye(3)) <= 4 * se)


def _completed_by_adaptive_queries(seed, std=0.5):
    """A 4 x 200 LazyGaussian queried along x, then W x from the left, then
    the normalized answer of that from the right; the third query would
    grow the right side's buffers past the dense size, so W completes with
    one direction revealed on each side."""
    rng = _CountingStream(*seed)
    W = LazyGaussian(4, 200, std, rng)
    x = np.linspace(-1.0, 1.0, 200)
    h = (W @ x) @ W
    W @ (h / np.linalg.norm(h))
    return W, rng


class TestCompletion:
    def test_completed_layer_matches_dense_in_distribution(self):
        # entries and bilinear forms of 2000 completed layers against 2000
        # dense ones; KS at level 0.01
        std, n = 0.5, 2000
        u = np.array([0.5, -0.5, 0.5, 0.5])
        v = np.linspace(-1.0, 1.0, 200)   # half along the first query, half not
        v /= np.linalg.norm(v)
        v[7] += 1.0
        lazy, dense = [], []
        for k in range(n):
            W, _ = _completed_by_adaptive_queries((8111, k), std)
            assert W.completed
            lazy.append((W[:, 7][2], u @ (W @ v)))
            D = gaussian_matrix(4, 200, std, RngStream(8112, k))
            dense.append((D[2, 7], u @ (D @ v)))
        for column in range(2):
            a = [t[column] for t in lazy]
            b = [t[column] for t in dense]
            assert ks_two_sample(a, b) <= ks_critical_value(n, n), column

    @pytest.mark.parametrize("shape", [(3, 50), (50, 3)])
    def test_spanning_side_completes_without_a_draw(self, shape):
        # three queries on the 3-dimensional side span it; the third reveal
        # draws its 50 normals and the completion none
        rng = _CountingStream(8113)
        W = LazyGaussian(*shape, 1.0, rng)
        F = RngStream(8114).normal((3, 3))
        answers = [(f @ W if shape[0] == 3 else W @ f) for f in F]
        assert W.completed and W.revealed == shape[::-1]
        assert rng.draws == 3 * 50
        again = [(f @ W if shape[0] == 3 else W @ f) for f in F]
        assert np.allclose(again, answers, rtol=0.0, atol=1e-12)

    def test_queries_after_completion_draw_nothing(self):
        W, rng = _completed_by_adaptive_queries((8115, 0))
        drawn = rng.draws
        assert drawn == 4 + 200 + 4 * 200   # one reveal per side, then the dense draw
        q = RngStream(8116)
        for _ in range(5):
            u, v = q.normal(4), q.normal(200)
            Wv, uW = W @ v, u @ W
            assert abs(u @ Wv - uW @ v) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)
        assert np.array_equal(W[:, 3], W @ np.eye(200)[3])
        assert rng.draws == drawn and W.revealed == (200, 4)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-8)

    @pytest.mark.parametrize("shape", [(200, 300), (300, 200), (20, 30), (3, 50), (50, 3),
                                       (1, 1), (1, 40), (40, 1), (64, 64)])
    def test_agrees_with_svd(self, shape):
        for k in range(5):
            M = gaussian_matrix(*shape, 1.0, RngStream(9001, k))
            exact = np.linalg.svd(M, compute_uv=False)[0]
            assert spectral_norm(M) == pytest.approx(exact, rel=1e-13)

    def test_agrees_with_svd_on_fixed_matrices(self):
        for M in [gaussian_matrix(40, 60, 1.0, RngStream(1)),
                  np.outer(np.arange(1.0, 31.0), np.arange(1.0, 21.0))]:   # rank 1
            exact = np.linalg.svd(M, compute_uv=False)[0]
            assert spectral_norm(M) == pytest.approx(exact, rel=1e-13)

    def test_gaussian_bound(self):
        # ||A|| <= 3(sqrt m + sqrt n + sqrt(log 1/delta)) at delta = 0.01
        bound = 3 * (np.sqrt(200) + np.sqrt(300) + np.sqrt(np.log(100)))
        violations = sum(
            spectral_norm(gaussian_matrix(200, 300, 1.0, RngStream(5, k))) > bound
            for k in range(100)
        )
        assert violations <= 1

    def test_transpose_invariance(self):
        M = gaussian_matrix(20, 35, 1.0, RngStream(2))
        assert spectral_norm(M) == pytest.approx(spectral_norm(M.T), rel=1e-7)

    @given(c=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, c):
        M = gaussian_matrix(8, 12, 1.0, RngStream(3))
        base = spectral_norm(M)
        assert spectral_norm(c * M) == pytest.approx(abs(c) * base, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-160, 1e-155, 1e150])
    def test_extreme_scale(self, c):
        # unscaled, M^T M q underflows (small c) or overflows (large c)
        M = gaussian_matrix(8, 12, 1.0, RngStream(3))
        assert spectral_norm(c * M) == pytest.approx(
            abs(c) * spectral_norm(M), rel=1e-6, abs=0.0)

    def test_matches_svd_at_working_tol(self):
        # the tolerance the spectral probes use, on their 200 x 300 shape
        M = gaussian_matrix(200, 300, 1.0, RngStream(5, 0))
        exact = np.linalg.svd(M, compute_uv=False)[0]
        assert spectral_norm(M) == pytest.approx(exact, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 6))) == 0.0

    @pytest.mark.parametrize("M", [np.zeros((0, 3)), np.ones(3)], ids=["0x3", "1-d"])
    def test_rejects_empty_or_1d(self, M):
        with pytest.raises(ValueError, match="requires a nonempty 2-d matrix"):
            spectral_norm(M)

    @pytest.mark.parametrize("M", [
        np.outer(RngStream(12).normal(30), RngStream(13).normal(20)),   # rank 1
        RngStream(14).normal((1, 25)),                                  # 1 x n
        RngStream(15).normal((25, 1)),                                  # n x 1
    ], ids=["rank1", "row", "column"])
    def test_exact_on_rank_one(self, M):
        exact = np.linalg.svd(M, compute_uv=False)[0]
        assert spectral_norm(M) == pytest.approx(exact, rel=1e-13)


class TestGaussianSpectralNorm:
    # (rows, cols, draws a side, dense seed, chi seed)
    @pytest.mark.parametrize("rows, cols, draws, dense_seed, chi_seed", [
        (200, 300, 400, 9101, 9102), (300, 200, 400, 9103, 9104),
        (20, 30, 1000, 9105, 9106), (3, 50, 1000, 9107, 9108),
        (50, 3, 1000, 9109, 9110), (1, 1, 1000, 9111, 9112),
    ])
    def test_matches_dense_spectral_norm_in_distribution(self, rows, cols, draws,
                                                         dense_seed, chi_seed):
        dense = [spectral_norm(gaussian_matrix(rows, cols, 1.0, RngStream(dense_seed, k)))
                 for k in range(draws)]
        chi = [gaussian_spectral_norm(rows, cols, RngStream(chi_seed, k))
               for k in range(draws)]
        assert ks_two_sample(dense, chi) <= ks_critical_value(draws, draws)

    @pytest.mark.parametrize("shape", [(200, 300), (300, 200), (20, 30), (3, 50),
                                       (50, 3), (1, 1), (1, 40), (40, 1)])
    def test_at_most_rows_plus_cols_chi_draws_and_no_normals(self, shape):
        for k in range(20):
            rng = _CountingStream(9113, k)
            gaussian_spectral_norm(*shape, rng)
            assert rng.draws == 0 and 1 <= rng.chis <= sum(shape)

    def test_rank_one_shapes_are_exact(self):
        # n x 1 stops at step 1 with sigma = a_1 ~ chi_n; 1 x n breaks down
        # at step 2 with sigma^2 = a_1^2 + b_1^2, the row's squared norm
        for n in (1, 2, 40):
            rng, again = RngStream(9114, n), RngStream(9114, n)
            assert gaussian_spectral_norm(n, 1, rng) == float(again.chi(n))
            rng, again = RngStream(9115, n), RngStream(9115, n)
            a = float(again.chi(1))
            row = np.hypot(a, float(again.chi(n - 1))) if n > 1 else a
            assert gaussian_spectral_norm(1, n, rng) == pytest.approx(row, rel=1e-14)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            gaussian_spectral_norm(0, 3, RngStream(1))


class TestKsTwoSample:
    def test_identical_samples(self):
        a = [0.3, -1.0, 2.5]
        assert ks_two_sample(a, a) == 0.0

    def test_shifted_normals(self):
        # closed-form oracle: sup |Phi(t) - Phi(t-5)| = 2 Phi(2.5) - 1
        oracle = 2 * norm.cdf(2.5) - 1
        rng = RngStream(11)
        a = rng.normal(1000)
        b = rng.normal(1000) + 5.0
        stat = ks_two_sample(a, b)
        assert stat > 0.9
        assert abs(stat - oracle) < 0.05

    def test_same_distribution_critical_value(self):
        crit = 1.63 * np.sqrt(2 / 10_000)
        hits = 0
        for k in range(50):
            rng = RngStream(13, k)
            if ks_two_sample(rng.normal(10_000), rng.normal(10_000)) <= crit:
                hits += 1
        assert hits >= 47  # ~99% acceptance at the 0.01 level

    def test_matches_scipy(self):
        rng = RngStream(17)
        a, b = rng.normal(400), rng.normal(300) * 1.5
        assert ks_two_sample(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
           st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        s = ks_two_sample(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(ks_two_sample(b, a), abs=1e-15)

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], [])], ids=["first", "second"])
    def test_rejects_empty_sample(self, a, b):
        with pytest.raises(ValueError, match="requires nonempty samples"):
            ks_two_sample(a, b)

    def test_critical_value_constant(self):
        assert ks_critical_value(1000, 1000) == pytest.approx(
            1.628 * np.sqrt(2 / 1000), rel=1e-2)


class TestOneBlasThread:
    @staticmethod
    def _count() -> int:
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS found in /proc/self/maps")
        return calls[0]()

    def test_one_thread_then_restores(self):
        before = self._count()
        with one_blas_thread():
            assert self._count() == 1
        assert self._count() == before

    def test_restores_after_raise(self):
        before = self._count()
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError
        assert self._count() == before

    def test_overlapping_pins_across_threads(self):
        """This thread pins, thread B pins, this thread leaves, then B
        leaves: B's block runs at 1 thread throughout, and the count from
        before the first pin is restored after the last."""
        before = self._count()
        get, put = _openblas_thread_calls()
        b_entered, a_left = threading.Event(), threading.Event()
        seen = []

        def pin_b():
            with one_blas_thread():
                b_entered.set()
                a_left.wait(10)
                seen.append(get())

        b = threading.Thread(target=pin_b)
        try:
            put(2)
            with one_blas_thread():
                b.start()
                assert b_entered.wait(10)
            a_left.set()
            b.join(10)
            assert not b.is_alive()
            assert seen == [1] and get() == 2
        finally:
            a_left.set()
            put(before)
