import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relurand import collapse, linalg
from relurand.collapse import (
    _kernel_steps,
    collapse_simulate,
    kernel_iterate,
    kernel_map,
    kernel_mc_estimate,
    sin_cos_gap,
)
from relurand.linalg import _gram_factor, gaussian_times
from relurand.network import InitMode, init_std
from relurand.rng import RngStream


class TestKernelMap:
    def test_closed_form_values(self):
        assert kernel_map(0.0) == 1.0
        assert kernel_map(np.pi / 2) == pytest.approx(1 / np.pi, rel=1e-12)
        assert kernel_map(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_map(-0.1)
        with pytest.raises(ValueError):
            kernel_map(np.pi + 0.1)

    @given(theta=st.floats(0.0, np.pi))
    @settings(max_examples=200, deadline=None)
    def test_improves_correlation(self, theta):
        # one layer never decreases the correlation and stays in [0, 1]
        rho = kernel_map(theta)
        assert np.cos(theta) - 1e-12 <= rho <= 1.0 + 1e-12


class TestKernelMcEstimate:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 2, 2 * np.pi / 3])
    def test_matches_closed_form(self, theta):
        out = kernel_mc_estimate(theta, 200_000, RngStream(42))
        assert abs(out["estimate"] - kernel_map(theta)) <= 3 * out["std_error"]

    def test_zero_angle_is_exact_half_chi(self):
        # theta = 0: numerator is E relu(g1)^2 = 1/2, so estimate -> 1
        out = kernel_mc_estimate(0.0, 200_000, RngStream(7))
        assert abs(out["estimate"] - 1.0) <= 3 * out["std_error"]

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_mc_estimate(4.0, 100, RngStream(0))


class TestKernelIterate:
    def test_antipodal_first_step(self):
        tr = kernel_iterate(np.pi, 3)
        assert tr.rhos[0] == pytest.approx(0.0, abs=1e-15)
        assert tr.thetas[0] == pytest.approx(np.pi / 2, rel=1e-12)

    def test_monotone_convergence_to_one(self):
        tr = kernel_iterate(np.pi, 500)
        assert np.all(np.diff(tr.rhos) >= -1e-15)
        assert tr.rhos[-1] > 0.99

    # theta' = theta - theta^2/(3 pi) - theta^3/(18 pi^2) + O(theta^4), so
    # u = 1/theta steps by a + (a^2 + b) theta + O(theta^2), a = 1/(3 pi),
    # b = 1/(18 pi^2), and u_L = a L + (3a/2) ln L + C + O(ln L / L), with
    # C near 1/theta_0.  Hence 1 - L theta_L/(3 pi) = 3 pi/(theta_0 L)
    # + (3/2) ln L/L + O(1/L), and K(L) = L (3 pi/(L theta_L) - 1)
    # - (3/2) ln L = 3 pi C + O(ln L / L) levels off; a log coefficient c
    # other than 3/2 would move K by (c - 3/2) ln 10 between 10^3 and 10^4

    @pytest.mark.parametrize("L", [10**3, 10**4])
    def test_three_pi_over_depth_limit(self, L):
        theta_0 = np.pi
        gap = 1.0 - L * kernel_iterate(theta_0, L).thetas[L - 1] / (3 * np.pi)
        lead = 3 * np.pi / (theta_0 * L) + 1.5 * np.log(L) / L
        assert abs(gap - lead) <= 1.0 / L, gap

    def test_three_halves_log_coefficient(self):
        thetas = kernel_iterate(np.pi, 10**4).thetas
        ks = [L * (3 * np.pi / (L * thetas[L - 1]) - 1.0) - 1.5 * np.log(L)
              for L in (10**3, 10**4)]
        assert abs(ks[1] - ks[0]) <= 0.05, ks

    def test_matches_high_precision_iteration(self):
        # theta_L from theta_0 = pi by the same map in 40-digit arithmetic
        # (mpmath); arccos of rho near 1 was off by -3.4e-7 at L = 10^5 and
        # read K(10^5) = 3.4238
        thetas = kernel_iterate(np.pi, 10**5).thetas
        exact = {10**3: 0.009296805913342214109, 10**4: 0.00094085883714408763937,
                 10**5: 0.000094228312531856482913}
        for L, theta in exact.items():
            assert thetas[L - 1] == pytest.approx(theta, rel=1e-9), L
        L = 10**5
        assert L * (3 * np.pi / (L * thetas[L - 1]) - 1.0) - 1.5 * np.log(L) == pytest.approx(
            3.3901, abs=0.005)

    def test_fixed_point_at_zero_angle(self):
        tr = kernel_iterate(0.0, 10)
        assert np.all(tr.rhos == 1.0)
        assert np.all(tr.thetas == 0.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            kernel_iterate(-1.0, 5)
        with pytest.raises(ValueError):
            kernel_iterate(1.0, 0)


class TestSinCosGap:
    def test_nonnegative_on_fine_grid(self):
        out = sin_cos_gap(10_000)
        assert out["min_margin"] >= 0.0

    def test_endpoint_margins(self):
        # x = 0 gives margin 0; x = pi gives pi - 2^{3/2}/15 ~ 2.95
        x = np.pi
        margin = np.sin(x) - x * np.cos(x) - (1 - np.cos(x)) ** 1.5 / 15
        assert margin == pytest.approx(np.pi - 2 ** 1.5 / 15, rel=1e-12)
        assert margin > 2.9

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sin_cos_gap(10)


class TestCollapseSimulate:
    def test_identical_pair_stays_identical(self):
        x = RngStream(3).sphere_point(6)
        rep = collapse_simulate(6, 32, 4, 1, master_seed=11, pairs=[(x, x)])
        assert np.allclose(rep.layer_cosines, 1.0, atol=1e-12)
        assert np.all(rep.constancy_ratios == 0.0)
        assert rep.initial_angles[0] == 0.0

    def test_cosines_and_constancy_match_per_pair_loop(self):
        # one layer of 8 units over 80 points of the circle: at this seed 6
        # of them get an all-zero image, and 4 pairs a NaN cosine
        d, width, seed = 2, 8, 13
        angles = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pairs = list(zip(points[0::2], points[1::2]))
        rep = collapse_simulate(d, width, 1, len(pairs), master_seed=seed, pairs=pairs)
        X = np.stack([v for p in pairs for v in p], axis=1)
        cur = np.maximum(gaussian_times(X, width, init_std(d, InitMode.DEPTH_COLLAPSE),
                                        RngStream(seed, 2)), 0.0)
        out = init_std(width, InitMode.DEPTH_COLLAPSE) * RngStream(seed, 1).normal(width) @ cur
        norms = rep.layer_norms[:, 0]
        assert np.array_equal(norms, np.linalg.norm(cur, axis=0)) and np.any(norms == 0.0)
        for p in range(len(pairs)):
            x, y = 2 * p, 2 * p + 1
            if norms[x] == 0.0 or norms[y] == 0.0:
                assert np.isnan(rep.layer_cosines[p, 0])
            else:
                cos = cur[:, x] @ cur[:, y] / (norms[x] * norms[y])
                assert abs(rep.layer_cosines[p, 0] - cos) <= 1e-14
            assert rep.constancy_ratios[p, 0] == abs(out[x] - out[y]) / (abs(out[x]) + 1e-12)

    def test_kernel_track_matches_iterate(self):
        rep = collapse_simulate(8, 32, 6, 3, master_seed=13)
        for p in range(3):
            tr = kernel_iterate(rep.initial_angles[p], 6)
            assert np.array_equal(rep.kernel_track[p], tr.rhos)

    def test_determinism(self):
        a = collapse_simulate(6, 32, 5, 2, master_seed=9)
        b = collapse_simulate(6, 32, 5, 2, master_seed=9)
        assert np.array_equal(a.layer_cosines, b.layer_cosines)
        assert np.array_equal(a.constancy_ratios, b.constancy_ratios)

    def test_norm_ratios_near_one_at_width(self):
        rep = collapse_simulate(10, 1000, 10, 4, master_seed=21)
        assert np.all(rep.norm_ratios > 0.7)
        assert np.all(rep.norm_ratios < 1.3)

    def test_cosines_track_kernel_at_moderate_scale(self):
        rep = collapse_simulate(10, 1000, 20, 5, master_seed=23)
        mad = np.mean(np.abs(rep.layer_cosines - rep.kernel_track))
        assert mad <= 0.1

    def test_checkpoint_defaults_and_validation(self):
        rep = collapse_simulate(6, 32, 8, 1, master_seed=1)
        assert rep.checkpoint_depths == (5, 8)
        with pytest.raises(ValueError):
            collapse_simulate(1, 32, 8, 1, master_seed=1)

    @pytest.mark.parametrize("width", [8, 5000])  # 5000: layer 1's normals drawn ahead
    def test_pairs_must_match_d_and_n_pairs(self, width, monkeypatch):
        x, y = RngStream(3).sphere_point(5), RngStream(4).sphere_point(5)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew normals before checking pairs")
        monkeypatch.setattr(RngStream, "normal", no_draw)
        with pytest.raises(ValueError, match="pairs must be 2 pairs of vectors in R\\^2"):
            collapse_simulate(2, width, 4, 2, master_seed=1, pairs=[(x, y), (y, x)])
        with pytest.raises(ValueError, match="pairs must be 3 pairs of vectors in R\\^5"):
            collapse_simulate(5, width, 4, 3, master_seed=1, pairs=[(x, y), (y, x)])
        with pytest.raises(ValueError, match="pairs must be 2 pairs"):
            collapse_simulate(5, width, 4, 2, master_seed=1, pairs=[(x, y), (y, x[:4])])


def _serial_gaussian_times(M, rows, std, rng):
    """gaussian_times as it was before the factor and apply steps split:
    a bytes-keyed dedup and a gather into a new array."""
    cols = np.ascontiguousarray(np.asarray(M, dtype=np.float64).T)
    slot, keep = {}, []
    inverse = np.empty(len(cols), dtype=np.intp)
    for j, col in enumerate(cols):
        inverse[j] = slot.setdefault(col.tobytes(), len(slot))
        if inverse[j] == len(keep):
            keep.append(j)
    R = _gram_factor(cols[keep].T)
    return (std * rng.normal((rows, R.shape[0])) @ R)[:, inverse]


def _serial_collapse(d, width, depth, n_pairs, master_seed, pairs=None):
    """The layer loop of collapse_simulate drawn in series, with fresh
    arrays per layer and a per-pair kernel track."""
    checkpoint_depths = (5, depth) if depth > 5 else (depth,)
    pair_rng = RngStream(master_seed, 0)
    if pairs is None:
        pairs = [(pair_rng.sphere_point(d), pair_rng.sphere_point(d)) for _ in range(n_pairs)]
    n_pairs = len(pairs)
    X = np.stack([np.asarray(v, dtype=np.float64) for p in pairs for v in p], axis=1)
    angles = np.zeros(n_pairs)
    for p, (a, b) in enumerate(pairs):
        c = np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)
        angles[p] = np.arccos(c)
    w_out = init_std(width, InitMode.DEPTH_COLLAPSE) * RngStream(master_seed, 1).normal(width)
    layer_cos = np.full((n_pairs, depth), np.nan)
    layer_norms = np.zeros((2 * n_pairs, depth))
    norm_ratios = np.zeros((2 * n_pairs, depth))
    constancy = np.zeros((n_pairs, len(checkpoint_depths)))
    cur, fan_in, prev_norms = X, d, np.linalg.norm(X, axis=0)
    for t in range(1, depth + 1):
        std = init_std(fan_in, InitMode.DEPTH_COLLAPSE)
        cur = np.maximum(_serial_gaussian_times(cur, width, std, RngStream(master_seed, t + 1)),
                         0.0)
        norms = np.linalg.norm(cur, axis=0)
        layer_norms[:, t - 1] = norms
        expected = np.sqrt(width / fan_in) * prev_norms
        norm_ratios[:, t - 1] = np.divide(norms, expected, out=np.zeros_like(norms),
                                          where=expected > 0)
        prev_norms, fan_in = norms, width
        nx, ny = norms[0::2], norms[1::2]
        np.divide(np.einsum("ij,ij->j", cur[:, 0::2], cur[:, 1::2]), nx * ny,
                  out=layer_cos[:, t - 1], where=(nx > 0.0) & (ny > 0.0))
        if t in checkpoint_depths:
            out = w_out @ cur
            fx, fy = out[0::2], out[1::2]
            constancy[:, checkpoint_depths.index(t)] = np.abs(fx - fy) / (np.abs(fx) + 1e-12)
    track = np.stack([kernel_iterate(a, depth).rhos for a in angles])
    return {"initial_angles": angles, "layer_cosines": layer_cos, "layer_norms": layer_norms,
            "norm_ratios": norm_ratios, "kernel_track": track, "constancy_ratios": constancy}


def _circle_pairs(n):
    angles = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return list(zip(points[0::2], points[1::2]))


_X6 = RngStream(3).sphere_point(6)
_E6 = RngStream(4).sphere_point(6)


class TestPipelinedCollapse:
    """collapse_simulate against its serial layer loop, bit for bit, with
    the normals drawn ahead on the helper thread and in the calling one."""

    @pytest.mark.parametrize("ahead_min", [0, 10 ** 12], ids=["ahead", "inline"])
    @pytest.mark.parametrize("args, pairs, householder", [
        ((10, 2000, 40, 50, 3), None, True),                     # the benchmark shape
        ((6, 3000, 6, 2, 11), [(_X6, _X6), (_X6, _E6)], False),  # repeated columns
        ((2, 8, 3, 40, 13), _circle_pairs(40), True),            # zero columns from layer 1
        ((6, 3000, 6, 1, 5), [(_X6, _X6 + 1e-9 * _E6)], True),   # nearly collinear
        ((5, 500, 7, 4, 17), None, True),                        # d < 2 n_pairs
        ((5, 2000, 1, 20, 19), None, True),                      # one layer, d < 2 n_pairs
        ((10, 2000, 9, 50, 23), None, True),                     # odd depth: ends on buffer 1
    ], ids=["workload", "equal_pair", "zero_columns", "householder", "wide_first",
            "one_wide_layer", "odd_depth"])
    def test_same_bits_as_serial_loop(self, args, pairs, householder, ahead_min, monkeypatch):
        monkeypatch.setattr(collapse, "_AHEAD_MIN_NORMALS", ahead_min)
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(1) or qr(*a, **kw))
        rep = collapse_simulate(*args, pairs=pairs)
        ours, qr_calls[:] = len(qr_calls), []
        expected = _serial_collapse(*args, pairs=pairs)
        for name, want in expected.items():
            got = getattr(rep, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        # the same layers took R from Householder: a wide first layer, a
        # singular or an ill-conditioned Gram
        assert ours == len(qr_calls) and (ours > 0) == householder

    def test_draws_double_buffered(self, monkeypatch):
        # the schedule from call order and buffers, with no timing: layer
        # t + 1's draw is submitted before layer t's apply, into the buffer
        # that layer t neither applies nor takes its squares in
        width, depth, n_pairs = 2000, 5, 5      # 20,000 normals a layer: drawn ahead
        events, outs = [], {}
        from concurrent.futures import ThreadPoolExecutor
        submit, normal = ThreadPoolExecutor.submit, RngStream.normal
        apply, multiply = collapse.gaussian_times_apply, np.multiply

        def recording_submit(self, fn, t, n):
            events.append(("submit", t))
            return submit(self, fn, t, n)

        def recording_normal(self, size=None, out=None):
            if out is not None:
                outs[self.stream_id - 1] = out    # layer t draws from stream t + 1
            return normal(self, size, out=out)

        def recording_apply(G, *args, **kwargs):
            events.append(("apply", G))
            return apply(G, *args, **kwargs)

        def recording_multiply(*args, out=None):
            if out is not None and out.shape == (width, 2 * n_pairs):
                events.append(("squares", out))
            return multiply(*args, out=out)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
        monkeypatch.setattr(RngStream, "normal", recording_normal)
        monkeypatch.setattr(collapse, "gaussian_times_apply", recording_apply)
        monkeypatch.setattr(np, "multiply", recording_multiply)
        collapse_simulate(10, width, depth, n_pairs, master_seed=1)

        expected = [1]                          # submitted layers, and the layer steps
        for t in range(1, depth + 1):
            expected += [t + 1] * (t < depth) + ["apply", "squares"]
        assert [a if kind == "submit" else kind for kind, a in events] == expected
        applied = [a for kind, a in events if kind == "apply"]
        squares = [a for kind, a in events if kind == "squares"]
        assert sorted(outs) == list(range(1, depth + 1))
        for t in range(1, depth + 1):
            G, S = applied[t - 1], squares[t - 1]
            assert np.shares_memory(G, outs[t]) and np.shares_memory(S, outs[t])
            if t < depth:
                # layer t + 1's draw is in flight during layer t's apply and squares
                ahead = outs[t + 1]
                assert not np.shares_memory(ahead, outs[t])
                assert not np.shares_memory(ahead, G) and not np.shares_memory(ahead, S)

    def test_helper_thread_joined_on_return(self):
        before = threading.active_count()
        collapse_simulate(10, 2000, 5, 5, master_seed=1)
        assert threading.active_count() == before

    def test_helper_thread_joined_when_a_layer_raises(self, monkeypatch):
        before = threading.active_count()
        seen = []

        def failing(U):
            seen.append(threading.active_count())
            if len(seen) == 3:
                raise RuntimeError("layer 3")
            return _gram_factor(U)

        monkeypatch.setattr(linalg, "_gram_factor", failing)
        with pytest.raises(RuntimeError, match="layer 3"):
            collapse_simulate(10, 2000, 8, 5, master_seed=1)
        assert seen == [before + 1] * 3    # the helper ran while the layers did
        assert threading.active_count() == before

    def test_helper_error_raised_in_caller(self, monkeypatch):
        before = threading.active_count()
        normal = RngStream.normal
        drawn_on = []

        def failing(self, size=None, out=None):
            if self.stream_id == 4:
                drawn_on.append(threading.current_thread())
                raise RuntimeError("layer 3 draw")
            return normal(self, size, out=out)

        monkeypatch.setattr(RngStream, "normal", failing)
        with pytest.raises(RuntimeError, match="layer 3 draw"):
            collapse_simulate(10, 2000, 8, 5, master_seed=1)
        assert len(drawn_on) == 1 and drawn_on[0] is not threading.current_thread()
        assert threading.active_count() == before

    def test_inline_side_starts_no_thread(self, monkeypatch):
        # 2,000 normals a layer, below _AHEAD_MIN_NORMALS
        before = threading.active_count()
        seen = []

        def counting(U):
            seen.append(threading.active_count())
            return _gram_factor(U)

        monkeypatch.setattr(linalg, "_gram_factor", counting)
        collapse_simulate(10, 200, 6, 5, master_seed=1)
        assert seen == [before] * 6


def test_kernel_steps_equal_scalar_iteration():
    # the vectorized iteration against kernel_iterate one angle at a time,
    # each rho against kernel_map of the angle before it, and each angle's
    # cosine against its rho
    angles = np.concatenate([np.linspace(0.0, np.pi, 498), [np.pi / 3, 1e-9]])
    thetas, rhos = _kernel_steps(angles, 40)
    for p, theta in enumerate(angles):
        tr = kernel_iterate(theta, 40)
        assert np.array_equal(thetas[p], tr.thetas) and np.array_equal(rhos[p], tr.rhos)
        for t in range(40):
            assert rhos[p, t] == kernel_map(theta)
            theta = float(thetas[p, t])
        assert np.max(np.abs(np.cos(thetas[p]) - rhos[p])) <= 1e-15
