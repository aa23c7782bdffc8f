import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from relurand import harness, probes
from relurand.errors import DegenerateInput
from relurand.harness import ExperimentConfig, _trial_net, run_experiment
from relurand.linalg import (gaussian_matrix, gaussian_times, ks_critical_value, ks_two_sample,
                             spectral_norm)
from relurand.network import (
    Architecture,
    bottleneck_decomposition,
    build_network,
    forward,
    grad_difference_decomposition,
    gradient,
    lazy_network,
    sphere_input,
)
from relurand.probes import (
    _SIGN_FLIP_BLOCK,
    _bernoulli_product_norm,
    _masked_segment,
    dist_equiv_stats,
    probe_activation_margin,
    probe_dist_equiv,
    probe_gradient_smoothness,
    probe_scale_preservation,
    probe_segment_spectral,
    probe_sign_flip,
    probe_value_gradient,
    value_gradient_stats,
)
from relurand.rng import RngStream
from test_linalg import _CountingStream


def net_and_input(seed, d=64, widths=(64, 64)):
    rng = RngStream(seed)
    net = build_network(Architecture(d, widths), rng)
    return net, rng.sphere_point(d, norm=np.sqrt(d)), rng


def value_gradient_rows(arch, trials, master_seed):
    """probe_value_gradient's rows as the value_gradient kind runs them:
    trial k on a lazy net from stream k + 1, at the input from stream 0."""
    x = sphere_input(arch.input_dim, RngStream(master_seed, 0))
    return [probe_value_gradient(lazy_network(arch, RngStream(master_seed, k + 1)), x)
            for k in range(trials)]


def dist_equiv_summary(arch, trials, master_seed, p=0.5):
    """dist_equiv_stats over trials of probe_dist_equiv at mask probability
    p, on the streams the dist_equiv kind gives them."""
    x = sphere_input(arch.input_dim, RngStream(master_seed, 0))
    return dist_equiv_stats([probe_dist_equiv(arch, x, RngStream(master_seed, 2 * k + 1),
                                              RngStream(master_seed, 2 * k + 2), p)
                             for k in range(trials)], p)


def gaussian_spectral_summary(m, n, delta, trials, master_seed):
    return run_experiment(ExperimentConfig(kind="probe:gaussian_spectral", dims=(m, n),
                                           delta=delta, trials=trials,
                                           master_seed=master_seed))["summary"]


@pytest.fixture
def record(monkeypatch):
    """record(name) wraps probes.<name> for the test and returns the list
    that each call's result is appended to, in call order."""
    def wrap(name):
        results = []
        fn = getattr(probes, name)

        def recorded(*args):
            results.append(fn(*args))
            return results[-1]

        monkeypatch.setattr(probes, name, recorded)
        return results
    return wrap


class TestValueGradient:
    def test_linear_chi_concentration(self):
        # l = 0: ||grad|| = ||w||, w ~ N(0, I/d), concentrates at 1 for d >= 64
        rows = value_gradient_rows(Architecture(64, ()), 200, master_seed=1)
        assert value_gradient_stats(rows, 0, 0.1)["grad_bound_freq"] >= 0.99  # bound is 1/2 at l = 0

    def test_two_layer_stated_constant(self):
        rows = value_gradient_rows(Architecture(256, (256, 256)), 200, master_seed=2)
        assert value_gradient_stats(rows, 2, 0.1)["grad_bound_freq"] >= 0.99  # 2^-3 bound

    def test_euler_identity_across_ensemble(self, record):
        # f(x) = grad f(x) . x on every net the probe sampled, at its input
        traces, grads = record("forward"), record("gradient")
        rows = value_gradient_rows(Architecture(64, (64,)), 100, master_seed=3)
        x = sphere_input(64, RngStream(3, 0))
        abs_f = [row["abs_f"] for row in rows]
        assert abs_f == [abs(t.output) for t in traces]
        euler_error = [abs(t.output - g @ x) for t, g in zip(traces, grads)]
        assert max(euler_error) <= 1e-10 * (1.0 + max(abs_f))


class TestScalePreservation:
    def test_zero_radius(self):
        net, x, rng = net_and_input(5)
        rep = probe_scale_preservation(net, x, 0.0, 10, rng)
        assert rep["max_post_spread_over_radius"] == 0.0

    def test_layer1_operator_norm_bound(self):
        # one hidden layer, and relu is 1-Lipschitz: ||f_1(x) - f_1(y)|| <=
        # ||ft_1(x) - ft_1(y)|| <= ||W_1|| ||x - y|| <= ||W_1|| radius
        net, x, rng = net_and_input(6, widths=(64,))
        radius = 1.0
        W1_norm = np.linalg.norm(net.weights[0], 2)
        rep = probe_scale_preservation(net, x, radius, 20, rng)
        assert 0.0 < rep["max_post_spread_over_radius"] <= W1_norm + 1e-12

    def test_row_holds_largest_post_spread(self, record):
        traces = record("forward")
        net, x, rng = net_and_input(9)
        rep = probe_scale_preservation(net, x, 0.5, 6, rng)
        tx, samples = traces[0], traces[1:]
        assert len(samples) == 6
        spread = max(np.linalg.norm(fx - fy) / 0.5 for ty in samples
                     for fx, fy in zip(tx.postactivations, ty.postactivations))
        assert rep["max_post_spread_over_radius"] == spread > 0.0
        assert list(rep) == ["norm_violations", "layers", "max_post_spread_over_radius",
                             "violation_frequency"]

    def test_no_norm_violations_at_width_512(self):
        violations = 0
        for k in range(20):
            net, x, rng = net_and_input(700 + k, d=512, widths=(512, 512))
            rep = probe_scale_preservation(net, x, np.sqrt(512) / 10, 5, rng)
            violations += rep["norm_violations"]
        assert violations == 0


class TestActivationMargin:
    def test_zero_alpha_rejected(self):
        net, x, _ = net_and_input(8)
        with pytest.raises(ValueError):
            probe_activation_margin(net, x, 0.0)

    def test_tiny_alpha_count_is_full(self):
        # every nonzero preactivation clears a 1e-12 margin, so the count is
        # the full width and the one hidden-to-hidden layer never violates
        net, x, _ = net_and_input(9, d=128, widths=(128, 128))
        rep = probe_activation_margin(net, x, 1e-12)
        assert (rep["violations"], rep["layers"]) == (0, 1)

    def test_one_hidden_layer_has_no_frequency(self):
        # the output layer is excluded, so one hidden layer leaves no layer
        # to check: each row's frequency, and the run's, is null, not 0.0
        net, x, _ = net_and_input(9, d=16, widths=(16,))
        assert probe_activation_margin(net, x, 0.1) == {
            "violations": 0, "layers": 0, "violation_frequency": None}
        out = run_experiment(ExperimentConfig(kind="probe:activation_margin", d=16,
                                              widths=(16,), trials=3))
        assert [r.values["violation_frequency"] for r in out["rows"]] == [None] * 3
        assert out["summary"]["violation_frequency"] is None

    def test_row_named_by_net_stream(self):
        # trial 7's row carries the id of the stream its net was drawn from
        rows = run_experiment(ExperimentConfig(kind="probe:activation_margin", d=16,
                                               widths=(16, 16), trials=8,
                                               master_seed=9))["rows"]
        row = probe_activation_margin(*_trial_net(Architecture(16, (16, 16)), RngStream(9, 7)),
                                      0.1)
        assert (rows[7].seed, rows[7].values) == (7, row)

    def test_single_neuron_density_oracle(self):
        # per-neuron miss probability P(|Z| <= 0.1) vs the 0.1 sqrt(2/pi) density bound
        miss = 2 * norm.cdf(0.1) - 1
        assert miss <= 0.1 * np.sqrt(2 / np.pi)
        assert miss == pytest.approx(0.0797, abs=1e-3)

    def test_low_violation_rate(self):
        viol = pairs = 0
        for k in range(30):
            net, x, _ = net_and_input(900 + k, d=512, widths=(512, 512, 512))
            rep = probe_activation_margin(net, x, 0.1)
            viol += rep["violations"]
            pairs += rep["layers"]
        assert viol / pairs <= 0.01


class TestGradientSmoothness:
    def test_zero_radius(self):
        net, x, rng = net_and_input(10)
        rep = probe_gradient_smoothness(net, x, 0.0, 5, rng)
        assert rep["max_drift"] == 0.0

    def test_triangle_inequality(self, record):
        # the reported drift, decomposed layerwise at each sampled y: it is
        # the largest ||grad_x - grad_y||, and no more than its term norms' sum
        traces = record("forward")
        net, x, rng = net_and_input(11)
        rep = probe_gradient_smoothness(net, x, 2.0, 30, rng)
        decs = [grad_difference_decomposition(net, traces[0], ty) for ty in traces[1:]]
        drifts = [np.linalg.norm(dec.grad_x - dec.grad_y) for dec in decs]
        assert rep["max_drift"] == max(drifts) > 0.0
        for dec, drift in zip(decs, drifts):
            assert sum(np.linalg.norm(t) for t in dec.terms) + 1e-12 >= drift

    def test_drift_shrinks_with_radius(self):
        # drift ratio stays well below 1 at 5% relative radius; cutting the
        # radius by 10x cuts it at least in half (the mask-flip term scales
        # like sqrt of the radius, not linearly)
        big, small = [], []
        for k in range(10):
            net, x, rng = net_and_input(1100 + k, d=1024, widths=(1024, 1024))
            r = 0.05 * np.sqrt(1024)
            big.append(probe_gradient_smoothness(net, x, r, 10, rng)["max_drift_ratio"])
            small.append(probe_gradient_smoothness(net, x, r / 10, 10, rng)["max_drift_ratio"])
        assert np.median(big) <= 0.5
        assert np.median(small) <= 0.5 * np.median(big)


class TestSegmentSpectral:
    def test_single_factor_segment(self):
        # all masks forced on: the segment norm is exactly ||W|| of that layer
        from relurand.probes import _masked_segment
        net, x, rng = net_and_input(12, d=16, widths=(8, 16))
        trace = forward(net, x)
        ones = tuple(np.ones_like(m) for m in trace.masks)
        forced = dataclasses.replace(trace, masks=ones)
        M = _masked_segment(net, forced, 1, 0)
        assert np.array_equal(M, net.weights[0])

    def test_zero_masks_kill_segment(self):
        from relurand.probes import _masked_segment
        net, x, rng = net_and_input(13, d=16, widths=(8, 16))
        trace = forward(net, x)
        zeros = tuple(np.zeros_like(m) for m in trace.masks)
        killed = dataclasses.replace(trace, masks=zeros)
        M = _masked_segment(net, killed, 2, 0)
        assert np.all(M == 0.0)

    def test_one_bottleneck_rejected(self):
        # at d = 4 below widths (8, 8) the input is the only bottleneck
        net, x, rng = net_and_input(15, d=4, widths=(8, 8))
        with pytest.raises(ValueError, match="need at least two bottleneck indices"):
            probe_segment_spectral(net, x, 1.0, 2, rng)

    def test_bounds_hold_with_calibrated_constant(self):
        net, x, rng = net_and_input(14, d=512, widths=(512, 64, 512))
        rep = probe_segment_spectral(net, x, np.sqrt(512) / 10, 20, rng)
        assert rep["violations"] == 0

    @staticmethod
    def _full_masked_segment(net, trace, top, bottom):
        # D_top W_top ... D_{bottom+1} W_{bottom+1} with its zero rows, as
        # _masked_segment formed it before it kept active blocks
        P = trace.masks[bottom][:, None] * net.weights[bottom]
        for k in range(bottom + 1, top):
            P = trace.masks[k][:, None] * (net.weights[k] @ P)
        return P

    @pytest.mark.parametrize("d, widths, seed", [(256, (256, 64, 256), 2211),
                                                 (64, (64, 16, 64, 8), 2212)],
                             ids=["one_pair", "two_pairs"])
    def test_active_block_norm_matches_full_product(self, d, widths, seed):
        net, x, rng = net_and_input(seed, d, widths)
        indices = bottleneck_decomposition(net.arch).indices
        for _ in range(5):
            trace = forward(net, rng.ball_point(x, 1.6))
            for hi, lo in zip(indices[:-1], indices[1:]):
                full = spectral_norm(self._full_masked_segment(net, trace, hi, lo))
                block = _masked_segment(net, trace, hi, lo)
                assert block.shape == (trace.masks[hi - 1].sum(), net.arch.dims[lo])
                assert spectral_norm(block) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("layer", [0, 1], ids=["below_top", "top"])
    def test_inactive_layer_gives_zero_norm(self, layer, monkeypatch):
        # one segment, D_2 W_2 D_1 W_1; with no unit of D_{layer+1} active
        # every sampled norm, and so the fitted constant, is exactly 0
        def inactive(net, y):
            trace = forward(net, y)
            masks = list(trace.masks)
            masks[layer] = np.zeros_like(masks[layer])
            return dataclasses.replace(trace, masks=tuple(masks))

        monkeypatch.setattr(probes, "forward", inactive)
        net, x, rng = net_and_input(2213, d=16, widths=(16, 4, 16))
        rep = probe_segment_spectral(net, x, 0.5, 3, rng)
        assert rep["fitted_c"] == 0.0 and rep["violations"] == 0


class TestSignFlip:
    def test_identical_inputs(self):
        x = np.array([1.0, 2.0])
        out = probe_sign_flip(x, x, 1000, RngStream(0))
        assert out["empirical"] == 0.0 and out["oracle"] == 0.0

    def test_antipodal(self):
        x = np.array([1.0, 0.0, 0.0])
        out = probe_sign_flip(x, -x, 1000, RngStream(1))
        assert out["oracle"] == pytest.approx(1.0)
        assert out["bound"] is None  # r > R: formula precondition violated

    def test_orthogonal_half(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        out = probe_sign_flip(x, y, 100_000, RngStream(2))
        assert out["oracle"] == pytest.approx(0.5)
        assert abs(out["empirical"] - 0.5) <= 3 * out["std_error"]

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            probe_sign_flip(np.zeros(3), np.ones(3), 10, RngStream(3))

    def test_empirical_below_bound_small_r(self):
        rng = RngStream(4)
        x = rng.sphere_point(50, norm=10.0)
        y = x + rng.sphere_point(50, norm=0.5)
        out = probe_sign_flip(x, y, 100_000, rng)
        assert out["empirical"] <= out["bound"]

    @staticmethod
    def _one_shot_row(x, y, n_draws, rng):
        # probe_sign_flip's row from one n_draws x 2 image, as before blocks
        R, ny, r = np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(x - y)
        wx, wy = gaussian_times(np.stack([x, y], axis=1), n_draws, 1.0, rng).T
        oracle = 0.0 if r == 0.0 else float(
            np.arccos(np.clip(float(x @ y) / (R * ny), -1.0, 1.0)) / np.pi)
        return {"empirical": float(np.mean(np.sign(wx) != np.sign(wy))),
                "bound": float(3.0 * (r / R) * np.sqrt(np.log(R / r))) if 0.0 < r < R else None,
                "oracle": oracle,
                "std_error": float(np.sqrt(max(oracle * (1.0 - oracle), 1.0 / n_draws) / n_draws))}

    @pytest.mark.parametrize("n_draws", [1, _SIGN_FLIP_BLOCK - 1, _SIGN_FLIP_BLOCK,
                                         _SIGN_FLIP_BLOCK + 1, 3 * _SIGN_FLIP_BLOCK + 17])
    @pytest.mark.parametrize("radius", [0.0, 0.7])
    def test_blocks_count_as_one_image(self, n_draws, radius):
        rng = RngStream(2214)
        x = rng.sphere_point(20, norm=np.sqrt(20))
        y = x + rng.sphere_point(20, norm=radius)
        rep = probe_sign_flip(x, y, n_draws, RngStream(2215, 3))
        assert rep == self._one_shot_row(x, y, n_draws, RngStream(2215, 3))

    def test_memory_is_one_block(self):
        # one 10^6 x 2 image is 16 MB, and its sign temporaries as much again
        rng = RngStream(2216)
        x = rng.sphere_point(200, norm=np.sqrt(200))
        y = x + rng.sphere_point(200, norm=0.7)
        tracemalloc.start()
        try:
            probe_sign_flip(x, y, 10**6, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak


class TestDistEquiv:
    def test_linear_case_passes(self):
        assert dist_equiv_summary(Architecture(64, ()), 1000, master_seed=6)["pass"]

    def test_two_layer_passes(self):
        assert dist_equiv_summary(Architecture(128, (128, 128)), 1000, master_seed=7)["pass"]

    def test_mismatched_control_fails(self):
        out = dist_equiv_summary(Architecture(128, (128, 128)), 1000, master_seed=8, p=0.9)
        assert not out["pass"]


class TestBernoulliSample:
    @pytest.mark.parametrize("p, seed", [(0.5, 21), (0.9, 22)])
    def test_mean_square_norm(self, p, seed):
        # standard init: each layer maps E||v||^2 to p E||v||^2, and the
        # output row has E||v||^2 = 1, so E||B||^2 = p^l exactly
        arch = Architecture(128, (128, 128))
        sq = np.array([_bernoulli_product_norm(arch, p, RngStream(seed, k)) ** 2
                       for k in range(4000)])
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - p ** arch.ell) <= 4 * se

    def test_same_stream_same_value(self):
        arch = Architecture(64, (32, 48))
        a = _bernoulli_product_norm(arch, 0.5, RngStream(23, 4))
        b = _bernoulli_product_norm(arch, 0.5, RngStream(23, 4))
        assert a == b

    @pytest.mark.parametrize("arch, p, seed", [
        (Architecture(128, (128, 128)), 0.5, 24),
        (Architecture(64, (32, 48)), 0.9, 26),
        (Architecture(16, (3,)), 0.3, 28),
    ])
    def test_chi_product_matches_vector_path_in_distribution(self, arch, p, seed):
        # 1000 chi products against 1000 row vectors pushed through the
        # masked layers, KS at level 0.01
        chi = [_bernoulli_product_norm(arch, p, RngStream(seed, k)) for k in range(1000)]
        vector = [_vector_product_norm(arch, p, RngStream(seed + 1, k))
                  for k in range(1000)]
        assert ks_two_sample(chi, vector) <= ks_critical_value(1000, 1000)

    def test_empty_mask_is_exactly_zero_without_a_chi_draw(self):
        for arch, p in ((Architecture(8, (4, 4)), 0.0), (Architecture(8, (1,)), 1e-9)):
            rng = _CountingStream(27)
            assert _bernoulli_product_norm(arch, p, rng) == 0.0
            assert rng.chis == 0 and rng.draws == 0


def _vector_product_norm(arch, p, rng):
    """||W_{l+1} prod D_i W_i|| by pushing the gaussian output row through
    fresh Bernoulli(p) masks, each layer's image v D_i W_i drawn by
    gaussian_times."""
    dims = arch.dims
    v = gaussian_matrix(1, dims[-2], 1.0 / np.sqrt(dims[-2]), rng)[0]
    for i in range(arch.ell, 0, -1):
        mask = rng.bernoulli(p, dims[i]).astype(np.float64)
        v = gaussian_times((v * mask)[:, None], dims[i - 1],
                           1.0 / np.sqrt(dims[i - 1]), rng)[:, 0]
    return float(np.linalg.norm(v))


class TestGaussianSpectral:
    def test_scalar_case(self):
        out = gaussian_spectral_summary(1, 1, 0.1, 100, master_seed=9)
        assert out["violations"] == 0  # bound >= 6, |N(0,1)| essentially never

    def test_stated_bound(self):
        out = gaussian_spectral_summary(200, 300, 0.01, 100, master_seed=10)
        assert out["violations"] <= 1

    def test_marchenko_pastur_edge(self):
        out = gaussian_spectral_summary(500, 500, 0.01, 30, master_seed=11)
        assert 0.9 <= out["mean_norm_over_edge"] <= 1.1


def _dense_value_gradient(arch, trials, master_seed):
    """|f(x)| and ||grad f(x)|| of dense standard nets at one sphere input."""
    x = sphere_input(arch.input_dim, RngStream(master_seed, 0))
    out = []
    for k in range(trials):
        rng = RngStream(master_seed, k + 1)
        net = build_network(arch, rng)
        trace = forward(net, x)
        out.append((abs(trace.output), float(np.linalg.norm(gradient(net, trace)))))
    return np.array(out).T


class TestLazyNets:
    # value_gradient and dist_equiv sample A run on network.lazy_network;
    # 1000 lazy against 1000 dense nets, KS at level 0.01
    arch = Architecture(64, (64, 64))

    def test_value_gradient_matches_dense_in_distribution(self):
        rows = value_gradient_rows(self.arch, 1000, master_seed=8101)
        dense = _dense_value_gradient(self.arch, 1000, 8102)
        for column, name in enumerate(("abs_f", "grad_norm")):
            stat = ks_two_sample([row[name] for row in rows], dense[column])
            assert stat <= ks_critical_value(1000, 1000), name

    def test_dist_equiv_sample_a_matches_dense_in_distribution(self, record):
        grads = record("gradient")   # sample A's gradients; sample B takes none
        dist_equiv_summary(self.arch, 1000, master_seed=8103)
        dense = _dense_value_gradient(self.arch, 1000, 8104)[1]
        stat = ks_two_sample([np.linalg.norm(g) for g in grads], dense)
        assert stat <= ks_critical_value(1000, 1000)

    def test_value_gradient_net_draws_one_direction_per_side(self, monkeypatch):
        # the output row (256) plus, per hidden layer, one forward and one
        # gradient direction (256 + 256): 1280 normals against 131,328 dense
        streams = []

        class Recorded(_CountingStream):
            def __init__(self, *args):
                super().__init__(*args)
                streams.append(self)

        monkeypatch.setattr(harness, "RngStream", Recorded)
        run_experiment(ExperimentConfig(kind="probe:value_gradient", d=256, widths=(256, 256),
                                        trials=1, master_seed=8105))
        assert [s.draws for s in streams] == [0, 256 + 2 * (256 + 256)]
