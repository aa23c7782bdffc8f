import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relurand.collapse import (
    collapse_simulate,
    kernel_iterate,
    kernel_map,
    kernel_mc_estimate,
    sin_cos_gap,
)
from relurand.errors import DomainError
from relurand.linalg import gaussian_times
from relurand.network import InitMode, init_std
from relurand.rng import RngStream


class TestKernelMap:
    def test_closed_form_values(self):
        assert kernel_map(0.0) == 1.0
        assert kernel_map(np.pi / 2) == pytest.approx(1 / np.pi, rel=1e-12)
        assert kernel_map(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_map(-0.1)
        with pytest.raises(DomainError):
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
        with pytest.raises(DomainError):
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

    def test_fixed_point_at_zero_angle(self):
        tr = kernel_iterate(0.0, 10)
        assert np.all(tr.rhos == 1.0)
        assert np.all(tr.thetas == 0.0)

    def test_bad_args(self):
        with pytest.raises(DomainError):
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
