import functools

import numpy as np
import pytest
from scipy.stats import beta

from relurand.adversarial import flip_search, paper_eta, verify_theorem1
from relurand.errors import DegenerateInput
from relurand.harness import ExperimentConfig, _trial_net, run_experiment
from relurand.linalg import ks_critical_value, ks_two_sample
from relurand.network import (Architecture, InitMode, build_network, forward, gradient,
                              lazy_network, network_from_weights, sphere_input)
from relurand.rng import RngStream


class TestFlipSearch:
    def test_linear_closed_form(self):
        w = np.array([[0.5, -1.0, 2.0, 0.25]])
        net = network_from_weights([w])
        x = np.array([3.0, 1.0, 2.0, 0.5])
        assert float(w[0] @ x) > 0
        tol = 1e-8
        res = flip_search(net, x)
        w_norm = np.linalg.norm(w)
        expected_t = float(w[0] @ x) / w_norm
        assert res.flipped
        assert res.t_star == pytest.approx(expected_t, abs=10 * tol)
        assert res.ratio == pytest.approx(float(w[0] @ x) / (w_norm * np.linalg.norm(x)), rel=1e-5)
        assert res.linearity == pytest.approx(1.0, rel=1e-14)

    def test_one_dimensional_relu_never_flips(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        res = flip_search(net, np.array([2.0]), rng=RngStream(0))
        assert not res.flipped
        assert res.t_star is None and res.ratio is None and res.linearity is None

    def test_degenerate_input(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        with pytest.raises(DegenerateInput):
            flip_search(net, np.array([-1.0]), rng=RngStream(0))  # f = 0, grad = 0

    def test_minimality_of_t_star(self):
        for seed in range(20):
            rng = RngStream(seed)
            net = build_network(Architecture(100, (100, 100)), InitMode.STANDARD, rng)
            x = rng.sphere_point(100, norm=10.0)
            tol = 1e-6 * 10.0
            res = flip_search(net, x, rng=rng)
            if not res.flipped:
                continue
            from relurand.network import forward
            before = forward(net, x + (res.t_star - 2 * tol) * res.direction,
                             rng=RngStream(seed, 1)).output
            assert np.sign(before) == np.sign(res.f_x)

    def test_desk_scale_flip_rate(self):
        # d = 500, l = 2: flipped with ratio <= 0.5 nearly always
        arch = Architecture(500, (500, 500))
        good = 0
        for k in range(40):
            rng = RngStream(101, k)
            net = build_network(arch, InitMode.STANDARD, rng)
            x = rng.sphere_point(500, norm=np.sqrt(500))
            res = flip_search(net, x, rng=rng)
            if res.flipped and res.ratio <= 0.5:
                good += 1
        assert good >= 38


class TestPaperEta:
    def test_formula_value(self):
        expected = -4 * np.log(100) * np.sqrt(np.log(10))
        assert paper_eta(2, 100, 0.1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_grad_norm_scaling(self):
        a = paper_eta(1, 50, 0.1, 1.0)
        b = paper_eta(1, 50, 0.1, 2.0)
        assert abs(a) == pytest.approx(4 * abs(b), rel=1e-12)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            paper_eta(1, 10, 1.5, 1.0)
        with pytest.raises(ValueError):
            paper_eta(1, 10, 0.0, 1.0)


class TestVerifyTheorem1:
    def test_linear_reflection(self):
        w = np.array([[1.0, 2.0]])
        net = network_from_weights([w])
        x = np.array([2.0, 1.0])
        f_x = float(w[0] @ x)
        check = verify_theorem1(net, x)
        assert check.flipped and check.magnitude_ok
        w_norm = np.linalg.norm(w)
        expected_ratio = 2 * f_x / (w_norm * np.linalg.norm(x))
        assert check.ratio == pytest.approx(expected_ratio, rel=1e-4)

    def test_not_flipped_propagates(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        check = verify_theorem1(net, np.array([2.0]), rng=RngStream(0))
        assert not check.flipped
        assert check.magnitude_ok is None and check.ratio is None


def _sweep(dims, ell, trials, master_seed):
    # sweep reads only the count of widths: dimension d runs at widths (d,) * ell
    return run_experiment(ExperimentConfig.from_dict(
        {"kind": "sweep", "dims": dims, "widths": [1] * ell, "trials": trials,
         "master_seed": master_seed}))


class TestDimensionSweep:
    def test_single_dimension_no_slope(self):
        res = _sweep([64], 2, 30, master_seed=5)
        assert len(res["rows"]) == 1
        assert res["summary"]["slope"] is None

    def test_determinism(self):
        a = _sweep([32, 64], 1, 30, master_seed=9)
        b = _sweep([32, 64], 1, 30, master_seed=9)
        assert a == b

    def test_slope_roughly_minus_half(self):
        res = _sweep([125, 250, 500], 2, 100, master_seed=77)
        assert res["summary"]["slope"] is not None
        assert -0.9 < res["summary"]["slope"] < -0.1


def _f_along(net, x, u, ts):
    """f(x + t u) for every t in ts, as one batched forward pass."""
    cur = x[:, None] + np.outer(u, ts)
    for W in net.weights[:-1]:
        cur = np.maximum(W @ cur, 0.0)
    return (net.weights[-1] @ cur)[0]


class TestRayWalk:
    # x = (3, 1): h1 = relu(z1), h2 = relu(z2) active, h3 = relu(z2 - z1/2)
    # inactive, f = h1 - h2 - h3.  The gradient (1, -1) gives u = (-1, 1)/sqrt 2,
    # h3 switches on at t = sqrt(2)/3, and then f = 5/2 - 7 t / (2 sqrt 2).
    NET = network_from_weights([[[1.0, 0.0], [0.0, 1.0], [-0.5, 1.0]], [[1.0, -1.0, -1.0]]])
    X = np.array([3.0, 1.0])

    def test_closed_form_past_a_breakpoint(self):
        res = flip_search(self.NET, self.X)
        assert res.f_x == 2.0
        assert np.allclose(res.direction, np.array([-1.0, 1.0]) / np.sqrt(2))
        assert res.flipped
        assert res.t_star == pytest.approx(5 * np.sqrt(2) / 7, rel=1e-14)
        assert res.evaluations == 2

    def test_theorem1_closed_form(self):
        # f = -2 = -f(x) at t = 9 sqrt(2) / 7, still inside the second piece
        check = verify_theorem1(self.NET, self.X)
        assert check.flipped and check.magnitude_ok
        assert check.ratio == pytest.approx(9 * np.sqrt(2) / 7 / np.sqrt(10), rel=1e-14)

    def test_first_of_two_crossings(self):
        # x = (1, 1), u = (-1, 0): f = (1 - t) - 2 relu(t - 1/2) + 5 relu(t - 3/4)
        # is negative on (2/3, 7/8) only.  A doubling scan from 10 ||x|| 1e-6
        # reads f at t = 0.46 and 0.93, both positive, and misses it.
        net = network_from_weights([[[1.0, 0.0], [-1.0, 0.5], [-1.0, 0.25]],
                                    [[1.0, -2.0, 5.0]]])
        x = np.array([1.0, 1.0])
        grid = 10 * np.sqrt(2) * 1e-6 * 2.0 ** np.arange(21)
        assert np.all(_f_along(net, x, np.array([-1.0, 0.0]), grid) >= 0.0)
        res = flip_search(net, x)
        assert res.flipped
        assert res.t_star == pytest.approx(2 / 3, rel=1e-14)

    def test_exact_crossing_against_dense_reference(self):
        d = 100
        for seed in range(20):
            rng = RngStream(seed)
            net = build_network(Architecture(d, (d, d)), InitMode.STANDARD, rng)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            res = flip_search(net, x, rng=rng)
            tol, t_max = 1e-6 * np.sqrt(d), 10 * np.sqrt(d)
            u, s = res.direction, np.sign(res.f_x)
            # reference: a 50,001-point grid over [0, t_max], then bisection
            grid = np.linspace(0.0, t_max, 50_001)
            hits = np.flatnonzero(np.sign(_f_along(net, x, u, grid)) == -s)
            assert res.flipped == bool(hits.size)
            if not res.flipped:
                continue
            lo, hi = grid[hits[0] - 1], grid[hits[0]]
            while hi - lo > tol / 4:
                mid = 0.5 * (lo + hi)
                if np.sign(_f_along(net, x, u, [mid])[0]) == -s:
                    hi = mid
                else:
                    lo = mid
            assert abs(res.t_star - hi) <= tol
            before = forward(net, x + res.t_star * (1 - 1e-9) * u, rng=RngStream(seed, 1))
            after = forward(net, x + res.t_star * (1 + 1e-9) * u, rng=RngStream(seed, 1))
            assert np.sign(before.output) == s and np.sign(after.output) == -s

    @pytest.mark.parametrize("d, widths", [(8, (4,)), (6, (3, 3))])
    def test_small_nets_against_dense_grid(self, d, widths):
        # narrow nets have stretches where f is exactly 0 and crossings that
        # coincide with the death of the last contributing unit; neither flips
        for seed in range(60):
            rng = RngStream(13, seed)
            net = build_network(Architecture(d, widths), InitMode.STANDARD, rng)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            try:
                res = flip_search(net, x, rng=rng)
            except DegenerateInput:
                continue
            u, s = res.direction, np.sign(res.f_x)
            grid = np.linspace(0.0, 10 * np.sqrt(d), 100_001)
            hits = grid[np.sign(_f_along(net, x, u, grid)) == -s]
            if not res.flipped:
                assert hits.size == 0
                continue
            assert np.sign(_f_along(net, x, u, [res.t_star * (1 + 1e-9)])[0]) == -s
            assert hits.size == 0 or hits[0] >= res.t_star


class TestLazyNetwork:
    def test_matches_dense_in_distribution(self):
        # the ROADMAP's d = 100 config, 2000 trials each; KS at level 0.01
        d, trials = 100, 2000
        arch = Architecture(d, (d, d))
        dense = []
        for k in range(trials):
            rng = RngStream(7001, k)
            x = sphere_input(d, rng)
            res = flip_search(build_network(arch, InitMode.STANDARD, rng), x, rng=rng)
            dense.append((abs(res.f_x), res.grad_norm, res.ratio))
        rows = run_experiment(ExperimentConfig.from_dict(
            {"kind": "attack", "d": d, "widths": [d, d], "trials": trials,
             "master_seed": 7002}))["rows"]
        lazy = [(abs(r.values["f_x"]), r.values["grad_norm"], r.values.get("ratio"))
                for r in rows if r.values]
        for column in range(3):
            a = [v[column] for v in dense if v[column] is not None]
            b = [v[column] for v in lazy if v[column] is not None]
            assert ks_two_sample(a, b) <= ks_critical_value(len(a), len(b)), column

    def test_trial_reveals_few_directions(self):
        d = 300
        rng = RngStream(3)
        x = sphere_input(d, rng)
        net = lazy_network(Architecture(d, (d, d)), rng)
        res = flip_search(net, x, rng=rng)
        assert res.flipped
        # forward, backward and the walk's first pass reveal a few
        # directions per layer, and each walked piece at most one more;
        # every direction costs d normals, against d^2 for a dense layer
        for W in net.weights[:-1]:
            right, left = W.revealed
            assert 1 <= right + left <= 4 + res.evaluations < d // 4

    def test_attack_trials_at_width_500_never_complete(self):
        # the attack workload's net: no layer revealed enough directions to
        # complete, so its CSV keeps the bits of the purely lazy walk
        arch = Architecture(500, (500, 500))
        for k in range(50):
            rng = RngStream(8117, k)
            net, x = _trial_net(arch, rng)
            flip_search(net, x, rng=rng)
            assert not any(W.completed for W in net.weights[:-1]), k


def _ks_uniform(sample):
    """One-sample KS statistic of sample against U[-1, 1], and its critical
    value c(0.01)/sqrt(n) at level 0.01 (c(0.01) = 1.628, asymptotic)."""
    u = np.sort((np.asarray(sample) + 1.0) / 2.0)
    n = u.size
    stat = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    return stat, np.sqrt(-0.5 * np.log(0.005)) / np.sqrt(n)


class TestExactLaws:
    # For a bias-free gaussian ReLU net and a fixed x, given grad f(x) != 0,
    # cos(grad f(x), x) is one coordinate of a uniform point on S^{d-1}: the
    # x-perp part of the gradient is an isotropic gaussian independent of
    # f(x) = grad f(x).x, and f(x) over its scale is exactly N(0, 1) (ROADMAP
    # item 2).  At d = 3 that is U[-1, 1], at every width and depth.  The
    # gradient is zero exactly when a hidden layer has no active unit, and
    # the units of a layer are active independently with probability 1/2.

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _attack_rows(widths, seed):
        return run_experiment(ExperimentConfig.from_dict(
            {"kind": "attack", "d": 3, "widths": list(widths), "trials": 2000,
             "master_seed": seed}))["rows"]

    @staticmethod
    def _cosines(d, widths, lazy, seed, n=2000):
        arch = Architecture(d, widths)
        cosines = []
        for k in range(n):
            rng = RngStream(seed, k)
            if lazy:
                net, x = _trial_net(arch, rng)
            else:
                x = sphere_input(d, rng)
                net = build_network(arch, InitMode.STANDARD, rng)
            g = gradient(net, forward(net, x, rng))
            if g.any():
                cosines.append(g @ x / (np.linalg.norm(g) * np.linalg.norm(x)))
        return cosines

    @pytest.mark.parametrize("widths, seed", [((2,), 2601), ((3, 3), 2602)],
                             ids=["one_layer", "two_layers"])
    def test_attack_degenerate_rate(self, widths, seed):
        rows = self._attack_rows(widths, seed)
        n = len(rows)
        p = 1.0 - np.prod([1.0 - 2.0 ** -w for w in widths])
        degenerate = sum(r.status == "degenerate" for r in rows)
        assert abs(degenerate - n * p) <= 3 * np.sqrt(n * p * (1 - p)), degenerate

    @pytest.mark.parametrize("widths, seed", [((2,), 2601), ((3, 3), 2602)],
                             ids=["one_layer", "two_layers"])
    def test_attack_cosine_uniform(self, widths, seed):
        # the same attack rows as test_attack_degenerate_rate, drawn once
        stat, crit = _ks_uniform([r.values["cos_grad_x"] for r in self._attack_rows(widths, seed)
                                  if r.status != "degenerate"])
        assert stat <= crit, stat

    @pytest.mark.parametrize("widths, lazy, seed", [
        ((2, 50, 2), False, 2603), ((20,) * 6, False, 2604), ((1000, 8), True, 2605),
    ], ids=["unequal", "deep", "lazy"])
    def test_cosine_uniform_at_d3(self, widths, lazy, seed):
        stat, crit = _ks_uniform(self._cosines(3, widths, lazy, seed))
        assert stat <= crit, stat

    def test_cosine_law_at_large_d(self):
        # at d = 1000, (cos + 1)/2 ~ Beta((d - 1)/2, (d - 1)/2); its CDF maps
        # the cosines to U[0, 1], which 2u - 1 takes to U[-1, 1]
        d = 1000
        law = beta((d - 1) / 2, (d - 1) / 2)
        cosines = np.array(self._cosines(d, (1000, 1000), True, 2207))
        stat, crit = _ks_uniform(2.0 * law.cdf((cosines + 1.0) / 2.0) - 1.0)
        assert stat <= crit, stat

    def test_ks_gate_rejects_cosines_at_d5(self):
        # at d = 5 the cosine has density (3/4)(1 - t^2), whose CDF is
        # (t - t^3)/4 above U[-1, 1]'s at its worst, 0.096 at t = 1/sqrt(3):
        # near three times the critical value at n = 2000, so the gate has power
        stat, crit = _ks_uniform(self._cosines(5, (5,), False, 2606))
        assert stat > crit, stat
