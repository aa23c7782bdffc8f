import functools
import sys
from typing import Optional

import numpy as np
import pytest
from scipy.stats import beta

from relurand.adversarial import (_AT_BREAKPOINT, _REACH, _walk, flip_search, paper_eta,
                                  verify_theorem1)
from relurand.errors import DegenerateInput
from relurand.harness import ExperimentConfig, _trial_net, run_experiment
from relurand.linalg import ks_critical_value, ks_two_sample
from relurand.network import (Architecture, Network, build_network, forward, gradient,
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
        res = flip_search(net, np.array([2.0]))
        assert not res.flipped
        assert res.t_star is None and res.ratio is None and res.linearity is None

    def test_tied_unit_is_inactive(self):
        # at x = (1, 0) unit 2 ties: inactive, f = relu(x1) along the ray,
        # which reaches 0 as unit 1 dies at t = 1 and never turns negative
        net = network_from_weights([np.eye(2), [[1.0, -1.0]]])
        res = flip_search(net, np.array([1.0, 0.0]))
        assert not res.flipped
        assert res.grad_norm == 1.0

    def test_degenerate_input(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        with pytest.raises(DegenerateInput):
            flip_search(net, np.array([-1.0]))  # f = 0, grad = 0

    def test_minimality_of_t_star(self):
        for seed in range(20):
            rng = RngStream(seed)
            net = build_network(Architecture(100, (100, 100)), rng)
            x = rng.sphere_point(100, norm=10.0)
            tol = 1e-6 * 10.0
            res = flip_search(net, x)
            if not res.flipped:
                continue
            before = forward(net, x + (res.t_star - 2 * tol) * res.direction).output
            assert np.sign(before) == np.sign(res.f_x)

    def test_desk_scale_flip_rate(self):
        # d = 500, l = 2: flipped with ratio <= 0.5 nearly always
        arch = Architecture(500, (500, 500))
        good = 0
        for k in range(40):
            rng = RngStream(101, k)
            net = build_network(arch, rng)
            x = rng.sphere_point(500, norm=np.sqrt(500))
            res = flip_search(net, x)
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

    @pytest.mark.parametrize("d, grad_norm", [(1, 1.0), (10, 0.0)], ids=["d1", "zero-grad"])
    def test_dimension_and_gradient_domain(self, d, grad_norm):
        with pytest.raises(ValueError, match="need d >= 2 and grad_norm > 0"):
            paper_eta(1, d, 0.1, grad_norm)


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

    @pytest.mark.parametrize("w2, magnitude_ok, ratio", [(-0.05, False, None), (-0.5, True, 3.0)])
    def test_flip_with_and_without_restore(self, w2, magnitude_ok, ratio):
        # f(1 - t) = 1 - t up to t = 1, then w2 (t - 1): the sign flips at
        # t* = 1, and f reaches -|f(x)| = -1 at t = 1 - 1/w2, that is 21
        # (beyond the reach 10 ||x||) or 3
        net = network_from_weights([[[1.0], [-1.0]], [[1.0, w2]]])
        check = verify_theorem1(net, np.array([1.0]))
        assert check.flipped and check.flip_ratio == 1.0
        assert check.magnitude_ok is magnitude_ok and check.ratio == ratio

    def test_not_flipped_propagates(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        check = verify_theorem1(net, np.array([2.0]))
        assert not check.flipped
        assert check.magnitude_ok is None and check.ratio is None


def _sweep(dims, trials, master_seed):
    # empty widths: dimension d runs at widths (d, d)
    return run_experiment(ExperimentConfig.from_dict(
        {"kind": "sweep", "dims": dims, "trials": trials, "master_seed": master_seed}))


class TestDimensionSweep:
    def test_single_dimension_no_slope(self):
        res = _sweep([64], 30, master_seed=5)
        assert len(res["rows"]) == 1
        assert res["summary"]["slope"] is None

    def test_determinism(self):
        a = _sweep([32, 64], 30, master_seed=9)
        b = _sweep([32, 64], 30, master_seed=9)
        assert a == b

    def test_slope_roughly_minus_half(self):
        res = _sweep([125, 250, 500], 100, master_seed=77)
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
            net = build_network(Architecture(d, (d, d)), rng)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            res = flip_search(net, x)
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
            before = forward(net, x + res.t_star * (1 - 1e-9) * u)
            after = forward(net, x + res.t_star * (1 + 1e-9) * u)
            assert np.sign(before.output) == s and np.sign(after.output) == -s

    @pytest.mark.parametrize("d, widths", [(8, (4,)), (6, (3, 3))])
    def test_small_nets_against_dense_grid(self, d, widths):
        # narrow nets have stretches where f is exactly 0 and crossings that
        # coincide with the death of the last contributing unit; neither flips
        for seed in range(60):
            rng = RngStream(13, seed)
            net = build_network(Architecture(d, widths), rng)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            try:
                res = flip_search(net, x)
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


def _oracle_next_breakpoint(P: np.ndarray, active: np.ndarray, t0: float) -> tuple[float, int]:
    """Earliest t >= t0 at which a unit of one layer changes state, and the unit.

    P holds the layer's preactivations as [A, B] columns, A + t B.  Only a
    unit whose state disagrees with the sign of its slope B ever changes
    state; a root that rounding put below t0 is clamped to t0.
    """
    A, B = P[:, 0], P[:, 1]
    moving = np.flatnonzero((active != (B > 0.0)) & (B != 0.0))
    if moving.size == 0:
        return np.inf, -1
    roots = -A[moving] / B[moving]
    k = int(np.argmin(roots))
    return max(float(roots[k]), t0), int(moving[k])


def _oracle_walk(net: Network, x: np.ndarray, u: np.ndarray, s: float, level: float,
                 t_max: float) -> tuple[Optional[float], int]:
    """The ray walk as it was before it kept each layer's roots between
    pieces: after every switch it recomputes the roots of every layer at
    and above the switched one, and the output line as a 1 x 2 array."""
    P, active = [], []
    cur = np.stack([x, u], axis=1)
    for W in net.weights[:-1]:
        P.append(W @ cur)
        active.append(P[-1][:, 0] > 0.0)
        cur = P[-1] * active[-1][:, None]
    P.append(net.weights[-1] @ cur)
    ell = len(active)
    roots = [_oracle_next_breakpoint(P[j], active[j], 0.0) for j in range(ell)]
    t0, pieces = 0.0, 0
    while True:
        pieces += 1
        j = min(range(ell), key=lambda k: roots[k][0], default=None)
        t1 = np.inf if j is None else roots[j][0]
        c, e = s * P[ell][0]
        if e < 0.0:
            t_cross = max((level + c) / -e, t0)
            if t_cross < t1 * (1.0 - _AT_BREAKPOINT):
                return (t_cross if t_cross <= t_max else None), pieces
        if t1 > t_max:
            return None, pieces
        i = roots[j][1]
        on = P[j][i, 1] > 0.0
        active[j][i] = on
        if active[j].any():
            P[j + 1] += (1.0 if on else -1.0) * np.outer(net.weights[j + 1][:, i], P[j][i])
            first = j + 2
        else:
            first = j + 1
        for k in range(first, ell + 1):
            P[k] = net.weights[k] @ (P[k - 1] * active[k - 1][:, None])
        t0 = t1
        roots[j:] = [_oracle_next_breakpoint(P[k], active[k], t0) for k in range(j, ell)]


def _walks(walk, net, x):
    """walk's (t, pieces) along flip_search's ray, to the flip and to level
    |f(x)| as verify_theorem1 walks it, or None at a degenerate input."""
    trace = forward(net, x)
    g = gradient(net, trace)
    g_norm = float(np.linalg.norm(g))
    if trace.output == 0.0 or g_norm == 0.0:
        return None
    s = np.sign(trace.output)
    u = -s * g / g_norm
    t_max = _REACH * float(np.linalg.norm(x))
    return walk(net, x, u, s, 0.0, t_max), walk(net, x, u, s, abs(trace.output), t_max)


class TestWalkOracle:
    """_walk against _oracle_walk, the walk it replaced, on the same nets:
    equal crossings and piece counts with ==, and on lazy nets the same
    queries, so that both copies of a net end with the same revealed
    directions."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
    @pytest.mark.parametrize("d, widths, trials", [
        (500, (500, 500), 6), (100, (100,) * 8, 8), (30, (3, 3), 40), (20, (4, 4, 4), 40),
        (64, (200, 16, 200), 20),
    ], ids=["wide", "deep", "narrow", "dying", "bottleneck"])
    def test_same_crossings_and_pieces(self, d, widths, trials, lazy, monkeypatch):
        # a layer with no active unit, met by the oracle's search after a
        # switch: a non-degenerate input starts with none
        dead = []
        oracle_next = _oracle_next_breakpoint

        def counting(P, active, t0):
            dead.append(not active.any())
            return oracle_next(P, active, t0)

        monkeypatch.setattr(sys.modules[__name__], "_oracle_next_breakpoint", counting)
        arch = Architecture(d, widths)
        walked = completed = 0
        for k in range(trials):
            nets = []
            for walk in (_walk, _oracle_walk):
                rng = RngStream(1, k)
                if lazy:
                    net, x = _trial_net(arch, rng)
                else:
                    x = sphere_input(d, rng)
                    net = build_network(arch, rng)
                nets.append((_walks(walk, net, x), [(W.revealed, W.completed)
                                                    for W in net.weights[:-1] if lazy]))
            assert nets[0] == nets[1], k
            walked += nets[0][0] is not None
            completed += sum(done for _, done in nets[0][1])
        assert walked >= trials // 2
        if widths == (4, 4, 4):
            # seed 1 reaches both rare paths: the recompute above a dead
            # layer, and on lazy nets layers that complete mid-walk
            assert any(dead)
            assert completed > 0 if lazy else completed == 0

    def test_flip_search_and_theorem1_walk_like_the_oracle(self):
        # the public entry points, on the attack workload's lazy nets
        arch = Architecture(500, (500, 500))
        for k in range(4):
            res = flip_search(*_trial_net(arch, RngStream(2, k)))
            check = verify_theorem1(*_trial_net(arch, RngStream(2, k)))
            net, x = _trial_net(arch, RngStream(2, k))
            flip, level = _walks(_oracle_walk, net, x)
            assert (res.t_star, res.evaluations) == flip
            assert check.magnitude_ok and check.ratio == level[0] / float(np.linalg.norm(x))


class TestLazyNetwork:
    def test_matches_dense_in_distribution(self):
        # the ROADMAP's d = 100 config, 2000 trials each; KS at level 0.01
        d, trials = 100, 2000
        arch = Architecture(d, (d, d))
        dense = []
        for k in range(trials):
            rng = RngStream(7001, k)
            x = sphere_input(d, rng)
            res = flip_search(build_network(arch, rng), x)
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
        res = flip_search(net, x)
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
            flip_search(net, x)
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
                net = build_network(arch, rng)
            g = gradient(net, forward(net, x))
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
