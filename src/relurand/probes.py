"""Monte Carlo probes of the concentration bounds behind the sign-flip
phenomenon.

Each probe measures an ensemble quantity and reports how often the
corresponding bound is violated, never a hard failure: the bounds are
probabilistic and the checks are statistical at stated levels.  Bounds
with explicit numerals (2^-(l+1), 3(sqrt m + sqrt n + ...),
3r/R sqrt(log R/r), 1 - 2 sqrt(2/pi) alpha) are tested at face value;
bounds with unnamed absolute constants are tested at _C_ABS, with a
fitted constant reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput
from .linalg import (
    gaussian_spectral_norm,
    gaussian_times_apply,
    gaussian_times_factor,
    ks_critical_value,
    ks_two_sample,
    spectral_norm,
)
from .network import (
    Architecture,
    ForwardTrace,
    InitMode,
    Network,
    bottleneck_decomposition,
    forward,
    gradient,
    init_std,
    lazy_network,
    sphere_input,
)
from .rng import RngStream

__all__ = [
    "ProbeReport",
    "probe_value_gradient",
    "probe_scale_preservation",
    "probe_activation_margin",
    "probe_gradient_smoothness",
    "probe_segment_spectral",
    "probe_sign_flip",
    "probe_dist_equiv",
    "probe_gaussian_spectral",
]


@dataclass
class ProbeReport:
    """The CSV rows one probe call contributes as (stream id, {column:
    value}) pairs, its summary and its violation frequency, and nothing
    else.  A probe called once per trial contributes one row, and its
    summary is that row.  violation_frequency is None when the bound does
    not apply to the sampled input."""
    rows: list
    summary: dict
    violation_frequency: Optional[float]


# The theory's unnamed absolute constant c, in |f| <= c 2^l sqrt(log 1/delta)
# and in the segment bound (c l log d_max)^{(i_j - i_{j+1})/2}.
_C_ABS = 8.0


def probe_value_gradient(arch: Architecture, trials: int, delta: float,
                         master_seed: int) -> ProbeReport:
    """|f(x)| and ||grad f(x)|| over independent nets at a fixed sphere input.

    Each net is lazy (network.lazy_network): one forward and one gradient
    reveal one direction per side of each hidden layer, d_{i-1} + d_i
    normals instead of d_{i-1} d_i.  Checks the lower bound ||grad|| >=
    2^-(l+1) at its stated constant and |f| <= c 2^l sqrt(log 1/delta) at
    c = _C_ABS.
    """
    ell = arch.ell
    x = sphere_input(arch.input_dim, RngStream(master_seed, 0))
    grad_bound = 2.0 ** (-(ell + 1))
    value_bound = _C_ABS * 2.0 ** ell * np.sqrt(np.log(1.0 / delta))
    f_vals, g_norms = [], []
    for k in range(trials):
        rng = RngStream(master_seed, k + 1)
        net = lazy_network(arch, rng)
        trace = forward(net, x, rng)
        f_vals.append(abs(trace.output))
        g_norms.append(float(np.linalg.norm(gradient(net, trace))))
    f_vals = np.array(f_vals)
    g_norms = np.array(g_norms)
    grad_ok = float(np.mean(g_norms >= grad_bound))
    value_ok = float(np.mean(f_vals <= value_bound))
    quantiles = np.quantile(g_norms, [0.0, 0.01, 0.5, 0.99, 1.0])
    return ProbeReport(
        [(k + 1, {"abs_f": float(f_vals[k]), "grad_norm": float(g_norms[k])})
         for k in range(trials)],
        summary={
            "grad_bound_freq": grad_ok,
            "value_bound_freq": value_ok,
            **{f"grad_norm_{k}": q
               for k, q in zip(("min", "p01", "median", "p99", "max"), quantiles)},
        },
        violation_frequency=1.0 - grad_ok,
    )


def probe_scale_preservation(net: Network, x: np.ndarray, radius: float,
                             n_samples: int, rng: RngStream) -> ProbeReport:
    """Layer image norms vs the sqrt(d_i)/2^i lower bound, and how far the
    images of a ball around x spread, divided by the ball radius (by 1 at
    radius 0); the row holds the largest post-activation spread."""
    trace = forward(net, x, rng)
    dims = net.arch.dims
    ell = net.arch.ell
    norms = np.array([np.linalg.norm(f) for f in trace.postactivations])
    bounds = np.array([np.sqrt(dims[i + 1]) / 2.0 ** (i + 1) for i in range(ell)])
    max_spread = 0.0
    for _ in range(n_samples):
        ty = forward(net, rng.ball_point(x, radius), rng)
        for fx, fy in zip(trace.postactivations, ty.postactivations):
            max_spread = max(max_spread, float(np.linalg.norm(fx - fy)))
    scale = radius if radius > 0 else 1.0
    violations = int(np.sum(norms < bounds))
    freq = violations / ell
    row = {"norm_violations": violations, "layers": ell,
           "max_post_spread_over_radius": max_spread / scale,
           "violation_frequency": freq}
    return ProbeReport([(rng.stream_id, row)], summary=row, violation_frequency=freq)


def probe_activation_margin(net: Network, x: np.ndarray, alpha: float,
                            rng: RngStream) -> ProbeReport:
    """Count of next-layer neurons with margin >= alpha ||f_i|| / sqrt(d_i),
    against the (1 - 2 sqrt(2/pi) alpha) d_{i+1} lower bound.

    The single-row output layer is excluded: with one neuron the bound
    degenerates to a per-neuron event of constant probability.
    """
    if not (0.0 < alpha < np.sqrt(np.pi / 8.0)):
        raise ValueError("alpha must lie in (0, sqrt(pi/8)) for a positive bound")
    trace = forward(net, x, rng)
    dims = net.arch.dims
    layers = range(1, net.arch.ell)
    factor = 1.0 - 2.0 * np.sqrt(2.0 / np.pi) * alpha
    violations = 0
    for i in layers:
        norm_i = np.linalg.norm(trace.postactivations[i - 1])
        if norm_i == 0.0:
            raise DegenerateInput(f"layer {i} image is the zero vector")
        thresh = alpha * norm_i / np.sqrt(dims[i])
        count = int(np.sum(np.abs(trace.preactivations[i]) >= thresh))
        violations += count < factor * dims[i + 1]
    freq = violations / max(len(layers), 1)
    row = {"violations": violations, "layers": len(layers), "violation_frequency": freq}
    return ProbeReport([(rng.stream_id, row)], summary=row, violation_frequency=freq)


def probe_gradient_smoothness(net: Network, x: np.ndarray, radius: float,
                              n_samples: int, rng: RngStream) -> ProbeReport:
    """Largest gradient drift ||grad(x) - grad(y)|| over sampled y in a
    ball, and its ratio to ||grad(x)||.  Raises DegenerateInput when
    grad(x) = 0, where the ratio has no scale."""
    grad_x = gradient(net, forward(net, x, rng))
    g_norm = float(np.linalg.norm(grad_x))
    if g_norm == 0.0:
        raise DegenerateInput("||grad f(x)|| = 0")
    max_drift = 0.0
    for _ in range(n_samples):
        grad_y = gradient(net, forward(net, rng.ball_point(x, radius), rng))
        max_drift = max(max_drift, float(np.linalg.norm(grad_x - grad_y)))
    row = {"max_drift": max_drift, "max_drift_ratio": max_drift / g_norm,
           "violation_frequency": 0.0}
    return ProbeReport([(rng.stream_id, row)], summary=row, violation_frequency=0.0)


def _masked_segment(net: Network, trace: ForwardTrace, top: int, bottom: int) -> np.ndarray:
    """The active block of D_top W_top ... D_{bottom+1} W_{bottom+1}, masks
    from trace: each layer keeps only its active rows, and the next layer
    only the matching columns.  The rows and columns dropped are zero in
    the full product, so the block has its nonzero singular values from
    about a quarter of the flops.  With no active unit in the top layer the
    block has no row; below the top it is all zeros."""
    active = np.flatnonzero(trace.masks[bottom])
    P = net.weights[bottom][active]
    for k in range(bottom + 1, top):
        rows = np.flatnonzero(trace.masks[k])
        P = net.weights[k][np.ix_(rows, active)] @ P
        active = rows
    return P


def probe_segment_spectral(net: Network, x: np.ndarray, radius: float,
                           n_samples: int, rng: RngStream) -> ProbeReport:
    """Spectral norms of masked products between consecutive bottlenecks for
    sampled y in the ball, against (c l log d_max)^{(i_j - i_{j+1})/2} at
    c = _C_ABS."""
    dec = bottleneck_decomposition(net.arch)
    if len(dec.indices) < 2:
        raise ValueError("need at least two bottleneck indices (m >= 2)")
    ell = net.arch.ell
    pairs = list(zip(dec.indices[:-1], dec.indices[1:]))
    growth = _C_ABS * ell * np.log(net.arch.d_max)
    bounds = np.array([growth ** ((hi - lo) / 2.0) for hi, lo in pairs])
    norms = np.zeros((n_samples, len(pairs)))
    for s in range(n_samples):
        y = rng.ball_point(x, radius)
        ty = forward(net, y, rng)
        for p, (hi, lo) in enumerate(pairs):
            M = _masked_segment(net, ty, hi, lo)
            norms[s, p] = spectral_norm(M) if M.size else 0.0
    violations = int(np.sum(norms > bounds))
    # fitted constant: smallest c making every observed norm satisfy the bound
    exps = np.array([(hi - lo) / 2.0 for hi, lo in pairs])
    c_fit = float(np.max(norms ** (1.0 / exps) / (ell * np.log(net.arch.d_max))))
    freq = violations / norms.size
    row = {"violations": violations, "fitted_c": c_fit, "violation_frequency": freq}
    return ProbeReport([(rng.stream_id, row)], summary=row, violation_frequency=freq)


# probe_sign_flip draws and applies this many rows at a time.  At d = 200
# and 10^6 draws (2 cores, median of 9 calls, two rounds), blocks of 8192
# rows took 41-45 ms and traced 0.40 MB; blocks of 1024 took 49-50 ms,
# blocks of 16384 40 ms at 0.79 MB, and one block of 10^6 rows 50-51 ms
# at 33 MB.
_SIGN_FLIP_BLOCK = 8192


def probe_sign_flip(x: np.ndarray, y: np.ndarray, n_draws: int,
                    rng: RngStream) -> ProbeReport:
    """Probability that a random gaussian hyperplane separates x and y.

    empirical over n_draws gaussian normals w, through the 2-column
    reduction: only the pairs (w.x, w.y) are sampled, as the image of
    [x, y] (linalg.gaussian_times), never the n_draws x d normals.  [x, y]
    is factored once; then _SIGN_FLIP_BLOCK rows at a time are drawn,
    applied and their sign disagreements counted, so memory is one block
    at any n_draws.  A stream's first n normals do not depend on how many
    are drawn, so the count is that of one n_draws x 2 image.
    Bound 3r/R sqrt(log R/r) with R = ||x||, r = ||x - y|| (absent when
    r > R or r = 0, and then the violation frequency is None); oracle is
    the exact angle/pi by rotational symmetry.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    R = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if R == 0.0 or ny == 0.0:
        raise DegenerateInput("x and y must be nonzero")
    r = float(np.linalg.norm(x - y))
    factor, inverse = gaussian_times_factor(np.stack([x, y], axis=1))
    flips = 0
    for start in range(0, n_draws, _SIGN_FLIP_BLOCK):
        rows = min(_SIGN_FLIP_BLOCK, n_draws - start)
        wx, wy = gaussian_times_apply(rng.normal((rows, len(factor))), factor, inverse, 1.0).T
        flips += int(np.count_nonzero(np.sign(wx) != np.sign(wy)))
    empirical = flips / n_draws
    if 0.0 < r < R:
        bound = float(3.0 * (r / R) * np.sqrt(np.log(R / r)))
    else:
        bound = None  # formula degenerate at r >= R
    if r == 0.0:
        oracle = 0.0
    else:
        cos_theta = np.clip(float(x @ y) / (R * ny), -1.0, 1.0)
        oracle = float(np.arccos(cos_theta) / np.pi)
    std_err = float(np.sqrt(max(oracle * (1.0 - oracle), 1.0 / n_draws) / n_draws))
    row = {"empirical": empirical, "bound": bound, "oracle": oracle, "std_error": std_err}
    return ProbeReport(
        [(rng.stream_id, row)], summary=row,
        violation_frequency=None if bound is None else float(empirical > bound),
    )


def _bernoulli_product_norm(arch: Architecture, p: float, rng: RngStream) -> float:
    """||W_{l+1} prod D_i W_i|| with iid Bernoulli(p) diagonal masks.

    Each mask and each W_i is independent of the row it multiplies, so
    every row is a scaled standard gaussian vector: the output row is
    std_{l+1} g, and a row s g maps to (s g D_i) W_i = s ||g D_i|| std_i g'
    in law, g' fresh, where ||g D_i|| ~ chi_{K_i} and K_i ~ Bin(d_i, p) is
    the active count.  The norm is therefore the product of every layer's
    std with chi_{K_l} ... chi_{K_1} chi_{d_0}: one Bernoulli count per
    layer and one chi draw per factor, no weights.  An empty mask
    (K_i = 0) gives exactly 0.0 and draws no chi.
    """
    dims = arch.dims
    active = [int(rng.bernoulli(p, dims[i]).sum()) for i in range(arch.ell, 0, -1)]
    if 0 in active:
        return 0.0
    scale = np.prod([init_std(fan_in, InitMode.STANDARD) for fan_in in dims[:-1]])
    return float(scale * np.prod(rng.chi(active + [dims[0]])))


def probe_dist_equiv(arch: Architecture, trials: int, master_seed: int,
                     control_p: Optional[float] = None) -> ProbeReport:
    """KS two-sample test of the mask-randomization distributional identity.

    Sample A: gradient norms of standard lazy nets (network.lazy_network)
    with data-dependent masks at a fixed sphere input.  Sample B: norms of
    the same weight products with iid Bernoulli(1/2) masks; its weights
    are independent of its masks, so each norm is a product of chi draws
    (_bernoulli_product_norm), never a weight.  The identity predicts
    equality in distribution, tested at level 0.01; control_p substitutes
    a different mask probability to demonstrate the test's power.
    """
    x = sphere_input(arch.input_dim, RngStream(master_seed, 0))
    p = 0.5 if control_p is None else control_p
    a, b = [], []
    for k in range(trials):
        rng_a = RngStream(master_seed, 2 * k + 1)
        net = lazy_network(arch, rng_a)
        trace = forward(net, x, rng_a)
        a.append(float(np.linalg.norm(gradient(net, trace))))
        rng_b = RngStream(master_seed, 2 * k + 2)
        b.append(_bernoulli_product_norm(arch, p, rng_b))
    stat = ks_two_sample(a, b)
    threshold = ks_critical_value(trials, trials)
    summary = {"ks_statistic": stat, "threshold": threshold, "pass": stat <= threshold,
               "mask_p": p, "trials": trials}
    return ProbeReport([(0, summary)], summary=summary,
                       violation_frequency=0.0 if summary["pass"] else 1.0)


def probe_gaussian_spectral(m: int, n: int, delta: float, samples: int,
                            master_seed: int) -> ProbeReport:
    """Violation count of ||A|| <= 3(sqrt m + sqrt n + sqrt(log 1/delta))
    for iid standard gaussian matrices.  Each ||A|| is a draw of its law,
    to within 1e-8 relative, from the chi entries of A's Golub-Kahan
    bidiagonal (linalg.gaussian_spectral_norm), never A."""
    bound = 3.0 * (np.sqrt(m) + np.sqrt(n) + np.sqrt(np.log(1.0 / delta)))
    norms = np.array([gaussian_spectral_norm(m, n, RngStream(master_seed, k))
                      for k in range(samples)])
    violations = int(np.sum(norms > bound))
    summary = {"violations": violations, "bound": float(bound), "samples": samples,
               "mean_norm": float(norms.mean()),
               "mean_norm_over_edge": float(norms.mean() / (np.sqrt(m) + np.sqrt(n)))}
    return ProbeReport([(0, summary)], summary=summary,
                       violation_frequency=violations / samples)
