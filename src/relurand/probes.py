"""Monte Carlo probes of the concentration bounds behind the sign-flip
phenomenon.

Each probe_* function computes one trial and returns its CSV row as a
dict; harness runs the trials.  How often a bound is violated is a
statistic of the rows, never a hard failure: the bounds are probabilistic
and the checks are statistical at stated levels.  The *_stats functions
summarize the rows of value_gradient, dist_equiv and gaussian_spectral,
whose bounds concern the whole ensemble.  Bounds with explicit numerals
(2^-(l+1), 3(sqrt m + sqrt n + ...), 3r/R sqrt(log R/r),
1 - 2 sqrt(2/pi) alpha) are tested at face value; bounds with unnamed
absolute constants are tested at _C_ABS, with a fitted constant reported
alongside.
"""

from __future__ import annotations

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
)
from .rng import RngStream

__all__ = [
    "probe_value_gradient",
    "value_gradient_stats",
    "probe_scale_preservation",
    "probe_activation_margin",
    "probe_gradient_smoothness",
    "probe_segment_spectral",
    "probe_sign_flip",
    "probe_dist_equiv",
    "dist_equiv_stats",
    "probe_gaussian_spectral",
    "gaussian_spectral_stats",
]


# The theory's unnamed absolute constant c, in |f| <= c 2^l sqrt(log 1/delta)
# and in the segment bound (c l log d_max)^{(i_j - i_{j+1})/2}.
_C_ABS = 8.0


def probe_value_gradient(net: Network, x: np.ndarray) -> dict:
    """|f(x)| and ||grad f(x)|| of one net at x.

    harness samples each net lazy (network.lazy_network): one forward and
    one gradient reveal one direction per side of each hidden layer,
    d_{i-1} + d_i normals instead of d_{i-1} d_i.
    """
    trace = forward(net, x)
    return {"abs_f": float(abs(trace.output)),
            "grad_norm": float(np.linalg.norm(gradient(net, trace)))}


def value_gradient_stats(rows: list[dict], ell: int, delta: float) -> dict:
    """How often the nets of probe_value_gradient's rows meet the lower
    bound ||grad|| >= 2^-(l+1), at its stated constant, and |f| <= c 2^l
    sqrt(log 1/delta), at c = _C_ABS; quantiles of ||grad||; and the
    gradient bound's violation frequency."""
    f_vals = np.array([row["abs_f"] for row in rows])
    g_norms = np.array([row["grad_norm"] for row in rows])
    grad_ok = float(np.mean(g_norms >= 2.0 ** (-(ell + 1))))
    value_ok = float(np.mean(f_vals <= _C_ABS * 2.0 ** ell * np.sqrt(np.log(1.0 / delta))))
    quantiles = np.quantile(g_norms, [0.0, 0.01, 0.5, 0.99, 1.0])
    return {"grad_bound_freq": grad_ok, "value_bound_freq": value_ok,
            **{f"grad_norm_{k}": q
               for k, q in zip(("min", "p01", "median", "p99", "max"), quantiles)},
            "violation_frequency": 1.0 - grad_ok}


def probe_scale_preservation(net: Network, x: np.ndarray, radius: float,
                             n_samples: int, rng: RngStream) -> dict:
    """Layer image norms vs the sqrt(d_i)/2^i lower bound, and how far the
    images of a ball around x spread, divided by the ball radius (by 1 at
    radius 0); the row holds the largest post-activation spread."""
    trace = forward(net, x)
    dims = net.arch.dims
    ell = net.arch.ell
    norms = np.array([np.linalg.norm(f) for f in trace.postactivations])
    bounds = np.array([np.sqrt(dims[i + 1]) / 2.0 ** (i + 1) for i in range(ell)])
    max_spread = 0.0
    for _ in range(n_samples):
        ty = forward(net, rng.ball_point(x, radius))
        for fx, fy in zip(trace.postactivations, ty.postactivations):
            max_spread = max(max_spread, float(np.linalg.norm(fx - fy)))
    scale = radius if radius > 0 else 1.0
    violations = int(np.sum(norms < bounds))
    return {"norm_violations": violations, "layers": ell,
            "max_post_spread_over_radius": max_spread / scale,
            "violation_frequency": violations / ell}


def probe_activation_margin(net: Network, x: np.ndarray, alpha: float) -> dict:
    """Count of next-layer neurons with margin >= alpha ||f_i|| / sqrt(d_i),
    against the (1 - 2 sqrt(2/pi) alpha) d_{i+1} lower bound.

    The single-row output layer is excluded: with one neuron the bound
    degenerates to a per-neuron event of constant probability.  So a net
    with one hidden layer checks no layer, and its violation frequency is
    None.
    """
    if not (0.0 < alpha < np.sqrt(np.pi / 8.0)):
        raise ValueError("alpha must lie in (0, sqrt(pi/8)) for a positive bound")
    trace = forward(net, x)
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
    return {"violations": violations, "layers": len(layers),
            "violation_frequency": violations / len(layers) if layers else None}


def probe_gradient_smoothness(net: Network, x: np.ndarray, radius: float,
                              n_samples: int, rng: RngStream) -> dict:
    """Largest gradient drift ||grad(x) - grad(y)|| over sampled y in a
    ball, and its ratio to ||grad(x)||.  No bound is checked, so the
    violation frequency is None.  Raises DegenerateInput when grad(x) = 0,
    where the ratio has no scale."""
    grad_x = gradient(net, forward(net, x))
    g_norm = float(np.linalg.norm(grad_x))
    if g_norm == 0.0:
        raise DegenerateInput("||grad f(x)|| = 0")
    max_drift = 0.0
    for _ in range(n_samples):
        grad_y = gradient(net, forward(net, rng.ball_point(x, radius)))
        max_drift = max(max_drift, float(np.linalg.norm(grad_x - grad_y)))
    return {"max_drift": max_drift, "max_drift_ratio": max_drift / g_norm,
            "violation_frequency": None}


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
                           n_samples: int, rng: RngStream) -> dict:
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
        ty = forward(net, y)
        for p, (hi, lo) in enumerate(pairs):
            M = _masked_segment(net, ty, hi, lo)
            norms[s, p] = spectral_norm(M) if M.size else 0.0
    violations = int(np.sum(norms > bounds))
    # fitted constant: smallest c making every observed norm satisfy the bound
    exps = np.array([(hi - lo) / 2.0 for hi, lo in pairs])
    c_fit = float(np.max(norms ** (1.0 / exps) / (ell * np.log(net.arch.d_max))))
    return {"violations": violations, "fitted_c": c_fit,
            "violation_frequency": violations / norms.size}


# probe_sign_flip draws and applies this many rows at a time.  At d = 200
# and 10^6 draws (2 cores, median of 9 calls, two rounds), blocks of 8192
# rows took 41-45 ms and traced 0.40 MB; blocks of 1024 took 49-50 ms,
# blocks of 16384 40 ms at 0.79 MB, and one block of 10^6 rows 50-51 ms
# at 33 MB.
_SIGN_FLIP_BLOCK = 8192


def probe_sign_flip(x: np.ndarray, y: np.ndarray, n_draws: int,
                    rng: RngStream) -> dict:
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
    return {"empirical": empirical, "bound": bound, "oracle": oracle, "std_error": std_err}


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


def probe_dist_equiv(arch: Architecture, x: np.ndarray, rng_a: RngStream,
                     rng_b: RngStream, p: float = 0.5) -> dict:
    """One trial of the mask-randomization distributional identity: a
    gradient norm of each sample that dist_equiv_stats compares.

    Sample A: ||grad f(x)|| of a standard lazy net (network.lazy_network)
    from rng_a, with data-dependent masks at x.  Sample B: the norm of the
    same weight product with iid Bernoulli(p) masks from rng_b; its weights
    are independent of its masks, so the norm is a product of chi draws
    (_bernoulli_product_norm), never a weight.  The identity holds at
    p = 1/2; another p demonstrates the test's power.
    """
    net = lazy_network(arch, rng_a)
    return {"grad_norm": float(np.linalg.norm(gradient(net, forward(net, x)))),
            "masked_norm": _bernoulli_product_norm(arch, p, rng_b)}


def dist_equiv_stats(rows: list[dict], p: float = 0.5) -> dict:
    """KS two-sample test of probe_dist_equiv's two samples, at level 0.01;
    the identity predicts equality in distribution.  The violation
    frequency is 1 when the test rejects, else 0."""
    stat = ks_two_sample([row["grad_norm"] for row in rows],
                         [row["masked_norm"] for row in rows])
    threshold = ks_critical_value(len(rows), len(rows))
    return {"ks_statistic": stat, "threshold": threshold, "pass": stat <= threshold,
            "mask_p": p, "trials": len(rows),
            "violation_frequency": 0.0 if stat <= threshold else 1.0}


def probe_gaussian_spectral(m: int, n: int, rng: RngStream) -> dict:
    """||A|| of one iid standard gaussian m x n matrix: a draw of its law,
    to within 1e-8 relative, from the chi entries of A's Golub-Kahan
    bidiagonal (linalg.gaussian_spectral_norm), never A."""
    return {"norm": gaussian_spectral_norm(m, n, rng)}


def gaussian_spectral_stats(rows: list[dict], m: int, n: int, delta: float) -> dict:
    """Violation count of ||A|| <= 3(sqrt m + sqrt n + sqrt(log 1/delta))
    over probe_gaussian_spectral's rows, and their mean norm, also over
    the edge sqrt m + sqrt n."""
    bound = 3.0 * (np.sqrt(m) + np.sqrt(n) + np.sqrt(np.log(1.0 / delta)))
    norms = np.array([row["norm"] for row in rows])
    violations = int(np.sum(norms > bound))
    return {"violations": violations, "bound": float(bound), "samples": len(rows),
            "mean_norm": float(norms.mean()),
            "mean_norm_over_edge": float(norms.mean() / (np.sqrt(m) + np.sqrt(n))),
            "violation_frequency": violations / len(rows)}
