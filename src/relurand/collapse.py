"""Depth collapse: arc-cosine kernel dynamics and deep-network simulation.

One random ReLU layer maps the normalized expected inner product of two
inputs by rho' = sin(theta)/pi + (1 - theta/pi) cos(theta).  Iterating
drives any pair's correlation monotonically up to 1, so a very deep
2/fan-in network sends all sphere inputs to nearly the same output.

The quantitative collapse regime needs depths >= d^3 and widths
>= (l d)^20, far beyond anything runnable; this module verifies the
mechanism at feasible scale (kernel tracking, monotone correlation
convergence, norm preservation, and the constancy trend with depth) and
makes no claim about a C sqrt(log d / d) constancy rate.

The simulation never forms a layer's weights.  It samples only the
width x k image of the current k = 2 n_pairs columns
(linalg.gaussian_times), so a layer draws at most width x k normals
instead of width x fan_in.  Past the first layer the images are tall, and
the k x k factor that maps the normals to them is the Cholesky factor of
their Gram, one product on one BLAS thread, so that the bits do not
depend on the BLAS thread count.  One pass is enough because the layer's
law depends only on that Gram.  At depth 1000 (width 2000, 50
pairs, seed 3) the smallest diagonal entry of the factor stayed above
1/3055 of the largest, clear of the 1e-4 below which gaussian_times falls
back to Householder QR.

A layer runs gaussian_times' factor and apply steps apart.  While the
calling thread factors layer t's input, applies its normals, and takes
the ReLU and the statistics, a one-thread executor draws layer t + 1's
normals from that layer's own stream (numpy releases the GIL while it
fills the buffer).  Layers draw into two buffers of width x k floats in
turn, so layer t + 1's draw is submitted as soon as layer t's normals
are in hand, before they are applied, and the helper draws layer after
layer without waiting on the product.  Once applied, layer t's buffer
holds the squares of its image for the norms, the temporary that
np.linalg.norm would allocate, so the second buffer costs no memory at
the peak.  Leaving the loop, on return or on a raise, joins the thread,
and an error in a draw is raised in the caller.  Layers of fewer than
_AHEAD_MIN_NORMALS normals draw in the calling thread, and then no
thread starts.  A stream's normals do not depend on the thread that
draws them, so the bits are those of drawing in series.  The layer
algebra runs on one BLAS thread
(linalg.one_blas_thread), which leaves the helper the second core and
makes every product's bits independent of OPENBLAS_NUM_THREADS at any
size.  The image, its ReLU and the statistics reuse one column-major
width x k buffer, the layout gaussian_times returns, on which the column
sums run in a fixed order; the squares take the same layout in their
buffer, so the norms have the bits of np.linalg.norm(image, axis=0).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import gaussian_times, gaussian_times_apply, gaussian_times_factor, one_blas_thread
from .network import InitMode, init_std
from .rng import RngStream

__all__ = [
    "kernel_map",
    "kernel_mc_estimate",
    "kernel_iterate",
    "KernelTrace",
    "sin_cos_gap",
    "collapse_simulate",
    "CollapseReport",
]


def kernel_map(theta: float) -> float:
    """One-layer update of the normalized expected inner product."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return float(_next_rho(theta))


def _next_rho(theta):
    """kernel_map without the domain check, elementwise on an array."""
    return np.sin(theta) / np.pi + (1.0 - theta / np.pi) * np.cos(theta)


def kernel_mc_estimate(theta: float, n_draws: int, rng: RngStream) -> dict:
    """Monte Carlo cross-check of kernel_map via its defining 2-d expectation.

    Samples (g.x, g.y) for g ~ N(0, I_2), x = (1,0), y = (cos theta,
    sin theta) as the image of [x, y] (linalg.gaussian_times; [x, y] is,
    up to rounding, its own triangular Gram factor).  The denominator
    E relu(g.x)^2 = ||x||^2 / 2 is used exactly, so the reported std_error
    is the numerator's standard error on the estimate scale and "within 3
    std errors of kernel_map" is directly testable.
    """
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    xy = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
    gx, gy = gaussian_times(xy, n_draws, 1.0, rng).T
    prod = np.maximum(gx, 0.0) * np.maximum(gy, 0.0)
    denom = 0.5  # exact E relu(g.x)^2 for unit x
    estimate = float(prod.mean() / denom)
    std_error = float(prod.std(ddof=1) / np.sqrt(n_draws) / denom)
    return {"estimate": estimate, "std_error": std_error, "n_draws": n_draws}


@dataclass(frozen=True)
class KernelTrace:
    thetas: np.ndarray  # theta_1..theta_steps
    rhos: np.ndarray    # rho_1..rho_steps, rho_t = cos(theta_t)


def kernel_iterate(theta_0: float, steps: int) -> KernelTrace:
    """Iterate the kernel map: rho_{t+1} = kernel_map(theta_t)."""
    if not (0.0 <= theta_0 <= np.pi):
        raise ValueError(f"theta_0 must lie in [0, pi], got {theta_0}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    thetas, rhos = _kernel_steps(np.array([theta_0], dtype=np.float64), steps)
    return KernelTrace(thetas[0], rhos[0])


# theta - sin(theta) = theta^3 sum_{k>=1} (-1)^(k+1) theta^(2k-2) / (2k+1)!,
# whose direct form cancels at small theta.  Below _SERIES_CUT the sum to
# k = 5 (coefficients from the highest power of theta^2) is exact to
# rounding: the first dropped term is below 1e-15 of the sum.  At the cut
# the direct form is off by up to about 100 ulps, but enters 1 - rho with
# weight theta/(3 pi) < 0.03.
_THETA_MINUS_SIN = [(-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(5, 0, -1)]
_SERIES_CUT = 0.25


def _kernel_steps(theta_0: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, rhos) of kernel_iterate for every start in theta_0 at
    once, one row each: rho_{t+1} = kernel_map(theta_t), and theta_{t+1}
    from a form of the map that does not cancel, a sum of two nonnegative
    terms,

        (1 - rho_{t+1})/2 = sin^2(theta_t/2) (1 - theta_t/pi)
                            + (theta_t - sin theta_t)/(2 pi),

    with theta_{t+1} = 2 arcsin(sqrt((1 - rho_{t+1})/2)).  Taking
    arccos(rho_{t+1}) with rho_{t+1} near 1 loses about 1e-16/theta
    absolutely per step; from theta_0 = pi that put theta off by 3.4e-7
    relatively at depth 10^5, and this form by 1e-14."""
    thetas = np.empty((len(theta_0), steps))
    theta = theta_0
    for t in range(steps):
        t2 = theta * theta
        series = _THETA_MINUS_SIN[0]
        for c in _THETA_MINUS_SIN[1:]:
            series = series * t2 + c
        excess = np.where(theta < _SERIES_CUT, series * t2 * theta, theta - np.sin(theta))
        half = np.sin(0.5 * theta)
        thetas[:, t] = theta = 2.0 * np.arcsin(
            np.sqrt(half * half * (1.0 - theta / np.pi) + excess / (2.0 * np.pi)))
    # rho_{t+1} from theta_t, each step's at once
    return thetas, _next_rho(np.column_stack([theta_0, thetas[:, :-1]]))


def sin_cos_gap(n_grid: int) -> dict:
    """Minimum of sin(x) - x cos(x) - (1 - cos x)^{3/2}/15 on a grid of [0, pi]."""
    if n_grid < 100:
        raise ValueError("n_grid must be >= 100")
    x = np.linspace(0.0, np.pi, n_grid)
    margin = np.sin(x) - x * np.cos(x) - (1.0 - np.cos(x)) ** 1.5 / 15.0
    i = int(np.argmin(margin))
    return {"min_margin": float(margin[i]), "argmin": float(x[i])}


# Layers draw ahead on a helper thread only when one needs at least this
# many normals.  Below it the thread's start and handoffs cost more than
# the overlap buys.  At depth 20 with d = 10 and 5 pairs (2 cores; the
# median over 9 alternating rounds of the median of 7 calls), 2000
# normals a layer took 7.9 ms ahead against 4.1 ms in the calling
# thread, 8000 took 7.6 against 6.3 ms and 20000 12.6 against 13.6 ms.
_AHEAD_MIN_NORMALS = 10_000


@dataclass(frozen=True)
class CollapseReport:
    d: int
    width: int
    depth: int
    n_pairs: int
    initial_angles: np.ndarray       # per pair
    layer_cosines: np.ndarray        # n_pairs x depth
    layer_norms: np.ndarray          # (2 n_pairs) x depth, images of every input
    norm_ratios: np.ndarray          # (2 n_pairs) x depth, length-preservation per layer
    kernel_track: np.ndarray         # n_pairs x depth, kernel_iterate prediction
    checkpoint_depths: tuple[int, ...]  # (5, depth), or (depth,) when depth <= 5
    constancy_ratios: np.ndarray     # n_pairs x len(checkpoint_depths)


def collapse_simulate(d: int, width: int, depth: int, n_pairs: int,
                      master_seed: int, pairs=None) -> CollapseReport:
    """Propagate input pairs through a deep 2/fan-in network, layer by layer.

    No weight matrix is formed: each layer samples, from its own derived
    stream, only the width x 2 n_pairs image of the current columns
    (linalg.gaussian_times).  A layer draws width x min(fan_in, 2 n_pairs)
    normals instead of width x fan_in, and memory stays at a few
    width x 2 n_pairs arrays at any depth (the module docstring says how
    the layers take turns between two buffers and draw ahead).  At depth
    5 and at the last depth the same sampled output vector (variance
    2/width) is applied to the current images, giving the output
    constancy ratio a network of that depth would produce.

    pairs overrides the uniform-sphere sampling with n_pairs explicit
    (x, y) pairs in R^d, checked before any draw; used by tests to force
    degenerate geometry.
    """
    if d < 2 or width < 8 or depth < 1 or n_pairs < 1:
        raise ValueError("require d >= 2, width >= 8, depth >= 1, n_pairs >= 1")
    checkpoint_depths = (5, depth) if depth > 5 else (depth,)

    pair_rng = RngStream(master_seed, 0)
    if pairs is None:
        pairs = [(pair_rng.sphere_point(d), pair_rng.sphere_point(d))
                 for _ in range(n_pairs)]
    else:
        pairs = [(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
                 for a, b in pairs]
        if len(pairs) != n_pairs or any(v.shape != (d,) for p in pairs for v in p):
            raise ValueError(f"pairs must be {n_pairs} pairs of vectors in R^{d}")

    # columns: x_1, y_1, x_2, y_2, ...
    X = np.stack([v for p in pairs for v in p], axis=1)
    angles = np.zeros(n_pairs)
    for p, (a, b) in enumerate(pairs):
        c = np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)
        angles[p] = np.arccos(c)

    w_out = init_std(width, InitMode.DEPTH_COLLAPSE) * RngStream(master_seed, 1).normal(width)

    layer_cos = np.full((n_pairs, depth), np.nan)   # NaN where a norm is 0
    layer_norms = np.zeros((2 * n_pairs, depth))
    norm_ratios = np.zeros((2 * n_pairs, depth))
    constancy = np.zeros((n_pairs, len(checkpoint_depths)))

    # layer t draws at most width x min(fan_in, k) normals into buffers[t % 2],
    # which then holds the squares of its image
    k = 2 * n_pairs
    sizes = [width * min(d if t == 1 else width, k) for t in range(1, depth + 1)]
    ahead = max(sizes) >= _AHEAD_MIN_NORMALS
    buffers = (np.empty(width * k), np.empty(width * k))

    def draw(t: int, n: int) -> np.ndarray:
        # the first n normals of a stream are the same whether n or more are drawn
        return RngStream(master_seed, t + 1).normal(n, out=buffers[t % 2][:n])

    image = np.empty((width, k), order="F")
    cur = X
    fan_in = d
    prev_norms = np.linalg.norm(X, axis=0)
    with one_blas_thread(), ThreadPoolExecutor(1) as helper:
        if ahead:
            pending = helper.submit(draw, 1, sizes[0])
        for t in range(1, depth + 1):
            R, inverse = gaussian_times_factor(cur)
            n = width * R.shape[0]
            G = (pending.result()[:n] if ahead else draw(t, n)).reshape(width, -1)
            if ahead and t < depth:
                # the other buffer was consumed by layer t - 1
                pending = helper.submit(draw, t + 1, sizes[t])
            cur = gaussian_times_apply(G, R, inverse, init_std(fan_in, InitMode.DEPTH_COLLAPSE),
                                       out=image)
            np.maximum(cur, 0.0, out=cur)
            # np.linalg.norm(cur, axis=0), its squares in the consumed buffer
            squares = buffers[t % 2].reshape((width, k), order="F")
            norms = np.sqrt(np.add.reduce(np.multiply(cur, cur, out=squares), axis=0))
            layer_norms[:, t - 1] = norms
            # the 2/fan-in scaling gives E ||f_t||^2 = (width/fan_in) ||f_{t-1}||^2;
            # ratio 1 means the layer preserved length at its expected scale
            expected = np.sqrt(width / fan_in) * prev_norms
            norm_ratios[:, t - 1] = np.divide(norms, expected,
                                              out=np.zeros_like(norms),
                                              where=expected > 0)
            prev_norms = norms
            fan_in = width
            nx, ny = norms[0::2], norms[1::2]
            np.divide(np.einsum("ij,ij->j", cur[:, 0::2], cur[:, 1::2]), nx * ny,
                      out=layer_cos[:, t - 1], where=(nx > 0.0) & (ny > 0.0))
            if t in checkpoint_depths:
                out = w_out @ cur
                fx, fy = out[0::2], out[1::2]
                constancy[:, checkpoint_depths.index(t)] = np.abs(fx - fy) / (np.abs(fx) + 1e-12)

    kernel_track = _kernel_steps(angles, depth)[1]

    return CollapseReport(d, width, depth, n_pairs, angles, layer_cos,
                          layer_norms, norm_ratios, kernel_track,
                          checkpoint_depths, constancy)
