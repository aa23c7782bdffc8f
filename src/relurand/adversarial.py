"""Gradient-direction sign-flip attacks on random ReLU networks.

The attack walks along -sign(f(x)) * grad f(x) / ||grad f(x)||, brackets
the first sign change geometrically, and bisects to the minimal flipping
step.  The theory's eta has constants far too large to be informative at
desk scale, so the searched step is the primary output and eta is
reported as a reference column; the falsifiable content is the ~d^{-1/2}
scaling of the perturbation-to-input ratio, checked by dimension_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateInput, DomainError
from .network import (
    Architecture,
    InitMode,
    Network,
    TiePolicy,
    build_network,
    forward,
    gradient,
)
from .rng import RngStream

__all__ = [
    "AttackResult",
    "flip_search",
    "paper_eta",
    "verify_theorem1",
    "dimension_sweep",
    "SweepRow",
    "SweepResult",
]


@dataclass(frozen=True)
class AttackResult:
    f_x: float
    grad_norm: float
    direction: np.ndarray          # unit vector -sign(f(x)) grad/||grad||
    t_star: Optional[float]        # minimal flipping step, None if not flipped
    ratio: Optional[float]         # t_star / ||x||
    paper_eta: float
    flipped: bool
    magnitude_ok: Optional[bool]   # |f| at the crossing >= |f(x)| (recorded separately)
    evaluations: int


def paper_eta(ell: int, d: int, delta: float, grad_norm: float) -> float:
    """Reference step -2^l ln(d) sqrt(ln 1/delta) / ||grad||^2 from the theory."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0,1), got {delta}")
    if d < 2 or grad_norm <= 0.0:
        raise DomainError("need d >= 2 and grad_norm > 0")
    return float(-(2.0 ** ell) * np.log(d) * np.sqrt(np.log(1.0 / delta)) / grad_norm ** 2)


def _eval_along(net: Network, x: np.ndarray, direction: np.ndarray,
                rng: RngStream) -> Callable[[float], float]:
    counter = {"n": 0}

    def f(t: float) -> float:
        counter["n"] += 1
        return forward(net, x + t * direction, TiePolicy.RANDOMIZED, rng).output

    f.counter = counter
    return f


def flip_search(
    net: Network,
    x: np.ndarray,
    t_max: Optional[float] = None,
    tol: Optional[float] = None,
    delta: float = 0.1,
    rng: Optional[RngStream] = None,
) -> AttackResult:
    """Minimal step along the attack direction at which the output sign flips.

    Scans t geometrically upward from t_max * 1e-6, then bisects the
    bracketing interval down to absolute tolerance tol.  Defaults:
    tol = 1e-6 ||x||, t_max = 10 ||x||, far beyond the predicted
    ratio ~ sqrt(log(1/delta)/d).
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    if t_max is None:
        t_max = 10.0 * x_norm
    if tol is None:
        tol = 1e-6 * x_norm
    if rng is None:
        rng = RngStream(0, 0)
    trace = forward(net, x, TiePolicy.RANDOMIZED, rng)
    f_x = trace.output
    g = gradient(net, trace)
    g_norm = float(np.linalg.norm(g))
    if f_x == 0.0 or g_norm == 0.0:
        raise DegenerateInput(f"f(x)={f_x}, ||grad||={g_norm}")
    s = np.sign(f_x)
    direction = -s * g / g_norm
    # the reference eta needs d >= 2; hand-built 1-d nets get NaN
    if net.arch.input_dim >= 2:
        eta = paper_eta(net.arch.ell, net.arch.input_dim, delta, g_norm)
    else:
        eta = float("nan")

    f = _eval_along(net, x, direction, rng)
    lo, hi = 0.0, None
    t = t_max * 1e-6
    # flipped means the opposite sign is reached; an exactly zero output
    # (e.g. a saturated ReLU) does not count
    while t <= t_max:
        if np.sign(f(t)) == -s:
            hi = t
            break
        lo = t
        t *= 2.0
    if hi is None:
        return AttackResult(f_x, g_norm, direction, None, None, eta, False, None,
                            f.counter["n"])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == -s:
            hi = mid
        else:
            lo = mid
    t_star = 0.5 * (lo + hi)
    magnitude_ok = abs(f(t_star + tol)) >= abs(f_x)
    ratio = t_star / x_norm if x_norm > 0 else None
    return AttackResult(f_x, g_norm, direction, t_star, ratio, eta, True,
                        magnitude_ok, f.counter["n"])


@dataclass(frozen=True)
class Theorem1Check:
    flipped: bool
    magnitude_ok: Optional[bool]
    f_past_crossing: Optional[float]
    ratio: Optional[float]          # ratio where both conditions first hold
    attack: AttackResult


def verify_theorem1(
    net: Network,
    x: np.ndarray,
    t_max: Optional[float] = None,
    tol: Optional[float] = None,
    rng: Optional[RngStream] = None,
) -> Theorem1Check:
    """Both flip conditions: the sign flips and |f| regains |f(x)|.

    After the flip, continues along the same ray until the flipped output
    magnitude reaches |f(x)| (or t_max), and reports the ratio there.
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    if t_max is None:
        t_max = 10.0 * x_norm
    if tol is None:
        tol = 1e-6 * x_norm
    if rng is None:
        rng = RngStream(0, 0)
    res = flip_search(net, x, t_max, tol, rng=rng)
    if not res.flipped:
        return Theorem1Check(False, None, None, None, res)
    f = _eval_along(net, x, res.direction, rng)
    f_past = f(res.t_star + tol)
    s = np.sign(res.f_x)
    target = abs(res.f_x)
    def satisfied(t: float) -> bool:
        val = f(t)
        return np.sign(val) == -s and abs(val) >= target

    t = res.t_star + tol
    prev, ok_t = res.t_star, None
    while t <= t_max:
        if satisfied(t):
            ok_t = t
            break
        prev = t
        t = max(t * 1.25, t + tol)
    if ok_t is None:
        return Theorem1Check(True, False, f_past, None, res)
    # refine the first-satisfaction point (monotone in the near-linear regime)
    lo, hi = prev, ok_t
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return Theorem1Check(True, True, f_past, hi / x_norm, res)


@dataclass(frozen=True)
class SweepRow:
    d: int
    trials: int
    flips: int
    degenerate: int                # trials with f(x) = 0 or a zero gradient
    flip_rate: float
    ratio_median: Optional[float]
    ratio_q05: Optional[float]
    ratio_q95: Optional[float]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: Optional[float]     # least-squares slope of ln(median ratio) vs ln(d)
    intercept: Optional[float]


def dimension_sweep(
    dims,
    ell: int,
    trials: int,
    master_seed: int,
    width_rule: Callable[[int], tuple[int, ...]] = None,
    delta: float = 0.1,
) -> SweepResult:
    """Flip-ratio statistics across input dimensions, plus the log-log slope.

    Trial k of dimension index j uses stream_id = j * trials + k, so the
    sweep is reproducible trial-by-trial and order-independent.  A trial
    with no direction to search (DegenerateInput) is counted as degenerate
    and as not flipped; flip_rate keeps trials as its denominator.
    """
    dims = list(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if width_rule is None:
        width_rule = lambda d: (d,) * ell
    rows = []
    for j, d in enumerate(dims):
        arch = Architecture(d, width_rule(d))
        ratios = []
        flips = degenerate = 0
        for k in range(trials):
            rng = RngStream(master_seed, j * trials + k)
            net = build_network(arch, InitMode.STANDARD, rng)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            try:
                res = flip_search(net, x, delta=delta, rng=rng)
            except DegenerateInput:
                degenerate += 1
                continue
            if res.flipped:
                flips += 1
                ratios.append(res.ratio)
        if ratios:
            r = np.array(ratios)
            row = SweepRow(d, trials, flips, degenerate, flips / trials,
                           float(np.median(r)),
                           float(np.quantile(r, 0.05)),
                           float(np.quantile(r, 0.95)))
        else:
            row = SweepRow(d, trials, flips, degenerate, flips / trials, None, None, None)
        rows.append(row)
    usable = [(row.d, row.ratio_median) for row in rows if row.ratio_median]
    if len(usable) >= 2:
        logs_d = np.log([u[0] for u in usable])
        logs_r = np.log([u[1] for u in usable])
        slope, intercept = np.polyfit(logs_d, logs_r, 1)
        return SweepResult(tuple(rows), float(slope), float(intercept))
    return SweepResult(tuple(rows), None, None)
