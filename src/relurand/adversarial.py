"""Gradient-direction sign-flip attacks on random ReLU networks.

The attack moves along -sign(f(x)) * grad f(x) / ||grad f(x)||.  Along
that ray f is piecewise linear, so the minimal flipping step is read off
exactly by walking its linear pieces, one activation change at a time,
until the output line crosses zero.  The theory's eta has constants far
too large to be informative at desk scale, so the searched step is the
primary output and eta is reported as a reference column; the
falsifiable content is the ~d^{-1/2} scaling of the
perturbation-to-input ratio, which the harness's `sweep` experiment
measures across input dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput
from .network import Network, forward, gradient
from .rng import RngStream

__all__ = [
    "AttackResult",
    "flip_search",
    "paper_eta",
    "verify_theorem1",
]


@dataclass(frozen=True)
class AttackResult:
    """What flip_search found: f and grad f at x, the direction, its first zero crossing.

    A bias-free net has f(x) = grad f(x).x (Euler's identity), so a flipped
    result has ratio = linearity |cos_grad_x| up to rounding.
    """

    f_x: float
    grad_norm: float
    cos_grad_x: float              # grad f(x).x / (||grad f(x)|| ||x||)
    direction: np.ndarray          # unit vector -sign(f(x)) grad/||grad||
    t_star: Optional[float]        # minimal flipping step, None if not flipped
    ratio: Optional[float]         # t_star / ||x||
    flipped: bool
    evaluations: int               # linear pieces walked

    @property
    def linearity(self) -> Optional[float]:
        """t_star ||grad f(x)|| / |f(x)|, None if not flipped: exactly 1
        when f is linear along the ray up to the crossing."""
        return self.t_star * self.grad_norm / abs(self.f_x) if self.flipped else None


def paper_eta(ell: int, d: int, delta: float, grad_norm: float) -> float:
    """Reference step -2^l ln(d) sqrt(ln 1/delta) / ||grad||^2 from the theory."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if d < 2 or grad_norm <= 0.0:
        raise ValueError("need d >= 2 and grad_norm > 0")
    return float(-(2.0 ** ell) * np.log(d) * np.sqrt(np.log(1.0 / delta)) / grad_norm ** 2)


# The default reach of a search, t_max = _REACH ||x||, far beyond the
# predicted ratio ~ d^{-1/2}.
_REACH = 10.0

# A crossing this close to a breakpoint, relative, is taken to lie on it.
_AT_BREAKPOINT = 1e-9


def _next_breakpoint(P: np.ndarray, active: np.ndarray, t0: float) -> tuple[float, int]:
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


def _walk(net: Network, x: np.ndarray, u: np.ndarray, s: float, level: float,
          t_max: float) -> tuple[Optional[float], int]:
    """inf{t in [0, t_max] : s f(x + t u) < -level}, or None, and the number
    of linear pieces walked.

    Along the ray f is piecewise linear.  Inside one piece every
    preactivation of layer j is A_j + t B_j, starting from one 2-column
    pass of [x, u]; the output is c + t e.  Each step finds the next hidden
    breakpoint and takes the output crossing if it lies inside the piece,
    short of the breakpoint by more than _AT_BREAKPOINT relative.  A
    crossing on a breakpoint is left to the next piece, which takes its
    start if the output keeps falling there; so f reaching exactly 0 as
    its last contributing unit dies is no flip.  Otherwise the walk
    switches the crossing unit.  Its new state is the sign of its slope
    (re-evaluating A + t B at the rounded root loses crossings), its
    change reaches layer j+1 as a rank-one update, and the layers above
    that are recomputed with 2-column products.  Above a layer left with
    no active unit the next layer is recomputed instead, so that it is
    exactly 0 rather than the rounding residue of the updates.  The output
    layer is the last entry of P, a 1 x 2 array.
    """
    P, active = [], []
    cur = np.stack([x, u], axis=1)
    for W in net.weights[:-1]:
        P.append(W @ cur)
        active.append(P[-1][:, 0] > 0.0)
        cur = P[-1] * active[-1][:, None]
    P.append(net.weights[-1] @ cur)
    ell = len(active)
    roots = [_next_breakpoint(P[j], active[j], 0.0) for j in range(ell)]
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
        roots[j:] = [_next_breakpoint(P[k], active[k], t0) for k in range(j, ell)]


def flip_search(
    net: Network,
    x: np.ndarray,
    t_max: Optional[float] = None,
    rng: Optional[RngStream] = None,
) -> AttackResult:
    """Minimal step along the attack direction at which the output sign flips.

    Walks the linear pieces of f along the ray x + t * direction (Hanin &
    Rolnick 2019) and returns the exact first t at which the output takes
    the opposite sign; an exactly zero output does not count.  The walk
    stops there: f is evaluated once, at x, and rng is used only for ties
    in that evaluation.  evaluations counts the pieces walked.  The
    default t_max is _REACH ||x||.
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    if t_max is None:
        t_max = _REACH * x_norm
    if rng is None:
        rng = RngStream(0, 0)
    trace = forward(net, x, rng)
    f_x = trace.output
    g = gradient(net, trace)
    g_norm = float(np.linalg.norm(g))
    if f_x == 0.0 or g_norm == 0.0:
        raise DegenerateInput(f"f(x)={f_x}, ||grad||={g_norm}")
    cos_grad_x = float(g @ x) / (g_norm * x_norm)
    s = np.sign(f_x)
    direction = -s * g / g_norm

    t_star, pieces = _walk(net, x, direction, s, 0.0, t_max)
    if t_star is None:
        return AttackResult(f_x, g_norm, cos_grad_x, direction, None, None, False, pieces)
    ratio = t_star / x_norm if x_norm > 0 else None
    return AttackResult(f_x, g_norm, cos_grad_x, direction, t_star, ratio, True, pieces)


@dataclass(frozen=True)
class Theorem1Check:
    flipped: bool
    magnitude_ok: Optional[bool]    # None when the sign never flips
    ratio: Optional[float]          # ratio where both conditions first hold


def verify_theorem1(net: Network, x: np.ndarray,
                    rng: Optional[RngStream] = None) -> Theorem1Check:
    """Both flip conditions: the sign flips and |f| regains |f(x)|.

    After flip_search at its default t_max = _REACH ||x||, walks the same
    ray exactly to the first t at which the flipped output reaches level
    |f(x)|, that is s f(x + t u) < -|f(x)|, within that reach, and reports
    the ratio there; magnitude_ok is whether that t exists.
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    res = flip_search(net, x, rng=rng)
    if not res.flipped:
        return Theorem1Check(False, None, None)
    t_ok, _ = _walk(net, x, res.direction, np.sign(res.f_x), abs(res.f_x), _REACH * x_norm)
    if t_ok is None:
        return Theorem1Check(True, False, None)
    return Theorem1Check(True, True, t_ok / x_norm)
