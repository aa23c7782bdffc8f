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


# Every search walks up to t = _REACH ||x||, far beyond the predicted
# ratio ~ d^{-1/2}.
_REACH = 10.0

# A crossing this close to a breakpoint, relative, is taken to lie on it.
_AT_BREAKPOINT = 1e-9


def _roots(P: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Each unit's root -A/B of its preactivation A + t B, from a layer's
    [A, B] columns P and its states as signs (+1 active, -1 inactive), or
    +inf where the unit never changes state: where the sign of its slope B
    agrees with its state, or B is 0.  Where it can, -B sign = |B|, so
    A sign / |B| is -A/B to the bit."""
    A, B = P[:, 0], P[:, 1]
    return np.where(B * sign < 0.0, A * sign, np.inf) / np.abs(B)


def _head(roots: np.ndarray, t0: float) -> tuple[float, int]:
    """A layer's next breakpoint at or after t0, and its unit: the least
    root, the lowest unit on a tie, clamped to t0 where rounding put it
    below."""
    i = int(roots.argmin())
    return max(float(roots[i]), t0), i


def _walk(net: Network, x: np.ndarray, u: np.ndarray, s: float, level: float,
          reach: float) -> tuple[Optional[float], int]:
    """inf{t in [0, reach] : s f(x + t u) < -level}, or None, and the number
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
    exactly 0 rather than the rounding residue of the updates.

    Each piece pays only for what its switch changed.  Between pieces
    each hidden layer keeps its lines P (A and B as columns), its states
    as 0/1 floats (so that P times them casts nothing) and as signs, its
    number of active units, the raw roots of its units (_roots) and its
    head (_head); the output line is kept as the two floats (c, e), before
    the sign s.  A switch of unit i in layer j leaves the lines of layer j
    and below as they are, and makes unit i's state agree with its slope:
    its root becomes +inf and the layer takes its head again, while the
    layers above get new lines and roots.  A head is clamped to the t0 at
    which it is taken.  A layer below j keeps the head it took at an
    earlier t0' <= t0, and that head is at least the t0 picked since, so
    clamping it again at t0 would give it back unchanged: the heads are
    those of recomputing every layer's roots at every piece.  The output
    line takes the rank-one update when layer j is the top hidden layer
    and keeps an active unit, and one product otherwise.
    """
    weights = net.weights
    P, masks, signs, counts = [], [], [], []
    cur = np.stack([x, u], axis=1)
    for W in weights[:-1]:
        P.append(W @ cur)
        masks.append((P[-1][:, 0] > 0.0).astype(np.float64))
        signs.append(2.0 * masks[-1] - 1.0)
        counts.append(int(np.count_nonzero(masks[-1])))
        cur = P[-1] * masks[-1][:, None]
    c, e = (weights[-1] @ cur)[0]
    ell = len(P)
    roots = [_roots(P[k], signs[k]) for k in range(ell)]
    heads = [_head(r, 0.0) for r in roots]
    t0, pieces = 0.0, 0
    while True:
        pieces += 1
        j = min(range(ell), key=lambda k: heads[k][0], default=None)
        t1 = np.inf if j is None else heads[j][0]
        sc, se = s * c, s * e
        if se < 0.0:
            t_cross = max((level + sc) / -se, t0)
            if t_cross < t1 * (1.0 - _AT_BREAKPOINT):
                return (t_cross if t_cross <= reach else None), pieces
        if t1 > reach:
            return None, pieces
        i = heads[j][1]
        a, b = P[j][i].tolist()
        on = b > 0.0
        masks[j][i] = on
        signs[j][i] = 1.0 if on else -1.0
        counts[j] += 1 if on else -1
        roots[j][i] = np.inf
        first = j + 1
        if counts[j]:
            # the unit's change, +-(a, b) times its column of the next layer
            col = weights[j + 1][:, i]
            a, b = (a, b) if on else (-a, -b)
            if j + 1 < ell:
                P[j + 1][:, 0] += col * a
                P[j + 1][:, 1] += col * b
            else:
                c, e = c + col[0] * a, e + col[0] * b
            first = j + 2
        for k in range(first, ell):
            P[k] = weights[k] @ (P[k - 1] * masks[k - 1][:, None])
        if first <= ell:
            c, e = ((weights[ell] * masks[ell - 1]) @ P[ell - 1])[0]
        t0 = t1
        heads[j] = _head(roots[j], t0)
        for k in range(j + 1, ell):
            roots[k] = _roots(P[k], signs[k])
            heads[k] = _head(roots[k], t0)


def flip_search(net: Network, x: np.ndarray) -> AttackResult:
    """Minimal step along the attack direction at which the output sign flips.

    Walks the linear pieces of f along the ray x + t * direction (Hanin &
    Rolnick 2019) and returns the exact first t at which the output takes
    the opposite sign within the reach _REACH ||x||; an exactly zero
    output does not count.  The walk stops there: f is evaluated once, at
    x, where a zero preactivation is inactive in forward as at the walk's
    start.  evaluations counts the pieces walked.
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    trace = forward(net, x)
    f_x = trace.output
    g = gradient(net, trace)
    g_norm = float(np.linalg.norm(g))
    if f_x == 0.0 or g_norm == 0.0:
        raise DegenerateInput(f"f(x)={f_x}, ||grad||={g_norm}")
    cos_grad_x = float(g @ x) / (g_norm * x_norm)
    s = np.sign(f_x)
    direction = -s * g / g_norm

    t_star, pieces = _walk(net, x, direction, s, 0.0, _REACH * x_norm)
    flipped = t_star is not None
    return AttackResult(f_x, g_norm, cos_grad_x, direction, t_star,
                        t_star / x_norm if flipped else None, flipped, pieces)


@dataclass(frozen=True)
class Theorem1Check:
    flipped: bool
    magnitude_ok: Optional[bool]    # None when the sign never flips
    ratio: Optional[float]          # ratio where both conditions first hold
    flip_ratio: Optional[float]     # t*/||x|| of the sign flip; None when it never flips


def verify_theorem1(net: Network, x: np.ndarray) -> Theorem1Check:
    """Both flip conditions: the sign flips and |f| regains |f(x)|.

    After flip_search, walks the same ray exactly, within the same reach
    _REACH ||x||, to the first t at which the flipped output reaches level
    |f(x)|, that is s f(x + t u) < -|f(x)|, and reports the ratio there;
    magnitude_ok is whether that t exists.  flip_ratio is flip_search's
    t*/||x||.
    """
    x = np.asarray(x, dtype=np.float64)
    x_norm = float(np.linalg.norm(x))
    res = flip_search(net, x)
    if not res.flipped:
        return Theorem1Check(False, None, None, None)
    t_ok, _ = _walk(net, x, res.direction, np.sign(res.f_x), abs(res.f_x), _REACH * x_norm)
    ok = t_ok is not None
    return Theorem1Check(True, ok, t_ok / x_norm if ok else None, res.ratio)
