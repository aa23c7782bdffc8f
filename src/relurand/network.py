"""Random ReLU networks: construction, evaluation, gradients, decompositions.

A network is f(x) = W_{l+1} relu(W_l relu(... relu(W_1 x))), no biases,
scalar output.  Standard initialization draws layer i entries from
N(0, 1/d_{i-1}); depth-collapse initialization uses variance 2/fan-in at
every layer.  A unit is active exactly when its preactivation is
positive, so an exactly-zero preactivation is inactive, as relu(0) = 0
implies.  Under gaussian weights such a tie needs a whole layer dead
below it, an event of probability about 2^-w for a layer of w units.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FormatError
from .linalg import LazyGaussian, gaussian_matrix
from .rng import RngStream

__all__ = [
    "Architecture",
    "InitMode",
    "Network",
    "ForwardTrace",
    "GradDecomposition",
    "BottleneckDecomposition",
    "init_std",
    "build_network",
    "lazy_network",
    "network_from_weights",
    "sphere_input",
    "forward",
    "gradient",
    "grad_difference_decomposition",
    "bottleneck_decomposition",
    "save_network",
    "load_network",
]


class InitMode(Enum):
    STANDARD = 0        # layer i entries ~ N(0, 1/d_{i-1})
    DEPTH_COLLAPSE = 1  # layer entries ~ N(0, 2/fan_in), all layers


@dataclass(frozen=True)
class Architecture:
    """Shape of a network: d_0 = input_dim, hidden widths d_1..d_l, output 1."""

    input_dim: int
    hidden_widths: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or any(w < 1 for w in self.hidden_widths):
            raise ValueError("all dimensions must be >= 1")

    @property
    def ell(self) -> int:
        return len(self.hidden_widths)

    @property
    def dims(self) -> tuple[int, ...]:
        """(d_0, d_1, ..., d_l, 1)."""
        return (self.input_dim, *self.hidden_widths, 1)

    @property
    def d_max(self) -> int:
        return max(self.input_dim, *self.hidden_widths) if self.hidden_widths else self.input_dim


@dataclass(frozen=True)
class Network:
    """A network's weights W_1..W_{l+1}, exactly l + 1 of them, each of the
    shape arch.dims gives it, and the seeds it was built with.  The hidden
    weights of a lazy_network are LazyGaussian, not ndarray."""

    arch: Architecture
    mode: InitMode
    weights: tuple[np.ndarray, ...]  # W_1..W_{l+1}, weights[i]: d_{i+1} x d_i
    master_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        dims = self.arch.dims
        if len(self.weights) != self.arch.ell + 1:
            raise ValueError(
                f"{len(self.weights)} weight matrices, expected {self.arch.ell + 1}")
        for i, W in enumerate(self.weights):
            if W.shape != (dims[i + 1], dims[i]):
                raise ValueError(
                    f"weight {i + 1} has shape {W.shape}, expected {(dims[i + 1], dims[i])}"
                )


@dataclass(frozen=True)
class ForwardTrace:
    """Everything forward() computes for one input."""

    preactivations: tuple[np.ndarray, ...]   # ft_1..ft_l
    masks: tuple[np.ndarray, ...]            # 0/1 float vectors D_1..D_l
    postactivations: tuple[np.ndarray, ...]  # f_1..f_l
    output: float


@dataclass(frozen=True)
class GradDecomposition:
    """The l per-layer terms whose sum is exactly grad(x) - grad(y)."""

    terms: tuple[np.ndarray, ...]
    grad_x: np.ndarray
    grad_y: np.ndarray


@dataclass(frozen=True)
class BottleneckDecomposition:
    """Recursive argmin-width indices i_1 > ... > i_m = 0 (d_0 included)."""

    indices: tuple[int, ...]
    widths: tuple[int, ...]


def init_std(fan_in: int, mode: InitMode) -> float:
    """Standard deviation of a weight entry of a layer with fan_in inputs."""
    if mode is InitMode.STANDARD:
        return 1.0 / np.sqrt(fan_in)
    return np.sqrt(2.0 / fan_in)


def build_network(arch: Architecture, mode: InitMode, rng: RngStream) -> Network:
    """Sample all weight matrices for the given mode from rng."""
    dims = arch.dims
    weights = tuple(
        gaussian_matrix(dims[i + 1], dims[i], init_std(dims[i], mode), rng)
        for i in range(arch.ell + 1)
    )
    return Network(arch, mode, weights, rng.master_seed, rng.stream_id)


def lazy_network(arch: Architecture, rng: RngStream) -> Network:
    """A standard network whose hidden weights are LazyGaussian layers
    that draw from rng only as they are queried; the output row is dense
    and drawn now.  Everything that reaches the weights through W @ V,
    v @ W and W[:, i] (forward, gradient, the flip search's walk) runs on
    it unchanged; whole-matrix uses such as save_network do not."""
    dims = arch.dims
    std = [init_std(d, InitMode.STANDARD) for d in dims[:-1]]
    weights = tuple(LazyGaussian(dims[i + 1], dims[i], std[i], rng) for i in range(arch.ell))
    weights += (gaussian_matrix(1, dims[-2], std[-1], rng),)
    return Network(arch, InitMode.STANDARD, weights, rng.master_seed, rng.stream_id)


def sphere_input(d: int, rng: RngStream) -> np.ndarray:
    """A trial's input: uniform on the sphere of radius sqrt(d) in R^d, from rng."""
    return rng.sphere_point(d, norm=np.sqrt(d))


def network_from_weights(weights) -> Network:
    """Test-oriented constructor of a standard-mode network from explicit
    weight matrices W_1..W_{l+1}, the last a single row."""
    weights = tuple(np.atleast_2d(np.asarray(W, dtype=np.float64)) for W in weights)
    input_dim = weights[0].shape[1]
    hidden = tuple(W.shape[0] for W in weights[:-1])
    if weights[-1].shape[0] != 1:
        raise ValueError("output layer must have a single row")
    return Network(Architecture(input_dim, hidden), InitMode.STANDARD, weights)


def forward(net: Network, x: np.ndarray) -> ForwardTrace:
    """Evaluate the network, recording preactivations and activation masks.

    A unit is active exactly when its preactivation is positive, the rule
    adversarial's ray walk starts from.  The test is exact: an epsilon
    band would break positive homogeneity and the Euler identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.arch.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.arch.input_dim},)")
    pres, masks, posts = [], [], []
    cur = x
    for W in net.weights[:-1]:
        pre = W @ cur
        mask = (pre > 0.0).astype(np.float64)
        cur = mask * pre
        pres.append(pre)
        masks.append(mask)
        posts.append(cur)
    out = float(net.weights[-1][0] @ cur)
    return ForwardTrace(tuple(pres), tuple(masks), tuple(posts), out)


def _suffix_rows(net: Network, trace: ForwardTrace) -> list[np.ndarray]:
    """Rows s_j = W_{l+1} prod_{i=l..j+1} D_i W_i for j = 0..l, s_j of
    dimension d_j, with the masks of trace; s_0 is the gradient."""
    v = net.weights[-1][0].copy()
    rows = [v]
    for W, mask in zip(net.weights[-2::-1], trace.masks[::-1]):
        v = (v * mask) @ W
        rows.append(v)
    return rows[::-1]


def gradient(net: Network, trace: ForwardTrace) -> np.ndarray:
    """grad f(x) = W_{l+1} D_l W_l ... D_1 W_1 as a vector of dimension d.

    Masks come from the trace, so function value and gradient stay
    consistent even at tie points.
    """
    return _suffix_rows(net, trace)[0]


def grad_difference_decomposition(
    net: Network, trace_x: ForwardTrace, trace_y: ForwardTrace
) -> GradDecomposition:
    """Exact layerwise decomposition of grad(x) - grad(y).

    Term j is W_{l+1} (prod_{i=l..j+1} D_i(x) W_i) (D_j(x) - D_j(y)) W_j
    (prod_{i=j-1..1} D_i(y) W_i); the terms sum to the gradient
    difference up to float roundoff.  grad_x and grad_y are
    gradient(net, trace_x) and gradient(net, trace_y) to the bit.
    """
    suffix = _suffix_rows(net, trace_x)
    terms = []
    for j in range(1, net.arch.ell + 1):
        t = (suffix[j] * (trace_x.masks[j - 1] - trace_y.masks[j - 1])) @ net.weights[j - 1]
        for i in range(j - 1, 0, -1):
            t = (t * trace_y.masks[i - 1]) @ net.weights[i - 1]
        terms.append(t)
    return GradDecomposition(tuple(terms), suffix[0], gradient(net, trace_y))


def bottleneck_decomposition(arch: Architecture) -> BottleneckDecomposition:
    """Recursive bottleneck indices, ending at the input layer (index 0).

    i_1 minimizes width over indices 0..l, and each subsequent index
    minimizes over indices strictly below the previous one.  Argmin ties
    break to the smallest index, which is the only rule under which the
    widths are strictly increasing along the sequence.
    """
    widths = np.array((arch.input_dim, *arch.hidden_widths))
    indices = []
    hi = len(widths)
    while hi > 0:
        i = int(np.argmin(widths[:hi]))
        indices.append(i)
        hi = i
    return BottleneckDecomposition(tuple(indices), tuple(int(widths[i]) for i in indices))


_MAGIC = b"RRNN"
_VERSION = 2
_HEADER = struct.Struct("<IBBI")  # version, mode byte, tie byte (always 0), l


def save_network(net: Network, path) -> None:
    """Binary format version 2: magic 'RRNN', u32 LE version, mode byte,
    tie byte 0, u32 LE l, l+2 dims as u32 LE, each W_i row-major f64 LE,
    u64 LE master seed, u64 LE stream id.  A weight that is not a dense
    ndarray, such as a LazyGaussian, is a ValueError before any file opens."""
    for i, W in enumerate(net.weights):
        if not isinstance(W, np.ndarray):
            raise ValueError(f"weight {i + 1} is a {type(W).__name__}, not a dense ndarray")
    dims = net.arch.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _HEADER.pack(_VERSION, net.mode.value, 0, net.arch.ell))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for W in net.weights:
            # from the array's own buffer: tobytes() would copy the whole weight
            fh.write(memoryview(np.ascontiguousarray(W, dtype="<f8")))
        fh.write(struct.pack("<2Q", net.master_seed % (1 << 64), net.stream_id % (1 << 64)))


def load_network(path) -> Network:
    """Read a network file of format version 2 with tie byte 0; any other
    version or tie byte is a FormatError.  `relurand sample` redraws the
    net of a version 1 file it wrote from the d, widths, mode and seed the
    file records."""
    with open(path, "rb") as fh:
        data = fh.read()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"truncated file while reading {what}")
        chunk = data[off:off + n]
        off += n
        return chunk

    off = 0
    if take(4, "magic") != _MAGIC:
        raise FormatError("bad magic bytes; not a network file")
    version, mode_byte, tie_byte, ell = _HEADER.unpack(take(_HEADER.size, "header"))
    if version != _VERSION:
        raise FormatError(f"unsupported format version {version} (supported: {_VERSION})")
    if tie_byte != 0:
        raise FormatError(f"unsupported tie byte {tie_byte} (supported: 0)")
    try:
        mode = InitMode(mode_byte)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    ndims = ell + 2
    dims = struct.unpack(f"<{ndims}I", take(4 * ndims, "dimensions"))
    if dims[-1] != 1 or min(dims) < 1:
        raise FormatError(f"bad dimension table {dims}")
    weights = []
    for i in range(ndims - 1):
        n = dims[i + 1] * dims[i]
        raw = take(8 * n, f"weight matrix {i + 1}")
        weights.append(np.frombuffer(raw, dtype="<f8").reshape(dims[i + 1], dims[i]).copy())
    seed, stream_id = struct.unpack("<2Q", take(16, "master seed and stream id"))
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after the network")
    arch = Architecture(dims[0], dims[1:-1])
    return Network(arch, mode, tuple(weights), seed, stream_id)
