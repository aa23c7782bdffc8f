"""Dense linear algebra and sampling primitives.

Matrices and vectors are plain float64 numpy arrays throughout the
package; this module adds the few operations the rest of the code needs:
gaussian matrix sampling, sampling the image W @ M of a thin matrix under
a fresh gaussian W from a triangular factor of M's Gram (one Cholesky
pass over a Gram formed on one BLAS thread, Householder QR where that
would lose accuracy), a gaussian matrix revealed only where it is queried
until drawing it whole is cheaper (LazyGaussian), the spectral norm from
the top eigenvalue of the smaller Gram and a draw of its law on a
gaussian matrix from chi variates, the two-sample Kolmogorov-Smirnov
statistic, and numpy's BLAS held to one thread for the length of a block.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from typing import Optional

import numpy as np

from .rng import RngStream

__all__ = ["gaussian_matrix", "gaussian_times", "gaussian_times_factor",
           "gaussian_times_apply", "LazyGaussian", "spectral_norm",
           "gaussian_spectral_norm", "ks_two_sample", "ks_critical_value", "one_blas_thread"]


def gaussian_matrix(rows: int, cols: int, std: float, rng: RngStream) -> np.ndarray:
    """Dense rows x cols matrix with iid N(0, std^2) entries, scaled in
    place: std * normals would hold a second matrix at the peak."""
    G = rng.normal((rows, cols))
    G *= std
    return G


def gaussian_times(M: np.ndarray, rows: int, std: float, rng: RngStream) -> np.ndarray:
    """Sample of W @ M, where W is a fresh rows x M.shape[0] matrix with iid
    N(0, std^2) entries, independent of M.

    The rows of W @ M are iid N(0, std^2 M^T M), so only the Gram matrix of
    M matters.  With U the distinct columns of M and R an upper triangular
    factor with R^T R = U^T U (_gram_factor), std * G @ R with G a rows x r
    standard normal matrix, r = min(U.shape), has the distribution of
    W @ U.  Only rows x r normals are drawn instead of rows x M.shape[0].
    The images are scattered back to M's columns: equal columns get
    bitwise-equal images and a zero column stays exactly zero.  Valid only
    where W is independent of M; a caller that reuses W or chooses M from W
    needs gaussian_matrix.  It is gaussian_times_factor followed by
    gaussian_times_apply, which a caller may run apart, for example to draw
    G elsewhere.
    """
    R, inverse = gaussian_times_factor(M)
    return gaussian_times_apply(rng.normal((rows, R.shape[0])), R, inverse, std)


def gaussian_times_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factor step of gaussian_times: (R, inverse), with R the upper
    triangular factor of the distinct columns U of M (_gram_factor; U
    keeps M's column order, R.shape = (min(U.shape), U.shape[1])) and
    inverse[j] the column of U equal to M's column j.  U is handed to
    _gram_factor column-major, as a view of M where M is column-major and
    has no repeated column."""
    M = np.asarray(M, dtype=np.float64)
    keep, inverse = _distinct_columns(M)
    U = M if len(keep) == M.shape[1] else M[:, keep]
    return _gram_factor(np.asfortranarray(U)), inverse


def gaussian_times_apply(G: np.ndarray, R: np.ndarray, inverse: np.ndarray,
                         std: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The apply step of gaussian_times: std * G @ R scattered to the
    columns of M by inverse, for G a rows x R.shape[0] standard normal
    matrix, which is scaled in place.  The result goes to out, a
    column-major rows x len(inverse) array (a new one when None): straight
    from the product where M has no repeated column, else gathered."""
    if out is None:
        out = np.empty((len(G), len(inverse)), order="F")
    G *= std
    if R.shape[1] == len(inverse):
        return np.matmul(G, R, out=out)
    return np.take(G @ R, inverse, axis=1, out=out)


@functools.lru_cache(maxsize=4)
def _hash_weights(n: int) -> np.ndarray:
    """n distinct odd 64-bit multipliers, one per row of a column."""
    return np.arange(1, 2 * n, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _distinct_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keep, inverse): the index of each distinct column's first
    occurrence in M, in column order, and for each column the position in
    keep of its equal.  Columns are equal when their bytes are, so 0.0 and
    -0.0 differ.  Each column hashes to the wrapping sum of its 64-bit
    words times _hash_weights; only when two hashes tie are the columns
    keyed on their bytes in a dict."""
    k = M.shape[1]
    words = M.view(np.uint64)
    hashes = np.einsum("ij,i->j", words, _hash_weights(M.shape[0]))
    if len(np.unique(hashes)) == k:
        return np.arange(k), np.arange(k)
    first: dict[bytes, int] = {}
    inverse = np.array([first.setdefault(words[:, j].tobytes(), len(first)) for j in range(k)],
                       dtype=np.intp)
    return np.unique(inverse, return_index=True)[1], inverse


# Rounding the Gram perturbs it by O(u ||U||^2), u = 2^-53, so a direction
# at relative distance rho from the span of the other columns gets its
# variance, rho^2 ||U||^2, wrong by O(u / rho^2) relatively; Householder
# perturbs U instead, and that variance by O(u / rho).  The ratio min/max
# of R's diagonal tracks rho.  On nearly collinear 2000 x 100 relu images
# the largest relative error of a direction's variance against
# Householder, ||R_h^-T R^T R R_h^-1 - I||, was 9.2e-7 at a ratio of 8e-5
# and 9.3e-3 at 8e-7.  Over the 999 tall layers of a depth-1000 collapse
# the ratio stayed above 3.2e-4 and that error below 6.1e-8.  Below this
# floor R comes from Householder.
_CHOLESKY_FLOOR = 1e-4


def _gram_factor(U: np.ndarray) -> np.ndarray:
    """Upper triangular R, min(U.shape) x U.shape[1], with R^T R = U^T U
    and a nonnegative diagonal.

    A tall U with full numerical rank takes R as the upper Cholesky factor
    of U^T U, formed by one product (Cholesky QR: Fukaya, Nakatsukasa,
    Yanagisawa & Yamamoto, ScalA 2014).  One pass suffices: the law of
    W @ U depends only on R^T R, which one pass gets to O(u) of ||U||^2
    like Householder does; a second pass would only make the never-formed
    Q orthogonal.  A wide U, a Gram that Cholesky rejects (a zero or
    dependent column), or min/max of R's diagonal below _CHOLESKY_FLOOR
    takes R from Householder QR, rows sign-flipped to a nonnegative
    diagonal.  It all runs on one BLAS thread (one_blas_thread): U^T U
    sums in another order at 2 OpenBLAS threads than at 1, so R's bits
    would otherwise depend on the caller's thread count.
    """
    n, r = U.shape
    with one_blas_thread():
        if 0 < r <= n:
            try:
                R = np.linalg.cholesky(U.T @ U).T
            except np.linalg.LinAlgError:
                pass
            else:
                diag = np.diag(R)
                if diag.min() >= _CHOLESKY_FLOOR * diag.max():
                    return R
        R = np.linalg.qr(U, mode="r")
    R *= np.where(np.diag(R) < 0.0, -1.0, 1.0)[:, None]
    return R


# A query whose residual against the revealed basis is at most this
# fraction of its norm reveals nothing.
_REVEAL_FLOOR = 1e-12


class _Side:
    """One side of a LazyGaussian: an orthonormal basis of the queries on
    that side, as rows, and the image of each basis vector under the matrix
    (for the right side) or its transpose (for the left).  A side of at
    most 8 dimensions holds them all from the start; a longer one starts
    with one row and doubles."""

    def __init__(self, dim: int, image_dim: int):
        self.dim = dim
        self.k = 0
        rows = dim if dim <= 8 else 1
        self._basis = np.empty((rows, dim))
        self._images = np.empty((rows, image_dim))

    @property
    def basis(self) -> np.ndarray:
        return self._basis[:self.k]

    @property
    def images(self) -> np.ndarray:
        return self._images[:self.k]

    def outgrows(self, other: "_Side", limit: int) -> bool:
        """Whether one more reveal would grow the buffers so that they and
        other's hold more than limit floats."""
        if self.k < len(self._basis):
            return False
        grown = (self.k + min(self.k, self.dim - self.k)) * (self.dim + self._images.shape[1])
        return grown + other._basis.size + other._images.size > limit

    def reveal(self, v: np.ndarray, other: "_Side", std: float, rng: RngStream) -> int:
        """Add v's residual direction e to the basis, with its image
        other.basis^T (other.images e) + std (I - other.basis^T other.basis) g,
        g fresh normals, and return the number of normals drawn; nothing
        when the residual is at most _REVEAL_FLOOR ||v||, which skips the
        second orthogonalization pass when the first already gets there.
        An empty basis on either side skips its products, whose terms are
        zero."""
        # v may be a strided column, whose v @ v may sum in another order
        # than np.linalg.norm's contiguous copy; r below is contiguous
        norm = float(np.linalg.norm(v))
        floor = _REVEAL_FLOOR * norm
        r = v
        if self.k:
            B = self._basis[:self.k]
            r = v - B.T @ (B @ v)
            if not math.sqrt(r @ r) > floor:
                return 0
            r -= B.T @ (B @ r)
            norm = math.sqrt(r @ r)
        if not norm > floor:
            return 0
        e = r / norm
        g = rng.normal(other.dim)
        if other.k:
            Q, C = other._basis[:other.k], other._images[:other.k]
            image = Q.T @ (C @ e)
            image += std * (g - Q.T @ (Q @ g))
        else:
            image = std * g
        if self.k == len(self._basis):
            grow = min(self.k, self.dim - self.k)
            self._basis = np.concatenate([self._basis, np.empty((grow, self.dim))])
            self._images = np.concatenate([self._images, np.empty((grow, len(image)))])
        self._basis[self.k] = e
        self._images[self.k] = image
        self.k += 1
        return len(g)


# The cost of one normal draw, in flops of the vector products a lazy query
# column does: a draw takes 25-40 ns on a 2-core x86 VM (numpy 2.4, Philox),
# a flop of those products 0.1-0.4 ns.  At the low end, thin and deep layers
# complete early, while the hidden layers of 3000 attack trials at d = 500,
# widths (500, 500), spent at most 52% of the budget and none completed.
_NORMAL_FLOPS = 100.0


class LazyGaussian:
    """A rows x cols matrix W with iid N(0, std^2) entries, drawn only
    along the directions it is queried in (Gaussian conditioning:
    Bolthausen 2014; Bayati & Montanari, IEEE-IT 2011).

    It keeps an orthonormal basis Q of the right queries with Y = W Q, and
    one U of the left queries with C = W^T U.  Given those, the rest of W
    is std (I - U U^T) G (I - Q Q^T) for a fresh standard gaussian G.  A
    right query v is orthogonalized against Q, twice unless the first
    pass leaves nothing new; if its residual direction e is new,
    W e = U (C^T e) + std (I - U U^T) g is revealed with g fresh normals,
    and the answer is W v = Y (Q^T v).  Left queries
    mirror this with W^T f = Q (Y^T f) + std (I - Q Q^T) h.  A residual of
    at most 1e-12 of the query's norm reveals nothing, so a query in the
    revealed span, and a zero query, draw nothing; the latter returns exact
    zeros.  Queries may be chosen from earlier answers: the answers have
    the joint law they would have on a dense gaussian W.

    W completes itself in place into a dense matrix drawn from that law
    (_complete) when a side spans its space, and then draws nothing, or
    when one more reveal would cost more than the dense rest: when the
    flops spent on lazy query columns would pass the cost of drawing W
    (rent or buy: the lazy work never exceeds the dense draw it spares),
    or when the buffers of both sides would grow past rows x cols floats.
    From then on every query is a plain product with the dense matrix and
    draws nothing.  The rule reads only shapes and counts, so whether and
    where W completes is a function of its queries.

    It stands in for the ndarray W in W @ V, v @ W and W[:, i]; with
    __array_ufunc__ = None, ndarray @ W defers to __rmatmul__.
    """

    __array_ufunc__ = None

    def __init__(self, rows: int, cols: int, std: float, rng: RngStream):
        self.shape = (rows, cols)
        self._std = std
        self._rng = rng
        self._right = _Side(cols, rows)
        self._left = _Side(rows, cols)
        self._spent = 0.0   # flops of the lazy query columns so far, draws included
        self._dense: Optional[np.ndarray] = None

    @property
    def revealed(self) -> tuple[int, int]:
        """Numbers of revealed (right, left) directions: (cols, rows) once
        completed."""
        if self._dense is not None:
            return self.shape[1], self.shape[0]
        return self._right.k, self._left.k

    @property
    def completed(self) -> bool:
        return self._dense is not None

    def _reveal(self, side: _Side, other: _Side, V: np.ndarray) -> None:
        """Reveal the new directions among V's columns on side, or complete
        W when a side spans its space or one more reveal would cost more
        than the dense rest.  A column on a side of dimension n with k
        directions, the other side of dimension m with k', costs two
        orthogonalization passes (8 k n flops), its answer (2 k (n + m)),
        its image (2 k' (n + m) + 4 k' m) and its draws.  A column that
        reveals nothing after one pass is still charged both, so where W
        completes does not depend on the skipped pass."""
        size = self.shape[0] * self.shape[1]
        n, m, k2 = side.dim, other.dim, other.k
        for v in (V.T if V.ndim == 2 else (V,)):
            k = side.k
            self._spent += 8 * k * n + 2 * (k + k2) * (n + m) + 4 * k2 * m
            if self._spent > _NORMAL_FLOPS * size or side.outgrows(other, size):
                break
            self._spent += _NORMAL_FLOPS * side.reveal(v, other, self._std, self._rng)
            if side.k == n:
                break
        else:
            return
        self._complete()

    def _complete(self) -> None:
        """Set W to a draw of its law given the revealed directions,
        Y^T Q + (U^T C + std (I - U^T U) G) (I - Q^T Q) with Q, Y, U, C as
        stored rows and G fresh normals; nothing is drawn when Q spans
        R^cols or U spans R^rows."""
        rows, cols = self.shape
        Q, Y = self._right.basis, self._right.images
        if len(Q) == cols:
            W = Y.T @ Q
        else:
            U, C = self._left.basis, self._left.images
            if len(U) == rows:
                W = U.T @ C
            else:
                W = self._rng.normal((rows, cols))
                W *= self._std
                W -= U.T @ (U @ W - C)
            del U, C
            self._left = None   # freed before the last product's temporary
            W += (Y.T - W @ Q.T) @ Q
        self._dense = W
        self._right = self._left = None

    def __matmul__(self, V) -> np.ndarray:
        V = np.asarray(V, dtype=np.float64)
        if self._dense is None:
            self._reveal(self._right, self._left, V)
        if self._dense is not None:
            return self._dense @ V
        return self._right.images.T @ (self._right.basis @ V)

    def __rmatmul__(self, F) -> np.ndarray:
        F = np.asarray(F, dtype=np.float64)
        if self._dense is None:
            self._reveal(self._left, self._right, F.T)
        if self._dense is not None:
            return F @ self._dense
        return (self._left.images.T @ (self._left.basis @ F.T)).T

    def __getitem__(self, key) -> np.ndarray:
        """Column W[:, i], the only indexing supported."""
        rows, i = key
        if rows != slice(None):
            raise IndexError("LazyGaussian supports W[:, i] only")
        if self._dense is not None:
            return self._dense[:, i]
        e = np.zeros(self.shape[1])
        e[i] = 1.0
        return self @ e


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M: the square root of the top eigenvalue
    of its smaller Gram, M M^T or M^T M (eigvalsh), exact to rounding.

    M is first scaled by a power of two near its largest entry, so that
    the Gram neither underflows nor overflows at any finite scale.  The
    scaling is exact, so at scales where nothing underflowed or overflowed
    the result is the same to the bit as without it.  It runs on one BLAS
    thread (one_blas_thread): the Gram sums in another order at 2 OpenBLAS
    threads than at 1, so its bits would otherwise depend on the caller's
    thread count.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("spectral_norm requires a nonempty 2-d matrix")
    peak = max(float(M.max()), -float(M.min()))
    if peak == 0.0:
        return 0.0
    exponent = int(np.frexp(peak)[1])
    M = np.ldexp(M, -exponent)
    with one_blas_thread():
        gram = M @ M.T if M.shape[0] < M.shape[1] else M.T @ M
        top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.ldexp(np.sqrt(top), exponent))


_TOL = 1e-8  # sigma within 1e-8 relative of ||A||, far below any probe's noise


def gaussian_spectral_norm(rows: int, cols: int, rng: RngStream) -> float:
    """A draw of ||A|| to within _TOL, for a rows x cols matrix A with iid
    N(0, 1) entries, without forming A.

    Golub-Kahan bidiagonalization of A from a fixed unit vector gives
    A Q = P B with B upper bidiagonal, whose diagonal entries a_i ~
    chi_{rows-i+1} and superdiagonal entries b_i ~ chi_{cols-i} are
    independent (Golub & Kahan 1965; Dumitriu & Edelman, J. Math. Phys.
    2002); a_{rows+1} and b_cols are 0.  Lanczos on A^T A from that vector
    has the tridiagonal T_j = B_j^T B_j, B_j the leading j x j block of B:
    alpha_j = a_j^2 + b_{j-1}^2 on the diagonal and beta_j = a_j b_j below
    it.  Step j draws a_j unless j > rows (then a_j = 0) and b_j unless
    a_j = 0 or j = cols, where no later step reads it: two chi draws per
    step and no normals.  The estimate of ||A||^2 after step j is the
    largest eigenvalue of T_j; it never decreases (Kuczynski & Wozniakowski
    1992).  It is returned at exact breakdown (beta_j = 0), which comes at
    step rows + 1 when rows < cols, after step cols otherwise, or once it
    moves by at most _TOL (relatively) between steps; at most rows + cols
    chi draws in all.  T is kept in a zero buffer whose side doubles when
    full.
    """
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_spectral_norm requires rows, cols >= 1")
    steps = min(rows + 1, cols)
    T = np.zeros((min(steps, 32),) * 2)
    prev = estimate = -1.0
    b = 0.0
    for j in range(steps):   # step j + 1 of the recurrence
        a = float(rng.chi(rows - j)) if j < rows else 0.0
        T[j, j] = a * a + b * b
        b = float(rng.chi(cols - j - 1)) if a > 0.0 and j + 1 < cols else 0.0
        # eigvalsh reads only the lower triangle
        estimate = float(np.linalg.eigvalsh(T[:j + 1, :j + 1])[-1])
        if (a * b == 0.0 or j + 1 == steps
                or prev >= 0.0 and abs(estimate - prev) <= _TOL * max(estimate, 1e-300)):
            break
        if j + 1 == len(T):
            T = np.pad(T, (0, min(j + 1, steps - j - 1)))
        T[j + 1, j] = a * b
        prev = estimate
    return float(np.sqrt(max(estimate, 0.0)))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample requires nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


_KS_LEVEL = 0.01  # the level of probes.probe_dist_equiv's test


def ks_critical_value(n_a: int, n_b: int) -> float:
    """Asymptotic two-sample KS critical value at level 0.01,
    c(0.01) * sqrt((n_a+n_b)/(n_a*n_b))."""
    # c(alpha) = sqrt(-ln(alpha/2)/2); c(0.01) = 1.628
    c = np.sqrt(-0.5 * np.log(_KS_LEVEL / 2.0))
    return float(c * np.sqrt((n_a + n_b) / (n_a * n_b)))


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread-count functions of the OpenBLAS this
    process has loaded, under the plain, 64_-suffixed or scipy_-prefixed
    names (numpy's wheels use the last), or None where no OpenBLAS shows in
    /proc/self/maps (another BLAS, or no such file off Linux)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


# OpenBLAS's thread count is process-wide, so pins are counted across threads
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore its
    thread count after.  Pins may nest and may overlap across threads:
    under one lock, the first pin to enter saves the count and sets 1, and
    the last to leave restores it.  Where no OpenBLAS can be found
    (_openblas_thread_calls) the block runs unchanged."""
    global _pin_depth, _pin_saved
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)
