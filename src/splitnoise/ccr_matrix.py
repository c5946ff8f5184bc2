"""Finite-dimensional models of the canonical pair and the zero-sum triple.

Two independent discretizations of the canonical pair (q, p) with
[p, q] = -i are provided, because the sign function of a truncation is
not the truncation of the sign function; agreement between the two is
the convergence certificate.

* oscillator: ladder-matrix position and momentum in the number basis.
  The commutator defect is rank one, sitting at the top basis vector.
* grid: position diagonal on a uniform grid of [-L, L], momentum by
  exact band-limited (sinc-kernel) spectral differentiation.  Here the
  sign of the position operator is exactly diagonal, and the commutator
  defect is rank one at the alternating (Nyquist) vector.

Each entry formula lives in one helper: `_ladder_entries` gives the
number-basis q[j, j + 1] = sqrt(j + 1)/sqrt 2, and `_sinc_diagonals` the
grid derivative (-1)^(j-l) / (h (j - l)).  `_natural_pair` builds the
dense (q, p) from them: `build_pair` scales it by sqrt(2 t) and
`symmetric_triple` rotates it by 2 pi / 3.  The sign-sum kernel builds
only N/2-sized blocks, unscaled, since positive scalings drop out of
sgn: the grid's from `_sinc_diagonals`, the oscillator's from the
Hermite recurrence `_hermite_levels`, whose coefficients are the same
ladder entries.  `_grid_points` is the one check of a scheme and its
dimensions, and the grid aliasing check reads only the grid points and
t.  Every grid object uses one window, the balanced half width
sqrt(pi N / 2): Q_t = sqrt(2 t) x only rescales the natural-unit grid.

The zero-sum triple Q, P, R places three scaled coordinates at mutual
120 degrees, Q = alpha q, P = alpha (q cos + p sin), R = -(P + Q) with
alpha^2 = 2/sqrt(3), so that all pairwise commutators equal -i.

Normalization of the reported constant.  The extreme eigenvalues of
S = sgn P + sgn Q + sgn R converge to about +-1.2561 (the spectrum is
parity-symmetric).  The sum of the positive spectral projections
Pi = (1 + sgn)/2 obeys the operator identity

    Pi_P + Pi_Q + Pi_R = (3 I + S) / 2,

whose norm converges to (3 + 1.2561)/2 = 2.1280, the "approximately
2.1" constant; `sign_sum_norm` returns this projection normalization
(that is what feeds the obstruction arithmetic, epsilon = 3 - 2.128),
while `lemma23_value` returns the raw sign-sum norm: at 2 pi / 3 the raw
spectrum edge is exactly -+ that value.  Both are strictly below 3 at
every truncation.

One constant for every angle: for alpha in (pi/2, pi) the continuum
sum is unitarily equivalent to the symmetric triple's, by the
metaplectic representation (Folland, Harmonic Analysis in Phase Space,
ch. 4), so norm-study rows at alpha = 2.9 check the same constant.  The
truncations differ: the oscillator at N = 1024 gives 1.255549, 1.256078
and 1.255052 at alpha = 1.7, 2 pi / 3 and 2.9.

The sign-sum kernel.  With c = cos alpha, s = sin alpha, all three go
through one kernel for S = sgn Q + sgn(c Q + s P) + sgn(c Q - s P).  It
never forms a dense N x N sign: S is bipartite, S = [[0, M], [M^T, 0]],
so its spectrum is +-(singular values of the real block M), padded with
zeros for odd N, and the value is the top singular value of M.  The sign
of a bipartite [[0, B], [B^*, 0]] is [[0, U], [U^*, 0]] with U = W V^*
the polar factor of B = W Sigma V^* (Higham, Functions of Matrices,
SIAM 2008).  `_top_singular_value` finds the top singular value by
Lanczos on the smaller of M^T M and M M^T (Golub & Van Loan, Matrix
Computations, ch. 10), and it sees M only through a product
z -> M z or M^T z; the top is isolated (1.256 against 1.171 at
N = 1024), so it takes about 10 steps.  Each scheme supplies its block's
product for one angle, and no N/2 matrix is formed per angle.  What does
not depend on the angle is built once per N, so a study at several
angles shares it.

* oscillator: e^{i theta N} q e^{-i theta N} = q cos theta + p sin theta
  holds exactly in the truncation, so S = sgn q o [1 + 2 cos(alpha (j - l))]
  entrywise, which is real.  q couples even levels to odd levels only,
  so M = U_q o [1 + 2 cos(alpha (2r - 2l - 1))] couples level 2r to level
  2l + 1, with U_q the polar factor of the bidiagonal even-row/odd-column
  block B_q of q.  The truncation is the N-point Gauss-Hermite rule
  (Golub & Welsch, Math. Comp. 23, 1969): the eigenvalues of q are the
  zeros of the degree-N Hermite polynomial, and the eigenvector at a
  node x has the components v_j(x) of the orthonormal three-term
  recurrence.  Parity gives v_j(-x) = (-1)^j v_j(x), so
  U_q = 2 Psi_even Psi_odd^T, with Psi the normalized eigenvectors at
  the positive nodes.  The nodes are sqrt(eigvalsh(B_q^T B_q)), with the
  tridiagonal B_q^T B_q in closed form, each refined by one Newton step
  on v_N; no SVD is taken.  One rescaled recurrence does both jobs: run
  at the eigvalsh nodes it gives the Newton step, whose derivative v_N'
  the Christoffel-Darboux identity sum_{j<N} v_j^2 = beta_N v_N' v_{N-1}
  (at v_N = 0; Szego, Orthogonal Polynomials, Thm 3.2.2) takes from
  sums it already forms, and run at the refined nodes it gives Psi.  It
  divides out a power of two every 32 levels: unscaled, v_j reaches
  about 1.6e214 at N = 512, so its squared norms overflow.  U_q is
  built once per N.  Per angle the weight splits into three terms,
  1 + 2 cos(2 alpha r) cos(alpha (2l + 1))
  + 2 sin(2 alpha r) sin(alpha (2l + 1)), so M is the sum over j of
  diag(left_j) U_q diag(right_j) for a (rows, 3) factor left and a
  (cols, 3) factor right, and M z = sum_j left_j o U_q (right_j o z) is
  one 3-column product with U_q each way.
* grid: Q is real diagonal and P imaginary, so sgn(c Q - s P) is the
  complex conjugate of sgn(c Q + s P) and S = sgn Q + 2 Re sgn(c Q + s P).
  Both Q and P are odd under the reflection x -> -x, so in the basis of
  reflection-odd and reflection-even vectors M = 2 Re(W V^*) - [I | 0],
  with W V^* the polar factor of the block B of c Q + s P and -[I | 0]
  the block of sgn Q.  Only the top N/2 rows of the derivative enter
  B = c diag(x_j) - i s E: E, the folded top rows, is built once per N,
  and B and its thin SVD once per angle.  The product applies
  M z = 2 Re(W (V^* z)) - z[:N/2] and M^T z = 2 Re(conj(V) (W^T z))
  - [z; 0] without forming W V^* or its real part, and each angle's B,
  W and V^* are freed before the next angle's SVD.

For odd N the block is (N+1)/2 x (N-1)/2 or its transpose.  Its polar
factor vanishes on the kernel vector (the oscillator's sum over nodes
leaves out the zero node), so sgn(0) = 0 holds without a tolerance, and
the spectrum stays parity-symmetric.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian_algebra import (_check_count, _finite_amplitude, _finite_array,
                               _finite_real, _positive_horizon, _whole)

__all__ = [
    "CcrTriple",
    "GridAliasingWarning",
    "require_hermitian",
    "position_momentum",
    "build_pair",
    "symmetric_triple",
    "sgn_op",
    "sign_sum_norm",
    "lemma23_value",
    "coherent_vector",
    "sgn_expectation",
    "convergence_study",
    "StudyRow",
    "write_norm_study_csv",
    "NORM_STUDY_HEADER",
]

TWO_THIRDS_PI = 2.0 * math.pi / 3.0

NORM_STUDY_HEADER = "scheme,N,alpha,t,value,seconds"


class GridAliasingWarning(UserWarning):
    """Grid too coarse or too narrow: vacuum moment off by more than 1e-6."""


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate the Hermitian-matrix contract, max-norm relative to entries,
    within 1e-12, on a finite real or complex a (_finite_array), returned
    as the read-only array that rule gives."""
    a = _finite_array(a, "a")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.conj().T).max() > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def _ladder_entries(n: int) -> np.ndarray:
    """q[j, j + 1] = q[j + 1, j] = sqrt(j + 1) / sqrt 2 for j < n - 1, the
    only nonzero entries of the natural-unit number-basis position."""
    return np.sqrt(np.arange(1, n)) / math.sqrt(2.0)


def position_momentum(n: int):
    """Natural-unit (q, p) in the number basis, [p, q] = -i up to the
    rank-one truncation defect at the top basis vector.  ValueError
    unless the dimension n is a whole number of at least 1."""
    up = np.diag(_ladder_entries(_check_count(n, "n")), 1)
    return up + up.T, -1j * (up - up.T)


def _sinc_diagonals(x: np.ndarray) -> np.ndarray:
    """Diagonals of the sinc-kernel first derivative on the uniform grid x:
    entry d + N - 1 is (-1)^d / (h d) for d = j - l != 0, and 0 at d = 0."""
    n = len(x)
    h = x[1] - x[0]
    d = np.arange(1 - n, n)
    with np.errstate(divide="ignore"):
        g = (-1.0) ** d / (h * d)
    g[n - 1] = 0.0
    return g


def _toeplitz(g: np.ndarray, cols: int) -> np.ndarray:
    """Read-only view t[j, l] = g[j - l + cols - 1] of the diagonal-constant
    matrix with len(g) - cols + 1 rows whose diagonals are g."""
    return np.lib.stride_tricks.sliding_window_view(g[::-1], cols)[::-1]


@dataclass(frozen=True)
class CcrTriple:
    """Hermitian triple with R = -(P + Q) held exactly.

    Fields: the time scale t, the N x N matrices Q, P and R, and the grid
    points x (None for the oscillator); N is len(Q).
    """

    t: float
    Q: np.ndarray
    P: np.ndarray
    R: np.ndarray
    x: np.ndarray | None = None


def _grid_vacuum(x: np.ndarray) -> np.ndarray:
    v = np.exp(-x * x / 2.0)
    return v / np.linalg.norm(v)


def _grid_points(scheme: str, n: int) -> tuple[int, np.ndarray | None]:
    """The dimension n as an int, and the points x of the grid on [-L, L],
    L = sqrt(pi n / 2), where the position and momentum cutoffs
    coincide, or None for the oscillator.  The one place where a scheme
    and its dimensions are checked: ValueError for an unknown scheme, or
    unless n is a whole number of at least 2; a whole float becomes the
    int it equals."""
    n = _whole(n, "n", 2, math.inf, "be at least 2")
    if scheme == "oscillator":
        return n, None
    if scheme == "grid":
        L = math.sqrt(math.pi * n / 2.0)
        return n, np.linspace(-L, L, n)
    raise ValueError(f"unknown scheme {scheme!r}")


def _natural_pair(scheme: str, n: int):
    """Dense natural-unit (q, p, x) of one scheme, x = None for the
    oscillator; the grid q is the real diagonal of the points x."""
    n, x = _grid_points(scheme, n)
    if x is None:
        q, p = position_momentum(n)
        return q, p, None
    return np.diag(x), -1j * _toeplitz(_sinc_diagonals(x), n), x


def _warn_if_aliased(x: np.ndarray | None, t: float,
                     stacklevel: int = 3) -> None:
    """GridAliasingWarning when the grid vacuum's second moment of
    Q_t = sqrt(2 t) x misses t by more than 1e-6 max(t, 1); stacklevel
    counts from this function, so that the warning names the public
    function's caller."""
    if x is None:
        return
    v = _grid_vacuum(x)
    sx = math.sqrt(2.0 * t) * x
    err = abs(float(v @ (sx * (sx * v))) - t)
    if err > 1e-6 * max(t, 1.0):
        warnings.warn(
            f"grid vacuum moment off by {err:.2e} (N={len(x)}, L={x[-1]:.3g}); "
            "increase N", GridAliasingWarning,
            stacklevel=stacklevel)


def build_pair(scheme: str, n: int, t: float) -> CcrTriple:
    """Canonical pair at time scale t, [P, Q] = -2 t i up to the defect.

    Q = sqrt(2 t) q and P = sqrt(2 t) p in either discretization; the
    grid has the balanced half width sqrt(pi n / 2) in natural units, the
    one window of every grid object, and the vacuum-moment aliasing check
    warns above 1e-6.
    """
    t = _positive_horizon(t)
    q, p, x = _natural_pair(scheme, n)
    s = math.sqrt(2.0 * t)
    _warn_if_aliased(x, t)
    Q, P = s * q, s * p
    return CcrTriple(t, Q, P, -(P + Q), x=x)


def symmetric_triple(n: int, scheme: str = "oscillator") -> CcrTriple:
    """Zero-sum triple at mutual 120 degrees, pairwise commutators -i.

    alpha^2 = 2/sqrt(3) makes alpha^2 sin(2 pi / 3) = 1.  R is built as
    -(P + Q), so P + Q + R = 0 holds exactly in floating point.
    """
    q, p, x = _natural_pair(scheme, n)
    alpha = math.sqrt(2.0 / math.sqrt(3.0))
    c, s = math.cos(TWO_THIRDS_PI), math.sin(TWO_THIRDS_PI)
    Q = alpha * q
    P = alpha * (c * q + s * p)
    return CcrTriple(0.5, Q, P, -(P + Q), x=x)


def sgn_op(a: np.ndarray) -> np.ndarray:
    """Spectral sign of a Hermitian matrix, sgn(0) := 0.

    Eigenvalues within n eps max|w| of zero map to 0, so a kernel vector
    that roundoff leaves at an eigenvalue of +-1e-17 is annihilated.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    tol = len(w) * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    return (v * np.where(np.abs(w) <= tol, 0.0, np.sign(w))) @ v.conj().T


def _top_singular_value(product, shape: tuple[int, int]) -> float:
    """Largest singular value of a real rows x cols matrix M of the given
    shape, known only by its product: product(z, transpose) returns M z,
    or M^T z when transpose is set.  Lanczos runs on the smaller of the
    Gram matrices M^T M and M M^T, applied as two products and never
    formed (Golub & Van Loan, Matrix Computations, ch. 10).

    Every step is reorthogonalized against all earlier ones, twice.  The
    start vector is cos(1.234 j + 0.5), so reruns repeat bit for bit.  The
    iteration stops once the top Ritz pair (theta, y) has residual
    beta |y_last| <= 1e-15 theta, at a breakdown beta = 0 (the Krylov
    space is invariant, so theta is exact), or after as many steps as the
    Gram matrix has rows.
    """
    tall = shape[0] > shape[1]  # the Gram matrix is then M^T M
    q = np.cos(1.234 * np.arange(min(shape)) + 0.5)
    basis = [q / math.sqrt(q @ q)]
    alphas, betas = [], []
    while True:
        qs = np.array(basis)
        w = product(product(basis[-1], not tall), tall)
        h = qs @ w
        w -= qs.T @ h
        w -= qs.T @ (qs @ w)
        alphas.append(h[-1])
        beta = math.sqrt(w @ w)
        steps = len(alphas)
        t = np.diag(alphas)  # the Lanczos tridiagonal
        t.flat[1::steps + 1] = t.flat[steps::steps + 1] = betas
        theta, y = np.linalg.eigh(t)
        if (beta == 0.0 or beta * abs(y[-1, -1]) <= 1e-15 * theta[-1]
                or steps == len(q)):
            return math.sqrt(max(theta[-1], 0.0))
        betas.append(beta)
        basis.append(w / beta)


# The recurrence over the nodes divides out a power of two every 32
# levels: over 32 levels v_j grows by at most 2^181 at n = 8192, and
# unscaled it reaches about 1.6e214 at n = 512, where its squared norms
# overflow.
_RESCALE_LEVELS = 32


def _hermite_levels(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Levels 0..n-1 of the orthonormal Hermite recurrence at the nodes x,
    their squared column norms, and the Newton step towards a zero of v_n.

    v_j = (x v_{j-1} - beta_{j-1} v_{j-2}) / beta_j, v_0 = 1, with
    beta_j = q[j - 1, j] = sqrt(j / 2), the ladder entries of
    _ladder_entries (Golub & Welsch, Math. Comp. 23, 1969); row j of the
    (n, len(x)) array holds v_j.  Every _RESCALE_LEVELS levels each
    column is divided by an exact power of two that brings its last two
    levels to [0.5, 1); a last pass brings the earlier stretches to the
    scale of the last one.  The
    Christoffel-Darboux identity (Szego, Orthogonal Polynomials, Thm
    3.2.2) gives sum_{j<n} v_j^2 = beta_n v_n' v_{n-1} at v_n = 0, so
    Newton's step -v_n / v_n' is
    (beta_{n-1} v_{n-2} - x v_{n-1}) v_{n-1} / sum_{j<n} v_j^2, up to a
    term of second order in v_n; it does not depend on the scale.
    """
    beta = np.concatenate([[0.0], _ladder_entries(n)])  # beta_0 unused
    v = np.empty((n, len(x)))
    v[0] = 1.0
    v[1] = x / beta[1]
    taken = np.zeros(len(x), dtype=int)  # exponents divided out so far
    marks = [(0, taken)]  # (first level, exponents taken) per stretch
    for j in range(2, n):
        np.multiply(x, v[j - 1], out=v[j])
        v[j] -= beta[j - 1] * v[j - 2]
        v[j] /= beta[j]
        if j % _RESCALE_LEVELS == 0:
            shift = np.frexp(np.maximum(abs(v[j - 1]), abs(v[j])))[1]
            np.ldexp(v[j - 1:j + 1], -shift, out=v[j - 1:j + 1])
            taken = taken + shift
            marks.append((j - 1, taken))
    for (lo, before), (hi, _) in zip(marks, marks[1:]):
        np.ldexp(v[lo:hi], before - taken, out=v[lo:hi])
    norms = np.einsum("ij,ij->j", v, v)
    step = (beta[n - 1] * v[n - 2] - x * v[n - 1]) * v[n - 1] / norms
    return v, norms, step


def _hermite_nodes(n: int) -> np.ndarray:
    """The n // 2 positive eigenvalues of q, ascending: the positive zeros
    of the degree-n Hermite polynomial.

    sqrt(eigvalsh(T)) with T = B^T B, B = q[0::2, 1::2] the even/odd
    block, in closed form: T is tridiagonal with diagonal 2l + 3/2
    (l + 1/2 in the last row for even n) and off-diagonal
    sqrt(2l (2l + 1)) / 2 for l = 1..k-1.  Then one Newton step from
    _hermite_levels: the square root alone misses a small node x by up
    to about eps ||q||^2 / (2 x).
    """
    k = n // 2
    t = np.diag(2.0 * np.arange(k) + 1.5)
    if n % 2 == 0:
        t[-1, -1] = k - 0.5
    even = 2.0 * np.arange(1, k)  # 2l
    t.flat[1::k + 1] = t.flat[k::k + 1] = np.sqrt(even * (even + 1.0)) / 2.0
    x = np.sqrt(np.linalg.eigvalsh(t))
    return x + _hermite_levels(x, n)[2]


def _oscillator_product(u: np.ndarray, alpha: float):
    """The product, as _top_singular_value takes it, of the oscillator's
    block M = u o [1 + 2 cos(alpha (2r - 2l - 1))] at the angle alpha,
    u = sgn(q)[0::2, 1::2], by the module docstring's three-term split of
    the weight: left holds 1, 2 cos and 2 sin of alpha times the even
    levels, right 1, cos and sin of alpha times the odd ones."""
    a = alpha * np.arange(sum(u.shape))  # alpha times the levels 0..N-1
    f = np.stack([np.ones_like(a), np.cos(a), np.sin(a)], axis=1)
    left, right = f[0::2] * (1.0, 2.0, 2.0), f[1::2]
    return lambda z, transpose: (
        np.einsum("ij,ij->i", right, u.T @ (left * z[:, None])) if transpose
        else np.einsum("ij,ij->i", left, u @ (right * z[:, None])))


def _grid_block(x: np.ndarray) -> np.ndarray:
    """Real E such that c diag(x[:k]) - i s E is the block of c q + s p in
    the reflection basis, k = N // 2: the top k rows of the sinc
    derivative, column l folded with column N-1-l, then the centre column
    times sqrt 2 for odd N."""
    n, k = len(x), len(x) // 2
    top = _toeplitz(_sinc_diagonals(x), n)[:k]
    e = np.empty((k, n - k))
    np.add(top[:, :k], top[:, ::-1][:, :k], out=e[:, :k])
    if n % 2:
        e[:, k] = math.sqrt(2.0) * top[:, k]
    return e


def _grid_product(e: np.ndarray, x: np.ndarray, alpha: float):
    """The product, as _top_singular_value takes it, of the grid's block
    M = 2 Re(W V^*) - [I | 0] at the angle alpha, from the thin SVD
    B = c diag(x[:k]) - i s E = W Sigma V^*, E = _grid_block(x), without
    forming W V^*.  Only W and V^* outlive the call, held by the
    product."""
    k = len(e)
    b = (-1j * math.sin(alpha)) * e
    b[np.diag_indices(k)] += math.cos(alpha) * x[:k]
    w, _, vh = np.linalg.svd(b, full_matrices=False)

    def product(z, transpose):
        y = 2.0 * ((vh.T @ (w.T @ z)) if transpose else (w @ (vh @ z))).real
        y[:k] -= z[:k]  # sgn Q: x_j < 0 for j < N/2
        return y
    return product


def _sign_sum_values(scheme: str, n: int, alphas, t: float) -> list[float]:
    """Raw sign-sum norm of the angle-alpha triple for each alpha, one N.

    The block that does not depend on the angle is built once: the sign
    of q's even/odd block from the Gauss-Hermite nodes (oscillator), or
    the folded sinc block E (grid); then each angle is one
    _top_singular_value call on that angle's product.  Every angle, t and
    the dimension n are checked before any work, each angle a finite real
    number first; t feeds only the grid aliasing check.
    """
    for alpha in alphas:
        if not (math.pi / 2.0 < _finite_real(alpha, "alpha") <= math.pi):
            raise ValueError("alpha must lie in (pi/2, pi]")
    t = _positive_horizon(t)
    n, x = _grid_points(scheme, n)
    _warn_if_aliased(x, t, stacklevel=4)
    if x is None:
        v, norms, _ = _hermite_levels(_hermite_nodes(n), n)
        u = (v[0::2] * (2.0 / norms)) @ v[1::2].T  # sgn(q)[0::2, 1::2]
        return [_top_singular_value(_oscillator_product(u, alpha), u.shape)
                for alpha in alphas]
    # basis (e_j -+ e_{N-1-j})/sqrt 2 for j < N/2, then the centre point
    e = _grid_block(x)
    return [_top_singular_value(_grid_product(e, x, alpha), e.shape)
            for alpha in alphas]


def sign_sum_norm(scheme: str, n: int) -> float:
    """Norm of the sum of the three positive spectral projections.

    Equals (3 + lambda_max(sgn P + sgn Q + sgn R)) / 2 by the operator
    identity Pi = (1 + sgn)/2; converges to about 2.128, strictly below
    3 at every truncation.  This is the reported-constant normalization
    consumed by the obstruction arithmetic.
    """
    return (3.0 + lemma23_value(TWO_THIRDS_PI, 0.5, n, scheme)) / 2.0


def lemma23_value(alpha: float, t: float, n: int,
                  scheme: str = "oscillator") -> float:
    """Raw sign-sum norm of the angle-alpha triple built on (Q_t, P_t).

    || sgn Q_t + sgn(Q_t cos a + P_t sin a) + sgn(Q_t cos a - P_t sin a) ||
    for alpha in (pi/2, pi].  Positive scalings are absorbed by sgn, so
    the value does not depend on t; at alpha = pi the rotated terms both
    reduce to -sgn Q_t and the value drops to 1.  At alpha = 2 pi / 3 the
    three operators are the symmetric triple.

    The kernel builds natural-unit blocks, so the value is exactly
    t-invariant; t only feeds the grid aliasing check.  n is a whole
    number of at least 2, checked before any work; a whole float gives
    the bits of the int it equals.
    """
    return _sign_sum_values(scheme, n, (alpha,), t)[0]


def coherent_vector(zeta: complex, t: float, n: int) -> np.ndarray:
    """Number-basis coefficients beta^k / sqrt(k!), beta = zeta sqrt(t).

    Unnormalized; the squared norm is exp(|zeta|^2 t), matching the
    exponential-vector inner product.  Requires the truncated tail mass
    exp(-|beta|^2) sum_{k>=n} |beta|^{2k}/k! to be at most 1e-10.
    ValueError unless zeta is finite and n a whole number of at least 1.
    """
    t = _positive_horizon(t)
    beta = _finite_amplitude(zeta) * math.sqrt(t)
    n = _check_count(n, "n")
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    tail = 0.0
    if beta != 0.0:
        k = np.arange(n)
        logmag = k * math.log(abs(beta)) - 0.5 * np.array(
            [math.lgamma(i + 1) for i in range(n)])
        v = np.exp(logmag) * np.exp(1j * np.angle(beta) * k)
        # Poisson(|beta|^2) tail mass beyond the truncation,
        # 1 - exp(-|beta|^2) ||v||^2, summed in logs so it cannot overflow
        tail = 1.0 - float(np.sum(np.exp(2.0 * logmag - abs(beta) ** 2)))
    if tail > 1e-10:
        raise ValueError(f"truncated tail mass {tail:.2e} exceeds 1e-10; "
                         "increase n")
    return v


def sgn_expectation(a: np.ndarray, v: np.ndarray) -> float:
    """<sgn(a) v, v>, not normalized by ||v||^2, for a Hermitian a
    (require_hermitian) and a finite nonzero vector v (_finite_array) of
    its dimension."""
    a, v = require_hermitian(a), _finite_array(v, "v")
    if v.shape != a.shape[:1] or not v.any():
        raise ValueError("v must be a nonzero vector of a's dimension")
    return float(np.real(v.conj() @ (sgn_op(a) @ v)))


@dataclass(frozen=True)
class StudyRow:
    scheme: str
    n: int
    alpha: float
    t: float
    value: float
    seconds: float
    delta: float | None  # successive difference within (scheme, alpha)


def convergence_study(schemes, n_list, alpha_list=(TWO_THIRDS_PI,),
                      t: float = 0.5) -> list[StudyRow]:
    """Projection-normalized sign-sum constant across truncations.

    value = (3 + lemma23_value(alpha)) / 2 per row; rows carry wall time
    and the successive difference along ascending N at fixed
    (scheme, alpha), ordered by scheme, then angle, then N.  Each
    (scheme, N) is one kernel call for all the angles, so its wall time
    is split evenly across them: the seconds of a row are that call's
    time over the number of angles.  Every input is checked before any
    work starts: each angle, a finite real number, each scheme and each
    N, a whole number of at least 2.
    """
    if isinstance(schemes, str):
        schemes = (schemes,)
    n_list = list(n_list)
    alphas = [_finite_real(a, "alpha") for a in alpha_list]
    if not schemes or not n_list or not alphas:
        raise ValueError("schemes, n_list and alpha_list must be nonempty")
    for scheme in schemes:  # each name and each N, before any kernel
        n_list = [_grid_points(scheme, n)[0] for n in n_list]
    if n_list != sorted(n_list):
        raise ValueError("n_list must be ascending")
    rows: list[StudyRow] = []
    for scheme in schemes:
        per_n = []  # (values per angle, seconds per angle) for each N
        for n in n_list:
            t0 = time.perf_counter()
            raw = _sign_sum_values(scheme, n, alphas, t)
            share = (time.perf_counter() - t0) / len(alphas)
            per_n.append(([(3.0 + v) / 2.0 for v in raw], share))
        for i, alpha in enumerate(alphas):
            prev = None
            for n, (values, share) in zip(n_list, per_n):
                delta = None if prev is None else values[i] - prev
                rows.append(StudyRow(scheme, n, alpha, float(t),
                                     values[i], share, delta))
                prev = values[i]
    return rows


def _write_csv(path, header: str, rows) -> None:
    """The one writer of the CSV artifacts: the header line, then one line
    per field list of rows, str and int fields as they are and floats to
    12 significant digits; UTF-8, LF line ends."""
    lines = [header] + [
        ",".join(str(x) if isinstance(x, (str, int))
                 else format(float(x), ".12g") for x in fields)
        for fields in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_norm_study_csv(rows, path, wall_time: bool = False) -> None:
    """Emit the study as CSV under NORM_STUDY_HEADER, written by
    _write_csv (UTF-8, LF, 12 significant digits).

    The seconds column is written as 0 unless wall_time is set, keeping
    the artifact byte-identical across reruns of the same configuration.
    """
    _write_csv(path, NORM_STUDY_HEADER,
               ([r.scheme, r.n, r.alpha, r.t, r.value,
                 r.seconds if wall_time else 0.0] for r in rows))
