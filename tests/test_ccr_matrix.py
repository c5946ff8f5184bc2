import math
import tracemalloc
import warnings

import numpy as np
import pytest

from splitnoise import ccr_matrix
from splitnoise.ccr_matrix import (
    GridAliasingWarning,
    NORM_STUDY_HEADER,
    build_pair,
    coherent_vector,
    convergence_study,
    lemma23_value,
    position_momentum,
    require_hermitian,
    sgn_expectation,
    sgn_op,
    sign_sum_norm,
    symmetric_triple,
    write_norm_study_csv,
)
from splitnoise.ccr_matrix import (
    _grid_block,
    _hermite_levels,
    _hermite_nodes,
    _natural_pair,
    _sign_sum_values,
    _top_singular_value,
)
from splitnoise.gaussian_algebra import span_inner, unit


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def vacuum(pair):
    """Ground-state vector of the pair's underlying oscillator, unit norm:
    the first basis vector, or the sampled Gaussian on the grid."""
    if pair.x is None:
        e0 = np.zeros(len(pair.Q))
        e0[0] = 1.0
        return e0
    return ccr_matrix._grid_vacuum(pair.x)


def _dense_lemma23(alpha, t, n, scheme):
    """Dense oracle for lemma23_value: three N x N sgn_op calls and the
    eigenvalues of their sum."""
    pair = build_pair(scheme, n, t)
    c, s = math.cos(alpha), math.sin(alpha)
    total = (sgn_op(pair.Q)
             + sgn_op(c * pair.Q + s * pair.P)
             + sgn_op(c * pair.Q - s * pair.P))
    w = np.linalg.eigvalsh(total)
    return float(max(-w[0], w[-1]))


def _polar(b):
    """Polar factor W V^* of b = W Sigma V^* (thin SVD); for a full-rank
    rectangular b it vanishes on the complement of b's range."""
    w, _, vh = np.linalg.svd(b, full_matrices=False)
    return w @ vh


def _oscillator_sign_block(n):
    """sgn(q)[0::2, 1::2] from the Gauss-Hermite nodes, as the kernel
    builds it: with the levels v_j of _hermite_levels at the positive
    nodes and columns normalized, the block is 2 Psi_even Psi_odd^T, and
    for odd n the zero node drops out."""
    v, norms, _ = _hermite_levels(_hermite_nodes(n), n)
    return (v[0::2] * (2.0 / norms)) @ v[1::2].T


def _dense_top_singular_value(m):
    """_top_singular_value run on the products of the dense matrix m."""
    return _top_singular_value(lambda z, t: (m.T if t else m) @ z, m.shape)


def _odd_kernel_vector(n):
    """Kernel vector of the odd-n position matrix q: zero on odd levels,
    z_{j+1} = -sqrt(j / (j + 1)) z_{j-1} on even ones."""
    z = np.zeros(n)
    z[0] = 1.0
    for j in range(1, n - 1, 2):
        z[j + 1] = -math.sqrt(j / (j + 1)) * z[j - 1]
    return z / np.linalg.norm(z)


# --- build_pair ---------------------------------------------------------

def test_oscillator_pair_n2_hand_value():
    t = 0.7
    pair = build_pair("oscillator", 2, t)
    s = math.sqrt(t)
    assert np.allclose(pair.Q, [[0.0, s], [s, 0.0]], atol=1e-14)


def test_vacuum_second_moment_oscillator():
    for t in (0.25, 1.0, 2.0):
        pair = build_pair("oscillator", 64, t)
        v = vacuum(pair)
        mom = float(np.real(v @ (pair.Q @ (pair.Q @ v))))
        assert mom == pytest.approx(t, abs=1e-12)


def test_commutator_defect_rank_one_oscillator():
    n, t = 48, 0.6
    pair = build_pair("oscillator", n, t)
    D = pair.P @ pair.Q - pair.Q @ pair.P + 2j * t * np.eye(n)
    # annihilates everything orthogonal to the top basis vector
    for j in range(n - 1):
        e = np.zeros(n)
        e[j] = 1.0
        assert np.linalg.norm(D @ e) <= 1e-10
    e_top = np.zeros(n)
    e_top[-1] = 1.0
    assert np.linalg.norm(D @ e_top) == pytest.approx(2 * t * n, rel=1e-12)


def test_grid_commutator_defect_rank_one_at_alternating_vector():
    n = 32
    pair = build_pair("grid", n, 0.5)
    D = pair.P @ pair.Q - pair.Q @ pair.P + 2j * pair.t * np.eye(n)
    u = (-1.0) ** np.arange(n)
    # [p, q] = -i (I - u u^T) on the grid, so D = 2 t i u u^T exactly
    assert np.abs(D - 2j * pair.t * np.outer(u, u)).max() <= 1e-10
    for v in np.eye(n)[:4] - np.eye(n)[2:6]:  # a few vectors orthogonal to u
        if abs(v @ u) < 1e-12:
            assert np.linalg.norm(D @ v) <= 1e-10


def test_grid_q_diagonal_and_sign_diagonal():
    pair = build_pair("grid", 64, 0.5)
    assert np.abs(pair.Q - np.diag(np.diag(pair.Q))).max() == 0.0
    s = sgn_op(pair.Q)
    assert np.abs(s - np.diag(np.diag(s))).max() <= 1e-12


def test_grid_vacuum_moment_within_aliasing_threshold():
    # |<vac| Q^2 |vac> - t|, from the dense Q rather than from the points
    pair = build_pair("grid", 256, 2.0)
    v = vacuum(pair)
    moment = float(np.real(v.conj() @ (pair.Q @ (pair.Q @ v))))
    assert abs(moment - pair.t) <= 1e-6


def test_grid_default_window_is_the_balanced_window():
    n = 64
    L = math.sqrt(math.pi * n / 2.0)  # position and momentum cutoffs coincide
    for t in (0.25, 0.5, 2.0):
        pair = build_pair("grid", n, t)
        assert (pair.x[0], pair.x[-1]) == (-L, L)
        assert np.array_equal(pair.Q, math.sqrt(2.0 * t) * np.diag(pair.x))


def test_grid_too_coarse_window_warns():
    # the one window is too coarse at N = 8; the warning names the caller
    with pytest.warns(GridAliasingWarning) as record:
        build_pair("grid", 8, 0.5)
    assert [w.filename for w in record] == [__file__]


def test_lemma23_grid_aliasing_warning():
    # lemma23_value checks the balanced window it builds, as build_pair
    # does, and so does the norm study; both warnings name their caller
    with pytest.warns(GridAliasingWarning) as record:
        lemma23_value(2 * math.pi / 3, 0.5, 8, "grid")
    with pytest.warns(GridAliasingWarning) as study_record:
        convergence_study("grid", [8])
    assert [w.filename for w in (*record, *study_record)] == [__file__] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lemma23_value(2 * math.pi / 3, 0.5, 64, "grid")


def test_build_pair_validation():
    with pytest.raises(ValueError):
        build_pair("oscillator", 1, 1.0)
    with pytest.raises(ValueError):
        build_pair("oscillator", 8, -1.0)
    with pytest.raises(ValueError):
        build_pair("hexagonal", 8, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_time_scale_must_be_positive_and_finite(t, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before t was checked")
    monkeypatch.setattr(np.linalg, "svd", no_work)
    monkeypatch.setattr(ccr_matrix, "_hermite_nodes", no_work)
    calls = [lambda: build_pair("oscillator", 8, t),
             lambda: lemma23_value(2 * math.pi / 3, t, 8),
             lambda: convergence_study("grid", [8], t=t),
             lambda: coherent_vector(0.5, t, 8)]
    for call in calls:
        with pytest.raises(ValueError, match="t must be positive and finite"):
            call()


# --- symmetric triple ---------------------------------------------------

def test_triple_sums_to_zero_exactly():
    tri = symmetric_triple(32)
    assert np.abs(tri.P + tri.Q + tri.R).max() == 0.0


def test_triple_pairwise_commutators_off_corner():
    n = 40
    tri = symmetric_triple(n)
    eye = np.eye(n)
    for a, b in ((tri.P, tri.Q), (tri.Q, tri.R), (tri.R, tri.P)):
        c = a @ b - b @ a + 1j * eye
        c = c.copy()
        c[n - 1, n - 1] = 0.0  # truncation corner
        assert np.abs(c).max() <= 1e-10


def test_triple_r_matches_120_degree_formula():
    n = 24
    tri = symmetric_triple(n)
    q, p = position_momentum(n)
    alpha = math.sqrt(2.0 / math.sqrt(3.0))
    c, s = math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3)
    assert np.abs(tri.R - alpha * (c * q + s * p)).max() <= 1e-12


def test_triple_cyclic_symmetry_of_spectrum():
    # conjugation by the number-basis rotation permutes the triple
    n = 64
    tri = symmetric_triple(n)
    S = sgn_op(tri.P) + sgn_op(tri.Q) + sgn_op(tri.R)
    r = np.exp(1j * 2 * math.pi / 3 * np.arange(n))
    S_rot = (r[:, None] * S) * r.conj()[None, :]
    w1 = np.linalg.eigvalsh(S)
    w2 = np.linalg.eigvalsh(S_rot)
    assert np.abs(w1 - w2).max() <= 1e-8


# --- sgn_op -------------------------------------------------------------

def test_sgn_diagonal_example():
    assert np.allclose(sgn_op(np.diag([3.0, -2.0])), np.diag([1.0, -1.0]))


def test_sgn_scale_invariance():
    rng = np.random.Generator(np.random.Philox(key=3))
    b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    a = b + b.conj().T
    assert np.abs(sgn_op(a) - sgn_op(7.3 * a)).max() <= 1e-10


def test_sgn_commutes_with_argument():
    rng = np.random.Generator(np.random.Philox(key=4))
    b = rng.standard_normal((20, 20))
    a = b + b.T
    s = sgn_op(a)
    assert np.abs(s @ a - a @ s).max() <= 1e-8 * np.abs(a).max()


def test_sgn_eigenvalues_in_three_point_set():
    rng = np.random.Generator(np.random.Philox(key=5))
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    s = sgn_op(b + b.conj().T)
    w = np.linalg.eigvalsh(s)
    assert np.all(np.minimum(np.abs(w), np.abs(np.abs(w) - 1.0)) <= 1e-10)


def test_sgn_zero_eigenvalue_maps_to_zero():
    s = sgn_op(np.diag([2.0, 0.0, -1.0]))
    assert np.allclose(s, np.diag([1.0, 0.0, -1.0]))


def test_sgn_annihilates_odd_n_position_kernel():
    # q's zero eigenvalue comes out of eigh at about 1e-17, not 0
    for n in (63, 65, 129):
        q, _ = position_momentum(n)
        z = _odd_kernel_vector(n)
        assert np.linalg.norm(q @ z) <= 1e-12
        s = sgn_op(q)
        assert np.linalg.norm(s @ z) <= 1e-12
        assert abs(np.trace(s)) <= 1e-12


def test_sgn_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sgn_op(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.zeros((2, 3)))


# --- norms --------------------------------------------------------------

def test_sign_sum_norm_is_projection_normalization():
    hi = lemma23_value(2 * math.pi / 3, 0.5, 128)
    assert sign_sum_norm("oscillator", 128) == pytest.approx((3.0 + hi) / 2.0)


def test_sign_sum_norm_matches_explicit_projection_sum():
    # independent route: eigendecompose the actual projection sum
    n = 96
    tri = symmetric_triple(n)
    eye = np.eye(n)
    proj = sum((eye + sgn_op(a)) / 2.0 for a in (tri.P, tri.Q, tri.R))
    w = np.linalg.eigvalsh(proj)
    assert sign_sum_norm("oscillator", n) == pytest.approx(float(w[-1]), abs=1e-10)
    assert w[0] >= -1e-10  # sum of projections is nonnegative


def test_sign_sum_norm_below_three_both_schemes():
    for scheme in ("oscillator", "grid"):
        for n in (64, 128, 256):
            v = sign_sum_norm(scheme, n)
            assert 0.0 < v < 3.0


def test_sign_sum_norm_unitary_conjugation_invariance():
    n = 64
    tri = symmetric_triple(n)
    rng = np.random.Generator(np.random.Philox(key=11))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    S = sgn_op(tri.P) + sgn_op(tri.Q) + sgn_op(tri.R)
    S2 = (sgn_op(u @ tri.P @ u.conj().T) + sgn_op(u @ tri.Q @ u.conj().T)
          + sgn_op(u @ tri.R @ u.conj().T))
    v1 = max(abs(np.linalg.eigvalsh(S)[0]), np.linalg.eigvalsh(S)[-1])
    v2 = max(abs(np.linalg.eigvalsh(S2)[0]), np.linalg.eigvalsh(S2)[-1])
    assert v1 == pytest.approx(v2, abs=1e-8)


# --- lemma23_value ------------------------------------------------------

def test_lemma23_alpha_pi_collapses_to_one():
    for scheme in ("oscillator", "grid"):
        for n in (32, 64):
            for t in (0.5, 2.0):
                assert lemma23_value(math.pi, t, n, scheme) <= 1.0 + 1e-8


def test_lemma23_at_symmetric_angle_matches_sign_sum():
    n = 128
    raw = lemma23_value(2 * math.pi / 3, 0.5, n)
    tri = symmetric_triple(n)
    w = np.linalg.eigvalsh(sgn_op(tri.P) + sgn_op(tri.Q) + sgn_op(tri.R))
    assert raw == pytest.approx(w[-1], abs=1e-6)
    # projection normalization ties it to the reported constant
    assert (3.0 + raw) / 2.0 == pytest.approx(sign_sum_norm("oscillator", n),
                                              abs=1e-6)


def test_lemma23_t_invariance():
    for scheme in ("oscillator", "grid"):
        vals = [lemma23_value(2.2, t, 48, scheme) for t in (0.25, 0.5, 2.0)]
        assert max(vals) - min(vals) <= 1e-8


def test_lemma23_oscillator_rotation_trick_oracle():
    # e^{i alpha n} q e^{-i alpha n} = q cos alpha + p sin alpha holds
    # exactly in the truncation, giving an independent route
    n, alpha = 96, 2.5
    q, _ = position_momentum(n)
    sq = sgn_op(q).astype(complex)
    k = np.arange(n)
    total = np.zeros((n, n), dtype=complex)
    for ang in (0.0, alpha, -alpha):
        r = np.exp(1j * ang * k)
        total += (r[:, None] * sq) * r.conj()[None, :]
    w = np.linalg.eigvalsh(total)
    oracle = float(max(-w[0], w[-1]))
    assert lemma23_value(alpha, 0.5, n) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("scheme", ["oscillator", "grid"])
def test_lemma23_matches_dense_oracle(scheme):
    worst = 0.0
    for n in (16, 17, 64, 65, 128, 256):
        for alpha in (1.8, 2 * math.pi / 3, 2.9, math.pi):
            for t in (0.25, 2.0):
                gap = abs(lemma23_value(alpha, t, n, scheme)
                          - _dense_lemma23(alpha, t, n, scheme))
                worst = max(worst, gap)
    assert worst <= 1e-12


@pytest.mark.parametrize("scheme", ["oscillator", "grid"])
def test_odd_n_parity_symmetry_and_degenerate_angle(scheme):
    for n in (63, 65, 129):
        # the spectrum edge is exactly -+lemma23_value(2 pi / 3, ...)
        hi = lemma23_value(2 * math.pi / 3, 0.5, n, scheme)
        tri = symmetric_triple(n, scheme)
        w = np.linalg.eigvalsh(sgn_op(tri.P) + sgn_op(tri.Q) + sgn_op(tri.R))
        assert abs(w[0] + hi) <= 1e-12 and abs(w[-1] - hi) <= 1e-12
        for alpha in (2 * math.pi / 3, 2.9, math.pi):
            assert lemma23_value(alpha, 0.5, n, scheme) == pytest.approx(
                _dense_lemma23(alpha, 0.5, n, scheme), abs=1e-12)
        assert lemma23_value(math.pi, 0.5, n, scheme) <= 1.0 + 1e-8


def test_lemma23_rejects_bad_alpha():
    for alpha in (0.5, math.pi / 2, 3.5):
        with pytest.raises(ValueError):
            lemma23_value(alpha, 0.5, 16)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 64, 65])
def test_kernel_blocks_equal_dense_pair_blocks(n):
    # the grid block folds the top k rows of the sinc derivative -i p
    _, p, x = _natural_pair("grid", n)
    k = n // 2
    top = -p.imag[:k]
    folded = top[:, :k] + top[:, ::-1][:, :k]
    if n % 2:
        folded = np.hstack([folded, math.sqrt(2.0) * top[:, k:k + 1]])
    assert np.array_equal(_grid_block(x), folded)


@pytest.mark.parametrize("shape", [(40, 40), (41, 40), (40, 41), (7, 30)])
def test_gram_top_singular_value_matches_two_norm(shape):
    rng = np.random.Generator(np.random.Philox(key=21))
    m = rng.standard_normal(shape)
    assert _dense_top_singular_value(m) == pytest.approx(
        np.linalg.norm(m, 2), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 64, 65, 1024])
def test_node_sign_block_equals_polar_factor(n):
    # Gauss-Hermite nodes, one Newton step and the recurrence give the
    # polar factor of q's even/odd block without an SVD
    q, _ = position_momentum(n)
    gap = np.abs(_oscillator_sign_block(n) - _polar(q[0::2, 1::2])).max()
    assert gap <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 64, 65, 128, 255, 256])
def test_hermite_nodes_match_hermgauss(n):
    # numpy's Gauss-Hermite rule is an independent oracle for the nodes;
    # for odd n its middle node is the zero node, which is left out
    ref = np.polynomial.hermite.hermgauss(n)[0][n - n // 2:]
    assert np.all(np.abs(_hermite_nodes(n) - ref) <= 2e-15 * ref)


def test_node_sign_block_annihilates_odd_n_kernel():
    # the zero node is left out, so sgn(0) = 0 holds without a tolerance
    for n in (3, 17, 65, 129):
        z = _odd_kernel_vector(n)[0::2]  # zero on the odd levels
        q, _ = position_momentum(n)
        assert np.linalg.norm(q[0::2, 1::2].T @ z) <= 1e-12
        assert np.linalg.norm(_oscillator_sign_block(n).T @ z) <= 1e-13


def test_oscillator_path_calls_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the oscillator kernel took an SVD")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for n in (16, 17, 64):
        assert lemma23_value(2.9, 0.5, n, "oscillator") == pytest.approx(
            _dense_lemma23(2.9, 0.5, n, "oscillator"), abs=1e-12)


def _orthogonal(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


LANCZOS_CASES = {
    "zero": (np.zeros((5, 3)), 0.0),
    # the start vector spans the Krylov space: breakdown at step 1
    "rank_one_start": (np.outer(np.cos(1.234 * np.arange(3) + 0.5),
                                [1.0, -2.0, 0.5, 3.0]),
                       np.linalg.norm(np.cos(1.234 * np.arange(3) + 0.5))
                       * math.sqrt(14.25)),
    # a two-dimensional Krylov space: breakdown at step 2
    "rank_one": (np.outer([1.0, -2.0, 0.5, 3.0, 0.25], [0.3, 0.4, -1.2]),
                 math.sqrt(14.3125) * 1.3),
    "repeated_top": (_orthogonal(6, 5)[:, :4] @ np.diag([3.0, 3.0, 2.0, 1.0])
                     @ _orthogonal(4, 6).T, 3.0),
    "one_by_one": (np.array([[-2.5]]), 2.5),
    "one_row": (np.array([[3.0, 0.0, -4.0]]), 5.0),
    "one_column": (np.array([[3.0], [0.0], [-4.0]]), 5.0),
}


@pytest.mark.parametrize("m, expected", LANCZOS_CASES.values(),
                         ids=LANCZOS_CASES)
def test_lanczos_top_singular_value_edge_cases(m, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _dense_top_singular_value(m)
    assert value == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert value == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("scheme, bound_mib",
                         [("oscillator", 16), ("grid", 30)])
def test_lemma23_peak_memory(scheme, bound_mib):
    # the kernel builds N/2 blocks only: about 8 MiB (oscillator) and
    # 18 MiB (grid) at N = 1024, where the dense pair needed 40 and 48 MiB
    lemma23_value(2.9, 0.5, 64, scheme)  # imports and lazy set-up
    tracemalloc.start()
    try:
        lemma23_value(2.9, 0.5, 1024, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def test_grid_angles_free_their_svd_before_the_next_angle():
    # each angle's B, W and V^* are freed before the next angle's SVD:
    # two angles at N = 1024 peak near 14 MiB, and near 20 MiB when the
    # polar factor is formed, or 22 MiB when one angle's W and V^* are
    # still held during the next angle's SVD
    _sign_sum_values("grid", 64, (2.9,), 0.5)  # imports and lazy set-up
    tracemalloc.start()
    try:
        _sign_sum_values("grid", 1024, (2 * math.pi / 3, 2.9), 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# --- coherent vectors ---------------------------------------------------

def test_coherent_vacuum():
    v = coherent_vector(0.0, 1.0, 8)
    assert np.allclose(v, np.eye(8)[0])


def test_coherent_norm_matches_span_inner():
    zeta, t = 0.9 + 0.4j, 0.7
    v = coherent_vector(zeta, t, 128)
    matrix_side = float(np.real(v.conj() @ v))
    span = unit(0.0, zeta, t)
    span_side = span_inner(span, span).real
    assert matrix_side == pytest.approx(span_side, rel=1e-9)


def test_coherent_position_expectation():
    # tilted Gaussian mean: <Q_t> = 2 t Re zeta on the normalized state
    n, t = 256, 0.8
    pair = build_pair("oscillator", n, t)
    for zeta in (0.5, -0.3 + 0.6j, 1.1j):
        v = coherent_vector(zeta, t, n)
        v = v / np.linalg.norm(v)
        val = float(np.real(v.conj() @ (pair.Q @ v)))
        assert val == pytest.approx(2.0 * t * zeta.real, abs=1e-8)


@pytest.mark.parametrize("zeta", [0.3, 0.9 + 0.4j, -1.1j])
def test_coherent_vector_matches_factorial_formula(zeta):
    n, t = 24, 0.7
    beta = zeta * math.sqrt(t)
    want = np.array([beta ** k / math.sqrt(math.factorial(k))
                     for k in range(n)])
    assert coherent_vector(zeta, t, n) == pytest.approx(want, rel=1e-12, abs=0)


def test_coherent_tail_mass_guard():
    with pytest.raises(ValueError):
        coherent_vector(4.0, 4.0, 16)  # |beta|^2 = 64 needs far more levels


# --- sgn expectations ---------------------------------------------------

def test_sgn_expectation_vacuum_is_zero():
    pair = build_pair("oscillator", 64, 0.5)
    v = vacuum(pair)
    assert abs(sgn_expectation(pair.Q, v)) <= 1e-12


def test_sgn_expectation_coherent_matches_gaussian_cdf():
    n, t = 512, 0.5
    pair = build_pair("oscillator", n, t)
    for zeta in (0.3, 0.8, 1.5):
        v = coherent_vector(zeta, t, n)
        v = v / np.linalg.norm(v)
        target = 2.0 * phi(2.0 * zeta * math.sqrt(t)) - 1.0
        assert sgn_expectation(pair.Q, v) == pytest.approx(target, abs=1e-3)


def test_sgn_expectation_bounded_by_norm_squared():
    rng = np.random.Generator(np.random.Philox(key=77))
    pair = build_pair("oscillator", 32, 1.0)
    for _ in range(5):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert abs(sgn_expectation(pair.Q, v)) <= np.linalg.norm(v) ** 2 + 1e-9


def test_sgn_expectation_validation():
    pair = build_pair("oscillator", 16, 1.0)
    with pytest.raises(ValueError):
        sgn_expectation(pair.Q, np.zeros(16))
    with pytest.raises(ValueError):
        sgn_expectation(pair.Q, np.ones(8))


# --- convergence study and artifact ------------------------------------

def test_convergence_study_rows_and_cauchy_trend():
    rows = convergence_study("oscillator", [64, 128, 256])
    assert [r.n for r in rows] == [64, 128, 256]
    assert rows[0].delta is None
    deltas = [abs(r.delta) for r in rows[1:]]
    assert deltas == sorted(deltas, reverse=True)
    assert all(r.value < 3.0 for r in rows)


def test_convergence_study_rejects_unsorted():
    with pytest.raises(ValueError):
        convergence_study("oscillator", [128, 64])


def test_convergence_study_rejects_empty_lists():
    for args in (((), [16]), ("oscillator", []), ("oscillator", [16], [])):
        with pytest.raises(ValueError, match="nonempty"):
            convergence_study(*args)


def test_convergence_study_equals_single_angle_lemma23():
    alphas = (1.8, 2 * math.pi / 3, math.pi)
    dims = [16, 17, 64, 65]
    for scheme in ("oscillator", "grid"):
        rows = convergence_study(scheme, dims, alphas)
        assert [(r.alpha, r.n) for r in rows] == [(a, n) for a in alphas
                                                  for n in dims]
        for r in rows:
            assert r.value == (3.0 + lemma23_value(r.alpha, 0.5, r.n,
                                                   scheme)) / 2.0


def test_convergence_study_checks_every_angle_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("kernel ran before the angles were checked")
    monkeypatch.setattr(np.linalg, "svd", no_work)
    monkeypatch.setattr(ccr_matrix, "_hermite_nodes", no_work)
    for scheme in ("oscillator", "grid"):
        with pytest.raises(ValueError, match="alpha"):
            convergence_study(scheme, [16, 64], [2.0, 2.9, 0.5])


def test_convergence_study_checks_every_scheme_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("kernel ran before the schemes were checked")
    monkeypatch.setattr(np.linalg, "svd", no_work)
    monkeypatch.setattr(ccr_matrix, "_hermite_nodes", no_work)
    with pytest.raises(ValueError, match="bogus"):
        convergence_study(("oscillator", "bogus"), [16, 64])


def test_norm_study_csv_format(tmp_path):
    rows = convergence_study("oscillator", [16, 32])
    out = tmp_path / "norm_study.csv"
    write_norm_study_csv(rows, out)
    text = out.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == NORM_STUDY_HEADER
    assert lines[0] == "scheme,N,alpha,t,value,seconds"
    assert len(lines) == 4 and lines[-1] == ""
    assert "\r" not in text
    # deterministic seconds column by default
    assert all(ln.endswith(",0") for ln in lines[1:3])


def test_norm_study_csv_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_norm_study_csv(convergence_study("oscillator", [16, 32]), a)
    write_norm_study_csv(convergence_study("oscillator", [16, 32]), b)
    assert a.read_bytes() == b.read_bytes()
