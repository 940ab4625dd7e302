"""Checks of the split-signature linear algebra primitives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcal.core import (
    NULL_PLANE_BASIS,
    DegenerateInput,
    DimensionMismatch,
    Signature,
    apply_J,
    circ_dist,
    circ_mean,
    circ_spread,
    frame_defect,
    herm_form,
    herm_gram,
    hol_volume,
    matrix_exp,
    metric,
    plane_props,
    pseudo_unitary_sample,
    random_complex_plane,
    random_lagrangian_plane,
    random_plane,
    random_totally_null_plane,
    special_orthogonal_sample,
    spans_equal,
    symplectic,
    symplectic_orthogonal,
    wrap_angle,
)

SIG12 = Signature(1, 2)
E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def cvec2(draw_re, draw_im):
    return np.array([draw_re[0] + 1j * draw_im[0], draw_re[1] + 1j * draw_im[1]])


cvec_strategy = st.builds(
    cvec2,
    st.tuples(finite, finite),
    st.tuples(finite, finite),
)


def test_signature_validation():
    assert np.allclose(Signature(1, 3).eps, [-1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        Signature(3, 2)
    with pytest.raises(DimensionMismatch):
        Signature(0, 0)


def test_signature_eps_is_shared_and_read_only():
    eps = Signature(1, 3).eps
    with pytest.raises(ValueError):
        eps[0] = 1.0
    np.testing.assert_array_equal(Signature(1, 3).eps, eps)
    np.testing.assert_array_equal(eps, [-1.0, 1.0, 1.0])


def test_herm_form_frozen_values():
    assert herm_form(E1, E1, SIG12) == pytest.approx(-1.0)
    assert herm_form(E2, E2, SIG12) == pytest.approx(1.0)
    # -1 * 0 + i * 1
    assert herm_form(np.array([1.0, 1.0j]), E2, SIG12) == pytest.approx(1.0j)


def test_herm_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        herm_form(np.ones(3), np.ones(3), SIG12)


@given(cvec_strategy, cvec_strategy)
def test_herm_form_conjugate_symmetric(z, w):
    assert herm_form(w, z, SIG12) == pytest.approx(np.conj(herm_form(z, w, SIG12)))


def test_metric_symplectic_frozen_values():
    assert metric(E1, apply_J(E1), SIG12) == 0.0
    assert symplectic(E1, apply_J(E1), SIG12) == pytest.approx(-1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert symplectic(z, z, SIG12) == pytest.approx(0.0, abs=1e-14)


def test_apply_j_basics():
    assert np.allclose(apply_J(E1), 1j * E1)
    rng = np.random.default_rng(1)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(apply_J(apply_J(z)), -z)


@given(cvec_strategy, cvec_strategy)
def test_j_is_isometry(x, y):
    assert metric(apply_J(x), apply_J(y), SIG12) == pytest.approx(metric(x, y, SIG12), abs=1e-10)


@given(cvec_strategy, cvec_strategy)
def test_symplectic_is_metric_of_j(z, w):
    assert symplectic(z, w, SIG12) == pytest.approx(metric(apply_J(z), w, SIG12), abs=1e-10)


def test_reconstruction_identity():
    rng = np.random.default_rng(2)
    for p, n in [(0, 1), (1, 2), (2, 3), (1, 4)]:
        sig = Signature(p, n)
        basis = np.eye(n, dtype=complex)
        for _ in range(10):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            rebuilt = sum(
                sig.eps[j] * herm_form(z, basis[j], sig) * basis[j] for j in range(n)
            )
            assert np.allclose(rebuilt, z, atol=1e-12)


def test_hol_volume_frozen_values():
    eye = np.eye(3, dtype=complex)
    assert hol_volume(eye) == pytest.approx(1.0)
    swapped = eye[[1, 0, 2]]
    assert hol_volume(swapped) == pytest.approx(-1.0)
    theta = 0.7
    scaled = eye.copy()
    scaled[0] *= np.exp(1j * theta)
    assert hol_volume(scaled) == pytest.approx(np.exp(1j * theta))


def test_hol_volume_alternating_and_linear():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lam = 0.4 - 1.3j
    g = f.copy()
    g[1] *= lam
    assert hol_volume(g) == pytest.approx(lam * hol_volume(f))
    h = f.copy()
    h[[0, 2]] = h[[2, 0]]
    assert hol_volume(h) == pytest.approx(-hol_volume(f))


def test_frame_defect_real_frame_is_zero():
    rng = np.random.default_rng(4)
    frame = rng.uniform(-1, 1, (3, 3)).astype(complex)
    assert frame_defect(frame, Signature(1, 3)) < 1e-15


def test_wrap_angle_and_circ_dist():
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert circ_dist(0.1, 2 * np.pi + 0.1) == pytest.approx(0.0, abs=1e-12)
    assert circ_dist(-3.0, 3.0) == pytest.approx(2 * np.pi - 6.0)


def test_circ_mean_rejects_balanced_angles():
    assert circ_mean([0.1, 0.3, 2 * np.pi + 0.2]) == pytest.approx(0.2)
    balanced = np.arange(8) * (np.pi / 4.0)
    with pytest.raises(DegenerateInput):
        circ_mean(balanced)
    with pytest.raises(DegenerateInput):
        circ_spread(balanced)


# --- matrix exponential ------------------------------------------------------

def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.allclose(matrix_exp(a), scipy.linalg.expm(a), atol=1e-12)


def test_matrix_exp_nilpotent_block():
    # Non-diagonalizable input must still be exact.
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    expected = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(matrix_exp(a), expected, atol=1e-15)


def test_matrix_exp_batched_matches_loop():
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    batch[0] *= 40.0  # force differing squaring depths within the batch
    out = matrix_exp(batch)
    for k in range(batch.shape[0]):
        assert np.allclose(out[k], scipy.linalg.expm(batch[k]), atol=1e-10)


# Higham (2005), table 2.3: largest 1-norm for each Pade degree m.
PADE_THETAS = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}


def with_norm1(a, target):
    """a rescaled to 1-norm target (largest absolute column sum)."""
    return a * (target / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]


def assert_close_to_expm(out, a, rel=1e-12):
    ref = np.array([scipy.linalg.expm(m) for m in a.reshape(-1, *a.shape[-2:])]).reshape(a.shape)
    err = np.linalg.norm(out - ref, axis=(-2, -1))
    assert np.all(err <= rel * np.linalg.norm(ref, axis=(-2, -1))), err.max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", sorted(PADE_THETAS))
def test_matrix_exp_at_each_degree_threshold(m, n):
    # just below theta_m runs degree m; just above, the next degree (scaled at m = 13)
    rng = np.random.default_rng(100 * m + n)
    base = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        a = with_norm1(base, factor * PADE_THETAS[m])
        assert_close_to_expm(matrix_exp(a), a)
        assert_close_to_expm(matrix_exp(a[0]), a[0])


def test_matrix_exp_scales_each_matrix_of_a_mixed_stack():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
    # the norm-40 matrices put the whole stack on degree 13; only they are
    # scaled, and only they are squared back
    a = with_norm1(a, np.array([1e-3, 40.0] * 4))
    assert_close_to_expm(matrix_exp(a), a)


def test_pseudo_unitary_stack_preserves_form():
    rng = np.random.default_rng(10)
    sig = Signature(1, 3)
    u = pseudo_unitary_sample(rng, sig, 10_000)
    form = u.conj().swapaxes(-1, -2) @ (sig.eps[:, None] * u)
    assert np.abs(form - np.diag(sig.eps)).max() <= 1e-12


def test_pseudo_unitary_preserves_form():
    rng = np.random.default_rng(7)
    for p, n in [(0, 2), (1, 2), (2, 3)]:
        sig = Signature(p, n)
        u = pseudo_unitary_sample(rng, sig)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert herm_form(u @ z, u @ w, sig) == pytest.approx(herm_form(z, w, sig), abs=1e-10)


def test_special_orthogonal_preserves_real_form():
    rng = np.random.default_rng(8)
    sig = Signature(1, 3)
    a = special_orthogonal_sample(rng, sig)
    assert np.allclose(a.T @ np.diag(sig.eps) @ a, np.diag(sig.eps), atol=1e-12)
    assert np.linalg.det(a) == pytest.approx(1.0)


# --- planes -------------------------------------------------------------------

def test_symplectic_orthogonal_of_real_plane_is_itself():
    plane = np.stack([E1, E2])
    orth = symplectic_orthogonal(plane, SIG12)
    assert spans_equal(orth, plane)


def test_symplectic_orthogonal_of_complex_line():
    plane = np.stack([E1, apply_J(E1)])
    orth = symplectic_orthogonal(plane, SIG12)
    assert spans_equal(orth, np.stack([E2, apply_J(E2)]))


def test_symplectic_orthogonal_rejects_degenerate_plane():
    with pytest.raises(DegenerateInput):
        symplectic_orthogonal(np.stack([E1, 2.0 * E1]), SIG12)


def test_symplectic_orthogonal_is_involution():
    rng = np.random.default_rng(9)
    for _ in range(50):
        plane = random_plane(rng)
        twice = symplectic_orthogonal(symplectic_orthogonal(plane, SIG12), SIG12)
        assert spans_equal(twice, plane)


def test_null_plane_characterization_both_directions():
    rng = np.random.default_rng(10)
    for _ in range(50):
        plane = random_totally_null_plane(rng, SIG12)
        assert plane_props(plane, SIG12).totally_null
        assert spans_equal(apply_J(plane), symplectic_orthogonal(plane, SIG12))
    for _ in range(200):
        plane = random_plane(rng)
        null = plane_props(plane, SIG12).totally_null
        match = spans_equal(apply_J(plane), symplectic_orthogonal(plane, SIG12))
        assert null == match


def test_plane_props_frozen_examples():
    props = plane_props(np.stack([E1, E2]), SIG12)
    assert (props.totally_null, props.lagrangian, props.complex_line) == (False, True, False)
    props = plane_props(NULL_PLANE_BASIS, SIG12)
    assert (props.totally_null, props.lagrangian, props.complex_line) == (True, False, False)
    props = plane_props(np.stack([E2, apply_J(E2)]), SIG12)
    assert (props.totally_null, props.lagrangian, props.complex_line) == (False, False, True)


def test_two_of_three_on_random_planes():
    rng = np.random.default_rng(11)
    planes = []
    for _ in range(250):
        planes.append(random_plane(rng))
    for _ in range(250):
        planes.append(random_totally_null_plane(rng, SIG12))
    for _ in range(250):
        planes.append(random_lagrangian_plane(rng, SIG12))
    for _ in range(125):
        planes.append(random_complex_plane(rng))
    for _ in range(125):
        planes.append(random_complex_plane(rng, null=True, sig=SIG12))
    for plane in planes:
        props = plane_props(plane, SIG12, tol=1e-8)
        flags = (props.totally_null, props.lagrangian, props.complex_line)
        if sum(flags) >= 2:
            assert sum(flags) == 3


def test_null_complex_lines_carry_all_three_flags():
    rng = np.random.default_rng(12)
    for _ in range(50):
        plane = random_complex_plane(rng, null=True, sig=SIG12)
        props = plane_props(plane, SIG12, tol=1e-8)
        assert props.totally_null and props.lagrangian and props.complex_line


def test_lagrangian_frames_have_gram_identity_with_signs():
    # The Hermitian Gram of a Lagrangian frame is real and expands as
    # sum_l eps_l M_jl conj(M_kl) with M_jl = <<X_j, e_l>>; dropping the
    # sign factors (or the conjugation) breaks the identity once p > 0,
    # although |det| is unaffected because |det diag(eps)| = 1.
    rng = np.random.default_rng(13)
    sig = Signature(1, 3)
    real_rows = rng.uniform(-1, 1, (3, 3)).astype(complex)
    frame = real_rows @ pseudo_unitary_sample(rng, sig).T
    gram = herm_gram(frame, sig)
    m = frame * sig.eps
    assert np.allclose(gram.imag, 0.0, atol=1e-12)
    with_signs = (m * sig.eps) @ m.conj().T
    assert np.allclose(gram, with_signs, atol=1e-12)
    without_signs = m @ m.T
    assert not np.allclose(gram, without_signs, atol=1e-6)
    assert abs(np.linalg.det(with_signs)) == pytest.approx(abs(np.linalg.det(m @ m.conj().T)), rel=1e-10)


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_spans_equal_invariant_under_basis_change(seed):
    rng = np.random.default_rng(seed)
    plane = random_plane(rng)
    mixed = np.array([[2.0, 1.0], [0.5, -1.5]]) @ plane
    assert spans_equal(plane, mixed)
    assert not spans_equal(plane, plane + np.array([[0, 10.0], [0, 0]]))
