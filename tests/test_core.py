"""Checks of the split-signature linear algebra primitives."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcal import core
from lagcal.core import (
    NULL_PLANE_BASIS,
    DegenerateInput,
    DimensionMismatch,
    Signature,
    apply_J,
    circ_dist,
    circ_mean,
    circ_spread,
    frame_quantities,
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
    assert frame_quantities(frame, Signature(1, 3))["defect"] < 1e-15


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
    # only the norm-40 matrices run degree 13, are scaled and are squared back
    a = with_norm1(a, np.array([1e-3, 40.0] * 4))
    assert_close_to_expm(matrix_exp(a), a)


def test_matrix_exp_of_a_stacked_matrix_does_not_depend_on_the_stack():
    # norms in every degree band and above theta_13 (scaled by 2^1 .. 2^4):
    # each matrix's degree follows its own norm, and each matrix's products
    # sum in the same order in a group of any size, so a stacked matrix is
    # bit for bit its single-matrix exponential at every n
    rng = np.random.default_rng(11)
    norms = np.array([1e-3, 0.1, 0.5, 1.5, 4.0, 8.0, 20.0, 40.0, 60.0, 2.0])
    for n in (3, 1, 2, 4, 5):
        a = with_norm1(rng.normal(size=(10, n, n)) + 1j * rng.normal(size=(10, n, n)), norms)
        stacked = matrix_exp(a)
        for k in range(len(a)):
            assert np.array_equal(stacked[k], matrix_exp(a[k])), (n, norms[k])
        assert np.array_equal(matrix_exp(a.reshape(2, 5, n, n)), stacked.reshape(2, 5, n, n)), n
        assert_close_to_expm(stacked, a)


def mixed_degree_stack():
    """10^4 + 3 matrices with norms log-spaced over every degree band and up
    to 2^6 theta_13, so blocks mix degrees 3 to 13 and the scaled rows are
    squared back."""
    rng = np.random.default_rng(12)
    k = 10**4 + 3
    norms = rng.permutation(np.geomspace(1e-3, 64 * PADE_THETAS[13], k))
    a = with_norm1(rng.normal(size=(k, 3, 3)) + 1j * rng.normal(size=(k, 3, 3)), norms)
    assert all(np.any(norms <= theta) for theta in PADE_THETAS.values())
    assert np.any(norms > 4 * PADE_THETAS[13])
    return a


@pytest.mark.parametrize("block", [7, 10**6])
def test_matrix_exp_does_not_depend_on_the_block_size(monkeypatch, block):
    a = mixed_degree_stack()
    single = a[len(a) // 2]
    expected = matrix_exp(a), matrix_exp(a[:10].reshape(2, 5, 3, 3)), matrix_exp(single)
    monkeypatch.setattr(core, "STACK_BLOCK", block)
    got = matrix_exp(a), matrix_exp(a[:10].reshape(2, 5, 3, 3)), matrix_exp(single)
    for e, g in zip(expected, got):
        assert g.shape == e.shape and np.array_equal(g, e)


@pytest.mark.parametrize("block", [None, 7])
def test_matrix_exp_into_out_equals_a_fresh_result(monkeypatch, block):
    # out=a overwrites each block while later degree groups of it are still
    # to be read; a separate out and a single matrix must match as well
    a = mixed_degree_stack()
    expected = matrix_exp(a)
    if block is not None:
        monkeypatch.setattr(core, "STACK_BLOCK", block)
    inplace = a.copy()
    assert matrix_exp(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, expected)
    out = np.empty_like(a)
    assert matrix_exp(a, out=out) is out
    assert np.array_equal(out, expected)
    single = a[3].copy()
    assert np.array_equal(matrix_exp(single, out=single), expected[3])


def test_matrix_exp_rejects_a_bad_out():
    a = mixed_degree_stack()[:10]
    bad_outs = {
        "complex64": np.zeros(a.shape, np.complex64),
        "float64": np.zeros(a.shape),
        "shape": np.zeros((10, 9), complex),
        "stack shape": np.zeros((2, 5, 3, 3), complex),
        "strided": np.zeros((20, 3, 3), complex)[::2],
        "Fortran order": np.zeros(a.shape, complex, order="F"),
    }
    for name, out in bad_outs.items():
        with pytest.raises(DimensionMismatch, match="out must be"):
            matrix_exp(a, out=out)
        assert not np.any(out), name  # nothing written


@pytest.mark.filterwarnings("error")
def test_matrix_exp_rejects_non_finite_input_before_writing_its_block(monkeypatch):
    # each bad matrix sits in the second block of 7; the first block is
    # written, the bad block and the ones after it are not, and no
    # RuntimeWarning is raised on the way
    bad_matrices = {
        "inf entry": ([[np.inf]], "non-finite"),
        "nan entry": ([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
        "1-norm overflows": ([[1e308, 0.0], [1e308, 1.0]], "non-finite"),
        "exponential overflows": ([[1e308, 1e308], [0.0, 1.0]], "overflows"),
    }
    monkeypatch.setattr(core, "STACK_BLOCK", 7)
    rng = np.random.default_rng(15)
    for name, (bad, message) in bad_matrices.items():
        bad = np.array(bad, dtype=complex)
        with pytest.raises(DegenerateInput, match=message):
            matrix_exp(bad)
        n = len(bad)
        a = 0.1 * (rng.normal(size=(20, n, n)) + 1j * rng.normal(size=(20, n, n)))
        a[10] = bad
        out = np.zeros_like(a)
        with pytest.raises(DegenerateInput, match=message):
            matrix_exp(a, out=out)
        assert np.array_equal(out[:7], matrix_exp(a[:7])), name
        assert not np.any(out[7:]), name


def traced_peak(call, *args):
    """Largest number of bytes held by allocations (NumPy's included) during call(*args)."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_exp_peak_memory_follows_the_block_not_the_stack():
    rng = np.random.default_rng(13)
    sig = Signature(1, 3)
    c = rng.uniform(-0.5, 0.5, (10**5, 3, 3)) + 1j * rng.uniform(-0.5, 0.5, (10**5, 3, 3))
    a = sig.eps[:, None] * (c - c.conj().swapaxes(-1, -2)) / 2.0
    out, peak = traced_peak(matrix_exp, a)
    assert peak <= 2 * out.nbytes, peak / out.nbytes


def test_frame_quantities_peak_memory_follows_the_block_not_the_stack():
    rng = np.random.default_rng(14)
    sig = Signature(1, 3)
    frames = rng.normal(size=(10**5, 3, 3)) + 1j * rng.normal(size=(10**5, 3, 3))
    _, peak = traced_peak(frame_quantities, frames, sig)
    assert peak <= frames.nbytes, peak / frames.nbytes


def whole_stack_pseudo_unitary(rng, sig, count=None):
    """The sampler's formula on the whole stack at once, without blocks."""
    shape = (sig.n, sig.n) if count is None else (count, sig.n, sig.n)
    c = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    s = (c - c.conj().swapaxes(-1, -2)) / 2.0
    return matrix_exp(sig.eps[:, None] * s)


@pytest.mark.parametrize("p, n", [(0, 1), (1, 3), (2, 4)])
def test_pseudo_unitary_sample_equals_the_whole_stack_formula(p, n):
    # two full blocks and a ragged one of 5, then a single matrix from the
    # same generator, so the draws must also be consumed in the same order
    sig = Signature(p, n)
    count = 2 * core.STACK_BLOCK + 5
    expected_rng, rng = np.random.default_rng(15), np.random.default_rng(15)
    expected = whole_stack_pseudo_unitary(expected_rng, sig, count)
    expected_single = whole_stack_pseudo_unitary(expected_rng, sig)
    got = pseudo_unitary_sample(rng, sig, count)
    got_single = pseudo_unitary_sample(rng, sig)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    assert got_single.shape == (n, n) and np.array_equal(got_single, expected_single)
    assert rng.uniform() == expected_rng.uniform()


def test_pseudo_unitary_sample_peak_memory_is_about_its_result():
    # the draws and the generators are one complex array, exponentiated in
    # place; the rest is one block of temporaries
    rng = np.random.default_rng(19)
    u, peak = traced_peak(pseudo_unitary_sample, rng, Signature(1, 3), 10**5)
    assert peak <= 1.25 * u.nbytes, peak / u.nbytes


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
