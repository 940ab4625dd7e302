"""Immersion-patch geometry: frames, metric, defect, angle, volume."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from lagcal.core import NULL_PLANE_BASIS, Signature, frame_quantities, herm_gram, hol_volume
from lagcal.curvature import angle_gradient
from lagcal.immersion import (
    BoundaryError,
    DegenerateFrame,
    ImmersionPatch,
    _central_frames,
    _check_point,
    dvol,
    finite_difference_frame,
    induced_metric,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    make_flat_patch,
    metric_signature,
    patch_volume,
    reparametrize,
    second_derivatives,
    tangent_frame,
)


def lagrangian_graph_patch(a=0.4, b=-0.7):
    """Lagrangian graph f(u, v) = (u + i a u^2, v + i b v^2) over the unit box."""
    sig = Signature(0, 2)

    def f(u):
        u = np.asarray(u, dtype=float)
        x, y = u[..., 0], u[..., 1]
        return np.stack([x + 1j * a * x ** 2, y + 1j * b * y ** 2], axis=-1)

    def d1(u):
        rows = np.zeros(u.shape[:-1] + (2, 2), dtype=complex)
        rows[..., 0, 0] = 1 + 2j * a * u[..., 0]
        rows[..., 1, 1] = 1 + 2j * b * u[..., 1]
        return rows

    def d2(u):
        s = np.zeros(u.shape[:-1] + (2, 2, 2), dtype=complex)
        s[..., 0, 0, 0] = 2j * a
        s[..., 1, 1, 1] = 2j * b
        return s

    return ImmersionPatch(sig=sig, domain=[[0.0, 1.0], [0.0, 1.0]], f=f, d1=d1, d2=d2)


def test_flat_patch_basics():
    sig = Signature(1, 3)
    patch = make_flat_patch(sig)
    u = np.array([0.3, 0.5, 0.7])
    assert np.allclose(tangent_frame(patch, u), np.eye(3))
    assert np.allclose(induced_metric(patch, u), np.diag(sig.eps))
    assert lagrangian_defect(patch, u) == 0.0
    assert lagrangian_angle_at(patch, u) == pytest.approx(0.0)
    assert patch_volume(patch, 4) == pytest.approx(1.0)
    assert metric_signature(induced_metric(patch, u)) == (2, 1, 0)


def test_analytic_and_fd_frames_agree():
    patch = lagrangian_graph_patch()
    u = np.array([0.4, 0.6])
    assert np.allclose(tangent_frame(patch, u), finite_difference_frame(patch, u), atol=1e-7)


def test_fd_frame_second_order_convergence():
    patch = lagrangian_graph_patch()
    u = np.array([0.37, 0.52])
    exact = tangent_frame(patch, u)
    errs = []
    for h in (1e-3, 1e-4):
        errs.append(np.max(np.abs(finite_difference_frame(patch, u, step=h) - exact)))
    # central differences: error ratio ~ 100 between consecutive decades
    assert errs[0] < 1e-5
    assert errs[1] < max(1e-2 * errs[0], 5e-11)


def test_fd_second_derivatives_match_analytic():
    patch = lagrangian_graph_patch()
    bare = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
    u = np.array([0.41, 0.63])
    assert np.allclose(second_derivatives(bare, u), second_derivatives(patch, u), atol=1e-6)


def test_boundary_stencil_error():
    patch = lagrangian_graph_patch()
    bare = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
    with pytest.raises(BoundaryError):
        tangent_frame(bare, np.array([0.0, 0.5]))
    # analytic jets are fine on the boundary itself
    tangent_frame(patch, np.array([0.0, 0.5]))


def test_stored_bounds_accept_the_faces_and_name_the_point_outside():
    domain = np.array([[0.0, 1.0], [-2.0, 0.5]])
    patch = dataclasses.replace(lagrangian_graph_patch(), domain=domain)
    domain[0, 0] = 0.5  # the patch keeps its own copy of the box
    np.testing.assert_array_equal(patch.lo, [0.0, -2.0])
    np.testing.assert_array_equal(patch.hi, [1.0, 0.5])
    np.testing.assert_array_equal(patch.widths, [1.0, 2.5])
    for bounds in (patch.domain, patch.lo, patch.hi, patch.widths):
        with pytest.raises(ValueError, match="read-only"):
            bounds[0] = 0.25
    faces = np.array([[0.0, -2.0], [1.0, 0.5], [0.0, 0.5], [1.0, -2.0], [0.3, -2.0], [1.0, 0.1]])
    np.testing.assert_array_equal(_check_point(patch, faces), faces)
    assert tangent_frame(patch, faces).shape == (6, 2, 2)
    for outside in ([1.0 + 1e-12, 0.0], [0.5, -2.0 - 1e-12], [-1e-300, 0.0], [0.5, np.inf]):
        stack = np.array([[0.2, 0.1], outside, [0.9, -1.0]])
        with pytest.raises(BoundaryError, match=re.escape(f"point {stack[1]} outside domain")):
            _check_point(patch, stack)
    # with a margin, the box shrinks by it: the finite-difference frame's stencil
    bare = ImmersionPatch(sig=patch.sig, domain=domain, f=patch.f)
    h = bare.steps(1)
    inner = bare.lo + h
    np.testing.assert_array_equal(finite_difference_frame(bare, inner),
                                  _central_frames(bare, inner, h))
    with pytest.raises(BoundaryError, match=re.escape(f"(margin {h})")):
        finite_difference_frame(bare, bare.lo + h / 2)


def test_one_point_evaluates_its_first_jet_once(family_catalog):
    for name, base in family_catalog:
        calls = Counter()

        def counted(jet, fn):
            def wrapped(u):
                calls[jet] += 1
                return fn(u)
            return wrapped

        patch = dataclasses.replace(base, d1=counted("d1", base.d1), d2=counted("d2", base.d2))
        u = interior_samples(patch, 1, np.random.default_rng(7), margin=0.08)[0]
        for quantity in (lagrangian_angle_at, lagrangian_defect, tangent_frame):
            calls.clear()
            quantity(patch, u)
            assert calls == {"d1": 1}, (name, quantity.__name__)
        calls.clear()
        angle_gradient(patch, u)
        assert calls == {"d1": 5 * patch.n}, name


def test_pointwise_angle_is_the_frame_kernel_beta_to_the_bit(family_catalog):
    rng = np.random.default_rng(11)
    for name, patch in family_catalog:
        for u in interior_samples(patch, 8, rng):
            beta = frame_quantities(tangent_frame(patch, u), patch.sig)["beta"]
            assert lagrangian_angle_at(patch, u) == beta, name


def test_metric_signature_frozen_cases():
    assert metric_signature(np.diag([-1.0, 1.0])) == (1, 1, 0)
    assert metric_signature(np.zeros((3, 3))) == (0, 0, 3)
    gram = herm_gram(NULL_PLANE_BASIS, Signature(1, 2)).real
    assert metric_signature(gram) == (0, 0, 2)


def test_complex_line_patch_defect_is_one():
    sig = Signature(0, 2)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.stack([u[..., 0] + 1j * u[..., 1], np.zeros_like(u[..., 0])], axis=-1)

    patch = ImmersionPatch(sig=sig, domain=[[0, 1], [0, 1]], f=f)
    assert lagrangian_defect(patch, np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-9)


def test_defect_and_dvol_on_stacks_match_the_pointwise_values():
    sig = Signature(1, 2)

    def f(u):
        u = np.asarray(u, dtype=float)
        x, y = u[..., 0], u[..., 1]
        return np.stack([x + 0.3j * x * y, y + 0.2j * x ** 2], axis=-1)

    rng = np.random.default_rng(3)
    for patch in (ImmersionPatch(sig=sig, domain=[[0, 1], [0, 1]], f=f),
                  lagrangian_graph_patch()):
        stack = interior_samples(patch, 6, rng).reshape(2, 3, 2)
        for quantity in (lagrangian_defect, dvol):
            single = quantity(patch, stack[0, 0])
            assert type(single) is float
            stacked = quantity(patch, stack)
            assert stacked.shape == (2, 3)
            pointwise = [[quantity(patch, u) for u in row] for row in stack]
            np.testing.assert_allclose(stacked, pointwise, rtol=1e-13, atol=1e-15)


def test_degenerate_frame_rejected_by_angle():
    sig = Signature(0, 2)

    def f(u):
        u = np.asarray(u, dtype=float)
        s = u[..., 0] + u[..., 1]
        return np.stack([s.astype(complex), s.astype(complex)], axis=-1)

    patch = ImmersionPatch(sig=sig, domain=[[0, 1], [0, 1]], f=f)
    with pytest.raises(DegenerateFrame):
        lagrangian_angle_at(patch, np.array([0.5, 0.5]))


def test_angle_of_a_non_finite_frame_is_named():
    # the last guard against an overflowing frame that a family's build let through
    sig = Signature(0, 2)
    patch = ImmersionPatch(sig=sig, domain=[[0, 1], [0, 1]], f=lambda u: u.astype(complex),
                           d1=lambda u: np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))
    with np.errstate(all="ignore"), pytest.raises(DegenerateFrame, match="not finite"):
        lagrangian_angle_at(patch, np.array([0.5, 0.5]))


def test_dvol_equals_abs_hol_volume_on_lagrangian_patch():
    patch = lagrangian_graph_patch()
    rng = np.random.default_rng(0)
    for u in interior_samples(patch, 20, rng):
        assert lagrangian_defect(patch, u) < 1e-12
        frame = tangent_frame(patch, u)
        assert dvol(patch, u) == pytest.approx(abs(hol_volume(frame)), rel=1e-10)


def test_angle_invariant_under_oriented_reparametrization():
    patch = lagrangian_graph_patch()
    v = np.array([0.45, 0.55])
    oriented = np.array([[1.2, 0.3], [0.1, 0.9]])
    assert np.linalg.det(oriented) > 0
    repar = reparametrize(patch, oriented, np.zeros(2), [[0.0, 0.7], [0.0, 0.8]])
    u = oriented @ v
    assert lagrangian_angle_at(repar, v) == pytest.approx(lagrangian_angle_at(patch, u), abs=1e-9)
    flipped = np.array([[0.0, 1.0], [1.0, 0.0]])
    swap = reparametrize(patch, flipped, np.zeros(2), patch.domain)
    delta = lagrangian_angle_at(swap, v[::-1]) - lagrangian_angle_at(patch, v)
    assert abs(abs(delta) - np.pi) < 1e-9


def test_reparametrized_jets_match_finite_differences():
    patch = lagrangian_graph_patch()
    a = np.array([[0.5, 0.5], [0.5, -0.5]])
    repar = reparametrize(patch, a, np.array([0.5, 0.5]), [[-0.4, 0.4], [-0.4, 0.4]])
    v = np.array([0.1, -0.2])
    assert np.allclose(tangent_frame(repar, v), finite_difference_frame(repar, v), atol=1e-8)
    bare = ImmersionPatch(sig=repar.sig, domain=repar.domain, f=repar.f)
    assert np.allclose(second_derivatives(repar, v), second_derivatives(bare, v), atol=1e-6)


def test_patch_volume_flat_and_vectorized_paths_agree():
    patch = lagrangian_graph_patch()
    analytic = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f, d1=patch.d1)
    fd = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
    v1 = patch_volume(analytic, [16, 16])
    v2 = patch_volume(fd, [16, 16])
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_patch_volume_midpoint_is_second_order():
    patch = lagrangian_graph_patch()
    v1 = patch_volume(patch, 8)
    v2 = patch_volume(patch, 16)
    v3 = patch_volume(patch, 32)
    ratio = (v1 - v2) / (v2 - v3)
    assert 3.4 < ratio < 4.6


def test_interior_samples_respect_margin():
    patch = lagrangian_graph_patch()
    rng = np.random.default_rng(1)
    pts = interior_samples(patch, 200, rng, margin=0.1)
    assert np.all(pts >= 0.1 - 1e-12) and np.all(pts <= 0.9 + 1e-12)
