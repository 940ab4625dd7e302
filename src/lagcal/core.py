"""Linear algebra of the split-signature Hermitian space (C^n, <<.,.>>_p).

The sesquilinear form

    <<z, w>>_p = -sum_{j<p} z_j conj(w_j) + sum_{j>=p} z_j conj(w_j)

(indices 0-based) carries the three structures used throughout the
package: its real part is a flat pseudo-Riemannian metric of signature
(2p, 2(n-p)), its negated imaginary part is the standard symplectic
form, and the canonical complex structure J acts as multiplication
by i.  They are tied together by omega(z, w) = metric(J z, w).

Data conventions: a vector is a complex numpy array of shape (n,), and
herm_form, metric and symplectic broadcast over stacks (..., n) of
them; a frame is an (n, n) complex array whose rows are the frame
vectors; a real 2-plane in C^2 is a (2, 2) complex array whose rows span
it over the reals.  Angles live in R / 2 pi Z and are always compared through
circular distance.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TOL = 1e-9
DEGENERACY_TOL = 1e-9
TINY = np.finfo(float).tiny  # smallest normal double, floor of scale-relative tolerances

# Matrices per block of the stacked kernels (matrix_exp, frame_quantities,
# pseudo_unitary_sample; in calibrate also the frame product and the table
# rows): their temporaries scale with one block, not with the whole stack.
STACK_BLOCK = 2048


class GeometryError(ValueError):
    """Base class for geometric usage errors."""


class DimensionMismatch(GeometryError):
    pass


class DegenerateInput(GeometryError):
    pass


@dataclass(frozen=True)
class Signature:
    """Signature data (p, n): p negative Hermitian directions out of n."""

    p: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"complex dimension must be >= 1, got n={self.n}")
        if not 0 <= self.p <= self.n:
            raise DimensionMismatch(f"need 0 <= p <= n, got p={self.p}, n={self.n}")

    @property
    def eps(self) -> np.ndarray:
        """Sign vector: -1 on the first p axes, +1 on the rest (read-only, shared)."""
        return _sign_vector(self.p, self.n)


@lru_cache(maxsize=64)
def _sign_vector(p: int, n: int) -> np.ndarray:
    eps = np.where(np.arange(n) < p, -1.0, 1.0)
    eps.flags.writeable = False
    return eps


def herm_form(z, w, sig: Signature):
    """The defining pseudo-Hermitian pairing <<z, w>>_p; conjugate-symmetric.

    Broadcasts over the leading axes of z and w (vectors on the last
    axis); a pair of single vectors gives a scalar.
    """
    if np.shape(z)[-1:] != (sig.n,) or np.shape(w)[-1:] != (sig.n,):
        raise DimensionMismatch(f"pairing needs vectors of length {sig.n} on the last axis, "
                                f"got shapes {np.shape(z)} and {np.shape(w)}")
    return np.sum(sig.eps * z * np.conj(w), axis=-1)[()]


def metric(z, w, sig: Signature):
    """Real part of the Hermitian pairing: the flat pseudo-metric."""
    return herm_form(z, w, sig).real


def symplectic(z, w, sig: Signature):
    """Negated imaginary part of the Hermitian pairing: the symplectic form."""
    return -herm_form(z, w, sig).imag


def apply_J(z) -> np.ndarray:
    """Canonical complex structure, entrywise multiplication by i."""
    return 1j * np.asarray(z, dtype=complex)


def hol_volume(frame) -> complex:
    """Complex determinant of the frame rows (dz_1 ^ ... ^ dz_n evaluated)."""
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
        raise DimensionMismatch(f"frame must be square, got shape {frame.shape}")
    return complex(np.linalg.det(frame))


def herm_gram(frame, sig: Signature) -> np.ndarray:
    """Hermitian Gram matrix [<<X_j, X_k>>_p] of the frame rows."""
    frame = np.asarray(frame, dtype=complex)
    if frame.shape[-1] != sig.n:
        raise DimensionMismatch(f"frame vectors have length {frame.shape[-1]}, need {sig.n}")
    return frame * sig.eps @ frame.conj().swapaxes(-1, -2)


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple:
    """np.triu_indices(n, k=1), read-only and shared."""
    iu = np.triu_indices(n, k=1)
    iu[0].flags.writeable = iu[1].flags.writeable = False
    return iu


_FRAME_QUANTITIES = {"defect": float, "beta": float, "dvol": float, "scale": float,
                     "degenerate": bool, "omega_det": complex}


def frame_quantities(frames, sig: Signature) -> dict:
    """Per-frame defect, volume element and angle of frames (..., n, n).

    ``defect`` is the largest symplectic pairing between two frame vectors
    over their Euclidean norms (zero on Lagrangian frames; a zero vector
    pairs to 0).  ``dvol`` = sqrt|det Re gram|.  ``omega_det`` = det frame has
    argument ``beta`` and modulus |det M| of M = frame * eps = [<<X_j, e_k>>_p],
    since |det diag(eps)| = 1: dvol exactly on Lagrangian frames.  As in
    lagrangian_angle_at, a frame is ``degenerate`` when min(dvol, |omega_det|)
    <= DEGENERACY_TOL * ``scale``, the product of the vector norms: a frame that
    loses rank has |omega_det| ~1e-16 scale, which the square root in dvol
    lifts to ~1e-8 scale, and a span containing a complex line has no angle.

    A stack of at most STACK_BLOCK frames is one block, whose outputs are
    returned as they are; a larger one runs in consecutive blocks, each
    written into one preallocated output per quantity.  Every quantity
    of a frame depends on that frame alone, so the results do not depend
    on the block size.  A single frame gives numpy scalars.
    """
    frames = np.asarray(frames, dtype=complex)
    stack = frames.reshape(-1, *frames.shape[-2:])
    if len(stack) <= STACK_BLOCK:
        out = _frame_block(stack, sig)
    else:
        out = {key: np.empty(len(stack), dtype) for key, dtype in _FRAME_QUANTITIES.items()}
        for start in range(0, len(stack), STACK_BLOCK):
            for key, value in _frame_block(stack[start:start + STACK_BLOCK], sig).items():
                out[key][start:start + STACK_BLOCK] = value
    return {key: value.reshape(frames.shape[:-2])[()] for key, value in out.items()}


def _frame_block(frames: np.ndarray, sig: Signature) -> dict:
    """frame_quantities of a (k, n, n) stack, all at once."""
    gram = herm_gram(frames, sig)
    norms = np.linalg.norm(frames, axis=-1)
    denom = norms[..., :, None] * norms[..., None, :]
    denom[denom == 0.0] = 1.0
    pairs = np.abs(gram.imag) / denom
    iu = _upper_pairs(sig.n)
    defect = (pairs[..., iu[0], iu[1]].max(axis=-1) if iu[0].size
              else np.zeros(frames.shape[:-2]))
    det = np.linalg.det(frames)
    dvol = np.sqrt(np.abs(np.linalg.det(gram.real)))
    scale = np.prod(norms, axis=-1)
    return {
        "defect": defect,
        "beta": np.angle(det),
        "dvol": dvol,
        "scale": scale,
        "degenerate": np.minimum(dvol, np.abs(det)) <= DEGENERACY_TOL * np.maximum(scale, TINY),
        "omega_det": det,
    }


# --- angles -----------------------------------------------------------------

def wrap_angle(x):
    """Reduce to the principal branch (-pi, pi]."""
    y = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(y == -np.pi, np.pi, y) if np.ndim(x) else float(y if y != -np.pi else np.pi)


def circ_dist(a, b) -> float:
    """Distance on R / 2 pi Z."""
    return float(np.abs(wrap_angle(np.asarray(a, dtype=float) - b)).max())


def circ_mean(angles) -> float:
    """Direction of the mean unit vector e^{i angle}.

    The mean vector has length at most 1; below 1e-12 its direction is
    rounding noise (e.g. equally spaced angles) and no mean exists.
    """
    z = np.mean(np.exp(1j * np.asarray(angles, dtype=float)))
    if abs(z) < 1e-12:
        raise DegenerateInput("circular mean of spread-out angle sample is undefined")
    return float(np.angle(z))


def circ_spread(angles) -> float:
    """Root-mean-square circular deviation from the circular mean, in radians."""
    angles = np.asarray(angles, dtype=float)
    m = circ_mean(angles)
    dev = wrap_angle(angles - m)
    return float(np.sqrt(np.mean(np.square(dev))))


# --- matrix exponential -----------------------------------------------------

_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
])

# Lower-degree [m/m] Pade coefficients b_0 .. b_m, keyed by m.
_PADE_LOW = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
}

# Largest 1-norm for which the degree-m kernel is accurate to unit roundoff
# in double precision (Higham 2005, table 2.3).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}

# Most squarings after the degree-13 kernel.  Each squaring can double the
# relative rounding error, so 2^13 u ~ 9e-13 keeps it 100 times below the
# 1e-10 identity gate; past it, i.e. above a 1-norm of theta_13 2^13 ~ 4.4e4,
# the exponential is refused.
MAX_SQUARINGS = 13
_MAX_NORM = _THETA[13] * 2.0 ** MAX_SQUARINGS


def matrix_exp(a, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade kernel.

    Works on stacks of square matrices (shape (..., n, n)) and makes no
    diagonalizability assumption.  Each matrix gets the smallest Pade
    degree m in {3, 5, 7, 9, 13} whose threshold theta_m bounds its 1-norm
    (N. J. Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005), so a
    matrix's exponential does not depend on what else is stacked with it.
    Only above theta_13 is anything scaled: each matrix by its own power
    of two, down to theta_13, and squared back afterwards.

    The stack runs in consecutive blocks of STACK_BLOCK matrices, written
    into ``out`` (a new array when None); since each matrix gets its own
    degree, the results do not depend on the block size.  ``out`` must be
    a C-contiguous complex128 array of ``a``'s shape and may be ``a``
    itself: a block's norms are taken before any of its rows is written,
    and each degree group is gathered into a copy before its rows are
    overwritten.  Returns ``out``.

    A matrix with a non-finite entry or 1-norm, or with a 1-norm that needs
    more than MAX_SQUARINGS squarings, or a scaled one whose exponential
    overflows, raises DegenerateInput before any row of its block is
    written.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    if out is None:
        out = np.empty_like(a, order="C")
    elif out.dtype != np.complex128 or out.shape != a.shape or not out.flags.c_contiguous:
        raise DimensionMismatch(f"out must be a C-contiguous complex128 array of shape {a.shape}")
    stack = a.reshape(-1, *a.shape[-2:])
    result = out.reshape(stack.shape)  # a view: out is C-contiguous
    for start in range(0, len(stack), STACK_BLOCK):
        block = stack[start:start + STACK_BLOCK]
        with np.errstate(over="ignore"):
            norm1 = np.abs(block).sum(axis=-2).max(axis=-1)
        bad = np.flatnonzero(~np.isfinite(norm1))
        if bad.size:
            raise DegenerateInput(f"matrix {start + bad[0]} of the stack has a non-finite "
                                  f"entry or 1-norm; its exponential is undefined in doubles")
        big = np.flatnonzero(norm1 > _MAX_NORM)
        if big.size:
            raise DegenerateInput(f"matrix {start + big[0]} of the stack has 1-norm "
                                  f"{norm1[big[0]]:.3g} above {_MAX_NORM:.3g}; its exponential "
                                  f"needs more than {MAX_SQUARINGS} squarings and loses "
                                  f"accuracy or overflows in doubles")
        degree = np.full(norm1.shape, 13)
        for m in (9, 7, 5, 3):
            degree[norm1 <= _THETA[m]] = m
        for m in np.unique(degree)[::-1]:  # the scaled group, which may overflow, first
            rows = np.flatnonzero(degree == m)
            result[start + rows] = _pade_exp(block[rows], norm1[rows], int(m))
    return out


def _matmul_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products x[..., k] @ y[..., k] of two (n, n, k) stacks, matrix index last."""
    return np.einsum("ijk,jlk->ilk", x, y)


def _pade_exp(a: np.ndarray, norm1: np.ndarray, degree: int) -> np.ndarray:
    """exp of a (k, n, n) stack at one Pade degree, scaling and squaring at degree 13.

    The products run over the whole group at once, in the layout (n, n, k)
    with the matrix index last and contiguous: one einsum each instead of
    one BLAS call per small matrix.  The solve stays on LAPACK, on the
    group seen as (k, n, n).  Each matrix's sums run in the same order
    whatever k is, so a matrix's exponential does not depend on its group.
    """
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    s = np.zeros(norm1.shape, dtype=int)
    if degree < 13:
        # u = a (b_1 + b_3 a^2 + ... + b_m a^(m-1)),  v = b_0 + b_2 a^2 + ... + b_(m-1) a^(m-1)
        b = _PADE_LOW[degree]
        a2 = _matmul_last(a, a)
        u, v = b[3] * a2, b[2] * a2
        power = a2
        for k in range(2, degree // 2 + 1):
            power = _matmul_last(power, a2)
            u += b[2 * k + 1] * power
            v += b[2 * k] * power
    else:
        with np.errstate(divide="ignore"):
            s = np.ceil(np.log2(norm1 / _THETA[13]))
        s = np.where(norm1 > _THETA[13], s, 0.0).astype(int)
        a = a / 2.0 ** s
        b = _PADE13
        a2 = _matmul_last(a, a)
        a4 = _matmul_last(a2, a2)
        a6 = _matmul_last(a4, a2)
        u = (_matmul_last(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2)
        v = (_matmul_last(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2)
    diag = np.arange(a.shape[0])
    u[diag, diag] += b[1]
    v[diag, diag] += b[0]
    u = _matmul_last(a, u)
    r = np.linalg.solve((v - u).transpose(2, 0, 1), (v + u).transpose(2, 0, 1))
    if s.max(initial=0):
        r = np.ascontiguousarray(r.transpose(1, 2, 0))
        for k in range(int(s.max())):
            mask = s > k
            r[..., mask] = _matmul_last(r[..., mask], r[..., mask])
        if not np.isfinite(r).all():
            raise DegenerateInput(f"the exponential of a matrix of 1-norm up to {norm1.max():.3g} "
                                  f"overflows in doubles")
        r = r.transpose(2, 0, 1)
    return r


# --- group element samplers -------------------------------------------------

def pseudo_unitary_sample(rng: np.random.Generator, sig: Signature, count: int | None = None) -> np.ndarray:
    """Random elements of U(p, n-p), preserving <<.,.>>_p.

    Exponentials of diag(eps) @ S with S = (C - C^H) / 2 anti-Hermitian,
    where the real parts of all C are drawn first, then the imaginary
    parts, each uniform in [-0.5, 0.5].  Both are drawn in blocks of
    STACK_BLOCK matrices, in stream order, straight into one complex
    array; the generators are built there block by block and
    exponentiated in place, so that array is the only one spanning the
    whole stack.
    """
    shape = (sig.n, sig.n) if count is None else (count, sig.n, sig.n)
    generators = np.empty(shape, dtype=complex)
    stack = generators.reshape(-1, sig.n, sig.n)
    blocks = [slice(start, start + STACK_BLOCK) for start in range(0, len(stack), STACK_BLOCK)]
    for block in blocks:
        stack[block].real = rng.uniform(-0.5, 0.5, stack[block].shape)
    for block in blocks:
        c = stack[block]
        c.imag = rng.uniform(-0.5, 0.5, c.shape)
        c[...] = sig.eps[:, None] * ((c - c.conj().swapaxes(-1, -2)) / 2.0)
    return matrix_exp(generators, out=generators)


def random_invertible(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count real n x n matrices with entries uniform in [-1, 1], each redrawn
    until |det| > 0.05; DegenerateInput after 100 redraws of the stack."""
    real = rng.uniform(-1.0, 1.0, (count, n, n))
    bad = np.flatnonzero(np.abs(np.linalg.det(real)) <= 0.05)
    for _ in range(100):
        if not bad.size:
            return real
        # only the redrawn matrices can change, so only they are checked again
        real[bad] = rng.uniform(-1.0, 1.0, (bad.size, n, n))
        bad = bad[np.abs(np.linalg.det(real[bad])) <= 0.05]
    if bad.size:
        raise DegenerateInput("failed to draw invertible real matrices in 100 attempts")
    return real


def special_orthogonal_sample(rng: np.random.Generator, sig: Signature) -> np.ndarray:
    """Random element of SO(p, n-p): exp(diag(eps) @ S) with S real antisymmetric."""
    s = rng.uniform(-0.5, 0.5, (sig.n, sig.n))
    s = (s - s.T) / 2.0
    return matrix_exp(sig.eps[:, None] * s).real


# --- real 2-planes in C^2 ---------------------------------------------------

def real_components(z) -> np.ndarray:
    """Flatten C^n vectors to R^{2n}: (Re z_1, Im z_1, Re z_2, Im z_2, ...)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).reshape(*z.shape[:-1], -1)


def from_components(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pairs = x.reshape(*x.shape[:-1], -1, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def spans_equal(a, b, tol: float = TOL) -> bool:
    """Whether two families of complex vectors have equal real spans.

    Basis independent: compares ranks of the stacked real coordinate
    matrices, with singular values below tol * sigma_max counted as zero.
    """
    a = np.atleast_2d(real_components(a))
    b = np.atleast_2d(real_components(b))

    def rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0:
            return 0
        return int(np.sum(sv > tol * sv[0]))

    ra, rb = rank(a), rank(b)
    return ra == rb == rank(np.vstack([a, b]))


def _check_plane(plane) -> np.ndarray:
    plane = np.asarray(plane, dtype=complex)
    if plane.shape != (2, 2):
        raise DimensionMismatch(f"plane ops live in C^2: expected basis shape (2, 2), got {plane.shape}")
    sv = np.linalg.svd(real_components(plane), compute_uv=False)
    if sv[1] <= TOL * sv[0]:
        raise DegenerateInput("plane basis is not real-linearly independent")
    return plane


def symplectic_orthogonal(plane, sig: Signature) -> np.ndarray:
    """Basis of { v : omega_p(v, x) = 0 for all x in the plane }.

    Two-dimensional whenever the input plane is non-degenerate, since the
    symplectic form is.  Solved as the null space of the 2 x 4 real
    constraint system.
    """
    plane = _check_plane(plane)
    if sig.n != 2:
        raise DimensionMismatch("symplectic_orthogonal is defined for n = 2")
    # row i, column a: omega_p(e_a, plane_i) over the real coordinate basis e_a
    constraints = symplectic(from_components(np.eye(4)), plane[:, None], sig)
    _, sv, vt = np.linalg.svd(constraints)
    if sv[1] <= TOL * sv[0]:
        raise DegenerateInput("rank-deficient constraint system: degenerate input plane")
    return from_components(vt[2:])


@dataclass(frozen=True)
class PlaneProps:
    totally_null: bool
    lagrangian: bool
    complex_line: bool


def plane_props(plane, sig: Signature, tol: float = TOL) -> PlaneProps:
    """Classify a real 2-plane: metric-null, Lagrangian, complex.

    Any two of the three properties force the third (in the split
    signature where null planes exist at all).
    """
    plane = _check_plane(plane)
    if sig.n != 2:
        raise DimensionMismatch("plane_props is defined for n = 2")
    norms = np.linalg.norm(plane, axis=1)
    form = herm_form(plane[:, None], plane, sig)  # [<<b_i, b_j>>_p]
    bound = tol * norms[:, None] * norms
    null = bool(np.all(np.abs(form.real) <= bound))
    lagr = bool(abs(form[0, 1].imag) <= bound[0, 1])
    cplx = spans_equal(apply_J(plane), plane, tol)
    return PlaneProps(totally_null=null, lagrangian=lagr, complex_line=cplx)


# Reference totally null plane of (C^2, <<.,.>>_1): x_1 = y_2, x_2 = y_1.
NULL_PLANE_BASIS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex)


def random_plane(rng: np.random.Generator) -> np.ndarray:
    """Generic random real 2-plane in C^2."""
    while True:
        basis = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sv = np.linalg.svd(real_components(basis), compute_uv=False)
        if sv[1] > 1e-3 * sv[0]:
            return basis


def random_totally_null_plane(rng: np.random.Generator, sig: Signature) -> np.ndarray:
    """Random metric-null 2-plane, as an O(2, 2) orbit point of the reference one."""
    if (sig.p, sig.n) != (1, 2):
        raise DimensionMismatch("totally null 2-planes require signature (1, 2)")
    # the real components of C^2 with signature (1, 2) carry the signs of (2, 4)
    o = special_orthogonal_sample(rng, Signature(2, 4))
    moved = from_components(real_components(NULL_PLANE_BASIS) @ o.T)
    return random_invertible(rng, 1, 2)[0] @ moved


def random_complex_plane(rng: np.random.Generator, null: bool = False, sig: Signature | None = None) -> np.ndarray:
    """Random complex line in C^2, optionally with metric-null direction vector."""
    if null:
        if sig is None or (sig.p, sig.n) != (1, 2):
            raise DimensionMismatch("null complex lines require signature (1, 2)")
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
        v = rng.uniform(0.3, 1.5) * phases
    else:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return random_invertible(rng, 1, 2)[0] @ np.stack([v, apply_J(v)])
