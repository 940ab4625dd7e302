"""Linear algebra of the split-signature Hermitian space (C^n, <<.,.>>_p).

The sesquilinear form

    <<z, w>>_p = -sum_{j<p} z_j conj(w_j) + sum_{j>=p} z_j conj(w_j)

(indices 0-based) carries the three structures used throughout the
package: its real part is a flat pseudo-Riemannian metric of signature
(2p, 2(n-p)), its negated imaginary part is the standard symplectic
form, and the canonical complex structure J acts as multiplication
by i.  They are tied together by omega(z, w) = metric(J z, w).

Data conventions: a vector is a complex numpy array of shape (n,); a
frame is an (n, n) complex array whose rows are the frame vectors; a
real 2-plane in C^2 is a (2, 2) complex array whose rows span it over
the reals.  Angles live in R / 2 pi Z and are always compared through
circular distance.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TOL = 1e-9


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


def as_cvec(z, sig: Signature | None = None) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {z.shape}")
    if sig is not None and z.shape[0] != sig.n:
        raise DimensionMismatch(f"vector has length {z.shape[0]}, signature needs {sig.n}")
    return z


def herm_form(z, w, sig: Signature) -> complex:
    """The defining pseudo-Hermitian pairing; conjugate-symmetric."""
    z = as_cvec(z, sig)
    w = as_cvec(w, sig)
    return complex(np.sum(sig.eps * z * np.conj(w)))


def metric(z, w, sig: Signature) -> float:
    """Real part of the Hermitian pairing: the flat pseudo-metric."""
    return herm_form(z, w, sig).real


def symplectic(z, w, sig: Signature) -> float:
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


def frame_defect(frame, sig: Signature) -> float:
    """Largest normalized symplectic pairing between frame vectors.

    Zero characterizes a frame spanning a Lagrangian subspace; each
    pairing is normalized by the Euclidean norms of the two vectors.
    """
    frame = np.asarray(frame, dtype=complex)
    omega = -herm_gram(frame, sig).imag
    norms = np.linalg.norm(frame, axis=-1)
    denom = np.outer(norms, norms)
    denom[denom == 0.0] = 1.0
    iu = np.triu_indices(frame.shape[0], k=1)
    if iu[0].size == 0:
        return 0.0
    return float(np.max(np.abs(omega[iu] / denom[iu])))


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


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade kernel.

    Works on stacks of square matrices (shape (..., n, n)) and makes no
    diagonalizability assumption.  The Pade degree m in {3, 5, 7, 9, 13}
    is the smallest whose threshold theta_m bounds the largest 1-norm in
    the stack (N. J. Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005).
    Only above theta_13 is anything scaled: each matrix by its own power of
    two, down to theta_13, and squared back afterwards.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    top = float(norm1.max(initial=0.0))
    s = np.zeros(norm1.shape, dtype=int)

    degree = next((m for m in (3, 5, 7, 9) if top <= _THETA[m]), 13)
    if degree < 13:
        # u = a (b_1 + b_3 a^2 + ... + b_m a^(m-1)),  v = b_0 + b_2 a^2 + ... + b_(m-1) a^(m-1)
        b = _PADE_LOW[degree]
        a2 = a @ a
        u, v = b[3] * a2, b[2] * a2
        power = a2
        for k in range(2, degree // 2 + 1):
            power = power @ a2
            u += b[2 * k + 1] * power
            v += b[2 * k] * power
        diag = np.arange(a.shape[-1])
        u[..., diag, diag] += b[1]
        v[..., diag, diag] += b[0]
        u = a @ u
    else:
        with np.errstate(divide="ignore"):
            s = np.ceil(np.log2(norm1 / _THETA[13]))
        s = np.where(norm1 > _THETA[13], s, 0.0).astype(int)
        scaled = a / (2.0 ** s)[..., None, None]
        b = _PADE13
        eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
        a2 = scaled @ scaled
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = scaled @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                      + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)

    for k in range(int(s.max(initial=0))):
        mask = s > k
        if a.ndim == 2:
            r = r @ r
        else:
            r[mask] = r[mask] @ r[mask]
    return r


# --- group element samplers -------------------------------------------------

def pseudo_unitary_sample(rng: np.random.Generator, sig: Signature, count: int | None = None) -> np.ndarray:
    """Random elements of U(p, n-p), preserving <<.,.>>_p.

    Exponentials of diag(eps) @ S with S anti-Hermitian, entries' real and
    imaginary parts uniform in [-0.5, 0.5].
    """
    shape = (sig.n, sig.n) if count is None else (count, sig.n, sig.n)
    c = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    s = (c - c.conj().swapaxes(-1, -2)) / 2.0
    return matrix_exp(sig.eps[:, None] * s)


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


def _omega_matrix(sig: Signature) -> np.ndarray:
    """Matrix of the symplectic form on the real coordinates of C^n."""
    n2 = 2 * sig.n
    eye = np.eye(n2)
    basis = from_components(eye)
    w = np.empty((n2, n2))
    for a in range(n2):
        for b in range(n2):
            w[a, b] = symplectic(basis[a], basis[b], sig)
    return w


def symplectic_orthogonal(plane, sig: Signature) -> np.ndarray:
    """Basis of { v : omega_p(v, x) = 0 for all x in the plane }.

    Two-dimensional whenever the input plane is non-degenerate, since the
    symplectic form is.  Solved as the null space of the 2 x 4 real
    constraint system.
    """
    plane = _check_plane(plane)
    if sig.n != 2:
        raise DimensionMismatch("symplectic_orthogonal is defined for n = 2")
    w = _omega_matrix(sig)
    constraints = (w @ real_components(plane).T).T
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
    b0, b1 = plane
    norms = np.linalg.norm(plane, axis=1)
    null = all(
        abs(metric(plane[i], plane[j], sig)) <= tol * norms[i] * norms[j]
        for i in range(2) for j in range(i, 2)
    )
    lagr = abs(symplectic(b0, b1, sig)) <= tol * norms[0] * norms[1]
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


def _random_gl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(m)) > 0.05:
            return m


def random_totally_null_plane(rng: np.random.Generator, sig: Signature) -> np.ndarray:
    """Random metric-null 2-plane, as an O(2, 2) orbit point of the reference one."""
    if (sig.p, sig.n) != (1, 2):
        raise DimensionMismatch("totally null 2-planes require signature (1, 2)")
    g_real = np.repeat(sig.eps, 2)
    s = rng.uniform(-0.5, 0.5, (4, 4))
    s = (s - s.T) / 2.0
    o = matrix_exp(g_real[:, None] * s).real
    moved = from_components(real_components(NULL_PLANE_BASIS) @ o.T)
    return _random_gl2(rng) @ moved


def random_lagrangian_plane(rng: np.random.Generator, sig: Signature) -> np.ndarray:
    """Random Lagrangian 2-plane: a pseudo-unitary image of a remixed real R^2."""
    if sig.n != 2:
        raise DimensionMismatch("plane sampling lives in C^2")
    real_rows = _random_gl2(rng).astype(complex)
    u = pseudo_unitary_sample(rng, sig)
    return real_rows @ u.T


def random_complex_plane(rng: np.random.Generator, null: bool = False, sig: Signature | None = None) -> np.ndarray:
    """Random complex line in C^2, optionally with metric-null direction vector."""
    if null:
        if sig is None or (sig.p, sig.n) != (1, 2):
            raise DimensionMismatch("null complex lines require signature (1, 2)")
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
        v = rng.uniform(0.3, 1.5) * phases
    else:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return _random_gl2(rng) @ np.stack([v, apply_J(v)])
