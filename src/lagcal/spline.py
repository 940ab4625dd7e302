"""The one not-a-knot cubic, for Curve.from_samples and, as a tensor product, the
deformed patch of calibration: on FITPACK's s=0, k=3 knots x[0] (4 times), x[2:-2],
x[-1] (4 times), the B-spline interpolant at the nodes x is the not-a-knot spline
(de Boor, A Practical Guide to Splines, 1978).  Outside [x[0], x[-1]] the ends extend."""

import numpy as np


def cubic_basis(knots: np.ndarray, x: np.ndarray, deriv: int = 0):
    """Index of the first of the four cubic B-splines nonzero at each x, and their
    values, or derivatives of order deriv (1 or 2), shaped (len(x), 4).

    de Boor's recurrence in FITPACK's fpbspl form, vectorized over x; x at the
    last knot belongs to the last span.  The last deriv steps differentiate.
    """
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, len(knots) - 5)
    t = knots[span + np.arange(-2, 4)[:, None]]                # knots span-2 .. span+3
    h = [np.ones_like(x)]
    for j in range(1, 4):
        nxt = [np.zeros_like(x)]
        for i, hi in enumerate(h):
            right, left = t[3 + i], t[3 + i - j]
            f = hi / (right - left)
            a, b = (-j * f, j * f) if j > 3 - deriv else (f * (right - x), f * (x - left))
            nxt[i] = nxt[i] + a
            nxt.append(b)
        h = nxt
    return span - 3, np.stack(h, axis=-1)


def not_a_knot(x: np.ndarray, values: np.ndarray, axis: int = 0):
    """Knots and B-spline coefficients of the not-a-knot cubic through values along
    axis at len(x) >= 4 increasing nodes x: one solve, other indices right-hand sides."""
    knots = np.concatenate([np.repeat(x[0], 4), x[2:-2], np.repeat(x[-1], 4)])
    first, w = cubic_basis(knots, x)
    collocation = np.zeros((len(x), len(x)))
    np.put_along_axis(collocation, first[:, None] + np.arange(4), w, axis=1)
    moved = np.moveaxis(values, axis, 0)
    solved = np.linalg.solve(collocation, moved.reshape(len(x), -1))
    return knots, np.moveaxis(solved.reshape(moved.shape), 0, axis)


class NotAKnotBicubic:
    """Tensor-product not-a-knot cubic through values (len(x), len(y), planes):
    per plane, the interpolant of RectBivariateSpline(x, y, plane, kx=3, ky=3)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, values: np.ndarray):
        knots_x, coef = not_a_knot(x, values, axis=0)
        knots_y, coef = not_a_knot(y, coef, axis=1)
        self.knots = (knots_x, knots_y)
        # the (4, 4) coefficient block of every span pair, per plane: a view
        # of shape (len(x) - 3, len(y) - 3, planes, 4, 4)
        self.blocks = np.lib.stride_tricks.sliding_window_view(
            np.ascontiguousarray(coef), (4, 4), axis=(0, 1))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every plane at the points (x[k], y[k]), shaped (len(x), planes)."""
        (ix, wx), (iy, wy) = (cubic_basis(knots, a) for knots, a in zip(self.knots, (x, y)))
        blocks = self.blocks[ix, iy]                               # (len(x), planes, 4, 4)
        return np.einsum("nb,npb->np", wy, np.einsum("na,npab->npb", wx, blocks))
