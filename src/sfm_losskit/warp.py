"""Differentiable bilinear image sampling.

Images are plain float arrays of shape (H, W, C) with values in [0, 1] and
C in {1, 3}; validity masks are (H, W) bool arrays. Invalid output pixels
carry the value 0 and mask False; they contribute nothing downstream and are
excluded from reductions by mask, never by sentinel values.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def validate_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise DimensionError(f"expected (H, W, C) image with C in {{1, 3}}, got {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("image contains non-finite values")
    return img


def _gather_corners(src: np.ndarray, u: np.ndarray, v: np.ndarray):
    """The four corner values and fractional weights for bilinear lookup.

    Coordinates must already lie inside [0, W-1] x [0, H-1]. The lower corner
    is clipped to size-2 so the upper corner stays in bounds; at u == W-1 the
    weight shifts fully onto the upper corner, reproducing the border pixel.
    Returns (I[y0,x0], I[y0,x1], I[y1,x0], I[y1,x1], wu, wv); the corners
    are gathered with one flat row index each into src viewed as (H*W, C).
    """
    h, w = src.shape[:2]
    x0 = np.clip(np.floor(u).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(v).astype(np.intp), 0, max(h - 2, 0))
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    flat = src.reshape(-1, src.shape[2])
    i00 = y0 * w + x0
    corners = tuple(flat.take(i00 + step, axis=0) for step in (0, dx, dy, dy + dx))
    return (*corners, u - x0, v - y0)


def sample_bilinear(
    src: np.ndarray, coords: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``src`` at continuous coordinates.

    coords is (H, W, 2) holding (u, v); valid is (H, W) bool. Each valid
    output pixel is the bilinear blend of the 4 neighbors of its coordinate;
    sampling at exact integer coordinates reproduces the source pixel.
    Invalid pixels come back as 0 with mask False.
    """
    src = np.asarray(src, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if coords.shape[:2] != valid.shape or coords.shape[2:] != (2,):
        raise DimensionError(f"coords {coords.shape} inconsistent with valid {valid.shape}")

    h, w = src.shape[:2]
    u = np.where(valid, coords[..., 0], 0.0)
    v = np.where(valid, coords[..., 1], 0.0)
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    c00, c01, c10, c11, wu, wv = _gather_corners(src, u, v)

    w00 = (1.0 - wu) * (1.0 - wv)
    w01 = wu * (1.0 - wv)
    w10 = (1.0 - wu) * wv
    w11 = wu * wv
    out = (
        w00[..., None] * c00
        + w01[..., None] * c01
        + w10[..., None] * c10
        + w11[..., None] * c11
    )
    out[~valid] = 0.0
    return out, valid.copy()


def sample_bilinear_grad(
    src: np.ndarray, coords: np.ndarray, valid: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of the sampled image with respect to the coordinates.

    upstream is (H, W, C), the loss gradient at each output pixel; the result
    is (H, W, 2) holding d(loss)/d(u, v), zero at invalid pixels. At integer
    coordinates the right-continuous derivative branch is used (left branch
    on the far image border, where no right neighbor exists).
    """
    src = np.asarray(src, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape[:2] != valid.shape or upstream.shape[2] != src.shape[2]:
        raise DimensionError(
            f"upstream {upstream.shape} inconsistent with src {src.shape} / valid {valid.shape}"
        )

    h, w = src.shape[:2]
    u = np.clip(np.where(valid, coords[..., 0], 0.0), 0.0, w - 1.0)
    v = np.clip(np.where(valid, coords[..., 1], 0.0), 0.0, h - 1.0)
    c00, c01, c10, c11, wu, wv = _gather_corners(src, u, v)

    # d(out)/du = (1-wv) * (I[y0,x1] - I[y0,x0]) + wv * (I[y1,x1] - I[y1,x0])
    dx_top = c01 - c00
    dx_bot = c11 - c10
    dy_left = c10 - c00
    dy_right = c11 - c01

    du = np.sum(upstream * ((1.0 - wv)[..., None] * dx_top + wv[..., None] * dx_bot), axis=-1)
    dv = np.sum(upstream * ((1.0 - wu)[..., None] * dy_left + wu[..., None] * dy_right), axis=-1)

    grad = np.stack([du, dv], axis=-1)
    grad[~valid] = 0.0
    return grad
