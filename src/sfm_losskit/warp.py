"""Differentiable bilinear image sampling.

Images are plain float arrays of shape (H, W, C) with values in [0, 1] and
C in {1, 3}; validity masks are (H, W) bool arrays. Invalid output pixels
carry the value 0; they contribute nothing downstream and are excluded from
reductions by the caller's mask, never by sentinel values.

Per-pixel vector fields are read and written as planes: coordinates are
(H, W, 2) arrays whose components ``coords[..., 0]`` and ``coords[..., 1]``
are contiguous when the array is a view over (2, H, W) storage, as
`geometry.warp_chain` returns it, and the coordinate gradient comes back as
the same kind of (H, W, 2) view over a (2, H, W) array.
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


def _gather_corners(src: np.ndarray, coords: np.ndarray, valid: np.ndarray):
    """The four bilinear corner values and fractional weights of the valid
    coordinates clipped into [0, W-1] x [0, H-1] (invalid ones read pixel 0).

    The lower corner is clipped to size-2 so the upper corner stays in
    bounds; at u == W-1 the weight shifts fully onto the upper corner,
    reproducing the border pixel. Returns (I[y0,x0], I[y0,x1], I[y1,x0],
    I[y1,x1], wu, wv); the corners are gathered through one flat row index
    into src viewed as (H*W, C), stepped in place from corner to corner.
    """
    h, w = src.shape[:2]
    u = np.where(valid, coords[..., 0], 0.0)
    v = np.where(valid, coords[..., 1], 0.0)
    np.clip(u, 0.0, w - 1.0, out=u)
    np.clip(v, 0.0, h - 1.0, out=v)
    # u, v >= 0, so truncation is the floor
    x0 = u.astype(np.intp)
    y0 = v.astype(np.intp)
    np.clip(x0, 0, max(w - 2, 0), out=x0)
    np.clip(y0, 0, max(h - 2, 0), out=y0)
    u -= x0
    v -= y0
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    flat = src.reshape(-1, src.shape[2])
    index = y0 * w
    index += x0
    c00 = flat.take(index, axis=0)
    index += dx
    c01 = flat.take(index, axis=0)
    index += dy - dx
    c10 = flat.take(index, axis=0)
    index += dx
    c11 = flat.take(index, axis=0)
    return c00, c01, c10, c11, u, v


def sample_bilinear(src: np.ndarray, coords: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Sample ``src`` at continuous coordinates.

    coords is (H, W, 2) holding (u, v); valid is (H, W) bool. Each valid
    output pixel is the bilinear blend of the 4 neighbors of its coordinate;
    sampling at exact integer coordinates reproduces the source pixel.
    Invalid pixels come back as 0.
    """
    src = np.asarray(src, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if coords.shape[:2] != valid.shape or coords.shape[2:] != (2,):
        raise DimensionError(f"coords {coords.shape} inconsistent with valid {valid.shape}")

    c00, c01, c10, c11, wu, wv = _gather_corners(src, coords, valid)
    one_wu = 1.0 - wu
    one_wv = 1.0 - wv
    # out = w00 c00 + w01 c01 + w10 c10 + w11 c11, summed left to right
    out = c00
    out *= (one_wu * one_wv)[..., None]
    c01 *= (wu * one_wv)[..., None]
    out += c01
    c10 *= (one_wu * wv)[..., None]
    out += c10
    c11 *= (wu * wv)[..., None]
    out += c11
    invalid = ~valid
    # one masked store per channel plane: a (H, W, 1) mask broadcast over
    # the channels, or boolean indexing, walks memory several times slower
    for c in range(out.shape[2]):
        np.copyto(out[..., c], 0.0, where=invalid)
    return out


def sample_bilinear_grad(
    src: np.ndarray, coords: np.ndarray, valid: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of the sampled image with respect to the coordinates.

    upstream is (H, W, C), the loss gradient at each output pixel; the result
    is (H, W, 2) holding d(loss)/d(u, v), zero at invalid pixels, as a view
    over a contiguous (2, H, W) array. At integer coordinates the
    right-continuous derivative branch is used (left branch on the far image
    border, where no right neighbor exists).
    """
    src = np.asarray(src, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape[:2] != valid.shape or upstream.shape[2] != src.shape[2]:
        raise DimensionError(
            f"upstream {upstream.shape} inconsistent with src {src.shape} / valid {valid.shape}"
        )

    c00, c01, c10, c11, wu, wv = _gather_corners(src, coords, valid)
    grad = np.empty((2,) + valid.shape)
    # d(out)/du = (1-wv) * (I[y0,x1] - I[y0,x0]) + wv * (I[y1,x1] - I[y1,x0])
    dx_top = c01 - c00
    dx_top *= (1.0 - wv)[..., None]
    dx_bot = c11 - c10
    dx_bot *= wv[..., None]
    dx_top += dx_bot
    dx_top *= upstream
    np.sum(dx_top, axis=-1, out=grad[0])
    # d(out)/dv = (1-wu) * (I[y1,x0] - I[y0,x0]) + wu * (I[y1,x1] - I[y0,x1])
    c10 -= c00
    c10 *= (1.0 - wu)[..., None]
    c11 -= c01
    c11 *= wu[..., None]
    c10 += c11
    c10 *= upstream
    np.sum(c10, axis=-1, out=grad[1])
    np.copyto(grad, 0.0, where=~valid)
    return np.moveaxis(grad, 0, -1)
