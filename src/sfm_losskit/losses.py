"""Objective-function terms over depth/pose parameters, with exact gradients.

The objective combines a per-pixel minimum photometric term gated by a
static-pixel mask, an edge-aware smoothness regularizer on mean-normalized
disparity, and a supervised term over sparse labels (the reprojected
distance, or the L1 / BerHu depth error it is compared against):

    total = photo + lambda_smooth * smooth + lambda_rep * rep

Each term exists once in private code: the photometric and smoothness
terms as forward/backward pairs, the supervised term as one function with an
optional gradient. `_objective` only validates its inputs, builds the depth
pyramid and sums the terms. The public entry points are `total_loss` and
`total_loss_grad` (all terms, or the subset named in ``terms``),
`unwarped_min_photometric` (the static-pixel mask's reference, constant
during optimization) and `min_photometric` (the per-pixel minimum over
sources and its argmin). Each validates its arguments and then calls the
same private functions, so what it computes is exactly what the optimizer
minimizes.

Gradients are derived by hand as exact adjoints of the forward computation
(masks and argmin selections are treated as constants), so they match
central finite differences away from the measure-zero switching sets.
Two properties keep those differences meaningful: every windowed operator
is local (a one-pixel change leaves outputs outside its window
bit-identical), and scalar reductions are plain ``np.sum`` calls, which are
deterministic for a fixed shape. The windowed and pyramid operators are
separable, and each backward pass applies their exact transposes.
Images are (H, W, C) float arrays in [0, 1]; depth maps are (H, W) with
0 or negative marking invalid; per-pixel loss maps carry +inf at invalid
pixels, which every reduction here excludes by mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry, warp
from .errors import (
    ConfigError,
    DegenerateMaskError,
    DimensionError,
    EmptyContextError,
    InvalidDepthError,
    NoSupervisionError,
)
from .geometry import CameraIntrinsics, PoseSE3

# SSIM stabilizers for unit data range.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2

# The objective's terms; total_loss(..., terms=...) selects a subset.
TERMS = ("photo", "smooth", "rep")
SUPERVISED = ("rep", "l1", "berhu")


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights of the objective (defaults follow the reference setup)."""

    alpha: float = 0.85
    lambda_smooth: float = 1e-3
    lambda_rep: float = 1e4

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.lambda_smooth) and math.isfinite(self.lambda_rep)):
            raise ValueError("loss weights must be finite")
        if self.lambda_smooth < 0 or self.lambda_rep < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    photo: float
    smooth: float
    rep: float
    total: float
    masked_pixel_count: int
    rep_pixel_count: int = 0
    rep_dropped_behind: int = 0


class RepLoss(NamedTuple):
    """Mean reprojected distance, the label count used, and how many labels
    were dropped because a projection fell behind the camera."""

    value: float
    count: int
    dropped: int


# A context set is an ordered list of (source image, pose target->source).
ContextSet = Sequence[tuple[np.ndarray, PoseSE3]]


def _box_sum(x: np.ndarray) -> np.ndarray:
    """Windowed sum over 3x3 boxes; windows shrink at the borders.

    Separable: a 3-row pass, then a 3-column pass. The window is symmetric,
    so the operator is self-adjoint, which the SSIM backward pass relies
    on. An output depends only on the inputs inside its window (no integral
    images), so a one-pixel input change leaves every output outside that
    pixel's window bit-identical; finite-difference checks rely on that.

    Every output is x[i, j] + x[i - 1, j] + x[i + 1, j] over the rows, then
    the same over the columns of those row sums, added in that order. The
    first shift of each pass is fused with the copy (x[i] + x[i - 1] in one
    three-operand add). The column pass runs on the flattened rows: writing
    into a 2-D column view (``out[:, 1:]``) walks memory several times
    slower than one contiguous pass. A flat shift carries a value across
    each row boundary, so the first column is then restored from the row
    sums, and the last column is saved before the left shift and put back
    after it.
    """
    h, w = x.shape
    rows = np.empty((h, w))
    rows[0] = x[0]
    np.add(x[1:], x[:-1], out=rows[1:])
    rows[:-1] += x[1:]
    out = np.empty((h, w))
    flat_out, flat_rows = out.reshape(-1), rows.reshape(-1)
    np.add(flat_rows[1:], flat_rows[:-1], out=flat_out[1:])
    out[:, 0] = rows[:, 0]
    border = out[:, -1:].copy()
    flat_out[:-1] += flat_rows[1:]
    out[:, -1:] = border
    return out


class _SsimChannelCache(NamedTuple):
    mu_x: np.ndarray
    mu_y: np.ndarray
    n: np.ndarray
    num_c: np.ndarray  # 2 cov + C2
    den_l: np.ndarray  # mu_x^2 + mu_y^2 + C1
    den_c: np.ndarray  # var_x + var_y + C2
    ssim: np.ndarray


def _ssim_channel(a, b, m, n) -> _SsimChannelCache:
    """SSIM map of one channel; window statistics use valid pixels only and
    n is the valid-pixel count of each window.

    a * m, b * m and the products of the means are computed once and shared
    by the window statistics and the formula. That is bit-exact: m is 0/1,
    so a * b * m equals a * (b * m), and 2 * mu_x * mu_y equals
    2 * (mu_x * mu_y) because doubling is exact.
    """
    c1, c2 = SSIM_C1, SSIM_C2
    am = a * m
    bm = b * m
    mu_x = _box_sum(am) / n
    mu_y = _box_sum(bm) / n
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    var_x = _box_sum(a * am) / n - mu_xx
    var_y = _box_sum(b * bm) / n - mu_yy
    cov = _box_sum(a * bm) / n - mu_xy
    num_l = 2 * mu_xy + c1
    num_c = 2 * cov + c2
    den_l = mu_xx + mu_yy + c1
    den_c = var_x + var_y + c2
    s = (num_l * num_c) / (den_l * den_c)
    return _SsimChannelCache(mu_x, mu_y, n, num_c, den_l, den_c, s)


def _ssim_channels(a, b, m) -> list[_SsimChannelCache]:
    """Per-channel SSIM caches of (H, W, C) images under the (H, W) 0/1
    float mask m; the window count depends on the mask only, so it is
    computed once and shared by every channel."""
    n = np.maximum(_box_sum(m), 1.0)
    return [_ssim_channel(a[..., c], b[..., c], m, n) for c in range(a.shape[2])]


def _ssim_channel_grad_b(cache: _SsimChannelCache, a, b, m, g):
    """d(sum g * ssim)/db, the exact adjoint of _ssim_channel in its second arg.

    With ssim = num_l num_c / (den_l den_c), num_l = 2 mu_x mu_y + C1,
    var_y = box(b*b*m)/n - mu_y^2 and cov = box(a*b*m)/n - mu_x mu_y:

        d_num = g / (den_l den_c),   d_cov = 2 (d_num num_l),
        d_den_l = (-g ssim) / den_l, d_var_y = (-g ssim) / den_c,
        d_mu_y = 2 mu_x (d_num num_c) + 2 mu_y d_den_l
                 + (-2 mu_y d_var_y - mu_x d_cov),
        db = m (box(d_mu_y / n) + box(d_cov / n) a + box(d_var_y / n) 2 b),

    each product and sum taken left to right as written. The in-place steps
    below keep every one of those operations; they only commute factors
    and move exact negations and doublings.
    """
    mu_x, mu_y, n, num_c, den_l, den_c, s = cache
    num_l = 2 * (mu_x * mu_y) + SSIM_C1
    d_num = np.multiply(den_l, den_c)
    np.divide(g, d_num, out=d_num)
    d_mu_y = d_num * num_c
    d_mu_y *= 2 * mu_x
    d_cov = d_num
    d_cov *= num_l
    d_cov *= 2
    d_var_y = np.negative(g)
    d_var_y *= s
    d_den_l = d_var_y / den_l
    d_var_y /= den_c
    two_mu_y = 2 * mu_y
    d_den_l *= two_mu_y
    d_mu_y += d_den_l
    # x + (-2 mu_y d_var_y - mu_x d_cov) is x - (2 mu_y d_var_y + mu_x d_cov)
    two_mu_y *= d_var_y
    two_mu_y += np.multiply(mu_x, d_cov, out=d_den_l)
    d_mu_y -= two_mu_y
    d_mu_y /= n
    db = _box_sum(d_mu_y)
    d_cov /= n
    term = _box_sum(d_cov)
    term *= a
    db += term
    d_var_y /= n
    term = _box_sum(d_var_y)
    term *= 2
    term *= b
    db += term
    db *= m
    return db


class _PhotoCache(NamedTuple):
    target: np.ndarray
    synth: np.ndarray
    mask_f: np.ndarray
    alpha: float
    ssim_caches: list


def _photometric_forward(target, synth, mask, alpha) -> tuple[np.ndarray, _PhotoCache]:
    """Per-source loss map alpha * (1 - SSIM) / 2 + (1 - alpha) * L1,
    channel-averaged, with +inf at pixels outside the bool mask."""
    m = mask.astype(np.float64)
    channels = target.shape[2]
    loss = np.zeros(target.shape[:2])
    caches = _ssim_channels(target, synth, m)
    for c, cache in enumerate(caches):
        # clip guards float dust pushing SSIM past 1 on identical windows
        loss += alpha * np.clip((1.0 - cache.ssim) / 2.0, 0.0, 1.0)
        loss += (1.0 - alpha) * np.abs(target[..., c] - synth[..., c])
    loss /= channels
    np.copyto(loss, np.inf, where=~mask)
    return loss, _PhotoCache(target, synth, m, alpha, caches)


def _photometric_backward(cache: _PhotoCache, upstream: np.ndarray) -> np.ndarray:
    """d(sum upstream * loss_map)/d(synth); upstream must be 0 at invalid pixels."""
    target, synth, m, alpha, caches = cache
    channels = target.shape[2]
    u = upstream / channels
    d_synth = np.empty_like(synth)
    for c in range(channels):
        diff = synth[..., c] - target[..., c]
        db = (1.0 - alpha) * np.sign(diff) * u
        active = (caches[c].ssim > -1.0) & (caches[c].ssim < 1.0)
        db += _ssim_channel_grad_b(
            caches[c], target[..., c], synth[..., c], m, -0.5 * alpha * u * active
        )
        d_synth[..., c] = db
    return d_synth


def _warped_losses(target, context, depth, k, alpha):
    """Warp every source into the target view at this depth and score it.

    Returns per source the warp chain, the photometric cache and the
    photometric loss map (+inf where the warp is invalid).
    """
    chains, caches, maps = [], [], []
    for src, pose in context:
        chain = geometry.warp_chain(depth, pose, k)
        synth = warp.sample_bilinear(src, chain.coords, chain.valid)
        loss_map, cache = _photometric_forward(target, synth, chain.valid, alpha)
        chains.append(chain)
        caches.append(cache)
        maps.append(loss_map)
    return chains, caches, maps


def _min_over_sources(maps: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimum over the per-source loss maps and its argmin.

    A running minimum over the later maps, with the values and first-index
    argmin of ``np.min``/``np.argmin`` over the stacked maps: a source takes
    a pixel only when strictly smaller, and a NaN propagates, its first
    index being the argmin.
    """
    maps = [np.asarray(m) for m in maps]
    best = maps[0].astype(np.result_type(*maps))
    argmin = np.zeros(best.shape, dtype=np.intp)
    for s in range(1, len(maps)):
        # not (m >= best) is m < best or m NaN; a NaN best keeps its index
        take = maps[s] >= best
        np.logical_not(take, out=take)
        take &= best == best
        np.copyto(argmin, s, where=take)
        np.minimum(best, maps[s], out=best)
    return best, argmin


def _static_mask(min_unwarped: np.ndarray, min_warped: np.ndarray) -> np.ndarray:
    """Keep pixels whose unwarped loss strictly exceeds the warped one; as
    x > inf is False, this also drops pixels that no source reaches."""
    with np.errstate(invalid="ignore"):
        return min_unwarped > min_warped


class _PhotoTerm(NamedTuple):
    depth: np.ndarray
    chains: list
    caches: list
    argmin: np.ndarray
    mask: np.ndarray
    count: int


def _photo_forward(target, context, depth, k, alpha, unwarped_min) -> tuple[float, _PhotoTerm]:
    """Mean of the per-pixel minimum photometric loss over the pixels kept
    by the static-pixel mask."""
    chains, caches, maps = _warped_losses(target, context, depth, k, alpha)
    min_map, argmin = _min_over_sources(maps)
    mask = _static_mask(unwarped_min, min_map)
    count = int(mask.sum())
    if count == 0:
        raise DegenerateMaskError("static-pixel mask and warp validity removed every pixel")
    value = float(np.sum(np.where(mask, min_map, 0.0))) / count
    return value, _PhotoTerm(depth, chains, caches, argmin, mask, count)


def _photo_backward(term: _PhotoTerm, context, k, ray_dirs, n_levels, d_level, d_poses) -> None:
    """Adds d(photo value / n_levels) to d_level (the gradient w.r.t. this
    pyramid level's depth) and to d_poses.

    ray_dirs[s] is the (3, H, W) planes of R_s @ ray per pixel, i.e.
    d(source point)/d(depth).
    """
    upstream = term.mask / (term.count * n_levels)
    p_target = (term.depth * k.pixel_ray_planes()).reshape(3, -1)
    for s, (src, pose) in enumerate(context):
        u_s = np.where(term.argmin == s, upstream, 0.0)
        if not u_s.any():
            continue
        chain = term.chains[s]
        d_synth = _photometric_backward(term.caches[s], u_s)
        d_coords = warp.sample_bilinear_grad(src, chain.coords, chain.valid, d_synth)
        # g3 = d(loss)/d(source point) = J^T (du, dv) as (3, H, W) planes,
        # from the two rows of J; the pinhole's J[0, 1] and J[1, 0] are 0
        jac = geometry.projection_jacobian(chain.points, k)
        du, dv = d_coords[..., 0], d_coords[..., 1]
        g3 = np.empty((3,) + du.shape)
        np.multiply(jac[..., 0, 0], du, out=g3[0])
        np.multiply(jac[..., 1, 1], dv, out=g3[1])
        np.multiply(jac[..., 0, 2], du, out=g3[2])
        g3[2] += jac[..., 1, 2] * dv
        dirs = ray_dirs[s]
        dot = g3[0] * dirs[0]
        dot += g3[1] * dirs[1]
        dot += g3[2] * dirs[2]
        d_level += dot
        # sum_hw g3 . (dR p) = sum(dR * G) with G = sum_hw g3 p^T
        g3 = g3.reshape(3, -1)
        grad_outer = g3 @ p_target.T
        for i, drot in enumerate(pose.rotation_jacobians()):
            d_poses[s, i] += np.sum(drot * grad_outer)
        d_poses[s, 3:] += g3.sum(axis=1)


def _validate_context(target: np.ndarray, context: ContextSet) -> None:
    if len(context) == 0:
        raise EmptyContextError("context set is empty")
    for i, (img, pose) in enumerate(context):
        if np.asarray(img).shape != target.shape:
            raise DimensionError(
                f"context image {i} shape {np.asarray(img).shape} != target {target.shape}"
            )
        if not isinstance(pose, PoseSE3):
            raise TypeError(f"context {i} pose must be PoseSE3, got {type(pose)!r}")


def min_photometric(
    target: np.ndarray,
    context: ContextSet,
    depth: np.ndarray,
    k: CameraIntrinsics,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimum photometric loss over warped context images, as the
    objective's photometric term computes it before the static-pixel mask.

    Returns the min-reduced loss map (+inf where no source is valid) and the
    argmin source index map (-1 where no source is valid).
    """
    target = warp.validate_image(target)
    _validate_context(target, context)
    _, _, maps = _warped_losses(target, context, depth, k, alpha)
    min_map, argmin = _min_over_sources(maps)
    return min_map, np.where(np.isfinite(min_map), argmin, -1)


def unwarped_min_photometric(
    target: np.ndarray, context: ContextSet, alpha: float
) -> np.ndarray:
    """Min over sources of the photometric loss against the raw (unwarped)
    source images; constant during optimization, so callers may cache it."""
    target = warp.validate_image(target)
    _validate_context(target, context)
    ones = np.ones(target.shape[:2], dtype=bool)
    # context images get no other finiteness check
    maps = [_photometric_forward(target, warp.validate_image(src), ones, float(alpha))[0]
            for src, _ in context]
    min_map, _ = _min_over_sources(maps)
    return min_map


class _SmoothCache(NamedTuple):
    valid: np.ndarray
    disp: np.ndarray
    mean_disp: float
    n_valid: int
    sign_dx: np.ndarray
    sign_dy: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    contrib: np.ndarray
    n_contrib: int


def _channel_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=2), bit for bit (the same sequential sum over the channel
    slices, then / C), without the reduction's overhead on 1-3 channels."""
    total = x[..., 0]
    for c in range(1, x.shape[2]):
        total = total + x[..., c]
    return total / x.shape[2]


def _image_gradient_weights(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = _channel_mean(np.abs(target[:, 1:, :] - target[:, :-1, :]))
    gy = _channel_mean(np.abs(target[1:, :, :] - target[:-1, :, :]))
    return np.exp(-gx), np.exp(-gy)


def _smoothness_forward(depth, edge_weights) -> tuple[float, _SmoothCache]:
    """Mean of |dx dhat| exp(-|dx I|) + |dy dhat| exp(-|dy I|) over pixels
    with valid forward differences, dhat the mean-normalized disparity.
    edge_weights is _image_gradient_weights(target), which depends only on
    the target image, so callers compute it once per evaluation."""
    valid = depth > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise InvalidDepthError("smoothness needs at least one valid depth")
    disp = np.where(valid, 1.0 / np.where(valid, depth, 1.0), 0.0)
    mean_disp = float(np.sum(disp)) / n_valid
    dhat = disp / mean_disp

    wx_full, wy_full = edge_weights
    dx = dhat[:, 1:] - dhat[:, :-1]
    dy = dhat[1:, :] - dhat[:-1, :]

    # A pixel contributes when itself and both forward neighbors are valid.
    contrib = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1]
    n_contrib = int(contrib.sum())
    if n_contrib == 0:
        raise InvalidDepthError("no interior pixel with valid forward differences")

    dx_in = dx[:-1, :]
    dy_in = dy[:, :-1]
    wx = wx_full[:-1, :]
    wy = wy_full[:, :-1]
    value = float(np.sum((np.abs(dx_in) * wx + np.abs(dy_in) * wy) * contrib)) / n_contrib
    cache = _SmoothCache(
        valid, disp, float(mean_disp), n_valid,
        np.sign(dx_in), np.sign(dy_in), wx, wy, contrib, n_contrib,
    )
    return value, cache


def _smoothness_backward(cache: _SmoothCache, depth: np.ndarray) -> np.ndarray:
    """d(smoothness)/d(depth); zero at invalid pixels."""
    valid, disp, mean_disp, n_valid, sign_dx, sign_dy, wx, wy, contrib, n_contrib = cache
    gx = sign_dx * wx * contrib / n_contrib
    gy = sign_dy * wy * contrib / n_contrib

    d_dhat = np.zeros(depth.shape)
    d_dhat[:-1, 1:] += gx
    d_dhat[:-1, :-1] -= gx
    d_dhat[1:, :-1] += gy
    d_dhat[:-1, :-1] -= gy

    # dhat = disp / mean(disp over valid)
    dot = (d_dhat * disp).sum()
    d_disp = d_dhat / mean_disp - dot / (mean_disp * mean_disp * n_valid)
    return np.where(valid, -d_disp * disp * disp, 0.0)


def _labeled(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Pixels holding both a label and a valid prediction."""
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} does not match labels {gt.shape}")
    shared = (gt > 0) & (pred > 0)
    if not shared.any():
        raise NoSupervisionError("no pixel with both a label and a valid prediction")
    return shared


def _rep_distance(pred, gt, pose, k, want_grad):
    """Reprojected distance of float64 (H, W) rasters through one pose: the
    mean pixel distance between projected predicted and true label points.

    Returns (RepLoss, d_pred, d_pose6); the gradients w.r.t. pred and the 6
    pose parameters are None unless want_grad.
    """
    shared = _labeled(pred, gt)
    rows, cols = np.nonzero(shared)
    rays = k.pixel_rays()[rows, cols]
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    d_hat = pred[rows, cols]
    d_true = gt[rows, cols]
    x_hat = (d_hat[:, None] * rays) @ rot.T + t
    x_true = (d_true[:, None] * rays) @ rot.T + t

    front = (x_hat[:, 2] > geometry.EPS_Z) & (x_true[:, 2] > geometry.EPS_Z)
    dropped = int((~front).sum())
    count = int(front.sum())
    if count == 0:
        raise NoSupervisionError("every label projects behind the camera")

    rows, cols, rays = rows[front], cols[front], rays[front]
    d_hat, d_true = d_hat[front], d_true[front]
    x_hat, x_true = x_hat[front], x_true[front]

    def _proj(p):
        return np.stack(
            [k.fx * p[:, 0] / p[:, 2] + k.cx, k.fy * p[:, 1] / p[:, 2] + k.cy], axis=1
        )

    e = _proj(x_hat) - _proj(x_true)
    norms = np.sqrt((e * e).sum(axis=1))
    rep = RepLoss(float(np.sum(norms)) / count, count, dropped)
    if not want_grad:
        return rep, None, None

    # beta = e / |e| with the zero subgradient at |e| = 0
    safe = np.where(norms > 0, norms, 1.0)
    beta = np.where(norms[:, None] > 0, e / safe[:, None], 0.0)

    jac_hat = geometry.projection_jacobian(x_hat, k)
    jac_true = geometry.projection_jacobian(x_true, k)
    g_hat = np.einsum("ni,nij->nj", beta, jac_hat) / count
    g_true = np.einsum("ni,nij->nj", beta, jac_true) / count

    d_pred = np.zeros_like(pred)
    # dX_hat/dd = R @ ray; only the predicted branch depends on pred
    np.add.at(d_pred, (rows, cols), np.einsum("nj,nj->n", g_hat, rays @ rot.T))

    d_pose = np.zeros(6)
    p_hat = d_hat[:, None] * rays
    p_true = d_true[:, None] * rays
    for i, drot in enumerate(pose.rotation_jacobians()):
        d_pose[i] = np.einsum("nj,nj->", g_hat, p_hat @ drot.T) - np.einsum(
            "nj,nj->", g_true, p_true @ drot.T
        )
    d_pose[3:] = (g_hat - g_true).sum(axis=0)
    return rep, d_pred, d_pose


def _depth_error(pred, gt, mode, want_grad):
    """Mean L1 or BerHu depth error over labeled pixels.

    BerHu is |e| up to c = 0.2 * max|e| and (e^2 + c^2) / (2c) beyond.
    Returns (value, label count, d_pred); d_pred is None unless want_grad.
    """
    shared = _labeled(pred, gt)
    err = (pred - gt)[shared]
    count = int(shared.sum())
    abs_err = np.abs(err)
    if mode == "l1":
        value = float(abs_err.mean())
        d_err = np.sign(err) / count
    else:
        c = 0.2 * float(abs_err.max())
        if c <= 0:
            value = 0.0
            d_err = np.zeros_like(err)
        else:
            quad = (err * err + c * c) / (2.0 * c)
            value = float(np.where(abs_err <= c, abs_err, quad).mean())
            d_err = np.where(abs_err <= c, np.sign(err), err / c) / count
    if not want_grad:
        return value, count, None
    d_pred = np.zeros_like(pred)
    d_pred[shared] = d_err
    return value, count, d_pred


def _supervised(depth, labels, context, k, mode, weight, d_depth, d_poses):
    """The supervised term: the reprojected distance averaged over the
    context poses, or the pose-free L1 / BerHu depth error.

    Returns (value, label count, labels dropped behind the camera). When the
    gradient buffers are given (not None), adds d(weight * value) to them.
    """
    want_grad = d_depth is not None
    if mode != "rep":
        value, count, d_pred = _depth_error(depth, labels, mode, want_grad)
        if want_grad:
            d_depth += weight * d_pred
        return value, count, 0
    value, count, dropped = 0.0, 0, 0
    scale = weight / len(context)
    for s, (_, pose) in enumerate(context):
        rep, d_pred, d_pose6 = _rep_distance(depth, labels, pose, k, want_grad)
        value += rep.value / len(context)
        count = max(count, rep.count)
        dropped += rep.dropped
        if want_grad:
            d_depth += scale * d_pred
            d_poses[s] += scale * d_pose6
    return value, count, dropped


def _interp_taps(n_out: int, n_in: int):
    """Lower tap, upper tap and upper weight of corner-aligned linear
    interpolation from n_in to n_out samples (output i sits at input
    coordinate i * (n_in - 1) / (n_out - 1))."""
    if n_in == 1:
        zeros = np.zeros(n_out, dtype=np.intp)
        return zeros, zeros, np.zeros(n_out)
    s = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    j0 = np.minimum(s.astype(np.intp), n_in - 2)
    return j0, j0 + 1, s - j0


def _upsample(x: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    """Corner-aligned linear upsampling of x to n_out samples along axis."""
    j0, j1, frac = _interp_taps(n_out, x.shape[axis])
    shape = (-1, 1) if axis == 0 else (1, -1)
    frac = frac.reshape(shape)
    return np.take(x, j0, axis=axis) * (1.0 - frac) + np.take(x, j1, axis=axis) * frac


def _upsample_t(g: np.ndarray, n_in: int, axis: int) -> np.ndarray:
    """Exact transpose of _upsample: scatters g back onto n_in samples.

    Both taps are nondecreasing in the output index, so each tap's
    contributions to one input sample are a contiguous run and reduceat sums
    them without a scatter.
    """
    j0, j1, frac = _interp_taps(g.shape[axis], n_in)
    shape = (-1, 1) if axis == 0 else (1, -1)
    frac = frac.reshape(shape)
    out_shape = list(g.shape)
    out_shape[axis] = n_in
    out = np.zeros(out_shape)
    index = [slice(None), slice(None)]
    for taps, part in ((j0, g * (1.0 - frac)), (j1, g * frac)):
        starts = np.flatnonzero(np.diff(taps, prepend=-1))
        index[axis] = taps[starts]
        out[tuple(index)] += np.add.reduceat(part, starts, axis=axis)
    return out


def _pool(x: np.ndarray, f: int) -> np.ndarray:
    """f x f block average (h and w divisible by f)."""
    h, w = x.shape
    return x.reshape(h // f, f, w // f, f).mean(axis=(1, 3))


def _pool_t(g: np.ndarray, f: int) -> np.ndarray:
    """Exact transpose of _pool: spreads each value evenly over its block."""
    h, w = g.shape
    spread = np.broadcast_to((g / (f * f))[:, None, :, None], (h, f, w, f))
    return spread.reshape(h * f, w * f)


class _PyramidLevel(NamedTuple):
    depth: np.ndarray
    # The level's depth is the full-resolution depth average-pooled over
    # factor x factor blocks, then upsampled back to full size (corner-aligned
    # linear, rows then columns); factor is 1 at level 0 (identity). Both
    # operators are separable and _pyramid_level_t applies their transpose.
    factor: int


def _pyramid_level_t(g: np.ndarray, f: int) -> np.ndarray:
    """Transpose of the level operator: maps d(loss)/d(level depth) to
    d(loss)/d(full-resolution depth)."""
    h, w = g.shape
    return _pool_t(_upsample_t(_upsample_t(g, w // f, axis=1), h // f, axis=0), f)


def _build_pyramid(depth: np.ndarray, num_scales: int) -> list[_PyramidLevel]:
    """Every level of the pyramid; the image sides must divide by the
    coarsest factor 2**(num_scales - 1), a ConfigError otherwise."""
    h, w = depth.shape
    levels = [_PyramidLevel(depth, 1)]
    for s in range(1, num_scales):
        f = 2**s
        if h % f or w % f:
            raise ConfigError(
                f"image {h}x{w} is not divisible by {f}; cannot build {num_scales} scales"
            )
        level = _upsample(_upsample(_pool(depth, f), h, axis=0), w, axis=1)
        levels.append(_PyramidLevel(level, f))
    return levels


def _objective(target, context, depth, k, weights, labels, num_scales, supervised,
               want_grad, unwarped_min, terms):
    """Forward (and optional backward) pass of the objective over the terms
    named in ``terms``; the others are neither computed nor reported (their
    breakdown fields read 0).

    Returns (breakdown, d_depth, d_poses) where d_poses is (S, 6); the
    gradient outputs are None when want_grad is False.
    """
    target = warp.validate_image(target)
    _validate_context(target, context)
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (k.height, k.width) or target.shape[:2] != depth.shape:
        raise DimensionError("target, depth and intrinsics dimensions disagree")
    if supervised not in SUPERVISED:
        raise ValueError(f"unknown supervised term {supervised!r}")
    if num_scales < 1:
        raise ValueError("num_scales must be >= 1")
    unknown = set(terms) - set(TERMS)
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}")
    use_photo = "photo" in terms
    use_smooth = "smooth" in terms
    use_rep = "rep" in terms and labels is not None and weights.lambda_rep > 0

    if use_photo and unwarped_min is None:
        unwarped_min = unwarped_min_photometric(target, context, weights.alpha)
    if use_photo and want_grad:
        planes = k.pixel_ray_planes()
        ray_dirs = [
            (pose.rotation_matrix() @ planes.reshape(3, -1)).reshape(planes.shape)
            for _, pose in context
        ]
    if use_smooth:
        edge_weights = _image_gradient_weights(target)

    levels = _build_pyramid(depth, num_scales)
    photo_total = smooth_total = 0.0
    masked_count = 0
    d_depth = np.zeros_like(depth) if want_grad else None
    d_poses = np.zeros((len(context), 6)) if want_grad else None

    for li, level in enumerate(levels):
        level_w = 2.0**-li
        if use_photo:
            value, photo_term = _photo_forward(
                target, context, level.depth, k, weights.alpha, unwarped_min
            )
            photo_total += value
            if li == 0:
                masked_count = photo_term.count
        if use_smooth:
            value, smooth_cache = _smoothness_forward(level.depth, edge_weights)
            smooth_total += level_w * value
        if not want_grad:
            continue

        d_level = np.zeros_like(level.depth)
        if use_photo:
            _photo_backward(photo_term, context, k, ray_dirs, len(levels), d_level, d_poses)
        smooth_up = weights.lambda_smooth * level_w / len(levels)
        if use_smooth and smooth_up != 0.0:
            d_level += smooth_up * _smoothness_backward(smooth_cache, level.depth)
        if level.factor == 1:
            d_depth += d_level
        else:
            d_depth += _pyramid_level_t(d_level, level.factor)

    photo = photo_total / len(levels)
    smooth = smooth_total / len(levels)

    rep_val, rep_count, rep_dropped = 0.0, 0, 0
    if use_rep:
        rep_val, rep_count, rep_dropped = _supervised(
            depth, np.asarray(labels, dtype=np.float64), context, k, supervised,
            weights.lambda_rep, d_depth, d_poses,
        )

    total = photo + weights.lambda_smooth * smooth + weights.lambda_rep * rep_val
    breakdown = LossBreakdown(
        photo=photo,
        smooth=smooth,
        rep=rep_val,
        total=total,
        masked_pixel_count=masked_count,
        rep_pixel_count=rep_count,
        rep_dropped_behind=rep_dropped,
    )
    return breakdown, d_depth, d_poses


def total_loss(
    target: np.ndarray,
    context: ContextSet,
    depth: np.ndarray,
    k: CameraIntrinsics,
    weights: LossWeights,
    labels: np.ndarray | None = None,
    num_scales: int = 1,
    supervised: str = "rep",
    unwarped_min: np.ndarray | None = None,
    terms: Sequence[str] = TERMS,
) -> LossBreakdown:
    """Evaluate the full objective; see the module docstring for the terms.

    The photometric term averages the per-pixel minimum over sources, over
    pixels kept by both the static-pixel mask and warp validity. The
    supervised term is averaged over context poses. labels is a sparse depth
    raster (0 = unlabeled); it may be omitted when lambda_rep is 0.
    unwarped_min can carry a precomputed unwarped_min_photometric map (it is
    constant while depth and poses change). ``terms`` selects a subset of
    "photo", "smooth" and "rep" so each can be verified in isolation.
    """
    breakdown, _, _ = _objective(
        target, context, depth, k, weights, labels, num_scales, supervised,
        want_grad=False, unwarped_min=unwarped_min, terms=terms,
    )
    return breakdown


def total_loss_grad(
    target: np.ndarray,
    context: ContextSet,
    depth: np.ndarray,
    k: CameraIntrinsics,
    weights: LossWeights,
    labels: np.ndarray | None = None,
    num_scales: int = 1,
    supervised: str = "rep",
    unwarped_min: np.ndarray | None = None,
    terms: Sequence[str] = TERMS,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Objective value plus exact gradients w.r.t. every depth pixel and the
    6 pose parameters (alpha, beta, gamma, tx, ty, tz) of every context.

    Masks, argmin source selections and validity flags are held constant, so
    these are the piecewise gradients away from switching boundaries.
    """
    return _objective(
        target, context, depth, k, weights, labels, num_scales, supervised,
        want_grad=True, unwarped_min=unwarped_min, terms=terms,
    )
