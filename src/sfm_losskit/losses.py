"""Objective-function terms over depth/pose parameters, with exact gradients.

The objective combines a per-pixel minimum photometric term gated by a
static-pixel mask, an edge-aware smoothness regularizer on mean-normalized
disparity, and a supervised term over sparse labels (the reprojected
distance, or the L1 / BerHu depth error it is compared against):

    total = photo + lambda_smooth * smooth + lambda_rep * rep

Each term exists once in private code: the photometric and smoothness
terms as forward/backward pairs, the supervised term as one function with an
optional gradient. `_objective` only validates its inputs, builds the depth
pyramid and sums the terms. The public helpers (`photometric`, `min_photometric`, `automask`, `smoothness`,
`reprojected_distance`, `baseline_l1`, `baseline_berhu`) validate their
arguments and then call the same private functions, so what they compute is
exactly what the optimizer minimizes.

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
    DegenerateMaskError,
    DimensionError,
    EmptyContextError,
    InvalidDepthError,
    NoSupervisionError,
)
from .geometry import CameraIntrinsics, PoseSE3

# SSIM stabilizers for unit data range, and the uniform window radius.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
SSIM_RADIUS = 1

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


def _box_sum(x: np.ndarray, radius: int = SSIM_RADIUS) -> np.ndarray:
    """Windowed sum over (2r+1)^2 boxes; windows shrink at the borders.

    Separable: 2r+1 row shifts, then 2r+1 column shifts. The window is
    symmetric, so the operator is self-adjoint, which the SSIM backward pass
    relies on. An output depends only on the inputs inside its window (no
    integral images), so a one-pixel input change leaves every output outside
    that pixel's window bit-identical; finite-difference checks rely on that.
    """
    rows = x.copy()
    for d in range(1, radius + 1):
        rows[d:] += x[:-d]
        rows[:-d] += x[d:]
    out = rows.copy()
    for d in range(1, radius + 1):
        out[:, d:] += rows[:, :-d]
        out[:, :-d] += rows[:, d:]
    return out


class _SsimChannelCache(NamedTuple):
    mu_x: np.ndarray
    mu_y: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    cov: np.ndarray
    n: np.ndarray
    ssim: np.ndarray


def _ssim_channel(a, b, m, n) -> _SsimChannelCache:
    """SSIM map of one channel; window statistics use valid pixels only and
    n is the valid-pixel count of each window."""
    c1, c2 = SSIM_C1, SSIM_C2
    mu_x = _box_sum(a * m) / n
    mu_y = _box_sum(b * m) / n
    var_x = _box_sum(a * a * m) / n - mu_x * mu_x
    var_y = _box_sum(b * b * m) / n - mu_y * mu_y
    cov = _box_sum(a * b * m) / n - mu_x * mu_y
    s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return _SsimChannelCache(mu_x, mu_y, var_x, var_y, cov, n, s)


def _ssim_channels(a, b, m) -> list[_SsimChannelCache]:
    """Per-channel SSIM caches of (H, W, C) images under the (H, W) float
    mask m; the window count depends on the mask only, so it is computed
    once and shared by every channel."""
    n = np.maximum(_box_sum(m), 1.0)
    return [_ssim_channel(a[..., c], b[..., c], m, n) for c in range(a.shape[2])]


def _ssim_channel_grad_b(cache: _SsimChannelCache, a, b, m, g):
    """d(sum g * ssim)/db, the exact adjoint of _ssim_channel in its second arg."""
    mu_x, mu_y, var_x, var_y, cov, n, s = cache
    c1, c2 = SSIM_C1, SSIM_C2
    num_l = 2 * mu_x * mu_y + c1
    num_c = 2 * cov + c2
    den_l = mu_x * mu_x + mu_y * mu_y + c1
    den_c = var_x + var_y + c2

    d_num = g / (den_l * den_c)
    d_num_l = d_num * num_c
    d_num_c = d_num * num_l
    d_den_l = -g * s / den_l
    d_den_c = -g * s / den_c

    d_mu_y = 2 * mu_x * d_num_l + 2 * mu_y * d_den_l
    d_cov = 2 * d_num_c
    d_var_y = d_den_c

    # var_y = box(b*b*m)/n - mu_y^2 ; cov = box(a*b*m)/n - mu_x*mu_y
    d_mu_y += -2 * mu_y * d_var_y - mu_x * d_cov
    db = m * (
        _box_sum(d_mu_y / n)
        + _box_sum(d_cov / n) * a
        + _box_sum(d_var_y / n) * 2 * b
    )
    return db


def ssim(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel SSIM map in [-1, 1], per channel then channel-averaged; the
    photometric term runs the same per-channel computation.

    Window statistics are uniform over the 3x3 box (SSIM_RADIUS 1), restricted
    to valid pixels when a mask is given (windows shrink at image borders the
    same way); SSIM_C1 and SSIM_C2 stabilize them.
    """
    a = warp.validate_image(a)
    b = warp.validate_image(b)
    if a.shape != b.shape:
        raise DimensionError(f"image shapes differ: {a.shape} vs {b.shape}")
    m = np.ones(a.shape[:2]) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != a.shape[:2]:
        raise DimensionError(f"mask shape {m.shape} does not match image {a.shape}")
    out = np.zeros(a.shape[:2])
    for cache in _ssim_channels(a, b, m):
        out += cache.ssim
    return out / a.shape[2]


class _PhotoCache(NamedTuple):
    target: np.ndarray
    synth: np.ndarray
    mask_f: np.ndarray
    alpha: float
    ssim_caches: list


def _photometric_forward(target, synth, mask, alpha) -> tuple[np.ndarray, _PhotoCache]:
    m = mask.astype(np.float64)
    channels = target.shape[2]
    loss = np.zeros(target.shape[:2])
    caches = _ssim_channels(target, synth, m)
    for c, cache in enumerate(caches):
        # clip guards float dust pushing SSIM past 1 on identical windows
        loss += alpha * np.clip((1.0 - cache.ssim) / 2.0, 0.0, 1.0)
        loss += (1.0 - alpha) * np.abs(target[..., c] - synth[..., c])
    loss /= channels
    loss[~mask] = np.inf
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
        synth, mask = warp.sample_bilinear(src, chain.coords, chain.valid)
        loss_map, cache = _photometric_forward(target, synth, mask, alpha)
        chains.append(chain)
        caches.append(cache)
        maps.append(loss_map)
    return chains, caches, maps


def _min_over_sources(maps: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimum over the per-source loss maps and its argmin."""
    stacked = np.stack(maps, axis=0)
    return stacked.min(axis=0), stacked.argmin(axis=0)


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


def photometric(
    target: np.ndarray, synth: np.ndarray, mask: np.ndarray, alpha: float
) -> np.ndarray:
    """Appearance-matching loss map: alpha*(1-SSIM)/2 + (1-alpha)*L1, the
    per-source map of the objective's photometric term.

    Channel-averaged; invalid pixels are set to +inf and must be excluded
    from any reduction by the caller.
    """
    target = warp.validate_image(target)
    synth = warp.validate_image(synth)
    if target.shape != synth.shape:
        raise DimensionError(f"image shapes differ: {target.shape} vs {synth.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != target.shape[:2]:
        raise DimensionError(f"mask shape {mask.shape} does not match {target.shape}")
    loss, _ = _photometric_forward(target, synth, mask, float(alpha))
    return loss


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


def automask(
    target: np.ndarray,
    context: ContextSet,
    warped_losses: Sequence[np.ndarray],
    unwarped_losses: Sequence[np.ndarray],
) -> np.ndarray:
    """Static-pixel mask of the objective: keep pixels whose unwarped loss
    strictly exceeds the warped one (both min-reduced over sources)."""
    target = warp.validate_image(target)
    _validate_context(target, context)
    if len(warped_losses) != len(context) or len(unwarped_losses) != len(context):
        raise DimensionError("loss stacks must have one map per context source")
    shape = target.shape[:2]
    for m in list(warped_losses) + list(unwarped_losses):
        if np.asarray(m).shape != shape:
            raise DimensionError(f"loss map shape {np.asarray(m).shape} != {shape}")
    min_warped, _ = _min_over_sources(warped_losses)
    min_unwarped, _ = _min_over_sources(unwarped_losses)
    return _static_mask(min_unwarped, min_warped)


def unwarped_min_photometric(
    target: np.ndarray, context: ContextSet, alpha: float
) -> np.ndarray:
    """Min over sources of the photometric loss against the raw (unwarped)
    source images; constant during optimization, so callers may cache it."""
    target = warp.validate_image(target)
    _validate_context(target, context)
    ones = np.ones(target.shape[:2], dtype=bool)
    min_map, _ = _min_over_sources([photometric(target, src, ones, alpha) for src, _ in context])
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
    """edge_weights is _image_gradient_weights(target), which depends only
    on the target image, so callers compute it once per evaluation."""
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


def smoothness(depth: np.ndarray, target: np.ndarray) -> float:
    """Edge-aware smoothness of mean-normalized disparity (forward
    differences), the objective's smoothness term at one pyramid level.

    Mean over interior pixels whose forward differences exist and are valid of
    |dx dhat| * exp(-|dx I|) + |dy dhat| * exp(-|dy I|).
    """
    depth = np.asarray(depth, dtype=np.float64)
    target = warp.validate_image(target)
    if depth.shape != target.shape[:2]:
        raise DimensionError(f"depth {depth.shape} does not match image {target.shape}")
    value, _ = _smoothness_forward(depth, _image_gradient_weights(target))
    return value


def _labeled(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Pixels holding both a label and a valid prediction."""
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} does not match labels {gt.shape}")
    shared = (gt > 0) & (pred > 0)
    if not shared.any():
        raise NoSupervisionError("no pixel with both a label and a valid prediction")
    return shared


def _rep_distance(pred, gt, pose, k, want_grad):
    """Reprojected distance of float64 (H, W) rasters through one pose.

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


def reprojected_distance(
    pred: np.ndarray,
    gt_sparse: np.ndarray,
    pose: PoseSE3,
    k: CameraIntrinsics,
) -> RepLoss:
    """Mean image-space distance between projections of predicted and true
    3-D points of each labeled pixel, as seen through the given pose; the
    objective's supervised term averages it over the context poses."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt_sparse, dtype=np.float64)
    if pred.shape != (k.height, k.width):
        raise DimensionError(f"depth {pred.shape} does not match intrinsics")
    rep, _, _ = _rep_distance(pred, gt, pose, k, want_grad=False)
    return rep


def baseline_l1(pred: np.ndarray, gt_sparse: np.ndarray) -> float:
    """Mean absolute depth error over labeled pixels (the objective's
    supervised term with supervised="l1")."""
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt_sparse, dtype=np.float64)
    return _depth_error(pred, gt, "l1", want_grad=False)[0]


def baseline_berhu(pred: np.ndarray, gt_sparse: np.ndarray) -> float:
    """Reverse Huber over labeled pixels: |e| up to c, (e^2 + c^2) / (2c)
    beyond, with c = 0.2 * max|e| (the objective's supervised term with
    supervised="berhu")."""
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt_sparse, dtype=np.float64)
    return _depth_error(pred, gt, "berhu", want_grad=False)[0]


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
    h, w = depth.shape
    levels = [_PyramidLevel(depth, 1)]
    for s in range(1, num_scales):
        f = 2**s
        if h % f or w % f:
            raise DimensionError(
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
