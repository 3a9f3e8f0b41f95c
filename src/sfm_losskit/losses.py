"""Objective-function terms over depth/pose parameters, with exact gradients.

The objective combines a per-pixel minimum photometric term gated by a
static-pixel mask, an edge-aware smoothness regularizer on mean-normalized
disparity, and a supervised term over sparse labels (the reprojected
distance, or the L1 / BerHu depth error it is compared against):

    total = photo + lambda_smooth * smooth + lambda_rep * rep

An `Objective` is built once per scene, weights and terms: it validates
the images, the labels and the settings once and holds what every
evaluation shares (see its docstring). The public entry points take the
objective, one pose per context image and the depth map, in that order:
`total_loss`, `total_loss_grad` (value and exact gradients) and
`min_photometric` (the per-pixel minimum over sources and its argmin);
`unwarped_min_photometric` computes the static-pixel mask's reference once
per objective. An evaluation checks only the depth and the poses, then
calls the private code, where each term exists once: the photometric and
smoothness terms as forward/backward pairs, the supervised term as
`_supervised`, whose three losses return a gradient per label, added into
the depth gradient at the label pixels only. So what an entry point
computes is exactly what the optimizer minimizes.

Gradients are derived by hand as exact adjoints of the forward computation
(masks and argmin selections are treated as constants), so they match
central finite differences away from the measure-zero switching sets, with
one exception: BerHu's gradient holds its threshold c = 0.2 max|e| fixed,
though c moves with the prediction, so it differs from a finite difference
at the label of largest error. Two properties keep those differences
meaningful: every windowed operator is local (a one-pixel change leaves
outputs outside its window bit-identical), and scalar reductions are plain
``np.sum`` calls, which are deterministic for a fixed shape. The windowed
and pyramid operators are separable, and each backward pass applies their
exact transposes. Images are (C, H, W) float arrays in [0, 1]. Depth maps
are (H, W), finite and above the in-front cut-off geometry.EPS_Z at every
pixel (smoothness works on disparity 1 / depth, at most 1e6): that is the
objective's one precondition, checked where depth enters it, so the terms
handle no holes. Label rasters hold 0 where unlabeled. Per-pixel loss maps
carry +inf where the warp is invalid, which every reduction here excludes
by mask.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
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
    """Mixing weights of the objective. alpha 0.85 and lambda_smooth 1e-3
    follow Monodepth2. lambda_rep 1e4 cannot be checked against the paper,
    whose full text the repository does not hold (PAPER.md has only the
    abstract); configs/example_plane.cfg sets 0.01."""

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
    """Per-channel SSIM caches of (C, H, W) images under the (H, W) 0/1
    float mask m; the window count depends on the mask only, so it is
    computed once and shared by every channel."""
    n = np.maximum(_box_sum(m), 1.0)
    return [_ssim_channel(a[c], b[c], m, n) for c in range(a.shape[0])]


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
    channels = target.shape[0]
    loss = np.zeros(target.shape[1:])
    caches = _ssim_channels(target, synth, m)
    for c, cache in enumerate(caches):
        # clip guards float dust pushing SSIM past 1 on identical windows
        dssim = 1.0 - cache.ssim
        dssim /= 2.0
        dssim.clip(0.0, 1.0, out=dssim)
        dssim *= alpha
        loss += dssim
        loss += (1.0 - alpha) * np.abs(target[c] - synth[c])
    loss /= channels
    np.copyto(loss, np.inf, where=~mask)
    return loss, _PhotoCache(target, synth, m, alpha, caches)


def _photometric_backward(cache: _PhotoCache, upstream: np.ndarray) -> np.ndarray:
    """d(sum upstream * loss_map)/d(synth); upstream must be 0 at invalid pixels."""
    target, synth, m, alpha, caches = cache
    channels = target.shape[0]
    u = upstream / channels
    d_synth = np.empty_like(synth)
    for c in range(channels):
        diff = synth[c] - target[c]
        db = (1.0 - alpha) * np.sign(diff) * u
        active = (caches[c].ssim > -1.0) & (caches[c].ssim < 1.0)
        db += _ssim_channel_grad_b(
            caches[c], target[c], synth[c], m, -0.5 * alpha * u * active
        )
        d_synth[c] = db
    return d_synth


class _Reference(NamedTuple):  # one context at one level, see `Objective`
    coords: np.ndarray
    valid: np.ndarray
    loss_map: np.ndarray


def _moved_boxes(old, coords, valid):
    """Bounds (r0, r1, c0, c1) of the pixels whose warp differs from the
    reference ``old``, grown by 2 and by 1 within the image: the whole image
    twice without a reference, None if no pixel moved."""
    h, w = valid.shape
    if old is None:
        return (0, h, 0, w), (0, h, 0, w)
    moved = (valid != old.valid) | (coords != old.coords).any(axis=0)
    rows, cols = np.flatnonzero(moved.any(axis=1)), np.flatnonzero(moved.any(axis=0))
    if not rows.size:
        return None
    return [(max(rows[0] - g, 0), min(rows[-1] + 1 + g, h), max(cols[0] - g, 0),
             min(cols[-1] + 1 + g, w)) for g in (2, 1)]


def _warped_losses(objective, poses, depth, level=0, want_grad=False):
    """Warp every context image into the target view at this depth and pose
    and score it.

    Returns per context the warp chain's points with its sampling state, the
    photometric cache and the photometric loss map (+inf where invalid). A
    gradient evaluation scores the whole image and records the objective's
    reference, if it keeps one. A forward evaluation against a reference
    samples and scores only the box of pixels whose warp moved, grown by 2
    (the sampling state and cache cover that box; None if nothing moved).
    A loss pixel reads only its 3x3 window, so the box grown by 1, pasted
    into the reference's loss map, gives the bits a whole-image scoring would.
    """
    target, k, alpha = objective.target, objective.k, objective.weights.alpha
    reference, shape = objective._reference, target.shape[1:]
    scored = []
    for s, (src, pose) in enumerate(zip(objective.images, poses)):
        points, coords, valid = geometry.warp_chain(depth, pose, k)
        old = None if reference is None or want_grad else reference[level, s]
        boxes = _moved_boxes(old, coords, valid)
        if boxes is None:
            scored.append((None, None, old.loss_map))
            continue
        (r0, r1, c0, c1), (i0, i1, j0, j1) = boxes
        at = warp.sampling(coords[:, r0:r1, c0:c1], valid[r0:r1, c0:c1], shape)
        if reference is None:
            del coords  # the state stands in for it, freed before the scoring
        synth = warp.sample_bilinear(src, at)
        loss_map, cache = _photometric_forward(target[:, r0:r1, c0:c1], synth,
                                               valid[r0:r1, c0:c1], alpha)
        if old is not None:
            patch, loss_map = loss_map, old.loss_map.copy()
            loss_map[i0:i1, j0:j1] = patch[i0 - r0:i1 - r0, j0 - c0:j1 - c0]
        elif reference is not None:
            reference[level, s] = _Reference(coords, valid, loss_map)
        scored.append(((points, at), cache, loss_map))
    return tuple(zip(*scored))


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
    warps: list
    caches: list
    argmin: np.ndarray
    mask: np.ndarray
    count: int


def _photo_forward(objective, poses, depth, level, want_grad) -> tuple[float, _PhotoTerm]:
    """Mean of the per-pixel minimum photometric loss over the pixels kept
    by the static-pixel mask."""
    warps, caches, maps = _warped_losses(objective, poses, depth, level, want_grad)
    min_map, argmin = _min_over_sources(maps)
    mask = _static_mask(objective.unwarped_min, min_map)
    count = int(mask.sum())
    if count == 0:
        raise DegenerateMaskError("static-pixel mask and warp validity removed every pixel")
    value = float(np.sum(np.where(mask, min_map, 0.0))) / count
    return value, _PhotoTerm(depth, warps, caches, argmin, mask, count)


def _photo_backward(term: _PhotoTerm, objective, poses, ray_dirs, n_levels, d_level,
                    d_poses) -> None:
    """Adds d(photo value / n_levels) to d_level (the gradient w.r.t. this
    pyramid level's depth) and to d_poses.

    ray_dirs[s] is the (3, H, W) planes of R_s @ ray per pixel, i.e.
    d(source point)/d(depth).
    """
    k = objective.k
    upstream = term.mask / (term.count * n_levels)
    p_target = (term.depth * k.pixel_rays()).reshape(3, -1)
    for s, (src, pose) in enumerate(zip(objective.images, poses)):
        u_s = np.where(term.argmin == s, upstream, 0.0)
        if not u_s.any():
            continue
        points, at = term.warps[s]
        d_synth = _photometric_backward(term.caches[s], u_s)
        d_coords = warp.sample_bilinear_grad(src, d_synth, at)
        # g3 = d(loss)/d(source point) = J^T (du, dv) as (3, H, W) planes,
        # from the two rows of J; the pinhole's J[0, 1] and J[1, 0] are 0
        jac = geometry.projection_jacobian(points, k)
        du, dv = d_coords
        g3 = np.empty((3,) + du.shape)
        np.multiply(jac[0, 0], du, out=g3[0])
        np.multiply(jac[1, 1], dv, out=g3[1])
        np.multiply(jac[0, 2], du, out=g3[2])
        g3[2] += jac[1, 2] * dv
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


def _checked_depth(objective, depth) -> np.ndarray:
    """depth as float64, checked for the objective's one precondition and for
    the image's shape; its lower bound EPS_Z is the in-front cut-off, as a
    target pixel's point has target-frame z equal to its depth."""
    depth = np.asarray(depth, dtype=np.float64)
    ok = (depth > geometry.EPS_Z) & (depth < np.inf)
    if not ok.all():
        bad = ok.size - int(ok.sum())
        raise InvalidDepthError(f"depth is not finite and > EPS_Z at {bad} pixel(s)")
    if depth.shape != objective.target.shape[1:]:
        raise DimensionError(f"depth {depth.shape} != image {objective.target.shape[1:]}")
    return depth


def _check_poses(objective, poses) -> None:
    """One PoseSE3 (target -> context) per context image."""
    if len(poses) != len(objective.images):
        raise DimensionError(f"{len(poses)} poses for {len(objective.images)} context images")
    for i, pose in enumerate(poses):
        if not isinstance(pose, PoseSE3):
            raise TypeError(f"context {i} pose must be PoseSE3, got {type(pose)!r}")


def min_photometric(objective: Objective, poses: Sequence[PoseSE3],
                    depth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimum photometric loss over the objective's warped context
    images, as its photometric term computes it before the static-pixel mask.

    Returns the min-reduced loss map (+inf where no source is valid) and the
    argmin source index map (-1 where no source is valid). Raises
    InvalidDepthError unless depth is finite and above EPS_Z at every pixel.
    """
    depth = _checked_depth(objective, depth)
    _check_poses(objective, poses)
    _, _, maps = _warped_losses(objective, poses, depth)
    min_map, argmin = _min_over_sources(maps)
    return min_map, np.where(np.isfinite(min_map), argmin, -1)


def unwarped_min_photometric(objective: Objective) -> np.ndarray:
    """Min over sources of the photometric loss against the raw (unwarped)
    context images: the static-pixel mask's reference, which depends on
    neither depth nor poses. The objective computes it once, as its
    ``unwarped_min``."""
    target = objective.target
    ones = np.ones(target.shape[1:], dtype=bool)
    alpha = float(objective.weights.alpha)
    maps = [_photometric_forward(target, src, ones, alpha)[0] for src in objective.images]
    min_map, _ = _min_over_sources(maps)
    return min_map


class _SmoothCache(NamedTuple):
    disp: np.ndarray
    mean_disp: float
    sign_dx: np.ndarray
    sign_dy: np.ndarray
    wx: np.ndarray
    wy: np.ndarray


def _channel_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=0), bit for bit (the same sequential sum over the channel
    planes, then / C), without the reduction's overhead on 1-3 channels."""
    total = x[0]
    for c in range(1, x.shape[0]):
        total = total + x[c]
    return total / x.shape[0]


def _image_gradient_weights(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = _channel_mean(np.abs(target[:, :, 1:] - target[:, :, :-1]))
    gy = _channel_mean(np.abs(target[:, 1:, :] - target[:, :-1, :]))
    return np.exp(-gx), np.exp(-gy)


def _smoothness_forward(depth, edge_weights) -> tuple[float, _SmoothCache]:
    """Mean of |dx dhat| exp(-|dx I|) + |dy dhat| exp(-|dy I|) over the
    pixels with both forward neighbors, dhat the mean-normalized disparity.
    edge_weights is _image_gradient_weights(target), which depends only on
    the target image, so callers compute it once per evaluation."""
    disp = 1.0 / depth
    mean_disp = float(np.sum(disp)) / disp.size
    dhat = disp / mean_disp
    dx = dhat[:-1, 1:] - dhat[:-1, :-1]
    dy = dhat[1:, :-1] - dhat[:-1, :-1]
    wx = edge_weights[0][:-1, :]
    wy = edge_weights[1][:, :-1]
    value = float(np.sum(np.abs(dx) * wx + np.abs(dy) * wy)) / dx.size
    return value, _SmoothCache(disp, mean_disp, np.sign(dx), np.sign(dy), wx, wy)


def _smoothness_backward(cache: _SmoothCache) -> np.ndarray:
    """d(smoothness)/d(depth)."""
    disp, mean_disp, sign_dx, sign_dy, wx, wy = cache
    gx = sign_dx * wx / sign_dx.size
    gy = sign_dy * wy / sign_dy.size

    d_dhat = np.zeros(disp.shape)
    d_dhat[:-1, 1:] += gx
    d_dhat[:-1, :-1] -= gx
    d_dhat[1:, :-1] += gy
    d_dhat[:-1, :-1] -= gy

    # dhat = disp / mean(disp)
    dot = (d_dhat * disp).sum()
    d_disp = d_dhat / mean_disp - dot / (mean_disp * mean_disp * disp.size)
    return -d_disp * disp * disp


class _Labels(NamedTuple):
    """The label data that depends on neither pose nor depth, shared by
    every supervised loss and built once per objective. The rays and points
    stay C-contiguous (N, 3) rows, gathered from the ray planes: the
    fingerprint pins the order of the distance's reductions over labels,
    which (3, N) planes change from about 96 labels on."""

    index: np.ndarray  # (N,) flat C-order pixel indices
    depth: np.ndarray  # (N,) label depths
    rays: np.ndarray  # (N, 3) rays of the label pixels
    points: np.ndarray  # (N, 3) unrotated label points depth * ray


def _labels(raster, k) -> _Labels:
    """The label data of a raster that holds 0 where unlabeled."""
    index = np.flatnonzero(raster > 0)
    if len(index) == 0:
        raise NoSupervisionError("no labeled pixel")
    depth = raster.reshape(-1)[index]
    rays = k.pixel_rays().reshape(3, -1).T[index]
    return _Labels(index, depth, rays, depth[:, None] * rays)


def _rep_distance(labels: _Labels, p_hat, pose, k, want_grad):
    """Reprojected distance through one pose: the mean pixel distance between
    the projected predicted and true label points.

    p_hat is the (N, 3) unrotated predicted points d_hat * ray. Returns
    (value, labels used, labels dropped behind the camera, d_pred, d_pose6):
    d_pred is the (N,) gradient per label, 0 at the dropped ones, and
    d_pose6 the gradient w.r.t. the 6 pose parameters; both are None unless
    want_grad.
    """
    rays, p_true = labels.rays, labels.points
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    x_hat = p_hat @ rot.T + t
    x_true = p_true @ rot.T + t

    front = (x_hat[:, 2] > geometry.EPS_Z) & (x_true[:, 2] > geometry.EPS_Z)
    count = int(np.count_nonzero(front))
    dropped = len(front) - count
    if count == 0:
        raise NoSupervisionError("every label projects behind the camera")
    if dropped:
        rays, p_hat, p_true = rays[front], p_hat[front], p_true[front]
        x_hat, x_true = x_hat[front], x_true[front]

    e = geometry.project(x_hat.T, k) - geometry.project(x_true.T, k)
    norms = np.sqrt((e * e).sum(axis=0))
    value = float(np.sum(norms)) / count
    if not want_grad:
        return value, count, dropped, None, None

    # beta = e / |e| with the zero subgradient at |e| = 0
    safe = np.where(norms > 0, norms, 1.0)
    beta = np.where(norms > 0, e / safe, 0.0)

    jac_hat = geometry.projection_jacobian(x_hat.T, k)
    jac_true = geometry.projection_jacobian(x_true.T, k)
    # C-order (N, 3) rows: the reductions below keep the pinned label order
    g_hat = np.einsum("in,ijn->nj", beta, jac_hat, order="C") / count
    g_true = np.einsum("in,ijn->nj", beta, jac_true, order="C") / count

    # dX_hat/dd = R @ ray; only the predicted branch depends on pred
    d_pred = np.zeros(len(front))
    d_pred[front] = np.einsum("nj,nj->n", g_hat, rays @ rot.T)

    d_pose = np.zeros(6)
    for i, drot in enumerate(pose.rotation_jacobians()):
        d_pose[i] = np.einsum("nj,nj->", g_hat, p_hat @ drot.T) - np.einsum(
            "nj,nj->", g_true, p_true @ drot.T
        )
    d_pose[3:] = (g_hat - g_true).sum(axis=0)
    return value, count, dropped, d_pred, d_pose


def _depth_error(d_hat, d_true, mode):
    """Mean L1 or BerHu error of the (N,) predicted depths d_hat against the
    label depths d_true, and its (N,) gradient per label. BerHu is |e| up to
    c = 0.2 * max|e| and (e^2 + c^2) / (2c) beyond; the gradient holds c
    fixed."""
    err = d_hat - d_true
    count = len(err)
    abs_err = np.abs(err)
    if mode == "l1":
        return float(abs_err.mean()), np.sign(err) / count
    c = 0.2 * float(abs_err.max())
    if c <= 0:
        return 0.0, np.zeros_like(err)
    quad = (err * err + c * c) / (2.0 * c)
    value = float(np.where(abs_err <= c, abs_err, quad).mean())
    return value, np.where(abs_err <= c, np.sign(err), err / c) / count


def _supervised(depth, labels: _Labels, poses, k, mode, weight, d_depth, d_poses):
    """The supervised term: the reprojected distance averaged over the
    context poses, or the pose-free L1 / BerHu depth error.

    Reads the predicted depths at the labels once for all three losses, and
    builds the reprojected distance's predicted points once for all poses.
    Returns (value, label count, labels dropped behind the camera). When the
    gradient buffers are given (not None), adds d(weight * value) to them;
    only this code adds supervised gradient to d_depth, and only at label
    pixels.
    """
    want_grad = d_depth is not None
    d_hat = depth.reshape(-1)[labels.index]
    if mode != "rep":
        value, d_pred = _depth_error(d_hat, labels.depth, mode)
        if want_grad:
            d_depth.flat[labels.index] += weight * d_pred
        return value, len(d_pred), 0
    p_hat = d_hat[:, None] * labels.rays
    value, count, dropped = 0.0, 0, 0
    scale = weight / len(poses)
    for s, pose in enumerate(poses):
        v, n, gone, d_pred, d_pose6 = _rep_distance(labels, p_hat, pose, k, want_grad)
        value += v / len(poses)
        count = max(count, n)
        dropped += gone
        if want_grad:
            d_depth.flat[labels.index] += scale * d_pred
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


def _pyramid_level_t(g: np.ndarray, f: int) -> np.ndarray:
    """Transpose of the level operator: maps d(loss)/d(level depth) to
    d(loss)/d(full-resolution depth)."""
    h, w = g.shape
    return _pool_t(_upsample_t(_upsample_t(g, w // f, axis=1), h // f, axis=0), f)


def _build_pyramid(depth: np.ndarray, num_scales: int) -> list[np.ndarray]:
    """The depth of every pyramid level. Level s has factor f = 2**s: its
    depth is the full-resolution depth average-pooled over f x f blocks,
    then upsampled back to full size (corner-aligned linear, rows then
    columns), so level 0 is the depth itself. Both operators are separable
    and _pyramid_level_t applies their transpose. The image sides divide by
    the coarsest factor 2**(num_scales - 1), which `Objective` checks."""
    h, w = depth.shape
    levels = [depth]
    for s in range(1, num_scales):
        f = 2**s
        levels.append(_upsample(_upsample(_pool(depth, f), h, axis=0), w, axis=1))
    return levels


class Objective:
    """The objective of one scene, weights and terms, evaluated at many depths
    and poses by `total_loss`, `total_loss_grad` and `min_photometric`.

    ``images`` are the context images, in the order of the poses an
    evaluation takes (PoseSE3, target -> context). ``labels`` is a sparse
    depth raster (0 = unlabeled), which may be None when lambda_rep is 0
    or "rep" is not in ``terms``. ``terms`` selects a subset of "photo",
    "smooth" and "rep"; the others are neither computed nor reported
    (their breakdown fields read 0). Building it checks, once: each image
    is a finite (C, H, W) array of the target's shape, which the
    intrinsics give (DimensionError; EmptyContextError for no image); the
    labels the supervised term reads are finite, nonnegative and not all 0
    (DimensionError, NoSupervisionError); ``supervised``, ``terms`` and
    ``num_scales`` are known, and the image sides divide by
    2**(num_scales - 1) (ConfigError). It holds the float64 images,
    ``unwarped_min`` (None without the photometric term), the smoothness
    edge weights and the label data that depends on neither pose nor depth.

    ``_reference`` is None except on `optimize.gradcheck`'s objective, which
    sets it to {}: a gradient evaluation then records per level and context
    the warp coords, validity and loss map (no SSIM caches), and a forward
    one re-scores only the pixels whose warp moved, bit-identically
    (`_warped_losses`). Threads only read it.
    """

    def __init__(self, target, images, k: CameraIntrinsics, weights: LossWeights,
                 labels=None, num_scales: int = 1, supervised: str = "rep",
                 terms: Sequence[str] = TERMS):
        target = warp.validate_image(target)
        if target.shape[1:] != (k.height, k.width):
            raise DimensionError(f"target {target.shape} does not match the intrinsics "
                                 f"{k.width}x{k.height}")
        if len(images) == 0:
            raise EmptyContextError("context set is empty")
        self.images = [np.asarray(img, dtype=np.float64) for img in images]
        for i, img in enumerate(self.images):
            if img.shape != target.shape:
                raise DimensionError(f"context image {i} shape {img.shape} != target {target.shape}")
            if not np.isfinite(img).all():
                raise DimensionError(f"context image {i} contains non-finite values")
        if supervised not in SUPERVISED:
            raise ConfigError(f"unknown supervised term {supervised!r}")
        unknown = set(terms) - set(TERMS)
        if unknown:
            raise ConfigError(f"unknown loss terms {sorted(unknown)}")
        if num_scales < 1:
            raise ConfigError("num_scales must be >= 1")
        f = 2 ** (num_scales - 1)
        if k.height % f or k.width % f:
            raise ConfigError(f"image {k.height}x{k.width} is not divisible by {f}; "
                              f"cannot build {num_scales} scales")
        self.target, self.k, self.weights = target, k, weights
        self.num_scales, self.supervised, self.terms = num_scales, supervised, tuple(terms)
        self.labels = None
        if "rep" in terms and weights.lambda_rep > 0:
            if labels is None:
                raise NoSupervisionError("the supervised term is weighted but no labels were given")
            labels = np.asarray(labels, dtype=np.float64)
            if labels.shape != target.shape[1:]:
                raise DimensionError(f"labels {labels.shape} != image {target.shape[1:]}")
            if not np.isfinite(labels).all() or (labels < 0).any():
                raise DimensionError("labels contain non-finite or negative values (0 = unlabeled)")
            self.labels = _labels(labels, k)
        self.edge_weights = _image_gradient_weights(target) if "smooth" in terms else None
        self.unwarped_min = unwarped_min_photometric(self) if "photo" in terms else None
        self._reference = None

    def unsupervised(self) -> Objective:
        """This objective with the supervised weight at 0 (the first phase of
        `optimize.run`), sharing every array this one holds."""
        phase = copy.copy(self)
        phase.weights = replace(self.weights, lambda_rep=0.0)
        phase.labels = None
        return phase


def _evaluate(objective: Objective, poses, depth, want_grad):
    """Forward (and optional backward) pass of the objective at these poses
    and depth.

    Returns (breakdown, d_depth, d_poses) where d_poses is (S, 6); the
    gradient outputs are None when want_grad is False.
    """
    depth = _checked_depth(objective, depth)
    _check_poses(objective, poses)
    k, weights, terms = objective.k, objective.weights, objective.terms
    use_photo = "photo" in terms
    use_smooth = "smooth" in terms
    use_rep = objective.labels is not None
    if use_photo and want_grad:
        rays = k.pixel_rays()
        ray_dirs = [
            (pose.rotation_matrix() @ rays.reshape(3, -1)).reshape(rays.shape)
            for pose in poses
        ]

    levels = _build_pyramid(depth, objective.num_scales)
    photo_total = smooth_total = 0.0
    masked_count = 0
    d_depth = np.zeros_like(depth) if want_grad else None
    d_poses = np.zeros((len(poses), 6)) if want_grad else None

    for li, level in enumerate(levels):
        level_w = 2.0**-li
        if use_photo:
            # photo_term is rebound here, so a level's state stays alive until
            # the next level's forward returns. Freeing it at the end of its
            # level took a 256x192, 3-scale step from 0 to 15,024 minor page
            # faults and from 95-116 ms to 153-176 ms (median, 2 vCPU).
            value, photo_term = _photo_forward(objective, poses, level, li, want_grad)
            photo_total += value
            if li == 0:
                masked_count = photo_term.count
        if use_smooth:
            value, smooth_cache = _smoothness_forward(level, objective.edge_weights)
            smooth_total += level_w * value
        if not want_grad:
            continue

        d_level = np.zeros_like(level)
        if use_photo:
            _photo_backward(photo_term, objective, poses, ray_dirs, len(levels), d_level,
                            d_poses)
        smooth_up = weights.lambda_smooth * level_w / len(levels)
        if use_smooth and smooth_up != 0.0:
            d_level += smooth_up * _smoothness_backward(smooth_cache)
        d_depth += d_level if li == 0 else _pyramid_level_t(d_level, 2**li)

    photo = photo_total / len(levels)
    smooth = smooth_total / len(levels)

    rep_val, rep_count, rep_dropped = 0.0, 0, 0
    if use_rep:
        rep_val, rep_count, rep_dropped = _supervised(
            depth, objective.labels, poses, k, objective.supervised, weights.lambda_rep,
            d_depth, d_poses,
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


def total_loss(objective: Objective, poses: Sequence[PoseSE3],
               depth: np.ndarray) -> LossBreakdown:
    """Evaluate the objective at one pose per context image and a depth map;
    see the module docstring for the terms.

    The photometric term averages the per-pixel minimum over sources, over
    pixels kept by both the static-pixel mask and warp validity. The
    supervised term is averaged over context poses. Raises
    InvalidDepthError unless depth is finite and above EPS_Z at every pixel,
    DimensionError unless it has the image's shape or unless there is one
    pose per context image, and TypeError for a pose that is not a PoseSE3.
    """
    return _evaluate(objective, poses, depth, want_grad=False)[0]


def total_loss_grad(objective: Objective, poses: Sequence[PoseSE3],
                    depth: np.ndarray) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Objective value plus exact gradients w.r.t. every depth pixel and the
    6 pose parameters (alpha, beta, gamma, tx, ty, tz) of every context.

    Masks, argmin source selections and validity flags are held constant, so
    these are the piecewise gradients away from switching boundaries. The
    arguments and their checks are those of `total_loss`.
    """
    return _evaluate(objective, poses, depth, want_grad=True)
