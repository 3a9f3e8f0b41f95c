"""Synthetic plane scenes with closed-form ground truth.

Scenes are one or two textured planes observed by a pinhole camera. The
renderer intersects pixel rays with the planes analytically and looks the
texture up with the same bilinear kernel as the warp module, so warping a
rendered context view with ground-truth depth and pose reconstructs the
target to interpolation accuracy. Textures are band-limited sinusoid
mixtures rasterized at roughly one texel per image pixel.

A noise channel is 0.5 plus 8 plane waves a*cos(kx*x + ky*y + p) on an n x n
raster. Each wave splits into two products of a factor in y alone and a
factor in x alone, so the channel is 0.5 plus the product of an (n, 16)
table of y factors and a (16, n) table of x factors: the trigonometry costs
O(n) per wave instead of O(n^2). The product runs through ``np.einsum``
without ``optimize``, which calls no BLAS: a BLAS matrix product can round
differently with its thread count, and a texture must not depend on it,
because the scenes it renders are compared byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import supervision, warp
from .errors import ConfigError, DegenerateGeometryError
from .geometry import CameraIntrinsics, PoseSE3
from .supervision import SparseDepth

GEOMETRIES = ("plane", "slant", "two_plane")


@dataclass
class SceneSpec:
    """Flat description of a synthetic scene (mirrors the scene file keys)."""

    geometry: str = "plane"
    width: int = 128
    height: int = 96
    channels: int = 1
    d0: float = 10.0
    d1: float = 6.0
    strip_min: float = -2.5
    strip_max: float = -0.5
    slant: float = 0.0
    baseline: float = 0.5
    rotation: float = 0.0
    seed: int = 0
    beams: int = 16
    px_per_beam: int = 16
    label_frac: float = 0.0
    texture_cycles: float = 0.03
    texture_amp: float = 0.42

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if self.width < 8 or self.height < 8:
            raise ConfigError("scene must be at least 8x8 pixels")
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {self.channels}")
        if self.d0 <= 0:
            raise ConfigError(f"d0 must be positive, got {self.d0}")
        if self.geometry == "two_plane":
            if not 0 < self.d1 < self.d0:
                raise ConfigError("two_plane needs 0 < d1 < d0")
            if not self.strip_min < self.strip_max:
                raise ConfigError("strip_min must be below strip_max")
        if abs(self.slant) >= 60.0:
            raise ConfigError("slant beyond 60 degrees degenerates the plane")
        if not 0 < self.texture_cycles <= 0.25:
            raise ConfigError("texture_cycles must be in (0, 0.25]")
        if not 0 < self.texture_amp <= 0.45:
            raise ConfigError("texture_amp must be in (0, 0.45]")
        if self.beams < 0 or not 0 <= self.label_frac <= 1:
            raise ConfigError("invalid label configuration")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def intrinsics(self) -> CameraIntrinsics:
        """Fixed intrinsics of every synthesized scene: fx = fy = 0.78125 *
        width (about 65 degrees across), principal point at the image centre
        ((width - 1) / 2, (height - 1) / 2)."""
        f = 0.78125 * self.width
        return CameraIntrinsics(fx=f, fy=f, cx=(self.width - 1) / 2.0,
                                cy=(self.height - 1) / 2.0, width=self.width,
                                height=self.height)


class _Texture:
    """Raster texture over a plane patch, sampled bilinearly.

    Plane coordinates (meters) map affinely onto the raster grid; lookups
    outside the patch clamp to the border.
    """

    def __init__(self, raster: np.ndarray, origin: tuple[float, float], spacing: float):
        self.raster = raster  # (Ht, Wt, C)
        self.origin = origin
        self.spacing = spacing

    def sample(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        ht, wt = self.raster.shape[:2]
        u = np.clip((px - self.origin[0]) / self.spacing, 0.0, wt - 1.0)
        v = np.clip((py - self.origin[1]) / self.spacing, 0.0, ht - 1.0)
        coords = np.stack([u, v], axis=-1).reshape(-1, 1, 2)
        out = warp.sample_bilinear(
            self.raster, coords, np.ones((coords.shape[0], 1), dtype=bool)
        )
        return out.reshape(px.shape + (self.raster.shape[2],))


def _noise_texture(rng, extent: float, spacing: float, cycles_per_px: float,
                   amp: float, channels: int) -> _Texture:
    n = int(math.ceil(2 * extent / spacing)) + 1
    if n > 4096:
        raise ConfigError(f"texture raster of {n} texels is unreasonably large")
    axis = -extent + spacing * np.arange(n)
    f_max = cycles_per_px / spacing  # cycles per meter
    raster = np.empty((n, n, channels))
    n_waves = 8
    for c in range(channels):
        mags = f_max * rng.uniform(0.2, 1.0, n_waves)
        dirs = rng.uniform(0.0, 2 * math.pi, n_waves)
        phases = rng.uniform(0.0, 2 * math.pi, n_waves)
        amps = rng.uniform(0.4, 1.0, n_waves)
        amps *= amp / amps.sum()
        # a*cos(kx*x + ky*y + p) = a*cos(ky*y + p)*cos(kx*x) - a*sin(ky*y + p)*sin(kx*x)
        row_arg = np.multiply.outer(axis, 2 * math.pi * mags * np.sin(dirs)) + phases
        col_arg = np.multiply.outer(axis, 2 * math.pi * mags * np.cos(dirs))
        rows = np.concatenate([amps * np.cos(row_arg), -amps * np.sin(row_arg)], axis=1)
        cols = np.concatenate([np.cos(col_arg), np.sin(col_arg)], axis=1)
        raster[..., c] = 0.5 + np.einsum("iw,jw->ij", rows, cols)
    return _Texture(np.clip(raster, 0.0, 1.0), (-extent, -extent), spacing)


@dataclass
class _Plane:
    """n . x = c in the target frame, textured over an in-plane basis."""

    normal: np.ndarray
    offset: float
    basis: np.ndarray  # (2, 3) rows e1, e2
    anchor: np.ndarray  # point on the plane, texture origin
    texture: _Texture
    x_bounds: tuple[float, float] | None = None  # strip extent along world x


@dataclass
class SceneGeometry:
    planes: list[_Plane]  # nearest-first priority for bounded planes

    def ray_depths(self, rays: np.ndarray, pose: PoseSE3) -> tuple[np.ndarray, np.ndarray]:
        """Depth along each view ray and the index of the plane it hits.

        rays: (..., 3) in the view frame; pose maps target frame -> view frame.
        """
        rot = pose.rotation_matrix()
        t = pose.translation_vector()
        depth = np.full(rays.shape[:-1], np.inf)
        plane_idx = np.full(rays.shape[:-1], -1, dtype=np.int64)
        for i, plane in enumerate(self.planes):
            n_v = rot @ plane.normal
            c_v = plane.offset + n_v @ t
            denom = rays @ n_v
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(np.abs(denom) > 1e-12, c_v / denom, np.inf)
            hit = d > 1e-6
            if plane.x_bounds is not None:
                # bounded strip: check the target-frame x of the hit point
                pts_v = d[..., None] * rays
                pts_t = (pts_v - t) @ rot
                x_t = pts_t[..., 0]
                hit &= (x_t >= plane.x_bounds[0]) & (x_t <= plane.x_bounds[1])
            better = hit & (d < depth)
            depth = np.where(better, d, depth)
            plane_idx = np.where(better, i, plane_idx)
        return depth, plane_idx

    def shade(self, rays: np.ndarray, pose: PoseSE3, depth: np.ndarray,
              plane_idx: np.ndarray, channels: int) -> np.ndarray:
        rot = pose.rotation_matrix()
        t = pose.translation_vector()
        pts_t = (depth[..., None] * rays - t) @ rot
        img = np.zeros(depth.shape + (channels,))
        for i, plane in enumerate(self.planes):
            sel = plane_idx == i
            if not sel.any():
                continue
            rel = pts_t[sel] - plane.anchor
            px = rel @ plane.basis[0]
            py = rel @ plane.basis[1]
            img[sel] = plane.texture.sample(px, py)
        return img


@dataclass
class Scene:
    target: np.ndarray
    gt_depth: np.ndarray
    intrinsics: CameraIntrinsics
    contexts: list[tuple[np.ndarray, PoseSE3]]
    labels: SparseDepth
    # per context, target pixels hidden from it; empty when read from disk
    occluded: list[np.ndarray] = field(default_factory=list)


def _render(geometry: SceneGeometry, pose: PoseSE3, k: CameraIntrinsics,
            channels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Image, depth and hit-plane index of every pixel of the view at ``pose``."""
    rays = k.pixel_rays()
    depth, plane_idx = geometry.ray_depths(rays, pose)
    if not np.isfinite(depth).all() or (plane_idx < 0).any():
        raise DegenerateGeometryError("some pixel rays miss the scene geometry")
    img = geometry.shade(rays, pose, depth, plane_idx, channels)
    return img, depth, plane_idx


def render_view(geometry: SceneGeometry, pose: PoseSE3, k: CameraIntrinsics,
                channels: int = 1) -> np.ndarray:
    """Render the image a camera at ``pose`` (target frame -> view frame) sees."""
    return _render(geometry, pose, k, channels)[0]


def _plane_basis(normal: np.ndarray) -> np.ndarray:
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(normal, e1)
    e2 /= np.linalg.norm(e2)
    return np.stack([e1, e2])


def _build_geometry(spec: SceneSpec, k: CameraIntrinsics) -> SceneGeometry:
    max_ray = max(
        (k.width - 1 - k.cx) / k.fx, k.cx / k.fx,
        (k.height - 1 - k.cy) / k.fy, k.cy / k.fy,
    )
    motion = abs(spec.baseline) + 1.0

    def _texture(depth_hint: float, seed_shift: int) -> _Texture:
        spacing = depth_hint / k.fx
        extent = 2.5 * depth_hint * max_ray / max(math.cos(math.radians(spec.slant)), 0.5) \
            + 3.0 * motion
        sub = np.random.default_rng(spec.seed + seed_shift)
        return _noise_texture(sub, extent, spacing, spec.texture_cycles,
                              spec.texture_amp, spec.channels)

    planes = []
    if spec.geometry == "two_plane":
        front = _Plane(
            normal=np.array([0.0, 0.0, 1.0]),
            offset=spec.d1,
            basis=_plane_basis(np.array([0.0, 0.0, 1.0])),
            anchor=np.array([0.0, 0.0, spec.d1]),
            texture=_texture(spec.d1, 1000),
            x_bounds=(spec.strip_min, spec.strip_max),
        )
        planes.append(front)
    slant_rad = math.radians(spec.slant) if spec.geometry == "slant" else 0.0
    normal = np.array([0.0, -math.sin(slant_rad), math.cos(slant_rad)])
    planes.append(
        _Plane(
            normal=normal,
            offset=spec.d0 * math.cos(slant_rad),
            basis=_plane_basis(normal),
            anchor=np.array([0.0, 0.0, spec.d0]),
            texture=_texture(spec.d0, 0),
            x_bounds=None,
        )
    )
    return SceneGeometry(planes=planes)


def _context_poses(spec: SceneSpec) -> list[PoseSE3]:
    ry = math.radians(spec.rotation)
    poses = []
    for sign in (+1.0, -1.0):
        poses.append(
            PoseSE3(
                rotation=(0.0, sign * ry, 0.0),
                translation=(sign * spec.baseline, 0.0, 0.0),
            )
        )
    return poses


def _occlusion_mask(spec: SceneSpec, k: CameraIntrinsics, gt_depth: np.ndarray,
                    plane_idx: np.ndarray, pose: PoseSE3) -> np.ndarray:
    """Background pixels of the target whose 3-D point is hidden behind the
    foreground strip when seen from the context camera (closed form)."""
    rays = k.pixel_rays()
    pts = gt_depth[..., None] * rays
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    cam = -rot.T @ t  # context camera center in the target frame
    bg = plane_idx == 1  # the background plane is listed after the strip
    dz = pts[..., 2] - cam[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(dz) > 1e-12, (spec.d1 - cam[2]) / dz, np.inf)
    x_star = cam[0] + lam * (pts[..., 0] - cam[0])
    hit = (lam > 0) & (lam < 1) & (x_star >= spec.strip_min) & (x_star <= spec.strip_max)
    return bg & hit


def make_scene(spec: SceneSpec) -> Scene:
    """Build the target view, ground-truth depth, context views and labels."""
    spec.validate()
    k = spec.intrinsics()
    geometry = _build_geometry(spec, k)
    target, gt_depth, plane_idx = _render(geometry, PoseSE3.identity(), k, spec.channels)

    contexts = []
    occluded = []
    for pose in _context_poses(spec):
        img = render_view(geometry, pose, k, spec.channels)
        contexts.append((img, pose))
        if spec.geometry == "two_plane":
            occluded.append(_occlusion_mask(spec, k, gt_depth, plane_idx, pose))
        else:
            occluded.append(np.zeros(gt_depth.shape, dtype=bool))

    if spec.label_frac > 0:
        labels = supervision.random_labels(gt_depth, spec.label_frac, seed=spec.seed)
    elif spec.beams > 0:
        labels = supervision.synth_lidar(
            gt_depth, spec.beams, spec.px_per_beam, seed=spec.seed
        )
    else:
        labels = SparseDepth(
            depth=np.zeros_like(gt_depth),
            beam_id=np.full(gt_depth.shape, -1, dtype=np.int64),
            num_beams=0,
        )
    return Scene(
        target=target,
        gt_depth=gt_depth,
        intrinsics=k,
        contexts=contexts,
        labels=labels,
        occluded=occluded,
    )

