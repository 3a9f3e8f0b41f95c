"""Synthetic plane scenes with closed-form ground truth.

A scene is a list of textured plane records (`_Plane`), one or two planes
observed by a pinhole camera; one function, `_render`, draws a view of it.
It intersects pixel rays with the planes analytically and looks the
texture up with the same bilinear kernel as the warp module, so warping a
rendered context view with ground-truth depth and pose reconstructs the
target to interpolation accuracy. Textures are band-limited sinusoid
mixtures rasterized at roughly one texel per image pixel.

A noise channel is 0.5 plus 8 plane waves a*cos(kx*x + ky*y + p) on an n x n
raster. Each wave splits into two products of a factor in y alone and a
factor in x alone, so the channel is 0.5 plus the product of an (n, 16)
table of y factors and a (16, n) table of x factors: the trigonometry costs
O(n) per wave instead of O(n^2). The texture keeps both tables and
evaluates their product, each texel once, only over the bounding box of the
texel blocks its views read (`_Texture.fill`). The product runs through
``np.einsum`` without ``optimize``, which calls no BLAS: a BLAS matrix
product can round differently with its thread count, and a texture must not
depend on it, because the scenes it renders are compared byte for byte.
Keep that spec, so that a texel gets the same bits whatever block fills it.
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

# two_plane's foreground: a fronto-parallel strip at depth STRIP_DEPTH
# spanning STRIP_X along the target frame's x, in front of the plane at d0.
STRIP_DEPTH = 6.0
STRIP_X = (-2.5, -0.5)
TEXTURE_AMP = 0.42  # summed amplitude of a noise channel's plane waves


@dataclass
class SceneSpec:
    """Flat description of a synthetic scene (the config's scene keys). The
    two context cameras are pure translations by +-baseline along x; d0 is
    the background plane's depth on the optical axis, slant its tilt about x
    in degrees (geometry slant only). The labels are `beams` beams of
    `px_per_beam` samples each (`supervision.synth_lidar`); beams 0 gives a
    scene without labels."""

    geometry: str = "plane"
    width: int = 128
    height: int = 96
    channels: int = 1
    d0: float = 10.0
    slant: float = 0.0
    baseline: float = 0.5
    seed: int = 0
    beams: int = 16
    px_per_beam: int = 16
    texture_cycles: float = 0.03

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
        if self.geometry == "two_plane" and not self.d0 > STRIP_DEPTH:
            raise ConfigError(f"two_plane needs d0 > {STRIP_DEPTH} (the strip's depth)")
        if abs(self.slant) >= 60.0:
            raise ConfigError("slant beyond 60 degrees degenerates the plane")
        if not 0 < self.texture_cycles <= 0.25:
            raise ConfigError("texture_cycles must be in (0, 0.25]")
        if self.beams < 0:
            raise ConfigError(f"beams must be nonnegative, got {self.beams}")
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
    """Noise texture over a plane patch, sampled bilinearly.

    Plane coordinates (meters) map affinely onto the raster grid; lookups
    outside the patch clamp to the border. The raster starts unwritten, and
    `sample` first fills the block its bilinear corners touch: a view reads
    about a tenth of the texels, and pages never written cost nothing. The
    filled texels form one rectangle, grown to the bounding box of each
    block asked for, so no texel is evaluated twice.
    """

    def __init__(self, raster: np.ndarray, tables: list[tuple[np.ndarray, np.ndarray]],
                 origin: tuple[float, float], spacing: float):
        self.raster = raster  # (C, Ht, Wt), written only where filled
        self.tables = tables  # per channel: (Ht, 16) y factors, (Wt, 16) x factors
        self.origin = origin
        self.spacing = spacing
        self.filled = None  # (i0, i1, j0, j1) of the filled rectangle

    def fill(self, i0: int, i1: int, j0: int, j1: int) -> None:
        """Make texels [i0, i1) x [j0, j1) of every channel hold their values,
        evaluating only those the filled rectangle's growth adds to it."""
        f0, f1, g0, g1 = self.filled or (i0, i0, j0, j0)
        i0, i1, j0, j1 = min(i0, f0), max(i1, f1), min(j0, g0), max(j1, g1)
        self.filled = i0, i1, j0, j1
        for block in ((i0, f0, j0, j1), (f1, i1, j0, j1), (f0, f1, j0, g0), (f0, f1, g1, j1)):
            if block[0] < block[1] and block[2] < block[3]:
                self._evaluate(*block)

    def _evaluate(self, i0: int, i1: int, j0: int, j1: int) -> None:
        """Evaluate texels [i0, i1) x [j0, j1) of every channel into the raster."""
        block = self.raster[:, i0:i1, j0:j1]
        for c, (rows, cols) in enumerate(self.tables):
            block[c] = 0.5 + np.einsum("iw,jw->ij", rows[i0:i1], cols[j0:j1])
        block.clip(0.0, 1.0, out=block)

    def sample(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """(C,) + px.shape texture values at plane coordinates (px, py)."""
        channels, ht, wt = self.raster.shape
        u = (px - self.origin[0]) / self.spacing
        v = (py - self.origin[1]) / self.spacing
        coords = np.stack([u, v]).reshape(2, -1, 1)  # `warp.sampling` clamps them
        at = warp.sampling(coords, np.ones(coords.shape[1:], dtype=bool), (ht, wt))
        # upper-left corners, and one texel past them for the other three
        x0 = at.index % wt
        self.fill(at.index.min() // wt, at.index.max() // wt + 2, x0.min(), x0.max() + 2)
        out = warp.sample_bilinear(self.raster, at)
        return out.reshape((channels,) + px.shape)


def _noise_texture(rng, extent: float, spacing: float, cycles_per_px: float,
                   amp: float, channels: int) -> _Texture:
    n = int(math.ceil(2 * extent / spacing)) + 1
    if n > 4096:
        raise ConfigError(f"texture raster of {n} texels is unreasonably large")
    axis = -extent + spacing * np.arange(n)
    f_max = cycles_per_px / spacing  # cycles per meter
    tables = []
    n_waves = 8
    for _ in range(channels):
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
        tables.append((rows, cols))
    return _Texture(np.empty((channels, n, n)), tables, (-extent, -extent), spacing)


@dataclass
class _Plane:
    """The plane n . x = n . anchor in the target frame, textured from the
    anchor over the in-plane basis e1 = (1, 0, 0), e2 = n x e1 / |n x e1|.
    A strip is bounded to x_bounds along the target frame's x."""

    normal: np.ndarray
    anchor: np.ndarray
    texture: _Texture
    x_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        self.offset = self.normal @ self.anchor
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.cross(self.normal, e1)
        e2 /= np.linalg.norm(e2)
        self.basis = np.stack([e1, e2])


@dataclass
class Scene:
    """A target view with its context views (source image, pose target ->
    source) and depths. Images are (C, H, W) float arrays in [0, 1], depth
    maps (H, W)."""

    target: np.ndarray
    gt_depth: np.ndarray
    intrinsics: CameraIntrinsics
    contexts: list[tuple[np.ndarray, PoseSE3]]
    labels: SparseDepth
    # per context, target pixels hidden from it; empty when read from disk
    occluded: list[np.ndarray] = field(default_factory=list)


def _render(planes: list[_Plane], pose: PoseSE3, k: CameraIntrinsics,
            channels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Image, depth and hit-plane index of every pixel of the view at ``pose``
    (target frame -> view frame). Each pixel ray takes the nearest plane it
    hits, the first listed on a tie."""
    rays = k.pixel_rays()
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    shape = rays.shape[1:]
    depth = np.full(shape, np.inf)
    plane_idx = np.full(shape, -1, dtype=np.int64)
    for i, plane in enumerate(planes):
        n_v = rot @ plane.normal
        c_v = plane.offset + n_v @ t
        denom = (n_v @ rays.reshape(3, -1)).reshape(shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(np.abs(denom) > 1e-12, c_v / denom, np.inf)
        hit = d > 1e-6
        if plane.x_bounds is not None:
            # bounded strip: check the target-frame x of the hit point
            x_t = (rot.T @ (d * rays - t[:, None, None]).reshape(3, -1))[0].reshape(shape)
            hit &= (x_t >= plane.x_bounds[0]) & (x_t <= plane.x_bounds[1])
        better = hit & (d < depth)
        depth = np.where(better, d, depth)
        plane_idx = np.where(better, i, plane_idx)
    if (plane_idx < 0).any():
        raise DegenerateGeometryError("some pixel rays miss the scene geometry")

    pts_t = rot.T @ (depth * rays - t[:, None, None]).reshape(3, -1)
    rows = np.zeros((channels, plane_idx.size))
    for i, plane in enumerate(planes):
        idx = np.flatnonzero(plane_idx == i)
        if not idx.size:
            continue
        # keep rel the transpose of an (M, 3) array: the basis products run
        # through BLAS, and a C-contiguous (3, M) rel rounds them differently
        rel = pts_t.T[idx].T - plane.anchor[:, None]
        values = plane.texture.sample(plane.basis[0] @ rel, plane.basis[1] @ rel)
        for c in range(channels):  # one row at a time: rows[:, idx] = values is 2.5x slower
            rows[c][idx] = values[c]
    return rows.reshape((channels,) + shape), depth, plane_idx


def _build_geometry(spec: SceneSpec, k: CameraIntrinsics) -> list[_Plane]:
    """The scene's planes, nearest first: two_plane's strip, then the
    background plane at d0 (tilted by slant for the slant geometry)."""
    max_ray = max(
        (k.width - 1 - k.cx) / k.fx, k.cx / k.fx,
        (k.height - 1 - k.cy) / k.fy, k.cy / k.fy,
    )
    motion = abs(spec.baseline) + 1.0
    slant_rad = math.radians(spec.slant) if spec.geometry == "slant" else 0.0

    def _texture(depth_hint: float, seed_shift: int) -> _Texture:
        spacing = depth_hint / k.fx
        extent = 2.5 * depth_hint * max_ray / max(math.cos(slant_rad), 0.5) + 3.0 * motion
        sub = np.random.default_rng(spec.seed + seed_shift)
        return _noise_texture(sub, extent, spacing, spec.texture_cycles,
                              TEXTURE_AMP, spec.channels)

    planes = []
    if spec.geometry == "two_plane":
        planes.append(_Plane(
            normal=np.array([0.0, 0.0, 1.0]),
            anchor=np.array([0.0, 0.0, STRIP_DEPTH]),
            texture=_texture(STRIP_DEPTH, 1000),
            x_bounds=STRIP_X,
        ))
    planes.append(_Plane(
        normal=np.array([0.0, -math.sin(slant_rad), math.cos(slant_rad)]),
        anchor=np.array([0.0, 0.0, spec.d0]),
        texture=_texture(spec.d0, 0),
    ))
    return planes


def _occlusion_mask(k: CameraIntrinsics, gt_depth: np.ndarray, plane_idx: np.ndarray,
                    pose: PoseSE3, strip: _Plane) -> np.ndarray:
    """Background pixels of the target whose 3-D point is hidden behind the
    fronto-parallel strip (two_plane's ``planes[0]``) when seen from the
    context camera (closed form)."""
    x, _, z = gt_depth * k.pixel_rays()
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    cam = -rot.T @ t  # context camera center in the target frame
    bg = plane_idx == 1  # the background plane is listed after the strip
    dz = z - cam[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(dz) > 1e-12, (strip.offset - cam[2]) / dz, np.inf)
    x_star = cam[0] + lam * (x - cam[0])
    x_lo, x_hi = strip.x_bounds
    hit = (lam > 0) & (lam < 1) & (x_star >= x_lo) & (x_star <= x_hi)
    return bg & hit


def make_scene(spec: SceneSpec) -> Scene:
    """Build the target view, ground-truth depth, context views and labels."""
    spec.validate()
    k = spec.intrinsics()
    planes = _build_geometry(spec, k)
    target, gt_depth, plane_idx = _render(planes, PoseSE3.identity(), k, spec.channels)

    contexts = []
    occluded = []
    for sign in (+1.0, -1.0):
        pose = PoseSE3(translation=(sign * spec.baseline, 0.0, 0.0))
        img = _render(planes, pose, k, spec.channels)[0]
        contexts.append((img, pose))
        if spec.geometry == "two_plane":
            occluded.append(_occlusion_mask(k, gt_depth, plane_idx, pose, planes[0]))
        else:
            occluded.append(np.zeros(gt_depth.shape, dtype=bool))

    return Scene(
        target=target,
        gt_depth=gt_depth,
        intrinsics=k,
        contexts=contexts,
        labels=supervision.synth_lidar(gt_depth, spec.beams, spec.px_per_beam, seed=spec.seed),
        occluded=occluded,
    )

