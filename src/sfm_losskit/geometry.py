"""Pinhole camera model and SE(3) rigid transforms.

Conventions used throughout the package:

* Camera frame: x right, y down, z forward (optical axis). Units are meters.
* Image frame: u is the column, v is the row, in pixels. Pixel centers sit at
  integer coordinates; sampled coordinates are continuous (sub-pixel).
* Rotations are Euler angles (alpha, beta, gamma) in radians with the fixed
  convention R = Rz(gamma) @ Ry(beta) @ Rx(alpha), applied as R @ p.
* Poses map target-frame points into the source (context) frame:
  p_source = R @ p_target + t.
* Points with z <= EPS_Z are treated as behind the camera and cannot be
  projected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BehindCameraError, DimensionError, InvalidDepthError

# Cut-off below which a point counts as behind the camera. Small enough to
# admit any plausible scene depth, large enough to avoid division blow-up.
EPS_Z = 1e-6

# Image-bounds slack (pixels) so an identity warp stays valid at the border
# despite re-projection round-off; the sampler clips within this slack.
BOUNDS_EPS = 1e-9


class PixelCoord(NamedTuple):
    u: float
    v: float


class Point3D(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 2 or self.height < 2:
            raise ValueError(f"image must be at least 2x2, got {self.width}x{self.height}")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def pixel_rays(self) -> np.ndarray:
        """(H, W, 3) rays K^-1 (u, v, 1) for every pixel center.

        Cached per intrinsics; treat the returned array as read-only.
        """
        return _pixel_rays_cached(self)


@lru_cache(maxsize=32)
def _pixel_rays_cached(k: "CameraIntrinsics") -> np.ndarray:
    u = np.arange(k.width, dtype=np.float64)
    v = np.arange(k.height, dtype=np.float64)
    rays = np.empty((k.height, k.width, 3))
    rays[..., 0] = (u[None, :] - k.cx) / k.fx
    rays[..., 1] = (v[:, None] - k.cy) / k.fy
    rays[..., 2] = 1.0
    rays.setflags(write=False)
    return rays


def _rx(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _ry(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(g: float) -> np.ndarray:
    c, s = math.cos(g), math.sin(g)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _drx(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])


def _dry(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    return np.array([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])


def _drz(g: float) -> np.ndarray:
    c, s = math.cos(g), math.sin(g)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform: Euler rotation (radians) + Euclidean translation (meters)."""

    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls()

    def rotation_matrix(self) -> np.ndarray:
        a, b, g = self.rotation
        return _rz(g) @ _ry(b) @ _rx(a)

    def rotation_jacobians(self) -> list[np.ndarray]:
        """dR/dalpha, dR/dbeta, dR/dgamma as 3x3 matrices."""
        a, b, g = self.rotation
        return [
            _rz(g) @ _ry(b) @ _drx(a),
            _rz(g) @ _dry(b) @ _rx(a),
            _drz(g) @ _ry(b) @ _rx(a),
        ]

    def translation_vector(self) -> np.ndarray:
        return np.asarray(self.translation, dtype=np.float64)

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 transform."""
        m = np.eye(4)
        m[:3, :3] = self.rotation_matrix()
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrix(cls, rot: np.ndarray, t) -> "PoseSE3":
        """Recover Euler angles from a rotation matrix (Rz Ry Rx convention)."""
        rot = np.asarray(rot, dtype=np.float64)
        sb = -rot[2, 0]
        sb = min(1.0, max(-1.0, sb))
        beta = math.asin(sb)
        if abs(abs(sb) - 1.0) < 1e-12:
            # Gimbal lock: gamma is not separable from alpha; fold into alpha.
            alpha = math.atan2(-rot[0, 1], rot[1, 1])
            gamma = 0.0
        else:
            alpha = math.atan2(rot[2, 1], rot[2, 2])
            gamma = math.atan2(rot[1, 0], rot[0, 0])
        return cls(
            rotation=(alpha, beta, gamma),
            translation=(float(t[0]), float(t[1]), float(t[2])),
        )

    def inverse(self) -> "PoseSE3":
        rot = self.rotation_matrix()
        t = self.translation_vector()
        return PoseSE3.from_matrix(rot.T, -rot.T @ t)

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """Transform equivalent to applying ``other`` first, then ``self``."""
        ra, rb = self.rotation_matrix(), other.rotation_matrix()
        ta, tb = self.translation_vector(), other.translation_vector()
        return PoseSE3.from_matrix(ra @ rb, ra @ tb + ta)

    def as_params(self) -> np.ndarray:
        """Flat parameter vector (alpha, beta, gamma, tx, ty, tz)."""
        return np.array([*self.rotation, *self.translation], dtype=np.float64)

    @classmethod
    def from_params(cls, p) -> "PoseSE3":
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (6,):
            raise ValueError(f"expected 6 pose parameters, got shape {p.shape}")
        return cls(rotation=(p[0], p[1], p[2]), translation=(p[3], p[4], p[5]))


def unproject(u, d: float, k: CameraIntrinsics) -> Point3D:
    """Back-project pixel u at depth d into the camera frame: d * K^-1 (u, v, 1)."""
    if not d > 0:
        raise InvalidDepthError(f"depth must be positive, got {d}")
    uu, vv = float(u[0]), float(u[1])
    return Point3D((uu - k.cx) * d / k.fx, (vv - k.cy) * d / k.fy, float(d))


def transform(p, pose: PoseSE3) -> Point3D:
    """Apply the rigid transform: R @ p + t."""
    q = pose.rotation_matrix() @ np.asarray(p, dtype=np.float64) + pose.translation_vector()
    return Point3D(q[0], q[1], q[2])


def project(p, k: CameraIntrinsics) -> PixelCoord:
    """Pinhole projection (fx*x/z + cx, fy*y/z + cy); requires z > EPS_Z."""
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if not z > EPS_Z:
        raise BehindCameraError((x, y, z))
    return PixelCoord(k.fx * x / z + k.cx, k.fy * y / z + k.cy)


class WarpChain(NamedTuple):
    """Intermediate values of the per-pixel warp, kept for gradient reuse.

    rays: (H, W, 3) target pixel rays K^-1 (u, v, 1)
    points: (H, W, 3) source-frame points R (d * ray) + t
    coords: (H, W, 2) continuous source-pixel coordinates (u, v)
    valid:  (H, W) bool; depth valid, in front of camera, inside the image
    in_front: (H, W) bool; depth valid and z > EPS_Z (ignores image bounds)
    """

    rays: np.ndarray
    points: np.ndarray
    coords: np.ndarray
    valid: np.ndarray
    in_front: np.ndarray


def warp_chain(depth: np.ndarray, pose: PoseSE3, k: CameraIntrinsics) -> WarpChain:
    """Vectorized projection chain for every target pixel."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (k.height, k.width):
        raise DimensionError(
            f"depth shape {depth.shape} does not match intrinsics {k.height}x{k.width}"
        )
    rays = k.pixel_rays()
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    points = (depth[..., None] * rays) @ rot.T + t

    depth_ok = depth > 0
    z = points[..., 2]
    in_front = depth_ok & (z > EPS_Z)
    z_safe = np.where(in_front, z, 1.0)
    coords = np.empty((k.height, k.width, 2))
    coords[..., 0] = k.fx * points[..., 0] / z_safe + k.cx
    coords[..., 1] = k.fy * points[..., 1] / z_safe + k.cy
    inside = (
        (coords[..., 0] >= -BOUNDS_EPS)
        & (coords[..., 0] <= k.width - 1.0 + BOUNDS_EPS)
        & (coords[..., 1] >= -BOUNDS_EPS)
        & (coords[..., 1] <= k.height - 1.0 + BOUNDS_EPS)
    )
    valid = in_front & inside
    coords[~in_front] = 0.0
    return WarpChain(rays=rays, points=points, coords=coords, valid=valid, in_front=in_front)


def warp_coords(
    depth: np.ndarray, pose: PoseSE3, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel source coordinates of the view-synthesis warp.

    Returns ``(coords, valid)`` where coords is (H, W, 2) continuous (u, v)
    and valid flags pixels whose depth is positive, whose transformed point
    lies in front of the source camera, and whose coordinates fall inside
    [0, W-1] x [0, H-1]. Out-of-bounds coordinates are flagged invalid, never
    clamped.
    """
    chain = warp_chain(depth, pose, k)
    return chain.coords, chain.valid


def projection_jacobian(points: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """d(u, v)/d(x, y, z) of the pinhole projection, per point.

    points: (..., 3). Returns (..., 2, 3). Rows for points at or behind the
    cut-off are zeroed (no gradient flows through invalid projections).
    """
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    ok = z > EPS_Z
    # 1/z is set to 0 past the cut-off, which zeroes those rows outright
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=ok)
    jac = np.zeros(points.shape[:-1] + (2, 3))
    jac[..., 0, 0] = k.fx * inv_z
    jac[..., 0, 2] = -k.fx * x * inv_z * inv_z
    jac[..., 1, 1] = k.fy * inv_z
    jac[..., 1, 2] = -k.fy * y * inv_z * inv_z
    return jac
