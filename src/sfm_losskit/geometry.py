"""Pinhole camera model and SE(3) rigid transforms.

Conventions used throughout the package:

* Camera frame: x right, y down, z forward (optical axis). Units are meters.
* Image frame: u is the column, v is the row, in pixels. Pixel centers sit at
  integer coordinates; sampled coordinates are continuous (sub-pixel).
* Rotations are Euler angles (alpha, beta, gamma) in radians with the fixed
  convention R = Rz(gamma) @ Ry(beta) @ Rx(alpha), applied as R @ p.
* Poses map target-frame points into the source (context) frame:
  p_source = R @ p_target + t.
* Points with z <= EPS_Z are treated as behind the camera: their warp
  coordinates are flagged invalid and their projection Jacobian is zero.

The per-pixel warp fields are stored as planes, one contiguous (H, W) plane
per component: points in a (3, H, W) array, coordinates in (2, H, W) and
projection Jacobians in (2, 3, H, W). The documented (H, W, 3), (H, W, 2)
and (H, W, 2, 3) shapes are transposed views over that storage, so a
component read such as ``points[..., 2]`` is a contiguous plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

# Cut-off below which a point counts as behind the camera. Small enough to
# admit any plausible scene depth, large enough to avoid division blow-up.
EPS_Z = 1e-6

# Image-bounds slack (pixels) so an identity warp stays valid at the border
# despite re-projection round-off; the sampler clips within this slack.
BOUNDS_EPS = 1e-9


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

    def pixel_rays(self) -> np.ndarray:
        """(H, W, 3) rays K^-1 (u, v, 1) for every pixel center.

        Cached per intrinsics; treat the returned array as read-only.
        """
        return _pixel_rays_cached(self)

    def pixel_ray_planes(self) -> np.ndarray:
        """The same rays as a contiguous (3, H, W) array, one plane per
        component. Cached per intrinsics; read-only."""
        return _ray_planes_cached(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _pixel_rays_cached(k: "CameraIntrinsics") -> np.ndarray:
    u = np.arange(k.width, dtype=np.float64)
    v = np.arange(k.height, dtype=np.float64)
    rays = np.empty((k.height, k.width, 3))
    rays[..., 0] = (u[None, :] - k.cx) / k.fx
    rays[..., 1] = (v[:, None] - k.cy) / k.fy
    rays[..., 2] = 1.0
    return _read_only(rays)


@lru_cache(maxsize=32)
def _ray_planes_cached(k: "CameraIntrinsics") -> np.ndarray:
    return _read_only(np.ascontiguousarray(_pixel_rays_cached(k).transpose(2, 0, 1)))


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
    """Rigid transform: Euler rotation (radians) + Euclidean translation (meters).

    The rotation matrix and its three Jacobians are built once per instance,
    on first use, and cached as read-only arrays: every call returns the same
    objects.
    """

    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls()

    def rotation_matrix(self) -> np.ndarray:
        """R = Rz(gamma) @ Ry(beta) @ Rx(alpha); cached, read-only."""
        return self._rotation

    def rotation_jacobians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dR/dalpha, dR/dbeta, dR/dgamma as 3x3 matrices; cached, read-only."""
        return self._rotation_jacobians

    @cached_property
    def _rotation(self) -> np.ndarray:
        a, b, g = self.rotation
        return _read_only(_rz(g) @ _ry(b) @ _rx(a))

    @cached_property
    def _rotation_jacobians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b, g = self.rotation
        return (
            _read_only(_rz(g) @ _ry(b) @ _drx(a)),
            _read_only(_rz(g) @ _dry(b) @ _rx(a)),
            _read_only(_drz(g) @ _ry(b) @ _rx(a)),
        )

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

    def as_params(self) -> np.ndarray:
        """Flat parameter vector (alpha, beta, gamma, tx, ty, tz)."""
        return np.array([*self.rotation, *self.translation], dtype=np.float64)

    @classmethod
    def from_params(cls, p) -> "PoseSE3":
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (6,):
            raise ValueError(f"expected 6 pose parameters, got shape {p.shape}")
        return cls(rotation=(p[0], p[1], p[2]), translation=(p[3], p[4], p[5]))


class WarpChain(NamedTuple):
    """Intermediate values of the per-pixel warp, kept for gradient reuse.

    points: (H, W, 3) source-frame points R (d * ray) + t
    coords: (H, W, 2) continuous source-pixel coordinates (u, v)
    valid:  (H, W) bool; depth valid, in front of camera, inside the image
    in_front: (H, W) bool; depth valid and z > EPS_Z (ignores image bounds)

    points and coords are views over contiguous (3, H, W) and (2, H, W)
    planes; ``chain.points.transpose(2, 0, 1)`` recovers the planes.
    """

    points: np.ndarray
    coords: np.ndarray
    valid: np.ndarray
    in_front: np.ndarray


def warp_chain(depth: np.ndarray, pose: PoseSE3, k: CameraIntrinsics) -> WarpChain:
    """Vectorized projection chain for every target pixel.

    Out-of-bounds coordinates are flagged invalid, never clamped; pixels
    that are not in front of the source camera get coordinates (0, 0).
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (k.height, k.width):
        raise DimensionError(
            f"depth shape {depth.shape} does not match intrinsics {k.height}x{k.width}"
        )
    planes = k.pixel_ray_planes()
    # one (3, 3) @ (3, H*W) product rotates every point
    points = pose.rotation_matrix() @ (depth * planes).reshape(3, -1)
    points += pose.translation_vector()[:, None]
    points = points.reshape(planes.shape)
    x, y, z = points

    in_front = (depth > 0) & (z > EPS_Z)
    z_safe = np.where(in_front, z, 1.0)
    coords = np.empty((2,) + depth.shape)
    u, v = coords
    u[...] = k.fx * x / z_safe + k.cx
    v[...] = k.fy * y / z_safe + k.cy
    valid = in_front & (u >= -BOUNDS_EPS)
    valid &= u <= k.width - 1.0 + BOUNDS_EPS
    valid &= v >= -BOUNDS_EPS
    valid &= v <= k.height - 1.0 + BOUNDS_EPS
    np.copyto(coords, 0.0, where=~in_front)
    return WarpChain(
        points=points.transpose(1, 2, 0),
        coords=coords.transpose(1, 2, 0),
        valid=valid,
        in_front=in_front,
    )


def projection_jacobian(points: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """d(u, v)/d(x, y, z) of the pinhole projection, per point.

    points: (..., 3). Returns (..., 2, 3), a view over a contiguous
    (2, 3, ...) array. Rows for points at or behind the cut-off are zeroed
    (no gradient flows through invalid projections).
    """
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    ok = z > EPS_Z
    # 1/z is set to 0 past the cut-off, which zeroes those rows outright
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=ok)
    jac = np.zeros((2, 3) + z.shape)
    jac[0, 0] = k.fx * inv_z
    jac[0, 2] = -k.fx * x * inv_z * inv_z
    jac[1, 1] = k.fy * inv_z
    jac[1, 2] = -k.fy * y * inv_z * inv_z
    return jac.transpose(*range(2, jac.ndim), 0, 1)
