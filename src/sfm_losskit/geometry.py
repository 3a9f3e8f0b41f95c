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

* Per-pixel fields are component-first, one contiguous (H, W) plane per
  component: pixel rays and warp points are (3, H, W), coordinates
  (2, H, W) and projection Jacobians (2, 3, H, W); images are (C, H, W)
  (see `warp`).
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
        """(3, H, W) rays K^-1 (u, v, 1) for every pixel center, one
        contiguous plane per component. Cached per intrinsics; read-only."""
        return _pixel_rays_cached(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _pixel_rays_cached(k: "CameraIntrinsics") -> np.ndarray:
    u = np.arange(k.width, dtype=np.float64)
    v = np.arange(k.height, dtype=np.float64)
    rays = np.empty((3, k.height, k.width))
    rays[0] = (u - k.cx) / k.fx
    rays[1] = ((v - k.cy) / k.fy)[:, None]
    rays[2] = 1.0
    return _read_only(rays)


def _axis_rotation(axis: int, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotation by ``angle`` about coordinate axis ``axis`` (0 = x, 1 = y,
    2 = z) and its derivative with respect to the angle. It turns axis i
    toward axis j, (i, j) = (axis + 1, axis + 2) mod 3."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    rot, d_rot = np.zeros((3, 3)), np.zeros((3, 3))
    rot[axis, axis] = 1.0
    rot[i, i], rot[i, j], rot[j, i], rot[j, j] = c, -s, s, c
    d_rot[i, i], d_rot[i, j], d_rot[j, i], d_rot[j, j] = -s, -c, c, -s
    return rot, d_rot


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
    def _factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(R, dR/dangle) about x, y and z, shared by R and its Jacobians."""
        return [_axis_rotation(axis, angle) for axis, angle in enumerate(self.rotation)]

    @cached_property
    def _rotation(self) -> np.ndarray:
        (rx, _), (ry, _), (rz, _) = self._factors
        return _read_only(rz @ ry @ rx)

    @cached_property
    def _rotation_jacobians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        (rx, drx), (ry, dry), (rz, drz) = self._factors
        return (
            _read_only(rz @ ry @ drx),
            _read_only(rz @ dry @ rx),
            _read_only(drz @ ry @ rx),
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

    points: (3, H, W) source-frame points R (d * ray) + t
    coords: (2, H, W) continuous source-pixel coordinates (u, v)
    valid:  (H, W) bool; in front of the source camera and inside the image
    """

    points: np.ndarray
    coords: np.ndarray
    valid: np.ndarray


def warp_chain(depth: np.ndarray, pose: PoseSE3, k: CameraIntrinsics,
               window=None) -> WarpChain:
    """Vectorized projection chain for every target pixel, or for the pixels
    in rows r0:r1 and columns c0:c1 of ``window`` (r0, r1, c0, c1), which
    may be empty; the fields then have the window's shape.

    depth must be finite; the objective checks that it is positive and
    finite before it warps. A pixel is valid when its source-frame z exceeds
    EPS_Z and its coordinates fall inside the image. Out-of-bounds
    coordinates are flagged invalid, never clamped; pixels that are not in
    front of the source camera get coordinates (0, 0). A window of 2 or more
    pixels gives each pixel the bits of the whole chain; a single pixel does
    not, as its (3, 3) @ (3, 1) rotation product takes another BLAS path.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (k.height, k.width):
        raise DimensionError(
            f"depth shape {depth.shape} does not match intrinsics {k.height}x{k.width}"
        )
    rays = k.pixel_rays()
    if window is not None:
        r0, r1, c0, c1 = window
        depth, rays = depth[r0:r1, c0:c1], rays[:, r0:r1, c0:c1]
    # one (3, 3) @ (3, H*W) product rotates every point
    points = pose.rotation_matrix() @ (depth * rays).reshape(3, -1)
    points += pose.translation_vector()[:, None]
    points = points.reshape(rays.shape)
    x, y, z = points

    in_front = z > EPS_Z
    coords = project((x, y, np.where(in_front, z, 1.0)), k)
    u, v = coords
    valid = in_front & (u >= -BOUNDS_EPS)
    valid &= u <= k.width - 1.0 + BOUNDS_EPS
    valid &= v >= -BOUNDS_EPS
    valid &= v <= k.height - 1.0 + BOUNDS_EPS
    np.copyto(coords, 0.0, where=~in_front)
    return WarpChain(points, coords, valid)


def project(points, k: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection (fx x / z + cx, fy y / z + cy) of (3, ...) points
    to (2, ...) pixel coordinates (u, v). Points are taken as in front of
    the camera: callers mask or replace z at or below EPS_Z."""
    x, y, z = points
    coords = np.empty((2,) + np.shape(z))
    coords[0] = k.fx * x / z + k.cx
    coords[1] = k.fy * y / z + k.cy
    return coords


def projection_jacobian(points: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """d(u, v)/d(x, y, z) of the pinhole projection, per point.

    points: (3, ...). Returns (2, 3, ...). Rows for points at or behind the
    cut-off are zeroed (no gradient flows through invalid projections).
    """
    x, y, z = points
    ok = z > EPS_Z
    # 1/z is set to 0 past the cut-off, which zeroes those rows outright
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=ok)
    jac = np.zeros((2, 3) + z.shape)
    jac[0, 0] = k.fx * inv_z
    jac[0, 2] = -k.fx * x * inv_z * inv_z
    jac[1, 1] = k.fy * inv_z
    jac[1, 2] = -k.fy * y * inv_z * inv_z
    return jac
