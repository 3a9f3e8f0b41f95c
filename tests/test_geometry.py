import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm_losskit.errors import BehindCameraError, DimensionError, InvalidDepthError
from sfm_losskit.geometry import (
    BOUNDS_EPS,
    EPS_Z,
    CameraIntrinsics,
    PixelCoord,
    PoseSE3,
    project,
    projection_jacobian,
    transform,
    unproject,
    warp_chain,
    warp_coords,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0, width=128, height=96)


def quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_oracle_matrix(alpha, beta, gamma):
    """Independent rotation construction: unit quaternions composed in the
    same z*y*x order as the rotation convention under test."""
    qx = (math.cos(alpha / 2), math.sin(alpha / 2), 0.0, 0.0)
    qy = (math.cos(beta / 2), 0.0, math.sin(beta / 2), 0.0)
    qz = (math.cos(gamma / 2), 0.0, 0.0, math.sin(gamma / 2))
    return quat_to_matrix(quat_mul(qz, quat_mul(qy, qx)))


class TestUnproject:
    def test_principal_point_ray(self):
        assert unproject((64, 48), 10, K) == (0, 0, 10)

    def test_hand_computed_offsets(self):
        # x = (u - cx) * d / fx = 10*10/100 = 1; y = 20*10/100 = 2
        p = unproject((74, 68), 10, K)
        assert p == pytest.approx((1.0, 2.0, 10.0))

    def test_identity_intrinsics(self):
        k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=2, height=2)
        assert unproject((0, 0), 1, k) == (0, 0, 1)

    def test_depth_is_exact_z(self):
        assert unproject((3, 5), 7.25, K).z == 7.25

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(InvalidDepthError):
            unproject((0, 0), 0.0, K)
        with pytest.raises(InvalidDepthError):
            unproject((0, 0), -1.0, K)


class TestTransform:
    def test_identity(self):
        assert transform((0, 0, 2), PoseSE3.identity()) == pytest.approx((0, 0, 2))

    def test_pure_translation(self):
        pose = PoseSE3(translation=(1, 0, 0))
        assert transform((0, 0, 2), pose) == pytest.approx((1, 0, 2))

    def test_rotation_90_about_z(self):
        pose = PoseSE3(rotation=(0, 0, math.pi / 2))
        assert transform((1, 0, 0), pose) == pytest.approx((0, 1, 0), abs=1e-12)


class TestProject:
    def test_hand_computed_pinhole(self):
        assert project((1, 2, 10), K) == pytest.approx((74.0, 68.0))

    def test_optical_axis(self):
        assert project((0, 0, 5), K) == pytest.approx((64.0, 48.0))

    def test_behind_camera_error_carries_point(self):
        with pytest.raises(BehindCameraError) as exc:
            project((1, 1, 0), K)
        assert exc.value.point == (1.0, 1.0, 0.0)

    def test_cutoff_boundary(self):
        with pytest.raises(BehindCameraError):
            project((0, 0, EPS_Z), K)
        project((0, 0, 2 * EPS_Z), K)


@given(
    u=st.floats(0, 127),
    v=st.floats(0, 95),
    d=st.floats(0.1, 100),
)
@settings(max_examples=200, deadline=None)
def test_project_unproject_round_trip(u, v, d):
    out = project(unproject((u, v), d, K), K)
    assert abs(out.u - u) < 1e-9
    assert abs(out.v - v) < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pose_inverse_round_trip(seed):
    rng = np.random.default_rng(seed)
    pose = PoseSE3(
        rotation=tuple(rng.uniform(-1.2, 1.2, 3)),
        translation=tuple(rng.uniform(-5, 5, 3)),
    )
    p = rng.uniform(-10, 10, 3)
    back = transform(transform(p, pose), pose.inverse())
    assert np.abs(np.asarray(back) - p).max() < 1e-9
    ident = pose.compose(pose.inverse()).matrix()
    assert np.abs(ident - np.eye(4)).max() < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rotation_matrix_is_orthonormal(seed):
    rng = np.random.default_rng(seed)
    rot = PoseSE3(rotation=tuple(rng.uniform(-3, 3, 3))).rotation_matrix()
    assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rotation_matches_quaternion_oracle(seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, 3)
    ours = PoseSE3(rotation=tuple(angles)).rotation_matrix()
    oracle = quat_oracle_matrix(*angles)
    assert np.abs(ours - oracle).max() < 1e-12


def test_rotation_matches_scipy_extrinsic_xyz():
    scipy_rot = pytest.importorskip("scipy.spatial.transform").Rotation
    angles = (0.31, -0.52, 1.17)
    ours = PoseSE3(rotation=angles).rotation_matrix()
    ref = scipy_rot.from_euler("xyz", angles).as_matrix()
    assert np.abs(ours - ref).max() < 1e-12


def test_euler_round_trip_through_matrix():
    pose = PoseSE3(rotation=(0.2, -0.7, 1.1), translation=(1, 2, 3))
    back = PoseSE3.from_matrix(pose.rotation_matrix(), pose.translation)
    assert np.allclose(back.as_params(), pose.as_params(), atol=1e-12)


class TestWarpCoords:
    def test_identity_pose_is_identity_warp(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1, 20, (K.height, K.width))
        coords, valid = warp_coords(depth, PoseSE3.identity(), K)
        assert valid.all()
        uu, vv = np.meshgrid(np.arange(K.width), np.arange(K.height))
        assert np.abs(coords[..., 0] - uu).max() < 1e-9
        assert np.abs(coords[..., 1] - vv).max() < 1e-9

    def test_hand_computed_translation(self):
        # unproject (0,0) at d=2 -> (0,0,2); +x by 1 -> (1,0,2); project -> (0.5, 0)
        k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=4, height=4)
        depth = np.full((4, 4), 2.0)
        coords, valid = warp_coords(depth, PoseSE3(translation=(1, 0, 0)), k)
        assert valid[0, 0]
        assert coords[0, 0] == pytest.approx((0.5, 0.0))

    def test_zero_depth_flagged_invalid(self):
        depth = np.full((K.height, K.width), 5.0)
        depth[10, 20] = 0.0
        _, valid = warp_coords(depth, PoseSE3.identity(), K)
        assert not valid[10, 20]
        assert valid.sum() == valid.size - 1

    def test_behind_camera_flagged_invalid(self):
        depth = np.full((K.height, K.width), 1.0)
        _, valid = warp_coords(depth, PoseSE3(translation=(0, 0, -2)), K)
        assert not valid.any()

    def test_out_of_bounds_flagged_not_clamped(self):
        depth = np.full((K.height, K.width), 2.0)
        coords, valid = warp_coords(depth, PoseSE3(translation=(1, 0, 0)), K)
        # 50 px uniform shift: columns beyond width-1-50 land outside
        assert valid[:, : K.width - 51].all()
        assert not valid[:, K.width - 50 :].any()
        # invalid coordinates are reported where they land, not clamped
        assert coords[..., 0].max() > K.width - 1 + 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            warp_coords(np.ones((10, 10)), PoseSE3.identity(), K)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_covariance(self, s):
        rng = np.random.default_rng(7)
        depth = rng.uniform(2, 20, (K.height, K.width))
        pose = PoseSE3(rotation=(0.01, -0.02, 0.03), translation=(0.4, -0.1, 0.2))
        scaled = PoseSE3(
            rotation=pose.rotation,
            translation=tuple(s * np.asarray(pose.translation)),
        )
        c1, v1 = warp_coords(depth, pose, K)
        c2, v2 = warp_coords(s * depth, scaled, K)
        assert (v1 == v2).all()
        assert np.abs(c1[v1] - c2[v2]).max() < 1e-12


def interleaved_warp_chain(depth, pose, k):
    """Reference: the warp chain computed on interleaved (H, W, k) arrays."""
    rays = k.pixel_rays()
    points = (depth[..., None] * rays) @ pose.rotation_matrix().T + pose.translation_vector()
    z = points[..., 2]
    in_front = (depth > 0) & (z > EPS_Z)
    z_safe = np.where(in_front, z, 1.0)
    coords = np.empty(depth.shape + (2,))
    coords[..., 0] = k.fx * points[..., 0] / z_safe + k.cx
    coords[..., 1] = k.fy * points[..., 1] / z_safe + k.cy
    inside = (
        (coords[..., 0] >= -BOUNDS_EPS)
        & (coords[..., 0] <= k.width - 1.0 + BOUNDS_EPS)
        & (coords[..., 1] >= -BOUNDS_EPS)
        & (coords[..., 1] <= k.height - 1.0 + BOUNDS_EPS)
    )
    coords[~in_front] = 0.0
    return points, coords, in_front & inside, in_front


def interleaved_projection_jacobian(points, k):
    """Reference: the projection Jacobian filled as an interleaved (..., 2, 3) array."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=z > EPS_Z)
    jac = np.zeros(points.shape[:-1] + (2, 3))
    jac[..., 0, 0] = k.fx * inv_z
    jac[..., 0, 2] = -k.fx * x * inv_z * inv_z
    jac[..., 1, 1] = k.fy * inv_z
    jac[..., 1, 2] = -k.fy * y * inv_z * inv_z
    return jac


class TestPlanarLayout:
    """The warp fields are planar underneath; every value must match the
    interleaved computation bit for bit."""

    K_ODD = CameraIntrinsics(fx=31.0, fy=27.5, cx=17.3, cy=10.6, width=37, height=23)
    POSES = {
        "small": PoseSE3(rotation=(0.02, -0.03, 0.01), translation=(0.3, -0.1, 0.05)),
        # the source camera sits 2 m ahead: nearer points fall behind it
        "behind": PoseSE3(rotation=(0.05, 0.1, -0.05), translation=(0.2, 0.1, -2.0)),
        # a large sideways shift sends many coordinates out of bounds
        "out_of_bounds": PoseSE3(rotation=(0.0, 0.2, 0.0), translation=(2.0, 0.0, 0.3)),
    }

    def depth(self, k, seed=0):
        depth = np.random.default_rng(seed).uniform(1.0, 6.0, (k.height, k.width))
        depth[0, :4] = 0.0
        depth[3, 5] = -1.0
        return depth

    @pytest.mark.parametrize("k", [K, K_ODD], ids=["128x96", "37x23"])
    @pytest.mark.parametrize("pose_name", list(POSES))
    def test_warp_chain_matches_interleaved(self, k, pose_name):
        depth = self.depth(k)
        pose = self.POSES[pose_name]
        chain = warp_chain(depth, pose, k)
        points, coords, valid, in_front = interleaved_warp_chain(depth, pose, k)
        h, w = depth.shape
        assert chain.rays.shape == (h, w, 3)
        assert chain.points.shape == (h, w, 3) and chain.coords.shape == (h, w, 2)
        assert np.moveaxis(chain.points, -1, 0).flags.c_contiguous
        assert np.moveaxis(chain.coords, -1, 0).flags.c_contiguous
        assert np.array_equal(chain.points, points)
        assert np.array_equal(chain.coords, coords)
        assert np.array_equal(chain.valid, valid)
        assert np.array_equal(chain.in_front, in_front)
        if pose_name == "behind":
            assert (~in_front & (depth > 0)).any() and valid.any()
        if pose_name == "out_of_bounds":
            assert (in_front & ~valid).any() and valid.any()

    @pytest.mark.parametrize("k", [K, K_ODD], ids=["128x96", "37x23"])
    @pytest.mark.parametrize("pose_name", list(POSES))
    def test_projection_jacobian_matches_interleaved(self, k, pose_name):
        points = warp_chain(self.depth(k), self.POSES[pose_name], k).points
        jac = projection_jacobian(points, k)
        assert jac.shape == points.shape[:2] + (2, 3)
        assert np.moveaxis(jac, (-2, -1), (0, 1)).flags.c_contiguous
        assert np.array_equal(jac, interleaved_projection_jacobian(points, k))

    def test_projection_jacobian_of_point_rows(self):
        # the (N, 3) form the reprojected-distance term passes
        points = np.random.default_rng(3).normal(0.0, 2.0, (50, 3))
        points[:5, 2] = [-1.0, 0.0, EPS_Z, 2 * EPS_Z, 4.0]
        jac = projection_jacobian(points, K)
        assert jac.shape == (50, 2, 3)
        assert np.array_equal(jac, interleaved_projection_jacobian(points, K))
        assert not jac[:3].any() and jac[3:5, 0, 0].all()
