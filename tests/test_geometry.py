import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm_losskit.errors import DimensionError
from sfm_losskit.geometry import (
    BOUNDS_EPS,
    EPS_Z,
    CameraIntrinsics,
    PoseSE3,
    projection_jacobian,
    warp_chain,
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


def chain_at(k, pose, pixel, depth):
    """warp_chain over a constant depth map; the (point, coords, in_front)
    of one (u, v) pixel."""
    chain = warp_chain(np.full((k.height, k.width), float(depth)), pose, k)
    u, v = pixel
    return chain.points[v, u], chain.coords[v, u], chain.in_front[v, u]


class TestUnproject:
    """The back-projection stage of warp_chain: d * K^-1 (u, v, 1)."""

    def test_principal_point_ray(self):
        point, _, _ = chain_at(K, PoseSE3.identity(), (64, 48), 10)
        assert tuple(point) == (0, 0, 10)

    def test_hand_computed_offsets(self):
        # x = (u - cx) * d / fx = 10*10/100 = 1; y = 20*10/100 = 2
        point, _, _ = chain_at(K, PoseSE3.identity(), (74, 68), 10)
        assert point == pytest.approx((1.0, 2.0, 10.0))

    def test_identity_intrinsics(self):
        k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=2, height=2)
        point, coords, _ = chain_at(k, PoseSE3.identity(), (0, 0), 1)
        assert tuple(point) == (0, 0, 1) and tuple(coords) == (0, 0)

    def test_depth_is_exact_z(self):
        point, _, _ = chain_at(K, PoseSE3.identity(), (3, 5), 7.25)
        assert point[2] == 7.25

    def test_nonpositive_depth_rejected(self):
        depth = np.full((K.height, K.width), 3.0)
        depth[0, 0], depth[1, 2] = 0.0, -1.0
        chain = warp_chain(depth, PoseSE3.identity(), K)
        assert not chain.in_front[0, 0] and not chain.in_front[1, 2]
        assert tuple(chain.coords[0, 0]) == (0, 0) and tuple(chain.coords[1, 2]) == (0, 0)
        assert chain.in_front.sum() == chain.in_front.size - 2


class TestTransform:
    """The rigid-transform stage of warp_chain: R @ p + t."""

    def test_identity(self):
        point, coords, _ = chain_at(K, PoseSE3.identity(), (64, 48), 2)
        assert point == pytest.approx((0, 0, 2))
        assert coords == pytest.approx((64, 48))

    def test_pure_translation(self):
        point, coords, _ = chain_at(K, PoseSE3(translation=(1, 0, 0)), (64, 48), 2)
        assert point == pytest.approx((1, 0, 2))
        assert coords == pytest.approx((64 + 100 * 1 / 2, 48))

    def test_rotation_90_about_z(self):
        # pixel (74, 48) at depth 10 is the point (1, 0, 10); Rz(90) maps it to (0, 1, 10)
        pose = PoseSE3(rotation=(0, 0, math.pi / 2))
        point, coords, _ = chain_at(K, pose, (74, 48), 10)
        assert point == pytest.approx((0, 1, 10), abs=1e-12)
        assert coords == pytest.approx((64, 58), abs=1e-12)


class TestProject:
    """The pinhole stage of warp_chain: (fx*x/z + cx, fy*y/z + cy) for z > EPS_Z."""

    def test_hand_computed_pinhole(self):
        # the principal ray at depth 10, moved to the point (1, 2, 10)
        _, coords, in_front = chain_at(K, PoseSE3(translation=(1, 2, 0)), (64, 48), 10)
        assert in_front
        assert coords == pytest.approx((74.0, 68.0))

    def test_optical_axis(self):
        _, coords, in_front = chain_at(K, PoseSE3(translation=(0, 0, 2)), (64, 48), 3)
        assert in_front
        assert coords == pytest.approx((64.0, 48.0))

    def test_behind_camera_point_flagged(self):
        # the principal ray at depth 2, moved to the point (1, 1, 0)
        point, coords, in_front = chain_at(K, PoseSE3(translation=(1, 1, -2)), (64, 48), 2)
        assert tuple(point) == (1.0, 1.0, 0.0)
        assert not in_front
        assert tuple(coords) == (0.0, 0.0)

    def test_cutoff_boundary(self):
        # with the identity pose the principal ray's z is exactly its depth
        _, coords, in_front = chain_at(K, PoseSE3.identity(), (64, 48), EPS_Z)
        assert not in_front and tuple(coords) == (0.0, 0.0)
        _, coords, in_front = chain_at(K, PoseSE3.identity(), (64, 48), 2 * EPS_Z)
        assert in_front and coords == pytest.approx((64.0, 48.0))


@given(
    u=st.integers(0, 127),
    v=st.integers(0, 95),
    d=st.floats(0.1, 100),
)
@settings(max_examples=200, deadline=None)
def test_project_unproject_round_trip(u, v, d):
    # the identity warp projects every back-projected pixel onto itself
    _, coords, in_front = chain_at(K, PoseSE3.identity(), (u, v), d)
    assert in_front
    assert abs(coords[0] - u) < 1e-9
    assert abs(coords[1] - v) < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pose_from_matrix_round_trip(seed):
    # from_matrix decodes the manifest's poses; away from gimbal lock
    # (|beta| < pi/2) it recovers the Euler angles themselves
    rng = np.random.default_rng(seed)
    pose = PoseSE3(
        rotation=tuple(rng.uniform(-1.2, 1.2, 3)),
        translation=tuple(rng.uniform(-5, 5, 3)),
    )
    back = PoseSE3.from_matrix(pose.rotation_matrix(), pose.translation_vector())
    assert np.abs(back.as_params() - pose.as_params()).max() < 1e-9
    assert np.abs(back.matrix() - pose.matrix()).max() < 1e-12


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
        chain = warp_chain(depth, PoseSE3.identity(), K)
        assert chain.valid.all()
        uu, vv = np.meshgrid(np.arange(K.width), np.arange(K.height))
        assert np.abs(chain.coords[..., 0] - uu).max() < 1e-9
        assert np.abs(chain.coords[..., 1] - vv).max() < 1e-9

    def test_hand_computed_translation(self):
        # unproject (0,0) at d=2 -> (0,0,2); +x by 1 -> (1,0,2); project -> (0.5, 0)
        k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=4, height=4)
        depth = np.full((4, 4), 2.0)
        chain = warp_chain(depth, PoseSE3(translation=(1, 0, 0)), k)
        assert chain.valid[0, 0]
        assert chain.coords[0, 0] == pytest.approx((0.5, 0.0))

    def test_zero_depth_flagged_invalid(self):
        depth = np.full((K.height, K.width), 5.0)
        depth[10, 20] = 0.0
        valid = warp_chain(depth, PoseSE3.identity(), K).valid
        assert not valid[10, 20]
        assert valid.sum() == valid.size - 1

    def test_behind_camera_flagged_invalid(self):
        depth = np.full((K.height, K.width), 1.0)
        valid = warp_chain(depth, PoseSE3(translation=(0, 0, -2)), K).valid
        assert not valid.any()

    def test_out_of_bounds_flagged_not_clamped(self):
        depth = np.full((K.height, K.width), 2.0)
        chain = warp_chain(depth, PoseSE3(translation=(1, 0, 0)), K)
        # 50 px uniform shift: columns beyond width-1-50 land outside
        assert chain.valid[:, : K.width - 51].all()
        assert not chain.valid[:, K.width - 50 :].any()
        # invalid coordinates are reported where they land, not clamped
        assert chain.coords[..., 0].max() > K.width - 1 + 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            warp_chain(np.ones((10, 10)), PoseSE3.identity(), K)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_covariance(self, s):
        rng = np.random.default_rng(7)
        depth = rng.uniform(2, 20, (K.height, K.width))
        pose = PoseSE3(rotation=(0.01, -0.02, 0.03), translation=(0.4, -0.1, 0.2))
        scaled = PoseSE3(
            rotation=pose.rotation,
            translation=tuple(s * np.asarray(pose.translation)),
        )
        a = warp_chain(depth, pose, K)
        b = warp_chain(s * depth, scaled, K)
        assert (a.valid == b.valid).all()
        assert np.abs(a.coords[a.valid] - b.coords[b.valid]).max() < 1e-12


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

    @pytest.mark.parametrize("fill", ["all", "none"])
    def test_warp_chain_all_or_no_pixel_in_front(self, fill):
        k = self.K_ODD
        if fill == "all":
            # a small motion of a far plane keeps every pixel in front
            depth, pose = np.full((k.height, k.width), 50.0), self.POSES["small"]
        else:
            depth, pose = -np.abs(self.depth(k)), self.POSES["small"]
        chain = warp_chain(depth, pose, k)
        points, coords, valid, in_front = interleaved_warp_chain(depth, pose, k)
        assert in_front.all() if fill == "all" else not in_front.any()
        for ours, ref in ((chain.points, points), (chain.coords, coords),
                          (chain.valid, valid), (chain.in_front, in_front)):
            assert ours.shape == ref.shape and ours.dtype == ref.dtype
            assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(ref).tobytes()
        if fill == "none":
            assert not chain.coords.any() and not np.signbit(chain.coords).any()

