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
    project,
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
    """warp_chain over a constant depth map; the (point, coords, valid)
    of one (u, v) pixel."""
    chain = warp_chain(np.full((k.height, k.width), float(depth)), pose, k)
    u, v = pixel
    return chain.points[:, v, u], chain.coords[:, v, u], chain.valid[v, u]


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
        # under the identity pose z is the depth itself, so 0 and -1 fall
        # behind the cut-off (the objective rejects such a depth before it
        # warps)
        depth = np.full((K.height, K.width), 3.0)
        depth[0, 0], depth[1, 2] = 0.0, -1.0
        chain = warp_chain(depth, PoseSE3.identity(), K)
        assert not chain.valid[0, 0] and not chain.valid[1, 2]
        assert tuple(chain.coords[:, 0, 0]) == (0, 0) and tuple(chain.coords[:, 1, 2]) == (0, 0)
        assert chain.valid.sum() == chain.valid.size - 2


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
        _, coords, valid = chain_at(K, PoseSE3(translation=(1, 2, 0)), (64, 48), 10)
        assert valid
        assert coords == pytest.approx((74.0, 68.0))

    def test_optical_axis(self):
        _, coords, valid = chain_at(K, PoseSE3(translation=(0, 0, 2)), (64, 48), 3)
        assert valid
        assert coords == pytest.approx((64.0, 48.0))

    def test_behind_camera_point_flagged(self):
        # the principal ray at depth 2, moved to the point (1, 1, 0)
        point, coords, valid = chain_at(K, PoseSE3(translation=(1, 1, -2)), (64, 48), 2)
        assert tuple(point) == (1.0, 1.0, 0.0)
        assert not valid
        assert tuple(coords) == (0.0, 0.0)

    def test_cutoff_boundary(self):
        # with the identity pose the principal ray's z is exactly its depth
        _, coords, valid = chain_at(K, PoseSE3.identity(), (64, 48), EPS_Z)
        assert not valid and tuple(coords) == (0.0, 0.0)
        _, coords, valid = chain_at(K, PoseSE3.identity(), (64, 48), 2 * EPS_Z)
        assert valid and coords == pytest.approx((64.0, 48.0))


@given(
    u=st.integers(0, 127),
    v=st.integers(0, 95),
    d=st.floats(0.1, 100),
)
@settings(max_examples=200, deadline=None)
def test_project_unproject_round_trip(u, v, d):
    # the identity warp projects every back-projected pixel onto itself
    _, coords, valid = chain_at(K, PoseSE3.identity(), (u, v), d)
    assert valid
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


# the explicit axis matrices, the reference for PoseSE3's rotation and Jacobians
def _rx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _ry(b):
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(g):
    c, s = math.cos(g), math.sin(g)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _drx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])


def _dry(b):
    c, s = math.cos(b), math.sin(b)
    return np.array([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])


def _drz(g):
    c, s = math.cos(g), math.sin(g)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


CACHE_ANGLES = [
    (0.0, 0.0, 0.0),
    (0.2, -0.7, 1.1),
    (0.3, math.pi / 2, -0.4),
    (-1.0, -math.pi / 2, 2.5),
    (3.0, -0.1, -3.0),
    (-0.0, -math.pi, -0.0),  # signed zeros and a half turn
    (math.pi / 2, -0.0, -math.pi),
]


class TestPoseCache:
    """The rotation matrix and its Jacobians are built once per pose."""

    @pytest.mark.parametrize("angles", CACHE_ANGLES)
    def test_cached_read_only_and_bit_equal(self, angles):
        a, b, g = angles
        pose = PoseSE3(rotation=angles, translation=(0.1, -0.2, 0.3))
        rot, jacs = pose.rotation_matrix(), pose.rotation_jacobians()
        assert pose.rotation_matrix() is rot
        assert pose.rotation_jacobians() is jacs
        expected = [
            _rz(g) @ _ry(b) @ _rx(a),
            _rz(g) @ _ry(b) @ _drx(a),
            _rz(g) @ _dry(b) @ _rx(a),
            _drz(g) @ _ry(b) @ _rx(a),
        ]
        assert len(jacs) == 3
        for ours, ref in zip((rot, *jacs), expected):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
            assert not ours.flags.writeable
            with pytest.raises(ValueError):
                ours[0, 0] = 1.0

    def test_poses_from_params_share_no_array(self):
        params = [np.r_[angles, 0.1 * i, 0.0, -0.2] for i, angles in enumerate(CACHE_ANGLES)]
        arrays = [
            (i, m)
            for i, pose in enumerate(PoseSE3.from_params(p) for p in params)
            for m in (pose.rotation_matrix(), *pose.rotation_jacobians())
        ]
        for i, a in arrays:
            for j, b in arrays:
                if i != j:
                    assert not np.shares_memory(a, b)


class TestWarpCoords:
    def test_identity_pose_is_identity_warp(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1, 20, (K.height, K.width))
        chain = warp_chain(depth, PoseSE3.identity(), K)
        assert chain.valid.all()
        uu, vv = np.meshgrid(np.arange(K.width), np.arange(K.height))
        assert np.abs(chain.coords[0] - uu).max() < 1e-9
        assert np.abs(chain.coords[1] - vv).max() < 1e-9

    def test_hand_computed_translation(self):
        # unproject (0,0) at d=2 -> (0,0,2); +x by 1 -> (1,0,2); project -> (0.5, 0)
        k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=4, height=4)
        depth = np.full((4, 4), 2.0)
        chain = warp_chain(depth, PoseSE3(translation=(1, 0, 0)), k)
        assert chain.valid[0, 0]
        assert chain.coords[:, 0, 0] == pytest.approx((0.5, 0.0))

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
        assert chain.coords[0].max() > K.width - 1 + 1.0

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
        assert np.abs(a.coords[:, a.valid] - b.coords[:, b.valid]).max() < 1e-12


class TestWarpWindow:
    """A window of 2 or more pixels gives every field the bits of the whole
    chain's slice; gradcheck's probes warp such windows."""

    k = CameraIntrinsics(fx=6.0, fy=5.0, cx=4.0, cy=3.0, width=9, height=7)

    @pytest.mark.parametrize("pose", [
        PoseSE3(rotation=(0.3, -0.8, 0.2), translation=(0.4, -0.3, -1.0)),
        PoseSE3(rotation=(-0.1, 0.2, 0.5), translation=(1.5, 0.2, -1.2)),
    ])
    def test_every_window_matches_the_whole_chain(self, pose):
        k = self.k
        depth = np.random.default_rng(9).uniform(0.5, 3.0, (k.height, k.width))
        whole = warp_chain(depth, pose, k)
        in_front = whole.points[2] > EPS_Z
        # some pixels behind the camera, some in front but out of bounds
        assert (~in_front).any() and (in_front & ~whole.valid).any() and whole.valid.any()
        for r0 in range(k.height):
            for r1 in range(r0 + 1, k.height + 1):
                for c0 in range(k.width):
                    for c1 in range(c0 + 1, k.width + 1):
                        if (r1 - r0) * (c1 - c0) < 2:
                            continue
                        got = warp_chain(depth, pose, k, (r0, r1, c0, c1))
                        for name, a, b in zip(whole._fields, got, whole):
                            b = b[..., r0:r1, c0:c1]
                            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (
                                name, r0, r1, c0, c1)

    def test_empty_window(self):
        k = self.k
        chain = warp_chain(np.ones((k.height, k.width)), PoseSE3.identity(), k, (0, 0, 0, 0))
        assert [a.shape for a in chain] == [(3, 0, 0), (2, 0, 0), (0, 0)]


def planes(a):
    """A (k, H, W) view of an interleaved (H, W, k) array."""
    return np.moveaxis(a, -1, 0)


def interleaved_warp_chain(depth, pose, k):
    """Reference: the warp chain computed on interleaved (H, W, k) arrays."""
    rays = np.moveaxis(k.pixel_rays(), 0, -1)
    points = (depth[..., None] * rays) @ pose.rotation_matrix().T + pose.translation_vector()
    z = points[..., 2]
    in_front = z > EPS_Z
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
    """The warp fields are component-first (k, H, W) planes; every value
    must match the interleaved computation bit for bit."""

    K_ODD = CameraIntrinsics(fx=31.0, fy=27.5, cx=17.3, cy=10.6, width=37, height=23)
    POSES = {
        "small": PoseSE3(rotation=(0.02, -0.03, 0.01), translation=(0.3, -0.1, 0.05)),
        # the source camera sits 2 m ahead: nearer points fall behind it
        "behind": PoseSE3(rotation=(0.05, 0.1, -0.05), translation=(0.2, 0.1, -2.0)),
        # a large sideways shift sends many coordinates out of bounds
        "out_of_bounds": PoseSE3(rotation=(0.0, 0.2, 0.0), translation=(2.0, 0.0, 0.3)),
    }

    def depth(self, k, seed=0):
        return np.random.default_rng(seed).uniform(1.0, 6.0, (k.height, k.width))

    @pytest.mark.parametrize("k", [K, K_ODD], ids=["128x96", "37x23"])
    def test_pixel_rays_are_one_cached_plane_array(self, k):
        rays = k.pixel_rays()
        assert rays.shape == (3, k.height, k.width) and rays.flags.c_contiguous
        assert rays.base is None and not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 1.0
        # one array per intrinsics value, shared by every caller
        assert CameraIntrinsics(k.fx, k.fy, k.cx, k.cy, k.width, k.height).pixel_rays() is rays
        k_mat = np.array([[k.fx, 0.0, k.cx], [0.0, k.fy, k.cy], [0.0, 0.0, 1.0]])
        for v in range(k.height):
            for u in range(k.width):
                ref = np.linalg.solve(k_mat, [u, v, 1.0])
                assert np.abs(rays[:, v, u] - ref).max() <= 1e-15 * (1 + np.abs(ref).max())

    @pytest.mark.parametrize("k", [K, K_ODD], ids=["128x96", "37x23"])
    @pytest.mark.parametrize("pose_name", list(POSES))
    def test_warp_chain_matches_interleaved(self, k, pose_name):
        depth = self.depth(k)
        pose = self.POSES[pose_name]
        chain = warp_chain(depth, pose, k)
        points, coords, valid, in_front = interleaved_warp_chain(depth, pose, k)
        h, w = depth.shape
        assert chain.points.shape == (3, h, w) and chain.coords.shape == (2, h, w)
        assert chain.points.flags.c_contiguous and chain.coords.flags.c_contiguous
        assert np.array_equal(chain.points, planes(points))
        assert np.array_equal(chain.coords, planes(coords))
        assert np.array_equal(chain.valid, valid)
        # the warp's coordinates are the one pinhole projection's, in front
        assert np.array_equal(project(chain.points, k)[:, in_front], chain.coords[:, in_front])
        if pose_name == "behind":
            assert (~in_front).any() and valid.any()
        if pose_name == "out_of_bounds":
            assert (in_front & ~valid).any() and valid.any()

    @pytest.mark.parametrize("k", [K, K_ODD], ids=["128x96", "37x23"])
    @pytest.mark.parametrize("pose_name", list(POSES))
    def test_projection_jacobian_matches_interleaved(self, k, pose_name):
        points = warp_chain(self.depth(k), self.POSES[pose_name], k).points
        jac = projection_jacobian(points, k)
        assert jac.shape == (2, 3) + points.shape[1:]
        assert jac.flags.c_contiguous
        ref = interleaved_projection_jacobian(np.moveaxis(points, 0, -1), k)
        assert np.array_equal(jac, np.moveaxis(ref, (-2, -1), (0, 1)))

    def test_projection_jacobian_of_point_rows(self):
        # the (3, N) view of (N, 3) point rows the reprojected-distance term passes
        points = np.random.default_rng(3).normal(0.0, 2.0, (50, 3))
        points[:5, 2] = [-1.0, 0.0, EPS_Z, 2 * EPS_Z, 4.0]
        jac = projection_jacobian(points.T, K)
        assert jac.shape == (2, 3, 50)
        assert np.array_equal(jac, np.moveaxis(interleaved_projection_jacobian(points, K), 0, -1))
        assert not jac[..., :3].any() and jac[0, 0, 3:5].all()

    @pytest.mark.parametrize("fill", ["all", "none"])
    def test_warp_chain_all_or_no_pixel_in_front(self, fill):
        k = self.K_ODD
        if fill == "all":
            # a small motion of a far plane keeps every pixel in front
            depth, pose = np.full((k.height, k.width), 50.0), self.POSES["small"]
        else:
            # the source camera sits 10 m ahead of every point (depth <= 6 m)
            depth, pose = self.depth(k), PoseSE3(translation=(0.0, 0.0, -10.0))
        chain = warp_chain(depth, pose, k)
        points, coords, valid, in_front = interleaved_warp_chain(depth, pose, k)
        assert in_front.all() if fill == "all" else not in_front.any()
        for ours, ref in ((chain.points, planes(points)), (chain.coords, planes(coords)),
                          (chain.valid, valid)):
            assert ours.shape == ref.shape and ours.dtype == ref.dtype
            assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(ref).tobytes()
        if fill == "none":
            assert not chain.coords.any() and not np.signbit(chain.coords).any()

