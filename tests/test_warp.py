import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm_losskit import warp
from sfm_losskit.errors import DimensionError
from sfm_losskit.geometry import CameraIntrinsics, PoseSE3, warp_chain
from sfm_losskit.warp import sample_bilinear, sample_bilinear_grad, sampling, validate_image


def identity_coords(h, w):
    uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return np.stack([uu, vv], axis=-1)


def random_image(rng, h, w, c=1):
    return rng.uniform(0, 1, (h, w, c))


def sample(src, coords, valid):
    """sample_bilinear at a sampling state built for this call alone."""
    return sample_bilinear(src, sampling(coords, valid, src.shape[:2]))


def sample_grad(src, coords, valid, upstream):
    """sample_bilinear_grad at a sampling state built for this call alone."""
    return sample_bilinear_grad(src, upstream, sampling(coords, valid, src.shape[:2]))


class TestSampleBilinear:
    def test_identity_reproduces_source_exactly(self):
        rng = np.random.default_rng(0)
        src = random_image(rng, 7, 9, 3)
        out = sample(src, identity_coords(7, 9), np.ones((7, 9), bool))
        assert (out == src).all()

    def test_hand_computed_half_blend(self):
        src = np.zeros((2, 3, 1))
        src[0, :, 0] = [0.0, 1.0, 0.25]
        coords = np.array([[[0.5, 0.0]]])
        out = sample(src, coords, np.ones((1, 1), bool))
        assert out[0, 0, 0] == pytest.approx(0.5)

    def test_invalid_pixels_zeroed(self):
        rng = np.random.default_rng(1)
        src = random_image(rng, 5, 5)
        coords = identity_coords(5, 5)
        valid = np.ones((5, 5), bool)
        valid[2, 2] = False
        out = sample(src, coords, valid)
        assert out[2, 2, 0] == 0.0

    def test_dimension_mismatch(self):
        src = np.zeros((4, 4, 1))
        with pytest.raises(DimensionError):
            sample(src, identity_coords(3, 3), np.ones((4, 4), bool))
        # a state built for another source shape reads other pixels
        at = sampling(identity_coords(3, 3), np.ones((3, 3), bool), (3, 3))
        with pytest.raises(DimensionError):
            sample_bilinear(src, at)
        with pytest.raises(DimensionError):
            sample_bilinear_grad(src, np.ones((3, 3, 1)), at)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_convex_combination_of_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        src = random_image(rng, 6, 8)
        u = rng.uniform(0, 7, (4, 5))
        v = rng.uniform(0, 5, (4, 5))
        coords = np.stack([u, v], axis=-1)
        out = sample(src, coords, np.ones((4, 5), bool))
        x0 = np.clip(np.floor(u).astype(int), 0, 6)
        y0 = np.clip(np.floor(v).astype(int), 0, 4)
        corners = np.stack(
            [
                src[y0, x0, 0],
                src[y0, np.minimum(x0 + 1, 7), 0],
                src[np.minimum(y0 + 1, 5), x0, 0],
                src[np.minimum(y0 + 1, 5), np.minimum(x0 + 1, 7), 0],
            ]
        )
        assert (out[..., 0] >= corners.min(axis=0) - 1e-12).all()
        assert (out[..., 0] <= corners.max(axis=0) + 1e-12).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_the_image(self, seed):
        rng = np.random.default_rng(seed)
        img_a = random_image(rng, 6, 6)
        img_b = random_image(rng, 6, 6)
        a, b = rng.uniform(-2, 2, 2)
        coords = np.stack(
            [rng.uniform(0, 5, (3, 3)), rng.uniform(0, 5, (3, 3))], axis=-1
        )
        valid = np.ones((3, 3), bool)
        combined = sample(a * img_a + b * img_b, coords, valid)
        separate = (
            a * sample(img_a, coords, valid)
            + b * sample(img_b, coords, valid)
        )
        assert np.abs(combined - separate).max() < 1e-12


class TestSampleBilinearGrad:
    def test_flat_image_has_zero_gradient(self):
        src = np.full((5, 7, 1), 0.375)
        rng = np.random.default_rng(2)
        coords = np.stack(
            [rng.uniform(0, 6, (4, 4)), rng.uniform(0, 4, (4, 4))], axis=-1
        )
        up = rng.uniform(0, 1, (4, 4, 1))
        grad = sample_grad(src, coords, np.ones((4, 4), bool), up)
        assert np.abs(grad).max() < 1e-12

    def test_column_ramp_gradient(self):
        w = 9
        ramp = np.tile(np.arange(w) / (w - 1), (5, 1))[..., None]
        coords = np.stack([np.full((2, 2), 3.3), np.full((2, 2), 2.6)], axis=-1)
        up = np.ones((2, 2, 1))
        grad = sample_grad(ramp, coords, np.ones((2, 2), bool), up)
        assert grad[..., 0] == pytest.approx(1.0 / (w - 1))
        assert grad[..., 1] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_pixels_zero_gradient(self):
        rng = np.random.default_rng(3)
        src = random_image(rng, 5, 5)
        coords = np.stack(
            [rng.uniform(1, 3, (2, 2)), rng.uniform(1, 3, (2, 2))], axis=-1
        )
        valid = np.array([[True, False], [False, True]])
        grad = sample_grad(src, coords, valid, np.ones((2, 2, 1)))
        assert (grad[~valid] == 0).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        src = random_image(rng, 8, 10, 3)
        h = 1e-4
        # stay h away from the integer lattice, where bilinear kinks live
        u = rng.uniform(0, 8, (3, 4))
        v = rng.uniform(0, 6, (3, 4))
        u = np.where(np.abs(u - np.round(u)) < 2 * h, u + 4 * h, u)
        v = np.where(np.abs(v - np.round(v)) < 2 * h, v + 4 * h, v)
        coords = np.stack([u, v], axis=-1)
        valid = np.ones((3, 4), bool)
        up = rng.uniform(-1, 1, (3, 4, 3))
        grad = sample_grad(src, coords, valid, up)
        for i in range(3):
            for j in range(4):
                for d in range(2):
                    cp = coords.copy()
                    cp[i, j, d] += h
                    fp = (sample(src, cp, valid) * up).sum()
                    cp[i, j, d] -= 2 * h
                    fm = (sample(src, cp, valid) * up).sum()
                    fd = (fp - fm) / (2 * h)
                    a = grad[i, j, d]
                    assert abs(a - fd) <= 1e-5 * max(abs(a), abs(fd), 1.0)


def test_validate_image_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        validate_image(np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        validate_image(np.zeros((4, 4, 2)))
    with pytest.raises(DimensionError):
        validate_image(np.full((4, 4, 1), np.nan))


def interleaved_corners(src, coords, valid):
    """Reference corner set-up on interleaved (H, W, 2) coordinates."""
    h, w = src.shape[:2]
    u = np.clip(np.where(valid, coords[..., 0], 0.0), 0.0, w - 1.0)
    v = np.clip(np.where(valid, coords[..., 1], 0.0), 0.0, h - 1.0)
    x0 = np.clip(np.floor(u).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(v).astype(np.intp), 0, max(h - 2, 0))
    x1 = x0 + (1 if w > 1 else 0)
    y1 = y0 + (1 if h > 1 else 0)
    return src[y0, x0], src[y0, x1], src[y1, x0], src[y1, x1], u - x0, v - y0


def interleaved_sample(src, coords, valid):
    c00, c01, c10, c11, wu, wv = interleaved_corners(src, coords, valid)
    out = (
        ((1.0 - wu) * (1.0 - wv))[..., None] * c00
        + (wu * (1.0 - wv))[..., None] * c01
        + ((1.0 - wu) * wv)[..., None] * c10
        + (wu * wv)[..., None] * c11
    )
    out[~valid] = 0.0
    return out


def interleaved_sample_grad(src, coords, valid, upstream):
    c00, c01, c10, c11, wu, wv = interleaved_corners(src, coords, valid)
    du = np.sum(upstream * ((1.0 - wv)[..., None] * (c01 - c00) + wv[..., None] * (c11 - c10)),
                axis=-1)
    dv = np.sum(upstream * ((1.0 - wu)[..., None] * (c10 - c00) + wu[..., None] * (c11 - c01)),
                axis=-1)
    grad = np.stack([du, dv], axis=-1)
    grad[~valid] = 0.0
    return grad


class TestPlanarLayout:
    """The samplers read planar coordinates and write a planar gradient;
    every value must match the interleaved computation bit for bit."""

    def cases(self, channels):
        rng = np.random.default_rng(channels)
        k = CameraIntrinsics(fx=31.0, fy=27.5, cx=17.3, cy=10.6, width=37, height=23)
        src = random_image(rng, 23, 37, channels)
        depth = rng.uniform(1.0, 6.0, (23, 37))
        for pose in (
            PoseSE3(rotation=(0.02, -0.03, 0.01), translation=(0.3, -0.1, 0.05)),
            PoseSE3(rotation=(0.05, 0.1, -0.05), translation=(0.2, 0.1, -2.0)),  # behind
            PoseSE3(rotation=(0.0, 0.2, 0.0), translation=(2.0, 0.0, 0.3)),  # out of bounds
        ):
            chain = warp_chain(depth, pose, k)
            yield src, chain.coords, chain.valid
            # every pixel flagged valid: out-of-bounds coordinates get clipped
            yield src, chain.coords, np.ones_like(chain.valid)
        # interleaved, contiguous coordinates on and past the lattice and border
        u = rng.integers(-3, 41, (5, 11)).astype(float)
        v = rng.uniform(-2.0, 25.0, (5, 11))
        v[0] = [0.0, 22.0, 21.0, -0.0, 22.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        yield src, np.stack([u, v], axis=-1), rng.uniform(size=(5, 11)) < 0.8

    @pytest.mark.parametrize("channels", [1, 3])
    def test_sample_matches_interleaved(self, channels):
        for src, coords, valid in self.cases(channels):
            out = sample(src, coords, valid)
            assert out.shape == valid.shape + (channels,)
            assert np.array_equal(out, interleaved_sample(src, coords, valid))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_grad_matches_interleaved(self, channels):
        rng = np.random.default_rng(10 + channels)
        for src, coords, valid in self.cases(channels):
            up = rng.uniform(-1, 1, valid.shape + (channels,))
            grad = sample_grad(src, coords, valid, up)
            assert grad.shape == valid.shape + (2,)
            assert np.moveaxis(grad, -1, 0).flags.c_contiguous
            assert np.array_equal(grad, interleaved_sample_grad(src, coords, valid, up))


def same_bits(a, b):
    """Equal shape, dtype and bytes: stricter than np.array_equal, as it
    also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def test_corner_clip_keeps_np_clip_bits():
    # the sampling state clips its float coordinates in place with the
    # ndarray method; its bits must stay np.clip's, a -0.0 coordinate included
    rng = np.random.default_rng(5)
    src = random_image(rng, 6, 7, 3)
    u = np.tile([-0.0, 0.0, -1e-12, 6.0, 6.5, 3.25, 5.999], (6, 1))
    v = np.tile([[-0.0], [0.0], [-3e-10], [5.0], [9.0], [2.5]], (1, 7))
    coords = np.stack([u, v], axis=-1)
    valid = np.ones((6, 7), bool)
    at = sampling(coords, valid, src.shape[:2])
    ours = warp._corners(src, at) + (at.wu, at.wv)
    for got, ref in zip(ours, interleaved_corners(src, coords, valid)):
        assert same_bits(got, ref)


class TestSharedSampling:
    """One sampling state serves the sample and its gradient, as in the
    objective; both must read it without writing and match the interleaved
    references bit for bit, on sources one pixel wide or high too, where
    the upper corner is the lower one."""

    def cases(self, channels):
        yield from TestPlanarLayout().cases(channels)
        rng = np.random.default_rng(20 + channels)
        for h, w in ((1, 9), (9, 1), (1, 1)):
            src = random_image(rng, h, w, channels)
            u = rng.uniform(-2.0, w + 1.0, (4, 6))
            v = rng.uniform(-2.0, h + 1.0, (4, 6))
            u[0] = [-0.0, 0.0, w - 1.0, w, 0.5, 1.0]
            v[:, 0] = [-0.0, 0.0, h - 1.0, h]
            yield src, np.stack([u, v], axis=-1), rng.uniform(size=(4, 6)) < 0.8

    @pytest.mark.parametrize("channels", [1, 3])
    def test_one_state_for_both_samplers(self, channels):
        rng = np.random.default_rng(30 + channels)
        for src, coords, valid in self.cases(channels):
            up = rng.uniform(-1, 1, valid.shape + (channels,))
            at = sampling(coords, valid, src.shape[:2])
            for plane in at[:4]:
                plane.setflags(write=False)  # a write into the shared state raises
            out = sample_bilinear(src, at)
            grad = sample_bilinear_grad(src, up, at)
            assert same_bits(out, interleaved_sample(src, coords, valid))
            assert same_bits(grad, interleaved_sample_grad(src, coords, valid, up))


def test_nan_coordinate_reads_nan_at_its_pixel_only():
    # a NaN coordinate casts to the most negative intp; the corner clip must
    # still land it in bounds, so only its own pixel comes back NaN
    rng = np.random.default_rng(6)
    src = random_image(rng, 5, 6, 3)
    coords = np.stack(np.meshgrid(np.linspace(0, 5, 6), np.linspace(0, 4, 5)), axis=-1)
    coords[1, 2, 0] = np.nan
    coords[3, 4, 1] = np.nan
    valid = np.ones((5, 6), bool)
    upstream = rng.normal(size=src.shape)
    with np.errstate(invalid="ignore"):
        out = sample(src, coords, valid)
        grad = sample_grad(src, coords, valid, upstream)
    nan_at = [[1, 2], [3, 4]]
    assert np.argwhere(np.isnan(out).all(axis=-1)).tolist() == nan_at
    assert np.argwhere(np.isnan(grad).any(axis=-1)).tolist() == nan_at
    finite = ~np.isnan(out).any(axis=-1)
    assert same_bits(out[finite], src[finite])


class TestMaskedStores:
    """Invalid pixels are zeroed by masked copies per plane; the result must
    equal the boolean-index stores of the interleaved references bit for
    bit, also when every pixel or no pixel is valid. The samplers only read
    the caller's mask: the objective hands them, and the photometric term
    after them, the warp chain's own mask without a copy."""

    @pytest.mark.parametrize("fill", ["mixed", "all", "none"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_samplers_zero_invalid_pixels(self, channels, fill):
        rng = np.random.default_rng(40 + channels)
        # signed values: a product that rounds to -0.0 must not survive
        src = rng.uniform(-1, 1, (9, 13, channels))
        coords = np.stack([rng.uniform(-1, 13, (9, 13)), rng.uniform(-1, 9, (9, 13))], axis=-1)
        valid = {"mixed": rng.uniform(size=(9, 13)) < 0.7, "all": np.ones((9, 13), bool),
                 "none": np.zeros((9, 13), bool)}[fill]
        valid.setflags(write=False)  # a write into it raises
        up = rng.uniform(-1, 1, (9, 13, channels))
        out = sample(src, coords, valid)
        grad = sample_grad(src, coords, valid, up)
        assert same_bits(out, interleaved_sample(src, coords, valid))
        assert same_bits(grad, interleaved_sample_grad(src, coords, valid, up))
        assert same_bits(out[~valid], np.zeros((int((~valid).sum()), channels)))
        assert same_bits(grad[~valid], np.zeros((int((~valid).sum()), 2)))

