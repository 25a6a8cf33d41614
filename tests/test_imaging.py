"""Image ingestion, filtering, binarization, and the boundary ring."""

import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from handgeo.contour import find_landmarks, trace_contour
from handgeo.errors import ConfigError, ContourError, FormatError, LandmarkError, SizeError
from handgeo.imaging import (
    DEFAULT_THRESHOLD,
    MAX_KERNEL_RADIUS,
    BinaryImage,
    GrayImage,
    _window_varies,
    binarize,
    boundary_ring,
    load_bmp,
    lowpass_filter,
    save_bmp,
)
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import _draw_prototype, render


def bmp_bytes(rows, bit_depth=8, ppm=0, compression=0, palette=None):
    """Hand-rolled bottom-up 8-bit BMP; palette is BGRA quads, by default
    the identity grayscale palette."""
    if palette is None:
        palette = bytes(b for i in range(256) for b in (i, i, i, 0))
    height, width = len(rows), len(rows[0])
    stride = (width + 3) & ~3
    pixel_offset = 14 + 40 + len(palette)
    body = b"".join(bytes(row) + b"\0" * (stride - width) for row in reversed(rows))
    header = struct.pack("<2sIHHI", b"BM", pixel_offset + len(body), 0, 0, pixel_offset)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, bit_depth, compression,
        len(body), ppm, ppm, len(palette) // 4, 0,
    )
    return header + dib + palette + body


def gray(array, dpi=100.0):
    return GrayImage(pixels=np.asarray(array, dtype=float), dpi=dpi)


class TestGrayImage:
    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01, np.inf])
    def test_values_outside_the_unit_range_are_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            GrayImage(pixels=[[bad, 0.5], [0.2, 0.3]])


class TestLoadBmp:
    def test_endpoint_bytes_map_to_unit_range(self, tmp_path):
        path = tmp_path / "two.bmp"
        path.write_bytes(bmp_bytes([[0, 255]]))
        img = load_bmp(path)
        assert img.pixels.tolist() == [[0.0, 1.0]]

    def test_midscale_byte_scales_linearly(self, tmp_path):
        path = tmp_path / "mid.bmp"
        path.write_bytes(bmp_bytes([[128]]))
        img = load_bmp(path)
        assert img.pixels[0, 0] == pytest.approx(128 / 255)

    def test_24_bit_depth_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "deep.bmp"
        path.write_bytes(bmp_bytes([[7]], bit_depth=24))
        with pytest.raises(FormatError, match="unsupported bit depth 24"):
            load_bmp(path)

    def test_compressed_file_is_rejected(self, tmp_path):
        path = tmp_path / "rle.bmp"
        path.write_bytes(bmp_bytes([[7]], compression=1))
        with pytest.raises(FormatError, match="compression"):
            load_bmp(path)

    def test_missing_resolution_defaults_to_100_dpi(self, tmp_path):
        path = tmp_path / "nores.bmp"
        path.write_bytes(bmp_bytes([[1, 2], [3, 4]], ppm=0))
        assert load_bmp(path).dpi == 100.0

    def test_resolution_field_is_converted_from_pixels_per_metre(self, tmp_path):
        path = tmp_path / "res.bmp"
        path.write_bytes(bmp_bytes([[1]], ppm=3937))
        assert load_bmp(path).dpi == pytest.approx(100.0, abs=1e-3)

    def test_palette_of_more_than_256_colours_is_rejected(self, tmp_path):
        data = bytearray(bmp_bytes([[1, 2], [3, 4]]))
        struct.pack_into("<I", data, 46, 300)
        path = tmp_path / "wide.bmp"
        path.write_bytes(bytes(data) + bytes(4 * 300))  # long enough for the palette
        with pytest.raises(FormatError, match="palette of 300 colours"):
            load_bmp(path)

    def test_bad_signature_is_rejected(self, tmp_path):
        path = tmp_path / "not.bmp"
        path.write_bytes(b"PNG" + b"\0" * 60)
        with pytest.raises(FormatError, match="signature"):
            load_bmp(path)

    def test_truncated_pixel_data_is_rejected(self, tmp_path):
        path = tmp_path / "short.bmp"
        path.write_bytes(bmp_bytes([[1, 2], [3, 4]])[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_bmp(path)

    def test_round_trip_preserves_bytes_and_orientation(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 256, size=(13, 9))
        path = tmp_path / "rt.bmp"
        save_bmp(gray(values / 255.0), path)
        back = load_bmp(path)
        np.testing.assert_array_equal(np.rint(back.pixels * 255), values)

    @settings(deadline=None)
    @given(
        st.integers(1, 256).flatmap(lambda colors: hnp.arrays(np.uint8, (colors, 4))),
        hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)),
    )
    def test_pixels_equal_the_per_pixel_formula_on_any_palette(self, quads, raw):
        # The former load_bmp: gather each pixel's luminance, then clip and
        # divide every pixel. Entries past a short palette are black.
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "palette.bmp"
            path.write_bytes(bmp_bytes(raw.tolist(), palette=quads.tobytes()))
            img = load_bmp(path)
        bgr = quads.astype(np.float64)
        luminance = np.zeros(256)
        luminance[: len(quads)] = 0.299 * bgr[:, 2] + 0.587 * bgr[:, 1] + 0.114 * bgr[:, 0]
        np.testing.assert_array_equal(img.pixels, np.clip(luminance[raw], 0.0, 255.0) / 255.0)

    def test_oversized_image_is_rejected(self):
        with pytest.raises(SizeError, match="5000"):
            save_bmp(gray(np.zeros((1, 5001))), "/tmp/never-written.bmp")


class TestLowpassFilter:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(0)
        img = gray(rng.random((8, 11)))
        out = lowpass_filter(img, 0)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_constant_image_is_preserved_exactly(self):
        img = gray(np.full((9, 9), 0.37))
        out = lowpass_filter(img, 2)
        np.testing.assert_array_equal(out.pixels, np.full((9, 9), 0.37))

    def test_isolated_centre_spreads_to_one_ninth(self):
        img = gray(np.pad([[1.0]], 1))
        out = lowpass_filter(img, 1)
        assert out.pixels[1, 1] == pytest.approx(1 / 9)

    def test_replicated_borders_average_edge_values(self):
        # A 3x3 all-ones image must stay all ones: every (2r+1)^2 window,
        # with replicated borders, sees only ones.
        img = gray(np.ones((3, 3)))
        out = lowpass_filter(img, 1)
        np.testing.assert_array_equal(out.pixels, np.ones((3, 3)))

    def test_negative_radius_is_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            lowpass_filter(gray(np.zeros((2, 2))), -1)

    def test_radius_above_the_bound_is_rejected(self):
        lowpass_filter(gray(np.zeros((2, 2))), MAX_KERNEL_RADIUS)
        with pytest.raises(ValueError, match="radius"):
            lowpass_filter(gray(np.zeros((2, 2))), MAX_KERNEL_RADIUS + 1)

    @pytest.mark.parametrize("radius", [1.5, 1.0, "1"])
    def test_non_integer_radius_is_a_config_error(self, radius):
        with pytest.raises(ConfigError, match="kernel_radius must be an integer"):
            ExtractionSettings(kernel_radius=radius)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(0.0, 1.0),
        ),
        st.integers(0, 3),
    )
    def test_output_stays_inside_unit_range(self, pixels, radius):
        out = lowpass_filter(gray(pixels), radius)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


@st.composite
def plateau_images(draw):
    """Images on a coarse grey scale, so constant windows are common."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 4))
    steps = draw(
        hnp.arrays(np.int64, (height, width), elements=st.integers(0, levels))
    )
    return steps / levels


def rank_flat(pixels, radius):
    """Where the edge-replicated (2r+1)^2 window is constant: min == max."""
    size = 2 * radius + 1
    return ndimage.minimum_filter(
        pixels, size=size, mode="nearest"
    ) == ndimage.maximum_filter(pixels, size=size, mode="nearest")


def reference_lowpass_filter(img: GrayImage, radius: int) -> GrayImage:
    """The SciPy box filter lowpass_filter replaced: a uniform filter with
    edge replication, flat windows copied through, clipped to [0, 1]."""
    out = ndimage.uniform_filter(img.pixels, size=2 * radius + 1, mode="nearest")
    flat = rank_flat(img.pixels, radius)
    out[flat] = img.pixels[flat]
    return GrayImage(pixels=np.clip(out, 0.0, 1.0), dpi=img.dpi)


def byte_images():
    """Images of 8-bit intensities, as load_bmp yields from save_bmp's files."""
    return hnp.arrays(
        np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
    ).map(lambda raw: raw / 255.0)


class TestFlatWindows:
    """The doubling flat mask against the rank filters it replaced."""

    @settings(deadline=None)
    @given(
        st.one_of(
            plateau_images(),
            hnp.arrays(
                np.float64,
                st.tuples(st.just(1), st.integers(1, 16)),
                elements=st.sampled_from([0.0, 0.25, 1.0]),
            ),
            hnp.arrays(
                np.float64,
                hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                elements=st.floats(0.0, 1.0),
            ),
        ),
        st.integers(1, MAX_KERNEL_RADIUS),
        st.booleans(),
    )
    def test_flat_mask_equals_min_equals_max(self, pixels, radius, transpose):
        if transpose:
            pixels = pixels.T.copy()
        padded = np.pad(pixels, radius, mode="edge")
        np.testing.assert_array_equal(
            ~_window_varies(padded, radius), rank_flat(pixels, radius)
        )


class TestLowpassAgainstUniformFilter:
    """lowpass_filter against the SciPy filter it replaced. Sums taken in
    another order differ in the last bits, so only flat windows are exact."""

    @settings(deadline=None)
    @given(
        st.one_of(
            plateau_images(),
            byte_images(),
            hnp.arrays(
                np.float64,
                hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                elements=st.floats(0.0, 1.0),
            ),
        ),
        st.integers(0, MAX_KERNEL_RADIUS),
    )
    def test_flat_windows_are_exact_and_the_rest_within_1e_12(self, pixels, radius):
        out = lowpass_filter(gray(pixels), radius).pixels
        expected = reference_lowpass_filter(gray(pixels), radius).pixels
        flat = rank_flat(pixels, radius)
        np.testing.assert_array_equal(out[flat], expected[flat])
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(byte_images(), st.integers(0, MAX_KERNEL_RADIUS), st.data())
    def test_byte_images_binarize_alike(self, pixels, radius, data):
        # An 8-bit window mean is m / (255 (2r+1)^2) for a whole m, so a
        # threshold midway between two such means separates them by far more
        # than the rounding of either sum.
        out = lowpass_filter(gray(pixels), radius)
        expected = reference_lowpass_filter(gray(pixels), radius)
        scale = 255 * (2 * radius + 1) ** 2
        near = int(np.rint(data.draw(st.sampled_from(expected.pixels.ravel())) * scale))
        m = data.draw(st.sampled_from([max(near - 1, 0), min(near, scale - 1)]))
        for threshold in (DEFAULT_THRESHOLD, (m + 0.5) / scale):
            np.testing.assert_array_equal(
                binarize(out, threshold).bits, binarize(expected, threshold).bits
            )


class TestBinarize:
    def test_byte_18_is_just_above_threshold(self):
        img = gray([[18 / 255]])
        assert binarize(img, 0.07).bits[0, 0] == 1

    def test_byte_17_is_just_below_threshold(self):
        img = gray([[17 / 255]])
        assert binarize(img, 0.07).bits[0, 0] == 0

    def test_all_zero_image_maps_to_empty_mask(self):
        out = binarize(gray(np.zeros((4, 4))), 0.07)
        assert out.bits.sum() == 0

    def test_every_byte_matches_the_direct_inequality(self):
        img = gray(np.arange(256).reshape(16, 16) / 255.0)
        out = binarize(img, 0.07)
        expected = (np.arange(256).reshape(16, 16) / 255.0 >= 0.07).astype(np.uint8)
        np.testing.assert_array_equal(out.bits, expected)

    @given(st.floats(0.01, 1.0))
    def test_support_is_stable_under_rebinarization(self, threshold):
        rng = np.random.default_rng(7)
        img = gray(rng.random((6, 6)))
        once = binarize(img, threshold)
        again = binarize(gray(once.bits.astype(float)), threshold)
        np.testing.assert_array_equal(once.bits, again.bits)


# -- reference edge detector: the Laplacian-of-Gaussian stage boundary_ring replaced --


def reference_detect_edges_log(img: BinaryImage, sigma: float = 1.0) -> BinaryImage:
    """Laplacian-of-Gaussian zero-crossing edge map of a binary image.

    A pixel is an edge when its LoG response is negative (the bright side
    of the transition) and a 4-neighbour has positive response with the
    absolute difference above a small slope floor. Each foreground region
    yields a closed, one-pixel-wide loop just inside its boundary; an
    empty or constant image yields an empty map.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    response = ndimage.gaussian_laplace(
        img.bits.astype(np.float64), sigma=sigma, mode="nearest"
    )
    peak = float(np.abs(response).max())
    edges = np.zeros(img.bits.shape, dtype=bool)
    if peak == 0.0:
        return BinaryImage(bits=edges.astype(np.uint8), dpi=img.dpi)
    floor = 1e-6 * peak

    neg = response < 0.0
    pos = response > 0.0
    steep_v = np.abs(response[1:, :] - response[:-1, :]) > floor
    edges[1:, :] |= neg[1:, :] & pos[:-1, :] & steep_v
    edges[:-1, :] |= neg[:-1, :] & pos[1:, :] & steep_v
    steep_h = np.abs(response[:, 1:] - response[:, :-1]) > floor
    edges[:, 1:] |= neg[:, 1:] & pos[:, :-1] & steep_h
    edges[:, :-1] |= neg[:, :-1] & pos[:, 1:] & steep_h
    return BinaryImage(bits=edges.astype(np.uint8), dpi=img.dpi)


@st.composite
def opened_blobs(draw):
    """Thresholded smooth noise, opened and closed by a 5x5 square.

    Opening removes foreground features narrower than 5 px and closing
    fills background gaps narrower than 5 px, the two kinds of 1-px
    feature where the ring and the LoG differ. Both count pixels outside
    the image as foreground, as the ring does, so most blobs touch the
    border.
    """
    height, width = draw(st.integers(8, 64)), draw(st.integers(8, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smoothing = draw(st.floats(1.0, 4.0))
    field = ndimage.gaussian_filter(rng.standard_normal((height, width)), smoothing)
    mask = field > draw(st.floats(-0.5, 0.5)) * field.std()
    square = np.ones((5, 5), dtype=bool)
    mask = ndimage.binary_opening(mask, square, border_value=1)
    mask = ndimage.binary_closing(mask, square, border_value=1)
    return BinaryImage(bits=mask.astype(np.uint8))


class TestDetectEdgesLog:
    """The edge stage, `boundary_ring` (perfbench still names its span
    `imaging.detect_edges_log`), against the LoG it replaced."""

    def test_constant_images_yield_empty_edge_maps(self):
        for value in (0, 1):
            edges = boundary_ring(BinaryImage(bits=np.full((10, 10), value)))
            assert edges.bits.sum() == 0

    def test_square_edge_matches_the_inner_boundary(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[10:30, 10:30] = True
        expected = mask.copy()
        expected[11:29, 11:29] = False
        edges = boundary_ring(BinaryImage(bits=mask.astype(np.uint8)))
        np.testing.assert_array_equal(edges.bits.astype(bool), expected)

    def test_a_mask_touching_the_border_gets_no_edge_along_it(self):
        # Pixels outside the image count as foreground (edge replication).
        bits = np.zeros((10, 12), dtype=np.uint8)
        bits[:, :6] = 1
        bits[:4, 6:] = 1
        expected = np.zeros_like(bits)
        expected[3, 6:] = 1
        expected[4:, 5] = 1
        img = BinaryImage(bits=bits)
        np.testing.assert_array_equal(boundary_ring(img).bits, expected)
        np.testing.assert_array_equal(reference_detect_edges_log(img).bits, expected)

    # Most renders break the opened_blobs condition somewhere: a 5x5
    # closing fills a few pixels at a valley bottom or a wrist corner. So
    # the two are compared everywhere but within 1 px of a background gap
    # that closing fills, where the LoG's blur reaches across the gap. At
    # the pinned example, sigma 1 and the ring differ in 4 pixels beside a
    # valley 2 px wide.
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dpi=st.floats(60.0, 150.0),
        noise=st.floats(0.0, 0.05),
        radius=st.integers(0, 1),
    )
    @example(seed=362880, dpi=60.0, noise=0.0, radius=1)
    def test_equals_the_log_on_noisy_renders(self, sigma, seed, dpi, noise, radius):
        params = dataclasses.replace(_draw_prototype(np.random.default_rng(seed)), seed=seed)
        img, _ = render(params, dpi, noise)
        silhouette = binarize(lowpass_filter(img, radius))
        expected = reference_detect_edges_log(silhouette, sigma)
        mask = silhouette.bits.astype(bool)
        square = np.ones((5, 5), dtype=bool)
        narrow_gaps = ndimage.binary_closing(mask, square, border_value=1) & ~mask
        away = ~ndimage.binary_dilation(narrow_gaps, np.ones((3, 3), dtype=bool))
        np.testing.assert_array_equal(boundary_ring(silhouette).bits[away], expected.bits[away])

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @settings(deadline=None, max_examples=100)
    @given(opened_blobs())
    def test_equals_the_log_on_opened_blobs(self, sigma, blob):
        expected = reference_detect_edges_log(blob, sigma)
        np.testing.assert_array_equal(boundary_ring(blob).bits, expected.bits)

    def test_a_lone_pixel_leaves_no_loop_where_the_log_drew_a_diamond(self):
        pixels = np.zeros((9, 9))
        pixels[4, 4] = 1.0
        silhouette = binarize(GrayImage(pixels))
        np.testing.assert_array_equal(boundary_ring(silhouette).bits, silhouette.bits)
        with pytest.raises(ContourError, match="no closed contour loop"):
            extract(GrayImage(pixels), ExtractionSettings(kernel_radius=0))
        with pytest.raises(LandmarkError, match="contour of 4 pixels is too short"):
            find_landmarks(trace_contour(reference_detect_edges_log(silhouette)))

    def test_the_chain_runs_along_a_one_pixel_spur_not_around_it(self):
        bits = np.zeros((36, 36), dtype=np.uint8)
        bits[9:31, 9:31] = 1
        bits[5:9, 20] = 1
        img = BinaryImage(bits=bits)
        assert len(trace_contour(boundary_ring(img))) == 90
        assert len(trace_contour(reference_detect_edges_log(img))) == 92

    def test_two_blobs_yield_two_closed_loops(self):
        bits = np.zeros((30, 60), dtype=np.uint8)
        bits[8:22, 8:22] = 1
        bits[8:22, 38:52] = 1
        edges = boundary_ring(BinaryImage(bits=bits))
        _, count = ndimage.label(edges.bits, structure=np.ones((3, 3)))
        assert count == 2
