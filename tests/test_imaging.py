"""Image ingestion, filtering, binarization, and edge detection."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from handgeo.errors import FormatError, SizeError
from handgeo.imaging import (
    MAX_KERNEL_RADIUS,
    BinaryImage,
    GrayImage,
    _window_varies,
    binarize,
    detect_edges_log,
    load_bmp,
    lowpass_filter,
    save_bmp,
)
from handgeo.synthgen import make_corpus


def bmp_bytes(rows, bit_depth=8, ppm=0, compression=0):
    """Hand-rolled bottom-up 8-bit BMP with an identity grayscale palette."""
    height, width = len(rows), len(rows[0])
    stride = (width + 3) & ~3
    pixel_offset = 14 + 40 + 4 * 256
    body = b"".join(bytes(row) + b"\0" * (stride - width) for row in reversed(rows))
    header = struct.pack("<2sIHHI", b"BM", pixel_offset + len(body), 0, 0, pixel_offset)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, bit_depth, compression,
        len(body), ppm, ppm, 256, 0,
    )
    palette = bytes(b for i in range(256) for b in (i, i, i, 0))
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


class TestFlatWindows:
    """The slice-based flat mask against the rank filters it replaced."""

    @staticmethod
    def rank_flat(pixels, radius):
        size = 2 * radius + 1
        return ndimage.minimum_filter(
            pixels, size=size, mode="nearest"
        ) == ndimage.maximum_filter(pixels, size=size, mode="nearest")

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
        st.integers(1, 3),
        st.booleans(),
    )
    def test_flat_mask_equals_min_equals_max(self, pixels, radius, transpose):
        if transpose:
            pixels = pixels.T.copy()
        np.testing.assert_array_equal(
            ~_window_varies(pixels, radius), self.rank_flat(pixels, radius)
        )

    @settings(deadline=None)
    @given(plateau_images(), st.integers(1, 3))
    def test_lowpass_output_matches_the_rank_filter_formula(self, pixels, radius):
        size = 2 * radius + 1
        expected = ndimage.uniform_filter(pixels, size=size, mode="nearest")
        flat = self.rank_flat(pixels, radius)
        expected[flat] = pixels[flat]
        out = lowpass_filter(gray(pixels), radius)
        np.testing.assert_array_equal(out.pixels, np.clip(expected, 0.0, 1.0))


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


def boundary_of(mask):
    """Foreground pixels with at least one 4-connected background neighbour."""
    return mask & ~ndimage.binary_erosion(
        mask, structure=ndimage.generate_binary_structure(2, 1), border_value=0
    )


class TestDetectEdgesLog:
    def test_constant_images_yield_empty_edge_maps(self):
        for value in (0, 1):
            edges = detect_edges_log(BinaryImage(bits=np.full((10, 10), value)))
            assert edges.bits.sum() == 0

    def test_square_edge_matches_the_inner_boundary(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[10:30, 10:30] = True
        edges = detect_edges_log(BinaryImage(bits=mask.astype(np.uint8)), sigma=1.0)
        expected = boundary_of(mask)
        np.testing.assert_array_equal(edges.bits.astype(bool), expected)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_default_chain_edges_are_the_silhouette_boundary_ring(self, sigma):
        corpus = make_corpus(0, persons=2, samples=2)
        for img in (img for row in corpus.images for img in row):
            silhouette = binarize(lowpass_filter(img))
            edges = detect_edges_log(silhouette, sigma)
            np.testing.assert_array_equal(
                edges.bits.astype(bool), boundary_of(silhouette.bits.astype(bool))
            )

    def test_two_blobs_yield_two_closed_loops(self):
        bits = np.zeros((30, 60), dtype=np.uint8)
        bits[8:22, 8:22] = 1
        bits[8:22, 38:52] = 1
        edges = detect_edges_log(BinaryImage(bits=bits), sigma=1.0)
        _, count = ndimage.label(edges.bits, structure=np.ones((3, 3)))
        assert count == 2

    def test_non_positive_sigma_is_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            detect_edges_log(BinaryImage(bits=np.ones((3, 3))), sigma=0.0)
