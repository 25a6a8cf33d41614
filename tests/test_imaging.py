"""Image ingestion, filtering, binarization, and the boundary ring."""

import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import struct
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from handgeo.contour import find_landmarks, trace_contour
from handgeo.errors import ConfigError, ContourError, FormatError, LandmarkError, SizeError
from handgeo import imaging
from handgeo.imaging import (
    _BLOCK,
    _GREY_RAMP,
    _LEVEL_GUARD,
    DEFAULT_THRESHOLD,
    MAX_KERNEL_RADIUS,
    MAX_SIDE,
    BinaryImage,
    GrayImage,
    _level_sums,
    _window_varies,
    binarize,
    boundary_ring,
    load_bmp,
    lowpass_filter,
    quantize,
    save_bmp,
    silhouette,
)
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import CorpusSettings, _draw_prototype, load_person, render
from handgeo.synthgen import render_person, write_corpus


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


@st.composite
def block_rasters(draw):
    """Random bytes over two or three of load_bmp's index blocks, the last
    one part-filled wherever a block holds several rows. No accepted row is
    wider than a block, so the widest rows fill one block each."""
    width = draw(st.one_of(st.integers(8, MAX_SIDE), st.just(MAX_SIDE)))
    rows = _BLOCK // width
    height = draw(st.integers(1, 2)) * rows + (draw(st.integers(1, rows - 1)) if rows > 1 else 1)
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, size=(height, width), dtype=np.uint8)


class TestGrayImage:
    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01, np.inf])
    def test_values_outside_the_unit_range_are_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            GrayImage(pixels=[[bad, 0.5], [0.2, 0.3]])

    @pytest.mark.parametrize("dpi", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "make", [lambda dpi: gray([[0.5]], dpi), lambda dpi: BinaryImage([[1]], dpi)],
        ids=["gray", "binary"],
    )
    def test_a_resolution_that_is_not_positive_and_finite_is_rejected(self, make, dpi):
        with pytest.raises(ValueError, match=f"dpi must be positive and finite, got {dpi}"):
            make(dpi)

    @pytest.mark.parametrize(
        "make",
        [lambda: gray(np.zeros((2, 2))), lambda: scan(np.zeros((2, 2), np.uint8)),
         lambda: BinaryImage(np.zeros((2, 2)))],
        ids=["gray", "scan", "binary"],
    )
    def test_distinct_images_of_equal_values_compare_unequal(self, make):
        a, b = make(), make()
        assert (a == b, a != b, a == a) == (False, True, True)
        if getattr(a, "levels", None) is not None:
            assert "pixels" not in vars(a) and "pixels" not in vars(b)  # no scan gathered

    # load_bmp and lowpass_filter build their images without the range scan;
    # the constructor keeps it, also for a copy of their images.
    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    @pytest.mark.parametrize("producer", ["load_bmp", "lowpass_filter"])
    def test_the_constructor_still_refuses_nan_and_1_5(self, tmp_path, producer, bad):
        path = tmp_path / "scan.bmp"
        path.write_bytes(bmp_bytes([[0, 128, 255], [255, 0, 128]]))
        img = load_bmp(path) if producer == "load_bmp" else lowpass_filter(load_bmp(path), 1)
        pixels = img.pixels.copy()
        pixels[1, 1] = bad
        with pytest.raises(ValueError, match="outside"):
            GrayImage(pixels=pixels, dpi=img.dpi)
        with pytest.raises(ValueError, match="outside"):
            dataclasses.replace(img, pixels=pixels)

    @settings(deadline=None)
    @given(
        st.integers(1, 256).flatmap(lambda colors: hnp.arrays(np.uint8, (colors, 4))),
        hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8)),
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
            elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1.0 - 2**-53, 1.0]),
        ),
        st.integers(0, MAX_KERNEL_RADIUS),
    )
    def test_both_producers_yield_float64_pixels_in_the_unit_range(
        self, quads, raw, pixels, radius
    ):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "palette.bmp"
            path.write_bytes(bmp_bytes(raw.tolist(), palette=quads.tobytes()))
            loaded = load_bmp(path)
        for img in (loaded, lowpass_filter(loaded, radius), lowpass_filter(gray(pixels), radius)):
            assert img.pixels.dtype == np.float64 and img.pixels.ndim == 2
            assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0


class TestBinaryImage:
    @pytest.mark.parametrize("bad", [256, 257, 0.5, -1])
    def test_a_value_other_than_0_or_1_is_rejected_before_any_cast(self, bad):
        # A uint8 cast would wrap 256 and 257 to 0 and 1 and truncate 0.5 to 0.
        with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
            BinaryImage(bits=np.array([[bad, 1], [0, 1]]))

    @pytest.mark.parametrize("bits", [[[0, 1]], [[0.0, 1.0]], [[False, True]]])
    def test_zeros_and_ones_of_any_type_are_held_as_a_bool_mask(self, bits):
        held = BinaryImage(bits=np.array(bits)).bits
        assert held.dtype == bool and held.tolist() == [[False, True]]

    def test_every_stage_yields_a_bool_mask(self):
        silhouette = binarize(gray([[0.0, 0.5, 0.5], [0.5, 0.5, 0.5], [0.0, 0.5, 0.5]]))
        assert silhouette.bits.dtype == bool
        assert boundary_ring(silhouette).bits.dtype == bool


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

    @pytest.mark.parametrize("dpi", [100.0, 393.7, 72.5, 300.0, 600.0])
    def test_a_dpi_on_the_tenth_grid_reads_back_exactly(self, tmp_path, dpi):
        path = tmp_path / "res.bmp"
        save_bmp(gray([[0.5]], dpi), path)
        assert load_bmp(path).dpi == dpi

    # The least and the greatest grid dpi whose px/m is a positive int32.
    @pytest.mark.parametrize("dpi", [0.1, 54546084.6])
    def test_the_extreme_dpis_read_back_exactly(self, tmp_path, dpi):
        path = tmp_path / "res.bmp"
        save_bmp(gray([[0.5]], dpi), path)
        assert load_bmp(path).dpi == dpi

    # 0.0127 dpi rounds to 0 px/m, which reads back as no resolution, and
    # 54546084.65 dpi to 2**31 px/m, past the int32 field.
    @pytest.mark.parametrize("dpi", [1e-9, 0.0127, 54546084.65, 1e8])
    def test_a_dpi_outside_the_resolution_field_is_refused_unwritten(self, tmp_path, dpi):
        path = tmp_path / "res.bmp"
        with pytest.raises(ValueError, match=f"^dpi {dpi} is "):
            save_bmp(gray([[0.5]], dpi), path)
        assert not path.exists()

    def test_a_header_off_the_tenth_grid_reads_as_converted(self, tmp_path):
        # 100.1 dpi is written as 3941 px/m, so no grid value writes 3940.
        path = tmp_path / "res.bmp"
        path.write_bytes(bmp_bytes([[1]], ppm=3940))
        assert load_bmp(path).dpi == 3940 * 0.0254

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

    @pytest.mark.parametrize("offset", [0, 14 + 40 + 4 * 256 - 1])
    def test_pixel_data_inside_the_headers_or_palette_is_rejected(self, tmp_path, offset):
        data = bytearray(bmp_bytes([[1, 2], [3, 4]]))
        palette_end = 14 + 40 + 4 * 256
        struct.pack_into("<I", data, 10, offset)
        path = tmp_path / "overlap.bmp"
        path.write_bytes(bytes(data))
        with pytest.raises(
            FormatError, match=f"pixel data offset {offset} .* end at offset {palette_end}$"
        ):
            load_bmp(path)

    @settings(deadline=None)
    @given(
        st.integers(1, 256).flatmap(lambda colors: hnp.arrays(np.uint8, (colors, 4))),
        st.one_of(
            hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)),
            block_rasters(),
        ),
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

    @pytest.mark.parametrize("radius", [1.5, 1.0, "1"])
    def test_non_integer_radius_is_a_value_error_of_the_filter(self, radius):
        with pytest.raises(ValueError, match="kernel_radius must be an integer"):
            lowpass_filter(gray(np.zeros((2, 2))), radius)

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


def pinned_scans(folder):
    """The files TestPinnedBits decodes: save_bmp files of fixed renders,
    noisy and clean, and one file whose palette is not the grey ramp."""
    for name, seed, dpi, noise in (
        ("render_0", 0, 100.0, 0.03), ("render_1", 1, 80.0, 0.05), ("render_2", 2, 100.0, 0.0),
    ):
        params = dataclasses.replace(_draw_prototype(np.random.default_rng(seed)), seed=seed)
        save_bmp(render(params, dpi, noise)[0], folder / f"{name}.bmp")
        yield name, folder / f"{name}.bmp"
    rng = np.random.default_rng(3)
    quads = rng.integers(0, 256, size=(200, 4), dtype=np.uint8)
    raw = rng.integers(0, 256, size=(41, 67), dtype=np.uint8)
    path = folder / "palette.bmp"
    path.write_bytes(bmp_bytes(raw.tolist(), palette=quads.tobytes()))
    yield "palette", path


def pixel_digests(folder):
    """Per file, the first 16 hex digits of the SHA-256 of the loaded
    float64 pixels, then of lowpass_filter's at each of TestPinnedBits.RADII."""
    digests = {}
    for name, path in pinned_scans(folder):
        img = load_bmp(path)
        images = [img] + [lowpass_filter(img, r) for r in TestPinnedBits.RADII]
        digests[name] = [hashlib.sha256(i.pixels.tobytes()).hexdigest()[:16] for i in images]
    return digests


class TestPinnedBits:
    """load_bmp and lowpass_filter bit for bit. The SciPy comparisons above
    allow 1e-12, so a sum taken in another order passes them; these
    digests, recorded before either stage was last optimised, do not."""

    RADII = (0, 1, 2, 5)
    DIGESTS = {
        "render_0": ["9e6009739a1d28f0", "9e6009739a1d28f0", "649752a6bddb5f16",
                     "a858a12ee434c527", "67f32847125c1afb"],
        "render_1": ["12e5833fdb52a8b6", "12e5833fdb52a8b6", "406b75e6b76b4709",
                     "4c0b711cc4767436", "001bf14aef2e8608"],
        "render_2": ["eddfd200e6b93f16", "eddfd200e6b93f16", "d6f9a93a793e1cc2",
                     "9b2458b7a05f2e71", "c870bee799b85cf6"],
        "palette": ["487f6e9b6c6e4f46", "487f6e9b6c6e4f46", "a18839b1c4fba3bc",
                    "6ea617f62a9b78e8", "38a8d307eab634e2"],
    }

    def test_loaded_and_filtered_pixels_keep_their_digests(self, tmp_path):
        assert pixel_digests(tmp_path) == self.DIGESTS


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


def scan(levels, dpi=100.0):
    """The 8-bit scan of a uint8 raster, as load_bmp reads save_bmp's file."""
    img = quantize(gray(np.asarray(levels, dtype=np.uint8) / 255.0, dpi))
    np.testing.assert_array_equal(img.levels, levels)
    return img


def reference_window_sums(levels, radius):
    """Each pixel's (2r+1)^2 window sum of the edge-replicated levels, in int64."""
    n = 2 * radius + 1
    padded = np.pad(levels.astype(np.int64), radius, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, (n, n)).sum(axis=(2, 3))


@st.composite
def level_rasters(draw):
    """uint8 rasters: random bytes, or blocks of a few levels so that flat
    windows are common; square-ish, 1 x N or N x 1."""
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            st.tuples(st.just(1), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.just(1)),
        )
    )
    if draw(st.booleans()):
        return draw(hnp.arrays(np.uint8, shape))
    palette = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
    coarse = draw(
        hnp.arrays(np.uint8, ((shape[0] + 3) // 4, (shape[1] + 3) // 4),
                   elements=st.sampled_from(palette))
    )
    return np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[: shape[0], : shape[1]].copy()


class TestSilhouette:
    """silhouette against binarize(lowpass_filter(...)), bit for bit, and
    which route it takes."""

    def test_every_grey_ramp_entry_lies_within_1_5_u_of_v_over_255(self):
        u = Fraction(1, 2**53)  # the unit roundoff of float64
        for v, x in enumerate(_GREY_RAMP.tolist()):
            assert abs(Fraction(x) - Fraction(v, 255)) <= Fraction(3, 2) * u

    @settings(deadline=None, max_examples=300)
    @given(level_rasters(), st.integers(0, MAX_KERNEL_RADIUS), st.data())
    def test_level_route_equals_the_float_route_next_to_every_window_sum(
        self, levels, radius, data
    ):
        img = scan(levels)
        sums = reference_window_sums(levels, radius)
        k = 255 * (2 * radius + 1) ** 2
        total = data.draw(st.sampled_from(sums.ravel()) | st.integers(0, k), label="total")
        offset = data.draw(
            st.sampled_from([-1e-9, 0.0, 1e-9]) | st.floats(-1e-9, 1e-9), label="offset"
        )
        threshold = min(max(int(total) / k + offset, 0.0), 1.0)
        expected = binarize(lowpass_filter(img, radius), threshold).bits
        np.testing.assert_array_equal(silhouette(img, radius, threshold).bits, expected)
        np.testing.assert_array_equal(_level_sums(img.levels, radius), sums)
        q = threshold * 255.0 * (2 * radius + 1) ** 2
        if abs(q - round(q)) > _LEVEL_GUARD:  # the level route's own decision
            np.testing.assert_array_equal(sums >= math.ceil(q), expected)

    def test_the_widest_window_sums_past_uint16(self):
        levels = np.full((3, 4), 255, dtype=np.uint8)
        sums = _level_sums(levels, MAX_KERNEL_RADIUS)
        assert sums.dtype == np.uint32 and (sums == 255 * 51**2).all()
        assert _level_sums(levels, 7).dtype == np.uint16

    @pytest.fixture
    def float_route(self, monkeypatch):
        """The calls silhouette makes to lowpass_filter."""
        calls = []

        def spy(img, kernel_radius):
            calls.append(kernel_radius)
            return lowpass_filter(img, kernel_radius)

        monkeypatch.setattr(imaging, "lowpass_filter", spy)
        return calls

    @pytest.fixture
    def hand(self, tmp_path):
        img, _ = render(_draw_prototype(np.random.default_rng(0)), 100.0, 0.03)
        save_bmp(img, tmp_path / "hand.bmp")
        return img, load_bmp(tmp_path / "hand.bmp")

    def test_a_scan_takes_the_level_route(self, hand, float_route):
        _, loaded = hand
        assert loaded.levels is not None
        mask = silhouette(loaded, 1, DEFAULT_THRESHOLD)
        assert float_route == []
        np.testing.assert_array_equal(mask.bits, binarize(lowpass_filter(loaded, 1)).bits)

    def test_a_float_image_takes_the_float_route(self, hand, float_route):
        rendered, _ = hand
        assert rendered.levels is None
        silhouette(rendered, 1, DEFAULT_THRESHOLD)
        assert float_route == [1]

    @pytest.mark.parametrize(
        "palette",
        [
            bytes(b for i in range(255) for b in (i, i, i, 0)),  # 255 colours
            bytes(b for i in range(256) for b in (i, i, i, 255)),  # alpha set
            bytes(b for i in range(256) for b in (255 - i,) * 3 + (0,)),  # inverted
        ],
        ids=["short", "alpha", "inverted"],
    )
    def test_a_bmp_under_another_palette_takes_the_float_route(
        self, tmp_path, float_route, palette
    ):
        path = tmp_path / "palette.bmp"
        path.write_bytes(bmp_bytes([[0, 30, 200], [90, 18, 254]], palette=palette))
        img = load_bmp(path)
        assert img.levels is None
        silhouette(img, 1, DEFAULT_THRESHOLD)
        assert float_route == [1]

    def test_a_threshold_on_a_level_takes_the_float_route(self, float_route):
        # 18/255 at r = 0 puts q within rounding of the integer 18.
        img = scan([[17, 18, 19]])
        assert silhouette(img, 0, 18 / 255).bits.tolist() == [[False, True, True]]
        assert float_route == [0]

    def test_reassigned_pixels_drop_the_levels(self, hand, float_route):
        _, loaded = hand
        loaded.pixels = np.zeros_like(loaded.pixels)
        assert loaded.levels is None
        assert not silhouette(loaded, 1, DEFAULT_THRESHOLD).bits.any()
        assert float_route == [1]

    def test_copies_and_unpickled_scans_keep_no_levels(self, hand):
        # Their pixels are writable, so levels kept beside them could go stale.
        _, loaded = hand
        assert "pixels" not in vars(loaded)  # copied before its first read
        for twin in (copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded)), copy.copy(loaded)):
            assert twin.levels is None
            np.testing.assert_array_equal(twin.pixels, loaded.pixels)
        assert loaded.levels is not None

    def test_the_pixels_and_levels_of_a_scan_are_read_only(self, hand):
        rendered, loaded = hand
        for img in (loaded, quantize(rendered)):
            with pytest.raises(ValueError, match="read-only"):
                img.pixels[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                img.levels[0, 0] = 7

    def test_a_scan_extracts_as_its_float_copy(self, hand):
        _, loaded = hand
        for radius in (0, 1, 3):
            settings_ = ExtractionSettings(kernel_radius=radius)
            copy = gray(loaded.pixels.copy())
            assert copy.levels is None
            np.testing.assert_array_equal(
                extract(loaded, settings_).vector, extract(copy, settings_).vector
            )


class TestLazyPixels:
    """An 8-bit scan holds its levels alone; its pixels are gathered from
    them on first read, and nothing on the scan route reads them."""

    @pytest.fixture
    def no_gather(self, monkeypatch):
        def refuse(table, raw):
            raise AssertionError("a float raster was gathered")

        monkeypatch.setattr(imaging, "_gather", refuse)

    def test_the_scan_route_gathers_no_pixels(self, tmp_path, no_gather):
        settings_ = CorpusSettings(0, persons=1, samples=2)
        row = render_person(settings_, 0)
        write_corpus(tmp_path / "tree", settings_, [row])
        for img in load_person(tmp_path / "tree", settings_, 0):
            extract(img)
        save_bmp(row[0][0], tmp_path / "again.bmp")
        extract(load_bmp(tmp_path / "again.bmp"))
        assert all("pixels" not in vars(img) for img in row[0])

    def test_the_first_read_gathers_the_ramp_once_read_only(self):
        levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = scan(levels)
        assert "pixels" not in vars(img)
        pixels = img.pixels
        np.testing.assert_array_equal(pixels, imaging._gather(_GREY_RAMP, levels))
        assert not pixels.flags.writeable
        assert img.pixels is pixels
        np.testing.assert_array_equal(img.levels, levels)

    def test_a_rendered_person_holds_about_its_levels_bytes(self):
        # One seed-0 row of 10 scans held 442 KB over its 415 KB of levels;
        # with a float64 raster beside each scan's levels it held 3.76 MB.
        render_person(CorpusSettings(0, samples=1), 0)  # imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            images, truths = render_person(CorpusSettings(0), 0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2 * sum(img.levels.nbytes for img in images) + 64 * 1024


class TestQuantize:
    def test_quantize_is_what_save_bmp_writes_and_load_bmp_reads(self, tmp_path):
        rng = np.random.default_rng(4)
        img = gray(rng.random((17, 23)), dpi=150.0)
        save_bmp(img, tmp_path / "q.bmp")
        loaded, quantized = load_bmp(tmp_path / "q.bmp"), quantize(img)
        np.testing.assert_array_equal(quantized.pixels, loaded.pixels)
        np.testing.assert_array_equal(quantized.levels, loaded.levels)
        assert quantized.dpi == loaded.dpi == 150.0
        save_bmp(quantized, tmp_path / "again.bmp")
        assert (tmp_path / "again.bmp").read_bytes() == (tmp_path / "q.bmp").read_bytes()

    def test_a_scan_is_its_own_quantization(self):
        img = scan(np.arange(256, dtype=np.uint8).reshape(16, 16))
        assert quantize(img) is img
        np.testing.assert_array_equal(img.pixels, _GREY_RAMP.reshape(16, 16))


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
