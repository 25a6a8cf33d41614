"""Measurement arithmetic, feature selection, and [-1, 1] scaling."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from handgeo.contour import Landmarks, trace_contour
from handgeo.errors import FormatError, ScalerError
from handgeo.features import (
    FEATURE_NAMES,
    SELECTED_NAMES,
    RawFeatures,
    apply_scaler,
    fit_scaler,
    load_features,
    measure,
    save_features,
    select,
)
from handgeo.imaging import BinaryImage, GrayImage
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import canonical_params, render


def numbered_raw(**overrides):
    values = dict(zip(FEATURE_NAMES, range(1, 14)))
    values.update(overrides)
    return RawFeatures(**{k: float(v) for k, v in values.items()})


def square_scene(side=100, dpi=100.0):
    """Filled square silhouette plus its traced boundary chain."""
    bits = np.zeros((side + 8, side + 8), dtype=np.uint8)
    bits[4 : 4 + side, 4 : 4 + side] = 1
    inner = ndimage.binary_erosion(
        bits.astype(bool),
        structure=ndimage.generate_binary_structure(2, 1),
        border_value=0,
    )
    ring = BinaryImage(bits=(bits.astype(bool) & ~inner).astype(np.uint8), dpi=dpi)
    return BinaryImage(bits=bits, dpi=dpi), trace_contour(ring)


def plausible_landmarks():
    """Hand-shaped landmark set with the middle finger 100 px long."""
    tips = [(60, 90), (90, 45), (120, 40), (150, 50), (180, 95)]
    valleys = [(80, 140), (100, 140), (140, 140), (160, 140)]
    wrist = ((70, 200), (170, 200))
    return Landmarks(tips=tips, valleys=valleys, wrist=wrist)


class TestMeasure:
    def test_middle_length_is_tip_to_base_midpoint(self):
        silhouette, chain = square_scene()
        raw = measure(plausible_landmarks(), chain, silhouette)
        # tip (120,40), base (100,140)-(140,140) -> midpoint (120,140)
        assert raw.middle_length == pytest.approx(100 * 25.4 / 100, abs=1e-9)

    def test_widths_are_base_segment_lengths(self):
        silhouette, chain = square_scene()
        raw = measure(plausible_landmarks(), chain, silhouette)
        assert raw.middle_width == pytest.approx(40 * 0.254, abs=1e-9)
        # thumb base: wrist endpoint (70,200) to valley (80,140)
        assert raw.thumb_base_width == pytest.approx(
            math.hypot(10, 60) * 0.254, abs=1e-9
        )

    def test_wrist_length_is_the_endpoint_distance(self):
        silhouette, chain = square_scene()
        raw = measure(plausible_landmarks(), chain, silhouette)
        assert raw.wrist_length == pytest.approx(100 * 0.254, abs=1e-9)

    def test_square_surface_area(self):
        silhouette, chain = square_scene(side=100)
        raw = measure(plausible_landmarks(), chain, silhouette)
        assert raw.surface == pytest.approx(645.16, abs=1e-9)

    def test_square_perimeter_counts_396_unit_steps(self):
        silhouette, chain = square_scene(side=100)
        raw = measure(plausible_landmarks(), chain, silhouette)
        assert raw.perimeter == pytest.approx(396 * 0.254, abs=1e-9)

    def test_all_thirteen_values_are_positive_on_a_real_hand(self):
        img, _ = render(canonical_params(), noise_level=0.0)
        raw = extract(img).raw
        assert (raw.as_array() > 0).all()

    def test_translation_leaves_every_measurement_unchanged(self):
        img, _ = render(canonical_params(), noise_level=0.0)
        shifted = GrayImage(
            pixels=np.pad(img.pixels, ((17, 3), (9, 21)), constant_values=0.02),
            dpi=img.dpi,
        )
        np.testing.assert_array_equal(
            extract(img).raw.as_array(), extract(shifted).raw.as_array()
        )

    def test_doubling_dpi_changes_no_feature_by_more_than_two_percent(self):
        # Unfiltered pipeline: the box blur grows the support by a fixed
        # one-pixel rim whose relative weight depends on dpi, which is a
        # preprocessing artifact rather than a measurement one.
        settings = ExtractionSettings(kernel_radius=0)
        low, _ = render(canonical_params(), dpi=100, noise_level=0.0)
        high, _ = render(canonical_params(), dpi=200, noise_level=0.0)
        a = extract(low, settings).raw.as_array()
        b = extract(high, settings).raw.as_array()
        assert (np.abs(a - b) / a).max() < 0.02

    def test_measure_is_deterministic(self):
        img, _ = render(canonical_params(), noise_level=0.0)
        a, b = extract(img), extract(img)
        np.testing.assert_array_equal(a.vector, b.vector)


class TestSelect:
    def test_keeps_the_nine_retained_positions(self):
        out = select(numbered_raw())
        assert out.tolist() == [2, 3, 4, 5, 8, 9, 10, 11, 12]

    def test_thumb_length_is_dropped(self):
        assert select(numbered_raw(thumb_length=999)).tolist() == select(
            numbered_raw()
        ).tolist()

    def test_surface_is_dropped(self):
        a = numbered_raw(surface=13.0)
        b = numbered_raw(surface=1e6)
        assert select(a).tolist() == select(b).tolist()

    def test_selected_names_match_positions(self):
        assert SELECTED_NAMES == (
            "first_length",
            "middle_length",
            "ring_length",
            "little_length",
            "first_width",
            "middle_width",
            "ring_width",
            "little_width",
            "perimeter",
        )


class TestScaler:
    def fit_three_rows(self):
        rows = np.array(
            [np.zeros(9), np.full(9, 4.0), np.full(9, 2.0)]
        )
        return fit_scaler(rows)

    def test_training_min_maps_to_minus_one(self):
        params = self.fit_three_rows()
        assert apply_scaler(params, np.zeros(9)).tolist() == [-1.0] * 9

    def test_training_max_maps_to_plus_one(self):
        params = self.fit_three_rows()
        assert apply_scaler(params, np.full(9, 4.0)).tolist() == [1.0] * 9

    def test_midpoint_maps_to_zero(self):
        params = self.fit_three_rows()
        assert apply_scaler(params, np.full(9, 2.0)).tolist() == [0.0] * 9

    def test_outliers_are_clipped(self):
        params = self.fit_three_rows()
        assert apply_scaler(params, np.full(9, 14.0)).tolist() == [1.0] * 9
        assert apply_scaler(params, np.full(9, -5.0)).tolist() == [-1.0] * 9

    def test_degenerate_dimension_is_named(self):
        rows = np.array([[1.0, 5.0], [2.0, 5.0]])
        with pytest.raises(ScalerError, match="dimension 1"):
            fit_scaler(rows)

    def test_a_probe_far_outside_the_range_clips_without_a_warning(self):
        # 2 * (x - min) overflows; pytest turns the RuntimeWarning into an error.
        params = self.fit_three_rows()
        probe = np.array([1e308, -1e308] + [2.0] * 7)
        assert apply_scaler(params, probe).tolist() == [1.0, -1.0] + [0.0] * 7

    @given(st.lists(st.floats(-10, 10), min_size=9, max_size=9))
    def test_scaled_values_are_the_formula_bit_for_bit(self, values):
        params = self.fit_three_rows()
        x = np.array(values)
        want = np.clip(2.0 * (x - params.mins) / (params.maxs - params.mins) - 1.0, -1.0, 1.0)
        assert apply_scaler(params, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("low,high", [(-1e308, 1e308), (0.0, 1.5e308)])
    def test_a_range_too_wide_to_scale_is_named(self, low, high):
        # 2 * (max - min) overflows: in the first case max - min itself.
        rows = np.array([[1.0, high], [2.0, low]])
        message = f"dimension 1: range {low} to {high} is too wide to scale"
        with pytest.raises(ScalerError, match=re.escape(message)):
            fit_scaler(rows)

    def test_single_row_is_rejected(self):
        with pytest.raises(ScalerError, match="2"):
            fit_scaler(np.array([[1.0, 2.0]]))

    @given(
        st.lists(
            st.lists(st.floats(-100, 100), min_size=4, max_size=4),
            min_size=2,
            max_size=20,
        )
    )
    def test_scaled_training_rows_stay_inside_unit_box(self, rows):
        data = np.array(rows)
        spread = data.max(axis=0) - data.min(axis=0)
        if (spread == 0).any():
            with pytest.raises(ScalerError):
                fit_scaler(data)
            return
        params = fit_scaler(data)
        scaled = np.array([apply_scaler(params, row) for row in data])
        assert scaled.min() >= -1.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaled.max(axis=0), 1.0)
        np.testing.assert_allclose(scaled.min(axis=0), -1.0)


class TestFeatureCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = [(p, j, rng.random(9) * 40) for p in range(3) for j in range(2)]
        path = tmp_path / "features.csv"
        save_features(path, entries)
        back = load_features(path)
        assert [(p, j) for p, j, _ in back] == [(p, j) for p, j, _ in entries]
        for (_, _, a), (_, _, b) in zip(entries, back):
            np.testing.assert_array_equal(a, b)

    def test_header_names_the_selected_features(self, tmp_path):
        path = tmp_path / "features.csv"
        save_features(path, [(0, 0, np.arange(9, dtype=float))])
        header = path.read_text().splitlines()[0]
        assert header == "person,sample," + ",".join(SELECTED_NAMES)

    @pytest.mark.parametrize(
        "names",
        [
            ("person", "sample", "index_length") + SELECTED_NAMES[1:],
            ("person", "sample", SELECTED_NAMES[1], SELECTED_NAMES[0]) + SELECTED_NAMES[2:],
            ("sample", "person") + SELECTED_NAMES,
        ],
        ids=["renamed", "reordered", "ids_swapped"],
    )
    def test_rows_under_another_header_are_a_format_error_naming_line_1(self, tmp_path, names):
        path = tmp_path / "features.csv"
        save_features(path, [(0, 0, np.ones(9))])
        row = path.read_text().splitlines()[1]
        path.write_text(",".join(names) + "\n" + row + "\n")
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value) == (
            f"{path}:1: the header is not person,sample," + ",".join(SELECTED_NAMES)
        )

    @pytest.mark.parametrize("person,sample", [(-1, 0), (0, -1)])
    def test_a_negative_id_is_a_format_error_naming_its_line(self, tmp_path, person, sample):
        path = tmp_path / "features.csv"
        save_features(path, [(0, 0, np.ones(9)), (person, sample, np.ones(9))])
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value) == (
            f"{path}:3: person {person} sample {sample}: ids must be non-negative"
        )

    def test_a_repeated_person_and_sample_names_both_lines(self, tmp_path):
        path = tmp_path / "features.csv"
        save_features(path, [(p, j, np.full(9, p + j / 10)) for p in range(2) for j in range(3)])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")  # line 8 repeats (0, 1)
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value) == f"{path}:8: person 0 sample 1 repeats line 3"

    @pytest.mark.parametrize("column", range(9))
    def test_a_non_finite_cell_is_a_format_error_naming_its_column(self, tmp_path, column):
        path = tmp_path / "features.csv"
        vector = np.ones(9)
        vector[column] = np.nan
        save_features(path, [(0, 0, np.ones(9)), (0, 1, vector)])
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value) == (
            f"{path}:3: {SELECTED_NAMES[column]} is nan, not a finite number"
        )

    @pytest.mark.parametrize("cells", [10, 12, 2], ids=["short", "long", "ids_only"])
    def test_a_row_of_another_length_is_a_format_error_naming_its_line(self, tmp_path, cells):
        path = tmp_path / "features.csv"
        save_features(path, [(0, 0, np.ones(9))])
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n" + ",".join(["1"] * cells) + "\n")
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value) == f"{path}:2: {cells} cells, the header has 11"

    @pytest.mark.parametrize("ids", ["1.5,0", "0,x"], ids=["fractional_person", "word_sample"])
    def test_an_id_that_is_not_an_integer_is_a_format_error_naming_its_line(self, tmp_path, ids):
        path = tmp_path / "features.csv"
        save_features(path, [(0, 0, np.ones(9))])
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n" + ids + "," + ",".join(["1"] * 9) + "\n")
        with pytest.raises(FormatError) as rejected:
            load_features(path)
        assert str(rejected.value).startswith(f"{path}:2: invalid literal for int() with base 10")

    @pytest.mark.parametrize("text", ["", "person,sample\n"], ids=["empty", "header_only"])
    def test_a_file_without_rows_holds_no_entries(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text)
        assert load_features(path) == []
