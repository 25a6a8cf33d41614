"""Synthetic hand rendering, ground truth, and corpus generation."""

import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import handgeo.synthgen as synthgen
from handgeo.errors import CorpusError, LandmarkError, RenderError, SizeError
from handgeo.features import FEATURE_NAMES
from handgeo.imaging import GrayImage, binarize
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import (
    CorpusSettings,
    HandParams,
    canonical_params,
    load_person,
    load_settings,
    make_corpus,
    render,
    save_corpus,
    write_corpus,
)

EXACT = ExtractionSettings(kernel_radius=0)


def merged_params(shrink=90):
    """Narrowing the palm pushes the finger bases into one another."""
    p = canonical_params()
    return dataclasses.replace(p, palm_width=p.palm_width - shrink)


class TestRender:
    def test_same_params_render_identically(self):
        a, _ = render(canonical_params(seed=3), noise_level=0.03)
        b, _ = render(canonical_params(seed=3), noise_level=0.03)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ_only_in_noise(self):
        a, _ = render(canonical_params(seed=0), noise_level=0.03)
        b, _ = render(canonical_params(seed=1), noise_level=0.03)
        assert (a.pixels != b.pixels).any()
        np.testing.assert_array_equal(binarize(a).bits, binarize(b).bits)

    def test_background_is_near_black(self):
        img, gt = render(canonical_params(), noise_level=0.0)
        support = binarize(img).bits.astype(bool)
        assert img.pixels[~support].max() < 0.05

    def test_noiseless_binarization_recovers_the_exact_support(self):
        img, gt = render(canonical_params(), noise_level=0.0)
        pixel_area = (25.4 / img.dpi) ** 2
        assert binarize(img).bits.sum() == round(gt.raw.surface / pixel_area)

    def test_measured_lengths_match_ground_truth_within_two_pixels(self):
        img, gt = render(canonical_params(), noise_level=0.0)
        raw = extract(img).raw
        mm_per_px = 25.4 / img.dpi
        for name in FEATURE_NAMES[:5]:  # thumb..little lengths
            assert abs(getattr(raw, name) - getattr(gt.raw, name)) <= 2 * mm_per_px

    def test_landmarks_of_an_ideal_render_are_pixel_exact(self):
        corpus = make_corpus(CorpusSettings(2, noise_level=0.0, persons=5, samples=2))
        for person, row in enumerate(corpus.images):
            for j, img in enumerate(row):
                got = extract(img, EXACT).landmarks
                want = corpus.truths[person][j].landmarks
                assert got.tips == want.tips
                assert got.valleys == want.valleys
                assert got.wrist == want.wrist

    def test_merged_fingers_are_rejected_by_name(self):
        with pytest.raises(RenderError, match="merge"):
            render(merged_params())

    @pytest.mark.parametrize("shrink,dpi", [(36.0, 100.0), (34.0, 50.0)])
    def test_bases_without_a_background_column_between_them_merge(self, shrink, dpi):
        # The bases clear each other by a pixel width, but no whole pixel
        # column between two of them is background, so no valley exists.
        params, scale = merged_params(shrink), dpi / synthgen.REFERENCE_DPI
        lay = synthgen._layout(params, scale)
        row = math.ceil(lay.palm_top) - 1
        cuts = [one_row_cut(*f, row) for f in zip(lay.bases, lay.tips, lay.radii)]
        assert all(right[0] - left[1] >= scale for left, right in zip(cuts, cuts[1:]))
        with pytest.raises(RenderError, match="merge"):
            render(params, dpi)

    def test_defective_render_fails_landmark_detection(self, merged_scan):
        with pytest.raises(LandmarkError):
            extract(merged_scan(90))

    def test_wrong_finger_count_is_rejected(self):
        with pytest.raises(RenderError, match="5"):
            HandParams(
                finger_lengths=(60, 70, 80, 70),
                finger_widths=(15, 15, 15, 15, 15),
                palm_width=150,
                palm_height=90,
            )

    def test_extreme_tilt_is_rejected(self):
        with pytest.raises(RenderError, match="tilt"):
            render(dataclasses.replace(canonical_params(), tilt_deg=11.0))

    def test_canonical_hand_renders_and_extracts_at_30_dpi(self):
        # The corner clearance scales with dpi, like every other margin.
        img, _ = render(canonical_params(), dpi=30.0)
        marks = extract(img).landmarks
        assert len(marks.tips) == 5 and len(marks.valleys) == 4

    def test_tilted_hand_still_yields_all_landmarks(self):
        img, _ = render(
            dataclasses.replace(canonical_params(), tilt_deg=7.0), noise_level=0.0
        )
        marks = extract(img).landmarks
        assert len(marks.tips) == 5 and len(marks.valleys) == 4

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.floats(30.0, 200.0))
    def test_truth_lies_on_the_mask(self, seed, tilt, dpi):
        # Tips and valleys are top-edge pixels of the silhouette, wrist ends
        # bottom-edge pixels, whatever the pose and scale of a valid hand.
        try:
            img, gt = render(posed_params(seed, tilt), dpi)
        except RenderError:
            assume(False)
        mask = img.pixels > 0.5
        marks = gt.landmarks
        for x, y in marks.tips + marks.valleys:
            assert mask[y, x] and not mask[y - 1, x]
        for x, y in marks.wrist:
            assert mask[y, x] and not mask[y + 1, x]


def posed_params(seed: int, tilt: float) -> HandParams:
    """A jittered corpus prototype drawn from seed, leaning by tilt degrees."""
    rng = np.random.default_rng(seed)
    proto = synthgen._draw_prototype(rng)
    posed = synthgen._jitter(proto, synthgen.DEFAULT_INTRA_SIGMA, rng)
    return dataclasses.replace(posed, tilt_deg=tilt)


def reference_rasterize(lay) -> np.ndarray:
    """The closed union by a point-to-segment distance test at every pixel,
    the rasterizer the row-cut fill replaced."""
    ys, xs = np.mgrid[0 : lay.height, 0 : lay.width]
    x, y = xs.astype(float), ys.astype(float)

    cr = lay.corner_radius
    core_dx = np.maximum(np.maximum(lay.palm_left + cr - x, x - (lay.palm_right - cr)), 0.0)
    core_dy = np.maximum(np.maximum(lay.palm_top + cr - y, y - (lay.palm_bottom - cr)), 0.0)
    palm = core_dx**2 + core_dy**2 <= cr**2

    arm = (
        (x >= lay.arm_left)
        & (x <= lay.arm_right)
        & (y >= lay.arm_top)
        & (y <= lay.arm_cut)
    )

    mask = palm | arm
    for base, tip, r in zip(lay.bases, lay.tips, lay.radii):
        bx, by = base
        px, py = tip
        vx, vy = px - bx, py - by
        denom = vx * vx + vy * vy
        # Only the capsule's bounding box (with a 2 px margin) can be inside.
        box = (
            slice(max(0, math.floor(min(by, py) - r - 2)), math.ceil(max(by, py) + r + 2) + 1),
            slice(max(0, math.floor(min(bx, px) - r - 2)), math.ceil(max(bx, px) + r + 2) + 1),
        )
        xb, yb = x[box], y[box]
        t = np.clip(((xb - bx) * vx + (yb - by) * vy) / denom, 0.0, 1.0)
        mask[box] |= (xb - (bx + t * vx)) ** 2 + (yb - (by + t * vy)) ** 2 <= r**2
    return mask


def outline_distance(lay, x: float, y: float) -> float:
    """Distance from (x, y) to the nearest outline of the palm, the arm or a
    finger, inside or out."""
    cr = lay.corner_radius
    core_dx = max(lay.palm_left + cr - x, x - (lay.palm_right - cr), 0.0)
    core_dy = max(lay.palm_top + cr - y, y - (lay.palm_bottom - cr), 0.0)
    out_dx = max(lay.arm_left - x, x - lay.arm_right, 0.0)
    out_dy = max(lay.arm_top - y, y - lay.arm_cut, 0.0)
    inside = min(x - lay.arm_left, lay.arm_right - x, y - lay.arm_top, lay.arm_cut - y)
    arm = math.hypot(out_dx, out_dy) if inside < 0 else inside
    fingers = [
        abs(_seg_point_dist(x, y, *base, *tip) - r)
        for base, tip, r in zip(lay.bases, lay.tips, lay.radii)
    ]
    return min(abs(math.hypot(core_dx, core_dy) - cr), arm, *fingers)


class TestRasterize:
    """The row-cut fill against the distance test it replaced."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.floats(30.0, 400.0))
    def test_matches_the_distance_test_off_the_outlines(self, seed, tilt, dpi):
        # A pixel centre on an outline is a tie the two formulas may round
        # either way; at tilt 0 a finger's straight side can pass through one.
        lay = synthgen._layout(posed_params(seed, tilt), dpi / synthgen.REFERENCE_DPI)
        got = synthgen._rasterize(synthgen._row_cuts(lay), lay.width)
        for y, x in np.argwhere(got != reference_rasterize(lay)):
            assert outline_distance(lay, float(x), float(y)) < 1e-9

    @pytest.mark.parametrize("dpi", [30.0, 50.0, 100.0, 150.0, 200.0, 393.7])
    def test_canonical_hands_match_the_distance_test(self, dpi):
        lay = synthgen._layout(canonical_params(), dpi / synthgen.REFERENCE_DPI)
        got = synthgen._rasterize(synthgen._row_cuts(lay), lay.width)
        np.testing.assert_array_equal(got, reference_rasterize(lay))


def _seg_point_dist(x: float, y: float, bx: float, by: float, px: float, py: float) -> float:
    vx, vy = px - bx, py - by
    denom = vx * vx + vy * vy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, ((x - bx) * vx + (y - by) * vy) / denom))
    dx, dy = x - (bx + t * vx), y - (by + t * vy)
    return math.hypot(dx, dy)


def reference_capsule_xsection(
    base: tuple[float, float], tip: tuple[float, float], r: float, y: float
) -> tuple[float, float] | None:
    """Continuous [x_lo, x_hi] of a capsule cut by the horizontal line at y."""
    bx, by, px, py = base[0], base[1], tip[0], tip[1]
    if y > by + r or y < py - r:
        return None
    # An interior x on this row: the axis crossing, or the nearer cap centre.
    if y >= by:
        x_in = bx
    elif y <= py:
        x_in = px
    else:
        x_in = bx + (y - by) / (py - by) * (px - bx)
    if _seg_point_dist(x_in, y, bx, by, px, py) >= r:
        return None
    span = r + abs(px - bx) + 2.0
    lo_out, hi_out = x_in - span, x_in + span

    def edge(inside: float, outside: float) -> float:
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if _seg_point_dist(mid, y, bx, by, px, py) < r:
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    return edge(x_in, lo_out), edge(x_in, hi_out)


def one_row_cut(base, tip, r, y):
    """synthgen._capsule_xsection on the single row y; None where the cut
    has no interior, as the bisection reports a miss or a tangent row."""
    lo, hi = synthgen._capsule_xsection(base, tip, r, np.array([y]))[:, 0]
    return None if lo >= hi else (lo, hi)


class TestCapsuleCrossSection:
    """The closed-form cut against the bisection it replaced.

    Rendered fingers point up, tilted by at most 10 degrees; the test allows
    45. Near a horizontal axis a tangent row grazes the whole strip, and
    there rounding alone decides the cut of either method.
    """

    @settings(deadline=None, max_examples=500)
    @given(
        st.floats(0.0, 300.0),
        st.floats(20.0, 400.0),
        st.floats(-45.0, 45.0),
        st.floats(1.0, 150.0),
        st.floats(0.5, 20.0),
        st.floats(-0.2, 1.2),
    )
    def test_matches_the_bisection_reference(self, bx, by, tilt, length, r, where):
        theta = math.radians(tilt)
        base, tip = (bx, by), (bx + length * math.sin(theta), by - length * math.cos(theta))
        y = tip[1] - r + where * (by - tip[1] + 2 * r)
        want = reference_capsule_xsection(base, tip, r, y)
        got = one_row_cut(base, tip, r, y)
        assert (got is None) == (want is None)
        if want is None:
            return
        # Near a tangent row both edges are square roots of tiny differences,
        # so they agree only to about sqrt(eps) * r there.
        assert got == pytest.approx(want, rel=0.0, abs=1e-6)
        # Pixels agree unless an edge lies within that distance of a pixel
        # boundary, where the bisection may stop on either side of it.
        assume(all(abs(e - round(e)) > 1e-6 for e in want))
        for g, w in zip(got, want):
            assert (math.floor(g), math.ceil(g)) == (math.floor(w), math.ceil(w))

    def test_row_above_every_reach_is_empty(self):
        assert one_row_cut((10.0, 50.0), (12.0, 20.0), 3.0, 16.5) is None
        assert one_row_cut((10.0, 50.0), (12.0, 20.0), 3.0, 53.0) is None

    def test_axis_row_spans_the_width(self):
        lo, hi = one_row_cut((10.0, 50.0), (10.0, 20.0), 3.0, 35.0)
        assert (lo, hi) == (7.0, 13.0)


class TestMakeCorpus:
    def test_identical_seeds_build_identical_corpora(self):
        a = make_corpus(CorpusSettings(9, persons=3, samples=2))
        b = make_corpus(CorpusSettings(9, persons=3, samples=2))
        for row_a, row_b in zip(a.images, b.images):
            for img_a, img_b in zip(row_a, row_b):
                np.testing.assert_array_equal(img_a.pixels, img_b.pixels)

        def truths(corpus):
            return [(t.landmarks, t.raw) for row in corpus.truths for t in row]

        assert truths(a) == truths(b)

    def test_every_sample_passes_landmark_detection(self):
        corpus = make_corpus(CorpusSettings(4, persons=4, samples=3))
        for row in corpus.images:
            for img in row:
                marks = extract(img).landmarks
                assert len(marks.tips) == 5 and len(marks.valleys) == 4

    def test_zero_jitter_repeats_each_person_exactly(self):
        corpus = make_corpus(CorpusSettings(1, 0.0, persons=2, samples=3))
        for row in corpus.images:
            vectors = [extract(img).vector for img in row]
            for v in vectors[1:]:
                np.testing.assert_array_equal(v, vectors[0])

    def test_out_of_range_jitter_is_rejected(self):
        with pytest.raises(CorpusError, match="intra_sigma"):
            make_corpus(CorpusSettings(0, 0.2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"persons": 0},
            {"samples": 0},
            {"dpi": 0.0},
            {"dpi": -100.0},
            {"dpi": math.inf},
            {"noise_level": -1.0},
            {"noise_level": 5.0},
            {"noise_level": math.nan},
        ],
    )
    def test_empty_or_unrenderable_shapes_are_rejected_up_front(self, monkeypatch, kwargs):
        monkeypatch.setattr(synthgen, "render", None)  # no render may be attempted
        with pytest.raises(CorpusError, match="persons|sample|dpi|noise_level"):
            make_corpus(CorpusSettings(0, **kwargs))

    def test_regeneration_gives_up_after_bounded_attempts(self, monkeypatch):
        failure = LandmarkError("expected 5 fingertips and 4 valleys, found 4 and 3")

        def extract(img):
            raise failure

        monkeypatch.setattr(synthgen, "extract", extract)
        with pytest.raises(CorpusError, match="100 attempts; last landmark_error: expected 5"):
            make_corpus(CorpusSettings(0, persons=1, samples=1))

    def test_giving_up_names_the_last_render_failure(self):
        with pytest.raises(CorpusError, match="100 attempts; last render_error: "):
            make_corpus(CorpusSettings(0, dpi=10.0, persons=1, samples=1))

    def test_oversized_canvas_is_a_size_error_before_rasterizing(self, monkeypatch):
        monkeypatch.setattr(synthgen, "_rasterize", None)  # no canvas may be allocated
        monkeypatch.setattr(synthgen, "_row_cuts", None)  # nor any row cut
        with pytest.raises(SizeError, match="exceeds"):
            render(canonical_params(), dpi=100000.0)
        with pytest.raises(SizeError, match="exceeds"):
            make_corpus(CorpusSettings(0, dpi=100000.0, persons=1, samples=1))


class TestCorpusSerialization:
    def test_round_trip_preserves_quantized_images_and_metadata(self, tmp_path):
        corpus = make_corpus(CorpusSettings(6, persons=2, samples=2))
        root = tmp_path / "corpus"
        save_corpus(corpus, root)
        assert load_settings(root) == corpus.settings
        for p, row_a in enumerate(corpus.images):
            for img_a, img_b in zip(row_a, load_person(root, corpus.settings, p), strict=True):
                np.testing.assert_array_equal(
                    np.rint(img_b.pixels * 255), np.rint(img_a.pixels * 255)
                )

    def test_tree_layout_is_one_directory_per_person(self, tmp_path):
        corpus = make_corpus(CorpusSettings(6, persons=2, samples=3))
        root = tmp_path / "corpus"
        save_corpus(corpus, root)
        assert (root / "corpus_config.txt").exists()
        for p in range(2):
            person_dir = root / f"person_{p:02d}"
            assert (person_dir / "ground_truth.csv").exists()
            samples = sorted(person_dir.glob("sample_*.bmp"))
            assert len(samples) == 3

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_default_trees_match_the_stored_digests(self, tmp_path, corpus_rows, seed):
        references = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
        want = json.loads(references.read_text())[seed]["gen_tree_sha256"]
        settings = CorpusSettings(int(seed))
        write_corpus(tmp_path, settings, corpus_rows(settings))
        h = hashlib.sha256()
        for rel, data in sorted(tree_files(tmp_path).items()):
            h.update(rel.encode() + b"\0" + data + b"\0")
        assert h.hexdigest() == want


#: Each corpus_config.txt key with values CorpusSettings accepts and rejects.
SETTING_VALUES = {
    "master_seed": (
        st.integers(0, 2**70) | st.sampled_from([2**64, 2**64 + 1]),
        st.integers(max_value=-1),
    ),
    "intra_sigma": (
        st.floats(0.0, 0.1) | st.sampled_from([0.1, 0.1 / 3]),
        st.floats(0.1, exclude_min=True) | st.floats(max_value=0.0, exclude_max=True),
    ),
    "noise_level": (
        st.floats(0.0, 1.0) | st.sampled_from([0.1, 1 / 3]),
        st.floats(1.0, exclude_min=True) | st.floats(max_value=0.0, exclude_max=True),
    ),
    "dpi": (
        st.floats(0.0, exclude_min=True, allow_infinity=False) | st.sampled_from([0.1, 1 / 3]),
        st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]),
    ),
    "persons": (st.integers(1, 3), st.integers(max_value=0)),
    "samples": (st.integers(1, 3), st.integers(max_value=0)),
}
VALID_SETTINGS = st.builds(CorpusSettings, **{k: ok for k, (ok, _) in SETTING_VALUES.items()})


def saved_tiny_corpus(settings, root):
    """Write a tree of 1x1 images, with no truths, under settings to root."""
    img = GrayImage(np.zeros((1, 1)))
    write_corpus(root, settings, (([img] * settings.samples, []) for _ in range(settings.persons)))


class TestCorpusConfig:
    @settings(deadline=None, max_examples=60)
    @given(VALID_SETTINGS)
    def test_settings_round_trip_through_the_file(self, corpus_settings):
        with tempfile.TemporaryDirectory() as root:
            saved_tiny_corpus(corpus_settings, root)
            assert load_settings(root) == corpus_settings

    @settings(deadline=None, max_examples=60)
    @given(VALID_SETTINGS, st.data())
    def test_an_out_of_range_value_is_one_corpus_error_naming_the_file(
        self, corpus_settings, data
    ):
        key = data.draw(st.sampled_from(sorted(SETTING_VALUES)))
        bad = data.draw(SETTING_VALUES[key][1])
        with tempfile.TemporaryDirectory() as root:
            saved_tiny_corpus(corpus_settings, root)
            config = Path(root) / "corpus_config.txt"
            text = config.read_text()
            config.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={bad!r}", text))
            with pytest.raises(CorpusError) as caught:
                load_settings(root)
            assert str(caught.value).startswith(f"{config}: ")


def tree_files(root):
    """Bytes of every file under root by its relative POSIX path."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }
