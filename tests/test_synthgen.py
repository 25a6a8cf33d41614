"""Synthetic hand rendering, ground truth, and corpus generation."""

import dataclasses

import numpy as np
import pytest

import handgeo.synthgen as synthgen
from handgeo.errors import CorpusError, LandmarkError, RenderError
from handgeo.imaging import binarize
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import (
    HandParams,
    canonical_params,
    load_corpus,
    make_corpus,
    render,
    save_corpus,
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
        assert binarize(img).bits.sum() == round(gt.surface_mm2 / pixel_area)

    def test_measured_lengths_match_ground_truth_within_two_pixels(self):
        img, gt = render(canonical_params(), noise_level=0.0)
        raw = extract(img).raw
        measured = (
            raw.thumb_length,
            raw.first_length,
            raw.middle_length,
            raw.ring_length,
            raw.little_length,
        )
        mm_per_px = 25.4 / img.dpi
        for got, want in zip(measured, gt.lengths_mm):
            assert abs(got - want) <= 2 * mm_per_px

    def test_landmarks_of_an_ideal_render_are_pixel_exact(self):
        corpus = make_corpus(2, persons=5, samples=2, noise_level=0.0)
        for person, row in enumerate(corpus.images):
            for j, img in enumerate(row):
                got = extract(img, EXACT).landmarks
                want = corpus.truths[person][j]
                assert got.tips == want.tips
                assert got.valleys == want.valleys
                assert got.wrist == want.wrist

    def test_merged_fingers_are_rejected_by_name(self):
        with pytest.raises(RenderError, match="merge"):
            render(merged_params())

    def test_defective_render_fails_landmark_detection(self):
        img, _ = render(merged_params(), allow_defects=True)
        with pytest.raises(LandmarkError):
            extract(img)

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

    def test_tilted_hand_still_yields_all_landmarks(self):
        img, _ = render(
            dataclasses.replace(canonical_params(), tilt_deg=7.0), noise_level=0.0
        )
        marks = extract(img).landmarks
        assert len(marks.tips) == 5 and len(marks.valleys) == 4


class TestMakeCorpus:
    def test_identical_seeds_build_identical_corpora(self):
        a = make_corpus(9, persons=3, samples=2)
        b = make_corpus(9, persons=3, samples=2)
        for row_a, row_b in zip(a.images, b.images):
            for img_a, img_b in zip(row_a, row_b):
                np.testing.assert_array_equal(img_a.pixels, img_b.pixels)
        assert a.truths == b.truths

    def test_every_sample_passes_landmark_detection(self):
        corpus = make_corpus(4, persons=4, samples=3)
        for row in corpus.images:
            for img in row:
                marks = extract(img).landmarks
                assert len(marks.tips) == 5 and len(marks.valleys) == 4

    def test_zero_jitter_repeats_each_person_exactly(self):
        corpus = make_corpus(1, 0.0, persons=2, samples=3)
        for row in corpus.images:
            vectors = [extract(img).vector for img in row]
            for v in vectors[1:]:
                np.testing.assert_array_equal(v, vectors[0])

    def test_out_of_range_jitter_is_rejected(self):
        with pytest.raises(CorpusError, match="intra_sigma"):
            make_corpus(0, 0.2)

    @pytest.mark.parametrize(
        "kwargs", [{"persons": 0}, {"samples": 0}, {"dpi": 0.0}, {"dpi": -100.0}]
    )
    def test_empty_or_unrenderable_shapes_are_rejected_up_front(self, monkeypatch, kwargs):
        monkeypatch.setattr(synthgen, "render", None)  # no render may be attempted
        with pytest.raises(CorpusError, match="persons|sample|dpi"):
            make_corpus(0, **kwargs)

    def test_regeneration_gives_up_after_bounded_attempts(self, monkeypatch):
        monkeypatch.setattr(synthgen, "_landmarks_detectable", lambda img: False)
        with pytest.raises(CorpusError, match="100"):
            make_corpus(0, persons=1, samples=1)


class TestCorpusSerialization:
    def test_round_trip_preserves_quantized_images_and_truths(self, tmp_path):
        corpus = make_corpus(6, persons=2, samples=2)
        root = tmp_path / "corpus"
        save_corpus(corpus, root)
        back = load_corpus(root)
        assert back.master_seed == corpus.master_seed
        assert back.intra_sigma == corpus.intra_sigma
        assert back.noise_level == corpus.noise_level
        assert back.dpi == corpus.dpi
        assert back.persons is None
        assert back.truths == corpus.truths
        for row_a, row_b in zip(corpus.images, back.images):
            for img_a, img_b in zip(row_a, row_b):
                np.testing.assert_array_equal(
                    np.rint(img_b.pixels * 255), np.rint(img_a.pixels * 255)
                )

    def test_tree_layout_is_one_directory_per_person(self, tmp_path):
        corpus = make_corpus(6, persons=2, samples=3)
        root = tmp_path / "corpus"
        save_corpus(corpus, root)
        assert (root / "corpus_config.txt").exists()
        for p in range(2):
            person_dir = root / f"person_{p:02d}"
            assert (person_dir / "ground_truth.csv").exists()
            samples = sorted(person_dir.glob("sample_*.bmp"))
            assert len(samples) == 3
