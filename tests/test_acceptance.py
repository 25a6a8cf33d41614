"""Acceptance gate: the ten package-level checks, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line (run with ``-s``
to see them live) and enforces its own wall-clock budget where one applies.
Budgets charged to shared fixtures are added to the first criteria that use
them, so no work escapes the accounting.
"""

import contextlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from lm_reference import _jacobian, _residuals

from handgeo.classifiers import (
    TrainConfig,
    dist_mad,
    dist_mse,
    loss_mse,
    loss_msereg,
    mlp_identify,
    mlp_train,
    rbf_train,
)
from handgeo.contour import ChainCode, perimeter, trace_contour
from handgeo.errors import ConfigError, LandmarkError
from handgeo.evaluation import (
    Split,
    count_trials,
    emit_table,
    evaluate_all,
    extract_features,
    sweep_rbf_features,
)
from handgeo.features import FEATURE_NAMES
from handgeo.imaging import BinaryImage, GrayImage, binarize, boundary_ring
from handgeo.pipeline import ExtractionSettings, extract
from handgeo.synthgen import CorpusSettings

EXACT = ExtractionSettings(kernel_radius=0)
SEEDS = (0, 1, 2, 3, 4)


@contextlib.contextmanager
def criterion(n: int, label: str, budget: float | None = None, offset: float = 0.0):
    """Print one pass/fail line per criterion and enforce its time budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d} FAIL  {label}")
        raise
    elapsed = offset + (time.perf_counter() - t0)
    if budget is not None and elapsed > budget:
        print(f"criterion {n:02d} FAIL  {label} ({elapsed:.1f}s over the {budget:.0f}s budget)")
        raise AssertionError(f"criterion {n} took {elapsed:.1f}s, budget {budget:.0f}s")
    print(f"criterion {n:02d} PASS  {label} ({elapsed:.1f}s)")


def four_point_set() -> list[tuple[int, np.ndarray]]:
    """Two well-separated persons, two 9-dimensional samples each."""
    rng = np.random.default_rng(42)
    base = rng.uniform(-0.2, 0.2, size=(4, 9))
    base[:2, 0] -= 0.8
    base[2:, 0] += 0.8
    return [(0, base[0]), (0, base[1]), (1, base[2]), (1, base[3])]


@pytest.fixture(scope="module")
def clean_hands(corpus_rows):
    """100 noise-free renders with their ground truths, fully extracted."""
    t0 = time.perf_counter()
    rows = corpus_rows(CorpusSettings(0, noise_level=0.0, persons=20, samples=5))
    pairs = [
        (gt, extract(img, EXACT))
        for images, truths in rows
        for img, gt in zip(images, truths)
    ]
    return SimpleNamespace(pairs=pairs, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def five_seed_run(tmp_path_factory):
    """Full protocol on the default corpus for five seeds; files kept on disk."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("run_a")
    reports = _run_default_protocol(root)
    return SimpleNamespace(reports=reports, root=root, elapsed=time.perf_counter() - t0)


def _run_default_protocol(out_dir):
    reports = {}
    for seed in SEEDS:
        report = evaluate_all(CorpusSettings(seed))
        text, csv_text = emit_table(report)
        (out_dir / f"report_{seed}.txt").write_text(text)
        (out_dir / f"report_{seed}.csv").write_text(csv_text)
        reports[seed] = report
    return reports


def test_criterion_01_binarization_matches_direct_inequality():
    with criterion(1, "binarization equals the direct inequality on every byte", 1.0):
        values = np.arange(256, dtype=float) / 255.0
        out = binarize(GrayImage(values.reshape(16, 16), dpi=100), 0.07)
        expected = (values.reshape(16, 16) >= 0.07).astype(np.uint8)
        assert np.array_equal(out.bits, expected)


def test_criterion_02_perimeter_rule_on_rectangles_and_staircases():
    with criterion(2, "rectangle perimeters exact; staircases k*sqrt(2)", 5.0):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = int(rng.integers(2, 40))
            w = int(rng.integers(2, 40))
            canvas = np.zeros((h + 8, w + 8), dtype=np.uint8)
            canvas[4 : 4 + h, 4 : 4 + w] = 1
            ring = boundary_ring(BinaryImage(bits=canvas, dpi=100))
            steps = 2 * (h + w) - 4  # walking the ring, one step per pixel
            assert int(ring.bits.sum()) == steps
            chain = trace_contour(ring)
            assert perimeter(chain) == float(steps)
        for k in (1, 2, 3, 5, 17, 100):
            staircase = ChainCode(start=(0, 0), codes=(1,) * k)
            assert abs(perimeter(staircase) - k * math.sqrt(2)) <= 1e-9


def test_criterion_03_landmarks_on_clean_hands_and_merged_rejection(clean_hands, merged_scan):
    with criterion(
        3,
        "landmarks within 2 px on 100 clean hands; 20/20 merged hands rejected",
        30.0,
        offset=clean_hands.elapsed,
    ):
        assert len(clean_hands.pairs) == 100
        for gt, ext in clean_hands.pairs:
            assert len(ext.landmarks.tips) == 5
            assert len(ext.landmarks.valleys) == 4
            for got, want in zip(ext.landmarks.tips, gt.landmarks.tips):
                assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 2.0
            for got, want in zip(ext.landmarks.valleys, gt.landmarks.valleys):
                assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 2.0

        for shrink in range(85, 105):
            with pytest.raises(LandmarkError):
                extract(merged_scan(shrink), EXACT)


def test_criterion_04_measurements_track_ground_truth(clean_hands):
    with criterion(
        4,
        "lengths/widths within 5% and surface within 2% of ground truth",
        30.0,
        offset=clean_hands.elapsed,
    ):
        for gt, ext in clean_hands.pairs:
            raw = ext.raw
            for name in FEATURE_NAMES[:5] + FEATURE_NAMES[6:11]:  # lengths, then widths
                got, want = getattr(raw, name), getattr(gt.raw, name)
                assert abs(got - want) / want <= 0.05
            assert abs(raw.surface - gt.raw.surface) / gt.raw.surface <= 0.02


def test_criterion_05_distance_and_loss_formulas():
    with criterion(5, "distance/loss formulas exact; gamma=1 run equals plain run", 10.0):
        assert dist_mse(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == 0.0
        assert dist_mse(np.array([0.0, 0]), np.array([3.0, 4])) == 25.0
        assert dist_mse(np.array([1.0]), np.array([-1.0])) == 4.0

        x = np.array([0.3, -0.7, 2.5])
        assert dist_mad(np.array([0.0, 0]), np.array([3.0, 4])) == 7.0
        assert dist_mad(x, x) == 0.0
        assert dist_mad(np.array([-1.0, 1]), np.array([1.0, -1])) == 4.0

        t = np.array([[0.2, -0.4]])
        assert loss_mse(t, t) == 0.0
        assert loss_mse(np.array([[1.0, -1.0]]), np.array([[0.0, 0.0]])) == 1.0
        assert loss_mse(np.array([[1.0, -1], [1, 1]]), np.zeros((2, 2))) == 1.0

        weights = np.array([0.3, -0.9, 0.4])
        assert loss_msereg(t, np.zeros((1, 2)), weights, 1.0) == loss_mse(t, np.zeros((1, 2)))
        assert loss_msereg(t, t, np.full(7, 0.5), 0.0) == 0.25
        # mean squared error exactly 0.2, mean squared weight exactly 0.1:
        # the 0.5/0.5 mix is 0.15 up to one ulp of the final addition.
        mixed = loss_msereg(
            np.array([[1.0, 0, 0, 0, 0]]),
            np.zeros((1, 5)),
            np.array([1.0] + [0.0] * 9),
            0.5,
        )
        assert math.isclose(mixed, 0.15, rel_tol=0.0, abs_tol=1e-16)

        toy = four_point_set()
        plain = mlp_train(toy, TrainConfig(loss="mse", epochs=10, seed=3), hidden=4)
        unit_gamma = mlp_train(
            toy, TrainConfig(loss="msereg", gamma=1.0, epochs=10, seed=3), hidden=4
        )
        assert len(plain.loss_history) == len(unit_gamma.loss_history)
        for a, b in zip(plain.loss_history, unit_gamma.loss_history):
            assert abs(a - b) <= 1e-12


def test_criterion_06_training_algorithm_correctness():
    with criterion(
        6, "Jacobian matches finite differences; losses fall; toy net converges", 60.0
    ):
        hidden, n_in, n_out = 3, 9, 2
        n_params = hidden * n_in + hidden + n_out * hidden + n_out
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            x = rng.normal(size=(6, n_in))
            t = np.full((6, n_out), -1.0)
            t[np.arange(6), rng.integers(0, n_out, 6)] = 1.0
            theta = rng.normal(scale=0.5, size=n_params)

            analytic = _jacobian(theta, x, t, hidden=hidden, gamma=0.8, reg_scale=0.1)
            step = 1e-5
            numeric = np.empty_like(analytic)
            for i in range(n_params):
                up, down = theta.copy(), theta.copy()
                up[i] += step
                down[i] -= step
                numeric[:, i] = (
                    _residuals(up, x, t, hidden=hidden, gamma=0.8, reg_scale=0.1)
                    - _residuals(down, x, t, hidden=hidden, gamma=0.8, reg_scale=0.1)
                ) / (2 * step)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel <= 1e-4

        toy = four_point_set()
        for loss in ("mse", "msereg"):
            model = mlp_train(toy, TrainConfig(loss=loss, seed=0), hidden=4)
            history = model.loss_history
            assert all(b < a for a, b in zip(history, history[1:]))

        model = mlp_train(toy, TrainConfig(loss="mse", epochs=10, seed=0), hidden=4)
        assert all(mlp_identify(model, v) == p for p, v in toy)


def test_criterion_07_rbf_interpolation_and_centre_sweep(corpus_rows):
    with criterion(
        7, "full-centre network interpolates; sweep peaks above 5 centres", 180.0
    ):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(30, 9))
        labels = [int(i % 5) for i in range(30)]
        model = rbf_train([(labels[i], x[i]) for i in range(30)], 30)
        targets = np.full((30, 5), -1.0)
        targets[np.arange(30), labels] = 1.0
        assert np.abs(model.outputs(x) - targets).max() <= 1e-6

        entries, _ = extract_features(images for images, _ in corpus_rows(CorpusSettings(0)))
        curve = dict(sweep_rbf_features(entries, centre_counts=tuple(range(5, 111, 5))))
        assert max(curve.values()) > curve[5]


def test_criterion_08_protocol_accounting(five_seed_run):
    with criterion(8, "trial counts exact; split integrity; every report row present"):
        assert count_trials(22, 5) == (110, 2310, 2420)

        default = Split()
        assert default.train_indices == (0, 1, 2, 3, 4)
        assert default.test_indices == (5, 6, 7, 8, 9)
        assert not set(default.train_indices) & set(default.test_indices)
        with pytest.raises(ConfigError):
            Split(train_indices=(0, 1), test_indices=(1, 2))

        text = (five_seed_run.root / "report_0.txt").read_text()
        for label in (
            "NN-MAD",
            "NN-MSE",
            "MLP-MSE",
            "MLP-MSEREG",
            "Committee-MSE",
            "Committee-MSEREG",
            "RBF",
        ):
            assert label in text


def test_criterion_09_classifier_ordering_across_seeds(five_seed_run):
    with criterion(
        9,
        "mean over 5 seeds: regularized MLP >= plain NN; committee within 1pp",
        600.0,
        offset=five_seed_run.elapsed,
    ):
        reports = five_seed_run.reports.values()

        def mean(key: str) -> float:
            return sum(r.rates[key] for r in reports) / len(SEEDS)

        for report in reports:
            for rate in report.rates.values():
                assert 0.0 < rate <= 100.0
        assert mean("mlp_msereg") >= mean("nn_mse")
        assert mean("committee_msereg") >= mean("mlp_msereg") - 1.0


def test_criterion_10_report_files_are_reproducible(five_seed_run, tmp_path):
    with criterion(10, "rerunning identical seeds reproduces report files byte for byte"):
        _run_default_protocol(tmp_path)
        for seed in SEEDS:
            for ext in ("txt", "csv"):
                name = f"report_{seed}.{ext}"
                assert (tmp_path / name).read_bytes() == (
                    five_seed_run.root / name
                ).read_bytes()
