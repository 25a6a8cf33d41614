"""End-to-end command-line behaviour."""

import dataclasses
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import handgeo
from handgeo import cli, parallel, pipeline, synthgen
from handgeo.cli import _OPTIONS, REQUIRED, main
from handgeo.classifiers import MAX_HIDDEN
from handgeo.evaluation import (
    corpus_echo,
    emit_table,
    evaluate_all,
    evaluate_features,
    extract_features,
)
from handgeo.features import SELECTED_NAMES, load_features, save_features
from handgeo.imaging import GrayImage, load_bmp, save_bmp
from handgeo.synthgen import (
    CorpusSettings,
    canonical_params,
    load_person,
    load_settings,
    make_corpus,
    render,
    save_corpus,
)


SPREAD_ERROR = "rbf spread must be positive with 2 * spread**2 finite and nonzero, got "


def tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def write_features(path):
    """Synthetic, well-separated features at path: 3 persons, samples 0..9."""
    rng = np.random.default_rng(1)
    centres = rng.uniform(-1, 1, size=(3, 9))
    entries = [
        (p, j, centres[p] + rng.normal(0, 0.05, 9))
        for p in range(3)
        for j in range(10)
    ]
    save_features(path, entries)
    return path


@pytest.fixture()
def features_csv(tmp_path):
    return write_features(tmp_path / "features.csv")


class TestGen:
    def test_same_seed_writes_byte_identical_trees(self, tmp_path):
        args = ["--seed", "5", "--persons", "2", "--samples", "3"]
        assert main(["gen", "--out", str(tmp_path / "a")] + args) == 0
        assert main(["gen", "--out", str(tmp_path / "b")] + args) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("persons=2\nsamples=3\nseed=5\n")
        out = tmp_path / "c"
        assert main(["gen", "--config", str(cfg), "--out", str(out), "--persons", "3"]) == 0
        assert (out / "person_02").is_dir()

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("person_count=2\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("config_error:")

    def test_missing_out_fails_cleanly(self, capsys):
        assert main(["gen"]) == 1
        assert capsys.readouterr().err.startswith("config_error:")

    @pytest.mark.parametrize("flag", ["--persons", "--samples", "--dpi"])
    def test_empty_or_zero_dpi_corpus_fails_cleanly(self, tmp_path, capsys, flag):
        assert main(["gen", "--out", str(tmp_path / "z"), flag, "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("corpus_error:")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize(
        "flag,value,start",
        [
            ("--noise-level", "-1", "corpus_error: noise_level -1.0 outside [0, 1]"),
            ("--dpi", "100000", "size_error: image "),
        ],
    )
    def test_out_of_range_noise_or_dpi_is_one_error_line(
        self, tmp_path, capsys, flag, value, start
    ):
        assert main(["gen", "--out", str(tmp_path / "z"), "--persons", "1", flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(start)
        assert not (tmp_path / "z").exists()


    def test_negative_seed_is_one_corpus_error_line(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "z"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["corpus_error: master_seed must be >= 0, got -1"]
        assert not (tmp_path / "z").exists()

    def test_a_streamed_tree_is_the_saved_tree_of_make_corpus(self, tmp_path):
        argv = ["--seed", "5", "--persons", "3", "--samples", "3"]
        assert main(["gen", "--out", str(tmp_path / "streamed")] + argv) == 0
        save_corpus(make_corpus(CorpusSettings(5, persons=3, samples=3)), tmp_path / "collected")
        assert tree_bytes(tmp_path / "streamed") == tree_bytes(tmp_path / "collected")

    def test_a_gen_failing_at_person_2_leaves_persons_0_and_1_and_no_config(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "g"
        assert main(["gen", "--out", str(out), "--persons", "1", "--samples", "1"]) == 0
        draw = synthgen._draw_prototype
        drawn = []

        def third_cannot_render(rng):
            # A palm 1 px wide merges every finger base, so no pose renders.
            drawn.append(rng)
            proto = draw(rng)
            return dataclasses.replace(proto, palm_width=1.0) if len(drawn) == 3 else proto

        monkeypatch.setattr(synthgen, "_draw_prototype", third_cannot_render)
        # Worker processes do not see the patch: pin the in-process path it states.
        monkeypatch.setattr(parallel, "cores", lambda: 1)
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--persons", "4", "--samples", "3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "corpus_error: person 2 sample 0: no valid sample in 100 attempts; last render_error: "
        )
        assert sorted(path.name for path in out.iterdir()) == ["person_00", "person_01"]
        for person in ("person_00", "person_01"):
            names = sorted(path.name for path in (out / person).iterdir())
            assert names == ["ground_truth.csv", "sample_00.bmp", "sample_01.bmp", "sample_02.bmp"]

        assert main(["extract", "--input", str(out), "--out", str(tmp_path / "f.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"corpus_error: {out / 'corpus_config.txt'} not found"]
        assert not (tmp_path / "f.csv").exists()

    def test_a_smaller_gen_over_a_larger_tree_is_refused_and_leaves_it(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--out", str(out), "--persons", "4", "--samples", "2"]) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--persons", "2", "--samples", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        stray = out / "person_00" / "sample_01.bmp"
        assert err == [f"corpus_error: {stray} lies outside a 2 x 1 corpus"]
        assert tree_bytes(out) == before
        assert main(["gen", "--out", str(out), "--persons", "2", "--samples", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"corpus_error: {out / 'person_02'} lies outside a 2 x 2 corpus"]
        assert tree_bytes(out) == before


def traced_peak(argv):
    """tracemalloc's peak, in bytes, over one successful main(argv) call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOnePersonAtATime:
    """gen and extract --input hold one person's images at a time, so their
    peak memory does not grow with --persons. A 10-sample person is about
    3.3 MiB of float64 pixels; a warm-up run first takes the one-off
    allocations of the first render, extraction and BMP write."""

    def test_gen_peak_memory_does_not_grow_with_persons(self, tmp_path, monkeypatch):
        # tracemalloc sees this process alone. On one core gen starts no
        # worker and runs here the loop (gen._write_taken) each worker runs.
        monkeypatch.setattr(parallel, "cores", lambda: 1)
        main(["gen", "--out", str(tmp_path / "warm"), "--persons", "1", "--samples", "1"])
        peaks = {
            n: traced_peak(["gen", "--out", str(tmp_path / f"g{n}"), "--persons", str(n)])
            for n in (2, 6)
        }
        assert peaks[6] - peaks[2] < 2 * 2**20

    def test_extract_peak_memory_does_not_grow_with_persons(self, tmp_path):
        for n in (1, 2, 6):
            main(["gen", "--out", str(tmp_path / f"g{n}"), "--persons", str(n)])

        def extract(n):
            tree, csv = tmp_path / f"g{n}", tmp_path / f"{n}.csv"
            return ["extract", "--input", str(tree), "--out", str(csv)]

        main(extract(1))
        assert traced_peak(extract(6)) - traced_peak(extract(2)) < 2 * 2**20


class TestCommandLine:
    """A bad command line ends like a bad config value: one line, exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["extract", "--input", "x.bmp", "--out", "x.csv", "--sigma", "1"],
            ["eval", "--features", "f.csv", "--out", "r", "--sigma", "1"],
            ["sweep", "--features", "f.csv", "--out", "c.csv", "--sigma", "1"],
            ["extract", "--input", "x.bmp", "--out", "x.csv", "--threshold", "abc"],
            ["gen", "--out", "g", "--persons", "two"],
            ["train", "--features", "f.csv", "--out", "m"],
            ["eval", "--features", "f.csv", "--out", "r", "--models", "m"],
            ["eval", "--features", "f.csv", "--out", "r", "--metric", "mad"],
        ],
        ids=["no_command", "extract_sigma", "eval_sigma", "sweep_sigma", "threshold_abc",
             "persons_two", "train", "eval_models", "eval_metric"],
    )
    def test_bad_flag_is_one_config_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config_error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", list(_OPTIONS))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: handgeo {command}")

    @pytest.mark.parametrize(
        "command,line,message",
        [
            ("eval", "hidden=ten", "key 'hidden': invalid literal for int() with base 10: 'ten'"),
            ("gen", "persons=2.5", "key 'persons': invalid literal for int() with base 10: '2.5'"),
            ("extract", "threshold=half", "key 'threshold': could not convert string to float: 'half'"),
        ],
    )
    def test_a_bad_config_value_is_one_error_line_naming_the_file(
        self, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config_error: {cfg}: {message}"]

    @pytest.mark.parametrize(
        "command,key,cast",
        [(command, key, cast) for command, options in _OPTIONS.items()
         for key, (cast, _, _) in options.items() if cast in (int, float)],
    )
    def test_every_typed_config_key_names_the_file_and_key(
        self, tmp_path, capsys, command, key, cast
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=ten\n")
        with pytest.raises(ValueError) as rejected:
            cast("ten")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: {cfg}: key {key!r}: {rejected.value}"
        ]

    @pytest.mark.parametrize("key", ["sigma", "models", "metric"])
    @pytest.mark.parametrize("command", ["extract", "eval", "sweep"])
    def test_a_removed_key_in_a_config_file_is_an_unknown_key(
        self, tmp_path, capsys, command, key
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=1\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: unknown config key(s) for {command}: {key}"
        ]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("threshold=0.07\nthreshold=0.5\n", "2: key 'threshold' repeats line 1"),
            ("threshold=0.07\n# note\n\n threshold = 0.5 \n", "4: key 'threshold' repeats line 1"),
            ("=5\n", "1: empty key in '=5'"),
        ],
        ids=["repeated", "repeated_after_a_comment", "empty"],
    )
    def test_a_repeated_or_empty_config_key_is_one_error_line_naming_its_line(
        self, tmp_path, capsys, text, message
    ):
        img, _ = render(canonical_params(), noise_level=0.0)
        bmp = tmp_path / "hand.bmp"
        save_bmp(img, bmp)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "row.csv"
        assert main(["extract", "--config", str(cfg), "--input", str(bmp), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config_error: {cfg}:{message}"]
        assert not out.exists()


class TestExtract:
    def test_single_image_yields_one_row(self, tmp_path):
        img, _ = render(canonical_params(), noise_level=0.0)
        bmp = tmp_path / "hand.bmp"
        save_bmp(img, bmp)
        out = tmp_path / "row.csv"
        code = main(
            ["extract", "--input", str(bmp), "--out", str(out), "--person", "4"]
        )
        assert code == 0
        rows = load_features(out)
        assert len(rows) == 1 and rows[0][0] == 4

    def test_corpus_tree_yields_all_rows(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "2", "--samples", "3"])
        out = tmp_path / "all.csv"
        assert main(["extract", "--input", str(corpus_dir), "--out", str(out)]) == 0
        assert len(load_features(out)) == 6

    def test_merged_fingers_exit_with_a_landmark_error(self, tmp_path, capsys, merged_scan):
        bmp = tmp_path / "merged.bmp"
        save_bmp(merged_scan(90), bmp)
        code = main(["extract", "--input", str(bmp), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("landmark_error:")
        assert not (tmp_path / "x.csv").exists()

    def test_pixel_data_over_the_headers_is_one_format_error_line(self, tmp_path, capsys):
        img, _ = render(canonical_params(), noise_level=0.0)
        bmp = tmp_path / "hand.bmp"
        save_bmp(img, bmp)
        data = bytearray(bmp.read_bytes())
        data[10:14] = bytes(4)  # pixel data offset 0
        bmp.write_bytes(bytes(data))
        code = main(["extract", "--input", str(bmp), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format_error: ")
        assert "pixel data offset 0" in err[0]

    def test_a_turned_hand_is_one_landmark_error_line(self, tmp_path, capsys):
        img, _ = render(canonical_params(), noise_level=0.03)
        bmp = tmp_path / "turned.bmp"
        save_bmp(GrayImage(pixels=img.pixels[::-1, ::-1], dpi=img.dpi), bmp)
        code = main(["extract", "--input", str(bmp), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("landmark_error: wrist run of ")
        assert not (tmp_path / "x.csv").exists()

    def test_an_upside_down_hand_in_a_tree_is_one_warning_and_excluded(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "2", "--samples", "2"])
        bmp = corpus_dir / "person_01" / "sample_00.bmp"
        img = load_bmp(bmp)
        save_bmp(GrayImage(pixels=img.pixels[::-1], dpi=img.dpi), bmp)
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main(["extract", "--input", str(corpus_dir), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: person 1 sample 0: landmark_error: wrist run of ")
        assert captured.out == f"wrote 3 feature rows to {out} (1 failed)\n"
        assert [(p, j) for p, j, _ in load_features(out)] == [(0, 0), (0, 1), (1, 1)]

    def test_missing_file_reports_an_io_error(self, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(tmp_path / "no.bmp"), "--out", str(tmp_path / "y.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("io_error:")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: text.replace("persons=2\n", ""), "missing key 'persons'"),
            (lambda text: text.replace("samples=1", "samples=ten"), "key 'samples': "),
            (lambda text: text.replace("persons=2", "persons=-1"), "need at least 1 person"),
        ],
        ids=["missing_persons", "non_numeric_samples", "negative_persons"],
    )
    def test_bad_corpus_config_is_one_corpus_error_line(self, tmp_path, capsys, edit, message):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "2", "--samples", "1"])
        config = corpus_dir / "corpus_config.txt"
        config.write_text(edit(config.read_text()))
        capsys.readouterr()
        code = main(["extract", "--input", str(corpus_dir), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"corpus_error: {config}: {message}")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("intra_sigma", "nan", "intra_sigma nan outside [0, 0.1]"),
            ("intra_sigma", "0.2", "intra_sigma 0.2 outside [0, 0.1]"),
            ("noise_level", "7", "noise_level 7.0 outside [0, 1]"),
            ("dpi", "-5", "dpi must be positive and finite, got -5.0"),
            ("dpi", "inf", "dpi must be positive and finite, got inf"),
            ("samples", "0", "need at least 1 person and 1 sample, got 1 x 0"),
            ("master_seed", "-3", "master_seed must be >= 0, got -3"),
        ],
    )
    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_metadata_gen_would_reject_is_one_corpus_error_line(
        self, tmp_path, tiny_corpus, capsys, command, key, value, message
    ):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus_dir)
        config = corpus_dir / "corpus_config.txt"
        config.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={value}", config.read_text()))
        capsys.readouterr()
        assert main([command, "--corpus" if command == "eval" else "--input", str(corpus_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"corpus_error: {config}: {message}"]

    def test_a_corpus_config_line_without_equals_is_one_corpus_error_line(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "1", "--samples", "2"])
        config = corpus_dir / "corpus_config.txt"
        lines = config.read_text().splitlines()
        config.write_text("\n".join(lines + ["garbage line"]) + "\n")
        capsys.readouterr()
        code = main(["extract", "--input", str(corpus_dir), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"corpus_error: {config}:{len(lines) + 1}: expected key=value, got 'garbage line'"
        ]

    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_a_repeated_corpus_config_key_is_one_corpus_error_line(
        self, tmp_path, tiny_corpus, capsys, command
    ):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus_dir)
        config = corpus_dir / "corpus_config.txt"
        lines = config.read_text().splitlines()
        first = lines.index("master_seed=0") + 1
        config.write_text("\n".join(lines + ["master_seed=5"]) + "\n")
        capsys.readouterr()
        assert main([command, "--corpus" if command == "eval" else "--input", str(corpus_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"corpus_error: {config}:{len(lines) + 1}: key 'master_seed' repeats line {first}"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "damage",
        [lambda path: path.unlink(), lambda path: path.write_text("sample\n0,x\n"),
         lambda path: path.write_bytes(b"\xff\n")],
        ids=["deleted", "garbled", "not_utf8"],
    )
    def test_ground_truth_is_never_read(self, tmp_path, damage):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "2", "--samples", "2"])
        clean = tmp_path / "clean.csv"
        assert main(["extract", "--input", str(corpus_dir), "--out", str(clean)]) == 0
        for truth in corpus_dir.glob("person_*/ground_truth.csv"):
            damage(truth)
        scanned = tmp_path / "scanned.csv"
        assert main(["extract", "--input", str(corpus_dir), "--out", str(scanned)]) == 0
        assert scanned.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize(
        "command,source", [("extract", "--input"), ("eval", "--corpus"), ("sweep", "--corpus")]
    )
    @pytest.mark.parametrize(
        "flag,value", [("--kernel-radius", "-1"), ("--threshold", "2")]
    )
    def test_out_of_range_extraction_flag_is_one_config_error_line(
        self, tmp_path, capsys, command, source, flag, value
    ):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "1", "--samples", "1"])
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([command, source, str(corpus_dir), "--out", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config_error: ")
        assert flag[2:].replace("-", "_") in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_oversized_kernel_radius_fails_before_any_filter(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # extract takes the radius as a flag on one BMP, eval from a config
        # file over a corpus; either way the settings reject it up front.
        if command == "extract":
            img, _ = render(canonical_params(), noise_level=0.0)
            save_bmp(img, tmp_path / "hand.bmp")
            argv = ["--input", str(tmp_path / "hand.bmp"), "--kernel-radius", "20000"]
        else:
            main(["gen", "--out", str(tmp_path / "corpus"), "--persons", "1", "--samples", "2"])
            (tmp_path / "bad.cfg").write_text("kernel_radius=20000\n")
            argv = ["--corpus", str(tmp_path / "corpus"), "--config", str(tmp_path / "bad.cfg")]
        capsys.readouterr()

        def no_filter(*args):
            raise AssertionError("the box filter ran with an oversized radius")

        # Both of silhouette's routes take window sums over the radius.
        monkeypatch.setattr(pipeline, "silhouette", no_filter)
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config_error: kernel_radius must be in [0, 25], got 20000"]
        assert not out.exists()


def overflowing_features(features_csv):
    """features_csv with feature 3 of two training rows set to +-1e308, so
    that dimension's max - min overflows."""
    lines = features_csv.read_text().splitlines()
    for row, value in ((1, "1e308"), (2, "-1e308")):
        cells = lines[row].split(",")
        cells[2 + 3] = value
        lines[row] = ",".join(cells)
    features_csv.write_text("\n".join(lines) + "\n")
    return features_csv


def test_an_overflowing_feature_range_is_one_scaler_error_line(tmp_path, features_csv, capsys):
    csv_path = overflowing_features(features_csv)
    out = tmp_path / "report"
    assert main(["eval", "--out", str(out), "--features", str(csv_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaler_error: dimension 3: range -1e+308 to 1e+308 is too wide to scale"
    ]
    assert not out.exists()


def test_a_probe_far_outside_the_training_range_is_scored_without_a_warning(
    tmp_path, features_csv, capsys
):
    lines = features_csv.read_text().splitlines()
    cells = lines[6].split(",")  # person 0, sample 5: a test-half row
    cells[2 + 3] = "1e308"
    lines[6] = ",".join(cells)
    features_csv.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                 "--multistart", "1", "--hidden", "4", "--centres", "5"]) == 0
    assert capsys.readouterr().err == ""


class TestEval:
    def test_negative_seed_is_one_config_error_line(self, tmp_path, features_csv, capsys):
        assert main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                     "--seed", "-5"]) == 1
        assert capsys.readouterr().err.splitlines() == ["config_error: seed must be >= 0, got -5"]
        assert not (tmp_path / "r").exists()

    def test_protocol_report_contains_every_classifier_row(
        self, tmp_path, features_csv, capsys
    ):
        out = tmp_path / "report"
        code = main(
            ["eval", "--features", str(features_csv), "--out", str(out),
             "--multistart", "1", "--hidden", "8", "--centres", "5"]
        )
        assert code == 0
        text = (out / "report.txt").read_text()
        for label in (
            "NN-MAD", "NN-MSE", "MLP-MSE", "MLP-MSEREG",
            "Committee-MSE", "Committee-MSEREG", "RBF",
        ):
            assert label in text
        assert (out / "report.csv").read_text().startswith("key,value")

    def test_requiring_exactly_one_input_source(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path / "r")]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_non_numeric_cell_is_a_format_error_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        save_features(path, [(p, j, np.full(9, p + j / 10)) for p in range(2) for j in range(3)])
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--features", str(path), "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"format_error: {path}:4: ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_a_format_error_with_its_line(
        self, tmp_path, features_csv, capsys, cell
    ):
        lines = features_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = cell
        lines[3] = ",".join(cells)
        features_csv.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "m")])
        assert code == 1
        column = lines[0].split(",")[4]
        assert capsys.readouterr().err.splitlines() == [
            f"format_error: {features_csv}:4: {column} is {float(cell)}, not a finite number"
        ]

    def test_rows_under_another_header_are_one_format_error_line(self, tmp_path, capsys):
        # Read by position, these rows would score 100.00% on every row.
        path = tmp_path / "foo.csv"
        rows = [f"{p},{j},{p},{j % 2}" for p in range(4) for j in range(10)]
        path.write_text("\n".join(["person,sample,foo,bar"] + rows) + "\n")
        out = tmp_path / "r"
        assert main(["eval", "--features", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"format_error: {path}:1: the header is not person,sample,"
            + ",".join(SELECTED_NAMES)
        ]
        assert not out.exists()

    @pytest.mark.parametrize("hidden", [0, -3, MAX_HIDDEN + 1])
    def test_out_of_range_hidden_count_fails_cleanly(
        self, tmp_path, features_csv, capsys, hidden
    ):
        code = main(
            ["eval", "--features", str(features_csv), "--out", str(tmp_path / "m"),
             "--multistart", "1", "--hidden", str(hidden)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: hidden units must be in [1, {MAX_HIDDEN}], got {hidden}"
        ]

    def test_non_positive_spread_fails_cleanly(self, tmp_path, features_csv, capsys):
        code = main(
            ["eval", "--features", str(features_csv), "--out", str(tmp_path / "m"),
             "--spread", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config_error: {SPREAD_ERROR}-1.0"]

    def test_a_repeated_row_is_one_format_error_line_naming_both_lines(
        self, tmp_path, features_csv, capsys
    ):
        # Scored twice, the repeat would count as an extra client trial.
        lines = features_csv.read_text().splitlines()
        features_csv.write_text("\n".join(lines + [lines[6]]) + "\n")
        out = tmp_path / "r"
        assert main(["eval", "--features", str(features_csv), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"format_error: {features_csv}:{len(lines) + 1}: person 0 sample 5 repeats line 7"
        ]
        assert not out.exists()


#: An out-of-range value of every key that has a range or a set of values.
OUT_OF_RANGE = {
    "threshold": "2",
    "kernel_radius": "26",
    "seed": "-1",
    "gamma": "1.5",
    "multistart": "0",
    "hidden": "0",
    "centres": "0",
    "spread": "-1",
    "person": "-1",
    "sample": "-1",
}
#: Keys of the commands below that take any value of their type.
ANY_VALUE = {"input", "features", "corpus", "out"}
#: Every input branch and mode of the commands that read input; "@name" is a
#: path in the work directory. gen reads no input, and its settings are
#: CorpusSettings, checked in corpus_error (TestGen).
BRANCHES = {
    "extract": [["--input", "@hand.bmp"], ["--input", "@corpus"]],
    "eval": [["--corpus", "@corpus"], ["--features", "@f.csv"]],
    "sweep": [["--corpus", "@corpus"], ["--features", "@f.csv"]],
}


def flag_cases():
    """The argv of each branch of each command with an out-of-range value of
    one of its keys in _OPTIONS; a flag the branch names already takes the
    bad value in place, and repeats are dropped."""
    cases = {}
    for command, branches in BRANCHES.items():
        for branch in branches:
            for key in _OPTIONS[command]:
                if key not in OUT_OF_RANGE:
                    continue
                flag, argv = "--" + key.replace("_", "-"), [command, *branch]
                if flag in argv:
                    argv[argv.index(flag) + 1] = OUT_OF_RANGE[key]
                else:
                    argv += [flag, OUT_OF_RANGE[key]]
                cases[" ".join(argv)] = argv
    return [pytest.param(argv, id=name) for name, argv in cases.items()]


def forbid_input(monkeypatch):
    """Make every reader the commands call fail the test."""

    def read(*args):
        raise AssertionError(f"an input was read: {args}")

    for name in ("load_features", "load_settings", "load_bmp"):
        monkeypatch.setattr(f"handgeo.cli.{name}", read)


#: The (command, key) pairs no run of the command goes without.
REQUIRED_KEYS = {
    ("gen", "out"),
    ("extract", "input"),
    ("extract", "out"),
    ("eval", "out"),
    ("sweep", "out"),
}


class TestFlagMatrix:
    """Every flag a command takes is checked before it reads any input,
    whichever input or mode it uses."""

    def test_every_key_of_a_reading_command_has_a_bad_value_or_takes_any(self):
        keys = {key for command in BRANCHES for key in _OPTIONS[command]}
        assert keys == set(OUT_OF_RANGE) | ANY_VALUE

    @pytest.mark.parametrize("argv", flag_cases())
    def test_an_out_of_range_value_is_one_config_error_line_before_any_input(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        (tmp_path / "corpus").mkdir()
        forbid_input(monkeypatch)
        out = tmp_path / "out"
        assert main(in_dir(tmp_path, argv) + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config_error: "), err
        assert captured.out == ""
        assert not out.exists()

    def test_the_required_keys_are_marked_in_the_option_table(self):
        marked = {(command, key) for command, options in _OPTIONS.items()
                  for key, (_, default, _) in options.items() if default is REQUIRED}
        assert marked == REQUIRED_KEYS

    @pytest.mark.parametrize("bad_value", [False, True], ids=["alone", "with_a_bad_value"])
    @pytest.mark.parametrize("command,key", sorted(REQUIRED_KEYS))
    def test_a_missing_required_key_is_one_config_error_line_before_any_input(
        self, tmp_path, capsys, monkeypatch, command, key, bad_value
    ):
        forbid_input(monkeypatch)
        argv = [command]
        for other in sorted(k for c, k in REQUIRED_KEYS if c == command and k != key):
            argv += [f"--{other}", f"@{other}"]
        if bad_value:  # an out-of-range value of the command's first ranged key
            ranged = next(k for k in _OPTIONS[command] if k in OUT_OF_RANGE)
            argv += [f"--{ranged.replace('_', '-')}", OUT_OF_RANGE[ranged]]
        assert main(in_dir(tmp_path, argv)) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config_error: {command} needs --{key}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", flag_cases())
    def test_an_out_of_range_config_value_is_the_flags_error_line_before_any_input(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        (tmp_path / "corpus").mkdir()
        forbid_input(monkeypatch)
        out = tmp_path / "out"
        *rest, flag, value = in_dir(tmp_path, argv)
        assert main(rest + [flag, value, "--out", str(out)]) == 1
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')}={value}\n")
        assert main(rest + ["--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == from_flag and from_flag.startswith("config_error: ")
        assert len(from_flag.splitlines()) == 1 and captured.out == ""
        assert not out.exists()


#: Two values of each cast, as text, that no key of that cast has as its default.
SAMPLE_VALUES = {int: ("17", "19"), float: ("0.125", "0.375"), str: ("a", "b"), Path: ("a", "b")}


def option_keys(required=(True, False)):
    """(command, key, cast, default) of every key in _OPTIONS whose
    REQUIRED-ness is in required."""
    return [
        pytest.param(command, key, cast, default, id=f"{command}-{key}")
        for command, options in _OPTIONS.items()
        for key, (cast, default, _) in options.items()
        if (default is REQUIRED) in required
    ]


class TestOptionSources:
    """Each key of each command takes its flag's value, else its config-file
    value, else the option table's default."""

    def merged(self, tmp_path, monkeypatch, command, key, argv, config=None):
        """The settings main hands the command for argv, the command's other
        required keys given as flags and config, if any, as its config file."""
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
        argv = [command, *argv]
        for other in sorted(k for c, k in REQUIRED_KEYS if c == command and k != key):
            argv += [f"--{other}", str(tmp_path / other)]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 0
        return getattr(seen[0], key)

    @pytest.mark.parametrize("command,key,cast,default", option_keys())
    def test_a_flag_beats_the_config_file(
        self, tmp_path, monkeypatch, command, key, cast, default
    ):
        in_file, on_flag = SAMPLE_VALUES[cast]
        flag = "--" + key.replace("_", "-")
        value = self.merged(tmp_path, monkeypatch, command, key, [flag, on_flag],
                            f"{key}={in_file}\n")
        assert value == cast(on_flag)

    @pytest.mark.parametrize("command,key,cast,default", option_keys())
    def test_a_config_value_beats_the_default(
        self, tmp_path, monkeypatch, command, key, cast, default
    ):
        in_file = SAMPLE_VALUES[cast][0]
        assert cast(in_file) != default
        value = self.merged(tmp_path, monkeypatch, command, key, [], f"{key}={in_file}\n")
        assert value == cast(in_file)

    @pytest.mark.parametrize("command,key,cast,default", option_keys(required=(False,)))
    def test_an_unset_key_takes_its_default(
        self, tmp_path, monkeypatch, command, key, cast, default
    ):
        assert self.merged(tmp_path, monkeypatch, command, key, []) == default


class TestExtremeSpread:
    """A finite spread whose 2 * spread**2 overflows or is zero is one
    config_error line from every entry point; a narrow spread that still
    scores trains without a warning."""

    @pytest.mark.parametrize("spread", ["1e155", "1e300", "1e-200"])
    @pytest.mark.parametrize("command", [["eval"], ["sweep"]])
    def test_a_spread_flag(self, tmp_path, features_csv, capsys, command, spread):
        argv = command + ["--features", str(features_csv), "--out", str(tmp_path / "o")]
        assert main(argv + ["--spread", spread]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: {SPREAD_ERROR}{float(spread)}"
        ]

    @pytest.mark.parametrize("spread", ["2e-155", "1e150"])
    def test_a_spread_just_inside_the_range_trains_and_scores(
        self, tmp_path, features_csv, capsys, spread
    ):
        # At 2e-155 the kernel's exponent overflows to -inf for most pairs.
        assert main(["sweep", "--features", str(features_csv), "--centres", "5",
                     "--out", str(tmp_path / "curve.csv"), "--spread", spread]) == 0


def in_dir(root, argv):
    """argv with each "@name" replaced by the path root / name."""
    return [str(root / arg[1:]) if arg.startswith("@") else arg for arg in argv]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A gen tree of one person with one sample."""
    root = tmp_path_factory.mktemp("tiny") / "corpus"
    assert main(["gen", "--out", str(root), "--persons", "1", "--samples", "1"]) == 0
    return root


class TestTextInputs:
    """Text input that is not UTF-8 ends in one line of the loader's category."""

    @pytest.mark.parametrize(
        "damaged,argv,category",
        [
            ("features.csv", ["eval", "--features", "@features.csv"], "format_error"),
            ("run.cfg", ["gen", "--config", "@run.cfg"], "config_error"),
            ("corpus/corpus_config.txt", ["extract", "--input", "@corpus"], "corpus_error"),
        ],
        ids=["eval_features", "config", "corpus_config"],
    )
    def test_a_non_utf8_byte_is_one_error_line_naming_the_file(
        self, tmp_path, features_csv, tiny_corpus, capsys, damaged, argv, category
    ):
        # features_csv lives in tmp_path as features.csv.
        shutil.copytree(tiny_corpus, tmp_path / "corpus")
        (tmp_path / "run.cfg").write_text("persons=1\nsamples=1\n")
        path = tmp_path / damaged
        path.write_bytes(path.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert main(in_dir(tmp_path, argv) + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{category}: {path}: not UTF-8 text (invalid start byte)"
        ]

    def test_an_unclosed_quote_in_a_large_csv_is_one_format_error_line(self, tmp_path, capsys):
        # The rest of the file becomes one field, longer than the csv module's
        # field limit of 128 KiB.
        path = tmp_path / "large.csv"
        rng = np.random.default_rng(2)
        save_features(path, [(p, j, rng.normal(size=9)) for p in range(100) for j in range(10)])
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, '"' + first, *rest]) + "\n")
        assert main(["eval", "--features", str(path), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"format_error: {path}: field larger than field limit (131072)"
        ]


#: Commands that read each fuzzed file and neither render nor start a
#: training worker; "@name" is a path in the work directory (see in_dir).
_READERS = {
    "corpus/person_00/sample_00.bmp": [
        ["extract", "--input", "@corpus/person_00/sample_00.bmp"],
        ["extract", "--input", "@corpus"],
    ],
    "corpus/corpus_config.txt": [["extract", "--input", "@corpus"]],
    "features.csv": [["sweep", "--features", "@features.csv", "--centres", "1"]],
    "extract.cfg": [
        ["extract", "--config", "@extract.cfg", "--input", "@corpus/person_00/sample_00.bmp"]
    ],
}


@pytest.fixture(scope="module")
def clean_inputs(tiny_corpus):
    """Bytes of every fuzzed file: the tiny corpus, a features CSV of its one
    vector and two multiples of it as two training samples and a test sample,
    and an extract config."""
    vector = pipeline.extract(load_bmp(tiny_corpus / "person_00" / "sample_00.bmp")).vector
    work = tiny_corpus.parent
    save_features(
        work / "features.csv", [(0, 0, vector), (0, 1, 1.05 * vector), (0, 5, 1.1 * vector)]
    )
    (work / "extract.cfg").write_text("threshold=0.07\nkernel_radius=1\n")
    return {name: (work / name).read_bytes() for name in _READERS}


class TestDamagedFiles:
    """A truncated file, or one with one byte changed, ends in exit 0 or in
    exit 1 with one error line; never in a traceback."""

    @pytest.mark.parametrize("name", list(_READERS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_damaged_input_is_exit_0_or_one_error_line(
        self, tmp_path, clean_inputs, capsys, name, data
    ):
        blob = clean_inputs[name]
        at = data.draw(st.integers(0, len(blob) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[:at]
        else:
            flip = data.draw(st.integers(1, 255), label="xor")
            damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :]
        for rel, clean in clean_inputs.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(damaged if rel == name else clean)
        for argv in _READERS[name]:
            capsys.readouterr()
            code = main(in_dir(tmp_path, argv) + ["--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code != 0:
                lines = err.splitlines()
                assert code == 1 and len(lines) == 1 and re.match(r"[a-z_]+: ", lines[0])


class TestOneProtocol:
    """eval, sweep and evaluate_features run the same split and trial
    accounting."""

    def test_eval_corpus_report_equals_evaluate_features(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["gen", "--out", str(corpus_dir), "--persons", "3"])
        for bmp in (corpus_dir / "person_02").glob("*.bmp"):
            img = load_bmp(bmp)
            save_bmp(GrayImage(pixels=np.zeros_like(img.pixels), dpi=img.dpi), bmp)
        out = tmp_path / "report"
        assert main(["eval", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
        settings = load_settings(corpus_dir)
        rows = (load_person(corpus_dir, settings, p) for p in range(settings.persons))
        entries, failures = extract_features(rows)
        report = evaluate_features(
            entries, exclusions=len(failures), extra_config=corpus_echo(settings)
        )
        want = emit_table(report)[1]
        assert (out / "report.csv").read_text() == want
        assert "\nclients,10\nimpostors,10\ntotal,20\nexclusions,10\n" in want

    def test_a_gen_tree_reads_back_as_the_corpus_evaluate_all_renders(self, tmp_path, capsys):
        settings = CorpusSettings(0, persons=3)
        corpus, features = tmp_path / "corpus", tmp_path / "features.csv"
        assert main(["gen", "--out", str(corpus), "--persons", "3"]) == 0
        assert main(["extract", "--input", str(corpus), "--out", str(features)]) == 0
        rendered, _ = extract_features(synthgen.render_person(settings, p)[0] for p in range(3))
        for (p, j, a), (q, k, b) in zip(load_features(features), rendered, strict=True):
            assert (p, j) == (q, k) and a.tobytes() == b.tobytes()
        out = tmp_path / "report"
        assert main(["eval", "--corpus", str(corpus), "--out", str(out)]) == 0
        text, csv_text = emit_table(evaluate_all(settings))
        assert (out / "report.txt").read_text() == text
        assert (out / "report.csv").read_text() == csv_text

    @pytest.mark.parametrize(
        "command", [["eval", "--multistart", "1", "--hidden", "4"], ["sweep", "--centres", "5"]],
        ids=["eval", "sweep"],
    )
    def test_rows_outside_the_split_are_one_warning_line(
        self, tmp_path, features_csv, capsys, command
    ):
        extra = tmp_path / "extra.csv"
        save_features(extra, load_features(features_csv) + [
            (3, 12, np.zeros(9)), (0, 10, np.zeros(9)), (1, 11, np.zeros(9))
        ])
        written = []
        (tmp_path / "out").mkdir()
        for path in (features_csv, extra):
            out = tmp_path / "out" / path.stem
            assert main([*command, "--features", str(path), "--out", str(out)]) == 0
            written.append(tree_bytes(out) if out.is_dir() else out.read_bytes())
        assert capsys.readouterr().err.splitlines() == [
            "warning: 3 rows fall outside the split and are neither trained on nor tested,"
            " the first person 3 sample 12"
        ]
        assert written[0] == written[1]  # the rows left out change nothing written

    def test_eval_echoes_the_corpus_and_split_at_the_head_of_its_config(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        features = tmp_path / "features.csv"
        assert main(["gen", "--out", str(corpus), "--persons", "3"]) == 0
        assert main(["extract", "--input", str(corpus), "--out", str(features)]) == 0
        small = ["--multistart", "1", "--hidden", "4", "--centres", "5"]
        for flag, source in (("--corpus", corpus), ("--features", features)):
            assert main(["eval", flag, str(source), *small,
                         "--out", str(tmp_path / f"{source.stem}_eval")]) == 0

        def config(out):
            rows = list(read_report_csv(out).items())
            return rows[[key for key, _ in rows].index("exclusions") + 1:]

        head = config(tmp_path / "corpus_eval")[:7]
        assert [key for key, _ in head] == [
            "corpus_seed", "intra_sigma", "noise_level", "persons", "samples_per_person",
            "train_indices", "test_indices",
        ]
        assert config(tmp_path / "features_eval")[:2] == head[5:]

    def test_eval_and_sweep_report_the_same_empty_half(self, tmp_path, features_csv, capsys):
        test_only = tmp_path / "test_only.csv"
        save_features(test_only, [e for e in load_features(features_csv) if e[1] >= 5])
        errors = []
        for command in ("eval", "sweep"):
            out = tmp_path / command
            assert main([command, "--features", str(test_only), "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err.splitlines())
        assert errors[0] == errors[1] == [
            "config_error: the split left one half of the corpus empty"
        ]


def read_report_csv(out):
    return dict(line.split(",", 1) for line in (out / "report.csv").read_text().splitlines())


class TestSweep:
    @pytest.mark.parametrize("centres", ["2,5,10", "2, ,5,10,"], ids=["plain", "blanks"])
    def test_curve_csv_lists_one_rate_per_count(self, tmp_path, features_csv, centres):
        out = tmp_path / "curve.csv"
        code = main(
            ["sweep", "--features", str(features_csv), "--out", str(out),
             "--centres", centres]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "centres,rate"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 5, 10]

    @pytest.mark.parametrize(
        "centres,message",
        [("five", "centre list must be comma-separated integers: 'five'"),
         ("", "--centres needs at least one comma-separated entry, got ''"),
         (" , ", "--centres needs at least one comma-separated entry, got ' , '")],
        ids=["word", "empty", "blanks_only"],
    )
    def test_bad_centre_list_fails_cleanly(self, tmp_path, features_csv, capsys, centres, message):
        out = tmp_path / "c"
        code = main(["sweep", "--features", str(features_csv), "--out", str(out),
                     "--centres", centres])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"config_error: {message}"]
        assert not out.exists()


#: Runs gen, extract --input and a tracer fallback, then prints whether
#: scipy.ndimage was loaded. argv[1] is a scratch folder.
EXTRACTING_PROCESS = """
import sys
import numpy as np
from handgeo import cli, contour
from handgeo.imaging import BinaryImage

root = sys.argv[1]
assert cli.main(["gen", "--out", root + "/tree", "--persons", "1", "--samples", "2"]) == 0
assert cli.main(["extract", "--input", root + "/tree", "--out", root + "/features.csv"]) == 0
bits = np.zeros((12, 12), dtype=np.uint8)
bits[4:10, 4:10] = 1
bits[5:9, 5:9] = 0
bits[1, 1] = 1  # a speck before the ring: the tracer finds component starts
calls = []
starts = contour._component_starts
contour._component_starts = lambda *a: calls.append(a) or starts(*a)
assert len(contour.trace_contour(BinaryImage(bits=bits))) == 20 and len(calls) == 1
print("scipy.ndimage" in sys.modules)
"""


def test_extracting_never_loads_scipy_ndimage(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(handgeo.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", EXTRACTING_PROCESS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


#: Runs eval --features, which trains mse and msereg networks, on one core, so
#: mlp_train runs in this interpreter, then prints the scipy modules loaded.
#: argv[1] is a features CSV and argv[2] a scratch folder.
TRAINING_PROCESS = """
import sys
from handgeo import classifiers, cli, parallel

parallel.cores = lambda: 1
calls = []
mlp_train = classifiers.mlp_train
classifiers.mlp_train = lambda *a: calls.append(a) or mlp_train(*a)
features, root = sys.argv[1], sys.argv[2]
small = ["--multistart", "2", "--hidden", "8"]
assert cli.main(["eval", "--features", features, "--out", root + "/report"] + small) == 0
assert calls
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_training_never_loads_scipy(tmp_path, features_csv):
    env = dict(os.environ, PYTHONPATH=str(Path(handgeo.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", TRAINING_PROCESS, str(features_csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
