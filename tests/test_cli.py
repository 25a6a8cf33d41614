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
from handgeo import pipeline, synthgen
from handgeo.cli import _OPTIONS, REQUIRED, main
from handgeo.classifiers import (
    MAX_HIDDEN,
    MlpModel,
    RbfModel,
    TemplateDb,
    load_model,
    save_model,
)
from handgeo.evaluation import (
    corpus_echo,
    emit_table,
    evaluate_all,
    evaluate_features,
    extract_features,
)
from handgeo.features import load_features, save_features
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

    def test_gen_peak_memory_does_not_grow_with_persons(self, tmp_path):
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
        ],
        ids=["no_command", "extract_sigma", "eval_sigma", "sweep_sigma", "threshold_abc", "persons_two"],
    )
    def test_bad_flag_is_one_config_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config_error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gen", "extract", "train", "eval", "sweep"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: handgeo {command}")

    @pytest.mark.parametrize(
        "command,line,message",
        [
            ("train", "epochs=ten", "key 'epochs': invalid literal for int() with base 10: 'ten'"),
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

    @pytest.mark.parametrize("command", ["extract", "eval", "sweep"])
    def test_sigma_in_a_config_file_is_an_unknown_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=1\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: unknown config key(s) for {command}: sigma"
        ]


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

        monkeypatch.setattr(pipeline, "lowpass_filter", no_filter)
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config_error: kernel_radius must be in [0, 25], got 20000"]
        assert not out.exists()


class TestTrain:
    @pytest.mark.parametrize(
        "kind,model_type",
        [("nn", TemplateDb), ("mlp", MlpModel), ("rbf", RbfModel)],
    )
    def test_each_kind_writes_a_loadable_model(
        self, tmp_path, features_csv, kind, model_type
    ):
        out = tmp_path / f"{kind}.model"
        code = main(
            [
                "train", "--features", str(features_csv), "--out", str(out),
                "--kind", kind, "--multistart", "2", "--hidden", "8",
                "--centres", "10",
            ]
        )
        assert code == 0
        model = load_model(out)
        assert isinstance(model, model_type)
        assert model.scaler is not None

    def test_an_rbf_model_records_the_centre_count_asked_for(self, tmp_path, features_csv):
        # 15 training rows: every one becomes a centre, and the file says
        # what was asked.
        out = tmp_path / "rbf.model"
        argv = ["train", "--features", str(features_csv), "--out", str(out), "--kind", "rbf"]
        assert main(argv + ["--centres", "500"]) == 0
        lines = out.read_text().splitlines()
        assert "requested 500" in lines and "centres 15" in lines

    def test_non_numeric_cell_is_a_format_error_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        save_features(path, [(p, j, np.full(9, p + j / 10)) for p in range(2) for j in range(3)])
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--features", str(path), "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"format_error: {path}:4: ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [["train", "--kind", "mlp"], ["eval"]])
    def test_non_finite_cell_is_a_format_error_with_its_line(
        self, tmp_path, features_csv, capsys, command, cell
    ):
        lines = features_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = cell
        lines[3] = ",".join(cells)
        features_csv.write_text("\n".join(lines) + "\n")
        code = main(command + ["--features", str(features_csv), "--out", str(tmp_path / "m")])
        assert code == 1
        column = lines[0].split(",")[4]
        assert capsys.readouterr().err.splitlines() == [
            f"format_error: {features_csv}:4: {column} is {float(cell)}, not a finite number"
        ]

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("hidden", [0, -3, MAX_HIDDEN + 1])
    def test_out_of_range_hidden_count_fails_cleanly(
        self, tmp_path, features_csv, capsys, command, hidden
    ):
        code = main(
            [command, "--features", str(features_csv), "--out", str(tmp_path / "m"),
             "--multistart", "1", "--hidden", str(hidden)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: hidden units must be in [1, {MAX_HIDDEN}], got {hidden}"
        ]

    def test_non_positive_spread_fails_cleanly(self, tmp_path, features_csv, capsys):
        code = main(
            ["train", "--features", str(features_csv), "--out", str(tmp_path / "m"),
             "--kind", "rbf", "--spread", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config_error: {SPREAD_ERROR}-1.0"]

    def test_unknown_kind_fails_cleanly(self, tmp_path, features_csv, capsys):
        code = main(
            ["train", "--features", str(features_csv), "--out", str(tmp_path / "m"),
             "--kind", "svm"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("config_error:")


    def test_negative_seed_is_one_config_error_line(self, tmp_path, features_csv, capsys):
        out = tmp_path / "mlp.model"
        assert main(["train", "--features", str(features_csv), "--out", str(out),
                     "--kind", "mlp", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["config_error: seed must be >= 0, got -1"]
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


@pytest.mark.parametrize(
    "argv", [["train", "--kind", "nn", "--out", "@nn.model"], ["eval", "--out", "@report"]]
)
def test_an_overflowing_feature_range_is_one_scaler_error_line(
    tmp_path, features_csv, capsys, argv
):
    csv_path = overflowing_features(features_csv)
    assert main(in_dir(tmp_path, argv) + ["--features", str(csv_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaler_error: dimension 3: range -1e+308 to 1e+308 is too wide to scale"
    ]
    assert not (tmp_path / argv[-1][1:]).exists()


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

    def test_pretrained_models_are_scored_by_file_stem(
        self, tmp_path, features_csv, capsys
    ):
        model = tmp_path / "nearest.model"
        main(["train", "--features", str(features_csv), "--out", str(model),
              "--kind", "nn"])
        out = tmp_path / "report"
        code = main(
            ["eval", "--features", str(features_csv), "--out", str(out),
             "--models", str(model)]
        )
        assert code == 0
        assert "model:nearest" in (out / "report.txt").read_text()

    def test_an_unknown_metric_fails_before_an_mlp_model_is_scored(
        self, tmp_path, features_csv, capsys
    ):
        model = tmp_path / "mlp.model"
        assert main(["train", "--features", str(features_csv), "--out", str(model),
                     "--multistart", "1", "--hidden", "4"]) == 0
        capsys.readouterr()
        code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                     "--models", str(model), "--metric", "bogus"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "config_error: unknown metric 'bogus'; use 'mse' or 'mad'"
        ]
        assert not (tmp_path / "r").exists()

    def test_model_file_missing_fields_fails_cleanly(self, tmp_path, features_csv, capsys):
        model = tmp_path / "stub.model"
        model.write_text("handgeo-model 1\ntype mlp\n")
        code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                     "--models", str(model)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config_error: {model}: ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind,field", [("mlp", "w1"), ("rbf", "spread"), ("nn", "template")])
    def test_non_finite_model_number_is_a_config_error_naming_its_field(
        self, tmp_path, features_csv, capsys, kind, field, cell
    ):
        model = tmp_path / f"{kind}.model"
        main(["train", "--features", str(features_csv), "--out", str(model), "--kind", kind,
              "--multistart", "1", "--hidden", "4", "--centres", "5"])
        lines = model.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{field} "))
        lines[row] = lines[row].rsplit(" ", 1)[0] + f" {cell}"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                     "--models", str(model)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: {model}: key {field!r}: {float(cell)} is not a finite number"
        ]

    @pytest.mark.parametrize(
        "kind,field,value",
        [("mlp", "hidden", "-1"), ("mlp", "inputs", "0"), ("rbf", "centres", "-1"),
         ("rbf", "inputs", "0")],
    )
    def test_non_positive_model_count_is_a_config_error_naming_its_field(
        self, tmp_path, features_csv, capsys, kind, field, value
    ):
        model = tmp_path / f"{kind}.model"
        main(["train", "--features", str(features_csv), "--out", str(model), "--kind", kind,
              "--multistart", "1", "--hidden", "2", "--centres", "2"])
        lines = model.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{field} "))
        lines[row] = f"{field} {value}"
        if field == "hidden":  # b1 of another length: reshape(-1) alone would accept it
            b1 = next(i for i, line in enumerate(lines) if line.startswith("b1 "))
            lines[b1] += " 0.5"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                     "--models", str(model)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: {model}: key {field!r}: {value} is not a positive count"
        ]

    @pytest.mark.parametrize(
        "field,value,message",
        [("epochs", "0", "epochs must be >= 1, got 0"),
         ("multistart", "0", "multistart count must be >= 1, got 0"),
         ("gamma", "1.5", "gamma 1.5 outside [0, 1]"),
         ("loss", "mae", "unknown loss 'mae'; use 'mse' or 'msereg'"),
         ("seed", "-1", "seed must be >= 0, got -1")],
    )
    def test_bad_training_config_is_a_config_error_naming_its_field(
        self, tmp_path, features_csv, capsys, field, value, message
    ):
        model = edited_model(tmp_path, features_csv, "mlp", field, lambda fields: value)
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key {field!r}: {message}"
        ]

    @pytest.mark.parametrize(
        "kind,field,edit,message",
        [("rbf", "spread", lambda fields: "0", f"{SPREAD_ERROR}0.0"),
         ("rbf", "spread", lambda fields: "-2", f"{SPREAD_ERROR}-2.0"),
         ("nn", "scaler_max", lambda fields: fields["scaler_max"].rsplit(" ", 1)[0],
          "8 values for 9 in scaler_min"),
         ("mlp", "scaler_max", lambda fields: fields["scaler_min"],
          "dimension 0: max {0} is not above min {0}"),
         ("nn", "scaler_max", lambda fields: " ".join(["9"] + ["-9"] * 8),
          "dimension 1: max -9.0 is not above min {1}"),
         ("nn", "scaler_max", lambda fields: " ".join(["1e308"] * 9),
          "dimension 0: range {0} to 1e+308 is too wide to scale")],
        ids=["zero_spread", "negative_spread", "short_scaler", "flat_dimension",
             "inverted_dimension", "too_wide_dimension"],
    )
    def test_a_degenerate_spread_or_scaler_is_a_config_error_naming_its_field(
        self, tmp_path, features_csv, capsys, kind, field, edit, message
    ):
        model = edited_model(tmp_path, features_csv, kind, field, edit)
        fields = dict(line.split(" ", 1) for line in model.read_text().splitlines())
        mins = [float(v) for v in fields["scaler_min"].split()]
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key {field!r}: {message.format(*mins)}"
        ]

    def test_model_of_another_feature_width_fails_cleanly(
        self, tmp_path, features_csv, capsys
    ):
        model = tmp_path / "nine.model"
        main(["train", "--features", str(features_csv), "--out", str(model), "--kind", "nn"])
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("\n".join(
            ",".join(line.split(",")[:4]) for line in features_csv.read_text().splitlines()
        ) + "\n")
        capsys.readouterr()
        code = main(["eval", "--features", str(narrow), "--out", str(tmp_path / "r"),
                     "--models", str(model)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config_error: {model}: ")

    def test_requiring_exactly_one_input_source(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path / "r")]) == 1
        assert "exactly one" in capsys.readouterr().err


    def test_a_model_list_drops_blanks(self, tmp_path, features_csv, capsys):
        model = tmp_path / "nearest.model"
        assert main(["train", "--features", str(features_csv), "--out", str(model),
                     "--kind", "nn"]) == 0
        out = tmp_path / "r"
        assert main(["eval", "--features", str(features_csv), "--out", str(out),
                     "--models", f"{model}, ,"]) == 0
        assert "rate_model:nearest," in (out / "report.csv").read_text()

    @pytest.mark.parametrize("models", ["", " , "])
    def test_a_model_list_without_an_entry_is_one_config_error_line(
        self, tmp_path, features_csv, capsys, models
    ):
        out = tmp_path / "r"
        assert main(["eval", "--features", str(features_csv), "--out", str(out),
                     "--models", models]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: --models needs at least one comma-separated entry, got {models!r}"
        ]
        assert not out.exists()

    def test_two_model_files_with_one_stem_are_refused_before_any_input(
        self, tmp_path, features_csv, capsys, monkeypatch
    ):
        # Each stem names one report row, so the second rate would replace the first.
        model = tmp_path / "nearest.model"
        assert main(["train", "--features", str(features_csv), "--out", str(model),
                     "--kind", "nn"]) == 0
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        first, second = tmp_path / "d1" / "x.model", tmp_path / "d2" / "x.model"
        shutil.copy(model, first)
        shutil.copy(model, second)
        forbid_input(monkeypatch)
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["eval", "--features", str(features_csv), "--out", str(out),
                     "--models", f"{first},{second}"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: --models {first} and {second} share the stem 'x',"
            " which names one report row"
        ]
        assert not out.exists()

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
    "loss": "mae",
    "epochs": "0",
    "kind": "svm",
    "metric": "bogus",
    "models": ",",
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
    "train": [["--features", "@f.csv", "--kind", kind] for kind in ("nn", "mlp", "rbf")],
    "eval": [
        [*source, *models]
        for source in (["--corpus", "@corpus"], ["--features", "@f.csv"])
        for models in ([], ["--models", "@m.model"])
    ],
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

    for name in ("load_features", "load_settings", "load_bmp", "load_model"):
        monkeypatch.setattr(f"handgeo.cli.{name}", read)


#: The (command, key) pairs no run of the command goes without.
REQUIRED_KEYS = {
    ("gen", "out"),
    ("extract", "input"),
    ("extract", "out"),
    ("train", "features"),
    ("train", "out"),
    ("eval", "out"),
    ("sweep", "out"),
}


class TestFlagMatrix:
    """Every flag a command takes is checked before it reads any input,
    whichever input, kind or mode it uses."""

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


class TestExtremeSpread:
    """A finite spread whose 2 * spread**2 overflows or is zero is one
    config_error line from every entry point; a narrow spread that still
    scores trains without a warning."""

    @pytest.mark.parametrize("spread", ["1e155", "1e300", "1e-200"])
    @pytest.mark.parametrize("command", [["train", "--kind", "rbf"], ["eval"], ["sweep"]])
    def test_a_spread_flag(self, tmp_path, features_csv, capsys, command, spread):
        argv = command + ["--features", str(features_csv), "--out", str(tmp_path / "o")]
        assert main(argv + ["--spread", spread]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config_error: {SPREAD_ERROR}{float(spread)}"
        ]

    @pytest.mark.parametrize("spread", ["1e155", "1e300", "1e-200"])
    def test_a_model_file_spread(self, tmp_path, features_csv, capsys, spread):
        model = edited_model(tmp_path, features_csv, "rbf", "spread", lambda fields: spread)
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key 'spread': {SPREAD_ERROR}{float(spread)}"
        ]

    @pytest.mark.parametrize("spread", ["2e-155", "1e150"])
    def test_a_spread_just_inside_the_range_trains_and_scores(
        self, tmp_path, features_csv, capsys, spread
    ):
        # At 2e-155 the kernel's exponent overflows to -inf for most pairs.
        model = tmp_path / "rbf.model"
        assert main(["train", "--kind", "rbf", "--features", str(features_csv),
                     "--out", str(model), "--spread", spread]) == 0
        assert main(["eval", "--features", str(features_csv), "--models", str(model),
                     "--out", str(tmp_path / "r")]) == 0


def edited_model(tmp_path, features_csv, kind, field, edit):
    """A small model file of kind whose field line is replaced by
    edit(fields), fields being the file's {key: value text}."""
    model = tmp_path / f"{kind}.model"
    assert main(["train", "--features", str(features_csv), "--out", str(model), "--kind", kind,
                 "--multistart", "1", "--hidden", "2", "--centres", "2"]) == 0
    return edit_model(model, {field: edit})


def edit_model(model, edits):
    """model with the first line of each field in edits replaced by
    edit(fields), fields being the file's {key: value text}, or dropped
    where edit returns None."""
    lines = model.read_text().splitlines()
    fields = dict(line.split(" ", 1) for line in lines[1:] if not line.startswith("template "))
    for field, edit in edits.items():
        row = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == field)
        value = edit(fields)
        lines[row : row + 1] = [] if value is None else [f"{field} {value}"]
    model.write_text("\n".join(lines) + "\n")
    return model


class TestModelFileKeys:
    """Every key of a model file is read and checked like every other: a
    value out of its range is one config_error line naming the file and the
    key, never a traceback or a silently different model."""

    @pytest.mark.parametrize("kind", ["nn", "mlp", "rbf"])
    @pytest.mark.parametrize(
        "edit,message",
        [(lambda fields: None, "missing key 'scaler'"),
         (lambda fields: "yes", "key 'scaler': 'yes' is not 0 or 1")],
        ids=["missing", "yes"],
    )
    def test_a_scaler_flag_other_than_0_or_1(
        self, tmp_path, features_csv, capsys, kind, edit, message
    ):
        model = edited_model(tmp_path, features_csv, kind, "scaler", edit)
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: {message}"
        ]

    @pytest.mark.parametrize("kind,weights", [("mlp", ["w2", "b2"]), ("rbf", ["weights"])])
    def test_no_person_ids(self, tmp_path, features_csv, capsys, kind, weights):
        model = edited_model(tmp_path, features_csv, kind, "person_ids", lambda fields: "")
        edit_model(model, {key: lambda fields: "" for key in weights})
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key 'person_ids': no person ids"
        ]

    def test_a_non_positive_requested_centre_count(self, tmp_path, features_csv, capsys):
        model = edited_model(tmp_path, features_csv, "rbf", "requested", lambda fields: "-5")
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key 'requested': -5 is not a positive count"
        ]

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda fields: None, "missing key 'entries'"),
         (lambda fields: "7", "key 'entries': 7 entries but 15 template lines"),
         (lambda fields: "0", "key 'entries': 0 is not a positive count")],
        ids=["missing", "seven", "zero"],
    )
    def test_an_nn_entries_count_other_than_the_template_lines(
        self, tmp_path, features_csv, capsys, edit, message
    ):
        model = edited_model(tmp_path, features_csv, "nn", "entries", edit)
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: {message}"
        ]

    def test_a_negative_template_person(self, tmp_path, features_csv, capsys):
        model = edited_model(tmp_path, features_csv, "nn", "template",
                             lambda fields: "-1 " + " ".join(["0.5"] * 9))
        assert eval_model(tmp_path, features_csv, capsys, model) == [
            f"config_error: {model}: key 'template': person -1: ids must be non-negative"
        ]


def eval_model(tmp_path, features_csv, capsys, model):
    """stderr lines of an eval that scores model, after asserting it exits 1."""
    capsys.readouterr()
    code = main(["eval", "--features", str(features_csv), "--out", str(tmp_path / "r"),
                 "--models", str(model)])
    assert code == 1
    return capsys.readouterr().err.splitlines()


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
            ("features.csv", ["train", "--features", "@features.csv"], "format_error"),
            ("features.csv", ["eval", "--features", "@features.csv"], "format_error"),
            ("nn.model", ["eval", "--features", "@features.csv", "--models", "@nn.model"],
             "config_error"),
            ("run.cfg", ["gen", "--config", "@run.cfg"], "config_error"),
            ("corpus/corpus_config.txt", ["extract", "--input", "@corpus"], "corpus_error"),
        ],
        ids=["train_features", "eval_features", "model", "config", "corpus_config"],
    )
    def test_a_non_utf8_byte_is_one_error_line_naming_the_file(
        self, tmp_path, features_csv, tiny_corpus, capsys, damaged, argv, category
    ):
        # features_csv lives in tmp_path as features.csv.
        shutil.copytree(tiny_corpus, tmp_path / "corpus")
        assert main(["train", "--features", str(features_csv), "--kind", "nn",
                     "--out", str(tmp_path / "nn.model")]) == 0
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
        assert main(["train", "--features", str(path), "--out", str(tmp_path / "m")]) == 1
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
    "features.csv": [
        ["train", "--kind", "nn", "--features", "@features.csv"],
        ["eval", "--features", "@features.csv", "--models", "@nn.model"],
    ],
    "nn.model": [["eval", "--features", "@features.csv", "--models", "@nn.model"]],
    "mlp.model": [["eval", "--features", "@features.csv", "--models", "@mlp.model"]],
    "rbf.model": [["eval", "--features", "@features.csv", "--models", "@rbf.model"]],
    "extract.cfg": [
        ["extract", "--config", "@extract.cfg", "--input", "@corpus/person_00/sample_00.bmp"]
    ],
}


@pytest.fixture(scope="module")
def clean_inputs(tiny_corpus):
    """Bytes of every fuzzed file: the tiny corpus, a features CSV of its one
    vector and two multiples of it as two training samples and a test sample,
    an nn, an mlp and an rbf model trained on it, and an extract config."""
    vector = pipeline.extract(load_bmp(tiny_corpus / "person_00" / "sample_00.bmp")).vector
    work = tiny_corpus.parent
    save_features(
        work / "features.csv", [(0, 0, vector), (0, 1, 1.05 * vector), (0, 5, 1.1 * vector)]
    )
    for kind in ("nn", "mlp", "rbf"):
        assert main(["train", "--kind", kind, "--features", str(work / "features.csv"),
                     "--multistart", "1", "--epochs", "1", "--out", str(work / f"{kind}.model")]) == 0
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


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A work directory holding features.csv and the nn, mlp and rbf model
    files train writes for it."""
    work = tmp_path_factory.mktemp("models")
    write_features(work / "features.csv")
    for kind in ("nn", "mlp", "rbf"):
        assert main(["train", "--features", str(work / "features.csv"), "--kind", kind,
                     "--out", str(work / f"{kind}.model"), "--multistart", "1",
                     "--hidden", "2", "--centres", "2"]) == 0
    return work


class TestDamagedModelFiles:
    """Each key line of each kind of model file train writes, dropped or set
    to a blank, zero, negative or non-numeric value: eval --models exits 0
    or prints one config_error line naming the file; never a traceback."""

    @pytest.mark.parametrize("kind", ["nn", "mlp", "rbf"])
    def test_a_trained_model_file_re_saves_byte_for_byte(self, tmp_path, trained_models, kind):
        model = trained_models / f"{kind}.model"
        save_model(load_model(model), tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == model.read_bytes()

    @pytest.mark.parametrize("value", [None, "", "0", "-1", "ten"],
                             ids=["dropped", "blank", "zero", "negative", "word"])
    @pytest.mark.parametrize("kind", ["nn", "mlp", "rbf"])
    def test_a_damaged_key_line_is_exit_0_or_one_config_error_line(
        self, tmp_path, trained_models, capsys, kind, value
    ):
        clean = (trained_models / f"{kind}.model").read_text()
        model = tmp_path / f"{kind}.model"
        for key in dict.fromkeys(line.split(" ", 1)[0] for line in clean.splitlines()):
            model.write_text(clean)
            edit_model(model, {key: lambda fields: value})
            capsys.readouterr()
            code = main(["eval", "--features", str(trained_models / "features.csv"),
                         "--models", str(model), "--out", str(tmp_path / "r")])
            err = capsys.readouterr().err.splitlines()
            if code != 0:
                assert code == 1 and len(err) == 1, (key, err)
                assert err[0].startswith(f"config_error: {model}: "), (key, err)


class TestOneProtocol:
    """eval, sweep, evaluate_features, train and eval --models run the same split
    and trial accounting."""

    def test_train_then_eval_models_reproduces_the_eval_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        centres = rng.uniform(-1, 1, size=(5, 9))
        features = tmp_path / "features.csv"
        save_features(features, [
            (p, j, centres[p] + rng.normal(0, 0.5, 9)) for p in range(5) for j in range(10)
        ])
        shared = ["--features", str(features), "--seed", "3", "--multistart", "2",
                  "--hidden", "8", "--centres", "10"]
        assert main(["eval", *shared, "--out", str(tmp_path / "eval")]) == 0
        want = read_report_csv(tmp_path / "eval")
        kinds = {
            "nn_mse": (["--kind", "nn"], "mse"),
            "nn_mad": (["--kind", "nn"], "mad"),
            "mlp_mse": (["--kind", "mlp", "--loss", "mse"], "mse"),
            "mlp_msereg": (["--kind", "mlp", "--loss", "msereg"], "mse"),
            "rbf": (["--kind", "rbf"], "mse"),
        }
        # Clusters this wide leave every row short of 100%, where a model
        # scored on its own training samples would reach it.
        assert all(float(want[f"rate_{key}"]) < 100 for key in kinds)
        for key, (kind, metric) in kinds.items():
            model = tmp_path / f"{key}.model"
            assert main(["train", *shared, *kind, "--out", str(model)]) == 0
            out = tmp_path / key
            assert main(["eval", "--features", str(features), "--models", str(model),
                         "--metric", metric, "--out", str(out)]) == 0
            assert read_report_csv(out)[f"rate_model:{key}"] == want[f"rate_{key}"]

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
        "command", [["train", "--kind", "nn"], ["eval", "--multistart", "1", "--hidden", "4"],
                    ["sweep", "--centres", "5"]],
        ids=["train", "eval", "sweep"],
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

    def test_eval_models_echoes_the_corpus_and_split_like_eval(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        features = tmp_path / "features.csv"
        model = tmp_path / "nn.model"
        assert main(["gen", "--out", str(corpus), "--persons", "3"]) == 0
        assert main(["extract", "--input", str(corpus), "--out", str(features)]) == 0
        assert main(["train", "--features", str(features), "--kind", "nn",
                     "--out", str(model)]) == 0
        assert main(["eval", "--corpus", str(corpus), "--out", str(tmp_path / "eval"),
                     "--multistart", "1", "--hidden", "4", "--centres", "5"]) == 0
        for flag, source in (("--corpus", corpus), ("--features", features)):
            assert main(["eval", flag, str(source), "--models", str(model),
                         "--out", str(tmp_path / f"{source.stem}_models")]) == 0

        def config(out):
            rows = list(read_report_csv(out).items())
            return rows[[key for key, _ in rows].index("exclusions") + 1:]

        head = config(tmp_path / "eval")[:7]
        assert [key for key, _ in head] == [
            "corpus_seed", "intra_sigma", "noise_level", "persons", "samples_per_person",
            "train_indices", "test_indices",
        ]
        tail = [("models", str(model)), ("metric", "mse")]
        assert config(tmp_path / "corpus_models") == head + tail
        assert config(tmp_path / "features_models") == head[5:] + tail

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
    def test_curve_csv_lists_one_rate_per_count(self, tmp_path, features_csv):
        out = tmp_path / "curve.csv"
        code = main(
            ["sweep", "--features", str(features_csv), "--out", str(out),
             "--centres", "2,5,10"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "centres,rate"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 5, 10]

    def test_bad_centre_list_fails_cleanly(self, tmp_path, features_csv, capsys):
        code = main(
            ["sweep", "--features", str(features_csv), "--out", str(tmp_path / "c"),
             "--centres", "five"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("config_error:")


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
bits[1, 1] = 1  # a speck before the ring: the tracer labels components
calls = []
components = contour._components
contour._components = lambda *a: calls.append(a) or components(*a)
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


#: Runs train --kind mlp --loss msereg and eval --features on one core, so
#: mlp_train runs in this interpreter, then prints the scipy modules loaded.
#: argv[1] is a features CSV and argv[2] a scratch folder.
TRAINING_PROCESS = """
import sys
from handgeo import classifiers, cli

classifiers._cores = lambda: 1
calls = []
mlp_train = classifiers.mlp_train
classifiers.mlp_train = lambda *a: calls.append(a) or mlp_train(*a)
features, root = sys.argv[1], sys.argv[2]
small = ["--multistart", "2", "--hidden", "8"]
assert cli.main(["train", "--features", features, "--out", root + "/mlp.model",
                 "--kind", "mlp", "--loss", "msereg"] + small) == 0
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
