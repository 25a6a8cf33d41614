"""Command-line interface for batch use of the hand-geometry toolkit.

Commands
--------
gen      draw a synthetic corpus and write it as a directory tree
extract  run the measurement pipeline on one BMP or a corpus tree -> CSV
eval     run the full identification protocol -> report
sweep    identification rate per RBF centre count -> curve CSV

Every flag mirrors a config-file key of the same name (hyphens become
underscores); ``--config FILE`` reads plain ``key=value`` lines and explicit
flags override the file.  A command refuses to run without its required
flags; it then builds its settings from its flags, so checks every flag,
before it reads any input.  On failure each command exits nonzero after
printing one ``category: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import NoReturn

from .classifiers import (
    DEFAULT_GAMMA,
    DEFAULT_HIDDEN,
    DEFAULT_MULTISTART,
    TrainConfig,
    check_hidden,
    check_spread,
)
from .errors import ConfigError, HandGeoError, read_config, typed_field
from .evaluation import (
    DEFAULT_RBF_CENTRES,
    DEFAULT_SWEEP_COUNTS,
    corpus_echo,
    emit_table,
    evaluate_features,
    extract_features,
    outside_split,
    sweep_rbf_features,
)
from .features import check_ids, load_features, save_features
from .imaging import DEFAULT_KERNEL_RADIUS, DEFAULT_THRESHOLD, load_bmp
from .pipeline import ExtractionSettings, extract
from .synthgen import DEFAULT_INTRA_SIGMA, DEFAULT_NOISE_LEVEL, DEFAULT_PERSONS, DEFAULT_SAMPLES
from .synthgen import (
    REFERENCE_DPI,
    CorpusSettings,
    load_person,
    load_settings,
    render_person,
    write_corpus,
)


#: key -> (cast from string, default, help); a REQUIRED default makes _merge
#: refuse a run without the key, and a None default leaves absence to the command.
REQUIRED = object()
_EXTRACTION: dict[str, tuple] = {
    "threshold": (float, DEFAULT_THRESHOLD, "binarization threshold"),
    "kernel_radius": (int, DEFAULT_KERNEL_RADIUS, "box-filter radius (0 disables)"),
}

_OPTIONS: dict[str, dict[str, tuple]] = {
    "gen": {
        "out": (Path, REQUIRED, "corpus output directory"),
        "seed": (int, 0, "master seed for the corpus draw"),
        "intra_sigma": (float, DEFAULT_INTRA_SIGMA, "relative within-person jitter"),
        "persons": (int, DEFAULT_PERSONS, "number of persons"),
        "samples": (int, DEFAULT_SAMPLES, "samples per person"),
        "noise_level": (float, DEFAULT_NOISE_LEVEL, "uniform pixel noise amplitude"),
        "dpi": (float, REFERENCE_DPI, "render resolution"),
    },
    "extract": {
        "input": (Path, REQUIRED, "BMP file or corpus directory"),
        "out": (Path, REQUIRED, "features CSV to write"),
        **_EXTRACTION,
        "person": (int, 0, "person id recorded for a single image"),
        "sample": (int, 0, "sample index recorded for a single image"),
    },
    "eval": {
        "corpus": (str, None, "corpus directory to evaluate"),
        "features": (str, None, "features CSV to evaluate"),
        "out": (Path, REQUIRED, "report output directory"),
        "seed": (int, 0, "first training seed"),
        "gamma": (float, DEFAULT_GAMMA, "msereg performance ratio"),
        "multistart": (int, DEFAULT_MULTISTART, "mlp random starts"),
        "hidden": (int, DEFAULT_HIDDEN, "mlp hidden units"),
        "centres": (int, DEFAULT_RBF_CENTRES, "rbf centre count"),
        "spread": (float, None, "rbf kernel width (default: median distance)"),
        **_EXTRACTION,
    },
    "sweep": {
        "corpus": (str, None, "corpus directory to evaluate"),
        "features": (str, None, "features CSV to evaluate"),
        "out": (Path, REQUIRED, "curve CSV to write"),
        "centres": (str, ",".join(map(str, DEFAULT_SWEEP_COUNTS)), "comma-separated counts"),
        "spread": (float, None, "rbf kernel width"),
        **_EXTRACTION,
    },
}

_HELP = {
    "gen": "generate a synthetic hand corpus",
    "extract": "extract features from a BMP image or corpus tree",
    "eval": "run the identification protocol and write report files",
    "sweep": "write the RBF centre-count/rate curve",
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one config_error line, not usage + exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handgeo", description="hand-geometry identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, (cast, _default, help_text) in options.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=cast, default=None, help=help_text)
    return parser


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every option in args: flag, else config-file value, else default;
    then a REQUIRED key left unset is one ConfigError."""
    options = _OPTIONS[args.command]
    from_file = read_config(args.config, ConfigError) if args.config else {}
    unknown = set(from_file) - set(options)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {args.command}: {', '.join(sorted(unknown))}"
        )
    for key, (cast, default, _help) in options.items():
        if getattr(args, key) is None:
            setattr(args, key, typed_field(args.config, from_file, key, cast, ConfigError)
                    if key in from_file else default)
    for key in options:
        if getattr(args, key) is REQUIRED:
            raise ConfigError(f"{args.command} needs --{key.replace('_', '-')}")
    return args


def _fields(cfg: argparse.Namespace, cls: type) -> dict[str, object]:
    """The command's values of the dataclass fields it has keys for."""
    return {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name in _OPTIONS[cfg.command]}


def _settings(cfg: argparse.Namespace) -> ExtractionSettings:
    return ExtractionSettings(**_fields(cfg, ExtractionSettings))


def _training(cfg: argparse.Namespace) -> TrainConfig:
    """eval's TrainConfig, after the hidden, spread and centre rules."""
    check_hidden(cfg.hidden)
    _centres(cfg)
    return TrainConfig(**_fields(cfg, TrainConfig))


def _centres(cfg: argparse.Namespace) -> tuple[int, ...]:
    """The positive --centres counts (one, or sweep's list), after the --spread rule."""
    if cfg.spread is not None:
        check_spread(cfg.spread)
    text = str(cfg.centres)
    items = [v.strip() for v in text.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"--centres needs at least one comma-separated entry, got {text!r}")
    try:
        counts = tuple(int(v) for v in items)
    except ValueError:
        raise ConfigError(f"centre list must be comma-separated integers: {text!r}") from None
    if any(k < 1 for k in counts):
        raise ConfigError(f"centre counts must be positive: {text!r}")
    return counts


def _extract_corpus(s: ExtractionSettings, root: str | Path) -> tuple[list, int, CorpusSettings]:
    """Entries of every extractable corpus image, the failure count, and the
    corpus settings; each failure is reported as one warning line on stderr.
    Each person's images are read, extracted and dropped before the next
    person's are read."""
    corpus = load_settings(root)
    rows = (load_person(root, corpus, p) for p in range(corpus.persons))
    entries, failures = extract_features(rows, s)
    for person, sample, message in failures:
        print(f"warning: person {person} sample {sample}: {message}", file=sys.stderr)
    return entries, len(failures), corpus


def _load_entries(cfg: argparse.Namespace, s: ExtractionSettings) -> tuple[list, int, dict]:
    """Feature entries for eval/sweep from --corpus or --features, plus the
    corpus metadata to echo in reports (empty for CSV input); rows the split
    leaves out are one warning line on stderr."""
    if (cfg.corpus is None) == (cfg.features is None):
        raise ConfigError(f"{cfg.command} needs exactly one of --corpus or --features")
    if cfg.corpus is not None:
        entries, failures, corpus = _extract_corpus(s, cfg.corpus)
        info = corpus_echo(corpus)
    else:
        entries, failures, info = load_features(cfg.features), 0, {}
    outside = outside_split(entries)
    if outside:
        p, j, _ = outside[0]
        print(f"warning: {len(outside)} rows fall outside the split and are neither trained on"
              f" nor tested, the first person {p} sample {j}", file=sys.stderr)
    return entries, failures, info


def cmd_gen(cfg: argparse.Namespace) -> int:
    """Render and write one person at a time, so memory does not grow with
    --persons; the settings are checked before the first render."""
    settings = CorpusSettings(cfg.seed, **_fields(cfg, CorpusSettings))
    write_corpus(cfg.out, settings, (render_person(settings, p) for p in range(settings.persons)))
    print(f"wrote {cfg.persons} persons x {cfg.samples} samples to {cfg.out}")
    return 0


def cmd_extract(cfg: argparse.Namespace) -> int:
    settings = _settings(cfg)
    check_ids(cfg.person, cfg.sample, ConfigError)
    if cfg.input.is_dir():
        entries, failures, _ = _extract_corpus(settings, cfg.input)
    else:
        vector = extract(load_bmp(cfg.input), settings).vector
        entries, failures = [(cfg.person, cfg.sample, vector)], 0
    save_features(cfg.out, entries)
    print(f"wrote {len(entries)} feature rows to {cfg.out} ({failures} failed)")
    return 0


def cmd_eval(cfg: argparse.Namespace) -> int:
    settings, train_cfg = _settings(cfg), _training(cfg)
    entries, exclusions, corpus_info = _load_entries(cfg, settings)
    report = evaluate_features(
        entries,
        train_cfg,
        exclusions=exclusions,
        extra_config=corpus_info,
        hidden=cfg.hidden,
        rbf_centres=cfg.centres,
        rbf_spread=cfg.spread,
    )
    text, csv_text = emit_table(report)
    cfg.out.mkdir(parents=True, exist_ok=True)
    (cfg.out / "report.txt").write_text(text, encoding="utf-8")
    (cfg.out / "report.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_sweep(cfg: argparse.Namespace) -> int:
    settings, counts = _settings(cfg), _centres(cfg)
    entries, _, _ = _load_entries(cfg, settings)
    curve = sweep_rbf_features(entries, centre_counts=counts, spread=cfg.spread)
    lines = ["centres,rate"] + [f"{k},{r:.17g}" for k, r in curve]
    cfg.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    best = max(curve, key=lambda kr: kr[1])
    print(f"wrote {len(curve)} sweep points to {cfg.out}; best {best[1]:.2f}% at {best[0]} centres")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "extract": cmd_extract,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _merge(_build_parser().parse_args(argv))
        return _COMMANDS[cfg.command](cfg)
    except HandGeoError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
