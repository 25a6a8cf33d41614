"""Command-line interface for batch use of the hand-geometry toolkit.

Commands
--------
gen      draw a synthetic corpus and write it as a directory tree
extract  run the measurement pipeline on one BMP or a corpus tree -> CSV
train    fit one classifier on samples 0-4 of a features CSV -> model file
eval     run the full identification protocol (or pre-trained models) -> report
sweep    identification rate per RBF centre count -> curve CSV

Every flag mirrors a config-file key of the same name (hyphens become
underscores); ``--config FILE`` reads plain ``key=value`` lines and explicit
flags override the file.  On failure each command exits nonzero after printing
one ``category: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .classifiers import (
    DEFAULT_GAMMA,
    DEFAULT_HIDDEN,
    DEFAULT_MULTISTART,
    MlpModel,
    RbfModel,
    TemplateDb,
    TrainConfig,
    check_metric,
    load_model,
    multistart_select,
    rbf_train,
    save_model,
    train_members,
)
from .errors import ConfigError, HandGeoError, read_config, typed_field
from .evaluation import (
    DEFAULT_RBF_CENTRES,
    DEFAULT_SWEEP_COUNTS,
    EvalReport,
    corpus_echo,
    echo_head,
    emit_table,
    enroll,
    evaluate_features,
    extract_features,
    score,
    sweep_rbf_features,
)
from .features import load_features, save_features
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

DEFAULT_SWEEP_CENTRES = ",".join(str(k) for k in DEFAULT_SWEEP_COUNTS)


#: key -> (cast from string, default, help); None default means "required
#: unless the command treats absence itself".
_EXTRACTION: dict[str, tuple] = {
    "threshold": (float, DEFAULT_THRESHOLD, "binarization threshold"),
    "kernel_radius": (int, DEFAULT_KERNEL_RADIUS, "box-filter radius (0 disables)"),
}

#: The training settings train and eval share.
_TRAINING: dict[str, tuple] = {
    "seed": (int, 0, "first training seed"),
    "gamma": (float, DEFAULT_GAMMA, "msereg performance ratio"),
    "multistart": (int, DEFAULT_MULTISTART, "mlp random starts"),
    "hidden": (int, DEFAULT_HIDDEN, "mlp hidden units"),
    "centres": (int, DEFAULT_RBF_CENTRES, "rbf centre count"),
    "spread": (float, None, "rbf kernel width (default: median distance)"),
}

_OPTIONS: dict[str, dict[str, tuple]] = {
    "gen": {
        "out": (str, None, "corpus output directory"),
        "seed": (int, 0, "master seed for the corpus draw"),
        "intra_sigma": (float, DEFAULT_INTRA_SIGMA, "relative within-person jitter"),
        "persons": (int, DEFAULT_PERSONS, "number of persons"),
        "samples": (int, DEFAULT_SAMPLES, "samples per person"),
        "noise_level": (float, DEFAULT_NOISE_LEVEL, "uniform pixel noise amplitude"),
        "dpi": (float, REFERENCE_DPI, "render resolution"),
    },
    "extract": {
        "input": (str, None, "BMP file or corpus directory"),
        "out": (str, None, "features CSV to write"),
        **_EXTRACTION,
        "person": (int, 0, "person id recorded for a single image"),
        "sample": (int, 0, "sample index recorded for a single image"),
    },
    "train": {
        "features": (str, None, "features CSV with person,sample columns"),
        "out": (str, None, "model file to write"),
        "kind": (str, "mlp", "classifier family: nn, mlp or rbf"),
        "loss": (str, "mse", "mlp loss: mse or msereg"),
        "epochs": (int, None, "mlp epochs (defaults per loss)"),
        **_TRAINING,
    },
    "eval": {
        "corpus": (str, None, "corpus directory to evaluate"),
        "features": (str, None, "features CSV to evaluate"),
        "out": (str, None, "report output directory"),
        "models": (str, None, "comma-separated model files to score instead"),
        "metric": (str, "mse", "distance for nn model files: mse or mad"),
        **_TRAINING,
        **_EXTRACTION,
    },
    "sweep": {
        "corpus": (str, None, "corpus directory to evaluate"),
        "features": (str, None, "features CSV to evaluate"),
        "out": (str, None, "curve CSV to write"),
        "centres": (str, DEFAULT_SWEEP_CENTRES, "comma-separated centre counts"),
        "spread": (float, None, "rbf kernel width"),
        **_EXTRACTION,
    },
}

_HELP = {
    "gen": "generate a synthetic hand corpus",
    "extract": "extract features from a BMP image or corpus tree",
    "train": "train one classifier on samples 0-4 of extracted features",
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
    """Fill every option in args: flag, else config-file value, else default."""
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
    return args


def _require(cfg: argparse.Namespace, key: str) -> object:
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"{cfg.command} needs --{key.replace('_', '-')}")
    return value


def _settings(cfg: argparse.Namespace) -> ExtractionSettings:
    return ExtractionSettings(**{key: getattr(cfg, key) for key in _EXTRACTION})


def _parse_centre_list(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"centre list must be comma-separated integers: {text!r}") from None
    if not counts or any(k < 1 for k in counts):
        raise ConfigError(f"centre counts must be positive: {text!r}")
    return counts


def _extract_corpus(
    cfg: argparse.Namespace, root: str | Path
) -> tuple[list, int, CorpusSettings]:
    """Entries of every extractable corpus image, the failure count, and the
    corpus settings; each failure is reported as one warning line on stderr.
    Each person's images are read, extracted and dropped before the next
    person's are read."""
    settings = load_settings(root)
    rows = (load_person(root, settings, p) for p in range(settings.persons))
    entries, failures = extract_features(rows, _settings(cfg))
    for person, sample, message in failures:
        print(f"warning: person {person} sample {sample}: {message}", file=sys.stderr)
    return entries, len(failures), settings


def _load_entries(cfg: argparse.Namespace) -> tuple[list, int, dict[str, str]]:
    """Feature entries for eval/sweep from --corpus or --features, plus the
    corpus metadata to echo in reports (empty for CSV input)."""
    if (cfg.corpus is None) == (cfg.features is None):
        raise ConfigError(f"{cfg.command} needs exactly one of --corpus or --features")
    if cfg.corpus is not None:
        entries, failures, settings = _extract_corpus(cfg, cfg.corpus)
        return entries, failures, corpus_echo(settings)
    return load_features(cfg.features), 0, {}


def cmd_gen(cfg: argparse.Namespace) -> int:
    """Render and write one person at a time, so memory does not grow with
    --persons; the settings are checked before the first render."""
    out = Path(str(_require(cfg, "out")))
    settings = CorpusSettings(
        master_seed=cfg.seed,
        intra_sigma=cfg.intra_sigma,
        noise_level=cfg.noise_level,
        dpi=cfg.dpi,
        persons=cfg.persons,
        samples=cfg.samples,
    )
    write_corpus(out, settings, (render_person(settings, p) for p in range(settings.persons)))
    print(f"wrote {cfg.persons} persons x {cfg.samples} samples to {out}")
    return 0


def cmd_extract(cfg: argparse.Namespace) -> int:
    source = Path(str(_require(cfg, "input")))
    out = Path(str(_require(cfg, "out")))
    if source.is_dir():
        entries, failures, _ = _extract_corpus(cfg, source)
    else:
        vector = extract(load_bmp(source), _settings(cfg)).vector
        entries, failures = [(cfg.person, cfg.sample, vector)], 0
    save_features(out, entries)
    print(f"wrote {len(entries)} feature rows to {out} ({failures} failed)")
    return 0


def cmd_train(cfg: argparse.Namespace) -> int:
    entries = load_features(str(_require(cfg, "features")))
    out = Path(str(_require(cfg, "out")))
    scaler, train_pairs = enroll(entries)

    if cfg.kind == "nn":
        model: TemplateDb | MlpModel | RbfModel = TemplateDb(entries=train_pairs)
    elif cfg.kind == "mlp":
        train_cfg = TrainConfig(
            loss=cfg.loss,
            epochs=cfg.epochs,
            gamma=cfg.gamma,
            multistart=cfg.multistart,
            seed=cfg.seed,
        )
        model = multistart_select(train_members(train_pairs, train_cfg, cfg.hidden), train_pairs)
    elif cfg.kind == "rbf":
        model = rbf_train(train_pairs, min(cfg.centres, len(train_pairs)), cfg.spread)
    else:
        raise ConfigError(f"unknown classifier kind {cfg.kind!r}; use nn, mlp or rbf")
    model.scaler = scaler
    save_model(model, out)
    print(f"wrote {cfg.kind} model trained on {len(train_pairs)} rows to {out}")
    return 0


def _input_widths(model: TemplateDb | MlpModel | RbfModel) -> set[int]:
    """Every feature-vector width the model's weights and scaler imply."""
    if isinstance(model, TemplateDb):
        widths = {len(v) for _, v in model.entries}
    else:
        widths = {(model.w1 if isinstance(model, MlpModel) else model.centres).shape[1]}
    if model.scaler is not None:
        widths |= {len(model.scaler.mins), len(model.scaler.maxs)}
    return widths


def _eval_models(
    cfg: argparse.Namespace, entries: list, exclusions: int, corpus_info: dict[str, str]
) -> EvalReport:
    """Score pre-trained model files on the test half of the split."""
    check_metric(cfg.metric)
    rates: dict[str, float] = {}
    for path_text in str(cfg.models).split(","):
        path = Path(path_text.strip())
        model = load_model(path)
        widths = _input_widths(model)
        if entries and widths != {len(entries[0][2])}:
            raise ConfigError(
                f"{path}: model takes {'/'.join(map(str, sorted(widths)))} features,"
                f" the input rows have {len(entries[0][2])}"
            )
        rates[f"model:{path.stem}"] = score(model, entries, model.scaler, cfg.metric)
    config = {**echo_head(corpus_info), "models": str(cfg.models), "metric": cfg.metric}
    return EvalReport.from_entries(entries, rates, exclusions, config)


def cmd_eval(cfg: argparse.Namespace) -> int:
    out = Path(str(_require(cfg, "out")))
    entries, exclusions, corpus_info = _load_entries(cfg)
    if cfg.models is not None:
        report = _eval_models(cfg, entries, exclusions, corpus_info)
    else:
        report = evaluate_features(
            entries,
            exclusions=exclusions,
            extra_config=corpus_info,
            train_seed=cfg.seed,
            gamma=cfg.gamma,
            multistart=cfg.multistart,
            hidden=cfg.hidden,
            rbf_centres=cfg.centres,
            rbf_spread=cfg.spread,
        )
    text, csv_text = emit_table(report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "report.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_sweep(cfg: argparse.Namespace) -> int:
    out = Path(str(_require(cfg, "out")))
    entries, _, _ = _load_entries(cfg)
    counts = _parse_centre_list(str(cfg.centres))
    curve = sweep_rbf_features(entries, centre_counts=counts, spread=cfg.spread)
    lines = ["centres,rate"] + [f"{k},{r:.17g}" for k, r in curve]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    best = max(curve, key=lambda kr: kr[1])
    print(f"wrote {len(curve)} sweep points to {out}; best {best[1]:.2f}% at {best[0]} centres")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "extract": cmd_extract,
    "train": cmd_train,
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
