"""Exception hierarchy. Every error carries a stable machine-parsable category."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class HandGeoError(Exception):
    """Base class; `category` is the stable identifier used by the CLI."""

    category = "error"


class FormatError(HandGeoError):
    """Unsupported or malformed input file."""

    category = "format_error"


class SizeError(HandGeoError):
    """Image dimensions outside the accepted range."""

    category = "size_error"


class ContourError(HandGeoError):
    """No closed contour loop could be traced."""

    category = "contour_error"


class LandmarkError(HandGeoError):
    """Fingertip/valley structure not found (defective acquisition)."""

    category = "landmark_error"


class ScalerError(HandGeoError):
    """Degenerate feature dimension while fitting the scaler."""

    category = "scaler_error"


class ConfigError(HandGeoError):
    """Invalid training or run configuration."""

    category = "config_error"


class TrainingError(HandGeoError):
    """Classifier training failed to produce a model."""

    category = "training_error"


class RenderError(HandGeoError):
    """Hand parameters cannot be rendered as a valid silhouette."""

    category = "render_error"


class CorpusError(HandGeoError):
    """Corpus generation exhausted its regeneration budget."""

    category = "corpus_error"


@contextmanager
def text_input(path: object, error: type[HandGeoError]) -> Iterator[None]:
    """Turn text read in the block that does not decode as UTF-8, or that the
    csv module cannot split, into one error of the reading loader's category,
    naming path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from None


def read_config(path: str | Path, error: type[HandGeoError]) -> dict[str, str]:
    """The key=value lines of a text file; text after '#' and blank lines are
    skipped, and any other line without '=' is an error of the given category
    naming path and line number."""
    out: dict[str, str] = {}
    with text_input(path, error):
        text = Path(path).read_text(encoding="utf-8")
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{path}:{ln}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out
