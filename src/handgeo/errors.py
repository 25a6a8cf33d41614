"""Exception hierarchy. Every error carries a stable machine-parsable category."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

T = TypeVar("T")


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
    skipped. Any other line without '=', with an empty key or with a key an
    earlier line set is an error of the given category naming path and line
    number."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    with text_input(path, error):
        text = Path(path).read_text(encoding="utf-8")
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise error(f"{path}:{ln}: expected key=value, got {raw!r}")
        if not key:
            raise error(f"{path}:{ln}: empty key in {raw!r}")
        if key in lines:
            raise error(f"{path}:{ln}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = value, ln
    return out


def typed_field(
    path: object,
    fields: Mapping[str, str],
    key: str,
    cast: Callable[[str], T],
    error: type[HandGeoError],
) -> T:
    """cast of the value of key in fields, the key=value text read from
    path; a missing key, or a value cast rejects with ValueError or a
    HandGeoError, is one error of the given category naming path and key."""
    if key not in fields:
        raise error(f"{path}: missing key {key!r}")
    try:
        return cast(fields[key])
    except (ValueError, HandGeoError) as exc:
        raise error(f"{path}: key {key!r}: {exc}") from None
