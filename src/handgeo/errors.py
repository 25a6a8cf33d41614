"""Exception hierarchy. Every error carries a stable machine-parsable category."""

from __future__ import annotations


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
