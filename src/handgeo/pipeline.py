"""One-call feature extraction from a grayscale hand image."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .contour import ChainCode, Landmarks, find_landmarks, trace_contour
from .errors import ConfigError
from .features import RawFeatures, measure, select
from .imaging import (
    DEFAULT_KERNEL_RADIUS,
    DEFAULT_THRESHOLD,
    MAX_KERNEL_RADIUS,
    BinaryImage,
    GrayImage,
    binarize,
    boundary_ring,
    lowpass_filter,
)


@dataclass(frozen=True)
class ExtractionSettings:
    threshold: float = DEFAULT_THRESHOLD
    kernel_radius: int = DEFAULT_KERNEL_RADIUS

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if not isinstance(self.kernel_radius, numbers.Integral):
            raise ConfigError(f"kernel_radius must be an integer, got {self.kernel_radius!r}")
        if not 0 <= self.kernel_radius <= MAX_KERNEL_RADIUS:
            raise ConfigError(
                f"kernel_radius must be in [0, {MAX_KERNEL_RADIUS}], got {self.kernel_radius}"
            )


@dataclass
class Extraction:
    """Everything the pipeline derives from one image."""

    raw: RawFeatures
    vector: np.ndarray  # the 9 selected features, unscaled
    landmarks: Landmarks
    chain: ChainCode
    silhouette: BinaryImage


def extract(img: GrayImage, settings: ExtractionSettings | None = None) -> Extraction:
    """Smooth, threshold, find edges, trace, locate landmarks, measure."""
    s = settings or ExtractionSettings()
    smoothed = lowpass_filter(img, s.kernel_radius)
    silhouette = binarize(smoothed, s.threshold)
    edges = boundary_ring(silhouette)
    chain = trace_contour(edges)
    landmarks = find_landmarks(chain)
    raw = measure(landmarks, chain, silhouette)
    return Extraction(
        raw=raw,
        vector=select(raw),
        landmarks=landmarks,
        chain=chain,
        silhouette=silhouette,
    )
