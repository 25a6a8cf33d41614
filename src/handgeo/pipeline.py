"""One-call feature extraction from a grayscale hand image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Landmarks, find_landmarks, trace_contour
from .errors import ConfigError
from .features import RawFeatures, measure, select
from .imaging import DEFAULT_KERNEL_RADIUS, DEFAULT_THRESHOLD, GrayImage, boundary_ring
from .imaging import check_kernel_radius, check_threshold, silhouette


@dataclass(frozen=True)
class ExtractionSettings:
    threshold: float = DEFAULT_THRESHOLD
    kernel_radius: int = DEFAULT_KERNEL_RADIUS

    def __post_init__(self) -> None:
        check_threshold(self.threshold, ConfigError)
        check_kernel_radius(self.kernel_radius, ConfigError)


@dataclass
class Extraction:
    """Everything the pipeline derives from one image."""

    raw: RawFeatures
    vector: np.ndarray  # the 9 selected features, unscaled
    landmarks: Landmarks


def extract(img: GrayImage, settings: ExtractionSettings | None = None) -> Extraction:
    """Smooth and threshold, find edges, trace, locate landmarks, measure."""
    s = settings or ExtractionSettings()
    mask = silhouette(img, s.kernel_radius, s.threshold)
    edges = boundary_ring(mask)
    chain = trace_contour(edges)
    landmarks = find_landmarks(chain)
    raw = measure(landmarks, chain, mask)
    return Extraction(raw=raw, vector=select(raw), landmarks=landmarks)
