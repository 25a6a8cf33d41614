"""Hand measurements, feature selection, and [-1, 1] scaling.

Thirteen measurements are taken from the landmarks, chain, and silhouette;
nine survive selection (thumb length, wrist length, thumb base width, and
surface are dropped). All distances are converted to millimetres through
the image dpi so features are resolution independent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .contour import ChainCode, Landmarks, perimeter
from .errors import FormatError, ScalerError, text_input
from .imaging import MM_PER_INCH, BinaryImage

@dataclass
class RawFeatures:
    """The 13 measurements, lengths/widths in mm, surface in mm^2."""

    thumb_length: float
    first_length: float
    middle_length: float
    ring_length: float
    little_length: float
    wrist_length: float
    thumb_base_width: float
    first_width: float
    middle_width: float
    ring_width: float
    little_width: float
    perimeter: float
    surface: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


FEATURE_NAMES = tuple(f.name for f in fields(RawFeatures))
#: Positions kept by select(), 0-based into FEATURE_NAMES.
SELECTED_INDICES = (1, 2, 3, 4, 7, 8, 9, 10, 11)
SELECTED_NAMES = tuple(FEATURE_NAMES[i] for i in SELECTED_INDICES)
#: The features CSV's header row.
_HEADER = ("person", "sample") + SELECTED_NAMES


Point = tuple[int, int]


def base_segments(
    tips: list[Point], valleys: list[Point], wrist: tuple[Point, Point]
) -> list[tuple[Point, Point]]:
    """Base segment per finger, thumb to little.

    Interior fingers span their two flanking valleys; the thumb and little
    finger pair their single adjacent valley with the wrist endpoint
    nearest their tip.
    """

    def nearest_wrist(tip: Point) -> Point:
        return min(wrist, key=lambda e: (tip[0] - e[0]) ** 2 + (tip[1] - e[1]) ** 2)

    segments = [(nearest_wrist(tips[0]), valleys[0])]
    for f in range(1, 4):
        segments.append((valleys[f - 1], valleys[f]))
    segments.append((valleys[3], nearest_wrist(tips[4])))
    return segments


def measure(landmarks: Landmarks, chain: ChainCode, silhouette: BinaryImage) -> RawFeatures:
    """The 13 measurements from detected landmarks.

    Finger length is the distance from the tip to the midpoint of its base
    segment; finger width is the base segment's own length.
    """
    mm = MM_PER_INCH / silhouette.dpi
    segments = base_segments(landmarks.tips, landmarks.valleys, landmarks.wrist)
    lengths = []
    widths = []
    for tip, (a, b) in zip(landmarks.tips, segments):
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        lengths.append(math.hypot(tip[0] - mid[0], tip[1] - mid[1]) * mm)
        widths.append(math.hypot(a[0] - b[0], a[1] - b[1]) * mm)
    wl, wr = landmarks.wrist
    return RawFeatures(
        thumb_length=lengths[0],
        first_length=lengths[1],
        middle_length=lengths[2],
        ring_length=lengths[3],
        little_length=lengths[4],
        wrist_length=math.hypot(wl[0] - wr[0], wl[1] - wr[1]) * mm,
        thumb_base_width=widths[0],
        first_width=widths[1],
        middle_width=widths[2],
        ring_width=widths[3],
        little_width=widths[4],
        perimeter=perimeter(chain) * mm,
        surface=np.count_nonzero(silhouette.bits) * mm * mm,
    )


def select(raw: RawFeatures) -> np.ndarray:
    """The 9 retained features as an ordered vector."""
    return raw.as_array()[list(SELECTED_INDICES)]


@dataclass
class ScalerParams:
    """Per-dimension training min/max; immutable once fitted."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(training: np.ndarray) -> ScalerParams:
    """Record per-dimension min/max over training rows."""
    vectors = np.asarray(training, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ScalerError("scaler needs at least 2 training vectors")
    mins = vectors.min(axis=0)
    maxs = vectors.max(axis=0)
    check_span(mins, maxs)
    return ScalerParams(mins=mins, maxs=maxs)


def check_span(mins: np.ndarray, maxs: np.ndarray) -> None:
    """ScalerError naming the first dimension whose range apply_scaler cannot
    scale: max is not above min, or 2 * (max - min) overflows, so its values
    would turn into nan or clip to +1."""
    for d in np.flatnonzero(~(maxs > mins)):
        raise ScalerError(f"dimension {d}: max {maxs[d]} is not above min {mins[d]}")
    with np.errstate(over="ignore"):
        spans = 2.0 * (maxs - mins)
    for d in np.flatnonzero(~np.isfinite(spans)):
        raise ScalerError(f"dimension {d}: range {mins[d]} to {maxs[d]} is too wide to scale")


def check_ids(person: int, sample: int, error: type[Exception]) -> None:
    """error unless person and sample are ids a features row can hold."""
    if person < 0 or sample < 0:
        raise error(f"person {person} sample {sample}: ids must be non-negative")


def apply_scaler(params: ScalerParams, v: np.ndarray) -> np.ndarray:
    """Map to [-1, 1]: training min to -1, max to +1, out-of-range clipped.
    A value so far out that the formula overflows clips like any other."""
    x = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        scaled = 2.0 * (x - params.mins) / (params.maxs - params.mins) - 1.0
    return np.clip(scaled, -1.0, 1.0)


def save_features(path: str | Path, entries: list[tuple[int, int, np.ndarray]]) -> None:
    """CSV with person-id and sample-index first, then the 9 features."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for person, sample, vector in entries:
            writer.writerow([person, sample] + [f"{v:.17g}" for v in vector])


def load_features(path: str | Path) -> list[tuple[int, int, np.ndarray]]:
    """Inverse of save_features; a file with rows under another header, a
    short row, a cell that is not a finite number, a negative id or a
    repeated (person, sample) key is a FormatError."""
    with text_input(path, FormatError), open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    if rows and tuple(header) != _HEADER:
        raise FormatError(f"{path}:1: the header is not {','.join(_HEADER)}")
    entries = []
    lines: dict[tuple[int, int], int] = {}  # (person, sample) -> line number
    for ln, row in enumerate(rows, 2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, the header has {len(header)}")
            values = [float(v) for v in row[2:]]
            if not all(map(math.isfinite, values)):
                k = next(k for k, v in enumerate(values) if not math.isfinite(v))
                raise ValueError(f"{header[k + 2]} is {values[k]}, not a finite number")
            key = (int(row[0]), int(row[1]))
            check_ids(*key, ValueError)
            if key in lines:
                raise ValueError(f"person {key[0]} sample {key[1]} repeats line {lines[key]}")
            lines[key] = ln
            entries.append((*key, np.array(values)))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from None
    return entries
