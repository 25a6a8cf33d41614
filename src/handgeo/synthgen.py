"""Parametric hand silhouettes with exact ground truth.

The hand is a rounded-rectangle palm with five capsule fingers mounted on
its flat top edge and an arm stump cut off horizontally below. All shapes
are continuous, and each canvas row cuts each shape in one closed interval;
a pixel is foreground when its integer centre lies inside or on the union.
Ground-truth landmarks are the pixels an ideal boundary walk would report,
read from the same row cuts, so detector output can be compared against
them at pixel resolution.

Dimension parameters are in reference pixels at 100 dpi; rendering at
another dpi scales the whole figure, leaving mm-valued truth unchanged up
to quantization.
"""

from __future__ import annotations

import csv
import math
import re
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import Landmarks, trace_contour
from .errors import CorpusError, HandGeoError, RenderError, read_config, typed_field
from .features import FEATURE_NAMES, measure, select
from .imaging import BinaryImage, GrayImage, _check_size, boundary_ring, check_dpi
from .imaging import load_bmp, quantize, save_bmp
from .pipeline import Extraction, extract

REFERENCE_DPI = 100.0
DEFAULT_INTRA_SIGMA = 0.03
DEFAULT_PERSONS = 22
DEFAULT_SAMPLES = 10
DEFAULT_NOISE_LEVEL = 0.03
_MARGIN = 10.0
_PALM_CORNER_RADIUS = 12.0
_BASE_MARGIN = 3.0  # clearance between outer fingers and the corner arcs
_ARM_WIDTH_FRACTION = 0.45
_ARM_LENGTH = 30.0
_TIP_HEADROOM = 4.0
_FOREGROUND = 0.95  # hand intensity before noise
_BACKGROUND = 0.02  # scanner-bed intensity before noise

#: Anthropometric sampling ranges (reference px) for corpus prototypes.
FINGER_LENGTH_RANGE = (50.0, 90.0)
FINGER_WIDTH_RANGE = (12.0, 22.0)
GAP_RANGE = (8.0, 12.0)
PALM_HEIGHT_RANGE = (80.0, 100.0)
TILT_RANGE_DEG = (-8.0, 8.0)

# Hand dimensions co-vary strongly with overall hand size, so person
# prototypes are a canonical hand scaled by a common size factor with
# persistent per-finger shape deviations on top, clipped to the ranges
# above.  Drawing every dimension independently over its full population
# range would make persons unrealistically easy to tell apart.
BASE_FINGER_LENGTHS = (55.0, 70.0, 80.0, 74.0, 58.0)
BASE_FINGER_WIDTHS = (18.0, 16.0, 17.0, 16.0, 13.0)
BASE_PALM_HEIGHT = 90.0
HAND_SIZE_RANGE = (0.92, 1.12)
SHAPE_SIGMA = 0.04


@dataclass
class HandParams:
    """Ideal hand geometry in reference pixels plus a render noise seed."""

    finger_lengths: tuple[float, float, float, float, float]
    finger_widths: tuple[float, float, float, float, float]
    palm_width: float
    palm_height: float
    tilt_deg: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.finger_lengths = tuple(float(v) for v in self.finger_lengths)
        self.finger_widths = tuple(float(v) for v in self.finger_widths)
        if len(self.finger_lengths) != 5 or len(self.finger_widths) != 5:
            raise RenderError("a hand needs exactly 5 finger lengths and 5 widths")


@dataclass(frozen=True)
class CorpusSettings:
    """How a corpus is drawn, in corpus_config.txt's key order; a value
    render_person cannot use is a CorpusError."""

    master_seed: int
    intra_sigma: float = DEFAULT_INTRA_SIGMA
    noise_level: float = DEFAULT_NOISE_LEVEL
    dpi: float = REFERENCE_DPI
    persons: int = DEFAULT_PERSONS
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise CorpusError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0.0 <= self.intra_sigma <= 0.1:
            raise CorpusError(f"intra_sigma {self.intra_sigma} outside [0, 0.1]")
        if not 0.0 <= self.noise_level <= 1.0:
            raise CorpusError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.persons < 1 or self.samples < 1:
            raise CorpusError(
                f"need at least 1 person and 1 sample, got {self.persons} x {self.samples}"
            )
        check_dpi(self.dpi, CorpusError)


#: corpus_config.txt's keys in file order, each with the type of its value.
_SETTING_TYPES = typing.get_type_hints(CorpusSettings)


# perfbench traces make_corpus and save_corpus by name, and both use Corpus.
@dataclass
class Corpus:
    """Rendered database held in memory: its settings, persons x samples
    images, and each image's truth, the Extraction of its exact geometry.

    make_corpus collects one for Python callers; gen and evaluate_all stream
    the same per-person rows instead and never hold more than one person's
    images.
    """

    settings: CorpusSettings
    images: list[list[GrayImage]]
    truths: list[list[Extraction]]


def canonical_params(seed: int = 0) -> HandParams:
    """A comfortable mid-range hand used by examples and fixed tests."""
    widths = BASE_FINGER_WIDTHS
    palm_width = sum(widths) + 4 * 10.0 + 2 * _BASE_MARGIN + 2 * _PALM_CORNER_RADIUS
    return HandParams(
        finger_lengths=BASE_FINGER_LENGTHS,
        finger_widths=widths,
        palm_width=palm_width,
        palm_height=BASE_PALM_HEIGHT,
        tilt_deg=0.0,
        seed=seed,
    )


#: The (x_lo, x_hi) a row that misses a shape reads, as a column for np.where.
_MISS = ((math.inf,), (-math.inf,))


def _capsule_xsections(
    bases: list[tuple[float, float]],
    tips: list[tuple[float, float]],
    radii: list[float],
    y: np.ndarray,
) -> np.ndarray:
    """Closed [x_lo, x_hi] of each capsule cut by the horizontal line at
    each y, as a (capsules, 2, len(y)) array; a row that misses a capsule
    reads _MISS, and a row tangent to an end circle reads that one point.

    The cut is the union of the two end-circle chords and the stretch of the
    line closer than r to the axis whose projection lands on the segment
    (0 <= t <= 1); the capsule is convex, so the union is one interval.
    Every capsule is cut in one broadcast: its scalars are (capsules, 1)
    columns against the row of y.
    """
    miss = np.reshape(_MISS, (2, 1, 1))
    bx, by = np.array(bases).T[:, :, None]
    r = np.array(radii)[:, None]
    spans = []
    for cx, cy in ((bx, by), np.array(tips).T[:, :, None]):
        h2 = (r - (y - cy)) * (r + (y - cy))
        h = np.sqrt(np.maximum(h2, 0.0))
        spans.append(np.where(h2 >= 0, (cx - h, cx + h), miss))
    # The unit axes in Python floats, rounded as math.hypot rounds the
    # length. A zero-length capsule gets a zero axis and half = 0, so its
    # strip misses every row.
    axes = []
    for (x0, y0), (x1, y1) in zip(bases, tips):
        length = math.hypot(x1 - x0, y1 - y0)
        unit = ((x1 - x0) / length, (y1 - y0) / length) if length > 0 else (0.0, 0.0)
        axes.append((*unit, 0.5 * length))
    ex, ey, half = np.array(axes).T[:, :, None]
    # In u = x - bx both strip conditions read |a*u + b| < bound: the
    # position along the axis (between the centres) and the distance to it.
    # Where a = 0, |b| < bound alone decides; a tiny a sends an end to +-inf.
    dy = y - by
    lo, hi = np.full(dy.shape, -math.inf), np.full(dy.shape, math.inf)
    for a, b, bound in ((ex, dy * ey - half, half), (ey, -dy * ex, r)):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ends = (-b - bound) / a, (-b + bound) / a
        zero_a = np.where(abs(b) < bound, lo, math.inf)
        lo = np.where(a != 0, np.maximum(lo, np.minimum(*ends)), zero_a)
        hi = np.where(a != 0, np.minimum(hi, np.maximum(*ends)), hi)
    spans.append(np.where(lo < hi, (bx + lo, bx + hi), miss))
    lows, highs = zip(*spans)
    return np.stack([np.min(lows, 0), np.max(highs, 0)], axis=1)


@dataclass
class _Layout:
    """Continuous geometry of one hand at a given render scale."""

    bases: list[tuple[float, float]]
    tips: list[tuple[float, float]]
    radii: list[float]
    palm_left: float
    palm_right: float
    palm_top: float
    palm_bottom: float
    corner_radius: float
    arm_left: float
    arm_right: float
    arm_top: float
    arm_cut: float
    width: int
    height: int


def _layout(params: HandParams, scale: float) -> _Layout:
    lengths = [v * scale for v in params.finger_lengths]
    widths = [v * scale for v in params.finger_widths]
    radii = [w / 2.0 for w in widths]
    palm_w = params.palm_width * scale
    margin = _MARGIN * scale
    cr = _PALM_CORNER_RADIUS * scale
    base_margin = _BASE_MARGIN * scale

    gap = (palm_w - 2 * cr - 2 * base_margin - sum(widths)) / 4.0
    palm_left = margin + 6.0 * scale
    palm_right = palm_left + palm_w
    rise = max(ln + r for ln, r in zip(lengths, radii))
    palm_top = margin + rise + _TIP_HEADROOM * scale
    palm_bottom = palm_top + params.palm_height * scale

    theta = math.radians(params.tilt_deg)
    ux, uy = math.sin(theta), -math.cos(theta)
    bases: list[tuple[float, float]] = []
    tips: list[tuple[float, float]] = []
    x = palm_left + cr + base_margin
    for f in range(5):
        bx = x + radii[f]
        bases.append((bx, palm_top))
        tips.append((bx + lengths[f] * ux, palm_top + lengths[f] * uy))
        x = bx + radii[f] + gap

    arm_w = _ARM_WIDTH_FRACTION * palm_w
    arm_cx = 0.5 * (palm_left + palm_right)
    arm_top = palm_bottom - 5.0 * scale
    arm_cut = palm_bottom + _ARM_LENGTH * scale

    width = int(math.ceil(palm_right + margin + 6.0 * scale))
    height = int(math.ceil(arm_cut + margin))
    return _Layout(
        bases=bases, tips=tips, radii=radii, corner_radius=cr,
        palm_left=palm_left, palm_right=palm_right, palm_top=palm_top, palm_bottom=palm_bottom,
        arm_left=arm_cx - arm_w / 2.0, arm_right=arm_cx + arm_w / 2.0,
        arm_top=arm_top, arm_cut=arm_cut, width=width, height=height,
    )


#: Shapes along the first axis of _row_cuts: the palm (0), the arm, the fingers.
_ARM, _FINGERS = 1, slice(2, 7)


def _row_cuts(lay: _Layout) -> np.ndarray:
    """Closed [x_lo, x_hi] of every shape on every canvas row, as a
    (7, 2, height) array; a row that misses a shape reads _MISS. The mask,
    the validity checks and the truth all read these cuts."""
    y = np.arange(lay.height, dtype=float)
    cr = lay.corner_radius
    # A palm row core_dy beyond the core rectangle (the palm shrunk by cr)
    # reaches sqrt(cr^2 - core_dy^2) past the core's sides.
    core_dy = np.maximum(np.maximum(lay.palm_top + cr - y, y - (lay.palm_bottom - cr)), 0.0)
    h2 = cr * cr - core_dy * core_dy
    h = np.sqrt(np.maximum(h2, 0.0))
    palm = np.where(h2 >= 0, (lay.palm_left + cr - h, lay.palm_right - cr + h), _MISS)
    on_arm = (y >= lay.arm_top) & (y <= lay.arm_cut)
    arm = np.where(on_arm, ((lay.arm_left,), (lay.arm_right,)), _MISS)
    fingers = _capsule_xsections(lay.bases, lay.tips, lay.radii, y)
    return np.concatenate(([palm, arm], fingers))


def _pixel_runs(cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last pixel column whose centre lies inside or on each cut."""
    return np.ceil(cuts[:, 0]), np.floor(cuts[:, 1])


def _validate_layout(params: HandParams, lay: _Layout, scale: float) -> np.ndarray:
    """Reject a hand that is no valid scan; return its _row_cuts. The
    dimensions are checked before any cut is made, the rest reads the five
    finger cuts [x_lo, x_hi] on the last row above the palm."""
    if any(v <= 0 for v in params.finger_lengths + params.finger_widths):
        raise RenderError("finger lengths and widths must be positive")
    if not -10.0 <= params.tilt_deg <= 10.0:
        raise RenderError(f"tilt {params.tilt_deg} deg outside [-10, 10]")
    if params.palm_width <= 0 or params.palm_height <= 0:
        raise RenderError("palm dimensions must be positive")

    cuts = _row_cuts(lay)
    sections = cuts[_FINGERS, :, math.ceil(lay.palm_top) - 1]
    for f, (lo, hi) in enumerate(sections):
        if not lo < hi:
            raise RenderError(f"finger {f} does not reach the palm top edge")
    for f in range(4):
        if sections[f + 1][0] - sections[f][1] < 1.0 * scale:
            raise RenderError(f"fingers {f} and {f + 1} merge at the base")
    if sections[0][0] < lay.palm_left + lay.corner_radius + 1.0 * scale:
        raise RenderError("thumb overruns the palm's left corner")
    if sections[4][1] > lay.palm_right - lay.corner_radius - 1.0 * scale:
        raise RenderError("little finger overruns the palm's right corner")
    for f, ((tx, _), r) in enumerate(zip(lay.tips, lay.radii)):
        if tx - r < 2.0 or tx + r > lay.width - 3.0:
            raise RenderError(f"finger {f} leans outside the canvas")
    # A valley also needs a background column between the rasterized bases.
    # Checked last, so a hand failing an earlier test keeps that message.
    for f, (a, b) in enumerate(_valley_columns(sections)):
        if b < a:
            raise RenderError(f"fingers {f} and {f + 1} merge at the base")
    return cuts


def _rasterize(cuts: np.ndarray, width: int) -> np.ndarray:
    """The closed union of the shapes, filled from their _pixel_runs: a run
    adds 1 at its first column and -1 past its last, and a running sum
    counts the shapes covering a pixel. Each row's entries add up to 0, so
    one sum over the flattened rows restarts at 0 on every row."""
    first, last = _pixel_runs(cuts)
    first = np.clip(first, 0, width).astype(np.intp)
    # An empty run adds and takes away 1 at the same column.
    last = np.maximum(np.clip(last, -1, width - 1).astype(np.intp), first - 1)
    rows = np.arange(cuts.shape[2])
    cover = np.zeros((len(rows), width + 1), np.int8)
    for a, b in zip(first, last):
        cover[rows, a] += 1
        cover[rows, b + 1] -= 1
    count = np.cumsum(cover.reshape(-1), dtype=np.int8).reshape(cover.shape)
    return count[:, :width] > 0


def _westward_mid(a: int, b: int) -> int:
    """Pixel a westward boundary walk reports as the centre of the run [a, b]."""
    return b - (b - a) // 2


def _valley_columns(cuts: np.ndarray) -> list[tuple[int, int]]:
    """First and last background column [a, b] between each pair of
    neighbouring finger cuts on one row; the run is empty when a > b."""
    return [(math.floor(lo[1]) + 1, math.ceil(hi[0]) - 1) for lo, hi in zip(cuts, cuts[1:])]


def _ground_truth(lay: _Layout, cuts: np.ndarray, mask: np.ndarray, dpi: float) -> Extraction:
    """Exact landmarks of the ideal shape and features.measure of them: a tip
    is the middle of the first row where its finger holds a whole pixel, and
    the wrist ends are the ends of the arm's last row."""
    first, last = _pixel_runs(cuts)
    tips = []
    for a, b in zip(first[_FINGERS], last[_FINGERS]):
        y = int(np.argmax(a <= b))
        tips.append((_westward_mid(int(a[y]), int(b[y])), y))

    floor_y = math.ceil(lay.palm_top)  # first palm row, below the cuts
    gaps = _valley_columns(cuts[_FINGERS, :, floor_y - 1])
    valleys = [(_westward_mid(a, b), floor_y) for a, b in gaps]

    yb = int(np.flatnonzero(first[_ARM] <= last[_ARM])[-1])
    wrist = ((int(first[_ARM, yb]), yb), (int(last[_ARM, yb]), yb))

    landmarks = Landmarks(tips, valleys, wrist)
    silhouette = BinaryImage(bits=mask, dpi=dpi)
    raw = measure(landmarks, trace_contour(boundary_ring(silhouette)), silhouette)
    return Extraction(raw=raw, vector=select(raw), landmarks=landmarks)


def render(
    params: HandParams, dpi: float = REFERENCE_DPI, noise_level: float = 0.0
) -> tuple[GrayImage, Extraction]:
    """Rasterize one hand; returns the image and its exact ground truth.

    A canvas larger than imaging.MAX_SIDE raises SizeError before any pixel
    or row cut is allocated.
    """
    scale = dpi / REFERENCE_DPI
    lay = _layout(params, scale)
    _check_size(lay.width, lay.height)
    cuts = _validate_layout(params, lay, scale)
    mask = _rasterize(cuts, lay.width)
    truth = _ground_truth(lay, cuts, mask, dpi)

    pixels = np.where(mask, _FOREGROUND, _BACKGROUND)
    if noise_level > 0:
        rng = np.random.default_rng(params.seed)
        pixels += rng.uniform(-noise_level, noise_level, pixels.shape)
    # Finite levels plus finite draws (uniform refuses an infinite range, and
    # a NaN noise_level adds none), clipped: the range needs no scan.
    return GrayImage._in_range(np.clip(pixels, 0.0, 1.0, out=pixels), dpi), truth


def _draw_prototype(rng: np.random.Generator) -> HandParams:
    size = rng.uniform(*HAND_SIZE_RANGE)
    lengths = np.clip(
        np.array(BASE_FINGER_LENGTHS) * size * (1.0 + rng.normal(0.0, SHAPE_SIGMA, 5)),
        *FINGER_LENGTH_RANGE,
    )
    widths = np.clip(
        np.array(BASE_FINGER_WIDTHS) * size * (1.0 + rng.normal(0.0, SHAPE_SIGMA, 5)),
        *FINGER_WIDTH_RANGE,
    )
    gap = rng.uniform(*GAP_RANGE)
    palm_height = float(
        np.clip(BASE_PALM_HEIGHT * size * (1.0 + rng.normal(0.0, SHAPE_SIGMA)), *PALM_HEIGHT_RANGE)
    )
    tilt = rng.uniform(*TILT_RANGE_DEG)
    palm_width = float(widths.sum()) + 4 * gap + 2 * _BASE_MARGIN + 2 * _PALM_CORNER_RADIUS
    return HandParams(
        finger_lengths=tuple(lengths),
        finger_widths=tuple(widths),
        palm_width=palm_width,
        palm_height=palm_height,
        tilt_deg=tilt,
    )


def _jitter(proto: HandParams, sigma: float, rng: np.random.Generator) -> HandParams:
    """One posing of a prototype: every linear dimension wobbles by a relative
    normal draw (palm at half strength, since a palm flattens more repeatably
    than fingers pose), and the tilt wanders a few degrees."""
    lengths = tuple(v * (1.0 + rng.normal(0.0, sigma)) for v in proto.finger_lengths)
    widths = tuple(v * (1.0 + rng.normal(0.0, sigma)) for v in proto.finger_widths)
    palm_width = proto.palm_width * (1.0 + rng.normal(0.0, 0.5 * sigma))
    palm_height = proto.palm_height * (1.0 + rng.normal(0.0, 0.5 * sigma))
    tilt = float(np.clip(proto.tilt_deg + rng.normal(0.0, 15.0 * sigma), -10.0, 10.0))
    return HandParams(
        finger_lengths=lengths,
        finger_widths=widths,
        palm_width=palm_width,
        palm_height=palm_height,
        tilt_deg=tilt,
        seed=int(rng.integers(2**31)),
    )


def render_person(settings: CorpusSettings, p: int) -> tuple[list[GrayImage], list[Extraction]]:
    """Person p's samples and their truths: the prototype is drawn from the
    stream (master_seed, p) and sample j is posed from (master_seed, p, j).

    Each sample is its render quantized, the 8-bit scan save_bmp writes
    and load_bmp reads back. A sample whose render fails or whose landmarks
    the default extraction chain does not detect in that scan is
    regenerated from the same stream, up to 100 attempts; giving up names
    the last attempt's failure.
    """
    s = settings
    proto = _draw_prototype(np.random.default_rng((s.master_seed, p)))
    images: list[GrayImage] = []
    truths: list[Extraction] = []
    for j in range(s.samples):
        rng = np.random.default_rng((s.master_seed, p, j))
        failure: HandGeoError | None = None
        for _ in range(100):
            try:
                img, gt = render(_jitter(proto, s.intra_sigma, rng), s.dpi, s.noise_level)
            except RenderError as exc:
                failure = exc
                continue
            img = quantize(img)
            try:
                extract(img)
                break
            except HandGeoError as exc:
                failure = exc
        else:
            raise CorpusError(
                f"person {p} sample {j}: no valid sample in 100 attempts;"
                f" last {failure.category}: {failure}"
            )
        images.append(img)
        truths.append(gt)
    return images, truths


# perfbench traces make_corpus by name.
def make_corpus(settings: CorpusSettings) -> Corpus:
    """Every person's render_person row, held in memory at once; gen
    (gen.generate_corpus) writes the same rows one at a time instead."""
    rows = [render_person(settings, p) for p in range(settings.persons)]
    return Corpus(settings, [images for images, _ in rows], [truths for _, truths in rows])


_GT_HEADER = (
    ["sample"]
    + [f"tip{f}_{ax}" for f in range(5) for ax in "xy"]
    + [f"valley{f}_{ax}" for f in range(4) for ax in "xy"]
    + ["wrist_left_x", "wrist_left_y", "wrist_right_x", "wrist_right_y"]
    + [f"length{f}_mm" for f in range(5)]
    + [f"width{f}_mm" for f in range(5)]
    + ["wrist_length_mm", "perimeter_mm", "surface_mm2"]
)
#: The RawFeatures fields of _GT_HEADER's mm columns, in its order.
_GT_MEASURES = (
    FEATURE_NAMES[:5] + FEATURE_NAMES[6:11] + ("wrist_length", "perimeter", "surface")
)


def _gt_row(j: int, gt: Extraction) -> list[str]:
    marks = gt.landmarks
    cells = [str(j)]
    cells += [str(v) for point in (*marks.tips, *marks.valleys, *marks.wrist) for v in point]
    cells += [f"{getattr(gt.raw, name):.17g}" for name in _GT_MEASURES]
    return cells


def _person_dir(root: str | Path, p: int) -> Path:
    return Path(root) / f"person_{p:02d}"


def _write_person(
    root: str | Path, p: int, images: list[GrayImage], truths: list[Extraction]
) -> None:
    """person_<p>/sample_<j>.bmp for every image and person_<p>/ground_truth.csv."""
    pdir = _person_dir(root, p)
    pdir.mkdir(parents=True, exist_ok=True)
    for j, img in enumerate(images):
        save_bmp(img, pdir / f"sample_{j:02d}.bmp")
    with open(pdir / "ground_truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_GT_HEADER)
        writer.writerows(_gt_row(j, gt) for j, gt in enumerate(truths))


def _numbered(folder: Path, pattern: str) -> list[tuple[int, Path]]:
    """(n, path) of each entry of folder named by pattern, n its one group."""
    found = ((re.fullmatch(pattern, path.name), path) for path in sorted(folder.glob("*")))
    return [(int(m[1]), path) for m, path in found if m]


def _refuse_strays(root: str | Path, s: CorpusSettings) -> None:
    """CorpusError naming the first person_<p> directory or sample_<j>.bmp in
    root that lies outside settings s, which a write would leave in the tree."""
    for p, pdir in _numbered(Path(root), r"person_(\d+)"):
        samples = _numbered(pdir, r"sample_(\d+)\.bmp")
        strays = [pdir] if p >= s.persons else [f for j, f in samples if j >= s.samples]
        if strays:
            raise CorpusError(f"{strays[0]} lies outside a {s.persons} x {s.samples} corpus")


def _write_config(root: str | Path, settings: CorpusSettings) -> None:
    (Path(root) / "corpus_config.txt").write_text(
        "".join(
            f"{key}={getattr(settings, key):{'.17g' if cast is float else ''}}\n"
            for key, cast in _SETTING_TYPES.items()
        ),
        encoding="utf-8",
    )


def write_corpus(
    root: str | Path,
    settings: CorpusSettings,
    rows: typing.Iterable[tuple[list[GrayImage], list[Extraction]]],
) -> None:
    """Write each (images, truths) row as the next person_<p> directory as
    soon as it arrives, then corpus_config.txt.

    root is created, and a stale corpus_config.txt in it removed, only once
    the first row has arrived. The config is written last, so a run that
    stops at person k leaves person_00 .. person_<k-1> and no config, a tree
    load_settings refuses. A tree that would keep a person_<p> directory or
    sample_<j>.bmp beyond settings is refused first, and left untouched.
    A row count, or a row's image or truth count, that disagrees with settings
    is a CorpusError, raised before that row or the config is written.
    """
    s = settings
    _refuse_strays(root, s)
    config = Path(root) / "corpus_config.txt"
    p = 0  # not enumerate(rows): its result tuple would hold a row until the next arrives
    for images, truths in rows:
        if p == s.persons or not len(images) == len(truths) == s.samples:
            raise CorpusError(
                f"person {p}'s row of {len(images)} images and {len(truths)} truths"
                f" lies outside a {s.persons} x {s.samples} corpus"
            )
        if p == 0:
            config.unlink(missing_ok=True)
        _write_person(root, p, images, truths)
        del images, truths  # free this row before the next one is made
        p += 1
    if p < s.persons:
        raise CorpusError(f"rows end before person {p} of a {s.persons} x {s.samples} corpus")
    _write_config(root, settings)


# perfbench traces save_corpus by name.
def save_corpus(corpus: Corpus, root: str | Path) -> None:
    """The corpus as a tree, written by write_corpus."""
    write_corpus(root, corpus.settings, zip(corpus.images, corpus.truths))


def load_settings(root: str | Path) -> CorpusSettings:
    """The settings in a tree's corpus_config.txt. A missing file or key, a
    malformed value or settings CorpusSettings rejects is a CorpusError
    naming corpus_config.txt."""
    config_path = Path(root) / "corpus_config.txt"
    if not config_path.is_file():
        raise CorpusError(f"{config_path} not found")
    config = read_config(config_path, CorpusError)
    values = {
        key: typed_field(config_path, config, key, cast, CorpusError)
        for key, cast in _SETTING_TYPES.items()
    }
    try:
        return CorpusSettings(**values)
    except CorpusError as exc:
        raise CorpusError(f"{config_path}: {exc}") from None


def load_person(root: str | Path, settings: CorpusSettings, p: int) -> list[GrayImage]:
    """Person p's sample BMPs from a corpus tree, in sample order. No
    ground_truth.csv is read, so trees of real scans, which have none, read too."""
    pdir = _person_dir(root, p)
    return [load_bmp(pdir / f"sample_{j:02d}.bmp") for j in range(settings.samples)]
