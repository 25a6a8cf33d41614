"""Parametric hand silhouettes with exact ground truth.

The hand is a rounded-rectangle palm with five capsule fingers mounted on
its flat top edge and an arm stump cut off horizontally below. All shapes
are continuous; a pixel is foreground when its integer centre lies inside
the union. Ground-truth landmarks are the pixels an ideal boundary walk
would report, derived from the same continuous geometry, so detector output
can be compared against them at pixel resolution.

Dimension parameters are in reference pixels at 100 dpi; rendering at
another dpi scales the whole figure, leaving mm-valued truth unchanged up
to quantization.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import Landmarks, trace_contour
from .errors import CorpusError, HandGeoError, RenderError, read_config
from .features import measure
from .imaging import (
    BinaryImage,
    GrayImage,
    _check_size,
    boundary_ring,
    load_bmp,
    save_bmp,
)
from .pipeline import extract

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


@dataclass
class GroundTruth:
    """Ideal-shape landmarks (px) and measurements (mm) of one render."""

    tips: list[tuple[int, int]]
    valleys: list[tuple[int, int]]
    wrist: tuple[tuple[int, int], tuple[int, int]]
    lengths_mm: tuple[float, ...]
    widths_mm: tuple[float, ...]
    wrist_length_mm: float
    perimeter_mm: float
    surface_mm2: float


@dataclass
class Corpus:
    """Rendered database: persons x samples images with per-sample truth.

    truths is empty for a corpus read back by load_corpus, which never reads
    ground truth; save_corpus then writes no ground_truth.csv.
    """

    images: list[list[GrayImage]]
    truths: list[list[GroundTruth]]
    master_seed: int
    intra_sigma: float
    noise_level: float
    dpi: float


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


def _capsule_xsection(
    base: tuple[float, float], tip: tuple[float, float], r: float, y: float
) -> tuple[float, float] | None:
    """Continuous [x_lo, x_hi] of a capsule cut by the horizontal line at y.

    The cut is the union of the two end-circle chords and the stretch of the
    line closer than r to the axis whose projection lands on the segment
    (0 <= t <= 1); the capsule is convex, so the union is one interval.
    """
    spans = []
    for cx, cy in (base, tip):
        h2 = (r - (y - cy)) * (r + (y - cy))
        if h2 > 0:
            h = math.sqrt(h2)
            spans.append((cx - h, cx + h))
    bx, by = base
    length = math.hypot(tip[0] - bx, tip[1] - by)
    if length > 0:
        ex, ey = (tip[0] - bx) / length, (tip[1] - by) / length
        # In u = x - bx both strip conditions read |a*u + b| < bound: the
        # position along the axis (between the centres) and the distance to it.
        dy, half = y - by, 0.5 * length
        lo, hi = -math.inf, math.inf
        for a, b, bound in ((ex, dy * ey - half, half), (ey, -dy * ex, r)):
            if a != 0:
                ends = sorted(((-b - bound) / a, (-b + bound) / a))
                lo, hi = max(lo, ends[0]), min(hi, ends[1])
            elif abs(b) >= bound:
                lo, hi = math.inf, -math.inf
        if lo < hi:
            spans.append((bx + lo, bx + hi))
    if not spans:
        return None
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


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
    palm_h = params.palm_height * scale
    margin = _MARGIN * scale
    cr = _PALM_CORNER_RADIUS * scale
    base_margin = _BASE_MARGIN * scale

    gap = (palm_w - 2 * cr - 2 * base_margin - sum(widths)) / 4.0
    palm_left = margin + 6.0 * scale
    palm_right = palm_left + palm_w
    rise = max(ln + r for ln, r in zip(lengths, radii))
    palm_top = margin + rise + _TIP_HEADROOM * scale
    palm_bottom = palm_top + palm_h

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
        bases=bases,
        tips=tips,
        radii=radii,
        palm_left=palm_left,
        palm_right=palm_right,
        palm_top=palm_top,
        palm_bottom=palm_bottom,
        corner_radius=cr,
        arm_left=arm_cx - arm_w / 2.0,
        arm_right=arm_cx + arm_w / 2.0,
        arm_top=arm_top,
        arm_cut=arm_cut,
        width=width,
        height=height,
    )


def _validate_layout(params: HandParams, lay: _Layout, scale: float) -> list[tuple[float, float]]:
    """Reject a hand that is no valid scan; return the five finger cuts
    [x_lo, x_hi] on the last row above the palm."""
    if any(v <= 0 for v in params.finger_lengths + params.finger_widths):
        raise RenderError("finger lengths and widths must be positive")
    if not -10.0 <= params.tilt_deg <= 10.0:
        raise RenderError(f"tilt {params.tilt_deg} deg outside [-10, 10]")
    if params.palm_width <= 0 or params.palm_height <= 0:
        raise RenderError("palm dimensions must be positive")

    row = math.ceil(lay.palm_top) - 1  # last row above the palm
    sections = []
    for f in range(5):
        sec = _capsule_xsection(lay.bases[f], lay.tips[f], lay.radii[f], row)
        if sec is None:
            raise RenderError(f"finger {f} does not reach the palm top edge")
        sections.append(sec)
    for f in range(4):
        clearance = sections[f + 1][0] - sections[f][1]
        if clearance < 1.0 * scale:
            raise RenderError(f"fingers {f} and {f + 1} merge at the base")
    if sections[0][0] < lay.palm_left + lay.corner_radius + 1.0 * scale:
        raise RenderError("thumb overruns the palm's left corner")
    if sections[4][1] > lay.palm_right - lay.corner_radius - 1.0 * scale:
        raise RenderError("little finger overruns the palm's right corner")
    for f in range(5):
        tx = lay.tips[f][0]
        if tx - lay.radii[f] < 2.0 or tx + lay.radii[f] > lay.width - 3.0:
            raise RenderError(f"finger {f} leans outside the canvas")
    # A valley also needs a background column between the rasterized bases.
    # Checked last, so a hand failing an earlier test keeps that message.
    for f, (a, b) in enumerate(_valley_columns(sections)):
        if b < a:
            raise RenderError(f"fingers {f} and {f + 1} merge at the base")
    return sections


def _rasterize(lay: _Layout) -> np.ndarray:
    ys, xs = np.mgrid[0 : lay.height, 0 : lay.width]
    x, y = xs.astype(float), ys.astype(float)

    cr = lay.corner_radius
    core_dx = np.maximum(np.maximum(lay.palm_left + cr - x, x - (lay.palm_right - cr)), 0.0)
    core_dy = np.maximum(np.maximum(lay.palm_top + cr - y, y - (lay.palm_bottom - cr)), 0.0)
    palm = core_dx**2 + core_dy**2 <= cr**2

    arm = (
        (x >= lay.arm_left)
        & (x <= lay.arm_right)
        & (y >= lay.arm_top)
        & (y <= lay.arm_cut)
    )

    mask = palm | arm
    for base, tip, r in zip(lay.bases, lay.tips, lay.radii):
        bx, by = base
        px, py = tip
        vx, vy = px - bx, py - by
        denom = vx * vx + vy * vy
        # Only the capsule's bounding box (with a 2 px margin) can be inside.
        box = (
            slice(max(0, math.floor(min(by, py) - r - 2)), math.ceil(max(by, py) + r + 2) + 1),
            slice(max(0, math.floor(min(bx, px) - r - 2)), math.ceil(max(bx, px) + r + 2) + 1),
        )
        xb, yb = x[box], y[box]
        t = np.clip(((xb - bx) * vx + (yb - by) * vy) / denom, 0.0, 1.0)
        mask[box] |= (xb - (bx + t * vx)) ** 2 + (yb - (by + t * vy)) ** 2 <= r**2
    return mask


def _westward_mid(a: int, b: int) -> int:
    """Pixel a westward boundary walk reports as the centre of the run [a, b]."""
    return b - (b - a) // 2


def _valley_columns(cuts: list[tuple[float, float]]) -> list[tuple[int, int]]:
    """First and last background column [a, b] between each pair of
    neighbouring finger cuts; the run is empty when a > b."""
    return [(math.floor(lo[1]) + 1, math.ceil(hi[0]) - 1) for lo, hi in zip(cuts, cuts[1:])]


def _ground_truth(
    lay: _Layout, cuts: list[tuple[float, float]], mask: np.ndarray, dpi: float
) -> GroundTruth:
    """Exact landmarks of the ideal shape and features.measure of them."""
    tips: list[tuple[int, int]] = []
    for f in range(5):
        px, py = lay.tips[f]
        r = lay.radii[f]
        yt = math.ceil(py - r)
        while True:
            half = math.sqrt(max(r * r - (yt - py) ** 2, 0.0))
            a, b = math.ceil(px - half), math.floor(px + half)
            if b >= a:
                break
            yt += 1  # sub-pixel cap: the first occupied row is lower
        tips.append((_westward_mid(a, b), yt))

    floor_y = math.ceil(lay.palm_top)  # first palm row, below the cuts
    valleys = [(_westward_mid(a, b), floor_y) for a, b in _valley_columns(cuts)]

    yb = math.floor(lay.arm_cut)
    wrist = ((math.ceil(lay.arm_left), yb), (math.floor(lay.arm_right), yb))

    silhouette = BinaryImage(bits=mask.astype(np.uint8), dpi=dpi)
    chain = trace_contour(boundary_ring(silhouette))
    raw = measure(Landmarks(tips, valleys, wrist), chain, silhouette)
    return GroundTruth(
        tips=tips,
        valleys=valleys,
        wrist=wrist,
        lengths_mm=(
            raw.thumb_length,
            raw.first_length,
            raw.middle_length,
            raw.ring_length,
            raw.little_length,
        ),
        widths_mm=(
            raw.thumb_base_width,
            raw.first_width,
            raw.middle_width,
            raw.ring_width,
            raw.little_width,
        ),
        wrist_length_mm=raw.wrist_length,
        perimeter_mm=raw.perimeter,
        surface_mm2=raw.surface,
    )


def render(
    params: HandParams,
    dpi: float = REFERENCE_DPI,
    noise_level: float = 0.0,
) -> tuple[GrayImage, GroundTruth]:
    """Rasterize one hand; returns the image and its exact ground truth.

    A canvas larger than imaging.MAX_SIDE raises SizeError before any pixel
    is allocated.
    """
    scale = dpi / REFERENCE_DPI
    lay = _layout(params, scale)
    _check_size(lay.width, lay.height)
    cuts = _validate_layout(params, lay, scale)
    mask = _rasterize(lay)
    truth = _ground_truth(lay, cuts, mask, dpi)

    pixels = np.where(mask, _FOREGROUND, _BACKGROUND)
    if noise_level > 0:
        rng = np.random.default_rng(params.seed)
        pixels = pixels + rng.uniform(-noise_level, noise_level, pixels.shape)
    return GrayImage(pixels=np.clip(pixels, 0.0, 1.0), dpi=dpi), truth


def _extraction_error(img: GrayImage) -> HandGeoError | None:
    """Why the default extraction chain fails on img; None when it succeeds."""
    try:
        extract(img)
    except HandGeoError as exc:
        return exc
    return None


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


def _check_settings(
    intra_sigma: float, noise_level: float, dpi: float, persons: int, samples: int
) -> None:
    """CorpusError unless the corpus settings are in range."""
    if not 0.0 <= intra_sigma <= 0.1:
        raise CorpusError(f"intra_sigma {intra_sigma} outside [0, 0.1]")
    if not 0.0 <= noise_level <= 1.0:
        raise CorpusError(f"noise_level {noise_level} outside [0, 1]")
    if persons < 1 or samples < 1:
        raise CorpusError(f"need at least 1 person and 1 sample, got {persons} x {samples}")
    if not 0.0 < dpi < math.inf:
        raise CorpusError(f"dpi must be positive and finite, got {dpi}")


def make_corpus(
    master_seed: int,
    intra_sigma: float = DEFAULT_INTRA_SIGMA,
    *,
    persons: int = DEFAULT_PERSONS,
    samples: int = DEFAULT_SAMPLES,
    noise_level: float = DEFAULT_NOISE_LEVEL,
    dpi: float = REFERENCE_DPI,
) -> Corpus:
    """Draw person prototypes and render jittered samples for each.

    A sample whose render fails or whose landmarks are not detected by the
    default extraction chain is regenerated from the same stream, up to 100
    attempts; giving up names the last attempt's failure.
    """
    _check_settings(intra_sigma, noise_level, dpi, persons, samples)
    images: list[list[GrayImage]] = []
    truths: list[list[GroundTruth]] = []
    for p in range(persons):
        proto = _draw_prototype(np.random.default_rng((master_seed, p)))
        row_img: list[GrayImage] = []
        row_gt: list[GroundTruth] = []
        for j in range(samples):
            rng = np.random.default_rng((master_seed, p, j))
            failure: HandGeoError | None = None
            for _ in range(100):
                try:
                    img, gt = render(_jitter(proto, intra_sigma, rng), dpi, noise_level)
                except RenderError as exc:
                    failure = exc
                    continue
                failure = _extraction_error(img)
                if failure is None:
                    break
            else:
                raise CorpusError(
                    f"person {p} sample {j}: no valid sample in 100 attempts;"
                    f" last {failure.category}: {failure}"
                )
            row_img.append(img)
            row_gt.append(gt)
        images.append(row_img)
        truths.append(row_gt)
    return Corpus(
        images=images,
        truths=truths,
        master_seed=master_seed,
        intra_sigma=intra_sigma,
        noise_level=noise_level,
        dpi=dpi,
    )


_GT_HEADER = (
    ["sample"]
    + [f"tip{f}_{ax}" for f in range(5) for ax in "xy"]
    + [f"valley{f}_{ax}" for f in range(4) for ax in "xy"]
    + ["wrist_left_x", "wrist_left_y", "wrist_right_x", "wrist_right_y"]
    + [f"length{f}_mm" for f in range(5)]
    + [f"width{f}_mm" for f in range(5)]
    + ["wrist_length_mm", "perimeter_mm", "surface_mm2"]
)


def _gt_row(j: int, gt: GroundTruth) -> list[str]:
    cells: list[str] = [str(j)]
    for x, y in gt.tips:
        cells += [str(x), str(y)]
    for x, y in gt.valleys:
        cells += [str(x), str(y)]
    for x, y in gt.wrist:
        cells += [str(x), str(y)]
    for v in (*gt.lengths_mm, *gt.widths_mm, gt.wrist_length_mm, gt.perimeter_mm, gt.surface_mm2):
        cells.append(f"{v:.17g}")
    return cells


def save_corpus(corpus: Corpus, root: str | Path) -> None:
    """Directory tree: person_<i>/sample_<j>.bmp plus, when the corpus has
    ground truth, one person_<i>/ground_truth.csv per person."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    config = "\n".join(
        [
            f"master_seed={corpus.master_seed}",
            f"intra_sigma={corpus.intra_sigma:.17g}",
            f"noise_level={corpus.noise_level:.17g}",
            f"dpi={corpus.dpi:.17g}",
            f"persons={len(corpus.images)}",
            f"samples={len(corpus.images[0]) if corpus.images else 0}",
        ]
    )
    (root / "corpus_config.txt").write_text(config + "\n", encoding="utf-8")
    for p, row_img in enumerate(corpus.images):
        pdir = root / f"person_{p:02d}"
        pdir.mkdir(exist_ok=True)
        for j, img in enumerate(row_img):
            save_bmp(img, pdir / f"sample_{j:02d}.bmp")
        if corpus.truths:
            with open(pdir / "ground_truth.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_GT_HEADER)
                writer.writerows(_gt_row(j, gt) for j, gt in enumerate(corpus.truths[p]))


def load_corpus(root: str | Path) -> Corpus:
    """The images and metadata of a corpus tree; ground_truth.csv files are
    not read, so trees of real scans, which have none, load too. Metadata
    make_corpus would reject is a CorpusError naming corpus_config.txt."""
    root = Path(root)
    config_path = root / "corpus_config.txt"
    if not config_path.is_file():
        raise CorpusError(f"{config_path} not found")
    config = read_config(config_path, CorpusError)

    def field(key: str, cast: type):
        try:
            return cast(config[key])
        except KeyError:
            raise CorpusError(f"{config_path}: missing key {key!r}") from None
        except ValueError as exc:
            raise CorpusError(f"{config_path}: key {key!r}: {exc}") from None

    persons, samples = field("persons", int), field("samples", int)
    echo = {
        "master_seed": field("master_seed", int),
        "intra_sigma": field("intra_sigma", float),
        "noise_level": field("noise_level", float),
        "dpi": field("dpi", float),
    }
    try:
        _check_settings(echo["intra_sigma"], echo["noise_level"], echo["dpi"], persons, samples)
    except CorpusError as exc:
        raise CorpusError(f"{config_path}: {exc}") from None
    images = [
        [load_bmp(root / f"person_{p:02d}" / f"sample_{j:02d}.bmp") for j in range(samples)]
        for p in range(persons)
    ]
    return Corpus(images=images, truths=[], **echo)
