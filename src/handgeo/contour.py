"""Closed-contour tracing, 8-direction chain coding, and landmark detection.

Direction codes (image y grows downward, so "north" decreases y):

    3 2 1
    4 . 0
    5 6 7

Even codes step one pixel unit, odd codes sqrt(2). Contours are traversed
counter-clockwise as seen on screen, which keeps the silhouette interior on
the walker's left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContourError, LandmarkError
from .imaging import BinaryImage

#: (dx, dy) step of each direction code.
DELTAS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))
_DX = tuple(dx for dx, _ in DELTAS)
_DY = tuple(dy for _, dy in DELTAS)

_SQRT2 = math.sqrt(2.0)


@dataclass
class ChainCode:
    """Start pixel plus the sequence of 3-bit direction codes."""

    start: tuple[int, int]  # (x, y)
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.start = (int(self.start[0]), int(self.start[1]))
        self.codes = tuple(map(int, self.codes))
        if self.codes and not (0 <= min(self.codes) and max(self.codes) <= 7):
            raise ValueError("chain codes must be in 0..7")

    def __len__(self) -> int:
        return len(self.codes)

    def pixels(self) -> list[tuple[int, int]]:
        """Replay the codes; entry i is the pixel before codes[i] is applied."""
        x0, y0 = self.start
        xs = accumulate((_DX[c] for c in self.codes[:-1]), initial=x0)
        ys = accumulate((_DY[c] for c in self.codes[:-1]), initial=y0)
        return list(zip(xs, ys))


@dataclass
class Landmarks:
    """Contour anchor points of a fingers-up hand."""

    tips: list[tuple[int, int]]  # thumb..little, ordered by x
    valleys: list[tuple[int, int]]  # between adjacent fingers, ordered by x
    wrist: tuple[tuple[int, int], tuple[int, int]]  # traversal order: left, right


def perimeter(chain: ChainCode) -> float:
    """Chain length in pixel units: +1 per even code, +sqrt(2) per odd."""
    if not chain.codes:
        raise ValueError("perimeter of an empty chain is undefined")
    odd = sum(c & 1 for c in chain.codes)
    return (len(chain.codes) - odd) + _SQRT2 * odd


#: _NEXT[occupancy * 8 + backtrack]: first direction counter-clockwise after
#: `backtrack` whose bit is set in the 8-bit neighbour occupancy (bit c set
#: when the neighbour in direction c is foreground); None when no bit is set.
_NEXT = tuple(
    next((c % 8 for c in range(b + 1, b + 9) if occ >> (c % 8) & 1), None)
    for occ in range(256)
    for b in range(8)
)


def _trace_loop(
    occ: dict[int, int], offsets: tuple[int, ...], start: int, size: int
) -> list[int] | None:
    """Moore walk from flat index `start` over a padded, flattened edge map.

    `occ` maps each foreground index to 8 times its neighbour occupancy (a
    row offset into _NEXT), `offsets` gives the flat step of each direction
    code and `size` is the pixel count of the start's component. Returns the
    codes, or None when the component holds no cycle.
    """
    first = _NEXT[occ[start] + 4]
    if first is None:
        return None
    codes = [first]
    p, backtrack = start + offsets[first], (first + 4) & 7
    for _ in range(4 * size + 8):
        c = _NEXT[occ[p] + backtrack]
        if p == start and c == first:
            break
        codes.append(c)
        p += offsets[c]
        backtrack = (c + 4) & 7
    else:
        raise ContourError("contour walk failed to close")
    if len(codes) < 4:
        return None
    # A walk that covers every pixel-pair twice retraced an open arc.
    walked = np.concatenate(([start], start + np.cumsum(np.take(offsets, codes))))
    a, b = walked[:-1], walked[1:]
    pairs = np.minimum(a, b) * (int(walked.max()) + 1) + np.maximum(a, b)
    _, counts = np.unique(pairs, return_counts=True)
    return codes if (counts == 1).any() else None


def trace_contour(edges: BinaryImage) -> ChainCode:
    """Chain code of the longest closed loop in an edge map.

    Traversal is counter-clockwise from the loop's topmost-then-leftmost
    pixel. Equal-length loops tie-break on the smaller (y, x) start.
    """
    from scipy import ndimage  # imported here for the reason given in imaging.lowpass_filter

    labels, _ = ndimage.label(edges.bits, structure=np.ones((3, 3), dtype=int))
    # A one-pixel zero border lets every neighbour lookup index the flat map.
    flat = np.pad(labels, 1).ravel()
    width = edges.width + 2
    offsets = tuple(dy * width + dx for dx, dy in DELTAS)
    idx = np.flatnonzero(flat != 0)
    nbits = np.zeros(idx.size, dtype=np.int64)
    for c, off in enumerate(offsets):
        nbits |= (flat[idx + off] != 0).astype(np.int64) << c
    occ = dict(zip(idx.tolist(), (nbits * 8).tolist()))
    # idx is in raster order, so each label's first entry is the topmost-
    # then-leftmost pixel of its component.
    comp = flat[idx]
    labs, first = np.unique(comp, return_index=True)
    sizes = np.bincount(comp)[labs]
    best: ChainCode | None = None
    for start, size in zip(idx[first].tolist(), sizes.tolist()):
        codes = _trace_loop(occ, offsets, start, size)
        if codes is None:
            continue
        y, x = divmod(start, width)  # padded coordinates
        chain = ChainCode(start=(x - 1, y - 1), codes=tuple(codes))
        if (
            best is None
            or len(chain) > len(best)
            or (len(chain) == len(best) and (chain.start[1], chain.start[0]) < (best.start[1], best.start[0]))
        ):
            best = chain
    if best is None:
        raise ContourError("no closed contour loop found in the edge map")
    return best


def _alternating_extrema(
    ys: list[int], anchor: int, hysteresis: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cyclic minima/maxima plateaus of ys with the given prominence.

    Walks one full cycle from `anchor` (an index attaining the global
    maximum). Returns (minima, maxima) as (first, last) attainment index
    pairs in walk order; the anchor extremum itself is not reported.
    """
    n = len(ys)
    minima: list[tuple[int, int]] = []
    maxima: list[tuple[int, int]] = []
    seeking_min = True
    best = ys[anchor]
    first = last = anchor
    for k in range(1, n + 1):
        i = (anchor + k) % n
        y = ys[i]
        if seeking_min:
            if y < best:
                best, first, last = y, i, i
            elif y == best:
                last = i
            if y >= best + hysteresis:
                minima.append((first, last))
                seeking_min, best, first, last = False, y, i, i
        else:
            if y > best:
                best, first, last = y, i, i
            elif y == best:
                last = i
            if y <= best - hysteresis:
                maxima.append((first, last))
                seeking_min, best, first, last = True, y, i, i
    return minima, maxima


def _cyclic_midpoint(span: tuple[int, int], n: int) -> int:
    first, last = span
    return (first + ((last - first) % n) // 2) % n


def find_landmarks(chain: ChainCode, hysteresis: int = 3) -> Landmarks:
    """Locate fingertips, inter-finger valleys, and wrist endpoints.

    Requires a fingers-up hand traversed counter-clockwise. Fingertips are
    the contour's local y-minima (the midpoints of ascending-band to
    descending-band transitions), valleys the local y-maxima between
    fingers; the wrist crossing at the contour's bottommost row anchors the
    walk and is excluded from the valleys. The hysteresis (pixels of y
    prominence) absorbs staircase jitter on tilted runs.
    """
    pts = chain.pixels()
    ys = [p[1] for p in pts]
    n = len(pts)
    if n < 8:
        raise LandmarkError(f"contour of {n} pixels is too short for a hand")
    bottom_y = max(ys)
    anchor = ys.index(bottom_y)
    minima, maxima = _alternating_extrema(ys, anchor, hysteresis)
    tips = [pts[_cyclic_midpoint(span, n)] for span in minima]
    valleys = [pts[_cyclic_midpoint(span, n)] for span in maxima]
    if len(tips) != 5 or len(valleys) != 4:
        raise LandmarkError(
            f"expected 5 fingertips and 4 valleys, found {len(tips)} and {len(valleys)}"
        )
    tips.sort()
    valleys.sort()
    for j, valley in enumerate(valleys):
        if not (tips[j][1] < valley[1] and tips[j + 1][1] < valley[1]):
            raise LandmarkError("fingertips do not rise above their valleys")

    bottom = [i for i, y in enumerate(ys) if y == bottom_y]
    wrist = (pts[bottom[0]], pts[bottom[-1]])
    return Landmarks(tips=tips, valleys=valleys, wrist=wrist)
