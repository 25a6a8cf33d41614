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

import numpy as np

from .errors import ContourError, LandmarkError
from .imaging import BinaryImage

#: (dx, dy) step of each direction code.
DELTAS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))
_DX = np.array([dx for dx, _ in DELTAS])
_DY = np.array([dy for _, dy in DELTAS])
_CODES = frozenset(range(8))

_SQRT2 = math.sqrt(2.0)

#: y prominence, in pixels, that separates a fingertip from a valley.
_HYSTERESIS = 3


def _as_array(codes: tuple[int, ...] | list[int]) -> np.ndarray:
    """Direction codes as a uint8 array (bytes() converts ints in C)."""
    return np.frombuffer(bytes(codes), dtype=np.uint8)


@dataclass
class ChainCode:
    """Start pixel plus the sequence of 3-bit direction codes."""

    start: tuple[int, int]  # (x, y)
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.start = (int(self.start[0]), int(self.start[1]))
        self.codes = tuple(self.codes)
        if not _CODES.issuperset(self.codes):
            raise ValueError("chain codes must be in 0..7")

    def __len__(self) -> int:
        return len(self.codes)

    def _replay(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y arrays of the pixels before each code is applied."""
        x0, y0 = self.start
        steps = _as_array(self.codes[:-1])
        xs = np.cumsum(np.concatenate(([x0], _DX[steps])))
        ys = np.cumsum(np.concatenate(([y0], _DY[steps])))
        return xs, ys

    def pixels(self) -> list[tuple[int, int]]:
        """Replay the codes; entry i is the pixel before codes[i] is applied."""
        xs, ys = self._replay()
        return list(zip(xs.tolist(), ys.tolist()))


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
    odd = int(np.count_nonzero(_as_array(chain.codes) & 1))
    return (len(chain.codes) - odd) + _SQRT2 * odd


#: _NEXT[occupancy * 8 + backtrack]: first direction counter-clockwise after
#: `backtrack` whose bit is set in the 8-bit neighbour occupancy (bit c set
#: when the neighbour in direction c is foreground); None when no bit is set.
_NEXT = tuple(
    next((c % 8 for c in range(b + 1, b + 9) if occ >> (c % 8) & 1), None)
    for occ in range(256)
    for b in range(8)
)


#: _DIRECTIONS[occupancy]: the direction codes whose bit is set.
_DIRECTIONS = tuple(tuple(c for c in range(8) if occ >> c & 1) for occ in range(256))


def _trace_loop(
    occ: dict[int, int], offsets: tuple[int, ...], start: int, size: int
) -> tuple[list[int], int] | None:
    """Moore walk from flat index `start` over a padded, flattened edge map.

    `occ` maps each foreground index to 8 times its neighbour occupancy (a
    row offset into _NEXT), `offsets` gives the flat step of each direction
    code and `size` bounds the pixel count of the start's component. Returns
    the codes and the number of distinct pixels walked, or None when the
    component holds no cycle.
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
    walked = start + np.cumsum(np.take(offsets, _as_array(codes)))  # ends back at start
    span = int(walked.max()) + 1
    seen = np.zeros(span, dtype=bool)
    seen[walked] = True
    pixels = int(np.count_nonzero(seen))
    # A walk that covers every pixel-pair twice retraced an open arc. It
    # joins its pixels by at least pixels - 1 pairs, so it takes at least
    # twice that many codes.
    if len(codes) >= 2 * (pixels - 1):
        a, b = np.concatenate(([start], walked[:-1])), walked
        pairs = np.minimum(a, b) * span + np.maximum(a, b)
        _, counts = np.unique(pairs, return_counts=True)
        if not (counts == 1).any():
            return None
    return codes, pixels


def _components(occ: dict[int, int], offsets: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, pixel count) of each 8-connected component of the edge map.

    `occ` and `offsets` are as in _trace_loop. Its keys are in raster order,
    so the first key each search reaches is its component's topmost-then-
    leftmost pixel, the start the walk takes.
    """
    found: list[tuple[int, int]] = []
    seen: set[int] = set()
    for start in occ:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        size = 0
        while stack:
            p = stack.pop()
            size += 1
            for c in _DIRECTIONS[occ[p] >> 3]:
                q = p + offsets[c]
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        found.append((start, size))
    return found


def trace_contour(edges: BinaryImage) -> ChainCode:
    """Chain code of the longest closed loop in an edge map.

    Traversal is counter-clockwise from the loop's topmost-then-leftmost
    pixel. Equal-length loops tie-break on the smaller (y, x) start.
    """
    # A one-pixel zero border lets every neighbour lookup index the flat map.
    height, width = (n + 2 for n in edges.bits.shape)
    padded = np.zeros((height, width), dtype=bool)
    padded[1:-1, 1:-1] = edges.bits
    flat = padded.ravel()
    offsets = tuple(dy * width + dx for dx, dy in DELTAS)
    idx = np.flatnonzero(flat)
    nbits = np.zeros(idx.size, dtype=np.int64)
    for c, off in enumerate(offsets):
        nbits |= flat[idx + off].astype(np.int64) << c
    occ = dict(zip(idx.tolist(), (nbits * 8).tolist()))

    # idx is in raster order, so idx[0] is the topmost-then-leftmost pixel of
    # its component. A loop from it that visits every edge pixel is the only
    # loop, and labelling the components would find nothing else.
    if idx.size:
        start = int(idx[0])
        walk = _trace_loop(occ, offsets, start, idx.size)
        if walk is not None and walk[1] == idx.size:
            y, x = divmod(start, width)  # padded coordinates
            return ChainCode(start=(x - 1, y - 1), codes=tuple(walk[0]))

    best: ChainCode | None = None
    for start, size in _components(occ, offsets):
        walk = _trace_loop(occ, offsets, start, size)
        if walk is None:
            continue
        y, x = divmod(start, width)  # padded coordinates
        chain = ChainCode(start=(x - 1, y - 1), codes=tuple(walk[0]))
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
    levels: list[int],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cyclic minima/maxima plateaus of a y profile with _HYSTERESIS prominence.

    `levels` holds the y of each run of equal y, walking one full cycle from
    just after the anchor (an index attaining the global maximum, whose run
    ends the walk and is not itself reported). Returns (minima, maxima) as
    (first, last) attainment pairs of indices into `levels`, in walk order.
    """
    minima: list[tuple[int, int]] = []
    maxima: list[tuple[int, int]] = []
    seeking_min = True
    best, first, last = levels[-1], 0, 0  # the anchor's y; no span is reported yet
    for i, y in enumerate(levels):
        if seeking_min:
            if y < best:
                best, first, last = y, i, i
            elif y == best:
                last = i
            elif y >= best + _HYSTERESIS:
                minima.append((first, last))
                seeking_min, best, first, last = False, y, i, i
        else:
            if y > best:
                best, first, last = y, i, i
            elif y == best:
                last = i
            elif y <= best - _HYSTERESIS:
                maxima.append((first, last))
                seeking_min, best, first, last = True, y, i, i
    return minima, maxima


def find_landmarks(chain: ChainCode) -> Landmarks:
    """Locate fingertips, inter-finger valleys, and wrist endpoints.

    Requires a fingers-up hand traversed counter-clockwise. Fingertips are
    the contour's local y-minima (the midpoints of ascending-band to
    descending-band transitions), valleys the local y-maxima between
    fingers; the wrist crossing at the contour's bottommost row anchors the
    walk and is excluded from the valleys. The _HYSTERESIS pixels of y
    prominence absorb staircase jitter on tilted runs.
    """
    xs, ys = chain._replay()
    n = ys.size
    if n < 8:
        raise LandmarkError(f"contour of {n} pixels is too short for a hand")
    bottom_y = int(ys.max())
    bottom = np.flatnonzero(ys == bottom_y)
    anchor = int(bottom[0])
    # The walk visits the y profile from just after the anchor round to it.
    # Each run of equal y moves the extrema walker as one entry would: the
    # entries after the first only extend its span. So the walker steps over
    # the runs, and run spans map back to first and last pixel positions.
    walk = np.roll(ys, -(anchor + 1))
    starts = np.flatnonzero(np.diff(walk, prepend=walk[-1] + 1))
    ends = np.append(starts[1:], n) - 1
    minima, maxima = _alternating_extrema(walk[starts].tolist())

    def point(span: tuple[int, int]) -> tuple[int, int]:
        first, last = int(starts[span[0]]), int(ends[span[1]])
        i = (anchor + 1 + first + (last - first) // 2) % n
        return int(xs[i]), int(ys[i])

    tips = [point(span) for span in minima]
    valleys = [point(span) for span in maxima]
    if len(tips) != 5 or len(valleys) != 4:
        raise LandmarkError(
            f"expected 5 fingertips and 4 valleys, found {len(tips)} and {len(valleys)}"
        )
    tips.sort()
    valleys.sort()
    for j, valley in enumerate(valleys):
        if not (tips[j][1] < valley[1] and tips[j + 1][1] < valley[1]):
            raise LandmarkError("fingertips do not rise above their valleys")

    wrist = ((int(xs[bottom[0]]), bottom_y), (int(xs[bottom[-1]]), bottom_y))
    return Landmarks(tips=tips, valleys=valleys, wrist=wrist)
