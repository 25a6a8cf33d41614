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
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ContourError, LandmarkError
from .imaging import BinaryImage

#: (dx, dy) step of each direction code.
DELTAS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))
_CODE_OF = {d: c for c, d in enumerate(DELTAS)}

_SQRT2 = math.sqrt(2.0)


@dataclass
class ChainCode:
    """Start pixel plus the sequence of 3-bit direction codes."""

    start: tuple[int, int]  # (x, y)
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.start = (int(self.start[0]), int(self.start[1]))
        self.codes = tuple(int(c) for c in self.codes)
        if any(not 0 <= c <= 7 for c in self.codes):
            raise ValueError("chain codes must be in 0..7")

    def __len__(self) -> int:
        return len(self.codes)

    def pixels(self) -> list[tuple[int, int]]:
        """Replay the codes; entry i is the pixel before codes[i] is applied."""
        x, y = self.start
        pts = [(x, y)]
        for c in self.codes[:-1]:
            dx, dy = DELTAS[c]
            x, y = x + dx, y + dy
            pts.append((x, y))
        return pts

    def end(self) -> tuple[int, int]:
        """Pixel reached after replaying every code."""
        x, y = self.start
        for c in self.codes:
            dx, dy = DELTAS[c]
            x, y = x + dx, y + dy
        return (x, y)

    def is_closed(self) -> bool:
        return self.end() == self.start


@dataclass
class Landmarks:
    """Contour anchor points of a fingers-up hand."""

    tips: list[tuple[int, int]]  # thumb..little, ordered by x
    valleys: list[tuple[int, int]]  # between adjacent fingers, ordered by x
    wrist: tuple[tuple[int, int], tuple[int, int]]  # traversal order: left, right


def encode_direction(frm: tuple[int, int], to: tuple[int, int]) -> int:
    """Direction code of a single step between 8-neighbours."""
    delta = (to[0] - frm[0], to[1] - frm[1])
    code = _CODE_OF.get(delta)
    if code is None:
        raise ValueError(f"{to} is not an 8-neighbour of {frm}")
    return code


def perimeter(chain: ChainCode) -> float:
    """Chain length in pixel units: +1 per even code, +sqrt(2) per odd."""
    if not chain.codes:
        raise ValueError("perimeter of an empty chain is undefined")
    odd = sum(c & 1 for c in chain.codes)
    return (len(chain.codes) - odd) + _SQRT2 * odd


def _next_step(bits: np.ndarray, x: int, y: int, backtrack: int) -> int | None:
    """First occupied neighbour scanning counter-clockwise after `backtrack`."""
    h, w = bits.shape
    for k in range(1, 9):
        c = (backtrack + k) % 8
        dx, dy = DELTAS[c]
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx]:
            return c
    return None


def _trace_loop(bits: np.ndarray, start: tuple[int, int]) -> ChainCode | None:
    """Moore walk from `start`; None when the component holds no cycle."""
    x0, y0 = start
    first = _next_step(bits, x0, y0, 4)
    if first is None:
        return None
    codes: list[int] = []
    edge_once: set[frozenset[tuple[int, int]]] = set()
    edge_twice: set[frozenset[tuple[int, int]]] = set()
    x, y, backtrack = x0, y0, 4
    limit = 4 * int(bits.sum()) + 8
    while True:
        c = _next_step(bits, x, y, backtrack)
        if (x, y) == (x0, y0) and codes and c == first:
            break
        codes.append(c)
        if len(codes) > limit:
            raise ContourError("contour walk failed to close")
        dx, dy = DELTAS[c]
        edge = frozenset({(x, y), (x + dx, y + dy)})
        (edge_twice if edge in edge_once else edge_once).add(edge)
        x, y, backtrack = x + dx, y + dy, (c + 4) % 8
    # A walk that covers every pixel-pair twice retraced an open arc.
    if len(codes) < 4 or not (edge_once - edge_twice):
        return None
    return ChainCode(start=start, codes=tuple(codes))


def trace_contour(edges: BinaryImage) -> ChainCode:
    """Chain code of the longest closed loop in an edge map.

    Traversal is counter-clockwise from the loop's topmost-then-leftmost
    pixel. Equal-length loops tie-break on the smaller (y, x) start.
    """
    labels, count = ndimage.label(edges.bits, structure=np.ones((3, 3), dtype=int))
    best: ChainCode | None = None
    for lab in range(1, count + 1):
        mask = labels == lab
        ys, xs = np.nonzero(mask)
        top = int(np.lexsort((xs, ys))[0])
        chain = _trace_loop(mask, (int(xs[top]), int(ys[top])))
        if chain is None:
            continue
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
    ys: np.ndarray, anchor: int, hysteresis: int
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
    best = int(ys[anchor])
    first = last = anchor
    for k in range(1, n + 1):
        i = (anchor + k) % n
        y = int(ys[i])
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
    ys = np.array([p[1] for p in pts])
    n = len(pts)
    if n < 8:
        raise LandmarkError(f"contour of {n} pixels is too short for a hand")
    anchor = int(np.argmax(ys))
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

    bottom = np.nonzero(ys == ys[anchor])[0]
    wrist = (pts[int(bottom[0])], pts[int(bottom[-1])])
    return Landmarks(tips=tips, valleys=valleys, wrist=wrist)


def save_chain(chain: ChainCode, path: str | Path) -> None:
    """Text form: first line "x y" of the start, second line the code digits."""
    x, y = chain.start
    text = f"{x} {y}\n" + "".join(str(c) for c in chain.codes) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_chain(path: str | Path) -> ChainCode:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise ValueError(f"chain file {path} needs a start line and a code line")
    x, y = (int(v) for v in lines[0].split())
    return ChainCode(start=(x, y), codes=tuple(int(ch) for ch in lines[1].strip()))
