"""Closed-contour tracing, 8-direction chain coding, and landmark detection.

Direction codes (image y grows downward, so "north" decreases y):

    3 2 1
    4 . 0
    5 6 7

Even codes step one pixel unit, odd codes sqrt(2). A chain holds its codes
as a read-only uint8 array. Contours are traversed counter-clockwise as seen
on screen, which keeps the silhouette interior on the walker's left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, LandmarkError
from .imaging import BinaryImage

#: (dx, dy) step of each direction code.
DELTAS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))
#: Row 0 holds the dx of each code, row 1 the dy.
_STEPS = np.array(DELTAS).T.copy()
_DX, _DY = _STEPS

_SQRT2 = math.sqrt(2.0)

#: y prominence, in pixels, that separates a fingertip from a valley.
_HYSTERESIS = 3

#: Least ratio of the wrist run to the widest interior finger base, valley to
#: valley, that find_landmarks accepts. Two samples of every person of the
#: corpora of seeds 0-4 and 7 give 2.30-2.74 upright; the same hands turned
#: 180 degrees or flipped upside down, whose "tips" are the arm cut and palm
#: corners, give 0.20-1.23.
_MIN_WRIST_TO_FINGER = 1.5


@dataclass
class ChainCode:
    """Start pixel plus the sequence of 3-bit direction codes.

    `codes` may be any 1-D sequence of integers in 0..7; the chain holds a
    read-only uint8 copy, so the caller's sequence may change afterwards.
    """

    start: tuple[int, int]  # (x, y)
    codes: np.ndarray  # read-only uint8

    def __post_init__(self) -> None:
        self.start = (int(self.start[0]), int(self.start[1]))
        codes = np.asarray(self.codes)
        # An empty sequence makes a float array, and is a chain of no codes.
        if codes.ndim != 1 or codes.size and (
            codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() > 7
        ):
            raise ValueError("chain codes must be integers in 0..7")
        self.codes = codes.astype(np.uint8)
        self.codes.flags.writeable = False

    @classmethod
    def _fresh(cls, start: tuple[int, int], codes: np.ndarray) -> ChainCode:
        """A chain of int coordinates and a new uint8 array of codes in 0..7
        that no one else holds, built without the check and the copy."""
        chain = object.__new__(cls)
        codes.flags.writeable = False
        chain.start, chain.codes = start, codes
        return chain

    def __len__(self) -> int:
        return len(self.codes)

    def _replay(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y arrays of the pixels before each code is applied: one
        cumulative sum over the start and the steps, in one block."""
        xy = np.empty((2, max(len(self.codes), 1)), dtype=np.int64)
        xy[:, 0] = self.start
        _STEPS.take(self.codes[:-1], axis=1, out=xy[:, 1:])
        np.cumsum(xy, axis=1, out=xy)
        return xy[0], xy[1]

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
    if not chain.codes.size:
        raise ValueError("perimeter of an empty chain is undefined")
    odd = int(np.count_nonzero(chain.codes & 1))
    return (len(chain.codes) - odd) + _SQRT2 * odd


@dataclass
class _States:
    """Moore-walk states of the edge pixels of one map.

    A state is an edge pixel with a backtrack: a direction in which its
    neighbour is foreground. States are numbered by the pixel's rank (its
    index among the edge pixels in raster order), then by backtrack. From a
    state the walk steps in direction `codes`, the pixel's next foreground
    direction counter-clockwise after the backtrack, into state `succ`,
    whose backtrack points back. A state's predecessor is unique too: the
    backtrack names the pixel and the code it came by, and that pixel's
    backtrack was its foreground direction just before the code. So the
    states fall into disjoint cycles, and a walk comes back to the state it
    starts in.

    A pixel with states starts its component's walk exactly when it is the
    lowest-ranked pixel on the cycle through its closing state. The
    component's first pixel is the lowest rank of any cycle through it. A
    pixel with a neighbour earlier in raster order (codes 1-4) closes on a
    state whose code steps to one, and the cycle of every other pixel
    reaches an earlier one too, as the tests check against SciPy's labels.

    `closing` holds the closing state of each pixel with states, in rank
    order: its first (backtrack 0) when its east neighbour is foreground,
    else its last. Its code is the first foreground direction after east,
    east last, which a walk from a topmost-then-leftmost pixel takes first:
    that pixel's neighbours lie east (0) or below (5-7).
    """

    rank: np.ndarray
    codes: np.ndarray
    succ: np.ndarray
    closing: np.ndarray

    @classmethod
    def of(cls, around: np.ndarray) -> _States:
        rank = np.flatnonzero(around)  # rank * 8 + backtrack, for now
        backtrack = (rank & 7).astype(np.uint8)
        rank >>= 3
        # A state's code is the backtrack of its pixel's next state, cyclically.
        bounds = _run_bounds(rank)
        firsts, lasts = bounds[:-1], bounds[1:] - 1
        turn = np.arange(1, rank.size + 1)
        turn[lasts] = firsts
        closing = np.where(backtrack[firsts] == 0, firsts, lasts)
        return cls(rank=rank, codes=backtrack[turn], succ=_twins(backtrack)[turn], closing=closing)


def _run_bounds(values: np.ndarray) -> np.ndarray:
    """The index of the first entry of each run of equal values, then
    values.size."""
    new = np.ones(values.size + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _twins(backtrack: np.ndarray) -> np.ndarray:
    """The state entered by stepping along each state's backtrack.

    Stepping from pixel p in direction d enters (p + d, d + 4 mod 8), and that
    state's step leads back. Taken in state order, the k-th state of
    backtrack d pairs with the k-th state of backtrack d + 4, since p + d runs
    in p's order. So the states of backtracks 0-3, grouped by backtrack, line
    up with those of 4-7, and the two halves are equally large.
    """
    grouped = np.argsort(backtrack, kind="stable")
    half = grouped.size // 2
    twins = np.empty_like(grouped)
    twins[grouped[:half]] = grouped[half:]
    twins[grouped[half:]] = grouped[:half]
    return twins


def _walk(succ: np.ndarray, closing: np.ndarray) -> list[np.ndarray]:
    """The states of each walk from a closing state back to it: one array
    per entry of `closing`, the closing state first. The entries lie on
    distinct cycles, in ascending order.

    A copy of succ sends each cycle's last state on to the next cycle's
    closing state, and the last cycle's on to the first's. That joins the
    cycles into one, which one _cycle walks, and the path splits at the
    closing states.
    """
    if not closing.size:
        return []
    closes = np.zeros(succ.size, dtype=bool)
    closes[closing] = True
    # A cycle's last state is the one whose successor closes it.
    lasts = np.flatnonzero(closes[succ])
    joined = succ.copy()
    joined[lasts[np.argsort(succ[lasts])]] = np.concatenate((closing[1:], closing[:1]))
    path = _cycle(joined, int(closing[0]))
    return np.split(path, np.flatnonzero(closes[path])[1:])


def _cycle(succ: np.ndarray, start: int) -> np.ndarray:
    """The states of the walk from state `start` back to it, `start` first,
    by pointer doubling: with its first w states and `jump` = succ applied
    w times, jump[path] holds its next w; then w doubles and jump squares.
    It ends in the round that brings `start` back, as the states form cycles.

    The path fills one buffer in place, its next w states gathered after
    its first w. A walk holds at most succ.size states, so the entry that
    brings `start` back lies within succ.size + 1 entries.
    """
    path = np.empty(succ.size + 1, dtype=succ.dtype)
    path[0] = start
    width = 1
    jump = succ
    while True:
        ahead = path[width : 2 * width]
        # Every index is a state; "clip" lets take write into `ahead` unbuffered.
        jump.take(path[: ahead.size], out=ahead, mode="clip")
        (back,) = (ahead == start).nonzero()
        if back.size:
            return path[: width + back[0]]
        width *= 2
        jump = jump.take(jump)


def _loop(states: _States, walk: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Codes and distinct pixel count of a closed walk, or None when the walk
    is no loop: it takes fewer than 4 codes or retraces an open arc."""
    if walk.size < 4:
        return None
    ranks = states.rank[walk]  # the pixel each code leaves, the start first
    span = int(ranks.max()) + 1
    seen = np.zeros(span, dtype=bool)
    seen[ranks] = True
    pixels = int(np.count_nonzero(seen))
    # A walk that covers every pixel-pair twice retraced an open arc. It
    # joins its pixels by at least pixels - 1 pairs, so it takes at least
    # twice that many codes.
    if walk.size >= 2 * (pixels - 1):
        a = ranks.astype(np.int64)
        b = np.concatenate((a[1:], a[:1]))
        pairs = np.minimum(a, b) * span + np.maximum(a, b)
        _, counts = np.unique(pairs, return_counts=True)
        if not (counts == 1).any():
            return None
    return states.codes[walk], pixels


def _component_starts(states: _States) -> np.ndarray:
    """The closing state of each component's first pixel, in rank order:
    the closing state of each pixel that is the lowest rank on its cycle
    (see _States). Lone pixels have no state and start no walk.

    Rounds double w as _cycle does: low[i] is the lowest rank on the w
    states from state i, jump is succ applied w times. A round that lowers
    no entry leaves low constant on each orbit of jump, and the windows that
    end at a cycle's lowest state carry its rank into every orbit.
    """
    low = states.rank.astype(np.int32)  # half the bytes, for dense maps' millions of states
    jump = states.succ
    while True:
        ahead = low[jump]
        if (ahead >= low).all():
            break
        np.minimum(low, ahead, out=low)
        jump = jump[jump]
    return states.closing[low[states.closing] == states.rank[states.closing]]


def trace_contour(edges: BinaryImage) -> ChainCode:
    """Chain code of the longest closed loop in an edge map.

    Traversal is counter-clockwise from the loop's topmost-then-leftmost
    pixel. Of equal-length loops, the one whose start comes first in raster
    order wins.
    """
    # A one-pixel zero border lets every neighbour lookup index the flat map.
    height, width = (n + 2 for n in edges.bits.shape)
    padded = np.zeros((height, width), dtype=bool)
    padded[1:-1, 1:-1] = edges.bits
    flat = padded.ravel()
    idx = np.flatnonzero(flat)
    states = _States.of(flat[idx[:, None] + (_DY * width + _DX)])

    def chain(rank: int, codes: np.ndarray) -> ChainCode:
        y, x = divmod(int(idx[rank]), width)  # padded coordinates
        # Fancy indexing of the uint8 state table made the codes.
        return ChainCode._fresh((x - 1, y - 1), codes)

    # idx is in raster order, so idx[0] is the topmost-then-leftmost pixel of
    # its component. A loop from it that visits every edge pixel is the only
    # loop, and no other component has a start. A lone pixel has no
    # foreground neighbour, so no state, and starts no walk; pixel 0 has
    # states when state 0 is its.
    if states.rank.size and states.rank[0] == 0:
        loop = _loop(states, _cycle(states.succ, int(states.closing[0])))
        if loop is not None and loop[1] == idx.size:
            return chain(0, loop[0])

    starts = _component_starts(states)
    walks = _walk(states.succ, starts)
    # Longest first; sorted is stable, so equal lengths stay in raster order.
    for i in sorted(range(len(walks)), key=lambda i: -walks[i].size):
        loop = _loop(states, walks[i])
        if loop is not None:
            return chain(int(states.rank[starts[i]]), loop[0])
    raise ContourError("no closed contour loop found in the edge map")


def _alternating_extrema(
    levels: list[int],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cyclic minima/maxima plateaus of a y profile with _HYSTERESIS prominence.

    `levels` holds the y of a profile's runs of equal y (or of the turning
    points among them), walking one full cycle from just after the anchor
    (an index attaining the global maximum, whose run ends the walk and is
    not itself reported). Returns (minima, maxima) as (first, last)
    attainment pairs of indices into `levels`, in walk order.
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
    prominence absorb staircase jitter on tilted runs. The wrist is the
    ends of the bottommost row. A wrist run, the x extent of the contour
    within _HYSTERESIS rows of its bottom, under _MIN_WRIST_TO_FINGER times
    the widest interior finger base, measured valley to valley, marks a
    turned hand and is refused.
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
    walk = np.concatenate((ys[anchor + 1 :], ys[: anchor + 1]))
    bounds = _run_bounds(walk)
    starts, ends = bounds[:-1], bounds[1:] - 1
    levels = walk[starts]
    # A run strictly between its neighbours' levels never starts or ends a
    # span, and an extremum it would commit the next run commits alike. So
    # the walker steps over the turning points alone, the first and last
    # (the anchor's) runs kept.
    rises = levels[1:] > levels[:-1]
    turns = np.ones(levels.size, dtype=bool)
    turns[1:-1] = rises[1:] != rises[:-1]
    starts, ends = starts[turns], ends[turns]
    minima, maxima = _alternating_extrema(levels[turns].tolist())

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
    # The forearm is wider than any finger, so a narrow "wrist" is a hand
    # that entered the glass from the other side. The run is the x extent of
    # the contour's bottom _HYSTERESIS rows, not of its bottom row alone:
    # a forearm tilted by half a degree meets that row in a short run.
    band = xs[ys > bottom_y - _HYSTERESIS]
    run = int(band.max() - band.min())
    base = max(math.dist(valleys[j - 1], valleys[j]) for j in (1, 2, 3))
    if run < _MIN_WRIST_TO_FINGER * base:
        raise LandmarkError(
            f"wrist run of {run} px is under {_MIN_WRIST_TO_FINGER} times the widest"
            f" interior finger base of {base:.1f} px: the hand is not upright"
        )
    return Landmarks(tips=tips, valleys=valleys, wrist=wrist)
