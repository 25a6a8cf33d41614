"""Chain-code tracing, perimeter arithmetic, and landmark location."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from handgeo import contour
from handgeo.contour import (
    DELTAS,
    ChainCode,
    Landmarks,
    find_landmarks,
    perimeter,
    trace_contour,
)
from handgeo.errors import ContourError, HandGeoError, LandmarkError
from handgeo.imaging import BinaryImage, binarize, boundary_ring, lowpass_filter
from handgeo.synthgen import canonical_params, render


# -- reference tracer: the per-pixel Moore walk the table-driven one replaced --


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


def reference_trace_contour(edges: BinaryImage) -> ChainCode:
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


# -- reference landmarks: the per-pixel walk the run-length one replaced --


def reference_pixels(chain: ChainCode) -> list[tuple[int, int]]:
    """Replay the codes; entry i is the pixel before codes[i] is applied."""
    x0, y0 = chain.start
    xs = accumulate((DELTAS[c][0] for c in chain.codes[:-1]), initial=x0)
    ys = accumulate((DELTAS[c][1] for c in chain.codes[:-1]), initial=y0)
    return list(zip(xs, ys))


def reference_perimeter(chain: ChainCode) -> float:
    if not chain.codes:
        raise ValueError("perimeter of an empty chain is undefined")
    odd = sum(c & 1 for c in chain.codes)
    return (len(chain.codes) - odd) + math.sqrt(2.0) * odd


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


def reference_find_landmarks(chain: ChainCode, hysteresis: int = 3) -> Landmarks:
    """Locate fingertips, inter-finger valleys, and wrist endpoints."""
    pts = reference_pixels(chain)
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


def ring_of(mask):
    """Edge map of a boolean mask."""
    return boundary_ring(BinaryImage(bits=mask.astype(np.uint8)))


def rect_mask(height, width, top=2, left=2, shape=None):
    shape = shape or (height + 2 * top, width + 2 * left)
    mask = np.zeros(shape, dtype=bool)
    mask[top : top + height, left : left + width] = True
    return mask


class TestEncodeDirection:
    """DELTAS maps each code to its (dx, dy) step; the tracer relies on it."""

    def test_east_is_zero(self):
        assert DELTAS[0] == (1, 0)

    def test_north_is_two(self):
        assert DELTAS[2] == (0, -1)

    def test_south_west_is_five(self):
        assert DELTAS[5] == (-1, 1)

    def test_all_eight_neighbours_are_distinct(self):
        neighbours = {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)} - {(0, 0)}
        assert len(DELTAS) == 8 and set(DELTAS) == neighbours


class TestPerimeter:
    def test_four_even_codes_count_one_each(self):
        chain = ChainCode(start=(0, 0), codes=(0, 2, 4, 6))
        assert perimeter(chain) == 4.0

    def test_four_odd_codes_count_root_two_each(self):
        chain = ChainCode(start=(0, 0), codes=(1, 3, 5, 7))
        assert perimeter(chain) == pytest.approx(4 * math.sqrt(2), abs=1e-12)

    def test_mixed_codes_add_both_rules(self):
        chain = ChainCode(start=(0, 0), codes=(0, 1, 2, 3))
        assert perimeter(chain) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)

    def test_empty_chain_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            perimeter(ChainCode(start=(0, 0), codes=()))

    @given(st.integers(1, 500))
    def test_pure_diagonal_staircase_length(self, k):
        chain = ChainCode(start=(0, 0), codes=(1,) * k)
        assert abs(perimeter(chain) - k * math.sqrt(2)) < 1e-9

    def test_rectangle_perimeter_equals_boundary_step_count(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            h, w = rng.integers(3, 40, size=2)
            ring = ring_of(rect_mask(h, w))
            chain = trace_contour(ring)
            assert perimeter(chain) == float(ring.bits.sum())


def _perimeter_outcome(measure, chain):
    try:
        return measure(chain)
    except ValueError as exc:
        return ("error", str(exc))


codes_lists = st.lists(st.integers(0, 7), max_size=300)
starts = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


class TestChainArithmetic:
    """NumPy replay and odd-code count against the per-element forms."""

    @given(starts, codes_lists)
    @example((3, -2), [])
    @example((0, 0), [5])
    def test_pixels_replay_like_accumulate(self, start, codes):
        chain = ChainCode(start=start, codes=tuple(codes))
        assert chain.pixels() == reference_pixels(chain)

    @given(codes_lists)
    @example([])
    @example([3])
    def test_perimeter_counts_odd_codes_like_the_sum(self, codes):
        chain = ChainCode(start=(0, 0), codes=tuple(codes))
        assert _perimeter_outcome(perimeter, chain) == _perimeter_outcome(reference_perimeter, chain)

    @pytest.mark.parametrize("codes", [(8,), (0, 1, -1), (2, 9, 2)])
    def test_codes_outside_0_to_7_are_rejected(self, codes):
        with pytest.raises(ValueError, match="0..7"):
            ChainCode(start=(0, 0), codes=codes)


class TestTraceContour:
    def test_three_by_three_block_boundary(self):
        chain = trace_contour(ring_of(rect_mask(3, 3)))
        assert chain.start == (2, 2)
        assert chain.codes == (6, 6, 0, 0, 2, 2, 4, 4)

    def test_replay_returns_to_start(self):
        chain = trace_contour(ring_of(rect_mask(7, 12)))
        x, y = chain.start
        for c in chain.codes:
            x, y = x + DELTAS[c][0], y + DELTAS[c][1]
        assert (x, y) == chain.start

    def test_empty_edge_map_is_rejected(self):
        with pytest.raises(ContourError, match="closed"):
            trace_contour(BinaryImage(bits=np.zeros((5, 5), dtype=np.uint8)))

    def test_open_arc_is_not_a_loop(self):
        bits = np.zeros((5, 9), dtype=np.uint8)
        bits[2, 1:8] = 1
        with pytest.raises(ContourError):
            trace_contour(BinaryImage(bits=bits))

    def test_longest_of_two_loops_wins(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[2:5, 2:5] = True  # ring of 8 steps
        mask[4:15, 15:26] = True  # ring of 40 steps
        chain = trace_contour(ring_of(mask))
        assert len(chain) == 40

    def test_rotating_the_image_rotates_every_code(self):
        mask = rect_mask(9, 14, shape=(13, 28)) | rect_mask(
            5, 4, top=4, left=20, shape=(13, 28)
        )
        base = trace_contour(ring_of(mask))
        turned = trace_contour(ring_of(np.rot90(mask).copy()))
        mapped = [(c + 2) % 8 for c in base.codes]
        doubled = mapped + mapped
        assert any(
            tuple(doubled[i : i + len(mapped)]) == turned.codes
            for i in range(len(mapped))
        )
        assert abs(perimeter(base) - perimeter(turned)) < 1e-9


@st.composite
def edge_maps(draw):
    """Small binary maps built from rectangle rings, open arcs, isolated
    pixels and random speckle; repeated ring sizes give equal-length loops."""
    height, width = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    bits = np.zeros((height, width), dtype=np.uint8)
    ring_size = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["ring", "same_ring", "arc", "pixel", "speckle"]))
        y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        if kind in ("ring", "same_ring"):
            h, w = ring_size if kind == "same_ring" else (
                draw(st.integers(1, 8)), draw(st.integers(1, 8))
            )
            block = np.zeros_like(bits, dtype=bool)
            block[y : y + h, x : x + w] = True
            # Padded, so a block cut by the border still yields a closed ring.
            bits |= ring_of(np.pad(block, 1)).bits[1:-1, 1:-1]
        elif kind == "arc":
            steps = draw(st.lists(st.sampled_from(DELTAS), min_size=1, max_size=12))
            for dx, dy in steps:
                bits[y, x] = 1
                y, x = min(max(y + dy, 0), height - 1), min(max(x + dx, 0), width - 1)
            bits[y, x] = 1
        elif kind == "pixel":
            bits[y, x] = 1
        else:
            density = draw(st.floats(0.05, 0.6))
            seed = draw(st.integers(0, 2**32 - 1))
            bits |= (np.random.default_rng(seed).random(bits.shape) < density).astype(np.uint8)
    return BinaryImage(bits=bits)


def _outcome(trace, edges):
    try:
        chain = trace(edges)
    except ContourError as exc:
        return ("error", str(exc))
    return ("chain", chain.start, chain.codes)


class TestTableDrivenWalk:
    """The table-driven tracer against the per-pixel Moore walk."""

    @settings(deadline=None, max_examples=300)
    @given(edge_maps())
    def test_same_chain_or_same_error_as_the_moore_walk(self, edges):
        assert _outcome(trace_contour, edges) == _outcome(reference_trace_contour, edges)

    def test_equal_length_loops_keep_the_upper_left_start(self):
        mask = np.zeros((12, 16), dtype=bool)
        mask[6:10, 2:6] = True
        mask[1:5, 9:13] = True
        mask[6:10, 9:13] = True
        edges = ring_of(mask)
        chain = trace_contour(edges)
        assert chain.start == (9, 1)
        assert _outcome(trace_contour, edges) == _outcome(reference_trace_contour, edges)

    def test_renders_trace_like_the_moore_walk(self):
        for seed in range(3):
            img, _ = render(canonical_params(seed), noise_level=0.1)
            edges = boundary_ring(binarize(img))
            assert _outcome(trace_contour, edges) == _outcome(reference_trace_contour, edges)

    @staticmethod
    def _trace_counting_labels(edges, monkeypatch):
        """trace_contour's outcome and how often it labelled components."""
        calls = []
        label = contour._components
        with monkeypatch.context() as m:
            m.setattr(contour, "_components", lambda *a: calls.append(a) or label(*a))
            outcome = _outcome(trace_contour, edges)
        return outcome, len(calls)

    def test_a_lone_hand_is_traced_without_labelling(self, monkeypatch):
        img, _ = render(canonical_params(), noise_level=0.0)
        edges = boundary_ring(binarize(img))
        assert self._trace_counting_labels(edges, monkeypatch) == (
            _outcome(reference_trace_contour, edges),
            0,
        )

    @pytest.mark.parametrize("speck", ["above", "below"])
    def test_a_hand_with_a_detached_speck_falls_back_to_labelling(self, speck, monkeypatch):
        img, _ = render(canonical_params(), noise_level=0.0)
        bits = np.pad(boundary_ring(binarize(img)).bits, 3)
        # Above the hand the speck is the first raster component; below it,
        # the hand's loop comes first but misses the speck.
        bits[1 if speck == "above" else -2, bits.shape[1] // 2] = 1
        edges = BinaryImage(bits=bits)
        assert self._trace_counting_labels(edges, monkeypatch) == (
            _outcome(reference_trace_contour, edges),
            1,
        )

    # Off a corner, the walk steps out to the spur and back over the corner
    # pixel. Beside an edge, it cuts across the ring pixel under the spur,
    # misses it and so cannot rule out a second component.
    @pytest.mark.parametrize("spur, labelled", [((1, 10), 0), ((5, 10), 1), ((1, 6), 1)])
    def test_a_ring_with_a_one_pixel_spur(self, spur, labelled, monkeypatch):
        bits = ring_of(rect_mask(6, 8)).bits
        bits[spur] = 1
        edges = BinaryImage(bits=bits)
        outcome = _outcome(reference_trace_contour, edges)
        assert self._trace_counting_labels(edges, monkeypatch) == (outcome, labelled)
        assert outcome[0] == "chain"

    def test_an_open_arc_before_a_loop_falls_back_to_the_loop(self, monkeypatch):
        bits = np.pad(ring_of(rect_mask(5, 7)).bits, ((4, 0), (0, 0)))
        bits[1, 1:8] = 1  # the first raster component: an open arc
        edges = BinaryImage(bits=bits)
        outcome, labelled = self._trace_counting_labels(edges, monkeypatch)
        assert (outcome, labelled) == (_outcome(reference_trace_contour, edges), 1)
        assert outcome[:2] == ("chain", (2, 6))


@pytest.fixture(scope="module")
def hand_chain():
    img, _ = render(canonical_params(), noise_level=0.0)
    edges = boundary_ring(binarize(img))
    return trace_contour(edges)


class TestFindLandmarks:

    def test_five_tips_and_four_valleys_on_a_clean_hand(self, hand_chain):
        marks = find_landmarks(hand_chain)
        assert len(marks.tips) == 5 and len(marks.valleys) == 4

    def test_landmarks_lie_on_the_contour(self, hand_chain):
        marks = find_landmarks(hand_chain)
        on_contour = set(hand_chain.pixels())
        for pt in [*marks.tips, *marks.valleys, *marks.wrist]:
            assert pt in on_contour

    def test_tips_sit_above_their_valleys(self, hand_chain):
        marks = find_landmarks(hand_chain)
        highest_valley = min(y for _, y in marks.valleys)
        assert all(y < highest_valley for _, y in marks.tips)

    def test_wrist_spans_the_lowest_contour_row(self, hand_chain):
        marks = find_landmarks(hand_chain)
        bottom = max(y for _, y in hand_chain.pixels())
        (lx, ly), (rx, ry) = marks.wrist
        assert ly == bottom and ry == bottom and lx < rx

    def test_triangle_blob_reports_its_single_tip(self):
        mask = np.zeros((40, 40), dtype=bool)
        for i in range(20):
            mask[10 + i, 20 - i : 20 + i + 1] = True
        with pytest.raises(LandmarkError, match="found 1 and 0"):
            find_landmarks(trace_contour(ring_of(mask)))


def _landmark_outcome(locate, chain):
    try:
        return locate(chain)
    except LandmarkError as exc:
        return ("error", str(exc))


def assert_landmarks_like_the_reference(chain):
    assert _landmark_outcome(find_landmarks, chain) == _landmark_outcome(
        reference_find_landmarks, chain
    )


@st.composite
def comb_masks(draw):
    """Fingers-up blobs: a palm block with 0-7 teeth of random width, height
    and place, minus random notches. Most have the wrong finger count."""
    width = draw(st.integers(12, 80))
    mask = np.zeros((60, width + 6), dtype=bool)
    mask[35:55, 3 : width + 3] = True
    for _ in range(draw(st.integers(0, 7))):
        x, w = draw(st.integers(3, width + 2)), draw(st.integers(1, 8))
        mask[draw(st.integers(2, 34)) : 35, x : x + w] = True
    for _ in range(draw(st.integers(0, 3))):
        y, x = draw(st.integers(2, 54)), draw(st.integers(3, width + 2))
        mask[y : y + draw(st.integers(1, 4)), x : x + draw(st.integers(1, 4))] = False
    return mask


@st.composite
def finger_chains(draw):
    """Open westward chains whose y profile rises and falls four to six
    times by random steps: plateaus broken by one-pixel bumps, levels
    revisited and wiggles below the hysteresis."""
    codes = [4] * draw(st.integers(0, 5))
    for _ in range(draw(st.integers(4, 6))):
        for mix in ([3, 3, 3, 3, 4, 4, 5], [5, 5, 5, 5, 4, 4, 3]):  # up, then down
            codes += draw(st.lists(st.sampled_from(mix), min_size=8, max_size=30))
    return ChainCode(start=(200, 100), codes=tuple(codes))


class TestRunLengthLandmarks:
    """find_landmarks against the per-pixel extrema walk it replaced."""

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**16),
        st.floats(0.0, 0.45),
        st.floats(60.0, 140.0),
    )
    def test_traced_renders(self, seed, noise, dpi):
        img, _ = render(canonical_params(seed), dpi=dpi, noise_level=noise)
        try:
            chain = trace_contour(boundary_ring(binarize(lowpass_filter(img))))
        except ContourError:
            assume(False)
        assert_landmarks_like_the_reference(chain)

    @settings(deadline=None, max_examples=200)
    @given(comb_masks())
    @example(rect_mask(10, 20))  # one plateau: found 1 and 0
    def test_closed_masks(self, mask):
        try:
            chain = trace_contour(ring_of(mask))
        except ContourError:
            assume(False)
        assert_landmarks_like_the_reference(chain)

    @settings(deadline=None, max_examples=150)
    @given(finger_chains())
    def test_finger_profiles(self, chain):
        assert_landmarks_like_the_reference(chain)

    @settings(max_examples=300)
    @given(starts, codes_lists)
    def test_arbitrary_chains(self, start, codes):
        chain = ChainCode(start=start, codes=tuple(codes))
        assert_landmarks_like_the_reference(chain)
