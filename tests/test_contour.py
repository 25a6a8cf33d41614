"""Chain-code tracing, perimeter arithmetic, and landmark location."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from handgeo.contour import (
    DELTAS,
    ChainCode,
    find_landmarks,
    perimeter,
    trace_contour,
)
from handgeo.errors import ContourError, LandmarkError
from handgeo.imaging import BinaryImage, binarize, boundary_ring
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
