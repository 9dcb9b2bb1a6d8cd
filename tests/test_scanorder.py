"""Scan-order construction: spirals, the mask-aware order, pixel lifting,
and the text dump format.

The 4x4 trace in test_mask_aware_order_frozen_trace was worked out by hand
once and is frozen here; any change to tie-breaking rules will trip it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan.autodiff import invert_permutation
from shadowscan.errors import InputError
from shadowscan.scanorder import (
    DIRECTIONS,
    KIND_HORIZONTAL,
    KIND_MAS,
    RegionRect,
    ScanPath,
    _nearest_unvisited,
    _touch,
    dump_path,
    gbs_traverse,
    horizontal_order,
    mas_order,
    mean_adjacent_gap,
    partition_patches,
    pixel_order,
    select_start_a,
    shadow_rect,
    spiral_in,
)


def _rect_mask(rows, cols, rect):
    mask = np.zeros((rows, cols))
    mask[rect.top : rect.bottom + 1, rect.left : rect.right + 1] = 1.0
    return mask


def _inside(rect, cell):
    r, c = cell
    return rect.top <= r <= rect.bottom and rect.left <= c <= rect.right


def test_horizontal_order():
    path = horizontal_order(2, 3)
    assert path.coords == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert path.kind == KIND_HORIZONTAL
    assert path.patch == 1
    assert np.array_equal(path.flat, np.arange(6))
    assert path.is_permutation()
    with pytest.raises(InputError):
        horizontal_order(0, 3)


def test_select_start_a_nearest_edges():
    # rect rows 1..2, cols 5..6 in an 8x8 grid: top and right edges win
    assert select_start_a(RegionRect(1, 2, 5, 6), 8, 8) == (0, 7)
    # fully symmetric: ties resolve to top then left
    assert select_start_a(RegionRect(1, 2, 1, 2), 4, 4) == (0, 0)
    with pytest.raises(InputError):
        select_start_a(RegionRect(0, 4, 0, 1), 4, 4)


# today's start corner rule, ranking four edges with a tie order: the
# oracle that the per-axis rule must reproduce
_EDGE_ORDER = ("top", "bottom", "left", "right")


def _select_start_a_by_edges(rect, rows, cols):
    dist = {
        "top": rect.top,
        "bottom": rows - 1 - rect.bottom,
        "left": rect.left,
        "right": cols - 1 - rect.right,
    }
    if min(dist.values()) < 0:
        raise InputError(f"rect {rect} exceeds grid {rows}x{cols}")
    edge1 = min(_EDGE_ORDER, key=lambda e: (dist[e], _EDGE_ORDER.index(e)))
    orthogonal = ("left", "right") if edge1 in ("top", "bottom") else ("top", "bottom")
    edge2 = min(orthogonal, key=lambda e: (dist[e], _EDGE_ORDER.index(e)))
    picked = {edge1, edge2}
    return (0 if "top" in picked else rows - 1, 0 if "left" in picked else cols - 1)


def _all_rects(rows, cols):
    for top in range(rows):
        for bottom in range(top, rows):
            for left in range(cols):
                for right in range(left, cols):
                    yield RegionRect(top, bottom, left, right)


def test_select_start_a_per_axis_equals_the_edge_ranking():
    # every rect of every grid up to 12x12
    cases = 0
    for rows in range(1, 13):
        for cols in range(1, 13):
            for rect in _all_rects(rows, cols):
                assert select_start_a(rect, rows, cols) == _select_start_a_by_edges(rect, rows, cols), (rect, rows, cols)
                cases += 1
    assert cases == 132_496


def test_spiral_full_square_from_corner():
    rect = RegionRect(0, 2, 0, 2)
    assert spiral_in(rect, (0, 0)) == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 2),
        (2, 1),
        (2, 0),
        (1, 0),
        (1, 1),
    ]


def test_spiral_start_must_be_a_corner():
    with pytest.raises(InputError):
        spiral_in(RegionRect(0, 2, 0, 2), (1, 1))
    with pytest.raises(InputError):
        spiral_in(RegionRect(0, 2, 0, 2), (3, 0))
    # on the perimeter but mid-edge
    with pytest.raises(InputError):
        spiral_in(RegionRect(0, 2, 0, 2), (0, 1))


def test_spiral_corner_starts_unit_steps():
    # every corner entry yields a permutation with strict unit steps, the
    # same one as the ring-walking reference _spiral_in_ref
    for h in range(1, 9):
        for w in range(1, 9):
            rect = RegionRect(2, 1 + h, 3, 2 + w)
            corners = {
                (rect.top, rect.left),
                (rect.top, rect.right),
                (rect.bottom, rect.left),
                (rect.bottom, rect.right),
            }
            for start in corners:
                out = spiral_in(rect, start)
                assert sorted(out) == sorted(rect.cells())
                assert out[0] == start
                for a, b in zip(out, out[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert out == _spiral_in_ref(rect, start), (rect, start)


def test_gbs_covers_non_rect_cells():
    rng = np.random.default_rng(0)
    for _ in range(30):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        top = int(rng.integers(0, rows))
        bottom = int(rng.integers(top, rows))
        left = int(rng.integers(0, cols))
        right = int(rng.integers(left, cols))
        rect = RegionRect(top, bottom, left, right)
        grid = partition_patches(_rect_mask(rows, cols, rect), 1)
        start = (0 if top > 0 else rows - 1, 0)
        out = gbs_traverse(grid, rect, start)
        outside = [
            (r, c) for r in range(rows) for c in range(cols) if not _inside(rect, (r, c))
        ]
        assert sorted(out) == sorted(outside)


def test_mask_aware_order_frozen_trace():
    # 4x4 grid, shadow rows 1..2 x cols 1..2, traced by hand
    grid = partition_patches(_rect_mask(4, 4, RegionRect(1, 2, 1, 2)), 1)
    path = mas_order(grid)
    assert path.kind == KIND_MAS
    start_a = select_start_a(RegionRect(1, 2, 1, 2), 4, 4)
    assert start_a == (0, 0)
    assert path.coords == (
        (2, 1),
        (2, 2),
        (1, 2),
        (1, 1),
        (0, 0),
        (1, 0),
        (2, 0),
        (3, 0),
        (3, 1),
        (3, 2),
        (3, 3),
        (2, 3),
        (1, 3),
        (0, 3),
        (0, 2),
        (0, 1),
    )


def _nearest_perimeter_cell(rect, target):
    """The rect's perimeter cell nearest target in L1 distance, by brute
    force: the oracle for where the spiral ends."""
    perimeter = [
        (r, c) for r, c in rect.cells() if r in (rect.top, rect.bottom) or c in (rect.left, rect.right)
    ]
    return min(perimeter, key=lambda cell: abs(cell[0] - target[0]) + abs(cell[1] - target[1]))


def test_mask_aware_order_properties_exhaustive():
    # all rects on all grids up to 5x5: permutation, shadow cells exactly
    # the path prefix, unit steps inside the prefix, spiral ends at start_b
    for rows in range(1, 6):
        for cols in range(1, 6):
            for top in range(rows):
                for bottom in range(top, rows):
                    for left in range(cols):
                        for right in range(left, cols):
                            rect = RegionRect(top, bottom, left, right)
                            grid = partition_patches(_rect_mask(rows, cols, rect), 1)
                            path = mas_order(grid)
                            assert path.is_permutation()
                            area = rect.area
                            assert sorted(path.coords[:area]) == sorted(rect.cells())
                            start_b = _nearest_perimeter_cell(rect, select_start_a(rect, rows, cols))
                            assert path.coords[area - 1] == start_b
                            for a, b in zip(path.coords, path.coords[1 : area]):
                                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


# today's spiral, greedy walk and mask-aware order, kept verbatim as the
# oracle for any shadow pattern (the start corner uses the edge ranking)
def _on_perimeter(rect, cell):
    r, c = cell
    if not _inside(rect, cell):
        return False
    return r in (rect.top, rect.bottom) or c in (rect.left, rect.right)


def _ring_clockwise(t, b, l, r):
    cells = [(t, j) for j in range(l, r + 1)]
    cells += [(i, r) for i in range(t + 1, b + 1)]
    cells += [(b, j) for j in range(r - 1, l - 1, -1)]
    cells += [(i, l) for i in range(b - 1, t, -1)]
    return cells


def _spiral_in_ref(rect, start):
    if not _on_perimeter(rect, start):
        raise InputError(f"start {start} is not on the perimeter of {rect}")
    t, b, l, r = rect.top, rect.bottom, rect.left, rect.right
    out = []
    cur = start
    while t <= b and l <= r:
        if t == b:
            _, cc = cur
            out += [(t, j) for j in range(cc, r + 1)]
            out += [(t, j) for j in range(cc - 1, l - 1, -1)]
            break
        if l == r:
            cr, _ = cur
            out += [(i, l) for i in range(cr, b + 1)]
            out += [(i, l) for i in range(cr - 1, t - 1, -1)]
            break
        ring = _ring_clockwise(t, b, l, r)
        k = ring.index(cur)
        out += ring[k:] + ring[:k]
        t, b, l, r = t + 1, b - 1, l + 1, r - 1
        if t <= b and l <= r:
            er, ec = out[-1]
            cur = (min(max(er, t), b), min(max(ec, l), r))
    return out


def _gbs_traverse_ref(grid, rect, start):
    rows, cols = grid.rows, grid.cols
    if not (0 <= start[0] < rows and 0 <= start[1] < cols):
        raise InputError(f"start {start} outside grid {rows}x{cols}")
    if not (0 <= rect.top and rect.bottom < rows and 0 <= rect.left and rect.right < cols):
        raise InputError(f"rect {rect} exceeds grid {rows}x{cols}")
    visited = np.zeros((rows, cols), dtype=bool)
    visited[rect.top : rect.bottom + 1, rect.left : rect.right + 1] = True
    seen = int(visited.sum())
    path = []
    cur = start
    if not visited[cur]:
        visited[cur] = True
        seen += 1
        path.append(cur)
    total = rows * cols
    while seen < total:
        best = None
        best_touch = -1
        for dr, dc in DIRECTIONS:
            nxt = (cur[0] + dr, cur[1] + dc)
            if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and not visited[nxt]:
                touch = _touch(visited, nxt)
                if touch > best_touch:
                    best, best_touch = nxt, touch
        if best is None:
            best = _nearest_unvisited(visited, cur)
        cur = best
        visited[cur] = True
        seen += 1
        if not _inside(rect, cur):
            path.append(cur)
    return path


def _mas_order_ref(grid):
    if not grid.shadow.any():
        return horizontal_order(grid.rows, grid.cols, grid.patch)
    rect = shadow_rect(grid)
    start_a = _select_start_a_by_edges(rect, grid.rows, grid.cols)
    start_b = (min(max(start_a[0], rect.top), rect.bottom), min(max(start_a[1], rect.left), rect.right))
    path_b = list(reversed(_spiral_in_ref(rect, start_b)))
    path_a = _gbs_traverse_ref(grid, rect, start_a)
    coords = tuple(path_b + path_a)
    return ScanPath(grid.rows, grid.cols, grid.patch, KIND_MAS, coords)


@settings(max_examples=300)
@given(
    pattern=st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda rc: st.lists(st.integers(0, 1), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
            lambda bits: np.array(bits, dtype=float).reshape(rc)
        )
    )
)
def test_mask_aware_order_on_any_shadow_pattern(pattern):
    # any 0/1 patch pattern, holes and scattered patches included: the
    # shadow rect is the bounding box, which need not be all shadow
    grid = partition_patches(pattern, 1)
    path = mas_order(grid)
    assert path.coords == _mas_order_ref(grid).coords
    assert path.is_permutation()
    if not pattern.any():
        return
    rect = shadow_rect(grid)
    prefix = path.coords[: rect.area]
    assert sorted(prefix) == sorted(rect.cells())
    for a, b in zip(prefix, prefix[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_mask_aware_order_deterministic():
    grid = partition_patches(_rect_mask(6, 6, RegionRect(2, 4, 1, 3)), 1)
    assert mas_order(grid).coords == mas_order(grid).coords


def test_mask_aware_order_no_shadow_degrades_to_horizontal():
    grid = partition_patches(np.zeros((4, 6)), 2)
    path = mas_order(grid)
    assert path.kind == KIND_HORIZONTAL
    assert path.coords == horizontal_order(2, 3, 2).coords
    assert path.patch == 2


def test_pixel_order_patch_one_is_flat():
    grid = partition_patches(_rect_mask(4, 4, RegionRect(0, 1, 2, 3)), 1)
    path = mas_order(grid)
    assert np.array_equal(pixel_order(path), path.flat)


def test_pixel_order_lifts_patches_row_major():
    # 1x2 patch grid with patch 2, second cell visited first
    path = ScanPath(1, 2, 2, KIND_MAS, ((0, 1), (0, 0)))
    assert np.array_equal(pixel_order(path), np.array([2, 3, 6, 7, 0, 1, 4, 5]))


def _pixel_order_loop(path):
    # the per-patch loop pixel_order replaced, kept as its reference
    s = path.patch
    width = path.cols * s
    block = (np.arange(s)[:, None] * width + np.arange(s)[None, :]).ravel()
    idx = np.empty(len(path.coords) * s * s, dtype=np.int64)
    pos = 0
    for pr, pc in path.coords:
        idx[pos : pos + s * s] = pr * s * width + pc * s + block
        pos += s * s
    return idx


@settings(max_examples=100)
@given(
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: st.tuples(st.just(rc), st.permutations([(r, c) for r in range(rc[0]) for c in range(rc[1])]))
    ),
    patch=st.integers(1, 4),
)
def test_pixel_order_matches_the_per_patch_loop(grid, patch):
    (rows, cols), coords = grid
    path = ScanPath(rows, cols, patch, KIND_MAS, tuple(coords))
    perm = pixel_order(path)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, _pixel_order_loop(path))


def test_pixel_order_is_permutation():
    rng = np.random.default_rng(1)
    for patch in (1, 2, 4):
        for _ in range(10):
            mask = (rng.uniform(size=(8, 8)) < 0.3).astype(float)
            grid = partition_patches(mask, patch)
            perm = pixel_order(mas_order(grid))
            assert np.array_equal(np.sort(perm), np.arange(64))


def test_pixel_gather_then_inverse_restores_order():
    # the model's scatter depends on this: inverting the lifted pixel
    # permutation, not lifting the inverted patch path
    rng = np.random.default_rng(2)
    for patch in (2, 4):
        mask = np.zeros((8, 8))
        mask[2:6, 4:8] = 1.0
        grid = partition_patches(mask, patch)
        perm = pixel_order(mas_order(grid))
        x = rng.normal(size=(64, 3))
        assert np.array_equal(x[perm][invert_permutation(perm)], x)


def test_mean_adjacent_gap():
    path = horizontal_order(2, 2)
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # horizontal gaps 1 and 1, vertical gaps 2 and 2
    assert mean_adjacent_gap(path, cells) == pytest.approx(1.5)
    assert mean_adjacent_gap(path, [(0, 0)]) == 0.0


def test_mean_adjacent_gap_prefers_mask_aware_inside_shadow():
    rect = RegionRect(5, 9, 4, 9)
    grid = partition_patches(_rect_mask(16, 16, rect), 1)
    mas_gap = mean_adjacent_gap(mas_order(grid), rect.cells())
    row_gap = mean_adjacent_gap(horizontal_order(16, 16), rect.cells())
    assert mas_gap <= row_gap


def test_dump_and_parse_round_trip():
    grid = partition_patches(_rect_mask(4, 8, RegionRect(1, 2, 3, 5)), 1)
    path = mas_order(grid)
    text = dump_path(path)
    lines = text.splitlines()
    assert lines[0] == "4 8 1 mas"
    assert len(lines) == 1 + 32
    assert [tuple(map(int, line.split())) for line in lines[1:]] == list(path.coords)
