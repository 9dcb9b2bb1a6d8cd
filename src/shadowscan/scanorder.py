"""Scan orders over patch grids.

Three orders matter here: the plain row-major order, a clockwise inward
spiral over a rectangle, and the mask-aware order that serializes the
shadow rectangle first. The mask-aware order is built from two pieces:

* the shadow rect is covered by the inward spiral traversed in reverse,
  so the sequence ends at the rect corner facing the rest of the scan;
* the remaining cells are covered by a greedy boundary-hugging walk that
  starts at the grid corner nearest the rect, repeatedly steps to the
  unvisited 4-neighbor touching the most visited cells, and jumps to the
  nearest unvisited cell when boxed in.

All tie-breaks are fixed: the start corner is chosen per axis, top row
and left column on a tie; steps in the direction order up, down, left,
right; jumps and perimeter picks in row-major order. With those rules
every grid and rect has exactly one mask-aware order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .maskgrid import PatchGrid, RegionRect, shadow_rect

DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))

KIND_HORIZONTAL = "horizontal"
KIND_MAS = "mas"


@dataclass(frozen=True)
class ScanPath:
    """An ordering of every cell of a rows x cols grid."""

    rows: int
    cols: int
    patch: int
    kind: str
    coords: tuple[tuple[int, int], ...]

    @property
    def flat(self) -> np.ndarray:
        """Cells as flat row-major indices, in visit order."""
        return np.fromiter((r * self.cols + c for r, c in self.coords), dtype=np.int64, count=len(self.coords))

    def is_permutation(self) -> bool:
        return np.array_equal(np.sort(self.flat), np.arange(self.rows * self.cols))


def horizontal_order(rows: int, cols: int, patch: int = 1) -> ScanPath:
    """Row-major left-to-right order. The right-to-left sweep of the
    horizontal stage is realized downstream by scanning the reversed
    sequence, not by a second path object."""
    if rows < 1 or cols < 1:
        raise InputError(f"grid must be non-empty, got {rows}x{cols}")
    coords = tuple((r, c) for r in range(rows) for c in range(cols))
    return ScanPath(rows, cols, patch, KIND_HORIZONTAL, coords)


def select_start_a(rect: RegionRect, rows: int, cols: int) -> tuple[int, int]:
    """Grid corner nearest the rect, chosen per axis: row 0 unless the rect
    is strictly nearer the bottom edge, column 0 unless it is strictly
    nearer the right edge. The returned corner can lie inside the rect when
    the rect hugs it; the greedy traversal tolerates that.
    """
    below, right = rows - 1 - rect.bottom, cols - 1 - rect.right
    if min(rect.top, below, rect.left, right) < 0:
        raise InputError(f"rect {rect} exceeds grid {rows}x{cols}")
    return (rows - 1 if below < rect.top else 0, cols - 1 if right < rect.left else 0)


def _on_perimeter(rect: RegionRect, cell: tuple[int, int]) -> bool:
    r, c = cell
    if not rect.contains(cell):
        return False
    return r in (rect.top, rect.bottom) or c in (rect.left, rect.right)


def _ring_clockwise(t: int, b: int, l: int, r: int) -> list[tuple[int, int]]:
    cells = [(t, j) for j in range(l, r + 1)]
    cells += [(i, r) for i in range(t + 1, b + 1)]
    cells += [(b, j) for j in range(r - 1, l - 1, -1)]
    cells += [(i, l) for i in range(b - 1, t, -1)]
    return cells


def spiral_in(rect: RegionRect, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Clockwise inward spiral over the rect, beginning at a perimeter cell.

    Each ring is walked as one clockwise circuit from the entry cell; the
    walk then drops to the nearest cell of the shrunk bounds and repeats.
    From any rect corner every step has Manhattan distance 1. From a
    mid-edge entry the single turn-around (or ring hand-off) may exceed
    that; callers that need strict unit steps enter at a corner.
    """
    if not _on_perimeter(rect, start):
        raise InputError(f"start {start} is not on the perimeter of {rect}")
    t, b, l, r = rect.top, rect.bottom, rect.left, rect.right
    out: list[tuple[int, int]] = []
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


def _touch(visited: np.ndarray, cell: tuple[int, int]) -> int:
    rows, cols = visited.shape
    n = 0
    for dr, dc in DIRECTIONS:
        rr, cc = cell[0] + dr, cell[1] + dc
        if 0 <= rr < rows and 0 <= cc < cols and visited[rr, cc]:
            n += 1
    return n


def _nearest_unvisited(visited: np.ndarray, cur: tuple[int, int]) -> tuple[int, int]:
    rs, cs = np.nonzero(~visited)
    d = np.abs(rs - cur[0]) + np.abs(cs - cur[1])
    k = int(np.argmin(d))  # nonzero() is row-major, so argmin keeps that tie order
    return (int(rs[k]), int(cs[k]))


def gbs_traverse(grid: PatchGrid, rect: RegionRect, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Greedy boundary-hugging coverage of the non-rect cells.

    The rect counts as visited from the outset, which biases early steps
    toward cells that touch both the rect boundary and the grid edge. The
    returned list covers exactly the cells outside the rect, each once.
    """
    rows, cols = grid.rows, grid.cols
    if not (0 <= start[0] < rows and 0 <= start[1] < cols):
        raise InputError(f"start {start} outside grid {rows}x{cols}")
    if not (0 <= rect.top and rect.bottom < rows and 0 <= rect.left and rect.right < cols):
        raise InputError(f"rect {rect} exceeds grid {rows}x{cols}")
    visited = np.zeros((rows, cols), dtype=bool)
    visited[rect.top : rect.bottom + 1, rect.left : rect.right + 1] = True
    seen = int(visited.sum())
    path: list[tuple[int, int]] = []
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
        path.append(cur)
    return path


def mas_order(grid: PatchGrid) -> ScanPath:
    """Mask-aware order: reversed shadow-rect spiral, then the greedy walk.

    The shadow cells occupy the path prefix. With no shadow patch the order
    degrades to plain row-major.
    """
    if not grid.shadow.any():
        return horizontal_order(grid.rows, grid.cols, grid.patch)
    rect = shadow_rect(grid)
    start_a = select_start_a(rect, grid.rows, grid.cols)
    # the rect cell nearest start_a: a grid corner clamps onto the perimeter
    start_b = (min(max(start_a[0], rect.top), rect.bottom), min(max(start_a[1], rect.left), rect.right))
    path_b = list(reversed(spiral_in(rect, start_b)))
    path_a = gbs_traverse(grid, rect, start_a)
    coords = tuple(path_b + path_a)
    return ScanPath(grid.rows, grid.cols, grid.patch, KIND_MAS, coords)


def pixel_order(path: ScanPath) -> np.ndarray:
    """Lift a patch-level path to a flat pixel permutation.

    Patches are emitted in path order; pixels within a patch stay
    row-major, so a shadow-first patch path yields a shadow-first pixel
    sequence.
    """
    rows, cols, s = path.rows, path.cols, path.patch
    # pixel (r * s + i, c * s + j) sits at [r, i, c, j]
    pixels = np.arange(rows * s * cols * s, dtype=np.int64).reshape(rows, s, cols, s)
    cells = np.array(path.coords, dtype=np.int64).reshape(-1, 2)
    return pixels.transpose(0, 2, 1, 3)[cells[:, 0], cells[:, 1]].ravel()


def mean_adjacent_gap(path: ScanPath, cells) -> float:
    """Mean |visit-index difference| over 4-adjacent pairs within ``cells``.

    This is the locality statistic: smaller means neighboring shadow
    patches sit closer together in the serialized sequence. Returns 0.0
    when the cell set has no adjacent pairs.
    """
    pos = {cell: i for i, cell in enumerate(path.coords)}
    cellset = set(cells)
    gaps = []
    for r, c in cellset:
        for v in ((r, c + 1), (r + 1, c)):
            if v in cellset:
                gaps.append(abs(pos[(r, c)] - pos[v]))
    return float(np.mean(gaps)) if gaps else 0.0


def dump_path(path: ScanPath) -> str:
    """Serialize: header ``rows cols patch kind``, then one ``row col`` line per cell."""
    lines = [f"{path.rows} {path.cols} {path.patch} {path.kind}"]
    lines.extend(f"{r} {c}" for r, c in path.coords)
    return "\n".join(lines) + "\n"

