"""Shadow masks to scan orders: mask validation, patch partition, the
shadow rect and the orders over patch grids.

A mask is a (H, W) float array in [0, 1]. Partitioning tiles it into s x s
patches and labels a patch Shadow when its mean mask value reaches the
threshold tau. The shadow rect is the tight bounding box of Shadow
patches in patch coordinates.

Two orders matter here: the plain row-major order and the mask-aware
order that serializes the shadow rect first. The mask-aware order is
built from two pieces:

* the shadow rect is covered by a clockwise inward spiral, entered at the
  rect corner nearest the rest of the scan and traversed in reverse, so
  the sequence ends at that corner;
* the remaining cells are covered by a greedy boundary-hugging walk that
  starts at the grid corner nearest the rect, repeatedly steps to the
  unvisited 4-neighbor touching the most visited cells, and jumps to the
  nearest unvisited cell when boxed in.

All tie-breaks are fixed: the start corner is chosen per axis, top row
and left column on a tie; steps in the direction order up, down, left,
right; jumps in row-major order. With those rules every grid and rect
has exactly one mask-aware order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))

KIND_HORIZONTAL = "horizontal"
KIND_MAS = "mas"


def validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise InputError(f"mask must be 2-D, got shape {mask.shape}")
    if mask.size == 0:
        raise InputError("mask must be non-empty")
    if not np.isfinite(mask).all() or mask.min() < 0.0 or mask.max() > 1.0:
        raise InputError("mask values must be finite and within [0, 1]")
    return mask


@dataclass(frozen=True)
class RegionRect:
    """Inclusive patch-coordinate bounds of the shadow region."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self) -> None:
        if self.top > self.bottom or self.left > self.right:
            raise InputError(f"degenerate rect bounds {self}")

    @property
    def area(self) -> int:
        return (self.bottom - self.top + 1) * (self.right - self.left + 1)

    def cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.top, self.bottom + 1) for c in range(self.left, self.right + 1)]


@dataclass(frozen=True)
class PatchGrid:
    """Per-patch mean mask values and Shadow labels for an s x s tiling."""

    rows: int
    cols: int
    patch: int
    mean_mask: np.ndarray
    shadow: np.ndarray


def partition_patches(mask: np.ndarray, patch_size: int, tau: float = 0.5) -> PatchGrid:
    """Tile the mask into patches and label each by mean coverage >= tau."""
    mask = validate_mask(mask)
    if patch_size < 1:
        raise InputError(f"patch size must be >= 1, got {patch_size}")
    if not 0.0 < tau <= 1.0:
        raise InputError(f"tau must lie in (0, 1], got {tau}")
    h, w = mask.shape
    if h % patch_size or w % patch_size:
        raise InputError(f"mask {h}x{w} is not divisible by patch size {patch_size}")
    rows = h // patch_size
    cols = w // patch_size
    means = mask.reshape(rows, patch_size, cols, patch_size).mean(axis=(1, 3))
    return PatchGrid(rows, cols, patch_size, means, means >= tau)


def shadow_rect(grid: PatchGrid) -> RegionRect:
    """Tight bounding box of Shadow patches; raises InputError when empty."""
    rs, cs = np.nonzero(grid.shadow)
    if rs.size == 0:
        raise InputError("grid has no shadow-labeled patch")
    return RegionRect(int(rs.min()), int(rs.max()), int(cs.min()), int(cs.max()))


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


def spiral_in(rect: RegionRect, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Clockwise inward spiral over the rect, entered at one of its corners.

    The rect's cells are quarter-turned until the start corner sits at the
    top left; the spiral then takes the top row and quarter-turns the rest
    counterclockwise until no cell is left, so every step is a unit step.
    """
    corners = [(rect.top, rect.left), (rect.top, rect.right), (rect.bottom, rect.right), (rect.bottom, rect.left)]
    if start not in corners:
        raise InputError(f"start {start} is not a corner of {rect}")
    rows, cols = np.mgrid[rect.top : rect.bottom + 1, rect.left : rect.right + 1]
    # a counterclockwise quarter turn brings the next corner clockwise to the top left
    cells = np.rot90(np.stack([rows, cols], axis=-1), corners.index(start))
    out: list[tuple[int, int]] = []
    while cells.size:
        out += map(tuple, cells[0].tolist())
        cells = np.rot90(cells[1:])
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
        steps = ((cur[0] + dr, cur[1] + dc) for dr, dc in DIRECTIONS)
        free = [nxt for nxt in steps if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and not visited[nxt]]
        # max keeps the first of equal keys: the DIRECTIONS order breaks ties
        cur = max(free, key=lambda nxt: _touch(visited, nxt)) if free else _nearest_unvisited(visited, cur)
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
    # the rect cell nearest start_a: a grid corner clamps onto a rect corner
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

