"""Patch partitioning of shadow masks and the shadow bounding rectangle.

A mask is a (H, W) float array in [0, 1]. Partitioning tiles it into s x s
patches and labels a patch Shadow when its mean mask value reaches the
threshold tau. The shadow rectangle is the tight bounding box of Shadow
patches in patch coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


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
    def height(self) -> int:
        return self.bottom - self.top + 1

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    @property
    def area(self) -> int:
        return self.height * self.width

    def contains(self, cell: tuple[int, int]) -> bool:
        r, c = cell
        return self.top <= r <= self.bottom and self.left <= c <= self.right

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
    tau: float


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
    return PatchGrid(rows, cols, patch_size, means, means >= tau, tau)


def shadow_rect(grid: PatchGrid) -> RegionRect:
    """Tight bounding box of Shadow patches; raises InputError when empty."""
    rs, cs = np.nonzero(grid.shadow)
    if rs.size == 0:
        raise InputError("grid has no shadow-labeled patch")
    return RegionRect(int(rs.min()), int(rs.max()), int(cs.min()), int(cs.max()))
