"""Mask validation, patch partitioning and shadow-rect extraction: the
first stage of ``scanorder``, from a mask to the grid its orders walk."""

import numpy as np
import pytest

from shadowscan.errors import InputError
from shadowscan.scanorder import PatchGrid, RegionRect, partition_patches, shadow_rect, validate_mask


def test_validate_mask():
    out = validate_mask([[0.0, 1.0], [0.5, 0.25]])
    assert out.dtype == np.float64
    with pytest.raises(InputError):
        validate_mask(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        validate_mask(np.zeros((0, 3)))
    with pytest.raises(InputError):
        validate_mask(np.array([[0.0, 1.5]]))
    with pytest.raises(InputError):
        validate_mask(np.array([[0.0, np.nan]]))


def test_partition_means_and_labels():
    mask = np.zeros((4, 4))
    mask[0:2, 0:2] = 1.0  # full quadrant
    mask[0, 2] = 1.0
    mask[1, 3] = 1.0  # half of the top-right quadrant
    grid = partition_patches(mask, 2, tau=0.5)
    assert (grid.rows, grid.cols, grid.patch) == (2, 2, 2)
    assert np.array_equal(grid.mean_mask, np.array([[1.0, 0.5], [0.0, 0.0]]))
    # the threshold is inclusive: mean exactly tau counts as shadow
    assert np.array_equal(grid.shadow, np.array([[True, True], [False, False]]))
    assert int(grid.shadow.sum()) == 2


def test_partition_patch_one_is_thresholded_mask():
    rng = np.random.default_rng(0)
    mask = rng.uniform(0.0, 1.0, size=(5, 7))
    grid = partition_patches(mask, 1, tau=0.5)
    assert np.array_equal(grid.shadow, mask >= 0.5)
    assert np.array_equal(grid.mean_mask, mask)


def test_partition_validation():
    mask = np.zeros((4, 4))
    with pytest.raises(InputError):
        partition_patches(mask, 3)
    with pytest.raises(InputError):
        partition_patches(mask, 0)
    with pytest.raises(InputError):
        partition_patches(mask, 2, tau=0.0)
    with pytest.raises(InputError):
        partition_patches(mask, 2, tau=1.5)


def test_shadow_rect_bounds():
    mask = np.zeros((6, 6))
    mask[1, 2] = 1.0
    mask[4, 5] = 1.0
    rect = shadow_rect(partition_patches(mask, 1))
    assert rect == RegionRect(1, 4, 2, 5)
    assert rect.area == 16
    assert rect.cells() == [(r, c) for r in range(1, 5) for c in range(2, 6)]


def test_shadow_rect_empty():
    with pytest.raises(InputError):
        shadow_rect(partition_patches(np.zeros((4, 4)), 2))


def test_region_rect_degenerate():
    with pytest.raises(InputError):
        RegionRect(2, 1, 0, 0)
    with pytest.raises(InputError):
        RegionRect(0, 0, 3, 2)


def test_patch_grid_is_frozen():
    grid = PatchGrid(1, 1, 2, np.ones((1, 1)), np.ones((1, 1), dtype=bool))
    with pytest.raises(AttributeError):
        grid.rows = 2
