"""Network assembly: encoder, dual-scale fusion, scan groups, UNet, model.

The model maps a shadow image plus its mask to a restored image:

    encode -> dual-scale fusion -> scan UNet -> decode (-> residual add)

Features live as (L, C) token sequences in row-major pixel order; the
convolutions and resampling ops take them with the level's height and
width, and only the decoder's (3, H, W) output is a map. Every scan group
runs a row-major stage followed by a mask-aware stage in its level's
order, which depends only on the level's mask: the model builds each
level's order once per forward.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import InputError
from .module import Module
from .scanorder import mas_order, partition_patches, pixel_order, validate_mask
from .ssm import SsmStage


def max_pool_mask2x(mask: np.ndarray) -> np.ndarray:
    """Halve a mask, keeping shadow presence: 2x2 block maximum."""
    h, w = mask.shape
    if h % 2 or w % 2:
        raise InputError(f"mask {h}x{w} must have even dims to pool")
    return mask.reshape(h // 2, 2, w // 2, 2).max(axis=(1, 3))


def level_patch_size(height: int, width: int, patch: int) -> int:
    """``patch``, floor-halved until it tiles the level or reaches 1; the
    result need not be a power of two, nor the largest size that tiles."""
    while patch > 1 and (height % patch or width % patch):
        patch //= 2
    return patch


# a level's (pixel permutation, inverse); a module's list starts at its own level
ScanOrder = tuple[np.ndarray, np.ndarray]


def scan_orders(mask: np.ndarray, levels: int, patch: int, tau: float) -> list[ScanOrder]:
    """Orders of ``levels`` pyramid levels, finest first, over masks max-pooled
    2x per level (shadow presence survives) and ``level_patch_size`` patches.
    Each inverse is that of the pixel permutation: lifting the inverted patch
    path is a different map once the grid has more than one column."""
    orders = []
    for level in range(levels):
        mask = max_pool_mask2x(mask) if level else mask
        grid = partition_patches(mask, level_patch_size(*mask.shape, patch), tau)
        perm = pixel_order(mas_order(grid))
        orders.append((perm, ad.invert_permutation(perm)))
    return orders


class Encoder(Module):
    """3x3 convolution over the image+mask stack, slope-0.2 LeakyReLU."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        self.w = ad.param((config.channels, 4, 3, 3), rng, fan_in=4 * 9)
        self.b = Tensor(np.zeros(config.channels))

    def forward(self, image: np.ndarray, mask: np.ndarray) -> Tensor:
        h, w = mask.shape
        x = Tensor(np.concatenate([image, mask[None]], axis=0).reshape(4, h * w).T)
        return ad.leaky_relu(ad.conv2d(x, h, w, self.w, self.b), 0.2)


class DualScanGroup(Module):
    """Row-major scan stage followed by a mask-aware scan stage.

    The second stage gathers pixel tokens into mask-aware order (shadow
    rect first), runs its scan and MLP there, and scatters the result
    back. Residuals live inside the stages, so silencing both leaves the
    sequence untouched bit for bit.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        self.row_stage = SsmStage(config, rng)
        self.mas_stage = SsmStage(config, rng)

    def forward(self, seq: Tensor, order: ScanOrder, height: int, width: int) -> Tensor:
        perm, inverse = order
        if perm.size != height * width:
            raise InputError(f"scan order of {perm.size} pixels does not cover {height}x{width}")
        out = self.row_stage.forward(seq, height, width)
        gathered = ad.permute_gather(out, perm)
        gathered = self.mas_stage.forward(gathered, height, width)
        return ad.permute_gather(gathered, inverse)


def _interleave_index(height: int, width: int) -> np.ndarray:
    units = (height // 2) * (width // 2)
    # pixel (2i + a, 2j + b) sits at [i, a, j, b]; a unit runs a fastest
    fine = np.arange(height * width).reshape(height // 2, 2, width // 2, 2).transpose(0, 2, 3, 1)
    coarse = height * width + np.arange(units)
    return np.concatenate([fine.reshape(units, 4), coarse[:, None]], axis=1).ravel()


def dfmb_interleave(fine: Tensor, coarse: Tensor, height: int, width: int) -> Tensor:
    """Weave fine and 2x-downsampled tokens into 5-token units, one per 2x2
    block: the four fine tokens (top-left, bottom-left, top-right,
    bottom-right) then the one coarse token; units follow row-major block
    order."""
    if height % 2 or width % 2:
        raise InputError(f"interleave needs even dims, got {height}x{width}")
    if fine.shape[0] != height * width or coarse.shape[0] != (height // 2) * (width // 2):
        raise InputError(
            f"token counts {fine.shape[0]}/{coarse.shape[0]} do not match {height}x{width} and its half"
        )
    source = ad.concat(fine, coarse, 0)
    return ad.permute_gather(source, _interleave_index(height, width))


def fold_back(tokens: Tensor, height: int, width: int) -> Tensor:
    """Drop the coarse tokens of a ``height`` x ``width`` weave and restore
    the fine tokens to row-major order."""
    woven_at = ad.invert_permutation(_interleave_index(height, width))
    return ad.permute_gather(tokens, woven_at[: height * width])


class DualScaleFusion(Module):
    """Parallel full- and half-resolution scan groups, fused by one scan
    stage over the interleaved sequence, then folded back to full size."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        self.full = DualScanGroup(config, rng)
        self.half = DualScanGroup(config, rng)
        self.fusion = SsmStage(config, rng)

    def forward(self, seq: Tensor, orders: list[ScanOrder], height: int, width: int) -> Tensor:
        big = self.full.forward(seq, orders[0], height, width)
        down_seq = ad.bilinear_downsample2x(seq, height, width)
        down = self.half.forward(down_seq, orders[1], height // 2, width // 2)
        woven = dfmb_interleave(big, down, height, width)
        # the 5-token units of one block row tile a (H/2, 5W/2) map exactly
        fused = self.fusion.forward(woven, height // 2, 5 * (width // 2))
        return fold_back(fused, height, width)


class SkipProjection(Module):
    """1x1 projection of an up-path sequence concatenated with its skip."""

    SILENT = ("w", "b")

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        c = config.channels
        self.w = ad.param((2 * c, c), rng, fan_in=2 * c)
        self.b = Tensor(np.zeros(c))


class ScanUnet(Module):
    """Scan groups around a 2x pyramid with skip fusion.

    Down path: group then 2x average pool, per level. Up path: 2x bilinear
    upsample, channel concat with the skip, 1x1 projection, group.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        depth = config.unet_depth
        self.down = [DualScanGroup(config, rng) for _ in range(depth)]
        self.bottleneck = DualScanGroup(config, rng)
        self.proj = [SkipProjection(config, rng) for _ in range(depth)]
        self.up = [DualScanGroup(config, rng) for _ in range(depth)]
        self.depth = depth

    def forward(self, seq: Tensor, orders: list[ScanOrder], height: int, width: int) -> Tensor:
        cur = seq
        h, w = height, width
        skips = []
        for level in range(self.depth):
            cur = self.down[level].forward(cur, orders[level], h, w)
            skips.append(cur)
            cur = ad.bilinear_downsample2x(cur, h, w)
            h, w = h // 2, w // 2
        cur = self.bottleneck.forward(cur, orders[self.depth], h, w)
        for level in range(self.depth - 1, -1, -1):
            cur = ad.bilinear_upsample2x(cur, h, w)
            h, w = h * 2, w * 2
            proj = self.proj[level]
            cur = ad.linear(ad.concat(cur, skips[level], 1), proj.w, proj.b)
            cur = self.up[level].forward(cur, orders[level], h, w)
        return cur


class ShadowNet(Module):
    """The full shadow-removal network over one image."""

    SILENT = ("dec_w", "dec_b")

    def __init__(self, config: ModelConfig) -> None:
        rng = np.random.default_rng(config.seed)
        c = config.channels
        self.encoder = Encoder(config, rng)
        self.fusion = DualScaleFusion(config, rng)
        self.unet = ScanUnet(config, rng)
        # the residual stream grows additively through the pre-norm stages,
        # so the decoder starts two orders smaller than the generic rule:
        # the fresh model then predicts a near-zero residual instead of a
        # saturated one, which keeps clamp gradients alive and puts the
        # first training steps within reach of the small learning rate
        self.dec_w = ad.param((3, c, 3, 3), rng, fan_in=c * 9, scale=0.01)
        self.dec_b = Tensor(np.zeros(3))
        self.config = config

    def forward(self, image: np.ndarray, mask: np.ndarray) -> Tensor:
        image = np.asarray(image, dtype=np.float64)
        mask = validate_mask(mask)
        if image.ndim != 3 or image.shape[0] != 3:
            raise InputError(f"image must be (3,H,W), got {image.shape}")
        if image.shape[1:] != mask.shape:
            raise InputError(f"image {image.shape} and mask {mask.shape} disagree on size")
        if not np.isfinite(image).all():
            raise InputError("image must be finite")
        h, w = mask.shape
        cfg = self.config
        # the fusion reaches one level below the full size even at depth 0
        levels = max(cfg.unet_depth, 1) + 1
        div = 2 ** (levels - 1)
        if h % div or w % div:
            raise InputError(f"input {h}x{w} must be divisible by {div} for unet_depth={cfg.unet_depth}")
        orders = scan_orders(mask, levels, cfg.patch_size, cfg.tau)
        seq = self.encoder.forward(image, mask)
        seq = self.fusion.forward(seq, orders, h, w)
        seq = self.unet.forward(seq, orders, h, w)
        residual = ad.seq_to_map(ad.conv2d(seq, h, w, self.dec_w, self.dec_b), h, w)
        if cfg.residual_output:
            return ad.clamp01(ad.add(Tensor(image), residual))
        return ad.clamp01(residual)
