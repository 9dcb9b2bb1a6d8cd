"""Network assembly: encoder, dual-scale fusion, scan groups, UNet, model.

The model maps a shadow image plus its mask to a restored image:

    encode -> dual-scale fusion -> scan UNet -> decode (-> residual add)

Features live as (L, C) token sequences in row-major pixel order and are
folded to (C, H, W) maps only where a convolution or resampling needs the
geometry. Every scan group runs a row-major stage followed by a
mask-aware stage whose order comes from the current level's patch grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import ShapeError
from .maskgrid import PatchGrid, partition_patches, validate_mask
from .module import Module
from .scanorder import mas_order, pixel_order
from .ssm import SsmStage


def max_pool_mask2x(mask: np.ndarray) -> np.ndarray:
    """Halve a mask, keeping shadow presence: 2x2 block maximum."""
    h, w = mask.shape
    if h % 2 or w % 2:
        raise ShapeError(f"mask {h}x{w} must have even dims to pool")
    return mask.reshape(h // 2, 2, w // 2, 2).max(axis=(1, 3))


def level_patch_size(height: int, width: int, patch: int) -> int:
    """Largest power-of-two divisor of ``patch`` that tiles the level."""
    while patch > 1 and (height % patch or width % patch):
        patch //= 2
    return patch


def level_grid(mask: np.ndarray, patch: int, tau: float) -> PatchGrid:
    h, w = mask.shape
    return partition_patches(mask, level_patch_size(h, w, patch), tau)


class Encoder(Module):
    """3x3 convolution over the image+mask stack, slope-0.2 LeakyReLU, flatten."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        fan_in = 4 * 9
        self.w = ad.param((channels, 4, 3, 3), rng, fan_in=fan_in)
        self.b = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, image: np.ndarray, mask: np.ndarray) -> Tensor:
        x = Tensor(np.concatenate([image, mask[None]], axis=0))
        m = ad.leaky_relu(ad.conv2d(x, self.w, self.b), 0.2)
        return ad.map_to_seq(m)


class DualScanGroup(Module):
    """Row-major scan stage followed by a mask-aware scan stage.

    The second stage gathers pixel tokens into mask-aware order (shadow
    rect first), runs its scan and MLP there, and scatters the result
    back. Residuals live inside the stages, so silencing both leaves the
    sequence untouched bit for bit.
    """

    def __init__(
        self,
        channels: int,
        state_dim: int,
        expansion: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        self.row_stage = SsmStage(channels, state_dim, expansion, dropout, rng)
        self.mas_stage = SsmStage(channels, state_dim, expansion, dropout, rng)

    def forward(
        self, seq: Tensor, grid: PatchGrid, height: int, width: int, training: bool = False
    ) -> Tensor:
        if grid.rows * grid.patch != height or grid.cols * grid.patch != width:
            raise ShapeError(
                f"grid {grid.rows}x{grid.cols} (patch {grid.patch}) does not tile {height}x{width}"
            )
        out = self.row_stage.forward(seq, height, width, training)
        path = mas_order(grid)
        perm = pixel_order(path)
        gathered = ad.permute_gather(out, perm)
        gathered = self.mas_stage.forward(gathered, height, width, training)
        # the scatter must invert the pixel permutation itself; inverting the
        # patch path first and lifting that is not the same map once the
        # grid has more than one column
        return ad.permute_gather(gathered, ad.invert_permutation(perm))

    def silence(self) -> None:
        self.row_stage.silence()
        self.mas_stage.silence()


@dataclass
class InterleavedSequence:
    """Fine and coarse tokens woven into 5-token units, one per 2x2 block."""

    tokens: Tensor
    height: int
    width: int

    def __len__(self) -> int:
        return self.tokens.shape[0]


def _interleave_index(height: int, width: int) -> np.ndarray:
    hh, hw = height // 2, width // 2
    ii, jj = np.meshgrid(np.arange(hh), np.arange(hw), indexing="ij")
    unit = (ii * hw + jj).ravel()
    base = 5 * unit
    idx = np.empty(5 * hh * hw, dtype=np.int64)
    idx[base + 0] = (2 * ii * width + 2 * jj).ravel()
    idx[base + 1] = ((2 * ii + 1) * width + 2 * jj).ravel()
    idx[base + 2] = (2 * ii * width + 2 * jj + 1).ravel()
    idx[base + 3] = ((2 * ii + 1) * width + 2 * jj + 1).ravel()
    idx[base + 4] = height * width + unit
    return idx


def dfmb_interleave(fine: Tensor, coarse: Tensor, height: int, width: int) -> InterleavedSequence:
    """Weave fine and 2x-downsampled tokens: per 2x2 block the four fine
    tokens (top-left, bottom-left, top-right, bottom-right) then the one
    coarse token; units follow row-major block order."""
    if height % 2 or width % 2:
        raise ShapeError(f"interleave needs even dims, got {height}x{width}")
    if fine.shape[0] != height * width or coarse.shape[0] != (height // 2) * (width // 2):
        raise ShapeError(
            f"token counts {fine.shape[0]}/{coarse.shape[0]} do not match {height}x{width} and its half"
        )
    source = ad.concat_rows(fine, coarse)
    return InterleavedSequence(ad.permute_gather(source, _interleave_index(height, width)), height, width)


def fold_back(seq: InterleavedSequence) -> Tensor:
    """Drop the coarse tokens and restore fine tokens to row-major order."""
    h, w = seq.height, seq.width
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    unit = (rr // 2) * (w // 2) + cc // 2
    offset = (cc % 2) * 2 + rr % 2
    return ad.gather_rows(seq.tokens, (5 * unit + offset).ravel())


class DualScaleFusion(Module):
    """Parallel full- and half-resolution scan groups, fused by one scan
    stage over the interleaved sequence, then folded back to full size."""

    def __init__(
        self,
        channels: int,
        state_dim: int,
        expansion: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        self.full = DualScanGroup(channels, state_dim, expansion, dropout, rng)
        self.half = DualScanGroup(channels, state_dim, expansion, dropout, rng)
        self.fusion = SsmStage(channels, state_dim, expansion, dropout, rng)

    def forward(
        self,
        seq: Tensor,
        mask: np.ndarray,
        height: int,
        width: int,
        patch: int,
        tau: float,
        training: bool = False,
    ) -> Tensor:
        big = self.full.forward(seq, level_grid(mask, patch, tau), height, width, training)
        down_seq = ad.map_to_seq(ad.bilinear_downsample2x(ad.seq_to_map(seq, height, width)))
        half_mask = max_pool_mask2x(mask)
        down = self.half.forward(
            down_seq, level_grid(half_mask, patch, tau), height // 2, width // 2, training
        )
        woven = dfmb_interleave(big, down, height, width)
        # the 5-token units of one block row tile a (H/2, 5W/2) map exactly
        fused = self.fusion.forward(woven.tokens, height // 2, 5 * (width // 2), training)
        return fold_back(InterleavedSequence(fused, height, width))

    def silence(self) -> None:
        self.full.silence()
        self.half.silence()
        self.fusion.silence()


class ScanUnet(Module):
    """Scan groups around a 2x pyramid with skip fusion.

    Down path: group then 2x average pool, per level. Up path: 2x bilinear
    upsample, channel concat with the skip, 1x1 projection, group. Masks
    are max-pooled per level so shadow presence survives reduction.
    """

    def __init__(
        self,
        channels: int,
        state_dim: int,
        expansion: int,
        depth: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        self.down = [
            DualScanGroup(channels, state_dim, expansion, dropout, rng) for _ in range(depth)
        ]
        self.bottleneck = DualScanGroup(channels, state_dim, expansion, dropout, rng)
        self.proj_w = [ad.param((2 * channels, channels), rng, fan_in=2 * channels) for _ in range(depth)]
        self.proj_b = [Tensor(np.zeros(channels), requires_grad=True) for _ in range(depth)]
        self.up = [DualScanGroup(channels, state_dim, expansion, dropout, rng) for _ in range(depth)]
        self.depth = depth

    def named_params(self, prefix: str = ""):
        items = []
        for i, g in enumerate(self.down):
            items.extend(g.named_params(f"{prefix}down.{i}."))
        items.extend(self.bottleneck.named_params(f"{prefix}bottleneck."))
        for i in range(self.depth):
            items.append((f"{prefix}proj.{i}.w", self.proj_w[i]))
            items.append((f"{prefix}proj.{i}.b", self.proj_b[i]))
        for i, g in enumerate(self.up):
            items.extend(g.named_params(f"{prefix}up.{i}."))
        return items

    def forward(
        self,
        seq: Tensor,
        mask: np.ndarray,
        height: int,
        width: int,
        patch: int,
        tau: float,
        training: bool = False,
    ) -> Tensor:
        cur = seq
        h, w = height, width
        masks = [mask]
        skips = []
        for level in range(self.depth):
            cur = self.down[level].forward(cur, level_grid(masks[level], patch, tau), h, w, training)
            skips.append(cur)
            cur = ad.map_to_seq(ad.bilinear_downsample2x(ad.seq_to_map(cur, h, w)))
            masks.append(max_pool_mask2x(masks[level]))
            h, w = h // 2, w // 2
        cur = self.bottleneck.forward(cur, level_grid(masks[-1], patch, tau), h, w, training)
        for level in range(self.depth - 1, -1, -1):
            cur = ad.map_to_seq(ad.bilinear_upsample2x(ad.seq_to_map(cur, h, w)))
            h, w = h * 2, w * 2
            cur = ad.linear(ad.concat_cols(cur, skips[level]), self.proj_w[level], self.proj_b[level])
            cur = self.up[level].forward(cur, level_grid(masks[level], patch, tau), h, w, training)
        return cur

    def silence(self) -> None:
        for g in self.down:
            g.silence()
        self.bottleneck.silence()
        for wt, bt in zip(self.proj_w, self.proj_b):
            wt.data[:] = 0.0
            bt.data[:] = 0.0
        for g in self.up:
            g.silence()


class ShadowNet(Module):
    """The full shadow-removal network over one image."""

    def __init__(self, config: ModelConfig) -> None:
        config.validate()
        rng = np.random.default_rng(config.seed)
        c = config.channels
        self.encoder = Encoder(c, rng)
        self.fusion = DualScaleFusion(c, config.state_dim, config.expansion, config.dropout, rng)
        self.unet = ScanUnet(
            c, config.state_dim, config.expansion, config.unet_depth, config.dropout, rng
        )
        # the residual stream grows additively through the pre-norm stages,
        # so the decoder starts two orders smaller than the generic rule:
        # the fresh model then predicts a near-zero residual instead of a
        # saturated one, which keeps clamp gradients alive and puts the
        # first training steps within reach of the small learning rate
        self.dec_w = ad.param((3, c, 3, 3), rng, fan_in=c * 9, scale=0.01)
        self.dec_b = Tensor(np.zeros(3), requires_grad=True)
        self.config = config
        self.rng = rng

    def forward(self, image: np.ndarray, mask: np.ndarray, training: bool = False) -> Tensor:
        image = np.asarray(image, dtype=np.float64)
        mask = validate_mask(mask)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ShapeError(f"image must be (3,H,W), got {image.shape}")
        if image.shape[1:] != mask.shape:
            raise ShapeError(f"image {image.shape} and mask {mask.shape} disagree on size")
        if not np.isfinite(image).all():
            raise ShapeError("image must be finite")
        h, w = mask.shape
        cfg = self.config
        cfg.check_spatial(h, w)
        seq = self.encoder.forward(image, mask)
        seq = self.fusion.forward(seq, mask, h, w, cfg.patch_size, cfg.tau, training)
        seq = self.unet.forward(seq, mask, h, w, cfg.patch_size, cfg.tau, training)
        residual = ad.conv2d(ad.seq_to_map(seq, h, w), self.dec_w, self.dec_b)
        if cfg.residual_output:
            return ad.clamp01(ad.add(Tensor(image), residual))
        return ad.clamp01(residual)

    def silence(self) -> None:
        """Parameter setting under which the model is the bitwise identity
        (with residual output): every scan and MLP contribution and the
        decoder emit exact zeros."""
        self.fusion.silence()
        self.unet.silence()
        self.dec_w.data[:] = 0.0
        self.dec_b.data[:] = 0.0
