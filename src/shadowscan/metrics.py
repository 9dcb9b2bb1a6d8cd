"""Region-aware image quality metrics: PSNR, SSIM, and CIELAB RMSE.

All three are reported over the shadowed region (S), the rest (NS), and the
whole frame (ALL). Regions come from thresholding the mask at 0.5. PSNR is
in dB against a peak of 1.0, capped at 100 dB so identical images stay
finite; the Lab RMSE's mean runs over pixels times the three channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .imageio import resize_bilinear
from .scanorder import validate_mask

PSNR_CAP = 100.0

_WINDOW = 11
_RADIUS = _WINDOW // 2
_SIGMA = 1.5
_C1 = 0.01**2
_C2 = 0.03**2

# sRGB D65 linear-RGB -> XYZ (Lindbloom's 7-digit matrix) and reference white.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = np.array([0.95047, 1.0, 1.08883])


def _check_image(img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[0] != 3:
        raise InputError(f"expected a (3, H, W) image, got {img.shape}")
    if not np.all(np.isfinite(img)):
        raise InputError("image contains non-finite values")
    if img.min() < -1e-9 or img.max() > 1.0 + 1e-9:
        raise InputError("image values must lie in [0, 1]")


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> None:
    _check_image(pred)
    _check_image(gt)
    if pred.shape != gt.shape:
        raise InputError(f"image shapes differ: {pred.shape} vs {gt.shape}")


def _region_mean(stack: np.ndarray, region: np.ndarray | None) -> float:
    """Mean of per-pixel values (any leading channel axis) under a boolean,
    non-empty region of the image's shape. With region=None the whole frame
    is used."""
    if region is None:
        return float(stack.reshape(-1).mean())
    return float(stack[..., region].reshape(-1).mean())


def _psnr_from_mse(mse: float) -> float:
    if mse <= 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))


def _gauss_kernel() -> np.ndarray:
    offsets = np.arange(_WINDOW) - _RADIUS
    k = np.exp(-(offsets**2) / (2.0 * _SIGMA**2))
    return k / k.sum()


_KERNEL = _gauss_kernel()


def _gauss_filter(img: np.ndarray) -> np.ndarray:
    """Separable 11-tap Gaussian blur with reflect padding, per 2-D slice."""
    h, w = img.shape[-2:]
    flat = img.reshape(-1, h, w)
    out = np.empty_like(flat)
    for i, plane in enumerate(flat):
        padded = np.pad(plane, _RADIUS, mode="reflect")
        rows = np.zeros((h, padded.shape[1]))
        for k in range(_WINDOW):
            rows += _KERNEL[k] * padded[k : k + h, :]
        cols = np.zeros((h, w))
        for k in range(_WINDOW):
            cols += _KERNEL[k] * rows[:, k : k + w]
        out[i] = cols
    return out.reshape(img.shape)


def ssim_map(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM (3, H, W) with an 11x11 Gaussian window, sigma 1.5."""
    _check_pair(pred, gt)
    h, w = pred.shape[-2:]
    if h < _WINDOW or w < _WINDOW:
        raise InputError(f"SSIM needs at least {_WINDOW}x{_WINDOW} images, got {h}x{w}")
    mu_p = _gauss_filter(pred)
    mu_g = _gauss_filter(gt)
    var_p = _gauss_filter(pred * pred) - mu_p * mu_p
    var_g = _gauss_filter(gt * gt) - mu_g * mu_g
    cov = _gauss_filter(pred * gt) - mu_p * mu_g
    num = (2.0 * mu_p * mu_g + _C1) * (2.0 * cov + _C2)
    den = (mu_p * mu_p + mu_g * mu_g + _C1) * (var_p + var_g + _C2)
    return num / den


def srgb_to_lab(img: np.ndarray) -> np.ndarray:
    """(3, H, W) sRGB in [0, 1] to CIELAB under D65."""
    linear = np.where(img <= 0.04045, img / 12.92, ((img + 0.055) / 1.055) ** 2.4)
    xyz = np.tensordot(_RGB_TO_XYZ, linear, axes=([1], [0]))
    scaled = xyz / _WHITE[:, None, None]
    delta = 6.0 / 29.0
    f = np.where(scaled > delta**3, np.cbrt(scaled), scaled / (3.0 * delta**2) + 4.0 / 29.0)
    fx, fy, fz = f[0], f[1], f[2]
    lab = np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)])
    return lab


def _lab_sq_error(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    return (srgb_to_lab(pred) - srgb_to_lab(gt)) ** 2


@dataclass(frozen=True)
class RegionScores:
    psnr: float
    ssim: float
    rmse: float


@dataclass(frozen=True)
class EvalReport:
    shadow: RegionScores | None
    clear: RegionScores | None
    full: RegionScores


def evaluate(
    pred: np.ndarray,
    gt: np.ndarray,
    mask: np.ndarray,
    resize_to: int | None = None,
) -> EvalReport:
    """Score S / NS / ALL regions. resize_to rescales everything bilinearly
    to a square side first (the conventional 256 for benchmark parity),
    which also reconciles inputs of different sizes."""
    _check_image(pred)
    _check_image(gt)
    mask = validate_mask(mask)
    if resize_to is not None:
        pred = np.clip(resize_bilinear(pred, resize_to, resize_to), 0.0, 1.0)
        gt = np.clip(resize_bilinear(gt, resize_to, resize_to), 0.0, 1.0)
        mask = resize_bilinear(mask, resize_to, resize_to)
    if pred.shape != gt.shape:
        raise InputError(f"image shapes differ: {pred.shape} vs {gt.shape}")
    if mask.shape != pred.shape[-2:]:
        raise InputError(f"mask shape {mask.shape} does not match image {pred.shape[-2:]}")
    shadow = mask >= 0.5
    clear = ~shadow
    smap = ssim_map(pred, gt)
    sq = (pred - gt) ** 2
    lab_sq = _lab_sq_error(pred, gt)

    def scores(region: np.ndarray | None) -> RegionScores | None:
        if region is not None and not region.any():
            return None
        return RegionScores(
            _psnr_from_mse(_region_mean(sq, region)),
            _region_mean(smap, region),
            math.sqrt(_region_mean(lab_sq, region)),
        )

    return EvalReport(shadow=scores(shadow), clear=scores(clear), full=scores(None))


def format_report(report: EvalReport) -> str:
    """Two-part text report: a fixed-width table at 4 decimals, then exact
    key=value lines for downstream parsing."""
    rows = [("S", report.shadow), ("NS", report.clear), ("ALL", report.full)]
    lines = ["region psnr ssim rmse"]
    for name, scores in rows:
        if scores is None:
            lines.append(f"{name} nan nan nan")
        else:
            lines.append(f"{name} {scores.psnr:.4f} {scores.ssim:.4f} {scores.rmse:.4f}")
    lines.append("")
    for name, scores in rows:
        key = name.lower()
        if scores is None:
            lines.extend(f"{metric}_{key}=nan" for metric in ("psnr", "ssim", "rmse"))
        else:
            lines.append(f"psnr_{key}={scores.psnr!r}")
            lines.append(f"ssim_{key}={scores.ssim!r}")
            lines.append(f"rmse_{key}={scores.rmse!r}")
    return "\n".join(lines) + "\n"
