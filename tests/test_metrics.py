"""Metric values against closed forms and a brute-force windowed SSIM."""

import math

import numpy as np
import pytest

from shadowscan.errors import InputError
from shadowscan.metrics import _KERNEL, PSNR_CAP, evaluate, format_report, srgb_to_lab, ssim_map


def _pair(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(3, h, w)), rng.uniform(0.0, 1.0, size=(3, h, w))


_NO_SHADOW = np.zeros((16, 16))


def test_identical_images_hit_the_caps():
    img = _pair(0)[0]
    scores = evaluate(img, img, _NO_SHADOW).full
    assert scores.psnr == PSNR_CAP
    assert scores.ssim == 1.0
    assert scores.rmse == 0.0


def test_psnr_constant_offset():
    pred = np.full((3, 16, 16), 0.4)
    gt = np.full((3, 16, 16), 0.5)
    assert abs(evaluate(pred, gt, _NO_SHADOW).full.psnr - 20.0) < 1e-6


def test_psnr_region_decomposition():
    # region MSEs recovered from the dB values must add up over the frame
    pred, gt = _pair(1)
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:12, 3:9] = True
    n_s = 3 * int(mask.sum())
    n_ns = 3 * int((~mask).sum())
    report = evaluate(pred, gt, mask.astype(float))
    mse_s = 10.0 ** (-report.shadow.psnr / 10.0)
    mse_ns = 10.0 ** (-report.clear.psnr / 10.0)
    mse_all = 10.0 ** (-report.full.psnr / 10.0)
    assert abs(n_s * mse_s + n_ns * mse_ns - (n_s + n_ns) * mse_all) < 1e-12


def test_image_validation():
    pred, gt = _pair(3)
    with pytest.raises(InputError):
        evaluate(pred[0], gt[0], _NO_SHADOW)
    with pytest.raises(InputError):
        evaluate(pred, gt[:, :8, :], _NO_SHADOW)
    with pytest.raises(InputError):
        evaluate(pred + 1.0, gt, _NO_SHADOW)
    bad = pred.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        evaluate(bad, gt, _NO_SHADOW)


def test_ssim_map_matches_per_window_brute_force():
    pred, gt = _pair(4, 12, 13)
    got = ssim_map(pred, gt)
    weights = np.outer(_KERNEL, _KERNEL)
    c1, c2 = 0.01**2, 0.03**2
    pad_p = np.pad(pred, ((0, 0), (5, 5), (5, 5)), mode="reflect")
    pad_g = np.pad(gt, ((0, 0), (5, 5), (5, 5)), mode="reflect")
    for c in range(3):
        for i in range(12):
            for j in range(13):
                wp = pad_p[c, i : i + 11, j : j + 11]
                wg = pad_g[c, i : i + 11, j : j + 11]
                mu_p = float((weights * wp).sum())
                mu_g = float((weights * wg).sum())
                var_p = float((weights * wp * wp).sum()) - mu_p * mu_p
                var_g = float((weights * wg * wg).sum()) - mu_g * mu_g
                cov = float((weights * wp * wg).sum()) - mu_p * mu_g
                want = ((2 * mu_p * mu_g + c1) * (2 * cov + c2)) / (
                    (mu_p * mu_p + mu_g * mu_g + c1) * (var_p + var_g + c2)
                )
                assert abs(got[c, i, j] - want) < 1e-12


def test_ssim_needs_a_full_window():
    pred, gt = _pair(5, 10, 12)
    with pytest.raises(InputError):
        ssim_map(pred, gt)


def test_lab_reference_colors():
    white = srgb_to_lab(np.ones((3, 1, 1)))[:, 0, 0]
    assert abs(white[0] - 100.0) < 0.01
    assert abs(white[1]) < 0.01 and abs(white[2]) < 0.01
    black = srgb_to_lab(np.zeros((3, 1, 1)))[:, 0, 0]
    assert np.all(np.abs(black) < 1e-12)
    red = np.zeros((3, 1, 1))
    red[0] = 1.0
    lab = srgb_to_lab(red)[:, 0, 0]
    assert abs(lab[0] - 53.24) < 0.05
    assert abs(lab[1] - 80.09) < 0.05
    assert abs(lab[2] - 67.20) < 0.05


def test_rmse_lab_region_decomposition():
    pred, gt = _pair(6)
    mask = np.zeros((16, 16), dtype=bool)
    mask[2:9, 5:14] = True
    n_s = 3 * int(mask.sum())
    n_ns = 3 * int((~mask).sum())
    report = evaluate(pred, gt, mask.astype(float))
    full_sq = (n_s + n_ns) * report.full.rmse**2
    part_sq = n_s * report.shadow.rmse**2 + n_ns * report.clear.rmse**2
    assert abs(full_sq - part_sq) < 1e-9 * max(1.0, full_sq)


def test_evaluate_regions_and_report():
    pred, gt = _pair(7)
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    report = evaluate(pred, gt, mask)
    assert report.shadow is not None and report.clear is not None
    region = mask >= 0.5
    # each score is its per-pixel map's mean over the region's pixels and
    # channels, summed in one flat pass (a (3, n) mean would round differently)
    sq = (pred - gt) ** 2
    smap = ssim_map(pred, gt)
    lab_sq = (srgb_to_lab(pred) - srgb_to_lab(gt)) ** 2
    everywhere = np.ones_like(region)
    for scores, where in ((report.shadow, region), (report.clear, ~region), (report.full, everywhere)):
        assert scores.psnr == 10.0 * math.log10(1.0 / sq[:, where].ravel().mean())
        assert scores.ssim == smap[:, where].ravel().mean()
        assert scores.rmse == math.sqrt(lab_sq[:, where].ravel().mean())
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "region psnr ssim rmse"
    assert lines[1].startswith("S ") and lines[3].startswith("ALL ")
    # the key=value block must round-trip the exact floats
    pairs = dict(line.split("=", 1) for line in lines[5:])
    assert float(pairs["psnr_all"]) == report.full.psnr
    assert float(pairs["ssim_s"]) == report.shadow.ssim
    assert float(pairs["rmse_ns"]) == report.clear.rmse


def test_evaluate_empty_shadow_reports_nan_rows():
    pred, gt = _pair(8)
    report = evaluate(pred, gt, np.zeros((16, 16)))
    assert report.shadow is None
    assert report.clear is not None and report.full is not None
    lines = format_report(report).splitlines()
    assert lines[1] == "S nan nan nan"
    assert "psnr_s=nan" in lines and "rmse_s=nan" in lines


def test_evaluate_resize_reconciles_sizes():
    rng = np.random.default_rng(9)
    pred = rng.uniform(0.0, 1.0, size=(3, 20, 24))
    gt = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    mask = np.zeros((20, 24))
    mask[5:15, 6:18] = 1.0
    with pytest.raises(InputError):
        evaluate(pred, gt, mask)
    report = evaluate(pred, gt, mask, resize_to=16)
    assert report.full.psnr > 0.0
    assert math.isfinite(report.full.ssim)


def test_evaluate_mask_must_be_2d():
    pred, gt = _pair(10)
    with pytest.raises(InputError):
        evaluate(pred, gt, np.zeros((1, 16, 16)))


@pytest.mark.parametrize("resize_to", [None, 256])
@pytest.mark.parametrize("bad", ["nan_rows", "above_one"])
def test_evaluate_rejects_the_masks_the_model_rejects(bad, resize_to):
    # the same rule as ShadowNet.forward's, checked before any resizing
    pred, gt = _pair(11)
    mask = np.zeros((16, 16))
    if bad == "nan_rows":
        mask[3:5] = np.nan
    else:
        mask[6:10, 6:10] = 7.0
    with pytest.raises(InputError, match=r"mask values must be finite and within \[0, 1\]"):
        evaluate(pred, gt, mask, resize_to=resize_to)
