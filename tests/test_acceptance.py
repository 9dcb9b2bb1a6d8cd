"""Acceptance criteria, one test per criterion with its stated tolerance and
time budget. Run with -v for the per-criterion pass/fail lines."""

import time

import numpy as np

from helpers import run_cli
from shadowscan.blocks import ShadowNet
from shadowscan.checkpoint import save_checkpoint
from shadowscan.checks import (
    check_discretization,
    check_form_equivalence,
    check_gradients,
    check_identity,
    check_interleave,
    check_scan_locality,
    check_scan_validity,
)
from shadowscan.config import ModelConfig
from shadowscan.imageio import write_pgm, write_ppm
from shadowscan.metrics import evaluate, srgb_to_lab
from shadowscan.train import dataset_loss, make_toy_pairs, train


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_conv_recurrence_equivalence():
    start = time.perf_counter()
    res = check_form_equivalence(cases=100, tol=1e-10)
    elapsed = time.perf_counter() - start
    assert res.passed, res.detail
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, f"100 configs, max_err={res.max_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_discretization_and_series():
    res = check_discretization(tol_exact=1e-12, tol_series=1e-9)
    assert res.passed, res.detail
    _report(2, f"max_err={res.max_err:.2e}")


def test_criterion_03_exhaustive_scan_validity():
    start = time.perf_counter()
    res = check_scan_validity(max_side=8)
    elapsed = time.perf_counter() - start
    assert res.passed, res.detail
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(3, f"{res.detail}, {elapsed:.1f}s")


def test_criterion_04_scan_locality():
    res = check_scan_locality(trials=1000, side=16, required=0.99)
    assert res.passed, res.detail
    _report(4, res.detail)


def test_criterion_05_interleave_round_trip():
    res = check_interleave()
    assert res.passed, res.detail
    _report(5, res.detail)


def test_criterion_06_analytic_gradients():
    start = time.perf_counter()
    res = check_gradients(tol=1e-3)
    elapsed = time.perf_counter() - start
    assert res.passed, res.detail
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(6, f"max rel err {res.max_err:.2e}, {elapsed:.1f}s")


def test_criterion_07_silenced_identity():
    res = check_identity()
    assert res.passed, res.detail
    assert res.max_err == 0.0
    _report(7, "bitwise")


def _mean_shadow_psnr(model, pairs):
    total = 0.0
    for shadowed, mask, clean in pairs:
        pred = model.forward(shadowed, mask).data
        total += evaluate(pred, clean, mask).shadow.psnr
    return total / len(pairs)


def test_criterion_08_toy_training_convergence():
    start = time.perf_counter()
    pairs = make_toy_pairs(count=8, size=32, seed=0)
    model = ShadowNet(ModelConfig())
    initial_loss = dataset_loss(model, pairs)
    initial_psnr = _mean_shadow_psnr(model, pairs)
    train(model, pairs, steps=200, batch_size=4)
    final_loss = dataset_loss(model, pairs)
    final_psnr = _mean_shadow_psnr(model, pairs)
    elapsed = time.perf_counter() - start
    assert final_loss <= 0.5 * initial_loss, f"{final_loss:.4f} vs initial {initial_loss:.4f}"
    assert final_psnr > initial_psnr, f"{final_psnr:.2f} dB vs initial {initial_psnr:.2f} dB"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(
        8,
        f"loss {initial_loss:.4f}->{final_loss:.4f}, "
        f"S-PSNR {initial_psnr:.2f}->{final_psnr:.2f} dB, {elapsed:.0f}s",
    )


def test_criterion_09_metric_values():
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    no_shadow = np.zeros((16, 16))
    same = evaluate(img, img, no_shadow).full
    assert same.psnr == 100.0
    assert same.ssim == 1.0
    assert same.rmse == 0.0
    pred = np.full((3, 16, 16), 0.4)
    gt = np.full((3, 16, 16), 0.5)
    assert abs(evaluate(pred, gt, no_shadow).full.psnr - 20.0) < 1e-6
    a, b = rng.uniform(size=(3, 16, 16)), rng.uniform(size=(3, 16, 16))
    region = np.zeros((16, 16), dtype=bool)
    region[3:11, 5:14] = True
    n_s, n_ns = 3 * int(region.sum()), 3 * int((~region).sum())
    report = evaluate(a, b, region.astype(float))
    mse_s = 10.0 ** (-report.shadow.psnr / 10.0)
    mse_ns = 10.0 ** (-report.clear.psnr / 10.0)
    mse_all = 10.0 ** (-report.full.psnr / 10.0)
    assert abs(n_s * mse_s + n_ns * mse_ns - (n_s + n_ns) * mse_all) < 1e-12
    white = srgb_to_lab(np.ones((3, 1, 1)))[0, 0, 0]
    assert abs(white - 100.0) < 0.01
    _report(9, "caps, 20dB offset, region consistency, Lab white")


def test_criterion_10_byte_reproducible_commands(tmp_path):
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4)
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(config))
    rng = np.random.default_rng(1)
    write_ppm(str(tmp_path / "in.ppm"), rng.uniform(0.0, 1.0, size=(3, 16, 16)))
    mask = np.zeros((16, 16))
    mask[4:10, 6:12] = 1.0
    write_pgm(str(tmp_path / "mask.pgm"), mask)
    big = np.zeros((32, 32))
    big[8:24, 8:24] = 1.0
    write_pgm(str(tmp_path / "big.pgm"), big)
    for tag in ("a", "b"):
        proc = run_cli(
            ["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt", "--out", f"{tag}.ppm"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["scan-viz", "big.pgm", "--out", tag], tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
    assert (tmp_path / "a_path.txt").read_bytes() == (tmp_path / "b_path.txt").read_bytes()
    assert (tmp_path / "a_viz.ppm").read_bytes() == (tmp_path / "b_viz.ppm").read_bytes()
    _report(10, "forward and scan-viz byte-identical across runs")
