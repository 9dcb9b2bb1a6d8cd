"""Self-check suites behind the ``check`` subcommand.

Each check pits an implementation against an independent oracle (closed
form, exhaustive enumeration, finite differences, or, for the scan, the
causal convolution that token-invariant parameters admit) and reports
its worst error. The suites are also what the acceptance tests call, so the
command line and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import GradTape, Tensor, backward
from .blocks import ShadowNet, dfmb_interleave, fold_back
from .config import ModelConfig
from .errors import InputError
from .scanorder import horizontal_order, mas_order, mean_adjacent_gap, partition_patches, shadow_rect
from .ssm import discretize, scan_forward
from .train import batch_loss


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str


def _conv_form(a, b, c, d, delta, x):
    """x (*) (C Bbar, C Abar Bbar, ..., C Abar^(L-1) Bbar) + d x, causal and
    truncated to len(x), with (A, B) discretized at the step ``delta`` by
    ``discretize``. A must be negative."""
    length = x.shape[0]
    abar, bbar = discretize(a, b, delta)
    powers = abar[None, :] ** np.arange(length, dtype=np.float64)[:, None]
    return np.convolve(x, powers @ (c * bbar))[:length] + d * x


def _scan_node(*directions):
    """The model's scan kernel over K = len(directions) token-invariant
    single-channel scans (a, b, c, d, delta, x) of one length and state
    size: step, B, log(-A) and C repeated per token, stacked on the
    direction axis as the scan node stacks them, which the kernel
    discretizes itself with the same ZOH factor. Direction k runs on
    channel k alone (its input on every other channel is 0, so it adds
    exact zeros there). Returns each direction's output in the order of
    its own x."""
    k_dirs = len(directions)
    length, n = directions[0][5].shape[0], directions[0][0].shape[0]
    dt = np.empty((length, k_dirs, k_dirs))
    b_in, cvec = np.empty((2, length, k_dirs, n))
    a_log = np.empty((k_dirs, k_dirs, n))
    x_in = np.zeros((length, k_dirs, k_dirs))
    d_in = np.zeros((k_dirs, k_dirs))
    for k, (a, b, c, d, delta, x) in enumerate(directions):
        dt[:, k] = delta
        b_in[:, k] = b
        cvec[:, k] = c
        a_log[k] = np.log(-a)
        x_in[:, k, k] = x
        d_in[k, k] = d
    ys = scan_forward(dt, b_in, cvec, x_in, d_in, np.exp(a_log))[0]
    return [ys[:, k, k] for k in range(k_dirs)]


def check_form_equivalence(cases: int = 100, tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """Recurrence vs convolution kernel on random token-invariant scans.

    Each config runs alone, then as the first of two directions that share
    one kernel call. The second scans 2x with C and d scaled by -1/2: every
    product it forms is -1 times the first's, so its output and its
    convolution form are the first's negated bit for bit, and each is
    checked against its own form. The pair adds no rounding of its own, and
    a direction that reads the other's input, C or d, fails."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        length = int(rng.integers(1, 65))
        a = -np.exp(rng.normal(0.0, 1.0, n))
        b = rng.normal(0.0, 1.0, n)
        c = rng.normal(0.0, 1.0, n)
        d = float(rng.normal())
        delta = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
        x = rng.normal(0.0, 1.0, length)
        first, second = (a, b, c, d, delta, x), (a, b, -0.5 * c, -0.5 * d, delta, 2.0 * x)
        for scans in ((first,), (first, second)):
            for scan, y_rec in zip(scans, _scan_node(*scans)):
                worst = max(worst, float(np.abs(_conv_form(*scan) - y_rec).max()))
    return CheckResult("ssm-form-equivalence", worst <= tol, worst, f"{cases} random configs, tol {tol:g}")


def check_discretization(tol_exact: float = 1e-12, tol_series: float = 1e-9) -> CheckResult:
    """Closed-form step values and the small-step series limit."""
    b = np.array([2.0, -3.0, 0.5])
    abar, bbar = discretize(np.full(3, -1.0), b, math.log(2.0))
    err = max(float(np.abs(abar - 0.5).max()), float(np.abs(bbar - 0.5 * b).max()))
    worst = err
    ok = err <= tol_exact
    for u in (1e-6, -1e-6):
        series = 1.0 + u / 2.0 + u * u / 6.0
        # at A = u, B = 1 and step 1, bbar is the ZOH factor itself
        _, (factor,) = discretize(np.array([u]), np.ones(1), 1.0)
        diff = abs(factor - series)
        worst = max(worst, diff)
        ok = ok and diff <= tol_series
    return CheckResult("zoh-discretization", ok, worst, "A=-1, step ln2 exact; series limit at |dA|=1e-6")


def _rect_grid(rows: int, cols: int, top: int, bottom: int, left: int, right: int):
    mask = np.zeros((rows, cols))
    mask[top : bottom + 1, left : right + 1] = 1.0
    return partition_patches(mask, 1, 0.5)


def check_scan_validity(max_side: int = 8) -> CheckResult:
    """Exhaustive: every grid up to max_side and every shadow rect yields a
    permutation whose prefix is exactly the rect, walked in unit steps."""
    bad = 0
    cases = 0
    for rows in range(1, max_side + 1):
        for cols in range(1, max_side + 1):
            for top in range(rows):
                for bottom in range(top, rows):
                    for left in range(cols):
                        for right in range(left, cols):
                            cases += 1
                            grid = _rect_grid(rows, cols, top, bottom, left, right)
                            rect = shadow_rect(grid)
                            path = mas_order(grid)
                            area = rect.area
                            prefix = path.coords[:area]
                            ok = path.is_permutation()
                            ok = ok and set(prefix) == set(rect.cells())
                            ok = ok and all(
                                abs(a[0] - b2[0]) + abs(a[1] - b2[1]) == 1
                                for a, b2 in zip(prefix, prefix[1:])
                            )
                            if not ok:
                                bad += 1
    return CheckResult("scan-validity", bad == 0, float(bad), f"{cases} grid/rect cases exhausted")


def check_scan_locality(
    trials: int = 1000, side: int = 16, required: float = 0.99, seed: int = 0
) -> CheckResult:
    """Mask-aware order should not spread adjacent shadow patches further
    apart than the row-major order does, in nearly every random case.

    Shadow rect sides are drawn below half the grid side: benchmark
    shadows are minority regions, and once a square rect reaches half the
    grid side the spiral's cross-ring gaps provably exceed row-major's
    (on 16x16 the 8x8 square is the exact flip point; everything smaller
    wins, verified exhaustively).
    """
    rng = np.random.default_rng(seed)
    hor = horizontal_order(side, side)
    wins = 0
    for _ in range(trials):
        height = int(rng.integers(1, side // 2))
        width = int(rng.integers(1, side // 2))
        top = int(rng.integers(0, side - height + 1))
        left = int(rng.integers(0, side - width + 1))
        grid = _rect_grid(side, side, top, top + height - 1, left, left + width - 1)
        cells = list(shadow_rect(grid).cells())
        if mean_adjacent_gap(mas_order(grid), cells) <= mean_adjacent_gap(hor, cells):
            wins += 1
    frac = wins / trials
    return CheckResult("scan-locality", frac >= required, 1.0 - frac, f"{wins}/{trials} trials at or below row-major gap")


def check_interleave(seed: int = 0) -> CheckResult:
    """Length and bitwise round-trip of the dual-scale weave."""
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for h, w in ((2, 2), (4, 6), (6, 4), (16, 16), (32, 64), (64, 64)):
        fine = rng.normal(size=(h * w, 3))
        coarse = rng.normal(size=((h // 2) * (w // 2), 3))
        woven = dfmb_interleave(Tensor(fine), Tensor(coarse), h, w)
        ok = ok and woven.shape[0] == 5 * h * w // 4
        restored = fold_back(woven, h, w)
        if not np.array_equal(restored.data, fine):
            ok = False
            worst = max(worst, float(np.abs(restored.data - fine).max()))
    return CheckResult("interleave-roundtrip", ok, worst, "5HW/4 length and exact fold on maps up to 64x64")


def _grad_fixture(seed: int):
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, seed=seed)
    model = ShadowNet(config)
    rng = np.random.default_rng(seed + 1)
    image = rng.uniform(0.1, 0.9, size=(3, 8, 8))
    mask = np.zeros((8, 8))
    mask[2:6, 3:7] = 1.0
    target = rng.uniform(0.1, 0.9, size=(3, 8, 8))
    return model, image, mask, target


def check_gradients(tol: float = 1e-3, eps: float = 1e-5, seed: int = 0) -> CheckResult:
    """Every parameter of a small full model against central differences.

    The fixture keeps dropout at 0: the analytic pass runs on a tape, where
    dropout would draw masks, but the finite differences run untaped, where
    it is the identity, so the two would differentiate different functions.

    Relative error uses a 1e-4 denominator floor: below that scale the
    comparison is effectively absolute, which is all central differences
    can resolve.
    """
    model, image, mask, target = _grad_fixture(seed)
    batch = [(image, mask, target)]
    tape = GradTape()
    with tape:
        loss = batch_loss(model, batch)
    backward(loss, tape)
    worst = 0.0
    ok = True
    detail = "all parameters within tolerance"
    for name, tensor in model.named_params():
        grad = tensor.grad
        if grad is None or not np.any(grad):
            ok = False
            detail = f"{name} has identically-zero gradient"
            break
        flat = tensor.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(batch_loss(model, batch).data)
            flat[i] = keep - eps
            down = float(batch_loss(model, batch).data)
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-4)
            if rel > worst:
                worst = rel
                if rel > tol:
                    ok = False
                    detail = f"{name}[{i}] analytic {gflat[i]:.3e} vs fd {fd:.3e}"
    return CheckResult("gradient-finite-difference", ok, worst, detail)


def check_identity(seed: int = 0) -> CheckResult:
    """Silenced model must return the input image bit for bit."""
    config = ModelConfig(channels=4, state_dim=4, expansion=2, unet_depth=1, patch_size=4, seed=seed)
    model = ShadowNet(config)
    model.silence()
    rng = np.random.default_rng(seed + 1)
    image = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    mask = np.zeros((16, 16))
    mask[4:10, 6:12] = 1.0
    out = model.forward(image, mask)
    exact = np.array_equal(out.data, image)
    worst = 0.0 if exact else float(np.abs(out.data - image).max())
    return CheckResult("silenced-identity", exact, worst, "silenced scans, MLPs and decoder")


# suite name -> its checks at a seed, in the order ``all`` runs them
SUITES = {
    "ssm-equiv": lambda seed: [check_form_equivalence(seed=seed), check_discretization()],
    "grad": lambda seed: [check_gradients(seed=seed), check_identity(seed=seed)],
    "scan": lambda seed: [check_scan_validity(), check_scan_locality(seed=seed)],
    "interleave": lambda seed: [check_interleave(seed=seed)],
}


def run_suite(suite: str, seed: int = 0) -> list[CheckResult]:
    if suite == "all":
        return [result for run in SUITES.values() for result in run(seed)]
    if suite not in SUITES:
        raise InputError(f"unknown check suite {suite!r} (choose from {', '.join([*SUITES, 'all'])})")
    return SUITES[suite](seed)
