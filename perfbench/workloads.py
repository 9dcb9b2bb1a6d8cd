"""The three workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one client and no think time. The
runner calls ``setup`` and the warm-up request, then ``prepare`` (untimed
client work such as writing the next input files), ``request`` (timed) and
``check`` (untimed) per operation. ``golden`` reruns fixed cases whose
outputs are stored under ``refs/`` and returns the mismatches.

Checks. A forward output must be a complete binary PPM of the input's size;
an eval report must hold the nine key=value lines with finite values,
except ``nan`` for the shadow region of a shadow-free mask; a training loss
must be finite. The golden cases must match their references: forward
pixels within 1/255 (one quantization step), eval values within a relative
1e-9 when scored on the stored prediction, and training losses exactly.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time

import numpy as np

from shadowscan import checkpoint, cli
from shadowscan.blocks import ShadowNet
from shadowscan.config import ModelConfig
from shadowscan.imageio import write_pgm, write_ppm

train = importlib.import_module("shadowscan.train")

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
GOLDEN_SEED = 0
# the cosine schedule of `train-toy`, whose default is 200 steps
SCHEDULE_STEPS = 200
EVAL_KEYS = [f"{m}_{r}" for r in ("s", "ns", "all") for m in ("psnr", "ssim", "rmse")]
PIXEL_TOL = 1
EVAL_RTOL = 1e-9
FULL_CONFIG = {"channels": 32, "state_dim": 16, "unet_depth": 4}
# the runner times at least MIN_OPS requests after the warm-up, so every
# run reaches the step whose loss is reported as train_loss_final
MIN_OPS = 12
LOSS_STEP = MIN_OPS


class Miss(Exception):
    """An output that fails its check."""


def run_cli(argv: list[str]) -> int:
    """``cli.main`` in-process, with argparse exits turned into codes."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def deck_pair(seed: int, index: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Request ``index`` of a seed's deck: (shadowed, mask, clean).

    Request 1 has a shadow-free mask and request 2 a rectangle in a
    corner of the grid; the others carry one ellipse or rectangle. Every
    request draws from its own stream, so no mask repeats within a deck.
    """
    rng = np.random.default_rng([seed, index])
    ys = np.linspace(0.0, 1.0, size)[:, None]
    xs = np.linspace(0.0, 1.0, size)[None, :]
    base = rng.uniform(0.3, 0.7, size=(3, 1, 1))
    clean = base + rng.uniform(-0.25, 0.25, (3, 1, 1)) * ys + rng.uniform(-0.25, 0.25, (3, 1, 1)) * xs
    clean = np.clip(clean + rng.normal(0.0, 0.01, (3, size, size)), 0.02, 0.98)
    mask = np.zeros((size, size))
    if index == 2:
        h, w = (int(v) for v in rng.integers(size // 4, size // 2 + 1, 2))
        top = 0 if rng.random() < 0.5 else size - h
        left = 0 if rng.random() < 0.5 else size - w
        mask[top : top + h, left : left + w] = 1.0
    elif index != 1 and rng.random() < 0.5:
        cy, cx = rng.uniform(0.25, 0.75, 2) * size
        ry, rx = rng.uniform(0.12, 0.3, 2) * size
        mask[((np.arange(size)[:, None] - cy) / ry) ** 2 + ((np.arange(size)[None, :] - cx) / rx) ** 2 <= 1.0] = 1.0
    elif index != 1:
        h, w = (int(v) for v in rng.integers(size // 4, 2 * size // 3 + 1, 2))
        top, left = int(rng.integers(0, size - h + 1)), int(rng.integers(0, size - w + 1))
        mask[top : top + h, left : left + w] = 1.0
    factor = rng.uniform(0.3, 0.6)
    shadowed = clean * (1.0 - (1.0 - factor) * mask[None])
    return shadowed, mask, clean


def read_ppm_bytes(path: str, height: int, width: int) -> np.ndarray:
    """Raster of a P6 file the CLI wrote, or Miss if it is not complete."""
    with open(path, "rb") as f:
        raw = f.read()
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if not raw.startswith(header) or len(raw) != len(header) + 3 * height * width:
        raise Miss(f"{os.path.basename(path)} is not a complete {width}x{height} P6 file")
    return np.frombuffer(raw, dtype=np.uint8, offset=len(header))


def parse_report(path: str) -> dict[str, float]:
    values = {}
    with open(path, encoding="ascii") as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep:
                values[key] = float(value)
    if list(values) != EVAL_KEYS:
        raise Miss(f"eval report keys {list(values)} differ from {EVAL_KEYS}")
    return values


def check_report(values: dict[str, float], shadow_free: bool) -> None:
    for key, value in values.items():
        expect_nan = shadow_free and key.endswith("_s")
        if math.isnan(value) != expect_nan or math.isinf(value):
            raise Miss(f"eval {key}={value} (shadow-free mask: {shadow_free})")


def check_loss(loss: float) -> None:
    if not math.isfinite(loss):
        raise Miss(f"training loss {loss} is not finite")


def _pixels_match(got: np.ndarray, ref: np.ndarray, what: str) -> None:
    diff = int(np.abs(got.astype(np.int16) - ref.astype(np.int16)).max())
    if diff > PIXEL_TOL:
        raise Miss(f"{what}: max pixel difference {diff}/255 exceeds {PIXEL_TOL}/255")


def _copy(src: str, dst: str) -> None:
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(src, "rb") as f, open(dst, "wb") as g:
        g.write(f.read())


def _close(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= EVAL_RTOL * abs(ref)


class Workload:
    name = ""
    images_per_request = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, index: int) -> None:
        pass

    def details(self) -> dict:
        return {}


class Infer64(Workload):
    """`forward` then `eval --resize256` per request, default config, 64 px."""

    name = "infer-64"
    size = 64

    def setup(self) -> None:
        self.ckpt = self.path("default.ckpt")
        checkpoint.save_checkpoint(self.ckpt, ShadowNet(ModelConfig()))

    def _write_pair(self, seed: int, index: int, stem: str) -> None:
        shadowed, mask, clean = deck_pair(seed, index, self.size)
        write_ppm(self.path(stem + "_shadow.ppm"), shadowed)
        write_pgm(self.path(stem + "_mask.pgm"), mask)
        write_ppm(self.path(stem + "_gt.ppm"), clean)
        self.shadow_free = not mask.any()

    def prepare(self, index: int) -> None:
        self._write_pair(self.seed, index, "req")

    def _forward(self, stem: str, out: str) -> int:
        return run_cli(
            ["forward", self.path(stem + "_shadow.ppm"), self.path(stem + "_mask.pgm"),
             "--checkpoint", self.ckpt, "--out", out]
        )

    def _eval(self, stem: str, pred: str, out: str) -> int:
        return run_cli(
            ["eval", pred, self.path(stem + "_gt.ppm"), self.path(stem + "_mask.pgm"),
             "--resize256", "--out", out]
        )

    def request(self, index: int) -> dict:
        start = time.perf_counter()
        rc_forward = self._forward("req", self.path("req_pred.ppm"))
        infer_ms = _ms(start)
        start = time.perf_counter()
        rc_eval = self._eval("req", self.path("req_pred.ppm"), self.path("req_report.txt"))
        return {"infer_ms": infer_ms, "eval_ms": _ms(start), "rc": (rc_forward, rc_eval)}

    def check(self, index: int, out: dict) -> None:
        if out["rc"] != (0, 0):
            raise Miss(f"exit codes forward/eval {out['rc']}")
        read_ppm_bytes(self.path("req_pred.ppm"), self.size, self.size)
        check_report(parse_report(self.path("req_report.txt")), self.shadow_free)

    def golden(self, write: bool = False) -> list[str]:
        """Deck requests 0 to 2 of the golden seed: one ellipse or
        rectangle, the shadow-free mask and the corner rectangle."""
        misses = []
        for k in range(3):
            stem = f"golden{k}"
            ref_pred = os.path.join(REFS, self.name, f"pred-{k}.ppm")
            ref_report = os.path.join(REFS, self.name, f"eval-{k}.txt")
            self._write_pair(GOLDEN_SEED, k, stem)
            pred = self.path(stem + "_pred.ppm")
            try:
                if self._forward(stem, pred) != 0:
                    raise Miss("forward exit code")
                got = read_ppm_bytes(pred, self.size, self.size)
                if write:
                    _copy(pred, ref_pred)
                _pixels_match(got, read_ppm_bytes(ref_pred, self.size, self.size), f"golden {k} forward")
                report = self.path(stem + "_report.txt")
                if self._eval(stem, ref_pred, report) != 0:
                    raise Miss("eval exit code")
                values = parse_report(report)
                if write:
                    _copy(report, ref_report)
                ref = parse_report(ref_report)
                bad = [key for key in EVAL_KEYS if not _close(values[key], ref[key])]
                if bad:
                    raise Miss(f"golden {k} eval differs at {bad}")
            except (Miss, OSError) as exc:
                misses.append(f"{self.name} golden {k}: {exc}")
        return misses


class _Training(Workload):
    """Shared by the two training workloads: Adam over a cosine schedule,
    batches drawn in fixed order from seeded toy pairs."""

    config: dict = {}
    batch = 1
    train_pairs = 8
    held_out = 0

    def setup(self) -> None:
        self.model = ShadowNet(ModelConfig.from_dict(self.config))
        self.state = train.init_adam(self.model.params())
        self.pairs = train.make_toy_pairs(self.train_pairs + self.held_out, 32, self.seed)
        self.losses: list[float] = []

    def _step(self) -> float:
        step = len(self.losses)
        batch = [self.pairs[(step * self.batch + j) % self.train_pairs] for j in range(self.batch)]
        loss = train.train_step(self.model, self.state, batch, train.cosine_lr(step, SCHEDULE_STEPS))
        self.losses.append(loss)
        return loss

    def _golden_losses(self, steps: int) -> list[float]:
        self.seed, keep = GOLDEN_SEED, self.seed
        try:
            self.setup()
            return [self._step() for _ in range(steps)]
        finally:
            self.seed = keep

    def _compare_losses(self, losses: list[float], write: bool) -> list[str]:
        ref_path = os.path.join(REFS, f"{self.name}-losses.json")
        if write:
            with open(ref_path, "w", encoding="ascii") as f:
                json.dump([repr(v) for v in losses], f)
        with open(ref_path, encoding="ascii") as f:
            ref = [float(v) for v in json.load(f)]
        if losses != ref:
            return [f"{self.name} golden losses {losses!r} differ from {ref!r}"]
        return []

    def details(self) -> dict:
        # the loss after a fixed number of steps, so it repeats exactly
        return {"train_loss_final": self.losses[LOSS_STEP] if len(self.losses) > LOSS_STEP else None}


class Train32(_Training):
    """`train-toy --synth 8 --batch 4`: default config, 32 px, one
    `train_step` per request."""

    name = "train-32"
    batch = 4
    images_per_request = 4

    def request(self, index: int) -> dict:
        start = time.perf_counter()
        loss = self._step()
        return {"train_step_ms": _ms(start), "loss": loss}

    def check(self, index: int, out: dict) -> None:
        check_loss(out["loss"])

    def golden(self, write: bool = False) -> list[str]:
        return self._compare_losses(self._golden_losses(2), write)


class Full32(_Training):
    """Full-size config at 32 px: a batch-1 `train_step`, `save_checkpoint`,
    then `forward` on a held-out image from the saved checkpoint."""

    name = "full-32"
    config = FULL_CONFIG
    held_out = 4
    images_per_request = 2

    def setup(self) -> None:
        super().setup()
        self.ckpt = self.path("full.ckpt")
        checkpoint.save_checkpoint(self.ckpt, self.model)
        for k, (shadowed, mask, _) in enumerate(self.pairs[self.train_pairs :]):
            write_ppm(self.path(f"held{k}.ppm"), shadowed)
            write_pgm(self.path(f"held{k}.pgm"), mask)

    def _validate(self, k: int, out: str) -> int:
        return run_cli(
            ["forward", self.path(f"held{k}.ppm"), self.path(f"held{k}.pgm"),
             "--checkpoint", self.ckpt, "--out", out]
        )

    def request(self, index: int) -> dict:
        start = time.perf_counter()
        loss = self._step()
        step_ms = _ms(start)
        start = time.perf_counter()
        checkpoint.save_checkpoint(self.ckpt, self.model)
        save_ms = _ms(start)
        start = time.perf_counter()
        rc = self._validate(index % self.held_out, self.path("pred.ppm"))
        return {"train_step_ms": step_ms, "save_ms": save_ms, "infer_ms": _ms(start), "loss": loss, "rc": rc}

    def check(self, index: int, out: dict) -> None:
        check_loss(out["loss"])
        if out["rc"] != 0:
            raise Miss(f"forward exit code {out['rc']}")
        read_ppm_bytes(self.path("pred.ppm"), 32, 32)

    def golden(self, write: bool = False) -> list[str]:
        """Two batch-1 steps from a fresh full-size model on the golden
        seed's pairs, then `forward` on its first held-out image."""
        misses = self._compare_losses(self._golden_losses(2), write)
        checkpoint.save_checkpoint(self.ckpt, self.model)
        pred = self.path("golden_pred.ppm")
        ref_pred = os.path.join(REFS, self.name, "pred-0.ppm")
        try:
            if self._validate(0, pred) != 0:
                raise Miss("forward exit code")
            got = read_ppm_bytes(pred, 32, 32)
            if write:
                _copy(pred, ref_pred)
            _pixels_match(got, read_ppm_bytes(ref_pred, 32, 32), "golden forward")
        except (Miss, OSError) as exc:
            misses.append(f"{self.name} golden: {exc}")
        return misses

WORKLOADS = {w.name: w for w in (Infer64, Train32, Full32)}
