"""Training loop: Adam with bias correction and a cosine learning-rate ramp.

Also hosts the synthetic toy set used for smoke training. The toy images are
smooth colored gradients; a rectangle is darkened by a per-image factor to
fabricate the shadowed input, so the clean image is exactly recoverable.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, backward
from .blocks import ShadowNet
from .errors import InputError
from .imageio import read_image, read_mask


LR_MAX = 2e-4
LR_MIN = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def cosine_lr(step: int, total_steps: int) -> float:
    """Cosine ramp from LR_MAX at step 0 down to LR_MIN at the last step."""
    if total_steps <= 1:
        return LR_MAX
    t = min(max(step, 0), total_steps - 1)
    return LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + math.cos(math.pi * t / (total_steps - 1)))


@dataclass
class AdamState:
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def init_adam(params: list[Tensor]) -> AdamState:
    state = AdamState()
    state.m = [np.zeros_like(p.data) for p in params]
    state.v = [np.zeros_like(p.data) for p in params]
    return state


def adam_step(params: list[Tensor], state: AdamState, lr: float) -> None:
    state.step += 1
    t = state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


Pair = tuple[np.ndarray, np.ndarray, np.ndarray]  # shadowed (3,H,W), mask (H,W), clean (3,H,W)


def batch_loss(model: ShadowNet, batch: list[Pair]) -> Tensor:
    """Mean absolute error between predictions and clean images, averaged
    over the batch, as one tape node. Inside a GradTape the forwards train
    (dropout draws masks); outside one they infer."""
    if not batch:
        raise InputError("the loss needs at least one image pair")
    preds = [model.forward(shadowed, mask) for shadowed, mask, _ in batch]
    diffs = [pred.data - clean for pred, (_, _, clean) in zip(preds, batch)]
    scale = 1.0 / len(batch)
    total = 0.0
    for d in diffs:
        total += np.abs(d).mean()
    out = Tensor(total * scale)
    slots = [pred.slot for pred in preds]

    def bw(g):
        g = g * scale
        for slot, d in zip(slots, diffs):
            # subgradient 0 where the prediction is exact
            slot.accumulate(np.full_like(d, float(g) / d.size) * np.sign(d), owned=True)

    ad._record(out, bw)
    return out


def dataset_loss(model: ShadowNet, pairs: list[Pair]) -> float:
    """batch_loss over all pairs, bit for bit, run one image at a time so
    that one prediction is alive at once, not the whole set's."""
    if not pairs:
        raise InputError("the loss needs at least one image pair")
    total = 0.0
    for pair in pairs:
        total += batch_loss(model, [pair]).data
    return float(total * (1.0 / len(pairs)))


def train_step(model: ShadowNet, state: AdamState, batch: list[Pair], lr: float) -> float:
    """One Adam update on the batch mean loss; returns that loss.

    The images run one at a time, in batch order, each through its own tape
    that is replayed and freed before the next image starts, so peak memory
    is that of a single image. The result is bitwise that of one tape over
    the whole batch: that tape hands each image's loss the cotangent
    ``1/B`` and replays the images last to first, and every parameter gets
    exactly one contribution per image. So each image's replay is seeded
    with ``1/B``, and its parameter gradients are summed last image first.
    Forwards stay in batch order, so dropout draws the same numbers; it
    draws them because each forward runs on a tape, and an untaped forward
    (``dataset_loss``, inference) draws none.

    Raises InputError, before the update, when the loss or a
    parameter gradient is not finite; the message names the step by the
    number of updates ``state`` has made.
    """
    named = model.named_params()
    params = [p for _, p in named]
    seed = 1.0 / len(batch)
    total = None
    grads = []
    for pair in batch:
        model.zero_grads()
        tape = GradTape()
        with tape:
            err = batch_loss(model, [pair])
        backward(err, tape, seed)
        total = err.data if total is None else total + err.data
        grads.append([p.grad for p in params])
    # the last image's gradients are in place; add the others last to first
    for image in reversed(grads[:-1]):
        for p, g in zip(params, image):
            if g is not None:
                p.accumulate(g)
    loss = float(total * seed)
    _check_finite(named, loss, state.step)
    adam_step(params, state, lr)
    return loss


def _check_finite(named: list[tuple[str, Tensor]], loss: float, step: int) -> None:
    if not math.isfinite(loss):
        raise InputError(f"training step {step}: loss is {loss!r}")
    for name, p in named:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise InputError(f"training step {step}: gradient of {name} is not finite")


def check_run(pairs: list[Pair], steps: int, batch_size: int) -> None:
    """Raise InputError for a run ``train`` cannot make; cheap, so
    callers can reject bad arguments before any forward pass."""
    if not pairs:
        raise InputError("training requires at least one image pair")
    if steps < 0:
        raise InputError(f"steps must be at least 0, got {steps}")
    if batch_size < 1:
        raise InputError(f"batch size must be at least 1, got {batch_size}")


def train(
    model: ShadowNet,
    pairs: list[Pair],
    steps: int,
    batch_size: int = 4,
    log_fn=None,
) -> list[float]:
    """Run `steps` updates, cycling through `pairs` in fixed order. Returns
    the per-step training losses."""
    check_run(pairs, steps, batch_size)
    state = init_adam(model.params())
    losses = []
    cursor = 0
    for step in range(steps):
        batch = []
        for _ in range(min(batch_size, len(pairs))):
            batch.append(pairs[cursor])
            cursor = (cursor + 1) % len(pairs)
        lr = cosine_lr(step, steps)
        loss = train_step(model, state, batch, lr)
        losses.append(loss)
        if log_fn is not None:
            log_fn(step, lr, loss)
    return losses


def make_toy_pairs(count: int = 8, size: int = 32, seed: int = 0) -> list[Pair]:
    """Synthetic shadow-removal pairs: colored gradient images with one
    rectangular region multiplied by a darkening factor in [0.3, 0.6]."""
    if size < 1:
        raise InputError(f"image size must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, size)[None, :, None]
    xs = np.linspace(0.0, 1.0, size)[None, None, :]
    pairs = []
    for _ in range(count):
        base = rng.uniform(0.35, 0.65, size=(3, 1, 1))
        slope_y = rng.uniform(-0.25, 0.25, size=(3, 1, 1))
        slope_x = rng.uniform(-0.25, 0.25, size=(3, 1, 1))
        clean = base + slope_y * ys + slope_x * xs
        clean += rng.normal(0.0, 0.01, size=(3, size, size))
        clean = np.clip(clean, 0.02, 0.98)
        h = int(rng.integers(size // 3, 2 * size // 3 + 1))
        w = int(rng.integers(size // 3, 2 * size // 3 + 1))
        top = int(rng.integers(0, size - h + 1))
        left = int(rng.integers(0, size - w + 1))
        mask = np.zeros((size, size))
        mask[top : top + h, left : left + w] = 1.0
        factor = float(rng.uniform(0.3, 0.6))
        shadowed = clean * (1.0 - (1.0 - factor) * mask[None, :, :])
        pairs.append((shadowed, mask, clean))
    return pairs


_SHADOW_RE = re.compile(r"^(?P<stem>.+)_shadow\.(ppm|png)$")


def load_dir_pairs(data_dir: str) -> list[Pair]:
    """Load (shadowed, mask, clean) triples named <stem>_shadow.*,
    <stem>_mask.*, <stem>_gt.* from one directory, sorted by stem."""
    stems = []
    for entry in sorted(os.listdir(data_dir)):
        m = _SHADOW_RE.match(entry)
        if m:
            stems.append((m.group("stem"), entry))
    if not stems:
        raise InputError(f"no *_shadow.ppm or *_shadow.png files in {data_dir}")
    pairs = []
    for stem, shadow_name in stems:
        shadowed = read_image(os.path.join(data_dir, shadow_name))
        mask = read_mask(_find(data_dir, stem + "_mask", ("pgm", "png")))
        clean = read_image(_find(data_dir, stem + "_gt", ("ppm", "png")))
        sizes = [shadowed.shape[1:], mask.shape, clean.shape[1:]]
        if len(set(sizes)) > 1:
            shown = ", ".join(f"{kind} {h}x{w}" for kind, (h, w) in zip(("shadow", "mask", "gt"), sizes))
            raise InputError(f"{stem}: files differ in size ({shown})")
        pairs.append((shadowed, mask, clean))
    return pairs


def _find(data_dir: str, base: str, extensions: tuple[str, ...]) -> str:
    for ext in extensions:
        path = os.path.join(data_dir, f"{base}.{ext}")
        if os.path.exists(path):
            return path
    raise InputError(f"missing companion file {base}.{{{','.join(extensions)}}} in {data_dir}")
