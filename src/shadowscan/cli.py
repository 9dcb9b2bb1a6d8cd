"""Command-line tool: scan visualization, self-checks, inference, toy
training, and evaluation.

Conventions: diagnostics and the resolved configuration go to stderr,
results go to files or stdout, and exit codes are 0 (success), 1 (a
self-check failed), 2 (bad input or configuration). Given the same
inputs and seed every command writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .blocks import ShadowNet
from .checkpoint import model_from_checkpoint, save_checkpoint
from .checks import SUITES, run_suite
from .config import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    EmptyRegionError,
    NoShadowRegion,
    ShapeError,
    ValidationError,
)
from .imageio import read_image, read_mask, write_image, write_ppm
from .maskgrid import partition_patches
from .metrics import evaluate, format_report
from .scanorder import dump_path, mas_order
from .train import dataset_loss, load_dir_pairs, make_toy_pairs, train

log = logging.getLogger("shadowscan")

_CONFIG_FLAGS = (
    "channels",
    "state_dim",
    "expansion",
    "unet_depth",
    "patch_size",
    "tau",
    "dropout",
    "residual_output",
    "seed",
)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file holds non-ASCII bytes") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        values[key.strip()] = value.strip()
    return values


def _collect_overrides(args) -> dict[str, str]:
    """Merge config-file values and explicit flags, flags winning."""
    values: dict[str, str] = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in _CONFIG_FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return values


def _resolve_config(args) -> ModelConfig:
    config = ModelConfig.from_dict(_collect_overrides(args))
    for key, value in config.to_dict().items():
        log.info("config %s=%s", key, value)
    return config


def _hue_to_rgb(h: float) -> tuple[float, float, float]:
    """Hue in [0, 1] at full saturation and value."""
    k = h * 6.0
    x = 1.0 - abs(k % 2.0 - 1.0)
    sector = int(k) % 6
    return (
        (1.0, x, 0.0),
        (x, 1.0, 0.0),
        (0.0, 1.0, x),
        (0.0, x, 1.0),
        (x, 0.0, 1.0),
        (1.0, 0.0, x),
    )[sector]


def render_scan_viz(mask: np.ndarray, patch: int, tau: float) -> tuple[str, np.ndarray]:
    """Path dump text plus a (3, H, W) image: hue ramps along the visit
    order, shadow patches carry a white outline."""
    grid = partition_patches(mask, patch, tau)
    path = mas_order(grid)
    h, w = mask.shape
    img = np.zeros((3, h, w))
    s = grid.patch
    count = max(len(path.coords) - 1, 1)
    for k, (pr, pc) in enumerate(path.coords):
        hue = (k / count) * (5.0 / 6.0)
        r0, c0 = pr * s, pc * s
        for ch, value in enumerate(_hue_to_rgb(hue)):
            img[ch, r0 : r0 + s, c0 : c0 + s] = value
        if grid.shadow[pr, pc]:
            img[:, r0, c0 : c0 + s] = 1.0
            img[:, r0 + s - 1, c0 : c0 + s] = 1.0
            img[:, r0 : r0 + s, c0] = 1.0
            img[:, r0 : r0 + s, c0 + s - 1] = 1.0
    return dump_path(path), img


def cmd_scan_viz(args) -> int:
    config = _resolve_config(args)
    mask = read_mask(args.mask)
    prefix = args.out if args.out else "scan"
    text, img = render_scan_viz(mask, config.patch_size, config.tau)
    path_file = f"{prefix}_path.txt"
    viz_file = f"{prefix}_viz.ppm"
    with open(path_file, "w", encoding="ascii") as f:
        f.write(text)
    write_ppm(viz_file, img)
    log.info("wrote %s and %s", path_file, viz_file)
    return 0


def cmd_check(args) -> int:
    config = _resolve_config(args)
    results = run_suite(args.suite, seed=config.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} max_err={res.max_err:.3e} ({res.detail})")
        if not res.passed:
            failed += 1
    return 1 if failed else 0


def cmd_forward(args) -> int:
    model = model_from_checkpoint(args.checkpoint)
    stored = model.config.to_dict()
    for key, value in _collect_overrides(args).items():
        resolved = ModelConfig.from_dict({key: value}).to_dict()[key]
        if resolved != stored[key]:
            raise ConfigError(
                f"config override {key}={resolved} conflicts with checkpoint value {stored[key]}"
            )
    for key, value in stored.items():
        log.info("config %s=%s", key, value)
    image = read_image(args.image)
    mask = read_mask(args.mask)
    pred = model.forward(image, mask)
    out = args.out if args.out else "pred.ppm"
    write_image(out, pred.data)
    log.info("wrote %s", out)
    return 0


def cmd_train_toy(args) -> int:
    config = _resolve_config(args)
    if args.data:
        pairs = load_dir_pairs(args.data)
    elif args.synth:
        pairs = make_toy_pairs(count=args.synth, size=args.size, seed=config.seed)
    else:
        raise ValidationError("need --data DIR or --synth N to train on")
    model = ShadowNet(config)
    initial = dataset_loss(model, pairs)
    rows = []
    train(
        model,
        pairs,
        steps=args.steps,
        batch_size=args.batch,
        log_fn=lambda step, lr, loss: rows.append((step, loss, lr)),
    )
    final = dataset_loss(model, pairs)
    out = args.out if args.out else "toy.ckpt"
    save_checkpoint(out, model)
    log_path = args.log if args.log else out + ".log"
    with open(log_path, "w", encoding="ascii") as f:
        f.write("step,loss,lr\n")
        for step, loss, lr in rows:
            f.write(f"{step},{loss!r},{lr!r}\n")
    print(f"initial_loss={initial!r}")
    print(f"final_loss={final!r}")
    log.info("wrote %s and %s", out, log_path)
    return 0


def cmd_eval(args) -> int:
    _resolve_config(args)
    pred = read_image(args.pred)
    gt = read_image(args.gt)
    mask = read_mask(args.mask)
    report = evaluate(pred, gt, mask, resize_to=256 if args.resize256 else None)
    text = format_report(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="RNG seed / config seed")
    parser.add_argument("--out", metavar="PATH", help="output path (or prefix)")
    group = parser.add_argument_group("model overrides")
    group.add_argument("--channels", type=int)
    group.add_argument("--state-dim", dest="state_dim", type=int)
    group.add_argument("--expansion", type=int)
    group.add_argument("--unet-depth", dest="unet_depth", type=int)
    group.add_argument("--patch-size", dest="patch_size", type=int)
    group.add_argument("--tau", type=float)
    group.add_argument("--dropout", type=float)
    group.add_argument("--residual-output", dest="residual_output", choices=("true", "false"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowscan",
        description="Mask-aware scanning shadow removal: visualization, checks, inference, toy training, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-viz", help="dump and render the mask-aware scan order")
    p.add_argument("mask", help="shadow mask (PGM or PNG)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_scan_viz)

    p = sub.add_parser("check", help="run self-check suites")
    p.add_argument("suite", nargs="?", default="all", choices=SUITES + ("all",))
    _add_config_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("forward", help="run the model on one image")
    p.add_argument("image", help="shadowed image (PPM or PNG)")
    p.add_argument("mask", help="shadow mask (PGM or PNG)")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    _add_config_flags(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("train-toy", help="train on a small dataset or synthetic pairs")
    p.add_argument("--data", metavar="DIR", help="directory of *_shadow/*_mask/*_gt files")
    p.add_argument("--synth", type=int, metavar="N", help="generate N synthetic pairs instead")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--size", type=int, default=32, help="synthetic image side")
    p.add_argument("--log", metavar="PATH", help="loss log path (default: <out>.log)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("mask")
    p.add_argument("--resize256", action="store_true", help="rescale everything to 256x256 first")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)
    return parser


_INPUT_ERRORS = (
    ConfigError,
    ShapeError,
    ValidationError,
    ContractError,
    EmptyRegionError,
    NoShadowRegion,
    OSError,
)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
