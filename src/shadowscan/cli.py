"""Command-line tool: scan visualization, self-checks, inference, toy
training, and evaluation.

Conventions: diagnostics and the resolved configuration go to stderr,
results go to files or stdout, and exit codes are 0 (success), 1 (a
self-check failed), 2 (bad input or configuration). Given the same
inputs and seed every command writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import colorsys
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from .blocks import ShadowNet
from .checkpoint import model_from_checkpoint, save_checkpoint
from .checks import SUITES, run_suite
from .config import ModelConfig
from .errors import InputError
from .imageio import image_writer, read_image, read_mask, write_image, write_pgm, write_ppm
from .metrics import evaluate, format_report
from .scanorder import dump_path, mas_order, partition_patches
from .train import check_run, dataset_loss, load_dir_pairs, make_toy_pairs, train

log = logging.getLogger("shadowscan")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise InputError(f"{path}: config file holds non-ASCII bytes") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise InputError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key = key.strip()
        if key in values:
            raise InputError(f"{path}:{lineno}: {key!r} is set twice")
        values[key] = value.strip()
    return values


def _collect_overrides(args) -> dict[str, str]:
    """Merge config-file values and explicit flags, flags winning."""
    values = _read_config_file(args.config) if args.config else {}
    for f in fields(ModelConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return values


def _resolve_config(args) -> ModelConfig:
    config = ModelConfig.from_dict(_collect_overrides(args))
    for key, value in config.to_dict().items():
        log.info("config %s=%s", key, value)
    return config


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
        for ch, value in enumerate(colorsys.hsv_to_rgb(hue, 1.0, 1.0)):
            img[ch, r0 : r0 + s, c0 : c0 + s] = value
        if grid.shadow[pr, pc]:
            img[:, r0, c0 : c0 + s] = 1.0
            img[:, r0 + s - 1, c0 : c0 + s] = 1.0
            img[:, r0 : r0 + s, c0] = 1.0
            img[:, r0 : r0 + s, c0 + s - 1] = 1.0
    return dump_path(path), img


def cmd_scan_viz(args) -> int:
    path_file = f"{args.out}_path.txt"
    viz_file = f"{args.out}_viz.ppm"
    _check_out_dirs(path_file, viz_file)
    config = _resolve_config(args)
    mask = read_mask(args.mask)
    text, img = render_scan_viz(mask, config.patch_size, config.tau)
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


def _check_out_dirs(*paths: str) -> None:
    """Each output's directory must exist and the output itself must not be
    a directory, so a command that would fail to write its result fails
    before any work, with nothing written."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise InputError(f"{path}: directory {parent} does not exist")
        if os.path.isdir(path):
            raise InputError(f"{path}: is a directory, not a file")


def cmd_forward(args) -> int:
    if image_writer(args.out) is write_pgm:
        raise InputError(f"{args.out}: a PGM holds one channel but the prediction has three; use .ppm or .png")
    _check_out_dirs(args.out)
    model = model_from_checkpoint(args.checkpoint)
    stored = model.config.to_dict()
    for key, value in _collect_overrides(args).items():
        resolved = ModelConfig.from_dict({key: value}).to_dict()[key]
        if resolved != stored[key]:
            raise InputError(
                f"config override {key}={resolved} conflicts with checkpoint value {stored[key]}"
            )
    for key, value in stored.items():
        log.info("config %s=%s", key, value)
    image = read_image(args.image)
    mask = read_mask(args.mask)
    # finite weights can still overflow float64; numpy would only warn
    try:
        with np.errstate(over="raise", invalid="raise"):
            pred = model.forward(image, mask)
    except FloatingPointError as exc:
        raise InputError(f"{args.checkpoint}: the forward pass leaves float64 range ({exc})") from None
    write_image(args.out, pred.data)
    log.info("wrote %s", args.out)
    return 0


def cmd_train_toy(args) -> int:
    log_path = args.log if args.log else args.out + ".log"
    if os.path.realpath(log_path) == os.path.realpath(args.out):
        raise InputError(f"--log {log_path} names the same file as --out {args.out}")
    for flag, value in (("--synth", args.synth), ("--size", args.size)):
        if args.data is not None and value is not None:
            raise InputError(f"--data trains on the directory's pairs and excludes {flag}")
    _check_out_dirs(args.out, log_path)
    config = _resolve_config(args)
    if args.data:
        pairs = load_dir_pairs(args.data)
    elif args.synth:
        pairs = make_toy_pairs(count=args.synth, size=32 if args.size is None else args.size, seed=config.seed)
    else:
        raise InputError("need --data DIR or --synth N to train on")
    check_run(pairs, args.steps, args.batch)
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
    save_checkpoint(args.out, model)
    with open(log_path, "w", encoding="ascii") as f:
        f.write("step,loss,lr\n")
        for step, loss, lr in rows:
            f.write(f"{step},{loss!r},{lr!r}\n")
    print(f"initial_loss={initial!r}")
    print(f"final_loss={final!r}")
    log.info("wrote %s and %s", args.out, log_path)
    return 0


def cmd_eval(args) -> int:
    if args.out:
        _check_out_dirs(args.out)
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


def _add_config_flags(parser: argparse.ArgumentParser, names: tuple[str, ...] | None = None) -> None:
    """``--config`` plus one string-valued flag per named ``ModelConfig``
    field (every field when names is None), for ``ModelConfig.from_dict``."""
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    group = parser.add_argument_group("model overrides")
    for f in fields(ModelConfig):
        if names is None or f.name in names:
            group.add_argument(
                "--" + f.name.replace("_", "-"), dest=f.name, metavar=f.type.upper(), help=f"default {f.default}"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowscan",
        description="Mask-aware scanning shadow removal: visualization, checks, inference, toy training, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-viz", help="dump and render the mask-aware scan order")
    p.add_argument("mask", help="shadow mask (PGM or PNG)")
    p.add_argument("--out", default="scan", metavar="PREFIX", help="writes PREFIX_path.txt and PREFIX_viz.ppm")
    _add_config_flags(p, ("patch_size", "tau"))
    p.set_defaults(func=cmd_scan_viz)

    p = sub.add_parser("check", help="run self-check suites")
    p.add_argument("suite", nargs="?", default="all", choices=[*SUITES, "all"])
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("forward", help="run the model on one image")
    p.add_argument("image", help="shadowed image (PPM or PNG)")
    p.add_argument("mask", help="shadow mask (PGM or PNG)")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--out", default="pred.ppm", metavar="PATH")
    _add_config_flags(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("train-toy", help="train on a small dataset or synthetic pairs")
    p.add_argument("--data", metavar="DIR", help="directory of *_shadow/*_mask/*_gt files")
    p.add_argument("--synth", type=int, metavar="N", help="generate N synthetic pairs instead")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--size", type=int, help="synthetic image side")
    p.add_argument("--log", metavar="PATH", help="loss log path (default: <out>.log)")
    p.add_argument("--out", default="toy.ckpt", metavar="PATH", help="checkpoint path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("mask")
    p.add_argument("--resize256", action="store_true", help="rescale everything to 256x256 first")
    p.add_argument("--out", metavar="PATH", help="report path (default: stdout)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
