"""Spans around the public functions of each shadowscan module.

Every wrapper replaces the name its caller looks up at call time: the
scan-order probes sit on ``blocks.mas_order`` and ``blocks.pixel_order``,
because ``blocks`` imported them by name and never reads the ``scanorder``
attributes. All wrappers are removed again when tracing stops, so untraced
operations run the package's own code. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os

from measure import Tracer

from shadowscan import autodiff, blocks, checkpoint, cli, metrics, ssm

train = importlib.import_module("shadowscan.train")


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(*args, **kwargs)
        return result

    return wrapped


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every probe."""
    group_names: dict[int, str] = {}

    def count(key):
        return lambda *a, **k: tracer.count(key)

    def recurrence_counts(abar, *rest):
        length, channels, state = abar.shape
        tracer.count("ssm.recurrence.calls")
        tracer.count("ssm.recurrence.elements", length * channels * state)

    def mas_key(grid):
        tracer.count("scanorder.mas_order.calls")
        tracer.keys.add((grid.patch, grid.mean_mask.shape, grid.mean_mask.tobytes()))

    def saved_bytes(path, *rest):
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    def name_groups(names):
        def register(module, *args, **kwargs):
            for attr, name in names(module):
                group_names[id(attr)] = name

        return register

    fusion_names = name_groups(
        lambda m: [(m.full, "blocks.fusion.full"), (m.half, "blocks.fusion.half")],
    )
    unet_names = name_groups(
        lambda m: [(g, f"blocks.unet.down.{i}") for i, g in enumerate(m.down)]
        + [(m.bottleneck, "blocks.unet.bottleneck")]
        + [(g, f"blocks.unet.up.{i}") for i, g in enumerate(m.up)],
    )

    group_forward = blocks.DualScanGroup.forward

    @functools.wraps(group_forward)
    def group_span(self, *args, **kwargs):
        idx = tracer.open(group_names.get(id(self), "blocks.group"))
        try:
            return group_forward(self, *args, **kwargs)
        finally:
            tracer.close(idx)

    record = autodiff.GradTape.record

    @functools.wraps(record)
    def tagged_record(self, replay):
        tracer.count("autodiff.tape_ops")
        record(self, tracer.tag(replay))

    return [
        (cli, "main", _span(tracer, "cli", cli.main)),
        (cli, "model_from_checkpoint", _span(tracer, "checkpoint.load", cli.model_from_checkpoint)),
        (cli, "read_image", _span(tracer, "imageio.read", cli.read_image)),
        (cli, "read_mask", _span(tracer, "imageio.read", cli.read_mask)),
        (cli, "write_image", _span(tracer, "imageio.write", cli.write_image)),
        (cli, "evaluate", _span(tracer, "metrics.evaluate", cli.evaluate)),
        (metrics, "ssim_map", _span(tracer, "metrics.ssim_map", metrics.ssim_map)),
        (metrics, "resize_bilinear", _span(tracer, "imageio.resize_bilinear", metrics.resize_bilinear)),
        (checkpoint, "save_checkpoint", _span(tracer, "checkpoint.save", checkpoint.save_checkpoint, after=saved_bytes)),
        (blocks.ShadowNet, "forward", _span(tracer, "blocks.model", blocks.ShadowNet.forward)),
        (blocks.Encoder, "forward", _span(tracer, "blocks.encoder", blocks.Encoder.forward)),
        (blocks.DualScaleFusion, "forward", _span(tracer, "blocks.fusion", blocks.DualScaleFusion.forward, before=fusion_names)),
        (blocks.ScanUnet, "forward", _span(tracer, "blocks.unet", blocks.ScanUnet.forward, before=unet_names)),
        (blocks.DualScanGroup, "forward", group_span),
        (blocks, "mas_order", _span(tracer, "scanorder.mas_order", blocks.mas_order, before=mas_key)),
        (blocks, "pixel_order", _span(tracer, "scanorder.pixel_order", blocks.pixel_order)),
        (autodiff, "permute_gather", _span(tracer, "autodiff.permute_gather", autodiff.permute_gather, before=count("autodiff.permute_gather.calls"))),
        (autodiff.GradTape, "record", tagged_record),
        (ssm.SsmDirection, "scan", _span(tracer, "ssm.direction", ssm.SsmDirection.scan)),
        (ssm, "ssm_recurrence", _span(tracer, "ssm.recurrence", ssm.ssm_recurrence, before=recurrence_counts)),
        (ssm.ConvMlp, "forward", _span(tracer, "ssm.conv_mlp", ssm.ConvMlp.forward)),
        (train, "train_step", _span(tracer, "train.step", train.train_step)),
        (train, "batch_loss", _span(tracer, "train.loss", train.batch_loss)),
        (train, "adam_step", _span(tracer, "train.adam_step", train.adam_step)),
        (train, "backward", _span(tracer, "autodiff.backward", train.backward)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Probes in place for the duration of the block, originals after."""
    targets = _targets(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
