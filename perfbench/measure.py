"""Sample statistics, in-memory spans and the per-layer arithmetic.

Nothing here imports shadowscan: the tracer only records spans and counts,
and ``probes.py`` decides where they are opened.

Times are integer nanoseconds from ``time.perf_counter_ns`` until they are
reported, so the self-time partition of an operation adds up exactly.
"""

from __future__ import annotations

import time
from collections import Counter

MIN_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``MIN_BEYOND`` samples above it.

    Returns (value, percentile, sample count). With n sorted samples the
    value is the (n - 10)-th smallest, which is the 100 * (n - 10) / n
    nearest-rank percentile. With too few samples for the rule the maximum
    stands in, reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= MIN_BEYOND:
        return ordered[-1], 100.0, n
    k = n - MIN_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


# span record fields
NAME, START, END, PARENT, TAG, OP = range(6)

# name of the span that closes over one taped backward closure
BWD = "bwd"


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, tag, op].

    ``tag`` is None for forward spans. For a backward closure it is the
    tuple of span names that were open when the closure was recorded, so
    its replay time can be charged to the layer that recorded it.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: list[Counter] = []
        self.keys: set = set()
        self.path: tuple[str, ...] = ()
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self) -> int:
        self._op += 1
        self.counters.append(Counter())
        return self.open("op")

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, None, self._op])
        self._stack.append(idx)
        self.path = self.path + (name,)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.path = self.path[:-1]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[-1][key] += amount

    def tag(self, replay):
        """Wrap a tape closure so its replay becomes a span tagged with the
        span path open now, at record time."""
        path = self.path
        spans, stack, clock, op = self.spans, self._stack, self.clock, self._op

        def tagged():
            start = clock()
            replay()
            spans.append([BWD, start, clock(), stack[-1] if stack else -1, path, op])

        return tagged


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover.

    Children of one parent may sit anywhere inside it; overlapping children
    are merged so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def aggregate(spans: list[list]) -> dict[int, dict[str, Counter]]:
    """Sums over the spans of each operation, in nanoseconds, keyed by op.

    ``fwd`` and ``fwd_self`` hold each forward span name's inclusive and
    self time. ``bwd`` charges every backward closure to every span on its
    tag path and ``bwd_self`` to the innermost one only.
    """
    ops: dict[int, dict[str, Counter]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = ops.setdefault(s[OP], {k: Counter() for k in ("fwd", "fwd_self", "bwd", "bwd_self")})
        if s[NAME] == BWD:
            dur = s[END] - s[START]
            for name in set(s[TAG]):
                agg["bwd"][name] += dur
            if s[TAG]:
                agg["bwd_self"][s[TAG][-1]] += dur
        else:
            agg["fwd"][s[NAME]] += s[END] - s[START]
            agg["fwd_self"][s[NAME]] += own
    return ops


UNET_LEVELS = 4

BLOCKS = (
    ["encoder", "fusion.full", "fusion.half", "fusion.self"]
    + [f"unet.down.{i}" for i in range(UNET_LEVELS)]
    + ["unet.bottleneck"]
    + [f"unet.up.{i}" for i in range(UNET_LEVELS)]
    + ["unet.self", "decoder"]
)

# each of these is its own span; the "self" blocks are what their parent
# span holds outside its child blocks
_BLOCK_PARENTS = {
    "fusion.self": ("blocks.fusion", ["blocks.fusion.full", "blocks.fusion.half"]),
    "unet.self": (
        "blocks.unet",
        [f"blocks.unet.down.{i}" for i in range(UNET_LEVELS)]
        + ["blocks.unet.bottleneck"]
        + [f"blocks.unet.up.{i}" for i in range(UNET_LEVELS)],
    ),
    "decoder": ("blocks.model", ["blocks.encoder", "blocks.fusion", "blocks.unet"]),
}

# with trace.unattributed_ms these add up to trace.op_ms
PARTITION = (
    [
        "cli.overhead_ms",
        "checkpoint.load_ms",
        "checkpoint.save_ms",
        "imageio.read_ms",
        "imageio.write_ms",
        "metrics.evaluate_ms",
        "train.adam_step_ms",
        "train.loss.fwd_ms",
        "train.loss.bwd_ms",
    ]
    + [f"blocks.{b}.{d}_ms" for b in BLOCKS for d in ("fwd", "bwd")]
    + ["trace.unattributed_ms"]
)

# glue spans: their self time is the request loop, train_step and the tape
# replay loop between layers, not a layer
_GLUE = ("op", "train.step", "autodiff.backward")


def layer_times(agg: dict[str, Counter]) -> dict[str, int]:
    """Per-layer times of one operation in nanoseconds, named as reported."""
    fwd, fwd_self, bwd, bwd_self = agg["fwd"], agg["fwd_self"], agg["bwd"], agg["bwd_self"]
    out = {
        "ssm.recurrence.fwd_ms": fwd["ssm.recurrence"],
        "ssm.recurrence.bwd_ms": bwd["ssm.recurrence"],
        "ssm.direction.fwd_self_ms": fwd_self["ssm.direction"],
        "ssm.direction.bwd_self_ms": bwd_self["ssm.direction"],
        "ssm.conv_mlp.fwd_ms": fwd["ssm.conv_mlp"],
        "ssm.conv_mlp.bwd_ms": bwd["ssm.conv_mlp"],
        "autodiff.backward_ms": fwd["autodiff.backward"],
        "autodiff.permute_gather.ms": fwd["autodiff.permute_gather"],
        "scanorder.mas_order.ms": fwd["scanorder.mas_order"],
        "scanorder.pixel_order.ms": fwd["scanorder.pixel_order"],
        "train.adam_step_ms": fwd["train.adam_step"],
        "train.loss.fwd_ms": fwd_self["train.loss"],
        "train.loss.bwd_ms": bwd_self["train.loss"],
        "checkpoint.load_ms": fwd["checkpoint.load"],
        "checkpoint.save_ms": fwd["checkpoint.save"],
        "imageio.read_ms": fwd["imageio.read"],
        "imageio.write_ms": fwd["imageio.write"],
        "imageio.resize_bilinear_ms": fwd["imageio.resize_bilinear"],
        "metrics.evaluate_ms": fwd["metrics.evaluate"],
        "metrics.ssim_map_ms": fwd["metrics.ssim_map"],
        "cli.overhead_ms": fwd_self["cli"],
        "trace.unattributed_ms": sum(fwd_self[g] for g in _GLUE),
        "trace.op_ms": fwd["op"],
    }
    for block in BLOCKS:
        for kind, table in (("fwd", fwd), ("bwd", bwd)):
            if block in _BLOCK_PARENTS:
                parent, kids = _BLOCK_PARENTS[block]
                value = table[parent] - sum(table[k] for k in kids)
            else:
                value = table[f"blocks.{block}"]
            out[f"blocks.{block}.{kind}_ms"] = value
    return out
