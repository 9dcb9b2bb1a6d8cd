"""The benchmark's own arithmetic: tail rule, self time, backward
tagging and the per-layer partition of an operation's wall time.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import logging

import numpy as np
import pytest

import measure
import probes
import workloads
from shadowscan import checkpoint
from shadowscan.blocks import ShadowNet
from shadowscan.config import ModelConfig
from shadowscan.imageio import write_pgm, write_ppm

train = importlib.import_module("shadowscan.train")


def fake_clock(*ticks):
    return iter(ticks).__next__


@pytest.mark.parametrize(
    "n, value, percentile",
    [(40, 30.0, 75.0), (11, 1.0, 100.0 / 11), (20, 10.0, 50.0), (10, 10.0, 100.0), (1, 1.0, 100.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = [float(v) for v in range(n, 0, -1)]
    got, pct, count = measure.tail(samples)
    assert (got, pct, count) == (value, pytest.approx(percentile), n)
    if n > measure.MIN_BEYOND:
        assert sum(s > got for s in samples) == measure.MIN_BEYOND


def test_self_time_subtracts_child_coverage_once():
    # parent [0, 100]; children [10, 30] and [20, 40] overlap; a grandchild
    # [12, 14] counts against its own parent only
    spans = [
        ["p", 0, 100, -1, None, 0],
        ["a", 10, 30, 0, None, 0],
        ["b", 20, 40, 0, None, 0],
        ["g", 12, 14, 1, None, 0],
        ["c", 50, 60, 0, None, 0],
    ]
    assert measure.self_times(spans) == [100 - 30 - 10, 18, 20, 2, 10]


def test_closure_replay_is_charged_to_the_span_that_recorded_it():
    tracer = measure.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 10, 15, 20, 21, 30))
    root = tracer.begin_op()  # t=0
    layer = tracer.open("layer")  # t=1
    inner = tracer.open("inner")  # t=2
    closure = tracer.tag(lambda: None)
    tracer.close(inner)  # t=3
    tracer.close(layer)  # t=4
    bwd = tracer.open("autodiff.backward")  # t=10
    closure()  # replay runs from t=15 to t=20
    tracer.close(bwd)  # t=21
    tracer.close(root)  # t=30
    replay = tracer.spans[-1]
    assert replay[measure.NAME] == measure.BWD
    assert replay[measure.TAG] == ("op", "layer", "inner")
    assert replay[measure.PARENT] == bwd
    agg = measure.aggregate(tracer.spans)[0]
    assert agg["bwd"]["layer"] == agg["bwd"]["inner"] == 5
    assert agg["bwd_self"] == {"inner": 5}
    assert agg["fwd_self"]["autodiff.backward"] == 11 - 5
    assert agg["fwd_self"]["op"] == 30 - 3 - 11


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A 16 px depth-2 model, its checkpoint and one held-out image."""
    logging.basicConfig(level=logging.WARNING)
    tmp = tmp_path_factory.mktemp("bench")
    config = ModelConfig.from_dict({"channels": 4, "state_dim": 2, "unet_depth": 2, "patch_size": 4})
    model = ShadowNet(config)
    pairs = train.make_toy_pairs(3, 16, seed=5)
    write_ppm(str(tmp / "x.ppm"), pairs[2][0])
    write_pgm(str(tmp / "x.pgm"), pairs[2][1])
    return tmp, model, pairs


def traced_train_and_validate(tmp, model, pairs):
    tracer = measure.Tracer()
    state = train.init_adam(model.params())
    ckpt = str(tmp / "m.ckpt")
    with probes.installed(tracer):
        root = tracer.begin_op()
        loss = train.train_step(model, state, pairs[:2], 1e-3)
        checkpoint.save_checkpoint(ckpt, model)
        rc = workloads.run_cli(
            ["forward", str(tmp / "x.ppm"), str(tmp / "x.pgm"), "--checkpoint", ckpt, "--out", str(tmp / "p.ppm")]
        )
        tracer.close(root)
    assert rc == 0 and np.isfinite(loss)
    return tracer


def test_layer_times_and_unattributed_remainder_add_up_to_wall_time(small_model):
    tracer = traced_train_and_validate(*small_model)
    times = measure.layer_times(measure.aggregate(tracer.spans)[0])
    wall = tracer.spans[0][measure.END] - tracer.spans[0][measure.START]
    assert times["trace.op_ms"] == wall
    assert sum(times[k] for k in measure.PARTITION) == wall
    assert all(times[k] >= 0 for k in measure.PARTITION)
    # the glue between layers is a small part of the operation
    assert times["trace.unattributed_ms"] < 0.1 * wall
    for level in range(2):
        assert times[f"blocks.unet.down.{level}.fwd_ms"] > 0
        assert times[f"blocks.unet.up.{level}.bwd_ms"] > 0
    assert times["blocks.unet.down.2.fwd_ms"] == 0


def test_every_taped_closure_is_charged_inside_the_model_or_the_loss(small_model):
    tracer = traced_train_and_validate(*small_model)
    closures = [s for s in tracer.spans if s[measure.NAME] == measure.BWD]
    assert len(closures) == tracer.counters[0]["autodiff.tape_ops"] > 0
    assert all("train.loss" in s[measure.TAG] for s in closures)
    agg = measure.aggregate(tracer.spans)[0]
    assert agg["bwd"]["ssm.recurrence"] > 0
    assert agg["bwd"]["blocks.model"] + agg["bwd_self"]["train.loss"] == agg["bwd"]["train.loss"]


def test_probes_are_removed_after_tracing(small_model):
    from shadowscan import autodiff, blocks, cli, ssm

    before = (cli.main, blocks.mas_order, ssm.ssm_recurrence, autodiff.GradTape.record, blocks.ShadowNet.forward)
    traced_train_and_validate(*small_model)
    after = (cli.main, blocks.mas_order, ssm.ssm_recurrence, autodiff.GradTape.record, blocks.ShadowNet.forward)
    assert before == after
