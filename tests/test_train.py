"""Optimizer arithmetic, loss wiring, the loop, and the toy data sources."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import special

from helpers import weighted_sum
from shadowscan import autodiff as ad
from shadowscan import train as train_module
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.blocks import ShadowNet
from shadowscan.config import ModelConfig
from shadowscan.errors import InputError
from shadowscan.imageio import write_image, write_pgm, write_ppm
from shadowscan.train import (
    adam_step,
    batch_loss,
    cosine_lr,
    dataset_loss,
    init_adam,
    load_dir_pairs,
    make_toy_pairs,
    train,
    train_step,
)

_TINY = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, seed=1)


def test_cosine_endpoints_and_clamps():
    assert cosine_lr(0, 200) == 2e-4
    assert abs(cosine_lr(199, 200) - 1e-6) < 1e-18
    assert cosine_lr(0, 1) == 2e-4
    assert cosine_lr(5, 0) == 2e-4
    assert cosine_lr(-3, 200) == 2e-4
    assert cosine_lr(999, 200) == cosine_lr(199, 200)
    values = [cosine_lr(s, 50) for s in range(50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    mid = cosine_lr(100, 201)
    assert abs(mid - 0.5 * (2e-4 + 1e-6)) < 1e-12


def test_adam_matches_reference_arithmetic():
    rng = np.random.default_rng(0)
    params = [Tensor(rng.normal(size=(3, 2))) for _ in range(2)]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    state = init_adam(params)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        grads = [rng.normal(size=r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.zero_grad()
            p.accumulate(g)
        adam_step(params, state, lr)
        for i, g in enumerate(grads):
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            ref[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for p, r in zip(params, ref):
        assert np.array_equal(p.data, r)


def test_adam_missing_grad_counts_as_zero():
    p = Tensor(np.array([1.0, 2.0]))
    state = init_adam([p])
    adam_step([p], state, 1e-2)
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_batch_loss_is_mean_absolute_error():
    model = ShadowNet(_TINY)
    model.silence()
    pairs = make_toy_pairs(2, 8, seed=2)
    got = float(batch_loss(model, pairs).data)
    want = 0.5 * sum(np.abs(shadowed - clean).mean() for shadowed, _, clean in pairs)
    assert abs(got - want) < 1e-15
    assert dataset_loss(model, pairs) == got


def test_train_zero_steps_changes_nothing():
    model = ShadowNet(_TINY)
    before = {n: t.data.copy() for n, t in model.named_params()}
    losses = train(model, make_toy_pairs(2, 8, seed=3), steps=0)
    assert losses == []
    for name, tensor in model.named_params():
        assert np.array_equal(tensor.data, before[name])


def test_train_requires_pairs():
    with pytest.raises(InputError):
        train(ShadowNet(_TINY), [], steps=1)


def test_loss_and_training_reject_an_empty_batch():
    with pytest.raises(InputError):
        dataset_loss(ShadowNet(_TINY), [])
    with pytest.raises(InputError, match="batch size"):
        train(ShadowNet(_TINY), make_toy_pairs(1, 8, seed=3), steps=1, batch_size=0)


def test_short_training_run_reduces_loss():
    model = ShadowNet(_TINY)
    pairs = make_toy_pairs(4, 16, seed=4)
    initial = dataset_loss(model, pairs)
    seen = []
    losses = train(model, pairs, steps=10, log_fn=lambda s, lr, l: seen.append((s, lr, l)))
    assert len(losses) == 10
    assert losses[-1] < losses[0]
    assert dataset_loss(model, pairs) < initial
    assert [s for s, _, _ in seen] == list(range(10))
    assert all(lr == cosine_lr(s, 10) for s, lr, _ in seen)
    assert [l for _, _, l in seen] == losses


def _one_tape_step(model, batch):
    """Loss and gradients of the batch from a single tape over all images."""
    model.zero_grads()
    with GradTape() as tape:
        loss = batch_loss(model, batch)
    backward(loss, tape)
    return float(loss.data), [p.grad for p in model.params()]


_SMALL = dict(channels=4, state_dim=2, unet_depth=1, patch_size=4)


@pytest.mark.parametrize(
    "sizes, overrides",
    [
        ((16,), {}),
        ((16, 16), {}),
        ((16, 16, 16), {}),
        ((16, 16, 16, 16), {}),
        ((16, 32, 16), {}),
        ((16, 16, 16), {"dropout": 0.1}),
        ((16, 16, 16), {"unet_depth": 0}),
        ((16, 16, 16), {"unet_depth": 2}),
    ],
)
def test_streamed_step_is_bitwise_the_one_tape_step(sizes, overrides):
    config = ModelConfig(**{**_SMALL, **overrides}, seed=11)
    batch = [make_toy_pairs(1, size, seed=20 + i)[0] for i, size in enumerate(sizes)]
    want_loss, want_grads = _one_tape_step(ShadowNet(config), batch)
    model = ShadowNet(config)
    got_loss = train_step(model, init_adam(model.params()), batch, 1e-3)
    assert got_loss == want_loss
    for (name, p), want in zip(model.named_params(), want_grads):
        assert (p.grad is None) == (want is None), name
        assert want is None or np.array_equal(p.grad, want), name


# The ops batch_loss recorded per image before it became one node, and
# the chain it built from them, kept verbatim as the bitwise reference.


def _frozen_mul(a, b):
    out = Tensor(a.data * b.data)

    def bw(g):
        a.accumulate(g * b.data)
        b.accumulate(g * a.data)

    ad._record(out, bw)
    return out


def _frozen_mean_all(a):
    n = a.data.size
    out = Tensor(a.data.mean())

    def bw(g):
        a.accumulate(np.full_like(a.data, float(g) / n))

    ad._record(out, bw)
    return out


def _frozen_absolute(a):
    out = Tensor(np.abs(a.data))

    def bw(g):
        a.accumulate(g * np.sign(a.data))

    ad._record(out, bw)
    return out


def _frozen_batch_loss(model, batch):
    total = None
    for shadowed, mask, clean in batch:
        pred = model.forward(shadowed, mask)
        err = _frozen_mean_all(_frozen_absolute(ad.add(pred, Tensor(-clean))))
        total = err if total is None else ad.add(total, err)
    return _frozen_mul(total, Tensor(1.0 / len(batch)))


def _loss_and_grads(loss_fn, config, batch, seed):
    model = ShadowNet(config)
    with GradTape() as tape:
        loss = loss_fn(model, batch)
    backward(loss, tape, seed)
    return [loss.data] + [p.grad for p in model.params()]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("dropout, seed", [(0.0, 1.0), (0.1, 0.25), (0.1, 0.5)])
def test_loss_node_is_bitwise_the_op_chain(size, dropout, seed):
    config = ModelConfig(**_SMALL, dropout=dropout, seed=5)
    batch = make_toy_pairs(size, 16, seed=30 + size)
    got = _loss_and_grads(batch_loss, config, batch, seed)
    want = _loss_and_grads(_frozen_batch_loss, config, batch, seed)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or np.array_equal(g.view(np.int64), w.view(np.int64))
    model = ShadowNet(config)
    assert dataset_loss(model, batch) == float(_frozen_batch_loss(model, batch).data)


@pytest.mark.parametrize(
    "overrides, closures",
    # 179 and 371 while each scan direction recorded its own projections and
    # scan, and the token reversal, its undoing and the sum of the two
    # directions were three more ops per stage
    [({}, 124), ({"channels": 32, "state_dim": 16, "unet_depth": 4}, 256)],
    ids=["default", "full-size"],
)
def test_one_image_records_its_forward_and_one_loss_node(overrides, closures):
    model = ShadowNet(ModelConfig(**overrides))
    with GradTape() as tape:
        batch_loss(model, make_toy_pairs(1, 32, seed=0))
    assert len(tape._ops) == closures


def _step_peak_bytes(model, state, batch):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    train_step(model, state, batch, 1e-3)
    return tracemalloc.get_traced_memory()[1] - base


def test_step_memory_does_not_grow_with_batch():
    model = ShadowNet(ModelConfig(**_SMALL, seed=2))
    state = init_adam(model.params())
    pairs = make_toy_pairs(4, 16, seed=3)
    train_step(model, state, pairs[:1], 1e-3)  # warm-up
    tracemalloc.start()
    try:
        one = _step_peak_bytes(model, state, pairs[:1])
        four = _step_peak_bytes(model, state, pairs)
    finally:
        tracemalloc.stop()
    assert four <= 1.2 * one, (one, four)


def test_backward_releases_the_tape_as_it_replays():
    x = Tensor(np.linspace(-1.0, 1.0, 6))
    with GradTape() as tape:
        hidden = ad.gelu(ad.add(x, x))
        loss = weighted_sum(ad.gelu(hidden), np.ones(6))
    ref = weakref.ref(hidden.data)
    del hidden
    assert ref() is not None  # the tape still holds it
    backward(loss, tape)
    assert ref() is None
    assert len(tape._ops) == 0

    def gelu_and_slope(u):
        phi = 0.5 * (1.0 + special.erf(u / np.sqrt(2.0)))
        return u * phi, phi + u * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)

    hidden, inner = gelu_and_slope(2.0 * x.data)
    assert np.allclose(x.grad, 2.0 * inner * gelu_and_slope(hidden)[1])


def test_nan_parameter_stops_training_before_the_update():
    model = ShadowNet(_TINY)
    model.dec_w.data[0, 0, 0, 0] = np.nan
    before = {n: t.data.copy() for n, t in model.named_params()}
    with pytest.raises(InputError, match="step 0: loss is nan"):
        train(model, make_toy_pairs(2, 8, seed=3), steps=2)
    for name, tensor in model.named_params():
        assert np.array_equal(tensor.data, before[name], equal_nan=True), name


def test_non_finite_gradient_is_named_and_stops_training(monkeypatch):
    model = ShadowNet(_TINY)

    def poisoned(output, tape, seed):
        backward(output, tape, seed)
        model.dec_b.grad[1] = np.inf

    state = init_adam(model.params())
    train_step(model, state, make_toy_pairs(1, 8, seed=4), 1e-3)
    before = {n: t.data.copy() for n, t in model.named_params()}
    monkeypatch.setattr(train_module, "backward", poisoned)
    with pytest.raises(InputError, match="step 1: gradient of dec_b is not finite"):
        train_step(model, state, make_toy_pairs(2, 8, seed=5), 1e-3)
    assert state.step == 1
    for name, tensor in model.named_params():
        assert np.array_equal(tensor.data, before[name]), name


def test_toy_pairs_are_exact_rectangle_shadows():
    pairs = make_toy_pairs(6, 24, seed=5)
    assert len(pairs) == 6
    for shadowed, mask, clean in pairs:
        assert shadowed.shape == (3, 24, 24) and mask.shape == (24, 24)
        assert clean.min() >= 0.02 and clean.max() <= 0.98
        assert set(np.unique(mask)) <= {0.0, 1.0}
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        height, width = rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1
        assert mask.sum() == height * width  # solid rectangle
        assert 24 // 3 <= height <= 2 * 24 // 3 and 24 // 3 <= width <= 2 * 24 // 3
        out = mask == 0.0
        assert np.array_equal(shadowed[:, out], clean[:, out])
        ratio = shadowed[:, mask == 1.0] / clean[:, mask == 1.0]
        factor = ratio.ravel()[0]
        assert 0.3 <= factor <= 0.6
        assert np.allclose(ratio, factor)


def test_toy_pairs_are_deterministic():
    a = make_toy_pairs(3, 16, seed=6)
    b = make_toy_pairs(3, 16, seed=6)
    c = make_toy_pairs(3, 16, seed=7)
    for (s1, m1, c1), (s2, m2, c2) in zip(a, b):
        assert np.array_equal(s1, s2) and np.array_equal(m1, m2) and np.array_equal(c1, c2)
    assert not np.array_equal(a[0][0], c[0][0])


def _write_pair(directory, stem, shadowed, mask, clean, shadow_ext="ppm"):
    write_image(str(directory / f"{stem}_shadow.{shadow_ext}"), shadowed)
    write_pgm(str(directory / f"{stem}_mask.pgm"), mask)
    write_ppm(str(directory / f"{stem}_gt.ppm"), clean)


def _quantized(img):
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def test_load_dir_pairs_round_trip(tmp_path):
    pairs = make_toy_pairs(2, 8, seed=8)
    _write_pair(tmp_path, "bbb", *pairs[0])
    _write_pair(tmp_path, "aaa", *pairs[1])
    loaded = load_dir_pairs(str(tmp_path))
    assert len(loaded) == 2
    # sorted by stem, so the second toy pair comes back first
    for got, want in zip(loaded, (pairs[1], pairs[0])):
        for g, w in zip(got, want):
            assert np.array_equal(g, _quantized(w))


def test_load_dir_pairs_rejects_gaps(tmp_path):
    with pytest.raises(InputError):
        load_dir_pairs(str(tmp_path))
    shadowed, mask, clean = make_toy_pairs(1, 8, seed=9)[0]
    write_ppm(str(tmp_path / "x_shadow.ppm"), shadowed)
    write_ppm(str(tmp_path / "x_gt.ppm"), clean)
    with pytest.raises(InputError):
        load_dir_pairs(str(tmp_path))  # mask missing


def test_load_dir_pairs_mixed_extensions(tmp_path):
    pytest.importorskip("PIL")
    shadowed, mask, clean = make_toy_pairs(1, 8, seed=10)[0]
    _write_pair(tmp_path, "p", shadowed, mask, clean, shadow_ext="png")
    loaded = load_dir_pairs(str(tmp_path))
    assert np.array_equal(loaded[0][0], _quantized(shadowed))
