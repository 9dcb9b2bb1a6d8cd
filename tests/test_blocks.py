"""Network assembly: interleave weave, scan groups, UNet plumbing, and the
full model's contracts."""

import ctypes
import dataclasses
import glob
import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from helpers import weighted_sum
from shadowscan import autodiff as ad
from shadowscan import blocks
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.blocks import (
    DualScaleFusion,
    DualScanGroup,
    Encoder,
    ScanUnet,
    ShadowNet,
    dfmb_interleave,
    fold_back,
    level_patch_size,
    max_pool_mask2x,
    scan_orders,
)
from shadowscan.config import MAX_UNET_DEPTH, ModelConfig
from shadowscan.errors import InputError
from shadowscan.scanorder import mas_order, partition_patches, pixel_order
from shadowscan.train import batch_loss, make_toy_pairs


def _shadow_mask(h, w, box):
    mask = np.zeros((h, w))
    top, bottom, left, right = box
    mask[top:bottom, left:right] = 1.0
    return mask


def test_max_pool_mask2x():
    mask = np.zeros((4, 4))
    mask[0, 1] = 1.0
    mask[3, 3] = 0.25
    out = max_pool_mask2x(mask)
    assert np.array_equal(out, np.array([[1.0, 0.0], [0.0, 0.25]]))
    with pytest.raises(InputError):
        max_pool_mask2x(np.zeros((3, 4)))


def test_level_patch_size_shrinks_to_fit():
    assert level_patch_size(32, 32, 8) == 8
    assert level_patch_size(12, 12, 8) == 4
    assert level_patch_size(6, 6, 4) == 2
    assert level_patch_size(5, 5, 4) == 1


def test_level_patch_size_floor_halves():
    # the digests pin this rule: 2 and 4 tile but are skipped, 12 is kept
    assert level_patch_size(32, 32, 6) == 1
    assert level_patch_size(16, 16, 12) == 1
    assert level_patch_size(24, 24, 12) == 12
    assert level_patch_size(4, 4, 8) == 4


def test_scan_orders_pool_the_mask_and_fit_the_patch():
    mask = _shadow_mask(12, 12, (4, 8, 0, 4))
    orders = scan_orders(mask, 2, 8, 0.5)
    assert len(orders) == 2
    # 12x12 tiles by patch 4, its 6x6 max pool by patch 2
    levels = ((mask, 4), (max_pool_mask2x(mask), 2))
    for (perm, inverse), (level_mask, patch) in zip(orders, levels):
        assert np.array_equal(perm, pixel_order(mas_order(partition_patches(level_mask, patch, 0.5))))
        assert np.array_equal(perm[inverse], np.arange(perm.size))


@pytest.mark.parametrize("depth, levels", [(0, 2), (1, 2), (4, 5)])
def test_forward_builds_each_level_order_once(monkeypatch, depth, levels):
    calls = []

    def counted(grid):
        calls.append(grid)
        return mas_order(grid)

    monkeypatch.setattr(blocks, "mas_order", counted)
    model = ShadowNet(ModelConfig(channels=2, state_dim=2, unet_depth=depth, patch_size=2))
    model.forward(np.zeros((3, 16, 16)), _shadow_mask(16, 16, (4, 12, 2, 10)))
    assert len(calls) == levels


def test_encoder_output_layout():
    rng = np.random.default_rng(0)
    enc = Encoder(ModelConfig(channels=5), rng)
    image = rng.uniform(size=(3, 6, 4))
    mask = (rng.uniform(size=(6, 4)) < 0.5).astype(float)
    seq = enc.forward(image, mask)
    assert seq.shape == (24, 5)
    stacked = np.concatenate([image, mask[None]], axis=0)
    tokens = Tensor(np.array([stacked[:, r, c] for r in range(6) for c in range(4)]))
    ref = ad.leaky_relu(ad.conv2d(tokens, 6, 4, enc.w, enc.b), 0.2).data
    assert np.array_equal(seq.data, ref)


def test_interleave_single_unit_order():
    # one 2x2 block: four fine tokens column-of-the-block first
    # (top-left, bottom-left, top-right, bottom-right), then the coarse one
    fine = Tensor(np.arange(4.0)[:, None])
    coarse = Tensor(np.array([[10.0]]))
    woven = dfmb_interleave(fine, coarse, 2, 2)
    assert woven.shape[0] == 5
    assert np.array_equal(woven.data[:, 0], np.array([0.0, 2.0, 1.0, 3.0, 10.0]))


def test_interleave_length_and_unit_structure():
    h, w = 4, 6
    fine = Tensor(np.arange(h * w, dtype=float)[:, None])
    coarse = Tensor(100.0 + np.arange(h * w // 4, dtype=float)[:, None])
    woven = dfmb_interleave(fine, coarse, h, w)
    assert woven.shape[0] == 5 * h * w // 4
    tok = woven.data[:, 0]
    for i in range(h // 2):
        for j in range(w // 2):
            unit = i * (w // 2) + j
            expect = [
                2 * i * w + 2 * j,
                (2 * i + 1) * w + 2 * j,
                2 * i * w + 2 * j + 1,
                (2 * i + 1) * w + 2 * j + 1,
                100 + unit,
            ]
            assert np.array_equal(tok[5 * unit : 5 * unit + 5], np.array(expect, dtype=float))


def test_interleave_round_trip_bitwise():
    rng = np.random.default_rng(1)
    for h, w in ((2, 2), (6, 4), (8, 8)):
        fine = Tensor(rng.normal(size=(h * w, 3)))
        coarse = Tensor(rng.normal(size=(h * w // 4, 3)))
        woven = dfmb_interleave(fine, coarse, h, w)
        assert np.array_equal(fold_back(woven, h, w).data, fine.data)


def test_interleave_validation():
    fine = Tensor(np.zeros((12, 2)))
    coarse = Tensor(np.zeros((3, 2)))
    with pytest.raises(InputError):
        dfmb_interleave(fine, coarse, 3, 4)
    with pytest.raises(InputError):
        dfmb_interleave(fine, Tensor(np.zeros((4, 2))), 4, 3)


def test_interleave_grads_flow_to_both_scales():
    rng = np.random.default_rng(2)
    fine = Tensor(rng.normal(size=(8, 2)))
    coarse = Tensor(rng.normal(size=(2, 2)))
    with GradTape() as tape:
        woven = dfmb_interleave(fine, coarse, 2, 4)
        loss = weighted_sum(woven, np.ones((10, 2)))
    backward(loss, tape)
    assert np.array_equal(fine.grad, np.ones((8, 2)))
    assert np.array_equal(coarse.grad, np.ones((2, 2)))


def test_silenced_group_is_bitwise_identity():
    # the mas stage gathers and scatters around its scan; with the stage
    # silenced the group must leave the sequence untouched, including on
    # multi-column patch grids where the scatter permutation is nontrivial
    rng = np.random.default_rng(3)
    group = DualScanGroup(ModelConfig(channels=2, state_dim=2), rng)
    group.silence()
    cases = [
        (_shadow_mask(16, 16, (4, 10, 6, 12)), 4, 16, 16),
        (_shadow_mask(2, 4, (0, 2, 2, 4)), 2, 2, 4),
        (np.zeros((8, 8)), 2, 8, 8),
    ]
    for mask, patch, h, w in cases:
        seq = Tensor(rng.normal(size=(h * w, 2)))
        out = group.forward(seq, scan_orders(mask, 1, patch, 0.5)[0], h, w)
        assert np.array_equal(out.data, seq.data)


def test_group_grid_must_tile_the_level():
    rng = np.random.default_rng(4)
    group = DualScanGroup(ModelConfig(channels=2, state_dim=2), rng)
    order = scan_orders(np.zeros((4, 4)), 1, 2, 0.5)[0]
    with pytest.raises(InputError):
        group.forward(Tensor(np.zeros((64, 2))), order, 8, 8)


def test_silenced_fusion_is_bitwise_identity():
    rng = np.random.default_rng(5)
    fusion = DualScaleFusion(ModelConfig(channels=3, state_dim=2), rng)
    fusion.silence()
    mask = _shadow_mask(8, 8, (2, 6, 2, 6))
    seq = Tensor(rng.normal(size=(64, 3)))
    out = fusion.forward(seq, scan_orders(mask, 2, 4, 0.5), 8, 8)
    assert np.array_equal(out.data, seq.data)


def test_fusion_output_shape():
    rng = np.random.default_rng(6)
    fusion = DualScaleFusion(ModelConfig(channels=2, state_dim=2), rng)
    mask = _shadow_mask(8, 12, (0, 4, 0, 6))
    out = fusion.forward(Tensor(rng.normal(size=(96, 2))), scan_orders(mask, 2, 4, 0.5), 8, 12)
    assert out.shape == (96, 2)


def test_silenced_unet_depth_zero_is_identity():
    rng = np.random.default_rng(7)
    unet = ScanUnet(ModelConfig(channels=2, state_dim=2, unet_depth=0), rng)
    unet.silence()
    mask = _shadow_mask(4, 4, (0, 2, 0, 2))
    seq = Tensor(rng.normal(size=(16, 2)))
    out = unet.forward(seq, scan_orders(mask, 1, 2, 0.5), 4, 4)
    assert np.array_equal(out.data, seq.data)


def test_silenced_unet_with_depth_maps_to_zero():
    # zeroed skip projections kill the up path entirely
    rng = np.random.default_rng(8)
    unet = ScanUnet(ModelConfig(channels=2, state_dim=2, unet_depth=1), rng)
    unet.silence()
    mask = _shadow_mask(8, 8, (2, 6, 2, 6))
    out = unet.forward(Tensor(rng.normal(size=(64, 2))), scan_orders(mask, 2, 2, 0.5), 8, 8)
    assert np.array_equal(out.data, np.zeros((64, 2)))


def test_unet_depth_two_shapes():
    rng = np.random.default_rng(9)
    unet = ScanUnet(ModelConfig(channels=2, state_dim=2, unet_depth=2), rng)
    mask = _shadow_mask(16, 16, (4, 12, 4, 12))
    out = unet.forward(Tensor(rng.normal(size=(256, 2))), scan_orders(mask, 3, 4, 0.5), 16, 16)
    assert out.shape == (256, 2)


def test_unet_named_params_cover_everything():
    rng = np.random.default_rng(10)
    unet = ScanUnet(ModelConfig(channels=2, state_dim=2, unet_depth=2), rng)
    names = [n for n, _ in unet.named_params()]
    assert len(names) == len(set(names))
    assert any(n.startswith("down.0.") for n in names)
    assert any(n.startswith("down.1.") for n in names)
    assert any(n.startswith("bottleneck.") for n in names)
    assert {"proj.0.w", "proj.0.b", "proj.1.w", "proj.1.b"} <= set(names)
    assert any(n.startswith("up.1.") for n in names)


def test_unet_param_names_are_pinned():
    # these names are the checkpoint contract: a change needs a new magic
    direction = ["a_log", "d", "w_dt", "b_dt", "w_b", "w_c"]
    stage = ["ln_gain", "ln_bias", *(f"{d}.{p}" for d in ("fwd", "bwd") for p in direction)]
    stage += [f"mlp.{p}" for p in ("w1", "b1", "dw", "w2", "b2")]
    group = [f"{s}.{n}" for s in ("row_stage", "mas_stage") for n in stage]
    expected = [f"{g}.{n}" for g in ("down.0", "down.1", "bottleneck") for n in group]
    expected += ["proj.0.w", "proj.0.b", "proj.1.w", "proj.1.b"]
    expected += [f"up.{i}.{n}" for i in (0, 1) for n in group]
    unet = ScanUnet(ModelConfig(channels=2, state_dim=2, unet_depth=2), np.random.default_rng(10))
    assert [n for n, _ in unet.named_params()] == expected


def test_silenced_model_identity_and_residual_toggle():
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2)
    rng = np.random.default_rng(11)
    image = rng.uniform(0.0, 1.0, size=(3, 8, 8))
    mask = _shadow_mask(8, 8, (2, 6, 3, 7))
    model = ShadowNet(config)
    model.silence()
    assert np.array_equal(model.forward(image, mask).data, image)
    direct = ShadowNet(
        ModelConfig(
            channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, residual_output=False
        )
    )
    direct.silence()
    assert np.array_equal(direct.forward(image, mask).data, np.zeros((3, 8, 8)))


_SILENCED = re.compile(r".*\.(fwd|bwd)\.(w_c|d)|.*\.mlp\.(w2|b2)|unet\.proj\.\d+\.(w|b)|dec_(w|b)")


@pytest.mark.parametrize("overrides, count", [({}, 70), ({"channels": 32, "state_dim": 16, "unet_depth": 4}, 148)])
def test_silence_zeroes_exactly_the_scan_outputs_mlp_contractions_projections_and_decoder(overrides, count):
    # every composite module reaches its leaves through the one walk; a
    # decoder-only silence would still pass the identity checks, not this
    model = ShadowNet(ModelConfig(**overrides))
    for _, p in model.named_params():
        p.data[:] = 1.0
    model.silence()
    zeroed = [n for n, p in model.named_params() if _SILENCED.fullmatch(n)]
    assert len(zeroed) == count
    for name, p in model.named_params():
        assert np.all(p.data == (0.0 if name in zeroed else 1.0)), name


def test_model_output_shape_and_range():
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, seed=3)
    model = ShadowNet(config)
    rng = np.random.default_rng(12)
    image = rng.uniform(0.0, 1.0, size=(3, 8, 8))
    mask = _shadow_mask(8, 8, (1, 5, 2, 6))
    out = model.forward(image, mask)
    assert out.shape == (3, 8, 8)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def _held_by_taped_forward(config):
    """Bytes traced as held after one taped forward of the toy 32 px image."""
    model = ShadowNet(config)
    image, mask, _ = make_toy_pairs(1, 32, seed=0)[0]
    tracemalloc.start()
    try:
        with GradTape() as tape:
            out = model.forward(image, mask)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.shape == (3, 32, 32) and len(tape._ops) > 0
    return held


def test_taped_forward_of_one_image_holds_at_most_12_5_mb():
    # one default 32 px image's tape held 58.7 MB while each scan kept bx
    # beside its history and each depthwise conv kept its im2col columns,
    # 39.5 MB while each scan direction held abar until replay, 30.8 MB
    # while the model folded sequences to maps through copying layout ops,
    # 28.3 MB while linear and the scan's direct term were two ops each,
    # 24.4 MB while each scan direction held its state history, and
    # 15.8 MB while every closure held its operands' tensors, and with
    # them the data of every activation, until replay; 11.5 MB since the
    # closures keep gradient slots and only the arrays their backward reads,
    # and 11.4 MB since both scan directions of a stage share one node
    held = _held_by_taped_forward(ModelConfig())
    assert held <= 12.5e6, held


def test_taped_forward_of_one_full_size_image_holds_at_most_48_5_mb():
    # 64.6 MB while every closure held its operands' tensors; 46.1 MB since
    # it keeps only gradient slots and the arrays its backward reads; 47.1 MB
    # since both scan directions of a stage share one node, whose row blocks
    # hold half as many rows, so it keeps twice the seam rows
    held = _held_by_taped_forward(ModelConfig(channels=32, state_dim=16, unet_depth=4))
    assert held <= 48.5e6, held


def test_model_same_seed_same_output():
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, seed=7)
    rng = np.random.default_rng(13)
    image = rng.uniform(0.0, 1.0, size=(3, 8, 8))
    mask = _shadow_mask(8, 8, (2, 6, 2, 6))
    a = ShadowNet(config).forward(image, mask).data
    b = ShadowNet(config).forward(image, mask).data
    assert np.array_equal(a, b)


def test_model_input_validation():
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2)
    model = ShadowNet(config)
    mask = np.zeros((8, 8))
    with pytest.raises(InputError):
        model.forward(np.zeros((1, 8, 8)), mask)
    with pytest.raises(InputError):
        model.forward(np.zeros((3, 8, 8)), np.zeros((8, 6)))
    with pytest.raises(InputError):
        model.forward(np.zeros((3, 7, 7)), np.zeros((7, 7)))  # not divisible by 2^depth
    bad = np.zeros((3, 8, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        model.forward(bad, mask)


def test_depth_zero_still_needs_one_halving():
    # the dual-scale fusion halves the image even without UNet levels
    model = ShadowNet(ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=0, patch_size=2))
    assert model.forward(np.full((3, 6, 6), 0.5), np.zeros((6, 6))).shape == (3, 6, 6)
    with pytest.raises(InputError, match="must be divisible by 2 for unet_depth=0"):
        model.forward(np.full((3, 5, 5), 0.5), np.zeros((5, 5)))


def test_unet_depth_has_a_ceiling():
    # an oversized depth fails when the config is built, so no size check
    # ever computes 2**depth
    assert ModelConfig(unet_depth=MAX_UNET_DEPTH).unet_depth == MAX_UNET_DEPTH
    for depth in (MAX_UNET_DEPTH + 1, 10**6):
        with pytest.raises(InputError, match="unet_depth"):
            ModelConfig(unet_depth=depth)


@pytest.mark.parametrize(
    "field, value",
    [
        ("channels", 0), ("state_dim", 0), ("expansion", 0), ("unet_depth", -1), ("patch_size", 0),
        ("tau", 0.0), ("tau", 1.5), ("dropout", -0.1), ("dropout", 1.0), ("seed", -1),
    ],
)
def test_an_out_of_range_config_field_fails_at_construction(field, value):
    with pytest.raises(InputError, match=field):
        ModelConfig(**{field: value})


def test_a_config_cannot_be_changed_after_construction():
    config = ModelConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.channels = 0
    assert config.channels == 8


def test_dropout_acts_only_on_a_taped_forward():
    image, mask, _ = make_toy_pairs(1, 16, seed=0)[0]
    tiny = {"channels": 2, "state_dim": 2, "patch_size": 2}
    plain = ShadowNet(ModelConfig(**tiny)).forward(image, mask).data
    model = ShadowNet(ModelConfig(**tiny, dropout=0.1))
    assert np.array_equal(model.forward(image, mask).data, plain)
    with GradTape():
        taped = model.forward(image, mask).data
    assert not np.array_equal(taped, plain)
    # the taped forward drew masks; an untaped one still draws none
    assert np.array_equal(model.forward(image, mask).data, plain)


def test_model_param_names_are_stable():
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2)
    names_a = [n for n, _ in ShadowNet(config).named_params()]
    names_b = [n for n, _ in ShadowNet(config).named_params()]
    assert names_a == names_b
    assert "dec_w" in names_a and "dec_b" in names_a
    assert any(n.startswith("encoder.") for n in names_a)
    assert any(n.startswith("fusion.") for n in names_a)
    assert any(n.startswith("unet.") for n in names_a)


# SHA-256 of the forward output and of every parameter gradient (in
# named_params order, C-order bytes) of the toy 32 px image's L1 loss, or
# of the crop given. Recorded when the model folded each sequence to a
# map and back through reshape and permute_dims tape ops around every
# convolution and resampling. The per-op tests cannot see memory order
# across ops, and a later reduction rounds by it: the mlp.b1 bias's
# sum(axis=0), for one, rounds differently over a C-ordered gradient than
# over the transposed view the layout ops handed back. The thin crops put
# half-resolution levels one pixel wide or high.
_PINNED = [
    ({}, None, "426d194cbea526767a3c84dde14c97ab6104b53a3ed1146a0d92f4d59ccdb71f", "28c3023a352b47d84bcc5eba673185f4962ba5209688c93f5aafca465cb9ac2f"),
    ({"unet_depth": 0}, None, "7d4dcfcfb42728bd71a3bd5767e3ca6578a04970df6e1374ea8497c967e6c00b", "946289263e3b08d388653588c6ee3d708e158bb1f54f8fdbdbc08501ac5e7afe"),
    ({"unet_depth": 2}, None, "d0bdc1a3e3b0443554b739cfb6c0fea0814d73284a71822ba09c93e8f9582697", "cf442b90c9235303785b6c14c0944561586fbdb256dfd2a4dc26bf579658d2cb"),
    ({"channels": 16, "unet_depth": 3, "patch_size": 4}, None, "6fe76bc3ff308dd688139b63f269df71eb51639c99697f069f460cb0720ff26c", "0470a0593cba632b94b3715945a38b8d7fba024b3a255f522ce4e11a97288514"),
    ({"channels": 32, "state_dim": 16, "unet_depth": 4}, None, "80cf14a223d830d6f8fff7e222b5a8951d4a3767ca0ef5f1cba52d8514aa2be2", "0a4ef537e709cc79176b40dcf81260dc1aa3be496a00a6941a8098328a832545"),
    ({"channels": 2, "patch_size": 2}, (slice(None), slice(0, 2)), "f4c44664be286959c799f5e762c33efaa1729c60589f664b056a8dd34cfa9a3e", "48ae969ec8c63fbe53c4b9e0b2fba155c5a90be55ba12ed36ed1f6a058b85674"),
    ({"channels": 2, "patch_size": 2}, (slice(14, 16), slice(None)), "650d1751a0820a43a8d763eb13791bb710fc35c208f78b73a0989ea947c8f57a", "6100d897e1aee3f5be939bf61782f8631652e2142ed18c80f7a859b266d3fc79"),
]


# The CPU class the digests were pinned on. numpy dispatches its exp and
# expm1 kernels, and OpenBLAS its dgemm core, by the CPU it runs on, and
# other kernels round some entries differently in the last bit.
_PINNED_ON = "numpy AVX512_SKX+X86_V4, OpenBLAS SkylakeX"


def _pinned_vs_running():
    """The pinned CPU class and this machine's: numpy's AVX-512 dispatch
    and OpenBLAS's core."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    dispatch = "+".join(f for f in ("AVX512_SKX", "X86_V4") if __cpu_features__.get(f)) or "no AVX512_SKX/X86_V4"
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"pinned on {_PINNED_ON}, running on numpy {dispatch}, OpenBLAS {core}"


@pytest.mark.parametrize(
    "overrides, crop, out_sha, grads_sha",
    _PINNED,
    ids=["default", "depth-0", "depth-2", "c16-depth-3-patch-4", "full-size", "32x2", "2x32"],
)
def test_output_and_gradients_of_one_image_are_pinned(overrides, crop, out_sha, grads_sha, monkeypatch):
    image, mask, clean = make_toy_pairs(1, 32, seed=0)[0]
    if crop is not None:
        image, mask, clean = image[(slice(None), *crop)], mask[crop], clean[(slice(None), *crop)]
    model = ShadowNet(ModelConfig(**overrides))
    preds = []

    def recorded_forward(*args, **kwargs):
        preds.append(ShadowNet.forward(model, *args, **kwargs))
        return preds[-1]

    monkeypatch.setattr(model, "forward", recorded_forward)
    with GradTape() as tape:
        loss = batch_loss(model, [(image, mask, clean)])
    backward(loss, tape)
    (pred,) = preds
    grads = hashlib.sha256()
    for _, p in model.named_params():
        grads.update(np.ascontiguousarray(p.grad).tobytes())
    assert hashlib.sha256(pred.data.tobytes()).hexdigest() == out_sha, _pinned_vs_running()
    assert grads.hexdigest() == grads_sha, _pinned_vs_running()
