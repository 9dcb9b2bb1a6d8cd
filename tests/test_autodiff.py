"""Tape engine tests: every op against a numpy forward oracle and central
finite differences for the backward pass, and what each op's tape node
keeps until replay."""

import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from helpers import assert_grads_match, tape_grads, weighted_sum
from shadowscan import autodiff as ad
from shadowscan import ssm, train
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.errors import InputError
from shadowscan.imageio import linear_taps


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape))


def test_add_on_equal_shapes():
    rng = np.random.default_rng(0)
    a = _t(rng, 3, 4)
    b = _t(rng, 3, 4)
    g = rng.normal(size=(3, 4))
    assert np.array_equal(ad.add(a, b).data, a.data + b.data)
    da, db = tape_grads(ad.add, [a, b], g)
    assert np.array_equal(da, g) and np.array_equal(db, g)


def test_add_rejects_unequal_shapes():
    rng = np.random.default_rng(2)
    a = _t(rng, 3, 4)
    for shape in ((4,), (3, 1), (1, 4), ()):
        with pytest.raises(InputError):
            ad.add(a, _t(rng, *shape))
        with pytest.raises(InputError):
            ad.add(_t(rng, *shape), a)


def test_linear_is_one_op():
    rng = np.random.default_rng(3)
    x = _t(rng, 3, 4)
    w = _t(rng, 4, 2)
    b = _t(rng, 2)
    g = rng.normal(size=(3, 2))
    assert np.array_equal(ad.linear(x, w, b).data, x.data @ w.data + b.data)
    dx, dw, db = tape_grads(ad.linear, [x, w, b], g)
    assert np.array_equal(dx, g @ w.data.T) and np.array_equal(dw, x.data.T @ g)
    assert np.array_equal(db, g.sum(axis=0))
    assert_grads_match(ad.linear, [x, w, b])
    with GradTape() as tape:
        ad.linear(x, w, b)
    assert len(tape._ops) == 1
    with pytest.raises(InputError):
        ad.linear(x, _t(rng, 3, 2), b)
    with pytest.raises(InputError):
        ad.linear(x, w, _t(rng, 3))


def test_gelu_forward_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    phi = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
    assert np.array_equal(ad.gelu(Tensor(x)).data, x * phi)


def _assert_same_bits(got, want):
    """Equal float64 bit patterns entry by entry; any NaN matches any NaN."""
    assert got.shape == want.shape and got.dtype == np.float64
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, f"{bad.size} entries differ, first {got.flat[bad[0]]!r} vs {want.flat[bad[0]]!r}"


def _assert_oracle_bits(x):
    """ad.erf and ad.expit match scipy.special bit for bit on x, and on -x,
    with every numpy RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (x, np.negative(x)):
            _assert_same_bits(ad.erf(v), special.erf(v))
            _assert_same_bits(ad.expit(v), special.expit(v))


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(1, 64), elements=_ANY_FLOAT))
def test_erf_and_expit_match_scipy_on_any_finite_float(x):
    _assert_oracle_bits(x)


def test_erf_and_expit_match_scipy_across_the_branch_seams():
    # erf switches branch at |x| = 1 and 8, and erfc underflows past
    # sqrt(MAXLOG) ~ 26.64; each seam is swept densely, with its neighbours
    for seam in (1.0, 8.0, np.sqrt(ad._MAXLOG)):
        around = (np.float64(seam).view(np.int64) + np.arange(-64, 65)).view(np.float64)
        _assert_oracle_bits(np.concatenate([np.linspace(seam - 1e-3, seam + 1e-3, 100_001), around]))
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 1e154, 1e300, 1.7976931348622157e308, np.inf, np.nan]
    _assert_oracle_bits(np.array(edges))
    x = np.random.default_rng(11).normal(size=(64, 48)) * 4.0
    _assert_oracle_bits(x)
    _assert_oracle_bits(x.T)  # a non-contiguous operand keeps its shape


def test_expit_matches_scipy_where_exp_nears_overflow():
    # cexp stops being libm exp above 709; math.exp takes those entries
    _assert_oracle_bits(np.linspace(-709.9, -708.9, 400_001))


def test_gelu_grads():
    rng = np.random.default_rng(7)
    a = _t(rng, 3, 4)
    assert_grads_match(ad.gelu, [a])


def test_leaky_relu():
    a = Tensor(np.array([-2.0, -0.5, 0.5, 3.0]))
    assert np.array_equal(ad.leaky_relu(a, 0.2).data, np.array([-0.4, -0.1, 0.5, 3.0]))
    assert_grads_match(lambda t: ad.leaky_relu(t, 0.2), [a])


def test_clamp01():
    a = Tensor(np.array([-0.5, 0.25, 0.75, 1.5]))
    out = ad.clamp01(a)
    assert np.array_equal(out.data, np.array([0.0, 0.25, 0.75, 1.0]))
    assert_grads_match(ad.clamp01, [a])
    # the clipped entries must get exactly zero gradient
    assert np.array_equal(tape_grads(ad.clamp01, [a], np.ones(4))[0], np.array([0.0, 1.0, 1.0, 0.0]))


def test_dropout():
    rng = np.random.default_rng(8)
    a = _t(rng, 6, 3)
    state = rng.bit_generator.state
    # untaped, the op is the identity and draws nothing
    assert ad.dropout(a, 0.5, rng) is a
    assert rng.bit_generator.state == state
    with GradTape():
        assert ad.dropout(a, 0.0, rng) is a
        out = ad.dropout(a, 0.5, np.random.default_rng(9))
    keep = (np.random.default_rng(9).random(a.shape) >= 0.5) / 0.5
    assert np.array_equal(out.data, a.data * keep)
    with pytest.raises(InputError):
        ad.dropout(a, 1.0, rng)


def test_dropout_gradient_is_the_cotangent_times_the_kept_scale():
    # finite differences run untaped, where dropout is the identity, so the
    # gradient is checked against its closed form instead
    a = _t(np.random.default_rng(8), 6, 3)
    weight = np.random.default_rng(3).normal(size=a.shape)
    keep = (np.random.default_rng(9).random(a.shape) >= 0.4) / (1.0 - 0.4)
    (grad,) = tape_grads(lambda t: ad.dropout(t, 0.4, np.random.default_rng(9)), [a], weight)
    assert np.array_equal(grad, weight * keep)


def test_layer_norm():
    rng = np.random.default_rng(10)
    x = _t(rng, 5, 6)
    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = _t(rng, 6)
    out = ad.layer_norm(x, gain, bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    ref = (x.data - mu) / np.sqrt(var + 1e-5) * gain.data + bias.data
    assert np.allclose(out.data, ref, atol=1e-12)
    assert_grads_match(ad.layer_norm, [x, gain, bias])
    with pytest.raises(InputError):
        ad.layer_norm(x, Tensor(np.ones(5)), bias)


def _conv_loop(x, w, b):
    """Same-padded cross-correlation, straight from the definition."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for p in range(h):
            for q in range(wd):
                for i in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            out[o, p, q] += w[o, i, di, dj] * xp[i, p + di, q + dj]
        out[o] += b[o]
    return out


def _seq(m):
    """A (C, H, W) array as the C-contiguous (H*W, C) token sequence."""
    return np.ascontiguousarray(m.reshape(m.shape[0], -1).T)


def _ts(rng, c, h, w):
    """A random (H*W, C) sequence with a gradient."""
    return Tensor(rng.normal(size=(h * w, c)))


def test_conv2d_matches_nested_loop():
    rng = np.random.default_rng(11)
    x = _ts(rng, 2, 5, 4)
    w = _t(rng, 3, 2, 3, 3)
    b = _t(rng, 3)
    out = ad.conv2d(x, 5, 4, w, b)
    ref = _conv_loop(x.data.T.reshape(2, 5, 4), w.data, b.data)
    assert np.allclose(out.data, _seq(ref), atol=1e-12)
    assert_grads_match(lambda x_, w_, b_: ad.conv2d(x_, 5, 4, w_, b_), [x, w, b])


def test_conv2d_validation():
    rng = np.random.default_rng(12)
    x = _ts(rng, 2, 4, 4)
    b = _t(rng, 3)
    with pytest.raises(InputError):
        ad.conv2d(x, 4, 4, _t(rng, 3, 2, 2, 2), b)
    with pytest.raises(InputError):
        ad.conv2d(x, 4, 4, _t(rng, 3, 5, 3, 3), b)
    with pytest.raises(InputError):
        ad.conv2d(x, 4, 4, _t(rng, 3, 2, 3, 3), _t(rng, 4))
    with pytest.raises(InputError):
        ad.conv2d(x, 4, 5, _t(rng, 3, 2, 3, 3), b)
    with pytest.raises(InputError):
        ad.conv2d(_t(rng, 2, 4, 4), 4, 4, _t(rng, 3, 2, 3, 3), b)


def test_depthwise_conv2d_matches_loop():
    rng = np.random.default_rng(13)
    x = _ts(rng, 3, 4, 5)
    w = _t(rng, 3, 3, 3)
    out = ad.depthwise_conv2d(x, 4, 5, w)
    xm = x.data.T.reshape(3, 4, 5)
    ref = np.stack(
        [
            _conv_loop(xm[c : c + 1], w.data[c][None, None], np.zeros(1))[0]
            for c in range(3)
        ]
    )
    assert np.allclose(out.data, _seq(ref), atol=1e-12)
    assert_grads_match(lambda x_, w_: ad.depthwise_conv2d(x_, 4, 5, w_), [x, w])
    with pytest.raises(InputError):
        ad.depthwise_conv2d(x, 4, 5, _t(rng, 2, 3, 3))
    with pytest.raises(InputError):
        ad.depthwise_conv2d(x, 5, 5, w)


# The layout ops the model folded sequences with before the spatial ops
# took sequences themselves, kept verbatim: the frozen convolutions run
# between them, as the model ran them.


def _frozen_reshape(x, shape):
    out = Tensor(x.data.reshape(shape))

    def bw(g):
        x.accumulate(g.reshape(x.data.shape))

    ad._record(out, bw)
    return out


def _frozen_permute_dims(x, axes):
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    inverse = tuple(np.argsort(axes))

    def bw(g):
        x.accumulate(g.transpose(inverse))

    ad._record(out, bw)
    return out


def _frozen_map_to_seq(x):
    c, h, w = x.shape
    return _frozen_reshape(_frozen_permute_dims(x, (1, 2, 0)), (h * w, c))


def _frozen_seq_to_map(x, h, w):
    l, c = x.shape
    return _frozen_permute_dims(_frozen_reshape(x, (h, w, c)), (2, 0, 1))


def _col2im(dcols, shape, k):
    """The column-array scatter both convolutions' x gradients used."""
    c, h, w = shape
    pad = k // 2
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            dxp[:, di : di + h, dj : dj + w] += dcols[:, di, dj]
    return dxp[:, pad : pad + h, pad : pad + w]


def _frozen_conv2d(x, w, b=None):
    """conv2d as it was when its closure kept the im2col columns, kept
    verbatim as the bitwise reference."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    cols = ad._im2col(x.data, k).reshape(c_in * k * k, h * wd)
    y = (w.data.reshape(c_out, -1) @ cols).reshape(c_out, h, wd)
    if b is not None:
        y = y + b.data[:, None, None]
    out = Tensor(y)

    def bw(g):
        g2 = g.reshape(c_out, h * wd)
        w.accumulate((g2 @ cols.T).reshape(w.data.shape))
        if b is not None:
            b.accumulate(g.sum(axis=(1, 2)))
        dcols = (w.data.reshape(c_out, -1).T @ g2).reshape(c_in, k, k, h, wd)
        x.accumulate(_col2im(dcols, x.data.shape, k))

    ad._record(out, bw)
    return out


def _frozen_depthwise_conv2d(x, w):
    """depthwise_conv2d as it was when its forward and x gradient went
    through the (C, k, k, H, W) column array and its closure kept it."""
    c, h, wd = x.shape
    k = w.shape[1]
    cols = ad._im2col(x.data, k).reshape(c, k * k, h * wd)
    y = (cols * w.data.reshape(c, k * k, 1)).sum(axis=1).reshape(c, h, wd)
    out = Tensor(y)

    def bw(g):
        g2 = g.reshape(c, 1, h * wd)
        w.accumulate((cols * g2).sum(axis=2).reshape(c, k, k))
        dcols = (w.data.reshape(c, k * k, 1) * g2).reshape(c, k, k, h, wd)
        x.accumulate(_col2im(dcols, x.data.shape, k))

    ad._record(out, bw)
    return out


def _folding(op):
    """A frozen map op run on a sequence through the frozen layout ops."""

    def run(x, h, w, *args):
        return _frozen_map_to_seq(op(_frozen_seq_to_map(x, h, w), *args))

    return run


def _frozen_downsample(x):
    d = x.data
    y = 0.25 * (d[:, ::2, ::2] + d[:, 1::2, ::2] + d[:, ::2, 1::2] + d[:, 1::2, 1::2])
    out = Tensor(y)

    def bw(g):
        dx = np.zeros_like(d)
        q = 0.25 * g
        dx[:, ::2, ::2] += q
        dx[:, 1::2, ::2] += q
        dx[:, ::2, 1::2] += q
        dx[:, 1::2, 1::2] += q
        x.accumulate(dx)

    ad._record(out, bw)
    return out


def _frozen_upsample(x):
    c, h, w = x.shape
    r0, r1, fr = linear_taps(h, 2 * h)
    c0, c1, fc = linear_taps(w, 2 * w)
    d = x.data
    fr_ = fr[None, :, None]
    fc_ = fc[None, None, :]
    top = (1.0 - fc_) * d[:, r0][:, :, c0] + fc_ * d[:, r0][:, :, c1]
    bot = (1.0 - fc_) * d[:, r1][:, :, c0] + fc_ * d[:, r1][:, :, c1]
    out = Tensor((1.0 - fr_) * top + fr_ * bot)

    def bw(g):
        dx = np.zeros_like(d)
        rows = (r0, r1)
        cols = (c0, c1)
        wr = (1.0 - fr_, fr_)
        wc = (1.0 - fc_, fc_)
        for a in range(2):
            for b_ in range(2):
                np.add.at(dx, (slice(None), rows[a][:, None], cols[b_][None, :]), wr[a] * wc[b_] * g)
        x.accumulate(dx)

    ad._record(out, bw)
    return out


# signed zeros: a per-window sum must start from +0.0 as numpy's
# reduction does, or an all-(-0.0) tap sum keeps its sign
_FINITE = st.one_of(st.floats(-10.0, 10.0, allow_nan=False), st.sampled_from([0.0, -0.0]))


def _draw_sequences(draw, c_in, h, w, out_shape, **params):
    """x and its prior gradient as (h*w, c_in) sequences, the loss weight
    in the output's shape, and the named parameter arrays."""
    shapes = {"x": (h * w, c_in), "prior": (h * w, c_in), "weight": out_shape, **params}
    case = {name: draw(arrays(np.float64, shape, elements=_FINITE)) for name, shape in shapes.items()}
    case.update(h=h, w=w, with_prior=draw(st.booleans()))
    return case


@st.composite
def _conv_case(draw):
    c_in = draw(st.integers(1, 3))
    c_out = draw(st.integers(1, 3))
    # up to 144 pixels: each tap's sum crosses numpy's 128-element
    # pairwise-summation block
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    k = draw(st.sampled_from([1, 3, 5]))
    depthwise = draw(st.booleans())
    kernel = (c_in, k, k) if depthwise else (c_out, c_in, k, k)
    out_shape = (h * w, c_in) if depthwise else (c_out, h, w)
    case = _draw_sequences(draw, c_in, h, w, out_shape, kernel=kernel, b=(c_out,))
    case["depthwise"] = depthwise
    return case


def _op_and_grads(case, op, names):
    """Output and the gradients of the named tensors under
    sum(out * weight), with x optionally holding a prior gradient when the
    tape replays."""
    tensors = {name: Tensor(case[name]) for name in names}
    with GradTape() as tape:
        out = op(tensors)
        loss = weighted_sum(out, case["weight"])
    if case["with_prior"]:
        tensors["x"].accumulate(case["prior"])
    backward(loss, tape)
    return [out.data] + [tensors[name].grad for name in names]


def _assert_bitwise(got, want, names):
    """Equal bits and the same memory order: a later reduction rounds by
    the order of the array it is handed."""
    for name, g, w in zip(names, got, want):
        assert (g is None) == (w is None), name
        if g is not None:
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), name
            assert (g.flags.c_contiguous, g.flags.f_contiguous) == (w.flags.c_contiguous, w.flags.f_contiguous), name


def _decoder_conv(x, h, w, kernel, b):
    return ad.seq_to_map(ad.conv2d(x, h, w, kernel, b), h, w)


def _frozen_decoder_conv(x, h, w, kernel, b):
    return _frozen_conv2d(_frozen_seq_to_map(x, h, w), kernel, b)


def _conv_runner(conv, depthwise_conv, case):
    h, w = case["h"], case["w"]
    if case["depthwise"]:
        return lambda t: depthwise_conv(t["x"], h, w, t["kernel"])
    return lambda t: conv(t["x"], h, w, t["kernel"], t["b"])


@settings(max_examples=200)
@given(_conv_case())
def test_convs_bitwise_match_the_column_keeping_copies(case):
    # the model's depthwise conv sits between sequence ops, so it is
    # compared between the frozen layout ops; its conv2d output gradient
    # was a C-contiguous map (the decoder's output, the encoder's
    # activation), so conv2d is compared as the decoder runs it, into a map
    names = ("x", "kernel", "b")
    got = _op_and_grads(case, _conv_runner(_decoder_conv, ad.depthwise_conv2d, case), names)
    frozen = _conv_runner(_frozen_decoder_conv, _folding(_frozen_depthwise_conv2d), case)
    want = _op_and_grads(case, frozen, names)
    _assert_bitwise(got, want, ("out",) + names)


@st.composite
def _resample_case(draw):
    up = draw(st.booleans())
    h = draw(st.integers(1, 6)) * (1 if up else 2)
    w = draw(st.integers(1, 6)) * (1 if up else 2)
    c = draw(st.integers(1, 3))
    out_pixels = h * w * 4 if up else h * w // 4
    case = _draw_sequences(draw, c, h, w, (out_pixels, c))
    case["up"] = up
    return case


@settings(max_examples=100)
@given(_resample_case())
def test_resampling_bitwise_matches_the_map_ops_between_layout_ops(case):
    h, w = case["h"], case["w"]
    new, frozen = (ad.bilinear_upsample2x, _frozen_upsample) if case["up"] else (ad.bilinear_downsample2x, _frozen_downsample)
    got = _op_and_grads(case, lambda t: new(t["x"], h, w), ("x",))
    want = _op_and_grads(case, lambda t: _folding(frozen)(t["x"], h, w), ("x",))
    _assert_bitwise(got, want, ("out", "x"))


@pytest.mark.parametrize("depthwise", [False, True])
def test_taped_conv_holds_no_column_array(depthwise):
    # the columns of a 3x3 kernel are nine times the input; the closure
    # keeps the input sequence itself and rebuilds them in backward
    rng = np.random.default_rng(14)
    x = _ts(rng, 8, 32, 32)
    w = _t(rng, 8, 3, 3) if depthwise else _t(rng, 8, 8, 3, 3)
    b = _t(rng, 8)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            out = ad.depthwise_conv2d(x, 32, 32, w) if depthwise else ad.conv2d(x, 32, 32, w, b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape._ops) == 1
    assert held < out.data.nbytes + x.data.nbytes, held


def test_bilinear_downsample2x():
    rng = np.random.default_rng(14)
    x = _ts(rng, 2, 4, 6)
    out = ad.bilinear_downsample2x(x, 4, 6)
    d = x.data.T.reshape(2, 4, 6)
    ref = 0.25 * (d[:, ::2, ::2] + d[:, 1::2, ::2] + d[:, ::2, 1::2] + d[:, 1::2, 1::2])
    assert np.array_equal(out.data, _seq(ref))
    assert_grads_match(lambda t: ad.bilinear_downsample2x(t, 4, 6), [x])
    with pytest.raises(InputError):
        ad.bilinear_downsample2x(_ts(rng, 2, 3, 4), 3, 4)
    with pytest.raises(InputError):
        ad.bilinear_downsample2x(x, 4, 4)


def test_bilinear_upsample2x_hand_case():
    # one channel, 2x2 -> 4x4; taps clamp at the borders
    x = Tensor(np.array([[0.0], [1.0], [2.0], [3.0]]))
    out = ad.bilinear_upsample2x(x, 2, 2).data[:, 0].reshape(4, 4)
    row = np.array([0.0, 0.25, 0.75, 1.0])
    expect = row[None, :] + 2.0 * row[:, None]
    assert np.allclose(out, expect, atol=1e-12)


def test_bilinear_upsample2x_properties_and_grads():
    rng = np.random.default_rng(15)
    const = Tensor(np.full((16, 2), 0.7))
    assert np.allclose(ad.bilinear_upsample2x(const, 4, 4).data, 0.7, atol=1e-15)
    x = _ts(rng, 1, 4, 6)
    assert ad.bilinear_upsample2x(x, 4, 6).shape == (96, 1)
    assert_grads_match(lambda t: ad.bilinear_upsample2x(t, 4, 6), [x])
    with pytest.raises(InputError):
        ad.bilinear_upsample2x(x, 4, 5)


def test_gather_rows():
    # an index shorter than x selects rows; the rows it skips get zeros
    rng = np.random.default_rng(16)
    x = _t(rng, 5, 3)
    idx = np.array([4, 0, 2])
    out = ad.permute_gather(x, idx)
    assert np.array_equal(out.data, x.data[idx])
    assert_grads_match(lambda t: ad.permute_gather(t, idx), [x])
    with pytest.raises(InputError):
        ad.permute_gather(x, np.array([5]))
    with pytest.raises(InputError):
        ad.permute_gather(x, np.array([[0, 1]]))


def test_permute_gather_and_inverse():
    rng = np.random.default_rng(17)
    x = _t(rng, 6, 2)
    perm = rng.permutation(6)
    out = ad.permute_gather(x, perm)
    assert np.array_equal(out.data, x.data[perm])
    restored = ad.permute_gather(out, ad.invert_permutation(perm))
    assert np.array_equal(restored.data, x.data)
    assert np.array_equal(ad.permute_gather(x, np.array([0, 1, 2, 3, 4])).data, x.data[:5])
    # a repeated row would keep only one of its two gradients
    for bad in ([0, 0, 1, 2, 3, 4], [4, 0, 0], [0, 1, 2, 3, 4, 6], [-1, 0, 1, 2, 3, 4]):
        with pytest.raises(InputError):
            ad.permute_gather(x, np.array(bad))


# The row ops permute_gather replaced, kept verbatim as bitwise references.


def _frozen_gather_rows(x, idx):
    out = Tensor(x.data[idx])

    def bw(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        x.accumulate(dx)

    ad._record(out, bw)
    return out


def _frozen_reverse_rows(x):
    out = Tensor(x.data[::-1].copy())

    def bw(g):
        x.accumulate(g[::-1])

    ad._record(out, bw)
    return out


@st.composite
def _row_case(draw):
    """x, the loss weight, x's optional prior gradient, the index, and the
    frozen op that index stands for: a permutation, a selection or a
    reversal."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["permutation", "selection", "reversal"]))
    if kind == "reversal":
        idx = np.arange(n - 1, -1, -1)
        frozen = _frozen_reverse_rows
    else:
        idx = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        if kind == "selection":
            idx = idx[: draw(st.integers(0, n - 1))]
        frozen = lambda x: _frozen_gather_rows(x, idx)  # noqa: E731
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(1, 3))
    case = {
        "x": rng.normal(size=(n, channels)),
        "weight": rng.normal(size=(idx.size, channels)),
        "prior": rng.normal(size=(n, channels)),
        "with_prior": draw(st.booleans()),
    }
    return case, idx, frozen


@settings(max_examples=300)
@given(_row_case())
def test_permute_gather_is_bitwise_the_gather_rows_path(row_case):
    case, idx, frozen = row_case
    got = _op_and_grads(case, lambda t: ad.permute_gather(t["x"], idx), ("x",))
    want = _op_and_grads(case, lambda t: frozen(t["x"]), ("x",))
    _assert_bitwise(got, want, ("out", "x"))


def test_invert_permutation():
    rng = np.random.default_rng(18)
    for _ in range(20):
        perm = rng.permutation(int(rng.integers(1, 30)))
        inv = ad.invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(perm.size))
        assert np.array_equal(inv[perm], np.arange(perm.size))


def test_reverse_rows():
    rng = np.random.default_rng(19)
    x = _t(rng, 5, 2)
    reverse = np.arange(4, -1, -1)
    assert np.array_equal(ad.permute_gather(x, reverse).data, x.data[::-1])
    assert_grads_match(lambda t: ad.permute_gather(t, reverse), [x])


@pytest.mark.parametrize("axis", [0, 1])
def test_concat(axis):
    rng = np.random.default_rng(20)
    a = _t(rng, 3, 4)
    b = _t(rng, 2, 4) if axis == 0 else _t(rng, 3, 2)
    assert np.array_equal(ad.concat(a, b, axis).data, np.concatenate([a.data, b.data], axis=axis))
    assert_grads_match(lambda a_, b_: ad.concat(a_, b_, axis), [a, b])
    # each operand's gradient is its slice of the output's, bit for bit
    # and in C order, as a later reduction over it rounds by that order
    g = rng.normal(size=ad.concat(a, b, axis).shape)
    da, db = tape_grads(lambda a_, b_: ad.concat(a_, b_, axis), [a, b], g)
    head, tail = (g[:3], g[3:]) if axis == 0 else (g[:, :4], g[:, 4:])
    assert np.array_equal(da, head) and np.array_equal(db, tail)
    assert da.flags.c_contiguous and db.flags.c_contiguous
    with pytest.raises(InputError):
        ad.concat(a, _t(rng, 2, 5) if axis == 0 else _t(rng, 4, 2), axis)
    with pytest.raises(InputError):
        ad.concat(a, _t(rng, 3), axis)


def test_map_seq_round_trip():
    # a (C, H, W) map flattened row-major into an (H*W, C) sequence by
    # hand folds back to itself, values and gradients
    rng = np.random.default_rng(22)
    m = rng.normal(size=(3, 4, 5))
    seq = Tensor(np.array([m[:, r, c] for r in range(4) for c in range(5)]))
    folded = ad.seq_to_map(seq, 4, 5)
    assert np.array_equal(folded.data, m) and folded.data.flags.c_contiguous
    assert_grads_match(lambda t: ad.seq_to_map(t, 4, 5), [seq])
    with pytest.raises(InputError):
        ad.seq_to_map(seq, 4, 4)


def test_backward_requires_scalar_and_fresh_tape():
    x = Tensor(np.ones(3))
    with GradTape() as tape:
        y = ad.add(x, x)
    with pytest.raises(InputError):
        backward(y, tape)
    with GradTape() as tape:
        loss = weighted_sum(x, np.full(3, 3.0))
    backward(loss, tape)
    assert np.array_equal(x.grad, np.full(3, 3.0))
    with pytest.raises(InputError):
        backward(loss, tape)


def test_tape_records_only_inside_context():
    x = Tensor(np.ones(4))
    two = Tensor(np.full(4, 2.0))
    ad.add(x, two)  # outside any tape
    tape = GradTape()
    with tape:
        ad.add(x, two)
        ad.gelu(x)
    assert len(tape._ops) == 2


def test_every_tensor_on_the_tape_receives_its_gradient():
    # a constant made inside the forward is an input like any other
    rng = np.random.default_rng(24)
    x, w, b = _t(rng, 4, 3), _t(rng, 3, 2), _t(rng, 2)
    with GradTape() as tape:
        two = Tensor(np.full((4, 2), 2.0))
        y = ad.add(ad.linear(x, w, b), two)
        loss = weighted_sum(y, np.ones((4, 2)))
    backward(loss, tape)
    assert np.array_equal(two.grad, np.ones((4, 2)))
    assert np.array_equal(b.grad, np.full(2, 4.0))
    assert all(t.grad is not None and t.grad.shape == t.shape for t in (x, w, y))


def test_grads_accumulate_across_uses():
    x = Tensor(np.array([2.0]))
    with GradTape() as tape:
        loss = weighted_sum(ad.add(x, x), np.ones(1))
    backward(loss, tape)
    assert np.array_equal(x.grad, np.array([2.0]))


def test_param_init():
    rng = np.random.default_rng(23)
    p = ad.param((200,), rng, fan_in=25)
    assert np.abs(p.data).max() <= 1.0 / 5.0
    q = ad.param((200,), rng, fan_in=25, scale=0.01)
    assert np.abs(q.data).max() <= 0.01 / 5.0
    with pytest.raises(InputError):
        ad.param((3,), rng, fan_in=0)


# What each tape node may keep until replay: the gradient slots of the
# tensors it sends gradient to, the arrays its backward reads and plain
# shapes. Each case builds its inputs, runs the op and names the inputs,
# and any outputs (out0, out1, ...), whose data the backward reads; every
# other input's and output's data must be freed once the caller drops its
# references.


# a scan of two directions of 8 x 16 state over 300 tokens: three row
# blocks, so two seams
_SCAN_SHAPES = {"w_dt": (8, 8), "b_dt": (8,), "w_b": (8, 16), "w_c": (8, 16), "a_log": (8, 16), "d": (8,)}
_SCAN_WEIGHTS = ("w_dt", "b_dt", "w_b", "w_c")


def _scan_inputs(rng):
    inputs = {"u": _t(rng, 300, 8)}
    for k in range(2):
        inputs.update((f"{name}{k}", _t(rng, *shape)) for name, shape in _SCAN_SHAPES.items())
    return inputs


def _scan(t):
    directions = [types.SimpleNamespace(**{name: t[f"{name}{k}"] for name in _SCAN_SHAPES}) for k in range(2)]
    return ssm.ssm_recurrence(ssm.Scan(t["u"], directions))


def _projection_inputs(rng):
    shapes = {"u": (6, 3), "w_dt": (3, 3), "b_dt": (3,), "w_b": (3, 2), "w_c": (3, 2), "a_log": (3, 2), "d": (3,)}
    return {name: _t(rng, *shape) for name, shape in shapes.items()}


def _projected(t):
    """Both directions' projections and scans, one direction's parameters
    read twice, so that each gradient slot is sent to from both."""
    return ssm.ssm_recurrence(ssm.Scan(t["u"], [types.SimpleNamespace(**t)] * 2))


class _Replaying:
    """A model stand-in whose forward hands out the given predictions in turn."""

    def __init__(self, preds):
        self._preds = iter(preds)

    def forward(self, shadowed, mask):
        return next(self._preds)


def _loss_of(t):
    rng = np.random.default_rng(26)
    batch = [(None, None, rng.uniform(size=(3, 4, 4))) for _ in range(2)]
    return train.batch_loss(_Replaying([t["p0"], t["p1"]]), batch)


_RETENTION = {
    "add": (lambda r: {"a": _t(r, 5, 3), "b": _t(r, 5, 3)}, lambda t: ad.add(t["a"], t["b"]), ()),
    "concat": (lambda r: {"a": _t(r, 5, 3), "b": _t(r, 2, 3)}, lambda t: ad.concat(t["a"], t["b"], 0), ()),
    "seq_to_map": (lambda r: {"x": _t(r, 12, 2)}, lambda t: ad.seq_to_map(t["x"], 3, 4), ()),
    "downsample": (lambda r: {"x": _t(r, 24, 2)}, lambda t: ad.bilinear_downsample2x(t["x"], 4, 6), ()),
    "upsample": (lambda r: {"x": _t(r, 12, 2)}, lambda t: ad.bilinear_upsample2x(t["x"], 3, 4), ()),
    "permute_gather": (lambda r: {"x": _t(r, 6, 2)}, lambda t: ad.permute_gather(t["x"], np.array([4, 1, 5, 0])), ()),
    "layer_norm": (
        lambda r: {"x": _t(r, 5, 4), "gain": _t(r, 4), "bias": _t(r, 4)},
        lambda t: ad.layer_norm(t["x"], t["gain"], t["bias"]),
        ("gain",),
    ),
    "clamp01": (
        lambda r: {"a": Tensor(np.concatenate([r.uniform(-0.5, 1.5, size=8), [0.0, 1.0, -0.0]]))},
        lambda t: ad.clamp01(t["a"]),
        (),
    ),
    "leaky_relu": (lambda r: {"a": _t(r, 5, 3)}, lambda t: ad.leaky_relu(t["a"]), ()),
    "dropout": (
        lambda r: {"a": _t(r, 5, 3)},
        lambda t: ad.dropout(t["a"], 0.5, np.random.default_rng(9)),
        (),
    ),
    "linear": (
        lambda r: {"x": _t(r, 5, 3), "w": _t(r, 3, 2), "b": _t(r, 2)},
        lambda t: ad.linear(t["x"], t["w"], t["b"]),
        ("x", "w"),
    ),
    "conv2d": (
        lambda r: {"x": _t(r, 12, 2), "w": _t(r, 3, 2, 3, 3), "b": _t(r, 3)},
        lambda t: ad.conv2d(t["x"], 3, 4, t["w"], t["b"]),
        ("x", "w"),
    ),
    "depthwise_conv2d": (
        lambda r: {"x": _t(r, 12, 2), "w": _t(r, 2, 3, 3)},
        lambda t: ad.depthwise_conv2d(t["x"], 3, 4, t["w"]),
        ("x", "w"),
    ),
    "gelu": (lambda r: {"a": _t(r, 5, 3)}, lambda t: ad.gelu(t["a"]), ("a",)),
    # u and the weights the backward rebuilds its operands from; a_log and
    # d are kept as exp(a_log) and a stacked copy
    "ssm_recurrence": (_scan_inputs, _scan, ("u",) + tuple(f"{w}{k}" for k in range(2) for w in _SCAN_WEIGHTS)),
    # the projections the scan node rebuilds from u and the shared weights
    "projections": (_projection_inputs, _projected, ("u", "w_dt", "b_dt", "w_b", "w_c")),
    "batch_loss": (lambda r: {"p0": _t(r, 3, 4, 4), "p1": _t(r, 3, 4, 4)}, _loss_of, ()),
}


def _seed_slots(outs, weights):
    """sum(out * weight) over the outputs as one tape node that keeps only
    their gradient slots, so that it frees their data as the model's
    consumers would."""
    slots = [out.slot for out in outs]
    loss = Tensor(sum(np.sum(out.data * w) for out, w in zip(outs, weights)))

    def bw(g):
        for slot, w in zip(slots, weights):
            slot.accumulate(g * w, owned=True)

    ad._record(loss, bw)
    return loss


def _captured(fn):
    """Everything a closure reaches through its cells, nested closures and
    tuples followed, other objects not entered."""
    found, todo = [], [fn]
    while todo:
        obj = todo.pop()
        if callable(obj) and getattr(obj, "__closure__", None) is not None:
            todo.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        else:
            found.append(obj)
    return found


def _replay_op(name, drop):
    """The op's inputs' gradients after one replay; with ``drop``, the
    arrays whose data was freed before the replay, checked before it."""
    make, op, read = _RETENTION[name]
    inputs = make(np.random.default_rng(25))
    slots = {key: t.slot for key, t in inputs.items()}
    with GradTape() as tape:
        outs = op(inputs)
        outs = outs if isinstance(outs, tuple) else (outs,)
        weights = [np.random.default_rng(27 + i).normal(size=out.shape) for i, out in enumerate(outs)]
        loss = _seed_slots(outs, weights)
    if drop:
        freed = {key: weakref.ref(t.data) for key, t in inputs.items() if key not in read}
        freed.update((f"out{i}", weakref.ref(out.data)) for i, out in enumerate(outs) if f"out{i}" not in read)
        del inputs, outs
        assert [key for key, ref in freed.items() if ref() is not None] == []
        held = [obj for replay in tape._ops for obj in _captured(replay)]
        assert not any(isinstance(obj, Tensor) for obj in held)
    backward(loss, tape)
    return {key: slot.grad for key, slot in slots.items()}


@pytest.mark.parametrize("name", list(_RETENTION))
def test_tape_keeps_only_what_each_backward_reads(name):
    got = _replay_op(name, drop=True)
    want = _replay_op(name, drop=False)
    for key in want:
        assert want[key] is not None and np.array_equal(got[key], want[key]), key


def test_scan_node_keeps_no_operand_and_no_workspace_buffer():
    # of the arrays the size of the sequence, the node keeps u's data
    # alone: no (L, K, C) operand and no (L, K, C, N) array; it keeps the
    # seam rows, and nothing that shares the backward's workspace, which
    # the next backward on this thread overwrites
    inputs = _scan_inputs(np.random.default_rng(25))
    with GradTape() as tape:
        y = _scan(inputs)
    held = [obj for replay in tape._ops for obj in _captured(replay) if isinstance(obj, np.ndarray)]
    with tape:
        loss = _seed_slots([y], [np.ones(y.shape)])
    assert any(arr is inputs["u"].data for arr in held)
    assert [arr.shape for arr in held if arr.shape[0] == 300 and arr is not inputs["u"].data] == []
    assert [arr.shape for arr in held if arr.ndim == 4] == [(2, 2, 8, 16)]
    assert [arr.shape for arr in held if np.shares_memory(arr, ssm._workspace.buf)] == []
    backward(loss, tape)
    grads = [t.grad for t in inputs.values()]
    assert all(g is not None for g in grads)
    assert [g.shape for g in grads if np.shares_memory(g, ssm._workspace.buf)] == []
