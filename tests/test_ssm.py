"""State-space kernels: discretization, recurrence vs convolution, the
selective path, and the stage blocks around them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import assert_grads_match, tape_grads
from shadowscan import autodiff as ad
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.errors import ConfigError, ContractError, ShapeError
from shadowscan.ssm import (
    ConvMlp,
    FixedSsmParams,
    SsmDirection,
    SsmStage,
    bidirectional_ssm_block,
    build_kernel,
    conv_mlp,
    discretize,
    selective_scan,
    ssm_conv_form,
    ssm_recurrence,
    zoh_factor,
)

LN2 = float(np.log(2.0))


def _params(a, b, c, d, delta):
    return FixedSsmParams(
        a_diag=np.atleast_1d(np.asarray(a, dtype=float)),
        b_in=np.atleast_1d(np.asarray(b, dtype=float)),
        c_out=np.atleast_1d(np.asarray(c, dtype=float)),
        d=float(d),
        delta=float(delta),
    )


def test_discretize_half_life_step():
    # at A = -1 and a step of ln 2 the state halves and Bbar = B/2
    b = np.array([2.0, -3.0, 0.5])
    abar, bbar = discretize(-np.ones(3), b, LN2)
    assert np.abs(abar - 0.5).max() <= 1e-12
    assert np.abs(bbar - 0.5 * b).max() <= 1e-12


def test_discretize_series_limit():
    # far below the threshold the exact expression degenerates; the limit
    # bbar = delta * b must be returned instead
    a = np.array([-1e-12])
    b = np.array([3.0])
    abar, bbar = discretize(a, b, 1.0)
    assert abar[0] == pytest.approx(1.0, abs=1e-11)
    assert bbar[0] == pytest.approx(3.0, abs=1e-9)


def test_discretize_series_matches_exact_near_threshold():
    # just above the switch the exact branch agrees with the truncated
    # series 1 + u/2 + u^2/6 to well under 1e-9
    for u in (1e-6, -1e-6):
        exact = np.expm1(u) / u
        series = 1.0 + u / 2.0 + u * u / 6.0
        assert abs(exact - series) <= 1e-9
        abar, bbar = discretize(np.array([u]), np.array([1.0]), 1.0)
        assert bbar[0] == pytest.approx(exact, abs=1e-12)


def test_discretize_validation():
    with pytest.raises(ConfigError):
        discretize(np.array([-1.0]), np.array([1.0]), 0.0)
    with pytest.raises(ShapeError):
        discretize(np.array([-1.0]), np.array([1.0, 2.0]), 1.0)


def test_zoh_factor_values_and_grads():
    u = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
    expect = np.expm1(u.data) / u.data
    assert np.allclose(zoh_factor(u).data, expect, atol=1e-14)
    assert_grads_match(zoh_factor, [u])
    # the series branch: value 1, slope 1/2, both matching the limit
    z = Tensor(np.array([0.0]), requires_grad=True)
    assert zoh_factor(z).data[0] == 1.0
    with GradTape() as tape:
        out = ad.sum_all(zoh_factor(z))
    backward(out, tape)
    assert z.grad[0] == pytest.approx(0.5, abs=1e-9)


def test_recurrence_two_step_example():
    # abar 0.5, bbar x = [1, 0], C = 1: y = [1, 1/2]
    abar = Tensor(np.full((2, 1, 1), 0.5))
    bx = Tensor(np.array([1.0, 0.0]).reshape(2, 1, 1))
    cvec = Tensor(np.ones((2, 1)))
    y = ssm_recurrence(abar, bx, cvec)
    assert np.array_equal(y.data, np.array([[1.0], [0.5]]))


def test_recurrence_matches_plain_loop():
    rng = np.random.default_rng(0)
    length, channels, state = 7, 3, 4
    abar = Tensor(rng.uniform(0.1, 0.95, size=(length, channels, state)))
    bx = Tensor(rng.normal(size=(length, channels, state)))
    cvec = Tensor(rng.normal(size=(length, state)))
    y = ssm_recurrence(abar, bx, cvec).data
    h = np.zeros((channels, state))
    for t in range(length):
        h = abar.data[t] * h + bx.data[t]
        assert np.allclose(y[t], h @ cvec.data[t], atol=1e-12)


def test_recurrence_grads():
    rng = np.random.default_rng(1)
    abar = Tensor(rng.uniform(0.2, 0.9, size=(5, 2, 3)), requires_grad=True)
    bx = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
    cvec = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    assert_grads_match(ssm_recurrence, [abar, bx, cvec])


def _frozen_recurrence(a_d, bx_d, c_d, g):
    """The scan and its adjoint as two separate hand-written loops, kept
    verbatim as the bitwise reference: returns y, d_abar, d_bx, d_cvec."""
    length, channels, state = a_d.shape
    hist = np.empty((length, channels, state), dtype=np.float64)
    prev = np.zeros((channels, state), dtype=np.float64)
    for t in range(length):
        h = hist[t]
        np.multiply(a_d[t], prev, out=h)
        h += bx_d[t]
        prev = h
    y = np.einsum("tcn,tn->tc", hist, c_d)
    d_cv = np.einsum("tc,tcn->tn", g, hist)
    d_bx = np.empty_like(bx_d)
    d_ab = np.empty_like(a_d)
    g_col = g[:, :, None]
    c_row = c_d[:, None, :]
    carry = np.zeros((channels, state), dtype=np.float64)
    for t in range(length - 1, -1, -1):
        adj = d_bx[t]
        np.multiply(g_col[t], c_row[t], out=adj)
        adj += carry
        if t > 0:
            np.multiply(adj, hist[t - 1], out=d_ab[t])
        else:
            d_ab[0] = 0.0
        np.multiply(adj, a_d[t], out=carry)
    return y, d_ab, d_bx, d_cv


@st.composite
def _recurrence_case(draw):
    length = draw(st.integers(1, 12))
    channels = draw(st.integers(1, 4))
    state = draw(st.integers(1, 4))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    decay = st.floats(0.0, 1.0, exclude_min=True)
    return (
        draw(arrays(np.float64, (length, channels, state), elements=decay)),
        draw(arrays(np.float64, (length, channels, state), elements=finite)),
        draw(arrays(np.float64, (length, state), elements=finite)),
        draw(arrays(np.float64, (length, channels), elements=finite)),
        draw(st.tuples(st.booleans(), st.booleans(), st.booleans())),
    )


@settings(max_examples=200, deadline=None)
@given(_recurrence_case())
def test_recurrence_bitwise_matches_frozen_loops(case):
    a_d, bx_d, c_d, g, flags = case
    tensors = [Tensor(arr, requires_grad=flag) for arr, flag in zip((a_d, bx_d, c_d), flags)]
    expect = _frozen_recurrence(a_d, bx_d, c_d, g)
    assert np.array_equal(ssm_recurrence(*tensors).data, expect[0])
    if any(flags):
        grads = tape_grads(ssm_recurrence, tensors, g)
        for flag, got, want in zip(flags, grads, expect[1:]):
            assert (got is None) if not flag else np.array_equal(got, want)


def test_recurrence_shape_validation():
    with pytest.raises(ShapeError):
        ssm_recurrence(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ssm_recurrence(
            Tensor(np.ones((3, 1, 2))), Tensor(np.ones((3, 1, 2))), Tensor(np.ones((3, 3)))
        )


def test_kernel_two_tap_example():
    # abar 0.5, bbar 1, C 1: kernel taps (1, 1/2)
    params = _params(-1.0, 2.0, 1.0, 0.0, LN2)
    kern = build_kernel(params, 2)
    assert np.abs(kern.kernel - np.array([1.0, 0.5])).max() <= 1e-12
    y = ssm_conv_form(np.array([1.0, 0.0]), kern, params.d)
    assert np.abs(y.data - np.array([1.0, 0.5])).max() <= 1e-12


def test_kernel_validation():
    params = _params(-1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        build_kernel(params, 0)
    with pytest.raises(ShapeError):
        ssm_conv_form(np.ones((2, 2)), build_kernel(params, 2), 0.0)


def test_direct_term_passthrough():
    # C = 0 with d = 1 leaves the sequence untouched
    params = _params(-1.0, 2.0, 0.0, 1.0, LN2)
    x = Tensor(np.random.default_rng(2).normal(size=11))
    y = selective_scan(x, params)
    assert np.array_equal(y.data, x.data)


def test_conv_form_matches_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 30))
        params = _params(
            -np.exp(rng.normal(size=n)),
            rng.normal(size=n),
            rng.normal(size=n),
            float(rng.normal()),
            float(np.exp(rng.uniform(np.log(0.01), 0.0))),
        )
        x = Tensor(rng.normal(size=length))
        via_conv = ssm_conv_form(x, build_kernel(params, length), params.d)
        via_scan = selective_scan(x, params)
        assert np.abs(via_conv.data - via_scan.data).max() <= 1e-10


def test_conv_form_rejects_selective_params():
    direction = SsmDirection(1, 2, np.random.default_rng(4))
    with pytest.raises(ContractError):
        build_kernel(direction, 8)


def test_selective_direction_init():
    rng = np.random.default_rng(5)
    direction = SsmDirection(3, 4, rng)
    # the decay starts at 0.9 per token at the softplus(0) step size
    dt0 = float(np.log1p(np.exp(0.0)))
    abar0 = np.exp(dt0 * -np.exp(direction.a_log.data))
    assert np.abs(abar0 - 0.9).max() <= 1e-12
    assert np.array_equal(direction.d.data, np.ones(3))
    assert np.array_equal(direction.b_dt.data, np.zeros(3))
    with pytest.raises(ConfigError):
        SsmDirection(0, 4, rng)


def test_selective_scan_channels_must_match():
    rng = np.random.default_rng(6)
    direction = SsmDirection(2, 2, rng)
    with pytest.raises(ShapeError):
        direction.scan(Tensor(rng.normal(size=(5, 3))))
    with pytest.raises(ShapeError):
        selective_scan(Tensor(rng.normal(size=5)), direction)


def test_selective_scan_oracle():
    # recompute the selective path with plain numpy, one token at a time
    rng = np.random.default_rng(7)
    direction = SsmDirection(2, 3, rng)
    x = rng.normal(size=(6, 2))
    y = direction.scan(Tensor(x)).data
    a = -np.exp(direction.a_log.data)
    h = np.zeros((2, 3))
    for t in range(6):
        dt = np.log1p(np.exp(x[t] @ direction.w_dt.data + direction.b_dt.data))
        b_t = x[t] @ direction.w_b.data
        c_t = x[t] @ direction.w_c.data
        da = dt[:, None] * a
        abar = np.exp(da)
        bbar = np.expm1(da) / da * dt[:, None] * b_t[None, :]
        h = abar * h + bbar * x[t][:, None]
        expect = h @ c_t + direction.d.data * x[t]
        assert np.allclose(y[t], expect, atol=1e-10)


def test_selective_scan_grads():
    rng = np.random.default_rng(8)
    direction = SsmDirection(2, 2, rng)
    x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    params = [x, direction.a_log, direction.d, direction.w_dt, direction.b_dt, direction.w_b, direction.w_c]

    def fn(x_, *rest):
        return direction.scan(x_)

    assert_grads_match(fn, params)


def test_silenced_direction_emits_zeros():
    rng = np.random.default_rng(9)
    direction = SsmDirection(2, 3, rng)
    direction.silence()
    y = direction.scan(Tensor(rng.normal(size=(7, 2))))
    assert np.array_equal(y.data, np.zeros((7, 2)))


def test_bidirectional_palindrome_symmetry():
    # with shared parameters a palindromic input gives a palindromic output
    rng = np.random.default_rng(10)
    direction = SsmDirection(2, 2, rng)
    half = rng.normal(size=(4, 2))
    x = Tensor(np.concatenate([half, half[::-1]]))
    gain = Tensor(np.ones(2))
    bias = Tensor(np.zeros(2))
    out = bidirectional_ssm_block(x, direction, direction, gain, bias).data
    assert np.allclose(out, out[::-1], atol=1e-12)


def test_bidirectional_reduces_to_forward_when_backward_silenced():
    rng = np.random.default_rng(11)
    fwd = SsmDirection(3, 2, rng)
    bwd = SsmDirection(3, 2, rng)
    bwd.silence()
    gain = Tensor(np.ones(3))
    bias = Tensor(np.zeros(3))
    x = Tensor(rng.normal(size=(6, 3)))
    out = bidirectional_ssm_block(x, fwd, bwd, gain, bias).data
    u = ad.layer_norm(x, gain, bias)
    expect = x.data + fwd.scan(u).data
    assert np.allclose(out, expect, atol=1e-14)


def test_conv_mlp_identity_parameters():
    # W1 = W2 = I and a delta depthwise kernel reduce the block to
    # x + GELU(x)
    rng = np.random.default_rng(12)
    mlp = ConvMlp(3, 1, 0.0, rng)
    mlp.w1.data[:] = np.eye(3)
    mlp.b1.data[:] = 0.0
    mlp.dw.data[:] = 0.0
    mlp.dw.data[:, 1, 1] = 1.0
    mlp.w2.data[:] = np.eye(3)
    mlp.b2.data[:] = 0.0
    x = Tensor(rng.normal(size=(12, 3)))
    out = conv_mlp(x, mlp, 3, 4)
    expect = x.data + ad.gelu(Tensor(x.data)).data
    assert np.allclose(out.data, expect, atol=1e-14)


def test_conv_mlp_silence_and_validation():
    rng = np.random.default_rng(13)
    mlp = ConvMlp(2, 2, 0.0, rng)
    mlp.silence()
    x = Tensor(rng.normal(size=(6, 2)))
    assert np.array_equal(mlp.forward(x, 2, 3).data, x.data)
    with pytest.raises(ShapeError):
        mlp.forward(x, 2, 2)
    with pytest.raises(ConfigError):
        ConvMlp(2, 0, 0.0, rng)
    with pytest.raises(ConfigError):
        ConvMlp(2, 2, 1.0, rng)


def test_stage_shape_and_silence():
    rng = np.random.default_rng(14)
    stage = SsmStage(4, 3, 2, 0.0, rng)
    x = Tensor(rng.normal(size=(12, 4)))
    out = stage.forward(x, 3, 4)
    assert out.shape == (12, 4)
    stage.silence()
    assert np.array_equal(stage.forward(x, 3, 4).data, x.data)


def test_stage_grads_flow_to_all_params():
    rng = np.random.default_rng(15)
    stage = SsmStage(2, 2, 2, 0.0, rng)
    x = Tensor(rng.normal(size=(6, 2)))
    with GradTape() as tape:
        loss = ad.mean_all(stage.forward(x, 2, 3))
    backward(loss, tape)
    for name, p in stage.named_params():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name
