"""State-space kernels: discretization, recurrence vs convolution, the
selective path, and the stage blocks around them."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from helpers import assert_grads_match, tape_grads
from shadowscan import autodiff as ad
from shadowscan import ssm
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.checks import _conv_and_recurrence
from shadowscan.errors import ConfigError, ContractError, ShapeError
from shadowscan.ssm import (
    ZOH_SERIES_THRESHOLD,
    ConvMlp,
    SsmDirection,
    SsmStage,
    _discretized_inputs,
    bidirectional_ssm_block,
    discretize,
    ssm_recurrence,
)

LN2 = float(np.log(2.0))


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


def test_discretize_runs_the_model_zoh_factor():
    # the checked step and the model's scan share one ZOH factor, series
    # branch included: at step 1 and B = 1 discretize returns the factor
    # itself, and the scan's abar and bx are built from it bitwise
    rng = np.random.default_rng(16)
    direction = SsmDirection(3, 4, rng)
    direction.a_log.data[0] = [-40.0, -19.0, -18.4, 0.5]
    x = rng.normal(size=(6, 3))
    params = (direction.a_log, direction.w_dt, direction.b_dt, direction.w_b, direction.w_c)
    abar, bx, _, _ = _discretized_inputs(Tensor(x), *params)
    dt = np.logaddexp(0.0, x @ direction.w_dt.data + direction.b_dt.data)[:, :, None]
    da = dt * -np.exp(direction.a_log.data)
    small = np.abs(da) < ZOH_SERIES_THRESHOLD
    assert small.any() and not small.all()
    exp_da, factor = discretize(da.ravel(), np.ones(da.size), 1.0)
    assert np.array_equal(abar.data, exp_da.reshape(da.shape))
    step_b = dt * (x @ direction.w_b.data)[:, None, :]
    assert np.array_equal(bx.data, factor.reshape(da.shape) * step_b * x[:, :, None])


def test_recurrence_two_step_example():
    # abar 0.5, bbar x = [1, 0], C = 1: the scan gives [1, 1/2], and the
    # direct term d x = [4, 2] / 4 adds [1, 1/2]
    abar = Tensor(np.full((2, 1, 1), 0.5))
    bx = Tensor(np.array([1.0, 0.0]).reshape(2, 1, 1))
    cvec = Tensor(np.ones((2, 1)))
    y = ssm_recurrence(abar, bx, cvec, Tensor([[4.0], [2.0]]), Tensor([0.25]))
    assert np.array_equal(y.data, np.array([[2.0], [1.0]]))


def _fresh_bx_recurrence(abar, bx, cvec, x, d):
    """ssm_recurrence on an exact copy of bx, since the scan consumes its
    bx; the copy's backward routes the gradient to bx unchanged."""
    copy = Tensor(bx.data.copy(), bx.requires_grad)
    ad._record(copy, bx.accumulate)
    return ssm_recurrence(abar, copy, cvec, x, d)


def _recurrence_operands(rng, length, channels, state):
    return [
        Tensor(rng.uniform(0.1, 0.95, size=(length, channels, state)), requires_grad=True),
        Tensor(rng.normal(size=(length, channels, state)), requires_grad=True),
        Tensor(rng.normal(size=(length, state)), requires_grad=True),
        Tensor(rng.normal(size=(length, channels)), requires_grad=True),
        Tensor(rng.normal(size=channels), requires_grad=True),
    ]


def test_recurrence_matches_plain_loop():
    length, channels, state = 7, 3, 4
    abar, bx, cvec, x, d = _recurrence_operands(np.random.default_rng(0), length, channels, state)
    y = _fresh_bx_recurrence(abar, bx, cvec, x, d).data
    h = np.zeros((channels, state))
    for t in range(length):
        h = abar.data[t] * h + bx.data[t]
        assert np.allclose(y[t], h @ cvec.data[t] + x.data[t] * d.data, atol=1e-12)


def test_recurrence_grads():
    assert_grads_match(_fresh_bx_recurrence, _recurrence_operands(np.random.default_rng(1), 5, 2, 3))


def _frozen_recurrence(a_d, bx_d, c_d, g):
    """The scan and its adjoint as two separate hand-written loops, kept
    verbatim as the bitwise reference: returns y, d_abar, d_bx, d_cvec
    and the state history."""
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
    return y, d_ab, d_bx, d_cv, hist


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
        draw(arrays(np.float64, (length, channels), elements=finite)),
        draw(arrays(np.float64, (channels,), elements=finite)),
        draw(st.tuples(*[st.booleans()] * 5)),
    )


@settings(max_examples=200, deadline=None)
@given(_recurrence_case())
def test_recurrence_bitwise_matches_frozen_loops(case):
    # the direct term against the replaced mul's forward and gradients
    a_d, bx_d, c_d, g, x_d, d_d, flags = case
    tensors = [Tensor(arr, requires_grad=flag) for arr, flag in zip((a_d, bx_d, c_d, x_d, d_d), flags)]
    y, d_ab, d_bx, d_cv, _ = _frozen_recurrence(a_d, bx_d, c_d, g)
    assert np.array_equal(_fresh_bx_recurrence(*tensors).data, y + x_d * d_d)
    if any(flags):
        grads = tape_grads(_fresh_bx_recurrence, tensors, g)
        for flag, got, want in zip(flags, grads, (d_ab, d_bx, d_cv, g * d_d, (g * x_d).sum(axis=0))):
            assert (got is None) if not flag else np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(_recurrence_case(), st.data())
def test_recurrence_consumes_bx_and_hands_its_gradients_over(case, data):
    a_d, bx_d, c_d, g, x_d, d_d, _ = case
    y_want, d_ab, d_bx, d_cv, hist = _frozen_recurrence(a_d, bx_d, c_d, g)
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    priors = [data.draw(arrays(np.float64, a_d.shape, elements=finite)) for _ in range(2)]
    for prior in (None, priors):
        abar = Tensor(a_d, requires_grad=True)
        bx = Tensor(bx_d.copy(), requires_grad=True)
        cvec = Tensor(c_d, requires_grad=True)
        with GradTape() as tape:
            y = ssm_recurrence(abar, bx, cvec, Tensor(x_d), Tensor(d_d))
            loss = ad.mean_all(ad.mul(y, Tensor(g)))
        # the forward ran in place: bx now holds the state history
        assert np.array_equal(bx.data, hist)
        assert np.array_equal(y.data, y_want + x_d * d_d)
        if prior is not None:
            abar.accumulate(prior[0])
            bx.accumulate(prior[1])
        backward(loss, tape, seed=g.size)
        if prior is None:
            assert np.array_equal(abar.grad, d_ab) and np.array_equal(bx.grad, d_bx)
            assert not np.shares_memory(abar.grad, bx.grad)
        else:
            assert np.array_equal(abar.grad, prior[0] + d_ab)
            assert np.array_equal(bx.grad, prior[1] + d_bx)
        assert np.array_equal(cvec.grad, d_cv)


def test_recurrence_rejects_a_bx_sharing_memory_with_its_operands():
    # abar, cvec, x and d in turn are views of bx's buffer
    bx = np.full((3, 1, 2), 0.5)
    operands = [np.full((3, 1, 2), 0.5), np.ones((3, 2)), np.ones((3, 1)), np.ones(1)]
    views = [bx, bx[:, 0], bx[:, :, 0], bx[0, :, 0]]
    for i, view in enumerate(views):
        abar, cvec, x, d = (Tensor(view if j == i else a) for j, a in enumerate(operands))
        with pytest.raises(ContractError):
            ssm_recurrence(abar, Tensor(bx), cvec, x, d)


def test_recurrence_shape_validation():
    good = {"abar": (3, 1, 2), "bx": (3, 1, 2), "cvec": (3, 2), "x": (3, 1), "d": (1,)}
    bad = {"abar": (3, 2), "bx": (3, 2, 2), "cvec": (3, 3), "x": (3, 2), "d": (2,)}
    for name in good:
        shapes = dict(good, **{name: bad[name]})
        with pytest.raises(ShapeError):
            ssm_recurrence(*(Tensor(np.ones(shape)) for shape in shapes.values()))


def _one(value):
    return np.array([value], dtype=float)


def test_kernel_two_tap_example():
    # abar 0.5, bbar 1, C 1: kernel taps (1, 1/2), so the impulse response
    # is (1, 1/2) by either form
    y_conv, y_rec = _conv_and_recurrence(_one(-1.0), _one(2.0), _one(1.0), 0.0, LN2, np.array([1.0, 0.0]))
    assert np.abs(y_conv - np.array([1.0, 0.5])).max() <= 1e-12
    assert np.abs(y_rec - np.array([1.0, 0.5])).max() <= 1e-12


def test_direct_term_passthrough():
    # C = 0 with d = 1 leaves the sequence untouched
    x = np.random.default_rng(2).normal(size=11)
    y_conv, y_rec = _conv_and_recurrence(_one(-1.0), _one(2.0), _one(0.0), 1.0, LN2, x)
    assert np.array_equal(y_rec, x)
    assert np.array_equal(y_conv, x)


def test_conv_form_matches_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 30))
        a = -np.exp(rng.normal(size=n))
        b = rng.normal(size=n)
        c = rng.normal(size=n)
        d = float(rng.normal())
        delta = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
        x = rng.normal(size=length)
        via_conv, via_scan = _conv_and_recurrence(a, b, c, d, delta, x)
        assert np.abs(via_conv - via_scan).max() <= 1e-10


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


def _frozen_op(x, value, slope):
    """One taped elementwise op of the replaced chain: value, and the
    local derivative its backward multiplies the cotangent by."""
    out = Tensor(value, x.requires_grad)
    ad._record(out, lambda g: x.accumulate(g * slope()))
    return out


# The broadcasting arithmetic and the matmul the chain was recorded with,
# kept verbatim; linear was matmul then add.


def _frozen_unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _frozen_add(a, b):
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bw(g):
        if a.requires_grad:
            a.accumulate(_frozen_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_frozen_unbroadcast(g, b.data.shape))

    ad._record(out, bw)
    return out


def _frozen_mul(a, b):
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def bw(g):
        if a.requires_grad:
            a.accumulate(_frozen_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_frozen_unbroadcast(g * a.data, b.data.shape))

    ad._record(out, bw)
    return out


def _frozen_matmul(a, b):
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def bw(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    ad._record(out, bw)
    return out


def _frozen_reshape(x, shape):
    """The reshape op the chain was recorded with, kept verbatim."""
    out = Tensor(x.data.reshape(shape), x.requires_grad)

    def bw(g):
        x.accumulate(g.reshape(x.data.shape))

    ad._record(out, bw)
    return out


def _frozen_zoh_factor(u):
    small = np.abs(u.data) < ZOH_SERIES_THRESHOLD
    safe = np.where(small, 1.0, u.data)
    factor = np.where(small, 1.0, np.expm1(safe) / safe)
    return _frozen_op(
        u, factor, lambda: np.where(small, 0.5, (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe))
    )


def _frozen_chain(x, a_log, w_dt, b_dt, w_b, w_c):
    """The scan's discretization as the 17 single tape ops it was recorded
    as before it became one node, kept verbatim as the bitwise reference."""
    length, channels = x.shape
    state = w_b.shape[1]
    lin = _frozen_add(_frozen_matmul(x, w_dt), b_dt)
    dt = _frozen_op(lin, np.logaddexp(0.0, lin.data), lambda: special.expit(lin.data))
    b_t = _frozen_matmul(x, w_b)
    c_t = _frozen_matmul(x, w_c)
    exp_a = np.exp(a_log.data)
    e = _frozen_op(a_log, exp_a, lambda: exp_a)
    a = _frozen_op(e, -e.data, lambda: -1.0)
    da = _frozen_mul(_frozen_reshape(dt, (length, channels, 1)), a)
    abar_d = np.exp(da.data)
    abar = _frozen_op(da, abar_d, lambda: abar_d)
    step_b = _frozen_mul(_frozen_reshape(dt, (length, channels, 1)), _frozen_reshape(b_t, (length, 1, state)))
    bbar = _frozen_mul(_frozen_zoh_factor(da), step_b)
    bx = _frozen_mul(bbar, _frozen_reshape(x, (length, channels, 1)))
    return abar, bx, c_t


@st.composite
def _scan_case(draw):
    length = draw(st.integers(1, 9))
    channels = draw(st.integers(1, 4))
    state = draw(st.integers(1, 4))
    unit = st.floats(-2.0, 2.0, allow_nan=False)
    # far below the init range |dt A| < 1e-8 takes the series branch
    a_log = st.one_of(st.floats(-3.0, 2.0), st.floats(-45.0, -19.0))
    shapes = {
        "x": (length, channels),
        "prior": (length, channels),
        "weight": (length, channels),
        "d": (channels,),
        "w_dt": (channels, channels),
        "b_dt": (channels,),
        "w_b": (channels, state),
        "w_c": (channels, state),
    }
    case = {name: draw(arrays(np.float64, shape, elements=unit)) for name, shape in shapes.items()}
    case["a_log"] = draw(arrays(np.float64, (channels, state), elements=a_log))
    return case


_PARAMS = ("a_log", "d", "w_dt", "b_dt", "w_b", "w_c")


def _scan_and_grads(case, scan):
    """y, x.grad and the six parameter gradients of sum(y * weight), with
    x already holding the prior gradient when the tape replays."""
    x = Tensor(case["x"], requires_grad=True)
    params = {name: Tensor(case[name], requires_grad=True) for name in _PARAMS}
    with GradTape() as tape:
        y = scan(x, params)
        loss = ad.mean_all(ad.mul(y, Tensor(case["weight"])))
    x.accumulate(case["prior"])
    backward(loss, tape, seed=case["weight"].size)
    return [y.data, x.grad] + [params[name].grad for name in _PARAMS]


def _direction_scan(x, p):
    channels, state = p["w_b"].shape
    direction = SsmDirection(channels, state, np.random.default_rng(0))
    for name in _PARAMS:
        setattr(direction, name, p[name])
    return direction.scan(x)


def _frozen_scan(x, p):
    abar, bx, c_t = _frozen_chain(x, p["a_log"], p["w_dt"], p["b_dt"], p["w_b"], p["w_c"])
    # the recurrence without its direct term: adding x * d = -0.0 changes
    # no value, so the frozen ops add the direct term as they did
    no_direct = Tensor(np.full(x.shape, -0.0)), Tensor(np.zeros(x.shape[1]))
    return _frozen_add(ssm_recurrence(abar, bx, c_t, *no_direct), _frozen_mul(x, p["d"]))


@settings(max_examples=200, deadline=None)
@given(_scan_case(), st.integers(1, 3))
def test_discretization_node_bitwise_matches_frozen_chain(case, rows):
    # row blocks of 1-3 rows over up to 9 tokens: ragged last blocks, and
    # blocks that mix the series and exact branches
    channels, state = case["w_b"].shape
    with mock.patch.object(ssm, "_BLOCK_BYTES", rows * 8 * channels * state):
        assert len(ssm._row_blocks(len(case["x"]), channels, state)) == -(-len(case["x"]) // rows)
        inputs = [Tensor(case[name]) for name in ("x", "a_log", "w_dt", "b_dt", "w_b", "w_c")]
        abar, bx, cvec, _ = _discretized_inputs(*inputs)
        for got, want in zip((abar, bx, cvec), _frozen_chain(*inputs)):
            assert np.array_equal(got.data, want.data)
        got = _scan_and_grads(case, _direction_scan)
    want = _scan_and_grads(case, _frozen_scan)
    for name, g, w in zip(["y", "x"] + list(_PARAMS), got, want):
        assert np.array_equal(g, w), name


def test_scan_records_three_closures_and_holds_no_chain():
    # at full size one direction used to hold about eight (L, C, N)
    # arrays on the tape (34.8 MB); the node keeps (L, C) and (L, N)
    # inputs, the recurrence keeps its history in bx's buffer, and abar
    # is dropped until its rebuild replays, so the 4.2 MB history is the
    # one (L, C, N) array left (5.8 MB held; 10.0 MB while abar was held,
    # 14.2 MB when the history was a copy beside bx)
    rng = np.random.default_rng(17)
    direction = SsmDirection(32, 16, rng)
    x = Tensor(rng.normal(size=(1024, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            y = direction.scan(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.shape == (1024, 32)
    # the node, the recurrence with its direct term, the abar rebuild
    assert len(tape._ops) == 3
    assert held <= 6.5e6, held


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
    out = mlp.forward(x, 3, 4)
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
