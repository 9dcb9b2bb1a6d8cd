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

from helpers import assert_grads_match, weighted_sum
from shadowscan import autodiff as ad
from shadowscan import ssm
from shadowscan.autodiff import GradTape, Tensor, backward
from shadowscan.checks import _conv_and_recurrence
from shadowscan.config import ModelConfig
from shadowscan.errors import InputError
from shadowscan.ssm import (
    ZOH_SERIES_THRESHOLD,
    ConvMlp,
    SsmDirection,
    SsmStage,
    Zoh,
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
    with pytest.raises(InputError):
        discretize(np.array([-1.0]), np.array([1.0]), 0.0)
    with pytest.raises(InputError):
        discretize(np.array([-1.0]), np.array([1.0, 2.0]), 1.0)


def test_discretize_runs_the_model_zoh_factor():
    # the checked step and the model's scan share one ZOH factor, series
    # branch included: at step 1, B = 1, x = 1 and d = 0 one token's
    # state is the factor itself, and a one-hot C reads out one state
    channels, state = 1, 4
    a_log = np.array([[-40.0, -19.0, -18.4, 0.5]])
    u = -np.exp(a_log)
    small = np.abs(u) < ZOH_SERIES_THRESHOLD
    assert small.any() and not small.all()
    _, factor = discretize(u.ravel(), np.ones(state), 1.0)
    ones = Tensor(np.ones((1, channels)))
    zoh = Zoh(ones, Tensor(np.ones((1, state))), Tensor(a_log))
    for n in range(state):
        onehot = Tensor(np.eye(state)[n : n + 1])
        y = ssm_recurrence(zoh, onehot, ones, Tensor(np.zeros(channels)))
        assert np.array_equal(y.data, factor[None, n : n + 1])


def test_recurrence_two_step_example():
    # A = -exp(-40) at step 1 takes the series branch: abar rounds to 1
    # and Bbar = dt B exactly, so bx = 0.5 x = [2, 1] and the scan is the
    # running sum [2, 3]; the direct term d x = [4, 2] / 4 adds [1, 1/2]
    zoh = Zoh(Tensor(np.ones((2, 1))), Tensor(np.full((2, 1), 0.5)), Tensor([[-40.0]]))
    y = ssm_recurrence(zoh, Tensor(np.ones((2, 1))), Tensor([[4.0], [2.0]]), Tensor([0.25]))
    assert np.array_equal(y.data, np.array([[3.0], [3.5]]))


def _node(dt, b, a_log, cvec, x, d):
    return ssm_recurrence(Zoh(dt, b, a_log), cvec, x, d)


def _node_operands(rng, length, channels, state):
    return [
        Tensor(rng.uniform(0.1, 1.0, size=(length, channels))),
        Tensor(rng.normal(size=(length, state))),
        Tensor(rng.normal(scale=0.5, size=(channels, state))),
        Tensor(rng.normal(size=(length, state))),
        Tensor(rng.normal(size=(length, channels))),
        Tensor(rng.normal(size=channels)),
    ]


def test_recurrence_matches_plain_loop():
    length, channels, state = 7, 3, 4
    dt, b, a_log, cvec, x, d = (t.data for t in _node_operands(np.random.default_rng(0), length, channels, state))
    y = _node(*map(Tensor, (dt, b, a_log, cvec, x, d))).data
    h = np.zeros((channels, state))
    for t in range(length):
        da = dt[t][:, None] * -np.exp(a_log)
        bbar = np.expm1(da) / da * dt[t][:, None] * b[t]
        h = np.exp(da) * h + bbar * x[t][:, None]
        assert np.allclose(y[t], h @ cvec[t] + x[t] * d, atol=1e-12)


def test_recurrence_grads():
    assert_grads_match(_node, _node_operands(np.random.default_rng(1), 5, 2, 3))


def test_recurrence_shape_validation():
    good = {"dt": (3, 1), "b": (3, 2), "a_log": (1, 2), "cvec": (3, 2), "x": (3, 1), "d": (1,)}
    bad = {"dt": (3, 2), "b": (3, 3), "a_log": (2, 2), "cvec": (3, 3), "x": (3, 2), "d": (2,)}
    for name in good:
        shapes = dict(good, **{name: bad[name]})
        with pytest.raises(InputError):
            _node(*(Tensor(np.ones(shape)) for shape in shapes.values()))
    with pytest.raises(InputError):
        _node(*(Tensor(np.ones(shape)) for shape in dict(good, dt=(3, 1, 1)).values()))


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
    direction = SsmDirection(ModelConfig(channels=3, state_dim=4), rng)
    # the decay starts at 0.9 per token at the softplus(0) step size
    dt0 = float(np.log1p(np.exp(0.0)))
    abar0 = np.exp(dt0 * -np.exp(direction.a_log.data))
    assert np.abs(abar0 - 0.9).max() <= 1e-12
    assert np.array_equal(direction.d.data, np.ones(3))
    assert np.array_equal(direction.b_dt.data, np.zeros(3))
    # ranges are the config's to check, once, when it is built
    with pytest.raises(InputError, match="channels"):
        ModelConfig(channels=0, state_dim=4)


def test_selective_scan_channels_must_match():
    rng = np.random.default_rng(6)
    direction = SsmDirection(ModelConfig(channels=2, state_dim=2), rng)
    with pytest.raises(InputError):
        direction.scan(Tensor(rng.normal(size=(5, 3))))


def test_selective_scan_oracle():
    # recompute the selective path with plain numpy, one token at a time
    rng = np.random.default_rng(7)
    direction = SsmDirection(ModelConfig(channels=2, state_dim=3), rng)
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
    direction = SsmDirection(ModelConfig(channels=2, state_dim=2), rng)
    x = Tensor(rng.normal(size=(5, 2)))
    params = [x, direction.a_log, direction.d, direction.w_dt, direction.b_dt, direction.w_b, direction.w_c]

    def fn(x_, *rest):
        return direction.scan(x_)

    assert_grads_match(fn, params)


# The scan as the three tape closures it was recorded as before the
# discretization, the recurrence and the output became one node, kept
# verbatim as the bitwise reference: the discretization node, the
# recurrence with its direct term, and the closure that rebuilt abar.
# Only their argument checks are left out.


def _frozen_zoh_terms(u):
    small = np.abs(u) < ZOH_SERIES_THRESHOLD
    safe = np.where(small, 1.0, u)
    em1 = np.expm1(safe)
    factor = em1 / safe
    np.copyto(factor, 1.0, where=small)
    return factor, small, safe, em1


def _frozen_linear_recurrence(coef, x):
    for a, prev, cur in zip(coef, x, x[1:]):
        cur += a * prev


def _frozen_row_blocks(length, channels, state):
    rows = max(1, ssm._BLOCK_BYTES // (8 * channels * state))
    return [slice(start, start + rows) for start in range(0, length, rows)]


def _frozen_recurrence(abar, bx, cvec, x, d):
    length, channels, state = abar.shape
    c_d, hist = cvec.data, bx.data
    _frozen_linear_recurrence(abar.data[1:], hist)
    y = np.einsum("tcn,tn->tc", hist, c_d)
    y += x.data * d.data
    out = Tensor(y)

    def bw(g):
        x.accumulate(g * d.data, owned=True)
        d.accumulate((g * x.data).sum(axis=0))
        a_d = abar.data
        d_cv = np.einsum("tc,tcn->tn", g, hist)
        adj = g[:, :, None] * c_d[:, None, :]
        _frozen_linear_recurrence(a_d[:0:-1], adj[::-1])
        d_ab = np.empty_like(adj)
        d_ab[0] = 0.0
        np.multiply(adj[1:], hist[:-1], out=d_ab[1:])
        abar.accumulate(d_ab, owned=True)
        bx.accumulate(adj, owned=True)
        cvec.accumulate(d_cv)

    ad._record(out, bw)
    return out


def _frozen_discretized_inputs(x, a_log, w_dt, b_dt, w_b, w_c):
    xd = x.data
    logits = xd @ w_dt.data + b_dt.data
    dt = np.logaddexp(0.0, logits)
    b_proj = xd @ w_b.data
    exp_a = np.exp(a_log.data)
    neg_a = -exp_a
    dt3 = dt[:, :, None]
    b3 = b_proj[:, None, :]
    x3 = xd[:, :, None]
    length, channels = xd.shape
    blocks = _frozen_row_blocks(length, channels, exp_a.shape[1])
    abar_d = np.empty((length,) + exp_a.shape)
    bx_d = np.empty_like(abar_d)
    for rows in blocks:
        da = np.multiply(dt3[rows], neg_a, out=abar_d[rows])
        factor = _frozen_zoh_terms(da)[0]
        factor *= dt3[rows] * b3[rows]
        np.multiply(factor, x3[rows], out=bx_d[rows])
        np.exp(da, out=da)
    abar = Tensor(abar_d)
    bx = Tensor(bx_d)
    cvec = Tensor(xd @ w_c.data)
    tape = ad.active_tape()
    if tape is None:
        return abar, bx, cvec, None

    def rebuild_abar():
        da = np.multiply(dt3, neg_a)
        abar.data = np.exp(da, out=da)

    def replay():
        g_ab, g_bx, g_c = abar.grad, bx.grad, cvec.grad
        if g_ab is None:
            return
        a_d = abar.data
        d_x = np.empty_like(xd)
        d_dt = np.empty_like(dt)
        d_b = np.empty_like(b_proj)
        for rows in blocks:
            dt_r, b_r = dt3[rows], b3[rows]
            factor, small, safe, em1 = _frozen_zoh_terms(dt_r * neg_a)
            der = np.multiply(safe, a_d[rows])
            der -= em1
            safe *= safe
            der /= safe
            np.copyto(der, 0.5, where=small)
            step_b = np.multiply(dt_r, b_r, out=safe)
            bbar = np.multiply(factor, step_b, out=em1)
            g_bx_r = g_bx[rows]
            np.multiply(g_bx_r, bbar, out=bbar).sum(axis=2, out=d_x[rows])
            g_bbar = np.multiply(g_bx_r, x3[rows], out=g_bx_r)
            g_da = np.multiply(g_bbar, step_b, out=bbar)
            g_step_b = np.multiply(g_bbar, factor, out=g_bx_r)
            g_da *= der
            np.multiply(g_step_b, b_r, out=der).sum(axis=2, out=d_dt[rows])
            g_step_b *= dt_r
            g_step_b.sum(axis=1, out=d_b[rows])
            g_ab_r = g_ab[rows]
            g_ab_r *= a_d[rows]
            g_da += g_ab_r
            d_dt[rows] += np.multiply(g_da, neg_a, out=der).sum(axis=2)
            np.multiply(g_da, dt_r, out=g_ab_r)
        x.accumulate(d_x, owned=True)
        a_log.accumulate(-g_ab.sum(axis=0) * exp_a)
        for grad, w in ((g_c, w_c), (d_b, w_b)):
            x.accumulate(grad @ w.data.T)
            w.accumulate(xd.T @ grad)
        d_logits = d_dt * special.expit(logits)
        b_dt.accumulate(d_logits.sum(axis=0))
        x.accumulate(d_logits @ w_dt.data.T)
        w_dt.accumulate(xd.T @ d_logits)

    tape.record(replay)
    return abar, bx, cvec, rebuild_abar


def _frozen_scan(x, p):
    abar, bx, cvec, rebuild_abar = _frozen_discretized_inputs(x, p["a_log"], p["w_dt"], p["b_dt"], p["w_b"], p["w_c"])
    y = _frozen_recurrence(abar, bx, cvec, x, p["d"])
    if rebuild_abar is not None:
        abar.data = None
        ad.active_tape().record(rebuild_abar)
    return y


_PARAMS = ("a_log", "d", "w_dt", "b_dt", "w_b", "w_c")


@st.composite
def _scan_case(draw):
    length = draw(st.integers(1, 12))
    channels = draw(st.integers(1, 4))
    state = draw(st.integers(1, 4))
    unit = st.floats(-2.0, 2.0, allow_nan=False)
    shapes = {
        "x": (length, channels),
        "prior": (length, channels),
        "weight": (length, channels),
        "a_log": (channels, state),
        "d": (channels,),
        "w_dt": (channels, channels),
        "b_dt": (channels,),
        "w_b": (channels, state),
        "w_c": (channels, state),
    }
    case = {name: draw(arrays(np.float64, shape, elements=unit)) for name, shape in shapes.items()}
    # every step of a channel whose b_dt is offset by -45 is below e^-27,
    # so all its |dt A| are under the series threshold; offset by +3,
    # every step is above e^-15 and none are
    case["b_dt"] += draw(arrays(np.float64, (channels,), elements=st.sampled_from([3.0, -45.0])))
    return case


def _scan_and_grads(case, scan, prior):
    """y, x.grad and the six parameter gradients of sum(y * weight),
    with x already holding the prior gradient, if any, at replay."""
    x = Tensor(case["x"])
    params = {name: Tensor(case[name]) for name in _PARAMS}
    with GradTape() as tape:
        y = scan(x, params)
        loss = weighted_sum(y, case["weight"])
    if prior:
        x.accumulate(case["prior"])
    backward(loss, tape)
    return [y.data, x.grad] + [params[name].grad for name in _PARAMS]


def _direction_scan(x, p):
    channels, state = p["w_b"].shape
    direction = SsmDirection(ModelConfig(channels=channels, state_dim=state), np.random.default_rng(0))
    for name in _PARAMS:
        setattr(direction, name, p[name])
    return direction.scan(x)


@settings(max_examples=300)
@given(_scan_case(), st.integers(1, 3), st.booleans())
def test_scan_node_bitwise_matches_frozen_closures(case, rows, prior):
    # row blocks of 1-3 rows over up to 12 tokens: ragged last blocks,
    # seams every 1-3 rows, and blocks that mix the series and exact branches
    channels, state = case["w_b"].shape
    with mock.patch.object(ssm, "_BLOCK_BYTES", rows * 8 * channels * state):
        assert len(ssm._row_blocks(len(case["x"]), channels, state)) == -(-len(case["x"]) // rows)
        untaped = _direction_scan(Tensor(case["x"]), {name: Tensor(case[name]) for name in _PARAMS})
        got = _scan_and_grads(case, _direction_scan, prior)
        want = _scan_and_grads(case, _frozen_scan, prior)
    assert np.array_equal(untaped.data, want[0])
    for name, g, w in zip(["y", "x"] + list(_PARAMS), got, want):
        assert np.array_equal(g, w), name


_FULL_SIZE = (1024, 32, 16)


def _full_size_direction():
    length, channels, state = _FULL_SIZE
    rng = np.random.default_rng(17)
    direction = SsmDirection(ModelConfig(channels=channels, state_dim=state), rng)
    return direction, Tensor(rng.normal(size=(length, channels)))


def _traced(fn):
    """fn's result, and the bytes it left allocated and its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_scan_records_two_closures_and_holds_no_chain():
    # at full size one direction used to hold about eight (L, C, N)
    # arrays on the tape (34.8 MB); the projections keep (L, C) and (L, N)
    # arrays, and the scan node keeps one (C, N) state row per block seam,
    # no (L, C, N) array (1.13 MB held; 5.26 MB while it kept the 4.2 MB
    # state history, 10.0 MB while abar was held as well)
    direction, x = _full_size_direction()
    tape = GradTape()
    with tape:
        y, held, _ = _traced(lambda: direction.scan(x))
    assert y.shape == (1024, 32)
    # the projections, and the scan node with its direct term
    assert len(tape._ops) == 2
    assert held <= 1.5e6, held


# The scan's (L, C, N) temporaries are row blocks of about 256 KB; the
# peaks below were 10.1, 10.1 and 16.1 MB while abar, bx, the adjoint and
# abar's gradient were full-size arrays.


def test_full_size_untaped_forward_peaks_at_most_3_5_mb():
    # no (L, C, N) array at all: 2.48 MB measured
    direction, x = _full_size_direction()
    _, _, peak = _traced(lambda: direction.scan(x))
    assert peak <= 3.5e6, peak


def test_full_size_taped_forward_peaks_at_most_3_5_mb():
    # the block buffers and the seams: 2.54 MB measured (6.67 MB while the
    # forward wrote the 4.2 MB state history)
    direction, x = _full_size_direction()
    with GradTape():
        _, _, peak = _traced(lambda: direction.scan(x))
    assert peak <= 3.5e6, peak


def test_full_size_replay_peaks_at_most_11_5_mb():
    # what the taped forward leaves plus the backward's peak beyond it: the
    # backward rebuilds each block's history and sums a_log's terms in an
    # (L, C, N) array of its own, 9.17 MB measured (8.58 MB while the tape
    # held the history and the backward wrote those terms into it)
    direction, x = _full_size_direction()
    tape = GradTape()
    tracemalloc.start()
    try:
        with tape:
            loss = weighted_sum(direction.scan(x), np.ones(x.shape))
        tracemalloc.reset_peak()
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and direction.a_log.grad is not None
    assert peak <= 11.5e6, peak


def test_silenced_direction_emits_zeros():
    rng = np.random.default_rng(9)
    direction = SsmDirection(ModelConfig(channels=2, state_dim=3), rng)
    direction.silence()
    y = direction.scan(Tensor(rng.normal(size=(7, 2))))
    assert np.array_equal(y.data, np.zeros((7, 2)))


def _scan_only_stage(channels, rng):
    """A stage whose conv MLP is silenced, so it is exactly the identity
    and the stage's output is its bidirectional scan with the residual."""
    stage = SsmStage(ModelConfig(channels=channels, state_dim=2), rng)
    stage.mlp.silence()
    return stage


def test_bidirectional_palindrome_symmetry():
    # with shared parameters a palindromic input gives a palindromic output
    rng = np.random.default_rng(10)
    stage = _scan_only_stage(2, rng)
    stage.bwd = stage.fwd
    half = rng.normal(size=(4, 2))
    x = Tensor(np.concatenate([half, half[::-1]]))
    out = stage.forward(x, 2, 4).data
    assert np.allclose(out, out[::-1], atol=1e-12)


def test_bidirectional_reduces_to_forward_when_backward_silenced():
    rng = np.random.default_rng(11)
    stage = _scan_only_stage(3, rng)
    stage.bwd.silence()
    x = Tensor(rng.normal(size=(6, 3)))
    out = stage.forward(x, 2, 3).data
    u = ad.layer_norm(x, stage.ln_gain, stage.ln_bias)
    expect = x.data + stage.fwd.scan(u).data
    assert np.allclose(out, expect, atol=1e-14)


def test_conv_mlp_identity_parameters():
    # W1 = W2 = I and a delta depthwise kernel reduce the block to
    # x + GELU(x)
    rng = np.random.default_rng(12)
    mlp = ConvMlp(ModelConfig(channels=3, expansion=1), rng)
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
    mlp = ConvMlp(ModelConfig(channels=2), rng)
    mlp.silence()
    x = Tensor(rng.normal(size=(6, 2)))
    assert np.array_equal(mlp.forward(x, 2, 3).data, x.data)
    with pytest.raises(InputError):
        mlp.forward(x, 2, 2)
    with pytest.raises(InputError, match="expansion"):
        ModelConfig(channels=2, expansion=0)
    with pytest.raises(InputError, match="dropout"):
        ModelConfig(channels=2, dropout=1.0)


def test_stage_shape_and_silence():
    rng = np.random.default_rng(14)
    stage = SsmStage(ModelConfig(channels=4, state_dim=3), rng)
    x = Tensor(rng.normal(size=(12, 4)))
    out = stage.forward(x, 3, 4)
    assert out.shape == (12, 4)
    stage.silence()
    assert np.array_equal(stage.forward(x, 3, 4).data, x.data)


def test_stage_grads_flow_to_all_params():
    rng = np.random.default_rng(15)
    stage = SsmStage(ModelConfig(channels=2, state_dim=2), rng)
    x = Tensor(rng.normal(size=(6, 2)))
    with GradTape() as tape:
        loss = weighted_sum(stage.forward(x, 2, 3), np.ones(x.shape))
    backward(loss, tape)
    for name, p in stage.named_params():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name
