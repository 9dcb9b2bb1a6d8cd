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
from shadowscan.blocks import ShadowNet
from shadowscan.checks import _conv_form, _scan_node
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
from shadowscan.train import make_toy_pairs

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
    ones = Tensor(np.ones((1, 1, channels)))
    zoh = Zoh(ones, Tensor(np.ones((1, 1, state))), Tensor(a_log[None]), ones)
    for n in range(state):
        onehot = Tensor(np.eye(state)[None, n : n + 1])
        y = ssm_recurrence(zoh, onehot, ones, Tensor(np.zeros((1, channels))))
        assert np.array_equal(y.data, factor[None, n : n + 1])


def test_recurrence_two_step_example():
    # A = -exp(-40) at step 1 takes the series branch: abar rounds to 1
    # and Bbar = dt B exactly, so bx = 0.5 x = [2, 1] and the scan is the
    # running sum [2, 3]; the direct term d x = [4, 2] / 4 adds [1, 1/2]
    zoh = Zoh(Tensor(np.ones((2, 1, 1))), Tensor(np.full((2, 1, 1), 0.5)), Tensor([[[-40.0]]]), Tensor([[[4.0]], [[2.0]]]))
    y = ssm_recurrence(zoh, Tensor(np.ones((2, 1, 1))), zoh.x, Tensor([[0.25]]))
    assert np.array_equal(y.data, np.array([[3.0], [3.5]]))


def _node(dt, b, a_log, cvec, x, d):
    return ssm_recurrence(Zoh(dt, b, a_log, x), cvec, x, d)


def _node_operands(rng, length, k_dirs, channels, state):
    return [
        Tensor(rng.uniform(0.1, 1.0, size=(length, k_dirs, channels))),
        Tensor(rng.normal(size=(length, k_dirs, state))),
        Tensor(rng.normal(scale=0.5, size=(k_dirs, channels, state))),
        Tensor(rng.normal(size=(length, k_dirs, state))),
        Tensor(rng.normal(size=(length, k_dirs, channels))),
        Tensor(rng.normal(size=(k_dirs, channels))),
    ]


def test_recurrence_matches_plain_loop():
    # two directions: the second scans its tokens from the end, and its
    # output is added back in token order
    length, k_dirs, channels, state = 7, 2, 3, 4
    ops = [t.data for t in _node_operands(np.random.default_rng(0), length, k_dirs, channels, state)]
    y = _node(*map(Tensor, ops)).data
    want = np.zeros((length, channels))
    for k, order in enumerate((range(length), range(length - 1, -1, -1))):
        dt, b, cvec, x = (ops[i][:, k] for i in (0, 1, 3, 4))
        a_log, d = ops[2][k], ops[5][k]
        h = np.zeros((channels, state))
        for step, t in enumerate(order):
            da = dt[step][:, None] * -np.exp(a_log)
            bbar = np.expm1(da) / da * dt[step][:, None] * b[step]
            h = np.exp(da) * h + bbar * x[step][:, None]
            want[t] += h @ cvec[step] + x[step] * d
    assert np.allclose(y, want, atol=1e-12)


def test_recurrence_grads():
    for k_dirs in (1, 2):
        assert_grads_match(_node, _node_operands(np.random.default_rng(1), 5, k_dirs, 2, 3))


def test_recurrence_shape_validation():
    good = {"dt": (3, 2, 1), "b": (3, 2, 2), "a_log": (2, 1, 2), "cvec": (3, 2, 2), "x": (3, 2, 1), "d": (2, 1)}
    bad = {"dt": (3, 2, 2), "b": (3, 2, 3), "a_log": (2, 2, 2), "cvec": (3, 2, 3), "x": (3, 2, 2), "d": (2, 2)}
    for name in good:
        shapes = dict(good, **{name: bad[name]})
        with pytest.raises(InputError):
            _node(*(Tensor(np.ones(shape)) for shape in shapes.values()))
    # 2-D steps, and a third direction
    for dt in ((3, 1), (3, 3, 1)):
        with pytest.raises(InputError):
            _node(*(Tensor(np.ones(shape)) for shape in dict(good, dt=dt).values()))


def _one(value):
    return np.array([value], dtype=float)


def _conv_and_recurrence(*scan):
    """One token-invariant single-channel scan by its convolution form and
    by the model's scan node."""
    return _conv_form(*scan), _scan_node(scan)[0]


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

    def draw(n, length):
        a = -np.exp(rng.normal(size=n))
        delta = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
        return a, rng.normal(size=n), rng.normal(size=n), float(rng.normal()), delta, rng.normal(size=length)

    for _ in range(10):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 30))
        first, second = draw(n, length), draw(n, length)
        via_conv, via_scan = _conv_and_recurrence(*first)
        assert np.abs(via_conv - via_scan).max() <= 1e-10
        # two unrelated directions in one node, each against its own form
        for scan, y in zip((first, second), _scan_node(first, second)):
            assert np.abs(_conv_form(*scan) - y).max() <= 1e-10


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


# The two-direction chain as a stage recorded it before both directions
# became one node: per direction a projections node and a scan node, the
# token reversal and its undoing as row gathers, and two adds. The two
# nodes and the helpers they call are kept verbatim, argument checks left
# out, as the bitwise reference for SsmStage's gradient order.


def _chain_zoh_buffers(shape):
    return np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape), np.empty(shape)


def _chain_zoh_terms(u, factor, small, safe, em1):
    np.less(np.abs(u, out=safe), ZOH_SERIES_THRESHOLD, out=small)
    np.copyto(safe, u)
    np.copyto(safe, 1.0, where=small)
    np.expm1(safe, out=em1)
    np.divide(em1, safe, out=factor)
    np.copyto(factor, 1.0, where=small)
    return factor


def _chain_row_blocks(length, channels, state):
    rows = max(1, ssm._BLOCK_BYTES // (8 * channels * state))
    return [slice(start, min(start + rows, length)) for start in range(0, length, rows)]


def _chain_scan_node(dt_t, b_t, a_log_t, cvec, x, d):
    length, channels, state = dt_t.shape + b_t.shape[1:]
    dt, c_d, xd, dd = dt_t.data, cvec.data, x.data, d.data
    dt3, b3, x3 = dt[:, :, None], b_t.data[:, None, :], xd[:, :, None]
    exp_a = np.exp(a_log_t.data)
    neg_a = -exp_a
    blocks = _chain_row_blocks(length, channels, state)
    block_shape = (blocks[0].stop, channels, state) if blocks else (0, channels, state)
    # seams[k] keeps block k's last state row
    seams = np.empty((max(len(blocks) - 1, 0), channels, state))

    y = np.empty((length, channels))
    u_buf = np.empty(block_shape)
    terms = _chain_zoh_buffers(block_shape)
    for k, rows in enumerate(blocks):
        n = rows.stop - rows.start
        u = np.multiply(dt3[rows], neg_a, out=u_buf[:n])
        factor, small, safe, em1 = (buf[:n] for buf in terms)
        _chain_zoh_terms(u, factor, small, safe, em1)
        factor *= np.multiply(dt3[rows], b3[rows], out=safe)
        h = np.multiply(factor, x3[rows], out=em1)
        abar = np.exp(u, out=u)
        if rows.start:
            h[0] += abar[0] * seams[k - 1]
        _frozen_linear_recurrence(abar[1:], h)
        if rows.stop < length:
            np.copyto(seams[k], h[-1])
        np.einsum("tcn,tn->tc", h, c_d[rows], out=y[rows])
    y += xd * dd
    out = Tensor(y)
    x_slot, d_slot, a_log_slot = x.slot, d.slot, a_log_t.slot
    slots = (cvec.slot, b_t.slot, dt_t.slot)

    def bw(g):
        x_slot.accumulate(g * dd, owned=True)
        d_slot.accumulate((g * xd).sum(axis=0))
        abar_b, der_b = np.empty(block_shape), np.empty(block_shape)
        # a pair row holds the state history in slot 0, run forward in
        # time, and the adjoint in slot 1, stored time-reversed so that the
        # same loop runs it backward; coef holds each slot's abar. h, adj
        # and abar's gradient are contiguous arrays in the two buffers'
        # memory: bx and adj are built there and copied into the pair's
        # strided slots (faster than writing those slots directly), and
        # the loop's results are copied back out
        pair_b, coef_b = np.empty((2, block_shape[0], 2, channels, state))
        h_b, adj_b = coef_b.reshape((2,) + block_shape)
        d_ab_b = pair_b.reshape((2,) + block_shape)[0]
        terms = _chain_zoh_buffers(block_shape)
        abar_next, adj_next = np.empty((channels, state)), np.empty((channels, state))
        d_x = np.empty_like(xd)
        d_dt = np.empty_like(dt)
        d_b = np.empty((length, state))
        d_cv = np.empty((length, state))
        # dt * d(u) per element, for a_log's sum over L as one reduction
        d_ua = np.empty((length, channels, state))
        for k in reversed(range(len(blocks))):
            rows = blocks[k]
            n = rows.stop - rows.start
            dt_r, b_r = dt3[rows], b3[rows]
            abar = np.multiply(dt_r, neg_a, out=abar_b[:n])
            factor, small, safe, em1 = (buf[:n] for buf in terms)
            _chain_zoh_terms(abar, factor, small, safe, em1)
            np.exp(abar, out=abar)
            # d factor / d u = (u exp(u) - expm1(u)) / u^2, 1/2 on the
            # series branch; exp(u) is abar wherever the exact branch applies
            der = np.multiply(safe, abar, out=der_b[:n])
            der -= em1
            safe *= safe
            der /= safe
            np.copyto(der, 0.5, where=small)
            step_b = np.multiply(dt_r, b_r, out=safe)
            bbar = np.multiply(factor, step_b, out=em1)
            pair, coef = pair_b[:n], coef_b[: n - 1]
            h, adj = h_b[:n], adj_b[:n]
            np.copyto(pair[:, 0], np.multiply(bbar, x3[rows], out=h))
            if rows.start:
                pair[0, 0] += abar[0] * seams[k - 1]
            # adj[t] is the adjoint of h[t], which is also the gradient of bx[t]
            np.copyto(pair[::-1, 1], np.multiply(g[rows, :, None], c_d[rows, None, :], out=adj))
            if rows.stop < length:
                pair[0, 1] += abar_next * adj_next
            np.copyto(coef[:, 0], abar[1:])
            np.copyto(coef[:, 1], abar[:0:-1])
            _frozen_linear_recurrence(coef, pair)
            np.copyto(h, pair[:, 0])
            np.copyto(adj, pair[::-1, 1])
            np.copyto(abar_next, abar[0])
            np.copyto(adj_next, adj[0])
            np.einsum("tc,tcn->tn", g[rows], h, out=d_cv[rows])
            d_ab = d_ab_b[:n]
            if rows.start:
                np.multiply(adj[0], seams[k - 1], out=d_ab[0])
            else:
                d_ab[0] = 0.0
            np.multiply(adj[1:], h[:-1], out=d_ab[1:])
            np.multiply(adj, bbar, out=bbar).sum(axis=2, out=d_x[rows])
            g_bbar = np.multiply(adj, x3[rows], out=adj)
            g_u = np.multiply(g_bbar, step_b, out=bbar)
            g_step_b = np.multiply(g_bbar, factor, out=adj)
            g_u *= der
            np.multiply(g_step_b, b_r, out=der).sum(axis=2, out=d_dt[rows])
            g_step_b *= dt_r
            g_step_b.sum(axis=1, out=d_b[rows])
            d_ab *= abar
            g_u += d_ab
            d_dt[rows] += np.multiply(g_u, neg_a, out=der).sum(axis=2)
            np.multiply(g_u, dt_r, out=d_ua[rows])
        x_slot.accumulate(d_x, owned=True)
        a_log_slot.accumulate(-d_ua.sum(axis=0) * exp_a)
        for slot, grad in zip(slots, (d_cv, d_b, d_dt)):
            slot.accumulate(grad, owned=True)

    ad._record(out, bw)
    return out


def _chain_projections(x, w_dt, b_dt, w_b, w_c):
    xd, w_dt_d, w_b_d, w_c_d = x.data, w_dt.data, w_b.data, w_c.data
    logits = xd @ w_dt_d + b_dt.data
    dt = Tensor(np.logaddexp(0.0, logits))
    b = Tensor(xd @ w_b_d)
    cvec = Tensor(xd @ w_c_d)
    x_slot, b_dt_slot, w_dt_slot = x.slot, b_dt.slot, w_dt.slot
    paths = ((cvec.slot, w_c.slot, w_c_d), (b.slot, w_b.slot, w_b_d))

    def bw(g):
        # ssm_recurrence hands all three outputs a gradient, or none
        for out_slot, w_slot, wd in paths:
            grad = out_slot.grad
            x_slot.accumulate(grad @ wd.T)
            w_slot.accumulate(xd.T @ grad)
        d_logits = g * ad.expit(logits)
        b_dt_slot.accumulate(d_logits.sum(axis=0))
        x_slot.accumulate(d_logits @ w_dt_d.T)
        w_dt_slot.accumulate(xd.T @ d_logits)

    ad._record(dt, bw)
    return dt, b, cvec


def _chain_scan(direction, x):
    dt, b, cvec = _chain_projections(x, direction.w_dt, direction.b_dt, direction.w_b, direction.w_c)
    return _chain_scan_node(dt, b, direction.a_log, cvec, x, direction.d)


def _chain_stage_forward(stage, seq, height, width):
    u = ad.layer_norm(seq, stage.ln_gain, stage.ln_bias)
    y_fwd = _chain_scan(stage.fwd, u)
    reverse = np.arange(seq.shape[0] - 1, -1, -1)
    y_bwd = ad.permute_gather(_chain_scan(stage.bwd, ad.permute_gather(u, reverse)), reverse)
    return stage.mlp.forward(ad.add(seq, ad.add(y_fwd, y_bwd)), height, width)


def _pair_widths():
    # default and full-size widths, and one channel of one state, where a
    # sum over a direction's tokens would pairwise-sum if it ran contiguous
    return [(8, 8), (32, 16), (1, 1)]


def _pair_lengths(channels, state):
    """1, 2, one row block and several with a ragged last one, in the
    pair node's blocks of (rows, 2, C, N)."""
    rows = ssm._row_blocks(1 << 20, 2 * channels, state)[0].stop
    return [1, 2, rows, 2 * rows + rows // 2 + 1]


def _stage_and_grads(forward, stage, seq, weight):
    """The stage's output and the gradients of sum(out * weight): the
    input's, then every parameter's in named_params order."""
    x = Tensor(seq)
    for p in stage.params():
        p.zero_grad()
    with GradTape() as tape:
        out = forward(stage, x, 1, seq.shape[0])
        loss = weighted_sum(out, weight)
    backward(loss, tape)
    return [out.data, x.grad] + [p.grad for _, p in stage.named_params()]


@pytest.mark.parametrize("channels, state", _pair_widths())
def test_stage_pair_node_bitwise_matches_two_direction_chain(channels, state):
    rng = np.random.default_rng(31)
    stage = SsmStage(ModelConfig(channels=channels, state_dim=state), rng)
    # steps that reach both ZOH branches, and a direct term off its init
    for direction in (stage.fwd, stage.bwd):
        direction.b_dt.data[:] = rng.choice([3.0, -45.0, 0.0], size=channels)
        direction.d.data[:] = rng.normal(size=channels)
    names = ["out", "x"] + [name for name, _ in stage.named_params()]
    for length in _pair_lengths(channels, state):
        seq = rng.normal(size=(length, channels))
        weight = rng.normal(size=(length, channels))
        got = _stage_and_grads(SsmStage.forward, stage, seq, weight)
        want = _stage_and_grads(_chain_stage_forward, stage, seq, weight)
        for name, g, w in zip(names, got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), (length, name)
        assert np.array_equal(stage.forward(Tensor(seq), 1, length).data, want[0])


@pytest.mark.parametrize("live", ["fwd", "bwd"])
def test_lone_direction_scan_is_its_half_of_the_pair(live):
    # with the other direction silenced the pair node is the live
    # direction's scan, the second re-reversed: output, u's gradient and
    # the live direction's parameter gradients bit for bit
    rng = np.random.default_rng(32)
    stage = SsmStage(ModelConfig(), rng)
    getattr(stage, "bwd" if live == "fwd" else "fwd").silence()
    direction = getattr(stage, live)
    length = 2 * ssm._row_blocks(1 << 20, 16, 8)[0].stop + 7
    seq = rng.normal(size=(length, 8))
    weight = rng.normal(size=(length, 8))
    order = slice(None) if live == "fwd" else slice(None, None, -1)

    def grads(scan):
        u = Tensor(seq)
        for p in direction.params():
            p.zero_grad()
        with GradTape() as tape:
            y = scan(u)
            loss = weighted_sum(y, weight)
        backward(loss, tape)
        return [y.data, u.grad] + [p.grad for p in direction.params()]

    pair = grads(lambda u: ssm_recurrence(*ssm._projections(u, (stage.fwd, stage.bwd))))
    lone = grads(lambda u: ad.permute_gather(direction.scan(ad.permute_gather(u, np.arange(length)[order])), np.arange(length)[order]))
    for g, w in zip(pair, lone):
        assert np.array_equal(g, w)


def test_one_32px_forward_runs_one_scan_node_per_stage():
    # 22 nodes while each direction ran its own; the pair nodes cover the
    # same 1,081,344 state elements, counted as the benchmark's probe does
    shapes = []
    node = ssm.ssm_recurrence

    def counted(zoh, *rest):
        shapes.append(zoh.shape)
        return node(zoh, *rest)

    image, mask, _ = make_toy_pairs(1, 32, seed=0)[0]
    model = ShadowNet(ModelConfig())
    with mock.patch.object(ssm, "ssm_recurrence", counted):
        model.forward(image, mask)
    assert len(shapes) == 11
    assert sum(length * width * state for length, width, state in shapes) == 1_081_344


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
