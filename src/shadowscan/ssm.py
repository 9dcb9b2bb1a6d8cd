"""Selective state-space scan kernels and the scan-stage blocks.

The continuous model per channel is

    h'(t) = A h(t) + B x(t)
    y(t)  = C h(t) + D x(t)

with diagonal negative A. Zero-order-hold discretization over a step D
gives Abar = exp(D A) and Bbar = (D A)^-1 (exp(D A) - I) D B, with the
series limit Bbar -> D B taken once |D A| drops below 1e-8; ``discretize``
and the model's scan share one implementation of that factor.
The model's blocks derive the step size and the input/output mixing
vectors from each token, so only the sequential recurrence applies; the
convolution form that token-invariant parameters admit lives with the
``check ssm-equiv`` suite, which cross-checks the recurrence against it.

Each scan direction records two tape closures: one for the per-token
projections (step size, B and C), which are (L, C) and (L, N), and one
for ``ssm_recurrence``, which fuses the discretization, the recurrence
and the output over row blocks of about 256 KB per (rows, C, N) array,
as Mamba's selective-scan kernel does in fast memory (arXiv 2312.00752,
section 3.3). Its backward recomputes abar, the ZOH terms and the state
history block by block rather than storing them, the history from the
state row at each block's seam. Every forward fills those seam rows, one
(C, N) row per block but the last; a taped direction holds them until
replay, and no (L, C, N) array.

The softplus step's slope in the projections' backward is the logistic
sigmoid ``autodiff.expit``, which, like GELU's erf (cephes), is evaluated
in numpy over libm ``exp``; the package needs nothing beyond numpy for its
special functions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import InputError
from .module import Module

ZOH_SERIES_THRESHOLD = 1e-8

# bytes per (rows, C, N) array in the scan's row blocks
_BLOCK_BYTES = 1 << 18

# abar at the softplus(0) step size equals this after default init
_INIT_ABAR = 0.9

# side of ConvMlp's depthwise kernel
_MLP_KERNEL = 3


def _zoh_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Output arrays for _zoh_terms: factor, series mask, safe u, expm1."""
    return np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape), np.empty(shape)


def _zoh_terms(
    u: np.ndarray, factor: np.ndarray, small: np.ndarray, safe: np.ndarray, em1: np.ndarray
) -> np.ndarray:
    """Writes (exp(u) - 1) / u elementwise into factor, 1 where |u| is
    below the series threshold, and returns it. The other arrays keep the
    terms the factor's derivative reuses: the mask, u with the masked
    entries set to 1, and expm1 of the latter."""
    np.less(np.abs(u, out=safe), ZOH_SERIES_THRESHOLD, out=small)
    np.copyto(safe, u)
    np.copyto(safe, 1.0, where=small)
    np.expm1(safe, out=em1)
    np.divide(em1, safe, out=factor)
    np.copyto(factor, 1.0, where=small)
    return factor


def discretize(a_diag: np.ndarray, b_in: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold step: returns (abar, bbar) for diagonal A.

    Entries with |delta * a| below the series threshold use the limit
    bbar = delta * b, which the exact expression approaches smoothly.
    """
    if not delta > 0.0:
        raise InputError(f"step size must be positive, got {delta}")
    a = np.asarray(a_diag, dtype=np.float64)
    b = np.asarray(b_in, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"diagonal A {a.shape} and B {b.shape} must match")
    da = delta * a
    abar = np.exp(da)
    factor = _zoh_terms(da, *_zoh_buffers(da.shape))
    return abar, factor * delta * b


def _linear_recurrence(coef: np.ndarray, x: np.ndarray) -> None:
    """In place along axis 0: x[t] += coef[t-1] * x[t-1] for t = 1..len(x)-1."""
    for a, prev, cur in zip(coef, x, x[1:]):
        cur += a * prev


def _row_blocks(length: int, channels: int, state: int) -> list[slice]:
    """Row slices of about _BLOCK_BYTES per (rows, C, N) float64 array,
    the last one ragged."""
    rows = max(1, _BLOCK_BYTES // (8 * channels * state))
    return [slice(start, min(start + rows, length)) for start in range(0, length, rows)]


class Zoh(NamedTuple):
    """A scan direction's zero-order-hold inputs: the per-token steps dt
    (L, C) and input mixing B (L, N), and a_log (C, N), where A = -exp(a_log)."""

    dt: Tensor
    b: Tensor
    a_log: Tensor

    @property
    def shape(self) -> tuple[int, ...]:
        """(L, C, N), the shape of the state the scan expands to."""
        return self.dt.shape + self.b.shape[1:]


def ssm_recurrence(zoh: Zoh, cvec: Tensor, x: Tensor, d: Tensor) -> Tensor:
    """Differentiable selective scan: discretization, recurrence and
    output as one tape node.

    Shapes: zoh.shape is (L, C, N), cvec is (L, N), x is (L, C) and d is
    (C,). With u = dt A, abar = exp(u), the ZOH factor f(u) = expm1(u) / u
    and bx = f(u) (dt B) x, it computes h[t] = bx[t] + abar[t] * h[t-1]
    with h[-1] = 0 and y[t, c] = sum_n h[t, c, n] cvec[t, n] + x[t, c] d[c].
    Both passes run the one sequential primitive, _linear_recurrence:
    forward over abar, backward over the time-reversed adjoint
    adj[t] = g[t] c[t] + abar[t+1] adj[t+1]. No parallel-scan shortcut:
    each element rounds as the plain sequential loop does.

    Everything runs over row blocks (_row_blocks) in buffers allocated
    once per pass; each block continues the recurrence from the row
    before it (the seam row runs the loop's own op), and every other op
    is elementwise or reduces within a row, so the blocks round as whole
    arrays would. The forward keeps no state history: it copies each
    block's last state row into seams, which the next block starts from
    and which are the only state a taped node keeps (the sublinear-memory
    trade of arXiv 1604.06174, per row block). The backward walks the
    blocks in reverse, recomputes u, the ZOH terms, abar and bx, and
    seeds the block's first row from the seam before it. One
    _linear_recurrence call then runs the history forward and the adjoint
    backward in time, over a pair buffer whose slot 1 stores the adjoint
    time-reversed. The a_log gradient's terms go into an (L, C, N) array
    that lives only during the backward, so their sum over L stays one
    reduction over a full-length array.

    The backward hands out the direct term's gradients first, x's then
    d's, then x's through bx, then a_log's, cvec's, B's and dt's. x may
    already hold gradient from elsewhere, so its updates stay separate
    and in this order: summed first or reordered, they would round
    differently.

    Until replay the node saves the dt, B, cvec, x and d arrays, exp(a_log)
    and its negation, the seam rows, and the gradient slots of those six
    inputs; not the Zoh tuple, no Tensor, and neither a_log's data nor y.
    """
    if zoh.dt.ndim != 2 or zoh.b.ndim != 2:
        raise InputError(f"dt and b must be (L,C) and (L,N), got {zoh.dt.shape} and {zoh.b.shape}")
    length, channels, state = zoh.shape
    if (
        zoh.b.shape[0] != length
        or zoh.a_log.shape != (channels, state)
        or cvec.shape != (length, state)
        or x.shape != (length, channels)
        or d.shape != (channels,)
    ):
        raise InputError(
            f"a_log, cvec, x and d must be ({channels},{state}), ({length},{state}), ({length},{channels}) "
            f"and ({channels},), got {zoh.a_log.shape}, {cvec.shape}, {x.shape} and {d.shape}"
        )
    dt, c_d, xd, dd = zoh.dt.data, cvec.data, x.data, d.data
    dt3, b3, x3 = dt[:, :, None], zoh.b.data[:, None, :], xd[:, :, None]
    exp_a = np.exp(zoh.a_log.data)
    neg_a = -exp_a
    blocks = _row_blocks(length, channels, state)
    block_shape = (blocks[0].stop, channels, state) if blocks else (0, channels, state)
    # seams[k] keeps block k's last state row
    seams = np.empty((max(len(blocks) - 1, 0), channels, state))

    y = np.empty((length, channels))
    u_buf = np.empty(block_shape)
    terms = _zoh_buffers(block_shape)
    for k, rows in enumerate(blocks):
        n = rows.stop - rows.start
        u = np.multiply(dt3[rows], neg_a, out=u_buf[:n])
        factor, small, safe, em1 = (buf[:n] for buf in terms)
        _zoh_terms(u, factor, small, safe, em1)
        factor *= np.multiply(dt3[rows], b3[rows], out=safe)
        h = np.multiply(factor, x3[rows], out=em1)
        abar = np.exp(u, out=u)
        if rows.start:
            h[0] += abar[0] * seams[k - 1]
        _linear_recurrence(abar[1:], h)
        if rows.stop < length:
            np.copyto(seams[k], h[-1])
        np.einsum("tcn,tn->tc", h, c_d[rows], out=y[rows])
    y += xd * dd
    out = Tensor(y)
    x_slot, d_slot, a_log_slot = x.slot, d.slot, zoh.a_log.slot
    slots = (cvec.slot, zoh.b.slot, zoh.dt.slot)

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
        terms = _zoh_buffers(block_shape)
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
            _zoh_terms(abar, factor, small, safe, em1)
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
            _linear_recurrence(coef, pair)
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


def _projections(
    x: Tensor, w_dt: Tensor, b_dt: Tensor, w_b: Tensor, w_c: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """The per-token step dt = softplus(x @ w_dt + b_dt) (L, C) and the
    mixing vectors B = x @ w_b and C = x @ w_c (L, N), as one tape node.

    Until replay the node saves x's data, the logits, the w_dt, w_b and
    w_c arrays, and the gradient slots of x, the four parameters and the
    B and C outputs, whose gradients its backward reads with dt's; not
    b_dt's data, nor the data of any output. Its backward hands x one
    gradient per path, in the order C, B, step, for the reason
    ssm_recurrence gives."""
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


class SsmDirection(Module):
    """Selective scan parameters for one direction over a C-channel sequence.

    The step size is softplus(token @ w_dt + b_dt) per channel, the state
    mixing vectors B and C come from per-token projections shared across
    channels, and the diagonal A = -exp(a_log) and direct term d are shared
    across tokens. a_log starts so that abar is about 0.9 at the
    softplus(0) step; d starts at 1 (pure pass-through). Silencing zeroes
    the output mixing and the direct term: the scan then emits zeros.
    """

    SILENT = ("w_c", "d")

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        channels, state_dim = config.channels, config.state_dim
        a0 = -np.log(_INIT_ABAR) / np.log(2.0)
        self.a_log = Tensor(np.full((channels, state_dim), np.log(a0)))
        self.d = Tensor(np.ones(channels))
        self.w_dt = ad.param((channels, channels), rng, fan_in=channels)
        self.b_dt = Tensor(np.zeros(channels))
        self.w_b = ad.param((channels, state_dim), rng, fan_in=channels)
        self.w_c = ad.param((channels, state_dim), rng, fan_in=channels)
        self.channels = channels

    def scan(self, x: Tensor) -> Tensor:
        """Run the selective recurrence over an (L, C) sequence."""
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise InputError(f"expected (L,{self.channels}) sequence, got {x.shape}")
        dt, b, cvec = _projections(x, self.w_dt, self.b_dt, self.w_b, self.w_c)
        return ssm_recurrence(Zoh(dt, b, self.a_log), cvec, x, self.d)


class ConvMlp(Module):
    """Pointwise expand, 3x3 depthwise mix over the token grid, exact GELU,
    pointwise contract, dropout, plus the residual. Silencing zeroes the
    contraction: the block reduces to the identity. Dropout draws its mask
    from the construction generator, and only while a GradTape records."""

    SILENT = ("w2", "b2")

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        channels = config.channels
        hidden = channels * config.expansion
        self.w1 = ad.param((channels, hidden), rng, fan_in=channels)
        self.b1 = Tensor(np.zeros(hidden))
        self.dw = ad.param((hidden, _MLP_KERNEL, _MLP_KERNEL), rng, fan_in=_MLP_KERNEL * _MLP_KERNEL)
        self.w2 = ad.param((hidden, channels), rng, fan_in=hidden)
        self.b2 = Tensor(np.zeros(channels))
        self.rate = config.dropout
        self._rng = rng

    def forward(self, x: Tensor, height: int, width: int) -> Tensor:
        t = ad.linear(x, self.w1, self.b1)
        t = ad.gelu(ad.depthwise_conv2d(t, height, width, self.dw))
        t = ad.linear(t, self.w2, self.b2)
        t = ad.dropout(t, self.rate, self._rng)
        return ad.add(x, t)


class SsmStage(Module):
    """One full scan stage: a pre-norm bidirectional scan with a residual
    connection, then the conv MLP."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        self.ln_gain = Tensor(np.ones(config.channels))
        self.ln_bias = Tensor(np.zeros(config.channels))
        self.fwd = SsmDirection(config, rng)
        self.bwd = SsmDirection(config, rng)
        self.mlp = ConvMlp(config, rng)

    def forward(self, seq: Tensor, height: int, width: int) -> Tensor:
        """Normalize the sequence, scan it and its token-reversed copy,
        re-reverse the latter, add both directions and the input, then
        run the conv MLP."""
        u = ad.layer_norm(seq, self.ln_gain, self.ln_bias)
        y_fwd = self.fwd.scan(u)
        reverse = np.arange(seq.shape[0] - 1, -1, -1)
        y_bwd = ad.permute_gather(self.bwd.scan(ad.permute_gather(u, reverse)), reverse)
        return self.mlp.forward(ad.add(seq, ad.add(y_fwd, y_bwd)), height, width)
