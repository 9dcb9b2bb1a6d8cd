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

Each scan direction records three tape closures: one for the whole
per-token discretization, which keeps only (L, C) and (L, N) inputs and
recomputes the (L, C, N) terms in its backward (recompute instead of
store, as in Mamba, arXiv 2312.00752, section 3.3), one for the
recurrence with the direct term D x, and one that rebuilds
abar = exp(dt A) just before the recurrence's backward. The recurrence
consumes bx: it runs in place over bx's buffer, which then holds the
state history. abar is dropped once the recurrence has run, so until
replay a direction holds one (L, C, N) array, the history. The
discretization runs over row blocks of about 256 KB per array, so its
temporaries stay block-sized, forward and backward.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy import special

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError
from .module import Module

ZOH_SERIES_THRESHOLD = 1e-8

# bytes per (rows, C, N) array in the discretization's row blocks
_BLOCK_BYTES = 1 << 18

# abar at the softplus(0) step size equals this after default init
_INIT_ABAR = 0.9

# side of ConvMlp's depthwise kernel
_MLP_KERNEL = 3


def _zoh_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(exp(u) - 1) / u elementwise, 1 where |u| is below the series
    threshold; also that mask, u with the masked entries set to 1, and
    expm1 of the latter, which the factor's derivative reuses."""
    small = np.abs(u) < ZOH_SERIES_THRESHOLD
    safe = np.where(small, 1.0, u)
    em1 = np.expm1(safe)
    factor = em1 / safe
    np.copyto(factor, 1.0, where=small)
    return factor, small, safe, em1


def discretize(a_diag: np.ndarray, b_in: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold step: returns (abar, bbar) for diagonal A.

    Entries with |delta * a| below the series threshold use the limit
    bbar = delta * b, which the exact expression approaches smoothly.
    """
    if not delta > 0.0:
        raise ConfigError(f"step size must be positive, got {delta}")
    a = np.asarray(a_diag, dtype=np.float64)
    b = np.asarray(b_in, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"diagonal A {a.shape} and B {b.shape} must match")
    da = delta * a
    abar = np.exp(da)
    factor = _zoh_terms(da)[0]
    return abar, factor * delta * b


def _linear_recurrence(coef: np.ndarray, x: np.ndarray) -> None:
    """In place along axis 0: x[t] += coef[t-1] * x[t-1] for t = 1..len(x)-1."""
    for a, prev, cur in zip(coef, x, x[1:]):
        cur += a * prev


def ssm_recurrence(abar: Tensor, bx: Tensor, cvec: Tensor, x: Tensor, d: Tensor) -> Tensor:
    """Differentiable scan core over per-token discretized parameters.

    Shapes: abar and bx are (L, C, N), cvec is (L, N), x is (L, C) and d
    is (C,). Computes h[t] = bx[t] + abar[t] * h[t-1] with h[-1] = 0 and
    y[t, c] = sum_n h[t, c, n] cvec[t, n] + x[t, c] d[c]. Both passes run
    the one sequential primitive, _linear_recurrence: forward with
    abar[1:], backward over the time-reversed adjoint
    adj[t] = g[t] c[t] + abar[t+1] adj[t+1], i.e. with abar shifted one
    step. Everything else, the output mix and the gradients, is
    vectorized. No parallel-scan shortcut: each element rounds as the
    plain sequential loop does. The backward hands out the direct term's
    gradients, x's then d's, before the scan's own.

    bx is consumed: the forward runs in place over bx.data, which holds
    the state history h afterwards, so bx must own its buffer and share
    none with the other operands. The closure keeps cvec, x, d and that
    history, and reads abar.data only when it replays, so a caller may
    drop abar's array in between if a closure recorded after this one
    (which replays before it) puts it back; SsmDirection.scan does. The
    backward hands the (L, C, N) gradients of abar and bx over without a
    copy.
    """
    if abar.ndim != 3 or abar.shape != bx.shape:
        raise ShapeError(f"abar {abar.shape} and bx {bx.shape} must be equal (L,C,N)")
    length, channels, state = abar.shape
    if cvec.shape != (length, state) or x.shape != (length, channels) or d.shape != (channels,):
        raise ShapeError(
            f"cvec, x and d must be ({length},{state}), ({length},{channels}) and ({channels},), "
            f"got {cvec.shape}, {x.shape} and {d.shape}"
        )
    c_d, hist = cvec.data, bx.data
    if any(np.may_share_memory(hist, t.data) for t in (abar, cvec, x, d)):
        raise ContractError("bx is consumed by the scan and must not share memory with another operand")
    _linear_recurrence(abar.data[1:], hist)
    y = np.einsum("tcn,tn->tc", hist, c_d)
    y += x.data * d.data
    out = Tensor(y, any(t.requires_grad for t in (abar, bx, cvec, x, d)))

    def bw(g):
        if x.requires_grad:
            x.accumulate(g * d.data, owned=True)
        if d.requires_grad:
            d.accumulate((g * x.data).sum(axis=0))
        a_d = abar.data
        d_cv = np.einsum("tc,tcn->tn", g, hist) if cvec.requires_grad else None
        # adj[t] is the adjoint of h[t], which is also the gradient of bx[t]
        adj = g[:, :, None] * c_d[:, None, :]
        _linear_recurrence(a_d[:0:-1], adj[::-1])
        if abar.requires_grad:
            d_ab = np.empty_like(adj)
            d_ab[0] = 0.0
            np.multiply(adj[1:], hist[:-1], out=d_ab[1:])
            abar.accumulate(d_ab, owned=True)
        if bx.requires_grad:
            bx.accumulate(adj, owned=True)
        if d_cv is not None:
            cvec.accumulate(d_cv)

    ad._record(out, bw)
    return out


def _row_blocks(length: int, channels: int, state: int) -> list[slice]:
    """Row slices of about _BLOCK_BYTES per (rows, C, N) float64 array,
    the last one ragged."""
    rows = max(1, _BLOCK_BYTES // (8 * channels * state))
    return [slice(start, start + rows) for start in range(0, length, rows)]


def _discretized_inputs(
    x: Tensor, a_log: Tensor, w_dt: Tensor, b_dt: Tensor, w_b: Tensor, w_c: Tensor
) -> tuple[Tensor, Tensor, Tensor, Callable[[], None] | None]:
    """The recurrence's inputs (abar, bx, cvec) from (L, C) tokens, as one
    tape node, and a closure that rebuilds abar's data.

    Per token, the step is dt = softplus(x @ w_dt + b_dt) per channel,
    B = x @ w_b and cvec = x @ w_c per state, and with A = -exp(a_log)
    abar = exp(dt A) and bx = zoh(dt A) (dt B) x, both (L, C, N).

    The (L, C, N) chain runs over row blocks (_row_blocks), forward and
    backward, so its temporaries are block-sized; every op is elementwise
    or reduces within a row, so the blocks round as whole arrays would.
    The node keeps x, the (L, C) logits and steps, the (L, N) B and the
    (C, N) exp(a_log); its backward recomputes dt A, the ZOH factor and
    dt B rather than holding (L, C, N) arrays on the tape until replay.
    The backward rounds as the chain of single ops it replaces did: the
    same products and the same reductions, the a_log gradient's sum over
    L still one reduction over a full-length array, and one
    ``x.accumulate`` per path in replay order (bx, cvec, B, step), since
    x may already hold gradient from elsewhere and a pre-summed update
    rounds differently.

    The rebuild closure (None when nothing is taped) sets abar.data to
    exp(dt A) again with the forward's ops, so the caller may drop abar's
    array until a backward needs it.
    """
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
    blocks = _row_blocks(length, channels, exp_a.shape[1])
    abar_d = np.empty((length,) + exp_a.shape)
    bx_d = np.empty_like(abar_d)
    for rows in blocks:
        da = np.multiply(dt3[rows], neg_a, out=abar_d[rows])
        factor = _zoh_terms(da)[0]
        factor *= dt3[rows] * b3[rows]
        np.multiply(factor, x3[rows], out=bx_d[rows])
        np.exp(da, out=da)
    requires = any(t.requires_grad for t in (x, a_log, w_dt, b_dt, w_b, w_c))
    abar = Tensor(abar_d, requires)
    bx = Tensor(bx_d, requires)
    cvec = Tensor(xd @ w_c.data, requires)
    tape = ad.active_tape()
    if tape is None or not requires:
        return abar, bx, cvec, None

    def rebuild_abar():
        da = np.multiply(dt3, neg_a)
        abar.data = np.exp(da, out=da)

    def replay():
        # ssm_recurrence hands all three outputs a gradient, or none; the
        # first two are arrays it handed over (or accumulate's copies),
        # owned by abar and bx alone, so they double as scratch
        g_ab, g_bx, g_c = abar.grad, bx.grad, cvec.grad
        if g_ab is None:
            return
        a_d = abar.data
        d_x = np.empty_like(xd) if x.requires_grad else None
        d_dt = np.empty_like(dt)
        d_b = np.empty_like(b_proj)
        for rows in blocks:
            dt_r, b_r = dt3[rows], b3[rows]
            factor, small, safe, em1 = _zoh_terms(dt_r * neg_a)
            # d factor / d u = (u exp(u) - expm1(u)) / u^2, 1/2 on the
            # series branch; exp(u) is abar wherever the exact branch applies
            der = np.multiply(safe, a_d[rows])
            der -= em1
            safe *= safe
            der /= safe
            np.copyto(der, 0.5, where=small)
            step_b = np.multiply(dt_r, b_r, out=safe)
            bbar = np.multiply(factor, step_b, out=em1)
            g_bx_r = g_bx[rows]
            if d_x is not None:
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
            # g_ab's rows are dead: they keep dt * d(dt A) for a_log's sum
            np.multiply(g_da, dt_r, out=g_ab_r)
        if d_x is not None:
            x.accumulate(d_x, owned=True)
        if a_log.requires_grad:
            a_log.accumulate(-g_ab.sum(axis=0) * exp_a)
        for grad, w in ((g_c, w_c), (d_b, w_b)):
            if x.requires_grad:
                x.accumulate(grad @ w.data.T)
            if w.requires_grad:
                w.accumulate(xd.T @ grad)
        d_logits = d_dt * special.expit(logits)
        if b_dt.requires_grad:
            b_dt.accumulate(d_logits.sum(axis=0))
        if x.requires_grad:
            x.accumulate(d_logits @ w_dt.data.T)
        if w_dt.requires_grad:
            w_dt.accumulate(xd.T @ d_logits)

    tape.record(replay)
    return abar, bx, cvec, rebuild_abar


class SsmDirection(Module):
    """Selective scan parameters for one direction over a C-channel sequence.

    The step size is softplus(token @ w_dt + b_dt) per channel, the state
    mixing vectors B and C come from per-token projections shared across
    channels, and the diagonal A = -exp(a_log) and direct term d are shared
    across tokens. a_log starts so that abar is about 0.9 at the
    softplus(0) step; d starts at 1 (pure pass-through).
    """

    def __init__(self, channels: int, state_dim: int, rng: np.random.Generator) -> None:
        if channels < 1 or state_dim < 1:
            raise ConfigError(f"channels and state_dim must be >= 1, got {channels}, {state_dim}")
        a0 = -np.log(_INIT_ABAR) / np.log(2.0)
        self.a_log = Tensor(np.full((channels, state_dim), np.log(a0)), requires_grad=True)
        self.d = Tensor(np.ones(channels), requires_grad=True)
        self.w_dt = ad.param((channels, channels), rng, fan_in=channels)
        self.b_dt = Tensor(np.zeros(channels), requires_grad=True)
        self.w_b = ad.param((channels, state_dim), rng, fan_in=channels)
        self.w_c = ad.param((channels, state_dim), rng, fan_in=channels)
        self.channels = channels
        self.state_dim = state_dim

    def scan(self, x: Tensor) -> Tensor:
        """Run the selective recurrence over an (L, C) sequence."""
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise ShapeError(f"expected (L,{self.channels}) sequence, got {x.shape}")
        params = (self.a_log, self.w_dt, self.b_dt, self.w_b, self.w_c)
        abar, bx, cvec, rebuild_abar = _discretized_inputs(x, *params)
        y = ssm_recurrence(abar, bx, cvec, x, self.d)
        if rebuild_abar is not None:
            # the recurrence reads abar only in its backward: drop the array
            # until then, and rebuild it in the closure that replays first
            abar.data = None
            ad.active_tape().record(rebuild_abar)
        return y

    def silence(self) -> None:
        """Zero the output mixing and the direct term: the scan emits zeros."""
        self.w_c.data[:] = 0.0
        self.d.data[:] = 0.0


def bidirectional_ssm_block(
    seq: Tensor,
    forward_dir: SsmDirection,
    backward_dir: SsmDirection,
    ln_gain: Tensor,
    ln_bias: Tensor,
) -> Tensor:
    """Pre-norm bidirectional scan with a residual connection.

    Normalizes the sequence, scans it and its token-reversed copy,
    re-reverses the latter, sums both directions, and adds the input back.
    """
    u = ad.layer_norm(seq, ln_gain, ln_bias)
    y_fwd = forward_dir.scan(u)
    y_bwd = ad.reverse_rows(backward_dir.scan(ad.reverse_rows(u)))
    return ad.add(seq, ad.add(y_fwd, y_bwd))


class ConvMlp(Module):
    """Pointwise expand, 3x3 depthwise mix over the token grid, exact GELU,
    pointwise contract, dropout, plus the residual."""

    def __init__(self, channels: int, expansion: int, dropout: float, rng: np.random.Generator) -> None:
        if expansion < 1:
            raise ConfigError(f"expansion must be >= 1, got {expansion}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
        hidden = channels * expansion
        self.w1 = ad.param((channels, hidden), rng, fan_in=channels)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.dw = ad.param((hidden, _MLP_KERNEL, _MLP_KERNEL), rng, fan_in=_MLP_KERNEL * _MLP_KERNEL)
        self.w2 = ad.param((hidden, channels), rng, fan_in=hidden)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)
        self.rate = dropout
        self._rng = rng

    def forward(self, x: Tensor, height: int, width: int, training: bool = False) -> Tensor:
        t = ad.linear(x, self.w1, self.b1)
        t = ad.gelu(ad.depthwise_conv2d(t, height, width, self.dw))
        t = ad.linear(t, self.w2, self.b2)
        t = ad.dropout(t, self.rate, self._rng, training)
        return ad.add(x, t)

    def silence(self) -> None:
        """Zero the contraction: the block reduces to the identity."""
        self.w2.data[:] = 0.0
        self.b2.data[:] = 0.0


class SsmStage(Module):
    """One full scan stage: bidirectional SSM block, then the conv MLP."""

    def __init__(
        self,
        channels: int,
        state_dim: int,
        expansion: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        self.ln_gain = Tensor(np.ones(channels), requires_grad=True)
        self.ln_bias = Tensor(np.zeros(channels), requires_grad=True)
        self.fwd = SsmDirection(channels, state_dim, rng)
        self.bwd = SsmDirection(channels, state_dim, rng)
        self.mlp = ConvMlp(channels, expansion, dropout, rng)

    def forward(self, seq: Tensor, height: int, width: int, training: bool = False) -> Tensor:
        u = bidirectional_ssm_block(seq, self.fwd, self.bwd, self.ln_gain, self.ln_bias)
        return self.mlp.forward(u, height, width, training)

    def silence(self) -> None:
        self.fwd.silence()
        self.bwd.silence()
        self.mlp.silence()
