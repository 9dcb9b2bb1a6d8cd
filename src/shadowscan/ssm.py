"""Selective state-space scan kernels and the scan-stage blocks.

The continuous model per channel is

    h'(t) = A h(t) + B x(t)
    y(t)  = C h(t) + D x(t)

with diagonal negative A. Zero-order-hold discretization over a step D
gives Abar = exp(D A) and Bbar = (D A)^-1 (exp(D A) - I) D B, with the
series limit Bbar -> D B taken once |D A| drops below 1e-8. Token-invariant
parameters admit an equivalent causal convolution with kernel
(C Bbar, C Abar Bbar, ..., C Abar^(L-1) Bbar); the selective variant derives
the step size and the input/output mixing vectors from each token and only
the sequential recurrence applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError
from .module import Module

ZOH_SERIES_THRESHOLD = 1e-8

# abar at the softplus(0) step size equals this after default init
_INIT_ABAR = 0.9


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
    small = np.abs(da) < ZOH_SERIES_THRESHOLD
    safe = np.where(small, 1.0, da)
    factor = np.where(small, 1.0, np.expm1(safe) / safe)
    return abar, factor * delta * b


@dataclass(frozen=True)
class FixedSsmParams:
    """Token-invariant scan parameters for one scalar channel."""

    a_diag: np.ndarray
    b_in: np.ndarray
    c_out: np.ndarray
    d: float
    delta: float

    selective = False

    @property
    def state_dim(self) -> int:
        return self.a_diag.shape[0]


@dataclass(frozen=True)
class SsmKernel:
    """Precomputed convolution view of a token-invariant scan."""

    kernel: np.ndarray
    abar: np.ndarray
    bbar: np.ndarray


def build_kernel(params: FixedSsmParams, length: int) -> SsmKernel:
    if params.selective:
        raise ContractError("convolution form requires token-invariant parameters")
    if length < 1:
        raise ConfigError(f"kernel length must be >= 1, got {length}")
    abar, bbar = discretize(params.a_diag, params.b_in, params.delta)
    powers = abar[None, :] ** np.arange(length, dtype=np.float64)[:, None]
    return SsmKernel(powers @ (np.asarray(params.c_out, dtype=np.float64) * bbar), abar, bbar)


def ssm_conv_form(x: Tensor | np.ndarray, kernel: SsmKernel, d: float) -> Tensor:
    """Reference path: y = x (*) kernel + d x, causal and truncated to len(x).

    Not recorded on the tape; this exists to cross-check the recurrence.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if data.ndim != 1:
        raise ShapeError(f"conv form runs on 1-D sequences, got shape {data.shape}")
    y = np.convolve(data, kernel.kernel)[: data.shape[0]] + d * data
    return Tensor(y)


def zoh_factor(u: Tensor) -> Tensor:
    """(exp(u) - 1) / u elementwise, with the series limit 1 near zero."""
    ud = u.data
    small = np.abs(ud) < ZOH_SERIES_THRESHOLD
    safe = np.where(small, 1.0, ud)
    out = Tensor(np.where(small, 1.0, np.expm1(safe) / safe), u.requires_grad)

    def bw(g):
        der = np.where(small, 0.5, (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe))
        u.accumulate(g * der)

    ad._record(out, bw)
    return out


def _linear_recurrence(coef: np.ndarray, x: np.ndarray) -> None:
    """In place along axis 0: x[t] += coef[t-1] * x[t-1] for t = 1..len(x)-1."""
    for a, prev, cur in zip(coef, x, x[1:]):
        cur += a * prev


def ssm_recurrence(abar: Tensor, bx: Tensor, cvec: Tensor) -> Tensor:
    """Differentiable scan core over per-token discretized parameters.

    Shapes: abar and bx are (L, C, N), cvec is (L, N). Computes
    h[t] = bx[t] + abar[t] * h[t-1] with h[-1] = 0 and
    y[t, c] = sum_n h[t, c, n] cvec[t, n]. Both passes run the one
    sequential primitive, _linear_recurrence: forward over a copy of bx
    with abar[1:], backward over the time-reversed adjoint
    adj[t] = g[t] c[t] + abar[t+1] adj[t+1], i.e. with abar shifted one
    step. Everything else, the output mix and the gradients, is
    vectorized. No parallel-scan shortcut: each element rounds as the
    plain sequential loop does.
    """
    if abar.ndim != 3 or abar.shape != bx.shape:
        raise ShapeError(f"abar {abar.shape} and bx {bx.shape} must be equal (L,C,N)")
    length, _, state = abar.shape
    if cvec.shape != (length, state):
        raise ShapeError(f"cvec must be ({length},{state}), got {cvec.shape}")
    a_d, c_d = abar.data, cvec.data
    hist = bx.data.copy()
    _linear_recurrence(a_d[1:], hist)
    y = np.einsum("tcn,tn->tc", hist, c_d)
    out = Tensor(y, abar.requires_grad or bx.requires_grad or cvec.requires_grad)

    def bw(g):
        d_cv = np.einsum("tc,tcn->tn", g, hist) if cvec.requires_grad else None
        # adj[t] is the adjoint of h[t], which is also the gradient of bx[t]
        adj = g[:, :, None] * c_d[:, None, :]
        _linear_recurrence(a_d[:0:-1], adj[::-1])
        if abar.requires_grad:
            d_ab = np.zeros_like(adj)
            np.multiply(adj[1:], hist[:-1], out=d_ab[1:])
            abar.accumulate(d_ab)
        if bx.requires_grad:
            bx.accumulate(adj)
        if d_cv is not None:
            cvec.accumulate(d_cv)

    ad._record(out, bw)
    return out


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

    selective = True

    def scan(self, x: Tensor) -> Tensor:
        """Run the selective recurrence over an (L, C) sequence."""
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise ShapeError(f"expected (L,{self.channels}) sequence, got {x.shape}")
        length = x.shape[0]
        dt = ad.softplus(ad.linear(x, self.w_dt, self.b_dt))
        b_t = ad.matmul(x, self.w_b)
        c_t = ad.matmul(x, self.w_c)
        a = ad.neg(ad.exp(self.a_log))
        da = ad.mul(ad.reshape(dt, (length, self.channels, 1)), a)
        abar = ad.exp(da)
        step_b = ad.mul(
            ad.reshape(dt, (length, self.channels, 1)),
            ad.reshape(b_t, (length, 1, self.state_dim)),
        )
        bbar = ad.mul(zoh_factor(da), step_b)
        bx = ad.mul(bbar, ad.reshape(x, (length, self.channels, 1)))
        y = ssm_recurrence(abar, bx, c_t)
        return ad.add(y, ad.mul(x, self.d))

    def silence(self) -> None:
        """Zero the output mixing and the direct term: the scan emits zeros."""
        self.w_c.data[:] = 0.0
        self.d.data[:] = 0.0


def selective_scan(x: Tensor, params: FixedSsmParams | SsmDirection) -> Tensor:
    """Scan a single-channel (L,) sequence with fixed or selective params."""
    if x.ndim != 1:
        raise ShapeError(f"selective_scan runs on (L,) sequences, got {x.shape}")
    length = x.shape[0]
    if isinstance(params, SsmDirection):
        if params.channels != 1:
            raise ShapeError("single-channel scan needs channels == 1 parameters")
        return ad.reshape(params.scan(ad.reshape(x, (length, 1))), (length,))
    abar, bbar = discretize(params.a_diag, params.b_in, params.delta)
    n = abar.shape[0]
    abar_t = Tensor(np.broadcast_to(abar, (length, 1, n)).copy())
    bx = ad.mul(Tensor(bbar), ad.reshape(x, (length, 1, 1)))
    cvec = Tensor(np.broadcast_to(np.asarray(params.c_out, dtype=np.float64), (length, n)).copy())
    y = ad.reshape(ssm_recurrence(abar_t, bx, cvec), (length,))
    return ad.add(y, ad.mul(x, params.d))


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
    """Pointwise expand, 3x3 depthwise mix on the folded map, exact GELU,
    pointwise contract, dropout, plus the residual."""

    def __init__(
        self,
        channels: int,
        expansion: int,
        dropout: float,
        rng: np.random.Generator,
        kernel: int = 3,
    ) -> None:
        if expansion < 1:
            raise ConfigError(f"expansion must be >= 1, got {expansion}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
        hidden = channels * expansion
        self.w1 = ad.param((channels, hidden), rng, fan_in=channels)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.dw = ad.param((hidden, kernel, kernel), rng, fan_in=kernel * kernel)
        self.w2 = ad.param((hidden, channels), rng, fan_in=hidden)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)
        self.rate = dropout
        self._rng = rng

    def forward(self, x: Tensor, height: int, width: int, training: bool = False) -> Tensor:
        if x.shape[0] != height * width:
            raise ShapeError(f"sequence of {x.shape[0]} tokens does not fold to {height}x{width}")
        t = ad.linear(x, self.w1, self.b1)
        m = ad.depthwise_conv2d(ad.seq_to_map(t, height, width), self.dw)
        t = ad.gelu(ad.map_to_seq(m))
        t = ad.linear(t, self.w2, self.b2)
        t = ad.dropout(t, self.rate, self._rng, training)
        return ad.add(x, t)

    def silence(self) -> None:
        """Zero the contraction: the block reduces to the identity."""
        self.w2.data[:] = 0.0
        self.b2.data[:] = 0.0


def conv_mlp(x: Tensor, mlp: ConvMlp, height: int, width: int, training: bool = False) -> Tensor:
    return mlp.forward(x, height, width, training)


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
