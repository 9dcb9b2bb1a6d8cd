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

A scan runs K = 1 or 2 directions over one (L, C) sequence, the second
over its token reversal, as two tape closures: ``_projections``, which
computes every direction's per-token step size, B and C, (L, K, C) and
(L, K, N), and stacks the directions' sequences and parameters, and
``ssm_recurrence``, which fuses the discretization, the recurrence and
the output of all K directions over row blocks of about 256 KB per
(rows, K, C, N) array, as Mamba's selective-scan kernel does in fast
memory (arXiv 2312.00752, section 3.3), and re-reverses and sums the
second direction's output into the first's. One loop step thus advances
every direction's chain, as VMamba's cross-scan runs its directions in
one selective-scan call (arXiv 2401.10166, section 3). ``SsmStage`` runs
its two directions as one such pair; ``SsmDirection.scan`` runs one
direction at K = 1 through the same two nodes.

The backward recomputes abar, the ZOH terms and the state history block
by block rather than storing them, the history from the state row at each
block's seam. Every forward fills those seam rows, one (K, C, N) row per
block but the last; a taped scan holds them until replay, and no
(L, K, C, N) array. Each direction's results, and the order in which the
input sequence receives its gradient pieces (the reversed direction's
whole gradient first, then the other's direct term, bx path, C, B and
step), are bit for bit those of a scan of its own followed by the row
gathers that reversed it.

The softplus step's slope in the projections' backward is the logistic
sigmoid ``autodiff.expit``, which, like GELU's erf (cephes), is evaluated
in numpy over libm ``exp``; the package needs nothing beyond numpy for its
special functions.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _row_blocks(length: int, width: int, state: int) -> list[slice]:
    """Row slices of about _BLOCK_BYTES per (rows, width, N) float64 array,
    the last one ragged; width is K·C for K directions of C channels."""
    rows = max(1, _BLOCK_BYTES // (8 * width * state))
    return [slice(start, min(start + rows, length)) for start in range(0, length, rows)]


class Zoh(NamedTuple):
    """The zero-order-hold inputs of K scan directions over L tokens: the
    per-token steps dt (L, K, C), input mixing B (L, K, N) and sequence x
    (L, K, C), which the scan discretizes into bx, and a_log (K, C, N),
    where A = -exp(a_log)."""

    dt: Tensor
    b: Tensor
    a_log: Tensor
    x: Tensor

    @property
    def shape(self) -> tuple[int, ...]:
        """(L, K·C, N), the state the K directions' scans expand to."""
        length, k_dirs, channels = self.dt.shape
        return (length, k_dirs * channels, self.b.shape[2])


def ssm_recurrence(zoh: Zoh, cvec: Tensor, x: Tensor, d: Tensor) -> Tensor:
    """Differentiable selective scan of K = 1 or 2 directions:
    discretization, recurrence and output as one tape node.

    Shapes: zoh.dt, zoh.x and x are (L, K, C), zoh.b and cvec are (L, K, N),
    zoh.a_log is (K, C, N) and d is (K, C). Per direction k, with
    u = dt A, abar = exp(u), the ZOH factor f(u) = expm1(u) / u and
    bx = f(u) (dt B) zoh.x, it computes h[t] = bx[t] + abar[t] * h[t-1]
    with h[-1] = 0 and y_k[t, c] = sum_n h[t, c, n] cvec[t, n] + x[t, c] d[c].
    Direction 1 scans its tokens in reverse order: the node returns
    y_0[t] + y_1[L-1-t], (L, C), and y_0 alone when K = 1. Both passes run
    the one sequential primitive, _linear_recurrence, over every chain at
    once: forward over abar, backward over the time-reversed adjoint
    adj[t] = g[t] c[t] + abar[t+1] adj[t+1]. No parallel-scan shortcut:
    each element rounds as the plain sequential loop does, and each
    direction's results are bit for bit those of a scan of its own.

    Everything runs over row blocks of (rows, K, C, N) (_row_blocks) in
    buffers allocated once per pass; each block continues the recurrence
    from the row before it (the seam row runs the loop's own op), and
    every other op is elementwise or reduces within a row and direction, so
    the blocks round as whole arrays would. The forward keeps no state
    history: it copies each block's last state row into seams, which the
    next block starts from and which are the only state a taped node keeps
    (the sublinear-memory trade of arXiv 1604.06174, per row block). The
    backward walks the blocks in reverse, recomputes u, the ZOH terms, abar
    and bx, and seeds the block's first row from the seam before it. One
    _linear_recurrence call then runs every direction's history forward and
    its adjoint backward in time, over a pair buffer whose slot 1 stores
    the adjoint time-reversed. The a_log gradient's terms go into an
    (L, K, C, N) array that lives only during the backward, so each
    direction's sum over L stays one reduction over a full-length array.

    The backward hands out the direct term's gradients first, x's then
    d's, then zoh.x's through bx, then a_log's, cvec's, B's and dt's. x and
    zoh.x may be one tensor that already holds gradient from elsewhere, so
    its updates stay separate and in this order: summed first or
    reordered, they would round differently. _projections passes two
    tensors over one array there, so that it can hand each piece on apart.

    Until replay the node saves the dt, B, cvec, x, zoh.x and d arrays,
    exp(a_log) and its negation, the seam rows, and the gradient slots of
    the seven inputs; not the Zoh tuple, no Tensor, and neither a_log's
    data nor y.
    """
    dt, b, a_log, x_bx = zoh
    if dt.ndim != 3 or b.ndim != 3 or dt.shape[1] not in (1, 2):
        raise InputError(f"dt and b must be (L,K,C) and (L,K,N) with K 1 or 2, got {dt.shape} and {b.shape}")
    length, k_dirs, channels = dt.shape
    state = b.shape[2]
    if (
        b.shape[:2] != (length, k_dirs)
        or a_log.shape != (k_dirs, channels, state)
        or cvec.shape != b.shape
        or x.shape != dt.shape
        or x_bx.shape != dt.shape
        or d.shape != (k_dirs, channels)
    ):
        raise InputError(
            f"a_log, cvec, x, zoh.x and d must be {(k_dirs, channels, state)}, {(length, k_dirs, state)}, "
            f"{dt.shape}, {dt.shape} and {(k_dirs, channels)}, got {a_log.shape}, {cvec.shape}, {x.shape}, "
            f"{x_bx.shape} and {d.shape}"
        )
    dt_d, c_d, xd, dd = dt.data, cvec.data, x.data, d.data
    dt4, b4, x4 = dt_d[..., None], b.data[:, :, None, :], x_bx.data[..., None]
    exp_a = np.exp(a_log.data)
    neg_a = -exp_a
    blocks = _row_blocks(length, k_dirs * channels, state)
    block_shape = (blocks[0].stop if blocks else 0, k_dirs, channels, state)
    # seams[k] keeps block k's last state row
    seams = np.empty((max(len(blocks) - 1, 0),) + block_shape[1:])

    ys = np.empty((length, k_dirs, channels))
    u_buf = np.empty(block_shape)
    terms = _zoh_buffers(block_shape)
    for k, rows in enumerate(blocks):
        n = rows.stop - rows.start
        u = np.multiply(dt4[rows], neg_a, out=u_buf[:n])
        factor, small, safe, em1 = (buf[:n] for buf in terms)
        _zoh_terms(u, factor, small, safe, em1)
        factor *= np.multiply(dt4[rows], b4[rows], out=safe)
        h = np.multiply(factor, x4[rows], out=em1)
        abar = np.exp(u, out=u)
        if rows.start:
            h[0] += abar[0] * seams[k - 1]
        _linear_recurrence(abar[1:], h)
        if rows.stop < length:
            np.copyto(seams[k], h[-1])
        np.einsum("tkcn,tkn->tkc", h, c_d[rows], out=ys[rows])
    ys += xd * dd
    out = Tensor(ys[:, 0] + ys[::-1, 1] if k_dirs == 2 else ys[:, 0])
    x_slot, d_slot, x_bx_slot, a_log_slot = x.slot, d.slot, x_bx.slot, a_log.slot
    slots = (cvec.slot, b.slot, dt.slot)

    def bw(g):
        # each direction's output gradient, in its own token order
        g = g[:, None] if k_dirs == 1 else np.stack((g, g[::-1]), axis=1)
        x_slot.accumulate(g * dd, owned=True)
        # every sum over L runs per direction, over an (L, C) or (L, C, N)
        # view, as a scan of its own sums it: at C = N = 1 numpy sums such a
        # view pairwise, but an (L, K, ...) array row by row
        g_xd = g * xd
        d_slot.accumulate(np.stack([g_xd[:, k].sum(axis=0) for k in range(k_dirs)]))
        abar_b, der_b = np.empty(block_shape), np.empty(block_shape)
        # a pair row holds the state histories in slot 0, run forward in
        # time, and the adjoints in slot 1, stored time-reversed so that the
        # same loop runs them backward; coef holds each slot's abar. h, adj
        # and abar's gradient are contiguous arrays in the two buffers'
        # memory: bx and adj are built there and copied into the pair's
        # strided slots (faster than writing those slots directly), and
        # the loop's results are copied back out
        pair_b, coef_b = np.empty((2, block_shape[0], 2) + block_shape[1:])
        h_b, adj_b = coef_b.reshape((2,) + block_shape)
        d_ab_b = pair_b.reshape((2,) + block_shape)[0]
        terms = _zoh_buffers(block_shape)
        abar_next, adj_next = np.empty((2,) + block_shape[1:])
        d_x = np.empty_like(xd)
        d_dt = np.empty_like(dt_d)
        d_b = np.empty_like(c_d)
        d_cv = np.empty_like(c_d)
        # dt * d(u) per element, for a_log's sums over L as one reduction each
        d_ua = np.empty((length,) + block_shape[1:])
        for k in reversed(range(len(blocks))):
            rows = blocks[k]
            n = rows.stop - rows.start
            dt_r, b_r = dt4[rows], b4[rows]
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
            np.copyto(pair[:, 0], np.multiply(bbar, x4[rows], out=h))
            if rows.start:
                pair[0, 0] += abar[0] * seams[k - 1]
            # adj[t] is the adjoint of h[t], which is also the gradient of bx[t]
            np.copyto(pair[::-1, 1], np.multiply(g[rows, :, :, None], c_d[rows, :, None, :], out=adj))
            if rows.stop < length:
                pair[0, 1] += abar_next * adj_next
            np.copyto(coef[:, 0], abar[1:])
            np.copyto(coef[:, 1], abar[:0:-1])
            _linear_recurrence(coef, pair)
            np.copyto(h, pair[:, 0])
            np.copyto(adj, pair[::-1, 1])
            np.copyto(abar_next, abar[0])
            np.copyto(adj_next, adj[0])
            np.einsum("tkc,tkcn->tkn", g[rows], h, out=d_cv[rows])
            d_ab = d_ab_b[:n]
            if rows.start:
                np.multiply(adj[0], seams[k - 1], out=d_ab[0])
            else:
                d_ab[0] = 0.0
            np.multiply(adj[1:], h[:-1], out=d_ab[1:])
            np.multiply(adj, bbar, out=bbar).sum(axis=3, out=d_x[rows])
            g_bbar = np.multiply(adj, x4[rows], out=adj)
            g_u = np.multiply(g_bbar, step_b, out=bbar)
            g_step_b = np.multiply(g_bbar, factor, out=adj)
            g_u *= der
            np.multiply(g_step_b, b_r, out=der).sum(axis=3, out=d_dt[rows])
            g_step_b *= dt_r
            g_step_b.sum(axis=2, out=d_b[rows])
            d_ab *= abar
            g_u += d_ab
            d_dt[rows] += np.multiply(g_u, neg_a, out=der).sum(axis=3)
            np.multiply(g_u, dt_r, out=d_ua[rows])
        x_bx_slot.accumulate(d_x, owned=True)
        a_log_slot.accumulate(-np.stack([d_ua[:, k].sum(axis=0) for k in range(k_dirs)]) * exp_a)
        for slot, grad in zip(slots, (d_cv, d_b, d_dt)):
            slot.accumulate(grad, owned=True)

    ad._record(out, bw)
    return out


def _projections(u: Tensor, directions: Sequence[SsmDirection]) -> tuple[Zoh, Tensor, Tensor, Tensor]:
    """ssm_recurrence's operands for K = 1 or 2 directions over an (L, C)
    sequence u, as one tape node: direction 0 reads u, direction 1 its
    token reversal. Each direction's step dt = softplus(seq @ w_dt + b_dt)
    (L, C) and mixing vectors B = seq @ w_b and C = seq @ w_c (L, N) come
    from its own sequence and weights and are stacked on axis 1; a_log and
    d are the directions' stacked parameters, and the stacked
    sequences (L, K, C) go out twice, as zoh.x and as x, two tensors over
    one array, so that the direct term's gradient and bx's stay apart.

    Its backward hands u the gradient of direction 1's sequence first,
    summed and reversed, then direction 0's pieces one by one. Each
    direction's sum, or u's, takes the pieces in the order direct term,
    bx, C, B, step, for the reason ssm_recurrence gives: with K = 2, u's
    gradient rounds as it did when the reversal was a row gather of its own
    and each direction recorded its own projections and scan.

    Until replay the node saves the stacked sequences, the logits, the
    w_dt, w_b and w_c arrays, and the gradient slots of u, the directions'
    parameters and the outputs; not u's data, b_dt's, nor the data of any
    other output."""
    ud = u.data
    length = ud.shape[0]
    k_dirs, state = len(directions), directions[0].w_b.shape[1]
    seqs = ud[:, None] if k_dirs == 1 else np.stack((ud, ud[::-1]), axis=1)
    logits = np.empty(seqs.shape)
    b_d, c_d = np.empty((2, length, k_dirs, state))
    for k, p in enumerate(directions):
        seq = seqs[:, k]
        np.add(seq @ p.w_dt.data, p.b_dt.data, out=logits[:, k])
        b_d[:, k] = seq @ p.w_b.data
        c_d[:, k] = seq @ p.w_c.data
    dt, b, cvec = Tensor(np.logaddexp(0.0, logits)), Tensor(b_d), Tensor(c_d)
    a_log = Tensor(np.stack([p.a_log.data for p in directions]))
    d = Tensor(np.stack([p.d.data for p in directions]))
    x, x_bx = Tensor(seqs), Tensor(seqs)
    u_slot = u.slot
    in_slots = (x.slot, x_bx.slot, cvec.slot, b.slot, a_log.slot, d.slot)
    # per direction: (slot, data) of w_c, w_b and w_dt, and the other slots
    weights = [[(w.slot, w.data) for w in (p.w_c, p.w_b, p.w_dt)] for p in directions]
    others = [(p.b_dt.slot, p.a_log.slot, p.d.slot) for p in directions]

    def bw(g):
        # ssm_recurrence hands all its operands a gradient, or none
        g_x, g_x_bx, g_c, g_b, g_a_log, g_d = (slot.grad for slot in in_slots)
        d_logits = g * ad.expit(logits)
        for k in reversed(range(k_dirs)):
            c_path, b_path, (w_dt_slot, w_dt_d) = weights[k]
            b_dt_slot, a_log_slot, d_slot = others[k]
            seq = seqs[:, k]
            # direction 1's pieces add up apart, then reach u reversed
            to = u_slot if k == 0 else ad.GradSlot()
            to.accumulate(g_x[:, k])
            to.accumulate(g_x_bx[:, k])
            for grad, (w_slot, wd) in ((g_c[:, k], c_path), (g_b[:, k], b_path)):
                to.accumulate(grad @ wd.T)
                w_slot.accumulate(seq.T @ grad)
            d_log = d_logits[:, k]
            b_dt_slot.accumulate(d_log.sum(axis=0))
            to.accumulate(d_log @ w_dt_d.T)
            w_dt_slot.accumulate(seq.T @ d_log)
            a_log_slot.accumulate(g_a_log[k])
            d_slot.accumulate(g_d[k])
            if k:
                u_slot.accumulate(to.grad[::-1])

    ad._record(dt, bw)
    return Zoh(dt, b, a_log, x_bx), cvec, x, d


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
        return ssm_recurrence(*_projections(x, (self,)))


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
        y = ssm_recurrence(*_projections(u, (self.fwd, self.bwd)))
        return self.mlp.forward(ad.add(seq, y), height, width)
