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

A scan runs K = 1 or 2 directions over one (L, C) sequence u, the second
over its token reversal, as one tape node, ``ssm_recurrence``: it
computes every direction's per-token step size, B and C, (L, K, C) and
(L, K, N), from its own sequence and weights, and fuses the
discretization, the recurrence and the output of all K directions over
row blocks of about 256 KB per (rows, K, C, N) array, as Mamba's
selective-scan kernel does in fast memory (arXiv 2312.00752, section
3.3), and re-reverses and sums the second direction's output into the
first's. One loop step thus advances every direction's chain, as
VMamba's cross-scan runs its directions in one selective-scan call
(arXiv 2401.10166, section 3). ``SsmStage`` runs its two directions as
one such pair, between its layer norm and its residual add, which stay
nodes of their own; ``SsmDirection.scan`` runs one direction at K = 1.

A taped scan keeps u's data, the directions' weights and one (K, C, N)
state row per seam between blocks until replay, and rebuilds the rest.
Its backward repeats the projections with the same BLAS calls on the
same views, then recomputes abar, the ZOH terms and the state history
block by block, the history from the state row at each block's seam, as
Mamba's backward recomputes its states (section 3.3) and as sublinear-
memory training trades compute for stored activations (arXiv
1604.06174). The backward's block buffers come from one workspace per
thread, allocated once, so the memory the tape no longer holds is not
mapped and faulted in again on every call. Each direction's results, and
the order in which u and each parameter receive their gradient pieces,
are bit for bit those of a scan of its own followed by the row gathers
that reversed it.

The softplus step's slope in the scan's backward is the logistic
sigmoid ``autodiff.expit``, which, like GELU's erf (cephes), is evaluated
in numpy over libm ``exp``; the package needs nothing beyond numpy for its
special functions.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import InputError
from .module import Module

ZOH_SERIES_THRESHOLD = 1e-8

# bytes per (rows, K·C, N) array in the scan's row blocks
_BLOCK_BYTES = 1 << 18

# blocks of _BLOCK_BYTES in a thread's backward workspace: the backward's
# nine (rows, K, C, N) float64 buffers and one bool mask fit in it
_WORKSPACE_BLOCKS = 10

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


class Scan(NamedTuple):
    """K = 1 or 2 scan directions over one (L, C) sequence u: direction 0
    reads u, direction 1 its token reversal. A direction is anything with
    an SsmDirection's arrays: w_dt (C, C), b_dt (C,), w_b and w_c (C, N),
    a_log (C, N) and d (C,)."""

    u: Tensor
    directions: Sequence[SsmDirection]

    @property
    def shape(self) -> tuple[int, ...]:
        """(L, K·C, N), the state the K directions' scans expand to."""
        length, channels = self.u.shape
        return (length, len(self.directions) * channels, self.directions[0].w_b.shape[-1])


class _Workspace(threading.local):
    """One thread's float64 buffer for the scan backward's (rows, K, C, N)
    block buffers. Each thread builds its own on first use; the main
    thread's is built when this module is imported, before any forward, so
    that it does not land at the heap's top, where it would keep glibc from
    trimming below it."""

    def __init__(self) -> None:
        self.buf = np.empty(_WORKSPACE_BLOCKS * _BLOCK_BYTES // 8)


_workspace = _Workspace()


def _backward_buffers(block_shape: tuple[int, ...]):
    """The backward's block buffers, views of this thread's workspace,
    which grows first if they need more: abar, der, the pair and
    coefficient buffers, (rows, 2, K, C, N) each, and the ZOH terms."""
    size = math.prod(block_shape)
    need = 9 * size + -(-size // 8)
    if _workspace.buf.size < need:
        _workspace.buf = np.empty(need)
    flat = _workspace.buf
    abar_b, der_b, factor, safe, em1 = (flat[i * size : (i + 1) * size].reshape(block_shape) for i in range(5))
    pair_b, coef_b = flat[5 * size : 9 * size].reshape((2, block_shape[0], 2) + block_shape[1:])
    small = flat[9 * size : need].view(bool)[:size].reshape(block_shape)
    return abar_b, der_b, pair_b, coef_b, (factor, small, safe, em1)


def _operands(ud: np.ndarray, weights: Sequence[tuple[np.ndarray, ...]]):
    """The stacked sequences (L, K, C), the logits and steps dt =
    softplus(seq @ w_dt + b_dt) (L, K, C), and B = seq @ w_b and C = seq @
    w_c (L, K, N) of K directions over u, from each direction's (w_dt,
    b_dt, w_b, w_c). The forward and the backward both build them here, so
    the backward's rebuild repeats the forward's bits."""
    length = ud.shape[0]
    k_dirs, state = len(weights), weights[0][2].shape[1]
    seqs = ud[:, None] if k_dirs == 1 else np.stack((ud, ud[::-1]), axis=1)
    logits = np.empty(seqs.shape)
    b_d, c_d = np.empty((2, length, k_dirs, state))
    for k, (w_dt, b_dt, w_b, w_c) in enumerate(weights):
        seq = seqs[:, k]
        np.add(seq @ w_dt, b_dt, out=logits[:, k])
        b_d[:, k] = seq @ w_b
        c_d[:, k] = seq @ w_c
    return seqs, logits, np.logaddexp(0.0, logits), b_d, c_d


def scan_forward(
    dt: np.ndarray, b: np.ndarray, cvec: np.ndarray, x: np.ndarray, d: np.ndarray, exp_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scan node's forward over stacked operands, in plain numpy.

    Shapes: dt and x are (L, K, C), b and cvec (L, K, N), d (K, C) and
    exp_a = exp(a_log) (K, C, N). Per direction k, with u = -dt exp_a,
    abar = exp(u), the ZOH factor f(u) = expm1(u) / u and bx = f(u) (dt B)
    x, it computes h[t] = bx[t] + abar[t] * h[t-1] with h[-1] = 0 and
    y_k[t, c] = sum_n h[t, c, n] cvec[t, n] + x[t, c] d[c]. Returns the
    (L, K, C) outputs, each direction in its own token order, and the seam
    rows, one (K, C, N) state row per block but the last.

    It runs over row blocks of (rows, K, C, N) (_row_blocks) in buffers
    allocated on each call; each block continues the recurrence from the
    seam row before it (by the loop's own op), and every other op is
    elementwise or reduces within a row and direction, so the blocks round
    as whole arrays would."""
    length, k_dirs, channels = dt.shape
    state = b.shape[2]
    dt4, b4, x4 = dt[..., None], b[:, :, None, :], x[..., None]
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
        np.einsum("tkcn,tkn->tkc", h, cvec[rows], out=ys[rows])
    ys += x * d
    return ys, seams


def _scan_backward(g, seqs, dt, b, cvec, exp_a, seams):
    """The recurrence's backward, from each direction's output gradient g
    (L, K, C) in its own token order: the gradients of the sequences
    through bx, of dt, of B and of C, and a_log's, in the forward's
    shapes. It walks the blocks in reverse and rebuilds u, the ZOH terms,
    abar and bx in each, seeding the block's first state row from the seam
    before it. One _linear_recurrence call then runs every direction's
    history forward and its adjoint adj[t] = g[t] c[t] + abar[t+1] adj[t+1]
    backward in time, over a pair buffer whose slot 1 stores the adjoint
    time-reversed. The block buffers are views of this thread's workspace;
    every array returned is fresh."""
    length, k_dirs, channels = dt.shape
    state = b.shape[2]
    dt4, b4, x4 = dt[..., None], b[:, :, None, :], seqs[..., None]
    neg_a = -exp_a
    blocks = _row_blocks(length, k_dirs * channels, state)
    block_shape = (blocks[0].stop if blocks else 0, k_dirs, channels, state)
    abar_b, der_b, pair_b, coef_b, terms = _backward_buffers(block_shape)
    # a pair row holds the state histories in slot 0, run forward in time,
    # and the adjoints in slot 1, stored time-reversed so that the same
    # loop runs them backward; coef holds each slot's abar. h, adj and
    # abar's gradient are contiguous arrays in the two buffers' memory: bx
    # and adj are built there and copied into the pair's strided slots
    # (faster than writing those slots directly), and the loop's results
    # are copied back out
    h_b, adj_b = coef_b.reshape((2,) + block_shape)
    d_ab_b = pair_b.reshape((2,) + block_shape)[0]
    abar_next, adj_next = np.empty((2,) + block_shape[1:])
    d_x = np.empty_like(seqs)
    d_dt = np.empty_like(dt)
    d_b = np.empty_like(cvec)
    d_cv = np.empty_like(cvec)
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
        # d factor / d u = (u exp(u) - expm1(u)) / u^2, 1/2 on the series
        # branch; exp(u) is abar wherever the exact branch applies
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
        np.copyto(pair[::-1, 1], np.multiply(g[rows, :, :, None], cvec[rows, :, None, :], out=adj))
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
    # every sum over L runs per direction, over an (L, C) or (L, C, N) view,
    # as a scan of its own sums it: at C = N = 1 numpy sums such a view
    # pairwise, but an (L, K, ...) array row by row
    d_a_log = -np.stack([d_ua[:, k].sum(axis=0) for k in range(k_dirs)]) * exp_a
    return d_x, d_dt, d_b, d_cv, d_a_log


def ssm_recurrence(scan: Scan) -> Tensor:
    """Differentiable selective scan of K = 1 or 2 directions over one
    (L, C) sequence, as one tape node: each direction's projections of
    step, B and C, the discretization, the recurrence and the output.

    _operands builds the stacked sequences, dt, B and C, and scan_forward
    runs every direction's chain at once. Direction 1 scans the tokens in
    reverse order: the node returns y_0[t] + y_1[L-1-t], (L, C), and y_0
    alone when K = 1. Both passes run the one sequential primitive,
    _linear_recurrence: no parallel-scan shortcut, so each element rounds
    as the plain sequential loop does, and each direction's results are bit
    for bit those of a scan of its own.

    Until replay the node keeps u's data, the seam rows, exp(a_log), the
    directions' d stacked, their w_dt, b_dt, w_b and w_c arrays, and the
    gradient slots of u and of every direction parameter: no (L, K, C)
    operand, no (L, K, C, N) array and no workspace buffer. Its backward
    rebuilds the stacked sequences, logits, dt, B and C through _operands,
    the same BLAS calls on the same views, and runs _scan_backward, whose
    block buffers are views of the calling thread's workspace, so
    backwards that run at once on two threads never share a buffer.

    Each piece of gradient then goes out separately, in a fixed order, as
    when the projections and the recurrence were two nodes and a scan per
    direction was joined by row gathers: summed first or reordered, the
    pieces would round differently. For direction 1, then direction 0: the
    direction's sequence receives the direct term's gradient, then bx's;
    then C's through w_c, and w_c its own; then B's through w_b, and w_b
    its own; then b_dt gets the step's, the sequence the step's through
    w_dt, and w_dt its own; then a_log and d get theirs. Direction 1's
    sequence sums its pieces apart and hands them to u reversed, before any
    of direction 0's.
    """
    u, directions = scan
    k_dirs = len(directions)
    if u.ndim != 2 or k_dirs not in (1, 2):
        raise InputError(f"a scan needs an (L,C) sequence and 1 or 2 directions, got {u.shape} and {k_dirs}")
    length, channels = u.shape
    state = directions[0].w_b.shape[-1]
    want = {
        "w_dt": (channels, channels),
        "b_dt": (channels,),
        "w_b": (channels, state),
        "w_c": (channels, state),
        "a_log": (channels, state),
        "d": (channels,),
    }
    for p in directions:
        for name, shape in want.items():
            got = getattr(p, name).shape
            if got != shape:
                raise InputError(f"a direction's {name} must be {shape} for an (L,{channels}) sequence, got {got}")
    ud = u.data
    weights = [(p.w_dt.data, p.b_dt.data, p.w_b.data, p.w_c.data) for p in directions]
    seqs, _, dt, b, cvec = _operands(ud, weights)
    exp_a = np.exp(np.stack([p.a_log.data for p in directions]))
    dd = np.stack([p.d.data for p in directions])
    ys, seams = scan_forward(dt, b, cvec, seqs, dd, exp_a)
    out = Tensor(ys[:, 0] + ys[::-1, 1] if k_dirs == 2 else ys[:, 0])
    u_slot = u.slot
    slots = [(p.w_c.slot, p.w_b.slot, p.w_dt.slot, p.b_dt.slot, p.a_log.slot, p.d.slot) for p in directions]

    def bw(g):
        seqs, logits, dt, b, cvec = _operands(ud, weights)
        # each direction's output gradient, in its own token order
        g = g[:, None] if k_dirs == 1 else np.stack((g, g[::-1]), axis=1)
        g_x = g * dd
        g_xd = g * seqs
        g_d = np.stack([g_xd[:, k].sum(axis=0) for k in range(k_dirs)])
        g_bx, g_dt, g_b, g_c, g_a_log = _scan_backward(g, seqs, dt, b, cvec, exp_a, seams)
        d_logits = g_dt * ad.expit(logits)
        for k in reversed(range(k_dirs)):
            w_dt, _, w_b, w_c = weights[k]
            w_c_slot, w_b_slot, w_dt_slot, b_dt_slot, a_log_slot, d_slot = slots[k]
            seq = seqs[:, k]
            to = u_slot if k == 0 else ad.GradSlot()
            to.accumulate(g_x[:, k])
            to.accumulate(g_bx[:, k])
            for grad, w_slot, wd in ((g_c[:, k], w_c_slot, w_c), (g_b[:, k], w_b_slot, w_b)):
                to.accumulate(grad @ wd.T)
                w_slot.accumulate(seq.T @ grad)
            d_log = d_logits[:, k]
            b_dt_slot.accumulate(d_log.sum(axis=0))
            to.accumulate(d_log @ w_dt.T)
            w_dt_slot.accumulate(seq.T @ d_log)
            a_log_slot.accumulate(g_a_log[k])
            d_slot.accumulate(g_d[k])
            if k:
                u_slot.accumulate(to.grad[::-1])

    ad._record(out, bw)
    return out


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
        return ssm_recurrence(Scan(x, (self,)))


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
        y = ssm_recurrence(Scan(u, (self.fwd, self.bwd)))
        return self.mlp.forward(ad.add(seq, y), height, width)
