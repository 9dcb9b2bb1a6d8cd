"""Dense float64 tensors with taped reverse-mode automatic differentiation.

The engine covers exactly the operations the scanning network needs: the
row-wise affine map, addition of operands of equal shape (no broadcasting),
the activations from the block definitions (exact GELU's erf is cephes'
evaluated in numpy over libm ``exp``, see ``erf``), small same-padded
convolutions and 2x bilinear resampling of (H*W, C) token sequences, one
row gather (reorder, select or reverse by distinct indices) and
concatenation; the scan and the loss record their own nodes through
``_record``. Every differentiable op appends one backward closure to the
active GradTape; replaying the tape in reverse visits each recorded op
once (execution order is a topological order of the graph). Outside a
tape nothing is recorded, and ``dropout`` is the identity: a forward
draws dropout masks only while a tape records, so every taped forward
trains and every untaped one infers. There is no per-tensor switch:
every tensor recorded on an active tape receives its gradient, constants
included; a module's parameters are its ``Tensor`` attributes. Gradients
accumulate into ``Tensor.grad`` with ``+=`` and are cleared only by
``zero_grad``; the first gradient is copied in, unless the op hands over
a fresh array it drops (``accumulate(g, owned=True)``), which then
becomes the gradient.

A tensor keeps its gradient in a ``GradSlot`` apart from its data. A
backward closure captures three kinds of things: the slots of the tensors
it sends gradient to (and, through ``_record``, its output's slot, to read
the output's gradient), by name the arrays its backward reads, and plain
shapes and indices. It never captures a ``Tensor``. So a tensor's data
lives only as long as the caller holds the tensor or some recorded
backward reads that array: ``add``, ``concat``, the layout and resampling
ops and the row gather keep no data at all, ``clamp01``, ``leaky_relu``
and ``dropout`` keep only their mask or factor, and ``layer_norm`` keeps
its normalized input, not its input.

Replay consumes the tape: ``backward`` pops each closure before it runs it,
so once an op has handed its gradient down, the arrays it captured and the
gradient of its output are no longer reachable from the tape, and an
activation's data is freed as soon as no later backward reads it. Only the
leaves' gradients, and whatever tensors the caller still holds, outlive the
replay; the tape is empty afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .imageio import linear_taps

_TAPE_STACK: list["GradTape"] = []

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def active_tape() -> "GradTape | None":
    """The innermost recording tape, or None outside any ``with tape:`` block."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class GradTape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around the forward computation, then call
    ``backward`` on a scalar output. One backward pass per tape, which
    empties it; a tape is confined to one logical thread.
    """

    def __init__(self) -> None:
        self._ops: list = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def record(self, replay) -> None:
        self._ops.append(replay)


class GradSlot:
    """A tensor's accumulated gradient, held apart from its data so that a
    tape closure can send gradient to a tensor without keeping its data
    alive."""

    __slots__ = ("grad",)

    def __init__(self) -> None:
        self.grad: np.ndarray | None = None

    def accumulate(self, g: np.ndarray, *, owned: bool = False) -> None:
        if self.grad is None:
            if owned:
                # handed over: a fresh float64 array of this shape that the
                # caller drops, so it becomes the gradient without a copy
                self.grad = g
                return
            # copy: callers may pass reused buffers or views
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


class Tensor:
    """A float64 array plus a slot for its accumulated gradient."""

    __slots__ = ("data", "slot")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot()

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.slot.grad = None

    def accumulate(self, g: np.ndarray, *, owned: bool = False) -> None:
        self.slot.accumulate(g, owned=owned)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def param(shape: tuple[int, ...], rng: np.random.Generator, fan_in: int, scale: float = 1.0) -> Tensor:
    """A trainable tensor drawn uniform in +-scale/sqrt(fan_in)."""
    if fan_in <= 0:
        raise InputError("fan_in must be positive for random init")
    bound = scale / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def _record(out: Tensor, backward_fn) -> None:
    """Attach a replay closure for ``out`` to the active tape, if any."""
    tape = active_tape()
    if tape is None:
        return
    slot = out.slot

    def replay():
        g = slot.grad
        if g is not None:
            backward_fn(g)

    tape.record(replay)


def backward(output: Tensor, tape: GradTape, seed: float = 1.0) -> None:
    """Seed d(output)/d(output) = ``seed`` and replay the tape in reverse.

    The replay consumes the tape: each closure is popped before it runs, so
    the activations it captured are released as soon as its gradient has
    been handed down, and the tape is empty when this returns.
    """
    if output.data.size != 1:
        raise InputError(f"backward needs a scalar output, got shape {output.shape}")
    if tape._consumed:
        raise InputError("tape already replayed; build a fresh tape per backward pass")
    tape._consumed = True
    output.accumulate(np.full_like(output.data, seed))
    ops = tape._ops
    while ops:
        ops.pop()()


# ---------------------------------------------------------------------------
# addition and the affine map


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise InputError(f"add needs operands of equal shape, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    a_slot, b_slot = a.slot, b.slot

    def bw(g):
        a_slot.accumulate(g)
        b_slot.accumulate(g)

    _record(out, bw)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map: (L, C_in) @ (C_in, C_out) plus a (C_out,) bias."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise InputError(f"linear needs (L,k) @ (k,n) + (n,), got {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    y = xd @ wd
    y += b.data
    out = Tensor(y)
    x_slot, w_slot, b_slot = x.slot, w.slot, b.slot

    def bw(g):
        b_slot.accumulate(g.sum(axis=0))
        x_slot.accumulate(g @ wd.T)
        w_slot.accumulate(xd.T @ g)

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# activations


# cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, else 1 - erfc(|x|)
# with erfc = exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8
# on; U, Q and S have an implied leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(2^1024): exp(-x^2) underflows past it
_CEXP_EXACT = 709.0  # glibc's cexp rescales above (DBL_MAX_EXP - 1) ln 2


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule in cephes' order: ((c0 x + c1) x + c2) ..."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """``_polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) of a 1-D array with the C library's rounding, which cephes
    assumes.

    numpy's float64 exp is its own SIMD kernel and differs from libm's in
    the last bit on a few percent of inputs. Its complex exp calls the C
    library's cexp, whose real part is libm exp(x) for a zero imaginary
    part up to x = 709; above that cexp rescales, so those rare entries
    take ``math.exp`` (inf past its overflow, without a warning).
    """
    z = x.astype(np.complex128)
    big = np.flatnonzero(x > _CEXP_EXACT)
    z[big] = 0.0
    out = np.exp(z, out=z).real
    for i in big.tolist():
        try:
            out[i] = math.exp(x[i])
        except OverflowError:
            out[i] = math.inf
    return out


def erf(x: np.ndarray) -> np.ndarray:
    """The error function as cephes ``ndtr.c`` computes it, evaluated in
    numpy over libm ``exp``: bit for bit the same values, NaN for NaN.

    The |x| <= 1 branch runs over every entry; only the entries past 1
    are gathered for the erfc branches."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x.reshape(-1))
    with np.errstate(over="ignore", invalid="ignore"):
        z = a * a
        y = _polevl(z, _ERF_T)
        y *= a
        y /= _p1evl(z, _ERF_U)
    y[z > _MAXLOG] = 1.0  # erfc underflows to 0
    tail = np.flatnonzero((a > 1.0) & (z <= _MAXLOG))
    if tail.size:
        at = a[tail]
        p, q = _polevl(at, _ERFC_P), _p1evl(at, _ERFC_Q)
        far = np.flatnonzero(at >= 8.0)
        if far.size:
            p[far], q[far] = _polevl(at[far], _ERFC_R), _p1evl(at[far], _ERFC_S)
        y[tail] = 1.0 - _libm_exp(-z[tail]) * p / q
    return np.copysign(y, x.reshape(-1), out=y).reshape(x.shape)


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), in that operation order and
    over libm ``exp``: bit for bit the values of cephes-era C code."""
    x = np.asarray(x, dtype=np.float64)
    return (1.0 / (1.0 + _libm_exp(-x.reshape(-1)))).reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF via erf (no tanh shortcut);
    erf is cephes' evaluated in numpy over libm exp."""
    xd = a.data
    phi = 0.5 * (1.0 + erf(xd / _SQRT2))
    out = Tensor(xd * phi)
    a_slot = a.slot

    def bw(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        a_slot.accumulate(g * (phi + xd * pdf))

    _record(out, bw)
    return out


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    factor = np.where(a.data >= 0.0, 1.0, slope)
    out = Tensor(a.data * factor)
    a_slot = a.slot

    def bw(g):
        a_slot.accumulate(g * factor)

    _record(out, bw)
    return out


def clamp01(a: Tensor) -> Tensor:
    """Clip to [0, 1]; gradient passes through the closed interval only."""
    out = Tensor(np.clip(a.data, 0.0, 1.0))
    inside = (a.data >= 0.0) & (a.data <= 1.0)
    a_slot = a.slot

    def bw(g):
        a_slot.accumulate(g * inside)

    _record(out, bw)
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout while a tape records: keep each entry where
    ``rng.random(shape) >= rate`` and scale it by 1/(1 - rate). Outside a
    tape, or at rate 0, it returns ``a`` itself and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    if active_tape() is None or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * keep)
    a_slot = a.slot

    def bw(g):
        a_slot.accumulate(g * keep)

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# normalization


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift per channel."""
    if x.shape[-1] != gain.data.shape[-1] or x.shape[-1] != bias.data.shape[-1]:
        raise InputError(
            f"layer_norm channel mismatch: x {x.shape}, gain {gain.shape}, bias {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data
    out = Tensor(xhat * gd + bias.data)
    x_slot, gain_slot, bias_slot = x.slot, gain.slot, bias.slot

    def bw(g):
        gain_slot.accumulate((g * xhat).sum(axis=0))
        bias_slot.accumulate(g.sum(axis=0))
        gh = g * gd
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        x_slot.accumulate(inv * (gh - m1 - xhat * m2))

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# spatial ops: (H*W, C) sequences in and out, run channels-first on the
# (C, H, W) map each folds inside itself. Arrays handed on keep the memory
# order later reductions round by: outputs are C-contiguous sequences, and
# x's gradient is the transposed view ``dx.reshape(c, -1).T`` of the map's.
#
# The convolutions keep the input sequence, not its im2col columns (k*k
# times larger): conv2d rebuilds the columns in backward for its weight
# gradient; depthwise_conv2d builds none and runs its forward and both
# gradients one shifted window at a time.


def _check_fold(x: Tensor, height: int, width: int, op: str) -> None:
    if x.ndim != 2 or x.shape[0] != height * width:
        raise InputError(f"{op} needs an (H*W, C) sequence that folds to {height}x{width}, got {x.shape}")


def _map(a: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (C, H, W) view of an (H*W, C) sequence."""
    return a.T.reshape(-1, height, width)


def _seq(m: np.ndarray) -> np.ndarray:
    """A (C, H, W) map as a C-contiguous (H*W, C) sequence."""
    return np.ascontiguousarray(m.reshape(m.shape[0], -1).T)


def _hand_back(x_slot: GradSlot, dx: np.ndarray) -> None:
    """Give x the gradient of its folded map, dx, a fresh (C, H, W) array
    or a view into one."""
    x_slot.accumulate(np.ascontiguousarray(dx.reshape(dx.shape[0], -1)).T, owned=True)


def _windows(x: np.ndarray, k: int):
    """The k*k shifted (C, H, W) views of the zero-padded map, with their
    kernel offsets (di, dj), in row-major kernel order."""
    _, h, w = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    for di in range(k):
        for dj in range(k):
            yield di, dj, xp[:, di : di + h, dj : dj + w]


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    c, h, w = x.shape
    cols = np.empty((c, k, k, h, w), dtype=np.float64)
    for di, dj, window in _windows(x, k):
        cols[:, di, dj] = window
    return cols


def _scatter_windows(tap, shape: tuple[int, int, int], k: int) -> np.ndarray:
    """The adjoint of _windows: adds tap(di, dj), one (C, H, W) array per
    kernel offset in row-major kernel order, into the zero-padded map's
    window at that offset, and returns the unpadded part."""
    c, h, w = shape
    pad = k // 2
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            dxp[:, di : di + h, dj : dj + w] += tap(di, dj)
    return dxp[:, pad : pad + h, pad : pad + w]


def conv2d(x: Tensor, height: int, width: int, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 2D convolution of an (H*W, C_in) sequence with
    (C_out, C_in, k, k) weights plus a (C_out,) bias, to an (H*W, C_out)
    sequence."""
    _check_fold(x, height, width, "conv2d")
    if w.ndim != 4:
        raise InputError(f"conv2d needs (O,C,k,k) weights, got {w.shape}")
    c_out, c_in, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise InputError(f"conv2d kernel must be square and odd, got {k}x{k2}")
    if c_in != x.shape[1]:
        raise InputError(f"conv2d channel mismatch: input {x.shape} vs weights {w.shape}")
    if b.shape != (c_out,):
        raise InputError(f"conv2d bias must be ({c_out},), got {b.shape}")

    xd, wd = x.data, w.data

    def columns():
        return _im2col(_map(xd, height, width), k).reshape(c_in * k * k, -1)

    y = _seq(wd.reshape(c_out, -1) @ columns())
    y += b.data
    out = Tensor(y)
    x_slot, w_slot, b_slot = x.slot, w.slot, b.slot

    def bw(g):
        g2 = np.ascontiguousarray(g.T)
        w_slot.accumulate((g2 @ columns().T).reshape(wd.shape))
        b_slot.accumulate(g2.sum(axis=1))
        dcols = (wd.reshape(c_out, -1).T @ g2).reshape(c_in, k, k, height, width)
        _hand_back(x_slot, _scatter_windows(lambda di, dj: dcols[:, di, dj], (c_in, height, width), k))

    _record(out, bw)
    return out


def depthwise_conv2d(x: Tensor, height: int, width: int, w: Tensor) -> Tensor:
    """Per-channel same-padded convolution of an (H*W, C) sequence, (C,k,k) kernels."""
    _check_fold(x, height, width, "depthwise_conv2d")
    if w.ndim != 3:
        raise InputError(f"depthwise_conv2d needs (C,k,k) kernels, got {w.shape}")
    c = x.shape[1]
    ck, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise InputError(f"depthwise kernel must be square and odd, got {k}x{k2}")
    if ck != c:
        raise InputError(f"depthwise channel mismatch: input {x.shape} vs kernels {w.shape}")

    xd, wd = x.data, w.data

    def windows():
        # C-ordered padding for every shape, so the dw sums reduce alike
        return _windows(np.ascontiguousarray(_map(xd, height, width)), k)

    # tap by tap in kernel order, from +0.0 as numpy's sum over the taps
    # starts: the same rounding and signed zeros as that sum
    y = np.zeros((c, height, width))
    for di, dj, window in windows():
        y += wd[:, di, dj, None, None] * window
    out = Tensor(_seq(y))
    x_slot, w_slot = x.slot, w.slot

    def bw(g):
        g = _map(g, height, width)
        # one window at a time: each tap's sum runs over the same
        # contiguous H*W products as a row of the column array did
        dw = np.empty_like(wd)
        for di, dj, window in windows():
            dw[:, di, dj] = (window * g).reshape(c, -1).sum(axis=1)
        w_slot.accumulate(dw)
        _hand_back(x_slot, _scatter_windows(lambda di, dj: wd[:, di, dj, None, None] * g, (c, height, width), k))

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# 2x resampling


def bilinear_downsample2x(x: Tensor, height: int, width: int) -> Tensor:
    """Halve an (H*W, C) sequence's map: the 2x2 block mean (aligned centers)."""
    _check_fold(x, height, width, "downsample")
    if height % 2 or width % 2:
        raise InputError(f"downsample needs even spatial dims, got {height}x{width}")
    c = x.shape[1]
    d = _map(x.data, height, width)
    y = 0.25 * (d[:, ::2, ::2] + d[:, 1::2, ::2] + d[:, ::2, 1::2] + d[:, 1::2, 1::2])
    out = Tensor(_seq(y))
    x_slot = x.slot

    def bw(g):
        dx = np.zeros((c, height, width))
        q = 0.25 * _map(g, height // 2, width // 2)
        dx[:, ::2, ::2] += q
        dx[:, 1::2, ::2] += q
        dx[:, ::2, 1::2] += q
        dx[:, 1::2, 1::2] += q
        _hand_back(x_slot, dx)

    _record(out, bw)
    return out


def bilinear_upsample2x(x: Tensor, height: int, width: int) -> Tensor:
    """Double an (H*W, C) sequence's map bilinearly, edge-replicated, on
    the taps ``imageio.resize_bilinear`` uses for the same sizes."""
    _check_fold(x, height, width, "upsample")
    c = x.shape[1]
    r0, r1, fr = linear_taps(height, 2 * height)
    c0, c1, fc = linear_taps(width, 2 * width)
    d = _map(x.data, height, width)
    fr_ = fr[None, :, None]
    fc_ = fc[None, None, :]
    top = (1.0 - fc_) * d[:, r0][:, :, c0] + fc_ * d[:, r0][:, :, c1]
    bot = (1.0 - fc_) * d[:, r1][:, :, c0] + fc_ * d[:, r1][:, :, c1]
    out = Tensor(_seq((1.0 - fr_) * top + fr_ * bot))
    x_slot = x.slot

    def bw(g):
        g = _map(g, 2 * height, 2 * width)
        dx = np.zeros((c, height, width))
        rows = (r0, r1)
        cols = (c0, c1)
        wr = (1.0 - fr_, fr_)
        wc = (1.0 - fc_, fc_)
        for a in range(2):
            for b_ in range(2):
                np.add.at(dx, (slice(None), rows[a][:, None], cols[b_][None, :]), wr[a] * wc[b_] * g)
        _hand_back(x_slot, dx)

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# row gather, concatenation and the output fold


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation of range(L), checked in O(L): with L
    in-range entries, a slot left unwritten means some entry repeats."""
    n = perm.size
    if perm.ndim != 1 or (n and (perm.min() < 0 or perm.max() >= n)):
        raise InputError(f"not a permutation of range({n})")
    inv = np.full(n, -1, dtype=np.int64)
    inv[perm] = np.arange(n)
    if (inv < 0).any():
        raise InputError(f"not a permutation of range({n})")
    return inv


def permute_gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows of x at distinct indices: a permutation of range(L) reorders
    the rows, a shorter index selects some. Backward writes each output
    row's gradient to its source row; a repeated index would keep only
    one of that row's gradients, so it is rejected."""
    idx = np.asarray(idx, dtype=np.int64)
    n = x.shape[0]
    if idx.ndim != 1:
        raise InputError(f"row index must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"row index out of range({n})")
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) != idx.size:
        raise InputError("row index repeats an entry")
    # the same copy as x.data[idx], without fancy indexing's overhead
    out = Tensor(np.take(x.data, idx, axis=0))
    x_shape, x_slot = x.shape, x.slot

    def bw(g):
        dx = np.zeros(x_shape)
        dx[idx] = g
        x_slot.accumulate(dx, owned=True)

    _record(out, bw)
    return out


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """Join two tensors along ``axis``; every other dim must match."""
    if a.ndim != b.ndim or a.shape[:axis] + a.shape[axis + 1 :] != b.shape[:axis] + b.shape[axis + 1 :]:
        raise InputError(f"concat on axis {axis} needs matching other dims, got {a.shape}, {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=axis))
    split, a_slot, b_slot = a.shape[axis], a.slot, b.slot

    def bw(g):
        ga, gb = np.split(g, [split], axis=axis)
        a_slot.accumulate(ga)
        b_slot.accumulate(gb)

    _record(out, bw)
    return out


def seq_to_map(x: Tensor, height: int, width: int) -> Tensor:
    """(H*W, C) token sequence to a C-contiguous (C, H, W) map."""
    _check_fold(x, height, width, "seq_to_map")
    out = Tensor(np.ascontiguousarray(_map(x.data, height, width)))
    x_slot = x.slot

    def bw(g):
        x_slot.accumulate(g.reshape(g.shape[0], -1).T)

    _record(out, bw)
    return out
