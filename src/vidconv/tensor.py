"""Dense float tensors with tape-based reverse-mode automatic differentiation.

Covers exactly the operator set the collage video network needs: depth-wise
dilated and non-overlapping dense 2D cross-correlation, channel layer norm,
GELU, global pooling, a linear layer, softmax cross-entropy, and small
elementwise and data-movement helpers. Arrays are 32-bit by default; passing
float64 inputs runs every op in a 64-bit shadow mode used by the gradient
checks.
"""
from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError


def _as_float_array(data, dtype):
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float32)


class Tensor:
    """Row-major dense array of reals (0 to 4 axes) with optional grad tracking.

    Data is immutable by convention after construction, except where a caller
    lets ``gelu`` write over an input that nothing reads afterwards
    (``overwrite_x``). Gradients are never written in place; two tensors may
    share one. A recorded op output
    (see ``recording``) gets a ``_Node`` on the tape, which links to its
    parents' nodes, not to the parent tensors: an op output that no
    ``grad_fn`` reads is freed once the caller lets go of it. An unrecorded
    output has no node and does not require grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = _as_float_array(data, dtype)
        if arr.ndim > 4:
            raise ShapeError(f"tensors support up to 4 axes, got shape {arr.shape}")
        if any(n <= 0 for n in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    # perfbench's tracer times backward by reading and wrapping each op
    # output's ``_grad_fn``, so it stays an attribute of the tensor.
    @property
    def _grad_fn(self):
        return None if self._node is None else self._node.grad_fn

    @_grad_fn.setter
    def _grad_fn(self, fn):
        self._node.grad_fn = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={'yes' if self.requires_grad else 'no'})"


_recording = True


@contextmanager
def recording(on: bool):
    """Within the block, op outputs are recorded on the tape iff ``on``.

    The previous setting is restored on exit, also when the block raises.
    The setting is process-wide, like the rest of the tape: not thread-safe.
    """
    global _recording
    saved, _recording = _recording, bool(on)
    try:
        yield
    finally:
        _recording = saved


def _records(*parents) -> bool:
    """Whether an op on ``parents`` will record its output on the tape. An op
    whose output is not recorded may write into its own temporaries, which
    only its backward would have read."""
    return _recording and any(p.requires_grad for p in parents)


_BLOCK = 1 << 16  # elements per block of a cache-blocked pass: a few float32 blocks fit in L2


def all_finite(a: np.ndarray) -> bool:
    """Whether a float array holds no NaN or +-Inf, in one pass and no temporary.

    A C-contiguous array is dotted with itself, at BLAS speed. Squares are
    never negative, so no +Inf can cancel a -Inf: the dot is finite unless an
    element is NaN/Inf or the sum of squares overflows. Any other layout is
    summed in float64, finite on the same terms. A non-finite fast answer is
    confirmed element by element, so large finite values cost time but are
    never reported.
    """
    with np.errstate(over="ignore"):  # an overflow only sends the check to the exact pass
        if a.flags.c_contiguous:
            f = a.reshape(-1)
            fast = np.dot(f, f)
        else:
            fast = a.sum(dtype=np.float64)
    return bool(np.isfinite(fast)) or bool(np.all(np.isfinite(a)))


class _Node:
    """A tensor's place on the tape: the gradient summed so far, its parents'
    nodes (``None`` for a parent that needs no grad), the ``grad_fn`` that maps
    its gradient to theirs, and a weak reference to the tensor, with the shape
    and dtype its gradient must have. ``grad_fn`` closes over the arrays its
    backward reads, so the node keeps no tensor alive."""

    __slots__ = ("grad", "parents", "grad_fn", "ref", "shape", "dtype")

    def __init__(self, t, parents=(), grad_fn=None):
        self.grad = None
        self.parents = parents
        self.grad_fn = grad_fn
        self.ref = weakref.ref(t)
        self.shape = t.data.shape
        self.dtype = t.data.dtype


def _parent_node(t):
    # A leaf's node is made here, one per use, and has no grad_fn: backward
    # hands each gradient for it straight to the tensor.
    if not t.requires_grad:
        return None
    return t._node if t._node is not None else _Node(t)


def _from_op(data, parents, grad_fn, what):
    """Build an op output, checked by ``all_finite`` on every call, taped or
    not. It gets a tape node linked to its parents' nodes iff recording is on
    and any parent requires grad; otherwise ``grad_fn`` and whatever it closes
    over are dropped here. Either way the output holds no parent tensor."""
    if not all_finite(data):
        raise NumericsError(f"{what} produced NaN/Inf values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _records(*parents)
    out._node = None
    if out.requires_grad:
        out._node = _Node(out, tuple(_parent_node(p) for p in parents), grad_fn)
    return out


def _check_same_dtype(*tensors):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"mixed dtypes in op: {dt} vs {t.dtype}")
    return dt


def parameter(data, dtype=np.float32) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def backward(root: Tensor):
    """Reverse-mode accumulation from a scalar root through its single-use tape.

    The walk runs over tape nodes. A leaf's gradients go to the tensor as they
    arrive (``g``, or ``grad + g`` onto a gradient it already has). An op
    output's node sums its gradients, hands the sum to its tensor if that is
    still alive (the root, captured stage outputs, logits the caller holds),
    runs its ``grad_fn`` and lets go of it, so every activation only that
    ``grad_fn`` read is freed as the walk passes.
    """
    if root.ndim != 0:
        raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not track gradients")
    if root._grad_fn is None:
        raise RuntimeError("backward root has no tape: a leaf, or backward already ran on it")

    # Iterative topological sort over the nodes still to walk; leaves, and
    # outputs an earlier backward walked, have no grad_fn and take no turn.
    topo, visited, stack = [], set(), [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p.grad_fn is not None and p not in visited:
                stack.append((p, False))

    root._node.grad = np.ones((), dtype=root.dtype)
    while topo:
        node = topo.pop()
        t = node.ref()
        if t is not None:
            t.grad = node.grad
        grads = node.grad_fn(node.grad)
        for p, g in zip(node.parents, grads):
            if p is None:
                continue
            if g.shape != p.shape or g.dtype != p.dtype:
                raise ShapeError(f"grad {g.dtype} {g.shape} for tensor {p.dtype} {p.shape}")
            if p.grad_fn is not None:
                p.grad = g if p.grad is None else p.grad + g
            elif (pt := p.ref()) is not None:
                pt.grad = g if pt.grad is None else pt.grad + g
        # Release the gradient and the closure so saved activations can be freed.
        node.grad, node.parents, node.grad_fn = None, (), None


# ---------------------------------------------------------------------------
# elementwise / movement ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _from_op(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _from_op(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def mul_const(x: Tensor, arr) -> Tensor:
    """Elementwise product with an untracked array (drop-path masks)."""
    arr = np.asarray(arr, dtype=x.dtype)
    return _from_op(x.data * arr, (x,), lambda g: (g * arr,), "mul_const")


def scale_channels(x: Tensor, alpha: Tensor) -> Tensor:
    """Multiply a (N, C, H, W) map by a learnable per-channel vector (C,)."""
    _check_same_dtype(x, alpha)
    if x.ndim != 4 or alpha.ndim != 1 or alpha.shape[0] != x.shape[1]:
        raise ShapeError(f"scale_channels: x {x.shape}, alpha {alpha.shape}")
    xd, a4 = x.data, alpha.data[None, :, None, None]

    def grad_fn(g):
        return g * a4, np.einsum("nchw,nchw->c", g, xd, optimize=True)

    return _from_op(xd * a4, (x, alpha), grad_fn, "scale_channels")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape
    return _from_op(x.data.reshape(shape), (x,),
                    lambda g: (g.reshape(old),), "reshape")


def sum_all(x: Tensor) -> Tensor:
    shape, dt = x.shape, x.dtype

    def grad_fn(g):
        return (np.full(shape, g, dtype=dt),)

    return _from_op(x.data.sum(dtype=x.dtype), (x,), grad_fn, "sum_all")


# ---------------------------------------------------------------------------
# convolution


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2D cross-correlation: kernel/stride/dilation/padding/groups."""

    kernel: tuple
    stride: tuple = (1, 1)
    dilation: tuple = (1, 1)
    padding: tuple = (0, 0)
    groups: int = 1

    def out_extent(self, size: int, axis: int) -> int:
        k = self.kernel[axis]
        s = self.stride[axis]
        d = self.dilation[axis]
        p = self.padding[axis]
        return (size + 2 * p - d * (k - 1) - 1) // s + 1

    def validate(self, in_channels: int, out_channels: int):
        for name, pair in (("kernel", self.kernel), ("stride", self.stride),
                           ("dilation", self.dilation)):
            if len(pair) != 2 or any(int(v) < 1 for v in pair):
                raise ShapeError(f"ConvSpec {name} must be two positive ints, got {pair}")
        if len(self.padding) != 2 or any(int(v) < 0 for v in self.padding):
            raise ShapeError(f"ConvSpec padding must be two non-negative ints, got {self.padding}")
        if self.groups < 1:
            raise ShapeError(f"groups must be positive, got {self.groups}")
        if in_channels % self.groups or out_channels % self.groups:
            raise ShapeError(
                f"channels ({in_channels} -> {out_channels}) not divisible by groups={self.groups}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, spec: ConvSpec) -> Tensor:
    """2D cross-correlation NCHW -> NC'H'W', depth-wise or dense, plus a bias.

    ``weight`` is (Cout, Cin/groups, kh, kw) and ``bias`` is (Cout,): every
    conv in the model has one. Depth-wise convs run at stride 1, with any
    dilation and padding, on channel-major (C, Hp*N, Wp) copies of the padded
    input, made a block of channels at a time and kept by neither the output
    nor the tape (see ``_conv_depthwise``); a dense conv must read each input
    pixel exactly once (see ``_conv_dense``). Any other conv raises
    ``ShapeError``. Differentiable with respect to input, weight, and bias; a
    dense conv's backward skips the gradient of an input that needs none.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input/weight, got {x.shape} / {weight.shape}")
    n, cin, h, w = x.shape
    cout, cpg, kh, kw = weight.shape
    spec.validate(cin, cout)
    if (kh, kw) != tuple(spec.kernel):
        raise ShapeError(f"weight kernel {(kh, kw)} does not match spec {spec.kernel}")
    if cpg != cin // spec.groups:
        raise ShapeError(f"weight expects {cpg} channels/group, input gives {cin // spec.groups}")
    _check_same_dtype(x, weight, bias)
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
    ho = spec.out_extent(h, 0)
    wo = spec.out_extent(w, 1)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output extent not positive: {(ho, wo)} for input {(h, w)}")

    # Two kernels: depth-wise at stride 1 (the block's 7x7 and the temporal
    # branch) -> channel-major banded GEMM; dense (1x1, stem, downsample,
    # neck) -> reshape + GEMM. The model downsamples only in its dense convs.
    # Depth-wise is checked first: a 1-channel stride-1 conv is both.
    if spec.groups == cin and cout == cin and cpg == 1 and tuple(spec.stride) == (1, 1):
        y, grad_fn = _conv_depthwise(x.data, weight.data, spec, ho, wo)
    elif spec.groups == 1:
        y, grad_fn = _conv_dense(x.data, weight.data, spec, ho, wo, x.requires_grad)
    else:
        raise ShapeError(f"conv2d runs depth-wise convs (groups == cin == cout) at stride 1 with "
                         f"any dilation and padding, and dense convs (groups=1) that read each "
                         f"input pixel once: got {spec} on {cin} -> {cout} channels")

    y += bias.data[None, :, None, None]  # y is freshly allocated above
    return _from_op(y, (x, weight, bias), grad_fn, "conv2d")


def _bias_grad(g):
    return g.sum(axis=(0, 2, 3))


def _conv_depthwise(x, weight, spec, ho, wo):
    # Banded GEMM over a channel-major copy of the padded input, (C, Hp*N, Wp):
    # padded row r of frame f is row r*N + f, so at stride 1 kernel row i reads
    # the contiguous rows [i*dh*N, i*dh*N + Ho*N) of each channel, one (Ho*N, Wp)
    # matrix, times that channel's (Wp, Wo) band, which holds row i's kw taps
    # at columns o + j*dw: one GEMM per channel and kernel row, N frames tall.
    # The weight gradient sums the frames inside its GEMM (K = Ho*N). BLAS
    # spends extra MACs on the band's zeros, but nothing like the (kh*kw)x
    # patch copy of a window view plus einsum is built.
    # The channels are walked in blocks whose (Ho*N, Wp) row matrices hold
    # about _BLOCK floats, so a block's copy, row sums and gradients stay in
    # cache and no input-sized channel-major copy exists. Backward copies
    # each block again from x rather than keep the copies on the tape.
    # Serves stride 1 with any dilation and padding: the 7x7 spatial conv and
    # the temporal branch (kernel = grid, dilation = tile, no padding).
    n, c, h, w = x.shape
    kh, kw = spec.kernel
    dh, dw = spec.dilation
    ph, pw = spec.padding
    hp, wp = h + 2 * ph, w + 2 * pw
    w3 = weight.reshape(c, kh, kw)
    cols = np.arange(wo)
    taps = cols + np.arange(kw)[:, None] * dw  # (kw, Wo) band row of each tap
    span = [slice(r, r + ho * n) for r in range(0, kh * dh * n, dh * n)]  # rows of kernel row i
    cb = max(1, _BLOCK // (ho * n * wp))
    blocks = [slice(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]

    def channel_major(a, blk):
        # channels blk of (N, C, H, W) -> (cb, Hp*N, Wp), zero-padded. Unpadded
        # (the temporal branch) at N = 1 (every eval clip) it is a view of a.
        if ph == pw == 0:
            return np.ascontiguousarray(a[:, blk].transpose(1, 2, 0, 3)).reshape(-1, hp * n, wp)
        t = np.zeros((blk.stop - blk.start, hp, n, wp), dtype=a.dtype)
        t[:, ph: ph + h, :, pw: pw + w] = a[:, blk].transpose(1, 2, 0, 3)
        return t.reshape(-1, hp * n, wp)

    def band(i, blk):
        # Built per block and row, and again in backward rather than kept: a
        # training tape would hold all kh bands of every depth-wise conv alive
        # until backward.
        b = np.zeros((blk.stop - blk.start, wp, wo), dtype=x.dtype)
        b[:, taps, cols] = w3[blk, i, :, None]
        return b

    y = np.empty((n, c, ho, wo), dtype=x.dtype)
    acc = np.empty((min(cb, c), ho * n, wo), dtype=x.dtype)
    tmp = np.empty_like(acc)
    for blk in blocks:
        xt = channel_major(x, blk)
        k = xt.shape[0]
        a, t = acc[:k], tmp[:k]
        np.matmul(xt[:, span[0]], band(0, blk), out=a)
        for i in range(1, kh):
            a += np.matmul(xt[:, span[i]], band(i, blk), out=t)
        y[:, blk] = a.reshape(k, ho, n, wo).transpose(2, 0, 1, 3)

    def grad_fn(g):
        gx = np.empty(x.shape, dtype=x.dtype)
        gw = np.empty((c, kh, kw), dtype=x.dtype)
        tmp = np.empty((min(cb, c), ho * n, wp), dtype=x.dtype)
        for blk in blocks:
            xt = channel_major(x, blk)
            k = xt.shape[0]
            gt = np.ascontiguousarray(g[:, blk].transpose(1, 2, 0, 3)).reshape(k, ho * n, wo)
            gxt = np.zeros_like(xt)
            for i in range(kh):
                b = band(i, blk)
                gxt[:, span[i]] += np.matmul(gt, b.swapaxes(1, 2), out=tmp[:k])
                gband = np.matmul(xt[:, span[i]].swapaxes(1, 2), gt)
                gw[blk, i] = gband[:, taps, cols].sum(axis=2)  # read the kw diagonals back
            gxt = gxt.reshape(k, hp, n, wp)[:, ph: ph + h, :, pw: pw + w]
            gx[:, blk] = gxt.transpose(2, 0, 1, 3)
        return gx, gw.reshape(weight.shape), _bias_grad(g)

    return y, grad_fn


def _conv_dense(x, weight, spec, ho, wo, need_gx):
    # Every dense conv the model runs reads each input pixel exactly once, so
    # im2col is a reshape plus a transpose (a view for 1x1) and its backward
    # is the inverse transpose. Along each axis the input splits into
    # (out, k) when stride = kernel and dilation = 1 (1x1, stem, downsample),
    # or into (k, out) when stride = 1 and dilation = out (the neck: kernel =
    # grid, dilation = tile). Any other geometry raises. Without need_gx (the
    # stem, whose input is the clip) backward returns None for the input.
    n, cin, h, w = x.shape
    cout = weight.shape[0]
    kh, kw = spec.kernel
    split, taps, pixels = [n, cin], [], []
    for k, out, s, d in zip(spec.kernel, (ho, wo), spec.stride, spec.dilation):
        at = len(split)
        if (s, d) == (k, 1):
            split += [out, k]
            taps.append(at + 1)
            pixels.append(at)
        elif (s, d) == (1, out):
            split += [k, out]
            taps.append(at)
            pixels.append(at + 1)
    if len(taps) < 2 or tuple(spec.padding) != (0, 0) or (h, w) != (kh * ho, kw * wo):
        raise ShapeError(f"dense conv2d must read each input pixel once (no padding; per axis "
                         f"stride = kernel, or stride 1 and dilation = output extent): "
                         f"{spec} does not tile a {h}x{w} input")
    perm = (0, 1, *taps, *pixels)
    k = cin * kh * kw
    cols = x.reshape(split).transpose(perm).reshape(n, k, ho * wo)
    w2 = weight.reshape(cout, k)
    y = np.matmul(w2, cols).reshape(n, cout, ho, wo)

    def grad_fn(g):
        gm = g.reshape(n, cout, ho * wo)
        # (cout, k) is the GEMM's own output order, so gw is C-contiguous, not a transposed view
        gw = np.tensordot(gm, cols, axes=([0, 2], [0, 2])).reshape(weight.shape)
        if not need_gx:
            return None, gw, _bias_grad(g)
        gcols = np.matmul(w2.T, gm).reshape(n, cin, kh, kw, ho, wo)
        gx = gcols.transpose(np.argsort(perm)).reshape(x.shape)
        return gx, gw, _bias_grad(g)

    return y, grad_fn


# ---------------------------------------------------------------------------
# normalization / activation / pooling / head ops


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize a (N, C, H, W) map across C at every spatial position."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ShapeError(f"layer_norm_channels expects 4D input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    _check_same_dtype(x, gamma, beta)

    xhat, _, inv = _ln_normalize(x.data, eps)
    g4 = gamma.data[None, :, None, None]
    # Only backward reads xhat, so without a tape y may take its buffer.
    y = xhat * g4 if _records(x, gamma, beta) else np.multiply(xhat, g4, out=xhat)
    y += beta.data[None, :, None, None]

    def grad_fn(g):
        return _ln_grad(g, xhat, inv, g4)

    return _from_op(y, (x, gamma, beta), grad_fn, "layer_norm_channels")


def _ln_normalize(x, eps):
    """(x - mean) * inv_std over axis 1 of a (N, C, H, W) array, as a new array,
    with the per-position mean and inverse std, each (N, 1, H, W)."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    return np.multiply(xc, inv, out=xc), mu, inv  # xc not needed past this point


def _ln_grad(g, xhat, inv, g4):
    """Channel layer norm's input, gamma and beta gradients for upstream ``g``."""
    gxh = g * g4
    m1 = gxh.mean(axis=1, keepdims=True)
    m2 = (gxh * xhat).mean(axis=1, keepdims=True)
    gx = inv * (gxh - m1 - xhat * m2)
    ggamma = np.einsum("nchw,nchw->c", g, xhat, optimize=True)
    return gx, ggamma, g.sum(axis=(0, 2, 3))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor, overwrite_x: bool = False) -> Tensor:
    """Elementwise GELU, tanh approximation.

    The forward walks flat views in blocks of ``_BLOCK`` elements, so each
    block's chain of passes stays in cache. Every element sees the same ops in
    the same order as the whole-array chain. Each block's tanh goes to
    scratch; taped, dy/dx is computed from x and tanh at once, with the ops
    and order of the whole-array backward, before y is written. The tape
    keeps dy/dx alone, not x or tanh, and backward multiplies it by the
    incoming gradient in place.

    ``overwrite_x`` lets y be written into x's buffer, as ``scipy.linalg``'s
    ``overwrite_a`` does: a caller passes it only when nothing reads x's data
    afterwards. It takes effect when ``x.data`` is C-contiguous and writeable;
    otherwise y is a new array, as without it.
    """
    if overwrite_x and x.data.flags.c_contiguous and x.data.flags.writeable:
        y = x.data
    else:
        y = np.empty(x.shape, dtype=x.dtype)
    d = np.empty(x.shape, dtype=x.dtype) if _records(x) else None
    _gelu_blocks(x.data.reshape(-1), y.reshape(-1), None if d is None else d.reshape(-1))

    def grad_fn(g):
        return (np.multiply(d, g, out=d),)  # the tape is walked once, so d is free to take

    return _from_op(y, (x,), grad_fn, "gelu")


def _gelu_blocks(xf, yf, df=None):
    """GELU of the flat array ``xf`` into ``yf`` (which may be ``xf``), and
    with ``df`` its dy/dx, ``_BLOCK`` elements at a time (see ``gelu``)."""
    th = np.empty(min(xf.size, _BLOCK), dtype=xf.dtype)
    if df is not None:
        scratch = np.empty_like(th)
    # A non-finite x makes NaNs here (inf * 0, or 0 * -inf) that y shows, so
    # the finite check on y reports it, not a warning from these passes.
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(0, xf.size, _BLOCK):
            blk = slice(s, s + _BLOCK)
            xb, yb = xf[blk], yf[blk]
            tb = th[:xb.size]
            np.multiply(xb, xb, out=tb)
            tb *= xb
            tb *= _GELU_A
            tb += xb
            tb *= _GELU_C
            np.tanh(tb, out=tb)
            if df is not None:
                db, a = df[blk], scratch[:xb.size]
                np.multiply(tb, tb, out=a)
                np.subtract(1.0, a, out=a)           # sech2 = 1 - th*th
                np.multiply(0.5, xb, out=db)
                db *= a                              # (0.5*x)*sech2
                np.multiply(xb, xb, out=a)
                np.multiply(3.0 * _GELU_A, a, out=a)
                a += 1.0
                a *= _GELU_C                         # du = C*(1 + 3A*(x*x))
                db *= a
                np.add(tb, 1.0, out=a)
                a *= 0.5
                db += a                              # d = 0.5*(1+th) + ((0.5*x)*sech2)*du
            tb += 1.0
            tb *= xb
            np.multiply(tb, 0.5, out=yb)             # x's last read is above: yb may be xb


def _position_tiles(n, c, h, w):
    """Index tuples of the tiles ``pointwise_mlp`` walks on an (N, C, H, W) map,
    each a 4-D view of about ``_BLOCK // C`` positions, so that the tile's C
    channels span about ``_BLOCK`` floats: runs of whole items where an item
    is smaller, otherwise bands of whole rows of one item. The last run or
    band may be short."""
    p = max(1, _BLOCK // c)
    if h * w <= p:
        run = p // (h * w)
        return [(slice(i, i + run),) for i in range(0, n, run)]
    rows = max(1, p // w)
    return [(slice(i, i + 1), slice(None), slice(r, r + rows))
            for i in range(n) for r in range(0, h, rows)]


def pointwise_mlp(f: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                  w2: Tensor, b2: Tensor, scale: Tensor, eps: float = 1e-6) -> Tensor:
    """A block's pointwise half on a (N, C, H, W) map, one tile at a time:
    ``scale * (pw2(gelu(pw1(layer_norm_channels(f, gamma, beta)))))``, where
    pw1 and pw2 are 1x1 convs with (K, C, 1, 1) and (C, K, 1, 1) weights.

    Each tile (see ``_position_tiles``) calls the public ``conv2d`` and
    ``gelu(overwrite_x=True)`` with recording off, so the output is bit for
    bit that of the five ops in turn, each of those calls runs its finite
    check, and its (K, P) hidden maps stay in cache. The tape keeps ``f`` and
    the per-position mean and inverse std of the norm: one C map, where the
    five ops keep eleven (gradient checkpointing, Chen et al., arXiv
    1604.06174). Backward rebuilds each tile's norm, pw1 and GELU (the GEMM
    ``conv2d`` runs and ``_gelu_blocks``, so no finite check runs twice and
    no MAC is counted twice), and sums the parameter gradients tile by tile.
    It does not rebuild pw2's output: the scale's gradient, the sum over
    positions of g * (W2 a + b2), is read off the (C, K) sum of g a^T that
    pw2's weight gradient needs anyway.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if f.ndim != 4:
        raise ShapeError(f"pointwise_mlp expects 4D input, got {f.shape}")
    n, c, h, w = f.shape
    k = w1.shape[0]
    want = {"gamma": (c,), "beta": (c,), "w1": (k, c, 1, 1), "b1": (k,),
            "w2": (c, k, 1, 1), "b2": (c,), "scale": (c,)}
    got = dict(gamma=gamma, beta=beta, w1=w1, b1=b1, w2=w2, b2=b2, scale=scale)
    bad = {name: t.shape for name, t in got.items() if t.shape != want[name]}
    if bad:
        raise ShapeError(f"pointwise_mlp on {c} channels with hidden width {k}: bad shapes {bad}")
    params = (gamma, beta, w1, b1, w2, b2, scale)
    _check_same_dtype(f, *params)

    taped = _records(f, *params)
    tiles = _position_tiles(n, c, h, w)
    one = ConvSpec(kernel=(1, 1))
    g4, beta4, s4 = (t.data[None, :, None, None] for t in (gamma, beta, scale))
    out = np.empty(f.shape, dtype=f.dtype)
    if taped:
        mu, inv = np.empty((n, 1, h, w), dtype=f.dtype), np.empty((n, 1, h, w), dtype=f.dtype)
    with recording(False):
        for t in tiles:
            xhat, mu_t, inv_t = _ln_normalize(f.data[t], eps)
            if taped:
                mu[t], inv[t] = mu_t, inv_t
            y = np.multiply(xhat, g4, out=xhat)
            y += beta4
            a = gelu(conv2d(Tensor(y), w1, b1, one), overwrite_x=True)
            np.multiply(conv2d(a, w2, b2, one).data, s4, out=out[t])

    fd, w1m, b1d = f.data, w1.data.reshape(k, c), b1.data[:, None]
    w2m, b2d, sd = w2.data.reshape(c, k), b2.data, scale.data

    def grad_fn(g):
        gf = np.empty_like(fd)
        gw1, gb1 = np.zeros((k, c), dtype=fd.dtype), np.zeros(k, dtype=fd.dtype)
        ggamma, gbeta = np.zeros(c, dtype=fd.dtype), np.zeros(c, dtype=fd.dtype)
        gza = np.zeros((c, k), dtype=fd.dtype)  # sum over positions of g * GELU output^T
        gsum = np.zeros(c, dtype=fd.dtype)
        w2s_t = (w2m * sd[:, None]).T  # pw2's input gradient with the scale folded in
        for t in tiles:
            xhat = np.subtract(fd[t], mu[t])
            xhat *= inv[t]
            y = xhat * g4
            y += beta4
            m = y.shape[0]
            y3 = y.reshape(m, c, -1)
            a = np.matmul(w1m, y3)  # pw1's GEMM in conv2d, so a is the forward's
            a += b1d
            d = np.empty_like(a)
            _gelu_blocks(a.reshape(-1), a.reshape(-1), d.reshape(-1))
            gt = g[t].reshape(m, c, -1)
            gza += np.matmul(gt, a.swapaxes(1, 2)).sum(axis=0)
            gsum += gt.sum(axis=(0, 2))
            ga = np.matmul(w2s_t, gt)
            ga *= d
            gw1 += np.matmul(ga, y3.swapaxes(1, 2)).sum(axis=0)
            gb1 += ga.sum(axis=(0, 2))
            gy = np.matmul(w1m.T, ga).reshape(xhat.shape)
            gf[t], gg, gbt = _ln_grad(gy, xhat, inv[t], g4)
            ggamma += gg
            gbeta += gbt
        # pw2's output is W2 a + b2, so sum(g * it) over positions is the
        # diagonal of W2 gza^T plus b2 * sum(g)
        gscale = np.einsum("ck,ck->c", w2m, gza) + b2d * gsum
        gw2 = (gza * sd[:, None]).reshape(c, k, 1, 1)
        return gf, ggamma, gbeta, gw1.reshape(k, c, 1, 1), gb1, gw2, gsum * sd, gscale

    return _from_op(out, (f, *params), grad_fn, "pointwise_mlp")


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) mean over the spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    y = x.data.mean(axis=(2, 3))

    def grad_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)),)

    return _from_op(y, (x,), grad_fn, "global_avg_pool")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """(N, Cin) @ (Cout, Cin)^T + bias (Cout,): the head's classifier."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: x {x.shape} vs weight {weight.shape}")
    _check_same_dtype(x, weight, bias)
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} != ({weight.shape[0]},)")
    xd, wd = x.data, weight.data
    y = xd @ wd.T + bias.data

    def grad_fn(g):
        gx = g @ wd
        gw = g.T @ xd
        return gx, gw, g.sum(axis=0)

    return _from_op(y, (x, weight, bias), grad_fn, "linear")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain ndarray softmax over the last axis (numerically stable)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple:
    """Mean negative log-likelihood over a batch.

    Returns ``(loss, probs)`` where loss is a scalar tensor on the tape and
    probs is a plain (N, K) ndarray with rows summing to 1.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")

    dt = logits.dtype
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    probs = np.exp(logp)
    loss_val = np.asarray(-logp[np.arange(n), labels].mean(), dtype=dt)

    def grad_fn(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        return ((g / n) * gl.astype(dt),)

    loss = _from_op(loss_val, (logits,), grad_fn, "softmax_cross_entropy")
    return loss, probs
