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

    Data is immutable by convention after construction, and gradients are
    never written in place; two tensors may share one. A recorded op output
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
    conv in the model has one. Depth-wise convs take any stride, dilation and
    padding, and run on channel-major (C, H, N, W) copies of the input, made a
    block of channels at a time and kept by neither the output nor the tape
    (see ``_conv_depthwise``); a dense conv must read each input pixel
    exactly once (see ``_conv_dense``). Differentiable with respect to
    input, weight, and bias.
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

    # Two kernels: depth-wise (the block's 7x7 and the temporal branch) ->
    # channel-major banded GEMM; dense (1x1, stem, downsample, neck) ->
    # reshape + GEMM.
    # Depth-wise is checked first: a 1-channel conv is both.
    if spec.groups == cin and cout == cin and cpg == 1:
        y, grad_fn = _conv_depthwise(x.data, weight.data, spec, ho, wo)
    elif spec.groups == 1:
        y, grad_fn = _conv_dense(x.data, weight.data, spec, ho, wo)
    else:
        raise ShapeError(f"conv2d supports dense (groups=1) or depth-wise (groups == cin == cout) "
                         f"convs, got {cin} -> {cout} channels in {spec.groups} groups")

    y += bias.data[None, :, None, None]  # y is freshly allocated above
    return _from_op(y, (x, weight, bias), grad_fn, "conv2d")


def _bias_grad(g):
    return g.sum(axis=(0, 2, 3))


def _conv_depthwise(x, weight, spec, ho, wo):
    # Banded GEMM over a channel-major copy of the padded input, (C, Hp, N, Wp).
    # For kernel row i the Ho input rows of all N frames form one (Ho*N, Wp)
    # matrix per channel, times that channel's (Wp, Wo) band, which holds row
    # i's kw taps at columns o*sw + j*dw: one GEMM per channel and kernel row,
    # N frames tall. The weight gradient sums the frames inside its GEMM
    # (K = Ho*N). BLAS spends extra MACs on the band's zeros, but nothing like
    # the (kh*kw)x patch copy of a window view plus einsum is built.
    # The channels are walked in blocks whose (Ho*N, Wp) row matrices hold
    # about _BLOCK floats, so a block's copy, row sums and gradients stay in
    # cache and no input-sized channel-major copy exists. Backward copies
    # each block again from x rather than keep the copies on the tape.
    # Serves every stride, dilation and padding: the 7x7 spatial conv and the
    # temporal branch (kernel = grid, dilation = tile, no padding).
    n, c, h, w = x.shape
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    wp = w + 2 * pw
    w3 = weight.reshape(c, kh, kw)
    cols = np.arange(wo)
    taps = cols * sw + np.arange(kw)[:, None] * dw  # (kw, Wo) band row of each tap
    cb = max(1, _BLOCK // (ho * n * wp))
    blocks = [slice(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]

    def channel_major(a, blk):
        # channels blk of (N, C, H, W) -> (cb, Hp, N, Wp), zero-padded. Unpadded
        # (the temporal branch) at N = 1 (every eval clip) it is a view of a.
        if ph == pw == 0:
            return np.ascontiguousarray(a[:, blk].transpose(1, 2, 0, 3))
        t = np.zeros((blk.stop - blk.start, h + 2 * ph, n, wp), dtype=a.dtype)
        t[:, ph: ph + h, :, pw: pw + w] = a[:, blk].transpose(1, 2, 0, 3)
        return t

    def rows(a, i):
        # kernel row i's input rows, (cb, Ho, N, Wp): a view
        return a[:, i * dh: i * dh + (ho - 1) * sh + 1: sh]

    def mat(r):
        # (cb, Ho, N, Wp) -> (cb, Ho*N, Wp): a view at stride 1, a copy otherwise
        return r.reshape(r.shape[0], ho * n, wp)

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
        np.matmul(mat(rows(xt, 0)), band(0, blk), out=a)
        for i in range(1, kh):
            a += np.matmul(mat(rows(xt, i)), band(i, blk), out=t)
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
                # through the 4-D row view: at stride > 1, mat() of it would be a copy
                gx_rows = rows(gxt, i)
                gx_rows += np.matmul(gt, b.swapaxes(1, 2), out=tmp[:k]).reshape(k, ho, n, wp)
                gband = np.matmul(mat(rows(xt, i)).swapaxes(1, 2), gt)
                gw[blk, i] = gband[:, taps, cols].sum(axis=2)  # read the kw diagonals back
            gx[:, blk] = gxt[:, ph: ph + h, :, pw: pw + w].transpose(2, 0, 1, 3)
        return gx, gw.reshape(weight.shape), _bias_grad(g)

    return y, grad_fn


def _conv_dense(x, weight, spec, ho, wo):
    # Every dense conv the model runs reads each input pixel exactly once, so
    # im2col is a reshape plus a transpose (a view for 1x1) and its backward
    # is the inverse transpose. Along each axis the input splits into
    # (out, k) when stride = kernel and dilation = 1 (1x1, stem, downsample),
    # or into (k, out) when stride = 1 and dilation = out (the neck: kernel =
    # grid, dilation = tile). Any other geometry raises.
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

    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = np.multiply(xc, inv, out=xc)  # xc not needed past this point
    g4 = gamma.data[None, :, None, None]
    # Only backward reads xhat, so without a tape y may take its buffer.
    y = xhat * g4 if _records(x, gamma, beta) else np.multiply(xhat, g4, out=xhat)
    y += beta.data[None, :, None, None]

    def grad_fn(g):
        gxh = g * g4
        m1 = gxh.mean(axis=1, keepdims=True)
        m2 = (gxh * xhat).mean(axis=1, keepdims=True)
        gx = inv * (gxh - m1 - xhat * m2)
        ggamma = np.einsum("nchw,nchw->c", g, xhat, optimize=True)
        gbeta = g.sum(axis=(0, 2, 3))
        return gx, ggamma, gbeta

    return _from_op(y, (x, gamma, beta), grad_fn, "layer_norm_channels")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Elementwise GELU, tanh approximation.

    The forward walks flat views in blocks of ``_BLOCK`` elements, so each
    block's chain of passes stays in cache. Every element sees the same ops in
    the same order as the whole-array chain. Untaped, tanh is written into the
    output's block. Taped, each block's tanh goes to scratch and dy/dx is
    computed from it at once, with the ops and order of the whole-array
    backward; the tape keeps dy/dx alone, not x or tanh, and backward
    multiplies it by the incoming gradient in place.
    """
    xf = x.data.reshape(-1)
    y = np.empty(x.shape, dtype=x.dtype)
    yf = y.reshape(-1)
    taped = _records(x)
    if taped:
        d = np.empty(x.shape, dtype=x.dtype)
        df = d.reshape(-1)
        th, scratch = np.empty((2, min(xf.size, _BLOCK)), dtype=x.dtype)
    for s in range(0, xf.size, _BLOCK):
        blk = slice(s, s + _BLOCK)
        xb, yb = xf[blk], yf[blk]
        tb = th[:xb.size] if taped else yb
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= _GELU_A
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=yb)
        yb *= xb
        yb *= 0.5
        if not taped:
            continue
        # A non-finite x makes NaNs here (inf * 0) that y shows as well, so
        # the finite check on y reports it, not a warning from this pass.
        with np.errstate(invalid="ignore", over="ignore"):
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

    def grad_fn(g):
        return (np.multiply(d, g, out=d),)  # the tape is walked once, so d is free to take

    return _from_op(y, (x,), grad_fn, "gelu")


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
