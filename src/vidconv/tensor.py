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

    Data is immutable by convention after construction; only ``grad``
    accumulates. A tensor produced by an op keeps closures over its parents
    until ``backward`` consumes the tape (tapes are single-use).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_consumed")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = _as_float_array(data, dtype)
        if arr.ndim > 4:
            raise ShapeError(f"tensors support up to 4 axes, got shape {arr.shape}")
        if any(n <= 0 for n in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._grad_fn = None
        self._consumed = False

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


def _from_op(data, parents, grad_fn, what):
    """Build an op output: tracks parents iff any of them requires grad."""
    # A single pairwise sum goes non-finite iff the array holds NaN/Inf, and
    # costs one pass instead of isfinite()'s bool temporary.
    if not np.isfinite(data.sum(dtype=np.float64)):
        if not np.all(np.isfinite(data)):
            raise NumericsError(f"{what} produced NaN/Inf values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._consumed = False
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
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
    """Reverse-mode accumulation from a scalar root through its tape.

    Populates ``.grad`` on every tracked tensor reachable from ``root``.
    Each tape is single-use; a second call on the same root raises.
    """
    if root.ndim != 0:
        raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not track gradients")
    if root._consumed:
        raise RuntimeError("backward already ran on this tape; rebuild the graph")
    root._consumed = True

    # Iterative topological sort over tracked nodes.
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones((), dtype=root.dtype)
    for node in reversed(topo):
        if node._grad_fn is None or node.grad is None:
            continue
        grads = node._grad_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if g.shape != parent.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match tensor shape {parent.data.shape}")
            if parent.grad is None:
                parent.grad = g.astype(parent.dtype, copy=True)
            else:
                parent.grad += g
        # Release the closure so saved activations can be freed.
        node._parents = ()
        node._grad_fn = None


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
    return _from_op(a.data * b.data, (a, b),
                    lambda g: (g * b.data, g * a.data), "mul")


def mul_const(x: Tensor, arr) -> Tensor:
    """Elementwise product with an untracked array (dropout / drop-path masks)."""
    arr = np.asarray(arr, dtype=x.dtype)
    return _from_op(x.data * arr, (x,), lambda g: (g * arr,), "mul_const")


def scale_channels(x: Tensor, alpha: Tensor) -> Tensor:
    """Multiply a (N, C, H, W) map by a learnable per-channel vector (C,)."""
    _check_same_dtype(x, alpha)
    if x.ndim != 4 or alpha.ndim != 1 or alpha.shape[0] != x.shape[1]:
        raise ShapeError(f"scale_channels: x {x.shape}, alpha {alpha.shape}")
    a4 = alpha.data[None, :, None, None]

    def grad_fn(g):
        return g * a4, np.einsum("nchw,nchw->c", g, x.data, optimize=True)

    return _from_op(x.data * a4, (x, alpha), grad_fn, "scale_channels")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape
    return _from_op(x.data.reshape(shape), (x,),
                    lambda g: (g.reshape(old),), "reshape")


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.full(x.shape, g, dtype=x.dtype),)
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


def conv2d(x: Tensor, weight: Tensor, bias, spec: ConvSpec) -> Tensor:
    """2D cross-correlation NCHW -> NC'H'W', depth-wise or dense.

    ``weight`` is (Cout, Cin/groups, kh, kw); ``bias`` is (Cout,) or None.
    Depth-wise convs take any stride, dilation and padding; a dense conv must
    read each input pixel exactly once (see ``_conv_dense``). Differentiable
    with respect to input, weight, and bias.
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
    tensors = [x, weight] + ([bias] if bias is not None else [])
    _check_same_dtype(*tensors)
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
    ho = spec.out_extent(h, 0)
    wo = spec.out_extent(w, 1)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output extent not positive: {(ho, wo)} for input {(h, w)}")

    # Two kernels: depth-wise (the block's 7x7 and the temporal branch) ->
    # banded GEMM; dense (1x1, stem, downsample, neck) -> reshape + GEMM.
    # Depth-wise is checked first: a 1-channel conv is both.
    if spec.groups == cin and cout == cin and cpg == 1:
        y, grad_fn = _conv_depthwise(x, weight, bias, spec, ho, wo)
    elif spec.groups == 1:
        y, grad_fn = _conv_dense(x, weight, bias, spec, ho, wo)
    else:
        raise ShapeError(f"conv2d supports dense (groups=1) or depth-wise (groups == cin == cout) "
                         f"convs, got {cin} -> {cout} channels in {spec.groups} groups")

    if bias is not None:
        y += bias.data[None, :, None, None]  # y is freshly allocated above
    parents = (x, weight) + ((bias,) if bias is not None else ())
    return _from_op(y, parents, grad_fn, "conv2d")


def _bias_grad(g):
    return g.sum(axis=(0, 2, 3))


def _conv_depthwise(x, weight, bias, spec, ho, wo):
    # Banded GEMM, one per kernel row i: the row-shifted padded input
    # (N, C, Ho, Wp) times a per-channel (Wp, Wo) band that holds row i's kw
    # taps at columns o*sw + j*dw. BLAS spends extra MACs on the band's zeros,
    # but nothing like the (kh*kw)x patch copy of a window view plus einsum is
    # built. Serves every stride, dilation and padding: the 7x7 spatial conv
    # and the temporal branch (kernel = grid, dilation = tile, no padding).
    n, c = x.shape[:2]
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    wp = xp.shape[3]
    w3 = weight.data.reshape(c, kh, kw)
    cols = np.arange(wo)
    taps = cols * sw + np.arange(kw)[:, None] * dw  # (kw, Wo) band row of each tap

    def rows(a, i):
        return a[:, :, i * dh: i * dh + (ho - 1) * sh + 1: sh, :]

    def band(i):
        # Built per row, and again in backward rather than kept: eval
        # forwards still record a tape, which would hold the band alive.
        b = np.zeros((c, wp, wo), dtype=x.dtype)
        b[:, taps, cols] = w3[:, i, :, None]
        return b

    y = np.matmul(rows(xp, 0), band(0))
    tmp = np.empty_like(y)
    for i in range(1, kh):
        y += np.matmul(rows(xp, i), band(i), out=tmp)

    def grad_fn(g):
        gxp = np.zeros_like(xp)
        gw = np.empty((c, kh, kw), dtype=x.dtype)
        for i in range(kh):
            gx_rows = rows(gxp, i)
            gx_rows += np.matmul(g, band(i).swapaxes(1, 2))
            gband = np.matmul(rows(xp, i).swapaxes(2, 3), g).sum(axis=0)
            gw[:, i] = gband[:, taps, cols].sum(axis=2)  # read the kw diagonals back
        gx = gxp[:, :, ph: ph + x.shape[2], pw: pw + x.shape[3]] if (ph or pw) else gxp
        gb = _bias_grad(g) if bias is not None else None
        return (gx, gw.reshape(weight.shape)) + ((gb,) if bias is not None else ())

    return y, grad_fn


def _conv_dense(x, weight, bias, spec, ho, wo):
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
    cols = x.data.reshape(split).transpose(perm).reshape(n, k, ho * wo)
    w2 = weight.data.reshape(cout, k)
    y = np.matmul(w2, cols).reshape(n, cout, ho, wo)

    def grad_fn(g):
        gm = g.reshape(n, cout, ho * wo)
        gw = np.einsum("nop,nkp->ok", gm, cols, optimize=True).reshape(weight.shape)
        gcols = np.matmul(w2.T, gm).reshape(n, cin, kh, kw, ho, wo)
        gx = gcols.transpose(np.argsort(perm)).reshape(x.shape)
        gb = _bias_grad(g) if bias is not None else None
        return (gx, gw) + ((gb,) if bias is not None else ())

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
    y = xhat * gamma.data[None, :, None, None]
    y += beta.data[None, :, None, None]

    def grad_fn(g):
        gxh = g * gamma.data[None, :, None, None]
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
    """Elementwise GELU, tanh approximation."""
    u = x.data * x.data
    u *= x.data
    u *= _GELU_A
    u += x.data
    u *= _GELU_C
    th = np.tanh(u, out=u)
    y = th + 1.0
    y *= x.data
    y *= 0.5
    y = y.astype(x.dtype, copy=False)

    def grad_fn(g):
        sech2 = 1.0 - th * th
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x.data * x.data))
        d = 0.5 * (1.0 + th) + 0.5 * x.data * sech2 * du
        return (d.astype(x.dtype) * g,)

    return _from_op(y, (x,), grad_fn, "gelu")


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) mean over the spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    y = x.data.mean(axis=(2, 3))

    def grad_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.shape).astype(x.dtype, copy=True),)

    return _from_op(y, (x,), grad_fn, "global_avg_pool")


def linear(x: Tensor, weight: Tensor, bias) -> Tensor:
    """(N, Cin) @ (Cout, Cin)^T + bias."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: x {x.shape} vs weight {weight.shape}")
    tensors = [x, weight] + ([bias] if bias is not None else [])
    _check_same_dtype(*tensors)
    y = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"bias shape {bias.shape} != ({weight.shape[0]},)")
        y = y + bias.data

    def grad_fn(g):
        gx = g @ weight.data
        gw = g.T @ x.data
        gb = g.sum(axis=0) if bias is not None else None
        return (gx, gw) + ((gb,) if bias is not None else ())

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return _from_op(y, parents, grad_fn, "linear")


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

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    probs = np.exp(logp)
    loss_val = np.asarray(-logp[np.arange(n), labels].mean(), dtype=logits.dtype)

    def grad_fn(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        return ((g / n) * gl.astype(logits.dtype),)

    loss = _from_op(loss_val, (logits,), grad_fn, "softmax_cross_entropy")
    return loss, probs
