"""Dense float tensors with tape-based reverse-mode automatic differentiation.

Covers exactly the operator set the collage video network needs: depth-wise
dilated and non-overlapping dense 2D cross-correlation, channel layer norm,
GELU, global pooling, a linear layer, softmax cross-entropy, and small
elementwise and data-movement helpers. Arrays are 32-bit by default; passing
float64 inputs runs every op in a 64-bit shadow mode used by the gradient
checks.

One thread budget. At import the OpenBLAS that numpy loaded is asked how
many threads it has and is set to one thread, for the whole process; the
module keeps a pool (``_Pool``) of that many threads less one, because the
calling thread runs the first part of every split. The reason: after each
GEMM, OpenBLAS's worker threads spin on the other cores, so numpy's passes
that follow gained nothing from a second thread. On a 2-vCPU Xeon VM, GELU
over a (9, 384, 56, 56) map right after a GEMM took 28-30 ms on one thread,
29-31 ms on two pool threads with BLAS on two threads, and 19.8 ms on two
pool threads with BLAS on one; the pw1 GEMM of that map took 21.5 ms with
BLAS on two threads and 18.9 ms with BLAS on one and the frames split over
two pool threads. One pool with a sequential BLAS inside it is the usual
intra-op design (PyTorch's ``at::parallel_for``; ``threadpoolctl`` limits
on BLAS inside joblib workers). Where BLAS's thread count cannot be read
and set, or is 1 (``OPENBLAS_NUM_THREADS=1``), there is no pool and every
kernel runs in one part on the calling thread.

The private kernels cut their work into disjoint parts with ``_cut`` or
``_slabs`` and run them through ``_parallel``: the GEMMs of the dense
conv's forward, input gradient and weight gradient and of ``pointwise_mlp``,
by rows of the weight (``_gemm_parts``, which adds the bias to each part's
rows); the depth-wise conv's channel blocks, forward and backward; GELU's
blocks; layer norm's normalise and affine, also in ``pointwise_mlp``'s
forward; the parts of ``all_finite``; the blocks of
``training.adamw_step``; ``pointwise_mlp``'s backward tiles at stages 1-2,
a tile per part; and ``add``, ``scale_channels`` and ``model``'s
``tile_grid`` and collage copies. A cut has more than one part only where
each part holds enough work (``_PART_CALL``, ``_PART_LOOP``), and
``_parallel`` runs a cut of one part inline: small maps, such as all of the
``toy`` variant's, start no thread. GELU's backward product and
``training.clip_grad_norm``'s float64 dots run on the calling thread. In
a ``tiny`` train step at 96x96 the product split 9 times, each on a
(2, 1536, 18, 18) map that took 0.47 ms split and 0.45 ms inline, and the
dots split only the neck weight's gradient, 1 of 220, saving about 3.5 ms
of a 2 s step (2-vCPU Xeon VM). No part reorders a reduction, so every
output and gradient is bit for bit that of one part. Parts never touch
the tape or ``recording``, call no public function of this module,
``model`` or ``training`` (a tracer may wrap those, and time them on one
span stack), and allocate nothing much larger than a block: the caller
makes the outputs and any larger scratch, because glibc gives each thread
its own heap, which keeps what it frees (a ``tiny`` train step peaked
24 MB higher when ``pointwise_mlp``'s backward tiles made their K-wide
arrays on the pool). A part may call the kernels that split: a split made
inside a part runs its pieces inline, on that part's thread (see
``_parallel``).

Weight gradients made last. ``backward`` walks the tape from the loss to the
stem, freeing each op's saved arrays as it passes. A weight gradient larger
than the two arrays it is computed from (the dense conv's input columns or
the linear layer's input, and the output gradient) is not made during the
walk: the op's ``grad_fn`` returns a function that makes it, and
``backward`` calls it once the walk is done, when the tape it would have sat
beside is freed (the weight-gradient half of the backward, which Zero Bubble
Pipeline Parallelism, Qi et al., arXiv 2401.10241, also schedules after the
input-gradient half). In ``tiny`` that is the neck's 61 MiB weight, the
head's and stage 4's downsample's. glibc keeps freed tape in its heap but
maps every request of 32 MiB or more (``_TRIM_BYTES``) to fresh pages, so
before such a gradient is made ``backward`` hands the heap's free pages back
with ``malloc_trim``, where the C library has it. A ``tiny`` train step at
96x96 then peaks at 745-755 MB rather than 805-810 MB; deferral without the
trim read 803-807 MB (2-vCPU Xeon VM).
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
import queue
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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

    Data is immutable by convention after construction. Only ``gelu`` may
    write over its input, where a caller that reads it no more passes
    ``overwrite_x``. Two tensors may share one gradient array. Gradients are
    written in place only by ``training.clip_grad_norm``, which scales each
    distinct array once, so every tensor that shares one sees it scaled. A
    recorded op output (see ``recording``) gets a ``_Node`` on the tape,
    which links to its parents' nodes, not to the parent tensors: an op
    output that no ``grad_fn`` reads is freed once the caller lets go of it.
    An unrecorded output has no node and does not require grad. A leaf's
    gradient is complete when ``backward`` returns, not before: a weight
    gradient larger than the arrays it is made from reaches its leaf only
    after the walk (see ``backward``). Tensors, nodes and the tape are made
    and walked on the calling thread only: the pool's threads (see the
    module docstring) see plain arrays.
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
    The pool's threads never read or set it; only the calling thread does.
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
# Blocks in about a last-level cache: 16 MB of float32. A tile of
# ``pointwise_mlp``'s lean backward spans this many blocks of its hidden map,
# and ``_gemm_parts`` copies all items' columns into one GEMM only for a
# weight larger than this (see there).
_LLC_BLOCKS = 64


# ---------------------------------------------------------------------------
# the thread budget (see the module docstring)

# OpenBLAS exports its thread calls under a prefix and suffix that depend on
# how it was built; numpy wheels ship the ``scipy_openblas`` 64-bit build.
_BLAS_THREAD_CALLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads"))


def _take_blas_threads() -> int:
    """Set the OpenBLAS that numpy loaded to one thread and return how many it
    had; 1 if no OpenBLAS with both calls is found beside numpy."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # the library numpy already holds, not a second copy
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_CALLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            threads = int(get())
            put(1)
            return max(1, threads)
    return 1


class _Job:
    """``part(piece)`` handed to the pool, to run in the numpy error state
    ``err``; ``done`` is held until it has run, and ``error`` is what it
    raised, if anything."""

    __slots__ = ("part", "piece", "err", "error", "done")

    def __init__(self, part, piece, err):
        self.part, self.piece, self.err, self.error = part, piece, err, None
        self.done = threading.Lock()
        self.done.acquire()


# ``on``: this thread is running a part of a split (see ``_parallel``)
_in_part = threading.local()


class _Pool:
    """Daemon threads, started at the first hand-over, that run ``_Job``s in
    the caller's numpy error state (numpy keeps one per thread). This is the
    core of ``concurrent.futures.ThreadPoolExecutor``, whose import, with
    the ``logging`` it loads, adds 0.6 MB to a process."""

    def __init__(self, threads: int):
        self.threads = threads
        self._reset()
        os.register_at_fork(after_in_child=self._reset)  # a forked child has no workers

    def _reset(self):
        self._jobs, self._started = queue.SimpleQueue(), False

    def run(self, part, piece, err) -> _Job:
        if not self._started:
            self._started = True
            for i in range(self.threads):
                threading.Thread(target=self._work, name=f"vidconv-{i}", daemon=True).start()
        job = _Job(part, piece, err)
        self._jobs.put(job)
        return job

    def _work(self):
        _in_part.on = True  # every job is a part of a split
        while True:
            job = self._jobs.get()
            try:
                with np.errstate(**job.err):
                    job.part(job.piece)
            except BaseException as exc:  # handed to the caller
                job.error = exc
            finally:
                job.done.release()


_THREADS = _take_blas_threads()
_POOL = _Pool(_THREADS - 1) if _THREADS > 1 else None
# Least work a part must hold, in float passes of one thread (a 64K-float
# block of one elementwise pass takes about 15 us on a 2-vCPU Xeon VM),
# before a split runs on the pool. Handing a part to a pool thread and
# waiting for it costs 20-50 us, and each numpy call in a part hands the GIL
# over once more. So a part that is one numpy call (a GEMM, an elementwise
# op) pays off from about 100 us of work, and a part that walks blocks, a
# dozen calls per block, only from about 1 ms: GELU over 4.5 blocks was
# slower on two threads than on one.
_PART_CALL = 4 * _BLOCK
_PART_LOOP = 64 * _BLOCK
# A GEMM's MAC costs about this many times less than one float pass of an
# elementwise ufunc: the unit of the work figures handed to ``_cut``.
_MACS_PER_PASS = 16


def _cut(n: int, work: float, least: int):
    """Slices cutting ``range(n)``, ``n`` units of ``work`` float passes each,
    into consecutive parts: one per thread at most, each of at least
    ``least`` work. One slice, the whole range, when there is no pool or too
    little work for two parts; ``_parallel`` runs that inline."""
    k = 1 if _POOL is None else max(1, min(_THREADS, n, int(n * work // least)))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _slabs(shape, work: float, least: int, axes=None):
    """Index tuples cutting an array of ``shape`` into parts (see ``_cut``)
    along the first of ``axes`` (default: every axis, in order) whose extent
    has room for a part per thread; ``work`` is per element. ``[()]``, the
    whole array, when that is one part."""
    if _POOL is not None:
        for ax in range(len(shape)) if axes is None else axes:
            if shape[ax] >= _THREADS:
                pieces = _cut(shape[ax], math.prod(shape) // shape[ax] * work, least)
                return [()] if len(pieces) == 1 else [(slice(None),) * ax + (s,) for s in pieces]
    return [()]


def _at(a, idx):
    """``a[idx]``, leaving whole the axes ``a`` broadcasts (extent 1)."""
    return a[tuple(s if a.shape[i] != 1 else slice(None) for i, s in enumerate(idx))]


def _parallel(part, pieces):
    """``part(p)`` for every ``p`` in ``pieces`` (slices, index tuples or
    numbers): the first on the calling thread, the rest on the pool,
    each in the caller's numpy error state. Returns once every part has,
    then re-raises the first error a part raised, in the order of
    ``pieces``. Parts must write disjoint outputs. A call made from inside
    a part runs its pieces inline, in order: every pool thread may be
    running a part of the call outside it, which waits on this one."""
    if _POOL is None or len(pieces) == 1 or getattr(_in_part, "on", False):
        for piece in pieces:
            part(piece)
        return
    err = np.geterr()
    jobs = [_POOL.run(part, piece, err) for piece in pieces[1:]]
    errors = []
    _in_part.on = True
    try:
        part(pieces[0])
    except BaseException as exc:  # re-raised below, once the pool's parts are done
        errors.append(exc)
    finally:
        _in_part.on = False
    for job in jobs:
        with job.done:
            if job.error is not None:
                errors.append(job.error)
    if errors:
        raise errors[0]


def all_finite(a: np.ndarray) -> bool:
    """Whether a float array holds no NaN or +-Inf, in one pass and no temporary.

    A C-contiguous array is dotted with itself, at BLAS speed, in parts
    that may run on the pool's threads (see ``_cut``). Squares are
    never negative, so no +Inf can cancel a -Inf: the dot is finite unless an
    element is NaN/Inf or the sum of squares overflows. Any other layout is
    summed in float64, finite on the same terms. A non-finite fast answer is
    confirmed element by element, so large finite values cost time but are
    never reported.
    """
    with np.errstate(over="ignore"):  # an overflow only sends the check to the exact pass
        if not a.flags.c_contiguous:
            fast = a.sum(dtype=np.float64)
        else:
            f = a.reshape(-1)
            pieces = _cut(f.size, 1, _PART_CALL)
            dots = np.empty(len(pieces), dtype=a.dtype)

            def part(i):
                h = f[pieces[i]]
                dots[i] = np.dot(h, h)

            _parallel(part, range(len(pieces)))
            fast = dots.sum()
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


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none (musl,
    macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):  # TypeError: Windows loads no library by None
        return None
    trim.restype, trim.argtypes = ctypes.c_int, [ctypes.c_size_t]
    return trim


# A request this large always gets fresh pages from glibc's malloc
# (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), never memory its heap holds.
_TRIM_BYTES = 32 << 20
_malloc_trim = _find_malloc_trim()


def backward(root: Tensor):
    """Reverse-mode accumulation from a scalar root through its single-use tape.

    The walk runs over tape nodes. A leaf's gradients go to the tensor as they
    arrive (``g``, or ``grad + g`` onto a gradient it already has). An op
    output's node sums its gradients, hands the sum to its tensor if that is
    still alive (the root, captured stage outputs, logits the caller holds),
    runs its ``grad_fn`` and lets go of it, so every activation only that
    ``grad_fn`` read is freed as the walk passes.

    A ``grad_fn`` may return a zero-argument function in place of a
    gradient: ``_conv_dense`` and ``linear`` do so for a weight gradient
    larger than its input columns and output gradient together (the neck's,
    the head's and stage 4's downsample's at ``tiny``; see the module
    docstring). For an op output the function is called at once. For a leaf
    it is called after the walk, in walk order; from the first such function
    on, every later gradient for that leaf waits with it, so each leaf's
    gradients are still summed in walk order, bit for bit as they would have
    been as they arrived. A deferred gradient reaches its leaf's ``grad``
    only then, before ``backward`` returns. Before the first is called, if
    any of them will be ``_TRIM_BYTES`` (32 MiB) or more, glibc's
    ``malloc_trim(0)`` hands the heap pages the walk freed back to the
    system, once per call; it is skipped where the C library lacks it.
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

    # (node, leaf, gradient or function), from a leaf's first function on, in
    # walk order; and the ids of those leaves
    late, waiting = [], set()
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
            if p.grad_fn is not None:
                _accumulate(p, p, g() if callable(g) else g)
            elif (pt := p.ref()) is not None:
                if callable(g) or id(pt) in waiting:
                    late.append((p, pt, g))
                    waiting.add(id(pt))
                else:
                    _accumulate(p, pt, g)
        # Release the gradient and the closure so saved activations can be freed.
        node.grad, node.parents, node.grad_fn = None, (), None

    big = [callable(g) and math.prod(p.shape) * p.dtype.itemsize >= _TRIM_BYTES for p, _, g in late]
    if _malloc_trim is not None and any(big):
        _malloc_trim(0)
    for i, (p, pt, g) in enumerate(late):
        late[i] = None  # the function, and what it closes over, go once called
        _accumulate(p, pt, g() if callable(g) else g)


def _accumulate(p, holder, g):
    """Add ``g``, a gradient for node ``p``, onto ``holder``: ``p`` itself for
    an op output, the tensor for a leaf."""
    if g.shape != p.shape or g.dtype != p.dtype:
        raise ShapeError(f"grad {g.dtype} {g.shape} for tensor {p.dtype} {p.shape}")
    holder.grad = g if holder.grad is None else holder.grad + g


# ---------------------------------------------------------------------------
# elementwise / movement ops


def _map_parts(ufunc, out, *operands):
    """``ufunc(*operands, out=out)``, one pass over ``out``, the operands
    broadcast to its ndim, split over the parts in slabs of ``out`` (see
    ``_slabs``). Returns ``out``."""
    def part(idx):  # with the Ellipsis, out[()] of a 0-d out stays a 0-d view
        ufunc(*(_at(a, idx) for a in operands), out=out[idx + (Ellipsis,)])

    _parallel(part, _slabs(out.shape, 1, _PART_CALL))
    return out


def _copy(src, out):
    np.copyto(out, src)


def _contiguous_copy(a):
    """A C-contiguous copy of ``a``, split over the parts."""
    return _map_parts(_copy, np.empty(a.shape, dtype=a.dtype), a)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    y = _map_parts(np.add, np.empty(a.shape, dtype=a.dtype), a.data, b.data)
    return _from_op(y, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _from_op(np.asarray(ad * bd), (a, b), lambda g: (g * bd, g * ad), "mul")


def mul_const(x: Tensor, arr) -> Tensor:
    """Elementwise product with an untracked array (drop-path masks)."""
    arr = np.asarray(arr, dtype=x.dtype)
    return _from_op(np.asarray(x.data * arr), (x,), lambda g: (g * arr,), "mul_const")


def scale_channels(x: Tensor, alpha: Tensor) -> Tensor:
    """Multiply a (N, C, H, W) map by a learnable per-channel vector (C,)."""
    _check_same_dtype(x, alpha)
    if x.ndim != 4 or alpha.ndim != 1 or alpha.shape[0] != x.shape[1]:
        raise ShapeError(f"scale_channels: x {x.shape}, alpha {alpha.shape}")
    xd, a4 = x.data, alpha.data[None, :, None, None]

    def grad_fn(g):
        return g * a4, np.einsum("nchw,nchw->c", g, xd, optimize=True)

    y = _map_parts(np.multiply, np.empty(x.shape, dtype=x.dtype), xd, a4)
    return _from_op(y, (x, alpha), grad_fn, "scale_channels")


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

    # numpy returns a 0-d result as a scalar; Tensor.data is an array
    return _from_op(np.asarray(x.data.sum(dtype=x.dtype)), (x,), grad_fn, "sum_all")


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
        y, grad_fn = _conv_depthwise(x.data, weight.data, bias.data, spec, ho, wo)
    elif spec.groups == 1:
        y, grad_fn = _conv_dense(x.data, weight.data, bias.data, spec, ho, wo, x.requires_grad)
    else:
        raise ShapeError(f"conv2d runs depth-wise convs (groups == cin == cout) at stride 1 with "
                         f"any dilation and padding, and dense convs (groups=1) that read each "
                         f"input pixel once: got {spec} on {cin} -> {cout} channels")

    return _from_op(y, (x, weight, bias), grad_fn, "conv2d")


def _bias_grad(g):
    return g.sum(axis=(0, 2, 3))


def _conv_depthwise(x, weight, bias, spec, ho, wo):
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
    # The blocks are split over the parts, forward and backward, each part
    # with its own block-sized scratch.
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

    def bands():
        # A part's band scratch, zeroed once: every band holds its taps at the
        # same places, the kw diagonals (o + j*dw, o), written through a
        # strided view. Filled per block and row, in backward too, rather
        # than kept: a training tape would hold all kh bands of every
        # depth-wise conv alive until backward.
        b = np.zeros((min(cb, c), wp, wo), dtype=x.dtype)
        s0, s1, s2 = b.strides
        diag = np.lib.stride_tricks.as_strided(b, (b.shape[0], kw, wo), (s0, dw * s1, s1 + s2))

        def band(i, blk):
            k = blk.stop - blk.start
            diag[:k] = w3[blk, i, :, None]
            return b[:k]

        return band

    # The band GEMMs are small, one per channel: a MAC costs about half a
    # float pass (a 7x7 conv on (2, 384, 18, 18) takes 5.9 ms on one thread).
    parts = _cut(len(blocks), kh * cb * ho * n * wp * wo / 2, _PART_LOOP)
    y = np.empty((n, c, ho, wo), dtype=x.dtype)

    def forward(part):
        band = bands()
        acc = np.empty((min(cb, c), ho * n, wo), dtype=x.dtype)
        tmp = np.empty_like(acc)
        for blk in blocks[part]:
            xt = channel_major(x, blk)
            k = xt.shape[0]
            a, t = acc[:k], tmp[:k]
            np.matmul(xt[:, span[0]], band(0, blk), out=a)
            for i in range(1, kh):
                a += np.matmul(xt[:, span[i]], band(i, blk), out=t)
            a += bias[blk, None, None]
            y[:, blk] = a.reshape(k, ho, n, wo).transpose(2, 0, 1, 3)

    _parallel(forward, parts)

    def grad_fn(g):
        gx = np.empty(x.shape, dtype=x.dtype)
        gw = np.empty((c, kh, kw), dtype=x.dtype)

        def backward(part):
            band = bands()
            tmp = np.empty((min(cb, c), ho * n, wp), dtype=x.dtype)
            for blk in blocks[part]:
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

        _parallel(backward, parts)
        return gx, gw.reshape(weight.shape), _bias_grad(g)

    return y, grad_fn


def _conv_dense(x, weight, bias, spec, ho, wo, need_gx):
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
    y = np.empty((n, cout, ho * wo), dtype=x.dtype)
    _gemm_parts(w2, cols, y, bias)

    def grad_fn(g):
        gm = g.reshape(n, cout, ho * wo)

        def weight_grad():
            # gw = sum over items and pixels of gm cols^T, one GEMM with K =
            # n*ho*wo as np.tensordot lays it out, its rows of gw split over
            # the parts. (cout, k) is the GEMM's own output order, so gw is
            # C-contiguous.
            gmk = gm.transpose(1, 0, 2).reshape(cout, n * ho * wo)
            colsk = cols.transpose(0, 2, 1).reshape(n * ho * wo, k)
            gw = np.empty((1, cout, k), dtype=x.dtype)
            _gemm_parts(gmk, colsk[None], gw)
            return gw.reshape(weight.shape)

        # made after the walk when it outweighs what it is made from (see backward)
        gw = weight_grad if weight.size > cols.size + gm.size else weight_grad()
        if not need_gx:
            return None, gw, _bias_grad(g)
        gcols = np.empty((n, k, ho * wo), dtype=x.dtype)
        _gemm_parts(w2.T, gm, gcols)
        gx = gcols.reshape(n, cin, kh, kw, ho, wo).transpose(np.argsort(perm)).reshape(x.shape)
        return gx, gw, _bias_grad(g)

    return y.reshape(n, cout, ho, wo), grad_fn


def _gemm_parts(a, b, out, bias=None):
    """``out[i] = a @ b[i]``, plus ``bias`` (M,) on each row if given, for the
    (M, K) matrix ``a`` and each of the items of ``b``, (N, K, P), split by
    rows of ``a``: each part multiplies its rows by every item's columns and
    adds the bias to its rows while they are in cache. Row parts make the
    same bits as one GEMM for every GEMM the model runs, and keep the parts
    even where items would not (9 frames on 2 threads: 4 and 5).

    An ``a`` larger than the last-level cache (``_LLC_BLOCKS`` blocks) that
    outweighs ``b`` and ``out`` together (M*K > N*P*(M+K)) is multiplied by
    a (K, N*P) copy of all items' columns into an (M, N*P) product, which
    each part copies into its rows of ``out``: a part then reads its rows of
    ``a`` from memory once, not once per item. That is the neck's forward
    and input gradient in training: with ``tiny``'s 61 MiB weight on 2 clips
    at 96x96, 9.4-11.4 -> 5.9-7.9 ms and 10.1-10.2 -> 6.2-6.3 ms (2-vCPU
    Xeon VM). An ``a`` the cache holds gains nothing, and there BLAS may sum
    the wider GEMM in another order (``toy``'s neck on 4 clips did)."""
    n, (m, k), p = b.shape[0], a.shape, b.shape[2]
    cols, prod = b, out
    if n > 1 and m * k > max(_LLC_BLOCKS * _BLOCK, n * p * (m + k)):
        cols = np.ascontiguousarray(b.transpose(1, 0, 2)).reshape(1, k, n * p)
        prod = np.empty((1, m, n * p), dtype=out.dtype)

    def part(s):
        np.matmul(a[s], cols, out=prod[:, s])
        if prod is not out:
            out[:, s] = prod[0, s].reshape(-1, n, p).swapaxes(0, 1)
        if bias is not None:
            out[:, s] += bias[s, None]

    _parallel(part, _cut(m, n * k * p / _MACS_PER_PASS, _PART_CALL))


# ---------------------------------------------------------------------------
# normalization / activation / pooling / head ops


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize a (N, C, H, W) map across C at every spatial position, into
    a new array (see ``_ln_forward``)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ShapeError(f"layer_norm_channels expects 4D input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    _check_same_dtype(x, gamma, beta)

    # Only backward reads xhat, so without a tape none is kept.
    xhat = np.empty(x.shape, dtype=x.dtype) if _records(x, gamma, beta) else None
    y, _, inv = _ln_forward(x.data, gamma.data, beta.data, eps, xhat)
    g4 = gamma.data[None, :, None, None]

    def grad_fn(g):
        return _ln_grad(g, xhat, inv, g4)

    return _from_op(y, (x, gamma, beta), grad_fn, "layer_norm_channels")


def _ln_forward(x, gamma, beta, eps, xhat=None):
    """Channel layer norm of the (N, C, H, W) array ``x`` into a new array y,
    the normalised input first written into ``xhat`` if given, else into y.
    Returns y and the per-position mean and inverse std, each (N, 1, H, W).
    The normalise and affine passes are split by items, or by rows of a
    single item, over the parts (see ``_parallel``)."""
    n, _, h, w = x.shape
    y = np.empty(x.shape, dtype=x.dtype)
    if xhat is None:
        xhat = y
    mu, inv = np.empty((n, 1, h, w), dtype=x.dtype), np.empty((n, 1, h, w), dtype=x.dtype)
    g4, b4 = gamma[None, :, None, None], beta[None, :, None, None]

    def part(idx):
        _ln_normalize(x[idx], xhat[idx], mu[idx], inv[idx], eps)
        np.multiply(xhat[idx], g4, out=y[idx])
        y[idx] += b4

    # Charged 7 passes per float, a quarter of its cost: splitting paid off
    # only on maps of more than about a million floats.
    _parallel(part, _slabs(x.shape, 7, _PART_LOOP, axes=(0, 2)))
    return y, mu, inv


def _ln_normalize(x, out, mu, inv, eps):
    """(x - mean) * inv_std over axis 1 of a (N, C, H, W) array, into ``out``.
    The per-position mean and inverse std go to ``mu`` and ``inv``, each
    (N, 1, H, W). The squares for the variance are taken one tile of
    positions (see ``_position_tiles``) at a time, in block-sized scratch."""
    n, c, h, w = x.shape
    np.mean(x, axis=1, keepdims=True, out=mu)
    np.subtract(x, mu, out=out)
    sq = np.empty(min(x.size, max(_BLOCK, c * w)), dtype=x.dtype)
    for t in [()] if x.size <= sq.size else _position_tiles(n, c, h, w):
        ot = out[t]
        st = sq[:ot.size].reshape(ot.shape)
        np.multiply(ot, ot, out=st)
        np.mean(st, axis=1, keepdims=True, out=inv[t])  # the variance, for now
    inv += np.asarray(eps, dtype=x.dtype)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(out, inv, out=out)


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
    incoming gradient in place, on the calling thread. The blocks are split
    over the parts (see ``_parallel``).

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
        np.multiply(d, g, out=d)  # the tape is walked once, so d is free to take
        return (d,)

    return _from_op(y, (x,), grad_fn, "gelu")


def _gelu_blocks(xf, yf, df=None):
    """GELU of the flat array ``xf`` into ``yf`` (which may be ``xf``), and
    with ``df`` its dy/dx, ``_BLOCK`` elements at a time (see ``gelu``), the
    blocks split over the parts."""
    def part(s):
        run = slice(s.start * _BLOCK, s.stop * _BLOCK)
        _gelu_run(xf[run], yf[run], None if df is None else df[run])

    _parallel(part, _cut(-(-xf.size // _BLOCK), _BLOCK * (12 if df is None else 24), _PART_LOOP))


def _gelu_run(xf, yf, df=None):
    """``_gelu_blocks`` on the calling thread alone."""
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


def _position_tiles(n, c, h, w, blocks=1):
    """Index tuples of the tiles ``pointwise_mlp``'s backward walks on an
    (N, ., H, W) map, each a 4-D view of about ``blocks * _BLOCK // c``
    positions, so that c channels of the tile span about ``blocks`` blocks:
    runs of whole items where an item is smaller, otherwise bands of whole
    rows of one item. The last run or band may be short."""
    p = max(1, blocks * _BLOCK // c)
    if h * w <= p:
        run = p // (h * w)
        return [(slice(i, i + run),) for i in range(0, n, run)]
    rows = max(1, p // w)
    return [(slice(i, i + 1), slice(None), slice(r, r + rows))
            for i in range(n) for r in range(0, h, rows)]


def pointwise_mlp(f: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                  w2: Tensor, b2: Tensor, scale: Tensor, eps: float = 1e-6) -> Tensor:
    """A block's pointwise half on a (N, C, H, W) map:
    ``scale * (pw2(gelu(pw1(layer_norm_channels(f, gamma, beta)))))``, where
    pw1 and pw2 are 1x1 convs with (K, C, 1, 1) and (C, K, 1, 1) weights.

    The forward is one pass over the whole map, taped or not. The norm goes
    into a new array, split over the parts as ``layer_norm_channels``
    splits it; then the public ``conv2d``, ``gelu(overwrite_x=True)`` and
    ``conv2d`` run with recording off, so the output is bit for bit that of
    the five ops in turn, and each of those calls runs its finite check and
    splits its own work over the parts. The norm's output is freed once pw1
    has read it, and pw2's output is scaled in place and returned: an
    untaped call holds at most the K-wide hidden map and one C map beside
    ``f``, where the five ops hold one more C map. The tape keeps ``f``
    and the per-position mean and inverse std of the norm: one C map, where
    the five ops keep eleven (gradient checkpointing, Chen et al., arXiv
    1604.06174). Backward rebuilds the norm, pw1 and GELU (the GEMM
    ``conv2d`` runs and the GELU kernel, so no finite check runs twice and
    no MAC is counted twice). It does not rebuild pw2's output: the scale's
    gradient, the sum over positions of g * (W2 a + b2), is read off the
    (C, K) sum of g a^T that pw2's weight gradient needs anyway.

    Backward is one function of a tile, run on one of two schedules. The
    tile is copied channel-major, (C, M) for its M positions, so that every
    GEMM is one 2-D GEMM through ``_gemm_parts`` and a weight gradient is
    one GEMM over all M positions (as in ``_conv_dense``'s backward). The
    first tile writes the (C, K) sums; a later one writes partials, added
    in tile order, so the sums are those of one thread. The layer scale
    multiplies g, a C map, rather than W2, a (C, K) one. Nothing is written
    into g or ``f``'s data. The schedule follows the shape of the weights:

    - Few positions per channel (``_BLOCK // C < C``, stages 3-4, where a
      (C, K) partial outweighs a tile's K-wide maps): tiles whose (K, M)
      hidden maps span about ``_LLC_BLOCKS`` blocks, so that they stay in
      the last-level cache, one at a time on the calling thread, each GEMM
      and GELU split over the parts.
    - Many (stages 1-2): tiles of about a block of C map, ``_THREADS`` at a
      time, a tile per part, where each tile holds a part's work. The
      splits inside a part run inline (see ``_parallel``).
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

    fd, dt = f.data, f.dtype
    one = ConvSpec(kernel=(1, 1))
    y, mu, inv = _ln_forward(fd, gamma.data, beta.data, eps)
    with recording(False):
        a = conv2d(Tensor(y), w1, b1, one)
        del y  # the norm's output is dead once pw1 has read it
        out = conv2d(gelu(a, overwrite_x=True), w2, b2, one).data
        del a  # and the hidden map once pw2 has
    _map_parts(np.multiply, out, out, scale.data[None, :, None, None])

    g4 = gamma.data[None, :, None, None]
    gd, betad = gamma.data[:, None], beta.data[:, None]
    w1m, b1v, w2m, b2d, sd = w1.data.reshape(k, c), b1.data, w2.data.reshape(c, k), b2.data, scale.data
    lean = _BLOCK // c < c
    # a part's work per position: three GEMMs of C x K, and GELU with dy/dx over K
    per_position = 3 * c * k / _MACS_PER_PASS + 24 * k

    def grad_fn(g):
        tiles = _position_tiles(n, k, h, w, _LLC_BLOCKS) if lean else _position_tiles(n, c, h, w)
        step = 1 if lean or _POOL is None else _THREADS
        rounds = []  # tiles run together, a tile per part
        for lo in range(0, len(tiles), step):
            group = range(lo, min(lo + step, len(tiles)))
            pooled = min(fd[tiles[j]].size for j in group) // c * per_position >= _PART_LOOP
            rounds += [group] if pooled else [[j] for j in group]
        # The buffers of each part of a pooled round, made here (see the
        # module docstring): pw1's output and GELU's dy/dx, flat, sized by
        # the largest tile, of which a tile takes a prefix, and the (C, K)
        # and (K, C) partials. A tile run alone makes its own.
        parts, kmax = max(map(len, rounds)), max(fd[t].size for t in tiles) // c * k
        sets = [(np.empty(kmax, dtype=dt), np.empty(kmax, dtype=dt),
                 np.empty((c, k), dtype=dt), np.empty((k, c), dtype=dt))
                for _ in range(parts if parts > 1 else 0)]
        gf = np.empty_like(fd)
        gza, gw1 = np.empty((c, k), dtype=dt), np.empty((k, c), dtype=dt)
        results = [None] * len(tiles)

        def tile_grads(piece):
            j, bufs = piece  # tile j, and its part's buffers, or None
            t = tiles[j]
            ft = fd[t]
            # Written into a new array: for a tile of one item the views of
            # fd and g below are the arrays themselves, not copies.
            xhat = np.subtract(_channel_major(ft), _channel_major(mu[t]), order="C").reshape(c, -1)
            inv_t = _channel_major(inv[t]).reshape(1, -1)
            xhat *= inv_t
            y = xhat * gd
            y += betad
            size = k * y.shape[1]
            if bufs is None:  # made here, so that dy/dx is freed once read
                bufs = (np.empty(size, dtype=dt), np.empty(size, dtype=dt),
                        *((np.empty_like(gza), np.empty_like(gw1)) if j else ()))
            a, d = (buf[:size].reshape(k, -1) for buf in bufs[:2])
            za, zw1 = bufs[2:] if j else (gza, gw1)  # the first tile writes the sums
            del bufs
            _gemm_parts(w1m, y[None], a[None], b1v)  # pw1 and its bias, as conv2d runs them
            _gelu_blocks(a.reshape(-1), a.reshape(-1), d.reshape(-1))
            gt = np.ascontiguousarray(_channel_major(g[t])).reshape(c, -1)
            _gemm_parts(gt, a.T[None], za[None])
            ga = a  # a is dead once g a^T is summed
            _gemm_parts(w2m.T, (gt * sd[:, None])[None], ga[None])
            _map_parts(np.multiply, ga, ga, d)
            del a, d
            _gemm_parts(ga, y.T[None], zw1[None])
            gy = np.empty_like(xhat)
            _gemm_parts(w1m.T, ga[None], gy[None])
            gx, gg, gbt = _ln_grad(gy[None, :, None], xhat[None, :, None], inv_t[None, :, None], g4)
            gf[t] = gx.reshape(c, ft.shape[0], *ft.shape[2:]).swapaxes(0, 1)
            results[j] = gt.sum(axis=1), ga.sum(axis=1), gg, gbt, za, zw1

        sums = [np.zeros(size, dtype=dt) for size in (c, k, c, c)]
        for r in rounds:
            _parallel(tile_grads, [(j, sets[i] if len(r) > 1 else None) for i, j in enumerate(r)])
            for j in r:  # in tile order, whichever thread ran the tile
                *vectors, za, zw1 = results[j]
                for total, v in zip(sums, vectors):
                    total += v
                if j:
                    gza += za
                    gw1 += zw1
                results[j] = None
        gsum, gb1, ggamma, gbeta = sums
        # pw2's output is W2 a + b2, so sum(g * it) over positions is the
        # diagonal of W2 gza^T plus b2 * sum(g)
        gscale = np.einsum("ck,ck->c", w2m, gza) + b2d * gsum
        gza *= sd[:, None]  # now pw2's weight gradient
        return (gf, ggamma, gbeta, gw1.reshape(k, c, 1, 1), gb1, gza.reshape(c, k, 1, 1),
                gsum * sd, gscale)

    return _from_op(out, (f, *params), grad_fn, "pointwise_mlp")


def _channel_major(a):
    """An (m, C, ...) array as a (C, m, positions) view."""
    m, c = a.shape[:2]
    return a.reshape(m, c, -1).swapaxes(0, 1)


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
        def weight_grad():
            return g.T @ xd

        # made after the walk when it outweighs what it is made from (see backward)
        gw = weight_grad if wd.size > g.size + xd.size else weight_grad()
        return g @ wd, gw, g.sum(axis=0)

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
