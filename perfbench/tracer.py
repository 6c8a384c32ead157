"""Per-layer tracing from outside the program.

The tracer swaps the public functions of ``vidconv.tensor``, ``vidconv.model``,
``vidconv.training`` and ``vidconv.data`` for timing wrappers. The program
calls them through the module attribute, so the wrappers are reached without
editing the package. Backward time is attributed per op family by wrapping
the ``_grad_fn`` of each tensor an op returns. ``tracemalloc`` gives the extra
memory each op needed at its peak.
"""
from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

from vidconv import analysis, data, model, tensor, training

CONV_FAMILIES = ("conv_dw", "conv_temporal", "conv_pw", "conv_patchify", "conv_neck")

# module attribute -> op group; every group below is timed forward and backward
TENSOR_OPS = {
    "layer_norm_channels": "tensor.layer_norm",
    "gelu": "tensor.gelu",
    "linear": "tensor.linear",
    "add": "tensor.elementwise",
    "scale_channels": "tensor.elementwise",
    "mul_const": "tensor.elementwise",
    "reshape": "tensor.elementwise",
    "global_avg_pool": "tensor.elementwise",
    "softmax_cross_entropy": "tensor.elementwise",
}
MODEL_OPS = {"collage": "model.collage", "uncollage": "model.collage",
             "tile_grid": "model.collage"}
# plain spans: wall time only
TRAINING_SPANS = ("adamw_step", "clip_grad_norm", "evaluate_multiview")
DATA_SPANS = ("generate_video", "sample_clip", "augment_clip")

MB = 1024.0 * 1024.0


class UnclassifiedConv(ValueError):
    """A conv2d call that fits none, or more than one, of the conv families."""


def conv_family_matches(x_shape, w_shape, spec) -> list:
    """Every conv family whose rule fits one ``conv2d`` call's geometry."""
    _, cin, h, w = x_shape
    cout, cpg, kh, kw = w_shape
    kernel = tuple(spec.kernel)
    stride = tuple(spec.stride)
    dil = tuple(spec.dilation)
    pad = tuple(spec.padding)
    depthwise = spec.groups == cin == cout and cpg == 1
    dense = spec.groups == 1
    plain = stride == (1, 1) and dil == (1, 1)
    # One tap per grid cell: the kernel spans the whole input at a dilation
    # equal to the tile size, as the temporal branch and the neck do.
    per_tile = (pad == (0, 0) and stride == (1, 1) and kernel != (1, 1)
                and (h, w) == (kh * dil[0], kw * dil[1]))
    rules = {
        "conv_dw": depthwise and plain and kernel == (7, 7) and pad == (3, 3),
        "conv_temporal": depthwise and per_tile,
        "conv_pw": dense and plain and kernel == (1, 1) and pad == (0, 0),
        "conv_patchify": (dense and kernel != (1, 1) and stride == kernel
                          and dil == (1, 1) and pad == (0, 0)),
        "conv_neck": dense and per_tile,
    }
    return [name for name, hit in rules.items() if hit]


def classify_conv(x_shape, w_shape, spec) -> str:
    """The one conv family of a ``conv2d`` call; raises rather than guess."""
    hits = conv_family_matches(x_shape, w_shape, spec)
    if len(hits) != 1:
        raise UnclassifiedConv(
            f"conv2d x{tuple(x_shape)} w{tuple(w_shape)} {spec} matches {hits or 'no family'}")
    return hits[0]


def conv_macs(x_shape, w_shape, spec) -> int:
    n, _, h, w = x_shape
    cout, cpg, kh, kw = w_shape
    return n * cout * spec.out_extent(h, 0) * spec.out_extent(w, 1) * cpg * kh * kw


class _Group:
    __slots__ = ("fwd_s", "bwd_s", "calls", "macs", "peak")

    def __init__(self):
        self.fwd_s = self.bwd_s = 0.0
        self.calls = self.macs = self.peak = 0


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``.

    Spans nest on a stack; a span's self time is its duration minus the time
    of the spans it encloses. ``model.forward`` and ``tensor.backward`` report
    self time, which is tape and Python overhead between the timed ops.
    """

    def __init__(self):
        self.groups = defaultdict(_Group)
        self.self_s = defaultdict(float)
        self.macs_seen = 0
        self.macs_expected = 0
        self._stack = []
        self._patches = []
        self._flops = {}

    # -- spans -----------------------------------------------------------------

    def _enter(self, leaf):
        frame = [time.perf_counter(), 0.0, 0]
        if leaf:
            tracemalloc.reset_peak()
            frame[2] = tracemalloc.get_traced_memory()[0]
        self._stack.append(frame)

    def _exit(self, leaf):
        start, child_s, cur0 = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][1] += dur
        peak = tracemalloc.get_traced_memory()[1] - cur0 if leaf else 0
        return dur, dur - child_s, peak

    def _timed_grad(self, out, group):
        fn = out._grad_fn
        if fn is None:
            return

        def grad_fn(g):
            self._enter(True)
            try:
                return fn(g)
            finally:
                dur, _, peak = self._exit(True)
                stat = self.groups[group]
                stat.bwd_s += dur
                stat.peak = max(stat.peak, peak)

        out._grad_fn = grad_fn

    def _op(self, orig, group_of):
        """Wrap a tape op: forward time, its outputs' backward time, peak."""

        def wrapper(*args, **kwargs):
            group, macs = group_of(*args, **kwargs)
            self._enter(True)
            try:
                out = orig(*args, **kwargs)
            finally:
                dur, _, peak = self._exit(True)
                stat = self.groups[group]
                stat.fwd_s += dur
                stat.calls += 1
                stat.macs += macs
                stat.peak = max(stat.peak, peak)
                self.macs_seen += macs
            for t in (out if isinstance(out, tuple) else (out,)):
                if isinstance(t, tensor.Tensor):
                    self._timed_grad(t, group)
            return out

        return wrapper

    def _span(self, orig, name):
        def wrapper(*args, **kwargs):
            self._enter(False)
            try:
                return orig(*args, **kwargs)
            finally:
                dur, own, _ = self._exit(False)
                self.groups[name].fwd_s += dur
                self.groups[name].calls += 1
                self.self_s[name] += own

        return wrapper

    def _forward(self, orig):
        """``VidConvModel.forward`` span plus the expected MACs of the call."""
        span = self._span(orig, "model.forward")

        def forward(model_self, clip, *args, **kwargs):
            cfg = model_self.config
            shape = clip.shape
            key = (cfg, shape[2], shape[3])
            if key not in self._flops:
                self._flops[key] = analysis.count_flops(
                    cfg, frames=cfg.frames, input_size=(shape[2], shape[3])).flops_per_view
            self.macs_expected += self._flops[key] * (shape[0] // cfg.frames)
            return span(model_self, clip, *args, **kwargs)

        return forward

    # -- install ---------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        def conv_group(x, weight, bias, spec):
            return classify_conv(x.shape, weight.shape, spec), conv_macs(x.shape, weight.shape, spec)

        def linear_group(x, weight, bias):
            return "tensor.linear", x.shape[0] * weight.shape[0] * weight.shape[1]

        self._patch(tensor, "conv2d", self._op(tensor.conv2d, conv_group))
        for attr, group in TENSOR_OPS.items():
            fixed = linear_group if attr == "linear" else (lambda *a, _g=group, **k: (_g, 0))
            self._patch(tensor, attr, self._op(getattr(tensor, attr), fixed))
        for attr, group in MODEL_OPS.items():
            self._patch(model, attr, self._op(getattr(model, attr), lambda *a, _g=group, **k: (_g, 0)))
        self._patch(tensor, "backward", self._span(tensor.backward, "tensor.backward"))
        self._patch(model.VidConvModel, "forward", self._forward(model.VidConvModel.forward))
        for attr in TRAINING_SPANS:
            self._patch(training, attr, self._span(getattr(training, attr), f"training.{attr}"))
        for attr in DATA_SPANS:
            self._patch(data, attr, self._span(getattr(data, attr), f"data.{attr}"))
        tracemalloc.start()
        return self

    def uninstall(self):
        tracemalloc.stop()
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def mac_mismatch(self):
        """None when forward conv/linear MACs equal ``count_flops`` x clips."""
        if self.macs_seen == self.macs_expected:
            return None
        return (f"forward conv2d+linear calls did {self.macs_seen} MACs; "
                f"analysis.count_flops expects {self.macs_expected}")

    # -- report ------------------------------------------------------------------

    def metrics(self, units: int, traced_s: float, untraced_unit_s: float) -> dict:
        """Per-layer metrics per unit of work (a train step or an eval clip)."""
        per = 1.0 / units
        g = self.groups
        out = {}

        def ms(seconds):
            return seconds * 1e3 * per

        def share(stat):
            return (stat.fwd_s + stat.bwd_s) / traced_s

        for fam in CONV_FAMILIES:
            st = g[fam]
            busy = st.fwd_s + st.bwd_s
            # backward does two forward-sized contractions (input and weight grad)
            work = st.macs * (3 if st.bwd_s > 0 else 1)
            out.update({
                f"tensor.{fam}.calls": st.calls * per,
                f"tensor.{fam}.gmac": st.macs * 1e-9 * per,
                f"tensor.{fam}.fwd_ms": ms(st.fwd_s),
                f"tensor.{fam}.bwd_ms": ms(st.bwd_s),
                f"tensor.{fam}.gmac_s": work * 1e-9 / busy if busy > 0 else 0.0,
                f"tensor.{fam}.peak_mb": st.peak / MB,
                f"tensor.{fam}.share": share(st),
            })
        for name in ("tensor.gelu", "tensor.layer_norm", "tensor.linear", "tensor.elementwise",
                     "model.collage"):
            out[f"{name}.fwd_ms"] = ms(g[name].fwd_s)
            out[f"{name}.bwd_ms"] = ms(g[name].bwd_s)
        out["tensor.gelu.peak_mb"] = g["tensor.gelu"].peak / MB
        out["tensor.gelu.share"] = share(g["tensor.gelu"])
        out["tensor.layer_norm.share"] = share(g["tensor.layer_norm"])
        for name in ("tensor.backward", "model.forward"):
            out[f"{name}.ms"] = ms(g[name].fwd_s)
            out[f"{name}.self_ms"] = ms(self.self_s[name])
        for attr in TRAINING_SPANS:
            out[f"training.{attr}.ms"] = ms(g[f"training.{attr}"].fwd_s)
        for attr in DATA_SPANS:
            out[f"data.{attr}.ms"] = ms(g[f"data.{attr}"].fwd_s)
        out["trace.untraced_ms"] = untraced_unit_s * 1e3
        out["trace.traced_ms"] = ms(traced_s)
        out["trace.overhead_ratio"] = traced_s * per / untraced_unit_s
        return out
