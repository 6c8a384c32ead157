"""The collage video backbone: early per-frame stages, frame stacking into a
spatial grid, blocks with a dilated depth-wise temporal branch, neck, head.

A clip of L = h*w frames runs per-frame through the early stages; the chosen
stage's output is rearranged into an h x w collage so the later stages see one
big image. Later blocks add a temporal feature, gathered by a depth-wise
convolution whose dilation equals the current tile size, scaled by a learnable
per-channel vector and added to every cell of the grid by broadcast.
"""
from __future__ import annotations

import json
import os
import tokenize
import zipfile
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

# Named variants: stage channels, blocks per stage, neck/head width, and the
# terminal stochastic-depth rate they were tuned with.
VARIANTS = {
    "tiny": dict(channels=(96, 192, 384, 768), blocks=(3, 3, 9, 3),
                 head_width=2304, drop_path_rate=0.25),
    "small": dict(channels=(96, 192, 384, 768), blocks=(3, 3, 27, 3),
                  head_width=2304, drop_path_rate=0.4),
    "base": dict(channels=(128, 256, 512, 1024), blocks=(3, 3, 27, 3),
                 head_width=2048, drop_path_rate=0.5),
    # Desk-scale width for CPU experiments.
    "toy": dict(channels=(8, 16, 32, 64), blocks=(1, 1, 2, 1),
                head_width=192, drop_path_rate=0.1),
}

LN_EPS = 1e-6
LAYER_SCALE_INIT = 1e-6
ALPHA_INIT = 1e-2
MLP_RATIO = 4


@dataclass(frozen=True)
class ModelConfig:
    """The network's shape.

    ``variant`` names the preset (see ``VARIANTS``); ``channels`` and
    ``blocks`` give the width and depth of the four stages. A clip has
    ``frames`` = h*w frames for ``grid`` = (h, w), laid out row-major as an
    h x w collage at the end of ``stacking_stage`` (1..4, or None to keep
    single frames to the end). ``head_width`` is the neck's output width,
    ``num_classes`` the classifier's, and ``drop_path_rate`` the stochastic
    depth at the last block. ``use_temporal_branch`` adds the dilated
    temporal conv to every block after the stacking stage, ``use_neck`` puts
    the tile-dilated dense conv before the head, and ``input_size`` is the
    (H, W) the cost plan assumes. ``analysis.ablation_rows`` varies
    ``use_temporal_branch``, ``stacking_stage`` and ``grid``.
    """

    variant: str = "custom"
    channels: tuple = (96, 192, 384, 768)
    blocks: tuple = (3, 3, 9, 3)
    grid: tuple = (3, 3)
    stacking_stage: int = 2          # None disables stacking entirely
    head_width: int = 2304
    num_classes: int = 400
    drop_path_rate: float = 0.0
    use_temporal_branch: bool = True
    use_neck: bool = True
    input_size: tuple = (224, 224)

    @property
    def frames(self) -> int:
        """Clip length L: one frame per grid cell."""
        return self.grid[0] * self.grid[1]

    def __post_init__(self):
        if len(self.channels) != 4 or len(self.blocks) != 4:
            raise ConfigError("channels and blocks must list all four stages")
        if any(c < 1 for c in self.channels) or any(b < 1 for b in self.blocks):
            raise ConfigError("channels and blocks must be positive")
        h, w = self.grid
        if h < 1 or w < 1:
            raise ConfigError(f"bad grid {self.grid}")
        if self.stacking_stage is not None and self.stacking_stage not in (1, 2, 3, 4):
            raise ConfigError(f"stacking stage must be 1..4 or None, got {self.stacking_stage}")
        H, W = self.input_size
        if H % 32 or W % 32:
            raise ConfigError(f"input size {self.input_size} must be divisible by 32")
        if not 0 <= self.drop_path_rate < 1:
            raise ConfigError("drop-path rate must lie in [0, 1)")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.head_width < 1:
            raise ConfigError("head width must be positive")

    def temporal_stages(self) -> tuple:
        """Stages whose blocks carry the temporal branch: strictly after the
        stacking stage (after stage 2 when stacking is disabled)."""
        if not self.use_temporal_branch:
            return ()
        boundary = self.stacking_stage if self.stacking_stage is not None else 2
        return tuple(s for s in (1, 2, 3, 4) if s > boundary)

    def block_drop_rates(self) -> list:
        """Stochastic-depth probability ramps linearly over all blocks."""
        total = sum(self.blocks)
        if total == 1:
            return [self.drop_path_rate]
        return [self.drop_path_rate * i / (total - 1) for i in range(total)]


def make_config(variant: str, **overrides) -> ModelConfig:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; options: {sorted(VARIANTS)}")
    base = dict(VARIANTS[variant])
    base.update(overrides)
    return ModelConfig(variant=variant, **base)


# ---------------------------------------------------------------------------
# collage data movement (pure rearrangements; gradients are the inverse maps)


# Both copy through tensor's thread parts, into new C-contiguous arrays.
def _collage_arr(a: np.ndarray, h: int, w: int) -> np.ndarray:
    ln, c, ht, wt = a.shape
    n = ln // (h * w)
    cells = a.reshape(n, h, w, c, ht, wt).transpose(0, 3, 1, 4, 2, 5)
    return T._contiguous_copy(cells).reshape(n, c, h * ht, w * wt)


def _uncollage_arr(a: np.ndarray, h: int, w: int) -> np.ndarray:
    n, c, hh, ww = a.shape
    ht, wt = hh // h, ww // w
    frames = a.reshape(n, c, h, ht, w, wt).transpose(0, 2, 4, 1, 3, 5)
    return T._contiguous_copy(frames).reshape(n * h * w, c, ht, wt)


def collage(frames: T.Tensor, grid) -> T.Tensor:
    """(L*N, C, Ht, Wt) -> (N, C, h*Ht, w*Wt); clip-major batch, row-major grid."""
    h, w = grid
    ln = frames.shape[0]
    if frames.ndim != 4 or ln % (h * w):
        raise ShapeError(f"batch {ln} does not hold whole clips of {h * w} frames")
    return T._from_op(_collage_arr(frames.data, h, w), (frames,),
                      lambda g: (_uncollage_arr(g, h, w),), "collage")


def uncollage(x: T.Tensor, grid) -> T.Tensor:
    """Inverse of :func:`collage`."""
    h, w = grid
    if x.ndim != 4 or x.shape[2] % h or x.shape[3] % w:
        raise ShapeError(f"spatial extents {x.shape[2:]} not divisible by grid {tuple(grid)}")
    return T._from_op(_uncollage_arr(x.data, h, w), (x,),
                      lambda g: (_collage_arr(g, h, w),), "uncollage")


# Named for the tiled copy it replaced: perfbench's tracer times it by this name.
def tile_grid(s: T.Tensor, t: T.Tensor, grid, collaged: bool) -> T.Tensor:
    """``s`` plus the (N, C, Ht, Wt) map ``t`` in every grid cell, by broadcast.

    ``s`` is an (N, C, h*Ht, w*Wt) collage or, with ``collaged`` false, the
    (N*L, C, Ht, Wt) frames of N clip-major clips; no tiled copy of ``t`` is made.
    """
    T._check_same_dtype(s, t)
    h, w = grid
    n, c, ht, wt = t.shape
    if collaged:
        shape, cells, axes = (n, c, h * ht, w * wt), (n, c, h, ht, w, wt), (2, 4)
        tb = t.data.reshape(n, c, 1, ht, 1, wt)
    else:
        shape, cells, axes = (n * h * w, c, ht, wt), (n, h * w, c, ht, wt), 1
        tb = t.data[:, None]
    if s.shape != shape:
        raise ShapeError(f"map {s.shape} is not a {tuple(grid)} grid of {t.shape} cells")

    def grad_fn(g):
        return g, g.reshape(cells).sum(axis=axes)

    y = np.empty(s.shape, dtype=s.dtype)
    T._map_parts(np.add, y.reshape(cells), s.data.reshape(cells), tb)
    return T._from_op(y, (s, t), grad_fn, "tile_grid")


def frame_mean(x: T.Tensor, frames: int) -> T.Tensor:
    """(L*N, C) -> (N, C) mean over each clip's frames."""
    ln, c = x.shape
    if ln % frames:
        raise ShapeError(f"batch {ln} not divisible by clip length {frames}")
    n = ln // frames
    y = x.data.reshape(n, frames, c).mean(axis=1)

    def grad_fn(g):
        return (np.broadcast_to(g[:, None, :] / frames, (n, frames, c)).reshape(ln, c),)

    return T._from_op(y, (x,), grad_fn, "frame_mean")


def _tile_spec(hw, grid, groups=1) -> T.ConvSpec:
    """Kernel = grid, dilation = tile size: on an (h*Ht, w*Wt) collage each
    output pixel takes one aligned tap from every frame's tile."""
    h, w = grid
    if hw[0] % h or hw[1] % w:
        raise ShapeError(f"input extents {tuple(hw)} not divisible by grid {tuple(grid)}")
    return T.ConvSpec(kernel=tuple(grid), dilation=(hw[0] // h, hw[1] // w), groups=groups)


def drop_path(x: T.Tensor, prob: float, rng, training: bool) -> T.Tensor:
    """Stochastic depth: per-sample Bernoulli keep with 1/(1-p) rescaling."""
    if not 0.0 <= prob < 1.0:
        raise ValueError(f"drop-path prob must be in [0, 1), got {prob}")
    if not training or prob == 0.0:
        return x
    keep = 1.0 - prob
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    mask = (rng.random(shape) < keep).astype(x.dtype) / keep
    return T.mul_const(x, mask)


# ---------------------------------------------------------------------------
# initialization


def trunc_normal(rng, shape, std=0.02):
    """float32 N(0, std) draws clipped at +-2 std. The float64 draws are made
    in chunks of ``tensor._BLOCK`` values: the same numbers, and the same rng
    state after, as one full-size draw, without its full-size temporaries."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, T._BLOCK))
    for start in range(0, flat.size, T._BLOCK):
        vals = buf[: flat.size - start]  # the last chunk may be short
        rng.standard_normal(out=vals)
        vals *= std
        flat[start: start + vals.size] = np.clip(vals, -2 * std, 2 * std, out=vals)
    return out


def _param(rng, shape, std=0.02):
    return T.parameter(trunc_normal(rng, shape, std))


def _zeros(shape):
    return T.parameter(np.zeros(shape, dtype=np.float32))


def _const(shape, value):
    return T.parameter(np.full(shape, value, dtype=np.float32))


# ---------------------------------------------------------------------------
# cost rows: what each layer does for one view (one clip of L frames)


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str                 # conv | linear | norm | act | pool | scale
    params: int
    macs: int                 # multiply-accumulates (conv/linear), else 0
    elt_flops: int            # elementwise bucket, excluded from headline
    items: int = 1            # batch multiplicity the cost was counted with
    cin: int = 0
    cout: int = 0
    kernel: tuple = (0, 0)
    groups: int = 1
    out_hw: tuple = (0, 0)


@dataclass(frozen=True)
class Extent:
    """Geometry of one view's activations: ``items`` maps of ``hw`` pixels,
    the clip's L frames before the collage point and one collage after it."""

    items: int
    hw: tuple

    def collage(self, grid) -> "Extent":
        return Extent(1, (grid[0] * self.hw[0], grid[1] * self.hw[1]))

    def numel(self, channels) -> int:
        return self.items * channels * self.hw[0] * self.hw[1]


def _conv_cost(name, ext, cin, cout, spec):
    kh, kw = spec.kernel
    cpg = cin // spec.groups
    out_hw = (spec.out_extent(ext.hw[0], 0), spec.out_extent(ext.hw[1], 1))
    params = cout * cpg * kh * kw + cout
    macs = ext.items * cout * out_hw[0] * out_hw[1] * cpg * kh * kw
    return LayerCost(name, "conv", params, macs, 0, ext.items, cin, cout, spec.kernel,
                     spec.groups, out_hw)


def _elt_cost(name, kind, ext, c, params=0):
    """A norm, activation or per-channel scale over ``c`` channels of ``ext``."""
    return LayerCost(name, kind, params, 0, ext.numel(c), ext.items, c, c, out_hw=ext.hw)


# ---------------------------------------------------------------------------
# layers: built from the config alone; ``init`` draws the weights, ``plan``
# reports the cost rows and output extent of one view without them


class Registry:
    """Ordered name -> parameter map, filled by the layers' ``init`` in order."""

    def __init__(self):
        self.params = {}

    def register(self, prefix, **tensors):
        for key, t in tensors.items():
            name = f"{prefix}.{key}"
            if name in self.params:
                raise ConfigError(f"duplicate parameter name {name}")
            self.params[name] = t


class ConvLayer:
    def __init__(self, name, cin, cout, spec: T.ConvSpec):
        spec.validate(cin, cout)
        self.name, self.cin, self.cout, self.spec = name, cin, cout, spec

    def init(self, rng, reg):
        kh, kw = self.spec.kernel
        self.weight = _param(rng, (self.cout, self.cin // self.spec.groups, kh, kw))
        self.bias = _zeros((self.cout,))
        reg.register(self.name, weight=self.weight, bias=self.bias)

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, self.spec)

    def plan(self, ext):
        row = _conv_cost(self.name, ext, self.cin, self.cout, self.spec)
        return [row], Extent(ext.items, row.out_hw)


class NormLayer:
    def __init__(self, name, channels):
        self.name, self.channels = name, channels

    def init(self, rng, reg):
        self.gamma = _const((self.channels,), 1.0)
        self.beta = _zeros((self.channels,))
        reg.register(self.name, gamma=self.gamma, beta=self.beta)

    def __call__(self, x, overwrite_x=False):
        return T.layer_norm_channels(x, self.gamma, self.beta, eps=LN_EPS, overwrite_x=overwrite_x)

    def vec(self, x):
        # (N, C) layer norm via a transient spatial axis pair
        n, c = x.shape
        y = T.reshape(x, (n, c, 1, 1))
        return T.reshape(self(y), (n, c))

    def plan(self, ext):
        return [_elt_cost(self.name, "norm", ext, self.channels, 2 * self.channels)], ext


class Block:
    """One residual block; with a temporal branch it fuses S + alpha * T, the
    temporal feature T added to every grid cell of S by broadcast.

    The pointwise half (layer norm, pw1, GELU, pw2, layer scale) takes one of
    two paths. A training forward runs it as one tiled op,
    ``tensor.pointwise_mlp``, whose tape keeps only the fused map and the
    norm's statistics and whose backward recomputes the rest: every block
    keeps one C map on the tape, not eleven. An eval forward records no tape
    and runs the five ops in turn, which perfbench's tracer counts as two
    1x1 convs per block. Both paths give the same output, bit for bit.
    """

    def __init__(self, prefix, channels, grid, temporal, drop_prob):
        c = channels
        self.prefix, self.channels, self.grid = prefix, c, grid
        self.drop_prob = drop_prob
        self.temporal = temporal
        self.dw = ConvLayer(f"{prefix}.dw", c, c,
                            T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=c))
        self.norm = NormLayer(f"{prefix}.norm", c)
        self.pw1 = ConvLayer(f"{prefix}.pw1", c, MLP_RATIO * c, T.ConvSpec(kernel=(1, 1)))
        self.pw2 = ConvLayer(f"{prefix}.pw2", MLP_RATIO * c, c, T.ConvSpec(kernel=(1, 1)))

    def init(self, rng, reg):
        c = self.channels
        self.dw.init(rng, reg)
        if self.temporal:
            h, w = self.grid
            self.temporal_weight = _param(rng, (c, 1, h, w))
            self.temporal_b = _zeros((c,))
            self.alpha = _const((c,), ALPHA_INIT)
            reg.register(f"{self.prefix}.temporal", weight=self.temporal_weight,
                         bias=self.temporal_b, alpha=self.alpha)
        self.norm.init(rng, reg)
        self.pw1.init(rng, reg)
        self.pw2.init(rng, reg)
        self.layer_scale = _const((c,), LAYER_SCALE_INIT)
        reg.register(self.prefix, layer_scale=self.layer_scale)

    def fuse(self, x, collaged):
        """Pre-norm fusion: spatial depth-wise features plus the broadcast
        temporal feature, affine in alpha; equals the spatial path at alpha=0."""
        s = self.dw(x)
        if not self.temporal:
            return s
        coll = x if collaged else collage(x, self.grid)
        spec = _tile_spec(coll.shape[2:], self.grid, groups=self.channels)
        t = T.conv2d(coll, self.temporal_weight, self.temporal_b, spec)
        return tile_grid(s, T.scale_channels(t, self.alpha), self.grid, collaged)

    def __call__(self, x, collaged, training, rng):
        if training:
            y = T.pointwise_mlp(self.fuse(x, collaged), self.norm.gamma, self.norm.beta,
                                self.pw1.weight, self.pw1.bias, self.pw2.weight, self.pw2.bias,
                                self.layer_scale, eps=LN_EPS)
        else:
            # Only the layer norm reads the fused map, and its backward reads
            # its own xhat: an untaped norm writes over the map, and a taped
            # one lets it be freed here rather than live through the MLP.
            y = self.norm(self.fuse(x, collaged), overwrite_x=True)
            # pw1's output is dead once GELU has read it: the dense conv's
            # backward reads its input, not its output. So GELU may write y
            # over it.
            y = T.gelu(self.pw1(y), overwrite_x=True)
            y = T.scale_channels(self.pw2(y), self.layer_scale)
        y = drop_path(y, self.drop_prob, rng, training)
        return T.add(x, y)

    def plan(self, ext, collaged):
        c, p = self.channels, self.prefix
        rows = self.dw.plan(ext)[0]
        if self.temporal:
            coll = ext if collaged else ext.collage(self.grid)
            conv = _conv_cost(f"{p}.temporal", coll, c, c, _tile_spec(coll.hw, self.grid, groups=c))
            rows += [conv, _elt_cost(f"{p}.alpha", "scale", Extent(coll.items, conv.out_hw), c, c)]
        rows += self.norm.plan(ext)[0]
        pw1_rows, hidden = self.pw1.plan(ext)
        rows += pw1_rows
        rows.append(_elt_cost(f"{p}.gelu", "act", hidden, MLP_RATIO * c))
        rows += self.pw2.plan(hidden)[0]
        rows.append(_elt_cost(f"{p}.layer_scale", "scale", ext, c, c))
        return rows, ext


class Stage:
    """Entry layers (the stem, or a downsample), then the blocks, then the
    collage point if this is the stacking stage; captured as ``stage{s}``."""

    def __init__(self, name, entry, blocks, grid, collaged, stacks):
        self.name, self.entry, self.blocks, self.grid = name, entry, blocks, grid
        self.collaged = collaged  # blocks see a collage, not single frames
        self.stacks = stacks

    def init(self, rng, reg):
        for layer in self.entry + self.blocks:
            layer.init(rng, reg)

    def __call__(self, x, training, rng, capture):
        for layer in self.entry:
            x = layer(x)
        for block in self.blocks:
            x = block(x, self.collaged, training, rng)
        if self.stacks:
            x = collage(x, self.grid)
        if capture is not None and self.name in capture:
            capture[self.name] = x
        return x

    def plan(self, ext):
        rows = []
        for layer in self.entry:
            layer_rows, ext = layer.plan(ext)
            rows += layer_rows
        for block in self.blocks:
            rows += block.plan(ext, self.collaged)[0]
        return rows, ext.collage(self.grid) if self.stacks else ext


class Neck:
    """Dense conv with kernel (h, w) dilated by the tile size, then norm and
    GELU; collages the frames first when no stage stacked them."""

    def __init__(self, cin, cout, grid, collage_first):
        self.cin, self.cout, self.grid = cin, cout, grid
        self.collage_first = collage_first
        self.norm = NormLayer("neck.norm", cout)

    def init(self, rng, reg):
        h, w = self.grid
        self.weight = _param(rng, (self.cout, self.cin, h, w))
        self.bias = _zeros((self.cout,))
        reg.register("neck.conv", weight=self.weight, bias=self.bias)
        self.norm.init(rng, reg)

    def __call__(self, x, training, rng, capture):
        if self.collage_first:
            x = collage(x, self.grid)
        y = T.conv2d(x, self.weight, self.bias, _tile_spec(x.shape[2:], self.grid))
        # The norm's output is dead once GELU has read it (layer norm's
        # backward reads its normalised input), so GELU may write y over it.
        return T.gelu(self.norm(y), overwrite_x=True)

    def plan(self, ext):
        if self.collage_first:
            ext = ext.collage(self.grid)
        spec = _tile_spec(ext.hw, self.grid)
        conv = _conv_cost("neck.conv", ext, self.cin, self.cout, spec)
        tile = Extent(ext.items, conv.out_hw)
        gelu = _elt_cost("neck.gelu", "act", tile, self.cout)
        return [conv, *self.norm.plan(tile)[0], gelu], tile


class Head:
    """Global average pool, then (without a neck) the mean over un-collaged
    frames and a final norm, then the linear classifier."""

    def __init__(self, cin, num_classes, final_norm=None, frames=None):
        self.cin, self.num_classes = cin, num_classes
        self.final_norm = final_norm
        self.frames = frames  # clip length to average over; None on a collage

    def init(self, rng, reg):
        if self.final_norm is not None:
            self.final_norm.init(rng, reg)
        self.weight = _param(rng, (self.num_classes, self.cin))
        self.bias = _zeros((self.num_classes,))
        reg.register("head", weight=self.weight, bias=self.bias)

    def __call__(self, x, training, rng, capture):
        pooled = T.global_avg_pool(x)
        if self.frames is not None:
            pooled = frame_mean(pooled, self.frames)
        if self.final_norm is not None:
            pooled = self.final_norm.vec(pooled)
        return T.linear(pooled, self.weight, self.bias)

    def plan(self, ext):
        c, k = self.cin, self.num_classes
        rows = [LayerCost("pool", "pool", 0, 0, ext.numel(c), ext.items, c, c, out_hw=(1, 1))]
        pooled = Extent(1, (1, 1))
        if self.final_norm is not None:
            rows += self.final_norm.plan(pooled)[0]
        rows.append(LayerCost("head", "linear", k * (c + 1), k * c, 0, 1, c, k))
        return rows, pooled


def layer_graph(config: ModelConfig) -> list:
    """The network as weightless layers, in forward and weight-drawing order:
    four stages (the stem opens stage 1), the neck if any, the head."""
    ch, grid = config.channels, config.grid
    temporal_stages = config.temporal_stages()
    drop_rates = iter(config.block_drop_rates())
    stacking = config.stacking_stage
    layers = []
    for s in range(1, 5):
        c = ch[s - 1]
        if s == 1:
            entry = [ConvLayer("stem.conv", 3, c, T.ConvSpec(kernel=(4, 4), stride=(4, 4))),
                     NormLayer("stem.norm", c)]
        else:
            entry = [NormLayer(f"stage{s}.down.norm", ch[s - 2]),
                     ConvLayer(f"stage{s}.down.conv", ch[s - 2], c,
                               T.ConvSpec(kernel=(2, 2), stride=(2, 2)))]
        blocks = [Block(f"stage{s}.block{b}", c, grid, temporal=s in temporal_stages,
                        drop_prob=next(drop_rates))
                  for b in range(config.blocks[s - 1])]
        layers.append(Stage(f"stage{s}", entry, blocks, grid,
                            collaged=stacking is not None and s > stacking, stacks=stacking == s))
    if config.use_neck:
        layers.append(Neck(ch[3], config.head_width, grid, collage_first=stacking is None))
        layers.append(Head(config.head_width, config.num_classes))
    else:
        layers.append(Head(ch[3], config.num_classes, final_norm=NormLayer("final.norm", ch[3]),
                           frames=config.frames if stacking is None else None))
    return layers


class VidConvModel:
    """Parameter store plus the layer graph; built deterministically from a seed."""

    def __init__(self, config: ModelConfig, rng):
        self.config = config
        self.layers = layer_graph(config)
        reg = Registry()
        for layer in self.layers:
            layer.init(rng, reg)
        self._params = reg.params

    # -- parameter registry ------------------------------------------------

    def parameters(self) -> dict:
        return self._params

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    @staticmethod
    def param_group(name: str) -> str:
        """Backbone vs randomly-initialized tail, for the lr multiplier."""
        return "head" if name.startswith(("neck.", "head.")) else "backbone"

    # -- forward -----------------------------------------------------------

    def forward(self, clip, training=False, rng=None, capture=None):
        """Clip (N*L, 3, H, W) in clip-major order -> logits (N, num_classes).

        ``capture`` is an optional mutable mapping; requested stage names
        ("stage1".."stage4") are filled with the stage outputs. A training
        forward, or one given ``capture``, records a tape, with the captured
        tensors on it, for ``tensor.backward``. Any other forward records
        none: its logits do not require grad, and each activation is freed
        once no later layer reads it.
        """
        cfg = self.config
        if not isinstance(clip, T.Tensor):
            clip = T.Tensor(clip)
        if clip.ndim != 4 or clip.shape[1] != 3:
            raise ShapeError(f"expected (N*L, 3, H, W) input, got {clip.shape}")
        if clip.shape[0] % cfg.frames:
            raise ShapeError(f"batch {clip.shape[0]} does not hold whole {cfg.frames}-frame clips")
        if clip.shape[2] % 32 or clip.shape[3] % 32:
            raise ShapeError(f"spatial extents {clip.shape[2:]} must be divisible by 32")
        if training and rng is None and cfg.drop_path_rate > 0:
            raise ValueError("training forward with stochastic regularization needs an rng")
        x = clip
        with T.recording(training or capture is not None):
            for layer in self.layers:
                x = layer(x, training, rng, capture)
        return x

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(self, path, meta=None):
        """Write ``<path>.npz``: entry ``meta`` (0-d str, the JSON of ``meta`` and
        the config), then each parameter under its registry name. The archive is
        renamed over the old file, so a failed save leaves that file as it was."""
        text = json.dumps(dict(meta or {}, config=config_to_dict(self.config)))  # raises before a write
        tmp = f"{path}.npz.tmp"
        os.makedirs(os.path.dirname(os.path.abspath(tmp)), exist_ok=True)
        try:
            with open(tmp, "wb") as fh:  # an open file, so numpy adds no suffix
                np.savez(fh, meta=np.array(text), **{n: p.data for n, p in self._params.items()})
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, f"{path}.npz")
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def load_checkpoint(self, path) -> dict:
        """Load ``<path>.npz`` and return its ``meta``. Every entry is read whole,
        so zip checks its CRC-32, and every name, dtype and shape is checked before
        a weight is replaced, as is the stored config: it must match the model's in
        every field but ``variant``, ``drop_path_rate`` and ``input_size``. A
        foreign, damaged or differently wired file raises ``ConfigError`` and leaves
        the model as it was; a missing one raises ``FileNotFoundError``."""
        file = f"{path}.npz"
        with open(file, "rb") as fh:
            try:
                npz = np.load(fh, allow_pickle=False)
                if not isinstance(npz, np.lib.npyio.NpzFile) or len(set(npz.files)) < len(npz.files):
                    raise ValueError("it is no archive of uniquely named entries")
                arrays = {name: np.asarray(npz[name]) for name in npz.files}  # a non-.npy entry is bytes
                meta = json.loads(str(arrays.pop("meta"))) if "meta" in arrays else None
            # numpy parses a damaged .npy header with tokenize; zipfile refuses an unknown
            # compression and seeks (OSError) wherever a damaged directory points
            except (zipfile.BadZipFile, ValueError, EOFError, tokenize.TokenError,
                    NotImplementedError, OSError) as exc:
                raise ConfigError(f"{file} is not a checkpoint: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"{file} has no meta entry holding a JSON object")
        stored, wanted = arrays.keys(), self._params.keys()
        if stored != wanted:
            raise ConfigError(f"checkpoint is missing parameters {sorted(wanted - stored)} "
                              f"and holds ones the model lacks: {sorted(stored - wanted)}")
        for name, p in self._params.items():
            arr = arrays[name]
            if arr.dtype != np.float32 or arr.shape != p.shape:
                raise ConfigError(f"checkpoint/config mismatch for parameter {name}: stored "
                                  f"{arr.dtype} {arr.shape}, model expects float32 {p.shape}")
        config = meta.get("config")
        if not isinstance(config, dict) or config.keys() != ModelConfig.__dataclass_fields__.keys():
            raise ConfigError(f"{file} holds no config with the fields of ModelConfig")
        try:
            config = config_from_dict(config)
        except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(f"{file} holds an invalid model config: {exc}") from exc
        # the preset name, train-time stochastic depth and planned input size
        # leave the forward alone; every other field changes it
        differ = [key for key in ModelConfig.__dataclass_fields__
                  if key not in ("variant", "drop_path_rate", "input_size")
                  and getattr(config, key) != getattr(self.config, key)]
        if differ:
            raise ConfigError(f"checkpoint was saved from a model wired differently in {differ}")
        for name, p in self._params.items():
            p.data = arrays[name]
        return meta


def build_model(config: ModelConfig, rng_seed: int) -> VidConvModel:
    """Instantiate with all weights drawn from one deterministic stream."""
    return VidConvModel(config, np.random.default_rng(np.random.SeedSequence(rng_seed)))


def config_to_dict(config: ModelConfig) -> dict:
    d = {}
    for key in ModelConfig.__dataclass_fields__:
        val = getattr(config, key)
        d[key] = list(val) if isinstance(val, tuple) else val
    return d


def config_from_dict(d: dict) -> ModelConfig:
    kwargs = {}
    for key, f in ModelConfig.__dataclass_fields__.items():
        if key in d:
            val = d[key]
            kwargs[key] = tuple(val) if isinstance(val, list) else val
    return ModelConfig(**kwargs)
