"""The collage video backbone: early per-frame stages, frame stacking into a
spatial grid, blocks with a dilated depth-wise temporal branch, neck, head.

A clip of L = h*w frames runs per-frame through the early stages; the chosen
stage's output is rearranged into an h x w collage so the later stages see one
big image. Later blocks add a temporal feature, gathered by a depth-wise
convolution whose dilation equals the current tile size, scaled by a learnable
per-channel vector and added to every cell of the grid by broadcast.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .training import drop_path, dropout

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
    variant: str = "custom"
    channels: tuple = (96, 192, 384, 768)
    blocks: tuple = (3, 3, 9, 3)
    grid: tuple = (3, 3)
    frames: int = 9
    stacking_stage: int = 2          # None disables stacking entirely
    head_width: int = 2304
    num_classes: int = 400
    drop_path_rate: float = 0.0
    head_dropout: float = 0.0
    use_temporal_branch: bool = True
    use_neck: bool = True
    temporal_bias: bool = True
    input_size: tuple = (224, 224)

    def validate(self):
        if len(self.channels) != 4 or len(self.blocks) != 4:
            raise ConfigError("channels and blocks must list all four stages")
        if any(c < 1 for c in self.channels) or any(b < 1 for b in self.blocks):
            raise ConfigError("channels and blocks must be positive")
        h, w = self.grid
        if h < 1 or w < 1:
            raise ConfigError(f"bad grid {self.grid}")
        needs_grid = self.stacking_stage is not None or self.use_temporal_branch or self.use_neck
        if needs_grid and self.frames != h * w:
            raise ConfigError(f"frames ({self.frames}) must equal grid h*w ({h * w})")
        if self.stacking_stage is not None and self.stacking_stage not in (1, 2, 3, 4):
            raise ConfigError(f"stacking stage must be 1..4 or None, got {self.stacking_stage}")
        H, W = self.input_size
        if H % 32 or W % 32:
            raise ConfigError(f"input size {self.input_size} must be divisible by 32")
        if not 0 <= self.drop_path_rate < 1 or not 0 <= self.head_dropout < 1:
            raise ConfigError("drop rates must lie in [0, 1)")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.head_width < 1:
            raise ConfigError("head width must be positive")
        return self

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
    return ModelConfig(variant=variant, **base).validate()


# ---------------------------------------------------------------------------
# collage data movement (pure rearrangements; gradients are the inverse maps)


def _collage_arr(a: np.ndarray, h: int, w: int) -> np.ndarray:
    ln, c, ht, wt = a.shape
    n = ln // (h * w)
    return (a.reshape(n, h, w, c, ht, wt)
             .transpose(0, 3, 1, 4, 2, 5)
             .reshape(n, c, h * ht, w * wt))


def _uncollage_arr(a: np.ndarray, h: int, w: int) -> np.ndarray:
    n, c, hh, ww = a.shape
    ht, wt = hh // h, ww // w
    return (a.reshape(n, c, h, ht, w, wt)
             .transpose(0, 2, 4, 1, 3, 5)
             .reshape(n * h * w, c, ht, wt))


def collage(frames: T.Tensor, grid) -> T.Tensor:
    """(L*N, C, Ht, Wt) -> (N, C, h*Ht, w*Wt); clip-major batch, row-major grid."""
    h, w = grid
    ln = frames.shape[0]
    if frames.ndim != 4 or ln % (h * w):
        raise ShapeError(f"batch {ln} does not hold whole clips of {h * w} frames")
    out = _collage_arr(frames.data, h, w)
    return T._from_op(np.ascontiguousarray(out), (frames,),
                      lambda g: (_uncollage_arr(g, h, w),), "collage")


def uncollage(x: T.Tensor, grid) -> T.Tensor:
    """Inverse of :func:`collage`."""
    h, w = grid
    if x.ndim != 4 or x.shape[2] % h or x.shape[3] % w:
        raise ShapeError(f"spatial extents {x.shape[2:]} not divisible by grid {tuple(grid)}")
    out = _uncollage_arr(x.data, h, w)
    return T._from_op(np.ascontiguousarray(out), (x,),
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

    y = (s.data.reshape(cells) + tb).reshape(s.shape)
    return T._from_op(y, (s, t), grad_fn, "tile_grid")


def frame_mean(x: T.Tensor, frames: int) -> T.Tensor:
    """(L*N, C) -> (N, C) mean over each clip's frames."""
    ln, c = x.shape
    if ln % frames:
        raise ShapeError(f"batch {ln} not divisible by clip length {frames}")
    n = ln // frames
    y = x.data.reshape(n, frames, c).mean(axis=1)

    def grad_fn(g):
        return (np.broadcast_to(g[:, None, :] / frames, (n, frames, c))
                .reshape(ln, c).astype(x.dtype, copy=True),)

    return T._from_op(y, (x,), grad_fn, "frame_mean")


def _tile_spec(hw, grid, groups=1) -> T.ConvSpec:
    """Kernel = grid, dilation = tile size: on an (h*Ht, w*Wt) collage each
    output pixel takes one aligned tap from every frame's tile."""
    h, w = grid
    if hw[0] % h or hw[1] % w:
        raise ShapeError(f"input extents {tuple(hw)} not divisible by grid {tuple(grid)}")
    return T.ConvSpec(kernel=tuple(grid), dilation=(hw[0] // h, hw[1] // w), groups=groups)


# ---------------------------------------------------------------------------
# initialization


def trunc_normal(rng, shape, std=0.02):
    vals = rng.standard_normal(shape) * std
    return np.clip(vals, -2 * std, 2 * std).astype(np.float32)


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


def _conv_cost(name, ext, cin, cout, spec, bias=True):
    kh, kw = spec.kernel
    cpg = cin // spec.groups
    out_hw = (spec.out_extent(ext.hw[0], 0), spec.out_extent(ext.hw[1], 1))
    params = cout * cpg * kh * kw + (cout if bias else 0)
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
            if t is None:
                continue
            name = f"{prefix}.{key}"
            if name in self.params:
                raise ConfigError(f"duplicate parameter name {name}")
            self.params[name] = t


class ConvLayer:
    def __init__(self, name, cin, cout, spec: T.ConvSpec, bias=True):
        spec.validate(cin, cout)
        self.name, self.cin, self.cout, self.spec = name, cin, cout, spec
        self.has_bias = bias

    def init(self, rng, reg):
        kh, kw = self.spec.kernel
        self.weight = _param(rng, (self.cout, self.cin // self.spec.groups, kh, kw))
        self.bias = _zeros((self.cout,)) if self.has_bias else None
        reg.register(self.name, weight=self.weight, bias=self.bias)

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, self.spec)

    def plan(self, ext):
        row = _conv_cost(self.name, ext, self.cin, self.cout, self.spec, self.has_bias)
        return [row], Extent(ext.items, row.out_hw)


class NormLayer:
    def __init__(self, name, channels):
        self.name, self.channels = name, channels

    def init(self, rng, reg):
        self.gamma = _const((self.channels,), 1.0)
        self.beta = _zeros((self.channels,))
        reg.register(self.name, gamma=self.gamma, beta=self.beta)

    def __call__(self, x):
        return T.layer_norm_channels(x, self.gamma, self.beta, eps=LN_EPS)

    def vec(self, x):
        # (N, C) layer norm via a transient spatial axis pair
        n, c = x.shape
        y = T.reshape(x, (n, c, 1, 1))
        return T.reshape(self(y), (n, c))

    def plan(self, ext):
        return [_elt_cost(self.name, "norm", ext, self.channels, 2 * self.channels)], ext


class Block:
    """One residual block; with a temporal branch it fuses S + alpha * T, the
    temporal feature T added to every grid cell of S by broadcast."""

    def __init__(self, prefix, channels, grid, temporal, temporal_bias, drop_prob):
        c = channels
        self.prefix, self.channels, self.grid = prefix, c, grid
        self.drop_prob = drop_prob
        self.temporal = temporal
        self.temporal_bias = temporal_bias
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
            self.temporal_b = _zeros((c,)) if self.temporal_bias else None
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
        f = self.fuse(x, collaged)
        y = self.norm(f)
        y = self.pw1(y)
        y = T.gelu(y)
        y = self.pw2(y)
        y = T.scale_channels(y, self.layer_scale)
        y = drop_path(y, self.drop_prob, rng, training)
        return T.add(x, y)

    def plan(self, ext, collaged):
        c, p = self.channels, self.prefix
        rows = self.dw.plan(ext)[0]
        if self.temporal:
            coll = ext if collaged else ext.collage(self.grid)
            conv = _conv_cost(f"{p}.temporal", coll, c, c, _tile_spec(coll.hw, self.grid, groups=c),
                              self.temporal_bias)
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
        return T.gelu(self.norm(y))

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
    frames and a final norm, then dropout and the linear classifier."""

    def __init__(self, cin, num_classes, dropout_prob, final_norm=None, frames=None):
        self.cin, self.num_classes, self.dropout_prob = cin, num_classes, dropout_prob
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
        pooled = dropout(pooled, self.dropout_prob, rng, training)
        if capture is not None and "pooled" in capture:
            capture["pooled"] = pooled
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
                        temporal_bias=config.temporal_bias, drop_prob=next(drop_rates))
                  for b in range(config.blocks[s - 1])]
        layers.append(Stage(f"stage{s}", entry, blocks, grid,
                            collaged=stacking is not None and s > stacking, stacks=stacking == s))
    if config.use_neck:
        layers.append(Neck(ch[3], config.head_width, grid, collage_first=stacking is None))
        layers.append(Head(config.head_width, config.num_classes, config.head_dropout))
    else:
        layers.append(Head(ch[3], config.num_classes, config.head_dropout,
                           final_norm=NormLayer("final.norm", ch[3]),
                           frames=config.frames if stacking is None else None))
    return layers


class VidConvModel:
    """Parameter store plus the layer graph; built deterministically from a seed."""

    def __init__(self, config: ModelConfig, rng):
        config.validate()
        self.config = config
        self.layers = layer_graph(config)
        reg = Registry()
        for layer in self.layers:
            layer.init(rng, reg)
        self.stages = [layer.blocks for layer in self.layers if isinstance(layer, Stage)]
        self._params = reg.params

    # -- parameter registry ------------------------------------------------

    def parameters(self) -> dict:
        return self._params

    def num_params(self) -> int:
        return sum(p.size for p in self._params.values())

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
        ("stage1".."stage4", "pooled") are filled with live tape tensors.
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
        if training and rng is None and (cfg.drop_path_rate > 0 or cfg.head_dropout > 0):
            raise ValueError("training forward with stochastic regularization needs an rng")
        x = clip
        for layer in self.layers:
            x = layer(x, training, rng, capture)
        return x

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(self, path, meta=None):
        arrays = {name: p.data for name, p in self._params.items()}
        save_arrays(path, arrays, meta=dict(meta or {}, config=config_to_dict(self.config)))

    def load_checkpoint(self, path) -> dict:
        """Load the weights saved at ``path``; returns the saved ``meta``."""
        arrays, meta = load_arrays(path)
        for name, p in self._params.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint missing parameter {name}")
            arr = arrays[name]
            if tuple(arr.shape) != tuple(p.shape):
                raise ConfigError(
                    f"checkpoint/config mismatch for parameter {name}: "
                    f"stored {tuple(arr.shape)}, model expects {tuple(p.shape)}")
            p.data = arr.astype(np.float32, copy=True)
        return meta


def build_model(config: ModelConfig, rng_seed: int) -> VidConvModel:
    """Instantiate with all weights drawn from one deterministic stream."""
    return VidConvModel(config, np.random.default_rng(np.random.SeedSequence(rng_seed)))


# ---------------------------------------------------------------------------
# checkpoint container: JSON manifest + one little-endian float32 blob


_CHECKPOINT_FORMAT = "vidconv-checkpoint-v1"


def _replace_with(dest, data: bytes):
    """Write ``data`` to a temp file beside ``dest``, then rename it over ``dest``."""
    tmp = f"{dest}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dest)


def save_arrays(path, arrays: dict, meta=None):
    """Write ``<path>.bin`` and ``<path>.json``; a failed save leaves the old pair.

    The manifest holds the blob's SHA-256, so a save cut off between the two
    renames (new blob, old manifest) is caught by ``load_arrays``.
    """
    entries = []
    offset = 0
    blob = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": offset, "length": int(a.size)})
        blob.append(a.tobytes())
        offset += a.size
    blob = b"".join(blob)
    manifest = {"format": _CHECKPOINT_FORMAT, "entries": entries, "meta": meta or {},
                "sha256": hashlib.sha256(blob).hexdigest()}
    text = json.dumps(manifest, indent=1).encode("utf-8")  # raises before any write
    os.makedirs(os.path.dirname(os.path.abspath(str(path))), exist_ok=True)
    _replace_with(f"{path}.bin", blob)
    _replace_with(f"{path}.json", text)


def load_arrays(path):
    """Read a ``save_arrays`` pair; a foreign manifest, or a blob whose size or
    checksum differs from the manifest's, raises."""
    with open(f"{path}.json", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"{path}.json is not a checkpoint manifest: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != _CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}.json has format {fmt!r}, expected {_CHECKPOINT_FORMAT!r}")
    try:
        entries = [(e["name"], [int(n) for n in e["shape"]], int(e["offset"]), int(e["length"]))
                   for e in manifest["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.json has malformed entries: {exc!r}") from exc
    expect = 4 * sum(length for *_, length in entries)
    with open(f"{path}.bin", "rb") as fh:
        blob = fh.read()
    got = len(blob)
    if got != expect:
        raise ConfigError(f"checkpoint blob {path}.bin holds {got} bytes, manifest expects {expect}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise ConfigError(f"checkpoint blob {path}.bin does not match the checksum in {path}.json")
    raw = np.frombuffer(blob, dtype="<f4")
    arrays = {}
    end = 0  # entries lie back to back in manifest order, as save_arrays wrote them
    for name, shape, offset, length in entries:
        if math.prod(shape) != length:
            raise ConfigError(f"{path}.json entry {name} has shape {shape} but length {length}")
        if offset != end:
            raise ConfigError(f"{path}.json entry {name} has offset {offset}, expected {end}")
        if name in arrays:
            raise ConfigError(f"{path}.json has a duplicate entry {name}")
        arrays[name] = raw[offset: offset + length].reshape(shape).copy()
        end += length
    return arrays, manifest.get("meta", {})


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
    return ModelConfig(**kwargs).validate()
