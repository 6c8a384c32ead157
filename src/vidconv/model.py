"""The collage video backbone: early per-frame stages, frame stacking into a
spatial grid, blocks with a dilated depth-wise temporal branch, neck, head.

A clip of L = h*w frames runs per-frame through the early stages; the chosen
stage's output is rearranged into an h x w collage so the later stages see one
big image. Later blocks add a temporal feature, gathered by a depth-wise
convolution whose dilation equals the current tile size, tiled back over the
grid and blended through a learnable per-channel vector.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

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
class CollageLayout:
    """Row-major bijection between frame indices and cells of an h x w grid."""

    grid: tuple
    tile: tuple = None  # (Ht, Wt); None when derived from a runtime shape

    @property
    def frames(self) -> int:
        return self.grid[0] * self.grid[1]

    def cell(self, t: int) -> tuple:
        h, w = self.grid
        if not 0 <= t < h * w:
            raise ShapeError(f"frame index {t} outside grid {self.grid}")
        return t // w, t % w


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

    def layout(self) -> CollageLayout:
        return CollageLayout(grid=self.grid)

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


def collage(frames: T.Tensor, layout: CollageLayout) -> T.Tensor:
    """(L*N, C, Ht, Wt) -> (N, C, h*Ht, w*Wt); clip-major batch, row-major grid."""
    h, w = layout.grid
    ln = frames.shape[0]
    if frames.ndim != 4 or ln % (h * w):
        raise ShapeError(f"batch {ln} does not hold whole clips of {h * w} frames")
    out = _collage_arr(frames.data, h, w)
    return T._from_op(np.ascontiguousarray(out), (frames,),
                      lambda g: (_uncollage_arr(g, h, w),), "collage")


def uncollage(x: T.Tensor, layout: CollageLayout) -> T.Tensor:
    """Inverse of :func:`collage`."""
    h, w = layout.grid
    if x.ndim != 4 or x.shape[2] % h or x.shape[3] % w:
        raise ShapeError(f"spatial extents {x.shape[2:]} not divisible by grid {layout.grid}")
    out = _uncollage_arr(x.data, h, w)
    return T._from_op(np.ascontiguousarray(out), (x,),
                      lambda g: (_collage_arr(g, h, w),), "uncollage")


def tile_grid(x: T.Tensor, h: int, w: int) -> T.Tensor:
    """Repeat a (N, C, Ht, Wt) map h times vertically and w times horizontally."""
    n, c, ht, wt = x.shape

    def grad_fn(g):
        return (g.reshape(n, c, h, ht, w, wt).sum(axis=(2, 4)),)

    return T._from_op(np.tile(x.data, (1, 1, h, w)), (x,), grad_fn, "tile_grid")


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


def temporal_dilated_conv(x: T.Tensor, weight: T.Tensor, bias, layout: CollageLayout) -> T.Tensor:
    """Depth-wise conv with kernel (h, w) and dilation equal to the tile size.

    On an (N, C, h*Ht, w*Wt) collage this gathers one aligned sample from each
    frame's tile and returns a single (N, C, Ht, Wt) temporal feature.
    """
    h, w = layout.grid
    if x.shape[2] % h or x.shape[3] % w:
        raise ShapeError(f"input extents {x.shape[2:]} not divisible by grid {layout.grid}")
    ht, wt = x.shape[2] // h, x.shape[3] // w
    spec = T.ConvSpec(kernel=(h, w), dilation=(ht, wt), groups=x.shape[1])
    return T.conv2d(x, weight, bias, spec)


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
# layers


class Registry:
    """Ordered name -> parameter map filled during construction."""

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
    def __init__(self, rng, reg, prefix, cin, cout, spec: T.ConvSpec, bias=True, std=0.02):
        spec.validate(cin, cout)
        self.spec = spec
        kh, kw = spec.kernel
        self.weight = _param(rng, (cout, cin // spec.groups, kh, kw), std)
        self.bias = _zeros((cout,)) if bias else None
        reg.register(prefix, weight=self.weight, bias=self.bias)

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, self.spec)


class NormLayer:
    def __init__(self, reg, prefix, channels):
        self.gamma = _const((channels,), 1.0)
        self.beta = _zeros((channels,))
        reg.register(prefix, gamma=self.gamma, beta=self.beta)

    def __call__(self, x):
        return T.layer_norm_channels(x, self.gamma, self.beta, eps=LN_EPS)

    def vec(self, x):
        # (N, C) layer norm via a transient spatial axis pair
        n, c = x.shape
        y = T.reshape(x, (n, c, 1, 1))
        return T.reshape(self(y), (n, c))


class Block:
    """One residual block; with a temporal branch it fuses S + alpha * tiled T."""

    def __init__(self, rng, reg, prefix, channels, layout, temporal, temporal_bias, drop_prob):
        c = channels
        self.layout = layout
        self.drop_prob = drop_prob
        self.dw = ConvLayer(rng, reg, f"{prefix}.dw", c, c,
                            T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=c))
        self.temporal = None
        self.alpha = None
        if temporal:
            h, w = layout.grid
            self.temporal_weight = _param(rng, (c, 1, h, w))
            self.temporal_b = _zeros((c,)) if temporal_bias else None
            self.alpha = _const((c,), ALPHA_INIT)
            reg.register(f"{prefix}.temporal", weight=self.temporal_weight,
                         bias=self.temporal_b, alpha=self.alpha)
            self.temporal = True
        self.norm = NormLayer(reg, f"{prefix}.norm", c)
        self.pw1 = ConvLayer(rng, reg, f"{prefix}.pw1", c, MLP_RATIO * c, T.ConvSpec(kernel=(1, 1)))
        self.pw2 = ConvLayer(rng, reg, f"{prefix}.pw2", MLP_RATIO * c, c, T.ConvSpec(kernel=(1, 1)))
        self.layer_scale = _const((c,), LAYER_SCALE_INIT)
        reg.register(prefix, layer_scale=self.layer_scale)

    def fuse(self, x, collaged):
        """Pre-norm fusion: spatial depth-wise features plus the broadcast
        temporal feature, affine in alpha; equals the spatial path at alpha=0."""
        s = self.dw(x)
        if not self.temporal:
            return s
        h, w = self.layout.grid
        coll = x if collaged else collage(x, self.layout)
        t = temporal_dilated_conv(coll, self.temporal_weight, self.temporal_b, self.layout)
        tiled = tile_grid(t, h, w)
        if not collaged:
            tiled = uncollage(tiled, self.layout)
        return T.add(s, T.scale_channels(tiled, self.alpha))

    def __call__(self, x, collaged, training, rng):
        f = self.fuse(x, collaged)
        y = self.norm(f)
        y = self.pw1(y)
        y = T.gelu(y)
        y = self.pw2(y)
        y = T.scale_channels(y, self.layer_scale)
        y = drop_path(y, self.drop_prob, rng, training)
        return T.add(x, y)


class VidConvModel:
    """Parameter store plus the layer graph; built deterministically from a seed."""

    def __init__(self, config: ModelConfig, rng):
        config.validate()
        self.config = config
        reg = Registry()
        ch = config.channels
        layout = config.layout()
        temporal_stages = config.temporal_stages()
        drop_rates = config.block_drop_rates()

        self.stem_conv = ConvLayer(rng, reg, "stem.conv", 3, ch[0],
                                   T.ConvSpec(kernel=(4, 4), stride=(4, 4)))
        self.stem_norm = NormLayer(reg, "stem.norm", ch[0])

        self.downsamples = [None]
        self.stages = []
        bi = 0
        for s in range(1, 5):
            c = ch[s - 1]
            if s > 1:
                dn = NormLayer(reg, f"stage{s}.down.norm", ch[s - 2])
                dc = ConvLayer(rng, reg, f"stage{s}.down.conv", ch[s - 2], c,
                               T.ConvSpec(kernel=(2, 2), stride=(2, 2)))
                self.downsamples.append((dn, dc))
            blocks = []
            for b in range(config.blocks[s - 1]):
                blocks.append(Block(rng, reg, f"stage{s}.block{b}", c, layout,
                                    temporal=s in temporal_stages,
                                    temporal_bias=config.temporal_bias,
                                    drop_prob=drop_rates[bi]))
                bi += 1
            self.stages.append(blocks)

        self.neck_conv = None
        self.final_norm = None
        if config.use_neck:
            h, w = config.grid
            # dilation is resolved from the runtime map; spec validated per call
            self.neck_weight = _param(rng, (config.head_width, ch[3], h, w))
            self.neck_b = _zeros((config.head_width,))
            reg.register("neck.conv", weight=self.neck_weight, bias=self.neck_b)
            self.neck_norm = NormLayer(reg, "neck.norm", config.head_width)
            head_in = config.head_width
        else:
            self.final_norm = NormLayer(reg, "final.norm", ch[3])
            head_in = ch[3]
        self.head_weight = _param(rng, (config.num_classes, head_in))
        self.head_b = _zeros((config.num_classes,))
        reg.register("head", weight=self.head_weight, bias=self.head_b)

        self._params = reg.params
        self._layout = layout

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

    def neck_forward(self, x: T.Tensor) -> T.Tensor:
        """Dense conv (h, w) dilated by the tile size, then norm and GELU."""
        h, w = self.config.grid
        if x.shape[2] % h or x.shape[3] % w:
            raise ShapeError(f"neck input {x.shape[2:]} not divisible by grid {self.config.grid}")
        ht, wt = x.shape[2] // h, x.shape[3] // w
        spec = T.ConvSpec(kernel=(h, w), dilation=(ht, wt))
        y = T.conv2d(x, self.neck_weight, self.neck_b, spec)
        return T.gelu(self.neck_norm(y))

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
        want = capture if capture is not None else {}

        x = self.stem_norm(self.stem_conv(clip))
        collaged = False
        for s in range(1, 5):
            if s > 1:
                dn, dc = self.downsamples[s - 1]
                x = dc(dn(x))
            for block in self.stages[s - 1]:
                x = block(x, collaged, training, rng)
            if cfg.stacking_stage == s:
                x = collage(x, self._layout)
                collaged = True
            if capture is not None and f"stage{s}" in capture:
                want[f"stage{s}"] = x

        if cfg.use_neck:
            if not collaged:
                x = collage(x, self._layout)
                collaged = True
            x = self.neck_forward(x)
            pooled = T.global_avg_pool(x)
        else:
            pooled = T.global_avg_pool(x)
            if not collaged:
                pooled = frame_mean(pooled, cfg.frames)
            pooled = self.final_norm.vec(pooled)
        pooled = dropout(pooled, cfg.head_dropout, rng, training)
        if capture is not None and "pooled" in capture:
            want["pooled"] = pooled
        return T.linear(pooled, self.head_weight, self.head_b)

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(self, path, meta=None, extra=None):
        arrays = {name: p.data for name, p in self._params.items()}
        if extra:
            arrays.update(extra)
        save_arrays(path, arrays, meta=dict(meta or {}, config=config_to_dict(self.config)))

    def load_checkpoint(self, path):
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
        extra = {k: v for k, v in arrays.items() if k not in self._params}
        return meta, extra


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
    """Write ``<path>.bin`` and ``<path>.json``; a failed save leaves the old pair."""
    entries = []
    offset = 0
    blob = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": offset, "length": int(a.size)})
        blob.append(a.tobytes())
        offset += a.size
    manifest = {"format": _CHECKPOINT_FORMAT, "entries": entries, "meta": meta or {}}
    text = json.dumps(manifest, indent=1).encode("utf-8")  # raises before any write
    os.makedirs(os.path.dirname(os.path.abspath(str(path))), exist_ok=True)
    _replace_with(f"{path}.bin", b"".join(blob))
    _replace_with(f"{path}.json", text)


def load_arrays(path):
    """Read a ``save_arrays`` pair; a foreign manifest or a blob of the wrong size raises."""
    with open(f"{path}.json", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"{path}.json is not a checkpoint manifest: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != _CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}.json has format {fmt!r}, expected {_CHECKPOINT_FORMAT!r}")
    expect = 4 * sum(e["length"] for e in manifest["entries"])
    got = os.path.getsize(f"{path}.bin")
    if got != expect:
        raise ConfigError(f"checkpoint blob {path}.bin holds {got} bytes, manifest expects {expect}")
    raw = np.fromfile(f"{path}.bin", dtype="<f4")
    arrays = {}
    for e in manifest["entries"]:
        chunk = raw[e["offset"]: e["offset"] + e["length"]]
        if chunk.size != e["length"]:
            raise ConfigError(f"checkpoint blob truncated at entry {e['name']}")
        arrays[e["name"]] = chunk.reshape(e["shape"]).copy()
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
