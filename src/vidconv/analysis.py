"""Model accountants and experiment harnesses: parameter/FLOP counters,
frame-shuffle evaluation, gradient-weighted class activation maps, and the
ablation runners.

FLOP convention: one multiply-accumulate = one FLOP, counted for convolution
and linear layers only. Normalization/activation/pooling work is tallied per
output element into a separate bucket that is excluded from the headline.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .model import Extent, ModelConfig, _uncollage_arr, build_model, layer_graph
from .training import evaluate_multiview, train

FLOP_CONVENTION = "1 MAC = 1 FLOP; conv/linear only; norm/act/pool in elementwise bucket"


@dataclass
class CostReport:
    params: int
    flops_per_view: int
    elt_flops: int
    breakdown: list
    geometry: dict
    convention: str = FLOP_CONVENTION


def plan_layers(config: ModelConfig, frames=None, input_size=None) -> list:
    """Cost rows of one view (one clip of ``config.frames`` frames), walked
    over the same layer list the model runs; no weights are drawn."""
    if frames is not None and frames != config.frames:
        raise ConfigError(f"the model runs {config.frames}-frame clips, not {frames}")
    ext = Extent(config.frames, tuple(input_size if input_size is not None else config.input_size))
    rows = []
    for layer in layer_graph(config):
        layer_rows, ext = layer.plan(ext)
        rows += layer_rows
    return rows


def count_flops(config: ModelConfig, frames=None, input_size=None) -> CostReport:
    """Exact parameter count and per-view MAC count for the given clip
    geometry, drawn from the layer plan without instantiating the model."""
    layers = plan_layers(config, frames=frames, input_size=input_size)
    H, W = input_size if input_size is not None else config.input_size
    return CostReport(params=sum(l.params for l in layers),
                      flops_per_view=sum(l.macs for l in layers),
                      elt_flops=sum(l.elt_flops for l in layers),
                      breakdown=layers,
                      geometry={"frames": config.frames, "input_size": [H, W]})


# ---------------------------------------------------------------------------
# frame-order shuffling


@dataclass
class ShuffleReport:
    task: str
    seed: int
    accuracies: dict = field(default_factory=dict)  # order -> {"top1":, "top5":}


def order_permutation(order, n_frames, rng=None):
    """normal | reverse | random | explicit index array."""
    if isinstance(order, str):
        if order == "normal":
            return np.arange(n_frames)
        if order == "reverse":
            return np.arange(n_frames)[::-1]
        if order == "random":
            if rng is None:
                raise ConfigError("random frame order needs an rng")
            return rng.permutation(n_frames)
        raise ConfigError(f"unknown frame order {order!r}")
    perm = np.asarray(order)
    if sorted(perm.tolist()) != list(range(n_frames)):
        raise ConfigError(f"not a permutation of {n_frames} frames: {perm}")
    return perm


def shuffle_eval(model, dataset, orders=("normal", "reverse", "random"), seed=0,
                 num_clips=1) -> ShuffleReport:
    """Evaluate with permuted clip frames; 'random' draws one permutation per
    video, and an explicit order is reported as "explicit:<i>,<j>,..."."""
    if isinstance(orders, (str, np.ndarray)):
        orders = (orders,)
    L = model.config.frames
    report = ShuffleReport(task=getattr(dataset, "task", "?"), seed=seed)
    for order in orders:
        rng = np.random.default_rng(seed)

        def perm_fn(video_index, eval_rng, _order=order, _rng=rng):
            return order_permutation(_order, L, _rng)

        res = evaluate_multiview(model, dataset, num_clips=num_clips,
                                 rng=np.random.default_rng(seed + 1), frame_perm=perm_fn)
        key = order if isinstance(order, str) else "explicit:" + ",".join(map(str, np.ravel(order)))
        report.accuracies[key] = {"top1": res["top1"], "top5": res["top5"]}
    return report


# ---------------------------------------------------------------------------
# class activation maps


def cam_from_capture(acts: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient-weighted map: relu(sum_c mean(grad_c) * act_c), per item."""
    if acts.shape != grads.shape or acts.ndim != 4:
        raise ShapeError(f"acts/grads must be matching 4D maps, got {acts.shape}/{grads.shape}")
    weights = grads.mean(axis=(2, 3), keepdims=True)
    cam = np.maximum((weights * acts).sum(axis=1), 0.0)
    return cam


def _normalize_cam(cam: np.ndarray) -> np.ndarray:
    lo, hi = cam.min(), cam.max()
    if hi <= lo:
        return np.zeros_like(cam)
    return (cam - lo) / (hi - lo)


def compute_cam(model, clip, class_index: int) -> np.ndarray:
    """Per-frame heatmaps (L, Ht, Wt) in [0, 1] for one clip (L, 3, H, W).

    Uses the gradient-weighted activation map at the stage-4 output (collage
    when stacking is on), split back into frame tiles and min-max normalized
    over the whole clip.
    """
    cfg = model.config
    if not 0 <= class_index < cfg.num_classes:
        raise ValueError(f"class index {class_index} outside [0, {cfg.num_classes})")
    clip = np.asarray(clip, dtype=np.float32)
    if clip.ndim != 4 or clip.shape[0] != cfg.frames:
        raise ShapeError(f"expected one clip of {cfg.frames} frames, got {clip.shape}")
    caps = {"stage4": None}
    logits = model.forward(T.Tensor(clip), training=False, capture=caps)
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[0, class_index] = 1.0
    T.backward(T.sum_all(T.mul_const(logits, onehot)))
    stage4 = caps["stage4"]
    acts, grads = stage4.data, stage4.grad
    model.zero_grad()
    cam = cam_from_capture(acts, grads)  # (1, hHt, wWt) or (L, Ht, Wt)
    if cam.shape[0] == 1 and cfg.frames > 1:
        gh, gw = cfg.grid
        cam = _uncollage_arr(cam[:, None], gh, gw)[:, 0]
    return _normalize_cam(cam)


def write_pgm(path, image: np.ndarray):
    """8-bit binary portable greymap from a [0, 1] float image."""
    img = np.clip(np.asarray(image), 0.0, 1.0)
    data = (img * 255.0 + 0.5).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# ablation suites


ABLATION_SUITES = ("temporal_branch", "grid_resolution", "stacking_stage")


def ablation_rows(suite: str, base_config: ModelConfig) -> list:
    """Row variants (label, config, eval clips) for each study."""
    if suite == "temporal_branch":
        return [
            ("branch=none stack=none", replace(base_config, use_temporal_branch=False,
                                               stacking_stage=None), 1),
            ("branch=none stack=3x3", replace(base_config, use_temporal_branch=False), 1),
            ("branch=yes stack=none", replace(base_config, stacking_stage=None), 1),
            ("branch=yes stack=3x3", base_config, 1),
        ]
    if suite == "grid_resolution":
        return [
            ("stack=none frames=9", replace(base_config, stacking_stage=None), 1),
            ("stack=2x2 frames=4 clips=2", replace(base_config, grid=(2, 2)), 2),
            ("stack=3x3 frames=9", replace(base_config, grid=(3, 3)), 1),
            ("stack=4x4 frames=16", replace(base_config, grid=(4, 4)), 1),
        ]
    if suite == "stacking_stage":
        return [(f"stack-stage={s}", replace(base_config, stacking_stage=s), 1)
                for s in (1, 2, 3, 4)]
    raise ConfigError(f"unknown ablation suite {suite!r}; options: {ABLATION_SUITES}")


def run_ablation(suite: str, base_config: ModelConfig, train_ds, val_ds, train_cfg,
                 seed=0, log=None) -> list:
    """Train every row variant at desk scale and tabulate top-1/top-5/cost.

    Every row's clip length is checked against both datasets before any row
    trains."""
    variants = ablation_rows(suite, base_config)
    for label, cfg, _ in variants:
        if cfg.frames > min(train_ds.num_frames, val_ds.num_frames):
            raise ConfigError(f"[{suite}] {label} needs {cfg.frames}-frame videos; the datasets "
                              f"have {train_ds.num_frames} and {val_ds.num_frames}")
    rows = []
    for label, cfg, eval_clips in variants:
        model = build_model(cfg, seed)
        row_cfg = replace(train_cfg, eval_clips=eval_clips)
        state = train(model, train_ds, val_ds, row_cfg, root_seed=seed, log=log)
        final = state.history[-1]
        cost = count_flops(cfg)
        rows.append({"variant": label, "top1": final["top1"], "top5": final["top5"],
                     "params": cost.params, "flops": cost.flops_per_view})
        if log:
            log(f"[{suite}] {label}: top1={final['top1']:.3f}")
    return rows

