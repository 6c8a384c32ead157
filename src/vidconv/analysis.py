"""Model accountants and experiment harnesses: parameter/FLOP counters,
frame-shuffle evaluation, gradient-weighted class activation maps, a latency
benchmark, and the ablation runners.

FLOP convention: one multiply-accumulate = one FLOP, counted for convolution
and linear layers only. Normalization/activation/pooling work is tallied per
output element into a separate bucket that is excluded from the headline.
"""
from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .model import Extent, ModelConfig, _uncollage_arr, build_model, layer_graph
from .training import evaluate_multiview

FLOP_CONVENTION = "1 MAC = 1 FLOP; conv/linear only; norm/act/pool in elementwise bucket"


@dataclass
class CostReport:
    params: int
    flops_per_view: int
    elt_flops: int
    breakdown: list
    geometry: dict
    convention: str = FLOP_CONVENTION

    def check_totals(self):
        assert self.params == sum(l.params for l in self.breakdown)
        assert self.flops_per_view == sum(l.macs for l in self.breakdown)
        assert self.elt_flops == sum(l.elt_flops for l in self.breakdown)
        return self

    def to_jsonl(self):
        lines = [json.dumps({"layer": l.name, "kind": l.kind, "params": l.params,
                             "macs": l.macs, "elt_flops": l.elt_flops})
                 for l in self.breakdown]
        lines.append(json.dumps({"layer": "TOTAL", "params": self.params,
                                 "macs": self.flops_per_view, "elt_flops": self.elt_flops,
                                 "convention": self.convention}))
        return "\n".join(lines)

    def to_table(self):
        rows = [(l.name, l.kind, f"{l.params:,}", f"{l.macs:,}") for l in self.breakdown]
        rows.append(("TOTAL", "", f"{self.params:,}", f"{self.flops_per_view:,}"))
        widths = [max(len(r[i]) for r in rows + [("layer", "kind", "params", "macs")])
                  for i in range(4)]
        header = "  ".join(h.ljust(w) for h, w in zip(("layer", "kind", "params", "macs"), widths))
        out = [f"# {self.convention}", header, "-" * len(header)]
        out += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
        return "\n".join(out)


def plan_layers(config: ModelConfig, frames=None, input_size=None) -> list:
    """Cost rows of one view (one clip of ``config.frames`` frames), walked
    over the same layer list the model runs; no weights are drawn."""
    config.validate()
    if frames is not None and frames != config.frames:
        raise ConfigError(f"the model runs {config.frames}-frame clips, not {frames}")
    ext = Extent(config.frames, tuple(input_size if input_size is not None else config.input_size))
    rows = []
    for layer in layer_graph(config):
        layer_rows, ext = layer.plan(ext)
        rows += layer_rows
    return rows


def count_params(config: ModelConfig) -> CostReport:
    """Exact symbolic parameter count; no model instantiation."""
    return count_flops(config)


def count_flops(config: ModelConfig, frames=None, input_size=None) -> CostReport:
    """Per-view MAC count for the given clip geometry."""
    layers = plan_layers(config, frames=frames, input_size=input_size)
    H, W = input_size if input_size is not None else config.input_size
    return CostReport(params=sum(l.params for l in layers),
                      flops_per_view=sum(l.macs for l in layers),
                      elt_flops=sum(l.elt_flops for l in layers),
                      breakdown=layers,
                      geometry={"frames": config.frames, "input_size": [H, W]}).check_totals()


# ---------------------------------------------------------------------------
# frame-order shuffling


@dataclass
class ShuffleReport:
    task: str
    seed: int
    accuracies: dict = field(default_factory=dict)  # order -> {"top1":, "top5":}

    def to_jsonl(self):
        return "\n".join(json.dumps({"order": k, **v}) for k, v in self.accuracies.items())

    def to_table(self):
        lines = [f"{'order':<10}{'top1':>8}{'top5':>8}"]
        for k, v in self.accuracies.items():
            lines.append(f"{k:<10}{v['top1']:>8.3f}{v['top5']:>8.3f}")
        return "\n".join(lines)


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
                 num_clips=1, num_crops=1) -> ShuffleReport:
    """Evaluate with permuted clip frames; 'random' draws one permutation per video."""
    if isinstance(orders, (str, np.ndarray)):
        orders = (orders,)
    L = model.config.frames
    report = ShuffleReport(task=getattr(dataset, "task", "?"), seed=seed)
    for order in orders:
        rng = np.random.default_rng(seed)

        def perm_fn(video_index, eval_rng, _order=order, _rng=rng):
            return order_permutation(_order, L, _rng)

        res = evaluate_multiview(model, dataset, num_clips=num_clips, num_crops=num_crops,
                                 rng=np.random.default_rng(seed + 1), frame_perm=perm_fn)
        key = order if isinstance(order, str) else "explicit"
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
# latency


def benchmark_latency(config: ModelConfig, views=1, warmup_runs=1, timed_runs=5,
                      seed=0) -> dict:
    """Wall clock of eval-mode forward passes; informational only."""
    if timed_runs < 3:
        raise ConfigError("need at least 3 timed runs")
    model = build_model(config, seed)
    rng = np.random.default_rng(seed)
    L = config.frames
    H, W = config.input_size
    clips = [rng.random((L, 3, H, W), dtype=np.float32) for _ in range(views)]
    for _ in range(warmup_runs):
        for clip in clips:
            model.forward(clip, training=False)
    times = []
    for _ in range(timed_runs):
        t0 = time.perf_counter()
        for clip in clips:
            model.forward(clip, training=False)
        times.append(time.perf_counter() - t0)
    arr = np.asarray(times)
    return {
        "views": views,
        "mean_ms_per_view": float(arr.mean() * 1e3 / views),
        "median_ms_per_view": float(np.median(arr) * 1e3 / views),
        "mean_ms_total": float(arr.mean() * 1e3),
        "timed_runs": timed_runs,
        "hardware": f"{platform.machine()} / {platform.processor() or 'unknown cpu'}",
    }


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
            ("stack=2x2 frames=4 clips=2", replace(base_config, grid=(2, 2), frames=4), 2),
            ("stack=3x3 frames=9", replace(base_config, grid=(3, 3), frames=9), 1),
            ("stack=4x4 frames=16", replace(base_config, grid=(4, 4), frames=16), 1),
        ]
    if suite == "stacking_stage":
        return [(f"stack-stage={s}", replace(base_config, stacking_stage=s), 1)
                for s in (1, 2, 3, 4)]
    raise ConfigError(f"unknown ablation suite {suite!r}; options: {ABLATION_SUITES}")


def run_ablation(suite: str, base_config: ModelConfig, train_ds, val_ds, train_cfg,
                 seed=0, log=None) -> list:
    """Train every row variant at desk scale and tabulate top-1/top-5/cost."""
    from .training import train

    rows = []
    for label, cfg, eval_clips in ablation_rows(suite, base_config):
        cfg.validate()
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


def ablation_table(rows: list) -> str:
    header = f"{'variant':<30}{'top1':>8}{'top5':>8}{'params':>14}{'flops':>16}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['variant']:<30}{r['top1']:>8.3f}{r['top5']:>8.3f}"
                     f"{r['params']:>14,}{r['flops']:>16,}")
    return "\n".join(lines)
