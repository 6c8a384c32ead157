"""Optimizer, schedule, and the train/eval loops."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import data
from . import tensor as T
from .errors import ConfigError, DivergenceError, NumericsError, ShapeError

# Fixed subsystem order so one root seed reproducibly fans out.
STREAM_NAMES = ("data", "init", "batch", "droppath", "augment", "eval")


def seed_streams(root_seed: int) -> dict:
    """Split one root seed into independent per-subsystem generators."""
    children = np.random.SeedSequence(root_seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(seq) for name, seq in zip(STREAM_NAMES, children)}


# ---------------------------------------------------------------------------
# AdamW

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Per-parameter AdamW moments plus the shared hyperparameters."""

    base_lr: float
    weight_decay: float = 0.05
    lr_multipliers: dict = field(default_factory=dict)  # group name -> factor
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def multiplier_for(self, group: str) -> float:
        return float(self.lr_multipliers.get(group, 1.0))


def adamw_step(params: dict, state: OptimState, lr_now: float, group_of=None):
    """One decoupled-weight-decay Adam update over a named parameter dict.

    ``group_of`` maps a parameter name to its lr-multiplier group; parameters
    without a group use multiplier 1. Gradients must already be populated.
    """
    state.step += 1
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient/parameter shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mult = state.multiplier_for(group_of(name)) if group_of else 1.0
        lr_eff = lr_now * mult
        if lr_eff == 0.0:
            continue
        mhat = m / c1
        vhat = v / c2
        p.data -= (lr_eff * state.weight_decay) * p.data
        p.data -= lr_eff * (mhat / (np.sqrt(vhat) + ADAM_EPS))


def clip_grad_norm(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# learning-rate schedule


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to ``lr_init`` then cosine decay to ``lr_min``."""

    warmup_iters: int
    total_iters: int
    lr_init: float = 1e-3
    lr_min: float = 5e-6

    def __post_init__(self):
        if self.total_iters < 1 or not 0 <= self.warmup_iters <= self.total_iters:
            raise ConfigError(f"bad schedule: warmup={self.warmup_iters}, total={self.total_iters}")


def lr_at(schedule: Schedule, it: int) -> float:
    if not 0 <= it <= schedule.total_iters:
        raise ValueError(f"iteration {it} outside [0, {schedule.total_iters}]")
    if it < schedule.warmup_iters:
        return schedule.lr_init * it / schedule.warmup_iters
    span = schedule.total_iters - schedule.warmup_iters
    if span == 0:
        return schedule.lr_init
    progress = (it - schedule.warmup_iters) / span
    return schedule.lr_min + 0.5 * (schedule.lr_init - schedule.lr_min) * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# metrics


def topk_correct(probs: np.ndarray, labels: np.ndarray, k: int) -> int:
    k = min(k, probs.shape[1])
    topk = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return int((topk == labels[:, None]).any(axis=1).sum())


@dataclass
class TrainState:
    """Optimizer moments, schedule position, RNG streams, and metric history."""

    optim: OptimState
    epoch: int = 0
    iteration: int = 0
    streams: dict = field(default_factory=dict)
    history: list = field(default_factory=list)
    best_top1: float = -1.0


@dataclass(frozen=True)
class TrainConfig:
    """One training run.

    ``epochs`` passes over the data in batches of ``batch_size`` clips; the
    lr warms up linearly over ``warmup_epochs`` to ``lr``, then decays by
    cosine to ``lr_min``. AdamW decays weights by ``weight_decay`` and scales
    the backbone's lr by ``lb``; the global gradient norm is clipped at
    ``clip_norm`` (0 turns clipping off). Training clips are cropped at one
    of ``crop_scales`` and, with ``flip``, mirrored left-right half the time.
    Validation averages ``eval_clips`` clips per video. ``ckpt_dir`` receives
    the weights as ``epochNNN.npz`` every ``ckpt_every`` epochs (0: never) and
    as ``best.npz`` at the best top-1, and ``metrics_path`` one JSON line per
    epoch; empty strings turn them off.
    """

    epochs: int = 20
    batch_size: int = 16
    lr: float = 1e-3
    lr_min: float = 5e-6
    weight_decay: float = 0.05
    lb: float = 1.0           # backbone lr multiplier
    warmup_epochs: int = 1
    clip_norm: float = 5.0
    flip: bool = True
    crop_scales: tuple = (1.0,)
    eval_clips: int = 1
    ckpt_dir: str = ""
    ckpt_every: int = 0
    metrics_path: str = ""

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.eval_clips < 1:
            raise ConfigError("epochs, batch_size and eval_clips must be positive")
        if self.lr <= 0 or self.lr_min < 0 or self.lr_min > self.lr:
            raise ConfigError("need 0 <= lr_min <= lr and lr > 0")
        if not all(v >= 0 for v in (self.lb, self.weight_decay, self.warmup_epochs,
                                    self.clip_norm, self.ckpt_every)):
            raise ConfigError("lb, weight_decay, warmup_epochs, clip_norm and ckpt_every "
                              "must be non-negative")


def _emit_metric(path, record):
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


def _batch_clips(dataset, indices, frames, aug_rng, flip, crop_scales):
    clips, labels = [], []
    for i in indices:
        video = dataset.video(int(i))
        clip = data.sample_clip(video, frames)
        clip, _ = data.augment_clip(clip, aug_rng, enable_flip=flip, crop_scales=crop_scales)
        clips.append(clip)
        labels.append(video.label)
    batch = np.concatenate(clips, axis=0)  # (B*L, 3, H, W), clip-major
    return batch, np.asarray(labels)


def _dump_divergence(state, extra):
    dump = {"epoch": state.epoch, "iteration": state.iteration, **extra}
    return json.dumps(dump, default=float)


def train(model, train_ds, val_ds, cfg: TrainConfig, root_seed: int = 0,
          state: TrainState = None, log=None) -> TrainState:
    """Run the full training loop; deterministic for a fixed root seed.

    Metrics are appended per epoch as JSON lines when ``cfg.metrics_path`` is
    set; checkpoints (weights and meta) go to ``<cfg.ckpt_dir>/epochNNN.npz``
    every ``ckpt_every`` epochs and to ``<cfg.ckpt_dir>/best.npz`` at the best
    validation top-1.
    """
    n = len(train_ds)
    if n == 0:
        raise ConfigError("training dataset is empty")
    iters_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    schedule = Schedule(warmup_iters=cfg.warmup_epochs * iters_per_epoch,
                        total_iters=cfg.epochs * iters_per_epoch,
                        lr_init=cfg.lr, lr_min=cfg.lr_min)
    if state is None:
        streams = seed_streams(root_seed)
        optim = OptimState(base_lr=cfg.lr, weight_decay=cfg.weight_decay,
                           lr_multipliers={"backbone": cfg.lb, "head": 1.0})
        state = TrainState(optim=optim, streams=streams)

    params = model.parameters()
    start_epoch = state.epoch

    for epoch in range(start_epoch, cfg.epochs):
        state.epoch = epoch
        order = state.streams["batch"].permutation(n)
        losses = []
        for bstart in range(0, n, cfg.batch_size):
            idx = order[bstart:bstart + cfg.batch_size]
            batch, labels = _batch_clips(train_ds, idx, model.config.frames,
                                         state.streams["augment"], cfg.flip, cfg.crop_scales)
            lr_now = lr_at(schedule, state.iteration)
            try:
                logits = model.forward(T.Tensor(batch), training=True,
                                       rng=state.streams["droppath"])
                loss, _ = T.softmax_cross_entropy(logits, labels)
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    raise NumericsError("training loss is not finite")
                T.backward(loss)
            except NumericsError as exc:
                raise DivergenceError(
                    f"{exc}; state: " + _dump_divergence(state, {"lr": lr_now})) from exc
            clip_grad_norm(params, cfg.clip_norm)
            adamw_step(params, state.optim, lr_now, group_of=model.param_group)
            model.zero_grad()
            losses.append(loss_val)
            state.iteration += 1

        train_loss = float(np.mean(losses))
        val = evaluate_multiview(model, val_ds, num_clips=cfg.eval_clips,
                                 rng=state.streams["eval"], batch_size=cfg.batch_size)
        lr_now = lr_at(schedule, min(state.iteration, schedule.total_iters))
        record = {"epoch": epoch, "split": "val", "loss": train_loss,
                  "top1": val["top1"], "top5": val["top5"], "lr": lr_now}
        _emit_metric(cfg.metrics_path, record)
        state.history.append(dict(record, step_losses=losses))
        if log:
            log(f"epoch {epoch:3d}  loss {train_loss:.4f}  "
                f"val top1 {val['top1']:.3f}  top5 {val['top5']:.3f}  lr {lr_now:.2e}")
        if cfg.ckpt_dir:
            meta = {"epoch": epoch + 1, "iteration": state.iteration,
                    "best_top1": max(state.best_top1, val["top1"])}
            if cfg.ckpt_every and (epoch + 1) % cfg.ckpt_every == 0:
                model.save_checkpoint(f"{cfg.ckpt_dir}/epoch{epoch + 1:03d}", meta=meta)
            if val["top1"] > state.best_top1:
                model.save_checkpoint(f"{cfg.ckpt_dir}/best", meta=meta)
        state.best_top1 = max(state.best_top1, val["top1"])
        state.epoch = epoch + 1
    return state


# ---------------------------------------------------------------------------
# evaluation


def evaluate_multiview(model, dataset, num_clips=1, rng=None, batch_size=32,
                       frame_perm=None) -> dict:
    """Average softmax scores over ``num_clips`` views per video, then score
    top-1/top-5. A view is a clip's centre ``min(h, w)`` square.

    With ``rng``, a video longer than the clip length gets a random start per
    clip. ``frame_perm`` optionally maps (video_index, rng) -> a permutation
    applied to each sampled clip's frames before the forward pass.
    """
    if num_clips < 1:
        raise ConfigError("need at least one clip")
    L = model.config.frames
    n = len(dataset)
    k = model.config.num_classes
    probs_sum = np.zeros((n, k), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)

    pending, pending_meta = [], []

    def flush():
        if not pending:
            return
        batch = np.concatenate(pending, axis=0)
        logits = model.forward(T.Tensor(batch), training=False)
        p = T.softmax(logits.data)
        for row, vid in enumerate(pending_meta):
            probs_sum[vid] += p[row]
        pending.clear()
        pending_meta.clear()

    for vi in range(n):
        video = dataset.video(vi)
        labels[vi] = video.label
        perm = frame_perm(vi, rng) if frame_perm is not None else None
        for _ in range(num_clips):
            clip = data.sample_clip(video, L, rng)
            if perm is not None:
                clip = clip[perm]
            h, w = clip.shape[2], clip.shape[3]
            size = min(h, w)
            top, left = (h - size) // 2, (w - size) // 2
            pending.append(clip[:, :, top:top + size, left:left + size])
            pending_meta.append(vi)
            if len(pending) >= batch_size:
                flush()
    flush()

    probs = probs_sum / num_clips
    top1 = topk_correct(probs, labels, 1) / n
    top5 = topk_correct(probs, labels, 5) / n
    return {"top1": top1, "top5": top5, "views_per_video": num_clips,
            "probs": probs, "labels": labels}
