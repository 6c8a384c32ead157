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


def _flat_view(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` as 1-D, sharing its memory, so that writes to it land in ``a``."""
    if a.dtype != np.float32 or not a.flags.c_contiguous:
        raise ShapeError(f"{what} must be a C-contiguous float32 array to be updated in place, "
                         f"got {a.dtype} with strides {a.strides}")
    return a.reshape(-1)


def adamw_step(params: dict, state: OptimState, lr_now: float, group_of=None):
    """One decoupled-weight-decay Adam update over a named parameter dict.

    ``group_of`` maps a parameter name to its lr-multiplier group; parameters
    without a group use multiplier 1. Gradients must already be populated.

    Each parameter, its moments and its gradient are walked together in
    blocks of ``tensor._BLOCK`` floats, writing into two block-sized scratch
    arrays, so the update's temporaries stay in cache. Every element sees
    the same float32 ops in the same order as the whole-array update. A
    large parameter's blocks are split over tensor's thread parts, each with
    its own scratch. Parameters and moments are updated in place and must
    be C-contiguous float32; a gradient may have any layout, and one that is
    not C-contiguous is read through a contiguous copy.
    """
    state.step += 1
    c1 = 1.0 - ADAM_BETAS[0] ** state.step
    c2 = 1.0 - ADAM_BETAS[1] ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient/parameter shape mismatch for {name}")
        if not T.all_finite(g):
            raise DivergenceError(f"non-finite gradient in parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        mult = state.multiplier_for(group_of(name)) if group_of else 1.0
        lr_eff = lr_now * mult
        flats = (_flat_view(p.data, f"parameter {name}"),
                 _flat_view(state.m[name], f"Adam m of {name}"),
                 _flat_view(state.v[name], f"Adam v of {name}"),
                 g.reshape(-1))
        blocks = range(0, p.data.size, T._BLOCK)
        # about 5 ns a float on one thread: 24 float passes
        T._parallel(lambda part: _adamw_blocks(*flats, blocks[part], c1, c2, lr_eff,
                                               lr_eff * state.weight_decay),
                    T._cut(len(blocks), 24 * T._BLOCK, T._PART_LOOP))


def _adamw_blocks(pf, mf, vf, gf, starts, c1, c2, lr_eff, decay):
    """``adamw_step`` on the blocks of one parameter's flat views that begin
    at ``starts``, with block-sized scratch of its own."""
    b1, b2 = ADAM_BETAS
    scratch_a = np.empty(min(pf.size, T._BLOCK), dtype=np.float32)  # with a block of p, m, v, g:
    scratch_b = np.empty_like(scratch_a)                             # 1.5 MB, in L2
    for start in starts:
        stop = min(start + T._BLOCK, pf.size)
        pb, mb, vb, gb = pf[start:stop], mf[start:stop], vf[start:stop], gf[start:stop]
        a, b = scratch_a[: stop - start], scratch_b[: stop - start]
        mb *= b1
        np.multiply(1.0 - b1, gb, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, gb, out=a)
        a *= 1.0 - b2
        vb += a
        if lr_eff == 0.0:
            continue
        np.divide(vb, c2, out=a)        # vhat
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(mb, c1, out=b)        # mhat
        np.divide(b, a, out=a)
        a *= lr_eff
        np.multiply(pb, decay, out=b)
        pb -= b
        pb -= a


def clip_grad_norm(params: dict, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping. Each gradient is read in blocks of
    ``tensor._BLOCK`` floats, each converted into a reused float64 block and
    dotted with itself, so the squares are summed in float64 without a
    gradient-sized temporary. The blocks run in order on the calling thread
    (the ``tensor`` docstring says why they are not split).

    Each distinct gradient array is then multiplied by the scale once, in
    place: ``np.multiply(g, scale, out=g)`` is the same float32 product as
    ``g * scale``, with no copy. An array that two parameters share (``add``
    hands one to both parents) is scaled once, and any tensor that holds it
    sees the scaled values. A gradient that is read-only, or that overlaps
    another parameter's gradient without being the same array, is rebound to
    a scaled copy instead.
    """
    total = 0.0
    for p in params.values():
        if p.grad is None:
            continue
        gf = p.grad.reshape(-1)
        scratch = np.empty(min(gf.size, T._BLOCK), dtype=np.float64)
        for start in range(0, gf.size, T._BLOCK):
            b = scratch[: min(T._BLOCK, gf.size - start)]
            b[...] = gf[start: start + T._BLOCK]
            total += float(np.dot(b, b))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        grads = {id(p.grad): p.grad for p in params.values() if p.grad is not None}
        in_place = _scalable_in_place(grads.values())
        for p in params.values():
            if p.grad is not None and id(p.grad) not in in_place:
                p.grad = p.grad * scale
        for g in grads.values():
            if id(g) in in_place:
                np.multiply(g, scale, out=g)
    return norm


# The first byte an array can reach, and one past its last (numpy 2 moved it).
_byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds


def _scalable_in_place(grads):
    """The ids of the distinct arrays among ``grads`` that are writeable and
    whose bytes overlap no other's."""
    spans = sorted((*_byte_bounds(g), id(g), g.flags.writeable) for g in grads)
    ok, reach = set(), 0  # reach: the byte the spans so far extend to
    for i, (lo, hi, key, writeable) in enumerate(spans):
        clear_after = i + 1 == len(spans) or spans[i + 1][0] >= hi
        if writeable and lo >= reach and clear_after:
            ok.add(key)
        reach = max(reach, hi)
    return ok


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
    the weights as ``best.npz`` at the best top-1, and ``metrics_path`` one
    JSON line per epoch; empty strings turn them off.
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
    metrics_path: str = ""

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.eval_clips < 1:
            raise ConfigError("epochs, batch_size and eval_clips must be positive")
        if self.lr <= 0 or self.lr_min < 0 or self.lr_min > self.lr:
            raise ConfigError("need 0 <= lr_min <= lr and lr > 0")
        if not all(v >= 0 for v in (self.lb, self.weight_decay, self.warmup_epochs,
                                    self.clip_norm)):
            raise ConfigError("lb, weight_decay, warmup_epochs and clip_norm must be non-negative")
        if not self.crop_scales or any(not 0 < s <= 1 for s in self.crop_scales):
            raise ConfigError(f"crop_scales must hold one or more scales in (0, 1], "
                              f"got {self.crop_scales}")


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
    set. With ``cfg.ckpt_dir``, the weights and a meta of epoch, iteration and
    best top-1 go to ``<cfg.ckpt_dir>/best.npz`` whenever validation top-1
    improves.
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
                T.backward(loss)
            except NumericsError as exc:
                raise DivergenceError(
                    f"{exc}; state: " + _dump_divergence(state, {"lr": lr_now})) from exc
            grad_norm = clip_grad_norm(params, cfg.clip_norm)
            if not math.isfinite(grad_norm):
                raise DivergenceError("non-finite gradient norm; state: " + _dump_divergence(
                    state, {"lr": lr_now, "grad_norm": grad_norm}))
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
        if cfg.ckpt_dir and val["top1"] > state.best_top1:
            meta = {"epoch": epoch + 1, "iteration": state.iteration, "best_top1": val["top1"]}
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
    clip. ``frame_perm``, if given, is called once per video, in order, and
    returns a permutation applied to each of its clips' frames before the
    forward pass.
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
        perm = frame_perm() if frame_perm is not None else None
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
