"""Procedural video generator for desk-scale recognition tasks.

Three tasks separate appearance-driven from temporally-dependent recognition:

* ``appearance-only``   - label fixed by shape/color, any frame order works
* ``motion-direction``  - label is the compass direction of a moving disc;
  reversing time maps direction d to (d+4) mod 8
* ``temporal-order``    - label is which of two colored flashes comes first;
  reversing time flips the label

Rendering is anti-aliased discs/squares over per-video grayscale noise, so a
pixel-level oracle can recover the label of any (possibly permuted) frame
sequence and double as ground truth for the shuffle experiments.

A ``SyntheticDataset`` renders each video on demand and stores nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

TASKS = {
    "appearance-only": 8,
    "motion-direction": 8,
    "temporal-order": 2,
}

# saturated object palettes; backgrounds stay gray so saturation = foreground
APPEARANCE_COLORS = (
    ("red", (1.0, 0.10, 0.10)),
    ("green", (0.10, 1.0, 0.10)),
    ("blue", (0.10, 0.30, 1.0)),
    ("yellow", (1.0, 0.85, 0.10)),
)
EVENT_A_COLOR = (1.0, 0.12, 0.12)   # early/late flash pair for temporal-order
EVENT_B_COLOR = (0.12, 0.35, 1.0)
MOTION_COLOR = (1.0, 1.0, 1.0)

BG_RANGE = (0.20, 0.50)
# the moving disc's radius, its speed in px per frame, and its least distance to the border
MOTION_RADIUS_RANGE = (5.0, 8.0)
MOTION_SPEED_RANGE = (2.5, 4.0)
MOTION_MARGIN = 2.0


@dataclass
class SyntheticVideo:
    """A rendered clip and its class; ``label_oracle`` recovers the label
    from the pixels alone."""

    frames: np.ndarray          # (Nf, 3, H, W) float32 in [0, 1]
    label: int


def num_classes(task: str) -> int:
    if task not in TASKS:
        raise ConfigError(f"unsupported task {task!r}; options: {sorted(TASKS)}")
    return TASKS[task]


# ---------------------------------------------------------------------------
# rendering


def _grids(h, w):
    ys = np.arange(h, dtype=np.float32)[:, None]
    xs = np.arange(w, dtype=np.float32)[None, :]
    return ys, xs


def disc_coverage(h, w, cy, cx, radius):
    ys, xs = _grids(h, w)
    dist = np.sqrt((ys - cy) ** 2 + (xs - cx) ** 2)
    return np.clip(radius + 0.5 - dist, 0.0, 1.0)


def square_coverage(h, w, cy, cx, half):
    ys, xs = _grids(h, w)
    cov_y = np.clip(np.minimum(ys + 0.5, cy + half) - np.maximum(ys - 0.5, cy - half), 0.0, 1.0)
    cov_x = np.clip(np.minimum(xs + 0.5, cx + half) - np.maximum(xs - 0.5, cx - half), 0.0, 1.0)
    return cov_y * cov_x


def _paint(frame, coverage, color):
    for c in range(3):
        frame[c] = frame[c] * (1.0 - coverage) + color[c] * coverage


def _background(rng, h, w):
    lo, hi = BG_RANGE
    return rng.uniform(lo, hi, size=(h, w)).astype(np.float32)


# ---------------------------------------------------------------------------
# per-task generators


def _gen_appearance(rng, label, h, w, nf):
    shape = label // 4          # 0: disc, 1: square
    color = APPEARANCE_COLORS[label % 4][1]
    radius = rng.uniform(6.0, 10.0)
    cy = rng.uniform(radius + 2, h - radius - 2)
    cx = rng.uniform(radius + 2, w - radius - 2)
    cov = disc_coverage(h, w, cy, cx, radius) if shape == 0 else \
        square_coverage(h, w, cy, cx, radius)
    bg = _background(rng, h, w)
    frames = np.empty((nf, 3, h, w), dtype=np.float32)
    for t in range(nf):
        frame = np.repeat(bg[None], 3, axis=0)
        _paint(frame, cov, color)
        frames[t] = frame
    return frames


def _gen_motion(rng, label, h, w, nf):
    radius = rng.uniform(*MOTION_RADIUS_RANGE)
    speed = rng.uniform(*MOTION_SPEED_RANGE)
    angle = np.pi / 4.0 * label
    vx, vy = speed * np.cos(angle), -speed * np.sin(angle)   # image y grows down
    span_x, span_y = vx * (nf - 1), vy * (nf - 1)
    margin = radius + MOTION_MARGIN
    x_lo = margin + max(0.0, -span_x)
    x_hi = w - margin - max(0.0, span_x)
    y_lo = margin + max(0.0, -span_y)
    y_hi = h - margin - max(0.0, span_y)  # x_lo < x_hi and y_lo < y_hi: _check_frames saw to it
    cx0 = rng.uniform(x_lo, x_hi)
    cy0 = rng.uniform(y_lo, y_hi)
    bg = _background(rng, h, w)
    frames = np.empty((nf, 3, h, w), dtype=np.float32)
    for t in range(nf):
        cy, cx = cy0 + vy * t, cx0 + vx * t
        frame = np.repeat(bg[None], 3, axis=0)
        _paint(frame, disc_coverage(h, w, cy, cx, radius), MOTION_COLOR)
        frames[t] = frame
    return frames


def _gen_temporal_order(rng, label, h, w, nf):
    if nf < 2:
        raise ConfigError("temporal-order needs at least two frames")
    t1, t2 = sorted(rng.choice(nf, size=2, replace=False).tolist())
    # label 1: event A flashes first; label 0: event B flashes first
    t_a, t_b = (t1, t2) if label == 1 else (t2, t1)
    bg = _background(rng, h, w)
    frames = np.empty((nf, 3, h, w), dtype=np.float32)
    placements = {}
    for key, color in (("a", EVENT_A_COLOR), ("b", EVENT_B_COLOR)):
        radius = rng.uniform(5.0, 8.0)
        cy = rng.uniform(radius + 2, h - radius - 2)
        cx = rng.uniform(radius + 2, w - radius - 2)
        placements[key] = (cy, cx, radius, color)
    for t in range(nf):
        frame = np.repeat(bg[None], 3, axis=0)
        if t == t_a:
            cy, cx, radius, color = placements["a"]
            _paint(frame, disc_coverage(h, w, cy, cx, radius), color)
        if t == t_b:
            cy, cx, radius, color = placements["b"]
            _paint(frame, disc_coverage(h, w, cy, cx, radius), color)
        frames[t] = frame
    return frames


_GENERATORS = {
    "appearance-only": _gen_appearance,
    "motion-direction": _gen_motion,
    "temporal-order": _gen_temporal_order,
}


def _check_frames(task, size, num_frames):
    h, w = size
    if h < 32 or w < 32:
        raise ConfigError(f"frames must be at least 32x32, got {size}")
    if num_frames < 1:
        raise ConfigError("need at least one frame")
    if task == "motion-direction":
        # the largest disc at the top speed, so that every seed renders
        need = (2 * (MOTION_RADIUS_RANGE[1] + MOTION_MARGIN)
                + MOTION_SPEED_RANGE[1] * (num_frames - 1))
        if min(h, w) < need:
            raise ConfigError(f"{num_frames}-frame motion-direction clips need each side to be "
                              f"at least {need:g} px, got {size}")


def generate_video(task, class_label, size=(64, 64), num_frames=9, seed=0) -> SyntheticVideo:
    """Deterministic clip for (task, label, seed); bit-identical across calls."""
    k = num_classes(task)
    if not 0 <= class_label < k:
        raise ConfigError(f"label {class_label} outside [0, {k}) for {task}")
    _check_frames(task, size, num_frames)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frames = _GENERATORS[task](rng, class_label, *size, num_frames)
    return SyntheticVideo(frames=frames, label=int(class_label))


# ---------------------------------------------------------------------------
# pixel-level labeling oracles (pure; ground truth for shuffle experiments)


def _saturation_mask(frame, thresh=0.25):
    return frame.max(axis=0) - frame.min(axis=0) > thresh


def _oracle_appearance(frames):
    frame = frames[0]
    mask = _saturation_mask(frame)
    if not mask.any():
        raise ShapeError("appearance oracle found no colored object")
    mean_color = frame[:, mask].mean(axis=1)
    dists = [np.linalg.norm(mean_color - np.asarray(c)) for _, c in APPEARANCE_COLORS]
    color_idx = int(np.argmin(dists))
    ys, xs = np.nonzero(mask)
    bbox_area = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
    fill = mask.sum() / bbox_area
    shape_idx = 0 if fill < 0.9 else 1
    return shape_idx * 4 + color_idx


def _white_centroid(frame):
    mask = frame.min(axis=0) > 0.75
    if not mask.any():
        raise ShapeError("motion oracle found no bright object")
    ys, xs = np.nonzero(mask)
    return ys.mean(), xs.mean()


def _oracle_motion(frames):
    y0, x0 = _white_centroid(frames[0])
    y1, x1 = _white_centroid(frames[-1])
    dy, dx = y1 - y0, x1 - x0
    angle = np.arctan2(-dy, dx)  # compass angle with y down
    return int(np.round(angle / (np.pi / 4.0))) % 8


def _oracle_temporal_order(frames):
    red = frames[:, 0] - np.maximum(frames[:, 1], frames[:, 2])
    blue = frames[:, 2] - np.maximum(frames[:, 0], frames[:, 1])
    t_a = int(red.reshape(len(frames), -1).max(axis=1).argmax())
    t_b = int(blue.reshape(len(frames), -1).max(axis=1).argmax())
    return 1 if t_a < t_b else 0


_ORACLES = {
    "appearance-only": _oracle_appearance,
    "motion-direction": _oracle_motion,
    "temporal-order": _oracle_temporal_order,
}


def label_oracle(task, frames) -> int:
    """Recover the label from raw pixels of a (possibly permuted) sequence."""
    num_classes(task)
    return int(_ORACLES[task](np.asarray(frames)))


# ---------------------------------------------------------------------------
# clip sampling


def sample_clip(video: SyntheticVideo, frames: int, rng=None) -> np.ndarray:
    """``frames`` consecutive frames of ``video``: from the first frame, or,
    with ``rng`` and a longer video, from a uniformly drawn start."""
    n = video.frames.shape[0]
    if n < frames:
        raise ShapeError(f"video has {n} frames, clip needs {frames}")
    start = 0 if rng is None or n == frames else int(rng.integers(0, n - frames + 1))
    return video.frames[start:start + frames].copy()


# ---------------------------------------------------------------------------
# augmentation


def flip_lr(clip: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(clip[..., ::-1])


def resize_bilinear(clip: np.ndarray, out_hw) -> np.ndarray:
    """(L, 3, H, W) -> (L, 3, oh, ow), align-corners=False convention."""
    l, c, h, w = clip.shape
    oh, ow = out_hw
    if (oh, ow) == (h, w):
        return clip
    ys = (np.arange(oh, dtype=np.float64) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow, dtype=np.float64) + 0.5) * w / ow - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(int)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)[None, :]
    g = clip
    top = g[:, :, y0][:, :, :, x0] * (1 - wx) + g[:, :, y0][:, :, :, x1] * wx
    bot = g[:, :, y1][:, :, :, x0] * (1 - wx) + g[:, :, y1][:, :, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def augment_clip(clip: np.ndarray, rng, enable_flip=True, crop_scales=(1.0,)):
    """Clip-consistent multi-scale crop, resized back to the clip's size, plus
    left-right flip (p = 0.5).

    The same crop window and flip decision apply to every frame. Returns the
    augmented clip and a record of the applied transform.
    """
    if not crop_scales or any(not 0 < s <= 1 for s in crop_scales):
        raise ConfigError(f"need one or more crop scales in (0, 1], got {crop_scales}")
    l, c, h, w = clip.shape
    scale = float(crop_scales[int(rng.integers(0, len(crop_scales)))])
    ch = max(1, int(round(h * scale)))
    cw = max(1, int(round(w * scale)))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    out = clip[:, :, top:top + ch, left:left + cw]
    out = resize_bilinear(np.ascontiguousarray(out), (h, w))
    flipped = bool(enable_flip and rng.random() < 0.5)
    if flipped:
        out = flip_lr(out)
    transform = {"scale": scale, "top": top, "left": left,
                 "crop_hw": (ch, cw), "flip": flipped}
    return np.ascontiguousarray(out), transform


# ---------------------------------------------------------------------------
# dataset: a pure function of five values


def video_seed(root_seed: int, index: int) -> int:
    ss = np.random.SeedSequence([int(root_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class SyntheticDataset:
    """``n_videos`` videos of ``task``, each ``num_frames`` frames of ``size``.

    Video ``i`` has label ``i % num_classes(task)`` and is rendered from seed
    ``video_seed(root_seed, i)``, so equal fields give bit-identical frames.
    """

    task: str
    n_videos: int
    size: tuple = (64, 64)
    num_frames: int = 9
    root_seed: int = 0

    def __post_init__(self):
        num_classes(self.task)
        if self.n_videos < 1:
            raise ConfigError("need at least one video")
        _check_frames(self.task, self.size, self.num_frames)

    @classmethod
    def generate(cls, task, n_videos, size=(64, 64), num_frames=9, root_seed=0):
        return cls(task, n_videos, size, num_frames, root_seed)

    def __len__(self):
        return self.n_videos

    def video(self, i: int) -> SyntheticVideo:
        if not 0 <= i < self.n_videos:
            raise IndexError(f"video {i} outside [0, {self.n_videos})")
        return generate_video(self.task, i % num_classes(self.task), size=self.size,
                              num_frames=self.num_frames, seed=video_seed(self.root_seed, i))
