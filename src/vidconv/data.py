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
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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


@dataclass
class SyntheticVideo:
    frames: np.ndarray          # (Nf, 3, H, W) float32 in [0, 1]
    label: int
    task: str
    seed: int
    meta: dict = field(default_factory=dict)


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
    return frames, {"shape": "disc" if shape == 0 else "square",
                    "color": APPEARANCE_COLORS[label % 4][0],
                    "center": (float(cy), float(cx)), "radius": float(radius)}


def _gen_motion(rng, label, h, w, nf):
    radius = rng.uniform(5.0, 8.0)
    speed = rng.uniform(2.5, 4.0)
    angle = np.pi / 4.0 * label
    vx, vy = speed * np.cos(angle), -speed * np.sin(angle)   # image y grows down
    span_x, span_y = vx * (nf - 1), vy * (nf - 1)
    margin = radius + 2.0
    x_lo = margin + max(0.0, -span_x)
    x_hi = w - margin - max(0.0, span_x)
    y_lo = margin + max(0.0, -span_y)
    y_hi = h - margin - max(0.0, span_y)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise ConfigError(f"frame {h}x{w} too small for {nf}-frame motion at speed {speed:.1f}")
    cx0 = rng.uniform(x_lo, x_hi)
    cy0 = rng.uniform(y_lo, y_hi)
    bg = _background(rng, h, w)
    frames = np.empty((nf, 3, h, w), dtype=np.float32)
    centers = []
    for t in range(nf):
        cy, cx = cy0 + vy * t, cx0 + vx * t
        frame = np.repeat(bg[None], 3, axis=0)
        _paint(frame, disc_coverage(h, w, cy, cx, radius), MOTION_COLOR)
        frames[t] = frame
        centers.append((float(cy), float(cx)))
    return frames, {"centers": centers, "radius": float(radius), "speed": float(speed)}


def _gen_temporal_order(rng, label, h, w, nf):
    if nf < 2:
        raise ConfigError("temporal-order needs at least two frames")
    t1, t2 = sorted(rng.choice(nf, size=2, replace=False).tolist())
    # label 1: event A flashes first; label 0: event B flashes first
    t_a, t_b = (t1, t2) if label == 1 else (t2, t1)
    bg = _background(rng, h, w)
    events = {}
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
    events["frame_a"] = int(t_a)
    events["frame_b"] = int(t_b)
    return frames, events


_GENERATORS = {
    "appearance-only": _gen_appearance,
    "motion-direction": _gen_motion,
    "temporal-order": _gen_temporal_order,
}


def generate_video(task, class_label, size=(64, 64), num_frames=9, seed=0) -> SyntheticVideo:
    """Deterministic clip for (task, label, seed); bit-identical across calls."""
    k = num_classes(task)
    if not 0 <= class_label < k:
        raise ConfigError(f"label {class_label} outside [0, {k}) for {task}")
    h, w = size
    if h < 32 or w < 32:
        raise ConfigError(f"frames must be at least 32x32, got {size}")
    if num_frames < 1:
        raise ConfigError("need at least one frame")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frames, meta = _GENERATORS[task](rng, class_label, h, w, num_frames)
    return SyntheticVideo(frames=frames, label=int(class_label), task=task,
                          seed=int(seed), meta=meta)


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


@dataclass(frozen=True)
class ClipSampler:
    frames: int
    stride_range: tuple = (1, 1)

    def __post_init__(self):
        lo, hi = self.stride_range
        if self.frames < 1 or lo < 1 or hi < lo:
            raise ConfigError(f"bad sampler: frames={self.frames}, strides={self.stride_range}")


def sample_clip(video: SyntheticVideo, sampler: ClipSampler, rng=None) -> np.ndarray:
    """Uniform-stride clip; falls back to the widest stride that still fits.

    For a video of N frames and requested minimum stride s_min the fallback is
    min(s_min, (N-1) // (L-1)).
    """
    n = video.frames.shape[0]
    L = sampler.frames
    if n < L:
        raise ShapeError(f"video has {n} frames, sampler needs {L}")
    if L == 1:
        start = 0 if rng is None else int(rng.integers(0, n))
        return video.frames[start:start + 1].copy()
    lo, hi = sampler.stride_range
    if rng is not None and hi > lo:
        stride = int(rng.integers(lo, hi + 1))
    else:
        stride = lo
    if (L - 1) * stride > n - 1:
        stride = min(lo, (n - 1) // (L - 1))
        stride = max(stride, 1)
    max_start = n - 1 - (L - 1) * stride
    start = 0 if rng is None or max_start == 0 else int(rng.integers(0, max_start + 1))
    idx = start + stride * np.arange(L)
    return video.frames[idx].copy()


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


def augment_clip(clip: np.ndarray, rng, enable_flip=True, crop_scales=(1.0,),
                 out_size=None):
    """Clip-consistent multi-scale crop plus left-right flip (p = 0.5).

    The same crop window and flip decision apply to every frame. Returns the
    augmented clip and a record of the applied transform.
    """
    if any(not 0 < s <= 1 for s in crop_scales):
        raise ConfigError(f"crop scales must lie in (0, 1], got {crop_scales}")
    l, c, h, w = clip.shape
    out_size = tuple(out_size) if out_size is not None else (h, w)
    scale = float(crop_scales[int(rng.integers(0, len(crop_scales)))])
    ch = max(1, int(round(h * scale)))
    cw = max(1, int(round(w * scale)))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    out = clip[:, :, top:top + ch, left:left + cw]
    out = resize_bilinear(np.ascontiguousarray(out), out_size)
    flipped = bool(enable_flip and rng.random() < 0.5)
    if flipped:
        out = flip_lr(out)
    transform = {"scale": scale, "top": top, "left": left,
                 "crop_hw": (ch, cw), "flip": flipped}
    return np.ascontiguousarray(out), transform


# ---------------------------------------------------------------------------
# dataset with manifest-based persistence


def video_seed(root_seed: int, index: int) -> int:
    ss = np.random.SeedSequence([int(root_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _gen_entry(args):
    task, label, size, nf, seed = args
    return generate_video(task, label, size=size, num_frames=nf, seed=seed)


class SyntheticDataset:
    """Manifest of (seed, label) pairs; frames regenerate on demand or preload."""

    def __init__(self, manifest: dict, cache=None):
        self.manifest = manifest
        self._cache = cache

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, task, n_videos, size=(64, 64), num_frames=9, root_seed=0,
                 preload=False, workers=1):
        if n_videos < 1:
            raise ConfigError("need at least one video")
        k = num_classes(task)
        videos = [{"index": i, "seed": video_seed(root_seed, i), "label": i % k}
                  for i in range(n_videos)]
        manifest = {"format": "vidconv-dataset-v1", "task": task,
                    "height": int(size[0]), "width": int(size[1]),
                    "num_frames": int(num_frames), "num_classes": k,
                    "root_seed": int(root_seed), "videos": videos}
        ds = cls(manifest)
        if preload:
            ds.preload(workers=workers)
        return ds

    def preload(self, workers=1):
        args = [(self.task, v["label"], (self.height, self.width),
                 self.num_frames, v["seed"]) for v in self.manifest["videos"]]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                self._cache = list(pool.map(_gen_entry, args, chunksize=16))
        else:
            self._cache = [_gen_entry(a) for a in args]
        return self

    # -- access --------------------------------------------------------------

    @property
    def task(self):
        return self.manifest["task"]

    @property
    def num_frames(self):
        return self.manifest["num_frames"]

    @property
    def height(self):
        return self.manifest["height"]

    @property
    def width(self):
        return self.manifest["width"]

    @property
    def num_classes(self):
        return self.manifest["num_classes"]

    def __len__(self):
        return len(self.manifest["videos"])

    def video(self, i: int) -> SyntheticVideo:
        if self._cache is not None:
            return self._cache[i]
        v = self.manifest["videos"][i]
        return generate_video(self.task, v["label"], size=(self.height, self.width),
                              num_frames=self.num_frames, seed=v["seed"])

    def labels(self):
        return np.asarray([v["label"] for v in self.manifest["videos"]])

    def checksum(self) -> str:
        """SHA-256 over all frame bytes in index order (regenerates if needed)."""
        digest = hashlib.sha256()
        for i in range(len(self)):
            digest.update(np.ascontiguousarray(self.video(i).frames, dtype="<f4").tobytes())
        return digest.hexdigest()

    # -- persistence -----------------------------------------------------------

    def save(self, directory, store_frames=False):
        os.makedirs(directory, exist_ok=True)
        manifest = dict(self.manifest)
        manifest["stored_frames"] = bool(store_frames)
        manifest["checksum"] = self.checksum()
        if store_frames:  # the videos back to back, in index order
            with open(os.path.join(directory, "frames.bin"), "wb") as fh:
                for i in range(len(self)):
                    fh.write(np.ascontiguousarray(self.video(i).frames, dtype="<f4").tobytes())
        with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        return manifest["checksum"]

    @classmethod
    def load(cls, directory, preload=False):
        path = os.path.join(directory, "manifest.json")
        if not os.path.exists(path):
            raise ConfigError(f"no dataset manifest at {path}")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != "vidconv-dataset-v1":
            raise ConfigError(f"unrecognized dataset format in {path}")
        ds = cls(manifest)
        if manifest.get("stored_frames"):
            blob = os.path.join(directory, "frames.bin")
            shape = (len(ds), manifest["num_frames"], 3, manifest["height"], manifest["width"])
            got, expect = os.path.getsize(blob), 4 * math.prod(shape)
            if got != expect:
                raise ConfigError(f"{blob} holds {got} bytes, manifest expects {expect}")
            frames = np.fromfile(blob, dtype="<f4").reshape(shape)
            ds._cache = [SyntheticVideo(frames=f, label=v["label"], task=manifest["task"],
                                        seed=v["seed"])
                         for f, v in zip(frames, manifest["videos"])]
            if ds.checksum() != manifest.get("checksum"):
                raise ConfigError(f"{blob} does not match the checksum in {path}")
        elif preload:
            ds.preload()
        return ds
