"""Generator invariants, labeling oracles, clip sampling, augmentation, datasets."""
from dataclasses import fields

import numpy as np
import pytest

from vidconv.data import (TASKS, SyntheticDataset, SyntheticVideo, _white_centroid, augment_clip,
                          flip_lr, generate_video, label_oracle, num_classes, resize_bilinear,
                          sample_clip, video_seed)
from vidconv.errors import ConfigError, ShapeError
from conftest import rng


# ---------------------------------------------------------------------------
# generation determinism and ranges

def test_generate_deterministic_and_in_range():
    a = generate_video("temporal-order", 1, seed=42)
    b = generate_video("temporal-order", 1, seed=42)
    assert np.array_equal(a.frames, b.frames)
    assert a.frames.dtype == np.float32
    assert a.frames.min() >= 0.0 and a.frames.max() <= 1.0
    c = generate_video("temporal-order", 1, seed=43)
    assert not np.array_equal(a.frames, c.frames)


def test_generate_rejects_bad_args():
    with pytest.raises(ConfigError):
        generate_video("unknown-task", 0)
    with pytest.raises(ConfigError):
        generate_video("temporal-order", 5)
    with pytest.raises(ConfigError):
        generate_video("appearance-only", 0, size=(16, 64))
    with pytest.raises(ConfigError):
        generate_video("temporal-order", 0, num_frames=1)


# ---------------------------------------------------------------------------
# task invariants via the oracles

@pytest.mark.parametrize("label", range(8))
def test_appearance_oracle_and_permutation_invariance(label):
    v = generate_video("appearance-only", label, seed=100 + label)
    assert label_oracle("appearance-only", v.frames) == label
    perm = rng(label).permutation(v.frames.shape[0])
    assert label_oracle("appearance-only", v.frames[perm]) == label


@pytest.mark.parametrize("label", range(8))
def test_motion_direction_oracle_and_reversal(label):
    v = generate_video("motion-direction", label, seed=200 + label)
    assert label_oracle("motion-direction", v.frames) == label
    assert label_oracle("motion-direction", v.frames[::-1]) == (label + 4) % 8


def test_motion_frame_floor_is_the_worst_case():
    # 9 frames need 2 * (8 + 2) + 4 * 8 = 52 px: any seed renders at 52, and 51 is rejected
    # before a radius or speed is drawn
    ds = SyntheticDataset("motion-direction", 32, size=(52, 60))
    assert all(ds.video(i).frames.shape == (9, 3, 52, 60) for i in range(len(ds)))
    for seed in range(4):
        with pytest.raises(ConfigError, match="at least 52 px"):
            generate_video("motion-direction", seed, size=(60, 51), seed=seed)


def test_motion_east_centroid_strictly_increases():
    v = generate_video("motion-direction", 0, seed=7)
    xs = [_white_centroid(frame)[1] for frame in v.frames]
    assert all(b > a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("label", (0, 1))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_temporal_order_oracle_and_reversal(label, seed):
    v = generate_video("temporal-order", label, seed=seed)
    assert label_oracle("temporal-order", v.frames) == label
    assert label_oracle("temporal-order", v.frames[::-1]) == 1 - label


def test_temporal_order_symmetric_event_marginals():
    # both classes show one A flash and one B flash; only the order differs
    v1 = generate_video("temporal-order", 1, seed=5)
    v0 = generate_video("temporal-order", 0, seed=5)
    for v in (v1, v0):
        red = v.frames[:, 0] - np.maximum(v.frames[:, 1], v.frames[:, 2])
        blue = v.frames[:, 2] - np.maximum(v.frames[:, 0], v.frames[:, 1])
        assert (red.reshape(9, -1).max(axis=1) > 0.3).sum() == 1
        assert (blue.reshape(9, -1).max(axis=1) > 0.3).sum() == 1


def test_oracle_matches_generated_label_across_many_videos():
    for task in ("appearance-only", "motion-direction", "temporal-order"):
        k = num_classes(task)
        for i in range(24):
            v = generate_video(task, i % k, seed=video_seed(999, i))
            assert label_oracle(task, v.frames) == i % k, (task, i)


# ---------------------------------------------------------------------------
# clip sampling

def make_video(n_frames, seed=0):
    return generate_video("appearance-only", 0, num_frames=n_frames, seed=seed)


def test_sample_clip_exact_length_video():
    v = make_video(9, seed=2)
    np.testing.assert_array_equal(sample_clip(v, 9), v.frames)
    r = rng(0)
    state = r.bit_generator.state
    np.testing.assert_array_equal(sample_clip(v, 9, rng=r), v.frames)
    assert r.bit_generator.state == state  # no start to draw


def test_sample_clip_too_short_errors():
    v = make_video(5, seed=3)
    with pytest.raises(ShapeError):
        sample_clip(v, 9)


def test_sample_clip_random_start_takes_consecutive_frames():
    # frame t holds the value t, so a clip shows where it started
    v = SyntheticVideo(frames=np.arange(60, dtype=np.float32).reshape(60, 1, 1, 1), label=0)
    np.testing.assert_array_equal(sample_clip(v, 9)[:, 0, 0, 0], np.arange(9))
    r, ref = rng(5), rng(5)
    for _ in range(20):
        start = int(ref.integers(0, 52))  # one draw per clip over the 52 starts that fit
        np.testing.assert_array_equal(sample_clip(v, 9, rng=r)[:, 0, 0, 0], start + np.arange(9))


# ---------------------------------------------------------------------------
# augmentation

def test_flip_is_involution():
    v = make_video(9, seed=6)
    clip = v.frames
    assert np.array_equal(flip_lr(flip_lr(clip)), clip)


def test_augment_identity_at_scale_one_no_flip():
    v = make_video(9, seed=7)
    out, tf = augment_clip(v.frames, rng(8), enable_flip=False, crop_scales=(1.0,))
    assert np.array_equal(out, v.frames)
    assert tf["flip"] is False and tf["scale"] == 1.0


def test_augment_same_window_for_all_frames():
    v = make_video(9, seed=9)
    out, tf = augment_clip(v.frames, rng(10), enable_flip=False, crop_scales=(0.75,))
    t, l = tf["top"], tf["left"]
    ch, cw = tf["crop_hw"]
    assert (ch, cw) == (48, 48) and out.shape == (9, 3, 64, 64)
    for t_idx in range(9):
        np.testing.assert_array_equal(out[t_idx], resize_bilinear(
            v.frames[t_idx:t_idx + 1, :, t:t + ch, l:l + cw], (64, 64))[0])


def test_augment_rejects_bad_scales():
    v = make_video(9, seed=11)
    with pytest.raises(ConfigError):
        augment_clip(v.frames, rng(0), crop_scales=(0.0,))
    with pytest.raises(ConfigError):
        augment_clip(v.frames, rng(0), crop_scales=(1.5,))
    with pytest.raises(ConfigError):
        augment_clip(v.frames, rng(0), crop_scales=())


def test_resize_identity_when_same_size():
    v = make_video(2, seed=12)
    assert resize_bilinear(v.frames, (64, 64)) is v.frames


# ---------------------------------------------------------------------------
# datasets

def test_dataset_regeneration_is_bit_identical():
    a = SyntheticDataset.generate("temporal-order", 12, root_seed=7)
    b = SyntheticDataset.generate("temporal-order", 12, root_seed=7)
    c = SyntheticDataset.generate("temporal-order", 12, root_seed=8)
    for i in range(len(a)):
        assert np.array_equal(a.video(i).frames, b.video(i).frames)
    assert not all(np.array_equal(a.video(i).frames, c.video(i).frames) for i in range(len(a)))


@pytest.mark.parametrize("task", sorted(TASKS))
def test_dataset_video_is_generate_video_of_its_seed(task):
    size, frames, root = (48, 80), 7, 21
    ds = SyntheticDataset.generate(task, 10, size=size, num_frames=frames, root_seed=root)
    assert [f.name for f in fields(ds)] == ["task", "n_videos", "size", "num_frames", "root_seed"]
    k = num_classes(task)
    for i in range(len(ds)):
        v = ds.video(i)
        ref = generate_video(task, i % k, size, frames, seed=video_seed(root, i))
        assert v.frames.shape == (frames, 3) + size
        assert np.array_equal(v.frames, ref.frames)
        assert v.label == ref.label == i % k
    with pytest.raises(IndexError):
        ds.video(len(ds))


def test_dataset_labels_balanced_round_robin():
    ds = SyntheticDataset.generate("appearance-only", 16, root_seed=0)
    labels = np.array([ds.video(i).label for i in range(len(ds))])
    assert [int(x) for x in labels[:8]] == list(range(8))
    counts = np.bincount(labels, minlength=8)
    assert counts.min() == counts.max() == 2


def test_dataset_rejects_zero_videos():
    # at construction, not at the first video(i) mid-train
    for kwargs in ({"n_videos": 0}, {"size": (16, 16)}, {"size": (64, 31)}, {"num_frames": 0},
                   {"task": "motion-direction", "size": (32, 32)}):
        with pytest.raises(ConfigError):
            SyntheticDataset(**{"task": "temporal-order", "n_videos": 4, **kwargs})
