"""Generator invariants, labeling oracles, clip sampling, augmentation, persistence."""
import numpy as np
import pytest

from vidconv.data import (ClipSampler, SyntheticDataset, augment_clip, flip_lr,
                          generate_video, label_oracle, num_classes, resize_bilinear,
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


def test_motion_east_centroid_strictly_increases():
    v = generate_video("motion-direction", 0, seed=7)
    xs = [c[1] for c in v.meta["centers"]]
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


def test_sample_clip_fallback_stride_formula():
    v = make_video(17)
    clip = sample_clip(v, ClipSampler(frames=9, stride_range=(5, 5)))
    # min(5, 16 // 8) = 2
    np.testing.assert_array_equal(clip, v.frames[np.arange(9) * 2])


def test_sample_clip_stride_fits_without_fallback():
    v = make_video(100, seed=1)
    clip = sample_clip(v, ClipSampler(frames=9, stride_range=(5, 5)))
    np.testing.assert_array_equal(clip, v.frames[np.arange(9) * 5])


def test_sample_clip_exact_length_video():
    v = make_video(9, seed=2)
    clip = sample_clip(v, ClipSampler(frames=9, stride_range=(5, 5)))
    np.testing.assert_array_equal(clip, v.frames)


def test_sample_clip_too_short_errors():
    v = make_video(5, seed=3)
    with pytest.raises(ShapeError):
        sample_clip(v, ClipSampler(frames=9))


def test_sample_clip_random_stride_and_start_in_bounds():
    v = make_video(60, seed=4)
    r = rng(5)
    for _ in range(20):
        clip = sample_clip(v, ClipSampler(frames=9, stride_range=(3, 6)), rng=r)
        assert clip.shape == (9, 3, 64, 64)


def test_sampler_validation():
    with pytest.raises(ConfigError):
        ClipSampler(frames=9, stride_range=(0, 5))
    with pytest.raises(ConfigError):
        ClipSampler(frames=9, stride_range=(6, 2))


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
    out, tf = augment_clip(v.frames, rng(10), enable_flip=False, crop_scales=(0.75,),
                           out_size=(48, 48))
    t, l = tf["top"], tf["left"]
    ch, cw = tf["crop_hw"]
    assert out.shape == (9, 3, 48, 48)
    for t_idx in range(9):
        np.testing.assert_array_equal(out[t_idx], resize_bilinear(
            v.frames[t_idx:t_idx + 1, :, t:t + ch, l:l + cw], (48, 48))[0])


def test_augment_rejects_bad_scales():
    v = make_video(9, seed=11)
    with pytest.raises(ConfigError):
        augment_clip(v.frames, rng(0), crop_scales=(0.0,))
    with pytest.raises(ConfigError):
        augment_clip(v.frames, rng(0), crop_scales=(1.5,))


def test_resize_identity_when_same_size():
    v = make_video(2, seed=12)
    assert resize_bilinear(v.frames, (64, 64)) is v.frames


# ---------------------------------------------------------------------------
# datasets

def test_dataset_regeneration_is_bit_identical():
    a = SyntheticDataset.generate("temporal-order", 12, root_seed=7)
    b = SyntheticDataset.generate("temporal-order", 12, root_seed=7)
    assert a.checksum() == b.checksum()
    c = SyntheticDataset.generate("temporal-order", 12, root_seed=8)
    assert a.checksum() != c.checksum()


def test_dataset_labels_balanced_round_robin():
    ds = SyntheticDataset.generate("appearance-only", 16, root_seed=0)
    labels = ds.labels()
    assert [int(x) for x in labels[:8]] == list(range(8))
    counts = np.bincount(labels, minlength=8)
    assert counts.min() == counts.max() == 2


def test_dataset_parallel_generation_matches_serial():
    serial = SyntheticDataset.generate("motion-direction", 8, root_seed=3, preload=True)
    parallel = SyntheticDataset.generate("motion-direction", 8, root_seed=3,
                                         preload=True, workers=2)
    for i in range(8):
        assert np.array_equal(serial.video(i).frames, parallel.video(i).frames)


def test_dataset_save_load_manifest_only(tmp_path):
    ds = SyntheticDataset.generate("temporal-order", 6, root_seed=11)
    checksum = ds.save(tmp_path / "d1")
    loaded = SyntheticDataset.load(tmp_path / "d1")
    assert loaded.checksum() == checksum
    assert len(loaded) == 6
    assert np.array_equal(loaded.video(3).frames, ds.video(3).frames)


def test_dataset_save_load_with_frames_blob(tmp_path):
    ds = SyntheticDataset.generate("appearance-only", 5, root_seed=12)
    ds.save(tmp_path / "d2", store_frames=True)
    loaded = SyntheticDataset.load(tmp_path / "d2")
    for i in range(5):
        assert np.array_equal(loaded.video(i).frames, ds.video(i).frames)
    blob = tmp_path / "d2" / "frames.bin"
    good = blob.read_bytes()
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0x01
    blob.write_bytes(bytes(flipped))
    with pytest.raises(ConfigError, match="checksum"):
        SyntheticDataset.load(tmp_path / "d2")
    blob.write_bytes(good[:-4])
    with pytest.raises(ConfigError, match="manifest expects"):
        SyntheticDataset.load(tmp_path / "d2")


def test_dataset_load_missing_manifest(tmp_path):
    with pytest.raises(ConfigError):
        SyntheticDataset.load(tmp_path / "nope")


def test_dataset_rejects_zero_videos():
    with pytest.raises(ConfigError):
        SyntheticDataset.generate("temporal-order", 0)
