"""Optimizer semantics, schedule, stochastic depth, loops, and multi-view eval."""
import math
from dataclasses import replace

import numpy as np
import pytest

from vidconv import tensor as T
from vidconv.data import SyntheticDataset
from vidconv.errors import ConfigError, DivergenceError
from vidconv.model import build_model, drop_path, make_config
from vidconv.training import (OptimState, Schedule, TrainConfig, adamw_step,
                              clip_grad_norm, evaluate_multiview, lr_at, seed_streams, train)
from conftest import rng


def param(values):
    return T.Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


# ---------------------------------------------------------------------------
# AdamW

def test_adamw_zero_grad_is_pure_decay():
    p = param([1.0, -2.0, 0.5])
    p.grad = np.zeros(3, dtype=np.float32)
    state = OptimState(base_lr=1e-3, weight_decay=0.05)
    adamw_step({"p": p}, state, lr_now=1e-3)
    np.testing.assert_allclose(p.data, np.array([1.0, -2.0, 0.5]) * (1 - 5e-5), rtol=1e-6)
    assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)


def test_adamw_constant_gradient_approaches_sign_step():
    p = param([0.0])
    state = OptimState(base_lr=1e-3, weight_decay=0.0)
    prev = p.data.copy()
    for _ in range(300):
        p.grad = np.array([0.37], dtype=np.float32)
        prev = p.data.copy()
        adamw_step({"p": p}, state, lr_now=1e-3)
    step = (prev - p.data).item()
    assert step == pytest.approx(1e-3, rel=1e-2)  # Adam asymptote: lr * sign(g)


def test_adamw_matches_scalar_reference():
    # independent scalar implementation, three parameters, five steps
    lr, wd, b1, b2, eps = 1e-2, 0.04, 0.9, 0.999, 1e-8
    ps = [0.5, -1.2, 2.0]
    grads = [[0.1, -0.2, 0.05], [0.3, 0.1, -0.4], [-0.2, 0.2, 0.1],
             [0.05, -0.05, 0.3], [0.15, 0.25, -0.1]]
    ref = list(ps)
    m = [0.0] * 3
    v = [0.0] * 3
    for t, gs in enumerate(grads, start=1):
        for i in range(3):
            m[i] = b1 * m[i] + (1 - b1) * gs[i]
            v[i] = b2 * v[i] + (1 - b2) * gs[i] ** 2
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            ref[i] -= lr * wd * ref[i]
            ref[i] -= lr * mhat / (math.sqrt(vhat) + eps)

    p = param(ps)
    state = OptimState(base_lr=lr, weight_decay=wd)
    for gs in grads:
        p.grad = np.asarray(gs, dtype=np.float32)
        adamw_step({"p": p}, state, lr_now=lr)
    np.testing.assert_allclose(p.data, np.asarray(ref, dtype=np.float32), atol=1e-7)


def test_adamw_lr_zero_is_noop_on_params():
    p = param([3.0, 4.0])
    p.grad = np.array([1.0, -1.0], dtype=np.float32)
    state = OptimState(base_lr=0.0, weight_decay=0.1)
    before = p.data.copy()
    adamw_step({"p": p}, state, lr_now=0.0)
    np.testing.assert_array_equal(p.data, before)
    assert np.any(state.m["p"] != 0)  # moments may still update


def test_adamw_group_multiplier_freezes_group():
    pb = param([1.0])
    ph = param([1.0])
    for p in (pb, ph):
        p.grad = np.array([0.5], dtype=np.float32)
    state = OptimState(base_lr=1e-2, weight_decay=0.0,
                       lr_multipliers={"backbone": 0.0, "head": 1.0})
    adamw_step({"b.w": pb, "h.w": ph}, state, lr_now=1e-2,
               group_of=lambda n: "backbone" if n.startswith("b.") else "head")
    assert pb.data[0] == 1.0
    assert ph.data[0] != 1.0


def test_adamw_nan_gradient_aborts():
    p = param([1.0])
    p.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(DivergenceError):
        adamw_step({"p": p}, OptimState(base_lr=1e-3), lr_now=1e-3)


def test_clip_grad_norm():
    p = param([3.0, 4.0])
    p.grad = np.array([3.0, 4.0], dtype=np.float32)
    norm = clip_grad_norm({"p": p}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# schedule

def test_schedule_endpoints_exact():
    s = Schedule(warmup_iters=100, total_iters=1000, lr_init=1e-3, lr_min=5e-6)
    assert abs(lr_at(s, 100) - 1e-3) < 1e-12
    assert abs(lr_at(s, 1000) - 5e-6) < 1e-12
    assert lr_at(s, 0) == 0.0


def test_schedule_cosine_midpoint():
    s = Schedule(warmup_iters=0, total_iters=1000, lr_init=1e-3, lr_min=5e-6)
    assert abs(lr_at(s, 500) - (1e-3 + 5e-6) / 2) < 1e-9


def test_schedule_monotone_after_warmup_and_continuous():
    s = Schedule(warmup_iters=50, total_iters=500)
    values = [lr_at(s, i) for i in range(50, 501)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert abs(lr_at(s, 49) - lr_at(s, 50)) < s.lr_init / 50 + 1e-12


def test_schedule_range_checks():
    s = Schedule(warmup_iters=10, total_iters=100)
    with pytest.raises(ValueError):
        lr_at(s, -1)
    with pytest.raises(ValueError):
        lr_at(s, 101)
    with pytest.raises(ConfigError):
        Schedule(warmup_iters=200, total_iters=100)


@pytest.mark.parametrize("field,value", [("eval_clips", 0), ("warmup_epochs", -1),
                                         ("weight_decay", -0.1), ("clip_norm", -1.0),
                                         ("ckpt_every", -2), ("lb", float("nan"))])
def test_train_config_rejects_bad_values(field, value):
    # at construction, not after the first epoch has trained
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# drop path

def test_drop_path_identity_cases():
    x = T.Tensor(rng(0).random((4, 3, 2, 2)).astype(np.float32))
    assert drop_path(x, 0.0, None, training=True) is x
    assert drop_path(x, 0.7, None, training=False) is x
    with pytest.raises(ValueError):
        drop_path(x, 1.0, rng(0), training=True)


def test_drop_path_keep_statistics_and_scaling():
    r = rng(1)
    x = T.Tensor(np.ones((10_000, 1), dtype=np.float32))
    y = drop_path(x, 0.25, r, training=True)
    dropped = float((y.data == 0).mean())
    assert abs(dropped - 0.25) < 0.02
    kept = y.data[y.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)


# ---------------------------------------------------------------------------
# training loop

def tiny_setup(task="temporal-order", n_train=8, n_val=8, seed=0):
    cfg = make_config("toy", num_classes=2 if task == "temporal-order" else 8,
                      input_size=(64, 64), drop_path_rate=0.05)
    model = build_model(cfg, seed)
    train_ds = SyntheticDataset.generate(task, n_train, root_seed=seed)
    val_ds = SyntheticDataset.generate(task, n_val, root_seed=seed + 1)
    return model, train_ds, val_ds


def _smoke_losses(seed, **lr_kw):
    model, tr, va = tiny_setup(seed=seed)
    cfg = TrainConfig(epochs=6, batch_size=4, warmup_epochs=1, **lr_kw)
    return [h["loss"] for h in train(model, tr, va, cfg, root_seed=seed).history]


def test_train_smoke_loss_decreases():
    # 6 epochs at 2e-4: epoch 0 is the untrained loss (warmup starts at lr 0)
    # and Adam steps >= 1e-3 overshoot this toy model. The lr~0 control draws
    # the same batches, flips and drop-path masks; 0.01 exceeds its first-to-
    # last loss drift on 19 of seeds 0-19.
    wins = 0
    for seed in (0, 1, 2):
        losses = _smoke_losses(seed, lr=2e-4)
        control = _smoke_losses(seed, lr=1e-12, lr_min=0.0)
        if losses[-1] < losses[0] and losses[-1] < control[-1] - 0.01:
            wins += 1
    assert wins >= 2


def test_train_deterministic_same_seed():
    h = []
    for _ in range(2):
        model, tr, va = tiny_setup(seed=3)
        cfg = TrainConfig(epochs=2, batch_size=4)
        state = train(model, tr, va, cfg, root_seed=3)
        h.append(state.history)
    assert h[0] == h[1]


def test_train_continues_in_memory_bit_exact():
    # perfbench's toy-train grows one run an epoch at a time: train(epochs=1),
    # then train(epochs=2, state=...). With lr_min == lr the lr after warm-up
    # does not depend on the epoch count, so the split run must equal one run.
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, lr_min=1e-3, crop_scales=(0.8, 1.0))
    model, tr, va = tiny_setup(task="motion-direction", seed=12)
    whole = train(model, tr, va, cfg, root_seed=12)
    split, tr, va = tiny_setup(task="motion-direction", seed=12)
    state = train(split, tr, va, replace(cfg, epochs=1), root_seed=12)
    state = train(split, tr, va, cfg, root_seed=12, state=state)
    assert [h["step_losses"] for h in state.history] == \
        [h["step_losses"] for h in whole.history]
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, split.parameters()[name].data), name


def test_train_lb_zero_freezes_backbone():
    model, tr, va = tiny_setup(seed=4)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    cfg = TrainConfig(epochs=1, batch_size=4, lb=0.0)
    train(model, tr, va, cfg, root_seed=4)
    changed_head = changed_backbone = 0
    for name, p in model.parameters().items():
        same = np.array_equal(before[name], p.data)
        if model.param_group(name) == "backbone":
            changed_backbone += 0 if same else 1
        else:
            changed_head += 0 if same else 1
    assert changed_backbone == 0
    assert changed_head > 0


# lr 1e12 overflows float32 on purpose; any other warning still fails the test
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning:vidconv.tensor",
                            "ignore:invalid value encountered in reduce:RuntimeWarning:numpy")
def test_train_divergence_aborts_with_dump():
    model, tr, va = tiny_setup(seed=5)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e12, lr_min=0.0, warmup_epochs=0,
                      clip_norm=0.0)
    with pytest.raises(DivergenceError):
        train(model, tr, va, cfg, root_seed=5)


def test_train_metrics_file(tmp_path):
    model, tr, va = tiny_setup(seed=6)
    path = tmp_path / "metrics.jsonl"
    cfg = TrainConfig(epochs=2, batch_size=4, metrics_path=str(path))
    train(model, tr, va, cfg, root_seed=6)
    import json
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 2
    assert {"epoch", "split", "loss", "top1", "top5", "lr"} <= set(lines[0])


def test_train_checkpoints_hold_weights_and_meta_only(tmp_path):
    model, tr, va = tiny_setup(seed=7)
    cfg = TrainConfig(epochs=1, batch_size=4, ckpt_dir=str(tmp_path), ckpt_every=1)
    train(model, tr, va, cfg, root_seed=7)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["best.npz", "epoch001.npz"]
    for name in ("epoch001", "best"):
        with np.load(tmp_path / f"{name}.npz") as npz:
            assert npz.files == ["meta", *model.parameters()]
        clone = build_model(model.config, 8)
        assert clone.load_checkpoint(str(tmp_path / name))["epoch"] == 1
        for pname, p in model.parameters().items():
            assert np.array_equal(p.data, clone.parameters()[pname].data), (name, pname)


# ---------------------------------------------------------------------------
# multi-view evaluation

def test_multiview_single_view_is_plain_eval():
    model, tr, va = tiny_setup(seed=7)
    a = evaluate_multiview(model, va, num_clips=1)
    b = evaluate_multiview(model, va, num_clips=1)
    assert a["top1"] == b["top1"] and np.array_equal(a["probs"], b["probs"])
    assert a["views_per_video"] == 1


def test_multiview_duplicate_views_equal_single():
    # a video as long as the clip gives the same view every time, so
    # averaging V identical views must reproduce the single-view scores
    model, tr, va = tiny_setup(seed=8)
    one = evaluate_multiview(model, va, num_clips=1)
    multi = evaluate_multiview(model, va, num_clips=3, rng=np.random.default_rng(0))
    np.testing.assert_allclose(one["probs"], multi["probs"], atol=1e-6)
    assert multi["views_per_video"] == 3


def test_multiview_probs_rows_sum_to_one():
    model, tr, va = tiny_setup(seed=9)
    res = evaluate_multiview(model, va, num_clips=2, rng=np.random.default_rng(1))
    np.testing.assert_allclose(res["probs"].sum(axis=1), 1.0, atol=1e-6)


def test_multiview_four_clip_protocol_shape():
    model, tr, va = tiny_setup(seed=10)
    res = evaluate_multiview(model, va, num_clips=4, rng=np.random.default_rng(2))
    assert res["views_per_video"] == 4


def test_topk_with_two_classes_degenerates():
    model, tr, va = tiny_setup(seed=11)
    res = evaluate_multiview(model, va, num_clips=1)
    assert res["top5"] == 1.0  # top-5 over 2 classes covers everything


def test_seed_streams_are_independent_and_stable():
    a = seed_streams(5)
    b = seed_streams(5)
    assert set(a) == {"data", "init", "batch", "droppath", "augment", "eval"}
    assert a["batch"].random() == b["batch"].random()
    assert a["batch"].random() != a["augment"].random()
