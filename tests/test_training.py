"""Optimizer semantics, schedule, stochastic depth, loops, and multi-view eval."""
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vidconv import tensor as T
from vidconv.data import SyntheticDataset
from vidconv.errors import ConfigError, DivergenceError, ShapeError
from vidconv.model import build_model, drop_path, make_config
from vidconv.training import (ADAM_BETAS, ADAM_EPS, OptimState, Schedule,
                              TrainConfig, adamw_step, clip_grad_norm, evaluate_multiview, lr_at,
                              seed_streams, train)
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


def test_adamw_checks_a_gradient_before_writing_its_parameter():
    p = param(np.ones(2 * T._BLOCK + 3))
    p.grad = np.zeros(p.data.shape, dtype=np.float32)
    p.grad[-1] = np.inf  # in the last, short block
    state = OptimState(base_lr=1e-3)
    with pytest.raises(DivergenceError, match="parameter h.w"):
        adamw_step({"h.w": p}, state, lr_now=1e-3)
    assert np.array_equal(p.data, np.ones(p.data.shape, dtype=np.float32))
    assert "h.w" not in state.m


def adamw_whole_array(params, m, v, step, lr_now, weight_decay, mults):
    """The unblocked update: each op over a whole parameter at once, as
    ``adamw_step`` ran before it walked blocks."""
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for name, (p, g) in params.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        lr_eff = lr_now * mults[name]
        if lr_eff == 0.0:
            continue
        mhat = m[name] / c1
        vhat = v[name] / c2
        p -= (lr_eff * weight_decay) * p
        p -= lr_eff * (mhat / (np.sqrt(vhat) + ADAM_EPS))


def test_adamw_blocks_equal_the_whole_array_update():
    r = rng(7)
    shapes = {"h.wide": (3, 2 * T._BLOCK // 3 + 11),  # several blocks, the last one short
              "h.bias": (5,), "h.scalar": (), "h.conv": (8, 3, 4, 4),
              "h.strided": (40, 30), "b.frozen": (6, 7)}
    params = {name: param(r.standard_normal(shape)) for name, shape in shapes.items()}
    ref_p = {name: p.data.copy() for name, p in params.items()}
    ref_m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    ref_v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    mults = {name: 0.0 if name.startswith("b.") else 1.0 for name in shapes}
    frozen = params["b.frozen"].data.copy()
    state = OptimState(base_lr=1e-2, weight_decay=0.05,
                       lr_multipliers={"backbone": 0.0, "head": 1.0})
    for step in (1, 2, 3):
        grads = {name: r.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}
        grads["h.strided"] = r.standard_normal((30, 40)).astype(np.float32).T
        for name, p in params.items():
            p.grad = grads[name]
        lr = 1e-2 * step
        adamw_step(params, state, lr_now=lr,
                   group_of=lambda n: "backbone" if n.startswith("b.") else "head")
        adamw_whole_array({n: (ref_p[n], grads[n]) for n in shapes}, ref_m, ref_v, step,
                          lr, 0.05, mults)
    for name in shapes:
        assert np.array_equal(params[name].data, ref_p[name]), name
        assert np.array_equal(state.m[name], ref_m[name]), name
        assert np.array_equal(state.v[name], ref_v[name]), name
    assert np.array_equal(params["b.frozen"].data, frozen)
    assert np.any(state.m["b.frozen"] != 0) and np.any(state.v["b.frozen"] != 0)


def test_adamw_rejects_a_parameter_it_cannot_update_in_place():
    p = T.Tensor(np.zeros((3, 4), dtype=np.float32).T, requires_grad=True)
    p.grad = np.ones((4, 3), dtype=np.float32)
    with pytest.raises(ShapeError, match="C-contiguous"):
        adamw_step({"p": p}, OptimState(base_lr=1e-3), lr_now=1e-3)


def test_clip_grad_norm():
    p = param([3.0, 4.0])
    p.grad = np.array([3.0, 4.0], dtype=np.float32)
    norm = clip_grad_norm({"p": p}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


def test_clip_grad_norm_scales_a_shared_gradient_once():
    # add hands one gradient array to both parents
    p1, p2 = param([[1.0, 2.0], [3.0, 4.0]]), param([[0.5, 0.5], [0.5, 0.5]])
    T.backward(T.sum_all(T.add(p1, p2)))
    norm = clip_grad_norm({"p1": p1, "p2": p2}, max_norm=1.0)
    assert norm == pytest.approx(math.sqrt(8.0))
    for p in (p1, p2):
        np.testing.assert_allclose(p.grad, np.full((2, 2), 1.0 / math.sqrt(8.0)), rtol=1e-6)


def test_clip_grad_norm_scales_each_gradient_in_place_to_the_bits_of_a_copy():
    r = rng(30)
    params = {f"p{i}": param(np.zeros(shape)) for i, shape in enumerate([(3, 5), (7,), (2, 2, 4)])}
    for p in params.values():
        p.grad = (3.0 * r.standard_normal(p.shape)).astype(np.float32)
    grads = {n: p.grad for n, p in params.items()}
    before = {n: g.copy() for n, g in grads.items()}
    norm = clip_grad_norm(params, max_norm=1.0)
    assert norm > 1.0
    for n, p in params.items():
        assert p.grad is grads[n]
        assert p.grad.tobytes() == (before[n] * (1.0 / (norm + 1e-12))).tobytes(), n


def test_clip_grad_norm_rebinds_a_gradient_it_cannot_scale_in_place():
    # a read-only gradient, and two distinct arrays over the same memory
    base = np.arange(1.0, 9.0, dtype=np.float32)
    frozen = base.copy()
    frozen.flags.writeable = False
    params = {n: param(np.zeros(4)) for n in ("frozen", "left", "right", "own")}
    params["frozen"].grad = frozen[:4]
    params["left"].grad, params["right"].grad = base[:4], base[2:6]
    own = np.ones(4, dtype=np.float32)
    params["own"].grad = own
    norm = clip_grad_norm(params, max_norm=1.0)
    scale = 1.0 / (norm + 1e-12)
    assert np.array_equal(base, np.arange(1.0, 9.0, dtype=np.float32))  # neither view written
    assert params["own"].grad is own and np.array_equal(own, np.float32(scale) * np.ones(4, np.float32))
    for name, old in (("frozen", frozen[:4]), ("left", base[:4]), ("right", base[2:6])):
        assert params[name].grad is not old
        assert np.array_equal(params[name].grad, old * scale), name


def test_clip_grad_norm_of_the_tiny_parameter_set_allocates_less_than_one_gradient():
    # In place, clipping allocates only its float64 scratch: rebinding each
    # gradient to a scaled copy would allocate the largest one (the neck
    # weight's, 64 MB) at least once.
    model = build_model(make_config("tiny", input_size=(32, 32)), 0)
    params = model.parameters()
    for p in params.values():
        p.grad = p.data  # one distinct, writeable array per parameter
    largest = max(p.grad.nbytes for p in params.values())
    tracemalloc.start()
    try:
        norm = clip_grad_norm(params, max_norm=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm > 1e-3  # so every gradient was scaled
    assert peak < largest, f"clipping peaked at {peak / 2**20:.1f} MiB"


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
                                         ("lb", float("nan")),
                                         pytest.param("crop_scales", (), id="crop_scales-empty"),
                                         pytest.param("crop_scales", (1.5,), id="crop_scales-1.5"),
                                         pytest.param("crop_scales", (0.0, 1.0),
                                                      id="crop_scales-0.0")])
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


def test_train_non_finite_gradient_norm_aborts_before_the_update(monkeypatch):
    # A NaN that reaches a gradient after backward: the norm is NaN, and the
    # step stops with the state dump before AdamW writes any weight or moment.
    model, tr, va = tiny_setup(seed=5)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    target = model.parameters()["stage1.block0.pw1.weight"]
    backward = T.backward

    def poisoned(root):
        backward(root)
        target.grad = target.grad.copy()
        target.grad.flat[0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned)
    cfg = TrainConfig(epochs=1, batch_size=4, warmup_epochs=0)  # a first step at full lr
    with pytest.raises(DivergenceError, match="non-finite gradient norm") as info:
        train(model, tr, va, cfg, root_seed=5)
    dump = json.loads(str(info.value).split("state: ", 1)[1])
    assert dump["epoch"] == 0 and dump["iteration"] == 0
    assert dump["lr"] == pytest.approx(cfg.lr)
    assert math.isnan(dump["grad_norm"])
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, before[name]), name


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
    cfg = TrainConfig(epochs=1, batch_size=4, ckpt_dir=str(tmp_path))
    train(model, tr, va, cfg, root_seed=7)
    assert [f.name for f in tmp_path.iterdir()] == ["best.npz"]
    with np.load(tmp_path / "best.npz") as npz:
        assert npz.files == ["meta", *model.parameters()]
    clone = build_model(model.config, 8)
    assert clone.load_checkpoint(str(tmp_path / "best"))["epoch"] == 1
    for pname, p in model.parameters().items():
        assert np.array_equal(p.data, clone.parameters()[pname].data), pname


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
