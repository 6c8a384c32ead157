"""Cost accounting, shuffle mechanics, CAM contracts, ablation rows."""
import tracemalloc

import numpy as np
import pytest

from vidconv import analysis
from vidconv import tensor as T
from vidconv.analysis import (ablation_rows, cam_from_capture, compute_cam, count_flops,
                              order_permutation, plan_layers, run_ablation, shuffle_eval)
from vidconv.data import SyntheticDataset
from vidconv.errors import ConfigError
from vidconv.model import build_model, make_config
from vidconv.training import TrainConfig, evaluate_multiview, train
from conftest import rng


def pct(value, target):
    return abs(value - target) / target


def num_weights(model):
    return sum(p.size for p in model.parameters().values())


# ---------------------------------------------------------------------------
# parameter accounting

@pytest.mark.parametrize("variant,classes,target", [
    ("tiny", 400, 44.7e6),
    ("small", 400, 66.4e6),
    ("base", 400, 107.4e6),
])
def test_param_counts_match_reference_within_2pct(variant, classes, target):
    rep = count_flops(make_config(variant, num_classes=classes))
    assert pct(rep.params, target) <= 0.02


def test_param_count_neckless_stage2_tiny():
    cfg = make_config("tiny", num_classes=400, use_neck=False)
    rep = count_flops(cfg)
    assert pct(rep.params, 28.19e6) <= 0.02
    assert rep.params == 28_191_088


def test_param_counts_strictly_increasing_by_variant():
    counts = [count_flops(make_config(v, num_classes=400)).params
              for v in ("tiny", "small", "base")]
    assert counts[0] < counts[1] < counts[2]


def test_symbolic_count_equals_instantiated_model():
    for kwargs in (dict(), dict(use_neck=False), dict(stacking_stage=None, use_temporal_branch=False, use_neck=False)):
        cfg = make_config("toy", num_classes=5, input_size=(64, 64), **kwargs)
        assert count_flops(cfg).params == num_weights(build_model(cfg, 0))
    cfg = make_config("tiny", num_classes=400)
    assert count_flops(cfg).params == num_weights(build_model(cfg, 0))


def test_neck_conv_parameter_count_example():
    cfg = make_config("tiny", num_classes=400)
    neck = [l for l in plan_layers(cfg) if l.name == "neck.conv"][0]
    assert neck.params == 768 * 2304 * 9 + 2304  # 15,927,552 = ~15.93M


def test_stacking_stage_param_series():
    # stacking later leaves fewer temporal blocks: 28.20 / 28.19 / 28.15 / 28.13 M
    targets = [28.20e6, 28.19e6, 28.15e6, 28.13e6]
    for stage, target in zip((1, 2, 3, 4), targets):
        cfg = make_config("tiny", num_classes=400, use_neck=False, stacking_stage=stage)
        assert pct(count_flops(cfg).params, target) <= 0.02, stage


# ---------------------------------------------------------------------------
# FLOP accounting

@pytest.mark.parametrize("variant,frames,grid,target", [
    ("tiny", 9, (3, 3), 40.9e9),
    ("small", 9, (3, 3), 79.0e9),
    ("base", 9, (3, 3), 139.2e9),
    ("small", 16, (4, 4), 140.4e9),
])
def test_flop_counts_match_reference_within_5pct(variant, frames, grid, target):
    cfg = make_config(variant, num_classes=400, grid=grid)
    rep = count_flops(cfg, frames=frames, input_size=(224, 224))
    assert pct(rep.flops_per_view, target) <= 0.05


def test_flops_breakdown_formula_invariant():
    cfg = make_config("tiny", num_classes=400)
    for layer in count_flops(cfg).breakdown:
        if layer.kind == "conv":
            kh, kw = layer.kernel
            expect = (layer.items * layer.cout * layer.out_hw[0] * layer.out_hw[1] *
                      (layer.cin // layer.groups) * kh * kw)
            assert layer.macs == expect, layer.name


def test_flops_halving_input_quarters_every_conv():
    # 448 -> 224 keeps every downsampled extent integral, so the scaling is exact
    cfg = make_config("tiny", num_classes=400)
    full = {l.name: l.macs for l in count_flops(cfg, input_size=(448, 448)).breakdown
            if l.kind == "conv"}
    half = {l.name: l.macs for l in count_flops(cfg, input_size=(224, 224)).breakdown
            if l.kind == "conv"}
    assert full.keys() == half.keys()
    for name in full:
        if name == "head":
            continue
        assert full[name] == 4 * half[name], name


TOY_BRANCHES = {
    "default": {},
    "neckless": dict(use_neck=False),
    "stack-none": dict(stacking_stage=None),
    "stack-1": dict(stacking_stage=1),
    "stack-3": dict(stacking_stage=3),
    "stack-4": dict(stacking_stage=4),
    "per-frame": dict(stacking_stage=None, use_temporal_branch=False, use_neck=False),
    "grid-2x2": dict(grid=(2, 2)),
    "grid-4x4": dict(grid=(4, 4)),
    "no-branch": dict(use_temporal_branch=False),
}


@pytest.mark.parametrize("branch", list(TOY_BRANCHES))
def test_plan_matches_the_running_model(monkeypatch, branch):
    cfg = make_config("toy", num_classes=4, input_size=(64, 64), **TOY_BRANCHES[branch])
    model = build_model(cfg, 0)
    macs = []
    conv2d, linear = T.conv2d, T.linear

    def counting_conv2d(x, weight, bias, spec):
        y = conv2d(x, weight, bias, spec)
        macs.append(y.size * (weight.size // weight.shape[0]))
        return y

    def counting_linear(x, weight, bias):
        macs.append(x.shape[0] * weight.size)
        return linear(x, weight, bias)

    monkeypatch.setattr(T, "conv2d", counting_conv2d)
    monkeypatch.setattr(T, "linear", counting_linear)
    clips = rng(23).random((2 * cfg.frames, 3, 64, 64), dtype=np.float32)
    model.forward(clips, training=False)
    assert sum(macs) == 2 * count_flops(cfg).flops_per_view
    assert count_flops(cfg).params == num_weights(model)


@pytest.mark.parametrize("variant,params,macs,elt_flops,rows", [
    ("tiny", 44_736_112, 40_881_240_576, 124_411_392, 145),
    ("base", 107_450_384, 139_134_752_768, 265_079_808, 289),
])
def test_plan_totals_pinned_and_drawn_without_weights(variant, params, macs, elt_flops, rows):
    tracemalloc.start()
    try:
        rep = count_flops(make_config(variant, num_classes=400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.params, rep.flops_per_view, rep.elt_flops, len(rep.breakdown)) == \
        (params, macs, elt_flops, rows)
    assert rep.breakdown[-1].name == "head"
    assert peak < 10 * 2**20  # the weights of a base build take ~430 MB


@pytest.mark.parametrize("overrides", [{}, dict(stacking_stage=None, use_temporal_branch=False,
                                                 use_neck=False)],
                         ids=["default", "no-grid"])
def test_plan_rejects_a_clip_length_the_model_cannot_run(overrides):
    # forward takes only whole 9-frame clips, so a 4-frame plan describes no run
    cfg = make_config("toy", input_size=(64, 64), **overrides)
    for plan in (plan_layers, count_flops):
        with pytest.raises(ConfigError, match="9-frame clips, not 4"):
            plan(cfg, frames=4)
    assert count_flops(cfg, frames=9).flops_per_view == count_flops(cfg).flops_per_view


def test_cost_report_totals_and_formats():
    rep = count_flops(make_config("toy", num_classes=4, input_size=(64, 64)))
    assert rep.elt_flops > 0  # norm/act work tracked separately from the headline


# ---------------------------------------------------------------------------
# shuffle permutation mechanics

def test_order_permutation_forms():
    np.testing.assert_array_equal(order_permutation("normal", 5), np.arange(5))
    np.testing.assert_array_equal(order_permutation("reverse", 5), np.arange(5)[::-1])
    p = order_permutation("random", 9, np.random.default_rng(0))
    assert sorted(p.tolist()) == list(range(9))
    np.testing.assert_array_equal(order_permutation([2, 0, 1], 3), [2, 0, 1])
    with pytest.raises(ConfigError):
        order_permutation([0, 0, 1], 3)
    with pytest.raises(ConfigError):
        order_permutation("sideways", 3)


def _shuffle_setup(**overrides):
    model = build_model(make_config("toy", num_classes=8, input_size=(64, 64), **overrides), 0)
    return model, SyntheticDataset.generate("motion-direction", 8, root_seed=3)


def test_shuffle_eval_per_frame_model_ignores_frame_order():
    model, ds = _shuffle_setup(stacking_stage=None, use_temporal_branch=False, use_neck=False)
    acc = shuffle_eval(model, ds, seed=4).accuracies
    assert list(acc) == ["normal", "reverse", "random"]
    assert acc["reverse"] == acc["normal"] and acc["random"] == acc["normal"]


def test_shuffle_eval_normal_order_is_plain_eval():
    model, ds = _shuffle_setup()
    acc = shuffle_eval(model, ds, orders="normal", seed=4).accuracies
    res = evaluate_multiview(model, ds, rng=np.random.default_rng(5))
    assert acc == {"normal": {"top1": res["top1"], "top5": res["top5"]}}


def test_shuffle_eval_keeps_every_explicit_order():
    model, ds = _shuffle_setup()
    acc = shuffle_eval(model, ds, orders=(np.arange(9)[::-1], np.roll(np.arange(9), 1), "reverse"),
                       seed=4).accuracies
    assert list(acc) == ["explicit:8,7,6,5,4,3,2,1,0", "explicit:8,0,1,2,3,4,5,6,7", "reverse"]
    assert acc["explicit:8,7,6,5,4,3,2,1,0"] == acc["reverse"]


@pytest.mark.parametrize("order", [[8, 7, 6, 5, 4, 3, 2, 1, 0], tuple(range(8, -1, -1))],
                         ids=["list", "tuple"])
def test_shuffle_eval_takes_one_explicit_order_as_a_flat_sequence(order):
    model, ds = _shuffle_setup()
    acc = shuffle_eval(model, ds, orders=order, seed=4).accuracies
    mixed = shuffle_eval(model, ds, orders=[order, "reverse"], seed=4).accuracies
    assert list(acc) == ["explicit:8,7,6,5,4,3,2,1,0"]
    assert list(mixed) == ["explicit:8,7,6,5,4,3,2,1,0", "reverse"]
    assert acc["explicit:8,7,6,5,4,3,2,1,0"] == mixed["reverse"]


@pytest.mark.parametrize("wiring", ["collage", "per-frame"])
def test_collage_model_learns_frame_order_where_a_per_frame_model_cannot(wiring):
    # The paper's claim at 32x32: toy trained on temporal-order, 512 videos
    # for 3 epochs with TrainConfig's defaults, validated on 64. Reversal
    # flips this task's label, so a model that reads frame order gets
    # reversed clips wrong; the per-frame model with no neck (frame_mean of
    # per-frame features) cannot read it. Seeds 0-19 read top-1 0.938-1.000
    # and 0.000-0.094 reversed for the collage model, and 0.453-0.563 for
    # the per-frame one, the same reversed on every seed; each run takes
    # about 4 s (2-vCPU VM). With 256 videos seed 17's collage model stayed
    # at 0.500 and seed 12's read 0.703.
    per_frame = dict(stacking_stage=None, use_temporal_branch=False, use_neck=False)
    model = build_model(make_config("toy", num_classes=2, input_size=(32, 32),
                                    **(per_frame if wiring == "per-frame" else {})), 0)
    train_ds = SyntheticDataset.generate("temporal-order", 512, size=(32, 32), root_seed=0)
    val_ds = SyntheticDataset.generate("temporal-order", 64, size=(32, 32), root_seed=1)
    train(model, train_ds, val_ds, TrainConfig(epochs=3), root_seed=0)
    acc = shuffle_eval(model, val_ds, orders=("normal", "reverse"), seed=0).accuracies
    top1, reversed_top1 = acc["normal"]["top1"], acc["reverse"]["top1"]
    if wiring == "collage":
        assert top1 >= 0.85 and reversed_top1 <= 0.2, acc
    else:
        assert abs(top1 - 0.5) <= 0.15 and reversed_top1 == top1, acc


# ---------------------------------------------------------------------------
# CAM

def test_cam_single_channel_proportional_to_activation():
    acts = np.zeros((1, 3, 4, 4), dtype=np.float32)
    acts[0, 1] = rng(1).random((4, 4)).astype(np.float32)
    grads = np.zeros_like(acts)
    grads[0, 1] = 1.0  # only channel 1 carries class evidence
    cam = cam_from_capture(acts, grads)
    np.testing.assert_allclose(cam[0], acts[0, 1], atol=1e-6)


def test_cam_invariant_to_positive_activation_rescaling():
    r = rng(2)
    acts = r.random((1, 4, 5, 5)).astype(np.float32)
    grads = r.standard_normal((1, 4, 5, 5)).astype(np.float32)
    from vidconv.analysis import _normalize_cam
    a = _normalize_cam(cam_from_capture(acts, grads))
    b = _normalize_cam(cam_from_capture(3.7 * acts, grads))
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_compute_cam_contract_on_toy_model():
    model = build_model(make_config("toy", num_classes=3, input_size=(64, 64)), 0)
    clip = rng(3).random((9, 3, 64, 64)).astype(np.float32)
    cam = compute_cam(model, clip, class_index=1)
    assert cam.shape == (9, 2, 2)  # stage-4 tiles at 64px input
    assert cam.min() >= 0.0 and cam.max() <= 1.0
    assert cam.max() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        compute_cam(model, clip, class_index=7)


# ---------------------------------------------------------------------------
# ablation row structure

def test_temporal_branch_suite_rows():
    base = make_config("toy", num_classes=2, input_size=(64, 64))
    rows = ablation_rows("temporal_branch", base)
    assert len(rows) == 4
    combos = [(cfg.use_temporal_branch, cfg.stacking_stage) for _, cfg, _ in rows]
    assert combos == [(False, None), (False, 2), (True, None), (True, 2)]


def test_stacking_stage_suite_rows():
    base = make_config("toy", num_classes=2, input_size=(64, 64))
    rows = ablation_rows("stacking_stage", base)
    assert [cfg.stacking_stage for _, cfg, _ in rows] == [1, 2, 3, 4]


def test_grid_suite_rows():
    base = make_config("toy", num_classes=2, input_size=(64, 64), grid=(3, 3))
    rows = ablation_rows("grid_resolution", base)
    assert len(rows) == 4
    assert rows[0][1].stacking_stage is None and rows[0][1].frames == 9
    assert rows[1][1].grid == (2, 2) and rows[1][1].frames == 4 and rows[1][2] == 2
    assert rows[2][1].grid == (3, 3) and rows[2][1].frames == 9
    assert rows[3][1].grid == (4, 4) and rows[3][1].frames == 16
    with pytest.raises(ConfigError):
        ablation_rows("bogus", base)


def test_run_ablation_stacking_stage_rows_at_toy_scale():
    # one epoch on 4 videos: the rows' shape and cost, not their accuracy
    base = make_config("toy", num_classes=2, input_size=(64, 64))
    tr = SyntheticDataset.generate("temporal-order", 4, root_seed=0)
    va = SyntheticDataset.generate("temporal-order", 4, root_seed=1)
    rows = run_ablation("stacking_stage", base, tr, va, TrainConfig(epochs=1, batch_size=4))
    expected = ablation_rows("stacking_stage", base)
    assert [row["variant"] for row in rows] == [label for label, _, _ in expected]
    for row, (_, cfg, _) in zip(rows, expected):
        cost = count_flops(cfg)
        assert (row["params"], row["flops"]) == (cost.params, cost.flops_per_view)
        assert 0 <= row["top1"] <= 1 and 0 <= row["top5"] <= 1


@pytest.mark.parametrize("train_frames,val_frames", [(9, 9), (16, 9)])
def test_run_ablation_checks_clip_lengths_before_training(monkeypatch, train_frames, val_frames):
    def no_training(*args, **kwargs):
        raise AssertionError("a row trained")

    monkeypatch.setattr(analysis, "train", no_training)
    base = make_config("toy", num_classes=2, input_size=(64, 64))
    tr = SyntheticDataset.generate("temporal-order", 4, num_frames=train_frames)
    va = SyntheticDataset.generate("temporal-order", 4, num_frames=val_frames)
    with pytest.raises(ConfigError, match="frames=16 needs 16-frame videos"):
        run_ablation("grid_resolution", base, tr, va, TrainConfig(epochs=1, batch_size=4))
