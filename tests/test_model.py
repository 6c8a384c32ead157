"""Collage movement, temporal branch, block fusion, and whole-model behavior."""
import io
import json
import weakref
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from vidconv import tensor as T
from vidconv.errors import ConfigError, NumericsError, ShapeError
from vidconv.model import (ModelConfig, _tile_spec, _uncollage_arr, build_model, collage,
                           config_from_dict, config_to_dict, frame_mean, make_config, tile_grid,
                           trunc_normal, uncollage)
from conftest import check_gradients, conv2d_loops, rng


def toy_config(**kw):
    base = dict(num_classes=2, input_size=(64, 64), drop_path_rate=0.0)
    base.update(kw)
    return make_config("toy", **base)


# ---------------------------------------------------------------------------
# collage / uncollage

def test_collage_placement_row_major():
    # L=9, grid 3x3, tiles 28x28: frame 4 pixel (5, 6) lands at (33, 34)
    frames = np.zeros((9, 1, 28, 28), dtype=np.float32)
    frames[4, 0, 5, 6] = 1.0
    out = collage(T.Tensor(frames), (3, 3))
    assert out.shape == (1, 1, 84, 84)
    assert out.data[0, 0, 33, 34] == 1.0
    assert out.data.sum() == 1.0


def test_collage_identity_1x1():
    x = rng(0).standard_normal((3, 2, 8, 8)).astype(np.float32)
    out = collage(T.Tensor(x), (1, 1))
    np.testing.assert_array_equal(out.data, x)
    back = uncollage(T.Tensor(x), (1, 1))
    np.testing.assert_array_equal(back.data, x)


def test_collage_round_trips_bit_exact():
    grid = (4, 4)
    x = rng(1).standard_normal((16 * 2, 3, 5, 7)).astype(np.float32)
    t = T.Tensor(x)
    rt = uncollage(collage(t, grid), grid)
    assert np.array_equal(rt.data, x)
    y = rng(2).standard_normal((2, 3, 20, 28)).astype(np.float32)
    rt2 = collage(uncollage(T.Tensor(y), grid), grid)
    assert np.array_equal(rt2.data, y)


def test_collage_rejects_partial_clips():
    with pytest.raises(ShapeError):
        collage(T.Tensor(np.zeros((7, 1, 4, 4), np.float32)), (3, 3))


def test_collage_gradient_is_inverse_scatter():
    x = T.Tensor(rng(3).standard_normal((4, 2, 3, 3)).astype(np.float32), requires_grad=True)
    y = collage(x, (2, 2))
    T.backward(T.sum_all(T.mul(y, y)))
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


# ---------------------------------------------------------------------------
# temporal dilated conv

def temporal_conv(x, w, grid):
    """The temporal branch's conv: depth-wise, kernel = grid, dilation = tile."""
    bias = T.Tensor(np.zeros(x.shape[1], dtype=x.dtype))
    return T.conv2d(x, w, bias, _tile_spec(x.shape[2:], grid, groups=x.shape[1]))


def test_temporal_conv_output_is_tile_size():
    x = T.Tensor(rng(4).standard_normal((2, 5, 84, 84)).astype(np.float32))
    w = T.Tensor(rng(5).standard_normal((5, 1, 3, 3)).astype(np.float32))
    out = temporal_conv(x, w, (3, 3))
    assert out.shape == (2, 5, 28, 28)


def test_temporal_conv_delta_kernel_selects_center_tile():
    frames = rng(6).standard_normal((9, 4, 6, 6)).astype(np.float32)
    coll = collage(T.Tensor(frames), (3, 3))
    w = np.zeros((4, 1, 3, 3), dtype=np.float32)
    w[:, 0, 1, 1] = 1.0
    out = temporal_conv(coll, T.Tensor(w), (3, 3))
    np.testing.assert_array_equal(out.data, frames[4][None])


def test_temporal_conv_matches_gather_oracle():
    r = rng(7)
    x = r.standard_normal((1, 3, 12, 12)).astype(np.float32)
    w = r.standard_normal((3, 1, 3, 3)).astype(np.float32)
    out = temporal_conv(T.Tensor(x), T.Tensor(w), (3, 3)).data
    ht, wt = 4, 4
    ref = np.zeros_like(out)
    for c in range(3):
        for y in range(ht):
            for xo in range(wt):
                acc = 0.0
                for i in range(3):
                    for j in range(3):
                        acc += w[c, 0, i, j] * x[0, c, y + i * ht, xo + j * wt]
                ref[0, c, y, xo] = acc
    np.testing.assert_allclose(out, ref, atol=1e-6)


def test_temporal_conv_rejects_indivisible_extents():
    x = T.Tensor(np.zeros((1, 2, 10, 9), np.float32))
    w = T.Tensor(np.zeros((2, 1, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        temporal_conv(x, w, (3, 3))


def _tile_grid_inputs(collaged, dtype):
    # a (2-clip, 3-channel) grid 3x2 of 4x5 tiles, as a collage or as frames
    r = rng(8)
    coll = r.standard_normal((2, 3, 12, 10)).astype(dtype)
    s = coll if collaged else _uncollage_arr(coll, 3, 2)
    return s, r.standard_normal((2, 3, 4, 5)).astype(dtype), 0.5 + r.random(3).astype(dtype)


def test_tile_grid_all_cells_identical():
    # the broadcast add equals adding a tiled copy of alpha * t, bit for bit
    for collaged in (True, False):
        s, t, a = _tile_grid_inputs(collaged, np.float32)
        at = T.scale_channels(T.Tensor(t), T.Tensor(a))
        out = tile_grid(T.Tensor(s), at, (3, 2), collaged).data
        tiled = np.tile(at.data, (1, 1, 3, 2))
        assert np.array_equal(out, s + (tiled if collaged else _uncollage_arr(tiled, 3, 2)))


def test_tile_and_frame_mean_gradients():
    for collaged in (True, False):
        s, t, a = _tile_grid_inputs(collaged, np.float64)
        w = rng(9).standard_normal(s.shape)

        def build(v):
            y = tile_grid(v["s"], T.scale_channels(v["t"], v["a"]), (3, 2), collaged)
            return T.sum_all(T.mul_const(y, w))

        check_gradients(build, {"s": s, "t": t, "a": a})
    f = T.Tensor(rng(10).standard_normal((6, 4)), requires_grad=True)
    T.backward(T.sum_all(frame_mean(f, 3)))
    np.testing.assert_allclose(f.grad, np.full((6, 4), 1.0 / 3.0))


# ---------------------------------------------------------------------------
# block behavior

def _copy_shared_weights(src, dst):
    """Copy every parameter that exists under the same name in both models."""
    sp, dp = src.parameters(), dst.parameters()
    for name, p in dp.items():
        if name in sp:
            p.data = sp[name].data.copy()


def test_block_alpha_zero_equals_plain_block_bitwise():
    cfg_plain = toy_config(use_temporal_branch=False, use_neck=False)
    cfg_temp = toy_config(use_neck=False)
    plain = build_model(cfg_plain, seed_or_zero := 0)
    temp = build_model(cfg_temp, 1)
    _copy_shared_weights(plain, temp)
    for name, p in temp.parameters().items():
        if name.endswith("temporal.alpha"):
            p.data = np.zeros_like(p.data)
    clip = rng(10).random((9, 3, 64, 64)).astype(np.float32)
    a = plain.forward(clip, training=False).data
    b = temp.forward(clip, training=False).data
    assert np.array_equal(a, b)


def test_block_fusion_affine_in_alpha():
    cfg = toy_config(use_neck=False)
    model = build_model(cfg, 2)
    block = model.layers[2].blocks[0]  # first stage-3 block carries the temporal branch
    x = T.Tensor(rng(11).standard_normal((1, 32, 12, 12)).astype(np.float32))
    base_alpha = block.alpha.data.copy()

    def fusion(scale):
        block.alpha.data = base_alpha * scale
        return block.fuse(x, collaged=True).data

    f0, f1, f2 = fusion(0.0), fusion(1.0), fusion(2.0)
    block.alpha.data = base_alpha
    s = block.dw(x).data
    assert np.array_equal(f0, s)  # alpha=0 reduces the fusion to the spatial path
    np.testing.assert_allclose(f2 - f0, 2 * (f1 - f0), atol=1e-5)


@pytest.mark.parametrize("collaged", [True, False], ids=["collage", "frames"])
def test_block_matches_straightline_reference(collaged):
    # full block on a 1x32x12x12 collage (grid 2x2), or on its four 6x6
    # frames, vs raw-numpy composition
    cfg = make_config("toy", num_classes=2, input_size=(64, 64), grid=(2, 2), drop_path_rate=0.0)
    model = build_model(cfg, 3)
    block = model.layers[2].blocks[0]
    c = 32
    x = rng(12).standard_normal((1, c, 12, 12)).astype(np.float32)
    inp = x if collaged else _uncollage_arr(x, 2, 2)

    out = block(T.Tensor(inp), collaged=collaged, training=False, rng=None).data

    s = conv2d_loops(inp, block.dw.weight.data, block.dw.bias.data,
                     padding=(3, 3), groups=c)
    ht, wt = 6, 6
    t = np.zeros((1, c, ht, wt))
    for ci in range(c):
        for y in range(ht):
            for xo in range(wt):
                acc = block.temporal_b.data[ci]
                for i in range(2):
                    for j in range(2):
                        acc += block.temporal_weight.data[ci, 0, i, j] * x[0, ci, y + i * ht, xo + j * wt]
                t[0, ci, y, xo] = acc
    tiled = np.tile(t, (1, 1, 2, 2))
    if not collaged:
        tiled = _uncollage_arr(tiled, 2, 2)
    f = s + block.alpha.data[None, :, None, None] * tiled
    mu = f.mean(axis=1, keepdims=True)
    xc = f - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    xhat = xc / np.sqrt(var + 1e-6)
    y = block.norm.gamma.data[None, :, None, None] * xhat + block.norm.beta.data[None, :, None, None]
    y = np.einsum("oc,nchw->nohw", block.pw1.weight.data[:, :, 0, 0], y) + \
        block.pw1.bias.data[None, :, None, None]
    u = np.sqrt(2 / np.pi) * (y + 0.044715 * y ** 3)
    y = 0.5 * y * (1 + np.tanh(u))
    y = np.einsum("oc,nchw->nohw", block.pw2.weight.data[:, :, 0, 0], y) + \
        block.pw2.bias.data[None, :, None, None]
    y = block.layer_scale.data[None, :, None, None] * y
    ref = inp + y
    np.testing.assert_allclose(out, ref, atol=1e-5)


def test_vidconv_block_composed_gradients():
    # finite differences through the whole fusion + MLP + residual in 64-bit
    r = rng(13)
    c, grid = 4, (2, 2)
    arrays = {
        "x": r.standard_normal((1, c, 8, 8)),
        "dw_w": r.standard_normal((c, 1, 7, 7)) * 0.2,
        "dw_b": 0.1 * r.standard_normal(c),
        "t_w": r.standard_normal((c, 1, 2, 2)) * 0.3,
        "t_b": 0.1 * r.standard_normal(c),
        "alpha": 0.5 * r.standard_normal(c),
        "g": 1.0 + 0.1 * r.standard_normal(c),
        "b": 0.1 * r.standard_normal(c),
        "pw1": r.standard_normal((4 * c, c, 1, 1)) * 0.3,
        "pw1b": 0.1 * r.standard_normal(4 * c),
        "pw2": r.standard_normal((c, 4 * c, 1, 1)) * 0.3,
        "pw2b": 0.1 * r.standard_normal(c),
        "ls": 0.5 + 0.1 * r.standard_normal(c),
    }

    def build(t):
        s = T.conv2d(t["x"], t["dw_w"], t["dw_b"],
                     T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=c))
        tt = T.conv2d(t["x"], t["t_w"], t["t_b"], _tile_spec((8, 8), grid, groups=c))
        f = tile_grid(s, T.scale_channels(tt, t["alpha"]), grid, True)
        y = T.layer_norm_channels(f, t["g"], t["b"])
        y = T.conv2d(y, t["pw1"], t["pw1b"], T.ConvSpec(kernel=(1, 1)))
        y = T.gelu(y)
        y = T.conv2d(y, t["pw2"], t["pw2b"], T.ConvSpec(kernel=(1, 1)))
        y = T.scale_channels(y, t["ls"])
        out = T.add(t["x"], y)
        return T.sum_all(T.mul(out, out))

    check_gradients(build, arrays, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# whole model

def test_forward_shape_trace_toy():
    model = build_model(toy_config(), 0)
    clip = rng(14).random((9, 3, 64, 64)).astype(np.float32)
    caps = {"stage2": None, "stage3": None, "stage4": None}
    logits = model.forward(clip, capture=caps)
    assert caps["stage2"].shape == (1, 16, 24, 24)   # collage of 9 8x8 tiles
    assert caps["stage3"].shape == (1, 32, 12, 12)
    assert caps["stage4"].shape == (1, 64, 6, 6)
    assert logits.shape == (1, 2)


def test_forward_eval_deterministic():
    model = build_model(toy_config(), 1)
    clip = rng(15).random((9, 3, 64, 64)).astype(np.float32)
    a = model.forward(clip, training=False).data
    b = model.forward(clip, training=False).data
    assert np.array_equal(a, b)


def test_perframe_model_permutation_invariant():
    cfg = toy_config(stacking_stage=None, use_temporal_branch=False, use_neck=False)
    model = build_model(cfg, 2)
    clip = rng(16).random((9, 3, 64, 64)).astype(np.float32)
    base = model.forward(clip, training=False).data
    perm = rng(17).permutation(9)
    shuffled = model.forward(clip[perm], training=False).data
    np.testing.assert_allclose(base, shuffled, atol=1e-5)


def test_collage_model_not_permutation_invariant():
    model = build_model(toy_config(), 3)
    clip = rng(18).random((9, 3, 64, 64)).astype(np.float32)
    base = model.forward(clip, training=False).data
    shuffled = model.forward(clip[::-1].copy(), training=False).data
    assert not np.allclose(base, shuffled, atol=1e-4)


def test_boundary_pixel_influences_adjacent_tile():
    # 7x7 spatial convs on the collage mix across tile borders by design
    model = build_model(toy_config(use_neck=False), 4)
    clip = rng(19).random((9, 3, 64, 64)).astype(np.float32)
    caps = {"stage3": None}
    model.forward(clip, capture=caps)
    base = caps["stage3"].data.copy()
    pert = clip.copy()
    pert[0, :, 32, 63] += 0.5  # right edge of frame 0
    caps2 = {"stage3": None}
    model.forward(pert, capture=caps2)
    diff = np.abs(caps2["stage3"].data - base)[0].sum(axis=0)  # (12, 12) collage
    tile = 4  # stage-3 tile size at 64px input
    assert diff[:tile, tile:2 * tile].sum() > 0  # adjacent tile (frame 1) changed


def _assert_training_reaches_every_parameter(model, clip):
    logits = model.forward(clip, training=True, rng=np.random.default_rng(0))
    loss, _ = T.softmax_cross_entropy(logits, np.array([0, 1]))
    T.backward(loss)
    dead = [name for name, p in model.parameters().items()
            if p.grad is None or not np.any(p.grad != 0)]
    assert not dead, f"parameters with zero gradient: {dead}"


def test_gradient_reaches_every_parameter():
    model = build_model(toy_config(use_neck=True), 5)
    clip = rng(20).random((2 * 9, 3, 64, 64)).astype(np.float32)
    _assert_training_reaches_every_parameter(model, clip)


def test_every_parameter_gradient_is_c_contiguous():
    # adamw_step reads a gradient through a flat view; a transposed one costs a full copy
    model = build_model(toy_config(use_neck=True), 5)
    clip = rng(20).random((2 * 9, 3, 64, 64)).astype(np.float32)
    _assert_training_reaches_every_parameter(model, clip)
    strided = [name for name, p in model.parameters().items() if not p.grad.flags.c_contiguous]
    assert not strided, f"gradients that are not C-contiguous: {strided}"


def test_only_training_or_capture_forwards_record_a_tape():
    model = build_model(toy_config(), 8)
    clip = rng(22).random((9, 3, 64, 64)).astype(np.float32)
    logits = model.forward(clip, training=False)
    assert not logits.requires_grad and logits._node is None
    with pytest.raises(ValueError):
        T.backward(T.sum_all(logits))
    captured = model.forward(clip, training=False, capture={})
    assert captured.requires_grad and captured._node.parents
    trained = model.forward(clip, training=True, rng=np.random.default_rng(0))
    assert trained.requires_grad and trained._node.parents
    # the in-place ops of the untaped forward give the taped forward's numbers
    assert np.array_equal(logits.data, captured.data)


def test_block_tape_keeps_no_output_that_no_backward_reads(monkeypatch):
    # The dw output feeds tile_grid and the drop-path output feeds the
    # residual add: neither's backward reads it, so a taped block must not
    # keep them once it returns. tile_grid's output is pointwise_mlp's fused
    # map, the one C map its tape keeps: its data lives on, not its tensor.
    from vidconv import model as M
    block = build_model(toy_config(), 6).layers[2].blocks[0]  # with the temporal branch
    monkeypatch.setattr(block, "drop_prob", 0.5)
    dw_weight, refs = block.dw.weight, {}

    def keep(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs[name] = (weakref.ref(out), weakref.ref(out.data))
            return out
        return wrapper

    monkeypatch.setattr(block, "dw", keep("dw", block.dw))
    monkeypatch.setattr(M, "tile_grid", keep("tile_grid", M.tile_grid))
    monkeypatch.setattr(M, "drop_path", keep("drop_path", M.drop_path))
    x = T.Tensor(rng(13).standard_normal((2, 32, 12, 12)).astype(np.float32), requires_grad=True)
    y = block(x, collaged=True, training=True, rng=np.random.default_rng(1))
    alive = {name: [r() is not None for r in pair] for name, pair in refs.items()}
    assert alive == {"drop_path": [False, False], "dw": [False, False],
                     "tile_grid": [False, True]}, f"alive (tensor, data): {alive}"
    T.backward(T.sum_all(y))
    assert x.grad is not None and dw_weight.grad is not None


# An eval block runs the same pointwise_mlp untaped; what that holds at its
# peak is test_tensor's test_untaped_pointwise_mlp_peaks_below_the_five_ops.
@pytest.mark.parametrize("training", [True], ids=["training"])
def test_block_frees_the_fused_map_before_pw1(monkeypatch, training):
    # A training block calls no pw1: it runs its pointwise half as
    # pointwise_mlp, whose tape keeps the fused map (tile_grid's output),
    # and nothing else of it.
    from vidconv import model as M
    block = build_model(toy_config(), 6).layers[2].blocks[0]  # with the temporal branch
    tile, pw1, pointwise_mlp = M.tile_grid, block.pw1, T.pointwise_mlp
    fused, alive_at_pw1, ops = [], [], []

    def spy_tile_grid(*args):
        out = tile(*args)
        fused.append((weakref.ref(out), weakref.ref(out.data)))
        return out

    def spy_pw1(y):
        alive_at_pw1.append([r() is not None for pair in fused for r in pair])
        return pw1(y)

    spy_pw1.weight, spy_pw1.bias = pw1.weight, pw1.bias  # what a training block reads of pw1

    def spy_pointwise_mlp(f, *args, **kwargs):
        out = pointwise_mlp(f, *args, **kwargs)
        ops.append((f.data is fused[-1][1](), out._node))
        return out

    monkeypatch.setattr(M, "tile_grid", spy_tile_grid)
    monkeypatch.setattr(block, "pw1", spy_pw1)
    monkeypatch.setattr(T, "pointwise_mlp", spy_pointwise_mlp)
    x = T.Tensor(rng(13).standard_normal((2, 32, 12, 12)).astype(np.float32),
                 requires_grad=training)
    with T.recording(training):  # as model.forward runs its layers
        y = block(x, collaged=True, training=training, rng=np.random.default_rng(1))
    assert y.requires_grad == training
    assert alive_at_pw1 == [] and len(ops) == 1
    reads_fused, node = ops[0]
    assert reads_fused and fused[0][0]() is None
    kept = [c.cell_contents for c in node.grad_fn.__closure__]
    assert sum(a is fused[0][1]() for a in kept) == 1


def test_pre_collage_block_tape_keeps_only_the_fused_map_and_its_stats(monkeypatch):
    # A training block before the collage point runs its pointwise half as
    # pointwise_mlp: one pass over the whole map, whose backward rebuilds
    # everything from the fused map and the norm's per-position mean and
    # inverse std, so no pw1, GELU or pw2 output outlives the block.
    from vidconv import model as M
    block = build_model(toy_config(), 6).layers[0].blocks[0]  # stage 1
    conv2d, gelu, pointwise_mlp = T.conv2d, T.gelu, T.pointwise_mlp
    pw_weights = (block.pw1.weight, block.pw2.weight)
    map_outs, ops = [], []

    def keep(fn):
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            if fn is gelu or any(args[0] is w for w in pw_weights):  # not the depth-wise conv's
                map_outs.append((out.shape, weakref.ref(out), weakref.ref(out.data)))
            return out
        return wrapper

    def spy_pointwise_mlp(f, *args, **kwargs):
        out = pointwise_mlp(f, *args, **kwargs)
        ops.append((f.data, out._node))
        return out

    monkeypatch.setattr(T, "conv2d", keep(conv2d))
    monkeypatch.setattr(T, "gelu", keep(gelu))
    monkeypatch.setattr(T, "pointwise_mlp", spy_pointwise_mlp)
    monkeypatch.setattr(block, "drop_prob", 0.5)
    x = T.Tensor(rng(13).standard_normal((4, 8, 16, 16)).astype(np.float32), requires_grad=True)
    with T.recording(True):  # as model.forward runs its layers
        y = block(x, collaged=False, training=True, rng=np.random.default_rng(1))
    assert len(ops) == 1 and len(map_outs) == 3  # pw1, GELU, pw2, each on the whole map
    assert [shape for shape, *_ in map_outs] == [(4, 32, 16, 16)] * 2 + [(4, 8, 16, 16)]
    alive = [i for i, (_, *refs) in enumerate(map_outs) if any(r() is not None for r in refs)]
    assert not alive, f"the tape keeps pointwise outputs {alive}"
    fused, node = ops[0]
    kept = [c.cell_contents for c in node.grad_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    maps = [a for a in kept if a.size > block.pw1.weight.size]  # the rest are parameter-sized
    assert len(maps) == 3 and sum(a is fused for a in maps) == 1
    assert sorted(a.shape for a in maps if a is not fused) == [(4, 1, 16, 16)] * 2
    T.backward(T.sum_all(T.mul(y, y)))
    assert x.grad is not None and block.pw1.weight.grad is not None


def _arrays_kept_by(grad_fn):
    """The distinct arrays a grad_fn keeps, also through the closures of the
    functions it keeps; no tensor may be among them."""
    arrays, fns, seen = {}, [grad_fn], set()
    while fns:
        fn = fns.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            v = cell.cell_contents
            assert not isinstance(v, T.Tensor), f"{fn.__qualname__} keeps a tensor"
            if isinstance(v, np.ndarray):
                arrays[id(v)] = v
            elif hasattr(v, "__closure__"):
                fns.append(v)
    return list(arrays.values())


@pytest.mark.parametrize("block_floats", [None, 512], ids=["block-tiles", "row-bands"])
def test_collaged_block_tape_keeps_only_the_fused_map_and_its_stats(monkeypatch, block_floats):
    # A collaged training block runs its pointwise half as pointwise_mlp too.
    # Its tape keeps the fused map and two (N, 1, H, W) stat maps; the rest
    # is parameter-sized. At the real _BLOCK backward walks the map as one
    # tile; with _BLOCK = 512, a tile of the 128-channel hidden map holds 64
    # positions, and backward walks bands of 5 rows of each item.
    from vidconv import model as M
    block = build_model(toy_config(), 6).layers[2].blocks[0]  # with the temporal branch
    if block_floats is not None:
        monkeypatch.setattr(T, "_BLOCK", block_floats)
    pointwise_mlp, tile, ops, fused = T.pointwise_mlp, M.tile_grid, [], []

    def spy_tile_grid(*args):
        out = tile(*args)
        fused.append(out.data)
        return out

    def spy_pointwise_mlp(f, *args, **kwargs):
        out = pointwise_mlp(f, *args, **kwargs)
        ops.append(out._node)
        return out

    monkeypatch.setattr(M, "tile_grid", spy_tile_grid)
    monkeypatch.setattr(T, "pointwise_mlp", spy_pointwise_mlp)
    monkeypatch.setattr(block, "drop_prob", 0.5)
    x = T.Tensor(rng(13).standard_normal((2, 32, 12, 12)).astype(np.float32), requires_grad=True)
    with T.recording(True):  # as model.forward runs its layers
        y = block(x, collaged=True, training=True, rng=np.random.default_rng(1))
    assert len(ops) == 1 and len(fused) == 1
    kept = _arrays_kept_by(ops[0].grad_fn)
    maps = [a for a in kept if a.shape[2:] == (12, 12)]
    assert len(maps) == 3 and sum(a is fused[0] for a in maps) == 1
    assert sorted(a.shape for a in maps if a is not fused[0]) == [(2, 1, 12, 12)] * 2
    largest = max(p.size for p in (block.pw1.weight, block.pw2.weight))
    assert all(a.size <= largest for a in kept if not any(a is m for m in maps))
    T.backward(T.sum_all(T.mul(y, y)))
    assert x.grad is not None and block.pw2.weight.grad is not None


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_nan_pw1_weight_before_the_collage_point_raises(training):
    model = build_model(toy_config(), 5)
    model.parameters()["stage1.block0.pw1.weight"].data[3, 2, 0, 0] = np.nan
    clip = rng(20).random((2 * 9, 3, 64, 64)).astype(np.float32)
    with pytest.raises(NumericsError, match="conv2d"):
        model.forward(clip, training=training, rng=np.random.default_rng(0))
    assert T._recording  # restored on the way out


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_gelu_writes_over_pw1_and_neck_norm_outputs(monkeypatch, training):
    # Nothing reads pw1's or the neck norm's output after GELU, so GELU's
    # output takes their buffers, and the numbers are those of a GELU that
    # allocates its output.
    model = build_model(toy_config(), 7)
    params = model.parameters()
    pw1_weights = {id(p) for n, p in params.items() if n.endswith(".pw1.weight")}
    clip = rng(23).random((2 * 9, 3, 64, 64)).astype(np.float32)
    conv2d, gelu = T.conv2d, T.gelu

    def run(gelu_fn):
        monkeypatch.setattr(T, "gelu", gelu_fn)
        logits = model.forward(clip, training=training, rng=np.random.default_rng(0))
        grads = {}
        if training:
            T.backward(T.sum_all(T.mul(logits, logits)))
            grads = {n: p.grad for n, p in params.items()}
            model.zero_grad()
        return logits.data, grads

    pw1_out, gelu_io = [], []

    def spy_conv2d(x, weight, bias, spec):
        y = conv2d(x, weight, bias, spec)
        if id(weight) in pw1_weights:
            pw1_out.append(y.data)
        return y

    def spy_gelu(x, **kwargs):
        y = gelu(x, **kwargs)
        gelu_io.append((x.data, y.data))
        return y

    monkeypatch.setattr(T, "conv2d", spy_conv2d)
    logits, grads = run(spy_gelu)
    assert len(pw1_out) == len(pw1_weights) == 5 and len(gelu_io) == 6  # 5 blocks, then the neck
    for h, (x, y) in zip(pw1_out, gelu_io):
        assert x is h and np.shares_memory(y, h)
    assert np.shares_memory(*gelu_io[-1])
    ref_logits, ref_grads = run(lambda x, **kwargs: gelu(x))
    assert np.array_equal(logits, ref_logits)
    assert grads.keys() == ref_grads.keys()
    assert all(g is not None for g in grads.values())
    assert all(np.array_equal(grads[n], ref_grads[n]) for n in grads)


def test_backward_hands_gradients_to_the_root_and_captured_stages():
    model = build_model(toy_config(), 8)
    clip = rng(22).random((2 * 9, 3, 64, 64)).astype(np.float32)
    caps = {"stage2": None, "stage4": None}
    logits = model.forward(clip, training=True, rng=np.random.default_rng(0), capture=caps)
    loss, probs = T.softmax_cross_entropy(logits, np.array([0, 1]))
    T.backward(loss)
    assert loss.grad == 1.0
    np.testing.assert_allclose(logits.grad, (probs - np.eye(2)[[0, 1]]) / 2, atol=1e-6)
    for name, t in caps.items():
        assert t.grad is not None and t.grad.shape == t.shape, name
        assert np.any(t.grad != 0), name


def test_failed_eval_forward_restores_recording():
    model = build_model(toy_config(use_neck=True), 5)
    clip = rng(20).random((2 * 9, 3, 64, 64)).astype(np.float32)
    weight = model.parameters()["stage3.block0.dw.weight"]
    saved = weight.data.copy()
    weight.data[0, 0, 3, 3] = np.nan
    with pytest.raises(NumericsError):  # the finite check runs without a tape
        model.forward(clip, training=False)
    weight.data = saved
    _assert_training_reaches_every_parameter(model, clip)


@pytest.mark.parametrize("shape", [(3, T._BLOCK + 5), (5, 7)], ids=["chunks", "one-chunk"])
def test_trunc_normal_equals_one_shot_draw(shape):
    ours, oracle = np.random.default_rng(9), np.random.default_rng(9)
    std = 0.02
    expect = np.clip(oracle.standard_normal(shape) * std, -2 * std, 2 * std).astype(np.float32)
    got = trunc_normal(ours, shape, std)
    assert got.dtype == np.float32 and got.shape == shape
    assert np.array_equal(got, expect)
    assert np.array_equal(ours.standard_normal(4), oracle.standard_normal(4))


def test_temporal_params_only_after_stacking_stage():
    model = build_model(toy_config(use_neck=False), 6)
    names = model.parameters().keys()
    assert not any(n.startswith(("stage1.", "stage2.")) and ".temporal" in n for n in names)
    assert any(n.startswith("stage3.") and n.endswith("temporal.alpha") for n in names)
    assert any(n.startswith("stage4.") and n.endswith("temporal.alpha") for n in names)


def test_stacking_none_with_branch_keeps_later_net_temporal():
    cfg = toy_config(stacking_stage=None, use_neck=False)
    model = build_model(cfg, 7)
    names = model.parameters().keys()
    assert any(n.startswith("stage3.") and ".temporal" in n for n in names)
    clip = rng(21).random((9, 3, 64, 64)).astype(np.float32)
    assert model.forward(clip).shape == (1, 2)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        make_config("tiny", num_classes=400, grid=(0, 3))
    with pytest.raises(ConfigError):
        make_config("tiny", num_classes=400, input_size=(100, 224))
    with pytest.raises(ConfigError):
        make_config("nope")
    with pytest.raises(ConfigError):
        ModelConfig(stacking_stage=5, num_classes=10)


@pytest.mark.parametrize("overrides", [{}, dict(stacking_stage=None, use_neck=False),
                                       dict(grid=(2, 2))],
                         ids=["default", "unstacked-neckless", "grid2x2"])
def test_config_round_trips_through_json(overrides):
    cfg = make_config("toy", **overrides)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_model(toy_config(), 8)
    path = str(tmp_path / "ckpt" / "m")
    model.save_checkpoint(path, meta={"epoch": 3})
    clone = build_model(toy_config(), 99)
    meta = clone.load_checkpoint(path)
    assert meta["epoch"] == 3
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, clone.parameters()[name].data), name
    clip = rng(22).random((9, 3, 64, 64)).astype(np.float32)
    assert np.array_equal(model.forward(clip).data, clone.forward(clip).data)


def test_checkpoint_shape_mismatch_names_offender(tmp_path):
    model = build_model(toy_config(), 9)
    path = str(tmp_path / "m")
    model.save_checkpoint(path)
    other = build_model(toy_config(num_classes=4), 9)
    with pytest.raises(ConfigError, match="head.weight"):
        other.load_checkpoint(path)


def _load_rejected(path, match, **config):
    """Load ``path`` into a fresh model: it raises ConfigError and leaves every
    weight bit-identical."""
    model = build_model(toy_config(**config), 30)
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    with pytest.raises(ConfigError, match=match):
        model.load_checkpoint(path)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, before[name]), name


@pytest.mark.parametrize("delta", [-4, -1, 3])
def test_checkpoint_blob_of_wrong_length_rejected(tmp_path, delta):
    # A cut archive loses zip's end record. Zip readers ignore bytes past that
    # record, and every entry is still CRC-checked, so 3 appended bytes load.
    model = build_model(toy_config(), 10)
    path = str(tmp_path / "m")
    model.save_checkpoint(path)
    blob = (tmp_path / "m.npz").read_bytes()
    (tmp_path / "m.npz").write_bytes(blob[:delta] if delta < 0 else blob + b"\0" * delta)
    if delta < 0:
        _load_rejected(path, "not a checkpoint")
        return
    clone = build_model(toy_config(), 11)
    clone.load_checkpoint(path)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, clone.parameters()[name].data), name


@pytest.mark.parametrize("damage", ["weight-bit", "npy-header", "compression-method",
                                    "directory-offset"])
def test_checkpoint_damaged_byte_rejected(tmp_path, damage):
    model = build_model(toy_config(), 12)
    model.save_checkpoint(str(tmp_path / "m"))
    blob = bytearray((tmp_path / "m.npz").read_bytes())
    if damage == "weight-bit":
        # one low mantissa bit: the weight stays finite, only the CRC-32 sees it
        weight = model.parameters()["head.weight"].data.tobytes()
        at = blob.find(weight)
        assert at > 0 and blob.find(weight, at + 1) < 0
        blob[at + len(weight) // 2] ^= 1
        match = "CRC-32"
    elif damage == "npy-header":
        # an unclosed brace in the .npy header of the largest entry, which zip
        # reads in more than one piece: numpy raises tokenize.TokenError for it
        with zipfile.ZipFile(tmp_path / "m.npz") as zf:
            at = zf.getinfo("neck.conv.weight.npy").header_offset
        blob[blob.find(b", }", at) + 2] = ord(" ")
        match = "not a checkpoint"
    elif damage == "compression-method":
        # the central directory's compression method of the first entry
        at = blob.find(b"PK\x01\x02") + 10
        blob[at:at + 2] = (99).to_bytes(2, "little")
        match = "compression method"
    else:
        # the top byte of the end record's directory offset: zipfile then seeks
        # to a negative position
        blob[-3] ^= 0xFF
        match = "not a checkpoint"
    (tmp_path / "m.npz").write_bytes(bytes(blob))
    _load_rejected(str(tmp_path / "m"), match)


@pytest.mark.parametrize("foreign", ["empty", "json-list", "binary", "npy-array"])
def test_checkpoint_foreign_manifest_rejected(tmp_path, foreign):
    # a file that is no archive at all
    npy = io.BytesIO()
    np.save(npy, np.zeros(3, dtype=np.float32))
    (tmp_path / "m.npz").write_bytes({"empty": b"", "json-list": b"[1, 2, 3]",
                                      "binary": b"\x89PNG\r\n\x1a\n",
                                      "npy-array": npy.getvalue()}[foreign])
    _load_rejected(str(tmp_path / "m"), "not a checkpoint")


_MALFORMED = {"no-entries": "missing parameters", "duplicate-name": "uniquely named",
              "no-meta": "JSON object", "meta-json-list": "JSON object",
              "object-entry": "Object arrays", "float64-entry": "stored float64",
              "no-config": "fields of ModelConfig", "config-list": "fields of ModelConfig",
              "config-field-missing": "fields of ModelConfig",
              "config-field-added": "fields of ModelConfig",
              "config-bad-value": "invalid model config", "config-bad-type": "invalid model config"}


@pytest.mark.parametrize("fault", list(_MALFORMED))
def test_checkpoint_malformed_manifest_rejected(tmp_path, fault):
    # a well-formed archive whose entries are not a checkpoint's
    model = build_model(toy_config(), 18)
    model.save_checkpoint(str(tmp_path / "m"))
    with np.load(tmp_path / "m.npz") as npz:
        entries = {name: npz[name] for name in npz.files}
    first = next(iter(model.parameters()))
    if fault == "no-entries":
        entries = {"meta": entries["meta"]}
    elif fault == "no-meta":
        del entries["meta"]
    elif fault == "meta-json-list":
        entries["meta"] = np.array("[1, 2, 3]")
    elif fault == "object-entry":
        entries[first] = entries[first].astype(object)
    elif fault == "float64-entry":
        entries[first] = entries[first].astype(np.float64)
    elif fault.startswith(("no-config", "config-")):
        meta = json.loads(str(entries["meta"]))
        config = meta["config"]
        if fault == "no-config":
            del meta["config"]
        elif fault == "config-list":
            meta["config"] = list(config.values())
        elif fault == "config-field-missing":
            del config["stacking_stage"]
        elif fault == "config-field-added":
            config["frames"] = 9
        elif fault == "config-bad-value":
            config["grid"] = [0, 3]
        else:
            config["channels"] = 8
        entries["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "m.npz", **entries)
    if fault == "duplicate-name":
        buf = io.BytesIO()
        np.lib.format.write_array(buf, entries[first])
        with zipfile.ZipFile(tmp_path / "m.npz", "a") as zf, \
                pytest.warns(UserWarning, match="Duplicate name"):
            zf.writestr(f"{first}.npy", buf.getvalue())
    _load_rejected(str(tmp_path / "m"), _MALFORMED[fault])


@pytest.mark.parametrize("saved,loaded,match", [
    (dict(use_neck=False), {}, "lacks|missing"),
    (dict(stacking_stage=1), dict(stacking_stage=2), "lacks|missing"),
    (dict(stacking_stage=2), dict(stacking_stage=None),
     r"wired differently in \['stacking_stage'\]"),
], ids=["neckless-into-neck", "stack1-into-stack2", "stack2-into-unstacked"])
def test_rejected_checkpoint_leaves_weights_unchanged(tmp_path, saved, loaded, match):
    # The stage-1 stack has 3 temporal entries that the stage-2 stack lacks.
    # Stacking at stage 2 or not at all gives the same names and shapes, but
    # not the same forward.
    build_model(toy_config(**saved), 19).save_checkpoint(str(tmp_path / "m"))
    _load_rejected(str(tmp_path / "m"), match, **loaded)


def test_checkpoint_loads_across_preset_name_drop_path_and_input_size(tmp_path):
    model = build_model(toy_config(), 20)
    model.save_checkpoint(str(tmp_path / "m"))
    other = replace(toy_config(), variant="custom", drop_path_rate=0.3, input_size=(96, 128))
    clone = build_model(other, 21)
    clone.load_checkpoint(str(tmp_path / "m"))
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, clone.parameters()[name].data), name


def test_failed_checkpoint_save_keeps_previous_pair(tmp_path, monkeypatch):
    # A save that fails before writing (its meta does not serialise) or while
    # numpy writes the archive leaves the previous checkpoint as it was.
    model = build_model(toy_config(), 12)
    path = str(tmp_path / "best")
    model.save_checkpoint(path, meta={"epoch": 1})
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    with pytest.raises(TypeError):
        build_model(toy_config(), 13).save_checkpoint(path, meta={"epoch": object()})
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    write_array, written = np.lib.format.write_array, []

    def write_then_fail(*args, **kwargs):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(write_array(*args, **kwargs))

    with monkeypatch.context() as patch:
        patch.setattr(np.lib.format, "write_array", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            build_model(toy_config(), 13).save_checkpoint(path, meta={"epoch": 3})
    assert len(written) == 3
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    model.save_checkpoint(path, meta={"epoch": 2})
    assert sorted(f.name for f in tmp_path.iterdir()) == ["best.npz"]
    assert build_model(toy_config(), 14).load_checkpoint(path)["epoch"] == 2


def test_param_count_monotone_tiny_small_base():
    # instantiate only tiny; compare small/base symbolically in analysis tests
    model = build_model(make_config("tiny", num_classes=400), 0)
    assert sum(p.size for p in model.parameters().values()) == 44_736_112
