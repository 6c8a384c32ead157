"""Central finite-difference checks for every differentiable op (64-bit mode)."""
import math

import numpy as np
import pytest

from vidconv import tensor as T
from vidconv.model import ModelConfig, build_model
from conftest import check_gradients, rng

REL_TOL = 1e-4


def randn(r, shape):
    return r.standard_normal(shape)


@pytest.mark.parametrize("seed,shape", [(0, (1, 2, 5, 5)), (1, (2, 3, 6, 4)), (2, (1, 4, 4, 7))])
def test_conv2d_dense_gradients(seed, shape):
    # shape is (N, Cin, Ho, Wo); each dense geometry the model runs reads an
    # input that it tiles onto that output grid.
    n, cin, ho, wo = shape
    specs = [T.ConvSpec(kernel=(1, 1)),
             T.ConvSpec(kernel=(4, 4), stride=(4, 4)),
             T.ConvSpec(kernel=(2, 2), stride=(2, 2)),
             T.ConvSpec(kernel=(3, 3), dilation=(ho, wo)),
             T.ConvSpec(kernel=(2, 3), dilation=(ho, wo))]
    r = rng(seed)
    for spec in specs:
        kh, kw = spec.kernel
        arrays = {
            "x": randn(r, (n, cin, kh * ho, kw * wo)),
            "w": randn(r, (3, cin, kh, kw)) * 0.5,
            "b": randn(r, (3,)),
        }

        def build(t):
            return T.sum_all(T.mul(y := T.conv2d(t["x"], t["w"], t["b"], spec), y))

        check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_conv2d_depthwise_dilated_gradients(seed):
    r = rng(seed)
    arrays = {
        "x": randn(r, (1, 3, 9, 9)),
        "w": randn(r, (3, 1, 3, 3)) * 0.5,
        "b": randn(r, (3,)),
    }
    spec = T.ConvSpec(kernel=(3, 3), dilation=(3, 3), groups=3)

    def build(t):
        y = T.conv2d(t["x"], t["w"], t["b"], spec)
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [6, 7])
def test_conv2d_strided_gradients(seed):
    r = rng(seed)
    arrays = {"x": randn(r, (2, 2, 8, 8)), "w": randn(r, (4, 2, 2, 2)) * 0.5,
              "b": randn(r, (4,))}
    spec = T.ConvSpec(kernel=(2, 2), stride=(2, 2))

    def build(t):
        y = T.conv2d(t["x"], t["w"], t["b"], spec)
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


def test_conv2d_depthwise_nonsquare_dilated_padded_gradients():
    # two frames: the kernel interleaves their rows in its channel-major copy
    r = rng(17)
    arrays = {"x": randn(r, (2, 3, 7, 8)), "w": randn(r, (3, 1, 3, 5)), "b": randn(r, (3,))}
    spec = T.ConvSpec(kernel=(3, 5), dilation=(2, 1), padding=(1, 2), groups=3)

    def build(t):
        y = T.conv2d(t["x"], t["w"], t["b"], spec)
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("kernel,dilation,padding,shape", [
    ((7, 7), (1, 1), (3, 3), (1, 2, 8, 8)),  # the block's spatial depth-wise conv
    ((3, 3), (3, 2), (0, 0), (1, 3, 9, 6)),  # temporal branch: dilation = tile
])
def test_conv2d_depthwise_block_geometry_gradients(kernel, dilation, padding, shape):
    r = rng(19)
    c = shape[1]
    arrays = {"x": randn(r, shape), "w": randn(r, (c, 1) + kernel) * 0.3, "b": randn(r, (c,))}
    spec = T.ConvSpec(kernel=kernel, dilation=dilation, padding=padding, groups=c)

    def build(t):
        y = T.conv2d(t["x"], t["w"], t["b"], spec)
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed,shape", [(0, (1, 4, 2, 2)), (1, (2, 3, 3, 2)), (2, (1, 6, 1, 4))])
def test_layer_norm_gradients(seed, shape):
    r = rng(seed + 30)
    arrays = {"x": randn(r, shape), "g": 1.0 + 0.2 * randn(r, (shape[1],)),
              "b": 0.1 * randn(r, (shape[1],))}

    def build(t):
        y = T.layer_norm_channels(t["x"], t["g"], t["b"], eps=1e-6)
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gelu_gradients(seed):
    r = rng(seed + 40)
    arrays = {"x": 2.0 * randn(r, (17,))}

    def build(t):
        y = T.gelu(t["x"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed,shape", [(0, (2, 3, 4, 4)), (1, (1, 5, 2, 3)), (2, (3, 1, 6, 2))])
def test_global_avg_pool_gradients(seed, shape):
    r = rng(seed + 50)
    arrays = {"x": randn(r, shape)}

    def build(t):
        y = T.global_avg_pool(t["x"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_gradients(seed):
    r = rng(seed + 60)
    arrays = {"x": randn(r, (3, 5)), "w": randn(r, (4, 5)), "b": randn(r, (4,))}

    def build(t):
        y = T.linear(t["x"], t["w"], t["b"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_entropy_gradients(seed):
    r = rng(seed + 70)
    labels = np.array([0, 2, 1])
    arrays = {"z": randn(r, (3, 4))}

    def build(t):
        loss, _ = T.softmax_cross_entropy(t["z"], labels)
        return loss

    check_gradients(build, arrays, rel_tol=REL_TOL)


def test_scale_channels_gradients():
    r = rng(80)
    arrays = {"x": randn(r, (2, 3, 4, 4)), "a": randn(r, (3,))}

    def build(t):
        y = T.scale_channels(t["x"], t["a"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


def test_composite_chain_gradients():
    # patchify conv -> norm -> gelu -> pool -> loss on a 1x2x8x8 input, all leaves checked
    r = rng(99)
    arrays = {
        "x": randn(r, (1, 2, 8, 8)),
        "cw": randn(r, (3, 2, 2, 2)) * 0.4,
        "cb": 0.1 * randn(r, (3,)),
        "g": 1.0 + 0.1 * randn(r, (3,)),
        "b": 0.1 * randn(r, (3,)),
        "hw": randn(r, (2, 3)) * 0.5,
        "hb": 0.1 * randn(r, (2,)),
    }
    labels = np.array([1])

    def build(t):
        y = T.conv2d(t["x"], t["cw"], t["cb"], T.ConvSpec(kernel=(2, 2), stride=(2, 2)))
        y = T.layer_norm_channels(y, t["g"], t["b"])
        y = T.gelu(y)
        y = T.global_avg_pool(y)
        y = T.linear(y, t["hw"], t["hb"])
        loss, _ = T.softmax_cross_entropy(y, labels)
        return loss

    check_gradients(build, arrays, rel_tol=REL_TOL)



@pytest.mark.parametrize("shape,tiles", [
    ((5, 3, 2, 2), [(2, 3, 2, 2), (2, 3, 2, 2), (1, 3, 2, 2)]),  # runs of whole items
    ((2, 3, 5, 3), [(1, 3, 2, 3), (1, 3, 2, 3), (1, 3, 1, 3)] * 2),  # bands of rows
], ids=["item-runs", "row-bands"])
def test_pointwise_mlp_gradients(monkeypatch, shape, tiles):
    # _BLOCK = 24 makes tiles of 8 positions on 3 channels: 2x2 items run two
    # at a time, 5x3 items split into bands of 2 rows, and the last run or
    # band of each is short.
    monkeypatch.setattr(T, "_BLOCK", 24)
    n, c, h, w = shape
    assert [np.empty(shape)[t].shape for t in T._position_tiles(n, c, h, w)] == tiles
    k = 4 * c
    r = rng(90)
    arrays = {"x": randn(r, shape), "g": 1.0 + 0.2 * randn(r, (c,)), "b": 0.1 * randn(r, (c,)),
              "w1": 0.5 * randn(r, (k, c, 1, 1)), "b1": 0.3 * randn(r, (k,)),
              "w2": 0.5 * randn(r, (c, k, 1, 1)), "b2": 0.3 * randn(r, (c,)),
              "s": 1.0 + 0.3 * randn(r, (c,))}

    def build(t):
        y = T.pointwise_mlp(t["x"], t["g"], t["b"], t["w1"], t["b1"], t["w2"], t["b2"], t["s"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)


@pytest.mark.parametrize("shape,block,tiles", [
    ((2, 6, 3, 3), 24, [(2, 6, 3, 3)]),  # a 2-item collage: the whole map is one tile
    ((5, 6, 2, 2), 3, [(2, 6, 2, 2), (2, 6, 2, 2), (1, 6, 2, 2)]),  # runs of whole items
    ((2, 6, 3, 3), 3, [(1, 6, 2, 3), (1, 6, 1, 3)] * 2),  # bands of rows
], ids=["one-tile", "item-runs", "row-bands"])
def test_pointwise_mlp_lean_gradients(monkeypatch, shape, block, tiles):
    # A _BLOCK of 24 or 3 floats holds fewer positions than the 6 channels,
    # so backward takes the lean schedule (the collaged blocks' one) over the
    # forward's tiles, 64 blocks of the 24-channel hidden map each; with
    # more than one tile, the weight gradients are added tile by tile.
    monkeypatch.setattr(T, "_BLOCK", block)
    n, c, h, w = shape
    k = 4 * c
    assert [np.empty(shape)[t].shape for t in T._position_tiles(n, k, h, w, T._LLC_BLOCKS)] == tiles
    r = rng(91)
    arrays = {"x": randn(r, shape), "g": 1.0 + 0.2 * randn(r, (c,)), "b": 0.1 * randn(r, (c,)),
              "w1": 0.5 * randn(r, (k, c, 1, 1)), "b1": 0.3 * randn(r, (k,)),
              "w2": 0.5 * randn(r, (c, k, 1, 1)), "b2": 0.3 * randn(r, (c,)),
              "s": 1.0 + 0.3 * randn(r, (c,))}

    def build(t):
        y = T.pointwise_mlp(t["x"], t["g"], t["b"], t["w1"], t["b1"], t["w2"], t["b2"], t["s"])
        return T.sum_all(T.mul(y, y))

    check_gradients(build, arrays, rel_tol=REL_TOL)
    # backward rebuilds pw1 (the one GEMM with a bias) once per forward tile
    y = build({name: T.Tensor(a, requires_grad=True) for name, a in arrays.items()})
    pw1, gemm_parts = [], T._gemm_parts

    def spy(a, b, out, bias=None):
        if bias is not None:
            pw1.append(b.shape)
        gemm_parts(a, b, out, bias)

    monkeypatch.setattr(T, "_gemm_parts", spy)
    T.backward(y)
    assert pw1 == [(1, c, math.prod(tile) // c) for tile in tiles]


# Wirings of the whole network: the collage point, the per-frame path that
# ends in frame_mean (no stacking, no neck), and the neck.
WHOLE_MODEL_WIRINGS = {
    "default": {},
    "stack-none": dict(stacking_stage=None),
    "stack-1": dict(stacking_stage=1),
    "neckless": dict(use_neck=False),
    "neckless-stack-none": dict(use_neck=False, stacking_stage=None),
}


@pytest.mark.parametrize("wiring", sorted(WHOLE_MODEL_WIRINGS))
def test_whole_model_gradients(wiring):
    # VidConvModel.forward end to end in float64: collage, tile_grid, the
    # temporal branch, frame_mean, the neck and the head, and their wiring.
    # The weights are moved off the near-identity init (layer scale 1e-6,
    # alpha 1e-2), so every block's branch reaches the loss; three entries of
    # each parameter are checked by central differences. The stem's layer
    # norm over 2 channels is close to singular, so the differences' own
    # O(h^2) error reached 1.3e-4 at h = 1e-6; at 1e-7 it is below 1e-5.
    cfg = ModelConfig(channels=(2, 3, 4, 5), blocks=(1, 1, 1, 1), grid=(2, 2), head_width=6,
                      num_classes=3, input_size=(32, 32), **WHOLE_MODEL_WIRINGS[wiring])
    model = build_model(cfg, 0)
    r = rng(21)
    params = model.parameters()
    for p in params.values():
        p.data = p.data.astype(np.float64) + 0.3 * r.standard_normal(p.shape)
    clips = T.Tensor(r.standard_normal((2 * cfg.frames, 3, 32, 32)))
    labels = np.array([0, 2])

    def loss_of(training):
        logits = model.forward(clips, training=training)
        return T.softmax_cross_entropy(logits, labels)[0]

    T.backward(loss_of(True))
    h, worst = 1e-7, {}
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        flat, g = p.data.reshape(-1), p.grad.reshape(-1)
        for k in r.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + h
            fp = loss_of(False).item()
            flat[k] = old - h
            fm = loss_of(False).item()
            flat[k] = old
            fd = (fp - fm) / (2 * h)
            err = abs(fd - g[k]) / max(1e-3, abs(fd) + abs(g[k]))
            worst[name] = max(worst.get(name, 0.0), err)
    bad = {name: err for name, err in worst.items() if err > REL_TOL}
    assert not bad, f"{wiring}: finite differences disagree with backward: {bad}"


def test_whole_model_gradients_through_one_item_lean_tiles(monkeypatch):
    # A _BLOCK of 4 floats holds fewer positions than the 3 to 5 channels of
    # stages 2-4, so their blocks' backward takes the lean schedule over the
    # forward's tiles, of 256 floats of hidden map each: one item apiece.
    # With drop path off, each block's add hands its one gradient to both
    # the residual and pointwise_mlp.
    monkeypatch.setattr(T, "_BLOCK", 4)
    test_whole_model_gradients("default")
