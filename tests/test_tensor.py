"""Forward-behavior tests for the tensor op set."""
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from vidconv import model as M
from vidconv import tensor as T
from vidconv.errors import NumericsError, ShapeError
from conftest import conv2d_loops, conv2d_loops_grads, rng


def make(shape, seed=0, dtype=np.float32, requires_grad=False):
    data = rng(seed).standard_normal(shape).astype(dtype)
    return T.Tensor(data, requires_grad=requires_grad)


def zero_bias(channels):
    return T.Tensor(np.zeros(channels, dtype=np.float32))


# ---------------------------------------------------------------------------
# Tensor basics

def test_tensor_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        T.Tensor(np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(ShapeError):
        T.Tensor(np.zeros((3, 0)))


def test_finite_check_flags_nan():
    x = make((2, 3), seed=1, requires_grad=True)
    bad = T.Tensor(np.array([np.inf, 1.0], dtype=np.float32))
    with pytest.raises(NumericsError):
        T.add(bad, T.Tensor(np.ones(2, dtype=np.float32)))
    _ = x


# sizes that straddle the unroll widths of BLAS dot kernels, and two larger ones
FINITE_SIZES = (1, 2, 3, 7, 15, 16, 17, 31, 32, 33, 4097, 65537)


@pytest.mark.parametrize("size", FINITE_SIZES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_finite_flags_each_bad_value_anywhere(dtype, size):
    a = rng(size).standard_normal(size).astype(dtype)
    assert T.all_finite(a)
    for bad in (np.nan, np.inf, -np.inf):
        for at in sorted({0, size // 2, size - 1}):
            b = a.copy()
            b[at] = bad
            assert not T.all_finite(b), (bad, at)
            assert not T.all_finite(b.reshape(1, size, 1)), (bad, at)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_finite_reads_a_strided_array_through_its_view(dtype):
    base = rng(3).standard_normal((33, 34)).astype(dtype)
    base[:, 1::2] = np.nan  # not in the view below
    view = base[:, ::2]
    assert not view.flags.c_contiguous
    assert T.all_finite(view)
    assert T.all_finite(view.T)
    for bad in (np.nan, np.inf, -np.inf):
        for at in ((0, 0), (16, 8), (32, 16)):
            b = base.copy()
            b[:, ::2][at] = bad
            assert not T.all_finite(b[:, ::2]), (bad, at)
            f = view.copy(order="F")  # F order: summed; its transpose is C order: dotted
            f[at] = bad
            assert not T.all_finite(f), (bad, at)
            assert not T.all_finite(f.T), (bad, at)


def test_all_finite_passes_values_whose_squares_overflow():
    # the fast sum of squares is Inf here; the exact pass must clear the array
    assert T.all_finite(np.full(4097, 1e20, dtype=np.float32))
    assert T.all_finite(np.full((3, 5), 1e200))
    assert T.all_finite(np.full((40, 30), 1e308)[:, ::3])  # float64 sum of a strided view
    assert T.all_finite(np.full(4097, -3e38, dtype=np.float32))


def test_all_finite_makes_no_array_sized_temporary():
    a = rng(4).standard_normal(1 << 20).astype(np.float32)
    tracemalloc.start()
    try:
        assert T.all_finite(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 16


def test_mixed_dtype_rejected():
    a = T.Tensor(np.ones(3, dtype=np.float32))
    b = T.Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(ShapeError):
        T.add(a, b)


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_identity_1x1():
    x = make((2, 3, 5, 5), seed=2)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    y = T.conv2d(x, T.Tensor(w), zero_bias(3), T.ConvSpec(kernel=(1, 1)))
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_temporal_shape_stage3_analog():
    # depthwise 3x3 with dilation (28, 28), no padding: 84 -> 28
    x = make((1, 192, 84, 84), seed=3)
    w = make((192, 1, 3, 3), seed=4)
    spec = T.ConvSpec(kernel=(3, 3), dilation=(28, 28), groups=192)
    y = T.conv2d(x, w, zero_bias(192), spec)
    assert y.shape == (1, 192, 28, 28)


# Dense geometries the model runs, each reading every input pixel once:
# (input shape, Cout, kernel, stride, dilation).
DENSE_GEOMETRIES = {
    "1x1": ((2, 3, 5, 4), 4, (1, 1), (1, 1), (1, 1)),
    "stem-4x4-s4": ((2, 3, 8, 12), 5, (4, 4), (4, 4), (1, 1)),
    "downsample-2x2-s2": ((1, 4, 6, 4), 6, (2, 2), (2, 2), (1, 1)),
    # neck: kernel = grid, dilation = tile, on an (h*Ht, w*Wt) collage
    "neck-3x3-grid": ((1, 3, 6, 9), 4, (3, 3), (1, 1), (2, 3)),
    "neck-2x3-grid": ((2, 2, 8, 9), 3, (2, 3), (1, 1), (4, 3)),
}


def _dense_vs_oracle(r, x_shape, cout, kernel, stride, dilation, atol):
    """Float64 forward (with bias) and both grads of a dense conv vs the loop oracle."""
    x = r.standard_normal(x_shape)
    w = r.standard_normal((cout, x_shape[1]) + kernel)
    b = r.standard_normal(cout)
    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    y = T.conv2d(xt, wt, T.Tensor(b), T.ConvSpec(kernel=kernel, stride=stride, dilation=dilation))
    ref = conv2d_loops(x, w, b, stride=stride, dilation=dilation)
    assert y.shape == ref.shape
    np.testing.assert_allclose(y.data, ref, atol=atol)
    g = r.standard_normal(y.shape)
    T.backward(T.sum_all(T.mul_const(y, g)))
    gx_ref, gw_ref = conv2d_loops_grads(x, w, g, stride=stride, dilation=dilation)
    np.testing.assert_allclose(xt.grad, gx_ref, atol=atol)
    np.testing.assert_allclose(wt.grad, gw_ref, atol=atol)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("groups", [1, 2])
def test_conv2d_matches_loop_oracle(seed, groups):
    r = rng(seed)
    if groups == 1:  # a dense conv must tile its input; run each geometry that does
        for x_shape, cout, kernel, stride, dilation in DENSE_GEOMETRIES.values():
            _dense_vs_oracle(r, x_shape, cout, kernel, stride, dilation, atol=1e-6)
        return
    x = r.standard_normal((1, 2, 5, 5)).astype(np.float32)
    w = r.standard_normal((2, 2 // groups, 3, 3)).astype(np.float32)
    b = r.standard_normal(2).astype(np.float32)
    y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b),
                 T.ConvSpec(kernel=(3, 3), padding=(1, 1), groups=groups))
    ref = conv2d_loops(x, w, b, padding=(1, 1), groups=groups)
    np.testing.assert_allclose(y.data, ref, atol=1e-6)


@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
@pytest.mark.parametrize("dilation", [(1, 1), (2, 3)])
def test_conv2d_strided_dilated_vs_oracle(stride, dilation):
    # The dense conv that tiles its input at this stride and dilation: kernel =
    # stride (1x1, patchify), or at stride 1 kernel = grid and dilation = tile
    # (the neck). No kernel tiles a strided dilated conv, so that one raises.
    r = rng(7)
    if stride != (1, 1) and dilation != (1, 1):
        with pytest.raises(ShapeError, match="tile"):
            T.conv2d(make((2, 3, 12, 12)), make((4, 3, 2, 2)), zero_bias(4),
                     T.ConvSpec(kernel=(2, 2), stride=stride, dilation=dilation))
        return
    kernel = stride if dilation == (1, 1) else (3, 2)
    out = (3, 4) if dilation == (1, 1) else dilation
    x_shape = (2, 3, kernel[0] * out[0], kernel[1] * out[1])
    _dense_vs_oracle(r, x_shape, 4, kernel, stride, dilation, atol=1e-5)


def test_conv2d_1x1_forward_copies_nothing(monkeypatch, pool):
    # The 1x1 im2col is a view of the input, so the GEMM reads it in place.
    # A large map's GEMM is split over tensor's thread pool by rows of the
    # weight, for all items at once: every part's GEMM reads x in place too.
    operands = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        operands.append(b)
        return matmul(a, b, *args, **kwargs)

    x = make((2, 8, 6, 5))
    monkeypatch.setattr(np, "matmul", spy)
    T.conv2d(x, make((4, 8, 1, 1), seed=1), zero_bias(4), T.ConvSpec(kernel=(1, 1)))
    assert len(operands) == 1 and np.shares_memory(operands[0], x.data)
    for shape in ((18, 96, 24, 24), (1, 192, 28, 28)):  # tiny's stage-1 and stage-2 maps
        x, c = make(shape), shape[1]
        operands.clear()
        T.conv2d(x, make((4 * c, c, 1, 1), seed=1), zero_bias(4 * c), T.ConvSpec(kernel=(1, 1)))
        assert len(operands) >= 2 and all(np.shares_memory(b, x.data) for b in operands), shape


def test_conv2d_depthwise_vs_oracle():
    r = rng(11)
    x = r.standard_normal((2, 4, 9, 9)).astype(np.float32)
    w = r.standard_normal((4, 1, 7, 7)).astype(np.float32)
    b = r.standard_normal(4).astype(np.float32)
    y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b),
                 T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=4))
    ref = conv2d_loops(x, w, b, padding=(3, 3), groups=4)
    np.testing.assert_allclose(y.data, ref, atol=1e-5)


# Depth-wise geometries, all at stride 1: (input shape, kernel, dilation, padding).
DEPTHWISE_GEOMETRIES = {
    "7x7-pad3": ((2, 3, 9, 10), (7, 7), (1, 1), (3, 3)),
    # temporal branch: kernel = (3, 3) grid, dilation = tile, on a 3Ht x 3Wt collage
    "temporal": ((1, 3, 12, 9), (3, 3), (4, 3), (0, 0)),
    "nonsquare-dilated-padded": ((2, 3, 11, 12), (3, 5), (2, 1), (1, 2)),
}


@pytest.mark.parametrize("geom", sorted(DEPTHWISE_GEOMETRIES))
def test_conv2d_depthwise_forward_backward_vs_oracle(geom):
    shape, kernel, dilation, padding = DEPTHWISE_GEOMETRIES[geom]
    c = shape[1]
    r = rng(13)
    x = r.standard_normal(shape)
    w = r.standard_normal((c, 1) + kernel)
    b = r.standard_normal(c)
    spec = T.ConvSpec(kernel=kernel, dilation=dilation, padding=padding, groups=c)
    ref = conv2d_loops(x, w, b, dilation=dilation, padding=padding, groups=c)

    y32 = T.conv2d(*(T.Tensor(a.astype(np.float32)) for a in (x, w, b)), spec)
    assert y32.shape == ref.shape
    np.testing.assert_allclose(y32.data, ref, atol=1e-5)

    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    y = T.conv2d(xt, wt, T.Tensor(b), spec)
    g = r.standard_normal(y.shape)
    T.backward(T.sum_all(T.mul_const(y, g)))
    gx_ref, gw_ref = conv2d_loops_grads(x, w, g, dilation=dilation, padding=padding, groups=c)
    np.testing.assert_allclose(xt.grad, gx_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(wt.grad, gw_ref, rtol=1e-10, atol=1e-10)


def test_conv2d_depthwise_memory_streams():
    # One 7x7 depth-wise forward plus backward holds a few input-sized arrays
    # (output, grads) and block-sized ones (channel-major copies, bands); a
    # window view contracted by einsum would materialize the 49x patch copy.
    x = make((2, 32, 56, 56), seed=14, requires_grad=True)
    w = make((32, 1, 7, 7), seed=15, requires_grad=True)
    spec = T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=32)
    tracemalloc.start()
    try:
        T.backward(T.sum_all(T.conv2d(x, w, zero_bias(32), spec)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * x.data.nbytes


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("geom", ["7x7-pad3", "temporal", "nonsquare-dilated-padded"])
def test_conv2d_depthwise_forward_holds_only_its_output(geom, taped):
    # Backward rebuilds the padded channel-major input from x, which the tape
    # holds anyway, so from forward to backward a depth-wise conv keeps its
    # output and small closures: no padded copy, and no channel-major buffer
    # left over from forward, taped or not.
    shape, kernel, dilation, padding = DEPTHWISE_GEOMETRIES[geom]
    n, c, h, w = (4 * shape[0], 32 * shape[1], 4 * shape[2], 4 * shape[3])
    x = make((n, c, h, w), seed=16, requires_grad=taped)
    wt = make((c, 1) + kernel, seed=17, requires_grad=taped)
    b = zero_bias(c)
    spec = T.ConvSpec(kernel=kernel, dilation=dilation, padding=padding, groups=c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = T.conv2d(x, wt, b, spec)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    out_bytes = y.data.nbytes
    assert y.requires_grad == taped
    assert held < 1.2 * out_bytes, (held, out_bytes)
    if taped:
        T.backward(T.sum_all(y))
        assert x.grad.shape == x.shape and wt.grad.shape == wt.shape


def test_conv2d_output_extent_formula_sweep():
    # At stride 1 a 1-channel conv runs on the depth-wise kernel. At stride 2 it goes
    # to the dense kernel, which raises: none of these geometries tiles its input.
    h = w = 90
    for k in (1, 3, 7):
        for s in (1, 2):
            for d in (1, 7, 28):
                for p in (0, 1, 3):
                    spec = T.ConvSpec(kernel=(k, k), stride=(s, s), dilation=(d, d),
                                      padding=(p, p))
                    expect = (h + 2 * p - d * (k - 1) - 1) // s + 1
                    assert spec.out_extent(h, 0) == spec.out_extent(w, 1) == expect
                    x = T.Tensor(np.zeros((1, 1, h, w), dtype=np.float32))
                    wt = T.Tensor(np.zeros((1, 1, k, k), dtype=np.float32))
                    if expect < 1 or s > 1:
                        with pytest.raises(ShapeError):
                            T.conv2d(x, wt, zero_bias(1), spec)
                    else:
                        y = T.conv2d(x, wt, zero_bias(1), spec)
                        assert y.shape == (1, 1, expect, expect), (k, s, d, p)


def test_conv2d_depthwise_never_mixes_channels():
    r = rng(5)
    x = r.standard_normal((1, 6, 10, 10)).astype(np.float32)
    w = r.standard_normal((6, 1, 3, 3)).astype(np.float32)
    spec = T.ConvSpec(kernel=(3, 3), padding=(1, 1), groups=6)
    base = T.conv2d(T.Tensor(x), T.Tensor(w), zero_bias(6), spec).data
    x2 = x.copy()
    x2[0, 2] += 1.0
    pert = T.conv2d(T.Tensor(x2), T.Tensor(w), zero_bias(6), spec).data
    delta = np.abs(pert - base).sum(axis=(0, 2, 3))
    assert delta[2] > 0
    assert np.all(delta[[0, 1, 3, 4, 5]] == 0)


def test_conv2d_group_divisibility_errors():
    x = make((1, 3, 4, 4))
    w = make((4, 1, 1, 1))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, zero_bias(4), T.ConvSpec(kernel=(1, 1), groups=2))


@pytest.mark.parametrize("w_shape,groups",
                         [((6, 2, 3, 3), 2), ((4, 2, 3, 3), 2), ((8, 1, 3, 3), 4)],
                         ids=["grouped", "grouped-square", "depth-multiplier"])
def test_conv2d_rejects_groupings_neither_dense_nor_depthwise(w_shape, groups):
    x = make((1, 4, 6, 6))
    with pytest.raises(ShapeError, match="depth-wise"):
        T.conv2d(x, make(w_shape), zero_bias(w_shape[0]),
                 T.ConvSpec(kernel=(3, 3), padding=(1, 1), groups=groups))


@pytest.mark.parametrize("x_shape,kernel,stride,dilation,padding", [
    ((1, 2, 5, 5), (3, 3), (1, 1), (1, 1), (1, 1)),
    ((2, 3, 11, 12), (3, 3), (2, 2), (2, 3), (2, 1)),
    ((1, 2, 6, 6), (3, 3), (1, 1), (1, 1), (0, 0)),
    ((1, 2, 6, 6), (2, 2), (1, 1), (1, 1), (0, 0)),
    ((1, 2, 5, 6), (2, 2), (2, 2), (1, 1), (0, 0)),
    ((1, 2, 4, 4), (2, 2), (2, 2), (1, 1), (1, 1)),
    ((1, 2, 9, 9), (3, 3), (1, 1), (2, 2), (0, 0)),
], ids=["3x3-pad1", "strided-dilated-padded", "3x3-overlapping", "2x2-stride1",
        "input-not-a-multiple", "padded-patchify", "dilation-not-tile"])
def test_conv2d_dense_rejects_geometries_that_do_not_tile(x_shape, kernel, stride, dilation,
                                                          padding):
    spec = T.ConvSpec(kernel=kernel, stride=stride, dilation=dilation, padding=padding)
    with pytest.raises(ShapeError, match="does not tile") as err:
        T.conv2d(make(x_shape), make((3, x_shape[1]) + kernel), zero_bias(3), spec)
    assert str(spec) in str(err.value)


@pytest.mark.parametrize("x_shape,kernel,stride,dilation,padding", [
    ((2, 3, 11, 12), (3, 5), (2, 3), (2, 1), (1, 2)),
    ((1, 3, 11, 11), (3, 3), (3, 3), (1, 1), (1, 0)),
    ((1, 3, 9, 9), (3, 3), (1, 2), (1, 1), (1, 1)),
], ids=["nonsquare-strided-dilated", "stride-not-dividing", "strided-in-one-axis"])
def test_conv2d_depthwise_rejects_strides(x_shape, kernel, stride, dilation, padding):
    c = x_shape[1]
    spec = T.ConvSpec(kernel=kernel, stride=stride, dilation=dilation, padding=padding, groups=c)
    with pytest.raises(ShapeError, match="depth-wise .* at stride 1") as err:
        T.conv2d(make(x_shape), make((c, 1) + kernel), zero_bias(c), spec)
    assert str(spec) in str(err.value)


def test_conv2d_purity_bit_identical():
    x = make((2, 8, 12, 12), seed=9)
    w = make((8, 1, 7, 7), seed=10)
    spec = T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=8)
    a = T.conv2d(x, w, zero_bias(8), spec).data
    b = T.conv2d(x, w, zero_bias(8), spec).data
    assert np.array_equal(a, b)


def test_conv2d_dense_on_a_no_grad_input_returns_no_input_gradient():
    # The stem's input is the clip: backward must not compute a gradient for it
    w, b = make((4, 3, 2, 2), seed=1, requires_grad=True), make((4,), seed=2, requires_grad=True)
    spec = T.ConvSpec(kernel=(2, 2), stride=(2, 2))
    g = rng(3).standard_normal((2, 4, 3, 3)).astype(np.float32)
    x = make((2, 3, 6, 6))
    gx, gw, gb = T.conv2d(x, w, b, spec)._grad_fn(g)
    assert gx is None
    ref = T.conv2d(T.Tensor(x.data, requires_grad=True), w, b, spec)._grad_fn(g)
    assert ref[0].shape == x.shape
    assert np.array_equal(gw, ref[1]) and np.array_equal(gb, ref[2])


# ---------------------------------------------------------------------------
# layer norm / gelu / pooling

def test_layer_norm_constant_input_gives_beta():
    x = T.Tensor(np.full((2, 4, 3, 3), 7.0, dtype=np.float32))
    gamma = T.Tensor(np.full(4, 2.0, dtype=np.float32))
    beta = T.Tensor(np.arange(4, dtype=np.float32))
    y = T.layer_norm_channels(x, gamma, beta, eps=1e-6)
    np.testing.assert_allclose(y.data, np.broadcast_to(beta.data[None, :, None, None], y.shape),
                               atol=1e-4)


def test_layer_norm_two_channel_symmetry():
    x = np.zeros((1, 2, 1, 1), dtype=np.float32)
    x[0, 0], x[0, 1] = 1.0, 3.0
    y = T.layer_norm_channels(T.Tensor(x), T.Tensor(np.ones(2, dtype=np.float32)),
                              T.Tensor(np.zeros(2, dtype=np.float32)), eps=1e-8)
    np.testing.assert_allclose(y.data[0, :, 0, 0], [-1.0, 1.0], atol=1e-3)


def test_layer_norm_channel_mismatch():
    with pytest.raises(ShapeError):
        T.layer_norm_channels(make((1, 4, 2, 2)), make((3,)), make((3,)))


def test_gelu_fixed_points_and_asymptotes():
    x = T.Tensor(np.array([0.0, 10.0, -10.0], dtype=np.float32))
    y = T.gelu(x)
    assert y.data[0] == 0.0
    assert abs(y.data[1] - 10.0) < 1e-3
    assert abs(y.data[2]) < 1e-3


def test_gelu_matches_erf_variant_closely():
    x = make((64,), seed=3)
    approx = T.gelu(x).data
    exact = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.data.tolist()]
    np.testing.assert_allclose(approx, exact, atol=2e-3)


def gelu_whole_array(x):
    """GELU with each pass over the whole array: the op order ``T.gelu`` keeps
    block by block. Returns the output and a function of the upstream grad."""
    u = x * x
    u *= x
    u *= T._GELU_A
    u += x
    u *= T._GELU_C
    th = np.tanh(u, out=u)
    y = th + 1.0
    y *= x
    y *= 0.5

    def grad(g):
        sech2 = 1.0 - th * th
        du = T._GELU_C * (1.0 + 3.0 * T._GELU_A * (x * x))
        d = 0.5 * (1.0 + th) + 0.5 * x * sech2 * du
        return d * g

    return y, grad


@pytest.mark.parametrize("mode", ["taped", "no-grad-input", "recording-off",
                                  "taped-overwrite", "no-grad-input-overwrite"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_blocks_equal_the_whole_array_chain(dtype, mode):
    shape = (2, 4, 8, 2 * T._BLOCK // 64 + 5)  # two full blocks and a short third
    x = (3.0 * rng(11).standard_normal(shape)).astype(dtype)
    g = rng(12).standard_normal(shape).astype(dtype)
    y_ref, grad_ref = gelu_whole_array(x.copy())
    overwrite = mode.endswith("-overwrite")
    if mode.startswith("taped"):
        t = T.Tensor(x, requires_grad=True)
        y = T.gelu(t, overwrite_x=overwrite)
        T.backward(T.sum_all(T.mul_const(y, g)))  # hands gelu's backward exactly g
        assert np.array_equal(t.grad, grad_ref(g))
    elif mode.startswith("no-grad-input"):
        y = T.gelu(T.Tensor(x), overwrite_x=overwrite)
    else:
        with T.recording(False):
            y = T.gelu(T.Tensor(x, requires_grad=True))
        assert not y.requires_grad
    assert y.dtype == dtype
    assert np.array_equal(y.data, y_ref)
    assert np.shares_memory(y.data, x) == overwrite


@pytest.mark.parametrize("layout", ["transposed", "read-only"])
def test_gelu_overwrite_allocates_when_it_cannot_write_over_x(layout):
    base = 3.0 * rng(13).standard_normal((4, 5, 6, 7)).astype(np.float32)
    before = base.copy()
    if layout == "transposed":
        x = base.transpose(0, 1, 3, 2)
    else:
        x = base.view()
        x.flags.writeable = False
    y = T.gelu(T.Tensor(x), overwrite_x=True)
    assert not np.shares_memory(y.data, base)
    assert np.array_equal(base, before)
    assert np.array_equal(y.data, gelu_whole_array(np.array(x))[0])


@pytest.mark.parametrize("untaped", ["no-grad-input", "recording-off"])
@pytest.mark.parametrize("op", ["gelu", "layer_norm", "pointwise_mlp"])
def test_untaped_ops_leave_input_unchanged(op, untaped):
    x = make((2, 5, 3, 4), seed=7)
    gamma, beta = make((5,), seed=8), make((5,), seed=9)
    mlp = _pointwise_params(5, 10, False)

    def run(t, **kw):
        if op == "gelu":
            return T.gelu(t).data
        if op == "pointwise_mlp":
            return T.pointwise_mlp(t, *(T.Tensor(p.data, **kw) for p in mlp)).data
        return T.layer_norm_channels(t, T.Tensor(gamma.data, **kw), T.Tensor(beta.data, **kw)).data

    taped = run(T.Tensor(x.data.copy(), requires_grad=True), requires_grad=True)
    before = x.data.copy()
    if untaped == "no-grad-input":
        y = run(x)
    else:
        x.requires_grad = True
        with T.recording(False):
            y = run(x, requires_grad=True)
    assert np.array_equal(x.data, before)
    assert np.array_equal(y, taped)


def test_gelu_tape_does_not_keep_its_input():
    # backward reads only dy/dx, so the input (here an op output that no
    # other backward reads) is freed once the caller lets go of it
    x = make((2, 3, 4, 5), seed=4, requires_grad=True)
    h = T.mul_const(x, np.float32(2.0))
    refs = (weakref.ref(h), weakref.ref(h.data))
    y = T.gelu(h)
    del h
    assert all(r() is None for r in refs)
    T.backward(T.sum_all(y))
    _, grad_ref = gelu_whole_array(2.0 * x.data)
    np.testing.assert_array_equal(x.grad, 2.0 * grad_ref(np.ones(x.shape, np.float32)))


def test_taped_gelu_on_non_finite_input_raises_numerics_error_not_a_warning():
    # At +inf dy/dx is inf * 0, and at -inf y is 0 * -inf: taped or not, and
    # writing over x or not, the finite check on y must report it, not a warning
    for bad in (np.inf, -np.inf, np.nan):
        for requires_grad in (True, False):
            for overwrite_x in (False, True):
                x = np.zeros((3, 4), dtype=np.float32)
                x[1, 1] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericsError, match="gelu"):
                        T.gelu(T.Tensor(x, requires_grad=requires_grad), overwrite_x=overwrite_x)


def _pointwise_params(c, seed, requires_grad):
    """gamma, beta, W1, b1, W2, b2 and the layer scale of a block on c channels,
    drawn off the init so that every branch reaches the output."""
    r = rng(seed)
    k = 4 * c
    arrays = (1.0 + 0.1 * r.standard_normal(c), 0.1 * r.standard_normal(c),
              0.1 * r.standard_normal((k, c, 1, 1)), 0.1 * r.standard_normal(k),
              0.05 * r.standard_normal((c, k, 1, 1)), 0.1 * r.standard_normal(c),
              0.5 + 0.1 * r.standard_normal(c))
    return [T.Tensor(a.astype(np.float32), requires_grad=requires_grad) for a in arrays]


def _pointwise_five_ops(f, gamma, beta, w1, b1, w2, b2, scale):
    one = T.ConvSpec(kernel=(1, 1))
    y = T.layer_norm_channels(f, gamma, beta, eps=1e-6)
    y = T.gelu(T.conv2d(y, w1, b1, one), overwrite_x=True)
    return T.scale_channels(T.conv2d(y, w2, b2, one), scale)


# tiny's stage-1 and stage-2 block maps: 2 clips at 96x96 (runs of whole
# items) and 1 clip at 224x224 (bands of rows)
TINY_PRE_COLLAGE_SHAPES = [(18, 96, 24, 24), (18, 192, 12, 12), (9, 96, 56, 56), (9, 192, 28, 28)]
# tiny's stage-3 and stage-4 collages of 2 clips at 96x96: a block of C map
# holds fewer positions than C, so backward takes the lean path
TINY_COLLAGED_SHAPES = [(2, 384, 18, 18), (2, 768, 9, 9)]


def test_untaped_pointwise_mlp_peaks_below_the_five_ops():
    # An eval block runs pointwise_mlp untaped on tiny's stage-1 map of one
    # 224x224 clip. The five ops hold the norm's output beside pw1's, and
    # pw1's (GELU writes over it) beside pw2's and the layer scale's.
    # pointwise_mlp frees the norm's output once pw1 has read it and scales
    # pw2's output in place: one C map less at its peak (52.0 against 62.1
    # MiB above the input on a 2-vCPU Xeon VM).
    f = make((9, 96, 56, 56), seed=1)
    params = _pointwise_params(96, 2, False)
    peaks, outs = [], []
    for run in (_pointwise_five_ops, T.pointwise_mlp):
        tracemalloc.start()
        try:
            outs.append(run(f, *params).data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    five, fused = peaks
    print(f"peak above the input, MiB: five ops {five / 2**20:.1f}, pointwise_mlp {fused / 2**20:.1f}")
    assert fused < 5.2 * f.data.nbytes and fused + 0.9 * f.data.nbytes < five
    assert np.array_equal(*outs)


@pytest.mark.parametrize("taped", [False, True], ids=["eval", "training"])
@pytest.mark.parametrize("shape", TINY_PRE_COLLAGE_SHAPES + TINY_COLLAGED_SHAPES,
                         ids=lambda s: "x".join(map(str, s)))
def test_pointwise_mlp_equals_the_five_ops(shape, taped):
    # Bit for bit in the forward. The gradients sum over tiles or in one GEMM,
    # and take the layer scale through W2 or on g, so they agree to float32
    # rounding only.
    f = make(shape, seed=1, requires_grad=taped)
    params = _pointwise_params(shape[1], 2, taped)
    ref, got = _pointwise_five_ops(f, *params), T.pointwise_mlp(f, *params)
    assert got.requires_grad == taped
    assert np.array_equal(got.data, ref.data)
    if not taped:
        return
    g = rng(3).standard_normal(shape).astype(np.float32)
    grads = []
    for y in (ref, got):
        T.backward(T.sum_all(T.mul_const(y, g)))
        grads.append([t.grad for t in (f, *params)])
        for t in (f, *params):
            t.grad = None
    worst = max(float(np.abs(a - b).max() / np.abs(a).max()) for a, b in zip(*grads))
    print(f"pointwise_mlp {shape}: largest gradient difference {worst:.2e} of the largest entry")
    assert worst < 1e-5


def test_pointwise_mlp_checks_shapes():
    f = make((2, 3, 4, 4))
    params = _pointwise_params(3, 4, False)
    with pytest.raises(ShapeError, match="w2"):
        T.pointwise_mlp(f, *params[:4], T.Tensor(np.zeros((3, 6, 1, 1), np.float32)), *params[5:])
    with pytest.raises(ShapeError, match="4D"):
        T.pointwise_mlp(make((3, 4)), *params)


@pytest.mark.parametrize("n", [1, 2])
def test_pointwise_mlp_backward_leaves_the_residual_gradient_and_its_input_alone(n):
    # A block whose drop path is off adds its input to pointwise_mlp's output,
    # and add's backward hands one gradient array to both. On 288 channels
    # backward takes the lean schedule, here over one tile: the whole map. At
    # n = 1 the tile's channel-major views of g and f are those arrays.
    c = 288
    x, f = (make((n, c, 6, 6), seed=s, requires_grad=True) for s in (1, 2))
    before = f.data.copy()
    T.backward(T.sum_all(T.add(x, T.pointwise_mlp(f, *_pointwise_params(c, 3, True)))))
    assert np.array_equal(x.grad, np.ones(x.shape, np.float32))
    assert np.array_equal(f.data, before)


def leaf(shape, seed=0):
    return make(shape, seed, requires_grad=True)


def pointwise_case(shape):
    return lambda: T.pointwise_mlp(leaf(shape), *_pointwise_params(shape[1], 1, True))


GRAD_FN_CASES = {
    "conv2d-depthwise": lambda: T.conv2d(leaf((2, 4, 6, 6)), leaf((4, 1, 3, 3), 1), leaf((4,), 2),
                                         T.ConvSpec(kernel=(3, 3), padding=(1, 1), groups=4)),
    "conv2d-dense": lambda: T.conv2d(leaf((2, 3, 8, 8)), leaf((5, 3, 2, 2), 1), leaf((5,), 2),
                                     T.ConvSpec(kernel=(2, 2), stride=(2, 2))),
    "layer_norm": lambda: T.layer_norm_channels(leaf((2, 3, 4, 4)), leaf((3,), 1), leaf((3,), 2)),
    "gelu": lambda: T.gelu(leaf((2, 3, 4, 4))),
    "scale_channels": lambda: T.scale_channels(leaf((2, 3, 4, 4)), leaf((3,), 1)),
    "add": lambda: T.add(leaf((2, 3, 4, 4)), leaf((2, 3, 4, 4), 1)),
    "tile_grid": lambda: M.tile_grid(leaf((2, 3, 4, 4)), leaf((2, 3, 2, 2), 1), (2, 2), True),
    "collage": lambda: M.collage(leaf((8, 3, 2, 2)), (2, 2)),
    "global_avg_pool": lambda: T.global_avg_pool(leaf((2, 3, 4, 4))),
    "linear": lambda: T.linear(leaf((2, 3)), leaf((4, 3), 1), leaf((4,), 2)),
    # weights that outweigh their input and output gradient, as the neck's and
    # the head's do: their gradients are made after the walk (see backward)
    "conv2d-dense-deferred": lambda: T.conv2d(
        leaf((2, 8, 6, 6)), leaf((16, 8, 3, 3), 1), leaf((16,), 2),
        T.ConvSpec(kernel=(3, 3), dilation=(2, 2))),
    "linear-deferred": lambda: T.linear(leaf((2, 3)), leaf((16, 3), 1), leaf((16,), 2)),
    # stages 1-2's schedule over single items and over bands of rows, both a
    # tile per part on the pool; the lean schedule over two items and one
    "pointwise_mlp-items": pointwise_case((2, 96, 24, 24)),
    "pointwise_mlp-row-bands": pointwise_case((1, 96, 48, 48)),
    "pointwise_mlp-lean": pointwise_case((2, 288, 6, 6)),
    "pointwise_mlp-lean-one-item": pointwise_case((1, 288, 6, 6)),
}


@pytest.mark.parametrize("case", sorted(GRAD_FN_CASES))
def test_grad_fn_writes_nothing_into_its_gradient(pool, case):
    # backward may hand the array a grad_fn gets to other nodes too (add
    # returns it twice), so only training.clip_grad_norm writes gradients in
    # place (see Tensor); numpy raises on a write into a read-only array.
    y = GRAD_FN_CASES[case]()
    g = rng(5).standard_normal(y.shape).astype(np.float32)
    g.flags.writeable = False
    grads = y._grad_fn(g)
    assert [callable(grad) for grad in grads] == [case.endswith("-deferred") and i == 1
                                                  for i in range(len(grads))]
    for grad, p in zip(grads, y._node.parents):
        grad = grad() if callable(grad) else grad
        assert grad.shape == p.shape


def test_global_avg_pool_values():
    x = T.Tensor(np.full((3, 2, 4, 4), 1.5, dtype=np.float32))
    np.testing.assert_array_equal(T.global_avg_pool(x).data, np.full((3, 2), 1.5, np.float32))
    x2 = T.Tensor(np.array([1, 2, 3, 4], dtype=np.float32).reshape(1, 1, 2, 2))
    assert T.global_avg_pool(x2).data[0, 0] == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# softmax cross-entropy

def test_cross_entropy_uniform_logits():
    k = 7
    logits = T.Tensor(np.zeros((4, k), dtype=np.float32), requires_grad=True)
    loss, probs = T.softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
    assert loss.item() == pytest.approx(math.log(k), rel=1e-6)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_cross_entropy_confident_logit():
    logits = np.zeros((1, 5), dtype=np.float32)
    logits[0, 3] = 1000.0
    loss, _ = T.softmax_cross_entropy(T.Tensor(logits), np.array([3]))
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_label_out_of_range():
    logits = T.Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        T.softmax_cross_entropy(logits, np.array([0, 3]))


def test_cross_entropy_grad_is_probs_minus_onehot():
    r = rng(21)
    logits = T.Tensor(r.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 1])
    loss, probs = T.softmax_cross_entropy(logits, labels)
    T.backward(loss)
    onehot = np.eye(4, dtype=np.float32)[labels]
    np.testing.assert_allclose(logits.grad, (probs - onehot) / 5.0, atol=1e-6)
    assert loss.item() >= 0.0


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_sum_gives_ones():
    x = make((3, 4), seed=1, requires_grad=True)
    T.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


def test_backward_sum_of_squares():
    x = make((2, 5), seed=2, requires_grad=True)
    T.backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_requires_scalar_and_single_use():
    x = make((3,), seed=0, requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(ShapeError):
        T.backward(y)
    s = T.sum_all(y)
    T.backward(s)
    with pytest.raises(RuntimeError):
        T.backward(s)
    with pytest.raises(RuntimeError):
        T.backward(T.parameter(np.float32(1.0)))  # a leaf records no tape


def test_backward_lets_go_of_each_node_once_walked():
    # The probe op runs its grad_fn last; by then every op output above it
    # has been walked and nothing outside the tape holds them.
    x = make((3, 4), seed=2, requires_grad=True)
    refs, dead = [], []

    def probe(g):
        dead.append([r() is None for r in refs])
        return (g,)

    y = T._from_op(x.data.copy(), (x,), probe, "probe")
    for _ in range(5):
        y = T.mul_const(y, np.float32(0.5))
        refs.append(weakref.ref(y.data))
    loss = T.sum_all(y)
    del y
    T.backward(loss)
    assert dead == [[True] * 5]
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 0.5 ** 5, np.float32))


def test_backward_rejects_gradient_of_another_dtype():
    x = make((3,), seed=3, requires_grad=True)
    y = T._from_op(x.data.copy(), (x,), lambda g: (g.astype(np.float64),), "widen")
    with pytest.raises(ShapeError, match="float64"):
        T.backward(T.sum_all(y))


def test_backward_accumulates_through_shared_nodes():
    x = make((4,), seed=5, requires_grad=True)
    y = T.add(x, x)  # dy/dx = 2
    T.backward(T.sum_all(y))
    np.testing.assert_allclose(x.grad, np.full(4, 2.0, np.float32))


def test_backward_makes_the_neck_weight_gradient_once_the_tape_is_freed(monkeypatch):
    # The neck's weight gradient outweighs the arrays it is made from, so it
    # is made after the walk, when the fused maps that stage 1's blocks keep
    # on the tape (see pointwise_mlp) have been freed.
    m = M.build_model(M.make_config("toy", input_size=(64, 64)), 0)
    neck = next(layer for layer in m.layers if isinstance(layer, M.Neck))
    cout, k = neck.weight.shape[0], neck.weight.size // neck.weight.shape[0]
    refs, dead = [], []
    fuse, gemm = M.Block.fuse, T._gemm_parts

    def block_fuse(self, *args):
        f = fuse(self, *args)
        if self.prefix.startswith("stage1."):
            refs.append(weakref.ref(f.data))
        return f

    def gemm_parts(a, b, out, bias=None):
        if out.shape == (1, cout, k):  # the neck's weight gradient
            dead.append([r() is None for r in refs])
        return gemm(a, b, out, bias)

    monkeypatch.setattr(M.Block, "fuse", block_fuse)
    monkeypatch.setattr(T, "_gemm_parts", gemm_parts)
    clips = rng(1).standard_normal((2 * m.config.frames, 3, 64, 64)).astype(np.float32)
    loss, _ = T.softmax_cross_entropy(m.forward(T.Tensor(clips), training=True, rng=rng(2)),
                                      np.array([0, 1]))
    assert all(r() is not None for r in refs)  # the tape holds them
    T.backward(loss)
    assert refs and dead == [[True] * len(refs)]
    assert neck.weight.grad.shape == neck.weight.shape


def test_backward_sums_a_deferred_gradient_onto_its_leaf_in_walk_order():
    # w is used by three linear ops; the one on a single row defers its
    # weight gradient (w outweighs x and g). w.grad must be the left-to-right
    # sum of the three gradients in the order their grad_fns ran, bit for bit.
    w, b = make((8, 64), seed=1, requires_grad=True), make((8,), seed=2)
    walked, deferred = [], []

    def linear(x, scale):
        y = T.linear(T.Tensor(scale * x.data), w, b)
        fn = y._grad_fn

        def grad_fn(g):
            grads = fn(g)
            deferred.append(callable(grads[1]))
            walked.append(grads[1]() if callable(grads[1]) else grads[1])
            return grads

        y._grad_fn = grad_fn
        return T.sum_all(y)

    one, many, few = linear(make((1, 64), seed=3), 1e4), linear(make((16, 64), seed=4), 1.0), \
        linear(make((16, 64), seed=5), 1e-3)
    T.backward(T.sum_all(T.add(T.add(few, one), many)))
    assert sorted(deferred) == [False, False, True] and not deferred[-1]
    want = walked[0] + walked[1] + walked[2]
    assert np.array_equal(w.grad, want)
    # the order matters for these values: the deferred gradient added last differs
    late = [g for g, d in zip(walked, deferred) if not d]
    late += [g for g, d in zip(walked, deferred) if d]
    assert not np.array_equal(late[0] + late[1] + late[2], want)


def test_add_of_scalars_runs_forward_and_backward():
    # _map_parts writes a 0-d output through a 0-d view of it, which a
    # ufunc's out= takes; out[()] would be a numpy scalar, which it rejects.
    a, b = make((3, 4), seed=1, requires_grad=True), make((5,), seed=2, requires_grad=True)
    sa, sb = T.sum_all(a), T.sum_all(b)
    s = T.add(sa, sb)
    assert s.shape == () and s.requires_grad
    assert np.array_equal(s.data, sa.data + sb.data)
    T.backward(T.sum_all(T.mul(s, s)))
    assert np.array_equal(a.grad, np.full(a.shape, 2 * s.data, dtype=np.float32))
    assert np.array_equal(b.grad, np.full(b.shape, 2 * s.data, dtype=np.float32))


def test_scalar_outputs_hold_0d_arrays():
    # numpy hands back a 0-d result of a reduction or product as a scalar,
    # not an array, so sum_all, mul and mul_const must make it one
    a = make((3, 4), seed=1, requires_grad=True)
    x = T.Tensor(np.float32(1.5), requires_grad=True)
    outs = [T.sum_all(a), T.mul(x, x), T.mul_const(x, 2.0)]
    for out in outs:
        assert type(out.data) is np.ndarray and out.shape == () and out.requires_grad
    total = T.sum_all(T.mul_const(T.mul(outs[0], outs[1]), np.float32(0.5)))
    assert type(total.data) is np.ndarray
    T.backward(T.add(total, outs[2]))
    s = np.float32(a.data.sum(dtype=np.float32))
    assert np.array_equal(a.grad, np.full(a.shape, np.float32(0.5) * x.data * x.data, np.float32))
    assert np.allclose(x.grad, 0.5 * s * 2 * 1.5 + 2.0)


def test_malloc_trim_runs_once_per_backward_with_a_deferred_gradient_of_32_mib(monkeypatch):
    # glibc maps a request of 32 MiB or more to fresh pages, so backward first
    # hands back the heap pages the walk freed; a smaller deferred gradient
    # leaves the heap alone.
    calls = []
    monkeypatch.setattr(T, "_malloc_trim", lambda pad: calls.append(pad) or 1)
    x = make((1, 2048), seed=1)
    for rows, trims in ((4096, 1), (4095, 0)):  # a 32 MiB weight, and one row less
        w = T.Tensor(np.full((rows, 2048), 1e-3, np.float32), requires_grad=True)
        b = T.Tensor(np.zeros(rows, np.float32))
        for step in (1, 2):
            calls.clear()
            # two uses of w, both deferred: still one trim
            T.backward(T.sum_all(T.add(T.linear(x, w, b), T.linear(x, w, b))))
            assert calls == [0] * trims, (rows, step)
            w.grad = None


def test_toy_train_step_never_trims_and_gradients_do_not_depend_on_the_trim(monkeypatch):
    def step():
        m = M.build_model(M.make_config("toy", input_size=(64, 64)), 0)
        clips = rng(1).standard_normal((4 * m.config.frames, 3, 64, 64)).astype(np.float32)
        logits = m.forward(T.Tensor(clips), training=True, rng=rng(2))
        T.backward(T.softmax_cross_entropy(logits, np.arange(4) % m.config.num_classes)[0])
        return {name: p.grad for name, p in m.parameters().items()}

    calls = []
    monkeypatch.setattr(T, "_malloc_trim", lambda pad: calls.append(pad) or 1)
    with_trim = step()
    assert calls == []
    monkeypatch.setattr(T, "_malloc_trim", None)
    without = step()
    assert all(np.array_equal(with_trim[name], without[name]) for name in with_trim)

    # a deferred gradient of 32 MiB, with glibc's trim and without it
    x = make((1, 2048), seed=1)
    w = T.Tensor(np.full((4096, 2048), 1e-3, np.float32), requires_grad=True)
    b = T.Tensor(np.zeros(4096, np.float32))
    grads = []
    for trim in (T._find_malloc_trim(), None):
        monkeypatch.setattr(T, "_malloc_trim", trim)
        T.backward(T.sum_all(T.linear(x, w, b)))
        grads.append(w.grad)
        w.grad = None
    assert np.array_equal(*grads)
