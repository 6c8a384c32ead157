"""The thread budget of ``vidconv.tensor``: kernels split over a pool of
threads give the bits of one thread, and errors in a part surface cleanly."""
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from vidconv import data
from vidconv import model as M
from vidconv import tensor as T
from vidconv import training
from vidconv.errors import NumericsError
from conftest import rng

ONE = T.ConvSpec(kernel=(1, 1))


def splits_seen(monkeypatch):
    """A list that collects the qualified name of each part ``_parallel``
    runs in more than one piece."""
    seen, parallel = [], T._parallel

    def spy(part, pieces):
        if len(pieces) > 1:
            seen.append(part.__qualname__)
        return parallel(part, pieces)

    monkeypatch.setattr(T, "_parallel", spy)
    return seen


def assert_pool_changes_no_bits(monkeypatch, run, *kernels):
    """``run()`` returns arrays; with the pool they come out of splits in
    every one of ``kernels`` (qualified-name fragments), and with no pool
    they are the same, bit for bit."""
    seen = splits_seen(monkeypatch)
    on = run()
    for kernel in kernels:
        assert any(kernel in name for name in seen), (kernel, sorted(set(seen)))
    monkeypatch.setattr(T, "_POOL", None)
    off = run()
    assert len(on) == len(off)
    for i, (a, b) in enumerate(zip(on, off)):
        assert np.array_equal(a, b), i


def make(shape, seed=0, scale=1.0, requires_grad=False):
    data = (scale * rng(seed).standard_normal(shape)).astype(np.float32)
    return T.Tensor(data, requires_grad=requires_grad)


def grads_of(y, seed):
    g = rng(seed).standard_normal(y.shape).astype(np.float32)
    return [a for a in y._grad_fn(g) if a is not None]


# tiny's stage-1 block map on 2 clips at 96x96, and a stage-2 map of one
# 224x224 frame: either way each GEMM splits by rows of its weight, for all
# items at once
@pytest.mark.parametrize("shape", [(18, 96, 24, 24), (1, 192, 28, 28)], ids=["18-items", "1-item"])
def test_pool_changes_no_bits_dense_conv(pool, monkeypatch, shape):
    cout = 4 * shape[1]
    x = make(shape, requires_grad=True)
    w, b = make((cout, shape[1], 1, 1), 1, 0.1, True), make((cout,), 2, 0.1, True)
    seen, in_backward = splits_seen(monkeypatch), []

    def run():
        y = T.conv2d(x, w, b, ONE)
        seen.clear()
        grads = grads_of(y, 3)
        in_backward.extend(seen)
        return [y.data, *grads]

    assert_pool_changes_no_bits(monkeypatch, run, "_gemm_parts")
    # backward's input-gradient and weight-gradient GEMMs both split
    assert in_backward == ["_gemm_parts.<locals>.part"] * 2, in_backward


# The GEMMs of tiny's neck in training, on 2 clips at 96x96 and at 224x224
# (3x3 and 7x7 output pixels): _gemm_parts splits the (2304, 6912) weight by
# rows, and each part multiplies its rows by each item's columns.
@pytest.mark.parametrize("pixels", [9, 49])
def test_gemm_parts_by_rows_gives_the_bits_of_a_gemm_per_item(pool, monkeypatch, pixels):
    r = rng(0)
    w = (0.01 * r.standard_normal((2304, 6912))).astype(np.float32)  # 61 MiB
    bias = r.standard_normal(2304).astype(np.float32)
    cols = r.standard_normal((2, 6912, pixels)).astype(np.float32)
    g = r.standard_normal((2, 2304, pixels)).astype(np.float32)
    parallel, rows = T._parallel, []

    def spy(part, pieces):
        rows.append(pieces[-1].stop)
        return parallel(part, pieces)

    monkeypatch.setattr(T, "_parallel", spy)

    def run():
        y, gcols = np.empty((2, 2304, pixels), np.float32), np.empty((2, 6912, pixels), np.float32)
        T._gemm_parts(w, cols, y, bias)  # the forward
        T._gemm_parts(w.T, g, gcols)  # the input gradient
        return [y, gcols]

    on = run()
    assert rows == [2304, 6912]  # split by rows of the weight, not by items
    for item in range(2):
        assert np.array_equal(on[0][item], np.matmul(w, cols[item]) + bias[:, None])
        assert np.array_equal(on[1][item], np.matmul(w.T, g[item]))
    monkeypatch.setattr(T, "_POOL", None)
    assert all(np.array_equal(a, b) for a, b in zip(on, run()))


def test_pool_changes_no_bits_depthwise_conv(pool, monkeypatch):
    x = make((18, 96, 24, 24), requires_grad=True)  # tiny's stage-1 map on 2 clips at 96x96
    w, b = make((96, 1, 7, 7), 1, 0.1, True), make((96,), 2, 0.1, True)
    spec = T.ConvSpec(kernel=(7, 7), padding=(3, 3), groups=96)

    def run():
        y = T.conv2d(x, w, b, spec)
        return [y.data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "_conv_depthwise.<locals>.forward",
                                "grad_fn.<locals>.backward")


def test_pool_changes_no_bits_gelu(pool, monkeypatch):
    x = make((18, 384, 24, 24), requires_grad=True)  # pw1's output on tiny's stage-1 map

    def run():
        y = T.gelu(x)
        return [y.data, T.gelu(T.Tensor(x.data)).data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "_gelu_blocks")


@pytest.mark.parametrize("shape", [(9, 96, 56, 56), (1, 192, 112, 112)], ids=["items", "rows"])
def test_pool_changes_no_bits_layer_norm(pool, monkeypatch, shape):
    c = shape[1]
    x = make(shape, scale=3.0, requires_grad=True)
    gamma, beta = make((c,), 1, 0.1, True), make((c,), 2, 0.1, True)

    def run():
        y = T.layer_norm_channels(x, gamma, beta)
        untaped = T.layer_norm_channels(T.Tensor(x.data), *(T.Tensor(p.data) for p in (gamma, beta)))
        return [y.data, untaped.data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "_ln_forward")


def pointwise_params(c):
    r = rng(1)
    return [T.Tensor(a.astype(np.float32), requires_grad=True) for a in (
        1.0 + 0.1 * r.standard_normal(c), 0.1 * r.standard_normal(c),
        0.1 * r.standard_normal((4 * c, c, 1, 1)), 0.1 * r.standard_normal(4 * c),
        0.05 * r.standard_normal((c, 4 * c, 1, 1)), 0.1 * r.standard_normal(c),
        0.5 + 0.1 * r.standard_normal(c))]


def test_pool_changes_no_bits_pointwise_mlp(pool, monkeypatch):
    # tiny's stage-1 map on 2 clips at 96x96: backward's tiles are runs of 4
    # items, whose GEMMs, GELU and dy/dx product each split
    c = 96
    f = make((18, c, 24, 24), requires_grad=True)
    params = pointwise_params(c)
    seen, in_backward = splits_seen(monkeypatch), []

    def run():
        y = T.pointwise_mlp(f, *params)
        seen.clear()
        grads = grads_of(y, 3)
        in_backward.extend(seen)
        return [y.data, *grads]

    assert_pool_changes_no_bits(monkeypatch, run, "_gemm_parts")
    assert {"_gemm_parts.<locals>.part", "_gelu_blocks.<locals>.part",
            "_map_parts.<locals>.part"} <= set(in_backward), in_backward


def test_pool_changes_no_bits_untaped_pointwise_mlp(pool, monkeypatch):
    # an eval block's pointwise half on tiny's stage-1 map of one 224x224
    # clip: the norm, both GEMMs, GELU and the layer scale each split
    c = 96
    f = make((9, c, 56, 56))
    params = [T.Tensor(p.data) for p in pointwise_params(c)]

    def run():
        return [T.pointwise_mlp(f, *params).data]

    assert_pool_changes_no_bits(monkeypatch, run, "_ln_forward", "_gemm_parts", "_gelu_blocks",
                                "_map_parts")


def test_pool_changes_no_bits_pointwise_mlp_row_bands(pool, monkeypatch):
    # tiny's stage-3 collage of one 224x224 clip: backward's tiles are three
    # bands of rows (0, 16 and 32, the last short), walked in order on the
    # calling thread, and each band's five GEMMs split
    c = 384
    f = make((1, c, 42, 42), requires_grad=True)
    params = pointwise_params(c)
    seen, in_backward, bands = splits_seen(monkeypatch), [], []
    channel_major, row_bytes = T._channel_major, f.data.strides[2]

    def spy(a):  # the channel-major copy of each of f's tiles
        if np.may_share_memory(a, f.data):
            offset = a.__array_interface__["data"][0] - f.data.__array_interface__["data"][0]
            bands.append((threading.current_thread().name, offset // row_bytes))
        return channel_major(a)

    monkeypatch.setattr(T, "_channel_major", spy)

    def run():
        y = T.pointwise_mlp(f, *params)
        seen.clear()
        grads = grads_of(y, 3)
        in_backward.extend(seen)
        return [y.data, *grads]

    assert_pool_changes_no_bits(monkeypatch, run, "_gemm_parts")
    assert in_backward.count("_gemm_parts.<locals>.part") == 15, in_backward  # none with no pool
    assert bands == [(threading.current_thread().name, row) for row in (0, 16, 32)] * 2, bands


def test_pool_changes_no_bits_pointwise_mlp_collaged(pool, monkeypatch):
    # tiny's stage-3 collage on 2 clips at 96x96: backward's one tile, whose
    # GEMMs split by rows, and whose GELU and dy/dx product split by blocks
    c = 384
    f = make((2, c, 18, 18), requires_grad=True)
    params = pointwise_params(c)
    seen, in_backward = splits_seen(monkeypatch), []

    def run():
        y = T.pointwise_mlp(f, *params)
        seen.clear()
        grads = grads_of(y, 3)
        in_backward.extend(seen)
        return [y.data, *grads]

    assert_pool_changes_no_bits(monkeypatch, run, "_gemm_parts", "_gelu_blocks", "_map_parts")
    assert {"_gemm_parts.<locals>.part", "_gelu_blocks.<locals>.part",
            "_map_parts.<locals>.part"} <= set(in_backward), in_backward


def test_pool_changes_no_bits_elementwise_and_collage(pool, monkeypatch):
    frames = make((18, 96, 24, 24))  # two clips of 3x3 frames
    other, alpha = make((18, 96, 24, 24), 1), make((96,), 2)
    t = make((2, 96, 24, 24), 3)

    def run():
        coll = M.collage(frames, (3, 3))
        return [T.add(frames, other).data, T.scale_channels(frames, alpha).data, coll.data,
                M.uncollage(coll, (3, 3)).data,
                M.tile_grid(frames, t, (3, 3), collaged=False).data,
                M.tile_grid(coll, t, (3, 3), collaged=True).data]

    assert_pool_changes_no_bits(monkeypatch, run, "_map_parts")


def test_pool_changes_no_bits_adamw_and_clip_grad_norm(pool, monkeypatch):
    shapes = {"pw1": (1536, 768, 1, 1), "bias": (768,)}  # a large parameter, and a small one
    clip_shape = (48, T._BLOCK)  # a gradient of many blocks

    def run():
        params = {n: T.Tensor(rng(i).standard_normal(s).astype(np.float32), requires_grad=True)
                  for i, (n, s) in enumerate(shapes.items())}
        for i, p in enumerate(params.values()):
            p.grad = rng(10 + i).standard_normal(p.shape).astype(np.float32)
        state = training.OptimState(base_lr=1e-3)
        training.adamw_step(params, state, 1e-3)
        training.adamw_step(params, state, 1e-3)
        big = T.Tensor(np.zeros(clip_shape, np.float32), requires_grad=True)
        big.grad = rng(20).standard_normal(clip_shape).astype(np.float32)
        norm = training.clip_grad_norm({"big": big, **params}, 1e9)
        return [*(p.data for p in params.values()), *state.m.values(), *state.v.values(),
                np.float64(norm)]

    assert_pool_changes_no_bits(monkeypatch, run, "adamw_step")


def tiny_eval_and_train_step(m):
    """The logits of an eval forward of one 9x224x224 clip, and the gradients
    of a train step on 2 clips at 96x96, seed 0."""
    r = rng(0)
    clip = r.standard_normal((m.config.frames, 3, 224, 224)).astype(np.float32)
    logits = m.forward(T.Tensor(clip), training=False).data
    clips = r.standard_normal((2 * m.config.frames, 3, 96, 96)).astype(np.float32)
    loss, _ = T.softmax_cross_entropy(m.forward(T.Tensor(clips), training=True, rng=r),
                                      np.array([0, 1]))
    T.backward(loss)
    grads = [p.grad for p in m.parameters().values()]
    m.zero_grad()
    return [logits, *grads]


def test_pool_changes_no_bits_in_a_tiny_train_step_and_eval_forward(pool, monkeypatch):
    # the kernels' splits at the model's own shapes, over all 220 gradients
    m = M.build_model(M.make_config("tiny"), 0)
    assert_pool_changes_no_bits(monkeypatch, lambda: tiny_eval_and_train_step(m), "_gemm_parts",
                                "_ln_forward", "_gelu_blocks", "_map_parts", "_conv_depthwise")
    assert len(m.parameters()) == 220


# ---------------------------------------------------------------------------
# three parts: a 2- or 4-thread machine never cuts ``n * i // 3``


@pytest.fixture(scope="session")
def two_thread_pool():
    return T._Pool(2)  # its threads start at the first hand-over


@pytest.fixture
def three_parts(monkeypatch, two_thread_pool):
    """Kernels cut into three parts, as on three threads, run over a pool of
    two threads beside the calling one. Returns a list of the number of
    pieces of each ``_parallel`` call."""
    monkeypatch.setattr(T, "_POOL", two_thread_pool)
    monkeypatch.setattr(T, "_THREADS", 3)
    counts, parallel = [], T._parallel

    def spy(part, pieces):
        counts.append(len(pieces))
        return parallel(part, pieces)

    monkeypatch.setattr(T, "_parallel", spy)
    return counts


def test_cut_and_slabs_make_three_uneven_parts(three_parts, monkeypatch):
    least = T._PART_CALL
    assert T._cut(10, least, least) == [slice(0, 3), slice(3, 6), slice(6, 10)]
    assert T._cut(10, least / 5, least) == [slice(0, 5), slice(5, 10)]  # work for two parts
    assert T._cut(10, least / 10, least) == [slice(0, 10)]
    assert T._cut(2, least, least) == [slice(0, 1), slice(1, 2)]  # no more parts than units
    assert T._slabs((7, 5), least, least) == [(slice(0, 2),), (slice(2, 4),), (slice(4, 7),)]
    # the first axis with room for a part per thread
    assert T._slabs((2, 4), least, least) == [(slice(None), slice(0, 1)), (slice(None), slice(1, 2)),
                                              (slice(None), slice(2, 4))]
    assert T._slabs((7, 5), least / 35, least) == [()]
    monkeypatch.setattr(T, "_POOL", None)
    assert T._cut(10, least, least) == [slice(0, 10)]
    assert T._slabs((7, 5), least, least) == [()]


# The dense conv on 10 items, on the 9 frames of tiny's stage-1 map of one
# 224x224 clip, and at rows (160, 640) that do not divide by 3
@pytest.mark.parametrize("check, args", [
    (test_pool_changes_no_bits_dense_conv, [(10, 96, 24, 24)]),
    (test_pool_changes_no_bits_dense_conv, [(9, 96, 56, 56)]),
    (test_pool_changes_no_bits_dense_conv, [(1, 160, 28, 28)]),
    (test_pool_changes_no_bits_depthwise_conv, []),
    (test_pool_changes_no_bits_gelu, []),
    (test_pool_changes_no_bits_layer_norm, [(9, 96, 56, 56)]),
    (test_pool_changes_no_bits_layer_norm, [(1, 192, 112, 112)]),
    (test_pool_changes_no_bits_pointwise_mlp, []),
    (test_pool_changes_no_bits_pointwise_mlp_collaged, []),
    (test_pool_changes_no_bits_pointwise_mlp_row_bands, []),
    (test_pool_changes_no_bits_adamw_and_clip_grad_norm, []),
], ids=["dense_conv-items", "dense_conv-9-items", "dense_conv-rows", "depthwise_conv", "gelu",
        "layer_norm-items", "layer_norm-rows", "pointwise_mlp", "pointwise_mlp-collaged",
        "pointwise_mlp-row-bands", "adamw"])
def test_three_parts_change_no_bits(three_parts, monkeypatch, check, args):
    check(T._POOL, monkeypatch, *args)
    assert 3 in three_parts, sorted(set(three_parts))


# ---------------------------------------------------------------------------
# errors and numpy state in pool parts


def test_parallel_raises_the_first_error_once_every_part_is_done(pool):
    done = []

    def part(s):
        if s.start != 1:
            raise NumericsError(f"part {s.start}")
        time.sleep(0.05)
        done.append(s.start)

    with pytest.raises(NumericsError, match="part 0"):
        T._parallel(part, [slice(0, 1), slice(1, 2)])
    assert done == [1]

    def second_fails(s):
        if s.start == 1:
            raise NumericsError("in the pool")

    with pytest.raises(NumericsError, match="in the pool"):
        T._parallel(second_fails, [slice(0, 1), slice(1, 2)])


def test_no_part_makes_a_split_in_a_tiny_train_step_and_eval_forward(pool, monkeypatch):
    # A part that made a split would wait on it, while every pool thread may
    # be running a part of the split outside it: no kernel splits in a part.
    parallel, running, nested, lock = T._parallel, [0], [], threading.Lock()

    def spy(part, pieces):
        if running[0]:
            nested.append(part.__qualname__)

        def counted(piece):
            with lock:
                running[0] += 1
            try:
                part(piece)
            finally:
                with lock:
                    running[0] -= 1

        counted.__qualname__ = part.__qualname__
        return parallel(counted, pieces)

    monkeypatch.setattr(T, "_parallel", spy)
    m = M.build_model(M.make_config("tiny"), 0)
    tiny_eval_and_train_step(m)
    assert nested == [], sorted(set(nested))


def test_gelu_on_minus_inf_in_a_pool_part_raises_numerics_error_not_a_warning(pool, monkeypatch):
    # numpy's error state is per thread: the part on the pool must not warn
    # at 0 * -inf, but leave the NaN to the finite check on the output,
    # which runs once every part has returned.
    parts, run = [], T._gelu_run

    def spy(xf, yf, df=None):
        entry = ["start", threading.current_thread().name]
        parts.append(entry)
        run(xf, yf, df)
        entry[0] = "done"

    monkeypatch.setattr(T, "_gelu_run", spy)
    n = 32 * T._BLOCK
    for requires_grad in (False, True):
        x = np.zeros(n, dtype=np.float32)
        x[3 * n // 4] = -np.inf  # in the second part
        parts.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"), pytest.raises(NumericsError, match="gelu"):
                T.gelu(T.Tensor(x, requires_grad=requires_grad))
        assert len(parts) >= 2 and all(state == "done" for state, _ in parts)
        assert any(name != threading.current_thread().name for _, name in parts)


# ---------------------------------------------------------------------------
# what the pool costs where it is not used


def test_toy_train_step_and_eval_forward_never_split(pool, monkeypatch):
    # toy-train's shapes: batches of 4 clips at 64x64, in training and in validation
    fresh = T._Pool(T._THREADS - 1)
    monkeypatch.setattr(T, "_POOL", fresh)
    seen = splits_seen(monkeypatch)
    m = M.build_model(M.make_config("toy", num_classes=data.num_classes("motion-direction"),
                                    input_size=(64, 64)), 0)
    r = rng(0)
    clips = r.standard_normal((4 * m.config.frames, 3, 64, 64)).astype(np.float32)
    logits = m.forward(T.Tensor(clips), training=True, rng=r)
    loss, _ = T.softmax_cross_entropy(logits, np.arange(4) % m.config.num_classes)
    T.backward(loss)
    params = m.parameters()
    training.clip_grad_norm(params, 5.0)
    training.adamw_step(params, training.OptimState(base_lr=1e-3), 1e-3, group_of=m.param_group)
    m.forward(T.Tensor(clips), training=False)
    assert seen == [], seen
    assert not fresh._started


def test_importing_vidconv_loads_neither_logging_nor_concurrent_futures():
    # tensor._Pool stands in for concurrent.futures, whose import, with the
    # logging it loads, adds 0.6 MB to a process
    code = ("import pkgutil, sys, vidconv\n"
            "names = [m.name for m in pkgutil.iter_modules(vidconv.__path__)]\n"
            "for name in names: __import__('vidconv.' + name)\n"
            "print(len(names), sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))")
    src = str(Path(T.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    count, loaded = out.stdout.split(" ", 1)
    assert int(count) >= 6 and loaded.strip() == "[]", out.stdout
