"""The thread budget of ``vidconv.tensor``: kernels split over a pool of
threads give the bits of one thread, and errors in a part surface cleanly."""
import threading
import time
import warnings

import numpy as np
import pytest

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


# tiny's stage-1 block map on 2 clips at 96x96 (split by items), and a
# stage-2 map of one 224x224 frame (split by rows)
@pytest.mark.parametrize("shape", [(18, 96, 24, 24), (1, 192, 28, 28)], ids=["items", "rows"])
def test_pool_changes_no_bits_dense_conv(pool, monkeypatch, shape):
    cout = 4 * shape[1]
    x = make(shape, requires_grad=True)
    w, b = make((cout, shape[1], 1, 1), 1, 0.1, True), make((cout,), 2, 0.1, True)

    def run():
        y = T.conv2d(x, w, b, ONE)
        return [y.data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "_gemm_parts", "gw_part")


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

    assert_pool_changes_no_bits(monkeypatch, run, "_gelu_blocks", "gelu.<locals>.grad_fn")


@pytest.mark.parametrize("shape", [(9, 96, 56, 56), (1, 192, 112, 112)], ids=["items", "rows"])
def test_pool_changes_no_bits_layer_norm(pool, monkeypatch, shape):
    c = shape[1]
    x = make(shape, scale=3.0, requires_grad=True)
    gamma, beta = make((c,), 1, 0.1, True), make((c,), 2, 0.1, True)

    def run():
        y = T.layer_norm_channels(x, gamma, beta)
        untaped = T.layer_norm_channels(T.Tensor(x.data.copy()), T.Tensor(gamma.data),
                                        T.Tensor(beta.data), overwrite_x=True)
        return [y.data, untaped.data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "layer_norm_channels")


def test_pool_changes_no_bits_pointwise_mlp(pool, monkeypatch):
    c = 96
    f = make((18, c, 24, 24), requires_grad=True)
    r = rng(1)
    params = [T.Tensor(a.astype(np.float32), requires_grad=True) for a in (
        1.0 + 0.1 * r.standard_normal(c), 0.1 * r.standard_normal(c),
        0.1 * r.standard_normal((4 * c, c, 1, 1)), 0.1 * r.standard_normal(4 * c),
        0.05 * r.standard_normal((c, 4 * c, 1, 1)), 0.1 * r.standard_normal(c),
        0.5 + 0.1 * r.standard_normal(c))]

    def run():
        y = T.pointwise_mlp(f, *params)
        return [y.data, *grads_of(y, 3)]

    assert_pool_changes_no_bits(monkeypatch, run, "tile_grads", "_gemm_parts")


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
    clip_shape = (48, T._BLOCK)  # a gradient whose norm's blocks split

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

    assert_pool_changes_no_bits(monkeypatch, run, "adamw_step", "clip_grad_norm")


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
