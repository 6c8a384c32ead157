"""Shared test utilities: independent oracles and gradient checking."""
import numpy as np
import pytest

from vidconv import tensor as T


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# brute-force convolution oracle (written before the optimized kernels; kept
# deliberately dumb: six nested loops, no vectorization)

def conv2d_loops(x, w, b, stride=(1, 1), dilation=(1, 1), padding=(0, 0), groups=1):
    n, cin, h, wd = x.shape
    cout, cpg, kh, kw = w.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    cout_pg = cout // groups
    for ni in range(n):
        for co in range(cout):
            g = co // cout_pg
            for y in range(ho):
                for xo in range(wo):
                    acc = 0.0
                    for ci in range(cpg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (float(w[co, ci, i, j]) *
                                        float(xp[ni, g * cpg + ci, y * sh + i * dh, xo * sw + j * dw]))
                    out[ni, co, y, xo] = acc + (float(b[co]) if b is not None else 0.0)
    return out


def conv2d_loops_grads(x, w, g, stride=(1, 1), dilation=(1, 1), padding=(0, 0), groups=1):
    """Input and weight gradients of ``conv2d_loops`` for upstream grad ``g``.

    The same six loops as the forward, scattering each output's grad back to
    the input sample and kernel tap it read.
    """
    n, cin, h, wd = x.shape
    cout, cpg, kh, kw = w.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))).astype(np.float64)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, dtype=np.float64)
    cout_pg = cout // groups
    for ni in range(n):
        for co in range(cout):
            gi = co // cout_pg
            for y in range(g.shape[2]):
                for xo in range(g.shape[3]):
                    go = float(g[ni, co, y, xo])
                    for ci in range(cpg):
                        for i in range(kh):
                            for j in range(kw):
                                r, c = y * sh + i * dh, xo * sw + j * dw
                                gxp[ni, gi * cpg + ci, r, c] += float(w[co, ci, i, j]) * go
                                gw[co, ci, i, j] += float(xp[ni, gi * cpg + ci, r, c]) * go
    return gxp[:, :, ph: ph + h, pw: pw + wd], gw


# ---------------------------------------------------------------------------
# central finite differences in 64-bit shadow mode

def numeric_grad(f, arrays, name, h=1e-6):
    """d f / d arrays[name] by central differences; f maps dict -> float."""
    base = {k: v.copy() for k, v in arrays.items()}
    a = base[name]
    g = np.zeros_like(a)
    flat = a.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(base)
        flat[i] = old - h
        fm = f(base)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_gradients(build, arrays, rel_tol=1e-4, atol=1e-6, h=1e-6):
    """Compare tape gradients of a scalar graph against central differences.

    ``build`` maps a dict of float64 ndarrays to a scalar Tensor; every array
    in ``arrays`` is treated as a differentiable leaf.
    """
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    leaves = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    loss = build(leaves)
    T.backward(loss)

    def f(arrs):
        leaves_ = {k: T.Tensor(v, requires_grad=False) for k, v in arrs.items()}
        return float(build(leaves_).data)

    worst = 0.0
    for name, arr in arrays.items():
        analytic = leaves[name].grad
        assert analytic is not None, f"no gradient reached leaf {name!r}"
        numeric = numeric_grad(f, arrays, name, h=h)
        denom = np.maximum(np.abs(numeric), 1.0)
        rel = np.abs(analytic - numeric) / denom
        bad = (np.abs(analytic - numeric) > atol) & (rel > rel_tol)
        assert not bad.any(), (
            f"gradient mismatch for {name!r}: max rel err "
            f"{rel.max():.3e}, max abs err {np.abs(analytic - numeric).max():.3e}")
        worst = max(worst, float(rel.max()))
    return worst


@pytest.fixture
def f64_rng():
    return np.random.default_rng(1234)
