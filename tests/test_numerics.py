import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from layerlens import numerics as nm
from layerlens.errors import ShapeError
from layerlens.seeding import make_rng


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# conv2d


def test_conv_scaling_identity():
    x = np.ones((1, 1, 3, 3))
    k = np.array([[[[2.0]]]])
    y = nm.conv2d(x, k, np.zeros(1))
    assert y.shape == (1, 1, 3, 3)
    assert np.array_equal(y, np.full((1, 1, 3, 3), 2.0))


def test_conv_sum_reduction():
    """A 3x3 kernel of ones on a 3x3 input: the centre output sees every
    pixel, a corner only its 2x2 block (the rest is padding)."""
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    y = nm.conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1))
    assert y.shape == (1, 1, 3, 3)
    assert y[0, 0, 1, 1] == 45.0
    assert y[0, 0, 0, 0] == 1.0 + 2.0 + 4.0 + 5.0


def test_conv_channel_mismatch_names_shapes():
    x = np.zeros((1, 2, 4, 4))
    k = np.zeros((3, 1, 3, 3))
    with pytest.raises(ShapeError) as e:
        nm.conv2d(x, k)
    assert "(1, 2, 4, 4)" in str(e.value) and "(3, 1, 3, 3)" in str(e.value)


@pytest.mark.parametrize("edges", [(2, 2), (4, 4), (3, 5), (1, 3)])
def test_conv_refuses_even_or_non_square_kernel(edges):
    """Only an odd square kernel has a centre pixel for the k // 2 padding."""
    with pytest.raises(ShapeError, match="not square with an odd edge"):
        nm.conv2d(np.zeros((1, 1, 6, 6)), np.zeros((1, 1, *edges)))


@pytest.mark.parametrize("seed", range(10))
def test_conv_backward_matches_finite_differences(seed):
    rng = make_rng(seed)
    x = rng.standard_normal((2, 3, 8, 8))
    k = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    up = rng.standard_normal(nm.conv2d(x, k, b).shape)

    def loss_x(xv):
        return float((nm.conv2d(xv, k, b) * up).sum())

    def loss_k(kv):
        return float((nm.conv2d(x, kv, b) * up).sum())

    def loss_b(bv):
        return float((nm.conv2d(x, k, bv) * up).sum())

    d_x, d_k, d_b = nm.conv2d_backward(x, k, up)
    assert rel_err(d_x, nm.finite_diff_grad(loss_x, x)) < 1e-5
    assert rel_err(d_k, nm.finite_diff_grad(loss_k, k)) < 1e-5
    assert rel_err(d_b, nm.finite_diff_grad(loss_b, b)) < 1e-5


def test_conv_backward_partial_requests_equal_full_call():
    rng = make_rng(11)
    x = rng.standard_normal((4, 3, 9, 9))
    k = rng.standard_normal((5, 3, 3, 3))
    up = rng.standard_normal(nm.conv2d(x, k).shape)
    d_x, d_k, d_b = nm.conv2d_backward(x, k, up)

    only_input = nm.conv2d_backward(x, k, up, want_params=False)
    assert only_input[1] is None and only_input[2] is None
    assert np.array_equal(only_input[0], d_x)

    only_params = nm.conv2d_backward(x, k, up, want_input=False)
    assert only_params[0] is None
    assert np.array_equal(only_params[1], d_k)
    assert np.array_equal(only_params[2], d_b)


def test_conv_backward_finite_differences_non_square_input():
    rng = make_rng(111)
    x = rng.standard_normal((2, 2, 7, 6))
    k = rng.standard_normal((3, 2, 3, 3))
    up = rng.standard_normal(nm.conv2d(x, k).shape)
    d_x, d_k, _ = nm.conv2d_backward(x, k, up)
    assert d_x.shape == x.shape
    fd_x = nm.finite_diff_grad(lambda v: float((nm.conv2d(v, k) * up).sum()), x)
    fd_k = nm.finite_diff_grad(lambda v: float((nm.conv2d(x, v) * up).sum()), k)
    assert rel_err(d_x, fd_x) < 1e-6
    assert rel_err(d_k, fd_k) < 1e-6


# The six conv layers of the preset net (widths 8,8,16,16,32,32 on a 1x32x32
# input, 3x3 kernels, stride 1, pad 1): (in channels, out channels, side).
PRESET_CONVS = [(1, 8, 32), (8, 8, 32), (8, 16, 16), (16, 16, 16), (16, 32, 8), (32, 32, 8)]


def reference_windows(x, k, pad):
    """(n, c, oh, ow, k, k) view of every k x k window of ``x`` zero-padded by ``pad``."""
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(padded, (k, k), axis=(2, 3))


def conv2d_reference(x, kernel, bias, pad):
    """Patch-major formulation: tensordot over a (n, c, oh, ow, k, k) window view."""
    win = reference_windows(x, kernel.shape[2], pad)
    y = np.tensordot(win, kernel, axes=([1, 4, 5], [1, 2, 3]))
    y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
    return y + bias[None, :, None, None]


def conv2d_input_grad_reference(x, kernel, d_out, pad):
    """Full-correlate d_out with the flipped kernel, crop to x."""
    h, w = x.shape[2:]
    k = kernel.shape[2]
    k_flip = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    d_full = conv2d_reference(d_out, k_flip, np.zeros(k_flip.shape[0]), k - 1)
    return d_full[:, :, pad:pad + h, pad:pad + w]


def kernel_grad_reference(x, d_out, k):
    """Window-layout kernel gradient: tensordot of d_out with the window view."""
    win = reference_windows(x, k, k // 2)
    return np.tensordot(d_out, win, axes=([0, 2, 3], [0, 2, 3]))


@pytest.mark.parametrize("layer", range(6))
def test_conv_forward_equals_patch_major_reference(layer):
    c_in, c_out, side = PRESET_CONVS[layer]
    rng = make_rng(200 + layer)
    k = rng.standard_normal((c_out, c_in, 3, 3))
    b = rng.standard_normal(c_out)
    for n in (1, 2, 3, 7, 8, 12, 32, 150):
        x = rng.standard_normal((n, c_in, side, side))
        assert np.array_equal(nm.conv2d(x, k, b), conv2d_reference(x, k, b, 1))


@pytest.mark.parametrize("layer", range(6))
def test_conv_backward_equals_reference_on_preset_layers(layer):
    """Kernel gradients equal the reference on every preset layer; input
    gradients on layers 1-5. Layer 0's input gradient is a one-row product
    (c_in = 1) whose last bits may differ."""
    c_in, c_out, side = PRESET_CONVS[layer]
    rng = make_rng(300 + layer)
    k = rng.standard_normal((c_out, c_in, 3, 3))
    for n in (1, 3, 12, 32):
        x = rng.standard_normal((n, c_in, side, side))
        up = rng.standard_normal((n, c_out, side, side))
        d_x, d_k, d_b = nm.conv2d_backward(x, k, up)
        ref_k = kernel_grad_reference(x, up, 3)
        assert np.array_equal(d_k, ref_k)
        assert d_k.tobytes() == ref_k.tobytes()  # array_equal cannot see a signed zero
        assert d_k.flags.c_contiguous
        assert np.array_equal(d_b, up.sum(axis=(0, 2, 3)))
        ref_x = conv2d_input_grad_reference(x, k, up, 1)
        if layer == 0:
            assert rel_err(d_x, ref_x) < 1e-14
        else:
            assert np.array_equal(d_x, ref_x)


@pytest.mark.parametrize("c", [8, 16, 32])
def test_param_grads_equal_reference_on_head_shapes(c):
    """The detection head's 1x1 kernel gradient over pooled patches of a tap
    with c channels (c*9 patch channels, 13 outputs on the presets' 4x4
    grid), with the head's (n, S, S, out) gradient passed as a transposed
    view."""
    rng = make_rng(400 + c)
    for n in (1, 16, 32):
        q = rng.standard_normal((n, c * 9, 4, 4))
        d = rng.standard_normal((n, 4, 4, 13)).transpose(0, 3, 1, 2)
        d_k, d_b = nm.conv2d_param_grads(q, (13, c * 9, 1, 1), d)
        assert d_k.tobytes() == kernel_grad_reference(q, d, 1).tobytes()
        assert d_k.flags.c_contiguous
        assert np.array_equal(d_b, d.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("c_in, k", [(1, 3), (4, 1), (2, 5)])
def test_conv_param_grads_match_finite_differences(c_in, k):
    """Kernel and bias gradients on one input channel, a 1x1 kernel and a 5x5 one."""
    rng = make_rng(500 + 10 * c_in + k)
    x = rng.standard_normal((2, c_in, 7, 7))
    kernel = rng.standard_normal((3, c_in, k, k))
    b = rng.standard_normal(3)
    up = rng.standard_normal((2, 3, 7, 7))
    _, d_k, d_b = nm.conv2d_backward(x, kernel, up, want_input=False)
    fd_k = nm.finite_diff_grad(lambda v: float((nm.conv2d(x, v, b) * up).sum()), kernel)
    fd_b = nm.finite_diff_grad(lambda v: float((nm.conv2d(x, kernel, v) * up).sum()), b)
    assert rel_err(d_k, fd_k) < 1e-5
    assert rel_err(d_b, fd_b) < 1e-5


@given(scale=st.floats(-3, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_conv_linearity_with_zero_bias(scale, seed):
    rng = make_rng(seed)
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    lhs = nm.conv2d(scale * x, k)
    rhs = scale * nm.conv2d(x, k)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# relu


def test_relu_basic():
    x = np.array([[[[-1.0, 0.0, 2.0]]]]).reshape(1, 1, 1, 3)
    assert np.array_equal(nm.relu(x).ravel(), [0.0, 0.0, 2.0])


def test_relu_identity_on_positive():
    rng = make_rng(3)
    x = np.abs(rng.standard_normal((2, 2, 4, 4))) + 0.1
    assert np.array_equal(nm.relu(x), x)


@pytest.mark.parametrize("seed", range(10))
def test_relu_backward_away_from_kink(seed):
    rng = make_rng(100 + seed)
    x = rng.standard_normal((1, 2, 4, 4))
    x[np.abs(x) <= 1e-3] = 0.5  # keep away from the non-differentiable point
    up = rng.standard_normal(x.shape)

    def loss(xv):
        return float((nm.relu(xv) * up).sum())

    assert rel_err(nm.relu_backward(x, up), nm.finite_diff_grad(loss, x, 1e-6)) < 1e-6


def where_relu_backward(x, d_out):
    """The np.where form relu_backward replaced: the byte oracle."""
    return np.where(x > 0, d_out, 0.0)


def tie_grid(shape, seed):
    """Relu'd values from a few levels (ties and zeros), and gradients with
    zeros, -0.0 and negatives."""
    rng = make_rng(seed)
    x = nm.relu(rng.integers(-2, 3, size=shape).astype(float))
    d = rng.standard_normal(shape)
    d[rng.random(shape) < 0.2] = 0.0
    d[rng.random(shape) < 0.2] = -0.0
    return x, d


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(32, 8, 32, 32), (3, 2, 7, 5)])
def test_relu_backward_bytes_equal_where_form(shape):
    x, d = tie_grid(shape, shape[0])
    x[0, 0, 0, :3] = [-0.0, 0.0, -1.5]  # signed zeros and a negative input
    # a -0.0 gradient at x > 0 is the one input the two forms differ on
    # (+0.0 here, -0.0 there); no caller produces it
    d[(x > 0) & (d == 0)] = 0.0
    got = nm.relu_backward(x, d)
    assert same_bytes(got, where_relu_backward(x, d))
    assert not np.signbit(got[got == 0]).any()


def where_maxpool2d_backward(x, d_out, window):
    """The np.where form maxpool2d_backward replaced: the byte oracle."""
    pooled = nm.maxpool2d(x, window)
    d_x = np.zeros(x.shape)
    taken = np.zeros(pooled.shape, dtype=bool)
    for idx in nm._pool_offsets(x.shape, window):
        hit = (x[idx] == pooled) & ~taken
        taken |= hit
        d_x[idx] += np.where(hit, d_out, 0.0)
    return d_x


@pytest.mark.parametrize("shape", [(32, 8, 32, 32), (32, 16, 16, 16), (3, 2, 7, 5)])
@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_backward_bytes_equal_where_form(shape, window):
    x, _ = tie_grid(shape, shape[1] + window)
    _, d = tie_grid(nm.maxpool2d(x, window).shape, shape[2] + window)
    assert same_bytes(nm.maxpool2d_backward(x, d, window),
                      where_maxpool2d_backward(x, d, window))


# ---------------------------------------------------------------------------
# maxpool


def test_maxpool_basic():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    assert nm.maxpool2d(x, 2).ravel()[0] == 4.0


def test_maxpool_tie_routes_to_first():
    x = np.ones((1, 1, 2, 2))
    up = np.full((1, 1, 1, 1), 5.0)
    d = nm.maxpool2d_backward(x, up, 2)
    assert d[0, 0, 0, 0] == 5.0
    assert d.sum() == 5.0


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError):
        nm.maxpool2d(np.zeros((1, 1, 2, 2)), 3)


def test_maxpool_truncates_trailing():
    x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
    y = nm.maxpool2d(x, 2)
    assert y.shape == (1, 1, 2, 2)
    assert y[0, 0, 1, 1] == 18.0


def windows_maxpool(x, window, stride):
    """Reference max-pool: sliding windows, argmax routing through np.add.at."""
    win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    return win, win.max(axis=(4, 5))


def windows_maxpool_backward(x, d_out, window, stride):
    win, _ = windows_maxpool(x, window, stride)
    n, c, oh, ow = win.shape[:4]
    arg = win.reshape(n, c, oh, ow, -1).argmax(axis=-1)
    rows, cols = arg // window, arg % window
    ni, ci, oi, oj = np.indices((n, c, oh, ow))
    d_x = np.zeros_like(x)
    np.add.at(d_x, (ni, ci, oi * stride + rows, oj * stride + cols), d_out)
    return d_x


@pytest.mark.parametrize("shape", [(1, 8, 32, 32), (32, 8, 32, 32), (3, 2, 7, 5), (2, 3, 5, 9)])
@pytest.mark.parametrize("window, stride", [(2, 2), (3, 3)])
def test_maxpool_equals_windows_reference(shape, window, stride):
    """The pool equals the general windowed reference run at stride = window:
    forward and backward bit-identical, odd extents (truncated windows) and
    relu-zero ties included."""
    rng = make_rng(shape[0] * 100 + shape[2] + window)
    x = nm.relu(rng.standard_normal(shape))  # many all-zero windows: ties
    _, ref = windows_maxpool(x, window, stride)
    y = nm.maxpool2d(x, window)
    assert y.shape == ref.shape and np.array_equal(y, ref)
    up = rng.standard_normal(y.shape)
    d = nm.maxpool2d_backward(x, up, window)
    assert np.array_equal(d, windows_maxpool_backward(x, up, window, stride))


@pytest.mark.parametrize("seed", range(10))
def test_maxpool_backward_matches_finite_differences(seed):
    rng = make_rng(200 + seed)
    # distinct values keep the argmax stable under the probe perturbation
    x = rng.permutation(72).astype(float).reshape(1, 2, 6, 6)
    up = rng.standard_normal((1, 2, 3, 3))

    def loss(xv):
        return float((nm.maxpool2d(xv, 2) * up).sum())

    d = nm.maxpool2d_backward(x, up, 2)
    assert rel_err(d, nm.finite_diff_grad(loss, x, 1e-4)) < 1e-6


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    x = np.arange(6, dtype=float).reshape(2, 3)
    y = nm.dense(x, np.eye(3), np.zeros(3))
    assert np.array_equal(y, x)


def test_dense_gradient_is_weight_row():
    w = np.array([[1.5, -2.0, 0.5]])
    x = np.zeros((1, 3))

    d_x, _, _ = nm.dense_backward(x, w, np.ones((1, 1)))
    assert np.array_equal(d_x, w)


def test_dense_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.dense(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))


@pytest.mark.parametrize("seed", range(10))
def test_dense_backward_matches_finite_differences(seed):
    rng = make_rng(300 + seed)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(4)
    up = rng.standard_normal((3, 4))

    def loss_x(xv):
        return float((nm.dense(xv, w, b) * up).sum())

    def loss_w(wv):
        return float((nm.dense(x, wv, b) * up).sum())

    def loss_b(bv):
        return float((nm.dense(x, w, bv) * up).sum())

    d_x, d_w, d_b = nm.dense_backward(x, w, up)
    assert rel_err(d_x, nm.finite_diff_grad(loss_x, x, 1e-6)) < 1e-6
    assert rel_err(d_w, nm.finite_diff_grad(loss_w, w, 1e-6)) < 1e-6
    assert rel_err(d_b, nm.finite_diff_grad(loss_b, b, 1e-6)) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_softmax_ce_uniform_two_class():
    loss, d = nm.softmax_cross_entropy(np.array([0.0, 0.0]), 0)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert d == pytest.approx(np.array([-0.5, 0.5]), abs=1e-12)


def test_softmax_ce_saturated():
    loss, d = nm.softmax_cross_entropy(np.array([10.0, -10.0]), 0)
    assert loss < 1e-8
    assert abs(d[0]) < 1e-8


def test_softmax_ce_gradient_sums_to_zero():
    rng = make_rng(9)
    for _ in range(20):
        s = rng.standard_normal(5) * 10
        _, d = nm.softmax_cross_entropy(s, int(rng.integers(5)))
        assert abs(d.sum()) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_softmax_ce_matches_finite_differences(seed):
    rng = make_rng(400 + seed)
    s = rng.standard_normal(4)
    label = int(rng.integers(4))

    def loss(sv):
        return nm.softmax_cross_entropy(sv.ravel(), label)[0]

    _, d = nm.softmax_cross_entropy(s, label)
    assert rel_err(d, nm.finite_diff_grad(loss, s, 1e-6)) < 1e-6


def test_softmax_ce_batch_mean_reduction():
    s = np.array([[0.0, 0.0], [0.0, 0.0]])
    loss, d = nm.softmax_cross_entropy(s, np.array([0, 1]))
    assert loss == pytest.approx(np.log(2.0))
    assert d.shape == (2, 2)
    assert abs(d.sum()) < 1e-12


def test_softmax_ce_label_out_of_range():
    with pytest.raises(ShapeError):
        nm.softmax_cross_entropy(np.zeros(3), 3)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_zero_gradient_keeps_params():
    p, v = nm.sgd_update(np.array([1.0, 2.0]), np.zeros(2), 0.1, 0.9)
    assert np.array_equal(p, [1.0, 2.0])
    assert np.array_equal(v, np.zeros(2))


def test_sgd_single_step():
    p, _ = nm.sgd_update(np.array([1.0]), np.array([0.5]), lr=1.0, momentum=0.0)
    assert p[0] == 0.5


def test_sgd_converges_on_quadratic():
    # f(p) = 0.5 * sum(a * (p - m)^2), minimizer m known in closed form
    a = np.array([1.0, 2.0, 0.5])
    m = np.array([3.0, -1.0, 0.25])
    p = np.zeros(3)
    v = None
    for _ in range(100):
        g = a * (p - m)
        p, v = nm.sgd_update(p, g, lr=0.3, momentum=0.5, velocity=v)
    assert np.abs(p - m).max() < 1e-6


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.sgd_update(np.zeros(3), np.zeros(2), 0.1, 0.0)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_of_sum_is_ones():
    g = nm.finite_diff_grad(lambda t: float(t.sum()), np.zeros((1, 1, 2, 2)))
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_of_square():
    g = nm.finite_diff_grad(lambda t: float((t ** 2).sum()), np.array([3.0]), eps=1e-4)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_cross_checks_dense():
    rng = make_rng(77)
    x = rng.standard_normal((1, 6))
    w = rng.standard_normal((1, 6))

    def f(xv):
        return float(nm.dense(xv.reshape(1, 6), w, np.zeros(1)).sum())

    g = nm.finite_diff_grad(f, x, 1e-6)
    d_x, _, _ = nm.dense_backward(x, w, np.ones((1, 1)))
    assert rel_err(g, d_x) < 1e-6


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        nm.finite_diff_grad(lambda t: 0.0, np.zeros(2), eps=0.0)
