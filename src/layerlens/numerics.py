"""Float64 forward/backward primitives for small convolutional networks.

Every operation is a pure function: arrays in, new arrays out, no hidden
state. Analytic backward passes are checked against ``finite_diff_grad``
in the test suite. Activations live in (batch, channels, height, width)
rank-4 arrays throughout.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

# Rank-4 activation array: (batch, channels, height, width), float64.
Tensor4 = np.ndarray


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def check_tensor4(x, name: str = "input") -> np.ndarray:
    x = as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"{name}: expected rank-4 (n, c, h, w), got shape {x.shape}")
    return x


# conv2d (k > 1) builds and multiplies its patch matrix in slabs of whole
# images, each at most this many bytes of patch rows (at least one image)
_SLAB_BYTES = 512 << 10


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """(n, c, h, w, k, k) view of every k x k window of ``x`` zero-padded by k // 2."""
    if k == 1:  # x itself, without sliding_window_view's call cost
        return x[..., None, None]
    p = k // 2
    n, c, h, w = x.shape
    # zeros plus a copy: the values of np.pad, faster on small batches
    padded = np.zeros((n, c, h + 2 * p, w + 2 * p))
    padded[:, :, p:p + h, p:p + w] = x
    return sliding_window_view(padded, (k, k), axis=(2, 3))


def conv2d(x, kernel, bias=None) -> Tensor4:
    """Cross-correlation of ``x`` (n, c, h, w) with ``kernel`` (out_c, c, k, k),
    odd k, at stride 1 over ``x`` zero-padded by k // 2: the output keeps
    the input's height and width.

    The output is the flattened kernel times the kernel-major patch matrix
    P ("im2col", shape (c*k*k, n*h*w)): rows run over (channel, kernel row,
    kernel column) and columns over (image, output row, output column), so
    each contiguous run the copy makes is one whole output row. The product
    is one GEMM per image: an image's product, (out_c, h*w), is its block
    of the output, so the GEMM writes it in place and nothing is copied
    transposed. P is built one slab of whole images at a time, each at most
    ``_SLAB_BYTES`` (at least one image), so a slab is multiplied while it
    is still in cache. A 1x1 kernel's P is ``x`` itself, not a copy, and is
    one slab.

    Every output column is the same kernel row times the same patch column
    in any slab, and BLAS sums it over c*k*k in the same order whatever
    the GEMM's width, so neither the slabs nor the per-image GEMMs move a
    bit: the tests compare bytes with a window-layout reference at batches
    of 1 to 150, with short last slabs.
    """
    x = check_tensor4(x, "conv input")
    kernel = as_f64(kernel)
    if kernel.ndim != 4:
        raise ShapeError(f"conv kernel: expected rank-4, got shape {kernel.shape}")
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = kernel.shape
    if in_c != c:
        raise ShapeError(
            f"conv channel mismatch: input shape {x.shape} has {c} channels, "
            f"kernel shape {kernel.shape} expects {in_c}"
        )
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv kernel {kernel.shape[2:]} is not square with an odd edge")
    rows, win = kernel.reshape(out_c, -1), _windows(x, kh)
    image_bytes = 8 * c * kh * kh * h * w
    slab = max(1, _SLAB_BYTES // image_bytes if kh > 1 and image_bytes else n)
    y = np.empty((n, out_c, h, w))
    for a in range(0, n, slab):
        part = win[a:a + slab]  # each image's columns of P, as (images, c*k*k, h*w)
        patches = part.transpose(0, 1, 4, 5, 2, 3).reshape(len(part), -1, h * w)
        np.matmul(rows, patches, out=y[a:a + slab].reshape(len(part), out_c, h * w))
    if bias is not None:
        bias = as_f64(bias)
        if bias.shape != (out_c,):
            raise ShapeError(f"conv bias shape {bias.shape} != ({out_c},)")
        y += bias[None, :, None, None]
    return y


def conv2d_param_grads(x, kernel_shape, d_out):
    """Kernel/bias gradients only (cheaper when the input is frozen).

    The kernel gradient is one product ``D @ W``: D is d_out as a contiguous
    (out_c, n*h*w) matrix and W the contiguous (n*h*w, k*k*c) window
    matrix, copied once from a channels-last copy of ``x`` zero-padded by
    k // 2, so each run the copy makes is one pixel's c channels. The
    product's columns run over (kernel row, kernel column, channel) and are
    put in the kernel's (channel, row, column) order afterwards. On a 1x1
    kernel (the detection head) W is ``x`` in channels-last order.

    The sum runs over n*h*w as in the tests' reference, the (out_c, n*h*w)
    by (n*h*w, c*k*k) product of ``np.tensordot``, and the column order
    moves no bit on the preset net and the detection head, whose bytes the
    tests compare with the reference at every batch tried. Where OpenBLAS
    takes its small-matrix kernels on narrower layers (4 input channels at
    batches of up to 18), the bits depend on the column order and differ
    from the reference's.

    W is built whole, unlike ``conv2d``'s slabs: splitting the sum over
    n*h*w by images changes its bits. Nor is it held from the forward:
    holding every layer's patch matrix over an E2E step was no faster in 3
    benchmark pairs and raised the train workload's peak RSS from 112 to
    154 MiB.

    Two traps:

    - The result is C-contiguous: ``training.clip_gradients`` sums in C
      order whatever the layout, so a view would keep its bits, but would
      cost it a copy of every kernel gradient.
    - At one image, ``d_out.transpose(1, 0, 2, 3).reshape(out_c, -1)`` and
      a 1x1 kernel's window matrix are strided views (h and w merge), and
      BLAS then takes another kernel whose bits differ; hence both operands
      are copied contiguous.
    """
    x = check_tensor4(x, "conv input")
    d_out = check_tensor4(d_out, "conv upstream gradient")
    n, c, h, w = x.shape
    out_c, k = d_out.shape[1], kernel_shape[2]
    x = x.transpose(0, 2, 3, 1)
    if k == 1:  # x itself, without sliding_window_view's call cost
        win = x[..., None, None]
    else:  # as in _windows, channels last
        p = k // 2
        padded = np.zeros((n, h + 2 * p, w + 2 * p, c))
        padded[:, p:p + h, p:p + w] = x
        win = sliding_window_view(padded, (k, k), axis=(1, 2))  # (n, h, w, c, k, k)
    windows = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, k * k * c)
    d = np.ascontiguousarray(d_out.transpose(1, 0, 2, 3)).reshape(out_c, -1)
    d_kernel = (d @ windows).reshape(out_c, k, k, c).transpose(0, 3, 1, 2)
    d_bias = d_out.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(d_kernel).reshape(kernel_shape), d_bias


def conv2d_backward(x, kernel, d_out, *, want_input: bool = True, want_params: bool = True):
    """Analytic gradients of conv2d: returns (d_input, d_kernel, d_bias).

    The input gradient is the same-padded conv of ``d_out`` with the flipped
    kernel. ``want_input=False`` skips it and ``want_params=False`` the
    kernel and bias gradients; a skipped entry is returned as None. What is
    computed is identical to the full call.
    """
    x = check_tensor4(x, "conv input")
    kernel = as_f64(kernel)
    d_out = check_tensor4(d_out, "conv upstream gradient")
    d_kernel = d_bias = d_input = None
    if want_params:
        d_kernel, d_bias = conv2d_param_grads(x, kernel.shape, d_out)
    if want_input:
        d_input = conv2d(d_out, kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return d_input, d_kernel, d_bias


def relu(x) -> np.ndarray:
    return np.maximum(as_f64(x), 0.0)


def relu_backward(x, d_out) -> np.ndarray:
    """``d_out`` where ``x > 0``, else +0.0, for finite ``d_out``.

    Adding 0.0 turns the -0.0 that a negative gradient times False gives
    into +0.0. It would also turn a -0.0 gradient at ``x > 0`` into +0.0, but
    none reaches here: GEMM sums start at +0.0, and the pool backward adds
    into zeros.
    """
    d_x = as_f64(d_out) * (as_f64(x) > 0)
    d_x += 0.0
    return d_x


def _pool_offsets(shape: tuple, window: int) -> list[tuple]:
    """One index per window offset, in row-major offset order.

    Indexing a (n, c, h, w) array with the entry for offset (di, dj) gives a
    view of pooled shape (n, c, h // window, w // window) holding every
    window's element at that offset; trailing partial windows are truncated.
    """
    h, w = shape[2:]
    rows, cols = h - h % window, w - w % window
    return [(slice(None), slice(None), slice(di, rows, window), slice(dj, cols, window))
            for di in range(window) for dj in range(window)]


def maxpool2d(x, window: int) -> Tensor4:
    """Maximum over non-overlapping window x window blocks, partial ones truncated."""
    x = check_tensor4(x, "pool input")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"pool window {window} larger than input spatial dims {(h, w)}")
    first, *rest = _pool_offsets(x.shape, window)
    out = x[first].copy()
    for idx in rest:
        np.maximum(out, x[idx], out=out)
    return out


def maxpool2d_backward(x, d_out, window: int) -> np.ndarray:
    """Routes gradient to each window's argmax, first occurrence in row-major order.

    Offsets are visited in row-major order and ``taken`` marks the windows
    already routed, so a tied maximum sends the gradient to its first
    occurrence only. Each element of ``x`` is written once; adding 0.0 at
    the end makes the -0.0 of a negative gradient times False +0.0, as
    adding that product into zeros would.
    """
    x = check_tensor4(x, "pool input")
    d_out = check_tensor4(d_out, "pool upstream gradient")
    pooled = maxpool2d(x, window)
    d_x = np.zeros(x.shape)
    taken = np.zeros(pooled.shape, dtype=bool)
    for idx in _pool_offsets(x.shape, window):
        hit = (x[idx] == pooled) & ~taken
        taken |= hit
        np.multiply(d_out, hit, out=d_x[idx])
    d_x += 0.0
    return d_x


def dense(x, weights, bias) -> np.ndarray:
    """Affine map: x (n, d) @ weights (k, d)^T + bias (k,)."""
    x = as_f64(x)
    weights = as_f64(weights)
    bias = as_f64(bias)
    if x.ndim != 2:
        raise ShapeError(f"dense input: expected rank-2 (n, d), got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[1]:
        raise ShapeError(
            f"dense shape mismatch: input {x.shape} vs weights {weights.shape} "
            f"(weight columns must equal input length)"
        )
    return x @ weights.T + bias


def dense_backward(x, weights, d_out):
    """Returns (d_input, d_weights, d_bias)."""
    x, weights, d_out = as_f64(x), as_f64(weights), as_f64(d_out)
    d_input = d_out @ weights
    d_weights = d_out.T @ x
    d_bias = d_out.sum(axis=0)
    return d_input, d_weights, d_bias


def softmax(scores) -> np.ndarray:
    s = as_f64(scores)
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(scores, labels):
    """Negative log-softmax loss.

    Accepts a single score vector with an integer label, or a (n, k) batch
    with (n,) labels; batches are mean-reduced (gradient divided by n).
    Returns (loss, d_scores). The max-shift keeps exp() overflow-safe.
    """
    s = as_f64(scores)
    single = s.ndim == 1
    s2 = s[None, :] if single else s
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = s2.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match scores {s2.shape}")
    if np.any(y < 0) or np.any(y >= k):
        raise ShapeError(f"label out of range [0, {k}) in {y}")
    z = s2 - s2.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) - z[np.arange(n), y]
    loss = float(losses.mean())
    d = e / total
    d[np.arange(n), y] -= 1.0
    d /= n
    return loss, (d[0] if single else d)


def sgd_update(params, grads, lr: float, momentum: float, velocity=None):
    """Classic momentum step: v' = momentum*v - lr*g; p' = p + v'.

    Returns (new_params, new_velocity); pass the velocity back in on the
    next call. Pure function of its inputs, hence deterministic.
    """
    p, g = as_f64(params), as_f64(grads)
    if p.shape != g.shape:
        raise ShapeError(f"sgd shapes differ: params {p.shape} vs grads {g.shape}")
    v = np.zeros_like(p) if velocity is None else as_f64(velocity)
    if v.shape != p.shape:
        raise ShapeError(f"sgd velocity shape {v.shape} != params {p.shape}")
    v_new = momentum * v - lr * g
    return p + v_new, v_new


def finite_diff_grad(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued f at x, per coordinate."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = as_f64(x)
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += eps
        xm[i] -= eps
        g.ravel()[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return g
