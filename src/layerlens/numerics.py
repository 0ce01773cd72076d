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


def _pair(v) -> tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (int(v), int(v))


def _out_len(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad) -> np.ndarray:
    """Strided view of all (kh, kw) patches, subsampled by stride.

    Returns shape (n, c, oh, ow, kh, kw) over the zero-padded input.
    """
    ph, pw = _pair(pad)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, pad) -> np.ndarray:
    """Kernel-major patch matrix ("im2col") of shape (c*kh*kw, n*oh*ow).

    Rows run over (channel, kernel row, kernel column) and columns over
    (image, output row, output column), so each contiguous run the copy
    makes is one whole output row.
    """
    win = _windows(x, kh, kw, stride, pad)
    n, c, oh, ow = win.shape[:4]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * oh * ow)


def conv2d(x, kernel, bias=None, stride: int = 1, pad=0) -> Tensor4:
    """Cross-correlation of ``x`` (n, c, h, w) with ``kernel`` (out_c, c, kh, kw)."""
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
    if stride < 1:
        raise ShapeError(f"conv stride must be >= 1, got {stride}")
    ph, pw = _pair(pad)
    oh, ow = _out_len(h, kh, stride, ph), _out_len(w, kw, stride, pw)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv output collapses: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, pad {pad} -> ({oh}, {ow})"
        )
    y = kernel.reshape(out_c, -1) @ _patches(x, kh, kw, stride, pad)
    y = np.ascontiguousarray(y.reshape(out_c, n, oh, ow).transpose(1, 0, 2, 3))
    if bias is not None:
        bias = as_f64(bias)
        if bias.shape != (out_c,):
            raise ShapeError(f"conv bias shape {bias.shape} != ({out_c},)")
        y += bias[None, :, None, None]
    return y


def conv2d_param_grads(x, kernel_shape, d_out, stride: int = 1, pad=0):
    """Kernel/bias gradients only (cheaper when the input is frozen).

    This product keeps the (n*oh*ow, c*kh*kw) patch layout of ``_windows``
    rather than the kernel-major ``_patches`` that ``conv2d`` uses. A
    kernel-major kernel gradient differs in the last bits at layer 0 of the
    preset net on batches of 13 rows or fewer, and preset-localise ends
    every epoch with such a batch (2027 or 2028 train images at batch 32),
    so it would move every trained weight. That is the one reason for two
    patch layouts.
    """
    x = check_tensor4(x, "conv input")
    d_out = check_tensor4(d_out, "conv upstream gradient")
    out_c, in_c, kh, kw = kernel_shape
    win = _windows(x, kh, kw, stride, pad)
    d_kernel = np.tensordot(d_out, win, axes=([0, 2, 3], [0, 2, 3]))
    d_bias = d_out.sum(axis=(0, 2, 3))
    return d_kernel, d_bias


def _grid_slices(n_out: int, size: int, k: int, pad: int, stride: int) -> tuple[slice, slice]:
    """(destination, source) slices that place output positions 0..n_out-1
    at k-1-pad + stride*i along one axis of a (size+k-1)-long array,
    keeping only the positions that land inside it."""
    offset = k - 1 - pad
    first = max(0, -(offset // stride))  # ceil(-offset / stride) when offset < 0
    last = min(n_out - 1, (size + k - 2 - offset) // stride)
    if last < first:
        return slice(0, 0), slice(0, 0)
    start = offset + stride * first
    return (slice(start, offset + stride * last + 1, stride), slice(first, last + 1))


def conv2d_backward(x, kernel, d_out, stride: int = 1, pad=0, *,
                    want_input: bool = True, want_params: bool = True):
    """Analytic gradients of conv2d: returns (d_input, d_kernel, d_bias).

    ``want_input=False`` skips the input gradient and ``want_params=False``
    the kernel and bias gradients; a skipped entry is returned as None. What
    is computed is identical to the full call.
    """
    x = check_tensor4(x, "conv input")
    kernel = as_f64(kernel)
    d_out = check_tensor4(d_out, "conv upstream gradient")
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = kernel.shape
    ph, pw = _pair(pad)

    d_kernel = d_bias = d_input = None
    if want_params:
        d_kernel, d_bias = conv2d_param_grads(x, kernel.shape, d_out, stride, pad)
    if want_input:
        # transposed convolution at the input's exact size: scatter d_out on
        # the stride grid of a (h+kh-1, w+kw-1) array at offset
        # (kh-1-ph, kw-1-pw), then correlate with the flipped kernel. Output
        # positions whose window lies wholly in the padding fall outside the
        # array and are dropped; they reach no input pixel.
        d_z = np.zeros((n, out_c, h + kh - 1, w + kw - 1), dtype=np.float64)
        rows = _grid_slices(d_out.shape[2], h, kh, ph, stride)
        cols = _grid_slices(d_out.shape[3], w, kw, pw, stride)
        d_z[:, :, rows[0], cols[0]] = d_out[:, :, rows[1], cols[1]]
        k_flip = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        d_input = conv2d(d_z, k_flip)
    return d_input, d_kernel, d_bias


def relu(x) -> np.ndarray:
    return np.maximum(as_f64(x), 0.0)


def relu_backward(x, d_out) -> np.ndarray:
    x = as_f64(x)
    return np.where(x > 0, as_f64(d_out), 0.0)


def _pool_offsets(shape: tuple, window: int, stride: int) -> list[tuple]:
    """One index per window offset, in row-major offset order.

    Indexing a (n, c, h, w) array with the entry for offset (di, dj) gives a
    view of pooled shape (n, c, oh, ow) holding every window's element at
    that offset; trailing partial windows are truncated.
    """
    h, w = shape[2:]
    rows = stride * (_out_len(h, window, stride, 0) - 1) + 1
    cols = stride * (_out_len(w, window, stride, 0) - 1) + 1
    return [(slice(None), slice(None), slice(di, di + rows, stride), slice(dj, dj + cols, stride))
            for di in range(window) for dj in range(window)]


def maxpool2d(x, window: int, stride: int | None = None) -> Tensor4:
    """Per-window maximum; trailing partial windows are truncated."""
    x = check_tensor4(x, "pool input")
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"pool window {window} larger than input spatial dims {(h, w)}")
    first, *rest = _pool_offsets(x.shape, window, stride)
    out = x[first].copy()
    for idx in rest:
        np.maximum(out, x[idx], out=out)
    return out


def maxpool2d_backward(x, d_out, window: int, stride: int | None = None) -> np.ndarray:
    """Routes gradient to each window's argmax, first occurrence in row-major order.

    Offsets are visited in row-major order and ``taken`` marks the windows
    already routed, so a tied maximum sends the gradient to its first
    occurrence only.
    """
    x = check_tensor4(x, "pool input")
    d_out = check_tensor4(d_out, "pool upstream gradient")
    stride = window if stride is None else stride
    pooled = maxpool2d(x, window, stride)
    d_x = np.zeros(x.shape)
    taken = np.zeros(pooled.shape, dtype=bool)
    for idx in _pool_offsets(x.shape, window, stride):
        hit = (x[idx] == pooled) & ~taken
        taken |= hit
        d_x[idx] += np.where(hit, d_out, 0.0)
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
