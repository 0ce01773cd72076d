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


def _patches(x: np.ndarray, k: int) -> np.ndarray:
    """Kernel-major patch matrix ("im2col") of ``x`` zero-padded by k // 2,
    shape (c*k*k, n*h*w).

    Rows run over (channel, kernel row, kernel column) and columns over
    (image, output row, output column), so each contiguous run the copy
    makes is one whole output row.
    """
    n, c, h, w = x.shape
    p = k // 2
    if p:  # zeros plus a copy: the values of np.pad, faster on small batches
        padded = np.zeros((n, c, h + 2 * p, w + 2 * p))
        padded[:, :, p:p + h, p:p + w] = x
        x = padded
    win = sliding_window_view(x, (k, k), axis=(2, 3))
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * h * w)


def conv2d(x, kernel, bias=None) -> Tensor4:
    """Cross-correlation of ``x`` (n, c, h, w) with ``kernel`` (out_c, c, k, k),
    odd k, at stride 1 over ``x`` zero-padded by k // 2: the output keeps
    the input's height and width."""
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
    y = kernel.reshape(out_c, -1) @ _patches(x, kh)
    y = np.ascontiguousarray(y.reshape(out_c, n, h, w).transpose(1, 0, 2, 3))
    if bias is not None:
        bias = as_f64(bias)
        if bias.shape != (out_c,):
            raise ShapeError(f"conv bias shape {bias.shape} != ({out_c},)")
        y += bias[None, :, None, None]
    return y


def conv2d_param_grads(x, kernel_shape, d_out):
    """Kernel/bias gradients only (cheaper when the input is frozen).

    The kernel gradient is one product of d_out, as D of shape
    (out_c, n*h*w), with the kernel-major patch matrix P = ``_patches(x, k)``
    of shape (c*k*k, n*h*w) that ``conv2d`` uses. P is rebuilt here, not
    held from the forward: holding it adds about a quarter to training's
    peak memory. The form of the product keeps its bits equal to those of
    the tests' reference, a product in the (n*h*w, c*k*k) window layout,
    on the preset net and the detection head at every batch:

    - several input channels: ``(P @ Dt).T`` with Dt the contiguous
      (n*h*w, out_c) transpose of D. ``D @ P.T`` on the view differs in
      the last bits (preset layer 1 at one image, layer 2 at up to three).
    - one input channel or a 1x1 kernel: ``D @ Pt`` with Pt the contiguous
      copy of P.T. On one channel Pt has only k*k columns, and ``(P @ Dt).T``
      differs there on batches of 13 images or fewer. On a 1x1 kernel (the
      detection head) Pt is ``x`` in channels-last order, copied once
      without building P; this is faster than ``(P @ Dt).T`` there.

    Two traps:

    - The result is C-contiguous, although the ``(P @ Dt).T`` view has the
      same values and the same ``tobytes()``: ``training.clip_gradients``
      sums in C order whatever the layout, so a view would keep its bits,
      but would cost it a copy of every kernel gradient.
    - At one image, ``d_out.transpose(0, 2, 3, 1).reshape(-1, out_c)`` is
      a strided view (h and w merge), and BLAS then takes another kernel
      whose bits differ; hence every operand is copied contiguous.
    """
    x = check_tensor4(x, "conv input")
    d_out = check_tensor4(d_out, "conv upstream gradient")
    out_c, c, k = d_out.shape[1], x.shape[1], kernel_shape[2]
    if c > 1 and k > 1:
        d_t = np.ascontiguousarray(d_out.transpose(0, 2, 3, 1)).reshape(-1, out_c)
        d_kernel = np.ascontiguousarray((_patches(x, k) @ d_t).T)
    else:
        d = np.ascontiguousarray(d_out.transpose(1, 0, 2, 3)).reshape(out_c, -1)
        if k == 1:  # P.T is x in channels-last order
            patches_t = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, c)
        else:
            patches_t = np.ascontiguousarray(_patches(x, k).T)
        d_kernel = d @ patches_t
    d_bias = d_out.sum(axis=(0, 2, 3))
    return d_kernel.reshape(kernel_shape), d_bias


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
