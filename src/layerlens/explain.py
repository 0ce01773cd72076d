"""Per-layer attribution maps: input-gradient saliency, Grad-CAM at any tap,
and LIME over a square superpixel grid, plus Gaussian post-smoothing.

Saliency and Grad-CAM turn the arrays of one ``network.backward_to_tap``
pass into maps; they run no network themselves, so one pass to taps
``(*taps, 0)`` serves both, for a whole batch of images. Their maps, the
smoothing and the resize work on stacks: any leading axes are images (or
maps), and each map gets the bytes it would get alone. LIME scores its
perturbations through a black box the caller supplies. All explainers are
pure, so per-image calls can run concurrently. Maps are nonnegative
(..., h, w) arrays aligned to input pixels; coarser taps are bilinearly
upsampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import DegenerateDesign, ShapeError


@dataclass
class AttributionMap:
    """Nonnegative heatmap over input pixels, or a stack of them."""

    values: np.ndarray  # (..., h, w), float64, >= 0

    def __post_init__(self):
        v = nm.as_f64(self.values)
        if v.ndim < 2:
            raise ShapeError(f"attribution map must be at least 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("attribution map contains non-finite values")
        if v.min() < 0:
            raise ShapeError("attribution map contains negative values")
        self.values = v


def bilinear_resize(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the last two axes with half-pixel-centre sampling;
    preserves constants."""
    v = nm.as_f64(values)
    h, w = v.shape[-2:]
    if (h, w) == (out_h, out_w):
        return v.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)[:, None]
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys[:, None] - y0
    wx = (xs - x0)[None, :]
    return ((1 - wy) * (1 - wx) * v[..., y0, x0]
            + (1 - wy) * wx * v[..., y0, x1]
            + wy * (1 - wx) * v[..., y1, x0]
            + wy * wx * v[..., y1, x1])


def saliency(grad) -> AttributionMap:
    """Absolute input gradient of the class score, channel-reduced by max;
    ``grad`` is the (..., c, h, w) gradient at tap 0, of one image or a
    stack of them."""
    return AttributionMap(np.abs(grad).max(axis=-3))


def cam_values(activations: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Channel-importance weighted activation map, rectified.

    ``activations`` and ``gradients`` are (..., k, h, w): one image's
    channels, or a stack of images'. Each channel's weight is the spatial
    mean of the class-score gradient over that channel's activation map;
    negative totals are clipped since channels that lower the score are not
    of interest.
    """
    a = nm.as_f64(activations)
    g = nm.as_f64(gradients)
    if a.shape != g.shape or a.ndim < 3:
        raise ShapeError(
            f"activations {a.shape} and gradients {g.shape} must both be (..., k, h, w)")
    alphas = g.mean(axis=(-2, -1))
    return np.maximum((alphas[..., None, None] * a).sum(axis=-3), 0.0)


def grad_cam(activations, gradients, out_shape) -> AttributionMap:
    """Gradient-weighted class activation maps of one tap, upsampled to
    ``out_shape``: the tap's (n, k, h, w) activations and gradients from a
    ``backward_to_tap`` call give (n, *out_shape) maps, one per image."""
    h, w = out_shape
    return AttributionMap(bilinear_resize(cam_values(activations, gradients), h, w))


def _reflect_index(n: int, radius: int) -> np.ndarray:
    """Indices of an axis of length ``n`` extended by ``radius`` on each side
    by half-sample reflection (dcba|abcd|dcba), repeating for axes shorter
    than the radius."""
    m = np.arange(-radius, n + radius) % (2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _correlate_down(x: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Correlate ``x`` down each column (axis -2) with the symmetric kernel
    whose centre and right half are ``half``, borders reflected.

    Each output is the centre term, then the pair sums ``(x[i-j] + x[i+j]) *
    half[j]`` added from the outermost ``j`` in: heatmap bytes depend on
    this order.
    """
    r = len(half) - 1
    n = x.shape[-2]
    ext = x[..., _reflect_index(n, r), :]
    out = ext[..., r:r + n, :] * half[0]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(ext[..., r - j:r - j + n, :], ext[..., r + j:r + j + n, :], out=pair)
        pair *= half[j]
        out += pair
    return out


def _gaussian_filter(stack: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of the (..., h, w) ``stack`` down its columns, then
    along its rows; the kernel is ``exp(-x^2 / 2 sigma^2)`` over ``|x| <=
    int(4 sigma + 0.5)``, normalised by its sum."""
    radius = int(4 * sigma + 0.5)
    if radius == 0:  # the kernel is [1.0]
        return stack.copy()
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    half = (phi / phi.sum())[radius:]
    down = _correlate_down(stack, half)
    return _correlate_down(down.swapaxes(-1, -2), half).swapaxes(-1, -2)


def gaussian_smooth(amap: AttributionMap, sigma: float) -> AttributionMap:
    """Normalized Gaussian blur of each map of ``amap`` with reflective
    borders; sigma 0 is identity.

    A stack of maps is blurred in one pass, each map getting the bytes it
    would get alone. Reflection plus a normalized symmetric kernel preserves
    total mass; the tiny negative round-off is clipped so maps stay
    nonnegative.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return AttributionMap(np.maximum(_gaussian_filter(amap.values, sigma), 0.0, order="C"))


# ---------------------------------------------------------------------------
# LIME


@dataclass
class SuperpixelGrid:
    """Square tiling of the image; ragged last row/column merge into edge patches."""

    patch_edge: int
    labels: np.ndarray  # (h, w) int patch ids, row-major over patches
    patch_count: int


def superpixel_grid(image_shape: tuple[int, int], patch_edge: int) -> SuperpixelGrid:
    h, w = image_shape
    if patch_edge < 1:
        raise ShapeError(f"patch_edge must be >= 1, got {patch_edge}")
    if patch_edge > h or patch_edge > w:
        raise ShapeError(f"patch_edge {patch_edge} exceeds image shape {(h, w)}")
    rows, cols = h // patch_edge, w // patch_edge
    ri = np.minimum(np.arange(h) // patch_edge, rows - 1)
    ci = np.minimum(np.arange(w) // patch_edge, cols - 1)
    labels = ri[:, None] * cols + ci[None, :]
    return SuperpixelGrid(patch_edge, labels.astype(np.int64), rows * cols)


@dataclass
class LimeExplanation:
    patch_weights: np.ndarray   # (p,)
    selected: tuple[int, ...]   # top-k patch ids
    samples: np.ndarray         # (n, p) binary presence vectors
    scores: np.ndarray          # (n,) black-box outputs
    intercept: float


def _ridge_fit(z: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Ridge regression with an unpenalized intercept, via centering."""
    zc = z - z.mean(axis=0)
    yc = y - y.mean()
    p = z.shape[1]
    w = np.linalg.solve(zc.T @ zc + lam * np.eye(p), zc.T @ yc)
    intercept = float(y.mean() - z.mean(axis=0) @ w)
    return w, intercept


def lime_explain(
    black_box,
    image,
    grid: SuperpixelGrid,
    n_samples: int,
    ridge_lambda: float,
    keep_prob: float,
    k: int,
    rng: np.random.Generator,
) -> LimeExplanation:
    """Perturbation-based patch attribution.

    Draws binary masks keeping each patch with probability ``keep_prob``
    (dropped patches are zeroed in the image), scores the (n, c, h, w) stack
    of perturbed images with one ``black_box`` call that returns (n,) scores,
    fits a ridge regression of the scores on the presence vectors, and
    selects the k highest-weight patches.
    """
    img = nm.as_f64(image)
    if img.ndim == 2:
        img = img[None]
    p = grid.patch_count
    if not 0 <= k <= p:
        raise ShapeError(f"k must be in 0..{p}, got {k}")
    z = (rng.random((n_samples, p)) < keep_prob).astype(np.float64)
    if n_samples > 1 and np.all(z == z[0]):
        raise DegenerateDesign(
            f"all {n_samples} perturbation masks identical (keep_prob={keep_prob})")
    scores = nm.as_f64(black_box(img[None] * z[:, grid.labels][:, None]))
    if scores.shape != (n_samples,):
        raise ShapeError(
            f"black box returned scores of shape {scores.shape}, expected ({n_samples},)")
    weights, intercept = _ridge_fit(z, scores, ridge_lambda)
    order = np.lexsort((np.arange(p), -weights))
    selected = tuple(int(i) for i in order[:k])
    return LimeExplanation(weights, selected, z, scores, intercept)


def lime_mask(image, explanation: LimeExplanation, grid: SuperpixelGrid):
    """Occlude everything outside the selected patches.

    Returns (occluded image, boolean mask true exactly on selected patches).
    """
    img = nm.as_f64(image)
    keep = np.zeros(grid.patch_count, dtype=bool)
    keep[list(explanation.selected)] = True
    mask = keep[grid.labels]
    occluded = img * mask if img.ndim == 2 else img * mask[None, :, :]
    return occluded, mask
