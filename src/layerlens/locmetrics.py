"""Localisation metrics: rank-based binarization, mask IOU, localisation
accuracy, LIME-vs-box overlap, and granulometry pattern spectra.

Binary masks are plain boolean (h, w) arrays; where an output needs an
origin tag (heatmap / box / LIME) it travels as a CSV column, not on the
array. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from . import numerics as nm
from .errors import ShapeError


@dataclass(frozen=True)
class GtBox:
    """Ground-truth region: top-left pixel (x, y), extent (w, h), class label."""

    x: int
    y: int
    w: int
    h: int
    label: int = 0

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ShapeError(f"box extent must be >= 1, got w={self.w} h={self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h

    def check_bounds(self, image_shape: tuple[int, int]) -> None:
        ih, iw = image_shape
        if self.x < 0 or self.y < 0 or self.x + self.w > iw or self.y + self.h > ih:
            raise ShapeError(f"box {self} out of bounds for image {image_shape}")


def _as_mask(m, name: str = "mask") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m.astype(bool)


def binarize_percentile(amap, percentile: float) -> np.ndarray:
    """Top-value mask with an exact pixel budget.

    The true count is exactly ceil((1 - p/100) * h * w) for every input:
    pixels are ranked by value, ties broken by row-major position, so even a
    constant map yields the same coverage as any other.
    """
    values = nm.as_f64(getattr(amap, "values", amap))
    if values.ndim != 2:
        raise ShapeError(f"attribution map must be 2-D, got shape {values.shape}")
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    n = values.size
    budget = math.ceil((1 - Fraction(percentile) / 100) * n)
    order = np.argsort(-values.ravel(), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:budget]] = True
    return mask.reshape(values.shape)


def iou(a, b) -> float:
    """Intersection-over-union of two same-shape masks; 0 when both are empty."""
    a, b = _as_mask(a, "mask a"), _as_mask(b, "mask b")
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 0.0
    return int(np.logical_and(a, b).sum()) / union


def localisation_accuracy(ious, threshold: float = 0.2) -> float:
    """Fraction of instances whose IOU strictly exceeds the threshold."""
    arr = nm.as_f64(ious)
    if arr.size == 0:
        raise ValueError("localisation accuracy of an empty sequence is undefined")
    return float((arr > threshold).mean())


class Overlap(NamedTuple):
    count: int
    fraction: float


def lime_overlap(mask, box: GtBox) -> Overlap:
    """True-pixel count of the mask inside the box, and that count over the
    box area."""
    mask = _as_mask(mask)
    box.check_bounds(mask.shape)
    count = int(mask[box.y:box.y + box.h, box.x:box.x + box.w].sum())
    return Overlap(count, count / box.area)


def rasterize_box(box: GtBox, image_shape: tuple[int, int]) -> np.ndarray:
    """Boolean mask true exactly inside the box (inclusive-exclusive)."""
    box.check_bounds(image_shape)
    mask = np.zeros(image_shape, dtype=bool)
    mask[box.y:box.y + box.h, box.x:box.x + box.w] = True
    return mask


# ---------------------------------------------------------------------------
# granulometry


@dataclass(frozen=True)
class GranulometrySpectrum:
    """Area removed by square openings of growing size.

    Entry s is the foreground area lost between the openings with structuring
    elements of edge 2(s-1)+1 and 2s+1; whatever survives the largest opening
    is folded into the final bucket, so the entries sum to the foreground
    area. The summary statistic is the area-weighted mean size.
    """

    sizes: tuple[int, ...]
    removed: tuple[float, ...]
    total_area: int
    mean_size: float


def _opening(mask: np.ndarray, size: int) -> np.ndarray:
    """Binary opening by the (2*size+1)-edge square, background outside.

    A square is separable, so erosion and dilation are running min and max
    filters; this equals ``ndimage.binary_opening`` with the dense square.
    """
    edge = 2 * size + 1
    eroded = ndimage.minimum_filter(mask, size=edge, mode="constant", cval=0)
    return ndimage.maximum_filter(eroded, size=edge, mode="constant", cval=0)


def granulometry(mask, max_size: int) -> GranulometrySpectrum:
    mask = _as_mask(mask)
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    total = int(mask.sum())
    sizes = tuple(range(1, max_size + 1))
    if total == 0:
        return GranulometrySpectrum(sizes, (0.0,) * max_size, 0, 0.0)
    removed = []
    prev_area = total
    for s in sizes:
        area = int(_opening(mask, s).sum())
        removed.append(float(prev_area - area))
        prev_area = area
        if area == 0:  # openings by nested squares are nested: all larger ones are empty
            break
    removed += [0.0] * (max_size - len(removed))
    removed[-1] += prev_area  # remainder goes to the final bucket
    weighted = sum(s * r for s, r in zip(sizes, removed))
    return GranulometrySpectrum(sizes, tuple(removed), total, weighted / total)
