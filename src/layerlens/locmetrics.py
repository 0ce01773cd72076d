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


def _box_table(values: np.ndarray, lead: int, h: int, w: int) -> np.ndarray:
    """Summed-area table of the (..., vh, vw) ``values`` laid ``lead`` rows
    and columns in from the top-left of a zero (..., h + lead, w + lead)
    array: entry (y, x) sums ``values`` over rows <= y - lead and columns
    <= x - lead."""
    table = np.zeros((*values.shape[:-2], h + lead, w + lead), np.int32)
    table[..., lead:lead + values.shape[-2], lead:lead + values.shape[-1]] = values
    np.cumsum(table, axis=-2, out=table)
    np.cumsum(table, axis=-1, out=table)
    return table


def _box_sums(table: np.ndarray, edge: int) -> np.ndarray:
    """Sums over every edge x edge window of a summed-area table."""
    return (table[..., edge:, edge:] - table[..., :-edge, edge:]
            - table[..., edge:, :-edge] + table[..., :-edge, :-edge])


def _opening(masks: np.ndarray, size: int, table: np.ndarray | None = None) -> np.ndarray:
    """Binary opening of (..., h, w) masks by the (2*size+1)-edge square,
    background outside.

    The opening is the union of the squares that fit inside the mask. The
    windows of the mask's summed-area table ``table`` (``_box_table(masks,
    1, h, w)``, shared by the openings of every size) that sum to a full
    square are those squares, by top-left corner; a pixel survives where a
    second table, of those corners, counts one within a square's reach.
    Exact on booleans, masks smaller than the square included.
    """
    edge = 2 * size + 1
    h, w = masks.shape[-2:]
    if table is None:
        table = _box_table(masks, 1, h, w)
    fits = _box_sums(table, edge) == edge * edge
    return _box_sums(_box_table(fits, edge, h, w), edge) > 0


def _spectrum(total: int, areas, max_size: int) -> GranulometrySpectrum:
    """Spectrum of a mask of area ``total`` from its openings' areas by size."""
    sizes = tuple(range(1, max_size + 1))
    if total == 0:
        return GranulometrySpectrum(sizes, (0.0,) * max_size, 0, 0.0)
    removed = [float(prev - area) for prev, area in zip((total, *areas), areas)]
    removed[-1] += areas[-1]  # remainder goes to the final bucket
    weighted = sum(s * r for s, r in zip(sizes, removed))
    return GranulometrySpectrum(sizes, tuple(removed), total, weighted / total)


def granulometry(masks, max_size: int):
    """Pattern spectrum of one (h, w) mask, or a list of them for an
    (n, h, w) stack, whose masks share every array pass of their openings."""
    masks = np.asarray(masks)
    if masks.ndim not in (2, 3):
        raise ShapeError(f"mask must be 2-D or a 3-D stack, got shape {masks.shape}")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    stack = masks.reshape(-1, *masks.shape[-2:]).astype(bool)
    areas = np.zeros((len(stack), max_size), np.int64)
    table = _box_table(stack, 1, *masks.shape[-2:])
    for s in range(1, max_size + 1):
        areas[:, s - 1] = _opening(stack, s, table).sum(axis=(1, 2))
        if not areas[:, s - 1].any():  # openings by nested squares are nested: all larger ones are empty
            break
    spectra = [_spectrum(int(total), [int(a) for a in row], max_size)
               for total, row in zip(table[:, -1, -1], areas)]
    return spectra[0] if masks.ndim == 2 else spectra
