import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerlens import locmetrics as lm
from layerlens.errors import ShapeError
from layerlens.seeding import make_rng


# ---------------------------------------------------------------------------
# binarize_percentile


def test_binarize_distinct_values_picks_largest():
    values = np.arange(100, dtype=float).reshape(10, 10)
    mask = lm.binarize_percentile(values, 90)
    assert mask.sum() == 10
    assert set(values[mask]) == set(range(90, 100))


def test_binarize_constant_map_uses_tie_break():
    mask = lm.binarize_percentile(np.ones((10, 10)), 90)
    assert mask.sum() == 10
    # row-major tie break: the first 10 pixels win
    assert mask.ravel()[:10].all()
    assert not mask.ravel()[10:].any()


@given(
    h=st.integers(1, 17), w=st.integers(1, 17),
    p=st.sampled_from([10.0, 25.0, 50.0, 75.0, 80.0, 90.0, 99.0, 99.5]),
    seed=st.integers(0, 10_000),
    constant=st.booleans(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_binarize_exact_count_property(h, w, p, seed, constant):
    if constant:
        values = np.full((h, w), 0.25)
    else:
        values = make_rng(seed).uniform(0, 1, (h, w))
    mask = lm.binarize_percentile(values, p)
    from fractions import Fraction

    expected = math.ceil((1 - Fraction(p) / 100) * h * w)
    assert mask.sum() == expected


def test_binarize_rejects_bad_percentile():
    with pytest.raises(ValueError):
        lm.binarize_percentile(np.ones((2, 2)), 0)
    with pytest.raises(ValueError):
        lm.binarize_percentile(np.ones((2, 2)), 100)


def test_binarize_stack_equals_each_map():
    """A (..., h, w) stack is binarised as each map alone, ties included:
    constant maps, coarsely rounded values and a map of zeros and -0.0."""
    rng = make_rng(31)
    for shape in [(1, 32, 32), (7, 32, 32), (3, 4, 9, 13), (32, 5, 5)]:
        stack = np.round(rng.uniform(0, 1, shape), 1)
        stack[0] = 0.5
        if shape[0] > 1:
            stack[1] = np.where(rng.random(shape[1:]) < 0.5, 0.0, -0.0)
        for p in (10.0, 50.0, 90.0, 99.5):
            masks = lm.binarize_percentile(stack, p)
            assert masks.shape == shape and masks.dtype == bool
            for idx in np.ndindex(shape[:-2]):
                assert np.array_equal(masks[idx], lm.binarize_percentile(stack[idx], p))
    with pytest.raises(ShapeError):
        lm.binarize_percentile(np.ones(4), 50)


# ---------------------------------------------------------------------------
# iou


def test_iou_identical_masks():
    m = np.zeros((5, 5), dtype=bool)
    m[1:3, 1:4] = True
    assert lm.iou(m, m) == 1.0


def test_iou_disjoint_masks():
    a = np.zeros((5, 5), dtype=bool)
    b = np.zeros((5, 5), dtype=bool)
    a[0, 0] = True
    b[4, 4] = True
    assert lm.iou(a, b) == 0.0


def test_iou_overlapping_squares():
    a = np.zeros((10, 15), dtype=bool)
    b = np.zeros((10, 15), dtype=bool)
    a[0:10, 0:10] = True
    b[0:10, 5:15] = True
    assert lm.iou(a, b) == pytest.approx(50 / 150)


def test_iou_both_empty_is_zero():
    z = np.zeros((3, 3), dtype=bool)
    assert lm.iou(z, z) == 0.0


def test_iou_shape_mismatch():
    with pytest.raises(ShapeError):
        lm.iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


@given(seed=st.integers(0, 5000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_iou_symmetric_and_bounded(seed):
    rng = make_rng(seed)
    a = rng.random((6, 6)) > 0.5
    b = rng.random((6, 6)) > 0.5
    v = lm.iou(a, b)
    assert v == lm.iou(b, a)
    assert 0.0 <= v <= 1.0
    if v == 1.0:
        assert np.array_equal(a, b) and a.any()


# ---------------------------------------------------------------------------
# localisation accuracy


def test_lacc_basic():
    assert lm.localisation_accuracy([0.1, 0.25, 0.3]) == pytest.approx(2 / 3)


def test_lacc_strict_at_threshold():
    assert lm.localisation_accuracy([0.2, 0.2, 0.2]) == 0.0


def test_lacc_empty_rejected():
    with pytest.raises(ValueError):
        lm.localisation_accuracy([])


def test_lacc_uniform_monte_carlo():
    vals = make_rng(123).uniform(0, 1, 1000)
    assert lm.localisation_accuracy(vals) == pytest.approx(0.8, abs=0.05)


# ---------------------------------------------------------------------------
# lime overlap


def test_overlap_exact_box_interior():
    box = lm.GtBox(2, 3, 4, 5)
    mask = lm.rasterize_box(box, (12, 12))
    ov = lm.lime_overlap(mask, box)
    assert ov.count == 20
    assert ov.fraction == 1.0


def test_overlap_disjoint():
    box = lm.GtBox(0, 0, 3, 3)
    mask = np.zeros((8, 8), dtype=bool)
    mask[5:, 5:] = True
    assert lm.lime_overlap(mask, box) == (0, 0.0)


def test_overlap_matches_double_loop():
    rng = make_rng(9)
    mask = rng.random((16, 16)) > 0.6
    box = lm.GtBox(3, 5, 7, 6)
    ov = lm.lime_overlap(mask, box)
    ref = 0
    for y in range(16):
        for x in range(16):
            if mask[y, x] and box.x <= x < box.x + box.w and box.y <= y < box.y + box.h:
                ref += 1
    assert ov.count == ref
    assert ov.fraction == ref / box.area


# ---------------------------------------------------------------------------
# rasterize


def test_rasterize_full_image():
    mask = lm.rasterize_box(lm.GtBox(0, 0, 6, 4), (4, 6))
    assert mask.all()


def test_rasterize_single_pixel():
    mask = lm.rasterize_box(lm.GtBox(2, 3, 1, 1), (8, 8))
    assert mask.sum() == 1
    assert mask[3, 2]


def test_rasterize_out_of_bounds():
    with pytest.raises(ShapeError):
        lm.rasterize_box(lm.GtBox(5, 5, 4, 4), (8, 8))


@given(seed=st.integers(0, 3000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rasterize_area(seed):
    rng = make_rng(seed)
    w, h = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    x, y = int(rng.integers(0, 12 - w)), int(rng.integers(0, 12 - h))
    box = lm.GtBox(x, y, w, h)
    assert lm.rasterize_box(box, (12, 12)).sum() == w * h


def test_box_validation():
    with pytest.raises(ShapeError):
        lm.GtBox(0, 0, 0, 3)


# ---------------------------------------------------------------------------
# granulometry (naive oracle: opening = union of fully-contained SE placements)


def naive_opening(mask, size):
    e = 2 * size + 1
    h, w = mask.shape
    pad = size
    eroded = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            y0, y1 = y - pad, y + pad + 1
            x0, x1 = x - pad, x + pad + 1
            if y0 < 0 or x0 < 0 or y1 > h or x1 > w:
                continue  # window leaves the image: eroded stays false
            eroded[y, x] = mask[y0:y1, x0:x1].all()
    opened = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            if eroded[y, x]:
                opened[max(0, y - pad):y + pad + 1, max(0, x - pad):x + pad + 1] = True
    return opened


def naive_spectrum(mask, max_size):
    total = int(mask.sum())
    removed = []
    prev = total
    for s in range(1, max_size + 1):
        area = int(naive_opening(mask, s).sum())
        removed.append(prev - area)
        prev = area
    removed[-1] += prev
    return removed, total


def test_granulometry_single_pixel():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    spec = lm.granulometry(mask, 3)
    assert spec.removed == (1.0, 0.0, 0.0)
    assert spec.mean_size == 1.0
    assert spec.total_area == 1


def test_granulometry_solid_square_against_oracle():
    mask = np.zeros((11, 11), dtype=bool)
    mask[1:10, 1:10] = True  # solid 9x9
    spec = lm.granulometry(mask, 5)
    ref, total = naive_spectrum(mask, 5)
    assert list(spec.removed) == [float(r) for r in ref]
    # survives SE edges 3..9 (sizes 1..4), dies at size 5
    assert spec.removed[:4] == (0.0, 0.0, 0.0, 0.0)
    assert spec.removed[4] == 81.0
    assert spec.mean_size == 5.0


def test_granulometry_empty_mask():
    spec = lm.granulometry(np.zeros((5, 5), dtype=bool), 4)
    assert spec.total_area == 0
    assert spec.mean_size == 0.0
    assert all(r == 0 for r in spec.removed)


@given(seed=st.integers(0, 500), density=st.floats(0.2, 0.8))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_granulometry_conserves_area_vs_oracle(seed, density):
    rng = make_rng(seed)
    mask = rng.random((12, 12)) < density
    spec = lm.granulometry(mask, 3)
    ref, total = naive_spectrum(mask, 3)
    assert list(spec.removed) == [float(r) for r in ref]
    assert sum(spec.removed) == total == spec.total_area
    assert all(r >= 0 for r in spec.removed)


def spectrum_without_early_stop(mask, max_size):
    """granulometry as one opening per size, every size computed."""
    total = int(mask.sum())
    sizes = tuple(range(1, max_size + 1))
    if total == 0:
        return lm.GranulometrySpectrum(sizes, (0.0,) * max_size, 0, 0.0)
    removed = []
    prev = total
    for s in sizes:
        area = int(lm._opening(mask, s).sum())
        removed.append(float(prev - area))
        prev = area
    removed[-1] += prev
    weighted = sum(s * r for s, r in zip(sizes, removed))
    return lm.GranulometrySpectrum(sizes, tuple(removed), total, weighted / total)


def _fixed_masks():
    one = np.zeros((9, 9), dtype=bool)
    one[4, 4] = True
    checker = (np.indices((10, 12)).sum(axis=0) % 2).astype(bool)
    return [np.zeros((8, 8), dtype=bool), np.ones((8, 8), dtype=bool),
            np.ones((20, 20), dtype=bool), one, checker]


@pytest.mark.parametrize("index", range(len(_fixed_masks())))
@pytest.mark.parametrize("max_size", [1, 3, 6])
def test_granulometry_early_stop_equals_full_loop_on_fixed_masks(index, max_size):
    mask = _fixed_masks()[index]
    assert lm.granulometry(mask, max_size) == spectrum_without_early_stop(mask, max_size)


@given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 24), w=st.integers(1, 24),
       density=st.floats(0.0, 1.0), max_size=st.integers(1, 8))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_granulometry_early_stop_equals_full_loop(seed, h, w, density, max_size):
    """Stopping at the first empty opening leaves every spectrum as it was."""
    rng = make_rng(seed)
    mask = rng.random((h, w)) < density
    assert lm.granulometry(mask, max_size) == spectrum_without_early_stop(mask, max_size)


def test_granulometry_opening_is_anti_extensive():
    rng = make_rng(7)
    for _ in range(20):
        mask = rng.random((10, 10)) < 0.6
        opened = lm._opening(mask, 1)
        assert not np.any(opened & ~mask)


@given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 40), w=st.integers(1, 40),
       density=st.floats(0.0, 1.0), size=st.integers(1, 8))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_opening_matches_binary_opening(seed, h, w, density, size):
    """The summed-area-table opening equals scipy's opening by the dense
    square, at every size up to the benchmark's granulometry.max_size (8),
    masks smaller than the structuring element included."""
    from scipy import ndimage

    rng = make_rng(seed)
    mask = rng.random((h, w)) < density
    se = np.ones((2 * size + 1, 2 * size + 1), dtype=bool)
    expect = ndimage.binary_opening(mask, structure=se)
    got = lm._opening(mask, size)
    assert got.dtype == bool
    assert np.array_equal(got, expect)


def _squares_emptying_by_size():
    """Masks whose openings empty at sizes 1, 2, ..., 9 (a solid square of
    edge 2s-1 survives exactly sizes below s), and one that survives them all."""
    masks = np.zeros((10, 20, 20), dtype=bool)
    for s in range(1, 10):
        masks[s - 1, 1:2 * s, 2:2 * s + 1] = True
    masks[9] = True
    return masks


@pytest.mark.parametrize("max_size", [1, 4, 8])
def test_stacked_spectra_equal_per_mask_spectra_as_squares_empty(max_size):
    masks = _squares_emptying_by_size()
    stacked = lm.granulometry(masks, max_size)
    assert stacked == [lm.granulometry(m, max_size) for m in masks]
    assert stacked == [spectrum_without_early_stop(m, max_size) for m in masks]


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8), h=st.integers(1, 40),
       w=st.integers(1, 40), max_size=st.integers(1, 8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stacked_spectra_equal_per_mask_spectra(seed, n, h, w, max_size):
    """Each mask of a stack has its own density, so its openings empty at
    its own size; the stack's spectra are the masks' spectra one by one."""
    rng = make_rng(seed)
    masks = rng.random((n, h, w)) < rng.uniform(0.0, 1.0, (n, 1, 1))
    stacked = lm.granulometry(masks, max_size)
    assert stacked == [spectrum_without_early_stop(m, max_size) for m in masks]


def test_granulometry_rejects_other_ranks():
    with pytest.raises(ShapeError):
        lm.granulometry(np.zeros(5, dtype=bool), 3)
    with pytest.raises(ShapeError):
        lm.granulometry(np.zeros((2, 2, 5, 5), dtype=bool), 3)


def test_dilating_inside_box_never_lowers_iou():
    from scipy import ndimage

    box = lm.GtBox(2, 2, 8, 8)
    gt = lm.rasterize_box(box, (12, 12))
    rng = make_rng(5)
    for _ in range(20):
        inner = np.zeros((12, 12), dtype=bool)
        ys, xs = rng.integers(4, 8, 2)
        inner[ys:ys + 2, xs:xs + 2] = True
        grown = ndimage.binary_dilation(inner) & gt  # stays inside the box
        assert lm.iou(grown, gt) >= lm.iou(inner, gt)
