import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerlens import detect as dt
from layerlens import network as net
from layerlens import numerics as nm
from layerlens.errors import (
    BadMagic,
    ChecksumMismatch,
    LayerlensError,
    ShapeError,
    TruncatedFile,
    WeightsError,
)
from layerlens.locmetrics import GtBox
from layerlens.seeding import make_rng
from layerlens.training import TrainConfig, cache_frozen_features


# ---------------------------------------------------------------------------
# sigmoid


def masked_sigmoid(x):
    """The boolean-mask form _sigmoid replaced: the byte oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bytes_equal_masked_form():
    rng = make_rng(0)
    x = rng.standard_normal((32, 4, 4, 2, 5)) * 8
    x.flat[:8] = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 36.7, -745.0]
    got, ref = dt._sigmoid(x), masked_sigmoid(x)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# target encoding


def test_encode_center_cell_half_open():
    obj, _, _ = dt.encode_targets([GtBox(12, 12, 8, 8)], S=2, image_shape=(32, 32))
    # centre (16, 16) lies exactly on the cell boundary -> cell (1, 1)
    assert obj[0, 1, 1]
    assert obj[0].sum() == 1


def test_encode_full_image_box():
    obj, coords, _ = dt.encode_targets([GtBox(0, 0, 32, 32, 1)], S=4, image_shape=(32, 32))
    row, col = np.argwhere(obj[0])[0]
    assert (coords[0, row, col, 2], coords[0, row, col, 3]) == (1.0, 1.0)


def test_encode_one_responsible_cell_per_image():
    """n boxes in one call: each image has exactly one responsible cell, and
    it holds that box's hand-computed cell-relative centre, extent and label,
    also where two images' boxes share a cell."""
    boxes = [GtBox(12, 12, 8, 8, 2), GtBox(0, 0, 32, 32, 1), GtBox(1, 1, 4, 4, 0),
             GtBox(2, 2, 4, 4, 1), GtBox(27, 3, 5, 6, 2)]
    obj, coords, class_ids = dt.encode_targets(boxes, S=4, image_shape=(32, 32))
    assert obj.shape == class_ids.shape == (5, 4, 4)
    assert coords.shape == (5, 4, 4, 4)
    # 8-px cells: (row, col) of the centre, then (x_rel, y_rel, w / 32, h / 32)
    want = [((2, 2), (0.0, 0.0, 0.25, 0.25)),          # centre (16, 16), on a boundary
            ((2, 2), (0.0, 0.0, 1.0, 1.0)),            # centre (16, 16)
            ((0, 0), (0.375, 0.375, 0.125, 0.125)),    # centre (3, 3)
            ((0, 0), (0.5, 0.5, 0.125, 0.125)),        # centre (4, 4), image 2's cell
            ((0, 3), (0.6875, 0.75, 0.15625, 0.1875))]  # centre (29.5, 6)
    for i, ((row, col), values) in enumerate(want):
        assert np.argwhere(obj[i]).tolist() == [[row, col]]
        assert tuple(coords[i, row, col]) == values
        assert class_ids[i, row, col] == boxes[i].label
        assert not coords[i][~obj[i]].any() and not class_ids[i][~obj[i]].any()
        for batch, alone in zip((obj, coords, class_ids),
                                dt.encode_targets([boxes[i]], 4, (32, 32))):
            assert np.array_equal(batch[i:i + 1], alone)


def target_to_grid(obj, coords, class_ids, B, class_count):
    """Render one image's targets as a post-squash prediction grid with
    confidence 1."""
    S = obj.shape[0]
    grid = np.zeros((S, S, B * 5 + class_count))
    for j in range(B):
        grid[:, :, j * 5:j * 5 + 4] = coords
        grid[:, :, j * 5 + 4] = obj.astype(float)
    rows, cols = np.nonzero(obj)
    grid[rows, cols, B * 5 + class_ids[rows, cols]] = 1.0
    return grid


@pytest.mark.parametrize("seed", range(5))
def test_encode_decode_round_trip(seed):
    rng = make_rng(seed)
    ih = iw = 32
    boxes = []
    for _ in range(3):
        w, h = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        x, y = int(rng.integers(0, iw - w)), int(rng.integers(0, ih - h))
        boxes.append(GtBox(x, y, w, h, int(rng.integers(3))))
    obj, coords, class_ids = dt.encode_targets(boxes, S=4, image_shape=(ih, iw))
    for i, box in enumerate(boxes):
        grid = target_to_grid(obj[i], coords[i], class_ids[i], B=2, class_count=3)
        dets = dt.decode_grid(grid, B=2, conf_threshold=0.5, image_shape=(ih, iw))
        # B identical slots decode to B identical detections of the one box
        assert len(dets) == 2
        for d in dets:
            assert d.class_id == box.label
            assert np.allclose(d.box, (box.x, box.y, box.w, box.h), atol=1e-9)


# ---------------------------------------------------------------------------
# coordinate loss


def make_target_single(S=2, image_shape=(32, 32)):
    """(obj, coords) of one image, each with a leading batch axis of 1."""
    return dt.encode_targets([GtBox(4, 4, 8, 8)], S, image_shape)[:2]


def test_coord_loss_zero_when_exact():
    obj, coords = make_target_single()
    pred = np.zeros((2, 2, 1, 4))
    pred[..., 2:] = 0.5  # keep extents positive everywhere
    r, c = np.argwhere(obj[0])[0]
    pred[r, c, 0] = coords[0, r, c]
    loss, grad = dt.coord_loss_arrays(pred[None], obj, coords)
    assert loss == 0.0
    assert np.allclose(grad[obj], 0.0)


def test_coord_loss_single_offset_term():
    obj, coords = make_target_single()
    pred = np.zeros((2, 2, 1, 4))
    pred[..., 2:] = 0.5
    r, c = np.argwhere(obj[0])[0]
    pred[r, c, 0] = coords[0, r, c]
    pred[r, c, 0, 0] += 1.0  # x off by one
    loss, _ = dt.coord_loss_arrays(pred[None], obj, coords)
    assert loss == pytest.approx(1.0)


def test_coord_loss_sqrt_term():
    obj, coords, _ = dt.encode_targets([GtBox(0, 0, 32, 32)], 1, (32, 32))
    coords[0, 0, 0, 2] = 4.0  # w target 4 against prediction 1
    pred = np.zeros((1, 1, 1, 4))
    pred[0, 0, 0] = coords[0, 0, 0]
    pred[0, 0, 0, 2] = 1.0
    loss, _ = dt.coord_loss_arrays(pred[None], obj, coords)
    assert loss == pytest.approx((np.sqrt(4) - np.sqrt(1)) ** 2 + 0.0)


def test_coord_loss_ignores_non_responsible_cells():
    obj, coords = make_target_single()
    pred = np.zeros((2, 2, 1, 4))
    pred[..., 2:] = 0.5
    r, c = np.argwhere(obj[0])[0]
    pred[r, c, 0] = coords[0, r, c]
    base, _ = dt.coord_loss_arrays(pred[None], obj, coords)
    pred2 = pred.copy()
    pred2[1 - r, 1 - c, 0] = (0.9, 0.9, 0.9, 0.9)
    changed, _ = dt.coord_loss_arrays(pred2[None], obj, coords)
    assert base == changed == 0.0


def test_coord_loss_rejects_nonpositive_extent():
    """A raised error, not an assert, so the check survives ``python -O``."""
    obj, coords = make_target_single()
    pred = np.full((2, 2, 1, 4), 0.5)
    r, c = np.argwhere(obj[0])[0]
    pred[r, c, 0, 3] = 0.0
    with pytest.raises(ShapeError, match="extents must be positive"):
        dt.coord_loss_arrays(pred[None], obj, coords)


@pytest.mark.parametrize("seed", range(10))
def test_coord_loss_gradient_matches_finite_differences(seed):
    rng = make_rng(800 + seed)
    S, B = 3, 2
    boxes = [GtBox(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                   int(rng.integers(4, 12)), int(rng.integers(4, 12)))]
    obj, coords, _ = dt.encode_targets(boxes, S, (32, 32))
    pred = rng.uniform(0.1, 0.9, (S, S, B, 4))  # extents well away from zero

    loss, grad = dt.coord_loss_arrays(pred[None], obj, coords)

    def f(p):
        return dt.coord_loss_arrays(p.reshape(S, S, B, 4)[None], obj, coords)[0]

    fd = nm.finite_diff_grad(f, pred, 1e-6)
    denom = max(np.abs(fd).max(), 1e-9)
    assert np.abs(grad[0] - fd).max() / denom < 1e-6


# ---------------------------------------------------------------------------
# adaptive pooling and the pooled-patch head


def test_adaptive_pool_exact_division():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = dt.adaptive_avg_pool(x, 2)
    assert out[0, 0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))


def _conv_pool_reference(z, kernel, bias, S):
    """Reference head: the same-padded k x k conv at full resolution, then the adaptive
    pool. Returns the raw grids (n, S, S, out_c) and a function from their
    gradient to the kernel and bias gradients, through the pool's backward,
    which spreads each cell's gradient evenly over its bin."""
    raw = nm.conv2d(z, kernel, bias)
    n, c, h, w = raw.shape
    eh, ew = (np.arange(S + 1) * h) // S, (np.arange(S + 1) * w) // S

    def backward(d_grid):
        d_raw = np.zeros(raw.shape)
        for i in range(S):
            for j in range(S):
                area = (eh[i + 1] - eh[i]) * (ew[j + 1] - ew[j])
                d_raw[:, :, eh[i]:eh[i + 1], ew[j]:ew[j + 1]] += (
                    d_grid[:, i, j, :] / area)[:, :, None, None]
        return nm.conv2d_param_grads(z, kernel.shape, d_raw)
    return dt.adaptive_avg_pool(raw, S).transpose(0, 2, 3, 1), backward


def test_pooled_patch_head_matches_conv_pool_oracle():
    """The head on pooled patches gives the grids, loss and kernel and bias
    gradients of the k x k conv followed by the adaptive pool: at the preset
    net's tap 1, 4 and 6 shapes with S 4, and on uneven bins."""
    rng = make_rng(31)
    B, classes = 2, 3
    out_c = B * 5 + classes
    for c, h, S in [(8, 32, 4), (16, 16, 4), (32, 8, 4), (8, 32, 7), (16, 16, 5), (32, 8, 3)]:
        n = 5
        feats = rng.standard_normal((n, c, h, h)) * 2.0 + 0.5
        head = dt.DetectHead(1, S, B, classes, rng.standard_normal((out_c, c, 3, 3)) * 0.1,
                             rng.standard_normal(out_c) * 0.1, rng.standard_normal(c),
                             rng.uniform(0.5, 2.0, c))
        z = dt.standardise(head, feats)
        q = dt.pooled_patches(z, S, 3)
        assert q.shape == (n, c * 9, S, S)
        boxes = [GtBox(int(rng.integers(0, h * 2)), int(rng.integers(0, h * 2)), 6, 6,
                       int(rng.integers(classes))) for _ in range(n)]
        obj, coords, cls = dt.encode_targets(boxes, S, (h * 4, h * 4))

        loss, d_k, d_b = dt._head_loss(head, q, obj, coords, cls)
        grid = dt.head_raw_grids(head, feats)
        ref_grid, ref_backward = _conv_pool_reference(z, head.kernel, head.bias, S)
        ref_loss, d_grid = dt._grid_loss(head, ref_grid, obj, coords, cls, 5.0, 0.5)
        ref_k, ref_b = ref_backward(d_grid)
        for got, want in [(grid, ref_grid), (d_k, ref_k), (d_b, ref_b)]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert loss == pytest.approx(ref_loss, rel=1e-12)


# ---------------------------------------------------------------------------
# nms


def D(x, y, w, h, cls, score):
    return dt.Detection((x, y, w, h), cls, score)


def test_nms_keeps_higher_of_identical_boxes():
    kept = dt.nms([D(0, 0, 4, 4, 0, 0.9), D(0, 0, 4, 4, 0, 0.8)], 0.5)
    assert len(kept) == 1
    assert kept[0].score == 0.9


def test_nms_keeps_disjoint():
    kept = dt.nms([D(0, 0, 4, 4, 0, 0.9), D(10, 10, 4, 4, 0, 0.8)], 0.5)
    assert len(kept) == 2


def test_nms_matches_exhaustive_reference():
    dets = [
        D(0, 0, 10, 10, 0, 0.95),
        D(1, 1, 10, 10, 0, 0.90),   # iou with first > 0.5 -> suppressed
        D(8, 8, 10, 10, 0, 0.85),   # small overlap -> kept
        D(0, 0, 10, 10, 1, 0.80),   # other class -> kept
        D(2, 0, 10, 10, 0, 0.75),   # overlaps first heavily -> suppressed
    ]
    kept = dt.nms(dets, 0.5)

    # independent O(n^2) formulation: a box survives iff no higher-scored
    # surviving box of its class overlaps it beyond the threshold
    surviving = []
    for d in sorted(dets, key=lambda d: -d.score):
        if all(k.class_id != d.class_id or dt.box_iou(k.box, d.box) <= 0.5
               for k in surviving):
            surviving.append(d)
    assert sorted(kept, key=lambda d: -d.score) == surviving
    assert {d.score for d in kept} == {0.95, 0.85, 0.80}


# ---------------------------------------------------------------------------
# average precision / map


def test_ap_perfect_detections():
    gts = [("a", (0, 0, 4, 4)), ("b", (2, 2, 4, 4)), ("c", (4, 4, 4, 4))]
    dets = [(img, 1.0 - 0.01 * i, box) for i, (img, box) in enumerate(gts)]
    assert dt.average_precision(dets, gts, 0.5) == 1.0


def test_ap_zero_without_detections():
    assert dt.average_precision([], [("a", (0, 0, 4, 4))], 0.5) == 0.0


def test_ap_fixture_matches_hand_enumeration():
    # 3 ground truths, 5 detections ranked by score:
    #   rank 1 TP, rank 2 FP, rank 3 TP, rank 4 FP, rank 5 TP
    gts = [("a", (0, 0, 10, 10)), ("b", (0, 0, 10, 10)), ("c", (0, 0, 10, 10))]
    dets = [
        ("a", 0.9, (0, 0, 10, 10)),
        ("a", 0.8, (20, 20, 5, 5)),
        ("b", 0.7, (0, 0, 10, 10)),
        ("b", 0.6, (20, 20, 5, 5)),
        ("c", 0.5, (0, 0, 10, 10)),
    ]
    ap = dt.average_precision(dets, gts, 0.5)
    # precision at the three TP ranks: 1/1, 2/3, 3/5; envelope from the right
    # gives interpolated precisions 1, 2/3, 3/5 at recalls 1/3, 2/3, 3/3
    expected = (1 / 3) * 1.0 + (1 / 3) * (2 / 3) + (1 / 3) * (3 / 5)
    assert ap == pytest.approx(expected, abs=1e-9)


def test_ap_monotone_in_threshold():
    rng = make_rng(4)
    gts, dets = [], []
    for i in range(8):
        x, y = rng.integers(0, 20, 2)
        gts.append((i, (float(x), float(y), 8.0, 8.0)))
        jx, jy = rng.uniform(-3, 3, 2)
        dets.append((i, float(rng.random()), (float(x + jx), float(y + jy), 8.0, 8.0)))
    last = 1.1
    for t in dt.default_schedule():
        ap = dt.average_precision(dets, gts, t)
        assert ap <= last + 1e-12
        last = ap


def test_schedule_is_exactly_ten_thresholds():
    assert dt.default_schedule() == [0.50, 0.55, 0.60, 0.65, 0.70,
                                     0.75, 0.80, 0.85, 0.90, 0.95]


def test_map_perfect_report():
    ds = dt.DetectionSet()
    for img in range(4):
        box = (1.0 * img, 2.0, 6.0, 6.0)
        ds.add_image(img, [dt.Detection(box, img % 2, 0.9)], [(img % 2, box)])
    report = dt.map_evaluate(ds)
    assert report["mAP.5"] == 1.0
    assert report["mAP.75"] == 1.0
    assert report["mAP.5:.95:.05"] == 1.0
    assert report["mIOU"] == 1.0
    assert set(report) == {"mAP.5", "mAP.75", "mAP.5:.95:.05", "mIOU"}


def test_map_fixture_equals_per_threshold_average():
    rng = make_rng(8)
    ds = dt.DetectionSet()
    for img in range(6):
        x, y = rng.integers(0, 16, 2)
        gt_box = (float(x), float(y), 10.0, 10.0)
        jx = float(rng.uniform(0, 4))
        det_box = (float(x) + jx, float(y), 10.0, 10.0)
        ds.add_image(img, [dt.Detection(det_box, 0, float(rng.random()))], [(0, gt_box)])
    report = dt.map_evaluate(ds)
    dets = [(img, d.score, d.box) for img, dd in ds.detections.items() for d in dd]
    gts = [(img, box) for img, gg in ds.ground_truth.items() for _, box in gg]
    per_threshold = [dt.average_precision(dets, gts, t) for t in dt.default_schedule()]
    assert report["mAP.5:.95:.05"] == pytest.approx(float(np.mean(per_threshold)), abs=1e-12)
    assert report["mAP.5"] == pytest.approx(per_threshold[0], abs=1e-12)


def test_map_evaluate_equals_per_threshold_class_means():
    """Every mAP is the class mean of ``average_precision`` at its threshold;
    the schedule figure is the mean over the ten thresholds."""
    rng = make_rng(21)
    ds = dt.DetectionSet()
    for img in range(12):
        c = img % 3
        x, y = rng.integers(0, 16, 2)
        gt_box = (float(x), float(y), 10.0, 10.0)
        dets = [dt.Detection((float(x) + float(rng.uniform(0, 5)), float(y), 10.0, 10.0),
                             int(rng.integers(0, 3)) if k else c, float(rng.random()))
                for k in range(3)]
        ds.add_image(img, dets, [(c, gt_box)])
    report = dt.map_evaluate(ds)

    def class_mean(threshold):
        aps = []
        for c in range(3):
            gts = [(img, box) for img, gg in ds.ground_truth.items()
                   for gc, box in gg if gc == c]
            dets = [(img, d.score, d.box) for img, dd in ds.detections.items()
                    for d in dd if d.class_id == c]
            aps.append(dt.average_precision(dets, gts, threshold))
        return float(np.mean(aps))
    per_threshold = [class_mean(t) for t in dt.default_schedule()]
    assert report["mAP.5"] == class_mean(0.5)
    assert report["mAP.75"] == class_mean(0.75)
    assert report["mAP.5:.95:.05"] == float(np.mean(per_threshold))
    assert 0 < report["mAP.75"] < report["mAP.5"]


def test_map_evaluate_matches_each_class_once_per_threshold(monkeypatch):
    """Ten greedy matches per class: the match at 0.5 gives both the AP and
    the matched IOUs behind mIOU."""
    calls = []
    match = dt._match_class

    def counting(dets, gts, iou_threshold):
        calls.append(iou_threshold)
        return match(dets, gts, iou_threshold)
    monkeypatch.setattr(dt, "_match_class", counting)
    ds = dt.DetectionSet()
    for img in range(6):
        box = (float(img), 2.0, 8.0, 8.0)
        ds.add_image(img, [dt.Detection((box[0] + 1.0, 2.0, 8.0, 8.0), img % 3, 0.5)],
                     [(img % 3, box)])
    report = dt.map_evaluate(ds)
    assert sorted(calls) == sorted(dt.default_schedule() * 3)
    assert report["mIOU"] == pytest.approx(56 / 72)


def test_map_class_without_gt_excluded():
    ds = dt.DetectionSet()
    box = (0.0, 0.0, 5.0, 5.0)
    ds.add_image("a", [dt.Detection(box, 0, 0.9), dt.Detection(box, 3, 0.9)], [(0, box)])
    report = dt.map_evaluate(ds)
    assert report["mAP.5"] == 1.0  # class 3 has no ground truth: ignored


# ---------------------------------------------------------------------------
# detection head training


@pytest.fixture(scope="module")
def detect_setup():
    spec = net.build_six_layer_net((1, 16, 16), 2, [4, 4, 6, 6, 8, 8])
    params = net.init_params(spec, 3)
    rng = make_rng(10)
    n = 24
    images = rng.uniform(0, 0.2, (n, 1, 16, 16))
    boxes = []
    for i in range(n):
        w, h = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        x, y = int(rng.integers(0, 16 - w)), int(rng.integers(0, 16 - h))
        images[i, 0, y:y + h, x:x + w] += 0.8
        boxes.append(GtBox(x, y, w, h, i % 2))
    return spec, params, images, boxes


def test_head_backbone_untouched_and_loss_decreases(detect_setup):
    """Training leaves the backbone's arrays alone, and the trained head's
    loss on its training split is below that of its initialisation (the same
    seed trained for zero epochs)."""
    spec, params, images, boxes = detect_setup
    snapshot = [None if b is None else tuple(a.copy() for a in b) for b in params.blocks]
    cfg = TrainConfig(epochs=10, lr=0.1, seed=0, batch_size=8)
    feats = cache_frozen_features(spec, params, images, tap=2)
    [initial, head] = dt.train_detection_head(
        spec, tap=2, feats=feats, boxes=boxes, S=4, B=2,
        configs=[TrainConfig(epochs=0, lr=0.1, seed=0, batch_size=8), cfg])
    for b1, b2 in zip(params.blocks, snapshot):
        if b1 is not None:
            for a1, a2 in zip(b1, b2):
                assert np.array_equal(a1, a2)
    q = dt.pooled_patches(dt.standardise(head, feats), 4, 3)
    targets = dt.encode_targets(boxes, 4, (16, 16))
    losses = [dt._head_loss(h, q, *targets, want_grads=False)[0] for h in (initial, head)]
    assert losses[1] < losses[0]


def test_head_gradient_matches_finite_differences(detect_setup):
    spec, params, images, boxes = detect_setup
    feats = cache_frozen_features(spec, params, images[:4], tap=2)
    obj, coords, cls = dt.encode_targets(boxes[:4], 4, (16, 16))
    head = dt.init_detect_head(spec, 2, 4, 2, seed=5)
    loss, d_k, d_b = dt._head_loss(head, dt.pooled_patches(feats, 4, 3), obj, coords, cls)

    def f_k(kv):
        h2 = dt.DetectHead(2, 4, 2, 2, kv.reshape(head.kernel.shape), head.bias,
                           np.zeros(4), np.ones(4))
        return dt._head_loss(h2, dt.pooled_patches(feats, 4, 3), obj, coords, cls,
                             want_grads=False)[0]

    probe = make_rng(1).integers(0, head.kernel.size, 12)
    for idx in probe:
        kp = head.kernel.ravel().copy()
        km = head.kernel.ravel().copy()
        kp[idx] += 1e-6
        km[idx] -= 1e-6
        fd = (f_k(kp) - f_k(km)) / 2e-6
        assert abs(d_k.ravel()[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_head_deterministic(detect_setup):
    spec, params, images, boxes = detect_setup
    cfg = TrainConfig(epochs=2, lr=0.05, seed=9, batch_size=8)
    feats = cache_frozen_features(spec, params, images, 1)
    [h1] = dt.train_detection_head(spec, 1, feats, boxes, 4, 2, [cfg])
    [h2] = dt.train_detection_head(spec, 1, feats, boxes, 4, 2, [cfg])
    assert np.array_equal(h1.kernel, h2.kernel)
    assert np.array_equal(h1.bias, h2.bias)


@pytest.mark.parametrize("tap", [2, 4])
def test_head_training_invariant_to_feature_scale(detect_setup, tap):
    """The head learns on standardised features, so scaling a tap by 8 (exact
    in float64) trains the same head bit for bit."""
    spec, params, images, boxes = detect_setup
    cfg = TrainConfig(epochs=4, lr=0.08, seed=3, batch_size=8)
    feats = cache_frozen_features(spec, params, images, tap)
    [h1] = dt.train_detection_head(spec, tap, feats, boxes, 2, 2, [cfg])
    [h8] = dt.train_detection_head(spec, tap, feats * 8.0, boxes, 2, 2, [cfg])
    assert np.array_equal(h1.kernel, h8.kernel)
    assert np.array_equal(h1.bias, h8.bias)
    assert np.array_equal(dt.head_raw_grids(h1, feats), dt.head_raw_grids(h8, feats * 8.0))


def test_head_seeds_share_one_input_pipeline(detect_setup, monkeypatch):
    """One call with three configs trains the heads three one-config calls
    train, and each call fits the statistics once and pools each split once."""
    spec, params, images, boxes = detect_setup
    feats = cache_frozen_features(spec, params, images[:16], 2)
    val = dict(val_feats=cache_frozen_features(spec, params, images[16:], 2),
               val_boxes=boxes[16:])
    configs = [TrainConfig(epochs=4, lr=0.08, seed=s, batch_size=8, patience=2) for s in (3, 4, 5)]
    calls = {}
    for name in ("pooled_patches", "fit_feature_stats"):
        def counted(*args, _fn=getattr(dt, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dt, name, counted)

    def train(cfgs):
        calls.update(pooled_patches=0, fit_feature_stats=0)
        out = dt.train_detection_head(spec, 2, feats, boxes[:16], 4, 2, cfgs, **val)
        assert calls == {"pooled_patches": 2, "fit_feature_stats": 1}
        return out

    together = train(configs)
    assert not np.array_equal(together[0].kernel, together[1].kernel)
    for cfg, head in zip(configs, together):
        [alone] = train([cfg])
        for attr in ("kernel", "bias", "feat_mean", "feat_std"):
            assert np.array_equal(getattr(head, attr), getattr(alone, attr))


def test_head_constant_channel_keeps_unit_std(detect_setup):
    spec, params, images, boxes = detect_setup
    cfg = TrainConfig(epochs=3, lr=0.08, seed=3, batch_size=8)
    feats = cache_frozen_features(spec, params, images, 2)
    feats[:, 1] = 0.3
    [head] = dt.train_detection_head(spec, 2, feats, boxes, 4, 2, [cfg])
    assert head.feat_std[1] == 1.0
    assert np.all(head.feat_std > 0)
    assert np.all(np.isfinite(dt.head_raw_grids(head, feats)))


# ---------------------------------------------------------------------------
# head files


def sample_head():
    rng = make_rng(4)
    return dt.DetectHead(3, 4, 2, 3, rng.standard_normal((13, 6, 3, 3)), rng.standard_normal(13),
                         np.zeros(6), np.ones(6))


def reseal(path, payload):
    path.write_bytes(payload + hashlib.sha256(payload).digest())


def test_head_file_round_trip(tmp_path):
    head = sample_head()
    dt.save_head(head, tmp_path / "h.llh")
    loaded = dt.load_head(tmp_path / "h.llh")
    assert (loaded.tap, loaded.S, loaded.B, loaded.class_count) == (3, 4, 2, 3)
    assert np.array_equal(loaded.kernel, head.kernel)
    assert np.array_equal(loaded.bias, head.bias)


def test_head_file_bad_magic_and_checksum(tmp_path):
    path = tmp_path / "h.llh"
    dt.save_head(sample_head(), path)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch, match="head file"):
        dt.load_head(path)
    path.write_bytes(b"LLW1" + bytes(raw[4:]))
    with pytest.raises(BadMagic, match="not a head file"):
        dt.load_head(path)


def test_head_file_truncation_names_the_head_file(tmp_path):
    path = tmp_path / "h.llh"
    dt.save_head(sample_head(), path)
    payload = path.read_bytes()[:-32]
    reseal(path, payload[:-8])  # last std value cut, checksum valid
    with pytest.raises(TruncatedFile, match="head file truncated"):
        dt.load_head(path)
    path.write_bytes(payload[:20])
    with pytest.raises(TruncatedFile, match="head file too short"):
        dt.load_head(path)


def test_head_file_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "h.llh"
    dt.save_head(sample_head(), path)
    reseal(path, path.read_bytes()[:-32] + b"junk")
    with pytest.raises(WeightsError, match="4 bytes after its last array"):
        dt.load_head(path)


def test_head_file_kernel_shape_checked(tmp_path):
    """A rank-1 kernel does not fit; a kernel that is not square with an odd
    edge would not keep the feature map's size under pad k // 2."""
    path = tmp_path / "h.llh"
    for shape, error in [((13,), "do not fit"),
                         ((13, 1, 3, 5), "not square with an odd edge"),
                         ((13, 1, 2, 2), "not square with an odd edge")]:
        raw = b"LLH2" + struct.pack("<4H", 3, 4, 2, 3)
        raw += net.pack_array(np.ones(shape)) + net.pack_array(np.zeros(13))
        raw += net.pack_array(np.zeros(1)) + net.pack_array(np.ones(1))
        reseal(path, raw)
        with pytest.raises(WeightsError, match=error):
            dt.load_head(path)


def test_head_file_forged_array_header(tmp_path):
    # 2**31 * 2**31 * 4 elements: a product that wraps to 0 in int64
    path = tmp_path / "h.llh"
    reseal(path, b"LLH2" + struct.pack("<4H", 3, 4, 2, 3)
           + struct.pack("<B3I", 3, 2**31, 2**31, 4) + net.pack_array(np.zeros(13)))
    with pytest.raises(TruncatedFile, match="head file truncated"):
        dt.load_head(path)
    reseal(path, b"LLH2" + struct.pack("<4H", 3, 4, 2, 3) + struct.pack("<B", 95) + bytes(400))
    with pytest.raises(WeightsError, match="rank 95"):
        dt.load_head(path)


def test_head_file_zero_grid_rejected(tmp_path):
    path = tmp_path / "h.llh"
    head = sample_head()
    head.S = 0
    dt.save_head(head, path)
    with pytest.raises(WeightsError, match="S=0"):
        dt.load_head(path)


def test_head_file_old_magic_rejected(tmp_path):
    """A head file from before the stored feature statistics is refused."""
    path = tmp_path / "h.llh"
    dt.save_head(sample_head(), path)
    reseal(path, b"LLH1" + path.read_bytes()[4:-32])
    with pytest.raises(BadMagic, match="not a head file"):
        dt.load_head(path)


@pytest.mark.parametrize("mean, std, error", [
    (np.zeros(5), np.ones(6), "do not fit"),
    (np.zeros(6), np.ones((6, 1)), "do not fit"),
    (np.full(6, np.nan), np.ones(6), "finite"),
    (np.zeros(6), np.full(6, np.inf), "finite"),
    (np.zeros(6), np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), "std > 0"),
    (np.zeros(6), -np.ones(6), "std > 0"),
])
def test_head_file_feature_statistics_checked(tmp_path, mean, std, error):
    path = tmp_path / "h.llh"
    head = sample_head()
    head.feat_mean, head.feat_std = mean, std
    dt.save_head(head, path)
    with pytest.raises(WeightsError, match=error):
        dt.load_head(path)


def _load_head_or_clean_error(path):
    """load_head either returns a usable head or raises a LayerlensError; any
    other exception fails the calling test."""
    try:
        head = dt.load_head(path)
    except LayerlensError:
        return
    assert min(head.tap, head.S, head.B, head.class_count) >= 1
    assert head.kernel.ndim == 4 and head.kernel.shape[0] == head.B * 5 + head.class_count
    assert head.bias.shape == head.kernel.shape[:1]
    c = head.kernel.shape[1]
    assert head.feat_mean.shape == head.feat_std.shape == (c,)
    assert np.all(np.isfinite(head.feat_mean)) and np.all(np.isfinite(head.feat_std))
    assert np.all(head.feat_std > 0)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=128) | st.binary(max_size=128).map(lambda b: b"LLH2" + b))
def test_load_head_fuzz_random_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "h.llh"
    path.write_bytes(raw)
    _load_head_or_clean_error(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), reseal_it=st.booleans())
def test_load_head_fuzz_replaced_cut_or_extended(tmp_path_factory, data, reseal_it):
    """A saved head with one byte replaced, or cut short, or extended; with
    ``reseal_it`` the checksum is recomputed so the parser itself is reached."""
    path = tmp_path_factory.mktemp("fuzz") / "h.llh"
    dt.save_head(sample_head(), path)
    raw = bytearray(path.read_bytes()[:-32] if reseal_it else path.read_bytes())
    edit = data.draw(st.sampled_from(["replace", "cut", "extend"]))
    if edit == "replace":
        at = data.draw(st.integers(0, 48) | st.integers(0, len(raw) - 1))  # headers first
        raw[min(at, len(raw) - 1)] = data.draw(st.integers(0, 255))
    elif edit == "cut":
        del raw[len(raw) - data.draw(st.integers(1, len(raw))):]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    if reseal_it:
        reseal(path, bytes(raw))
    else:
        path.write_bytes(bytes(raw))
    _load_head_or_clean_error(path)


def test_decode_hand_built_grid():
    # one confident cell in a 2x2 grid over a 32x32 image
    grid = np.zeros((2, 2, 1 * 5 + 2))
    grid[1, 0, 0:5] = (0.5, 0.5, 0.25, 0.5, 0.9)  # centre of cell (1,0)
    grid[1, 0, 5:7] = (0.1, 0.9)
    dets = dt.decode_grid(grid, B=1, conf_threshold=0.5, image_shape=(32, 32))
    assert len(dets) == 1
    d = dets[0]
    assert d.class_id == 1
    assert d.score == pytest.approx(0.9 * 0.9)
    # centre = ((0 + .5) * 16, (1 + .5) * 16) = (8, 24); w = 8, h = 16
    assert d.box == pytest.approx((4.0, 16.0, 8.0, 16.0))


def test_decode_threshold_one_empty():
    rng = make_rng(3)
    raw = rng.standard_normal((3, 3, 2 * 5 + 2))
    assert dt.decode_predictions(raw, B=2, conf_threshold=1.0, image_shape=(32, 32)) == []
