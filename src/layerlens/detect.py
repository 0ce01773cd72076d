"""Single-scale grid detector on a frozen backbone, and its evaluators.

A detection head is one learnable k x k conv layer (odd k, pad k // 2) over
a chosen tap's feature map, standardised per channel with the train split's
mean and std; a parameter-free adaptive average pool maps the conv output
onto the S x S prediction grid (so the head works at any tap resolution >= S).
Both are linear, so the head runs as a 1 x 1 conv on each cell's mean patch
(``pooled_patches``). Per cell each of B box slots predicts (x, y, w, h,
confidence) through a sigmoid squash, plus per-cell class scores.

Every image carries one labelled box, encoded as (obj, coords, class_ids)
grid arrays (``encode_targets``): the cell containing the box centre is
responsible for it. The coordinate loss is squared error on the
cell-relative centre and on the square roots of width/height, restricted to
responsible cells. Evaluation: greedy NMS, then AP as
the area under the all-point interpolated precision-recall curve, averaged
over classes and over an IOU-threshold schedule.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from . import network as net
from .errors import ShapeError, WeightsError
from .locmetrics import GtBox
from .seeding import derive_seed, make_rng
from .training import TrainConfig, fit


# ---------------------------------------------------------------------------
# target encoding


def encode_targets(boxes: list[GtBox], S: int, image_shape: tuple[int, int]):
    """Grid targets of one labelled ``GtBox`` per image: (obj, coords,
    class_ids) of shapes (n, S, S), (n, S, S, 4) and (n, S, S).

    The cell containing the box centre (half-open cells) is responsible for
    it. Its ``coords`` row holds (x_rel, y_rel, w_norm, h_norm): centre
    relative to the cell in [0, 1), extent relative to the image in (0, 1];
    its class is the box's label.
    """
    ih, iw = image_shape
    n = len(boxes)
    obj = np.zeros((n, S, S), dtype=bool)
    coords = np.zeros((n, S, S, 4))
    class_ids = np.zeros((n, S, S), dtype=np.int64)
    cell_h, cell_w = ih / S, iw / S
    for i, box in enumerate(boxes):
        box.check_bounds(image_shape)
        cx, cy = box.x + box.w / 2, box.y + box.h / 2
        col = min(int(cx / cell_w), S - 1)
        row = min(int(cy / cell_h), S - 1)
        obj[i, row, col] = True
        coords[i, row, col] = (cx / cell_w - col, cy / cell_h - row, box.w / iw, box.h / ih)
        class_ids[i, row, col] = box.label
    return obj, coords, class_ids


# ---------------------------------------------------------------------------
# coordinate loss


def coord_loss_arrays(pred: np.ndarray, obj: np.ndarray, coords: np.ndarray):
    """Sum-squared centre error plus sum-squared sqrt-extent error over
    responsible cells, broadcast over all B predictors.

    pred: (..., S, S, B, 4); obj: (..., S, S) bool; coords: (..., S, S, 4).
    Returns (loss, d_pred). Predicted extents must be positive where obj is
    set (the squash guarantees it); a ShapeError is raised otherwise, the
    extents are never silently clipped.
    """
    pred = nm.as_f64(pred)
    mask = obj[..., None].astype(float)                      # (..., S, S, 1)
    t = coords[..., None, :]                                  # (..., S, S, 1, 4)
    pw, ph = pred[..., 2], pred[..., 3]
    if not (np.all(pw[obj.astype(bool)] > 0) and np.all(ph[obj.astype(bool)] > 0)):
        raise ShapeError("predicted extents must be positive on responsible cells")
    d_pred = np.zeros_like(pred)

    dxy = pred[..., :2] - t[..., :2]
    loss_xy = float((mask[..., None] * dxy ** 2).sum())
    d_pred[..., :2] = 2.0 * mask[..., None] * dxy

    # sqrt terms; off-cell entries contribute nothing and get zero gradient
    safe_pred = np.where(mask[..., None] > 0, pred[..., 2:4], 1.0)
    safe_t = np.where(mask[..., None] > 0, t[..., 2:4], 1.0)
    droot = np.sqrt(safe_t) - np.sqrt(safe_pred)
    loss_wh = float((mask[..., None] * droot ** 2).sum())
    d_pred[..., 2:4] = mask[..., None] * (-droot / np.sqrt(safe_pred))
    return loss_xy + loss_wh, d_pred


# ---------------------------------------------------------------------------
# adaptive average pooling and pooled patches (feature resolution -> S x S grid)


def _bin_edges(n: int, bins: int) -> np.ndarray:
    return (np.arange(bins + 1) * n) // bins


def adaptive_avg_pool(x: np.ndarray, out_size: int) -> np.ndarray:
    x = nm.check_tensor4(x, "pool input")
    n, c, h, w = x.shape
    if h < out_size or w < out_size:
        raise ShapeError(f"adaptive pool needs input >= {out_size}, got {(h, w)}")
    eh, ew = _bin_edges(h, out_size), _bin_edges(w, out_size)
    out = np.empty((n, c, out_size, out_size))
    for i in range(out_size):
        for j in range(out_size):
            out[:, :, i, j] = x[:, :, eh[i]:eh[i + 1], ew[j]:ew[j + 1]].mean(axis=(2, 3))
    return out


def pooled_patches(z: np.ndarray, S: int, k: int) -> np.ndarray:
    """Each grid cell's mean k x k patch, (n, c*k*k, S, S) from (n, c, h, w):
    entry (c, a, b) is ``z`` zero-padded by k // 2, shifted by (a, b) and
    pooled, so a 1 x 1 conv with ``kernel.reshape(out_c, -1)`` equals the
    k x k conv (pad k // 2) pooled to S x S."""
    n, c, h, w = z.shape
    p = k // 2
    padded = np.pad(z, ((0, 0), (0, 0), (p, p), (p, p)))
    q = np.empty((n, c, k, k, S, S))
    for a in range(k):
        for b in range(k):
            q[:, :, a, b] = adaptive_avg_pool(padded[:, :, a:a + h, b:b + w], S)
    return q.reshape(n, c * k * k, S, S)


# ---------------------------------------------------------------------------
# detection head

HEAD_KERNEL = 3  # a new head's kernel edge; a loaded head keeps its file's


@dataclass
class DetectHead:
    tap: int
    S: int
    B: int
    class_count: int
    kernel: np.ndarray  # (B*5 + classes, tap_channels, k, k)
    bias: np.ndarray
    feat_mean: np.ndarray  # (tap_channels,) train-split channel means
    feat_std: np.ndarray   # (tap_channels,) train-split channel stds; 1 where constant


def _sigmoid(x):
    # exp of -|x| never overflows, and takes the arguments the two branches need
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_detect_head(spec, tap: int, S: int, B: int, seed: int) -> DetectHead:
    c = spec.tap_shape(tap)[0]
    out_c = B * 5 + spec.class_count
    rng = make_rng(seed)
    fan_in = c * HEAD_KERNEL * HEAD_KERNEL
    limit = np.sqrt(6.0 / fan_in)
    k = rng.uniform(-limit, limit, size=(out_c, c, HEAD_KERNEL, HEAD_KERNEL))
    return DetectHead(tap, S, B, spec.class_count, k, np.zeros(out_c), np.zeros(c), np.ones(c))


def fit_feature_stats(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of (n, c, h, w) features over axes (0, 2, 3).

    A constant channel (a dead relu, say) has std 0 and keeps a divisor of 1.
    """
    axes = (0, 2, 3)
    std = feats.std(axis=axes)
    std[feats.max(axis=axes) == feats.min(axis=axes)] = 1.0
    return feats.mean(axis=axes), std


def standardise(head: DetectHead, feats: np.ndarray) -> np.ndarray:
    """The head's input: ``feats`` with its stored channel statistics applied."""
    out = feats - head.feat_mean[:, None, None]
    out /= head.feat_std[:, None, None]
    return out


def _grid(head: DetectHead, q: np.ndarray) -> np.ndarray:
    """Raw grids (n, S, S, B*5 + classes) of pooled patches ``q``."""
    kernel = head.kernel.reshape(head.kernel.shape[0], -1, 1, 1)
    return nm.conv2d(q, kernel, head.bias).transpose(0, 2, 3, 1)


def head_raw_grids(head: DetectHead, feats: np.ndarray) -> np.ndarray:
    """Raw (pre-squash) prediction grids (n, S, S, B*5 + classes) of the
    frozen features ``feats``."""
    return _grid(head, pooled_patches(standardise(head, feats), head.S, head.kernel.shape[2]))


def _grid_loss(head: DetectHead, grid, obj, coords, class_ids, lambda_coord, lambda_noobj):
    """Full objective: weighted coordinate loss + objectness SSE + class CE,
    of raw grids (n, S, S, out_c); returns (loss, d_grid)."""
    n = grid.shape[0]
    B, S = head.B, head.S
    box_raw = grid[..., :B * 5].reshape(n, S, S, B, 5)
    cls_raw = grid[..., B * 5:]
    box_sig = _sigmoid(box_raw)
    pred_xywh, conf = box_sig[..., :4], box_sig[..., 4]

    coord_loss, d_xywh = coord_loss_arrays(pred_xywh, obj, coords)
    obj_f = obj.astype(float)[..., None]                       # (n, S, S, 1)
    conf_loss = float((obj_f * (conf - 1.0) ** 2).sum()
                      + lambda_noobj * ((1 - obj_f) * conf ** 2).sum())
    d_conf = 2.0 * (obj_f * (conf - 1.0) + lambda_noobj * (1 - obj_f) * conf)

    obj_mask = obj.astype(bool)
    logits = cls_raw[obj_mask]
    labels = class_ids[obj_mask]
    m = logits.shape[0]
    if m:
        cls_loss, d_logits = nm.softmax_cross_entropy(logits, labels)
        cls_loss *= m
        d_logits = d_logits * m
    else:
        cls_loss, d_logits = 0.0, None

    total = (lambda_coord * coord_loss + conf_loss + cls_loss) / n
    d_box_sig = np.concatenate(
        [lambda_coord * d_xywh, d_conf[..., None]], axis=-1)
    d_box_raw = d_box_sig * box_sig * (1 - box_sig)
    d_cls_raw = np.zeros(cls_raw.shape)
    if m:
        d_cls_raw[obj_mask] = d_logits
    return total, np.concatenate([d_box_raw.reshape(n, S, S, B * 5), d_cls_raw], axis=-1) / n


def _head_loss(head: DetectHead, q, obj, coords, class_ids,
               lambda_coord=5.0, lambda_noobj=0.5, want_grads=True):
    """The objective on pooled patches ``q`` of standardised features; returns
    (loss, d_kernel, d_bias), the gradients None without ``want_grads``."""
    total, d_grid = _grid_loss(head, _grid(head, q), obj, coords, class_ids,
                               lambda_coord, lambda_noobj)
    if not want_grads:
        return total, None, None
    d_kernel, d_bias = nm.conv2d_param_grads(
        q, (head.kernel.shape[0], q.shape[1], 1, 1), d_grid.transpose(0, 3, 1, 2))
    return total, d_kernel.reshape(head.kernel.shape), d_bias


def train_detection_head(
    spec: net.NetworkSpec,
    tap: int,
    feats: np.ndarray,
    boxes: list[GtBox],
    S: int,
    B: int,
    configs: list[TrainConfig],
    val_feats: np.ndarray | None = None,
    val_boxes: list[GtBox] | None = None,
    lambda_coord: float = 5.0,
    lambda_noobj: float = 0.5,
) -> list[DetectHead]:
    """Fit one conv head per config (one per head seed), in order, on the
    features a frozen backbone produced at ``tap`` (``cache_frozen_features``).
    The targets, the channel statistics of ``feats`` and each split's pooled
    patches do not depend on the seed, so they are built once for every head.
    Each head stores those statistics and learns on features standardised by
    them, so its step size does not depend on the scale of the tap."""
    image_shape = spec.input_shape[1:]
    obj, coords, class_ids = encode_targets(boxes, S, image_shape)
    stats = fit_feature_stats(feats)
    heads = []
    for config in configs:
        head = init_detect_head(spec, tap, S, B, derive_seed(config.seed, f"detect-head:{tap}"))
        head.feat_mean, head.feat_std = stats
        heads.append(head)

    def patches(x):
        return pooled_patches(standardise(heads[0], x), S, heads[0].kernel.shape[2])

    q = patches(feats)
    has_val = val_feats is not None and len(val_feats)
    if has_val:
        val_obj, val_coords, val_cls = encode_targets(val_boxes, S, image_shape)
        val_q = patches(val_feats)

    def train_one(head, config):
        def step(idx):
            loss, d_k, d_b = _head_loss(head, q[idx], obj[idx], coords[idx], class_ids[idx],
                                        lambda_coord, lambda_noobj)
            return loss, [head.kernel, head.bias], [d_k, d_b]

        def val_loss():
            return _head_loss(head, val_q, val_obj, val_coords, val_cls,
                              lambda_coord, lambda_noobj, want_grads=False)[0]

        rng = make_rng(derive_seed(config.seed, f"order:detect{tap}"))
        fit(step, len(feats), config, rng, val_loss if has_val else None,
            f"detection head at tap {tap}")

    for head, config in zip(heads, configs):
        train_one(head, config)
    return heads


# ---------------------------------------------------------------------------
# head files: the sealed binary format of the backbone's weight files

_HEAD_MAGIC = b"LLH2"


def save_head(head: DetectHead, path) -> None:
    net.write_sealed(path, _HEAD_MAGIC, [
        struct.pack("<4H", head.tap, head.S, head.B, head.class_count),
        *(net.pack_array(a) for a in (head.kernel, head.bias, head.feat_mean, head.feat_std))])


def load_head(path) -> DetectHead:
    r = net.SealedReader(path, _HEAD_MAGIC, "head")
    tap, S, B, class_count = r.unpack("<4H")
    kernel, bias, feat_mean, feat_std = r.array(), r.array(), r.array(), r.array()
    r.finish()
    if min(tap, S, B, class_count) < 1:
        raise WeightsError(
            f"head file header tap={tap} S={S} B={B} classes={class_count}: each must be >= 1")
    if kernel.ndim != 4 or kernel.shape[0] != B * 5 + class_count or bias.shape != kernel.shape[:1]:
        raise WeightsError(
            f"head file arrays {kernel.shape}, {bias.shape} do not fit B={B}, "
            f"classes={class_count}")
    if kernel.shape[2] != kernel.shape[3] or kernel.shape[2] % 2 == 0:
        raise WeightsError(f"head file kernel {kernel.shape[2:]} is not square with an odd edge")
    c = kernel.shape[1]
    if feat_mean.shape != (c,) or feat_std.shape != (c,):
        raise WeightsError(
            f"head file feature statistics {feat_mean.shape}, {feat_std.shape} do not fit "
            f"the kernel's {c} input channels")
    if not np.all(feat_std > 0):
        raise WeightsError("head file feature statistics must have every std > 0")
    return DetectHead(tap, S, B, class_count, kernel, bias, feat_mean, feat_std)


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class Detection:
    box: tuple[float, float, float, float]  # absolute pixels (x, y, w, h)
    class_id: int
    score: float


def decode_grid(grid: np.ndarray, B: int, conf_threshold: float,
                image_shape: tuple[int, int]) -> list[Detection]:
    """Decode one post-squash grid (S, S, B*5 + classes) to detections.

    Per cell and box slot: absolute-pixel box from the cell-relative centre
    and image-relative extent, class = argmax of the cell's class
    probabilities, score = confidence times class probability. Detections
    below ``conf_threshold`` are discarded; boxes are clipped to the image.
    """
    ih, iw = image_shape
    S = grid.shape[0]
    cls = grid[..., B * 5:]
    out: list[Detection] = []
    cell_h, cell_w = ih / S, iw / S
    for row in range(S):
        for col in range(S):
            probs = cls[row, col]
            class_id = int(np.argmax(probs))
            for j in range(B):
                x_rel, y_rel, w_n, h_n, conf = grid[row, col, j * 5:j * 5 + 5]
                score = float(conf * probs[class_id])
                if score < conf_threshold:
                    continue
                w_px, h_px = w_n * iw, h_n * ih
                cx, cy = (col + x_rel) * cell_w, (row + y_rel) * cell_h
                x0, y0 = max(0.0, cx - w_px / 2), max(0.0, cy - h_px / 2)
                x1, y1 = min(float(iw), cx + w_px / 2), min(float(ih), cy + h_px / 2)
                if x1 <= x0 or y1 <= y0:
                    continue
                out.append(Detection((x0, y0, x1 - x0, y1 - y0), class_id, score))
    return out


def decode_predictions(raw_grid: np.ndarray, B: int, conf_threshold: float,
                       image_shape: tuple[int, int]) -> list[Detection]:
    """Decode one raw head output grid: squash boxes/confidence with a sigmoid
    and classes with softmax, then decode."""
    box_part = _sigmoid(raw_grid[..., :B * 5])
    cls_part = nm.softmax(raw_grid[..., B * 5:])
    return decode_grid(np.concatenate([box_part, cls_part], axis=-1),
                       B, conf_threshold, image_shape)


# ---------------------------------------------------------------------------
# evaluation


def box_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    x0, y0 = max(ax, bx), max(ay, by)
    x1, y1 = min(ax + aw, bx + bw), min(ay + ah, by + bh)
    inter = max(0.0, x1 - x0) * max(0.0, y1 - y0)
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression by descending score (stable on ties)."""
    kept: list[Detection] = []
    by_class: dict[int, list[Detection]] = {}
    for d in detections:
        by_class.setdefault(d.class_id, []).append(d)
    for class_id in sorted(by_class):
        cand = sorted(by_class[class_id], key=lambda d: -d.score)
        chosen: list[Detection] = []
        for d in cand:
            if all(box_iou(d.box, k.box) <= iou_threshold for k in chosen):
                chosen.append(d)
        kept.extend(chosen)
    return kept


@dataclass
class DetectionSet:
    """Scored detections and ground truth per image, for evaluation."""

    detections: dict = field(default_factory=dict)   # image_id -> list[Detection]
    ground_truth: dict = field(default_factory=dict)  # image_id -> list[(class_id, box)]

    def add_image(self, image_id, detections, ground_truth):
        self.detections[image_id] = list(detections)
        self.ground_truth[image_id] = [(int(c), tuple(b)) for c, b in ground_truth]


def _match_class(dets, gts, iou_threshold):
    """Greedy one-to-one matching of score-ranked detections to ground truth.

    dets: list of (image_id, score, box); gts: list of (image_id, box).
    Returns the AP (area under the all-point interpolated precision-recall
    curve: precision envelope, summed over recall increments; 0 without
    detections) and the matched IOUs.
    """
    if not dets:
        return 0.0, []
    order = sorted(range(len(dets)), key=lambda i: -dets[i][1])
    gt_by_image: dict = {}
    for gi, (img, box) in enumerate(gts):
        gt_by_image.setdefault(img, []).append((gi, box))
    used = set()
    tp = np.zeros(len(dets), dtype=bool)
    matched_ious = []
    for rank, i in enumerate(order):
        img, _score, box = dets[i]
        best_iou, best_gi = 0.0, None
        for gi, gt_box in gt_by_image.get(img, ()):
            if gi in used:
                continue
            v = box_iou(box, gt_box)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi is not None and best_iou >= iou_threshold:
            used.add(best_gi)
            tp[rank] = True
            matched_ious.append(best_iou)
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    recall = tp_cum / len(gts)
    precision = tp_cum / (tp_cum + fp_cum)
    # monotone envelope from the right, then integrate over recall steps
    env = np.maximum.accumulate(precision[::-1])[::-1]
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - recall_prev) * env).sum()), matched_ious


def average_precision(detections, ground_truth, iou_threshold: float) -> float:
    """AP for one class (see ``_match_class``).

    detections: list of (image_id, score, box); ground_truth: list of
    (image_id, box).
    """
    if not ground_truth:
        raise ValueError("average precision undefined without ground truth")
    return _match_class(detections, ground_truth, iou_threshold)[0]


def default_schedule() -> list[float]:
    """The ten matching thresholds 0.50, 0.55, ..., 0.95."""
    return [(50 + 5 * i) / 100 for i in range(10)]


def map_evaluate(detection_set: DetectionSet) -> dict[str, float]:
    """Class-averaged AP at 0.5 and 0.75, its mean over ``default_schedule()``,
    and the mean matched-box IOU at 0.5. Classes without ground truth are
    excluded. Each class is matched once per threshold: the schedule holds
    0.5 and 0.75, and the match at 0.5 also gives the matched IOUs."""
    per_class: dict[int, tuple[list, list]] = {}
    for img, gts in detection_set.ground_truth.items():
        for c, box in gts:
            per_class.setdefault(c, ([], []))[1].append((img, box))
    for img, dets in detection_set.detections.items():
        for d in dets:
            if d.class_id in per_class:
                per_class[d.class_id][0].append((img, d.score, d.box))

    aps = {t: [] for t in default_schedule()}
    all_ious = []
    for dets, gts in per_class.values():
        for t in aps:
            ap, matched = _match_class(dets, gts, t)
            aps[t].append(ap)
            if t == 0.5:
                all_ious.extend(matched)
    by_threshold = {t: float(np.mean(a)) if a else 0.0 for t, a in aps.items()}
    return {
        "mAP.5": by_threshold[0.5],
        "mAP.75": by_threshold[0.75],
        "mAP.5:.95:.05": float(np.mean(list(by_threshold.values()))),
        "mIOU": float(np.mean(all_ious)) if all_ious else 0.0,
    }
