"""Acceptance suite: one test per release criterion, each printing a PASS
line once its assertions hold. Criteria 6, 7 and 9 run the full pipeline
through the CLI (marked slow; the three together need roughly half an hour
on one core)."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from layerlens import data as dat
from layerlens import detect as dt
from layerlens import explain as ex
from layerlens import locmetrics as lm
from layerlens import network as net
from layerlens import numerics as nm
from layerlens.cli import main, read_csv
from layerlens.locmetrics import GtBox
from layerlens.seeding import make_rng


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(np.asarray(a) - np.asarray(b)).max() / denom


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    for seed in range(10):
        rng = make_rng(seed)

        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        up = rng.standard_normal(nm.conv2d(x, k, b).shape)
        d_x, d_k, d_b = nm.conv2d_backward(x, k, up)
        assert rel_err(d_x, nm.finite_diff_grad(
            lambda v: float((nm.conv2d(v, k, b) * up).sum()), x)) < 1e-5
        assert rel_err(d_k, nm.finite_diff_grad(
            lambda v: float((nm.conv2d(x, v, b) * up).sum()), k)) < 1e-5
        assert rel_err(d_b, nm.finite_diff_grad(
            lambda v: float((nm.conv2d(x, k, v) * up).sum()), b)) < 1e-5

        xr = rng.standard_normal((1, 2, 5, 5))
        xr[np.abs(xr) <= 1e-3] = 0.5
        upr = rng.standard_normal(xr.shape)
        assert rel_err(nm.relu_backward(xr, upr), nm.finite_diff_grad(
            lambda v: float((nm.relu(v) * upr).sum()), xr, 1e-6)) < 1e-5

        xp = rng.permutation(72).astype(float).reshape(1, 2, 6, 6)
        upp = rng.standard_normal((1, 2, 3, 3))
        assert rel_err(nm.maxpool2d_backward(xp, upp, 2), nm.finite_diff_grad(
            lambda v: float((nm.maxpool2d(v, 2) * upp).sum()), xp, 1e-4)) < 1e-5

        xd = rng.standard_normal((3, 5))
        wd = rng.standard_normal((4, 5))
        upd = rng.standard_normal((3, 4))
        d_xd, d_wd, d_bd = nm.dense_backward(xd, wd, upd)
        assert rel_err(d_xd, nm.finite_diff_grad(
            lambda v: float((nm.dense(v.reshape(3, 5), wd, np.zeros(4)) * upd).sum()),
            xd, 1e-6)) < 1e-5
        assert rel_err(d_wd, nm.finite_diff_grad(
            lambda v: float((nm.dense(xd, v.reshape(4, 5), np.zeros(4)) * upd).sum()),
            wd, 1e-6)) < 1e-5

        s = rng.standard_normal(4)
        label = int(rng.integers(4))
        _, d_s = nm.softmax_cross_entropy(s, label)
        assert rel_err(d_s, nm.finite_diff_grad(
            lambda v: nm.softmax_cross_entropy(v.ravel(), label)[0], s, 1e-6)) < 1e-5

        S, B = 3, 2
        boxes = [GtBox(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                       int(rng.integers(4, 12)), int(rng.integers(4, 12)))]
        obj, coords, _ = dt.encode_targets(boxes, S, (32, 32))
        pred = rng.uniform(0.1, 0.9, (S, S, B, 4))
        _, grad = dt.coord_loss_arrays(pred[None], obj, coords)
        fd = nm.finite_diff_grad(
            lambda p: dt.coord_loss_arrays(p.reshape(S, S, B, 4)[None], obj, coords)[0],
            pred, 1e-6)
        assert rel_err(grad[0], fd) < 1e-5
    _ok(1, "gradient correctness, 10 seeds per op")


# ---------------------------------------------------------------------------
# 2. grad-cam conformance


def test_criterion_2_grad_cam_conformance():
    rng = make_rng(99)
    worst = 0.0
    for trial in range(1000):
        channels = int(rng.integers(1, 4))
        edge = int(rng.integers(4, 8))
        layers = [net.Conv(channels, 3), net.Relu(), net.Flatten(), net.Dense(2)]
        spec = net.NetworkSpec(layers, (1, edge, edge), 2)
        params = net.init_params(spec, trial)
        img = rng.standard_normal((1, edge, edge))
        cls = int(rng.integers(2))
        amap = ex.grad_cam(*net.backward_to_tap(spec, params, img[None], cls, (1,)),
                           (1,), (edge, edge))[1]
        assert amap.values.min() >= 0.0

        _, taps = net.forward_with_taps(spec, params, img[None], depth=1)
        _, grads = net.backward_to_tap(spec, params, img[None], cls, (1,))
        a, g = taps[1][0], grads[1][0]
        k, h, w = a.shape
        ref = np.zeros((h, w))
        for kk in range(k):
            alpha = 0.0
            for i in range(h):
                for j in range(w):
                    alpha += g[kk, i, j]
            ref += alpha / (h * w) * a[kk]
        ref = np.maximum(ref, 0.0)
        worst = max(worst, float(np.abs(ex.cam_values(a, g) - ref).max()))
    assert worst < 1e-12
    _ok(2, f"grad-cam brute-force match, 1000 random models, worst {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. metric oracles


def test_criterion_3_metric_oracles():
    # mask IOU against pixel counting
    a = np.zeros((10, 15), dtype=bool)
    b = np.zeros((10, 15), dtype=bool)
    a[0:10, 0:10] = True
    b[0:10, 5:15] = True
    inter = sum(1 for y in range(10) for x in range(15) if a[y, x] and b[y, x])
    union = sum(1 for y in range(10) for x in range(15) if a[y, x] or b[y, x])
    assert lm.iou(a, b) == inter / union == pytest.approx(1 / 3)

    # lime overlap against double loop
    rng = make_rng(3)
    mask = rng.random((16, 16)) > 0.6
    box = GtBox(3, 5, 7, 6)
    count = sum(1 for y in range(16) for x in range(16)
                if mask[y, x] and box.x <= x < box.x + box.w and box.y <= y < box.y + box.h)
    assert lm.lime_overlap(mask, box) == (count, count / box.area)

    # nms against exhaustive suppression
    dets = [
        dt.Detection((0, 0, 10, 10), 0, 0.95),
        dt.Detection((1, 1, 10, 10), 0, 0.90),
        dt.Detection((8, 8, 10, 10), 0, 0.85),
        dt.Detection((0, 0, 10, 10), 1, 0.80),
        dt.Detection((2, 0, 10, 10), 0, 0.75),
    ]
    surviving = []
    for d in sorted(dets, key=lambda d: -d.score):
        if all(k.class_id != d.class_id or dt.box_iou(k.box, d.box) <= 0.5
               for k in surviving):
            surviving.append(d)
    assert sorted(dt.nms(dets, 0.5), key=lambda d: -d.score) == surviving

    # AP against a hand-enumerated precision-recall walk
    gts = [("a", (0, 0, 10, 10)), ("b", (0, 0, 10, 10)), ("c", (0, 0, 10, 10))]
    dets5 = [
        ("a", 0.9, (0, 0, 10, 10)), ("a", 0.8, (20, 20, 5, 5)),
        ("b", 0.7, (0, 0, 10, 10)), ("b", 0.6, (20, 20, 5, 5)),
        ("c", 0.5, (0, 0, 10, 10)),
    ]
    expected = (1 / 3) * 1.0 + (1 / 3) * (2 / 3) + (1 / 3) * (3 / 5)
    assert abs(dt.average_precision(dets5, gts, 0.5) - expected) < 1e-9

    # map report composes the per-threshold APs
    ds = dt.DetectionSet()
    rng = make_rng(8)
    for img in range(6):
        x, y = rng.integers(0, 16, 2)
        gt_box = (float(x), float(y), 10.0, 10.0)
        det_box = (float(x) + float(rng.uniform(0, 4)), float(y), 10.0, 10.0)
        ds.add_image(img, [dt.Detection(det_box, 0, float(rng.random()))], [(0, gt_box)])
    report = dt.map_evaluate(ds)
    dets_all = [(img, d.score, d.box) for img, dd in ds.detections.items() for d in dd]
    gts_all = [(img, bbox) for img, gg in ds.ground_truth.items() for _, bbox in gg]
    per_t = [dt.average_precision(dets_all, gts_all, t) for t in dt.default_schedule()]
    assert abs(report["mAP.5:.95:.05"] - np.mean(per_t)) < 1e-9

    # the multi-threshold schedule is exactly the ten stated values
    assert dt.default_schedule() == [0.50, 0.55, 0.60, 0.65, 0.70,
                                     0.75, 0.80, 0.85, 0.90, 0.95]
    _ok(3, "metric oracles (iou, overlap, nms, AP, mAP, schedule)")


# ---------------------------------------------------------------------------
# 4. binarization contract


def test_criterion_4_binarization_exact_count():
    rng = make_rng(1)
    cases = []
    for h, w in [(1, 1), (3, 7), (10, 10), (13, 17), (32, 32), (64, 64)]:
        cases.append(np.full((h, w), 0.5))                  # all ties
        cases.append(rng.uniform(0, 1, (h, w)))             # distinct values
        cases.append(np.round(rng.uniform(0, 1, (h, w)), 1))  # heavy ties
    for p in (10.0, 50.0, 75.0, 90.0, 99.0, 99.9):
        for values in cases:
            mask = lm.binarize_percentile(values, p)
            expected = math.ceil((1 - Fraction(p) / 100) * values.size)
            assert int(mask.sum()) == expected, (p, values.shape)
    _ok(4, "binarization true-count exact for all inputs")


# ---------------------------------------------------------------------------
# 5. granulometry conservation


def _naive_opening(mask, size):
    h, w = mask.shape
    pad = size
    eroded = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            y0, y1, x0, x1 = y - pad, y + pad + 1, x - pad, x + pad + 1
            if y0 < 0 or x0 < 0 or y1 > h or x1 > w:
                continue
            eroded[y, x] = mask[y0:y1, x0:x1].all()
    opened = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            if eroded[y, x]:
                opened[max(0, y - pad):y + pad + 1, max(0, x - pad):x + pad + 1] = True
    return opened


def test_criterion_5_granulometry_conservation():
    rng = make_rng(5)
    for trial in range(100):
        edge = int(rng.integers(8, 65))
        density = float(rng.uniform(0.15, 0.85))
        mask = rng.random((edge, edge)) < density
        max_size = int(rng.integers(1, 4)) if edge > 32 else int(rng.integers(1, 6))
        spec = lm.granulometry(mask, max_size)
        assert all(r >= 0 for r in spec.removed)
        assert sum(spec.removed) == spec.total_area == int(mask.sum())
        # spot-check the opening chain against the naive oracle
        if trial % 10 == 0:
            prev = int(mask.sum())
            removed = []
            for s in range(1, max_size + 1):
                area = int(_naive_opening(mask, s).sum())
                removed.append(float(prev - area))
                prev = area
            removed[-1] += prev
            assert list(spec.removed) == removed
    _ok(5, "granulometry spectra conserve area on 100 random masks")


# ---------------------------------------------------------------------------
# 8. lime planted signal (fast; numbered per the criteria list)


def test_criterion_8_lime_planted_signal():
    grid = ex.superpixel_grid((16, 16), 4)
    img = np.ones((1, 16, 16))
    planted = 3
    inside = grid.labels == planted

    def black_box(stack):
        return np.array([float((im[0] > 0)[inside].sum()) for im in stack])

    hits = 0
    for seed in range(100):
        res = ex.lime_explain(black_box, img, grid, n_samples=60, ridge_lambda=1.0,
                              keep_prob=0.5, k=1, rng=make_rng(seed))
        if res.selected == (planted,):
            hits += 1
    assert hits >= 95

    # ridge solution equals the explicit normal-equations solve
    res = ex.lime_explain(black_box, img, grid, 40, 0.7, 0.5, 1, make_rng(7))
    z, y = res.samples, res.scores
    n, p = z.shape
    a = np.zeros((p + 1, p + 1))
    a[:p, :p] = z.T @ z + 0.7 * np.eye(p)
    a[:p, p] = a[p, :p] = z.sum(axis=0)
    a[p, p] = n
    sol = np.linalg.solve(a, np.concatenate([z.T @ y, [y.sum()]]))
    assert np.abs(res.patch_weights - sol[:p]).max() < 1e-9
    _ok(8, f"lime planted-signal recovery {hits}/100, ridge matches closed form")


# ---------------------------------------------------------------------------
# 6. localisation comparison (slow)


@pytest.mark.slow
def test_criterion_6_localisation_comparison(tmp_path):
    taps = (2, 3, 4, 5)
    fractions = {}
    acc_gaps = []
    for seed in (101, 102, 103):
        out = tmp_path / f"loc{seed}"
        base = ["--config", "preset-localise", "--out", str(out), "--seed", str(seed)]
        assert main(base + ["generate"]) == 0
        assert main(base + ["train", "--scheme", "e2e"]) == 0
        assert main(base + ["train", "--scheme", "cl"]) == 0

        accs = {}
        for scheme, report in (("e2e", "train_report_e2e.csv"),
                               ("cl", "train_report_cl_k6.csv")):
            _, _, rows = read_csv(out / report)
            final = [r for r in rows if r[0] == "final"]
            accs[scheme] = float(final[0][3])
        gap = abs(accs["e2e"] - accs["cl"])
        acc_gaps.append(gap)
        assert gap <= 0.03, f"seed {seed}: train accuracies {accs} differ by {gap:.3f}"

        assert main(base + ["compare",
                            "--weights-cl", str(out / "weights_cl_k6.llw"),
                            "--weights-e2e", str(out / "weights_e2e.llw")]) == 0
        _, _, rows = read_csv(out / "compare_summary.csv")
        for method, tap, n, frac, lacc_cl, lacc_e2e in rows:
            if method == "grad_cam" and int(tap) in taps:
                fractions[(int(tap), seed)] = float(frac)

    assert len(fractions) == len(taps) * 3
    wins = sum(1 for v in fractions.values() if v > 0.5)
    for (tap, seed), v in sorted(fractions.items()):
        print(f"  tap {tap} seed {seed}: paired fraction CL>E2E = {v:.3f}")
    assert wins > len(fractions) / 2, (
        f"CL won only {wins}/{len(fractions)} (tap, seed) pairs: {fractions}")
    _ok(6, f"CL beats E2E on {wins}/{len(fractions)} (tap, seed) pairs; "
           f"max train-acc gap {max(acc_gaps):.3f}")


# ---------------------------------------------------------------------------
# 7. frozen-backbone detection comparison (slow)


@pytest.mark.slow
def test_criterion_7_detection_comparison(tmp_path):
    out = tmp_path / "det"
    base = ["--config", "preset-detect", "--out", str(out)]
    assert main(base + ["generate"]) == 0
    assert main(base + ["train", "--scheme", "e2e"]) == 0
    assert main(base + ["train", "--scheme", "cl"]) == 0

    stats = {}  # (scheme, tap) -> (mean, std)
    for scheme, weights in (("cl", "weights_cl_k6.llw"), ("e2e", "weights_e2e.llw")):
        for tap in range(1, 7):
            assert main(base + ["detect", "--weights", str(out / weights),
                                "--tap", str(tap), "--head-seeds", "3"]) == 0
            stem = Path(weights).stem
            _, _, rows = read_csv(out / f"detect_{stem}_tap{tap}" / "report.csv")
            row = next(r for r in rows if r[0] == "mAP.5")
            stats[(scheme, tap)] = (float(row[1]), float(row[2]))

    print("  mAP.5 per tap (mean +/- std over 3 head seeds):")
    for tap in range(1, 7):
        cl_m, cl_s = stats[("cl", tap)]
        e_m, e_s = stats[("e2e", tap)]
        print(f"  tap {tap}:  CL {100 * cl_m:6.2f}+/-{100 * cl_s:5.2f}   "
              f"E2E {100 * e_m:6.2f}+/-{100 * e_s:5.2f}")

    best_cl_tap = max(range(1, 7), key=lambda t: stats[("cl", t)][0])
    best_e2e_tap = max(range(1, 7), key=lambda t: stats[("e2e", t)][0])
    cl_mean, cl_std = stats[("cl", best_cl_tap)]
    e2e_mean, e2e_std = stats[("e2e", best_e2e_tap)]
    pooled = math.sqrt((cl_std ** 2 + e2e_std ** 2) / 2)
    assert cl_mean >= e2e_mean - pooled, (
        f"CL best {cl_mean:.4f} (tap {best_cl_tap}) vs "
        f"E2E best {e2e_mean:.4f} (tap {best_e2e_tap}), pooled std {pooled:.4f}")
    _ok(7, f"CL best mAP.5 {100 * cl_mean:.2f} (tap {best_cl_tap}) vs "
           f"E2E {100 * e2e_mean:.2f} (tap {best_e2e_tap}), pooled std {100 * pooled:.2f}")


# ---------------------------------------------------------------------------
# 9. determinism suite (slow-ish)


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    cfg = {
        "seed": 17,
        "out_dir": str(tmp_path / "run"),
        "dataset": {"n_images": 48, "image_edge": 32, "class_count": 3,
                    "noise": 0.2, "split_fractions": [0.5, 0.25, 0.25]},
        "model": {"widths": [4, 4, 6, 6, 8, 8]},
        "train": {"e2e": {"epochs": 2}, "cascade": {"epochs": 1},
                  "probe": {"epochs": 2}},
        "explain": {"methods": ["grad_cam", "saliency", "lime"], "taps": [2, 4],
                    "lime": {"n_samples": 30}},
        "detect": {"S": 4, "tap": 4, "train": {"epochs": 2}},
        "granulometry": {"max_size": 6},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"

    def run_all():
        c = ["--config", str(cfg_path)]
        assert main(c + ["generate"]) == 0
        assert main(c + ["train", "--scheme", "e2e"]) == 0
        assert main(c + ["train", "--scheme", "cl"]) == 0
        assert main(c + ["explain", "--weights", str(out / "weights_e2e.llw")]) == 0
        assert main(c + ["compare",
                         "--weights-cl", str(out / "weights_cl_k6.llw"),
                         "--weights-e2e", str(out / "weights_e2e.llw")]) == 0
        assert main(c + ["detect", "--weights", str(out / "weights_cl_k6.llw")]) == 0
        assert main(c + ["granulometry", "--weights", str(out / "weights_e2e.llw")]) == 0

    def tree():
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    run_all()
    first = tree()
    run_all()
    second = tree()
    assert first == second
    kinds = {Path(k).suffix for k in first}
    assert {".pgm", ".csv", ".llw", ".llh", ".meta", ".txt", ".spec"} <= kinds
    _ok(9, f"byte-identical rerun across {len(first)} output files")
