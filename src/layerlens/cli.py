"""Experiment driver: generate -> train -> explain/compare/detect/granulometry.

Every command is a pure function of (config, input files): rerunning one
overwrites its outputs with identical bytes. All randomness flows from the
single config seed through named sub-seeds, which are logged in each CSV
header together with the effective config hash. Exit codes: 0 success,
1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import data as dat
from . import detect as dt
from . import explain as ex
from . import locmetrics as lm
from . import network as net
from . import numerics as nm
from . import training as tr
from .config import (ExperimentConfig, check_grid, check_k, check_methods, check_taps,
                     load_config, shape_spec)
from .errors import ConfigError, LayerlensError
from .fileio import atomic_open
from .seeding import derive_seed, make_rng

CSV_SCHEMAS = {
    "train": ("layerlens.train.v1", ["record", "stage", "epoch", "train", "val"]),
    "explain": ("layerlens.explain.v1",
                ["image_id", "method", "tap", "iou", "percentile",
                 "granulometry_summary", "lime_overlap_count", "lime_overlap_fraction"]),
    "compare_pairs": ("layerlens.compare_pairs.v1",
                      ["image_id", "method", "tap", "iou_cl", "iou_e2e"]),
    "compare_summary": ("layerlens.compare_summary.v1",
                        ["method", "tap", "n_images", "frac_cl_gt_e2e", "lacc_cl", "lacc_e2e"]),
    "detections": ("layerlens.detections.v1",
                   ["image_id", "class", "score", "x", "y", "w", "h"]),
    "detect_report": ("layerlens.detect_report.v1", ["metric", "mean", "std", "pretty"]),
    "granulometry": ("layerlens.granulometry.v1",
                     ["image_id", "scheme", "tap", "size", "area_removed"]),
    "granulometry_summary": ("layerlens.granulometry_summary.v1",
                             ["scheme", "tap", "mean_size", "n_images"]),
}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip form: exact and byte-stable
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "" if v is None else str(v)


def write_csv(path, schema_key: str, rows, cfg: ExperimentConfig, subseeds: dict) -> None:
    name, header = CSV_SCHEMAS[schema_key]
    note = " ".join(f"{k}={v}" for k, v in subseeds.items())
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema={name} config={cfg.hash} seed={cfg.seed} {note}\n".rstrip() + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path):
    """Header comment, column names, and rows of a report CSV."""
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# shared loading helpers


def _dataset_dir(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "dataset"


def _load_splits(cfg: ExperimentConfig, *names):
    """(x, y, annotations) of each named split, in image-id order."""
    root = _dataset_dir(cfg)
    manifest_path = root / "manifest.txt"
    if not manifest_path.is_file():
        raise LayerlensError(
            f"dataset manifest not found at {manifest_path}; run 'generate' first")
    manifest = dat.load_manifest(manifest_path)
    return [dat.load_split_arrays(manifest, root, name) for name in names]


def _taps(cfg: ExperimentConfig, flag: str | None) -> list[int]:
    """The taps a ``--taps`` flag names, by the config's rule; ``explain.taps`` without it."""
    if flag is None:
        return cfg["explain"]["taps"]
    try:
        taps = [int(t) for t in flag.split(",")]
    except ValueError:
        raise ConfigError(f"--taps: expected comma-separated integers, got {flag!r}") from None
    return check_taps("--taps", taps)


def _pool_map(fn, items, jobs: int):
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: ExperimentConfig, args) -> int:
    d = cfg["dataset"]
    spec = shape_spec(d)
    data_seed = derive_seed(cfg.seed, "data")
    manifest = dat.generate_shapes_dataset(
        spec, d["n_images"], d["class_count"], data_seed,
        _dataset_dir(cfg), tuple(d["split_fractions"]))
    counts = manifest.split_counts()
    print(f"generated {len(manifest.annotations)} images "
          f"({', '.join(f'{k}={v}' for k, v in counts.items())}) "
          f"classes={','.join(manifest.class_names)} -> {_dataset_dir(cfg)}")
    return 0


def _weights_name(scheme: str, k: int) -> str:
    return "weights_e2e.llw" if scheme == "e2e" else f"weights_cl_k{k}.llw"


def cmd_train(cfg: ExperimentConfig, args) -> int:
    k = check_k("--k", args.k) if args.k is not None else cfg["train"]["k"]
    (x_tr, y_tr, _), (x_va, y_va, _) = _load_splits(cfg, "train", "val")
    train = tr.LabelledSet(x_tr, y_tr)
    val = tr.LabelledSet(x_va, y_va) if len(x_va) else None
    spec = cfg.spec
    scheme = args.scheme

    if scheme == "e2e":
        tcfg = tr.TrainConfig(**cfg["train"]["e2e"], seed=derive_seed(cfg.seed, "train:e2e"))
        params, stages = tr.train_e2e(spec, train, tcfg, val)
    else:
        tcfg = tr.TrainConfig(**cfg["train"]["cascade"],
                              seed=derive_seed(cfg.seed, f"train:cl{k}"))
        plan = tr.make_split_plan(spec.tap_count, k)
        params, stages = tr.train_cascade(spec, train, tcfg, plan, val)

    pcfg = tr.TrainConfig(**cfg["train"]["probe"], seed=derive_seed(cfg.seed, f"probe:{scheme}"))
    _, probe_acc = tr.train_probes(spec, params, train, pcfg, val)
    # the last stage (e2e, or cl_classifier) trained the whole model
    train_acc, val_acc = stages[-1].train_acc, stages[-1].val_acc

    weights_path = cfg.out_dir / _weights_name(scheme, k)
    net.save_weights(spec, params, weights_path)

    rows = []
    for stage in stages:
        for epoch, loss in enumerate(stage.train_losses):
            v = stage.val_losses[epoch] if epoch < len(stage.val_losses) else None
            rows.append(("loss", stage.name, epoch, loss, v))
        rows.append(("stage_acc", stage.name, None, stage.train_acc, stage.val_acc))
    for tap in sorted(probe_acc):
        t_acc, v_acc = probe_acc[tap]
        rows.append(("probe", f"tap{tap}", None, t_acc, v_acc))
    rows.append(("final", "full_model", None, train_acc, val_acc))
    report_path = cfg.out_dir / f"train_report_{scheme if scheme == 'e2e' else f'cl_k{k}'}.csv"
    write_csv(report_path, "train", rows, cfg, {"train_seed": tcfg.seed, "probe_seed": pcfg.seed})
    print(f"trained {scheme} (k={k if scheme == 'cl' else '-'}) "
          f"train_acc={train_acc:.4f} val_acc={val_acc if val_acc is None else f'{val_acc:.4f}'} "
          f"-> {weights_path}")
    return 0


def _save_heatmap(values: np.ndarray, path: Path) -> None:
    lo, hi = float(values.min()), float(values.max())
    scaled = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)
    dat.write_image(scaled[None, :, :], path)
    with atomic_open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"min={_fmt(lo)} max={_fmt(hi)}\n")


# LIME perturbations scored per forward pass: larger batches stop paying at
# about 8 on the preset net, while each thread's layer-1 im2col copy (and so
# peak memory) keeps growing with the batch
LIME_BATCH = 8


def _image_maps(params, ann, image, cfg, methods, taps, percentile):
    """``{(method, tap): (heatmap, binary mask)}`` for one image; pure, thread-safe.

    Each method runs once: Grad-CAM at every tap and saliency share one forward
    and one backward pass, and saliency and LIME give one map for all taps.
    Grad-CAM and saliency heatmaps are the smoothed maps, binarised at
    ``percentile``; LIME's is its clipped patch-weight map, and its mask the
    selected patches.
    """
    def smoothed(amap):
        heat = ex.gaussian_smooth(amap, cfg["explain"]["sigma"]).values
        return heat, lm.binarize_percentile(heat, percentile)

    maps = {}
    spec = cfg.spec
    grad_taps = ((tuple(taps) if "grad_cam" in methods else ())
                 + ((0,) if "saliency" in methods else ()))
    if grad_taps:
        acts, grads = net.backward_to_tap(spec, params, image[None], ann.label, grad_taps)
    if "grad_cam" in methods:
        for tap, amap in ex.grad_cam(acts, grads, taps, image.shape[1:]).items():
            maps["grad_cam", tap] = smoothed(amap)
    if "saliency" in methods:
        maps.update(dict.fromkeys((("saliency", tap) for tap in taps),
                                  smoothed(ex.saliency(grads[0][0]))))
    if "lime" in methods:
        lcfg = cfg["explain"]["lime"]
        grid = ex.superpixel_grid(image.shape[1:], lcfg["patch_edge"])

        def black_box(stack):
            (scores,) = tr.map_batches(
                lambda xb: (nm.softmax(net.forward_with_taps(spec, params, xb)[0])[:, ann.label],),
                LIME_BATCH, stack)
            return scores

        rng = make_rng(derive_seed(cfg.seed, f"lime:{ann.image_id}"))
        expl = ex.lime_explain(
            black_box, image, grid, lcfg["n_samples"], lcfg["ridge_lambda"],
            lcfg["keep_prob"], min(lcfg["top_k"], grid.patch_count), rng)
        _, mask = ex.lime_mask(image, expl, grid)
        heat = np.maximum(expl.patch_weights[grid.labels], 0.0)
        maps.update(dict.fromkeys((("lime", tap) for tap in taps), (heat, mask)))
    return maps


def cmd_explain(cfg: ExperimentConfig, args) -> int:
    methods = (check_methods("--methods", args.methods.split(",")) if args.methods
               else cfg["explain"]["methods"])
    taps = _taps(cfg, args.taps)
    [(x, _, anns)] = _load_splits(cfg, "test")
    params = net.load_weights(args.weights, cfg.spec)
    percentile = cfg["explain"]["percentile"]
    edge = cfg["dataset"]["image_edge"]

    stem = Path(args.weights).stem
    out_root = cfg.out_dir / f"explain_{stem}"
    heat_root = out_root / "heatmaps"
    heat_root.mkdir(parents=True, exist_ok=True)

    def one(item):
        ann, image = item
        gt = lm.rasterize_box(ann.box, (edge, edge))
        maps = _image_maps(params, ann, image, cfg, methods, taps, percentile)
        out = []  # (method, tap, heatmap, metrics row)
        for method in methods:
            gsum = None
            for tap in taps:
                heat, mask = maps[method, tap]
                if gsum is None or method == "grad_cam":  # other masks fit every tap
                    gsum = lm.granulometry(mask, cfg["granulometry"]["max_size"]).mean_size
                if method == "lime":
                    ov = lm.lime_overlap(mask, ann.box)
                    row = (None, gsum, ov.count, ov.fraction)
                else:
                    row = (percentile, gsum, None, None)
                out.append((method, tap, heat,
                            (ann.image_id, method, tap, lm.iou(mask, gt), *row)))
        return out

    results = _pool_map(one, list(zip(anns, x)), cfg["jobs"])
    rows = []
    for per_image in results:
        for method, tap, heat, row in per_image:
            _save_heatmap(heat, heat_root / f"{row[0]}_{method}_tap{tap}.pgm")
            rows.append(row)
    write_csv(out_root / "metrics.csv", "explain", rows, cfg,
              {"lime_seed_base": derive_seed(cfg.seed, "lime:000000")})
    print(f"explained {len(anns)} images x {len(taps)} taps x {len(methods)} methods "
          f"-> {out_root}")
    return 0


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    [(x, _, anns)] = _load_splits(cfg, "test")
    params_cl = net.load_weights(args.weights_cl, cfg.spec)
    params_e2e = net.load_weights(args.weights_e2e, cfg.spec)
    methods = cfg["explain"]["methods"]
    taps = cfg["explain"]["taps"]
    percentile = cfg["explain"]["percentile"]
    edge = cfg["dataset"]["image_edge"]

    def one(item):
        ann, image = item
        gt = lm.rasterize_box(ann.box, (edge, edge))
        cl, e2e = (_image_maps(params, ann, image, cfg, methods, taps, percentile)
                   for params in (params_cl, params_e2e))
        return [(ann.image_id, m, t, lm.iou(cl[m, t][1], gt), lm.iou(e2e[m, t][1], gt))
                for m in methods for t in taps]

    results = _pool_map(one, list(zip(anns, x)), cfg["jobs"])
    pair_rows = [r for rows in results for r in rows]
    write_csv(cfg.out_dir / "compare_pairs.csv", "compare_pairs", pair_rows, cfg, {})

    summary_rows = []
    for method in methods:
        for tap in taps:
            sel = [r for r in pair_rows if r[1] == method and r[2] == tap]
            ious_cl = np.array([r[3] for r in sel])
            ious_e2e = np.array([r[4] for r in sel])
            summary_rows.append((
                method, tap, len(sel),
                float((ious_cl > ious_e2e).mean()) if len(sel) else 0.0,
                lm.localisation_accuracy(ious_cl) if len(sel) else 0.0,
                lm.localisation_accuracy(ious_e2e) if len(sel) else 0.0,
            ))
    write_csv(cfg.out_dir / "compare_summary.csv", "compare_summary", summary_rows, cfg, {})
    for method, tap, n, frac, lacc_cl, lacc_e2e in summary_rows:
        print(f"{method} tap{tap}: n={n} frac(CL>E2E)={frac:.3f} "
              f"L-ACC cl={lacc_cl:.3f} e2e={lacc_e2e:.3f}")
    return 0


def cmd_detect(cfg: ExperimentConfig, args) -> int:
    spec = cfg.spec
    params = net.load_weights(args.weights, spec)
    dcfg = cfg["detect"]
    tap = args.tap if args.tap is not None else dcfg["tap"]
    head_seeds = args.head_seeds if args.head_seeds is not None else dcfg["head_seeds"]
    S, B = dcfg["S"], dcfg["B"]
    edge = cfg["dataset"]["image_edge"]

    check_taps("--tap", [tap])
    if head_seeds < 1:
        raise ConfigError(f"--head-seeds: must be >= 1, got {head_seeds}")
    check_grid(spec, S, tap)

    (x_tr, _, anns_tr), (x_va, _, anns_va), (x_te, _, anns_te) = _load_splits(
        cfg, "train", "val", "test")
    if not len(x_tr):
        raise LayerlensError(f"no training rows for detection head at tap {tap}")

    stem = Path(args.weights).stem
    out_root = cfg.out_dir / f"detect_{stem}_tap{tap}"
    out_root.mkdir(parents=True, exist_ok=True)

    # the backbone is frozen: every head seed trains on the same features
    train_feats = tr.cache_frozen_features(spec, params, x_tr, tap)
    val_feats = tr.cache_frozen_features(spec, params, x_va, tap) if len(x_va) else None
    test_feats = tr.cache_frozen_features(spec, params, x_te, tap)
    configs = [tr.TrainConfig(**dcfg["train"], seed=derive_seed(cfg.seed, f"detect:{tap}:{i}"))
               for i in range(head_seeds)]
    trained = dt.train_detection_head(
        spec, tap, train_feats, [a.box for a in anns_tr], S, B, configs,
        val_feats=val_feats, val_boxes=[a.box for a in anns_va],
        lambda_coord=dcfg["lambda_coord"], lambda_noobj=dcfg["lambda_noobj"])
    reports, first_detections = [], None
    for i, head in enumerate(trained):
        dt.save_head(head, out_root / f"head_seed{i}.llh")

        raw = dt.head_raw_grids(head, test_feats)
        det_set = dt.DetectionSet()
        for j, ann in enumerate(anns_te):
            dets = dt.decode_predictions(raw[j], B, dcfg["conf_threshold"], (edge, edge))
            dets = dt.nms(dets, dcfg["nms_iou"])
            det_set.add_image(
                ann.image_id, dets,
                [(ann.label, (ann.box.x, ann.box.y, ann.box.w, ann.box.h))])
        reports.append(dt.map_evaluate(det_set))
        if first_detections is None:
            first_detections = det_set

    det_rows = []
    for image_id in sorted(first_detections.detections):
        for d in first_detections.detections[image_id]:
            det_rows.append((image_id, d.class_id, d.score) + tuple(d.box))
    write_csv(out_root / "detections.csv", "detections", det_rows, cfg,
              {"head_seed0": derive_seed(cfg.seed, f"detect:{tap}:0")})

    metric_rows = []
    for key in ("mAP.5", "mAP.75", "mAP.5:.95:.05", "mIOU"):
        vals = np.array([r[key] for r in reports])
        mean, std = float(vals.mean()), float(vals.std(ddof=0))
        pretty = f"{100 * mean:.2f}±{100 * std:.2f}"
        metric_rows.append((key, mean, std, pretty))
    write_csv(out_root / "report.csv", "detect_report", metric_rows, cfg,
              {"seeds": head_seeds, "tap": tap})
    for key, mean, std, pretty in metric_rows:
        print(f"{key}: {pretty} (tap {tap}, {head_seeds} seed(s))")
    return 0


def cmd_granulometry(cfg: ExperimentConfig, args) -> int:
    [(x, _, anns)] = _load_splits(cfg, "test")
    params = net.load_weights(args.weights, cfg.spec)
    taps = _taps(cfg, args.taps)
    percentile = cfg["granulometry"]["percentile"]
    max_size = cfg["granulometry"]["max_size"]
    scheme = params.provenance.scheme

    def one(item):
        ann, image = item
        maps = _image_maps(params, ann, image, cfg, ["grad_cam"], taps, percentile)
        rows, summaries = [], []
        for tap in taps:
            spectrum = lm.granulometry(maps["grad_cam", tap][1], max_size)
            for size, removed in zip(spectrum.sizes, spectrum.removed):
                rows.append((ann.image_id, scheme, tap, size, removed))
            summaries.append((tap, spectrum.mean_size))
        return rows, summaries

    results = _pool_map(one, list(zip(anns, x)), cfg["jobs"])
    all_rows = [r for rows, _ in results for r in rows]
    stem = Path(args.weights).stem
    write_csv(cfg.out_dir / f"granulometry_{stem}.csv", "granulometry", all_rows, cfg, {})

    summary_rows = []
    for tap in taps:
        vals = [s for _, summaries in results for t, s in summaries if t == tap]
        summary_rows.append((scheme, tap, float(np.mean(vals)) if vals else 0.0, len(vals)))
    write_csv(cfg.out_dir / f"granulometry_{stem}_summary.csv",
              "granulometry_summary", summary_rows, cfg, {})
    for scheme_name, tap, mean_size, n in summary_rows:
        print(f"{scheme_name} tap{tap}: mean granulometry {mean_size:.3f} over {n} images")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerlens",
        description="Train small conv nets two ways, explain every layer, "
                    "and score localisation against ground-truth boxes.")
    parser.add_argument("--config", required=True,
                        help="config file path, or a preset name "
                             "(preset-localise, preset-detect)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker threads for per-image work")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write the synthetic dataset")

    p_train = sub.add_parser("train", help="train one scheme")
    p_train.add_argument("--scheme", choices=["e2e", "cl"], required=True)
    p_train.add_argument("--k", type=int, default=None,
                         help="cascade sub-module count (cl only)")

    p_explain = sub.add_parser("explain", help="heatmaps + localisation metrics")
    p_explain.add_argument("--weights", required=True)
    p_explain.add_argument("--methods", default=None, help="comma-separated")
    p_explain.add_argument("--taps", default=None, help="comma-separated tap indices")

    p_cmp = sub.add_parser("compare", help="paired per-image IOU, CL vs E2E")
    p_cmp.add_argument("--weights-cl", required=True)
    p_cmp.add_argument("--weights-e2e", required=True)

    p_det = sub.add_parser("detect", help="train + evaluate a frozen-backbone head")
    p_det.add_argument("--weights", required=True)
    p_det.add_argument("--tap", type=int, default=None)
    p_det.add_argument("--head-seeds", type=int, default=None)

    p_gran = sub.add_parser("granulometry", help="pattern spectra of binarized maps")
    p_gran.add_argument("--weights", required=True)
    p_gran.add_argument("--taps", default=None)
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "explain": cmd_explain,
    "compare": cmd_compare,
    "detect": cmd_detect,
    "granulometry": cmd_granulometry,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "out_dir": args.out, "jobs": args.jobs}
        cfg = load_config(args.config, overrides)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except LayerlensError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
