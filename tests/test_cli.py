import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layerlens
from layerlens import cli
from layerlens import data as dat
from layerlens import explain as ex
from layerlens import locmetrics as lm
from layerlens import network as net
from layerlens import numerics as nm
from layerlens.cli import main, read_csv
from layerlens.config import load_config
from layerlens.errors import ConfigError
from layerlens.seeding import derive_seed, make_rng


def make_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "dataset": {"n_images": 48, "image_edge": 32, "class_count": 3,
                    "noise": 0.2, "split_fractions": [0.5, 0.25, 0.25]},
        "model": {"widths": [4, 4, 6, 6, 8, 8]},
        "train": {"e2e": {"epochs": 2}, "cascade": {"epochs": 1},
                  "probe": {"epochs": 2}},
        "explain": {"methods": ["grad_cam"], "taps": [2, 4],
                    "lime": {"n_samples": 30}},
        "detect": {"S": 4, "tap": 4, "train": {"epochs": 2}},
        "granulometry": {"max_size": 6},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = make_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--config", str(cfg_path), "generate"]) == 0
    assert main(["--config", str(cfg_path), "train", "--scheme", "e2e"]) == 0
    assert main(["--config", str(cfg_path), "train", "--scheme", "cl"]) == 0
    return cfg_path, out


def test_generate_outputs(pipeline):
    cfg_path, out = pipeline
    manifest = dat.load_manifest(out / "dataset" / "manifest.txt")
    assert len(manifest.annotations) == 48
    counts = manifest.split_counts()
    assert counts["train"] == 24 and counts["val"] == 12 and counts["test"] == 12


def test_unknown_config_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    assert main(["--config", str(path), "generate"]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "generate"]) == 2


def test_module_entry_point_runs_main(tmp_path):
    """``python -m layerlens.cli`` runs the CLI and returns its exit code."""
    src = str(Path(layerlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "layerlens.cli", "--config", str(tmp_path / "nope.json"),
         "generate"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_loads_no_scipy(tmp_path):
    """The runtime is numpy-only: a fresh interpreter that imports the CLI and
    generates a dataset holds no scipy module. It runs in a subprocess
    because the test process may have imported scipy already."""
    src = str(Path(layerlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg_path = make_config(tmp_path)
    code = ("import sys\n"
            "from layerlens.cli import main\n"
            f"assert main(['--config', {str(cfg_path)!r}, 'generate']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_config_rejects_nested_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"n_image": 5}}))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert "n_image" in str(e.value)


def test_config_flag_overrides_win(tmp_path):
    path = make_config(tmp_path)
    cfg = load_config(path, {"seed": 99, "out_dir": "elsewhere"})
    assert cfg.seed == 99
    assert str(cfg.out_dir) == "elsewhere"


@pytest.mark.parametrize("section, error", [
    ({"jobs": 0}, "jobs"),
    ({"explain": {"percentile": 150.0}}, "explain.percentile"),
    ({"granulometry": {"percentile": 0}}, "granulometry.percentile"),
    ({"explain": {"sigma": -1.0}}, "explain.sigma"),
    ({"explain": {"taps": [7]}}, "1..6"),
    ({"train": {"k": 7}}, "1..6"),
    ({"detect": {"head_seeds": 0}}, "detect.head_seeds"),
    ({"granulometry": {"max_size": 0}}, "granulometry.max_size"),
    ({"explain": {"lime": {"n_samples": 0}}}, "explain.lime.n_samples"),
    ({"model": {"kernel": 0}}, "model.kernel"),
    ({"model": {"widths": [8, 8, 0, 16, 32, 32]}}, "model.widths"),
    ({"train": {"e2e": {"batch_size": 0}}}, "train.e2e"),
    ({"train": {"cascade": {"epochs": -1}}}, "train.cascade"),
    ({"train": {"probe": {"lr": 0}}}, "train.probe"),
    ({"detect": {"train": {"momentum": -0.5}}}, "detect.train"),
    ({"detect": {"B": 0}}, "detect.B"),
    ({"explain": {"lime": {"ridge_lambda": 0}}}, "explain.lime.ridge_lambda"),
    ({"explain": {"lime": {"keep_prob": 1.0}}}, "explain.lime.keep_prob"),
    ({"explain": {"lime": {"top_k": 0}}}, "explain.lime.top_k"),
    ({"explain": {"lime": {"patch_edge": 0}}}, "explain.lime.patch_edge"),
    ({"explain": {"lime": {"patch_edge": 33}}}, "explain.lime.patch_edge: must be in 1..16"),
    ({"detect": {"nms_iou": -1}}, "detect.nms_iou"),
    ({"detect": {"conf_threshold": 1.5}}, "detect.conf_threshold"),
    ({"detect": {"lambda_coord": -1}}, "detect.lambda_coord"),
    ({"detect": {"lambda_noobj": -0.5}}, "detect.lambda_noobj"),
    ({"model": {"kernel": 4}}, "model.kernel: must be a positive odd number"),
    ({"dataset": {"noise": 2.0}}, "dataset: noise must be in [0, 1]"),
    ({"dataset": {"size_range": [1, 3]}}, "dataset: size_range"),
    ({"dataset": {"size_range": [10, 40]}}, "dataset: unsatisfiable geometry"),
    ({"dataset": {"intensity_range": [0.9, 0.2]}}, "dataset: intensity_range"),
    ({"dataset": {"channels": 2}}, "dataset: channels"),
    ({"dataset": {"distractors": -1}}, "dataset: distractors must be >= 0"),
    ({"dataset": {"n_images": -5}}, "dataset.n_images: must be >= 1"),
    ({"dataset": {"class_count": 5}}, "dataset.class_count: must be in 1..4"),
    ({"dataset": {"class_count": 0}}, "dataset.class_count: must be in 1..4"),
    ({"dataset": {"split_fractions": [0.5, 0.2, 0.2]}}, "dataset.split_fractions"),
    ({"dataset": {"split_fractions": [1.2, -0.1, -0.1]}}, "dataset.split_fractions"),
    ({"dataset": {"image_edge": 6, "size_range": [2, 4]}, "explain": {"lime": {"patch_edge": 3}}},
     "spatial collapse"),
    ({"detect": {"S": 9, "tap": 6}}, "detect.S = 9 does not fit the (8, 8) feature map at tap 6"),
    ({"explain": {"taps": [2, 2]}}, "explain.taps: tap 2 repeated"),
    ({"explain": {"methods": ["grad_cam", "grad_cam"]}},
     "explain.methods: method 'grad_cam' repeated"),
    ({"explain": {"lime": {"patch_edge": 17}}},
     "explain.lime.patch_edge: must be in 1..16 (dataset.image_edge // 2), got 17"),
])
def test_config_semantic_errors(tmp_path, section, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(section))
    with pytest.raises(ConfigError, match=re.escape(error)):
        load_config(path)


def test_trainer_sections_checked_before_training(tmp_path, monkeypatch, capsys):
    from layerlens import training as tr

    assert main(["--config", str(make_config(tmp_path)), "generate"]) == 0

    def never(*args, **kwargs):
        raise AssertionError("trained before the config check")
    monkeypatch.setattr(tr, "train_e2e", never)
    monkeypatch.setattr(tr, "cache_frozen_features", never)
    capsys.readouterr()
    cfg_path = make_config(tmp_path, train={"probe": {"lr": 0}})
    assert main(["--config", str(cfg_path), "train", "--scheme", "e2e"]) == 2
    assert capsys.readouterr().err.startswith("config error: train.probe: lr, batch_size")
    cfg_path = make_config(tmp_path, detect={"train": {"lr": 0}})
    weights = str(tmp_path / "run" / "weights_e2e.llw")
    assert main(["--config", str(cfg_path), "detect", "--weights", weights]) == 2
    assert capsys.readouterr().err.startswith("config error: detect.train: lr, batch_size")


def test_negative_jobs_flag_exit_2(tmp_path, capsys):
    assert main(["--config", str(make_config(tmp_path)), "--jobs", "-4", "generate"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_presets_load():
    for name in ("preset-localise", "preset-detect"):
        cfg = load_config(name)
        assert cfg["dataset"]["n_images"] > 0


def test_effective_config_hashes_pinned(tmp_path):
    """The trainer sections' schema comes from ``TrainConfig``'s fields; the
    effective configs, and so the hash every report carries, stay as they were
    when each section listed its fields by hand."""
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    hashes = [load_config(source).hash for source in ("preset-localise", "preset-detect", empty)]
    assert hashes == ["60adeb6b6dfe", "daee5e5f2c67", "95e7d30e9a6d"]


def test_train_without_dataset_exit_1(tmp_path, capsys):
    cfg_path = make_config(tmp_path)
    assert main(["--config", str(cfg_path), "train", "--scheme", "e2e"]) == 1
    assert "generate" in capsys.readouterr().err


def test_weights_provenance(pipeline):
    cfg_path, out = pipeline
    spec = load_config(cfg_path).spec
    p_e2e = net.load_weights(out / "weights_e2e.llw", spec)
    assert p_e2e.provenance.scheme == "E2E"
    p_cl = net.load_weights(out / "weights_cl_k6.llw", spec)
    assert p_cl.provenance.scheme == "CL"
    assert p_cl.provenance.splits == (1, 1, 1, 1, 1, 1)


def test_train_report_schema(pipeline):
    cfg_path, out = pipeline
    comment, header, rows = read_csv(out / "train_report_e2e.csv")
    assert comment.startswith("# schema=layerlens.train.v1 config=")
    assert header == ["record", "stage", "epoch", "train", "val"]
    records = {r[0] for r in rows}
    assert {"loss", "stage_acc", "probe", "final"} <= records
    probe_rows = [r for r in rows if r[0] == "probe"]
    assert len(probe_rows) == 6  # one per tap


def test_final_row_is_last_stage_accuracy(pipeline):
    """The final row repeats the accuracies of the stage that trained the
    whole model: e2e, or the cascade's classifier."""
    _, out = pipeline
    for report, last_stage in (("e2e", "e2e"), ("cl_k6", "cl_classifier")):
        _, _, rows = read_csv(out / f"train_report_{report}.csv")
        last = [r for r in rows if r[0] == "stage_acc"][-1]
        [final] = [r for r in rows if r[0] == "final"]
        assert last[1] == last_stage
        assert final[3:] == last[3:] and final[3] != "" and final[4] != ""


def test_train_forwards_each_row_once_per_pass(tmp_path, monkeypatch):
    """Each stage forwards its rows in its SGD steps, its val passes and one
    accuracy pass on train; the last val pass is its accuracy pass on val.
    The probes train on the taps those passes pooled and forward nothing."""
    from layerlens import training as tr

    cfg_path = make_config(tmp_path)
    spec = load_config(cfg_path).spec
    assert main(["--config", str(cfg_path), "generate"]) == 0
    run_span, forward, probes = net.run_span, net.forward_with_taps, tr.train_probes
    rows, in_probes, probe_forwards = {}, [], []

    def counted_span(spec, params, x, lo, hi, want_caches=False):
        probe_forwards.extend(in_probes)
        rows[lo] = rows.get(lo, 0) + len(x)
        return run_span(spec, params, x, lo, hi, want_caches)

    def counted_forward(*args, **kwargs):
        probe_forwards.extend(in_probes)
        return forward(*args, **kwargs)

    def probing(*args, **kwargs):
        in_probes.append(True)
        try:
            return probes(*args, **kwargs)
        finally:
            in_probes.pop()
    monkeypatch.setattr(net, "run_span", counted_span)
    monkeypatch.setattr(net, "forward_with_taps", counted_forward)
    monkeypatch.setattr(tr, "train_probes", probing)
    n_train, n_val = 24, 12
    # the first layer of each stage: E2E's, or each cascade stage's and the tail's
    for scheme, report, firsts in (
            ("e2e", "e2e", [0]),
            ("cl", "cl_k6", [spec.after_tap(t) for t in range(spec.tap_count + 1)])):
        rows.clear()
        assert main(["--config", str(cfg_path), "train", "--scheme", scheme]) == 0
        assert probe_forwards == []
        _, _, csv_rows = read_csv(tmp_path / "run" / f"train_report_{report}.csv")
        stages = [r[1] for r in csv_rows if r[0] == "stage_acc"]
        epochs = [sum(r[0] == "loss" and r[1] == name for r in csv_rows) for name in stages]
        assert len(stages) == len(firsts) and all(e > 0 for e in epochs)
        assert {lo: rows[lo] for lo in firsts} == {
            lo: e * (n_train + n_val) + n_train for lo, e in zip(firsts, epochs)}


def test_explain_outputs_and_equivalence(pipeline):
    cfg_path, out = pipeline
    assert main(["--config", str(cfg_path), "explain",
                 "--weights", str(out / "weights_e2e.llw")]) == 0
    comment, header, rows = read_csv(out / "explain_weights_e2e" / "metrics.csv")
    assert comment.startswith("# schema=layerlens.explain.v1")
    manifest = dat.load_manifest(out / "dataset" / "manifest.txt")
    n_test = len(manifest.by_split("test"))
    assert len(rows) == n_test * 2 * 1  # images x taps x methods

    heat_dir = out / "explain_weights_e2e" / "heatmaps"
    pgms = list(heat_dir.glob("*.pgm"))
    assert len(pgms) == n_test * 2
    assert all(Path(str(p) + ".meta").exists() for p in pgms)

    # spot-check five rows against direct library calls
    cfg = load_config(cfg_path)
    spec = cfg.spec
    params = net.load_weights(out / "weights_e2e.llw", spec)
    by_id = {a.image_id: a for a in manifest.annotations}
    for row in rows[:5]:
        image_id, method, tap = row[0], row[1], int(row[2])
        ann = by_id[image_id]
        image = dat.read_image(out / "dataset" / ann.path)
        acts, grads = net.backward_to_tap(spec, params, image[None], ann.label, (tap,))
        amap = ex.grad_cam(acts[tap][0], grads[tap][0], (32, 32))
        smooth = ex.gaussian_smooth(amap, cfg["explain"]["sigma"])
        mask = lm.binarize_percentile(smooth.values, cfg["explain"]["percentile"])
        gt = lm.rasterize_box(ann.box, (32, 32))
        assert float(row[3]) == pytest.approx(lm.iou(mask, gt), abs=1e-9)


def test_compare_null_on_identical_weights(pipeline):
    cfg_path, out = pipeline
    w = str(out / "weights_e2e.llw")
    assert main(["--config", str(cfg_path), "compare",
                 "--weights-cl", w, "--weights-e2e", w]) == 0
    _, header, rows = read_csv(out / "compare_summary.csv")
    assert header == ["method", "tap", "n_images", "frac_cl_gt_e2e", "lacc_cl", "lacc_e2e"]
    for row in rows:
        assert float(row[3]) == 0.0  # strictly-greater fraction is empty
        assert row[4] == row[5]

    # paired fraction equals recomputation from the per-image rows
    _, _, pair_rows = read_csv(out / "compare_pairs.csv")
    for method, tap, n, frac, _, _ in rows:
        sel = [r for r in pair_rows if r[1] == method and r[2] == tap]
        assert len(sel) == int(n)
        recomputed = np.mean([float(r[3]) > float(r[4]) for r in sel])
        assert float(frac) == pytest.approx(recomputed)


def test_detect_report_and_equivalence(pipeline):
    cfg_path, out = pipeline
    assert main(["--config", str(cfg_path), "detect",
                 "--weights", str(out / "weights_cl_k6.llw")]) == 0
    det_dir = out / "detect_weights_cl_k6_tap4"
    comment, header, rows = read_csv(det_dir / "report.csv")
    assert [r[0] for r in rows] == ["mAP.5", "mAP.75", "mAP.5:.95:.05", "mIOU"]
    assert header == ["metric", "mean", "std", "pretty"]
    # pretty column carries the percent-scaled mean +/- std form
    mean = float(rows[0][1])
    assert rows[0][3].startswith(f"{100 * mean:.2f}±")
    assert (det_dir / "head_seed0.llh").exists()

    # metrics equal direct evaluation of the saved detections
    from layerlens import detect as dt

    _, _, det_rows = read_csv(det_dir / "detections.csv")
    manifest = dat.load_manifest(out / "dataset" / "manifest.txt")
    det_set = dt.DetectionSet()
    per_image = {}
    for r in det_rows:
        per_image.setdefault(r[0], []).append(
            dt.Detection((float(r[3]), float(r[4]), float(r[5]), float(r[6])),
                         int(r[1]), float(r[2])))
    for ann in manifest.by_split("test"):
        det_set.add_image(ann.image_id, per_image.get(ann.image_id, []),
                          [(ann.label, (ann.box.x, ann.box.y, ann.box.w, ann.box.h))])
    report = dt.map_evaluate(det_set)
    for key, row in zip(("mAP.5", "mAP.75", "mAP.5:.95:.05", "mIOU"), rows):
        assert report[key] == pytest.approx(float(row[1]), abs=1e-12)


def test_saved_head_reproduces_detections(pipeline):
    """A head file alone, with the test split's frozen features, gives exactly
    the rows of detections.csv: the feature statistics travel with the head."""
    from layerlens import detect as dt
    from layerlens import training as tr

    cfg_path, out = pipeline
    weights = out / "weights_cl_k6.llw"
    assert main(["--config", str(cfg_path), "detect", "--weights", str(weights),
                 "--tap", "3"]) == 0
    det_dir = out / "detect_weights_cl_k6_tap3"
    cfg = load_config(cfg_path)
    dcfg, edge = cfg["detect"], cfg["dataset"]["image_edge"]
    spec = cfg.spec
    [(x_te, _, anns_te)] = cli._load_splits(cfg, "test")

    head = dt.load_head(det_dir / "head_seed0.llh")
    raw = dt.head_raw_grids(head, tr.cache_frozen_features(
        spec, net.load_weights(weights, spec), x_te, 3))
    rows = []
    for j, ann in enumerate(anns_te):
        dets = dt.nms(dt.decode_predictions(raw[j], head.B, dcfg["conf_threshold"],
                                            (edge, edge)), dcfg["nms_iou"])
        rows += [[cli._fmt(v) for v in (ann.image_id, d.class_id, d.score, *d.box)]
                 for d in dets]
    _, _, det_rows = read_csv(det_dir / "detections.csv")
    assert det_rows
    assert rows == det_rows


def test_detect_three_seed_mode(pipeline):
    cfg_path, out = pipeline
    assert main(["--config", str(cfg_path), "detect",
                 "--weights", str(out / "weights_e2e.llw"),
                 "--tap", "2", "--head-seeds", "2"]) == 0
    det_dir = out / "detect_weights_e2e_tap2"
    comment, _, rows = read_csv(det_dir / "report.csv")
    assert "seeds=2" in comment
    assert (det_dir / "head_seed1.llh").exists()


def test_detect_caches_features_once_per_split(pipeline, monkeypatch):
    from layerlens import training as tr

    cfg_path, out = pipeline
    calls = []
    cache = tr.cache_frozen_features

    def counted(spec, params, x, tap, *args, **kwargs):
        calls.append((len(x), tap))
        return cache(spec, params, x, tap, *args, **kwargs)
    monkeypatch.setattr(tr, "cache_frozen_features", counted)
    assert main(["--config", str(cfg_path), "detect",
                 "--weights", str(out / "weights_e2e.llw"),
                 "--tap", "3", "--head-seeds", "3"]) == 0
    assert sorted(calls) == [(12, 3), (12, 3), (24, 3)]  # val, test, train
    assert (out / "detect_weights_e2e_tap3" / "head_seed2.llh").exists()


def test_detect_grid_larger_than_tap_exit_2(pipeline, tmp_path, monkeypatch, capsys):
    from layerlens import detect as dt

    _, out = pipeline

    def never(*args, **kwargs):
        raise AssertionError("a head trained before the config check")
    monkeypatch.setattr(dt, "train_detection_head", never)
    cfg_path = make_config(tmp_path, out_dir=str(out), detect={"S": 9, "tap": 4})
    weights = ["--weights", str(out / "weights_e2e.llw")]
    # tap 6 is 8x8 on 32-px images
    assert main(["--config", str(cfg_path), "detect", *weights, "--tap", "6"]) == 2
    assert "detect.S = 9" in capsys.readouterr().err
    assert main(["--config", str(cfg_path), "detect", *weights, "--tap", "7"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not (out / "detect_weights_e2e_tap6").exists()


def test_detect_zero_head_seeds_exit_2(pipeline, monkeypatch, capsys):
    from layerlens import training as tr

    cfg_path, out = pipeline

    def never(*args, **kwargs):
        raise AssertionError("features cached before the config check")
    monkeypatch.setattr(tr, "cache_frozen_features", never)
    assert main(["--config", str(cfg_path), "detect", "--weights", str(out / "weights_e2e.llw"),
                 "--tap", "5", "--head-seeds", "0"]) == 2
    assert "--head-seeds: must be >= 1" in capsys.readouterr().err
    assert not (out / "detect_weights_e2e_tap5").exists()


@pytest.mark.parametrize("fractions", [[0.0, 0.5, 0.5], [0.05, 0.5, 0.45]])
def test_empty_train_split_config_exit_2(tmp_path, capsys, fractions):
    """Refused at load, before generating: 12 images in 3 classes leave 4
    per class, and 0.05 of 4 loses its remainder to the test split."""
    cfg_path = make_config(tmp_path, dataset={
        "n_images": 12, "image_edge": 32, "class_count": 3, "noise": 0.2,
        "split_fractions": fractions})
    assert main(["--config", str(cfg_path), "generate"]) == 2
    assert capsys.readouterr().err == (
        "config error: dataset.split_fractions: must give the train split at least one "
        f"of the 12 images, got {fractions}\n")
    assert not (tmp_path / "run").exists()
    load_config(make_config(tmp_path, dataset={
        "n_images": 12, "image_edge": 32, "class_count": 3, "noise": 0.2,
        "split_fractions": [0.2, 0.5, 0.3]}))  # 0.2 of 4 rounds up to one


def test_train_split_count_follows_uneven_classes(tmp_path, capsys):
    """13 images in 3 classes hold 5, 4 and 4: at 0.1 only the class of 5
    keeps a train row (0.1 of 4 loses its remainder), so the load accepts
    the config and generate makes exactly one train image."""
    cfg_path = make_config(tmp_path, dataset={
        "n_images": 13, "image_edge": 32, "class_count": 3, "noise": 0.2,
        "split_fractions": [0.1, 0.45, 0.45]})
    assert main(["--config", str(cfg_path), "generate"]) == 0
    assert "(train=1, val=6, test=6)" in capsys.readouterr().out


def _generate_without_train_rows(tmp_path):
    """A generated 12-image dataset whose manifest lists no train rows: the
    config load refuses such fractions, so its train rows become val rows."""
    cfg_path = make_config(tmp_path, dataset={
        "n_images": 12, "image_edge": 32, "class_count": 3, "noise": 0.2,
        "split_fractions": [0.5, 0.25, 0.25]})
    assert main(["--config", str(cfg_path), "generate"]) == 0
    path = tmp_path / "run" / "dataset" / "manifest.txt"
    manifest = dat.load_manifest(path)
    dat.save_manifest(replace(manifest, annotations=[
        replace(a, split="val") if a.split == "train" else a for a in manifest.annotations]), path)
    return cfg_path


def test_empty_train_split_exit_1(tmp_path, capsys):
    cfg_path = _generate_without_train_rows(tmp_path)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "train", "--scheme", "e2e"]) == 1
    err = capsys.readouterr().err
    assert err == "error: no training rows for stage 'e2e'\n"
    # zero epochs train nothing, but the stage accuracies still need rows
    cfg_path = make_config(tmp_path, dataset={
        "n_images": 12, "image_edge": 32, "class_count": 3, "noise": 0.2,
        "split_fractions": [0.5, 0.25, 0.25]}, train={"e2e": {"epochs": 0},
                                                      "cascade": {"epochs": 0}})
    for scheme, stage in (("e2e", "e2e"), ("cl", "cl_stage1_taps1-1")):
        assert main(["--config", str(cfg_path), "train", "--scheme", scheme]) == 1
        assert capsys.readouterr().err == f"error: no training rows for stage '{stage}'\n"


def test_detect_empty_train_split_exit_1(pipeline, tmp_path, monkeypatch, capsys):
    from layerlens import training as tr

    _, pipeline_out = pipeline
    cfg_path = _generate_without_train_rows(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("features cached for an empty train split")
    monkeypatch.setattr(tr, "cache_frozen_features", never)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "detect",
                 "--weights", str(pipeline_out / "weights_e2e.llw")]) == 1
    assert capsys.readouterr().err == "error: no training rows for detection head at tap 4\n"


def _fail_writes_to(monkeypatch, target):
    """Make atomic writes of ``target`` write a few bytes, then fail."""
    from layerlens import fileio

    real_open = open

    class Failing:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            self.fh.write(data[:3])
            raise OSError(28, "No space left on device")

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return Failing(fh) if Path(path).name.startswith(f".{Path(target).name}.") else fh
    monkeypatch.setattr(fileio, "open", failing_open, raising=False)


@pytest.mark.parametrize("writer", ["csv", "heatmap", "meta", "image", "manifest",
                                    "sealed", "spec"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, writer):
    """A write that fails partway leaves the previous file and no temporary."""
    cfg = load_config(make_config(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    spec = net.build_six_layer_net((1, 32, 32), 3, [4, 4, 6, 6, 8, 8])
    params = net.init_params(spec, 0)
    manifest = dat.generate_shapes_dataset(dat.ShapeSpec(), 6, 3, 1, tmp_path / "ds")

    def write(version):
        """(target file, a call that writes version ``version`` of it)"""
        rows = [(i, version, 0.5) for i in range(4)]
        heat = np.arange(16.0).reshape(4, 4) ** version
        return {
            "csv": (out / "r.csv",
                    lambda: cli.write_csv(out / "r.csv", "detect_report", rows, cfg, {})),
            "heatmap": (out / "h.pgm", lambda: cli._save_heatmap(heat, out / "h.pgm")),
            "meta": (out / "h.pgm.meta", lambda: cli._save_heatmap(heat, out / "h.pgm")),
            "image": (out / "i.pgm",
                      lambda: dat.write_image(np.full((1, 4, 4), version / 4), out / "i.pgm")),
            "manifest": (out / "m.txt", lambda: dat.save_manifest(
                dat.DatasetManifest(manifest.version, manifest.class_names, version,
                                    manifest.generator, manifest.annotations), out / "m.txt")),
            "sealed": (out / "s.bin",
                       lambda: net.write_sealed(out / "s.bin", b"TEST", [bytes([version]) * 64])),
            "spec": (out / "w.llw.spec", lambda: net.save_weights(
                spec, net.ModelParams(params.blocks, params.frozen,
                                      net.Provenance("E2E", (), version)), out / "w.llw")),
        }[writer]

    target, first = write(1)
    first()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    target, second = write(2)
    _fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        second()
    assert target.read_bytes() == before[target.name]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    monkeypatch.undo()
    second()
    assert target.read_bytes() != before[target.name]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


def test_wrong_size_image_exit_1(pipeline, tmp_path, capsys):
    _, pipeline_out = pipeline
    cfg_path = make_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--config", str(cfg_path), "generate"]) == 0
    ann = dat.load_manifest(out / "dataset" / "manifest.txt").by_split("test")[0]
    dat.write_image(np.zeros((1, 16, 16)), out / "dataset" / ann.path)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "explain",
                 "--weights", str(pipeline_out / "weights_e2e.llw")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ann.path in err
    assert "image shape (1, 16, 16), expected (1, 32, 32)" in err


def test_explain_non_finite_weights_exit_1(pipeline, tmp_path, capsys):
    """A weight file whose checksum holds but whose layer-0 kernel holds a NaN
    is refused on reading, before LIME writes a heatmap of NaNs."""
    cfg_path, out = pipeline
    spec = load_config(cfg_path).spec
    params = net.load_weights(out / "weights_e2e.llw", spec)
    kernel, bias = params.blocks[0]
    kernel = kernel.copy()
    kernel[0, 0, 1, 1] = np.nan
    params.blocks[0] = (kernel, bias)
    weights = tmp_path / "weights_nan.llw"
    net.save_weights(spec, params, weights)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "explain", "--weights", str(weights),
                 "--methods", "lime"]) == 1
    err = capsys.readouterr().err
    assert err == "error: weight file holds a non-finite value\n"
    assert not list((out / "explain_weights_nan").rglob("*.pgm"))


def test_explain_one_backward_per_chunk(pipeline, tmp_path, monkeypatch):
    """Grad-CAM and saliency take one backward pass per chunk of at most
    ``MAP_CHUNK`` test images, each image's gradient that of its own label."""
    cfg_path, out = pipeline
    weights = tmp_path / "weights_count.llw"
    weights.write_bytes((out / "weights_e2e.llw").read_bytes())
    calls = []
    backward = net.backward_to_tap

    def counted(spec, params, batch, class_index, taps):
        calls.append((list(class_index), tuple(taps)))
        return backward(spec, params, batch, class_index, taps)
    monkeypatch.setattr(net, "backward_to_tap", counted)
    monkeypatch.setattr(cli, "MAP_CHUNK", 5)
    assert main(["--config", str(cfg_path), "explain", "--weights", str(weights),
                 "--methods", "grad_cam,saliency", "--taps", "1,2,3,4,5,6"]) == 0
    manifest = dat.load_manifest(out / "dataset" / "manifest.txt")
    labels = [a.label for a in manifest.by_split("test")]
    n_test = len(labels)
    assert n_test % 5  # a short last chunk
    assert calls == [(labels[lo:lo + 5], (1, 2, 3, 4, 5, 6, 0)) for lo in range(0, n_test, 5)]
    _, _, rows = read_csv(out / "explain_weights_count" / "metrics.csv")
    assert len(rows) == n_test * 6 * 2


def _per_sample_lime(spec, params, ann, image, cfg):
    """LIME as it was before batching: one batch-1 forward per perturbation,
    in a Python loop; returns (heatmap, mask)."""
    lcfg = cfg["explain"]["lime"]
    grid = ex.superpixel_grid(image.shape[1:], lcfg["patch_edge"])
    rng = make_rng(derive_seed(cfg.seed, f"lime:{ann.image_id}"))
    n, p = lcfg["n_samples"], grid.patch_count
    z = (rng.random((n, p)) < lcfg["keep_prob"]).astype(np.float64)
    scores = np.empty(n)
    for i in range(n):
        pixel_keep = z[i][grid.labels]
        out, _ = net.forward_with_taps(spec, params, (image * pixel_keep[None, :, :])[None])
        scores[i] = float(nm.softmax(out[0])[ann.label])
    weights, _ = ex._ridge_fit(z, scores, lcfg["ridge_lambda"])
    k = min(lcfg["top_k"], p)
    selected = np.lexsort((np.arange(p), -weights))[:k]
    return np.maximum(weights[grid.labels], 0.0), np.isin(grid.labels, selected)


def test_batched_lime_equals_per_sample_lime(pipeline, tmp_path):
    """On the preset six-layer net, scoring LIME's perturbations in batches
    reproduces the per-sample scores bit for bit, so the heatmap and mask
    match. (Nets this narrow-and-small that BLAS switches matmul kernels
    between one image and a batch agree only to the last bits.)"""
    cfg_path, out = pipeline
    [(x, _, anns)] = cli._load_splits(load_config(cfg_path), "test")
    cfg = load_config(make_config(tmp_path, model={"widths": [8, 8, 16, 16, 32, 32]}))
    assert cfg["explain"]["lime"]["n_samples"] % cli.LIME_BATCH  # a ragged last batch
    for seed in (0, 1):
        params = net.init_params(cfg.spec, seed)
        maps = cli._image_maps(params, anns, x, cfg, ["lime"], [2, 4], 50.0)
        for i, (ann, image) in enumerate(zip(anns, x)):
            heat, mask = _per_sample_lime(cfg.spec, params, ann, image, cfg)
            for tap in (2, 4):
                assert np.array_equal(maps["lime", tap][0][i], heat)
                assert np.array_equal(maps["lime", tap][1][i], mask)


def test_explain_lime_forwards_in_batches(pipeline, tmp_path, monkeypatch):
    cfg_path, out = pipeline
    weights = tmp_path / "weights_lime.llw"
    weights.write_bytes((out / "weights_e2e.llw").read_bytes())
    calls = []
    forward = net.forward_with_taps

    def counted(spec, params, batch, depth=None):
        calls.append(len(batch))
        return forward(spec, params, batch, depth)
    monkeypatch.setattr(net, "forward_with_taps", counted)
    assert main(["--config", str(cfg_path), "explain", "--weights", str(weights),
                 "--methods", "lime"]) == 0
    n_test = len(dat.load_manifest(out / "dataset" / "manifest.txt").by_split("test"))
    n_samples = load_config(cfg_path)["explain"]["lime"]["n_samples"]
    assert len(calls) == n_test * math.ceil(n_samples / cli.LIME_BATCH)
    assert max(calls) == cli.LIME_BATCH and sum(calls) == n_test * n_samples


def test_explain_one_spectrum_per_mask(pipeline, tmp_path, monkeypatch):
    """Saliency and LIME give one mask for every tap, so one spectrum each;
    Grad-CAM gives one per tap. A chunk's masks go in one stacked call."""
    cfg_path, out = pipeline
    weights = tmp_path / "weights_gran.llw"
    weights.write_bytes((out / "weights_e2e.llw").read_bytes())
    calls = []
    granulometry = lm.granulometry

    def counted(mask, max_size):
        calls.append(mask)
        return granulometry(mask, max_size)
    monkeypatch.setattr(lm, "granulometry", counted)
    assert main(["--config", str(cfg_path), "explain", "--weights", str(weights),
                 "--methods", "grad_cam,saliency,lime", "--taps", "1,2,3,4,5,6"]) == 0
    n_test = len(dat.load_manifest(out / "dataset" / "manifest.txt").by_split("test"))
    assert n_test <= cli.MAP_CHUNK
    assert [np.shape(stack)[0] for stack in calls] == [n_test * (6 + 1 + 1)]
    _, _, rows = read_csv(out / "explain_weights_gran" / "metrics.csv")
    assert len(rows) == n_test * 6 * 3


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records the worker count asked for
    and runs the work on the calling thread."""

    def __init__(self, requested):
        self.requested = requested

    def __call__(self, max_workers):
        self.requested.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_at_work_items(pipeline, tmp_path, monkeypatch):
    """LIME explains one image per pool task, with no more threads than
    images; the gradient maps of every verb use no pool."""
    cfg_path, out = pipeline
    weights = tmp_path / "weights_jobs.llw"
    weights.write_bytes((out / "weights_e2e.llw").read_bytes())
    requested = []
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _InlinePool(requested))
    jobs = ["--config", str(cfg_path), "--jobs", "64"]
    assert main([*jobs, "explain", "--weights", str(weights), "--methods", "lime",
                 "--taps", "2"]) == 0
    n_test = len(dat.load_manifest(out / "dataset" / "manifest.txt").by_split("test"))
    assert requested == [n_test]
    assert main([*jobs, "explain", "--weights", str(weights),
                 "--methods", "grad_cam,saliency"]) == 0
    assert main([*jobs, "compare", "--weights-cl", str(out / "weights_cl_k6.llw"),
                 "--weights-e2e", str(weights)]) == 0
    assert main([*jobs, "granulometry", "--weights", str(weights)]) == 0
    assert requested == [n_test]
    # no pool at all for zero or one item, whatever --jobs says
    assert cli._pool_map(lambda v: v + 1, [], 8) == []
    assert cli._pool_map(lambda v: v + 1, [1], 8) == [2]
    assert requested == [n_test]


@pytest.mark.parametrize("verb, flags, error", [
    ("explain", ["--taps", "abc"], "--taps: expected comma-separated integers, got 'abc'"),
    ("granulometry", ["--taps", "2,x"], "--taps: expected comma-separated integers"),
    ("explain", ["--taps", "9"], "--taps: tap 9 out of range 1..6"),
    ("granulometry", ["--taps", "2,9"], "--taps: tap 9 out of range 1..6"),
    ("explain", ["--taps", "0", "--methods", "saliency"], "--taps: tap 0 out of range 1..6"),
    ("explain", ["--taps", "3,3"], "--taps: tap 3 repeated"),
    ("explain", ["--methods", ""], "--methods: unknown method ''"),
], ids=["explain-abc", "granulometry-2,x", "explain-9", "granulometry-2,9", "explain-0",
        "explain-3,3", "explain-methods-empty"])
def test_bad_taps_flag_exit_2(pipeline, monkeypatch, capsys, verb, flags, error):
    """``--taps`` follows the rule of the config's ``explain.taps``, and an
    empty ``--methods`` names no method rather than the config's."""
    cfg_path, out = pipeline

    def never(*args, **kwargs):
        raise AssertionError("maps computed for a bad --taps")
    monkeypatch.setattr(cli, "_image_maps", never)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), verb,
                 "--weights", str(out / "weights_e2e.llw"), *flags]) == 2
    assert error in capsys.readouterr().err
    assert not list(out.rglob("*_tap0.pgm"))


@pytest.mark.parametrize("k", [9, 0])
def test_bad_k_flag_exit_2(pipeline, monkeypatch, capsys, k):
    """``train --k`` follows the rule of the config's ``train.k``, and is
    checked before the splits load."""
    cfg_path, out = pipeline

    def never(*args, **kwargs):
        raise AssertionError("splits loaded for a bad --k")
    monkeypatch.setattr(cli, "_load_splits", never)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "train", "--scheme", "cl", "--k", str(k)]) == 2
    assert f"--k: must be in 1..6, got {k}" in capsys.readouterr().err


def test_explain_unknown_method_exit_2(pipeline, capsys):
    cfg_path, out = pipeline
    assert main(["--config", str(cfg_path), "explain", "--weights", str(out / "weights_e2e.llw"),
                 "--methods", "grad_cam,occlusion"]) == 2
    assert "unknown method 'occlusion'" in capsys.readouterr().err


def test_granulometry_conservation_at_cli_level(pipeline):
    cfg_path, out = pipeline
    assert main(["--config", str(cfg_path), "granulometry",
                 "--weights", str(out / "weights_e2e.llw")]) == 0
    _, header, rows = read_csv(out / "granulometry_weights_e2e.csv")
    assert header == ["image_id", "scheme", "tap", "size", "area_removed"]
    # per (image, tap) the spectrum sums to the binarization budget
    import math
    from fractions import Fraction

    budget = math.ceil((1 - Fraction(90) / 100) * 32 * 32)
    sums = {}
    for image_id, scheme, tap, size, removed in rows:
        assert scheme == "E2E"
        sums[(image_id, tap)] = sums.get((image_id, tap), 0.0) + float(removed)
    assert sums and all(abs(v - budget) < 1e-9 for v in sums.values())

    _, sh, srows = read_csv(out / "granulometry_weights_e2e_summary.csv")
    assert sh == ["scheme", "tap", "mean_size", "n_images"]
    assert {r[1] for r in srows} == {"2", "4"}


def test_rerun_overwrites_identical_bytes(tmp_path):
    """Determinism at the command level: rerunning each verb leaves every
    output byte unchanged."""
    cfg_path = make_config(tmp_path)
    out = tmp_path / "run"

    def run_all():
        assert main(["--config", str(cfg_path), "generate"]) == 0
        assert main(["--config", str(cfg_path), "train", "--scheme", "e2e"]) == 0
        assert main(["--config", str(cfg_path), "train", "--scheme", "cl"]) == 0
        assert main(["--config", str(cfg_path), "explain",
                     "--weights", str(out / "weights_e2e.llw")]) == 0
        assert main(["--config", str(cfg_path), "compare",
                     "--weights-cl", str(out / "weights_cl_k6.llw"),
                     "--weights-e2e", str(out / "weights_e2e.llw")]) == 0
        assert main(["--config", str(cfg_path), "detect",
                     "--weights", str(out / "weights_cl_k6.llw")]) == 0
        assert main(["--config", str(cfg_path), "granulometry",
                     "--weights", str(out / "weights_e2e.llw")]) == 0

    def tree_hashes():
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    run_all()
    first = tree_hashes()
    run_all()
    assert tree_hashes() == first
    assert len(first) > 60  # images, weights, csvs, heatmaps, metas


@pytest.fixture(scope="module")
def attribution_run(tmp_path_factory):
    """A trained run whose config explains with all three methods, and a
    function that reruns explain, compare and granulometry with extra global
    flags and returns every output file's bytes but the dataset's."""
    tmp_path = tmp_path_factory.mktemp("attribution")
    cfg_path = make_config(tmp_path, explain={"methods": ["grad_cam", "saliency", "lime"],
                                              "taps": [1, 3, 6], "lime": {"n_samples": 20}})
    out = tmp_path / "run"
    flags = ["--config", str(cfg_path)]
    for verb in (["generate"], ["train", "--scheme", "e2e"], ["train", "--scheme", "cl"]):
        assert main([*flags, *verb]) == 0
    e2e, cl = str(out / "weights_e2e.llw"), str(out / "weights_cl_k6.llw")

    def outputs(*extra):
        assert main([*flags, *extra, "explain", "--weights", e2e]) == 0
        assert main([*flags, *extra, "compare", "--weights-cl", cl, "--weights-e2e", e2e]) == 0
        assert main([*flags, *extra, "granulometry", "--weights", cl, "--taps", "6,2,4"]) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.parts[len(out.parts)] != "dataset"}
    return out, outputs


def test_jobs_flag_does_not_change_outputs(attribution_run):
    """Every attribution verb, LIME included, writes the same bytes at any
    ``--jobs``."""
    _, outputs = attribution_run
    serial = outputs("--jobs", "1")
    assert any("lime" in name for name in serial)
    assert "compare_pairs.csv" in serial and "granulometry_weights_cl_k6.csv" in serial
    assert outputs("--jobs", "3") == serial


def test_map_chunk_size_does_not_change_outputs(attribution_run, monkeypatch):
    """Chunks of one image each, chunks of 5 with a short last one and one
    chunk of the whole test split write the same bytes from every
    attribution verb: each image's maps, masks and spectra come back to it
    from the chunk's stacks."""
    out, outputs = attribution_run
    n_test = len(dat.load_manifest(out / "dataset" / "manifest.txt").by_split("test"))
    assert n_test % 5 and n_test <= cli.MAP_CHUNK
    whole = outputs()
    for chunk in (1, 5):
        monkeypatch.setattr(cli, "MAP_CHUNK", chunk)
        assert outputs() == whole
