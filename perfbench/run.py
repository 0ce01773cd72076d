"""layerlens benchmark: three CLI workloads, measured end to end or traced.

    python3 perfbench/run.py --workload {train,attribution,detect} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``; every
run works in a fresh directory under ``.perfbench_runs/`` and removes it at
exit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.

Untraced (``--trace 0``): set-up runs ``setup_reps`` times (9 on ``train``,
3 on the others) and ``setup_s`` is the median of (fresh-interpreter import
time + dataset generation + backbone training). Then the workload's round of
verbs repeats for about ``--seconds`` (at least MIN_ROUNDS rounds); throughputs
are medians over rounds and the output tree's sha256 must be the same after
every round.

Traced (``--trace 1``): one set-up and half of ``--seconds`` of untraced
rounds, then one round with every layer function wrapped. The per-layer
metrics come from that traced set-up and round; traced against untraced
round time is the tracing overhead. Spans are written to
``.perfbench_runs/trace-<workload>-s<seed>.jsonl.gz``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools size themselves when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else None


def throughputs(rounds, verb_metrics):
    """Median over rounds of units/second, per verb metric and over the round."""
    per_verb = {m: [] for m in verb_metrics}
    overall = []
    for results, _ in rounds:
        if any(units is None for _, _, units in results):
            continue
        for metric in verb_metrics:
            sel = [(w, u) for m, w, u in results if m == metric]
            per_verb[metric].append(sum(u for _, u in sel) / sum(w for w, _ in sel))
        overall.append(sum(u for _, _, u in results) / sum(w for _, w, _ in results))
    out = {m: _median(v) for m, v in per_verb.items()}
    out["verb_img_per_s"] = _median(overall)
    return out, len(overall)


def measure_rounds(cli, cfg_path, verbs, out, tally, seconds, min_rounds, first_digest=None):
    """Repeat the round until ``seconds`` would be exceeded; checks digests."""
    rounds, walls = [], []
    t_start = time.perf_counter()
    while True:
        results, wall = wl.run_round(cli, cfg_path, verbs, tally)
        digest = wl.tree_digest(out)
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            ok = sum(1 for _, _, u in results if u is not None)
            tally.failed += ok
            tally.errors.append(f"round {len(rounds)}: output digest {digest} != {first_digest}")
        rounds.append((results, wall))
        walls.append(wall)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return rounds, first_digest


def emit(correct, tally, metrics, units):
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run(args, spec):
    from layerlens import (cli, data, detect, explain, locmetrics, network,
                           numerics, training)

    jobs = min(2, wl.nproc()) if args.workload == "attribution" else 1
    workload = wl.WORKLOADS[args.workload](args.seed, jobs)
    tally = wl.Tally()
    env = wl.environment(jobs)
    print("env " + json.dumps(env, sort_keys=True))
    probe = [wl.machine_probe()]

    # Outputs go to the relative directory "out": the effective config, whose
    # hash every report carries, then does not depend on where this runs.
    work = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        if args.trace:
            return run_traced(args, spec, workload, tally, probe,
                              {"numerics": numerics, "network": network,
                               "training": training, "explain": explain,
                               "locmetrics": locmetrics, "detect": detect,
                               "data": data, "cli": cli})
        return run_untraced(args, spec, cli, workload, tally, probe)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def report_common(tally, probe, digest):
    print(f"machine_probe_s start={probe[0]:.6f} end={probe[-1]:.6f} "
          "(fixed pure-numpy kernel; not a metric)")
    print(f"output_digest sha256={digest}")
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"error_rate {tally.failed}/{tally.attempted} = {rate:.4f} (failed verb calls / attempted)")
    for e in tally.errors:
        print("error: " + e.replace("\n", " | "))


def run_untraced(args, spec, cli, workload, tally, probe):
    setup_times, digests, cfg_path, counts = [], [], None, None
    out = Path("out")
    for rep in range(workload.setup_reps):
        shutil.rmtree(out, ignore_errors=True)
        t_import = wl.import_seconds(SRC, ROOT)
        cfg, wall, cnt = wl.run_setup(cli, workload, out, tally)
        if cnt is None:
            report_common(tally, probe, "none")
            emit(False, tally, {}, {})
            return 1
        setup_times.append(t_import + wall)
        digests.append(wl.tree_digest(out))
        cfg_path, counts = cfg, cnt
    correct = len(set(digests)) == 1
    if not correct:
        tally.errors.append(f"set-up outputs differ between repetitions: {digests}")

    verbs = workload.round_verbs(out, counts)
    with wl.PeakRss() as rss:
        rounds, digest = measure_rounds(cli, cfg_path, verbs, out, tally,
                                        args.seconds, wl.MIN_ROUNDS)
    probe.append(wl.machine_probe())

    rates, n_ok = throughputs(rounds, workload.verb_metrics)
    metrics = {"setup_s": statistics.median(setup_times),
               "verb_img_per_s": rates["verb_img_per_s"],
               "peak_rss_mb": rss.mb}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"workload {workload.name} seed={args.seed} rounds={len(rounds)} "
          f"(ok {n_ok}) splits={counts} setup_reps_s={[round(t, 4) for t in setup_times]}")
    for m in workload.verb_metrics:
        print(f"metric {m} = {rates[m]} img/s (median of {n_ok} rounds)")
    report_common(tally, probe, digest)
    correct = correct and tally.failed == 0 and all(
        v is not None and math.isfinite(v) and v > 0 for v in metrics.values())
    emit(correct, tally, {k: v for k, v in metrics.items() if v is not None}, units)
    return 0 if correct else 1


def run_traced(args, spec, workload, tally, probe, modules):
    cli = modules["cli"]
    tracer = tr.Tracer()
    out = Path("out")

    tracer.install(modules)
    try:
        tracer.phase = "setup"
        cfg_path, _, counts = wl.run_setup(cli, workload, out, tally)
    finally:
        tracer.uninstall()
    if counts is None:
        report_common(tally, probe, "none")
        emit(False, tally, {}, {})
        return 1

    verbs = workload.round_verbs(out, counts)
    rounds, digest = measure_rounds(cli, cfg_path, verbs, out, tally,
                                    args.seconds / 2, 1)
    tracer.install(modules)
    try:
        tracer.phase = "round"
        traced = measure_rounds(cli, cfg_path, verbs, out, tally, 0, 1, digest)[0]
    finally:
        tracer.uninstall()
    probe.append(wl.machine_probe())

    metrics = tr.layer_metrics(tracer.spans)
    e2e_s = metrics.get("training.train_e2e.s")
    if e2e_s:
        steps = (metrics["training.train_e2e.calls"] * wl.E2E_EPOCHS
                 * math.ceil(counts["train"] / wl.BATCH))
        metrics["training.e2e_step_ms"] = 1e3 * e2e_s / steps
    rates, _ = throughputs(rounds, workload.verb_metrics)
    metrics.update({m: v for m, v in rates.items() if v is not None})
    untraced = statistics.median(w for _, w in rounds)
    traced_wall = traced[0][1]
    metrics["trace.untraced_round_s"] = untraced
    metrics["trace.traced_round_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1.0

    trace_path = RUNS / f"trace-{workload.name}-s{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    print(f"workload {workload.name} seed={args.seed} traced: {len(tracer.spans)} spans "
          f"over {len(tracer.wrapped)} wrapped functions -> {trace_path.relative_to(ROOT)}")
    print(f"tracing overhead: traced round {traced_wall:.3f} s vs untraced median "
          f"{untraced:.3f} s over {len(rounds)} rounds ({100 * (traced_wall / untraced - 1):+.1f}%)")
    if "training.e2e_step_ms" in metrics:
        print(f"e2e SGD step {metrics['training.e2e_step_ms']:.1f} ms at batch {wl.BATCH}, "
              f"conv share {100 * metrics['training.e2e_conv_share']:.1f}% of train_e2e (traced); "
              "ROADMAP baseline ~200 ms per step, conv 81%")
    print("numerics.*.gflop and gflop_per_s are computed from argument shapes "
          "(2*N*O*H*W*C*kh*kw per conv), not counted by hardware")
    print("numerics.* times are inclusive of the numerics functions they call: "
          "numerics.conv2d is forward convolution only, numerics.conv2d_backward "
          "includes its transposed conv and kernel gradients, and "
          "numerics.conv2d_param_grads counts only direct calls (detection heads)")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported, missing, idle = {}, [], []
    for name in units:
        value = metrics.get(name)
        if name in workload.exercised:
            if value is None:
                missing.append(name)
            else:
                reported[name] = value
        else:
            reported[name] = 0 if value is None else value
            idle.append(name)
    print(f"idle on {workload.name} (not exercised by this workload): {', '.join(idle)}")
    if missing:
        print(f"MISSING on {workload.name} (zero calls where the workload should "
              f"exercise them): {', '.join(missing)}")
    report_common(tally, probe, digest)
    correct = not missing and tally.failed == 0
    emit(correct, tally, reported, units)
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "layerlens" / "cli.py").is_file():
        print(f"perfbench: layerlens sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
