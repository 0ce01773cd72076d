"""Spans recorded from outside the program, by wrapping layer functions.

``Tracer.install`` replaces every public module-level function of the eight
layer modules (and every alias a ``from``-import made of one, such as
``detect.cache_frozen_features``) with a wrapper that records a span: name,
start, end, parent, thread and thread CPU time. ``uninstall`` puts the
original functions back, so untraced runs execute the unmodified program.

Spans stay in memory; ``write`` stores them when the run ends and
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "network", "training", "explain", "locmetrics", "detect", "data", "cli")

# numerics functions are leaves: a numerics function called inside another
# (conv2d_backward's transposed conv2d and conv2d_param_grads, every kernel's
# as_f64/check_tensor4) gets no span of its own, so its time counts as the
# caller's self time. numerics.conv2d therefore means forward convolutions and
# numerics.conv2d_backward the whole backward pass.
LEAF_LAYER = "numerics."

# The worker fan-out in cli is private; it is wrapped so that each work item
# becomes a span whose parent is the (waiting) caller in another thread.
POOL_FN = "_pool_map"
POOL_SPAN = "cli.pool_map"
WORKER_SPAN = "cli.worker"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _conv_flop(out_shape, kernel_shape) -> int:
    n, o, oh, ow = out_shape
    _, c, kh, kw = kernel_shape
    return 2 * n * o * oh * ow * c * kh * kw


def _fingerprint(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # (id, name, parent, thread, t0, t1, c0, c1, phase, extra)
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []       # (module, attribute, original)
        self.wrapped = set()     # span names of every function wrapped
        self._seen_features = set()

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, t0, t1, c0, c1, extra, sid):
        rec = (sid, name, parent, threading.get_ident(), t0, t1, c0, c1, self.phase, extra)
        with self._lock:
            self.spans.append(rec)

    def call(self, name, fn, args, kwargs, counter=None, parent=None):
        stack = self._stack()
        if stack and stack[-1][1].startswith(LEAF_LAYER) and name.startswith(LEAF_LAYER):
            return fn(*args, **kwargs)
        if parent is None:
            parent = stack[-1][0] if stack else -1
        sid = next(self._ids)
        stack.append((sid, name))
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            stack.pop()
        extra = counter(args, kwargs, result) if counter is not None else None
        self._record(name, parent, t0, t1, c0, c1, extra, sid)
        return result

    # -- counters measured where the work happens ------------------------

    def _counters(self):
        def conv(args, kwargs, out):
            return {"flop": _conv_flop(out.shape, _arg(args, kwargs, 1, "kernel").shape)}

        def conv_backward(args, kwargs, out):
            d_out = _arg(args, kwargs, 2, "d_out")
            return {"flop": 2 * _conv_flop(d_out.shape, _arg(args, kwargs, 1, "kernel").shape)}

        def param_grads(args, kwargs, out):
            d_out = _arg(args, kwargs, 2, "d_out")
            return {"flop": _conv_flop(d_out.shape, _arg(args, kwargs, 1, "kernel_shape"))}

        def forward(args, kwargs, out):
            return {"images": int(_arg(args, kwargs, 2, "batch").shape[0])}

        def run_span(args, kwargs, out):
            first = _arg(args, kwargs, 3, "lo") == 0
            return {"images": int(_arg(args, kwargs, 2, "x").shape[0]) if first else 0}

        def features(args, kwargs, out):
            params = _arg(args, kwargs, 1, "params")
            x = _arg(args, kwargs, 2, "x")
            tap = _arg(args, kwargs, 3, "tap")
            blocks = [a for b in params.blocks if b is not None for a in b]
            key = (tap, _fingerprint(x, *blocks))
            with self._lock:
                fresh = key not in self._seen_features
                self._seen_features.add(key)
            return {"images": int(x.shape[0]), "fresh": fresh}

        def nms(args, kwargs, out):
            return {"in": len(_arg(args, kwargs, 0, "detections")), "out": len(out)}

        return {
            "numerics.conv2d": conv,
            "numerics.conv2d_backward": conv_backward,
            "numerics.conv2d_param_grads": param_grads,
            "network.forward_with_taps": forward,
            "network.run_span": run_span,
            "training.cache_frozen_features": features,
            "detect.nms": nms,
        }

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return functools.wraps(fn)(traced)

    def _wrap_pool(self, fn):
        tracer = self

        def traced_pool(work, items, jobs):
            stack = tracer._stack()
            pool_id = next(tracer._ids)
            parent = stack[-1][0] if stack else -1

            def item(x):
                return tracer.call(WORKER_SPAN, work, (x,), {}, parent=pool_id)

            stack.append((pool_id, POOL_SPAN))
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                return fn(item, items, jobs)
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                tracer._record(POOL_SPAN, parent, t0, t1, c0, c1, None, pool_id)
        return functools.wraps(fn)(traced_pool)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` ({layer name: module})."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        counters = self._counters()
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue  # config, seeding, numpy, scipy: not a layer
                name = f"{layer}.{obj.__name__}"
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj, counters.get(name))
                self._patched.append((mod, attr, obj))
                self.wrapped.add(name)
                setattr(mod, attr, wrappers[obj])
        cli = modules["cli"]
        pool = getattr(cli, POOL_FN)
        self._patched.append((cli, POOL_FN, pool))
        setattr(cli, POOL_FN, self._wrap_pool(pool))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        keys = ("id", "name", "parent", "thread", "start", "end",
                "cpu_start", "cpu_end", "phase", "extra")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r[0]):
                fh.write(json.dumps(dict(zip(keys, rec)), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# span analysis


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None, None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _self_times(spans):
    """Per span id: (self wall s, self cpu s), children subtracted per thread."""
    by_id = {r[0]: r for r in spans}
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for sid, _, parent, thread, t0, t1, c0, c1, _, _ in spans:
        p = by_id.get(parent)
        if p is not None and p[3] == thread:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += c1 - c0
    out = {}
    for sid, _, _, _, t0, t1, c0, c1, _, _ in spans:
        out[sid] = (t1 - t0 - child_wall[sid], c1 - c0 - child_cpu[sid])
    return out


def _descends_from(span, ancestor_ids, by_id):
    parent = span[2]
    while parent != -1 and parent in by_id:
        if parent in ancestor_ids:
            return True
        parent = by_id[parent][2]
    return False


# Metrics of these functions also count the set-up phase: dataset generation
# and backbone training are where those layers work on workloads whose
# measured verbs leave them idle.
SETUP_PREFIXES = ("training.", "data.generate_shapes_dataset")


def layer_metrics(spans):
    """Per-layer metrics from recorded spans.

    Metrics are taken over the spans of the measured phase ("round"), except
    for the functions named by SETUP_PREFIXES, whose metrics also count the
    set-up phase. Absent or undefined metrics are left out, never set to 0.
    """
    selfs = _self_times(spans)
    by_id = {r[0]: r for r in spans}
    round_spans = [r for r in spans if r[8] == "round"]

    def agg(span_list):
        g = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0, "durs": [], "extra": []})
        for r in span_list:
            d = g[r[1]]
            d["calls"] += 1
            d["s"] += r[5] - r[4]
            d["durs"].append(r[5] - r[4])
            d["self_s"] += selfs[r[0]][0]
            if r[9] is not None:
                d["extra"].append(r[9])
        return g

    rnd = agg(round_spans)
    full = agg(spans)
    m = {}

    def fn_metrics(name, source):
        d = source.get(name)
        if not d or not d["calls"]:
            return
        m[f"{name}.calls"] = d["calls"]
        m[f"{name}.self_s"] = d["self_s"]
        m[f"{name}.s"] = d["s"]
        m[f"{name}.p50_ms"] = 1e3 * statistics.median(d["durs"])
        value, pct = tail(d["durs"])
        if value is not None:
            m[f"{name}.tail_ms"] = 1e3 * value
            m[f"{name}.tail_pct"] = pct
        flop = sum(e.get("flop", 0) for e in d["extra"])
        if flop:
            m[f"{name}.gflop"] = flop / 1e9
            m[f"{name}.gflop_per_s"] = flop / 1e9 / d["s"]

    for name in set(rnd) | set(full):
        source = full if name.startswith(SETUP_PREFIXES) else rnd
        fn_metrics(name, source)

    images = sum(e["images"] for name in ("network.forward_with_taps", "network.run_span")
                 for e in rnd.get(name, {"extra": []})["extra"])
    if images:
        m["network.images_forwarded"] = images

    feats = full.get("training.cache_frozen_features")
    if feats and feats["calls"]:
        total = sum(e["images"] for e in feats["extra"])
        fresh = sum(e["images"] for e in feats["extra"] if e["fresh"])
        m["training.cache_frozen_features.images"] = total
        if total:
            m["training.cache_frozen_features.distinct_frac"] = fresh / total

    nms = rnd.get("detect.nms")
    if nms and nms["calls"]:
        n_in = sum(e["in"] for e in nms["extra"])
        if n_in:
            m["detect.nms.kept_frac"] = sum(e["out"] for e in nms["extra"]) / n_in

    e2e = [r for r in spans if r[1] == "training.train_e2e"]
    if e2e:
        e2e_ids = {r[0] for r in e2e}
        total = sum(r[5] - r[4] for r in e2e)
        conv = sum(selfs[r[0]][0] for r in spans
                   if r[1] in ("numerics.conv2d", "numerics.conv2d_backward",
                               "numerics.conv2d_param_grads")
                   and _descends_from(r, e2e_ids, by_id))
        m["training.e2e_conv_share"] = conv / total

    # rollups per layer; the pool span only waits for its workers
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    for r in round_spans:
        if r[1] == POOL_SPAN:
            continue
        layer = r[1].split(".", 1)[0]
        sw, sc = selfs[r[0]]
        self_s[layer] += sw
        wait_s[layer] += max(sw - sc, 0.0)
    for layer in LAYERS:
        if layer in self_s:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.wait_s"] = wait_s[layer]
    workers = [r for r in round_spans if r[1] == WORKER_SPAN]
    if workers:
        m["cli.wait_s"] = sum(max((r[5] - r[4]) - (r[7] - r[6]), 0.0) for r in workers)
    else:
        m.pop("cli.wait_s", None)
    return m
