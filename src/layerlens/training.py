"""The two learning schemes under comparison.

``train_e2e`` optimizes every layer jointly; ``train_cascade`` trains the
conv stack stage by stage following a ``SplitPlan``, attaching a throwaway
pool+dense head at each stage's last tap and freezing the stage before the
next begins. After the last conv stage the network's own classifier tail is
fitted on the frozen features so the result is a complete model.

Both schemes share one span trainer, and every trainer in the package
(spans, probes, detection heads) runs the one SGD loop ``fit``, so
determinism, clipping and early stopping are identical by construction. Stages consume cached activations
from the frozen prefix; for a frozen prefix this is mathematically the same
as re-running the full forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from . import network as net
from .errors import LayerlensError, SpecError, TrainingDiverged
from .seeding import derive_seed, make_rng


class LabelledSet(NamedTuple):
    """Images (n, c, h, w) with integer labels (n,)."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 6
    lr: float = 0.03
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0
    patience: int = 3     # epochs without val-loss improvement before a stage stops
    clip_norm: float = 5.0  # global gradient-norm cap per batch; 0 disables

    def __post_init__(self):
        # epochs may be zero (a no-op run returns the initialization unchanged)
        if self.epochs < 0:
            raise SpecError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0 or self.batch_size <= 0 or self.patience <= 0:
            raise SpecError(f"lr, batch_size and patience must be positive: {self}")
        if self.momentum < 0 or self.clip_norm < 0:
            raise SpecError(f"momentum and clip_norm must be >= 0: {self}")


@dataclass(frozen=True)
class SplitPlan:
    """Ordered partition of the taps 1..L into contiguous sub-modules."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [t for part in self.parts for t in part]
        if not self.parts or any(len(p) == 0 for p in self.parts):
            raise SpecError(f"split plan parts must be non-empty: {self.parts}")
        if flat != list(range(1, len(flat) + 1)):
            raise SpecError(f"split plan must cover taps 1..L exactly once: {self.parts}")


def make_split_plan(tap_count: int, k: int) -> SplitPlan:
    """Contiguous near-equal parts; the remainder goes to the earliest parts."""
    if not 1 <= k <= tap_count:
        raise SpecError(f"k must be in 1..{tap_count}, got {k}")
    base, rem = divmod(tap_count, k)
    parts = []
    start = 1
    for i in range(k):
        size = base + (1 if i < rem else 0)
        parts.append(tuple(range(start, start + size)))
        start += size
    return SplitPlan(tuple(parts))


@dataclass
class StageReport:
    name: str
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    train_acc: float | None = None
    val_acc: float | None = None
    # per tap the span produces: the tap's (h, w) means on train and on val
    # (None without val rows), from the passes that measure the accuracies
    pooled: dict[int, tuple[LabelledSet, LabelledSet | None]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the one SGD loop, and the one batched forward


def clip_gradients(grads, clip_norm: float):
    """Scale a list of gradient arrays so their global norm is <= clip_norm."""
    if clip_norm <= 0:
        return grads, 1.0
    # summed in C order, whatever the arrays' memory layout
    total = np.sqrt(sum(float((np.ascontiguousarray(g) ** 2).sum()) for g in grads))
    if total <= clip_norm:
        return grads, 1.0
    scale = clip_norm / total
    return [g * scale for g in grads], scale


def fit(step, n: int, cfg: TrainConfig, rng: np.random.Generator, val_loss,
        label: str) -> tuple[list[float], list[float]]:
    """Minibatch SGD with momentum over ``n`` training rows; every trainer runs it.

    ``step(idx)`` returns ``(loss, arrays, grads)`` for the batch rows ``idx``:
    the mean batch loss, the parameter arrays being learnt (the same arrays
    in the same order on every call) and their gradients. The gradients are
    clipped to a global norm of ``cfg.clip_norm`` (summed in the given order)
    and each array is updated in place with its own velocity. After each
    epoch ``val_loss()``, unless it is None, drives early stopping after
    ``cfg.patience`` epochs without improvement. A non-finite batch loss
    raises ``TrainingDiverged`` naming ``label``, and no training rows a
    ``LayerlensError``, even with zero epochs. Returns the per-epoch mean
    train losses and the val losses.

    Clipping caps the one-step blow-up (then dead relus) that the plain
    update is prone to on deeper spans.
    """
    if n == 0:
        raise LayerlensError(f"no training rows for {label}")
    train_losses: list[float] = []
    val_losses: list[float] = []
    velocity: dict[int, np.ndarray] = {}
    best_val, stall = np.inf, 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for s in range(0, n, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            loss, arrays, grads = step(idx)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss in {label}")
            epoch_loss += loss * len(idx)
            seen += len(idx)
            grads, _ = clip_gradients(grads, cfg.clip_norm)
            for j, (a, g) in enumerate(zip(arrays, grads)):
                a[...], velocity[j] = nm.sgd_update(
                    a, g, cfg.lr, cfg.momentum, velocity.get(j))
        train_losses.append(epoch_loss / seen)

        if val_loss is not None:
            val_losses.append(val_loss())
            if val_losses[-1] < best_val - 1e-12:
                best_val, stall = val_losses[-1], 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
    return train_losses, val_losses


def map_batches(fn, batch_size: int, *arrays) -> tuple[np.ndarray, ...]:
    """Run ``fn`` on consecutive ``batch_size``-row slices of ``arrays``.

    ``fn`` returns a tuple of arrays whose first axis follows its batch (a
    per-batch scalar is a one-element array); each is concatenated across
    batches. Every batched forward pass in the package goes through here.
    """
    outs = [fn(*(a[s:s + batch_size] for a in arrays))
            for s in range(0, len(arrays[0]), batch_size)]
    return tuple(np.concatenate(parts, axis=0) for parts in zip(*outs))


def _nonempty(data: LabelledSet | None) -> LabelledSet | None:
    return data if data is not None and len(data.x) else None


# ---------------------------------------------------------------------------
# span trainer: layers lo..hi (+ optional aux head) on cached inputs


def _train_span(
    spec: net.NetworkSpec,
    params: net.ModelParams,
    lo: int,
    hi: int,
    head: net.AuxHead | None,
    train: LabelledSet,
    val: LabelledSet | None,
    cfg: TrainConfig,
    rng: np.random.Generator,
    stage_name: str,
) -> tuple[StageReport, LabelledSet, LabelledSet | None]:
    """Minibatch SGD over layers lo..hi (and the head); mutates params/head in place.
    Returns the report and the span's outputs on ``train`` and ``val``, from
    the passes that measure the stage's accuracies. A span that produces taps
    starts at one (or at the image) and those passes also fill
    ``report.pooled``."""
    report = StageReport(stage_name)
    val = _nonempty(val)
    # backpropagation ends at the lowest layer with parameters, whose input
    # gradient nothing uses
    bottom = min((i for i in range(lo, hi + 1) if params.blocks[i] is not None),
                 default=hi + 1)
    taps = [t for t in range(1, spec.tap_count + 1) if lo < spec.after_tap(t) <= hi + 1]
    rest = spec.after_tap(taps[-1]) if taps else lo

    def scores(acts):
        return acts if head is None else net.aux_head_forward(head, acts)

    held = None

    def step(idx):
        nonlocal held
        acts, caches = net.run_span(spec, params, train.x[idx], lo, hi, want_caches=True)
        # Hold each batch's activations until the next batch's forward pass has
        # allocated its own. Freed at the end of the step instead, they leave
        # the top of the heap empty, so glibc returns it to the system and the
        # next step faults it back in: 5x the minor page faults and an E2E run
        # ~8% slower.
        held = caches
        loss, g = nm.softmax_cross_entropy(scores(acts), train.y[idx])
        arrays, grads = [], []
        if head is not None:
            g, d_w, d_b = net.aux_head_backward(head, acts, g)
            arrays += [head.weights, head.bias]
            grads += [d_w, d_b]
        for i in range(hi, bottom - 1, -1):
            g, layer_grads = net._layer_backward(spec.layers[i], params.blocks[i],
                                                 caches[i - lo], g, want_input=i > bottom)
            if layer_grads is not None:
                arrays += params.blocks[i]
                grads += layer_grads
        return loss, arrays, grads

    def loss_acc(data: LabelledSet):
        """Mean loss, accuracy, the span's outputs and its pooled taps on ``data``."""
        def batch(xb, yb):
            out, acts = xb, {}
            if taps:
                _, acts = net.forward_with_taps(spec, params, xb, depth=taps[-1],
                                                start=taps[0] - 1)
                out = acts[taps[-1]]
            if rest <= hi:
                out = net.run_span(spec, params, out, rest, hi)
            s = scores(out)
            loss, _ = nm.softmax_cross_entropy(s, yb)
            return (np.array([loss * len(xb)]), s.argmax(axis=1) == yb, out,
                    *(acts[t].mean(axis=(2, 3)) for t in taps))
        losses, hits, out, *means = map_batches(batch, cfg.batch_size, data.x, data.y)
        return (sum(losses.tolist()) / len(data.x), int(hits.sum()) / len(data.x),
                LabelledSet(out, data.y), [LabelledSet(m, data.y) for m in means])

    # fit's last val pass ran on the final weights, so it is the stage's own
    last_val = None

    def val_loss():
        nonlocal last_val
        last_val = loss_acc(val)
        return last_val[0]

    report.train_losses, report.val_losses = fit(
        step, len(train.x), cfg, rng, None if val is None else val_loss,
        f"stage '{stage_name}'")
    _, report.train_acc, train_out, train_pooled = loss_acc(train)
    if val is not None and last_val is None:  # zero epochs: fit ran no val pass
        last_val = loss_acc(val)
    _, report.val_acc, val_out, val_pooled = last_val or (None, None, None, [None] * len(taps))
    report.pooled = dict(zip(taps, zip(train_pooled, val_pooled)))
    return report, train_out, val_out


# ---------------------------------------------------------------------------
# public trainers


def train_e2e(
    spec: net.NetworkSpec,
    train: LabelledSet,
    config: TrainConfig,
    val: LabelledSet | None = None,
) -> tuple[net.ModelParams, list[StageReport]]:
    """Joint optimization of every layer under softmax cross-entropy; returns
    the parameters and the one stage's report."""
    params = net.init_params(spec, derive_seed(config.seed, "init"))
    rng = make_rng(derive_seed(config.seed, "order:e2e"))
    stage, _, _ = _train_span(
        spec, params, 0, len(spec.layers) - 1, None, train, val, config, rng, "e2e")
    params.provenance = net.Provenance("E2E", (), config.seed)
    return params, [stage]


def cache_frozen_features(
    spec: net.NetworkSpec,
    params: net.ModelParams,
    x: np.ndarray,
    tap: int,
    batch_size: int = 64,
) -> np.ndarray:
    """Activations at ``tap`` for every image, computed in fixed-size batches.

    The result is bitwise identical to ``forward_with_taps`` called with the
    same batching, because it is the same code path.
    """
    if x.shape[0] == 0:
        return np.zeros((0,) + spec.tap_shape(tap), dtype=np.float64)
    if tap == 0:
        return nm.as_f64(x)
    (feats,) = map_batches(
        lambda xb: (net.forward_with_taps(spec, params, xb, depth=tap)[1][tap],), batch_size, x)
    return feats


def train_cascade(
    spec: net.NetworkSpec,
    train: LabelledSet,
    config: TrainConfig,
    plan: SplitPlan,
    val: LabelledSet | None = None,
) -> tuple[net.ModelParams, list[StageReport]]:
    """Stage-wise training: each sub-module learns under its own pool+dense
    head on the frozen prefix's cached activations, then freezes. Ends by
    fitting the network's classifier tail on the full frozen conv stack.
    Returns the parameters and one report per stage, the tail's last."""
    if plan.parts[-1][-1] != spec.tap_count:
        raise SpecError(
            f"plan covers taps up to {plan.parts[-1][-1]}, network has {spec.tap_count}")
    params = net.init_params(spec, derive_seed(config.seed, "init"))
    stages: list[StageReport] = []

    cur_train = LabelledSet(nm.as_f64(train.x), train.y)
    cur_val = None if _nonempty(val) is None else LabelledSet(nm.as_f64(val.x), val.y)
    for s_idx, part in enumerate(plan.parts):
        lo, hi = spec.after_tap(part[0] - 1), spec.after_tap(part[-1]) - 1
        head = net.init_aux_head(spec, part[-1], derive_seed(config.seed, f"head:{s_idx}"))
        rng = make_rng(derive_seed(config.seed, f"order:stage{s_idx}"))
        # this stage's output activations are the next stage's cached inputs
        stage, cur_train, cur_val = _train_span(
            spec, params, lo, hi, head, cur_train, cur_val, config, rng,
            f"cl_stage{s_idx + 1}_taps{part[0]}-{part[-1]}")
        stages.append(stage)
        for i in range(lo, hi + 1):
            params.frozen[i] = True

    # classifier tail (everything after the last tap) on frozen features
    rng = make_rng(derive_seed(config.seed, "order:classifier"))
    stages.append(_train_span(
        spec, params, spec.after_tap(spec.tap_count), len(spec.layers) - 1, None,
        cur_train, cur_val, config, rng, "cl_classifier")[0])

    params.provenance = net.Provenance(
        "CL", tuple(len(p) for p in plan.parts), config.seed)
    return params, stages


# ---------------------------------------------------------------------------
# per-tap probe classifiers (the E2E comparison protocol)


def train_probes(
    spec: net.NetworkSpec,
    pooled: dict[int, tuple[LabelledSet, LabelledSet | None]],
    config: TrainConfig,
) -> tuple[dict[int, net.AuxHead], dict[int, tuple[float, float | None]]]:
    """One fresh pool+dense probe per tap, trained on the frozen backbone's
    pooled features: ``pooled[tap]`` holds the tap's (h, w) means on train
    and on val (None without val rows), as the stage reports record them.
    Nothing is forwarded here."""
    heads: dict[int, net.AuxHead] = {}
    accs: dict[int, tuple[float, float | None]] = {}
    for tap, (train, val) in sorted(pooled.items()):
        head = heads[tap] = net.init_aux_head(
            spec, tap, derive_seed(config.seed, f"probe:{tap}"))

        def step(idx):
            loss, d = nm.softmax_cross_entropy(
                nm.dense(train.x[idx], head.weights, head.bias), train.y[idx])
            _, d_w, d_b = nm.dense_backward(train.x[idx], head.weights, d)
            return loss, [head.weights, head.bias], [d_w, d_b]

        def val_loss():
            return nm.softmax_cross_entropy(nm.dense(val.x, head.weights, head.bias), val.y)[0]

        fit(step, len(train.x), config, make_rng(derive_seed(config.seed, f"order:probe{tap}")),
            None if val is None else val_loss, f"probe at tap {tap}")

        def acc(data):
            return float((nm.dense(data.x, head.weights, head.bias).argmax(axis=1)
                          == data.y).mean())
        accs[tap] = (acc(train), None if val is None else acc(val))
    return heads, accs
