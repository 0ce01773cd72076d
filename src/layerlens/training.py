"""The two learning schemes under comparison.

``train_e2e`` optimizes every layer jointly; ``train_cascade`` trains the
conv stack stage by stage following a ``SplitPlan``, attaching a throwaway
pool+dense head at each stage's last tap and freezing the stage before the
next begins. After the last conv stage the network's own classifier tail is
fitted on the frozen features so the result is a complete model.

Both schemes share one span trainer, so determinism and frozen-prefix
behaviour are identical by construction. Stages consume cached activations
from the frozen prefix; for a frozen prefix this is mathematically the same
as re-running the full forward pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from . import network as net
from .errors import SpecError, TrainingDiverged
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

    @property
    def k(self) -> int:
        return len(self.parts)


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


@dataclass
class TrainReport:
    stages: list[StageReport]
    probe_acc: dict[int, tuple[float, float | None]] | None
    wall_time_s: float
    provenance: net.Provenance


# ---------------------------------------------------------------------------
# span trainer: layers lo..hi (+ optional aux head) on cached inputs


def _span_forward(spec, params, head, x, lo, hi, want_caches=False):
    if want_caches:
        out, caches = net.run_span(spec, params, x, lo, hi, want_caches=True)
    else:
        out = net.run_span(spec, params, x, lo, hi)
        caches = None
    acts = out
    scores = net.aux_head_forward(head, acts) if head is not None else out
    return scores, acts, caches


def _eval_loss_acc(spec, params, head, data: LabelledSet, lo, hi, batch_size):
    losses, hits, n = [], 0, data.x.shape[0]
    for s in range(0, n, batch_size):
        xb, yb = data.x[s:s + batch_size], data.y[s:s + batch_size]
        scores, _, _ = _span_forward(spec, params, head, xb, lo, hi)
        loss, _ = nm.softmax_cross_entropy(scores, yb)
        losses.append(loss * xb.shape[0])
        hits += int((scores.argmax(axis=1) == yb).sum())
    return sum(losses) / n, hits / n


def clip_gradients(grads, clip_norm: float):
    """Scale a list of gradient arrays so their global norm is <= clip_norm."""
    if clip_norm <= 0:
        return grads, 1.0
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
    if total <= clip_norm:
        return grads, 1.0
    scale = clip_norm / total
    return [g * scale for g in grads], scale


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
) -> StageReport:
    """Minibatch SGD over layers lo..hi (and the head); mutates params/head in place.

    Gradients are clipped to a global norm before the momentum update: the
    plain update is prone to a one-step blow-up (then dead relus) on deeper
    spans, and clipping caps exactly that step.
    """
    report = StageReport(stage_name)
    n = train.x.shape[0]
    vel: dict[int, list] = {
        i: [np.zeros_like(a) for a in params.blocks[i]]
        for i in range(lo, hi + 1)
        if params.blocks[i] is not None
    }
    head_vel = None if head is None else [np.zeros_like(head.weights), np.zeros_like(head.bias)]
    # backpropagation ends at the lowest layer with parameters, whose input
    # gradient nothing uses
    bottom = min(vel, default=hi + 1)

    best_val = np.inf
    stall = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for s in range(0, n, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            xb, yb = train.x[idx], train.y[idx]
            scores, acts, caches = _span_forward(spec, params, head, xb, lo, hi, want_caches=True)
            loss, d_scores = nm.softmax_cross_entropy(scores, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss in stage '{stage_name}'")
            epoch_loss += loss * xb.shape[0]
            seen += xb.shape[0]

            # gather every gradient in the span, clip globally, then update
            flat_grads: list[np.ndarray] = []
            if head is not None:
                g, d_w, d_b = net.aux_head_backward(head, acts, d_scores)
                head_grads = [d_w, d_b]
                flat_grads.extend(head_grads)
            else:
                g = d_scores
                head_grads = None
            layer_grads: dict[int, tuple] = {}
            for i in range(hi, bottom - 1, -1):
                g, grads = net._layer_backward(spec.layers[i], params.blocks[i],
                                               caches[i - lo], g, want_input=i > bottom)
                if grads is not None:
                    layer_grads[i] = grads
                    flat_grads.extend(grads)
            _, scale = clip_gradients(flat_grads, cfg.clip_norm)

            if head is not None:
                head.weights, head_vel[0] = nm.sgd_update(
                    head.weights, scale * head_grads[0], cfg.lr, cfg.momentum, head_vel[0])
                head.bias, head_vel[1] = nm.sgd_update(
                    head.bias, scale * head_grads[1], cfg.lr, cfg.momentum, head_vel[1])
            for i, grads in layer_grads.items():
                new_block = []
                for j, (a, da) in enumerate(zip(params.blocks[i], grads)):
                    a_new, vel[i][j] = nm.sgd_update(
                        a, scale * da, cfg.lr, cfg.momentum, vel[i][j])
                    new_block.append(a_new)
                params.blocks[i] = tuple(new_block)
        report.train_losses.append(epoch_loss / seen)

        if val is not None and val.x.shape[0] > 0:
            val_loss, _ = _eval_loss_acc(spec, params, head, val, lo, hi, cfg.batch_size)
            report.val_losses.append(val_loss)
            if val_loss < best_val - 1e-12:
                best_val, stall = val_loss, 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break

    if cfg.epochs > 0:
        _, report.train_acc = _eval_loss_acc(spec, params, head, train, lo, hi, cfg.batch_size)
        if val is not None and val.x.shape[0] > 0:
            _, report.val_acc = _eval_loss_acc(spec, params, head, val, lo, hi, cfg.batch_size)
    return report


# ---------------------------------------------------------------------------
# public trainers


def train_e2e(
    spec: net.NetworkSpec,
    train: LabelledSet,
    config: TrainConfig,
    val: LabelledSet | None = None,
) -> tuple[net.ModelParams, TrainReport]:
    """Joint optimization of every layer under softmax cross-entropy."""
    t0 = time.perf_counter()
    params = net.init_params(spec, derive_seed(config.seed, "init"))
    rng = make_rng(derive_seed(config.seed, "order:e2e"))
    stage = _train_span(
        spec, params, 0, len(spec.layers) - 1, None, train, val, config, rng, "e2e")
    params.provenance = net.Provenance("E2E", (), config.seed)
    report = TrainReport([stage], None, time.perf_counter() - t0, params.provenance)
    return params, report


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
    if not 0 <= tap <= spec.tap_count:
        raise SpecError(f"tap {tap} out of range 0..{spec.tap_count}")
    if x.shape[0] == 0:
        return np.zeros((0,) + spec.tap_shape(tap), dtype=np.float64)
    if tap == 0:
        return nm.as_f64(x)
    chunks = []
    for s in range(0, x.shape[0], batch_size):
        _, taps = net.forward_with_taps(spec, params, x[s:s + batch_size], depth=tap)
        chunks.append(taps[tap])
    return np.concatenate(chunks, axis=0)


def _stage_span(spec: net.NetworkSpec, part: tuple[int, ...]) -> tuple[int, int]:
    first, last = part[0], part[-1]
    lo = 0 if first == 1 else spec.tap_layers[first - 2] + 1
    return lo, spec.tap_layers[last - 1]


def train_cascade(
    spec: net.NetworkSpec,
    train: LabelledSet,
    config: TrainConfig,
    plan: SplitPlan,
    val: LabelledSet | None = None,
) -> tuple[net.ModelParams, TrainReport]:
    """Stage-wise training: each sub-module learns under its own pool+dense
    head on the frozen prefix's cached activations, then freezes. Ends by
    fitting the network's classifier tail on the full frozen conv stack."""
    if plan.parts[-1][-1] != spec.tap_count:
        raise SpecError(
            f"plan covers taps up to {plan.parts[-1][-1]}, network has {spec.tap_count}")
    t0 = time.perf_counter()
    params = net.init_params(spec, derive_seed(config.seed, "init"))
    stages: list[StageReport] = []

    cur_train = nm.as_f64(train.x)
    cur_val = None if val is None else nm.as_f64(val.x)
    for s_idx, part in enumerate(plan.parts):
        lo, hi = _stage_span(spec, part)
        head = net.init_aux_head(spec, part[-1], derive_seed(config.seed, f"head:{s_idx}"))
        rng = make_rng(derive_seed(config.seed, f"order:stage{s_idx}"))
        stage = _train_span(
            spec, params, lo, hi, head,
            LabelledSet(cur_train, train.y),
            None if cur_val is None else LabelledSet(cur_val, val.y),
            config, rng, f"cl_stage{s_idx + 1}_taps{part[0]}-{part[-1]}")
        stages.append(stage)
        for i in range(lo, hi + 1):
            params.frozen[i] = True
        # cache this stage's output activations as the next stage's input
        cur_train = _advance(spec, params, cur_train, lo, hi, config.batch_size)
        if cur_val is not None:
            cur_val = _advance(spec, params, cur_val, lo, hi, config.batch_size)

    # classifier tail (everything after the last tap) on frozen features
    tail_lo = spec.tap_layers[-1] + 1
    rng = make_rng(derive_seed(config.seed, "order:classifier"))
    stage = _train_span(
        spec, params, tail_lo, len(spec.layers) - 1, None,
        LabelledSet(cur_train, train.y),
        None if cur_val is None else LabelledSet(cur_val, val.y),
        config, rng, "cl_classifier")
    stages.append(stage)

    params.provenance = net.Provenance(
        "CL", tuple(len(p) for p in plan.parts), config.seed)
    report = TrainReport(stages, None, time.perf_counter() - t0, params.provenance)
    return params, report


def _advance(spec, params, x, lo, hi, batch_size):
    outs = []
    for s in range(0, x.shape[0], batch_size):
        outs.append(net.run_span(spec, params, x[s:s + batch_size], lo, hi))
    return np.concatenate(outs, axis=0) if outs else x


# ---------------------------------------------------------------------------
# per-tap probe classifiers (the E2E comparison protocol)


def _gap_features(spec, params, x, batch_size=64) -> dict[int, np.ndarray]:
    feats: dict[int, list] = {t: [] for t in range(1, spec.tap_count + 1)}
    for s in range(0, x.shape[0], batch_size):
        _, taps = net.forward_with_taps(spec, params, x[s:s + batch_size])
        for t, a in taps.items():
            feats[t].append(a.mean(axis=(2, 3)))
    return {t: np.concatenate(v, axis=0) for t, v in feats.items()}


def train_probes(
    spec: net.NetworkSpec,
    params: net.ModelParams,
    train: LabelledSet,
    config: TrainConfig,
    val: LabelledSet | None = None,
) -> tuple[dict[int, net.AuxHead], dict[int, tuple[float, float | None]]]:
    """One fresh pool+dense probe per tap, trained on the frozen backbone's
    pooled features. The backbone is read-only throughout."""
    f_train = _gap_features(spec, params, train.x, config.batch_size)
    f_val = None if val is None else _gap_features(spec, params, val.x, config.batch_size)
    heads: dict[int, net.AuxHead] = {}
    accs: dict[int, tuple[float, float | None]] = {}
    for tap in range(1, spec.tap_count + 1):
        head = net.init_aux_head(spec, tap, derive_seed(config.seed, f"probe:{tap}"))
        rng = make_rng(derive_seed(config.seed, f"order:probe{tap}"))
        xt, yt = f_train[tap], train.y
        vel = [np.zeros_like(head.weights), np.zeros_like(head.bias)]
        best_val, stall = np.inf, 0
        for _epoch in range(config.epochs):
            order = rng.permutation(xt.shape[0])
            for s in range(0, xt.shape[0], config.batch_size):
                idx = order[s:s + config.batch_size]
                scores = nm.dense(xt[idx], head.weights, head.bias)
                loss, d = nm.softmax_cross_entropy(scores, yt[idx])
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss in probe at tap {tap}")
                _, d_w, d_b = nm.dense_backward(xt[idx], head.weights, d)
                (d_w, d_b), _ = clip_gradients([d_w, d_b], config.clip_norm)
                head.weights, vel[0] = nm.sgd_update(head.weights, d_w, config.lr, config.momentum, vel[0])
                head.bias, vel[1] = nm.sgd_update(head.bias, d_b, config.lr, config.momentum, vel[1])
            if f_val is not None and f_val[tap].shape[0] > 0:
                vs = nm.dense(f_val[tap], head.weights, head.bias)
                vloss, _ = nm.softmax_cross_entropy(vs, val.y)
                if vloss < best_val - 1e-12:
                    best_val, stall = vloss, 0
                else:
                    stall += 1
                    if stall >= config.patience:
                        break
        train_acc = float(
            (nm.dense(xt, head.weights, head.bias).argmax(axis=1) == yt).mean())
        val_acc = None
        if f_val is not None and f_val[tap].shape[0] > 0:
            val_acc = float(
                (nm.dense(f_val[tap], head.weights, head.bias).argmax(axis=1) == val.y).mean())
        heads[tap] = head
        accs[tap] = (train_acc, val_acc)
    return heads, accs
