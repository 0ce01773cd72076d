import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from layerlens import network as net
from layerlens import numerics as nm
from layerlens import training as tr
from layerlens.errors import SpecError, TrainingDiverged
from layerlens.seeding import derive_seed, make_rng


def blocks_equal(a, b):
    for b1, b2 in zip(a, b):
        if (b1 is None) != (b2 is None):
            return False
        if b1 is not None:
            for x, y in zip(b1, b2):
                if not np.array_equal(x, y):
                    return False
    return True


def two_bar_set(n, edge=12, seed=0):
    """Class 0: vertical bar; class 1: horizontal bar. Equal area per class,
    so pooled channel means carry no class signal on an untrained net."""
    rng = make_rng(seed)
    x = np.zeros((n, 1, edge, edge))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        y[i] = i % 2
        length, thick = 8, 2
        r = int(rng.integers(0, edge - length + 1))
        c = int(rng.integers(0, edge - thick + 1))
        if y[i] == 0:
            x[i, 0, r:r + length, c:c + thick] = 1.0
        else:
            x[i, 0, c:c + thick, r:r + length] = 1.0
        x[i, 0] += rng.uniform(0, 0.1, size=(edge, edge))
    return tr.LabelledSet(x, y)


def pooled_taps(spec, params, train, val=None, batch_size=64):
    """Each tap's (h, w) means from a ``batch_size`` forward_with_taps over
    the images, in ``train_probes``' input form: the path the probes once
    took themselves, kept as the oracle for the stages' pooled taps."""
    taps = range(1, spec.tap_count + 1)

    def pooled(xb):
        _, acts = net.forward_with_taps(spec, params, xb, depth=spec.tap_count)
        return tuple(acts[t].mean(axis=(2, 3)) for t in taps)

    f_train = tr.map_batches(pooled, batch_size, train.x)
    f_val = None if val is None else tr.map_batches(pooled, batch_size, val.x)
    return {t: (tr.LabelledSet(f_train[t - 1], train.y),
                None if f_val is None else tr.LabelledSet(f_val[t - 1], val.y))
            for t in taps}


def stage_pooled(stages):
    return {tap: sets for stage in stages for tap, sets in stage.pooled.items()}


@pytest.fixture(scope="module")
def small_spec():
    layers = [
        net.Conv(4, 3), net.Relu(),
        net.Conv(6, 3), net.Relu(),
        net.Pool(2),
        net.Flatten(), net.Dense(2),
    ]
    return net.NetworkSpec(layers, (1, 12, 12), 2)


# ---------------------------------------------------------------------------
# split plans


def test_split_plan_even():
    assert tr.make_split_plan(6, 3).parts == ((1, 2), (3, 4), (5, 6))


def test_split_plan_singletons():
    assert tr.make_split_plan(6, 6).parts == ((1,), (2,), (3,), (4,), (5,), (6,))


def test_split_plan_remainder_to_earliest():
    assert tr.make_split_plan(6, 4).parts == ((1, 2), (3, 4), (5,), (6,))


def test_split_plan_out_of_range():
    with pytest.raises(SpecError):
        tr.make_split_plan(6, 0)
    with pytest.raises(SpecError):
        tr.make_split_plan(6, 7)


@given(tap_count=st.integers(1, 12), k=st.integers(1, 12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_split_plan_is_partition(tap_count, k):
    if k > tap_count:
        with pytest.raises(SpecError):
            tr.make_split_plan(tap_count, k)
        return
    plan = tr.make_split_plan(tap_count, k)
    flat = [t for p in plan.parts for t in p]
    assert flat == list(range(1, tap_count + 1))
    assert len(plan.parts) == k
    assert all(len(p) >= 1 for p in plan.parts)
    # near-equal: sizes differ by at most one, larger parts first
    sizes = [len(p) for p in plan.parts]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_split_plan_validation():
    with pytest.raises(SpecError):
        tr.SplitPlan(((1, 3), (2,)))
    with pytest.raises(SpecError):
        tr.SplitPlan(((1,), ()))


# ---------------------------------------------------------------------------
# end-to-end training


def test_e2e_zero_epochs_keeps_init(small_spec):
    data = two_bar_set(16)
    cfg = tr.TrainConfig(epochs=0, seed=5)
    params, stages = tr.train_e2e(small_spec, data, cfg)
    init = net.init_params(small_spec, derive_seed(5, "init"))
    assert blocks_equal(params.blocks, init.blocks)
    assert params.provenance.scheme == "E2E"


def test_e2e_deterministic(small_spec):
    data = two_bar_set(32)
    cfg = tr.TrainConfig(epochs=2, seed=9)
    p1, _ = tr.train_e2e(small_spec, data, cfg)
    p2, _ = tr.train_e2e(small_spec, data, cfg)
    assert blocks_equal(p1.blocks, p2.blocks)


def test_e2e_learns_separable_task(small_spec):
    data = two_bar_set(160, seed=1)
    cfg = tr.TrainConfig(epochs=14, lr=0.05, seed=3)
    params, stages = tr.train_e2e(small_spec, data, cfg)
    assert stages[0].train_acc >= 0.99


def window_param_grads(x, kernel_shape, d_out):
    """Kernel and bias gradients as tensordot over the window view."""
    k = kernel_shape[2]
    p = k // 2
    win = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), (k, k), axis=(2, 3))
    return np.tensordot(d_out, win, axes=([0, 2, 3], [0, 2, 3])), d_out.sum(axis=(0, 2, 3))


def test_clip_gradients_ignores_memory_layout():
    """A transposed view clips to the same bytes as its C-contiguous copy,
    although summing its squares in memory order moves the norm's last bit."""
    g = make_rng(4).standard_normal((16, 72))
    view = np.ascontiguousarray(g.T).T
    assert not view.flags.c_contiguous and np.array_equal(view, g)
    assert float((view ** 2).sum()) != float((g ** 2).sum())
    bias = np.ones(16)
    clipped, scale = tr.clip_gradients([g, bias], 1.0)
    clipped_view, scale_view = tr.clip_gradients([view, bias], 1.0)
    assert scale < 1.0 and scale_view == scale
    assert all(a.tobytes() == b.tobytes() for a, b in zip(clipped, clipped_view))


def test_e2e_weights_equal_window_kernel_gradients_when_clipping(monkeypatch):
    """Trained bytes equal those of the tensordot kernel gradient while the
    clip fires."""
    spec = net.NetworkSpec([net.Conv(8, 3), net.Relu(), net.Conv(8, 3), net.Relu(),
                            net.Pool(2), net.Flatten(), net.Dense(2)], (1, 12, 12), 2)
    data = two_bar_set(40, seed=4)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, clip_norm=0.5, seed=11)
    scales = []
    clip = tr.clip_gradients

    def recording_clip(grads, clip_norm):
        grads, scale = clip(grads, clip_norm)
        scales.append(scale)
        return grads, scale

    monkeypatch.setattr(tr, "clip_gradients", recording_clip)
    trained, _ = tr.train_e2e(spec, data, cfg)
    assert min(scales) < 1.0
    monkeypatch.setattr(nm, "conv2d_param_grads", window_param_grads)
    reference, _ = tr.train_e2e(spec, data, cfg)
    for got, want in zip(trained.blocks, reference.blocks):
        if got is not None:
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# cascade training


def test_cascade_frozen_prefix_bitwise(small_spec):
    data = two_bar_set(48, seed=2)
    cfg = tr.TrainConfig(epochs=1, seed=7)
    plan = tr.make_split_plan(2, 2)
    params, stages = tr.train_cascade(small_spec, data, cfg, plan)
    snapshot = [None if b is None else tuple(a.copy() for a in b) for b in params.blocks]

    # further probe training must leave everything untouched
    tr.train_probes(small_spec, stage_pooled(stages), tr.TrainConfig(epochs=2, seed=1))
    assert blocks_equal(params.blocks, snapshot)
    conv_layers = [i for i, l in enumerate(small_spec.layers) if isinstance(l, net.Conv)]
    assert all(params.frozen[i] for i in conv_layers)
    assert params.provenance.scheme == "CL"
    assert params.provenance.splits == (1, 1)
    # stages: one per part plus the classifier tail
    assert len(stages) == 3


def test_cascade_stagewise_freezing(small_spec):
    """Earlier sub-modules stay bitwise frozen while later stages train."""
    data = two_bar_set(48, seed=3)
    cfg = tr.TrainConfig(epochs=1, seed=11)

    # run stage 1 only (k=1 over a truncated plan is not allowed, so compare
    # full runs: stage-1 blocks after a 1-stage-only run equal those after
    # the full cascade)
    plan = tr.make_split_plan(2, 2)
    params_full, _ = tr.train_cascade(small_spec, data, cfg, plan)

    params_partial = net.init_params(small_spec, derive_seed(11, "init"))
    lo, hi = small_spec.after_tap(0), small_spec.after_tap(1) - 1
    head = net.init_aux_head(small_spec, 1, derive_seed(11, "head:0"))
    rng = make_rng(derive_seed(11, "order:stage0"))
    tr._train_span(small_spec, params_partial, lo, hi, head, data, None, cfg, rng, "s0")
    for i in range(lo, hi + 1):
        if params_full.blocks[i] is not None:
            for a, b in zip(params_full.blocks[i], params_partial.blocks[i]):
                assert np.array_equal(a, b)


def test_cascade_single_part_plan(small_spec):
    data = two_bar_set(32, seed=4)
    cfg = tr.TrainConfig(epochs=1, seed=13)
    params, stages = tr.train_cascade(small_spec, data, cfg, tr.make_split_plan(2, 1))
    assert len(stages) == 2  # one backbone stage + classifier tail
    assert params.provenance.splits == (2,)


def test_cascade_learns(small_spec):
    data = two_bar_set(160, seed=5)
    cfg = tr.TrainConfig(epochs=10, lr=0.05, seed=21)
    params, stages = tr.train_cascade(small_spec, data, cfg, tr.make_split_plan(2, 2))
    # final-stage classifier reaches high train accuracy on the toy task
    assert stages[-1].train_acc >= 0.9


def test_cascade_deterministic(small_spec):
    data = two_bar_set(32, seed=6)
    cfg = tr.TrainConfig(epochs=1, seed=17)
    plan = tr.make_split_plan(2, 2)
    p1, _ = tr.train_cascade(small_spec, data, cfg, plan)
    p2, _ = tr.train_cascade(small_spec, data, cfg, plan)
    assert blocks_equal(p1.blocks, p2.blocks)


# ---------------------------------------------------------------------------
# probes


def test_probes_leave_backbone_untouched(small_spec):
    data = two_bar_set(32, seed=7)
    params = net.init_params(small_spec, 3)
    snapshot = [None if b is None else tuple(a.copy() for a in b) for b in params.blocks]
    heads, accs = tr.train_probes(small_spec, pooled_taps(small_spec, params, data, batch_size=32),
                                  tr.TrainConfig(epochs=2, seed=2))
    assert blocks_equal(params.blocks, snapshot)
    assert sorted(heads) == [1, 2]
    assert sorted(accs) == [1, 2]


def test_probes_on_random_backbone_near_chance(small_spec):
    # classes differ only in bar orientation (equal area), so pooled features
    # of an untrained net carry ~no signal: expect chance-level held-out accuracy
    train = two_bar_set(300, seed=8)
    val = two_bar_set(200, seed=9)
    params = net.init_params(small_spec, 19)
    _, accs = tr.train_probes(
        small_spec, pooled_taps(small_spec, params, train, val, batch_size=32),
        tr.TrainConfig(epochs=6, lr=0.05, seed=4))
    for tap, (_, val_acc) in accs.items():
        assert abs(val_acc - 0.5) <= 0.1, f"tap {tap}: val acc {val_acc}"


def test_probe_at_final_tap_tracks_training_accuracy(small_spec):
    data = two_bar_set(160, seed=10)
    cfg = tr.TrainConfig(epochs=12, lr=0.05, seed=23)
    params, stages = tr.train_e2e(small_spec, data, cfg)
    _, accs = tr.train_probes(small_spec, stages[0].pooled,
                              tr.TrainConfig(epochs=12, lr=0.1, seed=5))
    assert accs[small_spec.tap_count][0] >= stages[0].train_acc - 0.05


@pytest.mark.parametrize("widths", [(8, 8, 16, 16, 32, 32), (4, 4, 6, 6, 8, 8)],
                         ids=["preset", "narrow"])
@pytest.mark.parametrize("k", [None, 6, 2], ids=["e2e", "cl6", "cl2"])
@pytest.mark.parametrize("epochs, with_val, patience",
                         [(2, True, 3), (4, True, 1), (0, True, 3), (1, False, 3)])
def test_stage_pooled_taps_equal_batch64_forward(widths, k, epochs, with_val, patience):
    """The taps the stages' accuracy passes pool (batch 32, each stage from
    its cached input) equal, byte for byte, the means of a batch-64 forward
    of the trained backbone from the images, and so do the probes trained
    on them. Tap rows do not depend on their batch on these nets."""
    spec = net.build_six_layer_net((1, 32, 32), 3, widths)
    rng = make_rng(len(widths) + sum(widths) + epochs)
    train = tr.LabelledSet(rng.random((40, 1, 32, 32)), rng.integers(0, 3, 40))
    val = tr.LabelledSet(rng.random((21, 1, 32, 32)), rng.integers(0, 3, 21)) if with_val else None
    cfg = tr.TrainConfig(epochs=epochs, lr=0.05, patience=patience, seed=9)
    if k is None:
        params, stages = tr.train_e2e(spec, train, cfg, val)
    else:
        params, stages = tr.train_cascade(spec, train, cfg, tr.make_split_plan(6, k), val)
    pooled, oracle = stage_pooled(stages), pooled_taps(spec, params, train, val)
    assert sorted(pooled) == sorted(oracle) == [1, 2, 3, 4, 5, 6]
    for tap in oracle:
        assert (pooled[tap][1] is None) == (oracle[tap][1] is None) == (val is None)
        for got, want in zip(pooled[tap], oracle[tap]):
            if want is not None:
                assert got.x.tobytes() == want.x.tobytes() and got.x.shape == want.x.shape
                assert np.array_equal(got.y, want.y)
    pcfg = tr.TrainConfig(epochs=3, lr=0.1, batch_size=64, seed=5)
    heads, accs = tr.train_probes(spec, pooled, pcfg)
    heads_o, accs_o = tr.train_probes(spec, oracle, pcfg)
    assert accs == accs_o
    assert all(np.array_equal(heads[t].weights, heads_o[t].weights) for t in heads_o)


# ---------------------------------------------------------------------------
# feature cache


def test_cache_matches_forward(small_spec):
    data = two_bar_set(20, seed=11)
    params = net.init_params(small_spec, 29)
    feats = tr.cache_frozen_features(small_spec, params, data.x, tap=2, batch_size=7)
    for s in range(0, 20, 7):
        _, taps = net.forward_with_taps(small_spec, params, data.x[s:s + 7], depth=2)
        assert np.array_equal(feats[s:s + 7], taps[2])


def test_cache_empty_dataset(small_spec):
    params = net.init_params(small_spec, 1)
    feats = tr.cache_frozen_features(small_spec, params, np.zeros((0, 1, 12, 12)), tap=1)
    assert feats.shape == (0,) + small_spec.tap_shape(1)


def test_cache_tap_zero_returns_input(small_spec):
    params = net.init_params(small_spec, 1)
    x = make_rng(0).standard_normal((4, 1, 12, 12))
    assert np.array_equal(tr.cache_frozen_features(small_spec, params, x, 0), x)


def test_cache_reuse_is_deterministic(small_spec):
    data = two_bar_set(40, seed=12)
    params = net.init_params(small_spec, 31)
    f1 = tr.cache_frozen_features(small_spec, params, data.x, tap=1)
    f2 = tr.cache_frozen_features(small_spec, params, data.x, tap=1)
    assert np.array_equal(f1, f2)


# ---------------------------------------------------------------------------
# the shared SGD loop


def constant_step(grad_rows):
    """A step with fixed gradients for as many zero-initialised arrays."""
    arrays = [np.zeros(len(g)) for g in grad_rows]

    def step(idx):
        return 1.0, arrays, [np.array(g, dtype=float) for g in grad_rows]
    return step, arrays


def test_fit_stops_after_patience_stalled_epochs():
    val = iter([1.0, 0.5, 0.7, 0.6, 0.4, 0.9, 0.9, 0.9, 0.1, 0.1])
    step, _ = constant_step([[0.0]])
    cfg = tr.TrainConfig(epochs=10, batch_size=1, patience=2)
    train_losses, val_losses = tr.fit(step, 1, cfg, make_rng(0), lambda: next(val), "t")
    # 0.7 and 0.6 do not beat 0.5: two stalled epochs end the run
    assert val_losses == [1.0, 0.5, 0.7, 0.6]
    assert len(train_losses) == 4

    val = iter([1.0, 0.5, 0.7, 0.6, 0.4, 0.9, 0.9, 0.9, 0.1, 0.1])
    cfg = tr.TrainConfig(epochs=10, batch_size=1, patience=3)
    _, val_losses = tr.fit(step, 1, cfg, make_rng(0), lambda: next(val), "t")
    # 0.4 resets the count; three more stalled epochs end the run
    assert val_losses == [1.0, 0.5, 0.7, 0.6, 0.4, 0.9, 0.9, 0.9]


def test_fit_without_val_runs_every_epoch():
    step, _ = constant_step([[0.0]])
    train_losses, val_losses = tr.fit(
        step, 5, tr.TrainConfig(epochs=4, batch_size=2, patience=1), make_rng(0), None, "t")
    assert train_losses == [1.0] * 4 and val_losses == []


@pytest.mark.parametrize("clip_norm, scale", [(5.0, 0.5), (20.0, 1.0), (0.0, 1.0)])
def test_fit_caps_global_gradient_norm(clip_norm, scale):
    # gradient norm sqrt(6^2 + 8^2) = 10 across two arrays; lr 1, no momentum,
    # so one step moves the arrays by -scale * gradient
    step, (a, b) = constant_step([[6.0, 0.0], [8.0]])
    cfg = tr.TrainConfig(epochs=1, lr=1.0, momentum=0.0, batch_size=1, clip_norm=clip_norm)
    tr.fit(step, 1, cfg, make_rng(0), None, "t")
    assert np.array_equal(a, [-6.0 * scale, 0.0]) and np.array_equal(b, [-8.0 * scale])


def test_fit_momentum_keeps_one_velocity_per_array():
    step, (a, b) = constant_step([[1.0], [2.0]])
    cfg = tr.TrainConfig(epochs=2, lr=0.5, momentum=0.5, batch_size=1, clip_norm=0.0)
    tr.fit(step, 1, cfg, make_rng(0), None, "t")
    # v1 = -lr g, v2 = momentum v1 - lr g, p = v1 + v2 = -(2 + momentum) lr g
    assert np.allclose(a, [-1.25]) and np.allclose(b, [-2.5])


def test_fit_divergence_names_the_caller():
    arrays = [np.zeros(1)]

    def step(idx):
        return float("nan"), arrays, [np.ones(1)]
    with pytest.raises(TrainingDiverged, match="non-finite loss in probe at tap 3"):
        tr.fit(step, 4, tr.TrainConfig(epochs=1), make_rng(0), None, "probe at tap 3")
    assert np.array_equal(arrays[0], [0.0])  # no update from a diverged batch


def test_e2e_divergence_names_the_stage(small_spec):
    data = two_bar_set(8, seed=1)
    bad = tr.LabelledSet(np.full_like(data.x, np.inf), data.y)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="stage 'e2e'"):
        tr.train_e2e(small_spec, bad, tr.TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# config validation


def test_train_config_rejects_nonpositive():
    with pytest.raises(SpecError):
        tr.TrainConfig(lr=0.0)
    with pytest.raises(SpecError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(SpecError):
        tr.TrainConfig(epochs=-1)
    tr.TrainConfig(epochs=0)  # explicit no-op budget is allowed
