import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from layerlens import network as net
from layerlens import numerics as nm
from layerlens import training as tr
from layerlens.errors import (
    BadMagic,
    ChecksumMismatch,
    LayerlensError,
    ShapeError,
    SpecError,
    SpecMismatch,
    TruncatedFile,
    VersionMismatch,
    WeightsError,
)
from layerlens.seeding import make_rng


@pytest.fixture
def six_net():
    return net.build_six_layer_net((3, 32, 32), 3, [8, 8, 16, 16, 32, 32])


@pytest.fixture
def tiny_net():
    # two conv blocks + pool keeps forward/backward tests fast
    layers = [
        net.Conv(4, 3), net.Relu(),
        net.Conv(4, 3), net.Relu(),
        net.Pool(2),
        net.Flatten(), net.Dense(3),
    ]
    return net.NetworkSpec(layers, (1, 8, 8), 3)


def test_six_layer_shapes_and_taps(six_net):
    assert six_net.tap_count == 6
    # tap t is the input of layer after_tap(t): the image feeds layer 0, and
    # every other tap the layer after its relu
    assert [six_net.after_tap(t) for t in range(7)] == [0, 2, 4, 7, 9, 12, 14]
    assert six_net.tap_shape(0) == (3, 32, 32)
    # pooling after blocks 2/4/6 halves 32 -> 16 -> 8 -> 4
    assert six_net.tap_shape(6) == (32, 8, 8)
    assert six_net.layer_shapes[-1] == (3,)
    flat_idx = len(six_net.layers) - 2
    assert six_net.layer_shapes[flat_idx] == (32 * 4 * 4,)


@pytest.mark.parametrize("tap", [-1, 7])
def test_tap_out_of_range_raises_one_error(six_net, tap):
    """Every function addressed by tap refuses a bad one with the same message."""
    params = net.init_params(six_net, 0)
    x = np.zeros((1, 3, 32, 32))
    message = f"^tap {tap} out of range 0..6$"
    for call in (lambda: six_net.after_tap(tap),
                 lambda: six_net.tap_shape(tap),
                 lambda: net.forward_with_taps(six_net, params, x, depth=tap),
                 lambda: net.backward_to_tap(six_net, params, x, 0, (1, tap)),
                 lambda: tr.cache_frozen_features(six_net, params, x, tap),
                 lambda: tr.cache_frozen_features(six_net, params, x[:0], tap)):
        with pytest.raises(SpecError, match=message):
            call()


def test_single_logit_head():
    spec = net.build_six_layer_net((1, 32, 32), 1, [4] * 6)
    assert spec.class_count == 1
    assert spec.layer_shapes[-1] == (1,)


def test_spatial_collapse_rejected():
    with pytest.raises(SpecError):
        net.build_six_layer_net((1, 4, 4), 2, [4] * 6)


def test_wrong_width_count_rejected():
    with pytest.raises(SpecError):
        net.build_six_layer_net((1, 32, 32), 2, [4] * 5)


@pytest.mark.parametrize("kernel", [2, 4, 0])
def test_even_conv_kernel_rejected(kernel):
    """Only an odd kernel has a centre, so only it keeps the map's size under
    pad kernel // 2."""
    layers = [net.Conv(4, kernel), net.Relu(), net.Flatten(), net.Dense(2)]
    with pytest.raises(SpecError, match=f"conv kernel {kernel} must be odd and >= 1"):
        net.NetworkSpec(layers, (1, 8, 8), 2)


def test_conv_keeps_and_pool_divides_the_map():
    spec = net.NetworkSpec([net.Conv(4, 5), net.Relu(), net.Pool(3), net.Flatten(),
                            net.Dense(2)], (1, 7, 8), 2)
    assert spec.layer_shapes[:3] == [(4, 7, 8), (4, 7, 8), (4, 2, 2)]


@pytest.mark.parametrize("widths, digest", [
    ((8, 8, 16, 16, 32, 32), "b6185555ad5299c60a63a61c4c3126539850fbefa62e843cb050010c6859ff2b"),
    ((4, 4, 6, 6, 8, 8), "dc87d006e371a6440337805a78863d162e6410c7ed00ebf90338dbc90e21ac0a"),
])
def test_spec_text_and_hash_pinned(widths, digest):
    """The canonical text still names each conv's stride and pad and each
    pool's stride, so spec hashes, weight files and .spec sidecars keep the
    bytes they had when those were layer fields."""
    spec = net.build_six_layer_net((1, 32, 32), 3, widths)
    lines = spec.canonical_text().splitlines()
    assert f"layer conv out={widths[0]} kernel=3 stride=1 pad=1" in lines
    assert "layer pool window=2 stride=2" in lines
    assert spec.spec_hash().hex() == digest


def test_forward_depth_zero(tiny_net):
    params = net.init_params(tiny_net, 0)
    scores, taps = net.forward_with_taps(tiny_net, params, np.zeros((2, 1, 8, 8)), depth=0)
    assert scores is None
    assert taps == {}


def test_forward_full_depth(tiny_net):
    params = net.init_params(tiny_net, 0)
    x = make_rng(1).standard_normal((2, 1, 8, 8))
    scores, taps = net.forward_with_taps(tiny_net, params, x)
    assert scores.shape == (2, 3)
    assert sorted(taps) == [1, 2]
    assert taps[1].shape == (2, 4, 8, 8)


def test_tap_compositionality(tiny_net):
    params = net.init_params(tiny_net, 7)
    x = make_rng(2).standard_normal((3, 1, 8, 8))
    _, taps = net.forward_with_taps(tiny_net, params, x)
    # running the truncated prefix in isolation reproduces tap 2 bitwise
    _, taps2 = net.forward_with_taps(tiny_net, params, x, depth=2)
    assert np.array_equal(taps[2], taps2[2])
    prefix = net.run_span(tiny_net, params, x, 0, tiny_net.tap_layers[1])
    assert np.array_equal(prefix, taps[2])


def test_forward_to_last_tap_skips_class_scores():
    """``depth=tap_count`` stops after the last tap: no class scores, and the
    same taps, bit for bit, as the full forward."""
    spec = net.build_six_layer_net((1, 32, 32), 3, [4, 4, 6, 6, 8, 8])
    params = net.init_params(spec, 3)
    x = make_rng(4).uniform(0, 1, (5, 1, 32, 32))
    scores, taps = net.forward_with_taps(spec, params, x, depth=spec.tap_count)
    full_scores, full_taps = net.forward_with_taps(spec, params, x)
    assert scores is None and full_scores.shape == (5, 3)
    assert sorted(taps) == sorted(full_taps) == [1, 2, 3, 4, 5, 6]
    for t in taps:
        assert np.array_equal(taps[t], full_taps[t])


# the preset net's widths, and the narrow net of the reproducibility check
BATCH_INVARIANCE_WIDTHS = ([8, 8, 16, 16, 32, 32], [4, 4, 6, 6, 8, 8])


def test_forward_rows_independent_of_batch():
    """Each row's class scores and tap activations equal the batch-1 call,
    bit for bit, on the preset and the narrow six-layer net; LIME scores its
    perturbations in batches and relies on this."""
    rng = make_rng(12)
    for widths, seed in [(w, s) for w in BATCH_INVARIANCE_WIDTHS for s in range(3)]:
        spec = net.build_six_layer_net((1, 32, 32), 3, widths)
        params = net.init_params(spec, seed)
        # LIME-like inputs: random images with zeroed 4x4 patches
        keep = (rng.random((150, 1, 8, 8)) < 0.5).repeat(4, axis=2).repeat(4, axis=3)
        x = rng.uniform(0, 1, (150, 1, 32, 32)) * keep
        alone = [net.forward_with_taps(spec, params, x[i:i + 1]) for i in range(150)]
        for n in (1, 2, 7, 8, 150):
            scores, taps = net.forward_with_taps(spec, params, x[:n])
            for i in range(n):
                ref_scores, ref_taps = alone[i]
                assert np.array_equal(scores[i], ref_scores[0])
                for t in range(1, 7):
                    assert np.array_equal(taps[t][i], ref_taps[t][0])


def test_backward_rows_independent_of_batch():
    """On a batch of 12, each row's activations and gradients at taps 0-6
    equal the batch-1 call, bit for bit, on the preset and the narrow net."""
    rng = make_rng(13)
    taps = tuple(range(7))
    for widths, seed in [(w, s) for w in BATCH_INVARIANCE_WIDTHS for s in range(2)]:
        spec = net.build_six_layer_net((1, 32, 32), 3, widths)
        params = net.init_params(spec, seed)
        x = rng.uniform(0, 1, (12, 1, 32, 32))
        acts, grads = net.backward_to_tap(spec, params, x, seed % 3, taps)
        for i in range(12):
            ref_acts, ref_grads = net.backward_to_tap(spec, params, x[i:i + 1], seed % 3, taps)
            for t in taps:
                assert np.array_equal(acts[t][i], ref_acts[t][0])
                assert np.array_equal(grads[t][i], ref_grads[t][0])


def test_forward_shape_mismatch(tiny_net):
    params = net.init_params(tiny_net, 0)
    with pytest.raises(ShapeError):
        net.forward_with_taps(tiny_net, params, np.zeros((1, 2, 8, 8)))


def test_backward_to_final_tap_matches_finite_differences(tiny_net):
    params = net.init_params(tiny_net, 5)
    # lift conv2's bias so tap-2 activations are strictly positive and
    # distinct: no relu zeros to tie the downstream pool's argmax under
    # the finite-difference probe
    k2, b2 = params.blocks[2]
    params.blocks[2] = (k2, b2 + 10.0)
    rng = make_rng(3)
    x = rng.standard_normal((1, 1, 8, 8))
    tap = 2
    g = net.backward_to_tap(tiny_net, params, x, class_index=1, taps=(tap,))[1][tap]

    tap_layer = tiny_net.tap_layers[tap - 1]
    acts = net.run_span(tiny_net, params, x, 0, tap_layer)

    def score_from_tap(a):
        out = net.run_span(tiny_net, params, a, tap_layer + 1, len(tiny_net.layers) - 1)
        return float(out[0, 1])

    fd = nm.finite_diff_grad(score_from_tap, acts, 1e-5)
    denom = max(np.abs(fd).max(), 1e-12)
    assert np.abs(g - fd).max() / denom < 1e-5


def test_backward_zero_head_gives_zero_gradient(tiny_net):
    params = net.init_params(tiny_net, 4)
    di = len(tiny_net.layers) - 1
    w, b = params.blocks[di]
    params.blocks[di] = (np.zeros_like(w), np.zeros_like(b))
    g = net.backward_to_tap(tiny_net, params, np.ones((1, 1, 8, 8)), 0, taps=(1,))[1][1]
    assert np.array_equal(g, np.zeros_like(g))


def test_backward_to_input_is_score_gradient(tiny_net):
    # tap 0 gradient = d(score)/d(image), checked against finite differences
    params = net.init_params(tiny_net, 6)
    x = make_rng(4).standard_normal((1, 1, 8, 8))
    g = net.backward_to_tap(tiny_net, params, x, class_index=2, taps=(0,))[1][0]
    assert g.shape == x.shape

    def score(xv):
        out, _ = net.forward_with_taps(tiny_net, params, xv)
        return float(out[0, 2])

    fd = nm.finite_diff_grad(score, x, 1e-5)
    assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-5


def test_backward_invalid_tap(tiny_net):
    params = net.init_params(tiny_net, 0)
    with pytest.raises(SpecError):
        net.backward_to_tap(tiny_net, params, np.zeros((1, 1, 8, 8)), 0, taps=(3,))


def test_backward_invalid_class(tiny_net):
    params = net.init_params(tiny_net, 0)
    for class_index in (-1, 3):  # tiny_net has classes 0..2
        with pytest.raises(SpecError, match="class index"):
            net.backward_to_tap(tiny_net, params, np.zeros((1, 1, 8, 8)), class_index, (0,))


def test_aux_head_forward_backward(tiny_net):
    head = net.init_aux_head(tiny_net, tap=2, seed=11)
    rng = make_rng(12)
    acts = rng.standard_normal((2, 4, 4, 4))
    scores = net.aux_head_forward(head, acts)
    assert scores.shape == (2, 3)
    up = rng.standard_normal((2, 3))

    def loss(a):
        return float((net.aux_head_forward(head, a) * up).sum())

    d_acts, d_w, d_b = net.aux_head_backward(head, acts, up)
    fd = nm.finite_diff_grad(loss, acts, 1e-6)
    assert np.abs(d_acts - fd).max() / np.abs(fd).max() < 1e-6


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 42)
    params.provenance = net.Provenance("E2E", (), 42)
    p1 = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, p1)
    loaded = net.load_weights(p1, tiny_net)
    for b1, b2 in zip(params.blocks, loaded.blocks):
        if b1 is None:
            assert b2 is None
        else:
            for a1, a2 in zip(b1, b2):
                assert np.array_equal(a1, a2)
    assert loaded.provenance == params.provenance
    assert loaded.frozen == params.frozen
    # second save of the loaded params is byte-identical
    p2 = tmp_path / "w2.llw"
    net.save_weights(tiny_net, loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "w.llw.spec").exists()


def test_corrupted_byte_is_checksum_error(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 1)
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        net.load_weights(path, tiny_net)


def test_bad_magic(tmp_path, tiny_net):
    path = tmp_path / "w.llw"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(BadMagic):
        net.load_weights(path, tiny_net)


def test_truncated_file(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 1)
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises((TruncatedFile, ChecksumMismatch)):
        net.load_weights(path, tiny_net)
    path.write_bytes(raw[:10])
    with pytest.raises(TruncatedFile):
        net.load_weights(path, tiny_net)


def test_trailing_bytes_rejected(tmp_path, tiny_net):
    import hashlib

    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, net.init_params(tiny_net, 1), path)
    payload = path.read_bytes()[:-32] + bytes(3)
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(WeightsError, match="weight file has 3 bytes after its last array"):
        net.load_weights(path, tiny_net)


def test_version_mismatch(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 1)
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version field
    import hashlib

    payload = bytes(raw[:-32])
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(VersionMismatch):
        net.load_weights(path, tiny_net)


def test_wrong_spec_names_layer(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 1)
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    other = net.NetworkSpec(
        [
            net.Conv(8, 3), net.Relu(),
            net.Conv(4, 3), net.Relu(),
            net.Pool(2),
            net.Flatten(), net.Dense(3),
        ],
        (1, 8, 8),
        3,
    )
    with pytest.raises(SpecMismatch) as e:
        net.load_weights(path, other)
    assert "layer 0" in str(e.value)


@pytest.mark.parametrize("array, value", [(0, np.nan), (1, np.inf)])
def test_non_finite_weights_rejected(tmp_path, tiny_net, array, value):
    """A sealed file whose checksum holds but whose kernel (array 0) or bias
    (array 1) holds a NaN or an infinity is refused when it is read."""
    params = net.init_params(tiny_net, 1)
    block = list(params.blocks[2])
    block[array] = block[array].copy()
    block[array].flat[-1] = value
    params.blocks[2] = tuple(block)
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    with pytest.raises(WeightsError, match="weight file holds a non-finite value"):
        net.load_weights(path, tiny_net)


def test_frozen_flags_round_trip(tmp_path, tiny_net):
    params = net.init_params(tiny_net, 5)
    params.frozen[0] = True
    params.frozen[1] = True
    path = tmp_path / "w.llw"
    net.save_weights(tiny_net, params, path)
    assert net.load_weights(path, tiny_net).frozen == params.frozen


def _load_or_clean_error(path, spec):
    """load_weights either returns parameters that fit ``spec`` or raises a
    LayerlensError; any other exception fails the calling test."""
    try:
        params = net.load_weights(path, spec)
    except LayerlensError:
        return
    assert len(params.blocks) == len(params.frozen) == len(spec.layers)
    for i, block in enumerate(params.blocks):
        assert tuple(a.shape for a in (block or ())) == spec.param_shapes(i)


_fuzz = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(raw=st.binary(max_size=128) | st.binary(max_size=128).map(lambda b: b"LLW1" + b))
def test_load_weights_fuzz_random_bytes(tmp_path, tiny_net, raw):
    path = tmp_path / "fuzz.llw"
    path.write_bytes(raw)
    _load_or_clean_error(path, tiny_net)


@_fuzz
@given(data=st.data(), reseal=st.booleans())
def test_load_weights_fuzz_replaced_cut_or_extended(tmp_path, tiny_net, data, reseal):
    """A saved file with one byte replaced, or cut short, or extended; with
    ``reseal`` the checksum is recomputed so the parser itself is reached."""
    path = tmp_path / "fuzz.llw"
    net.save_weights(tiny_net, net.init_params(tiny_net, 3), path)
    raw = bytearray(path.read_bytes()[:-32] if reseal else path.read_bytes())
    edit = data.draw(st.sampled_from(["replace", "cut", "extend"]))
    if edit == "replace":
        at = data.draw(st.integers(0, 48) | st.integers(0, len(raw) - 1))  # headers first
        raw[min(at, len(raw) - 1)] = data.draw(st.integers(0, 255))
    elif edit == "cut":
        del raw[len(raw) - data.draw(st.integers(1, len(raw))):]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(bytes(raw) + (hashlib.sha256(raw).digest() if reseal else b""))
    _load_or_clean_error(path, tiny_net)
