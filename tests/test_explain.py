from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerlens import cli
from layerlens import explain as ex
from layerlens import locmetrics as lm
from layerlens import network as net
from layerlens import numerics as nm
from layerlens.config import load_config
from layerlens.errors import DegenerateDesign, ShapeError
from layerlens.seeding import make_rng


@pytest.fixture(scope="module")
def linear_spec():
    # flatten + dense only: the model is exactly linear in the input
    layers = [net.Flatten(), net.Dense(2)]
    return net.NetworkSpec(layers, (1, 4, 4), 2)


@pytest.fixture(scope="module")
def conv_spec():
    layers = [
        net.Conv(3, 3), net.Relu(),
        net.Conv(4, 3), net.Relu(),
        net.Pool(2),
        net.Flatten(), net.Dense(2),
    ]
    return net.NetworkSpec(layers, (1, 8, 8), 2)


def _input_grad(spec, params, image, cls):
    """One image's (c, h, w) input gradient of the class-``cls`` score."""
    return net.backward_to_tap(spec, params, image[None], cls, (0,))[1][0][0]


# ---------------------------------------------------------------------------
# saliency


def test_saliency_of_linear_model_is_abs_weights(linear_spec):
    params = net.init_params(linear_spec, 0)
    w, b = params.blocks[1]
    amap = ex.saliency(_input_grad(linear_spec, params, np.zeros((1, 4, 4)), 1))
    assert np.allclose(amap.values, np.abs(w[1]).reshape(4, 4))


def test_saliency_of_constant_model_is_zero(linear_spec):
    params = net.init_params(linear_spec, 0)
    w, b = params.blocks[1]
    params.blocks[1] = (np.zeros_like(w), b)
    amap = ex.saliency(_input_grad(linear_spec, params, np.ones((1, 4, 4)), 0))
    assert np.array_equal(amap.values, np.zeros((4, 4)))


def test_saliency_matches_finite_difference_perturbation(conv_spec):
    params = net.init_params(conv_spec, 1)
    rng = make_rng(2)
    img = rng.uniform(0.1, 1.0, (1, 8, 8))
    cls = 1
    grad = _input_grad(conv_spec, params, img, cls)
    amap = ex.saliency(grad)

    def score(x):
        out, _ = net.forward_with_taps(conv_spec, params, x[None])
        return float(out[0, cls])

    # probe 10 random pixels against central differences on the image
    coords = [(int(a), int(b)) for a, b in zip(rng.integers(0, 8, 10), rng.integers(0, 8, 10))]
    for (r, c) in coords:
        xp, xm = img.copy(), img.copy()
        xp[0, r, c] += 1e-5
        xm[0, r, c] -= 1e-5
        fd = (score(xp) - score(xm)) / 2e-5
        assert abs(grad[0, r, c] - fd) <= 1e-4 * max(abs(fd), 1.0)
        assert amap.values[r, c] == pytest.approx(abs(grad[0, r, c]))


# ---------------------------------------------------------------------------
# grad-cam


def test_cam_hand_example_positive():
    a = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    g = np.ones((1, 2, 2))
    cam = ex.cam_values(a, g)
    assert np.array_equal(cam, a[0])


def test_cam_hand_example_negative_importance():
    a = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    g = -np.ones((1, 2, 2))
    cam = ex.cam_values(a, g)
    assert np.array_equal(cam, np.zeros((2, 2)))


def test_cam_two_channel_matches_double_loop():
    rng = make_rng(3)
    a = rng.standard_normal((2, 5, 5))
    g = rng.standard_normal((2, 5, 5))
    cam = ex.cam_values(a, g)
    # brute-force evaluation, channel weights then per-pixel accumulation
    ref = np.zeros((5, 5))
    for k in range(2):
        alpha = 0.0
        for i in range(5):
            for j in range(5):
                alpha += g[k, i, j]
        alpha /= 25.0
        ref += alpha * a[k]
    ref = np.maximum(ref, 0.0)
    assert np.abs(cam - ref).max() < 1e-12


def test_grad_cam_equals_brute_force_on_model(conv_spec):
    params = net.init_params(conv_spec, 5)
    rng = make_rng(6)
    img = rng.uniform(0, 1, (1, 8, 8))
    tap, cls = 2, 0
    acts, grads = net.backward_to_tap(conv_spec, params, img[None], cls, (tap,))
    amap = ex.grad_cam(acts[tap], grads[tap], (8, 8))
    assert amap.values.shape == (1, 8, 8)
    assert amap.values.min() >= 0

    _, taps = net.forward_with_taps(conv_spec, params, img[None], depth=tap)
    _, grads = net.backward_to_tap(conv_spec, params, img[None], cls, (tap,))
    a, g = taps[tap][0], grads[tap][0]
    k, h, w = a.shape
    ref = np.zeros((h, w))
    for kk in range(k):
        ref += g[kk].sum() / (h * w) * a[kk]
    ref = np.maximum(ref, 0.0)
    assert np.abs(ex.cam_values(a, g) - ref).max() < 1e-12


def test_grad_cam_nonnegative_random_models():
    rng = make_rng(7)
    for trial in range(25):
        layers = [net.Conv(2, 3), net.Relu(), net.Flatten(), net.Dense(2)]
        spec = net.NetworkSpec(layers, (1, 6, 6), 2)
        params = net.init_params(spec, trial)
        img = rng.standard_normal((1, 6, 6))
        acts, grads = net.backward_to_tap(spec, params, img[None], int(rng.integers(2)), (1,))
        amap = ex.grad_cam(acts[1], grads[1], (6, 6))
        assert amap.values.min() >= 0


def _two_pass_grad(spec, params, batch, cls, tap):
    """The former per-tap gradient: its own forward and a backward to ``tap``."""
    last = len(spec.layers) - 1
    scores, caches = net.run_span(spec, params, batch, 0, last, want_caches=True)
    g = np.zeros_like(scores)
    g[:, cls] = 1.0
    boundary = -1 if tap == 0 else spec.tap_layers[tap - 1]
    for i in range(last, boundary, -1):
        g, _ = net._layer_backward(spec.layers[i], params.blocks[i], caches[i], g,
                                   want_params=False)
    return g


def test_one_pass_grad_cam_equals_two_pass_per_tap(monkeypatch):
    """On the preset net, ``cli._image_maps`` gives every Grad-CAM and saliency
    heatmap and mask of a chunk of images with mixed labels from one backward
    pass, bit for bit those of a separate forward and backward per image and
    tap and one more for saliency; a batch longer than one chunk takes one
    pass per chunk."""
    cfg = load_config("preset-localise")
    spec, sigma, pct = cfg.spec, cfg["explain"]["sigma"], cfg["explain"]["percentile"]
    taps = [1, 2, 3, 4, 5, 6]
    n = cli.MAP_CHUNK + 5
    forward, backward = net.forward_with_taps, net.backward_to_tap
    calls = []

    def counted(*args):
        calls.append((len(args[2]), args[4]))
        return backward(*args)

    def smoothed(values):
        heat = ex.gaussian_smooth(ex.AttributionMap(values), sigma).values
        return heat, lm.binarize_percentile(heat, pct)

    rng = make_rng(10)
    for seed in range(2):
        params = net.init_params(spec, seed)
        images = rng.uniform(0, 1, (n, 1, 32, 32))
        anns = [SimpleNamespace(label=int(c)) for c in rng.integers(0, 3, n)]
        assert {a.label for a in anns} == {0, 1, 2}
        # reference: per image, taps from a forward to each depth, gradients
        # from a separate full forward and backward per tap
        refs = []
        for img, ann in zip(images, anns):
            ref = {}
            for tap in taps:
                _, acts = forward(spec, params, img[None], depth=tap)
                g = _two_pass_grad(spec, params, img[None], ann.label, tap)
                ref["grad_cam", tap] = smoothed(
                    ex.bilinear_resize(ex.cam_values(acts[tap][0], g[0]), 32, 32))
            g0 = _two_pass_grad(spec, params, img[None], ann.label, 0)
            ref.update(dict.fromkeys((("saliency", t) for t in taps),
                                     smoothed(np.abs(g0[0]).max(axis=0))))
            refs.append(ref)

        monkeypatch.setattr(net, "forward_with_taps", None)  # one pass only
        monkeypatch.setattr(net, "backward_to_tap", counted)
        calls.clear()
        chunks = cli._chunks(anns, images)
        maps = [cli._image_maps(params, chunk_anns, chunk_x, cfg,
                                ["grad_cam", "saliency"], taps, pct)
                for chunk_anns, chunk_x in chunks]
        monkeypatch.setattr(net, "forward_with_taps", forward)
        monkeypatch.setattr(net, "backward_to_tap", backward)
        assert calls == [(cli.MAP_CHUNK, (*taps, 0)), (5, (*taps, 0))]
        got = [{key: (heat[i], mask[i]) for key, (heat, mask) in chunk_maps.items()}
               for chunk_maps, (chunk_anns, _) in zip(maps, chunks)
               for i in range(len(chunk_anns))]
        assert len(got) == n
        for ref, image_maps in zip(refs, got):
            assert sorted(image_maps) == sorted(ref)
            for key, (heat, mask) in ref.items():
                assert np.array_equal(image_maps[key][0], heat)
                assert np.array_equal(image_maps[key][1], mask)


def test_stacked_maps_equal_per_image_maps():
    """``cam_values``, ``bilinear_resize`` and ``saliency`` on an (n, ...)
    stack give each image the bytes of its own call."""
    rng = make_rng(21)
    for n, k, h, w in [(1, 8, 32, 32), (7, 16, 16, 16), (32, 32, 8, 8), (5, 3, 5, 7)]:
        a = np.maximum(rng.standard_normal((n, k, h, w)), 0.0)
        g = rng.standard_normal((n, k, h, w)) * 1e-3
        cam = ex.cam_values(a, g)
        assert cam.shape == (n, h, w)
        for i in range(n):
            assert np.array_equal(cam[i], ex.cam_values(a[i], g[i]))
        for out_h, out_w in [(32, 32), (h, w), (9, 13)]:
            resized = ex.bilinear_resize(cam, out_h, out_w)
            assert resized.shape == (n, out_h, out_w)
            for i in range(n):
                assert np.array_equal(resized[i], ex.bilinear_resize(cam[i], out_h, out_w))
        sal = ex.saliency(g).values
        assert sal.shape == (n, h, w)
        for i in range(n):
            assert np.array_equal(sal[i], ex.saliency(g[i]).values)
    with pytest.raises(ShapeError):
        ex.cam_values(np.zeros((4, 4)), np.zeros((4, 4)))


def test_backward_to_tap_records_each_tap(conv_spec):
    params = net.init_params(conv_spec, 3)
    x = make_rng(4).uniform(0, 1, (2, 1, 8, 8))
    acts, grads = net.backward_to_tap(conv_spec, params, x, 1, (2, 0, 1))
    _, fwd = net.forward_with_taps(conv_spec, params, x)
    assert np.array_equal(acts[0], x)
    for tap in (0, 1, 2):
        assert np.array_equal(grads[tap], _two_pass_grad(conv_spec, params, x, 1, tap))
        if tap:
            assert np.array_equal(acts[tap], fwd[tap])


# ---------------------------------------------------------------------------
# gaussian smoothing


def test_smooth_sigma_zero_is_identity():
    rng = make_rng(8)
    amap = ex.AttributionMap(rng.uniform(0, 1, (6, 6)))
    out = ex.gaussian_smooth(amap, 0.0)
    assert np.array_equal(out.values, amap.values)
    assert out.values is not amap.values


def test_smooth_impulse_preserves_mass():
    v = np.zeros((9, 9))
    v[4, 4] = 1.0
    out = ex.gaussian_smooth(ex.AttributionMap(v), 1.5)
    assert abs(out.values.sum() - 1.0) < 1e-9
    assert out.values.min() >= 0
    assert out.values[4, 4] < 1.0


def test_smooth_constant_map_unchanged():
    v = np.full((7, 7), 0.37)
    out = ex.gaussian_smooth(ex.AttributionMap(v), 2.0)
    assert np.abs(out.values - 0.37).max() < 1e-9


@given(sigma=st.floats(0.2, 3.0), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_smooth_mass_and_sign_properties(sigma, seed):
    v = make_rng(seed).uniform(0, 1, (8, 8))
    out = ex.gaussian_smooth(ex.AttributionMap(v), sigma)
    assert abs(out.values.sum() - v.sum()) < 1e-9
    assert out.values.min() >= 0


def loop_gaussian(values, sigma):
    """Reference blur as a scalar loop: the kernel of ``exp(-x^2 / 2 sigma^2)``
    over ``|x| <= int(4 sigma + 0.5)`` normalised by its numpy sum, borders
    reflected about the half sample, down each column first, then along each
    row. Each output is the centre term, then the pair sums added from the
    outermost in: the symmetric correlate loop of ``scipy.ndimage``."""
    radius = int(4 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = (phi / phi.sum()).tolist()

    def at(line, i):
        n = len(line)
        i %= 2 * n
        return line[i if i < n else 2 * n - 1 - i]

    def correlate(line):
        out = []
        for i in range(len(line)):
            acc = line[i] * w[radius]
            for j in range(radius, 0, -1):
                acc += (at(line, i - j) + at(line, i + j)) * w[radius + j]
            out.append(acc)
        return out

    rows = np.array([correlate(col) for col in np.asarray(values).T.tolist()]).T
    return np.array([correlate(row) for row in rows.tolist()]).reshape(np.shape(values))


def _smooth_bytes_agree(values, sigma):
    from scipy import ndimage

    got = ex.gaussian_smooth(ex.AttributionMap(values), sigma).values
    assert got.tobytes() == np.maximum(
        ndimage.gaussian_filter(values, sigma, mode="reflect"), 0.0).tobytes()
    assert got.tobytes() == np.maximum(loop_gaussian(values, sigma), 0.0).tobytes()


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_smooth_bytes_match_references(sigma):
    """Every edge from 1 to 40, edges shorter than the kernel radius
    included, gives the bytes of ``scipy.ndimage.gaussian_filter`` in reflect
    mode and of the loop reference."""
    rng = make_rng(int(10 * sigma))
    for h in range(1, 41):
        _smooth_bytes_agree(rng.uniform(0, 1, (h, int(rng.integers(1, 41)))), sigma)


@given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 40), w=st.integers(1, 40),
       sigma=st.floats(0.05, 4.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_smooth_bytes_match_references_random_sigma(seed, h, w, sigma):
    _smooth_bytes_agree(make_rng(seed).uniform(0, 1, (h, w)), sigma)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8), h=st.integers(1, 40),
       w=st.integers(1, 40), sigma=st.sampled_from([0.3, 1.0, 2.0, 3.0]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_smooth_stack_bytes_match_each_map(seed, n, h, w, sigma):
    """A stack of maps is smoothed as each map alone, and as the reference
    filter run over the stack's two map axes."""
    from scipy import ndimage

    stack = make_rng(seed).uniform(0, 1, (n, h, w))
    got = ex.gaussian_smooth(ex.AttributionMap(stack), sigma).values
    assert got.tobytes() == np.stack(
        [ex.gaussian_smooth(ex.AttributionMap(v), sigma).values for v in stack]).tobytes()
    assert got.tobytes() == np.maximum(
        ndimage.gaussian_filter(stack, (0, sigma, sigma), mode="reflect"), 0.0).tobytes()


# ---------------------------------------------------------------------------
# superpixels


def test_grid_32x32_edge_8():
    grid = ex.superpixel_grid((32, 32), 8)
    assert grid.patch_count == 16
    assert grid.labels.shape == (32, 32)


def test_grid_single_patch():
    grid = ex.superpixel_grid((16, 16), 16)
    assert grid.patch_count == 1
    assert np.all(grid.labels == 0)


def test_grid_edge_too_large():
    with pytest.raises(ShapeError):
        ex.superpixel_grid((8, 8), 9)


@given(h=st.integers(4, 40), w=st.integers(4, 40), edge=st.integers(1, 12))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_grid_partitions_every_pixel(h, w, edge):
    if edge > h or edge > w:
        with pytest.raises(ShapeError):
            ex.superpixel_grid((h, w), edge)
        return
    grid = ex.superpixel_grid((h, w), edge)
    assert grid.labels.min() == 0
    assert grid.labels.max() == grid.patch_count - 1
    # every pixel has exactly one id and every patch is non-empty
    counts = np.bincount(grid.labels.ravel(), minlength=grid.patch_count)
    assert counts.sum() == h * w
    assert np.all(counts >= edge * edge)


# ---------------------------------------------------------------------------
# lime


def batched(score):
    """A batch black box from a per-image one: (n, c, h, w) -> (n,) scores."""
    return lambda stack: np.array([score(img) for img in stack])


def planted_black_box(grid, patch_id):
    inside = grid.labels == patch_id

    def bb(img):
        return float((img[0] > 0)[inside].sum())

    return batched(bb)


def test_lime_recovers_planted_patch():
    grid = ex.superpixel_grid((16, 16), 4)
    img = np.ones((1, 16, 16))
    bb = planted_black_box(grid, 3)
    hits = 0
    for seed in range(100):
        res = ex.lime_explain(bb, img, grid, n_samples=60, ridge_lambda=1.0,
                              keep_prob=0.5, k=1, rng=make_rng(seed))
        w = res.patch_weights
        top = np.argmax(w)
        if res.selected == (3,) and w[3] > np.delete(w, 3).max():
            hits += 1
    assert hits >= 95


def test_lime_large_lambda_shrinks_weights():
    grid = ex.superpixel_grid((8, 8), 4)
    img = np.ones((1, 8, 8))
    bb = planted_black_box(grid, 1)
    res = ex.lime_explain(bb, img, grid, 50, ridge_lambda=1e12,
                          keep_prob=0.5, k=1, rng=make_rng(0))
    assert np.abs(res.patch_weights).max() < 1e-6


def test_lime_matches_normal_equations_oracle():
    # 5-patch grid, 20 samples: solve the full (p+1)-dim system with an
    # explicit unpenalized intercept column and compare
    grid = ex.superpixel_grid((5, 25), 5)
    assert grid.patch_count == 5
    rng = make_rng(11)
    img = rng.uniform(0.2, 1, (1, 5, 25))
    coeffs = np.array([1.0, -2.0, 0.5, 3.0, 0.0])

    def bb(im):
        present = np.array([
            float(np.any(im[0][grid.labels == p] > 0)) for p in range(5)])
        return float(coeffs @ present + 0.7)

    lam = 0.3
    res = ex.lime_explain(batched(bb), img, grid, 20, lam, 0.5, 2, make_rng(21))
    z, y = res.samples, res.scores
    n, p = z.shape
    a = np.zeros((p + 1, p + 1))
    a[:p, :p] = z.T @ z + lam * np.eye(p)
    a[:p, p] = z.sum(axis=0)
    a[p, :p] = z.sum(axis=0)
    a[p, p] = n
    rhs = np.concatenate([z.T @ y, [y.sum()]])
    sol = np.linalg.solve(a, rhs)
    assert np.abs(res.patch_weights - sol[:p]).max() < 1e-9
    assert abs(res.intercept - sol[p]) < 1e-9


def test_lime_linear_black_box_exact_in_lambda_zero_limit():
    grid = ex.superpixel_grid((4, 16), 4)
    coeffs = np.array([2.0, -1.0, 0.0, 4.0])

    def bb(im):
        present = np.array([
            float(np.any(im[0][grid.labels == p] > 0)) for p in range(4)])
        return float(coeffs @ present)

    img = np.ones((1, 4, 16))
    res = ex.lime_explain(batched(bb), img, grid, 40, 1e-10, 0.5, 2, make_rng(5))
    assert np.abs(res.patch_weights - coeffs).max() < 1e-6


@pytest.mark.parametrize("scores", [np.zeros(29), np.zeros((30, 1)), np.float64(0.0)])
def test_lime_black_box_must_return_one_score_per_sample(scores):
    grid = ex.superpixel_grid((4, 4), 2)
    with pytest.raises(ShapeError, match=r"expected \(30,\)"):
        ex.lime_explain(lambda stack: scores, np.ones((1, 4, 4)), grid, 30,
                        1.0, 0.5, 1, make_rng(0))


def test_lime_degenerate_design_reported():
    grid = ex.superpixel_grid((4, 4), 2)
    with pytest.raises(DegenerateDesign):
        ex.lime_explain(batched(lambda im: 0.0), np.ones((1, 4, 4)), grid, 30,
                        1.0, 1e-9, 1, make_rng(0))  # keep_prob ~ 0: all-zero masks


def test_lime_mask_all_patches_keeps_image():
    grid = ex.superpixel_grid((8, 8), 4)
    img = make_rng(1).uniform(0, 1, (1, 8, 8))
    expl = ex.LimeExplanation(np.zeros(4), (0, 1, 2, 3), np.zeros((1, 4)), np.zeros(1), 0.0)
    occ, mask = ex.lime_mask(img, expl, grid)
    assert np.array_equal(occ, img)
    assert mask.all()


def test_lime_mask_no_patches_zeroes_image():
    grid = ex.superpixel_grid((8, 8), 4)
    img = np.ones((1, 8, 8))
    expl = ex.LimeExplanation(np.zeros(4), (), np.zeros((1, 4)), np.zeros(1), 0.0)
    occ, mask = ex.lime_mask(img, expl, grid)
    assert occ.sum() == 0
    assert not mask.any()


def test_lime_mask_pixel_count_is_patch_area_sum():
    grid = ex.superpixel_grid((10, 10), 3)  # ragged: edge patches absorb remainder
    expl = ex.LimeExplanation(np.zeros(9), (0, 8), np.zeros((1, 9)), np.zeros(1), 0.0)
    _, mask = ex.lime_mask(np.ones((1, 10, 10)), expl, grid)
    areas = np.bincount(grid.labels.ravel(), minlength=9)
    assert mask.sum() == areas[0] + areas[8]


# ---------------------------------------------------------------------------
# bilinear resize


def test_resize_constant_stays_constant():
    out = ex.bilinear_resize(np.full((3, 3), 2.5), 9, 9)
    assert np.abs(out - 2.5).max() < 1e-12


def test_resize_identity():
    v = make_rng(2).uniform(0, 1, (5, 5))
    assert np.array_equal(ex.bilinear_resize(v, 5, 5), v)


def test_resize_preserves_sign():
    v = make_rng(3).uniform(0, 1, (4, 4))
    out = ex.bilinear_resize(v, 13, 13)
    assert out.min() >= 0
    assert out.max() <= v.max() + 1e-12
