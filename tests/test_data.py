import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from layerlens import data as ds
from layerlens.errors import ImageFormatError, LayerlensError, ManifestError, ShapeError
from layerlens.seeding import make_rng


# ---------------------------------------------------------------------------
# shape rendering + generation geometry


def test_disk_pixel_area_close_to_circle():
    size = 10  # radius 5
    mask = ds.render_shape("disk", size)
    area = mask.sum()
    assert abs(area - np.pi * 25) <= 0.2 * np.pi * 25


def test_every_kind_renders_nonempty():
    for kind in ds.SHAPE_KINDS:
        for size in (3, 7, 12):
            mask = ds.render_shape(kind, size)
            assert mask.any()
            assert mask.shape == (size, size)


def test_render_image_box_is_tight():
    spec = ds.ShapeSpec(image_edge=32, size_range=(10, 16), noise=0.0)
    for seed in range(20):
        rng = make_rng(seed)
        kind = ds.SHAPE_KINDS[seed % 4]
        img, box = ds.render_image(spec, kind, rng)
        lit = img[0] > 0
        ys, xs = np.nonzero(lit)
        # all lit pixels inside the box, and the box hugs them exactly
        assert xs.min() == box.x and ys.min() == box.y
        assert xs.max() == box.x + box.w - 1
        assert ys.max() == box.y + box.h - 1


def test_generate_dataset_geometry_and_determinism(tmp_path):
    spec = ds.ShapeSpec(image_edge=24, size_range=(8, 12), noise=0.1)
    m1 = ds.generate_shapes_dataset(spec, 12, 3, seed=5, out_dir=tmp_path / "a")
    m2 = ds.generate_shapes_dataset(spec, 12, 3, seed=5, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "manifest.txt").read_bytes() == \
        (tmp_path / "b" / "manifest.txt").read_bytes()
    for a1, a2 in zip(m1.annotations, m2.annotations):
        assert a1 == a2
        b1 = (tmp_path / "a" / a1.path).read_bytes()
        b2 = (tmp_path / "b" / a2.path).read_bytes()
        assert b1 == b2
    # labels cycle through the classes
    assert {a.label for a in m1.annotations} == {0, 1, 2}


def test_generate_empty_dataset(tmp_path):
    spec = ds.ShapeSpec()
    m = ds.generate_shapes_dataset(spec, 0, 2, seed=1, out_dir=tmp_path)
    assert m.annotations == []
    loaded = ds.load_manifest(tmp_path / "manifest.txt")
    assert loaded.annotations == []


def test_generate_rejects_unsatisfiable_geometry():
    with pytest.raises(ShapeError):
        ds.ShapeSpec(image_edge=16, size_range=(4, 20))


def test_generate_rejects_too_many_classes(tmp_path):
    with pytest.raises(ShapeError):
        ds.generate_shapes_dataset(ds.ShapeSpec(), 4, 5, 0, tmp_path)


def test_distractors_stay_out_of_target_box():
    spec = ds.ShapeSpec(image_edge=32, size_range=(6, 8), noise=0.0, distractors=2)
    img, box = ds.render_image(spec, "disk", make_rng(3))
    outside = np.ones((32, 32), dtype=bool)
    outside[box.y:box.y + box.h, box.x:box.x + box.w] = False
    assert (img[0][outside] > 0).any()  # distractor pixels exist outside the box


# ---------------------------------------------------------------------------
# image IO


def test_image_round_trip_exact_zero(tmp_path):
    img = np.zeros((1, 6, 6))
    p = tmp_path / "z.pgm"
    ds.write_image(img, p)
    assert np.array_equal(ds.read_image(p), img)


def test_image_round_trip_within_quantization(tmp_path):
    ramp = np.linspace(0, 1, 64).reshape(1, 8, 8)
    p = tmp_path / "r.pgm"
    ds.write_image(ramp, p)
    back = ds.read_image(p)
    assert np.abs(back - ramp).max() <= 1 / 255 + 1e-12


def test_color_image_round_trip(tmp_path):
    rng = make_rng(4)
    img = rng.uniform(0, 1, (3, 5, 7))
    p = tmp_path / "c.ppm"
    ds.write_image(img, p)
    back = ds.read_image(p)
    assert back.shape == (3, 5, 7)
    assert np.abs(back - img).max() <= 1 / 255 + 1e-12


def test_generated_images_match_memory(tmp_path):
    spec = ds.ShapeSpec(image_edge=16, size_range=(6, 8), noise=0.3)
    ds.generate_shapes_dataset(spec, 6, 2, seed=9, out_dir=tmp_path)
    m = ds.load_manifest(tmp_path / "manifest.txt")
    for a in m.annotations:
        rng = make_rng(ds.derive_seed(9, f"image:{int(a.image_id)}"))
        img, _ = ds.render_image(spec, m.class_names[a.label], rng)
        back = ds.read_image(tmp_path / a.path)
        assert np.abs(back - img).max() <= 1 / 255 + 1e-12


def test_read_image_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"JUNKJUNK")
    with pytest.raises(ImageFormatError):
        ds.read_image(p)


def test_read_image_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    ds.write_image(np.ones((1, 4, 4)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])
    with pytest.raises(ImageFormatError):
        ds.read_image(p)


def _read_or_clean_error(path):
    """read_image either returns a (c, h, w) image in [0, 1] or raises a
    LayerlensError; any other exception fails the calling test."""
    try:
        img = ds.read_image(path)
    except LayerlensError:
        return
    assert img.ndim == 3 and img.shape[0] in (1, 3) and min(img.shape) >= 1
    assert img.min() >= 0.0 and img.max() <= 1.0


_fuzz = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(raw=st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"P5" + b))
def test_read_image_fuzz_random_bytes(tmp_path, raw):
    p = tmp_path / "fuzz.pgm"
    p.write_bytes(raw)
    _read_or_clean_error(p)


_FIELD = st.integers(-4, 9).map(str) | st.sampled_from(
    ["", "x", "+3", "-0", "0x8", "1e1", "2.0", "\u0663", "99999999999"])


@_fuzz
@given(data=st.data())
def test_read_image_fuzz_mutated_headers(tmp_path, data):
    magic = data.draw(st.sampled_from([b"P5", b"P6", b"P3", b"p5"]))
    w, h = data.draw(_FIELD), data.draw(_FIELD)
    maxval = data.draw(st.just("255") | _FIELD)
    sep = data.draw(st.sampled_from([b" ", b"\n", b"\t", b" #c\n", b"\n# 1 2\n"]))
    end = data.draw(st.sampled_from([b"\n", b" ", b""]))
    header = magic + sep + sep.join(f.encode() for f in (w, h, maxval)) + end
    try:
        need = int(w) * int(h) * (3 if magic == b"P6" else 1)
    except ValueError:
        need = 8
    size = min(max(need + data.draw(st.integers(-3, 2)), 0), 400)
    body = data.draw(st.binary(min_size=size, max_size=size))
    p = tmp_path / "fuzz.pgm"
    p.write_bytes(header + body)
    _read_or_clean_error(p)


@_fuzz
@given(channels=st.sampled_from([1, 3]), h=st.integers(1, 5), w=st.integers(1, 5),
       cut=st.integers(0, 80), flip=st.integers(0, 79), byte=st.integers(0, 255))
def test_read_image_fuzz_truncated_and_flipped(tmp_path, channels, h, w, cut, flip, byte):
    p = tmp_path / "fuzz.pgm"
    ds.write_image(np.full((channels, h, w), 0.5), p)
    raw = bytearray(p.read_bytes())
    if flip < len(raw):
        raw[flip] = byte
    p.write_bytes(bytes(raw[:len(raw) - min(cut, len(raw))]))
    _read_or_clean_error(p)


# ---------------------------------------------------------------------------
# manifest


def make_manifest(n=6, classes=("disk", "square")):
    spec = ds.ShapeSpec(image_edge=32, size_range=(4, 8))
    anns = [
        ds.Annotation(f"{i:06d}", f"images/train/{i:06d}.pgm", i % len(classes),
                      ds.GtBox(1, 2, 4, 5, i % len(classes)), "train")
        for i in range(n)
    ]
    return ds.DatasetManifest(1, tuple(classes), 7, spec, anns)


def test_manifest_round_trip(tmp_path):
    m = make_manifest()
    p = tmp_path / "manifest.txt"
    ds.save_manifest(m, p)
    loaded = ds.load_manifest(p, check_files=False)
    assert loaded.class_names == m.class_names
    assert loaded.seed == m.seed
    assert loaded.generator == m.generator
    assert loaded.annotations == m.annotations
    # write -> load -> write is byte-stable
    p2 = tmp_path / "again.txt"
    ds.save_manifest(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_manifest_out_of_bounds_box_rejected(tmp_path):
    m = make_manifest()
    m.annotations[2] = ds.Annotation("000002", "images/train/000002.pgm", 0,
                                     ds.GtBox(30, 30, 8, 8, 0), "train")
    p = tmp_path / "manifest.txt"
    ds.save_manifest(m, p)
    with pytest.raises(ManifestError) as e:
        ds.load_manifest(p, check_files=False)
    assert "000002" in str(e.value)


def test_manifest_missing_image_rejected(tmp_path):
    m = make_manifest(2)
    p = tmp_path / "manifest.txt"
    ds.save_manifest(m, p)
    with pytest.raises(ManifestError) as e:
        ds.load_manifest(p, check_files=True)
    assert "missing image" in str(e.value)


def test_manifest_malformed_line_diagnostics(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text(
        "layerlens-manifest 1\n"
        "classes a,b\n"
        "seed 3\n"
        'generator {"image_edge":32,"size_range":[4,8],"intensity_range":[0.7,1.0],'
        '"noise":0.2,"distractors":0,"channels":1}\n'
        "annotation x images/x.pgm 0 1 2 3\n")
    with pytest.raises(ManifestError) as e:
        ds.load_manifest(p, check_files=False)
    assert "line 5" in str(e.value)


_GENERATOR = ("layerlens-manifest 1\nclasses a,b\nseed 3\n"
              'generator {"image_edge":%s,"size_range":%s,"intensity_range":[0.7,1.0],'
              '"noise":0.2,"distractors":0,"channels":%s}\n')


@pytest.mark.parametrize("text, line", [
    ("layerlens-manifest x\n", "line 1"),
    ("layerlens-manifest 1\ncount twelve\n", "line 2"),
    *((_GENERATOR % fields, "line 4") for fields in [
        ("32", "[4,8,9]", "1"), ("32.0", "[4,8]", "1"), ("32", "[4,8]", "1.0"),
        ("32", "[4,8]", "true")]),
])
def test_manifest_non_integer_fields(tmp_path, text, line):
    p = tmp_path / "manifest.txt"
    p.write_text(text)
    with pytest.raises(ManifestError, match=line):
        ds.load_manifest(p, check_files=False)


def test_manifest_unknown_record(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("layerlens-manifest 1\nbogus record\n")
    with pytest.raises(ManifestError) as e:
        ds.load_manifest(p, check_files=False)
    assert "bogus" in str(e.value)


def _load_manifest_or_clean_error(path):
    """load_manifest either returns a manifest whose images could be loaded
    or raises a LayerlensError; any other exception fails the calling test."""
    try:
        m = ds.load_manifest(path, check_files=False)
    except LayerlensError:
        return
    edge, channels = m.generator.image_edge, m.generator.channels
    assert type(edge) is int and channels in (1, 3) and type(channels) is int
    for a in m.annotations:
        assert a.split in ds.SPLIT_NAMES and 0 <= a.label < len(m.class_names)
        a.box.check_bounds((edge, edge))


@_fuzz
@given(raw=st.binary(max_size=200)
       | st.binary(max_size=200).map(lambda b: b"layerlens-manifest 1\n" + b))
def test_load_manifest_fuzz_random_bytes(tmp_path, raw):
    p = tmp_path / "manifest.txt"
    p.write_bytes(raw)
    _load_manifest_or_clean_error(p)


@_fuzz
@given(data=st.data())
def test_load_manifest_fuzz_replaced_cut_or_extended(tmp_path, data):
    p = tmp_path / "manifest.txt"
    ds.save_manifest(make_manifest(3), p)
    raw = bytearray(p.read_bytes())
    edit = data.draw(st.sampled_from(["replace", "cut", "extend"]))
    if edit == "replace":
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
            st.integers(0, 255) | st.sampled_from(b"0123456789.-e ,[]{}:\"\n"))
    elif edit == "cut":
        del raw[len(raw) - data.draw(st.integers(1, len(raw))):]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    p.write_bytes(bytes(raw))
    _load_manifest_or_clean_error(p)


# ---------------------------------------------------------------------------
# splits


def test_split_all_train():
    m = make_manifest(10)
    out = ds.split_dataset(m, (1.0, 0.0, 0.0), seed=3)
    assert all(a.split == "train" for a in out.annotations)


def test_split_deterministic():
    m = make_manifest(30)
    s1 = ds.split_dataset(m, (0.6, 0.2, 0.2), seed=4)
    s2 = ds.split_dataset(m, (0.6, 0.2, 0.2), seed=4)
    assert [a.split for a in s1.annotations] == [a.split for a in s2.annotations]


def test_split_balance_three_classes():
    spec = ds.ShapeSpec(image_edge=32, size_range=(4, 8))
    anns = [
        ds.Annotation(f"{i:06d}", "", i % 3, ds.GtBox(0, 0, 4, 4, i % 3), "train")
        for i in range(600)
    ]
    m = ds.DatasetManifest(1, ("a", "b", "c"), 0, spec, anns)
    out = ds.split_dataset(m, (0.7, 0.15, 0.15), seed=11)
    for split in ds.SPLIT_NAMES:
        sub = out.by_split(split)
        for label in range(3):
            share = sum(1 for a in sub if a.label == label) / len(sub)
            assert abs(share - 1 / 3) <= 0.05
    # disjoint and covering
    assert sum(len(out.by_split(s)) for s in ds.SPLIT_NAMES) == 600


def test_split_empty_manifest_rejected():
    spec = ds.ShapeSpec()
    m = ds.DatasetManifest(1, ("a",), 0, spec, [])
    with pytest.raises(ManifestError):
        ds.split_dataset(m, (1.0, 0.0, 0.0), 0)


def test_split_bad_fractions():
    m = make_manifest(4)
    with pytest.raises(ManifestError):
        ds.split_dataset(m, (0.5, 0.2, 0.2), 0)


# ---------------------------------------------------------------------------
# split arrays


def test_load_split_arrays(tmp_path):
    spec = ds.ShapeSpec(image_edge=16, size_range=(6, 8))
    m = ds.generate_shapes_dataset(spec, 10, 2, seed=2, out_dir=tmp_path,
                                   split_fractions=(0.6, 0.2, 0.2))
    x, y, anns = ds.load_split_arrays(m, tmp_path, "train")
    assert x.shape[0] == y.shape[0] == len(anns) == len(m.by_split("train"))
    assert x.shape[1:] == (1, 16, 16)
    assert x.min() >= 0 and x.max() <= 1
