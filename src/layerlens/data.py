"""Synthetic shapes-with-boxes dataset: generator, manifest format, image I/O
and deterministic stratified splits.

Each image carries exactly one labelled target shape (disk, square, triangle
or cross) on a noisy background, plus optional unlabelled distractor shapes.
The annotation box is computed from the rendered pixels, so it is tight by
construction. Images are 8-bit binary PGM (grayscale) or PPM (3-channel)
files; the manifest is a line-oriented text file (one record per line,
versioned, diffable).

Directory layout: <root>/manifest.txt and <root>/images/<split>/<id>.<ext>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import numerics as nm
from .errors import ImageFormatError, ManifestError, ShapeError
from .fileio import atomic_open
from .locmetrics import GtBox
from .seeding import derive_seed, make_rng

SHAPE_KINDS = ("disk", "square", "triangle", "cross")
SPLIT_NAMES = ("train", "val", "test")

_MANIFEST_MAGIC = "layerlens-manifest"
_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShapeSpec:
    """Generator configuration for one dataset."""

    image_edge: int = 32
    size_range: tuple[int, int] = (10, 16)
    intensity_range: tuple[float, float] = (0.7, 1.0)
    noise: float = 0.2
    distractors: int = 0
    channels: int = 1

    def __post_init__(self):
        lo, hi = self.size_range
        if not 2 <= lo <= hi:
            raise ShapeError(f"size_range must satisfy 2 <= lo <= hi, got {self.size_range}")
        if hi > self.image_edge:
            raise ShapeError(
                f"unsatisfiable geometry: max shape size {hi} exceeds image edge "
                f"{self.image_edge}")
        ilo, ihi = self.intensity_range
        if not 0 <= ilo <= ihi <= 1:
            raise ShapeError(f"intensity_range must lie in [0, 1], got {self.intensity_range}")
        if self.noise < 0 or self.noise > 1:
            raise ShapeError(f"noise must be in [0, 1], got {self.noise}")
        if self.channels not in (1, 3):
            raise ShapeError(f"channels must be 1 or 3, got {self.channels}")
        if self.distractors < 0:
            raise ShapeError(f"distractors must be >= 0, got {self.distractors}")

    def to_json(self) -> str:
        return json.dumps({
            "image_edge": self.image_edge,
            "size_range": list(self.size_range),
            "intensity_range": list(self.intensity_range),
            "noise": self.noise,
            "distractors": self.distractors,
            "channels": self.channels,
        }, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ShapeSpec":
        d = json.loads(text)
        counts = (d["image_edge"], *d["size_range"], d["distractors"], d["channels"])
        if not all(type(v) is int for v in counts):
            raise ShapeError(
                "image_edge, size_range, distractors and channels must be integers")
        return cls(
            image_edge=d["image_edge"],
            size_range=tuple(d["size_range"]),
            intensity_range=tuple(d["intensity_range"]),
            noise=d["noise"],
            distractors=d["distractors"],
            channels=d["channels"],
        )


@dataclass(frozen=True)
class Annotation:
    image_id: str
    path: str    # relative to the manifest directory
    label: int
    box: GtBox
    split: str


@dataclass
class DatasetManifest:
    version: int
    class_names: tuple[str, ...]
    seed: int
    generator: ShapeSpec
    annotations: list[Annotation] = field(default_factory=list)

    def by_split(self, split: str) -> list[Annotation]:
        return [a for a in self.annotations if a.split == split]

    def split_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in SPLIT_NAMES}
        for a in self.annotations:
            counts[a.split] = counts.get(a.split, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# shape rendering


def render_shape(kind: str, size: int) -> np.ndarray:
    """Boolean (size, size) mask of the shape, deterministic in its arguments."""
    if kind not in SHAPE_KINDS:
        raise ShapeError(f"unknown shape kind {kind!r}, expected one of {SHAPE_KINDS}")
    c = (size - 1) / 2
    yy, xx = np.mgrid[0:size, 0:size]
    if kind == "disk":
        r = size / 2
        return (yy - c) ** 2 + (xx - c) ** 2 <= r * r
    if kind == "square":
        return np.ones((size, size), dtype=bool)
    if kind == "triangle":
        # apex on the top row, full-width base at the bottom
        halfw = (yy + 1) / size * c
        return np.abs(xx - c) <= halfw + 1e-9
    # cross: centred horizontal and vertical bars
    t = max(1, size // 3)
    lo = (size - t) // 2
    mask = np.zeros((size, size), dtype=bool)
    mask[lo:lo + t, :] = True
    mask[:, lo:lo + t] = True
    return mask


def _tight_box(mask: np.ndarray, label: int) -> GtBox:
    ys, xs = np.nonzero(mask)
    return GtBox(int(xs.min()), int(ys.min()),
                 int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1), label)


def _boxes_overlap(a: GtBox, b: GtBox) -> bool:
    return not (a.x + a.w <= b.x or b.x + b.w <= a.x
                or a.y + a.h <= b.y or b.y + b.h <= a.y)


def render_image(spec: ShapeSpec, kind: str, rng: np.random.Generator):
    """One image: noisy background, the target shape, optional distractors.

    Returns (image (c, h, w) float64 in [0, 1], tight GtBox of the target).
    """
    edge = spec.image_edge
    size = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
    x0 = int(rng.integers(0, edge - size + 1))
    y0 = int(rng.integers(0, edge - size + 1))
    shape = render_shape(kind, size)
    target_mask = np.zeros((edge, edge), dtype=bool)
    target_mask[y0:y0 + size, x0:x0 + size] = shape
    box = _tight_box(target_mask, 0)

    canvas = rng.uniform(0.0, spec.noise, (edge, edge)) if spec.noise > 0 else np.zeros((edge, edge))
    intensity = float(rng.uniform(*spec.intensity_range))

    # dimmer unlabelled distractors, kept clear of the target box
    for _ in range(spec.distractors):
        for _attempt in range(20):
            d_kind = SHAPE_KINDS[int(rng.integers(len(SHAPE_KINDS)))]
            d_size = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
            dx = int(rng.integers(0, edge - d_size + 1))
            dy = int(rng.integers(0, edge - d_size + 1))
            d_box = GtBox(dx, dy, d_size, d_size)
            if not _boxes_overlap(box, d_box):
                d_mask = np.zeros((edge, edge), dtype=bool)
                d_mask[dy:dy + d_size, dx:dx + d_size] = render_shape(d_kind, d_size)
                canvas[d_mask] += 0.5 * intensity
                break

    canvas[target_mask] += intensity
    canvas = np.clip(canvas, 0.0, 1.0)
    if spec.channels == 1:
        return canvas[None, :, :], box
    color = rng.uniform(0.6, 1.0, 3)
    color[int(rng.integers(3))] = 1.0
    img = np.repeat(canvas[None, :, :], 3, axis=0)
    img[:, target_mask] = np.clip(
        color[:, None] * canvas[target_mask][None, :], 0.0, 1.0)
    return img, box


# ---------------------------------------------------------------------------
# portable image files (binary PGM / PPM, 8-bit)


def write_image(tensor, path) -> None:
    """Quantize [0, 1] values to 8 bit and write P5 (1 channel) or P6 (3)."""
    img = nm.as_f64(tensor)
    if img.ndim == 2:
        img = img[None]
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ImageFormatError(f"expected (1|3, h, w) image, got shape {np.shape(tensor)}")
    c, h, w = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    body = data[0] if c == 1 else np.moveaxis(data, 0, 2)  # interleave rgb
    with atomic_open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(body.tobytes())


def read_image(path) -> np.ndarray:
    """Read a binary PGM/PPM into a (c, h, w) float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported magic bytes {magic!r}")
    # header: magic, width, height, maxval; '#' comments and whitespace allowed
    pos, tokens = 2, []
    while len(tokens) < 3:
        if pos >= len(raw):
            raise ImageFormatError(f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace():
                pos += 1
            tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ImageFormatError(f"{path}: malformed header fields {tokens}") from None
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise ImageFormatError(f"{path}: image size {w}x{h} is not positive")
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    body = raw[pos:pos + need]
    if len(body) != need:
        raise ImageFormatError(
            f"{path}: truncated pixel data ({len(body)} of {need} bytes)")
    flat = np.frombuffer(body, dtype=np.uint8)
    if channels == 1:
        img = flat.reshape(1, h, w)
    else:
        img = np.moveaxis(flat.reshape(h, w, 3), 2, 0)
    return img.astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# splits


def _split_sizes(fractions, n: int) -> list[int]:
    """One class's image count per split: ``fractions`` of ``n``, rounded
    down, then the largest remainders rounded up until they sum to ``n``."""
    counts = [int(np.floor(f * n)) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    while sum(counts) < n:
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1
    return counts


def split_dataset(manifest: DatasetManifest, fractions, seed: int) -> DatasetManifest:
    """Assign train/val/test splits, stratified per class.

    Within each class the images are shuffled (seeded) and cut contiguously
    by the fractions (largest-remainder rounding), which keeps each split's
    class balance within rounding of the global balance.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != len(SPLIT_NAMES):
        raise ManifestError(f"expected {len(SPLIT_NAMES)} fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ManifestError(f"fractions must be >= 0 and sum to 1, got {fractions}")
    if not manifest.annotations:
        raise ManifestError("cannot split an empty manifest")
    rng = make_rng(seed)
    assignment: dict[str, str] = {}
    labels = sorted({a.label for a in manifest.annotations})
    for label in labels:
        idx = [a.image_id for a in manifest.annotations if a.label == label]
        order = rng.permutation(len(idx))
        start = 0
        for split, count in zip(SPLIT_NAMES, _split_sizes(fractions, len(idx))):
            for j in order[start:start + count]:
                assignment[idx[j]] = split
            start += count
    new_annotations = [replace(a, split=assignment[a.image_id]) for a in manifest.annotations]
    out = DatasetManifest(manifest.version, manifest.class_names, manifest.seed,
                          manifest.generator, new_annotations)
    return out


# ---------------------------------------------------------------------------
# generation


def _label(i: int, class_count: int) -> int:
    """The class of generated image ``i``: the classes take turns."""
    return i % class_count


def planned_split_counts(n_images: int, class_count: int, fractions) -> dict[str, int]:
    """Images per split of the dataset that ``generate_shapes_dataset`` makes
    with these arguments, before it writes anything: each class is cut by
    ``split_dataset``'s largest-remainder rule."""
    class_sizes = np.bincount([_label(i, class_count) for i in range(n_images)],
                              minlength=class_count)
    per_class = [_split_sizes(fractions, int(size)) for size in class_sizes]
    return {split: sum(sizes[j] for sizes in per_class) for j, split in enumerate(SPLIT_NAMES)}


def generate_shapes_dataset(
    spec: ShapeSpec,
    n_images: int,
    class_count: int,
    seed: int,
    out_dir,
    split_fractions=(0.7, 0.15, 0.15),
) -> DatasetManifest:
    """Write images and a manifest under ``out_dir``; fully determined by
    (spec, n_images, class_count, seed) via per-image derived sub-seeds."""
    if not 1 <= class_count <= len(SHAPE_KINDS):
        raise ShapeError(
            f"class_count must be in 1..{len(SHAPE_KINDS)} "
            f"(available shapes: {SHAPE_KINDS}), got {class_count}")
    class_names = SHAPE_KINDS[:class_count]
    out_dir = Path(out_dir)
    annotations = []
    images = {}
    for i in range(n_images):
        rng = make_rng(derive_seed(seed, f"image:{i}"))
        label = _label(i, class_count)
        img, box = render_image(spec, class_names[label], rng)
        image_id = f"{i:06d}"
        annotations.append(Annotation(image_id, "", label,
                                      replace(box, label=label), "train"))
        images[image_id] = img

    manifest = DatasetManifest(_MANIFEST_VERSION, class_names, seed, spec, annotations)
    if n_images:
        manifest = split_dataset(manifest, split_fractions, derive_seed(seed, "splits"))
    ext = "pgm" if spec.channels == 1 else "ppm"
    final = []
    for a in manifest.annotations:
        rel = f"images/{a.split}/{a.image_id}.{ext}"
        final.append(replace(a, path=rel))
        target = out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        write_image(images[a.image_id], target)
    manifest.annotations = final
    out_dir.mkdir(parents=True, exist_ok=True)
    save_manifest(manifest, out_dir / "manifest.txt")
    return manifest


# ---------------------------------------------------------------------------
# manifest text format


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{_MANIFEST_MAGIC} {manifest.version}"]
    lines.append("classes " + ",".join(manifest.class_names))
    lines.append(f"seed {manifest.seed}")
    lines.append("generator " + manifest.generator.to_json())
    lines.append(f"count {len(manifest.annotations)}")
    for a in manifest.annotations:
        if " " in a.path:
            raise ManifestError(f"image path may not contain spaces: {a.path!r}")
        lines.append(
            f"annotation {a.image_id} {a.path} {a.label} "
            f"{a.box.x} {a.box.y} {a.box.w} {a.box.h} {a.split}")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fail(line_no: int, message: str):
    raise ManifestError(f"line {line_no}: {message}")


def load_manifest(path, check_files: bool = True) -> DatasetManifest:
    """Parse and validate a manifest; diagnostics carry line numbers.

    Validation: boxes inside the image, labels within the class list, split
    names known, declared count matches, and (when ``check_files``) every
    referenced image resolvable relative to the manifest's directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8 text ({e})") from None
    lines = text.splitlines()
    if not lines:
        raise ManifestError(f"{path}: empty manifest file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != _MANIFEST_MAGIC:
        _fail(1, f"expected '{_MANIFEST_MAGIC} <version>', got {lines[0]!r}")
    if head[1] != str(_MANIFEST_VERSION):
        _fail(1, f"unsupported manifest version {head[1]!r}")

    class_names: tuple[str, ...] | None = None
    seed = None
    generator = None
    declared = None
    annotations: list[Annotation] = []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "classes":
            class_names = tuple(rest.split(","))
        elif key == "seed":
            try:
                seed = int(rest)
            except ValueError:
                _fail(no, f"field 'seed': expected integer, got {rest!r}")
        elif key == "generator":
            try:
                generator = ShapeSpec.from_json(rest)
            except (KeyError, TypeError, ValueError) as e:  # ValueError: bad JSON, ShapeError
                _fail(no, f"field 'generator': {e}")
        elif key == "count":
            try:
                declared = int(rest)
            except ValueError:
                _fail(no, f"field 'count': expected integer, got {rest!r}")
        elif key == "annotation":
            fields = rest.split(" ")
            if len(fields) != 8:
                _fail(no, f"annotation: expected 8 fields, got {len(fields)}")
            image_id, rel_path, label_s, x, y, w, h, split = fields
            try:
                label, bx, by, bw, bh = (int(v) for v in (label_s, x, y, w, h))
            except ValueError:
                _fail(no, f"annotation {image_id}: non-integer numeric field")
            if split not in SPLIT_NAMES:
                _fail(no, f"annotation {image_id}: unknown split {split!r}")
            try:
                box = GtBox(bx, by, bw, bh, label)
            except ShapeError as e:
                _fail(no, f"annotation {image_id}: {e}")
            annotations.append(Annotation(image_id, rel_path, label, box, split))
        else:
            _fail(no, f"unknown record type {key!r}")

    if class_names is None or seed is None or generator is None:
        raise ManifestError(f"{path}: missing classes/seed/generator header")
    if declared is not None and declared != len(annotations):
        raise ManifestError(
            f"{path}: declared count {declared} != {len(annotations)} annotations")

    edge = generator.image_edge
    for a in annotations:
        try:
            a.box.check_bounds((edge, edge))
        except ShapeError:
            raise ManifestError(
                f"annotation {a.image_id}: box {a.box} out of bounds for edge {edge}")
        if not 0 <= a.label < len(class_names):
            raise ManifestError(
                f"annotation {a.image_id}: label {a.label} outside class list")
        if check_files and not (path.parent / a.path).is_file():
            raise ManifestError(
                f"annotation {a.image_id}: missing image file {a.path}")
    return DatasetManifest(_MANIFEST_VERSION, class_names, seed, generator, annotations)


def load_split_arrays(manifest: DatasetManifest, root, split: str):
    """Images and labels of one split as arrays, ordered by image id.

    Returns (x (n, c, h, w), y (n,), annotations in the same order).
    """
    anns = sorted(manifest.by_split(split), key=lambda a: a.image_id)
    edge, c = manifest.generator.image_edge, manifest.generator.channels
    x = np.zeros((len(anns), c, edge, edge))
    y = np.zeros(len(anns), dtype=np.int64)
    for i, a in enumerate(anns):
        path = Path(root) / a.path
        img = read_image(path)
        if img.shape != x.shape[1:]:
            raise ImageFormatError(f"{path}: image shape {img.shape}, expected {x.shape[1:]}")
        x[i] = img
        y[i] = a.label
    return x, y, anns
