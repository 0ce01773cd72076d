"""Declarative network description with tap points and weight serialization.

A network is an ordered list of layer descriptors validated into a
``NetworkSpec`` (shape chain checked at construction). Tap points are the
post-relu outputs of the conv layers, indexed 1..L; tap 0 denotes the input
image. ``NetworkSpec.after_tap`` is the one tap rule: tap t is the input of
layer ``after_tap(t)``, so a forward with caches holds it at that index, a
backward records its gradient there, and a cascade stage over taps a..b
spans layers ``after_tap(a - 1) .. after_tap(b) - 1``. ``ModelParams``
carries the learned arrays, per-layer frozen flags and a provenance record
(training scheme, split sizes, seed).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import (
    BadMagic,
    ChecksumMismatch,
    ShapeError,
    SpecError,
    SpecMismatch,
    TruncatedFile,
    VersionMismatch,
    WeightsError,
)
from .fileio import atomic_open
from .seeding import make_rng


# ---------------------------------------------------------------------------
# layer descriptors


@dataclass(frozen=True)
class Conv:
    """Stride-1 conv, odd square kernel, zero-padded by kernel // 2: keeps (h, w)."""

    out_channels: int
    kernel: int = 3


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Pool:
    """Max-pool over non-overlapping window x window blocks."""

    window: int = 2


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    units: int


Layer = Conv | Relu | Pool | Flatten | Dense

_KIND = {Conv: "conv", Relu: "relu", Pool: "pool", Flatten: "flatten", Dense: "dense"}


class NetworkSpec:
    """Validated layer graph: shapes chain, taps enumerated, hashable text form."""

    def __init__(self, layers, input_shape, class_count: int):
        self.layers: tuple[Layer, ...] = tuple(layers)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.class_count = int(class_count)
        if len(self.input_shape) != 3:
            raise SpecError(f"input_shape must be (c, h, w), got {input_shape}")
        if self.class_count < 1:
            raise SpecError("class_count must be >= 1")
        self.layer_shapes: list[tuple] = []  # output shape per layer: (c,h,w) or (d,)
        self.tap_layers: list[int] = []      # layer index whose output is tap t (1-based t)
        self._validate()

    def _validate(self) -> None:
        shape = self.input_shape
        flat = False
        last_conv_at = -1
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv):
                if flat:
                    raise SpecError(f"layer {i}: conv after flatten")
                if layer.kernel < 1 or layer.kernel % 2 == 0:
                    raise SpecError(f"layer {i}: conv kernel {layer.kernel} must be odd and >= 1")
                shape = (layer.out_channels, *shape[1:])
                self.tap_layers.append(i)  # provisional: capture at conv output
                last_conv_at = i
            elif isinstance(layer, Relu):
                if i == last_conv_at + 1 and self.tap_layers:
                    self.tap_layers[-1] = i  # capture post-relu instead
            elif isinstance(layer, Pool):
                if flat:
                    raise SpecError(f"layer {i}: pool after flatten")
                c, h, w = shape
                if layer.window > h or layer.window > w:
                    raise SpecError(
                        f"layer {i}: spatial collapse, pool window {layer.window} "
                        f"exceeds {shape}"
                    )
                shape = (c, h // layer.window, w // layer.window)
            elif isinstance(layer, Flatten):
                if flat:
                    raise SpecError(f"layer {i}: flatten twice")
                shape = (int(np.prod(shape)),)
                flat = True
            elif isinstance(layer, Dense):
                if not flat:
                    raise SpecError(f"layer {i}: dense before flatten")
                shape = (layer.units,)
            else:
                raise SpecError(f"layer {i}: unknown descriptor {layer!r}")
            self.layer_shapes.append(shape)
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise SpecError("network must end in a dense classifier layer")
        if self.layer_shapes[-1] != (self.class_count,):
            raise SpecError(
                f"final dense units {self.layer_shapes[-1]} != class_count {self.class_count}"
            )

    @property
    def tap_count(self) -> int:
        return len(self.tap_layers)

    def after_tap(self, tap: int) -> int:
        """Index of the layer whose input is tap ``tap``: 0 for tap 0 (the
        image). The one tap range check: outside 0..tap_count it raises."""
        if not 0 <= tap <= self.tap_count:
            raise SpecError(f"tap {tap} out of range 0..{self.tap_count}")
        return 0 if tap == 0 else self.tap_layers[tap - 1] + 1

    def tap_shape(self, tap: int) -> tuple:
        """Activation shape (c, h, w) at a tap; tap 0 is the input image."""
        return self.shape_before(self.after_tap(tap))

    def shape_before(self, layer_idx: int) -> tuple:
        return self.input_shape if layer_idx == 0 else self.layer_shapes[layer_idx - 1]

    def canonical_text(self) -> str:
        lines = ["layerlens-netspec 1"]
        lines.append("input " + " ".join(str(v) for v in self.input_shape))
        lines.append(f"classes {self.class_count}")
        for layer in self.layers:
            kind = _KIND[type(layer)]
            # stride and pad are implied, and written so spec hashes keep their bytes
            if isinstance(layer, Conv):
                lines.append(
                    f"layer conv out={layer.out_channels} kernel={layer.kernel} "
                    f"stride=1 pad={layer.kernel // 2}"
                )
            elif isinstance(layer, Pool):
                lines.append(f"layer pool window={layer.window} stride={layer.window}")
            elif isinstance(layer, Dense):
                lines.append(f"layer dense units={layer.units}")
            else:
                lines.append(f"layer {kind}")
        return "\n".join(lines) + "\n"

    def spec_hash(self) -> bytes:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).digest()

    def param_shapes(self, layer_idx: int) -> tuple[tuple, ...]:
        layer = self.layers[layer_idx]
        if isinstance(layer, Conv):
            c = self.shape_before(layer_idx)[0]
            return ((layer.out_channels, c, layer.kernel, layer.kernel), (layer.out_channels,))
        if isinstance(layer, Dense):
            d = self.shape_before(layer_idx)[0]
            return ((layer.units, d), (layer.units,))
        return ()


def build_six_layer_net(input_shape, class_count: int, channel_widths, kernel: int = 3) -> NetworkSpec:
    """Six conv(+relu) blocks, 2x2 max-pooling after blocks 2, 4 and 6, then
    flatten + dense classifier. One tap per conv layer."""
    widths = tuple(int(w) for w in channel_widths)
    if len(widths) != 6:
        raise SpecError(f"expected 6 channel widths, got {len(widths)}")
    layers: list[Layer] = []
    for i, w in enumerate(widths):
        layers.append(Conv(w, kernel))
        layers.append(Relu())
        if i % 2 == 1:
            layers.append(Pool(2))
    layers.append(Flatten())
    layers.append(Dense(class_count))
    return NetworkSpec(layers, input_shape, class_count)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class Provenance:
    scheme: str            # "INIT" | "E2E" | "CL"
    splits: tuple[int, ...]  # part sizes of the cascade plan; empty otherwise
    seed: int


@dataclass
class ModelParams:
    blocks: list  # per layer: tuple of ndarrays, or None for parameterless layers
    frozen: list[bool]
    provenance: Provenance


def init_params(spec: NetworkSpec, seed: int) -> ModelParams:
    """Fan-in-scaled uniform init (limit sqrt(6/fan_in)), zero biases, seeded."""
    rng = make_rng(seed)
    blocks = []
    for i, layer in enumerate(spec.layers):
        shapes = spec.param_shapes(i)
        if not shapes:
            blocks.append(None)
            continue
        w_shape, b_shape = shapes
        fan_in = int(np.prod(w_shape[1:]))
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=w_shape)
        blocks.append((w, np.zeros(b_shape)))
    return ModelParams(blocks, [False] * len(spec.layers), Provenance("INIT", (), seed))


# ---------------------------------------------------------------------------
# forward / backward engine


def _layer_forward(layer: Layer, block, x):
    if isinstance(layer, Conv):
        return nm.conv2d(x, block[0], block[1])
    if isinstance(layer, Relu):
        return nm.relu(x)
    if isinstance(layer, Pool):
        return nm.maxpool2d(x, layer.window)
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1)
    if isinstance(layer, Dense):
        return nm.dense(x, block[0], block[1])
    raise SpecError(f"unknown layer {layer!r}")


def _layer_backward(layer: Layer, block, x_in, d_out, want_input: bool = True,
                    want_params: bool = True):
    """Returns (d_input, param_grads_or_None).

    A conv layer skips the input gradient when ``want_input`` is false
    (d_input is then None) and its kernel gradients when ``want_params`` is
    false; other layers compute everything, which is cheap for them.
    """
    if isinstance(layer, Conv):
        d_x, d_k, d_b = nm.conv2d_backward(x_in, block[0], d_out,
                                           want_input=want_input, want_params=want_params)
        return d_x, ((d_k, d_b) if want_params else None)
    if isinstance(layer, Relu):
        return nm.relu_backward(x_in, d_out), None
    if isinstance(layer, Pool):
        return nm.maxpool2d_backward(x_in, d_out, layer.window), None
    if isinstance(layer, Flatten):
        return d_out.reshape(x_in.shape), None
    if isinstance(layer, Dense):
        d_x, d_w, d_b = nm.dense_backward(x_in, block[0], d_out)
        return d_x, (d_w, d_b)
    raise SpecError(f"unknown layer {layer!r}")


def run_span(spec: NetworkSpec, params: ModelParams, x, lo: int, hi: int, want_caches: bool = False):
    """Run layers lo..hi inclusive on x; optionally keep per-layer inputs."""
    caches = [] if want_caches else None
    for i in range(lo, hi + 1):
        if want_caches:
            caches.append(x)
        x = _layer_forward(spec.layers[i], params.blocks[i], x)
    return (x, caches) if want_caches else x


def _check_batch(spec: NetworkSpec, batch, tap: int = 0) -> np.ndarray:
    x = nm.check_tensor4(batch, "batch")
    if x.shape[1:] != spec.tap_shape(tap):
        where = "network input" if tap == 0 else f"tap {tap}"
        raise ShapeError(f"batch shape {x.shape} does not match {where} {spec.tap_shape(tap)}")
    return x


def forward_with_taps(spec: NetworkSpec, params: ModelParams, batch, depth: int | None = None,
                      start: int = 0):
    """Forward pass capturing tap activations.

    ``batch`` holds tap ``start``'s activations: the images for the default
    0. With ``depth=None`` every later tap is captured and the class scores
    are returned first. With ``depth=d`` execution stops right after tap
    ``d``, even when it is the last tap: taps start+1..d are captured and
    the first element is None.

    A row's class scores do not depend on the rest of its batch: the layers
    after the last tap run one row at a time. Conv rows equal their batch-1
    values wherever BLAS multiplies one image's patches and a batch's with
    the same kernel, as it does for every layer of the preset net.
    """
    x = _check_batch(spec, batch, start)
    full = depth is None
    if full:
        depth = spec.tap_count
    top = spec.after_tap(depth)
    # one span per tap: only the taps stay alive, not every layer's input
    taps, lo = {}, spec.after_tap(start)
    for t in range(start + 1, depth + 1):
        hi = spec.after_tap(t)
        x = taps[t] = run_span(spec, params, x, lo, hi - 1)
        lo = hi
    if not full:
        return None, taps
    # an n-row matmul rounds differently from a one-row one; the pool and
    # flatten before it give the same bits per row as per batch
    last = len(spec.layers) - 1
    scores = np.concatenate([run_span(spec, params, x[r:r + 1], top, last)
                             for r in range(len(x))])
    return scores, taps


def backward_to_tap(spec: NetworkSpec, params: ModelParams, batch, class_index: int, taps):
    """Activations at, and gradients of the selected class score w.r.t., each
    tap in ``taps``: ``(acts, grads)``, two dicts keyed by tap.

    One forward pass, then one backward pass that records each requested tap
    on its way down and stops at the lowest; tap 0 is the input batch and its
    gradient the input gradient. The score is summed over the batch; since
    samples are independent the rows are per-sample gradients.
    """
    x = _check_batch(spec, batch)
    tap_below = {spec.after_tap(t): t for t in taps}
    if not 0 <= class_index < spec.class_count:
        raise SpecError(f"class index {class_index} out of range 0..{spec.class_count}")
    last = len(spec.layers) - 1
    scores, caches = run_span(spec, params, x, 0, last, want_caches=True)
    g = np.zeros_like(scores)
    g[:, class_index] = 1.0
    acts, grads = {}, {}
    for i in range(last, min(tap_below, default=last + 1) - 1, -1):
        g, _ = _layer_backward(spec.layers[i], params.blocks[i], caches[i], g,
                               want_params=False)
        if i in tap_below:  # g is now the gradient w.r.t. this layer's input
            acts[tap_below[i]], grads[tap_below[i]] = caches[i], g
    return acts, grads


# ---------------------------------------------------------------------------
# auxiliary classifier heads (global average pool -> dense)


@dataclass
class AuxHead:
    """Probe classifier attached at a tap: global average pool then dense."""

    tap: int
    weights: np.ndarray  # (class_count, channels)
    bias: np.ndarray     # (class_count,)


def init_aux_head(spec: NetworkSpec, tap: int, seed: int) -> AuxHead:
    channels = spec.tap_shape(tap)[0]
    rng = make_rng(seed)
    limit = np.sqrt(6.0 / channels)
    w = rng.uniform(-limit, limit, size=(spec.class_count, channels))
    return AuxHead(tap, w, np.zeros(spec.class_count))


def aux_head_forward(head: AuxHead, acts) -> np.ndarray:
    pooled = nm.check_tensor4(acts, "aux head input").mean(axis=(2, 3))
    return nm.dense(pooled, head.weights, head.bias)


def aux_head_backward(head: AuxHead, acts, d_scores):
    """Returns (d_acts, d_weights, d_bias)."""
    acts = nm.check_tensor4(acts, "aux head input")
    pooled = acts.mean(axis=(2, 3))
    d_pooled, d_w, d_b = nm.dense_backward(pooled, head.weights, d_scores)
    n, c, h, w = acts.shape
    d_acts = np.broadcast_to(d_pooled[:, :, None, None] / (h * w), acts.shape).copy()
    return d_acts, d_w, d_b


# ---------------------------------------------------------------------------
# sealed binary files (weights *.llw here, detection heads *.llh in detect):
# magic, little-endian payload, trailing SHA-256 of everything before it


def pack_array(a: np.ndarray) -> bytes:
    """One float64 array: rank (u8), shape (u32 each), little-endian data."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape) + a.tobytes()


def write_sealed(path, magic: bytes, parts: list[bytes]) -> None:
    payload = b"".join([magic, *parts])
    with atomic_open(path, "wb") as fh:
        fh.write(payload + hashlib.sha256(payload).digest())


class SealedReader:
    """Checks a sealed file's magic, optional u32 version and checksum, then
    reads its payload front to back; ``kind`` names the file in errors."""

    def __init__(self, path, magic: bytes, kind: str, version: int | None = None):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.kind = kind
        self.pos = len(magic)
        if len(raw) < self.pos + (0 if version is None else 4) + 32:
            raise TruncatedFile(f"{kind} file too short ({len(raw)} bytes)")
        if raw[:self.pos] != magic:
            raise BadMagic(f"not a {kind} file: magic {raw[:self.pos]!r} != {magic!r}")
        self.buf = raw[:-32]
        if version is not None:
            (found,) = self.unpack("<I")
            if found != version:
                raise VersionMismatch(f"{kind} file version {found}, expected {version}")
        if hashlib.sha256(self.buf).digest() != raw[-32:]:
            raise ChecksumMismatch(f"{kind} file checksum does not match contents")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFile(
                f"{self.kind} file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self) -> np.ndarray:
        (ndim,) = self.unpack("<B")
        if ndim > 4:  # kernels are the highest-rank arrays either format holds
            raise WeightsError(f"{self.kind} file holds an array of rank {ndim}, at most 4")
        shape = self.unpack(f"<{ndim}I")
        count = math.prod(shape)  # a Python int: a forged shape cannot overflow it
        a = np.frombuffer(self.take(8 * count), dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(a).all():
            raise WeightsError(f"{self.kind} file holds a non-finite value")
        return a

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise WeightsError(
                f"{self.kind} file has {len(self.buf) - self.pos} bytes after its last array")


_MAGIC = b"LLW1"
_VERSION = 1


def save_weights(spec: NetworkSpec, params: ModelParams, path) -> None:
    """Binary weight file: fixed header, little-endian float64 blocks, trailing
    SHA-256 checksum. A human-readable spec document is written alongside."""
    prov = params.provenance
    scheme = prov.scheme.encode("utf-8")
    parts: list[bytes] = [struct.pack("<I", _VERSION)]
    parts.append(struct.pack("<Q", prov.seed % 2**64))
    parts.append(struct.pack("<B", len(scheme)))
    parts.append(scheme)
    parts.append(struct.pack("<B", len(prov.splits)))
    parts.append(struct.pack(f"<{len(prov.splits)}H", *prov.splits))
    parts.append(spec.spec_hash())
    parts.append(struct.pack("<H", len(params.frozen)))
    parts.append(bytes(1 if f else 0 for f in params.frozen))
    parts.append(struct.pack("<H", len(params.blocks)))
    for block in params.blocks:
        arrays = block or ()
        parts.append(struct.pack("<B", len(arrays)))
        parts.extend(pack_array(a) for a in arrays)
    write_sealed(path, _MAGIC, parts)
    with atomic_open(str(path) + ".spec", "w", encoding="utf-8") as fh:
        fh.write(spec.canonical_text())
        fh.write(f"scheme {prov.scheme}\n")
        if prov.splits:
            fh.write("splits " + " ".join(str(s) for s in prov.splits) + "\n")
        fh.write(f"seed {prov.seed}\n")


def load_weights(path, spec: NetworkSpec) -> ModelParams:
    """Load and validate a weight file against ``spec``.

    Failure modes are reported distinctly: bad magic, version mismatch,
    truncation, checksum failure, bytes after the last array, and spec
    mismatch (naming the first layer whose stored shapes disagree).
    """
    r = SealedReader(path, _MAGIC, "weight", version=_VERSION)
    (seed,) = r.unpack("<Q")
    (scheme_len,) = r.unpack("<B")
    try:
        scheme = r.take(scheme_len).decode("utf-8")
    except UnicodeDecodeError as e:
        raise WeightsError(f"weight file scheme name is not UTF-8: {e}") from None
    (n_splits,) = r.unpack("<B")
    splits = r.unpack(f"<{n_splits}H") if n_splits else ()
    stored_hash = r.take(32)
    (n_frozen,) = r.unpack("<H")
    frozen = [b == 1 for b in r.take(n_frozen)]
    (n_blocks,) = r.unpack("<H")
    blocks = []
    for _ in range(n_blocks):
        (n_arrays,) = r.unpack("<B")
        blocks.append(tuple(r.array() for _ in range(n_arrays)) or None)
    r.finish()

    if stored_hash != spec.spec_hash():
        if n_blocks != len(spec.layers):
            raise SpecMismatch(
                f"weight file has {n_blocks} layers, spec has {len(spec.layers)}"
            )
        for i in range(n_blocks):
            expect = spec.param_shapes(i)
            got = tuple(a.shape for a in (blocks[i] or ()))
            if got != expect:
                kind = _KIND[type(spec.layers[i])]
                raise SpecMismatch(
                    f"layer {i} ({kind}): file shapes {got} vs spec shapes {expect}"
                )
        raise SpecMismatch("spec hash differs (layer shapes compatible)")
    return ModelParams(blocks, frozen, Provenance(scheme, tuple(splits), seed))
