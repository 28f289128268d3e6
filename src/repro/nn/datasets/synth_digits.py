"""Procedural handwritten-digit generator (MNIST stand-in).

Each digit class is a hand-designed stroke glyph (a set of polyline
segments in a unit box).  A sample is produced by

1. rendering the glyph's *distance field* (precomputed once per class),
2. inking it with a per-sample stroke thickness and edge softness,
3. warping with a random affine map (rotation, anisotropic scale, shear,
   translation) by bilinear interpolation,
4. adding slight blur and pixel noise.

:func:`generate_digit_images` runs those steps with numpy on batches of
images, drawing each image's random numbers in turn; :func:`render_digit`
is the one-image batch, so both give the same bytes.  The warp and blur
repeat the arithmetic of ``scipy.ndimage.affine_transform`` (order 1,
zero fill) and ``scipy.ndimage.gaussian_filter`` (reflected edges)
operation for operation, so the images are the bytes those filters
produced, without importing scipy.

The glyphs occupy the central region of the canvas with an empty border,
mirroring MNIST's centred digits — the property the paper's Sec. VI-C
uses to argue that input-layer synapses are comparatively resilient
(boundary pixels carry no information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.rng import SeedLike, ensure_rng

Segment = Tuple[Tuple[float, float], Tuple[float, float]]


def _arc(cx: float, cy: float, rx: float, ry: float,
         deg0: float, deg1: float, n: int = 10) -> List[Segment]:
    """Polyline approximation of an elliptic arc (angles in degrees,
    measured clockwise from the +x axis in image coordinates)."""
    angles = np.radians(np.linspace(deg0, deg1, n + 1))
    xs = cx + rx * np.cos(angles)
    ys = cy + ry * np.sin(angles)
    return [((xs[i], ys[i]), (xs[i + 1], ys[i + 1])) for i in range(n)]


def _line(x0: float, y0: float, x1: float, y1: float) -> List[Segment]:
    return [((x0, y0), (x1, y1))]


def _build_glyphs() -> Dict[int, List[Segment]]:
    """Stroke skeletons for digits 0-9 in a unit box (x right, y down).

    Drawn to evoke ordinary handwriting; exact coordinates are not
    precious — classification robustness comes from the augmentation.
    """
    g: Dict[int, List[Segment]] = {}
    g[0] = _arc(0.5, 0.5, 0.30, 0.42, 0, 360, 20)
    g[1] = (_line(0.35, 0.28, 0.55, 0.10) + _line(0.55, 0.10, 0.55, 0.90)
            + _line(0.38, 0.90, 0.72, 0.90))
    g[2] = (_arc(0.5, 0.30, 0.28, 0.22, 180, 340, 10)
            + _line(0.76, 0.38, 0.25, 0.90) + _line(0.25, 0.90, 0.78, 0.90))
    g[3] = (_arc(0.48, 0.30, 0.26, 0.21, 150, 395, 10)
            + _arc(0.48, 0.70, 0.28, 0.23, 325, 570, 10))
    g[4] = (_line(0.62, 0.10, 0.20, 0.62) + _line(0.20, 0.62, 0.82, 0.62)
            + _line(0.62, 0.10, 0.62, 0.90))
    g[5] = (_line(0.75, 0.10, 0.30, 0.10) + _line(0.30, 0.10, 0.27, 0.45)
            + _arc(0.50, 0.65, 0.27, 0.25, 245, 480, 12))
    g[6] = (_arc(0.52, 0.62, 0.26, 0.27, 0, 360, 14)
            + _arc(0.62, 0.30, 0.42, 0.55, 195, 245, 8))
    g[7] = (_line(0.22, 0.12, 0.78, 0.12) + _line(0.78, 0.12, 0.42, 0.90)
            + _line(0.34, 0.52, 0.68, 0.52))
    g[8] = (_arc(0.5, 0.30, 0.22, 0.20, 0, 360, 14)
            + _arc(0.5, 0.70, 0.27, 0.22, 0, 360, 14))
    g[9] = (_arc(0.48, 0.35, 0.24, 0.24, 0, 360, 14)
            + _arc(0.40, 0.60, 0.42, 0.52, 290, 345, 8))
    return g


GLYPHS = _build_glyphs()


#: Config fields that bound a random draw or a filter width, so must be
#: non-negative.
_SPREADS = ("stroke_width_jitter", "max_rotation_deg", "scale_jitter",
            "max_shear", "max_translate_px", "noise_sigma", "blur_sigma")


@dataclass(frozen=True)
class SyntheticDigitConfig:
    """Generation knobs (defaults give an MNIST-like difficulty)."""

    image_size: int = 28
    #: Glyph bounding box inside the canvas (MNIST digits live in the
    #: central ~20x20 of the 28x28 frame).
    glyph_margin: int = 4
    stroke_width: float = 1.3       # mean half-width in pixels
    stroke_width_jitter: float = 0.35
    edge_softness: float = 0.9      # anti-aliasing ramp in pixels
    max_rotation_deg: float = 17.0
    scale_jitter: float = 0.16
    max_shear: float = 0.24
    max_translate_px: float = 2.5
    noise_sigma: float = 0.09
    blur_sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.image_size < 8:
            raise DatasetError(f"image_size too small: {self.image_size}")
        if not 0 <= 2 * self.glyph_margin < self.image_size:
            raise DatasetError("glyph_margin leaves no room for the glyph")
        for name in ("stroke_width", "edge_softness", *_SPREADS):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DatasetError(f"{name} must be finite, got {value!r}")
        for name in _SPREADS:
            value = getattr(self, name)
            if value < 0:
                raise DatasetError(f"{name} must be non-negative, got {value!r}")
        if self.edge_softness <= 0:
            raise DatasetError(
                f"edge_softness must be positive, got {self.edge_softness!r}")
        if self.scale_jitter >= 1:
            # A scale of 1 - scale_jitter must stay positive: the warp
            # divides by it.
            raise DatasetError(
                f"scale_jitter must be below 1, got {self.scale_jitter!r}")


def glyph_distance_field(
    digit: int, config: SyntheticDigitConfig = SyntheticDigitConfig()
) -> np.ndarray:
    """Per-pixel distance (in pixels) from the digit's stroke skeleton.

    Computed once per class and reused for every sample of that class.
    """
    if digit not in GLYPHS:
        raise DatasetError(f"no glyph for digit {digit!r}")
    size = config.image_size
    span = size - 2 * config.glyph_margin
    # Pixel centres in glyph coordinates.
    px = (np.arange(size) + 0.5 - config.glyph_margin) / span
    xx, yy = np.meshgrid(px, px, indexing="xy")
    points = np.stack([xx.ravel(), yy.ravel()], axis=1)  # (P, 2)

    segs = np.asarray(GLYPHS[digit], dtype=float)  # (S, 2, 2)
    a = segs[:, 0, :]  # (S, 2)
    b = segs[:, 1, :]
    ab = b - a
    ab_len2 = np.maximum(np.sum(ab**2, axis=1), 1e-12)  # (S,)

    # Project every pixel on every segment, clamp to the segment body.
    ap = points[:, np.newaxis, :] - a[np.newaxis, :, :]         # (P, S, 2)
    t = np.clip(np.sum(ap * ab, axis=2) / ab_len2, 0.0, 1.0)    # (P, S)
    closest = a[np.newaxis, :, :] + t[..., np.newaxis] * ab     # (P, S, 2)
    dist = np.linalg.norm(points[:, np.newaxis, :] - closest, axis=2)
    field = dist.min(axis=1).reshape(size, size)
    return field * span  # back to pixel units


_FIELD_CACHE: Dict[Tuple[int, SyntheticDigitConfig], np.ndarray] = {}

#: Images rendered per batch.  Each image's random numbers are drawn in
#: the order of :func:`render_digit` (stroke width, six affine
#: uniforms, then the pixel noise), so the batch size never changes an
#: image's bytes; it only bounds the buffers (0.4 MB per array at
#: 28x28, small enough that the warp's temporaries stay in cache).
#: A change to the rendering arithmetic must bump ``RENDER_REV`` so
#: that cached test splits are regenerated.
_BATCH = 64

#: Revision of the rendered bytes, part of the key of the on-disk test
#: split (:func:`repro.core.framework.train_benchmark_ann`).
RENDER_REV = 1


def _cached_field(digit: int, config: SyntheticDigitConfig) -> np.ndarray:
    key = (digit, config)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = glyph_distance_field(digit, config)
    return _FIELD_CACHE[key]


def _uniform(u: np.ndarray, bound: float) -> np.ndarray:
    """``rng.uniform(-bound, bound)`` from a ``rng.random()`` draw ``u``:
    numpy computes ``low + (high - low) * random()``."""
    return -bound + (bound - -bound) * u


def _affine_params(u: np.ndarray, config: SyntheticDigitConfig
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-image affine maps ``(matrix (n, 2, 2), offset (n, 2))`` about
    the canvas centre from the uniforms ``u[:, 1:7]`` (rotation, x/y
    scale, shear, x/y shift): output pixel ``p`` samples the ink at
    ``matrix @ p + offset``."""
    theta = np.radians(_uniform(u[:, 1], config.max_rotation_deg))
    sx = 1.0 + _uniform(u[:, 2], config.scale_jitter)
    sy = 1.0 + _uniform(u[:, 3], config.scale_jitter)
    shear = _uniform(u[:, 4], config.max_shear)
    shift = _uniform(u[:, 5:7], config.max_translate_px)
    c, s = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(theta), np.ones_like(theta)
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    sh = np.stack([one, shear, zero, one], axis=1).reshape(-1, 2, 2)
    scale = np.stack([1.0 / sx, zero, zero, 1.0 / sy], axis=1).reshape(-1, 2, 2)
    matrix = np.matmul(np.matmul(rot, sh), scale)
    centre = (config.image_size - 1) / 2.0
    moved = np.matmul(matrix, (centre + shift)[:, :, np.newaxis])[:, :, 0]
    return matrix, centre - moved


def _warp(ink: np.ndarray, matrix: np.ndarray, offset: np.ndarray
          ) -> np.ndarray:
    """Bilinear affine warp of each image with zero fill outside.

    The arithmetic of ``scipy.ndimage.affine_transform(..., order=1,
    mode="constant", cval=0.0)``, operation for operation, so the bytes
    agree: a coordinate is ``(offset + i*M[k, 0]) + j*M[k, 1]``; one
    outside ``[0, size - 1]`` on either axis gives 0; the weights are
    ``w0 = 1 - (c - floor(c))`` and ``w1 = 1 - w0``; the corners
    accumulate as ``t += (v * w_row) * w_col`` in the order (0, 0),
    (0, 1), (1, 0), (1, 1).  The upper neighbour of the last row or
    column carries weight 0, so it is read from a zero pad (scipy reads
    the clamped edge pixel; ``0 * v`` is 0 either way).
    """
    n, size, _ = ink.shape
    last = size - 1
    stride = size + 1
    padded = np.zeros((n, stride, stride))
    padded[:, :size, :size] = ink
    grid = np.arange(size, dtype=np.float64)
    inside = np.ones((n, size, size), dtype=bool)
    index = (np.arange(n) * stride * stride)[:, None, None]
    weights = []
    for k, step in ((0, stride), (1, 1)):
        coord = ((offset[:, k, None, None] + grid[:, None] * matrix[:, k, 0, None, None])
                 + grid[None, :] * matrix[:, k, 1, None, None])
        inside &= coord >= 0.0
        inside &= coord <= last
        floor = np.floor(coord)
        w0 = np.subtract(1.0, np.subtract(coord, floor, out=coord), out=coord)
        weights.append((w0, 1.0 - w0))
        # Outside pixels are zeroed below; any in-range index will do.
        index = index + np.clip(floor.astype(np.intp), 0, last) * step
    flat = padded.ravel()
    out = np.zeros((n, size, size))
    for a in range(2):
        for b in range(2):
            corner = flat.take(index + (a * stride + b))
            corner *= weights[0][a]
            corner *= weights[1][b]
            out += corner
    out *= inside
    return out


def _gaussian_weights(sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter1d``'s correlation weights (order
    0, truncated at 4 sigma), computed the same way."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return (phi / phi.sum())[::-1]


def _blur(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of each image, edges reflected (``d c b a | a b c
    d | d c b a``), with ``scipy.ndimage.gaussian_filter``'s symmetric
    correlation: axis 1, then axis 2, each output sample starting at
    ``x * w[r]`` and adding ``(x[-d] + x[+d]) * w[r - d]`` from the
    outermost pair ``d = r`` inward."""
    weights = _gaussian_weights(sigma)
    r = len(weights) // 2
    size = images.shape[1]
    for axis in (1, 2):
        pad = [(0, 0)] * 3
        pad[axis] = (r, r)
        padded = np.pad(images, pad, mode="symmetric")

        def shifted(d: int) -> np.ndarray:
            """``x[+d]`` along ``axis`` for every output sample."""
            index = [slice(None)] * 3
            index[axis] = slice(r + d, r + d + size)
            return padded[tuple(index)]

        images = shifted(0) * weights[r]
        for d in range(r, 0, -1):
            images += (shifted(-d) + shifted(d)) * weights[r - d]
    return images


def _render(labels: np.ndarray, rng: np.random.Generator,
            config: SyntheticDigitConfig) -> np.ndarray:
    """Render one batch: (n, size, size) images of ``labels``.

    Per image, in order, draws the stroke width and the six affine
    uniforms (as seven ``random()`` values) and then, if
    ``noise_sigma > 0``, the pixel noise; the inking, warp, blur, noise
    and clip then run on the whole batch.
    """
    n, size = len(labels), config.image_size
    u = np.empty((n, 7))
    noise = np.empty((n, size, size)) if config.noise_sigma > 0 else None
    for i in range(n):
        rng.random(out=u[i])
        if noise is not None:
            rng.standard_normal(out=noise[i])
    fields = np.stack([_cached_field(d, config) for d in range(10)])
    width = config.stroke_width + _uniform(u[:, 0], config.stroke_width_jitter)
    ink = np.clip(((width + config.edge_softness)[:, None, None] - fields[labels])
                  / config.edge_softness, 0.0, 1.0)
    images = _warp(ink, *_affine_params(u, config))
    if config.blur_sigma > 0:
        images = _blur(images, config.blur_sigma)
    if noise is not None:
        # rng.normal(0, sigma) is sigma * standard_normal(), bit for bit.
        noise *= config.noise_sigma
        images += noise
    return np.clip(images, 0.0, 1.0, out=images)


def render_digit(
    digit: int,
    rng: np.random.Generator,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> np.ndarray:
    """One augmented sample of ``digit`` as a (size, size) float image."""
    if digit not in GLYPHS:
        raise DatasetError(f"no glyph for digit {digit!r}")
    return _render(np.array([digit]), rng, config)[0]


def generate_digit_images(
    n_samples: int,
    seed: SeedLike = None,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(images, labels)`` with a balanced class mix.

    ``images`` has shape ``(n_samples, size*size)`` (flattened, float in
    [0, 1]); ``labels`` are int digits.  Classes are interleaved and then
    shuffled so any prefix of the dataset is still balanced.  Image
    ``i`` equals the ``i``-th :func:`render_digit` call on the same
    generator, bit for bit.
    """
    return _generate(n_samples, seed, config, np.float64)


def _generate(n_samples: int, seed: SeedLike, config: SyntheticDigitConfig,
              dtype: type) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`generate_digit_images` with ``images`` of ``dtype``.

    Each float64 batch is cast as it is written, so a float32 buffer
    holds the bytes of ``generate_digit_images(...)[0].astype(float32)``
    without the float64 array ever existing.
    """
    if n_samples <= 0:
        raise DatasetError(f"n_samples must be positive, got {n_samples}")
    rng = ensure_rng(seed)
    labels = np.arange(n_samples) % 10
    rng.shuffle(labels)
    size = config.image_size
    images = np.empty((n_samples, size * size), dtype=dtype)
    for lo in range(0, n_samples, _BATCH):
        batch = labels[lo:lo + _BATCH]
        images[lo:lo + len(batch)] = _render(batch, rng, config).reshape(len(batch), -1)
    return images, labels.astype(int)
