"""Tests of the synthetic digit generator and loader."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import ndimage

from repro.errors import DatasetError
from repro.nn.datasets import (
    SyntheticDigitConfig,
    generate_digit_images,
    glyph_distance_field,
    load_synthetic_digits,
    load_test_split,
    load_train_split,
)
from repro.nn.datasets import synth_digits
from repro.nn.datasets.synth_digits import GLYPHS, RENDER_REV, render_digit
from repro.rng import derive_seed, ensure_rng

#: The configs the renderer is checked on: the default, each filter
#: off, both off, and a wider blur on a smaller canvas.
CONFIGS = [
    SyntheticDigitConfig(),
    SyntheticDigitConfig(blur_sigma=0.0),
    SyntheticDigitConfig(noise_sigma=0.0),
    SyntheticDigitConfig(blur_sigma=0.0, noise_sigma=0.0),
    SyntheticDigitConfig(blur_sigma=1.2, image_size=20, glyph_margin=3),
]
CONFIG_IDS = ["default", "no-blur", "no-noise", "plain", "wide-blur-20px"]

#: Image counts (and seeds): one image, part of a batch, several batches,
#: and each side of a batch boundary.
BATCH = synth_digits._BATCH
COUNTS = [(1, 0), (37, 5), (300, 11), (BATCH - 1, 2), (BATCH, 7),
          (BATCH + 1, 9)]


def _scipy_render(digit, rng, config):
    """Reference renderer: one image through ``scipy.ndimage``, drawing
    the stroke width, the affine uniforms and the noise with the
    generator's own ``uniform``/``normal`` calls."""
    field = glyph_distance_field(digit, config)
    width = config.stroke_width + rng.uniform(
        -config.stroke_width_jitter, config.stroke_width_jitter)
    ink = np.clip((width + config.edge_softness - field) / config.edge_softness,
                  0.0, 1.0)
    theta = np.radians(rng.uniform(-config.max_rotation_deg,
                                   config.max_rotation_deg))
    sx = 1.0 + rng.uniform(-config.scale_jitter, config.scale_jitter)
    sy = 1.0 + rng.uniform(-config.scale_jitter, config.scale_jitter)
    shear = rng.uniform(-config.max_shear, config.max_shear)
    c, s = np.cos(theta), np.sin(theta)
    matrix = (np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]])
              @ np.diag([1.0 / sx, 1.0 / sy]))
    centre = np.full(2, (config.image_size - 1) / 2.0)
    shift = rng.uniform(-config.max_translate_px, config.max_translate_px, size=2)
    offset = centre - matrix @ (centre + shift)
    warped = ndimage.affine_transform(ink, matrix, offset=offset, order=1,
                                      mode="constant", cval=0.0)
    if config.blur_sigma > 0:
        warped = ndimage.gaussian_filter(warped, config.blur_sigma)
    if config.noise_sigma > 0:
        warped = warped + rng.normal(0.0, config.noise_sigma, warped.shape)
    return np.clip(warped, 0.0, 1.0)


class TestGlyphs:
    def test_all_ten_digits_defined(self):
        assert sorted(GLYPHS) == list(range(10))

    def test_distance_field_geometry(self):
        field = glyph_distance_field(0)
        assert field.shape == (28, 28)
        assert field.min() < 1.0          # some pixel sits on the stroke
        assert field.max() > 5.0          # corners are far from the stroke

    def test_unknown_digit_rejected(self):
        with pytest.raises(DatasetError):
            glyph_distance_field(11)


class TestRender:
    def test_image_range_and_shape(self):
        img = render_digit(3, ensure_rng(0))
        assert img.shape == (28, 28)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_images_have_ink(self):
        for d in range(10):
            img = render_digit(d, ensure_rng(d))
            assert img.sum() > 5.0, f"digit {d} rendered blank"

    def test_centre_concentration(self):
        """Like MNIST, glyph mass concentrates centrally — the property
        behind the paper's input-layer resilience argument (Sec. VI-C)."""
        img = render_digit(8, ensure_rng(1))
        border = np.concatenate(
            [img[:2].ravel(), img[-2:].ravel(), img[:, :2].ravel(), img[:, -2:].ravel()]
        )
        centre = img[8:20, 8:20]
        assert centre.mean() > 5 * border.mean()

    def test_augmentation_varies_samples(self):
        rng = ensure_rng(5)
        a = render_digit(4, rng)
        b = render_digit(4, rng)
        assert np.abs(a - b).max() > 0.1


class TestGenerate:
    def test_shapes_and_balance(self):
        x, y = generate_digit_images(200, seed=1)
        assert x.shape == (200, 784)
        assert y.shape == (200,)
        counts = np.bincount(y, minlength=10)
        assert counts.min() == counts.max() == 20

    def test_deterministic(self):
        x1, y1 = generate_digit_images(50, seed=9)
        x2, y2 = generate_digit_images(50, seed=9)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_rejects_nonpositive(self):
        with pytest.raises(DatasetError):
            generate_digit_images(0)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("n, seed", COUNTS)
    def test_stack_equals_per_image_render(self, config, n, seed):
        """The batched numpy renderer gives the bytes of the scipy
        reference run image by image on the same generator, and so does
        ``render_digit``."""
        x, y = generate_digit_images(n, seed=seed, config=config)
        rng = ensure_rng(seed)
        labels = np.arange(n) % 10
        rng.shuffle(labels)
        state = rng.bit_generator.state
        reference = np.stack(
            [_scipy_render(int(d), rng, config).ravel() for d in labels]
        )
        rng.bit_generator.state = state
        singles = np.stack(
            [render_digit(int(d), rng, config).ravel() for d in labels]
        )
        assert y.tobytes() == labels.astype(int).tobytes()
        assert x.shape == reference.shape == singles.shape
        assert x.tobytes() == reference.tobytes()
        assert singles.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, -1.0], [1.0, 0.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[-1.0, 0.0], [0.0, -1.0]],
    ], ids=["identity", "rot90", "rot-90", "rot180"])
    def test_warp_on_exact_boundaries(self, matrix):
        """Integer and half-integer offsets from -30 to 30 put sample
        coordinates exactly on pixel centres and on the canvas edges."""
        size = 28
        ink = ensure_rng(3).random((size, size)) + 0.5
        steps = np.arange(-30.0, 30.5, 0.5)
        matrix = np.array(matrix)
        for row_offset in steps[::5]:
            offsets = np.stack([np.full(len(steps), row_offset), steps], axis=1)
            got = synth_digits._warp(
                np.broadcast_to(ink, (len(steps), size, size)),
                np.broadcast_to(matrix, (len(steps), 2, 2)), offsets)
            want = np.stack([
                ndimage.affine_transform(ink, matrix, offset=offset, order=1,
                                         mode="constant", cval=0.0)
                for offset in offsets
            ])
            assert got.tobytes() == want.tobytes(), row_offset

    @pytest.mark.parametrize("size", [20, 28])
    def test_blur_matches_gaussian_filter_up_to_radius_32(self, size):
        """Radii 1..32 (sigma r/4 and off-grid sigmas), including
        kernels wider than the canvas, where the reflected edge repeats."""
        images = ensure_rng(4).random((3, size, size))
        sigmas = [r / 4 for r in range(1, 33)] + [0.5, 0.37, 1.2, 3.3, 7.9]
        for sigma in sigmas:
            want = np.stack([ndimage.gaussian_filter(image, sigma)
                             for image in images])
            got = synth_digits._blur(images, sigma)
            assert got.tobytes() == want.tobytes(), sigma

    def test_seed_zero_benchmark_split_is_pinned(self):
        """The benchmark split (6,000 train, no val, 2,000 test) keeps
        its bytes: cached test splits are keyed by ``RENDER_REV``."""
        data = load_synthetic_digits(n_train=6000, n_val=0, n_test=2000, seed=0)
        digests = {
            name: hashlib.sha256(getattr(data, name).tobytes()).hexdigest()[:16]
            for name in ("x_train", "y_train", "x_test", "y_test")
        }
        assert RENDER_REV == 1
        assert digests == {
            "x_train": "02a4628ff7cd1d3a", "y_train": "80f1f29c9d0961a0",
            "x_test": "0b2fbdf532a7c419", "y_test": "cbe29914959ea09d",
        }

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            SyntheticDigitConfig(image_size=4)
        with pytest.raises(DatasetError):
            SyntheticDigitConfig(glyph_margin=20)

    @pytest.mark.parametrize("field, value", [
        ("max_rotation_deg", float("nan")),
        ("max_shear", float("inf")),
        ("stroke_width", float("nan")),
        ("noise_sigma", -0.1),
        ("blur_sigma", -0.5),
        ("max_translate_px", -1.0),
        ("scale_jitter", 1.0),
        ("scale_jitter", 1.5),
        ("edge_softness", 0.0),
    ])
    def test_config_rejects_values_the_renderer_mishandles(self, field, value):
        """NaN used to overflow inside ``rng.uniform``, a negative sigma
        was silently read as 0, and ``scale_jitter >= 1`` allowed a scale
        of 0 (an infinite warp)."""
        with pytest.raises(DatasetError, match=field):
            SyntheticDigitConfig(**{field: value})


class TestLoader:
    def test_split_sizes(self):
        data = load_synthetic_digits(n_train=100, n_val=30, n_test=50, seed=2)
        assert len(data.y_train) == 100
        assert len(data.y_val) == 30
        assert len(data.y_test) == 50
        assert data.n_features == 784
        assert data.n_classes == 10

    def test_test_set_stable_under_train_resize(self):
        small = load_synthetic_digits(n_train=50, n_val=20, n_test=40, seed=3)
        big = load_synthetic_digits(n_train=150, n_val=20, n_test=40, seed=3)
        np.testing.assert_array_equal(small.x_test, big.x_test)

    def test_rejects_bad_sizes(self):
        with pytest.raises(DatasetError):
            load_synthetic_digits(n_train=0, n_val=1, n_test=1)
        with pytest.raises(DatasetError):
            load_synthetic_digits(n_train=1, n_val=1, n_test=0)
        with pytest.raises(DatasetError):
            load_synthetic_digits(n_train=1, n_val=-1, n_test=1)

    def test_no_val_split_keeps_train_and_test_bytes(self):
        full = load_synthetic_digits(n_train=30, n_val=20, n_test=25, seed=6)
        bare = load_synthetic_digits(n_train=30, n_val=0, n_test=25, seed=6)
        assert len(bare.y_val) == 0 and bare.x_val.shape == (0, 784)
        for name in ("x_train", "y_train", "x_test", "y_test"):
            got, want = getattr(bare, name), getattr(full, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_test_split_alone_matches_full_load(self):
        full = load_synthetic_digits(n_train=60, n_val=20, n_test=40, seed=4)
        alone = load_test_split(n_test=40, seed=4)
        assert alone.x_test.tobytes() == full.x_test.tobytes()
        assert alone.y_test.tobytes() == full.y_test.tobytes()
        assert len(alone.y_train) == len(alone.y_val) == 0
        assert alone.x_train.shape == (0, 784)

    @pytest.mark.parametrize("n_train, seed", [(1, 0), (150, 4), (300, 7)])
    def test_train_split_is_the_float32_cast_of_the_render(self, n_train, seed):
        """Rendering batch by batch into float32 gives the bytes of the
        float64 render cast afterwards, across batch boundaries."""
        x, y = load_train_split(n_train=n_train, seed=seed)
        want_x, want_y = generate_digit_images(n_train, seed=derive_seed(seed, 1))
        assert x.dtype == np.float32
        assert x.tobytes() == want_x.astype(np.float32).tobytes()
        assert y.tobytes() == want_y.tobytes()
        full = load_synthetic_digits(n_train=n_train, n_val=0, n_test=5, seed=seed)
        assert x.tobytes() == full.x_train.astype(np.float32).tobytes()

    def test_properties_on_pruned_dataset(self):
        """Evaluation-only datasets keep just the test split; the
        derived properties must not read the empty training split."""
        full = load_synthetic_digits(n_train=30, n_val=20, n_test=40, seed=6)
        pruned = dataclasses.replace(
            full,
            x_train=full.x_train[:0], y_train=full.y_train[:0],
            x_val=full.x_val[:0], y_val=full.y_val[:0],
        )
        assert pruned.n_classes == full.n_classes == 10
        assert pruned.n_features == full.n_features == 784
        assert "train=0" in pruned.summary()

    def test_properties_on_dataset_without_samples(self):
        data = load_test_split(n_test=10, seed=1)
        empty = dataclasses.replace(
            data, x_test=data.x_test[:0], y_test=data.y_test[:0]
        )
        with pytest.raises(DatasetError, match="no samples"):
            empty.n_classes
