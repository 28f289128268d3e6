"""Tests of the synthetic digit generator and loader."""

import dataclasses

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.nn.datasets import (
    SyntheticDigitConfig,
    generate_digit_images,
    glyph_distance_field,
    load_synthetic_digits,
    load_test_split,
)
from repro.nn.datasets.synth_digits import GLYPHS, render_digit
from repro.rng import ensure_rng


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

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            SyntheticDigitConfig(image_size=4)
        with pytest.raises(DatasetError):
            SyntheticDigitConfig(glyph_margin=20)


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

    def test_test_split_alone_matches_full_load(self):
        full = load_synthetic_digits(n_train=60, n_val=20, n_test=40, seed=4)
        alone = load_test_split(n_test=40, seed=4)
        assert alone.x_test.tobytes() == full.x_test.tobytes()
        assert alone.y_test.tobytes() == full.y_test.tobytes()
        assert len(alone.y_train) == len(alone.y_val) == 0
        assert alone.x_train.shape == (0, 784)

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
