"""Datasets for the digit-recognition benchmark.

MNIST (the paper's dataset) cannot be downloaded in this offline
environment, so :mod:`~repro.nn.datasets.synth_digits` provides a
procedural handwritten-digit generator with MNIST's tensor geometry
(28x28 grayscale, 10 classes, centred glyphs with empty borders) and a
comparable difficulty profile.  See docs/architecture.md for why
this preserves the paper's conclusions.
"""

from repro.nn.datasets.synth_digits import (
    SyntheticDigitConfig,
    generate_digit_images,
    glyph_distance_field,
)
from repro.nn.datasets.loader import (
    DigitDataset,
    load_synthetic_digits,
    load_test_split,
)

__all__ = [
    "SyntheticDigitConfig",
    "generate_digit_images",
    "glyph_distance_field",
    "DigitDataset",
    "load_synthetic_digits",
    "load_test_split",
]
