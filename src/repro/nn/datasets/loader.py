"""Dataset container and the standard train/val/test loading entry point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DatasetError
from repro.nn.datasets.synth_digits import SyntheticDigitConfig, generate_digit_images
from repro.rng import SeedLike, derive_seed

#: Derived-seed stream of the test split (train and val use 1 and 2).
_TEST_STREAM = 3


@dataclass(frozen=True)
class DigitDataset:
    """Train/validation/test split of the digit task.

    Any split may be empty — evaluation-only datasets
    (:func:`load_test_split`, pruned worker copies) keep just the test
    split — so the derived properties read the first non-empty one.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def _nonempty_split(self) -> Tuple[np.ndarray, np.ndarray]:
        for x, y in ((self.x_train, self.y_train), (self.x_val, self.y_val),
                     (self.x_test, self.y_test)):
            if len(y):
                return x, y
        raise DatasetError("dataset has no samples in any split")

    @property
    def n_features(self) -> int:
        return self._nonempty_split()[0].shape[1]

    @property
    def n_classes(self) -> int:
        return int(self._nonempty_split()[1].max()) + 1

    def summary(self) -> str:
        return (
            f"DigitDataset(train={len(self.y_train)}, val={len(self.y_val)}, "
            f"test={len(self.y_test)}, features={self.n_features})"
        )


def load_synthetic_digits(
    n_train: int = 10000,
    n_val: int = 1000,
    n_test: int = 2000,
    seed: SeedLike = None,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> DigitDataset:
    """Generate a full train/val/test digit dataset.

    The three splits use independent derived seeds so that changing the
    training-set size does not silently change the test set.
    """
    if min(n_train, n_val, n_test) <= 0:
        raise DatasetError("all split sizes must be positive")
    x_train, y_train = generate_digit_images(n_train, seed=derive_seed(seed, 1),
                                             config=config)
    x_val, y_val = generate_digit_images(n_val, seed=derive_seed(seed, 2),
                                         config=config)
    x_test, y_test = generate_digit_images(
        n_test, seed=derive_seed(seed, _TEST_STREAM), config=config
    )
    return DigitDataset(
        x_train=x_train, y_train=y_train,
        x_val=x_val, y_val=y_val,
        x_test=x_test, y_test=y_test,
    )


def load_test_split(
    n_test: int = 2000,
    seed: SeedLike = None,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> DigitDataset:
    """Only the test split of :func:`load_synthetic_digits`.

    For an integer (or ``None``) ``seed`` the test arrays are the bytes
    :func:`load_synthetic_digits` returns for the same ``n_test``,
    whatever its train/val sizes; train and val are empty.  This is all
    an evaluation-only consumer (a network loaded from cached weights)
    needs, at a fraction of the generation cost.
    """
    x_test, y_test = generate_digit_images(
        n_test, seed=derive_seed(seed, _TEST_STREAM), config=config
    )
    return DigitDataset(
        x_train=x_test[:0], y_train=y_test[:0],
        x_val=x_test[:0], y_val=y_test[:0],
        x_test=x_test, y_test=y_test,
    )
