"""Loss functions for training.

``CrossEntropyLoss`` fuses softmax with cross-entropy so that the output
layer can stay linear (``identity`` activation) and the combined
gradient is the numerically benign ``softmax(z) - onehot``.

Both losses compute in the scores' dtype (float32 during training); the
one-hot targets are cast to it.

``MeanSquaredError`` against one-hot targets with sigmoid outputs is the
historical configuration of the paper's toolbox (DeepLearnToolbox); it
is provided for the fidelity ablation.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple, Type

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import softmax


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer labels -> one-hot matrix."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ConfigurationError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ConfigurationError(
            f"labels out of range [0, {n_classes}): {labels.min()}..{labels.max()}"
        )
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


class Loss(abc.ABC):
    """Interface: compute scalar loss and output-layer gradient."""

    name = "abstract"

    @abc.abstractmethod
    def value_and_grad(
        self, scores: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(mean loss, dLoss/dscores)`` for a batch."""


class CrossEntropyLoss(Loss):
    """Softmax + cross-entropy on raw scores."""

    name = "cross_entropy"

    def value_and_grad(self, scores, labels):
        probs = softmax(scores)
        targets = one_hot(labels, scores.shape[1]).astype(scores.dtype, copy=False)
        eps = 1e-12
        loss = -np.mean(np.sum(targets * np.log(probs + eps), axis=1))
        # Per-sample gradient; the layer backward averages over the batch.
        grad = probs - targets
        return float(loss), grad


class MeanSquaredError(Loss):
    """Squared error against one-hot targets (applied to the network's
    outputs directly, so pair it with a sigmoid output activation)."""

    name = "mse"

    def value_and_grad(self, scores, labels):
        targets = one_hot(labels, scores.shape[1]).astype(scores.dtype, copy=False)
        diff = scores - targets
        loss = 0.5 * float(np.mean(np.sum(diff**2, axis=1)))
        return loss, diff


_REGISTRY: Dict[str, Type[Loss]] = {
    cls.name: cls for cls in (CrossEntropyLoss, MeanSquaredError)
}


def get_loss(name: str) -> Loss:
    """Instantiate a registered loss by name."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown loss {name!r}; known: {known}") from None
