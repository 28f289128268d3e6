"""Neuron activation functions.

The paper's networks use sigmoid units ("apply a sigmoid activation
function to the resulting sum", Fig. 1).  Tanh and ReLU are provided for
the robustness ablations: the error-resiliency conclusions should not
hinge on one nonlinearity, and the ablation benchmarks check that.

Each activation implements ``forward`` and ``derivative``; derivatives
are expressed in terms of the *output* where that is cheaper (sigmoid,
tanh), which is what the backward pass provides.  ``forward(z,
in_place=True)`` may overwrite ``z`` with the result (the inference
pass, which keeps no pre-activations); it runs the same IEEE operations
in the same order, so both forms return the same bytes.  Every forward
pass and derivative keeps its input's floating dtype: the trainer runs
in float32, inference in float64.
"""

from __future__ import annotations

import abc
from typing import Dict, Type

import numpy as np

from repro.errors import ConfigurationError


class Activation(abc.ABC):
    """Interface for elementwise activation functions."""

    name: str = "abstract"

    @abc.abstractmethod
    def forward(self, z: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Apply the nonlinearity to pre-activations ``z`` (overwriting
        ``z`` when ``in_place``)."""

    @abc.abstractmethod
    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """d(activation)/dz given pre-activations ``z`` and outputs ``a``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid, the paper's neuron model."""

    name = "sigmoid"

    def forward(self, z: np.ndarray, in_place: bool = False) -> np.ndarray:
        # Clip to keep exp() in range; sigmoid saturates anyway.  Every
        # later step reuses the clipped buffer: 1 / (1 + exp(-clip(z))).
        a = np.clip(z, -60.0, 60.0, out=z if in_place else np.empty_like(z))
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)

    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return a * (1.0 - a)


class Tanh(Activation):
    """Hyperbolic tangent (zero-centred sigmoid relative)."""

    name = "tanh"

    def forward(self, z: np.ndarray, in_place: bool = False) -> np.ndarray:
        return np.tanh(z, out=z if in_place else None)

    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return 1.0 - a * a

class ReLU(Activation):
    """Rectified linear unit (ablation alternative)."""

    name = "relu"

    def forward(self, z: np.ndarray, in_place: bool = False) -> np.ndarray:
        return np.maximum(z, 0.0, out=z if in_place else None)

    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(z.dtype)


class Identity(Activation):
    """Linear output (used with softmax-cross-entropy output layers, where
    the loss supplies the combined softmax gradient)."""

    name = "identity"

    def forward(self, z: np.ndarray, in_place: bool = False) -> np.ndarray:
        return z

    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return np.ones_like(z)


_REGISTRY: Dict[str, Type[Activation]] = {
    cls.name: cls for cls in (Sigmoid, Tanh, ReLU, Identity)
}


def get_activation(name: str) -> Activation:
    """Instantiate a registered activation by name."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown activation {name!r}; known: {known}"
        ) from None


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift stabilisation."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
