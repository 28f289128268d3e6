"""Multilayer feedforward ANN (paper Fig. 1).

A :class:`FeedforwardANN` is a stack of :class:`~repro.nn.layers.DenseLayer`
objects built from a :class:`NetworkSpec`.  The spec for the paper's
benchmark network (Table I) lives in :mod:`repro.core.framework`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import DenseLayer
from repro.rng import derive_seed

#: Per-layer ``(weights, biases)`` arrays evaluated in place of a
#: network's own parameters.
Params = Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer sizes + activations.

    ``layer_sizes`` includes the input layer, e.g. the paper's Table I
    network is ``(784, 1000, 500, 200, 100, 10)``.  ``hidden_activation``
    applies to every layer except the last; ``output_activation`` is
    ``"identity"`` by default because the default loss is
    softmax-cross-entropy (which owns the output nonlinearity).
    """

    layer_sizes: Tuple[int, ...]
    hidden_activation: str = "sigmoid"
    output_activation: str = "identity"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ConfigurationError("a network needs at least input + output")
        if any(s <= 0 for s in self.layer_sizes):
            raise ConfigurationError(f"layer sizes must be positive: {self.layer_sizes}")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))

    @property
    def n_layers(self) -> int:
        """Layer count including the input layer (the paper counts 6)."""
        return len(self.layer_sizes)

    @property
    def n_neurons(self) -> int:
        """Total neuron count (the paper's Table I counts 2594)."""
        return sum(self.layer_sizes)

    @property
    def n_synapses(self) -> int:
        """Weights + biases (the paper's Table I counts 1,406,810)."""
        total = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            total += n_in * n_out + n_out
        return total


class FeedforwardANN:
    """A trained/trainable MLP with layer-level access for fault injection."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.layers: List[DenseLayer] = []
        sizes = spec.layer_sizes
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_output = i == len(sizes) - 2
            act = spec.output_activation if is_output else spec.hidden_activation
            self.layers.append(
                DenseLayer(
                    n_in,
                    n_out,
                    activation=act,
                    seed=derive_seed(spec.seed, i),
                    name=f"layer{i}_{n_in}x{n_out}",
                )
            )

    # ------------------------------------------------------------------
    # Inference / training plumbing
    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, train: bool = False, params: Optional[Params] = None
    ) -> np.ndarray:
        """Batch forward pass through all layers.

        ``params`` is a ``(weights, biases)`` pair of per-layer lists, as
        :meth:`~repro.nn.quantize.QuantizedWeights.dequantized` returns,
        evaluated in place of the layers' own parameters; the network is
        not written to, so threads may classify different parameter sets
        through one network at the same time.

        Inference runs in float64.  A training pass runs in the dtype
        of the parameters (float32 inside :class:`~repro.nn.trainer.SGDTrainer`).
        """
        a = np.asarray(x, dtype=self.layers[0].weights.dtype if train else float)
        if a.ndim == 1:
            a = a[np.newaxis, :]
        if a.shape[1] != self.spec.layer_sizes[0]:
            raise ConfigurationError(
                f"input width {a.shape[1]} != network input "
                f"{self.spec.layer_sizes[0]}"
            )
        if params is None:
            for layer in self.layers:
                a = layer.forward(a, train=train)
            return a
        if train:
            raise ConfigurationError("explicit params are for inference only")
        weights, biases = params
        if not len(weights) == len(biases) == len(self.layers):
            raise ConfigurationError(
                f"expected parameters for {len(self.layers)} layers, got "
                f"{len(weights)} weight and {len(biases)} bias arrays"
            )
        for layer, w, b in zip(self.layers, weights, biases):
            if w.shape != layer.weights.shape or b.shape != layer.biases.shape:
                raise ConfigurationError(f"{layer.name}: parameter shape mismatch")
            a = layer.forward(a, weights=w, biases=b)
        return a

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate a loss gradient, setting every layer's parameter
        gradients.  The gradient with respect to the network input is not
        computed."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward(grad, input_grad=False)

    def predict(self, x: np.ndarray, params: Optional[Params] = None) -> np.ndarray:
        """Class predictions (argmax over output scores); ``params`` as
        in :meth:`forward`."""
        return np.argmax(self.forward(x, params=params), axis=1)

    # ------------------------------------------------------------------
    # Parameter access (quantization / fault injection)
    # ------------------------------------------------------------------
    @property
    def n_weight_layers(self) -> int:
        return len(self.layers)

    def weight_matrices(self) -> List[np.ndarray]:
        """Live references to every layer's weight matrix, input-side first."""
        return [layer.weights for layer in self.layers]

    def set_weight_matrices(self, matrices: Sequence[np.ndarray]) -> None:
        """Replace all weight matrices (shapes must match)."""
        if len(matrices) != len(self.layers):
            raise ConfigurationError(
                f"expected {len(self.layers)} matrices, got {len(matrices)}"
            )
        for layer, m in zip(self.layers, matrices):
            if m.shape != layer.weights.shape:
                raise ConfigurationError(
                    f"{layer.name}: shape mismatch {m.shape} != {layer.weights.shape}"
                )
            layer.weights = np.array(m, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "-".join(map(str, self.spec.layer_sizes))
        return f"FeedforwardANN({sizes})"
