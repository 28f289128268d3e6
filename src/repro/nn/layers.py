"""Fully connected layers with explicit forward/backward passes."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import ACTIVATION_GAIN, glorot_uniform, zeros_init
from repro.rng import SeedLike


class DenseLayer:
    """One fully connected layer: ``a = act(x @ W.T + b)``.

    Weights have shape ``(n_out, n_in)``, matching the paper's "synapses
    fanning *into* a neuron" orientation: row ``i`` holds the synaptic
    weights of output neuron ``i``.  Biases are the per-neuron offsets
    (the paper's synapse count 1,406,810 includes them; see docs/reproducing.md).

    The layer is deliberately mutable: the trainer updates parameters in
    place, and quantization replaces them wholesale with dequantized
    values.  Fault evaluation never writes a faulty die into the layer;
    it passes the die's parameters to :meth:`forward`.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        activation: str = "sigmoid",
        seed: SeedLike = None,
        name: str = "",
    ):
        if n_in <= 0 or n_out <= 0:
            raise ConfigurationError(
                f"layer dimensions must be positive ({n_in} -> {n_out})"
            )
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.name = name or f"dense_{n_in}x{n_out}"
        self.activation: Activation = (
            activation if isinstance(activation, Activation)
            else get_activation(activation)
        )
        gain = ACTIVATION_GAIN.get(self.activation.name, 1.0)
        self.weights = glorot_uniform((self.n_out, self.n_in), seed=seed, gain=gain)
        self.biases = zeros_init((self.n_out,))
        # Gradients and cached forward tensors (populated by forward/backward).
        self.grad_weights: Optional[np.ndarray] = None
        self.grad_biases: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._a: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_synapses(self) -> int:
        """Weights + biases, the paper's synapse accounting."""
        return self.n_in * self.n_out + self.n_out

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        weights: Optional[np.ndarray] = None,
        biases: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward pass on a batch ``(n_samples, n_in)``.

        With ``train=True`` the inputs and activations are cached for the
        subsequent backward pass.  Inference skips the caching and adds
        the bias and applies the activation in place on the matmul
        output.  ``weights``/``biases`` evaluate the layer with other
        parameters of the same shapes (a sampled faulty die) without
        writing them into the layer.
        """
        w = self.weights if weights is None else weights
        z = x @ w.T
        z += self.biases if biases is None else biases
        if not train:
            return self.activation.forward(z, in_place=True)
        a = self.activation.forward(z)
        self._x, self._z, self._a = x, z, a
        return a

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backward pass: set parameter grads, return the input grad.

        ``grad_out`` is dLoss/da for this layer's activations.  With
        ``input_grad=False`` (the input layer, whose input gradient no
        one reads) the ``delta @ W`` product is skipped and ``None`` is
        returned.
        """
        if self._x is None:
            raise ConfigurationError(
                f"{self.name}: backward() before forward(train=True)"
            )
        delta = grad_out * self.activation.derivative(self._z, self._a)
        batch = self._x.shape[0]
        self.grad_weights = delta.T @ self._x
        self.grad_weights /= batch
        self.grad_biases = delta.mean(axis=0)
        return delta @ self.weights if input_grad else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DenseLayer({self.n_in}->{self.n_out}, "
            f"act={self.activation.name!r})"
        )
