"""Minibatch SGD backpropagation trainer (paper Sec. II).

Deliberately classical — momentum SGD with step decay — matching the
training regime of the paper's toolbox.  Determinism: shuffling derives
from the trainer seed, so a given (spec, data, trainer) triple always
produces the same network.

Training runs in float32, the one training precision: the trained
parameters are stored as 8-bit Q0.7 synapses (step 2^-7), far coarser
than float32's rounding (Gupta et al., ICML 2015; Micikevicius et al.,
ICLR 2018).  Inference and everything downstream of training stay
float64; :meth:`SGDTrainer.train` hands the parameters back as float64.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.loss import Loss, get_loss
from repro.nn.metrics import accuracy
from repro.nn.network import FeedforwardANN
from repro.rng import SeedLike, ensure_rng


#: The dtype of every training pass (see the module docstring).
_TRAIN_DTYPE = np.float32


@dataclass
class TrainingResult:
    """Per-epoch history plus the final state of a training run.

    ``train_accuracy`` is the running accuracy of each epoch: the
    fraction of that epoch's training samples that the network
    classified correctly in their minibatch's forward pass, taken before
    the minibatch's update.  It costs no extra pass over the training
    split.  ``val_accuracy`` is measured after each epoch, and only when
    validation data is given.
    """

    epochs_run: int = 0
    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")


@dataclass
class SGDTrainer:
    """Momentum SGD with optional step decay and early stopping.

    Parameters
    ----------
    epochs, batch_size, learning_rate:
        The usual knobs.
    momentum:
        Classical momentum coefficient (0 disables).
    lr_decay:
        Multiplicative learning-rate decay applied each epoch.
    loss:
        Loss name (``"cross_entropy"`` or ``"mse"``) or a Loss instance.
    patience:
        Early-stop after this many epochs without validation improvement
        (``None`` disables; requires validation data).
    weight_clip:
        Projected SGD: clamp every parameter to ``[-clip, +clip]`` after
        each update.  The benchmark model trains with ``clip=1.0`` so the
        8-bit synaptic format is the paper's sub-unity Q0.7 layout (sign
        bit + 7 fraction bits); ``None`` disables.  The clamp runs in
        float32, so its bound is the float32 nearest ``clip``.
    seed:
        Shuffling seed.
    verbose:
        Print one line per epoch.
    """

    epochs: int = 20
    batch_size: int = 100
    learning_rate: float = 0.5
    momentum: float = 0.9
    lr_decay: float = 0.97
    loss: object = "cross_entropy"
    patience: Optional[int] = None
    weight_clip: Optional[float] = None
    seed: SeedLike = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        positive = {"learning_rate": self.learning_rate,
                    "lr_decay": self.lr_decay}
        if self.weight_clip is not None:
            positive["weight_clip"] = self.weight_clip
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")

    def _loss(self) -> Loss:
        return self.loss if isinstance(self.loss, Loss) else get_loss(self.loss)

    def train(
        self,
        network: FeedforwardANN,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray = None,
        y_val: np.ndarray = None,
    ) -> TrainingResult:
        """Train ``network`` in place and return the history.

        Give both ``x_val`` and ``y_val`` (of equal length) or neither;
        a validation split costs one forward pass over it per epoch.
        The inputs and the layer parameters are cast to float32 on entry
        (a float32 ``x_train`` is used as is), so every training
        product, gradient and velocity is float32; the parameters are
        cast back to float64, exactly, before returning.
        """
        x_train = np.asarray(x_train, dtype=_TRAIN_DTYPE)
        y_train = np.asarray(y_train, dtype=int)
        if x_train.shape[0] != y_train.shape[0]:
            raise ConfigurationError("x_train/y_train length mismatch")
        if x_train.shape[0] == 0:
            raise ConfigurationError("the training split is empty")
        if (x_val is None) != (y_val is None):
            raise ConfigurationError(
                "give both x_val and y_val, or neither"
            )
        if x_val is not None:
            y_val = np.asarray(y_val)
            if len(x_val) != len(y_val):
                raise ConfigurationError("x_val/y_val length mismatch")
        if self.patience is not None and x_val is None:
            raise ConfigurationError("early stopping requires validation data")

        for layer in network.layers:
            layer.weights = layer.weights.astype(_TRAIN_DTYPE)
            layer.biases = layer.biases.astype(_TRAIN_DTYPE)
        try:
            return self._train(network, x_train, y_train, x_val, y_val)
        finally:
            for layer in network.layers:
                layer.weights = layer.weights.astype(np.float64)
                layer.biases = layer.biases.astype(np.float64)

    def _train(self, network, x_train, y_train, x_val, y_val) -> TrainingResult:
        rng = ensure_rng(self.seed)
        loss_fn = self._loss()
        result = TrainingResult()
        start = time.perf_counter()

        lr = self.learning_rate
        velocity = [
            (np.zeros_like(l.weights), np.zeros_like(l.biases))
            for l in network.layers
        ]
        best_val = -np.inf
        stale_epochs = 0

        for epoch in range(self.epochs):
            order = rng.permutation(x_train.shape[0])
            epoch_losses = []
            correct = 0
            for lo in range(0, len(order), self.batch_size):
                idx = order[lo:lo + self.batch_size]
                scores = network.forward(x_train[idx], train=True)
                correct += int(np.count_nonzero(
                    np.argmax(scores, axis=1) == y_train[idx]
                ))
                loss_value, grad = loss_fn.value_and_grad(scores, y_train[idx])
                network.backward(grad)
                for layer, (vw, vb) in zip(network.layers, velocity):
                    # In place, the same IEEE operations as
                    # ``vw -= lr * grad``; the gradients are consumed.
                    vw *= self.momentum
                    layer.grad_weights *= lr
                    vw -= layer.grad_weights
                    vb *= self.momentum
                    layer.grad_biases *= lr
                    vb -= layer.grad_biases
                    layer.weights += vw
                    layer.biases += vb
                    if self.weight_clip is not None:
                        np.clip(layer.weights, -self.weight_clip,
                                self.weight_clip, out=layer.weights)
                        np.clip(layer.biases, -self.weight_clip,
                                self.weight_clip, out=layer.biases)
                epoch_losses.append(loss_value)

            lr *= self.lr_decay
            result.epochs_run = epoch + 1
            result.train_loss.append(float(np.mean(epoch_losses)))
            result.train_accuracy.append(correct / len(y_train))
            if x_val is not None:
                val_acc = accuracy(network.predict(x_val), y_val)
                result.val_accuracy.append(val_acc)
                if self.patience is not None:
                    if val_acc > best_val + 1e-6:
                        best_val = val_acc
                        stale_epochs = 0
                    else:
                        stale_epochs += 1
                        if stale_epochs >= self.patience:
                            break
            if self.verbose:  # pragma: no cover - console output
                val = (
                    f" val={result.val_accuracy[-1]:.4f}"
                    if result.val_accuracy else ""
                )
                print(
                    f"epoch {epoch + 1:3d}/{self.epochs} "
                    f"loss={result.train_loss[-1]:.4f} "
                    f"train={result.train_accuracy[-1]:.4f}{val}"
                )

        result.wall_seconds = time.perf_counter() - start
        return result
