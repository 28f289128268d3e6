"""Accuracy measurement under injected synaptic faults.

``evaluate_under_faults`` is the system-level measurement loop of the
paper's simulator: for each trial, sample a faulty die (bit-flip masks)
and measure classification accuracy on the evaluation set with the
die's weights.  The caller's network is only read, never written.  A
sampled die with no flipped bit holds the clean image's codes, so its
accuracy is the baseline and its forward pass is skipped.  A die that
changes only a few first-layer rows is classified from the clean
activations (:class:`CleanReference`) when a rounding-error bound
certifies that the result equals the full pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.injector import WeightFaultInjector
from repro.nn.activations import Identity, Sigmoid
from repro.nn.metrics import accuracy
from repro.nn.network import FeedforwardANN, Params
from repro.nn.quantize import QuantizedWeights
from repro.rng import SeedLike, derive_seed
from repro.runtime.executor import resolve_jobs

#: Unit roundoff of IEEE double precision.
_U = 2.0 ** -53
#: Allowance for numpy's ``1 / (1 + exp(-z))`` (exp's error plus two
#: roundings); absolute, as the result is at most 1.
_SIGMOID_ERR = 16 * _U
#: Margin on the certificate threshold for the rounding of the bound's
#: own arithmetic and of the norms it reads (relative errors < 1e-9).
_SLACK = 1.01


def _gamma(n: int) -> float:
    """``γ_n = nu / (1 - nu)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, §3.1): an ``n``-term inner product, or
    a sum of ``n + 1`` terms, computed in any order is within ``γ_n``
    times the sum of the magnitudes of its terms."""
    return n * _U / (1.0 - n * _U)


def _row_norm(w: np.ndarray) -> float:
    """``‖w‖_∞``, the largest absolute row sum."""
    return float(np.abs(w).sum(axis=1).max(initial=0.0))


def _logit_error(
    layers: Sequence[Tuple[int, float, float]], eps: float, magnitude: float
) -> float:
    """Bound on ``|computed - exact|`` of the outputs of a dense pass
    over ``layers`` (``(fan_in, ‖W‖_∞, max |b|)``, sigmoid between them)
    whose inputs are within ``eps`` of exact and at most ``magnitude``."""
    for fan_in, w_norm, b_max in layers:
        err = _gamma(fan_in + 1) * (magnitude * w_norm + b_max) + w_norm * eps
        eps, magnitude = err / 4 + _SIGMOID_ERR, 1.0
    return err


class _Die(NamedTuple):
    """A sampled die: its parameters, the first layer's changed rows
    (weight or bias) and the second layer's changed weight columns."""

    params: Params
    rows: np.ndarray
    cols: np.ndarray


class CleanReference:
    """The clean image's accuracy on one evaluation set (pass it when
    known; else the first read makes the clean pass), plus the clean
    first-layer activations and second-layer pre-activations, built
    under a lock by the first light die and shared by every later one.

    A light die recomputes its changed first-layer rows ``R``, updates
    the second layer by ``(a1'[:, R] - a1[:, R]) @ W2'[:, R].T + a1[:,
    C] @ ΔW2[:, C].T + Δb2`` and runs the rest densely; its predictions
    count only when a rounding-error bound certifies the full pass's
    argmax is the same (docs/performance.md).
    """

    def __init__(
        self,
        network: FeedforwardANN,
        image: QuantizedWeights,
        x_eval: np.ndarray,
        y_eval: np.ndarray,
        accuracy: Optional[float] = None,
    ):
        self.network, self.image = network, image
        self.x_eval, self.y_eval = x_eval, y_eval
        self._accuracy = accuracy
        self._lock = threading.Lock()
        self._clean: Optional[tuple] = None
        layers = network.layers
        self._sizes = sizes = network.spec.layer_sizes
        self._full_macs = sum(a * b for a, b in zip(sizes, sizes[1:]))
        self._incremental = (
            len(layers) > 1 and sizes[-1] > 1
            and isinstance(layers[-1].activation, Identity)
            and all(isinstance(l.activation, Sigmoid) for l in layers[:-1])
        )

    @property
    def accuracy(self) -> float:
        if self._accuracy is None:
            self._accuracy = accuracy(self.network.predict(
                self.x_eval, params=self.image.dequantized()), self.y_eval)
        return self._accuracy

    def _activations(self) -> tuple:
        with self._lock:
            if self._clean is None:
                (w0, w1, *_), (b0, b1, *_) = self.image.dequantized()
                x = np.asarray(self.x_eval, dtype=float)
                a1 = self.network.layers[0].forward(x, weights=w0, biases=b0)
                z2 = a1 @ w1.T
                z2 += b1
                self._clean = (
                    x, a1, z2, w1, b1, np.abs(w0).sum(axis=1),
                    _row_norm(w1) + float(np.abs(b1).max()),
                    float(np.abs(x).max()),
                )
            return self._clean

    def predictions(self, die: _Die) -> Optional[np.ndarray]:
        """The die's certified predictions from the clean activations, or
        ``None`` when it should take the full pass."""
        incremental = self._incremental_logits(die)
        if incremental is None:
            return None
        logits, full_err, inc_err = incremental
        top = np.partition(logits, -2, axis=1)
        if not np.all(top[:, -1] - top[:, -2]
                      > 2 * (full_err + inc_err) * _SLACK):
            return None
        return np.argmax(logits, axis=1)

    def _incremental_logits(
        self, die: _Die
    ) -> Optional[Tuple[np.ndarray, float, float]]:
        """The die's logits from the clean activations and bounds on the
        rounding error of the full pass and of this one, or ``None`` when
        this costs the full pass's multiply-adds or more."""
        (w, b), rows, cols = die
        if not self._incremental:
            return None
        sizes = self._sizes
        n0, n1, n2 = sizes[:3]
        if (len(rows) * (n0 + n2) + len(cols) * n2
                + self._full_macs - n1 * (n0 + n2)) >= self._full_macs:
            return None
        x, a1, z2, w1, b1, row_sums, z2_scale, x_max = self._activations()
        first, second, *rest = self.network.layers
        z = z2.copy()
        if rows.size:
            # (W @ x.T).T: for few rows a faster BLAS layout than x @ W.T.
            delta = (w[0][rows] @ x.T).T
            delta += b[0][rows]
            delta = first.activation.forward(delta, in_place=True)
            delta -= a1[:, rows]
            z += delta @ w[1][:, rows].T
        # Exact: both operands are multiples of 2**-frac_bits.
        dw, db = w[1][:, cols] - w1[:, cols], b[1] - b1
        if cols.size:
            z += a1[:, cols] @ dw.T
        z += db
        logits = second.activation.forward(z, in_place=True)
        for layer, wl, bl in zip(rest, w[2:], b[2:]):
            logits = layer.forward(logits, weights=wl, biases=bl)

        row_sums = row_sums.copy()
        row_sums[rows] = np.abs(w[0][rows]).sum(axis=1)
        layers = [(n0, float(row_sums.max()), float(np.abs(b[0]).max()))]
        layers += [(n_in, _row_norm(wl), float(np.abs(bl).max()))
                   for n_in, wl, bl in zip(sizes[1:], w[1:], b[1:])]
        w_norm, dw_norm = layers[1][1], _row_norm(dw)
        # Second layer: the first layer's error through ‖W2'‖, plus the
        # rounding of the stored z2 (γ_{n1+1}), of a1' - a1 and the
        # rank-|R| product (u + γ_|R|), of the rank-|C| product and of
        # the three accumulations (γ_3), each at most γ_{n1+3} times its
        # terms' magnitudes (|a1| <= 1, so |a1' - a1| <= 1).
        eps1 = _logit_error(layers[:1], 0.0, x_max) / 4 + _SIGMOID_ERR
        err2 = w_norm * eps1 + 2 * _gamma(n1 + 3) * (
            z2_scale + w_norm + dw_norm + float(np.abs(db).max()))
        inc_err = (_logit_error(layers[2:], err2 / 4 + _SIGMOID_ERR, 1.0)
                   if rest else err2)
        return logits, _logit_error(layers, 0.0, x_max), inc_err


def _reference_for(
    reference: Optional[CleanReference], network: FeedforwardANN,
    image: QuantizedWeights, x_eval: np.ndarray, y_eval: np.ndarray,
) -> CleanReference:
    if reference is None:
        return CleanReference(network, image, x_eval, y_eval)
    owner = (reference.network, reference.image, reference.x_eval,
             reference.y_eval)
    if any(a is not b for a, b in zip(owner, (network, image, x_eval, y_eval))):
        raise ConfigurationError("the clean reference belongs to another "
                                 "network, image or evaluation set")
    return reference


@dataclass(frozen=True)
class FaultEvaluation:
    """Accuracy statistics over fault-injection trials."""

    baseline_accuracy: float
    trial_accuracies: tuple
    expected_flips: float

    @property
    def n_trials(self) -> int:
        return len(self.trial_accuracies)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.trial_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.trial_accuracies))

    @property
    def min_accuracy(self) -> float:
        return float(np.min(self.trial_accuracies))

    @property
    def accuracy_drop(self) -> float:
        """Baseline minus mean accuracy (positive = degradation)."""
        return self.baseline_accuracy - self.mean_accuracy

    def summary(self) -> str:
        return (
            f"acc {self.mean_accuracy:.4f} +/- {self.std_accuracy:.4f} "
            f"(baseline {self.baseline_accuracy:.4f}, "
            f"drop {100 * self.accuracy_drop:.2f}%, trials {self.n_trials})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; exact float round-trip via ``from_dict``."""
        return {
            "baseline_accuracy": float(self.baseline_accuracy),
            "trial_accuracies": [float(a) for a in self.trial_accuracies],
            "expected_flips": float(self.expected_flips),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultEvaluation":
        missing = {"baseline_accuracy", "trial_accuracies", "expected_flips"} - set(doc)
        if missing:
            raise ConfigurationError(
                f"FaultEvaluation document missing fields: {sorted(missing)}"
            )
        return cls(
            baseline_accuracy=float(doc["baseline_accuracy"]),
            trial_accuracies=tuple(float(a) for a in doc["trial_accuracies"]),
            expected_flips=float(doc["expected_flips"]),
        )


@dataclass(frozen=True)
class FaultTrialSpec:
    """One evaluation request of a batched fault-injection pass.

    ``injector=None`` requests the clean baseline only (mirroring
    :func:`evaluate_under_faults`); ``seed`` should be an integer or
    ``None`` so the spec's trial streams are a pure function of the spec
    itself, independent of its position in the batch.
    """

    injector: Optional[WeightFaultInjector]
    n_trials: int = 5
    seed: SeedLike = None


def evaluate_many_under_faults(
    network: FeedforwardANN,
    image: QuantizedWeights,
    specs: Sequence[FaultTrialSpec],
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    reference: Optional[CleanReference] = None,
    jobs: Optional[int] = 1,
) -> List[FaultEvaluation]:
    """Batched persistent-mode evaluation sharing the clean pass.

    Element ``i`` of the result equals
    ``evaluate_under_faults(network, image, specs[i].injector, x_eval,
    y_eval, n_trials=specs[i].n_trials, seed=specs[i].seed)``
    bit-for-bit — every trial's flip masks derive from ``(spec seed,
    trial index)`` alone, exactly as on the sequential path.  What the
    batch *shares* is the per-call overhead that dominates short
    requests: one clean forward pass over the evaluation set serves
    every spec, instead of being repeated per request.

    ``reference`` is the :class:`CleanReference` of this network, image
    and evaluation set when the caller holds one (the model's): its
    baseline accuracy skips the clean pass, and its clean activations,
    built once, serve every call.  Without it the call makes its own.

    The trials of every spec form one task list, and each trial
    *samples* its die (injects the flips and dequantizes) and
    *classifies* it (certified incremental predictions for a light die,
    else ``network.predict`` with the die's parameters; no trial writes
    to ``network``).  ``resolve_jobs(jobs)`` lanes run the list: the
    calling thread and up to ``jobs - 1`` helper threads (numpy's matmul
    and ufuncs release the GIL) each take the next task, sample and
    classify its die and drop it, so at most ``jobs`` dies are alive.
    The accuracies land at their task index, so the result is the same
    for any lane count.  After a trial fails no lane takes a new task,
    and once every lane has stopped the first failure in task order is
    raised: the one a serial run raises.

    This is the fault-injection pass behind
    :meth:`repro.core.framework.CircuitToSystemSimulator.evaluate_batch`.
    """
    for spec in specs:
        if spec.n_trials <= 0:
            raise ConfigurationError(
                f"n_trials must be positive, got {spec.n_trials}"
            )

    reference = _reference_for(reference, network, image, x_eval, y_eval)
    baseline = reference.accuracy
    tasks = [
        (spec.injector, derive_seed(spec.seed, trial))
        for spec in specs if spec.injector is not None
        for trial in range(spec.n_trials)
    ]
    accuracies = _run_trials(reference, tasks, resolve_jobs(jobs))

    results: List[FaultEvaluation] = []
    done = iter(accuracies)
    for spec in specs:
        if spec.injector is None:
            results.append(
                FaultEvaluation(
                    baseline_accuracy=baseline,
                    trial_accuracies=(baseline,),
                    expected_flips=0.0,
                )
            )
            continue
        results.append(
            FaultEvaluation(
                baseline_accuracy=baseline,
                trial_accuracies=tuple(next(done) for _ in range(spec.n_trials)),
                expected_flips=spec.injector.expected_flips(image),
            )
        )
    return results


def _sample(
    image: QuantizedWeights, injector: WeightFaultInjector, seed: int
) -> Optional[_Die]:
    """Sample one die of a persistent-mode trial, or ``None`` when it
    flips no bit (it then holds the clean codes, hence the clean
    predictions, and needs no forward pass)."""
    faulty = injector.inject(image, seed=seed)
    changed = [
        np.not_equal(a, b)
        for a, b in zip((*faulty.weight_codes, *faulty.bias_codes),
                        (*image.weight_codes, *image.bias_codes))
    ]
    if not any(c.any() for c in changed):
        return None
    n = image.n_layers  # changed[n]: the first layer's biases
    rows = np.flatnonzero(changed[0].any(axis=1) | changed[n])
    cols = np.flatnonzero(changed[1].any(axis=0)) if n > 1 else rows[:0]
    return _Die(faulty.dequantized(), rows, cols)


def _classify(reference: CleanReference, die: Optional[_Die]) -> float:
    """Accuracy of one sampled die (the baseline for a fault-free one)."""
    if die is None:
        return reference.accuracy
    predictions = reference.predictions(die)
    if predictions is None:
        predictions = reference.network.predict(
            reference.x_eval, params=die.params)
    return accuracy(predictions, reference.y_eval)


def _run_trials(
    reference: CleanReference,
    tasks: Sequence[Tuple[WeightFaultInjector, int]],
    lanes: int,
) -> List[float]:
    """The accuracy of each ``(injector, seed)`` task's persistent die,
    in task order, on ``lanes`` lanes (the calling thread plus helper
    threads; see :func:`evaluate_many_under_faults`)."""
    accuracies = [0.0] * len(tasks)
    failures: Dict[int, BaseException] = {}
    lock = threading.Lock()
    pending = iter(range(len(tasks)))

    def lane() -> None:
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                accuracies[i] = _classify(
                    reference, _sample(reference.image, *tasks[i]))
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    helpers = [threading.Thread(target=lane, daemon=True)
               for _ in range(min(lanes, len(tasks)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        lane()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return accuracies


def evaluate_under_faults(
    network: FeedforwardANN,
    image: QuantizedWeights,
    injector: Optional[WeightFaultInjector],
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    n_trials: int = 5,
    seed: SeedLike = None,
    mode: str = "persistent",
    batch_size: int = 200,
    reference: Optional[CleanReference] = None,
) -> FaultEvaluation:
    """Measure accuracy with and without injected faults.

    The clean quantized image defines the baseline (the paper's "8-bit
    nominal"); each trial injects an independent fault sample and
    classifies with it through ``network.predict``, which never writes
    the sample into ``network``.  ``injector=None`` runs only the
    baseline (returned as a single zero-drop trial).  ``reference`` is
    as in :func:`evaluate_many_under_faults`.

    Fault persistence (``mode``):

    * ``"persistent"`` (default, and the physically grounded choice) —
      one flip mask per trial: a ΔVT-failing cell fails on every access,
      so a trial models one fabricated die.
    * ``"transient"`` — a fresh flip mask per evaluation batch of
      ``batch_size`` samples, approximating per-access soft errors.
      Provided for the failure-model ablation; parametric SRAM failures
      are *not* transient, and the ablation shows how the two differ.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    if mode not in ("persistent", "transient"):
        raise ConfigurationError(
            f"mode must be 'persistent' or 'transient', got {mode!r}"
        )
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")

    reference = _reference_for(reference, network, image, x_eval, y_eval)
    baseline = reference.accuracy
    if injector is None:
        return FaultEvaluation(
            baseline_accuracy=baseline,
            trial_accuracies=(baseline,),
            expected_flips=0.0,
        )

    if mode == "persistent":
        trials = _run_trials(
            reference,
            [(injector, derive_seed(seed, trial)) for trial in range(n_trials)],
            1,
        )
    else:
        trials = []
        for trial in range(n_trials):
            correct = 0
            for bi, lo in enumerate(range(0, len(y_eval), batch_size)):
                faulty = injector.inject(
                    image, seed=derive_seed(seed, trial, bi)
                )
                batch_x = x_eval[lo:lo + batch_size]
                batch_y = y_eval[lo:lo + batch_size]
                predicted = network.predict(
                    batch_x, params=faulty.dequantized()
                )
                correct += int(np.sum(predicted == batch_y))
            trials.append(correct / len(y_eval))
    return FaultEvaluation(
        baseline_accuracy=baseline,
        trial_accuracies=tuple(trials),
        expected_flips=injector.expected_flips(image),
    )
