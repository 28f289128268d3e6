"""Accuracy measurement under injected synaptic faults.

``evaluate_under_faults`` is the system-level measurement loop of the
paper's simulator: for each trial, sample a faulty die (bit-flip masks)
and measure classification accuracy on the evaluation set with the
die's weights.  The caller's network is only read, never written.  A
sampled die with no flipped bit holds the clean image's codes, so its
accuracy is the baseline and its forward pass is skipped.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn.metrics import accuracy
from repro.nn.network import FeedforwardANN, Params
from repro.nn.quantize import QuantizedWeights
from repro.rng import SeedLike, derive_seed
from repro.runtime.executor import resolve_jobs


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

    def to_dict(self) -> Dict[str, Any]:
        """Wire form for distributed `fault_block` jobs.

        The injector serializes as its per-layer ``BitErrorRates``
        (``rates: None`` means baseline-only).  The seed must already be
        resolved to an integer or ``None`` so the serialized spec is a
        pure function of the trial streams it produces.
        """
        if not (self.seed is None or isinstance(self.seed, int)):
            raise ConfigurationError(
                "FaultTrialSpec.seed must be an int or None to serialize "
                f"(got {type(self.seed)!r}); resolve the seed first"
            )
        rates = (
            None
            if self.injector is None
            else [r.to_dict() for r in self.injector.layer_rates]
        )
        return {"rates": rates, "n_trials": int(self.n_trials), "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultTrialSpec":
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"FaultTrialSpec document must be a mapping, got {type(doc)!r}"
            )
        missing = {"rates", "n_trials", "seed"} - set(doc)
        if missing:
            raise ConfigurationError(
                f"FaultTrialSpec document missing fields: {sorted(missing)}"
            )
        rates = doc["rates"]
        if not (rates is None or isinstance(rates, (list, tuple))):
            raise ConfigurationError(
                f"FaultTrialSpec rates must be a list or None, got {type(rates)!r}"
            )
        injector = (
            None
            if rates is None
            else WeightFaultInjector([BitErrorRates.from_dict(r) for r in rates])
        )
        n_trials = doc["n_trials"]
        if isinstance(n_trials, bool) or not isinstance(n_trials, int) or n_trials < 1:
            raise ConfigurationError(
                f"FaultTrialSpec n_trials must be an int >= 1, got {n_trials!r}"
            )
        seed = doc["seed"]
        if not (seed is None or isinstance(seed, int)):
            raise ConfigurationError(
                f"FaultTrialSpec seed must be an int or None, got {type(seed)!r}"
            )
        return cls(injector=injector, n_trials=n_trials, seed=seed)


def evaluate_many_under_faults(
    network: FeedforwardANN,
    image: QuantizedWeights,
    specs: Sequence[FaultTrialSpec],
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    baseline: Optional[float] = None,
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

    ``baseline`` is the clean-image accuracy of ``image`` on the
    evaluation set when the caller already has it (the model's
    ``quantized_accuracy``, or an earlier call on the same network,
    image and set); the clean pass is then skipped.

    The trials of every spec form one task list.  Each trial is two
    stages: *sample* (inject the die's flips and dequantize it) and
    *classify* (``network.predict`` with the die's parameters; no trial
    writes to ``network``).  On ``resolve_jobs(jobs)`` threads (numpy's
    matmul and ufuncs release the GIL) an idle thread samples the next
    die while the others classify, and the accuracies are collected in
    task order, so the result is the same for any thread count.  An
    exception in a trial propagates once the running work finishes;
    work not yet started is cancelled.

    This is the vectorized fault-injection pass behind
    :meth:`repro.core.framework.CircuitToSystemSimulator.evaluate_batch`
    and the distributed ``fault_block`` job.
    """
    for spec in specs:
        if spec.n_trials <= 0:
            raise ConfigurationError(
                f"n_trials must be positive, got {spec.n_trials}"
            )

    if baseline is None:
        baseline = accuracy(
            network.predict(x_eval, params=image.dequantized()), y_eval
        )
    tasks = [
        (spec.injector, derive_seed(spec.seed, trial))
        for spec in specs if spec.injector is not None
        for trial in range(spec.n_trials)
    ]

    def classify(params: Optional[Params]) -> float:
        return _classify(network, params, x_eval, y_eval, baseline)

    threads = min(resolve_jobs(jobs), len(tasks))
    if threads <= 1:
        accuracies = [classify(_sample(image, *task)) for task in tasks]
    else:
        accuracies = _pipelined(image, tasks, classify, threads)

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
) -> Optional[Params]:
    """Sample one die of a persistent-mode trial: its dequantized
    parameters, or ``None`` when it flips no bit (it then holds the clean
    codes, hence the clean predictions, and needs no forward pass)."""
    faulty = injector.inject(image, seed=seed)
    if all(
        np.array_equal(a, b)
        for a, b in zip((*faulty.weight_codes, *faulty.bias_codes),
                        (*image.weight_codes, *image.bias_codes))
    ):
        return None
    return faulty.dequantized()


def _classify(
    network: FeedforwardANN,
    params: Optional[Params],
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    baseline: float,
) -> float:
    """Accuracy of one sampled die (``baseline`` for a fault-free one)."""
    if params is None:
        return baseline
    return accuracy(network.predict(x_eval, params=params), y_eval)


def _pipelined(
    image: QuantizedWeights,
    tasks: Sequence[Tuple[WeightFaultInjector, int]],
    classify: Callable[[Optional[Params]], float],
    threads: int,
) -> List[float]:
    """Sample and classify every task's die on ``threads`` threads
    (``threads <= len(tasks)``).

    The pool's queue is FIFO and the work goes in as S0..S(k-1), then
    C_i followed by S(i+k) (S = sample, C = classify, k = ``threads``),
    so a thread that finishes classifying samples the next die while
    the others classify.  C_i waits only on S_i, which the queue handed
    to a thread before C_i: no deadlock.  Each die is dropped once it is
    classified, so at most ``2 * threads`` sampled dies are alive.  The
    results come back in task order; the first failure in that order
    propagates once the running work finishes, and work not yet started
    is cancelled.
    """
    samples: Dict[int, Future] = {}

    def classify_die(i: int) -> float:
        return classify(samples.pop(i).result())

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for i in range(threads):
            samples[i] = pool.submit(_sample, image, *tasks[i])
        classified: List[Future] = []
        for i in range(len(tasks)):
            classified.append(pool.submit(classify_die, i))
            if i + threads < len(tasks):
                samples[i + threads] = pool.submit(
                    _sample, image, *tasks[i + threads])
        return [future.result() for future in classified]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
) -> FaultEvaluation:
    """Measure accuracy with and without injected faults.

    The clean quantized image defines the baseline (the paper's "8-bit
    nominal"); each trial injects an independent fault sample and
    classifies with it through ``network.predict``, which never writes
    the sample into ``network``.  ``injector=None`` runs only the
    baseline (returned as a single zero-drop trial).

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

    baseline = accuracy(
        network.predict(x_eval, params=image.dequantized()), y_eval
    )
    if injector is None:
        return FaultEvaluation(
            baseline_accuracy=baseline,
            trial_accuracies=(baseline,),
            expected_flips=0.0,
        )

    trials: List[float] = []
    for trial in range(n_trials):
        if mode == "persistent":
            die = _sample(image, injector, derive_seed(seed, trial))
            trials.append(_classify(network, die, x_eval, y_eval, baseline))
        else:
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
