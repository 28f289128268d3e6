"""Per-layer synaptic sensitivity analysis (paper Sec. VI-C / Fig. 9).

The sensitivity-driven architecture rests on an empirical ranking: how
much does classification accuracy drop when *only* the synapses fanning
out of layer ``i`` are corrupted?  The paper's intuitions, which this
analysis reproduces and the benchmarks assert:

1. the first hidden layer's fan-out is the most sensitive (low-level
   feature extraction),
2. the synapses fanning into the output layer are next (errors hit the
   classifier output directly),
3. the input layer's fan-out is *less* sensitive than the first hidden
   layer's (boundary pixels carry no information),
4. the central hidden layers are the most resilient.

The stress applies a uniform bit-error rate to every bit of the target
layer's words — deliberately memory-configuration-independent, so the
ranking measures the *network's* structure, not a particular SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.core.framework import TrainedModel
from repro.errors import ConfigurationError
from repro.fault.evaluate import CleanReference, evaluate_under_faults
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn.network import FeedforwardANN
from repro.nn.quantize import QuantizedWeights
from repro.rng import SeedLike, derive_seed, resolve_seed
from repro.runtime import SweepExecutor

#: Default stress BER for the ranking; strong enough to separate the
#: small output bank from the noise floor, weak enough to keep every
#: layer's accuracy far above chance.
DEFAULT_STRESS_BER = 0.05


@dataclass(frozen=True)
class LayerSensitivity:
    """Sensitivity of one weight layer's fan-in synapses."""

    layer_index: int
    n_synapses: int
    baseline_accuracy: float
    stressed_accuracy: float

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.stressed_accuracy

    @property
    def drop_pct(self) -> float:
        return 100.0 * self.accuracy_drop


@dataclass(frozen=True)
class SensitivityProfile:
    """Sensitivity of every weight layer under a common stress."""

    stress_ber: float
    layers: tuple

    @property
    def drops(self) -> np.ndarray:
        return np.array([l.accuracy_drop for l in self.layers])

    @property
    def ranking(self) -> tuple:
        """Layer indices from most to least sensitive (aggregate drop).

        Aggregate sensitivity is dominated by bank size: the input and
        first-hidden banks hold most of the synapses (paper: "a
        reasonable fraction of the synapses are concentrated in the
        input and the initial hidden layers").
        """
        return tuple(int(i) for i in np.argsort(-self.drops))

    @property
    def per_synapse_drops(self) -> np.ndarray:
        """Accuracy drop per corrupted synapse — the quantity behind the
        paper's per-layer protection choices: the first hidden layer's
        fan-out beats the input's, and the output layer's fan-in beats
        the central hidden layers (Sec. VI-C intuitions 1 and 2)."""
        counts = np.array([l.n_synapses for l in self.layers], dtype=float)
        return self.drops / counts

    @property
    def per_synapse_ranking(self) -> tuple:
        """Layer indices from most to least sensitive per synapse."""
        return tuple(int(i) for i in np.argsort(-self.per_synapse_drops))

    def most_sensitive(self) -> int:
        return self.ranking[0]

    def least_sensitive(self) -> int:
        return self.ranking[-1]

    def normalized(self) -> np.ndarray:
        """Drops scaled to [0, 1] (used by the MSB allocator)."""
        drops = np.maximum(self.drops, 0.0)
        peak = drops.max()
        return drops / peak if peak > 0 else drops

    def summary(self) -> str:
        rows = [
            f"  layer {l.layer_index}: drop {l.drop_pct:6.2f}% "
            f"({l.n_synapses} synapses)"
            for l in self.layers
        ]
        return (
            f"sensitivity @ BER {self.stress_ber}:\n" + "\n".join(rows)
        )


def _uniform_rates(n_bits: int, ber: float) -> BitErrorRates:
    return BitErrorRates(
        vdd=float("nan"),
        n_bits=n_bits,
        msb_in_8t=0,
        p_read=np.full(n_bits, ber),
        p_write=np.zeros(n_bits),
    )


def _zero_rates(n_bits: int) -> BitErrorRates:
    return BitErrorRates(
        vdd=float("nan"),
        n_bits=n_bits,
        msb_in_8t=0,
        p_read=np.zeros(n_bits),
        p_write=np.zeros(n_bits),
    )


def _layer_point(
    network: FeedforwardANN,
    image: QuantizedWeights,
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    stress_ber: float,
    n_trials: int,
    base_seed: int,
    baseline: float,
    target: int,
) -> LayerSensitivity:
    """Worker entry point: stress one layer, measure the accuracy drop."""
    n_bits = image.fmt.n_bits
    n_layers = image.n_layers
    rates = [
        _uniform_rates(n_bits, stress_ber) if i == target else _zero_rates(n_bits)
        for i in range(n_layers)
    ]
    injector = WeightFaultInjector(rates)
    result = evaluate_under_faults(
        network, image, injector, x_eval, y_eval,
        n_trials=n_trials, seed=derive_seed(base_seed, target),
        reference=CleanReference(network, image, x_eval, y_eval, baseline),
    )
    return LayerSensitivity(
        layer_index=target,
        n_synapses=image.layer_synapse_count(target),
        baseline_accuracy=result.baseline_accuracy,
        stressed_accuracy=result.mean_accuracy,
    )


def layer_sensitivity_profile(
    model: TrainedModel,
    stress_ber: float = DEFAULT_STRESS_BER,
    n_trials: int = 5,
    seed: SeedLike = None,
    eval_samples: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SensitivityProfile:
    """Measure the per-layer sensitivity ranking of a trained model.

    One layer at a time receives a uniform ``stress_ber`` over all bit
    positions while every other layer stays clean; the accuracy drop is
    averaged over ``n_trials`` fault samples.  ``eval_samples`` limits
    the evaluation set for speed (default: the full test split).  The
    per-layer stresses are independent and seeded by the target layer,
    so ``jobs`` fans them across a worker pool (each worker receives
    only the network, the weight image and the evaluation split — not
    the training data) with bit-identical results.
    """
    if not 0.0 < stress_ber <= 1.0:
        raise ConfigurationError(
            f"stress_ber must lie in (0, 1], got {stress_ber}"
        )
    n_layers = model.image.n_layers
    x_eval = model.dataset.x_test
    y_eval = model.dataset.y_test
    # The model's baseline is that of the full test split; a subset's
    # takes one clean pass here, shared by every layer point.
    baseline = model.quantized_accuracy
    if eval_samples is not None:
        x_eval = x_eval[:eval_samples]
        y_eval = y_eval[:eval_samples]
        baseline = CleanReference(
            model.network, model.image, x_eval, y_eval
        ).accuracy

    worker = partial(
        _layer_point, model.network, model.image, x_eval, y_eval,
        stress_ber, n_trials, resolve_seed(seed), baseline,
    )
    layers = SweepExecutor(jobs).map(worker, range(n_layers))
    return SensitivityProfile(stress_ber=stress_ber, layers=tuple(layers))
