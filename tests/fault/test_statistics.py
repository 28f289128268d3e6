"""Statistical guarantees of the fault-injection measurement loop.

Two families of checks on :mod:`repro.fault.evaluate` and the injector
it drives:

* **Calibration** — the *sampled* flip counts agree with the *analytic*
  ``expected_flips`` within a binomial confidence interval, overall and
  per bit position.  A seeding or masking bug that injects at the wrong
  rate cannot pass this by luck at 4 sigma.
* **Null safety** — a configuration whose failure probabilities are all
  zero provably leaves the weights untouched: byte-equal code arrays,
  trial accuracies equal to the baseline, and the live network's
  parameter bytes unchanged.

Plus the bit-identity bridge: the batched
:func:`~repro.fault.evaluate.evaluate_many_under_faults` pass must
reproduce the sequential :func:`~repro.fault.evaluate.evaluate_under_faults`
loop exactly — the contract ``CircuitToSystemSimulator.evaluate_batch``
is built on — on any number of ``jobs`` lanes.
"""

import math
import sys
import weakref

import numpy as np
import pytest

from repro.fault.bitflip import flips_per_bit_position
from repro.fault.evaluate import (
    CleanReference,
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn.network import FeedforwardANN, NetworkSpec
from repro.nn.quantize import quantize_network
from repro.rng import derive_seed

N_BITS = 8


def make_rates(p_read, p_write=0.0, msb_in_8t=0, vdd=0.7):
    """Uniform-or-vector BitErrorRates without going through the tables."""
    p_read = np.broadcast_to(np.asarray(p_read, dtype=float), (N_BITS,)).copy()
    p_write = np.broadcast_to(np.asarray(p_write, dtype=float), (N_BITS,)).copy()
    return BitErrorRates(
        vdd=vdd, n_bits=N_BITS, msb_in_8t=msb_in_8t,
        p_read=p_read, p_write=p_write,
    )


def parameter_bytes(network):
    """The bytes of every weight and bias array, input side first."""
    return [array.tobytes() for layer in network.layers
            for array in (layer.weights, layer.biases)]


@pytest.fixture(scope="module")
def small_model():
    """A tiny trained-ish network + image (statistics need no accuracy)."""
    network = FeedforwardANN(NetworkSpec(layer_sizes=(12, 10, 4), seed=3))
    image = quantize_network(network, n_bits=N_BITS)
    rng = np.random.default_rng(7)
    x_eval = rng.random((40, 12))
    y_eval = rng.integers(0, 4, size=40)
    return network, image, x_eval, y_eval


class TestBinomialCalibration:
    def test_sampled_flips_match_expected_within_binomial_ci(self, small_model):
        network, image, _, _ = small_model
        p = 0.03
        injector = WeightFaultInjector(
            [make_rates(p) for _ in range(image.n_layers)]
        )
        expected_per_draw = injector.expected_flips(image)
        assert expected_per_draw == pytest.approx(
            image.total_synapses * N_BITS * p
        )

        n_draws = 40
        total = sum(
            injector.sample_flip_count(image, seed=1000 + i)
            for i in range(n_draws)
        )
        # Total flips ~ Binomial(n_draws * total_bits, p): 4-sigma band.
        n_bernoulli = n_draws * image.total_bits
        sigma = math.sqrt(n_bernoulli * p * (1 - p))
        assert abs(total - n_draws * expected_per_draw) < 4 * sigma

    def test_per_bit_position_rates_match_the_vector(self, small_model):
        _, image, _, _ = small_model
        # Config-1-shaped vector: LSBs fail, 3 protected MSBs never do.
        p_vector = np.array([0.05] * 5 + [0.0] * 3)
        injector = WeightFaultInjector(
            [make_rates(p_vector, msb_in_8t=3) for _ in range(image.n_layers)]
        )
        n_draws = 30
        position_counts = np.zeros(N_BITS, dtype=int)
        n_words = 0
        for i in range(n_draws):
            perturbed = injector.inject(image, seed=2000 + i)
            for clean, bad in zip(
                image.weight_codes + image.bias_codes,
                perturbed.weight_codes + perturbed.bias_codes,
            ):
                position_counts += flips_per_bit_position(clean ^ bad, N_BITS)
                n_words += clean.size

        # Protected positions: provably silent, not just unlikely.
        assert position_counts[5:].tolist() == [0, 0, 0]
        # Failing positions: inside the 4-sigma binomial band.
        for bit in range(5):
            mean = n_words * p_vector[bit]
            sigma = math.sqrt(n_words * p_vector[bit] * (1 - p_vector[bit]))
            assert abs(position_counts[bit] - mean) < 4 * sigma, (
                f"bit {bit}: {position_counts[bit]} flips vs {mean:.1f} expected"
            )

    def test_expected_flips_is_analytic_not_sampled(self, small_model):
        _, image, _, _ = small_model
        rates = make_rates(0.25, p_write=0.1)
        injector = WeightFaultInjector([rates] * image.n_layers)
        assert injector.expected_flips(image) == pytest.approx(
            image.total_synapses * float(rates.p_total.sum())
        )


class TestZeroProbabilityNull:
    def test_zero_rate_injection_is_the_identity(self, small_model):
        _, image, _, _ = small_model
        injector = WeightFaultInjector([make_rates(0.0)] * image.n_layers)
        assert injector.expected_flips(image) == 0.0
        perturbed = injector.inject(image, seed=11)
        for clean, bad in zip(image.weight_codes, perturbed.weight_codes):
            np.testing.assert_array_equal(clean, bad)
        for clean, bad in zip(image.bias_codes, perturbed.bias_codes):
            np.testing.assert_array_equal(clean, bad)

    def test_zero_rate_evaluation_leaves_network_and_accuracy_alone(
        self, small_model
    ):
        network, image, x_eval, y_eval = small_model
        injector = WeightFaultInjector([make_rates(0.0)] * image.n_layers)
        before = parameter_bytes(network)

        result = evaluate_under_faults(
            network, image, injector, x_eval, y_eval, n_trials=4, seed=5
        )
        assert result.expected_flips == 0.0
        assert set(result.trial_accuracies) == {result.baseline_accuracy}
        assert result.accuracy_drop == 0.0
        assert parameter_bytes(network) == before


class TestBatchedBitIdentity:
    def test_evaluate_many_matches_sequential_loop(self, small_model):
        network, image, x_eval, y_eval = small_model
        injectors = [
            None,
            WeightFaultInjector([make_rates(0.02)] * image.n_layers),
            WeightFaultInjector(
                [make_rates([0.08] * 5 + [0.0] * 3, msb_in_8t=3)]
                * image.n_layers
            ),
        ]
        specs = [
            FaultTrialSpec(injector=inj, n_trials=n, seed=seed)
            for inj, n, seed in zip(injectors, (1, 3, 5), (None, 42, 7))
        ]

        batched = evaluate_many_under_faults(
            network, image, specs, x_eval, y_eval
        )
        for spec, got in zip(specs, batched):
            reference = evaluate_under_faults(
                network, image, spec.injector, x_eval, y_eval,
                n_trials=spec.n_trials, seed=spec.seed,
            )
            assert got.baseline_accuracy == reference.baseline_accuracy
            assert got.trial_accuracies == reference.trial_accuracies
            assert got.expected_flips == reference.expected_flips

    def test_batch_restores_the_network(self, small_model):
        network, image, x_eval, y_eval = small_model
        injector = WeightFaultInjector([make_rates(0.3)] * image.n_layers)
        before = parameter_bytes(network)
        evaluate_many_under_faults(
            network, image,
            [FaultTrialSpec(injector=injector, n_trials=2, seed=1)],
            x_eval, y_eval,
        )
        assert parameter_bytes(network) == before

    def test_batch_rejects_nonpositive_trials(self, small_model):
        network, image, x_eval, y_eval = small_model
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="n_trials"):
            evaluate_many_under_faults(
                network, image,
                [FaultTrialSpec(injector=None, n_trials=0)],
                x_eval, y_eval,
            )


class TestThreadedTrials:
    """``evaluate_many_under_faults(..., jobs=N)`` samples and classifies
    the dies on N lanes and returns the serial bytes."""

    @staticmethod
    def _specs(image):
        layers = image.n_layers
        return [
            FaultTrialSpec(injector=None, n_trials=1, seed=None),
            # Zero rates: every die is the clean image (no forward pass).
            FaultTrialSpec(injector=WeightFaultInjector(
                [make_rates(0.0)] * layers), n_trials=2, seed=3),
            FaultTrialSpec(injector=WeightFaultInjector(
                [make_rates(0.02)] * layers), n_trials=3, seed=42),
            FaultTrialSpec(injector=None, n_trials=2, seed=9),
            FaultTrialSpec(injector=WeightFaultInjector(
                [make_rates([0.08] * 5 + [0.0] * 3, msb_in_8t=3)] * layers),
                n_trials=1, seed=7),
        ]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_any_thread_count_gives_the_serial_result(self, small_model, jobs):
        network, image, x_eval, y_eval = small_model
        specs = self._specs(image)  # 6 trials: 8 threads is more than that
        serial = evaluate_many_under_faults(
            network, image, specs, x_eval, y_eval, jobs=1
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = evaluate_many_under_faults(
                network, image, specs, x_eval, y_eval, jobs=jobs
            )
        finally:
            sys.setswitchinterval(interval)
        assert [r.to_dict() for r in threaded] == [r.to_dict() for r in serial]
        for spec, got in zip(specs, threaded):
            reference = evaluate_under_faults(
                network, image, spec.injector, x_eval, y_eval,
                n_trials=spec.n_trials, seed=spec.seed,
            )
            assert got.to_dict() == reference.to_dict()

    def test_single_trial_on_many_threads(self, small_model):
        network, image, x_eval, y_eval = small_model
        spec = [self._specs(image)[-1]]
        assert evaluate_many_under_faults(
            network, image, spec, x_eval, y_eval, jobs=3
        ) == evaluate_many_under_faults(network, image, spec, x_eval, y_eval)

    @pytest.mark.parametrize("mode", ["persistent", "transient"])
    def test_evaluation_never_writes_the_network(self, small_model, mode):
        network, image, x_eval, y_eval = small_model
        before = parameter_bytes(network)
        injector = WeightFaultInjector([make_rates(0.3)] * image.n_layers)
        evaluate_under_faults(network, image, injector, x_eval, y_eval,
                              n_trials=2, seed=4, mode=mode, batch_size=16)
        assert parameter_bytes(network) == before
        evaluate_many_under_faults(
            network, image, self._specs(image), x_eval, y_eval, jobs=2
        )
        assert parameter_bytes(network) == before

    def test_a_failing_trial_propagates(self, small_model):
        """A die whose sampling fails: the error reaches the caller."""
        network, image, x_eval, y_eval = small_model

        class Failing(WeightFaultInjector):
            def inject(self, image, seed=None):
                if seed == derive_seed(11, 2):
                    raise RuntimeError("trial 2 failed")
                return super().inject(image, seed=seed)

        specs = [FaultTrialSpec(
            injector=Failing([make_rates(0.02)] * image.n_layers),
            n_trials=5, seed=11,
        )]
        for jobs in (1, 2, 3, 8):
            with pytest.raises(RuntimeError, match="trial 2 failed"):
                evaluate_many_under_faults(
                    network, image, specs, x_eval, y_eval, jobs=jobs
                )

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_a_failing_classify_propagates(self, small_model, jobs,
                                           monkeypatch):
        network, image, x_eval, y_eval = small_model
        calls = []

        def failing(network, x, params=None):
            calls.append(len(x))
            if len(calls) == 3:
                raise RuntimeError("classify failed")
            return np.zeros(len(x), dtype=int)

        monkeypatch.setattr(FeedforwardANN, "predict", failing)
        specs = [FaultTrialSpec(
            injector=WeightFaultInjector([make_rates(0.02)] * image.n_layers),
            n_trials=6, seed=5,
        )]
        with pytest.raises(RuntimeError, match="classify failed"):
            evaluate_many_under_faults(
                network, image, specs, x_eval, y_eval, jobs=jobs,
                reference=CleanReference(network, image, x_eval, y_eval, 0.5),
            )

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_classified_dies_are_freed(self, small_model, jobs):
        """At most ``jobs`` sampled dies are alive at once: a lane drops
        its die as soon as it is classified, before it samples the next."""
        network, image, x_eval, y_eval = small_model
        alive = []
        peak = []

        def dropped():
            alive.pop()

        class Counting(WeightFaultInjector):
            def inject(self, image, seed=None):
                die = super().inject(image, seed=seed)
                dequantized = die.dequantized

                def tracked():
                    params = dequantized()
                    alive.append(None)
                    peak.append(len(alive))
                    weakref.finalize(params[0][0], dropped)
                    return params

                die.dequantized = tracked
                return die

        specs = [FaultTrialSpec(
            injector=Counting([make_rates(0.05)] * image.n_layers),
            n_trials=24, seed=8,  # more than 2 * 8 dies
        )]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            [result] = evaluate_many_under_faults(
                network, image, specs, x_eval, y_eval, jobs=jobs
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(peak) == 24  # every die flipped bits, so was sampled
        assert max(peak) <= jobs
        assert alive == []
        [serial] = evaluate_many_under_faults(
            network, image, specs, x_eval, y_eval
        )
        assert result == serial
