"""Tests of fault injection into quantized networks and the evaluation loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fault.evaluate import (
    CleanReference,
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn import FeedforwardANN, NetworkSpec, quantize_network
from repro.nn.metrics import accuracy
from repro.rng import derive_seed


def uniform_rates(p, n_bits=8, msb_in_8t=0):
    return BitErrorRates(
        vdd=0.65, n_bits=n_bits, msb_in_8t=msb_in_8t,
        p_read=np.full(n_bits, p), p_write=np.zeros(n_bits),
    )


def protected_rates(p, msb_in_8t, n_bits=8):
    p_read = np.full(n_bits, p)
    p_read[n_bits - msb_in_8t:] = 0.0
    return BitErrorRates(
        vdd=0.65, n_bits=n_bits, msb_in_8t=msb_in_8t,
        p_read=p_read, p_write=np.zeros(n_bits),
    )


@pytest.fixture()
def small_net():
    return FeedforwardANN(NetworkSpec(layer_sizes=(16, 12, 4), seed=5))


@pytest.fixture()
def image(small_net):
    return quantize_network(small_net, n_bits=8)


class TestInjector:
    def test_layer_count_must_match(self, image):
        injector = WeightFaultInjector([uniform_rates(0.1)])
        with pytest.raises(ConfigurationError):
            injector.inject(image)

    def test_word_width_must_match(self, small_net):
        image6 = quantize_network(small_net, n_bits=6)
        injector = WeightFaultInjector([uniform_rates(0.1, n_bits=8)] * 2)
        with pytest.raises(ConfigurationError):
            injector.inject(image6)

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightFaultInjector([uniform_rates(0.1, 8), uniform_rates(0.1, 6)])

    def test_zero_rate_is_identity(self, image):
        injector = WeightFaultInjector([uniform_rates(0.0)] * 2)
        out = injector.inject(image, seed=1)
        for a, b in zip(out.weight_codes, image.weight_codes):
            np.testing.assert_array_equal(a, b)

    def test_original_image_untouched(self, image):
        injector = WeightFaultInjector([uniform_rates(0.5)] * 2)
        before = [c.copy() for c in image.weight_codes]
        injector.inject(image, seed=2)
        for a, b in zip(image.weight_codes, before):
            np.testing.assert_array_equal(a, b)

    def test_protected_msbs_never_flip(self, image):
        injector = WeightFaultInjector([protected_rates(1.0, msb_in_8t=3)] * 2)
        out = injector.inject(image, seed=3)
        for clean, bad in zip(image.weight_codes, out.weight_codes):
            diff = clean ^ bad
            assert np.all((diff >> 5) == 0), "a protected MSB flipped"
            assert diff.any(), "exposed LSBs should have flipped at p=1"

    def test_expected_flips_analytic(self, image):
        injector = WeightFaultInjector([uniform_rates(0.25)] * 2)
        expected = injector.expected_flips(image)
        assert expected == pytest.approx(image.total_synapses * 8 * 0.25)

    def test_sampled_flips_near_expectation(self, image):
        injector = WeightFaultInjector([uniform_rates(0.25)] * 2)
        count = injector.sample_flip_count(image, seed=4)
        expected = injector.expected_flips(image)
        assert count == pytest.approx(expected, rel=0.2)

    def test_deterministic_given_seed(self, image):
        injector = WeightFaultInjector([uniform_rates(0.3)] * 2)
        a = injector.inject(image, seed=7)
        b = injector.inject(image, seed=7)
        for ca, cb in zip(a.weight_codes, b.weight_codes):
            np.testing.assert_array_equal(ca, cb)


class TestEvaluateUnderFaults:
    def _data(self, net, n=64):
        rng = np.random.default_rng(0)
        x = rng.random((n, net.spec.layer_sizes[0]))
        y = rng.integers(0, net.spec.layer_sizes[-1], n)
        return x, y

    def test_network_restored_after_evaluation(self, small_net, image):
        x, y = self._data(small_net)
        before = [w.copy() for w in small_net.weight_matrices()]
        injector = WeightFaultInjector([uniform_rates(0.5)] * 2)
        evaluate_under_faults(small_net, image, injector, x, y, n_trials=2, seed=1)
        for w_before, w_after in zip(before, small_net.weight_matrices()):
            np.testing.assert_array_equal(w_before, w_after)

    def test_baseline_only_mode(self, small_net, image):
        x, y = self._data(small_net)
        result = evaluate_under_faults(small_net, image, None, x, y)
        assert result.n_trials == 1
        assert result.accuracy_drop == pytest.approx(0.0)
        assert result.expected_flips == 0.0

    def test_zero_faults_match_baseline(self, small_net, image):
        x, y = self._data(small_net)
        injector = WeightFaultInjector([uniform_rates(0.0)] * 2)
        result = evaluate_under_faults(small_net, image, injector, x, y,
                                       n_trials=3, seed=2)
        assert result.mean_accuracy == pytest.approx(result.baseline_accuracy)
        assert result.std_accuracy == pytest.approx(0.0)

    def test_trials_recorded(self, small_net, image):
        x, y = self._data(small_net)
        injector = WeightFaultInjector([uniform_rates(0.3)] * 2)
        result = evaluate_under_faults(small_net, image, injector, x, y,
                                       n_trials=4, seed=3)
        assert result.n_trials == 4
        assert 0.0 <= result.min_accuracy <= 1.0
        assert "acc" in result.summary()

    def test_rejects_nonpositive_trials(self, small_net, image):
        x, y = self._data(small_net)
        with pytest.raises(ConfigurationError):
            evaluate_under_faults(small_net, image, None, x, y, n_trials=0)


class TestFaultFreeTrials:
    """A sampled die with no flipped bit is not loaded or classified; its
    accuracy is the baseline, as a full pass would measure."""

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        original = FeedforwardANN.predict

        def counting(network, x, *args, **kwargs):
            calls.append(len(x))
            return original(network, x, *args, **kwargs)

        monkeypatch.setattr(FeedforwardANN, "predict", counting)
        return calls

    def _data(self, net, n=64):
        rng = np.random.default_rng(1)
        x = rng.random((n, net.spec.layer_sizes[0]))
        y = rng.integers(0, net.spec.layer_sizes[-1], n)
        return x, y

    @staticmethod
    def _reference(net, image, injector, x, y, n_trials, seed):
        """Every trial loaded and classified, whatever its flips."""
        image.apply_to(net)
        baseline = accuracy(net.predict(x), y)
        trials, flipped = [], []
        for trial in range(n_trials):
            trial_seed = derive_seed(seed, trial)
            faulty = injector.inject(image, seed=trial_seed)
            faulty.apply_to(net)
            trials.append(accuracy(net.predict(x), y))
            flipped.append(injector.sample_flip_count(image, trial_seed) > 0)
        return baseline, tuple(trials), flipped

    def test_zero_rate_trials_pay_no_pass(self, small_net, image, predict_calls):
        x, y = self._data(small_net)
        injector = WeightFaultInjector([uniform_rates(0.0)] * 2)
        result = evaluate_under_faults(small_net, image, injector, x, y,
                                       n_trials=4, seed=2)
        assert len(predict_calls) == 1  # the baseline pass only
        assert result.trial_accuracies == (result.baseline_accuracy,) * 4
        spec = FaultTrialSpec(injector=injector, n_trials=4, seed=2)
        [batched] = evaluate_many_under_faults(
            small_net, image, [spec], x, y,
            reference=CleanReference(small_net, image, x, y,
                                     result.baseline_accuracy),
        )
        assert len(predict_calls) == 1
        assert batched == result

    def test_mixed_trials_equal_full_passes(self, small_net, image,
                                            predict_calls, certified_dies):
        """At ~0.4 expected flips per die some trials flip nothing and
        some flip bits; both paths equal a loop that classifies every
        die, and only the dies with flips are classified, each once:
        by a full pass or from the clean activations."""
        x, y = self._data(small_net)
        net = FeedforwardANN(small_net.spec)
        injector = WeightFaultInjector([uniform_rates(2e-4)] * 2)
        baseline, trials, flipped = self._reference(
            net, image, injector, x, y, n_trials=12, seed=7)
        assert 0 < sum(flipped) < len(flipped)
        del predict_calls[:]
        single = evaluate_under_faults(small_net, image, injector, x, y,
                                       n_trials=12, seed=7)
        assert len(predict_calls) + len(certified_dies) == 1 + sum(flipped)
        spec = FaultTrialSpec(injector=injector, n_trials=12, seed=7)
        [batched] = evaluate_many_under_faults(small_net, image, [spec], x, y)
        assert single.baseline_accuracy == batched.baseline_accuracy == baseline
        assert single.trial_accuracies == batched.trial_accuracies == trials
        assert single.to_dict() == batched.to_dict()
