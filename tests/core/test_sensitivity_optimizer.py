"""Tests of the sensitivity analysis and the Config-2 MSB allocator."""

import numpy as np
import pytest

from repro.core import allocate_msbs, layer_sensitivity_profile
from repro.core.sensitivity import _layer_point
from repro.errors import ConfigurationError
from repro.nn.network import FeedforwardANN


@pytest.fixture(scope="module")
def profile(model):
    return layer_sensitivity_profile(model, stress_ber=0.05, n_trials=6, seed=21)


class TestSensitivityProfile:
    def test_profile_covers_all_layers(self, profile, model):
        assert len(profile.layers) == model.image.n_layers

    def test_aggregate_ranking_led_by_big_front_banks(self, profile):
        """Input + first-hidden banks hold most synapses and dominate the
        aggregate vulnerability (paper Sec. III-B)."""
        assert set(profile.ranking[:2]) == {0, 1}

    def test_per_synapse_hidden1_beats_input(self, profile):
        """Paper Sec. VI-C: 'the input layer is resilient relative to the
        first hidden layer' (per synapse)."""
        per_syn = profile.per_synapse_drops
        assert per_syn[1] > per_syn[0]

    def test_per_synapse_output_beats_central(self, profile):
        """Paper Sec. VI-C: 'the output layer is more sensitive than the
        central hidden layers' (per synapse)."""
        per_syn = profile.per_synapse_drops
        assert per_syn[-1] > per_syn[3]

    def test_normalized_in_unit_range(self, profile):
        norm = profile.normalized()
        assert norm.max() == pytest.approx(1.0)
        assert np.all(norm >= 0.0)

    def test_summary_mentions_layers(self, profile):
        assert "layer 0" in profile.summary()

    def test_stress_validation(self, model):
        with pytest.raises(ConfigurationError):
            layer_sensitivity_profile(model, stress_ber=0.0)


class TestEvalSubset:
    def test_one_clean_pass_per_profile(self, model, monkeypatch):
        """``eval_samples`` pays one clean pass over the subset for the
        whole profile, and the profile equals one whose every layer
        point made its own clean pass."""
        x_eval = model.dataset.x_test[:500]
        y_eval = model.dataset.y_test[:500]
        expected = tuple(
            _layer_point(model.network, model.image, x_eval, y_eval, 0.05, 1,
                         21, None, target)
            for target in range(model.image.n_layers)
        )
        clean_weights, clean_biases = model.image.dequantized()
        clean_passes = []
        original = FeedforwardANN.predict

        def spy(network, x, params=None):
            weights, biases = params
            if all(np.array_equal(a, b) for a, b in zip(
                    weights + biases, clean_weights + clean_biases)):
                clean_passes.append(len(x))
            return original(network, x, params=params)

        monkeypatch.setattr(FeedforwardANN, "predict", spy)
        profile = layer_sensitivity_profile(
            model, stress_ber=0.05, n_trials=1, seed=21, eval_samples=500,
            jobs=1,
        )
        assert clean_passes == [500]
        assert profile.layers == expected


class TestAllocator:
    @pytest.fixture(scope="class")
    def allocation(self, sim):
        return allocate_msbs(sim, vdd=0.65, max_accuracy_drop=0.01,
                             start_msb=3, n_trials=3, seed=22)

    def test_respects_accuracy_budget(self, allocation):
        assert allocation.evaluation.accuracy_drop <= 0.01

    def test_cheaper_than_uniform_start(self, sim, allocation):
        uniform = sim.compare(sim.config1_memory(0.65, 3))
        assert allocation.comparison.area_overhead_pct < uniform.area_overhead_pct

    def test_power_reduction_exceeds_uniform(self, sim, allocation):
        uniform = sim.compare(sim.config1_memory(0.65, 3))
        assert (allocation.comparison.access_power_reduction_pct
                >= uniform.access_power_reduction_pct)

    def test_allocation_shape(self, allocation, sim):
        alloc = allocation.msb_per_layer
        assert len(alloc) == len(sim.model.layer_synapse_counts)
        assert all(0 <= n <= 3 for n in alloc)
        assert "allocation" in allocation.summary()

    def test_infeasible_budget_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            allocate_msbs(sim, vdd=0.65, max_accuracy_drop=0.0,
                          start_msb=0, n_trials=2, seed=23)

    def test_bad_parameters_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            allocate_msbs(sim, max_accuracy_drop=1.5)
        with pytest.raises(ConfigurationError):
            allocate_msbs(sim, start_msb=-1)

    def test_zero_trials_rejected(self, sim):
        """An explicit ``n_trials=0`` is an error, not the default."""
        with pytest.raises(ConfigurationError, match="n_trials"):
            allocate_msbs(sim, vdd=0.65, n_trials=0)
