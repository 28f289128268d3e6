"""Tests of the benchmark specs, model training/caching and the simulator."""

import pytest

from repro.core import (
    CircuitToSystemSimulator,
    fast_ann_spec,
    paper_ann_spec,
    resolve_profile,
    train_benchmark_ann,
)
from repro.errors import ConfigurationError
from repro.mem.accounting import BASELINE_VDD_6T


class TestSpecs:
    def test_paper_spec_matches_table1(self):
        spec = paper_ann_spec()
        assert spec.layer_sizes == (784, 1000, 500, 200, 100, 10)
        assert spec.n_layers == 6
        assert spec.n_neurons == 2594
        assert spec.n_synapses == 1_406_810

    def test_fast_spec_same_shape(self):
        fast = fast_ann_spec()
        paper = paper_ann_spec()
        assert fast.n_layers == paper.n_layers
        assert fast.layer_sizes[0] == 784
        assert fast.layer_sizes[-1] == 10
        # Monotone taper like the paper network.
        hidden = fast.layer_sizes[1:-1]
        assert all(a > b for a, b in zip(hidden, hidden[1:]))

    def test_resolve_profile(self, monkeypatch):
        assert resolve_profile("paper").layer_sizes[1] == 1000
        monkeypatch.setenv("REPRO_PROFILE", "fast")
        assert resolve_profile().layer_sizes[1] == 300
        with pytest.raises(ConfigurationError):
            resolve_profile("huge")


class TestTrainedModel:
    def test_accuracy_is_high(self, model):
        assert model.float_accuracy > 0.95
        assert model.quantized_accuracy > 0.95

    def test_8bit_quantization_loss_below_paper_bound(self, model):
        """Paper Sec. VI: 8-bit precision loses <0.5% vs full precision."""
        assert abs(model.quantization_loss) < 0.005

    def test_weights_are_sub_unity(self, model):
        """The Q0.7 word layout requires |w| < 1 (projected SGD clip)."""
        assert model.image.fmt.frac_bits == 7
        for w in model.network.weight_matrices():
            assert abs(w).max() <= 1.0

    def test_layer_synapse_counts_sum(self, model):
        assert sum(model.layer_synapse_counts) == model.spec.n_synapses

    def test_cache_roundtrip(self, tmp_path):
        kwargs = dict(profile="fast", seed=3, n_train=300, n_val=100,
                      n_test=100, epochs=1, cache_dir=str(tmp_path))
        first = train_benchmark_ann(**kwargs)
        again = train_benchmark_ann(**kwargs)
        assert first.quantized_accuracy == again.quantized_accuracy
        import numpy as np

        for a, b in zip(first.network.weight_matrices(),
                        again.network.weight_matrices()):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_weight_cache_hit_builds_only_the_test_split(self, tmp_path, tables):
        """A warm build loads weights and generates only the test split;
        everything evaluation reads is byte-identical to the cold build."""
        kwargs = dict(profile="fast", seed=5, n_train=200, n_val=50,
                      n_test=120, epochs=1, cache_dir=str(tmp_path))
        cold = train_benchmark_ann(**kwargs)
        warm = train_benchmark_ann(**kwargs)
        assert len(cold.dataset.y_train) == 200
        assert len(cold.dataset.y_val) == 50
        for name in ("x_test", "y_test"):
            assert (getattr(warm.dataset, name).tobytes()
                    == getattr(cold.dataset, name).tobytes())
        for a, b in zip(cold.network.layers, warm.network.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()
        assert warm.image.fmt == cold.image.fmt
        for a, b in zip((*cold.image.weight_codes, *cold.image.bias_codes),
                        (*warm.image.weight_codes, *warm.image.bias_codes)):
            assert a.tobytes() == b.tobytes()
        assert warm.float_accuracy == cold.float_accuracy
        assert warm.quantized_accuracy == cold.quantized_accuracy
        assert len(warm.dataset.y_train) == len(warm.dataset.y_val) == 0
        assert warm.dataset.n_classes == 10
        clone = CircuitToSystemSimulator(warm, tables=tables).worker_clone()
        assert clone.model.dataset.x_test.tobytes() == cold.dataset.x_test.tobytes()
        assert clone.fingerprint() == CircuitToSystemSimulator(
            cold, tables=tables).fingerprint()


class TestSimulator:
    def test_rejects_bad_trials(self, model, tables):
        with pytest.raises(ConfigurationError):
            CircuitToSystemSimulator(model, tables=tables, n_trials=0)

    def test_baseline_memory_is_6t_at_0p75(self, sim):
        baseline = sim.baseline_memory()
        assert baseline.vdd == BASELINE_VDD_6T
        assert baseline.n_8t_cells == 0

    def test_memory_factories_bound_to_model(self, sim, model):
        mem = sim.config1_memory(0.65, msb_in_8t=3)
        assert mem.n_banks == model.image.n_layers
        assert mem.n_words == model.spec.n_synapses

    def test_evaluate_nominal_no_drop(self, sim):
        result = sim.evaluate(sim.base_memory(0.95), seed=1)
        assert result.accuracy_drop == pytest.approx(0.0, abs=0.002)

    def test_compare_defaults_to_iso_stability_baseline(self, sim):
        report = sim.compare(sim.config1_memory(0.65, 3))
        assert report.baseline_vdd == BASELINE_VDD_6T
