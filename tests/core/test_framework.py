"""Tests of the benchmark specs, model training/caching and the simulator."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.core.framework as framework

from repro.core import (
    CircuitToSystemSimulator,
    allocate_msbs,
    fast_ann_spec,
    paper_ann_spec,
    resolve_profile,
    train_benchmark_ann,
)
from repro.errors import ConfigurationError, DatasetError
from repro.fault.evaluate import evaluate_under_faults
from repro.mem.accounting import BASELINE_VDD_6T
from repro.nn.datasets import load_test_split
from repro.nn.network import FeedforwardANN


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
        # Both builds keep only the test split once training is done.
        assert len(cold.dataset.y_train) == len(cold.dataset.y_val) == 0
        assert len(cold.dataset.x_train) == len(cold.dataset.x_val) == 0
        for name in ("x_test", "y_test"):
            w, c = getattr(warm.dataset, name), getattr(cold.dataset, name)
            assert (w.dtype, w.shape) == (c.dtype, c.shape)
            assert w.tobytes() == c.tobytes()
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

    def test_bad_repro_jobs_is_a_configuration_error(self, model, tables,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            CircuitToSystemSimulator(model, tables=tables)
        assert CircuitToSystemSimulator(model, tables=tables, jobs=2).jobs == 2

    def test_zero_trials_rejected(self, sim):
        """An explicit ``n_trials=0`` is an error, not the default."""
        with pytest.raises(ConfigurationError):
            sim.evaluate(sim.base_memory(0.70), n_trials=0)
        with pytest.raises(ConfigurationError):
            sim.evaluate_batch([(sim.base_memory(0.70), 0, 1)])


class TestEvaluateBatch:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_mixed_batch_equals_per_item_evaluate(self, model, tables, jobs):
        """Element ``i`` of a batch mixing configurations, trial counts
        and seeds is ``evaluate(*items[i])``, field for field."""
        sim = CircuitToSystemSimulator(model, tables=tables, n_trials=2,
                                       jobs=jobs)
        items = [
            (sim.memory_for("base", 0.70), None, 1),
            (sim.memory_for("config1", 0.65, msb_in_8t=3), 3, 7),
            (sim.memory_for("config2", 0.65, msb_per_layer=(2, 3, 1, 1, 3)),
             1, 11),
            (sim.memory_for("base", 0.95), 2, 5),
            (sim.memory_for("base", 0.70), 2, 1),
        ]
        batch = sim.evaluate_batch(items)
        assert len(batch) == len(items)
        for item, got in zip(items, batch):
            want = sim.evaluate(*item)
            for field in dataclasses.fields(want):
                assert (getattr(got, field.name)
                        == getattr(want, field.name)), field.name


class TestBaselineMemo:
    """The clean-image baseline is computed once per simulator."""

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        original = FeedforwardANN.predict

        def counting(network, x, *args, **kwargs):
            calls.append(len(x))
            return original(network, x, *args, **kwargs)

        monkeypatch.setattr(FeedforwardANN, "predict", counting)
        return calls

    def test_allocate_pays_one_clean_pass(self, model, tables, predict_calls):
        fresh = CircuitToSystemSimulator(model, tables=tables, n_trials=3)
        result = allocate_msbs(fresh, vdd=0.65, max_accuracy_drop=0.01,
                               start_msb=3, n_trials=2, seed=22)
        assert result.evaluations_run > 1
        # The baseline is the model's quantized_accuracy: no clean pass.
        assert len(predict_calls) == 2 * result.evaluations_run
        before = len(predict_calls)
        fresh.evaluate(fresh.base_memory(0.70), seed=3)
        assert len(predict_calls) - before == fresh.n_trials

    def test_memoized_baseline_changes_no_number(self, model, tables):
        warm = CircuitToSystemSimulator(model, tables=tables, n_trials=2)
        warm.evaluate(warm.base_memory(0.95), seed=1)
        memory = warm.config1_memory(0.65, 2)
        cold = CircuitToSystemSimulator(model, tables=tables, n_trials=2)
        assert (warm.evaluate(memory, seed=4).to_dict()
                == cold.evaluate(memory, seed=4).to_dict())

    def test_baseline_is_a_clean_pass(self, model, sim):
        """The baseline the simulator reuses is what a clean pass on the
        test split measures."""
        clean = evaluate_under_faults(
            model.network, model.image, None,
            model.dataset.x_test, model.dataset.y_test,
        )
        memory = sim.config1_memory(0.65, 2)
        assert sim.evaluate(memory, seed=4).baseline_accuracy == (
            clean.baseline_accuracy)

    def test_fault_free_memory_pays_no_pass(self, sim, predict_calls):
        """At 0.95 V no cell fails: every sampled die is the clean image,
        so each trial reads the baseline and no pass runs."""
        result = sim.evaluate(sim.base_memory(0.95), seed=1)
        assert predict_calls == []
        assert result.trial_accuracies == (
            (result.baseline_accuracy,) * sim.n_trials)


class TestCacheFiles:
    """The weight cache and the test-split cache: hits, misses, torn
    files and ``use_cache=False``."""

    KWARGS = dict(profile="fast", seed=6, n_train=200, n_val=50,
                  n_test=80, epochs=1)

    @staticmethod
    def _files(directory, prefix):
        return sorted(p for p in directory.iterdir()
                      if p.name.startswith(prefix))

    @pytest.fixture
    def cold(self, tmp_path):
        return train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        original = FeedforwardANN.predict

        def counting(network, x, *args, **kwargs):
            calls.append(len(x))
            return original(network, x, *args, **kwargs)

        monkeypatch.setattr(FeedforwardANN, "predict", counting)
        return calls

    def test_cold_run_writes_both_files_atomically(self, tmp_path, cold):
        assert len(self._files(tmp_path, "ann_")) == 1
        assert len(self._files(tmp_path, "digits_")) == 1
        assert self._files(tmp_path, ".") == []  # no temp file left

    def test_cold_run_writes_the_accuracy_entry(self, tmp_path, cold):
        [entry] = self._files(tmp_path, "acc-")
        assert json.loads(entry.read_text())["value"] == {
            "float_accuracy": cold.float_accuracy,
            "quantized_accuracy": cold.quantized_accuracy,
        }

    def test_accuracy_hit_runs_no_forward_pass(self, tmp_path, cold,
                                               predict_calls):
        warm = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        assert predict_calls == []
        fresh = train_benchmark_ann(**self.KWARGS, use_cache=False)
        assert len(predict_calls) == 2
        for model in (warm, cold):
            assert model.float_accuracy == fresh.float_accuracy
            assert model.quantized_accuracy == fresh.quantized_accuracy
        assert type(warm.quantized_accuracy) is float
        assert self._files(tmp_path, ".") == []

    @pytest.mark.parametrize("damage", ["missing", "torn", "not_an_object",
                                        "wrong_field"])
    def test_damaged_accuracy_entry_is_recomputed_and_rewritten(
            self, tmp_path, cold, predict_calls, damage):
        [entry] = self._files(tmp_path, "acc-")
        good = json.loads(entry.read_bytes())["value"]
        if damage == "missing":
            entry.unlink()
        else:
            text = entry.read_bytes()
            entry.write_bytes({"torn": text[:len(text) // 2],
                               "not_an_object": b"[0.5, 0.5]",
                               "wrong_field": b'{"float_accuracy": 0.5}',
                               }[damage])
        warm = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        assert len(predict_calls) == 2
        assert json.loads(entry.read_bytes())["value"] == good
        assert warm.quantized_accuracy == cold.quantized_accuracy
        assert warm.float_accuracy == cold.float_accuracy

    @pytest.mark.parametrize("split", ["n_train", "n_val", "n_test"])
    def test_nonpositive_split_size_is_rejected(self, tmp_path, cold, split):
        """Also on a warm cache, where the val split is never rendered."""
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(DatasetError, match="split sizes"):
            train_benchmark_ann(**dict(self.KWARGS, **{split: 0}),
                                cache_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_n_bits_and_split_select_their_own_entry(self, tmp_path, cold):
        variants = [dict(self.KWARGS, n_bits=6),
                    dict(self.KWARGS, n_test=60)]
        for i, kwargs in enumerate(variants, start=2):
            cached = train_benchmark_ann(**kwargs, cache_dir=str(tmp_path))
            assert len(self._files(tmp_path, "acc-")) == i
            fresh = train_benchmark_ann(**kwargs, use_cache=False)
            assert cached.float_accuracy == fresh.float_accuracy
            assert cached.quantized_accuracy == fresh.quantized_accuracy
        assert len(self._files(tmp_path, "ann_")) == 1
        assert len(self._files(tmp_path, "digits_")) == 2

    def test_hit_loads_split_byte_equal_to_rendering(self, tmp_path, cold,
                                                     monkeypatch):
        def no_render(**kwargs):
            raise AssertionError("rendered the test split on a cache hit")

        monkeypatch.setattr(framework, "load_test_split", no_render)
        warm = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        rendered = load_test_split(n_test=80, seed=6)
        for name in ("x_test", "y_test"):
            got, want = getattr(warm.dataset, name), getattr(rendered, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert warm.quantized_accuracy == cold.quantized_accuracy

    def test_missing_split_is_rendered_and_written(self, tmp_path, cold):
        [split] = self._files(tmp_path, "digits_")
        split.unlink()
        warm = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        assert split.exists()
        assert warm.dataset.x_test.tobytes() == cold.dataset.x_test.tobytes()

    @pytest.mark.parametrize("prefix", ["ann_", "digits_"])
    def test_flipped_byte_is_a_miss_and_is_rewritten(self, tmp_path, cold,
                                                     prefix):
        """Both files are stored uncompressed; a flipped byte inside a
        member fails the zip CRC-32 check and the file is rebuilt."""
        [path] = self._files(tmp_path, prefix)
        good = path.read_bytes()
        damaged = bytearray(good)
        damaged[len(good) // 2] ^= 0x01
        path.write_bytes(bytes(damaged))
        healed = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        assert path.read_bytes() == good
        for a, b in zip(healed.network.layers, cold.network.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
        assert healed.dataset.x_test.tobytes() == cold.dataset.x_test.tobytes()

    def test_compressed_weight_file_still_loads(self, tmp_path, cold,
                                                monkeypatch):
        [path] = self._files(tmp_path, "ann_")
        with np.load(path) as payload:
            arrays = dict(payload)
        np.savez_compressed(path, **arrays)

        def no_training(*args, **kwargs):
            raise AssertionError("retrained on a readable weight file")

        monkeypatch.setattr(framework.SGDTrainer, "train", no_training)
        warm = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        for a, b in zip(warm.network.layers, cold.network.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()

    @pytest.mark.parametrize("prefix", ["ann_", "digits_"])
    def test_truncated_file_is_a_miss_and_is_rewritten(self, tmp_path, cold,
                                                       prefix):
        [path] = self._files(tmp_path, prefix)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        healed = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        assert path.stat().st_size == size
        again = train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path))
        for model in (healed, again):
            for a, b in zip(model.network.layers, cold.network.layers):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.biases.tobytes() == b.biases.tobytes()
            assert (model.dataset.x_test.tobytes()
                    == cold.dataset.x_test.tobytes())
            assert model.quantized_accuracy == cold.quantized_accuracy

    def test_no_cache_reads_and_writes_nothing(self, tmp_path, cold,
                                               monkeypatch):
        reads = []
        monkeypatch.setattr(framework, "_load_npz",
                            lambda *args: reads.append(args))
        monkeypatch.setattr(framework.ResultCache, "get",
                            lambda *args: reads.append(args))
        empty = tmp_path / "empty"
        empty.mkdir()
        train_benchmark_ann(**self.KWARGS, cache_dir=str(empty),
                            use_cache=False)
        train_benchmark_ann(**self.KWARGS, cache_dir=str(tmp_path),
                            use_cache=False)
        assert list(empty.iterdir()) == []
        assert reads == []

    @staticmethod
    def _run_build_sim(cache_dir, flags, probe):
        """Run a small ``_build_sim`` in a fresh interpreter and print
        ``probe`` (a Python expression) after it."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "REPRO_CACHE_DIR": str(cache_dir)}
        script = (
            "import functools, sys\n"
            "import repro.cli as cli\n"
            "from repro.runtime import executor\n"
            "cli.train_benchmark_ann = functools.partial(\n"
            "    cli.train_benchmark_ann, n_train=200, n_val=50, n_test=80,\n"
            "    epochs=1)\n"
            "cli._build_sim(cli.build_parser().parse_args(\n"
            f"    ['hybrid', '--samples', '2000', '--trials', '1', *{flags!r}]))\n"
            f"print({probe})\n"
        )
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    def test_build_sim_imports_no_scipy_ndimage(self, tmp_path):
        """Neither a cold ``_build_sim``, which renders, nor a warm one,
        which does not, imports scipy.ndimage: the renderer is numpy."""
        runs = [self._run_build_sim(tmp_path, [],
                                    "'scipy.ndimage' in sys.modules")
                for _ in ("cold", "warm")]
        assert runs == ["False", "False"]

    def test_cold_build_sim_leaves_scipy_to_the_tables_child(self, tmp_path):
        """At ``--jobs 2`` a cold ``_build_sim`` trains in this process
        and builds the tables in one pool child, so this process imports
        no scipy module at all."""
        probe = ("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                 "len(executor._pool._processes)")
        assert self._run_build_sim(tmp_path, ["--jobs", "2"], probe) == "[] 1"
