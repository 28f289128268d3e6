"""Benchmark ANN profiles and the end-to-end circuit-to-system simulator.

Paper Table I specifies the benchmark network only by totals — 6 layers,
2594 neurons, 1,406,810 synapses on MNIST.  The layer widths are uniquely
recoverable from the Table I totals: ``784-1000-500-200-100-10`` with biases
reproduces both totals exactly; that is :func:`paper_ann_spec`.

Because training the 1.4M-synapse network in pure numpy takes a while,
the default *fast* profile keeps the same depth and tapering shape at
roughly one fifth the width (``784-300-150-80-40-10``).  All accuracy
trends the paper relies on (MSB sensitivity, per-layer resilience
ordering) are depth/shape properties and survive the shrink; set
``REPRO_PROFILE=paper`` to run everything at paper scale.

:class:`CircuitToSystemSimulator` glues the layers of the repository
together exactly as the paper's Sec. V describes: bitcell Monte Carlo →
failure probabilities → memory configuration → bit-level fault injection
→ classification accuracy, plus the power/area accounting.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.fault.evaluate import (
    CleanReference,
    FaultEvaluation,
    FaultTrialSpec,
    evaluate_many_under_faults,
)
from repro.mem.accounting import (
    BASELINE_VDD_6T,
    ComparisonReport,
    compare_architectures,
)
from repro.mem.architecture import SynapticMemoryArchitecture
from repro.mem.configs import (
    base_architecture,
    config1_architecture,
    config2_architecture,
)
from repro.mem.tables import CellTables
from repro.nn.datasets import (
    DigitDataset,
    SyntheticDigitConfig,
    load_test_split,
    load_train_split,
)
from repro.nn.datasets.synth_digits import RENDER_REV
from repro.nn.metrics import accuracy
from repro.nn.network import FeedforwardANN, NetworkSpec
from repro.nn.quantize import QuantizedWeights, quantize_network
from repro.nn.trainer import SGDTrainer
from repro.rng import SeedLike
from repro.runtime import ResultCache, default_cache_dir, resolve_jobs


def paper_ann_spec(seed: int = 0) -> NetworkSpec:
    """The paper's Table I network: 784-1000-500-200-100-10.

    6 layers, 2594 neurons, 1,406,810 synapses (weights + biases).
    """
    return NetworkSpec(layer_sizes=(784, 1000, 500, 200, 100, 10), seed=seed)


def fast_ann_spec(seed: int = 0) -> NetworkSpec:
    """Same depth and taper as Table I at ~1/5 width (default profile)."""
    return NetworkSpec(layer_sizes=(784, 300, 150, 80, 40, 10), seed=seed)


PROFILES = {"paper": paper_ann_spec, "fast": fast_ann_spec}


def resolve_profile(profile: Optional[str] = None, seed: int = 0) -> NetworkSpec:
    """Profile name (or ``REPRO_PROFILE`` env var, default ``fast``) -> spec."""
    name = profile or os.environ.get("REPRO_PROFILE", "fast")
    try:
        return PROFILES[name](seed=seed)
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(
            f"unknown profile {name!r}; known: {known}"
        ) from None


@dataclass
class TrainedModel:
    """A trained, quantized benchmark network plus its dataset."""

    network: FeedforwardANN
    image: QuantizedWeights
    dataset: DigitDataset
    float_accuracy: float
    quantized_accuracy: float
    #: The clean reference every fault evaluation of this model shares.
    reference: CleanReference = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.reference = CleanReference(
            self.network, self.image, self.dataset.x_test,
            self.dataset.y_test, self.quantized_accuracy,
        )

    @property
    def spec(self) -> NetworkSpec:
        return self.network.spec

    @property
    def layer_synapse_counts(self) -> tuple:
        """Per-weight-layer synapse counts (weights + biases) — the bank
        sizes of the sensitivity-driven architecture."""
        return tuple(
            self.image.layer_synapse_count(i) for i in range(self.image.n_layers)
        )

    @property
    def quantization_loss(self) -> float:
        return self.float_accuracy - self.quantized_accuracy


def _cache_path(prefix: str, key: Dict, cache_dir: Optional[str]) -> str:
    key_blob = json.dumps(key, sort_keys=True)
    digest = hashlib.md5(key_blob.encode()).hexdigest()[:16]
    return os.path.join(cache_dir or default_cache_dir(), f"{prefix}_{digest}.npz")


def _load_npz(path: str, names: Sequence[str]) -> Optional[Dict[str, np.ndarray]]:
    """The named arrays of an ``.npz`` file, or ``None`` when the file is
    missing, torn or lacks one of them (a cache miss).  A flipped byte in
    a member fails its zip CRC-32 check (``BadZipFile``)."""
    try:
        with np.load(path) as payload:
            return {name: payload[name] for name in names}
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
            zlib.error):
        return None


def _save_npz(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path``, uncompressed (a load is a read, not
    an inflate), and atomically: a ``.``-prefixed temp file in the same
    directory, then :func:`os.replace`.  An interrupted or concurrent
    writer never leaves a partial file under ``path``.  The write is
    best-effort: an ``OSError`` (full disk, unwritable directory) leaves
    no temp file and is not raised."""
    with contextlib.suppress(OSError):
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=".", suffix=".npz", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise


def _weights_key(spec: NetworkSpec, seed: int, n_train: int, n_val: int,
                 epochs: int) -> Dict:
    return {
        "sizes": spec.layer_sizes,
        "hidden": spec.hidden_activation,
        "output": spec.output_activation,
        "seed": seed,
        "n_train": n_train,
        "n_val": n_val,
        "epochs": epochs,
        # rev 2: weight_clip=0.99 -> Q0.7 synaptic words; rev 3: float32
        # training (float bytes differ by up to ~5e-6).
        "rev": 3,
    }


def benchmark_weights_path(
    profile: Optional[str] = None,
    seed: int = 0,
    n_train: int = 6000,
    n_val: int = 500,
    epochs: int = 15,
    cache_dir: Optional[str] = None,
) -> str:
    """The weight file (``ann_*.npz``) that :func:`train_benchmark_ann`
    with the same arguments reads and writes.

    Computing it touches no file, so it is a cheap probe of whether a
    build will train: it trains when this file is missing (or
    unreadable) or when it runs with ``use_cache=False``.
    """
    spec = resolve_profile(profile, seed=seed)
    return _cache_path("ann", _weights_key(spec, seed, n_train, n_val, epochs),
                       cache_dir)


#: Revision of the cached clean accuracies (the ``acc`` namespace).
#: Bump it when what they measure changes (the quantization rule, the
#: forward pass or the metric), so older entries become misses.
ACCURACY_REV = 1


def train_benchmark_ann(
    profile: Optional[str] = None,
    seed: int = 0,
    n_train: int = 6000,
    n_val: int = 500,
    n_test: int = 2000,
    epochs: int = 15,
    n_bits: int = 8,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> TrainedModel:
    """Train (or load from cache) the benchmark digit-recognition ANN.

    The cache directory holds the trained float parameters
    (``ann_*.npz``), the rendered test split (``digits_*.npz``, 12.5 MB
    at 2,000 images; both uncompressed) and, as a
    :class:`~repro.runtime.ResultCache` entry in the ``acc`` namespace
    keyed by both files' keys and ``n_bits``, the model's two clean
    accuracies.  A weight hit only evaluates: it loads the split,
    rendering it (the full dataset's bytes; every split has its own
    derived seed) only when the file is missing or unreadable, and
    reads the accuracies when both files hit, running a clean forward
    pass only when that entry is missing or unreadable.  A miss renders
    the train split (in float32, the training precision) and the test
    split (never the validation split: nothing reads it, and ``n_val``
    stays in the weight key) and trains.  The float parameters are
    float64 in memory and on disk either way.
    Either way the model's dataset holds only the test split (its
    train/val splits are empty), and the build writes what it
    computed, atomically; an unreadable file is a miss.
    ``use_cache=False`` neither reads nor writes.
    """
    if min(n_train, n_val, n_test) <= 0:
        raise DatasetError("all split sizes must be positive")
    spec = resolve_profile(profile, seed=seed)
    network = FeedforwardANN(spec)

    weights_key = _weights_key(spec, seed, n_train, n_val, epochs)
    split_key = {
        "seed": seed,
        "n_test": n_test,
        "config": asdict(SyntheticDigitConfig()),
        "render_rev": RENDER_REV,
    }
    weights_path = _cache_path("ann", weights_key, cache_dir)
    split_path = _cache_path("digits", split_key, cache_dir)
    accuracy_key = {"weights": weights_key, "split": split_key,
                    "n_bits": n_bits, "rev": ACCURACY_REV}
    store = ResultCache(cache_dir, enabled=use_cache)
    param_names = [f"{kind}{i}" for i in range(len(network.layers))
                   for kind in ("w", "b")]
    params = _load_npz(weights_path, param_names) if use_cache else None
    split = None if params is None else _load_npz(split_path, ("x_test", "y_test"))
    accuracies = None if split is None else store.get("acc", accuracy_key)

    if params is not None:
        for i, layer in enumerate(network.layers):
            layer.weights = params[f"w{i}"]
            layer.biases = params[f"b{i}"]
        dataset = (load_test_split(n_test=n_test, seed=seed) if split is None
                   else DigitDataset.test_only(**split))
    else:
        # No early stopping, so no validation pass: the val split is not
        # rendered (n_val only keys the weights).  The training split is
        # rendered straight into the trainer's float32.
        x_train, y_train = load_train_split(n_train=n_train, seed=seed)
        dataset = load_test_split(n_test=n_test, seed=seed)
        # weight_clip just under 1.0 keeps every parameter representable
        # in the paper's sub-unity 8-bit format (sign + 7 fraction bits).
        trainer = SGDTrainer(
            epochs=epochs, batch_size=100, learning_rate=0.2,
            momentum=0.9, lr_decay=0.97, weight_clip=0.99,
            seed=seed + 1, verbose=verbose,
        )
        trainer.train(network, x_train, y_train)
        # Nothing reads the training split again.
        del x_train, y_train
        if use_cache:
            arrays = {}
            for i, layer in enumerate(network.layers):
                arrays[f"w{i}"] = layer.weights
                arrays[f"b{i}"] = layer.biases
            _save_npz(weights_path, arrays)
    if use_cache and split is None:
        _save_npz(split_path, {"x_test": dataset.x_test, "y_test": dataset.y_test})

    image = quantize_network(network, n_bits=n_bits)
    if accuracies is None:
        x, y = dataset.x_test, dataset.y_test
        accuracies = {
            "float_accuracy": accuracy(network.predict(x), y),
            "quantized_accuracy": accuracy(
                network.predict(x, params=image.dequantized()), y),
        }
        store.put("acc", accuracy_key, accuracies)
    image.apply_to(network)

    return TrainedModel(
        network=network,
        image=image,
        dataset=dataset,
        **accuracies,
    )


class CircuitToSystemSimulator:
    """The paper's Sec. V pipeline as one object.

    Combines a trained quantized network with the 6T/8T bitcell
    characterizations and answers the evaluation questions of Sec. VI:
    accuracy / access power / leakage / area of any memory configuration
    at any supply voltage.

    Determinism contract: every study built on this simulator is a pure
    function of the model, the characterization tables and the seeds.
    The execution knobs change wall-clock and memory, never a published
    number: ``jobs`` (resolved once, here, through
    :func:`~repro.runtime.resolve_jobs`) is the worker count of the
    tables build and the thread count of the fault trials, and
    ``shards`` / ``max_shard_samples`` and the shared result cache apply
    when the simulator builds its own tables.  Accuracies are fractions in
    [0, 1]; powers W; areas m^2; voltages V.

    Every evaluation shares the model's clean reference: its baseline is
    the model's ``quantized_accuracy`` (the same clean-image pass on the
    same test split, already paid for when the model was built), and its
    clean activations serve every light die.
    """

    def __init__(
        self,
        model: TrainedModel,
        tables: Optional[CellTables] = None,
        n_trials: int = 5,
        include_write_failures: bool = True,
        include_read_disturb: bool = True,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
        block_samples: Optional[int] = None,
    ):
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        self.model = model
        self.jobs = resolve_jobs(jobs)
        self.tables = tables or CellTables.build(
            jobs=self.jobs, shards=shards, max_shard_samples=max_shard_samples,
            block_samples=block_samples,
        )
        self.n_trials = n_trials
        self.include_write_failures = include_write_failures
        self.include_read_disturb = include_read_disturb

    # ------------------------------------------------------------------
    # Architecture construction bound to this model's bank sizes
    # ------------------------------------------------------------------
    def base_memory(self, vdd: float) -> SynapticMemoryArchitecture:
        return base_architecture(
            self.model.layer_synapse_counts, self.tables, vdd,
            n_bits=self.model.image.fmt.n_bits,
        )

    def config1_memory(self, vdd: float, msb_in_8t: int) -> SynapticMemoryArchitecture:
        return config1_architecture(
            self.model.layer_synapse_counts, self.tables, vdd, msb_in_8t,
            n_bits=self.model.image.fmt.n_bits,
        )

    def config2_memory(
        self, vdd: float, msb_per_layer: Sequence[int]
    ) -> SynapticMemoryArchitecture:
        return config2_architecture(
            self.model.layer_synapse_counts, self.tables, vdd, msb_per_layer,
            n_bits=self.model.image.fmt.n_bits,
        )

    def baseline_memory(self) -> SynapticMemoryArchitecture:
        """The paper's iso-stability baseline: all-6T at 0.75 V."""
        return self.base_memory(BASELINE_VDD_6T)

    # ------------------------------------------------------------------
    # Accuracy under a memory configuration
    # ------------------------------------------------------------------
    def evaluate(
        self,
        memory: SynapticMemoryArchitecture,
        n_trials: Optional[int] = None,
        seed: SeedLike = None,
    ) -> FaultEvaluation:
        """Classification accuracy with this memory's fault statistics."""
        return self.evaluate_batch([(memory, n_trials, seed)])[0]

    def evaluate_batch(self, items: Sequence[tuple]) -> list:
        """Evaluate many memories through one shared fault-injection pass.

        ``items`` holds ``(memory, n_trials, seed)`` triples
        (``n_trials=None`` takes the simulator default).  Element ``i``
        of the result equals ``self.evaluate(*items[i])`` bit-for-bit —
        each request's flip masks derive from its own seed — but the
        batch runs the trials of every item on the simulator's ``jobs``
        threads, and pays no clean baseline pass (the model's
        ``quantized_accuracy`` is that pass's result).  This is the path
        of the Fig. 7 / Fig. 8 studies.
        """
        specs = [
            FaultTrialSpec(
                injector=memory.fault_injector(
                    include_write_failures=self.include_write_failures,
                    include_read_disturb=self.include_read_disturb,
                ),
                n_trials=self.n_trials if n_trials is None else n_trials,
                seed=seed,
            )
            for memory, n_trials, seed in items
        ]
        return evaluate_many_under_faults(
            self.model.network,
            self.model.image,
            specs,
            self.model.dataset.x_test,
            self.model.dataset.y_test,
            reference=self.model.reference,
            jobs=self.jobs,
        )

    def compare(
        self,
        candidate: SynapticMemoryArchitecture,
        baseline: Optional[SynapticMemoryArchitecture] = None,
    ) -> ComparisonReport:
        """Power/area accounting vs the (default iso-stability) baseline."""
        return compare_architectures(candidate, baseline or self.baseline_memory())
