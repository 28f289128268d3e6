"""The margin kernels through the sharded Monte-Carlo path.

Shard tallies are content-addressed by the population definition, and
the margin kernel is no part of that address: the reference oracle and
the fused kernel produce the same bits, so a fused run must *reuse* the
shards a reference run cached, and the addresses themselves must not
move when the kernel code does.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.kernels.fused as fused
import repro.sram.montecarlo as mc
from repro.devices import ptm22
from repro.kernels import reference_margins
from repro.runtime import ResultCache
from repro.sram.bitcell import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer


@pytest.fixture
def analyzer():
    return MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()), n_samples=512, block_samples=128, seed=7
    )


@pytest.fixture
def use_reference(monkeypatch):
    """Route every margin through the reference oracle until undone."""
    oracle = SimpleNamespace(margins=reference_margins)
    production = fused.FUSED

    def switch(on: bool) -> None:
        monkeypatch.setattr(fused, "FUSED", oracle if on else production)

    return switch


def _counting_tally(monkeypatch):
    calls = []
    original = mc.tally_shard

    def counting(analyzer, vdd, shard):
        calls.append(shard.index)
        return original(analyzer, vdd, shard)

    monkeypatch.setattr(mc, "tally_shard", counting)
    return calls


def test_shard_bit_identity_is_backend_independent(
    analyzer, tmp_path, monkeypatch, use_reference
):
    cache = ResultCache(cache_dir=str(tmp_path))
    calls = _counting_tally(monkeypatch)

    use_reference(True)
    rates_ref = analyzer.analyze_sharded(0.7, shards=4, cache=cache)
    computed_by_reference = len(calls)
    assert computed_by_reference == 4

    use_reference(False)
    rates_fused = analyzer.analyze_sharded(0.7, shards=4, cache=cache)
    # Identical cache addresses: the fused run computes nothing.
    assert len(calls) == computed_by_reference
    assert rates_fused.to_dict() == rates_ref.to_dict()

    # And cold (separate store), the fused shards still merge to the
    # same bits — the sharded/monolithic guarantee is kernel-free.
    cold = ResultCache(cache_dir=str(tmp_path / "cold"))
    rates_cold = analyzer.analyze_sharded(0.7, shards=4, cache=cold)
    assert rates_cold.to_dict() == rates_ref.to_dict()
    assert rates_ref.to_dict() == analyzer.analyze(0.7).to_dict()


def test_sample_margins_backend_independent(analyzer, use_reference):
    use_reference(True)
    ref = analyzer.sample_margins(0.65)
    use_reference(False)
    fused_margins = analyzer.sample_margins(0.65)
    assert np.array_equal(ref.read_access, fused_margins.read_access)
    assert np.array_equal(ref.write, fused_margins.write)
    assert np.array_equal(ref.read_disturb, fused_margins.read_disturb)


def test_cache_payload_is_stable_across_canonical_backends(analyzer, tmp_path):
    """The ``mcshard`` addresses of one sharded point, pinned: a change
    to the margin kernels must not move them, or every filled cache
    goes cold."""
    analyzer.analyze_sharded(0.7, shards=4, cache=ResultCache(str(tmp_path)))
    assert sorted(os.listdir(tmp_path)) == [
        "mcshard-46173328300966fae75588da690ea264.json",
        "mcshard-4e894220dd80ee870ed72815a7469f30.json",
        "mcshard-55091c3ae1355ebf32a0a99d4ce64413.json",
        "mcshard-cb656fbe508daeb64930cecdb510421b.json",
    ]
