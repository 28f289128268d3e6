"""Tests of the sharded Monte-Carlo layer.

The headline guarantee under test: for a fixed ``(n_samples,
block_samples, seed)`` population, the merged result is bit-identical
for every shard count, worker count and cache state — including the
single-shard in-process run that :meth:`MonteCarloAnalyzer.analyze`
performs.
"""

import pytest

from repro.runtime import ResultCache, ShardPlan
from repro.runtime.sharding import ShardedMonteCarlo
from repro.sram.montecarlo import MarginTally, MonteCarloAnalyzer

#: Shard counts from the acceptance criteria: serial, even split, ragged.
SHARD_COUNTS = (1, 4, 13)


@pytest.fixture(scope="module")
def analyzer(cell6):
    # 1600 samples in 128-sample blocks -> 13 blocks (12 full + 1 partial),
    # so shards=13 exercises one-block shards and the ragged tail.
    return MonteCarloAnalyzer(cell=cell6, n_samples=1600, seed=42, block_samples=128)


@pytest.fixture(scope="module")
def monolithic(analyzer):
    return analyzer.analyze(0.7)


class TestShardPlan:
    def test_block_structure(self):
        plan = ShardPlan.plan(1600, block_samples=128)
        assert plan.n_blocks == 13
        assert [plan.block_size(j) for j in range(13)] == [128] * 12 + [64]

    def test_shards_partition_all_blocks(self):
        plan = ShardPlan.plan(1600, block_samples=128, shards=4)
        shards = plan.shards()
        assert len(shards) == 4
        covered = [j for s in shards for j, _ in s.blocks]
        assert covered == list(range(plan.n_blocks))
        assert sum(s.n_samples for s in shards) == plan.n_samples

    def test_shard_count_clamped_to_blocks(self):
        plan = ShardPlan.plan(1600, block_samples=128, shards=50)
        assert plan.n_shards == 13

    def test_max_shard_samples_raises_shard_count(self):
        plan = ShardPlan.plan(1600, block_samples=128, max_shard_samples=256)
        assert plan.max_samples_per_shard() <= 256
        assert plan.n_shards == 7  # ceil(13 blocks / 2 blocks per shard)

    def test_max_shard_samples_below_block_clamps_to_one_block(self):
        plan = ShardPlan.plan(1600, block_samples=128, max_shard_samples=10)
        assert plan.n_shards == plan.n_blocks

    def test_block_seeds_are_layout_independent(self):
        few = ShardPlan.plan(1600, block_samples=128, shards=2)
        many = ShardPlan.plan(1600, block_samples=128, shards=13)
        for j in range(few.n_blocks):
            assert few.block_seed(7, j) == many.block_seed(7, j)

    def test_block_zero_is_the_base_stream(self):
        assert ShardPlan.block_seed(1234, 0) == 1234
        assert ShardPlan.block_seed(1234, 1) != 1234

    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ShardPlan.plan(0)
        with pytest.raises(ConfigurationError):
            ShardPlan.plan(100, block_samples=0)
        with pytest.raises(ConfigurationError):
            ShardPlan.plan(100, shards=0)
        with pytest.raises(ConfigurationError):
            ShardPlan.plan(100, max_shard_samples=0)


class TestShardDescriptorRoundTrip:
    @pytest.mark.parametrize("shards", (1, 4, 13))
    def test_every_shard_round_trips(self, shards):
        from repro.runtime import Shard

        plan = ShardPlan.plan(1600, block_samples=128, shards=shards)
        for shard in plan.shards():
            rebuilt = Shard.from_descriptor(
                shard.descriptor(), block_samples=plan.block_samples,
                index=shard.index,
            )
            assert rebuilt == shard

    def test_partial_single_block_population(self):
        from repro.runtime import Shard

        plan = ShardPlan.plan(100, block_samples=128)
        (shard,) = plan.shards()
        assert Shard.from_descriptor(
            shard.descriptor(), block_samples=128
        ) == shard

    def test_validation(self):
        from repro.errors import ConfigurationError
        from repro.runtime import Shard

        good = {"start_block": 2, "n_blocks": 2, "n_samples": 192}
        assert Shard.from_descriptor(good, block_samples=128).blocks == (
            (2, 128), (3, 64),
        )
        with pytest.raises(ConfigurationError, match="block_samples"):
            Shard.from_descriptor(good, block_samples=0)
        with pytest.raises(ConfigurationError, match="must be an integer"):
            Shard.from_descriptor({**good, "n_blocks": "2"}, block_samples=128)
        with pytest.raises(ConfigurationError, match="must be an integer"):
            Shard.from_descriptor({"start_block": 0}, block_samples=128)
        with pytest.raises(ConfigurationError, match="start_block"):
            Shard.from_descriptor({**good, "start_block": -1}, block_samples=128)
        with pytest.raises(ConfigurationError, match="n_blocks"):
            Shard.from_descriptor({**good, "n_blocks": 0}, block_samples=128)
        # Too many samples for the block count, and too few.
        with pytest.raises(ConfigurationError, match="inconsistent"):
            Shard.from_descriptor({**good, "n_samples": 300}, block_samples=128)
        with pytest.raises(ConfigurationError, match="inconsistent"):
            Shard.from_descriptor({**good, "n_samples": 128}, block_samples=128)


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_matches_monolithic(self, analyzer, monolithic, shards):
        assert analyzer.analyze_sharded(0.7, shards=shards) == monolithic

    def test_max_shard_samples_does_not_change_results(self, analyzer, monolithic):
        bounded = analyzer.analyze_sharded(0.7, max_shard_samples=256)
        assert bounded == monolithic

    def test_parallel_shards_match_monolithic(self, analyzer, monolithic):
        assert analyzer.analyze_sharded(0.7, shards=4, jobs=2) == monolithic

    def test_subarray_sharding_does_not_change_rates(self, cell6):
        from repro.sram import SubArray

        plain = SubArray(cell=cell6, rows=64, cols=64, mc_samples=1600, seed=9)
        sharded = SubArray(
            cell=cell6, rows=64, cols=64, mc_samples=1600, seed=9,
            shards=5, max_shard_samples=512,
        )
        assert sharded.failure_rates(0.7) == plain.failure_rates(0.7)

    def test_tally_merge_rejects_overlap(self, analyzer):
        plan = analyzer.shard_plan(shards=2)
        resolved = analyzer.resolved()
        from repro.sram.montecarlo import tally_shard

        tally = tally_shard(resolved, 0.7, plan.shards()[0])
        with pytest.raises(ValueError, match="overlap"):
            MarginTally.merge([tally, tally])

    def test_tally_survives_json_round_trip(self, analyzer):
        plan = analyzer.shard_plan(shards=3)
        resolved = analyzer.resolved()
        from repro.sram.montecarlo import tally_shard

        tally = tally_shard(resolved, 0.7, plan.shards()[1])
        import json

        restored = MarginTally.from_dict(json.loads(json.dumps(tally.to_dict())))
        assert restored == tally


class TestShardCaching:
    def test_shard_tallies_are_cached_and_reused(self, analyzer, monolithic, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cold = analyzer.analyze_sharded(0.7, shards=4, cache=cache)
        assert cold == monolithic
        assert cache.tier.misses == 4
        warm = analyzer.analyze_sharded(0.7, shards=4, cache=cache)
        assert warm == monolithic
        assert cache.tier.hits == 4
        assert cache.stats().by_namespace.get("mcshard", 0) == 4

    def test_shard_hits_survive_clearing_unrelated_namespaces(
        self, analyzer, monolithic, tmp_path
    ):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("mc", {"unrelated": 1}, {"x": 1})
        cache.put("cellpoint", {"unrelated": 2}, {"y": 2})
        analyzer.analyze_sharded(0.7, shards=4, cache=cache)

        assert cache.clear(namespace="mc") == 1
        assert cache.clear(namespace="cellpoint") == 1

        reread = ResultCache(cache_dir=str(tmp_path))
        warm = analyzer.analyze_sharded(0.7, shards=4, cache=reread)
        assert warm == monolithic
        assert reread.tier.hits == 4 and reread.tier.misses == 0

    def test_interrupted_run_resumes_from_completed_shards(
        self, analyzer, monolithic, tmp_path, monkeypatch
    ):
        cache = ResultCache(cache_dir=str(tmp_path))
        # Warm two of four shards by running a plan whose first two
        # shards cover the same block ranges (shard keys are layout
        # independent, so a 4-shard rerun picks them up).
        plan = analyzer.shard_plan(shards=4)
        resolved = analyzer.resolved()
        from functools import partial

        from repro.sram.montecarlo import MarginTally, tally_shard

        engine = ShardedMonteCarlo(plan, cache=cache)
        for shard in plan.shards()[:2]:
            tally = tally_shard(resolved, 0.7, shard)
            cache.put("mcshard", engine.shard_payload(resolved.cache_payload(0.7), shard),
                      tally.to_dict())

        full = engine.run(
            compute=partial(tally_shard, resolved, 0.7),
            payload=resolved.cache_payload(0.7),
            encode=MarginTally.to_dict,
            decode=MarginTally.from_dict,
            merge=MarginTally.merge,
        )
        assert cache.tier.hits == 2 and cache.tier.misses == 2
        from repro.sram.montecarlo import _rates_from_tally

        assert _rates_from_tally(0.7, full) == monolithic

    def test_completed_shards_persist_when_a_later_shard_dies(
        self, analyzer, monolithic, tmp_path
    ):
        """Interruption mid-run loses only in-flight shards: every shard
        that completed before the failure is already on disk."""
        cache = ResultCache(cache_dir=str(tmp_path))
        resolved = analyzer.resolved()
        plan = resolved.shard_plan(shards=4)
        from functools import partial

        from repro.sram.montecarlo import _rates_from_tally, tally_shard

        def dying_compute(shard):
            if shard.index == 2:
                raise KeyboardInterrupt("simulated mid-run interruption")
            return tally_shard(resolved, 0.7, shard)

        engine = ShardedMonteCarlo(plan, cache=cache)
        with pytest.raises(KeyboardInterrupt):
            engine.run(
                compute=dying_compute,
                payload=resolved.cache_payload(0.7),
                encode=MarginTally.to_dict,
                decode=MarginTally.from_dict,
                merge=MarginTally.merge,
            )
        # Shards 0 and 1 completed before the failure and were stored.
        assert cache.stats().by_namespace.get("mcshard", 0) == 2

        resumed = ResultCache(cache_dir=str(tmp_path))
        engine = ShardedMonteCarlo(plan, cache=resumed)
        full = engine.run(
            compute=partial(tally_shard, resolved, 0.7),
            payload=resolved.cache_payload(0.7),
            encode=MarginTally.to_dict,
            decode=MarginTally.from_dict,
            merge=MarginTally.merge,
        )
        assert resumed.tier.hits == 2 and resumed.tier.misses == 2
        assert _rates_from_tally(0.7, full) == monolithic

    def test_different_block_sizes_do_not_collide(self, cell6, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        a = MonteCarloAnalyzer(cell=cell6, n_samples=1600, seed=42, block_samples=128)
        b = MonteCarloAnalyzer(cell=cell6, n_samples=1600, seed=42, block_samples=400)
        a.analyze_sharded(0.7, shards=2, cache=cache)
        b.analyze_sharded(0.7, shards=2, cache=cache)
        assert cache.tier.hits == 0
