"""Snapshot of the ``stats`` probe rendering (``format_stats``).

Floats display at 6 significant digits — an accumulated latency sum of
``0.30000000000000004`` is float noise, not information — while the
JSON payload the probe returns keeps exact values.  The full rendering
is pinned as a snapshot so an accidental formatting change (ordering,
indentation, precision) is a visible diff, not a silent drift.
"""

from repro.distributed.client import _format_value, format_stats

PROBE = {
    "stats_version": 1,
    "requests": 100,
    "cache_hits": 40,
    "hit_rate": 0.4000000000000001,
    "latency_sum": 0.30000000000000004,
    "wait_max": 1.2345678901,
    "store": {
        "store": "directory:/c",
        "hits": 40,
        "get_seconds": 0.10000000000000002,
    },
    "queues": {
        "depth": 3,
        "per_kind": {"margin_tally": 2},
    },
}

SNAPSHOT = """\
cache_hits    : 40
hit_rate      : 0.4
latency_sum   : 0.3
requests      : 100
stats_version : 1
wait_max      : 1.23457
queues:
  depth : 3
  per_kind:
    margin_tally : 2
store:
  get_seconds : 0.1
  hits        : 40
  store       : directory:/c"""


class TestFormatValue:
    def test_floats_render_at_six_significant_digits(self):
        assert _format_value(0.30000000000000004) == "0.3"
        assert _format_value(1.2345678901) == "1.23457"
        assert _format_value(123456789.0) == "1.23457e+08"
        assert _format_value(0.000012345678) == "1.23457e-05"

    def test_non_floats_pass_through_exactly(self):
        assert _format_value(3) == "3"
        assert _format_value(True) == "True"
        assert _format_value("directory:/c") == "directory:/c"
        # Counters on the wire are ints; 3 must never display as 3.0.
        assert "." not in _format_value(10**9)

    def test_display_only_the_payload_keeps_exact_values(self):
        stats = {"latency_sum": 0.30000000000000004}
        format_stats(stats)
        assert stats["latency_sum"] == 0.30000000000000004


class TestFormatStatsSnapshot:
    def test_probe_rendering_is_pinned(self):
        assert format_stats(PROBE) == SNAPSHOT

    def test_rendering_is_order_independent(self):
        shuffled = dict(reversed(list(PROBE.items())))
        assert format_stats(shuffled) == SNAPSHOT

    def test_empty_stats_render_empty(self):
        assert format_stats({}) == ""
