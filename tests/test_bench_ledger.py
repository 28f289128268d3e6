"""Schema of the performance ledger ``BENCH_paper_loop.json``.

The ledger records one entry per performance change measured with the
paper-loop benchmark.  This checks its shape and internal consistency
against ``BENCHMARK.json`` (workload and metric names, units), never
the timings themselves.
"""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REV = re.compile(r"^[0-9a-f]{7,40}$")
ENTRY_KEYS = {"pr", "title", "workload", "seed", "parent_rev", "change_rev",
              "hardware", "pairs", "claimed_metric", "wins", "metrics"}


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ledger():
    return _load("BENCH_paper_loop.json")


@pytest.fixture(scope="module")
def bench_spec():
    return _load("BENCHMARK.json")


def test_top_level(ledger):
    assert set(ledger) == {"schema", "about", "entries"}
    assert ledger["schema"] == 1
    assert ledger["entries"]


def test_entries_in_pr_order(ledger):
    prs = [entry["pr"] for entry in ledger["entries"]]
    assert all(isinstance(pr, int) for pr in prs)
    assert prs == sorted(set(prs))


def test_entry_fields(ledger, bench_spec):
    workloads = {w["name"] for w in bench_spec["workloads"]}
    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"]}
    entries = ledger["entries"]
    for i, entry in enumerate(entries):
        label = f"PR {entry.get('pr')}"
        assert set(entry) == ENTRY_KEYS, label
        assert entry["workload"] in workloads, label
        assert isinstance(entry["seed"], int), label
        assert REV.match(entry["parent_rev"]), label
        # Only the newest entry may be recorded in its own commit.
        if entry["change_rev"] is None:
            assert i == len(entries) - 1, label
        else:
            assert REV.match(entry["change_rev"]), label
            assert entry["change_rev"] != entry["parent_rev"], label
        assert isinstance(entry["title"], str) and entry["title"], label
        assert isinstance(entry["hardware"], str) and entry["hardware"], label
        pairs = entry["pairs"]
        assert isinstance(pairs, int) and pairs >= 10, label
        metrics = entry["metrics"]
        assert entry["claimed_metric"] in metrics, label
        assert entry["wins"] == metrics[entry["claimed_metric"]]["wins"], label
        for name, metric in metrics.items():
            where = f"{label} {name}"
            assert name in units, where
            assert set(metric) == {"unit", "wins", "parent", "change"}, where
            assert metric["unit"] == units[name], where
            assert isinstance(metric["wins"], int), where
            assert 0 <= metric["wins"] <= pairs, where
            for side in ("parent", "change"):
                stats = metric[side]
                assert set(stats) == {"median", "q1", "q3"}, where
                assert all(isinstance(v, (int, float)) for v in stats.values())
                assert 0 <= stats["q1"] <= stats["median"] <= stats["q3"], where
