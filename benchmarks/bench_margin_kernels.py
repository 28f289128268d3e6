"""Margin kernels — samples/sec on the failure-margin hot path.

Extension benchmark (no paper figure): every estimate in the stack
funnels through ``compute_failure_margins``, so this measures exactly
what :mod:`repro.kernels` exists to speed up — the per-block margin
evaluation — the fused kernel against its reference oracle, at the
block sizes the Monte Carlo actually streams: the 4096-sample paper-scale sub-array block
(``examples/paper_scale_array.py``) and the 32768-sample default block
(:data:`repro.runtime.DEFAULT_BLOCK_SAMPLES`), both capped by
``REPRO_BENCH_SAMPLES`` so CI's smoke run stays cheap.

Asserted invariants:

* every margin array of :class:`~repro.kernels.FusedKernel` is
  **bit-identical** to :func:`~repro.kernels.reference_margins` (the
  kernel contract; the hypothesis suite under ``tests/kernels/``
  stresses the same claim adversarially);
* ``fused`` is at least as fast as ``reference`` on every measured
  configuration — the CI perf-smoke job fails on any regression;
* at paper scale (full ``REPRO_BENCH_SAMPLES``), ``fused`` delivers
  >= 2x samples/sec on the 6T margin path at the paper-scale block
  size — the headline number documented in ``docs/performance.md``.

Each row also reports ``check_accept_ratio``: the share of solved lanes
whose bisection replay (from a root estimate) passed the two-point
check.  Rejected lanes fall back to the exact bisection, so a degraded
estimator keeps the bits and loses the speed;
``benchmarks/check_artifacts.py`` requires the ratio to stay >= 0.99.
"""

import time

import numpy as np

from benchmarks.conftest import BENCH_SAMPLES, once
from repro.core import format_table
from repro.kernels import FusedKernel, reference_margins
from repro.runtime import DEFAULT_BLOCK_SAMPLES
from repro.sram.bitcell import make_cell
from repro.sram.read_path import BitlineModel, nominal_read_cycle

#: Paper-scale streaming block (examples/paper_scale_array.py default).
PAPER_BLOCK = 4096

#: Timed repetitions per (cell, block, kernel); best-of to shed noise.
REPS = 5

#: The paper-scale >= 2x assertion only runs with full Monte-Carlo
#: statistics (CI smoke uses reduced REPRO_BENCH_SAMPLES and only
#: enforces "never slower").
FULL_SCALE = BENCH_SAMPLES >= 20000


def _block_sizes():
    sizes = sorted({min(PAPER_BLOCK, BENCH_SAMPLES),
                    min(DEFAULT_BLOCK_SAMPLES, BENCH_SAMPLES)})
    return [s for s in sizes if s >= 256]


def _margins_equal(a, b):
    for name in ("read_access", "write", "read_disturb"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, f"{name}: kernels disagree"
            continue
        assert np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True), (
            f"{name}: fused is not bit-identical to reference"
        )


def _rate(margins, cell, vdd, dvt, bitline, read_cycle):
    """Best-of-REPS samples/sec of one margin function (warm call excluded)."""
    margins(cell, vdd, dvt, bitline, read_cycle)
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        margins(cell, vdd, dvt, bitline, read_cycle)
        best = min(best, time.perf_counter() - start)
    return dvt.shape[0] / best


def test_margin_kernels(benchmark, tech, emit):
    vdd = 0.70  # failure-rich scaled supply: every mechanism is live
    bitline = BitlineModel(tech)

    def sweep():
        rows = []
        for kind in ("6t", "8t"):
            cell = make_cell(kind, tech)
            read_cycle = nominal_read_cycle(cell, bitline=bitline)
            model = cell.variation_model()
            for block in _block_sizes():
                dvt = model.sample(block, seed=20160227)
                ref = reference_margins(cell, vdd, dvt, bitline, read_cycle)
                counted = FusedKernel()
                fused = counted.margins(cell, vdd, dvt, bitline, read_cycle)
                _margins_equal(ref, fused)
                ref_rate = _rate(reference_margins, cell, vdd, dvt, bitline,
                                 read_cycle)
                fused_rate = _rate(FusedKernel().margins, cell, vdd, dvt,
                                   bitline, read_cycle)
                rows.append({
                    "cell": kind,
                    "block_samples": block,
                    "reference_samples_per_sec": ref_rate,
                    "fused_samples_per_sec": fused_rate,
                    "speedup": fused_rate / ref_rate,
                    "check_accept_ratio": (
                        counted.lanes_accepted / counted.lanes_checked
                    ),
                })
        return rows

    rows = once(benchmark, sweep)

    for row in rows:
        assert row["speedup"] >= 1.0, (
            f"fused slower than reference on {row['cell']} at "
            f"block={row['block_samples']}: {row['speedup']:.2f}x"
        )
    if FULL_SCALE:
        paper = [
            r for r in rows
            if r["cell"] == "6t" and r["block_samples"] == PAPER_BLOCK
        ]
        assert paper, "paper-scale 6T configuration missing from the sweep"
        assert paper[0]["speedup"] >= 2.0, (
            "fused must deliver >= 2x samples/sec on the 6T margin path "
            f"at the paper-scale block size; got {paper[0]['speedup']:.2f}x"
        )

    table = format_table(
        ["cell", "block", "reference smp/s", "fused smp/s", "speedup",
         "accepted"],
        [
            [r["cell"], r["block_samples"],
             f"{r['reference_samples_per_sec']:.0f}",
             f"{r['fused_samples_per_sec']:.0f}",
             f"{r['speedup']:.2f}x",
             f"{r['check_accept_ratio']:.4f}"]
            for r in rows
        ],
    )
    emit("margin_kernels", table, data=rows)
