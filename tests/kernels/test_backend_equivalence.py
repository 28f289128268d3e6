"""The margin-kernel contract: fused is bit-identical to reference.

The fused kernel replays the reference bisection trajectories with
restructured arithmetic, so its guarantee is *exact* equality — not
closeness — for every margin of every sample.  These tests lock that
elementwise across cell kinds, supply voltages, ΔVT batch shapes, the
disturb-free 8T ``None`` margin, rail-pinned degenerate brackets, and
the band where the bisection stop iteration cannot be predicted from
``vdd`` (handed to the reference path whole).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.devices import ptm22
from repro.errors import ConfigurationError
from repro.kernels import FusedKernel, reference_margins
from repro.kernels.fused import _CHUNK, _fixed_stop_iteration
from repro.sram import DEFAULT_VDD_GRID
from repro.sram.bitcell import make_cell
from repro.sram.failures import compute_failure_margins

TECH = ptm22()
CELLS = {"6t": make_cell("6t", TECH), "8t": make_cell("8t", TECH)}

#: A supply voltage inside the tiny band where the fused kernel cannot
#: prove the reference solver's stop iteration and hands the block to
#: the reference path: 2**29 * 1e-9 V exactly.
BAND_VDD = (2.0 ** 29) * 1e-9

MARGIN_NAMES = ("read_access", "write", "read_disturb")


def margins_with(kernel, cell, vdd, dvt):
    """``compute_failure_margins`` with ``kernel`` in place of the
    production fused kernel (same validation, same resolved defaults)."""
    import repro.kernels.fused as fused

    production = fused.FUSED
    fused.FUSED = kernel
    try:
        return compute_failure_margins(cell, vdd, dvt)
    finally:
        fused.FUSED = production


def reference_path(cell, vdd, dvt):
    """``compute_failure_margins`` through the reference oracle."""
    oracle = SimpleNamespace(margins=reference_margins)
    return margins_with(oracle, cell, vdd, dvt)


#: The two margin paths by name: the reference oracle and the fused
#: kernel every production margin goes through.
PATHS = {"reference": reference_path, "fused": compute_failure_margins}


def assert_margins_identical(kind, vdd, dvt):
    cell = CELLS[kind]
    ref = reference_path(cell, vdd, dvt)
    fused = compute_failure_margins(cell, vdd, dvt)
    for name in MARGIN_NAMES:
        a, b = getattr(ref, name), getattr(fused, name)
        if a is None:
            assert b is None, f"{name}: fused invented a margin"
            continue
        assert b is not None, f"{name}: fused dropped a margin"
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, f"{name}: shape mismatch"
        assert np.array_equal(a, b, equal_nan=True), (
            f"{kind} vdd={vdd} {name}: margins differ "
            f"(max |d| = {np.nanmax(np.abs(a - b))})"
        )


# ----------------------------------------------------------------------
# Deterministic sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["6t", "8t"])
@pytest.mark.parametrize("vdd", [0.45, 0.60, 0.75, 0.95])
@pytest.mark.parametrize("n,seed", [(1, 3), (7, 5), (257, 7), (2048, 11)])
def test_sampled_blocks_bit_identical(kind, vdd, n, seed):
    dvt = CELLS[kind].variation_model().sample(n, seed=seed)
    assert_margins_identical(kind, vdd, dvt)


@pytest.mark.parametrize("kind", ["6t", "8t"])
def test_multi_chunk_blocks_bit_identical(kind):
    """Blocks wider than one solver chunk split/merge without a trace."""
    n = _CHUNK + 173  # force a partial second chunk
    dvt = CELLS[kind].variation_model().sample(n, seed=23)
    assert_margins_identical(kind, 0.70, dvt)


@pytest.mark.parametrize("kind", ["6t", "8t"])
@pytest.mark.parametrize("shift", [0.9, -0.9])
def test_pinned_rail_degenerate_brackets(kind, shift):
    """Extreme uniform ΔVT pins node equations at a supply rail; the
    fused kernel must reproduce the reference solver's rail overrides
    (and its converged-lane skipping must not disturb them)."""
    n_dev = len(CELLS[kind].devices)
    dvt = np.full((37, n_dev), shift)
    assert_margins_identical(kind, 0.40, dvt)


def test_mixed_pinned_and_active_rows():
    """Pinned rows are compacted out of the evaluation; the remaining
    rows' trajectories must still match the reference exactly, as must
    the same rows inside the band the reference path solves."""
    cell = CELLS["6t"]
    dvt = cell.variation_model().sample(600, seed=1)
    dvt[::7] = 0.95
    dvt[3::11] = -0.95
    assert_margins_identical("6t", 0.45, dvt)
    # Same stress inside the band without a provable stop iteration.
    assert_margins_identical("6t", BAND_VDD, dvt)


def test_dynamic_fallback_band():
    """A vdd whose bracket widths graze the tolerance exercises the
    synchronized width-measuring fallback."""
    assert _fixed_stop_iteration(BAND_VDD) is None
    for kind in ("6t", "8t"):
        dvt = CELLS[kind].variation_model().sample(300, seed=9)
        assert_margins_identical(kind, BAND_VDD, dvt)


def test_dynamic_fallback_band_goes_to_the_reference(monkeypatch):
    """A block in the band is handed to the reference path whole; a
    block at a grid supply is stacked."""
    import repro.kernels.fused as fused

    seen = []

    def recording(cell, vdd, *args):
        seen.append(vdd)
        return reference_margins(cell, vdd, *args)

    monkeypatch.setattr(fused, "reference_margins", recording)
    dvt = CELLS["6t"].variation_model().sample(64, seed=9)
    compute_failure_margins(CELLS["6t"], 0.70, dvt)
    compute_failure_margins(CELLS["6t"], BAND_VDD, dvt)
    assert seen == [BAND_VDD]


def test_characterization_grid_has_fixed_stop_iterations():
    """Every supply of the default grid has a provable stop iteration,
    so no workload takes the reference path whole."""
    assert [_fixed_stop_iteration(v) for v in DEFAULT_VDD_GRID] == (
        [30] * len(DEFAULT_VDD_GRID)
    )


def test_payloads_name_no_margin_kernel():
    """No cache payload or wire spec names a margin kernel: both paths
    address the same entries."""
    from repro.sram.importance_sampling import ImportanceSampler
    from repro.sram.failures import FailureType
    from repro.sram.montecarlo import MonteCarloAnalyzer

    analyzer = MonteCarloAnalyzer(cell=CELLS["6t"], seed=1).resolved()
    sampler = ImportanceSampler(CELLS["6t"])
    payloads = [
        analyzer.cache_payload(0.7),
        sampler.point_payload(0.7, FailureType.READ_ACCESS, 1000, 1, 4.0),
    ]
    for payload in payloads:
        assert "margin_kernel" not in payload


def test_eight_t_has_no_disturb_margin():
    dvt = CELLS["8t"].variation_model().sample(64, seed=2)
    for path in PATHS.values():
        assert path(CELLS["8t"], 0.7, dvt).read_disturb is None


@pytest.mark.parametrize("dvt", [0.0, np.zeros(6), np.linspace(-0.05, 0.05, 6)])
def test_scalar_and_vector_probes_delegate(dvt):
    """Non-batch ΔVT shapes take the reference path inside the fused
    kernel — results (and scalar-ness) are identical by construction."""
    cell = CELLS["6t"]
    ref = reference_path(cell, 0.8, dvt)
    fused = compute_failure_margins(cell, 0.8, dvt)
    for name in MARGIN_NAMES:
        a, b = getattr(ref, name), getattr(fused, name)
        assert np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ----------------------------------------------------------------------
# Property suite
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["6t", "8t"]),
    vdd=st.floats(min_value=0.25, max_value=1.15),
    data=st.data(),
)
def test_property_fused_equals_reference(kind, vdd, data):
    n_dev = len(CELLS[kind].devices)
    n = data.draw(st.integers(min_value=1, max_value=48))
    dvt = data.draw(
        arrays(
            dtype=np.float64,
            shape=(n, n_dev),
            # +-0.7 V is ~20 Pelgrom sigma: covers healthy cells, deep
            # tails and rail-pinned brackets alike.
            elements=st.floats(min_value=-0.7, max_value=0.7),
        )
    )
    assert_margins_identical(kind, vdd, dvt)


# ----------------------------------------------------------------------
# Replay from a root estimate, checked at the final bracket
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["6t", "8t"])
@pytest.mark.parametrize("wrong", [np.nan, np.inf, 0.0])
def test_wrong_root_estimate_falls_back_exactly(kind, wrong, monkeypatch):
    """An estimate that misleads every lane must fail the two-point
    check everywhere and leave the exact fallback to produce the bits."""
    import repro.kernels.fused as fused

    def misleading(kern, vt, m):
        r_hat = kern.RH[:, :m]
        r_hat.fill(wrong)
        return r_hat

    monkeypatch.setattr(fused, "_root_estimate", misleading)
    kernel = FusedKernel()
    dvt = CELLS[kind].variation_model().sample(_CHUNK + 173, seed=31)
    assert_margins_identical(kind, 0.70, dvt)
    margins_with(kernel, CELLS[kind], 0.70, dvt)
    assert kernel.lanes_checked > 0
    assert kernel.lanes_accepted == 0


@pytest.mark.parametrize("kind", ["6t", "8t"])
def test_two_point_check_accepts_default_variation(kind):
    """The fast path must actually carry the default-variation block: a
    root estimator that silently always fell back would stay
    bit-identical but lose the speed."""
    kernel = FusedKernel()
    dvt = CELLS[kind].variation_model().sample(8192, seed=20160227)
    margins_with(kernel, CELLS[kind], 0.70, dvt)
    assert kernel.lanes_checked == 8192 * (4 if kind == "6t" else 3)
    assert kernel.lanes_accepted >= 0.99 * kernel.lanes_checked


@pytest.mark.parametrize("kind", ["6t", "8t"])
@pytest.mark.parametrize("scale", [2.0, 3.5])
@pytest.mark.parametrize("vdd", [0.35, 0.60, 0.85, 1.10])
def test_widened_variation_bit_identical(kind, scale, vdd):
    """Widened ΔVT pushes lanes into the rejected and pinned tails,
    where the fallback and the rail overrides do the work."""
    dvt = CELLS[kind].variation_model().sample(4096, seed=41) * scale
    assert_margins_identical(kind, vdd, dvt)


# ----------------------------------------------------------------------
# Input validation at the API boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("vdd", [np.nan, 0.0, np.inf, -np.inf, -0.5, "0.7V"])
def test_bad_supply_rejected_by_every_backend(path, vdd):
    dvt = CELLS["6t"].variation_model().sample(16, seed=1)
    with pytest.raises(ConfigurationError, match="vdd"):
        PATHS[path](CELLS["6t"], vdd, dvt)


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("kind,columns", [("6t", 5), ("6t", 8), ("8t", 6)])
def test_dvt_column_count_must_match_the_cell(path, kind, columns):
    dvt = np.zeros((4, columns))
    with pytest.raises(ConfigurationError, match="columns"):
        PATHS[path](CELLS[kind], 0.7, dvt)
    with pytest.raises(ConfigurationError, match="columns"):
        PATHS[path](CELLS[kind], 0.7, dvt[0])


def test_short_bisection_skips_the_replay():
    """A supply a few microvolts wide stops before the replay would
    save an evaluation; the exact bisection runs alone."""
    vdd = 1e-6
    assert _fixed_stop_iteration(vdd) < 12
    kernel = FusedKernel()
    dvt = CELLS["6t"].variation_model().sample(64, seed=3)
    margins_with(kernel, CELLS["6t"], vdd, dvt)
    assert kernel.lanes_checked == 0
    assert_margins_identical("6t", vdd, dvt)


# ----------------------------------------------------------------------
# One lane re-solved on a narrow block
# ----------------------------------------------------------------------
def test_stored_eight_sample_block_bit_identical():
    """Eight samples give scratch rows 64 bytes apart; when only sample
    0 is re-solved, the bracket mask is built on that strided column."""
    n_dev = len(CELLS["6t"].devices)
    dvt = np.full((8, n_dev), 0.5)
    dvt[0, 0] = 0.0
    assert_margins_identical("6t", 0.5, dvt)


@pytest.mark.parametrize("kind", ["6t", "8t"])
@pytest.mark.parametrize("n", range(1, 17))
def test_single_rejected_sample_bit_identical(kind, n, monkeypatch):
    """A root estimate wrong for exactly one sample re-solves that
    sample alone, at every narrow block width."""
    import repro.kernels.fused as fused

    honest = fused._root_estimate

    def wrong_for_sample_0(kern, vt, m):
        r_hat = honest(kern, vt, m)
        r_hat[:, 0] = np.nan
        return r_hat

    monkeypatch.setattr(fused, "_root_estimate", wrong_for_sample_0)
    kernel = FusedKernel()
    dvt = CELLS[kind].variation_model().sample(n, seed=n)
    assert_margins_identical(kind, 0.70, dvt)
    margins_with(kernel, CELLS[kind], 0.70, dvt)
    n_eqs = 4 if kind == "6t" else 3
    assert kernel.lanes_checked == n * n_eqs
    assert kernel.lanes_checked - kernel.lanes_accepted == n_eqs
