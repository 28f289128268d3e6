"""Tests of the Monte-Carlo failure analysis (paper Fig. 5 behaviour)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram import FailureType, MonteCarloAnalyzer, failure_rates_vs_vdd
from repro.sram.failures import compute_failure_margins, margin_statistics
from repro.sram.read_path import nominal_read_cycle


@pytest.fixture(scope="module")
def mc6(cell6):
    return MonteCarloAnalyzer(cell=cell6, n_samples=4000, seed=123)


@pytest.fixture(scope="module")
def mc8(cell6, cell8):
    # 8T judged against the 6T timing budget ("equal read access times").
    return MonteCarloAnalyzer(
        cell=cell8, n_samples=4000, seed=124,
        read_cycle=nominal_read_cycle(cell6),
    )


class TestMargins:
    def test_margin_shapes(self, cell6):
        dvt = cell6.variation_model().sample(256, seed=9)
        margins = compute_failure_margins(cell6, 0.8, dvt)
        assert margins.read_access.shape == (256,)
        assert margins.write.shape == (256,)
        assert margins.read_disturb.shape == (256,)

    def test_8t_has_no_disturb_margin(self, cell8):
        dvt = cell8.variation_model().sample(64, seed=9)
        margins = compute_failure_margins(cell8, 0.8, dvt)
        assert margins.read_disturb is None
        assert not margins.fail_mask(FailureType.READ_DISTURB).any()

    def test_nominal_margins_all_positive(self, cell6):
        dvt = np.zeros((1, 6))
        margins = compute_failure_margins(cell6, 0.95, dvt)
        assert margins.read_access[0] > 0
        assert margins.write[0] > 0
        assert margins.read_disturb[0] > 0

    def test_margin_statistics_keys(self, cell6):
        dvt = cell6.variation_model().sample(128, seed=2)
        stats = margin_statistics(compute_failure_margins(cell6, 0.8, dvt))
        assert set(stats) == {"read_access", "write", "read_disturb"}
        for entry in stats.values():
            assert entry["std"] >= 0


class TestAnalyzer:
    def test_rejects_tiny_sample_count(self, cell6):
        with pytest.raises(ConfigurationError):
            MonteCarloAnalyzer(cell=cell6, n_samples=10)

    def test_rejects_nonpositive_vdd(self, mc6):
        with pytest.raises(ConfigurationError):
            mc6.analyze(0.0)

    def test_deterministic_given_seed(self, cell6):
        a = MonteCarloAnalyzer(cell=cell6, n_samples=2000, seed=7).analyze(0.7)
        b = MonteCarloAnalyzer(cell=cell6, n_samples=2000, seed=7).analyze(0.7)
        assert a.estimate == b.estimate

    def test_probabilities_are_probabilities(self, mc6):
        rates = mc6.analyze(0.7)
        for p in list(rates.estimate.values()) + [rates.p_cell]:
            assert 0.0 <= p <= 1.0

    def test_negligible_failures_at_nominal(self, mc6):
        rates = mc6.analyze(0.95)
        assert rates.p_cell < 1e-6


class TestPaperFig5Shape:
    """Qualitative assertions lifted from the paper's failure analysis."""

    def test_read_access_failures_grow_as_vdd_falls(self, mc6):
        sweep = [mc6.analyze(v).p_read_access for v in (0.85, 0.75, 0.65)]
        assert sweep[0] < sweep[1] < sweep[2]

    def test_read_access_dominates_write_at_scaled_vdd(self, mc6):
        """Fig. 5: read access failures dominate write failures in 6T."""
        rates = mc6.analyze(0.65)
        assert rates.p_read_access > 10 * rates.p_write

    def test_read_disturb_negligible(self, mc6):
        """Sec. V: disturb failures small enough to be neglected."""
        rates = mc6.analyze(0.65)
        assert rates.p_read_disturb < 1e-6

    def test_6t_fails_substantially_at_0p65(self, mc6):
        assert mc6.analyze(0.65).p_cell > 1e-2

    def test_8t_negligible_across_paper_range(self, mc8):
        """Sec. V: 8T virtually unaffected in the voltage range of interest."""
        for v in (0.65, 0.75, 0.85, 0.95):
            assert mc8.analyze(v).p_cell < 1e-4

    def test_sweep_helper_matches_analyzer(self, cell6):
        rates = failure_rates_vs_vdd(cell6, [0.7, 0.8], n_samples=2000, seed=5)
        assert [r.vdd for r in rates] == [0.7, 0.8]
        assert rates[0].p_cell >= rates[1].p_cell


class TestTailProbability:
    """The Gaussian tail uses ``scipy.special.ndtr`` — the function
    ``scipy.stats.norm.cdf`` evaluates — so that importing the CLI does
    not load ``scipy.stats``; both must give the same bits."""

    def test_tail_probability_bit_equal_to_norm_cdf(self, monkeypatch):
        from scipy.stats import norm

        from repro.sram import montecarlo
        from repro.sram.montecarlo import MechanismTally, _tail_probability

        z = np.concatenate([np.linspace(-40.0, 12.0, 200_001),
                            -np.logspace(-12, 1.5, 2_001)])
        np.testing.assert_array_equal(montecarlo.ndtr(z), norm.cdf(z))
        tallies = []
        for mean in np.linspace(-0.05, 0.3, 36):
            for std in (1e-4, 3e-3, 0.02, 0.05, 0.11):
                finite = 4096
                total = mean * finite
                total_sq = std * std * (finite - 1) + finite * mean * mean
                tallies.append(MechanismTally(
                    fails=(0,), finite=(finite,), inf_fails=(3,),
                    totals=(total,), totals_sq=(total_sq,), mins=(mean,),
                ))
        fast = [_tail_probability(t, 4100) for t in tallies]
        monkeypatch.setattr(montecarlo, "ndtr", norm.cdf)
        reference = [_tail_probability(t, 4100) for t in tallies]
        assert [p.hex() for p in fast] == [p.hex() for p in reference]
        assert len(set(fast)) > 50  # the grid spans bulk and deep tail

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == "False"
