"""Tests of the Fig. 7 / Fig. 8 studies — the paper's headline behaviours."""

import pytest

from repro.core import hybrid_configuration_study, voltage_scaling_study
from repro.fault.evaluate import evaluate_under_faults
from repro.rng import derive_seed


@pytest.fixture(scope="module")
def fig7(sim):
    return voltage_scaling_study(sim, vdds=(0.95, 0.85, 0.75, 0.70, 0.65), seed=11)


@pytest.fixture(scope="module")
def fig8(sim):
    return hybrid_configuration_study(sim, vdds=(0.65,), msb_counts=(1, 2, 3, 4),
                                      seed=12)


class TestVoltageScalingFig7:
    def test_scaling_to_0p75_is_accuracy_free(self, fig7):
        """Paper: 200 mV of scaling for <0.5% accuracy loss."""
        for point in fig7:
            if point.vdd >= 0.75:
                assert point.accuracy_drop_pct < 0.5

    def test_aggressive_scaling_collapses_accuracy(self, fig7):
        """Paper: aggressive scaling degrades accuracy by >30%."""
        worst = fig7[-1]
        assert worst.vdd == 0.65
        assert worst.accuracy_drop_pct > 30.0

    def test_power_savings_monotone_in_scaling(self, fig7):
        savings = [p.access_power_saving_pct for p in fig7]
        assert all(a <= b + 1e-9 for a, b in zip(savings, savings[1:]))
        assert savings[0] == pytest.approx(0.0, abs=1e-6)

    def test_leakage_savings_positive_when_scaled(self, fig7):
        assert fig7[-1].leakage_saving_pct > 10.0


class TestHybridFig8:
    def test_accuracy_monotone_in_protection(self, fig8):
        accs = [r.accuracy_pct for r in fig8]
        assert all(a <= b + 0.25 for a, b in zip(accs, accs[1:]))

    def test_three_msbs_recover_near_nominal(self, fig8):
        """Paper Fig. 8(a): 3-4 protected MSBs suffice at 0.65 V."""
        by_n = {r.msb_in_8t: r for r in fig8}
        baseline_pct = 100.0 * by_n[3].evaluation.baseline_accuracy
        assert baseline_pct - by_n[3].accuracy_pct < 1.0
        assert baseline_pct - by_n[4].accuracy_pct < 0.6

    def test_one_msb_not_enough(self, fig8):
        """With only the sign bit protected, exposed high-magnitude bits
        still hurt (the Fig. 8(a) (1,7) point sits visibly below)."""
        by_n = {r.msb_in_8t: r for r in fig8}
        assert by_n[1].accuracy_pct < by_n[3].accuracy_pct

    def test_area_overhead_matches_cell_arithmetic(self, fig8):
        """Fig. 8(c): overhead = n/8 * 37%."""
        for r in fig8:
            assert r.area_overhead_pct == pytest.approx(
                r.msb_in_8t / 8 * 37.0, abs=0.5
            )

    def test_power_reduction_positive_but_shrinks_with_n(self, fig8):
        reductions = [r.access_power_reduction_pct for r in fig8]
        assert all(x > 20.0 for x in reductions)
        assert all(a >= b for a, b in zip(reductions, reductions[1:]))

    def test_labels_use_paper_notation(self, fig8):
        assert fig8[0].label == "(1,7)"
        assert fig8[-1].label == "(4,4)"


def _per_point_reference(sim, memory, seed):
    """The studies' former path: one ``evaluate_under_faults`` call per
    point, with its own clean pass."""
    injector = memory.fault_injector(
        include_write_failures=sim.include_write_failures,
        include_read_disturb=sim.include_read_disturb,
    )
    return evaluate_under_faults(
        sim.model.network, sim.model.image, injector,
        sim.model.dataset.x_test, sim.model.dataset.y_test,
        n_trials=sim.n_trials, seed=seed,
    ).to_dict()


class TestStudiesMatchPerPointEvaluation:
    """Evaluating a study's points in one batch changes no number."""

    def test_scaling_points(self, sim, fig7):
        nominal = sim.base_memory(float(sim.tables.table_6t.points[-1].vdd))
        for i, point in enumerate(fig7):
            memory = sim.base_memory(point.vdd)
            assert point.evaluation.to_dict() == _per_point_reference(
                sim, memory, derive_seed(11, i)
            )
            assert point.comparison_vs_nominal == sim.compare(
                memory, baseline=nominal
            )

    def test_hybrid_points(self, sim, fig8):
        assert [(r.vdd, r.msb_in_8t) for r in fig8] == [
            (0.65, n) for n in (1, 2, 3, 4)
        ]
        for r in fig8:
            memory = sim.config1_memory(r.vdd, msb_in_8t=r.msb_in_8t)
            assert r.evaluation.to_dict() == _per_point_reference(
                sim, memory, derive_seed(12, 0, r.msb_in_8t)
            )
            assert r.comparison_vs_baseline == sim.compare(memory)

    def test_two_voltage_hybrid_uses_voltage_index_seeds(self, sim):
        results = hybrid_configuration_study(
            sim, vdds=(0.70, 0.65), msb_counts=(2, 3), seed=5
        )
        assert [(r.vdd, r.msb_in_8t) for r in results] == [
            (0.70, 2), (0.70, 3), (0.65, 2), (0.65, 3)
        ]
        for r, vi in zip(results, (0, 0, 1, 1)):
            memory = sim.config1_memory(r.vdd, msb_in_8t=r.msb_in_8t)
            assert r.evaluation.to_dict() == _per_point_reference(
                sim, memory, derive_seed(5, vi, r.msb_in_8t)
            )
