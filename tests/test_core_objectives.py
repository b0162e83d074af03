"""Unit tests for the Section 2.2 objectives."""

from __future__ import annotations

import math

import pytest

from repro.core.objectives import (
    ApplicationOutcome,
    achieved_efficiency,
    application_dilation,
    max_dilation,
    mean_dilation,
    optimal_efficiency,
    summarize,
    system_efficiency,
    system_efficiency_upper_limit,
)
from repro.utils.validation import ValidationError


def outcome(**kwargs) -> ApplicationOutcome:
    defaults = dict(
        name="a",
        processors=10,
        release_time=0.0,
        completion_time=200.0,
        executed_work=100.0,
        dedicated_io_time=50.0,
    )
    defaults.update(kwargs)
    return ApplicationOutcome(**defaults)


class TestOutcomeValidation:
    def test_valid(self):
        assert outcome().elapsed == 200.0

    def test_completion_before_release_rejected(self):
        with pytest.raises(ValidationError):
            outcome(release_time=100.0, completion_time=50.0)

    def test_non_positive_processors_rejected(self):
        with pytest.raises(ValidationError):
            outcome(processors=0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValidationError):
            outcome(executed_work=-1.0)


class TestPerApplication:
    def test_achieved_efficiency(self):
        # 100 s of work over 200 s elapsed.
        assert achieved_efficiency(outcome()) == pytest.approx(0.5)

    def test_optimal_efficiency(self):
        # 100 / (100 + 50)
        assert optimal_efficiency(outcome()) == pytest.approx(2.0 / 3.0)

    def test_dilation_is_ratio(self):
        # (2/3) / (1/2) = 4/3
        assert application_dilation(outcome()) == pytest.approx(4.0 / 3.0)

    def test_no_congestion_dilation_is_one(self):
        o = outcome(completion_time=150.0)  # exactly w + time_io
        assert application_dilation(o) == pytest.approx(1.0)

    def test_zero_elapsed_degenerate(self):
        o = outcome(completion_time=0.0, executed_work=0.0, dedicated_io_time=0.0)
        assert achieved_efficiency(o) == optimal_efficiency(o)
        assert application_dilation(o) == pytest.approx(1.0)

    def test_zero_work_with_io_dilation_infinite_when_stalled(self):
        o = outcome(executed_work=0.0, dedicated_io_time=10.0, completion_time=100.0)
        assert achieved_efficiency(o) == 0.0
        assert optimal_efficiency(o) == 0.0
        assert application_dilation(o) == pytest.approx(1.0)

    def test_pure_compute_application(self):
        o = outcome(dedicated_io_time=0.0, completion_time=100.0)
        assert optimal_efficiency(o) == 1.0
        assert application_dilation(o) == pytest.approx(1.0)


class TestAggregates:
    def make_pair(self):
        a = outcome(name="a", processors=30, executed_work=100.0, completion_time=200.0)
        b = outcome(name="b", processors=70, executed_work=150.0, completion_time=300.0,
                    dedicated_io_time=30.0)
        return [a, b]

    def test_system_efficiency_weighted_by_processors(self):
        outs = self.make_pair()
        expected = (30 * 0.5 + 70 * 0.5) / 100
        assert system_efficiency(outs) == pytest.approx(expected)

    def test_system_efficiency_with_explicit_total(self):
        outs = self.make_pair()
        assert system_efficiency(outs, total_processors=200) == pytest.approx(
            system_efficiency(outs) / 2
        )

    def test_upper_limit_at_least_efficiency(self):
        outs = self.make_pair()
        assert system_efficiency_upper_limit(outs) >= system_efficiency(outs)

    def test_max_and_mean_dilation(self):
        outs = self.make_pair()
        dils = [application_dilation(o) for o in outs]
        assert max_dilation(outs) == pytest.approx(max(dils))
        assert mean_dilation(outs) == pytest.approx(sum(dils) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            system_efficiency([])
        with pytest.raises(ValidationError):
            max_dilation([])

    def test_summarize_scales_to_percent(self):
        outs = self.make_pair()
        summary = summarize(outs)
        assert summary.system_efficiency == pytest.approx(100 * system_efficiency(outs))
        assert summary.upper_limit == pytest.approx(
            100 * system_efficiency_upper_limit(outs)
        )
        assert summary.dilation == pytest.approx(max_dilation(outs))
        assert set(summary.as_dict()) == {
            "system_efficiency",
            "dilation",
            "upper_limit",
            "mean_dilation",
        }

    def test_dilation_never_below_one_for_valid_runs(self):
        # completion >= release + work + dedicated io  =>  dilation >= 1
        o = outcome(completion_time=151.0)
        assert application_dilation(o) >= 1.0


class TestSummarizeMatchesEachObjective:
    """``summarize`` scores each application once; its floats must equal the
    per-objective functions' bit for bit, on real runs and degenerate ones."""

    @staticmethod
    def assert_bit_equal(outs, total=None):
        summary = summarize(outs, total)
        assert summary.system_efficiency == 100.0 * system_efficiency(outs, total)
        assert summary.dilation == max_dilation(outs)
        assert summary.upper_limit == 100.0 * system_efficiency_upper_limit(
            outs, total
        )
        assert summary.mean_dilation == mean_dilation(outs)

    @pytest.mark.parametrize("panel", ["10large-20", "50small5large-35"])
    @pytest.mark.parametrize("max_time", [math.inf, 600.0])
    def test_generated_mixes(self, panel, max_time):
        from repro.core.platform import intrepid
        from repro.online.registry import make_scheduler
        from repro.simulator import SimulatorConfig, simulate
        from repro.workload.generator import figure6_mix

        config = SimulatorConfig(max_time=max_time)
        for seed in range(3):
            scenario = figure6_mix(panel, intrepid(), seed)
            for name in ("MaxSysEff", "MinDilation", "FairShare"):
                outs = simulate(scenario, make_scheduler(name), config).outcomes()
                self.assert_bit_equal(outs)
                self.assert_bit_equal(outs, 40_960)

    def test_degenerate_outcomes(self):
        outs = [
            outcome(name="idle", completion_time=0.0),  # zero elapsed
            outcome(name="stalled", executed_work=0.0, completion_time=20.0),
            outcome(name="empty", executed_work=0.0, dedicated_io_time=0.0),
            outcome(name="normal", processors=3, release_time=7.5),
        ]
        self.assert_bit_equal(outs)
        assert summarize(outs).dilation == math.inf

    def test_same_errors(self):
        with pytest.raises(ValidationError, match="at least one outcome"):
            summarize([])
        with pytest.raises(ValidationError, match="total_processors"):
            summarize([outcome()], 0)
