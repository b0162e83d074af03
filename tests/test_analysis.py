"""Unit tests for the analysis layer (Figures 1, 5 and 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sensitivity import (
    FIGURE7_SCHEDULERS,
    derive_streams,
    sensitivity_study,
)
from repro.analysis.throughput import throughput_decrease_study
from repro.analysis.usage import characterize, daily_usage, io_time_percentage
from repro.core.platform import generic, intrepid
from repro.utils.validation import ValidationError
from repro.workload.categories import Category
from repro.workload.darshan import DarshanRecord, generate_records, replicate_uncovered


class TestThroughputStudy:
    def test_small_study_shape(self):
        study = throughput_decrease_study(
            n_applications=24, applications_per_batch=6, rng=0
        )
        assert study.n_applications >= 20
        assert len(study.histogram) == len(study.bin_edges) - 1
        assert sum(study.histogram) == study.n_applications
        assert 0.0 <= study.mean_decrease <= 100.0
        assert study.max_decrease <= 100.0

    def test_congestion_produces_significant_decreases(self):
        study = throughput_decrease_study(
            n_applications=30, applications_per_batch=6, rng=1
        )
        # The whole point of Figure 1: some applications lose a lot.
        assert study.max_decrease > 30.0
        assert study.fraction_above(10.0) > 0.2

    def test_figure1_shape(self):
        # Figure 1 over 60 applications: congestion costs some applications
        # well over 40% of their throughput (the paper: up to ~70%).
        study = throughput_decrease_study(n_applications=60, rng=1)
        assert study.max_decrease > 40.0
        assert study.fraction_above(30.0) > 0.1

    def test_fraction_above_monotone(self):
        study = throughput_decrease_study(
            n_applications=24, applications_per_batch=6, rng=2
        )
        assert study.fraction_above(20.0) >= study.fraction_above(60.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            throughput_decrease_study(n_applications=0)
        with pytest.raises(ValidationError):
            throughput_decrease_study(n_applications=10, applications_per_batch=1)
        with pytest.raises(ValidationError):
            throughput_decrease_study(n_applications=10, release_spread=-1.0)

    @pytest.mark.parametrize("batch", [2, 3, 4, 6, 10])
    def test_batches_respect_requested_size(self, batch):
        """Regression: applications_per_batch=2 used to yield 3-app batches
        (n_small=max(2, round(1.6))=2 plus n_large=max(1, 0)=1), silently
        inflating the measured application count."""
        n = 2 * batch
        study = throughput_decrease_study(
            n, applications_per_batch=batch, rng=0, release_spread=0.0
        )
        assert study.n_applications == n
        assert study.n_applications_requested == n

    def test_actual_count_reported_honestly(self):
        """Rounding to whole batches is reported, not papered over."""
        study = throughput_decrease_study(
            10, applications_per_batch=6, rng=0, release_spread=0.0
        )
        assert study.n_applications_requested == 10
        # 10/6 rounds to 2 batches of exactly 6 applications each.
        assert study.n_applications == 12
        assert sum(study.histogram) == study.n_applications


class TestUsage:
    @pytest.fixture
    def records(self):
        return generate_records(200, generic(40_960, 1e8, 8.8e10, name="x"), rng=0)

    def test_daily_usage_covers_categories(self, records):
        usage = daily_usage(records)
        assert set(usage) == set(Category)
        assert all(v >= 0 for v in usage.values())

    def test_io_time_percentage_ranges(self, records):
        percentages = io_time_percentage(records)
        for value in percentages.values():
            assert 0.0 <= value < 100.0
        # Small applications spend proportionally more time in I/O than the
        # very large capability jobs (the Figure 5b shape).
        assert percentages[Category.SMALL] >= percentages[Category.VERY_LARGE]

    def test_characterize_bundles_everything(self, records):
        summary = characterize(records)
        assert sum(summary.job_counts.values()) == len(records)
        assert summary.dominant_category() in set(Category)

    def test_figure5_shape(self):
        # A synthetic Intrepid year: small jobs dominate the count, and
        # spend proportionally more time in I/O than very large ones.
        records = generate_records(1500, intrepid(), rng=2013, duration_days=365.0)
        usage = characterize(replicate_uncovered(records, rng=7))
        assert usage.job_counts[Category.SMALL] > usage.job_counts[Category.VERY_LARGE]
        assert (
            usage.io_time_percent[Category.SMALL]
            >= usage.io_time_percent[Category.VERY_LARGE]
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            daily_usage([])
        with pytest.raises(ValidationError):
            io_time_percentage([])

    def test_manual_records(self):
        records = [
            DarshanRecord("a", 100, 0.0, 3600.0, 360.0, 1e10),
            DarshanRecord("b", 8192, 0.0, 7200.0, 360.0, 1e12),
        ]
        usage = daily_usage(records, duration_days=1.0)
        assert usage[Category.SMALL] == pytest.approx(100.0)
        assert usage[Category.VERY_LARGE] == pytest.approx(8192 * 2.0)
        pct = io_time_percentage(records)
        assert pct[Category.SMALL] == pytest.approx(10.0)
        assert pct[Category.VERY_LARGE] == pytest.approx(5.0)


class TestSensitivityStreams:
    """Regression suite for the correlated-RNG bug.

    ``spawn_rngs(rng, n)`` was called twice with the same integer seed, so
    the perturbation generators replayed the exact streams the mixes were
    generated from; and each repetition's single perturbation generator was
    consumed statefully across sensibility levels.
    """

    def _draws(self, generator: np.random.Generator) -> tuple[float, ...]:
        return tuple(generator.uniform(size=8).tolist())

    def test_perturbation_streams_differ_from_mix_streams(self):
        mix_rngs, perturb_rngs = derive_streams(123, 3, 4)
        mix_draws = {self._draws(r) for r in mix_rngs}
        for level_rngs in perturb_rngs:
            for generator in level_rngs:
                assert self._draws(generator) not in mix_draws

    def test_every_level_and_repetition_gets_its_own_stream(self):
        _, perturb_rngs = derive_streams(7, 3, 4)
        draws = [
            self._draws(generator)
            for level_rngs in perturb_rngs
            for generator in level_rngs
        ]
        assert len(set(draws)) == len(draws) == 12

    def test_streams_are_a_pure_function_of_the_seed(self):
        first = derive_streams(42, 2, 3)
        second = derive_streams(42, 2, 3)
        for a, b in zip(first[0], second[0]):
            assert self._draws(a) == self._draws(b)
        for level_a, level_b in zip(first[1], second[1]):
            for a, b in zip(level_a, level_b):
                assert self._draws(a) == self._draws(b)

    def test_study_deterministic_under_integer_seed(self):
        kwargs = dict(
            schedulers=("MaxSysEff",), n_repetitions=2, rng=11, max_time=4000.0
        )
        a = sensitivity_study((0, 20), **kwargs)
        b = sensitivity_study((0, 20), **kwargs)
        assert a.points == b.points


class TestSensitivity:
    def test_small_sweep_structure(self):
        study = sensitivity_study(
            (0, 20), schedulers=("MaxSysEff",), n_repetitions=2, rng=0
        )
        assert study.sensibilities() == [0.0, 20.0]
        series = study.series("MaxSysEff", "system_efficiency")
        assert len(series) == 2
        assert all(0 < v <= 100 for v in series)

    def test_default_schedulers(self):
        assert set(FIGURE7_SCHEDULERS) == {"MinDilation", "MaxSysEff", "MinMax-0.5"}

    def test_unknown_metric_rejected(self):
        study = sensitivity_study((0,), schedulers=("MaxSysEff",), n_repetitions=1, rng=0)
        with pytest.raises(ValidationError):
            study.series("MaxSysEff", "nonsense")

    def test_sensibility_has_limited_impact(self):
        # The paper's Section 4.3 claim, checked end to end on a small sweep:
        # the objectives move by well under 25% across the 0-30% range.
        study = sensitivity_study(
            (0, 30), schedulers=("MinMax-0.5",), n_repetitions=2, rng=1
        )
        assert study.max_relative_variation("MinMax-0.5", "system_efficiency") < 0.25

    def test_figure7_curves_are_flat(self):
        # Figure 7's full 0-30% sweep: every scheduler's SysEfficiency
        # stays within 25% of its value at 0% sensibility.
        study = sensitivity_study(
            (0, 5, 10, 15, 20, 25, 30), schedulers=FIGURE7_SCHEDULERS,
            n_repetitions=2, rng=7,
        )
        for scheduler in study.schedulers:
            assert study.max_relative_variation(scheduler, "system_efficiency") < 0.25

    def test_out_of_range_sensibility_rejected(self):
        with pytest.raises(ValidationError):
            sensitivity_study((120,), schedulers=("MaxSysEff",), n_repetitions=1, rng=0)
