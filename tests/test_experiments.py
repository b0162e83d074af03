"""Unit tests for the experiment harness (runner, comparison, overhead, vesta, reporting)."""

from __future__ import annotations

import pytest

from repro.core.application import Application
from repro.core.platform import Platform, intrepid
from repro.core.scenario import Scenario
from repro.experiments.comparison import (
    FIGURE6_SCENARIOS,
    TABLE_SCHEDULERS,
    congested_moments_experiment,
    figure6_experiment,
)
from repro.experiments.overhead import (
    DEFAULT_OVERHEAD,
    OverheadModel,
    scenario_overhead_fractions,
)
from repro.experiments.reporting import (
    format_mapping,
    format_series,
    format_table,
    percent,
    ratio,
)
from repro.experiments.runner import (
    CaseResult,
    ExperimentGrid,
    SchedulerCase,
    map_parallel,
    resolve_workers,
    run_case,
    run_grid,
)
from repro.experiments.vesta import (
    VESTA_CONFIGURATIONS,
    figure14_overheads,
    figure16_per_application_dilation,
    run_vesta_case,
    vesta_experiment,
)
from repro.utils.validation import ValidationError
from repro.workload.ior import ior_scenario


def tiny_scenario(label="tiny") -> Scenario:
    platform = Platform("p", 100, 1e6, 2e7)
    apps = tuple(
        Application.periodic(f"a{i}", 30, work=20.0, io_volume=3e8, n_instances=2)
        for i in range(3)
    )
    return Scenario(platform=platform, applications=apps, label=label)


class TestRunner:
    def test_run_case_basic(self):
        case = SchedulerCase(name="MaxSysEff")
        result = run_case(tiny_scenario(), case)
        assert isinstance(result, CaseResult)
        assert result.scheduler_label == "MaxSysEff"
        assert 0 < result.system_efficiency <= 100
        assert result.dilation >= 1.0
        assert result.upper_limit >= result.system_efficiency - 1e-9

    def test_run_case_returns_result_object(self):
        case = SchedulerCase(name="FairShare")
        case_result, sim_result = run_case(tiny_scenario(), case, return_result=True)
        assert sim_result.scheduler_name == "FairShare"
        assert case_result.makespan == pytest.approx(sim_result.makespan)

    def test_burst_buffer_case_requires_spec(self):
        case = SchedulerCase(name="Intrepid", use_burst_buffer=True)
        with pytest.raises(ValidationError):
            run_case(tiny_scenario(), case)

    def test_burst_buffer_platform_override(self):
        bb_platform = Platform(
            "p-bb", 100, 1e6, 2e7,
            burst_buffer=__import__("repro.core.platform", fromlist=["BurstBufferSpec"]).BurstBufferSpec(
                capacity=1e8, ingest_bandwidth=1e8, drain_bandwidth=1e7
            ),
        )
        case = SchedulerCase(
            name="FairShare",
            use_burst_buffer=True,
            burst_buffer_platform=bb_platform,
            label="FairShare+BB",
        )
        result = run_case(tiny_scenario(), case)
        assert result.scheduler_label == "FairShare+BB"

    def test_case_display_labels(self):
        assert SchedulerCase("MaxSysEff").display == "MaxSysEff"
        assert SchedulerCase("MaxSysEff", use_burst_buffer=True).display == "MaxSysEff+BB"
        assert SchedulerCase("X", label="custom").display == "custom"

    def test_run_grid_shape_and_series(self):
        scenarios = [tiny_scenario("s1"), tiny_scenario("s2")]
        cases = [SchedulerCase("MaxSysEff"), SchedulerCase("MinDilation")]
        grid = run_grid(scenarios, cases)
        assert grid.schedulers() == ["MaxSysEff", "MinDilation"]
        assert grid.scenarios() == ["s1", "s2"]
        assert len(grid.series("MaxSysEff", "dilation")) == 2
        averages = grid.averages()
        assert set(averages) == {"MaxSysEff", "MinDilation"}
        assert grid.cell("s1", "MaxSysEff").scenario_label == "s1"

    def test_grid_missing_cell(self):
        grid = ExperimentGrid()
        with pytest.raises(KeyError):
            grid.cell("nope", "nope")

    def test_run_grid_validates_inputs(self):
        with pytest.raises(ValidationError):
            run_grid([], [SchedulerCase("MaxSysEff")])
        with pytest.raises(ValidationError):
            run_grid([tiny_scenario()], [])


class TestParallelGrid:
    """The workers= fan-out must be cell-for-cell identical to serial runs."""

    def test_resolve_workers(self):
        import os

        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)
        with pytest.raises(ValidationError):
            resolve_workers(-1)

    def test_map_parallel_preserves_order(self):
        assert map_parallel(_square, [3, 1, 2], workers=2) == [9, 1, 4]
        assert map_parallel(_square, [3, 1, 2], workers=None) == [9, 1, 4]

    def test_run_grid_parallel_matches_serial(self):
        scenarios = [tiny_scenario("t0"), tiny_scenario_b()]
        cases = [SchedulerCase(name="MaxSysEff"), SchedulerCase(name="RoundRobin")]
        serial = run_grid(scenarios, cases)
        parallel = run_grid(scenarios, cases, workers=2)
        assert len(serial.cases) == len(parallel.cases)
        for s, p in zip(serial.cases, parallel.cases):
            assert (s.scenario_label, s.scheduler_label) == (
                p.scenario_label,
                p.scheduler_label,
            )
            assert s.makespan == p.makespan
            assert s.n_events == p.n_events
            assert s.summary == p.summary

    def test_vesta_rejects_live_generator_in_parallel(self):
        import numpy as np

        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="seed-like"):
            vesta_experiment(
                scenarios=("512",), configurations=("IOR",), rng=rng, workers=2
            )
        with pytest.raises(ValidationError, match="seed-like"):
            figure14_overheads(("512",), rng=rng, workers=2)
        # Serial runs keep accepting live generators (state advances per cell).
        result = vesta_experiment(
            scenarios=("512",), configurations=("IOR",), rng=rng
        )
        assert len(result.cases) == 1

    def test_scenario_overhead_fractions_matches_method(self):
        scenarios = [tiny_scenario("t0"), tiny_scenario_b()]
        batch = scenario_overhead_fractions(scenarios)
        assert batch == [
            DEFAULT_OVERHEAD.scenario_overhead_fraction(s) for s in scenarios
        ]


def tiny_scenario_b() -> Scenario:
    platform = Platform("p", 100, 1e6, 2e7)
    apps = tuple(
        Application.periodic(f"b{i}", 20, work=35.0, io_volume=2e8, n_instances=3)
        for i in range(4)
    )
    return Scenario(platform=platform, applications=apps, label="tiny-b")


def _square(x: int) -> int:
    """Module-level so ProcessPoolExecutor can pickle it."""
    return x * x


class TestFigure6Experiment:
    def test_small_run_has_all_schedulers(self):
        result = figure6_experiment(
            "10large-20", n_repetitions=2, schedulers=("MaxSysEff", "MinDilation"),
            rng=0,
        )
        assert set(result.averages) == {"MaxSysEff", "MinDilation"}
        ranked = result.ranked_by_system_efficiency()
        assert ranked[0].system_efficiency >= ranked[-1].system_efficiency
        ranked_d = result.ranked_by_dilation()
        assert ranked_d[0].dilation <= ranked_d[-1].dilation

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            figure6_experiment("nope", n_repetitions=1)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValidationError):
            figure6_experiment(FIGURE6_SCENARIOS[0], n_repetitions=0)


class TestCongestedMomentsExperiment:
    def test_mira_small_campaign(self):
        result = congested_moments_experiment(
            "mira", n_moments=2, schedulers=("MaxSysEff", "MinDilation"), rng=0
        )
        table = result.table()
        assert "Mira" in table  # the baseline is always added
        assert "MaxSysEff" in table
        series = result.series("MaxSysEff", "system_efficiency")
        assert len(series) == 2
        assert len(result.upper_limit_series()) == 2
        assert result.mean_upper_limit() > 0

    def test_priority_only_filter(self):
        result = congested_moments_experiment(
            "intrepid",
            n_moments=1,
            schedulers=("MaxSysEff", "Priority-MaxSysEff"),
            rng=0,
            priority_only=True,
        )
        assert set(result.table()) == {"Priority-MaxSysEff", "Intrepid"}

    def test_unknown_machine(self):
        with pytest.raises(ValidationError):
            congested_moments_experiment("jaguar", n_moments=1)

    def test_table_schedulers_constant_matches_paper_rows(self):
        assert "MinMax-0.25" in TABLE_SCHEDULERS
        assert "Priority-MinDilation" in TABLE_SCHEDULERS


class TestOverheadModel:
    def test_per_instance_overhead_amortized(self):
        model = OverheadModel(request_latency=1.0, per_node_cost=0.01)
        solo = model.per_instance_overhead(512, 1)
        shared = model.per_instance_overhead(512, 4)
        assert solo > shared > 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DEFAULT_OVERHEAD.per_instance_overhead(0, 1)
        with pytest.raises(ValueError):
            DEFAULT_OVERHEAD.per_instance_overhead(16, 0)

    def test_fraction_in_paper_range_for_vesta_mixes(self):
        overheads = figure14_overheads()
        values = list(overheads.values())
        assert min(values) >= 0.5
        assert max(values) <= 6.0
        # The single 512-node group pays the most; the four-application
        # mixes pay less.
        assert overheads["512"] > overheads["512/512/512/512"]
        assert overheads["512"] >= overheads["512/256/256/32"]

    def test_apply_to_scenario_lengthens_instances(self):
        scenario = ior_scenario("256/256", rng=0)
        inflated = DEFAULT_OVERHEAD.apply_to_scenario(scenario)
        for original, modified in zip(scenario, inflated):
            assert modified.instances[0].work > original.instances[0].work
            assert modified.instances[0].io_volume == original.instances[0].io_volume

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValidationError):
            OverheadModel(request_latency=-1.0)


class TestVestaExperiment:
    def test_single_case_ior(self):
        case = run_vesta_case("256/256", "IOR", rng=0)
        assert case.configuration == "IOR"
        assert case.summary.dilation >= 1.0
        assert set(case.per_application_dilation) == {"ior-0-256n", "ior-1-256n"}

    def test_single_case_heuristic_with_bb(self):
        case = run_vesta_case("256/256", "BBMaxSysEff", rng=0)
        assert case.summary.system_efficiency > 0

    def test_unknown_configuration(self):
        with pytest.raises(ValidationError):
            run_vesta_case("256", "Nonsense")

    def test_small_grid(self):
        result = vesta_experiment(
            scenarios=("256/256", "32/512"), configurations=("IOR", "MaxSysEff")
        )
        assert result.scenarios() == ["256/256", "32/512"]
        assert len(result.series("IOR", "system_efficiency")) == 2
        assert len(result.series("MaxSysEff", "dilation")) == 2

    def test_figure16_contains_all_configurations(self):
        data = figure16_per_application_dilation("512/256/256/32")
        assert set(data) == {"IOR", "MaxSysEff", "MinDilation"}
        for dilations in data.values():
            assert len(dilations) == 4
            assert all(d >= 1.0 - 1e-9 for d in dilations.values())

    def test_configuration_list_is_paper_grid(self):
        assert len(VESTA_CONFIGURATIONS) == 6
        assert {"IOR", "BBIOR"} <= set(VESTA_CONFIGURATIONS)


class TestReporting:
    def test_format_table_alignment_and_numbers(self):
        text = format_table(
            ["Scheduler", "SysEff", "Dilation"],
            [["MaxSysEff", 85.351, 2.456], ["MinDilation", 70.4, 1.6]],
            title="Table 1",
        )
        assert "Table 1" in text
        assert "85.35" in text and "1.60" in text
        assert text.endswith("\n")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_requires_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_format_series(self):
        assert format_series("x", [1.0, 2.5]) == "x: [1.00, 2.50]"

    def test_format_mapping_sorted(self):
        text = format_mapping({"b": 2.0, "a": 1.0}, sort=True)
        assert text.index("a") < text.index("b")

    def test_percent_and_ratio(self):
        assert percent(85.354) == "85.35"
        assert ratio(2.456) == "2.46"
        assert ratio(float("inf")) == "inf"
        assert ratio(float("nan")) == "-"
