"""Integration tests asserting the paper's qualitative claims end to end.

These are the "does the reproduction reproduce" tests: each one runs a small
version of one of the paper's experiments through the public API and checks
the *shape* of the result (who wins, in which direction), never the absolute
numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.application import Application
from repro.core.evaluation import VESTA_SCENARIOS
from repro.core.platform import BurstBufferSpec, Platform, generic, intrepid
from repro.core.scenario import Scenario
from repro.experiments.comparison import (
    FIGURE6_SCHEDULERS,
    TABLE_SCHEDULERS,
    congested_moments_experiment,
    figure6_experiment,
)
from repro.experiments.runner import SchedulerCase, run_grid
from repro.experiments.vesta import (
    figure16_per_application_dilation,
    run_vesta_case,
    vesta_experiment,
)
from repro.online.baselines import FairShare
from repro.online.registry import make_scheduler
from repro.periodic import InsertInScheduleThrou, search_period
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.interference import NO_INTERFERENCE
from repro.workload.congested import intrepid_congested_moments


pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def intrepid_moments():
    """A handful of Intrepid congested moments shared by several tests."""
    return intrepid_congested_moments(4, rng=11)


@pytest.fixture(scope="module")
def moments_grid(intrepid_moments):
    cases = [
        SchedulerCase("MaxSysEff"),
        SchedulerCase("MinDilation"),
        SchedulerCase("MinMax-0.5"),
        SchedulerCase("Priority-MaxSysEff"),
        SchedulerCase("Priority-MinDilation"),
        SchedulerCase("RoundRobin"),
        SchedulerCase("Intrepid"),
        SchedulerCase(
            "Intrepid",
            use_burst_buffer=True,
            burst_buffer_platform=intrepid(with_burst_buffer=True),
            label="Intrepid+BB",
        ),
    ]
    return run_grid(intrepid_moments, cases)


class TestCongestedMomentClaims:
    def test_heuristics_beat_uncoordinated_congestion(self, moments_grid):
        """Core claim: the global scheduler mitigates congestion (Section 4.4)."""
        baseline = moments_grid.mean("Intrepid", "system_efficiency")
        for scheduler in ("MaxSysEff", "MinDilation", "MinMax-0.5"):
            assert moments_grid.mean(scheduler, "system_efficiency") > baseline

    def test_heuristics_reduce_dilation_versus_congestion(self, moments_grid):
        baseline = moments_grid.mean("Intrepid", "dilation")
        assert moments_grid.mean("MinDilation", "dilation") < baseline
        assert moments_grid.mean("MinMax-0.5", "dilation") < baseline

    def test_maxsyseff_among_best_system_efficiency(self, moments_grid):
        """MaxSysEff optimizes the machine-level objective.

        On the full 56-moment campaign MaxSysEff has the best average
        SysEfficiency; on a 4-moment sample the ordering against the other
        coordinated heuristics can wobble by a couple of points, so the test
        asserts it is within a small margin of the best and clearly above
        the uncoordinated baseline and RoundRobin.
        """
        best = moments_grid.mean("MaxSysEff", "system_efficiency")
        for other in ("MinDilation", "MinMax-0.5"):
            assert best >= moments_grid.mean(other, "system_efficiency") - 3.0
        assert best > moments_grid.mean("RoundRobin", "system_efficiency")
        assert best > moments_grid.mean("Intrepid", "system_efficiency")

    def test_mindilation_best_dilation(self, moments_grid):
        """MinDilation optimizes the user-level fairness objective."""
        best = moments_grid.mean("MinDilation", "dilation")
        for other in ("MaxSysEff", "MinMax-0.5", "RoundRobin", "Intrepid"):
            assert best <= moments_grid.mean(other, "dilation") + 1e-9

    def test_minmax_is_a_trade_off(self, moments_grid):
        """MinMax-γ sits between the two extreme heuristics on both objectives."""
        dil = {
            name: moments_grid.mean(name, "dilation")
            for name in ("MaxSysEff", "MinMax-0.5", "MinDilation")
        }
        assert dil["MinDilation"] <= dil["MinMax-0.5"] <= dil["MaxSysEff"]

    def test_priority_variant_costs_little(self, moments_grid):
        """Priority variants stay close to the originals.

        The paper observes the Priority constraint is usually slightly less
        efficient but that "the difference in system efficiency and
        application dilation is small in all studied scenarios"; the test
        asserts exactly that smallness, in both directions.
        """
        for base in ("MaxSysEff", "MinDilation"):
            plain = moments_grid.mean(base, "system_efficiency")
            prio = moments_grid.mean(f"Priority-{base}", "system_efficiency")
            assert abs(prio - plain) <= 0.2 * plain

    def test_heuristics_without_bb_comparable_to_baseline_with_bb(self, moments_grid):
        """The striking result: no burst buffers needed to match the baseline."""
        with_bb = moments_grid.mean("Intrepid+BB", "system_efficiency")
        no_bb_heuristic = moments_grid.mean("MaxSysEff", "system_efficiency")
        assert no_bb_heuristic >= 0.8 * with_bb
        # ... and the heuristic remains far ahead of the baseline without them.
        assert no_bb_heuristic > 1.2 * moments_grid.mean("Intrepid", "system_efficiency")

    def test_upper_limit_bounds_everything(self, moments_grid):
        # The upper limit is defined against the file-system-only model
        # (min(beta*b, B)); burst-buffer runs can legitimately exceed it
        # because the staging layer is faster than the file system, so they
        # are excluded here.
        for scheduler in moments_grid.schedulers():
            if scheduler.endswith("+BB"):
                continue
            eff = np.asarray(moments_grid.series(scheduler, "system_efficiency"))
            upper = np.asarray(moments_grid.series(scheduler, "upper_limit"))
            assert np.all(eff <= upper * (1 + 1e-6))


class TestFigure6Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6_experiment(
            "10large-20",
            n_repetitions=4,
            schedulers=("MaxSysEff", "MinDilation", "MinMax-0.5", "RoundRobin"),
            rng=21,
        )

    def test_maxsyseff_vs_mindilation_trade_off(self, result):
        max_eff = result.averages["MaxSysEff"]
        min_dil = result.averages["MinDilation"]
        assert max_eff.system_efficiency > min_dil.system_efficiency
        assert min_dil.dilation < max_eff.dilation

    def test_minmax_trade_off_position(self, result):
        minmax = result.averages["MinMax-0.5"]
        assert minmax.dilation <= result.averages["MaxSysEff"].dilation + 1e-9
        assert minmax.dilation >= result.averages["MinDilation"].dilation - 1e-9

    def test_round_robin_is_not_the_best(self, result):
        rr = result.averages["RoundRobin"]
        assert rr.system_efficiency <= result.averages["MaxSysEff"].system_efficiency
        assert rr.dilation >= result.averages["MinDilation"].dilation


@pytest.mark.parametrize(
    "scenario", ["10large-20", "50small5large-20", "50small5large-35"]
)
def test_figure6_panel_shape(scenario):
    """Every Figure 6 panel over 5 mixes: MaxSysEff wins SysEfficiency,
    MinDilation wins Dilation, and MinMax-0.5 sits between the two on
    Dilation (within 5%: in heavily congested mixes MinMax-0.5 and
    MinDilation become nearly indistinguishable and can cross by a hair)."""
    avg = figure6_experiment(
        scenario, n_repetitions=5, schedulers=FIGURE6_SCHEDULERS, rng=6
    ).averages
    assert avg["MaxSysEff"].system_efficiency >= avg["MinDilation"].system_efficiency
    assert avg["MinDilation"].dilation <= avg["MaxSysEff"].dilation
    assert avg["MinDilation"].dilation <= avg["MinMax-0.5"].dilation * 1.05
    assert avg["MinMax-0.5"].dilation <= avg["MaxSysEff"].dilation * 1.05


def _table_averages(machine: str, n_moments: int, rng: int) -> dict:
    """A Table 1/2 campaign, checked for the shape both tables share: the
    Dilation order MinDilation <= MinMax-0.5 <= MaxSysEff, the heuristics
    competitive with the machine's scheduler (with burst buffers) on their
    own objective, and the upper limit above MaxSysEff."""
    result = congested_moments_experiment(
        machine, n_moments=n_moments, schedulers=TABLE_SCHEDULERS, rng=rng
    )
    table = result.table()
    baseline = table[machine.capitalize()]
    assert (
        table["MinDilation"].dilation
        <= table["MinMax-0.5"].dilation
        <= table["MaxSysEff"].dilation
    )
    assert table["MaxSysEff"].system_efficiency >= 0.9 * baseline.system_efficiency
    assert table["MinDilation"].dilation <= baseline.dilation
    assert result.mean_upper_limit() >= table["MaxSysEff"].system_efficiency - 1e-9
    return table


class TestTableExperiments:
    def test_table1_intrepid_shape(self):
        table = _table_averages("intrepid", 8, rng=1)
        # SysEfficiency moves the other way along the MinMax sweep.
        assert (
            table["MaxSysEff"].system_efficiency
            >= table["MinMax-0.5"].system_efficiency
            >= table["MinDilation"].system_efficiency * 0.95
        )

    def test_table2_mira_shape(self):
        _table_averages("mira", 4, rng=2)

    @pytest.mark.parametrize(
        "machine, n_moments, schedulers, rng",
        [
            pytest.param(
                "intrepid", 6,
                ("Priority-MaxSysEff", "Priority-MinMax-0.25", "Priority-MinMax-0.5",
                 "Priority-MinMax-0.75", "Priority-MinDilation", "MaxSysEff",
                 "MinDilation"),
                810, id="figures8-10",
            ),
            pytest.param(
                "mira", 4,
                ("Priority-MaxSysEff", "Priority-MinMax-0.5", "Priority-MinDilation",
                 "MaxSysEff", "MinDilation"),
                1113, id="figures11-13",
            ),
        ],
    )
    def test_per_moment_figures_beat_the_machine_scheduler(
        self, machine, n_moments, schedulers, rng
    ):
        """The heuristics beat the native scheduler (with burst buffers) on
        their respective objectives."""
        table = congested_moments_experiment(
            machine, n_moments=n_moments, schedulers=schedulers, rng=rng
        ).table()
        baseline = table[machine.capitalize()]
        assert table["MaxSysEff"].system_efficiency >= 0.9 * baseline.system_efficiency
        assert table["Priority-MinDilation"].dilation <= baseline.dilation

    def test_mira_campaign_shape(self):
        result = congested_moments_experiment(
            "mira",
            n_moments=3,
            schedulers=("MaxSysEff", "MinMax-0.5", "MinDilation"),
            rng=31,
        )
        table = result.table()
        # Dilation decreases monotonically from MaxSysEff to MinDilation.
        assert (
            table["MinDilation"].dilation
            <= table["MinMax-0.5"].dilation
            <= table["MaxSysEff"].dilation
        )
        # The baseline with burst buffers does not dominate the best heuristic.
        assert table["MaxSysEff"].system_efficiency >= 0.9 * table["Mira"].system_efficiency
        assert result.mean_upper_limit() >= table["MaxSysEff"].system_efficiency - 1e-9


class TestVestaClaims:
    def test_heuristics_beat_plain_ior_when_congested(self):
        mix = "512/256/256/32"
        ior = run_vesta_case(mix, "IOR", rng=0)
        maxsyseff = run_vesta_case(mix, "MaxSysEff", rng=0)
        mindil = run_vesta_case(mix, "MinDilation", rng=0)
        assert maxsyseff.summary.system_efficiency > ior.summary.system_efficiency
        assert mindil.summary.dilation < ior.summary.dilation

    def test_heuristics_without_bb_vs_ior_with_bb(self):
        """Section 5's headline: >= 3 applications, no BB needed."""
        mix = "256/256/256/256"
        bb_ior = run_vesta_case(mix, "BBIOR", rng=0)
        maxsyseff = run_vesta_case(mix, "MaxSysEff", rng=0)
        assert maxsyseff.summary.system_efficiency >= 0.9 * bb_ior.summary.system_efficiency

    def test_single_application_overhead_is_small(self):
        """With one application the scheduler only adds its request overhead."""
        solo_ior = run_vesta_case("512", "IOR", rng=0)
        solo_sched = run_vesta_case("512", "MaxSysEff", rng=0)
        loss = (
            solo_ior.summary.system_efficiency - solo_sched.summary.system_efficiency
        ) / solo_ior.summary.system_efficiency
        assert 0.0 <= loss < 0.1

    def test_figure16_maxsyseff_sacrifices_small_application(self):
        data = figure16_per_application_dilation("512/256/256/32", rng=0)
        small_app = "ior-3-32n"
        big_app = "ior-0-512n"
        # MaxSysEff favours the big application at the expense of the small one.
        assert data["MaxSysEff"][big_app] <= data["IOR"][big_app]
        assert data["MaxSysEff"][big_app] <= data["MaxSysEff"][small_app]
        # MinDilation keeps the spread of dilations tighter than MaxSysEff,
        # and sacrifices no application as much.
        spread = lambda d: max(d.values()) - min(d.values())  # noqa: E731
        assert spread(data["MinDilation"]) <= spread(data["MaxSysEff"])
        assert max(data["MinDilation"].values()) <= max(data["MaxSysEff"].values()) + 1e-9

    def test_figure15_multi_application_mixes(self):
        """Figure 15 over the first eight Vesta mixes: with three or more
        applications the heuristics beat plain IOR, and MaxSysEff without
        burst buffers stays within 15% of IOR with them."""
        mixes = VESTA_SCENARIOS[:8]
        result = vesta_experiment(scenarios=mixes)
        for mix in (m for m in mixes if m.count("/") >= 2):
            ior = result.cell(mix, "IOR").summary
            maxsyseff = result.cell(mix, "MaxSysEff").summary
            assert maxsyseff.system_efficiency > ior.system_efficiency
            assert result.cell(mix, "MinDilation").summary.dilation < ior.dilation
            bb_ior = result.cell(mix, "BBIOR").summary
            assert maxsyseff.system_efficiency >= 0.85 * bb_ior.system_efficiency


class TestPeriodicVsOnline:
    def test_periodic_schedule_competitive_on_steady_state(self):
        """Periodic schedules reach a steady-state efficiency comparable to
        what the online scheduler achieves on the same applications.

        The comparison uses applications whose individual I/O does not
        saturate the whole back-end (otherwise the greedy periodic insertion
        has no choice but to serialize all transfers, which the paper leaves
        to future work to improve on).
        """
        platform = Platform("steady", 200, 1e6, 2e7)
        apps = [
            Application.periodic(f"s{i}", 30, work=120.0 + 30 * i, io_volume=8e8,
                                 n_instances=4)
            for i in range(4)
        ]
        result = search_period(
            InsertInScheduleThrou(), platform, apps,
            objective="system_efficiency", epsilon=0.2, max_period_factor=5.0,
        )
        periodic_eff = result.best_schedule.summary().system_efficiency
        scenario = Scenario(platform=platform, applications=tuple(apps))
        online = simulate(scenario, make_scheduler("MaxSysEff"), SimulatorConfig())
        online_eff = online.summary().system_efficiency
        assert result.best_schedule.is_complete()
        assert periodic_eff >= 0.6 * online_eff


class TestAblations:
    """How much each modelling knob matters (not paper figures)."""

    def test_interference_hurts_the_uncoordinated_baseline(self):
        moments = intrepid_congested_moments(3, rng=100)
        efficiency = {
            label: np.mean([simulate(m, scheduler).summary().system_efficiency
                            for m in moments])
            for label, scheduler in (
                ("interfering", FairShare()),
                ("ideal", FairShare(interference=NO_INTERFERENCE)),
            )
        }
        assert efficiency["interfering"] < efficiency["ideal"]

    def test_more_burst_buffer_capacity_never_hurts(self):
        moments = intrepid_congested_moments(2, rng=101)
        efficiency = []
        for capacity in (0.5e12, 2e12, 4e12, 16e12):
            platform = intrepid().with_burst_buffer(
                BurstBufferSpec(capacity=capacity, ingest_bandwidth=512e9,
                                drain_bandwidth=0.6 * 88e9)
            )
            efficiency.append(np.mean([
                simulate(
                    m.with_platform(platform),
                    FairShare(name="Intrepid"),
                    SimulatorConfig(use_burst_buffer=True),
                ).summary().system_efficiency
                for m in moments
            ]))
        assert efficiency[-1] >= efficiency[0] - 2.0

    def test_minmax_gamma_trades_dilation(self):
        """γ=0 is MaxSysEff, γ=1 is MinDilation: the larger γ, the lower
        the average Dilation."""
        grid = run_grid(
            intrepid_congested_moments(3, rng=102),
            [
                SchedulerCase("MaxSysEff", label="MinMax-0.0"),
                SchedulerCase("MinMax-0.25"),
                SchedulerCase("MinMax-0.5"),
                SchedulerCase("MinMax-0.75"),
                SchedulerCase("MinDilation", label="MinMax-1.0"),
            ],
        )
        assert grid.mean("MinMax-1.0", "dilation") <= grid.mean("MinMax-0.0", "dilation")

    def test_finer_period_search_is_no_worse(self):
        platform = generic(total_processors=400, node_bandwidth=1e6,
                           system_bandwidth=4e7, name="ablation")
        apps = [
            Application.periodic(f"a{i}", 80, work=120.0 + 40 * i, io_volume=2e9,
                                 n_instances=3)
            for i in range(4)
        ]
        best = [
            search_period(
                InsertInScheduleThrou(), platform, apps,
                objective="system_efficiency", epsilon=epsilon,
                max_period_factor=6.0,
            ).best_schedule.summary().system_efficiency
            for epsilon in (0.5, 0.2, 0.05)
        ]
        assert best[-1] >= best[0] - 1e-6
