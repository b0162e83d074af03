"""Tests for the ``periodic`` and ``analysis`` experiment kinds (ISSUE 3).

Mirrors :mod:`tests.test_config_spec` for the two kinds that close the
ROADMAP coverage gap:

* **determinism** — the same spec produces the identical payload, and each
  analysis figure draws from a fixed seed slot (deselecting one figure
  never perturbs the others);
* **equivalence** — a spec-driven run matches the equivalent hand-built
  calls into :mod:`repro.periodic.period_search` and
  :mod:`repro.analysis`;
* **progress** — ``run_spec`` emits one status event per cell / level /
  study, serially and in parallel;
* **errors** — malformed periodic/analysis specs fail with path-aware
  messages.
"""

from __future__ import annotations

import pytest

from repro.analysis.sensitivity import sensitivity_study
from repro.analysis.throughput import throughput_decrease_study
from repro.analysis.usage import characterize
from repro.config import SpecError, parse_spec, run_spec
from repro.core.application import Application
from repro.core.platform import generic, intrepid
from repro.core.scenario import Scenario
from repro.experiments.runner import SchedulerCase, run_grid
from repro.periodic.heuristics import InsertInScheduleCong, InsertInScheduleThrou
from repro.periodic.period_search import search_period
from repro.utils.rng import spawn_rngs
from repro.workload.darshan import generate_records

PLATFORM = {
    "preset": "generic",
    "processors": 400,
    "node_bandwidth": 1.0e6,
    "system_bandwidth": 4.0e7,
    "name": "steady-state",
}

APPS = [
    {"name": "checkpointer", "processors": 120, "work": 180.0,
     "io_volume": 2.4e9, "instances": 6},
    {"name": "analytics", "processors": 80, "work": 90.0,
     "io_volume": 1.6e9, "instances": 8},
    {"name": "solver", "processors": 150, "work": 420.0,
     "io_volume": 3.0e9, "instances": 4},
]


def periodic_spec_data(seed: int = 3) -> dict:
    return {
        "experiment": {"name": "periodic-test", "kind": "periodic",
                       "seed": seed},
        "periodic": {
            "heuristics": ["throughput", "congestion"],
            "online": ["MaxSysEff", "MinDilation"],
            "epsilon": 0.2,
            "max_period_factor": 4.0,
            "platform": dict(PLATFORM),
            "apps": [dict(a) for a in APPS],
        },
    }


def analysis_spec_data(seed: int = 9, figures=None) -> dict:
    data = {
        "experiment": {"name": "analysis-test", "kind": "analysis",
                       "seed": seed, "max_time": 4000.0},
        "analysis": {
            "figure1": {"n_applications": 8, "applications_per_batch": 4,
                        "release_spread": 0.0},
            "figure5": {"n_jobs": 60},
            "figure7": {"sensibilities": [0, 25], "n_repetitions": 2,
                        "schedulers": ["MaxSysEff"]},
        },
    }
    if figures is not None:
        data["analysis"]["figures"] = list(figures)
    return data


# ---------------------------------------------------------------------- #
# Determinism: same spec -> identical payload
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_periodic_same_spec_same_payload(self):
        a = run_spec(parse_spec(periodic_spec_data()))
        b = run_spec(parse_spec(periodic_spec_data()))
        assert a.payload == b.payload
        assert a.records == b.records
        assert a.text == b.text

    def test_periodic_generated_mix_is_seeded(self):
        data = {
            "experiment": {"kind": "periodic", "seed": 5},
            "periodic": {"small": 3, "large": 1, "io_ratio": 0.2,
                         "platform": dict(PLATFORM), "online": []},
        }
        a = run_spec(parse_spec(data))
        b = run_spec(parse_spec(data))
        assert a.payload == b.payload
        # A different seed draws a different mix.
        data["experiment"]["seed"] = 6
        c = run_spec(parse_spec(data))
        assert c.payload["applications"] != a.payload["applications"]

    def test_analysis_same_spec_same_payload(self):
        a = run_spec(parse_spec(analysis_spec_data()))
        b = run_spec(parse_spec(analysis_spec_data()))
        assert a.payload == b.payload
        assert a.records == b.records

    def test_analysis_figures_use_fixed_seed_slots(self):
        """Deselecting figures must not perturb the remaining studies."""
        full = run_spec(parse_spec(analysis_spec_data()))
        only7 = run_spec(parse_spec(analysis_spec_data(figures=["figure7"])))
        assert (
            only7.payload["figures"]["figure7"]
            == full.payload["figures"]["figure7"]
        )
        only1 = run_spec(parse_spec(analysis_spec_data(figures=["figure1"])))
        assert (
            only1.payload["figures"]["figure1"]
            == full.payload["figures"]["figure1"]
        )


# ---------------------------------------------------------------------- #
# Equivalence: spec-driven == hand-built
# ---------------------------------------------------------------------- #
class TestEquivalence:
    def hand_built_platform(self):
        return generic(
            total_processors=400,
            node_bandwidth=1.0e6,
            system_bandwidth=4.0e7,
            name="steady-state",
        )

    def hand_built_apps(self):
        return [
            Application.periodic(
                name=a["name"],
                processors=a["processors"],
                work=a["work"],
                io_volume=a["io_volume"],
                n_instances=a["instances"],
            )
            for a in APPS
        ]

    def test_periodic_spec_matches_direct_search(self):
        result = run_spec(parse_spec(periodic_spec_data()))
        platform = self.hand_built_platform()
        apps = self.hand_built_apps()
        for key, heuristic, objective in (
            ("throughput", InsertInScheduleThrou(), "system_efficiency"),
            ("congestion", InsertInScheduleCong(), "dilation"),
        ):
            direct = search_period(
                heuristic, platform, apps, objective=objective,
                epsilon=0.2, max_period_factor=4.0,
            )
            summary = direct.best_schedule.summary()
            got = result.payload["periodic"][key]
            assert got["best_period"] == direct.best_period
            assert got["system_efficiency"] == summary.system_efficiency
            assert got["dilation"] == summary.dilation
            assert len(got["sweep"]) == len(direct.sweep)

    def test_periodic_online_half_matches_direct_grid(self):
        result = run_spec(parse_spec(periodic_spec_data()))
        scenario = Scenario(
            platform=self.hand_built_platform(),
            applications=tuple(self.hand_built_apps()),
            label="direct",
        )
        cases = [SchedulerCase(name=n) for n in ("MaxSysEff", "MinDilation")]
        grid = run_grid([scenario], cases)
        for case in grid.cases:
            got = result.payload["online"][case.scheduler_label]
            assert got["system_efficiency"] == case.system_efficiency
            assert got["dilation"] == case.dilation
            assert got["makespan"] == case.makespan

    def test_figure1_spec_matches_direct_study(self):
        seed = 9
        result = run_spec(parse_spec(analysis_spec_data(seed,
                                                        figures=["figure1"])))
        direct = throughput_decrease_study(
            8,
            platform=intrepid(),
            applications_per_batch=4,
            release_spread=0.0,
            rng=spawn_rngs(seed, 3)[0],
            max_time=4000.0,
        )
        got = result.payload["figures"]["figure1"]
        assert got["histogram"] == list(direct.histogram)
        assert got["mean_decrease"] == direct.mean_decrease
        assert got["n_applications"] == direct.n_applications

    def test_figure5_spec_matches_direct_characterization(self):
        seed = 9
        result = run_spec(parse_spec(analysis_spec_data(seed,
                                                        figures=["figure5"])))
        usage = characterize(
            generate_records(60, intrepid(), spawn_rngs(seed, 3)[1],
                             duration_days=365.0, coverage=0.5),
            duration_days=365.0,
        )
        got = result.payload["figures"]["figure5"]
        assert got["daily_node_hours"] == {
            c.value: v for c, v in usage.daily_node_hours.items()
        }
        assert got["job_counts"] == {
            c.value: n for c, n in usage.job_counts.items()
        }

    def test_figure7_spec_matches_direct_study(self):
        seed = 9
        result = run_spec(parse_spec(analysis_spec_data(seed,
                                                        figures=["figure7"])))
        direct = sensitivity_study(
            (0, 25),
            schedulers=("MaxSysEff",),
            n_repetitions=2,
            platform=intrepid(),
            rng=spawn_rngs(seed, 3)[2],
            max_time=4000.0,
        )
        got = result.payload["figures"]["figure7"]
        assert got["sensibilities_percent"] == direct.sensibilities()
        assert (
            got["series"]["MaxSysEff"]["system_efficiency"]
            == direct.series("MaxSysEff", "system_efficiency")
        )
        assert (
            got["series"]["MaxSysEff"]["dilation"]
            == direct.series("MaxSysEff", "dilation")
        )


# ---------------------------------------------------------------------- #
# Progress events
# ---------------------------------------------------------------------- #
class TestProgress:
    def test_grid_progress_fires_once_per_cell(self, status_lines):
        data = {
            "experiment": {"kind": "grid", "seed": 1, "max_time": 500.0},
            "platform": dict(PLATFORM),
            "scenarios": [{"kind": "mix", "small": 2, "repetitions": 2}],
            "schedulers": {"names": ["FairShare", "MaxSysEff"]},
        }
        with status_lines() as lines:
            run_spec(parse_spec(data))
        # 2 repetitions x 2 schedulers.
        assert len(lines) == 4
        assert lines[0].startswith("cell 1/4:")
        assert lines[-1].startswith("cell 4/4:")

    def test_parallel_grid_progress_matches_serial(self, status_lines):
        data = {
            "experiment": {"kind": "grid", "seed": 1, "max_time": 500.0,
                           "workers": 2},
            "platform": dict(PLATFORM),
            "scenarios": [{"kind": "mix", "small": 2, "repetitions": 2}],
            "schedulers": {"names": ["FairShare", "MaxSysEff"]},
        }
        with status_lines() as parallel_lines:
            parallel = run_spec(parse_spec(data))
        data["experiment"]["workers"] = 1
        with status_lines() as serial_lines:
            serial = run_spec(parse_spec(data))
        # Results are collected in submission order, so the streamed lines
        # are identical too — parallelism only changes wall-clock time.
        assert parallel_lines == serial_lines
        assert parallel.records == serial.records

    def test_periodic_progress_covers_sweeps_and_online_cells(self, status_lines):
        with status_lines() as lines:
            run_spec(parse_spec(periodic_spec_data()))
        sweeps = [line for line in lines if line.startswith("periodic ")]
        cells = [line for line in lines if line.startswith("cell ")]
        assert len(sweeps) == 2  # one per heuristic
        assert len(cells) == 2  # one per online scheduler
        assert len(lines) == 4

    def test_analysis_progress_streams_levels_and_studies(self, status_lines):
        with status_lines() as lines:
            run_spec(parse_spec(analysis_spec_data(figures=["figure7"])))
        levels = [line for line in lines if line.startswith("sensibility ")]
        # One line per sensibility level, plus the per-cell grid lines from
        # run_grid and the figure summary.
        assert len(levels) == 2
        assert lines[-1].startswith("figure7:")

    def test_no_sink_is_silent_and_identical(self, status_lines):
        with status_lines() as lines:
            with_progress = run_spec(parse_spec(periodic_spec_data()))
        without = run_spec(parse_spec(periodic_spec_data()))
        assert with_progress.payload == without.payload
        assert lines  # the sink actually received events


# ---------------------------------------------------------------------- #
# Malformed specs
# ---------------------------------------------------------------------- #
class TestErrors:
    def expect(self, data: dict, *needles: str) -> str:
        with pytest.raises(SpecError) as excinfo:
            parse_spec(data)
        message = str(excinfo.value)
        for needle in needles:
            assert needle in message, f"{needle!r} not in error: {message}"
        return message

    def test_periodic_rejects_max_time_at_parse_and_run(self):
        """Truncating only the online half would skew the comparison."""
        data = periodic_spec_data()
        data["experiment"]["max_time"] = 100.0
        self.expect(data, "max_time", "periodic")
        # A CLI --max-time override lands after parsing; the runner rejects it.
        spec = parse_spec(periodic_spec_data()).with_overrides(max_time=100.0)
        with pytest.raises(SpecError, match="max_time is not supported"):
            run_spec(spec)

    def test_periodic_max_period_below_minimum_fails_at_build_time(self):
        """`repro validate` shares build_periodic_setup with `repro run`, so
        an unsweepable max_period must fail validation, not just the run."""
        from repro.config import build_periodic_setup

        data = periodic_spec_data()
        data["periodic"]["max_period"] = 1.0
        spec = parse_spec(data)  # parse alone cannot know the minimum period
        with pytest.raises(SpecError, match="minimum period"):
            build_periodic_setup(spec.body, spec.seed)
        with pytest.raises(SpecError, match="minimum period"):
            run_spec(spec)

    def test_periodic_oversubscribed_apps_fail_at_build_time(self):
        """Explicit apps exceeding the machine must fail validate/run even
        with online = [], where no Scenario would ever check the budget."""
        from repro.config import build_periodic_setup

        data = periodic_spec_data()
        data["periodic"]["online"] = []
        for app in data["periodic"]["apps"]:
            app["processors"] = 200  # 3 x 200 > the 400-processor platform
        spec = parse_spec(data)
        with pytest.raises(SpecError, match="processors"):
            build_periodic_setup(spec.body, spec.seed)
        with pytest.raises(SpecError, match="processors"):
            run_spec(spec)

    def test_heuristic_table_backs_both_parser_and_runner(self):
        """The accepted-name list is the runner's dispatch table's key list."""
        from repro.config.spec import PERIODIC_HEURISTICS
        from repro.periodic.heuristics import PERIODIC_HEURISTIC_TABLE

        assert tuple(PERIODIC_HEURISTIC_TABLE) == PERIODIC_HEURISTICS

    def test_periodic_requires_apps_or_mix(self):
        self.expect(
            {"experiment": {"kind": "periodic"}, "periodic": {}},
            "periodic", "needs applications",
        )

    def test_periodic_rejects_apps_and_mix_together(self):
        data = periodic_spec_data()
        data["periodic"]["small"] = 2
        self.expect(data, "not both")

    def test_periodic_unknown_heuristic_lists_choices(self):
        data = periodic_spec_data()
        data["periodic"]["heuristics"] = ["fastest"]
        self.expect(data, "periodic.heuristics[0]", "fastest", "throughput")

    def test_periodic_bad_online_scheduler_name(self):
        data = periodic_spec_data()
        data["periodic"]["online"] = ["MaxSysEfficiency"]
        self.expect(data, "periodic.online[0]", "MaxSysEff")

    def test_periodic_epsilon_below_float_resolution_rejected(self):
        """``1 + 1e-20 == 1``: the period sweep could never advance."""
        data = periodic_spec_data()
        data["periodic"]["epsilon"] = 1e-20
        self.expect(data, "periodic.epsilon", "1 + epsilon rounds to 1")

    def test_periodic_smallest_advancing_epsilon_accepted(self):
        """Machine epsilon is the smallest step with ``1 + epsilon != 1``,
        so the float-resolution check must let it through unchanged."""
        import sys

        data = periodic_spec_data()
        data["periodic"]["epsilon"] = sys.float_info.epsilon
        spec = parse_spec(data)
        assert spec.body.epsilon == sys.float_info.epsilon

    def test_periodic_rejects_nonzero_release(self):
        data = periodic_spec_data()
        data["periodic"]["apps"][1]["release"] = 5.0
        self.expect(data, "periodic.apps[1].release", "steady-state")

    def test_periodic_rejects_duplicate_app_names(self):
        data = periodic_spec_data()
        data["periodic"]["apps"][2]["name"] = "checkpointer"
        self.expect(data, "periodic.apps[2].name", "checkpointer")

    def test_analysis_unknown_figure_lists_choices(self):
        self.expect(
            {"experiment": {"kind": "analysis"},
             "analysis": {"figures": ["figure2"]}},
            "analysis.figures[0]", "figure2", "figure1",
        )

    def test_analysis_duplicate_sensibilities_rejected(self):
        data = analysis_spec_data()
        data["analysis"]["figure7"]["sensibilities"] = [0, 10, 10]
        self.expect(data, "analysis.figure7.sensibilities[2]", "duplicates")

    def test_analysis_out_of_range_sensibility_rejected(self):
        data = analysis_spec_data()
        data["analysis"]["figure7"]["sensibilities"] = [0, 120]
        self.expect(data, "analysis.figure7.sensibilities[1]", "<= 99")

    def test_analysis_non_numeric_sensibility_names_path(self):
        data = analysis_spec_data()
        data["analysis"]["figure7"]["sensibilities"] = [0, "lots"]
        self.expect(data, "analysis.figure7.sensibilities[1]", "number")

    def test_analysis_unknown_key_lists_expected(self):
        data = analysis_spec_data()
        data["analysis"]["figure1"]["apps_per_batch"] = 4  # typo
        self.expect(data, "apps_per_batch", "applications_per_batch")

    def test_analysis_batch_of_one_rejected(self):
        data = analysis_spec_data()
        data["analysis"]["figure1"]["applications_per_batch"] = 1
        self.expect(data, "analysis.figure1.applications_per_batch", ">= 2")
