"""Tests for the declarative config layer (:mod:`repro.config`).

Three concerns:

* **round-trip** — a spec-driven grid is cell-for-cell identical to the
  equivalent hand-built :func:`repro.experiments.runner.run_grid` call
  (the ISSUE 2 acceptance criterion), and the determinism contract
  (entry/repetition seed derivation) holds under spec edits;
* **parsing** — TOML and JSON load to the same spec, defaults apply,
  overrides compose;
* **errors** — malformed specs fail with messages that name the offending
  key path and the accepted alternatives.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from repro.config import (
    ExperimentSpec,
    SpecError,
    build_cases,
    build_grid_scenarios,
    load_spec,
    parse_spec,
    parse_spec_text,
    run_spec,
    write_result,
)
from repro.core.platform import intrepid
from repro.experiments.comparison import figure6_experiment
from repro.experiments.runner import SchedulerCase, run_grid
from repro.utils.rng import spawn_rngs
from repro.workload.congested import CongestedMomentSpec, generate_congested_moment
from repro.workload.generator import MixSpec, generate_mix


# ---------------------------------------------------------------------- #
# Shared spec payloads (dicts; TOML/JSON parse to exactly these shapes)
# ---------------------------------------------------------------------- #
PLATFORM = {
    "preset": "generic",
    "processors": 200,
    "node_bandwidth": 1.0e6,
    "system_bandwidth": 2.0e7,
    "name": "spec-test",
}


def grid_spec_data(seed: int = 11) -> dict:
    return {
        "experiment": {
            "name": "round-trip",
            "kind": "grid",
            "seed": seed,
            "max_time": 2000.0,
        },
        "platform": dict(PLATFORM),
        "scenarios": [
            {"kind": "mix", "label": "mixA", "small": 4, "large": 1,
             "io_ratio": 0.25, "repetitions": 2},
            {"kind": "congested", "label": "hot", "congestion_factor": 1.5,
             "small": 3, "large": 1, "io_ratio": 0.2},
        ],
        "schedulers": {"names": ["FairShare", "MaxSysEff", "MinDilation"]},
    }


# ---------------------------------------------------------------------- #
# Round-trip: spec-driven == hand-built
# ---------------------------------------------------------------------- #
class TestRoundTrip:
    def hand_built_grid(self, seed: int):
        """The documented determinism contract, written out by hand."""
        platform = intrepid()  # replaced below; only shape matters
        from repro.core.platform import generic

        platform = generic(
            total_processors=200,
            node_bandwidth=1.0e6,
            system_bandwidth=2.0e7,
            name="spec-test",
        )
        entry_rngs = spawn_rngs(seed, 2)
        scenarios = []
        for rep, rng in enumerate(spawn_rngs(entry_rngs[0], 2)):
            scenarios.append(
                generate_mix(
                    MixSpec(n_small=4, n_large=1), platform, 0.25, rng,
                    label=f"mixA-rep{rep:02d}",
                )
            )
        (hot_rng,) = spawn_rngs(entry_rngs[1], 1)
        scenarios.append(
            generate_congested_moment(
                CongestedMomentSpec(
                    congestion_factor=1.5, n_small=3, n_large=1,
                    n_very_large=0, io_ratio=0.2,
                ),
                platform,
                hot_rng,
                label="hot",
            )
        )
        cases = [SchedulerCase(name=n)
                 for n in ("FairShare", "MaxSysEff", "MinDilation")]
        return run_grid(scenarios, cases, max_time=2000.0)

    def test_spec_grid_identical_to_hand_built(self):
        seed = 11
        result = run_spec(parse_spec(grid_spec_data(seed)))
        expected = self.hand_built_grid(seed)

        assert len(result.records) == len(expected.cases) == 9
        for record, case in zip(result.records, expected.cases):
            assert record["scenario"] == case.scenario_label
            assert record["scheduler"] == case.scheduler_label
            # Bit-for-bit: the builders must replay the exact random draws.
            assert record["system_efficiency"] == case.system_efficiency
            assert record["dilation"] == case.dilation
            assert record["upper_limit"] == case.upper_limit
            assert record["makespan"] == case.makespan
            assert record["n_events"] == case.n_events

    def test_entry_seed_pins_scenario_against_reordering(self):
        """An entry with its own seed is immune to entries inserted before it."""
        base = grid_spec_data()
        base["scenarios"][1]["seed"] = 123
        one = run_spec(parse_spec(base))

        extended = grid_spec_data()
        extended["scenarios"][1]["seed"] = 123
        extended["scenarios"].insert(
            0,
            {"kind": "mix", "label": "extra", "small": 2, "io_ratio": 0.1},
        )
        two = run_spec(parse_spec(extended))

        pinned_one = [r for r in one.records if r["scenario"] == "hot"]
        pinned_two = [r for r in two.records if r["scenario"] == "hot"]
        assert pinned_one == pinned_two

    def test_same_spec_same_results(self):
        a = run_spec(parse_spec(grid_spec_data()))
        b = run_spec(parse_spec(grid_spec_data()))
        assert a.records == b.records

    def test_figure6_spec_matches_direct_call(self):
        data = {
            "experiment": {"kind": "figure6", "seed": 3, "max_time": 1500.0},
            "figure6": {
                "panels": ["10large-20"],
                "n_repetitions": 2,
                "schedulers": ["MaxSysEff", "MinDilation"],
            },
        }
        result = run_spec(parse_spec(data))
        direct = figure6_experiment(
            "10large-20",
            n_repetitions=2,
            schedulers=("MaxSysEff", "MinDilation"),
            rng=3,
            max_time=1500.0,
        )
        averages = result.payload["panels"]["10large-20"]
        for name, avg in direct.averages.items():
            assert averages[name]["system_efficiency"] == avg.system_efficiency
            assert averages[name]["dilation"] == avg.dilation


# ---------------------------------------------------------------------- #
# Parsing & formats
# ---------------------------------------------------------------------- #
class TestParsing:
    def test_toml_and_json_parse_to_same_run(self, tmp_path):
        data = grid_spec_data()
        toml_text = """
[experiment]
name = "round-trip"
kind = "grid"
seed = 11
max_time = 2000.0

[platform]
preset = "generic"
processors = 200
node_bandwidth = 1.0e6
system_bandwidth = 2.0e7
name = "spec-test"

[[scenarios]]
kind = "mix"
label = "mixA"
small = 4
large = 1
io_ratio = 0.25
repetitions = 2

[[scenarios]]
kind = "congested"
label = "hot"
congestion_factor = 1.5
small = 3
large = 1
io_ratio = 0.2

[schedulers]
names = ["FairShare", "MaxSysEff", "MinDilation"]
"""
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(toml_text)
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(data))

        from_toml = run_spec(load_spec(toml_path))
        from_json = run_spec(load_spec(json_path))
        assert from_toml.records == from_json.records

    def test_defaults(self):
        spec = parse_spec(
            {
                "experiment": {"kind": "grid"},
                "scenarios": [{"kind": "mix", "small": 2}],
                "schedulers": {"names": ["FairShare"]},
            }
        )
        assert spec.seed == 0
        assert spec.workers is None
        assert math.isinf(spec.max_time)
        assert spec.output is None
        assert spec.body.platform.preset == "intrepid"

    def test_with_overrides(self):
        spec = parse_spec(grid_spec_data())
        assert isinstance(spec, ExperimentSpec)
        changed = spec.with_overrides(seed=99, max_time=5.0, workers=2)
        assert (changed.seed, changed.max_time, changed.workers) == (99, 5.0, 2)
        # None leaves spec values alone.
        same = spec.with_overrides()
        assert same == spec

    def test_apps_entry_builds_declared_applications(self):
        spec = parse_spec(
            {
                "experiment": {"kind": "grid", "seed": 0},
                "platform": dict(PLATFORM),
                "scenarios": [
                    {
                        "kind": "apps",
                        "label": "pair",
                        "apps": [
                            {"name": "a", "processors": 50, "work": 10.0,
                             "io_volume": 1e8, "instances": 2},
                            {"name": "b", "processors": 50, "work": 20.0,
                             "io_volume": 2e8, "instances": 3,
                             "release": 5.0},
                        ],
                    }
                ],
                "schedulers": {"names": ["FairShare"]},
            }
        )
        scenarios = build_grid_scenarios(spec.body, spec.seed)
        assert len(scenarios) == 1
        apps = scenarios[0].applications
        assert [a.name for a in apps] == ["a", "b"]
        assert apps[1].release_time == 5.0
        assert apps[1].n_instances == 3

    def test_scale_also_scales_the_burst_buffer(self):
        """A scaled-down machine must not keep a full-size burst buffer."""
        from repro.config import build_burst_buffer_platform, build_platform
        from repro.config.spec import PlatformSpec
        from repro.core.platform import intrepid

        full = intrepid(with_burst_buffer=True).burst_buffer
        bb = build_burst_buffer_platform(
            PlatformSpec(preset="intrepid", scale=0.05)
        ).burst_buffer
        assert bb.capacity == pytest.approx(full.capacity * 0.05)
        assert bb.ingest_bandwidth == pytest.approx(full.ingest_bandwidth * 0.05)
        assert bb.drain_bandwidth == pytest.approx(full.drain_bandwidth * 0.05)
        # Unscaled platforms keep the preset buffer untouched.
        assert (
            build_platform(PlatformSpec(preset="intrepid"), with_burst_buffer=True)
            .burst_buffer
            == full
        )

    def test_bb_platform_keeps_spec_name_and_scale(self):
        """The BB variant must match the plain platform except for the buffer."""
        from repro.config import build_burst_buffer_platform, build_platform
        from repro.config.spec import PlatformSpec

        spec = PlatformSpec(preset="mira", name="my-mira", scale=0.5)
        plain = build_platform(spec)
        bb = build_burst_buffer_platform(spec)
        assert bb.name == plain.name == "my-mira"
        assert bb.total_processors == plain.total_processors
        assert bb.system_bandwidth == plain.system_bandwidth
        assert plain.burst_buffer is None and bb.burst_buffer is not None

    def test_burst_buffer_cases_bind_bb_platform(self):
        spec = parse_spec(
            {
                "experiment": {"kind": "grid"},
                "platform": {"preset": "intrepid"},
                "scenarios": [{"kind": "mix", "small": 2}],
                "schedulers": {
                    "names": ["FairShare"],
                    "cases": [
                        {"name": "Intrepid", "burst_buffer": True,
                         "label": "Intrepid+BB"}
                    ],
                },
            }
        )
        cases = build_cases(spec.body)
        assert cases[0].use_burst_buffer is False
        assert cases[1].use_burst_buffer is True
        assert cases[1].burst_buffer_platform is not None
        assert cases[1].burst_buffer_platform.burst_buffer is not None
        assert cases[1].display == "Intrepid+BB"

    def test_scale_only_platform_table_means_scaled_intrepid(self):
        from repro.config import build_platform

        spec = parse_spec(
            {
                "experiment": {"kind": "grid"},
                "platform": {"scale": 0.1},
                "scenarios": [{"kind": "mix", "small": 2}],
                "schedulers": {"names": ["FairShare"]},
            }
        )
        platform = build_platform(spec.body.platform)
        assert spec.body.platform.preset == "intrepid"
        assert platform.total_processors == 4096  # 40,960 x 0.1

    def test_vesta_oversized_mix_rejected_at_parse_time(self):
        with pytest.raises(SpecError, match="4096 nodes"):
            parse_spec(
                {
                    "experiment": {"kind": "vesta"},
                    "vesta": {"scenarios": ["4096"]},
                }
            )

    def test_vesta_spec_runs(self):
        result = run_spec(
            parse_spec(
                {
                    "experiment": {"kind": "vesta", "seed": 0},
                    "vesta": {
                        "scenarios": ["256", "256/256"],
                        "configurations": ["IOR", "MaxSysEff"],
                    },
                }
            )
        )
        assert len(result.records) == 4
        assert {r["configuration"] for r in result.records} == {"IOR", "MaxSysEff"}

    def test_congested_moments_spec_runs(self):
        result = run_spec(
            parse_spec(
                {
                    "experiment": {"kind": "congested-moments", "seed": 1,
                                   "max_time": 1000.0},
                    "congested_moments": {
                        "machine": "intrepid",
                        "n_moments": 2,
                        "schedulers": ["Priority-MaxSysEff"],
                    },
                }
            )
        )
        # 2 moments x (1 heuristic + the always-appended BB baseline).
        assert len(result.records) == 4
        assert result.payload["baseline"] == "Intrepid"


# ---------------------------------------------------------------------- #
# Output files
# ---------------------------------------------------------------------- #
class TestOutput:
    def test_json_and_csv_round_trip(self, tmp_path):
        result = run_spec(parse_spec(grid_spec_data()))

        json_path = write_result(result, path=str(tmp_path / "out.json"))
        payload = json.loads(json_path.read_text())
        assert payload["experiment"]["name"] == "round-trip"
        assert len(payload["cells"]) == len(result.records)

        csv_path = write_result(
            result, path=str(tmp_path / "out.csv"), format="csv"
        )
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.records)
        assert rows[0]["scenario"] == result.records[0]["scenario"]
        assert float(rows[0]["dilation"]) == pytest.approx(
            result.records[0]["dilation"]
        )

    def test_format_inferred_from_suffix(self, tmp_path):
        result = run_spec(parse_spec(grid_spec_data()))
        path = write_result(result, path=str(tmp_path / "cells.csv"))
        assert path.read_text().startswith("scenario,")

    def test_spec_output_without_format_infers_from_suffix(self, tmp_path):
        """A formatless [output] table with a .csv path must write CSV."""
        data = grid_spec_data()
        data["output"] = {"path": str(tmp_path / "run.csv")}
        result = run_spec(parse_spec(data))
        path = write_result(result)
        assert path is not None
        assert path.read_text().startswith("scenario,")

    def test_no_output_configured_returns_none(self):
        result = run_spec(parse_spec(grid_spec_data()))
        assert write_result(result) is None

    def test_path_override_suffix_beats_spec_format(self, tmp_path):
        """`--out cells.csv` must never receive the spec's JSON format."""
        data = grid_spec_data()
        data["output"] = {"path": str(tmp_path / "spec.json"), "format": "json"}
        result = run_spec(parse_spec(data))
        path = write_result(result, path=str(tmp_path / "cells.csv"))
        assert path.read_text().startswith("scenario,")
        # The spec's own path still honours its declared format.
        spec_path = write_result(result)
        assert spec_path.read_text().lstrip().startswith("{")


# ---------------------------------------------------------------------- #
# Malformed specs: message quality
# ---------------------------------------------------------------------- #
class TestErrors:
    def expect(self, data: dict, *needles: str) -> str:
        with pytest.raises(SpecError) as excinfo:
            parse_spec(data)
        message = str(excinfo.value)
        for needle in needles:
            assert needle in message, f"{needle!r} not in error: {message}"
        return message

    def test_missing_experiment_table(self):
        self.expect({}, "experiment")

    def test_unknown_kind_lists_choices(self):
        self.expect(
            {"experiment": {"kind": "figure99"}},
            "experiment.kind", "figure99", "grid",
        )

    def test_unknown_key_lists_expected(self):
        data = grid_spec_data()
        data["experiment"]["sede"] = 1  # typo for seed
        self.expect(data, "sede", "seed")

    def test_removed_engine_key_is_unknown(self):
        # The engine selector is gone: old specs fail like any typo.
        data = grid_spec_data()
        data["experiment"]["engine"] = "batched"
        self.expect(data, "experiment", "unknown key(s) ['engine']")

    def test_unknown_scenario_key_has_indexed_path(self):
        data = grid_spec_data()
        data["scenarios"][1]["congestion"] = 2.0  # typo
        self.expect(data, "scenarios[1]", "congestion")

    def test_wrong_type_names_path(self):
        data = grid_spec_data()
        data["scenarios"][0]["io_ratio"] = "lots"
        self.expect(data, "scenarios[0].io_ratio", "number", "lots")

    def test_bad_scheduler_name_lists_known(self):
        data = grid_spec_data()
        data["schedulers"]["names"] = ["MaxSysEfficiency"]
        self.expect(data, "schedulers.names[0]", "MaxSysEfficiency", "MaxSysEff")

    def test_empty_mix_rejected(self):
        data = grid_spec_data()
        data["scenarios"][0].update(small=0, large=0)
        self.expect(data, "scenarios[0]", "at least one application")

    def test_missing_schedulers_table(self):
        data = grid_spec_data()
        del data["schedulers"]
        self.expect(data, "schedulers")

    def test_generic_platform_requires_sizes(self):
        data = grid_spec_data()
        del data["platform"]["processors"]
        self.expect(data, "platform.processors", "generic")

    def test_preset_rejects_explicit_sizes(self):
        data = grid_spec_data()
        data["platform"] = {"preset": "intrepid", "processors": 10}
        self.expect(data, "platform.processors", "intrepid")

    def test_bad_ior_mix(self):
        data = grid_spec_data()
        data["scenarios"] = [{"kind": "ior", "mix": "512/abc"}]
        self.expect(data, "scenarios[0].mix", "abc")

    def test_negative_seed_rejected(self):
        data = grid_spec_data()
        data["experiment"]["seed"] = -1
        self.expect(data, "experiment.seed", ">= 0")

    def test_nan_rejected_everywhere_inf_only_for_max_time(self):
        data = grid_spec_data()
        data["experiment"]["max_time"] = float("nan")  # TOML: max_time = nan
        self.expect(data, "experiment.max_time", "NaN")
        data["experiment"]["max_time"] = float("inf")
        parse_spec(data)  # inf is the documented "no truncation" value
        data["experiment"]["max_time"] = 2000.0
        data["scenarios"][0]["io_ratio"] = float("inf")
        self.expect(data, "scenarios[0].io_ratio", "finite")

    def test_with_overrides_validates_bounds(self):
        spec = parse_spec(grid_spec_data())
        with pytest.raises(SpecError, match="seed must be >= 0"):
            spec.with_overrides(seed=-1)
        with pytest.raises(SpecError, match="workers must be >= 0"):
            spec.with_overrides(workers=-1)
        with pytest.raises(SpecError, match="max_time must be > 0"):
            spec.with_overrides(max_time=float("nan"))

    def test_burst_buffer_case_without_bb_platform(self):
        data = grid_spec_data()  # generic platform, no [platform.burst_buffer]
        data["schedulers"]["cases"] = [{"name": "FairShare", "burst_buffer": True}]
        spec = parse_spec(data)
        with pytest.raises(SpecError, match="burst_buffer"):
            build_cases(spec.body)

    def test_burst_buffer_case_rejects_per_entry_platform_override(self):
        """BB cases bind the grid platform; entry overrides would mismatch."""
        data = grid_spec_data()
        data["platform"] = {"preset": "intrepid"}
        data["scenarios"][0]["platform"] = {"preset": "mira"}
        data["schedulers"]["cases"] = [{"name": "Intrepid", "burst_buffer": True}]
        spec = parse_spec(data)
        with pytest.raises(SpecError, match=r"\[scenarios.platform\] overrides"):
            build_cases(spec.body)

    def test_vesta_rejects_max_time_at_parse_and_run(self):
        data = {
            "experiment": {"kind": "vesta", "max_time": 100.0},
            "vesta": {"scenarios": ["256"], "configurations": ["IOR"]},
        }
        with pytest.raises(SpecError, match="max_time is not supported"):
            parse_spec(data)
        # A CLI --max-time override lands after parsing; the runner rejects it.
        del data["experiment"]["max_time"]
        spec = parse_spec(data).with_overrides(max_time=100.0)
        with pytest.raises(SpecError, match="max_time is not supported"):
            run_spec(spec)

    def test_duplicate_scheduler_labels_rejected(self):
        """Colliding display labels would silently merge grid columns."""
        data = grid_spec_data()
        data["schedulers"]["cases"] = [
            {"name": "MinDilation", "label": "FairShare"}
        ]
        spec = parse_spec(data)
        with pytest.raises(SpecError, match="duplicate scheduler label"):
            build_cases(spec.body)

    def test_duplicate_labels_rejected(self):
        data = grid_spec_data()
        data["scenarios"][1]["label"] = "mixA-rep00"
        spec = parse_spec(data)
        with pytest.raises(SpecError, match="duplicate scenario label"):
            build_grid_scenarios(spec.body, spec.seed)

    def test_invalid_toml_text(self):
        with pytest.raises(SpecError, match="invalid TOML"):
            parse_spec_text("[experiment\nkind=", format="toml")

    def test_string_for_array_of_tables_rejected(self):
        data = grid_spec_data()
        data["scenarios"] = "mix"
        self.expect(data, "scenarios", "array of tables")

    def test_unwritable_output_path_is_validation_error(self):
        from repro.utils.validation import ValidationError

        result = run_spec(parse_spec(grid_spec_data()))
        with pytest.raises(ValidationError, match="cannot write results"):
            write_result(result, path="/proc/nope/out.json")

    def test_empty_output_path_rejected(self):
        data = grid_spec_data()
        data["output"] = {"path": "  "}
        self.expect(data, "output.path", "non-empty")

    def test_duplicate_list_entries_rejected(self):
        """Duplicate panels/schedulers/mixes would silently collapse in
        the keyed result payloads."""
        self.expect(
            {
                "experiment": {"kind": "figure6"},
                "figure6": {"panels": ["10large-20", "10large-20"]},
            },
            "figure6.panels[1]", "duplicates",
        )
        self.expect(
            {
                "experiment": {"kind": "vesta"},
                "vesta": {"scenarios": ["256", "256"]},
            },
            "vesta.scenarios[1]", "duplicates",
        )

    def test_json_null_treated_as_absent(self):
        """JSON null must behave like a missing key, never bypass checks."""
        self.expect({"experiment": {"kind": None}}, "experiment.kind")
        data = grid_spec_data()
        data["schedulers"] = {"names": ["FairShare"],
                              "cases": [{"name": None}]}
        self.expect(data, "schedulers.cases[0].name")
        # Optional keys fall back to their defaults.
        data = grid_spec_data()
        data["experiment"]["seed"] = None
        assert parse_spec(data).seed == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            load_spec(tmp_path / "nope.toml")

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x")
        with pytest.raises(SpecError, match="unsupported spec extension"):
            load_spec(path)

    def test_non_utf8_file_is_a_spec_error_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_bytes(b"\xff\xfehello")
        with pytest.raises(SpecError, match="not valid UTF-8") as excinfo:
            load_spec(path)
        assert "bad.toml" in str(excinfo.value)

    def test_scheduler_pattern_with_bad_parameter_gets_spec_path(self):
        """MinMax-1.5 parses as a pattern but gamma is out of range."""
        data = grid_spec_data()
        data["schedulers"]["names"] = ["MinMax-1.5"]
        self.expect(data, "schedulers.names[0]", "1.5")

    def test_suffix_inference_is_case_insensitive(self, tmp_path):
        result = run_spec(parse_spec(grid_spec_data()))
        path = write_result(result, path=str(tmp_path / "CELLS.CSV"))
        assert path.read_text().startswith("scenario,")
