"""The benchmark entry point and its end-to-end experiment benchmark
(``benchmarks/run_bench.py``, ``benchmarks/grid_bench.py``)."""

from __future__ import annotations

import json

import pytest

from bench_modules import load_bench
from repro.config.loader import load_spec
from repro.config.spec import AnalysisSpec, PeriodicSpec
from repro.utils.validation import ValidationError

grid_bench = load_bench("grid_bench")
run_bench = load_bench("run_bench")


class TestSpecPathAndScaling:
    def test_bundled_names_resolve(self):
        for name in grid_bench.DEFAULT_BENCH_SPECS:
            path = grid_bench.bench_spec_path(name)
            assert path.is_file(), path
            load_spec(path)  # parses cleanly

    def test_scale_one_is_identity(self):
        spec = load_spec(grid_bench.bench_spec_path("analysis_figures"))
        assert grid_bench.scaled_spec(spec, 1) is spec

    def test_analysis_scaling(self):
        spec = load_spec(grid_bench.bench_spec_path("analysis_figures"))
        scaled = grid_bench.scaled_spec(spec, 3)
        assert isinstance(scaled.body, AnalysisSpec)
        assert (
            scaled.body.figure1.n_applications
            == 3 * spec.body.figure1.n_applications
        )
        assert (
            scaled.body.figure7.n_repetitions
            == 3 * spec.body.figure7.n_repetitions
        )
        # Everything else untouched.
        assert scaled.body.figure5 == spec.body.figure5
        assert scaled.seed == spec.seed

    def test_periodic_scaling(self):
        spec = load_spec(grid_bench.bench_spec_path("periodic"))
        scaled = grid_bench.scaled_spec(spec, 4)
        assert isinstance(scaled.body, PeriodicSpec)
        assert scaled.body.epsilon == spec.body.epsilon / 4

    def test_scale_must_be_positive(self):
        spec = load_spec(grid_bench.bench_spec_path("periodic"))
        with pytest.raises(ValidationError):
            grid_bench.scaled_spec(spec, 0)

    def test_other_kinds_are_refused(self):
        spec = load_spec(grid_bench.bench_spec_path("checkpoint_storm"))
        assert spec.kind == "grid"
        with pytest.raises(ValidationError, match="not 'grid'"):
            grid_bench.scaled_spec(spec, 1)


class TestGridBenchPayload:
    def test_smoke_payload_shape_and_identity(self, capsys):
        payload = grid_bench.run_grid_bench(scale=1, workers=2)
        assert payload["benchmark"] == "experiment_grid"
        assert payload["cpu_count"] >= 1
        assert {entry["spec"] for entry in payload["specs"]} == set(
            grid_bench.DEFAULT_BENCH_SPECS
        )
        for entry in payload["specs"]:
            assert entry["identical"] is True
            assert entry["n_cells"] > 0
            assert entry["serial"]["seconds"] > 0
            assert entry["pooled"]["seconds"] > 0
            assert entry["serial"]["cells_per_sec"] > 0
            assert entry["pooled"]["cells_per_sec"] > 0
            # The telemetry spans supply a per-stage wall-time breakdown.
            for mode in ("serial", "pooled"):
                stages = entry[mode]["stage_seconds"]
                assert {"build", "run", "report"} <= set(stages)
                assert all(v >= 0 for v in stages.values())
                assert stages["run"] <= entry[mode]["seconds"]
        assert "period_sweep" not in payload
        campaign = payload["campaign"]
        assert campaign["spec"] == grid_bench.DEFAULT_CAMPAIGN_SPEC
        assert campaign["identical"] is True
        assert campaign["n_cells"] > 0
        assert campaign["serial"]["cells_per_sec"] > 0
        assert campaign["sharded"]["cells_per_sec"] > 0
        assert campaign["sharded"]["workers"] >= 2
        assert grid_bench.grid_bench_broken(payload) == []
        json.dumps(payload)  # JSON-serializable as written
        # One progress line per measurement, printed as it lands.
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            *grid_bench.DEFAULT_BENCH_SPECS, "campaign",
        ]

    def test_broken_detection(self):
        payload = {
            "specs": [
                {"spec": "a", "identical": False},
                {"spec": "b", "identical": True},
            ],
            "campaign": {"spec": "c", "identical": False},
        }
        assert grid_bench.grid_bench_broken(payload) == ["a", "campaign:c"]


class TestRunBench:
    def test_rejects_non_positive_scale(self, capsys):
        assert run_bench.main(["--scale", "0"]) == 2
        assert "scale must be >= 1" in capsys.readouterr().err
