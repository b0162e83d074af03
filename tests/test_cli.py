"""Smoke tests for the ``repro`` command line (:mod:`repro.cli`).

Two layers:

* in-process calls to :func:`repro.cli.main` (fast, covers argument wiring
  and exit codes);
* real ``subprocess`` invocations of ``python -m repro`` (covers the
  ``__main__`` entry point and the console-script code path end to end).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

TINY_GRID = """
[experiment]
name = "tiny"
kind = "grid"
seed = 5
max_time = 500.0

[platform]
preset = "generic"
processors = 100
node_bandwidth = 1.0e6
system_bandwidth = 2.0e7

[[scenarios]]
kind = "mix"
small = 3
io_ratio = 0.2

[schedulers]
names = ["FairShare", "MaxSysEff"]
"""


@pytest.fixture
def tiny_spec(tmp_path) -> Path:
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_GRID)
    return path


def run_module(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    """Invoke ``python -m repro ...`` exactly like a user would."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


# ---------------------------------------------------------------------- #
# In-process
# ---------------------------------------------------------------------- #
class TestMain:
    def test_run_writes_output_and_prints_table(self, tiny_spec, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main(["run", str(tiny_spec), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "SysEfficiency" in captured.out
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["experiment"]["name"] == "tiny"
        assert payload["cells"]

    def test_run_quiet_suppresses_table(self, tiny_spec, capsys):
        rc = main(["run", str(tiny_spec), "--quiet"])
        assert rc == 0
        assert "SysEfficiency" not in capsys.readouterr().out

    def test_run_overrides_applied(self, tiny_spec, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["run", str(tiny_spec), "--quiet", "--out", str(a)]) == 0
        assert main(
            ["run", str(tiny_spec), "--quiet", "--seed", "6", "--out", str(b)]
        ) == 0
        cells_a = json.loads(a.read_text())["cells"]
        cells_b = json.loads(b.read_text())["cells"]
        assert cells_a != cells_b  # a different seed draws different mixes

    def test_run_csv_format(self, tiny_spec, tmp_path):
        out = tmp_path / "cells.csv"
        rc = main(["run", str(tiny_spec), "--quiet", "--out", str(out),
                   "--format", "csv"])
        assert rc == 0
        assert out.read_text().startswith("scenario,")

    def test_validate_good_spec(self, tiny_spec, capsys):
        assert main(["validate", str(tiny_spec)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_runs_build_time_checks(self, tmp_path, capsys):
        """validate must reject specs that parse but can never run."""
        bad = tmp_path / "dup.toml"
        bad.write_text(
            TINY_GRID + '\n[[scenarios]]\nkind = "mix"\nsmall = 2\n'
            'label = "mix-0"\n'  # collides with the first entry's default label
        )
        assert main(["validate", str(bad)]) == 2
        assert "duplicate scenario label" in capsys.readouterr().err

    def test_validate_names_the_spec_path_once(self, tmp_path, capsys):
        """Load errors name the file themselves; kind-check errors carry no
        path.  Either way the path is printed exactly once."""
        missing = tmp_path / "missing_key.toml"
        missing.write_text('[experiment]\nkind = "grid"\n')
        dup = tmp_path / "dup.toml"
        dup.write_text(
            TINY_GRID + '\n[[scenarios]]\nkind = "mix"\nsmall = 2\n'
            'label = "mix-0"\n'
        )
        for bad, reason in ((missing, "scenarios"), (dup, "duplicate scenario")):
            assert main(["validate", str(bad)]) == 2
            err = capsys.readouterr().err
            assert reason in err
            assert err.count(str(bad)) == 1, err

    def test_validate_checks_figure6_mixes_fit_the_platform(
        self, tmp_path, capsys
    ):
        """A figure6 panel too big for its platform fails validate, not run."""
        bad = tmp_path / "tiny_machine.toml"
        bad.write_text(
            '[experiment]\nkind = "figure6"\n\n'
            '[figure6]\npanels = ["10large-20"]\n\n'
            '[figure6.platform]\npreset = "generic"\nprocessors = 1\n'
            'node_bandwidth = 0.1\nsystem_bandwidth = 1.0\n'
        )
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "figure6.platform" in err and "only has 1" in err
        assert "Traceback" not in err
        bundled = REPO_ROOT / "examples" / "specs" / "figure6.toml"
        assert main(["validate", str(bundled)]) == 0

    def test_validate_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[experiment]\nkind = "nope"\n')
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "experiment.kind" in err and "nope" in err

    def test_tiny_periodic_epsilon_exits_2(self, tmp_path, capsys):
        """An epsilon with ``1 + epsilon == 1`` fails validate and run
        cleanly instead of crashing (or hanging) the period sweep."""
        spec = (REPO_ROOT / "examples" / "specs" / "periodic.toml").read_text()
        assert "epsilon = 0.1\n" in spec
        bad = tmp_path / "tiny_epsilon.toml"
        bad.write_text(spec.replace("epsilon = 0.1\n", "epsilon = 1e-20\n"))
        for command in ("validate", "run"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert "periodic.epsilon" in err and "1e-20" in err
            assert "Traceback" not in err

    def test_removed_engine_key_and_flag_exit_2(self, tiny_spec, tmp_path, capsys):
        old = tmp_path / "old.toml"
        old.write_text(TINY_GRID.replace(
            "[experiment]\n", '[experiment]\nengine = "batched"\n', 1
        ))
        for command in ("validate", "run"):
            assert main([command, str(old)]) == 2
            err = capsys.readouterr().err
            assert "experiment" in err and "unknown key(s) ['engine']" in err
            assert "Traceback" not in err
        with pytest.raises(SystemExit) as exc_info:
            main(["run", str(tiny_spec), "--engine", "batched"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "ghost.toml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_out_of_range_overrides_exit_2(self, tiny_spec, capsys):
        """Overrides bypass parse_spec; with_overrides re-checks their bounds."""
        assert main(["run", str(tiny_spec), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert main(["run", str(tiny_spec), "--max-time", "0"]) == 2
        assert "max_time must be > 0" in capsys.readouterr().err
        assert main(["run", str(tiny_spec), "--max-time", "nan"]) == 2
        assert "max_time must be > 0" in capsys.readouterr().err
        assert main(["run", str(tiny_spec), "--workers", "-2"]) == 2
        assert "workers must be >= 0" in capsys.readouterr().err

    def test_format_without_output_target_exits_2(self, tiny_spec, capsys):
        """--format must not be silently ignored when nothing is written."""
        assert main(["run", str(tiny_spec), "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err

    def test_bench_unknown_scheduler_exits_2(self, capsys):
        assert main(["bench", "--scheduler", "MaxSysEfficiency"]) == 2
        err = capsys.readouterr().err
        assert "MaxSysEfficiency" in err and "MaxSysEff" in err

    def test_bench_rejects_non_positive_scale(self, capsys):
        assert main(["bench", "--scale", "0"]) == 2
        assert "scale must be >= 1" in capsys.readouterr().err

    def test_list_commands(self, capsys):
        assert main(["list", "schedulers"]) == 0
        assert "MaxSysEff" in capsys.readouterr().out
        assert main(["list", "categories"]) == 0
        assert "very_large" in capsys.readouterr().out
        assert main(["list", "experiments"]) == 0
        out = capsys.readouterr().out
        assert "congested-moments" in out
        # The ISSUE 3 kinds must be advertised for discoverability.
        assert "periodic" in out
        assert "analysis" in out

    def test_run_progress_streams_to_stderr(self, tiny_spec, capsys):
        assert main(["run", str(tiny_spec), "--progress", "--quiet"]) == 0
        captured = capsys.readouterr()
        # The tiny grid is 1 scenario x 2 schedulers; status goes to stderr
        # only, so --quiet still leaves stdout a clean artefact.
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("cell ")]
        assert len(lines) == 2
        assert captured.out.strip() == ""

    def test_run_without_progress_keeps_stderr_clean(self, tiny_spec, capsys):
        assert main(["run", str(tiny_spec)]) == 0
        assert capsys.readouterr().err == ""

    def test_list_specs_reads_bundled_library(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["list", "specs"]) == 0
        out = capsys.readouterr().out
        assert "figure6.toml" in out
        assert "INVALID" not in out

    def test_list_specs_falls_back_to_repo_library_from_other_cwd(
        self, capsys, monkeypatch, tmp_path
    ):
        """`repro list specs` must work outside the repo root (installed use)."""
        monkeypatch.chdir(tmp_path)
        assert main(["list", "specs"]) == 0
        assert "figure6.toml" in capsys.readouterr().out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "FairShare" in out and "MinDilation" in out


# ---------------------------------------------------------------------- #
# Result store & multi-spec validate surface (ISSUE 5)
# ---------------------------------------------------------------------- #
class TestStoreSurface:
    def test_validate_accepts_multiple_paths(self, tiny_spec, tmp_path, capsys):
        other = tmp_path / "other.toml"
        other.write_text(TINY_GRID)
        assert main(["validate", str(tiny_spec), str(other)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK:") == 2

    def test_validate_all_reports_every_broken_spec(self, tmp_path, capsys):
        (tmp_path / "good.toml").write_text(TINY_GRID)
        (tmp_path / "bad1.toml").write_text('[experiment]\nkind = "nope"\n')
        (tmp_path / "bad2.toml").write_text("[experiment]\n")
        assert main(["validate", "--all", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        # All specs are checked; each broken one gets a path-prefixed error.
        assert "good.toml" in captured.out
        assert "bad1.toml" in captured.err and "bad2.toml" in captured.err

    def test_validate_without_paths_exits_2(self, capsys):
        assert main(["validate"]) == 2
        assert "at least one spec" in capsys.readouterr().err

    def test_explicit_path_and_all_dir_dedupe(self, tiny_spec, capsys):
        """A spec named both ways must be validated (and run) once."""
        assert main(["validate", str(tiny_spec),
                     "--all", str(tiny_spec.parent)]) == 0
        assert capsys.readouterr().out.count("OK:") == 1

    def test_run_second_invocation_is_served_from_store(
        self, tiny_spec, tmp_path, capsys
    ):
        store = tmp_path / "store"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", str(tiny_spec), "--store", str(store),
                     "--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert "misses" in first  # the store line is part of the run output
        # --require-cached: the whole run must come out of the store.
        assert main(["run", str(tiny_spec), "--store", str(store),
                     "--require-cached", "--out", str(b)]) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second and "hit rate 100.0%" in second
        assert a.read_text() == b.read_text()  # byte-identical artefact

    def test_require_cached_fails_on_a_cold_store(self, tiny_spec, tmp_path, capsys):
        assert main(["run", str(tiny_spec), "--store", str(tmp_path / "cold"),
                     "--require-cached", "--quiet"]) == 2
        assert "--require-cached" in capsys.readouterr().err

    def test_no_cache_disables_the_store(self, tiny_spec, tmp_path, capsys):
        assert main(["run", str(tiny_spec), "--no-cache"]) == 0
        assert "store:" not in capsys.readouterr().out
        assert main(["run", str(tiny_spec), "--no-cache",
                     "--store", str(tmp_path)]) == 2
        assert "--store has no effect" in capsys.readouterr().err
        assert main(["run", str(tiny_spec), "--no-cache",
                     "--require-cached"]) == 2

    def test_store_info_gc_clear_cycle(self, tiny_spec, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", str(tiny_spec), "--store", str(store),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["store", "info", "--store", str(store), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 2  # 1 scenario x 2 schedulers
        assert main(["store", "gc", "--store", str(store),
                     "--max-entries", "1"]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["store", "clear", "--store", str(store)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_store_gc_without_budget_exits_2(self, tmp_path, capsys):
        assert main(["store", "gc", "--store", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# Subprocess (python -m repro)
# ---------------------------------------------------------------------- #
class TestSubprocess:
    def test_version(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_help_mentions_subcommands(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for command in ("run", "quickstart", "bench", "list"):
            assert command in proc.stdout

    def test_run_spec_end_to_end(self, tiny_spec, tmp_path):
        out = tmp_path / "out.json"
        proc = run_module("run", str(tiny_spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "tiny" in proc.stdout
        assert json.loads(out.read_text())["experiment"]["seed"] == 5

    def test_bad_spec_reports_path_on_stderr(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("[experiment]\n")  # missing required 'kind'
        proc = run_module("run", str(bad))
        assert proc.returncode == 2
        assert "experiment.kind" in proc.stderr

    def test_figure6_example_spec_truncated(self, tmp_path):
        """The README quickstart command, at reduced depth."""
        out = tmp_path / "figure6.json"
        proc = run_module(
            "run", "examples/specs/figure6.toml",
            "--max-time", "500", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["experiment"]["kind"] == "figure6"
        assert payload["panels"]["10large-20"]
