"""The experiment-kind table (:mod:`repro.config.kinds`) and its consumers.

Three contracts:

* the table agrees with everything else keyed by kind — the report
  extractors, the kind descriptions, the bundled example specs;
* ``repro validate`` runs each kind's build-time checks, so exit 0 means
  ``repro run`` accepts the spec (analysis mixes that cannot fit their
  platform included);
* the runners call the harnesses through the names ``perfbench``'s tracer
  patches on :mod:`repro.config.run`; a runner that binds one elsewhere
  would silently zero that layer in every traced benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.config.run as config_run
from repro.cli import _validate_one, main
from repro.config import KINDS, parse_spec, run_spec
from repro.report.figures import _EXTRACTORS
from repro.store import ResultStore

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECS_DIR = REPO_ROOT / "examples" / "specs"

GENERIC_PLATFORM = {
    "preset": "generic",
    "processors": 100,
    "node_bandwidth": 1.0e6,
    "system_bandwidth": 2.0e7,
}


class TestTable:
    def test_report_extractors_cover_exactly_the_kinds(self):
        assert set(_EXTRACTORS) == set(KINDS)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_is_described(self, kind):
        assert KINDS[kind].description.strip()

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_has_a_valid_bundled_spec(self, kind):
        accepted = []
        for path in sorted(SPECS_DIR.glob("*.toml")):
            spec = _validate_one(str(path))
            if spec.kind == kind:
                accepted.append(path.name)
        assert accepted, f"no bundled spec under examples/specs has kind {kind!r}"


class TestValidateAnalysis:
    """``validate`` builds the mixes an ``analysis`` run would build."""

    def _write(self, tmp_path, processors, figure_tables):
        spec = tmp_path / "analysis.toml"
        spec.write_text(
            '[experiment]\nkind = "analysis"\nseed = 1\n\n'
            f"{figure_tables}\n"
            '[analysis.platform]\npreset = "generic"\n'
            f"processors = {processors}\n"
            "node_bandwidth = 1.0e6\nsystem_bandwidth = 2.0e7\n"
        )
        return spec

    def test_figure1_batches_must_fit_the_platform(self, tmp_path, capsys):
        spec = self._write(tmp_path, 2, '[analysis]\nfigures = ["figure1"]\n')
        assert main(["validate", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "analysis.figure1.applications_per_batch" in err
        assert "only has 2" in err
        # The run rejects the same spec.
        assert main(["run", str(spec), "--no-cache", "--quiet"]) == 2

    def test_figure7_mixes_must_fit_the_platform(self, tmp_path, capsys):
        spec = self._write(
            tmp_path, 8,
            '[analysis]\nfigures = ["figure7"]\n\n'
            '[analysis.figure7]\nscenario = "50small5large-35"\n',
        )
        assert main(["validate", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "analysis.figure7.scenario" in err
        assert "only has 8" in err

    def test_unselected_figures_are_not_checked(self, tmp_path, capsys):
        spec = self._write(tmp_path, 2, '[analysis]\nfigures = ["figure5"]\n')
        assert main(["validate", str(spec)]) == 0

    def test_bundled_analysis_spec_still_validates(self, capsys):
        assert main(["validate", str(SPECS_DIR / "analysis_figures.toml")]) == 0


def _traced_targets(monkeypatch) -> list[str]:
    """The ``repro.config.run`` names in perfbench's tracing table."""
    path = REPO_ROOT / "perfbench" / "layers.py"
    module_spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    layers = importlib.util.module_from_spec(module_spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, module_spec.name, layers)
    module_spec.loader.exec_module(layers)
    return [
        target for module, target, _ in layers._TARGETS
        if module == "repro.config.run"
    ]


SMALL_SPECS = [
    {
        "experiment": {"kind": "grid", "seed": 5, "max_time": 500.0},
        "platform": GENERIC_PLATFORM,
        "scenarios": [{"kind": "mix", "small": 3}],
        "schedulers": {"names": ["MaxSysEff"]},
    },
    {
        "experiment": {"kind": "figure6", "seed": 5, "max_time": 500.0},
        "figure6": {"panels": ["10large-20"], "n_repetitions": 1,
                    "schedulers": ["MaxSysEff"]},
    },
    {
        "experiment": {"kind": "periodic", "seed": 3},
        "periodic": {
            "heuristics": ["throughput"],
            "online": ["MaxSysEff"],
            "max_period_factor": 2.0,
            "platform": GENERIC_PLATFORM,
            "apps": [
                {"name": "a", "processors": 40, "work": 50.0,
                 "io_volume": 4.0e8, "instances": 2},
                {"name": "b", "processors": 30, "work": 20.0,
                 "io_volume": 2.0e8, "instances": 3},
            ],
        },
    },
    {
        "experiment": {"kind": "analysis", "seed": 7},
        "analysis": {"figures": ["figure5"], "figure5": {"n_jobs": 20}},
    },
]


def test_runners_call_every_traced_name(tmp_path, monkeypatch):
    targets = _traced_targets(monkeypatch)
    assert targets, "perfbench traces nothing on repro.config.run"
    calls = dict.fromkeys(targets, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in targets:
        monkeypatch.setattr(
            config_run, name, counting(name, getattr(config_run, name)),
            raising=True,
        )
    store = ResultStore(tmp_path)
    for data in SMALL_SPECS:
        run_spec(parse_spec(data), store=store)
    assert [name for name, n in calls.items() if n == 0] == []
