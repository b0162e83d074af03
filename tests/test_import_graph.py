"""What a run imports, checked in a fresh interpreter per case.

* A spec's parse loads every module its run uses: ``run_spec`` +
  ``write_result`` import nothing after ``parse_spec`` +
  ``code_fingerprint()``.  perfbench's ``setup_s`` times exactly that
  set-up, so it keeps counting the whole import cost of a run instead of
  letting it move into the first cold pass.
* A serial grid spec never loads another kind's producers or a path-only
  layer (pool, campaign, report, linter, TOML reader, reference engine).
* ``import repro`` loads no subpackage, and ``repro --help`` /
  ``repro --version`` load no numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

GENERIC_PLATFORM = {
    "preset": "generic",
    "processors": 1600,
    "node_bandwidth": 1.0e6,
    "system_bandwidth": 4.0e7,
}

#: Serial specs of the kinds perfbench runs, at perfbench's shapes but
#: small: a truncated Figure 6 panel, a faulted narrow grid on a Mira rack
#: and a short period sweep (a periodic spec refuses a finite horizon).
SPECS = {
    "figure6": {
        "experiment": {"kind": "figure6", "seed": 1, "max_time": 300.0, "workers": 1},
        "figure6": {"panels": ["10large-20"], "n_repetitions": 1,
                    "schedulers": ["MaxSysEff", "Priority-MinDilation"]},
    },
    "grid": {
        "experiment": {"kind": "grid", "seed": 1, "max_time": 4000.0, "workers": 1},
        "platform": {"preset": "mira", "scale": 0.0625},
        "scenarios": [{"kind": "mix", "small": 3, "large": 1, "repetitions": 2}],
        "faults": {
            "random_windows": {"rate": 1.25e-4, "duration": 600.0, "factor": 0.2},
            "random_crashes": {"rate": 5.0e-5, "checkpoint_io": 1.2e12},
        },
        "schedulers": {"names": ["FairShare", "MaxSysEff"]},
    },
    "periodic": {
        "experiment": {"kind": "periodic", "seed": 1, "workers": 1},
        "periodic": {
            "heuristics": ["throughput", "congestion"],
            "online": ["MaxSysEff"],
            "max_period_factor": 1.5,
            "platform": GENERIC_PLATFORM,
            "apps": [
                {"name": "a", "processors": 120, "work": 180.0,
                 "io_volume": 2.4e9, "instances": 3},
                {"name": "b", "processors": 80, "work": 90.0,
                 "io_volume": 1.6e9, "instances": 4},
            ],
        },
    },
}

#: Modules a serial grid run has no use for.
NOT_FOR_A_GRID = (
    "repro.analysis",
    "repro.experiments.vesta",
    "repro.workload.darshan",
    "repro.simulator.reference",
    "repro.campaign",
    "repro.report",
    "repro.lint",
    "tomllib",
    "concurrent.futures",
    "multiprocessing",
)

#: Run in the child: set up as perfbench's probe does, then run and write
#: the payload into an empty store, reporting the modules each phase loaded.
RUN_SPEC = """
import json, sys, tempfile
data = json.loads(sys.argv[1])
from repro.config import parse_spec
from repro.store import code_fingerprint
spec = parse_spec(data)
code_fingerprint()
after_setup = set(sys.modules)
from repro.config import run_spec, write_result
from repro.store import ResultStore
with tempfile.TemporaryDirectory() as scratch:
    result = run_spec(spec, store=ResultStore(scratch + "/store"))
    write_result(result, path=scratch + "/payload.json")
    assert result.store_stats["misses"] > 0
print(json.dumps({
    "run": sorted(set(sys.modules) - after_setup),
    "all": sorted(sys.modules),
}))
"""


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        cwd=REPO_ROOT, env=env, timeout=120,
    )


def _loaded(code: str, *args: str):
    done = _fresh_python(code, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _under(modules, prefixes) -> list[str]:
    return sorted(
        m for m in modules for p in prefixes if m == p or m.startswith(p + ".")
    )


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_run_imports_nothing_its_parse_did_not(kind):
    loaded = _loaded(RUN_SPEC, json.dumps(SPECS[kind]))
    assert loaded["run"] == []


def test_a_serial_grid_loads_no_other_kind_or_path_only_module():
    loaded = _loaded(RUN_SPEC, json.dumps(SPECS["grid"]))
    assert _under(loaded["all"], NOT_FOR_A_GRID) == []


def test_import_repro_loads_no_subpackage():
    modules = _loaded("import json, sys, repro; print(json.dumps(sorted(sys.modules)))")
    # repro._lazy is the lazy-name mechanism itself, a module.
    assert _under(modules, ["repro"]) == ["repro", "repro._lazy"]
    assert _under(modules, ["numpy"]) == []


@pytest.mark.parametrize("argv", [["--version"], ["--help"]], ids=" ".join)
def test_cli_help_and_version_load_no_numpy(argv):
    code = f"""
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""
    modules = _loaded(code)
    assert _under(modules, ["numpy", "repro.simulator", "repro.config.run"]) == []
