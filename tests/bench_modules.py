"""Load the benchmark scripts of ``benchmarks/`` by path.

``benchmarks/`` is a directory of scripts, not a package: run as
``python benchmarks/run_bench.py``, they import one another by module
name.  :func:`load_bench` registers each under that same name, so a test
can load ``grid_bench`` and then call ``run_bench.main``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import ModuleType

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench(name: str) -> ModuleType:
    """The module of ``benchmarks/<name>.py``, loaded once per process."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
