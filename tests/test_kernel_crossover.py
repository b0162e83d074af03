"""The kernel-crossover benchmark (``benchmarks/kernel_crossover.py``)."""

from __future__ import annotations

from bench_modules import load_bench
from repro.simulator import engine

load_bench("engine_bench")  # the crossover script imports it by name
kernel_crossover = load_bench("kernel_crossover")


def test_smoke_one_tiny_width(capsys, monkeypatch):
    for name, value in [
        ("WIDTHS", (4,)), ("FAMILY_WIDTHS", (4,)), ("INSTANCES", (3,)),
        ("EVENTS", 60), ("REPEATS", 1), ("POLICIES", ("MaxSysEff", "FairShare")),
    ]:
        monkeypatch.setattr(kernel_crossover, name, value)
    saved = engine._SCALAR_MAX_APPS
    status = kernel_crossover.main()
    out = capsys.readouterr().out
    assert status == 0
    assert engine._SCALAR_MAX_APPS == saved
    assert "|    4 |" in out
    assert "| FairShare |" in out
    assert "widest width" in out


def test_rule_stops_at_the_first_slow_width():
    rule = kernel_crossover.crossover_rule
    assert rule({32: [1.5, 1.2], 80: [1.3, 0.95], 100: [1.2, 0.85], 128: [1.1, 0.95]}) == 80
    assert rule({32: [0.8]}) is None
