"""repro — reproduction of "Scheduling the I/O of HPC applications under congestion".

Gainaru, Aupy, Benoit, Cappello, Robert, Snir — IPDPS 2015.

The package provides:

* :mod:`repro.core` — the application / platform / objectives model;
* :mod:`repro.simulator` — the discrete-event I/O-congestion simulator;
* :mod:`repro.online` — the online scheduling heuristics and system baselines;
* :mod:`repro.periodic` — periodic (steady-state) schedules and heuristics;
* :mod:`repro.workload` — synthetic Intrepid/Mira/Vesta workload generators;
* :mod:`repro.experiments` — the experiment runner behind every table/figure;
* :mod:`repro.analysis` — figure-level analyses (throughput decrease, usage,
  sensitivity);
* :mod:`repro.config` — declarative scenario/experiment specs (TOML/JSON),
  the layer behind the ``repro`` command line;
* :mod:`repro.cli` — the ``repro`` console script (``repro run <spec>``,
  ``repro validate``, ``repro quickstart``, ``repro list``, ...); the
  benchmarks live outside the package, in ``benchmarks/``.

Each subpackage, and each public name of a subpackage, is imported on first
use (:mod:`repro._lazy`): ``import repro`` loads none of them.

Quickstart::

    from repro import core, online, simulator

    platform = core.generic(total_processors=1024, node_bandwidth=1e8,
                            system_bandwidth=2e10)
    apps = [core.Application.periodic(f"app{i}", 256, work=100.0,
                                      io_volume=2e11, n_instances=5)
            for i in range(4)]
    scenario = core.Scenario(platform=platform, applications=tuple(apps))
    result = simulator.simulate(scenario, online.MaxSysEff())
    print(result.summary())
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro import analysis, config, core, experiments, online, periodic, simulator, workload


__version__ = "1.0.0"

__all__ = [
    "core",
    "simulator",
    "online",
    "periodic",
    "workload",
    "experiments",
    "analysis",
    "config",
    "__version__",
]

__getattr__, __dir__ = attach(__name__)
