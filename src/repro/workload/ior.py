"""IOR-benchmark emulation for the Vesta experiments (Section 5).

For the real-machine validation, the authors modified the IOR benchmark:
its processes are split into groups running on disjoint node sets (one
group = one "application"), each group alternates a communication/compute
step with a collective write of a fixed volume, and one extra process acts
as the global scheduler, receiving an I/O request from every group before
each write and releasing groups according to the chosen heuristic.

We cannot run on Vesta, so this module provides the synthetic equivalent:

* :class:`IORGroup` — one group of the modified benchmark (node count,
  per-node write volume, number of iterations, compute time per iteration);
* :func:`parse_scenario` — parse the paper's scenario notation
  (``"512/256/256/32"`` = four applications on 512, 256, 256 and 32 nodes);
* :func:`ior_scenario` — turn a scenario string into a
  :class:`~repro.core.scenario.Scenario` on the Vesta platform, ready for
  the simulator;
* :data:`VESTA_SCENARIOS` — the eleven node mixes of Figures 14–15.

The scheduler-request overhead measured in Figure 14 is modelled separately
in :mod:`repro.experiments.overhead` so it can be switched on and off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.application import Application
from repro.core.evaluation import VESTA_SCENARIOS
from repro.core.platform import Platform, vesta
from repro.core.scenario import Scenario
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ValidationError, check_positive

__all__ = ["IORGroup", "parse_scenario", "ior_scenario", "VESTA_SCENARIOS"]

#: Default IOR-like parameters: each iteration computes for a while and then
#: writes a fixed volume per node (checkpoint-style output).
DEFAULT_WRITE_PER_NODE = 4.0e9  # 4 GB per node per iteration
DEFAULT_COMPUTE_TIME = 120.0  # seconds of computation per iteration
DEFAULT_ITERATIONS = 8


@dataclass(frozen=True)
class IORGroup:
    """One group (application) of the modified IOR benchmark."""

    name: str
    nodes: int
    iterations: int = DEFAULT_ITERATIONS
    compute_time: float = DEFAULT_COMPUTE_TIME
    write_per_node: float = DEFAULT_WRITE_PER_NODE

    def __post_init__(self) -> None:
        if self.nodes <= 0 or int(self.nodes) != self.nodes:
            raise ValidationError("nodes must be a positive integer")
        if self.iterations <= 0 or int(self.iterations) != self.iterations:
            raise ValidationError("iterations must be a positive integer")
        check_positive("compute_time", self.compute_time)
        check_positive("write_per_node", self.write_per_node)

    def to_application(self) -> Application:
        """The group as a periodic application."""
        return Application.periodic(
            name=self.name,
            processors=self.nodes,
            work=self.compute_time,
            io_volume=self.write_per_node * self.nodes,
            n_instances=self.iterations,
            category="ior",
        )


def parse_scenario(scenario: str) -> list[int]:
    """Parse the paper's ``"x/y/z"`` node-mix notation into node counts."""
    if not scenario or not scenario.strip():
        raise ValidationError("empty IOR scenario string")
    counts: list[int] = []
    for part in scenario.split("/"):
        part = part.strip()
        if not part.isdigit():
            raise ValidationError(
                f"invalid IOR scenario {scenario!r}: {part!r} is not a node count"
            )
        value = int(part)
        if value <= 0:
            raise ValidationError(f"node counts must be positive, got {value}")
        counts.append(value)
    return counts


def ior_scenario(
    scenario: str,
    platform: Optional[Platform] = None,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    compute_time: float = DEFAULT_COMPUTE_TIME,
    write_per_node: float = DEFAULT_WRITE_PER_NODE,
    jitter: float = 0.0,
    rng: RngLike = None,
) -> Scenario:
    """Build a Vesta scenario for one node mix.

    Parameters
    ----------
    scenario:
        Node-mix string, e.g. ``"512/256/256/32"``.
    platform:
        Defaults to :func:`repro.core.platform.vesta`.
    jitter:
        Optional relative jitter (uniform, ±``jitter``) applied to each
        group's compute time so that groups do not stay artificially phase-
        locked; the real benchmark exhibits the same drift because of
        network noise.
    """
    platform = platform or vesta()
    counts = parse_scenario(scenario)
    if sum(counts) > platform.total_processors:
        raise ValidationError(
            f"scenario {scenario!r} needs {sum(counts)} nodes but "
            f"{platform.name!r} has only {platform.total_processors}"
        )
    rng = as_rng(rng)
    apps: list[Application] = []
    for i, nodes in enumerate(counts):
        compute = compute_time
        if jitter > 0:
            compute = compute_time * float(rng.uniform(1.0 - jitter, 1.0 + jitter))
        group = IORGroup(
            name=f"ior-{i}-{nodes}n",
            nodes=nodes,
            iterations=iterations,
            compute_time=compute,
            write_per_node=write_per_node,
        )
        apps.append(group.to_application())
    return Scenario(
        platform=platform,
        applications=tuple(apps),
        label=scenario,
        metadata={"kind": "ior", "node_mix": counts},
    )
