"""The named settings of the paper's evaluation: panels, series, node mixes.

The spec parser validates names against these tables and the experiments
default to them, so they live in this leaf module, which imports nothing:
parsing a spec of one kind never loads another kind's experiment code.
The experiment modules re-export them
(:data:`repro.experiments.comparison.FIGURE6_SCENARIOS` and so on).
"""

__all__ = [
    "FIGURE6_SCENARIOS",
    "FIGURE6_SCHEDULERS",
    "TABLE_SCHEDULERS",
    "FIGURE7_SCHEDULERS",
    "VESTA_SCENARIOS",
    "VESTA_CONFIGURATIONS",
]

#: The three panels of Figure 6.
FIGURE6_SCENARIOS: tuple[str, ...] = (
    "10large-20",
    "50small5large-20",
    "50small5large-35",
)

#: The eight series of Figure 6 (four heuristics, plain and Priority).
FIGURE6_SCHEDULERS: tuple[str, ...] = (
    "RoundRobin",
    "Priority-RoundRobin",
    "MinDilation",
    "Priority-MinDilation",
    "MaxSysEff",
    "Priority-MaxSysEff",
    "MinMax-0.5",
    "Priority-MinMax-0.5",
)

#: The scheduler rows of Tables 1 and 2 (plus their Priority variants).
TABLE_SCHEDULERS: tuple[str, ...] = (
    "MaxSysEff",
    "Priority-MaxSysEff",
    "MinMax-0.25",
    "Priority-MinMax-0.25",
    "MinMax-0.5",
    "Priority-MinMax-0.5",
    "MinMax-0.75",
    "Priority-MinMax-0.75",
    "MinDilation",
    "Priority-MinDilation",
)

#: The heuristics plotted in Figure 7.
FIGURE7_SCHEDULERS: tuple[str, ...] = ("MinDilation", "MaxSysEff", "MinMax-0.5")

#: The node mixes evaluated on Vesta (horizontal axes of Figures 14 and 15).
VESTA_SCENARIOS: tuple[str, ...] = (
    "256",
    "512",
    "32/512",
    "256/256",
    "256/512",
    "256/256/256",
    "256/256/512",
    "512/256/32",
    "512/256/256/32",
    "256/256/256/256",
    "512/512/512/512",
)

#: The six configurations of Figure 15 (three schedulers × burst buffers off/on).
VESTA_CONFIGURATIONS: tuple[str, ...] = (
    "IOR",
    "MaxSysEff",
    "MinDilation",
    "BBIOR",
    "BBMaxSysEff",
    "BBMinDilation",
)
