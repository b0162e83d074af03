"""The declared grant orders against the hand-written orderings they replaced.

Every registry scheduler, plain and under ``Priority``, orders generated
views exactly as its oracle in ``tests/ordering_oracle.py`` does.  The
views are drawn to collide: few distinct processor counts, efficiencies
and request times, so equal keys (and many progress ratios of exactly 1)
leave the order to the tie-break; request times include ``inf`` and
``None``, ``last_io_end`` includes ``-inf``, and one or two candidates
are as likely as many.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordering_oracle import OracleMaxSysEff, oracle_for
from repro.core.platform import Platform
from repro.online.heuristics import MaxSysEff, MinDilation, MinMaxGamma
from repro.online.registry import available_schedulers, make_scheduler
from repro.simulator.interface import (
    ApplicationPhase,
    ApplicationView,
    GrantOrder,
    SystemView,
)

PLATFORM = Platform("p", 400, 1e6, 2e7)

GAMMAS = (0.0, 0.25, 0.27, 0.5, 0.75, 1.0)

SCHEDULER_NAMES = tuple(
    prefix + name
    for base in available_schedulers()
    for name in (
        [f"MinMax-{g:g}" for g in GAMMAS] if base == "MinMax-<gamma>" else [base]
    )
    for prefix in ("", "Priority-")
)


@st.composite
def app_views(draw, name: str) -> ApplicationView:
    phase = draw(
        st.sampled_from(
            (
                ApplicationPhase.IO_PENDING,
                ApplicationPhase.DOING_IO,
                ApplicationPhase.IO_PENDING,
                ApplicationPhase.COMPUTING,
            )
        )
    )
    return ApplicationView(
        name=name,
        processors=draw(st.sampled_from((10, 20, 40, 100))),
        phase=phase,
        remaining_io_volume=1e8,
        io_started=draw(st.booleans()),
        achieved_efficiency=draw(st.sampled_from((0.0, 0.2, 0.25, 0.5, 0.8, 1.0))),
        optimal_efficiency=draw(st.sampled_from((0.0, 0.5, 0.8, 1.0))),
        last_io_end=draw(st.sampled_from((-math.inf, 0.0, 5.0, 12.5))),
        io_request_time=draw(st.sampled_from((None, math.inf, 0.0, 1.0, 3.0))),
        instance_index=0,
        n_instances=3,
        total_io_transferred=0.0,
    )


@st.composite
def system_views(draw) -> SystemView:
    n = draw(st.one_of(st.integers(1, 2), st.integers(1, 9)))
    names = draw(
        st.lists(
            st.sampled_from("abcdefghijkl"), min_size=n, max_size=n, unique=True
        )
    )
    apps = tuple(draw(app_views(name)) for name in names)
    return SystemView(
        time=50.0,
        platform=PLATFORM,
        available_bandwidth=2e7,
        applications=apps,
    )


def names(ordered) -> list[str]:
    return [a.name for a in ordered]


@settings(max_examples=300, deadline=None)
@given(system_views())
def test_interpreter_matches_oracle(view):
    for name in SCHEDULER_NAMES:
        scheduler = make_scheduler(name)
        expected = names(oracle_for(scheduler).order_candidates(view))
        assert names(scheduler.order_candidates(view)) == expected, name


@settings(max_examples=100, deadline=None)
@given(system_views())
def test_minmax_zero_is_maxsyseff(view):
    assert MinMaxGamma(0.0).grant_order == MaxSysEff().grant_order
    expected = names(OracleMaxSysEff().order_candidates(view))
    assert names(MinMaxGamma(0.0).order_candidates(view)) == expected


def test_minmax_one_is_not_mindilation():
    # Two unslowed candidates: ratio 1.0 is not below gamma = 1, so both
    # fall into the MaxSysEff group and the larger one goes first.
    def unslowed(name, processors, request):
        return ApplicationView(
            name=name,
            processors=processors,
            phase=ApplicationPhase.IO_PENDING,
            remaining_io_volume=1e8,
            io_started=False,
            achieved_efficiency=0.9,
            optimal_efficiency=0.9,
            last_io_end=-math.inf,
            io_request_time=request,
            instance_index=0,
            n_instances=1,
            total_io_transferred=0.0,
        )

    view = SystemView(
        time=2.0,
        platform=PLATFORM,
        available_bandwidth=2e7,
        applications=(unslowed("a", 10, 0.0), unslowed("b", 100, 1.0)),
    )
    assert names(MinDilation().order_candidates(view)) == ["a", "b"]
    assert names(MinMaxGamma(1.0).order_candidates(view)) == ["b", "a"]
    assert names(oracle_for(MinMaxGamma(1.0)).order_candidates(view)) == ["b", "a"]


class TestGrantOrderValidation:
    def test_defaults_are_fcfs(self):
        order = GrantOrder()
        assert (order.key, order.starve_below, order.started_first) == (
            "request", 0.0, False,
        )

    @pytest.mark.parametrize(
        "fields",
        [
            {"key": "maxsyseff"},
            {"starve_below": -0.1},
            {"starve_below": 1.5},
            {"starve_below": math.nan},
            {"starve_below": "half"},
            {"started_first": 1},
        ],
    )
    def test_rejects(self, fields):
        with pytest.raises(ValueError):
            GrantOrder(**fields)
