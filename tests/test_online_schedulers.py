"""Unit tests for the online heuristics, Priority wrapper, baselines and registry."""

from __future__ import annotations

import math

import pytest

from repro.core.platform import Platform
from repro.online.base import OnlineScheduler
from repro.online.baselines import FCFS, FairShare, intrepid_scheduler, ior_scheduler
from repro.online.heuristics import MaxSysEff, MinDilation, MinMaxGamma, RoundRobin
from repro.online.priority import Priority
from repro.online.registry import (
    available_schedulers,
    figure6_suite,
    make_scheduler,
    paper_heuristics,
    tables_suite,
)
from repro.simulator.interface import (
    ApplicationPhase,
    ApplicationView,
    GrantOrder,
    SystemView,
)
from repro.utils.validation import ValidationError


PLATFORM = Platform("p", 200, 1e6, 2e7)


def view(name, processors, *, achieved=0.5, optimal=0.9, io_started=False,
         last_io_end=-math.inf, request=0.0, phase=ApplicationPhase.IO_PENDING):
    return ApplicationView(
        name=name,
        processors=processors,
        phase=phase,
        remaining_io_volume=1e8,
        io_started=io_started,
        achieved_efficiency=achieved,
        optimal_efficiency=optimal,
        last_io_end=last_io_end,
        io_request_time=request,
        instance_index=1,
        n_instances=5,
        total_io_transferred=0.0,
    )


def system_view(*views, available=2e7):
    return SystemView(
        time=100.0,
        platform=PLATFORM,
        available_bandwidth=available,
        applications=tuple(views),
    )


def ordering(scheduler, sv):
    return [v.name for v in scheduler.order_candidates(sv)]


class TestRoundRobin:
    def test_longest_idle_first(self):
        sv = system_view(
            view("recent", 10, last_io_end=90.0),
            view("old", 10, last_io_end=10.0),
            view("never", 10),
        )
        assert ordering(RoundRobin(), sv) == ["never", "old", "recent"]

    def test_tie_break_by_request_time(self):
        sv = system_view(
            view("late", 10, request=50.0),
            view("early", 10, request=5.0),
        )
        assert ordering(RoundRobin(), sv) == ["early", "late"]


class TestMinDilation:
    def test_most_starved_first(self):
        sv = system_view(
            view("healthy", 10, achieved=0.85, optimal=0.9),
            view("starved", 10, achieved=0.2, optimal=0.9),
        )
        assert ordering(MinDilation(), sv) == ["starved", "healthy"]

    def test_ratio_is_relative_to_optimal(self):
        # Same achieved efficiency, but "io_heavy" has a much lower optimal:
        # its ratio is higher so it is *less* starved.
        sv = system_view(
            view("io_heavy", 10, achieved=0.4, optimal=0.5),
            view("cpu_heavy", 10, achieved=0.4, optimal=0.95),
        )
        assert ordering(MinDilation(), sv) == ["cpu_heavy", "io_heavy"]


class TestMaxSysEff:
    def test_largest_contribution_first(self):
        sv = system_view(
            view("big", 100, achieved=0.8),
            view("small", 10, achieved=0.8),
        )
        assert ordering(MaxSysEff(), sv) == ["big", "small"]

    def test_progress_matters_at_equal_size(self):
        sv = system_view(
            view("productive", 50, achieved=0.9),
            view("stalled", 50, achieved=0.1),
        )
        assert ordering(MaxSysEff(), sv) == ["productive", "stalled"]


class TestMinMaxGamma:
    def test_extremes_match_the_other_heuristics(self):
        sv = system_view(
            view("big", 100, achieved=0.8, optimal=0.9),
            view("small", 10, achieved=0.2, optimal=0.9),
            view("medium", 50, achieved=0.5, optimal=0.9),
        )
        assert ordering(MinMaxGamma(0.0), sv) == ordering(MaxSysEff(), sv)
        assert ordering(MinMaxGamma(1.0), sv) == ordering(MinDilation(), sv)

    def test_threshold_rescues_starved_app(self):
        sv = system_view(
            view("big", 100, achieved=0.8, optimal=0.9),       # ratio 0.89
            view("starved", 10, achieved=0.2, optimal=0.9),    # ratio 0.22
        )
        assert ordering(MinMaxGamma(0.5), sv)[0] == "starved"
        assert ordering(MinMaxGamma(0.1), sv)[0] == "big"

    def test_gamma_validated(self):
        with pytest.raises(ValidationError):
            MinMaxGamma(1.5)
        with pytest.raises(ValidationError):
            MinMaxGamma(-0.1)

    def test_name_contains_gamma(self):
        assert MinMaxGamma(0.25).name == "MinMax-0.25"


class TestTieBreaks:
    """Every heuristic resolves primary-key ties the same way: earlier I/O
    request first, then name (the pair is inlined into each sort key, so a
    slip in any single heuristic would surface here)."""

    SCHEDULERS = (RoundRobin(), MinDilation(), MaxSysEff(), MinMaxGamma(0.5))

    def test_request_time_breaks_ties(self):
        # Identical primary keys, distinct request times.
        late = view("aaa", 10, request=30.0)
        early = view("zzz", 10, request=5.0)
        for scheduler in self.SCHEDULERS:
            assert ordering(scheduler, system_view(late, early)) == ["zzz", "aaa"]

    def test_name_breaks_remaining_ties(self):
        # Identical primary keys and request times: name decides.
        b = view("bbb", 10, request=7.0)
        a = view("aaa", 10, request=7.0)
        for scheduler in self.SCHEDULERS:
            assert ordering(scheduler, system_view(b, a)) == ["aaa", "bbb"]

    def test_missing_request_time_sorts_last(self):
        requested = view("bbb", 10, request=1e9)
        unrequested = view("aaa", 10, request=None)
        for scheduler in self.SCHEDULERS:
            assert ordering(scheduler, system_view(unrequested, requested)) == [
                "bbb",
                "aaa",
            ]


class TestPriority:
    def test_in_flight_transfers_first(self):
        sv = system_view(
            view("fresh_starved", 10, achieved=0.1, optimal=0.9),
            view("inflight", 10, achieved=0.8, optimal=0.9, io_started=True),
        )
        assert ordering(Priority(MinDilation()), sv) == ["inflight", "fresh_starved"]
        # Without the wrapper the starved application would be first.
        assert ordering(MinDilation(), sv) == ["fresh_starved", "inflight"]

    def test_inner_order_preserved_within_groups(self):
        sv = system_view(
            view("a", 10, achieved=0.3, io_started=True),
            view("b", 10, achieved=0.1, io_started=True),
            view("c", 10, achieved=0.2),
            view("d", 10, achieved=0.05),
        )
        assert ordering(Priority(MinDilation()), sv) == ["b", "a", "d", "c"]

    def test_no_nesting(self):
        with pytest.raises(TypeError):
            Priority(Priority(MinDilation()))

    def test_requires_online_scheduler(self):
        with pytest.raises(TypeError):
            Priority("MaxSysEff")

    def test_requires_a_declared_order(self):
        class Reversed(MaxSysEff):
            def order_candidates(self, v):
                return super().order_candidates(v)[::-1]

        with pytest.raises(TypeError, match="declares no grant order"):
            Priority(Reversed())

    def test_declares_the_inner_order_started_first(self):
        assert Priority(MinMaxGamma(0.25)).grant_order == GrantOrder(
            key="syseff", starve_below=0.25, started_first=True
        )
        # A bare subclass keeps its parent's declaration.
        class Tuned(RoundRobin):
            pass

        assert Priority(Tuned()).grant_order.key == "last_io_end"

    def test_name(self):
        assert Priority(MaxSysEff()).name == "Priority-MaxSysEff"


class TestAllocationBehaviour:
    def test_allocation_respects_capacity(self):
        sv = system_view(*[view(f"x{i}", 30) for i in range(5)], available=2e7)
        for scheduler in (RoundRobin(), MinDilation(), MaxSysEff(), MinMaxGamma(0.5)):
            alloc = scheduler.allocate(sv)
            total = sum(alloc.gamma(f"x{i}") * 30 for i in range(5))
            assert total <= 2e7 * (1 + 1e-9)

    def test_top_priority_app_gets_full_rate(self):
        sv = system_view(view("big", 100, achieved=0.9), view("small", 10, achieved=0.1))
        alloc = MaxSysEff().allocate(sv)
        assert alloc.gamma("big") * 100 == pytest.approx(2e7)
        assert alloc.gamma("small") == 0.0

    def test_ordering_validation_rejects_duplicates(self):
        class Broken(OnlineScheduler):
            name = "dup"

            def order_candidates(self, v):
                cands = list(v.io_candidates())
                return cands + cands

        with pytest.raises(ValueError):
            Broken().allocate(system_view(view("a", 10)))

    def test_ordering_validation_rejects_non_candidates(self):
        class Broken(OnlineScheduler):
            name = "ghost"

            def order_candidates(self, v):
                return [view("ghost", 10)]

        with pytest.raises(ValueError):
            Broken().allocate(system_view(view("a", 10)))


class TestBaselines:
    def test_fair_share_splits_bandwidth(self):
        sv = system_view(view("a", 15), view("b", 15))
        alloc = FairShare().allocate(sv)
        assert alloc.gamma("a") == pytest.approx(alloc.gamma("b"))

    def test_interference_reduces_total(self):
        sv = system_view(*[view(f"x{i}", 30) for i in range(4)])
        degraded = FairShare().allocate(sv)
        from repro.simulator.interference import NO_INTERFERENCE

        clean = FairShare(interference=NO_INTERFERENCE).allocate(sv)
        total = lambda a: sum(a.gamma(f"x{i}") * 30 for i in range(4))  # noqa: E731
        assert total(degraded) < total(clean)

    def test_single_writer_unaffected_by_interference(self):
        sv = system_view(view("solo", 100))
        alloc = FairShare().allocate(sv)
        assert alloc.gamma("solo") * 100 == pytest.approx(2e7)

    def test_fcfs_orders_by_request_time(self):
        sv = system_view(view("late", 10, request=99.0), view("early", 10, request=1.0))
        assert ordering(FCFS(), sv) == ["early", "late"]

    def test_named_factories(self):
        assert intrepid_scheduler().name == "Intrepid"
        assert ior_scheduler().name == "IOR"


class TestRegistry:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("RoundRobin", RoundRobin),
            ("MinDilation", MinDilation),
            ("MaxSysEff", MaxSysEff),
            ("FairShare", FairShare),
            ("FCFS", FCFS),
            ("minmax-0.5", MinMaxGamma),
        ],
    )
    def test_make_scheduler(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_priority_prefix(self):
        sched = make_scheduler("Priority-MinMax-0.25")
        assert isinstance(sched, Priority)
        assert isinstance(sched.inner, MinMaxGamma)
        assert sched.inner.gamma == 0.25

    def test_case_insensitive(self):
        assert isinstance(make_scheduler("maxsyseff"), MaxSysEff)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheduler("definitely-not-a-scheduler")

    def test_machine_names(self):
        assert make_scheduler("Intrepid").name == "Intrepid"
        assert make_scheduler("Mira").name == "Mira"
        assert make_scheduler("IOR").name == "IOR"

    def test_available_listing(self):
        assert "MaxSysEff" in available_schedulers()

    def test_paper_heuristics_suite(self):
        suite = paper_heuristics(gammas=(0.5,), with_priority=True)
        names = [s.name for s in suite]
        assert "MaxSysEff" in names and "Priority-MaxSysEff" in names
        assert len(names) == 8

    def test_figure6_suite_size(self):
        assert len(figure6_suite()) == 8

    def test_tables_suite(self):
        plain = [s.name for s in tables_suite(priority=False)]
        prio = [s.name for s in tables_suite(priority=True)]
        assert plain[0] == "MaxSysEff" and plain[-1] == "MinDilation"
        assert all(name.startswith("Priority-") for name in prio)
