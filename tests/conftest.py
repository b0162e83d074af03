"""Shared fixtures for the test suite.

The fixtures provide a deliberately small platform (so hand-computed
expectations stay readable) plus a handful of canonical applications and
scenarios reused across modules.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.application import Application
from repro.core.platform import BurstBufferSpec, Platform
from repro.core.scenario import Scenario
from repro.obs.telemetry import recorder


@pytest.fixture
def small_platform() -> Platform:
    """100 processors, 1 MB/s per node, 20 MB/s back-end (congestion point 20)."""
    return Platform(
        name="test",
        total_processors=100,
        node_bandwidth=1e6,
        system_bandwidth=2e7,
    )


@pytest.fixture
def bb_platform() -> Platform:
    """Same platform with a small burst buffer (50 MB, fast ingest, 10 MB/s drain)."""
    return Platform(
        name="test-bb",
        total_processors=100,
        node_bandwidth=1e6,
        system_bandwidth=2e7,
        burst_buffer=BurstBufferSpec(
            capacity=5e7, ingest_bandwidth=1e8, drain_bandwidth=1e7
        ),
    )


@pytest.fixture
def single_app() -> Application:
    """One periodic application: 10 nodes, 100 s compute, 100 MB I/O, 3 instances."""
    return Application.periodic(
        name="solo", processors=10, work=100.0, io_volume=1e8, n_instances=3
    )


@pytest.fixture
def two_identical_apps() -> tuple[Application, Application]:
    """Two identical applications that together oversubscribe the back-end."""
    make = lambda name: Application.periodic(  # noqa: E731 - tiny factory
        name=name, processors=40, work=50.0, io_volume=1e9, n_instances=2
    )
    return make("alpha"), make("beta")


@pytest.fixture
def simple_scenario(small_platform, two_identical_apps) -> Scenario:
    """Two identical applications on the small platform."""
    return Scenario(
        platform=small_platform,
        applications=two_identical_apps,
        label="simple",
    )


@pytest.fixture
def heterogeneous_scenario(small_platform) -> Scenario:
    """A big compute-heavy app and two small I/O-heavy apps."""
    big = Application.periodic(
        name="big", processors=60, work=500.0, io_volume=2e9, n_instances=3
    )
    small1 = Application.periodic(
        name="small1", processors=20, work=50.0, io_volume=1e9, n_instances=5
    )
    small2 = Application.periodic(
        name="small2", processors=20, work=80.0, io_volume=5e8, n_instances=4
    )
    return Scenario(
        platform=small_platform,
        applications=(big, small1, small2),
        label="heterogeneous",
    )


@pytest.fixture
def status_lines():
    """``with status_lines() as lines:`` collects the status messages.

    Subscribes a sink to the process-wide recorder for the block, the way
    ``repro run --progress`` does, and appends every event's ``message``.
    """

    @contextlib.contextmanager
    def collect():
        lines: list[str] = []

        def sink(event: str, message: str | None = None, **fields: object) -> None:
            if message is not None:
                lines.append(message)

        with recorder().subscribed(sink):
            yield lines

    return collect
