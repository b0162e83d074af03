"""Golden keys of the memoized studies (periodic sweeps, analysis figures).

``periodic`` and ``analysis`` specs memoize whole studies rather than grid
cells.  Their store keys, the shape of the cached values and the progress
events around each study are part of the store's on-disk contract: a
refactor that changes any of them silently orphans every cached study.
The code fingerprint is pinned to a constant so the keys depend only on
the spec and on the key derivation itself.
"""

from __future__ import annotations

import pytest

import repro.config.run as config_run
from repro.config import parse_spec, run_spec
from repro.obs.telemetry import recorder
from repro.store import ResultStore

TINY_PERIODIC = {
    "experiment": {"name": "tiny-periodic", "kind": "periodic", "seed": 3},
    "periodic": {
        "heuristics": ["throughput", "congestion"],
        "online": [],
        "max_period_factor": 3.0,
        "platform": {
            "preset": "generic",
            "processors": 100,
            "node_bandwidth": 1.0e6,
            "system_bandwidth": 2.0e7,
        },
        "apps": [
            {"name": "a", "processors": 40, "work": 50.0, "io_volume": 4.0e8,
             "instances": 3},
            {"name": "b", "processors": 30, "work": 20.0, "io_volume": 2.0e8,
             "instances": 4},
        ],
    },
}

TINY_ANALYSIS = {
    "experiment": {"name": "tiny-analysis", "kind": "analysis", "seed": 7,
                   "max_time": 400.0},
    "analysis": {
        "figures": ["figure1", "figure5"],
        "platform": {
            "preset": "generic",
            "processors": 100,
            "node_bandwidth": 1.0e6,
            "system_bandwidth": 2.0e7,
        },
        "figure1": {"n_applications": 4, "applications_per_batch": 2,
                    "release_spread": 0.1},
        "figure5": {"n_jobs": 40},
    },
}

PERIODIC_KEYS = [
    "e5da5f5fe22563579604d77c9078981c98f89269d8285dd069bb9ed55f71b37a",
    "96acabe312eb7fb943fa0e884401062144eb234da760f60f68199c1f59569392",
]

ANALYSIS_KEYS = [
    "5199cc79fc60e8fa997ce8a353fe30fea2718d86489c19e8cff722b7b21c4878",
    "0226033b80cbf6153b4861ad07136db4b13c483018acb5ffc1ccef8e44824101",
]


class RecordingStore(ResultStore):
    """A result store that logs every key it is asked for or given."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.gets: list[str] = []
        self.puts: list[tuple[str, frozenset]] = []

    def get(self, key):
        self.gets.append(key)
        return super().get(key)

    def put(self, key, value):
        self.puts.append((key, frozenset(value)))
        return super().put(key, value)


@pytest.fixture(autouse=True)
def _constant_fingerprint(monkeypatch):
    monkeypatch.setattr(config_run, "code_fingerprint", lambda: "golden")


def _run_twice(data, tmp_path):
    """A cold then a warm run; returns the store and both event lists."""
    spec = parse_spec(data)
    store = RecordingStore(tmp_path)
    runs = []
    for _ in range(2):
        events: list[dict] = []

        def sink(name, **fields):
            if name == "progress" and fields.get("step") in ("sweep", "figure"):
                events.append(fields)

        with recorder().subscribed(sink):
            run_spec(spec, store=store)
        runs.append(events)
    return store, runs


def test_periodic_study_keys_values_and_events(tmp_path):
    store, (cold, warm) = _run_twice(TINY_PERIODIC, tmp_path)
    assert store.gets == PERIODIC_KEYS * 2
    assert store.puts == [
        (key, frozenset({"fragment", "record", "row"})) for key in PERIODIC_KEYS
    ]
    assert cold == [
        {"step": "sweep", "heuristic": "throughput",
         "message": "periodic throughput: swept 13 periods, best T = 210 s"},
        {"step": "sweep", "heuristic": "congestion",
         "message": "periodic congestion: swept 13 periods, best T = 150.051 s"},
    ]
    # The sweep event fires on a hit exactly as on a miss.
    assert warm == cold


def test_analysis_study_keys_values_and_events(tmp_path):
    store, (cold, warm) = _run_twice(TINY_ANALYSIS, tmp_path)
    assert store.gets == ANALYSIS_KEYS * 2
    assert store.puts == [
        (key, frozenset({"fragment", "records", "block"})) for key in ANALYSIS_KEYS
    ]
    assert cold == [
        {"step": "figure", "figure": "figure1",
         "message": "figure1: 4 applications measured, worst decrease 0.0%"},
        {"step": "figure", "figure": "figure5",
         "message": "figure5: 40 jobs characterized, dominant category small"},
    ]
    # A hit reports itself as served from the store instead.
    assert warm == [
        {"step": "figure", "figure": figure, "cached": True,
         "message": f"{figure}: served from the result store"}
        for figure in ("figure1", "figure5")
    ]
