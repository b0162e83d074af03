"""Unit tests of the content-addressed result store (:mod:`repro.store`).

Covers the three layers in isolation: canonical serialization (stable keys),
the code fingerprint (change detection), and the on-disk store (atomic
entries, corruption tolerance, eviction).  The end-to-end cache semantics —
"second run of an unchanged spec performs zero simulation work" — live in
``tests/test_store_cache_semantics.py``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os

import numpy as np
import pytest

from repro.config import build_grid_scenarios, parse_spec
from repro.core.application import Application
from repro.core.platform import intrepid
from repro.core.scenario import Scenario
from repro.experiments import runner
from repro.experiments.runner import SchedulerCase
from repro.store import (
    CanonicalizationError,
    ResultStore,
    canonical_json,
    clear_fingerprint_cache,
    code_fingerprint,
    digest,
)
from repro.utils.validation import ValidationError
from repro.workload.generator import figure6_mix


def _scenario(label: str = "s") -> Scenario:
    apps = tuple(
        Application.periodic(f"a{i}", 8, 20.0, 1.0e9, 3) for i in range(3)
    )
    return Scenario(platform=intrepid(), applications=apps, label=label)


# ---------------------------------------------------------------------- #
# Canonical serialization
# ---------------------------------------------------------------------- #
class TestCanonical:
    def test_equal_objects_share_canonical_text(self):
        assert canonical_json(_scenario()) == canonical_json(_scenario())

    def test_mapping_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_label_change_changes_canonical_text(self):
        assert canonical_json(_scenario("x")) != canonical_json(_scenario("y"))

    def test_cached_property_memo_does_not_leak_into_key(self):
        """Only declared dataclass fields participate (not __dict__ residue)."""
        fresh = _scenario()
        used = _scenario()
        # Populate Application.cumulative_work memos on one copy only.
        for app in used.applications:
            app.cumulative_work  # noqa: B018 - touch the cached_property
        assert canonical_json(fresh) == canonical_json(used)

    def test_numpy_scalars_and_arrays_collapse_to_python(self):
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.array([1.0, 2.0])) == canonical_json([1.0, 2.0])

    def test_non_finite_floats_are_stable(self):
        text = canonical_json({"nan": float("nan"), "inf": float("inf")})
        assert text == '{"inf":Infinity,"nan":NaN}'
        assert canonical_json(json.loads(text)) == text
        assert canonical_json([float("-inf"), -0.0]) == "[-Infinity,-0.0]"

    def test_unstable_values_fail_loudly(self):
        with pytest.raises(CanonicalizationError):
            canonical_json(lambda: None)
        with pytest.raises(CanonicalizationError):
            canonical_json(np.random.default_rng(0))

    def test_digest_respects_part_boundaries(self):
        assert digest("ab", "c") != digest("a", "bc")
        assert digest("x") != digest("x", "")

    def test_digest_never_collides_across_types(self):
        """A raw string part and a value with the same text must differ."""
        assert digest("3") != digest(3)
        assert digest("Infinity") != digest(float("inf"))


# ---------------------------------------------------------------------- #
# Golden keys: the canonical bytes every existing store is addressed by
# ---------------------------------------------------------------------- #
class _Colour(enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


_GOLDEN_GRID = {
    "experiment": {"name": "golden", "kind": "grid", "seed": 11,
                   "max_time": 2000.0},
    "platform": {"preset": "generic", "processors": 40,
                 "node_bandwidth": 1.0e6, "system_bandwidth": 8.0e6},
    "scenarios": [{
        "kind": "apps",
        "label": "duo",
        "apps": [
            {"name": "a0", "processors": 16, "work": 40.0,
             "io_volume": 2.0e8, "instances": 3},
            {"name": "a1", "processors": 16, "work": 60.0,
             "io_volume": 1.0e8, "instances": 3},
        ],
    }],
    "faults": {
        "seed": 5,
        "windows": [{"start": 100.0, "end": 300.0, "factor": 0.25}],
        "crashes": [{"app": "a1", "time": 150.0, "checkpoint_io": 1.0e8}],
        "random_windows": {"rate": 2e-3, "duration": 50.0, "factor": 0.5},
        "random_crashes": {"rate": 2e-3, "checkpoint_io": 1.0e8},
    },
    "schedulers": {"names": ["FairShare", "MaxSysEff"]},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden_cases() -> list[SchedulerCase]:
    return [
        SchedulerCase("MaxSysEff"),
        SchedulerCase("FairShare", label="fair"),
        SchedulerCase("MinDilation", use_burst_buffer=True,
                      burst_buffer_platform=intrepid(with_burst_buffer=True)),
    ]


class TestGoldenKeys:
    """SHA-256 pins of canonical texts and keys.

    No producing package covers the key encoder itself, so an encoder
    change that rewrote a canonical text would silently leave every
    existing store cold.  These values must never change; a failure here
    means existing stores would miss, not that the pins need updating.
    """

    def test_figure6_mix(self):
        mix = figure6_mix("50small5large-35", intrepid(), 1)
        assert _sha(canonical_json(mix)) == (
            "1a2e6392a5ac4d1858b341384816d317aeb08f96d23a28c8b59684d3f0d6ef8a"
        )

    def test_faulted_grid_scenario(self):
        spec = parse_spec(_GOLDEN_GRID)
        scenarios = build_grid_scenarios(spec.body, spec.seed,
                                         max_time=spec.max_time)
        faulted = scenarios[-1]
        assert faulted.faults is not None and faulted.faults.windows
        assert _sha(canonical_json(faulted)) == (
            "f3d576bfe810385217123a9995343f9cae342ec7b79264d77d5b4a625394105a"
        )

    def test_scheduler_cases(self):
        assert _sha(canonical_json(_golden_cases())) == (
            "0835d332fb8db0fda69b652f6c88376ec377cb972dd8e923a3d8b0922f3c346d"
        )

    def test_edge_values(self):
        value = {
            "nan": float("nan"),
            "inf": float("inf"),
            "-inf": float("-inf"),
            "neg_zero": -0.0,
            "big": 1e16,
            "tiny": 5e-324,
            "enum": _Colour.RED,
            "int_enum": _Level.HIGH,
            "np_float": np.float64(0.1),
            "np_int": np.int64(-7),
            "np_0d": np.array(2.5),
            "np_2d": np.arange(6, dtype=np.float64).reshape(2, 3),
            "set": {3, "b", 1.5},
        }
        assert _sha(canonical_json(value)) == (
            "9b3c154f40e9abfb9580830be70cbb9d6917fcdd0a5cd4df5dd17886d9fd2028"
        )

    def test_grid_cell_key_matrix(self, monkeypatch):
        monkeypatch.setattr(runner, "code_fingerprint", lambda: "f" * 64)
        spec = parse_spec(_GOLDEN_GRID)
        scenarios = build_grid_scenarios(spec.body, spec.seed,
                                         max_time=spec.max_time)
        scenarios.append(figure6_mix("50small5large-35", intrepid(), 1))
        keys = runner.grid_cell_keys(scenarios, _golden_cases(),
                                     max_time=spec.max_time)
        assert [len(row) for row in keys] == [3, 3, 3]
        assert keys[0][0] == (
            "fb9f32ffcf238533057900b2d13ea18218dce7397ba29222821484c73f4cbb48"
        )
        assert _sha("\n".join(k for row in keys for k in row)) == (
            "0fa86205008b3c54f3c4ff7b43ba2249bbf0e800686a58605bd9b6d79727fde8"
        )


# ---------------------------------------------------------------------- #
# Code fingerprint
# ---------------------------------------------------------------------- #
class TestFingerprint:
    def _tree(self, tmp_path, content: str):
        for package in ("core", "simulator"):
            (tmp_path / package).mkdir(exist_ok=True)
            (tmp_path / package / "mod.py").write_text(content)
        return tmp_path

    def test_same_tree_same_fingerprint(self, tmp_path):
        tree = self._tree(tmp_path, "x = 1\n")
        assert code_fingerprint(tree) == code_fingerprint(tree)

    def test_touching_a_module_changes_the_fingerprint(self, tmp_path):
        tree = self._tree(tmp_path, "x = 1\n")
        before = code_fingerprint(tree)
        clear_fingerprint_cache()
        (tree / "core" / "mod.py").write_text("x = 2\n")
        assert code_fingerprint(tree) != before

    def test_salt_changes_the_fingerprint(self, tmp_path, monkeypatch):
        tree = self._tree(tmp_path, "x = 1\n")
        before = code_fingerprint(tree)
        monkeypatch.setenv("REPRO_CACHE_SALT", "different")
        assert code_fingerprint(tree) != before

    def test_real_package_fingerprint_is_memoized(self):
        assert code_fingerprint() == code_fingerprint()


# ---------------------------------------------------------------------- #
# The on-disk store
# ---------------------------------------------------------------------- #
class TestResultStore:
    def _key(self, text: str = "k") -> str:
        return digest(text)

    def test_round_trip_preserves_non_finite_floats(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._key()
        store.put(key, {"nan": float("nan"), "inf": float("inf"), "v": 1.25})
        got = store.get(key)
        assert math.isnan(got["nan"])
        assert got["inf"] == float("inf")
        assert got["v"] == 1.25
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_numpy_values_are_stored_as_plain_json(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._key()
        store.put(key, {"v": np.float64(2.5), "n": np.int64(3)})
        assert store.get(key) == {"v": 2.5, "n": 3}

    def test_miss_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.get(self._key()) is None
        assert store.stats.misses == 1
        assert not (tmp_path / "never-created").exists()  # reads don't mkdir

    def test_malformed_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValidationError):
            store.get("not-a-hex-digest")

    def test_truncated_entry_is_a_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._key()
        path = store.put(key, {"v": 1})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        # And a subsequent put/get works again.
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}

    def test_entry_with_wrong_recorded_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a, key_b = self._key("a"), self._key("b")
        store.put(key_a, {"v": 1})
        # Simulate a mis-filed entry: copy a's bytes under b's path.
        path_b = store._entry_path(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(store._entry_path(key_a).read_bytes())
        assert store.get(key_b) is None
        assert store.stats.corrupt == 1

    def test_same_put_writes_identical_bytes_in_every_store(self, tmp_path):
        key = self._key()
        payload = {"v": 1.5, "nan": float("nan"), "rows": [1, 2, 3]}
        path_a = ResultStore(tmp_path / "a").put(key, payload)
        path_b = ResultStore(tmp_path / "b").put(key, payload)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_entry_with_created_timestamp_still_reads(self, tmp_path):
        # Entries written before the timestamp was dropped carry "created".
        store = ResultStore(tmp_path)
        key = self._key()
        path = store._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"key": key, "created": 1700000000.0, "payload": {"v": 7}})
            + "\n"
        )
        assert store.get(key) == {"v": 7}
        assert store.stats.hits == 1 and store.stats.corrupt == 0

    def test_writes_leave_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(10):
            store.put(self._key(str(i)), {"i": i})
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_atomic_writes_respect_the_umask(self, tmp_path):
        """mkstemp's 0600 must not leak into artefacts/entries (umask rules)."""
        import stat

        from repro.utils.io import atomic_write_text

        old_umask = os.umask(0o022)
        try:
            target = tmp_path / "artifact.json"
            atomic_write_text(target, "{}\n")
            assert stat.S_IMODE(target.stat().st_mode) == 0o644
        finally:
            os.umask(old_umask)

    def test_discard_removes_one_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._key()
        store.put(key, {"v": 1})
        store.discard(key)
        assert key not in store
        store.discard(key)  # idempotent

    def test_info_counts_entries_and_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(self._key(str(i)), {"i": i})
        info = store.info()
        assert info["entries"] == 3
        assert info["total_bytes"] > 0
        assert info["path"] == str(tmp_path)

    def test_gc_by_age_keeps_recently_touched_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        old_key, new_key = self._key("old"), self._key("new")
        old_path = store.put(old_key, {"v": "old"})
        store.put(new_key, {"v": "new"})
        stale = 10 * 86400.0
        os.utime(old_path, (os.path.getatime(old_path) - stale,
                            os.path.getmtime(old_path) - stale))
        assert store.gc(max_age_days=5) == 1
        assert store.get(old_key) is None
        assert store.get(new_key) == {"v": "new"}

    def test_gc_by_entry_budget_evicts_lru_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [self._key(str(i)) for i in range(4)]
        paths = [store.put(k, {"i": i}) for i, k in enumerate(keys)]
        # Make entry 0 the oldest, 3 the newest.
        now = os.path.getmtime(paths[-1])
        for i, path in enumerate(paths):
            os.utime(path, (now - 100 + i, now - 100 + i))
        assert store.gc(max_entries=2) == 2
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None

    def test_gc_by_bytes_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(4):
            store.put(self._key(str(i)), {"i": i})
        assert store.gc(max_bytes=0) == 4
        assert store.info()["entries"] == 0

    def test_gc_rejects_negative_budgets(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultStore(tmp_path).gc(max_entries=-1)

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            store.put(self._key(str(i)), {"i": i})
        assert store.clear() == 5
        assert store.info()["entries"] == 0

    def test_unwritable_store_degrades_instead_of_raising(self, tmp_path, capsys):
        """A campaign must never die on cache bookkeeping (fail-soft puts)."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "store")  # mkdir under a file: OSError
        assert store.put(self._key("a"), {"v": 1}) is None
        assert store.put(self._key("b"), {"v": 2}) is None
        assert store.stats.write_errors == 2 and store.stats.writes == 0
        # Warned once per handle, not once per cell.
        assert capsys.readouterr().err.count("warning") == 1
