"""The one-pass key encoder is byte-identical to the reference canonicalizer.

:func:`repro.store.canonical_json` writes canonical JSON in one recursive
pass (with a per-call identity memo for dataclass instances).  Every
existing store key was derived from the older two-stage form —
``canonicalize`` to a plain tree, then ``json.dumps(sort_keys=True)`` —
kept in ``tests/canonical_oracle.py``.  Hypothesis generates trees that mix
everything the encoder dispatches on and asserts the two texts agree; where
the oracle raises :class:`CanonicalizationError` the encoder must raise it
too.
"""

from __future__ import annotations

import dataclasses
import enum
import types
from collections.abc import Callable, Iterator, Mapping
from functools import cached_property
from typing import ClassVar

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canonical_oracle import oracle_json
from repro.core.platform import intrepid
from repro.store import CanonicalizationError, canonical_json
from repro.workload.generator import apply_sensibility, figure6_mix

# --------------------------------------------------------------------------- #
# Value types
# --------------------------------------------------------------------------- #


class Colour(enum.Enum):
    RED = "red"
    NESTED = (1, 2.5)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 3


class Tag(str, enum.Enum):
    A = "a"


class Ratio(float, enum.Enum):
    HALF = 0.5


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: object = None


@dataclasses.dataclass
class Box:
    items: object
    label: str = "box"
    # Not a field: never part of the canonical form.
    kind: ClassVar[str] = "box"


@dataclasses.dataclass(frozen=True)
class Memoized:
    values: object

    @cached_property
    def summary(self) -> str:
        return repr(self.values)


@dataclasses.dataclass
class Awkward:
    """Field names that sort around ``"__dc__"`` (upper case, underscores)."""

    Zeta: object = 0
    _private: object = 1
    a: object = 2
    derived: object = dataclasses.field(init=False, default="d")


@dataclasses.dataclass(frozen=True)
class SubPoint(Point):
    z: float = 0.0


class SubDict(dict):
    pass


class ReadOnly(Mapping):
    def __init__(self, data: dict) -> None:
        self._data = dict(data)

    def __getitem__(self, key: object) -> object:
        return self._data[key]

    def __iter__(self) -> Iterator[object]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

EDGE_FLOATS = [
    0.0, -0.0, 0.1, 1e16, 1e22, 1e-7, 5e-324, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]

hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2, max_value=2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\x00", "é", "\U0001f600", "\ud800", "1", "True"]),
    st.sampled_from([Colour.RED, Colour.NESTED, Level.LOW, Level.HIGH,
                     Tag.A, Ratio.HALF]),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.int8, st.integers(-128, 127)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.str_, st.text(max_size=4)),
)

arrays = st.one_of(
    st.builds(np.array, st.floats()),
    st.builds(
        lambda xs: np.array(xs, dtype=np.float64).reshape(len(xs), 1),
        st.lists(st.floats(), max_size=4),
    ),
    st.builds(
        lambda xs: np.array(xs, dtype=np.int64),
        st.lists(st.integers(-(2**40), 2**40), max_size=4),
    ),
)

unstable = st.sampled_from([
    lambda: None,
    np.random.default_rng(0),
    object(),
    b"bytes",
    Point,  # a dataclass *class* is not an instance
])


def dataclasses_of(children: st.SearchStrategy[object]) -> st.SearchStrategy[object]:
    return st.one_of(
        st.builds(Point, st.floats(), children),
        st.builds(SubPoint, st.floats(), children, st.floats()),
        st.builds(Box, children, st.text(max_size=4)),
        st.builds(Memoized, children),
        st.builds(Awkward, children, children, children),
    )


def containers(children: st.SearchStrategy[object]) -> st.SearchStrategy[object]:
    keys = st.one_of(st.text(max_size=4), hashable_leaves)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        # Non-str keys go through str(), and keys colliding after it raise.
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(SubDict),
        st.dictionaries(keys, children, max_size=3).map(types.MappingProxyType),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(ReadOnly),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        dataclasses_of(children),
    )


@st.composite
def trees(draw: st.DrawFn) -> object:
    """A tree whose shared objects recur at several depths.

    A small pool of dataclass instances is drawn first; the tree then picks
    pool members as leaves, so the same object (by identity) appears at
    different places — the case the encoder's identity memo serves.
    """
    pool = draw(st.lists(dataclasses_of(hashable_leaves), min_size=1, max_size=3))
    leaves = st.one_of(hashable_leaves, arrays, st.sampled_from(pool))
    tree = draw(st.recursive(leaves, containers, max_leaves=24))
    flaw = draw(st.integers(0, 9))  # 0 (no flaw) is hypothesis' favourite
    if flaw >= 8:
        # Bury a value with no canonical form (lambda, live Generator, ...).
        bad = draw(unstable)
        tree = draw(st.sampled_from(
            [[tree, bad], {"t": tree, "bad": bad}, Box(bad), Point(0.0, (tree, bad))]
        ))
    elif flaw == 7:
        # Keys that collide after str(): 1 / "1", True / "True", HIGH / "3".
        key = draw(st.sampled_from([1, True, Level.HIGH]))
        tree = Box({key: tree, str(key): None})
    for member in pool:
        if isinstance(member, Memoized) and draw(st.booleans()):
            member.summary  # noqa: B018 - populate the cached_property memo
    return draw(st.sampled_from([tree, [tree, pool], {"t": tree, "p": [pool]}]))


def _outcome(encode: Callable[[object], str], value: object) -> object:
    try:
        return encode(value)
    except CanonicalizationError:
        return CanonicalizationError


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees())
def test_matches_oracle_on_generated_trees(value: object) -> None:
    assert _outcome(canonical_json, value) == _outcome(oracle_json, value)


def test_memo_does_not_outlive_a_call() -> None:
    """A shared mutable instance mutated between calls re-encodes."""
    box = Box([1.0])
    tree = [box, {"again": box}, (box,)]
    before = canonical_json(tree)
    assert before == oracle_json(tree)
    box.items = [-0.0, Level.HIGH]
    after = canonical_json(tree)
    assert after == oracle_json(tree)
    assert before != after


def test_equal_but_distinct_values_keep_their_own_text() -> None:
    """Equality is not identity: 0.0 == -0.0 and 1 == 1.0 == True."""
    tree = [Point(0.0), Point(-0.0), Point(1, 1), Point(1.0, 1.0),
            Point(True, True)]
    assert canonical_json(tree) == oracle_json(tree)
    assert '"x":-0.0' in canonical_json(tree)


def test_unstable_values_raise_like_the_oracle() -> None:
    for value in ([lambda: None], {"rng": np.random.default_rng(0)},
                  Box(object()), {1: "a", "1": "b"}, {Point}):
        for encode in (canonical_json, oracle_json):
            try:
                encode(value)
            except CanonicalizationError:
                continue
            raise AssertionError(f"{encode.__name__} accepted {value!r}")


def test_real_scenarios_match_the_oracle() -> None:
    """Shared instances (periodic apps) and distinct ones (sensibility)."""
    mix = figure6_mix("50small5large-20", intrepid(), 3)
    assert canonical_json(mix) == oracle_json(mix)
    rng = np.random.default_rng(4)
    perturbed = dataclasses.replace(mix, applications=tuple(
        apply_sensibility(app, 0.2, 0.2, rng) for app in mix.applications
    ))
    assert canonical_json(perturbed) == oracle_json(perturbed)
