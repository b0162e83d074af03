"""Spec fuzzing derived from the key declarations (parse only).

The strategies read each table's keys from the dataclass field metadata
(:func:`repro.config.schema.declared_keys`): the getter kind, bounds,
choices and list constraints decide which values are valid and which
break a key.  Two properties:

* a body drawn from the declarations is accepted by ``parse_spec``;
* the same body with one declared key broken (wrong type, out of bounds,
  a bad choice, a duplicate or empty list, a failing per-key check) raises
  :class:`SpecError` whose message starts with that key's spec path —
  never another exception type.

The declarations say nothing about the rules that span several keys, so
``_CROSS_FIELD_FIXES`` repairs a drawn table to satisfy them; keys whose
validity a per-key check decides draw from their declared default or from
``_SAMPLES``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Union

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SpecError, parse_spec
from repro.config.kinds import EXPERIMENT_KINDS
from repro.config.schema import Key, declared_keys
from repro.config.spec import (
    OUTPUT_KEY,
    SCHEDULERS_KEYS,
    AnalysisSpec,
    CongestedMomentsSpec,
    ExperimentSpec,
    Figure6Spec,
    GridSpec,
    PeriodicSpec,
    PlatformSpec,
    VestaSpec,
)

#: A table's declarations: a spec dataclass, or a name -> Key mapping.
Owner = Union[type, dict[str, Key]]

_BODIES: dict[str, type] = {
    "figure6": Figure6Spec,
    "congested-moments": CongestedMomentsSpec,
    "vesta": VestaSpec,
    "periodic": PeriodicSpec,
    "analysis": AnalysisSpec,
}

#: Valid values of keys whose check decides validity and whose declared
#: default cannot serve, by (table, field).
_SAMPLES: dict[tuple[str, str], tuple[Any, ...]] = {
    ("ScenarioEntry", "mix"): ("256/32", "512", "128/128/64"),
    ("SchedulerCaseSpec", "name"): ("MaxSysEff", "Priority-MinDilation", "MinMax-0.5"),
    ("schedulers", "names"): ([], ["FairShare"], ["MaxSysEff", "MinMax-0.25"]),
    ("OutputSpec", "path"): ("out.json", "results/run.csv"),
    ("FaultWindowSpec", "factor"): (0.0, 0.5, 0.99),
    ("RandomWindowsSpec", "factor"): (0.0, 0.25),
}

#: A value that fails each key's per-key check, by (table, field).  Every
#: declared ``check`` needs one (``test_every_check_has_a_failing_value``).
_FAILING_CHECK: dict[tuple[str, str], Any] = {
    ("ScenarioEntry", "mix"): "12/x",
    ("SchedulerCaseSpec", "name"): "NoSuchScheduler",
    ("schedulers", "names"): ["NoSuchScheduler"],
    ("Figure6Spec", "schedulers"): ["NoSuchScheduler"],
    ("CongestedMomentsSpec", "schedulers"): ["NoSuchScheduler"],
    ("Figure7Spec", "schedulers"): ["NoSuchScheduler"],
    ("PeriodicSpec", "online"): ["MinMax-1.5"],
    ("PeriodicSpec", "apps"): [
        {"name": "a", "processors": 1, "work": 1.0, "io_volume": 1.0, "release": 1.0}
    ],
    ("VestaSpec", "scenarios"): ["999999"],
    ("OutputSpec", "path"): "  ",
    ("FaultWindowSpec", "factor"): 1.0,
    ("RandomWindowsSpec", "factor"): 1.0,
    ("PeriodicSpec", "epsilon"): 1e-300,
}

#: Checks whose message carries no spec path, so the path property cannot
#: test them; the golden error corpus pins their text.  A grid's keys sit
#: at the spec root, so its ``[[scenarios]]`` is ("root", "scenarios").
_UNPATHED_CHECKS: set[tuple[str, str]] = {("root", "scenarios")}

_FLOAT_INT_CAP = 2**53


def _root_keys(kind: str) -> dict[str, Key]:
    """The spec root as a table: ``[experiment]``, the body, ``[output]``."""
    keys = {"experiment": Key("table", required=True, table=ExperimentSpec)}
    if kind == "grid":
        keys.update((name, k) for _, name, k in declared_keys(GridSpec))
    else:
        keys[kind.replace("-", "_")] = Key(
            "table", table=_BODIES[kind], required=kind == "periodic"
        )
    keys["output"] = OUTPUT_KEY
    return keys


def _owner_name(owner: Owner) -> str:
    if isinstance(owner, dict):
        return "schedulers" if owner is SCHEDULERS_KEYS else "root"
    return owner.__name__


def _entries(owner: Owner) -> list[tuple[str, str, Key]]:
    if isinstance(owner, dict):
        return [(name, name, k) for name, k in owner.items()]
    return declared_keys(owner)


def _nested(k: Key) -> Owner:
    return SCHEDULERS_KEYS if k.parse is not None else k.table


def _choices(k: Key) -> Any:
    choices = k.options.get("choices")
    return choices() if callable(choices) else choices


def _applies(k: Key, table: dict[str, Any]) -> bool:
    return k.kinds is None or table.get("kind") in k.kinds


# ---------------------------------------------------------------------- #
# Valid values
# ---------------------------------------------------------------------- #
def _float_strategy(k: Key) -> st.SearchStrategy[Any]:
    lo = k.options.get("minimum")
    hi = k.options.get("maximum")
    positive = k.options.get("positive", False)
    if positive and lo is None:
        lo = 0.0
    floats = st.floats(
        min_value=lo,
        max_value=hi,
        allow_nan=False,
        allow_infinity=k.options.get("allow_inf", False),
        exclude_min=positive and lo == 0.0,
    )
    int_lo = -_FLOAT_INT_CAP if lo is None else math.ceil(lo) + (1 if positive else 0)
    int_hi = _FLOAT_INT_CAP if hi is None else math.floor(hi)
    return st.one_of(floats, st.integers(min_value=int_lo, max_value=int_hi))


def _subsequence(draw: Callable[..., Any], items: tuple[Any, ...], non_empty: bool) -> list[Any]:
    picked = [item for item in items if draw(st.booleans())]
    return picked or ([items[0]] if non_empty else [])


def _valid(draw: Callable[..., Any], owner: Owner, attr: str, k: Key) -> Any:
    non_empty = k.options.get("non_empty", False)
    sample = _SAMPLES.get((_owner_name(owner), attr))
    if sample is not None:
        return draw(st.sampled_from(sample))
    if k.kind == "table":
        return _draw_table(draw, _nested(k))
    if k.kind == "tables":
        count = draw(st.integers(min_value=1 if k.required else 0, max_value=3))
        return [_draw_table(draw, k.table) for _ in range(count)]
    if k.check is not None:
        if isinstance(k.default, tuple):
            return _subsequence(draw, k.default, non_empty)
        return k.default
    choices = _choices(k)
    if k.kind == "str":
        if choices is not None:
            return draw(st.sampled_from(sorted(choices)))
        return draw(st.text(min_size=1, max_size=8))
    if k.kind == "bool":
        return draw(st.booleans())
    if k.kind == "int":
        return draw(
            st.integers(
                min_value=k.options.get("minimum"), max_value=k.options.get("maximum")
            )
        )
    if k.kind == "float":
        return draw(_float_strategy(k))
    if k.kind == "str_list":
        if choices is None:
            return draw(st.lists(st.text(max_size=8), min_size=int(non_empty), unique=True))
        return _subsequence(draw, tuple(sorted(choices)), non_empty)
    assert k.kind == "float_list", k.kind
    return draw(
        st.lists(
            _float_strategy(k),
            min_size=1 if non_empty else 0,
            max_size=4,
            unique_by=float if k.options.get("unique") else None,
        )
    )


def _fix_platform(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    sizes = ("processors", "node_bandwidth", "system_bandwidth")
    has_sizes = any(size in table for size in sizes)
    if table.get("preset", "generic" if has_sizes else "intrepid") == "generic":
        for attr, name, k in declared_keys(PlatformSpec):
            if name in sizes and name not in table:
                table[name] = _valid(draw, PlatformSpec, attr, k)
    else:
        for size in sizes:
            table.pop(size, None)


def _fix_entry(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    if table["kind"] in ("mix", "congested"):
        if not any(table.get(n, 0) for n in ("small", "large", "very_large")):
            table["small"] = 1


def _fix_window(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    if table.get("end", math.inf) <= table["start"]:
        del table["end"]


def _fix_faults(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    sources = ("windows", "crashes", "random_windows", "random_crashes")
    if not any(table.get(source) for source in sources):
        table["windows"] = [{"start": 0.0, "factor": 0.5}]


def _fix_schedulers(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    if not (table.get("names") or table.get("cases")):
        table["names"] = ["MaxSysEff"]


def _fix_periodic(draw: Callable[..., Any], table: dict[str, Any]) -> None:
    mix = ("small", "large", "very_large")
    for i, app in enumerate(table.get("apps", [])):
        app["name"] = f"app{i}"
        app.pop("release", None)
    if table.get("apps"):
        for name in mix:
            table.pop(name, None)
    elif not any(table.get(name, 0) for name in mix):
        table["small"] = 1


#: Repairs for the rules that span several keys, by table.
_CROSS_FIELD_FIXES: dict[str, Callable[[Callable[..., Any], dict[str, Any]], None]] = {
    "PlatformSpec": _fix_platform,
    "ScenarioEntry": _fix_entry,
    "FaultWindowSpec": _fix_window,
    "FaultsSpec": _fix_faults,
    "schedulers": _fix_schedulers,
    "PeriodicSpec": _fix_periodic,
}


def _draw_table(draw: Callable[..., Any], owner: Owner) -> dict[str, Any]:
    table: dict[str, Any] = {}
    for attr, name, k in _entries(owner):
        if not _applies(k, table):
            continue
        if k.required or draw(st.booleans()):
            table[name] = _valid(draw, owner, attr, k)
    fix = _CROSS_FIELD_FIXES.get(_owner_name(owner))
    if fix is not None:
        fix(draw, table)
    return table


@st.composite
def valid_specs(draw: Callable[..., Any]) -> dict[str, Any]:
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    spec = _draw_table(draw, _root_keys(kind))
    spec["experiment"]["kind"] = kind
    if kind == "grid" and "schedulers" not in spec:
        # Hand-parsed, so not declared required: its absence has its own message.
        spec["schedulers"] = _draw_table(draw, SCHEDULERS_KEYS)
    experiment = spec["experiment"]
    faults = spec.get("faults") or {}
    if kind in ("vesta", "periodic"):
        # These kinds refuse every finite horizon.
        experiment["max_time"] = math.inf
    elif "random_windows" in faults or "random_crashes" in faults:
        # Stochastic faults need one.
        if experiment.get("max_time", math.inf) == math.inf:
            experiment["max_time"] = 100.0
    return spec


# ---------------------------------------------------------------------- #
# One-key-broken variants
# ---------------------------------------------------------------------- #
def _sites(
    owner: Owner, table: dict[str, Any], path: str
) -> list[tuple[str, dict[str, Any], str, Key, tuple[str, str]]]:
    """Every declared key of every table present in the spec:
    ``(spec path, containing table, key, declaration, (table, field))``."""
    sites = []
    for attr, name, k in _entries(owner):
        if not _applies(k, table):
            continue
        key_path = f"{path}.{name}" if path else name
        sites.append((key_path, table, name, k, (_owner_name(owner), attr)))
        value = table.get(name)
        if k.kind == "table" and isinstance(value, dict):
            sites += _sites(_nested(k), value, key_path)
        elif k.kind == "tables" and isinstance(value, list):
            for i, item in enumerate(value):
                sites += _sites(k.table, item, f"{key_path}[{i}]")
    return sites


def _broken(k: Key, where: tuple[str, str], current: Any) -> list[Any]:
    """Values that must make ``k``, field ``where``, fail on its own."""
    options = k.options
    lo, hi = options.get("minimum"), options.get("maximum")
    out: list[Any] = [{"x": 1}]
    if k.kind == "table":
        return [3, "x", [1]]
    if k.kind == "tables":
        out = [3, "x", {"a": 1}]
    if where in _FAILING_CHECK:
        out.append(_FAILING_CHECK[where])
    if k.kind == "str":
        out += [7, ["x"]]
        if _choices(k) is not None:
            out.append("not-a-choice")
    elif k.kind == "bool":
        out += ["yes", 1]
    elif k.kind == "int":
        out += ["1", 1.5, 2.0, True]
        if lo is not None:
            out += [lo - 1, lo - 10**30]
        if hi is not None:
            out.append(hi + 1)
    elif k.kind == "float":
        out += ["1.0", True, math.nan, [1.0]]
        if not options.get("allow_inf"):
            out += [math.inf, -math.inf, 10**400]
        if options.get("positive"):
            out += [0, 0.0, -1e-300, -math.inf]
        if lo is not None:
            out += [lo - 1, lo - 1e-9 * max(1.0, abs(lo))]
        if hi is not None:
            out += [hi + 1, 10**400, math.inf]
    elif k.kind in ("str_list", "float_list"):
        item = "x" if k.kind == "str_list" else 1.0
        out += ["abc", [None], [[item]]]
        out.append([1] if k.kind == "str_list" else ["1.0"])
        if k.kind == "str_list" and _choices(k) is not None:
            out.append(["not-a-choice"])
        if k.kind == "float_list":
            out += [[math.nan], [True]]
            if lo is not None:
                out.append([lo - 1])
            if hi is not None:
                out.append([hi + 1])
        if options.get("non_empty"):
            out.append([])
        if options.get("unique"):
            sample = list(current or k.default or ())
            if sample:
                out.append(sample + sample[:1])
    return out


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(valid_specs())
def test_declared_bodies_parse(spec: dict[str, Any]) -> None:
    parse_spec(spec)


@settings(_SETTINGS, max_examples=100)
@given(valid_specs())
def test_each_broken_key_is_reported_at_its_path(spec: dict[str, Any]) -> None:
    for path, table, name, k, where in _sites(_root_keys(spec["experiment"]["kind"]), spec, ""):
        had, original = name in table, table.get(name)
        for value in _broken(k, where, original):
            table[name] = value
            with pytest.raises(SpecError) as excinfo:
                parse_spec(spec)
            assert str(excinfo.value).startswith(path), (path, value, str(excinfo.value))
        if had:
            table[name] = original
        else:
            del table[name]


def _checked_keys() -> set[tuple[str, str]]:
    """(table, field) of every declared key with a per-key check, over the
    tables reachable from every experiment kind's root."""
    checked: set[tuple[str, str]] = set()
    seen: set[str] = set()
    todo: list[Owner] = [_root_keys(kind) for kind in EXPERIMENT_KINDS]
    while todo:
        owner = todo.pop()
        for attr, _, k in _entries(owner):
            if k.check is not None:
                checked.add((_owner_name(owner), attr))
            if k.kind in ("table", "tables"):
                nested = _nested(k)
                if _owner_name(nested) not in seen:
                    seen.add(_owner_name(nested))
                    todo.append(nested)
    return checked


def test_every_check_has_a_failing_value() -> None:
    # A new per-key check fails here until _FAILING_CHECK breaks it.
    assert _checked_keys() == set(_FAILING_CHECK) | _UNPATHED_CHECKS
