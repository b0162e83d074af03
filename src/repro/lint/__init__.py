"""``reprolint`` — static determinism/contract linter for this repo.

An AST-based analysis pass (stdlib only) that rejects determinism hazards
at review time instead of waiting for a fuzzer or a cache miss to expose
them.  See ``docs/determinism.md`` for the contract and the rule catalogue:

==== =========================================================
D001 unseeded or global-state RNG use
D002 wall-clock/entropy reads in simulation, store, periodic code
D003 unordered set iteration feeding ordered output
D004 ``json.dumps`` without ``sort_keys=True``
D005 mutable default arguments
C001 store-key dataclass fields must serialize canonically
O001 telemetry must stay invisible to store-key construction
==== =========================================================

Entry points: ``repro lint`` (CLI) and :func:`repro.lint.run_lint`.

This package is deliberately **not** part of the store code fingerprint
(``store/fingerprint.PRODUCING_PACKAGES``): the linter analyses producing
code, it never produces results, so editing a rule must not invalidate
caches.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from .baseline import Baseline, BaselineError, load_baseline, write_baseline
    from .framework import PROTECTED_PREFIXES, Finding
    # The rule registries are read through the runner: importing it
    # registers every rule.
    from .runner import (
        PROJECT_RULE_REGISTRY,
        RULE_REGISTRY,
        LintResult,
        all_rule_ids,
        collect_files,
        format_json,
        format_text,
        run_lint,
    )


__all__ = [
    "Baseline",
    "BaselineError",
    "Finding",
    "LintResult",
    "PROJECT_RULE_REGISTRY",
    "PROTECTED_PREFIXES",
    "RULE_REGISTRY",
    "all_rule_ids",
    "collect_files",
    "format_json",
    "format_text",
    "load_baseline",
    "run_lint",
    "write_baseline",
]

__getattr__, __dir__ = attach(__name__)
