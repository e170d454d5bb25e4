"""repro.analysis — static enforcement of the determinism contract.

An AST-based linter (stdlib ``ast`` only) that checks the source
invariants the golden traces depend on, on the code model instead of
per execution: all randomness flows through counter-keyed ``rng_for``
streams (DET001/DET002), exceptions crossing the process pool repickle
(PKL001), shared job state mutates under the lock (LOCK001), and spec
dataclasses parse strictly (SCHEMA001).  Front door: ``repro lint``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .engine import (
    ModuleIndex,
    Rule,
    SourceModule,
    UnknownRule,
    module_name_for,
    run_rules,
)
from .pragmas import PRAGMA_RULE, Pragma, PragmaSheet
from .report import Finding, LintResult, sort_findings
from .rules import ALL_RULE_IDS, ALL_RULES, RULES_BY_ID


def select_rules(rule_ids: Optional[Sequence[str]]) -> Sequence[Rule]:
    """Resolve ``--rule`` ids to rule instances (UnknownRule on typos)."""

    if not rule_ids:
        return ALL_RULES
    selected = []
    for rule_id in rule_ids:
        rule = RULES_BY_ID.get(rule_id)
        if rule is None:
            raise UnknownRule(rule_id, ALL_RULE_IDS)
        selected.append(rule)
    return selected


def run_lint(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint ``paths`` (default: the installed ``repro`` package).

    ``rules`` selects a subset by id; pragma-hygiene checks that need
    the full rule set (unused pragmas) only run when no subset is
    given, so a ``--rule DET001`` run never flags a PKL001 pragma as
    stale.
    """

    selected = select_rules(rules)
    if paths:
        index = ModuleIndex.from_paths([Path(path) for path in paths])
    else:
        index = ModuleIndex.default()
    return run_rules(
        index,
        selected,
        all_rule_ids=ALL_RULE_IDS,
        check_unused_pragmas=rules is None or not rules,
    )


__all__ = [
    "ALL_RULES",
    "ALL_RULE_IDS",
    "RULES_BY_ID",
    "Finding",
    "LintResult",
    "ModuleIndex",
    "PRAGMA_RULE",
    "Pragma",
    "PragmaSheet",
    "Rule",
    "SourceModule",
    "UnknownRule",
    "module_name_for",
    "run_lint",
    "run_rules",
    "select_rules",
    "sort_findings",
]
