"""SCHEMA001 — spec dataclasses parse strictly or not at all.

Every declarative spec in this repo (scenarios, sweeps, middleware,
service configs) round-trips through JSON; a ``from_dict`` that accepts
unknown keys silently drops user intent (a misspelled ``repetitons``
becomes a default, not an error).  ``repro.schema`` owns the codec —
the ``Spec`` base and ``decode`` reject unknown keys and wrong shapes
by name — and ``problems()`` collects every validation issue at once.
This rule pins the convention in the scenario/tune/service packages:
a hand-written ``from_dict`` on a dataclass must route through the
codec, and a dataclass with ``from_dict`` — its own or inherited from
``Spec`` — must expose ``problems()``.

``repro.workloads`` is deliberately out of scope: its ``from_dict``
projections (HyperParams/SystemParams) filter joint-sample dicts down
to their own fields by design.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..engine import ModuleIndex, Rule, SourceModule, in_packages, tree_nodes
from ..report import Finding

DEFAULT_PACKAGES: Tuple[str, ...] = (
    "repro.scenarios",
    "repro.tune",
    "repro.service",
)

# Referencing any of these (lexically, in the from_dict body) counts as
# routing through the codec.
SCHEMA_PLUMBING: Set[str] = {
    "decode",
    "unknown_field_message",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        expr = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(expr, ast.Attribute) and expr.attr == "dataclass":
            return True
        if isinstance(expr, ast.Name) and expr.id == "dataclass":
            return True
    return False


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == name:
            return item
    return None


def _inherits_codec(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Spec")
        or (isinstance(base, ast.Attribute) and base.attr == "Spec")
        for base in node.bases
    )


def _references_plumbing(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in SCHEMA_PLUMBING:
            return True
        if isinstance(node, ast.Attribute) and node.attr in SCHEMA_PLUMBING:
            return True
    return False


class StrictSpecSchema(Rule):
    id = "SCHEMA001"
    title = "spec dataclass bypasses the strict schema plumbing"
    rationale = (
        "a from_dict that accepts unknown keys turns typos into silent "
        "defaults; repro.schema's codec rejects them by name and problems() "
        "reports every issue at once"
    )
    packages = DEFAULT_PACKAGES

    def check(self, module: SourceModule, index: ModuleIndex) -> Iterable[Finding]:
        if not in_packages(module.name, self.packages):
            return
        for node in tree_nodes(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            from_dict = _method(node, "from_dict")
            if from_dict is None and not _inherits_codec(node):
                continue
            yield from self._check_spec(module, node, from_dict)

    def _check_spec(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        from_dict: Optional[ast.FunctionDef],
    ) -> Iterator[Finding]:
        if from_dict is not None and not _references_plumbing(from_dict):
            yield self.finding(
                module,
                from_dict,
                f"{cls.name}.from_dict does not route through "
                "repro.schema.decode — unknown keys would be silently "
                "dropped or raise a bare TypeError",
            )
        if _method(cls, "problems") is None:
            yield self.finding(
                module,
                cls,
                f"spec dataclass {cls.name!r} exposes from_dict but no "
                "problems() — validation issues must be collectable "
                "without raising one at a time",
            )
