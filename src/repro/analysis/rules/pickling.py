"""PKL001 — exceptions that cross process boundaries must repickle.

Default exception pickling rebuilds ``cls(*self.args)``.  An exception
whose ``__init__`` takes more than one argument but that does not set
``self.args`` to exactly that argument tuple therefore explodes (or
silently mutates) when a worker process sends it back through the pool
— the exact latent bug PR 6 found in the multi-arg ``TrialError``
family.  The durable fix is ``__reduce__`` returning
``(type(self), (args...))``; this rule makes its absence a lint error
for every exception in the packages whose errors cross the pool
boundary.
"""

from __future__ import annotations

import ast
import builtins
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..engine import ModuleIndex, Rule, SourceModule, in_packages, tree_nodes
from ..report import Finding

BUILTIN_EXCEPTIONS: Set[str] = {
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
}

DEFAULT_PACKAGES: Tuple[str, ...] = ("repro.tune", "repro.scenarios")


def _base_names(node: ast.ClassDef) -> List[str]:
    """Last segment of each base expression (``tune.TrialError`` -> ``TrialError``)."""

    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


@lru_cache(maxsize=1)
def _exception_classes(index: ModuleIndex) -> FrozenSet[str]:
    """Names of classes (anywhere in the index) that are exception types.

    Fixpoint over bare class names: a class is exception-like when any
    base resolves (by last segment) to a builtin exception or to a
    class already known to be exception-like.  Name-based, so it works
    across modules without executing imports.  Memoized on the index
    (by identity): one lint run walks the whole index once, not once
    per checked module.
    """

    bases_by_name: Dict[str, List[str]] = {}
    for module in index:
        for node in tree_nodes(module.tree):
            if isinstance(node, ast.ClassDef):
                bases_by_name.setdefault(node.name, []).extend(_base_names(node))
    exception_like: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, bases in bases_by_name.items():
            if name in exception_like:
                continue
            if any(
                base in BUILTIN_EXCEPTIONS or base in exception_like
                for base in bases
            ):
                exception_like.add(name)
                changed = True
    return frozenset(exception_like)


def _init_arity(node: ast.ClassDef) -> Optional[int]:
    """Number of non-self ``__init__`` parameters, or None.

    None means "no multi-arg risk": no explicit ``__init__``, or one
    taking ``*args`` (which forwards cleanly through default pickling).
    """

    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            if item.args.vararg is not None:
                return None
            positional = len(item.args.posonlyargs) + len(item.args.args) - 1
            return positional + len(item.args.kwonlyargs)
    return None


def _defines(node: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(item, ast.FunctionDef) and item.name == method
        for item in node.body
    )


class PickleSafeExceptions(Rule):
    id = "PKL001"
    title = "multi-arg exception without __reduce__"
    rationale = (
        "default pickling rebuilds cls(*self.args); a multi-arg __init__ "
        "breaks when the pool sends the exception back across processes"
    )
    packages = DEFAULT_PACKAGES

    def check(self, module: SourceModule, index: ModuleIndex) -> Iterable[Finding]:
        if not in_packages(module.name, self.packages):
            return
        exception_like = _exception_classes(index)
        for node in tree_nodes(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in exception_like:
                continue
            arity = _init_arity(node)
            if arity is None or arity <= 1:
                continue
            if _defines(node, "__reduce__"):
                continue
            yield self.finding(
                module,
                node,
                f"exception {node.name!r} takes {arity} __init__ arguments "
                "but defines no __reduce__ — it will not survive the "
                "process-pool boundary (define __reduce__ returning "
                "(type(self), (args...)))",
            )
