"""No new code that only tests and examples reach.

An AST pass over the ``repro`` package collects every function, method
and class whose name no code in the package references. A function or
class is referenced as a ``Name``, an ``Attribute``, an import alias or
a string in an ``__all__``; a method only as an ``Attribute`` or a
string (``getattr`` names, dotted span targets), so a ``step`` variable
does not hide an uncalled ``step`` method. Dunder methods are protocol hooks and are
skipped. The pass is by name, not by binding, so a name counts as used
once anything in the package spells it in a way its kind allows.

The set it finds is pinned to ``ALLOWLIST``, each entry with the reason
it stays. A new unreferenced def fails the test: delete it, or use it,
or add it here with its reason. An entry whose name the package starts
to reference fails too, so the list never keeps stale excuses.
"""

import ast
import shutil
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

PAPER_SHAPE = "paper-claim helper the exhibit tests assert with"
PERFBENCH = "perfbench/spans.py wraps or reads it by name"

ALLOWLIST = {
    "_respond": "bound as do_GET and do_POST in its class body",
    "aggregate_windows": PERFBENCH,
    "cluster_purity": PAPER_SHAPE,
    "contains": "search-space membership, the oracle of the sampling tests",
    "energy_joules": "examples/energy_aware_tuning.py reads the PDU estimate",
    "execute": PERFBENCH + "; the quickstart and multi-tenant examples run it",
    "exponential_growth_ratio": PAPER_SHAPE,
    "final_count": "PMU reference oracle of the counter tests",
    "final_counts": PERFBENCH,
    "from_json": "documented in README",
    "generate_state": "numpy ISeedSequence protocol of _KeyedSeed",
    "generic_share": "PMU reference oracle of the counter tests",
    "hit_rate": "the quickstart and custom-workload examples print it",
    "log_message": "BaseHTTPRequestHandler override",
    "max_training_cv": PAPER_SHAPE,
    "mean_trial_time": PAPER_SHAPE,
    "metric_by_system": PAPER_SHAPE,
    "multiplexed": "PMU reference oracle of the counter tests",
    "read_interval": PERFBENCH,
    "row": "single-row read the noise-matrix tests hold rows() to",
    "spawn": "numpy ISeedSequence protocol of _KeyedSeed",
    "step": "one-event step, the ordering oracle tests/test_des.py holds run() to",
    "submit_inline": "client half of the served inline-run route",
    "surviving": "documented in README",
    "time_to_accuracy": PAPER_SHAPE,
    "to_json": "documented in README",
    "total_energy_kj": "examples/energy_aware_tuning.py prints it",
}


def unreferenced_defs(root):
    """``{name: [path:line, ...]}`` of defs no code under ``root`` names."""
    defs = []
    names, attributes, strings = set(), set(), set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        methods = {
            id(member)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for member in node.body
        }
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                where = f"{path.relative_to(root)}:{node.lineno}"
                defs.append((node.name, where, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value.rsplit(".", 1)[-1])
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                names.update(
                    constant.value
                    for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant)
                    and isinstance(constant.value, str)
                )
    method_refs, other_refs = attributes | strings, attributes | names
    dead = {}
    for name, where, is_method in defs:
        referenced = method_refs if is_method else other_refs
        if name not in referenced and not (
            name.startswith("__") and name.endswith("__")
        ):
            dead.setdefault(name, []).append(where)
    return dead


def test_no_new_unreferenced_defs():
    dead = unreferenced_defs(PACKAGE)
    new = {name: sites for name, sites in dead.items() if name not in ALLOWLIST}
    assert not new, (
        "defs that no code in the package references (delete them, or "
        f"allowlist each with a reason): {new}"
    )


def test_allowlist_has_no_stale_entries():
    dead = unreferenced_defs(PACKAGE)
    stale = sorted(name for name in ALLOWLIST if name not in dead)
    assert not stale, f"now referenced or deleted; drop from ALLOWLIST: {stale}"


def test_pass_sees_each_kind_of_reference(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from os import path as p\n"
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def called(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __repr__(self): return ''\n"
        "    def used(self): return called()\n"
        "    def unused(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def by_string(self): pass\n"
        "Box().used()\n"
        "shadowed = getattr(Box(), 'by_string')\n"
    )
    assert sorted(unreferenced_defs(tmp_path)) == ["dead", "shadowed", "unused"]


def test_new_def_in_a_package_copy_is_caught(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "simulation" / "des.py"
    module.write_text(
        module.read_text(encoding="utf-8") + "\n\ndef orphan_helper():\n    pass\n",
        encoding="utf-8",
    )
    dead = unreferenced_defs(copy)
    assert sorted(set(dead) - set(ALLOWLIST)) == ["orphan_helper"]


def unused_imports(root):
    """``["path:line name", ...]`` of imported names their module never
    uses. A package ``__init__`` imports to re-export, and ``from
    __future__`` imports are compiler directives, so both are exempt."""
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [
            f"{path.relative_to(root)}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    return unused


def test_no_unused_imports():
    unused = unused_imports(PACKAGE)
    assert not unused, f"imports no code in their module uses: {unused}"


def test_unused_import_pass_exemptions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import used\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import List, Tuple\n"
        "def used() -> List[str]:\n"
        "    return [os.path.sep]\n"
    )
    assert unused_imports(tmp_path) == ["pkg/mod.py:3 codec", "pkg/mod.py:4 Tuple"]
