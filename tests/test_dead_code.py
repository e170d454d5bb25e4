"""No new code that only tests and examples reach.

An AST pass over the ``repro`` package collects every function, method
and class whose name no code in the package references. A function or
class is referenced as a ``Name``, an ``Attribute`` or an import alias
outside a package ``__init__``; a method only as an ``Attribute`` or as
the string name argument of ``getattr``/``hasattr``/``setattr``/
``delattr``, ``attrgetter`` or ``methodcaller``. So a ``step`` variable
does not hide an uncalled ``step`` method, nor does a dict key that
spells a method's name. Exporting is not using: a name listed in an
``__all__`` (a ``lazy_exports`` table included) or imported by a
package ``__init__`` to re-export it counts only when some other code
names it. Dunder methods are protocol hooks and are skipped. The pass
is by name, not by binding, so a name counts as used once anything in
the package spells it in a way its kind allows.

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
PMU_ORACLE = "PMU reference oracle of the counter tests"

ALLOWLIST = {
    "PduSampler": "examples/energy_aware_tuning.py meters its run with it",
    "accuracy_at_epoch": PERFBENCH
    + "; the scalar oracle tests/test_noise_block.py holds accuracy_curve to",
    "aggregate_windows": PERFBENCH,
    "cache_hits": "perfbench/session.py reads them",
    "cache_misses": "perfbench/session.py reads them",
    "clear_cost_caches": "benchmarks/test_micro.py times cold epoch costs with it",
    "cluster_purity": PAPER_SHAPE,
    "contains": "search-space membership, the oracle of the sampling tests",
    "energy_joules": "examples/energy_aware_tuning.py reads the PDU estimate",
    "energy_system_objective": "benchmarks/test_ablations.py and the energy example",
    "execute": PERFBENCH
    + "; the stateless one-plan run the multi-tenant example calls",
    "exponential_growth_ratio": PAPER_SHAPE,
    "final_count": PMU_ORACLE,
    "final_counts": PERFBENCH,
    "format_pragma": "the round-trip oracle of the pragma parser tests",
    "from_json": "documented in README",
    "generate_state": "numpy ISeedSequence protocol of _KeyedSeed",
    "generic_share": PMU_ORACLE,
    "hit_rate": "the quickstart and custom-workload examples print it",
    "is_compute_side": PMU_ORACLE,
    "max_training_cv": PAPER_SHAPE,
    "mean_trial_time": PAPER_SHAPE,
    "metric_by_system": PAPER_SHAPE,
    "multiplexed": PMU_ORACLE,
    "paper_system_grid": "benchmarks/test_ablations.py sweeps the paper's grid",
    "philox_construction_count": "the construction bound in test_noise_block.py",
    "read_interval": PERFBENCH,
    "rng": "WorkloadSpec's bound stream, a call shape DET002 lints",
    "row": "single-row read the noise-matrix tests hold rows() to",
    "scenario_names": "scripts/generate_experiments_md.py lists each source",
    "serve_background": "README, examples/service_client.py and perfbench boot it",
    "spawn": "numpy ISeedSequence protocol of _KeyedSeed",
    "step": "one-event step, the ordering oracle tests/test_des.py holds run() to",
    "submit_inline": "client half of the served inline-run route",
    "surviving": "documented in README",
    "time_to_accuracy": PAPER_SHAPE,
    "to_json": "documented in README",
    "total_energy_kj": "examples/energy_aware_tuning.py prints it",
    "true_counts": PMU_ORACLE,
    "variants": "the validated variant list the sweep and spec-dict tests pin",
}


#: callables whose string arguments name attributes: name -> the slice
#: of its positional arguments that do.
ATTRIBUTE_NAMERS = {
    "getattr": slice(1, 2),
    "hasattr": slice(1, 2),
    "setattr": slice(1, 2),
    "delattr": slice(1, 2),
    "methodcaller": slice(0, 1),
    "attrgetter": slice(None),
}


def named_attributes(call):
    """The attribute names a ``getattr``-style call spells as strings
    (``attrgetter("a.b")`` names both ``a`` and ``b``)."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name not in ATTRIBUTE_NAMERS:
        return []
    return [
        part
        for arg in call.args[ATTRIBUTE_NAMERS[name]]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        for part in arg.value.split(".")
    ]


def unreferenced_defs(root):
    """``{name: [path:line, ...]}`` of defs no code under ``root`` names."""
    defs = []
    names, attributes = set(), set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        methods = {
            id(member)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for member in node.body
        }
        # a package __init__ imports to re-export, which is not a use
        exports = path.name == "__init__.py"
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
            elif isinstance(node, ast.alias) and not exports:
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Call):
                attributes.update(named_attributes(node))
    other_refs = attributes | names
    dead = {}
    for name, where, is_method in defs:
        referenced = attributes if is_method else other_refs
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
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import reexported, reexported_and_imported\n"
        "__all__ = lazy_exports(\n"
        "    globals(), {'.mod': ('lazy_only', 'lazy_and_read')}\n"
        ")\n"
    )
    (package / "user.py").write_text(
        "import pkg\n"
        "from . import mod\n"
        "from .mod import reexported_and_imported\n"
        "mod.listed_and_called()\n"
        "pkg.lazy_and_read\n"
    )
    (package / "mod.py").write_text(
        "from os import path as p\n"
        "__all__ = ['listed_only', 'listed_and_called', 'listed']\n"
        "def listed_only(): pass\n"
        "def listed_and_called(): pass\n"
        "def lazy_only(): pass\n"
        "def lazy_and_read(): pass\n"
        "def reexported(): pass\n"
        "def reexported_and_imported(): pass\n"
        "def called(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __repr__(self): return ''\n"
        "    def used(self): return called()\n"
        "    def unused(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def by_string(self): pass\n"
        "    def by_getter(self): pass\n"
        "    def by_caller(self): pass\n"
        "    def keyed(self): pass\n"
        "    def listed(self): pass\n"
        "Box().used()\n"
        "shadowed = getattr(Box(), 'by_string')\n"
        "getter = operator.attrgetter('inner.by_getter')\n"
        "caller = methodcaller('by_caller', 'keyed')\n"
        "table = {'keyed': 1}\n"
    )
    assert sorted(unreferenced_defs(tmp_path)) == [
        "dead",
        "keyed",
        "lazy_only",
        "listed",
        "listed_only",
        "reexported",
        "shadowed",
        "unused",
    ]


def test_new_def_in_a_package_copy_is_caught(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "simulation" / "des.py"
    module.write_text(
        module.read_text(encoding="utf-8")
        + "\n\ndef orphan_helper():\n    pass\n"
        + "\n\ndef exported_helper():\n    pass\n",
        encoding="utf-8",
    )
    init = copy / "simulation" / "__init__.py"
    exports = init.read_text(encoding="utf-8")
    assert '".des": (\n' in exports
    init.write_text(
        exports.replace('".des": (\n', '".des": (\n            "exported_helper",\n'),
        encoding="utf-8",
    )
    dead = unreferenced_defs(copy)
    assert sorted(set(dead) - set(ALLOWLIST)) == ["exported_helper", "orphan_helper"]


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
