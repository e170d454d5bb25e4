"""No new code that only tests and examples reach.

An AST pass over the ``repro`` package collects every function, method
and class whose name no code in the package references: not as a
``Name``, not as an ``Attribute``, not as an import alias and not as a
string in an ``__all__``. Dunder methods are protocol hooks and are
skipped. The pass is by bare name, so a name counts as used once
anything in the package spells it.

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
    "aggregate_windows": PERFBENCH,
    "cache_hits": "perfbench/session.py reads it off a SweepResult",
    "cache_misses": "perfbench/session.py reads it off a SweepResult",
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
    "spawn": "numpy ISeedSequence protocol of _KeyedSeed",
    "submit_inline": "client half of the served inline-run route",
    "surviving": "documented in README",
    "time_to_accuracy": PAPER_SHAPE,
    "to_json": "documented in README",
    "total_energy_kj": "examples/energy_aware_tuning.py prints it",
}


def unreferenced_defs(root):
    """``{name: [path:line, ...]}`` of defs no code under ``root`` names."""
    defs = {}
    referenced = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                where = f"{path.relative_to(root)}:{node.lineno}"
                defs.setdefault(node.name, []).append(where)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    referenced.add(node.asname)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                referenced.update(
                    constant.value
                    for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant)
                    and isinstance(constant.value, str)
                )
    return {
        name: sites
        for name, sites in defs.items()
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
    }


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
        "Box().used()\n"
    )
    assert sorted(unreferenced_defs(tmp_path)) == ["dead", "unused"]


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
