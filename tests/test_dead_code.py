"""No new code that only tests and examples reach.

An AST pass over the ``repro`` package collects every function, method
and class that no code in the package references.

A module-level name (a function or class, or a def nested in a
function) is resolved by binding: it counts as used when its own
module reads it as a bare name, or when another module imports it
(``from .mod import f``) or reads it as ``module.f`` on an imported
module or package. Imports through a package ``__init__`` or a
``lazy_exports`` table are followed to the defining module. So a
``x.f()`` call does not hide an uncalled module function ``f``, nor
does a bare ``f`` in a module that never imports it.

A method is matched by name: it counts as used when anything spells it
as an ``Attribute``, or as the string name argument of ``getattr``/
``hasattr``/``setattr``/``delattr``, ``attrgetter`` or
``methodcaller``. So a ``step`` variable does not hide an uncalled
``step`` method, nor does a dict key that spells a method's name.

Exporting is not using: a name listed in an ``__all__`` (a
``lazy_exports`` table included) or imported by a package ``__init__``
to re-export it counts only when some other code names it. Dunder
methods are protocol hooks and are skipped.

The set it finds is pinned to ``ALLOWLIST``, each entry with the reason
it stays. A new unreferenced def fails the test: delete it, or use it,
or add it here with its reason. An entry whose name the package starts
to reference fails too, so the list never keeps stale excuses.

The same holds for the scenario vocabulary: an algorithm or warm start
that no registered run uses fails too. And for settings: a
``PipeTuneConfig`` field, or a defaulted ``GroundTruth`` or
``ProbingController`` keyword, that no code outside ``tests/`` sets
fails: make it a constant, or delete it.
"""

import ast
import dataclasses
import inspect
import shutil
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

PERFBENCH = "perfbench/spans.py wraps or reads it by name"

ALLOWLIST = {
    "PduSampler": "examples/energy_aware_tuning.py meters its run with it",
    "accuracy_at_epoch": PERFBENCH
    + "; the scalar oracle tests/test_noise_block.py holds accuracy_curve to",
    "aggregate_windows": PERFBENCH,
    "cache_hits": "perfbench/session.py reads them",
    "cache_misses": "perfbench/session.py reads them",
    "check": "scripts/regenerate_exhibits.py --check diffs every exhibit with it",
    "clear_cost_caches": "benchmarks/test_micro.py times cold epoch costs with it",
    "energy_joules": "examples/energy_aware_tuning.py reads the PDU estimate",
    "energy_system_objective": "benchmarks/test_ablations.py and the energy example",
    "execute": PERFBENCH
    + "; the stateless one-plan run the multi-tenant example calls",
    "final_counts": PERFBENCH,
    "generate_state": "numpy ISeedSequence protocol of _KeyedSeed",
    "hit_rate": "the quickstart and custom-workload examples print it",
    "paper_system_grid": "benchmarks/test_ablations.py sweeps the paper's grid",
    "philox_construction_count": "the construction bound in test_noise_block.py",
    "read_interval": PERFBENCH,
    "rng": "WorkloadSpec's bound stream, a call shape DET002 lints",
    "scenario_names": "scripts/generate_experiments_md.py lists each source",
    "serve_background": "README, examples/service_client.py and perfbench boot it",
    "spawn": "numpy ISeedSequence protocol of _KeyedSeed",
    "step": "one-event step, the ordering oracle tests/test_des.py holds run() to",
    "submit_inline": "client half of the served inline-run route",
    "surviving": "documented in README",
    "total_energy_kj": "examples/energy_aware_tuning.py prints it",
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


def module_name(root, path):
    """Dotted module name of ``path``; ``root`` is the package itself
    when it holds an ``__init__.py``, else the directory above it."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if (root / "__init__.py").exists():
        parts.insert(0, root.name)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def absolute(module, is_package, level, name):
    """The absolute module a (possibly relative) import names."""
    if not level:
        return name
    base = module.split(".")
    if not is_package:
        base.pop()
    base = base[: len(base) - (level - 1)]
    return ".".join(base + [name] if name else base)


def import_bindings(module, is_package, tree):
    """``{local name: target}`` of every import in ``tree`` (at any
    depth) and of a ``lazy_exports`` table; a target is ``("module",
    name)`` or ``("symbol", module, attribute)``."""
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = ("module", alias.name)
                else:
                    head = alias.name.split(".", 1)[0]
                    bindings[head] = ("module", head)
        elif isinstance(node, ast.ImportFrom):
            source = absolute(module, is_package, node.level, node.module)
            for alias in node.names:
                local = alias.asname or alias.name
                bindings[local] = ("symbol", source, alias.name)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            for key, names in zip(node.args[1].keys, node.args[1].values):
                submodule = key.value.lstrip(".")
                level = len(key.value) - len(submodule)
                source = absolute(module, True, level, submodule)
                for name in ast.literal_eval(names):
                    # a name that is the submodule's own exports the submodule
                    bindings[name] = (
                        ("module", source)
                        if name == submodule
                        else ("symbol", source, name)
                    )
    return bindings


def unreferenced_defs(root):
    """``{name: [path:line, ...]}`` of defs no code under ``root`` names."""
    trees = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        trees[module_name(root, path)] = (path, tree)
    bindings = {
        module: import_bindings(module, path.name == "__init__.py", tree)
        for module, (path, tree) in trees.items()
    }

    def resolve(target, seen=()):
        """Follow a binding to a module or to the defining module's
        ``(module, name)``; re-exports are followed, cycles stop."""
        if target[0] == "module" or target in seen:
            return target
        _, module, name = target
        if f"{module}.{name}" in trees:
            return ("module", f"{module}.{name}")
        onward = bindings.get(module, {}).get(name)
        return resolve(onward, seen + (target,)) if onward else target

    def module_of(expr, module):
        """The module an expression (``views``, ``repro.hpo``) names."""
        if isinstance(expr, ast.Name) and expr.id in bindings[module]:
            target = resolve(bindings[module][expr.id])
        elif isinstance(expr, ast.Attribute):
            outer = module_of(expr.value, module)
            target = outer and resolve(("symbol", outer, expr.attr))
        else:
            return None
        return target[1] if target and target[0] == "module" else None

    defs, used, attributes = [], set(), set()
    for module, (path, tree) in trees.items():
        local = bindings[module]
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
                key = None if id(node) in methods else (module, node.name)
                defs.append((node.name, where, key))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = resolve(local.get(node.id, ("symbol", module, node.id)))
                used.add(target[1:])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                owner = module_of(node.value, module)
                if owner:
                    used.add(resolve(("symbol", owner, node.attr))[1:])
            elif isinstance(node, ast.ImportFrom) and not exports:
                source = absolute(module, False, node.level, node.module)
                for alias in node.names:
                    used.add(resolve(("symbol", source, alias.name))[1:])
            elif isinstance(node, ast.Call):
                attributes.update(named_attributes(node))
    dead = {}
    for name, where, key in defs:
        referenced = name in attributes if key is None else key in used
        if not referenced and not (name.startswith("__") and name.endswith("__")):
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
        "named_elsewhere()\n"
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
        "def hidden(): pass\n"
        "def named_elsewhere(): pass\n"
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
        "Box().hidden()\n"
        "shadowed = getattr(Box(), 'by_string')\n"
        "getter = operator.attrgetter('inner.by_getter')\n"
        "caller = methodcaller('by_caller', 'keyed')\n"
        "table = {'keyed': 1}\n"
    )
    # a module function is found by binding: neither ``Box().hidden()``
    # nor a bare ``named_elsewhere`` in a module that never imports it
    # reaches it
    assert sorted(unreferenced_defs(tmp_path)) == [
        "dead",
        "hidden",
        "keyed",
        "lazy_only",
        "listed",
        "listed_only",
        "named_elsewhere",
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


def test_vocabulary_is_what_the_catalogue_reaches():
    """An algorithm or warm start that no registered tuning scenario or
    sweep variant uses fails: register a run that uses it, or leave it
    out."""
    from repro.scenarios import SCENARIO_REGISTRY, SWEEP_REGISTRY
    from repro.scenarios.spec import ALGORITHM_BUILDERS, WARM_STARTS

    runs = [runner.scenario for runner in SCENARIO_REGISTRY.values()]
    for sweep in SWEEP_REGISTRY.values():
        runs += [variant.scenario for variant in sweep.variants()]
    runs = [run for run in runs if run.kind == "tuning"]
    assert set(ALGORITHM_BUILDERS) == {run.algorithm.name for run in runs}
    # only a PipeTune session is warm-started
    reached = {
        policy.effective_warm_start(run.cluster)
        for run in runs
        for policy in run.systems
        if policy.kind == "pipetune"
    }
    assert set(WARM_STARTS) <= reached


#: the classes whose defaulted constructor keywords are settings.
SETTINGS = (
    ("repro.core.pipetune", "PipeTuneConfig"),
    ("repro.core.groundtruth", "GroundTruth"),
    ("repro.core.probing", "ProbingController"),
)
#: the code, outside tests/, whose settings count as set.
SETTERS = ("src", "scripts", "examples", "benchmarks")
REPO = Path(__file__).resolve().parent.parent


def set_settings(roots, signatures):
    """``{class name: setting names set}`` over every ``.py`` under
    ``roots``. ``signatures`` maps a class name to ``(parameter names in
    order, writable)``. A call of the class sets the keywords it passes
    and the parameters its positional arguments fill; for a writable
    class (a dataclass), an ``x.name = ...`` write outside ``self`` sets
    ``name`` too."""
    found = {name: set() for name in signatures}
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", None) or getattr(func, "attr", None)
                    if callee in signatures:
                        params = signatures[callee][0]
                        found[callee].update(params[: len(node.args)])
                        found[callee].update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    for target in targets:
                        if not isinstance(target, ast.Attribute) or (
                            getattr(target.value, "id", None) == "self"
                        ):
                            continue
                        for name, (params, writable) in signatures.items():
                            if writable and target.attr in params:
                                found[name].add(target.attr)
    return found


def unset_settings(roots, classes):
    """``["Class.name", ...]``: the defaulted keywords of ``classes``
    that no code under ``roots`` sets."""
    signatures, defaulted = {}, {}
    for cls in classes:
        parameters = list(inspect.signature(cls).parameters.values())
        signatures[cls.__name__] = (
            [p.name for p in parameters],
            dataclasses.is_dataclass(cls),
        )
        defaulted[cls.__name__] = [
            p.name for p in parameters if p.default is not p.empty
        ]
    found = set_settings(roots, signatures)
    return [
        f"{name}.{setting}"
        for name, settings in defaulted.items()
        for setting in settings
        if setting not in found[name]
    ]


def _settings_classes():
    from importlib import import_module

    return [getattr(import_module(module), name) for module, name in SETTINGS]


def test_every_setting_is_set_outside_tests():
    unset = unset_settings([REPO / root for root in SETTERS], _settings_classes())
    assert not unset, f"settings only tests set (make constants or delete): {unset}"


def test_settings_pass_sees_each_way_of_setting(tmp_path):
    (tmp_path / "use.py").write_text(
        "config = Config(1, b=2)\n"
        "config.c = 3\n"
        "session.config.d += 4\n"
        "Tool(x=1)\n"
        "tool.y = 2\n"
    )

    @dataclasses.dataclass
    class Config:
        a: int = 0
        b: int = 0
        c: int = 0
        d: int = 0
        only_tests: int = 0

    class Tool:
        def __init__(self, required, x=0, y=0):
            self.y = y

    # a write to a plain class's attribute is not a setting; a required
    # parameter is always set, so it is never reported
    assert unset_settings([tmp_path], [Config, Tool]) == [
        "Config.only_tests",
        "Tool.y",
    ]


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
