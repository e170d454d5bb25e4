"""The analysis engine: module index, import resolution, rule runner.

The engine builds an AST model of the source tree once (a
:class:`ModuleIndex` of :class:`SourceModule`), hands it to each rule,
and folds pragma suppression plus pragma hygiene over the raw findings.
Rules never re-read files or re-resolve imports — everything a rule
needs to decide "is this name ``numpy.random.default_rng``?" is
precomputed on the module.

Nothing here imports the code under analysis; the model is purely
syntactic, which is what lets the linter certify determinism properties
without executing a single draw.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .pragmas import PRAGMA_RULE, PragmaSheet
from .report import Finding, LintResult, sort_findings


class UnknownRule(ValueError):
    """Raised when a requested rule id does not exist."""

    def __init__(self, rule_id: str, known: Sequence[str]):
        self.rule_id = rule_id
        self.known = tuple(known)
        super().__init__(
            f"unknown rule {rule_id!r}; known rules: {', '.join(self.known)}"
        )

    def __reduce__(self):
        return type(self), (self.rule_id, self.known)


class SourceModule:
    """One parsed module: AST, dotted name, import map, pragma sheet."""

    def __init__(self, *, path: str, name: str, source: str, tree: ast.Module):
        self.path = path
        self.name = name
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.pragmas = PragmaSheet.from_source(source, path)
        self.imports = _import_origins(tree, module_name=name)

    @classmethod
    def from_file(cls, path: Path, name: str) -> "SourceModule":
        source = path.read_text(encoding="utf-8")
        return cls.from_source(source, name=name, path=str(path))

    @classmethod
    def from_source(
        cls, source: str, *, name: str, path: str = "<memory>"
    ) -> "SourceModule":
        tree = ast.parse(source, filename=path)
        return cls(path=path, name=name, source=source, tree=tree)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, via the import map.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as numpy;
        a local variable that merely shadows a module name resolves to
        None, so rules keyed on origins do not false-positive on it.
        """

        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


@lru_cache(maxsize=128)
def tree_nodes(tree: ast.AST) -> Tuple[ast.AST, ...]:
    """Every node of ``tree``, in :func:`ast.walk` order.

    The import map and every rule scan whole module trees; remembering
    the walk (by tree identity, for more trees than ``src/`` has
    modules) walks each module once per lint run, not once per scan.
    """

    return tuple(ast.walk(tree))


def _import_origins(tree: ast.Module, *, module_name: str) -> Dict[str, str]:
    """Map local binding -> dotted origin for every import in ``tree``."""

    origins: Dict[str, str] = {}
    package_parts = module_name.split(".")[:-1]
    for node in tree_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    origins[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds `a`; attribute chains then
                    # rebuild the full dotted path naturally.
                    origins[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(base_parts)
            else:
                base = ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                origins[bound] = f"{base}.{alias.name}" if base else alias.name
    return origins


def in_packages(module_name: str, packages: Sequence[str]) -> bool:
    """True when ``module_name`` lives in (or under) one of ``packages``."""

    return any(
        module_name == package or module_name.startswith(package + ".")
        for package in packages
    )


def module_name_for(path: Path) -> str:
    """Dotted module name for a source file.

    Anchored on the last ``repro`` path component (the package root in
    the ``src/`` layout); files outside the package fall back to their
    stem so ad-hoc ``--paths`` fixtures still lint.
    """

    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    return path.stem


class ModuleIndex:
    """All modules under analysis, iterable and addressable by name."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.modules = sorted(modules, key=lambda module: module.path)
        self.by_name: Dict[str, SourceModule] = {
            module.name: module for module in self.modules
        }

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "ModuleIndex":
        files: List[Path] = []
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        modules = [
            SourceModule.from_file(file, name=module_name_for(file))
            for file in files
        ]
        return cls(modules)

    @classmethod
    def default(cls) -> "ModuleIndex":
        """Index the installed ``repro`` package (the `src/` tree)."""

        package_dir = Path(__file__).resolve().parent.parent
        return cls.from_paths([package_dir])


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`check`, yielding raw findings; suppression is the engine's
    job, so rules stay pure functions of the module model.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, module: SourceModule, index: ModuleIndex) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def run_rules(
    index: ModuleIndex,
    rules: Sequence[Rule],
    *,
    all_rule_ids: Sequence[str],
    check_unused_pragmas: bool = True,
) -> LintResult:
    """Run ``rules`` over ``index`` with pragma suppression + hygiene.

    ``all_rule_ids`` is the full rule universe (selected or not): a
    pragma naming an id outside it is a typo and gets PRAGMA001.  The
    unused-pragma check only makes sense when every rule ran — a pragma
    for an unselected rule is not stale — so callers running a subset
    pass ``check_unused_pragmas=False``.
    """

    findings: List[Finding] = []
    suppressed = 0
    known = set(all_rule_ids)
    for module in index:
        findings.extend(module.pragmas.malformed)
        for pragma in module.pragmas.pragmas:
            for rule_id in pragma.rules:
                if rule_id not in known:
                    findings.append(
                        Finding(
                            rule=PRAGMA_RULE,
                            path=module.path,
                            line=pragma.line,
                            col=0,
                            message=f"pragma names unknown rule {rule_id!r}",
                        )
                    )
        for rule in rules:
            for finding in rule.check(module, index):
                pragma = module.pragmas.suppressing(finding.line, rule.id)
                if pragma is not None:
                    pragma.used = True
                    suppressed += 1
                else:
                    findings.append(finding)
        if check_unused_pragmas:
            for pragma in module.pragmas.unused():
                findings.append(
                    Finding(
                        rule=PRAGMA_RULE,
                        path=module.path,
                        line=pragma.line,
                        col=0,
                        message=(
                            "unused pragma: no finding of "
                            f"{'/'.join(pragma.rules)} on line {pragma.target} "
                            "— remove it or restore the rationale"
                        ),
                    )
                )
    return LintResult(
        findings=tuple(sort_findings(findings)),
        files=len(index),
        rules=tuple(rule.id for rule in rules),
        suppressed=suppressed,
    )
