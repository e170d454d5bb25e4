"""Lazy package exports (PEP 562): a public name loads on first use.

A package ``__init__`` declares which submodule defines each name it
exports and gets a module ``__getattr__`` and ``__dir__`` in return.
Importing the package, or a light submodule of it, then loads nothing
else: ``repro client`` and the daemon's start-up never import the
simulator or numpy. The first read of a name imports its submodule
and binds the value in the package, so later reads are plain
attribute hits.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, List, Sequence


def lazy_exports(namespace: Dict, sources: Dict[str, Sequence[str]]) -> List[str]:
    """Give the package whose globals are ``namespace`` lazy exports.

    ``sources`` maps a relative submodule (``".registry"``) to the
    names the package exports from it; a name that is the submodule's
    own name exports the submodule. Returns every name in declaration
    order, for ``__all__``.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(origin[name], package)
        value = module if origin[name] == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(origin)
