"""PEP 562 lazy exports for the package ``__init__`` modules.

A package ``__init__`` lists which submodule provides each of its public
names and installs the ``__getattr__`` returned by :func:`lazy_exports`.
A submodule is imported the first time one of its names is looked up, so
importing a package (or any single submodule of it) costs only the
``__init__`` itself: a spawned worker that imports
``repro.parallel.runner`` never loads the analysis stack.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> Callable[[str], Any]:
    """Return the module-level ``__getattr__`` for ``package``.

    ``exports`` maps a relative submodule name (``".comm"``) to the public
    names it provides.  A resolved name is stored in the package namespace,
    so later lookups bypass ``__getattr__``.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__
