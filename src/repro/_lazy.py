"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports its submodules' names eagerly makes every
importer pay for all of them: ``import repro.cli`` for a ``verify``
run would load the solver, the proof-size comparison and the timeline
reconstructor it never calls.  :func:`lazy_exports` instead maps each
exported name to the submodule that defines it and imports that
submodule on the first attribute access (``from pkg import name``,
``pkg.name`` or ``from pkg import *``), caching the value on the
package so later accesses are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, origins: dict[str, tuple[str, ...]]):
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``origins`` maps a submodule name, relative to ``package`` (as in
    ``".cdcl"``), to the names it exports.  Assign the pair to the
    package's module-level ``__getattr__`` and ``__dir__``.
    """
    where = {name: module for module, names in origins.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | where.keys())

    return __getattr__, __dir__
