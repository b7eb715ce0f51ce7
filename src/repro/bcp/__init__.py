"""Boolean Constraint Propagation engines.

Two interchangeable implementations of the paper's only algorithmic
prerequisite (Section 2):

* :class:`WatchedPropagator` — two-watched-literal scheme (the one the
  paper's verifier uses, Section 6);
* :class:`CountingPropagator` — classic counter-based scheme, used as a
  differential-testing oracle and ablation baseline.

The CLI and the verification drivers select engines by name through
:data:`ENGINES` / :func:`resolve_engine`.  The counting engine's module
loads on first use, so a default ``repro verify`` never imports it.
"""

import sys
from collections.abc import Iterator, Mapping

from repro._lazy import lazy_exports
from repro.bcp.engine import (
    FALSE,
    NO_CEILING,
    TRUE,
    UNDEF,
    PropagationCounters,
    PropagatorBase,
)
from repro.bcp.watched import WatchedPropagator

__getattr__, __dir__ = lazy_exports(__name__, {
    ".counting": ("CountingPropagator",),
})


class _EngineRegistry(Mapping):
    """Name -> engine class.  Its names are known without importing
    any engine; a class is looked up on this package when asked for,
    which imports the counting engine on its first lookup."""

    _classes = {"watched": "WatchedPropagator",
                "counting": "CountingPropagator"}

    def __getitem__(self, name: str) -> type[PropagatorBase]:
        return getattr(sys.modules[__name__], self._classes[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


#: Name -> engine class, the single registry the CLI's ``--engine``
#: choices and the drivers' string resolution share.
ENGINES: Mapping[str, type[PropagatorBase]] = _EngineRegistry()


def resolve_engine(engine) -> type[PropagatorBase]:
    """An engine class from a registry name, a class, or ``None``
    (the default watched engine)."""
    if engine is None:
        return WatchedPropagator
    if isinstance(engine, str):
        try:
            return ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown BCP engine {engine!r}; expected one of "
                f"{tuple(ENGINES)}") from None
    if isinstance(engine, type) and issubclass(engine, PropagatorBase):
        return engine
    raise ValueError(f"engine must be a name, a PropagatorBase "
                     f"subclass, or None; got {engine!r}")


def engine_name(engine_cls: type[PropagatorBase]) -> str:
    """The registry name of an engine class (class name if unregistered).

    Scans in registry order, so naming the watched engine imports no
    other engine."""
    for name, cls in ENGINES.items():
        if cls is engine_cls:
            return name
    return engine_cls.__name__


__all__ = [
    "PropagatorBase",
    "WatchedPropagator",
    "CountingPropagator",
    "PropagationCounters",
    "ENGINES",
    "resolve_engine",
    "engine_name",
    "TRUE",
    "FALSE",
    "UNDEF",
    "NO_CEILING",
]
