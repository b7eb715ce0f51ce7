"""Boolean Constraint Propagation engines.

Two interchangeable implementations of the paper's only algorithmic
prerequisite (Section 2):

* :class:`WatchedPropagator` — two-watched-literal scheme (the one the
  paper's verifier uses, Section 6);
* :class:`CountingPropagator` — classic counter-based scheme, used as a
  differential-testing oracle and ablation baseline.

The CLI and the verification drivers select engines by name through
:data:`ENGINES` / :func:`resolve_engine`.
"""

from repro.bcp.counting import CountingPropagator
from repro.bcp.engine import (
    FALSE,
    NO_CEILING,
    TRUE,
    UNDEF,
    PropagationCounters,
    PropagatorBase,
)
from repro.bcp.watched import WatchedPropagator

#: Name -> engine class, the single registry the CLI's ``--engine``
#: choices and the drivers' string resolution share.
ENGINES: dict[str, type[PropagatorBase]] = {
    "watched": WatchedPropagator,
    "counting": CountingPropagator,
}


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
    """The registry name of an engine class (class name if unregistered)."""
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
