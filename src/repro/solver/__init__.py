"""The proof-logging CDCL SAT solver and its reference DPLL oracle."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cdcl": ("CdclSolver", "SolverOptions", "solve"),
    ".dpll": ("dpll_solve",),
    ".heuristics": ("BerkMinOrder", "VsidsOrder"),
    ".learning": ("Analysis", "FinalAnalysis", "analyze_1uip",
                  "analyze_decision", "analyze_final"),
    ".restarts": ("GeometricRestarts", "LubyRestarts", "NoRestarts",
                  "luby"),
    ".result": ("SAT", "UNKNOWN", "UNSAT", "SolveResult", "SolverStats"),
})

__all__ = [
    "CdclSolver",
    "SolverOptions",
    "solve",
    "dpll_solve",
    "SolveResult",
    "SolverStats",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "VsidsOrder",
    "BerkMinOrder",
    "Analysis",
    "FinalAnalysis",
    "analyze_1uip",
    "analyze_decision",
    "analyze_final",
    "luby",
    "LubyRestarts",
    "GeometricRestarts",
    "NoRestarts",
]
