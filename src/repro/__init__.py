"""repro — conflict clause proofs of unsatisfiability.

A full reproduction of E. Goldberg & Y. Novikov, *"Verification of Proofs
of Unsatisfiability for CNF Formulas"* (DATE 2003): a proof-logging CDCL
SAT solver, the conflict-clause proof format, the two BCP-based
verification procedures with unsatisfiable-core extraction, the
resolution-graph baseline, and the verification-domain benchmark
generators the paper evaluates on.

Quickstart::

    from repro import CnfFormula, solve, ConflictClauseProof, verify_proof

    formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    result = solve(formula)                       # status == "UNSAT"
    proof = ConflictClauseProof.from_log(result.log)
    report = verify_proof(formula, proof)         # Proof_verification2
    assert report.ok
    core = report.core                            # unsat core, for free
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("Clause", "CnfFormula", "DimacsParseError",
              "ProofFormatError", "ReproError", "ResolutionError",
              "format_dimacs", "parse_dimacs", "read_dimacs",
              "write_dimacs"),
    ".proofs": ("ConflictClauseProof", "ProofLog", "ProofSizeComparison",
                "ProofStatistics", "ResolutionGraphProof", "analyze_log",
                "compare_proof_sizes", "read_proof", "write_proof"),
    ".solver": ("CdclSolver", "SolveResult", "SolverOptions",
                "dpll_solve", "solve"),
    ".verify": ("ReconstructionResult", "TrimResult", "UnsatCore",
                "VerificationReport", "extract_core",
                "reconstruct_resolution_graph", "trim_proof",
                "validate_core", "verify_proof", "verify_proof_v1",
                "verify_proof_v2"),
})

__version__ = "1.0.0"

__all__ = [
    "Clause",
    "CnfFormula",
    "parse_dimacs",
    "read_dimacs",
    "format_dimacs",
    "write_dimacs",
    "solve",
    "CdclSolver",
    "SolverOptions",
    "SolveResult",
    "dpll_solve",
    "ProofLog",
    "ConflictClauseProof",
    "ResolutionGraphProof",
    "ProofSizeComparison",
    "compare_proof_sizes",
    "read_proof",
    "write_proof",
    "verify_proof",
    "verify_proof_v1",
    "verify_proof_v2",
    "extract_core",
    "validate_core",
    "VerificationReport",
    "UnsatCore",
    "trim_proof",
    "TrimResult",
    "reconstruct_resolution_graph",
    "ReconstructionResult",
    "ProofStatistics",
    "analyze_log",
    "ReproError",
    "DimacsParseError",
    "ResolutionError",
    "ProofFormatError",
    "__version__",
]
