"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from repro.core.clause import Clause
from repro.core.formula import CnfFormula

# -- hypothesis strategies ----------------------------------------------------

dimacs_literals = st.integers(min_value=-50, max_value=50).filter(
    lambda lit: lit != 0)

clause_literal_lists = st.lists(dimacs_literals, min_size=0, max_size=8)


@st.composite
def cnf_formulas(draw, max_vars: int = 12, max_clauses: int = 40,
                 min_clauses: int = 1, max_clause_size: int = 4):
    """Random small CNF formulas (satisfiable or not)."""
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    num_clauses = draw(st.integers(min_value=min_clauses,
                                   max_value=max_clauses))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1,
                                max_value=min(max_clause_size, num_vars)))
        variables = draw(st.lists(
            st.integers(min_value=1, max_value=num_vars),
            min_size=size, max_size=size, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables),
                              max_size=len(variables)))
        clauses.append([var if sign else -var
                        for var, sign in zip(variables, signs)])
    return CnfFormula(clauses, num_vars=num_vars)


# -- deterministic random formula helpers (for seeded loops) -------------------

def random_formula(rng: random.Random, num_vars: int,
                   num_clauses: int, max_clause_size: int = 3) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, max_clause_size)
        variables = rng.sample(range(1, num_vars + 1),
                               min(size, num_vars))
        clauses.append([var if rng.random() < 0.5 else -var
                        for var in variables])
    return CnfFormula(clauses, num_vars=num_vars)


def brute_force_sat(formula: CnfFormula) -> bool:
    """Exhaustive satisfiability check (formulas up to ~16 vars)."""
    num_vars = formula.num_vars
    assert num_vars <= 16, "too many variables for brute force"
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {var: bits[var - 1] for var in range(1, num_vars + 1)}
        if formula.is_satisfied_by(assignment):
            return True
    return False


# -- fixtures --------------------------------------------------------------------

@pytest.fixture
def tiny_unsat() -> CnfFormula:
    """The full clause set over 2 variables — minimal nontrivial UNSAT."""
    return CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])


@pytest.fixture
def tiny_sat() -> CnfFormula:
    return CnfFormula([[1, 2], [-1, 2], [1, -2]])


@pytest.fixture
def unit_conflict() -> CnfFormula:
    """UNSAT purely by unit propagation (no search needed)."""
    return CnfFormula([[1], [-1, 2], [-2]])


def clause(*lits: int) -> Clause:
    return Clause(lits)
