"""Tests for benchmark generators and the instance registry."""

import hashlib

import pytest

from repro.benchgen.php import pigeonhole
from repro.benchgen.random_unsat import random_ksat, random_unsat
from repro.benchgen.registry import (
    INSTANCES,
    TABLE1_INSTANCES,
    TABLE2_INSTANCES,
    TABLE3_INSTANCES,
    build_instance,
    instance_names,
)
from repro.benchgen.xor_chains import parity_contradiction
from repro.core.dimacs import format_dimacs
from repro.core.exceptions import ModelError
from repro.solver.cdcl import solve
from repro.solver.dpll import dpll_solve


class TestPigeonhole:
    def test_counts(self):
        formula = pigeonhole(3)
        assert formula.num_vars == 12
        # 4 pigeon clauses + 3 holes * C(4,2) pair clauses.
        assert formula.num_clauses == 4 + 3 * 6

    @pytest.mark.parametrize("holes", [1, 2, 3, 4])
    def test_unsat(self, holes):
        assert solve(pigeonhole(holes)).is_unsat

    def test_validation(self):
        with pytest.raises(ModelError):
            pigeonhole(0)

    def test_dropping_a_pigeon_makes_it_sat(self):
        formula = pigeonhole(3)
        from repro.core.formula import CnfFormula
        weakened = CnfFormula(list(formula)[1:],
                              num_vars=formula.num_vars)
        assert solve(weakened).is_sat


class TestParityContradiction:
    @pytest.mark.parametrize("width", [2, 3, 8, 15])
    def test_unsat(self, width):
        assert solve(parity_contradiction(width)).is_unsat

    def test_validation(self):
        with pytest.raises(ModelError):
            parity_contradiction(1)

    def test_relaxed_is_sat(self):
        """Dropping one of the two final units leaves it satisfiable."""
        formula = parity_contradiction(5)
        from repro.core.formula import CnfFormula
        relaxed = CnfFormula(list(formula)[:-1],
                             num_vars=formula.num_vars)
        assert solve(relaxed).is_sat


class TestRandom:
    def test_ksat_shape(self):
        formula = random_ksat(10, 30, k=3, seed=1)
        assert formula.num_clauses == 30
        assert all(len(c) == 3 for c in formula)
        assert formula.num_vars == 10

    def test_ksat_deterministic(self):
        a = random_ksat(10, 30, seed=5)
        b = random_ksat(10, 30, seed=5)
        assert [c.literals for c in a] == [c.literals for c in b]

    def test_k_bounds_checked(self):
        with pytest.raises(ModelError):
            random_ksat(2, 5, k=3)

    def test_random_unsat_certified(self):
        formula = random_unsat(num_vars=12, ratio=6.0, seed=3)
        assert dpll_solve(formula).is_unsat


class TestRegistry:
    def test_table_lists_are_registered(self):
        for name in (TABLE1_INSTANCES + TABLE2_INSTANCES
                     + TABLE3_INSTANCES):
            assert name in INSTANCES

    def test_unknown_instance(self):
        with pytest.raises(KeyError, match="unknown instance"):
            build_instance("frobnicator")

    def test_family_filter(self):
        assert set(instance_names("fifo")) == {"fifo8_6", "fifo8_8",
                                               "fifo8_10"}
        assert len(instance_names()) == len(INSTANCES)

    def test_specs_have_descriptions(self):
        for spec in INSTANCES.values():
            assert spec.description
            assert spec.family
            assert spec.paper_analog

    @pytest.mark.parametrize("name", ["eq_alu4", "barrel5", "stack8_8",
                                      "w6_10", "php6", "parity24",
                                      "eq_rot8"])
    def test_fast_instances_unsat(self, name):
        """Every instance must be UNSAT; checked here for the fast ones
        (the full set is exercised by the benchmark harness)."""
        formula = build_instance(name)
        result = solve(formula)
        assert result.is_unsat, name

    def test_builders_are_deterministic(self):
        a = build_instance("eq_add8")
        b = build_instance("eq_add8")
        assert [c.literals for c in a] == [c.literals for c in b]


# (num_vars, num_clauses, first 16 hex digits of the sha256 of the DIMACS
# text) of every registry instance. The paper tables and the e2e workloads
# read these formulas, so a builder change must show up here.
INSTANCE_PINS = {
    "pipe_2": (308, 1055, "5ae0a725555a528e"),
    "pipe_3": (306, 1047, "8163438a8904d28a"),
    "pipe_4": (395, 1363, "f93154a605e684e6"),
    "pipe_5": (490, 1703, "5d8de552a95dad64"),
    "vliw": (294, 999, "9747365bfa8f50f8"),
    "dlx_2": (211, 686, "462c15f04b4df499"),
    "dlx_3": (296, 973, "4d24db104ecdb70f"),
    "stack8_8": (646, 2455, "dbcec4e8cf3d3a96"),
    "stack8_12": (962, 3675, "48b29804a70e9905"),
    "stack12_10": (968, 3789, "2bc33e0d11646081"),
    "stack16_10": (1193, 4934, "6727dbcee84ba186"),
    "barrel5": (235, 822, "6347868d8cfd95fd"),
    "barrel6": (336, 1217, "3b548e2350703551"),
    "barrel7": (463, 1718, "f0fe104bc0c9a757"),
    "longmult_4": (665, 2136, "9d723ebea671ff02"),
    "longmult_6": (665, 2136, "9ac1db2b296db0b7"),
    "longmult_8": (665, 2136, "a2d9efe4f336b6e6"),
    "longmult_10": (665, 2136, "39f4d4f9c8080ba1"),
    "eq_alu4": (130, 427, "498f18f1d44622aa"),
    "eq_add8": (158, 496, "cf58194a65356907"),
    "eq_mult4": (242, 793, "aed2f90bb74bc1d3"),
    "w6_10": (554, 1893, "f4ef65f3af259225"),
    "w6_14": (766, 2621, "be8d81d5d1e827b3"),
    "w8_14": (1229, 4383, "d5028d2653f5b09c"),
    "fifo8_6": (925, 3340, "38132e74fed1ad22"),
    "fifo8_8": (1223, 4448, "b594ad6f84c1e193"),
    "fifo8_10": (1521, 5556, "dd0b460617e3dc59"),
    "php6": (42, 133, "025c015d04a706c3"),
    "parity24": (70, 186, "5a54df3a4c9011fb"),
    "eq_rot8": (124, 434, "8ba932ed411ea987"),
}


class TestInstancePins:
    def test_every_instance_is_pinned(self):
        assert list(INSTANCE_PINS) == list(INSTANCES)

    @pytest.mark.parametrize("name", list(INSTANCE_PINS))
    def test_instance_content(self, name):
        formula = build_instance(name)
        digest = hashlib.sha256(
            format_dimacs(formula).encode()).hexdigest()[:16]
        assert (formula.num_vars, formula.num_clauses, digest) \
            == INSTANCE_PINS[name]
