"""Gate-level circuit substrate: netlists, Tseitin encoding, miters."""

from repro.circuits.gates import Gate, evaluate_gate
from repro.circuits.library import (
    alu,
    barrel_rotator,
    carry_select_adder,
    decoded_rotator,
    equality_and_of_xnor,
    equality_nor_of_xor,
    mux_tree_selector,
    onehot_selector,
    parity_chain,
    parity_tree,
    ripple_carry_adder,
    shift_add_multiplier,
    wallace_multiplier,
)
from repro.circuits.miter import (
    build_miter,
    check_equivalence,
    copy_into,
    equivalence_formula,
)
from repro.circuits.netlist import Circuit, bus
from repro.circuits.tseitin import TseitinEncoder, encode_circuit

__all__ = [
    "Circuit",
    "Gate",
    "bus",
    "evaluate_gate",
    "TseitinEncoder",
    "encode_circuit",
    "build_miter",
    "copy_into",
    "equivalence_formula",
    "check_equivalence",
    "ripple_carry_adder",
    "carry_select_adder",
    "shift_add_multiplier",
    "wallace_multiplier",
    "barrel_rotator",
    "decoded_rotator",
    "parity_chain",
    "parity_tree",
    "equality_and_of_xnor",
    "equality_nor_of_xor",
    "alu",
    "mux_tree_selector",
    "onehot_selector",
]
