"""Symbolic transition systems for bounded model checking.

A :class:`TransitionSystem` wraps a combinational *step circuit* whose
inputs are the current state bits plus the primary inputs of one cycle,
and whose outputs are the next-state bits (nets named ``next_<state>``)
plus a ``bad`` net flagging a property violation in that cycle.

The paper's BMC benchmark families (barrel, longmult, the SAT-2002 w/fifo
instances [18, 20]) are unrollings of exactly such systems: the formulas
are unsatisfiable because the property holds within the bound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuits.netlist import Circuit
from repro.core.exceptions import ModelError

NEXT_PREFIX = "next_"
BAD_NET = "bad"


class TransitionSystem:
    """A finite state machine given by a combinational step circuit."""

    def __init__(self, name: str, step: Circuit,
                 state_vars: Sequence[str],
                 input_vars: Sequence[str] = (),
                 init: Mapping[str, bool] | None = None,
                 init_circuit: Circuit | None = None):
        self.name = name
        self.step = step
        self.state_vars = list(state_vars)
        self.input_vars = list(input_vars)
        # Partial initial state: unconstrained state bits start free.
        self.init = dict(init or {})
        # Optional symbolic initial-state predicate I(s0): a circuit over
        # (a subset of) the state vars with a single output that must be
        # true in frame 0.  This is how families with a *set* of initial
        # states (e.g. "the token starts at some position") are modeled.
        self.init_circuit = init_circuit
        self._validate()

    def _validate(self) -> None:
        expected_inputs = set(self.state_vars) | set(self.input_vars)
        actual_inputs = set(self.step.inputs)
        if expected_inputs != actual_inputs:
            raise ModelError(
                f"step circuit inputs {sorted(actual_inputs)} do not match "
                f"state+input vars {sorted(expected_inputs)}")
        outputs = set(self.step.outputs)
        for var in self.state_vars:
            if NEXT_PREFIX + var not in outputs:
                raise ModelError(f"step circuit lacks output "
                                 f"{NEXT_PREFIX + var!r}")
        if BAD_NET not in outputs:
            raise ModelError(f"step circuit lacks the {BAD_NET!r} output")
        for var in self.init:
            if var not in self.state_vars:
                raise ModelError(f"init constrains unknown state var "
                                 f"{var!r}")
        if self.init_circuit is not None:
            unknown = set(self.init_circuit.inputs) - set(self.state_vars)
            if unknown:
                raise ModelError(
                    f"init circuit reads non-state nets {sorted(unknown)}")
            if len(self.init_circuit.outputs) != 1:
                raise ModelError("init circuit must have exactly one "
                                 "output (the 'initial state ok' flag)")

    @property
    def num_state_bits(self) -> int:
        return len(self.state_vars)

    def run(self, initial: Mapping[str, bool],
            inputs_per_cycle: Sequence[Mapping[str, bool]],
            ) -> tuple[list[dict[str, bool]], list[bool]]:
        """Concrete simulation: returns the state trace and bad flags.

        ``initial`` must assign every state bit (free bits in ``init``
        must be chosen by the caller); consistency with ``init`` is
        enforced.
        """
        state = {var: bool(initial[var]) for var in self.state_vars}
        for var, value in self.init.items():
            if state[var] != value:
                raise ModelError(
                    f"initial value of {var!r} contradicts init")
        if self.init_circuit is not None:
            ok_net = self.init_circuit.outputs[0]
            if not self.init_circuit.simulate(state)[ok_net]:
                raise ModelError("initial state violates the init circuit")
        trace = [dict(state)]
        bad_flags = []
        for cycle, inputs in enumerate(inputs_per_cycle):
            assignment = dict(state)
            for var in self.input_vars:
                if var not in inputs:
                    raise ModelError(
                        f"cycle {cycle}: missing input {var!r}")
                assignment[var] = bool(inputs[var])
            values = self.step.simulate(assignment)
            bad_flags.append(values[BAD_NET])
            state = {var: values[NEXT_PREFIX + var]
                     for var in self.state_vars}
            trace.append(dict(state))
        return trace, bad_flags
