"""Bounded model checking substrate and the paper's BMC model families."""

from repro.bmc.models import (
    arbiter_instance,
    arbiter_system,
    barrel_instance,
    barrel_system,
    fifo_instance,
    fifo_pair_system,
    longmult_instance,
    longmult_system,
    stack_instance,
    stack_system,
)
from repro.bmc.transition import BAD_NET, NEXT_PREFIX, TransitionSystem
from repro.bmc.unroll import BmcInstance, unroll

__all__ = [
    "TransitionSystem",
    "BmcInstance",
    "unroll",
    "NEXT_PREFIX",
    "BAD_NET",
    "barrel_system",
    "barrel_instance",
    "longmult_system",
    "longmult_instance",
    "fifo_pair_system",
    "fifo_instance",
    "arbiter_system",
    "arbiter_instance",
    "stack_system",
    "stack_instance",
]
