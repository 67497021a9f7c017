"""Whole-machine simulation: the ALEWIFE machine driver, configuration
and statistics."""

from repro.machine.alewife import AlewifeMachine, MachineResult, run_program
from repro.machine.config import MachineConfig
from repro.machine.stats import MachineStats

__all__ = ["AlewifeMachine", "MachineConfig", "MachineResult",
           "MachineStats", "run_program"]
