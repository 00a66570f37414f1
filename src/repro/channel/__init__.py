"""Adversarial transport faults and differential parse oracles.

``repro.channel`` owns the seam between the engine and the simulated
server (:mod:`repro.channel.faults`) and the finding class that seam
makes observable (:mod:`repro.channel.oracle`).
"""

from repro.channel.faults import (
    FAULT_KINDS,
    FaultingChannel,
)
from repro.channel.oracle import (
    DifferentialOracle,
    DivergenceReport,
    make_oracle,
)

__all__ = [
    "FAULT_KINDS",
    "FaultingChannel",
    "DifferentialOracle",
    "DivergenceReport",
    "make_oracle",
]
