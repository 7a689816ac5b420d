"""Security evaluation for ML components in 5G network infrastructures.

The package models an attacker who controls only her own equipment, knows a
subset of the feature set, cannot observe model outputs, and perturbs recorded
raw data under physical constraints. Around that threat model it provides a
constrained perturbation engine, a packet-to-flow pipeline, self-contained
learners, attack and defense harnesses, six case-study drivers, and a CLI that
turns configs into deterministic reports.
"""

__version__ = "0.1.0"
