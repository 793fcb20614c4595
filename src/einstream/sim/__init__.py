"""Streaming simulator.

``engine`` runs a dataflow graph in two passes and states why each is
sound.  ``processes`` holds each node kind's loop and the trace contract
every node function meets; ``arrays`` holds their whole-array twins and
the happy-path rule (``Decline``).  Which kinds have a twin is
``engine._node_functions``.
"""

from .engine import SimConfig, SimReport, run

__all__ = ["SimConfig", "SimReport", "run"]
