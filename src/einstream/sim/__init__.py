"""Streaming simulator: node functions and a two-pass engine.

``run`` simulates a dataflow graph on channels of a fixed depth.  Pass 1
(``processes``) calls each node's function once, in topological order, on
whole token streams: that is the run with unbounded channels, and by
Kahn's determinacy it gives every token, clock and counter of a run at
any depth that completes.  Pass 2 (``engine``) replays the recorded
effect traces on channels of the configured depth, counting tokens only,
under the ready-queue scheduler; it alone decides whether the run
completes, deadlocks, or which error it raises first.  A new node kind
meets the trace contract in ``processes``.
"""

from .engine import SimConfig, SimReport, run

__all__ = ["SimConfig", "SimReport", "run"]
