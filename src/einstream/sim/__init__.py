"""Streaming simulator: node functions and a two-pass engine.

``run`` simulates a dataflow graph on channels of a fixed depth.  Pass 1
(``processes``) calls each node's function once, in topological order, on
whole token streams: that is the run with unbounded channels, and by
Kahn's determinacy it gives every token, clock and counter of a run at
any depth that completes.  Pass 2 (``engine``) decides the outcome at
the configured depth.  When no node raised and the graph is large enough
to pay for numpy, a check over the recorded effect traces can prove that
the run completes.  Otherwise a replay of the traces under the
ready-queue scheduler, counting tokens only, decides whether the run
completes, deadlocks, or which error it raises first; only the replay
raises.  A new node kind meets the trace contract in ``processes``.

Pass 1 runs one of two sets of node functions with byte-equal traces:
the whole-array functions of ``arrays`` whenever every node has one, the
loops of ``processes``, one Python step per token, otherwise.  The array
functions cover the happy path only: wherever a node would raise or its
input leaves that path, one declines, and the whole run goes through the
loops instead.  Pass 2 therefore sees the same traces, and reports the
same outcome, message, counters and outputs, either way.
"""

from .engine import SimConfig, SimReport, run

__all__ = ["SimConfig", "SimReport", "run"]
