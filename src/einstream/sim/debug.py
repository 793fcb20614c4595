"""Drive a single node process directly from token lists (no engine).

Useful for unit-testing node semantics and for the self-test command:
feeds scripted input streams, collects everything the process emits and
what it accounted on its context.
"""

from __future__ import annotations

from .processes import NodeContext


def drive(proc, inputs: dict[str, list], *args) -> dict:
    """Run ``proc(ctx, *args)`` to completion on scripted inputs.

    inputs maps port name -> list of tokens (consumed left to right).
    Returns port name -> list of emitted tokens, plus the context's final
    ``clock``, ``flops`` (None if the node accounted none), ``bytes_read``
    and, for writers, ``recorded``.  Raises if the process asks for a token
    that is not scripted.  Tokens have no arrival time here, so the clock
    counts only the node's own work and latency.
    """
    ctx = NodeContext()
    gen = proc(ctx, *args)
    cursors = {port: 0 for port in inputs}
    out: dict = {}
    resume = None
    while True:
        try:
            eff = gen.send(resume)
        except StopIteration:
            break
        resume = None
        if eff[0] == "recv":
            port = eff[1]
            i = cursors.get(port, 0)
            if port not in inputs or i >= len(inputs[port]):
                raise AssertionError(f"process exhausted scripted input {port!r}")
            resume = inputs[port][i]
            cursors[port] = i + 1
        else:
            out.setdefault(eff[1], []).append(eff[2])
    if ctx.records:
        out["recorded"] = ctx.records
    out.update(clock=ctx.clock, flops=ctx.flops, bytes_read=ctx.bytes_read)
    return out
