"""Bounded FIFO channels with virtual-time backpressure.

Each token carries the time it becomes visible to the reader: the sender's
clock, or later if every buffer slot was still occupied.  A slot frees when
the reader picks its token up, so the n-th send cannot land before the
(n - depth)-th pickup — that is the whole backpressure model, and it makes
reported timing independent of scheduling interleave.
"""

from __future__ import annotations

from collections import deque

from ..errors import MalformedStream
from ..graph import DONE


class Channel:
    __slots__ = (
        "depth", "queue", "sent", "popped", "freed", "closed", "label", "writer", "reader"
    )

    def __init__(self, depth: int, label: str = "", writer=None, reader=None):
        self.depth = depth
        self.queue: deque = deque()  # (token, ready_time)
        self.sent = 0
        self.popped = 0
        # ring of the last ``depth`` pickup times: pickup n sits at n % depth;
        # the zeros stand in for pickups before the first, so the first
        # ``depth`` sends are never held back
        self.freed = [0] * depth
        self.closed = False
        self.label = label
        self.writer = writer  # the engine's node at each end
        self.reader = reader

    def push(self, token, clock: int):
        """Append a token; the caller has checked the channel is not full,
        so pickup ``sent - depth`` is still in the ring."""
        if self.closed:
            raise MalformedStream(f"token after Done on {self.label}")
        slot_free = self.freed[self.sent % self.depth]
        self.queue.append((token, clock if clock >= slot_free else slot_free))
        self.sent += 1
        if token is DONE:
            self.closed = True

    def pop(self, reader_clock: int):
        token, ready = self.queue.popleft()
        pickup = reader_clock if reader_clock >= ready else ready
        self.freed[self.popped % self.depth] = pickup
        self.popped += 1
        return token, pickup
