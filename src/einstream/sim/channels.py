"""Bounded FIFO channels between node processes.

A channel is a plain record; the engine moves tokens through it.  Each
queued token carries the sender's clock at the send, and the reader's
clock becomes at least that time when it picks the token up.

``depth`` bounds the buffer: a send into a full channel blocks the sender
until the reader makes room.  So depth decides whether a run deadlocks,
and never a clock (see ``engine`` for why).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(slots=True, eq=False)  # eq=False: the engine tests membership by identity
class Channel:
    depth: int
    label: str
    writer: object  # the engine's node at each end
    reader: object
    queue: deque = field(default_factory=deque)  # (token, sender clock)
    closed: bool = False  # Done was sent
