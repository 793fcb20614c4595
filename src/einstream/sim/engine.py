"""Ready-queue scheduler with cycle/FLOP/byte accounting.

Nodes run as generators over bounded channels (Kahn-style).  A node runs
until it blocks: on a recv from an empty channel, or a send into a full
one.  A push wakes the reader blocked on that channel and a pop wakes a
writer backpressured on it; ``Deadlock`` means the ready queue is empty
while nodes are unfinished.

The order in which ready nodes run changes no clock, counter or output.
Each node's process is deterministic in the tokens it reads, and every
token carries the sender's clock at the send; the reader's clock becomes
the larger of its own and that time.  So each clock, and every counter,
is a function of the graph and its inputs alone (Kahn 1974); the schedule
only decides when the host computes it.

Channel depth never moves a clock either.  Holding send n back until
pickup n - depth would only raise the token's time to a pickup made
earlier by the same reader, and a reader's clock never decreases, so the
reader's clock at pickup n is already at least that late.

Per-node local clocks advance one cycle per processed element plus memory
latency per fiber fetch; the dataflow cycle count is the largest final
clock.  With a finite bandwidth the report takes the rooflined maximum of
dataflow cycles and total traffic divided by bandwidth.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import Deadlock, GraphError, MalformedStream, RepeatUnderflow
from ..graph import DONE, DataflowGraph, Stop
from ..tensors import (
    BLOCKED,
    ELEMENT_BYTES,
    INDEX_BYTES,
    LevelSpec,
    SparseTensor,
    _from_arrays,
)
from .channels import Channel
from .processes import NodeContext, build_process


@dataclass
class SimConfig:
    channel_depth: int = 4
    mem_latency: int = 4
    bandwidth: float = 0.0  # bytes per cycle; 0 means unlimited


@dataclass
class SimReport:
    cycles: int
    dataflow_cycles: int
    memory_cycles: int
    flops: int
    bytes_read: int
    bytes_written: int
    outputs: dict = field(default_factory=dict)
    node_flops: dict = field(default_factory=dict)
    node_cycles: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def counters(self) -> dict:
        return {
            "cycles": self.cycles,
            "dataflowCycles": self.dataflow_cycles,
            "memoryCycles": self.memory_cycles,
            "flops": self.flops,
            "bytesRead": self.bytes_read,
            "bytesWritten": self.bytes_written,
            "totalBytes": self.total_bytes,
        }


class _Node(NodeContext):
    """A node's context plus what the scheduler tracks about it."""

    __slots__ = (
        "nid", "gen", "ins", "outs", "recv_on", "send_on", "send_tok", "queued", "finished"
    )

    def __init__(self, nid: str):
        super().__init__()
        self.nid = nid
        self.gen = None
        self.ins: dict[str, Channel] = {}
        self.outs: dict[str, list[Channel]] = {}  # absent port: sends dropped
        self.recv_on: Channel | None = None  # empty channel it waits on
        self.send_on: list[Channel] | None = None  # full channels owed send_tok
        self.send_tok = None
        self.queued = True
        self.finished = False


def _step(st: _Node, ready) -> None:
    """Run one node until it blocks or finishes.  A recv with a token
    waiting and a send with room are served inline; a send the node still
    owes from its last block goes first."""
    st.queued = False
    gen, ins, outs = st.gen, st.ins, st.outs
    ch, st.recv_on = st.recv_on, None  # the recv this node is waiting on
    chans, tok = st.send_on, st.send_tok  # or the channels it owes tok
    st.send_on = st.send_tok = None
    while True:
        resume = None
        if chans is not None:
            full = None
            for c in chans:
                q = c.queue
                if len(q) >= c.depth:
                    if full is None:
                        full = []
                    full.append(c)
                    continue
                if c.closed:
                    raise MalformedStream(f"token after Done on {c.label}")
                q.append((tok, st.clock))
                if tok is DONE:
                    c.closed = True
                r = c.reader
                if r.recv_on is c and not r.queued:
                    r.queued = True
                    ready.append(r)
            if full is not None:
                st.send_on, st.send_tok = full, tok
                return
        elif ch is not None:
            q = ch.queue
            if not q:
                st.recv_on = ch
                return
            resume, t = q.popleft()
            if t > st.clock:
                st.clock = t
            w = ch.writer
            if w.send_on is not None and not w.queued and ch in w.send_on:
                w.queued = True
                ready.append(w)
        try:
            eff = gen.send(resume)
        except StopIteration:
            st.finished = True
            return
        except (MalformedStream, RepeatUnderflow) as err:
            raise type(err)(f"{st.nid}: {err}") from None
        if eff[0] == "recv":
            chans, ch = None, ins.get(eff[1])
            if ch is None:
                raise GraphError(f"{st.nid}:{eff[1]} reads an unconnected port")
        else:  # a port with no channel drops the send
            ch, chans, tok = None, outs.get(eff[1]), eff[2]


def _deadlock(nodes) -> Deadlock:
    blocked = []
    for st in nodes:
        if st.recv_on is not None:
            blocked.append(f"{st.nid} awaiting {st.recv_on.label}")
        elif st.send_on is not None:
            labels = ", ".join(ch.label for ch in st.send_on)
            blocked.append(f"{st.nid} backpressured on {labels}")
    return Deadlock("no runnable node; " + "; ".join(blocked))


def run(graph: DataflowGraph, tensors: dict, config: SimConfig | None = None) -> SimReport:
    config = config or SimConfig()
    nodes = {nid: _Node(nid) for nid in graph.validate()}
    for e in graph.edges:
        src, dst = nodes[e.src], nodes[e.dst]
        label = f"{e.src}:{e.src_port}->{e.dst}:{e.dst_port}"
        ch = Channel(config.channel_depth, label, writer=src, reader=dst)
        dst.ins[e.dst_port] = ch
        src.outs.setdefault(e.src_port, []).append(ch)
    for nid, st in nodes.items():
        st.gen = build_process(graph.nodes[nid], st, tensors, config.mem_latency)

    ready = deque(nodes.values())
    try:
        while ready:
            _step(ready.popleft(), ready)
        stuck = [st for st in nodes.values() if not st.finished]
        if stuck:
            raise _deadlock(stuck)
    finally:
        # free by refcount: channels point back at their nodes, and an
        # unfinished generator's frame holds its node
        for st in nodes.values():
            st.gen = None
            for ch in st.ins.values():
                ch.writer = ch.reader = None

    outputs, bytes_written = _finalize(graph, nodes)
    dataflow = max((st.clock for st in nodes.values()), default=0)
    node_flops = {nid: st.flops for nid, st in nodes.items() if st.flops is not None}
    bytes_read = sum(st.bytes_read for st in nodes.values())
    total = bytes_read + bytes_written
    memory = math.ceil(total / config.bandwidth) if config.bandwidth else 0
    return SimReport(
        cycles=max(dataflow, memory),
        dataflow_cycles=dataflow,
        memory_cycles=memory,
        flops=sum(node_flops.values()),
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        outputs=outputs,
        node_flops=node_flops,
        node_cycles={nid: st.clock for nid, st in nodes.items()},
    )


# --- result reconstruction ------------------------------------------------


def _nest(tokens, depth: int):
    """Parse a recorded token stream into nested lists of the given depth."""
    root: list = []
    stack = [root]
    for _ in range(depth - 1):
        new: list = []
        stack[-1].append(new)
        stack.append(new)
    for tok in tokens:
        if tok is DONE:
            break
        if isinstance(tok, Stop):
            n = tok.level + 1
            if n > depth - 1:
                raise MalformedStream(f"stop {tok} too deep for writer depth {depth}")
            for _ in range(n):
                stack.pop()
            for _ in range(n):
                new = []
                stack[-1].append(new)
                stack.append(new)
        else:
            stack[-1].append(tok)
    return root


def _finalize(graph: DataflowGraph, nodes: dict):
    groups: dict[str, dict] = {}
    for node in graph.nodes.values():
        if node.kind == "write_crd":
            g = groups.setdefault(node.params["tensor"], {"levels": {}})
            g["levels"][node.params["level"]] = nodes[node.id].records
        elif node.kind == "write_val":
            g = groups.setdefault(node.params["tensor"], {"levels": {}})
            g["vals"] = nodes[node.id].records
            g["params"] = node.params

    outputs: dict[str, SparseTensor] = {}
    bytes_written = 0
    for name, g in groups.items():
        p = g["params"]
        ndim = len(g["levels"])
        trees = [_nest(g["levels"][d], d + 1) for d in range(ndim)]
        # Values pair with innermost coordinates flat, in arrival order; the
        # value stream may still carry separators for groups whose outer
        # coordinate was dropped, so its nesting cannot be trusted.
        flat_vals = [
            t for t in g["vals"] if not isinstance(t, Stop) and t is not DONE
        ]
        # depth-first over the coordinate trees, in stream order
        scoords: list = []
        stack = [(0, (), ())]
        while stack:
            d, pos_path, crd_path = stack.pop()
            node_list = trees[d]
            for q in pos_path:
                node_list = node_list[q]
            if d == ndim - 1:
                scoords.extend(crd_path + (crd,) for crd in node_list)
            else:
                for idx in range(len(node_list) - 1, -1, -1):
                    stack.append((d + 1, pos_path + (idx,), crd_path + (node_list[idx],)))
        if len(scoords) != len(flat_vals):
            raise MalformedStream(
                f"writer {name}: {len(flat_vals)} values for {len(scoords)} coordinates"
            )
        mode_order = tuple(p["mode_order"])
        coords = np.empty((len(scoords), ndim), dtype=np.int64)
        coords[:, mode_order] = np.array(scoords, dtype=np.int64).reshape(-1, ndim)
        formats = [LevelSpec(k) for k in p["formats"]]
        block_shape = p.get("block_shape")
        if block_shape:
            bs = tuple(block_shape)
            formats.append(LevelSpec(BLOCKED, bs))
            perm = p["block_perm"]  # stream axis per logical mode
            stream_shape = [bs[m] for m in np.argsort(perm)]
            blocks = np.array(flat_vals, dtype=np.float64).reshape(-1, *stream_shape)
            blocks = blocks.transpose(0, *(a + 1 for a in perm))
            blk, *off = np.nonzero(blocks)
            coords = coords[blk] * bs + np.stack(off, axis=1)
            vals = blocks[(blk, *off)]
        else:
            vals = np.array(flat_vals, dtype=np.float64)
        tensor = _from_arrays(
            p["shape"], coords, vals, formats, mode_order, p.get("fill", 0.0)
        )
        outputs[name] = tensor
        bytes_written += (
            tensor.values.size * ELEMENT_BYTES + tensor.metadata_elems * INDEX_BYTES
        )
    return outputs, bytes_written
