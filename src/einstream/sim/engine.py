"""Cooperative round-robin scheduler with cycle/FLOP/byte accounting.

Nodes run as generators over bounded channels (Kahn-style), so outputs are
independent of scheduling order and channel depth; only timing shifts.
Per-node local clocks advance one cycle per processed element plus memory
latency per fiber fetch; the dataflow cycle count is the largest final
clock.  With a finite bandwidth the report takes the rooflined maximum of
dataflow cycles and total traffic divided by bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import Deadlock, GraphError, MalformedStream, RepeatUnderflow
from ..graph import DONE, DataflowGraph, Stop
from ..tensors import (
    ELEMENT_BYTES,
    INDEX_BYTES,
    LevelSpec,
    SparseTensor,
)
from .channels import Channel
from .processes import build_process


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


class _State:
    __slots__ = (
        "gen",
        "clock",
        "resume",
        "blocked_recv",
        "blocked_send",
        "send_tok",
        "finished",
    )

    def __init__(self, gen):
        self.gen = gen
        self.clock = 0
        self.resume = None
        self.blocked_recv = None
        self.blocked_send = None
        self.send_tok = None
        self.finished = False


def run(graph: DataflowGraph, tensors: dict, config: SimConfig | None = None) -> SimReport:
    config = config or SimConfig()
    graph.validate()
    order = graph.topo_order()

    in_channel: dict[tuple[str, str], Channel] = {}
    out_channels: dict[tuple[str, str], list[Channel]] = {}
    for e in graph.edges:
        ch = Channel(config.channel_depth, f"{e.src}:{e.src_port}->{e.dst}:{e.dst_port}")
        in_channel[(e.dst, e.dst_port)] = ch
        out_channels.setdefault((e.src, e.src_port), []).append(ch)

    states = {
        nid: _State(build_process(graph.nodes[nid], tensors, config.mem_latency))
        for nid in order
    }
    records: dict[str, list] = {
        nid: [] for nid, n in graph.nodes.items() if n.kind in ("write_crd", "write_val")
    }
    node_flops: dict[str, int] = {}
    touched: set = set()
    counters = {"bytes_read": 0, "flops": 0}
    unfinished = len(order)

    def advance(nid: str, st: _State) -> bool:
        nonlocal unfinished
        made = False
        while True:
            if st.blocked_recv is not None:
                ch = st.blocked_recv
                if ch.empty():
                    return made
                tok, pickup = ch.pop(st.clock)
                st.clock = max(st.clock, pickup)
                st.resume = tok
                st.blocked_recv = None
                made = True
            elif st.blocked_send is not None:
                remaining = []
                for ch in st.blocked_send:
                    if ch.full():
                        remaining.append(ch)
                    else:
                        ch.push(st.send_tok, st.clock)
                        made = True
                st.blocked_send = remaining or None
                if remaining:
                    return made
                st.send_tok = None
            try:
                eff = st.gen.send(st.resume)
            except StopIteration:
                st.finished = True
                unfinished -= 1
                return True
            except (MalformedStream, RepeatUnderflow) as err:
                raise type(err)(f"{nid}: {err}") from None
            st.resume = None
            op = eff[0]
            if op == "recv":
                key = (nid, eff[1])
                if key not in in_channel:
                    raise GraphError(f"{nid}:{eff[1]} reads an unconnected port")
                st.blocked_recv = in_channel[key]
            elif op == "send":
                st.send_tok = eff[2]
                st.blocked_send = list(out_channels.get((nid, eff[1]), ())) or None
                if st.blocked_send is None:
                    st.send_tok = None  # dangling output port: drop
            elif op in ("tick", "lat"):
                st.clock += eff[1]
            elif op == "flops":
                counters["flops"] += eff[1]
                node_flops[nid] = node_flops.get(nid, 0) + eff[1]
            elif op == "touch":
                key = (nid, eff[1])
                if key not in touched:
                    touched.add(key)
                    counters["bytes_read"] += eff[2]
            elif op == "record":
                records[nid].append(eff[1])
            else:
                raise GraphError(f"{nid}: unknown effect {op!r}")

    while unfinished:
        progress = False
        for nid in order:
            st = states[nid]
            if not st.finished:
                progress = advance(nid, st) or progress
        if not progress:
            blocked = []
            for nid in order:
                st = states[nid]
                if st.finished:
                    continue
                if st.blocked_recv is not None:
                    blocked.append(f"{nid} awaiting {st.blocked_recv.label}")
                elif st.blocked_send is not None:
                    blocked.append(f"{nid} backpressured")
            raise Deadlock("no runnable node; " + "; ".join(blocked))

    outputs, bytes_written = _finalize(graph, records)
    dataflow = max((st.clock for st in states.values()), default=0)
    total = counters["bytes_read"] + bytes_written
    memory = math.ceil(total / config.bandwidth) if config.bandwidth else 0
    return SimReport(
        cycles=max(dataflow, memory),
        dataflow_cycles=dataflow,
        memory_cycles=memory,
        flops=counters["flops"],
        bytes_read=counters["bytes_read"],
        bytes_written=bytes_written,
        outputs=outputs,
        node_flops=node_flops,
        node_cycles={nid: st.clock for nid, st in states.items()},
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


def _finalize(graph: DataflowGraph, records: dict):
    groups: dict[str, dict] = {}
    for node in graph.nodes.values():
        if node.kind == "write_crd":
            g = groups.setdefault(node.params["tensor"], {"levels": {}})
            g["levels"][node.params["level"]] = records[node.id]
        elif node.kind == "write_val":
            g = groups.setdefault(node.params["tensor"], {"levels": {}})
            g["vals"] = records[node.id]
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
        entries: list = []
        cursor = [0]

        def walk(d, pos_path, crd_path, trees=trees, ndim=ndim, entries=entries):
            node_list = trees[d]
            for q in pos_path:
                node_list = node_list[q]
            for idx, crd in enumerate(node_list):
                if d == ndim - 1:
                    entries.append((tuple(crd_path) + (crd,), flat_vals[cursor[0]]))
                    cursor[0] += 1
                else:
                    walk(d + 1, pos_path + [idx], crd_path + [crd])

        walk(0, [], [])
        if cursor[0] != len(flat_vals):
            raise MalformedStream(
                f"writer {name}: {len(flat_vals)} values for {cursor[0]} coordinates"
            )
        mode_order = tuple(p["mode_order"])
        shape = tuple(p["shape"])
        formats = [LevelSpec(k) for k in p["formats"]]
        block_shape = p.get("block_shape")
        logical_entries = []
        if block_shape:
            bs = tuple(block_shape)
            formats.append(LevelSpec("blocked", bs))
            block_perm = p.get("block_perm")  # stream axis per logical mode
            for storage_crds, block in entries:
                logical_block = [0] * ndim
                for d, c in enumerate(storage_crds):
                    logical_block[mode_order[d]] = c
                arr = np.asarray(block)
                if block_perm:
                    arr = np.transpose(arr, block_perm)
                for off in zip(*np.nonzero(arr)):
                    coords = tuple(
                        logical_block[m] * bs[m] + off[m] for m in range(ndim)
                    )
                    logical_entries.append((coords, float(arr[off])))
        else:
            for storage_crds, v in entries:
                coords = [0] * ndim
                for d, c in enumerate(storage_crds):
                    coords[mode_order[d]] = c
                logical_entries.append((tuple(coords), float(v)))
        tensor = SparseTensor.from_coo(
            shape,
            logical_entries,
            formats,
            mode_order=mode_order,
            fill=p.get("fill", 0.0),
        )
        outputs[name] = tensor
        bytes_written += (
            tensor.values.size * ELEMENT_BYTES + tensor.metadata_elems * INDEX_BYTES
        )
    return outputs, bytes_written
