"""Two-pass simulator with cycle/FLOP/byte accounting.

Nodes are Kahn processes over channels of a fixed depth: a node blocks on
a recv from an empty channel and on a send into a full one, and
``Deadlock`` means no node can move while some are unfinished.

**Pass 1 may ignore depth.**  Each node is deterministic in the tokens it
reads (Kahn 1974), so the tokens on every channel are the same under any
schedule and any depth; depth only decides how far the run gets.  Nor
does depth move a clock: holding send n back until pickup n - depth
would only raise the token's time to a pickup made earlier by the same
reader, whose clock never decreases, so the reader's clock at pickup n is
already at least that late.  Pass 1 therefore calls each node's function
(``processes``) once, on the complete token lists of its inputs, and
frees each stream once all its readers have run.  Each function sends
Done last on every port, as the trace contract in ``processes`` asks;
the engine relies on that and does not check it.

*Two sets of node functions.*  ``_pass1`` runs either the loop
functions of ``processes``, one Python step per token, or the array
functions of ``arrays``, which compute each node's outputs, trace and
counters over whole arrays; their traces are byte-equal, so the rest of
the run cannot tell them apart.  ``run`` tries the array functions
whenever every node has one: root, scan, vals, intersect, union, repeat,
scalar alu, map, red1, both crddrop stages and the writers.  Blocked
payloads, ``reduce``, ``par``, ``ser`` and substituted node functions
have none.  Array functions cover the happy path only; any input off it
(a stream without its one Done at the end, boundaries that disagree,
stop levels that do not match, a NULL where the loop would raise, an op
it does not implement) makes one raise ``arrays.Decline``, and the whole
run restarts on the loop functions, which alone raise errors and record
error traces.  There is no size gate: on short streams numpy's per-call
cost can exceed the loops it replaces, but stored entries do not say
where.  Over the orders of fused ``relu(A*X+b)`` at 16³ (about 300
entries; 2-vCPU VM, sum of the best of 7 ``sim.run``s per order at depths
1 and 4) the arrays took 12.8 ms against the loops' 9.2, and over those
of the fused GCN at 16/16/8/8 (275 entries) 38.5 against 39.9; at 128³
(10,649 entries) pass 1 falls from 64 to 16 ms.

**Pass 2 decides the outcome**, either by a check that proves the run
completes or by a replay.

*The check* (``_certify``) is tried when no node raised.  It looks for
one interleaving of every node's whole trace, recvs and sends only, in
which each recv comes after the send of its token and each send of token
k + depth after the recv of token k on every channel of its stream.
Such an interleaving is an execution on channels of that depth in which
every node runs to its end.  A depth-d channel is a Kahn channel plus a
reverse channel of d credits, so the bounded network is a Kahn network
too, and how far each node gets is the same under every schedule that
runs until no node can move.  The ready-queue replay is such a schedule,
so it would complete as well: an accepted run skips it.  The check
builds one interleaving only (sinks by pass-1 clock, every other node as
late as its readers allow), so it may decline a run that completes,
mostly at depths 1 and 2; the replay then decides.

*The replay* (``_replay``) walks the traces with integer channel
occupancies under the scheduler the engine has always used: a FIFO ready
queue that starts with every node in topological order; a node runs
until it blocks or finishes; a push wakes the reader waiting on that
channel and a pop the writer backpressured on it, each appended to the
queue the moment it happens; a node owed sends from a partial send makes
them first when it runs again.  Only the replay raises: ``Deadlock``,
naming what each stuck node waits for; and the error a node raised in
pass 1, once the replay has taken that node up to it, so that the
ready-queue order decides which of several errors comes first.

*The size gate.*  The check costs a few dozen numpy calls per node
whatever its trace length, the replay one Python step per recv or send.
Below ``_CERTIFY_OPS`` replay ops per node the check costs more than the
replay it saves, so small graphs go straight to the replay.  On fused
``relu(A*X+b)`` (2-vCPU VM) the check path was 14 % slower than the
replay at 270 ops per node, 6 % faster at 550 and 17 % faster at 1500;
the gate sits at 1000.  A declined check is paid on top of the replay.
Either path gives the same outcome.

Only a run that completes reports clocks; they are taken after the
replay, or before the check, whose interleaving starts from the sinks'
recv clocks.  A node's clock at trace entry i is
``c_i = s_i + max(0, max_{j <= i} (a_j - s_j))``, with ``s`` its own
clock (the ticks before i) and ``a_j`` the send time of the token popped
at recv j; one ``np.maximum.accumulate`` per node gives its send times
and final clock.  The clocks advance one cycle per processed element plus
memory latency per fiber fetch; the dataflow cycle count is the largest
final clock.  With a finite bandwidth the report takes the rooflined
maximum of dataflow cycles and total traffic divided by bandwidth.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ..errors import Deadlock, GraphError, MalformedStream, RepeatUnderflow
from ..graph import DONE, DataflowGraph, Stop, node_ports
from ..tensors import (
    BLOCKED,
    ELEMENT_BYTES,
    INDEX_BYTES,
    LevelSpec,
    SparseTensor,
    _from_arrays,
)
from . import arrays
from .processes import TICK, NodeRun, node_function


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


# Replay ops per node below which the interleaving check is not tried: on
# small graphs numpy's per-call overhead makes it cost more than the replay.
_CERTIFY_OPS = 1000

def run(graph: DataflowGraph, tensors: dict, config: SimConfig | None = None) -> SimReport:
    config = config or SimConfig()
    order = graph.validate()
    funcs = [node_function(graph.nodes[nid], tensors, config.mem_latency) for nid in order]
    net = _Net(graph, order)
    afuncs = [arrays.array_function(fn) for fn in funcs]
    try:
        runs, traces, ends = _pass1(net, afuncs if all(afuncs) else funcs)
    except arrays.Decline:  # an input off the array path: the run on the loops
        runs, traces, ends = _pass1(net, funcs)
    depth = config.channel_depth
    checkable = all(end is None for end in ends) and (
        sum(map(len, traces)) - sum(map(bytearray.count, traces, repeat(TICK)))
        >= _CERTIFY_OPS * len(traces)
    )
    if checkable:
        sinks = set(range(len(order))) - set(net.writer)  # no output channel
        cycles, sink_clocks = _clocks(net, traces, sinks)
        if not _certify(net, traces, sink_clocks, depth):
            _replay(net, traces, ends, depth)
    else:
        _replay(net, traces, ends, depth)
        cycles, _ = _clocks(net, traces)
    node_flops = {order[i]: r.flops for i, r in enumerate(runs) if r.flops is not None}
    writers = {nid: r for nid, r in zip(order, runs) if graph.nodes[nid].kind.startswith("write")}
    outputs, bytes_written = _finalize(graph, writers)
    dataflow = max(cycles, default=0)
    bytes_read = sum(r.bytes_read for r in runs)
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
        node_cycles=dict(zip(order, cycles)),
    )


class _Net:
    """The channels between the nodes of ``order``, one per edge.

    A stream is an output port with at least one channel; each of its
    tokens goes to every one of them.  ``ins[i]`` lists node i's input
    ports as (port, stream, channel) and ``outs[i]`` its output ports as
    (port, stream or None), both in ``node_ports`` order, so the position
    of a port is its byte in node i's trace.  In a replay trace a recv is
    its channel ``c``, a send ``nch + c`` when its port has the one channel
    ``c``, and ``2 * nch + g`` when it has the channels ``groups[g]``.
    """

    def __init__(self, graph: DataflowGraph, order: list):
        self.order, self.edges = order, graph.edges
        index = {nid: i for i, nid in enumerate(order)}
        self.writer, self.reader = [], []
        feed, chans = {}, {}
        for c, e in enumerate(graph.edges):
            self.writer.append(index[e.src])
            self.reader.append(index[e.dst])
            feed[e.dst, e.dst_port] = c
            chans.setdefault((e.src, e.src_port), []).append(c)
        nch = self.nch = len(graph.edges)
        self.streams = list(chans.values())  # stream -> its channels
        sid = {key: s for s, key in enumerate(chans)}
        carries = [0] * nch  # channel -> its stream
        self.groups, send = [], []  # send: stream -> its replay send code
        for s, cs in enumerate(self.streams):
            for c in cs:
                carries[c] = s
            if len(cs) == 1:
                send.append(nch + cs[0])
            else:
                send.append(2 * nch + len(self.groups))
                self.groups.append(cs)
        self.wide = 2 * nch + len(self.groups) > 0x100  # codes do not fit a byte
        self.ins, self.outs, self.codes, self.drops = [], [], [], []
        for nid in order:
            node = graph.nodes[nid]
            in_ports, out_ports = node_ports(node.kind, node.params)
            if len(in_ports) + len(out_ports) > TICK:
                raise GraphError(f"{nid} has more than {TICK} ports")
            ins = [(p, carries[feed[nid, p]], feed[nid, p]) for p in in_ports]
            outs = [(p, sid.get((nid, p))) for p in out_ports]
            self.ins.append(ins)
            self.outs.append(outs)
            # trace byte -> replay code, and the trace bytes the replay drops:
            # ticks and sends on ports without a channel
            codes = [c for _, _, c in ins] + [0 if s is None else send[s] for _, s in outs]
            drop = [q for q, (_, s) in enumerate(outs, len(ins)) if s is None] + [TICK]
            self.codes.append(codes)
            self.drops.append(bytes(drop))

    def label(self, c: int) -> str:
        e = self.edges[c]
        return f"{e.src}:{e.src_port}->{e.dst}:{e.dst_port}"

    def replay_ops(self, i: int, trace):
        """Node i's trace as replay codes."""
        codes, drop = self.codes[i], self.drops[i]
        if not self.wide:
            return trace.translate(bytes(codes).ljust(256, b"\0"), drop)
        return np.asarray(codes)[np.frombuffer(trace.translate(None, drop), np.uint8)].tolist()


def _pass1(net: _Net, funcs) -> tuple[list, list, list]:
    """Each node's function once, on whole streams, in topological order,
    freeing each stream once its readers have run: ``funcs`` are either
    the loop functions of ``processes``, on token lists, or the array
    functions of ``arrays``, on ``arrays.Stream``s.  Returns the node runs,
    their traces, and the error each node raised, or None.  An array
    function's ``arrays.Decline`` propagates."""
    n = len(net.order)
    streams: dict = {}  # stream -> its tokens, until its readers ran
    readers = [len(cs) for cs in net.streams]
    runs, traces, ends = [None] * n, [None] * n, [None] * n
    for i in range(n):
        ins, outs = net.ins[i], net.outs[i]
        r = NodeRun({p: streams[s] for p, s, _ in ins}, [p for p, _ in outs])
        try:
            funcs[i](r)
        except StopIteration:
            pass  # read past the end of a stream that stopped early
        except arrays.Decline:
            raise
        except Exception as err:  # noqa: BLE001 - the replay raises it in turn
            # from the node's frames on: this frame would make a cycle
            ends[i] = err.with_traceback(err.__traceback__.tb_next)
        for _, s, _ in ins:
            readers[s] -= 1
            if not readers[s]:
                del streams[s]
        for p, s in outs:
            if s is not None:
                streams[s] = r.outs[p]
        runs[i], traces[i] = r, r.trace
        r.ins = r.outs = r.trace = None
    return runs, traces, ends


def _replay(net: _Net, traces, ends, depth: int) -> None:
    """Run the traces, as replay codes, on channels of ``depth`` tokens
    under the ready-queue scheduler, counting tokens only.  Raises the
    first error a node gets to, or ``Deadlock``."""
    order, nch = net.order, net.nch
    nch2 = 2 * nch
    groups, writer, reader = net.groups, net.writer, net.reader
    n = len(order)
    ops = [iter(net.replay_ops(i, tr)) for i, tr in enumerate(traces)]
    occ = [0] * nch  # tokens in each channel
    waiting = [False] * nch  # its reader waits on it and is not queued
    blocked = [False] * nch  # its writer is backpressured on it, not queued
    pending = [-1] * n  # the channel a node waits to recv from
    owed: list = [None] * n  # the full channels a node still owes a send
    finished = [False] * n
    ready = deque(range(n))
    pop, push = ready.popleft, ready.append
    while ready:
        i = pop()
        c = pending[i]
        if c >= 0:  # woken by a push: take the token first
            pending[i] = -1
            occ[c] -= 1
            if blocked[c]:
                w = writer[c]
                for b in owed[w]:
                    blocked[b] = False
                push(w)
        elif owed[i] is not None:  # woken by a pop: finish the send
            full = None
            for c in owed[i]:
                if occ[c] < depth:
                    occ[c] += 1
                    if waiting[c]:
                        waiting[c] = False
                        push(reader[c])
                elif full is None:
                    full = [c]
                else:
                    full.append(c)
            owed[i] = full
            if full is not None:
                for c in full:
                    blocked[c] = True
                continue
        for code in ops[i]:
            if code < nch:  # recv
                if occ[code]:
                    occ[code] -= 1
                    if blocked[code]:
                        w = writer[code]
                        for b in owed[w]:
                            blocked[b] = False
                        push(w)
                    continue
                pending[i] = code
                waiting[code] = True
                break
            if code < nch2:  # send on a port with one channel
                c = code - nch
                if occ[c] < depth:
                    occ[c] += 1
                    if waiting[c]:
                        waiting[c] = False
                        push(reader[c])
                    continue
                owed[i] = [c]
                blocked[c] = True
                break
            full = None  # send on every channel of the port that has room
            for c in groups[code - nch2]:
                if occ[c] < depth:
                    occ[c] += 1
                    if waiting[c]:
                        waiting[c] = False
                        push(reader[c])
                elif full is None:
                    full = [c]
                else:
                    full.append(c)
            if full is not None:
                owed[i] = full
                for c in full:
                    blocked[c] = True
                break
        else:
            end = ends[i]
            if end is None:
                finished[i] = True
            elif isinstance(end, (MalformedStream, RepeatUnderflow)):
                raise type(end)(f"{order[i]}: {end}") from None
            else:
                raise end
    if not all(finished):
        stuck = []
        for i, nid in enumerate(order):
            if owed[i] is not None:
                chans = ", ".join(net.label(c) for c in owed[i])
                stuck.append(f"{nid} backpressured on {chans}")
            elif pending[i] >= 0:
                stuck.append(f"{nid} awaiting {net.label(pending[i])}")
        raise Deadlock("no runnable node; " + "; ".join(stuck))


def _clocks(net: _Net, traces, keep=()) -> tuple[list, dict]:
    """Each node's final clock, in ``net.order``: the max-plus scan of its
    trace against the send times of the tokens it pops; and, for the nodes
    in ``keep``, the clock at each of their recvs.  A read past the end of a
    stream gets no wait: such a run cannot complete, so its clocks are
    never reported."""
    times: dict[int, np.ndarray] = {}  # stream -> send time of each token
    readers = [len(cs) for cs in net.streams]
    cycles, kept = [0] * len(traces), {}
    for i, trace in enumerate(traces):
        codes = np.frombuffer(trace, dtype=np.uint8)
        clock = np.cumsum(codes == TICK)
        wait = np.zeros(len(codes), dtype=np.int64)
        for code, (_, s, _) in enumerate(net.ins[i]):
            sent, at = times[s], np.flatnonzero(codes == code)
            if len(at) > len(sent):
                at = at[: len(sent)]
            wait[at] = sent[: len(at)] - clock[at]
            readers[s] -= 1
            if not readers[s]:
                del times[s]
        np.maximum.accumulate(wait, out=wait)
        clock += wait
        for code, (_, s) in enumerate(net.outs[i], len(net.ins[i])):
            if s is not None:
                times[s] = clock[codes == code]
        cycles[i] = int(clock[-1]) if len(clock) else 0
        if i in keep:
            kept[i] = clock[codes < len(net.ins[i])]
    return cycles, kept


def _certify(net: _Net, traces, sink_clocks: dict, depth: int) -> bool:
    """Whether one interleaving of every node's whole trace runs on
    channels of ``depth`` tokens: each recv after the send of its token,
    each send of token k + depth after the recv of token k on every channel
    of its stream.  False means only that this construction found none.

    The order holds recvs only, as ranks.  It starts with the sinks' recvs
    (nodes without an output channel) by pass-1 clock, then node, then
    trace position.  Each other node, in reverse topological order, puts
    its send of token k just before the earliest recv of token k among its
    readers and every other event just before its own next placed event (a
    reverse running minimum of insertion points), checks its channels, and
    inserts its recvs."""
    rank: dict[int, np.ndarray] = {}  # channel -> rank of each recv, once placed
    # sink_clocks holds the sinks in node order, each in trace order, so a
    # stable sort by clock breaks ties by node, then trace position
    clock = np.concatenate([np.zeros(0, dtype=np.int64), *sink_clocks.values()])
    total = len(clock)  # recvs placed so far; a rank of total means "at the end"
    placed = np.empty(total, dtype=np.int32)
    placed[np.argsort(clock, kind="stable")] = np.arange(total, dtype=np.int32)
    for i in sink_clocks:
        codes = np.frombuffer(traces[i], dtype=np.uint8)
        got = codes[codes < len(net.ins[i])]
        mine, placed = placed[: len(got)], placed[len(got) :]
        for code, (_, _, c) in enumerate(net.ins[i]):
            rank[c] = mine[got == code]

    for i in reversed(range(len(traces))):
        if i in sink_clocks:
            continue
        ins, nin = net.ins[i], len(net.ins[i])
        sends = [(q, net.streams[s]) for q, (_, s) in enumerate(net.outs[i], nin) if s is not None]
        wanted = np.zeros(256, dtype=bool)  # trace byte -> a recv, or a send on a channel
        wanted[:nin] = True
        wanted[[q for q, _ in sends]] = True
        codes = np.frombuffer(traces[i], dtype=np.uint8)
        events = codes[wanted[codes]]
        place = np.full(len(events), total, dtype=np.int32)  # goal, then insertion point
        at = [np.flatnonzero(events == q) for q, _ in sends]
        for k, (_, chans) in zip(at, sends):
            first = place[k]  # rank of each token's earliest recv
            for c in chans:
                r = rank[c]
                if len(r) > len(k):
                    return False  # a reader takes a token never sent
                np.minimum(first[: len(r)], r, out=first[: len(r)])
            place[k] = first
        np.minimum.accumulate(place[::-1], out=place[::-1])
        for k, (_, chans) in zip(at, sends):
            late = place[k[depth:]]  # sends that need the recv depth tokens back
            for c in chans:
                r = rank.pop(c)
                if len(r) < len(late) or not (r[: len(late)] < late).all():
                    return False
        got = events < nin
        into = place[got]
        for r in rank.values():  # each moves up by the recvs inserted before it
            r += np.searchsorted(into, r, side="right")
        mine, got = into + np.arange(len(into), dtype=np.int32), events[got]
        for code, (_, _, c) in enumerate(ins):
            rank[c] = mine[got == code]
        total += len(into)
    return True


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
                if q >= len(node_list):
                    raise MalformedStream(
                        f"writer {name}: level {d} has no fiber under level"
                        f" {d - 1} coordinates {crd_path}"
                    )
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
