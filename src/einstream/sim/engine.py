"""Two-pass simulator with cycle/FLOP/byte accounting.

Nodes are Kahn processes over channels of a fixed depth: a node blocks on
a recv from an empty channel and on a send into a full one, and
``Deadlock`` means no node can move while some are unfinished.  ``run``
computes every token in pass 1 and decides the outcome at the configured
depth in pass 2.  Each docstring below states the invariant its code
relies on, and why each speed device is there; the measurements behind
those devices are in the project's CHANGES.md.

**Pass 1 may ignore depth.**  Each node is deterministic in the tokens it
reads (Kahn 1974), so the tokens on every channel are the same under any
schedule and any depth; depth only decides how far the run gets.  Nor
does depth move a clock: holding send n back until pickup n - depth
would only raise the token's time to a pickup made earlier by the same
reader, whose clock never decreases, so the reader's clock at pickup n is
already at least that late.  So ``_pass1`` calls each node's function
once, on the complete token lists of its inputs, and keeps the trace it
records under the contract of ``processes``.  ``_node_functions`` gives
a node its loop in ``processes`` and, where it has one, its array
function in ``arrays``; their traces are byte-equal, so nothing after
pass 1 can tell them apart.

**Pass 2 decides the outcome.**  A depth-d channel is a Kahn channel plus
a reverse channel of d credits, so the bounded network is a Kahn network
too, and how far each node gets is the same under every schedule that
runs until no node can move.  ``_certify``, tried when no node raised and
the graph passes the size gate ``_CERTIFY_OPS``, looks for one
interleaving of the traces that is an execution on depth-d channels in
which every node runs to its end.  The ready-queue replay (``_replay``)
is a schedule that runs until no node can move, so where the check
accepts, the replay would complete as well, and ``run`` skips it.  The
check builds one interleaving only, so it may decline a run that
completes; the replay then decides.  Only the replay decides a failure,
and only it raises: it returns the ``_Stop`` where no node can move, of
which ``run`` raises ``Deadlock``, and it raises the error a node raised
in pass 1 once it has taken that node up to it, so the ready-queue order
decides which of several errors comes first.

Only a run that completes reports clocks (``_clocks``).  ``_finalize``
turns each writer's streams into a ``SparseTensor``.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from numbers import Integral, Real
from operator import length_hint
from typing import NamedTuple

import numpy as np

from ..errors import Deadlock, GraphError, MalformedStream, RepeatUnderflow
from ..graph import DataflowGraph, node_ports
from ..tensors import (
    ELEMENT_BYTES, INDEX_BYTES, CompressedLevel, LevelSpec, SparseTensor, _from_arrays
)
from . import arrays
from . import processes as loop
from .processes import TICK, NodeRun


@dataclass(frozen=True)  # so no field skips the checks below
class SimConfig:
    channel_depth: int = 4
    mem_latency: int = 4
    bandwidth: float = 0.0  # bytes per cycle; 0 means unlimited

    def __post_init__(self):
        for name, least, kinds in (
            ("channel_depth", 1, Integral),
            ("mem_latency", 0, Integral),
            ("bandwidth", 0, Real),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds) or not value >= least:
                kind = "an int" if kinds is Integral else "a number"
                raise ValueError(f"SimConfig.{name} must be {kind} >= {least}, not {value!r}")


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


# Replay ops per node below which the interleaving check is not tried: the
# check costs a few dozen numpy calls per node whatever its trace length,
# the replay one Python step per op, and a declined check is paid on top of
# the replay, so on small graphs the check costs more than it saves.
_CERTIFY_OPS = 1000

# graph -> its _Net, built on the graph's first run; add and connect only
# append, so the node and edge counts it was built at tell it is current
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(graph: DataflowGraph) -> _Net:
    """The graph's ``_Net``, built with ``validate()``'s order.  That is the
    only validation a compiled graph gets: the lowering relies on ``add``
    and ``connect``, which check ports and stream kinds, and leaves
    unconnected inputs and cycles to the first run."""
    net = _plans.get(graph)
    if net is None or net.stamp != (len(graph.nodes), len(graph.edges)):
        net = _plans[graph] = _Net(graph, graph.validate())
    return net


def run(graph: DataflowGraph, tensors: dict, config: SimConfig | None = None) -> SimReport:
    """Simulate ``graph`` on ``tensors`` under ``config``.

    The plan keeps one pass-1 entry, ``_Net.last``: the last run's key,
    its node runs and traces, the depth of their last replay and the
    ``_Stop`` where that replay stopped, or None where the run completed.
    Pass 1 reads nothing of the config but ``mem_latency``, so the key is
    that and the tensors the graph's scans and vals read (``_Net.inputs``,
    matched by ``_same_inputs``), and a sweep that runs one graph again at
    another depth or bandwidth hits.  A hit skips ``_node_functions`` and
    pass 1.  An execution on depth-d channels is one on deeper channels
    too, and how far each node gets does not depend on the schedule, so a
    hit at a depth no smaller than the kept one skips pass 2 where the
    kept run completed and otherwise resumes the replay from its stop.
    Either ends as a cold run ends, with its outcome, counters and
    ``Deadlock`` message, since the entry keeps only runs in which no node
    raised; which of several errors the replay meets first depends on its
    queue.  Such a run could not be kept cheaply either: each error's
    traceback holds its node's frames and token lists, and the replay's
    ``raise`` ties those frames back to the plan in a reference cycle, so
    a kept run would live until a collection.  A miss, or a hit at a
    smaller depth, replays from the start, and its stop replaces the kept
    one.

    The check needs the sinks' recv clocks, so where it is tried the
    clocks come first; else they are taken once the run completed.  The
    dataflow cycle count is the largest final clock; with a finite
    bandwidth, ``cycles`` is the larger of that and the total traffic over
    the bandwidth."""
    config = config or SimConfig()
    net = _plan(graph)
    order = net.order
    key = config.mem_latency, [tensors.get(name) for name in net.inputs]
    depth = config.channel_depth
    if net.last is not None and _same_inputs(key, net.last[0]):
        _, runs, traces, kept_depth, kept = net.last
        ends, clean = [None] * len(order), True
        # every execution at the kept depth is one at this depth too
        resume = depth >= kept_depth
    else:
        net.last, resume = None, False
        pairs: list = []  # a class member takes its head's functions
        for nid, head in zip(order, net.same):
            if head is None:
                pairs.append(_node_functions(graph.nodes[nid], tensors, config.mem_latency))
            else:
                pairs.append(pairs[head])
        funcs, afuncs = [fn for fn, _ in pairs], [afn for _, afn in pairs]
        try:
            runs, traces, ends = _pass1(net, afuncs if all(afuncs) else funcs)
        except arrays.Decline:  # an input off the array path: the run on the loops
            runs, traces, ends = _pass1(net, funcs)
        clean = all(end is None for end in ends)  # else keep nothing: errors hold frames
    cycles = None
    if not (resume and kept is None):  # else the kept run completed, and so does this one
        if resume:
            stop = _replay(net, traces, ends, depth, kept)
        elif clean and (
            sum(map(len, traces)) - sum(map(bytearray.count, traces, repeat(TICK)))
            >= _CERTIFY_OPS * len(traces)
        ):
            sinks = set(range(len(order))) - set(net.writer)  # no output channel
            cycles, sink_clocks = _clocks(net, traces, sinks)
            certified = _certify(net, traces, sink_clocks, depth)
            stop = None if certified else _replay(net, traces, ends, depth)
        else:
            stop = _replay(net, traces, ends, depth)
        if clean:
            net.last = (key, runs, traces, depth, stop)
        if stop is not None:
            raise _deadlock(net, stop)
    if cycles is None:
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


def _same_inputs(key, last) -> bool:
    """Whether pass 1 would read under ``key`` what it read under
    ``last``: the same memory latency, and each tensor the same object or
    equal to it bit for bit (so 0.0 and -0.0 differ), compared in place."""
    (latency, tensors), (last_latency, last_tensors) = key, last
    return latency == last_latency and all(map(_same_tensor, tensors, last_tensors))


def _same_tensor(a, b) -> bool:
    if a is b:
        return True
    return (
        type(a) is SparseTensor is type(b)
        and (a.shape, a.mode_order) == (b.shape, b.mode_order)
        and a.levels == b.levels  # kind and size, or segments and coords
        # float64 viewed as int64: equal bits, not equal numbers
        and np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    )


def _node_functions(node, tensors: dict, mem_latency: int):
    """``node``'s pass-1 functions ``(loop, array)``: its loop in
    ``processes`` and its array function in ``arrays``, or None where it
    has none; this table is the one record of which kinds have one, and
    ``run`` takes the array functions only when every node has one.
    Parameters and tensors are looked up here, so a missing one raises
    before any node runs."""
    kind, p = node.kind, node.params
    if kind == "root":
        return loop.run_root, arrays.root
    if kind in ("scan", "vals"):
        kw = {"tensor": tensors[p["tensor"]], "mem_latency": mem_latency}
        if kind == "scan":
            kw.update(level_idx=p["level"], mult=p.get("mult"), stride=p.get("stride"))
            return partial(loop.run_scan, **kw), partial(arrays.scan, **kw)
        return partial(loop.run_vals, **kw), partial(arrays.vals, **kw)
    if kind in ("intersect", "union"):
        return partial(loop.run_join, mode=kind), partial(arrays.join, mode=kind)
    if kind == "repeat":
        return loop.run_repeat, arrays.repeat
    if kind == "alu":
        op, block = p["op"], p.get("block")
        if block:  # one function of blocks, or of batches of blocks, for both
            fn, flops = loop.block_op(op, block), block["flops"]
            afn = partial(arrays.alu, fn=fn, flops=flops, ndims=loop.block_ndims(block))
        else:
            fn, flops = loop.scalar_op(op), 1
            afn = partial(arrays.alu, fn=loop.ARRAY_OPS.get(op), flops=1)
        return partial(loop.run_alu, fn=fn, flops=flops), afn if op in loop.ARRAY_OPS else None
    if kind == "map":
        fn = p["fn"]
        known = isinstance(fn, tuple) or fn in ("relu", "exp", "gelu")
        return partial(loop.run_map, fn=fn), partial(arrays.map_, fn=fn) if known else None
    if kind == "reduce":
        kw = {"op": p["op"], "intra": tuple(p.get("intra", ())), "zero_shape": p.get("zero_shape")}
        # blocked only: on scalars, numpy's per-call cost would exceed the loop
        afn = partial(arrays.reduce, **kw) if kw["zero_shape"] else None
        return partial(loop.run_reduce, **kw), afn
    if kind == "red1":
        return loop.run_red1, arrays.red1
    if kind == "crddrop":
        if p.get("stage") == "inner":
            return loop.run_crddrop_inner, arrays.crddrop_inner
        return loop.run_crddrop_outer, arrays.crddrop_outer
    if kind in ("write_crd", "write_val"):
        port = kind[len("write_"):]
        return partial(loop.run_write, port=port), partial(arrays.write, port=port)
    if kind == "par":
        return partial(loop.run_par, factor=p["factor"], nstreams=p["nstreams"]), None
    raise GraphError(f"no function for node kind {kind!r}")


class _Net:
    """A graph's plan: the channels between the nodes of ``order``, one per
    edge, their replay codes, and the classes of nodes that compute the
    same streams.

    A stream is an output port with at least one channel; each of its
    tokens goes to every one of them.  ``outs[i]`` lists node i's output
    ports as (port, stream or None) and ``ins[i]`` its input ports as
    (port, value, channel), both in ``node_ports`` order, so the position
    of a port is its byte in node i's trace.  In replay codes a recv is
    its channel ``c``, a send ``nch + c`` when its port has the one channel
    ``c``, and ``2 * nch + g`` when it has the channels ``groups[g]``; most
    ports have one channel, and their own code spares the replay a loop
    over a group.

    ``same[i]`` is the earliest node, in ``order``, that computes node i's
    streams, or None: a node of the same kind with equal params whose
    inputs are the same values.  Node functions depend on their input
    tokens only, so the two runs are equal.  Fused graphs recompute a
    shared subexpression under each use, so ``_pass1`` and ``_clocks`` run
    each class once and give its other members the head's results; every
    member keeps its own channels, so pass 2 and the counters see each
    node.  Writers are never merged.  A value is the tokens of an output
    port of a class head, which every member's stream on that port
    carries; ``keeps[i]`` lists the head i's ports some member has a
    channel on, as (trace byte, port, value), and ``reads[v]`` counts the
    head inputs that read value v.

    ``inputs`` names the tensors pass 1 reads, and ``last`` is ``run``'s
    pass-1 entry, ``(key, runs, traces, depth, stop)``, or None.
    """

    def __init__(self, graph: DataflowGraph, order: list):
        self.order, self.edges = order, graph.edges
        self.stamp = (len(graph.nodes), len(graph.edges))
        kinds = ("scan", "vals")
        self.inputs = sorted({n.params["tensor"] for n in graph.nodes.values() if n.kind in kinds})
        self.last = None  # (key, runs, traces, depth, stop), or None after a run that raised
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
        self.same, self.keeps, self.reads = [], [], []
        value = [0] * len(self.streams)  # stream -> the value it carries
        own: dict = {}  # (head, port) -> its value
        heads: dict = {}  # (kind, input values) -> the class heads, in order
        for i, nid in enumerate(order):
            node = graph.nodes[nid]
            in_ports, out_ports = node_ports(node.kind, node.params)
            if len(in_ports) + len(out_ports) > TICK:
                raise GraphError(f"{nid} has more than {TICK} ports")
            ins = [(p, value[carries[feed[nid, p]]], feed[nid, p]) for p in in_ports]
            outs = [(p, sid.get((nid, p))) for p in out_ports]
            self.ins.append(ins)
            self.outs.append(outs)
            self.keeps.append([])
            head = None
            if not node.kind.startswith("write"):
                cands = heads.setdefault((node.kind, *(v for _, v, _ in ins)), [])
                for h in cands:
                    q = graph.nodes[order[h]].params
                    # == takes -0.0 for 0.0, which a map's constant tells apart
                    if q == node.params and repr(q) == repr(node.params):
                        head = h
                        break
                else:
                    cands.append(i)
            self.same.append(head)
            h = i if head is None else head
            for q, (p, s) in enumerate(outs, len(ins)):
                if s is not None:
                    if (h, p) not in own:
                        own[h, p] = len(self.reads)
                        self.reads.append(0)
                        self.keeps[h].append((q, p, own[h, p]))
                    value[s] = own[h, p]
            if head is None:
                for _, v, _ in ins:
                    self.reads[v] += 1
            # trace byte -> replay code, and the trace bytes the replay drops:
            # ticks and sends on ports without a channel
            codes = [c for _, _, c in ins] + [0 if s is None else send[s] for _, s in outs]
            drop = [q for q, (_, s) in enumerate(outs, len(ins)) if s is None] + [TICK]
            self.codes.append(np.asarray(codes) if self.wide else bytes(codes).ljust(256, b"\0"))
            self.drops.append(bytes(drop))

    @cached_property
    def visits(self) -> list:
        """The nodes with an output channel in the order ``_certify``
        places them: each as soon as every reader of its channels is
        placed.  A stack seeded from the sinks, in node order, so a writer
        comes right after the last of its readers that is not a sink.
        After each node, every placed channel whose writer is not yet
        placed moves up by the recvs inserted before it, so this order
        keeps those channels few.  Built on the first check and kept."""
        left = [0] * len(self.order)  # node -> its channels whose reader is unplaced
        for w in self.writer:
            left[w] += 1
        stack, visits = [], []

        def place(i):
            for _, _, c in self.ins[i]:
                w = self.writer[c]
                left[w] -= 1
                if not left[w]:
                    stack.append(w)

        for i in [i for i, n in enumerate(left) if not n]:  # the sinks
            place(i)
        while stack:
            visits.append(stack.pop())
            place(visits[-1])
        return visits

    def label(self, c: int) -> str:
        e = self.edges[c]
        return f"{e.src}:{e.src_port}->{e.dst}:{e.dst_port}"

    def replay_ops(self, i: int, trace, start: int = 0):
        """Node i's trace as replay codes, from code ``start`` on, without
        ticks and sends on ports without a channel.  While every code fits
        a byte (not ``wide``), that is one ``bytes.translate`` and the
        replay iterates bytes, which is cheaper than the int-array gather
        and the list it builds otherwise."""
        codes, drop = self.codes[i], self.drops[i]
        if not self.wide:
            return trace.translate(codes, drop)[start:]
        return codes[np.frombuffer(trace.translate(None, drop), np.uint8)[start:]].tolist()


def _pass1(net: _Net, funcs) -> tuple[list, list, list]:
    """Each class head's function once, on whole streams, in topological
    order, freeing each value once the heads that read it have run; every
    other member of a class gets its head's run, trace and error.
    ``funcs`` are either the loop functions of ``processes``, on token
    lists, or the array functions of ``arrays``, on ``arrays.Stream``s.
    Returns the node runs, their traces, and the error each node raised,
    or None.  An array function's ``arrays.Decline`` propagates."""
    n = len(net.order)
    values: dict = {}  # value -> its tokens, until its readers ran
    readers = net.reads.copy()
    runs, traces, ends = [None] * n, [None] * n, [None] * n
    for i in range(n):
        head = net.same[i]
        if head is not None:
            runs[i], traces[i], ends[i] = runs[head], traces[head], ends[head]
            continue
        ins = net.ins[i]
        r = NodeRun({p: values[v] for p, v, _ in ins}, [p for p, _ in net.outs[i]])
        try:
            funcs[i](r)
        except StopIteration:
            pass  # read past the end of a stream that stopped early
        except arrays.Decline:
            raise
        except Exception as err:  # noqa: BLE001 - the replay raises it in turn
            # from the node's frames on: this frame would make a cycle
            ends[i] = err.with_traceback(err.__traceback__.tb_next)
        for _, v, _ in ins:
            readers[v] -= 1
            if not readers[v]:
                del values[v]
        for _, p, v in net.keeps[i]:
            values[v] = r.outs[p]
        runs[i], traces[i] = r, r.trace
        r.ins = r.outs = r.trace = None
    return runs, traces, ends


class _Stop(NamedTuple):
    """Where a replay stopped short of completing: each node's position in
    its replay codes, the tokens in each channel, the channel each node
    waits to recv from (or -1), the full channels each node still owes a
    send (or None), and whether each node finished: integers per node and
    channel, and no replay codes, which are as long as the traces."""

    pos: list
    occ: list
    pending: list
    owed: list
    finished: list


def _replay(net: _Net, traces, ends, depth: int, start: _Stop | None = None) -> _Stop | None:
    """Run the traces, as replay codes, on channels of ``depth`` tokens
    under the ready-queue scheduler, counting tokens only, from ``start``,
    or from the empty state, in which no node has walked, sent or owes
    anything.  Returns None when every node finished, or the ``_Stop``
    where no node could move.  Raises the first error a node gets to.

    The scheduler is a FIFO ready queue that starts with every node that
    can move, in node order (topological).  A node runs until it blocks or
    finishes; a push wakes the reader waiting on that channel and a pop
    the writer backpressured on it, each appended to the queue the moment
    it happens; a node owed sends from a partial send makes them first
    when it runs again.  From a stop, no channel starts backpressured:
    each writer that owes a send is queued, and a mark would let a pop
    wake it again after its sends went through."""
    order, nch = net.order, net.nch
    nch2 = 2 * nch
    groups, writer, reader = net.groups, net.writer, net.reader
    n = len(order)
    if start is None:
        pos, occ, pending, owed, finished = [0] * n, [0] * nch, [-1] * n, [None] * n, [False] * n
    else:  # copies, so that a run cut short leaves ``start`` as it was
        pos, occ, pending, owed, finished = map(list, start)
    waiting = [False] * nch  # its reader waits on it and is not queued
    for c in pending:
        if c >= 0:
            waiting[c] = True
    blocked = [False] * nch  # its writer is backpressured on it, not queued
    # every node that can move: at the empty state all of them; at a stop,
    # those that owe sends, which a deeper channel may now take
    ready = deque(i for i in range(n) if not (finished[i] or pending[i] >= 0))
    ops, left = [None] * n, [0] * n  # each unfinished node's codes from pos on
    for i, trace in enumerate(traces):
        if not finished[i]:
            codes = net.replay_ops(i, trace, pos[i])
            ops[i], left[i] = iter(codes), len(codes)
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
    if all(finished):
        return None
    for i, it in enumerate(ops):
        if it is not None:  # an iterator over a bytearray or a list knows what it has left
            pos[i] += left[i] - length_hint(it)
    return _Stop(pos, occ, pending, owed, finished)


def _deadlock(net: _Net, stop: _Stop) -> Deadlock:
    """The ``Deadlock`` of a replay that stopped at ``stop``, naming what
    each stuck node waits for."""
    stuck = []
    for i, nid in enumerate(net.order):
        if stop.owed[i] is not None:
            chans = ", ".join(net.label(c) for c in stop.owed[i])
            stuck.append(f"{nid} backpressured on {chans}")
        elif stop.pending[i] >= 0:
            stuck.append(f"{nid} awaiting {net.label(stop.pending[i])}")
    return Deadlock("no runnable node; " + "; ".join(stuck))


def _clocks(net: _Net, traces, keep=()) -> tuple[list, dict]:
    """Each node's final clock, in ``net.order``: the max-plus scan of its
    trace against the send times of the tokens it pops, once per class;
    and, for the nodes in ``keep``, the clock at each of their recvs.  A
    read past the end of a stream gets no wait: such a run cannot
    complete, so its clocks are never reported.

    A node's clock at trace entry i is ``c_i = s_i + max(0, max_{j <= i}
    (a_j - s_j))``, with ``s`` its own clock (the ticks before i) and
    ``a_j`` the send time of the token popped at recv j.  The scan covers
    events only, the trace bytes that are not ticks: one mask gives the
    events (``compress``) and their positions (``nonzero``, cast to int32
    once the mask is freed, as a trace is far shorter than 2**31 bytes),
    and the position ``p_j`` of event j turns in place into ``s_j = p_j -
    j``.  One int64 array holds the wait ``a_j - s_j`` at each recv (0 at
    a send), then its running maximum, then, with ``s`` added, the clock;
    the final clock is the tick count plus the last running maximum.  A
    scan of every byte would give each tick a wait of 0.  Those zeros move
    the running maximum only while it is negative, which needs a first
    event that is a recv after ticks (a send waits 0, and a recv before
    any tick waits a send time), so a negative first wait is clamped to 0.

    This scan and ``_certify`` gather with ``compress`` and ``nonzero``
    where the result dies with its node, as that is the faster, and with a
    boolean mask where it is kept (send times, sink recv clocks, recv
    ranks): ``compress`` builds an index array first, and freeing that
    just before a kept array fragments the heap."""
    times: dict[int, np.ndarray] = {}  # value -> send time of each token
    readers = net.reads.copy()
    want = {i if net.same[i] is None else net.same[i] for i in keep}
    cycles, got = [0] * len(traces), {}
    for i, trace in enumerate(traces):
        head = net.same[i]
        if head is not None:
            cycles[i] = cycles[head]
            continue
        codes = np.frombuffer(trace, dtype=np.uint8)
        mask = codes != TICK
        ev = codes.compress(mask)  # the recvs and sends
        ticks = mask.nonzero()[0]
        del mask  # as large as the trace
        ticks = ticks.astype(np.int32)  # fewer than 2**31 trace bytes
        ticks -= np.arange(len(ev), dtype=np.int32)  # the ticks before each event
        clock = np.zeros(len(ev), dtype=np.int64)  # the wait, then the clock
        for code, (_, v, _) in enumerate(net.ins[i]):
            sent, at = times[v], (ev == code).nonzero()[0]
            if len(at) > len(sent):
                at = at[: len(sent)]
            clock[at] = sent[: len(at)] - ticks[at]
            readers[v] -= 1
            if not readers[v]:
                del times[v]
        if len(clock) and clock[0] < 0:
            clock[0] = 0  # a recv after ticks: a clock never runs behind its own ticks
        np.maximum.accumulate(clock, out=clock)
        cycles[i] = len(codes) - len(ev) + (int(clock[-1]) if len(clock) else 0)
        clock += ticks
        for code, _, v in net.keeps[i]:
            times[v] = clock[ev == code]
        if i in want:
            got[i] = clock[ev < len(net.ins[i])]
    kept = {i: got[i if net.same[i] is None else net.same[i]] for i in sorted(keep)}
    return cycles, kept


def _certify(net: _Net, traces, sink_clocks: dict, depth: int) -> bool:
    """Whether one interleaving of every node's whole trace runs on
    channels of ``depth`` tokens: each recv after the send of its token,
    each send of token k + depth after the recv of token k on every channel
    of its stream.  False means only that this construction found none.

    The order holds recvs only, as ranks.  It starts with the sinks' recvs
    (nodes without an output channel) by pass-1 clock, then node, then
    trace position.  Each other node, in ``net.visits`` order, puts its
    send of token k just before the earliest recv of token k among its
    readers and every other event just before its own next placed event (a
    reverse running minimum of insertion points), checks its channels, and
    inserts its recvs.  Any reverse topological order would be sound, since
    insertion never reorders placed recvs and a channel is checked once,
    when its writer is placed; ``net.visits`` says why it takes that one."""
    rank: dict[int, np.ndarray] = {}  # channel -> rank of each recv, once placed
    # sink_clocks holds the sinks in node order, each in trace order, so a
    # stable sort by clock breaks ties by node, then trace position
    clock = np.concatenate([np.zeros(0, dtype=np.int64), *sink_clocks.values()])
    total = len(clock)  # recvs placed so far; a rank of total means "at the end"
    placed = np.empty(total, dtype=np.int32)
    placed[np.argsort(clock, kind="stable")] = np.arange(total, dtype=np.int32)
    for i in sink_clocks:
        codes = np.frombuffer(traces[i], dtype=np.uint8)
        got = codes.compress(codes < len(net.ins[i]))
        mine, placed = placed[: len(got)], placed[len(got) :]
        for code, (_, _, c) in enumerate(net.ins[i]):
            rank[c] = mine[got == code]

    for i in net.visits:
        ins, nin = net.ins[i], len(net.ins[i])
        sends, idle = [], []  # (trace byte, channels) of each connected port; the others
        for q, (_, s) in enumerate(net.outs[i], nin):
            if s is None:
                idle.append(q)
            else:
                sends.append((q, net.streams[s]))
        codes = np.frombuffer(traces[i], dtype=np.uint8)
        keep = codes != TICK  # recvs, and sends on a port with a channel
        for q in idle:
            keep &= codes != q
        events = codes.compress(keep)
        del keep  # as large as the trace, and not needed past this point
        place = np.full(len(events), total, dtype=np.int32)  # goal, then insertion point
        at = [(events == q).nonzero()[0] for q, _ in sends]
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
        into = place.compress(got)
        for r in rank.values():  # each moves up by the recvs inserted before it
            r += np.searchsorted(into, r, side="right")
        mine, got = into + np.arange(len(into), dtype=np.int32), events.compress(got)
        for code, (_, _, c) in enumerate(ins):
            rank[c] = mine[got == code]
        total += len(into)
    return True


# --- result reconstruction ------------------------------------------------


def _lane(name: str, g: dict) -> SparseTensor:
    """One lane's writer streams as a tensor in loop order: a compressed
    level per ``write_crd`` stream, the ``write_val`` payload as values.

    The level-d stream holds level d's fibers in order.  Every stop closes
    one fiber, and Done the last.  Stops above level 0 group the fibers,
    one group per fiber of level d - 1, which that fiber's stop one level
    up closes.  A group holds one fiber per element of its fiber, except
    that an empty fiber's group holds a single empty fiber with no parent.
    So level 0 has no stop, and the fibers with a parent are level d's
    segments.  Values pair with the last level's coordinates in arrival
    order; the value stream's stops may still close groups whose
    coordinate was dropped, so they are ignored.
    """
    p = g["params"]
    levels = []
    for d in range(len(g["levels"])):
        code, crd, _ = g["levels"][d]
        ends = (code != arrays.ELEM).nonzero()[0]  # the stop or Done closing each fiber
        stop = code[ends]
        if stop.max() >= d:
            raise MalformedStream(f"writer {name}: stop S{stop.max()} too deep for level {d}")
        cum = ends - np.arange(len(ends))  # coordinates up to each fiber's end
        size = cum.copy()
        size[1:] -= cum[:-1]
        if d:  # the stops that level d - 1 implies, and the fibers with a parent
            span = np.maximum(up, 1)
            want = np.zeros(span.sum(), np.int8)
            want[span.cumsum() - 1] = above + (above >= 0)
            if len(want) != len(stop) or (want != stop).any():
                k = np.append(want[: len(stop)] != stop[: len(want)], True).argmax()
                raise MalformedStream(
                    f"writer {name}: level {d} has no fiber per level {d - 1} coordinate,"
                    f" from its fiber {k} on"
                )
            keep = (up > 0).repeat(span)
            if size[~keep].any():
                raise MalformedStream(
                    f"writer {name}: level {d} has coordinates under an empty level {d - 1} fiber"
                )
            cum = cum[keep]
        levels.append(CompressedLevel(np.concatenate(([0], cum)), crd[code == arrays.ELEM]))
        up, above = size, stop
    v = g["vals"]
    vals = v.val[v.code == arrays.ELEM]
    n = len(levels[-1].coords)
    if len(vals) != n:
        raise MalformedStream(f"writer {name}: {len(vals)} values for {n} coordinates")
    bs = p.get("block_shape")
    if bs:  # stream layout to logical: axis perm[m] holds mode m
        perm = p["block_perm"]
        vals = vals.reshape(-1, *(bs[m] for m in np.argsort(perm)))
        vals = vals.transpose(0, *(a + 1 for a in perm))
    return SparseTensor(p["shape"], p["mode_order"], levels, vals)


def _finalize(graph: DataflowGraph, nodes: dict):
    """Each writer's tensor, scalar and in loop order with the writer's
    formats, and the bytes written.  A writer's ``records`` is the
    ``arrays.Stream`` it read.  A parallel result has one set of writers
    per lane; the lanes hold disjoint entries, which make one tensor.  A
    lane's entries are the ``coo()`` of its ``_lane``: every stored slot of
    a scalar lane, the nonzero slots of a blocked one.  A blocked writer
    stores whole blocks, so it is charged the outer levels and slots of
    the blocks that hold a nonzero."""
    groups: dict[str, dict] = {}  # tensor -> lane -> its writers' records
    for node in graph.nodes.values():
        if node.kind.startswith("write"):
            p = node.params
            lanes = groups.setdefault(p["tensor"], {})
            g = lanes.setdefault(p.get("lane", 0), {"levels": {}})
            if node.kind == "write_crd":
                g["levels"][p["level"]] = nodes[node.id].records
            else:
                g["vals"] = nodes[node.id].records
                g["params"] = p

    outputs: dict[str, SparseTensor] = {}
    bytes_written = 0
    for name, lanes in groups.items():
        p = next(iter(lanes.values()))["params"]  # the same in every lane but "lane"
        coords, vals = map(np.concatenate, zip(*(_lane(name, g).coo() for g in lanes.values())))
        formats = [LevelSpec(k) for k in p["formats"]]
        tensor = stored = _from_arrays(p["shape"], coords, vals, formats, p["mode_order"])
        slots = 1
        bs = p.get("block_shape")
        if bs:
            grid = [s // b for s, b in zip(p["shape"], bs)]
            keys = np.unique(np.ravel_multi_index(tuple((coords // bs).T), grid))
            blocks = np.stack(np.unravel_index(keys, grid), axis=1)
            stored = _from_arrays(grid, blocks, np.ones(len(blocks)), formats, p["mode_order"])
            slots = math.prod(bs)
        outputs[name] = tensor
        bytes_written += (
            stored.values.size * slots * ELEMENT_BYTES
            + stored.metadata_elems * INDEX_BYTES
        )
    return outputs, bytes_written
