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
already at least that late.  Pass 1 therefore calls a node's function
(``processes``) once, on the complete token lists of its inputs, and
frees each stream once all its readers have run.  Each function sends
Done last on every port, as the trace contract in ``processes`` asks;
the engine relies on that and does not check it.

*What the plan keeps of pass 1.*  Pass 1 reads nothing of a run's config
but ``mem_latency``, so a sweep that runs one graph again at another depth
or bandwidth would only recompute it.  The graph's plan (below) keeps one
entry: the last run's key and its pass-1 runs and traces.  The key is
``mem_latency`` and the tensors that the graph's ``scan`` and ``vals``
nodes name (``_Net.inputs``).  A tensor matches if it is the same object,
or else equal bit for bit, compared in place: shape, mode order, each
level's kind and size or segments and coords, and values; so 0.0
against -0.0 is a miss.  The key holds the tensors themselves, no copies
and no hashes.  A hit skips ``_node_functions`` and pass 1; pass 2, the
clocks and ``_finalize`` run as on a miss, whose result replaces the
entry.  A run in which a node raised in pass 1 is not kept: each error's
traceback holds its node's frames and token lists, and the replay's
``raise`` ties those frames back to the plan in a reference cycle, so
kept runs would live until a collection (a version that kept them raised
order_sweep's peak RSS by 12 MB).  The entry dies with the plan.  The
bench's order_sweep runs each order and data seed at depth 1, then at
depth 4 on tensors compressed afresh: 253 of an instance's 624 runs hit
(seed 1), and pass 1 fell from 1.16 to 0.63 s per instance (2-vCPU VM).

*What the entry keeps of pass 2.*  The entry also holds the depth of the
last run on its traces and where that run's replay stopped, a ``_Stop``:
each node's position in its replay codes, the tokens in each channel, the
recv each node waits on, the sends it owes and which nodes finished.
That is O(nodes + channels) integers and no replay codes (keeping those
raised order_sweep's peak RSS by 0.6 MB).  The stop is None where the run
completed, by the replay or by the check.  An execution on channels of
depth d is one on channels of every depth d' >= d too, and how far each
node gets does not depend on the schedule (the argument the check rests
on, below).  So a hit at a depth no smaller than the kept one need not
start over.  Where the kept run completed, it skips the replay and the
check.  Otherwise it resumes the replay from the stop: the queue holds the
nodes that owe sends, in node order, and no channel is marked
backpressured, since each of its writers is queued (a version that kept
those marks raised ``TypeError`` where a pop woke a writer whose sends had
already gone through).  It ends where a replay from the start ends, so the
outcome, every counter and the ``Deadlock`` message are those of a cold
run.  This holds because the entry keeps only runs in which no node
raised.  A hit at a smaller depth and a miss replay from the start, and
the run's stop replaces the kept one.

*The plan.*  A graph's ``_Net``, the ``validate()`` order, the channels,
the replay's translate tables and the classes below, is built on the
graph's first run and kept, weakly keyed by the graph, while its node and
edge counts stay as they were; ``add`` and ``connect`` only append, so a
grown graph gets a new one.  Nodes of one kind with equal params whose
inputs are the same streams compute the same streams, trace, FLOPs and
bytes: a class, whose head is its earliest node.  Fused graphs recompute
a shared subexpression under each use, so classes are common: over the
bench's order_sweep, 38 % of attention's nodes and 29 % of softmax8's
are not heads.  Pass 1 calls one function per class and gives the rest
of the class the head's run, trace and error; ``_clocks`` gives them its
send times and final clock.  Every member keeps its own channels, so the
replay, the check and every counter see each node as before.  Writers
are never merged.  The plan's ``validate()`` is the only validation a
compiled graph gets: the lowering relies on ``add`` and ``connect``,
which check ports and stream kinds, and leaves unconnected inputs and
cycles to the first run.

*Which functions run a node.*  ``_node_functions`` reads a node's kind
and params once and builds its two pass-1 functions: its loop in
``processes``, one Python step per token, and its array function in
``arrays``, which computes the outputs, trace and counters over whole
arrays.  Their traces are byte-equal, so the rest of the run cannot tell
them apart.  Every kind has a loop; an alu op outside
``processes.ARRAY_OPS``, an unknown map fn, a scalar ``reduce`` (one
without ``zero_shape``) and ``par`` have no array function.
Blocked runs have them: a payload is then one block per token.  A
blocked alu's two functions share the one ``processes.block_op`` built
here, whose ``contraction`` adds its products in a fixed order, so a
batch of blocks gets the bits each block gets alone.  ``run`` takes the
array functions when every node has one, else the loops.  Array
functions cover the happy path only; any input off it (a stream without
its one Done at the end, boundaries that disagree, stop levels that do
not match, a NULL where the loop would raise or hand a blocked alu a
scalar) makes one raise ``arrays.Decline``, and the whole run restarts on
the loops, which alone raise errors and record error traces.  There is
no size gate: on short streams numpy's per-call cost can exceed the loops
it replaces, but stored entries do not say where.  Over the orders of
fused ``relu(A*X+b)`` at 16³ (about 300 entries; 2-vCPU VM, sum of the
best of 7 ``sim.run``s per order at depths 1 and 4) the arrays took 12.8
ms against the loops' 9.2, and over those of the fused GCN at 16/16/8/8
(275 entries) 38.5 against 39.9; at 128³ (10,649 entries) pass 1 falls
from 64 to 16 ms.  That cost is why a scalar ``reduce`` has no array
function: with one (a scratch version, not kept), the fully fused
attention of the bench's order_sweep took 6.51 s of ``sim.run`` per
instance against the loops' 3.10.

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
late as its readers allow), so it may decline a run that completes, at
any depth: fused ``relu(A*X+b)`` at 128³ under ``parallelize(i, 4)`` is
declined at depth 4.  The replay then decides.

It builds the interleaving one node at a time, as a list of recvs: a
node's sends go just before its readers' recvs of their tokens, and its
own recvs are inserted among those already placed.  Insertion never
reorders what is placed, so each channel checked when its writer is
placed stays right; the only need is that every reader of a node's
channels is placed before the node.  Every reverse topological order
meets it and builds an interleaving that, when every check passes, is an
execution; so any such order proves completion, and a decline still
falls back to the replay.  After each node every placed channel whose
writer is not yet placed moves up by the recvs inserted before it, so
the order sets the cost: ``_Net.visits`` places each node as soon as the
last reader of its channels is placed (a stack seeded from the sinks, in
node order), and the plan keeps it from its first check.  Against
reverse node order it cuts the recv ranks moved per check from 295k to
174k on the bench's spmm_fused (fused ``relu(A*X+b)`` at 128³, depth 4)
and, at depth 10**6 on inputs drawn as the bench draws them, from 1.65M
to 0.47M with ``parallelize(i, 4)``, from 5.4M to 0.57M on fused
attention at 16/16/4 and from 8.1M to 0.52M on softmax at 64, but only
from 3.48M to 2.85M on the fused GCN at 64/32/16/8.

*The replay* (``_replay``) walks the traces with integer channel
occupancies under the scheduler the engine has always used: a FIFO ready
queue that starts with every node in topological order (from the empty
state; from a kept stop, with the nodes that owe sends); a node runs
until it blocks or finishes; a push wakes the reader waiting on that
channel and a pop the writer backpressured on it, each appended to the
queue the moment it happens; a node owed sends from a partial send makes
them first when it runs again.  Only the replay decides a failure: it
returns the stop where no node can move, of which ``run`` raises
``Deadlock``, naming what each stuck node waits for; and it raises the
error a node raised in pass 1, once it has taken that node up to it, so
that the ready-queue order decides which of several errors comes first.

*The size gate.*  The check costs a few dozen numpy calls per node
whatever its trace length, the replay one Python step per recv or send.
Below ``_CERTIFY_OPS`` replay ops per node the check costs more than the
replay it saves, so small graphs go straight to the replay.  On fused
``relu(A*X+b)`` (2-vCPU VM, median of 21 interleaved ``sim.run``s, each
with its pass 1) the check path was 3 % slower than the replay at 290
ops per node, 4 % faster at 400, 10 % at 560, 18 % at 980 and 30 % at
1530.  A declined check is paid on top of the replay, and every bench
order_sweep run between 300 and 1000 ops per node deadlocks (12 per
instance, all at depth 1), so the gate stays at 1000.  Either path gives
the same outcome.

Only a run that completes reports clocks; they are taken after the
replay, or before the check, whose interleaving starts from the sinks'
recv clocks.  A node's clock at trace entry i is
``c_i = s_i + max(0, max_{j <= i} (a_j - s_j))``, with ``s`` its own
clock (the ticks before i) and ``a_j`` the send time of the token popped
at recv j; one ``np.maximum.accumulate`` per node gives its send times
and final clock.  The scan covers events only, the trace bytes that are
not ticks: one mask gives the events (``compress``) and their positions
(``nonzero``, cast to int32 once the mask is freed, as a trace is far
shorter than 2**31 bytes; pass 1 would hold billions of tokens first),
and the position ``p_j`` of event j turns in place into ``s_j = p_j -
j``.  One int64 array holds the wait ``a_j - s_j`` at each recv (0 at a
send), then its running maximum, then, with ``s`` added, the clock; the
final clock is the tick count plus the last running maximum.  A scan of
every byte gives each tick a wait of 0.  Those zeros move the running
maximum only while it is negative, which needs a first event that is a
recv after ticks (a send waits 0, and a recv before any tick waits a
send time), so a negative first wait is clamped to 0.  Against that byte
scan, on every ``_clocks`` call of one seed-1 instance of each bench
workload (best of 15 interleaved calls, summed; 2-vCPU VM) it took 7.2
ms against 8.8 on spmm_fused, 3.3 against 3.8 on gcn_blocked and 189
against 204 over order_sweep's 260 calls, and its tracemalloc peak on
spmm_fused fell from 1.77 to 1.64 MiB.  Both scans gather with
``compress`` and ``nonzero`` where the result dies with its node, and
with a boolean mask where it is kept (send times, sink recv clocks, recv
ranks): on an 80,936-byte trace of fused ``relu(A*X+b)`` at 128³ (2-vCPU
VM, numpy 2.4) ``compress`` took 125 µs against 175, but it builds an
int64 index array first, and freeing that just before a kept array
fragments the heap (with ``compress`` everywhere, gcn_blocked's peak RSS
rose by 0.2-0.45 MB).  The clocks advance one cycle per processed
element plus memory latency per fiber fetch; the dataflow cycle count is
the largest final clock.  With a finite bandwidth the report takes the
rooflined maximum of dataflow cycles and total traffic divided by
bandwidth.

**Writer reconstruction** (``_finalize``) turns each lane's writer
streams into a ``SparseTensor`` in loop order, one compressed level per
``write_crd`` stream (``_lane`` states the empty-fiber rule), and reads
its entries with ``SparseTensor.coo()``, the one level walk of
``tensors``, for scalar and blocked writers alike.
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


# Replay ops per node below which the interleaving check is not tried: on
# small graphs numpy's per-call overhead makes it cost more than the replay.
_CERTIFY_OPS = 1000

# graph -> its _Net, built on the graph's first run; add and connect only
# append, so the node and edge counts it was built at tell it is current
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(graph: DataflowGraph) -> _Net:
    net = _plans.get(graph)
    if net is None or net.stamp != (len(graph.nodes), len(graph.edges)):
        net = _plans[graph] = _Net(graph, graph.validate())
    return net


def run(graph: DataflowGraph, tensors: dict, config: SimConfig | None = None) -> SimReport:
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
    has none.  Parameters and tensors are looked up here, so a missing one
    raises before any node runs."""
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
        afn = partial(arrays.reduce, **kw) if kw["zero_shape"] else None  # blocked only
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
    """The channels between the nodes of ``order``, one per edge, and the
    classes of nodes that compute the same streams.

    A stream is an output port with at least one channel; each of its
    tokens goes to every one of them.  ``outs[i]`` lists node i's output
    ports as (port, stream or None) and ``ins[i]`` its input ports as
    (port, value, channel), both in ``node_ports`` order, so the position
    of a port is its byte in node i's trace.  In a replay trace a recv is
    its channel ``c``, a send ``nch + c`` when its port has the one channel
    ``c``, and ``2 * nch + g`` when it has the channels ``groups[g]``.

    ``same[i]`` is the earliest node, in ``order``, that computes node i's
    streams, or None: a node of the same kind with equal params whose
    inputs are the same values.  Node functions depend on their input
    tokens only, so the two runs are equal.  Writers are never merged.  A
    value is the tokens of an output port of a class head, which every
    member's stream on that port carries; ``keeps[i]`` lists the head i's
    ports some member has a channel on, as (trace byte, port, value), and
    ``reads[v]`` counts the head inputs that read value v.

    ``inputs`` names the tensors pass 1 reads.  ``last`` is the entry the
    module docstring describes, ``(key, runs, traces, depth, stop)``: the
    key, pass 1's node runs and traces, and the depth of the last replay of
    those traces with the ``_Stop`` where it stopped, or None where that run
    completed.  It is None until a run in which no node raised.
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
        Built on the first check and kept."""
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
        """Node i's trace as replay codes, from code ``start`` on."""
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
    send (or None), and whether each node finished."""

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
    where no node could move.  Raises the first error a node gets to."""
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
    complete, so its clocks are never reported."""
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
    when its writer is placed.  ``visits`` places each node right after
    the last reader of its channels, so few placed channels wait for their
    writer, and each of those moves up after every node.  The plan builds
    that order on its first check and keeps it."""
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
