"""Reference simulator: node processes as generators under a ready-queue
scheduler over bounded channels.

This is the engine the two-pass ``einstream.sim.engine`` replaced, kept
as the reference its differential tests compare against.  A process
yields one of two effect tuples and is resumed by the scheduler:

    ("recv", port)          -> resumed with the next token on that port
    ("send", port, token)   -> delivered to every outgoing edge of the port

Everything else a node does is a direct update of the ``NodeContext`` that
``build_process`` hands it: ``clock`` (one cycle per processed element, plus
memory latency per fiber fetch), ``add_flops``, ``touch`` (bytes read,
counted once per distinct key) and ``records`` (a writer's transcript, a
``Stream`` from its Done on, as ``engine._finalize`` takes it).

A node runs until it blocks: on a recv from an empty channel, or a send
into a full one.  A push wakes the reader blocked on that channel and a
pop wakes a writer backpressured on it; ``Deadlock`` means the ready
queue is empty while nodes are unfinished.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from einstream.errors import Deadlock, GraphError, MalformedStream, RepeatUnderflow
from einstream.frontend.program import apply_pointwise, apply_pointwise_array
from einstream.graph import DONE, NULL, DataflowGraph, Stop
from einstream.sim.arrays import from_tokens
from einstream.sim.engine import SimConfig, SimReport, _finalize
from einstream.tensors import DenseLevel, INDEX_BYTES, ELEMENT_BYTES


class NodeContext:
    """One node's local clock and accounting, updated by its process."""

    __slots__ = ("clock", "flops", "bytes_read", "touched", "records")

    def __init__(self):
        self.clock = 0
        self.flops = None  # None until the node accounts any, even 0
        self.bytes_read = 0
        self.touched: set = set()
        self.records: list = []

    def add_flops(self, n: int):
        self.flops = n if self.flops is None else self.flops + n

    def touch(self, key, nbytes: int):
        if key not in self.touched:
            self.touched.add(key)
            self.bytes_read += nbytes


def _merge(pending, level):
    """Returns (new_pending, level_to_flush_first_or_None)."""
    if pending is None or level > pending:
        return level, None
    return level, pending


def _is_boundary(tok):
    return isinstance(tok, Stop) or tok is DONE


def _zero(tok):
    if isinstance(tok, np.ndarray):
        return not np.any(tok)
    return tok == 0.0


# --- memory-side processes ------------------------------------------------


def proc_root(ctx):
    yield ("send", "ref", 0)
    ctx.clock += 1
    yield ("send", "ref", DONE)


def proc_scan(ctx, tensor, level_idx: int, mem_latency: int, mult=None, stride=None):
    # Dense refs are affine: ref_out = ref_in * mult + crd * stride.  The
    # defaults give in-storage-order nesting; explicit values let a run of
    # dense levels be iterated in any order (each level then contributes
    # its own storage stride exactly once).
    level = tensor.levels[level_idx]
    dense = isinstance(level, DenseLevel)
    if dense:
        mult = level.size if mult is None else mult
        stride = 1 if stride is None else stride
    pending = None
    while True:
        tok = yield ("recv", "ref")
        if tok is DONE:
            yield ("send", "crd", DONE)
            yield ("send", "ref", DONE)
            return
        if isinstance(tok, Stop):
            pending, flush = _merge(pending, tok.level + 1)
            if flush is not None:
                yield ("send", "crd", Stop(flush))
                yield ("send", "ref", Stop(flush))
            continue
        if pending is not None:
            yield ("send", "crd", Stop(pending))
            yield ("send", "ref", Stop(pending))
            pending = None
        if tok is not NULL:
            p = tok
            ctx.clock += mem_latency
            if dense:
                for m in range(level.size):
                    yield ("send", "crd", m)
                    yield ("send", "ref", p * mult + m * stride)
                    ctx.clock += 1
            else:
                ctx.touch(("seg", level_idx, p), INDEX_BYTES)
                ctx.touch(("seg", level_idx, p + 1), INDEX_BYTES)
                start, end = level.segments[p], level.segments[p + 1]
                for pos in range(start, end):
                    ctx.touch(("crd", level_idx, pos), INDEX_BYTES)
                    yield ("send", "crd", int(level.coords[pos]))
                    yield ("send", "ref", pos)
                    ctx.clock += 1
        pending, flush = _merge(pending, 0)
        assert flush is None


def proc_vals(ctx, tensor, mem_latency: int):
    blocked = tensor.is_blocked
    fill_block = np.zeros(tensor.values.shape[1:]) if blocked else None
    elem_bytes = ELEMENT_BYTES * (fill_block.size if blocked else 1)
    fresh = True
    while True:
        tok = yield ("recv", "ref")
        if tok is DONE:
            yield ("send", "val", DONE)
            return
        if isinstance(tok, Stop):
            yield ("send", "val", tok)
            fresh = True
            continue
        if fresh:
            ctx.clock += mem_latency
            fresh = False
        if tok is NULL:
            val = fill_block if blocked else tensor.fill
        else:
            ctx.touch(("val", tok), elem_bytes)
            val = tensor.values[tok] if blocked else float(tensor.values[tok])
        yield ("send", "val", val)
        ctx.clock += 1


# --- stream combinators ---------------------------------------------------


def _pair(cport, pport):
    """Receive one (crd, payload) element or a shared boundary token."""
    c = yield ("recv", cport)
    p = yield ("recv", pport)
    if _is_boundary(c) or _is_boundary(p):
        if p is not c:
            raise MalformedStream(f"{cport}/{pport} desynchronized: {c} vs {p}")
        return c
    return (c, p)


def proc_join(ctx, mode: str):
    """Two-finger co-iteration; mode is 'intersect' or 'union'."""
    keep_single = mode == "union"
    t0 = yield from _pair("crd0", "p0")
    t1 = yield from _pair("crd1", "p1")
    while True:
        b0, b1 = not isinstance(t0, tuple), not isinstance(t1, tuple)
        if b0 and b1:
            if t0 is t1:
                for port in ("crd", "p0", "p1"):
                    yield ("send", port, t0)
                if t0 is DONE:
                    return
                t0 = yield from _pair("crd0", "p0")
                t1 = yield from _pair("crd1", "p1")
            elif t0 is DONE or t1 is DONE:
                # one input finished: remaining fibers pair with implicit
                # empty trailing fibers; forward the other side's stops
                stop = t1 if t0 is DONE else t0
                for port in ("crd", "p0", "p1"):
                    yield ("send", port, stop)
                if t0 is DONE:
                    t1 = yield from _pair("crd1", "p1")
                else:
                    t0 = yield from _pair("crd0", "p0")
            else:
                raise MalformedStream(f"join saw {t0} against {t1}")
        elif not b0 and not b1:
            c0, p0 = t0
            c1, p1 = t1
            if c0 == c1:
                yield ("send", "crd", c0)
                yield ("send", "p0", p0)
                yield ("send", "p1", p1)
                ctx.clock += 1
                t0 = yield from _pair("crd0", "p0")
                t1 = yield from _pair("crd1", "p1")
            elif c0 < c1:
                if keep_single:
                    yield ("send", "crd", c0)
                    yield ("send", "p0", p0)
                    yield ("send", "p1", NULL)
                ctx.clock += 1
                t0 = yield from _pair("crd0", "p0")
            else:
                if keep_single:
                    yield ("send", "crd", c1)
                    yield ("send", "p0", NULL)
                    yield ("send", "p1", p1)
                ctx.clock += 1
                t1 = yield from _pair("crd1", "p1")
        else:
            # one side still has elements, the other reached its boundary
            if b1:
                c0, p0 = t0
                if keep_single:
                    yield ("send", "crd", c0)
                    yield ("send", "p0", p0)
                    yield ("send", "p1", NULL)
                ctx.clock += 1
                t0 = yield from _pair("crd0", "p0")
            else:
                c1, p1 = t1
                if keep_single:
                    yield ("send", "crd", c1)
                    yield ("send", "p0", NULL)
                    yield ("send", "p1", p1)
                ctx.clock += 1
                t1 = yield from _pair("crd1", "p1")


def proc_repeat(ctx):
    cur = None
    have = False
    data_done = False

    def pull():
        tok = yield ("recv", "data")
        return tok

    while True:
        c = yield ("recv", "ctrl")
        if c is DONE:
            while not data_done:
                t = yield from pull()
                data_done = t is DONE
            yield ("send", "out", DONE)
            return
        if isinstance(c, Stop):
            if c.level == 0:
                if not have:
                    if data_done:
                        raise RepeatUnderflow("control group after data finished")
                    t = yield from pull()
                    if _is_boundary(t):
                        raise RepeatUnderflow(
                            "data fiber has fewer elements than control has groups"
                        )
                have = False
                cur = None
                yield ("send", "out", Stop(0))
            else:
                # closes the current element and the data fiber underneath
                while not data_done:
                    t = yield from pull()
                    if t is DONE:
                        data_done = True
                        break
                    if isinstance(t, Stop):
                        if t.level != c.level - 1:
                            raise MalformedStream(
                                f"repeat: control {c} against data {t}"
                            )
                        break
                have = False
                cur = None
                yield ("send", "out", c)
            continue
        if not have:
            if data_done:
                raise RepeatUnderflow("control token after data finished")
            t = yield from pull()
            if _is_boundary(t):
                raise RepeatUnderflow("control group outruns data elements")
            cur = t
            have = True
        yield ("send", "out", cur)
        ctx.clock += 1


# --- compute --------------------------------------------------------------


def _contract(expr, a, b):
    """``np.einsum(expr, a, b)`` as a plain loop over the contracted
    letters' index tuples, in letter order: each tuple's products over the
    whole output block, added to the sum so far (a left fold)."""
    ins, out = expr.split("->")
    sa, sb = ins.split(",")
    extent = {**dict(zip(sa, a.shape)), **dict(zip(sb, b.shape))}
    summed = sorted(set(sa + sb) - set(out))

    def over_out(x, s, fixed):
        """``x`` at the fixed letters, its other axes put in output order,
        size 1 where ``s`` lacks an output letter."""
        x = x[tuple(fixed.get(v, slice(None)) for v in s)]
        rest = [v for v in s if v not in fixed]
        x = x.transpose([rest.index(v) for v in out if v in rest])
        return x.reshape([extent[v] if v in rest else 1 for v in out])

    acc = None
    for idx in product(*(range(extent[v]) for v in summed)):
        fixed = dict(zip(summed, idx))
        term = over_out(a, sa, fixed) * over_out(b, sb, fixed)
        acc = term if acc is None else acc + term
    return acc


def _fold(x, axes, binary):
    """``binary`` folded left along each of ``axes``, the last first."""
    for axis in sorted(axes, reverse=True):
        x = np.moveaxis(x, axis, 0)
        acc = x[0]
        for k in range(1, len(x)):
            acc = binary(acc, x[k])
        x = acc
    return x


def _block_binary(op, a, b, spec):
    if spec["mode"] == "einsum":
        return _contract(spec["expr"], a, b)
    # elementwise with axis maps: place each operand's axes at the given
    # output positions, broadcast the rest
    nd = spec["out_ndim"]

    def lift(x, bmap):
        if not isinstance(x, np.ndarray):
            return x
        shape = [1] * nd
        for axis, outpos in enumerate(bmap):
            shape[outpos] = x.shape[axis]
        return x.reshape(shape)

    aa, bb = lift(a, spec["bmap0"]), lift(b, spec["bmap1"])
    if op == "add":
        return aa + bb
    if op == "sub":
        return aa - bb
    if op == "mul":
        return aa * bb
    if op == "max":
        return np.maximum(aa, bb)
    if op == "div":
        aa, bb = np.broadcast_arrays(aa, bb)
        out = np.zeros(aa.shape)
        nz = (aa != 0) & (bb != 0)  # as the oracle: 0 unless both are nonzero
        out[nz] = aa[nz] / bb[nz]
        return out
    raise GraphError(f"unknown alu op {op!r}")


def _scalar_binary(op, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "max":
        return a if a >= b else b
    if op == "div":
        return 0.0 if a == 0.0 or b == 0.0 else a / b
    raise GraphError(f"unknown alu op {op!r}")


def proc_alu(ctx, op: str, block: dict | None):
    flops_each = block["flops"] if block else 1
    while True:
        a = yield ("recv", "in0")
        b = yield ("recv", "in1")
        if _is_boundary(a) or _is_boundary(b):
            if a is not b:
                raise MalformedStream(f"alu inputs desynchronized: {a} vs {b}")
            yield ("send", "out", a)
            if a is DONE:
                return
            continue
        # a union joiner pads the absent side with NULL; it contributes zero
        if a is NULL:
            a = 0.0
        if b is NULL:
            b = 0.0
        out = _block_binary(op, a, b, block) if block else _scalar_binary(op, a, b)
        yield ("send", "out", out)
        ctx.clock += 1
        ctx.add_flops(flops_each)


def proc_map(ctx, fn):
    while True:
        tok = yield ("recv", "in")
        if tok is DONE:
            yield ("send", "out", DONE)
            return
        if isinstance(tok, Stop):
            yield ("send", "out", tok)
            continue
        if isinstance(tok, np.ndarray):
            yield ("send", "out", apply_pointwise_array(fn, tok))
            n = int(np.count_nonzero(tok))
        else:
            yield ("send", "out", apply_pointwise(fn, tok))
            n = 1
        ctx.clock += 1
        ctx.add_flops(n)


def proc_reduce(ctx, op: str, intra: tuple, zero_shape):
    acc = None
    count = 0

    def finish():
        nonlocal acc, count
        out = acc
        flops = 0
        if out is None:
            out = np.zeros(zero_shape) if zero_shape else 0.0
        if intra and isinstance(out, np.ndarray):
            before = out.size
            out = _fold(out, intra, np.maximum if op == "max" else np.add)
            after = out.size if isinstance(out, np.ndarray) else 1
            flops += before - after
        acc = None
        count = 0
        return out, flops

    while True:
        tok = yield ("recv", "in")
        if isinstance(tok, Stop) or tok is DONE:
            out, extra = finish()
            yield ("send", "out", out)
            ctx.clock += 1
            if extra:
                ctx.add_flops(extra)
            if tok is DONE:
                yield ("send", "out", DONE)
                return
            if tok.level > 0:
                yield ("send", "out", Stop(tok.level - 1))
            continue
        if acc is None:
            acc = tok
        else:
            if isinstance(tok, np.ndarray):
                acc = np.maximum(acc, tok) if op == "max" else acc + tok
                ctx.add_flops(int(tok.size))
            else:
                acc = _scalar_binary("max" if op == "max" else "add", acc, tok)
                ctx.add_flops(1)
        count += 1
        ctx.clock += 1


def proc_red1(ctx):
    """Coordinate-keyed reduction across sibling fibers of one level."""
    table: dict[int, object] = {}

    def emit():
        for crd in sorted(table):
            yield ("send", "crd", crd)
            yield ("send", "val", table[crd])
            ctx.clock += 1
        table.clear()

    while True:
        c = yield ("recv", "crd")
        if _is_boundary(c):
            v = yield ("recv", "val")
            if v is not c:
                raise MalformedStream(f"red1 inputs desynchronized: {c} vs {v}")
            if c is DONE:
                yield from emit()
                yield ("send", "crd", DONE)
                yield ("send", "val", DONE)
                return
            if c.level == 0:
                continue  # fiber boundary inside the merge scope
            yield from emit()
            yield ("send", "crd", Stop(c.level - 1))
            yield ("send", "val", Stop(c.level - 1))
            continue
        v = yield ("recv", "val")
        if _is_boundary(v):
            raise MalformedStream("red1 value stream desynchronized")
        if c in table:
            prev = table[c]
            table[c] = prev + v
            ctx.add_flops(int(v.size) if isinstance(v, np.ndarray) else 1)
        else:
            table[c] = v
        ctx.clock += 1


def proc_crddrop_inner(ctx):
    """Innermost stage: drops (coordinate, value) pairs with zero value."""
    while True:
        c = yield ("recv", "outer")
        v = yield ("recv", "inner")
        if _is_boundary(c) or _is_boundary(v):
            if c is not v:
                raise MalformedStream(f"crddrop pair desynchronized: {c} vs {v}")
            yield ("send", "outer", c)
            yield ("send", "inner", c)
            if c is DONE:
                return
            continue
        ctx.clock += 1
        if _zero(v):
            continue
        yield ("send", "outer", c)
        yield ("send", "inner", v)


def proc_crddrop_outer(ctx):
    """Outer stage: drops coordinates whose inner group came out empty."""
    pend_in = pend_out = None
    cur = None
    emitted = False

    def take_outer(expect_stop=None):
        tok = yield ("recv", "outer")
        if expect_stop is None:
            if _is_boundary(tok):
                raise MalformedStream(f"crddrop outer stream early boundary {tok}")
        else:
            want = Stop(expect_stop)
            if tok is not want:
                raise MalformedStream(f"crddrop expected {want}, got {tok}")
        return tok

    while True:
        t = yield ("recv", "inner")
        if t is DONE:
            # remaining outer coordinates belong to trailing empty groups
            while True:
                tok = yield ("recv", "outer")
                if tok is DONE:
                    break
            yield ("send", "outer", DONE)
            yield ("send", "inner", DONE)
            return
        if isinstance(t, Stop):
            if cur is None:
                cur = yield from take_outer()
            if t.level == 0:
                if emitted:
                    pend_in, flush = _merge(pend_in, 0)
                    assert flush is None
            else:
                yield from take_outer(expect_stop=t.level - 1)
                pend_in, flush = _merge(pend_in, t.level)
                if flush is not None:
                    yield ("send", "inner", Stop(flush))
                pend_out, flush = _merge(pend_out, t.level - 1)
                if flush is not None:
                    yield ("send", "outer", Stop(flush))
            cur = None
            emitted = False
            continue
        if cur is None:
            cur = yield from take_outer()
        if not emitted:
            if pend_out is not None:
                yield ("send", "outer", Stop(pend_out))
                pend_out = None
            if pend_in is not None:
                yield ("send", "inner", Stop(pend_in))
                pend_in = None
            yield ("send", "outer", cur)
            ctx.clock += 1
            emitted = True
        yield ("send", "inner", t)
        ctx.clock += 1


# --- sinks and parallel plumbing -----------------------------------------


def proc_write(ctx, port: str):
    while True:
        tok = yield ("recv", port)
        ctx.records.append(tok)
        if tok is DONE:
            ctx.records = from_tokens(ctx.records)
            return
        if not isinstance(tok, Stop):
            ctx.clock += 1


def proc_par(ctx, factor: int, nstreams: int):
    rr = 0
    while True:
        toks = []
        for i in range(nstreams):
            toks.append((yield ("recv", f"in{i}")))
        head = toks[0]
        if _is_boundary(head):
            for tok in toks[1:]:
                if tok is not head:
                    raise MalformedStream("split bundle desynchronized")
            for k in range(factor):
                for i in range(nstreams):
                    yield ("send", f"out{k}_{i}", head)
            rr = 0
            if head is DONE:
                return
            continue
        for i, tok in enumerate(toks):
            yield ("send", f"out{rr}_{i}", tok)
        ctx.clock += 1
        rr = (rr + 1) % factor


# --- factory --------------------------------------------------------------


def build_process(node, ctx: NodeContext, tensors: dict, mem_latency: int):
    """The generator that runs ``node``, updating ``ctx`` as it goes."""
    kind, p = node.kind, node.params
    if kind == "root":
        return proc_root(ctx)
    if kind == "scan":
        return proc_scan(
            ctx,
            tensors[p["tensor"]],
            p["level"],
            mem_latency,
            p.get("mult"),
            p.get("stride"),
        )
    if kind == "vals":
        return proc_vals(ctx, tensors[p["tensor"]], mem_latency)
    if kind in ("intersect", "union"):
        return proc_join(ctx, kind)
    if kind == "repeat":
        return proc_repeat(ctx)
    if kind == "alu":
        return proc_alu(ctx, p["op"], p.get("block"))
    if kind == "map":
        return proc_map(ctx, p["fn"])
    if kind == "reduce":
        return proc_reduce(ctx, p["op"], tuple(p.get("intra", ())), p.get("zero_shape"))
    if kind == "red1":
        return proc_red1(ctx)
    if kind == "crddrop":
        if p.get("stage") == "inner":
            return proc_crddrop_inner(ctx)
        return proc_crddrop_outer(ctx)
    if kind == "write_crd":
        return proc_write(ctx, "crd")
    if kind == "write_val":
        return proc_write(ctx, "val")
    if kind == "par":
        return proc_par(ctx, p["factor"], p["nstreams"])
    raise GraphError(f"no process for node kind {kind!r}")

# --- scheduler ------------------------------------------------------------


@dataclass(slots=True, eq=False)  # eq=False: membership is tested by identity
class Channel:
    depth: int
    label: str
    writer: object  # the scheduler's node at each end
    reader: object
    queue: deque = field(default_factory=deque)  # (token, sender clock)
    closed: bool = False  # Done was sent


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
    """The generator engine's run; outputs and the report as ``engine.run``."""
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
