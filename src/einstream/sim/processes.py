"""Node kinds as plain functions over whole token streams.

Pass 1 of ``engine.run`` calls each node's function once, on the complete
token lists of its input ports.  A function fills the ``NodeRun`` it is
given:

* ``outs``: the token list of each output port;
* ``trace``: one byte per effect, in the order the node would issue them
  one token at a time: a port's index in ``graph.node_ports`` order
  (inputs, then outputs) for a recv or a send on it, or ``TICK`` when the
  node's own clock advances one cycle;
* ``flops`` (None until the node accounts any, even 0), ``bytes_read``
  (each address counted once) and, for writers, ``records``: the stream
  read, as the ``arrays.Stream`` that ``engine._finalize`` takes.

The own clock counts one cycle per processed element plus ``mem_latency``
cycles per fiber fetch; waiting for tokens is left out, and the engine
adds it from the arrival times.

Trace contract, which every node kind must meet:

* Read an input port's tokens strictly in order, and record the recv no
  later than taking the token, so that a read past the end of a stream
  that stopped early is in the trace.  Such a read raises
  ``StopIteration`` (``next``) or ends a ``for`` loop over the port; the
  engine leaves the node waiting there, so whatever the trace holds after
  it is never replayed.
* Record a send, then append the token; compute the token first, so an
  error computing it comes before the send.
* Raise errors as the node meets them: the engine raises the error once
  the node has got through every effect recorded before it, so record
  nothing the node has not done yet.
* Send Done last on each port, and nothing after it, even after an
  error; the engine does not check this at run time, and
  ``tests/test_sim_differential.py`` checks it on every compiled program.
* Depend on nothing but the input tokens: not on channel depth, other
  nodes or the order nodes run in.

Most kinds have a second implementation over whole arrays in ``arrays``
(``engine`` says which run).  It must give this module's trace bytes,
outputs, ``flops`` and ``bytes_read`` on the happy path and decline
everywhere else (``tests/test_sim_arrays.py``), so a change to one of
those loops changes its array function too.

Boundary emission uses a single pending stop per producer: a new boundary
at a deeper level merges into the pending one (same closure point); at the
same or a shallower level the pending stop is flushed first (a visible
empty fiber).  The pending stop still held at Done is the final closure
and is dropped — no stream ends with a stop right before Done.
"""

from __future__ import annotations

import operator
from itertools import product

import numpy as np

from ..errors import GraphError, MalformedStream, RepeatUnderflow
from ..frontend.program import apply_pointwise, apply_pointwise_array
from ..graph import DONE, NULL, Stop
from ..tensors import DenseLevel, INDEX_BYTES, ELEMENT_BYTES

TICK = 0xFF  # trace byte: the node's own clock advances one cycle
S0 = Stop(0)


class NodeRun:
    """What one node's function read, emitted and accounted."""

    __slots__ = ("ins", "outs", "trace", "flops", "bytes_read", "records")

    def __init__(self, ins: dict, out_ports):
        self.ins = ins  # input port -> token list
        self.outs = {p: [] for p in out_ports}
        self.trace = bytearray()
        self.flops = None
        self.bytes_read = 0
        self.records = None


def _merge(pending, level):
    """Returns (new_pending, level_to_flush_first_or_None)."""
    if pending is None or level > pending:
        return level, None
    return level, pending


def _is_boundary(tok):
    return tok.__class__ is Stop or tok is DONE


def _zero(tok):
    if isinstance(tok, np.ndarray):
        return not np.any(tok)
    return tok == 0.0


def _distinct_positions(tokens) -> int:
    """How many distinct positions a ref stream carries."""
    return sum(1 for tok in set(tokens) if tok.__class__ is int)


# --- memory-side nodes ----------------------------------------------------


def run_root(run):
    REF = 0
    run.trace += bytes((REF, TICK, REF))
    run.outs["ref"] += [0, DONE]


def run_scan(run, tensor, level_idx: int, mem_latency: int, mult=None, stride=None):
    # Dense refs are affine: ref_out = ref_in * mult + crd * stride.  The
    # defaults give in-storage-order nesting; explicit values let a run of
    # dense levels be iterated in any order (each level then contributes
    # its own storage stride exactly once).
    IN, CRD, REF = 0, 1, 2
    level = tensor.levels[level_idx]
    dense = isinstance(level, DenseLevel)
    if dense:
        mult = level.size if mult is None else mult
        stride = 1 if stride is None else stride
        size = level.size
        crds = list(range(size))
    else:
        segs, crds = level.segments.tolist(), level.coords.tolist()
        refs = list(range(len(crds)))  # one int object per position, shared
    tr = run.trace
    out_crd, out_ref = run.outs["crd"], run.outs["ref"]
    crd, ref = out_crd.append, out_ref.append
    fetch = bytes((TICK,)) * mem_latency
    elem = bytes((CRD, REF, TICK))
    stops = bytes((CRD, REF))
    fetched = set()  # parent positions whose fiber was read
    pending = None
    for tok in run.ins["ref"]:
        tr.append(IN)
        if tok is DONE:
            tr += stops
            crd(DONE)
            ref(DONE)
            break
        if tok.__class__ is Stop:
            pending, flush = _merge(pending, tok.level + 1)
            if flush is not None:
                tr += stops
                crd(Stop(flush))
                ref(Stop(flush))
            continue
        if pending is not None:
            tr += stops
            crd(Stop(pending))
            ref(Stop(pending))
        if tok is not NULL:
            tr += fetch
            if dense:
                base = tok * mult
                tr += elem * size
                out_crd += crds
                out_ref += range(base, base + size * stride, stride) if stride else [base] * size
            else:
                start, end = segs[tok], segs[tok + 1]
                fetched.add(tok)
                tr += elem * (end - start)
                out_crd += crds[start:end]
                out_ref += refs[start:end]
        pending = 0
    else:
        tr.append(IN)
    if fetched:  # segment bounds p and p + 1, and the coordinates between
        bounds = fetched | {p + 1 for p in fetched}
        ncrd = sum(segs[p + 1] - segs[p] for p in fetched)
        run.bytes_read = INDEX_BYTES * (len(bounds) + ncrd)


def run_vals(run, tensor, mem_latency: int):
    IN, VAL = 0, 1
    if tensor.is_blocked:
        zero = np.zeros(tensor.values.shape[1:])  # what NULL reads
        values = list(tensor.values)  # one view per block, shared by its reads
        elem_bytes = ELEMENT_BYTES * zero.size
    else:
        zero = 0.0
        values = tensor.values.tolist()
        elem_bytes = ELEMENT_BYTES
    tr, out = run.trace, run.outs["val"].append
    fetch = bytes((IN,)) + bytes((TICK,)) * mem_latency + bytes((VAL, TICK))
    elem = bytes((IN, VAL, TICK))
    stop = bytes((IN, VAL))
    fresh = True
    refs = run.ins["ref"]
    for tok in refs:
        if tok.__class__ is Stop:
            tr += stop
            out(tok)
            fresh = True
            continue
        if tok is DONE:
            tr += stop
            out(DONE)
            break
        try:
            val = zero if tok is NULL else values[tok]
        except Exception:
            tr.append(IN)  # the recv happened; the lookup failed
            raise
        if fresh:
            tr += fetch
            fresh = False
        else:
            tr += elem
        out(val)
    else:
        tr.append(IN)
    run.bytes_read = elem_bytes * _distinct_positions(refs)


# --- stream combinators ---------------------------------------------------


def run_join(run, mode: str):
    """Two-finger co-iteration; mode is 'intersect' or 'union'."""
    keep_single = mode == "union"
    ins, tr = run.ins, run.trace
    oc, o0, o1 = run.outs["crd"].append, run.outs["p0"].append, run.outs["p1"].append
    crd0, p0n = iter(ins["crd0"]).__next__, iter(ins["p0"]).__next__
    crd1, p1n = iter(ins["crd1"]).__next__, iter(ins["p1"]).__next__
    recv0, recv1 = bytes((0, 1)), bytes((2, 3))  # crd0, p0 / crd1, p1
    send, send_tick = bytes((4, 5, 6)), bytes((4, 5, 6, TICK))  # crd, p0, p1
    tick = bytes((TICK,))
    need0 = need1 = True
    while True:
        # each side's next element (c, p), or its boundary token in c
        if need0:
            tr += recv0
            c0 = crd0()
            p0 = p0n()
            b0 = c0.__class__ is Stop or c0 is DONE
            if (b0 or p0.__class__ is Stop or p0 is DONE) and p0 is not c0:
                raise MalformedStream(f"crd0/p0 desynchronized: {c0} vs {p0}")
        if need1:
            tr += recv1
            c1 = crd1()
            p1 = p1n()
            b1 = c1.__class__ is Stop or c1 is DONE
            if (b1 or p1.__class__ is Stop or p1 is DONE) and p1 is not c1:
                raise MalformedStream(f"crd1/p1 desynchronized: {c1} vs {p1}")
        if not b0 and not b1 and c0 == c1:
            tr += send_tick
            oc(c0)
            o0(p0)
            o1(p1)
            need0 = need1 = True
        elif not b0 and (b1 or c0 < c1):  # side 0's element comes first
            if keep_single:
                tr += send_tick
                oc(c0)
                o0(p0)
                o1(NULL)
            else:
                tr += tick
            need0, need1 = True, False
        elif not b1:  # side 1's element comes first
            if keep_single:
                tr += send_tick
                oc(c1)
                o0(NULL)
                o1(p1)
            else:
                tr += tick
            need0, need1 = False, True
        elif c0 is c1:
            tr += send
            oc(c0)
            o0(c0)
            o1(c0)
            if c0 is DONE:
                return
            need0 = need1 = True
        elif c0 is DONE or c1 is DONE:
            # one input finished: remaining fibers pair with implicit empty
            # trailing fibers; forward the other side's stops
            stop = c1 if c0 is DONE else c0
            tr += send
            oc(stop)
            o0(stop)
            o1(stop)
            need0, need1 = c1 is DONE, c0 is DONE
        else:
            raise MalformedStream(f"join saw {c0} against {c1}")


def run_repeat(run):
    DATA, CTRL, OUT = 0, 1, 2
    tr, out = run.trace, run.outs["out"].append
    data = iter(run.ins["data"]).__next__
    elem = bytes((CTRL, OUT, TICK))
    cur = None
    have = False
    data_done = False
    for c in run.ins["ctrl"]:
        if have and c.__class__ is not Stop and c is not DONE:
            tr += elem
            out(cur)
            continue
        tr.append(CTRL)
        if c is DONE:
            while not data_done:
                tr.append(DATA)
                data_done = data() is DONE
            tr.append(OUT)
            out(DONE)
            return
        if c.__class__ is Stop:
            if c.level == 0:
                if not have:
                    if data_done:
                        raise RepeatUnderflow("control group after data finished")
                    tr.append(DATA)
                    if _is_boundary(data()):
                        raise RepeatUnderflow(
                            "data fiber has fewer elements than control has groups"
                        )
                tr.append(OUT)
                out(S0)
            else:
                # closes the current element and the data fiber underneath
                while not data_done:
                    tr.append(DATA)
                    d = data()
                    if d is DONE:
                        data_done = True
                        break
                    if d.__class__ is Stop:
                        if d.level != c.level - 1:
                            raise MalformedStream(f"repeat: control {c} against data {d}")
                        break
                tr.append(OUT)
                out(c)
            have = False
            cur = None
            continue
        if data_done:
            raise RepeatUnderflow("control token after data finished")
        tr.append(DATA)
        cur = data()
        if _is_boundary(cur):
            raise RepeatUnderflow("control group outruns data elements")
        have = True
        tr.append(OUT)
        tr.append(TICK)
        out(cur)
    else:
        tr.append(CTRL)


# --- compute --------------------------------------------------------------


def _div(a, b):
    """``a / b`` where both sides are nonzero, else 0 (as the oracle),
    broadcast."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    nz = (a != 0) & (b != 0)
    out[nz] = a[nz] / b[nz]
    return out


# the alu ops over arrays: on block payloads and, in ``arrays``, whole streams
ARRAY_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div}


def fold(x, axes, op=np.add):
    """``op`` folded left along each of ``axes`` of ``x``, the last first:
    ``x[0]``, then ``op(acc, x[k])`` for k = 1, 2, ... in index order.
    ``x.sum(axis)`` may add pairwise, and adds a 0.0 first, so its sums
    depend on the block layout and lose the sign of a -0.0."""
    for axis in sorted(axes, reverse=True):
        x = np.moveaxis(x, axis, 0)
        acc = x[0]
        for k in range(1, len(x)):
            acc = op(acc, x[k])
        x = acc
    return x


def contraction(expr: str):
    """``np.einsum(expr, a, b)`` with one summation order, as a function of
    two operands that may carry the same leading batch axes.

    Each product is exact (rounded once); the products are added in a left
    fold over the contracted letters' index tuples, in letter order, which
    is the loop order of the letters (``table._alu_spec``), one step at a
    time: the full product tensor is never built.  So a sum does not
    depend on the operands' layouts, and a batch of blocks gives each
    block the bits a call on that block alone gives.  A letter whose
    extents disagree raises ``ValueError``."""
    ins, out = expr.split("->")
    sa, sb = ins.split(",")
    summed = sorted(set(sa + sb) - set(out))
    plans: dict = {}  # operand shapes -> how to lift each, and the fold's steps

    def lift(shape, s):
        """The transpose and reshape that put an operand's summed axes
        first, in letter order, then its batch axes, then one axis per
        output letter (1 where ``s`` lacks it)."""
        nb = len(shape) - len(s)
        if nb < 0:
            raise ValueError(f"a {len(shape)}-axis operand for {s!r} in {expr!r}")
        at = {v: nb + k for k, v in enumerate(s)}
        mine = [at[v] for v in summed if v in at]
        axes = (*mine, *range(nb), *(at[v] for v in out if v in at))
        return axes, (
            *(shape[a] for a in mine), *shape[:nb], *(shape[at[v]] if v in at else 1 for v in out)
        )

    def plan(ka, kb):
        extent: dict = {}
        for shape, s in ((ka, sa), (kb, sb)):
            for v, n in zip(s, shape[len(shape) - len(s):]):
                if extent.setdefault(v, n) != n:
                    raise ValueError(f"letter {v!r} of {expr!r} has extents {extent[v]} and {n}")
        steps = [
            (
                tuple(i for i, v in zip(idx, summed) if v in sa),
                tuple(i for i, v in zip(idx, summed) if v in sb),
            )
            for idx in product(*(range(extent[v]) for v in summed))
        ]
        return lift(ka, sa), lift(kb, sb), steps

    def apply(a, b):
        a, b = np.asarray(a), np.asarray(b)
        key = a.shape, b.shape
        got = plans.get(key)
        if got is None:
            got = plans[key] = plan(*key)
        ((ta, ra), (tb, rb), steps) = got
        al, bl = a.transpose(ta).reshape(ra), b.transpose(tb).reshape(rb)
        (ia, ib), *rest = steps
        acc = al[ia] * bl[ib]
        for ia, ib in rest:
            acc += al[ia] * bl[ib]
        return acc

    return apply


def block_ndims(spec: dict) -> tuple[int, int]:
    """The axes of each operand block of a blocked alu."""
    if spec["mode"] == "einsum":
        sa, sb = spec["expr"].split("->")[0].split(",")
        return len(sa), len(sb)
    return len(spec["bmap0"]), len(spec["bmap1"])


def block_op(op: str, spec: dict):
    """A blocked alu's function of two blocks, or of two batches of blocks
    with the same leading axes: ``contraction`` in ``einsum`` mode; in
    ``ew`` mode ``ARRAY_OPS[op]`` with each operand's axes placed at their
    output positions and the rest broadcast.  A scalar operand (a NULL the
    alu read as 0.0) is broadcast as is; an unknown op raises when
    applied."""
    if spec["mode"] == "einsum":
        return contraction(spec["expr"])
    nd = spec["out_ndim"]

    def lift(x, bmap):
        if not isinstance(x, np.ndarray):
            return x
        nb = x.ndim - len(bmap)
        shape = [1] * nd
        for axis, outpos in enumerate(bmap):
            shape[outpos] = x.shape[nb + axis]
        return x.reshape(*x.shape[:nb], *shape)

    def apply(a, b):
        if op not in ARRAY_OPS:
            raise GraphError(f"unknown alu op {op!r}")
        return ARRAY_OPS[op](lift(a, spec["bmap0"]), lift(b, spec["bmap1"]))

    return apply


_SCALAR = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "max": lambda a, b: a if a >= b else b,
    "div": lambda a, b: 0.0 if a == 0.0 or b == 0.0 else a / b,
}


def scalar_op(op):
    """The scalar function of ``op``; an unknown op raises when applied."""

    def unknown(a, b):
        raise GraphError(f"unknown alu op {op!r}")

    return _SCALAR.get(op, unknown)


def run_alu(run, fn, flops: int):
    """``fn`` on each pair of elements: ``scalar_op`` of the op, or the
    ``block_op`` of a blocked alu; each counts ``flops``."""
    IN0, IN1, OUT = 0, 1, 2
    tr, out = run.trace, run.outs["out"].append
    in1 = iter(run.ins["in1"]).__next__
    recv = bytes((IN0, IN1))
    send = bytes((OUT, TICK))
    elems = 0
    for a in run.ins["in0"]:
        tr += recv
        b = in1()
        if (
            a.__class__ is Stop or a is DONE or b.__class__ is Stop or b is DONE
        ):
            if a is not b:
                raise MalformedStream(f"alu inputs desynchronized: {a} vs {b}")
            tr.append(OUT)
            out(a)
            if a is DONE:
                break
            continue
        # a union joiner pads the absent side with NULL; it contributes zero
        if a is NULL:
            a = 0.0
        if b is NULL:
            b = 0.0
        out(fn(a, b))
        tr += send
        elems += 1
    else:
        tr.append(IN0)
    if elems:
        run.flops = elems * flops


def run_map(run, fn):
    IN, OUT = 0, 1
    tr, out = run.trace, run.outs["out"].append
    stop, elem = bytes((IN, OUT)), bytes((IN, OUT, TICK))
    flops = None
    for tok in run.ins["in"]:
        if tok.__class__ is Stop or tok is DONE:
            tr += stop
            out(tok)
            if tok is DONE:
                break
            continue
        try:
            if isinstance(tok, np.ndarray):
                v = apply_pointwise_array(fn, tok)
                n = int(np.count_nonzero(tok))
            else:
                v = apply_pointwise(fn, tok)
                n = 1
        except Exception:
            tr.append(IN)  # the recv happened; applying fn failed
            raise
        tr += elem
        out(v)
        flops = n if flops is None else flops + n
    else:
        tr.append(IN)
    run.flops = flops


def run_reduce(run, op: str, intra: tuple, zero_shape):
    IN, OUT = 0, 1
    tr, out = run.trace, run.outs["out"].append
    scalar = scalar_op("max" if op == "max" else "add")
    ufunc = np.maximum if op == "max" else np.add
    elem = bytes((IN, TICK))
    acc = None
    flops = None
    for tok in run.ins["in"]:
        if tok.__class__ is Stop or tok is DONE:
            tr.append(IN)
            v = acc
            if v is None:
                v = np.zeros(zero_shape) if zero_shape else 0.0
            extra = 0
            if intra and isinstance(v, np.ndarray):
                before = v.size
                v = fold(v, intra, ufunc)
                extra = before - (v.size if isinstance(v, np.ndarray) else 1)
            acc = None
            tr.append(OUT)
            tr.append(TICK)
            out(v)
            if extra:
                flops = extra if flops is None else flops + extra
            if tok is DONE:
                tr.append(OUT)
                out(DONE)
                break
            if tok.level > 0:
                tr.append(OUT)
                out(Stop(tok.level - 1))
            continue
        tr += elem
        if acc is None:
            acc = tok
            continue
        if isinstance(tok, np.ndarray):
            acc = ufunc(acc, tok)
            n = int(tok.size)
        else:
            acc = scalar(acc, tok)
            n = 1
        flops = n if flops is None else flops + n
    else:
        tr.append(IN)
    run.flops = flops


def run_red1(run):
    """Coordinate-keyed reduction across sibling fibers of one level."""
    CRD, VAL, OCRD, OVAL = 0, 1, 2, 3
    tr = run.trace
    oc, ov = run.outs["crd"].append, run.outs["val"].append
    val = iter(run.ins["val"]).__next__
    recv = bytes((CRD, VAL))
    tick = bytes((TICK,))
    send = bytes((OCRD, OVAL))
    emit = bytes((OCRD, OVAL, TICK))
    table: dict[int, object] = {}
    flops = None
    for c in run.ins["crd"]:
        tr += recv
        v = val()
        if c.__class__ is Stop or c is DONE:
            if v is not c:
                raise MalformedStream(f"red1 inputs desynchronized: {c} vs {v}")
            if c is not DONE and c.level == 0:
                continue  # fiber boundary inside the merge scope
            tr += emit * len(table)
            for crd in sorted(table):
                oc(crd)
                ov(table[crd])
            table.clear()
            stop = DONE if c is DONE else Stop(c.level - 1)
            tr += send
            oc(stop)
            ov(stop)
            if c is DONE:
                break
            continue
        if v.__class__ is Stop or v is DONE:
            raise MalformedStream("red1 value stream desynchronized")
        if c in table:
            table[c] = table[c] + v
            n = int(v.size) if isinstance(v, np.ndarray) else 1
            flops = n if flops is None else flops + n
        else:
            table[c] = v
        tr += tick
    else:
        tr.append(CRD)
    run.flops = flops


def run_crddrop_inner(run):
    """Innermost stage: drops (coordinate, value) pairs with zero value."""
    OUTER, INNER, OOUT, OIN = 0, 1, 2, 3
    tr = run.trace
    oo, oi = run.outs["outer"].append, run.outs["inner"].append
    inner = iter(run.ins["inner"]).__next__
    recv = bytes((OUTER, INNER))
    send = bytes((OOUT, OIN))
    tick_send = bytes((TICK, OOUT, OIN))
    tick = bytes((TICK,))
    for c in run.ins["outer"]:
        tr += recv
        v = inner()
        if c.__class__ is Stop or c is DONE or v.__class__ is Stop or v is DONE:
            if c is not v:
                raise MalformedStream(f"crddrop pair desynchronized: {c} vs {v}")
            tr += send
            oo(c)
            oi(c)
            if c is DONE:
                break
            continue
        if _zero(v):
            tr += tick
            continue
        tr += tick_send
        oo(c)
        oi(v)
    else:
        tr.append(OUTER)


def run_crddrop_outer(run):
    """Outer stage: drops coordinates whose inner group came out empty."""
    OUTER, INNER, OOUT, OIN = 0, 1, 2, 3
    tr = run.trace
    oo, oi = run.outs["outer"].append, run.outs["inner"].append
    outer = iter(run.ins["outer"]).__next__
    pend_in = pend_out = None
    cur = None
    emitted = False

    def take_outer(expect_stop=None):
        tr.append(OUTER)
        tok = outer()
        if expect_stop is None:
            if _is_boundary(tok):
                raise MalformedStream(f"crddrop outer stream early boundary {tok}")
        else:
            want = Stop(expect_stop)
            if tok is not want:
                raise MalformedStream(f"crddrop expected {want}, got {tok}")
        return tok

    for tok in run.ins["inner"]:
        tr.append(INNER)
        if tok is DONE:
            # remaining outer coordinates belong to trailing empty groups
            while True:
                tr.append(OUTER)
                if outer() is DONE:
                    break
            tr += bytes((OOUT, OIN))
            oo(DONE)
            oi(DONE)
            break
        if tok.__class__ is Stop:
            if cur is None:
                cur = take_outer()
            if tok.level == 0:
                if emitted:
                    pend_in, flush = _merge(pend_in, 0)
                    assert flush is None
            else:
                take_outer(expect_stop=tok.level - 1)
                pend_in, flush = _merge(pend_in, tok.level)
                if flush is not None:
                    tr.append(OIN)
                    oi(Stop(flush))
                pend_out, flush = _merge(pend_out, tok.level - 1)
                if flush is not None:
                    tr.append(OOUT)
                    oo(Stop(flush))
            cur = None
            emitted = False
            continue
        if cur is None:
            cur = take_outer()
        if not emitted:
            if pend_out is not None:
                tr.append(OOUT)
                oo(Stop(pend_out))
                pend_out = None
            if pend_in is not None:
                tr.append(OIN)
                oi(Stop(pend_in))
                pend_in = None
            tr.append(OOUT)
            tr.append(TICK)
            oo(cur)
            emitted = True
        tr.append(OIN)
        tr.append(TICK)
        oi(tok)
    else:
        tr.append(INNER)


# --- sinks and parallel plumbing -----------------------------------------


def run_write(run, port: str):
    from .arrays import from_tokens  # local: arrays imports this module

    IN = 0
    tr = run.trace
    for tok in run.ins[port]:
        tr.append(IN)
        if tok is DONE:
            break
        if tok.__class__ is not Stop:
            tr.append(TICK)
    else:
        tr.append(IN)
    run.records = from_tokens(run.ins[port])


def run_par(run, factor: int, nstreams: int):
    """Splits a bundle round-robin: port ``in{i}`` is code i, ``out{k}_{i}``
    code nstreams * (k + 1) + i."""
    n = nstreams
    tr = run.trace
    take = [iter(run.ins[f"in{i}"]).__next__ for i in range(n)]
    outs = [run.outs[f"out{k}_{i}"].append for k in range(factor) for i in range(n)]
    rr = 0
    while True:
        toks = []
        for i in range(n):
            tr.append(i)
            toks.append(take[i]())
        head = toks[0]
        if _is_boundary(head):
            for tok in toks[1:]:
                if tok is not head:
                    raise MalformedStream("split bundle desynchronized")
            for j in range(factor * n):
                tr.append(n + j)
                outs[j](head)
            rr = 0
            if head is DONE:
                return
            continue
        for i, tok in enumerate(toks):
            tr.append(n * (rr + 1) + i)
            outs[rr * n + i](tok)
        tr.append(TICK)
        rr = (rr + 1) % factor
