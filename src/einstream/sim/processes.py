"""Node behaviors as generators over a per-node context.

A process yields one of two effect tuples and is resumed by the engine:

    ("recv", port)          -> resumed with the next token on that port
    ("send", port, token)   -> delivered to every outgoing edge of the port

Everything else a node does is a direct update of the ``NodeContext`` that
``build_process`` hands it: ``clock`` (one cycle per processed element, plus
memory latency per fiber fetch), ``add_flops``, ``touch`` (bytes read,
counted once per distinct key) and ``records`` (a writer's transcript).

Boundary emission uses a single pending stop per producer: a new boundary
at a deeper level merges into the pending one (same closure point); at the
same or a shallower level the pending stop is flushed first (a visible
empty fiber).  The pending stop still held at Done is the final closure
and is dropped — no stream ends with a stop right before Done.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError, MalformedStream, RepeatUnderflow
from ..frontend.program import apply_pointwise, apply_pointwise_array
from ..graph import DONE, NULL, Stop
from ..tensors import DenseLevel, INDEX_BYTES, ELEMENT_BYTES


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


def _block_binary(op, a, b, spec):
    if spec["mode"] == "einsum":
        return np.einsum(spec["expr"], a, b)
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
            out = out.max(axis=intra) if op == "max" else out.sum(axis=intra)
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


def proc_ser(ctx, factor: int, depths: tuple):
    """Inverse-interleaves round-robin copies back into one bundle.

    depths[i] is stream i's nesting below the split level: a depth-0
    stream carries one token per split-level element, a depth-d stream a
    d-level group.  Stream 0 must be depth 0; it drives control.  The rest
    form a chain of increasing depth (each surviving level's coordinates,
    then the value stream at the deepest level).  Tokens are forwarded
    depth-first - a parent element before its nested group, equal-depth
    streams in lockstep - the order the unsplit pipeline emits, keeping
    the skew on every port bounded by the channel depth.  Group separators
    are re-emitted with the usual single-pending-stop rule, so a copy's
    final group (whose own separator was absorbed into the enclosing
    boundary) still merges cleanly.
    """
    n = len(depths)
    dmax = max(depths)
    by_depth: dict[int, list[int]] = {}
    for i in range(1, n):
        by_depth.setdefault(depths[i], []).append(i)
    held: dict[tuple[int, int], object] = {}
    pend: list = [None] * n
    rr = 0

    def take(k, i):
        if (k, i) in held:
            return held.pop((k, i))
        tok = yield ("recv", f"in{k}_{i}")
        return tok

    def flush(i):
        if pend[i] is not None:
            yield ("send", f"out{i}", Stop(pend[i]))
            pend[i] = None

    def put_sep(k, i, tok):
        """Forward a group separator; the split-element one is deferred so
        it can merge with the enclosing boundary or the next copy."""
        yield from flush(i)
        if tok.level == depths[i] - 1:
            pend[i] = tok.level
        else:
            yield ("send", f"out{i}", tok)

    def group(k, t, group):
        """Forward one depth-t group of copy k.  Returns the level the
        closing separators reached: t for a plain group end, less when an
        ancestor group closed with it, 0 at the bundle boundary.  It recurses
        through its last argument: a closure naming itself is a reference
        cycle only the cyclic GC frees."""
        streams = by_depth.get(t, ())
        while True:
            close = "none"
            for i in streams:
                tok = yield from take(k, i)
                if tok is DONE or (
                    isinstance(tok, Stop) and tok.level >= depths[i]
                ):
                    held[(k, i)] = tok  # enclosing boundary, bundle-level
                    # the copy's trailing separator was folded into this
                    # boundary; restore it so a following copy's group (or
                    # the re-emitted boundary) stays delimited
                    pend[i] = depths[i] - 1
                    mine = 0
                elif isinstance(tok, Stop):
                    mine = depths[i] - tok.level
                    yield from put_sep(k, i, tok)
                else:
                    mine = "none"
                    yield from flush(i)
                    yield ("send", f"out{i}", tok)
                    ctx.clock += 1
                if i == streams[0]:
                    close = mine
                elif close != mine:
                    raise MalformedStream(
                        f"merge bundle desynchronized at depth {t}: "
                        f"stream {i} gave {tok}"
                    )
            if close != "none":
                return close
            if t < dmax:
                sub = yield from group(k, t + 1, group)
                if sub <= t:
                    # nested levels closed through here; collect our own
                    # separators and hand the close upward
                    for i in streams:
                        tok = yield from take(k, i)
                        if sub == 0 and (
                            tok is DONE
                            or (isinstance(tok, Stop) and tok.level >= depths[i])
                        ):
                            held[(k, i)] = tok
                            pend[i] = depths[i] - 1
                        elif (
                            sub > 0
                            and isinstance(tok, Stop)
                            and depths[i] - tok.level == sub
                        ):
                            yield from put_sep(k, i, tok)
                        else:
                            raise MalformedStream(
                                f"merge bundle desynchronized at depth {t}: "
                                f"stream {i} gave {tok} while closing {sub}"
                            )
                    return sub

    # extra depth-0 streams carry exactly one token per split-level element
    # (e.g. values that survive with no nesting); they ride along with the
    # control stream instead of forming groups
    zero = tuple(by_depth.get(0, ()))
    while True:
        t0 = yield from take(rr, 0)
        if _is_boundary(t0):
            lvl = None if t0 is DONE else t0.level
            for k in range(factor):
                for i in range(n):
                    if k == rr and i == 0:
                        continue
                    want = DONE if t0 is DONE else Stop(lvl + depths[i])
                    tok = yield from take(k, i)
                    if tok is not want:
                        raise MalformedStream(
                            f"merge bundle desynchronized: copy {k} stream {i}"
                            f" gave {tok}, expected {want}"
                        )
            for i in range(n):
                pend[i] = None  # absorbed into the enclosing boundary
                yield ("send", f"out{i}", t0 if t0 is DONE else Stop(lvl + depths[i]))
            rr = 0
            if t0 is DONE:
                return
            continue
        yield ("send", "out0", t0)
        ctx.clock += 1
        for i in zero:
            tok = yield from take(rr, i)
            if tok is DONE or isinstance(tok, Stop):
                raise MalformedStream(
                    f"merge bundle desynchronized: stream {i} gave {tok}"
                    " alongside a split-level element"
                )
            yield ("send", f"out{i}", tok)
            ctx.clock += 1
        if dmax >= 1:
            yield from group(rr, 1, group)
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
    if kind == "ser":
        depths = tuple(p.get("depths") or (0,) * p["nstreams"])
        return proc_ser(ctx, p["factor"], depths)
    raise GraphError(f"no process for node kind {kind!r}")
