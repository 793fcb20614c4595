"""Node functions over whole arrays: the node kinds of scalar and blocked
runs.

Each loop function of ``processes`` takes one Python step per token.
This module implements most node kinds a second time; ``engine`` says
which kinds have one here and when they run.  Here a stream is a
``Stream``: an int8 ``code`` per token (``ELEM``, ``END`` for Done, or k
for ``Stop(k)``), a ``val`` payload (int64 coordinates and positions, or
float64 values; arbitrary at boundaries) and a ``null`` mask where a union
padded the stream with NULL.  In a blocked run a value payload holds one
block per token: its shape is ``(n, *block_shape)``, and the nodes that
only move tokens carry the trailing axes along.  Each array function
reads and writes a ``NodeRun`` as its loop does, with streams in ``ins``
and ``outs``, and computes the outputs, the byte trace, ``flops`` and
``bytes_read`` of the whole stream at once, byte for byte what its loop
in ``processes`` produces.

**Happy path only.**  Only the loop functions raise stream errors and
record error traces.  An array function raises ``Decline`` instead, before
its first output, wherever its input leaves the path it implements: a
stream without exactly one Done, at its end; two inputs that must agree on
their boundaries and do not; stop levels that do not match; a NULL where
its loop would raise, or would hand a blocked alu the scalar 0.0; blocks
whose shapes do not fit the node.  The engine then runs the whole run
again on the loop functions.

Bit-exactness: ``red1`` and ``reduce`` add each coordinate's or fiber's
values in arrival order (a left fold, one numpy op per rank), never
pairwise; a blocked alu calls its loop's ``processes.block_op`` on the
whole batch of blocks, whose ``contraction`` gives each block the bits a
call on that block alone gives; a blocked ``reduce`` folds its ``intra``
axes with the loop's ``processes.fold``; scalar ``alu`` applies
``processes.ARRAY_OPS``, whose ``div`` is 0 where either side is 0;
numpy's floating-point warnings are silenced where Python floats would
give inf or nan silently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..frontend.program import apply_pointwise_array
from ..graph import DONE, Stop
from ..tensors import ELEMENT_BYTES, INDEX_BYTES, DenseLevel
from .processes import TICK, fold

ELEM, END = -1, -2  # token codes of an element and of Done; Stop(k) is k
_KEY_LIMIT = 2**62  # (fiber, coordinate) sort keys must stay below this


class Decline(Exception):
    """The input is off the path the array function implements."""


class Stream(NamedTuple):
    code: np.ndarray  # int8 per token: ELEM, END, or the level of a Stop
    val: np.ndarray  # payload per token, int64 or float64; arbitrary at boundaries
    null: np.ndarray | None  # True where a token is NULL; None when none is


def from_tokens(toks: list) -> Stream:
    """A token list without NULL as a ``Stream``, with 0 at the
    boundaries."""
    code = np.array(
        [END if t is DONE else t.level if t.__class__ is Stop else ELEM for t in toks],
        dtype=np.int8,
    )
    elem = code == ELEM
    elems = np.array([t for t, e in zip(toks, elem.tolist()) if e])
    val = np.zeros((len(toks), *elems.shape[1:]), dtype=elems.dtype)
    val[elem] = elems
    return Stream(code, val, None)


# --- helpers -------------------------------------------------------------


def _check(*streams) -> None:
    """Each stream ends with its one Done."""
    for s in streams:
        c = s.code
        if not len(c) or c[-1] != END or np.count_nonzero(c == END) != 1:
            raise Decline("a stream without exactly one Done, at its end")


def _paired(a: Stream, b: Stream) -> None:
    """Two inputs read in lockstep carry the same boundaries."""
    if len(a.code) != len(b.code) or not np.array_equal(a.code, b.code):
        raise Decline("inputs read in lockstep disagree on their boundaries")


def _values(s: Stream) -> np.ndarray:
    """The float payload of a value stream that carries no NULL."""
    if s.val.dtype != np.float64 or (s.null is not None and s.null.any()):
        raise Decline("not a float value stream")
    return s.val


def _coords(s: Stream) -> np.ndarray:
    """The payload of a coordinate stream: non-negative ints, no NULL."""
    if s.val.dtype.kind != "i" or (s.null is not None and s.null.any()):
        raise Decline("not a coordinate stream")
    if len(s.val) and s.val.min() < 0:
        raise Decline("negative coordinate")
    return s.val


def _weave(patterns, ids) -> bytearray:
    """The concatenation of ``patterns[k]`` for each k in ``ids``."""
    lens = np.array([len(p) for p in patterns], dtype=np.int32)  # int32 halves the index traffic
    table = np.frombuffer(b"".join(patterns), dtype=np.uint8)
    return bytearray(table[_ranges((np.cumsum(lens, dtype=np.int32) - lens)[ids], lens[ids])])


def _compact(key: np.ndarray):
    """``np.unique(key, return_inverse=True)`` for small non-negative keys,
    without a sort."""
    present = np.zeros(int(key.max(initial=0)) + 1, dtype=bool)
    present[key] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[key]


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The concatenation of ``range(lo[k], lo[k] + n[k])``, in lo's dtype."""
    end = np.cumsum(n, dtype=lo.dtype)
    out = np.repeat(lo - end + n, n)
    out += np.arange(len(out), dtype=out.dtype)
    return out


def _heads(head: np.ndarray, head_code: np.ndarray, count: np.ndarray):
    """The codes of a stream in which input token i emits an optional
    boundary ``head_code[i]`` and then ``count[i]`` elements; returns the
    codes and the mask of element slots."""
    per = head + count
    end = np.cumsum(per)
    code = np.full(int(end[-1]) if len(end) else 0, ELEM, dtype=np.int8)
    code[(end - per)[head]] = head_code[head]
    return code, code == ELEM


def _fill(code: np.ndarray, slot: np.ndarray, s: Stream, at: np.ndarray) -> Stream:
    """A stream of ``code`` whose element slots carry ``s``'s tokens at
    positions ``at``, in order."""
    val = np.zeros((len(code), *s.val.shape[1:]), dtype=s.val.dtype)
    val[slot] = s.val[at]
    null = None
    if s.null is not None:
        null = np.zeros(len(code), dtype=bool)
        null[slot] = s.null[at]
    return Stream(code, val, null)


def _take(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """``a[i]`` where i is in range; elsewhere any value of a's dtype."""
    if not len(a):
        return np.zeros((len(i), *a.shape[1:]), dtype=a.dtype)
    return a.take(i, axis=0, mode="clip")


def _fold_runs(x: np.ndarray, start: np.ndarray, size: np.ndarray, op=np.add) -> np.ndarray:
    """Each run ``x[start[g]:start[g] + size[g]]`` folded left with ``op``,
    one numpy op per rank (never pairwise); zeros for an empty run."""
    acc = np.zeros((len(start), *x.shape[1:]), dtype=x.dtype)
    live = np.flatnonzero(size)
    acc[live] = x[start[live]]
    r = 1
    with np.errstate(all="ignore"):
        while True:
            live = live[size[live] > r]
            if not len(live):
                return acc
            acc[live] = op(acc[live], x[start[live] + r])
            r += 1


def _prev(x: np.ndarray, first) -> np.ndarray:
    """``x`` shifted one place later, ``first`` in front."""
    out = np.empty_like(x)
    if len(x):
        out[0] = first
        out[1:] = x[:-1]
    return out


# --- memory-side nodes ----------------------------------------------------


def root(run):
    run.trace = bytearray((0, TICK, 0))
    run.outs["ref"] = Stream(
        np.array([ELEM, END], dtype=np.int8), np.zeros(2, dtype=np.int64), None
    )


def scan(run, tensor, level_idx: int, mem_latency: int, mult=None, stride=None):
    ref = run.ins["ref"]
    _check(ref)
    c, v = ref.code, ref.val
    if v.dtype.kind != "i" or c.max() == np.iinfo(np.int8).max:  # its level + 1 wraps
        raise Decline("scan input")
    elem = c == ELEM
    done = c == END
    # the pending stop after each token: 0 after an element, l + 1 after
    # Stop(l); a token flushes the one before it (-1: none yet) when it is
    # an element, or a stop no deeper than it
    lvl = c.astype(np.int16) + 1
    prev = _prev(np.where(elem, 0, lvl), -1)
    head = np.where(elem, prev >= 0, (c >= 0) & (lvl <= prev)) | done
    head_code = np.where(done, END, prev).astype(np.int8)
    fetch = elem if ref.null is None else elem & ~ref.null
    p = v[fetch]
    level = tensor.levels[level_idx]
    bytes_read = 0
    if isinstance(level, DenseLevel):
        size = level.size
        mult = size if mult is None else mult
        stride = 1 if stride is None else stride
        if len(p) and (p.min() < 0 or int(p.max()) * abs(mult) + size * abs(stride) >= _KEY_LIMIT):
            raise Decline("dense position out of range")
        n = np.full(len(p), size, dtype=np.int64)
        crd = np.tile(np.arange(size, dtype=np.int64), len(p))
        refs = np.repeat(p * mult, size) + crd * stride
    else:
        segs = level.segments
        if len(p) and (p.min() < 0 or p.max() >= len(segs) - 1):
            raise Decline("compressed position out of range")
        lo = segs[p]
        n = segs[p + 1] - lo
        refs = _ranges(lo, n)
        crd = level.coords[refs]
        if len(p):  # segment bounds q and q + 1, and the coordinates between
            fetched = np.zeros(len(segs) - 1, dtype=bool)
            fetched[p] = True
            bounds = np.zeros(len(segs), dtype=bool)
            bounds[:-1] = fetched
            bounds[1:] |= fetched
            ncrd = int(np.diff(segs)[fetched].sum())
            bytes_read = INDEX_BYTES * (int(np.count_nonzero(bounds)) + ncrd)
    count = np.zeros(len(c), dtype=np.int64)
    count[fetch] = n
    code, slot = _heads(head, head_code, count)
    crd_val = np.zeros(len(code), dtype=np.int64)
    crd_val[slot] = crd
    ref_val = np.zeros(len(code), dtype=np.int64)
    ref_val[slot] = refs
    run.outs["crd"] = Stream(code, crd_val, None)
    run.outs["ref"] = Stream(code, ref_val, None)
    # per input token: IN, the stop it flushes, the fetch, its fiber
    IN, CRD, REF = 0, 1, 2
    m = int(count.max(initial=0)) + 1
    kinds, ids = _compact((head * 2 + fetch) * m + count)
    patterns = []
    for k in kinds.tolist():
        flag, size = divmod(k, m)
        stops, fetches = flag >> 1, (flag & 1) * mem_latency
        patterns.append(
            bytes((IN,)) + bytes((CRD, REF)) * stops + bytes((TICK,)) * fetches
            + bytes((CRD, REF, TICK)) * size
        )
    run.trace = _weave(patterns, ids)
    run.bytes_read = bytes_read


def vals(run, tensor, mem_latency: int):
    IN, VAL = 0, 1
    ref = run.ins["ref"]
    _check(ref)
    c, v = ref.code, ref.val
    values = tensor.values
    if v.dtype.kind != "i" or values.dtype != np.float64:
        raise Decline("vals input")
    elem = c == ELEM
    stored = elem if ref.null is None else elem & ~ref.null
    p = v[stored]
    if len(p) and (p.min() < 0 or p.max() >= len(values)):
        raise Decline("position out of range")
    out = np.zeros((len(c), *values.shape[1:]))  # NULL reads 0.0
    out[stored] = values[p]
    run.outs["val"] = Stream(c, out, None)
    fresh = elem & _prev(c != ELEM, True)  # the first element of a fiber
    patterns = (
        bytes((IN, VAL)),
        bytes((IN,)) + bytes((TICK,)) * mem_latency + bytes((VAL, TICK)),
        bytes((IN, VAL, TICK)),
    )
    run.trace = _weave(patterns, np.where(elem, np.where(fresh, 1, 2), 0))
    seen = np.zeros(len(values), dtype=bool)
    seen[p] = True
    run.bytes_read = ELEMENT_BYTES * math.prod(values.shape[1:]) * int(np.count_nonzero(seen))


# --- stream combinators ---------------------------------------------------

# join steps, in the order of the loop's cases
_MATCH, _ONLY0, _ONLY1, _STOPS, _DONE1, _DONE0, _DONE = range(7)


def join(run, mode: str):
    """``run_join``: the steps of its two-finger loop are the sorted
    (fiber, coordinate) keys of both sides, equal keys merged, with a
    boundary step closing each fiber."""
    ins = run.ins
    c0, p0, c1, p1 = ins["crd0"], ins["p0"], ins["crd1"], ins["p1"]
    _check(c0, p0, c1, p1)
    _paired(c0, p0)
    _paired(c1, p1)
    x0, x1 = _coords(c0), _coords(c1)
    e0, e1 = np.flatnonzero(c0.code == ELEM), np.flatnonzero(c1.code == ELEM)
    b0, b1 = np.flatnonzero(c0.code != ELEM), np.flatnonzero(c1.code != ELEM)
    k0, k1 = len(b0), len(b1)
    k, m = max(k0, k1), min(k0, k1)
    # boundaries meet in pairs; a side past its Done pairs its stops with it
    if not np.array_equal(c0.code[b0[: m - 1]], c1.code[b1[: m - 1]]):
        raise Decline("join inputs disagree on a stop")
    x0, x1 = x0[e0], x1[e1]
    w = max(x0.max(initial=-1), x1.max(initial=-1)) + 2
    if k * w >= _KEY_LIMIT:
        raise Decline("join keys overflow")
    # fiber of an element: the boundaries before it
    key0 = (e0 - np.arange(len(e0))) * w + x0
    key1 = (e1 - np.arange(len(e1))) * w + x1
    if (np.diff(key0) <= 0).any() or (np.diff(key1) <= 0).any():
        raise Decline("join fiber not sorted")
    n0, n1 = len(key0), len(key1)
    keys = np.concatenate((key0, key1, np.arange(k, dtype=np.int64) * w + (w - 1)))
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    pair = np.zeros(len(sk), dtype=bool)  # side 0's half of a match
    pair[:-1] = sk[1:] == sk[:-1]
    at = np.flatnonzero(~_prev(pair, False))  # each step's first entry
    first, matched = order[at], pair[at]
    lo = first < n0  # the step takes a side-0 element
    f = first - n0 - n1  # fiber a boundary step closes
    bound = f >= 0
    fb = f[bound]
    d0, d1 = fb >= k0 - 1, fb >= k1 - 1  # a side at or past its Done
    kind = np.full(len(first), _ONLY1, dtype=np.int8)
    kind[lo] = _ONLY0
    kind[matched] = _MATCH
    kind[bound] = np.where(d0, np.where(d1, _DONE, _DONE0), np.where(d1, _DONE1, _STOPS))
    send = bytes((4, 5, 6))
    only = send + bytes((TICK,)) if mode == "union" else bytes((TICK,))
    patterns = (
        send + bytes((TICK, 0, 1, 2, 3)),
        only + bytes((0, 1)),
        only + bytes((2, 3)),
        send + bytes((0, 1, 2, 3)),
        send + bytes((0, 1)),
        send + bytes((2, 3)),
        send,
        bytes((0, 1, 2, 3)),  # both sides' first recv
    )
    run.trace = _weave(patterns, np.concatenate(([7], kind)))
    # each step's side-1 element: a match's is the entry after its side-0 one
    second = np.where(matched, order.take(at + 1, mode="clip"), first) - n0
    code = np.full(len(kind), ELEM, dtype=np.int8)
    stop0 = c0.code[b0[np.minimum(fb, k0 - 1)]]
    stop1 = c1.code[b1[np.minimum(fb, k1 - 1)]]
    code[bound] = np.where(d0 & d1, END, np.where(d0, stop1, stop0))
    crd = sk[at] % w
    has0, has1 = lo, (~lo | matched) & ~bound
    if mode == "intersect":  # only matches and boundaries send
        keep = matched | bound
        code, crd, first, second, has0, has1 = (
            a[keep] for a in (code, crd, first, second, has0, has1)
        )
    run.outs["crd"] = Stream(code, crd, None)
    elem = code == ELEM
    for port, p, e, i, has in (("p0", p0, e0, first, has0), ("p1", p1, e1, second, has1)):
        null = elem & ~has  # a union's NULL padding
        if p.null is not None:
            null |= has & _take(p.null[e], i)
        run.outs[port] = Stream(code, _take(p.val[e], i), null if null.any() else None)


def repeat(run):
    """``run_repeat``: each control group takes one data element, and each
    control boundary above level 0 (or Done) closes one data fiber."""
    DATA, CTRL, OUT = 0, 1, 2
    data, ctrl = run.ins["data"], run.ins["ctrl"]
    _check(data, ctrl)
    cc, dc = ctrl.code, data.code
    bc = np.flatnonzero(cc != ELEM)  # control boundaries; group g ends at bc[g]
    sup = cc[bc] != 0  # a stop above level 0, or Done: also ends a data fiber
    bd = np.flatnonzero(dc != ELEM)
    want = cc[bc[sup]]
    if len(bd) != len(want) or not np.array_equal(np.where(want == END, END, want - 1), dc[bd]):
        raise Decline("repeat control and data disagree on their fibers")
    gstart = _prev(bc + 1, 0)
    glen = bc - gstart
    sid = np.cumsum(sup) - sup  # data fiber of each group
    sfirst = _prev(np.flatnonzero(sup) + 1, 0)  # first group of each data fiber
    j = np.arange(len(bc)) - sfirst[sid]  # the group's place in its data fiber
    reads = ~sup | (glen > 0)  # groups that take a data element
    dstart = _prev(bd + 1, 0)
    dlen = bd - dstart
    taken = np.bincount(sid[reads], minlength=len(bd))
    if (taken > dlen).any():
        raise Decline("repeat data underflow")
    elem = cc == ELEM
    group = np.cumsum(~elem) - ~elem
    at = (dstart[sid] + j)[group[elem]]
    run.outs["out"] = _fill(cc, elem, data, at)
    # trace per control token; a boundary that ends a data fiber reads the
    # rest of it, up to its boundary
    ids = np.where(elem & _prev(~elem, True), 0, 1)  # a group's first element reads
    ids[bc[~sup]] = np.where(glen[~sup] > 0, 3, 2)  # an empty group's S0 reads
    drains, which = _compact(dlen - taken + 1)
    ids[bc[sup]] = 4 + which
    patterns = [
        bytes((CTRL, DATA, OUT, TICK)),
        bytes((CTRL, OUT, TICK)),
        bytes((CTRL, DATA, OUT)),
        bytes((CTRL, OUT)),
    ]
    patterns += [bytes((CTRL,)) + bytes((DATA,)) * r + bytes((OUT,)) for r in drains.tolist()]
    run.trace = _weave(patterns, ids)


# --- compute --------------------------------------------------------------


def alu(run, fn, flops: int, ndims=(0, 0)):
    """``run_alu`` with ``fn`` applied to whole payloads at once: an op of
    ``processes.ARRAY_OPS`` on scalars, or the ``processes.block_op`` of a
    blocked alu, whose operand blocks have ``ndims`` axes, on batches of
    blocks."""
    IN0, IN1, OUT = 0, 1, 2
    a, b = run.ins["in0"], run.ins["in1"]
    _check(a, b)
    _paired(a, b)
    x, y = a.val, b.val
    if x.dtype != np.float64 or y.dtype != np.float64 or (x.ndim - 1, y.ndim - 1) != ndims:
        raise Decline("alu payload")
    # a union pads the absent side with NULL; it contributes zero, which the
    # loop hands a blocked alu as the scalar 0.0
    if ndims != (0, 0) and any(s.null is not None and s.null.any() for s in (a, b)):
        raise Decline("a NULL into a blocked alu")
    if a.null is not None:
        x = np.where(a.null, 0.0, x)
    if b.null is not None:
        y = np.where(b.null, 0.0, y)
    try:
        with np.errstate(all="ignore"):
            out = fn(x, y)
    except ValueError as err:  # blocks that do not fit; the loop raises it
        raise Decline(f"alu blocks: {err}") from None
    run.outs["out"] = Stream(a.code, out, None)
    elem = a.code == ELEM
    run.trace = _weave((bytes((IN0, IN1, OUT)), bytes((IN0, IN1, OUT, TICK))), elem.view(np.uint8))
    n = int(np.count_nonzero(elem))
    run.flops = n * flops if n else None


def map_(run, fn):
    IN, OUT = 0, 1
    s = run.ins["in"]
    _check(s)
    x = _values(s)
    elem = s.code == ELEM
    out = np.zeros(x.shape)
    try:
        with np.errstate(all="ignore"):
            out[elem] = apply_pointwise_array(fn, x[elem])
    except OverflowError as err:  # math.exp; the loop raises it in turn
        raise Decline(f"map {fn!r}: {err}") from None
    run.outs["out"] = Stream(s.code, out, None)
    run.trace = _weave((bytes((IN, OUT)), bytes((IN, OUT, TICK))), elem.view(np.uint8))
    n = int(np.count_nonzero(elem))  # a block counts its nonzero entries
    run.flops = (int(np.count_nonzero(x[elem])) if x.ndim > 1 else n) if n else None


def reduce(run, op: str, intra: tuple, zero_shape):
    """``run_reduce`` on block payloads: each fiber's blocks folded in
    arrival order (one ``np.add`` or ``np.maximum`` per rank), zeros for an
    empty fiber, then ``processes.fold`` over the ``intra`` axes.  Each
    boundary sends its fiber's block, then the stop one level up, or Done."""
    IN, OUT = 0, 1
    s = run.ins["in"]
    _check(s)
    x = _values(s)
    # a block folded to a scalar is a numpy scalar in the loop
    if x.shape[1:] != tuple(zero_shape) or len(intra) == len(zero_shape):
        raise Decline("reduce payload")
    code = s.code
    ends = np.flatnonzero(code != ELEM)  # fiber g ends at ends[g]
    start = _prev(ends + 1, 0)
    size = ends - start
    ufunc = np.maximum if op == "max" else np.add
    acc = _fold_runs(x, start, size, ufunc)
    with np.errstate(all="ignore"):
        acc = fold(acc, [a + 1 for a in intra], ufunc)
    bc = code[ends]
    more = (bc == END) | (bc > 0)  # Done, or a stop that goes out one level up
    last = np.cumsum(1 + more) - 1
    out_code = np.full(len(ends) + int(np.count_nonzero(more)), ELEM, dtype=np.int8)
    out_code[last[more]] = np.where(bc[more] == END, END, bc[more] - 1)
    val = np.zeros((len(out_code), *acc.shape[1:]))
    val[out_code == ELEM] = acc
    run.outs["out"] = Stream(out_code, val, None)
    ids = np.zeros(len(code), dtype=np.int64)  # an element, or a boundary and its sends
    ids[ends] = 1 + more
    patterns = (bytes((IN, TICK)), bytes((IN, OUT, TICK)), bytes((IN, OUT, TICK, OUT)))
    run.trace = _weave(patterns, ids)
    block = math.prod(zero_shape)
    adds = int(np.maximum(size - 1, 0).sum()) * block
    run.flops = adds + (block - math.prod(acc.shape[1:])) * len(ends) or None


def red1(run):
    """``run_red1``: per merge scope (closed by a stop above level 0 or by
    Done), each coordinate's values summed in arrival order."""
    CRD, VAL, OCRD, OVAL = 0, 1, 2, 3
    crd, val = run.ins["crd"], run.ins["val"]
    _check(crd, val)
    _paired(crd, val)
    code = crd.code
    x, v = _coords(crd), _values(val)
    elem = code == ELEM
    close = ~elem & (code != 0)
    scope = np.cumsum(close) - close
    e = np.flatnonzero(elem)
    x, v = x[e], v[e]
    w = int(x.max(initial=0)) + 1
    nscope = int(np.count_nonzero(close))
    if nscope * w >= _KEY_LIMIT:
        raise Decline("red1 keys overflow")
    key = scope[e] * w + x
    order = np.argsort(key, kind="stable")
    sk, sv = key[order], v[order]
    start = np.flatnonzero(_prev(sk, -1) != sk)  # each (scope, coordinate) group
    size = np.diff(np.append(start, len(sk)))
    acc = _fold_runs(sv, start, size)
    gkey = sk[start]
    gscope = gkey // w
    per = np.bincount(gscope, minlength=nscope)  # coordinates out per scope
    out_code = np.full(len(start) + nscope, ELEM, dtype=np.int8)
    closing = code[close]
    out_code[np.cumsum(per + 1) - 1] = np.where(closing == END, END, closing - 1)
    slot = out_code == ELEM
    out_crd = np.zeros(len(out_code), dtype=np.int64)
    out_crd[slot] = gkey - gscope * w
    out_val = np.zeros((len(out_code), *v.shape[1:]))
    out_val[slot] = acc
    run.outs["crd"] = Stream(out_code, out_crd, None)
    run.outs["val"] = Stream(out_code, out_val, None)
    run.flops = (len(sk) - len(start)) * math.prod(v.shape[1:]) or None
    # trace per input token; a scope's closing token sends its table
    ids = np.where(elem, 0, 1)
    sizes, which = _compact(per)
    ids[close] = 2 + which
    patterns = [bytes((CRD, VAL, TICK)), bytes((CRD, VAL))]
    emit, send = bytes((OCRD, OVAL, TICK)), bytes((OCRD, OVAL))
    patterns += [bytes((CRD, VAL)) + emit * u + send for u in sizes.tolist()]
    run.trace = _weave(patterns, ids)


def crddrop_inner(run):
    OUTER, INNER, OOUT, OIN = 0, 1, 2, 3
    outer, inner = run.ins["outer"], run.ins["inner"]
    _check(outer, inner)
    _paired(outer, inner)
    v = inner.val
    if inner.null is not None:
        raise Decline("NULL value")
    elem = outer.code == ELEM
    nonzero = v.reshape(len(v), -1).any(axis=1)  # a block: any of its entries
    keep = ~elem | nonzero
    code = outer.code[keep]
    null = None if outer.null is None else outer.null[keep]
    run.outs["outer"] = Stream(code, outer.val[keep], null)
    run.outs["inner"] = Stream(code, v[keep], None)
    patterns = (
        bytes((OUTER, INNER, OOUT, OIN)),
        bytes((OUTER, INNER, TICK)),
        bytes((OUTER, INNER, TICK, OOUT, OIN)),
    )
    run.trace = _weave(patterns, np.where(elem, np.where(nonzero, 2, 1), 0))


def _pending(live: np.ndarray, update: np.ndarray, level: np.ndarray):
    """The single pending stop of ``processes._merge`` over a sequence of
    events, each a reset (a group emits: the pending stop goes out first)
    or an update to ``level``; ``live`` masks the events that happen.
    Returns, per event, whether it sends a stop and that stop's level."""
    live = live.ravel()
    update, level = update.ravel()[live], level.ravel()[live]
    prev_update, prev_level = _prev(update, False), _prev(level, 0)
    sends = np.zeros(len(live), dtype=bool)
    sends[live] = prev_update & (~update | (level <= prev_level))
    out = np.zeros(len(live), dtype=np.int64)
    out[live] = prev_level
    return sends, out


def crddrop_outer(run):
    """``run_crddrop_outer``: inner group g pairs with the g-th outer
    element, each inner stop above level 0 with the outer stop one below;
    an empty group drops its coordinate and its separator."""
    OUTER, INNER, OOUT, OIN = 0, 1, 2, 3
    outer, inner = run.ins["outer"], run.ins["inner"]
    _check(outer, inner)
    ic, oc = inner.code, outer.code
    ib = np.flatnonzero(ic != ELEM)  # group g ends at ib[g], the last at Done
    ng = len(ib)
    gstart = _prev(ib + 1, 0)
    full = ib > gstart
    lv = ic[ib[:-1]].astype(np.int64)  # level of the stop ending each group but the last
    hi = lv >= 1
    # outer reads: an element per group, the stop below each inner stop
    # above level 0; the last group's element only if it is non-empty
    epos = np.zeros(ng, dtype=np.int64)
    epos[1:] = np.cumsum(1 + hi)
    reads = np.ones(ng, dtype=bool)
    reads[-1] = full[-1]
    used = int(epos[-1]) + int(full[-1])
    if (
        used >= len(oc)
        or (oc[epos[reads]] != ELEM).any()
        or (oc[epos[:-1][hi] + 1] != lv[hi] - 1).any()
    ):
        raise Decline("crddrop outer stream does not match the inner groups")
    # per group: a reset when it emits, then its stop's update (inner: a
    # level-0 stop only after an emitting group; outer: stops above 0)
    upd = np.zeros(ng, dtype=bool)
    upd[:-1] = hi | full[:-1]
    ulv = np.zeros(ng, dtype=np.int64)
    ulv[:-1] = lv
    kinds = np.array([[False, True]]).repeat(ng, axis=0)
    in_send, in_lvl = _pending(np.stack((full, upd), 1), kinds, np.stack((ulv, ulv), 1))
    oupd = np.zeros(ng, dtype=bool)
    oupd[:-1] = hi
    out_send, out_lvl = _pending(np.stack((full, oupd), 1), kinds, np.stack((ulv - 1, ulv - 1), 1))
    in_send, in_lvl = in_send.reshape(ng, 2), in_lvl.reshape(ng, 2)
    out_send, out_lvl = out_send.reshape(ng, 2), out_lvl.reshape(ng, 2)

    n = len(ic)
    elem = ic == ELEM
    starts = gstart[full]  # first element of each emitting group
    stops = ib[:-1]

    def heads(send, lvl):
        head = np.zeros(n, dtype=bool)
        code = np.zeros(n, dtype=np.int8)
        head[starts], code[starts] = send[full, 0], lvl[full, 0]
        head[stops], code[stops] = send[:-1, 1], lvl[:-1, 1]
        head[-1], code[-1] = True, END
        return head, code

    head, hcode = heads(in_send, in_lvl)
    code, slot = _heads(head, hcode, elem.astype(np.int64))
    run.outs["inner"] = _fill(code, slot, inner, np.flatnonzero(elem))
    ohead, ohcode = heads(out_send, out_lvl)
    once = np.zeros(n, dtype=np.int64)
    once[starts] = 1
    code, slot = _heads(ohead, ohcode, once)
    run.outs["outer"] = _fill(code, slot, outer, epos[full])
    # trace per inner token: an emitting group's first element takes its
    # outer coordinate and sends the pending stops before it; a stop reads
    # the outer element of an empty group and the outer stop below it, then
    # flushes; Done reads the rest of the outer stream
    ids = np.zeros(n, dtype=np.int64)  # a later element: INNER OIN TICK
    ids[starts] = 1 + 2 * out_send[full, 0] + in_send[full, 0]
    empty = (~full[:-1]).astype(np.int64)
    ids[stops] = 5 + 4 * (empty + hi) + 2 * in_send[:-1, 1] + out_send[:-1, 1]
    ids[-1] = 17
    patterns = [bytes((INNER, OIN, TICK))]
    patterns += [
        bytes((INNER, OUTER)) + bytes((OOUT,)) * o + bytes((OIN,)) * i
        + bytes((OOUT, TICK, OIN, TICK))
        for o in (0, 1)
        for i in (0, 1)
    ]
    patterns += [
        bytes((INNER,)) + bytes((OUTER,)) * r + bytes((OIN,)) * i + bytes((OOUT,)) * o
        for r in (0, 1, 2) for i in (0, 1) for o in (0, 1)
    ]
    patterns.append(bytes((INNER,)) + bytes((OUTER,)) * (len(oc) - used) + bytes((OOUT, OIN)))
    run.trace = _weave(patterns, ids)


# --- sinks ----------------------------------------------------------------


def write(run, port: str):
    s = run.ins[port]
    _check(s)
    run.trace = _weave((bytes((0,)), bytes((0, TICK))), (s.code == ELEM).view(np.uint8))
    run.records = s
