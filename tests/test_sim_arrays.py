"""Each array node function against its loop in ``processes``, both as
``engine._node_functions`` builds them from a node.

On well-formed streams (random fibers and stop levels, sorted
coordinates, NULL-padded union payloads, values with 0.0 and -0.0, and
block payloads with zero and -0.0 blocks) the array function must give the
loop's trace bytes, output tokens, ``flops``, ``bytes_read`` and writer
records.  Off the happy path it must decline.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einstream.errors import GraphError
from einstream.graph import _PORTS, DONE, NULL, Node, Stop
from einstream.sim import arrays, processes
from einstream.sim.arrays import ELEM, END, Decline, Stream, from_tokens
from einstream.sim.engine import _node_functions
from einstream.sim.processes import NodeRun, contraction
from einstream.tensors import COMPRESSED, DENSE, DenseLevel, LevelSpec, SparseTensor

S0, S1, S2 = Stop(0), Stop(1), Stop(2)
SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# block payloads take the scalar kinds' code paths with trailing axes
BLOCK_SETTINGS = settings(SETTINGS, max_examples=50)
VALUES = st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25, 0.5, -1e-300, 7.0])


def to_stream(tokens, dtype=None, block=None) -> Stream:
    """A token list as a ``Stream`` with payload ``dtype`` (by default
    float64 when some payload is a float or a block, else int64) and
    blocks of shape ``block`` (by default that of the first block token,
    if any)."""
    if block is None:
        block = next((tok.shape for tok in tokens if isinstance(tok, np.ndarray)), ())
    code = np.full(len(tokens), ELEM, dtype=np.int8)
    null = np.array([tok is NULL for tok in tokens], dtype=bool)
    vals = [np.zeros(block) if block else 0] * len(tokens)
    for k, tok in enumerate(tokens):
        if tok is DONE:
            code[k] = END
        elif tok.__class__ is Stop:
            code[k] = tok.level
        elif tok is not NULL:
            vals[k] = tok
    if dtype is None:
        dtype = np.float64 if block or any(v.__class__ is float for v in vals) else np.int64
    val = np.array(vals, dtype=dtype).reshape(len(tokens), *block)
    return Stream(code, val, null if null.any() else None)


def to_tokens(s: Stream) -> list:
    """A ``Stream`` as the token list its loop would have built."""
    toks = s.val.tolist() if s.val.ndim == 1 else list(s.val)
    code = s.code
    for k in np.flatnonzero(code != ELEM).tolist():
        toks[k] = DONE if code[k] == END else Stop(int(code[k]))
    if s.null is not None:
        for k in np.flatnonzero(s.null).tolist():
            toks[k] = NULL
    return toks


def _same(a, b) -> bool:
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)  # -0.0 and NaN too
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _same_tokens(got: list, want: list) -> bool:
    return len(got) == len(want) and all(map(_same, got, want))


def functions(kind, tensor=None, mem_latency=1, **params):
    """``engine._node_functions`` of a ``kind`` node with ``params`` that
    reads ``tensor``: its (loop, array) pair."""
    if tensor is not None:
        params["tensor"] = "t"
    return _node_functions(Node(kind, kind, params), {"t": tensor}, mem_latency)


def check(kind, inputs: dict, outs, dtypes=None, blocks=None, **params):
    """Runs a ``kind`` node's loop and array functions on the same inputs
    and requires equal traces, outputs and counters."""
    fn, afn = functions(kind, **params)
    lr = NodeRun({p: list(t) for p, t in inputs.items()}, outs)
    fn(lr)
    dtypes, blocks = dtypes or {}, blocks or {}
    ar = NodeRun(
        {p: to_stream(t, dtypes.get(p), blocks.get(p)) for p, t in inputs.items()}, outs
    )
    afn(ar)
    assert ar.trace == lr.trace
    for p in outs:
        assert _same_tokens(to_tokens(ar.outs[p]), lr.outs[p]), p
    assert ar.flops == lr.flops
    assert ar.bytes_read == lr.bytes_read
    if kind.startswith("write"):  # the stream read, as a Stream either way
        assert _same_tokens(to_tokens(ar.records), to_tokens(lr.records))


def declines(kind, inputs: dict, outs, dtypes=None, blocks=None, **params):
    dtypes, blocks = dtypes or {}, blocks or {}
    ar = NodeRun(
        {p: to_stream(t, dtypes.get(p), blocks.get(p)) for p, t in inputs.items()}, outs
    )
    with pytest.raises(Decline):
        functions(kind, **params)[1](ar)


# --- strategies -----------------------------------------------------------


@st.composite
def shapes(draw, max_level=2, max_fibers=5):
    """A stream's stop levels: one fewer than its fibers."""
    n = draw(st.integers(1, max_fibers))
    return draw(st.lists(st.integers(0, max_level), min_size=n - 1, max_size=n - 1))


def tokens(fibers: list, stops: list) -> list:
    out = []
    for k, fiber in enumerate(fibers):
        out += fiber
        if k < len(stops):
            out.append(Stop(stops[k]))
    return out + [DONE]


@st.composite
def streams(draw, element, stops=None, max_len=4):
    stops = draw(shapes()) if stops is None else stops
    fibers = [draw(st.lists(element, max_size=max_len)) for _ in range(len(stops) + 1)]
    return tokens(fibers, stops)


def sorted_fiber(max_crd=9):
    return st.sets(st.integers(0, max_crd), max_size=5).map(sorted)


# --- memory-side nodes ----------------------------------------------------


def test_root():
    check("root", {}, ["ref"])


@st.composite
def scan_cases(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=rows * cols, max_size=rows * cols)
    dense = np.array(draw(cells))
    fmt = draw(st.sampled_from([(DENSE, COMPRESSED), (DENSE, DENSE), (COMPRESSED, COMPRESSED)]))
    t = SparseTensor.from_dense(dense.reshape(rows, cols), [LevelSpec(f) for f in fmt])
    level = draw(st.integers(0, 1))
    # a dense level takes any position, a compressed one a fiber it stores
    top = 5 if fmt[level] == DENSE else len(t.levels[level].segments) - 2
    ref = draw(streams(st.integers(0, top) | st.just(NULL) if top >= 0 else st.just(NULL)))
    params = {"tensor": t, "level": level, "mem_latency": draw(st.integers(0, 3))}
    if fmt[level] == DENSE:
        params["mult"] = draw(st.sampled_from([None, 0, 1, 3]))
        params["stride"] = draw(st.sampled_from([None, 0, 1, 2]))
    else:
        params["mult"] = params["stride"] = None
    return ref, params


@SETTINGS
@given(scan_cases())
def test_scan(case):
    ref, params = case
    check("scan", {"ref": ref}, ["crd", "ref"], **params)


@st.composite
def vals_cases(draw):
    n = draw(st.integers(1, 6))
    dense = np.array(draw(st.lists(VALUES.filter(bool), min_size=n, max_size=n)))
    t = SparseTensor.from_dense(dense, [LevelSpec(COMPRESSED)])
    ref = draw(streams(st.one_of(st.integers(0, n - 1), st.just(NULL))))
    return ref, t


@SETTINGS
@given(vals_cases(), st.integers(0, 3))
def test_vals(case, latency):
    ref, t = case
    check("vals", {"ref": ref}, ["val"], tensor=t, mem_latency=latency)


# --- stream combinators ---------------------------------------------------


@st.composite
def join_cases(draw):
    stops = draw(shapes())
    sides = []
    for _ in range(2):
        # a side may end early: its Done then faces the other side's stops
        own = stops[: draw(st.integers(0, len(stops)))] if draw(st.booleans()) else stops
        fibers = [draw(sorted_fiber()) for _ in range(len(own) + 1)]
        crd = tokens(fibers, own)
        position = st.integers(0, 50) | st.just(NULL)
        pos = [tok if tok is DONE or tok.__class__ is Stop else draw(position) for tok in crd]
        sides.append((crd, pos))
    return sides


@SETTINGS
@given(join_cases(), st.sampled_from(["intersect", "union"]))
def test_join(sides, mode):
    (c0, p0), (c1, p1) = sides
    inputs = {"crd0": c0, "p0": p0, "crd1": c1, "p1": p1}
    check(mode, inputs, ["crd", "p0", "p1"], dtypes={"p0": np.int64, "p1": np.int64})


@st.composite
def repeat_cases(draw):
    ctrl = draw(streams(st.integers(0, 9)))
    # each data fiber ends where a control stop above level 0 (or Done)
    # ends a group of control groups, one level down; it holds at least one
    # element per group that takes one
    data, groups, full = [], 0, False
    for tok in ctrl:
        if tok is DONE or (tok.__class__ is Stop and tok.level > 0):
            need = groups + full
            element = st.integers(0, 9) | st.just(NULL)
            data += draw(st.lists(element, min_size=need, max_size=need + 2))
            data.append(DONE if tok is DONE else Stop(tok.level - 1))
            groups, full = 0, False
        elif tok.__class__ is Stop:
            groups, full = groups + 1, False
        else:
            full = True
    return data, ctrl


@SETTINGS
@given(repeat_cases())
def test_repeat(case):
    data, ctrl = case
    check("repeat", {"data": data, "ctrl": ctrl}, ["out"], dtypes={"data": np.int64})


# --- compute --------------------------------------------------------------


@st.composite
def paired_values(draw, nulls=True):
    stops = draw(shapes())
    lens = [draw(st.integers(0, 4)) for _ in range(len(stops) + 1)]
    element = st.one_of(VALUES, st.just(NULL)) if nulls else VALUES
    sides = []
    for _ in range(2):
        sides.append(tokens([draw(st.lists(element, min_size=n, max_size=n)) for n in lens], stops))
    return sides


@SETTINGS
@given(paired_values(), st.sampled_from(["add", "sub", "mul", "div"]))
def test_alu(sides, op):
    a, b = sides
    dtypes = {"in0": np.float64, "in1": np.float64}
    check("alu", {"in0": a, "in1": b}, ["out"], dtypes=dtypes, op=op)


@SETTINGS
@given(streams(VALUES), st.sampled_from(["relu", "exp", "gelu", ("scale", 2.5), ("scale", -1.0)]))
def test_map(stream, fn):
    check("map", {"in": stream}, ["out"], dtypes={"in": np.float64}, fn=fn)


@st.composite
def red1_cases(draw, values=VALUES):
    stops = draw(shapes())
    fibers = [draw(st.lists(st.integers(0, 5), max_size=5)) for _ in range(len(stops) + 1)]
    crd = tokens(fibers, stops)
    val = [tok if tok is DONE or tok.__class__ is Stop else draw(values) for tok in crd]
    return crd, val


@SETTINGS
@given(red1_cases())
def test_red1(case):
    crd, val = case
    check("red1", {"crd": crd, "val": val}, ["crd", "val"], dtypes={"val": np.float64})


def test_red1_adds_in_arrival_order():
    # pairwise summation would give 1.0 for the first coordinate
    crd = [0] * 3 + [DONE]
    val = [1e16, 1.0, 1.0, DONE]
    check("red1", {"crd": crd, "val": val}, ["crd", "val"])


@SETTINGS
@given(red1_cases())
def test_crddrop_inner(case):
    crd, val = case
    inputs = {"outer": crd, "inner": val}
    check("crddrop", inputs, ["outer", "inner"], dtypes={"inner": np.float64}, stage="inner")


@st.composite
def crddrop_outer_cases(draw):
    # outer: non-empty coordinate fibers; inner: a group per outer
    # coordinate, S0 between groups, Stop(l + 1) where the outer has Stop(l)
    stops = draw(shapes(max_level=1))
    outer_fibers = [draw(sorted_fiber().filter(bool)) for _ in range(len(stops) + 1)]
    inner = []
    for k, fiber in enumerate(outer_fibers):
        for j, _ in enumerate(fiber):
            inner += draw(st.lists(st.integers(0, 9), max_size=3))
            if j < len(fiber) - 1:
                inner.append(S0)
        if k < len(stops):
            inner.append(Stop(stops[k] + 1))
    inner.append(DONE)
    if draw(st.booleans()):  # outer coordinates past the last group are drained
        outer_fibers[-1] = outer_fibers[-1] + [10, 11][: draw(st.integers(1, 2))]
    return tokens(outer_fibers, stops), inner


@SETTINGS
@given(crddrop_outer_cases())
def test_crddrop_outer(case):
    outer, inner = case
    inputs = {"outer": outer, "inner": inner}
    check("crddrop", inputs, ["outer", "inner"], dtypes={"inner": np.int64}, stage="outer")


# --- block payloads -------------------------------------------------------

BLOCK = (2, 2)
EINSUM = {"mode": "einsum", "expr": "ab,bc->ac", "flops": 12}
EW = {"mode": "ew", "out_ndim": 2, "bmap0": (0, 1), "bmap1": (0, 1), "flops": 4}


def blocks_of(shape=BLOCK):
    """Blocks of ``shape``: drawn entries, or all 0.0, or all -0.0."""
    n = math.prod(shape)
    return st.one_of(
        st.lists(VALUES, min_size=n, max_size=n).map(lambda v: np.array(v).reshape(shape)),
        st.sampled_from([0.0, -0.0]).map(lambda z: np.full(shape, z)),
    )


@st.composite
def blocked_tensors(draw):
    rows, cols = 2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from([0.0, 1.0, -2.5]), min_size=rows * cols, max_size=rows * cols)
    fmt = draw(st.sampled_from([(DENSE, COMPRESSED), (DENSE, DENSE), (COMPRESSED, COMPRESSED)]))
    dense = np.array(draw(cells)).reshape(rows, cols)
    return SparseTensor.from_dense(dense, [LevelSpec(f) for f in fmt]).block(BLOCK)


@BLOCK_SETTINGS
@given(blocked_tensors(), st.integers(0, 1), st.integers(0, 3), st.data())
def test_scan_on_blocks(t, level, latency, data):
    """A blocked tensor's levels index its block grid, as any tensor's."""
    lv = t.levels[level]
    top = 5 if isinstance(lv, DenseLevel) else len(lv.segments) - 2
    ref = data.draw(streams(st.integers(0, top) | st.just(NULL) if top >= 0 else st.just(NULL)))
    check("scan", {"ref": ref}, ["crd", "ref"], tensor=t, level=level, mem_latency=latency)


@BLOCK_SETTINGS
@given(blocked_tensors(), st.integers(0, 3), st.data())
def test_vals_on_blocks(t, latency, data):
    """Whole blocks, each distinct position charged its block's bytes; a
    NULL reads a block of zeros."""
    n = len(t.values)
    ref = data.draw(streams(st.integers(0, n - 1) | st.just(NULL) if n else st.just(NULL)))
    check("vals", {"ref": ref}, ["val"], tensor=t, mem_latency=latency)


# the einsum exprs of blocked alus drawn below; every letter spans 2
EXPRS = ["ab,bc->ac", "bc,ca->ab", "abc,cb->ac", "abc,bc->ab", "ab,b->a", "a,b->ab"]


@st.composite
def block_pairs(draw, ndims):
    stops = draw(shapes())
    lens = [draw(st.integers(0, 3)) for _ in range(len(stops) + 1)]
    return [
        tokens([draw(st.lists(blocks_of((2,) * nd), min_size=n, max_size=n)) for n in lens], stops)
        for nd in ndims
    ]


@BLOCK_SETTINGS
@given(st.sampled_from(EXPRS), st.data())
def test_alu_einsum_on_blocks(expr, data):
    sa, sb = expr.split("->")[0].split(",")
    a, b = data.draw(block_pairs((len(sa), len(sb))))
    spec = {"mode": "einsum", "expr": expr, "flops": 7}
    blocks = {"in0": (2,) * len(sa), "in1": (2,) * len(sb)}
    check("alu", {"in0": a, "in1": b}, ["out"], blocks=blocks, op="mul", block=spec)


@BLOCK_SETTINGS
@given(st.sampled_from(["add", "sub", "mul", "div"]), st.sampled_from([(0, 1), (1,), (0,)]),
       st.data())
def test_alu_ew_on_blocks(op, bmap1, data):
    """in1's axes at output positions ``bmap1``, broadcast over the rest."""
    a, b = data.draw(block_pairs((2, len(bmap1))))
    spec = {**EW, "bmap1": bmap1}
    blocks = {"in0": BLOCK, "in1": (2,) * len(bmap1)}
    check("alu", {"in0": a, "in1": b}, ["out"], blocks=blocks, op=op, block=spec)


@BLOCK_SETTINGS
@given(streams(blocks_of()), st.sampled_from(["relu", "exp", ("scale", -1.0)]))
def test_map_on_blocks(stream, fn):
    """Each block counts its nonzero entries, an all-zero block none."""
    check("map", {"in": stream}, ["out"], blocks={"in": BLOCK}, fn=fn)


@BLOCK_SETTINGS
@given(red1_cases(blocks_of()))
def test_red1_on_blocks(case):
    """Each add of a block counts its size."""
    crd, val = case
    check("red1", {"crd": crd, "val": val}, ["crd", "val"], blocks={"val": BLOCK})


@BLOCK_SETTINGS
@given(red1_cases(blocks_of()))
def test_crddrop_inner_on_blocks(case):
    """A block is dropped when none of its entries is nonzero; -0.0 is zero."""
    crd, val = case
    inputs = {"outer": crd, "inner": val}
    check("crddrop", inputs, ["outer", "inner"], blocks={"inner": BLOCK}, stage="inner")


@BLOCK_SETTINGS
@given(streams(blocks_of()), st.sampled_from(["sum", "max"]), st.sampled_from([(), (0,), (1,)]))
def test_reduce_on_blocks(stream, op, intra):
    """A left fold per fiber, zeros for an empty one, then the fold over
    ``intra``, whose adds count as well."""
    params = dict(op=op, intra=intra, zero_shape=BLOCK)
    check("reduce", {"in": stream}, ["out"], blocks={"in": BLOCK}, **params)


@BLOCK_SETTINGS
@given(repeat_cases())
def test_repeat_passes_blocks_through(case):
    data, ctrl = case
    data = [np.full(BLOCK, float(tok)) if tok.__class__ is int else tok for tok in data]
    check("repeat", {"data": data, "ctrl": ctrl}, ["out"], blocks={"data": BLOCK})


@BLOCK_SETTINGS
@given(crddrop_outer_cases())
def test_crddrop_outer_passes_blocks_through(case):
    outer, inner = case
    inner = [np.full(BLOCK, float(tok)) if tok.__class__ is int else tok for tok in inner]
    inputs = {"outer": outer, "inner": inner}
    check("crddrop", inputs, ["outer", "inner"], blocks={"inner": BLOCK}, stage="outer")


@BLOCK_SETTINGS
@given(streams(blocks_of()))
def test_write_records_blocks(stream):
    check("write_val", {"val": stream}, [], blocks={"val": BLOCK})


def test_contract_sums_in_letter_order_whatever_the_layout():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 4))
    got = contraction("abc,cb->ac")(a, b)
    assert got.tobytes() == contraction("abc,bc->ab")(a.transpose(0, 2, 1), b).tobytes()
    np.testing.assert_allclose(got, np.einsum("abc,cb->ac", a, b), rtol=1e-12)
    # a left fold: pairwise summation would give 1e16 + 2
    assert contraction("ab,b->a")(np.array([[1e16, 1.0, 1.0]]), np.ones(3)).tolist() == [1e16]


def test_contract_on_a_batch_gives_each_block_its_own_bits():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((6, 3, 4, 5)), rng.standard_normal((6, 5, 4))
    fn = contraction("abc,cb->ac")
    rows = fn(a, b)
    assert rows.shape == (6, 3, 5)
    assert all(rows[k].tobytes() == fn(a[k], b[k]).tobytes() for k in range(6))


# --- sinks ----------------------------------------------------------------


@SETTINGS
@given(streams(VALUES), st.sampled_from(["crd", "val"]))
def test_write(stream, port):
    check(f"write_{port}", {port: stream}, [], dtypes={port: np.float64})


# --- off the happy path ---------------------------------------------------

B = SparseTensor.from_dense(
    np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]), [LevelSpec(DENSE), LevelSpec(COMPRESSED)]
)
X, Y = np.array([[1.0, -2.0], [0.0, 3.5]]), np.array([[0.5, 0.0], [-0.0, 2.0]])

# case -> (node kind, well-formed inputs, output ports, params)
CASES = {
    "scan": ("scan", {"ref": [0, S0, 1, DONE]}, ["crd", "ref"], dict(tensor=B, level=1)),
    "vals": ("vals", {"ref": [0, S0, 1, DONE]}, ["val"], dict(tensor=B)),
    "intersect": ("intersect", {"crd0": [0, 2, S0, 1, DONE], "p0": [0, 1, S0, 2, DONE],
                                "crd1": [0, S0, 1, DONE], "p1": [5, S0, 6, DONE]},
                  ["crd", "p0", "p1"], {}),
    "union": ("union", {"crd0": [0, 2, S0, 1, DONE], "p0": [0, 1, S0, 2, DONE],
                        "crd1": [0, S0, 1, DONE], "p1": [5, S0, 6, DONE]},
              ["crd", "p0", "p1"], {}),
    "repeat": ("repeat", {"data": [10, S0, 20, DONE], "ctrl": [1, 2, S1, 3, DONE]}, ["out"], {}),
    "alu": ("alu", {"in0": [1.0, S0, 2.0, DONE], "in1": [3.0, S0, 4.0, DONE]}, ["out"],
            dict(op="add")),
    "map": ("map", {"in": [1.0, S0, -2.0, DONE]}, ["out"], dict(fn="relu")),
    "red1": ("red1",
             {"crd": [0, 1, S0, 1, S1, 2, DONE], "val": [1.0, 2.0, S0, 3.0, S1, 4.0, DONE]},
             ["crd", "val"], {}),
    "crddrop_inner": ("crddrop",
                      {"outer": [0, 1, S0, 2, DONE], "inner": [1.0, 0.0, S0, 2.0, DONE]},
                      ["outer", "inner"], dict(stage="inner")),
    "crddrop_outer": ("crddrop",
                      {"outer": [0, 1, S0, 2, DONE], "inner": [5, S0, S1, 6, DONE]},
                      ["outer", "inner"], dict(stage="outer")),
    "write": ("write_crd", {"crd": [0, 1, S0, 2, DONE]}, [], {}),
    "alu_block": ("alu", {"in0": [X, S0, Y, DONE], "in1": [Y, S0, X, DONE]}, ["out"],
                  dict(op="mul", block=EINSUM)),
    "reduce": ("reduce", {"in": [X, Y, S1, X, DONE]}, ["out"],
               dict(op="sum", intra=(1,), zero_shape=BLOCK)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_the_well_formed_cases_are_taken(kind):
    fn, inputs, outs, params = CASES[kind]
    check(fn, inputs, outs, **params)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_stream_without_done_declines(kind):
    fn, inputs, outs, params = CASES[kind]
    port = next(iter(inputs))
    declines(fn, {**inputs, port: inputs[port][:-1]}, outs, **params)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_second_done_declines(kind):
    fn, inputs, outs, params = CASES[kind]
    port = next(iter(inputs))
    declines(fn, {**inputs, port: [DONE] + inputs[port]}, outs, **params)


# kind -> inputs whose boundaries disagree between ports read together
DESYNC = {
    "intersect": {**CASES["intersect"][1], "p0": [0, S0, 1, 2, DONE]},
    "union": {**CASES["union"][1], "p1": [5, 6, S0, DONE]},
    "alu": {**CASES["alu"][1], "in1": [3.0, 4.0, S0, DONE]},
    "alu_block": {**CASES["alu_block"][1], "in1": [Y, X, S0, DONE]},
    "red1": {**CASES["red1"][1], "val": [1.0, 2.0, 3.0, S0, S1, 4.0, DONE]},
    "crddrop_inner": {**CASES["crddrop_inner"][1], "inner": [1.0, S0, 0.0, 2.0, DONE]},
}


@pytest.mark.parametrize("kind", sorted(DESYNC))
def test_a_boundary_desync_declines(kind):
    fn, _, outs, params = CASES[kind]
    declines(fn, DESYNC[kind], outs, **params)


# kind -> inputs whose stop levels do not match
MISMATCH = {
    "intersect": {**CASES["intersect"][1], "crd1": [0, S1, 1, DONE], "p1": [5, S1, 6, DONE]},
    "union": {**CASES["union"][1], "crd1": [0, S1, 1, DONE], "p1": [5, S1, 6, DONE]},
    "repeat": {"data": [10, S1, 20, DONE], "ctrl": [1, 2, S1, 3, DONE]},
    "crddrop_outer": {"outer": [0, 1, S1, 2, DONE], "inner": [5, S0, S1, 6, DONE]},
}


@pytest.mark.parametrize("kind", sorted(MISMATCH))
def test_mismatched_stop_levels_decline(kind):
    fn, _, outs, params = CASES[kind]
    declines(fn, MISMATCH[kind], outs, **params)


@pytest.mark.parametrize(
    "kind, inputs",
    [
        ("map", {"in": [1.0, NULL, DONE]}),  # the loop applies fn to NULL
        ("red1", {"crd": [0, 0, DONE], "val": [1.0, NULL, DONE]}),  # and adds it
        ("crddrop_inner", {"outer": [0, DONE], "inner": [NULL, DONE]}),
        ("repeat", {"data": [10, DONE], "ctrl": [5, S0, 6, DONE]}),  # underflow
        ("vals", {"ref": [7, DONE]}),  # no such position
    ],
    ids=["map_null", "red1_null", "crddrop_null", "repeat_underflow", "vals_range"],
)
def test_inputs_the_loop_raises_on_decline(kind, inputs):
    fn, _, outs, params = CASES[kind]
    declines(fn, inputs, outs, **params)


@pytest.mark.parametrize(
    "in0, in1, spec",
    [
        # the loop hands the op a scalar 0.0 for the NULL a union padded
        ([X, DONE], [NULL, DONE], EW),
        ([NULL, X, DONE], [Y, X, DONE], EINSUM),
        # letter b spans 2 in in0 and 3 in in1
        ([X, DONE], [np.ones((3, 2)), DONE], EINSUM),
        # a 3-axis block for the 2 letters of in1
        ([X, DONE], [np.ones((2, 2, 2)), DONE], EINSUM),
        # scalar payloads into a blocked alu
        ([1.0, DONE], [2.0, DONE], EW),
    ],
    ids=["ew_null", "einsum_null", "extent_mismatch", "ndim_mismatch", "scalar_payload"],
)
def test_a_blocked_alu_declines_what_does_not_fit(in0, in1, spec):
    blocks = {p: BLOCK for p, toks in (("in0", in0), ("in1", in1)) if toks[0] is NULL}
    declines("alu", {"in0": in0, "in1": in1}, ["out"], blocks=blocks, op="mul", block=spec)


def test_a_reduce_declines_blocks_off_its_zero_shape():
    declines("reduce", {"in": [np.ones((2, 3)), DONE]}, ["out"],
             op="sum", intra=(), zero_shape=BLOCK)


# node kind, params -> whether it has an array function: not for an
# unknown alu op or map fn, a scalar reduce or par
TABLE = [
    ("root", {}, True),
    ("scan", dict(tensor=B, level=1), True),
    ("scan", dict(tensor=B.block((1, 1)), level=0), True),
    ("vals", dict(tensor=B), True),
    ("vals", dict(tensor=B.block((1, 1))), True),
    ("intersect", {}, True),
    ("union", {}, True),
    ("repeat", {}, True),
    *(("alu", dict(op=op), True) for op in processes.ARRAY_OPS),
    ("alu", dict(op="mul", block=EINSUM), True),
    *(("alu", dict(op=op, block=EW), True) for op in processes.ARRAY_OPS),
    ("alu", dict(op="pow"), False),
    ("alu", dict(op="pow", block=EW), False),
    *(("map", dict(fn=fn), True) for fn in ("relu", "exp", "gelu", ("scale", 2.5))),
    ("map", dict(fn="tanh"), False),
    ("reduce", dict(op="sum"), False),
    ("reduce", dict(op="max", zero_shape=BLOCK), True),
    ("reduce", dict(op="sum", intra=(0,), zero_shape=BLOCK), True),
    ("red1", {}, True),
    ("crddrop", dict(stage="inner"), True),
    ("crddrop", dict(stage="outer"), True),
    ("write_crd", {}, True),
    ("write_val", {}, True),
    ("par", dict(factor=2, nstreams=1), False),
]


def test_the_node_table():
    """Every node kind gets its loop; the array function is missing exactly
    where ``TABLE`` says."""
    assert {kind for kind, _, _ in TABLE} == set(_PORTS) | {"par"}
    for kind, params, has_array in TABLE:
        fn, afn = functions(kind, **params)
        assert getattr(fn, "func", fn).__module__ == processes.__name__, kind
        assert (afn is not None) == has_array, (kind, params)
        if afn is not None:
            assert getattr(afn, "func", afn).__module__ == arrays.__name__, kind
    with pytest.raises(GraphError, match="no function for node kind 'nope'"):
        functions("nope")


def test_an_exp_that_overflows_declines():
    declines("map", {"in": [1000.0, DONE]}, ["out"], fn="exp")  # math.exp raises


def test_to_tokens_inverts_to_stream():
    toks = [0, 1, NULL, S0, S2, 3, DONE]
    assert _same_tokens(to_tokens(to_stream(toks)), toks)
    assert math.isnan(to_tokens(to_stream([math.nan, DONE]))[0])


@pytest.mark.parametrize(
    "toks",
    [[0, 1, S0, S2, 3, DONE], [1.5, -0.0, S1, DONE], [DONE], [np.eye(2), S0, -np.eye(2), DONE]],
    ids=["coordinates", "values", "empty", "blocks"],
)
def test_from_tokens_inverts_to_tokens(toks):
    s = from_tokens(toks)
    assert s.null is None and _same_tokens(to_tokens(s), toks)


def test_a_scan_declines_a_stop_whose_level_would_wrap():
    ref = Stream(np.array([0, 127, END], dtype=np.int8), np.zeros(3, dtype=np.int64), None)
    run = NodeRun({"ref": ref}, ["crd", "ref"])
    with pytest.raises(Decline):
        functions("scan", **CASES["scan"][3])[1](run)
