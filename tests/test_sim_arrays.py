"""Each array node function against its loop in ``processes``.

On well-formed streams (random fibers and stop levels, sorted
coordinates, NULL-padded union payloads, values with 0.0 and -0.0) the
array function must give the loop's trace bytes, output tokens, ``flops``,
``bytes_read`` and writer records.  Off the happy path it must decline.
"""

from __future__ import annotations

import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einstream.graph import DONE, NULL, Stop
from einstream.sim.arrays import ELEM, END, Decline, Stream, array_function, to_tokens
from einstream.sim.processes import (
    NodeRun,
    run_alu,
    run_crddrop_inner,
    run_crddrop_outer,
    run_join,
    run_map,
    run_red1,
    run_reduce,
    run_repeat,
    run_root,
    run_scan,
    run_vals,
    run_write,
)
from einstream.tensors import COMPRESSED, DENSE, LevelSpec, SparseTensor

S0, S1, S2 = Stop(0), Stop(1), Stop(2)
SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
VALUES = st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25, 0.5, -1e-300, 7.0])


def to_stream(tokens, dtype=None) -> Stream:
    """A token list as a ``Stream`` with payload ``dtype`` (by default
    float64 when some payload is a float, else int64)."""
    code = np.full(len(tokens), ELEM, dtype=np.int8)
    null = np.array([tok is NULL for tok in tokens], dtype=bool)
    vals = [0] * len(tokens)
    for k, tok in enumerate(tokens):
        if tok is DONE:
            code[k] = END
        elif tok.__class__ is Stop:
            code[k] = tok.level
        elif tok is not NULL:
            vals[k] = tok
    if dtype is None:
        dtype = np.float64 if any(v.__class__ is float for v in vals) else np.int64
    return Stream(code, np.array(vals, dtype=dtype), null if null.any() else None)


def _same(a, b) -> bool:
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)  # -0.0 and NaN too
    return a == b


def _same_tokens(got: list, want: list) -> bool:
    return len(got) == len(want) and all(map(_same, got, want))


def check(loop_fn, inputs: dict, outs, dtypes=None, **params):
    """Runs ``loop_fn`` and its array function on the same inputs and
    requires equal traces, outputs and counters."""
    fn = partial(loop_fn, **params)
    lr = NodeRun({p: list(t) for p, t in inputs.items()}, outs)
    fn(lr)
    dtypes = dtypes or {}
    ar = NodeRun({p: to_stream(t, dtypes.get(p)) for p, t in inputs.items()}, outs)
    array_function(fn)(ar)
    assert ar.trace == lr.trace
    for p in outs:
        assert _same_tokens(to_tokens(ar.outs[p]), lr.outs[p]), p
    assert ar.flops == lr.flops
    assert ar.bytes_read == lr.bytes_read
    assert _same_tokens(ar.records, lr.records)


def declines(loop_fn, inputs: dict, outs, dtypes=None, **params):
    dtypes = dtypes or {}
    ar = NodeRun({p: to_stream(t, dtypes.get(p)) for p, t in inputs.items()}, outs)
    with pytest.raises(Decline):
        array_function(partial(loop_fn, **params))(ar)


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
    check(run_root, {}, ["ref"])


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
    params = {"tensor": t, "level_idx": level, "mem_latency": draw(st.integers(0, 3))}
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
    check(run_scan, {"ref": ref}, ["crd", "ref"], **params)


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
    check(run_vals, {"ref": ref}, ["val"], tensor=t, mem_latency=latency)


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
    check(run_join, inputs, ["crd", "p0", "p1"], dtypes={"p0": np.int64, "p1": np.int64}, mode=mode)


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
    check(run_repeat, {"data": data, "ctrl": ctrl}, ["out"], dtypes={"data": np.int64})


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
    check(run_alu, {"in0": a, "in1": b}, ["out"], dtypes=dtypes, op=op, block=None)


@SETTINGS
@given(streams(VALUES), st.sampled_from(["relu", "exp", "gelu", ("scale", 2.5), ("scale", -1.0)]))
def test_map(stream, fn):
    check(run_map, {"in": stream}, ["out"], dtypes={"in": np.float64}, fn=fn)


@st.composite
def red1_cases(draw):
    stops = draw(shapes())
    fibers = [draw(st.lists(st.integers(0, 5), max_size=5)) for _ in range(len(stops) + 1)]
    crd = tokens(fibers, stops)
    val = [tok if tok is DONE or tok.__class__ is Stop else draw(VALUES) for tok in crd]
    return crd, val


@SETTINGS
@given(red1_cases())
def test_red1(case):
    crd, val = case
    check(run_red1, {"crd": crd, "val": val}, ["crd", "val"], dtypes={"val": np.float64})


def test_red1_adds_in_arrival_order():
    # pairwise summation would give 1.0 for the first coordinate
    crd = [0] * 3 + [DONE]
    val = [1e16, 1.0, 1.0, DONE]
    check(run_red1, {"crd": crd, "val": val}, ["crd", "val"])


@SETTINGS
@given(red1_cases())
def test_crddrop_inner(case):
    crd, val = case
    inputs = {"outer": crd, "inner": val}
    check(run_crddrop_inner, inputs, ["outer", "inner"], dtypes={"inner": np.float64})


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
    check(run_crddrop_outer, inputs, ["outer", "inner"], dtypes={"inner": np.int64})


# --- sinks ----------------------------------------------------------------


@SETTINGS
@given(streams(VALUES), st.sampled_from(["crd", "val"]))
def test_write(stream, port):
    check(run_write, {port: stream}, [], dtypes={port: np.float64}, port=port)


# --- off the happy path ---------------------------------------------------

B = SparseTensor.from_dense(
    np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]), [LevelSpec(DENSE), LevelSpec(COMPRESSED)]
)

# kind -> (loop function, well-formed inputs, output ports, params)
CASES = {
    "scan": (run_scan, {"ref": [0, S0, 1, DONE]}, ["crd", "ref"],
             dict(tensor=B, level_idx=1, mem_latency=1, mult=None, stride=None)),
    "vals": (run_vals, {"ref": [0, S0, 1, DONE]}, ["val"], dict(tensor=B, mem_latency=1)),
    "intersect": (run_join, {"crd0": [0, 2, S0, 1, DONE], "p0": [0, 1, S0, 2, DONE],
                             "crd1": [0, S0, 1, DONE], "p1": [5, S0, 6, DONE]},
                  ["crd", "p0", "p1"], dict(mode="intersect")),
    "union": (run_join, {"crd0": [0, 2, S0, 1, DONE], "p0": [0, 1, S0, 2, DONE],
                         "crd1": [0, S0, 1, DONE], "p1": [5, S0, 6, DONE]},
              ["crd", "p0", "p1"], dict(mode="union")),
    "repeat": (run_repeat, {"data": [10, S0, 20, DONE], "ctrl": [1, 2, S1, 3, DONE]}, ["out"], {}),
    "alu": (run_alu, {"in0": [1.0, S0, 2.0, DONE], "in1": [3.0, S0, 4.0, DONE]}, ["out"],
            dict(op="add", block=None)),
    "map": (run_map, {"in": [1.0, S0, -2.0, DONE]}, ["out"], dict(fn="relu")),
    "red1": (run_red1,
             {"crd": [0, 1, S0, 1, S1, 2, DONE], "val": [1.0, 2.0, S0, 3.0, S1, 4.0, DONE]},
             ["crd", "val"], {}),
    "crddrop_inner": (run_crddrop_inner,
                      {"outer": [0, 1, S0, 2, DONE], "inner": [1.0, 0.0, S0, 2.0, DONE]},
                      ["outer", "inner"], {}),
    "crddrop_outer": (run_crddrop_outer,
                      {"outer": [0, 1, S0, 2, DONE], "inner": [5, S0, S1, 6, DONE]},
                      ["outer", "inner"], {}),
    "write": (run_write, {"crd": [0, 1, S0, 2, DONE]}, [], dict(port="crd")),
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


def test_blocked_reduce_and_substituted_functions_have_no_array_function():
    blocked = B.block((1, 1))
    assert array_function(partial(run_vals, tensor=blocked, mem_latency=1)) is None
    assert array_function(partial(run_alu, op="add", block={"mode": "einsum"})) is None
    assert array_function(partial(run_reduce, op="sum", intra=(), zero_shape=None)) is None
    assert array_function(partial(run_alu, op="pow", block=None)) is None
    assert array_function(partial(run_map, fn="tanh")) is None
    assert array_function(lambda run: None) is None


def test_an_exp_that_overflows_declines():
    declines(run_map, {"in": [1000.0, DONE]}, ["out"], fn="exp")  # math.exp raises


def test_to_tokens_inverts_to_stream():
    toks = [0, 1, NULL, S0, S2, 3, DONE]
    assert _same_tokens(to_tokens(to_stream(toks)), toks)
    assert math.isnan(to_tokens(to_stream([math.nan, DONE]))[0])


def test_a_scan_declines_a_stop_whose_level_would_wrap():
    ref = Stream(np.array([0, 127, END], dtype=np.int8), np.zeros(3, dtype=np.int64), None)
    run = NodeRun({"ref": ref}, ["crd", "ref"])
    with pytest.raises(Decline):
        array_function(partial(run_scan, **CASES["scan"][3]))(run)
