"""The two-pass engine against the generator engine it replaced.

``sim_reference.run`` resumes generator processes under the ready-queue
scheduler over bounded channels.  ``sim.run`` must agree with it on the
outcome (the class and message of the error, or success), on
``counters()``, ``node_cycles`` and ``node_flops``, and on the bytes of
every output: for every program of ``test_pipeline`` at every schedulable
order of every region and at several channel depths, and for programs
drawn by ``test_oracle``'s strategy; and again with the interleaving check
tried on every run, however small the graph, with the array pass 1
watched to run exactly where its functions cover the region, and with
pass 1 on the loop functions where it would run on the array functions.  Pass 1 on either
set of functions must also end every stream with its one Done.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from einstream import sim
from einstream.sim import arrays, engine
from einstream.sim.processes import node_function
from einstream.errors import EinstreamError, UnsupportedSchedule
from einstream.frontend import parse_program, validate_program
from einstream.fusion import elaborate_region, map_user_order, resolve_cycles
from einstream.graph import DONE, DataflowGraph
from einstream.tensors import COMPRESSED, LevelSpec, SparseTensor
from einstream.pipeline import (
    compile_region,
    plan_region,
    prepare_region,
    restore,
    schedulable_orders,
)

sys.path.insert(0, str(Path(__file__).parent))
import sim_reference  # noqa: E402
from test_oracle import programs  # noqa: E402
from test_sim_golden import FUSED_SOFTMAX  # noqa: E402
from test_pipeline import (  # noqa: E402
    COPY,
    DIVIDE,
    DIVIDE_RELU,
    DIVIDE_RELU_INPUTS,
    GCN,
    GCN_PARTITIONS,
    MATMUL,
    PAIR3,
    SOFTMAX,
    SPMM,
    SPMV,
    ZERO_BLOCKS,
    ZERO_BLOCKS_INPUTS,
    _env,
    _inputs,
    gcn_partition,
)

DEPTHS = (1, 2, 4, 10**6)
PROGRAMS = {
    "spmv": (SPMV.format(body="y(i) = A(i, k) * x(k);"), None),
    "fused_relu": (SPMM.format(extra=""), None),
    "fused_relu_par2": (SPMM.format(extra="parallelize(i, 2);"), None),
    "gcn_block2": (GCN, None),
    "copy": (COPY, None),
    "softmax": (SOFTMAX, None),
    "divide": (DIVIDE, None),
    "divide_relu": (DIVIDE_RELU, DIVIDE_RELU_INPUTS),
    "zero_blocks": (ZERO_BLOCKS, ZERO_BLOCKS_INPUTS),
    "spmv_par2": (SPMV.format(body="y(i) = A(i, k) * x(k);\nparallelize(i, 2);"), None),
    "pair3_par2": (PAIR3, None),
    "fused_relu_block2": (
        SPMM.replace("index k = 5", "index k = 4").format(extra="block(2, 2);"),
        None,
    ),
    "matmul": (MATMUL.format(order=""), None),
    "fused_softmax": (FUSED_SOFTMAX, None),  # most orders emit malformed streams
    **{
        "gcn_" + "_".join(map(str, sizes)): (gcn_partition(sizes), None)
        for sizes in GCN_PARTITIONS
    },
}


def _tensor_bytes(t) -> tuple:
    levels = tuple(
        (lvl.kind, getattr(lvl, "segments", b"").tobytes() if hasattr(lvl, "segments") else b"",
         lvl.coords.tobytes() if hasattr(lvl, "coords") else b"")
        for lvl in t.levels
    )
    return (t.shape, t.mode_order, t.fill, levels, t.values.tobytes())


def _result(engine, graph, tensors, depth):
    try:
        rep = engine(graph, tensors, sim.SimConfig(channel_depth=depth))
    except Exception as err:  # the outcome is compared, whatever it is
        return (type(err).__name__, str(err)), None
    outputs = {name: _tensor_bytes(t) for name, t in rep.outputs.items()}
    return ("ok", rep.counters(), rep.node_cycles, rep.node_flops, outputs), rep


def assert_engines_agree(graph, tensors):
    """Both engines at every depth; returns the report at the default
    depth, or None when that run failed."""
    reports = {}
    for depth in DEPTHS:
        want, _ = _result(sim_reference.run, graph, tensors, depth)
        got, reports[depth] = _result(sim.run, graph, tensors, depth)
        assert got == want, f"depth {depth}"
    return reports[sim.SimConfig().channel_depth]


def _regions(vp, dense):
    """Each region's compiled variants at every schedulable order, with the
    program's par and block where the lowering accepts them, on the
    tensors the regions before it stored at their chosen order."""
    env = _env(vp, dense)
    for r in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, r))
        par = {map_user_order(ir, [n])[0]: f for n, f in vp.schedule.parallelize} or None
        for order in schedulable_orders(vp, ir):
            try:
                cr = compile_region(vp, ir, order, par=par, block=vp.schedule.block)
            except UnsupportedSchedule:
                continue
            yield (r, order), cr.graph, prepare_region(vp, cr, env)
        cr = plan_region(vp, r)
        try:
            rep = sim.run(cr.graph, prepare_region(vp, cr, env), sim.SimConfig())
        except EinstreamError:
            return  # later regions have no inputs
        for _, name in cr.ir.outputs:
            env[name] = restore(vp, name, rep.outputs[name])


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_engines_agree_on_every_order_and_depth(name):
    src, inputs = PROGRAMS[name]
    vp = validate_program(parse_program(src))
    cases = 0
    for where, graph, tensors in _regions(vp, inputs if inputs is not None else _inputs(vp)):
        try:
            assert_engines_agree(graph, tensors)
        except AssertionError as err:
            raise AssertionError(f"{name} region/order {where}: {err}") from None
        cases += 1
    assert cases


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_engines_agree_on_generated_programs(case):
    vp, dense = case
    env = _env(vp, dense)
    for r in range(len(vp.regions)):
        try:
            cr = plan_region(vp, r)
        except EinstreamError:
            return  # not every drawn region can be lowered
        rep = assert_engines_agree(cr.graph, prepare_region(vp, cr, env))
        if rep is None:
            return  # later regions have no inputs
        for _, name in cr.ir.outputs:
            env[name] = restore(vp, name, rep.outputs[name])


@pytest.fixture
def forced_check(monkeypatch):
    """The interleaving check tried on every run, however small; returns
    what it decided on each."""
    decided = []
    certify = engine._certify

    def spy(*args):
        decided.append(certify(*args))
        return decided[-1]

    monkeypatch.setattr(engine, "_CERTIFY_OPS", 0)
    monkeypatch.setattr(engine, "_certify", spy)
    return decided


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_forced_check_agrees_on_every_order_and_depth(forced_check, name):
    test_engines_agree_on_every_order_and_depth(name)
    assert True in forced_check


def test_forced_check_agrees_on_generated_programs(forced_check):
    test_engines_agree_on_generated_programs()
    assert True in forced_check and False in forced_check


def _on_arrays(funcs) -> bool:
    """Whether pass-1 functions ``funcs`` are the array functions."""
    return all(getattr(fn, "func", fn).__module__ == arrays.__name__ for fn in funcs)


@pytest.fixture
def forced_loops(monkeypatch):
    """Pass 1 on the loop functions on every run, through the restart a
    declining array function causes; returns, per pass 1 that starts,
    whether it was on the array functions."""
    started = []
    pass1 = engine._pass1

    def spy(net, funcs):
        started.append(_on_arrays(funcs))
        if started[-1]:
            raise arrays.Decline("array functions disabled")
        return pass1(net, funcs)

    monkeypatch.setattr(engine, "_pass1", spy)
    return started


@pytest.fixture
def forced_arrays(monkeypatch):
    """The array pass 1, which every run tries however small, watched;
    returns whether it was taken on each run: True where pass 1 ran to its
    end on the array functions, False where it ran on the loops."""
    taken = []
    pass1 = engine._pass1

    def spy(net, funcs):
        on_arrays = _on_arrays(funcs)
        if not on_arrays:
            taken.append(False)
        got = pass1(net, funcs)
        if on_arrays:
            taken.append(True)
        return got

    monkeypatch.setattr(engine, "_pass1", spy)
    return taken


# the programs with a region free of reduce, par/ser and blocked payloads,
# whose runs start on the array functions; every other program runs on
# the loops from the start
ARRAY_PROGRAMS = {"copy", "divide", "divide_relu", "fused_relu", "matmul", "softmax"}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_forced_arrays_agree_on_every_order_and_depth(forced_arrays, name):
    test_engines_agree_on_every_order_and_depth(name)
    assert (True in forced_arrays) == (name in ARRAY_PROGRAMS)


def test_forced_arrays_agree_on_generated_programs(forced_arrays):
    test_engines_agree_on_generated_programs()
    assert True in forced_arrays and False in forced_arrays


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_forced_loops_agree_on_every_order_and_depth(forced_loops, name):
    test_engines_agree_on_every_order_and_depth(name)
    assert (True in forced_loops) == (name in ARRAY_PROGRAMS)


def test_forced_loops_agree_on_generated_programs(forced_loops):
    test_engines_agree_on_generated_programs()
    assert True in forced_loops and False in forced_loops


def _pass1_streams(graph, tensors, on_arrays: bool):
    """Pass 1 of ``graph`` on the loop or the array functions: every output
    stream of every node that ran, as a token list, and whether a node
    raised or declined; None when some node has no array function."""
    order = graph.validate()
    funcs = [node_function(graph.nodes[nid], tensors, 4) for nid in order]
    if on_arrays:
        funcs = [arrays.array_function(fn) for fn in funcs]
        if not all(funcs):
            return None
    streams = []

    def keeping_outputs(fn):
        def run(r):
            try:
                fn(r)
            finally:
                streams.extend(r.outs.values())

        return run

    try:
        _, _, ends = engine._pass1(engine._Net(graph, order), list(map(keeping_outputs, funcs)))
        raised = any(end is not None for end in ends)
    except arrays.Decline:
        raised = True  # the nodes after the declining one never ran
    tokens = [arrays.to_tokens(t) if isinstance(t, arrays.Stream) else t for t in streams]
    return tokens, raised


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_stream_ends_with_its_one_done(name):
    """The trace contract's "Send Done last", on the loop functions and on
    the array functions: in a pass 1 where no node raised, every output
    stream holds one Done, as its last token; where one raised, no stream
    carries a token after a Done.  Pass 1 does not see the channel depth,
    so one run per order stands for every depth."""
    src, inputs = PROGRAMS[name]
    vp = validate_program(parse_program(src))
    cases = 0
    for where, graph, tensors in _regions(vp, inputs if inputs is not None else _inputs(vp)):
        for on_arrays in (False, True):
            got = _pass1_streams(graph, tensors, on_arrays)
            if got is None:
                continue
            streams, raised = got
            for tokens in streams:
                done = [k for k, tok in enumerate(tokens) if tok is DONE]
                assert done == [len(tokens) - 1] or (raised and not done), (where, on_arrays)
            cases += 1
    assert cases


def _racing_adders(names) -> DataflowGraph:
    """One value stream read by several adders, each pairing it with its
    own fiber total: every adder fails, and the schedule decides which
    failure the run reports."""
    g = DataflowGraph()
    g.connect(g.add("root"), "ref", g.add("scan", "scan_c", tensor="c", level=0), "ref", "ref")
    g.connect("scan_c", "ref", g.add("vals", "vals_c", tensor="c"), "ref", "ref")
    for name in names:
        total = g.add("reduce", f"total_{name}", op="sum")
        add = g.add("alu", f"add_{name}", op="add")
        g.connect("vals_c", "val", add, "in0", "val")
        g.connect("vals_c", "val", total, "in", "val")
        g.connect(total, "out", add, "in1", "val")
    return g


# 45 adders make 137 channels: the replay codes no longer fit a byte
MANY = tuple(f"n{k:02d}" for k in range(45))


@pytest.mark.parametrize(
    "names", [("a", "b"), ("b", "a"), ("x", "a", "m"), MANY], ids=["ab", "ba", "xam", "many"]
)
@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_engines_agree_on_which_error_comes_first(names, depth):
    c = SparseTensor.from_dense(np.arange(1.0, 9.0), [LevelSpec(COMPRESSED)])
    graph = _racing_adders(names)
    assert engine._Net(graph, graph.validate()).wide == (names is MANY)
    want, _ = _result(sim_reference.run, graph, {"c": c}, depth)
    got, _ = _result(sim.run, graph, {"c": c}, depth)
    assert got == want
