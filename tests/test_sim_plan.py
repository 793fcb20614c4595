"""The channel plan ``sim.run`` builds once per graph, and the classes of
nodes in it that compute the same streams: pass 1 runs one function per
class, and every member still gets its own channels, outcome and
counters, as ``sim_reference``, which runs every node, does.  The plan
also keeps its last pass 1 and where its replay stopped: a run on equal
inputs at another depth or bandwidth reuses the pass, resumes the replay
when its depth is no smaller, and reports what a cold run reports."""

from __future__ import annotations

import copy
import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from einstream import sim
from einstream.errors import MalformedStream
from einstream.frontend import parse_program, validate_program
from einstream.fusion import elaborate_region, resolve_cycles
from einstream.graph import DataflowGraph
from einstream.pipeline import (
    compile_region,
    plan_region,
    prepare_region,
    region_par,
    schedulable_orders,
)
from einstream.sim import engine
from einstream.tensors import COMPRESSED, DENSE, LevelSpec, SparseTensor

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "layerbench"))
import sim_reference  # noqa: E402
from test_sim_differential import _racing_adders, _regions, _result, _tensor_bytes  # noqa: E402
from test_sim_golden import FUSED_SOFTMAX  # noqa: E402
from test_pipeline import PAR_NESTED, SPMM, SPMV, _env, _inputs, gcn_partition  # noqa: E402
from test_sim_engine import CC, build_spmv_graph, spmv_tensors  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

DEPTHS = (1, 4, 10**6)


def _vector(values) -> dict:
    return {"c": SparseTensor.from_dense(np.asarray(values, dtype=float), [LevelSpec(COMPRESSED)])}


def _writers(g: DataflowGraph, crd: tuple, val: tuple) -> None:
    """Write the coordinates on ``crd`` and the values on ``val`` as the
    vector y, of c's shape."""
    w_i = g.add("write_crd", "w_y_i", tensor="y", level=0)
    w_v = g.add("write_val", "w_y_vals", tensor="y", shape=[5], mode_order=[0],
                formats=["compressed"], fill=0.0)
    g.connect(*crd, w_i, "crd", "crd")
    g.connect(*val, w_v, "val", "val")


def _duplicates(graph) -> dict:
    """Each duplicate node -> its class head."""
    net = engine._plan(graph)
    return {net.order[i]: net.order[h] for i, h in enumerate(net.same) if h is not None}


def _agree(graph, tensors) -> list:
    """``sim.run`` and ``sim_reference.run`` at each depth: the same error,
    or the same counters, node cycles, node FLOPs and output bytes."""
    got = []
    for depth in DEPTHS:
        want, _ = _result(sim_reference.run, graph, tensors, depth)
        got.append(_result(sim.run, graph, tensors, depth)[0])
        assert got[-1] == want, f"depth {depth}"
    return got


def test_a_duplicate_sends_on_a_port_its_head_leaves_unconnected():
    # scan_a's crd and scan_b's ref have no channel; y = c
    g = DataflowGraph()
    root = g.add("root")
    a = g.add("scan", "scan_a", tensor="c", level=0)
    b = g.add("scan", "scan_b", tensor="c", level=0)
    vals = g.add("vals", "vals_c", tensor="c")
    g.connect(root, "ref", a, "ref", "ref")
    g.connect(root, "ref", b, "ref", "ref")
    g.connect(a, "ref", vals, "ref", "ref")
    _writers(g, (b, "crd"), (vals, "val"))
    assert _duplicates(g) == {"scan_b": "scan_a"}
    for outcome in _agree(g, _vector([1.0, 0.0, 3.0, 4.0, 0.0])):
        assert outcome[0] == "ok"


def test_a_duplicate_of_a_duplicate_reads_its_heads_values():
    # y = relu(c) + relu(c), each relu on its own vals node
    g = DataflowGraph()
    root = g.add("root")
    scan = g.add("scan", "scan_c", tensor="c", level=0)
    g.connect(root, "ref", scan, "ref", "ref")
    add = g.add("alu", "add", op="add")
    for k, port in enumerate(("in0", "in1")):
        vals = g.add("vals", f"vals_{k}", tensor="c")
        relu = g.add("map", f"relu_{k}", fn="relu")
        g.connect(scan, "ref", vals, "ref", "ref")
        g.connect(vals, "val", relu, "in", "val")
        g.connect(relu, "out", add, port, "val")
    _writers(g, (scan, "crd"), (add, "out"))
    assert _duplicates(g) == {"vals_1": "vals_0", "relu_1": "relu_0"}
    for outcome in _agree(g, _vector([1.0, -2.0, 0.0, 4.0, -5.0])):
        assert outcome[0] == "ok"
    report = sim.run(g, _vector([1.0, -2.0, 0.0, 4.0, -5.0]))
    assert np.array_equal(report.outputs["y"].to_dense(), [2.0, 0.0, 0.0, 8.0, 0.0])
    assert report.node_flops["relu_1"] == report.node_flops["relu_0"]


def test_a_duplicates_error_comes_first_where_the_replay_reaches_it_first():
    # add_a is the head of add_b; both raise in pass 1, and at depth 4 the
    # replay takes add_b up to its error first
    g = _racing_adders(("b", "a"))
    assert _duplicates(g) == {"total_b": "total_a", "add_b": "add_a"}
    outcomes = _agree(g, _vector([1.0, 2.0, 3.0, 4.0]))
    assert [kind for kind, _ in outcomes] == ["Deadlock", "MalformedStream", "MalformedStream"]
    assert outcomes[1][1].startswith("add_b: alu inputs desynchronized")
    assert outcomes[2][1].startswith("add_a: alu inputs desynchronized")


def test_params_that_differ_only_in_the_sign_of_zero_are_not_merged():
    g = DataflowGraph()
    root = g.add("root")
    scan = g.add("scan", "scan_c", tensor="c", level=0)
    vals = g.add("vals", "vals_c", tensor="c")
    g.connect(root, "ref", scan, "ref", "ref")
    g.connect(scan, "ref", vals, "ref", "ref")
    scales = [g.add("map", f"scale_{k}", fn=("scale", z)) for k, z in enumerate((0.0, -0.0))]
    add = g.add("alu", "add", op="add")
    for s, port in zip(scales, ("in0", "in1")):
        g.connect(vals, "val", s, "in", "val")
        g.connect(s, "out", add, port, "val")
    _writers(g, (scan, "crd"), (add, "out"))
    assert _duplicates(g) == {}


def _first_order(name: str):
    """The graph and tensors of order_sweep's program ``name`` at its first
    accepted order, on the bench's inputs for seed 1, data seed 0."""
    prog = next(p for p in WORKLOADS["order_sweep"].programs if p.name == name)
    vp = validate_program(parse_program(prog.text))
    _, graph, tensors = next(_regions(vp, make_inputs(vp, prog, 1, 0)))
    return graph, tensors


@pytest.mark.parametrize("name, nodes, duplicates", [("attention", 105, 35), ("softmax8", 30, 7)])
def test_order_sweeps_first_orders_have_their_duplicate_counts(name, nodes, duplicates):
    graph, _ = _first_order(name)
    assert len(graph.nodes) == nodes
    assert len(_duplicates(graph)) == duplicates


@pytest.fixture
def calls(monkeypatch) -> list:
    """The ids of the nodes whose pass-1 functions ``sim.run`` calls."""
    got = []
    real = engine._node_functions

    def counted(fn, nid):
        def run(r):
            got.append(nid)
            return fn(r)

        return run

    def functions(node, t, lat):
        fn, afn = real(node, t, lat)
        return counted(fn, node.id), afn and counted(afn, node.id)

    monkeypatch.setattr(engine, "_node_functions", functions)
    return got


def test_pass1_runs_one_function_per_class(calls):
    graph, tensors = _first_order("attention")
    heads = set(graph.nodes) - set(_duplicates(graph))
    want, _ = _result(sim_reference.run, graph, tensors, 4)
    got, _ = _result(sim.run, graph, tensors, 4)
    assert got == want
    assert len(heads) == 70 and sorted(calls) == sorted(heads)


def test_a_graph_grown_after_a_run_is_planned_again():
    g, tensors = build_spmv_graph(), spmv_tensors()
    first = sim.run(g, tensors)
    plan = engine._plan(g)
    # a second copy of the result, as the vector z, from duplicate nodes
    red = g.add("reduce", "sum_k_again", op="sum")
    drop = g.add("crddrop", "drop_i_again", stage="inner")
    wcrd = g.add("write_crd", "write_z_i", tensor="z", level=0)
    wval = g.add("write_val", "write_z_val", tensor="z", shape=[2], mode_order=[0],
                 formats=["compressed"], fill=0.0)
    g.connect("mul_k", "out", red, "in", "val")
    g.connect("scan_B_i", "crd", drop, "outer", "crd")
    g.connect(red, "out", drop, "inner", "val")
    g.connect(drop, "outer", wcrd, "crd", "crd")
    g.connect(drop, "inner", wval, "val", "val")
    fresh = DataflowGraph.from_json(g.to_json())
    for depth in DEPTHS:
        assert _result(sim.run, g, tensors, depth)[0] == _result(sim.run, fresh, tensors, depth)[0]
    assert engine._plan(g) is not plan
    assert _duplicates(g) == {"sum_k_again": "sum_k", "drop_i_again": "drop_i"}
    again = sim.run(g, tensors)
    assert np.array_equal(again.outputs["z"].to_dense(), first.outputs["x"].to_dense())


def test_a_plan_is_freed_with_its_compiled_graph():
    # by reference count: the sweep compiles a graph per order, and plans
    # that outlive their graphs until a collection would pile up
    vp = validate_program(parse_program(SPMM.format(extra="")))
    cr = plan_region(vp, 0)
    tensors = prepare_region(vp, cr, _env(vp, _inputs(vp)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.run(cr.graph, tensors)
        graph = weakref.ref(cr.graph)
        plan = weakref.ref(engine._plans[cr.graph])
        assert plan().last is not None
        held = weakref.ref(tensors["A"])  # the entry's key holds A
        del cr, tensors
        assert graph() is None and plan() is None and held() is None
    finally:
        if enabled:
            gc.enable()


# one graph swept as a design-space sweep runs it: (depth, bandwidth)
SWEEP = ((1, 0.0), (4, 0.0), (10**6, 0.0), (4, 8.0))
RERUN_PROGRAMS = {
    "spmv": SPMV.format(body="y(i) = A(i, k) * x(k);"),
    "fused_relu": SPMM.format(extra=""),
    "fused_softmax": FUSED_SOFTMAX,
    "gcn_fused": gcn_partition((4,)),
    "par_nested": PAR_NESTED,
    "fused_relu_block2": SPMM.replace("index k = 5", "index k = 4").format(extra="block(2, 2);"),
}


def _fresh(vp, cr, dense: dict) -> dict:
    """``cr``'s tensors compressed afresh from ``dense``: equal bits, new
    objects."""
    return prepare_region(vp, cr, _env(vp, dense))


@pytest.mark.parametrize("name", sorted(RERUN_PROGRAMS))
def test_a_rerun_on_equal_inputs_reports_what_a_cold_run_reports(calls, name):
    vp = validate_program(parse_program(RERUN_PROGRAMS[name]))
    dense = _inputs(vp)
    ir = resolve_cycles(elaborate_region(vp, 0))
    par = region_par(vp, ir)
    kept = 0
    for order in schedulable_orders(vp, ir):
        cr = compile_region(vp, ir, order, par=par, block=vp.schedule.block)
        hits = 0
        for depth, bandwidth in SWEEP:
            cold = copy.deepcopy(cr.graph)  # keeps the node and edge order
            want, _ = _result(sim.run, cold, _fresh(vp, cr, dense), depth, bandwidth)
            calls.clear()
            got, _ = _result(sim.run, cr.graph, _fresh(vp, cr, dense), depth, bandwidth)
            assert got == want, (order, depth, bandwidth)
            hits += not calls
        # every run after the first hits, unless pass 1 raised
        last = engine._plan(cr.graph).last
        assert hits == (len(SWEEP) - 1 if last is not None else 0)
        kept += last is not None
    assert kept


# the depths a sweep may run one graph at, in this order: rising, falling,
# then one depth twice
RESUMES = (1, 2, 4, 10**6, 10**6, 4, 1, 2, 2)
# the programs with an order whose replay deadlocks after some node moved,
# so that a deeper rerun resumes it midway
STOPS_MIDWAY = {"fused_relu", "fused_relu_block2", "gcn_fused"}


@pytest.fixture
def walks(monkeypatch) -> list:
    """(node, first code) for each node's replay codes a replay takes."""
    got = []
    real = engine._Net.replay_ops

    def spy(net, i, trace, start=0):
        got.append((i, start))
        return real(net, i, trace, start)

    monkeypatch.setattr(engine._Net, "replay_ops", spy)
    return got


@pytest.mark.parametrize("name", sorted(RERUN_PROGRAMS))
def test_a_resumed_replay_reports_what_a_cold_run_reports(walks, name):
    """A rerun on equal inputs at a depth no smaller than its entry's goes
    on from where the kept replay stopped: it takes each unfinished node's
    codes from the node's kept position and no finished node's, or none at
    all when the kept replay completed.  Each run is checked against a
    cold run on a copy of the graph that keeps its node and edge order."""
    vp = validate_program(parse_program(RERUN_PROGRAMS[name]))
    dense = _inputs(vp)
    ir = resolve_cycles(elaborate_region(vp, 0))
    resumed, midway = 0, 0
    for order in schedulable_orders(vp, ir):
        cr = compile_region(vp, ir, order, par=region_par(vp, ir), block=vp.schedule.block)
        for depth in RESUMES:
            want, _ = _result(sim.run, copy.deepcopy(cr.graph), _fresh(vp, cr, dense), depth)
            net = engine._plans.get(cr.graph)
            last = net and net.last
            walks.clear()
            got, _ = _result(sim.run, cr.graph, _fresh(vp, cr, dense), depth)
            assert got == want, (order, depth)
            if last is None or depth < last[3]:  # from the start, or not at all
                assert walks in ([], [(i, 0) for i in range(len(cr.graph.nodes))])
                continue
            stop = last[4]
            left = [] if stop is None else [
                (i, at) for i, (at, done) in enumerate(zip(stop.pos, stop.finished)) if not done
            ]
            assert walks == left, (order, depth)
            resumed += 1
            midway += any(at for _, at in left)
    assert resumed and bool(midway) == (name in STOPS_MIDWAY)


def test_a_rerun_on_equal_inputs_calls_no_node_function(calls):
    graph = build_spmv_graph()
    sim.run(graph, spmv_tensors(), sim.SimConfig(channel_depth=1))
    assert sorted(calls) == sorted(graph.nodes)
    calls.clear()
    sim.run(graph, spmv_tensors(), sim.SimConfig(channel_depth=4, bandwidth=8))
    assert calls == []


def _spmv_inputs(zero: float) -> dict:
    """``spmv_tensors`` with ``zero`` stored at B's (0, 1)."""
    entries = [((0, 0), 2.0), ((0, 1), zero), ((0, 2), 3.0), ((1, 1), 4.0)]
    return {**spmv_tensors(), "B": SparseTensor.from_coo((2, 3), entries, CC)}


MISSES = {
    "negative_zero": lambda t, cfg: ({**t, "B": _spmv_inputs(-0.0)["B"]}, cfg),
    "mem_latency": lambda t, cfg: (t, sim.SimConfig(mem_latency=cfg.mem_latency + 1)),
    "another_format": lambda t, cfg: (
        {**t, "c": SparseTensor.from_dense(t["c"].to_dense(), [LevelSpec(DENSE)])}, cfg
    ),
    "another_tensor": lambda t, cfg: (
        {**t, "c": SparseTensor.from_dense(np.array([3.0, 0.0, 1.0]), [LevelSpec(COMPRESSED)])}, cfg
    ),
}


@pytest.mark.parametrize("change", sorted(MISSES))
def test_a_rerun_on_other_inputs_runs_pass_1_again(calls, change):
    graph = build_spmv_graph()
    tensors, config = MISSES[change](_spmv_inputs(0.0), sim.SimConfig())
    sim.run(graph, _spmv_inputs(0.0), sim.SimConfig())
    calls.clear()
    got = sim.run(graph, tensors, config)
    assert calls
    want = sim.run(DataflowGraph.from_json(graph.to_json()), tensors, config)
    assert (got.counters(), got.node_cycles, got.node_flops) == (
        want.counters(), want.node_cycles, want.node_flops
    )
    assert got.outputs.keys() == want.outputs.keys()
    for name, t in got.outputs.items():
        assert _tensor_bytes(t) == _tensor_bytes(want.outputs[name])


def test_a_run_whose_pass_1_raised_keeps_no_entry():
    # each adder raises in pass 1; a kept traceback would hold its frames
    graph = _racing_adders(("a", "b"))
    c = _vector([1.0, 2.0, 3.0, 4.0])
    for _ in range(2):
        with pytest.raises(MalformedStream, match="alu inputs desynchronized"):
            sim.run(graph, c)
        assert engine._plan(graph).last is None
