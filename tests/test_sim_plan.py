"""The channel plan ``sim.run`` builds once per graph, and the classes of
nodes in it that compute the same streams: pass 1 runs one function per
class, and every member still gets its own channels, outcome and
counters, as ``sim_reference``, which runs every node, does."""

from __future__ import annotations

import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from einstream import sim
from einstream.frontend import parse_program, validate_program
from einstream.graph import DataflowGraph
from einstream.pipeline import plan_region, prepare_region
from einstream.sim import engine
from einstream.tensors import COMPRESSED, LevelSpec, SparseTensor

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "layerbench"))
import sim_reference  # noqa: E402
from test_sim_differential import _racing_adders, _regions, _result  # noqa: E402
from test_pipeline import SPMM, _env, _inputs  # noqa: E402
from test_sim_engine import build_spmv_graph, spmv_tensors  # noqa: E402
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


def test_pass1_runs_one_function_per_class(monkeypatch):
    graph, tensors = _first_order("attention")
    calls = []
    real = engine._node_functions

    def counted(fn, nid):
        def run(r):
            calls.append(nid)
            return fn(r)

        return run

    def functions(node, t, lat):
        fn, afn = real(node, t, lat)
        return counted(fn, node.id), afn and counted(afn, node.id)

    monkeypatch.setattr(engine, "_node_functions", functions)
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
        assert graph() in engine._plans
        del cr
        assert graph() is None
    finally:
        if enabled:
            gc.enable()
