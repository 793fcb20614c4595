"""End-to-end engine tests on a hand-built sparse matrix-vector graph,
and, on compiled programs, the interleaving check and which pass 1 runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from einstream.errors import Deadlock, GraphError, MalformedStream
from einstream.frontend import parse_program, validate_program
from einstream.graph import DONE, DataflowGraph
from einstream.pipeline import run_program
from einstream.sim import SimConfig, engine, run
from einstream.tensors import COMPRESSED, LevelSpec, SparseTensor

sys.path.insert(0, str(Path(__file__).parent))
from test_pipeline import SPMM, _inputs, check_program  # noqa: E402
from test_sim_differential import _on_arrays  # noqa: E402

CC = [LevelSpec(COMPRESSED), LevelSpec(COMPRESSED)]


def build_spmv_graph() -> DataflowGraph:
    """x(i) = B(i,k) * c(k) with both operands compressed."""
    g = DataflowGraph()
    root = g.add("root")
    bi = g.add("scan", "scan_B_i", tensor="B", level=0)
    bk = g.add("scan", "scan_B_k", tensor="B", level=1)
    rep = g.add("repeat", "rep_c")
    ck = g.add("scan", "scan_c_k", tensor="c", level=0)
    isect = g.add("intersect", "isect_k")
    bvals = g.add("vals", "vals_B", tensor="B")
    cvals = g.add("vals", "vals_c", tensor="c")
    mul = g.add("alu", "mul_k", op="mul")
    red = g.add("reduce", "sum_k", op="sum")
    drop = g.add("crddrop", "drop_i", stage="inner")
    wcrd = g.add("write_crd", "write_x_i", tensor="x", level=0)
    wval = g.add(
        "write_val",
        "write_x_val",
        tensor="x",
        shape=[2],
        mode_order=[0],
        formats=["compressed"],
        fill=0.0,
    )
    g.connect(root, "ref", bi, "ref", "ref")
    g.connect(root, "ref", rep, "data", "ref")
    g.connect(bi, "crd", rep, "ctrl", "crd")
    g.connect(bi, "ref", bk, "ref", "ref")
    g.connect(rep, "out", ck, "ref", "ref")
    g.connect(bk, "crd", isect, "crd0", "crd")
    g.connect(bk, "ref", isect, "p0", "ref")
    g.connect(ck, "crd", isect, "crd1", "crd")
    g.connect(ck, "ref", isect, "p1", "ref")
    g.connect(isect, "p0", bvals, "ref", "ref")
    g.connect(isect, "p1", cvals, "ref", "ref")
    g.connect(bvals, "val", mul, "in0", "val")
    g.connect(cvals, "val", mul, "in1", "val")
    g.connect(mul, "out", red, "in", "val")
    g.connect(bi, "crd", drop, "outer", "crd")
    g.connect(red, "out", drop, "inner", "val")
    g.connect(drop, "outer", wcrd, "crd", "crd")
    g.connect(drop, "inner", wval, "val", "val")
    return g


def spmv_tensors():
    B = SparseTensor.from_dense(np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]), CC)
    c = SparseTensor.from_dense(np.array([1.0, 2.0, 3.0]), [LevelSpec(COMPRESSED)])
    return {"B": B, "c": c}


def test_spmv_output_matches_hand_value():
    report = run(build_spmv_graph(), spmv_tensors(), SimConfig(mem_latency=0))
    x = report.outputs["x"]
    assert np.array_equal(x.to_dense(), [11.0, 8.0])


def test_spmv_flop_count():
    # 3 multiplies; row reductions of 2 and 1 values cost 1 and 0 adds
    report = run(build_spmv_graph(), spmv_tensors(), SimConfig(mem_latency=0))
    assert report.flops == 4
    assert report.node_flops["mul_k"] == 3
    assert report.node_flops["sum_k"] == 1


def test_spmv_byte_accounting():
    # read side, 4-byte metadata and 8-byte values, replays free:
    #   scan B rows: segs {0,1}, crds {0,1}            -> 16
    #   scan B cols: segs {0,1,2}, crds {0,1,2}        -> 24
    #   scan c (twice, same arrays): segs {0,1}, crds {0,1,2} -> 20
    #   vals B: 3 values                               -> 24
    #   vals c: positions 0,2 then 1                   -> 24
    report = run(build_spmv_graph(), spmv_tensors(), SimConfig(mem_latency=0))
    assert report.bytes_read == 108
    # written: 2 values (16) + compressed level segments [0,2] + crds [0,1] (16)
    assert report.bytes_written == 32


def test_spmv_drops_empty_rows():
    # second row of B intersects nowhere with c's support
    tensors = {
        "B": SparseTensor.from_dense(
            np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]), CC
        ),
        "c": SparseTensor.from_dense(
            np.array([1.0, 0.0, 3.0]), [LevelSpec(COMPRESSED)]
        ),
    }
    report = run(build_spmv_graph(), tensors, SimConfig(mem_latency=0))
    x = report.outputs["x"]
    assert np.array_equal(x.to_dense(), [11.0, 0.0])
    assert x.nnz == 1  # row 1 dropped, not stored as explicit zero


def test_outputs_identical_across_channel_depths():
    # depth bounds buffering only; no clock waits on a free slot
    reports = [
        run(build_spmv_graph(), spmv_tensors(), SimConfig(channel_depth=d))
        for d in (1, 4, 256)
    ]
    base = reports[0]
    for rep in reports[1:]:
        assert rep.outputs["x"] == base.outputs["x"]
        assert rep.flops == base.flops
        assert rep.bytes_read == base.bytes_read
        assert rep.bytes_written == base.bytes_written
        assert rep.cycles == base.cycles
        assert rep.node_cycles == base.node_cycles


def test_report_deterministic_across_runs():
    a = run(build_spmv_graph(), spmv_tensors(), SimConfig())
    b = run(build_spmv_graph(), spmv_tensors(), SimConfig())
    assert a.counters() == b.counters()
    assert a.node_cycles == b.node_cycles


def test_bandwidth_rooflines_cycles():
    free = run(build_spmv_graph(), spmv_tensors(), SimConfig(bandwidth=0.0))
    tight = run(build_spmv_graph(), spmv_tensors(), SimConfig(bandwidth=0.5))
    assert tight.memory_cycles == int(np.ceil(tight.total_bytes / 0.5))
    assert tight.cycles == max(tight.dataflow_cycles, tight.memory_cycles)
    assert tight.cycles > free.cycles


def test_mem_latency_slows_dataflow():
    fast = run(build_spmv_graph(), spmv_tensors(), SimConfig(mem_latency=0))
    slow = run(build_spmv_graph(), spmv_tensors(), SimConfig(mem_latency=50))
    assert slow.dataflow_cycles > fast.dataflow_cycles


def _value_plus_its_total() -> tuple[DataflowGraph, dict]:
    """An adder pairing a raw value stream with its own fiber reduction."""
    g = DataflowGraph()
    root = g.add("root")
    ci = g.add("scan", "scan_c", tensor="c", level=0)
    cv = g.add("vals", "vals_c", tensor="c")
    red = g.add("reduce", "total", op="sum")
    add = g.add("alu", "add_total", op="add")
    g.connect(root, "ref", ci, "ref", "ref")
    g.connect(ci, "ref", cv, "ref", "ref")
    g.connect(cv, "val", add, "in0", "val")
    g.connect(cv, "val", red, "in", "val")
    g.connect(red, "out", add, "in1", "val")
    c = SparseTensor.from_dense(np.array([1.0, 2.0, 3.0]), [LevelSpec(COMPRESSED)])
    return g, {"c": c}


def test_structural_deadlock_detected():
    # the adder needs buffering as deep as the fiber; depth 1 must deadlock
    g, tensors = _value_plus_its_total()
    with pytest.raises(Deadlock) as err:
        run(g, tensors, SimConfig(channel_depth=1))
    msg = str(err.value)
    assert "vals_c backpressured on vals_c:val->add_total:in0" in msg
    assert "add_total awaiting total:out->add_total:in1" in msg


def test_malformed_stream_names_the_node():
    # deep enough to run, the adder meets the total's Done against a value
    g, tensors = _value_plus_its_total()
    with pytest.raises(MalformedStream, match="^add_total: alu inputs desynchronized"):
        run(g, tensors, SimConfig(channel_depth=4))


@pytest.fixture
def checks(monkeypatch):
    """What the interleaving check decided on each run, and how many
    replays ran."""
    log = SimpleNamespace(certified=[], replays=0)
    certify, replay = engine._certify, engine._replay

    def spy_certify(*args):
        log.certified.append(certify(*args))
        return log.certified[-1]

    def spy_replay(*args):
        log.replays += 1
        return replay(*args)

    monkeypatch.setattr(engine, "_certify", spy_certify)
    monkeypatch.setattr(engine, "_replay", spy_replay)
    return log


def test_check_declines_a_reconvergent_fan_out_at_depth_1(monkeypatch, checks):
    # ls_A_i feeds both rep_X_i:ctrl and cd_Y_i:outer; at depth 1 the drop's
    # channel fills before the repeat can take its next coordinate
    vp = validate_program(parse_program(SPMM.format(extra="")))
    inputs = _inputs(vp)
    with pytest.raises(Deadlock) as unchecked:
        run_program(vp, inputs, SimConfig(channel_depth=1))
    monkeypatch.setattr(engine, "_CERTIFY_OPS", 0)
    with pytest.raises(Deadlock) as checked:
        run_program(vp, inputs, SimConfig(channel_depth=1))
    assert checks.certified == [False] and checks.replays == 2
    msg = str(checked.value)
    assert msg == str(unchecked.value)
    assert "ls_A_i backpressured on ls_A_i:crd->cd_Y_i:outer" in msg
    assert "rep_X_i awaiting ls_A_i:crd->rep_X_i:ctrl" in msg


def test_check_accepts_fused_relu_at_32_without_a_replay(checks):
    sizes = "index i = 32; index k = 32; index j = 32;"
    check_program(SPMM.format(extra="").replace("index i = 6; index k = 5; index j = 4;", sizes))
    assert checks.certified == [True] and checks.replays == 0


@pytest.fixture
def passes(monkeypatch):
    """Per pass 1 that runs: True on the array functions, False on the
    loop functions."""
    log = []
    pass1 = engine._pass1

    def spy(net, funcs):
        log.append(_on_arrays(funcs))
        return pass1(net, funcs)

    monkeypatch.setattr(engine, "_pass1", spy)
    return log


def test_fused_relu_at_32_takes_the_array_pass_without_the_loop_pass(passes):
    sizes = "index i = 32; index k = 32; index j = 32;"
    check_program(SPMM.format(extra="").replace("index i = 6; index k = 5; index j = 4;", sizes))
    assert passes == [True]


def test_a_run_on_few_stored_entries_takes_the_array_pass(passes):
    # fused relu at 6x5x4 stores well under 600 entries; no size keeps a
    # run whose every node has an array function on the loops
    vp = validate_program(parse_program(SPMM.format(extra="")))
    inputs = _inputs(vp)
    assert sum(map(np.count_nonzero, inputs.values())) < 600
    check_program(SPMM.format(extra=""), inputs=inputs)
    assert passes == [True]


def test_check_declines_a_read_past_the_end_of_a_stream(monkeypatch, checks):
    def root_without_done(run):
        run.trace.append(0)  # a send on port 0, "ref"
        run.outs["ref"].append(0)

    real = engine.node_function
    monkeypatch.setattr(
        engine, "node_function",
        lambda node, t, lat: root_without_done if node.kind == "root" else real(node, t, lat),
    )
    monkeypatch.setattr(engine, "_CERTIFY_OPS", 0)
    g = DataflowGraph()
    g.connect(g.add("root"), "ref", g.add("scan", "scan_c0", tensor="c", level=0), "ref", "ref")
    c = SparseTensor.from_dense(np.array([1.0, 0.0, 3.0]), [LevelSpec(COMPRESSED)])
    with pytest.raises(Deadlock, match="^no runnable node; scan_c0 awaiting root:ref->scan_c0:ref$"):
        run(g, {"c": c}, SimConfig())
    assert checks.certified == [False] and checks.replays == 1


def test_check_declines_a_reader_that_leaves_its_stream_full(monkeypatch, checks):
    # the root sends 0 and Done; a scan that reads neither leaves the
    # root waiting for room at depth 1
    real = engine.node_function
    monkeypatch.setattr(
        engine, "node_function",
        lambda node, t, lat: (lambda run: None) if node.kind == "scan" else real(node, t, lat),
    )
    monkeypatch.setattr(engine, "_CERTIFY_OPS", 0)
    g = DataflowGraph()
    g.connect(g.add("root"), "ref", g.add("scan", "scan_c0", tensor="c", level=0), "ref", "ref")
    c = SparseTensor.from_dense(np.array([1.0, 0.0, 3.0]), [LevelSpec(COMPRESSED)])
    with pytest.raises(Deadlock, match="^no runnable node; root backpressured on root:ref->scan_c0:ref$"):
        run(g, {"c": c}, SimConfig(channel_depth=1))
    assert run(g, {"c": c}, SimConfig(channel_depth=2)).cycles == 1
    assert checks.certified == [False, True] and checks.replays == 1


def test_writer_levels_that_do_not_nest_are_malformed():
    # two outer coordinates but one inner fiber: coordinate 1 has no fiber
    g = DataflowGraph()
    g.add("write_crd", "w_i", tensor="Y", level=0)
    g.add("write_crd", "w_j", tensor="Y", level=1)
    g.add("write_val", "w_v", tensor="Y", shape=[2, 2], mode_order=[0, 1],
          formats=["compressed", "compressed"], fill=0.0)
    records = {
        "w_i": SimpleNamespace(records=[0, 1, DONE]),
        "w_j": SimpleNamespace(records=[1, DONE]),
        "w_v": SimpleNamespace(records=[2.0, DONE]),
    }
    with pytest.raises(MalformedStream, match=r"^writer Y: level 1 has no fiber"):
        engine._finalize(g, records)


def test_a_node_with_more_ports_than_a_trace_byte_names_is_refused():
    g = DataflowGraph()
    g.connect(g.add("root"), "ref", g.add("par", "split", factor=255, nstreams=1), "in0", "ref")
    with pytest.raises(GraphError, match="^split has more than 255 ports$"):
        run(g, {}, SimConfig())


def test_graph_json_round_trip():
    g = build_spmv_graph()
    g2 = DataflowGraph.from_json(g.to_json())
    assert g2.to_json() == g.to_json()
    report = run(g2, spmv_tensors(), SimConfig())
    assert np.array_equal(report.outputs["x"].to_dense(), [11.0, 8.0])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["edges"][0]["dst"].__setitem__(1, "bogus"),
        lambda doc: doc["edges"][0].__setitem__("kind", "ref"),
        lambda doc: doc["nodes"].append(dict(doc["nodes"][0])),
    ],
    ids=["unknown_port", "wrong_stream_kind", "duplicate_id"],
)
def test_graph_json_is_validated_on_load(corrupt):
    doc = json.loads(build_spmv_graph().to_json())
    corrupt(doc)
    with pytest.raises(GraphError):
        DataflowGraph.from_json(json.dumps(doc))


def test_dot_export_mentions_every_node():
    g = build_spmv_graph()
    dot = g.to_dot()
    for nid in g.nodes:
        assert nid in dot
