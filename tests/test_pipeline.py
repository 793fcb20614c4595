"""Compiler half end to end: elaboration, order choice, lowering, host prep
and simulation, checked against the dense oracle."""

from __future__ import annotations

import copy
import gc
import itertools
import math
import re
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from einstream import heuristic, oracle, pipeline, sim
from einstream.errors import (
    Deadlock,
    EinstreamError,
    IncompatibleBlocks,
    IndivisibleExtent,
    MalformedStream,
    ParseError,
    PartialBlock,
    ScheduleError,
    UnsatisfiableOrder,
    UnsupportedSchedule,
)
from einstream.frontend import parse_program, validate_program
from einstream.fusion import (
    elaborate_region,
    is_acyclic,
    nesting_edges,
    region_vars,
    resolve_cycles,
)
from einstream.graph import DataflowGraph
from einstream.pipeline import (
    choose_build_order,
    compile_region,
    plan_region,
    prepare_region,
    region_par,
    run_program,
    schedulable_orders,
    store,
)
from einstream.table import render_table
from einstream.transforms import fill_sensitive
from einstream.tensors import COMPRESSED, DENSE, LevelSpec, SparseTensor

SPMV = """
index i = 6; index k = 5;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor x(k): compressed(k) order(k) input;
{body}
"""

SPMM = """
index i = 6; index k = 5; index j = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, j): dense(k) -> compressed(j) order(k, j) input;
tensor b(i, j): dense(i) -> compressed(j) order(i, j) input;
fuse {{
  Y(i, j) = relu(A(i, k) * X(k, j) + b(i, j));
}}
{extra}
"""

GCN_DECLS = """
index i = 8; index k = 8; index f = 8; index h = 4; index c = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, f): dense(k) -> compressed(f) order(k, f) input;
tensor W1(f, h): dense(f) -> dense(h) order(f, h) input;
tensor W2(h, c): dense(h) -> dense(c) order(h, c) input;
"""
GCN_EXPRS = (
    "T1(i, f) = A(i, k) * X(k, f);",
    "H1(i, h) = relu(T1(i, f) * W1(f, h));",
    "T2(i, h) = A(i, k) * H1(k, h);",
    "Out(i, c) = T2(i, h) * W2(h, c);",
)
GCN = GCN_DECLS + "\n".join(GCN_EXPRS) + "\nblock(2, 2);\n"


def gcn_partition(sizes, directives="block(2, 2);") -> str:
    """The GCN with its expressions fused in consecutive groups of ``sizes``."""
    groups, at = [], 0
    for n in sizes:
        groups.append("fuse { " + " ".join(GCN_EXPRS[at:at + n]) + " }")
        at += n
    return GCN_DECLS + "\n".join(groups) + f"\n{directives}\n"


# every contiguous partition of the GCN's four expressions into regions
GCN_PARTITIONS = [
    sizes
    for n in range(1, 5)
    for sizes in itertools.product(range(1, 5), repeat=n)
    if sum(sizes) == 4
]

COPY = """
index i = 8; index j = 8;
tensor A(i, j): dense(i) -> compressed(j) order(i, j) input;
tensor C(j, i): dense(j) -> compressed(i) order(j, i) input;
fuse {
  Y(i, j) = A(i, j) * C(j, i);
}
"""

SOFTMAX = """
index i = 6; index j = 6;
tensor S(i, j): dense(i) -> compressed(j) order(i, j) input;
R(i) = max(S(i, j));
Z(i, j) = exp(S(i, j) - R(i));
D(i) = Z(i, j);
O(i, j) = Z(i, j) / D(i);
"""

DIVIDE = """
index i = 8;
tensor a(i): compressed(i) order(i) input;
tensor d(i): compressed(i) order(i) input;
y(i) = a(i) / d(i);
"""

DIVIDE_RELU = """
index i = 4;
tensor a(i): compressed(i) order(i) input;
tensor d(i): compressed(i) order(i) input;
y(i) = a(i) / relu(d(i));
"""
# stored divisors that relu maps to 0, and a stored 0 numerator
DIVIDE_RELU_INPUTS = {"a": np.array([6.0, 0.0, 2.0, 1.0]), "d": np.array([3.0, 5.0, -1.0, 0.0])}

ZERO_BLOCKS = """
index i = 4; index k = 4; index j = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, j): dense(k) -> compressed(j) order(k, j) input;
H(i, j) = relu(A(i, k) * X(k, j));
Y(i, j) = H(i, k) * X(k, j);
block(2, 2);
"""
# A >= 0 and X <= 0, so relu writes H with no nonzero block and Y reads it
ZERO_BLOCKS_INPUTS = {
    "A": np.array([[1.0, 0, 0, 2], [0, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0]]),
    "X": -np.array([[1.0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [4, 0, 0, 5]]),
}

PAIR3 = """
index i = 4; index j = 3; index k = 5;
tensor A(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) input;
tensor B(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) input;
Y(i, j, k) = A(i, j, k) * B(i, j, k);
parallelize(i, 2);
"""

# four lanes over three rows: the last lane gets no element
PAR_EMPTY_LANE = SPMM.replace("index i = 6", "index i = 3").format(extra="parallelize(i, 4);")
# three lanes over eight rows, uneven
PAR_UNEVEN = SPMM.replace("index i = 6", "index i = 8").format(extra="parallelize(i, 3);")
# a split nested in each lane of another, between two stored indices: a j
# lane often gets no element under an i coordinate
PAR_NESTED = PAIR3 + "parallelize(j, 3);\n"

SPMM8 = """
index i = {i}; index k = 8; index j = 8;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, j): dense(k) -> compressed(j) order(k, j) input;
{decl}Y(i, j) = A(i, k) * X(k, j);
{extra}
"""

MATMUL = """
index i = 3; index j = 4; index k = 5;
tensor A(i, k): dense(i) -> dense(k) order(i, k) input;
tensor B(k, j): dense(k) -> dense(j) order(k, j) input;
fuse {{
  C(i, j) = A(i, k) * B(k, j);
  {order}
}}
"""

DENSITY = {"A": 0.4, "X": 0.5, "b": 0.5, "x": 0.6, "C": 0.4, "S": 0.5,
           "W1": 1.0, "W2": 1.0, "B": 1.0, "a": 0.6, "d": 0.5}


def _inputs(vp, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: oracle.random_dense(vp.shape_of(name), DENSITY[name], rng)
        for name in sorted(vp.decls)
        if vp.role_of(name) == "input"
    }


# with a row of A that holds no entry, in the middle lane
PAR_UNEVEN_INPUTS = _inputs(validate_program(parse_program(PAR_UNEVEN)))
PAR_UNEVEN_INPUTS["A"][4] = 0.0


def _env(vp, dense):
    return {name: store(vp, name, arr) for name, arr in dense.items()}


def check_program(src, seed=0, inputs=None, depth=4):
    """``run_program`` on ``inputs``, or on random inputs drawn from ``seed``;
    it must store every declared output, and every tensor it stored must
    equal the oracle's."""
    vp = validate_program(parse_program(src))
    dense = inputs if inputs is not None else _inputs(vp, seed)
    want = oracle.evaluate_program(vp, dense)
    run = run_program(vp, dense, sim.SimConfig(channel_depth=depth))
    assert not any(t.is_blocked for rep in run.reports for t in rep.outputs.values())
    assert {n for n in want if vp.role_of(n) == "output"} <= set(run.outputs)
    for name, t in run.outputs.items():
        np.testing.assert_allclose(t.to_dense(), want[name], rtol=1e-9, atol=1e-12)
    return run


@pytest.mark.parametrize(
    "src, inputs",
    [
        (SPMV.format(body="y(i) = A(i, k) * x(k);"), None),
        (SPMM.format(extra=""), None),
        (SPMM.format(extra="parallelize(i, 2);"), None),
        (GCN, None),
        (COPY, None),
        (SOFTMAX, None),
        (DIVIDE, None),
        (DIVIDE_RELU, DIVIDE_RELU_INPUTS),
        (ZERO_BLOCKS, ZERO_BLOCKS_INPUTS),
        (SPMV.format(body="y(i) = A(i, k) * x(k);\nparallelize(i, 2);"), None),
        (PAIR3, None),
        (SPMM.replace("index k = 5", "index k = 4").format(extra="block(2, 2);"), None),
        (PAR_EMPTY_LANE, None),
        (PAR_UNEVEN, PAR_UNEVEN_INPUTS),
        (PAR_NESTED, None),
    ],
    ids=[
        "spmv", "fused_relu", "fused_relu_par2", "gcn_block2", "copy", "softmax", "divide",
        "divide_relu", "zero_blocks", "spmv_par2", "pair3_par2", "fused_relu_block2",
        "par_empty_lane", "par_uneven", "par_nested",
    ],
)
def test_program_matches_oracle(src, inputs):
    check_program(src, inputs=inputs)


# Programs the stream grammar fails on today, because it cannot tell "no
# fibers" from "one empty fiber" (ROADMAP item 3).  Each xfail is strict:
# the fix that makes one match the oracle must remove its marker.
COPY3 = """
index i = 3; index j = 2; index k = 3;
tensor A(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) input;
tensor Y(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) output;
Y(i, j, k) = A(i, j, k);
"""
COPY3_A = np.zeros((3, 2, 3))  # row 1 holds no entry
COPY3_A[0, 1, 2], COPY3_A[2, 0, 0], COPY3_A[2, 1, 1] = 1.0, 2.0, 3.0

# PAIR3 without parallelize, and with a second operand at 40 %
PRODUCT3 = """
index i = 4; index j = 3; index k = 5;
tensor A(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) input;
tensor C(i, j, k): dense(i) -> compressed(j) -> compressed(k) order(i, j, k) input;
Y(i, j, k) = A(i, j, k) * C(i, j, k);
"""

# a max over a quotient whose divisor stores no entry
MAX_OVER_ZERO_DIVISOR = """
index i = 3; index j = 2;
tensor T0(i): compressed(i) order(i) input;
tensor T1(j): compressed(j) order(j) input;
tensor T2(i): compressed(i) order(i) input;
O(i) = max(T0(i) * T1(j) / T2(i));
"""


@pytest.mark.xfail(
    strict=True,
    raises=MalformedStream,
    reason="cd_Y_j: crddrop outer stream early boundary S0",
)
@pytest.mark.parametrize("depth", [4, 10**6])
def test_copy_of_a_3_level_tensor_with_an_empty_row_matches_oracle(depth):
    check_program(COPY3, inputs={"A": COPY3_A}, depth=depth)


@pytest.mark.xfail(
    strict=True,
    raises=MalformedStream,
    reason="writer Y: level 2 has no fiber per level 1 coordinate",
)
@pytest.mark.parametrize("seed", range(4))
def test_unfused_product_of_two_sparse_3_level_tensors_matches_oracle(seed):
    check_program(PRODUCT3, seed=seed)


@pytest.mark.xfail(
    strict=True,
    raises=MalformedStream,
    reason="alu_O: alu inputs desynchronized: 0.0 vs Done",
)
def test_max_over_a_divisor_with_no_stored_entry_matches_oracle():
    inputs = {"T0": np.array([1.0, 2.0, 0.0]), "T1": np.array([1.0, -1.0]), "T2": np.zeros(3)}
    check_program(MAX_OVER_ZERO_DIVISOR, inputs=inputs)


def test_parallelize_scales_the_modelled_cycles():
    """Fused relu(A*X + b) at 32^3: each lane writes its own slice of Y, so
    two lanes take under 0.6 of one lane's cycles and four take fewer
    still, for the same FLOPs.  Each lane reads its operands again, so
    bytes may grow with the lanes."""
    src = SPMM.replace(
        "index i = 6; index k = 5; index j = 4", "index i = 32; index k = 32; index j = 32"
    )
    cycles, flops = [], set()
    for par in (1, 2, 4):
        rng = np.random.default_rng(0)
        dense = {
            name: oracle.random_dense((32, 32), density, rng, -1.0, 1.0)
            for name, density in (("A", 0.05), ("X", 0.1), ("b", 0.5))
        }
        extra = f"parallelize(i, {par});" if par > 1 else ""
        (rep,) = check_program(src.format(extra=extra), inputs=dense).reports
        cycles.append(rep.cycles)
        flops.add(rep.flops)
    assert len(flops) == 1
    assert cycles[1] < 0.6 * cycles[0] and cycles[2] < cycles[1], cycles


@pytest.mark.parametrize("sizes", GCN_PARTITIONS, ids=lambda s: "_".join(map(str, s)))
def test_gcn_partitions_match_oracle(sizes):
    """Each region stores its last expression's tensor; the intermediates
    fused inside a region are never stored."""
    run = check_program(gcn_partition(sizes))
    ends = itertools.accumulate(sizes)
    assert set(run.outputs) == {GCN_EXPRS[e - 1].split("(")[0] for e in ends}
    assert len(run.reports) == len(run.orders) == len(sizes)


@pytest.mark.parametrize("sizes", GCN_PARTITIONS, ids=lambda s: "_".join(map(str, s)))
def test_gcn_partitions_block_every_region_var_by_2(sizes):
    """Every dim of the GCN is tiled by 2, so every region var is, the
    indices of inlined producers included."""
    vp = validate_program(parse_program(gcn_partition(sizes)))
    for r in range(len(vp.regions)):
        cr = plan_region(vp, r)
        assert cr.block.factors == dict.fromkeys(cr.ir.extents, 2)


@pytest.mark.parametrize("block", ["", "block(2, 2);"], ids=["unblocked", "block2"])
@pytest.mark.parametrize("sizes", GCN_PARTITIONS, ids=lambda s: "_".join(map(str, s)))
def test_a_parallelize_splits_only_the_regions_with_its_index(sizes, block):
    """Only ``Out`` uses ``c``: the region that computes it runs two lanes,
    and every other region compiles to the graph it has without the
    directive."""
    src = gcn_partition(sizes, block + " parallelize(c, 2);")
    check_program(src)
    vp, plain = (validate_program(parse_program(s)) for s in (src, gcn_partition(sizes, block)))
    for r in range(len(sizes)):
        graphs = [plan_region(p, r).graph.to_json() for p in (vp, plain)]
        with_c = "c" in elaborate_region(vp, r).name_map
        assert with_c == (r == len(sizes) - 1)
        assert (graphs[0] == graphs[1]) == (not with_c)


def test_blocked_graphs_survive_a_json_round_trip():
    """A blocked alu's ``block`` spec is a dict param; read back from JSON,
    every region graph simulates to the same counters and outputs."""
    vp = validate_program(parse_program(GCN))
    env = _env(vp, _inputs(vp))
    for r in range(len(vp.regions)):
        cr = plan_region(vp, r)
        back = DataflowGraph.from_json(cr.graph.to_json())
        assert any(isinstance(n.params.get("block"), dict) for n in back.nodes.values())
        tensors = prepare_region(vp, cr, env)
        want, got = sim.run(cr.graph, tensors), sim.run(back, tensors)
        assert got.counters() == want.counters()
        assert got.node_cycles == want.node_cycles
        assert want.outputs.keys() == got.outputs.keys()
        for name, t in want.outputs.items():
            assert got.outputs[name].to_dense().tobytes() == t.to_dense().tobytes()
            env[name] = store(vp, name, t)


def test_a_graph_read_back_from_json_deadlocks_as_the_graph_does():
    """``to_json`` keeps the order in which the simulator numbers channels,
    so a ``Deadlock`` of the copy names a stream's owed channels in the
    graph's order."""
    vp = validate_program(parse_program(MATMUL.format(order="order(i, k, j);")))
    cr = plan_region(vp, 0)
    assert cr.order == ("i", "u0", "j")
    tensors = prepare_region(vp, cr, _env(vp, _inputs(vp)))
    messages = []
    for g in (cr.graph, DataflowGraph.from_json(cr.graph.to_json())):
        with pytest.raises(Deadlock) as err:
            sim.run(g, tensors, sim.SimConfig(channel_depth=1))
        messages.append(str(err.value))
    assert "ls_B_j backpressured on" in messages[0]
    assert messages[1] == messages[0]


@pytest.mark.parametrize(
    "src, want",
    [
        (
            SPMV.format(body="y(i) = A(i, k) * x(k);"),
            [
                "     A        x          y",
                "----------------------------------------",
                "i    LS A.i   Rep <A.i>  <A.i>",
                "u0   LS A.u0  LS x.u0    &u0(A.u0, x.u0)",
                "val  Val A    Val x      *; sum u0",
            ],
        ),
        (
            SPMM.format(extra="parallelize(i, 2);"),
            [
                "      A          X          t0               b       t1     Y",
                "---------------------------------------------------------------------------",
                "i x2  LS A.i     Rep <A.i>  <A.i>            LS b.i  <A.i>  <A.i>",
                "u0    LS A.u0    LS X.u0    &u0(A.u0, X.u0)",
                "j     Rep <X.j>  LS X.j     <X.j>            LS b.j  <b.j>  |j(sum u0, b.j)",
                "val   Val A      Val X      *; sum u0 by j   Val b   pass   +; relu",
            ],
        ),
    ],
    ids=["spmv", "fused_relu_par2"],
)
def test_render_table_at_the_planned_order(src, want):
    """The iteration table of the order ``plan_region`` picks: one row per
    loop var (its split factor beside it), one column per operand and op."""
    cr = plan_region(validate_program(parse_program(src)), 0)
    assert render_table(cr.info) == "\n".join(want)


def test_operands_indexed_off_their_declared_dims_match_oracle():
    # A and X declare k, and the expression sums them over c
    src = SPMM8.format(i=6, decl="", extra="").replace("A(i, k) * X(k, j)", "A(i, c) * X(c, j)")
    vp = validate_program(parse_program(src))
    assert (vp.shape_of("A"), vp.shape_of("X")) == ((6, 8), (8, 8))
    check_program(src)


@pytest.mark.parametrize("evaluate", [oracle.evaluate_program, run_program])
def test_program_inputs_are_checked(evaluate):
    vp = validate_program(parse_program(SPMV.format(body="y(i) = A(i, k) * x(k);")))
    dense = _inputs(vp)
    with pytest.raises(EinstreamError, match="missing input tensor x"):
        evaluate(vp, {"A": dense["A"]})
    with pytest.raises(EinstreamError, match=r"input x: shape \(4,\), declared \(5,\)"):
        evaluate(vp, {**dense, "x": np.ones(4)})


@pytest.mark.parametrize(
    "sizes, materialized",
    [((1, 1, 1, 1), ["T1", "H1", "T2"]), ((2, 2), ["H1"])],
    ids=["unfused", "T1H1_T2Out"],
)
def test_estimate_program_counts_region_boundaries(sizes, materialized):
    vp = validate_program(parse_program(gcn_partition(sizes)))
    total = heuristic.estimate_program(vp)
    assert total.materialized == materialized
    assert total.flops == pytest.approx(sum(total.per_expression.values()))


@pytest.mark.parametrize(
    "src",
    [
        SPMV.format(body="y(i) = A(i, k) * x(k);"),
        SPMM.format(extra=""),
        SPMM.format(extra="parallelize(i, 2);"),
    ],
    ids=["spmv", "fused_relu", "fused_relu_par2"],
)
def test_sim_run_is_freed_by_refcount(src):
    vp = validate_program(parse_program(src))
    cr = plan_region(vp, 0)
    tens = prepare_region(vp, cr, _env(vp, _inputs(vp)))
    gc.collect()
    gc.disable()
    try:
        sim.run(cr.graph, tens, sim.SimConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "src", [COPY, GCN, SPMM.format(extra="")], ids=["copy", "gcn_block2", "fused_relu"]
)
def test_compile_region_leaves_the_callers_ir_alone(src):
    """Permuted copies and blocking rewrite views and extents on the
    compiled region's own copy of the IR, whatever the order."""
    vp = validate_program(parse_program(src))
    for r in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, r))
        snapshot = copy.deepcopy(ir)
        for order in schedulable_orders(vp, ir):
            for block in (None, (2, 2)):
                try:
                    compile_region(vp, ir, order, block=block)
                except Exception:  # noqa: BLE001 - refused or failed, the IR must hold
                    pass
                assert ir == snapshot, (r, order, block)


SOFTMAX_FUSED = SOFTMAX.replace("R(i) =", "fuse {\nR(i) =") + "}\n"
HAND_OVER = [SPMV.format(body="y(i) = A(i, k) * x(k);"), SPMM.format(extra=""), SOFTMAX_FUSED]
HAND_OVER_IDS = ["spmv", "fused_relu", "fused_softmax"]


@pytest.fixture
def builds(monkeypatch):
    """Every order ``compile_region`` lowers, in call order."""
    calls = []
    real = pipeline.build_region_graph

    def spy(vp, ir, order, **kw):
        calls.append(tuple(order))
        return real(vp, ir, order, **kw)

    monkeypatch.setattr(pipeline, "build_region_graph", spy)
    return calls


def _searched(src, r=0):
    vp = validate_program(parse_program(src))
    ir = resolve_cycles(elaborate_region(vp, r))
    return vp, ir, choose_build_order(vp, ir)


# one program whose regions run blocked, one whose region runs split
DIRECTED = [GCN, SPMM.format(extra="parallelize(i, 2);")]
DIRECTED_IDS = ["gcn_block2", "fused_relu_par2"]


def _directives(vp, ir) -> dict:
    return {"par": region_par(vp, ir), "block": vp.schedule.block}


@pytest.mark.parametrize("src", HAND_OVER + DIRECTED, ids=HAND_OVER_IDS + DIRECTED_IDS)
def test_plan_region_lowers_its_chosen_order_once(src, builds):
    """The search's probes are the only lowerings: the accepted one, built
    under the region's directives, is handed to ``compile_region``."""
    vp = validate_program(parse_program(src))
    for r in range(len(vp.regions)):
        del builds[:]
        choose_build_order(vp, resolve_cycles(elaborate_region(vp, r)))
        probes = builds[:]
        del builds[:]
        cr = plan_region(vp, r)
        assert builds == probes and builds[-1] == cr.order


@pytest.mark.parametrize("src", HAND_OVER, ids=HAND_OVER_IDS)
def test_a_kept_lowering_is_handed_out_once(src, builds):
    vp, ir, order = _searched(src)
    del builds[:]
    first = compile_region(vp, ir, order)
    assert not builds and not ir.lowered
    second = compile_region(vp, ir, order)
    assert builds == [order] and second.graph is not first.graph


@pytest.mark.parametrize("src", DIRECTED, ids=DIRECTED_IDS)
def test_the_searchs_lowering_is_handed_out_to_its_directives(src, builds):
    vp = validate_program(parse_program(src))
    for r in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, r))
        order = choose_build_order(vp, ir)
        kept = ir.lowered[order][3]
        directives = _directives(vp, ir)
        del builds[:]
        cr = compile_region(vp, ir, order, **directives)
        assert not builds and cr is kept and order not in ir.lowered
        assert cr.info.par == (directives["par"] or {})
        assert (cr.block is None) == (directives["block"] is None)


def _other_directives(vp, ir) -> dict:
    """Unblocked where the program blocks; another factor where it splits."""
    if vp.schedule.block is not None:
        return {**_directives(vp, ir), "block": None}
    return {"par": {v: 3 for v in region_par(vp, ir)}, "block": None}


@pytest.mark.parametrize("src", DIRECTED, ids=DIRECTED_IDS)
def test_a_call_with_other_directives_lowers_afresh(src, builds):
    """And leaves the kept lowering for a call with its own directives."""
    vp = validate_program(parse_program(src))
    for r in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, r))
        order = choose_build_order(vp, ir)
        kept = ir.lowered[order][3]
        other = _other_directives(vp, ir)
        del builds[:]
        cr = compile_region(vp, ir, order, **other)
        assert builds == [order] and cr is not kept
        assert cr.info.par == (other["par"] or {}) and cr.block is None
        assert compile_region(vp, ir, order, **_directives(vp, ir)) is kept
        assert builds == [order]


@pytest.mark.parametrize(
    "src", HAND_OVER + [COPY] + DIRECTED, ids=HAND_OVER_IDS + ["copy"] + DIRECTED_IDS
)
def test_a_kept_lowering_equals_a_fresh_one(src):
    """Region by region, on the tensors the regions before stored."""
    vp = validate_program(parse_program(src))
    env = _env(vp, _inputs(vp))
    for r in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, r))
        order = choose_build_order(vp, ir)
        assert order in ir.lowered
        directives = _directives(vp, ir)
        kept = compile_region(vp, ir, order, **directives)
        assert not ir.lowered
        # an IR that was never searched holds nothing to hand out
        fresh = compile_region(vp, resolve_cycles(elaborate_region(vp, r)), order, **directives)
        assert kept.graph is not fresh.graph
        assert kept.graph.to_json() == fresh.graph.to_json()
        assert kept.info == fresh.info and kept.copy_plans == fresh.copy_plans
        assert kept.ir == fresh.ir and kept.block == fresh.block
        got, want = (
            sim.run(c.graph, prepare_region(vp, c, env), sim.SimConfig()) for c in (kept, fresh)
        )
        assert got.counters() == want.counters()
        assert got.outputs == want.outputs
        for _, name in kept.ir.outputs:
            env[name] = store(vp, name, got.outputs[name])


def test_kept_lowerings_are_freed_with_their_ir():
    """By refcount: neither the search nor what it keeps makes a cycle
    through the IR, with or without a split."""
    for src in (SOFTMAX_FUSED, SPMM.format(extra="parallelize(i, 2);")):
        vp = validate_program(parse_program(src))
        ir = resolve_cycles(elaborate_region(vp, 0))
        gc.collect()
        gc.disable()
        try:
            orders = schedulable_orders(vp, ir)
            assert sorted(ir.lowered) == sorted(orders)
            entries = ir.lowered.values()
            assert all(e[0] is vp and e[1:3] == (region_par(vp, ir) or {}, None) for e in entries)
            refs = [weakref.ref(x) for *_, cr in entries for x in (cr, cr.graph, cr.ir)]
            del ir, entries
            assert not [r for r in refs if r() is not None]
        finally:
            gc.enable()


def test_resolve_cycles_drops_what_was_kept_for_the_ir_it_rewrites():
    vp = validate_program(parse_program(COPY))
    ir = elaborate_region(vp, 0)
    assert not is_acyclic(ir)
    ir.lowered["o"], ir.estimates["o"] = (vp, None), None
    resolve_cycles(ir)
    assert ir.copies and not ir.lowered and not ir.estimates
    ir.lowered["o"], ir.estimates["o"] = (vp, None), None
    resolve_cycles(ir)  # acyclic now: nothing to rewrite, nothing dropped
    assert "o" in ir.lowered and "o" in ir.estimates


def test_a_lowering_kept_for_another_program_is_not_used(builds):
    src = SPMM.format(extra="")
    vp, ir, order = _searched(src)
    kept = ir.lowered[order][3]
    other = validate_program(parse_program(src))
    del builds[:]
    cr = compile_region(other, ir, order)
    assert builds == [order] and cr is not kept


# Programs whose regions run under each parallelize(v, 2), under
# block(2, 2) and under both; gcn_4 is the fused GCN.
DIRECTIVE_CORPUS = {
    "spmm": SPMM.format(extra=""),
    "matmul": MATMUL.format(order=""),
    "softmax": SOFTMAX,
    "fused_softmax": SOFTMAX_FUSED,
    "pair3": PAIR3.replace("parallelize(i, 2);\n", ""),
    **{"gcn_" + "_".join(map(str, sizes)): gcn_partition(sizes, "") for sizes in GCN_PARTITIONS},
}


def _corpus():
    """(plain program, program under directives, directives) of the corpus."""
    for src in DIRECTIVE_CORPUS.values():
        plain = validate_program(parse_program(src))
        splits = [f"parallelize({v}, 2);" for v in sorted(plain.var_extents)]
        for directives in splits + ["block(2, 2);"] + [f"{p} block(2, 2);" for p in splits]:
            yield plain, validate_program(parse_program(src + directives + "\n")), directives


def _outcome(plan):
    try:
        return plan()
    except EinstreamError as e:
        return type(e), str(e)


def test_the_search_under_directives_plans_what_the_plain_order_did():
    """Per region, ``plan_region``'s order or its error class and message
    are those of the order chosen without the directives, lowered under
    them: the first order accepted under them is the first accepted plain,
    and where they refuse every order the reason is that order's."""
    seen = set()
    for plain, vp, directives in _corpus():
        for r in range(len(vp.regions)):

            def plain_first():
                order = choose_build_order(plain, resolve_cycles(elaborate_region(plain, r)))
                ir = resolve_cycles(elaborate_region(vp, r))
                compile_region(vp, ir, order, **_directives(vp, ir))
                return order

            got = _outcome(lambda: plan_region(vp, r).order)
            assert got == _outcome(plain_first), (directives, r)
            seen.add(got[0] if isinstance(got[0], type) else "planned")
    assert seen == {"planned", UnsupportedSchedule, UnsatisfiableOrder, IndivisibleExtent,
                    IncompatibleBlocks}


def _accepts(lower) -> bool:
    try:
        lower()
    except ScheduleError:
        return False
    return True


def test_an_order_accepted_under_directives_is_accepted_plain():
    """Over every order of each corpus region with at most 5 vars; and the
    search under the directives lists exactly the orders they accept, in
    order, so its pruning skips none of them."""
    both = Counter()
    for _, vp, directives in _corpus():
        for r in range(len(vp.regions)):
            ir = resolve_cycles(elaborate_region(vp, r))
            vs = region_vars(ir)
            if len(vs) > 5 or not _accepts(lambda: region_par(vp, ir)):
                continue
            edges = [(a, b) for a, b in ir.edges if a in vs and b in vs and a != b]
            accepted = []
            for order in itertools.permutations(vs):
                if any(order.index(a) > order.index(b) for a, b in edges):
                    continue
                plain_ok = _accepts(lambda: compile_region(vp, ir, order))
                directed_ok = _accepts(lambda: compile_region(vp, ir, order, **_directives(vp, ir)))
                assert plain_ok or not directed_ok, (directives, r, order)
                both[plain_ok, directed_ok] += 1
                accepted += [order] * directed_ok
            searched = _outcome(lambda: schedulable_orders(vp, ir, cap=math.factorial(5)))
            if not isinstance(searched, list):  # refused whatever the order
                searched = []
            assert searched == accepted, (directives, r)
    assert both[True, True] and both[True, False] and both[False, False]


@pytest.mark.parametrize(
    "src", [SPMV.format(body="y(i) = A(i, k) * x(k);"), GCN], ids=["spmv", "gcn_block2"]
)
def test_run_program_times_each_region(src):
    run = check_program(src)
    assert len(run.timings) == len(run.reports)
    for t in run.timings:
        assert sorted(t) == ["plan_region", "prepare_region", "sim.run", "store"]
        assert all(s >= 0 for s in t.values())
    assert replace(run, timings=[]) == run


def test_copy_program_schedules_a_permuted_copy():
    vp = validate_program(parse_program(COPY))
    (plan,) = plan_region(vp, 0).copy_plans
    assert plan.source in ("A", "C") and plan.alias.startswith(plan.source)


def test_blocking_a_region_with_a_permuted_copy_is_refused(builds):
    """Whatever the order: the search refuses before its first probe."""
    vp = validate_program(parse_program(COPY + "block(2, 2);\n"))
    ir = resolve_cycles(elaborate_region(vp, 0))
    with pytest.raises(UnsupportedSchedule, match="permuted input copies"):
        schedulable_orders(vp, ir)
    assert not builds
    plain = validate_program(parse_program(COPY))
    orders = schedulable_orders(plain, resolve_cycles(elaborate_region(plain, 0)))
    assert orders
    for order in orders:
        with pytest.raises(UnsupportedSchedule, match="permuted input copies"):
            compile_region(vp, ir, order, block=(2, 2))
    with pytest.raises(UnsupportedSchedule, match="permuted input copies"):
        run_program(vp, _inputs(vp))


def test_blocked_output_is_stored_scalar_in_its_declared_layout():
    """A blocked region writes a scalar tensor and is charged the blocks
    that hold a nonzero: Y's nonzeros fall in blocks (0, 2) and (3, 0) of
    the 4x4 grid, so compressed(i) -> dense(j) stores 2 block rows of 4
    blocks of 4 slots (256 B) and 4 index ints (16 B)."""
    a, x = np.zeros((8, 8)), np.zeros((8, 8))
    a[0:2, 0:2] = [[1, 2], [0, 3]]
    a[6, 7] = -1.5
    x[0:2, 4:6] = [[1, 0], [2, 1]]
    x[7, 0] = 2.0
    decl = "tensor Y(i, j): compressed(i) -> dense(j) order(i, j) output;\n"
    run = check_program(SPMM8.format(i=8, decl=decl, extra="block(2, 2);"),
                        inputs={"A": a, "X": x})
    y = run.outputs["Y"]
    assert not y.is_blocked
    assert (y.mode_order, y.formats) == ((0, 1), (LevelSpec(COMPRESSED), LevelSpec(DENSE)))
    assert run.reports[0].bytes_written == 272


BLOCK_TWO_EDGES = """
index i = 8; index k = 8;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor B(k, i): dense(i) -> compressed(k) order(i, k) input;
Y(i, k) = A(i, k) * B(k, i);
block(2, 4);
"""

BLOCK_RENAMED_DIMS = """
index i = 8; index k = 8; index p = 8; index q = 8;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor B(p, q): dense(p) -> compressed(q) order(p, q) input;
Y(i, j) = A(i, k) * B(k, j);
block(2, 4);
"""

BLOCK_NO_EDGE = """
index i = 4; index k = 4; index m = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor v(m): compressed(m) order(m) input;
Y(i, k) = A(i, k);
Z(m) = v(m);
block(2, 2);
"""


@pytest.mark.parametrize(
    "src, region, error, message",
    [
        (SPMM8.format(i=6, decl="", extra="block(4, 4);"), 0, IndivisibleExtent,
         "extent 6 of 'i' is not divisible by block edge 4"),
        (BLOCK_TWO_EDGES, 0, IncompatibleBlocks,
         "index 'k' is tiled with edges 4 and 2 by different tensors"),
        (BLOCK_NO_EDGE, 1, IncompatibleBlocks,
         "cannot infer a block edge for index 'm' of Z; it appears in no rank-2 tensor"),
        (BLOCK_RENAMED_DIMS, 0, IncompatibleBlocks,
         "A.k and B.p share loop index 'u0' but are tiled with edges 4 and 2"),
    ],
    ids=["indivisible", "two_edges", "no_edge", "one_var_two_edges"],
)
def test_blocking_plan_rejects(src, region, error, message):
    vp = validate_program(parse_program(src))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        plan_region(vp, region)


def _spmm8_region():
    vp = validate_program(parse_program(SPMM8.format(i=8, decl="", extra="")))
    ir = resolve_cycles(elaborate_region(vp, 0))
    return vp, ir, choose_build_order(vp, ir)


def test_nonpositive_block_shape_is_rejected():
    # the parser refuses such a shape, so only API callers reach this check
    vp, ir, order = _spmm8_region()
    with pytest.raises(IncompatibleBlocks, match=re.escape("block shape (0, 2) must be positive")):
        compile_region(vp, ir, order, block=(0, 2))


@pytest.mark.parametrize(
    "par, message",
    [
        ({"q": 2}, "unknown parallelized index 'q'"),
        ({"i": 1}, "split factor must be at least 2"),
        ({"u0": 2}, "parallelized index 'u0' must be a stored result index"),
        ({"j": 2}, "parallelizing 'j' would cut through Y's value stage;"
                   " parallelize an outer index instead"),
    ],
    ids=["unknown", "factor1", "reduced", "value_stage"],
)
def test_parallelize_rejections(par, message):
    vp, ir, order = _spmm8_region()
    with pytest.raises(UnsupportedSchedule, match=f"^{re.escape(message)}$"):
        compile_region(vp, ir, order, par=par)


def test_parallelizing_above_a_keyed_reduction_is_rejected():
    # j lies between the reduced u0 and the one unreduced var below u0
    vp = validate_program(parse_program("""
index j = 3; index k = 2; index l = 4;
tensor A(k, j, l): dense(k) -> compressed(j) -> compressed(l) order(k, j, l) input;
Y(j) = A(k, j, l);
"""))
    ir = resolve_cycles(elaborate_region(vp, 0))
    assert schedulable_orders(vp, ir) == [("u0", "j", "u1")]
    message = (
        "parallelizing 'j' would split the keyed reduction over 'u0';"
        " parallelize an outer index instead"
    )
    with pytest.raises(UnsupportedSchedule, match=f"^{re.escape(message)}$"):
        compile_region(vp, ir, ("u0", "j", "u1"), par={"j": 2})


def test_only_dense_levels_run_out_of_storage_order():
    vp = validate_program(parse_program("""
index i = 2; index j = 3; index k = 4;
tensor A(i, j, k): dense(i) -> dense(j) -> compressed(k) order(i, j, k) input;
Y(i, j, k) = A(i, j, k);
"""))
    ir = resolve_cycles(elaborate_region(vp, 0))
    message = (
        "A stores ('i', 'j', 'k') but the order iterates ('j', 'i', 'k'); only dense"
        " levels can run out of storage order - use a permuted copy or reorder"
    )
    with pytest.raises(UnsupportedSchedule, match=f"^{re.escape(message)}$"):
        compile_region(vp, ir, ("j", "i", "k"))


def test_nesting_edges():
    assert nesting_edges(("i", "k"), (DENSE, "compressed")) == {("i", "k")}
    assert nesting_edges(("i", "k"), ("compressed", DENSE)) == set()
    assert nesting_edges(("i", "j", "k"), (DENSE, DENSE, "compressed")) == {
        ("i", "k"), ("j", "k")
    }


def test_order_directive_takes_effect():
    src = MATMUL.format(order="order(j, i, k);")
    assert check_program(src).orders == [("j", "i", "u0")]
    vp0 = validate_program(parse_program(MATMUL.format(order="")))
    assert choose_build_order(vp0, elaborate_region(vp0, 0)) == ("i", "j", "u0")


def test_order_directive_against_nesting_is_rejected():
    vp = validate_program(
        parse_program(SPMV.format(body="fuse { y(i) = A(i, k) * x(k); order(k, i); }"))
    )
    ir = resolve_cycles(elaborate_region(vp, 0))
    with pytest.raises(UnsatisfiableOrder, match=r"region 0 order\(k, i\)"):
        choose_build_order(vp, ir)


def test_order_directive_the_lowering_cannot_build_is_rejected():
    vp = validate_program(parse_program(MATMUL.format(order="order(k, i, j);")))
    with pytest.raises(UnsupportedSchedule, match=r"region 0 order\(k, i, j\)"):
        choose_build_order(vp, elaborate_region(vp, 0))


def test_unknown_index_in_order_directive_is_rejected():
    vp = validate_program(parse_program(MATMUL.format(order="order(q);")))
    with pytest.raises(UnsatisfiableOrder, match=r"region 0 order\(q\)"):
        choose_build_order(vp, elaborate_region(vp, 0))
    with pytest.raises(UnsatisfiableOrder, match="'q'"):
        heuristic.estimate_program(vp)


@pytest.mark.parametrize("line", ["order_cap(5);", "order(i);"])
def test_removed_directives_do_not_parse(line):
    with pytest.raises(ParseError):
        parse_program(SPMV.format(body="y(i) = A(i, k) * x(k);\n" + line))


def test_estimate_of_a_permuted_copy_uses_its_source_density():
    """Host-prepared tensors (with the copy under its alias) and densities
    keyed by source name must give the same estimate."""
    vp = validate_program(parse_program(COPY))
    dense = _inputs(vp, seed=3)
    cr = plan_region(vp, 0)
    assert cr.copy_plans
    by_alias = heuristic.measured_densities(prepare_region(vp, cr, _env(vp, dense)))
    by_source = {n: np.count_nonzero(a) / a.size for n, a in dense.items()}
    rates = dict(vp.schedule.rates)
    a, _ = heuristic.estimate_region(
        vp, cr.ir, cr.order, heuristic.HeuristicInput(by_alias, rates)
    )
    b, _ = heuristic.estimate_region(
        vp, cr.ir, cr.order, heuristic.HeuristicInput(by_source, rates)
    )
    assert (a.flops, a.bytes_read, a.bytes_written) == (
        b.flops, b.bytes_read, b.bytes_written
    )


def test_rate_on_a_permuted_copy_holds_for_the_copy():
    """A rate declared on source tensors applies to the copy the region
    streams: the copy of A is stored (j, i), and its outer level is A's j."""
    vp = validate_program(parse_program(COPY + "rate(A.j, C.j, 0.01);\n"))
    cr = plan_region(vp, 0)
    assert [p.source for p in cr.copy_plans] == ["A"]
    est, _ = heuristic.estimate_region(
        vp, cr.ir, cr.order, heuristic.HeuristicInput.from_schedule(vp)
    )
    assert est.flops == pytest.approx(0.64)
    assert heuristic.estimate_program(vp).flops == pytest.approx(0.64)


def test_a_rate_matches_no_more_coordinates_than_the_sparser_operand():
    # a rate of 7 once estimated 5404 FLOPs for this 4x4 SpMV, against 28
    # with both operands dense
    spmv = SPMV.replace("i = 6; index k = 5", "i = 4; index k = 4").format(
        body="y(i) = A(i, k) * x(k);"
    )
    rated = heuristic.estimate_program(validate_program(parse_program(spmv + "rate(A.k, x.k, 7);")))
    dense = heuristic.estimate_program(
        validate_program(parse_program(spmv + "density(A, 1); density(x, 1);"))
    )
    assert dense.flops == 28 and rated.flops <= dense.flops


@pytest.mark.parametrize(
    "order, message",
    [
        (("u0", "i"), "order violates storage nesting: 'i' must precede 'u0'"),
        (("i",), r"order \('i',\) must mention each of \['i', 'u0'\] once"),
    ],
    ids=["breaks_nesting", "misses_a_var"],
)
def test_estimate_refuses_an_order_the_lowering_refuses(order, message):
    """The cost model estimates only orders that name every region var once
    and keep the storage nesting: A stores i above k (renamed u0)."""
    vp = validate_program(parse_program(SPMV.format(body="y(i) = A(i, k) * x(k);")))
    ir = resolve_cycles(elaborate_region(vp, 0))
    with pytest.raises(UnsatisfiableOrder, match=f"^{message}$"):
        heuristic.estimate_region(vp, ir, order, heuristic.HeuristicInput.from_schedule(vp))
    assert not ir.estimates  # a call that raises keeps nothing


def test_estimate_of_a_tensor_named_like_a_copy_reads_its_own_declaration():
    # no B is declared: the alias spelling alone must not send the
    # estimator to another tensor's declaration
    vp = validate_program(parse_program(SPMV.replace("A(", "B__perm0(").format(
        body="y(i) = B__perm0(i, k) * x(k);\nrate(B__perm0.k, x.k, 0.5);"
    )))
    est = heuristic.estimate_program(vp)
    assert est.flops > 0 and est.bytes_read > 0


def test_measured_density_ignores_dense_padding():
    arr = np.zeros((4, 4))
    arr[1, 2] = arr[3, 0] = 1.0
    padded = SparseTensor.from_dense(arr, [LevelSpec(DENSE)] * 2)
    assert padded.nnz == 16
    blocked = SparseTensor.from_dense(arr).block((2, 2))
    assert heuristic.measured_densities({"P": padded, "B": blocked}) == {
        "P": 2 / 16,
        "B": 8 / 16,  # two stored 2x2 blocks
    }


GCN_DENSITIES = {"A": 0.2, "X": 0.5, "W1": 1.0, "W2": 1.0}
GCN_RATES = {("A", "k", "X", "k"): 0.5}


def _fused_gcn():
    """The GCN in one region (``block(2, 2)`` declared), its IR and the
    orders the lowering accepts."""
    vp = validate_program(parse_program(gcn_partition((4,))))
    ir = resolve_cycles(elaborate_region(vp, 0))
    return vp, ir, schedulable_orders(vp, ir)


def _fresh_estimate(vp, order, hin):
    return heuristic.estimate_region(vp, resolve_cycles(elaborate_region(vp, 0)), order, hin)


def test_a_kept_estimate_equals_a_fresh_one_and_is_handed_out_as_a_copy():
    vp, ir, orders = _fused_gcn()
    hin = heuristic.HeuristicInput(dict(GCN_DENSITIES), dict(GCN_RATES))
    first, first_rho = heuristic.estimate_region(vp, ir, orders[0], hin)
    for name in first.per_expression:
        first.per_expression[name] += 1.0
    first.materialized.append("H1")
    first_rho["Out"] = 2.0
    second = heuristic.estimate_region(vp, ir, orders[0], hin)
    assert len(ir.estimates) == 1
    assert second == _fresh_estimate(vp, orders[0], hin)


@pytest.mark.parametrize("change", ["order", "density", "rate"])
def test_a_changed_order_density_or_rate_misses(change):
    vp, ir, orders = _fused_gcn()
    order, dens, rates = orders[0], dict(GCN_DENSITIES), dict(GCN_RATES)
    first = heuristic.estimate_region(vp, ir, order, heuristic.HeuristicInput(dens, rates))
    if change == "order":
        order = orders[-1]
    elif change == "density":
        dens = {**dens, "X": 0.25}
    else:
        rates = {("A", "k", "X", "k"): 0.25}
    hin = heuristic.HeuristicInput(dens, rates)
    second = heuristic.estimate_region(vp, ir, order, hin)
    assert len(ir.estimates) == 2
    assert second != first and second == _fresh_estimate(vp, order, hin)


def test_a_density_of_minus_zero_misses_the_one_of_zero():
    # 0.0 == -0.0, but the output density keeps the sign
    vp = validate_program(parse_program(SPMM.format(extra="")))
    ir = resolve_cycles(elaborate_region(vp, 0))
    order = choose_build_order(vp, ir)
    for zero in (0.0, -0.0):
        hin = heuristic.HeuristicInput({"A": zero, "X": zero, "b": zero})
        _, out_rho = heuristic.estimate_region(vp, ir, order, hin)
        assert math.copysign(1.0, out_rho["Y"]) == math.copysign(1.0, zero)
    assert len(ir.estimates) == 2


def test_a_compiled_copy_keeps_its_own_estimates():
    """``compile_region``'s copy starts with no estimates, and a blocked
    copy's differ from its source IR's."""
    vp, ir, orders = _fused_gcn()
    hin = heuristic.HeuristicInput(dict(GCN_DENSITIES), dict(GCN_RATES))
    for order in orders:
        unblocked = heuristic.estimate_region(vp, ir, order, hin)
        cr = compile_region(vp, ir, order, block=(2, 2))
        assert not cr.ir.estimates
        blocked = heuristic.estimate_region(vp, cr.ir, order, hin)
        assert len(cr.ir.estimates) == 1 and blocked != unblocked
        fresh = compile_region(vp, resolve_cycles(elaborate_region(vp, 0)), order, block=(2, 2))
        assert blocked == heuristic.estimate_region(vp, fresh.ir, order, hin)
    assert len(ir.estimates) == len(orders)


def test_twelve_estimates_of_two_inputs_build_the_estimator_twice(monkeypatch):
    """The bench's sweep estimates each compiled order at 6 data seeds and
    2 depths, and the measured densities repeat."""
    builds = []

    class Counting(heuristic._Estimator):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(heuristic, "_Estimator", Counting)
    vp, ir, orders = _fused_gcn()
    for _ in range(6):
        for dens in (GCN_DENSITIES, {**GCN_DENSITIES, "A": 0.3}):
            heuristic.estimate_region(vp, ir, orders[0], heuristic.HeuristicInput(dict(dens)))
    assert len(builds) == 2


# the fully fused attention of layerbench's order_sweep workload, q = k = 8, d = 4
ATTENTION = """
index i = 8; index j = 8; index d = 4;
tensor M(i, j): dense(i) -> compressed(j) order(i, j) input;
tensor Q(i, d): dense(i) -> dense(d) order(i, d) input;
tensor K(j, d): dense(j) -> dense(d) order(j, d) input;
tensor V(j, d): dense(j) -> dense(d) order(j, d) input;
fuse {
  S(i, j) = M(i, j) * Q(i, d) * K(j, d);
  R(i) = max(S(i, j));
  Z(i, j) = exp(S(i, j) - R(i));
  D(i) = Z(i, j);
  P(i, j) = Z(i, j) / D(i);
  O(i, d) = P(i, j) * V(j, d);
}
"""


def _attention_inputs(seed):
    """M all ones; Q, K and V uniform on (-1, 1), in that order."""
    rng = np.random.default_rng(seed)
    return {"M": np.ones((8, 8)), **{n: rng.uniform(-1, 1, (8, 4)) for n in "QKV"}}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("block", ["", "block(2, 2);\n"], ids=["unblocked", "block2"])
def test_fused_attention_matches_oracle(block, seed):
    check_program(ATTENTION + block, inputs=_attention_inputs(seed))


@pytest.mark.parametrize("seed", range(3))
def test_fused_attention_under_block4_matches_oracle(seed):
    check_program(ATTENTION + "block(4, 4);\n", inputs=_attention_inputs(seed))



MASKED_S = """
index i = 4; index j = 4;
tensor S(i, j): dense(i) -> compressed(j) order(i, j) input;
"""
# ops whose result differs between a stored zero and an absent entry, each
# with the inputs it reads besides S and how the refusal names it
FILL_SENSITIVE = {
    "max": ("R(i) = max(S(i, j));", {}, "max R"),
    "sub": (
        "tensor r(i): dense(i) order(i) input;\nZ(i, j) = S(i, j) - r(i);",
        {"r": np.ones(4)},
        "sub Z",
    ),
}
# row 0 holds only -1, so under block(2, 2) its block at (0, 0) also
# stores three zeros, which the oracle treats as absent entries
PARTIAL_S = np.array([[-1.0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 4], [0, 0, 5, 6]])
# every 2x2 block full or absent
ALIGNED_S = np.array([[-1.0, -2, 0, 0], [3, 4, 0, 0], [0, 0, -7, 8], [0, 0, 5, -6]])


@pytest.mark.parametrize("name", sorted(FILL_SENSITIVE))
def test_a_partial_block_that_a_fill_sensitive_op_reads_is_refused_before_the_run(name):
    body, others, op = FILL_SENSITIVE[name]
    src = MASKED_S + body + "\n"
    check_program(src, inputs={"S": PARTIAL_S, **others})  # unblocked, it is right
    blocked = src + "block(2, 2);\n"
    check_program(blocked, inputs={"S": ALIGNED_S, **others})
    vp = validate_program(parse_program(blocked))
    message = (
        f"region 0: blocked input S has a stored block that is not full, and {op}"
        " would read its padding as stored entries"
    )
    with pytest.raises(PartialBlock, match=f"^{message}$"):
        run_program(vp, {"S": PARTIAL_S, **others})


@pytest.mark.parametrize(
    "src, want",
    [
        (ATTENTION, [{"M": "max R", "Q": "max R", "K": "max R"}]),
        (SOFTMAX, [{"S": "max R"}, {"S": "sub Z"}, {}, {}]),
        (GCN, [{}, {}, {}, {}]),
        (SPMM.format(extra=""), [{}]),
    ],
    ids=["attention", "softmax", "gcn", "fused_relu"],
)
def test_fill_sensitive_marks_the_inputs_under_a_max_or_a_broadcast_sub(src, want):
    """Through inlined producers: fused attention's M, Q and K reach the
    max; a divide, a relu and an add of operands over the same vars mark
    nothing."""
    vp = validate_program(parse_program(src))
    got = [fill_sensitive(resolve_cycles(elaborate_region(vp, r))) for r in range(len(vp.regions))]
    assert got == want
