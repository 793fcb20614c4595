"""Compiler half end to end: elaboration, order choice, lowering, host prep
and simulation, checked against the dense oracle."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from einstream import heuristic, oracle, sim, transforms
from einstream.errors import ParseError, UnsatisfiableOrder, UnsupportedSchedule
from einstream.frontend import parse_program, validate_program
from einstream.fusion import (
    elaborate_region,
    map_user_order,
    nesting_edges,
    resolve_cycles,
)
from einstream.pipeline import choose_build_order, compile_region, copy_tensor
from einstream.tensors import DENSE, LevelSpec, SparseTensor

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

GCN = """
index i = 8; index k = 8; index f = 8; index h = 4; index c = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, f): dense(k) -> compressed(f) order(k, f) input;
tensor W1(f, h): dense(f) -> dense(h) order(f, h) input;
tensor W2(h, c): dense(h) -> dense(c) order(h, c) input;
T1(i, f) = A(i, k) * X(k, f);
H1(i, h) = relu(T1(i, f) * W1(f, h));
T2(i, h) = A(i, k) * H1(k, h);
Out(i, c) = T2(i, h) * W2(h, c);
block(2, 2);
"""

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


def _stored(vp, name, arr):
    decl = vp.decl(name)
    return SparseTensor.from_dense(
        arr, [decl.formats[m] for m in decl.mode_order], decl.mode_order
    )


def _prepare(vp, cr, dense):
    """Host prep of one compiled region: compress, copy, block."""
    plans = {p.alias: p for p in cr.copy_plans}
    produced = {name for _, name in cr.ir.outputs}
    tens = {}
    for name in transforms.region_tensors(vp, cr.ir):
        if name in produced:
            continue
        if name in plans:
            tens[name] = copy_tensor(vp, plans[name], dense[plans[name].source])
        else:
            tens[name] = _stored(vp, name, dense[name])
        if cr.block is not None:
            tens[name] = transforms.block_input(vp, name, tens[name], cr.block)
    return tens


def _compile(vp, r):
    ir = resolve_cycles(elaborate_region(vp, r))
    order = choose_build_order(vp, ir)
    par = {map_user_order(ir, [n])[0]: f for n, f in vp.schedule.parallelize}
    return compile_region(vp, ir, order, par=par or None, block=vp.schedule.block)


def run_program(src, seed=0, inputs=None):
    """Every region in turn; later regions read earlier outputs densely.
    ``inputs`` replaces the random inputs drawn from ``seed``."""
    vp = validate_program(parse_program(src))
    dense = dict(inputs) if inputs is not None else _inputs(vp, seed)
    want = oracle.evaluate_program(vp, dense)
    orders = []
    for r in range(len(vp.regions)):
        cr = _compile(vp, r)
        orders.append(cr.order)
        rep = sim.run(cr.graph, _prepare(vp, cr, dense), sim.SimConfig())
        for _, name in cr.ir.outputs:
            dense[name] = rep.outputs[name].to_dense()
    for name, arr in want.items():
        np.testing.assert_allclose(dense[name], arr, rtol=1e-9, atol=1e-12)
    return vp, orders


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
    ],
    ids=[
        "spmv", "fused_relu", "fused_relu_par2", "gcn_block2", "copy", "softmax", "divide",
        "divide_relu",
    ],
)
def test_program_matches_oracle(src, inputs):
    run_program(src, inputs=inputs)


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
    cr = _compile(vp, 0)
    tens = _prepare(vp, cr, _inputs(vp))
    gc.collect()
    gc.disable()
    try:
        sim.run(cr.graph, tens, sim.SimConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_copy_program_schedules_a_permuted_copy():
    vp = validate_program(parse_program(COPY))
    (plan,) = _compile(vp, 0).copy_plans
    assert plan.source in ("A", "C") and plan.alias.startswith(plan.source)


def test_nesting_edges():
    assert nesting_edges(("i", "k"), (DENSE, "compressed")) == {("i", "k")}
    assert nesting_edges(("i", "k"), ("compressed", DENSE)) == set()
    assert nesting_edges(("i", "j", "k"), (DENSE, DENSE, "compressed")) == {
        ("i", "k"), ("j", "k")
    }


def test_order_directive_takes_effect():
    src = MATMUL.format(order="order(j, i, k);")
    vp, orders = run_program(src)
    assert orders == [("j", "i", "u0")]
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
    cr = _compile(vp, 0)
    assert cr.copy_plans
    by_alias = heuristic.measured_densities(_prepare(vp, cr, dense))
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
