"""Reference evaluator tests: hand-computed values, and bit-identity with
the scalar loop evaluator the vectorised one replaced."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einstream.frontend import (
    Access,
    Bin,
    Call,
    EinsumProgram,
    Expression,
    Literal,
    RegionSpec,
    ScheduleSpec,
    TensorDecl,
    apply_pointwise,
    parse_program,
    validate_program,
)
from einstream.oracle import _broadcast_mask, evaluate_program, random_dense
from einstream.tensors import COMPRESSED, LevelSpec


def run(src: str, **inputs):
    vp = validate_program(parse_program(src))
    return evaluate_program(vp, inputs)


def test_spmv_hand_value():
    out = run(
        "index i = 2; index k = 3;\n"
        "tensor B(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
        "tensor c(k): compressed(k) order(k) input;\n"
        "x(i) = B(i, k) * c(k);\n",
        B=np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]),
        c=np.array([1.0, 2.0, 3.0]),
    )
    # row 0: 2*1 + 3*3 = 11; row 1: 4*2 = 8
    assert np.array_equal(out["x"], [11.0, 8.0])


def test_matmul_bias_relu_hand_value():
    out = run(
        "index i = 2; index j = 2; index k = 2;\n"
        "tensor A(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
        "tensor X(k, j): compressed(k) -> compressed(j) order(k, j) input;\n"
        "tensor b(j): compressed(j) order(j) input;\n"
        "Y(i, j) = relu(A(i, k) * X(k, j) + b(j));\n",
        A=np.array([[1.0, 0.0], [0.0, -1.0]]),
        X=np.array([[1.0, 2.0], [3.0, 4.0]]),
        b=np.array([1.0, 1.0]),
    )
    assert np.array_equal(out["Y"], [[2.0, 3.0], [0.0, 0.0]])


def test_max_reduce_uses_stored_support():
    # row 0 stores only -5: its max is -5, not the absent slot's 0
    out = run(
        "index i = 2; index j = 2;\n"
        "tensor S(i, j): compressed(i) -> compressed(j) order(i, j) input;\n"
        "R(i) = max(S(i, j));\n",
        S=np.array([[-5.0, 0.0], [1.0, 2.0]]),
    )
    assert np.array_equal(out["R"], [-5.0, 2.0])


def test_pointwise_zero_maps_to_zero():
    out = run(
        "index i = 3;\n"
        "tensor a(i): compressed(i) order(i) input;\n"
        "y(i) = exp(a(i));\n",
        a=np.array([0.0, 1.0, -1.0]),
    )
    assert np.allclose(out["y"], [0.0, math.e, math.exp(-1.0)], atol=1e-12)


def test_softmax_chain_stored_semantics():
    # S row 0 stores {1, 2}: shifted exps are exp(-1) and exp(0) -> 0 under
    # stored-entry semantics, so only the non-max entry survives; its ratio
    # with the row sum is exactly 1.  Row 1 stores a single entry: shifted
    # value 0 vanishes entirely.
    src = """
    index i = 2; index j = 2;
    tensor S(i, j): compressed(i) -> compressed(j) order(i, j) input;
    R(i) = max(S(i, j));
    Z(i, j) = exp(S(i, j) - R(i));
    D(i) = Z(i, j);
    O(i, j) = Z(i, j) / D(i);
    """
    out = run(src, S=np.array([[1.0, 2.0], [3.0, 0.0]]))
    assert np.allclose(out["R"], [2.0, 3.0])
    assert np.allclose(out["Z"], [[math.exp(-1.0), 0.0], [0.0, 0.0]])
    assert np.allclose(out["D"], [math.exp(-1.0), 0.0])
    assert np.allclose(out["O"], [[1.0, 0.0], [0.0, 0.0]])


def test_broadcast_add_limited_to_owner_rows():
    # b(j) repeats over i, so it only lands on rows where T has support;
    # within such a row it unions fresh j coordinates in.
    out = run(
        "index i = 2; index j = 2;\n"
        "tensor T(i, j): compressed(i) -> compressed(j) order(i, j) input;\n"
        "tensor b(j): compressed(j) order(j) input;\n"
        "Y(i, j) = T(i, j) + b(j);\n",
        T=np.array([[5.0, 0.0], [0.0, 0.0]]),
        b=np.array([1.0, 2.0]),
    )
    assert np.array_equal(out["Y"], [[6.0, 2.0], [0.0, 0.0]])


def test_division_skips_empty_points():
    out = run(
        "index i = 2;\n"
        "tensor a(i): compressed(i) order(i) input;\n"
        "tensor d(i): compressed(i) order(i) input;\n"
        "y(i) = a(i) / d(i);\n",
        a=np.array([6.0, 0.0]),
        d=np.array([3.0, 0.0]),  # 0/0 point yields 0, not nan
    )
    assert np.array_equal(out["y"], [2.0, 0.0])


def test_division_by_unstored_divisor_gives_zero():
    # a stored over an unstored d: the simulator's quotient stream carries
    # nothing there, so the oracle gives 0, not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(
            "index i = 4;\n"
            "tensor a(i): compressed(i) order(i) input;\n"
            "tensor d(i): compressed(i) order(i) input;\n"
            "y(i) = a(i) / d(i);\n",
            a=np.array([6.0, 0.0, 2.0, 1.0]),
            d=np.array([3.0, 5.0, 0.0, 0.0]),
        )
    assert np.array_equal(out["y"], [2.0, 0.0, 0.0, 0.0])


def test_chained_expressions_share_env():
    out = run(
        "index i = 2; index k = 2;\n"
        "tensor B(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
        "tensor c(k): compressed(k) order(k) input;\n"
        "t(i) = B(i, k) * c(k);\n"
        "y(i) = relu(t(i));\n",
        B=np.array([[1.0, 2.0], [-3.0, 0.0]]),
        c=np.array([1.0, 1.0]),
    )
    assert np.array_equal(out["t"], [3.0, -3.0])
    assert np.array_equal(out["y"], [3.0, 0.0])


def test_three_factor_product_reduces_both_vars():
    # y(i) = sum_{k,j} A(i,k) B(k,j) c(j), hand-checked tiny case
    out = run(
        "index i = 1; index k = 2; index j = 2;\n"
        "tensor A(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
        "tensor B(k, j): compressed(k) -> compressed(j) order(k, j) input;\n"
        "tensor c(j): compressed(j) order(j) input;\n"
        "y(i) = A(i, k) * B(k, j) * c(j);\n",
        A=np.array([[2.0, 3.0]]),
        B=np.array([[1.0, 0.0], [0.0, 5.0]]),
        c=np.array([7.0, 1.0]),
    )
    # 2*1*7 + 3*5*1 = 29
    assert np.array_equal(out["y"], [29.0])


def test_matches_numpy_einsum_on_random_dense():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = random_dense((3, 4), 0.6, rng)
        X = random_dense((4, 5), 0.6, rng)
        out = run(
            "index i = 3; index k = 4; index j = 5;\n"
            "tensor A(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
            "tensor X(k, j): compressed(k) -> compressed(j) order(k, j) input;\n"
            "Y(i, j) = A(i, k) * X(k, j);\n",
            A=A,
            X=X,
        )
        assert np.allclose(out["Y"], A @ X, atol=1e-12)


def test_diagonal_read():
    # T(i, i) reads the diagonal; T(k, k) under a reduction too
    T = np.array([[2.0, 5.0], [7.0, 3.0]])
    out = run(
        "index i = 2; index k = 2; index j = 3;\n"
        "tensor T(i, k): compressed(i) -> compressed(k) order(i, k) input;\n"
        "tensor c(i): compressed(i) order(i) input;\n"
        "tensor B(k, j): compressed(k) -> compressed(j) order(k, j) input;\n"
        "y(i) = T(i, i) * c(i);\n"
        "t(j) = T(k, k) * B(k, j);\n",
        T=T,
        c=np.array([10.0, -1.0]),
        B=np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]),
    )
    assert np.array_equal(out["y"], [20.0, -3.0])
    # t(j) = 2 * B(0, j) + 3 * B(1, j)
    assert np.array_equal(out["t"], [2.0, 3.0, 7.0])


def test_broadcast_add_missing_inner_index():
    # c(i) repeats over the inner index j, so it lands only on points
    # where T is stored
    out = run(
        "index i = 3; index j = 2;\n"
        "tensor T(i, j): compressed(i) -> compressed(j) order(i, j) input;\n"
        "tensor c(i): compressed(i) order(i) input;\n"
        "Y(i, j) = T(i, j) + c(i);\n",
        T=np.array([[5.0, 0.0], [0.0, 0.0], [0.0, 7.0]]),
        c=np.array([1.0, 2.0, 3.0]),
    )
    assert np.array_equal(out["Y"], [[6.0, 0.0], [0.0, 0.0], [0.0, 10.0]])


def test_factor_transposed_against_lhs_order():
    out = run(
        "index k = 2; index i = 3; index j = 1;\n"
        "tensor A(k, i): compressed(k) -> compressed(i) order(k, i) input;\n"
        "tensor X(k, j): compressed(k) -> compressed(j) order(k, j) input;\n"
        "Y(i, j) = A(k, i) * X(k, j);\n",
        A=np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]),
        X=np.array([[5.0], [6.0]]),
    )
    assert np.array_equal(out["Y"], [[5.0], [18.0], [34.0]])


def test_max_over_negative_and_empty_rows():
    # row 0 stores only negatives: the best of them, not the fill 0;
    # row 1 stores nothing: 0
    out = run(
        "index i = 3; index j = 3;\n"
        "tensor S(i, j): compressed(i) -> compressed(j) order(i, j) input;\n"
        "R(i) = max(S(i, j));\n",
        S=np.array([[-3.0, -1.0, -2.0], [0.0, 0.0, 0.0], [0.0, 4.0, -6.0]]),
    )
    assert np.array_equal(out["R"], [-1.0, 0.0, 4.0])


# --- the scalar loop evaluator, kept as the reference ----------------------


def _loop_term_arrays(term, out_vars, shape, env, extents):
    vals = np.zeros(shape, dtype=np.float64)
    supp = np.zeros(shape, dtype=bool)
    spaces = [range(extents[v]) for v in term.reduction_vars]
    for combo in itertools.product(*(range(s) for s in shape)):
        point = dict(zip(out_vars, combo))
        acc = 0.0
        best = None
        alive_any = False
        for red in itertools.product(*spaces):
            idx = dict(point)
            idx.update(zip(term.reduction_vars, red))
            prod = 1.0
            alive = True
            for f in term.factors:
                v = float(env[f.access.tensor][tuple(idx[i] for i in f.access.indices)])
                if v == 0.0:
                    alive = False
                for fn in f.maps:
                    v = apply_pointwise(fn, v)
                prod *= v
            alive_any = alive_any or alive
            if term.reduce_op == "max":
                if alive and (best is None or prod > best):
                    best = prod
            else:
                acc += prod
        total = best if term.reduce_op == "max" else acc
        vals[combo] = 0.0 if total is None else total
        supp[combo] = alive_any
    return vals, supp


def _loop_evaluate_expression(expr, env, extents):
    out_vars = expr.lhs.indices
    shape = tuple(extents[v] for v in out_vars)
    pairs = [_loop_term_arrays(t, out_vars, shape, env, extents) for t in expr.terms]
    supports = [supp for _, supp in pairs]
    out = np.zeros(shape, dtype=np.float64)
    for term, (vals, _) in zip(expr.terms, pairs):
        mask = _broadcast_mask(term, expr.terms, supports, out_vars, shape)
        contrib = np.where(mask, vals, 0.0) * (term.sign * term.scale)
        for f in term.divisors:
            d = np.zeros(shape, dtype=np.float64)
            for combo in itertools.product(*(range(s) for s in shape)):
                point = dict(zip(out_vars, combo))
                v = float(env[f.access.tensor][tuple(point[i] for i in f.access.indices)])
                for fn in f.maps:
                    v = apply_pointwise(fn, v)
                d[combo] = v
            contrib[d == 0.0] = 0.0
            nz = contrib != 0.0
            contrib[nz] = contrib[nz] / d[nz]
        out += contrib
    for combo in itertools.product(*(range(s) for s in shape)):
        v = out[combo]
        for fn in expr.maps:
            v = apply_pointwise(fn, v)
        out[combo] = v
    return out


def _loop_evaluate_program(vp, inputs):
    env = {n: np.asarray(a, dtype=np.float64) for n, a in inputs.items()}
    for expr in vp.norm:
        env[expr.lhs.tensor] = _loop_evaluate_expression(expr, env, vp.var_extents)
    return {expr.lhs.tensor: env[expr.lhs.tensor] for expr in vp.norm}


def _assert_bit_identical(vp, inputs):
    """The vectorised oracle equals the loop, signs of zeros included; an
    overflow in exp must raise in both."""
    try:
        want = _loop_evaluate_program(vp, inputs)
    except OverflowError:
        with pytest.raises(OverflowError):
            evaluate_program(vp, inputs)
        return
    got = evaluate_program(vp, inputs)
    assert got.keys() == want.keys()
    for name, arr in want.items():
        np.testing.assert_array_equal(got[name], arr, err_msg=name)
        np.testing.assert_array_equal(np.signbit(got[name]), np.signbit(arr), err_msg=name)


SOFTMAX = """
index i = 6; index j = 5;
tensor S(i, j): dense(i) -> compressed(j) order(i, j) input;
R(i) = max(S(i, j));
Z(i, j) = exp(S(i, j) - R(i));
D(i) = Z(i, j);
O(i, j) = Z(i, j) / D(i);
"""

ATTENTION = """
index i = 4; index j = 6; index d = 3;
tensor M(i, j): dense(i) -> compressed(j) order(i, j) input;
tensor Q(i, d): dense(i) -> dense(d) order(i, d) input;
tensor K(j, d): dense(j) -> dense(d) order(j, d) input;
tensor V(j, d): dense(j) -> dense(d) order(j, d) input;
S(i, j) = M(i, j) * Q(i, d) * K(j, d);
R(i) = max(S(i, j));
Z(i, j) = exp(S(i, j) - R(i));
D(i) = Z(i, j);
P(i, j) = Z(i, j) / D(i);
O(i, d) = P(i, j) * V(j, d);
"""

GCN = """
index i = 8; index k = 8; index f = 6; index h = 4; index c = 4;
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, f): dense(k) -> compressed(f) order(k, f) input;
tensor W1(f, h): dense(f) -> dense(h) order(f, h) input;
tensor W2(h, c): dense(h) -> dense(c) order(h, c) input;
T1(i, f) = A(i, k) * X(k, f);
H1(i, h) = gelu(T1(i, f) * W1(f, h));
T2(i, h) = A(i, k) * H1(k, h);
Out(i, c) = scale(0.5, T2(i, h)) * W2(h, c) - relu(T2(i, c));
"""


@pytest.mark.parametrize("src", [SOFTMAX, ATTENTION, GCN], ids=["softmax", "attention", "gcn"])
@pytest.mark.parametrize("seed", range(3))
def test_matches_loop_reference_on_model_programs(src, seed):
    vp = validate_program(parse_program(src))
    rng = np.random.default_rng(seed)
    inputs = {
        name: random_dense(vp.shape_of(name), 0.5, rng) * rng.choice((-1.0, 1.0), vp.shape_of(name))
        for name in vp.decls
        if vp.role_of(name) == "input"
    }
    _assert_bit_identical(vp, inputs)


# --- differential test on generated programs -------------------------------

VARS = ("i", "j", "k", "l")
MAPS = st.sampled_from(["relu", "exp", "gelu", ("scale", 0.5), ("scale", -2.0)])
VALUES = st.one_of(st.just(0.0), st.sampled_from([-1.5, -0.5, 0.25, 1.0, 2.0]), st.floats(-2.0, 2.0))


def _wrap(node, maps):
    for fn in maps:
        node = Call("scale", (Literal(fn[1]), node)) if isinstance(fn, tuple) else Call(fn, (node,))
    return node


def _product(nodes):
    body = nodes[0]
    for node in nodes[1:]:
        body = Bin("*", body, node)
    return body


@st.composite
def programs(draw):
    """A valid program of 1-3 chained expressions, with its inputs.

    Terms have 1-3 factors whose indices are drawn with repetition (a
    repeated index reads a diagonal) in any order; a term may skip output
    indices, be a ``max`` reduction, carry a literal scale and a divisor
    over output indices; factors and whole expressions may carry maps.
    """
    extents = {v: draw(st.integers(1, 3)) for v in VARS}
    decls: dict[str, TensorDecl] = {}
    produced: list[Access] = []
    expressions = []

    def new_input(indices):
        name = f"T{len(decls)}"
        fmts = tuple(LevelSpec(COMPRESSED) for _ in indices)
        decls[name] = TensorDecl(name, indices, fmts, tuple(range(len(indices))), "input")
        return Access(name, indices)

    def factor(indices=None):
        """A map-wrapped access: an earlier output or a fresh input, or a
        fresh input with exactly ``indices``."""
        if indices is not None:
            acc = new_input(tuple(indices))
        elif produced and draw(st.integers(0, 3)) == 0:
            acc = draw(st.sampled_from(produced))
        else:
            acc = new_input(tuple(draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3))))
        return acc, _wrap(acc, draw(st.lists(MAPS, max_size=2)))

    for e in range(draw(st.integers(1, 3))):
        out = tuple(draw(st.permutations(VARS))[: draw(st.integers(1, 3))])
        red = [v for v in VARS if v not in out]
        is_max = draw(st.integers(0, 3)) == 0
        terms = [
            [factor() for _ in range(draw(st.integers(1, 3)))]
            for _ in range(1 if is_max else draw(st.integers(1, 3)))
        ]
        used = {v for term in terms for acc, _ in term for v in acc.indices}
        missing = [v for v in out if v not in used]
        if missing:
            terms[0].append(factor(draw(st.permutations(missing))))
        if is_max and not any(v in red for acc, _ in terms[0] for v in acc.indices):
            terms[0].append(factor([draw(st.sampled_from(red))]))
        body = None
        for term in terms:
            node = _product([n for _, n in term])
            if draw(st.integers(0, 3)) == 0:
                node = Bin("*", Literal(draw(st.sampled_from([3.0, -0.5]))), node)
            if draw(st.integers(0, 2)) == 0:
                _, div = factor(draw(st.lists(st.sampled_from(out), min_size=1, max_size=2)))
                node = Bin("/", node, div)
            if is_max:
                node = Call("max", (node,))
            body = node if body is None else Bin(draw(st.sampled_from("+-")), body, node)
        lhs = Access(f"O{e}", out)
        expressions.append(Expression(lhs, _wrap(body, draw(st.lists(MAPS, max_size=2)))))
        produced.append(lhs)

    program = EinsumProgram(
        extents,
        decls,
        expressions,
        [RegionSpec([e], fused=False) for e in range(len(expressions))],
        ScheduleSpec(),
    )
    vp = validate_program(program)
    inputs = {}
    for name in decls:
        shape = vp.shape_of(name)
        size = int(np.prod(shape))
        vals = draw(st.lists(VALUES, min_size=size, max_size=size))
        inputs[name] = np.array(vals, dtype=np.float64).reshape(shape)
    return vp, inputs


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_matches_loop_reference_on_generated_programs(case):
    _assert_bit_identical(*case)
