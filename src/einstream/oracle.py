"""Reference evaluator over dense arrays.

Each expression is evaluated independently on dense arrays, in program
order, so chained results match a run that materializes every intermediate.
The evaluation is vectorised over the output index space and sequential
over reduction points: every factor is laid out once as a broadcast view
over the output axes, and the reduction points are visited in lexicographic
order, so each output element sees the same float operations in the same
order as a scalar loop over the dense index space.  The results are
bit-identical to that loop (kept in ``tests/test_oracle.py`` as the
reference).

Semantics follow stored entries rather than the full dense space:

* a product term is supported where every factor is nonzero; per-term
  reduction sums (or max-reduces) over that support;
* in an additive combination, a term missing some output index only
  contributes where a term that owns the index has support — a repeated
  operand pairs with existing coordinates, it cannot invent new ones.
  Ownership is resolved outer-to-inner per the left-hand side index order;
* division applies only where both the term value and the divisor are
  nonzero (stored), and gives 0 elsewhere, mirroring result streams that
  carry no value there.
"""

from __future__ import annotations

import itertools

import numpy as np

from .frontend.program import (
    Factor,
    NormExpr,
    NormTerm,
    ValidatedProgram,
    apply_pointwise_array,
)


def _layout(f: Factor, axes, env, extents) -> np.ndarray:
    """The factor's raw values laid out over ``axes``.

    Axes the access does not name have size 1 and broadcast; a repeated
    index such as ``T(i, i)`` reads the diagonal.
    """
    grid = dict(zip(axes, np.ix_(*(np.arange(extents[v]) for v in axes))))
    return env[f.access.tensor][tuple(grid[v] for v in f.access.indices)]


def _mapped(f: Factor, raw: np.ndarray) -> np.ndarray:
    for fn in f.maps:
        raw = apply_pointwise_array(fn, raw)
    return raw


def _term_arrays(term: NormTerm, out_vars, shape, env, extents):
    """Raw per-point term value (no sign/scale/divisors) plus support."""
    red_vars = term.reduction_vars
    views = []  # (mapped values, raw nonzero, positions in the reduction point)
    for f in term.factors:
        pos = tuple(p for p, v in enumerate(red_vars) if v in f.access.indices)
        raw = _layout(f, [red_vars[p] for p in pos] + list(out_vars), env, extents)
        views.append((_mapped(f, raw), raw != 0.0, pos))
    acc = np.zeros(shape)  # running sum, or running best of a max term
    supp = np.zeros(shape, dtype=bool)
    for red in itertools.product(*(range(extents[v]) for v in red_vars)):
        prod = alive = None
        for vals, nz, pos in views:
            at = tuple(red[p] for p in pos)
            prod = vals[at] if prod is None else prod * vals[at]
            alive = nz[at] if alive is None else alive & nz[at]
        if term.reduce_op == "max":
            better = alive & (~supp | (prod > acc))
            np.copyto(acc, prod, where=better)
        else:
            acc += prod
        supp |= alive
    return acc, supp


def _broadcast_mask(term: NormTerm, terms, supports, out_vars, shape):
    """Points where this term may contribute given indices it does not own."""
    own = {v for f in term.factors for v in f.access.indices}
    mask = np.ones(shape, dtype=bool)
    rank = len(out_vars)
    for axis, v in enumerate(out_vars):
        if v in own:
            continue
        allowed = np.zeros(shape, dtype=bool)
        inner = tuple(range(axis + 1, rank))
        for other, osupp in zip(terms, supports):
            if any(v in f.access.indices for f in other.factors):
                slab = osupp.any(axis=inner, keepdims=True) if inner else osupp
                allowed |= np.broadcast_to(slab, shape)
        mask &= allowed
    return mask


def evaluate_expression(expr: NormExpr, env: dict, extents: dict[str, int]) -> np.ndarray:
    out_vars = expr.lhs.indices
    shape = tuple(extents[v] for v in out_vars)
    pairs = [_term_arrays(t, out_vars, shape, env, extents) for t in expr.terms]
    supports = [supp for _, supp in pairs]
    out = np.zeros(shape, dtype=np.float64)
    for term, (vals, _) in zip(expr.terms, pairs):
        mask = _broadcast_mask(term, expr.terms, supports, out_vars, shape)
        contrib = np.where(mask, vals, 0.0) * (term.sign * term.scale)
        for f in term.divisors:
            d = _mapped(f, _layout(f, out_vars, env, extents))
            both = (contrib != 0.0) & (d != 0.0)
            contrib = np.divide(contrib, d, out=np.zeros(shape), where=both)
        out += contrib
    for fn in expr.maps:
        out = apply_pointwise_array(fn, out)
    return out


def evaluate_program(
    vp: ValidatedProgram, inputs: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Run every expression; returns all assigned tensors as dense arrays."""
    env = vp.check_inputs(inputs)
    produced: dict[str, np.ndarray] = {}
    for expr in vp.norm:
        arr = evaluate_expression(expr, env, vp.var_extents)
        env[expr.lhs.tensor] = arr
        produced[expr.lhs.tensor] = arr
    return produced


def random_dense(shape, density, rng: np.random.Generator, low=0.5, high=2.0):
    """Dense array with ~density fraction nonzero, values in [low, high)."""
    mask = rng.random(shape) < density
    vals = rng.uniform(low, high, size=shape)
    return np.where(mask, vals, 0.0)
