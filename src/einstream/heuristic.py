"""Analytic cost model: expected FLOPs and memory traffic, no simulation.

Every tensor is treated as an independent Bernoulli field at its declared
density, with an optional per-index intersection rate correcting the
independence assumption for correlated operands.  For a binary contraction
over a shared index of extent K with operand densities rho_a, rho_b and
rate r, the expected matched coordinates per output point are
K*rho_a*rho_b*r, clamped to [0, K*min(rho_a, rho_b)]; multiplies are
charged per match and reduction adds per match minus one per surviving
output, which is the simulator's accumulate-after-first convention, so
fully dense programs are estimated exactly.  Output density follows
1-(1-p)^K and propagates to downstream expressions.

Storage formats matter: a dense level emits every slot of a present parent
fiber (padding included), so its occupancy marginal is 1, while compressed
levels prune to fibers with stored entries.  Memory traffic charges each
stored operand view its expected value slots at element width plus
position/coordinate metadata at index width; intermediates count only when
a region boundary materializes them.  That is not the simulator's
accounting, which reads a dense inner level only where a join reaches it,
while this charges all of its stored slots (ROADMAP item 2).

An estimate depends only on the region IR, the order, the densities and the
rates, so ``estimate_region`` keeps each one on its IR
(``RegionIR.estimates``), keyed by the order and the sorted items of both
dicts; a value's sign is part of the key, since 0.0 == -0.0.  A hit skips
``check_order`` and the estimator; every call returns a fresh
``CostEstimate`` and output-density dict, so a caller that mutates its
result cannot change the next one.  A call that raises keeps nothing.  This
rests on an IR not being mutated after its first estimate:
``resolve_cycles`` clears ``estimates`` when it rewrites an IR, and
``compile_region`` rewrites only its own copy, whose ``estimates`` start
empty, and does so first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fusion import check_order, elaborate_region, resolve_cycles
from .tensors import DENSE, ELEMENT_BYTES, INDEX_BYTES


@dataclass
class HeuristicInput:
    """Model inputs: density fractions per tensor (default 1) and
    intersection rates per (tensor, dim, tensor, dim) pair (default 1)."""

    densities: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)

    @classmethod
    def from_schedule(cls, vp) -> "HeuristicInput":
        return cls(densities=dict(vp.schedule.densities), rates=dict(vp.schedule.rates))

    def rate(self, ta: str, da: str, tb: str, db: str) -> float:
        return self.rates.get(
            (ta, da, tb, db), self.rates.get((tb, db, ta, da), 1.0)
        )


@dataclass
class CostEstimate:
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    per_expression: dict = field(default_factory=dict)
    materialized: list = field(default_factory=list)

    def add(self, other: "CostEstimate"):
        self.flops += other.flops
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        for k, v in other.per_expression.items():
            self.per_expression[k] = self.per_expression.get(k, 0.0) + v
        self.materialized.extend(other.materialized)


def measured_densities(tensors: dict) -> dict:
    """Density fractions of concrete tensors, for feeding the model.

    An unblocked tensor counts its nonzero values, so the padding a dense
    level stores does not count; a blocked tensor counts every slot of its
    stored blocks (its block density).
    """
    out = {}
    for name, t in tensors.items():
        size = math.prod(t.shape)
        stored = t.nnz if t.is_blocked else int(np.count_nonzero(t.values))
        out[name] = stored / size if size else 1.0
    return out


def _occupancy(extents, formats, rho: float) -> list[float]:
    """Per storage level, the fraction of its slots that are instantiated.

    ``extents``/``formats`` are per storage level, outer to inner.  A sparse
    level keeps the prefixes whose subtree holds at least one entry
    (probability 1-(1-rho)^volume-below, never more than its parent); a
    dense level enumerates every slot of each instantiated parent.
    """
    rho = min(max(rho, 0.0), 1.0)
    below = math.prod(extents)
    out, q = [], 1.0
    for e, kind in zip(extents, formats):
        below //= e
        if kind != DENSE:
            q = min(1.0 - (1.0 - rho) ** below if below > 1 else rho, q)
        out.append(q)
    return out


def storage_stats(extents, formats, rho: float) -> tuple[float, float]:
    """Expected (value slots, metadata ints) for one stored tensor.

    A sparse level's cells are its slot count times its occupancy; the
    product parent cells x extent x marginal is equal but rounds differently.
    """
    cells, prefix, meta = 1.0, 1.0, 0.0
    for e, kind, q in zip(extents, formats, _occupancy(extents, formats, rho)):
        parent, prefix = cells, prefix * e
        if kind == DENSE:
            cells *= e
        else:
            cells = prefix * q
            meta += cells + parent + 1.0
    return cells, meta


def level_marginals(extents, formats, rho: float) -> list[float]:
    """Per-level conditional occupancy: the chance a slot of an instantiated
    parent fiber is itself instantiated (and hence emitted by a scanner)."""
    out, parent = [], 1.0
    for kind, q in zip(formats, _occupancy(extents, formats, rho)):
        out.append(1.0 if kind == DENSE else (q / parent if parent > 0 else 0.0))
        parent = q
    return out


@dataclass
class _Stream:
    """An operand's expected shape: per-var occupancy marginals."""

    marginals: dict  # region var -> probability in (0, 1]

    def tokens(self, extents) -> float:
        t = 1.0
        for v, m in self.marginals.items():
            t *= extents[v] * m
        return t


def _density(hin: HeuristicInput, view) -> float:
    """A view's density: its own entry (a measured copy) first, then the
    source tensor's."""
    d = hin.densities
    return d.get(view.tensor, d.get(view.source, 1.0))


def _dim_at(view, v: str) -> str | None:
    return view.dims[view.vars.index(v)] if v in view.vars else None


class _Estimator:
    def __init__(self, ir, order, hin: HeuristicInput):
        self.ir = ir
        self.order = tuple(order)
        self.pos = {v: i for i, v in enumerate(order)}
        self.hin = hin
        self.flops = 0.0
        self.per_op: dict[str, float] = {}
        # occupancy a loop level contributes when an op is merely repeated
        # under it (the level's coordinates come from the views that own it)
        self.level_occ: dict[str, float] = {}
        for idx, view in enumerate(ir.views):
            s = self.view_stream(idx)
            for v, m in s.marginals.items():
                self.level_occ[v] = self.level_occ.get(v, 1.0) * m
        self.spaces = self._plan_spaces()

    def _plan_spaces(self) -> dict:
        """Per op, the loop vars its stream iterates: its operands' vars plus
        any consumer-nest var ordered above its deepest own var (the nest
        repeats the op under those levels).  Consumers appear later in the op
        list, so a high-to-low pass sees every consumer context first."""
        ctx: dict[int, set] = {i: set() for i in range(len(self.ir.ops))}
        spaces: dict[int, set] = {}
        for idx in range(len(self.ir.ops) - 1, -1, -1):
            op = self.ir.ops[idx]
            own = set()
            for operand in (op.lhs, op.rhs):
                if operand is not None:
                    own |= set(self.ir.operand_vars(operand))
            deepest = max((self.pos.get(v, 0) for v in own), default=0)
            space = own | {
                v for v in ctx[idx] if self.pos.get(v, 0) < deepest
            }
            spaces[idx] = space
            for operand in (op.lhs, op.rhs):
                if operand is not None and operand.kind == "op":
                    ctx[operand.index] |= space
        return spaces

    def view_stream(self, idx: int) -> _Stream:
        view = self.ir.views[idx]
        rho = _density(self.hin, view)
        exts = [self.ir.extents[v] for v in view.vars]
        marg = level_marginals(exts, view.formats, rho)
        return _Stream({v: m for v, m in zip(view.vars, marg)})

    def charge(self, name: str, flops: float):
        self.flops += flops
        self.per_op[name] = self.per_op.get(name, 0.0) + flops

    def operand(self, operand) -> _Stream:
        if operand.kind == "view":
            s = self.view_stream(operand.index)
        else:
            s = self.op_stream(operand.index)
        for _ in operand.maps:
            self.charge(f"map@{operand.kind}{operand.index}", s.tokens(self.ir.extents))
        return s

    def join_rate(self, op, v: str) -> float:
        if op.lhs.kind != "view" or op.rhs is None or op.rhs.kind != "view":
            return 1.0
        va = self.ir.views[op.lhs.index]
        vb = self.ir.views[op.rhs.index]
        da, db = _dim_at(va, v), _dim_at(vb, v)
        if da is None or db is None:
            return 1.0
        return self.hin.rate(va.source, da, vb.source, db)

    def op_stream(self, idx: int) -> _Stream:
        """Op ``idx``'s stream, charging its FLOPs.  Elaboration gives each
        use of a producer its own op, so every op has one reader and is
        charged once per instance, as the lowering builds it."""
        op = self.ir.ops[idx]
        ex = self.ir.extents
        a = self.operand(op.lhs)
        if op.rhs is None:
            joined = dict(a.marginals)
        else:
            b = self.operand(op.rhs)
            joined = {}
            for v in set(a.marginals) | set(b.marginals):
                ma, mb = a.marginals.get(v), b.marginals.get(v)
                if ma is None or mb is None:
                    joined[v] = ma if mb is None else mb
                else:
                    # a rate cannot match more coordinates than the sparser side has
                    matched = min(max(ma * mb * self.join_rate(op, v), 0.0), ma, mb)
                    # mul / div intersect coordinates, add / sub union them
                    joined[v] = matched if op.kind in ("mul", "div") else ma + mb - matched
        # the loop nest repeats this op's stream under every consumer-nest var
        # ordered above its deepest own var; those levels scale its space
        for v in self.spaces[idx]:
            if v not in joined:
                joined[v] = self.level_occ.get(v, 1.0)
        cur = _Stream(joined)
        if op.rhs is not None:
            self.charge(op.name, cur.tokens(ex))
        # fold reductions innermost-first: adds = consumed - surviving
        for u in sorted(op.reduces, key=lambda v: -self.pos.get(v, 0)):
            p = 1.0
            for m in cur.marginals.values():
                p *= m
            k = ex[u]
            consumed = cur.tokens(ex)
            q_out = 1.0 - (1.0 - p) ** k
            rest = dict(cur.marginals)
            rest.pop(u, None)
            space = 1.0
            for v in rest:
                space *= ex[v]
            survivors = space * min(q_out, 1.0)
            prod_rest = 1.0
            for m in rest.values():
                prod_rest *= m
            self.charge(op.name, max(consumed - survivors, 0.0))
            # spread the reduced density over the remaining vars: scale the
            # innermost marginal so the product matches q_out (clamped)
            if rest:
                inner = max(rest, key=lambda v: self.pos.get(v, 0))
                if prod_rest > 0:
                    rest[inner] = min(rest[inner] * q_out / prod_rest, 1.0)
            cur = _Stream(rest)
        for _ in op.maps:
            self.charge(op.name, cur.tokens(ex))
        return cur


def estimate_region(vp, ir, order, hin: HeuristicInput) -> tuple[CostEstimate, dict]:
    """Cost of one fused region at ``order``, which must name every region
    var once and keep the storage nesting; also returns estimated output
    densities.  Each result is kept on ``ir`` and returned as a copy."""
    key = (tuple(order), _items(hin.densities), _items(hin.rates))
    kept = ir.estimates.get(key)
    if kept is None:
        kept = ir.estimates[key] = _estimate(vp, ir, order, hin)
    cost, out_rho = kept
    return replace(
        cost, per_expression=dict(cost.per_expression), materialized=list(cost.materialized)
    ), dict(out_rho)


def _items(d: dict) -> tuple:
    """``d``'s items in key order, each value with its sign: 0.0 == -0.0,
    but a density of -0.0 can give an output density of -0.0."""
    return tuple(sorted((k, v, math.copysign(1.0, v)) for k, v in d.items()))


def _estimate(vp, ir, order, hin: HeuristicInput) -> tuple[CostEstimate, dict]:
    check_order(ir, tuple(order))
    est = _Estimator(ir, order, hin)
    out_rho: dict[str, float] = {}
    cost = CostEstimate()
    for op_idx, name in ir.outputs:
        s = est.op_stream(op_idx)
        rho = 1.0
        for v in ir.ops[op_idx].result_vars:
            rho *= s.marginals.get(v, 1.0)
        out_rho[name] = rho
        decl = vp.decl(name)
        # stored by the declared mode order
        storage_exts = [vp.var_extents[decl.dims[m]] for m in decl.mode_order]
        fmts = [decl.formats[m].kind for m in decl.mode_order]
        slots, meta = storage_stats(storage_exts, fmts, rho)
        cost.bytes_written += slots * ELEMENT_BYTES + meta * INDEX_BYTES
    for view in ir.views:
        rho = _density(hin, view)
        exts = [ir.extents[v] for v in view.vars]
        slots, meta = storage_stats(exts, view.formats, rho)
        cost.bytes_read += slots * ELEMENT_BYTES + meta * INDEX_BYTES
    cost.flops = est.flops
    cost.per_expression = dict(est.per_op)
    return cost, out_rho


def estimate_program(vp, hin: HeuristicInput | None = None) -> CostEstimate:
    """Whole-program cost: regions in order, intermediate densities
    propagated, intermediates' traffic counted at region boundaries.  Each
    region is estimated at ``choose_build_order``'s order, the search under
    the program's directives that ``pipeline.plan_region`` runs."""
    from .pipeline import choose_build_order  # local: avoids an import cycle

    hin = hin or HeuristicInput.from_schedule(vp)
    dens = dict(hin.densities)
    total = CostEstimate()
    for ridx in range(len(vp.regions)):
        ir = resolve_cycles(elaborate_region(vp, ridx))
        local = HeuristicInput(densities=dens, rates=hin.rates)
        cost, out_rho = estimate_region(vp, ir, choose_build_order(vp, ir), local)
        total.add(cost)
        for name, rho in out_rho.items():
            dens.setdefault(name, rho)
            if vp.role_of(name) == "intermediate":
                total.materialized.append(name)
    return total
