"""Region elaboration and loop-order planning.

A fusion region's expressions are flattened into one iteration space:

* every reduction index is renamed to a fresh ``u<n>`` so indices from
  different expressions cannot collide;
* an intermediate consumed inside its region is inlined — its producer
  expression is re-instantiated with the consumer's indices substituted,
  so a producer consumed under two different index patterns is recomputed;
* n-ary products binarize left-associated into synthesized partials, and
  each reduction index attaches to the last op whose operands carry it.

Valid loop orders are the topological orders of the precedence graph:
for every stored view, a non-dense storage level must come after every
level above it (all-dense prefixes are unconstrained), and an inlined
producer contributes the same constraints through its declared result
nesting.  A cycle means no single storage layout serves every use; it is
broken by scheduling one input view as a permuted copy, materialized by
the host before the region runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import UnsatisfiableOrder, UnsupportedSchedule
from .frontend.program import NormExpr, ValidatedProgram
from .tensors import DENSE

_VAR_KEY = re.compile(r"([a-zA-Z_]+)(\d*)")


def var_key(name: str):
    m = _VAR_KEY.fullmatch(name)
    if not m:
        return (name, -1)
    return (m.group(1), int(m.group(2) or -1))


@dataclass(frozen=True)
class View:
    tensor: str  # the tensor streamed: ``source``, or a permuted copy of it
    source: str  # the declared tensor it reads
    vars: tuple[str, ...]  # per storage level, outer to inner
    dims: tuple[str, ...]  # the source's declared index per storage level
    formats: tuple[str, ...]  # level kinds per storage level


@dataclass(frozen=True)
class Operand:
    kind: str  # 'view' | 'op'
    index: int
    maps: tuple = ()


@dataclass
class OpIR:
    kind: str  # 'mul' | 'div' | 'add' | 'sub' | 'one'
    lhs: Operand
    rhs: Operand | None
    name: str
    reduces: tuple[str, ...] = ()
    reduce_kind: str = "sum"
    maps: tuple = ()
    # filled by planning:
    own_vars: tuple[str, ...] = ()
    result_vars: tuple[str, ...] = ()


@dataclass
class RegionIR:
    index: int
    extents: dict[str, int]
    views: list[View] = field(default_factory=list)
    ops: list[OpIR] = field(default_factory=list)
    outputs: list[tuple[int, str]] = field(default_factory=list)  # (op, tensor)
    edges: set = field(default_factory=set)
    name_map: dict = field(default_factory=dict)  # source name -> region vars
    copies: dict = field(default_factory=dict)  # view index -> True
    # Results kept for this IR: heuristic.estimate_region's by (order,
    # densities, rates), and the order search's accepted lowerings by order,
    # each as (vp, par, block, CompiledRegion) until compile_region hands it
    # out to a call with that vp, par and block.  Both rest on an IR not
    # being mutated after its first estimate or lowering:
    # resolve_cycles, the one rewrite after elaboration, clears both when it
    # changes the IR, and compile_region rewrites only its own copy.  Not
    # init fields, so every dataclasses.replace copy starts empty.
    estimates: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    lowered: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def operand_vars(self, operand: Operand) -> tuple[str, ...]:
        if operand.kind == "view":
            seen = []
            for v in self.views[operand.index].vars:
                if v not in seen:
                    seen.append(v)
            return tuple(seen)
        return self.ops[operand.index].result_vars


# --- elaboration ----------------------------------------------------------


class _Elaborator:
    def __init__(self, vp: ValidatedProgram, expr_ids: list[int]):
        self.vp = vp
        self.in_region = {
            vp.norm[k].lhs.tensor: vp.norm[k] for k in expr_ids
        }
        self.ir = RegionIR(index=-1, extents={})
        self.counter = 0
        self._view_cache: dict = {}

    def fresh(self, original: str) -> str:
        u = f"u{self.counter}"
        self.counter += 1
        self.ir.name_map.setdefault(original, set()).add(u)
        return u

    def bind(self, var: str):
        self.ir.name_map.setdefault(var, set()).add(var)
        if var not in self.ir.extents:
            self.ir.extents[var] = self.vp.var_extents[var]

    def view_of(self, access, subst, maps=()) -> Operand:
        decl = self.vp.decl(access.tensor)
        logical = tuple(subst.get(v, v) for v in access.indices)
        if len(set(logical)) != len(logical):
            raise UnsupportedSchedule(
                f"repeated index in access {access.tensor}{logical}"
            )
        vars_storage = tuple(logical[m] for m in decl.mode_order)
        dims = tuple(decl.dims[m] for m in decl.mode_order)
        formats = tuple(decl.formats[m].kind for m in decl.mode_order)
        key = (access.tensor, vars_storage, formats)
        if key in self._view_cache:
            idx = self._view_cache[key]
        else:
            idx = len(self.ir.views)
            self.ir.views.append(
                View(access.tensor, access.tensor, vars_storage, dims, formats)
            )
            self._view_cache[key] = idx
        return Operand("view", idx, maps)

    def result_view_edges(self, expr: NormExpr, subst):
        """Precedence edges from an inlined producer's declared nesting."""
        decl = self.vp.decl(expr.lhs.tensor)
        logical = tuple(subst.get(v, v) for v in expr.lhs.indices)
        svars = tuple(logical[m] for m in decl.mode_order)
        formats = tuple(decl.formats[m].kind for m in decl.mode_order)
        self.ir.edges |= nesting_edges(svars, formats)

    def add_op(self, op: OpIR) -> int:
        self.ir.ops.append(op)
        return len(self.ir.ops) - 1

    def operand_var_set(self, operand: Operand) -> set:
        """Free vars of an operand while the region is still being built.

        Op operands from inlined producers are complete (their reduces are
        assigned), so their free vars are subtree vars minus reductions.
        """
        if operand.kind == "view":
            return set(self.ir.views[operand.index].vars)
        op = self.ir.ops[operand.index]
        s = self.operand_var_set(op.lhs)
        if op.rhs is not None:
            s |= self.operand_var_set(op.rhs)
        return s - set(op.reduces)

    def factor_operand(self, f, subst) -> Operand:
        """A stored view, or the inlined op of a producer in this region."""
        if f.access.tensor not in self.in_region:
            return self.view_of(f.access, subst, f.maps)
        prod = self.in_region[f.access.tensor]
        inner = {}
        for formal, actual in zip(prod.lhs.indices, f.access.indices):
            inner[formal] = subst.get(actual, actual)
            self.ir.name_map.setdefault(formal, set()).add(inner[formal])
        op_idx = self.elaborate_expr(prod, inner)
        self.result_view_edges(prod, inner)
        return Operand("op", op_idx, f.maps)

    def elaborate_expr(self, expr: NormExpr, subst: dict) -> int:
        """Returns the index of the op producing this expression's value."""
        term_ops = []
        for term in expr.terms:
            red_map = {v: self.fresh(v) for v in term.reduction_vars}
            tsubst = dict(subst)
            tsubst.update(red_map)
            fixed = [self.factor_operand(f, tsubst) for f in term.factors]
            for f in term.factors:
                for v in f.access.indices:
                    rv = tsubst.get(v, v)
                    self.bind_extent(rv, v)
            # binarize the product left-associated
            cur = fixed[0]
            chain: list[int] = []
            if len(fixed) == 1:
                idx = self.add_op(
                    OpIR("one", cur, None, self.synth_name())
                )
                chain.append(idx)
                cur = Operand("op", idx)
            else:
                for nxt in fixed[1:]:
                    idx = self.add_op(
                        OpIR("mul", cur, nxt, self.synth_name())
                    )
                    chain.append(idx)
                    cur = Operand("op", idx)
            # attach each reduction var to the last op in the chain using it
            per_op_red: dict[int, list] = {}
            for v in term.reduction_vars:
                rv = red_map[v]
                target = None
                for ci, idx in enumerate(chain):
                    op = self.ir.ops[idx]
                    # only this op's own factors count: the lhs chain link
                    # would smear every var over the whole chain
                    vars_here = set()
                    if ci == 0:
                        vars_here |= self.operand_var_set(op.lhs)
                    if op.rhs is not None:
                        vars_here |= self.operand_var_set(op.rhs)
                    if rv in vars_here:
                        target = idx
                if target is None:
                    raise UnsupportedSchedule(f"reduction index {v!r} unused")
                per_op_red.setdefault(target, []).append(rv)
            for idx, reds in per_op_red.items():
                self.ir.ops[idx].reduces = tuple(reds)
                self.ir.ops[idx].reduce_kind = term.reduce_op
            last = chain[-1]
            maps = []
            if term.scale * term.sign != 1.0 and not (
                term.sign == -1.0 and term.scale == 1.0 and len(expr.terms) > 1
            ):
                maps.append(("scale", term.scale * term.sign))
            for f in term.divisors:
                divisor = self.factor_operand(f, subst)
                if maps:
                    self.ir.ops[last].maps = self.ir.ops[last].maps + tuple(maps)
                    maps = []
                last = self.add_op(
                    OpIR("div", Operand("op", last), divisor, self.synth_name())
                )
            if maps:
                self.ir.ops[last].maps = self.ir.ops[last].maps + tuple(maps)
            term_ops.append((term.sign, last))
        # combine terms with union adds
        sign0, acc = term_ops[0]
        for sign, idx in term_ops[1:]:
            kind = "sub" if sign == -1.0 else "add"
            acc_idx = self.add_op(
                OpIR(kind, Operand("op", acc), Operand("op", idx), self.synth_name())
            )
            acc = acc_idx
        if expr.maps:
            self.ir.ops[acc].maps = self.ir.ops[acc].maps + tuple(expr.maps)
        self.ir.ops[acc].name = expr.lhs.tensor
        return acc

    def bind_extent(self, region_var: str, source_var: str):
        if region_var not in self.ir.extents:
            self.ir.extents[region_var] = self.vp.var_extents[source_var]

    def synth_name(self) -> str:
        return f"t{len(self.ir.ops)}"


def elaborate_region(vp: ValidatedProgram, region_index: int) -> RegionIR:
    region = vp.regions[region_index]
    exprs = [vp.norm[k] for k in region.exprs]
    el = _Elaborator(vp, region.exprs)
    later_reads = _later_reads(vp, region_index)
    produced_here = {e.lhs.tensor for e in exprs}

    for expr in exprs:
        consumed_inside = any(
            expr.lhs.tensor in _read_tensors(other)
            for other in exprs
            if other is not expr
        )
        escapes = (
            vp.role_of(expr.lhs.tensor) == "output"
            or expr.lhs.tensor in later_reads
        )
        if consumed_inside and not escapes:
            continue  # only materialized through its consumers
        for v in expr.lhs.indices:
            el.bind(v)
        op_idx = el.elaborate_expr(expr, {})
        el.ir.outputs.append((op_idx, expr.lhs.tensor))
    if not el.ir.outputs:
        raise UnsupportedSchedule("region produces nothing")

    ir = el.ir
    ir.index = region_index
    for view in ir.views:
        ir.edges |= nesting_edges(view.vars, view.formats)
    _plan_structs(ir)
    return ir


def _read_tensors(expr: NormExpr) -> set:
    out = set()
    for t in expr.terms:
        for f in t.factors:
            out.add(f.access.tensor)
        for f in t.divisors:
            out.add(f.access.tensor)
    return out


def _later_reads(vp: ValidatedProgram, region_index: int) -> set:
    reads = set()
    for r in vp.regions[region_index + 1 :]:
        for k in r.exprs:
            reads |= _read_tensors(vp.norm[k])
    return reads


def _plan_structs(ir: RegionIR):
    """Own and result vars per op.  Vars a consumer iterates above its
    producer re-run the producer pipeline; the lowering derives those per
    order (``table._OpPipe``)."""
    for op in ir.ops:
        vars_here = set(ir.operand_vars(op.lhs))
        if op.rhs is not None:
            vars_here |= set(ir.operand_vars(op.rhs))
        op.own_vars = tuple(sorted(vars_here, key=var_key))
        op.result_vars = tuple(
            v for v in op.own_vars if v not in op.reduces
        )


# --- precedence graph API -------------------------------------------------


def nesting_edges(vars, formats) -> set:
    """Precedence edges of one stored layout (levels outer to inner): a
    sparse level's var comes after every other var above it."""
    return {
        (vars[s], vars[t])
        for t, kind in enumerate(formats)
        if kind != DENSE
        for s in range(t)
        if vars[s] != vars[t]
    }


def region_vars(ir: RegionIR) -> list[str]:
    return sorted(ir.extents, key=var_key)


def is_acyclic(ir: RegionIR, edges=None) -> bool:
    """Whether the precedence edges among the region vars admit an order."""
    live = set(ir.extents)
    edges = {(a, b) for a, b in (ir.edges if edges is None else edges) if a in live and b in live}
    while live:
        free = live - {b for _, b in edges}
        if not free:
            return False
        live -= free
        edges = {(a, b) for a, b in edges if a in live}
    return True


def resolve_cycles(ir: RegionIR) -> RegionIR:
    """Break precedence cycles by scheduling permuted input copies."""
    while not is_acyclic(ir):
        producer = _producer_edges(ir)
        for idx in range(len(ir.views)):
            if idx in ir.copies:
                continue
            trial = set(producer)
            for jdx, other in enumerate(ir.views):
                if jdx != idx and jdx not in ir.copies:
                    trial |= nesting_edges(other.vars, other.formats)
            if is_acyclic(ir, trial):
                ir.copies[idx] = True
                ir.edges = trial
                ir.estimates.clear()
                ir.lowered.clear()
                break
        else:
            raise UnsupportedSchedule(
                "conflicting access orders among fused intermediates; "
                "split the region"
            )
    return ir


@dataclass(frozen=True)
class CopyPlan:
    alias: str
    source: str
    storage_perm: tuple[int, ...]  # alias level d reads source level perm[d]


def plan_copies(ir: RegionIR, order) -> list[CopyPlan]:
    """Once an order is chosen, pin each copied view's storage to it."""
    pos = {v: i for i, v in enumerate(order)}
    plans = []
    for n, idx in enumerate(sorted(ir.copies)):
        view = ir.views[idx]
        perm = tuple(
            sorted(range(len(view.vars)), key=lambda d: pos[view.vars[d]])
        )
        if perm == tuple(range(len(view.vars))):
            continue  # already nested consistently; no copy needed
        alias = f"{view.tensor}__perm{n}"
        ir.views[idx] = View(
            alias,
            view.tensor,
            tuple(view.vars[d] for d in perm),
            tuple(view.dims[d] for d in perm),
            tuple(view.formats[d] for d in perm),
        )
        plans.append(CopyPlan(alias, view.tensor, perm))
    return plans


def _producer_edges(ir: RegionIR) -> set:
    """Edges contributed by inlined producers' result nesting alone."""
    return ir.edges - set().union(*(nesting_edges(v.vars, v.formats) for v in ir.views))


def check_order(ir: RegionIR, order: tuple[str, ...]):
    vs = ir.extents.keys()
    if set(order) != vs or len(order) != len(vs):
        raise UnsatisfiableOrder(
            f"order {order} must mention each of {sorted(vs, key=var_key)} once"
        )
    pos = {v: i for i, v in enumerate(order)}
    for a, b in sorted(ir.edges):
        if a in pos and b in pos and pos[a] > pos[b]:
            raise UnsatisfiableOrder(
                f"order violates storage nesting: {a!r} must precede {b!r}"
            )


def map_user_order(ir: RegionIR, names) -> list[str]:
    """Translate source index names to region vars (reductions renamed)."""
    out = []
    for name in names:
        cands = ir.name_map.get(name)
        if not cands:
            raise UnsatisfiableOrder(f"unknown index {name!r} in this region")
        if len(cands) > 1:
            raise UnsatisfiableOrder(
                f"index {name!r} is ambiguous in this region "
                f"(candidates {sorted(cands, key=var_key)}); rename indices"
            )
        out.append(next(iter(cands)))
    return out
