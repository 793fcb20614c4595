"""Program-level compilation: schedulable-order search and region execution.

Not every linear extension of a region's precedence graph can be lowered:
the builder raises ``UnsupportedSchedule`` for orders that would need
unbounded buffering or multi-key merges.  ``schedulable_orders`` enumerates
the extensions lexicographically and keeps the ones the lowering accepts,
pruning rejections by shared prefix.  ``choose_build_order`` is the one
place a region's order is decided; ``fuse{ order(...) }`` enters its search
as extra precedence edges.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field

from .errors import UnsatisfiableOrder, UnsupportedSchedule
from .fusion import map_user_order, plan_copies, region_vars, toposort_vars
from .table import build_region_graph
from .tensors import SparseTensor
from .transforms import plan_blocking


def copy_tensor(vp, plan, arr) -> SparseTensor:
    """Host-side permuted copy of an input for a discordant view."""
    decl = vp.decl(plan.source)
    src_f = [decl.formats[m] for m in decl.mode_order]
    mo = tuple(decl.mode_order[p] for p in plan.storage_perm)
    fmts = [src_f[p] for p in plan.storage_perm]
    return SparseTensor.from_dense(arr, formats=fmts, mode_order=mo)


@dataclass
class CompiledRegion:
    order: tuple[str, ...]
    graph: object
    info: object
    copy_plans: list = field(default_factory=list)
    ir: object = None
    block: object = None  # BlockInfo when the region runs blocked


def compile_region(vp, ir, order, *, par=None, block=None) -> CompiledRegion:
    """Pin copied views to the order, apply blocking, then lower.

    ``plan_copies`` and ``plan_blocking`` rewrite the region IR in place,
    so each candidate order works on its own copy.  ``par`` maps index vars
    to split factors; ``block`` is a block shape such as ``(2, 2)``.
    """
    ir2 = _copy.deepcopy(ir)
    plans = plan_copies(ir2, order)
    binfo = plan_blocking(vp, ir2, block) if block is not None else None
    graph, info = build_region_graph(vp, ir2, order, par=par, block=binfo)
    return CompiledRegion(tuple(order), graph, info, plans, ir2, binfo)


class _Prune(Exception):
    def __init__(self, depth: int):
        self.depth = depth


def schedulable_orders(vp, ir, cap: int = 24, extra_edges=(),
                       probe_limit: int = 2000):
    """First ``cap`` lexicographic POG extensions the lowering accepts.

    A build failure at row k rules out every extension sharing that
    (k+1)-prefix; the search backtracks straight past them.  ``probe_limit``
    bounds the number of build attempts as a safety stop.
    """
    vs = region_vars(ir)
    edges = set(ir.edges) | set(extra_edges)
    pred: dict[str, set] = {v: set() for v in vs}
    for a, b in edges:
        if a in pred and b in pred and a != b:
            pred[b].add(a)
    good: list[tuple[str, ...]] = []
    chosen: list[str] = []
    used: set = set()
    probes = 0

    def dfs():
        nonlocal probes
        if len(good) >= cap or probes >= probe_limit:
            return
        if len(chosen) == len(vs):
            probes += 1
            order = tuple(chosen)
            try:
                compile_region(vp, ir, order)
            except UnsupportedSchedule as e:
                raise _Prune(getattr(e, "row_pos", len(order) - 1))
            good.append(order)
            return
        for v in vs:
            if v in used or not pred[v] <= used:
                continue
            chosen.append(v)
            used.add(v)
            try:
                dfs()
            except _Prune as p:
                chosen.pop()
                used.remove(v)
                if p.depth < len(chosen):
                    raise
                continue  # this prefix is doomed; try the next sibling
            chosen.pop()
            used.remove(v)
            if len(good) >= cap or probes >= probe_limit:
                return

    dfs()
    return good


def choose_build_order(vp, ir) -> tuple[str, ...]:
    """First lexicographic order the lowering accepts, nesting the region's
    ``order(...)`` indices as listed.  A directive storage nesting forbids
    raises ``UnsatisfiableOrder``; one the lowering cannot build raises
    ``UnsupportedSchedule``."""
    names = vp.regions[ir.index].order
    where = f"region {ir.index}"
    extra = set()
    if names:
        where += f" order({', '.join(names)})"
        try:
            mapped = map_user_order(ir, names)
        except UnsatisfiableOrder as e:
            raise UnsatisfiableOrder(f"{where}: {e}") from None
        extra = set(zip(mapped, mapped[1:]))
        if toposort_vars(ir, ir.edges | extra) is None:
            raise UnsatisfiableOrder(f"{where} conflicts with storage nesting")
    got = schedulable_orders(vp, ir, cap=1, extra_edges=extra)
    if not got:
        raise UnsupportedSchedule(f"{where}: no schedulable dataflow order found")
    return got[0]
