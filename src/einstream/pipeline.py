"""Program-level compilation and execution.

``run_program`` simulates a whole program, one region at a time, in three
steps: ``plan_region`` (elaborate, choose the order, lower),
``prepare_region`` (the graph's inputs, from an env of tensors in their
declared layout) and ``restore`` (an output back to its declared layout).

Not every linear extension of a region's precedence graph can be lowered:
the builder raises ``UnsupportedSchedule`` for orders that would need
unbounded buffering or multi-key merges.  ``schedulable_orders`` enumerates
the extensions lexicographically and keeps the ones the lowering accepts,
pruning rejections by shared prefix.  ``choose_build_order`` is the one
place a region's order is decided; ``fuse{ order(...) }`` enters its search
as extra precedence edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import sim
from .errors import UnsatisfiableOrder, UnsupportedSchedule
from .fusion import elaborate_region, map_user_order, plan_copies, region_vars
from .fusion import resolve_cycles, toposort_vars
from .table import build_region_graph
from .tensors import SparseTensor
from .transforms import block_input, plan_blocking, region_tensors


def store(vp, name, arr, perm=None) -> SparseTensor:
    """A dense array or a tensor, stored in ``name``'s declared layout; with
    ``perm``, storage level ``d`` holds declared level ``perm[d]``."""
    decl = vp.decl(name)
    mo = decl.mode_order if perm is None else tuple(decl.mode_order[p] for p in perm)
    formats = [decl.formats[m] for m in mo]
    if isinstance(arr, SparseTensor):
        return arr.permute_modes(mo, formats)
    return SparseTensor.from_dense(arr, formats=formats, mode_order=mo)


def copy_tensor(vp, plan, arr) -> SparseTensor:
    """Host-side permuted copy of a tensor for a discordant view."""
    return store(vp, plan.source, arr, plan.storage_perm)


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

    ``plan_copies`` rewrites ``views`` and ``plan_blocking`` rewrites
    ``extents`` in place, so each candidate order works on its own copy of
    those two; the rest of the IR is shared.  ``par`` maps index vars to
    split factors; ``block`` is a block shape such as ``(2, 2)``.
    """
    if block is not None and ir.copies:
        raise UnsupportedSchedule(
            "blocking combined with permuted input copies is not supported"
        )
    ir2 = replace(ir, views=list(ir.views), extents=dict(ir.extents))
    plans = plan_copies(ir2, order)
    binfo = plan_blocking(vp, ir2, block) if block is not None else None
    graph, info = build_region_graph(vp, ir2, order, par=par, block=binfo)
    return CompiledRegion(tuple(order), graph, info, plans, ir2, binfo)


# build attempts after which schedulable_orders stops searching
_PROBE_LIMIT = 2000


class _Prune(Exception):
    def __init__(self, depth: int):
        self.depth = depth


def schedulable_orders(vp, ir, cap: int = 24, extra_edges=()):
    """First ``cap`` lexicographic POG extensions the lowering accepts.

    A build failure at row k rules out every extension sharing that
    (k+1)-prefix; the search backtracks straight past them.  ``_PROBE_LIMIT``
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
        if len(good) >= cap or probes >= _PROBE_LIMIT:
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
            if len(good) >= cap or probes >= _PROBE_LIMIT:
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


def plan_region(vp, r: int) -> CompiledRegion:
    """Region ``r`` lowered at its chosen order, with the program's
    ``parallelize`` and ``block`` directives applied."""
    ir = resolve_cycles(elaborate_region(vp, r))
    order = choose_build_order(vp, ir)
    par = {map_user_order(ir, [n])[0]: f for n, f in vp.schedule.parallelize}
    return compile_region(vp, ir, order, par=par or None, block=vp.schedule.block)


def prepare_region(vp, cr: CompiledRegion, env: dict) -> dict:
    """The tensors ``cr``'s graph reads: ``env`` holds every tensor written
    so far in its declared layout; views get their permuted copies, and
    every input is blocked when the region runs blocked."""
    plans = {p.alias: p for p in cr.copy_plans}
    produced = {name for _, name in cr.ir.outputs}
    tens = {}
    for name in region_tensors(vp, cr.ir):
        if name in produced:
            continue
        plan = plans.get(name)
        t = env[name] if plan is None else copy_tensor(vp, plan, env[plan.source])
        tens[name] = t if cr.block is None else block_input(vp, name, t, cr.block)
    return tens


def restore(vp, name: str, t: SparseTensor) -> SparseTensor:
    """A simulated output in its declared layout: ``sim.run`` writes in loop
    order, and blocked regions write blocks."""
    decl = vp.decl(name)
    t = t.unblock([decl.formats[m] for m in t.mode_order])
    return t if t.mode_order == decl.mode_order else store(vp, name, t)


@dataclass
class ProgramRun:
    outputs: dict  # tensor -> SparseTensor, for each tensor a region stored
    reports: list  # one SimReport per region
    orders: list  # the loop order of each region


def run_program(vp, inputs: dict, config: sim.SimConfig | None = None) -> ProgramRun:
    """Simulate every region in turn on dense ``inputs``; later regions read
    the tensors earlier ones stored.  Intermediates that fusion keeps inside
    a region are never stored, so they are not in ``outputs``."""
    config = config or sim.SimConfig()
    env = {name: store(vp, name, arr) for name, arr in vp.check_inputs(inputs).items()}
    run = ProgramRun({}, [], [])
    for r in range(len(vp.regions)):
        cr = plan_region(vp, r)
        rep = sim.run(cr.graph, prepare_region(vp, cr, env), config)
        run.reports.append(rep)
        run.orders.append(cr.order)
        for _, name in cr.ir.outputs:
            env[name] = run.outputs[name] = restore(vp, name, rep.outputs[name])
    return run
