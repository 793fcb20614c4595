"""Program-level compilation and execution.

``run_program`` simulates a whole program, one region at a time, in three
steps: ``plan_region`` (elaborate, choose the order, lower),
``prepare_region`` (the graph's inputs, from an env of tensors in their
declared layout) and ``store`` (an output, which ``sim.run`` writes in loop
order, back in its declared layout).

Not every linear extension of a region's precedence graph can be lowered:
the builder raises ``UnsupportedSchedule`` for orders that would need
unbounded buffering or multi-key merges.  ``schedulable_orders`` enumerates
the extensions lexicographically and keeps the ones the lowering accepts,
pruning rejections by shared prefix.  ``choose_build_order`` is the one
place a region's order is decided; ``fuse{ order(...) }`` enters its search
as extra precedence edges.

The search probes each order under the directives its region runs under,
``region_par`` and the program's ``block``, and keeps each lowering it
accepts on the IR it searched (``RegionIR.lowered``) with the ``vp``,
``par`` and ``block`` it was built for.  ``compile_region`` hands that
lowering out once, to a call with that ``vp``, order, ``par`` and
``block``; ``plan_region`` is such a call.  So an IR holds the accepted
lowerings that no caller has taken yet, and they are freed with it; any
other call lowers afresh.  Where the directives refuse every order, the
order chosen is the first one the same search accepts without them, and
``compile_region`` raises that order's refusal, as if the order had been
chosen plain and then lowered under the directives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

from . import sim
from .errors import PartialBlock, ScheduleError, UnsatisfiableOrder, UnsupportedSchedule
from .fusion import elaborate_region, map_user_order, plan_copies, region_vars
from .fusion import is_acyclic, resolve_cycles
from .table import build_region_graph
from .tensors import SparseTensor
from .transforms import block_input, fill_sensitive, plan_blocking, region_tensors


def store(vp, name, arr, perm=None) -> SparseTensor:
    """A dense array or a tensor, stored in ``name``'s declared layout; with
    ``perm``, storage level ``d`` holds declared level ``perm[d]``.  A tensor
    already in that layout is returned as it is."""
    decl = vp.decl(name)
    mo = decl.mode_order if perm is None else tuple(decl.mode_order[p] for p in perm)
    formats = tuple(decl.formats[m] for m in mo)
    if isinstance(arr, SparseTensor):
        same = arr.mode_order == mo and arr.formats == formats
        return arr if same else arr.permute_modes(mo, formats)
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
    split factors; ``block`` is a block shape such as ``(2, 2)``.  A
    lowering the order search kept on ``ir`` for this ``vp``, order,
    ``par`` and ``block`` is returned instead, and ``ir`` keeps it no
    longer; a call with anything else lowers afresh and leaves it kept.
    """
    order, par = tuple(order), dict(par or {})
    kept = ir.lowered.get(order)
    if kept is not None and kept[0] is vp and kept[1:3] == (par, block):
        del ir.lowered[order]
        return kept[3]
    _refuse_copies(ir, block)
    ir2 = replace(ir, views=list(ir.views), extents=dict(ir.extents))
    plans = plan_copies(ir2, order)
    binfo = plan_blocking(vp, ir2, block) if block is not None else None
    graph, info = build_region_graph(vp, ir2, order, par=par, block=binfo)
    return CompiledRegion(order, graph, info, plans, ir2, binfo)


def _refuse_copies(ir, block):
    if block is not None and ir.copies:
        raise UnsupportedSchedule(
            "blocking combined with permuted input copies is not supported"
        )


# build attempts after which schedulable_orders stops searching
_PROBE_LIMIT = 2000


def schedulable_orders(vp, ir, cap: int = 24, extra_edges=()):
    """First ``cap`` lexicographic POG extensions the lowering accepts under
    the region's directives (``region_par`` and ``vp.schedule.block``);
    each one's lowering is kept on ``ir`` for ``compile_region`` to hand
    out to a call with those directives.

    A refusal that holds whatever the order, ``region_par``'s and
    blocking's (permuted input copies, ``plan_blocking``'s errors), raises
    before the first probe.
    """
    par, block = region_par(vp, ir), vp.schedule.block
    if block is not None:
        _refuse_copies(ir, block)
        plan_blocking(vp, replace(ir, extents=dict(ir.extents)), block)
    return _search(vp, ir, cap, extra_edges, par, block)


def _search(vp, ir, cap, extra_edges, par, block):
    """The orders ``schedulable_orders`` describes, probed under ``par``
    and ``block``.

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
    par = dict(par or {})
    good: list[tuple[str, ...]] = []
    chosen: list[str] = []
    probes = 0

    def dfs():
        """Probe the orders extending ``chosen``: a build that fails at a
        row ``k < len(chosen)`` dooms every order sharing ``chosen[:k + 1]``
        and returns ``k``; else None."""
        nonlocal probes
        if len(good) >= cap or probes >= _PROBE_LIMIT:
            return None
        if len(chosen) == len(vs):
            probes += 1
            order = tuple(chosen)
            try:
                cr = compile_region(vp, ir, order, par=par, block=block)
            except UnsupportedSchedule as e:
                return getattr(e, "row_pos", len(order) - 1)
            ir.lowered[order] = (vp, par, block, cr)
            good.append(order)
            return None
        for v in vs:
            if v in chosen or not pred[v].issubset(chosen):
                continue
            chosen.append(v)
            row = dfs()
            chosen.pop()
            if row is not None and row < len(chosen):
                return row  # this prefix is doomed too
            if len(good) >= cap or probes >= _PROBE_LIMIT:
                return None
        return None

    dfs()
    del dfs  # its cell refers to it: break the cycle, so ``ir`` goes by refcount
    return good


def choose_build_order(vp, ir) -> tuple[str, ...]:
    """First lexicographic order the lowering accepts under the region's
    directives, nesting the region's ``order(...)`` indices as listed; its
    lowering is kept for ``plan_region``.  Where the directives refuse
    every order, the first one the search accepts without them: lowering
    it under them raises the reason.  A directive storage nesting forbids
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
        if not is_acyclic(ir, ir.edges | extra):
            raise UnsatisfiableOrder(f"{where} conflicts with storage nesting")
    try:
        got = schedulable_orders(vp, ir, cap=1, extra_edges=extra)
    except ScheduleError:  # refused whatever the order; compile_region says why
        got = []
    got = got or _search(vp, ir, 1, extra, None, None)
    if not got:
        raise UnsupportedSchedule(f"{where}: no schedulable dataflow order found")
    return got[0]


def region_par(vp, ir) -> dict | None:
    """The split factor of each region var that a ``parallelize`` names,
    or None.  A directive applies to the regions whose expressions use its
    index and leaves the others alone; an index the region renamed more
    than once raises ``UnsatisfiableOrder``."""
    par = {map_user_order(ir, [n])[0]: f for n, f in vp.schedule.parallelize if n in ir.name_map}
    return par or None


def plan_region(vp, r: int) -> CompiledRegion:
    """Region ``r`` lowered at its chosen order, with the program's
    ``parallelize`` and ``block`` directives applied: the lowering the
    order search kept."""
    ir = resolve_cycles(elaborate_region(vp, r))
    order = choose_build_order(vp, ir)
    return compile_region(vp, ir, order, par=region_par(vp, ir), block=vp.schedule.block)


def prepare_region(vp, cr: CompiledRegion, env: dict) -> dict:
    """The tensors ``cr``'s graph reads: ``env`` holds every tensor written
    so far in its declared layout; views get their permuted copies, and
    every input is blocked when the region runs blocked.  Then an input
    that ``transforms.fill_sensitive`` marks must hold no zero in its
    stored blocks (every block full), or this raises ``PartialBlock``."""
    plans = {p.alias: p for p in cr.copy_plans}
    produced = {name for _, name in cr.ir.outputs}
    sensitive = fill_sensitive(cr.ir) if cr.block is not None else {}
    tens = {}
    for name in region_tensors(vp, cr.ir):
        if name in produced:
            continue
        plan = plans.get(name)
        t = env[name] if plan is None else copy_tensor(vp, plan, env[plan.source])
        if cr.block is not None:
            t = block_input(vp, name, t, cr.block)
            if name in sensitive and not t.values.all():
                raise PartialBlock(
                    f"region {cr.ir.index}: blocked input {name} has a stored block that is"
                    f" not full, and {sensitive[name]} would read its padding as stored entries"
                )
        tens[name] = t
    return tens


@dataclass
class ProgramRun:
    outputs: dict  # tensor -> SparseTensor, for each tensor a region stored
    reports: list  # one SimReport per region
    orders: list  # the loop order of each region
    # per region, the seconds of plan_region, prepare_region, sim.run and store
    timings: list = field(default_factory=list, compare=False)


def run_program(vp, inputs: dict, config: sim.SimConfig | None = None) -> ProgramRun:
    """Simulate every region in turn on dense ``inputs``; later regions read
    the tensors earlier ones stored.  Intermediates that fusion keeps inside
    a region are never stored, so they are not in ``outputs``."""
    config = config or sim.SimConfig()
    env = {name: store(vp, name, arr) for name, arr in vp.check_inputs(inputs).items()}
    run = ProgramRun({}, [], [])
    for r in range(len(vp.regions)):
        t0 = perf_counter()
        cr = plan_region(vp, r)
        t1 = perf_counter()
        tens = prepare_region(vp, cr, env)
        t2 = perf_counter()
        rep = sim.run(cr.graph, tens, config)
        t3 = perf_counter()
        run.reports.append(rep)
        run.orders.append(cr.order)
        for _, name in cr.ir.outputs:
            env[name] = run.outputs[name] = store(vp, name, rep.outputs[name])
        run.timings.append(
            {"plan_region": t1 - t0, "prepare_region": t2 - t1, "sim.run": t3 - t2,
             "store": perf_counter() - t3}
        )
    return run
