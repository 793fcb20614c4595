"""The whole-program path the benchmark times, driven from outside einstream.

Per program: ``parse_program`` -> ``validate_program`` -> per region
``elaborate_region`` + ``resolve_cycles`` -> order choice -> ``compile_region``
-> host prep (``from_dense``, ``copy_tensor``, ``block_input``) ->
``estimate_region`` at the simulated order -> ``sim.run`` -> re-store the
outputs in their declared layout for later regions.  Checking against
``oracle.evaluate_program`` is a separate step (``check``), so that run time
never includes the oracle.

A *point* is one simulation of a program at one order, channel depth and
data seed.  Its outcome is ``ok``, ``wrong`` or the class of the exception
it raised; ``UnsupportedSchedule`` from lowering is a rejection, counted
apart and never simulated.
"""

from __future__ import annotations

import hashlib
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from einstream import fusion, heuristic, oracle, pipeline, sim, transforms
from einstream.errors import UnsupportedSchedule
from einstream.frontend import parse_program, validate_program
from einstream.tensors import SparseTensor
from spans import Clock

ORDER_CAP = 24  # orders per program the sweep asks the search for

# span names whose seconds make up compile_s
COMPILE_SPANS = (
    "frontend.parse",
    "frontend.validate",
    "fusion.elaborate",
    "pipeline.order",
    "pipeline.lower",
    "heuristic.estimate",
)


@dataclass
class Point:
    program: str
    order: tuple
    data_seed: int
    depth: int
    outcome: str = "ok"
    error: str = ""
    reports: list = field(default_factory=list)  # one SimReport per region
    est_flops: float = 0.0
    est_bytes: float = 0.0
    outputs: dict = field(default_factory=dict)  # tensor -> restored SparseTensor

    @property
    def flops(self) -> int:
        return sum(r.flops for r in self.reports)

    @property
    def bytes(self) -> int:
        return sum(r.total_bytes for r in self.reports)

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.reports)

    def fail(self, err: Exception) -> None:
        where = traceback.extract_tb(err.__traceback__)[-1]
        self.outcome = type(err).__name__
        self.error = f"{Path(where.filename).name}:{where.lineno}: {str(err)[:200]}"


@dataclass
class Instance:
    points: list
    counts: Counter  # orders_found, rejected, graph_nodes, graph_edges, restores
    totals: dict  # seconds per span name
    wall: float  # seconds, calibration runs left out
    cal: float  # calibration kernel seconds across the instance


def _stored(vp, name: str, arr) -> SparseTensor:
    decl = vp.decl(name)
    return SparseTensor.from_dense(
        arr, formats=[decl.formats[m] for m in decl.mode_order], mode_order=decl.mode_order
    )


def restore(vp, name: str, t: SparseTensor) -> tuple[SparseTensor, bool]:
    """Bring a simulated output back to its declared layout.

    ``sim.run`` writes outputs in loop order and blocked programs write
    blocks; a later region reads the declared, unblocked storage.  Returns
    the tensor and whether its modes had to be permuted.
    """
    decl = vp.decl(name)
    if t.is_blocked:
        t = t.unblock([decl.formats[m] for m in t.mode_order])
    if t.mode_order == decl.mode_order:
        return t, False
    formats = [decl.formats[m] for m in decl.mode_order]
    return t.permute_modes(decl.mode_order, formats), True


class Runner:
    """Runs one workload's programs on prepared dense inputs."""

    def __init__(self, workload, inputs: dict, rec, tiny: bool = False):
        self.wl = workload
        self.inputs = inputs  # (program, data seed) -> {name: dense array}
        self.rec = rec
        self.tiny = tiny
        self.counts: Counter = Counter()
        self.clock = Clock()

    def instance(self, instance_id) -> Instance:
        rec = self.rec
        rec.begin(instance_id)
        self.counts = Counter()
        points: list[Point] = []
        self.clock.start()
        with rec.span("instance"):
            for prog in self.wl.programs:
                if self.wl.sweep:
                    points += self._sweep(prog)
                else:
                    points += self._single(prog)
        wall, cal = self.clock.stop()
        return Instance(points, self.counts, dict(rec.totals), wall, cal)

    # -- compile ---------------------------------------------------------

    def _front(self, prog):
        with self.rec.span("frontend.parse"):
            program = parse_program(prog.source(self.tiny))
        with self.rec.span("frontend.validate"):
            return validate_program(program)

    def _elaborate(self, vp, r):
        with self.rec.span("fusion.elaborate"):
            return fusion.resolve_cycles(fusion.elaborate_region(vp, r))

    def _lower(self, vp, ir, order):
        par = {}
        for name, factor in vp.schedule.parallelize:
            (var,) = fusion.map_user_order(ir, [name])
            par[var] = factor
        with self.rec.span("pipeline.lower"):
            cr = pipeline.compile_region(
                vp, ir, order, par=par or None, block=vp.schedule.block
            )
        self.counts["graph_nodes"] += len(cr.graph.nodes)
        self.counts["graph_edges"] += len(cr.graph.edges)
        return cr

    # -- one program, first accepted order per region ----------------------

    def _single(self, prog) -> list[Point]:
        vp = self._front(prog)
        points = []
        for s in range(self.wl.data_seeds):
            for depth in self.wl.depths:
                point = Point(prog.name, (), s, depth)
                env: dict = {}
                try:
                    for r in range(len(vp.regions)):
                        ir = self._elaborate(vp, r)
                        with self.rec.span("pipeline.order"):
                            order = pipeline.choose_build_order(vp, ir)
                        self.counts["orders_found"] += 1
                        point.order += (order,)
                        cr = self._lower(vp, ir, order)
                        self._region(vp, cr, self.inputs[prog.name, s], env, point)
                except Exception as err:  # the outcome is measured, not fatal
                    point.fail(err)
                points.append(point)
                self.clock.lap()
        return points

    # -- one program, every order the search accepts -----------------------

    def _sweep(self, prog) -> list[Point]:
        vp = self._front(prog)
        if len(vp.regions) != 1:
            raise ValueError(f"{prog.name}: a swept program must be one region")
        ir = self._elaborate(vp, 0)
        with self.rec.span("pipeline.order"):
            orders = pipeline.schedulable_orders(vp, ir, cap=ORDER_CAP)
        self.counts["orders_found"] += len(orders)
        points = []
        for order in orders:
            try:
                cr, lower_err = self._lower(vp, ir, order), None
            except UnsupportedSchedule:
                self.counts["rejected"] += 1
                continue
            except Exception as err:  # the outcome of every point below
                cr, lower_err = None, err
            for s in range(self.wl.data_seeds):
                for depth in self.wl.depths:
                    point = Point(prog.name, (order,), s, depth)
                    if lower_err is not None:
                        point.fail(lower_err)
                    else:
                        try:
                            self._region(vp, cr, self.inputs[prog.name, s], {}, point)
                        except Exception as err:  # the outcome is measured
                            point.fail(err)
                    points.append(point)
                    self.clock.lap()
        return points

    # -- host prep, estimate, simulate, re-store ---------------------------

    def _region(self, vp, cr, dense: dict, env: dict, point: Point) -> None:
        rec = self.rec
        plans = {p.alias: p for p in cr.copy_plans}
        names = transforms.region_tensors(vp, cr.ir)
        produced = {name for _, name in cr.ir.outputs}
        tens = {}
        with rec.span("tensors.compress"):
            for name in names:
                if name in produced or name in plans:
                    continue
                if name not in env:
                    env[name] = _stored(vp, name, dense[name])
                tens[name] = env[name]
        with rec.span("tensors.copy"):
            for alias, plan in plans.items():
                if plan.source in dense:
                    arr = dense[plan.source]
                else:  # an intermediate written by an earlier region
                    arr = env[plan.source].to_dense()
                tens[alias] = pipeline.copy_tensor(vp, plan, arr)
        with rec.span("transforms.block"):
            if cr.block is not None:
                for name in names:
                    if name in tens:
                        tens[name] = transforms.block_input(vp, name, tens[name], cr.block)
        with rec.span("heuristic.estimate"):
            hin = heuristic.HeuristicInput(
                densities=heuristic.measured_densities(tens),
                rates=dict(vp.schedule.rates),
            )
            est, _ = heuristic.estimate_region(vp, cr.ir, cr.order, hin)
        point.est_flops += est.flops
        point.est_bytes += est.bytes_read + est.bytes_written
        with rec.span("sim.run"):
            rep = sim.run(cr.graph, tens, sim.SimConfig(channel_depth=point.depth))
        point.reports.append(rep)
        with rec.span("tensors.restore"):
            for name in sorted(produced):
                env[name], permuted = restore(vp, name, rep.outputs[name])
                point.outputs[name] = env[name]
                self.counts["restores"] += permuted


# --- oracle and comparison ---------------------------------------------------


def references(workload, inputs: dict, rec, tiny: bool = False, clock=None) -> dict:
    """Oracle output per (program, data seed); ``clock`` laps between them."""
    refs = {}
    for prog in workload.programs:
        vp = validate_program(parse_program(prog.source(tiny)))
        for s in range(workload.data_seeds):
            with rec.span("oracle.evaluate"):
                refs[prog.name, s] = oracle.evaluate_program(vp, inputs[prog.name, s])
            if clock is not None:
                clock.lap()
    return refs


def check(points, refs: dict, rec) -> None:
    """Mark every completed point whose outputs differ from the oracle."""
    with rec.span("check.compare"):
        for p in points:
            if p.outcome != "ok":
                continue
            want = refs[p.program, p.data_seed]
            for name, t in p.outputs.items():
                if not np.allclose(t.to_dense(), want[name], rtol=1e-9, atol=1e-12):
                    p.outcome, p.error = "wrong", f"{name} differs from the oracle"
                    break


def digest(points) -> str:
    """Hash of every modelled counter, estimate, outcome and output."""
    h = hashlib.sha256()
    for p in points:
        h.update(repr((p.program, p.order, p.data_seed, p.depth, p.outcome)).encode())
        h.update(repr((p.est_flops, p.est_bytes)).encode())
        for rep in p.reports:
            h.update(repr(sorted(rep.counters().items())).encode())
            h.update(repr(sorted(rep.node_cycles.items())).encode())
            h.update(repr(sorted(rep.node_flops.items())).encode())
        for name in sorted(p.outputs):
            t = p.outputs[name]
            h.update(repr((name, t.shape, t.mode_order, t.formats)).encode())
            for lvl in t.levels:
                for arr in (getattr(lvl, "segments", None), getattr(lvl, "coords", None)):
                    if arr is not None:
                        h.update(np.ascontiguousarray(arr).tobytes())
            h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()
