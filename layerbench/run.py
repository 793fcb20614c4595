"""Layered benchmark of einstream: one workload, one seed, one run.

Run from the repository root::

    python3 layerbench/run.py --workload spmm_fused --seed 1 --seconds 35 --trace 0

The run is one process with no extra threads.  It sets up (import, input
generation from ``--seed`` and a warm-up on tiny programs, several times),
then repeats whole instances of the workload while one more fits in
``--seconds`` and checks every output against the oracle.  The oracle runs
with each instance until it has used 60 % of ``--seconds`` (its samples);
later instances are compared with its last result.  With ``--trace 1`` it
alternates untraced and traced instances, writes the spans to
``layerbench/out/`` and reports per-layer self time and the tracing
overhead.

Host times of the end-to-end metrics are reference seconds: each sample's
seconds divided by the time of a fixed pure-Python calibration kernel,
timed before, after and every half second within the sample
(``spans.Clock``), times ``spans.REF_CAL_S``.  The CPU speed of a shared
machine can change by 1.5-2x for tens of seconds, which moved raw seconds
of whole runs by 19-31 % over ten seeds; the ratio cancels most of it.
The raw seconds and the kernel time are in the details line.

Output: a JSON line of details (counter digest, sample counts, raw seconds,
outcome per cause), then, as the last line, ``{"correct", "attempted",
"failed", "metrics"}``.  ``attempted`` counts simulated points and
``failed`` the points that raised or returned a wrong output; ``correct``
is false when any completed point disagrees with the oracle, a reference
point fails, or the modelled counters differ between instances of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
ORACLE_SHARE = 0.6  # of --seconds; past it, instances reuse the last oracle result

# name -> unit; the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": "s",  # import + median of the input generation and warm-up rounds
    "compile_s": "s",  # parse .. lower + estimate, median per instance
    "run_s": "s",  # source text and dense inputs to re-stored outputs, median
    "check_s": "s",  # oracle on every input set + output comparison, medians
    "cycles": "cycles",  # modelled, summed over the reference points
    "flops": "count",
    "bytes": "B",
    "ok_frac": "frac",  # ok points / simulated points (1 - fail_frac)
    "est_flops_qerr": "x",  # median max(e/s, s/e) over completed points
    "est_bytes_qerr": "x",
    "peak_rss_mb": "MB",
}

# name -> (unit, the end-to-end metric it should move, on which workload)
PER_LAYER = {
    "frontend.parse_s": ("s", "compile_s on all; run_s on order_sweep"),
    "frontend.validate_s": ("s", "compile_s on all; run_s on order_sweep"),
    "fusion.elaborate_s": ("s", "compile_s on all; run_s on order_sweep"),
    "pipeline.order_s": ("s", "compile_s on all; run_s on order_sweep"),
    "pipeline.lower_s": ("s", "compile_s on all; run_s on order_sweep"),
    "pipeline.orders_found": ("count", "compile_s, run_s on order_sweep"),
    "pipeline.rejected": ("count", "ok_frac on order_sweep (rejected, not failed)"),
    "graph.nodes": ("count", "compile_s; run_s through sim"),
    "graph.edges": ("count", "compile_s; run_s through sim"),
    "heuristic.estimate_s": ("s", "compile_s"),
    "heuristic.flops_rel_err": ("frac", "est_flops_qerr on order_sweep"),
    "heuristic.bytes_rel_err": ("frac", "est_bytes_qerr on order_sweep"),
    "tensors.compress_s": ("s", "run_s on gcn_blocked, barely on spmm_fused"),
    "tensors.copy_s": ("s", "run_s on gcn_blocked, barely on spmm_fused"),
    "transforms.block_s": ("s", "run_s on gcn_blocked, barely on spmm_fused"),
    "tensors.restore_s": ("s", "run_s on gcn_blocked, barely on spmm_fused"),
    "tensors.restores": ("count", "run_s on gcn_blocked"),
    "sim.run_s": ("s", "run_s on spmm_fused and order_sweep; peak_rss_mb"),
    "sim.node_cycles": ("cycles", "run_s on spmm_fused and order_sweep"),
    "sim.node_cycles_per_s": ("1/s", "run_s on spmm_fused and order_sweep"),
    "sim.points": ("count", "ok_frac (its base)"),
    "sim.fail.wrong": ("count", "ok_frac on order_sweep"),
    "sim.fail.Deadlock": ("count", "ok_frac on order_sweep"),
    "sim.fail.MalformedStream": ("count", "ok_frac on order_sweep"),
    "sim.fail.RepeatUnderflow": ("count", "ok_frac on order_sweep"),
    "sim.fail.other": ("count", "ok_frac on order_sweep"),
    "oracle.evaluate_s": ("s", "check_s on spmm_fused and gcn_blocked"),
    "check.compare_s": ("s", "check_s"),
    "trace.overhead": ("frac", "none: traced vs untraced instance time"),
    "trace.spans": ("count", "none: spans recorded in one traced instance"),
}
NAMED_FAILURES = ("wrong", "Deadlock", "MalformedStream", "RepeatUnderflow")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_harness() -> float:
    """Put the checkout's sources first on the path and import them."""
    if not (SRC / "einstream" / "__init__.py").is_file():
        sys.exit(f"layerbench: no einstream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import harness  # noqa: F401  (imports einstream and numpy)

    return perf_counter() - start


def _qerr(est: float, got: float) -> float:
    a, b = est + 1.0, got + 1.0
    return max(a / b, b / a)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def setup_round(wl, seed, tiny=False):
    """Generate the inputs, then warm up: every program of the workload at
    tiny size, first accepted order, one data seed.  Returns the inputs."""
    from einstream.frontend import parse_program, validate_program

    import harness
    from spans import Recorder
    from workloads import make_inputs

    warm_wl = replace(wl, sweep=False, data_seeds=1, depths=wl.depths[-1:])
    inputs, warm = {}, {}
    for prog in wl.programs:
        for store, w, is_tiny in ((inputs, wl, tiny), (warm, warm_wl, True)):
            vp = validate_program(parse_program(prog.source(is_tiny)))
            for s in range(w.data_seeds):
                store[prog.name, s] = make_inputs(vp, prog, seed, s)
    rec = Recorder(keep=False)
    inst = harness.Runner(warm_wl, warm, rec, tiny=True).instance("warmup")
    harness.check(inst.points, harness.references(warm_wl, warm, rec, tiny=True), rec)
    return inputs


def same_inputs(a: dict, b: dict) -> bool:
    import numpy as np

    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(np.array_equal(a[k][n], b[k][n]) for n in a[k])
        for k in a
    )


class Sample(NamedTuple):
    wall: float  # instance seconds, calibration runs left out
    cal: float  # calibration kernel seconds across the instance
    compile_s: float
    compare_s: float


def measure(wl, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Set up, then run instances while one more fits in ``seconds``.

    Only the first instance is kept whole (all instances agree on their
    points, which the digest checks); the others leave a ``Sample``, so the
    heap, and the collector's work, does not grow with the run.  Each oracle
    sample is ``(seconds, kernel seconds across it)``.
    """
    import harness
    from spans import Clock, Recorder, calibrate

    rounds, inputs, stable_inputs = [], None, True  # rounds: (seconds, kernel seconds)
    for _ in range(SETUP_ROUNDS):
        before = calibrate()
        start = perf_counter()
        got = setup_round(wl, seed, tiny)
        took = perf_counter() - start
        rounds.append((took, (before + calibrate()) / 2))
        stable_inputs &= inputs is None or same_inputs(inputs, got)
        inputs = got

    plain, traced = Recorder(keep=False), Recorder(keep=True)
    deadline = perf_counter() + seconds
    runs = {False: [], True: []}  # traced? -> [Sample]
    first, oracle, refs, digests, span_counts = None, [], None, set(), []
    i = 0
    while True:
        began = perf_counter()
        is_traced = trace and i % 2 == 1
        rec = traced if is_traced else plain
        opened = len(rec.spans)
        gc.collect()
        inst = harness.Runner(wl, inputs, rec, tiny).instance(i)
        span_counts.append(len(rec.spans) - opened)
        oracle_began = perf_counter()
        if sum(s for s, _ in oracle) < ORACLE_SHARE * seconds:
            refs = None
            gc.collect()
            clock = Clock(every=0.1)  # oracle calls are short in the sweep
            clock.start()
            refs = harness.references(wl, inputs, rec, tiny, clock)
            oracle.append((rec.totals["oracle.evaluate"], clock.stop()[1]))
        oracle_took = perf_counter() - oracle_began
        harness.check(inst.points, refs, rec)
        compile_s = sum(inst.totals.get(n, 0.0) for n in harness.COMPILE_SPANS)
        runs[is_traced].append(Sample(inst.wall, inst.cal, compile_s, rec.totals["check.compare"]))
        digests.add(harness.digest(inst.points))
        first = first or inst
        del inst
        i += 1
        # stop when one more iteration like this one would end past the
        # deadline; the next one runs the oracle only if it has time left
        now = perf_counter()
        step = now - began
        if sum(s for s, _ in oracle) >= ORACLE_SHARE * seconds:
            step -= oracle_took
        if now + step > deadline and i >= (2 if trace else 1):
            break
    return {
        "setup_rounds": rounds,
        "stable_inputs": stable_inputs,
        "first": first,
        "runs": runs,
        "oracle": oracle,
        "digests": digests,
        "span_counts": span_counts,
        "traced": traced,
    }


def summarize(wl, points) -> dict:
    """Outcome counts of one instance's points (all instances agree)."""
    outcomes: dict = {}
    first_error: dict = {}
    for p in points:
        outcomes[p.outcome] = outcomes.get(p.outcome, 0) + 1
        if p.outcome != "ok":
            first_error.setdefault(p.outcome, p.error)
    return {
        "outcomes": outcomes,
        "first_error": first_error,
        "attempted": len(points),
        "failed": len(points) - outcomes.get("ok", 0),
        "completed": [p for p in points if p.outcome in ("ok", "wrong")],
        "reference": [p for p in points if wl.is_reference(p.program, p.depth)],
    }


def end_to_end(m: dict, summary: dict, import_s: tuple) -> dict:
    """Host times in reference seconds: seconds / kernel seconds * REF_CAL_S."""
    from spans import REF_CAL_S

    plain = m["runs"][False]
    ref, done = summary["reference"], summary["completed"]
    setup = import_s[0] / import_s[1] + _median(s / cal for s, cal in m["setup_rounds"])
    return {
        "setup_s": REF_CAL_S * setup,
        "compile_s": REF_CAL_S * _median(x.compile_s / x.cal for x in plain),
        "run_s": REF_CAL_S * _median(x.wall / x.cal for x in plain),
        "check_s": REF_CAL_S
        * (_median(s / cal for s, cal in m["oracle"]) + _median(x.compare_s / x.cal for x in plain)),
        "cycles": sum(p.cycles for p in ref),
        "flops": sum(p.flops for p in ref),
        "bytes": sum(p.bytes for p in ref),
        "ok_frac": summary["outcomes"].get("ok", 0) / max(summary["attempted"], 1),
        "est_flops_qerr": _median(_qerr(p.est_flops, p.flops) for p in done),
        "est_bytes_qerr": _median(_qerr(p.est_bytes, p.bytes) for p in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(m: dict, summary: dict, first) -> dict:
    """Self time per layer from the traced instances' spans, plus counts."""
    self_t = m["traced"].self_times()
    ids = [inst_id for inst_id in self_t if isinstance(inst_id, int)]

    def layer(span):
        return _median(self_t[k].get(span, 0.0) for k in ids)

    outcomes, done = summary["outcomes"], summary["completed"]
    node_cycles = sum(sum(r.node_cycles.values()) for p in first.points for r in p.reports)
    sim_s = layer("sim.run")
    speed = {t: _median(x.wall / x.cal for x in m["runs"][t]) for t in m["runs"]}
    metrics = {name: layer(name[:-2]) for name, (unit, _) in PER_LAYER.items() if unit == "s"}
    metrics.update(
        {
            "oracle.evaluate_s": _median(s for s, _ in m["oracle"]),
            "check.compare_s": _median(x.compare_s for x in m["runs"][True]),
            "pipeline.orders_found": first.counts["orders_found"],
            "pipeline.rejected": first.counts["rejected"],
            "graph.nodes": first.counts["graph_nodes"],
            "graph.edges": first.counts["graph_edges"],
            "heuristic.flops_rel_err": _median(
                abs(p.est_flops - p.flops) / p.flops for p in done if p.flops
            ),
            "heuristic.bytes_rel_err": _median(
                abs(p.est_bytes - p.bytes) / p.bytes for p in done if p.bytes
            ),
            "tensors.restores": first.counts["restores"],
            "sim.node_cycles": node_cycles,
            "sim.node_cycles_per_s": node_cycles / sim_s if sim_s else 0.0,
            "sim.points": summary["attempted"],
            "sim.fail.other": sum(
                n for o, n in outcomes.items() if o != "ok" and o not in NAMED_FAILURES
            ),
            "trace.overhead": speed[True] / speed[False] - 1.0,
            "trace.spans": max(m["span_counts"]),
        }
    )
    for cause in NAMED_FAILURES:
        metrics[f"sim.fail.{cause}"] = outcomes.get(cause, 0)
    return metrics


def main(argv=None, tiny=False) -> int:
    """``tiny`` runs the small variants of the programs (the self-check)."""
    args = _args(argv)
    from spans import calibrate

    before = calibrate()
    import_s = (import_harness(), (before + calibrate()) / 2)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"layerbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    m = measure(wl, args.seed, args.seconds, bool(args.trace), tiny)
    plain, first = m["runs"][False], m["first"]
    summary = summarize(wl, first.points)
    ref = summary["reference"]
    correct = (
        bool(ref)
        and all(p.outcome == "ok" for p in ref)
        and "wrong" not in summary["outcomes"]
        and len(m["digests"]) == 1
        and m["stable_inputs"]
    )
    if args.trace:
        metrics = per_layer(m, summary, first)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        out_dir = ROOT / "layerbench" / "out"
        out_dir.mkdir(exist_ok=True)
        m["traced"].dump(out_dir / f"trace-{wl.name}-{args.seed}.json")
    else:
        metrics = end_to_end(m, summary, import_s)
        units = END_TO_END

    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": sorted(m["digests"]),
        "samples": {
            "setup_rounds": len(m["setup_rounds"]),
            "instances_untraced": len(plain),
            "instances_traced": len(m["runs"][True]),
            "oracle_evaluations": len(m["oracle"]),
        },
        "raw_seconds": {
            "setup_s": import_s[0] + _median(s for s, _ in m["setup_rounds"]),
            "compile_s": _median(x.compile_s for x in plain),
            "run_s": _median(x.wall for x in plain),
            "check_s": _median(s for s, _ in m["oracle"]) + _median(x.compare_s for x in plain),
            "cal_s": _median(x.cal for x in plain),
        },
        "run_s": [round(x.wall, 4) for x in plain],
        "outcomes": summary["outcomes"],
        "fail_frac": summary["failed"] / max(summary["attempted"], 1),
        "rejected": first.counts["rejected"],
        "first_error": summary["first_error"],
    }
    print(json.dumps(details))
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
