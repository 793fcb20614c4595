"""Fast self-check of the benchmark harness on the tiny program variants.

Run from the repository root (takes a few seconds)::

    python3 layerbench/selfcheck.py

It checks that ``BENCHMARK.json`` names exactly the metrics and workloads
``run.py`` prints, that two instances on the same inputs give the same
counter digest, that a corrupted output is classified ``wrong``, that
blocked outputs come back in their declared layout, that spans nest, and
that both kinds of run print the last line the benchmark contract asks for.
Exits non-zero on the first failed group of checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

def check_benchmark_json(expect):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END, "end_to_end names and units")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == {n: u for n, (u, _) in run.PER_LAYER.items()}, "per_layer names and units")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds in (0, 0.25]")


def check_harness(expect):
    import harness
    from einstream.frontend import parse_program, validate_program
    from spans import Recorder
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        inputs = run.setup_round(wl, seed=7, tiny=True)
        expect(run.same_inputs(inputs, run.setup_round(wl, seed=7, tiny=True)),
               f"{wl.name}: inputs repeat for a seed")
        rec, other = Recorder(keep=True), Recorder(keep=False)
        a = harness.Runner(wl, inputs, rec, tiny=True).instance(0)
        b = harness.Runner(wl, inputs, other, tiny=True).instance(1)
        refs = harness.references(wl, inputs, other, tiny=True)
        harness.check(a.points, refs, other)
        harness.check(b.points, refs, other)
        expect(harness.digest(a.points) == harness.digest(b.points), f"{wl.name}: digest repeats")
        expect(
            all(p.outcome == "ok" for p in a.points if wl.is_reference(p.program, p.depth)),
            f"{wl.name}: reference points simulate correctly",
        )
        # spans nest inside their parents and self times add up to the root
        for name, start, end, parent, _ in rec.spans:
            if parent is not None:
                _, ps, pe, _, _ = rec.spans[parent]
                expect(ps <= start <= end <= pe, f"{wl.name}: span {name} inside its parent")
        (root,) = [sp for sp in rec.spans if sp[3] is None]
        spent = sum(rec.self_times()[0].values())
        expect(abs(spent - (root[2] - root[1])) < 1e-6, f"{wl.name}: self times add up")
        # a corrupted output must be classified wrong
        ok = next(p for p in b.points if p.outcome == "ok")
        name, t = next(iter(ok.outputs.items()))
        bumped = t.values.copy()
        bumped[0] += 1.0
        ok.outputs[name] = type(t)(t.shape, t.mode_order, t.levels, bumped, t.fill)
        harness.check([ok], refs, other)
        expect(ok.outcome == "wrong", f"{wl.name}: corrupted output detected")
        if wl.name == "gcn_blocked":
            vp = validate_program(parse_program(wl.programs[0].tiny))
            expect(a.counts["restores"] > 0, "gcn_blocked: permuted outputs are re-stored")
            for p in a.points:
                for tname, t in p.outputs.items():
                    expect(
                        t.mode_order == vp.decl(tname).mode_order and not t.is_blocked,
                        f"gcn_blocked: {tname} restored to its declaration",
                    )


def check_output_contract(expect):
    for wl_name, trace in (("gcn_blocked", 0), ("gcn_blocked", 1), ("order_sweep", 1)):
        buf = io.StringIO()
        argv = ["--workload", wl_name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
        with contextlib.redirect_stdout(buf):
            code = run.main(argv, tiny=True)
        last = json.loads(buf.getvalue().strip().splitlines()[-1])
        units = {n: u for n, (u, _) in run.PER_LAYER.items()} if trace else run.END_TO_END
        expect(code == 0, f"{wl_name} trace={trace}: exit code")
        expect(set(last) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(last["correct"] is True and last["attempted"] >= 1, f"{wl_name}: correct")
        expect(list(last["metrics"]) == list(units), f"{wl_name} trace={trace}: metric names")
        for name, m in last["metrics"].items():
            expect(m["unit"] == units[name], f"{name}: unit")
            expect(isinstance(m["value"], (int, float)), f"{name}: numeric value")


def main() -> int:
    run.import_harness()
    failures: list[str] = []

    def expect(cond, what: str) -> None:
        if not cond:
            failures.append(what)

    for group in (check_benchmark_json, check_harness, check_output_contract):
        group(expect)
        if failures:
            print(f"selfcheck: {group.__name__} failed: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"selfcheck: {group.__name__} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
