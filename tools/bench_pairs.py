"""Alternating benchmark pairs of two checkouts, and whether a gain holds.

Run from the repository root::

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload order_sweep \\
        --seed 7 --seconds 35 --pairs 10 --out BENCH_name.json

Each pair runs ``layerbench/run.py --trace 0`` once in each checkout, one
after the other; even pairs run the parent first, odd pairs the change.
The output file holds the command, whether every run of each side was
correct, each run's counter digest (from its first line, the details) and
last line, per side the set of digests, ``same_digest`` (every run of both
sides printed one digest, the same one), and per end-to-end metric each
side's median and quartiles, the change's wins (a pair where the change
reads better; ties count for neither) and ``gain``:
the change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's quartile spread.  Nothing but
``layerbench/`` is read from either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HIGHER_IS_BETTER = {"ok_frac"}  # every other end-to-end metric is better lower


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    """The digests of the first line and the last line of one untraced
    benchmark run in ``checkout``."""
    cmd = [sys.executable, "layerbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {checkout}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0])["digest"], json.loads(lines[-1])


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def digests(runs: list) -> dict:
    """Per side the sorted digests its runs printed, and ``same_digest``."""
    by_side: dict[str, set] = {}
    for run in runs:
        by_side.setdefault(run["side"], set()).update(run["digest"])
    every = set().union(*by_side.values())
    return {
        "digests": {side: sorted(d) for side, d in by_side.items()},
        "same_digest": len(every) == 1 and all(len(run["digest"]) == 1 for run in runs),
    }


def summarize(parent: list, change: list) -> dict:
    """Per metric of the runs' last lines, paired by index."""
    out = {}
    for name in parent[0]["metrics"]:
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1.0 if name in HIGHER_IS_BETTER else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        out[name] = {
            "better": "higher" if sign > 0 else "lower",
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "wins": wins,
            "pairs": len(p),
            "gain": 10 * wins >= 9 * len(p) and sign * (cm - pm) > p3 - p1,
        }
    return out


def main(argv=None) -> int:
    args = _args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            digest, last = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs.append({"pair": pair, "side": side, "digest": digest, "last": last})
            print(f"pair {pair} {side}: correct {last['correct']}", file=sys.stderr)
    by_side = {s: [r["last"] for r in runs if r["side"] == s] for s in sides}
    report = {
        "command": ["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": {s: all(last["correct"] for last in by_side[s]) for s in sides},
        **digests(runs),
        "runs": runs,
        "summary": summarize(by_side["parent"], by_side["change"]),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
