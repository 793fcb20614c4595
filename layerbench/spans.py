"""Spans at the layer boundaries the harness calls into, and the
calibration kernel host times are expressed in.

The harness wraps every call into an einstream layer in ``rec.span(name)``.
A ``Recorder`` always sums seconds per span name for the current instance
(that is all the untraced, end-to-end runs need).  With ``keep=True`` it
also keeps each span -- name, start, end, parent span and instance id -- in
memory, to be written out when the run ends and turned into per-layer self
time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self, keep: bool):
        self.keep = keep
        self.spans: list = []  # (name, start, end, parent index, instance id)
        self.totals: dict = defaultdict(float)
        self.instance = None
        self._open: list[int] = []

    def begin(self, instance) -> None:
        """Start a new instance: totals restart, span ids keep counting."""
        self.instance = instance
        self.totals = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        if self.keep:
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.totals[name] += end - start
            if self.keep:
                self._open.pop()
                self.spans[sid] = (name, start, end, parent, self.instance)

    def self_times(self) -> dict:
        """Per instance, seconds per span name not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, inst) in enumerate(self.spans):
            out[inst][name] += end - start - child[sid]
        return out

    def dump(self, path) -> None:
        rows = [
            {"id": sid, "name": n, "start": s, "end": e, "parent": p, "instance": i}
            for sid, (n, s, e, p, i) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# kernel seconds that one reference second stands for: the kernel's time on
# a quiet core of the 2-vCPU machine the benchmark was tuned on
REF_CAL_S = 0.003


def _kernel(n: int = 20000) -> int:
    """Interpreter-bound loop: generator sends, tuples and dict stores, the
    operations the simulator and the oracle spend their time in."""

    def gen():
        x = 0
        while True:
            x += yield x

    g = gen()
    next(g)
    d = {}
    acc = 0
    for i in range(n):
        acc += g.send(i & 7)
        d[i & 255] = (acc, i)
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now: median of three runs."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Wall time of one instance and the kernel time that goes with it.

    ``lap()`` is called between simulation points; it runs the calibration
    kernel once ``every`` seconds have passed since the last run.  Kernel
    runs are left out of the wall time, and the kernel time of the instance
    is the average over its segments weighted by their length, so that
    ``wall / cal`` sums each segment in the units of its own machine speed.
    """

    def __init__(self, every: float = 0.5):
        self.every = every

    def start(self) -> None:
        self.last_cal = calibrate()
        self.segments: list = []  # (seconds, kernel seconds across it)
        self._mark = perf_counter()

    def lap(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now - self._mark >= self.every:
            cal = calibrate()
            self.segments.append((now - self._mark, (self.last_cal + cal) / 2))
            self.last_cal = cal
            self._mark = perf_counter()

    def stop(self) -> tuple[float, float]:
        """Returns (wall seconds, kernel seconds)."""
        self.lap(force=True)
        wall = sum(d for d, _ in self.segments)
        return wall, wall / sum(d / c for d, c in self.segments)
