"""The summary of ``tools/bench_pairs.py``, on fixed last lines."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _lines(**metrics):
    """One last line per index of the equal-length value lists."""
    n = len(next(iter(metrics.values())))
    return [
        {"correct": True, "metrics": {k: {"value": v[i], "unit": "u"} for k, v in metrics.items()}}
        for i in range(n)
    ]


PARENT = [0.20, 0.21, 0.22, 0.20, 0.21, 0.22, 0.20, 0.21, 0.22, 0.21]


def test_nine_wins_and_separated_medians_are_a_gain():
    change = [0.16] * 9 + [0.22]  # the last pair loses to the parent's 0.21
    got = bench_pairs.summarize(_lines(compile_s=PARENT), _lines(compile_s=change))["compile_s"]
    assert got["better"] == "lower" and got["wins"] == 9 and got["pairs"] == 10
    assert got["parent"] == pytest.approx({"q1": 0.2025, "median": 0.21, "q3": 0.2175})
    assert got["change"]["median"] == 0.16
    assert got["gain"]


@pytest.mark.parametrize(
    "change, wins",
    [
        ([0.16] * 8 + [0.22, 0.22], 8),  # too few wins
        ([0.20, 0.21] + [0.16] * 8, 8),  # two ties, which count for neither side
        ([0.205] * 10, 7),  # medians closer than the parent's quartile spread
    ],
    ids=["eight_wins", "ties", "inside_the_spread"],
)
def test_no_gain(change, wins):
    got = bench_pairs.summarize(_lines(compile_s=PARENT), _lines(compile_s=change))["compile_s"]
    assert got["wins"] == wins and not got["gain"]


def test_ok_frac_is_better_higher():
    parent, change = _lines(ok_frac=[0.4] * 10), _lines(ok_frac=[0.5] * 10)
    got = bench_pairs.summarize(parent, change)["ok_frac"]
    assert got["better"] == "higher" and got["wins"] == 10 and got["gain"]
    assert not bench_pairs.summarize(change, parent)["ok_frac"]["gain"]


def test_one_pair_has_its_value_as_every_quartile():
    got = bench_pairs.summarize(_lines(run_s=[2.0]), _lines(run_s=[1.0]))["run_s"]
    assert got["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert got["wins"] == 1 and got["gain"]


def _runs(*digests):
    """One run per digest list, alternating sides as the tool runs them."""
    return [{"pair": n // 2, "side": ("parent", "change")[n % 2], "digest": d}
            for n, d in enumerate(digests)]


def test_one_digest_on_every_run_is_the_same_digest():
    got = bench_pairs.digests(_runs(["ab"], ["ab"], ["ab"], ["ab"]))
    assert got == {"digests": {"parent": ["ab"], "change": ["ab"]}, "same_digest": True}


@pytest.mark.parametrize(
    "runs, sides",
    [
        (_runs(["ab"], ["cd"]), {"parent": ["ab"], "change": ["cd"]}),
        (_runs(["ab"], ["ab"], ["ab"], ["ab", "cd"]), {"parent": ["ab"], "change": ["ab", "cd"]}),
        (_runs(["cd", "ab"], ["ab", "cd"]), {"parent": ["ab", "cd"], "change": ["ab", "cd"]}),
    ],
    ids=["sides_differ", "one_run_differs_within", "two_digests_each"],
)
def test_digests_that_differ_are_not_the_same(runs, sides):
    got = bench_pairs.digests(runs)
    assert got == {"digests": sides, "same_digest": False}
