"""Per-node stream semantics, checked against hand-worked token sequences."""

from __future__ import annotations

import re

import numpy as np
import pytest

from einstream.errors import MalformedStream, RepeatUnderflow
from einstream.graph import DONE, NULL, Stop, node_ports
from einstream.sim.processes import (
    TICK,
    NodeRun,
    block_op,
    run_alu,
    run_crddrop_inner,
    run_crddrop_outer,
    run_join,
    run_map,
    run_red1,
    run_reduce,
    run_repeat,
    run_scan,
    run_vals,
    scalar_op,
)
from einstream.tensors import COMPRESSED, DENSE, LevelSpec, SparseTensor

KIND = {
    run_scan: "scan",
    run_vals: "vals",
    run_join: "intersect",
    run_repeat: "repeat",
    run_alu: "alu",
    run_map: "map",
    run_reduce: "reduce",
    run_red1: "red1",
    run_crddrop_inner: "crddrop",
    run_crddrop_outer: "crddrop",
}


def drive(fn, inputs: dict[str, list], *args) -> dict:
    """Run node function ``fn(run, *args)`` on scripted token lists.

    Returns output port -> emitted tokens, plus the node's ``clock`` (its
    ticks), ``flops`` (None if it accounted none) and ``bytes_read``.  A
    read past the end of a scripted list fails the test.  Tokens have no
    arrival time here, so the clock counts only the node's own work and
    latency.
    """
    ins, outs = node_ports(KIND[fn], {})
    run = NodeRun(inputs, outs)
    try:
        fn(run, *args)
    except StopIteration:
        raise AssertionError("node read past its scripted input") from None
    for code, port in enumerate(ins):
        if run.trace.count(code) > len(inputs[port]):
            raise AssertionError(f"node read past scripted input {port!r}")
    return {
        **run.outs,
        "clock": run.trace.count(TICK),
        "flops": run.flops,
        "bytes_read": run.bytes_read,
    }


S0, S1 = Stop(0), Stop(1)

B = SparseTensor.from_dense(
    np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]),
    [LevelSpec(COMPRESSED), LevelSpec(COMPRESSED)],
)


def test_scan_top_level():
    out = drive(run_scan, {"ref": [0, DONE]}, B, 0, 0)
    assert out["crd"] == [0, 1, DONE]
    assert out["ref"] == [0, 1, DONE]


def test_scan_inner_level_merges_boundaries():
    out = drive(run_scan, {"ref": [0, 1, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S0, 1, DONE]
    assert out["ref"] == [0, 1, S0, 2, DONE]


def test_scan_empty_fiber_shows_adjacent_stops():
    t = SparseTensor.from_dense(
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]),
        [LevelSpec(DENSE), LevelSpec(COMPRESSED)],
    )
    out = drive(run_scan, {"ref": [0, 1, 2, DONE]}, t, 1, 0)
    assert out["crd"] == [0, S0, S0, 1, DONE]


def test_scan_null_ref_is_empty_fiber():
    out = drive(run_scan, {"ref": [0, NULL, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S0, DONE]


def test_scan_forwards_parent_stops_one_deeper():
    out = drive(run_scan, {"ref": [0, S0, 1, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S1, 1, DONE]


def test_vals_lookup_and_null_fill():
    out = drive(run_vals, {"ref": [0, 1, S0, NULL, DONE]}, B, 0)
    assert out["val"] == [2.0, 3.0, S0, 0.0, DONE]


def test_repeat_basic():
    out = drive(
        run_repeat,
        {"data": [10, 20, DONE], "ctrl": [5, 6, S0, 7, DONE]},
    )
    assert out["out"] == [10, 10, S0, 20, DONE]


def test_repeat_skips_element_for_empty_control_group():
    out = drive(
        run_repeat,
        {"data": [10, 20, 30, DONE], "ctrl": [5, S0, S0, 7, DONE]},
    )
    assert out["out"] == [10, S0, S0, 30, DONE]


def test_repeat_control_stop_consumes_data_fiber():
    out = drive(
        run_repeat,
        {"data": [10, S0, 20, DONE], "ctrl": [1, 2, S1, 3, DONE]},
    )
    assert out["out"] == [10, 10, S1, 20, DONE]


def test_repeat_underflow():
    with pytest.raises(RepeatUnderflow):
        drive(run_repeat, {"data": [10, DONE], "ctrl": [5, S0, 6, DONE]})


def test_intersect_two_fibers():
    out = drive(
        run_join,
        {
            "crd0": [0, 2, 3, S0, 1, DONE],
            "p0": ["a0", "a1", "a2", S0, "a3", DONE],
            "crd1": [2, 3, S0, 0, 1, DONE],
            "p1": ["b0", "b1", S0, "b2", "b3", DONE],
        },
        "intersect",
    )
    assert out["crd"] == [2, 3, S0, 1, DONE]
    assert out["p0"] == ["a1", "a2", S0, "a3", DONE]
    assert out["p1"] == ["b0", "b1", S0, "b3", DONE]


def test_intersect_empty_result_fiber():
    out = drive(
        run_join,
        {
            "crd0": [0, S0, 1, DONE],
            "p0": ["a0", S0, "a1", DONE],
            "crd1": [1, S0, 1, DONE],
            "p1": ["b0", S0, "b1", DONE],
        },
        "intersect",
    )
    assert out["crd"] == [S0, 1, DONE]


def test_union_pads_missing_side_with_null():
    out = drive(
        run_join,
        {
            "crd0": [0, 2, S0, 1, DONE],
            "p0": ["a0", "a1", S0, "a2", DONE],
            "crd1": [1, 2, S0, 2, DONE],
            "p1": ["b0", "b1", S0, "b2", DONE],
        },
        "union",
    )
    assert out["crd"] == [0, 1, 2, S0, 1, 2, DONE]
    assert out["p0"] == ["a0", NULL, "a1", S0, "a2", NULL, DONE]
    assert out["p1"] == [NULL, "b0", "b1", S0, NULL, "b2", DONE]


def test_union_drains_after_one_side_finishes():
    out = drive(
        run_join,
        {
            "crd0": [5, DONE],
            "p0": ["a0", DONE],
            "crd1": [3, S0, 4, DONE],
            "p1": ["b0", S0, "b1", DONE],
        },
        "union",
    )
    assert out["crd"] == [3, 5, S0, 4, DONE]
    assert out["p0"] == [NULL, "a0", S0, NULL, DONE]
    assert out["p1"] == ["b0", NULL, S0, "b1", DONE]


def test_alu_mul_and_stop_sync():
    out = drive(
        run_alu,
        {"in0": [2.0, S0, 3.0, DONE], "in1": [4.0, S0, 5.0, DONE]},
        scalar_op("mul"),
        1,
    )
    assert out["out"] == [8.0, S0, 15.0, DONE]


def test_alu_div_zero_numerator_is_zero():
    out = drive(run_alu, {"in0": [0.0, DONE], "in1": [0.0, DONE]}, scalar_op("div"), 1)
    assert out["out"] == [0.0, DONE]


def test_alu_div_by_a_zero_divisor_is_zero():
    # a stored divisor can map to 0, e.g. relu of a negative entry
    out = drive(run_alu, {"in0": [6.0, 2.0, DONE], "in1": [3.0, 0.0, DONE]}, scalar_op("div"), 1)
    assert out["out"] == [2.0, 0.0, DONE]


def test_alu_block_div_is_zero_where_either_side_is_zero():
    spec = {"mode": "ew", "out_ndim": 2, "bmap0": (0, 1), "bmap1": (0, 1), "flops": 4}
    a = np.array([[6.0, 0.0], [2.0, 1.0]])
    d = np.array([[3.0, 5.0], [0.0, 0.0]])
    out = drive(run_alu, {"in0": [a, DONE], "in1": [d, DONE]}, block_op("div", spec), spec["flops"])
    np.testing.assert_array_equal(out["out"][0], [[2.0, 0.0], [0.0, 0.0]])


def test_alu_detects_desync():
    with pytest.raises(MalformedStream):
        drive(
            run_alu,
            {"in0": [1.0, 2.0, DONE], "in1": [1.0, S0, 2.0, DONE]},
            scalar_op("add"),
            1,
        )


def test_map_stored_entry_semantics():
    out = drive(run_map, {"in": [0.0, 1.0, DONE]}, "exp")
    assert out["out"][0] == 0.0
    assert out["out"][1] == pytest.approx(np.e)


def test_reduce_sum_per_fiber():
    out = drive(
        run_reduce,
        {"in": [1.0, 2.0, S0, 5.0, S1, 7.0, DONE]},
        "sum",
        (),
        None,
    )
    assert out["out"] == [3.0, 5.0, S0, 7.0, DONE]


def test_reduce_empty_fiber_emits_fill():
    out = drive(run_reduce, {"in": [S0, 4.0, DONE]}, "sum", (), None)
    assert out["out"] == [0.0, 4.0, DONE]


def test_reduce_max_keeps_negative_values():
    out = drive(run_reduce, {"in": [-5.0, -2.0, DONE]}, "max", (), None)
    assert out["out"] == [-2.0, DONE]


def test_red1_merges_sibling_fibers():
    out = drive(
        run_red1,
        {
            "crd": [0, 2, S0, 1, 2, S1, 0, DONE],
            "val": [1.0, 2.0, S0, 3.0, 4.0, S1, 5.0, DONE],
        },
    )
    assert out["crd"] == [0, 1, 2, S0, 0, DONE]
    assert out["val"] == [1.0, 3.0, 6.0, S0, 5.0, DONE]


def test_crddrop_inner_drops_zero_values():
    out = drive(
        run_crddrop_inner,
        {
            "outer": [0, 1, 2, S0, 3, DONE],
            "inner": [1.0, 0.0, 2.0, S0, 0.0, DONE],
        },
    )
    assert out["outer"] == [0, 2, S0, DONE]
    assert out["inner"] == [1.0, 2.0, S0, DONE]


def test_crddrop_outer_drops_coordinate_of_empty_group():
    # rows 0 and 1; row 1's inner group was emptied upstream
    out = drive(
        run_crddrop_outer,
        {"outer": [0, 1, DONE], "inner": [5, S0, DONE]},
    )
    assert out["outer"] == [0, DONE]
    assert out["inner"] == [5, DONE]


def test_crddrop_outer_keeps_separators_between_kept_groups():
    out = drive(
        run_crddrop_outer,
        {"outer": [0, 1, 2, DONE], "inner": [5, S0, S0, 6, DONE]},
    )
    assert out["outer"] == [0, 2, DONE]
    assert out["inner"] == [5, S0, 6, DONE]


def test_crddrop_outer_forwards_higher_stops():
    out = drive(
        run_crddrop_outer,
        {"outer": [0, S0, 1, DONE], "inner": [5, S1, 6, DONE]},
    )
    assert out["outer"] == [0, S0, 1, DONE]
    assert out["inner"] == [5, S1, 6, DONE]


def test_crddrop_outer_absorbs_boundary_of_dropped_trailing_group():
    # second enclosure's only group is empty: its coordinate disappears and
    # the enclosure boundary survives as the merged stop
    out = drive(
        run_crddrop_outer,
        {"outer": [0, S0, 1, S0, 2, DONE], "inner": [5, S1, S1, 6, DONE]},
    )
    assert out["outer"] == [0, S0, S0, 2, DONE]
    assert out["inner"] == [5, S1, S1, 6, DONE]


@pytest.mark.parametrize(
    "fn, args, inputs, error, message",
    [
        (run_join, ("intersect",), {"crd0": [S0, DONE], "p0": [0, DONE],
                                    "crd1": [0, DONE], "p1": [0, DONE]},
         MalformedStream, "crd0/p0 desynchronized: S0 vs 0"),
        (run_join, ("intersect",), {"crd0": [0, DONE], "p0": [0, DONE],
                                    "crd1": [1, DONE], "p1": [DONE]},
         MalformedStream, "crd1/p1 desynchronized: 1 vs Done"),
        (run_join, ("intersect",), {"crd0": [S0, DONE], "p0": [S0, DONE],
                                    "crd1": [S1, DONE], "p1": [S1, DONE]},
         MalformedStream, "join saw S0 against S1"),
        (run_repeat, (), {"data": [10, DONE], "ctrl": [5, S1, S0, DONE]},
         RepeatUnderflow, "control group after data finished"),
        (run_repeat, (), {"data": [S0, DONE], "ctrl": [S0, DONE]},
         RepeatUnderflow, "data fiber has fewer elements than control has groups"),
        (run_repeat, (), {"data": [10, S1, DONE], "ctrl": [5, S1, DONE]},
         MalformedStream, "repeat: control S1 against data S1"),
        (run_repeat, (), {"data": [10, DONE], "ctrl": [5, S1, 6, DONE]},
         RepeatUnderflow, "control token after data finished"),
        (run_red1, (), {"crd": [S0, DONE], "val": [1.0, DONE]},
         MalformedStream, "red1 inputs desynchronized: S0 vs 1.0"),
        (run_red1, (), {"crd": [0, DONE], "val": [S0, DONE]},
         MalformedStream, "red1 value stream desynchronized"),
        (run_crddrop_outer, (), {"outer": [S0, DONE], "inner": [5, DONE]},
         MalformedStream, "crddrop outer stream early boundary S0"),
        (run_crddrop_outer, (), {"outer": [0, 1, DONE], "inner": [5, S1, DONE]},
         MalformedStream, "crddrop expected S0, got 1"),
    ],
    ids=[
        "join_side0_desync", "join_side1_desync", "join_unequal_stops",
        "repeat_group_after_data", "repeat_short_data_fiber", "repeat_stop_levels",
        "repeat_token_after_data", "red1_crd_boundary", "red1_val_boundary",
        "crddrop_outer_early_boundary", "crddrop_outer_wrong_stop",
    ],
)
def test_loops_reject_malformed_streams(fn, args, inputs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        drive(fn, inputs, *args)


# --- per-node timing and accounting ----------------------------------------


def test_scan_charges_latency_per_fiber_and_a_tick_per_coordinate():
    out = drive(run_scan, {"ref": [0, 1, DONE]}, B, 1, 4)
    assert out["clock"] == (4 + 2) + (4 + 1)
    # segments 0..2 and coordinates 0..2, 4 bytes each
    assert out["bytes_read"] == 24
    assert out["flops"] is None


def test_scan_touches_each_address_once():
    out = drive(run_scan, {"ref": [0, 0, DONE]}, B, 1, 4)
    assert out["crd"] == [0, 2, S0, 0, 2, DONE]
    assert out["clock"] == 2 * (4 + 2)
    assert out["bytes_read"] == 16  # segments 0, 1 and coordinates 0, 1


def test_vals_latency_per_fiber_and_value_bytes():
    out = drive(run_vals, {"ref": [0, 1, S0, NULL, DONE]}, B, 3)
    assert out["clock"] == (3 + 2) + (3 + 1)
    assert out["bytes_read"] == 16  # the fill value is not read


def test_alu_counts_one_flop_and_tick_per_element():
    out = drive(
        run_alu,
        {"in0": [2.0, S0, 3.0, NULL, DONE], "in1": [4.0, S0, 5.0, 1.0, DONE]},
        scalar_op("mul"),
        1,
    )
    assert (out["clock"], out["flops"]) == (3, 3)


def test_alu_without_elements_accounts_no_flops():
    out = drive(run_alu, {"in0": [S0, DONE], "in1": [S0, DONE]}, scalar_op("add"), 1)
    assert (out["clock"], out["flops"]) == (0, None)


def test_map_on_an_empty_block_accounts_zero_flops():
    out = drive(run_map, {"in": [np.zeros((2, 2)), DONE]}, "relu")
    assert (out["clock"], out["flops"]) == (1, 0)
