"""Per-node stream semantics, checked against hand-worked token sequences."""

from __future__ import annotations

import numpy as np
import pytest

from einstream.errors import MalformedStream, RepeatUnderflow
from einstream.graph import DONE, NULL, Stop
from einstream.sim import drive
from einstream.sim.processes import (
    proc_alu,
    proc_crddrop_inner,
    proc_crddrop_outer,
    proc_join,
    proc_map,
    proc_red1,
    proc_reduce,
    proc_repeat,
    proc_scan,
    proc_vals,
)
from einstream.tensors import COMPRESSED, DENSE, LevelSpec, SparseTensor

S0, S1 = Stop(0), Stop(1)

B = SparseTensor.from_dense(
    np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]]),
    [LevelSpec(COMPRESSED), LevelSpec(COMPRESSED)],
)


def test_scan_top_level():
    out = drive(proc_scan, {"ref": [0, DONE]}, B, 0, 0)
    assert out["crd"] == [0, 1, DONE]
    assert out["ref"] == [0, 1, DONE]


def test_scan_inner_level_merges_boundaries():
    out = drive(proc_scan, {"ref": [0, 1, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S0, 1, DONE]
    assert out["ref"] == [0, 1, S0, 2, DONE]


def test_scan_empty_fiber_shows_adjacent_stops():
    t = SparseTensor.from_dense(
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]),
        [LevelSpec(DENSE), LevelSpec(COMPRESSED)],
    )
    out = drive(proc_scan, {"ref": [0, 1, 2, DONE]}, t, 1, 0)
    assert out["crd"] == [0, S0, S0, 1, DONE]


def test_scan_null_ref_is_empty_fiber():
    out = drive(proc_scan, {"ref": [0, NULL, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S0, DONE]


def test_scan_forwards_parent_stops_one_deeper():
    out = drive(proc_scan, {"ref": [0, S0, 1, DONE]}, B, 1, 0)
    assert out["crd"] == [0, 2, S1, 1, DONE]


def test_vals_lookup_and_null_fill():
    out = drive(proc_vals, {"ref": [0, 1, S0, NULL, DONE]}, B, 0)
    assert out["val"] == [2.0, 3.0, S0, 0.0, DONE]


def test_repeat_basic():
    out = drive(
        proc_repeat,
        {"data": [10, 20, DONE], "ctrl": [5, 6, S0, 7, DONE]},
    )
    assert out["out"] == [10, 10, S0, 20, DONE]


def test_repeat_skips_element_for_empty_control_group():
    out = drive(
        proc_repeat,
        {"data": [10, 20, 30, DONE], "ctrl": [5, S0, S0, 7, DONE]},
    )
    assert out["out"] == [10, S0, S0, 30, DONE]


def test_repeat_control_stop_consumes_data_fiber():
    out = drive(
        proc_repeat,
        {"data": [10, S0, 20, DONE], "ctrl": [1, 2, S1, 3, DONE]},
    )
    assert out["out"] == [10, 10, S1, 20, DONE]


def test_repeat_underflow():
    with pytest.raises(RepeatUnderflow):
        drive(proc_repeat, {"data": [10, DONE], "ctrl": [5, S0, 6, DONE]})


def test_intersect_two_fibers():
    out = drive(
        proc_join,
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
        proc_join,
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
        proc_join,
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
        proc_join,
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
        proc_alu,
        {"in0": [2.0, S0, 3.0, DONE], "in1": [4.0, S0, 5.0, DONE]},
        "mul",
        None,
    )
    assert out["out"] == [8.0, S0, 15.0, DONE]


def test_alu_div_zero_numerator_is_zero():
    out = drive(proc_alu, {"in0": [0.0, DONE], "in1": [0.0, DONE]}, "div", None)
    assert out["out"] == [0.0, DONE]


def test_alu_div_by_a_zero_divisor_is_zero():
    # a stored divisor can map to 0, e.g. relu of a negative entry
    out = drive(proc_alu, {"in0": [6.0, 2.0, DONE], "in1": [3.0, 0.0, DONE]}, "div", None)
    assert out["out"] == [2.0, 0.0, DONE]


def test_alu_block_div_is_zero_where_either_side_is_zero():
    spec = {"mode": "ew", "out_ndim": 2, "bmap0": (0, 1), "bmap1": (0, 1), "flops": 4}
    a = np.array([[6.0, 0.0], [2.0, 1.0]])
    d = np.array([[3.0, 5.0], [0.0, 0.0]])
    out = drive(proc_alu, {"in0": [a, DONE], "in1": [d, DONE]}, "div", spec)
    np.testing.assert_array_equal(out["out"][0], [[2.0, 0.0], [0.0, 0.0]])


def test_alu_detects_desync():
    with pytest.raises(MalformedStream):
        drive(
            proc_alu,
            {"in0": [1.0, 2.0, DONE], "in1": [1.0, S0, 2.0, DONE]},
            "add",
            None,
        )


def test_map_stored_entry_semantics():
    out = drive(proc_map, {"in": [0.0, 1.0, DONE]}, "exp")
    assert out["out"][0] == 0.0
    assert out["out"][1] == pytest.approx(np.e)


def test_reduce_sum_per_fiber():
    out = drive(
        proc_reduce,
        {"in": [1.0, 2.0, S0, 5.0, S1, 7.0, DONE]},
        "sum",
        (),
        None,
    )
    assert out["out"] == [3.0, 5.0, S0, 7.0, DONE]


def test_reduce_empty_fiber_emits_fill():
    out = drive(proc_reduce, {"in": [S0, 4.0, DONE]}, "sum", (), None)
    assert out["out"] == [0.0, 4.0, DONE]


def test_reduce_max_keeps_negative_values():
    out = drive(proc_reduce, {"in": [-5.0, -2.0, DONE]}, "max", (), None)
    assert out["out"] == [-2.0, DONE]


def test_red1_merges_sibling_fibers():
    out = drive(
        proc_red1,
        {
            "crd": [0, 2, S0, 1, 2, S1, 0, DONE],
            "val": [1.0, 2.0, S0, 3.0, 4.0, S1, 5.0, DONE],
        },
    )
    assert out["crd"] == [0, 1, 2, S0, 0, DONE]
    assert out["val"] == [1.0, 3.0, 6.0, S0, 5.0, DONE]


def test_crddrop_inner_drops_zero_values():
    out = drive(
        proc_crddrop_inner,
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
        proc_crddrop_outer,
        {"outer": [0, 1, DONE], "inner": [5, S0, DONE]},
    )
    assert out["outer"] == [0, DONE]
    assert out["inner"] == [5, DONE]


def test_crddrop_outer_keeps_separators_between_kept_groups():
    out = drive(
        proc_crddrop_outer,
        {"outer": [0, 1, 2, DONE], "inner": [5, S0, S0, 6, DONE]},
    )
    assert out["outer"] == [0, 2, DONE]
    assert out["inner"] == [5, S0, 6, DONE]


def test_crddrop_outer_forwards_higher_stops():
    out = drive(
        proc_crddrop_outer,
        {"outer": [0, S0, 1, DONE], "inner": [5, S1, 6, DONE]},
    )
    assert out["outer"] == [0, S0, 1, DONE]
    assert out["inner"] == [5, S1, 6, DONE]


def test_crddrop_outer_absorbs_boundary_of_dropped_trailing_group():
    # second enclosure's only group is empty: its coordinate disappears and
    # the enclosure boundary survives as the merged stop
    out = drive(
        proc_crddrop_outer,
        {"outer": [0, S0, 1, S0, 2, DONE], "inner": [5, S1, S1, 6, DONE]},
    )
    assert out["outer"] == [0, S0, S0, 2, DONE]
    assert out["inner"] == [5, S1, S1, 6, DONE]


# --- per-node timing and accounting ----------------------------------------


def test_scan_charges_latency_per_fiber_and_a_tick_per_coordinate():
    out = drive(proc_scan, {"ref": [0, 1, DONE]}, B, 1, 4)
    assert out["clock"] == (4 + 2) + (4 + 1)
    # segments 0..2 and coordinates 0..2, 4 bytes each
    assert out["bytes_read"] == 24
    assert out["flops"] is None


def test_scan_touches_each_address_once():
    out = drive(proc_scan, {"ref": [0, 0, DONE]}, B, 1, 4)
    assert out["crd"] == [0, 2, S0, 0, 2, DONE]
    assert out["clock"] == 2 * (4 + 2)
    assert out["bytes_read"] == 16  # segments 0, 1 and coordinates 0, 1


def test_vals_latency_per_fiber_and_value_bytes():
    out = drive(proc_vals, {"ref": [0, 1, S0, NULL, DONE]}, B, 3)
    assert out["clock"] == (3 + 2) + (3 + 1)
    assert out["bytes_read"] == 16  # the fill value is not read


def test_alu_counts_one_flop_and_tick_per_element():
    out = drive(
        proc_alu,
        {"in0": [2.0, S0, 3.0, NULL, DONE], "in1": [4.0, S0, 5.0, 1.0, DONE]},
        "mul",
        None,
    )
    assert (out["clock"], out["flops"]) == (3, 3)


def test_alu_without_elements_accounts_no_flops():
    out = drive(proc_alu, {"in0": [S0, DONE], "in1": [S0, DONE]}, "add", None)
    assert (out["clock"], out["flops"]) == (0, None)


def test_map_on_an_empty_block_accounts_zero_flops():
    out = drive(proc_map, {"in": [np.zeros((2, 2)), DONE]}, "relu")
    assert (out["clock"], out["flops"]) == (1, 0)
