"""Pinned simulator counters: a host-speed change to the engine or to the
node processes must leave every modelled number bit-identical.

``tests/golden/sim_counters.json`` holds, for each program in ``PROGRAMS``
and channel depths 1 and 4, each region's ``counters()``, ``node_cycles``
and ``node_flops`` beside the sha256 of its compiled graph's ``to_json()``,
so a compiler change that alters a graph fails here too
(``gcn_2_2_block2``, the blocked GCN fused in two regions, was added after
the others and pins the block edges of inlined producers' indices); and the
outcome class of every ``schedulable_orders`` order of softmax fused into
one region (8x8, 40 %, seed 2: at depth 4, 17 of its 24 orders emit
malformed streams).
The values were taken before the engine became a ready queue.  Regenerate
them only with a change that means to alter the model:
``PYTHONPATH=src python tests/test_sim_golden.py > tests/golden/sim_counters.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from einstream import oracle, sim
from einstream.errors import Deadlock, MalformedStream, RepeatUnderflow
from einstream.frontend import parse_program, validate_program
from einstream.fusion import elaborate_region, resolve_cycles
from einstream.pipeline import (
    compile_region,
    plan_region,
    prepare_region,
    schedulable_orders,
    store,
)

sys.path.insert(0, str(Path(__file__).parent))
from test_pipeline import (  # noqa: E402
    COPY,
    GCN,
    MATMUL,
    SOFTMAX,
    SPMM,
    SPMV,
    _env,
    _inputs,
    gcn_partition,
)

FAILURES = (Deadlock, MalformedStream, RepeatUnderflow)
GOLDEN = Path(__file__).parent / "golden" / "sim_counters.json"
DEPTHS = (1, 4)
PROGRAMS = {
    "spmv": SPMV.format(body="y(i) = A(i, k) * x(k);"),
    "fused_relu": SPMM.format(extra=""),
    "fused_relu_par2": SPMM.format(extra="parallelize(i, 2);"),
    "gcn_block2": GCN,
    "gcn_2_2_block2": gcn_partition((2, 2)),
    "copy": COPY,
    "softmax": SOFTMAX,
    "matmul_order_jik": MATMUL.format(order="order(j, i, k);"),
}
FUSED_SOFTMAX = """
index i = 8; index j = 8;
tensor S(i, j): dense(i) -> compressed(j) order(i, j) input;
fuse {
  R(i) = max(S(i, j));
  Z(i, j) = exp(S(i, j) - R(i));
  D(i) = Z(i, j);
  O(i, j) = Z(i, j) / D(i);
}
"""


def program_counters(src: str, depth: int) -> list[dict]:
    """Each region's report, in region order; later regions read the tensors
    earlier ones stored.  A region that fails ends the list with its error
    class, which is why this walks the regions itself rather than calling
    ``run_program``."""
    vp = validate_program(parse_program(src))
    env = _env(vp, _inputs(vp))
    regions = []
    for r in range(len(vp.regions)):
        cr = plan_region(vp, r)
        graph = hashlib.sha256(cr.graph.to_json().encode()).hexdigest()
        try:
            rep = sim.run(
                cr.graph, prepare_region(vp, cr, env), sim.SimConfig(channel_depth=depth)
            )
        except FAILURES as err:
            regions.append({"graph_sha256": graph, "outcome": type(err).__name__})
            break
        for _, name in cr.ir.outputs:
            env[name] = store(vp, name, rep.outputs[name])
        regions.append(
            {
                "graph_sha256": graph,
                "counters": rep.counters(),
                "node_cycles": rep.node_cycles,
                "node_flops": rep.node_flops,
            }
        )
    return regions


def softmax_outcomes(depth: int) -> dict[str, str]:
    """Outcome class of every schedulable order of the fused softmax."""
    vp = validate_program(parse_program(FUSED_SOFTMAX))
    dense = {"S": oracle.random_dense((8, 8), 0.4, np.random.default_rng(2))}
    want = oracle.evaluate_program(vp, dense)["O"]
    env = _env(vp, dense)
    ir = resolve_cycles(elaborate_region(vp, 0))
    outcomes = {}
    for order in schedulable_orders(vp, ir):
        cr = compile_region(vp, ir, order)
        try:
            rep = sim.run(
                cr.graph, prepare_region(vp, cr, env), sim.SimConfig(channel_depth=depth)
            )
        except FAILURES as err:
            outcome = type(err).__name__
        else:
            got = rep.outputs["O"].to_dense()
            outcome = "ok" if np.allclose(got, want, rtol=1e-9, atol=1e-12) else "wrong"
        outcomes[",".join(order)] = outcome
    return outcomes


def collect() -> dict:
    return {
        "programs": {
            name: {str(d): program_counters(src, d) for d in DEPTHS}
            for name, src in PROGRAMS.items()
        },
        "fused_softmax_outcomes": {str(d): softmax_outcomes(d) for d in DEPTHS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_counters_match_golden(golden, name, depth):
    want = golden["programs"][name][str(depth)]
    assert program_counters(PROGRAMS[name], depth) == want


@pytest.mark.parametrize("depth", DEPTHS)
def test_fused_softmax_outcomes_match_golden(golden, depth):
    assert softmax_outcomes(depth) == golden["fused_softmax_outcomes"][str(depth)]


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
