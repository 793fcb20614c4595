"""Workload definitions: program texts, input generation and sweep shape.

Every workload is a list of programs in the einstream text format plus the
schedule knobs the harness applies from outside the package.  Each program
has a ``tiny`` variant with the same structure at small extents; the
warm-up and the self-check run those.

Why each workload exists (see also ``BENCHMARK.json``):

* ``spmm_fused`` -- ``Y = relu(A*X + b)`` in one ``fuse{}`` region at 128^3.
  One small graph that streams many scalar tokens, so the simulator engine
  and the dense oracle dominate; compile and host prep are under 5 %.
* ``gcn_blocked`` -- a 2-layer GCN as four unfused regions with
  ``block(4, 4)``.  Tokens carry 4x4 arrays (fewer, heavier engine steps),
  and every intermediate is written, re-stored and re-blocked, so the host
  tensor layers carry a real share of the time.  The dense weights let the
  order search put the weight index outermost, so ``H1`` and ``Out`` come
  back in loop order and must be permuted (``tensors.restores``).
* ``order_sweep`` -- small fused programs at every order the lowering
  accepts, channel depths 1 and 4, six data seeds.  Many tiny graphs, so
  order search, lowering and the cost model matter; it also carries the
  correctness gap (orders that deadlock or emit malformed streams).  Which
  softmax orders pass depends on the sparsity pattern, so the share of
  passing points moves with the data; six data seeds keep its spread over
  seeds near 10 % (three gave about 17 %).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SPMM = """
index i = {n}; index k = {n}; index j = {n};
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, j): dense(k) -> compressed(j) order(k, j) input;
tensor b(i, j): dense(i) -> compressed(j) order(i, j) input;
fuse {{
  Y(i, j) = relu(A(i, k) * X(k, j) + b(i, j));
}}
"""

GCN_UNFUSED = """
index i = {n}; index k = {n}; index f = {f}; index h = {h}; index c = {c};
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, f): dense(k) -> compressed(f) order(k, f) input;
tensor W1(f, h): dense(f) -> dense(h) order(f, h) input;
tensor W2(h, c): dense(h) -> dense(c) order(h, c) input;
T1(i, f) = A(i, k) * X(k, f);
H1(i, h) = relu(T1(i, f) * W1(f, h));
T2(i, h) = A(i, k) * H1(k, h);
Out(i, c) = T2(i, h) * W2(h, c);
block(4, 4);
"""

GCN_FUSED = """
index i = {n}; index k = {n}; index f = {f}; index h = {h}; index c = {c};
tensor A(i, k): dense(i) -> compressed(k) order(i, k) input;
tensor X(k, f): dense(k) -> compressed(f) order(k, f) input;
tensor W1(f, h): dense(f) -> compressed(h) order(f, h) input;
tensor W2(h, c): dense(h) -> compressed(c) order(h, c) input;
fuse {{
  T1(i, f) = A(i, k) * X(k, f);
  H1(i, h) = relu(T1(i, f) * W1(f, h));
  T2(i, h) = A(i, k) * H1(k, h);
  Out(i, c) = T2(i, h) * W2(h, c);
}}
"""

SOFTMAX = """
index i = {n}; index j = {n};
tensor S(i, j): dense(i) -> compressed(j) order(i, j) input;
fuse {{
  R(i) = max(S(i, j));
  Z(i, j) = exp(S(i, j) - R(i));
  D(i) = Z(i, j);
  O(i, j) = Z(i, j) / D(i);
}}
"""

ATTENTION = """
index i = {q}; index j = {k}; index d = {d};
tensor M(i, j): dense(i) -> compressed(j) order(i, j) input;
tensor Q(i, d): dense(i) -> dense(d) order(i, d) input;
tensor K(j, d): dense(j) -> dense(d) order(j, d) input;
tensor V(j, d): dense(j) -> dense(d) order(j, d) input;
fuse {{
  S(i, j) = M(i, j) * Q(i, d) * K(j, d);
  R(i) = max(S(i, j));
  Z(i, j) = exp(S(i, j) - R(i));
  D(i) = Z(i, j);
  P(i, j) = Z(i, j) / D(i);
  O(i, d) = P(i, j) * V(j, d);
}}
"""


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    densities: dict  # input tensor -> fraction of stored entries
    tiny: str  # same program at small extents

    def source(self, tiny: bool) -> str:
        return self.tiny if tiny else self.text


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    depths: tuple = (4,)
    data_seeds: int = 1
    sweep: bool = False  # every accepted order, else the first one
    # points whose counters feed the end-to-end cycles/flops/bytes; these
    # must simulate correctly, every other point may fail and is counted
    reference: tuple = ()

    def is_reference(self, program: str, depth: int) -> bool:
        return (program, depth) in self.reference


def _spmm(name, n, tiny_n, par=1):
    extra = f"parallelize(i, {par});\n" if par > 1 else ""
    return Program(
        name,
        SPMM.format(n=n) + extra,
        {"A": 0.05 if n >= 64 else 0.2, "X": 0.1 if n >= 64 else 0.5, "b": 0.5},
        SPMM.format(n=tiny_n) + extra,
    )


_SPMM_SWEEP = [_spmm(f"spmm16_par{p}", 16, 8, p) for p in (1, 2, 4)]

WORKLOADS = {
    "spmm_fused": Workload(
        "spmm_fused",
        (_spmm("spmm128", 128, 8),),
        reference=(("spmm128", 4),),
    ),
    "gcn_blocked": Workload(
        "gcn_blocked",
        (
            Program(
                "gcn128",
                GCN_UNFUSED.format(n=128, f=32, h=16, c=8),
                {"A": 0.05, "X": 0.5, "W1": 1.0, "W2": 1.0},
                GCN_UNFUSED.format(n=8, f=8, h=4, c=4),
            ),
        ),
        reference=(("gcn128", 4),),
    ),
    "order_sweep": Workload(
        "order_sweep",
        (
            Program("softmax8", SOFTMAX.format(n=8), {"S": 0.4}, SOFTMAX.format(n=4)),
            Program(
                "attention",
                ATTENTION.format(q=4, k=6, d=2),
                {"M": 0.5, "Q": 1.0, "K": 1.0, "V": 1.0},
                ATTENTION.format(q=2, k=3, d=2),
            ),
            Program(
                "gcn16",
                GCN_FUSED.format(n=16, f=16, h=8, c=8),
                {"A": 0.2, "X": 0.5, "W1": 0.5, "W2": 0.5},
                GCN_FUSED.format(n=4, f=4, h=2, c=2),
            ),
            *_SPMM_SWEEP,
        ),
        depths=(1, 4),
        data_seeds=6,
        sweep=True,
        reference=tuple((p.name, 4) for p in _SPMM_SWEEP),
    ),
}


def sparse_array(shape, density, rng: np.random.Generator) -> np.ndarray:
    """Dense array with exactly round(density * size) nonzeros.

    A fixed nonzero count keeps seed-to-seed variation down to the
    placement of entries.  Values are +-[0.5, 2) with random sign, so
    relu prunes and no value is near zero.
    """
    size = int(np.prod(shape))
    nnz = max(1, round(density * size))
    flat = np.zeros(size)
    at = rng.choice(size, size=nnz, replace=False)
    flat[at] = rng.uniform(0.5, 2.0, nnz) * rng.choice((-1.0, 1.0), nnz)
    return flat.reshape(shape)


def make_inputs(vp, program: Program, seed: int, data_seed: int) -> dict:
    """Dense inputs of one program for one (seed, data seed) pair."""
    rng = np.random.default_rng([seed, data_seed, zlib.crc32(program.name.encode())])
    return {
        name: sparse_array(vp.shape_of(name), program.densities[name], rng)
        for name in sorted(vp.decls)
        if vp.role_of(name) == "input"
    }
