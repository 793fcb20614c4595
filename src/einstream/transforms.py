"""Program-level blocking: rewrite a region to iterate block coordinates.

Blocking maps dense tiles onto the innermost coordinates of every tensor in
a region: the sparse levels then index whole blocks, value tokens carry
block arrays instead of scalars, and ALUs perform block-sized arithmetic in
one stream step.  The region's index extents shrink to the block grid;
host-side, inputs are re-stored with a dense block leaf, and the simulator
writes each output as a scalar tensor.

The block shape is given positionally (``block(2, 2)`` tiles every tensor
of that rank 2x2); each index variable inherits the edge of the mode
positions it appears at, so tensors sharing an index must agree on its
edge.  Lower-rank tensors (e.g. vectors in a matrix program) take their
per-mode edges from the indices they share.
"""

from __future__ import annotations

from .errors import IncompatibleBlocks, IndivisibleExtent
from .table import BlockInfo


def region_tensors(vp, ir) -> list[str]:
    names = {view.tensor for view in ir.views}
    names |= {name for _, name in ir.outputs}
    return sorted(names)


def plan_blocking(vp, ir, shape) -> BlockInfo | None:
    """Derive per-index block edges, validate them, and shrink the region's
    extents to the block grid in place.

    Returns the plan the graph builder consumes, or None when every edge is
    1 (blocking degenerates to the unblocked pipeline).
    """
    shape = tuple(int(e) for e in shape)
    if not shape or any(e < 1 for e in shape):
        raise IncompatibleBlocks(f"block shape {shape} must be positive")
    names = region_tensors(vp, ir)

    edges: dict[str, int] = {}
    for name in names:
        decl = vp.decl(name)
        if len(decl.dims) != len(shape):
            continue
        for dim, e in zip(decl.dims, shape):
            if edges.setdefault(dim, e) != e:
                raise IncompatibleBlocks(
                    f"index {dim!r} is tiled with edges {edges[dim]} and {e}"
                    " by different tensors"
                )
    for name in names:
        decl = vp.decl(name)
        for dim in decl.dims:
            if dim not in edges:
                raise IncompatibleBlocks(
                    f"cannot infer a block edge for index {dim!r} of {name};"
                    f" it appears in no rank-{len(shape)} tensor"
                )

    # region vars (including per-use instances) inherit their source index's
    # edge; validate divisibility before touching the extents
    source = {}
    for src, rvs in ir.name_map.items():
        for rv in rvs:
            source[rv] = src
    factors = {}
    for rv, ext in ir.extents.items():
        e = edges.get(source.get(rv, rv), 1)
        if ext % e:
            raise IndivisibleExtent(
                f"extent {ext} of {source.get(rv, rv)!r} is not divisible by"
                f" block edge {e}"
            )
        factors[rv] = e
    if all(e == 1 for e in factors.values()):
        return None
    for rv in ir.extents:
        ir.extents[rv] //= factors[rv]
    return BlockInfo(factors=factors, edges=edges)


def block_input(vp, name: str, tensor, info: BlockInfo):
    """Re-store one input with the dense block leaf the blocked graph reads."""
    decl = vp.decl(name)
    return tensor.block(tuple(info.edges[d] for d in decl.dims))
