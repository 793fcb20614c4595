"""Program-level blocking: rewrite a region to iterate block coordinates.

Blocking maps dense tiles onto the innermost coordinates of every tensor in
a region: the sparse levels then index whole blocks, value tokens carry
block arrays instead of scalars, and ALUs perform block-sized arithmetic in
one stream step.  The region's index extents shrink to the block grid;
host-side, inputs are re-stored as grids of dense blocks, and the simulator
writes each output as a scalar tensor.

The block shape is given positionally (``block(2, 2)`` tiles every tensor
of that rank 2x2), so each declared dim of such a tensor gets an edge, and
tensors declaring the same dim must agree on it.  Lower-rank tensors (e.g.
vectors in a matrix program) take their edges from the dims they share.
A region var then takes the edge of the declared dims the views put at it
(``View.dims``), whatever the index is called in the expression or the
region; two views that put differently tiled dims at one var conflict.
"""

from __future__ import annotations

from .errors import IncompatibleBlocks, IndivisibleExtent
from .table import BlockInfo


def region_tensors(vp, ir) -> list[str]:
    names = {view.tensor for view in ir.views}
    names |= {name for _, name in ir.outputs}
    return sorted(names)


def plan_blocking(vp, ir, shape) -> BlockInfo | None:
    """Derive the block edge of every declared dim and region var, validate
    them, and shrink the region's extents to the block grid in place.

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
        for dim, ext in zip(vp.decl(name).dims, vp.shape_of(name)):
            if dim not in edges:
                raise IncompatibleBlocks(
                    f"cannot infer a block edge for index {dim!r} of {name};"
                    f" it appears in no rank-{len(shape)} tensor"
                )
            if ext % edges[dim]:
                raise IndivisibleExtent(
                    f"extent {ext} of {dim!r} is not divisible by block edge {edges[dim]}"
                )

    # a region var loops over the dims its views declare at it; views that
    # tile it differently cannot share the loop
    tiled: dict[str, tuple[int, str]] = {}
    for view in ir.views:
        for rv, dim in zip(view.vars, view.dims):
            e, by = tiled.setdefault(rv, (edges[dim], f"{view.source}.{dim}"))
            if e != edges[dim]:
                raise IncompatibleBlocks(
                    f"{by} and {view.source}.{dim} share loop index {rv!r}"
                    f" but are tiled with edges {e} and {edges[dim]}"
                )
    factors = {rv: e for rv, (e, _) in tiled.items()}
    if all(e == 1 for e in factors.values()):
        return None
    for rv in ir.extents:
        ir.extents[rv] //= factors[rv]
    return BlockInfo(factors=factors, edges=edges)


def fill_sensitive(ir) -> dict[str, str]:
    """The tensors of ``ir``'s views whose values reach an op that tells a
    stored zero from an absent entry, each with the first such op: a
    ``max`` reduce, which may pick the zero, or an add or sub whose
    operands have different vars, whose support is that of an operand
    with a var the other lacks (``S(i, j) - r(i)`` gives ``-r`` at a stored
    zero of ``S``, and nothing where ``S`` stores no entry)."""

    def under(*operands) -> list[str]:  # the views these operands read
        names = []
        for operand in operands:
            if operand is None:
                continue
            if operand.kind == "view":
                names.append(ir.views[operand.index].tensor)
            else:
                op = ir.ops[operand.index]
                names += under(op.lhs, op.rhs)
        return names

    marked: dict[str, str] = {}
    for op in ir.ops:
        if op.reduces and op.reduce_kind != "sum":
            names = under(op.lhs, op.rhs)
            how = op.reduce_kind
        elif op.kind in ("add", "sub"):
            lhs, rhs = set(ir.operand_vars(op.lhs)), set(ir.operand_vars(op.rhs))
            names = (under(op.lhs) if lhs - rhs else []) + (under(op.rhs) if rhs - lhs else [])
            how = op.kind
        else:
            continue
        for name in names:
            marked.setdefault(name, f"{how} {op.name}")
    return marked


def block_input(vp, name: str, tensor, info: BlockInfo):
    """Re-store one input as the grid of dense blocks the blocked graph reads."""
    decl = vp.decl(name)
    return tensor.block(tuple(info.edges[d] for d in decl.dims))
