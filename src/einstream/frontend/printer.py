"""Canonical text rendering of a program; parse(print(p)) reproduces p."""

from __future__ import annotations

from ..tensors import COMPRESSED, COORDINATE, DENSE
from .program import Access, Bin, Call, EinsumProgram, Literal

_KIND_NAMES = {DENSE: "dense", COMPRESSED: "compressed", COORDINATE: "coordinate"}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_body(node, parent_prec: int = 0) -> str:
    if isinstance(node, Access):
        return f"{node.tensor}({', '.join(node.indices)})"
    if isinstance(node, Literal):
        return _num(node.value)
    if isinstance(node, Call):
        if node.fn == "scale":
            c, arg = node.args
            return f"scale({_num(c.value)}, {render_body(arg)})"
        return f"{node.fn}({render_body(node.args[0])})"
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        lhs = render_body(node.lhs, prec)
        # operators parse left-associative, so an equal-precedence right
        # operand always needs parens to reproduce the tree
        rhs = render_body(node.rhs, prec + 1)
        text = f"{lhs} {node.op} {rhs}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not a body node: {node!r}")


def render_program(program: EinsumProgram) -> str:
    out = []
    for name, size in program.extents.items():
        out.append(f"index {name} = {size};")
    if program.extents:
        out.append("")
    for decl in program.decls.values():
        chain = " -> ".join(
            f"{_KIND_NAMES[f.kind]}({d})" for d, f in zip(decl.dims, decl.formats)
        )
        order = ", ".join(decl.dims[m] for m in decl.mode_order)
        role = f" {decl.role}" if decl.role in ("input", "output") else ""
        out.append(
            f"tensor {decl.name}({', '.join(decl.dims)}): {chain} order({order}){role};"
        )
    if program.decls:
        out.append("")

    def stmt(k: int) -> str:
        ex = program.expressions[k]
        return f"{render_body(ex.lhs)} = {render_body(ex.body)};"

    for region in program.regions:
        if region.fused:
            out.append("fuse {")
            for k in region.exprs:
                out.append(f"    {stmt(k)}")
            if region.order:
                out.append(f"    order({', '.join(region.order)});")
            out.append("}")
        else:
            for k in region.exprs:
                out.append(stmt(k))

    sched = program.schedule
    extra = []
    for var, factor in sched.parallelize:
        extra.append(f"parallelize({var}, {factor});")
    if sched.block:
        extra.append(f"block({sched.block[0]}, {sched.block[1]});")
    for tensor, rho in sched.densities.items():
        extra.append(f"density({tensor}, {_num(rho)});")
    for (t1, d1, t2, d2), r in sched.rates.items():
        extra.append(f"rate({t1}.{d1}, {t2}.{d2}, {_num(r)});")
    if extra:
        out.append("")
        out.extend(extra)
    return "\n".join(out) + "\n"
