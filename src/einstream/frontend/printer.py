"""Canonical text rendering of a program; parse(print(p)) reproduces p."""

from __future__ import annotations

from .program import EinsumProgram, _num


def render_program(program: EinsumProgram) -> str:
    out = []
    for name, size in program.extents.items():
        out.append(f"index {name} = {size};")
    if program.extents:
        out.append("")
    for decl in program.decls.values():
        chain = " -> ".join(
            f"{f.kind}({d})" for d, f in zip(decl.dims, decl.formats)
        )
        order = ", ".join(decl.dims[m] for m in decl.mode_order)
        role = f" {decl.role}" if decl.role in ("input", "output") else ""
        out.append(
            f"tensor {decl.name}({', '.join(decl.dims)}): {chain} order({order}){role};"
        )
    if program.decls:
        out.append("")

    def stmt(k: int) -> str:
        return f"{program.expressions[k]};"

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
