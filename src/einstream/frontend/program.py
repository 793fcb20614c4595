"""Program model: declarations, einsum expressions, schedules, validation.

An expression is an assignment ``T(i,j) = body`` where the body combines
tensor accesses with ``* / + -`` and pointwise wrappers (relu, exp, gelu,
scale(c, .), max(.)).  Indices present in the body but not on the left-hand
side are reduction indices; each additive term reduces over its own ones.

An absent entry is 0.0 in every tensor.  Pointwise ops use stored-entry
semantics: they apply to stored values and map an absent entry to zero, so
results do not depend on whether an intermediate was materialized or
streamed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ArityMismatch, EinstreamError, FrontendError, NonSSA, UnknownTensor
from ..tensors import COMPRESSED, LevelSpec

POINTWISE_FNS = ("relu", "exp", "gelu", "scale")
REDUCE_FNS = ("max",)


# --- body AST -------------------------------------------------------------


class _Body:
    """A body node; prints as ``render_body`` renders it."""

    def __str__(self):
        return render_body(self)


@dataclass(frozen=True)
class Access(_Body):
    tensor: str
    indices: tuple[str, ...]


@dataclass(frozen=True)
class Literal(_Body):
    value: float


@dataclass(frozen=True)
class Call(_Body):
    fn: str
    args: tuple  # Literal first for scale


@dataclass(frozen=True)
class Bin(_Body):
    op: str  # one of * / + -
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Expression:
    lhs: Access
    body: object

    def __str__(self):
        return f"{self.lhs} = {self.body}"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_body(node, parent_prec: int = 0) -> str:
    """Canonical text of a body node, parenthesised only where the parser
    needs it to rebuild the same tree."""
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


# --- declarations and schedule -------------------------------------------


@dataclass(frozen=True)
class TensorDecl:
    name: str
    dims: tuple[str, ...]  # formal mode names, bound to index extents
    formats: tuple[LevelSpec, ...]
    mode_order: tuple[int, ...]
    role: str | None = None  # input | output | None (inferred)


@dataclass
class RegionSpec:
    """One fusion region: expression indices plus its local directives."""

    exprs: list[int] = field(default_factory=list)
    order: tuple[str, ...] | None = None
    fused: bool = True  # False for singleton regions outside fuse blocks


@dataclass
class ScheduleSpec:
    parallelize: list[tuple[str, int]] = field(default_factory=list)
    block: tuple[int, int] | None = None
    densities: dict[str, float] = field(default_factory=dict)
    rates: dict[tuple[str, str, str, str], float] = field(default_factory=dict)


@dataclass
class EinsumProgram:
    extents: dict[str, int]
    decls: dict[str, TensorDecl]
    expressions: list[Expression]
    regions: list[RegionSpec]
    schedule: ScheduleSpec


# --- normal form ----------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    access: Access
    maps: tuple = ()  # inner pointwise chain, innermost first


@dataclass(frozen=True)
class NormTerm:
    sign: float
    factors: tuple[Factor, ...]
    divisors: tuple[Factor, ...]
    scale: float
    reduce_op: str  # sum | max
    reduction_vars: tuple[str, ...]


@dataclass(frozen=True)
class NormExpr:
    lhs: Access
    terms: tuple[NormTerm, ...]
    maps: tuple = ()  # outer pointwise chain, innermost first


def apply_pointwise(fn, x: float) -> float:
    """Stored-entry pointwise semantics; zero maps to zero for every fn."""
    if x == 0.0:
        return 0.0
    if isinstance(fn, tuple):  # ('scale', c)
        return fn[1] * x
    if fn == "relu":
        return x if x > 0.0 else 0.0
    if fn == "exp":
        return math.exp(x)
    if fn == "gelu":
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
    raise FrontendError(f"unknown pointwise fn {fn!r}")


def apply_pointwise_array(fn, x: np.ndarray) -> np.ndarray:
    """``apply_pointwise`` on every element of ``x``, bit for bit.

    exp and gelu go through the scalar function on the nonzero entries
    only: ``np.exp`` can differ from ``math.exp`` in the last bit.
    """
    if isinstance(fn, tuple):  # ('scale', c)
        return np.where(x != 0.0, fn[1] * x, 0.0)
    if fn == "relu":
        return np.where(x > 0.0, x, 0.0)
    if fn in ("exp", "gelu"):
        out = np.zeros(x.shape)
        nz = x != 0.0
        out[nz] = [apply_pointwise(fn, v) for v in x[nz].tolist()]
        return out
    raise FrontendError(f"unknown pointwise fn {fn!r}")


def _peel_outer(body):
    """Strip outer pointwise wrappers; returns (maps innermost-first, core)."""
    maps = []
    node = body
    while isinstance(node, Call) and node.fn in POINTWISE_FNS:
        if node.fn == "scale":
            c, inner = node.args
            maps.append(("scale", c.value))
            node = inner
        else:
            maps.append(node.fn)
            (node,) = node.args
    maps.reverse()
    return tuple(maps), node


def _additive_terms(node):
    if isinstance(node, Bin) and node.op in "+-":
        for sign, sub in _additive_terms(node.lhs):
            yield sign, sub
        for sign, sub in _additive_terms(node.rhs):
            yield (sign if node.op == "+" else -sign), sub
    else:
        yield 1.0, node


def _as_factor(node) -> tuple[Factor | None, float]:
    """A multiplicative atom: access with optional inner maps, or a scalar."""
    if isinstance(node, Literal):
        return None, float(node.value)
    maps, node = _peel_outer(node)
    if not isinstance(node, Access):
        raise FrontendError(f"cannot use {node} as a multiplicative factor")
    return Factor(node, maps), 1.0


def _mul_chain(node):
    """Flatten a * / chain into (numerator atoms, denominator atoms)."""
    if isinstance(node, Bin) and node.op == "*":
        ln, ld = _mul_chain(node.lhs)
        rn, rd = _mul_chain(node.rhs)
        return ln + rn, ld + rd
    if isinstance(node, Bin) and node.op == "/":
        ln, ld = _mul_chain(node.lhs)
        rn, rd = _mul_chain(node.rhs)
        return ln, ld + rn + rd
    return [node], []


def normalize(expr: Expression) -> NormExpr:
    out_vars = set(expr.lhs.indices)
    maps, core = _peel_outer(expr.body)
    terms = []
    for sign, tnode in _additive_terms(core):
        reduce_op = "sum"
        if isinstance(tnode, Call) and tnode.fn == "max":
            reduce_op = "max"
            (tnode,) = tnode.args
        nums, dens = _mul_chain(tnode)
        factors, divisors = [], []
        scale = 1.0
        for atom in nums:
            f, c = _as_factor(atom)
            scale *= c
            if f is not None:
                factors.append(f)
        for atom in dens:
            f, c = _as_factor(atom)
            if f is None:
                if c == 0.0:
                    raise FrontendError("division by literal zero")
                scale /= c
            else:
                divisors.append(f)
        if not factors:
            raise FrontendError(f"term in {expr.lhs} has no tensor factor")
        seen: list[str] = []
        for f in factors:
            for v in f.access.indices:
                if v not in out_vars and v not in seen:
                    seen.append(v)
        for f in divisors:
            for v in f.access.indices:
                if v not in out_vars:
                    raise FrontendError(
                        f"divisor {f.access} carries reduction index {v!r}"
                    )
        if reduce_op == "max" and not seen:
            raise FrontendError("max(...) wrapper without a reduction index")
        terms.append(
            NormTerm(sign, tuple(factors), tuple(divisors), scale, reduce_op, tuple(seen))
        )
    if any(t.reduce_op == "max" for t in terms) and len(terms) > 1:
        raise FrontendError("max reduction cannot be combined additively")
    for v in out_vars:
        if not any(v in f.access.indices for t in terms for f in t.factors):
            raise FrontendError(
                f"output index {v!r} of {expr.lhs} appears in no factor"
            )
    return NormExpr(expr.lhs, tuple(terms), maps)


# --- validation -----------------------------------------------------------


@dataclass
class ValidatedProgram:
    program: EinsumProgram
    norm: list[NormExpr]
    var_extents: dict[str, int]  # every index var used anywhere

    @property
    def decls(self):
        return self.program.decls

    @property
    def regions(self):
        return self.program.regions

    @property
    def schedule(self):
        return self.program.schedule

    def decl(self, name: str) -> TensorDecl:
        return self.program.decls[name]

    def shape_of(self, name: str) -> tuple[int, ...]:
        return tuple(self.program.extents[d] for d in self.program.decls[name].dims)

    def role_of(self, name: str) -> str:
        return self.program.decls[name].role or "input"

    def check_inputs(self, inputs: dict) -> dict[str, np.ndarray]:
        """Each declared input as a float64 array; a missing one or a wrong
        shape raises ``EinstreamError``."""
        out = {}
        for name, decl in self.decls.items():
            if decl.role != "input":
                continue
            if name not in inputs:
                raise EinstreamError(f"missing input tensor {name}")
            arr = np.asarray(inputs[name], dtype=np.float64)
            if arr.shape != self.shape_of(name):
                raise EinstreamError(
                    f"input {name}: shape {arr.shape}, declared {self.shape_of(name)}"
                )
            out[name] = arr
        return out


def _accesses(node):
    if isinstance(node, Access):
        yield node
    elif isinstance(node, Bin):
        yield from _accesses(node.lhs)
        yield from _accesses(node.rhs)
    elif isinstance(node, Call):
        for a in node.args:
            yield from _accesses(a)


def _check_schedule(sched: ScheduleSpec, decls: dict, var_extents: dict):
    """Every ``parallelize`` names an index of the program's expressions;
    every ``density`` and ``rate`` names a tensor of the program (declared
    or inferred) and, for a rate, one of its dims; a density is a fraction
    and a rate is not negative."""
    for var, factor in sched.parallelize:
        if var not in var_extents:
            raise FrontendError(f"parallelize({var}, {factor}): unknown index {var!r}")
    for tensor, rho in sched.densities.items():
        where = f"density({tensor}, {_num(rho)})"
        if tensor not in decls:
            raise UnknownTensor(f"{where}: unknown tensor {tensor}")
        if not 0.0 <= rho <= 1.0:
            raise FrontendError(f"{where}: a density must lie in [0, 1]")
    for (t1, d1, t2, d2), r in sched.rates.items():
        where = f"rate({t1}.{d1}, {t2}.{d2}, {_num(r)})"
        for t, d in ((t1, d1), (t2, d2)):
            if t not in decls:
                raise UnknownTensor(f"{where}: unknown tensor {t}")
            if d not in decls[t].dims:
                raise FrontendError(f"{where}: {t} has no dim {d!r}")
        if not r >= 0.0:
            raise FrontendError(f"{where}: a rate must be at least 0")


def validate_program(program: EinsumProgram) -> ValidatedProgram:
    """Check SSA, arity, extent consistency and the schedule's names; infer
    roles and missing decls."""
    decls = dict(program.decls)
    extents = dict(program.extents)
    for d in decls.values():
        for dim in d.dims:
            if dim not in extents:
                raise FrontendError(
                    f"tensor {d.name}: dimension {dim!r} has no declared extent"
                )

    written: dict[str, int] = {}
    read_after: dict[str, bool] = {}
    var_extents: dict[str, int] = {}

    def bind(var: str, extent: int, where: str):
        if var in var_extents and var_extents[var] != extent:
            raise FrontendError(
                f"index {var!r} used with extents {var_extents[var]} and {extent} ({where})"
            )
        var_extents[var] = extent

    for k, ex in enumerate(program.expressions):
        for acc in _accesses(ex.body):
            if acc.tensor not in decls and acc.tensor not in written:
                raise UnknownTensor(f"{acc.tensor} read before any definition")
            if acc.tensor in written:
                read_after[acc.tensor] = True
            decl = decls[acc.tensor]
            if len(acc.indices) != len(decl.dims):
                raise ArityMismatch(
                    f"{acc} has {len(acc.indices)} indices, {acc.tensor} is rank {len(decl.dims)}"
                )
            for var, dim in zip(acc.indices, decl.dims):
                bind(var, extents[dim], str(acc))
        name = ex.lhs.tensor
        if name in written:
            raise NonSSA(f"{name} assigned more than once")
        if name in decls and decls[name].role == "input":
            raise NonSSA(f"{name} is declared input but assigned")
        if name not in decls:
            dims = []
            for var in ex.lhs.indices:
                if var not in var_extents:
                    raise FrontendError(
                        f"cannot infer extent of output index {var!r} in {ex.lhs}"
                    )
                dim = var
                if dim not in extents:
                    extents[dim] = var_extents[var]
                dims.append(dim)
            decls[name] = TensorDecl(
                name,
                tuple(dims),
                tuple(LevelSpec(COMPRESSED) for _ in dims),
                tuple(range(len(dims))),
                role=None,
            )
        decl = decls[name]
        if len(ex.lhs.indices) != len(decl.dims):
            raise ArityMismatch(f"{ex.lhs}: {name} is rank {len(decl.dims)}")
        if ex.lhs.indices != decl.dims:
            raise FrontendError(
                f"{ex}: {name} is declared {name}({', '.join(decl.dims)});"
                " an assignment must index it by its declared dims"
            )
        for var, dim in zip(ex.lhs.indices, decl.dims):
            bind(var, extents[dim], str(ex.lhs))
        written[name] = k
        read_after.setdefault(name, False)

    # roles: written + read later -> intermediate unless declared output;
    # written only -> output; everything else -> input.
    for name, d in list(decls.items()):
        if name in written:
            role = d.role
            if role == "input":
                raise NonSSA(f"{name} is declared input but assigned")
            if role is None:
                role = "intermediate" if read_after.get(name) else "output"
            decls[name] = replace(d, role=role)
        else:
            if d.role == "output":
                raise FrontendError(f"declared output {name} is never assigned")
            decls[name] = replace(d, role="input")

    _check_schedule(program.schedule, decls, var_extents)
    norm = [normalize(ex) for ex in program.expressions]

    covered = [i for r in program.regions for i in r.exprs]
    if sorted(covered) != list(range(len(program.expressions))):
        raise FrontendError("regions must cover every expression exactly once")

    fixed = replace(program, decls=decls, extents=extents)
    return ValidatedProgram(fixed, norm, var_extents)
