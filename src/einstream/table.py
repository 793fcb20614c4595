"""Iteration tables: lowering an ordered region to a streaming graph.

The chosen loop order defines a table with one row per loop variable and
one column per operand pipeline.  Columns are built row by row, top to
bottom, so streams produced in an outer row are available to every cell
below it:

* a column that stores the row's variable gets a level scanner;
* a column that does not gets a repeater driven by the row's coordinate
  stream, so its current refs are reused once per new coordinate;
* where two operand columns both store the variable, their coordinate
  streams meet in a joiner (intersection under multiply, union under
  add) unless both streams have the same provenance, in which case they
  are already identical token-for-token and the joiner is elided.  Only
  coordinate provenance is compared, and it is built from coordinate and
  reference streams alone, so value streams carry none.

When a column reaches its deepest stored row it switches to values:
loads, the arithmetic unit, reductions (a reduction over a non-innermost
variable becomes a coordinate-keyed fold whose surviving coordinate
stream replaces the original one for all later joins), and pointwise
maps.

An intermediate result consumed in several places is re-instantiated per
use: a streamed value cannot be both folded and co-iterated again later
without unbounded buffering, so each consumer drives its own copy of the
producer pipeline and the graph stays a tree.  Cost models must count
those instances the same way.

Parallelizing a stored result variable splits every live stream at its
row round-robin across copies.  Each copy lowers the rows below on its
own and ends in its own write cascade: the copies hold disjoint entries,
and the simulator merges the lanes' writers into one tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedSchedule
from .fusion import RegionIR, check_order
from .graph import CRD, REF, VAL, DataflowGraph
from .tensors import DENSE


@dataclass(frozen=True)
class StreamH:
    """A produced stream: a graph endpoint plus nesting/provenance metadata."""

    node: str
    port: str
    kind: str
    levels: tuple[str, ...]  # enclosing loop vars, outer to inner
    desc: tuple = ()  # coordinate/reference provenance, for joiner elision
    axes: tuple[str, ...] = ()  # block axes carried inside each value


@dataclass(frozen=True)
class Source:
    """The coordinate stream driving one loop row of one op."""

    var: str
    crd: StreamH
    label: str


@dataclass
class BlockInfo:
    factors: dict  # region var -> block edge length (1 = unblocked axis)
    edges: dict = field(default_factory=dict)  # declared dim -> edge, for host prep


@dataclass
class TableInfo:
    rows: list  # loop vars in order, then "val"
    cols: list = field(default_factory=list)  # (key, title)
    cells: dict = field(default_factory=dict)  # (key, row) -> text
    par: dict = field(default_factory=dict)  # var -> split factor


def render_table(info: TableInfo) -> str:
    head = [""] + [title for _, title in info.cols]
    body = []
    for r in info.rows:
        label = r if r not in info.par else f"{r} x{info.par[r]}"
        body.append([label] + [info.cells.get((k, r), "") for k, _ in info.cols])
    widths = [
        max(len(row[c]) for row in [head] + body) for c in range(len(head))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(head, widths)).rstrip()]
    lines.append("-" * max(len(lines[0]), sum(widths) + 2 * (len(widths) - 1)))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


_OPSYM = {"mul": "*", "add": "+", "sub": "-", "div": "/"}


def _map_label(fn) -> str:
    return fn if isinstance(fn, str) else f"{fn[0]} {fn[1]:g}"


class _Builder:
    def __init__(self, g, vp, ir, order, block):
        self.g = g
        self.vp = vp
        self.ir = ir
        self.order = tuple(order)
        self.pos = {v: i for i, v in enumerate(order)}
        self.block = block
        self.info = TableInfo(rows=list(order) + ["val"])
        self._root = None
        self._vrow: dict[int, str] = {}

    def value_row(self, op_idx: int) -> str:
        """The row at which this op's value stream completes: its deepest
        stored row or a nested producer's value row, whichever is later."""
        if op_idx in self._vrow:
            return self._vrow[op_idx]
        op = self.ir.ops[op_idx]
        row = max(op.own_vars, key=lambda v: self.pos[v])
        for operand in (op.lhs, op.rhs):
            if operand is not None and operand.kind == "op":
                r = self.value_row(operand.index)
                if self.pos[r] > self.pos[row]:
                    row = r
        self._vrow[op_idx] = row
        return row

    def root_stream(self) -> StreamH:
        if self._root is None:
            self._root = self.g.add("root", "root")
        return StreamH(self._root, "ref", REF, (), ("root",))

    def link(self, s: StreamH, dst: str, port: str):
        self.g.connect(s.node, s.port, dst, port, s.kind)

    def col(self, title: str) -> str:
        key = f"c{len(self.info.cols)}"
        self.info.cols.append((key, title))
        return key

    def cell(self, key: str, row, text: str):
        self.info.cells[(key, row)] = text

    def factor(self, v: str) -> int:
        return self.block.factors.get(v, 1) if self.block else 1

    def view_axes(self, view) -> tuple:
        """Block axes of a view's value blocks, in logical mode order."""
        if not self.block:
            return ()
        decl = self.vp.decl(view.tensor)
        return tuple(
            view.vars[list(decl.mode_order).index(m)]
            for m in range(len(view.vars))
        )

    def map_node(self, s: StreamH, fn) -> StreamH:
        hint = fn if isinstance(fn, str) else fn[0]
        nid = self.g.add("map", f"map_{hint}", fn=fn)
        self.link(s, nid, "in")
        return StreamH(nid, "out", VAL, s.levels, axes=s.axes)


def _alu_spec(b: _Builder, op, s0: StreamH, s1: StreamH):
    """Per-block arithmetic spec plus the output block axes."""
    a0, a1 = s0.axes, s1.axes
    present = set(a0) | set(a1)
    union = [v for v in b.order if v in present]
    contract = set(op.reduces) if op.reduce_kind == "sum" else set()
    out = [v for v in union if v not in contract]
    flops_u = flops_o = 1
    for v in union:
        flops_u *= b.factor(v)
    for v in out:
        flops_o *= b.factor(v)
    if op.kind == "mul":
        let = {v: chr(ord("a") + i) for i, v in enumerate(union)}
        expr = (
            "".join(let[v] for v in a0)
            + ","
            + "".join(let[v] for v in a1)
            + "->"
            + "".join(let[v] for v in out)
        )
        spec = {"mode": "einsum", "expr": expr, "flops": 2 * flops_u - flops_o}
    else:
        spec = {
            "mode": "ew",
            "out_ndim": len(out),
            "bmap0": tuple(out.index(v) for v in a0),
            "bmap1": tuple(out.index(v) for v in a1),
            "flops": flops_o,
        }
    return spec, tuple(out)


def _shape(desc):
    """Nesting structure of a stream, for deciding when two coordinate
    streams are identical by construction.

    A repeater emits one element per control element, so its structure is
    the control stream's; a dense scan contributes only its extent.
    Compressed scans and everything else stay tensor-specific (conservative:
    equality requires the same literal provenance).
    """
    tag = desc[0]
    if tag == "rep":
        return _shape(desc[2])
    if tag == "dense":
        return ("D", desc[1], desc[2])
    if tag == "denseref":
        return ("D", desc[3], _shape(desc[4]))
    if tag in ("scan", "scanref"):
        return ("C", desc[1], desc[2], desc[3])
    return desc


class _ViewPipe:
    """One stored operand's column: a chain of scanners and repeaters."""

    def __init__(self, b: _Builder, operand):
        self.b = b
        self.operand = operand
        self.view = b.ir.views[operand.index]
        self.varset = set(self.view.vars)
        self.col = b.col(self.view.tensor)
        self.cur = b.root_stream()
        self.nseen = 0
        self.val = None
        storage = list(self.view.vars)
        self.sigma = [v for v in b.order if v in self.varset]
        self.plan = {}
        if self.sigma == storage:
            for d, v in enumerate(storage):
                self.plan[v] = (d, None, None)
        else:
            f = next(
                i for i, (a, c) in enumerate(zip(self.sigma, storage)) if a != c
            )
            if any(k != DENSE for k in self.view.formats[f:]):
                raise UnsupportedSchedule(
                    f"{self.view.tensor} stores {tuple(storage)} but the order"
                    f" iterates {tuple(self.sigma)}; only dense levels can run"
                    " out of storage order - use a permuted copy or reorder"
                )
            for d, v in enumerate(storage[:f]):
                self.plan[v] = (d, None, None)
            sizes = [b.ir.extents[v] for v in storage]
            total = 1
            for s in sizes[f:]:
                total *= s
            acc = 1
            strides = {}
            for d in range(len(storage) - 1, f - 1, -1):
                strides[storage[d]] = acc
                acc *= sizes[d]
            first = True
            for v in self.sigma[f:]:
                self.plan[v] = (storage.index(v), total if first else 1, strides[v])
                first = False

    def owns(self, v: str) -> bool:
        return v in self.varset

    def fork(self) -> "_ViewPipe":
        new = object.__new__(_ViewPipe)
        new.__dict__.update(self.__dict__)
        return new

    def advance_own(self, v: str) -> Source:
        assert self.sigma[self.nseen] == v
        d, mult, stride = self.plan[v]
        params = {"tensor": self.view.tensor, "level": d}
        if mult is not None:
            params["mult"] = mult
            params["stride"] = stride
        nid = self.b.g.add("scan", f"ls_{self.view.tensor}_{v}", **params)
        self.b.link(self.cur, nid, "ref")
        lv = self.cur.levels + (v,)
        if self.view.formats[d] == DENSE:
            # Any dense scan of the same extent under structurally identical
            # parent iteration emits the same coordinate stream 0..n-1, so
            # the descriptor is structural rather than tensor-specific.
            n = self.b.ir.extents[v]
            cdesc = ("dense", n, _shape(self.cur.desc))
            rdesc = ("denseref", self.view.tensor, d, n, self.cur.desc)
        else:
            cdesc = ("scan", self.view.tensor, d, self.cur.desc)
            rdesc = ("scanref", self.view.tensor, d, self.cur.desc)
        crd = StreamH(nid, "crd", CRD, lv, cdesc)
        self.cur = StreamH(nid, "ref", REF, lv, rdesc)
        self.nseen += 1
        self.b.cell(self.col, v, f"LS {self.view.tensor}.{v}")
        return Source(v, crd, f"{self.view.tensor}.{v}")

    def advance_foreign(self, v: str, src: Source):
        nid = self.b.g.add("repeat", f"rep_{self.view.tensor}_{v}")
        self.b.link(self.cur, nid, "data")
        self.b.link(src.crd, nid, "ctrl")
        lv = self.cur.levels + (v,)
        self.cur = StreamH(
            nid, "out", self.cur.kind, lv, ("rep", self.cur.desc, src.crd.desc)
        )
        self.b.cell(self.col, v, f"Rep <{src.label}>")

    def val_stage(self, maps) -> StreamH:
        nid = self.b.g.add(
            "vals", f"vals_{self.view.tensor}", tensor=self.view.tensor
        )
        self.b.link(self.cur, nid, "ref")
        s = StreamH(nid, "val", VAL, self.cur.levels, axes=self.b.view_axes(self.view))
        labels = [f"Val {self.view.tensor}"]
        for fn in tuple(self.operand.maps) + tuple(maps):
            s = self.b.map_node(s, fn)
            labels.append(_map_label(fn))
        self.b.cell(self.col, "val", "; ".join(labels))
        self.val = s
        return s


class _OpPipe:
    """One op instance: its operand columns plus join/value bookkeeping."""

    def __init__(self, b: _Builder, op_idx: int, inherit):
        self.b = b
        self.op_idx = op_idx
        self.op = b.ir.ops[op_idx]
        own = set(self.op.own_vars)
        self.own_set = own
        self.val_row = b.value_row(op_idx)
        extra = [
            v
            for v in inherit
            if v not in own and b.pos[v] < b.pos[self.val_row]
        ]
        self.pvars = tuple(
            sorted(own | set(extra), key=lambda v: b.pos[v])
        )
        self.pvar_set = set(self.pvars)
        self.operands = (self.op.lhs, self.op.rhs)
        self.children = []
        for operand in self.operands:
            if operand is None:
                self.children.append(None)
            elif operand.kind == "view":
                self.children.append(_ViewPipe(b, operand))
            else:
                self.children.append(_OpPipe(b, operand.index, self.pvars))
        self.col = b.col(self.op.name)
        self.sources: dict[str, Source] = {}
        self.val: StreamH | None = None
        self.inherited: Source | None = None
        self._holder: dict = {}
        self._pend: dict = {}
        self._done: set = set()
        self.all = set(self.pvars)
        for ch in self.children:
            if isinstance(ch, _OpPipe):
                self.all |= ch.all
            elif isinstance(ch, _ViewPipe):
                self.all |= ch.varset

    # -- parallel split support --

    def fork(self) -> "_OpPipe":
        new = object.__new__(_OpPipe)
        new.__dict__.update(self.__dict__)
        new.children = [
            ch.fork() if ch is not None else None for ch in self.children
        ]
        new.sources = dict(self.sources)
        new._holder = dict(self._holder)
        new._pend = dict(self._pend)
        new._done = set(self._done)
        return new

    def view_pipes(self) -> list:
        out = []
        for ch in self.children:
            if isinstance(ch, _ViewPipe):
                out.append(ch)
            elif isinstance(ch, _OpPipe):
                out.extend(ch.view_pipes())
        return out

    def op_pipes(self) -> list:
        out = [self]
        for ch in self.children:
            if isinstance(ch, _OpPipe):
                out.extend(ch.op_pipes())
        return out

    # -- row-by-row construction --

    def advance(self, v: str):
        """Full row step in a context where no enclosing join narrows it."""
        src = self.advance_src(v)
        self.commit_advance(v, src)

    def advance_src(self, v: str):
        """Produce this op's candidate coordinate source for row ``v``
        without yet repeating anything against it: an enclosing op may still
        narrow the source with a join, after which ``commit_advance`` fans
        the final source out to the rest of the subtree.

        If the value stage lands on this row, the whole row completes here
        (the enclosing join then works against the finished value).
        """
        b = self.b
        in_p = v in self.pvar_set
        roles = []
        for ch in self.children:
            if ch is None:
                roles.append(None)
            elif isinstance(ch, _ViewPipe):
                if in_p and ch.owns(v):
                    roles.append("own")
                elif in_p:
                    roles.append("foreign")
                else:
                    roles.append(None)
            else:
                if v in ch.own_set:
                    roles.append("own")
                elif v in ch.pvar_set:
                    roles.append("extra")
                elif v in ch.all:
                    roles.append("internal")
                elif in_p:
                    roles.append("valrep")
                else:
                    roles.append(None)
        owners = []
        for ch, role in zip(self.children, roles):
            if role == "internal":
                ch.advance(v)
            elif role == "own":
                if isinstance(ch, _ViewPipe):
                    owners.append((ch, ch.advance_own(v)))
                elif not in_p:
                    ch.advance(v)
                else:
                    cand = ch.advance_src(v)
                    assert cand is not None
                    owners.append((ch, cand))
        joined = False
        src = None
        if in_p:
            if (
                len(owners) == 2
                and owners[0][1].crd.desc != owners[1][1].crd.desc
            ):
                src = self._join(v, owners)
                joined = True
            elif owners:
                src = owners[0][1]
            if len(owners) == 2:
                self._holder[v] = None
            elif owners and isinstance(owners[0][0], _ViewPipe):
                self._holder[v] = (owners[0][0], "cur")
            elif owners:
                self._holder[v] = owners[0][0]._holder.get(v)
        self._pend[v] = (roles, joined)
        if v == self.val_row or not in_p:
            self.commit_advance(v, src)
            src = self.sources.get(v, src)
        return src

    def commit_advance(self, v: str, src):
        if v in self._done:
            return
        self._done.add(v)
        b = self.b
        roles, joined = self._pend.pop(v)
        if v in self.pvar_set:
            if src is None:
                assert self.inherited is not None and self.inherited.var == v
                src = self.inherited
            self.sources[v] = src
            if not joined:
                b.cell(self.col, v, f"<{src.label}>")
            for ch, role in zip(self.children, roles):
                if role == "foreign":
                    ch.advance_foreign(v, src)
                elif role == "extra":
                    ch.inherited = src
                    ch.advance(v)
                elif role == "valrep":
                    self._val_rep(ch, v, src)
                elif role == "own" and isinstance(ch, _OpPipe):
                    ch.commit_advance(v, src)
        if v == self.val_row and self.val is None:
            self._val_stage()

    def _joinable(self, v: str, ch):
        """The payload stream a join at ``v`` filters for this side.

        Views contribute their reference chain; a finished op contributes
        its value; an unfinished op is transparent down to the single view
        that sourced it (its repeats then key off the narrowed source).
        """
        if isinstance(ch, _ViewPipe):
            return ch, "cur", ch.cur
        if ch.val is not None:
            return ch, "val", ch.val
        h = ch._holder.get(v)
        if h is not None:
            holder, slot = h
            return holder, slot, getattr(holder, slot)
        raise UnsupportedSchedule(
            f"operands meet at {v!r} before {ch.op.name}'s value"
            " is complete; buffering would be unbounded - move"
            f" {v!r} later or split the region"
        )

    def _join(self, v: str, owners) -> Source:
        b = self.b
        kind = "intersect" if self.op.kind in ("mul", "div") else "union"
        if owners[0][1].crd.levels != owners[1][1].crd.levels:
            raise UnsupportedSchedule(
                f"{self.op.name}: operand streams at {v!r} nest as"
                f" {owners[0][1].crd.levels} vs {owners[1][1].crd.levels};"
                " this order cannot pair them - move the mismatched index"
            )
        sides = []
        for ch, s in owners:
            holder, slot, payload = self._joinable(v, ch)
            sides.append((holder, slot, s, payload))
        short = "isect" if kind == "intersect" else "union"
        nid = b.g.add(kind, f"{short}_{v}")
        for i, (holder, slot, s, payload) in enumerate(sides):
            b.link(s.crd, nid, f"crd{i}")
            b.link(payload, nid, f"p{i}")
            desc = ("fil", kind, v, payload.desc) if payload.kind == REF else ()
            setattr(
                holder,
                slot,
                StreamH(nid, f"p{i}", payload.kind, payload.levels, desc, payload.axes),
            )
        mark = "&" if kind == "intersect" else "|"
        crd = StreamH(
            nid,
            "crd",
            CRD,
            sides[0][2].crd.levels,
            (kind, v, sides[0][2].crd.desc, sides[1][2].crd.desc),
        )
        b.cell(
            self.col,
            v,
            f"{mark}{v}({sides[0][2].label}, {sides[1][2].label})",
        )
        return Source(v, crd, f"{mark}{v}")

    def _val_rep(self, ch: "_OpPipe", v: str, src: Source):
        b = self.b
        if ch.val is None:
            raise UnsupportedSchedule(
                f"{self.op.name} needs {ch.op.name}'s value at {v!r} before"
                " it is complete; buffering would be unbounded - move"
                f" {v!r} later or split the region"
            )
        nid = b.g.add("repeat", f"rep_{ch.op.name}_{v}")
        b.link(ch.val, nid, "data")
        b.link(src.crd, nid, "ctrl")
        ch.val = StreamH(nid, "out", VAL, ch.val.levels + (v,), axes=ch.val.axes)
        b.cell(ch.col, v, f"Rep[val] <{src.label}>")

    def _val_stage(self):
        b = self.b
        op = self.op
        ins = []
        for ch, operand in zip(self.children, self.operands):
            if ch is None:
                continue
            if isinstance(ch, _ViewPipe):
                ins.append(ch.val_stage(()))
            else:
                s = ch.val
                for fn in operand.maps:
                    s = b.map_node(s, fn)
                ins.append(s)
        labels = []
        if op.kind == "one":
            val = ins[0]
        else:
            if ins[0].levels != ins[1].levels:
                raise UnsupportedSchedule(
                    f"{op.name}: operand values nest as {ins[0].levels} vs"
                    f" {ins[1].levels}; this order cannot stream them together"
                )
            spec = None
            axes = ()
            if b.block:
                spec, axes = _alu_spec(b, op, ins[0], ins[1])
            nid = b.g.add("alu", f"alu_{op.name}", op=op.kind, block=spec)
            b.link(ins[0], nid, "in0")
            b.link(ins[1], nid, "in1")
            val = StreamH(nid, "out", VAL, ins[0].levels, axes=axes)
            labels.append(_OPSYM[op.kind])
        pending = list(op.reduces)
        while pending:
            u = max(pending, key=lambda x: val.levels.index(x))
            pending.remove(u)
            idx = val.levels.index(u)
            below = val.levels[idx + 1 :]
            if not below:
                intra = ()
                axes = val.axes
                zero_shape = None
                if b.block:
                    zero_shape = tuple(b.factor(a) for a in val.axes)
                    if u in axes:
                        intra = (axes.index(u),)
                        axes = tuple(a for a in axes if a != u)
                nid = b.g.add(
                    "reduce",
                    f"red_{op.name}_{u}",
                    op=op.reduce_kind,
                    intra=intra,
                    zero_shape=zero_shape,
                )
                b.link(val, nid, "in")
                val = StreamH(nid, "out", VAL, val.levels[:-1], axes=axes)
                sym = "max" if op.reduce_kind == "max" else "sum"
                labels.append(f"{sym} {u}")
            elif len(below) == 1:
                if op.reduce_kind != "sum":
                    raise UnsupportedSchedule(
                        f"{op.reduce_kind}-reduction over {u!r} must be the"
                        " innermost loop"
                    )
                if b.block and u in val.axes:
                    raise UnsupportedSchedule(
                        f"blocked reduction over {u!r} with a surviving inner"
                        " level is not supported; make it innermost"
                    )
                survivor = below[0]
                src = self.sources[survivor]
                nid = b.g.add("red1", f"red1_{op.name}_{u}")
                b.link(src.crd, nid, "crd")
                b.link(val, nid, "val")
                lv = tuple(x for x in val.levels if x != u)
                crd = StreamH(
                    nid, "crd", CRD, lv, ("red1", self.op_idx, u, survivor)
                )
                val = StreamH(nid, "val", VAL, lv, axes=val.axes)
                self.sources[survivor] = Source(survivor, crd, f"sum {u}")
                labels.append(f"sum {u} by {survivor}")
            else:
                raise UnsupportedSchedule(
                    f"reducing {u!r} would leave {len(below)} live levels"
                    f" {below}; move {u!r} deeper or split the region"
                )
        for fn in op.maps:
            val = b.map_node(val, fn)
            labels.append(_map_label(fn))
        self.val = val
        b.cell(self.col, "val", "; ".join(labels) if labels else "pass")


# --- outputs ---------------------------------------------------------------


def _emit_output(
    b: _Builder, name: str, rv, val: StreamH, crds: dict, lane: int, drop_empty: bool
):
    """The crddrop cascade and writers of one lane of result ``name``.  The
    inner stage drops zero values; the outer stages, only if
    ``drop_empty``, drop coordinates whose groups came out empty."""
    g = b.g
    ndim = len(rv)
    inner = g.add("crddrop", f"cd_{name}_{rv[-1]}", stage="inner")
    b.link(crds[rv[-1]], inner, "outer")
    b.link(val, inner, "inner")
    val_out = StreamH(inner, "inner", VAL, val.levels, axes=val.axes)
    crd_feed = {d: crds[v] for d, v in enumerate(rv)}  # level -> its writer's stream
    crd_feed[ndim - 1] = up = StreamH(inner, "outer", CRD, crds[rv[-1]].levels)
    for d in range(ndim - 2, -1, -1) if drop_empty else ():
        st = g.add("crddrop", f"cd_{name}_{rv[d]}", stage="outer")
        b.link(crds[rv[d]], st, "outer")
        b.link(up, st, "inner")
        crd_feed[d + 1] = StreamH(st, "inner", CRD, up.levels)
        crd_feed[d] = up = StreamH(st, "outer", CRD, crds[rv[d]].levels)
    decl = b.vp.decl(name)
    dims = list(decl.dims)
    for d, v in enumerate(rv):
        wc = g.add("write_crd", f"w_{name}_{v}", tensor=name, level=d, lane=lane)
        b.link(crd_feed[d], wc, "crd")
    mode_order = tuple(dims.index(v) for v in rv)
    shape = tuple(
        b.ir.extents[dims[m]] * b.factor(dims[m]) for m in range(ndim)
    )
    formats = [decl.formats[m].kind for m in mode_order]
    params = {
        "tensor": name,
        "shape": shape,
        "mode_order": mode_order,
        "formats": formats,
        "lane": lane,
    }
    if b.block:
        params["block_shape"] = tuple(b.factor(dims[m]) for m in range(ndim))
        params["block_perm"] = tuple(
            val_out.axes.index(dims[m]) for m in range(ndim)
        )
    wv = g.add("write_val", f"w_{name}_vals", **params)
    b.link(val_out, wv, "val")


# --- parallel split --------------------------------------------------------


def _check_par(b: _Builder, top: _OpPipe, rv, par: dict):
    for v in par:
        if v not in set(rv):
            raise UnsupportedSchedule(
                f"parallelized index {v!r} must be a stored result index"
            )
        for p in top.op_pipes():
            if b.pos[p.val_row] <= b.pos[v]:
                raise UnsupportedSchedule(
                    f"parallelizing {v!r} would cut through {p.op.name}'s"
                    " value stage; parallelize an outer index instead"
                )
            for u in p.op.reduces:
                below = [
                    w
                    for w in p.pvars
                    if b.pos[w] > b.pos[u] and w not in p.op.reduces
                ]
                if len(below) == 1 and b.pos[below[0]] <= b.pos[v]:
                    raise UnsupportedSchedule(
                        f"parallelizing {v!r} would split the keyed reduction"
                        f" over {u!r}; parallelize an outer index instead"
                    )


def _split(b: _Builder, pipe: _OpPipe, rest, v: str, rv, par: dict):
    """The lanes of ``pipe`` split at row ``v``: a ``par`` node deals the
    row's elements round-robin to ``par[v]`` forks, each of which lowers
    ``rest`` on its own; a lane's coordinates at ``v`` are its copy's.
    Splits nested in a lane add their lanes to the list."""
    g = b.g
    f = par[v]
    views = pipe.view_pipes()
    vcrd = pipe.sources[v].crd
    par_id = g.add("par", f"par_{v}", factor=f, nstreams=1 + len(views))
    b.link(vcrd, par_id, "in0")
    for i, vp_ in enumerate(views):
        if not vp_.cur.levels or vp_.cur.levels[-1] != v:
            raise UnsupportedSchedule(
                f"stream for {vp_.view.tensor} does not end at {v!r};"
                " cannot split here"
            )
        b.link(vp_.cur, par_id, f"in{i + 1}")
    lanes = []
    for k in range(f):
        fk = pipe.fork()
        for i, vp_ in enumerate(fk.view_pipes()):
            old = views[i].cur
            vp_.cur = StreamH(
                par_id, f"out{k}_{i + 1}", old.kind, old.levels, old.desc,
                old.axes,
            )
        crd = StreamH(par_id, f"out{k}_0", CRD, vcrd.levels)
        lanes += [
            (val, {**crds, v: crd}) for val, crds in _walk(b, fk, rest, rv, par)
        ]
    return lanes


def _walk(b: _Builder, pipe: _OpPipe, rows, rv, par: dict):
    """The result's lanes after lowering ``rows``, each a ``(val, crds)``
    pair: one lane unless a row is parallelized."""
    for idx, v in enumerate(rows):
        try:
            pipe.advance(v)
        except UnsupportedSchedule as e:
            # every order sharing the prefix up to this row fails the same
            # way; record the position so searches can prune
            if not hasattr(e, "row_pos"):
                e.row_pos = b.pos[v]
            raise
        if v in par:
            return _split(b, pipe, rows[idx + 1 :], v, rv, par)
    return [(pipe.val, {r: pipe.sources[r].crd for r in rv})]


# --- entry point -----------------------------------------------------------


def build_region_graph(
    vp, ir: RegionIR, order, *, par: dict | None = None, block: BlockInfo | None = None
):
    """Lower one elaborated region at the given loop order.

    ``par`` maps region vars to split factors; ``block`` carries per-var
    block edge lengths when the program has been rewritten to blocked
    storage.  Returns ``(graph, TableInfo)``; ``add`` and ``connect``
    check each port and stream kind, and the graph's first ``sim.run``
    validates the whole.
    """
    order = tuple(order)
    check_order(ir, order)
    par = dict(par or {})
    for v in par:
        if v not in ir.extents:
            raise UnsupportedSchedule(f"unknown parallelized index {v!r}")
        if par[v] < 2:
            raise UnsupportedSchedule("split factor must be at least 2")
    g = DataflowGraph()
    b = _Builder(g, vp, ir, order, block)
    for op_idx, name in ir.outputs:
        top = _OpPipe(b, op_idx, ())
        rv = [v for v in order if v in set(top.op.result_vars)]
        if not rv:
            raise UnsupportedSchedule(
                f"{name} reduces every index away; keep one stored index"
            )
        rows = [v for v in order if v in top.all]
        _check_par(b, top, rv, par)
        # A split between two stored indices can leave a lane no element
        # under an outer coordinate, and an outer crddrop stage cannot tell
        # that group from an element whose own group came out empty: the
        # stream grammar writes both alike.  Such lanes keep only the inner
        # stage; the writers' merge skips coordinates without entries.
        drop_empty = not any(0 < rv.index(v) < len(rv) - 1 for v in par)
        for lane, (val, crds) in enumerate(_walk(b, top, rows, rv, par)):
            _emit_output(b, name, rv, val, crds, lane, drop_empty)
    b.info.par = dict(par)
    return g, b.info
