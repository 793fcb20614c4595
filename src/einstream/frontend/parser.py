"""Text format parser.

Example::

    index i = 4; index k = 3;
    tensor B(i, k): compressed(i) -> compressed(k) order(i, k) input;
    tensor c(k): compressed(k) order(k) input;
    fuse {
        x(i) = B(i, k) * c(k);
        order(i, k);
    }
    parallelize(i, 2);

Assignments outside a ``fuse { ... }`` block each form their own region;
a fuse block groups its assignments into one region and may carry a local
``order(...)`` directive, the only way to fix a region's loop order (wrap a
single statement in ``fuse { }`` to order it).  ``parallelize``, ``block``,
``density`` and ``rate`` are program-wide directives; a second ``block``, a
second ``parallelize`` of one index, a second ``density`` of one tensor or
a second ``rate`` of one pair of dims, in either order, is an error, not an
override.  A ``parallelize`` splits its index in each region whose
expressions use that index and leaves the other regions alone; where a
region has several vars of that name (a reduction index renamed once per
use), planning the region raises ``UnsatisfiableOrder``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError
from ..tensors import COMPRESSED, DENSE, LevelSpec
from .program import (
    Access,
    Bin,
    Call,
    EinsumProgram,
    Expression,
    Literal,
    POINTWISE_FNS,
    RegionSpec,
    ScheduleSpec,
    TensorDecl,
)


class _Tok(NamedTuple):
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    col: int


def _token_pattern(digits: str = "", numerals: str = "") -> re.Pattern:
    r"""One alternative per token class; the first that matches wins.

    A name starts at a ``str.isalpha`` character or "_" and goes on over
    ``str.isalnum`` ones and "_", which is ``\w``; a number's digits are
    ``str.isdigit`` ones.  But ``\d`` is ``str.isdecimal``, and a name's
    ``[^\W\d]`` holds every numeric character that is not decimal, so the
    pattern for a text names those of its characters: ``digits`` (such as
    "²") and the ``numerals`` that are no letter (such as "²" and "½")."""
    d = rf"\d{digits}"  # a character class's contents
    start = rf"(?![{numerals}])[^\W\d]" if numerals else r"[^\W\d]"
    return re.compile(
        r"(?P<nl>\n)|(?P<ws>[ \t\r]+)|(?P<comment>(?:#|//)[^\n]*)"
        rf"|(?P<ident>{start}\w*)|(?P<number>\.?[{d}][{d}.]*(?:[eE][+-]?[{d}]+)?)"
        r"|(?P<punct>->|[(){},;=+\-*/:.])|(?P<bad>.)",
        re.S,
    )


_ASCII_TOKENS = _token_pattern()


def _pattern_for(src: str) -> re.Pattern:
    if src.isascii():
        return _ASCII_TOKENS
    odd = {c for c in set(src) if c.isnumeric() and not c.isdecimal()}
    digits = "".join(sorted(c for c in odd if c.isdigit()))
    numerals = "".join(sorted(c for c in odd if not c.isalpha()))
    return _token_pattern(re.escape(digits), re.escape(numerals))


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    for m in _pattern_for(src).finditer(src):
        kind = m.lastgroup
        if kind == "ws":
            col += m.end() - m.start()
        elif kind == "nl":
            line += 1
            col = 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "comment":  # a comment leaves the column where it starts
            text = m.group()
            toks.append(_Tok(kind, text, line, col))
            col += len(text)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.extents: dict[str, int] = {}
        self.decls: dict[str, TensorDecl] = {}
        self.expressions: list[Expression] = []
        self.regions: list[RegionSpec] = []
        self.schedule = ScheduleSpec()

    # -- token helpers --

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected a name, found {t.text or 'end of input'!r}", t)
        return t.text

    def number(self) -> float:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        t = self.next()
        if t.kind != "number":
            self.fail(f"expected a number, found {t.text or 'end of input'!r}", t)
        v = float(t.text)
        return -v if neg else v

    def integer(self) -> int:
        v = self.number()
        if v != int(v):
            self.fail("expected an integer")
        return int(v)

    def ident_list(self) -> tuple[str, ...]:
        self.expect("(")
        names = [self.ident()]
        while self.peek().text == ",":
            self.next()
            names.append(self.ident())
        self.expect(")")
        return tuple(names)

    # -- grammar --

    def parse(self) -> EinsumProgram:
        while self.peek().kind != "eof":
            self.item()
        return EinsumProgram(
            self.extents, self.decls, self.expressions, self.regions, self.schedule
        )

    def item(self):
        t = self.peek()
        if t.text == "index":
            self.index_decl()
        elif t.text == "tensor":
            self.tensor_decl()
        elif t.text == "fuse":
            self.fuse_block()
        elif t.text in ("parallelize", "block", "density", "rate"):
            self.directive()
        elif t.text == "order" and self.peek(1).text == "(":
            self.fail("order(...) is only allowed inside a fuse { } block")
        elif t.kind == "ident":
            k = len(self.expressions)
            self.assignment()
            self.regions.append(RegionSpec([k], fused=False))
        else:
            self.fail(f"unexpected {t.text!r}")

    def index_decl(self):
        self.expect("index")
        name = self.ident()
        self.expect("=")
        size = self.integer()
        if size <= 0:
            self.fail(f"extent of {name!r} must be positive")
        self.expect(";")
        if name in self.extents and self.extents[name] != size:
            self.fail(f"index {name!r} redeclared with a different extent")
        self.extents[name] = size

    def tensor_decl(self):
        tok = self.expect("tensor")
        name = self.ident()
        dims = self.ident_list()
        self.expect(":")
        by_dim: dict[str, LevelSpec] = {}
        while True:
            kind_tok = self.next()
            if kind_tok.text not in (DENSE, COMPRESSED):
                self.fail(f"unknown level kind {kind_tok.text!r}", kind_tok)
            (dim,) = self.ident_list()
            if dim not in dims:
                self.fail(f"{dim!r} is not a dimension of {name}", kind_tok)
            if dim in by_dim:
                self.fail(f"dimension {dim!r} given two formats", kind_tok)
            by_dim[dim] = LevelSpec(kind_tok.text)
            if self.peek().text != "->":
                break
            self.next()
        missing = [d for d in dims if d not in by_dim]
        if missing:
            self.fail(f"tensor {name}: no format for {missing[0]!r}", tok)
        self.expect("order")
        order_names = self.ident_list()
        if sorted(order_names) != sorted(dims):
            self.fail(f"order(...) of {name} must mention each dimension once", tok)
        role = None
        if self.peek().text in ("input", "output"):
            role = self.next().text
        self.expect(";")
        if name in self.decls:
            self.fail(f"tensor {name} declared twice", tok)
        formats = tuple(by_dim[d] for d in dims)
        mode_order = tuple(dims.index(d) for d in order_names)
        self.decls[name] = TensorDecl(name, dims, formats, mode_order, role)

    def fuse_block(self):
        self.expect("fuse")
        self.expect("{")
        region = RegionSpec(fused=True)
        while self.peek().text != "}":
            if self.peek().text == "order" and self.peek(1).text == "(":
                self.next()
                region.order = self.ident_list()
                self.expect(";")
            else:
                region.exprs.append(len(self.expressions))
                self.assignment()
        self.expect("}")
        if not region.exprs:
            self.fail("empty fuse block")
        self.regions.append(region)

    def directive(self):
        tok = self.next()
        name = tok.text
        self.expect("(")
        if name == "parallelize":
            var = self.ident()
            self.expect(",")
            factor = self.integer()
            if factor < 2:
                self.fail("parallelize factor must be at least 2", tok)
            if var in dict(self.schedule.parallelize):
                self.fail(f"{var!r} is parallelized twice", tok)
            self.schedule.parallelize.append((var, factor))
        elif name == "block":
            if self.schedule.block is not None:
                self.fail("block(...) is given twice", tok)
            b1 = self.integer()
            self.expect(",")
            b2 = self.integer()
            if b1 < 1 or b2 < 1:
                self.fail("block extents must be >= 1")
            self.schedule.block = (b1, b2)
        elif name == "density":
            tensor = self.ident()
            if tensor in self.schedule.densities:
                self.fail(f"density of {tensor} is given twice", tok)
            self.expect(",")
            self.schedule.densities[tensor] = self.number()
        elif name == "rate":
            t1 = self.ident()
            self.expect(".")
            d1 = self.ident()
            self.expect(",")
            t2 = self.ident()
            self.expect(".")
            d2 = self.ident()
            rates = self.schedule.rates
            if (t1, d1, t2, d2) in rates or (t2, d2, t1, d1) in rates:
                self.fail(f"rate of {t1}.{d1} and {t2}.{d2} is given twice", tok)
            self.expect(",")
            rates[(t1, d1, t2, d2)] = self.number()
        self.expect(")")
        self.expect(";")

    def assignment(self):
        lhs = self.access()
        self.expect("=")
        body = self.add_expr()
        self.expect(";")
        self.expressions.append(Expression(lhs, body))

    def access(self) -> Access:
        name = self.ident()
        return Access(name, self.ident_list())

    def add_expr(self):
        node = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = Bin(op, node, self.mul_expr())
        return node

    def mul_expr(self):
        node = self.atom()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            node = Bin(op, node, self.atom())
        return node

    def atom(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            node = self.add_expr()
            self.expect(")")
            return node
        if t.kind == "number" or (t.text == "-" and self.peek(1).kind == "number"):
            return Literal(self.number())
        if t.kind == "ident" and self.peek(1).text == "(":
            if t.text == "scale":
                self.next()
                self.expect("(")
                c = Literal(self.number())
                self.expect(",")
                arg = self.add_expr()
                self.expect(")")
                return Call("scale", (c, arg))
            if t.text in POINTWISE_FNS or t.text == "max":
                fn = self.next().text
                self.expect("(")
                arg = self.add_expr()
                self.expect(")")
                return Call(fn, (arg,))
            return self.access()
        self.fail(f"unexpected {t.text or 'end of input'!r}")


def parse_program(src: str) -> EinsumProgram:
    return _Parser(src).parse()
