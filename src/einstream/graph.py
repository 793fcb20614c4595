"""Streaming dataflow graph: tokens, node taxonomy, wiring, serialization.

A graph is a DAG of streaming primitives connected by typed channels.
Streams carry data tokens (coordinates, positions into the next level, or
values) punctuated by Stop(level) markers and a final Done:

* ``Stop(k)`` closes fiber levels 0..k at one point; adjacent stops are
  legal and encode empty fibers.
* The final fiber's closing stop is implicit in Done, so no stream ends
  with a stop directly before Done.
* A level-k group therefore contains one more fiber than it has stops of
  level >= its own nesting strictly inside it.

Node kinds
----------
root       emits a single position then Done; seeds outermost scanners
scan       expands parent positions into (coordinate, position) pairs for
           one storage level; adds one nesting level
vals       turns positions into stored values (absent position -> 0.0)
repeat     repeats its current data element once per control token;
           advances on control stops
intersect  co-iterates two (crd, payload) fibers, keeping matches
union      co-iterates two fibers, keeping all coordinates; absent side
           yields a null payload
alu        zips two value streams through an arithmetic op
map        applies a pointwise function to one value stream
reduce     folds the innermost fiber level to one value per fiber
red1       coordinate-keyed reduction: merges sibling fibers across the
           reduced level, keeping one surviving inner level
crddrop    removes coordinates whose inner group or value is empty/zero
write_crd  records one coordinate level of a result
write_val  records result values
par        splits a stream bundle round-robin across copies
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .errors import GraphError


# --- tokens ---------------------------------------------------------------


class Stop:
    """Closes fiber levels 0..level at a single stream point."""

    __slots__ = ("level",)
    _cache: dict[int, "Stop"] = {}

    def __new__(cls, level: int):
        tok = cls._cache.get(level)
        if tok is None:
            tok = object.__new__(cls)
            tok.level = level
            cls._cache[level] = tok
        return tok

    def __repr__(self):
        return f"S{self.level}"


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


DONE = _Sentinel("Done")
NULL = _Sentinel("Null")  # absent position (e.g. missing side of a union)


# --- graph ----------------------------------------------------------------

CRD, REF, VAL = "crd", "ref", "val"

_C, _R, _V = (CRD,), (REF,), (VAL,)
_RV = (REF, VAL)  # payload ports carry positions or values
_CV = (CRD, VAL)
_JOIN = (
    {"crd0": _C, "p0": _RV, "crd1": _C, "p1": _RV},
    {"crd": _C, "p0": _RV, "p1": _RV},
)

# kind -> (input ports, output ports), each port -> the stream kinds it carries
_PORTS = {
    "root": ({}, {"ref": _R}),
    "scan": ({"ref": _R}, {"crd": _C, "ref": _R}),
    "vals": ({"ref": _R}, {"val": _V}),
    "repeat": ({"data": _RV, "ctrl": _C}, {"out": _RV}),
    "intersect": _JOIN,
    "union": _JOIN,
    "alu": ({"in0": _V, "in1": _V}, {"out": _V}),
    "map": ({"in": _V}, {"out": _V}),
    "reduce": ({"in": _V}, {"out": _V}),
    "red1": ({"crd": _C, "val": _V}, {"crd": _C, "val": _V}),
    "crddrop": ({"outer": _C, "inner": _CV}, {"outer": _C, "inner": _CV}),
    "write_crd": ({"crd": _C}, {}),
    "write_val": ({"val": _V}, {}),
}


def node_ports(kind: str, params: dict) -> tuple[dict, dict]:
    """(input ports, output ports) of a node, each port -> its stream kinds."""
    if kind == "par":  # copies of a stream bundle carry any kind
        n, f = params["nstreams"], params["factor"]
        anykind = (CRD, REF, VAL)
        ins = {f"in{i}": anykind for i in range(n)}
        return ins, {f"out{k}_{i}": anykind for k in range(f) for i in range(n)}
    if kind not in _PORTS:
        raise GraphError(f"unknown node kind {kind!r}")
    return _PORTS[kind]


@dataclass(frozen=True)
class Edge:
    src: str
    src_port: str
    dst: str
    dst_port: str
    kind: str  # crd | ref | val


@dataclass
class Node:
    id: str
    kind: str
    params: dict = field(default_factory=dict)


class DataflowGraph:
    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []

    def add(self, kind: str, name_hint: str | None = None, **params) -> str:
        base = name_hint or kind
        nid = base
        k = 1
        while nid in self.nodes:
            nid = f"{base}_{k}"
            k += 1
        node_ports(kind, params)  # raises for unknown kinds
        self.nodes[nid] = Node(nid, kind, params)
        return nid

    def connect(self, src: str, src_port: str, dst: str, dst_port: str, kind: str):
        for nid, role in ((src, "source"), (dst, "destination")):
            if nid not in self.nodes:
                raise GraphError(f"{role} node {nid!r} does not exist")
        sn, dn = self.nodes[src], self.nodes[dst]
        s_out = node_ports(sn.kind, sn.params)[1]
        d_in = node_ports(dn.kind, dn.params)[0]
        if src_port not in s_out:
            raise GraphError(f"{src}:{src_port} is not an output port")
        if dst_port not in d_in:
            raise GraphError(f"{dst}:{dst_port} is not an input port")
        if kind not in s_out[src_port]:
            raise GraphError(f"{src}:{src_port} cannot carry {kind} streams")
        if kind not in d_in[dst_port]:
            raise GraphError(f"{dst}:{dst_port} cannot carry {kind} streams")
        self.edges.append(Edge(src, src_port, dst, dst_port, kind))

    def validate(self) -> list[str]:
        """Check every input port has exactly one edge and the graph is
        acyclic; returns the node ids in topological order."""
        seen_dst = set()
        for e in self.edges:
            key = (e.dst, e.dst_port)
            if key in seen_dst:
                raise GraphError(f"{e.dst}:{e.dst_port} has multiple incoming edges")
            seen_dst.add(key)
        for node in self.nodes.values():
            ins, _ = node_ports(node.kind, node.params)
            for p in ins:
                if (node.id, p) not in seen_dst:
                    raise GraphError(f"{node.id}:{p} is not connected")
        return self.topo_order()

    def topo_order(self) -> list[str]:
        succ: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        indeg: dict[str, int] = {nid: 0 for nid in self.nodes}
        for e in self.edges:
            if e.dst not in succ[e.src]:
                succ[e.src].add(e.dst)
                indeg[e.dst] += 1
        # Kahn's algorithm, always taking the smallest ready id
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for m in succ[nid]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        return order

    # -- serialization --

    def to_json(self) -> str:
        """Nodes and edges in insertion order, in which the simulator numbers
        channels, so that ``from_json`` gives a graph that runs the same."""
        doc = {
            "version": 1,
            "nodes": [
                {"id": n.id, "kind": n.kind, "params": _jsonable(n.params)}
                for n in self.nodes.values()
            ],
            "edges": [
                {
                    "src": [e.src, e.src_port],
                    "dst": [e.dst, e.dst_port],
                    "kind": e.kind,
                }
                for e in self.edges
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DataflowGraph":
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise GraphError(f"unsupported graph version {doc.get('version')!r}")
        g = cls()
        for nd in doc["nodes"]:
            if nd["id"] in g.nodes:
                raise GraphError(f"duplicate node id {nd['id']!r}")
            params = {k: _tupled(v) for k, v in nd["params"].items()}
            g.add(nd["kind"], nd["id"], **params)
        for ed in doc["edges"]:
            g.connect(*ed["src"], *ed["dst"], ed["kind"])
        return g

    def to_dot(self) -> str:
        style = {CRD: "solid", REF: "dashed", VAL: "bold"}
        lines = ["digraph dataflow {", "  rankdir=TB;", "  node [shape=box];"]
        for n in sorted(self.nodes.values(), key=lambda n: n.id):
            label = n.id
            if n.kind == "alu":
                label = f"{n.id}\\n{n.params.get('op', '')}"
            elif n.kind in ("scan", "vals", "write_crd", "write_val"):
                label = f"{n.id}\\n{n.params.get('tensor', '')}"
            lines.append(f'  "{n.id}" [label="{label}"];')
        for e in sorted(self.edges, key=lambda e: (e.src, e.src_port, e.dst)):
            lines.append(
                f'  "{e.src}" -> "{e.dst}" '
                f'[style={style[e.kind]}, label="{e.src_port}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    if isinstance(value, dict):
        return {k: _tupled(v) for k, v in value.items()}
    return value
