"""Fibertree sparse tensor storage.

A tensor is stored as a chain of per-mode levels in storage (mode) order plus a
flat value array.  Level kinds:

 - dense: positions are implicit (parent * size + coord), no arrays stored
 - compressed: segment pointers per parent position plus sorted coordinates
 - coordinate: same arrays as compressed but tagged as a coordinate list
   (COO-style storage); coordinates are unique within a fiber here as well
 - block leaf: innermost level holding small dense blocks covering every mode

CSR is dense->compressed, CSC the same after permuting modes, CSF compressed on
all modes, COO coordinate on all modes.  Blocked tensors store one level per
mode indexing blocks plus a trailing block leaf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CoordinateOutOfBounds,
    DuplicateCoordinate,
    IllegalFormatCombination,
)

DENSE = "dense"
COMPRESSED = "compressed"
COORDINATE = "coordinate"
BLOCKED = "blocked"

INDEX_BYTES = 4
ELEMENT_BYTES = 8


def _frozen(a) -> np.ndarray:
    arr = np.asarray(a)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DenseLevel:
    size: int

    kind = DENSE

    @property
    def metadata_elems(self) -> int:
        return 0


class _ArrayLevel:
    """Common base for segment/coordinate array levels."""

    kind = ""

    def __init__(self, segments, coords):
        self.segments = _frozen(np.asarray(segments, dtype=np.int64))
        self.coords = _frozen(np.asarray(coords, dtype=np.int64))

    @property
    def metadata_elems(self) -> int:
        return len(self.segments) + len(self.coords)

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and np.array_equal(self.segments, other.segments)
            and np.array_equal(self.coords, other.coords)
        )

    def __repr__(self):
        return f"{type(self).__name__}(segments={self.segments.tolist()}, coords={self.coords.tolist()})"


class CompressedLevel(_ArrayLevel):
    kind = COMPRESSED


class CoordinateLevel(_ArrayLevel):
    kind = COORDINATE


@dataclass(frozen=True)
class BlockLeafLevel:
    """Dense rectangular blocks; covers the intra-block extent of every mode."""

    block_shape: tuple[int, ...]

    kind = BLOCKED

    @property
    def metadata_elems(self) -> int:
        return 0


@dataclass(frozen=True)
class LevelSpec:
    """Declared format of one storage level (frontend-facing)."""

    kind: str
    block_shape: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in (DENSE, COMPRESSED, COORDINATE, BLOCKED):
            raise IllegalFormatCombination(f"unknown level kind {self.kind!r}")
        if (self.kind == BLOCKED) != (self.block_shape is not None):
            raise IllegalFormatCombination("block_shape required iff kind is blocked")


class SparseTensor:
    """Immutable fibertree tensor.

    :param shape: logical extents, logical mode order.
    :param mode_order: permutation; storage level ``d`` holds logical mode
        ``mode_order[d]``.  For blocked tensors the trailing block leaf is not
        part of the permutation.
    """

    def __init__(self, shape, mode_order, levels, values, fill: float = 0.0):
        self.shape = tuple(int(s) for s in shape)
        self.mode_order = tuple(int(m) for m in mode_order)
        self.levels = list(levels)
        self.values = _frozen(np.asarray(values, dtype=np.float64))
        self.fill = float(fill)
        self._check()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_coo(
        shape: Sequence[int],
        entries: Iterable[tuple[tuple[int, ...], float]],
        formats: Sequence[LevelSpec],
        mode_order: Sequence[int] | None = None,
        fill: float = 0.0,
    ) -> "SparseTensor":
        """Build a tensor from coordinate/value pairs.

        Entries may arrive in any order; duplicates raise
        :class:`DuplicateCoordinate` and out-of-range coordinates raise
        :class:`CoordinateOutOfBounds`.  Explicitly stored zeros are preserved.
        """
        entries = list(entries)
        ndim = len(shape)
        for coords, _ in entries:
            if len(coords) != ndim:
                raise CoordinateOutOfBounds(f"entry rank {len(coords)} != {ndim}")
        crd = np.array([c for c, _ in entries], dtype=np.int64)
        crd = crd.reshape(len(entries), ndim)
        vals = np.array([v for _, v in entries], dtype=np.float64)
        return _from_arrays(shape, crd, vals, formats, mode_order, fill)

    @staticmethod
    def from_dense(
        array,
        formats: Sequence[LevelSpec] | None = None,
        mode_order: Sequence[int] | None = None,
        fill: float = 0.0,
    ) -> "SparseTensor":
        """Compress a dense array, dropping fill-valued entries."""
        arr = np.asarray(array, dtype=np.float64)
        if formats is None:
            formats = [LevelSpec(COMPRESSED)] * arr.ndim
        at = np.nonzero(arr != fill)
        crd = np.stack(at, axis=1)
        return _from_arrays(arr.shape, crd, arr[at], formats, mode_order, fill)

    # -- views -------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_blocked(self) -> bool:
        return bool(self.levels) and self.levels[-1].kind == BLOCKED

    @property
    def nnz(self) -> int:
        """Stored scalar slots (block slots included)."""
        return int(self.values.size)

    @property
    def formats(self) -> tuple[LevelSpec, ...]:
        out = []
        for lvl in self.levels:
            if lvl.kind == BLOCKED:
                out.append(LevelSpec(BLOCKED, lvl.block_shape))
            else:
                out.append(LevelSpec(lvl.kind))
        return tuple(out)

    @property
    def metadata_elems(self) -> int:
        return sum(lvl.metadata_elems for lvl in self.levels)

    def entries(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Stored entries in storage order as (logical coords, value).

        Blocked tensors yield only non-fill slots of stored blocks; unblocked
        tensors yield every stored slot, including explicit fill values.
        """
        for scoords, pos in self._walk():
            if self.is_blocked:
                block = self.values[pos]
                bs = self.levels[-1].block_shape
                for intra in itertools.product(*(range(b) for b in bs)):
                    v = float(block[intra])
                    if v != self.fill:
                        logical = [0] * self.ndim
                        for d, m in enumerate(self.mode_order):
                            logical[m] = scoords[d] * bs[m] + intra[m]
                        yield tuple(logical), v
            else:
                logical = [0] * self.ndim
                for d, m in enumerate(self.mode_order):
                    logical[m] = scoords[d]
                yield tuple(logical), float(self.values[pos])

    def _walk(self):
        """Yield (storage coords, leaf position) for every stored leaf slot."""

        def rec(depth: int, parent_pos: int, prefix: tuple[int, ...]):
            if depth == len(self.levels) or self.levels[depth].kind == BLOCKED:
                yield prefix, parent_pos
                return
            lvl = self.levels[depth]
            if lvl.kind == DENSE:
                for c in range(lvl.size):
                    yield from rec(depth + 1, parent_pos * lvl.size + c, prefix + (c,))
            else:
                for p in range(lvl.segments[parent_pos], lvl.segments[parent_pos + 1]):
                    yield from rec(depth + 1, int(p), prefix + (int(lvl.coords[p]),))

        yield from rec(0, 0, ())

    def to_dense(self) -> np.ndarray:
        out = np.full(self.shape, self.fill, dtype=np.float64)
        for coords, val in self.entries():
            out[coords] = val
        return out

    def permute_modes(
        self,
        new_mode_order: Sequence[int],
        formats: Sequence[LevelSpec] | None = None,
    ) -> "SparseTensor":
        """Materialize a copy stored in a different mode order."""
        if self.is_blocked:
            raise IllegalFormatCombination("cannot permute a blocked tensor")
        if formats is None:
            formats = self.formats
        return SparseTensor.from_coo(
            self.shape, list(self.entries()), formats, new_mode_order, self.fill
        )

    def block(self, block_shape: Sequence[int]) -> "SparseTensor":
        """Rebuild with a dense block leaf; a block is stored iff it holds a
        non-fill entry."""
        return block_tensor(self, block_shape)

    def unblock(self, formats: Sequence[LevelSpec] | None = None) -> "SparseTensor":
        if not self.is_blocked:
            return self
        if formats is None:
            formats = [LevelSpec(COMPRESSED)] * self.ndim
        return SparseTensor.from_coo(
            self.shape, list(self.entries()), formats, self.mode_order, self.fill
        )

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.shape == other.shape
            and self.mode_order == other.mode_order
            and self.fill == other.fill
            and len(self.levels) == len(other.levels)
            and all(a == b for a, b in zip(self.levels, other.levels))
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        kinds = "->".join(l.kind for l in self.levels)
        return (
            f"SparseTensor(shape={self.shape}, order={self.mode_order}, "
            f"levels={kinds}, nnz={self.nnz})"
        )

    def _check(self):
        if self.is_blocked:
            leaf = self.levels[-1]
            if len(self.levels) != self.ndim + 1:
                raise IllegalFormatCombination(
                    "blocked tensor needs one block-index level per mode plus the leaf"
                )
            if len(leaf.block_shape) != self.ndim:
                raise IllegalFormatCombination("block rank must equal tensor rank")
            if self.values.ndim != self.ndim + 1:
                raise IllegalFormatCombination("blocked values must be (blocks, *block)")
        else:
            if len(self.levels) != self.ndim:
                raise IllegalFormatCombination(
                    f"{len(self.levels)} levels for {self.ndim} modes"
                )
            if self.values.ndim != 1:
                raise IllegalFormatCombination("values must be a flat array")
        for lvl in self.levels[:-1] if self.is_blocked else self.levels:
            if lvl.kind == BLOCKED:
                raise IllegalFormatCombination("block leaf must be innermost")


def _from_arrays(shape, crd, vals, formats, mode_order, fill) -> SparseTensor:
    """``from_coo`` on an (entries, ndim) coordinate array and its values.

    Entries are sorted in storage order; level by level, each entry's
    position is then its parent's position times the extent plus its
    coordinate (dense), or the rank of its distinct (parent, coordinate)
    pair (compressed), which keeps positions sorted.
    """
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    if mode_order is None:
        mode_order = tuple(range(ndim))
    mode_order = tuple(mode_order)
    if sorted(mode_order) != list(range(ndim)):
        raise IllegalFormatCombination(f"mode_order {mode_order} is not a permutation")
    formats = list(formats)
    if any(f.kind == BLOCKED for f in formats):
        if formats[-1].kind != BLOCKED or any(f.kind == BLOCKED for f in formats[:-1]):
            raise IllegalFormatCombination(
                "blocked level must be the single innermost level"
            )
        base = _from_arrays(
            shape, crd, vals, [LevelSpec(COMPRESSED)] * ndim, mode_order, fill
        )
        return block_tensor(base, formats[-1].block_shape, outer_formats=formats[:-1])
    if len(formats) != ndim:
        raise IllegalFormatCombination(f"{len(formats)} level formats for {ndim} modes")

    outside = np.any((crd < 0) | (crd >= np.array(shape, dtype=np.int64)), axis=1)
    if outside.any():
        coords = tuple(int(c) for c in crd[np.argmax(outside)])
        raise CoordinateOutOfBounds(f"coordinate {coords} outside {shape}")
    sc = crd[:, list(mode_order)]
    order = np.lexsort(sc.T[::-1]) if ndim else np.arange(len(vals))
    sc, vals = sc[order], np.asarray(vals, dtype=np.float64)[order]
    same = np.all(sc[1:] == sc[:-1], axis=1)
    if same.any():
        coords = [0] * ndim
        for d, c in enumerate(sc[np.argmax(same)]):
            coords[mode_order[d]] = int(c)
        raise DuplicateCoordinate(f"duplicate entry at {tuple(coords)}")

    levels = []
    pos = np.zeros(len(vals), dtype=np.int64)
    npos = 1
    for d, spec in enumerate(formats):
        size = shape[mode_order[d]]
        c = sc[:, d]
        if spec.kind == DENSE:
            levels.append(DenseLevel(size))
            pos = pos * size + c
            npos *= size
        elif spec.kind in (COMPRESSED, COORDINATE):
            new = np.ones(len(c), dtype=bool)
            new[1:] = (pos[1:] != pos[:-1]) | (c[1:] != c[:-1])
            segments = np.searchsorted(pos[new], np.arange(npos + 1))
            cls = CompressedLevel if spec.kind == COMPRESSED else CoordinateLevel
            levels.append(cls(segments, c[new]))
            pos = np.cumsum(new) - 1
            npos = int(segments[-1])
        else:  # pragma: no cover - blocked handled above
            raise IllegalFormatCombination("blocked level must be innermost")
    values = np.full(npos, fill, dtype=np.float64)
    values[pos] = vals
    return SparseTensor(shape, mode_order, levels, values, fill)


def block_tensor(
    t: SparseTensor,
    block_shape: Sequence[int],
    outer_formats: Sequence[LevelSpec] | None = None,
) -> SparseTensor:
    """Group a tensor into dense blocks (outer levels index nonzero blocks)."""
    block_shape = tuple(int(b) for b in block_shape)
    if t.is_blocked:
        t = t.unblock()
    if len(block_shape) != t.ndim:
        raise IllegalFormatCombination("block rank must equal tensor rank")
    for m, b in enumerate(block_shape):
        if t.shape[m] % b != 0:
            raise IllegalFormatCombination(
                f"extent {t.shape[m]} not divisible by block {b} on mode {m}"
            )
    if outer_formats is None:
        if t.ndim == 1:
            outer_formats = [LevelSpec(COMPRESSED)]
        else:
            outer_formats = [LevelSpec(DENSE)] + [LevelSpec(COMPRESSED)] * (t.ndim - 1)
    outer_formats = list(outer_formats)
    if len(outer_formats) != t.ndim:
        raise IllegalFormatCombination("need one outer level per mode")

    grid = tuple(t.shape[m] // block_shape[m] for m in range(t.ndim))
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for coords, val in t.entries():
        bidx = tuple(coords[m] // block_shape[m] for m in range(t.ndim))
        intra = tuple(coords[m] % block_shape[m] for m in range(t.ndim))
        blocks.setdefault(bidx, np.full(block_shape, t.fill)).__setitem__(intra, val)

    # Build the outer level chain over block coordinates with a unit payload
    # per stored block, then attach block values in the same traversal order.
    marker = SparseTensor.from_coo(
        grid, [(b, 1.0) for b in blocks], outer_formats, t.mode_order, 0.0
    )
    logical_blocks = []
    for scoords, _pos in marker._walk():
        logical = [0] * t.ndim
        for d, m in enumerate(marker.mode_order):
            logical[m] = scoords[d]
        logical_blocks.append(tuple(logical))
    vals = (
        np.stack([blocks.get(b, np.full(block_shape, t.fill)) for b in logical_blocks])
        if logical_blocks
        else np.zeros((0, *block_shape))
    )
    return SparseTensor(
        t.shape,
        t.mode_order,
        list(marker.levels) + [BlockLeafLevel(block_shape)],
        vals,
        t.fill,
    )


# --- COO text files -------------------------------------------------------


def read_coo_text(path) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], float]]]:
    """Read the bundled text format: first line extents, then
    ``c0 c1 ... value`` lines; ``#`` starts a comment."""
    shape = None
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if shape is None:
                shape = tuple(int(p) for p in parts)
                continue
            if len(parts) != len(shape) + 1:
                raise CoordinateOutOfBounds(
                    f"line {line!r} does not match rank {len(shape)}"
                )
            entries.append((tuple(int(p) for p in parts[:-1]), float(parts[-1])))
    if shape is None:
        raise CoordinateOutOfBounds(f"{path}: empty tensor file")
    return shape, entries


def write_coo_text(path, tensor: SparseTensor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(s) for s in tensor.shape) + "\n")
        for coords, val in sorted(tensor.entries()):
            fh.write(" ".join(str(c) for c in coords) + f" {val!r}\n")

