"""Fibertree sparse tensor storage.

A tensor is stored as a chain of per-mode levels in storage (mode) order plus a
flat value array.  Level kinds:

 - dense: positions are implicit (parent * size + coord), no arrays stored
 - compressed: segment pointers per parent position plus sorted coordinates,
   unique within a fiber

CSR is dense->compressed, CSC the same after permuting modes, CSF compressed on
all modes.  An absent entry is 0.0 in every tensor, as it is to every node
of the simulator.  A blocked tensor is its block grid: its levels index
blocks, one per mode, and its values are ``(blocks, *block_shape)``, one
dense block per stored grid position, so the block shape lives only in
``values.shape[1:]``.

``SparseTensor.coo()`` is the one walk over the levels: ``to_dense``,
``permute_modes``, ``unblock``, ``block_tensor`` and the simulator's
writer reconstruction (``sim.engine._finalize``) read a tensor through it
as whole arrays.  ``_from_arrays`` builds every unblocked tensor from such
arrays, and ``from_dense`` from an array's nonzeros, both through one level
builder (``_build``); blocked tensors come only from ``block_tensor`` and
blocked writers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoordinateOutOfBounds,
    DuplicateCoordinate,
    IllegalFormatCombination,
    TensorError,
)

DENSE = "dense"
COMPRESSED = "compressed"

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


class CompressedLevel:
    kind = COMPRESSED

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


@dataclass(frozen=True)
class LevelSpec:
    """Declared format of one storage level (frontend-facing)."""

    kind: str

    def __post_init__(self):
        if self.kind not in (DENSE, COMPRESSED):
            raise IllegalFormatCombination(f"unknown level kind {self.kind!r}")


class SparseTensor:
    """Immutable fibertree tensor.

    :param shape: logical extents, logical mode order.
    :param mode_order: permutation; storage level ``d`` holds logical mode
        ``mode_order[d]``; for a blocked tensor it indexes blocks.
    :param values: one value per leaf position, or one block per leaf
        position, ``(positions, *block_shape)``, for a blocked tensor.
    :param fill: the value of an absent entry; only +0.0 is accepted.
    """

    fill = 0.0

    def __init__(self, shape, mode_order, levels, values, fill: float = 0.0):
        if not (fill == 0.0 and math.copysign(1.0, fill) > 0):
            raise TensorError(f"fill {fill!r}: an absent entry is 0.0")
        self.shape = tuple(int(s) for s in shape)
        self.mode_order = tuple(int(m) for m in mode_order)
        self.levels = list(levels)
        self.values = _frozen(np.asarray(values, dtype=np.float64))
        self._check()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_coo(
        shape: Sequence[int],
        entries: Iterable[tuple[tuple[int, ...], float]],
        formats: Sequence[LevelSpec],
        mode_order: Sequence[int] | None = None,
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
        return _from_arrays(shape, crd, vals, formats, mode_order)

    @staticmethod
    def from_dense(
        array,
        formats: Sequence[LevelSpec] | None = None,
        mode_order: Sequence[int] | None = None,
    ) -> "SparseTensor":
        """Compress a dense array, dropping its zeros (-0.0 included).  The
        nonzeros of the array in storage order come out sorted and unique,
        so they go to the levels as they are."""
        arr = np.asarray(array, dtype=np.float64)
        if formats is None:
            formats = [LevelSpec(COMPRESSED)] * arr.ndim
        mode_order, formats = _layout(arr.ndim, formats, mode_order)
        stored = arr.transpose(mode_order)
        at = np.nonzero(stored)
        return _build(arr.shape, mode_order, formats, at, stored[at])

    # -- views -------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_blocked(self) -> bool:
        return self.values.ndim > 1

    @property
    def nnz(self) -> int:
        """Stored scalar slots (block slots included)."""
        return int(self.values.size)

    @property
    def formats(self) -> tuple[LevelSpec, ...]:
        return tuple(LevelSpec(lvl.kind) for lvl in self.levels)

    @property
    def metadata_elems(self) -> int:
        return sum(lvl.metadata_elems for lvl in self.levels)

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Logical coordinates, ``(n, ndim)``, and values, ``(n,)``, of the
        stored entries in storage order.

        Blocked tensors give only the nonzero slots of stored blocks, row
        major within a block; unblocked tensors give every stored slot,
        including explicit zeros.  The walk goes level by level: a dense
        level repeats each parent position ``size`` times, a compressed
        level expands it into its segment.
        """
        pos = np.zeros(1, dtype=np.int64)
        scoords: list[np.ndarray] = []
        for lvl in self.levels:
            if lvl.kind == DENSE:
                fan = lvl.size
                crd = np.tile(np.arange(fan), len(pos))
                pos = (pos * fan).repeat(fan) + crd
            else:
                start = lvl.segments[pos]
                fan = lvl.segments[pos + 1] - start
                # parents' segments back to back; `first` is where each starts
                first = fan.cumsum() - fan
                pos = (start - first).repeat(fan) + np.arange(int(fan.sum()))
                crd = lvl.coords[pos]
            scoords = [c.repeat(fan) for c in scoords] + [crd]
        coords = np.empty((len(pos), self.ndim), dtype=np.int64)
        for d, m in enumerate(self.mode_order):
            coords[:, m] = scoords[d]
        vals = self.values[pos]
        if self.is_blocked:
            blk, *intra = np.nonzero(vals)
            bs = self.values.shape[1:]
            coords = coords[blk] * bs + np.stack(intra, axis=1)
            vals = vals[(blk, *intra)]
        return coords, vals

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        coords, vals = self.coo()
        out[tuple(coords.T)] = vals
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
        return _from_arrays(self.shape, *self.coo(), formats, new_mode_order)

    def block(self, block_shape: Sequence[int]) -> "SparseTensor":
        """Rebuild as a grid of dense blocks.

        A block is stored iff it holds a stored slot of this tensor, even
        when every such slot holds zero: explicit zeros and the padding of
        a dense level count.  So a 4x4 dense->dense tensor with one nonzero
        stores all four of its 2x2 blocks, and the same tensor stored
        compressed on both modes stores one.
        """
        return block_tensor(self, block_shape)

    def unblock(self, formats: Sequence[LevelSpec] | None = None) -> "SparseTensor":
        if not self.is_blocked:
            return self
        if formats is None:
            formats = [LevelSpec(COMPRESSED)] * self.ndim
        return _from_arrays(self.shape, *self.coo(), formats, self.mode_order)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.shape == other.shape
            and self.mode_order == other.mode_order
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
        if len(self.levels) != self.ndim or self.values.ndim not in (1, self.ndim + 1):
            raise IllegalFormatCombination(
                f"{len(self.levels)} levels and {self.values.ndim}-d values for"
                f" {self.ndim} modes; values are flat, or (blocks, *block_shape)"
            )


def _layout(ndim, formats, mode_order) -> tuple[tuple[int, ...], list]:
    """``mode_order`` (identity if None) and ``formats``, checked against
    ``ndim`` modes."""
    mode_order = tuple(range(ndim)) if mode_order is None else tuple(mode_order)
    if sorted(mode_order) != list(range(ndim)):
        raise IllegalFormatCombination(f"mode_order {mode_order} is not a permutation")
    formats = list(formats)
    if len(formats) != ndim:
        raise IllegalFormatCombination(f"{len(formats)} level formats for {ndim} modes")
    return mode_order, formats


def _from_arrays(shape, crd, vals, formats, mode_order) -> SparseTensor:
    """``from_coo`` on an (entries, ndim) coordinate array and its values:
    bounds checked, sorted in storage order and checked for duplicates."""
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    mode_order, formats = _layout(ndim, formats, mode_order)
    outside = (crd < 0) | (crd >= np.array(shape, dtype=np.int64))
    if outside.any():
        coords = tuple(int(c) for c in crd[outside.any(axis=1).argmax()])
        raise CoordinateOutOfBounds(f"coordinate {coords} outside {shape}")
    sc = crd[:, list(mode_order)]
    order = np.lexsort(sc.T[::-1]) if ndim else np.arange(len(vals))
    sc, vals = sc[order], np.asarray(vals, dtype=np.float64)[order]
    same = (sc[1:] == sc[:-1]).all(axis=1)
    if same.any():
        coords = [0] * ndim
        for d, c in enumerate(sc[np.argmax(same)]):
            coords[mode_order[d]] = int(c)
        raise DuplicateCoordinate(f"duplicate entry at {tuple(coords)}")
    return _build(shape, mode_order, formats, sc.T, vals)


def _build(shape, mode_order, formats, cols, vals) -> SparseTensor:
    """The tensor of distinct entries sorted in storage order: ``cols[d]``
    holds their coordinates at storage level ``d``.

    Level by level, each entry's position is its parent's position times
    the extent plus its coordinate (dense), or the rank of its distinct
    (parent, coordinate) pair (compressed), which keeps positions sorted.
    """
    levels = []
    pos = np.zeros(len(vals), dtype=np.int64)
    npos = 1
    for d, spec in enumerate(formats):
        size = shape[mode_order[d]]
        c = cols[d]
        if spec.kind == DENSE:
            levels.append(DenseLevel(size))
            pos = pos * size + c
            npos *= size
        else:
            new = np.ones(len(c), dtype=bool)
            new[1:] = (pos[1:] != pos[:-1]) | (c[1:] != c[:-1])
            segments = pos[new].searchsorted(np.arange(npos + 1))
            levels.append(CompressedLevel(segments, c[new]))
            pos = new.cumsum() - 1
            npos = int(segments[-1])
    values = np.zeros(npos)
    values[pos] = vals
    return SparseTensor(shape, mode_order, levels, values)


def block_tensor(t: SparseTensor, block_shape: Sequence[int]) -> SparseTensor:
    """Group a tensor into dense blocks; the block grid is stored dense on
    its outermost level and compressed below (compressed if 1-D)."""
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
    outer_formats = [LevelSpec(COMPRESSED)] * t.ndim
    if t.ndim > 1:
        outer_formats[0] = LevelSpec(DENSE)

    grid = tuple(t.shape[m] // block_shape[m] for m in range(t.ndim))
    coords, vals = t.coo()
    # Each entry's block as one key, its rank in storage order: the sorted
    # distinct keys are the stored blocks in the order the outer level
    # chain (one unit payload per block) stores them, and the index of an
    # entry's key among them is its block's position.
    mo = list(t.mode_order)
    sgrid = [grid[m] for m in mo]
    keys = np.ravel_multi_index(tuple((coords[:, mo] // [block_shape[m] for m in mo]).T), sgrid)
    stored, at = np.unique(keys, return_inverse=True)
    bcoords = np.empty((len(stored), t.ndim), dtype=np.int64)
    bcoords[:, mo] = np.stack(np.unravel_index(stored, sgrid), axis=1)
    marker = _from_arrays(grid, bcoords, np.ones(len(stored)), outer_formats, t.mode_order)
    blocks = np.zeros((len(stored), *block_shape))
    blocks[(at, *(coords % block_shape).T)] = vals
    return SparseTensor(t.shape, t.mode_order, marker.levels, blocks)
