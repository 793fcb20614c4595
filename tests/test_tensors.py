"""Fibertree storage: construction, conversion, blocking, text I/O."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einstream.errors import (
    CoordinateOutOfBounds,
    DuplicateCoordinate,
    IllegalFormatCombination,
    TensorError,
)
from einstream.graph import DONE, DataflowGraph, Stop
from einstream.sim import engine
from einstream.sim.arrays import from_tokens
from einstream.tensors import (
    COMPRESSED,
    DENSE,
    ELEMENT_BYTES,
    INDEX_BYTES,
    CompressedLevel,
    DenseLevel,
    LevelSpec,
    SparseTensor,
    _from_arrays,
    block_tensor,
)

B_ENTRIES = [((0, 0), 2.0), ((0, 2), 3.0), ((1, 1), 4.0)]
B_DENSE = np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]])

CSR = [LevelSpec(DENSE), LevelSpec(COMPRESSED)]
CSF = [LevelSpec(COMPRESSED), LevelSpec(COMPRESSED)]


def test_csr_arrays():
    t = SparseTensor.from_coo((2, 3), B_ENTRIES, CSR)
    assert t.levels[0].size == 2
    assert t.levels[1].segments.tolist() == [0, 2, 3]
    assert t.levels[1].coords.tolist() == [0, 2, 1]
    assert t.values.tolist() == [2.0, 3.0, 4.0]


def test_csc_arrays():
    t = SparseTensor.from_coo((2, 3), B_ENTRIES, CSR, mode_order=(1, 0))
    assert t.levels[0].size == 3
    assert t.levels[1].segments.tolist() == [0, 1, 2, 3]
    assert t.levels[1].coords.tolist() == [0, 1, 0]
    assert t.values.tolist() == [2.0, 4.0, 3.0]


def test_to_dense_round_trip():
    for fmts in (CSR, CSF, [LevelSpec(DENSE), LevelSpec(DENSE)]):
        for order in ((0, 1), (1, 0)):
            t = SparseTensor.from_coo((2, 3), B_ENTRIES, fmts, order)
            np.testing.assert_array_equal(t.to_dense(), B_DENSE)


def test_permute_csr_to_csc():
    csr = SparseTensor.from_coo((2, 3), B_ENTRIES, CSR)
    csc = csr.permute_modes((1, 0))
    assert csc.levels[1].segments.tolist() == [0, 1, 2, 3]
    assert csc.values.tolist() == [2.0, 4.0, 3.0]
    np.testing.assert_array_equal(csc.to_dense(), B_DENSE)


def test_explicit_zero_preserved():
    t = SparseTensor.from_coo((2, 2), [((0, 1), 0.0)], CSF)
    assert t.nnz == 1
    assert t.values.tolist() == [0.0]
    coords, vals = t.coo()
    assert (coords.tolist(), vals.tolist()) == ([[0, 1]], [0.0])


@pytest.mark.parametrize("fill", [0.5, -0.0], ids=["half", "negative_zero"])
def test_a_tensor_refuses_every_fill_but_zero(fill):
    # A = [[0.5, 1], [0.5, 0.5]] with fill 0.5 stores only A[0, 1]; the
    # simulator reads an absent entry as 0.0, so y(i) = A(i, k) * x(k) at
    # x = [1, 1] would come out [1, 0], not [1.5, 1]
    a = SparseTensor.from_coo((2, 2), [((0, 1), 1.0)], CSR)
    with pytest.raises(TensorError, match="an absent entry is 0.0"):
        SparseTensor(a.shape, a.mode_order, a.levels, a.values, fill)
    assert SparseTensor(a.shape, a.mode_order, a.levels, a.values, 0.0) == a
    with pytest.raises(TypeError):
        SparseTensor.from_dense([[0.5, 1.0], [0.5, 0.5]], CSR, fill=fill)


def test_duplicate_rejected():
    with pytest.raises(DuplicateCoordinate):
        SparseTensor.from_coo((2, 2), [((0, 0), 1.0), ((0, 0), 2.0)], CSR)


def test_out_of_bounds_rejected():
    with pytest.raises(CoordinateOutOfBounds):
        SparseTensor.from_coo((2, 2), [((0, 5), 1.0)], CSR)


def test_bad_format_count():
    with pytest.raises(IllegalFormatCombination):
        SparseTensor.from_coo((2, 2), [], [LevelSpec(DENSE)])


def test_block_diagonal_stores_two_blocks():
    entries = [((i, j), 1.0 + i + j) for i in range(4) for j in range(4) if i // 2 == j // 2]
    t = SparseTensor.from_coo((4, 4), entries, CSF).block((2, 2))
    assert t.is_blocked
    assert t.values.shape == (2, 2, 2)
    np.testing.assert_array_equal(
        t.to_dense(),
        SparseTensor.from_coo((4, 4), entries, CSF).to_dense(),
    )


def test_block_unblock_identity():
    rng = np.random.default_rng(7)
    dense = np.where(rng.random((4, 6)) < 0.4, rng.random((4, 6)), 0.0)
    base = SparseTensor.from_dense(dense, CSF)
    blocked = base.block((2, 3))
    np.testing.assert_allclose(blocked.to_dense(), dense)
    np.testing.assert_allclose(blocked.unblock(CSF).to_dense(), dense)


def test_only_block_tensor_builds_a_block_leaf():
    # a block is a value of the grid, not a level kind
    with pytest.raises(IllegalFormatCombination, match="unknown level kind 'blocked'"):
        LevelSpec("blocked")


def test_block_requires_divisible_extents():
    t = SparseTensor.from_coo((3, 3), [((0, 0), 1.0)], CSF)
    with pytest.raises(IllegalFormatCombination):
        t.block((2, 2))


def _random_tensor(rng, ndim):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    density = float(rng.uniform(0.01, 1.0))
    coords = [
        idx
        for idx in itertools.product(*(range(s) for s in shape))
        if rng.random() < density
    ]
    entries = [(c, float(rng.uniform(0.5, 2.0))) for c in coords]
    kinds = [str(rng.choice([DENSE, COMPRESSED])) for _ in range(ndim)]
    order = tuple(rng.permutation(ndim).tolist())
    t = SparseTensor.from_coo(shape, entries, [LevelSpec(k) for k in kinds], order)
    return t, shape, entries


def test_random_formats_against_dense_reference():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        ndim = int(rng.integers(1, 5))
        t, shape, entries = _random_tensor(rng, ndim)
        ref = np.zeros(shape)
        for c, v in entries:
            ref[c] = v
        np.testing.assert_array_equal(t.to_dense(), ref)
        # permutation preserves content
        perm = tuple(rng.permutation(ndim).tolist())
        np.testing.assert_array_equal(t.permute_modes(perm).to_dense(), ref)


def _loop_from_coo(shape, entries, formats, mode_order):
    """Reference construction: group entries fiber by fiber in Python."""
    rows = sorted((tuple(c[m] for m in mode_order), float(v)) for c, v in entries)
    levels, fibers = [], [rows]
    for d, spec in enumerate(formats):
        size = shape[mode_order[d]]
        nxt, segments, coords = [], [0], []
        for fib in fibers:
            groups: dict = {c: [] for c in range(size)} if spec.kind == DENSE else {}
            for row in fib:
                groups.setdefault(row[0][d], []).append(row)
            for c in sorted(groups):
                coords.append(c)
                nxt.append(groups[c])
            segments.append(len(coords))
        if spec.kind == DENSE:
            levels.append(DenseLevel(size))
        else:
            levels.append(CompressedLevel(segments, coords))
        fibers = nxt
    values = [fib[0][1] if fib else 0.0 for fib in fibers]
    return SparseTensor(shape, mode_order, levels, values)


def test_from_coo_matches_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ndim = int(rng.integers(1, 4))
        _, shape, entries = _random_tensor(rng, ndim)
        entries = [(c, 0.0 if rng.random() < 0.2 else v) for c, v in entries]
        rng.shuffle(entries)
        kinds = rng.choice([DENSE, COMPRESSED], size=ndim)
        formats = [LevelSpec(str(k)) for k in kinds]
        order = tuple(rng.permutation(ndim).tolist())
        got = SparseTensor.from_coo(shape, entries, formats, order)
        want = _loop_from_coo(shape, entries, formats, order)
        assert got == want
        assert [lvl.kind for lvl in got.levels] == [f.kind for f in formats]


def test_values_are_immutable():
    t = SparseTensor.from_coo((2, 3), B_ENTRIES, CSR)
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_block_keeps_every_block_holding_a_stored_slot():
    dense = np.zeros((4, 4))
    dense[1, 2] = 3.0
    padded = SparseTensor.from_dense(dense, [LevelSpec(DENSE), LevelSpec(DENSE)])
    assert padded.block((2, 2)).values.shape == (4, 2, 2)
    assert SparseTensor.from_dense(dense, CSF).block((2, 2)).values.shape == (1, 2, 2)


def test_blocked_tensor_without_blocks():
    t = SparseTensor.from_coo((4, 6), [], CSF).block((2, 3))
    assert t.values.shape == (0, 2, 3)
    coords, vals = t.coo()
    assert coords.shape == (0, 2) and vals.shape == (0,)
    np.testing.assert_array_equal(t.to_dense(), np.zeros((4, 6)))
    assert t.unblock(CSF) == SparseTensor.from_coo((4, 6), [], CSF)
    assert t.block((2, 3)) == t


# --- loop references of the array walk ------------------------------------


def _loop_walk(t):
    """Reference walk: (storage coords, leaf position) of every stored leaf
    slot, one generator frame per fiber."""

    def rec(depth, parent_pos, prefix):
        if depth == len(t.levels):
            yield prefix, parent_pos
            return
        lvl = t.levels[depth]
        if lvl.kind == DENSE:
            for c in range(lvl.size):
                yield from rec(depth + 1, parent_pos * lvl.size + c, prefix + (c,))
        else:
            for p in range(lvl.segments[parent_pos], lvl.segments[parent_pos + 1]):
                yield from rec(depth + 1, int(p), prefix + (int(lvl.coords[p]),))

    yield from rec(0, 0, ())


def _loop_entries(t):
    """Reference ``coo()`` as (logical coords, value) pairs: the nonzero
    slots of stored blocks, or every stored slot of an unblocked tensor, in
    storage order."""
    out = []
    for scoords, pos in _loop_walk(t):
        if t.is_blocked:
            block = t.values[pos]
            bs = t.values.shape[1:]
            for intra in itertools.product(*(range(b) for b in bs)):
                v = float(block[intra])
                if v != 0.0:
                    logical = [0] * t.ndim
                    for d, m in enumerate(t.mode_order):
                        logical[m] = scoords[d] * bs[m] + intra[m]
                    out.append((tuple(logical), v))
        else:
            logical = [0] * t.ndim
            for d, m in enumerate(t.mode_order):
                logical[m] = scoords[d]
            out.append((tuple(logical), float(t.values[pos])))
    return out


def _loop_to_dense(t):
    out = np.zeros(t.shape)
    for coords, val in _loop_entries(t):
        out[coords] = val
    return out


def _loop_block_tensor(t, block_shape, outer_formats=None):
    """Reference ``block_tensor``: a dict of blocks, then a walk of the
    marker chain."""
    if t.is_blocked:
        unblocked = [LevelSpec(COMPRESSED)] * t.ndim
        t = SparseTensor.from_coo(t.shape, _loop_entries(t), unblocked, t.mode_order)
    if outer_formats is None:
        outer_formats = [LevelSpec(DENSE)] + [LevelSpec(COMPRESSED)] * (t.ndim - 1)
        if t.ndim == 1:
            outer_formats = [LevelSpec(COMPRESSED)]
    grid = tuple(t.shape[m] // block_shape[m] for m in range(t.ndim))
    blocks = {}
    for coords, val in _loop_entries(t):
        bidx = tuple(coords[m] // block_shape[m] for m in range(t.ndim))
        intra = tuple(coords[m] % block_shape[m] for m in range(t.ndim))
        blocks.setdefault(bidx, np.zeros(block_shape)).__setitem__(intra, val)
    marker = SparseTensor.from_coo(grid, [(b, 1.0) for b in blocks], outer_formats, t.mode_order)
    logical_blocks = []
    for scoords, _pos in _loop_walk(marker):
        logical = [0] * t.ndim
        for d, m in enumerate(marker.mode_order):
            logical[m] = scoords[d]
        logical_blocks.append(tuple(logical))
    vals = (
        np.stack([blocks.get(b, np.zeros(block_shape)) for b in logical_blocks])
        if logical_blocks
        else np.zeros((0, *block_shape))
    )
    return SparseTensor(t.shape, t.mode_order, marker.levels, vals)


def _loop_expand_blocks(records, mode_order, block_shape, block_perm):
    """Reference of the blocked writer reconstruction: (storage block
    coords, block in stream layout) records to logical entries, one
    ``np.nonzero`` per block."""
    ndim = len(mode_order)
    out = []
    for storage_crds, block in records:
        logical_block = [0] * ndim
        for d, c in enumerate(storage_crds):
            logical_block[mode_order[d]] = c
        arr = np.asarray(block)
        if block_perm:
            arr = np.transpose(arr, block_perm)
        for off in zip(*np.nonzero(arr)):
            coords = tuple(logical_block[m] * block_shape[m] + off[m] for m in range(ndim))
            out.append((coords, float(arr[off])))
    return out


def _writer_transcripts(t, block_perm):
    """What the writers of a blocked graph record for ``t``: per level
    its coordinates, where ``Stop(k)`` closes k + 1 levels between sibling
    fibers, and the blocks in stream layout (axis ``block_perm[m]`` holds
    logical mode m)."""
    def fiber(d, pos):
        lvl = t.levels[d]
        if lvl.kind == DENSE:
            return [(c, pos * lvl.size + c) for c in range(lvl.size)]
        return [(int(lvl.coords[p]), p) for p in range(lvl.segments[pos], lvl.segments[pos + 1])]

    def tokens(d, level, pos):
        if d == level:
            return [c for c, _ in fiber(d, pos)]
        out = []
        for i, (_, child) in enumerate(fiber(d, pos)):
            if i:
                out.append(Stop(level - d - 1))
            out += tokens(d + 1, level, child)
        return out

    crds = [tokens(0, d, 0) + [DONE] for d in range(len(t.levels))]
    stream = np.argsort(block_perm)
    records = [(sc, np.transpose(t.values[pos], stream)) for sc, pos in _loop_walk(t)]
    return crds, records


def _assert_same_bytes(got, want):
    assert (got.shape, got.mode_order) == (want.shape, want.mode_order)
    assert [type(lvl) for lvl in got.levels] == [type(lvl) for lvl in want.levels]
    for a, b in zip(got.levels, want.levels):
        if isinstance(a, CompressedLevel):
            assert a.segments.tobytes() == b.segments.tobytes()
            assert a.coords.tobytes() == b.coords.tobytes()
        else:
            assert a == b
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


def _assert_walk_matches_loop(t):
    want = _loop_entries(t)
    coords, vals = t.coo()
    want_coords = np.array([c for c, _ in want], dtype=np.int64).reshape(len(want), t.ndim)
    assert coords.dtype == np.int64 and coords.shape == want_coords.shape
    assert coords.tobytes() == want_coords.tobytes()
    assert vals.tobytes() == np.array([v for _, v in want], dtype=np.float64).tobytes()
    assert t.to_dense().tobytes() == _loop_to_dense(t).tobytes()


KINDS = st.sampled_from([DENSE, COMPRESSED])


@st.composite
def walk_cases(draw):
    """A tensor of rank 1-3 with a block shape dividing its extents, plus
    the formats, mode orders and stream layout to convert it with."""
    ndim = draw(st.integers(1, 3))
    block = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    shape = tuple(b * draw(st.integers(1, 3)) for b in block)
    size = int(np.prod(shape))
    cells = sorted(draw(st.sets(st.integers(0, size - 1), max_size=size)))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 0.25])
    entries = [
        (tuple(int(i) for i in np.unravel_index(c, shape)), draw(values)) for c in cells
    ]
    draw(st.randoms()).shuffle(entries)

    def formats():
        return [LevelSpec(k) for k in draw(st.lists(KINDS, min_size=ndim, max_size=ndim))]

    def order():
        return tuple(draw(st.permutations(range(ndim))))

    t = SparseTensor.from_coo(shape, entries, formats(), order())
    outer = formats() if draw(st.booleans()) else None
    return t, block, outer, order(), formats(), order()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(walk_cases())
def test_array_walk_matches_loop_reference(case):
    t, block, outer, new_order, new_formats, block_perm = case
    _assert_walk_matches_loop(t)
    _assert_same_bytes(
        t.permute_modes(new_order, new_formats),
        SparseTensor.from_coo(t.shape, _loop_entries(t), new_formats, new_order),
    )
    _assert_same_bytes(block_tensor(t, block), _loop_block_tensor(t, block))
    # the rest also covers block grids in other formats, which only the
    # reference builds
    blocked = _loop_block_tensor(t, block, outer)
    _assert_walk_matches_loop(blocked)
    _assert_same_bytes(
        blocked.unblock(new_formats),
        SparseTensor.from_coo(t.shape, _loop_entries(blocked), new_formats, t.mode_order),
    )
    _assert_same_bytes(blocked.block(block), _loop_block_tensor(blocked, block))

    # the blocked writer reconstruction of the same blocks: a scalar tensor
    # in the writer's formats, charged the bytes of the blocks that hold a
    # nonzero, stored under those formats
    crds, records = _writer_transcripts(blocked, block_perm)
    g = DataflowGraph()
    nodes = {}
    for d, recs in enumerate(crds):
        nodes[g.add("write_crd", f"w{d}", tensor="T", level=d)] = SimpleNamespace(
            records=from_tokens(recs)
        )
    kinds = [lvl.kind for lvl in blocked.levels]
    params = dict(tensor="T", shape=t.shape, mode_order=t.mode_order, formats=kinds)
    vid = g.add("write_val", "wv", block_shape=block, block_perm=block_perm, **params)
    nodes[vid] = SimpleNamespace(records=from_tokens([blk for _, blk in records] + [DONE]))
    outputs, bytes_written = engine._finalize(g, nodes)
    entries = _loop_expand_blocks(records, t.mode_order, block, block_perm)
    formats = [LevelSpec(k) for k in kinds]
    _assert_same_bytes(
        outputs["T"], SparseTensor.from_coo(t.shape, entries, formats, t.mode_order)
    )
    scalar = SparseTensor.from_coo(
        t.shape, entries, [LevelSpec(COMPRESSED)] * t.ndim, t.mode_order
    )
    stored = _loop_block_tensor(scalar, block, formats)
    assert bytes_written == (
        stored.values.size * ELEMENT_BYTES + stored.metadata_elems * INDEX_BYTES
    )


@st.composite
def dense_cases(draw):
    """A dense array of rank 1-3 holding -0.0 and explicit zeros (or
    nothing but zeros), with formats and a mode order to compress it in."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 0.25])
    cells = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    formats = [LevelSpec(k) for k in draw(st.lists(KINDS, min_size=ndim, max_size=ndim))]
    return np.array(cells).reshape(shape), formats, tuple(draw(st.permutations(range(ndim))))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(dense_cases())
def test_from_dense_matches_from_arrays_on_the_nonzeros(case):
    """``from_dense`` skips the sort and checks of ``_from_arrays``, which
    the nonzeros of an array in storage order cannot fail."""
    arr, formats, mode_order = case
    at = np.nonzero(arr)
    want = _from_arrays(arr.shape, np.stack(at, axis=1), arr[at], formats, mode_order)
    _assert_same_bytes(SparseTensor.from_dense(arr, formats, mode_order), want)
