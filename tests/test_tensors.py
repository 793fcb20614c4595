"""Fibertree storage: construction, conversion, blocking, text I/O."""

import itertools

import numpy as np
import pytest

from einstream.errors import (
    CoordinateOutOfBounds,
    DuplicateCoordinate,
    IllegalFormatCombination,
)
from einstream.tensors import (
    COMPRESSED,
    COORDINATE,
    DENSE,
    CompressedLevel,
    CoordinateLevel,
    DenseLevel,
    LevelSpec,
    SparseTensor,
    read_coo_text,
    write_coo_text,
)

B_ENTRIES = [((0, 0), 2.0), ((0, 2), 3.0), ((1, 1), 4.0)]
B_DENSE = np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 0.0]])

CSR = [LevelSpec(DENSE), LevelSpec(COMPRESSED)]
CSF = [LevelSpec(COMPRESSED), LevelSpec(COMPRESSED)]
COO = [LevelSpec(COORDINATE), LevelSpec(COORDINATE)]


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
    for fmts in (CSR, CSF, COO, [LevelSpec(DENSE), LevelSpec(DENSE)]):
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
    assert list(t.entries()) == [((0, 1), 0.0)]


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


def test_block_requires_divisible_extents():
    t = SparseTensor.from_coo((3, 3), [((0, 0), 1.0)], CSF)
    with pytest.raises(IllegalFormatCombination):
        t.block((2, 2))


def test_coo_text_round_trip(tmp_path):
    t = SparseTensor.from_coo((2, 3), B_ENTRIES, CSF)
    p = tmp_path / "b.coo"
    write_coo_text(p, t)
    shape, entries = read_coo_text(p)
    assert shape == (2, 3)
    back = SparseTensor.from_coo(shape, entries, CSF)
    assert back == t


def test_coo_text_comments(tmp_path):
    p = tmp_path / "c.coo"
    p.write_text("# header\n2 2\n0 0 1.5  # entry\n\n1 1 2.5\n")
    shape, entries = read_coo_text(p)
    assert shape == (2, 2)
    assert entries == [((0, 0), 1.5), ((1, 1), 2.5)]


def _random_tensor(rng, ndim):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    density = float(rng.uniform(0.01, 1.0))
    coords = [
        idx
        for idx in itertools.product(*(range(s) for s in shape))
        if rng.random() < density
    ]
    entries = [(c, float(rng.uniform(0.5, 2.0))) for c in coords]
    kinds = [str(rng.choice([DENSE, COMPRESSED, COORDINATE])) for _ in range(ndim)]
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


def _loop_from_coo(shape, entries, formats, mode_order, fill):
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
            cls = CompressedLevel if spec.kind == COMPRESSED else CoordinateLevel
            levels.append(cls(segments, coords))
        fibers = nxt
    values = [fib[0][1] if fib else fill for fib in fibers]
    return SparseTensor(shape, mode_order, levels, values, fill)


def test_from_coo_matches_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ndim = int(rng.integers(1, 4))
        _, shape, entries = _random_tensor(rng, ndim)
        entries = [(c, 0.0 if rng.random() < 0.2 else v) for c, v in entries]
        rng.shuffle(entries)
        kinds = rng.choice([DENSE, COMPRESSED, COORDINATE], size=ndim)
        formats = [LevelSpec(str(k)) for k in kinds]
        order = tuple(rng.permutation(ndim).tolist())
        got = SparseTensor.from_coo(shape, entries, formats, order, fill=0.5)
        want = _loop_from_coo(shape, entries, formats, order, 0.5)
        assert got == want
        assert [lvl.kind for lvl in got.levels] == [f.kind for f in formats]


def test_values_are_immutable():
    t = SparseTensor.from_coo((2, 3), B_ENTRIES, CSR)
    with pytest.raises(ValueError):
        t.values[0] = 9.0
