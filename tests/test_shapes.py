from itertools import combinations

import pytest

from skewtab import SkewShape, delete_rows_cols, render
from skewtab.shapes import MAX_SHAPE_BOXES, _deleted, conjugate_parts

from helpers import (bfs_connected, blocks_reference, boxes_of, deleted_reference, normalize,
                     partitions_up_to, shape_from_boxes, shapes_up_to)


def box_labels(s: SkewShape) -> tuple[tuple[int, ...], ...]:
    """Weight rows of ``s`` that label box (i, j) with i*(m+1) + j, so a
    weight carried to a derived shape names the box it came from."""
    return tuple(tuple(i * (s.m + 1) + j for j in range(s.mu[i - 1] + 1, s.lam[i - 1] + 1))
                 for i in range(1, s.n + 1))


def label_boxes(s: SkewShape, labels) -> list[set[tuple[int, int]]]:
    """The boxes of ``s`` named by each row of ``labels``, the carried
    weights of a shape derived from ``s`` (see :func:`box_labels`)."""
    return [{divmod(w, s.m + 1) for w in row} for row in labels]


def test_shape_validation():
    SkewShape((5, 4, 4), (2, 1, 0))
    SkewShape((), ())  # empty shape is a valid degenerate value
    with pytest.raises(ValueError):
        SkewShape((1, 2))  # outer shape not weakly decreasing
    with pytest.raises(ValueError):
        SkewShape((2, 0))  # zero outer part
    with pytest.raises(ValueError):
        SkewShape((3, 3), (3, 0))  # empty row
    with pytest.raises(ValueError):
        SkewShape((3, 2), (1, 2))  # inner shape not weakly decreasing
    with pytest.raises(ValueError):
        SkewShape((3,), (1, 0))  # inner shape longer than outer
    with pytest.raises(ValueError):
        SkewShape((4, 1), (2, 0))  # column 2 empty
    with pytest.raises(ValueError):
        SkewShape((True, 1))  # bool outer part
    with pytest.raises(ValueError):
        SkewShape((2, 1), (True, False))  # bool inner parts
    with pytest.raises(ValueError, match=r"^not in normal form: last inner part 1 != 0$"):
        SkewShape((2, 1), (1, 1))
    with pytest.raises(ValueError, match=r"^empty column 2 in \(5, 5, 1\)/\(4, 2, 0\)$"):
        SkewShape((5, 5, 1), (4, 2, 0))  # as many columns as boxes, one of them empty


def test_shape_box_budget():
    """Outside input is refused above ``MAX_SHAPE_BOXES`` boxes, which stays
    above the 36,046 boxes of the 268-row staircase the benchmark builds."""
    assert MAX_SHAPE_BOXES == 1000 * 1000
    SkewShape((1000,) * 1000)
    with pytest.raises(ValueError, match="MAX_SHAPE_BOXES"):
        SkewShape((1001,) + (1000,) * 999)
    SkewShape((1001,) + (1000,) * 999, (1,))  # mu's boxes are not counted
    SkewShape(tuple(range(268, 0, -1)))


def test_shape_mu_padding():
    s = SkewShape((5, 5, 4), (2, 1))
    assert s.mu == (2, 1, 0)


def test_conjugate_paper_example():
    s = SkewShape((5, 5, 4))
    assert s.conjugate().lam == (3, 3, 3, 3, 2)


def test_conjugate_single_box():
    s = SkewShape((1,))
    assert s.conjugate() == s


def test_conjugate_skew():
    s = SkewShape((5, 5, 4), (2, 1, 0))
    c = s.conjugate()
    assert c.lam == (3, 3, 3, 3, 2)
    assert c.mu == (2, 1, 0, 0, 0)
    # transpose of the box set, brute force
    assert boxes_of(c) == {(j, i) for i, j in boxes_of(s)}


def test_conjugate_parts_matches_counting_formula():
    """The one-pass conjugate equals "entry j counts parts >= j" on every
    partition with <= 12 boxes, with trailing zeros (inner shapes carry
    them) and at lengths below, at and beyond the largest part."""
    def counted(parts, length):
        return tuple(sum(1 for p in parts if p >= j) for j in range(1, length + 1))

    for lam in partitions_up_to(12):
        assert conjugate_parts(lam) == counted(lam, lam[0])
        for parts in (lam, lam + (0,), lam + (0, 0)):
            for length in (0, 1, lam[0] - 1, lam[0], lam[0] + 3):
                assert conjugate_parts(parts, length) == counted(parts, length), (parts, length)
    assert conjugate_parts(()) == () and conjugate_parts((), 2) == (0, 0)


def test_conjugate_involution_small():
    for s in shapes_up_to(7):
        assert s.conjugate().conjugate() == s


def test_anti_transpose_box_map():
    for s in shapes_up_to(7):
        n, m = s.n, s.m
        expected = {(m + 1 - j, n + 1 - i) for i, j in boxes_of(s)}
        assert boxes_of(s.anti_transpose()) == expected
        assert s.anti_transpose().anti_transpose() == s


def test_anti_transpose_examples():
    # the flipped staircase is the complementary corner, not the staircase
    assert SkewShape((2, 1)).anti_transpose() == SkewShape((2, 2), (1, 0))
    assert SkewShape((2, 2)).anti_transpose() == SkewShape((2, 2))
    # derived by reflecting the box set
    assert SkewShape((3, 1)).anti_transpose() == SkewShape((2, 2, 2), (1, 1, 0))


def test_is_connected_formula_vs_bfs():
    for s in shapes_up_to(8):
        assert s.is_connected() == bfs_connected(s), s


def test_is_connected_examples():
    assert SkewShape((5, 4, 4), (2, 1, 0)).is_connected()
    assert not SkewShape((4, 2), (2, 0)).is_connected()
    assert SkewShape((7,)).is_connected()


def test_components_disconnected():
    s = SkewShape((4, 2), (2, 0))
    comps = s.components()
    assert len(comps) == 2
    assert comps[0].shape == SkewShape((2,))
    assert comps[0].row_map == (1,) and comps[0].col_map == (3, 4)
    assert comps[1].shape == SkewShape((2,))
    assert comps[1].row_map == (2,) and comps[1].col_map == (1, 2)


def test_normalize_interval_rows():
    comps = normalize([(3, 5), None, (1, 2)])
    # rows touch in no common column, so this splits
    assert [c.shape for c in comps] == [SkewShape((3,)), SkewShape((2,))]
    assert comps[0].row_map == (1,) and comps[0].col_map == (3, 4, 5)
    assert comps[1].row_map == (3,) and comps[1].col_map == (1, 2)


def test_normalize_identity():
    s = SkewShape((5, 4, 4), (2, 1, 0))
    comps = normalize([(s.mu[i - 1] + 1, s.lam[i - 1]) for i in range(1, s.n + 1)])
    assert len(comps) == 1
    assert comps[0].shape == s
    assert comps[0].row_map == (1, 2, 3)
    assert comps[0].col_map == (1, 2, 3, 4, 5)


def test_normalize_rejects_non_contiguous():
    with pytest.raises(ValueError):
        normalize([{1, 2, 4}, {3}])


def test_normalize_closes_gaps_from_global_deletion():
    # column 3 is dead in every row, so deleting it keeps rows contiguous
    comps = normalize([{1, 2, 4, 5}, {1, 2, 4}])
    assert len(comps) == 1
    assert comps[0].shape == SkewShape((4, 3))
    assert comps[0].col_map == (1, 2, 4, 5)


def test_delete_rows_cols_paper_example():
    s = SkewShape((5, 4, 4), (2, 1, 0))
    assert delete_rows_cols(s, dead_rows={1}) == [(SkewShape((4, 4), (1, 0)), None)]
    [(shape, labels)] = delete_rows_cols(s, dead_rows={1}, rows=box_labels(s))
    assert shape == SkewShape((4, 4), (1, 0))
    # rows 2 and 3 of s, whole
    assert label_boxes(s, labels) == [{(2, j) for j in (2, 3, 4)}, {(3, j) for j in (1, 2, 3, 4)}]


def test_delete_rows_cols_all_rows():
    assert delete_rows_cols(SkewShape((3, 2)), dead_rows={1, 2}) == []


def test_delete_rows_cols_splits():
    s = SkewShape((6, 5, 5, 2, 2), (3, 2, 1, 0, 0))
    comps = delete_rows_cols(s, dead_cols={3, 4, 5}, rows=box_labels(s))
    assert [shape for shape, _ in comps] == [SkewShape((1,)), SkewShape((2, 2, 2), (1, 0, 0))]
    # row 1 keeps column 6; rows 3-5 keep columns 1-2; row 2 is left empty
    assert label_boxes(s, comps[0][1]) == [{(1, 6)}]
    assert label_boxes(s, comps[1][1]) == [{(3, 2)}, {(4, 1), (4, 2)}, {(5, 1), (5, 2)}]


@pytest.mark.parametrize("dead_rows, dead_cols", [
    ({0}, ()), ({4}, ()), ((), {0}), ((), {6}), ({1, 4}, {2}), ({2}, {0, 5})])
def test_delete_rows_cols_rejects_out_of_range(dead_rows, dead_cols):
    """Rows run 1..n and columns 1..m; an index of 0 or one past the end is
    an error, with or without weight rows."""
    s = SkewShape((5, 4, 4), (2, 1, 0))
    for rows in (None, box_labels(s)):
        with pytest.raises(ValueError):
            delete_rows_cols(s, dead_rows, dead_cols, rows)


def test_delete_rows_cols_matches_reference():
    """Every shape with <= 7 boxes, disconnected ones included, under every
    deletion of <= 2 rows and <= 2 columns: the interval-based deletion
    returns the set-based reference's components in order, and carries the
    weight rows along: each box's label (see :func:`box_labels`) lands on
    the component box that the reference's index maps send back to it.
    Each derived shape passes the validating constructor."""
    deletions, valid = 0, set()
    for s in shapes_up_to(7):
        labels = box_labels(s)
        row_sets = [d for k in range(3) for d in combinations(range(1, s.n + 1), k)]
        col_sets = [d for k in range(3) for d in combinations(range(1, s.m + 1), k)]
        for rows in row_sets:
            for cols in col_sets:
                got = delete_rows_cols(s, rows, cols, labels)
                want = [(SkewShape(lam, mu), kept)
                        for lam, mu, kept in deleted_reference(s.lam, s.mu, labels, rows, cols)]
                assert got == want, (s, rows, cols)
                for shape, _ in got:
                    if shape not in valid:
                        assert SkewShape(shape.lam, shape.mu) == shape
                        valid.add(shape)
                deletions += 1
    assert deletions == 252_869


def test_end_interval_deletions_match_reference():
    """Rows 1..k or n-k+1..n, or columns 1..k or m-k+1..m, for every k,
    are cut off by slicing (a boundary pivot's line, or its whole
    neighbourhood); any other deletion takes the general pass.  On every
    shape with <= 8 boxes, each such deletion, bare and with labelled
    weight rows, gives the reference's components, and so does one that
    also deletes a line of the other kind.  ``_deleted`` takes a connected
    key and returns a slice as one key, with no pass for the cuts, so a
    connected shape goes through it directly and a disconnected one through
    ``delete_rows_cols``, which splits what it returns."""

    def split(lam, mu, rows, dead_rows, dead_cols):
        return [(c.lam, c.mu, kept) for c, kept in
                delete_rows_cols(SkewShape(lam, mu), dead_rows, dead_cols, rows)]

    deletions = 0
    for s in shapes_up_to(8):
        deleted = _deleted if s.is_connected() else split
        labels = box_labels(s)
        dead_sets = []
        for size, last_other, by_rows in ((s.n, s.m, True), (s.m, s.n, False)):
            for k in range(1, size + 1):
                for lines in (set(range(1, k + 1)), set(range(size - k + 1, size + 1))):
                    for other in (set(), {last_other}):
                        dead_sets.append((lines, other) if by_rows else (other, lines))
        for dead_rows, dead_cols in dead_sets:
            want = deleted_reference(s.lam, s.mu, labels, dead_rows, dead_cols)
            got = list(deleted(s.lam, s.mu, labels, dead_rows, dead_cols))
            assert got == want, (s, dead_rows, dead_cols)
            got = list(deleted(s.lam, s.mu, None, dead_rows, dead_cols))
            assert got == [(lam, mu, None) for lam, mu, _ in want], (s, dead_rows, dead_cols)
            deletions += 1
    assert deletions == 161_792


def test_derived_shapes_are_valid_and_match_box_sets():
    """components(), conjugate() and rotate180() build trusted shapes; on
    every shape with <= 8 boxes each passes the validating constructor and
    equals the shape read off the transformed box set."""
    for s in shapes_up_to(8):
        n, m, boxes = s.n, s.m, boxes_of(s)
        for t, want in ((s.conjugate(), {(j, i) for i, j in boxes}),
                        (s.rotate180(), {(n + 1 - i, m + 1 - j) for i, j in boxes})):
            assert SkewShape(t.lam, t.mu) == t == shape_from_boxes(want)
            assert (t.lam_conj(), t.mu_conj()) == (conjugate_parts(t.lam, t.m),
                                                   conjugate_parts(t.mu, t.m))
        covered = set()
        for c in s.components():
            amb = {(c.row_map[i - 1], c.col_map[j - 1]) for i, j in boxes_of(c.shape)}
            assert SkewShape(c.shape.lam, c.shape.mu) == c.shape == shape_from_boxes(amb)
            assert bfs_connected(c.shape)
            assert c.row_map == tuple(sorted({i for i, _ in amb}))
            assert c.col_map == tuple(sorted({j for _, j in amb}))
            assert not amb & covered
            covered |= amb
        assert covered == boxes
        if s.is_connected():
            assert [c.shape for c in s.components()] == [s]
    empty = SkewShape(())
    assert empty.conjugate() == empty.rotate180() == empty.anti_transpose() == empty
    assert empty.components() == []


def test_delete_nothing_is_identity():
    """Deleting nothing splits a shape into its components, each box
    carrying its own label, and bare into the same shapes."""
    for s in shapes_up_to(6):
        comps = delete_rows_cols(s, rows=box_labels(s))
        assert [shape for shape, _ in comps] == [c.shape for c in s.components()]
        assert delete_rows_cols(s) == [(shape, None) for shape, _ in comps]
        got = set()
        for shape, labels in comps:
            assert [len(r) for r in labels] == [l - m for l, m in zip(shape.lam, shape.mu)]
            got |= set().union(*label_boxes(s, labels))
        assert got == boxes_of(s)


def test_blocks_examples():
    """The band grid of the block-constancy referee, ``blocks_reference``."""
    got = set(blocks_reference(SkewShape((3, 3, 1))))
    assert got == {((1, 2), (1, 1), False), ((1, 2), (2, 3), True), ((3, 3), (1, 1), True)}
    assert blocks_reference(SkewShape((4, 4, 4, 4))) == [((1, 4), (1, 4), True)]
    assert blocks_reference(SkewShape((), ())) == []
    with pytest.raises(ValueError):
        blocks_reference(SkewShape((4, 2), (2, 0)))


def test_blocks_paper_figure():
    s = SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0))
    bl = blocks_reference(s)
    assert len(bl) == 10
    assert ((3, 4), (3, 4), False) in bl
    corners = {(rows, cols) for rows, cols, corner in bl if corner}
    assert corners == {((3, 4), (6, 6)), ((6, 6), (2, 2))}


def test_blocks_partition_box_set():
    """The referee's blocks are full rectangles that partition the box set."""
    for s in shapes_up_to(8, connected_only=True):
        union: set = set()
        total = 0
        for (r0, r1), (c0, c1), _ in blocks_reference(s):
            total += (r1 - r0 + 1) * (c1 - c0 + 1)
            union |= {(i, j) for i in range(r0, r1 + 1) for j in range(c0, c1 + 1)}
        assert union == boxes_of(s)
        assert total == len(union)  # pairwise disjoint full rectangles


def test_blocks_conjugate_transposes_grid():
    for s in shapes_up_to(7, connected_only=True):
        got = {(cols, rows, corner) for rows, cols, corner in blocks_reference(s.conjugate())}
        assert got == set(blocks_reference(s))


def test_render():
    s = SkewShape((3, 2), (1, 0))
    assert render(s) == ". # #\n# # ."
    assert render(s, {(1, 2): 2, (1, 3): 1, (2, 1): 12, (2, 2): 3}) == ". 2 1\nc 3 ."
    assert render(SkewShape((), ())) == "(empty shape)"


def test_json_round_trip():
    s = SkewShape((5, 4, 4), (2, 1, 0))
    assert SkewShape.from_dict(s.to_dict()) == s
    assert SkewShape.from_dict({"lambda": [2, 1]}) == SkewShape((2, 1))
    with pytest.raises(ValueError):
        SkewShape.from_dict({"mu": [1]})


def test_shape_from_boxes_helper_round_trip():
    for s in shapes_up_to(6):
        assert shape_from_boxes(boxes_of(s)) == s
