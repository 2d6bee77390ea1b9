"""Hilbert module: per-class ladders, aggregated polynomial data, constructor.

Ladders are checked through `helpers._ladders`, the list-building
reference that `hilbert_data` must agree with, in lattice steps: step
(u, v) of class (p, q) is the exponent vector (p + u*a, q + v*b).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import MACAULAY, RING_11, _ladders, ladder_aggregate, small_specs_for_crosscheck
from sgring.core import RingSpec, Work, subgroup_classes
from sgring.errors import BudgetExceeded, InfeasibleHilbertData, TrivialSubgroup
from sgring.hilbert import construct_ring, hilbert_data, is_cm
from sgring.oracle import CornerSet, corners, gsw_cm_check, hilbert_function


def test_staircase_macaulay_class():
    grid = corners(MACAULAY).grids[(2, 2)]
    assert set(grid) == {(1, 0), (0, 1)}  # corners (6, 2) and (2, 6)
    anchor, rows, cols, row_gap, col_gap = _ladders(grid)
    assert anchor == (1, 0)  # (6, 2)
    assert (len(rows), len(cols)) == (0, 1)
    assert (row_gap, col_gap, max(row_gap, col_gap)) == (0, 0, 0)


def test_staircase_deep_ladder():
    grid = corners(RING_11).grids[(1, 0)]
    anchor, rows, cols, row_gap, col_gap = _ladders(grid)
    assert anchor == (1, 11)  # (3, 33)
    assert (len(rows), len(cols)) == (10, 0)
    # the monomials (33, 33 - 3i), i = 1..10
    assert rows == [(16, 11 - i) for i in range(1, 11)]
    assert row_gap == 9 and max(row_gap, col_gap) == 9


def test_staircase_trivial():
    anchor, rows, cols, row_gap, col_gap = _ladders(corners(RingSpec(2, 3, ())).grids[(0, 0)])
    assert anchor == (0, 0)
    assert (len(rows), len(cols), row_gap, col_gap) == (0, 0, 0, 0)


def test_staircase_rejects_foreign_class():
    assert (1, 1) not in corners(RingSpec(2, 3, ())).grids


def test_hilbert_data_examples():
    hd = hilbert_data(MACAULAY, corners(MACAULAY))
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (4, 1, 0)
    assert (hd.slope, hd.intercept) == (4, 5)

    hd = hilbert_data(RING_11, corners(RING_11))
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (6, 30, 9)
    contribs = sorted(len(rows) + len(cols) for _, rows, cols, _, _ in
                      map(_ladders, corners(RING_11).grids.values()))
    assert contribs == [0, 2, 3, 6, 9, 10]

    cs = corners(RingSpec(2, 3, ()))
    hd = hilbert_data(cs.spec, cs)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (1, 0, 0)


def test_is_cm_examples():
    assert not is_cm(MACAULAY, corners(MACAULAY))
    cs = corners(RingSpec(4, 4, ((3, 1),)))
    assert is_cm(cs.spec, cs)
    cs = corners(RingSpec(2, 3, ()))
    assert is_cm(cs.spec, cs)


def test_polynomial_matches_function_on_window():
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        hd = hilbert_data(spec, cs)
        lo = hd.stabilization
        for n in range(lo, lo + 4):
            assert hilbert_function(spec, n, cs) == hd.value(n), (spec, n)
        if lo >= 1:
            assert hilbert_function(spec, lo - 1, cs) != hd.value(lo - 1), spec
            # the bound construct_ring's rejections rest on
            assert lo < hd.constant, spec


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_hilbert_data_random_rings(data):
    a = data.draw(st.integers(1, 10))
    b = data.draw(st.integers(1, 10))
    gens = data.draw(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda g: g != (0, 0)),
        max_size=3, unique=True))
    spec = RingSpec(a, b, tuple(gens))
    cs = corners(spec)
    hd = hilbert_data(spec, cs)
    big_n = hd.stabilization
    for n in range(big_n, big_n + 4):
        assert hilbert_function(spec, n, cs) == hd.value(n), (spec, n)
    if big_n >= 1:
        assert hilbert_function(spec, big_n - 1, cs) != hd.value(big_n - 1), spec
        assert big_n < hd.constant, spec
    assert hd.multiplicity == len(subgroup_classes(spec))
    assert (hd.constant, hd.stabilization) == ladder_aggregate(cs.grids.values())


@st.composite
def staircases(draw):
    """One class's corner antichain: u strictly rising, v strictly falling.
    Steps of 1..6 on both axes make ties in u + v common."""
    steps = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=59))
    u, v = draw(st.integers(0, 5)), draw(st.integers(0, 5)) + sum(dv for _, dv in steps)
    grid = [(u, v)]
    for du, dv in steps:
        u, v = u + du, v - dv
        grid.append((u, v))
    return tuple(grid)


@given(staircases())
@example(((0, 3), (2, 2), (5, 0)))  # the anchor first, a row gap of 1
@example(((0, 5), (2, 2), (3, 0)))  # the anchor last, a column gap of 1
@example(((0, 4), (1, 2), (3, 0)))  # a tie for the least u + v
@example(((0, 3), (2, 1), (3, 0)))  # every corner ties
@example(((0, 0),))
@settings(max_examples=200, deadline=None)
def test_hilbert_data_matches_ladders_on_staircases(grid):
    # hilbert_data reads only the grids, so the ring is a placeholder
    cs = CornerSet(RingSpec(1, 1), {(0, 0): list(grid)})
    hd = hilbert_data(cs.spec, cs)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (1, *ladder_aggregate([grid]))


def test_cm_forces_zero_constant_and_stabilization():
    for spec in small_specs_for_crosscheck():
        if is_cm(spec, corners(spec)):
            hd = hilbert_data(spec, corners(spec))
            assert hd.constant == 0 and hd.stabilization == 0


def test_staircase_decomposition_counts_corners():
    # the anchor plus the ladder entries that are corners tile the corner set
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        total = 0
        for grid in cs.grids.values():
            _, rows, cols, _, _ = _ladders(grid)
            corner_set = set(grid)
            ladder_hits = sum(1 for v in rows if v in corner_set)
            ladder_hits += sum(1 for v in cols if v in corner_set)
            total += 1 + ladder_hits
        assert total == len(cs)


def test_length_equals_multiplicity_iff_cm():
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        hd = hilbert_data(spec, cs)
        assert (len(cs) == hd.multiplicity) == is_cm(spec, cs)
        assert gsw_cm_check(spec, cs)[0] == is_cm(spec, cs)


def test_construct_examples():
    spec = construct_ring(2, 3, [(1, 1)], 2, 1)
    hd = hilbert_data(spec, corners(spec))
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (6, 2, 1)

    spec = construct_ring(2, 2, [(1, 1)], 0, 0)
    hd = hilbert_data(spec, corners(spec))
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (2, 0, 0)
    assert is_cm(spec, corners(spec))


def test_construct_rejects_trivial_subgroup():
    with pytest.raises(TrivialSubgroup):
        construct_ring(2, 3, [(0, 0)], 2, 1)
    with pytest.raises(TrivialSubgroup):
        construct_ring(2, 3, [(2, 3)], 2, 1)


def test_construct_rejects_unreachable_stabilization():
    # a positive stabilization index needs a strictly larger constant
    with pytest.raises(InfeasibleHilbertData):
        construct_ring(2, 3, [(1, 1)], 0, 1)
    with pytest.raises(InfeasibleHilbertData):
        construct_ring(2, 3, [(1, 1)], 3, 3)
    with pytest.raises(InfeasibleHilbertData):
        construct_ring(2, 3, [(1, 1)], -1, 0)


def test_construct_roundtrip_sample():
    for a, b in [(2, 2), (2, 3), (3, 4)]:
        for gen in [(1, 1), (0, 1), (1, 0)]:
            if (gen[0] % a, gen[1] % b) == (0, 0):
                continue
            for c, m in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 1), (4, 3)]:
                spec = construct_ring(a, b, [gen], c, m)
                hd = hilbert_data(spec, corners(spec))
                group = subgroup_classes(spec)
                assert (hd.multiplicity, hd.constant, hd.stabilization) == (len(group), c, m)
                extra = c if m == 0 else c - m
                assert len(corners(spec)) == len(group) + extra
                assert len(spec.gens) == len(group) + c - m - 1


def test_construct_counts_generator_steps_against_budget():
    # |H| = 6 and t = 6 + 4 - 1 - 1 = 8 middle generators: 48 steps at least
    work = Work(48)
    spec = construct_ring(2, 3, [(1, 1)], 4, 1, work)
    assert len(spec.gens) == 8
    assert work.left == 48  # a forecast spends nothing
    with pytest.raises(BudgetExceeded):
        construct_ring(2, 3, [(1, 1)], 4, 1, Work(47))


def test_construct_length():
    # corners: one per class, plus the distinguished class's extra ladder corners
    for c, m in [(0, 0), (2, 0), (2, 1), (4, 3)]:
        spec = construct_ring(2, 3, [(1, 1)], c, m)
        extra = c - m if m else c
        assert len(corners(spec)) == 6 + extra
