"""Hilbert module: per-class ladders, aggregated polynomial data, constructor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MACAULAY, RING_11, small_specs_for_crosscheck
from sgring.core import RingSpec, subgroup_classes
from sgring.errors import ClassNotInSubgroup, InfeasibleHilbertData, TrivialSubgroup
from sgring.hilbert import (
    class_staircase,
    construct_ring,
    hilbert_data,
    is_cm,
    staircases,
)
from sgring.oracle import corners, gsw_cm_check, hilbert_function, length_mod_parameters


def test_staircase_macaulay_class():
    sc = class_staircase(MACAULAY, (2, 2))
    assert sc.anchor == (6, 2)
    assert set(sc.corners) == {(6, 2), (2, 6)}
    assert (sc.n_rows, sc.n_cols) == (0, 1)
    assert (sc.row_gap, sc.col_gap, sc.settle) == (0, 0, 0)


def test_staircase_deep_ladder():
    spec = RING_11
    sc = class_staircase(spec, (1, 0))
    assert sc.anchor == (3, 33)
    assert (sc.n_rows, sc.n_cols) == (10, 0)
    assert sc.row_ladder == tuple((33, 33 - 3 * i) for i in range(1, 11))
    assert sc.row_gap == 9 and sc.settle == 9


def test_staircase_trivial():
    sc = class_staircase(RingSpec(2, 3, ()), (0, 0))
    assert sc.anchor == (0, 0)
    assert (sc.n_rows, sc.n_cols, sc.row_gap, sc.col_gap) == (0, 0, 0, 0)


def test_staircase_rejects_foreign_class():
    with pytest.raises(ClassNotInSubgroup):
        class_staircase(RingSpec(2, 3, ()), (1, 1))


def test_hilbert_data_examples():
    hd = hilbert_data(MACAULAY)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (4, 1, 0)
    assert (hd.slope, hd.intercept) == (4, 5)

    hd = hilbert_data(RING_11)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (6, 30, 9)
    contribs = sorted(sc.n_rows + sc.n_cols for sc in staircases(RING_11))
    assert contribs == [0, 2, 3, 6, 9, 10]

    hd = hilbert_data(RingSpec(2, 3, ()))
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (1, 0, 0)


def test_is_cm_examples():
    assert not is_cm(MACAULAY)
    assert is_cm(RingSpec(4, 4, ((3, 1),)))
    assert is_cm(RingSpec(2, 3, ()))


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


def test_cm_forces_zero_constant_and_stabilization():
    for spec in small_specs_for_crosscheck():
        if is_cm(spec):
            hd = hilbert_data(spec)
            assert hd.constant == 0 and hd.stabilization == 0


def test_staircase_decomposition_counts_corners():
    # the anchor plus the ladder entries that are corners tile the corner set
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        total = 0
        for sc in staircases(spec, cs):
            corner_set = set(sc.corners)
            ladder_hits = sum(1 for v in sc.row_ladder if v in corner_set)
            ladder_hits += sum(1 for v in sc.col_ladder if v in corner_set)
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
    hd = hilbert_data(spec)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (6, 2, 1)

    spec = construct_ring(2, 2, [(1, 1)], 0, 0)
    hd = hilbert_data(spec)
    assert (hd.multiplicity, hd.constant, hd.stabilization) == (2, 0, 0)
    assert is_cm(spec)


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
                hd = hilbert_data(spec)
                group = subgroup_classes(spec)
                assert (hd.multiplicity, hd.constant, hd.stabilization) == (len(group), c, m)
                extra = c if m == 0 else c - m
                assert length_mod_parameters(spec) == len(group) + extra


def test_construct_length():
    # corners: one per class, plus the distinguished class's extra ladder corners
    for c, m in [(0, 0), (2, 0), (2, 1), (4, 3)]:
        spec = construct_ring(2, 3, [(1, 1)], c, m)
        extra = c - m if m else c
        assert length_mod_parameters(spec) == 6 + extra
