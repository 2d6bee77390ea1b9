"""Oracle module: corner enumeration, direct counting, cone-shift check.

The production algorithms are cross-checked here against the literal
reference implementations from helpers.py (candidate products, region
scans, DP membership).
"""

import heapq
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MACAULAY,
    RING_7,
    RING_11,
    _count_order_n,
    corner_grids_worklist,
    corners_reference,
    gsw_reference,
    hilbert_function_reference,
    small_specs_for_crosscheck,
)
from sgring import oracle
from sgring.core import RingSpec, Work, subgroup_classes
from sgring.errors import BudgetExceeded
from sgring.hilbert import hilbert_data
from sgring.oracle import (
    corners,
    fourgen_constants_bruteforce,
    gsw_cm_check,
    hilbert_function,
)


def test_corners_macaulay():
    cs = corners(MACAULAY)
    assert set(cs.corners) == {(0, 0), (3, 1), (1, 3), (6, 2), (2, 6)}
    assert len(cs) == 5
    assert cs.corners == tuple(sorted(cs.corners, key=lambda v: (v[1], v[0])))


def test_corner_grids_are_read_only():
    cs = corners(MACAULAY)
    with pytest.raises(TypeError):
        cs.grids[(0, 0)] = ((0, 0),)
    with pytest.raises(TypeError):
        del cs.grids[(0, 0)]
    # the constructor turns every grid it is given into a tuple, lists too
    built = oracle.CornerSet(RingSpec(1, 1), {(0, 0): [(0, 1), (1, 0)]})
    assert built.grids == {(0, 0): ((0, 1), (1, 0))}
    for grids in (cs.grids, built.grids):
        assert all(type(grid) is tuple for grid in grids.values())


def test_corner_set_build_keeps_no_second_copy():
    # The CornerSet wraps the walk's own dict, so building it allocates
    # little beyond what the corner set retains.
    spec = RingSpec(101, 103, ((1, 1), (2, 5)))
    tracemalloc.start()
    try:
        cs = corners(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cs) == 11_488
    assert peak < 1.4 * retained, (peak, retained)


def test_corners_trivial():
    cs = corners(RingSpec(2, 3, ()))
    assert cs.corners == ((0, 0),)


def test_corners_triangular_example():
    cs = corners(RING_7)
    expected = {(7 * u + v, u + 7 * v) for u in range(6) for v in range(6 - u)}
    assert set(cs.corners) == expected
    assert len(cs) == 21


def test_length_examples():
    assert len(corners(MACAULAY)) == 5
    assert len(corners(RING_7)) == 21
    assert len(corners(RingSpec(2, 3, ()))) == 1


def test_corner_classes_are_antichains():
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        group = subgroup_classes(spec)
        assert set(cs.by_class) == group
        for cls, pts in cs.by_class.items():
            betas = [v[1] for v in pts]
            alphas = [v[0] for v in pts]
            assert betas == sorted(betas) and len(set(betas)) == len(betas)
            assert alphas == sorted(alphas, reverse=True) and len(set(alphas)) == len(alphas)


def test_corners_match_reference():
    for spec in small_specs_for_crosscheck():
        assert list(corners(spec).corners) == corners_reference(spec), spec


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_corners_match_reference_random(data):
    a = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(1, 4))
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda g: g != (0, 0)),
            min_size=0,
            max_size=3,
            unique=True,
        )
    )
    spec = RingSpec(a, b, tuple(gens))
    assert list(corners(spec).corners) == corners_reference(spec)


def test_corners_match_worklist_on_larger_rings():
    # rings shaped like the large_rings bench items, too big for
    # corners_reference; the earlier worklist enumeration is the reference
    rng = random.Random(20261018)
    for _ in range(200):
        a, b = rng.randint(12, 30), rng.randint(12, 30)
        gens = ((1, b - 1), (a - 1, 1),
                (rng.randrange(1, a), rng.randrange(1, b)),
                (rng.randrange(1, a), rng.randrange(1, b)))
        spec = RingSpec(a, b, gens)
        ref = corner_grids_worklist(a, b, spec.gens)
        expected = {cls: tuple(sorted(grid)) for cls, grid in sorted(ref.items())}
        assert corners(spec).grids == expected, spec


@st.composite
def _corner_rings(draw):
    """a, b <= 30 and up to 6 middle generators, each free, a multiple k*g of
    an earlier one, or a pure power (k*a, 0) or (0, k*b)."""
    a, b = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        kind, k = draw(st.sampled_from("fmxy")), draw(st.integers(2, 3))
        if kind == "m" and gens:
            p, q = draw(st.sampled_from(gens))
            gens.append((k * p, k * q))
        elif kind == "x":
            gens.append((k * a, 0))
        elif kind == "y":
            gens.append((0, k * b))
        else:
            gens.append(draw(st.tuples(st.integers(0, 2 * a), st.integers(0, 2 * b))
                             .filter(lambda g: g != (0, 0))))
    return RingSpec(a, b, tuple(gens))


@given(_corner_rings())
# exponents past 2^70: the packed heap fields outgrow machine words
@example(RingSpec(5, 7, ((2**70, 3), (1, 2**70 + 1), (2**71, 6), (0, 14))))
# copies of one point at equal x from different generators: (1, 2) + (0, 3)
# is the generator (1, 5), and (3, 1) + (0, 2) is (3, 3)
@example(RingSpec(3, 4, ((1, 2), (0, 3), (1, 5))))
@example(RingSpec(5, 7, ((0, 2), (3, 1), (3, 3), (0, 5))))
@example(RingSpec(4, 6, ((0, 5), (2, 1), (2, 6), (1, 3))))
# the huge modulus: |H| = 4, so the walk ends at once
@example(RingSpec(10**9, 10**9, ((5 * 10**8, 0), (0, 5 * 10**8))))
@settings(max_examples=40, deadline=None)
def test_corners_match_worklist_random(spec):
    ref = corner_grids_worklist(spec.a, spec.b, spec.gens)
    expected = {cls: tuple(sorted(grid)) for cls, grid in sorted(ref.items())}
    assert corners(spec).grids == expected


@given(_corner_rings())
@example(RingSpec(3, 4, ((1, 2), (0, 3), (1, 5))))
@example(MACAULAY)
@settings(max_examples=30, deadline=None)
def test_corners_push_only_later_generators(spec):
    # A corner c accepted with index j pushes the t - j generators j' >= j.
    # Its accepted copy is the least J(c) = j with c - g_j a corner accepted
    # with index J(c - g_j) <= j (J(0) = 0), read here off the corner set.
    pushes = []

    def counting_push(heap, key):
        pushes.append(key)
        heapq.heappush(heap, key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "heappush", counting_push)
        cs = corners(spec)
    gens, t = spec.gens, len(spec.gens)
    index = {(0, 0): 0}
    for c in sorted(set(cs.corners) - {(0, 0)}):
        index[c] = min(j for j, (gp, gq) in enumerate(gens)
                       if index.get((c[0] - gp, c[1] - gq), t) <= j)
    assert len(pushes) == sum(t - j for j in index.values())


def test_hilbert_function_examples():
    assert hilbert_function(MACAULAY, 0, corners(MACAULAY)) == 5
    assert hilbert_function(MACAULAY, 1, corners(MACAULAY)) == 9
    cs = corners(RingSpec(2, 3, ()))
    for n in range(5):
        assert hilbert_function(cs.spec, n, cs) == n + 1


def test_hilbert_function_matches_region_scan():
    for spec in (*small_specs_for_crosscheck(), RING_7):
        cs = corners(spec)
        for n in range(hilbert_data(spec, cs).stabilization + 3):
            assert hilbert_function(spec, n, cs) == hilbert_function_reference(spec, n), (spec, n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hilbert_function_matches_interval_count(data):
    # the O(k^2) interval union per class is the reference for the stack pass
    a = data.draw(st.integers(1, 25))
    b = data.draw(st.integers(1, 25))
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda g: g != (0, 0)),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    spec = RingSpec(a, b, tuple(gens))
    cs = corners(spec)
    hd = hilbert_data(spec, cs)
    for n in (*range(hd.stabilization + 6), 10**6):
        assert hilbert_function(spec, n, cs) == sum(_count_order_n(g, n) for g in cs.grids.values()), n
    assert hilbert_function(spec, 10**6, cs) == hd.value(10**6)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_hilbert_function_cached_boxes_answer_any_order(data):
    # one corner set queried at 10**6, then down to 0, then back up: the
    # boxes cached by the first call give every later value
    a = data.draw(st.integers(1, 25))
    b = data.draw(st.integers(1, 25))
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda g: g != (0, 0)),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    spec = RingSpec(a, b, tuple(gens))
    cs = corners(spec)
    top = hilbert_data(spec, cs).stabilization + 5
    for n in (10**6, *range(top, -1, -1), *range(top + 1)):
        expected = sum(_count_order_n(g, n) for g in cs.grids.values())
        assert hilbert_function(spec, n, cs) == expected, n
        assert hilbert_function(spec, n, corners(spec)) == expected, n


def test_hilbert_function_first_calls_race_safely():
    # threads that all find the box cache empty each fill it with the same
    # profile, so every value stays exact
    spec = RingSpec(13, 17, ((1, 16), (12, 1), (5, 7), (3, 11)))
    expected = [hilbert_function(spec, n, corners(spec)) for n in range(12)]
    cs, got = corners(spec), {}

    def query(k):
        got[k] = [hilbert_function(spec, n, cs) for n in range(12)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert got == {k: expected for k in range(6)}


def test_hilbert_function_rejects_negative_order():
    cs = corners(MACAULAY)
    with pytest.raises(ValueError, match="n >= 0"):
        hilbert_function(MACAULAY, -1, cs)


def test_hilbert_function_cohen_macaulay_counts_classes():
    # every class has one corner: HF(n) = |H| (n + 1), and the cached
    # boxes are the class count alone
    for spec in (RingSpec(2, 3, ()), RingSpec(4, 4, ((3, 1),)), RingSpec(5, 7, ((2, 3),))):
        cs = corners(spec)
        assert all(len(g) == 1 for g in cs.grids.values())
        assert cs._boxes is None  # corners() leaves the cache empty
        h = len(subgroup_classes(spec))
        for n in (0, 1, 7, 10**6):
            assert hilbert_function(spec, n, cs) == h * (n + 1), (spec, n)
        assert cs._boxes == (h, ())


def test_hilbert_function_first_difference_stabilizes():
    for spec in (MACAULAY, RING_7, RING_11):
        cs = corners(spec)
        h = len(subgroup_classes(spec))
        values = [hilbert_function(spec, n, cs) for n in range(25, 29)]
        assert all(b - a == h for a, b in zip(values, values[1:]))


def test_gsw_examples():
    assert gsw_cm_check(MACAULAY, corners(MACAULAY)) == (False, (2, 2))
    cs = corners(RingSpec(2, 3, ()))
    assert gsw_cm_check(cs.spec, cs) == (True, None)
    cs = corners(RingSpec(4, 4, ((3, 1),)))
    assert gsw_cm_check(cs.spec, cs) == (True, None)


def test_gsw_matches_reference():
    for spec in small_specs_for_crosscheck():
        assert gsw_cm_check(spec, corners(spec)) == gsw_reference(spec), spec


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gsw_matches_reference_random(data):
    a = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(1, 4))
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda g: g != (0, 0)),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    spec = RingSpec(a, b, tuple(gens))
    assert gsw_cm_check(spec, corners(spec)) == gsw_reference(spec)


def test_gsw_agrees_with_length_criterion():
    for spec in small_specs_for_crosscheck():
        cm = len(corners(spec)) == len(subgroup_classes(spec))
        assert gsw_cm_check(spec, corners(spec))[0] == cm


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        corners(RING_11, Work(3))


def _assert_budget_is_generator_steps(spec):
    # one generator step per corner + g formed: exactly |corners| x |gens|
    steps = len(corners(spec)) * len(spec.gens)
    assert len(corners(spec, Work(steps))) * len(spec.gens) == steps
    with pytest.raises(BudgetExceeded):
        corners(spec, Work(steps - 1))


def test_budget_counts_generator_steps():
    _assert_budget_is_generator_steps(MACAULAY)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_budget_counts_generator_steps_random(data):
    a = data.draw(st.integers(1, 10))
    b = data.draw(st.integers(1, 10))
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda g: g != (0, 0)),
            min_size=0,
            max_size=3,
            unique=True,
        )
    )
    _assert_budget_is_generator_steps(RingSpec(a, b, tuple(gens)))


def test_budget_counts_group_order_before_work():
    # |H| = 250500 classes each need a corner: 2 x 250500 steps at least
    spec = RingSpec(501, 500, ((1, 1), (2, 3)))
    with pytest.raises(BudgetExceeded, match="250500"):
        corners(spec, Work(2 * 250500 - 1))


@pytest.mark.parametrize("spec, message", [
    # one generator: always |corners| = |H|, so the forecast fires first
    (RingSpec(5, 7, ((2, 3),)),
     "corners needs 35 generator steps (at least |H| x t = 35 x 1), "
     "over the 34 left of the work budget of 34; spent: nothing"),
    (MACAULAY, "corners needs 10 generator steps (t = 2 per corner, 5 corners so far), "
     "over the 9 left of the work budget of 9; spent: nothing"),
    (RingSpec(13, 17, ((1, 16), (12, 1), (5, 7), (3, 11))),
     "corners needs 2004 generator steps (t = 4 per corner, 501 corners so far), "
     "over the 2003 left of the work budget of 2003; spent: nothing"),
], ids=["one_generator", "macaulay", "four_generators"])
def test_budget_boundary_message(spec, message):
    t = len(spec.gens)
    cs = corners(spec)
    work = Work(len(cs) * t)
    assert corners(spec, work).grids == cs.grids
    assert (work.left, work.spent) == (0, {"corners": len(cs) * t})
    with pytest.raises(BudgetExceeded) as exc:
        corners(spec, Work(len(cs) * t - 1))
    assert str(exc.value) == message


def test_bruteforce_constants_examples():
    c = fourgen_constants_bruteforce(2, 3, (11, 1), (1, 11))
    assert (c.a2, c.b2, c.g2, c.h2) == (5, 1, -54, 6)
    assert (c.a3, c.b3, c.g3, c.h3) == (6, 0, 66, 6)
    assert (c.a1, c.b1, c.g1, c.h1) == (1, 1, 12, 12)

    c = fourgen_constants_bruteforce(4, 4, (3, 1), (1, 3))
    assert (c.a2, c.b2, c.g2, c.h2) == (2, 2, -4, 4)
    assert (c.a3, c.b3, c.g3, c.h3) == (3, 1, 8, 0)
    assert (c.a1, c.b1, c.g1, c.h1) == (1, 1, 4, 4)

    c = fourgen_constants_bruteforce(1, 23, (21, 2), (5, 18))
    assert (c.b2, c.a2, c.h2) == (3, 4, 2 * 23)


def test_bruteforce_constants_internal_relations():
    # the recorded triples satisfy their defining equations and orderings
    for d, n, el, fm in [(2, 3, (11, 1), (1, 11)), (4, 4, (3, 1), (1, 3)),
                         (2, 3, (7, 1), (1, 7)), (3, 5, (4, 2), (1, 6))]:
        c = fourgen_constants_bruteforce(d, n, el, fm)
        e, l, f, m = c.e, c.l, c.f, c.m
        assert (c.a1 * e + c.b1 * f, c.a1 * l + c.b1 * m) == (c.g1, c.h1)
        assert (-c.a2 * e + c.b2 * f, -c.a2 * l + c.b2 * m) == (c.g2, c.h2)
        assert (c.a3 * e - c.b3 * f, c.a3 * l - c.b3 * m) == (c.g3, c.h3)
        assert c.a3 > c.a2 >= 0 and c.b2 > c.b3 >= 0
        assert c.g3 >= 0 and c.h3 >= 0 and (c.g3, c.h3) != (0, 0)
        assert c.g1 % d == 0 and c.h1 % n == 0
        # the independently searched first relation is the sum of the others
        assert (c.a1, c.b1) == (c.a3 - c.a2, c.b2 - c.b3)
        assert (c.g1, c.h1) == (c.g2 + c.g3, c.h2 + c.h3)


def test_bruteforce_non_congruence_window():
    # no nonzero combination u*(e,l) - v*(f,m) with u < a3, v < b2 hits the lattice
    for d, n, el, fm in [(2, 3, (11, 1), (1, 11)), (4, 4, (3, 1), (1, 3))]:
        c = fourgen_constants_bruteforce(d, n, el, fm)
        for u in range(c.a3):
            for v in range(c.b2):
                if (u, v) == (0, 0):
                    continue
                g = u * c.e - v * c.f
                h = u * c.l - v * c.m
                assert g % d != 0 or h % n != 0
