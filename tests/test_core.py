"""Core arithmetic: ring validation, classes, membership, degrees, the work ledger."""

import ast
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MACAULAY,
    lattice_contains,
    membership_dp,
    small_specs_for_crosscheck,
    subgroup_classes_bfs,
    weighted_degree,
)
from sgring.core import RingSpec, Work, class_of, group_order, order_of, subgroup_classes
from sgring.errors import BudgetExceeded, NegativeExponent, NonPositiveAB, ZeroGenerator
from sgring.hilbert import hilbert_data, is_cm
from sgring.oracle import corners, semigroup_contains


def test_validate_known_rings():
    spec = RingSpec(4, 4, ((3, 1), (1, 3)))
    assert spec.gens == ((3, 1), (1, 3))
    assert RingSpec(2, 3, ()).gens == ()


def test_validate_rejects_bad_input():
    with pytest.raises(NonPositiveAB):
        RingSpec(0, 3, ((1, 1),))
    with pytest.raises(NonPositiveAB):
        RingSpec(2, -1, ())
    with pytest.raises(ZeroGenerator):
        RingSpec(2, 3, ((0, 0),))
    with pytest.raises(NegativeExponent):
        RingSpec(2, 3, ((1, -2),))


def test_bool_exponents_rejected():
    # bool is an int subclass; it must not pass as an exponent
    with pytest.raises(NonPositiveAB):
        RingSpec(True, 3)
    with pytest.raises(NonPositiveAB):
        RingSpec(2, True)
    with pytest.raises(NegativeExponent):
        RingSpec(2, 3, ((True, 1),))


def test_validate_dedupes_and_keeps_order():
    spec = RingSpec(2, 3, ((4, 1), (1, 1), (4, 1), (2, 2)))
    assert spec.gens == ((4, 1), (1, 1), (2, 2))


def test_axis_multiple_generators_change_nothing():
    base = RingSpec(2, 3, ((3, 1), (1, 2)))
    padded = RingSpec(2, 3, ((3, 1), (4, 0), (1, 2), (0, 6)))
    assert subgroup_classes(base) == subgroup_classes(padded)
    assert corners(base).corners == corners(padded).corners
    assert hilbert_data(base, corners(base)) == hilbert_data(padded, corners(padded))


def test_class_of():
    assert class_of(MACAULAY, (6, 2)) == (2, 2)
    assert class_of(RingSpec(2, 3, ()), (11, 1)) == (1, 1)
    assert class_of(MACAULAY, (0, 0)) == (0, 0)


def test_subgroup_examples():
    assert subgroup_classes(MACAULAY) == {(0, 0), (3, 1), (2, 2), (1, 3)}
    full = subgroup_classes(RingSpec(2, 3, ((11, 1), (1, 11))))
    assert full == {(p, q) for p in range(2) for q in range(3)}
    assert subgroup_classes(RingSpec(2, 3, ())) == {(0, 0)}


def test_subgroup_is_closed_and_divides():
    for spec in small_specs_for_crosscheck():
        group = subgroup_classes(spec)
        a, b = spec.a, spec.b
        assert (0, 0) in group
        for p, q in group:
            for r, s in group:
                assert ((p + r) % a, (q + s) % b) in group
        assert (a * b) % len(group) == 0


def test_order_of_examples():
    assert order_of((1, 1), (2, 3)) == 6
    assert order_of((3, 1), (4, 4)) == 4
    assert order_of((0, 0), (7, 9)) == 1


@given(a=st.integers(1, 12), b=st.integers(1, 12),
       p=st.integers(0, 40), q=st.integers(0, 40))
def test_order_of_is_minimal(a, b, p, q):
    c = (p % a, q % b)
    o = order_of(c, (a, b))
    assert (o * c[0]) % a == 0 and (o * c[1]) % b == 0
    for k in range(1, o):
        assert (k * c[0]) % a != 0 or (k * c[1]) % b != 0


def test_semigroup_contains_examples():
    assert semigroup_contains(MACAULAY, (5, 3), corners(MACAULAY))
    assert not semigroup_contains(MACAULAY, (2, 2), corners(MACAULAY))
    assert semigroup_contains(MACAULAY, (0, 0), corners(MACAULAY))
    assert not semigroup_contains(MACAULAY, (-4, 0), corners(MACAULAY))


def test_semigroup_contains_matches_dp():
    for spec in small_specs_for_crosscheck():
        cs = corners(spec)
        member = membership_dp(spec, 30, 30)
        for x in range(-3, 31):
            for y in range(-3, 31):
                assert semigroup_contains(spec, (x, y), cs) == member((x, y)), (spec, x, y)


def test_semigroup_contains_far_point_is_fast():
    t0 = time.perf_counter()
    assert semigroup_contains(MACAULAY, (3000, 3000), corners(MACAULAY))
    assert time.perf_counter() - t0 < 0.1


@given(st.data())
@settings(max_examples=60)
def test_semigroup_superadditive_and_in_lattice(data):
    spec = data.draw(st.sampled_from(small_specs_for_crosscheck()))
    gens = ((spec.a, 0), (0, spec.b)) + spec.gens
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    u = (sum(c * g[0] for c, g in zip(coeffs, gens)),
         sum(c * g[1] for c, g in zip(coeffs, gens)))
    assert semigroup_contains(spec, u, corners(spec))
    assert lattice_contains(spec, u)
    coeffs2 = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    v = (sum(c * g[0] for c, g in zip(coeffs2, gens)),
         sum(c * g[1] for c, g in zip(coeffs2, gens)))
    assert semigroup_contains(spec, (u[0] + v[0], u[1] + v[1]), corners(spec))


@given(st.data())
@settings(max_examples=60)
def test_membership_implies_lattice(data):
    spec = data.draw(st.sampled_from(small_specs_for_crosscheck()))
    x = data.draw(st.integers(0, 25))
    y = data.draw(st.integers(0, 25))
    if semigroup_contains(spec, (x, y), corners(spec)):
        assert lattice_contains(spec, (x, y))


def test_lattice_examples():
    # for the Macaulay ring the group is {(u, v) : u + v = 0 mod 4}
    assert lattice_contains(MACAULAY, (2, 2))
    assert not lattice_contains(MACAULAY, (1, 0))
    assert lattice_contains(MACAULAY, (0, 0))
    assert lattice_contains(MACAULAY, (-3, -1))
    assert lattice_contains(MACAULAY, (5, -1))


@given(st.data())
@settings(max_examples=60)
def test_lattice_closed_under_negation_and_addition(data):
    spec = data.draw(st.sampled_from(small_specs_for_crosscheck()))
    pts = [(data.draw(st.integers(-15, 15)), data.draw(st.integers(-15, 15)))
           for _ in range(2)]
    members = [p for p in pts if lattice_contains(spec, p)]
    for x, y in members:
        assert lattice_contains(spec, (-x, -y))
    if len(members) == 2:
        (x1, y1), (x2, y2) = members
        assert lattice_contains(spec, (x1 + x2, y1 + y2))


def test_lattice_matches_subgroup_classes():
    # v lies in the group iff its congruence class is generated by the gens
    for spec in small_specs_for_crosscheck():
        group = subgroup_classes_bfs(spec)
        assert group_order(spec) == len(group)
        for x in range(-spec.a, 2 * spec.a + 1):
            for y in range(-spec.b, 2 * spec.b + 1):
                assert lattice_contains(spec, (x, y)) == ((x % spec.a, y % spec.b) in group)


@given(a=st.integers(1, 12), b=st.integers(1, 12),
       gens=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30))
                     .filter(lambda g: g != (0, 0)), max_size=4))
@example(a=5, b=7, gens=[])
@example(a=1, b=6, gens=[(3, 4)])
@example(a=6, b=1, gens=[(4, 3), (2, 0)])
@example(a=8, b=12, gens=[(6, 0), (0, 9)])
@example(a=4, b=6, gens=[(4, 6), (12, 7), (9, 18)])
@example(a=10**9, b=10**9, gens=[(5 * 10**8, 0), (0, 5 * 10**8)])
@settings(max_examples=80, deadline=None)
def test_subgroup_classes_match_closure(a, b, gens):
    # the Hermite-form listing against the closure under addition
    spec = RingSpec(a, b, tuple(gens))
    assert subgroup_classes(spec) == subgroup_classes_bfs(spec)


def test_weighted_degree_examples():
    assert weighted_degree(MACAULAY, (6, 2)) == 32
    assert weighted_degree(RingSpec(2, 3, ()), (11, 1)) == 35
    spec = RingSpec(5, 7, ())
    assert weighted_degree(spec, (5, 0)) == weighted_degree(spec, (0, 7)) == 35


@given(a=st.integers(1, 9), b=st.integers(1, 9),
       u=st.tuples(st.integers(0, 50), st.integers(0, 50)),
       v=st.tuples(st.integers(0, 50), st.integers(0, 50)))
def test_weighted_degree_additive(a, b, u, v):
    spec = RingSpec(a, b, ())
    total = weighted_degree(spec, (u[0] + v[0], u[1] + v[1]))
    assert total == weighted_degree(spec, u) + weighted_degree(spec, v)


def test_rescaling_preserves_invariants():
    # substituting x -> x^b, y -> y^a preserves all reported data
    for spec in small_specs_for_crosscheck():
        if len(spec.gens) > 2:
            continue
        scaled = RingSpec(spec.a * spec.b, spec.a * spec.b,
                          tuple((spec.b * p, spec.a * q) for p, q in spec.gens))
        assert len(subgroup_classes(scaled)) == len(subgroup_classes(spec))
        assert len(corners(scaled)) == len(corners(spec))
        assert is_cm(scaled, corners(scaled)) == is_cm(spec, corners(spec))
        hd, hd_s = hilbert_data(spec, corners(spec)), hilbert_data(scaled, corners(scaled))
        assert (hd.multiplicity, hd.constant, hd.stabilization) == \
               (hd_s.multiplicity, hd_s.constant, hd_s.stabilization)


def test_work_forecast_spends_nothing_and_charge_spends():
    work = Work(10)
    work.forecast("corners", 10, "at least 10")
    assert (work.left, work.spent) == (10, {})
    work.charge("batch", 4)
    work.charge("corners", 6)
    assert (work.left, work.spent) == (0, {"batch": 4, "corners": 6})
    work.charge("basis", 0)
    with pytest.raises(BudgetExceeded) as exc:
        work.forecast("bruteforce", 1, "one step")
    assert str(exc.value) == (
        "bruteforce needs 1 brute-force steps (one step), over the 0 left of the work "
        "budget of 10; spent: batch 4 curves, corners 6 generator steps, basis 0 basis pairs")
    with pytest.raises(BudgetExceeded):
        work.charge("corners", 1)
    assert (work.left, work.spent) == (0, {"batch": 4, "corners": 6, "basis": 0})


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sgring").glob("*.py"))


def _outside_work():
    """(file:line, node) for every AST node of the package outside class Work."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(n) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Work"
                  for n in ast.walk(cls)}
        for n in ast.walk(tree):
            if id(n) not in inside and hasattr(n, "lineno"):
                yield f"{path.name}:{n.lineno}", n


def test_only_the_ledger_raises_budget_exceeded():
    # the budget rule lives in one place: core.Work
    raises = [where for where, n in _outside_work()
              if isinstance(n, ast.Raise) and "BudgetExceeded" in ast.unparse(n)]
    assert SOURCES and not raises


def test_no_function_but_the_ledger_takes_a_budget():
    # functions that spend work take a Work, never a bare budget
    takers = [where for where, n in _outside_work() if isinstance(n, ast.arg)
              and n.arg == "budget"]
    assert not takers
