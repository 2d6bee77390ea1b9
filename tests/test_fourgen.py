"""Four-generator fast paths: constants, seed box, basis algorithm, bounds."""

import dataclasses
import random
import time
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MACAULAY,
    VECS_12,
    candidate_box,
    constants_walk,
    monomial_basis_sets,
    pair_log,
    subgroup_classes_bfs,
)
from sgring import fourgen
from sgring.core import RingSpec, group_order, order_of
from sgring.errors import InvalidDN, NegativeExponent, ZeroGeneratorPair
from sgring.fourgen import (
    BasisResult,
    MonomialView,
    constants,
    is_cm,
    length_bound,
    monomial_basis,
)
from sgring.hilbert import hilbert_data, run_checks
from sgring.oracle import corners, fourgen_constants_bruteforce


def test_constants_examples():
    c = constants(2, 3, (11, 1), (1, 11))
    assert (c.a1, c.b1) == (1, 1)
    assert (c.a2, c.b2, c.g2, c.h2) == (5, 1, -54, 6)
    assert (c.a3, c.b3) == (6, 0)

    c = constants(4, 4, (3, 1), (1, 3))
    assert (c.a1, c.b1, c.g1, c.h1) == (1, 1, 4, 4)
    assert (c.a2, c.b2, c.g2, c.h2) == (2, 2, -4, 4)
    assert (c.a3, c.b3, c.g3, c.h3) == (3, 1, 8, 0)

    c = constants(2, 3, (7, 1), (1, 7))
    assert (c.a2, c.b2, c.g2, c.h2) == (1, 1, -6, 6)
    assert (c.a3, c.b3) == (6, 0)
    assert (c.a1, c.b1) == (5, 1)


def test_constants_rejects_bad_input():
    with pytest.raises(ZeroGeneratorPair):
        constants(2, 3, (0, 0), (1, 1))
    with pytest.raises(ZeroGeneratorPair):
        constants(2, 3, (1, 1), (0, 0))
    with pytest.raises(InvalidDN):
        constants(0, 3, (1, 1), (1, 2))
    with pytest.raises(NegativeExponent):
        constants(2, 3, (-1, 1), (1, 2))


def test_constants_match_bruteforce_sampled():
    rng = random.Random(7)
    vecs = VECS_12
    for _ in range(400):
        d, n = rng.randint(1, 6), rng.randint(1, 6)
        el, fm = rng.sample(vecs, 2)
        fast = constants(d, n, el, fm)
        assert fast == fourgen_constants_bruteforce(d, n, el, fm), (d, n, el, fm)
        # both argument orders are legitimate rings
        assert constants(d, n, fm, el) == fourgen_constants_bruteforce(d, n, fm, el)


def test_constants_match_bruteforce_strided_sweep():
    # deterministic stride through the d,n <= 6, exponents <= 12 family
    pairs = list(combinations(VECS_12, 2))
    count = 0
    for d in range(1, 7):
        for n in range(1, 7):
            offset = (7 * d + n) % 11
            for el, fm in pairs[offset::11]:
                assert constants(d, n, el, fm) == \
                    fourgen_constants_bruteforce(d, n, el, fm), (d, n, el, fm)
                count += 1
    assert count > 40000


def test_constants_match_bruteforce_larger_moduli():
    # d, n beyond the sweeps above, half of them with gcd(d, n) > 1, so the
    # congruence solve meets moduli that are not coprime
    rng = random.Random(13)
    checked = shared = 0
    start = time.perf_counter()
    while checked < 600:
        d, n = rng.randint(7, 30), rng.randint(7, 30)
        if (gcd(d, n) > 1) != (checked % 2 == 0):
            continue
        el = (rng.randint(0, 40), rng.randint(0, 40))
        fm = (rng.randint(0, 40), rng.randint(0, 40))
        if (0, 0) in (el, fm) or el == fm:
            continue
        assert constants(d, n, el, fm) == fourgen_constants_bruteforce(d, n, el, fm), \
            (d, n, el, fm)
        checked += 1
        shared += gcd(d, n) > 1
    assert shared >= checked // 2
    assert time.perf_counter() - start < 5.0


_PAIR = st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda v: v != (0, 0))


@st.composite
def fourgen_inputs(draw):
    """(d, n, el, fm) with a shared factor of d and n in a third of the cases,
    and generators that are free, have a zero entry, or are proportional."""
    g = draw(st.sampled_from([1, 2, 3]))
    d, n = g * draw(st.integers(1, 8)), g * draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["free", "zero", "proportional"]))
    if shape == "proportional":
        (p, q), k1, k2 = draw(_PAIR), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return d, n, (k1 * p, k1 * q), (k2 * p, k2 * q)
    e, l, f, m = draw(_PAIR) + draw(_PAIR)
    if shape == "zero":
        zero = draw(st.integers(0, 3))
        e, l, f, m = [0 if i == zero else v for i, v in enumerate((e, l, f, m))]
        assume((e, l) != (0, 0) and (f, m) != (0, 0))
    return d, n, (e, l), (f, m)


@given(fourgen_inputs())
@settings(max_examples=300, deadline=None)
def test_constants_multiples_walk_matches_references(args):
    fast = constants(*args)
    assert fast == constants_walk(*args) == fourgen_constants_bruteforce(*args)


def test_constants_calls_solve_at_most_twice(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    solve = fourgen._solve
    monkeypatch.setattr(fourgen, "_solve", counting)
    for args in [(2003, 1999, (1, 1), (2, 5)), (23, 23, (21, 2), (5, 18)),
                 (4, 4, (3, 1), (1, 3)), (6, 4, (2, 2), (3, 3)), (5, 7, (0, 3), (4, 0))]:
        calls.clear()
        assert constants(*args) == constants_walk(*args)
        assert len(calls) <= 2, args


def test_constants_large_ring():
    d, n, el, fm = 2003, 1999, (1, 1), (2, 5)
    start = time.perf_counter()
    c = constants(d, n, el, fm)
    assert time.perf_counter() - start < 1.0
    assert (c.b2, c.a3) == (1334, 5344)
    assert c.group_order == group_order(RingSpec(d, n, (el, fm)))
    relations = [(c.a1, c.b1, c.g1, c.h1), (-c.a2, c.b2, c.g2, c.h2),
                 (c.a3, -c.b3, c.g3, c.h3)]
    for a, b, g, h in relations:
        assert pair_log(c, a, b) == (g, h) and g % d == 0 and h % n == 0
    assert c.a1 > 0 and c.b1 > 0
    assert 0 <= c.a2 < order_of(el, (d, n)) and 0 <= c.b3 < order_of(fm, (d, n))
    assert c.g2 > 0 or c.h2 > 0 or c.g2 == c.h2 == 0
    assert c.g3 >= 0 and c.h3 >= 0 and (c.g3, c.h3) != (0, 0)


def test_candidate_box_examples():
    mac = constants(4, 4, (3, 1), (1, 3))
    assert candidate_box(mac) == {(0, 0), (0, 1), (1, 0), (2, 0)}

    c11 = constants(2, 3, (11, 1), (1, 11))
    assert candidate_box(c11) == {(a, 0) for a in range(6)}

    curve23 = constants(23, 23, (21, 2), (5, 18))
    assert len(candidate_box(curve23)) == 23


def test_candidate_box_size_is_group_order():
    rng = random.Random(11)
    for _ in range(200):
        d, n = rng.randint(1, 6), rng.randint(1, 6)
        el, fm = rng.sample(VECS_12, 2)
        c = constants(d, n, el, fm)
        box = candidate_box(c)
        group = subgroup_classes_bfs(RingSpec(d, n, (el, fm)))
        assert len(box) == c.group_order == len(group)
        # determinant identities for the group order
        assert c.group_order == c.a3 * c.b2 - c.a2 * c.b3
        assert c.group_order == c.a3 * c.b1 + c.a1 * c.b3
        assert c.group_order == c.a1 * c.b2 + c.a2 * c.b1


def test_is_cm_examples():
    assert not is_cm(constants(4, 4, (3, 1), (1, 3)))
    assert not is_cm(constants(2, 3, (11, 1), (1, 11)))
    # (f,m) built from the other generators: always Cohen-Macaulay
    d, n, el = 3, 4, (2, 1)
    for u1, u2, u3 in [(1, 0, 0), (0, 2, 1), (1, 1, 1), (2, 0, 3)]:
        fm = (u1 * d + u2 * el[0], u2 * el[1] + u3 * n)
        if fm == (0, 0):
            continue
        assert is_cm(constants(d, n, el, fm)), fm


def test_basis_macaulay():
    c = constants(4, 4, (3, 1), (1, 3))
    r = monomial_basis(c)
    assert r.pairs == candidate_box(c) | {(0, 2)}
    assert r.monomials == {(0, 0), (3, 1), (1, 3), (6, 2), (2, 6)}
    assert r.iterations == 1 and r.trace[0].branch == 4


def test_basis_eleven_ring():
    r = monomial_basis(constants(2, 3, (11, 1), (1, 11)))
    expected = {(0, 0), (11, 1), (22, 2), (33, 3), (44, 4), (55, 5),
                (1, 11), (2, 22), (3, 33), (4, 44), (5, 55)}
    assert r.monomials == expected
    assert len(r.pairs) == 11


def test_basis_seven_ring_rows():
    r = monomial_basis(constants(2, 3, (7, 1), (1, 7)))
    assert len(r.pairs) == 21
    rows = {}
    for a, b in r.pairs:
        rows.setdefault(b, []).append(a)
    assert [len(rows[b]) for b in sorted(rows)] == [6, 5, 4, 3, 2, 1]


def test_length_bound_examples():
    c7 = constants(2, 3, (7, 1), (1, 7))
    assert length_bound(c7, monomial_basis(c7)) is True  # 21 == 6*7/2

    c11 = constants(2, 3, (11, 1), (1, 11))
    assert length_bound(c11, monomial_basis(c11)) is False  # 11 <= 21

    mac = constants(4, 4, (3, 1), (1, 3))
    assert length_bound(mac, monomial_basis(mac)) is False  # 5 <= 10


def test_basis_monomials_match_corners():
    rng = random.Random(23)
    for _ in range(250):
        d, n = rng.randint(1, 6), rng.randint(1, 6)
        el, fm = rng.sample(VECS_12, 2)
        c = constants(d, n, el, fm)
        r = monomial_basis(c)
        spec = RingSpec(d, n, (el, fm))
        assert r.monomials == frozenset(corners(spec).corners), spec
        assert len(r.monomials) == len(r.pairs)
        assert r.iterations <= c.a3 <= c.group_order <= d * n


def test_basis_widths_match_set_loop():
    # the row widths give the same basis and trace as growing a set of pairs
    rng = random.Random(17)
    checked = shared = 0
    branches = set()
    while checked < 2000:
        d, n = rng.randint(1, 40), rng.randint(1, 40)
        el = (rng.randint(0, 60), rng.randint(0, 60))
        fm = (rng.randint(0, 60), rng.randint(0, 60))
        if (0, 0) in (el, fm) or el == fm:
            continue
        c = constants(d, n, el, fm)
        r, ref = monomial_basis(c), monomial_basis_sets(c)
        assert (r.pairs, r.monomials, r.initial_size, r.trace) == \
            (ref.pairs, ref.monomials, ref.initial_size, ref.trace), (d, n, el, fm)
        assert r.initial_size + sum(t.added for t in r.trace) == len(r.pairs)
        assert r.sorted_pairs() == sorted(ref.pairs, key=lambda v: (v[1], v[0]))
        assert sum(r.widths) == len(ref.pairs)
        assert min(r.widths) >= 1
        assert all(w >= v for w, v in zip(r.widths, r.widths[1:]))
        branches.update(t.branch for t in r.trace)
        checked += 1
        shared += gcd(d, n) > 1
    assert branches == {4, 5, 6} and shared >= 500


def test_basis_downward_closed_after_each_iteration():
    # rows are appended above the moving b*, so the state after iteration i
    # is the seed box plus every final pair below that iteration's b*
    for d, n, el, fm in [(4, 4, (3, 1), (1, 3)), (2, 3, (7, 1), (1, 7)),
                         (2, 3, (11, 1), (1, 11)), (23, 23, (21, 2), (5, 18)),
                         (5, 6, (7, 3), (2, 11))]:
        c = constants(d, n, el, fm)
        r = monomial_basis(c)
        box = candidate_box(c)
        for t in r.trace:
            stage = set(box) | {(a, b) for (a, b) in r.pairs if b < t.b_star}
            assert len(stage) == t.size
            for a, b in stage:
                assert a == 0 or (a - 1, b) in stage
                assert b == 0 or (a, b - 1) in stage


def test_trace_added_counts_follow_band_rule():
    # each iteration adds as many pairs as the seed box holds in the band
    # old_a* <= a < old_a* + old_base
    for d, n, el, fm in [(4, 4, (3, 1), (1, 3)), (2, 3, (7, 1), (1, 7)),
                         (23, 23, (21, 2), (5, 18)), (2, 3, (11, 1), (1, 11))]:
        c = constants(d, n, el, fm)
        r = monomial_basis(c)
        box = candidate_box(c)
        a_star, base = c.a2, c.a1
        for t in r.trace:
            band = sum(1 for (a, b) in box if a_star <= a < a_star + base)
            assert t.added == band, (d, n, el, fm, t)
            a_star, base = t.a_star, t.base


def test_cm_means_no_iterations():
    rng = random.Random(5)
    seen = 0
    for _ in range(400):
        d, n = rng.randint(1, 6), rng.randint(1, 6)
        el, fm = rng.sample(VECS_12, 2)
        c = constants(d, n, el, fm)
        if is_cm(c):
            seen += 1
            r = monomial_basis(c)
            assert r.iterations == 0 and r.pairs == candidate_box(c)
    assert seen > 10


def test_duplicate_generator_pair_is_three_generator_ring():
    # identical pairs collapse to a cyclic staircase and are Cohen-Macaulay
    c = constants(4, 6, (3, 2), (3, 2))
    assert is_cm(c)
    r = monomial_basis(c)
    spec = RingSpec(4, 6, ((3, 2),))
    assert r.monomials == frozenset(corners(spec).corners)


def test_monomial_view_counts_distinct_monomials():
    # (e,l) = (1,1) and (f,m) = (2,2) are proportional: the pairs (2, 0) and
    # (0, 1) both give x^2 y^2, so four pairs give three monomials
    c = constants(4, 4, (1, 1), (2, 2))
    view = MonomialView(c, (3, 1))
    r = BasisResult(consts=c, widths=(3, 1), monomials=view, initial_size=4, trace=())
    assert len(r.pairs) == 4
    assert len(r.monomials) == 3 and sorted(r.monomials) == [(0, 0), (1, 1), (2, 2)]
    assert r.monomials == {(0, 0), (1, 1), (2, 2)}
    assert r.monomials != {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert (2, 2) in view and (3, 3) not in view
    assert hash(view) == hash(frozenset(view))
    assert view - {(0, 0)} == frozenset({(1, 1), (2, 2)})
    assert type(view - {(0, 0)}) is frozenset


def test_monomial_view_agrees_with_frozenset():
    rng = random.Random(29)
    for _ in range(300):
        d, n = rng.randint(1, 12), rng.randint(1, 12)
        el, fm = rng.sample(VECS_12, 2)
        r = monomial_basis(constants(d, n, el, fm))
        members = frozenset((a * el[0] + b * fm[0], a * el[1] + b * fm[1])
                            for a, b in r.pairs)
        assert r.monomials == members and frozenset(r.monomials) == members
        assert len(r.monomials) == len(members) and hash(r.monomials) == hash(members)
        probes = list(members) + [(x + 1, y) for x, y in members] + [(-1, 0), "x"]
        assert all((v in r.monomials) == (v in members) for v in probes), (d, n, el, fm)
        assert hash(r) == hash(dataclasses.replace(r, monomials=members))


def test_run_checks_flags_a_missing_basis_monomial():
    spec = RingSpec(23, 23, ((21, 2), (5, 18)))
    r = monomial_basis(constants(23, 23, *spec.gens))
    cs = corners(spec)
    hd = hilbert_data(spec, cs)

    def basis_check(basis):
        _, checks = run_checks(cs, hd, basis, None, with_oracle=False)
        return next(passed for name, passed, _ in checks if name == "basis_equals_corners")

    assert basis_check(r)
    corner = max(cs.corners)
    assert not basis_check(dataclasses.replace(r, monomials=r.monomials - {corner}))


def test_run_checks_flags_a_seed_box_larger_than_the_group():
    # with a3 and a1 one larger the seed box has 4 + 2 = 6 pairs, and so
    # has a3*b2 - a2*b3; the check reads |H| = 4 off the lattice instead
    cs = corners(MACAULAY)
    hd = hilbert_data(MACAULAY, cs)
    r = monomial_basis(constants(MACAULAY.a, MACAULAY.b, *MACAULAY.gens))
    c = dataclasses.replace(r.consts, a3=r.consts.a3 + 1, a1=r.consts.a1 + 1)
    wrong = dataclasses.replace(r, consts=c, initial_size=6)
    assert len(candidate_box(c)) == c.group_order == 6

    def box_check(basis):
        _, checks = run_checks(cs, hd, basis, None)
        return next((passed, detail) for name, passed, detail in checks
                    if name == "candidate_box_size")

    assert box_check(r) == (True, "|B0| vs |H| = 4")
    assert box_check(wrong) == (False, "|B0| vs |H| = 4")
