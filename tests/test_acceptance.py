"""Acceptance suite: the ten numbered criteria, one test each.

Every test prints a single "criterion N: PASS/FAIL" line (run pytest with
-s or read captured output) and enforces its stated time budget.

Criterion 8 checks both halves of the constructor's contract.  A
(constant C, stabilization N) pair is realizable iff N = 0 or N < C: a
positive stabilization index is a gap strictly inside one class's corner
ladder, and the Hilbert constant is at least that ladder's length, so
N >= 1 forces N < C.  Criterion 6 checks this bound against the
brute-force Hilbert function.  Realizable pairs must round-trip exactly;
all others must be rejected with InfeasibleHilbertData.
"""

import time

import pytest

from helpers import (
    MACAULAY,
    YDEGS_23_2_18,
    iter_curves,
    iter_fourgen_params,
    iter_hilbert_family,
    subgroup_classes_bfs,
)
from sgring.cli import build_report
from sgring.core import RingSpec, subgroup_classes
from sgring.curve import CurveSpec, basis as curve_basis
from sgring.curve import constants as curve_constants
from sgring.curve import determinant_identities, is_cm as is_cm_curve, special_case_cm
from sgring.errors import InfeasibleHilbertData
from sgring.fourgen import constants, is_cm as is_cm_fourgen, length_bound, monomial_basis
from sgring.hilbert import construct_ring, hilbert_data
from sgring.oracle import corners, gsw_cm_check, hilbert_function


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_macaulay_analysis():
    t0 = time.perf_counter()
    rep, _ = build_report(MACAULAY)
    elapsed = time.perf_counter() - t0
    assert rep["length"] == 5
    assert rep["multiplicity"] == 4
    assert rep["is_cm"] is False
    assert elapsed < 0.1
    report(1, True, f"length 5, multiplicity 4, not CM ({elapsed * 1e3:.1f} ms)")


def test_criterion_2_eleven_element_basis():
    t0 = time.perf_counter()
    result = monomial_basis(constants(2, 3, (11, 1), (1, 11)))
    elapsed = time.perf_counter() - t0
    expected = {(0, 0), (11, 1), (22, 2), (33, 3), (44, 4), (55, 5),
                (1, 11), (2, 22), (3, 33), (4, 44), (5, 55)}
    assert result.monomials == expected
    assert elapsed < 0.1
    report(2, True, f"11 logs exact ({elapsed * 1e3:.1f} ms)")


def test_criterion_3_triangular_basis_attains_bound():
    t0 = time.perf_counter()
    c = constants(2, 3, (7, 1), (1, 7))
    result = monomial_basis(c)
    attained = length_bound(c, result)
    elapsed = time.perf_counter() - t0
    expected = {(7 * u + v, u + 7 * v) for u in range(6) for v in range(6 - u)}
    assert result.monomials == expected
    assert len(result.pairs) == 21 == c.group_order * (c.group_order + 1) // 2
    assert attained is True
    assert elapsed < 0.1
    report(3, True, f"21 monomials, bound 6*7/2 attained ({elapsed * 1e3:.1f} ms)")


def test_criterion_4_curve_trace_and_degrees():
    t0 = time.perf_counter()
    result = curve_basis(CurveSpec(23, 2, 18))
    elapsed = time.perf_counter() - t0
    assert result.initial_size == 23
    assert [t.size for t in result.trace] == [34, 36, 39, 41]
    assert result.consts.a1 == 5  # the starting base
    assert [t.base for t in result.trace] == [1, 1, 1, 1]
    assert sorted(v[1] for v in result.monomials) == YDEGS_23_2_18
    assert elapsed < 0.1
    report(4, True, f"|B| 23,34,36,39,41; base 5 then 1; 41 y-degrees exact "
                    f"({elapsed * 1e3:.1f} ms)")


def test_criterion_5_curve_constants():
    t0 = time.perf_counter()
    c = curve_constants(CurveSpec(23, 2, 18))
    elapsed = time.perf_counter() - t0
    assert (c.a1, c.b1, c.c1) == (5, 2, 2)
    assert (c.a2, c.b2, c.c2) == (4, 3, 2)
    assert is_cm_curve(c) is False  # 3 < 4 + 2
    assert elapsed < 0.1
    report(5, True, f"(a1,b1,c1)=(5,2,2), (a2,b2,c2)=(4,3,2), not CM "
                    f"({elapsed * 1e3:.1f} ms)")


def test_criterion_6_hilbert_function_family():
    t0 = time.perf_counter()
    checked = 0
    for spec in iter_hilbert_family():
        cs = corners(spec)
        hd = hilbert_data(spec, cs)
        lo = hd.stabilization
        for n in range(lo, lo + 4):
            assert hilbert_function(spec, n, cs) == hd.value(n), (spec, n)
        if lo >= 1:
            assert hilbert_function(spec, lo - 1, cs) != hd.value(lo - 1), spec
            # positive stabilization always sits strictly below the constant
            assert lo < hd.constant, spec
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, True, f"{checked} rings: HF(n) = P(n) on [N, N+3], HF(N-1) != P(N-1) "
                    f"({elapsed:.1f} s)")


def test_criterion_7_cm_criteria_triple_agreement():
    t0 = time.perf_counter()
    checked = 0
    for n, l, m in iter_curves(30):
        cspec = CurveSpec(n, l, m)
        fast = is_cm_curve(curve_constants(cspec))
        assert fast == is_cm_fourgen(constants(n, n, (n - l, l), (n - m, m))), cspec
        ring = RingSpec(n, n, cspec.ring_gens())
        cs = corners(ring)
        unique = all(len(g) == 1 for g in cs.grids.values())
        assert fast == unique == gsw_cm_check(ring, cs)[0], cspec
        checked += 1
    for d, n, el, fm in iter_fourgen_params():
        fast = is_cm_fourgen(constants(d, n, el, fm))
        ring = RingSpec(d, n, (el, fm))
        cs = corners(ring)
        unique = all(len(g) == 1 for g in cs.grids.values())
        assert fast == unique == gsw_cm_check(ring, cs)[0], (d, n, el, fm)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, True, f"{checked} rings, zero disagreements ({elapsed:.1f} s)")


def test_criterion_8_constructor_roundtrip():
    t0 = time.perf_counter()
    realized = 0
    rejected = 0
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            seen = set()
            cyclic = []
            for p in range(a):
                for q in range(b):
                    if (p, q) == (0, 0):
                        continue
                    group = subgroup_classes(RingSpec(a, b, ((p, q),)))
                    if group not in seen:
                        seen.add(group)
                        cyclic.append(((p, q), group))
            for gen, group in cyclic:
                for c in range(5):
                    for m in range(5):
                        case = (a, b, gen, c, m)
                        if m >= max(c, 1):
                            with pytest.raises(InfeasibleHilbertData):
                                construct_ring(a, b, [gen], c, m)
                            rejected += 1
                            continue
                        spec = construct_ring(a, b, [gen], c, m)
                        cs = corners(spec)
                        hd = hilbert_data(spec, cs)
                        assert (hd.multiplicity, hd.constant, hd.stabilization) == \
                            (len(group), c, m), case
                        # the brute-force count, independent of hilbert_data
                        for n in range(m, m + 4):
                            assert hilbert_function(spec, n, cs) == \
                                len(group) * (n + 1) + c, (case, n)
                        if m >= 1:
                            assert hilbert_function(spec, m - 1, cs) != \
                                len(group) * m + c, case
                        realized += 1
    elapsed = time.perf_counter() - t0
    assert (realized, rejected) == (462, 588)
    assert elapsed < 60.0
    report(8, True, f"{realized} realizable cases round-trip exactly, "
                    f"{rejected} cases with N >= max(C, 1) rejected ({elapsed:.1f} s)")


def test_criterion_9_determinant_identities_and_corollaries():
    t0 = time.perf_counter()
    checked = 0
    for n, l, m in iter_curves(30):
        cspec = CurveSpec(n, l, m)
        c = curve_constants(cspec)
        determinant_identities(c)  # raises IdentityViolation on any mismatch
        closed = special_case_cm(cspec)
        if closed is not None:
            assert closed == is_cm_curve(c), cspec
        checked += 1
    assert special_case_cm(CurveSpec(4, 1, 3)) is False
    assert special_case_cm(CurveSpec(5, 2, 3)) is True

    group_sizes: dict[tuple, int] = {}
    for d, n, el, fm in iter_fourgen_params():
        c = constants(d, n, el, fm)
        key = (d, n, el[0] % d, el[1] % n, fm[0] % d, fm[1] % n)
        h = group_sizes.get(key)
        if h is None:
            h = len(subgroup_classes_bfs(RingSpec(d, n, (el, fm))))
            group_sizes[key] = h
        assert h == c.a3 * c.b2 - c.a2 * c.b3, (d, n, el, fm)
        assert h == c.a3 * c.b1 + c.a1 * c.b3, (d, n, el, fm)
        assert h == c.a1 * c.b2 + c.a2 * c.b1, (d, n, el, fm)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, True, f"{checked} rings, zero identity violations ({elapsed:.1f} s)")


def test_criterion_10_basis_equals_corners():
    t0 = time.perf_counter()
    checked = 0
    for d, n, el, fm in iter_fourgen_params():
        c = constants(d, n, el, fm)
        result = monomial_basis(c)
        ring = RingSpec(d, n, (el, fm))
        cs = corners(ring)
        assert result.monomials == frozenset(cs.corners), (d, n, el, fm)
        assert result.iterations <= c.a3 <= c.group_order, (d, n, el, fm)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, True, f"{checked} rings: algorithm output = corner set, "
                     f"iterations <= a3 <= |H| ({elapsed:.1f} s)")
