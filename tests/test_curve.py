"""Curve specialization: constants, criteria, determinants, basis, batch."""

import pytest

from helpers import YDEGS_23_2_18, candidate_box, iter_curves
from sgring.core import RingSpec
from sgring.curve import (
    BatchRow,
    CurveSpec,
    basis,
    batch_classify,
    constants,
    determinant_identities,
    is_cm,
    special_case_cm,
)
from sgring.errors import BudgetExceeded, InvalidCurve
from sgring.fourgen import constants as fourgen_constants
from sgring.oracle import corners

def test_curve_spec_validation():
    with pytest.raises(InvalidCurve):
        CurveSpec(4, 3, 3)
    with pytest.raises(InvalidCurve):
        CurveSpec(4, 0, 3)
    with pytest.raises(InvalidCurve):
        CurveSpec(3, 1, 3)


def test_constants_worked_example():
    c = constants(CurveSpec(23, 2, 18))
    assert (c.a1, c.b1, c.c1) == (5, 2, 2)
    assert (c.a2, c.b2, c.c2) == (4, 3, 2)
    assert (c.a3, c.b3, c.c3) == (9, 1, 0)
    assert c.d == 1 and c.group_order == 23


def test_constants_euclidean_cases():
    c = constants(CurveSpec(4, 1, 3))
    assert (c.a2, c.b2, c.c2) == (2, 2, 1)
    c = constants(CurveSpec(7, 1, 3))
    assert (c.a2, c.b2, c.c2) == (2, 3, 1)


def test_is_cm_examples():
    assert not is_cm(constants(CurveSpec(23, 2, 18)))  # 3 < 4 + 2
    assert not is_cm(constants(CurveSpec(4, 1, 3)))    # 2 < 2 + 1
    assert is_cm(constants(CurveSpec(7, 1, 3)))        # 3 >= 2 + 1


def test_determinant_identities_worked_example():
    vals = determinant_identities(constants(CurveSpec(23, 2, 18)))
    assert vals["n_32"] == 23 and vals["m_32"] == 18 and vals["l_32"] == 2
    vals = determinant_identities(constants(CurveSpec(4, 1, 3)))
    assert vals["n_32"] == 1 * (3 * 2 - 2 * 1) == 4


def test_determinant_identities_all_small_curves():
    for n, l, m in iter_curves(30):
        determinant_identities(constants(CurveSpec(n, l, m)))  # raises on violation


def test_special_cases():
    assert special_case_cm(CurveSpec(4, 1, 3)) is False
    assert special_case_cm(CurveSpec(6, 1, 3)) is True   # r = 0
    assert special_case_cm(CurveSpec(5, 2, 3)) is True   # l + m = n, m = l + 1
    assert special_case_cm(CurveSpec(8, 3, 6)) is None


def test_special_cases_agree_with_general():
    for n, l, m in iter_curves(30):
        spec = CurveSpec(n, l, m)
        closed = special_case_cm(spec)
        if closed is not None:
            assert closed == is_cm(constants(spec)), spec


def test_coincidence_with_fourgen_form():
    # curve constants equal the four-generator constants of the same ring
    for n, l, m in iter_curves(30):
        c = constants(CurveSpec(n, l, m))
        fg = fourgen_constants(n, n, (n - l, l), (n - m, m))
        assert c.to_fourgen() == fg, (n, l, m)
        assert fg.h2 == c.c2 * n and fg.h3 == c.c3 * n and fg.h1 == c.c1 * n
        assert fg.g2 == (c.b2 - c.a2 - c.c2) * n
        assert fg.g3 == (c.a3 - c.b3 - c.c3) * n


def test_basis_worked_example():
    res = basis(CurveSpec(23, 2, 18))
    assert res.initial_size == 23
    assert [t.size for t in res.trace] == [34, 36, 39, 41]
    assert res.consts.a1 == 5 and [t.base for t in res.trace] == [1, 1, 1, 1]
    assert [t.branch for t in res.trace] == [6, 4, 5, 4]
    assert sorted(v[1] for v in res.monomials) == YDEGS_23_2_18


def test_basis_cm_curve_no_iterations():
    res = basis(CurveSpec(5, 2, 3))
    assert res.iterations == 0 and len(res.pairs) == 5


def test_basis_matches_corners_small_curves():
    for n, l, m in iter_curves(20):
        spec = CurveSpec(n, l, m)
        res = basis(spec)
        ring = RingSpec(n, n, spec.ring_gens())
        assert res.monomials == frozenset(corners(ring).corners), spec


def test_seed_box_size_is_n_over_d():
    for n, l, m in iter_curves(20):
        c = constants(CurveSpec(n, l, m))
        assert c.group_order == n // c.d
        assert len(candidate_box(c.to_fourgen())) == n // c.d


def test_batch_small():
    rows = batch_classify(3)
    assert rows == [BatchRow(3, 1, 2, True, 3, 3, False)]

    rows = batch_classify(4)
    assert [(r.n, r.l, r.m, r.is_cm) for r in rows] == [
        (3, 1, 2, True), (4, 1, 2, True), (4, 1, 3, False), (4, 2, 3, True),
    ]
    assert sum(1 for r in rows if not r.is_cm) == 1


def test_batch_cm_rows_have_minimal_basis():
    for r in batch_classify(15):
        if r.is_cm:
            assert r.basis_size == r.group_order


def test_batch_oracle_column():
    rows = batch_classify(8, oracle_up_to=6)
    for r in rows:
        if r.n <= 6:
            assert r.oracle_agree is True
        else:
            assert r.oracle_agree is None


def test_batch_oracle_column_reports_a_failed_check(monkeypatch):
    from sgring import hilbert

    cone_shift = hilbert.gsw_cm_check
    monkeypatch.setattr(hilbert, "gsw_cm_check",
                        lambda *args: (not cone_shift(*args)[0], None))
    rows = batch_classify(6, oracle_up_to=5)
    assert all(r.oracle_agree is False for r in rows if r.n <= 5)
    assert all(r.oracle_agree is None for r in rows if r.n > 5)


def test_batch_oracle_rows_share_the_budget():
    # the 220 curves with n <= 12 use the whole budget before any oracle row
    with pytest.raises(BudgetExceeded):
        batch_classify(12, oracle_up_to=12, budget=220)
    # C(6, 3) = 20 curves, then |corners| x 2 generator steps per oracle ring
    steps = sum(2 * len(corners(RingSpec(n, n, CurveSpec(n, l, m).ring_gens())))
                for n, l, m in iter_curves(6))
    assert steps == 224
    assert len(batch_classify(6, oracle_up_to=6, budget=20 + steps)) == 20
    with pytest.raises(BudgetExceeded):
        batch_classify(6, oracle_up_to=6, budget=20 + steps - 1)


def test_batch_differential_run():
    rows = batch_classify(30, oracle_up_to=20)
    assert len(rows) == 4060
    assert all(r.oracle_agree for r in rows if r.n <= 20)


def test_batch_rejects_tiny_bound():
    with pytest.raises(InvalidCurve):
        batch_classify(2)
