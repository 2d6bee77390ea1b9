"""Projective monomial curves in P^3: rings k[x^n, x^(n-l) y^l, x^(n-m) y^m, y^n].

The four-generator machinery specializes: the lattice conditions collapse to
divisibility by n on the y-side, giving relation triples (ai, bi, ci) with
y-parts ci*n, determinant identities recovering n, m and l, a one-line
Cohen-Macaulay criterion b2 >= a2 + c2, and closed forms for two familiar
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .core import RingSpec
from .errors import BudgetExceeded, DisagreementError, IdentityViolation, InvalidCurve
from .fourgen import BasisResult, FourGenConstants
from .fourgen import constants as fourgen_constants, length_bound, monomial_basis
from .hilbert import hilbert_data, run_checks
from .oracle import DEFAULT_BUDGET, corners

Vec = tuple[int, int]


@dataclass(frozen=True)
class CurveSpec:
    """Exponent data (n, l, m) with 0 < l < m < n."""

    n: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if not 0 < self.l < self.m < self.n:
            raise InvalidCurve(f"need 0 < l < m < n, got l={self.l}, m={self.m}, n={self.n}")

    def ring_gens(self) -> tuple[Vec, Vec]:
        return ((self.n - self.l, self.l), (self.n - self.m, self.m))


@dataclass(frozen=True)
class CurveConstants:
    """Four-generator constants of the curve's ring (d = n), y-parts hi = ci*n:

        a1*l + b1*m = c1*n     a1, b1 > 0
       -a2*l + b2*m = c2*n     b2 minimal with c2 > 0, 0 <= a2 < n/gcd(l,n)
        a3*l - b3*m = c3*n     a3 minimal with c3 >= 0, 0 <= b3 < n/gcd(m,n)

    The first relation is the sum of the other two.  Here d = gcd(l, m, n),
    and `fourgen` is the four-generator record these are read from.
    """

    n: int
    l: int
    m: int
    d: int
    a1: int
    b1: int
    c1: int
    a2: int
    b2: int
    c2: int
    a3: int
    b3: int
    c3: int
    fourgen: FourGenConstants

    @property
    def group_order(self) -> int:
        return self.n // self.d

    def to_fourgen(self) -> FourGenConstants:
        """The same data in four-generator form (d = n, gens (n-l, l), (n-m, m))."""
        return self.fourgen


def constants(spec: CurveSpec) -> CurveConstants:
    """The four-generator constants of the curve's ring (d = n), read off in
    curve form: ci = hi / n."""
    fg = fourgen_constants(spec.n, spec.n, *spec.ring_gens())
    n, l, m = spec.n, spec.l, spec.m
    return CurveConstants(
        n=n, l=l, m=m, d=gcd(l, m, n),
        a1=fg.a1, b1=fg.b1, c1=fg.h1 // n,
        a2=fg.a2, b2=fg.b2, c2=fg.h2 // n,
        a3=fg.a3, b3=fg.b3, c3=fg.h3 // n, fourgen=fg,
    )


def is_cm(consts: CurveConstants) -> bool:
    """Cohen-Macaulay iff b2 >= a2 + c2."""
    return consts.b2 >= consts.a2 + consts.c2


def determinant_identities(consts: CurveConstants) -> dict[str, int]:
    """Evaluate the nine 2x2 determinants recovering n, m and l.

    Returns all nine scaled values; raises IdentityViolation if any of them
    misses its target (that would be an implementation bug).
    """
    d = consts.d
    a1, b1, c1 = consts.a1, consts.b1, consts.c1
    a2, b2, c2 = consts.a2, consts.b2, consts.c2
    a3, b3, c3 = consts.a3, consts.b3, consts.c3
    values = {
        "n_32": d * (a3 * b2 - a2 * b3),
        "n_31": d * (a3 * b1 + a1 * b3),
        "n_12": d * (a1 * b2 + a2 * b1),
        "m_32": d * (a3 * c2 + a2 * c3),
        "m_31": d * (a3 * c1 - a1 * c3),
        "m_12": d * (a1 * c2 + a2 * c1),
        "l_32": d * (c3 * b2 + b3 * c2),
        "l_31": d * (c3 * b1 + b3 * c1),
        "l_12": d * (c1 * b2 - c2 * b1),
    }
    targets = {"n": consts.n, "m": consts.m, "l": consts.l}
    for key, value in values.items():
        if value != targets[key[0]]:
            raise IdentityViolation(
                f"determinant {key} = {value} != {targets[key[0]]} for {consts}"
            )
    return values


def special_case_cm(spec: CurveSpec) -> bool | None:
    """Closed-form verdicts for two families; None when neither applies.

    l = 1 with n = q*m + r: Cohen-Macaulay iff r = 0 or q + r >= m.
    gcd(l, m) = 1 with l + m = n: Cohen-Macaulay iff m = l + 1.
    """
    if spec.l == 1:
        q, r = divmod(spec.n, spec.m)
        return r == 0 or q + r >= spec.m
    if gcd(spec.l, spec.m) == 1 and spec.l + spec.m == spec.n:
        return spec.m == spec.l + 1
    return None


def basis(spec: CurveSpec) -> BasisResult:
    """Monomial basis of R/(x^n, y^n) via the shared expansion loop.

    The loop state's y-part counter equals c* times n throughout, so the
    stopping rule b* >= a* + c* is the sign rule of the four-generator form.
    Trace rows expose c* as h_star // n.
    """
    return monomial_basis(constants(spec).fourgen)


@dataclass(frozen=True)
class BatchRow:
    n: int
    l: int
    m: int
    is_cm: bool
    group_order: int
    basis_size: int
    bound_attained: bool
    oracle_agree: bool | None = None


def batch_classify(
    max_n: int,
    oracle_up_to: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[BatchRow]:
    """Classify every curve with 0 < l < m < n <= max_n, rows sorted by (n, l, m).

    Each row cross-checks the numeric criterion against the closed-form
    special cases when one applies; for n <= oracle_up_to the ring also runs
    every `hilbert.run_checks` check, and `oracle_agree` says that all of
    them passed and that the agreed verdict is the curve's b2 >= a2 + c2.

    The budget counts one unit per curve, C(max_n, 3) in all, checked before
    any row.  The oracle rows share what is left: each row's corner
    enumeration may spend only the remainder, and its generator steps,
    |corners| x 2, are taken off it before the next row.
    """
    if max_n < 3:
        raise InvalidCurve(f"need max_n >= 3, got {max_n}")
    if (count := comb(max_n, 3)) > budget:
        raise BudgetExceeded(
            f"batch needs C(max_n, 3) = {count} curves, over the work budget of {budget}"
        )
    left = budget - count
    rows = []
    for n in range(3, max_n + 1):
        for l in range(1, n):
            for m in range(l + 1, n):
                spec = CurveSpec(n, l, m)
                consts = constants(spec)
                fg = consts.fourgen
                verdict = is_cm(consts)
                closed = special_case_cm(spec)
                if closed is not None and closed != verdict:
                    raise DisagreementError(
                        f"special-case verdict {closed} != {verdict} for {spec}"
                    )
                result = monomial_basis(fg)
                attained = length_bound(fg, result)
                agree = None
                if n <= oracle_up_to:
                    ring = RingSpec(n, n, spec.ring_gens())
                    cs = corners(ring, left)
                    left -= len(cs) * len(ring.gens)
                    criteria, checks = run_checks(cs, hilbert_data(ring, cs), result, None)
                    agree = (all(passed for _, passed, _ in checks)
                             and criteria["corner_unique"] == verdict)
                rows.append(
                    BatchRow(
                        n=n, l=l, m=m,
                        is_cm=verdict,
                        group_order=consts.group_order,
                        basis_size=sum(result.widths),
                        bound_attained=attained,
                        oracle_agree=agree,
                    )
                )
    return rows
