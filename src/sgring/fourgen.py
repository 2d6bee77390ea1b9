"""Fast paths for rings with two middle generators: k[x^d, x^e y^l, x^f y^m, y^n].

Three integer relations between the middle generators modulo the lattice
dZ + nZ drive everything: a numeric Cohen-Macaulay criterion, the size of
the quotient by the parameter ideal, and an iterative algorithm that grows
an explicit monomial basis from a seed rectangle union.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from math import gcd

from .core import order_of, subgroup_order
from .errors import InvalidDN, NegativeExponent, NonTermination, ZeroGeneratorPair

Vec = tuple[int, int]


@dataclass(frozen=True)
class FourGenConstants:
    """Minimal coefficients of the three generator relations.

        a1*(e,l) + b1*(f,m) = (g1,h1)      a1, b1 > 0
       -a2*(e,l) + b2*(f,m) = (g2,h2)      b2 > 0 minimal, 0 <= a2 < ord(e,l)
        a3*(e,l) - b3*(f,m) = (g3,h3)      a3 > 0 minimal, 0 <= b3 < ord(f,m)

    with every (gi,hi) in dZ + nZ, (g3,h3) componentwise nonnegative and
    nonzero, and (g2,h2) either zero or with a positive coordinate.  The
    first relation is the sum of the other two: (a1,b1) = (a3-a2, b2-b3).
    """

    d: int
    n: int
    e: int
    l: int
    f: int
    m: int
    a1: int
    b1: int
    g1: int
    h1: int
    a2: int
    b2: int
    g2: int
    h2: int
    a3: int
    b3: int
    g3: int
    h3: int

    @property
    def group_order(self) -> int:
        """|H|: order of the subgroup the two generators span mod (d, n)."""
        return self.a3 * self.b2 - self.a2 * self.b3


def _solve(el: Vec, target: Vec, d: int, n: int) -> int | None:
    """Least a >= 0 with a*(e,l) = target mod (d, n), or None.  Solves a*e = x
    mod d, then a*l = y mod n for a = a0 + k*(d/g): a CRT over moduli that
    need not be coprime."""
    (e, l), (x, y) = el, target
    g = gcd(e, d)
    if x % g:
        return None
    step = d // g
    a0 = (x // g) * pow(e // g, -1, step) % step
    c, r = step * l, y - a0 * l
    g = gcd(c, n)
    if r % g:
        return None
    period = n // g
    k = (r // g) * pow(c // g, -1, period) % period
    return a0 + k * step


def constants(d: int, n: int, el: Vec, fm: Vec) -> FourGenConstants:
    """Compute the relation coefficients by minimal search.

    The b with a relation-2 partner are the multiples of |H| / ord(e,l), and
    the partner of k times that step is k times its partner, mod ord(e,l).
    So the second relation walks those multiples from one `_solve`, with an
    addition per step, until the sign test holds; it stops at the latest at
    b = ord(f,m).  The third relation walks a over the multiples of
    |H| / ord(f,m) in the same way.  The first relation is their sum.
    """
    if d < 1 or n < 1:
        raise InvalidDN(f"need d, n >= 1, got d={d}, n={n}")
    if el == (0, 0):
        raise ZeroGeneratorPair("(e, l) = (0, 0) is not a monomial generator")
    if fm == (0, 0):
        raise ZeroGeneratorPair(
            "(f, m) = (0, 0): three-generator rings are always Cohen-Macaulay"
        )
    if min(el + fm) < 0:  # the walks below stop only for nonnegative pairs
        raise NegativeExponent(f"generator pairs {el}, {fm} need nonnegative entries")
    (e, l), (f, m) = el, fm
    h = subgroup_order(d, n, (el, fm))
    ord_el, ord_fm = order_of(el, (d, n)), order_of(fm, (d, n))

    b2 = step = h // ord_el
    a2 = partner = _solve(el, (b2 * f, b2 * m), d, n)
    while True:
        g2, h2 = b2 * f - a2 * e, b2 * m - a2 * l
        if g2 > 0 or h2 > 0 or g2 == h2 == 0:
            break
        b2, a2 = b2 + step, (a2 + partner) % ord_el

    a3 = step = h // ord_fm
    b3 = partner = _solve(fm, (a3 * e, a3 * l), d, n)
    while True:
        g3, h3 = a3 * e - b3 * f, a3 * l - b3 * m
        if g3 >= 0 and h3 >= 0 and (g3 or h3):
            break
        a3, b3 = a3 + step, (b3 + partner) % ord_fm

    return FourGenConstants(
        d=d, n=n, e=e, l=l, f=f, m=m,
        a1=a3 - a2, b1=b2 - b3, g1=g2 + g3, h1=h2 + h3,
        a2=a2, b2=b2, g2=g2, h2=h2,
        a3=a3, b3=b3, g3=g3, h3=h3,
    )


def is_cm(consts: FourGenConstants) -> bool:
    """Cohen-Macaulay iff the second relation has no negative coordinate."""
    return consts.g2 >= 0 and consts.h2 >= 0


@dataclass(frozen=True)
class TraceStep:
    """State after one basis iteration; `branch` is the rule that fired.

    Rule 4 applies the first relation (a* >= a1), rule 5 the second
    (a* <= a1 - base), rule 6 the mixed case that also shrinks the base.
    """

    branch: int
    base: int
    a_star: int
    b_star: int
    g_star: int
    h_star: int
    added: int
    size: int


class MonomialView(Set):
    """Read-only set of the vectors a*(e,l) + b*(f,m) with a < widths[b].

    Members are listed from the widths on each use, a membership test
    included; nothing is cached.  If (e,l) and (f,m) are proportional,
    distinct pairs can give one vector, so iteration and `len` then go
    through a frozenset.
    """

    __slots__ = ("_consts", "_widths")

    def __init__(self, consts: FourGenConstants, widths: tuple[int, ...]) -> None:
        self._consts, self._widths = consts, widths

    @classmethod
    def _from_iterable(cls, it) -> frozenset[Vec]:
        return frozenset(it)

    def _images(self):
        e, l, f, m = self._consts.e, self._consts.l, self._consts.f, self._consts.m
        return ((a * e + b * f, a * l + b * m)
                for b, w in enumerate(self._widths) for a in range(w))

    def __iter__(self):
        c = self._consts
        if c.e * c.m != c.l * c.f:  # independent: distinct pairs, distinct vectors
            return self._images()
        return iter(frozenset(self._images()))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, v) -> bool:
        return v in frozenset(self._images())

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({set(self)!r})"


@dataclass(frozen=True)
class BasisResult:
    """Output of the basis algorithm.

    widths    -- row b holds the lattice pairs (a, b) with a < widths[b]
    monomials -- their exponent vectors a*(e,l) + b*(f,m), a MonomialView
                 of the widths; an init field so a result can be rebuilt
                 with other monomials by `dataclasses.replace`
    trace     -- one TraceStep per iteration (post-iteration values)
    """

    consts: FourGenConstants
    widths: tuple[int, ...]
    monomials: Set[Vec]
    initial_size: int
    trace: tuple[TraceStep, ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def pairs(self) -> frozenset[Vec]:
        """The lattice exponents (a, b) of the basis monomials."""
        return frozenset(self.sorted_pairs())

    def sorted_monomials(self) -> list[Vec]:
        return sorted(self.monomials, key=lambda v: (v[1], v[0]))

    def sorted_pairs(self) -> list[Vec]:
        """The pairs sorted by (b, a), which is the order of the rows."""
        return [(a, b) for b, w in enumerate(self.widths) for a in range(w)]


def monomial_basis(consts: FourGenConstants) -> BasisResult:
    """Grow the seed box to a full monomial basis of R/(x^d, y^n).

    State (base, a*, b*, g*, h*) starts at (a1, a2, b2, g2, h2) and each
    iteration fires exactly one of three rules, appending a block of rows
    at row b*.  Every block starts at a = 0 and b* is always the number of
    rows so far, so the basis is kept as one width per row: row b holds the
    pairs (a, b) with a < widths[b].  All updates in a rule read
    pre-iteration values (in rule 6 the new base is a1 minus the old a*).
    The loop provably stops within a3 <= |H| iterations; the guard only
    trips on a bug.
    """
    a1, b1, g1, h1 = consts.a1, consts.b1, consts.g1, consts.h1
    a2, b2, g2, h2 = consts.a2, consts.b2, consts.g2, consts.h2
    limit = consts.group_order + 1

    # the seed box: a < a3 on rows b < b1, a < a1 on rows b1 <= b < b2
    widths = [consts.a3] * b1 + [a1] * (b2 - b1)
    initial_size = size = sum(widths)
    base, a_star, b_star, g_star, h_star = a1, a2, b2, g2, h2
    trace: list[TraceStep] = []

    while g_star < 0 or h_star < 0:
        if len(trace) >= limit:
            raise NonTermination(f"basis loop exceeded {limit} iterations for {consts}")
        assert base >= 1  # loop invariant; rules are exclusive only then
        if a_star >= a1:
            branch, block = 4, [base] * b1
            a_star, b_star = a_star - a1, b_star + b1
            g_star, h_star = g_star + g1, h_star + h1
        else:
            if a_star <= a1 - base:
                branch, block = 5, [base] * b2
            else:
                branch, block = 6, [base] * b1 + [a1 - a_star] * (b2 - b1)
                base = a1 - a_star
            a_star, b_star = a_star + a2, b_star + b2
            g_star, h_star = g_star + g2, h_star + h2
        widths += block
        added = sum(block)
        size += added
        trace.append(TraceStep(branch, base, a_star, b_star, g_star, h_star, added, size))

    widths = tuple(widths)
    return BasisResult(
        consts=consts,
        widths=widths,
        monomials=MonomialView(consts, widths),
        initial_size=initial_size,
        trace=tuple(trace),
    )


def length_bound(consts: FourGenConstants, result: BasisResult) -> bool:
    """Check the proven size bounds; True iff |B| = |H|(|H|+1)/2 exactly."""
    h = consts.group_order
    size = sum(result.widths)
    assert size <= h * (h + 1) // 2
    assert h <= consts.d * consts.n
    return size == h * (h + 1) // 2
