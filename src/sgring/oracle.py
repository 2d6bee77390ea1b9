"""Brute-force ground truth for the fast paths.

Corner staircases (the unique monomial basis of R/(x^a, y^b)), semigroup
membership through them, direct Hilbert-function counting, the bounded
cone-shift Cohen-Macaulay check, and verbatim minimal searches for the
four-generator constants.  Everything here is exact; enumerations abort
with BudgetExceeded rather than truncate.
"""

from __future__ import annotations

from bisect import bisect_right

from .core import RingSpec, class_of, order_of
from .errors import BudgetExceeded, InvalidDN, ZeroGeneratorPair
from .fourgen import FourGenConstants

Vec = tuple[int, int]

DEFAULT_BUDGET = 10_000_000


class CornerSet:
    """All monomials of R outside (x^a, y^b), grouped by congruence class.

    corners   -- exponent vectors sorted by (beta, alpha)
    by_class  -- class -> corners of that class sorted by beta ascending
                 (equivalently alpha strictly descending: each class is an
                 antichain)
    grids     -- class -> ((u, v), ...) with the same corners in lattice
                 steps from the class representative, u ascending
    """

    __slots__ = ("spec", "corners", "by_class", "grids")

    def __init__(self, spec: RingSpec, grids: dict[Vec, list[Vec]]):
        a, b = spec.a, spec.b
        self.spec = spec
        self.grids = {cls: tuple(sorted(g)) for cls, g in sorted(grids.items())}
        by_class = {}
        for (p, q), grid in self.grids.items():
            by_class[(p, q)] = tuple(
                (p + u * a, q + v * b) for u, v in reversed(grid)
            )
        self.by_class = by_class
        self.corners = tuple(
            sorted((v for vs in by_class.values() for v in vs), key=lambda v: (v[1], v[0]))
        )

    def __len__(self) -> int:
        return len(self.corners)


def _corner_grids(a: int, b: int, gens: tuple[Vec, ...], budget: int) -> dict[Vec, list[Vec]]:
    """Per-class minimal points of S, in lattice steps (u, v) off the class rep.

    Worklist closure over sums of middle generators: a sum is kept only while
    no already-known point of its class lies componentwise below it, which is
    exactly the condition for being outside (x^a, y^b).  Pure-power steps
    never appear in a minimal sum, so only middle generators are expanded.
    Work is bounded by `budget` insertions.
    """
    mins: dict[Vec, list[Vec]] = {(0, 0): [(0, 0)]}
    stack: list[Vec] = [(0, 0)]
    steps = 0
    while stack:
        x, y = stack.pop()
        for gp, gq in gens:
            wa, wb = x + gp, y + gq
            cls = (wa % a, wb % b)
            lst = mins.get(cls)
            if lst is None:
                mins[cls] = [(wa, wb)]
            else:
                if any(ea <= wa and eb <= wb for ea, eb in lst):
                    continue
                lst[:] = [e for e in lst if not (wa <= e[0] and wb <= e[1])]
                lst.append((wa, wb))
            steps += 1
            if steps > budget:
                raise BudgetExceeded(
                    f"corner enumeration exceeded budget of {budget} insertions"
                )
            stack.append((wa, wb))
    return {
        cls: [((va - cls[0]) // a, (vb - cls[1]) // b) for va, vb in lst]
        for cls, lst in mins.items()
    }


def corners(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> CornerSet:
    """Enumerate the complete corner set of the ring."""
    return CornerSet(spec, _corner_grids(spec.a, spec.b, spec.gens, budget))


def length_mod_parameters(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> int:
    """dim_k R/(x^a, y^b) = number of corners."""
    return len(corners(spec, budget))


def semigroup_contains(
    spec: RingSpec,
    v: Vec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff v is a nonnegative integer combination of the generators.

    Subtracting (a, 0) or (0, b) while staying in S ends at a corner, so v
    lies in S iff it dominates a corner of its class.  Along a class's
    antichain alpha falls as beta rises, so only the corner with the
    greatest beta <= v's beta needs testing.
    """
    alpha, beta = v
    if alpha < 0 or beta < 0:
        return False
    cs = corner_set if corner_set is not None else corners(spec, budget)
    column = cs.by_class.get(class_of(spec, v))
    if column is None:
        return False
    i = bisect_right(column, beta, key=lambda c: c[1])
    return i > 0 and column[i - 1][0] <= alpha


def _count_order_n(grid: tuple[Vec, ...], n: int) -> int:
    """Number of lattice points of one class at distance exactly n.

    `grid` is the class's corner antichain, u ascending (v descending).  A
    point (u, v) lies in S iff it dominates a corner, and its distance is
    u + v - min(uc + vc) over dominated corners (the number of pure-power
    steps down to the cheapest corner).  For u in [u_j, u_{j+1}) the
    dominated set is the prefix 0..j; slicing v by the corner rows makes the
    count a union of O(k^2) integer intervals.
    """
    k = len(grid)
    count = 0
    for j in range(k):
        u_lo = grid[j][0]
        u_hi = grid[j + 1][0] - 1 if j + 1 < k else None
        wmin = None
        for i in range(j, -1, -1):
            ui, vi = grid[i]
            s = ui + vi
            if wmin is None or s < wmin:
                wmin = s
            # v = n - u + wmin must fall in [vi, previous row), i.e.
            # u in (n + wmin - v_hi, n + wmin - vi]
            hi = n + wmin - vi
            if u_hi is not None and u_hi < hi:
                hi = u_hi
            lo = u_lo
            if i > 0:
                cut = n + wmin - grid[i - 1][1] + 1
                if cut > lo:
                    lo = cut
            if hi >= lo:
                count += hi - lo + 1
    return count


def hilbert_function(
    spec: RingSpec,
    n: int,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """lambda((X,Y)^n / (X,Y)^(n+1)) by exact counting, X = x^a, Y = y^b."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    cs = corner_set if corner_set is not None else corners(spec, budget)
    return sum(_count_order_n(grid, n) for grid in cs.grids.values())


def gsw_cm_check(
    spec: RingSpec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, Vec | None]:
    """Cone-shift Cohen-Macaulay test with shifts (a, 0) and (0, b).

    Searches for a group-lattice point v outside S with both v + (a, 0) and
    v + (0, b) inside S.  Both shifted memberships force v to be
    componentwise >= 0, so the search lives on the class grids: in a class
    whose staircase frontier F(v) = min{uc : corner, vc <= v} drops from
    F to F' < F at row v, the point (F - 1, v - 1) is a violation witness,
    and every violation sits at such a drop.  Returns (True, None) when no
    witness exists, else (False, witness) with the (beta, alpha)-least
    witness.
    """
    cs = corner_set if corner_set is not None else corners(spec, budget)
    a, b = spec.a, spec.b
    best = None
    for (p, q), grid in cs.grids.items():
        k = len(grid)
        if k < 2:
            continue
        # u ascending, v descending: first frontier drop at row v_{k-2},
        # where the frontier height is u_{k-1}.
        wit = (q + (grid[k - 2][1] - 1) * b, p + (grid[k - 1][0] - 1) * a)
        if best is None or wit < best:
            best = wit
    if best is None:
        return True, None
    return False, (best[1], best[0])


def fourgen_constants_bruteforce(
    d: int, n: int, el: Vec, fm: Vec
) -> FourGenConstants:
    """Verbatim minimal searches for the four-generator constants.

    Independent of the fast path: each triple is found by a direct double
    loop over its defining range, and the first relation is located by its
    own order-minimal search instead of being derived from the other two.
    """
    if d < 1 or n < 1:
        raise InvalidDN(f"need d, n >= 1, got d={d}, n={n}")
    if el == (0, 0) or fm == (0, 0):
        raise ZeroGeneratorPair("four-generator constants need nonzero generator pairs")
    e, l = el
    f, m = fm
    ord_el = order_of((e % d, l % n), (d, n))
    ord_fm = order_of((f % d, m % n), (d, n))

    # smallest b with -a*(e,l) + b*(f,m) in the lattice and the sign rule
    a2 = b2 = g2 = h2 = None
    for b in range(1, ord_fm + 1):
        for a in range(ord_el):
            g, h = b * f - a * e, b * m - a * l
            if g % d == 0 and h % n == 0 and (g > 0 or h > 0 or (g == 0 and h == 0)):
                a2, b2, g2, h2 = a, b, g, h
                break
        if b2 is not None:
            break
    assert b2 is not None

    # smallest a with a*(e,l) - b*(f,m) in the lattice, componentwise >= 0
    a3 = b3 = g3 = h3 = None
    for a in range(1, ord_el + 1):
        for b in range(ord_fm):
            g, h = a * e - b * f, a * l - b * m
            if g % d == 0 and h % n == 0 and g >= 0 and h >= 0 and (g, h) != (0, 0):
                a3, b3, g3, h3 = a, b, g, h
                break
        if a3 is not None:
            break
    assert a3 is not None

    # least lattice value (h, then g) of a*(e,l) + b*(f,m) with a, b > 0
    # and b bounded by the search above
    best = None
    for b in range(1, b2 + 1):
        for a in range(1, ord_el + 1):
            g, h = a * e + b * f, a * l + b * m
            if g % d == 0 and h % n == 0:
                cand = (h, g, a, b)
                if best is None or cand < best:
                    best = cand
    assert best is not None
    h1, g1, a1, b1 = best

    return FourGenConstants(
        d=d, n=n, e=e, l=l, f=f, m=m,
        a1=a1, b1=b1, g1=g1, h1=h1,
        a2=a2, b2=b2, g2=g2, h2=h2,
        a3=a3, b3=b3, g3=g3, h3=h3,
    )
