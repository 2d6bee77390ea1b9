"""Brute-force ground truth for the fast paths.

Corner staircases (the unique monomial basis of R/(x^a, y^b)), found by
one heap walk in lexicographic (x, y) order, in which every generator step
goes up: each candidate is pushed only in canonical generator order and is
tested against one corner, the last one found in its class (inside a class
that order is (u, v) order, so that corner has the least v); its grids stay
in the walk's order.  Semigroup membership through the corners, the Hilbert
function counted exactly box by box (each monomial charged to the cheapest
corner below it; the boxes are found once per corner set), the bounded
cone-shift Cohen-Macaulay check, and verbatim minimal searches for the
four-generator constants.  Everything here is exact.  Only `corners`
enumerates corners; the queries read the CornerSet they are given.
`corners` and the constants searches charge a `Work` ledger (a fresh one
when none is given), which aborts with BudgetExceeded rather than truncating.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from types import MappingProxyType

from .core import RingSpec, Work, class_of, group_order, order_of
from .errors import InvalidDN, ZeroGeneratorPair
from .fourgen import FourGenConstants

Vec = tuple[int, int]
# ((W, H), count): count corners whose box is W wide and H high, None unbounded
Box = tuple[tuple[int | None, int | None], int]


class CornerSet:
    """All monomials of R outside (x^a, y^b), grouped by congruence class.

    grids is the one stored view, a read-only mapping: class (p, q) ->
    ((u, v), ...), the class's corners (p + u*a, q + v*b) in lattice steps,
    u ascending (so v descending: each class is an antichain).  The
    constructor takes ownership of the dict it is given, each grid in that
    order: it makes every grid a tuple in place and wraps that same dict, so
    the classes keep its order (from `corners`, that of their first corners).
    Derived on each access, not cached:

    by_class  -- class -> its corners as exponent vectors, beta ascending
    corners   -- every corner as an exponent vector, sorted by (beta, alpha)
    len()     -- the number of corners

    The first `hilbert_function` call caches the box profile, a function of
    the read-only grids: racing threads store equal immutable values.
    """

    __slots__ = ("spec", "grids", "_boxes")

    def __init__(self, spec: RingSpec, grids: dict[Vec, list[Vec]]):
        self.spec = spec
        for cls, grid in grids.items():
            grids[cls] = tuple(grid)
        self.grids = MappingProxyType(grids)
        self._boxes: tuple[int, tuple[Box, ...]] | None = None

    @property
    def by_class(self) -> dict[Vec, tuple[Vec, ...]]:
        a, b = self.spec.a, self.spec.b
        return {(p, q): tuple((p + u * a, q + v * b) for u, v in reversed(grid))
                for (p, q), grid in self.grids.items()}

    @property
    def corners(self) -> tuple[Vec, ...]:
        a, b = self.spec.a, self.spec.b
        flipped = sorted((q + v * b, p + u * a)
                         for (p, q), grid in self.grids.items() for u, v in grid)
        return tuple((alpha, beta) for beta, alpha in flipped)

    def __len__(self) -> int:
        return sum(map(len, self.grids.values()))


def corners(spec: RingSpec, work: Work | None = None) -> CornerSet:
    """The complete corner set of the ring: per-class minimal points of S, in
    lattice steps (u, v) off the class rep, classes as the walk meets them.

    Every corner is a sum of middle generators, and a corner minus one of its
    summands is again a corner (if c' - (a, 0) were in S, so would be
    c - (a, 0)).  Every generator has nonnegative coordinates and is not
    (0, 0), so adding one moves a point up in lexicographic (x, y) order.
    Candidates leave a heap in that order, and a popped point is a corner iff
    no corner already found in its class lies componentwise below it: any
    such point comes before it in (x, y) order.  Only corners are expanded.

    In a class x = p + u*a, so (x, y) order is (u, v) order there.  When a
    candidate (u, v) pops, every corner found so far in its class has
    u' <= u; the class's corners form an antichain, appended in u order, so
    the last one has the least v.  One comparison, last v <= v, decides
    dominance, and an accepted corner is appended to its class's grid.

    A heap entry is one int packing (x, y, j), most significant first, where
    j indexes the generator added last; a corner popped with index j pushes
    only c + g_j' for j' >= j.  This is exact:
      1. Write a corner as a sum of generators sorted by index.  Each prefix
         of that sum is a corner (a corner minus a summand is one), so every
         corner is pushed along its sorted path.
      2. Copies of one point pop next to each other, least j first, and the
         dominance test rejects the later copies.
      3. Two prefixes of a corner never share a class of H: their difference
         would be (ma, nb) with m, n >= 0 not both zero, and the corner would
         not be minimal.  So a corner has at most |H| - 1 summands, and every
         pushed coordinate is below 2^w, w = (max exponent x |H|).bit_length().

    Work is counted in generator steps, t per corner accepted: in all
    |corners| x t, which bounds time and the heap size.  Every class of H
    has a corner, so |H| x t steps are forecast before any work.  The loop
    counts against what `work` (a fresh Work when None) has left and charges
    its steps once.
    """
    a, b, gens = spec.a, spec.b, spec.gens
    t = len(gens)
    h = group_order(spec)
    work = work or Work()
    work.forecast("corners", h * t, f"at least |H| x t = {h} x {t}")
    left = work.left
    jb = t.bit_length()
    w = (max((e for g in gens for e in g), default=0) * h).bit_length()
    jmask, wmask = (1 << jb) - 1, (1 << w) - 1
    # generator j as a packed increment that also sets the index field to j
    incs = [((gp << w | gq) << jb) + j for j, (gp, gq) in enumerate(gens)]
    grids: dict[Vec, list[Vec]] = {}
    heap = [0]
    steps = 0
    while heap:
        key = heappop(heap)
        j = key & jmask
        key -= j
        x, y = key >> w + jb, (key >> jb) & wmask
        v = y // b
        grid = grids.setdefault((x % a, y % b), [])
        if grid and grid[-1][1] <= v:  # the class's least v so far
            continue
        grid.append((x // a, v))
        steps += t
        if steps > left:
            work.charge("corners", steps, f"t = {t} per corner, {steps // t} corners so far")
        for inc in incs[j:]:
            heappush(heap, key + inc)
    work.charge("corners", steps)
    return CornerSet(spec, grids)


def semigroup_contains(spec: RingSpec, v: Vec, cs: CornerSet) -> bool:
    """True iff v is a nonnegative integer combination of the generators,
    read off the ring's corner set `cs`.

    Subtracting (a, 0) or (0, b) while staying in S ends at a corner, so v
    lies in S iff it dominates a corner of its class.  Along a class's grid
    v falls as u rises, so only the last corner with u <= v's u needs
    testing.
    """
    alpha, beta = v
    if alpha < 0 or beta < 0:
        return False
    grid = cs.grids.get(class_of(spec, v))
    if grid is None:
        return False
    i = bisect_right(grid, alpha // spec.a, key=lambda c: c[0])
    return i > 0 and grid[i - 1][1] <= beta // spec.b


def hilbert_function(spec: RingSpec, n: int, cs: CornerSet) -> int:
    """lambda((X,Y)^n / (X,Y)^(n+1)) by exact counting on the corner set `cs`,
    X = x^a, Y = y^b.

    A point (u, v) of a class lies in S iff it dominates a corner, and its
    order is u + v - min(s) over the corners it dominates, s = uc + vc.
    Along the grid (u ascending, v descending) the dominated corners form an
    interval, and each point is charged to the leftmost cheapest of them, so
    every point of S is charged exactly once.  Corner i is charged the box
    [u_i, u_R) x [v_i, v_L), where L is the nearest corner to its left with
    s_L <= s_i and R the nearest to its right with s_R < s_i (an absent side
    is unbounded): a point of the box dominates i and no corner outside
    (L, R), and the corners of (L, R) cost more left of i and no less right
    of it.  In the box, order n is the diagonal u + v = s_i + n, which holds
    min(n+1, W) - max(0, n+1 - H) points when that is positive, W = u_R - u_i
    and H = v_L - v_i.  The boxes do not depend on n: `_box_profile` finds
    them once per corner set and caches them on `cs`, and each call sums
    the diagonals over the distinct box shapes.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    profile = cs._boxes
    if profile is None:
        profile = cs._boxes = _box_profile(cs)
    free, boxes = profile
    m = n + 1
    total = free * m
    for (w, h), count in boxes:
        c = (m if w is None or w > m else w) - (0 if h is None or h >= m else m - h)
        if c > 0:
            total += count * c
    return total


def _box_profile(cs: CornerSet) -> tuple[int, tuple[Box, ...]]:
    """(free, boxes): the order-n counts of `hilbert_function`, for every n.

    In each class exactly one corner, the leftmost cheapest, has neither L
    nor R, so its box is a quadrant holding n + 1 points of order n; free
    counts these, one per class.  boxes lists every other box shape (W, H)
    with the number of corners that have it, None for an unbounded side.
    One monotonic-stack pass over each grid finds every L and R.  A
    Cohen-Macaulay ring has only free corners and stores no box.
    """
    shapes: dict[tuple[int | None, int | None], int] = {}
    for grid in cs.grids.values():
        if len(grid) == 1:
            continue
        # The stack holds the corners still waiting for their R, s
        # non-decreasing, as (s, u, v, h) with h = v_L - v (None: no L).  Its
        # top is kept unpacked in ts, tu, tv, th; ts = -1 marks an empty stack.
        below: list[tuple[int, int, int, int | None]] = []
        grid_iter = iter(grid)
        tu, tv = next(grid_iter)
        ts, th = tu + tv, None  # the first corner has no L
        for u, v in grid_iter:
            s = u + v
            while ts > s:  # (u, v) is the top's R
                shape = (u - tu, th)
                shapes[shape] = shapes.get(shape, 0) + 1
                ts, tu, tv, th = below.pop() if below else (-1, 0, 0, None)
            if ts < 0:  # no L
                th = None
            else:  # the top is this corner's L
                below.append((ts, tu, tv, th))
                th = tv - v
            ts, tu, tv = s, u, v
        # The corners left on the stack have no R; only the bottom one, the
        # class's free corner, also has no L.
        below.append((ts, tu, tv, th))
        for entry in below[1:]:
            shape = (None, entry[3])
            shapes[shape] = shapes.get(shape, 0) + 1
    return len(cs.grids), tuple(shapes.items())


def gsw_cm_check(spec: RingSpec, cs: CornerSet) -> tuple[bool, Vec | None]:
    """Cone-shift Cohen-Macaulay test with shifts (a, 0) and (0, b), on the
    corner set `cs`.

    Searches for a group-lattice point v outside S with both v + (a, 0) and
    v + (0, b) inside S.  Both shifted memberships force v to be
    componentwise >= 0, so the search lives on the class grids: in a class
    whose staircase frontier F(v) = min{uc : corner, vc <= v} drops from
    F to F' < F at row v, the point (F - 1, v - 1) is a violation witness,
    and every violation sits at such a drop.  Returns (True, None) when no
    witness exists, else (False, witness) with the (beta, alpha)-least
    witness.
    """
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
    d: int, n: int, el: Vec, fm: Vec, work: Work | None = None
) -> FourGenConstants:
    """Verbatim minimal searches for the four-generator constants.

    Independent of the fast path: each triple is found by a direct double
    loop over its defining range, and the first relation is located by its
    own order-minimal search instead of being derived from the other two.
    Each outer iteration's whole inner range is counted against what `work`
    has left before it runs; each search charges once: 2 x b2 x ord(e,l) + a3 x ord(f,m).
    """
    if d < 1 or n < 1:
        raise InvalidDN(f"need d, n >= 1, got d={d}, n={n}")
    if el == (0, 0) or fm == (0, 0):
        raise ZeroGeneratorPair("four-generator constants need nonzero generator pairs")
    e, l = el
    f, m = fm
    ord_el = order_of((e % d, l % n), (d, n))
    ord_fm = order_of((f % d, m % n), (d, n))
    work = work or Work()

    # smallest b with -a*(e,l) + b*(f,m) in the lattice and the sign rule
    a2 = b2 = g2 = h2 = None
    steps = 0
    for b in range(1, ord_fm + 1):
        if (steps := steps + ord_el) > work.left:
            work.charge("bruteforce", steps, "second relation search, unfinished")
        for a in range(ord_el):
            g, h = b * f - a * e, b * m - a * l
            if g % d == 0 and h % n == 0 and (g > 0 or h > 0 or (g == 0 and h == 0)):
                a2, b2, g2, h2 = a, b, g, h
                break
        if b2 is not None:
            break
    assert b2 is not None
    work.charge("bruteforce", steps)

    # smallest a with a*(e,l) - b*(f,m) in the lattice, componentwise >= 0
    a3 = b3 = g3 = h3 = None
    steps = 0
    for a in range(1, ord_el + 1):
        if (steps := steps + ord_fm) > work.left:
            work.charge("bruteforce", steps, "third relation search, unfinished")
        for b in range(ord_fm):
            g, h = a * e - b * f, a * l - b * m
            if g % d == 0 and h % n == 0 and g >= 0 and h >= 0 and (g, h) != (0, 0):
                a3, b3, g3, h3 = a, b, g, h
                break
        if a3 is not None:
            break
    assert a3 is not None
    work.charge("bruteforce", steps)

    # least lattice value (h, then g) of a*(e,l) + b*(f,m) with a, b > 0
    # and b bounded by the search above
    best = None
    steps = 0
    for b in range(1, b2 + 1):
        if (steps := steps + ord_el) > work.left:
            work.charge("bruteforce", steps, "first relation search, unfinished")
        for a in range(1, ord_el + 1):
            g, h = a * e + b * f, a * l + b * m
            if g % d == 0 and h % n == 0:
                cand = (h, g, a, b)
                if best is None or cand < best:
                    best = cand
    assert best is not None
    work.charge("bruteforce", steps)
    h1, g1, a1, b1 = best

    return FourGenConstants(
        d=d, n=n, e=e, l=l, f=f, m=m,
        a1=a1, b1=b1, g1=g1, h1=h1,
        a2=a2, b2=b2, g2=g2, h2=h2,
        a3=a3, b3=b3, g3=g3, h3=h3,
    )
