"""Shared test utilities: literal reference implementations and spec families.

The reference implementations here follow the stated definitions as directly
as possible (candidate products, region scans, point-by-point membership via
the dynamic program) and are deliberately slow; the package's production
algorithms must agree with them on every sampled input.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, count
from math import prod

from sgring.core import RingSpec, Vec, _lattice_form, class_of, order_of
from sgring.errors import BudgetExceeded, NonTermination
from sgring.fourgen import FourGenConstants, TraceStep, _solve

MACAULAY = RingSpec(4, 4, ((3, 1), (1, 3)))
RING_11 = RingSpec(2, 3, ((11, 1), (1, 11)))
RING_7 = RingSpec(2, 3, ((7, 1), (1, 7)))

# y-degrees (second coordinates) of the 41 basis monomials of the
# (n, l, m) = (23, 2, 18) curve, as printed in the worked table
YDEGS_23_2_18 = (
    list(range(0, 17, 2)) + list(range(18, 35, 2)) + list(range(36, 45, 2))
    + list(range(54, 63, 2)) + list(range(72, 81, 2))
    + [90, 108, 126, 144, 162, 180, 198, 216]
)


def weighted_degree(spec: RingSpec, v: tuple[int, int]) -> int:
    """b*alpha + a*beta; gives x^a and y^b equal degree a*b."""
    return spec.b * v[0] + spec.a * v[1]


def lattice_contains(spec: RingSpec, v: tuple[int, int]) -> bool:
    """True iff v (possibly with negative coordinates) lies in the group
    generated by the exponent vectors of the ring's monomial generators."""
    x, y = v
    d1, y1, d2 = _lattice_form(spec.a, spec.b, spec.gens)
    if x % d1:
        return False
    return (y - (x // d1) * y1) % d2 == 0


def subgroup_classes_bfs(spec: RingSpec) -> frozenset[Vec]:
    """Closure of the middle generators' classes under addition mod (a, b).

    The earlier production `subgroup_classes`, kept as a reference for the
    listing from the Hermite form: it never looks at `_lattice_form`.
    """
    a, b = spec.a, spec.b
    step = {(p % a, q % b) for p, q in spec.gens}
    step.discard((0, 0))
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for dp, dq in step:
            nxt = ((x + dp) % a, (y + dq) % b)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def membership_dp(spec: RingSpec, amax: int, bmax: int):
    """Membership in S, by the dynamic program, for points up to (amax, bmax).

    (i, j) lies in S iff it is (0, 0) or some generator g <= (i, j)
    componentwise has (i, j) - g in S.  Returns a predicate on exponent
    vectors: False off the nonnegative quadrant, IndexError beyond the table.
    It never looks at the corner set, so it can check corner enumeration.
    """
    gens = ((spec.a, 0), (0, spec.b)) + spec.gens
    rows = [[False] * (bmax + 1) for _ in range(amax + 1)]
    rows[0][0] = True
    for i in range(amax + 1):
        row = rows[i]
        for j in range(bmax + 1):
            row[j] = row[j] or any(
                gp <= i and gq <= j and rows[i - gp][j - gq] for gp, gq in gens
            )

    def contains(v: tuple[int, int]) -> bool:
        x, y = v
        return x >= 0 and y >= 0 and rows[x][y]

    return contains


def corner_grids_worklist(a: int, b: int, gens, budget: int = 10_000_000) -> dict:
    """Per-class minimal points of S, in lattice steps (u, v) off the class rep.

    The earlier production enumeration, kept as a reference for rings too
    large for corners_reference: a LIFO worklist closure over sums of middle
    generators, where a sum is kept only while no already-known point of
    its class lies componentwise below it.  Each class keeps its known
    points as a staircase sorted by alpha (so beta descending): the last
    point at or before (alpha, beta) is the one that may lie below it, and
    the points the new one lies below follow it in one run.  Work is bounded
    by `budget` insertions.
    """
    mins: dict = {(0, 0): [(0, 0)]}
    stack = [(0, 0)]
    steps = 0
    while stack:
        x, y = stack.pop()
        for gp, gq in gens:
            w = (x + gp, y + gq)
            lst = mins.setdefault((w[0] % a, w[1] % b), [])
            i = bisect_right(lst, w)  # points with alpha < w's, or equal and beta <= w's
            if i and lst[i - 1][1] <= w[1]:
                continue
            j = i  # from i on alpha >= w's; drop the run that also has beta >= w's
            while j < len(lst) and lst[j][1] >= w[1]:
                j += 1
            lst[i:j] = [w]
            steps += 1
            if steps > budget:
                raise BudgetExceeded(
                    f"corner enumeration exceeded budget of {budget} insertions"
                )
            stack.append(w)
    return {
        cls: [((va - cls[0]) // a, (vb - cls[1]) // b) for va, vb in lst]
        for cls, lst in mins.items()
    }


def constants_walk(d: int, n: int, el, fm) -> FourGenConstants:
    """The earlier production constants search, kept as a reference for the
    multiples walk in fourgen.constants: inputs already checked there.

    The second relation walks b = 1, 2, ... and the third a = 1, 2, ...; for
    each, `_solve` gives the only partner coefficient inside its order range,
    so each walk is O(ord) and stops at b = ord(f,m), resp. a = ord(e,l).
    The first relation is their sum.
    """
    (e, l), (f, m) = el, fm

    for b2 in count(1):
        a2 = _solve(el, (b2 * f, b2 * m), d, n)
        if a2 is not None:
            g2, h2 = b2 * f - a2 * e, b2 * m - a2 * l
            if g2 > 0 or h2 > 0 or g2 == h2 == 0:
                break

    for a3 in count(1):
        b3 = _solve(fm, (a3 * e, a3 * l), d, n)
        if b3 is not None:
            g3, h3 = a3 * e - b3 * f, a3 * l - b3 * m
            if g3 >= 0 and h3 >= 0 and (g3 or h3):
                break

    return FourGenConstants(
        d=d, n=n, e=e, l=l, f=f, m=m,
        a1=a3 - a2, b1=b2 - b3, g1=g2 + g3, h1=h2 + h3,
        a2=a2, b2=b2, g2=g2, h2=h2,
        a3=a3, b3=b3, g3=g3, h3=h3,
    )


def candidate_box(consts: FourGenConstants) -> frozenset[tuple[int, int]]:
    """Seed set: pairs with a < a1, b < b2 joined with a < a3, b < b1.

    Its size is group_order; it maps to one monomial per congruence class.
    """
    box = {(a, b) for a in range(consts.a1) for b in range(consts.b2)}
    box.update((a, b) for a in range(consts.a3) for b in range(consts.b1))
    return frozenset(box)


def pair_log(consts: FourGenConstants, a: int, b: int) -> tuple[int, int]:
    """Exponent vector of (x^e y^l)^a * (x^f y^m)^b."""
    return (a * consts.e + b * consts.f, a * consts.l + b * consts.m)


@dataclass(frozen=True)
class SetLoopBasis:
    """What `monomial_basis_sets` grows: the basis as a set of pairs."""

    pairs: frozenset[tuple[int, int]]
    monomials: frozenset[tuple[int, int]]
    initial_size: int
    trace: tuple[TraceStep, ...]


def monomial_basis_sets(consts: FourGenConstants) -> SetLoopBasis:
    """The earlier production basis loop, kept as a reference for the row
    widths in fourgen.monomial_basis: it grows the seed box by set union,
    and counts each step's additions by set difference.

    State (base, a*, b*, g*, h*) starts at (a1, a2, b2, g2, h2) and each
    iteration fires exactly one of three rules, appending a block of rows
    above the current b*.  All updates in a rule read pre-iteration values
    (in rule 6 the new base is a1 minus the old a*).  The loop provably
    stops within a3 <= |H| iterations; the guard only trips on a bug.
    """
    a1, b1, g1, h1 = consts.a1, consts.b1, consts.g1, consts.h1
    a2, b2, g2, h2 = consts.a2, consts.b2, consts.g2, consts.h2
    limit = consts.group_order + 1

    pairs = set(candidate_box(consts))
    initial_size = len(pairs)
    base, a_star, b_star, g_star, h_star = a1, a2, b2, g2, h2
    trace: list[TraceStep] = []

    while g_star < 0 or h_star < 0:
        if len(trace) >= limit:
            raise NonTermination(
                f"basis loop exceeded {limit} iterations for {consts}"
            )
        assert base >= 1  # loop invariant; rules are exclusive only then
        if a_star >= a1:
            branch = 4
            new = {(u, b_star + v) for u in range(base) for v in range(b1)}
            a_star, b_star = a_star - a1, b_star + b1
            g_star, h_star = g_star + g1, h_star + h1
        elif a_star <= a1 - base:
            branch = 5
            new = {(u, b_star + v) for u in range(base) for v in range(b2)}
            a_star, b_star = a_star + a2, b_star + b2
            g_star, h_star = g_star + g2, h_star + h2
        else:
            branch = 6
            new = {(u, b_star + v) for u in range(base) for v in range(b1)}
            new.update(
                (u, b_star + v) for u in range(a1 - a_star) for v in range(b2)
            )
            base = a1 - a_star
            a_star, b_star = a_star + a2, b_star + b2
            g_star, h_star = g_star + g2, h_star + h2
        added = len(new - pairs)
        pairs |= new
        trace.append(
            TraceStep(branch, base, a_star, b_star, g_star, h_star, added, len(pairs))
        )

    return SetLoopBasis(
        pairs=frozenset(pairs),
        monomials=frozenset(pair_log(consts, a, b) for a, b in pairs),
        initial_size=initial_size,
        trace=tuple(trace),
    )


def corners_reference(spec: RingSpec, budget: int = 10_000_000) -> list[tuple[int, int]]:
    """Corner set by literal candidate enumeration.

    Candidates are all sums sum(c_i * g_i) with 0 <= c_i < order(class(g_i));
    the corner condition is tested point by point with the membership DP.
    """
    ords = [order_of(class_of(spec, g), (spec.a, spec.b)) for g in spec.gens]
    if prod(ords, start=1) > budget:
        raise BudgetExceeded(f"{prod(ords, start=1)} candidates exceed {budget}")
    cands = {(0, 0)}
    for (gp, gq), o in zip(spec.gens, ords):
        cands = {(x + i * gp, y + i * gq) for x, y in cands for i in range(o)}
    a, b = spec.a, spec.b
    member = membership_dp(spec, max(x for x, _ in cands), max(y for _, y in cands))
    out = []
    for x, y in cands:
        assert member((x, y))
        if (x < a or not member((x - a, y))) and (y < b or not member((x, y - b))):
            out.append((x, y))
    return sorted(out, key=lambda v: (v[1], v[0]))


def order_in_powers_reference(spec: RingSpec, v: tuple[int, int], member) -> int:
    """max(i + j) with v - (i*a, j*b) in S, via the membership DP `member`
    (see membership_dp, covering v); -1 if v not in S."""
    a, b = spec.a, spec.b
    x, y = v
    best = -1
    for i in range(x // a + 1):
        for j in range(y // b + 1):
            if i + j > best and member((x - i * a, y - j * b)):
                best = i + j
    return best


def hilbert_function_reference(spec: RingSpec, n: int) -> int:
    """Region scan counting monomials of parameter-power order exactly n."""
    ref = corners_reference(spec)
    amax = max(x for x, _ in ref) + (n + 1) * spec.a
    bmax = max(y for _, y in ref) + (n + 1) * spec.b
    member = membership_dp(spec, amax, bmax)
    count = 0
    for x in range(amax + 1):
        for y in range(bmax + 1):
            if order_in_powers_reference(spec, (x, y), member) == n:
                count += 1
    return count


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


def _max_gap(degs: list[int]) -> int:
    """Largest gap in the greedy descent over a degree profile.

    From the top index repeatedly jump to the largest lower index whose
    degree does not exceed the current one (index 0 always qualifies);
    the answer is the widest stretch of skipped indices.
    """
    gap, cur = 0, len(degs) - 1
    for nxt in range(cur - 1, -1, -1):
        if degs[nxt] <= degs[cur]:
            gap, cur = max(gap, cur - nxt - 1), nxt
    return gap


def _ladders(grid: tuple[Vec, ...]) -> tuple[Vec, list[Vec], list[Vec], int, int]:
    """(anchor, row ladder, column ladder, row gap, column gap) of one class.

    `grid` is the class's antichain in lattice steps, u ascending.  Inside a
    class the weighted degree b*alpha + a*beta is a constant plus
    a*b*(u + v), so the anchor is the corner of least (u + v, v, u) and the
    gaps are taken over u + v.
    Pointer walks give the ladders: row v below the anchor starts at the
    first corner with v' <= v, column u left of it at the last with u' <= u.
    """
    k, least = 0, grid[0][0] + grid[0][1]
    for i, (u, v) in enumerate(grid):
        if u + v <= least:  # v descends: the last tie has the least v
            k, least = i, u + v
    au, av = grid[k]
    rows = []
    j = k
    for v in range(av - 1, grid[-1][1] - 1, -1):
        while grid[j][1] > v:
            j += 1
        rows.append((grid[j][0], v))
    cols = []
    j = k
    for u in range(au - 1, grid[0][0] - 1, -1):
        while grid[j][0] > u:
            j -= 1
        cols.append((u, grid[j][1]))
    row_gap = _max_gap([au + av] + [u + v for u, v in rows])
    col_gap = _max_gap([au + av] + [u + v for u, v in cols])
    return (au, av), rows, cols, row_gap, col_gap


def ladder_aggregate(grids) -> tuple[int, int]:
    """(constant, stabilization) from the class grids by the earlier
    production ladder pass, kept as the reference for hilbert_data: ladder
    lengths summed, gaps maxed."""
    constant = settle = 0
    for grid in grids:
        _, rows, cols, row_gap, col_gap = _ladders(grid)
        constant += len(rows) + len(cols)
        settle = max(settle, row_gap, col_gap)
    return constant, settle


def gsw_reference(spec: RingSpec) -> tuple[bool, tuple[int, int] | None]:
    """Literal bounded cone-shift search over group-lattice points."""
    ref = corners_reference(spec)
    a, b = spec.a, spec.b
    amax = max(x for x, _ in ref)
    bmax = max(y for _, y in ref)
    member = membership_dp(spec, amax + a, bmax + b)
    for y in range(-b, bmax + 1):
        for x in range(-a, amax + 1):
            if not lattice_contains(spec, (x, y)):
                continue
            if member((x, y)):
                continue
            if member((x + a, y)) and member((x, y + b)):
                return False, (x, y)
    return True, None


VECS_12 = [(p, q) for p in range(13) for q in range(13) if (p, q) != (0, 0)]


def iter_hilbert_family():
    """Every ring with a, b <= 4, t <= 2, generator exponents <= 12."""
    gen_pairs = list(combinations(VECS_12, 2))
    for a in range(1, 5):
        for b in range(1, 5):
            yield RingSpec(a, b, ())
            for g in VECS_12:
                yield RingSpec(a, b, (g,))
            for g1, g2 in gen_pairs:
                yield RingSpec(a, b, (g1, g2))


def iter_fourgen_params():
    """Every four-generator ring with d, n <= 6 and exponents <= 12.

    Rings, not ordered tuples: generator pairs are unordered and distinct
    (a repeated middle generator leaves a three-generator ring).
    """
    gen_pairs = list(combinations(VECS_12, 2))
    for d in range(1, 7):
        for n in range(1, 7):
            for el, fm in gen_pairs:
                yield d, n, el, fm


def iter_curves(max_n: int):
    for n in range(3, max_n + 1):
        for l in range(1, n):
            for m in range(l + 1, n):
                yield n, l, m


def small_specs_for_crosscheck():
    """A modest deterministic family for slow-reference differential tests."""
    specs = [
        RingSpec(2, 3, ()),
        RingSpec(1, 1, ((2, 3),)),
        RingSpec(2, 2, ((1, 1),)),
        RingSpec(3, 2, ((1, 1), (2, 1))),
        RingSpec(2, 3, ((3, 1), (1, 2))),
        RingSpec(3, 3, ((1, 2), (2, 1))),
        RingSpec(4, 4, ((3, 1), (1, 3))),
        RingSpec(2, 3, ((5, 1), (1, 5))),
        RingSpec(4, 2, ((2, 1), (3, 3))),
        RingSpec(3, 4, ((1, 1), (5, 2))),
        RingSpec(2, 2, ((1, 1), (1, 3), (3, 1))),
        RingSpec(3, 3, ((1, 1), (2, 2), (4, 1))),
    ]
    return specs
