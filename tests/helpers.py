"""Shared test utilities: literal reference implementations and spec families.

The reference implementations here follow the stated definitions as directly
as possible (candidate products, region scans, point-by-point membership via
the dynamic program) and are deliberately slow; the package's production
algorithms must agree with them on every sampled input.
"""

from itertools import combinations
from math import prod

from sgring.core import RingSpec, class_of, lattice_contains, order_of
from sgring.errors import BudgetExceeded

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
    its class lies componentwise below it.  Grids come out unsorted.  Work
    is bounded by `budget` insertions.
    """
    mins: dict = {(0, 0): [(0, 0)]}
    stack = [(0, 0)]
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


def corners_reference(spec: RingSpec, budget: int = 10_000_000) -> list[tuple[int, int]]:
    """Corner set by literal candidate enumeration.

    Candidates are all sums sum(c_i * g_i) with 0 <= c_i < order(class(g_i));
    the corner condition is tested point by point with the membership DP.
    """
    ords = [order_of(class_of(spec, g), spec.modulus) for g in spec.gens]
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
