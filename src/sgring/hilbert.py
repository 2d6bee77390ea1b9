"""Hilbert data of (x^a, y^b) from per-class corner ladders.

For each congruence class the corners form a staircase.  The anchor is a
corner of least weighted degree; walking the staircase rows below it (and,
mirrored, the columns left of it) yields two ladders whose lengths sum to
the class's contribution to the Hilbert constant, and whose degree profile
determines when the Hilbert function settles onto the polynomial.  Ladders
are walked on the corner grids, in lattice steps.  `run_checks` is the one
table of Cohen-Macaulay criteria and fast-vs-oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fourgen
from .core import RingSpec, group_order, subgroup_classes
from .errors import BudgetExceeded, ClassNotInSubgroup, InfeasibleHilbertData, RingSpecError, TrivialSubgroup
from .oracle import DEFAULT_BUDGET, CornerSet, corners, fourgen_constants_bruteforce, gsw_cm_check, hilbert_function

Vec = tuple[int, int]


@dataclass(frozen=True)
class StaircaseClass:
    """Ladder data of one congruence class.

    anchor     -- corner of minimal weighted degree (ties: least beta, then
                  least alpha)
    corners    -- the class's corners, beta ascending
    n_rows     -- rows below the anchor that still meet the staircase
    n_cols     -- columns left of the anchor, mirrored
    row_ladder -- per row below the anchor, the least monomial on that row
    col_ladder -- per column left of the anchor, the least monomial there
    row_gap    -- largest run of rows whose ladder degree exceeds both ends
    col_gap    -- mirrored
    settle     -- max(row_gap, col_gap): this class's contribution to the
                  Hilbert function is constant from that index on
    """

    cls: Vec
    anchor: Vec
    corners: tuple[Vec, ...]
    n_rows: int
    n_cols: int
    row_ladder: tuple[Vec, ...]
    col_ladder: tuple[Vec, ...]
    row_gap: int
    col_gap: int
    settle: int


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
    class the weighted degree is a constant plus a*b*(u + v), so the anchor
    is the corner of least (u + v, v, u) and the gaps are taken over u + v.
    Pointer walks give the ladders: row v below the anchor starts at the
    first corner with v' <= v, column u left of it at the last with u' <= u.
    """
    k = min(range(len(grid)), key=lambda i: (grid[i][0] + grid[i][1], grid[i][1]))
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


def class_staircase(
    spec: RingSpec,
    cls: Vec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> StaircaseClass:
    """The ladders of one congruence class, as exponent vectors."""
    cs = corner_set if corner_set is not None else corners(spec, budget)
    a, b = spec.a, spec.b
    p, q = cls = (cls[0] % a, cls[1] % b)
    grid = cs.grids.get(cls)
    if grid is None:
        raise ClassNotInSubgroup(f"class {cls} is not generated by {spec.gens}")
    anchor, rows, cols, row_gap, col_gap = _ladders(grid)

    def vec(step: Vec) -> Vec:
        return (p + step[0] * a, q + step[1] * b)

    return StaircaseClass(
        cls=cls,
        anchor=vec(anchor),
        corners=tuple(vec(c) for c in reversed(grid)),
        n_rows=len(rows),
        n_cols=len(cols),
        row_ladder=tuple(map(vec, rows)),
        col_ladder=tuple(map(vec, cols)),
        row_gap=row_gap,
        col_gap=col_gap,
        settle=max(row_gap, col_gap),
    )


@dataclass(frozen=True)
class HilbertData:
    """Hilbert polynomial P(n) = multiplicity*(n+1) + constant of (x^a, y^b).

    stabilization is the least index from which the Hilbert function
    equals P: HF(n) = P(n) for every n >= stabilization, and, when
    stabilization >= 1, HF(stabilization - 1) != P(stabilization - 1).
    """

    multiplicity: int
    constant: int
    stabilization: int

    @property
    def slope(self) -> int:
        return self.multiplicity

    @property
    def intercept(self) -> int:
        return self.multiplicity + self.constant

    def value(self, n: int) -> int:
        return self.multiplicity * (n + 1) + self.constant


def staircases(
    spec: RingSpec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[StaircaseClass]:
    """Ladder data for every congruence class, sorted by class."""
    cs = corner_set if corner_set is not None else corners(spec, budget)
    return [class_staircase(spec, cls, cs) for cls in cs.grids]


def hilbert_data(
    spec: RingSpec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> HilbertData:
    """Aggregate the per-class ladders into the Hilbert polynomial."""
    cs = corner_set if corner_set is not None else corners(spec, budget)
    constant = 0
    settle = 0
    for grid in cs.grids.values():
        _, rows, cols, row_gap, col_gap = _ladders(grid)
        constant += len(rows) + len(cols)
        settle = max(settle, row_gap, col_gap)
    return HilbertData(
        multiplicity=len(cs.grids), constant=constant, stabilization=settle
    )


def is_cm(
    spec: RingSpec,
    corner_set: CornerSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Cohen-Macaulay iff every congruence class has exactly one corner."""
    cs = corner_set if corner_set is not None else corners(spec, budget)
    return all(len(g) == 1 for g in cs.grids.values())


def run_checks(spec: RingSpec, cs: CornerSet, hd: HilbertData,
               basis: fourgen.BasisResult | None, hf_range: tuple[int, int] | None,
               with_oracle: bool = True) -> tuple[dict[str, bool], list[tuple[str, bool, str]]]:
    """The Cohen-Macaulay criteria, which must agree, and the (name, passed,
    detail) fast-vs-oracle checks, which should all pass on every ring.

    `basis` is the four-generator basis when the ring has two middle
    generators.  Without `with_oracle` nothing brute-force runs: no
    cone-shift criterion, no constants or box-size check.
    """
    criteria = {
        "corner_unique": is_cm(spec, cs),
        "length_equals_multiplicity": len(cs) == hd.multiplicity,
    }
    if len(spec.gens) <= 1:
        # at most three monomial generators: always Cohen-Macaulay
        criteria["few_generators"] = True
    elif basis is not None:
        criteria["fourgen_sign"] = fourgen.is_cm(basis.consts)
    if with_oracle:
        criteria["cone_shift"] = gsw_cm_check(spec, cs)[0]
    checks = [("cm_agreement", len(set(criteria.values())) == 1,
               " ".join(f"{k}={str(v).lower()}" for k, v in sorted(criteria.items())))]
    if hf_range is not None:
        lo, hi = hf_range
        values = [hilbert_function(spec, n, cs) for n in range(lo, hi + 1)]
        bad = [n for n, hf in zip(range(lo, hi + 1), values)
               if (hf == hd.value(n)) != (n >= hd.stabilization)]
        checks.append((
            "hilbert_function", not bad,
            f"HF({lo}..{hi}) = {values}, equals P(n) exactly for n >= {hd.stabilization}",
        ))
    if basis is not None:
        consts = basis.consts
        if with_oracle:
            brute = fourgen_constants_bruteforce(spec.a, spec.b, spec.gens[0], spec.gens[1])
            checks.append(("constants", brute == consts, f"fast {consts} vs brute force"))
        checks.append(("basis_equals_corners", basis.monomials == frozenset(cs.corners),
                       f"basis size {len(basis.pairs)}, corner count {len(cs)}"))
        if with_oracle:
            checks.append(("candidate_box_size",
                           len(fourgen.candidate_box(consts)) == consts.group_order,
                           f"|B0| vs |H| = {consts.group_order}"))
    return criteria, checks


def construct_ring(
    a: int,
    b: int,
    class_gens,
    constant: int,
    stabilization: int,
    budget: int = DEFAULT_BUDGET,
) -> RingSpec:
    """Build a ring whose parameter ideal has the requested Hilbert data.

    The result R = k[x^a, gens..., y^b] satisfies multiplicity = |H| (the
    subgroup generated by `class_gens` mod (a, b)), Hilbert constant
    `constant`, and Hilbert function equal to the polynomial exactly from
    `stabilization` on.  One distinguished class carries a ladder of length
    `constant` whose corners sit at positions {0..constant-stabilization-1}
    and {constant}, leaving a degree bump of exactly `stabilization` rows;
    every other nonzero class gets a single deep generator.

    A stabilization index N >= 1 requires constant > N (the bump lives
    strictly inside the ladder), so other pairs are rejected.  Before the
    classes are listed, |H| is counted in closed form and the built ring's
    t = |H| + constant - stabilization - 1 middle generators are counted:
    |H| x t generator steps, the least its corner enumeration can take, must
    fit in `budget`.
    """
    RingSpec(a, b)  # a, b >= 1 before they serve as moduli
    # exactly int before % reduces them: bool is an int subclass
    if any(type(e) is not int for g in class_gens for e in g):
        raise RingSpecError(f"subgroup generators must be integer pairs, got {class_gens!r}")
    h_spec = RingSpec(a, b, tuple({(p % a, q % b) for p, q in class_gens} - {(0, 0)}))
    size = group_order(h_spec)
    if size == 1:
        raise TrivialSubgroup("the generated congruence subgroup is trivial")
    if constant < 0 or stabilization < 0:
        raise InfeasibleHilbertData("constant and stabilization must be >= 0")
    if stabilization >= 1 and stabilization >= constant:
        raise InfeasibleHilbertData(
            f"no ring has Hilbert constant {constant} with stabilization "
            f"{stabilization}: stabilization >= 1 forces constant > stabilization"
        )
    c, s = constant, stabilization
    t = size + c - s - 1  # the gens below, less the repeat of others[0] at j = 0
    if size * t > budget:
        raise BudgetExceeded(
            f"the built ring needs at least |H| x t = {size} x {t} generator steps, "
            f"over the work budget of {budget}"
        )
    others = sorted(subgroup_classes(h_spec) - {(0, 0)})

    depth = c + s + 1  # pure-power padding; keeps generator products deep
    span = depth + c + s
    p0, q0 = others[0]
    gens = [(p + depth * a, q + span * b) for p, q in others]
    gens += [(p0 + (depth + j) * a, q0 + (span - j) * b) for j in [*range(c - s), c]]
    return RingSpec(a, b, tuple(gens))
