"""Hilbert data of (x^a, y^b), read off each class's corners in one walk.

A class's corners are an antichain in lattice steps, u ascending, and its
weighted degree is a constant plus a*b*(u + v).  The anchor (au, av) is the
corner of least u + v, the last on a tie.  The rows below it and the
columns left of it are the class's two ladders, of lengths av - v_last and
au - u_first; their sum is its share of the Hilbert constant.  N is the
widest gap of the greedy degree descent down a ladder to the anchor.  Each
rung is served by a corner, and u + v rises away from that corner, so the
descent lands only on corners.  Hence the chain rule: from the far corner
step to the nearest corner toward the anchor whose u + v is no larger (the
anchor always qualifies); the gap is v_next - v_cur - 1 on rows and
u_next - u_cur - 1 on columns.  The grids come from `oracle.corners`;
nothing here enumerates corners.  `run_checks` is the one table of
Cohen-Macaulay criteria and fast-vs-oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fourgen
from .core import RingSpec, Work, group_order, subgroup_classes
from .errors import InfeasibleHilbertData, RingSpecError, TrivialSubgroup
from .oracle import CornerSet, fourgen_constants_bruteforce, gsw_cm_check, hilbert_function


def _settle(walk, axis: int) -> int:
    """Widest gap of one ladder's descent, walking its corners (u, v) from
    the far end to the anchor, in steps of coordinate `axis` (1 for rows,
    0 for columns)."""
    walk = iter(walk)
    cur = next(walk)
    deg, gap = cur[0] + cur[1], 0
    for nxt in walk:
        if nxt[0] + nxt[1] <= deg:
            gap = max(gap, nxt[axis] - cur[axis] - 1)
            cur, deg = nxt, nxt[0] + nxt[1]
    return gap


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


def hilbert_data(spec: RingSpec, cs: CornerSet) -> HilbertData:
    """The Hilbert polynomial of the corner set `cs`, from one walk over
    each class's corners (see the module docstring).  A single-corner class
    has empty ladders and no gap, so it adds nothing beyond its share of
    the multiplicity."""
    constant = settle = 0
    for grid in cs.grids.values():
        if len(grid) == 1:
            continue
        k, least = 0, grid[0][0] + grid[0][1]
        for i, (u, v) in enumerate(grid):
            if u + v <= least:  # v descends: the last tie has the least v
                k, least = i, u + v
        au, av = grid[k]
        constant += av - grid[-1][1] + au - grid[0][0]
        settle = max(settle, _settle(reversed(grid[k:]), 1), _settle(grid[:k + 1], 0))
    return HilbertData(
        multiplicity=len(cs.grids), constant=constant, stabilization=settle
    )


def is_cm(spec: RingSpec, cs: CornerSet) -> bool:
    """Cohen-Macaulay iff every congruence class has exactly one corner in `cs`."""
    return all(len(g) == 1 for g in cs.grids.values())


def run_checks(cs: CornerSet, hd: HilbertData,
               basis: fourgen.BasisResult | None, hf_range: tuple[int, int] | None,
               with_oracle: bool = True,
               work: Work | None = None) -> tuple[dict[str, bool], list[tuple[str, bool, str]]]:
    """The Cohen-Macaulay criteria, which must agree, and the (name, passed,
    detail) fast-vs-oracle checks, which should all pass on the ring cs.spec.

    `basis` is the four-generator basis when the ring has two middle
    generators.  Its seed box, the first b2 rows of its widths, is checked
    to hold exactly |H| pairs, with |H| taken from the Hermite form of the
    lattice rather than from the relation constants.  Without `with_oracle`
    nothing brute-force runs: no cone-shift criterion, no constants or
    seed-box check.  `work` is charged the count's corner visits before it
    runs, one per corner and order (an upper bound: the count finds the
    boxes once per corner set), and the brute-force constants' steps.
    """
    spec = cs.spec
    work = work or Work()
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
        work.charge("hilbert_function", (hi - lo + 1) * len(cs),
                    f"Hilbert-function count over {lo}..{hi}")
        values = [hilbert_function(spec, n, cs) for n in range(lo, hi + 1)]
        bad = [n for n, hf in zip(range(lo, hi + 1), values)
               if (hf == hd.value(n)) != (n >= hd.stabilization)]
        checks.append((
            "hilbert_function", not bad,
            f"HF({lo}..{hi}) = {values}, equals P(n) exactly for n >= {hd.stabilization}",
        ))
    if basis is not None:
        if with_oracle:
            brute = fourgen_constants_bruteforce(spec.a, spec.b, *spec.gens, work)
            checks.append(("constants", brute == basis.consts, f"fast {basis.consts} vs brute force"))
        checks.append(("basis_equals_corners", basis.monomials == frozenset(cs.corners),
                       f"basis size {sum(basis.widths)}, corner count {len(cs)}"))
        if with_oracle:
            h = group_order(spec)
            checks.append(("candidate_box_size", basis.initial_size == h, f"|B0| vs |H| = {h}"))
    return criteria, checks


def construct_ring(
    a: int,
    b: int,
    class_gens,
    constant: int,
    stabilization: int,
    work: Work | None = None,
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
    classes are listed, `work` is given the forecast of |H| x t generator
    steps, the least the built ring's corner enumeration can take, with |H|
    in closed form and t = |H| + constant - stabilization - 1.
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
    (work or Work()).forecast("corners", size * t, f"at least |H| x t = {size} x {t}")
    others = sorted(subgroup_classes(h_spec) - {(0, 0)})

    depth = c + s + 1  # pure-power padding; keeps generator products deep
    span = depth + c + s
    p0, q0 = others[0]
    gens = [(p + depth * a, q + span * b) for p, q in others]
    gens += [(p0 + (depth + j) * a, q0 + (span - j) * b) for j in [*range(c - s), c]]
    return RingSpec(a, b, tuple(gens))
