"""Exact lattice and semigroup arithmetic for rings k[x^a, x^p1 y^q1, ..., y^b].

A ring spec is the exponent data (a, b, gens).  The monomials of the ring
form the semigroup S spanned over the nonnegative integers by
(a, 0), (0, b) and the middle generators; congruence classes live in
(Z/aZ) + (Z/bZ).  Everything here is exact: Python integers only.  `Work`
is the work ledger that every layer charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import BudgetExceeded, NegativeExponent, NonPositiveAB, ZeroGenerator

Vec = tuple[int, int]

DEFAULT_BUDGET = 10_000_000


class Work:
    """The work ledger of one run: the budget, what is left of it, and the
    units each layer has spent.  It is the only code that compares against
    the budget.  A forecast, a lower bound that a later charge covers,
    refuses without spending; a charge spends.  A refusal raises
    BudgetExceeded naming the layer, its units, the budget and every spend.
    """

    UNITS = {"batch": "curves", "corners": "generator steps", "hilbert_function": "corner visits",
             "bruteforce": "brute-force steps", "basis": "basis pairs"}
    __slots__ = ("budget", "left", "spent")

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self.budget, self.left, self.spent = budget, budget, {}

    def forecast(self, layer: str, units: int, what: str) -> None:
        if units > self.left:
            self.charge(layer, units, what)  # refuses

    def charge(self, layer: str, units: int, what: str = "") -> None:
        if units > self.left:
            spent = ", ".join(f"{k} {v} {self.UNITS[k]}" for k, v in self.spent.items())
            raise BudgetExceeded(
                f"{layer} needs {units} {self.UNITS[layer]} ({what}), over the {self.left} left "
                f"of the work budget of {self.budget}; spent: {spent or 'nothing'}")
        self.left -= units
        self.spent[layer] = self.spent.get(layer, 0) + units


@dataclass(frozen=True)
class RingSpec:
    """Generator data of R = k[x^a, x^p1 y^q1, ..., x^pt y^qt, y^b].

    Duplicate middle generators are dropped; order is otherwise preserved.
    Instances are immutable and safe to share between threads.
    """

    a: int
    b: int
    gens: tuple[Vec, ...] = ()

    def __post_init__(self) -> None:
        # exactly int: bool is an int subclass, but True is not an exponent
        if type(self.a) is not int or type(self.b) is not int:
            raise NonPositiveAB(f"a and b must be integers, got {self.a!r}, {self.b!r}")
        if self.a < 1 or self.b < 1:
            raise NonPositiveAB(f"need a >= 1 and b >= 1, got a={self.a}, b={self.b}")
        seen = set()
        gens = []
        for g in self.gens:
            p, q = g
            if type(p) is not int or type(q) is not int or p < 0 or q < 0:
                raise NegativeExponent(f"generator {g!r} has a negative or non-integer exponent")
            if p == 0 and q == 0:
                raise ZeroGenerator("generator (0, 0) is not allowed")
            if (p, q) not in seen:
                seen.add((p, q))
                gens.append((p, q))
        object.__setattr__(self, "gens", tuple(gens))


def class_of(spec: RingSpec, v: Vec) -> Vec:
    """Canonical residue (alpha mod a, beta mod b) of an exponent vector."""
    return (v[0] % spec.a, v[1] % spec.b)


def order_of(c: Vec, modulus: Vec) -> int:
    """Order of the class c in (Z/aZ) + (Z/bZ)."""
    a, b = modulus
    return lcm(a // gcd(c[0] % a, a), b // gcd(c[1] % b, b))


def subgroup_classes(spec: RingSpec) -> frozenset[Vec]:
    """H: the classes of the middle generators' span in (Z/aZ) + (Z/bZ),
    listed from the Hermite form (d1, y1, d2) of `_lattice_form`.

    A lattice point with x = i*d1 has y = i*y1 (mod d2), and d1 | a, d2 | b,
    so H is {(i*d1, y) : 0 <= i < a/d1, 0 <= y < b, y = i*y1 (mod d2)},
    one class per point, (a/d1)*(b/d2) in all.
    """
    a, b = spec.a, spec.b
    d1, y1, d2 = _lattice_form(a, b, spec.gens)
    # a frozenset copied from a set gets a table sized to fit, one filled
    # from a generator keeps its growth headroom (up to twice the memory)
    return frozenset({(i * d1, y) for i in range(a // d1) for y in range(i * y1 % d2, b, d2)})


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def _lattice_form(a: int, b: int, gens) -> tuple[int, int, int]:
    """Hermite form (d1, y1, d2) of the Z-span of {(a,0), (0,b)} + gens.

    The lattice is {(x, y) : d1 | x and d2 | y - (x // d1) * y1}.  Both
    d1 and d2 are >= 1 because (a, 0) and (0, b) are always present.
    """
    d1, y1 = a, 0
    ys = [b]
    for p, q in gens:
        g, s, t = _xgcd(d1, p)
        ys.append((d1 // g) * q - (p // g) * y1)
        d1, y1 = g, s * y1 + t * q
    d2 = 0
    for y in ys:
        d2 = gcd(d2, y)
    return d1, y1 % d2, d2


def subgroup_order(a: int, b: int, gens) -> int:
    """|H| = a*b / (d1*d2): the index of (aZ, bZ) in the lattice, in closed form.

    Takes the bare data, so a caller without a RingSpec builds none.
    """
    d1, _, d2 = _lattice_form(a, b, gens)
    return a * b // (d1 * d2)


def group_order(spec: RingSpec) -> int:
    """|H| of a ring: `subgroup_order` of its modulus and middle generators."""
    return subgroup_order(spec.a, spec.b, spec.gens)
