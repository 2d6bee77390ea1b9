"""Exact lattice and semigroup arithmetic for rings k[x^a, x^p1 y^q1, ..., y^b].

A ring spec is the exponent data (a, b, gens).  The monomials of the ring
form the semigroup S spanned over the nonnegative integers by
(a, 0), (0, b) and the middle generators; congruence classes live in
(Z/aZ) + (Z/bZ).  Everything here is exact: Python integers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import NegativeExponent, NonPositiveAB, ZeroGenerator

Vec = tuple[int, int]


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

    @property
    def modulus(self) -> Vec:
        return (self.a, self.b)


def validate(a: int, b: int, gens) -> RingSpec:
    """Canonicalize raw ring data, raising a structured error when invalid."""
    return RingSpec(a, b, tuple((p, q) for p, q in gens))


def class_of(spec: RingSpec, v: Vec) -> Vec:
    """Canonical residue (alpha mod a, beta mod b) of an exponent vector."""
    return (v[0] % spec.a, v[1] % spec.b)


def order_of(c: Vec, modulus: Vec) -> int:
    """Order of the class c in (Z/aZ) + (Z/bZ)."""
    a, b = modulus
    return lcm(a // gcd(c[0] % a, a), b // gcd(c[1] % b, b))


def subgroup_classes(spec: RingSpec) -> frozenset[Vec]:
    """Closure of the middle generators' classes under addition mod (a, b)."""
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


def weighted_degree(spec: RingSpec, v: Vec) -> int:
    """b*alpha + a*beta; gives x^a and y^b equal degree a*b."""
    return spec.b * v[0] + spec.a * v[1]


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


@lru_cache(maxsize=256)
def _lattice_form(spec: RingSpec) -> tuple[int, int, int]:
    """Hermite form (d1, y1, d2) of the Z-span of {(a,0), (0,b)} + gens.

    The lattice is {(x, y) : d1 | x and d2 | y - (x // d1) * y1}.  Both
    d1 and d2 are >= 1 because (a, 0) and (0, b) are always present.
    """
    d1, y1 = spec.a, 0
    ys = [spec.b]
    for p, q in spec.gens:
        g, s, t = _xgcd(d1, p)
        ys.append((d1 // g) * q - (p // g) * y1)
        d1, y1 = g, s * y1 + t * q
    d2 = 0
    for y in ys:
        d2 = gcd(d2, y)
    return d1, y1 % d2, d2


def group_order(spec: RingSpec) -> int:
    """|H| = a*b / (d1*d2): the index of (aZ, bZ) in the lattice, in closed form."""
    d1, _, d2 = _lattice_form(spec)
    return spec.a * spec.b // (d1 * d2)


def lattice_contains(spec: RingSpec, v: Vec) -> bool:
    """True iff v (possibly with negative coordinates) lies in the group
    generated by the exponent vectors of the ring's monomial generators."""
    x, y = v
    d1, y1, d2 = _lattice_form(spec)
    if x % d1:
        return False
    return (y - (x // d1) * y1) % d2 == 0
